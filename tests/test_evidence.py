import pytest
from hypothesis import given
from hypothesis import strategies as st

from orcas.bundle import load_bundle, records_from_json
from orcas.domain import TestLevel, TriggerKind
from orcas.errors import BundleError, OrcasError
from orcas.evidence import (
    FUNCTION_TEST,
    SYSTEM_TEST,
    UNIT_TEST,
    CoverageStatus,
    GateDecision,
    assessment_confidence,
    required_tca_template,
    score_rtm,
    score_tca,
    validate_tca_entries,
)

from conftest import write_bundle


def rtm_entry(i, status):
    return {"req_id": f"REQ-{i}", "description": "requirement", "status": status.value}


def tca_entry(level, activity, trigger, status):
    return {"level": level.value, "activity": activity, "trigger": trigger.value, "status": status.value}


def rtm(entries):
    return records_from_json("rtm.json", entries)


def tca(entries):
    return records_from_json("tca.json", entries)


def full_tca(status=CoverageStatus.COMPLETE):
    return [tca_entry(*slot, status) for slot in required_tca_template()]


# Mirrors the shipped case-study checklist: everything complete except an
# indirect startup/restart slot and two missing system-level slots.
def case_study_tca():
    entries = []
    for level, activity, trigger in required_tca_template():
        if trigger is TriggerKind.STARTUP_RESTART:
            status = CoverageStatus.INDIRECT
        elif trigger in (TriggerKind.CONFIGURATION, TriggerKind.WORKLOAD_STRESS):
            status = CoverageStatus.INCOMPLETE
        else:
            status = CoverageStatus.COMPLETE
        entries.append(tca_entry(level, activity, trigger, status))
    return entries


# ---------------------------------------------------------------------------
# Template
# ---------------------------------------------------------------------------


def test_template_has_15_unique_slots():
    template = required_tca_template()
    assert len(template) == 15
    assert len(set(template)) == 15


def test_template_is_deterministic():
    assert required_tca_template() == required_tca_template()


def test_component_level_has_no_interaction_trigger():
    component = [t for level, _, t in required_tca_template() if level is TestLevel.COMPONENT]
    assert TriggerKind.INTERACTION not in component
    assert component == [TriggerKind.SIMPLE_PATH, TriggerKind.COVERAGE,
                         TriggerKind.VARIATION, TriggerKind.SEQUENCE]


def test_system_level_slots():
    system = [t for level, a, t in required_tca_template()
              if level is TestLevel.SYSTEM and a == SYSTEM_TEST]
    assert TriggerKind.WORKLOAD_STRESS in system
    assert len(system) == 5


def test_template_slot_counts_by_group():
    template = required_tca_template()
    def count(level, activity):
        return sum(1 for lv, act, _ in template if lv is level and act == activity)
    assert count(TestLevel.COMPONENT, UNIT_TEST) == 1
    assert count(TestLevel.COMPONENT, FUNCTION_TEST) == 3
    assert count(TestLevel.SUBSYSTEM, UNIT_TEST) == 2
    assert count(TestLevel.SUBSYSTEM, FUNCTION_TEST) == 4
    assert count(TestLevel.SYSTEM, SYSTEM_TEST) == 5


# ---------------------------------------------------------------------------
# RTM scoring
# ---------------------------------------------------------------------------


def test_rtm_case_study_score():
    entries = (
        [rtm_entry(i, CoverageStatus.COMPLETE) for i in range(5)]
        + [rtm_entry(5 + i, CoverageStatus.INDIRECT) for i in range(4)]
        + [rtm_entry(9, CoverageStatus.INCOMPLETE)]
    )
    assert score_rtm(rtm(entries)) == 0.70


def test_rtm_all_complete():
    assert score_rtm(rtm([rtm_entry(i, CoverageStatus.COMPLETE) for i in range(7)])) == 1.0


def test_rtm_all_incomplete():
    assert score_rtm(rtm([rtm_entry(i, CoverageStatus.INCOMPLETE) for i in range(7)])) == 0.0


# ---------------------------------------------------------------------------
# TCA scoring
# ---------------------------------------------------------------------------


def test_tca_case_study_score():
    assert score_tca(tca(case_study_tca())) == 12.5 / 15


def test_tca_all_complete():
    assert score_tca(tca(full_tca())) == 1.0


def test_tca_all_incomplete():
    assert score_tca(tca(full_tca(CoverageStatus.INCOMPLETE))) == 0.0


def test_tca_missing_slot_is_an_error_naming_it():
    entries = [e for e in full_tca() if e["trigger"] != TriggerKind.CONFIGURATION.value]
    with pytest.raises(OrcasError, match="system/system-test/configuration"):
        validate_tca_entries(tca(entries))


def test_tca_duplicate_slot_rejected(tmp_path):
    entries = full_tca() + [tca_entry(TestLevel.SYSTEM, SYSTEM_TEST, TriggerKind.NORMAL_MODE,
                                      CoverageStatus.COMPLETE)]
    with pytest.raises(OrcasError, match="^duplicate trigger-coverage slot: system/system-test/normal-mode$"):
        validate_tca_entries(tca(entries))
    # load_bundle is the one caller, and names the file in one line.
    with pytest.raises(BundleError) as err:
        load_bundle(write_bundle(tmp_path / "b", tca=entries))
    assert str(err.value) == "tca.json: coverage: duplicate trigger-coverage slot: system/system-test/normal-mode"


def test_tca_slot_outside_template_rejected():
    entries = full_tca() + [tca_entry(TestLevel.COMPONENT, UNIT_TEST, TriggerKind.COMPLEX_PATH,
                                      CoverageStatus.COMPLETE)]
    with pytest.raises(OrcasError, match="unexpected"):
        validate_tca_entries(tca(entries))



# ---------------------------------------------------------------------------
# Confidence and gate
# ---------------------------------------------------------------------------


def test_confidence_reproduces_case_study():
    summary = assessment_confidence(0.70, 12.5 / 15, 1.0)
    assert abs(summary["confidence"] - 0.7667) <= 1e-4
    assert summary["gate"] == GateDecision.DEFER.value  # default threshold 0.90
    assert summary["structural_coverage"] == 1.0


def test_confidence_identity_case():
    summary = assessment_confidence(1.0, 1.0, 1.0)
    assert summary["confidence"] == 1.0
    assert summary["gate"] == GateDecision.PROCEED.value


def test_confidence_zero_case():
    for structural in (0.0, 1.0):
        summary = assessment_confidence(0.0, 0.0, structural, threshold=0.01)
        assert summary["confidence"] == 0.0
        assert summary["gate"] == GateDecision.DEFER.value


def test_gate_boundary_is_inclusive():
    summary = assessment_confidence(0.8, 0.8, 1.0, threshold=0.8)
    assert summary["gate"] == GateDecision.PROCEED.value


def test_confidence_weights_are_configurable():
    summary = assessment_confidence(1.0, 0.0, 1.0, rtm_weight=3.0, tca_weight=1.0)
    assert summary["confidence"] == 0.75


@pytest.mark.parametrize("rtm, tca", [(0.7, 0.7), (1.0, 1.0), (0.3, 0.9)])
def test_weights_near_float_max_give_the_confidence_of_equal_weights(rtm, tca):
    # 1e308 + 1e308 overflows: unscaled, these read 0.0 (defer) and NaN (proceed).
    huge = assessment_confidence(rtm, tca, 1.0, rtm_weight=1e308, tca_weight=1e308)
    assert huge == assessment_confidence(rtm, tca, 1.0, rtm_weight=1.0, tca_weight=1.0)


statuses = st.sampled_from(list(CoverageStatus))


@given(st.lists(statuses, min_size=1, max_size=20), st.data())
def test_rtm_upgrade_never_lowers_score(status_list, data):
    entries = [rtm_entry(i, s) for i, s in enumerate(status_list)]
    base = score_rtm(rtm(entries))
    index = data.draw(st.integers(min_value=0, max_value=len(entries) - 1))
    upgraded = list(entries)
    upgraded[index] = rtm_entry(index, CoverageStatus.COMPLETE)
    assert score_rtm(rtm(upgraded)) >= base


@given(st.lists(statuses, min_size=15, max_size=15), st.randoms(use_true_random=False))
def test_tca_score_bounded_and_permutation_invariant(status_list, rng):
    entries = [tca_entry(*slot, status) for slot, status in zip(required_tca_template(), status_list)]
    score = score_tca(tca(entries))
    assert 0.0 <= score <= 1.0
    shuffled = list(entries)
    rng.shuffle(shuffled)
    assert score_tca(tca(shuffled)) == score


@given(
    st.floats(min_value=0, max_value=1), st.floats(min_value=0, max_value=1),
    st.floats(min_value=0, max_value=1),
)
def test_confidence_monotone_in_each_score(rtm, tca, bump):
    base = assessment_confidence(rtm, tca, 1.0)["confidence"]
    higher_rtm = assessment_confidence(min(1.0, rtm + bump), tca, 1.0)["confidence"]
    higher_tca = assessment_confidence(rtm, min(1.0, tca + bump), 1.0)["confidence"]
    assert higher_rtm >= base
    assert higher_tca >= base

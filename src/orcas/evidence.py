"""Qualitative evidence scoring and the assessment-confidence gate.

Two checklists are scored on the same complete/indirect/incomplete scale
(1 / 0.5 / 0): the requirements traceability matrix (every requirement
traced to tests) and the trigger coverage assessment (every required
(test level, activity, trigger) slot exercised). Structural coverage is
an externally measured fraction reported alongside. Confidence below the
gate threshold defers the assessment to an alternate analysis method
instead of standing on its own.
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple

from .domain import Name, Records, TestLevel, TriggerKind
from .errors import OrcasError


class CoverageStatus(Name):
    COMPLETE = "complete"
    INDIRECT = "indirect"
    INCOMPLETE = "incomplete"


STATUS_SCORES = {
    CoverageStatus.COMPLETE: 1.0,
    CoverageStatus.INDIRECT: 0.5,
    CoverageStatus.INCOMPLETE: 0.0,
}

UNIT_TEST = "unit-test"
FUNCTION_TEST = "function-test"
SYSTEM_TEST = "system-test"

ACTIVITIES = (UNIT_TEST, FUNCTION_TEST, SYSTEM_TEST)

DEFAULT_CONFIDENCE_THRESHOLD = 0.90


class GateDecision(Name):
    PROCEED = "proceed"
    DEFER = "defer-to-BAHAMAS"


class RtmEntry(NamedTuple):
    """One requirement and how completely tests trace to it."""

    req_id: str
    description: str
    status: CoverageStatus


class TcaEntry(NamedTuple):
    """One required (test level, activity, trigger) slot and its status."""

    level: TestLevel
    activity: str
    trigger: TriggerKind
    status: CoverageStatus


def required_tca_template() -> tuple[tuple[TestLevel, str, TriggerKind], ...]:
    """The full 15-slot trigger checklist of the three-tier testing model.

    Component testing scores one unit-test slot (simple path) and three
    function-test slots; subsystem testing adds complex path and
    interaction; system testing scores five system-test slots.
    """
    return (
        (TestLevel.COMPONENT, UNIT_TEST, TriggerKind.SIMPLE_PATH),
        (TestLevel.COMPONENT, FUNCTION_TEST, TriggerKind.COVERAGE),
        (TestLevel.COMPONENT, FUNCTION_TEST, TriggerKind.VARIATION),
        (TestLevel.COMPONENT, FUNCTION_TEST, TriggerKind.SEQUENCE),
        (TestLevel.SUBSYSTEM, UNIT_TEST, TriggerKind.SIMPLE_PATH),
        (TestLevel.SUBSYSTEM, UNIT_TEST, TriggerKind.COMPLEX_PATH),
        (TestLevel.SUBSYSTEM, FUNCTION_TEST, TriggerKind.COVERAGE),
        (TestLevel.SUBSYSTEM, FUNCTION_TEST, TriggerKind.VARIATION),
        (TestLevel.SUBSYSTEM, FUNCTION_TEST, TriggerKind.SEQUENCE),
        (TestLevel.SUBSYSTEM, FUNCTION_TEST, TriggerKind.INTERACTION),
        (TestLevel.SYSTEM, SYSTEM_TEST, TriggerKind.STARTUP_RESTART),
        (TestLevel.SYSTEM, SYSTEM_TEST, TriggerKind.RECOVERY_EXCEPTION),
        (TestLevel.SYSTEM, SYSTEM_TEST, TriggerKind.NORMAL_MODE),
        (TestLevel.SYSTEM, SYSTEM_TEST, TriggerKind.CONFIGURATION),
        (TestLevel.SYSTEM, SYSTEM_TEST, TriggerKind.WORKLOAD_STRESS),
    )


def slot_name(slot: tuple[TestLevel, str, TriggerKind]) -> str:
    level, activity, trigger = slot
    return f"{level}/{activity}/{trigger}"


def _score(entries: Records) -> float:
    """The sum of the entries' status scores."""
    return math.fsum(map(STATUS_SCORES.__getitem__, entries.columns["status"]))


def score_rtm(entries: Records) -> float:
    """Mean entry score over all requirements (the RTM loader refuses an empty matrix)."""
    return _score(entries) / len(entries)


def tca_slots(entries: Records) -> Iterator[tuple[TestLevel, str, TriggerKind]]:
    """The (level, activity, trigger) slot of each TCA entry, in entry order."""
    return zip(*map(entries.columns.__getitem__, ("level", "activity", "trigger")))


def validate_tca_entries(entries: Records) -> None:
    """Require exactly one entry per template slot.

    A missing slot is an error, never an implicit zero: an unscored slot
    means the checklist was not finished, not that coverage is absent.
    """
    required = set(required_tca_template())
    seen: set[tuple[TestLevel, str, TriggerKind]] = set()
    for slot in tca_slots(entries):
        if slot not in required:
            raise OrcasError(f"unexpected trigger-coverage slot: {slot_name(slot)}")
        if slot in seen:
            raise OrcasError(f"duplicate trigger-coverage slot: {slot_name(slot)}")
        seen.add(slot)
    missing = required - seen
    if missing:
        names = ", ".join(sorted(slot_name(slot) for slot in missing))
        raise OrcasError(f"trigger coverage assessment is missing slots: {names}")


def score_tca(entries: Records) -> float:
    """Sum of slot scores over the 15-slot template; :func:`validate_tca_entries` checks the slots at load."""
    return _score(entries) / len(required_tca_template())


def gate_decision(confidence: float, threshold: float) -> GateDecision:
    """The confidence gate: defer to the alternate method exactly when confidence < threshold."""
    return GateDecision.DEFER if confidence < threshold else GateDecision.PROCEED


def assessment_confidence(
    rtm_score: float,
    tca_score: float,
    structural_coverage: float,
    threshold: float = DEFAULT_CONFIDENCE_THRESHOLD,
    rtm_weight: float = 0.5,
    tca_weight: float = 0.5,
) -> dict:
    """Aggregate evidence scores and decide the gate: the report's
    ``evidence`` section, with the gate's value.

    Confidence is the weighted mean of the RTM and TCA scores (equal
    weights by default). Structural coverage is reported alongside but
    deliberately not folded into the number; :func:`gate_decision` decides the gate.
    Its inputs are a loaded bundle's: the loader checks coverage, threshold and weights.
    """
    # One power of two scales both weights below 1, so that no sum or product
    # overflows; being exact, it leaves every result at ordinary weights unchanged.
    exponent = math.frexp(max(rtm_weight, tca_weight))[1]
    rtm_weight, tca_weight = math.ldexp(rtm_weight, -exponent), math.ldexp(tca_weight, -exponent)
    confidence = (rtm_weight * rtm_score + tca_weight * tca_score) / (rtm_weight + tca_weight)
    return {
        "rtm_score": rtm_score,
        "tca_score": tca_score,
        "structural_coverage": structural_coverage,
        "confidence": confidence,
        "confidence_threshold": threshold,
        "gate": gate_decision(confidence, threshold),
    }

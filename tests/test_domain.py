import importlib
import json
import pickle
import pkgutil
import tempfile
from enum import Enum
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import orcas
from orcas.domain import (
    DefectClass,
    DefectRecord,
    EffortKind,
    EffortModel,
    FailureMode,
    Name,
    TestLevel,
    TriggerKind,
    count_by_class,
    total_effort,
)
from orcas.bundle import load_bundle, load_defects_file, load_effort_file, records_from_json
from orcas.errors import BundleError
from orcas.fixtures import vcu_dir


def test_vocabulary_sizes():
    assert len(DefectClass) == 7
    assert len(FailureMode) == 4
    assert len(TriggerKind) == 11
    assert len(TestLevel) == 3


def test_a_vocabulary_member_is_its_name():
    # Every enum of the package: a member equals, hashes, prints, formats and
    # quotes as its name, so a report holds members and saved names alike.
    modules = [importlib.import_module(f"orcas.{info.name}")
               for info in pkgutil.iter_modules(orcas.__path__) if info.name != "__main__"]
    vocabularies = {value for module in modules for value in vars(module).values()
                    if isinstance(value, type) and issubclass(value, Enum) and value not in (Enum, Name)}
    assert len(vocabularies) == 12
    for vocabulary in vocabularies:
        assert issubclass(vocabulary, Name), vocabulary
        for member in vocabulary:
            assert str(member) == format(member) == f"{member}" == member.value
            assert repr(member) == repr(member.value)
            assert hash(member) == hash(member.value)
            assert {member.value: 1}[member] == 1


def test_total_effort_continuous_campaign():
    model = EffortModel(kind=EffortKind.CONTINUOUS, test_count=10687, test_duration=1.0)
    assert total_effort(model) == 10687.0


def test_total_effort_on_demand_identity():
    assert total_effort(EffortModel(kind=EffortKind.ON_DEMAND, test_count=1)) == 1.0


def test_total_effort_continuous_arithmetic():
    model = EffortModel(kind=EffortKind.CONTINUOUS, test_count=200, test_duration=0.5)
    assert total_effort(model) == 100.0


def effort_error(tmp_path, effort):
    """The error line of loading ``effort`` as effort.json."""
    path = tmp_path / "effort.json"
    path.write_text(json.dumps(effort), encoding="utf-8")
    with pytest.raises(BundleError) as info:
        load_effort_file(path)
    return str(info.value)


@pytest.mark.parametrize("count", [0, -3])
def test_effort_rejects_nonpositive_count(tmp_path, count):
    assert (effort_error(tmp_path, {"kind": "on-demand", "test_count": count})
            == f"effort.json: top level: test_count must be positive, got {count}")


def test_effort_rejects_bad_duration(tmp_path):
    assert (effort_error(tmp_path, {"kind": "continuous", "test_count": 10, "test_duration": 0.0})
            == "effort.json: top level: test_duration must be positive, got 0.0")
    assert (effort_error(tmp_path, {"kind": "continuous", "test_count": 10})
            == "effort.json: top level: continuous effort requires test_duration (hours per test)")


def test_on_demand_rejects_duration(tmp_path):
    assert (effort_error(tmp_path, {"kind": "on-demand", "test_count": 10, "test_duration": 1.0})
            == "effort.json: top level: on-demand effort takes no test_duration; remove it or use kind=continuous")


def test_effort_rejects_non_integer_count(tmp_path):
    assert (effort_error(tmp_path, {"kind": "on-demand", "test_count": 2.5})
            == "effort.json: test_count: expected an integer, got 2.5")
    assert (effort_error(tmp_path, {"kind": "on-demand", "test_count": True})
            == "effort.json: test_count: expected an integer, got True")


@given(
    count=st.integers(min_value=1, max_value=10**6),
    bump=st.integers(min_value=1, max_value=10**6),
    duration=st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
)
def test_total_effort_monotone(count, bump, duration):
    smaller = EffortModel(kind=EffortKind.CONTINUOUS, test_count=count, test_duration=duration)
    larger = EffortModel(kind=EffortKind.CONTINUOUS, test_count=count + bump, test_duration=duration)
    assert total_effort(larger) > total_effort(smaller)
    longer = EffortModel(kind=EffortKind.CONTINUOUS, test_count=count, test_duration=duration * 2)
    assert total_effort(longer) > total_effort(smaller)


def test_record_validation():
    # A record is checked by the defects table, with the loader's messages.
    for fields, message in [
        ({"id": ""}, "record 0: id: must be a nonempty string"),
        ({"class": "TIMING"}, "record 'd1': class: invalid value 'TIMING' (expected one of: function, "
                              "assignment, algorithm, checking, interface, relationship, timing)"),
        ({"detection_effort": -0.1}, "record 'd1': detection_effort: must be >= 0.0, got -0.1"),
        ({"detection_effort": float("nan")}, "record 'd1': detection_effort: expected a finite number, got nan"),
    ]:
        record = {"id": "d1", "description": "x", "class": "timing", "detection_effort": 1.0, **fields}
        with pytest.raises(BundleError) as info:
            records_from_json("defects.json", [record])
        assert str(info.value) == f"defects.json: {message}"


def test_record_normalizes_modes_to_frozenset():
    [record] = records_from_json("defects.json", [
        {"id": "d1", "description": "x", "class": "checking", "observed_modes": ["A", "A", "C"]}])
    assert record.observed_modes == frozenset({FailureMode.A, FailureMode.C})


records = st.builds(
    DefectRecord,
    id=st.text(min_size=1, max_size=12),
    description=st.text(max_size=40),
    defect_class=st.sampled_from(list(DefectClass)),
    detection_effort=st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
    observed_modes=st.frozensets(st.sampled_from(list(FailureMode))),
    resolution=st.none() | st.text(max_size=40),
)


@given(st.lists(records, unique_by=lambda record: record.id))
def test_record_round_trips_through_json(batch):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "defects.json"
        path.write_text(json.dumps([record.to_dict() for record in batch]), encoding="utf-8")
        assert tuple(load_defects_file(path)) == tuple(batch)


def test_count_by_class_covers_all_classes():
    counts = count_by_class(records_from_json("defects.json", [
        {"id": "a", "description": "", "class": "checking"},
        {"id": "b", "description": "", "class": "checking"},
    ]))
    assert counts[DefectClass.CHECKING] == 2
    assert counts[DefectClass.TIMING] == 0
    assert len(counts) == 7


# Every immutable record type, and how to get one from the case study.
RECORD_TYPES = {
    "DefectRecord": lambda bundle: bundle.defects[0],
    "EffortModel": lambda bundle: bundle.effort,
    "AssessmentBundle": lambda bundle: bundle,
    "CausalityMatrix": lambda bundle: bundle.matrix,
    "RtmEntry": lambda bundle: bundle.rtm[0],
    "TcaEntry": lambda bundle: bundle.tca[0],
}


@pytest.fixture(scope="module")
def vcu_bundle():
    return load_bundle(vcu_dir())


@pytest.mark.parametrize("name", RECORD_TYPES)
def test_records_are_frozen_values(name, vcu_bundle):
    record = RECORD_TYPES[name](vcu_bundle)
    assert type(record).__name__ == name
    fields = record._fields
    values = [getattr(record, field) for field in fields]
    by_name = type(record)(**dict(zip(fields, values)))
    assert by_name == record and not by_name != record and by_name is not record
    assert type(record)(*values) == record
    assert pickle.loads(pickle.dumps(record)) == record
    try:
        expected_hash = hash(record)
    except TypeError:  # a dict field
        pass
    else:
        assert hash(by_name) == expected_hash
    assert repr(record).startswith(f"{name}({fields[0]}=")
    for field in (fields[0], "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert [getattr(record, field) for field in fields] == values


def test_record_init_takes_each_field_once():
    on_demand = EffortKind.ON_DEMAND
    assert EffortModel(on_demand, 3) == EffortModel(kind=on_demand, test_count=3, test_duration=None)
    for args, kwargs in [((on_demand,), {}), ((on_demand, 3), {"kind": on_demand}),
                         ((), {"kind": on_demand, "test_count": 3, "hours": 1.0}),
                         ((on_demand, 3, None, None), {})]:
        with pytest.raises(TypeError):
            EffortModel(*args, **kwargs)

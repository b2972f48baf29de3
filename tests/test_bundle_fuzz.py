"""Property tests of the bundle loader and of `orcas validate`.

Differential: the record parsers must accept and reject exactly what the
oracles below accept and reject, with byte-identical messages. The oracles
are the earlier parsers, which call one helper of their own per field
check, with its message written out, and build one row per record (the
loaders return their rows when iterated); arrays
that are valid by construction must load by the column path, and the same
arrays with one or two faults must give the oracle's outcome. Robustness:
any JSON value or any bytes in any bundle file yields a bundle or a
BundleError, and nothing else. Agreement: `orcas validate` accepts a
bundle exactly when `orcas assess` can run on it, and otherwise prints
the error line that `assess` prints, in the `<file>: <where>: <reason>`
form that the benchmark's checks require of a refused bundle.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import math
import sys

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from orcas.bundle import (
    BUILTIN_MATRIX_SOURCE,
    DEFAULT_CONFIDENCE_THRESHOLD,
    DEFAULT_STABILITY_WINDOWS,
    _CONFIG_FIELDS,
    _CORPUS_FIELDS,
    _DEFECT_FIELDS,
    _RTM_FIELDS,
    AssessmentBundle,
    _read_json,
    load_bundle,
    load_corpus_file,
    load_defects_file,
    load_effort_file,
    load_rtm_file,
    load_tca_file,
)
from orcas.cli import main
from orcas.domain import (
    DefectClass,
    DefectRecord,
    EffortKind,
    EffortModel,
    FailureMode,
    ModeFamily,
    Records,
    TestLevel,
    TriggerKind,
    total_effort,
)
from orcas.errors import BundleError
from orcas.evidence import ACTIVITIES, CoverageStatus, RtmEntry, TcaEntry
from orcas.growth import DEFAULT_STABILITY_THRESHOLD, RateMethod, SrgmModel
from orcas.quantify import SystemKind
from orcas.schema import Object, by_column, fail, quote

from conftest import ROOT, default_tca_entries, write_bundle

FUZZ = settings(derandomize=True, database=None, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def write_files(directory, files):
    directory.mkdir(parents=True, exist_ok=True)
    for name, content in files.items():
        (directory / name).write_text(json.dumps(content), encoding="utf-8")
    return directory


# ---------------------------------------------------------------------------
# Oracle: each record checked by one helper call per field, in the order of
# the checks, and built as a row; the TCA activity, once checked by its
# row's constructor, is checked once the entry's fields are read. The
# helpers share no check with orcas.schema, only its message format.
# ---------------------------------------------------------------------------


def _oracle_array(data, file):
    if type(data) is not list:
        raise fail(file, "top level", f"expected a JSON array, got {type(data).__name__}")
    return data


def _oracle_enum(enum_cls, value, file, where):
    names = [member.value for member in enum_cls]
    if type(value) is not str or value not in names:
        raise fail(file, where, f"invalid value {quote(value)} (expected one of: {', '.join(names)})")
    return enum_cls(value)


def _oracle_number(value, file, where, lo=None, hi=None):
    if type(value) not in (int, float):
        raise fail(file, where, f"expected a number, got {quote(value)}")
    if type(value) is int and abs(value) >= int(sys.float_info.max) + 2 ** 970:
        # At or past the midpoint of the largest float and 2**1024, an int rounds out of range.
        raise fail(file, where, "expected a finite number, got an integer beyond floating-point range")
    number = float(value)
    if number != number or number in (math.inf, -math.inf):
        raise fail(file, where, f"expected a finite number, got {quote(value)}")
    if lo is not None and number < lo:
        raise fail(file, where, f"must be >= {lo}, got {quote(value)}")
    if hi is not None and number > hi:
        raise fail(file, where, f"must be <= {hi}, got {quote(value)}")
    return number


def _oracle_string(value, file, where):
    if type(value) is not str:
        raise fail(file, where, f"expected a string, got {quote(value)}")
    return value


def _oracle_object(data, file, where, allowed, required):
    if type(data) is not dict:
        raise fail(file, where, f"expected a JSON object, got {type(data).__name__}")
    for problem, keys in (("unknown", data.keys() - allowed), ("missing", required - data.keys())):
        if keys:
            raise fail(file, where, f"{problem} key(s): {', '.join(sorted(keys))}")
    return data


_ORACLE_DEFECT_KEYS = {"id", "description", "class", "detection_effort", "observed_modes", "resolution"}


def _oracle_parse_defect(obj, file, index, require_modes):
    where = f"record {index}"
    data = _oracle_object(obj, file, where, _ORACLE_DEFECT_KEYS, {"id", "description", "class"})
    record_id = _oracle_string(data["id"], file, f"{where}: id")
    if not record_id:
        raise fail(file, f"{where}: id", "must be a nonempty string")
    where = f"record {quote(record_id)}"
    defect_class = _oracle_enum(DefectClass, data["class"], file, f"{where}: class")
    effort = _oracle_number(data.get("detection_effort", 0.0), file, f"{where}: detection_effort", lo=0.0)
    raw_modes = data.get("observed_modes", [])
    if not isinstance(raw_modes, list):
        raise fail(file, f"{where}: observed_modes", f"expected an array, got {quote(raw_modes)}")
    modes = frozenset(
        _oracle_enum(FailureMode, m, file, f"{where}: observed_modes") for m in raw_modes
    )
    if require_modes and not modes:
        raise fail(file, where, "corpus records must label at least one observed failure mode")
    resolution = data.get("resolution")
    if resolution is not None:
        resolution = _oracle_string(resolution, file, f"{where}: resolution")
    return DefectRecord(
        id=record_id,
        description=_oracle_string(data["description"], file, f"{where}: description"),
        defect_class=defect_class,
        detection_effort=effort,
        observed_modes=modes,
        resolution=resolution,
    )


def _oracle_load_defect_file(path, require_modes):
    records = []
    seen_ids = set()
    for index, obj in enumerate(_oracle_array(_read_json(path), path.name)):
        record = _oracle_parse_defect(obj, path.name, index, require_modes)
        if record.id in seen_ids:
            raise fail(path.name, f"record {quote(record.id)}", "duplicate id")
        seen_ids.add(record.id)
        records.append(record)
    return tuple(records)


def _oracle_load_corpus_file(path):
    records = _oracle_load_defect_file(path, require_modes=True)
    if not records:
        raise fail(path.name, "top level", "no corpus records")
    return records


def _oracle_load_rtm_file(path):
    entries = []
    seen = set()
    for index, obj in enumerate(_oracle_array(_read_json(path), path.name)):
        where = f"entry {index}"
        data = _oracle_object(obj, path.name, where, {"req_id", "description", "status"},
                              {"req_id", "description", "status"})
        req_id = _oracle_string(data["req_id"], path.name, f"{where}: req_id")
        if not req_id:
            raise fail(path.name, f"{where}: req_id", "must be a nonempty string")
        if req_id in seen:
            raise fail(path.name, f"entry {quote(req_id)}", "duplicate req_id")
        seen.add(req_id)
        entries.append(RtmEntry(
            req_id=req_id,
            description=_oracle_string(data["description"], path.name, f"{where}: description"),
            status=_oracle_enum(CoverageStatus, data["status"], path.name, f"entry {quote(req_id)}: status"),
        ))
    if not entries:
        raise fail(path.name, "top level",
                   "no entries; an empty traceability matrix cannot be scored")
    return tuple(entries)


def _oracle_load_tca_file(path):
    entries = []
    for index, obj in enumerate(_oracle_array(_read_json(path), path.name)):
        where = f"entry {index}"
        data = _oracle_object(obj, path.name, where, {"level", "activity", "trigger", "status"},
                              {"level", "activity", "trigger", "status"})
        entry = TcaEntry(
            level=_oracle_enum(TestLevel, data["level"], path.name, f"{where}: level"),
            activity=_oracle_string(data["activity"], path.name, f"{where}: activity"),
            trigger=_oracle_enum(TriggerKind, data["trigger"], path.name, f"{where}: trigger"),
            status=_oracle_enum(CoverageStatus, data["status"], path.name, f"{where}: status"),
        )
        if entry.activity not in ACTIVITIES:
            raise fail(path.name, where,
                       f"activity must be one of {', '.join(ACTIVITIES)}; got {entry.activity!r}")
        entries.append(entry)
    return tuple(entries)


def _oracle_load_effort_file(path):
    data = _oracle_object(
        _read_json(path), path.name, "top level",
        {"kind", "test_count", "test_duration"}, {"kind", "test_count"},
    )
    kind = _oracle_enum(EffortKind, data["kind"], path.name, "kind")
    count = data["test_count"]
    if isinstance(count, bool) or not isinstance(count, int):
        raise fail(path.name, "test_count", f"expected an integer, got {quote(count)}")
    duration = data.get("test_duration")
    if duration is not None:
        duration = _oracle_number(duration, path.name, "test_duration")
    if count <= 0:
        raise fail(path.name, "top level", f"test_count must be positive, got {count}")
    if kind is EffortKind.CONTINUOUS:
        if duration is None:
            raise fail(path.name, "top level", "continuous effort requires test_duration (hours per test)")
        if duration <= 0:
            raise fail(path.name, "top level", f"test_duration must be positive, got {duration!r}")
    elif duration is not None:
        raise fail(path.name, "top level",
                   "on-demand effort takes no test_duration; remove it or use kind=continuous")
    model = EffortModel(kind=kind, test_count=count, test_duration=duration)
    try:
        total = total_effort(model)
    except OverflowError:
        total = math.inf
    if not math.isfinite(total):
        raise fail(path.name, "test_count",
                   "total testing effort (test_count x test_duration) is beyond floating-point range")
    return model


_ORACLE_CONFIG_KEYS = {"structural_coverage", "system_kind", "excluded_modes", "confidence_threshold",
                       "stability_threshold", "rate_method", "srgm_model", "stability_windows",
                       "matrix", "uniform_missing_rows", "mode_family", "rtm_weight", "tca_weight"}


def _oracle_parse_config(path):
    file = path.name
    data = _oracle_object(_read_json(path), file, "top level", _ORACLE_CONFIG_KEYS,
                          {"structural_coverage", "system_kind"})
    config = {}
    config["structural_coverage"] = _oracle_number(
        data["structural_coverage"], file, "structural_coverage", lo=0.0, hi=1.0)
    config["system_kind"] = _oracle_enum(SystemKind, data["system_kind"], file, "system_kind")
    raw_excluded = data.get("excluded_modes")
    if raw_excluded is not None:
        if not isinstance(raw_excluded, list):
            raise fail(file, "excluded_modes", "expected an array of failure modes")
        config["excluded_modes"] = frozenset(
            _oracle_enum(FailureMode, m, file, "excluded_modes") for m in raw_excluded)
    else:
        config["excluded_modes"] = None
    config["confidence_threshold"] = _oracle_number(
        data.get("confidence_threshold", DEFAULT_CONFIDENCE_THRESHOLD),
        file, "confidence_threshold", lo=0.0, hi=1.0)
    config["stability_threshold"] = _oracle_number(
        data.get("stability_threshold", DEFAULT_STABILITY_THRESHOLD),
        file, "stability_threshold", lo=0.0)
    config["rate_method"] = _oracle_enum(
        RateMethod, data.get("rate_method", RateMethod.BOUNDED.value), file, "rate_method")
    config["srgm_model"] = _oracle_enum(
        SrgmModel, data.get("srgm_model", SrgmModel.GOEL_OKUMOTO.value), file, "srgm_model")
    windows = data.get("stability_windows", DEFAULT_STABILITY_WINDOWS)
    if isinstance(windows, bool) or not isinstance(windows, int) or windows < 2:
        raise fail(file, "stability_windows", f"expected an integer >= 2, got {quote(windows)}")
    config["stability_windows"] = windows
    config["matrix"] = _oracle_string(data.get("matrix", BUILTIN_MATRIX_SOURCE), file, "matrix")
    if config["matrix"] == "":
        raise fail(file, "matrix", "must be a nonempty string")
    if config["matrix"] == "corpus:":
        raise fail(file, "matrix", "expected a corpus file after 'corpus:', got 'corpus:'")
    flag = data.get("uniform_missing_rows", False)
    if not isinstance(flag, bool):
        raise fail(file, "uniform_missing_rows", f"expected true or false, got {quote(flag)}")
    config["uniform_missing_rows"] = flag
    if "mode_family" in data:
        config["mode_family"] = _oracle_enum(ModeFamily, data["mode_family"], file, "mode_family")
    else:
        config["mode_family"] = None
    config["rtm_weight"] = _oracle_number(data.get("rtm_weight", 0.5), file, "rtm_weight", lo=0.0)
    config["tca_weight"] = _oracle_number(data.get("tca_weight", 0.5), file, "tca_weight", lo=0.0)
    return config


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

# Words the loader gives meaning to, so that drawn values also reach the
# branches behind a valid enum value or option.
VOCABULARY = (
    [m.value for m in DefectClass] + [m.value for m in FailureMode]
    + [m.value for m in CoverageStatus]
    + ["", "D-1", "srgm", "bounded", "musa-okumoto", "custom", "control", "continuous",
       "on-demand", "builtin", "corpus:corpus.json", "matrix.json", "information"]
)

scalars = (
    st.none() | st.booleans()
    | st.integers() | st.integers(min_value=10**300, max_value=10**400)
    | st.floats() | st.text(max_size=8) | st.sampled_from(VOCABULARY)
)
json_values = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6) | st.sampled_from(VOCABULARY), children, max_size=4),
    max_leaves=10,
)
@st.composite
def with_faults(draw, valid, extra_key):
    """``valid`` with up to two of its keys, or an unknown key, dropped or
    set to any JSON value: two faults at once test the order of checks."""
    record = dict(valid)
    for key in draw(st.sets(st.sampled_from([*valid, extra_key]), max_size=2)):
        if draw(st.integers(0, 3)) == 0:
            record.pop(key, None)
        else:
            record[key] = draw(json_values)
    return record


@st.composite
def defect_records(draw):
    valid = {
        "id": draw(st.sampled_from(["D-1", "D-2"]) | st.text(max_size=4)),
        "description": draw(st.text(max_size=6)),
        "class": draw(st.sampled_from([m.value for m in DefectClass])),
        "detection_effort": draw(st.floats(min_value=0.0) | st.integers(min_value=0)),
        "observed_modes": draw(st.lists(st.sampled_from([m.value for m in FailureMode]), max_size=4)),
        "resolution": draw(st.text(max_size=4)),
    }
    return draw(with_faults(valid, "severity"))


@st.composite
def rtm_entries(draw):
    valid = {
        "req_id": draw(st.sampled_from(["R-1", "R-2"]) | st.text(max_size=4)),
        "description": draw(st.text(max_size=6)),
        "status": draw(st.sampled_from([m.value for m in CoverageStatus])),
    }
    return draw(with_faults(valid, "priority"))


@st.composite
def tca_entries(draw):
    valid = {
        "level": draw(st.sampled_from([m.value for m in TestLevel])),
        "activity": draw(st.sampled_from([*ACTIVITIES, "x"])),
        "trigger": draw(st.sampled_from([m.value for m in TriggerKind])),
        "status": draw(st.sampled_from([m.value for m in CoverageStatus])),
    }
    return draw(with_faults(valid, "note"))


@st.composite
def object_documents(draw, valid, extra_key):
    """Mostly a ``valid`` object with faults from :func:`with_faults` and
    up to three keys set to scalars, which reach the type and range checks,
    and test their order, more often than drawn containers do; sometimes
    any JSON value."""
    if draw(st.integers(0, 9)) == 0:
        return draw(json_values)
    document = draw(with_faults(draw(valid), extra_key))
    for key in draw(st.sets(st.sampled_from(sorted(document) or [extra_key]), max_size=3)):
        document[key] = draw(scalars)
    return document


@st.composite
def valid_efforts(draw):
    valid = {"kind": draw(st.sampled_from([m.value for m in EffortKind])),
             "test_count": draw(st.integers(-1, 10**6) | st.just(10**400))}
    if draw(st.booleans()):
        valid["test_duration"] = draw(st.floats(0.0, 1e300) | st.none())
    return valid


@st.composite
def valid_configs(draw):
    valid = {
        "structural_coverage": draw(st.floats(0.0, 1.0)),
        "system_kind": draw(st.sampled_from([m.value for m in SystemKind])),
        "excluded_modes": draw(st.none() | st.lists(st.sampled_from([m.value for m in FailureMode]),
                                                    max_size=3)),
        "confidence_threshold": draw(st.floats(0.0, 1.0)),
        "stability_threshold": draw(st.floats(0.0, 1.0)),
        "rate_method": draw(st.sampled_from([m.value for m in RateMethod])),
        "srgm_model": draw(st.sampled_from([m.value for m in SrgmModel])),
        "stability_windows": draw(st.integers(2, 8)),
        "matrix": draw(st.sampled_from(["builtin", "corpus:corpus.json", "matrix.json"])),
        "uniform_missing_rows": draw(st.booleans()),
        "mode_family": draw(st.sampled_from([m.value for m in ModeFamily])),
        "rtm_weight": draw(st.floats(0.0, 2.0)),
        "tca_weight": draw(st.floats(0.0, 2.0)),
    }
    # Optional keys left out, so that their defaults are read too.
    optional = sorted(set(valid) - {"structural_coverage", "system_kind"})
    for key in draw(st.sets(st.sampled_from(optional), max_size=4)):
        del valid[key]
    return valid


def documents(items):
    """A file body: mostly an array of items, sometimes with other JSON
    values among them, or any JSON value."""
    return st.one_of(st.lists(items, min_size=1, max_size=4),
                     st.lists(items | json_values, max_size=3), json_values)


def outcome(load, path):
    """What a loader returns, records as a tuple of rows, or the message of its BundleError."""
    try:
        result = load(path)
    except BundleError as exc:
        return str(exc)
    return tuple(result) if isinstance(result, Records) else result


def defect_outcome(load, path):
    result = outcome(load, path)
    if isinstance(result, str):
        return result
    # repr of the effort tells 0.0 from -0.0 and 1 from 1.0.
    return [(r.id, r.description, r.defect_class, repr(r.detection_effort), r.observed_modes,
             r.resolution) for r in result]


# ---------------------------------------------------------------------------
# Differential tests
# ---------------------------------------------------------------------------


@settings(FUZZ, max_examples=300)
@given(document=documents(defect_records()))
def test_defect_and_corpus_loaders_match_oracle(tmp_path_factory, document):
    path = tmp_path_factory.mktemp("fuzz") / "defects.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    assert defect_outcome(load_defects_file, path) == defect_outcome(
        lambda p: _oracle_load_defect_file(p, require_modes=False), path)
    assert defect_outcome(load_corpus_file, path) == defect_outcome(_oracle_load_corpus_file, path)


@settings(FUZZ, max_examples=300)
@given(document=documents(rtm_entries()))
def test_rtm_loader_matches_oracle(tmp_path_factory, document):
    path = tmp_path_factory.mktemp("fuzz") / "rtm.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    assert outcome(load_rtm_file, path) == outcome(_oracle_load_rtm_file, path)


@settings(FUZZ, max_examples=150)
@given(document=documents(tca_entries()))
def test_tca_loader_matches_oracle(tmp_path_factory, document):
    path = tmp_path_factory.mktemp("fuzz") / "tca.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    assert outcome(load_tca_file, path) == outcome(_oracle_load_tca_file, path)


def typed(value):
    """``value`` with the type of each of its parts, so that 1 differs from 1.0 and True."""
    if isinstance(value, frozenset):
        return frozenset, sorted(map(typed, value), key=repr)
    if isinstance(value, tuple):
        return tuple(map(typed, value))
    if isinstance(value, dict):
        return {key: typed(item) for key, item in value.items()}
    return type(value), repr(value)


@settings(FUZZ, max_examples=150)
@given(document=object_documents(valid_efforts(), "unit"))
@example(document={"kind": "continuous", "test_count": 3, "test_duration": None})
def test_effort_loader_matches_oracle(tmp_path_factory, document):
    path = tmp_path_factory.mktemp("fuzz") / "effort.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    expected = outcome(_oracle_load_effort_file, path)
    result = outcome(load_effort_file, path)
    assert result == expected
    if not isinstance(expected, str):
        assert typed(result) == typed(expected)


def _load_config(path):
    """config.json read by its table, as load_bundle reads it."""
    return Object(_CONFIG_FIELDS).check(_read_json(path), path.name, "top level")


@settings(FUZZ, max_examples=200)
@given(document=object_documents(valid_configs(), "seed"))
@example(document={"structural_coverage": 1, "system_kind": "custom", "excluded_modes": None,
                   "mode_family": None})
@example(document={"structural_coverage": 1, "system_kind": "custom", "excluded_modes": ["A", "E"]})
@example(document={"structural_coverage": 1, "system_kind": "control", "matrix": ""})
@example(document={"structural_coverage": 1, "system_kind": "control", "matrix": "corpus:"})
def test_config_parser_matches_oracle(tmp_path_factory, document):
    path = tmp_path_factory.mktemp("fuzz") / "config.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    assert typed(outcome(_load_config, path)) == typed(outcome(_oracle_parse_config, path))


# ---------------------------------------------------------------------------
# Column path: clean arrays load a column at a time; one or two faults send
# the array to the per-record parser, which must agree with the oracle.
# ---------------------------------------------------------------------------

CLASS_VALUES = [m.value for m in DefectClass]
MODE_VALUES = [m.value for m in FailureMode]
STATUS_VALUES = [m.value for m in CoverageStatus]
NON_OBJECTS = st.sampled_from([None, 5, "x", [], ["id"]])


@st.composite
def clean_defect_arrays(draw, corpus):
    """2-60 valid records with distinct ids: int and float efforts, -0.0,
    null resolutions, repeated and (outside a corpus) empty mode lists, and
    optional keys absent."""
    mode_lists = st.sampled_from([["A"], ["C", "A"], ["A", "A"], ["D", "B", "C", "A"]])
    if not corpus:
        mode_lists = mode_lists | st.just([])
    records = []
    for i in range(draw(st.integers(2, 60))):
        record = {"id": f"D-{i}", "description": draw(st.sampled_from(["", "x", "é"])),
                  "class": draw(st.sampled_from(CLASS_VALUES))}
        if draw(st.booleans()):
            record["detection_effort"] = draw(st.integers(0, 10**6) | st.floats(0.0, 1e300)
                                              | st.just(-0.0))
        if corpus or draw(st.booleans()):
            record["observed_modes"] = draw(mode_lists)
        if draw(st.booleans()):
            record["resolution"] = draw(st.none() | st.just("fixed"))
        records.append(record)
    return records


# Faults the column checks must hand to the per-record parser, among them
# values a careless column check lets through: null and a string as
# observed_modes, true and NaN as efforts.
DEFECT_FAULTS = [
    ("observed_modes", None), ("observed_modes", "AB"), ("observed_modes", ["E"]),
    ("observed_modes", [["A"]]), ("observed_modes", []), ("detection_effort", True),
    ("detection_effort", math.nan), ("detection_effort", math.inf), ("detection_effort", -1),
    ("detection_effort", 10**400), ("detection_effort", "1"), ("class", "bogus"), ("class", ["x"]),
    ("id", ""), ("id", 5), ("id", "D-0"), ("description", 5), ("resolution", 5), ("severity", 1),
]


@st.composite
def faulty(draw, arrays, faults, required):
    """An array from ``arrays`` with one or two records given a fault: a
    bad value, a missing required key, or no object at all."""
    records = [dict(record) for record in draw(arrays)]
    for _ in range(draw(st.integers(1, 2))):
        index = draw(st.integers(0, len(records) - 1))
        kind = draw(st.integers(0, 5))
        if kind == 0:
            records[index] = draw(NON_OBJECTS)
        elif kind == 1 and isinstance(records[index], dict):
            records[index].pop(draw(st.sampled_from(required)), None)
        elif isinstance(records[index], dict):
            key, value = draw(st.sampled_from(faults))
            records[index][key] = value
    return records


def write_array(tmp_path_factory, name, records):
    path = tmp_path_factory.mktemp("column") / name
    path.write_text(json.dumps(records), encoding="utf-8")
    return path


@settings(FUZZ, max_examples=150)
@given(corpus=st.booleans(), data=st.data())
def test_clean_defect_arrays_load_by_column_as_the_oracle(tmp_path_factory, corpus, data):
    records = data.draw(clean_defect_arrays(corpus))
    assert by_column(_CORPUS_FIELDS if corpus else _DEFECT_FIELDS, records) is not None
    path = write_array(tmp_path_factory, "defects.json", records)
    load, oracle = ((load_corpus_file, _oracle_load_corpus_file) if corpus else
                    (load_defects_file, lambda p: _oracle_load_defect_file(p, require_modes=False)))
    assert defect_outcome(load, path) == defect_outcome(oracle, path)


@settings(FUZZ, max_examples=300)
@given(corpus=st.booleans(), data=st.data())
def test_faulty_defect_arrays_match_oracle(tmp_path_factory, corpus, data):
    records = data.draw(faulty(clean_defect_arrays(corpus), DEFECT_FAULTS,
                               ["id", "description", "class"]))
    path = write_array(tmp_path_factory, "defects.json", records)
    load, oracle = ((load_corpus_file, _oracle_load_corpus_file) if corpus else
                    (load_defects_file, lambda p: _oracle_load_defect_file(p, require_modes=False)))
    assert defect_outcome(load, path) == defect_outcome(oracle, path)


@st.composite
def clean_rtm_arrays(draw):
    return [{"req_id": f"R-{i}", "description": draw(st.sampled_from(["", "d"])),
             "status": draw(st.sampled_from(STATUS_VALUES))}
            for i in range(draw(st.integers(2, 60)))]


RTM_FAULTS = [("req_id", ""), ("req_id", 5), ("req_id", "R-0"), ("description", None),
              ("status", "done"), ("status", ["complete"]), ("priority", 1)]


@settings(FUZZ, max_examples=100)
@given(entries=clean_rtm_arrays())
def test_clean_rtm_arrays_load_by_column_as_the_oracle(tmp_path_factory, entries):
    assert by_column(_RTM_FIELDS, entries) is not None
    path = write_array(tmp_path_factory, "rtm.json", entries)
    assert outcome(load_rtm_file, path) == outcome(_oracle_load_rtm_file, path)


@settings(FUZZ, max_examples=200)
@given(entries=faulty(clean_rtm_arrays(), RTM_FAULTS, ["req_id", "description", "status"]))
def test_faulty_rtm_arrays_match_oracle(tmp_path_factory, entries):
    path = write_array(tmp_path_factory, "rtm.json", entries)
    assert outcome(load_rtm_file, path) == outcome(_oracle_load_rtm_file, path)


# ---------------------------------------------------------------------------
# Robustness: load_bundle never lets out anything but a BundleError
# ---------------------------------------------------------------------------

BASE_FILES = {
    "defects.json": [
        {"id": "D-1", "description": "x", "class": "checking", "detection_effort": 10.0,
         "observed_modes": ["A"]},
        {"id": "D-2", "description": "y", "class": "checking", "detection_effort": 30.0},
        {"id": "D-3", "description": "z", "class": "timing", "detection_effort": 20.0,
         "resolution": "fixed"},
        {"id": "D-4", "description": "w", "class": "timing", "detection_effort": 40.0},
    ],
    "effort.json": {"kind": "continuous", "test_count": 100, "test_duration": 1.0},
    "rtm.json": [{"req_id": "R-1", "description": "d", "status": "complete"}],
    "tca.json": default_tca_entries(),
    "config.json": {"structural_coverage": 1.0, "system_kind": "control",
                    "rate_method": "srgm", "stability_windows": 2, "matrix": "builtin"},
    "corpus.json": [{"id": "c1", "description": "x", "class": "checking", "observed_modes": ["B"]}],
    "matrix.json": {"provenance": "p", "rows": {"checking": [0.25, 0.25, 0.25, 0.25]},
                    "counts": {"checking": [1, 1, 1, 1]}},
}


@pytest.mark.parametrize("matrix", ["builtin", "corpus:corpus.json", "matrix.json"])
def test_base_bundle_is_valid(tmp_path, matrix):
    config = dict(BASE_FILES["config.json"], matrix=matrix)
    bundle = load_bundle(write_files(tmp_path, {**BASE_FILES, "config.json": config}))
    assert len(bundle.defects) == 4


@st.composite
def mutated(draw, doc):
    """``doc`` with one node (possibly the root) replaced by any JSON value."""
    if isinstance(doc, (list, dict)) and doc and draw(st.integers(0, 3)) > 0:
        doc = list(doc) if isinstance(doc, list) else dict(doc)
        key = draw(st.integers(0, len(doc) - 1) if isinstance(doc, list)
                   else st.sampled_from(sorted(doc)))
        doc[key] = draw(mutated(doc[key]))
        return doc
    return draw(json_values)


@st.composite
def bundle_edits(draw):
    name = draw(st.sampled_from(sorted(BASE_FILES)))
    config = dict(BASE_FILES["config.json"])
    config["matrix"] = draw(st.sampled_from(["builtin", "corpus:corpus.json", "matrix.json"]))
    kind = draw(st.integers(0, 5))
    if kind == 0:
        body = draw(st.binary(max_size=40))
    else:
        base = config if name == "config.json" else BASE_FILES[name]
        body = json.dumps(draw(mutated(base))).encode("utf-8")
    return name, body, config


@settings(FUZZ, max_examples=200)
@given(edit=bundle_edits())
def test_any_bundle_file_content_loads_or_raises_bundle_error(tmp_path_factory, edit):
    name, body, config = edit
    directory = write_files(tmp_path_factory.mktemp("bundle"), {**BASE_FILES, "config.json": config})
    (directory / name).write_bytes(body)
    try:
        bundle = load_bundle(directory)
    except BundleError:
        return
    assert isinstance(bundle, AssessmentBundle)
    assert all(math.isfinite(r.detection_effort) for r in bundle.defects)


@pytest.mark.parametrize("body", [b"", b"\xef\xbb\xbf[]", b"[" * 100_000, b"1" + b"0" * 5000,
                                  b"[NaN]", b"[1e999]", b'"\\ud800"'],
                         ids=["empty", "bom", "deep", "long-int", "nan", "inf", "surrogate"])
def test_edge_bodies_raise_bundle_error(tmp_path, body):
    directory = write_bundle(tmp_path / "b")
    (directory / "rtm.json").write_bytes(body)
    with pytest.raises(BundleError, match=r"^rtm\.json: "):
        load_bundle(directory)


# ---------------------------------------------------------------------------
# Agreement: validate accepts a bundle iff assess runs on it
# ---------------------------------------------------------------------------

CLASS_NAMES = [m.value for m in DefectClass]
MODE_NAMES = [m.value for m in FailureMode]


@st.composite
def assessable_bundles(draw):
    """Bundle files over the options the rates and causality stages read:
    both rate methods and growth models, the three matrix sources, classes
    with and without rows, and histories with and without growth."""
    config = {
        "structural_coverage": 1.0,
        "system_kind": "control",
        "rate_method": draw(st.sampled_from(["bounded", "srgm"])),
        "srgm_model": draw(st.sampled_from(["goel-okumoto", "musa-okumoto"])),
        "stability_windows": draw(st.integers(2, 4)),
        "matrix": draw(st.sampled_from(["builtin", "matrix.json", "corpus:corpus.json"])),
        "uniform_missing_rows": draw(st.booleans()),
    }
    defects = []
    for cls in draw(st.lists(st.sampled_from(CLASS_NAMES), max_size=3, unique=True)):
        # Efforts u**3 of the 100-hour campaign come early (mean 25 hours
        # for uniform u): mostly a growth signal. Efforts u mostly have none.
        power = draw(st.sampled_from([1, 3]))
        for u in draw(st.lists(st.floats(0.0, 1.0, exclude_min=True), max_size=10)):
            defects.append({"id": f"D-{len(defects)}", "description": "x", "class": cls,
                            "detection_effort": 100.0 * u ** power})
    rows = draw(st.lists(st.sampled_from(CLASS_NAMES), min_size=1, max_size=3, unique=True))
    labels = draw(st.lists(st.tuples(st.sampled_from(CLASS_NAMES), st.sampled_from(MODE_NAMES)),
                           min_size=1, max_size=6))
    statuses = draw(st.lists(st.sampled_from([m.value for m in CoverageStatus]), min_size=1,
                             max_size=3))
    return {
        "defects.json": defects,
        "effort.json": {"kind": "continuous", "test_count": 100, "test_duration": 1.0},
        "rtm.json": [{"req_id": f"R-{i}", "description": "d", "status": status}
                     for i, status in enumerate(statuses)],
        "tca.json": default_tca_entries(),
        "config.json": config,
        "matrix.json": {"provenance": "p", "rows": {cls: [0.25] * 4 for cls in rows}},
        "corpus.json": [{"id": f"c{i}", "description": "x", "class": cls, "observed_modes": [mode]}
                        for i, (cls, mode) in enumerate(labels)],
    }


def run_main(argv):
    """Exit code, stdout and stderr of one in-process CLI command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


_checks_spec = importlib.util.spec_from_file_location("perfbench_checks", ROOT / "perfbench" / "checks.py")
_checks = importlib.util.module_from_spec(_checks_spec)
_checks_spec.loader.exec_module(_checks)
# One refusal line: `orcas: error: <file>: <where>: <reason>`.
ERROR_LINE = _checks.ERROR_LINE

_RELATIONSHIP_BUNDLE = {**BASE_FILES,
                        "defects.json": [{"id": "D-1", "description": "x", "class": "relationship",
                                          "detection_effort": 1.0}],
                        "config.json": {"structural_coverage": 1.0, "system_kind": "control"}}
_NO_GROWTH_BUNDLE = {**BASE_FILES,
                     "defects.json": [{"id": f"D-{i}", "description": "x", "class": "checking",
                                       "detection_effort": 10.0 * i} for i in range(1, 11)]}


@settings(FUZZ, max_examples=150)
@given(files=assessable_bundles())
@example(files=_RELATIONSHIP_BUNDLE)
@example(files={**BASE_FILES, "rtm.json": []})
@example(files=_NO_GROWTH_BUNDLE)
@example(files={**_NO_GROWTH_BUNDLE,
                "config.json": dict(BASE_FILES["config.json"], srgm_model="musa-okumoto")})
def test_validate_accepts_exactly_what_assess_runs(tmp_path_factory, files):
    directory = write_files(tmp_path_factory.mktemp("agree"), files)
    out = directory / "assessment.json"
    validated, stdout, validate_err = run_main(["validate", str(directory)])
    assessed, _, assess_err = run_main(["assess", str(directory), "-o", str(out)])
    assert (validated == 0) == (assessed in (0, 2))
    if validated == 0:
        assert validate_err == ""
        gate = json.loads(out.read_bytes())["evidence"]["gate"]
        assert f"  gate: {gate} (" in stdout
    else:
        assert validated == assessed == 1
        assert validate_err == assess_err
        assert validate_err.endswith("\n") and validate_err.count("\n") == 1
        line = ERROR_LINE.fullmatch(validate_err[:-1])
        assert line and line["file"] in files, validate_err

import hashlib
import json
import shutil

import pytest

from orcas import bundle as bundle_module
from orcas import schema
from orcas.bundle import (
    AssessmentBundle,
    defects_from_csv,
    load_bundle,
    load_corpus_file,
    load_defects_file,
    load_history_file,
    load_matrix_file,
    load_rtm_file,
)
from orcas.causality import builtin_causality
from orcas.domain import DefectClass, FailureMode, ModeFamily, total_effort
from orcas.errors import BundleError, OrcasError
from orcas.growth import RateMethod
from orcas.quantify import SystemKind
from orcas.report import run_assessment

from conftest import write_bundle


# ---------------------------------------------------------------------------
# The shipped case-study bundle
# ---------------------------------------------------------------------------


def test_fixture_bundle_loads(vcu_bundle_dir):
    bundle = load_bundle(vcu_bundle_dir)
    assert len(bundle.defects) == 8
    assert total_effort(bundle.effort) == 10687.0
    assert len(bundle.rtm) == 10
    assert len(bundle.tca) == 15
    assert bundle.matrix.rows == builtin_causality().rows
    assert bundle.system_kind is SystemKind.CONTINUOUS_MONITORING
    assert bundle.excluded_modes == frozenset({FailureMode.B})
    assert bundle.mode_family is ModeFamily.INFORMATION
    assert bundle.confidence_threshold == 0.90
    assert bundle.rate_method is RateMethod.BOUNDED
    assert set(bundle.input_digests) == {
        "defects.json", "effort.json", "rtm.json", "tca.json", "config.json"}
    assert all(d.startswith("sha256:") for d in bundle.input_digests.values())


def test_fixture_defect_classes(vcu_bundle_dir):
    bundle = load_bundle(vcu_bundle_dir)
    classes = [d.defect_class for d in bundle.defects]
    assert classes.count(DefectClass.ALGORITHM) == 2
    assert classes.count(DefectClass.CHECKING) == 6


def test_a_bundle_keeps_the_columns_its_stages_read(vcu_bundle_dir, tmp_path):
    # The file readers keep every field; a bundle's rows read the others as None. No stage reads
    # a defect's id or observed modes: a detection-effort fault names its defect as the file is
    # read. Only the growth model reads the efforts, which a bounded bundle never keeps.
    growth = shutil.copytree(vcu_bundle_dir, tmp_path / "srgm")
    config = json.loads((growth / "config.json").read_text(encoding="utf-8"))
    (growth / "config.json").write_text(json.dumps({**config, "rate_method": "srgm"}), encoding="utf-8")
    defects = load_defects_file(vcu_bundle_dir / "defects.json")
    assert all(defects.columns["description"])
    rtm = load_rtm_file(vcu_bundle_dir / "rtm.json")
    for directory, kept in ((vcu_bundle_dir, {"defect_class"}), (growth, {"defect_class", "detection_effort"})):
        bundle = load_bundle(directory)
        assert set(bundle.defects.columns) == kept
        assert set(bundle.rtm.columns) == {"req_id", "status"}
        assert len(bundle.defects) == len(defects)
        dropped = dict.fromkeys(set(defects.row._fields) - kept)
        assert list(bundle.defects) == [row._replace(**dropped) for row in defects]
        assert bundle.defects[-1] == defects[-1]._replace(**dropped)
        assert list(bundle.rtm[2:4]) == [row._replace(description=None) for row in rtm[2:4]]


# ---------------------------------------------------------------------------
# Validation behavior on synthetic bundles
# ---------------------------------------------------------------------------


def test_empty_defect_file_is_legal(tmp_path):
    bundle = load_bundle(write_bundle(tmp_path / "b", defects=[]))
    assert len(bundle.defects) == 0


def test_bad_status_names_the_enum(tmp_path):
    rtm = [{"req_id": "R-1", "description": "d", "status": "done"}]
    directory = write_bundle(tmp_path / "b", rtm=rtm)
    with pytest.raises(BundleError) as err:
        load_bundle(directory)
    message = str(err.value)
    assert "rtm.json" in message and "'done'" in message
    assert "complete, indirect, incomplete" in message


def test_duplicate_defect_ids_rejected(tmp_path):
    defects = [
        {"id": "D-1", "description": "x", "class": "checking", "detection_effort": 1.0},
        {"id": "D-1", "description": "y", "class": "timing", "detection_effort": 2.0},
    ]
    with pytest.raises(BundleError, match="duplicate id"):
        load_bundle(write_bundle(tmp_path / "b", defects=defects))


def test_duplicate_req_ids_rejected(tmp_path):
    rtm = [
        {"req_id": "R-1", "description": "a", "status": "complete"},
        {"req_id": "R-1", "description": "b", "status": "indirect"},
    ]
    with pytest.raises(BundleError, match="duplicate req_id"):
        load_bundle(write_bundle(tmp_path / "b", rtm=rtm))


def test_detection_effort_beyond_campaign_rejected(tmp_path):
    defects = [{"id": "D-1", "description": "x", "class": "checking", "detection_effort": 101.0}]
    with pytest.raises(BundleError, match="exceeds total testing effort"):
        load_bundle(write_bundle(tmp_path / "b", defects=defects))


_UUID = "123e4567-e89b-12d3-a456-426614174000"


@pytest.mark.parametrize("efforts, method, line", [
    ([5.0, 0.0, 101.0, -0.0], "srgm",
     f"defects.json: record '{_UUID}-3': detection_effort must be positive for rate_method 'srgm' "
     "(the growth model fits detection efforts), got 0.0; record it or use rate_method 'bounded'"),
    ([5.0, 101.0, 0.0, 102.0], "srgm",
     f"defects.json: record '{_UUID}-3': detection_effort 101.0 exceeds total testing effort 100.0; "
     "detection efforts must be recorded in the effort model's unit (per-hour)"),
    ([5.0, 0.0, 101.0, 102.0], "bounded",
     f"defects.json: record '{_UUID}-2': detection_effort 101.0 exceeds total testing effort 100.0; "
     "detection efforts must be recorded in the effort model's unit (per-hour)"),
], ids=["nonpositive-srgm", "beyond-campaign-srgm", "beyond-campaign-bounded"])
def test_detection_effort_fault_names_the_first_bad_record_in_file_order(tmp_path, efforts, method, line):
    # The rules are checked as the file is read, where each record is named by its id. The ids run
    # against their sorted order, and each is a UUID with a suffix, printed whole.
    defects = [{"id": f"{_UUID}-{len(efforts) - i}", "description": "x", "class": "checking",
                "detection_effort": effort} for i, effort in enumerate(efforts)]
    config = {"structural_coverage": 1.0, "system_kind": "control", "rate_method": method}
    with pytest.raises(BundleError) as raised:
        load_bundle(write_bundle(tmp_path / "b", defects=defects, config=config))
    assert str(raised.value) == line


@pytest.mark.parametrize("efforts, method, fault", [
    ([5.0, 10.0], "bounded", None),
    ([5.0, 10.0], "srgm", None),
    ([5.0, 0.0], "srgm", "detection_effort must be positive"),
    ([5.0, 101.0], "srgm", "detection_effort 101.0 exceeds"),
    ([5.0, 101], "bounded", "detection_effort 101 exceeds"),
], ids=["clean-bounded", "clean-srgm", "nonpositive-srgm", "beyond-campaign-srgm", "beyond-campaign-bounded"])
def test_a_bundle_reads_its_defect_file_once(tmp_path, monkeypatch, efforts, method, fault):
    # The detection-effort rules are checked in the one read, which also names the record at fault.
    calls = []
    load = bundle_module.load_defects_file

    def counted(path, **kwargs):
        calls.append(kwargs)
        return load(path, **kwargs)

    monkeypatch.setattr(bundle_module, "load_defects_file", counted)
    defects = [{"id": f"D-{i}", "description": "x", "class": "checking", "detection_effort": effort}
               for i, effort in enumerate(efforts)]
    config = {"structural_coverage": 1.0, "system_kind": "control", "rate_method": method}
    directory = write_bundle(tmp_path / "b", defects=defects, config=config)
    if fault is None:
        assert len(load_bundle(directory).defects) == len(efforts)
    else:
        with pytest.raises(BundleError, match=f"^defects\\.json: record 'D-1': {fault}"):
            load_bundle(directory)
    assert len(calls) == 1


@pytest.mark.parametrize("file, change, line", [
    ("effort.json", {"kind": "continuous", "test_count": 0, "test_duration": 1.0},
     "effort.json: top level: test_count must be positive, got 0"),
    ("config.json", {"structural_coverage": 1.0, "system_kind": "control", "rtm_weight": 0, "tca_weight": 0},
     "config.json: top level: rtm_weight and tca_weight must not both be zero"),
])
def test_effort_and_config_faults_are_named_before_a_defect_fault(tmp_path, file, change, line):
    # The detection-effort rules read effort.json and config.json, so both are read first.
    defects = [{"id": "D-1", "description": "x", "class": "bogus", "detection_effort": 1.0}]
    with pytest.raises(BundleError) as raised:
        load_bundle(write_bundle(tmp_path / "b", defects=defects, **{file.split(".")[0]: change}))
    assert str(raised.value) == line


def test_a_record_file_read_keeping_no_column_is_refused(vcu_bundle_dir):
    with pytest.raises(OrcasError, match="^defects.json: keep names no column; a record count needs one$"):
        load_defects_file(vcu_bundle_dir / "defects.json", keep=())


def test_unknown_config_key_rejected(tmp_path):
    config = {"structural_coverage": 1.0, "system_kind": "control", "confidnce": 0.5}
    with pytest.raises(BundleError, match="confidnce"):
        load_bundle(write_bundle(tmp_path / "b", config=config))


def test_missing_file_reported(tmp_path):
    directory = write_bundle(tmp_path / "b")
    (directory / "effort.json").unlink()
    with pytest.raises(BundleError, match="effort.json"):
        load_bundle(directory)


def test_malformed_json_reports_line(tmp_path):
    directory = write_bundle(tmp_path / "b")
    (directory / "defects.json").write_text("[{'single': 'quotes'}]", encoding="utf-8")
    with pytest.raises(BundleError, match=r"defects\.json: line 1"):
        load_bundle(directory)


def test_incomplete_tca_reported_at_load(tmp_path):
    from conftest import default_tca_entries
    tca = default_tca_entries()[:-1]
    with pytest.raises(BundleError, match="system/system-test/workload-stress"):
        load_bundle(write_bundle(tmp_path / "b", tca=tca))


def test_unknown_defect_key_rejected(tmp_path):
    defects = [{"id": "D-1", "description": "x", "class": "checking",
                "detection_effort": 1.0, "severity": "high"}]
    with pytest.raises(BundleError, match="severity"):
        load_bundle(write_bundle(tmp_path / "b", defects=defects))


def test_custom_kind_requires_exclusions(tmp_path):
    config = {"structural_coverage": 1.0, "system_kind": "custom"}
    with pytest.raises(BundleError, match="excluded"):
        load_bundle(write_bundle(tmp_path / "b", config=config))


def test_exclusions_without_custom_kind_rejected(tmp_path):
    config = {"structural_coverage": 1.0, "system_kind": "control", "excluded_modes": ["B"]}
    with pytest.raises(BundleError, match="custom"):
        load_bundle(write_bundle(tmp_path / "b", config=config))


def test_structural_coverage_range_checked(tmp_path):
    config = {"structural_coverage": 1.4, "system_kind": "control"}
    with pytest.raises(BundleError, match="structural_coverage"):
        load_bundle(write_bundle(tmp_path / "b", config=config))


# ---------------------------------------------------------------------------
# Overrides and matrix sources
# ---------------------------------------------------------------------------


def test_exclude_modes_override_forces_custom(vcu_bundle_dir):
    bundle = load_bundle(vcu_bundle_dir, exclude_modes=frozenset({FailureMode.C}))
    assert bundle.system_kind is SystemKind.CUSTOM
    assert bundle.excluded_modes == frozenset({FailureMode.C})


def test_confidence_threshold_override(vcu_bundle_dir):
    assert load_bundle(vcu_bundle_dir, confidence_threshold=0.5).confidence_threshold == 0.5


def test_matrix_file_source(tmp_path):
    matrix_path = tmp_path / "m.json"
    matrix_path.write_text(json.dumps(builtin_causality().to_dict()), encoding="utf-8")
    directory = write_bundle(tmp_path / "b")
    bundle = load_bundle(directory, matrix_source=str(matrix_path))
    assert bundle.matrix.rows == builtin_causality().rows
    assert "m.json" in bundle.input_digests


def test_matrix_corpus_source(tmp_path):
    corpus = [
        {"id": "c1", "description": "x", "class": "checking", "observed_modes": ["A"]},
        {"id": "c2", "description": "x", "class": "checking", "observed_modes": ["C"]},
    ]
    directory = write_bundle(tmp_path / "b", **{"corpus.json": corpus})
    bundle = load_bundle(directory, matrix_source="corpus:corpus.json")
    assert bundle.matrix.row(DefectClass.CHECKING) == (0.5, 0.0, 0.5, 0.0)
    assert bundle.matrix.provenance == "corpus:corpus.json"


# Either source would resolve to the bundle directory itself.
EMPTY_SOURCES = [("", "must be a nonempty string"),
                 ("corpus:", "expected a corpus file after 'corpus:', got 'corpus:'")]


@pytest.mark.parametrize("source, reason", EMPTY_SOURCES)
def test_config_matrix_source_naming_no_file_is_refused(tmp_path, source, reason):
    directory = write_bundle(tmp_path / "b", config={"structural_coverage": 1.0, "system_kind": "control",
                                                     "matrix": source})
    with pytest.raises(BundleError) as err:
        load_bundle(directory)
    assert str(err.value) == f"config.json: matrix: {reason}"


@pytest.mark.parametrize("source, reason", EMPTY_SOURCES)
def test_matrix_source_override_naming_no_file_is_refused(tmp_path, source, reason):
    with pytest.raises(BundleError) as err:
        load_bundle(write_bundle(tmp_path / "b"), matrix_source=source)
    assert str(err.value) == f"override of config.json: matrix: {reason}"


def test_relative_matrix_path_resolves_against_bundle(tmp_path):
    directory = write_bundle(tmp_path / "b")
    (directory / "m.json").write_text(json.dumps(builtin_causality().to_dict()), encoding="utf-8")
    bundle = load_bundle(directory, matrix_source="m.json")
    assert bundle.matrix_source == "m.json"
    assert bundle.matrix.rows == builtin_causality().rows


# ---------------------------------------------------------------------------
# Standalone file loaders
# ---------------------------------------------------------------------------


def test_corpus_loader_requires_modes(tmp_path):
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps([
        {"id": "c1", "description": "x", "class": "checking", "observed_modes": []},
    ]), encoding="utf-8")
    with pytest.raises(BundleError, match="c1"):
        load_corpus_file(path)


def test_corpus_loader_rejects_empty(tmp_path):
    path = tmp_path / "corpus.json"
    path.write_text("[]", encoding="utf-8")
    with pytest.raises(BundleError, match="no corpus records"):
        load_corpus_file(path)


def test_matrix_loader_round_trip(tmp_path):
    path = tmp_path / "m.json"
    original = builtin_causality()
    path.write_text(json.dumps(original.to_dict()), encoding="utf-8")
    assert load_matrix_file(path).rows == original.rows


def test_matrix_loader_rejects_bad_row_shape(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"provenance": "x", "rows": {"checking": [0.5, 0.5]}}),
                    encoding="utf-8")
    with pytest.raises(BundleError, match="4 probabilities"):
        load_matrix_file(path)


@pytest.mark.parametrize("matrix, message", [
    ({"rows": {"checking": ["0", 0.5, 0.5, 0]}}, "rows: checking: expected a number, got '0'"),
    ({"rows": {"checking": [1.5, -0.5, 0, 0]}}, "rows: checking: probability 1.5 outside [0, 1]"),
    ({"rows": {"checking": [0.5, 0.4, 0, 0]}}, "rows: checking: sums to 0.9, outside 1.0 +/- 0.0005"),
    ({"rows": {"checking": [1, 0, 0, 0]}, "counts": {"checking": [1, 0, 0, -1]}},
     "counts: checking: expected 4 nonnegative integers"),
    ({"rows": {"checking": [1, 0, 0, 0]}, "counts": {"checking": [1, 0, 0, True]}},
     "counts: checking: expected an array of 4 nonnegative integers"),
    ({"rows": {}, "provenance": 5}, "provenance: expected a string, got 5"),
], ids=["string-probability", "out-of-range", "row-sum", "negative-count", "bool-count",
        "number-provenance"])
def test_matrix_loader_rejects_bad_values_with_field_and_class(tmp_path, matrix, message):
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps({"provenance": "p", **matrix}), encoding="utf-8")
    with pytest.raises(BundleError) as err:
        load_matrix_file(path)
    assert str(err.value) == f"matrix.json: {message}"


def test_history_loader(tmp_path):
    path = tmp_path / "h.json"
    path.write_text(json.dumps({"events": [1.0, 2.5, 4.0], "horizon": 10.0}), encoding="utf-8")
    events, horizon = load_history_file(path)
    assert events == [1.0, 2.5, 4.0]
    assert horizon == 10.0
    # Finite efforts whose sum is beyond float range are read one at a time, and kept.
    path.write_text(json.dumps({"events": [1e308, 1.5e308, 1.7e308]}), encoding="utf-8")
    assert load_history_file(path) == ([1e308, 1.5e308, 1.7e308], None)


def test_history_loader_rejects_unknown_keys(tmp_path):
    path = tmp_path / "h.json"
    path.write_text(json.dumps({"events": [1.0], "model": "go"}), encoding="utf-8")
    with pytest.raises(BundleError, match="model"):
        load_history_file(path)


def test_bundle_is_a_frozen_snapshot(vcu_bundle_dir):
    bundle = load_bundle(vcu_bundle_dir)
    assert isinstance(bundle, AssessmentBundle)
    with pytest.raises(AttributeError):
        bundle.structural_coverage = 0.0


# ---------------------------------------------------------------------------
# CSV convenience converter
# ---------------------------------------------------------------------------


def test_defects_from_csv(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text(
        "id,description,class,detection_effort,observed_modes,resolution\n"
        'D-1,"Buffer not filled, off by one",algorithm,120.5,,Fixed traversal\n'
        "D-2,Missing check,checking,300.0,A;C,Added IF\n"
        "D-3,No effort recorded,checking,,,\n",
        encoding="utf-8",
    )
    records = defects_from_csv(path)
    assert [r.id for r in records] == ["D-1", "D-2", "D-3"]
    assert records[0].description == "Buffer not filled, off by one"
    assert records[0].defect_class is DefectClass.ALGORITHM
    assert records[1].observed_modes == frozenset({FailureMode.A, FailureMode.C})
    assert records[2].detection_effort == 0.0
    assert records[2].resolution is None


def test_defects_from_csv_rejects_bad_class(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text("id,description,class\nD-1,x,cheking\n", encoding="utf-8")
    with pytest.raises(BundleError, match="cheking"):
        defects_from_csv(path)


def test_defects_from_csv_rejects_unknown_column(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text("id,description,class,severity\nD-1,x,checking,high\n", encoding="utf-8")
    with pytest.raises(BundleError, match="severity"):
        defects_from_csv(path)


def test_defects_from_csv_requires_core_columns(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text("id,description\nD-1,x\n", encoding="utf-8")
    with pytest.raises(BundleError, match="class"):
        defects_from_csv(path)


def test_csv_converter_output_loads_as_defects_file(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text(
        "id,description,class,detection_effort\nD-1,x,checking,5.0\n", encoding="utf-8")
    records = defects_from_csv(path)
    out = tmp_path / "defects.json"
    out.write_text(json.dumps([r.to_dict() for r in records]), encoding="utf-8")
    from orcas.bundle import load_defects_file
    assert load_defects_file(out) == records


def test_clean_bundle_loads_without_the_per_record_parsers(tmp_path, monkeypatch):
    def per_record(*args):
        raise AssertionError("the per-record parser ran on a clean array")

    monkeypatch.setattr(schema, "by_record", per_record)
    defects = [
        {"id": "D-1", "description": "x", "class": "checking", "detection_effort": 10},
        {"id": "D-2", "description": "y", "class": "timing", "detection_effort": -0.0,
         "observed_modes": [], "resolution": None},
        {"id": "D-3", "description": "z", "class": "timing", "observed_modes": ["C", "A"],
         "resolution": "fixed"},
    ]
    rtm = [{"req_id": "R-1", "description": "d", "status": "complete"},
           {"req_id": "R-2", "description": "e", "status": "incomplete"}]
    corpus = [{"id": "c1", "description": "x", "class": "checking", "observed_modes": ["A", "C"]},
              {"id": "c2", "description": "x", "class": "checking", "observed_modes": ["C", "A"]},
              {"id": "c3", "description": "x", "class": "timing", "observed_modes": ["D"]}]
    config = {"structural_coverage": 1.0, "system_kind": "control", "matrix": "corpus:corpus.json"}
    bundle = load_bundle(write_bundle(tmp_path / "b", defects=defects, rtm=rtm, config=config,
                                      **{"corpus.json": corpus}))
    # A bounded bundle keeps neither efforts nor modes: the file reader returns them.
    read = load_defects_file(tmp_path / "b" / "defects.json")
    assert [repr(r.detection_effort) for r in read] == ["10.0", "-0.0", "0.0"]
    assert read[2].observed_modes == frozenset({FailureMode.A, FailureMode.C})
    assert [r.defect_class for r in bundle.defects] == [DefectClass.CHECKING, DefectClass.TIMING, DefectClass.TIMING]
    assert [entry.req_id for entry in bundle.rtm] == ["R-1", "R-2"]
    assert bundle.matrix.counts == {DefectClass.CHECKING: (2, 0, 2, 0), DefectClass.TIMING: (0, 0, 0, 1)}
    csv_path = tmp_path / "log.csv"
    csv_path.write_text("id,description,class,detection_effort,observed_modes\n"
                        "D-1,x,checking,5,A;C\nD-2,y,timing,,\n", encoding="utf-8")
    assert [r.id for r in defects_from_csv(csv_path)] == ["D-1", "D-2"]


GOOD = {"id": "D-1", "description": "x", "class": "checking"}


@pytest.mark.parametrize("name, body, message", [
    # The later record's id is checked before any resolution, but record 0 comes first.
    ("defects.json", [{**GOOD, "resolution": 5}, {**GOOD, "id": 7}],
     "defects.json: record 'D-1': resolution: expected a string, got 5"),
    ("defects.json", [GOOD, {**GOOD, "id": "D-2", "class": "bogus"}, GOOD],
     "defects.json: record 'D-2': class: invalid value 'bogus' (expected one of: function, "
     "assignment, algorithm, checking, interface, relationship, timing)"),
    ("defects.json", [{**GOOD, "observed_modes": None}, {**GOOD, "id": ""}],
     "defects.json: record 'D-1': observed_modes: expected an array, got None"),
    ("rtm.json", [{"req_id": "R-1", "description": "d", "status": "done"},
                  {"req_id": "", "description": "d", "status": "complete"}],
     "rtm.json: entry 'R-1': status: invalid value 'done' (expected one of: complete, indirect, "
     "incomplete)"),
    ("log.csv", "id,description,class,detection_effort\n,x,checking,1\nD-2,x,checking,abc\n",
     "log.csv: record 2: id: must be a nonempty string"),
    ("log.csv", "id,description,class,detection_effort\nD-1,x,checking,abc\nD-2,x,bogus,1\n",
     "log.csv: line 2: detection_effort is not a number: 'abc'"),
    ("log.csv", "id,description,class\nD-1,x,checking\nD-2,%s,checking\n" % ("x" * 131_073),
     "log.csv: line 3: invalid CSV: field larger than field limit (131072)"),
    ("log.csv", "id,class,description,class\nD-1,checking,x,timing\n",
     "log.csv: header: duplicate column(s): class"),
    ("log.csv", "id,description,class\nD-1,x,checking\nD-2,x,checking,high,7\n",
     "log.csv: line 3: 5 fields; the header has 3"),
    ("log.csv", 'id,description,class\nD-1,"x,checking\nD-2,y,timing\n',
     "log.csv: line 2: invalid CSV: unexpected end of data"),
    ("log.csv", 'id,description,class\nD-1,x,bogus\nD-2,"x,checking\n',
     "log.csv: record 'D-1': class: invalid value 'bogus' (expected one of: function, assignment, "
     "algorithm, checking, interface, relationship, timing)"),
    # Header names padded with spaces name their columns.
    ("log.csv", "id, description, class\nD-1, x, checking\nD-2, y, bogus\n",
     "log.csv: record 'D-2': class: invalid value 'bogus' (expected one of: function, assignment, "
     "algorithm, checking, interface, relationship, timing)"),
    # A row is named by the file line it starts on.
    ("log.csv", 'id,description,class,detection_effort\nD-1,"two\nlines",checking,1\nD-2,y,checking,abc\n',
     "log.csv: line 4: detection_effort is not a number: 'abc'"),
    ("log.csv", 'id,description,class\nD-1,"two\nlines",checking\n\n,y,checking\n',
     "log.csv: record 5: id: must be a nonempty string"),
], ids=["late-field-of-earlier-record", "bad-class-before-duplicate-id", "null-modes-before-empty-id",
        "rtm-status-before-empty-req_id", "csv-empty-id-before-bad-effort",
        "csv-bad-effort-before-bad-class", "csv-field-over-limit", "csv-duplicate-column",
        "csv-extra-fields", "csv-unterminated-quote", "csv-bad-class-before-unterminated-quote",
        "csv-padded-header", "csv-line-after-two-line-field", "csv-record-after-two-line-field-and-blank-line"])
def test_first_fault_in_record_order_is_reported(tmp_path, name, body, message):
    path = tmp_path / name
    path.write_text(body if isinstance(body, str) else json.dumps(body), encoding="utf-8")
    load = {"defects.json": bundle_module.load_defects_file, "rtm.json": load_rtm_file,
            "log.csv": defects_from_csv}[name]
    with pytest.raises(BundleError) as info:
        load(path)
    assert str(info.value) == message


def test_empty_ids_rejected_with_context(tmp_path):
    defects = [{"id": "", "description": "x", "class": "checking", "detection_effort": 1.0}]
    with pytest.raises(BundleError, match=r"defects\.json: record 0: id: must be a nonempty"):
        load_bundle(write_bundle(tmp_path / "b", defects=defects))
    rtm = [{"req_id": "", "description": "x", "status": "complete"}]
    with pytest.raises(BundleError, match=r"rtm\.json: entry 0: req_id: must be a nonempty"):
        load_bundle(write_bundle(tmp_path / "c", rtm=rtm))


def test_non_utf8_file_rejected_with_context(tmp_path):
    directory = write_bundle(tmp_path / "b")
    (directory / "config.json").write_bytes(b'{"structural_coverage": 1.0, "system_kind": "\xff"}')
    with pytest.raises(BundleError, match=r"config\.json: byte 45: not valid UTF-8"):
        load_bundle(directory)


@pytest.mark.parametrize("effort", [
    {"kind": "continuous", "test_count": 10**400, "test_duration": 1.0},
    {"kind": "on-demand", "test_count": 10**400},
    {"kind": "continuous", "test_count": 10**300, "test_duration": 1e10},
])
def test_total_effort_beyond_float_range_rejected(tmp_path, effort):
    with pytest.raises(BundleError, match=r"effort\.json: test_count: .*floating-point range"):
        load_bundle(write_bundle(tmp_path / "b", effort=effort))


@pytest.mark.parametrize("record", [
    {"id": "D-2", "description": "x", "class": "checking"},
    {"id": "D-2", "description": "x", "class": "checking", "detection_effort": 0.0},
])
def test_srgm_bundle_requires_detection_efforts(tmp_path, record):
    defects = [{"id": "D-1", "description": "x", "class": "checking", "detection_effort": 1.0},
               record]
    config = {"structural_coverage": 1.0, "system_kind": "control", "rate_method": "srgm"}
    with pytest.raises(BundleError,
                       match=r"^defects\.json: record 'D-2': detection_effort must be positive"):
        load_bundle(write_bundle(tmp_path / "b", defects=defects, config=config))
    # The bounded method does not use detection efforts.
    load_bundle(write_bundle(tmp_path / "c", defects=defects))


@pytest.mark.parametrize("efforts, windows, reason", [
    ([5.0], 4, "insufficient failure data: at least 2 detection events"),
    ([5.0, 90.0], 2, r"stability window ending at effort 50 contains 1 event\(s\)"),
])
def test_srgm_class_histories_checked_at_load(tmp_path, efforts, windows, reason):
    defects = [{"id": f"D-{i}", "description": "x", "class": "checking", "detection_effort": t}
               for i, t in enumerate(efforts)]
    config = {"structural_coverage": 1.0, "system_kind": "control", "rate_method": "srgm",
              "stability_windows": windows}
    with pytest.raises(BundleError, match=rf"^defects\.json: class 'checking': {reason}"):
        run_assessment(load_bundle(write_bundle(tmp_path / "b", defects=defects, config=config)))


@pytest.mark.parametrize("source", ["m.json", "corpus:corpus.json", "corpus:defects.json"])
def test_input_digests_are_sha256_of_the_files(tmp_path, source):
    # A bundle file read again, as the corpus, keeps its one digest.
    corpus = [{"id": "c1", "description": "x", "class": "checking", "observed_modes": ["A"]}]
    directory = write_bundle(tmp_path / "b", defects=corpus, **{"corpus.json": corpus,
                                                "m.json": builtin_causality().to_dict()})
    bundle = load_bundle(directory, matrix_source=source)
    name = source.removeprefix("corpus:")
    assert bundle.input_digests == {
        file: "sha256:" + hashlib.sha256((directory / file).read_bytes()).hexdigest()
        for file in ("defects.json", "effort.json", "rtm.json", "tca.json", "config.json", name)}


@pytest.mark.parametrize("source, name", [("corpus:../other/defects.json", "defects.json"),
                                          ("../other/config.json", "config.json")])
def test_an_input_of_a_bundle_file_name_with_other_bytes_is_refused(tmp_path, source, name):
    # A report keys its input digests by file name, so a corpus or matrix outside the bundle that
    # shares a bundle file's name would overwrite that file's digest: one fault line instead, from
    # the block reader of a corpus and from the whole-text reader of a matrix.
    defects = [{"id": "c1", "description": "x", "class": "checking", "observed_modes": ["A"]}]
    directory = write_bundle(tmp_path / "b", defects=defects)
    other = tmp_path / "other"
    other.mkdir()
    (other / "defects.json").write_text(json.dumps(defects), encoding="utf-8")  # the records, not the bytes
    (other / "config.json").write_text(json.dumps(builtin_causality().to_dict()), encoding="utf-8")
    with pytest.raises(BundleError) as err:
        load_bundle(directory, matrix_source=source)
    assert str(err.value) == (
        f"{name}: top level: {directory / '..' / 'other' / name} differs from the input of this name already "
        "read, and a report keys input digests by file name; rename one of them")


@pytest.mark.parametrize("description, decoded", [
    ("\\udc00", None),
    ("\\uDC00", None),
    ("x\\ud83d", None),
    ("\\ud83d\\ude00", "\U0001F600"),
    ("say \\\"hi\\\"", 'say "hi"'),
], ids=["lone-low", "lone-low-upper-case", "lone-high", "pair", "quote-escapes-only"])
def test_surrogate_escapes_rejected_unless_paired(tmp_path, description, decoded):
    path = tmp_path / "rtm.json"
    path.write_text('[{"req_id": "R-1", "description": "%s", "status": "complete"}]' % description,
                    encoding="utf-8")
    if decoded is None:
        with pytest.raises(BundleError, match=r"^rtm\.json: top level: invalid JSON: a \\u escape "
                                              r"is an unpaired UTF-16 surrogate$"):
            load_rtm_file(path)
    else:
        assert load_rtm_file(path)[0].description == decoded

import contextlib
import copy
import hashlib
import io
import json
import math
import re
import shutil

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from orcas import cli
from orcas.bundle import load_bundle
from orcas.causality import ROW_SUM_TOLERANCE
from orcas.domain import DefectClass, FailureMode, Name
from orcas.errors import BundleError, OrcasError
from orcas.evidence import GateDecision
from orcas.fixtures import vcu_dir
from orcas.quantify import mode_sums
from orcas.report import (
    _REPORT_FIELDS,
    canonical_json_bytes,
    emit_report,
    report_from_json,
    run_assessment,
    text_report,
)
from orcas.schema import Object

from conftest import srgm_bundle, write_bundle


@pytest.fixture
def vcu_report(vcu_bundle_dir):
    return run_assessment(load_bundle(vcu_bundle_dir))


# ---------------------------------------------------------------------------
# Case-study pipeline
# ---------------------------------------------------------------------------


def test_vcu_totals_and_gate(vcu_report):
    modes = vcu_report["modes"]
    assert float(f"{modes['total']:.3e}") == 5.854e-4
    assert modes["per_mode"]["B"] == 0.0
    assert abs(vcu_report["evidence"]["confidence"] - 0.7667) <= 1e-4
    assert vcu_report["evidence"]["gate"] == GateDecision.DEFER.value


def test_vcu_gaps(vcu_report):
    assert vcu_report["gaps"]["untraced_requirements"] == ["REQ-3"]
    assert vcu_report["gaps"]["uncovered_triggers"] == [
        "system/system-test/configuration",
        "system/system-test/workload-stress",
    ]


def test_vcu_annotations_mention_zero_classes(vcu_report):
    joined = "\n".join(vcu_report["annotations"])
    assert "bounded at 0 by testing effort" in joined
    assert "relationship" in joined and "timing" in joined


def test_report_is_deterministic(vcu_bundle_dir):
    first = emit_report(run_assessment(load_bundle(vcu_bundle_dir)), "json")
    second = emit_report(run_assessment(load_bundle(vcu_bundle_dir)), "json")
    assert first == second


def test_report_json_round_trip(vcu_report):
    blob = emit_report(vcu_report, "json")
    reloaded = report_from_json(blob)
    assert reloaded == vcu_report
    assert emit_report(reloaded, "json") == blob


def test_report_provenance(vcu_report):
    prov = vcu_report["provenance"]
    assert prov["matrix"] == "built-in"
    assert prov["tool"]["name"] == "orcas"
    assert set(prov["inputs"]) == {
        "defects.json", "effort.json", "rtm.json", "tca.json", "config.json"}


# ---------------------------------------------------------------------------
# Text and SVG emission
# ---------------------------------------------------------------------------


def test_text_report_mode_table(vcu_report):
    text = text_report(vcu_report)
    assert "UIF-A" in text and "UIF-D" in text  # information family labels
    header_line = next(line for line in text.splitlines() if "UIF-A" in line)
    assert header_line.split() == ["class", "UIF-A", "UIF-B", "UIF-C", "UIF-D", "Total"]
    total_line = next(line for line in text.splitlines() if line.strip().startswith("Total"))
    assert "5.854E-04" in total_line
    assert "2.620E-04" in total_line
    assert "defer-to-BAHAMAS" in text
    assert "excluded modes: B" in text


def test_text_report_uses_control_labels_for_control_systems(tmp_path):
    directory = write_bundle(
        tmp_path / "b",
        defects=[{"id": "D-1", "description": "x", "class": "checking", "detection_effort": 1.0}],
    )
    report = run_assessment(load_bundle(directory))
    assert "UCA-A" in text_report(report)


def test_svg_without_fits_has_note(vcu_report):
    svg = emit_report(vcu_report, "svg").decode("utf-8")
    assert svg.startswith("<svg")
    assert "no growth-model fits" in svg
    assert "polyline" not in svg


def test_svg_without_fits_says_why(vcu_report, vcu_bundle_dir, tmp_path):
    # A bounded report names its method; a growth report of a bundle with no
    # defects has no class to fit, and says so instead.
    note = '  <text x="16" y="52" font-family="monospace" font-size="13">({})</text>\n'
    bounded = emit_report(vcu_report, "svg").decode("utf-8")
    assert note.format("rates were estimated with the bounded method") in bounded
    directory = shutil.copytree(vcu_bundle_dir, tmp_path / "vcu")
    (directory / "defects.json").write_text("[]", encoding="utf-8")
    config = json.loads((directory / "config.json").read_text(encoding="utf-8"))
    (directory / "config.json").write_text(json.dumps({**config, "rate_method": "srgm"}), encoding="utf-8")
    report = run_assessment(load_bundle(directory))
    assert report["rates"]["method"] == "srgm" and report["growth"]["per_class"] == {}
    svg = emit_report(report, "svg").decode("utf-8")
    assert svg == bounded.replace(note.format("rates were estimated with the bounded method"),
                                  note.format("no class has detection events to fit"))
    assert emit_report(report_from_json(emit_report(report, "json")), "svg").decode("utf-8") == svg


def test_emit_rejects_unknown_format(vcu_report):
    from orcas.errors import OrcasError
    with pytest.raises(OrcasError, match="format"):
        emit_report(vcu_report, "pdf")


# ---------------------------------------------------------------------------
# Escape hatch and the missing-row fault
# ---------------------------------------------------------------------------


def relationship_bundle(tmp_path, **config_extra):
    config = {"structural_coverage": 1.0, "system_kind": "control"}
    config.update(config_extra)
    return write_bundle(
        tmp_path / "b",
        defects=[{"id": "D-1", "description": "x", "class": "relationship",
                  "detection_effort": 1.0}],
        config=config,
    )


def test_relationship_defect_fails_without_escape_hatch(tmp_path):
    bundle = load_bundle(relationship_bundle(tmp_path))
    with pytest.raises(BundleError) as err:
        run_assessment(bundle)
    assert str(err.value) == (
        "defects.json: class 'relationship': no causality row in the built-in matrix; give a matrix "
        "with a row for it, or set uniform_missing_rows to substitute a uniform row")


def test_uniform_escape_hatch_warns_and_proceeds(tmp_path):
    bundle = load_bundle(relationship_bundle(tmp_path, uniform_missing_rows=True))
    report = run_assessment(bundle)
    rate = 1.0 / 100.0
    for mode in FailureMode:
        assert report["modes"]["per_cell"]["relationship"][mode.value] == pytest.approx(0.25 * rate)
    assert any(note.startswith("WARNING") and "uniform" in note for note in report["annotations"])
    # The only pin of a report with substituted rows: no digest of tests/test_outputs.py covers one.
    assert hashlib.sha256(canonical_json_bytes(report)).hexdigest() == (
        "6bb9f367f916086d7317eaad0b26815700bd6cb76a55fa7be93103810fdeb7c1")


def test_a_loaded_row_at_the_row_sum_tolerance_reads_back(tmp_path):
    # The loader accepts rows that sum to exactly 1 +- the tolerance. At these
    # rates their cells sum beyond the bounds times the rate by the rounding
    # of the products, which the report check allows.
    rows = {"checking": [0.36, 0.2445, 0.256, 0.14], "timing": [0.19, 0.048, 0.524, 0.2375]}
    assert [math.fsum(row) for row in rows.values()] == [1 + ROW_SUM_TOLERANCE, 1 - ROW_SUM_TOLERANCE]
    directory = write_bundle(
        tmp_path / "b",
        defects=[{"id": f"D-{i}", "description": "x", "class": cls, "detection_effort": 1.0}
                 for i, cls in enumerate(["checking", "timing"] * 3)],
        effort={"kind": "continuous", "test_count": 7, "test_duration": 1.0},
        config={"structural_coverage": 1.0, "system_kind": "control", "matrix": "matrix.json"},
        **{"matrix.json": {"provenance": "edge", "rows": rows}},
    )
    report = run_assessment(load_bundle(directory))
    cells, rates = report["modes"]["per_cell"], report["rates"]["per_class"]
    assert math.fsum(cells["checking"].values()) > (1 + ROW_SUM_TOLERANCE) * rates["checking"]
    assert math.fsum(cells["timing"].values()) < (1 - ROW_SUM_TOLERANCE) * rates["timing"]
    assert report_from_json(emit_report(report, "json")) == report


def test_cells_beyond_their_rate_are_refused_where_a_mode_is_excluded(vcu_report):
    # The VCU report excludes mode B, so its checking cells imply a row that
    # sums to 0.756, and only the upper bound applies.
    report = copy.deepcopy(vcu_report)
    modes = report["modes"]
    modes["per_cell"]["checking"] = {mode: 1.5 * cell for mode, cell in modes["per_cell"]["checking"].items()}
    modes.update(mode_sums(modes["per_cell"], modes["excluded"]))
    with pytest.raises(OrcasError) as err:
        report_from_json(emit_report(report, "json"))
    assert str(err.value) == (
        "invalid report JSON: modes: per_cell: checking: implies the matrix row [0.54, 0, 0.384, 0.21] "
        "(sum 1.134), not probabilities in [0, 1] that sum to at most 1.0 + 0.0005")


@pytest.mark.parametrize("path", [("per_mode", "B"), ("per_cell", "checking", "B")])
def test_an_integer_for_a_derived_float_is_refused(vcu_report, path):
    # The VCU report excludes mode B, so these are 0.0. Written as 0, they
    # would re-emit as bytes that no assessment writes.
    report = copy.deepcopy(vcu_report)
    node = report["modes"]
    for key in path[:-1]:
        node = node[key]
    assert node[path[-1]] == 0.0
    node[path[-1]] = 0
    with pytest.raises(OrcasError) as err:
        report_from_json(json.dumps(report))
    assert str(err.value) == f"invalid report JSON: modes: {': '.join(path)}: must be 0.0, got 0"


@pytest.fixture(scope="module")
def whole_efforts_report(tmp_path_factory):
    """A growth report whose detection efforts are whole numbers, each written as a float."""
    directory = srgm_bundle(tmp_path_factory.mktemp("whole"))
    path = directory / "defects.json"
    defects = json.loads(path.read_text(encoding="utf-8"))
    for defect in defects:
        defect["detection_effort"] = math.ceil(defect["detection_effort"])
    path.write_text(json.dumps(defects), encoding="utf-8")
    return run_assessment(load_bundle(directory))


@pytest.mark.parametrize("name, path, where", [
    ("vcu", ("rates", "per_class", "timing"), "rates: per_class: timing"),
    ("vcu", ("evidence", "structural_coverage"), "evidence: structural_coverage"),
    ("growth", ("growth", "horizon"), "growth: horizon"),
    ("growth", ("growth", "per_class", "checking", "events", 0), "growth: per_class: checking: events[0]"),
    ("vcu", ("provenance", "options", "stability_threshold"), "provenance: options: stability_threshold"),
], ids=["bounded-rate", "evidence-score", "horizon", "event", "stability-threshold"])
def test_an_integer_for_a_primary_float_is_refused(vcu_report, whole_efforts_report, name, path, where):
    # No relation derives these fields, so an int passed every relation and re-emitted as an int.
    report = copy.deepcopy(vcu_report if name == "vcu" else whole_efforts_report)
    node = report
    for key in path[:-1]:
        node = node[key]
    assert type(node[path[-1]]) is float
    value = node[path[-1]] = int(node[path[-1]])
    with pytest.raises(OrcasError) as err:
        report_from_json(json.dumps(report))
    assert str(err.value) == f"invalid report JSON: {where}: must be {float(value)!r}, got {value}"


def test_zero_defect_bundle_proceeds(tmp_path):
    directory = write_bundle(tmp_path / "b", defects=[])
    report = run_assessment(load_bundle(directory))
    assert report["modes"]["total"] == 0.0
    assert report["evidence"]["confidence"] == 1.0
    assert report["evidence"]["gate"] == GateDecision.PROCEED.value


# ---------------------------------------------------------------------------
# Growth-model pipeline
# ---------------------------------------------------------------------------


def test_srgm_pipeline(tmp_path):
    report = run_assessment(load_bundle(srgm_bundle(tmp_path)))
    assert report["growth"] is not None
    entry = report["growth"]["per_class"]["checking"]
    fit = entry["fit"]
    assert fit["converged"]
    assert report["rates"]["per_class"]["checking"] == pytest.approx(fit["current_intensity"])
    assert entry["stability"]["series"][-1][0] == 300.0
    assert any("intensities at the assessment horizon" in note for note in report["annotations"])
    # growth reports re-emit losslessly
    blob = emit_report(report, "json")
    assert report_from_json(blob) == report


def test_srgm_svg_plots(tmp_path):
    report = run_assessment(load_bundle(srgm_bundle(tmp_path)))
    svg = emit_report(report, "svg").decode("utf-8")
    assert svg.count("<polyline") == 2  # observed + fitted curves
    assert "checking" in svg


def test_srgm_single_event_class_fails_with_context(tmp_path):
    # A bundle built in Python, past load_bundle, meets the same check in
    # the rates stage, raised as the input fault it is.
    directory = write_bundle(
        tmp_path / "b",
        defects=[{"id": f"D-{i}", "description": "x", "class": "checking",
                  "detection_effort": 5.0 + i} for i in range(2)],
        config={"structural_coverage": 1.0, "system_kind": "control", "rate_method": "srgm"},
    )
    bundle = load_bundle(directory)
    bundle = bundle._replace(defects=bundle.defects[:1])
    with pytest.raises(BundleError, match="class 'checking'.*insufficient failure data"):
        run_assessment(bundle)


def dumps_canonically(value) -> bytes:
    return (json.dumps(value, sort_keys=True, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


# Keys of at most 5 characters, so none equals a DefectClass value.
json_keys = st.one_of(st.text(max_size=5), st.sampled_from(list(DefectClass)))
json_floats = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]))
float_lists = st.one_of(
    st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40),
    st.lists(json_floats, max_size=40),
    st.lists(st.one_of(json_floats, st.integers(), st.booleans()), max_size=10),
)
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), json_floats, st.text(max_size=8),
              st.sampled_from(list(DefectClass)), float_lists, float_lists.map(tuple)),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(json_keys, children, max_size=5),
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(json_values)
def test_canonical_json_is_json_dumps(value):
    assert canonical_json_bytes(value) == dumps_canonically(value)


@pytest.mark.parametrize("value", [
    [], {}, [1.5], (0.1, 2.0), [-0.0, 1e300, 5e-324], [1.0, 2], [1.0, True], [1.0, math.nan],
    {1: "int key", 2: 0.5}, {1.5: [], -math.inf: {}}, {None: 1}, {True: 2, False: [1.0]},
    10**100, [[1.0, 2.0], [3.0, 4.0]], {"x": [math.inf, 1.0]},
    dict.fromkeys(Name("Glyph", [("ACCENT", "é"), ("CONTROL", "\x01\n\t"), ("QUOTE", '"\\')]), [0.5]),
])
def test_canonical_json_edge_cases_are_json_dumps(value):
    assert canonical_json_bytes(value) == dumps_canonically(value)


def test_canonical_json_raises_what_json_dumps_raises():
    cycle = []
    cycle.append(cycle)
    for value in ({"a": object()}, {("tuple", "key"): 1}, {"a": 1, 2: 3}, cycle,
                  {b"k": 1}, {frozenset(): 1}, {"a": {1}}, {"a": b"x"}):
        with pytest.raises(Exception) as expected:
            dumps_canonically(value)
        with pytest.raises(expected.type, match="^" + re.escape(str(expected.value)) + "$"):
            canonical_json_bytes(value)


def test_report_from_json_rejects_garbage():
    from orcas.errors import OrcasError
    with pytest.raises(OrcasError, match="invalid report JSON"):
        report_from_json(b"not json")
    with pytest.raises(OrcasError, match="schema_version"):
        report_from_json(b'{"schema_version": 99}')
    # A value that is not an object is named by the field table, in the form of every other fault.
    with pytest.raises(OrcasError) as err:
        report_from_json(b"[1]")
    assert str(err.value) == "invalid report JSON: top level: expected a JSON object, got list"


@pytest.mark.parametrize("mutate, message", [
    (lambda d: {**d, "mode_family": "x" * 4000},
     "invalid report JSON: mode_family: invalid value 'xxxxxxxxxxxxxxxxxxxxxxxxxxxxx... "
     "(expected one of: control, information)"),
    (lambda d: {**d, "modes": {**d["modes"], "unit": "u" * 4000}},
     "invalid report JSON: modes: unit: invalid value 'uuuuuuuuuuuuuuuuuuuuuuuuuuuuu... "
     "(expected one of: per-hour, per-demand)"),
    (lambda d: {**d, "evidence": {**d["evidence"], "rtm_score": "z" * 4000}},
     "invalid report JSON: evidence: rtm_score: expected a number, got 'zzzzzzzzzzzzzzzzzzzzzzzzzzzzz..."),
    (lambda d: {**d, "mode_family": [1] * 4000},
     "invalid report JSON: mode_family: invalid value [" + "1, " * 9 + "1,... "
     "(expected one of: control, information)"),
    (lambda d: {**d, "schema_version": "9" * 4000},
     "unsupported report schema_version '99999999999999999999999999999... (expected 1)"),
], ids=["mode_family", "modes.unit", "evidence.rtm_score", "array-mode_family", "schema_version"])
def test_report_errors_cut_long_bad_values(vcu_report, mutate, message):
    data = json.dumps(mutate(vcu_report)).encode()
    with pytest.raises(OrcasError) as err:
        report_from_json(data)
    assert str(err.value) == message


@pytest.fixture(scope="module")
def growth_reports(tmp_path_factory):
    """The parsed `assess -o` reports of a Goel-Okumoto and a Musa-Okumoto
    bundle, and a directory for the property below to write new files in."""
    reports = []
    for model in ("goel-okumoto", "musa-okumoto"):
        saved = tmp_path_factory.mktemp("saved") / "report.json"
        assert cli.main(["assess", str(srgm_bundle(tmp_path_factory.mktemp(model), model)),
                         "-o", str(saved)]) in (0, 2)
        reports.append(json.loads(saved.read_bytes()))
    return reports, tmp_path_factory.mktemp("mutated")


# One value of each JSON type; a number stands for both int and float.
JSON_VALUES = [None, True, 7, "x", [1.5], {"k": 1}]


def json_type(value) -> type:
    return float if type(value) is int else type(value)


@st.composite
def one_field_mutations(draw, reports):
    """A copy of a report with one field changed: its value swapped for one
    of another JSON type, or deleted, or an unknown key added next to it, or
    nudged within its type (a number doubled or set to 0, a boolean negated).
    Returns the copy and whether the schema_version is the value changed."""
    report = copy.deepcopy(draw(st.sampled_from(reports)))
    node, path = report, []
    while True:
        key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        path.append(key)
        if not (isinstance(node[key], (dict, list)) and node[key] and draw(st.booleans())):
            break
        node = node[key]
    value = node[key]
    actions = ["swap", "delete", *(["add"] if isinstance(node, dict) else []),
               *(["nudge"] if type(value) in (bool, int, float) else [])]
    action = draw(st.sampled_from(actions))
    if action == "swap":
        node[key] = draw(st.sampled_from([v for v in JSON_VALUES if json_type(v) is not json_type(value)]))
    elif action == "delete":
        del node[key]
    elif action == "add":
        node["not_a_key"] = 1
    else:
        node[key] = not value if type(value) is bool else draw(st.sampled_from([2 * value, type(value)()]))
    return report, path == ["schema_version"] and action != "add"


@settings(derandomize=True, database=None, deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_report_renders_in_every_format_what_it_accepts_as_json(growth_reports, data):
    reports, directory = growth_reports
    report, version = data.draw(one_field_mutations(reports))
    saved = directory / f"report-{len(list(directory.iterdir()))}.json"
    saved.write_text(json.dumps(report), encoding="utf-8")
    results, outputs = [], []
    for format in ("json", "text", "svg"):
        out, err = io.TextIOWrapper(io.BytesIO()), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            results.append((cli.main(["report", str(saved), "--format", format]), err.getvalue()))
        outputs.append(out.buffer.getvalue())
    if results[0][0] == 0:
        assert results == [(0, "")] * 3
        assert outputs[0] == canonical_json_bytes(report)
    else:
        # A report of another schema_version is named by its version.
        prefixes = ("orcas: error: invalid report JSON: ",
                    *(["orcas: error: unsupported report schema_version "] if version else []))
        for code, err in results:
            assert code == 1 and err.startswith(prefixes) and err.count("\n") == 1 and err.endswith("\n")
        assert len({err for _, err in results}) == 1


# Bundles whose reports hold every section: bounded rates, growth fits of
# each model, and substituted uniform rows with excluded modes.
REPORT_BUNDLES = {
    "vcu": lambda tmp_path: load_bundle(vcu_dir()),
    "goel-okumoto": lambda tmp_path: load_bundle(srgm_bundle(tmp_path, "goel-okumoto")),
    "musa-okumoto": lambda tmp_path: load_bundle(srgm_bundle(tmp_path, "musa-okumoto")),
    "vcu-uniform-excluded": lambda tmp_path: load_bundle(
        vcu_dir(), uniform_missing_rows=True, exclude_modes=frozenset({FailureMode.B, FailureMode.C})),
}


@pytest.mark.parametrize("name", REPORT_BUNDLES)
def test_report_is_the_dict_its_table_describes(name, tmp_path):
    report = run_assessment(REPORT_BUNDLES[name](tmp_path))
    assert next(iter(report)) == "schema_version"
    Object(_REPORT_FIELDS).check(report, "report", "top level")
    assert report_from_json(emit_report(report, "json")) == report


def test_total_is_finite_sum_of_modes(vcu_report):
    modes = vcu_report["modes"]
    included = [modes["per_mode"][m] for m in modes["per_mode"] if m not in modes["excluded"]]
    assert modes["total"] == pytest.approx(math.fsum(included), abs=1e-18)

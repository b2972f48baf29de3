import gc
import json
import math
import os
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import default_tca_entries, nhpp_exponential_events, srgm_bundle, write_bundle
from orcas import cli
from orcas.bundle import defects_from_csv, load_bundle, load_corpus_file, load_history_file
from orcas.causality import estimate_causality
from orcas.fixtures import vcu_dir
from orcas.growth import SrgmModel, fit_mean, fit_srgm, stability
from orcas.quantify import mode_sums
from orcas.report import canonical_json_bytes, emit_report, run_assessment


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "orcas", *map(str, args)],
        capture_output=True,
        **kwargs,
    )


def test_validate_fixture():
    result = run_cli("validate", vcu_dir())
    assert result.returncode == 0
    out = result.stdout.decode()
    assert "defects: 8" in out
    assert "rtm entries: 10" in out
    assert "tca slots: 15" in out
    assert "  rates: bounded\n" in out
    assert "  gate: defer-to-BAHAMAS (confidence 0.7667, threshold 0.9000)\n" in out
    assert "  note: confidence is the weighted mean of the RTM and TCA scores" in out


def test_assess_defers_at_default_threshold():
    result = run_cli("assess", vcu_dir())
    assert result.returncode == 2
    report = json.loads(result.stdout)
    assert report["evidence"]["gate"] == "defer-to-BAHAMAS"


def test_assess_proceeds_at_lower_threshold():
    result = run_cli("assess", vcu_dir(), "--confidence-threshold", "0.70")
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report["evidence"]["gate"] == "proceed"


@pytest.mark.parametrize("threshold, reason", [
    ("1.5", "must be <= 1.0, got 1.5"), ("-0.5", "must be >= 0.0, got -0.5"),
    ("nan", "expected a finite number, got nan"), ("inf", "expected a finite number, got inf"),
])
def test_assess_refuses_a_confidence_threshold_outside_the_unit_interval_at_load(threshold, reason):
    result = run_cli("assess", vcu_dir(), "--confidence-threshold", threshold)
    assert (result.returncode, result.stdout, result.stderr.decode()) == (
        1, b"", f"orcas: error: override of config.json: confidence_threshold: {reason}\n")


def test_assess_output_is_byte_identical_across_runs():
    first = run_cli("assess", vcu_dir())
    second = run_cli("assess", vcu_dir())
    assert first.stdout == second.stdout
    assert first.stdout.endswith(b"\n")


def test_assess_text_format():
    result = run_cli("assess", vcu_dir(), "--format", "text")
    out = result.stdout.decode()
    assert "Total" in out and "UIF-A" in out
    assert "5.854E-04" in out


def test_report_reemission_round_trip(tmp_path):
    saved = tmp_path / "assessment.json"
    first = run_cli("assess", vcu_dir(), "-o", saved)
    assert first.returncode == 2
    as_json = run_cli("report", saved, "--format", "json")
    assert as_json.returncode == 0
    assert as_json.stdout == saved.read_bytes()
    as_text = run_cli("report", saved, "--format", "text")
    assert "defer-to-BAHAMAS" in as_text.stdout.decode()
    as_svg = run_cli("report", saved, "--format", "svg")
    assert as_svg.stdout.startswith(b"<svg")


_DELETE = object()


def edit(*path, value=_DELETE):
    """A mutation of a saved report that sets the value at ``path`` to
    ``value`` (a function: to its result on the value there), or with no
    value deletes it."""
    def mutate(raw):
        report = json.loads(raw)
        node = report
        for key in path[:-1]:
            node = node[key]
        if value is _DELETE:
            del node[path[-1]]
        else:
            node[path[-1]] = value(node[path[-1]]) if callable(value) else value
        return json.dumps(report).encode()
    return mutate


_CHECKING = ("growth", "per_class", "checking")
_FIT = (*_CHECKING, "fit")
_STABILITY = (*_CHECKING, "stability")
# The class's rate, current intensity and cells' sum in the saved report.
_RATE = "0.003861165103289957"
# The class's fitted a, its predicted total.
_A = "181.16552471200785"
_AT_FIT = "invalid report JSON: growth: per_class: checking: fit: "
_AT_STABILITY = "invalid report JSON: growth: per_class: checking: stability: "
_AT_THRESHOLD = _AT_STABILITY + "threshold: "
_UNSTABLE = "WARNING: growth-model refits exceed the stability threshold; predictions may be unreliable"
_NOTE = "invalid report JSON: annotations: holds the unstable-refits warning: "
_AT_CELLS = "invalid report JSON: modes: per_cell: checking: implies the matrix row "


def unstable_at_threshold_zero(raw):
    """The saved stable report made unstable at threshold 0.0, consistently
    but for the missing warning annotation."""
    report = json.loads(raw)
    report["provenance"]["options"]["stability_threshold"] = 0.0
    verdict = report["growth"]["per_class"]["checking"]["stability"]
    assert verdict["stable"] and verdict["max_relative_step"] > 0.0
    verdict.update(threshold=0.0, stable=False)
    report["growth"]["all_stable"] = False
    return json.dumps(report).encode()


def recount(change):
    """A mutation of a saved report that applies ``change`` to its modes and
    recomputes the margins, so that they are the sums of the cells."""
    def mutate(raw):
        report = json.loads(raw)
        change(report["modes"])
        report["modes"].update(mode_sums(report["modes"]["per_cell"], report["modes"]["excluded"]))
        return json.dumps(report).encode()
    return mutate


def scale_checking_cells(factor):
    """A change to a report's modes that scales the class's cells by ``factor``."""
    def change(modes):
        modes["per_cell"]["checking"] = {mode: factor * cell for mode, cell in modes["per_cell"]["checking"].items()}
    return change


def exclude_mode_a(raw):
    """The saved report with mode A listed as excluded but its cells kept,
    and the margins recomputed so that they are the sums of the cells."""
    report = json.loads(raw)
    modes = report["modes"]
    assert any(row["A"] > 0.0 for row in modes["per_cell"].values())
    modes["excluded"] = ["A"]
    modes.update(mode_sums(modes["per_cell"], modes["excluded"]))
    return json.dumps(report).encode()


def last_total_times_1_01(raw):
    """The saved report with the last predicted total of the stability series
    scaled by 1.01, and the stability verdict recomputed from the series."""
    report = json.loads(raw)
    entry = report["growth"]["per_class"]["checking"]
    series = entry["stability"]["series"]
    series[-1][1] *= 1.01
    entry["stability"] = stability(series, entry["stability"]["threshold"])
    return json.dumps(report).encode()


@pytest.mark.parametrize("mutate, prefix", [
    (lambda raw: b"\xff", "invalid report JSON: byte 0: not valid UTF-8"),
    (lambda raw: raw[:10] + b"\xff" + raw[11:], "invalid report JSON: byte 10: not valid UTF-8"),
    (lambda raw: json.dumps({**json.loads(raw), "evidence": None}).encode(), "invalid report JSON: "),
    (lambda raw: json.dumps({**json.loads(raw), "annotations": 5}).encode(), "invalid report JSON: "),
    (lambda raw: json.dumps({**json.loads(raw), "rates": {"per_class": []}}).encode(),
     "invalid report JSON: rates: missing key(s): method, unit"),
    (lambda raw: b"[" * 100_000 + b"]" * 100_000,
     "invalid report JSON: top level: invalid JSON: nested too deeply"),
    (lambda raw: raw.replace(b'"schema_version": 1', b'"schema_version": ' + b"9" * 5000),
     "invalid report JSON: top level: invalid JSON: an integer has more than "),
    (lambda raw: json.dumps({**json.loads(raw), "annotations": ["\ud800"]}).encode(),
     "invalid report JSON: top level: invalid JSON: a \\u escape is an unpaired UTF-16 surrogate"),
    (lambda raw: None, "assessment.json: file not found in "),
    (lambda raw: json.dumps({**json.loads(raw), "gaps": []}).encode(),
     "invalid report JSON: gaps: expected a JSON object, got list"),
    (lambda raw: json.dumps({**json.loads(raw), "gaps": {"untraced_requirements": [1],
                                                          "uncovered_triggers": []}}).encode(),
     "invalid report JSON: gaps: untraced_requirements: expected an array of strings"),
    (lambda raw: json.dumps({**json.loads(raw), "provenance": 5}).encode(),
     "invalid report JSON: provenance: expected a JSON object, got int"),
    (edit("growth", "per_class", value=[]),
     "invalid report JSON: growth: per_class: expected a JSON object, got list"),
    (edit("growth", "horizon", value="x"), "invalid report JSON: growth: horizon: expected a number, got 'x'"),
    (edit("growth", "horizon", value=0.0), "invalid report JSON: growth: horizon: must be positive, got 0.0"),
    (edit(*_FIT, "params", value={}), _AT_FIT + "params: missing key(s): a, b"),
    (edit(*_FIT, "model", value="zz"), "invalid report JSON: growth: per_class: checking: fit: model: "
     "invalid value 'zz' (expected one of: goel-okumoto, musa-okumoto)"),
    (edit(*_CHECKING, "events", value=["a"]),
     "invalid report JSON: growth: per_class: checking: events[0]: expected a number, got 'a'"),
    (edit("growth", value=5), "invalid report JSON: growth: expected a JSON object, got int"),
    (edit(*_CHECKING, "stability", value=None),
     "invalid report JSON: growth: per_class: checking: stability: expected a JSON object, got NoneType"),
    (edit("modes", "per_mode", "A"), "invalid report JSON: modes: per_mode: missing key(s): A"),
    (edit("not_a_key", value=0), "invalid report JSON: top level: unknown key(s): not_a_key"),
    (edit("annotations", value=[1]), "invalid report JSON: annotations: expected an array of strings"),
    (edit("modes", "per_class_total", "checking", value=123.0),
     f"invalid report JSON: modes: per_class_total: checking: must be {_RATE}, got 123.0"),
    (edit("modes", "per_class_total", "checking"),
     "invalid report JSON: modes: per_class_total: missing key(s): checking"),
    (edit("modes", "total", value=5.0), f"invalid report JSON: modes: total: must be {_RATE}, got 5.0"),
    (exclude_mode_a, "invalid report JSON: modes: per_cell: checking: A: must be 0.0, got 0.00139"),
    (edit("rates", "per_class", "checking", value=0.5),
     f"invalid report JSON: rates: per_class: checking: must be {_RATE}, got 0.5"),
    (edit("rates", "per_class", "timing", value=1e-3),
     "invalid report JSON: rates: per_class: timing: must be 0.0, got 0.001"),
    (edit(*_FIT, "current_intensity", value=0.5), _AT_FIT + f"current_intensity: must be {_RATE}, got 0.5"),
    (edit("growth", value=None), "invalid report JSON: rates: method: must be 'bounded', got 'srgm'"),
    (edit("rates", "method", value="bounded"), "invalid report JSON: rates: method: must be 'srgm', got 'bounded'"),
    (edit("modes", "unit", value="per-demand"),
     "invalid report JSON: modes: unit: must be 'per-hour', got 'per-demand'"),
    (edit(*_FIT, "converged", value=False), _AT_FIT + "converged: must be True, got False"),
    (edit("growth", "model", value="musa-okumoto"), _AT_FIT + "model: must be 'musa-okumoto', got 'goel-okumoto'"),
    (edit("evidence", "confidence", value=0.01),
     "invalid report JSON: evidence: gate: must be 'defer-to-BAHAMAS', got 'proceed'"),
    (edit(*_STABILITY, "stable", value=lambda stable: not stable), _AT_STABILITY + "stable: must be True, got False"),
    (edit(*_STABILITY, "max_relative_step", value=0.0), _AT_STABILITY + "max_relative_step: must be 0.0637"),
    (edit("growth", "all_stable", value=lambda stable: not stable),
     "invalid report JSON: growth: all_stable: must be True, got False"),
    (edit(*_STABILITY, "series", 0, value=lambda pair: [*pair, 1.0]), _AT_STABILITY + "series[0]: must be [100.0, "),
    (edit(*_STABILITY, "series", value=lambda series: series[:1]),
     "invalid report JSON: growth: per_class: checking: stability needs at least 2 windows, got 1"),
    (edit(*_STABILITY, "threshold", value=0.5), _AT_THRESHOLD + "must be 0.1, got 0.5"),
    (edit("provenance", "options", "stability_threshold", value=0.5), _AT_THRESHOLD + "must be 0.5, got 0.1"),
    (edit("provenance", "options", "stability_threshold", value="0.1"),
     "invalid report JSON: provenance: options: stability_threshold: expected a number, got '0.1'"),
    (edit("provenance", "options", "stability_threshold"),
     "invalid report JSON: provenance: options: missing key(s): stability_threshold"),
    (edit("provenance", "options", value=5),
     "invalid report JSON: provenance: options: expected a JSON object, got int"),
    (edit("provenance", "options"), "invalid report JSON: provenance: missing key(s): options"),
    (edit("annotations", value=lambda notes: [*notes, _UNSTABLE]), _NOTE + "must be False, got True"),
    (unstable_at_threshold_zero, _NOTE + "must be True, got False"),
    (recount(lambda modes: modes["per_cell"].pop("checking")),
     "invalid report JSON: modes: per_cell: missing key(s): checking"),
    (recount(lambda modes: modes["per_cell"].update(timing=dict.fromkeys("ABCD", 0.0))),
     "invalid report JSON: modes: per_cell: unexpected key(s): timing"),
    (edit(*_FIT, "params", "a", value=lambda a: 10 * a), _AT_FIT + f"params: a: must be {_A}, got 1811.65"),
    (edit(*_FIT, "predicted_total", value=lambda total: 2 * total), _AT_FIT + "predicted_total: must be "),
    (edit("provenance", "options", "rate_method", value="bounded"),
     "invalid report JSON: provenance: options: rate_method: must be 'srgm', got 'bounded'"),
    (edit("provenance", "options", "confidence_threshold", value=0.5),
     "invalid report JSON: provenance: options: confidence_threshold: must be 0.9, got 0.5"),
    (edit("provenance", "options", "system_kind", value="continuous-monitoring"),
     "invalid report JSON: modes: excluded: must be ['B'], got []"),
    (last_total_times_1_01, _AT_STABILITY + f"series[2][1]: must be {_A}, got 182.97"),
    (edit(*_CHECKING, "events", value=lambda events: events[:len(events) // 2]),
     _AT_FIT + "params: a: must be 90.0000000"),
    (edit(*_CHECKING, "events", 0, value=lambda effort: 1.01 * effort), _AT_FIT + "params: a: must be 181.1655252"),
    (edit(*_CHECKING, "events", 0, value=0.0),
     "invalid report JSON: growth: per_class: checking: detection efforts must be positive and finite, got 0.0"),
    (edit(*_STABILITY, "series", value=lambda series: series[:-1]),
     _AT_STABILITY + "series[0][0]: must be 150.0, got 100.0"),
    (recount(scale_checking_cells(100.0)), _AT_CELLS + "[36, 24.4, 25.6, 14] (sum 100), not probabilities"),
    (recount(scale_checking_cells(2.0)),
     _AT_CELLS + "[0.72, 0.488, 0.512, 0.28] (sum 2), not probabilities in [0, 1] that sum to 1.0 +/- 0.0005"),
    (recount(scale_checking_cells(0.999)), _AT_CELLS + "[0.35964, 0.243756, 0.255744, 0.13986] (sum 0.999)"),
    (edit("modes", "per_cell", "checking", value=lambda cells: {**cells, "A": 1e308, "C": 1e308}),
     "invalid report JSON: modes: intermediate overflow in fsum"),
    (edit("rates", "per_class", "timing", value=0),
     "invalid report JSON: rates: per_class: timing: must be 0.0, got 0"),
    (edit(*_STABILITY, "series", 0, 0, value=100), _AT_STABILITY + "series[0][0]: must be 100.0, got 100"),
    (edit("provenance", "options", "matrix_source", value=""),
     "invalid report JSON: provenance: options: matrix_source: must be a nonempty string"),
    (edit("provenance", "options", "matrix_source", value="corpus:"),
     "invalid report JSON: provenance: options: matrix_source: expected a corpus file after 'corpus:', got 'corpus:'"),
], ids=["0xff", "0xff-at-byte-10", "evidence-null", "annotations-5", "rates-per_class-array",
        "nested-100000-deep", "5000-digit-integer", "unpaired-surrogate-annotation", "missing-file",
        "gaps-array", "gaps-numbers", "provenance-5", "growth-per_class-array", "growth-horizon-string",
        "growth-horizon-zero", "fit-params-empty", "fit-model-unknown", "events-string", "growth-5", "stability-null",
        "per_mode-without-A", "unknown-top-level-key", "annotations-numbers", "per_class_total-123",
        "per_class_total-without-checking", "total-5", "excluded-mode-with-cells", "rate-not-intensity",
        "rate-without-fit", "intensity-not-rate", "srgm-without-growth", "bounded-with-growth",
        "modes-unit-not-rates-unit", "fit-not-converged", "fit-model-not-growth-model", "gate-not-confidence",
        "stable-negated", "max-step-zero", "all_stable-flipped", "series-item-of-three", "series-of-one-pair",
        "threshold-not-provenance", "provenance-threshold-changed", "provenance-threshold-string",
        "provenance-threshold-missing", "provenance-options-5", "provenance-options-missing",
        "unstable-note-while-stable", "unstable-without-note", "positive-rate-row-deleted",
        "zero-rate-row-added", "params-a-times-10", "predicted_total-doubled", "options-rate_method-bounded",
        "options-confidence_threshold-changed", "options-system_kind-monitoring", "last-total-times-1.01",
        "events-first-half", "event-times-1.01", "event-zero", "series-pair-dropped", "cells-times-100",
        "cells-times-2", "cells-times-0.999", "cells-A-and-C-1e308", "zero-rate-int", "series-end-int",
        "matrix_source-empty", "matrix_source-corpus-without-file"])
def test_report_rejects_a_malformed_report_in_one_line(tmp_path, mutate, prefix):
    # Mutated copies of a real `assess -o` output of a Goel-Okumoto bundle;
    # None deletes the file.
    saved = tmp_path / "assessment.json"
    assert cli.main(["assess", str(srgm_bundle(tmp_path)), "-o", str(saved)]) == 0
    mutated = mutate(saved.read_bytes())
    if mutated is None:
        saved.unlink()
    else:
        saved.write_bytes(mutated)
    for format in ("json", "text", "svg"):
        result = run_cli("report", saved, "--format", format)
        assert_one_error_line(result, prefix)


def test_causality_build(tmp_path):
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps([
        {"id": "c1", "description": "x", "class": "checking", "observed_modes": ["A"]},
        {"id": "c2", "description": "x", "class": "checking", "observed_modes": ["A", "C"]},
        {"id": "c3", "description": "x", "class": "timing", "observed_modes": ["D"]},
    ]), encoding="utf-8")
    out = tmp_path / "matrix.json"
    result = run_cli("causality", "build", corpus, "-o", out)
    assert result.returncode == 0
    matrix = json.loads(out.read_text(encoding="utf-8"))
    assert matrix["rows"]["checking"] == [2 / 3, 0.0, 1 / 3, 0.0]
    assert matrix["counts"]["checking"] == [2, 0, 1, 0]
    assert matrix["provenance"] == "corpus:corpus.json"


def test_assess_with_corpus_matrix(tmp_path):
    corpus = [
        {"id": "c1", "description": "x", "class": "checking", "observed_modes": ["A"]},
        {"id": "c2", "description": "x", "class": "algorithm", "observed_modes": ["C"]},
    ]
    directory = write_bundle(
        tmp_path / "b",
        defects=[{"id": "D-1", "description": "x", "class": "checking", "detection_effort": 1.0}],
        **{"corpus.json": corpus},
    )
    result = run_cli("assess", directory, "--matrix", "corpus:corpus.json",
                     "--confidence-threshold", "0.5")
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report["provenance"]["matrix"] == "corpus:corpus.json"
    assert report["modes"]["per_cell"]["checking"]["A"] == pytest.approx(0.01)


def test_srgm_fit_command(tmp_path):
    rng = random.Random(3)
    events = sorted(
        t for _ in range(4) for t in nhpp_exponential_events(50.0, 0.02, 300.0, rng))
    history = tmp_path / "history.json"
    history.write_text(json.dumps({"events": events, "horizon": 300.0}), encoding="utf-8")
    result = run_cli("srgm", "fit", history, "--model", "go",
                     "--stability-windows", "4", "--curve-samples", "10")
    assert result.returncode == 0
    out = json.loads(result.stdout)
    assert out["fit"]["converged"] is True
    assert out["fit"]["params"]["a"] == pytest.approx(200.0, rel=0.2)
    assert len(out["stability"]["series"]) == 4
    assert len(out["curve"]) == 11
    assert out["curve"][0] == [0.0, 0.0]


def test_srgm_fit_musa_okumoto(tmp_path):
    rng = random.Random(3)
    events = sorted(
        t for _ in range(4) for t in nhpp_exponential_events(50.0, 0.02, 300.0, rng))
    history = tmp_path / "history.json"
    history.write_text(json.dumps({"events": events, "horizon": 300.0}), encoding="utf-8")
    result = run_cli("srgm", "fit", history, "--model", "mo")
    assert result.returncode == 0
    out = json.loads(result.stdout)
    assert out["fit"]["model"] == "musa-okumoto"
    assert math.isinf(out["fit"]["predicted_total"])


def test_a_defect_class_without_a_causality_row_is_one_bundle_fault(tmp_path, capsys):
    directory = shutil.copytree(vcu_dir(), tmp_path / "vcu")
    defects = json.loads((directory / "defects.json").read_text(encoding="utf-8"))
    defects[0]["class"] = "relationship"
    (directory / "defects.json").write_text(json.dumps(defects), encoding="utf-8")
    line = ("orcas: error: defects.json: class 'relationship': no causality row in the built-in matrix; "
            "give a matrix with a row for it, or set uniform_missing_rows to substitute a uniform row\n")
    for command in ("validate", "assess"):
        assert cli.main([command, str(directory)]) == 1
        assert capsys.readouterr() == ("", line)


# A history fault names the file and its key, also one only the fit finds; an option fault names neither.
_FRONT_LOADED = {"events": [1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 40.0], "horizon": 100.0}


@pytest.mark.parametrize("history, options, line", [
    ({"events": [2.0, 1.0]}, [], "history.json: events: detection efforts must be nondecreasing"),
    ({"events": [2.0]}, [],
     "history.json: events: insufficient failure data: at least 2 detection events are required"),
    ({"events": [0.0, 1.0]}, [], "history.json: events: detection efforts must be positive and finite, got 0.0"),
    ({"events": [1.0, 2.0], "horizon": 1.5}, [],
     "history.json: horizon: observation horizon 1.5 is before the last event 2.0"),
    ({"events": [50.0, 60.0, 90.0]}, ["--stability-windows", "4"],
     "history.json: events: stability window ending at effort 22.5 contains 0 event(s); need at least 2 "
     "(reduce the window count or use bounded estimation)"),
    ({"events": [1e300, 1.5e300, 1.7e300], "horizon": 1e301}, [],
     "history.json: events: growth-model score is not a number at 1e-313: the detection efforts are beyond "
     "floating-point range"),
    (_FRONT_LOADED, ["--stability-windows", "1"], "stability needs at least 2 windows, got 1"),
    (_FRONT_LOADED, ["--stability-windows", "2", "--stability-threshold", "-0.5"],
     "stability threshold must be finite and >= 0, got -0.5"),
    ({"events": [50.0, 60.0, 90.0]}, ["--stability-windows", "4", "--stability-threshold", "-0.5"],
     "stability threshold must be finite and >= 0, got -0.5"),
], ids=["decreasing", "one-event", "zero-effort", "horizon", "empty-window", "beyond-float-range", "one-window",
        "negative-threshold", "negative-threshold-before-empty-window"])
def test_srgm_fit_fault_lines(tmp_path, capsys, history, options, line):
    path = tmp_path / "history.json"
    path.write_text(json.dumps(history), encoding="utf-8")
    assert cli.main(["srgm", "fit", str(path), *options]) == 1
    assert capsys.readouterr() == ("", f"orcas: error: {line}\n")


@pytest.mark.parametrize("threshold", ["nan", "inf"])
def test_srgm_fit_rejects_a_non_finite_stability_threshold(tmp_path, threshold):
    # Accepted, either would be written as NaN or Infinity: not JSON.
    rng = random.Random(3)
    events = sorted(nhpp_exponential_events(50.0, 0.02, 300.0, rng))
    history = tmp_path / "history.json"
    history.write_text(json.dumps({"events": events, "horizon": 300.0}), encoding="utf-8")
    result = run_cli("srgm", "fit", history, "--stability-windows", "2",
                     "--stability-threshold", threshold)
    assert_one_error_line(result, f"stability threshold must be finite and >= 0, got {threshold}")


def test_validate_rejects_zero_confidence_weights_at_load(tmp_path):
    config = {"structural_coverage": 1.0, "system_kind": "control", "rtm_weight": 0, "tca_weight": 0.0}
    result = run_cli("validate", write_bundle(tmp_path / "b", config=config))
    assert result.returncode == 1
    assert result.stderr.decode() == (
        "orcas: error: config.json: top level: rtm_weight and tca_weight must not both be zero\n")


def test_exclude_modes_flag():
    result = run_cli("assess", vcu_dir(), "--exclude-modes", "B,D",
                     "--confidence-threshold", "0.5")
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report["modes"]["excluded"] == ["B", "D"]
    assert report["modes"]["per_mode"]["D"] == 0.0


def test_invalid_mode_flag_errors():
    result = run_cli("assess", vcu_dir(), "--exclude-modes", "Q")
    assert result.returncode == 1
    assert b"invalid failure mode" in result.stderr


def test_uniform_missing_rows_flag(tmp_path):
    directory = write_bundle(
        tmp_path / "b",
        defects=[{"id": "D-1", "description": "x", "class": "relationship",
                  "detection_effort": 1.0}],
    )
    without = run_cli("assess", directory)
    assert without.returncode == 1
    assert b"orcas: error: defects.json: class 'relationship': no causality row in the built-in matrix; " in (
        without.stderr)
    validated = run_cli("validate", directory)
    assert validated.returncode == 1
    assert validated.stderr == without.stderr
    with_flag = run_cli("assess", directory, "--uniform-missing-rows",
                        "--confidence-threshold", "0.5")
    assert with_flag.returncode == 0
    report = json.loads(with_flag.stdout)
    assert any("uniform" in note for note in report["annotations"])
    config = {"structural_coverage": 1.0, "system_kind": "control", "uniform_missing_rows": True}
    write_bundle(directory, defects=[{"id": "D-1", "description": "x", "class": "relationship",
                                      "detection_effort": 1.0}], config=config)
    validated = run_cli("validate", directory)
    assert validated.returncode == 0
    assert "  note: WARNING: no causality data for class(es) relationship;" in validated.stdout.decode()


def test_missing_bundle_dir_exits_1(tmp_path):
    result = run_cli("assess", tmp_path / "nope")
    assert result.returncode == 1
    assert b"bundle directory not found" in result.stderr


def test_usage_error_exits_1_not_2():
    result = run_cli("assess", "--bogus-flag")
    assert result.returncode == 1
    result = run_cli()
    assert result.returncode == 1


def test_version_flag():
    result = run_cli("--version")
    assert result.returncode == 0
    assert result.stdout.decode().startswith("orcas ")


def test_convert_defects_csv(tmp_path):
    csv_path = tmp_path / "log.csv"
    csv_path.write_text(
        "id,description,class,detection_effort\n"
        "D-1,buffer bug,algorithm,10.0\n"
        "D-2,missing check,checking,20.0\n",
        encoding="utf-8",
    )
    out = tmp_path / "defects.json"
    result = run_cli("convert", "defects", csv_path, "-o", out)
    assert result.returncode == 0
    records = json.loads(out.read_text(encoding="utf-8"))
    assert [r["id"] for r in records] == ["D-1", "D-2"]
    assert records[0]["class"] == "algorithm"
    # converted output is a valid defects.json for a bundle
    directory = write_bundle(tmp_path / "b", defects=records)
    assert run_cli("validate", directory).returncode == 0


def test_srgm_fit_curve_is_the_fitted_mean(tmp_path):
    rng = random.Random(3)
    events = sorted(
        t for _ in range(4) for t in nhpp_exponential_events(50.0, 0.02, 300.0, rng))
    history = tmp_path / "history.json"
    history.write_text(json.dumps({"events": events, "horizon": 300.0}), encoding="utf-8")
    for model in ("go", "mo"):
        result = run_cli("srgm", "fit", history, "--model", model,
                         "--stability-windows", "4", "--curve-samples", "4")
        assert result.returncode == 0
        out = json.loads(result.stdout)
        fit = fit_srgm(events, SrgmModel(out["fit"]["model"]), horizon=300.0)
        assert out["curve"] == [[300.0 * i / 4, fit_mean(fit, 300.0 * i / 4)] for i in range(5)]
        # The fit is the last stability window, which spans the whole horizon.
        assert out["stability"]["series"][-1][0] == 300.0
        assert out["fit"] == fit


def assert_one_error_line(result, prefix):
    stderr = result.stderr.decode()
    assert result.returncode == 1
    assert "Traceback" not in stderr
    lines = stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"orcas: error: {prefix}")


def test_convert_defects_reads_past_a_utf8_bom(tmp_path, capsysbinary):
    # Spreadsheets write "CSV UTF-8" with a BOM, which is not part of the first column's name.
    text = "id,description,class\nD-1,x,algorithm\n"
    (tmp_path / "plain.csv").write_text(text, encoding="utf-8")
    (tmp_path / "bom.csv").write_text("\ufeff" + text, encoding="utf-8")
    plain = stdout_and_file(capsysbinary, tmp_path, "convert", "defects", tmp_path / "plain.csv")
    assert plain[0] == 0
    assert stdout_and_file(capsysbinary, tmp_path, "convert", "defects", tmp_path / "bom.csv") == plain


def test_convert_defects_rejects_non_utf8_csv_in_one_line(tmp_path):
    csv_path = tmp_path / "log.csv"
    raw = b"id,description,class\nD-1,caf\xe9,checking\n"
    csv_path.write_bytes(raw)
    result = run_cli("convert", "defects", csv_path)
    assert_one_error_line(result, f"log.csv: byte {raw.index(0xE9)}: not valid UTF-8")


def test_validate_rejects_empty_defect_id(tmp_path):
    defects = [{"id": "", "description": "x", "class": "checking", "detection_effort": 1.0}]
    result = run_cli("validate", write_bundle(tmp_path / "b", defects=defects))
    assert_one_error_line(result, "defects.json: record 0: id: ")


def test_validate_rejects_non_utf8_rtm(tmp_path):
    directory = write_bundle(tmp_path / "b")
    raw = (directory / "rtm.json").read_bytes()
    (directory / "rtm.json").write_bytes(raw.replace(b"thing", b"th\xffing", 1))
    result = run_cli("validate", directory)
    assert_one_error_line(result, "rtm.json: byte ")


def test_validate_rejects_test_count_beyond_float_range(tmp_path):
    directory = write_bundle(tmp_path / "b")
    (directory / "effort.json").write_text(
        '{"kind": "continuous", "test_count": 1' + "0" * 400 + ', "test_duration": 1.0}',
        encoding="utf-8")
    result = run_cli("validate", directory)
    assert_one_error_line(result, "effort.json: test_count: ")


def test_validate_rejects_srgm_bundle_without_detection_efforts(tmp_path):
    defects = [{"id": f"D-{i}", "description": "x", "class": "checking"} for i in range(3)]
    config = {"structural_coverage": 1.0, "system_kind": "control", "rate_method": "srgm"}
    result = run_cli("validate", write_bundle(tmp_path / "b", defects=defects, config=config))
    assert_one_error_line(result, "defects.json: record 'D-0': detection_effort must be positive for rate_method "
                                  "'srgm' (the growth model fits detection efforts), got 0.0; ")


@pytest.mark.parametrize("model", ["goel-okumoto", "musa-okumoto"])
def test_validate_and_assess_reject_a_class_without_growth(tmp_path, model):
    # Evenly spaced detections over the 100-hour campaign: the mean effort
    # (55) is not below half the horizon, so no growth model fits.
    defects = [{"id": f"D-{i}", "description": "x", "class": "checking",
                "detection_effort": 10.0 * i} for i in range(1, 11)]
    config = {"structural_coverage": 1.0, "system_kind": "control",
              "rate_method": "srgm", "srgm_model": model}
    directory = write_bundle(tmp_path / "b", defects=defects, config=config)
    results = [run_cli(command, directory) for command in ("validate", "assess")]
    for result in results:
        assert_one_error_line(
            result,
            "defects.json: class 'checking': no reliability growth in the event history: "
            "mean detection effort 55 is not below half the horizon 50")
    assert results[0].stderr == results[1].stderr


_BEYOND_FLOAT = "1" + "0" * 400


@pytest.mark.parametrize("file, text, prefix", [
    ("defects.json",
     '[{"id": "D-1", "description": "x", "class": "checking", "detection_effort": %s}]'
     % _BEYOND_FLOAT,
     "defects.json: record 'D-1': detection_effort: "),
    ("config.json", '{"structural_coverage": %s, "system_kind": "control"}' % _BEYOND_FLOAT,
     "config.json: structural_coverage: "),
    ("effort.json", '{"kind": "on-demand", "test_count": 1%s}' % ("0" * 5000),
     "effort.json: top level: "),
    ("rtm.json", "[" * 100_000 + "]" * 100_000, "rtm.json: top level: "),
    ("rtm.json", '[{"req_id": "R-1", "description": "\\ud800", "status": "complete"}]',
     "rtm.json: top level: "),
    ("defects.json", '[{"id": "D-1", "description": "x", "class": "%s"}]' % ("x" * 4000),
     "defects.json: record 'D-1': class: invalid value 'xxx"),
    ("rtm.json", "[]", "rtm.json: top level: no entries; an empty traceability matrix cannot be scored"),
    ("tca.json", json.dumps([{**entry, "activity": "u" * 4000} if i == 0 else entry
                             for i, entry in enumerate(default_tca_entries())]),
     "tca.json: entry 0: activity must be one of unit-test, function-test, system-test; got 'uuu"),
], ids=["number-beyond-float", "coverage-beyond-float", "integer-over-4300-digits",
        "nested-too-deeply", "unpaired-surrogate", "long-string", "empty-rtm", "long-activity"])
def test_validate_rejects_unreadable_values_in_one_short_line(tmp_path, file, text, prefix):
    directory = write_bundle(tmp_path / "b")
    (directory / file).write_text(text, encoding="utf-8")
    result = run_cli("validate", directory)
    assert_one_error_line(result, prefix)
    assert len(result.stderr) < 200


_UUID = "123e4567-e89b-12d3-a456-426614174000"


@pytest.mark.parametrize("file, text, line", [
    ("defects.json", '[{"id": "%s", "description": "x", "class": "bogus"}]' % ("D" * 4000),
     "defects.json: record '%s...: class: invalid value 'bogus' (expected one of: function, "
     "assignment, algorithm, checking, interface, relationship, timing)" % ("D" * 99)),
    ("rtm.json", '[{"req_id": "%s", "description": "x", "status": "done"}]' % ("R" * 4000),
     "rtm.json: entry '%s...: status: invalid value 'done' (expected one of: complete, indirect, "
     "incomplete)" % ("R" * 99)),
    ("defects.json", json.dumps([{"id": _UUID + suffix, "description": "x", "class": "checking"}
                                 for suffix in ("-a", "-b", "-a")]),
     "defects.json: record '%s-a': duplicate id" % _UUID),
], ids=["long-id", "long-req-id", "uuid-id-in-full"])
def test_error_locations_cut_only_long_ids(tmp_path, file, text, line):
    directory = write_bundle(tmp_path / "b")
    (directory / file).write_text(text, encoding="utf-8")
    result = run_cli("validate", directory)
    assert result.returncode == 1
    assert result.stderr.decode() == f"orcas: error: {line}\n"
    assert len(result.stderr) < 300


def test_history_and_matrix_numbers_beyond_float_range(tmp_path):
    history = tmp_path / "history.json"
    history.write_text('{"events": [1.0, %s]}' % _BEYOND_FLOAT, encoding="utf-8")
    assert_one_error_line(run_cli("srgm", "fit", history), "history.json: events[1]: ")
    matrix = tmp_path / "m.json"
    matrix.write_text('{"provenance": "p", "rows": {"checking": [%s, 0, 0, 0]}}' % _BEYOND_FLOAT,
                      encoding="utf-8")
    assert_one_error_line(run_cli("assess", vcu_dir(), "--matrix", matrix), "m.json: rows: checking: ")


def test_validate_and_assess_agree_on_srgm_case_study(tmp_path):
    # The case study's algorithm defects both fall past the first quarter
    # of the effort, so the first stability window of that class is empty.
    directory = tmp_path / "vcu"
    shutil.copytree(vcu_dir(), directory)
    config = json.loads((directory / "config.json").read_text(encoding="utf-8"))
    config["rate_method"] = "srgm"
    (directory / "config.json").write_text(json.dumps(config), encoding="utf-8")
    for command in ("validate", "assess"):
        assert_one_error_line(
            run_cli(command, directory),
            "defects.json: class 'algorithm': stability window ending at effort 2671.75 "
            "contains 0 event(s)")


def test_cli_import_loads_no_dataclasses_or_csv():
    code = ("import sys, orcas.cli; "
            "print(sorted({'dataclasses', 'inspect', 'ast', 'tokenize', 'csv'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, check=True)
    assert result.stdout == b"[]\n"


def test_entrypoint_disables_gc_and_main_leaves_it_as_found(capsys):
    code = ("import gc, orcas.cli as cli; "
            "cli.main = lambda: print(gc.isenabled()) or 0; cli.entrypoint()")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, check=True)
    assert result.stdout == b"False\n"
    was_enabled = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            assert cli.main(["validate", str(vcu_dir())]) == 0
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert "bundle OK" in capsys.readouterr().out


def run_buffered(program: str, **kwargs):
    """``python -c program`` with block-buffered output to pipes: nothing printed
    reaches them before a flush."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    return subprocess.run([sys.executable, "-c", program], env=env, **kwargs)


@pytest.mark.parametrize("code", [0, 1, 2])
def test_entrypoint_flushes_what_main_printed_and_keeps_its_exit_code(code):
    program = ("import sys, orcas.cli as cli; "
               f"cli.main = lambda: print('out') or print('err', end='', file=sys.stderr) or {code}; "
               "cli.entrypoint()")
    result = run_buffered(program, capture_output=True)
    assert (result.returncode, result.stdout, result.stderr) == (code, b"out\n", b"err")


def test_entrypoint_reports_a_failed_flush_in_one_line():
    # The reader of stdout is gone before the command prints.
    read, write = os.pipe()
    os.close(read)
    program = "import orcas.cli as cli; cli.main = lambda: print('out') or 0; cli.entrypoint()"
    try:
        result = run_buffered(program, stdout=write, stderr=subprocess.PIPE)
    finally:
        os.close(write)
    assert (result.returncode, result.stderr) == (1, b"orcas: error: [Errno 32] Broken pipe\n")


def test_package_exports_only_the_api_the_readme_documents():
    import orcas
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    namespace: dict = {}
    exec("from orcas import *", namespace)
    for name in orcas.__all__:
        assert name in namespace
        assert re.search(rf"\b{name}\b", readme), name


def stdout_and_file(capsysbinary, tmp_path, *args):
    """The exit code, the stdout bytes and the ``-o`` file bytes of one command run both ways."""
    code = cli.main([*map(str, args)])
    stdout = capsysbinary.readouterr().out
    out = tmp_path / "out"
    assert cli.main([*map(str, args), "-o", str(out)]) == code
    assert capsysbinary.readouterr().out == b""
    return code, stdout, out.read_bytes()


def assess_bundles(workdir, tmp_path):
    """The shipped fixture, the test bundles and every seed-1 benchmark bundle that assess accepts."""
    yield vcu_dir()
    yield srgm_bundle(tmp_path / "go")
    yield srgm_bundle(tmp_path / "mo", "musa-okumoto")
    yield write_bundle(tmp_path / "minimal", defects=[{"id": "D-1", "description": "é", "class": "timing"}])
    yield from (workdir / name for name in ("vcu", "go", "mo-a", "mo-b", "corpus-bundle"))


def test_assess_streams_the_bytes_emit_report_returns(workdir, tmp_path, capsysbinary):
    # The report is written piece by piece, to stdout or to the -o file; the library's bytes are the same.
    for directory in assess_bundles(workdir, tmp_path):
        code, stdout, written = stdout_and_file(capsysbinary, tmp_path, "assess", directory)
        assert code in (0, 2)
        assert stdout == written == emit_report(run_assessment(load_bundle(directory)), "json"), directory


def test_every_json_command_streams_its_canonical_bytes(workdir, tmp_path, capsysbinary):
    # causality build, srgm fit and convert defects write through the report's JSON writer.
    corpus = workdir / "corpus.json"
    matrix = estimate_causality(load_corpus_file(corpus), provenance="corpus:corpus.json").to_dict()
    events, horizon = load_history_file(workdir / "history.json")
    fit = {"events": len(events), "horizon": horizon if horizon is not None else events[-1],
           "fit": fit_srgm(events, SrgmModel.GOEL_OKUMOTO, horizon=horizon)}
    records = [record.to_dict() for record in defects_from_csv(workdir / "log.csv")]
    for args, data in ((("causality", "build", corpus), matrix), (("srgm", "fit", workdir / "history.json"), fit),
                       (("convert", "defects", workdir / "log.csv"), records)):
        assert stdout_and_file(capsysbinary, tmp_path, *args) == (0, canonical_json_bytes(data),
                                                                  canonical_json_bytes(data)), args

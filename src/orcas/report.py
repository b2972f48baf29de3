"""Assessment orchestration and report emission.

:func:`run_assessment` executes the pipeline on a validated bundle:
per-class rate estimation, causality resolution, matrix combination,
evidence scoring, and the confidence gate. A class it cannot assess, a
history the growth model cannot fit or a positive rate with no causality
row, is a fault of the bundle: ``defects.json: class '<cls>': <reason>``,
as the loader names one. The resulting report is a pure function of the
bundle; running it twice yields byte-identical JSON. Reports emit as
canonical JSON (sorted keys, shortest round-trip floats), a plain-text
summary, or SVG growth-curve plots.

A report is one dict, the one _REPORT_FIELDS describes, and every format
renders it. The stages and section builders build its sections:
``combine`` returns ``modes``, ``srgm_class_rates`` ``rates``,
``assessment_confidence`` ``evidence``, ``growth_section`` ``growth`` and
``growth_class`` each class's entry in it. A saved report is read back as
that dict by :func:`report_from_json`: the field kinds of
:mod:`orcas.schema`, which also check the bundle, check each field's
shape against _REPORT_FIELDS, and each part listed by _relations
is derived again by its stage from the report's own primary fields and
must equal the saved part, type for type. Its first fault, or a stage's
float overflow, is raised as ``invalid report JSON: <where>: <reason>``.
"""

from __future__ import annotations

import json
import math
from functools import partial

from ._version import __version__
from .bundle import MATRIX_SOURCE, AssessmentBundle
from .causality import ROW_SUM_TOLERANCE, CausalityMatrix
from .domain import MODE_ORDER, DefectClass, FailureMode, ModeFamily, RateUnit, total_effort
from .errors import OrcasError
from .evidence import (
    CoverageStatus,
    GateDecision,
    assessment_confidence,
    gate_decision,
    score_rtm,
    score_tca,
    slot_name,
    tca_slots,
)
from .growth import (
    MODELS,
    RateMethod,
    SrgmModel,
    bounded_class_rates,
    growth_class,
    growth_section,
    mean_curve,
    srgm_class_rates,
)
from .quantify import SystemKind, combine, mode_applicability
from .schema import (REQUIRED, Array, Enum, EnumSet, Flag, Float, Integer, Map, Number, Object, Rule, String, decode,
                     fail, parse_json, quote)

SCHEMA_VERSION = 1


# The field kinds of a saved report's table.
_RATE = Number(lo=0.0)
_PRIMARY_RATE = Float(lo=0.0)
_POSITIVE = Number(positive=True)
_TEXT = "expected an array of strings"
_TEXTS = Array(Rule(lambda text: isinstance(text, str), _TEXT), _TEXT)

# A report, as run_assessment returns it and report_from_json reads it back:
# the shape of each field. How the fields derive from one another is _relations'.
_REPORT_FIELDS = (
    ("schema_version", REQUIRED, Integer()),
    ("mode_family", REQUIRED, Enum(ModeFamily)),
    ("modes", REQUIRED, Object((
        ("unit", REQUIRED, Enum(RateUnit)),
        ("excluded", REQUIRED, EnumSet(FailureMode, "expected an array of failure modes")),
        ("per_cell", REQUIRED, Map(DefectClass, Map(FailureMode, _RATE, complete=True))),
        ("per_mode", REQUIRED, Map(FailureMode, _RATE, complete=True)),
        ("per_class_total", REQUIRED, Map(DefectClass, _RATE)),
        ("total", REQUIRED, _RATE),
    ))),
    ("rates", REQUIRED, Object((
        ("method", REQUIRED, Enum(RateMethod)),
        ("unit", REQUIRED, Enum(RateUnit)),
        ("per_class", REQUIRED, Map(DefectClass, _PRIMARY_RATE, complete=True)),
    ))),
    ("evidence", REQUIRED, Object((
        *((key, REQUIRED, Float(0.0, 1.0))
          for key in ("rtm_score", "tca_score", "structural_coverage", "confidence", "confidence_threshold")),
        ("gate", REQUIRED, Enum(GateDecision)),
    ))),
    ("gaps", REQUIRED, Object((("untraced_requirements", REQUIRED, _TEXTS),
                               ("uncovered_triggers", REQUIRED, _TEXTS)))),
    ("growth", REQUIRED, Object((
        ("model", REQUIRED, Enum(SrgmModel)),
        ("horizon", REQUIRED, Float(positive=True)),
        ("per_class", REQUIRED, Map(DefectClass, Object((
            ("fit", REQUIRED, Object((
                ("model", REQUIRED, Enum(SrgmModel)),
                ("params", REQUIRED, Object(tuple((name, None, _POSITIVE)
                                                  for profile in MODELS.values() for name in profile.names))),
                # The logarithmic model's mean is unbounded: it predicts no finite total.
                ("predicted_total", REQUIRED, Rule(lambda total: type(total) in (int, float) and total > 0,
                                                   "expected a positive number or Infinity")),
                ("current_intensity", REQUIRED, _RATE),
                ("log_likelihood", REQUIRED, Number()),
                ("converged", REQUIRED, Flag()),
                ("diagnostic", REQUIRED, String(null=True)),
            ))),
            ("events", REQUIRED, Array(_PRIMARY_RATE, "expected a nonempty array of detection efforts",
                                       indexed=True, nonempty=True)),
            ("stability", REQUIRED, Object((
                ("series", REQUIRED, Array(Array(Number(), "expected an array of numbers"),
                                           "expected an array of [effort, predicted total] pairs", indexed=True)),
                ("max_relative_step", REQUIRED, _RATE),
                ("stable", REQUIRED, Flag()),
                ("threshold", REQUIRED, _RATE),
            ))),
        )))),
        ("all_stable", REQUIRED, Flag()),
    ), null=True)),
    ("annotations", REQUIRED, _TEXTS),
    # No renderer reads the provenance: it is re-emitted as saved. _relations
    # ties its options to the sections they shaped.
    ("provenance", REQUIRED, Object((
        ("tool", REQUIRED, Object((("name", REQUIRED, String()), ("version", REQUIRED, String())))),
        ("inputs", REQUIRED, Rule(lambda inputs: isinstance(inputs, dict) and all(
            isinstance(digest, str) for digest in inputs.values()), "expected an object of file digests")),
        ("matrix", REQUIRED, String()),
        ("options", REQUIRED, Object((
            *(("matrix_source", REQUIRED, kind) for kind in MATRIX_SOURCE),
            ("system_kind", REQUIRED, Enum(SystemKind)),
            ("rate_method", REQUIRED, Enum(RateMethod)),
            ("confidence_threshold", REQUIRED, Number(0.0, 1.0)),
            ("stability_threshold", REQUIRED, _PRIMARY_RATE),
            ("uniform_missing_rows", REQUIRED, Flag()),
        ))),
    ))),
)


# The annotation of a growth report whose refits are not all stable.
_UNSTABLE_NOTE = "WARNING: growth-model refits exceed the stability threshold; predictions may be unreliable"


def _saved_modes(modes: dict, rates: dict) -> dict:
    """The ``modes`` section as quantify.combine builds it, from the saved
    cells as matrix rows at a rate of 1.0 for each class of positive rate: a
    row for exactly those classes, excluded cells 0.0, the margins, and the
    rates' unit. A class without saved cells gets a row of zeros, which the
    comparison names as missing."""
    cells = modes["per_cell"]
    ones = {name: 1.0 if rate > 0.0 else 0.0 for name, rate in rates["per_class"].items()}
    rows = {name: tuple(cells[name][mode] for mode in MODE_ORDER) if name in cells else (0.0,) * 4
            for name, one in ones.items() if one}
    return combine(CausalityMatrix(rows, "saved cells"), {"unit": rates["unit"], "per_class": ones}, modes["excluded"])


def _implied_row(cells: dict, rate: float, excluded: list) -> dict:
    """A class's saved ``cells``, once they imply a matrix row (each over the
    positive ``rate``) of probabilities summing to 1 +/- ROW_SUM_TOLERANCE, or
    to at most 1 + it with a mode ``excluded``. Checked on the cells: p*rate <=
    rate where p <= 1, and 4 ulps of the rate cover the rounding of the sum."""
    total, slack = math.fsum(cells.values()), ROW_SUM_TOLERANCE * rate + 4 * math.ulp(rate)
    if max(cells.values()) > rate or total - rate > slack or (not excluded and rate - total > slack):
        row = ", ".join(f"{cell / rate:.6g}" for cell in cells.values())
        raise OrcasError(f"implies the matrix row [{row}] (sum {total / rate:.6g}), not probabilities in [0, 1] "
                         f"that sum to {'at most 1.0 + ' if excluded else '1.0 +/- '}{ROW_SUM_TOLERANCE}")
    return cells


def _relations(report: dict):
    """Each derived part of a report whose fields have the shapes of
    _REPORT_FIELDS: its path, its saved value, and the call of the stage or
    section builder that derives it from the report's own primary fields,
    in the order the pipeline derives them."""
    growth, rates, evidence, modes = report["growth"], report["rates"], report["evidence"], report["modes"]
    options = report["provenance"]["options"]
    if growth is None:
        # Bounded rates derive from the bundle's counts, which the report does not hold.
        yield "rates: method", rates["method"], lambda: RateMethod.BOUNDED
    else:
        model, horizon = growth["model"], growth["horizon"]
        for cls, entry in growth["per_class"].items():
            yield (f"growth: per_class: {cls}", entry, partial(
                growth_class, entry["events"], model, horizon, len(entry["stability"]["series"]),
                options["stability_threshold"]))
        yield "growth", growth, partial(growth_section, model, horizon, growth["per_class"])
        fits = {cls: entry["fit"] for cls, entry in growth["per_class"].items()}
        yield "rates", rates, partial(srgm_class_rates, fits, rates["unit"])
    yield "modes", modes, partial(_saved_modes, modes, rates)
    for cls, cells in modes["per_cell"].items():
        yield f"modes: per_cell: {cls}", cells, partial(_implied_row, cells, rates["per_class"][cls], modes["excluded"])
    yield "provenance: options: rate_method", options["rate_method"], lambda: rates["method"]
    yield ("provenance: options: confidence_threshold", options["confidence_threshold"],
           lambda: evidence["confidence_threshold"])
    if options["system_kind"] != SystemKind.CUSTOM:
        yield "modes: excluded", modes["excluded"], lambda: sorted(mode_applicability(options["system_kind"]))
    yield ("evidence: gate", evidence["gate"],
           partial(gate_decision, evidence["confidence"], evidence["confidence_threshold"]))
    yield ("annotations: holds the unstable-refits warning", _UNSTABLE_NOTE in report["annotations"],
           lambda: growth is not None and not growth["all_stable"])


def _difference(where: str, derived, saved) -> tuple[str, str] | None:
    """None if ``saved`` equals ``derived`` value for value, each of the same
    JSON type (a Name counts as a str), so that it re-emits as the stage
    writes it; otherwise the first path at or below ``where`` at which they
    differ, and how."""
    if derived is saved:
        return None
    if isinstance(derived, dict) and isinstance(saved, dict):
        for problem, keys in (("missing", derived.keys() - saved.keys()),
                              ("unexpected", saved.keys() - derived.keys())):
            if keys:
                return where, f"{problem} key(s): {', '.join(sorted(keys))}"
        return next(filter(None, (_difference(f"{where}: {key}", derived[key], saved[key]) for key in derived)), None)
    if isinstance(derived, list) and isinstance(saved, list) and len(derived) == len(saved):
        return next(filter(None, map(_difference, (f"{where}[{i}]" for i in range(len(saved))), derived, saved)), None)
    if derived == saved and (str if isinstance(derived, str) else type(derived)) is type(saved):
        return None
    return where, f"must be {quote(derived)}, got {quote(saved)}"


def canonical_json_bytes(data) -> bytes:
    """Canonical JSON: the UTF-8 bytes of ``json.dumps(data, sort_keys=True,
    indent=2, ensure_ascii=False)`` plus a newline, as :func:`write_json`
    writes them."""
    pieces: list[str] = []
    try:
        _write_json(data, "\n", pieces.append)
    except (TypeError, RecursionError):
        # An object or key JSON has no encoding for, keys that do not sort,
        # or a container that holds itself: json.dumps raises its own error.
        return (json.dumps(data, sort_keys=True, indent=2, ensure_ascii=False) + "\n").encode("utf-8")
    pieces.append("\n")
    return "".join(pieces).encode("utf-8")


# The floats of a list written at once, which bound the largest piece.
_FLOAT_SLICE = 1024


def write_json(data, write) -> None:
    """Pass the canonical JSON of ``data`` (:func:`canonical_json_bytes`) to
    ``write``, a function of bytes, piece by piece, each as soon as it is
    encoded as UTF-8, so that the whole text is never held: the sinks, a
    file's buffer or a list, gather the pieces.

    ``json.dumps`` writes an indented document one item at a time in
    Python; here a list of finite floats, such as a growth fit's events, is
    written a slice at a time with one join each, and the standard library
    writes every other leaf. A value JSON cannot encode raises TypeError or
    RecursionError, after the pieces before it are written.
    """
    _write_json(data, "\n", lambda piece: write(piece.encode("utf-8")))
    write(b"\n")


# json.dumps's string encoder under ensure_ascii=False.
_encode_str = json.encoder.encode_basestring


def _write_json(value, newline: str, put) -> None:
    """Pass the canonical JSON of ``value`` to ``put``, a function of str,
    piece by piece. ``newline`` is a line break and the indent of the line
    the value starts on."""
    if isinstance(value, str):
        put(_encode_str(value))
    elif isinstance(value, (list, tuple)) and value:
        inner = newline + "  "
        if set(map(type, value)) == {float} and all(map(math.isfinite, value)):
            separator, head = "," + inner, "[" + inner
            for start in range(0, len(value), _FLOAT_SLICE):
                put(head + separator.join(map(float.__repr__, value[start:start + _FLOAT_SLICE])))
                head = separator
            put(newline + "]")
            return
        separator = "[" + inner
        for item in value:
            put(separator)
            _write_json(item, inner, put)
            separator = "," + inner
        put(newline + "]")
    elif isinstance(value, dict) and value:
        inner = newline + "  "
        separator = "{" + inner
        for key, item in sorted(value.items()):
            if not (isinstance(key, (str, int, float)) or key is None):
                raise TypeError(key)  # a key json.dumps refuses
            put(separator + _encode_str(key if isinstance(key, str) else json.dumps(key)) + ": ")
            _write_json(item, inner, put)
            separator = "," + inner
        put(newline + "}")
    else:  # a scalar or an empty container
        put(json.dumps(value))


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------


def _estimate_rates(bundle: AssessmentBundle) -> tuple[dict, dict | None]:
    horizon = total_effort(bundle.effort)
    if bundle.rate_method == RateMethod.BOUNDED:
        return bounded_class_rates(bundle.defects, bundle.effort), None

    per_class_events: dict[DefectClass, list[float]] = {}
    for cls, effort in zip(bundle.defects.columns["defect_class"], bundle.defects.columns["detection_effort"]):
        per_class_events.setdefault(cls, []).append(effort)
    growth_per_class = {}
    for cls in sorted(per_class_events):
        try:
            growth_per_class[cls] = growth_class(sorted(per_class_events[cls]), bundle.srgm_model, horizon,
                                                 bundle.stability_windows, bundle.stability_threshold)
        except OrcasError as exc:
            # A class history the growth model cannot fit is a fault of the
            # data: reported as the loader reports one, naming file and class.
            raise fail("defects.json", f"class '{cls}'", str(exc)) from exc
    rates = srgm_class_rates({cls: entry["fit"] for cls, entry in growth_per_class.items()}, bundle.effort.rate_unit)
    return rates, growth_section(bundle.srgm_model, horizon, growth_per_class)


def run_assessment(bundle: AssessmentBundle) -> dict:
    """Run the full pipeline on a validated bundle (deterministic): the
    report dict, as :func:`report_from_json` reads a saved one. Every number
    in it is recomputable from the bundle; nothing is time-stamped or
    environment-dependent."""
    annotations: list[str] = []

    rates, growth = _estimate_rates(bundle)

    matrix = bundle.matrix
    missing = [cls for cls, rate in rates["per_class"].items() if rate > 0.0 and cls not in matrix.rows]
    if missing:
        if not bundle.uniform_missing_rows:
            raise fail("defects.json", f"class '{missing[0]}'",
                       f"no causality row in the {matrix.provenance} matrix; give a matrix with "
                       f"a row for it, or set uniform_missing_rows to substitute a uniform row")
        matrix = matrix._replace(rows={**matrix.rows, **dict.fromkeys(missing, (0.25, 0.25, 0.25, 0.25))})
        names = ", ".join(missing)
        annotations.append(
            f"WARNING: no causality data for class(es) {names}; uniform rows "
            f"(0.25 per mode) substituted on request"
        )

    modes = combine(matrix, rates, bundle.excluded_modes)

    evidence = assessment_confidence(score_rtm(bundle.rtm), score_tca(bundle.tca), bundle.structural_coverage,
                                     threshold=bundle.confidence_threshold, rtm_weight=bundle.rtm_weight,
                                     tca_weight=bundle.tca_weight)

    names = ", ".join(name for name, rate in rates["per_class"].items() if rate == 0.0)
    if names:
        annotations.append(
            f"no defects observed for class(es) {names}: rate bounded at 0 by "
            f"testing effort; see confidence gate"
        )
    if growth is not None:
        annotations.append(
            "growth-model class rates are the fitted intensities at the assessment horizon"
        )
        if not growth["all_stable"]:
            annotations.append(_UNSTABLE_NOTE)
    annotations.append(
        f"confidence is the weighted mean of the RTM and TCA scores "
        f"(weights {bundle.rtm_weight:g}/{bundle.tca_weight:g}); structural "
        f"coverage is reported alongside but not folded in"
    )

    rtm, tca, incomplete = bundle.rtm.columns, bundle.tca.columns, CoverageStatus.INCOMPLETE
    gaps = {
        "untraced_requirements": [req_id for req_id, status in zip(rtm["req_id"], rtm["status"])
                                  if status == incomplete],
        "uncovered_triggers": [slot_name(slot) for slot, status in zip(tca_slots(bundle.tca), tca["status"])
                               if status == incomplete],
    }

    provenance = {
        "tool": {"name": "orcas", "version": __version__},
        "inputs": dict(sorted(bundle.input_digests.items())),
        "matrix": bundle.matrix.provenance,
        "options": {
            "matrix_source": bundle.matrix_source,
            "system_kind": bundle.system_kind,
            "rate_method": bundle.rate_method,
            "confidence_threshold": bundle.confidence_threshold,
            "stability_threshold": bundle.stability_threshold,
            "uniform_missing_rows": bundle.uniform_missing_rows,
        },
    }

    return {
        "schema_version": SCHEMA_VERSION,
        "mode_family": bundle.mode_family,
        "modes": modes,
        "rates": rates,
        "evidence": evidence,
        "gaps": gaps,
        "growth": growth,
        "annotations": annotations,
        "provenance": provenance,
    }


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------


_RENDERERS = {
    "json": canonical_json_bytes,
    "text": lambda report: text_report(report).encode("utf-8"),
    "svg": lambda report: svg_report(report).encode("utf-8"),
}
REPORT_FORMATS = tuple(_RENDERERS)


def emit_report(report: dict, format: str = "json", write=None) -> bytes | None:
    """Serialize a report dict (:func:`run_assessment`, :func:`report_from_json`) in one of REPORT_FORMATS:
    its bytes, or with ``write``, a function of bytes, None once they are passed to it (JSON by
    :func:`write_json`, piece by piece)."""
    if format not in REPORT_FORMATS:
        raise OrcasError(f"unknown report format {format!r} (expected one of: {', '.join(REPORT_FORMATS)})")
    if write is None:
        return _RENDERERS[format](report)
    if format == "json":
        write_json(report, write)
    else:
        write(_RENDERERS[format](report))
    return None


# Names a saved report in its error messages, which carry no file name.
INVALID_REPORT = "invalid report JSON"


def report_from_json(data: bytes | str) -> dict:
    """The dict of a saved canonical JSON report (its bytes, or its text as
    ``schema.read_text`` decodes it), as parsed: an object's schema_version is
    checked first, so that another version is named, then the shape of every
    field by _REPORT_FIELDS, then each derived part against its stage by _relations."""
    parsed = parse_json(data if isinstance(data, str) else decode(data, INVALID_REPORT), INVALID_REPORT)
    if isinstance(parsed, dict) and (version := parsed.get("schema_version")) != SCHEMA_VERSION:
        raise OrcasError(f"unsupported report schema_version {quote(version)} (expected {SCHEMA_VERSION})")
    Object(_REPORT_FIELDS).check(parsed, INVALID_REPORT, "top level")
    for where, saved, derive in _relations(parsed):
        try:
            derived = derive()
        except (OrcasError, ArithmeticError) as exc:
            raise fail(INVALID_REPORT, where, str(exc)) from None
        difference = _difference(where, derived, saved)
        if difference:
            raise fail(INVALID_REPORT, *difference)
    return parsed


def _fmt_rate(value: float) -> str:
    # 4 significant figures, matching the text-table presentation.
    return "0" if value == 0.0 else f"{value:.3E}"


def text_report(report: dict) -> str:
    """Human-readable summary of a report dict, centered on the mode/class
    rate table."""
    prefix = "UCA" if report["mode_family"] == ModeFamily.CONTROL else "UIF"
    modes = report["modes"]
    unit = modes["unit"]
    lines = ["orcas assessment report", "=======================", ""]

    lines.append(f"failure-mode rates ({unit})")
    lines.append("")
    header = ["class"] + [f"{prefix}-{m}" for m in MODE_ORDER] + ["Total"]
    rows: list[list[str]] = []
    for cls, cells in sorted(modes["per_cell"].items()):
        total = modes["per_class_total"][cls]
        rows.append([cls] + [_fmt_rate(cells[m]) for m in MODE_ORDER] + [_fmt_rate(total)])
    totals = ["Total"] + [_fmt_rate(modes["per_mode"][m]) for m in MODE_ORDER] + [_fmt_rate(modes["total"])]
    rows.append(totals)
    widths = [max(len(header[i]), *(len(r[i]) for r in rows)) for i in range(len(header))]
    lines.append("  " + "  ".join(h.ljust(widths[i]) for i, h in enumerate(header)))
    for row in rows:
        lines.append("  " + "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    if modes["excluded"]:
        excluded = ", ".join(sorted(set(modes["excluded"])))
        lines.append("")
        lines.append(f"  excluded modes: {excluded} (zeroed; mass not redistributed)")
    lines.append("")

    lines.append(f"class rates (method: {report['rates']['method']}, {unit})")
    rates = sorted(report["rates"]["per_class"].items())
    for cls, rate in rates:
        if rate > 0.0:
            lines.append(f"  {cls.ljust(14)}{_fmt_rate(rate)}")
    zero = [cls for cls, rate in rates if not rate > 0.0]
    if zero:
        lines.append(f"  zero rate: {', '.join(zero)}")
    lines.append("")

    ev = report["evidence"]
    lines.append("evidence")
    lines.append(f"  RTM score            {ev['rtm_score']:.4f}")
    lines.append(f"  TCA score            {ev['tca_score']:.4f}")
    lines.append(f"  structural coverage  {ev['structural_coverage']:.4f}")
    lines.append(f"  confidence           {ev['confidence']:.4f}  (threshold {ev['confidence_threshold']:.4f})")
    lines.append(f"  gate                 {ev['gate']}")
    lines.append("")

    untraced = report["gaps"]["untraced_requirements"]
    uncovered = report["gaps"]["uncovered_triggers"]
    lines.append("gaps")
    lines.append(f"  untraced requirements: {', '.join(untraced) if untraced else '(none)'}")
    lines.append(f"  uncovered triggers:    {', '.join(uncovered) if uncovered else '(none)'}")
    lines.append("")

    growth = report["growth"]
    if growth is not None:
        lines.append(f"growth model: {growth['model']} "
                     f"(horizon {growth['horizon']:g}, "
                     f"{'stable' if growth['all_stable'] else 'UNSTABLE'})")
        for cls_name, entry in sorted(growth["per_class"].items()):
            fit = entry["fit"]
            params = ", ".join(f"{k}={v:.6g}" for k, v in sorted(fit["params"].items()))
            verdict = entry["stability"]
            lines.append(
                f"  {cls_name}: {params}; intensity {fit['current_intensity']:.4E}; "
                f"max refit step {verdict['max_relative_step']:.3f} "
                f"({'stable' if verdict['stable'] else 'unstable'})"
            )
        lines.append("")

    lines.append("notes")
    for note in report["annotations"]:
        lines.append(f"  - {note}")
    lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# SVG plots
# ---------------------------------------------------------------------------

_SVG_W = 640
_SVG_H = 360
_MARGIN = 48


def _svg_points(points: list[tuple[float, float]], x_max: float, y_max: float, y_offset: int) -> str:
    plot_w = _SVG_W - 2 * _MARGIN
    plot_h = _SVG_H - 2 * _MARGIN
    coords = []
    for x, y in points:
        px = _MARGIN + (x / x_max) * plot_w
        py = y_offset + _SVG_H - _MARGIN - (y / y_max) * plot_h
        coords.append(f"{px:.2f},{py:.2f}")
    return " ".join(coords)


def svg_report(report: dict) -> str:
    """Cumulative detections vs fitted mean curves of a report dict, one
    panel per class.

    Reports produced with bounded estimation, or with no defects, have no fitted
    curves; the output is then a single panel stating that nothing can be plotted, and why.
    """
    growth = report["growth"]
    if growth is None or not growth["per_class"]:
        why = ("rates were estimated with the bounded method" if growth is None
               else "no class has detection events to fit")
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="80">\n'
            f'  <text x="16" y="32" font-family="monospace" font-size="13">'
            f"no growth-model fits in this report; nothing to plot</text>\n"
            f'  <text x="16" y="52" font-family="monospace" font-size="13">'
            f"({why})</text>\n"
            f"</svg>\n"
        )

    horizon = float(growth["horizon"])
    panels: list[str] = []
    offset = 0
    for cls_name, entry in sorted(growth["per_class"].items()):
        fit = entry["fit"]
        events = [float(t) for t in entry["events"]]
        observed = [(0.0, 0.0)] + [(t, i + 1.0) for i, t in enumerate(events)]
        curve = mean_curve(fit, horizon, 100)
        y_max = max(len(events), max(y for _, y in curve), 1.0) * 1.08
        params = ", ".join(f"{k}={v:.4g}" for k, v in sorted(fit["params"].items()))
        panels.append("\n".join([
            f'  <g transform="translate(0,0)">',
            f'    <rect x="{_MARGIN}" y="{offset + _MARGIN}" width="{_SVG_W - 2 * _MARGIN}" '
            f'height="{_SVG_H - 2 * _MARGIN}" fill="none" stroke="#888"/>',
            f'    <text x="{_MARGIN}" y="{offset + _MARGIN - 12}" font-family="monospace" '
            f'font-size="13">{cls_name}: {fit["model"]} ({params})</text>',
            f'    <polyline points="{_svg_points(observed, horizon, y_max, offset)}" '
            f'fill="none" stroke="#1a52a8" stroke-width="1.5"/>',
            f'    <polyline points="{_svg_points(curve, horizon, y_max, offset)}" '
            f'fill="none" stroke="#c03518" stroke-width="1.5" stroke-dasharray="6,3"/>',
            f'    <text x="{_MARGIN}" y="{offset + _SVG_H - _MARGIN + 16}" font-family="monospace" '
            f'font-size="11">effort 0..{horizon:g}; blue: observed cumulative; '
            f"red: fitted mean</text>",
            f"  </g>",
        ]))
        offset += _SVG_H
    body = "\n".join(panels)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{offset}">\n'
        f"{body}\n</svg>\n"
    )

"""Command-line surface.

  orcas validate <dir>                      assess a bundle, emit no report
  orcas assess <dir> [options]              run the pipeline, emit a report
  orcas causality build <corpus> -o FILE    estimate a matrix from a corpus
  orcas srgm fit <history> --model go|mo    fit a growth model
  orcas report <assessment.json> --format   re-emit a saved report
  orcas convert defects <log.csv>           CSV defect log -> defects.json

Exit codes: 0 = assessment proceeds, 2 = defer to the alternate method
(low confidence), 1 = any error. Usage errors also exit 1 so that 2
always means "defer". `validate` exits 0 for a bundle that `assess` can
run, whether its gate proceeds or defers.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from functools import partial
from pathlib import Path

from ._version import __version__
from .bundle import defects_from_csv, load_bundle, load_corpus_file, load_history_file
from .causality import estimate_causality
from .domain import FailureMode
from .errors import OrcasError
from .evidence import GateDecision
from .growth import (DEFAULT_STABILITY_THRESHOLD, SrgmModel, check_stability_options, fit_srgm, mean_curve,
                     windowed_srgm_stability)
from .report import INVALID_REPORT, REPORT_FORMATS, emit_report, report_from_json, run_assessment, write_json
from .schema import fail, read_text

_MODEL_NAMES = {"go": SrgmModel.GOEL_OKUMOTO, "mo": SrgmModel.MUSA_OKUMOTO, **{model: model for model in SrgmModel}}


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; 2 is reserved for the
    # defer gate, so remap to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_modes(values: list[str]) -> frozenset[FailureMode]:
    modes = set()
    for chunk in values:
        for name in chunk.split(","):
            name = name.strip()
            if not name:
                continue
            try:
                modes.add(FailureMode(name.upper()))
            except ValueError:
                valid = ", ".join(FailureMode)
                raise OrcasError(f"invalid failure mode {name!r} (expected one of: {valid})") from None
    return frozenset(modes)


def _write_output(output: str | None, emit) -> None:
    """Call ``emit`` with the write function of the command's output: stdout's
    for None or "-", else that of the file ``output``, which it creates."""
    if output is None or output == "-":
        emit(sys.stdout.buffer.write)
        sys.stdout.buffer.flush()
    else:
        with open(output, "wb") as handle:
            emit(handle.write)


def build_parser() -> _Parser:
    parser = _Parser(prog="orcas", description="Software failure-mode probability assessment.")
    parser.add_argument("--version", action="version", version=f"orcas {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_validate = sub.add_parser("validate", help="check that a bundle directory can be assessed")
    p_validate.add_argument("directory")

    p_assess = sub.add_parser("assess", help="run an assessment on a bundle directory")
    p_assess.add_argument("directory")
    p_assess.add_argument("--matrix", metavar="builtin|FILE|corpus:FILE",
                          help="causality matrix source (overrides config.json)")
    p_assess.add_argument("--exclude-modes", action="append", default=None, metavar="MODES",
                          help="comma-separated failure modes to exclude (overrides the system kind)")
    p_assess.add_argument("--confidence-threshold", type=float, default=None, metavar="X",
                          help="gate threshold in [0,1] (overrides config.json)")
    p_assess.add_argument("--uniform-missing-rows", action="store_true", default=None,
                          help="substitute uniform causality rows for classes with no data (warned in the report)")
    p_assess.add_argument("--format", choices=REPORT_FORMATS, default="json")
    p_assess.add_argument("-o", "--output", default=None, help="output file (default stdout)")

    p_causality = sub.add_parser("causality", help="causality-matrix operations")
    causality_sub = p_causality.add_subparsers(dest="causality_command", required=True,
                                               parser_class=_Parser)
    p_build = causality_sub.add_parser("build", help="estimate a matrix from a labeled corpus")
    p_build.add_argument("corpus", help="corpus JSON file (defect records with observed_modes)")
    p_build.add_argument("-o", "--output", default=None, help="matrix output file (default stdout)")

    p_srgm = sub.add_parser("srgm", help="reliability-growth model operations")
    srgm_sub = p_srgm.add_subparsers(dest="srgm_command", required=True, parser_class=_Parser)
    p_fit = srgm_sub.add_parser("fit", help="fit a growth model to a failure history")
    p_fit.add_argument("history", help="history JSON file: {\"events\": [...], \"horizon\"?}")
    p_fit.add_argument("--model", choices=sorted(_MODEL_NAMES), default="go")
    p_fit.add_argument("--stability-windows", type=int, default=0, metavar="N",
                       help="refit over N expanding windows and report stability")
    p_fit.add_argument("--stability-threshold", type=float, default=DEFAULT_STABILITY_THRESHOLD, metavar="X")
    p_fit.add_argument("--curve-samples", type=int, default=0, metavar="K",
                       help="include K+1 (effort, mean) samples of the fitted curve")
    p_fit.add_argument("-o", "--output", default=None, help="output file (default stdout)")

    p_report = sub.add_parser("report", help="re-emit a saved assessment report")
    p_report.add_argument("assessment", help="assessment JSON produced by `orcas assess`")
    p_report.add_argument("--format", choices=REPORT_FORMATS, default="text")
    p_report.add_argument("-o", "--output", default=None, help="output file (default stdout)")

    p_convert = sub.add_parser("convert", help="format converters")
    convert_sub = p_convert.add_subparsers(dest="convert_command", required=True,
                                           parser_class=_Parser)
    p_defects = convert_sub.add_parser("defects", help="CSV defect log to defects.json")
    p_defects.add_argument("csv", help="CSV with columns id, description, class "
                                       "(+ optional detection_effort, observed_modes, resolution)")
    p_defects.add_argument("-o", "--output", default=None, help="output file (default stdout)")

    return parser


def _cmd_validate(args) -> int:
    # `assess` without emission: a bundle validate accepts, assess can run.
    bundle = load_bundle(args.directory)
    report = run_assessment(bundle)
    print(f"bundle OK: {args.directory}")
    print(f"  defects: {len(bundle.defects)}")
    print(f"  effort: {bundle.effort.test_count} tests "
          f"({bundle.effort.kind})")
    print(f"  rtm entries: {len(bundle.rtm)}")
    print(f"  tca slots: {len(bundle.tca)}")
    print(f"  matrix: {bundle.matrix.provenance}")
    print(f"  rates: {bundle.rate_method}")
    evidence = report["evidence"]
    print(f"  gate: {evidence['gate']} (confidence {evidence['confidence']:.4f}, "
          f"threshold {evidence['confidence_threshold']:.4f})")
    for note in report["annotations"]:
        print(f"  note: {note}")
    return 0


def _cmd_assess(args) -> int:
    exclude = _parse_modes(args.exclude_modes) if args.exclude_modes is not None else None
    bundle = load_bundle(
        args.directory,
        matrix_source=args.matrix,
        exclude_modes=exclude,
        confidence_threshold=args.confidence_threshold,
        uniform_missing_rows=args.uniform_missing_rows,
    )
    report = run_assessment(bundle)
    _write_output(args.output, partial(emit_report, report, args.format))
    return 0 if report["evidence"]["gate"] == GateDecision.PROCEED else 2


def _cmd_causality_build(args) -> int:
    corpus = load_corpus_file(args.corpus)
    matrix = estimate_causality(corpus, provenance=f"corpus:{Path(args.corpus).name}")
    _write_output(args.output, partial(write_json, matrix.to_dict()))
    return 0


def _cmd_srgm_fit(args) -> int:
    events, horizon = load_history_file(args.history)
    model = _MODEL_NAMES[args.model]
    effective_horizon = horizon if horizon is not None else events[-1]
    out = {"events": len(events), "horizon": effective_horizon}
    windows, threshold = args.stability_windows, args.stability_threshold
    if windows:
        check_stability_options(windows, threshold)
    try:
        if windows:  # the last stability window spans the whole horizon: its fit is the fit
            out["stability"], fit = windowed_srgm_stability(events, model, effective_horizon, windows, threshold)
        else:
            fit = fit_srgm(events, model, horizon=horizon)
    except OrcasError as exc:  # the options hold: the history's events are at fault, as a bundle class's are
        raise fail(Path(args.history).name, "events", str(exc)) from exc
    out["fit"] = fit
    if args.curve_samples > 0:
        out["curve"] = mean_curve(fit, effective_horizon, args.curve_samples)
    _write_output(args.output, partial(write_json, out))
    if not fit["converged"]:
        print(f"warning: fit did not converge: {fit['diagnostic']}", file=sys.stderr)
    return 0


def _cmd_report(args) -> int:
    report = report_from_json(read_text(Path(args.assessment), INVALID_REPORT))
    _write_output(args.output, partial(emit_report, report, args.format))
    return 0


def _cmd_convert_defects(args) -> int:
    records = defects_from_csv(args.csv)
    _write_output(args.output, partial(write_json, [r.to_dict() for r in records]))
    return 0


# Each command's function, by name; argparse refuses any other name.
_COMMANDS = {"validate": _cmd_validate, "assess": _cmd_assess, "causality": _cmd_causality_build,
             "srgm": _cmd_srgm_fit, "report": _cmd_report, "convert": _cmd_convert_defects}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (OrcasError, OSError) as exc:
        print(f"orcas: error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    # One command per process, whose data lives until exit: the cyclic GC would only
    # re-traverse the parsed JSON and the interpreter's teardown only free it, so the
    # process exits once its output is flushed. main() leaves the GC as it finds it;
    # argparse's exits and uncaught exceptions take the usual path.
    gc.disable()
    code = main()
    try:
        for stream in filter(None, (sys.stdout, sys.stderr)):
            stream.flush()
    except (OSError, ValueError) as exc:
        code = 1
        print(f"orcas: error: {exc}", file=sys.stderr, flush=True)
    os._exit(code)

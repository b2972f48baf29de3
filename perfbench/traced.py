"""Traced entry point: run one orcas command with a span around every call
into the public functions listed in TARGETS.

    python3 perfbench/traced.py SPANS_FILE -- <orcas arguments>

It times ``import orcas.cli`` in this fresh interpreter, wraps the target
functions in every ``orcas`` module that binds them (``report`` and ``cli``
import some by value), then calls ``orcas.cli.main``. Spans (name, start,
end, parent) and counters stay in memory and are written to SPANS_FILE as
one JSON object when the command ends. Exit status and output are those
of ``python -m orcas``.

:func:`layer_metrics` turns the span files of many commands into the
benchmark's per-layer metrics.
"""

import os
import sys
import time

TARGETS = {
    "orcas.cli": ("main",),
    "orcas.bundle": ("load_bundle", "load_defects_file", "load_corpus_file", "load_effort_file",
                     "load_rtm_file", "load_tca_file", "load_matrix_file", "load_history_file",
                     "defects_from_csv", "resolve_matrix_source"),
    "orcas.causality": ("estimate_causality",),
    "orcas.growth": ("bounded_class_rates", "srgm_class_rates", "fit_srgm",
                     "windowed_srgm_stability"),
    "orcas.roots": ("newton_bisection",),
    "orcas.quantify": ("combine",),
    "orcas.evidence": ("score_rtm", "score_tca", "assessment_confidence"),
    "orcas.report": ("run_assessment", "emit_report", "report_from_json"),
}

GROWTH_SPANS = {"growth.bounded_class_rates", "growth.srgm_class_rates", "growth.fit_srgm",
                "growth.windowed_srgm_stability"}

# Loaders whose first argument is the file they read.
FILE_LOADERS = {"load_defects_file", "load_corpus_file", "load_effort_file", "load_rtm_file",
                "load_tca_file", "load_matrix_file", "load_history_file", "defects_from_csv"}


class Tracer:
    """Spans and counters of one command."""

    def __init__(self):
        self.spans = []   # [name, start_ns, end_ns, parent index or -1]
        self.stack = []
        self.counts = {}
        self.missing = []

    def count(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name, fn, after=None):
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            record = [span_name, 0, 0, self.stack[-1] if self.stack else -1]
            self.stack.append(len(self.spans))
            self.spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                self.stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def wrap_solver(self, fn):
        """newton_bisection, counting evaluations of the callables it is given."""
        code = fn.__code__
        params = code.co_varnames[:code.co_argcount]
        defaults = dict(zip(params[len(params) - len(fn.__defaults__ or ()):], fn.__defaults__ or ()))
        max_iter_at = params.index("max_iter") if "max_iter" in params else None
        inner = self.wrap("roots.newton_bisection", fn)

        def solver(func, dfunc, *args, **kwargs):
            evals = [0, 0]

            def f(x):
                evals[0] += 1
                return func(x)

            def df(x):
                evals[1] += 1
                return dfunc(x)

            try:
                return inner(f, df, *args, **kwargs)
            finally:
                self.count("roots.calls")
                self.count("roots.func_evals", evals[0])
                self.count("roots.dfunc_evals", evals[1])
                if max_iter_at is not None:
                    full = (func, dfunc, *args)
                    limit = kwargs.get("max_iter", full[max_iter_at] if len(full) > max_iter_at
                                       else defaults.get("max_iter"))
                    # One derivative evaluation per iteration.
                    if evals[1] >= limit:
                        self.count("roots.exhausted")

        return solver

    def wrapper_for(self, module, name, fn):
        short = f"{module.rsplit('.', 1)[-1]}.{name}"
        if short == "roots.newton_bisection":
            return self.wrap_solver(fn)
        if short == "report.emit_report":
            def emit_name(args, kwargs):
                fmt = kwargs.get("format", args[1] if len(args) > 1 else "json")
                return "report.emit_" + ("svg" if fmt.startswith("svg") else fmt)
            return self.wrap(emit_name, fn)
        after = None
        if name in FILE_LOADERS:
            def after(args, kwargs, result, name=name):
                path = args[0] if args else kwargs["path"]
                self.count("bundle.input_bytes", os.path.getsize(path))
                if name in ("load_defects_file", "load_corpus_file"):
                    self.count("bundle.records", len(result))
        elif short == "growth.fit_srgm":
            def after(args, kwargs, result):
                self.count("growth.fit_calls")
                self.count("growth.fit_events", len(args[0] if args else kwargs["events"]))
        elif short == "report.run_assessment":
            def after(args, kwargs, result):
                bundle = args[0] if args else kwargs["bundle"]
                if bundle.rate_method.value == "srgm":
                    self.count("growth.classes", len({d.defect_class for d in bundle.defects}))
        elif short == "evidence.score_rtm":
            def after(args, kwargs, result):
                self.count("evidence.rtm_entries", len(args[0] if args else kwargs["entries"]))
        return self.wrap(short, fn, after)

    def install(self):
        """Replace each target in every orcas module that binds it."""
        replacements = {}
        for module_name, names in TARGETS.items():
            module = sys.modules.get(module_name)
            for name in names:
                fn = getattr(module, name, None)
                if fn is None:
                    self.missing.append(f"{module_name}.{name}")
                else:
                    replacements[id(fn)] = (fn, self.wrapper_for(module_name, name, fn))
        for module_name, module in list(sys.modules.items()):
            if module_name != "orcas" and not module_name.startswith("orcas."):
                continue
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])


def main():
    spans_file, separator, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    if separator != "--":
        sys.exit("usage: traced.py SPANS_FILE -- <orcas arguments>")
    start = time.perf_counter_ns()
    import orcas.cli
    import_ns = time.perf_counter_ns() - start

    import json

    tracer = Tracer()
    tracer.install()
    tracer.counts["cli.import_ns"] = import_ns
    if argv[:2] == ["srgm", "fit"]:
        tracer.count("growth.classes")
    try:
        code = orcas.cli.main(argv)
    finally:
        with open(spans_file, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts, "missing": tracer.missing}, fh)
    sys.exit(code)


# ---------------------------------------------------------------------------
# Per-layer metrics from the span files of a run
# ---------------------------------------------------------------------------

# name, unit; times are per command, in milliseconds.
LAYER_METRICS = (
    ("cli.import_ms", "ms"), ("cli.main_ms", "ms"),
    ("bundle.load_bundle_ms", "ms"), ("bundle.load_defects_ms", "ms"),
    ("bundle.load_corpus_ms", "ms"), ("bundle.load_evidence_ms", "ms"),
    ("bundle.records", "count"), ("bundle.input_bytes", "bytes"),
    ("causality.resolve_ms", "ms"), ("causality.estimate_ms", "ms"),
    ("growth.rates_ms", "ms"), ("growth.fit_ms", "ms"), ("growth.stability_ms", "ms"),
    ("growth.fit_calls", "count"), ("growth.fit_events", "count"), ("growth.fits_per_class", "count"),
    ("roots.solve_ms", "ms"), ("roots.calls", "count"), ("roots.func_evals", "count"),
    ("roots.dfunc_evals", "count"), ("roots.exhausted", "count"),
    ("quantify.combine_ms", "ms"), ("evidence.score_ms", "ms"), ("evidence.rtm_entries", "count"),
    ("report.run_assessment_self_ms", "ms"), ("report.emit_json_ms", "ms"),
    ("report.emit_text_ms", "ms"), ("report.emit_svg_ms", "ms"), ("report.from_json_ms", "ms"),
)


def layer_metrics(commands):
    """Mean per command of each layer metric over ``commands``, a list of
    span-file objects. ``name`` sums span durations, ``name:self`` their
    durations less the time their direct children cover."""
    total = {}

    def add(key, value):
        total[key] = total.get(key, 0.0) + value

    for command in commands:
        spans = command["spans"]
        covered = [0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        for i, (name, start, end, parent) in enumerate(spans):
            add(name, (end - start) / 1e6)
            add(name + ":self", (end - start - covered[i]) / 1e6)
            if name in GROWTH_SPANS and (parent < 0 or spans[parent][0] not in GROWTH_SPANS):
                add("growth.rates", (end - start) / 1e6)
        for key, value in command["counts"].items():
            add(key, value)

    n = len(commands)
    get = lambda *keys: sum(total.get(k, 0.0) for k in keys) / n
    classes = total.get("growth.classes", 0.0)
    values = {
        "cli.import_ms": get("cli.import_ns") / 1e6,
        "cli.main_ms": get("cli.main"),
        "bundle.load_bundle_ms": get("bundle.load_bundle"),
        "bundle.load_defects_ms": get("bundle.load_defects_file"),
        "bundle.load_corpus_ms": get("bundle.load_corpus_file"),
        "bundle.load_evidence_ms": get("bundle.load_rtm_file", "bundle.load_tca_file"),
        "bundle.records": get("bundle.records"),
        "bundle.input_bytes": get("bundle.input_bytes"),
        "causality.resolve_ms": get("bundle.resolve_matrix_source:self"),
        "causality.estimate_ms": get("causality.estimate_causality"),
        "growth.rates_ms": get("growth.rates"),
        "growth.fit_ms": get("growth.fit_srgm"),
        "growth.stability_ms": get("growth.windowed_srgm_stability"),
        "growth.fit_calls": get("growth.fit_calls"),
        "growth.fit_events": get("growth.fit_events"),
        "growth.fits_per_class": total.get("growth.fit_calls", 0.0) / classes if classes else 0.0,
        "roots.solve_ms": get("roots.newton_bisection"),
        "roots.calls": get("roots.calls"),
        "roots.func_evals": get("roots.func_evals"),
        "roots.dfunc_evals": get("roots.dfunc_evals"),
        "roots.exhausted": get("roots.exhausted"),
        "quantify.combine_ms": get("quantify.combine"),
        "evidence.score_ms": get("evidence.score_rtm", "evidence.score_tca",
                                 "evidence.assessment_confidence"),
        "evidence.rtm_entries": get("evidence.rtm_entries"),
        "report.run_assessment_self_ms": get("report.run_assessment:self"),
        "report.emit_json_ms": get("report.emit_json"),
        "report.emit_text_ms": get("report.emit_text"),
        "report.emit_svg_ms": get("report.emit_svg"),
        "report.from_json_ms": get("report.report_from_json"),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS}


if __name__ == "__main__":
    main()

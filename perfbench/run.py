"""orcas benchmark: CLI latency and defect throughput.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Each operation is one orcas command run as
a fresh ``python -m orcas`` subprocess with the checkout's ``src`` on the
path, timed from spawn to exit. One client drives a closed loop: the next
command starts when the previous one has exited, and a run repeats whole
rounds of the workload's commands until ``--seconds`` have passed; each
round ends with one run of a fixed reference program, whose speed scales
the reported timings (README.md says why). Every distinct output is then
checked against computations made apart from the program (see checks.py).
The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import gen
import traced

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3
COMMAND_TIMEOUT_S = 120
WORK_DIR = ".perfbench_work"

# A fixed stdlib-only program shaped like a small orcas command: interpreter
# start-up, imports, JSON and float work. It runs once per round, and every
# timing is scaled by REFERENCE_S over its fastest-decile time in the same
# run, so that the run reports times at one fixed machine speed. Neighbours
# on a shared host slow whole runs by 20-40%; they slow this program alike.
REFERENCE_PROGRAM = ("import argparse, csv, dataclasses, enum, hashlib, json, math\n"
                     "x = [math.log1p(i * 1e-3) for i in range(40000)]\n"
                     "json.loads(json.dumps(x))")
REFERENCE_S = 0.090


@dataclass
class Result:
    exit_code: int
    stdout: bytes
    stderr: bytes
    product: bytes   # the file named by -o, else stdout
    wall_s: float
    maxrss_kib: int


@dataclass
class Op:
    name: str
    argv: list[str]
    check: Callable[[Result], None]
    records: int = 0      # defect records in the bundle given to validate/assess
    report: bool = False  # the product is a canonical JSON report
    fault: bool = False   # fails today because of a known program fault
    output: Path | None = None


# ---------------------------------------------------------------------------
# Workload operations
# ---------------------------------------------------------------------------


def _exit(code: int, check: Callable[[Result], None] | None = None) -> Callable[[Result], None]:
    def run(r: Result) -> None:
        checks.require(r.exit_code == code, f"exit code {r.exit_code}, expected {code}")
        if check is not None:
            check(r)
    return run


def _records(bundle: Path) -> int:
    return len(json.loads((bundle / "defects.json").read_bytes()))


def _assess_op(name: str, directory: Path) -> Op:
    bundle = checks.Bundle(directory)
    return Op(name, ["assess", str(directory)],
              lambda r: checks.check_report(r.product, r.exit_code, bundle),
              records=len(bundle.defects), report=True)


def cli_small_ops(d: Path) -> list[Op]:
    vcu, go = checks.Bundle(d / "vcu"), checks.Bundle(d / "go")
    saved = d / "saved-go.json"
    history, corpus, log = d / "history.json", d / "corpus.json", d / "log.csv"
    go_exit = 2 if checks.expected_evidence(go)["gate"] == checks.DEFER else 0
    ops = [
        Op("validate-vcu", ["validate", str(vcu.dir)],
           lambda r: checks.check_validate(r.stdout, r.exit_code, vcu), records=len(vcu.defects)),
        Op("assess-vcu-json", ["assess", str(vcu.dir), "--format", "json"],
           lambda r: checks.check_vcu_report(r.product, r.exit_code, vcu),
           records=len(vcu.defects), report=True),
        Op("assess-vcu-text", ["assess", str(vcu.dir), "--format", "text"],
           lambda r: checks.check_vcu_text(r.product, r.exit_code), records=len(vcu.defects)),
        Op("validate-go", ["validate", str(go.dir)],
           lambda r: checks.check_validate(r.stdout, r.exit_code, go), records=len(go.defects)),
        Op("assess-go-json", ["assess", str(go.dir), "-o", str(saved)],
           lambda r: checks.check_report(r.product, r.exit_code, go),
           records=len(go.defects), report=True, output=saved),
        Op("assess-go-svg", ["assess", str(go.dir), "--format", "svg"],
           _exit(go_exit, lambda r: checks.check_svg(r.product, go)), records=len(go.defects)),
        Op("report-svg", ["report", str(saved), "--format", "svg"],
           _exit(0, lambda r: checks.check_svg(r.product, go))),
        Op("report-json", ["report", str(saved), "--format", "json"],
           _exit(0, lambda r: checks.require(r.product == saved.read_bytes(),
                                             "re-emitted JSON differs from the saved report"))),
        Op("srgm-fit", ["srgm", "fit", str(history), "--model", "mo", "--stability-windows", "4",
                        "--curve-samples", "10"],
           _exit(0, lambda r: checks.check_srgm_fit(r.product, history, "musa-okumoto", 4, 10))),
        Op("causality-build", ["causality", "build", str(corpus)],
           _exit(0, lambda r: checks.check_matrix(r.product, corpus))),
        Op("convert-defects", ["convert", "defects", str(log)],
           _exit(0, lambda r: checks.check_converted(r.product, log))),
    ]
    # Known faults: each should be one `file: where: reason` line and exit 1.
    faults = {
        "bad-empty-id": ("defects.json",),
        "bad-rtm-utf8": ("rtm.json",),
        "bad-test-count": ("effort.json",),
        "bad-srgm-no-effort": ("defects.json", "config.json", "effort.json"),
    }
    for name, files in faults.items():
        ops.append(Op(f"validate-{name}", ["validate", str(d / name)],
                      lambda r, files=files: checks.check_error_line(r.stderr, r.exit_code, files),
                      records=_records(d / name), fault=True))
    return ops


def srgm_mo_ops(d: Path) -> list[Op]:
    return [_assess_op(f"assess-{part}", d / part) for part in ("mo-a", "mo-b")]


def bounded_corpus_ops(d: Path) -> list[Op]:
    return [_assess_op("assess-corpus-bundle", d / "corpus-bundle")]


OPS = {"cli-small": cli_small_ops, "srgm-mo": srgm_mo_ops, "bounded-corpus": bounded_corpus_ops}

# The first command of each workload, run once per set-up as its warm-up.
WARM_UP = {
    "cli-small": lambda d: ["assess", str(d / "vcu")],
    "srgm-mo": lambda d: ["assess", str(d / "mo-a")],
    "bounded-corpus": lambda d: ["assess", str(d / "corpus-bundle")],
}


# ---------------------------------------------------------------------------
# Running commands
# ---------------------------------------------------------------------------


class Runner:
    """Runs one orcas command at a time through ``launch.py`` and waits for it."""

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work
        self.spans_file = work / "spans.json"
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=str(root / "src") + (os.pathsep + path if path else ""))
        self.launcher = subprocess.Popen([sys.executable, str(HERE / "launch.py")], cwd=root, env=env,
                                         stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def close(self) -> None:
        self.launcher.stdin.close()
        self.launcher.wait()

    def orcas(self, argv: list[str], output: Path | None = None, trace: bool = False) -> Result:
        """Run ``orcas <argv>``, plainly or through the traced entry point."""
        if trace:
            command = [sys.executable, str(HERE / "traced.py"), str(self.spans_file), "--", *argv]
        else:
            command = [sys.executable, "-m", "orcas", *argv]
        return self.spawn(command, output)

    def spawn(self, command: list[str], output: Path | None = None) -> Result:
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        if output is not None:
            output.unlink(missing_ok=True)
        request = {"argv": command, "stdout": str(out_path), "stderr": str(err_path),
                   "timeout": COMMAND_TIMEOUT_S}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = json.loads(self.launcher.stdout.readline())
        stdout = out_path.read_bytes()
        return Result(
            exit_code=os.waitstatus_to_exitcode(reply["status"]), stdout=stdout,
            stderr=err_path.read_bytes(),
            product=output.read_bytes() if output is not None and output.exists() else stdout,
            wall_s=reply["wall_s"], maxrss_kib=reply["maxrss_kib"],
        )

    def take_spans(self) -> dict:
        data = json.loads(self.spans_file.read_bytes())
        self.spans_file.unlink()
        return data


def setup(workload: str, seed: int, runner: Runner, work: Path) -> tuple[Path, list[float]]:
    """Generate the inputs and warm up, SETUP_REPEATS times; keep the last."""
    times, inputs = [], None
    for i in range(SETUP_REPEATS):
        if inputs is not None:
            shutil.rmtree(inputs)
        inputs = work / f"inputs-{i}"
        start = time.perf_counter()
        gen.generate(workload, seed, inputs)
        runner.orcas(WARM_UP[workload](inputs))
        times.append(time.perf_counter() - start)
    return inputs, times


class Outcomes:
    """Verdicts per distinct output: identical output gets the same verdict,
    so each distinct (command, output) pair is checked once, after timing."""

    def __init__(self):
        self.pending: dict[tuple, tuple[Op, Result]] = {}
        self.keys: list[tuple[Op, tuple]] = []

    def add(self, op: Op, result: Result) -> None:
        digest = hashlib.sha256(result.product + b"\0" + result.stdout + b"\0" + result.stderr)
        key = (op.name, result.exit_code, digest.hexdigest())
        self.pending.setdefault(key, (op, result))
        self.keys.append((op, key))

    def judge(self) -> tuple[int, int, bool]:
        verdicts = {}
        for key, (op, result) in self.pending.items():
            try:
                op.check(result)
                verdicts[key] = True
            except Exception as exc:  # any exception means the output is wrong
                verdicts[key] = False
                if not op.fault:
                    tail = result.stderr.decode("utf-8", "replace").strip().splitlines()[-1:]
                    print(f"perfbench: {op.name}: check failed: {type(exc).__name__}: {exc} "
                          f"(exit {result.exit_code}; stderr {tail})", file=sys.stderr)
        failed = [op for op, key in self.keys if not verdicts[key]]
        return len(self.keys), len(failed), all(op.fault for op in failed)


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


@dataclass
class Measurement:
    outcomes: Outcomes
    untraced: list[tuple[Op, Result]]
    traced: list[tuple[Op, Result]]
    spans: list[tuple[str, dict]]
    reference_s: list[float]
    rounds: int

    @property
    def scale(self) -> float:
        """Factor that turns this run's wall times into times at reference speed."""
        return REFERENCE_S / fast_decile(self.reference_s)


def measure(ops: list[Op], runner: Runner, seconds: float, trace: bool) -> Measurement:
    """Closed loop over whole rounds of ``ops``, each followed by one run of
    the reference program, until ``seconds`` have passed. A traced run
    pairs each command with an untraced one."""
    m = Measurement(Outcomes(), [], [], [], [], 0)
    start = time.monotonic()
    while m.rounds == 0 or time.monotonic() - start < seconds:
        for op in ops:
            result = runner.orcas(op.argv, op.output)
            m.outcomes.add(op, result)
            m.untraced.append((op, result))
            if trace:
                result = runner.orcas(op.argv, op.output, trace=True)
                m.outcomes.add(op, result)
                m.traced.append((op, result))
                m.spans.append((op.name, runner.take_spans()))
        m.reference_s.append(runner.spawn([sys.executable, "-c", REFERENCE_PROGRAM]).wall_s)
        m.rounds += 1
    return m


def fast_decile(walls: list[float]) -> float:
    """The tenth percentile of one command's wall times."""
    return statistics.quantiles(walls, n=10, method="inclusive")[0] if len(walls) > 1 else walls[0]


def per_command(results: list[tuple[Op, Result]]) -> dict[str, float]:
    walls: dict[str, list[float]] = {}
    for op, r in results:
        walls.setdefault(op.name, []).append(r.wall_s)
    return {name: fast_decile(w) for name, w in walls.items()}


def end_to_end(ops: list[Op], m: Measurement, setup_times: list[float]) -> dict:
    fast = per_command(m.untraced)
    loaded = [op for op in ops if op.records]
    reports = [len(r.product) for op, r in m.untraced if op.report]
    return {
        "setup_s": (statistics.median(setup_times) * m.scale, "s"),
        "op_p10_ms": (statistics.fmean(fast.values()) * m.scale * 1e3, "ms"),
        "defects_per_s": (sum(op.records for op in loaded)
                          / (sum(fast[op.name] for op in loaded) * m.scale), "defects/s"),
        "report_bytes": (statistics.fmean(reports), "bytes"),
        "peak_rss_mb": (max(r.maxrss_kib for _, r in m.untraced) / 1024, "MiB"),
    }


def write_spans(path: Path, spans: list[tuple[str, dict]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for cmd, (op_name, data) in enumerate(spans):
            for name, start, end, parent in data["spans"]:
                fh.write(json.dumps({"cmd": cmd, "op": op_name, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent}) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description="orcas CLI benchmark")
    parser.add_argument("--workload", choices=sorted(OPS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "orcas" / "__init__.py").is_file():
        print("perfbench: no orcas source at src/orcas; run from the repository root",
              file=sys.stderr)
        return 2
    work = root / WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    runner = Runner(root, work)
    try:
        inputs, setup_times = setup(args.workload, args.seed, runner, work)
        ops = OPS[args.workload](inputs)
        m = measure(ops, runner, args.seconds, bool(args.trace))
        attempted, failed, correct = m.outcomes.judge()
    finally:
        runner.close()
        shutil.rmtree(work)

    walls = [r.wall_s * 1e3 for _, r in m.untraced]
    print(f"{args.workload}: seed {args.seed}, {m.rounds} rounds, {len(walls)} commands, "
          f"{failed}/{attempted} failed; setup {', '.join(f'{t:.3f}' for t in setup_times)} s")
    tail = f", p90 {statistics.quantiles(walls, n=10)[-1]:.2f}" if len(walls) >= 100 else ""
    print(f"command wall time over all {len(walls)} commands: p50 {statistics.median(walls):.2f}{tail} ms")
    print(f"reference program: fastest decile {fast_decile(m.reference_s) * 1e3:.2f} ms over "
          f"{len(m.reference_s)} runs; timings in the result are scaled by {m.scale:.4f}")
    if args.trace:
        missing = sorted({name for _, data in m.spans for name in data["missing"]})
        if missing:
            print(f"perfbench: not traced (not found): {', '.join(missing)}", file=sys.stderr)
        metrics = traced.layer_metrics([data for _, data in m.spans])
        slow, fast = per_command(m.traced), per_command(m.untraced)
        overhead = statistics.fmean(slow[name] - fast[name] for name in fast) * 1e3
        print(f"tracing overhead: {overhead:.2f} ms per command (traced minus untraced, "
              f"fastest decile per command)")
        spans_path = root / WORK_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
        write_spans(spans_path, m.spans)
        print(f"spans: {spans_path.relative_to(root)}")
        metrics["trace.overhead_ms"] = {"value": overhead, "unit": "ms"}
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in end_to_end(ops, m, setup_times).items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

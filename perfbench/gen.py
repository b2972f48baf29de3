"""Seeded input bundles for the orcas benchmark.

Everything here is derived from ``(workload, seed)`` alone and written as
plain files; the program under test only ever sees those files. Detection
histories are sampled by inverting each growth model's mean function over
unit-rate Poisson arrivals, so no code from ``orcas`` is used to make the
inputs that ``orcas`` is then checked against.

Regenerate any workload's inputs with

    python3 perfbench/gen.py --workload srgm-mo --seed 3 --out /tmp/bundles

run from the repository root (the VCU case study is copied from
``src/orcas/fixtures/vcu``).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import random
import shutil
from pathlib import Path

VCU_FIXTURE = Path("src/orcas/fixtures/vcu")

CLASSES = ("algorithm", "assignment", "checking", "function", "interface", "timing", "relationship")
MODES = ("A", "B", "C", "D")

# The 15-slot three-tier trigger checklist, written out from the method
# description rather than read from the program.
TCA_SLOTS = (
    ("component", "unit-test", "simple-path"),
    ("component", "function-test", "coverage"),
    ("component", "function-test", "variation"),
    ("component", "function-test", "sequence"),
    ("subsystem", "unit-test", "simple-path"),
    ("subsystem", "unit-test", "complex-path"),
    ("subsystem", "function-test", "coverage"),
    ("subsystem", "function-test", "variation"),
    ("subsystem", "function-test", "sequence"),
    ("subsystem", "function-test", "interaction"),
    ("system", "system-test", "startup-restart"),
    ("system", "system-test", "recovery-exception"),
    ("system", "system-test", "normal-mode"),
    ("system", "system-test", "configuration"),
    ("system", "system-test", "workload-stress"),
)

# Per-class (defect count, growth strength) of the growth histories. Sizes
# and model shapes are fixed so that every seed asks for the same work; the
# seed draws the detection efforts, statuses and labels.
GO_CLASSES = {"checking": (50, 3.0), "function": (50, 3.5), "timing": (50, 2.8)}
MO_CLASSES = {"algorithm": (3800, 30.0), "assignment": (4200, 60.0), "checking": (4000, 40.0),
              "function": (4100, 50.0), "interface": (3900, 70.0), "timing": (4000, 45.0)}
MO_HISTORY = (200, 40.0)
BOUNDED_DEFECTS = 24000
CORPUS_RECORDS = 20000
RTM_ENTRIES = {"cli-small": 20, "srgm-mo": 200, "bounded-corpus": 5000}


def _rng(workload: str, part: str, seed: int) -> random.Random:
    return random.Random(f"orcas-bench:{workload}:{part}:{seed}")


# ---------------------------------------------------------------------------
# Detection histories
# ---------------------------------------------------------------------------


def _arrivals(rng: random.Random, n: int, ceiling: float) -> list[float]:
    """The first n arrivals of a unit-rate Poisson process conditioned on
    exactly n arrivals in [0, ceiling): partial sums of n+1 exponential
    gaps, scaled so that the (n+1)-th lands on the ceiling. Fixing n keeps
    the input size, and so the work, the same for every seed."""
    sums, s = [], 0.0
    for _ in range(n + 1):
        s += rng.expovariate(1.0)
        sums.append(s)
    return [x / s * ceiling for x in sums[:-1]]


def go_events(rng: random.Random, n: int, a: float, b: float, horizon: float) -> list[float]:
    """Goel-Okumoto detection efforts: m(t) = a(1 - e^-bt), so t = -ln(1 - s/a)/b."""
    return [-math.log1p(-s / a) / b for s in _arrivals(rng, n, a * -math.expm1(-b * horizon))]


def mo_events(rng: random.Random, n: int, lambda0: float, theta: float, horizon: float) -> list[float]:
    """Musa-Okumoto detection efforts: m(t) = ln(1 + lambda0*theta*t)/theta,
    so t = (e^(theta*s) - 1)/(lambda0*theta)."""
    beta = lambda0 * theta
    return [math.expm1(theta * s) / beta for s in _arrivals(rng, n, math.log1p(beta * horizon) / theta)]


def mo_params_for(count: float, beta_t: float, horizon: float) -> tuple[float, float]:
    """(lambda0, theta) whose mean at ``horizon`` is ``count`` and whose
    beta*horizon is ``beta_t`` (larger means stronger growth)."""
    theta = math.log1p(beta_t) / count
    return beta_t / horizon / theta, theta


# ---------------------------------------------------------------------------
# Bundle pieces
# ---------------------------------------------------------------------------


def _text(rng: random.Random, what: str, i: int) -> str:
    words = ("buffer", "timer", "index", "range", "flag", "queue", "state", "limit", "frame", "mode")
    return f"{what} {i}: " + " ".join(rng.choice(words) for _ in range(5))


def _statuses(rng: random.Random, n: int) -> list[str]:
    """A fixed 60/30/10 complete/indirect/incomplete split in seeded order,
    so the evidence scores and the report's gap lists keep their size."""
    incomplete, indirect = n // 10, 3 * n // 10
    statuses = (["incomplete"] * incomplete + ["indirect"] * indirect
                + ["complete"] * (n - incomplete - indirect))
    rng.shuffle(statuses)
    return statuses


def rtm_entries(rng: random.Random, n: int) -> list[dict]:
    return [
        {"req_id": f"REQ-{i + 1}", "description": _text(rng, "requirement", i + 1), "status": status}
        for i, status in enumerate(_statuses(rng, n))
    ]


def tca_entries(rng: random.Random) -> list[dict]:
    return [
        {"level": level, "activity": activity, "trigger": trigger, "status": status}
        for (level, activity, trigger), status in zip(TCA_SLOTS, _statuses(rng, len(TCA_SLOTS)))
    ]


def labeled_records(rng: random.Random, n: int, prefix: str) -> list[dict]:
    """Corpus records: each class has its own mode propensities, each
    record names one to three distinct observed modes."""
    propensity = {cls: [rng.uniform(0.05, 1.0) for _ in MODES] for cls in CLASSES}
    records = []
    for i in range(n):
        cls = rng.choice(CLASSES)
        k = rng.choices((1, 2, 3), weights=(6, 3, 1))[0]
        modes = set()
        while len(modes) < k:
            modes.add(rng.choices(MODES, weights=propensity[cls])[0])
        records.append({
            "id": f"{prefix}-{i + 1:06d}", "description": _text(rng, "report", i + 1),
            "class": cls, "observed_modes": sorted(modes),
        })
    return records


def defect_records(class_events: dict[str, list[float]], rng: random.Random, prefix: str,
                   labeled_share: float = 0.0) -> list[dict]:
    """A defect log ordered by detection effort, as a project would keep it."""
    rows = sorted((t, cls) for cls, events in class_events.items() for t in events)
    records = []
    for i, (t, cls) in enumerate(rows):
        record = {"id": f"{prefix}-{i + 1:06d}", "description": _text(rng, "defect", i + 1),
                  "class": cls, "detection_effort": t}
        if rng.random() < labeled_share:
            record["observed_modes"] = sorted(rng.sample(MODES, rng.randint(1, 2)))
        if rng.random() < 0.5:
            record["resolution"] = _text(rng, "fix", i + 1)
        records.append(record)
    return records


def write_json(path: Path, data) -> None:
    path.write_text(json.dumps(data, indent=1), encoding="utf-8")


def write_bundle(directory: Path, **files) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    for name, data in files.items():
        write_json(directory / f"{name}.json", data)
    return directory


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _fault_bundles(out: Path) -> None:
    vcu = {name: json.loads((VCU_FIXTURE / f"{name}.json").read_text(encoding="utf-8"))
           for name in ("defects", "effort", "rtm", "tca", "config")}

    defects = [dict(d) for d in vcu["defects"]]
    defects[3]["id"] = ""
    write_bundle(out / "bad-empty-id", **{**vcu, "defects": defects})

    d = write_bundle(out / "bad-rtm-utf8", **vcu)
    raw = (d / "rtm.json").read_bytes()
    (d / "rtm.json").write_bytes(raw.replace(b"Collection", b"Collect\xffion", 1))

    d = write_bundle(out / "bad-test-count", **vcu)
    (d / "effort.json").write_text(
        '{"kind": "continuous", "test_count": 1' + "0" * 400 + ', "test_duration": 1.0}\n',
        encoding="utf-8")

    defects = [{k: v for k, v in d.items() if k != "detection_effort"} for d in vcu["defects"]]
    write_bundle(out / "bad-srgm-no-effort",
                 **{**vcu, "defects": defects, "config": {**vcu["config"], "rate_method": "srgm"}})


def cli_small(seed: int, out: Path) -> None:
    shutil.copytree(VCU_FIXTURE, out / "vcu")
    _fault_bundles(out)

    rng = _rng("cli-small", "go", seed)
    horizon = 2000
    class_events = {}
    for cls, (n, b_t) in GO_CLASSES.items():
        class_events[cls] = go_events(rng, n, float(n), b_t / horizon, horizon)
    write_bundle(
        out / "go",
        defects=defect_records(class_events, rng, "GO"),
        effort={"kind": "continuous", "test_count": horizon, "test_duration": 1.0},
        rtm=rtm_entries(rng, RTM_ENTRIES["cli-small"]),
        tca=tca_entries(rng),
        config={"structural_coverage": round(rng.uniform(0.6, 1.0), 3), "system_kind": "control",
                "rate_method": "srgm", "srgm_model": "goel-okumoto", "stability_windows": 4,
                "confidence_threshold": round(rng.uniform(0.5, 0.95), 2), "matrix": "builtin"},
    )

    rng = _rng("cli-small", "history", seed)
    horizon = 5000.0
    n, beta_t = MO_HISTORY
    lambda0, theta = mo_params_for(n, beta_t, horizon)
    write_json(out / "history.json", {"events": mo_events(rng, n, lambda0, theta, horizon),
                                      "horizon": horizon})

    rng = _rng("cli-small", "corpus", seed)
    write_json(out / "corpus.json", labeled_records(rng, 200, "C"))

    rng = _rng("cli-small", "csv", seed)
    with open(out / "log.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "description", "class", "detection_effort", "observed_modes",
                         "resolution"])
        for i in range(40):
            writer.writerow([
                f"LOG-{i + 1:03d}", _text(rng, "defect, logged", i + 1), rng.choice(CLASSES),
                repr(rng.uniform(0.0, 1000.0)) if rng.random() < 0.8 else "",
                ";".join(sorted(rng.sample(MODES, rng.randint(0, 2)))),
                _text(rng, "fix", i + 1) if rng.random() < 0.5 else "",
            ])


def srgm_mo(seed: int, out: Path) -> None:
    horizon = 50000
    for part in ("mo-a", "mo-b"):
        rng = _rng("srgm-mo", part, seed)
        class_events = {}
        for cls, (n, beta_t) in MO_CLASSES.items():
            lambda0, theta = mo_params_for(n, beta_t, horizon)
            class_events[cls] = mo_events(rng, n, lambda0, theta, horizon)
        write_bundle(
            out / part,
            defects=defect_records(class_events, rng, "MO"),
            effort={"kind": "on-demand", "test_count": horizon},
            rtm=rtm_entries(rng, RTM_ENTRIES["srgm-mo"]),
            tca=tca_entries(rng),
            config={"structural_coverage": round(rng.uniform(0.6, 1.0), 3), "system_kind": "control",
                    "rate_method": "srgm", "srgm_model": "musa-okumoto", "stability_windows": 4,
                    "confidence_threshold": round(rng.uniform(0.5, 0.95), 2), "matrix": "builtin"},
        )


def bounded_corpus(seed: int, out: Path) -> None:
    rng = _rng("bounded-corpus", "bundle", seed)
    horizon = 40000
    share = {cls: rng.uniform(0.5, 1.5) for cls in CLASSES}
    class_events: dict[str, list[float]] = {cls: [] for cls in CLASSES}
    for _ in range(BOUNDED_DEFECTS):
        cls = rng.choices(CLASSES, weights=[share[c] for c in CLASSES])[0]
        class_events[cls].append(rng.uniform(0.0, float(horizon)))
    write_bundle(
        out / "corpus-bundle",
        defects=defect_records(class_events, rng, "DEF", labeled_share=0.2),
        effort={"kind": "continuous", "test_count": horizon, "test_duration": 1.0},
        rtm=rtm_entries(rng, RTM_ENTRIES["bounded-corpus"]),
        tca=tca_entries(rng),
        config={"structural_coverage": round(rng.uniform(0.6, 1.0), 3),
                "system_kind": "continuous-monitoring", "rate_method": "bounded",
                "confidence_threshold": round(rng.uniform(0.5, 0.95), 2),
                "matrix": "corpus:corpus.json"},
        corpus=labeled_records(rng, CORPUS_RECORDS, "CORP"),
    )


GENERATORS = {"cli-small": cli_small, "srgm-mo": srgm_mo, "bounded-corpus": bounded_corpus}


def generate(workload: str, seed: int, out: Path) -> Path:
    """Write every input of ``workload`` under ``out`` (which must not exist)."""
    out.mkdir(parents=True)
    GENERATORS[workload](seed, out)
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(GENERATORS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory to create")
    args = parser.parse_args()
    generate(args.workload, args.seed, Path(args.out))


if __name__ == "__main__":
    main()

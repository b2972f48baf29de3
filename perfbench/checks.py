"""Checks of orcas outputs against computations made apart from the program.

Each check reads the files the benchmark wrote and recomputes what the
output must say: bounded rates with exact rationals, the corpus matrix by
counting, the combination cell by cell, evidence scores from the written
statuses, input digests with hashlib, and maximum-likelihood properties of
every growth fit with this module's own likelihood and score functions.
A failed check raises :class:`CheckError` with the reason.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from fractions import Fraction
from pathlib import Path

MODES = ("A", "B", "C", "D")
STATUS_SCORE = {"complete": 1.0, "indirect": 0.5, "incomplete": 0.0}

# The published built-in causality matrix (402 labeled open-source defect
# reports); it has no relationship row. Rows may miss 1.0 by up to 5e-4
# because the published figures are rounded to 3 decimals.
PUBLISHED_MATRIX = {
    "algorithm": (0.320, 0.140, 0.350, 0.190),
    "assignment": (0.288, 0.667, 0.045, 0.000),
    "checking": (0.360, 0.244, 0.256, 0.140),
    "function": (0.389, 0.222, 0.241, 0.148),
    "interface": (0.347, 0.533, 0.080, 0.040),
    "timing": (0.190, 0.048, 0.524, 0.238),
}
ROW_SUM_TOLERANCE = 5e-4

DEFER = "defer-to-BAHAMAS"

# Published case-study figures for the VCU smart sensor.
VCU_TOTAL = "5.854E-04"
VCU_CONFIDENCE = 0.7667
VCU_GATE = DEFER

REL = 1e-12       # arithmetic the program and the check should agree on
FIT_REL = 1e-9    # closed-form identities of a fitted model
SCORE_REL = 1e-7  # profile score at the fitted root, relative to n/rate
PERTURB = 1e-3    # relative parameter perturbation for the likelihood test

ERROR_LINE = re.compile(r"orcas: error: (?P<file>[^:\s]+): (?P<where>.+): (?P<reason>.+)")


class CheckError(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def close(actual: float, expected: float, rel: float, what: str) -> None:
    require(math.isclose(actual, expected, rel_tol=rel, abs_tol=0.0),
            f"{what}: got {actual!r}, expected {expected!r} (rel {rel:g})")


def load_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Bundle facts, read back from the written files
# ---------------------------------------------------------------------------


class Bundle:
    """The files of one bundle directory, as the benchmark wrote them."""

    def __init__(self, directory: Path):
        self.dir = directory
        self.defects = load_json(directory / "defects.json")
        self.effort = load_json(directory / "effort.json")
        self.rtm = load_json(directory / "rtm.json")
        self.tca = load_json(directory / "tca.json")
        self.config = load_json(directory / "config.json")

    @property
    def horizon(self) -> Fraction:
        count = Fraction(self.effort["test_count"])
        if self.effort["kind"] == "continuous":
            return count * Fraction(self.effort["test_duration"])
        return count

    def class_events(self) -> dict[str, list[float]]:
        events: dict[str, list[float]] = {}
        for record in self.defects:
            events.setdefault(record["class"], []).append(float(record.get("detection_effort", 0.0)))
        return {cls: sorted(ts) for cls, ts in events.items()}

    def matrix_rows(self) -> dict[str, tuple[float, ...]]:
        source = self.config.get("matrix", "builtin")
        if source == "builtin":
            return PUBLISHED_MATRIX
        require(source.startswith("corpus:"), f"unsupported matrix source {source!r}")
        rows, _ = corpus_rows(load_json(self.dir / source[len("corpus:"):]))
        return rows

    def excluded(self) -> set[str]:
        kind = self.config["system_kind"]
        if kind == "custom":
            return set(self.config["excluded_modes"])
        return {"B"} if kind == "continuous-monitoring" else set()

    def input_files(self) -> list[Path]:
        files = [self.dir / f"{n}.json" for n in ("defects", "effort", "rtm", "tca", "config")]
        source = self.config.get("matrix", "builtin")
        if source.startswith("corpus:"):
            files.append(self.dir / source[len("corpus:"):])
        return files


def corpus_rows(corpus: list[dict]) -> tuple[dict[str, tuple[float, ...]], dict[str, list[int]]]:
    """Per-class count of each observed mode, normalized per class."""
    counts: dict[str, list[int]] = {}
    for record in corpus:
        row = counts.setdefault(record["class"], [0, 0, 0, 0])
        for mode in record["observed_modes"]:
            row[MODES.index(mode)] += 1
    return {cls: tuple(c / sum(row) for c in row) for cls, row in counts.items()}, counts


def expected_evidence(bundle: Bundle) -> dict:
    """Evidence scores and the gate, from the written RTM and TCA statuses."""
    cfg = bundle.config
    rtm_score = math.fsum(STATUS_SCORE[e["status"]] for e in bundle.rtm) / len(bundle.rtm)
    tca_score = math.fsum(STATUS_SCORE[e["status"]] for e in bundle.tca) / 15
    wr, wt = cfg.get("rtm_weight", 0.5), cfg.get("tca_weight", 0.5)
    confidence = (wr * rtm_score + wt * tca_score) / (wr + wt)
    threshold = cfg.get("confidence_threshold", 0.90)
    return {
        "rtm_score": rtm_score, "tca_score": tca_score, "confidence": confidence,
        "structural_coverage": cfg["structural_coverage"], "confidence_threshold": threshold,
        "gate": DEFER if confidence < threshold else "proceed",
    }


# ---------------------------------------------------------------------------
# Growth models: this module's own likelihoods and profile scores
# ---------------------------------------------------------------------------


def go_loglik(events, T, a, b):
    return len(events) * math.log(a * b) - b * math.fsum(events) + a * math.expm1(-b * T)


def go_profile_score(events, T, b):
    n = len(events)
    return n / b - math.fsum(events) - n * T / math.expm1(b * T)


def mo_loglik(events, T, lambda0, theta):
    beta = lambda0 * theta
    return (len(events) * math.log(lambda0) - math.fsum(math.log1p(beta * t) for t in events)
            - math.log1p(beta * T) / theta)


def mo_profile_score(events, T, beta):
    n = len(events)
    return (n / beta - n * T / ((1.0 + beta * T) * math.log1p(beta * T))
            - math.fsum(t / (1.0 + beta * t) for t in events))


def go_mean(t, a, b):
    return -a * math.expm1(-b * t)


def mo_mean(t, lambda0, theta):
    return math.log1p(lambda0 * theta * t) / theta


def check_fit(fit: dict, events: list[float], T: float, what: str) -> float:
    """MLE properties of one fit; returns the fitted intensity at T."""
    require(fit["converged"] is True, f"{what}: fit did not converge: {fit.get('diagnostic')}")
    n = len(events)
    p = fit["params"]
    if fit["model"] == "goel-okumoto":
        a, b = p["a"], p["b"]
        close(go_mean(T, a, b), n, FIT_REL, f"{what}: mean at horizon vs event count")
        score = go_profile_score(events, T, b)
        require(abs(score) <= SCORE_REL * n / b, f"{what}: profile score {score!r} at b={b!r}")
        loglik = lambda x, y: go_loglik(events, T, x, y)
        intensity = a * b * math.exp(-b * T)
        x, y = a, b
    else:
        lambda0, theta = p["lambda0"], p["theta"]
        beta = lambda0 * theta
        close(mo_mean(T, lambda0, theta), n, FIT_REL, f"{what}: mean at horizon vs event count")
        score = mo_profile_score(events, T, beta)
        require(abs(score) <= SCORE_REL * n / beta, f"{what}: profile score {score!r} at beta={beta!r}")
        loglik = lambda x, y: mo_loglik(events, T, x, y)
        intensity = lambda0 / (beta * T + 1.0)
        x, y = lambda0, theta
    best = loglik(x, y)
    close(fit["log_likelihood"], best, FIT_REL, f"{what}: log-likelihood")
    slack = 1e-12 * abs(best)
    for factor in (1.0 - PERTURB, 1.0 + PERTURB):
        require(loglik(x * factor, y) <= best + slack, f"{what}: likelihood rises off the fit (1st)")
        require(loglik(x, y * factor) <= best + slack, f"{what}: likelihood rises off the fit (2nd)")
    close(fit["current_intensity"], intensity, FIT_REL, f"{what}: intensity at horizon")
    return intensity


def check_stability(verdict: dict, T: float, windows: int, threshold: float, what: str) -> bool:
    series = verdict["series"]
    require(len(series) == windows, f"{what}: {len(series)} stability windows, expected {windows}")
    for k, (end, _) in enumerate(series, start=1):
        close(end, T * k / windows, REL, f"{what}: window {k} end")
    steps = [abs(cur - prev) / prev for (_, prev), (_, cur) in zip(series, series[1:])]
    close(verdict["max_relative_step"], max(steps), REL, f"{what}: max relative step")
    require(verdict["threshold"] == threshold, f"{what}: threshold {verdict['threshold']!r}")
    require(verdict["stable"] is (max(steps) <= threshold), f"{what}: stable flag disagrees with series")
    return verdict["stable"]


# ---------------------------------------------------------------------------
# Command outputs
# ---------------------------------------------------------------------------


def check_report(data: bytes, exit_code: int, bundle: Bundle) -> dict:
    """A canonical JSON report from ``orcas assess`` on ``bundle``."""
    report = json.loads(data)
    cfg = bundle.config
    T = bundle.horizon
    events = bundle.class_events()

    rates = report["rates"]["per_class"]
    if cfg.get("rate_method", "bounded") == "bounded":
        require(report["growth"] is None, "bounded report carries growth fits")
        for cls, rate in rates.items():
            close(rate, float(Fraction(len(events.get(cls, []))) / T), REL, f"rate of {cls}")
    else:
        growth = report["growth"]
        Tf = float(T)
        windows = cfg.get("stability_windows", 4)
        threshold = cfg.get("stability_threshold", 0.10)
        require(growth["model"] == cfg["srgm_model"], f"growth model {growth['model']!r}")
        require(growth["horizon"] == Tf, f"growth horizon {growth['horizon']!r}")
        require(sorted(growth["per_class"]) == sorted(events), "growth classes differ from the defects")
        stable = []
        for cls, entry in growth["per_class"].items():
            require(entry["events"] == events[cls], f"{cls}: embedded events differ from defects.json")
            intensity = check_fit(entry["fit"], events[cls], Tf, cls)
            close(rates[cls], intensity, FIT_REL, f"rate of {cls}")
            stable.append(check_stability(entry["stability"], Tf, windows, threshold, cls))
        require(growth["all_stable"] is all(stable), "all_stable disagrees with the class verdicts")
        for cls, rate in rates.items():
            require(cls in events or rate == 0.0, f"class {cls} without defects has rate {rate!r}")

    rows = bundle.matrix_rows()
    excluded = bundle.excluded()
    modes = report["modes"]
    require(set(modes["excluded"]) == excluded, f"excluded modes {modes['excluded']!r}")
    per_mode = {m: [] for m in MODES}
    for cls, cells in modes["per_cell"].items():
        rate = rates[cls]
        for i, mode in enumerate(MODES):
            if mode in excluded:
                require(cells[mode] == 0.0, f"excluded cell ({cls}, {mode}) is {cells[mode]!r}")
            else:
                close(cells[mode], rate * rows[cls][i], REL, f"cell ({cls}, {mode})")
            per_mode[mode].append(cells[mode])
        if not excluded and rows is PUBLISHED_MATRIX:
            total = math.fsum(cells.values())
            require(abs(total - rate) <= ROW_SUM_TOLERANCE * rate * (1 + 1e-9),
                    f"cells of {cls} sum to {total!r}, rate {rate!r}")
    require(sorted(modes["per_cell"]) == sorted(c for c, r in rates.items() if r > 0.0),
            "per-cell rows differ from the classes with a nonzero rate")
    for mode in MODES:
        close(modes["per_mode"][mode], math.fsum(per_mode[mode]), REL, f"mode {mode} total")
    expected_total = math.fsum(modes["per_mode"][m] for m in MODES if m not in excluded)
    close(modes["total"], expected_total, REL, "total")

    ev, expected = report["evidence"], expected_evidence(bundle)
    for key in ("rtm_score", "tca_score", "confidence"):
        close(ev[key], expected[key], REL, key)
    for key in ("structural_coverage", "confidence_threshold", "gate"):
        require(ev[key] == expected[key], f"{key} {ev[key]!r}, expected {expected[key]!r}")
    require(exit_code == (2 if expected["gate"] == DEFER else 0), f"exit code {exit_code}")
    gaps = report["gaps"]
    require(gaps["untraced_requirements"] ==
            [e["req_id"] for e in bundle.rtm if e["status"] == "incomplete"], "untraced requirements")
    require(gaps["uncovered_triggers"] ==
            [f"{e['level']}/{e['activity']}/{e['trigger']}" for e in bundle.tca
             if e["status"] == "incomplete"], "uncovered triggers")

    digests = {p.name: "sha256:" + hashlib.sha256(p.read_bytes()).hexdigest()
               for p in bundle.input_files()}
    require(report["provenance"]["inputs"] == digests, "input digests differ from the files")
    return report


def check_vcu_report(data: bytes, exit_code: int, bundle: Bundle) -> None:
    report = check_report(data, exit_code, bundle)
    total = report["modes"]["total"]
    require(f"{total:.3E}" == VCU_TOTAL, f"VCU total {total!r}, published {VCU_TOTAL}")
    confidence = report["evidence"]["confidence"]
    require(round(confidence, 4) == VCU_CONFIDENCE, f"VCU confidence {confidence!r}")
    require(report["evidence"]["gate"] == VCU_GATE and exit_code == 2, "VCU gate")


def check_vcu_text(data: bytes, exit_code: int) -> None:
    text = data.decode("utf-8")
    require(exit_code == 2, f"exit code {exit_code}")
    totals = [line.split() for line in text.splitlines() if line.split()[:1] == ["Total"]]
    require(len(totals) == 1 and totals[0][-1] == VCU_TOTAL, "text total row")
    require(re.search(rf"confidence\s+{VCU_CONFIDENCE}\b", text) is not None, "text confidence")
    require(re.search(rf"gate\s+{VCU_GATE}\b", text) is not None, "text gate")


def check_svg(data: bytes, bundle: Bundle) -> None:
    """One panel per fitted class, each with n+1 observed points."""
    svg = data.decode("utf-8")
    counts = {cls: len(ts) for cls, ts in bundle.class_events().items()}
    panels = re.findall(r"<g\b.*?</g>", svg, flags=re.S)
    require(len(panels) == len(counts), f"{len(panels)} panels for {len(counts)} classes")
    seen = set()
    for panel in panels:
        title = re.search(r">([a-z]+): (goel-okumoto|musa-okumoto) \(", panel)
        require(title is not None, "panel without a class title")
        cls = title.group(1)
        observed = re.search(r'<polyline points="([^"]*)"', panel).group(1).split()
        require(len(observed) == counts[cls] + 1,
                f"{cls}: {len(observed)} observed points for {counts[cls]} events")
        seen.add(cls)
    require(seen == set(counts), "panels do not cover the fitted classes")


def check_validate(stdout: bytes, exit_code: int, bundle: Bundle) -> None:
    require(exit_code == 0, f"exit code {exit_code}")
    found = re.search(rb"^\s*defects: (\d+)\s*$", stdout, flags=re.M)
    require(found is not None and int(found.group(1)) == len(bundle.defects), "defect count")


def check_srgm_fit(data: bytes, history: Path, model: str, windows: int, samples: int) -> None:
    out = json.loads(data)
    spec = load_json(history)
    events, T = spec["events"], float(spec["horizon"])
    require(out["events"] == len(events) and out["horizon"] == T, "event count or horizon")
    fit = out["fit"]
    require(fit["model"] == model, f"model {fit['model']!r}")
    check_fit(fit, events, T, "history")
    check_stability(out["stability"], T, windows, 0.10, "history")
    p = fit["params"]
    mean = ((lambda t: go_mean(t, p["a"], p["b"])) if model == "goel-okumoto"
            else (lambda t: mo_mean(t, p["lambda0"], p["theta"])))
    require(len(out["curve"]) == samples + 1, "curve sample count")
    for k, (x, m) in enumerate(out["curve"]):
        close(x, T * k / samples, REL, f"curve point {k} effort")
        close(m, mean(x), FIT_REL, f"curve point {k} mean")


def check_matrix(data: bytes, corpus: Path) -> None:
    out = json.loads(data)
    rows, counts = corpus_rows(load_json(corpus))
    require(out["provenance"] == f"corpus:{corpus.name}", f"provenance {out['provenance']!r}")
    require(out["counts"] == counts, "mode counts differ from the corpus")
    require(sorted(out["rows"]) == sorted(rows), "matrix classes differ from the corpus")
    for cls, row in rows.items():
        for i, p in enumerate(row):
            close(out["rows"][cls][i], p, REL, f"matrix ({cls}, {MODES[i]})")


def check_converted(data: bytes, log: Path) -> None:
    out = json.loads(data)
    with open(log, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    require(len(out) == len(rows), f"{len(out)} records for {len(rows)} rows")
    for got, row in zip(out, rows):
        effort = float(row["detection_effort"]) if row["detection_effort"] else 0.0
        modes = sorted(m for m in row["observed_modes"].split(";") if m)
        require(got["id"] == row["id"] and got["description"] == row["description"]
                and got["class"] == row["class"], f"record {row['id']}: fields")
        require(got.get("detection_effort", 0.0) == effort, f"record {row['id']}: detection_effort")
        require(sorted(got.get("observed_modes", [])) == modes, f"record {row['id']}: observed_modes")
        require(got.get("resolution") == (row["resolution"] or None), f"record {row['id']}: resolution")


def check_error_line(stderr: bytes, exit_code: int, files: tuple[str, ...]) -> None:
    """A malformed bundle is rejected with one `file: where: reason` line."""
    text = stderr.decode("utf-8", errors="replace")
    require("Traceback" not in text, "traceback on stderr")
    require(exit_code == 1, f"exit code {exit_code}")
    lines = text.splitlines()
    require(len(lines) == 1, f"{len(lines)} stderr lines")
    found = ERROR_LINE.fullmatch(lines[0])
    require(found is not None and found.group("file") in files, f"error line {lines[0]!r}")

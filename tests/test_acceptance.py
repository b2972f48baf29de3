"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one PASS line
per criterion (a failed criterion shows up as a pytest failure).
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from conftest import go_gradient, nhpp_exponential_events
from orcas.bundle import load_rtm_file, load_tca_file, records_from_json
from orcas.causality import CausalityMatrix, builtin_causality, estimate_causality
from orcas.domain import MODE_ORDER, DefectClass, FailureMode, RateUnit
from orcas.evidence import assessment_confidence, score_rtm, score_tca
from orcas.fixtures import vcu_dir
from orcas.growth import (
    SrgmModel,
    fit_srgm,
    go_log_likelihood,
    stability,
)
from orcas.quantify import combine


def round4(x: float) -> float:
    """Round to 4 significant figures."""
    return float(f"{x:.3e}")


def announce(criterion: int, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def test_criterion_1_per_cell_table_reproduction():
    # Built-in matrix, 2 algorithm + 6 checking defects over 10687 hours,
    # mode B excluded: every cell must reproduce the published table.
    rates = {"method": "bounded", "unit": RateUnit.PER_HOUR.value,
             "per_class": {"algorithm": 2 / 10687, "checking": 6 / 10687}}
    result = combine(builtin_causality(), rates, excluded={FailureMode.B})
    printed = {
        DefectClass.ALGORITHM: {"A": 5.989e-5, "B": 0.0, "C": 6.550e-5, "D": 3.556e-5},
        DefectClass.CHECKING: {"A": 2.021e-4, "B": 0.0, "C": 1.437e-4, "D": 7.860e-5},
    }
    for cls, row in printed.items():
        for mode_name, want in row.items():
            got = result["per_cell"][cls.value][mode_name]
            assert abs(got - want) <= 1e-7, (cls, mode_name)
            assert round4(got) == want, (cls, mode_name)
    assert round4(result["total"]) == 5.854e-4
    announce(1, "published per-cell table reproduced at 4 significant figures")


def test_criterion_2_builtin_matrix_integrity():
    matrix = builtin_causality()
    assert len(matrix.rows) == 6
    for cls in sorted(matrix.rows):
        assert abs(sum(matrix.row(cls)) - 1.0) <= 5e-4, cls
    assert matrix.row(DefectClass.ASSIGNMENT)[MODE_ORDER.index(FailureMode.B)] == 0.667
    announce(2, "row sums within 5e-4 of 1.000; assignment/B is 0.667 as printed")


def test_criterion_3_evidence_scores():
    rtm = load_rtm_file(vcu_dir() / "rtm.json")
    tca = load_tca_file(vcu_dir() / "tca.json")
    rtm_score = score_rtm(rtm)
    tca_score = score_tca(tca)
    assert rtm_score == 0.70
    assert tca_score == 12.5 / 15
    summary = assessment_confidence(rtm_score, tca_score, 1.0)
    assert abs(summary["confidence"] - 0.7667) <= 1e-4
    announce(3, "RTM 0.70, TCA 12.5/15, confidence 0.7667 +/- 1e-4")


def test_criterion_4_corpus_estimator_matches_rational_oracle():
    rng = random.Random(0)
    classes = list(DefectClass)
    modes = list(FailureMode)
    for trial in range(100):
        size = rng.randint(1, 200)
        corpus = []
        for i in range(size):
            labeled = rng.sample(modes, rng.randint(1, 4))
            corpus.append({"id": f"t{trial}-r{i}", "description": "", "class": rng.choice(classes).value,
                           "observed_modes": [mode.value for mode in labeled]})
        matrix = estimate_causality(records_from_json("corpus.json", corpus))
        # Independent tally in exact rational arithmetic.
        tallies: dict[DefectClass, list[int]] = {}
        for record in corpus:
            row = tallies.setdefault(DefectClass(record["class"]), [0, 0, 0, 0])
            for mode in record["observed_modes"]:
                row[MODE_ORDER.index(FailureMode(mode))] += 1
        assert set(matrix.rows) == set(tallies)
        for cls, counts in tallies.items():
            total = sum(counts)
            for got, count in zip(matrix.row(cls), counts):
                assert abs(got - float(Fraction(count, total))) <= 1e-12
    announce(4, "100 random corpora match the exact rational tally at 1e-12")


def test_criterion_5_srgm_parameter_recovery():
    # Each dataset superposes 4 independent replicates of the stated
    # (a=50, b=0.02) process over 300 effort units; the superposition is
    # again exponential-mean with a=200, b=0.02, and gives every dataset
    # the >= 100 events the error bound needs.
    started = time.monotonic()
    rng = random.Random(0)
    replicates, a_component, b_true, horizon = 4, 50.0, 0.02, 300.0
    a_true = replicates * a_component
    errors_a, errors_b = [], []
    for _ in range(20):
        events = sorted(
            t for _ in range(replicates)
            for t in nhpp_exponential_events(a_component, b_true, horizon, rng)
        )
        assert len(events) >= 100
        fit = fit_srgm(events, SrgmModel.GOEL_OKUMOTO, horizon=horizon)
        assert fit["converged"]
        a_hat, b_hat = fit["params"]["a"], fit["params"]["b"]
        errors_a.append(abs(a_hat - a_true) / a_true)
        errors_b.append(abs(b_hat - b_true) / b_true)

        # Analytic gradient at the optimum vs central finite differences.
        d_a, d_b = go_gradient(events, horizon, a_hat, b_hat)
        assert abs(d_a) <= 1e-6 and abs(d_b) <= 1e-6
        h_a, h_b = a_hat * 1e-6, b_hat * 1e-6
        fd_a = (go_log_likelihood(events, horizon, a_hat + h_a, b_hat)
                - go_log_likelihood(events, horizon, a_hat - h_a, b_hat)) / (2 * h_a)
        fd_b = (go_log_likelihood(events, horizon, a_hat, b_hat + h_b)
                - go_log_likelihood(events, horizon, a_hat, b_hat - h_b)) / (2 * h_b)
        assert abs(d_a - fd_a) <= 1e-4 * max(1.0, abs(d_a), abs(fd_a))
        assert abs(d_b - fd_b) <= 1e-4 * max(1.0, abs(d_b), abs(fd_b))

    median_a = sorted(errors_a)[len(errors_a) // 2]
    median_b = sorted(errors_b)[len(errors_b) // 2]
    assert median_a <= 0.10, f"median relative error of a: {median_a:.4f}"
    assert median_b <= 0.10, f"median relative error of b: {median_b:.4f}"
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    announce(5, f"20 datasets: median errors a {median_a:.3f}, b {median_b:.3f}; "
                f"gradients agree with finite differences; {elapsed:.1f}s")


def test_criterion_6_stability_rule():
    drifting = stability([(1.0, 100.0), (2.0, 105.0), (3.0, 103.0)], threshold=0.10)
    assert drifting["stable"] and drifting["max_relative_step"] == pytest.approx(0.05)
    jumping = stability([(1.0, 100.0), (2.0, 120.0)], threshold=0.10)
    assert not jumping["stable"] and jumping["max_relative_step"] == pytest.approx(0.20)
    constant = stability([(1.0, 42.0), (2.0, 42.0), (3.0, 42.0)], threshold=0.0)
    assert constant["stable"]
    near_constant = stability([(1.0, 42.0), (2.0, 42.0 + 1e-9)], threshold=0.0)
    assert not near_constant["stable"]
    announce(6, "10% rule verdicts and the zero-threshold edge case")


def test_criterion_7_pipeline_determinism_and_exit_codes():
    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "orcas", *map(str, args)], capture_output=True)

    first = run("assess", vcu_dir())
    second = run("assess", vcu_dir())
    assert first.stdout == second.stdout
    assert first.returncode == 2
    assert json.loads(first.stdout)["evidence"]["gate"] == "defer-to-BAHAMAS"
    relaxed = run("assess", vcu_dir(), "--confidence-threshold", "0.70")
    assert relaxed.returncode == 0
    assert json.loads(relaxed.stdout)["evidence"]["gate"] == "proceed"
    announce(7, "byte-identical JSON; exit 2 at threshold 0.90, exit 0 at 0.70")


def test_criterion_8_combine_linearity():
    rng = random.Random(0)
    classes = list(DefectClass)
    for _ in range(200):
        chosen = rng.sample(classes, rng.randint(1, len(classes)))
        rows = {}
        for cls in chosen:
            raw = [rng.uniform(0.01, 1.0) for _ in MODE_ORDER]
            total = sum(raw)
            rows[cls] = tuple(v / total for v in raw)
        matrix = CausalityMatrix(rows=rows, provenance="random")
        r1 = {cls: rng.uniform(0.0, 100.0) for cls in chosen}
        r2 = {cls: rng.uniform(0.0, 100.0) for cls in chosen}

        def rates_of(mapping):
            return {"method": "bounded", "unit": RateUnit.PER_HOUR.value,
                    "per_class": {cls.value: rate for cls, rate in mapping.items()}}

        combined = combine(matrix, rates_of({c: r1[c] + r2[c] for c in chosen}))
        first = combine(matrix, rates_of(r1))
        second = combine(matrix, rates_of(r2))
        for cls, row in combined["per_cell"].items():
            for mode in row:
                lhs = row[mode]
                rhs = (first["per_cell"].get(cls, {mode: 0.0})[mode]
                       + second["per_cell"].get(cls, {mode: 0.0})[mode])
                assert abs(lhs - rhs) <= 1e-12
    announce(8, "200 random matrix/rate pairs: cell-wise additivity at 1e-12")

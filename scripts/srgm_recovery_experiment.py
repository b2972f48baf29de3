#!/usr/bin/env python3
"""Parameter-recovery experiment for the exponential growth model.

Samples synthetic detection histories by inverting the known mean
function over unit-rate Poisson arrivals (independent of the fitter),
fits each dataset, and tabulates the relative errors of the recovered
parameters. This is the study behind the fitting acceptance criterion.

Usage: python scripts/srgm_recovery_experiment.py [seed] [datasets]
"""

import math
import random
import statistics
import sys

from orcas.growth import SrgmModel, fit_srgm


def nhpp_exponential_events(a: float, b: float, horizon: float, rng: random.Random) -> list[float]:
    """Arrival efforts of the exponential-mean process on [0, horizon]:
    unit-rate Poisson partial sums through the inverse mean function. The
    tests use it as the oracle of the fitter."""
    events: list[float] = []
    s = 0.0
    ceiling = a * -math.expm1(-b * horizon)
    while True:
        s += rng.expovariate(1.0)
        if s >= ceiling:
            return events
        events.append(-math.log(1.0 - s / a) / b)


def main() -> int:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 0
    datasets = int(sys.argv[2]) if len(sys.argv) > 2 else 20
    rng = random.Random(seed)
    replicates, a_component, b_true, horizon = 4, 50.0, 0.02, 300.0
    a_true = replicates * a_component

    print(f"truth: a={a_true} (x{replicates} replicates of {a_component}), "
          f"b={b_true}, horizon={horizon}, seed={seed}")
    print(f"{'n':>5} {'a_hat':>10} {'b_hat':>10} {'err(a)':>8} {'err(b)':>8}")
    errors_a, errors_b = [], []
    for _ in range(datasets):
        events = sorted(
            t for _ in range(replicates)
            for t in nhpp_exponential_events(a_component, b_true, horizon, rng))
        fit = fit_srgm(events, SrgmModel.GOEL_OKUMOTO, horizon=horizon)
        a_hat, b_hat = fit["params"]["a"], fit["params"]["b"]
        err_a = abs(a_hat - a_true) / a_true
        err_b = abs(b_hat - b_true) / b_true
        errors_a.append(err_a)
        errors_b.append(err_b)
        print(f"{len(events):>5} {a_hat:>10.3f} {b_hat:>10.6f} {err_a:>8.3f} {err_b:>8.3f}")

    print(f"\nmedian relative error: a {statistics.median(errors_a):.4f}, "
          f"b {statistics.median(errors_b):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

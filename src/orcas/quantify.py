"""Combine the causality matrix with per-class rates into per-mode rates.

Each (class, mode) cell is the class rate times the conditional
probability of the mode given the class; mode totals sum the cells over
classes, and the overall figure sums the non-excluded modes. Excluded
modes are zeroed outright, never redistributed, so every remaining cell
stays exactly matrix * rate. Outputs carry the rate's unit (per hour or
per demand); they are expected rates, not probabilities capped at 1.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping

from .domain import MODE_ORDER, FailureMode, Name
from .errors import OrcasError
from .causality import CausalityMatrix


class SystemKind(Name):
    CONTROL = "control"
    CONTINUOUS_MONITORING = "continuous-monitoring"
    CUSTOM = "custom"


def mode_applicability(
    system_kind: SystemKind,
    custom_excluded: frozenset[FailureMode] | set[FailureMode] | None = None,
) -> frozenset[FailureMode]:
    """Failure modes that do not apply to this kind of system.

    Continuous-monitoring systems exclude mode B (output always needed,
    so "provided when not needed" cannot occur); control systems exclude
    nothing; custom passes the caller's set through.
    """
    if system_kind == SystemKind.CUSTOM:
        if custom_excluded is None:
            raise OrcasError("system kind 'custom' requires an explicit excluded-modes set")
        return frozenset(custom_excluded)
    if custom_excluded is not None:
        raise OrcasError(f"excluded modes may only be given for system kind 'custom', not {system_kind!r}")
    if system_kind == SystemKind.CONTINUOUS_MONITORING:
        return frozenset({FailureMode.B})
    return frozenset()


def mode_sums(per_cell: Mapping[str, Mapping[str, float]], excluded: list[str]) -> dict:
    """The margins of a report's ``modes`` section: ``per_mode`` (column
    sums over classes), ``per_class_total`` (row sums over modes) and
    ``total`` (the sum of the modes not in ``excluded``). Each is an fsum,
    correctly rounded whatever the order of its terms, so a saved report's
    margins equal these bit for bit."""
    per_mode = {mode: math.fsum(row[mode] for row in per_cell.values()) for mode in MODE_ORDER}
    return {
        "per_mode": per_mode,
        "per_class_total": {cls: math.fsum(row[mode] for mode in MODE_ORDER) for cls, row in per_cell.items()},
        "total": math.fsum(per_mode[mode] for mode in MODE_ORDER if mode not in excluded),
    }


def combine(
    matrix: CausalityMatrix,
    rates: dict,
    excluded: Iterable[FailureMode] = frozenset(),
) -> dict:
    """Apply the conditional-probability matrix to the class rates, the
    report's ``rates`` section (its ``per_class`` and ``unit``).

    Returns the report's ``modes`` section, keyed by class and mode names:
    ``per_cell`` has a row for every class with a nonzero rate, excluded
    modes are exact zeros, and its margins are those of :func:`mode_sums`.
    The rate stages make each rate finite and nonnegative. Every class with a nonzero
    rate must have a matrix row; a missing one raises rather than dropping its contribution.
    """
    excluded = frozenset(excluded)
    per_cell: dict[str, dict[str, float]] = {}
    for name, rate in sorted(rates["per_class"].items()):
        if rate == 0.0:
            continue
        row = matrix.row(name)
        per_cell[name] = {mode: 0.0 if mode in excluded else p * rate for mode, p in zip(MODE_ORDER, row)}
    names = sorted(excluded)
    return {"unit": rates["unit"], "excluded": names, "per_cell": per_cell, **mode_sums(per_cell, names)}

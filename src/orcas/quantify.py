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
from enum import Enum
from typing import Mapping

from .domain import MODE_ORDER, FailureMode
from .errors import MissingCausalityRowError, OrcasError
from .causality import CausalityMatrix
from .growth import ClassRates


class SystemKind(str, Enum):
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
    if system_kind is SystemKind.CUSTOM:
        if custom_excluded is None:
            raise OrcasError("system kind 'custom' requires an explicit excluded-modes set")
        return frozenset(custom_excluded)
    if custom_excluded is not None:
        raise OrcasError(f"excluded modes may only be given for system kind 'custom', not {system_kind.value!r}")
    if system_kind is SystemKind.CONTINUOUS_MONITORING:
        return frozenset({FailureMode.B})
    return frozenset()


# The failure modes by their names in a report, in column order.
_MODES = tuple(mode.value for mode in MODE_ORDER)


def mode_sums(per_cell: Mapping[str, Mapping[str, float]], excluded: list[str]) -> dict:
    """The margins of a report's ``modes`` section: ``per_mode`` (column
    sums over classes), ``per_class_total`` (row sums over modes) and
    ``total`` (the sum of the modes not in ``excluded``). Each is an fsum,
    correctly rounded whatever the order of its terms, so a saved report's
    margins equal these bit for bit."""
    per_mode = {mode: math.fsum(row[mode] for row in per_cell.values()) for mode in _MODES}
    return {
        "per_mode": per_mode,
        "per_class_total": {cls: math.fsum(row[mode] for mode in _MODES) for cls, row in per_cell.items()},
        "total": math.fsum(per_mode[mode] for mode in _MODES if mode not in excluded),
    }


def combine(
    matrix: CausalityMatrix,
    rates: ClassRates,
    excluded: frozenset[FailureMode] | set[FailureMode] = frozenset(),
) -> dict:
    """Apply the conditional-probability matrix to the class rates.

    Returns the report's ``modes`` section, keyed by class and mode names:
    ``per_cell`` has a row for every class with a nonzero rate, excluded
    modes are exact zeros, and its margins are those of :func:`mode_sums`.
    Every class with a nonzero rate must have a matrix row; a missing row
    raises rather than silently dropping that class's contribution.
    """
    excluded = frozenset(excluded)
    per_cell: dict[str, dict[str, float]] = {}
    for cls in rates.nonzero_classes():
        if not matrix.has_row(cls):
            raise MissingCausalityRowError(cls)
        row = matrix.row(cls)
        rate = rates[cls]
        per_cell[cls.value] = {
            mode.value: 0.0 if mode in excluded else row[i] * rate
            for i, mode in enumerate(MODE_ORDER)
        }
    names = sorted(mode.value for mode in excluded)
    return {"unit": rates.unit.value, "excluded": names, "per_cell": per_cell, **mode_sums(per_cell, names)}

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

from .domain import MODE_ORDER, DefectClass, FailureMode, FrozenRecord, RateUnit
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


class ModeProbabilities(FrozenRecord):
    """Per-mode and per-cell failure rates plus their total.

    ``per_cell`` has a row for every class with a nonzero rate; excluded
    modes appear as exact zeros everywhere and contribute nothing to the
    total.
    """

    __slots__ = ("per_cell", "per_mode", "total", "excluded_modes", "unit")
    per_cell: Mapping[DefectClass, Mapping[FailureMode, float]]
    per_mode: Mapping[FailureMode, float]
    total: float
    excluded_modes: frozenset[FailureMode]
    unit: RateUnit

    def per_class_total(self) -> dict[DefectClass, float]:
        """Row margin: each class's summed contribution over modes."""
        return {cls: math.fsum(row[mode] for mode in MODE_ORDER) for cls, row in self.per_cell.items()}

    def classes(self) -> tuple[DefectClass, ...]:
        return tuple(sorted(self.per_cell, key=lambda c: c.value))

    def to_dict(self) -> dict:
        return {
            "unit": self.unit.value,
            "excluded": sorted(m.value for m in self.excluded_modes),
            "per_cell": {
                cls.value: {mode.value: self.per_cell[cls][mode] for mode in MODE_ORDER}
                for cls in self.classes()
            },
            "per_mode": {mode.value: self.per_mode[mode] for mode in MODE_ORDER},
            "per_class_total": {cls.value: total for cls, total in sorted(
                self.per_class_total().items(), key=lambda kv: kv[0].value)},
            "total": self.total,
        }


def combine(
    matrix: CausalityMatrix,
    rates: ClassRates,
    excluded: frozenset[FailureMode] | set[FailureMode] = frozenset(),
) -> ModeProbabilities:
    """Apply the conditional-probability matrix to the class rates.

    Every class with a nonzero rate must have a matrix row; a missing row
    raises rather than silently dropping that class's contribution.
    """
    excluded = frozenset(excluded)
    per_cell: dict[DefectClass, dict[FailureMode, float]] = {}
    for cls in rates.nonzero_classes():
        if not matrix.has_row(cls):
            raise MissingCausalityRowError(cls)
        row = matrix.row(cls)
        rate = rates[cls]
        per_cell[cls] = {
            mode: 0.0 if mode in excluded else row[i] * rate
            for i, mode in enumerate(MODE_ORDER)
        }
    per_mode = {
        mode: math.fsum(per_cell[cls][mode] for cls in per_cell)
        for mode in MODE_ORDER
    }
    total = math.fsum(per_mode[mode] for mode in MODE_ORDER if mode not in excluded)
    return ModeProbabilities(
        per_cell=per_cell,
        per_mode=per_mode,
        total=total,
        excluded_modes=excluded,
        unit=rates.unit,
    )

"""Conditional probabilities of failure modes given a defect class.

A :class:`CausalityMatrix` maps each defect class to a 4-vector of
probabilities over failure modes A-D. The built-in matrix carries the
reference values estimated from a 402-report corpus of labeled
open-source defects; project-specific matrices can be estimated from any
labeled corpus or loaded from file. Rows may be absent for classes with
no data: lookups on absent rows raise, they never return silent zeros.
"""

from __future__ import annotations

from collections import Counter
from typing import Mapping, NamedTuple

from .domain import MODE_ORDER, DefectClass, Records
from .errors import OrcasError

#: Printed probabilities are rounded to 3 decimals, so row sums may be off
#: by up to half a unit in the last place per entry.
ROW_SUM_TOLERANCE = 5e-4

BUILTIN_PROVENANCE = "built-in"

# Reference matrix, stored exactly as published (3 decimals, rows
# normalized over modes A-D). There is no relationship row: the source
# corpus contained no relationship defects.
_BUILTIN_ROWS: dict[DefectClass, tuple[float, float, float, float]] = {
    DefectClass.ALGORITHM: (0.320, 0.140, 0.350, 0.190),
    DefectClass.ASSIGNMENT: (0.288, 0.667, 0.045, 0.000),
    DefectClass.CHECKING: (0.360, 0.244, 0.256, 0.140),
    DefectClass.FUNCTION: (0.389, 0.222, 0.241, 0.148),
    DefectClass.INTERFACE: (0.347, 0.533, 0.080, 0.040),
    DefectClass.TIMING: (0.190, 0.048, 0.524, 0.238),
}


class CausalityMatrix(NamedTuple):
    """Row-stochastic map from defect class to failure-mode probabilities.

    ``rows`` holds a 4-tuple per class, indexed by :data:`MODE_ORDER`.
    ``counts`` preserves the raw (class, mode) tallies when the matrix was
    estimated from a corpus. The stages build valid matrices, and
    ``bundle.load_matrix_file`` checks a loaded one.
    """

    rows: Mapping[DefectClass, tuple[float, float, float, float]]
    provenance: str
    counts: Mapping[DefectClass, tuple[int, int, int, int]] | None = None

    def row(self, defect_class: DefectClass) -> tuple[float, float, float, float]:
        try:
            return self.rows[defect_class]
        except KeyError:
            raise OrcasError(f"no causality row: {defect_class}") from None

    def to_dict(self) -> dict:
        out: dict = {
            "provenance": self.provenance,
            "rows": {cls: list(row) for cls, row in sorted(self.rows.items())},
        }
        if self.counts is not None:
            out["counts"] = {cls: list(row) for cls, row in sorted(self.counts.items())}
        return out


def builtin_causality() -> CausalityMatrix:
    """The built-in six-class reference matrix (no relationship row)."""
    return CausalityMatrix(rows=dict(_BUILTIN_ROWS), provenance=BUILTIN_PROVENANCE)


def estimate_causality(corpus: Records, provenance: str | None = None) -> CausalityMatrix:
    """Estimate the matrix from a labeled corpus by per-mode counting.

    Each record contributes one count to every (class, mode) cell named by
    its observed modes; rows are then normalized per class, so multi-label
    records spread their row mass across all modes they caused. Classes
    with no records get no row. The corpus loader refuses an empty corpus and unlabeled records.
    """
    labels = Counter(zip(corpus.columns["defect_class"], corpus.columns["observed_modes"]))
    counts: dict[DefectClass, list[int]] = {}
    for (cls, modes), number in labels.items():
        row = counts.setdefault(cls, [0, 0, 0, 0])
        for mode in modes:
            row[MODE_ORDER.index(mode)] += number
    rows = {}
    for cls, row in counts.items():
        total = sum(row)
        rows[cls] = tuple(c / total for c in row)
    if provenance is None:
        provenance = f"corpus ({len(corpus)} records)"
    return CausalityMatrix(
        rows=rows,
        provenance=provenance,
        counts={cls: tuple(row) for cls, row in counts.items()},
    )

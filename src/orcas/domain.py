"""Core vocabularies and record types shared by every other module.

Each vocabulary (defect classes, failure modes, ...) is a :class:`Name`
enum, whose member equals, hashes, prints, formats and quotes as its name
in the files and the report: the stages take members and the names of a
saved report alike, and only input parsing calls a vocabulary, to refuse
a name outside it. The loaders return members, not names, as callers
outside the package read ``value`` (the benchmark's tracer among them).

The record types are named tuples, here and in :mod:`orcas.causality`
and :mod:`orcas.bundle`, and check nothing when built: the loaders of
:mod:`orcas.bundle` check every input, and the stages build only valid
values. No instance of a type here is changed after construction, so
instances are safe to share across threads.
"""

from __future__ import annotations

from collections import Counter
from enum import Enum
from itertools import repeat
from typing import Iterator, NamedTuple


class Name(str, Enum):
    """A vocabulary whose members are their names."""

    __str__, __format__, __repr__ = str.__str__, str.__format__, str.__repr__


class DefectClass(Name):
    """Orthogonal defect classes; a defect carries exactly one."""

    FUNCTION = "function"
    ASSIGNMENT = "assignment"
    ALGORITHM = "algorithm"
    CHECKING = "checking"
    INTERFACE = "interface"
    RELATIONSHIP = "relationship"
    TIMING = "timing"


class FailureMode(Name):
    """Failure-mode categories A through D.

    The same four categories describe both unsafe control actions and
    unsafe information flows; reports attach a display-only mode family
    (control vs information) to pick the label.
    """

    A = "A"
    B = "B"
    C = "C"
    D = "D"


#: Failure modes in canonical column order.
MODE_ORDER: tuple[FailureMode, ...] = tuple(FailureMode)


class TriggerKind(Name):
    """Environmental/input condition categories that surface defects."""

    SIMPLE_PATH = "simple-path"
    COMPLEX_PATH = "complex-path"
    COVERAGE = "coverage"
    VARIATION = "variation"
    SEQUENCE = "sequence"
    INTERACTION = "interaction"
    WORKLOAD_STRESS = "workload-stress"
    RECOVERY_EXCEPTION = "recovery-exception"
    CONFIGURATION = "configuration"
    STARTUP_RESTART = "startup-restart"
    NORMAL_MODE = "normal-mode"


class TestLevel(Name):
    """Tiers of the three-level testing-requirements model."""

    __test__ = False  # not a pytest class, despite the name

    COMPONENT = "component"
    SUBSYSTEM = "subsystem"
    SYSTEM = "system"


class EffortKind(Name):
    ON_DEMAND = "on-demand"
    CONTINUOUS = "continuous"


class RateUnit(Name):
    PER_HOUR = "per-hour"
    PER_DEMAND = "per-demand"


class ModeFamily(Name):
    """Display-only label: do modes read as control actions or as
    information/feedback flows."""

    CONTROL = "control"
    INFORMATION = "information"


class DefectRecord(NamedTuple):
    """One classified defect, as a row of :class:`Records`.

    ``detection_effort`` is the cumulative testing effort at which the
    defect was detected, in the same unit as the project's effort model
    (hours or demands). ``observed_modes`` is empty for project defects;
    corpus records used for causality estimation must label at least one
    observed failure mode.
    """

    id: str
    description: str
    defect_class: DefectClass
    detection_effort: float
    observed_modes: frozenset[FailureMode] = frozenset()
    resolution: str | None = None

    def to_dict(self) -> dict:
        out: dict = {
            "id": self.id,
            "description": self.description,
            "class": self.defect_class,
            "detection_effort": self.detection_effort,
            "observed_modes": sorted(self.observed_modes),
        }
        if self.resolution is not None:
            out["resolution"] = self.resolution
        return out


class Records:
    """The records of one input array, kept as columns: ``columns`` maps
    one or more fields of the ``row`` type to their values in record order.
    A file reader keeps every field; an
    :class:`orcas.bundle.AssessmentBundle` keeps only those its stages read.
    ``len`` is the record count, the length of any column. Iterating or
    indexing builds ``row`` tuples from the columns on demand, with None
    for a field not kept; a slice is the records it selects."""

    __slots__ = ("row", "columns")

    def __init__(self, row: type, columns: dict[str, list]) -> None:
        self.row, self.columns = row, columns

    def __len__(self) -> int:
        return len(next(iter(self.columns.values())))

    def __iter__(self) -> Iterator:
        return map(self.row._make, zip(*(self.columns.get(name, repeat(None)) for name in self.row._fields)))

    def __getitem__(self, index: int | slice):
        if isinstance(index, slice):
            return Records(self.row, {name: column[index] for name, column in self.columns.items()})
        return self.row._make([self.columns[name][index] if name in self.columns else None
                               for name in self.row._fields])

    def __eq__(self, other) -> bool:
        return type(other) is Records and (self.row, self.columns) == (other.row, other.columns)


class EffortModel(NamedTuple):
    """Total testing effort: a test count, plus hours per test for
    continuous-operation software.

    ``test_duration`` is given for the continuous kind and is None for
    on-demand (demand counts have no duration); ``bundle.load_effort_file``
    checks both, and that ``test_count`` is positive.
    """

    kind: EffortKind
    test_count: int
    test_duration: float | None = None

    @property
    def rate_unit(self) -> RateUnit:
        return RateUnit.PER_HOUR if self.kind == EffortKind.CONTINUOUS else RateUnit.PER_DEMAND


def total_effort(model: EffortModel) -> float:
    """Total testing effort: demands for on-demand, hours (count x
    duration) for continuous."""
    if model.kind == EffortKind.ON_DEMAND:
        return float(model.test_count)
    return model.test_count * model.test_duration


def count_by_class(defects: Records) -> dict[DefectClass, int]:
    """Number of defects per class, with zero entries for unseen classes."""
    counts = Counter(defects.columns["defect_class"])
    return {cls: counts[cls] for cls in DefectClass}

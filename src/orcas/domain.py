"""Core vocabularies and record types shared by every other module.

No instance of a type here is changed after construction, so instances
are safe to share across threads.
"""

from __future__ import annotations

import math
from collections import Counter
from enum import Enum
from typing import Iterator, NamedTuple


class DefectClass(str, Enum):
    """Orthogonal defect classes; a defect carries exactly one."""

    FUNCTION = "function"
    ASSIGNMENT = "assignment"
    ALGORITHM = "algorithm"
    CHECKING = "checking"
    INTERFACE = "interface"
    RELATIONSHIP = "relationship"
    TIMING = "timing"


class FailureMode(str, Enum):
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
MODE_ORDER: tuple[FailureMode, ...] = (
    FailureMode.A,
    FailureMode.B,
    FailureMode.C,
    FailureMode.D,
)


class TriggerKind(str, Enum):
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


class TestLevel(str, Enum):
    """Tiers of the three-level testing-requirements model."""

    __test__ = False  # not a pytest class, despite the name

    COMPONENT = "component"
    SUBSYSTEM = "subsystem"
    SYSTEM = "system"


class EffortKind(str, Enum):
    ON_DEMAND = "on-demand"
    CONTINUOUS = "continuous"


class RateUnit(str, Enum):
    PER_HOUR = "per-hour"
    PER_DEMAND = "per-demand"


class ModeFamily(str, Enum):
    """Display-only label: do modes read as control actions or as
    information/feedback flows."""

    CONTROL = "control"
    INFORMATION = "information"


def _require_finite(value: float, what: str) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{what} must be finite, got {value!r}")
    return value


class FrozenRecord:
    """Base of the immutable record types.

    A subclass names its fields in ``__slots__`` and the defaults of
    trailing fields in ``_defaults``. ``__init__`` takes the fields by
    position or name, then runs ``__post_init__`` to check them (it may
    normalize one with ``object.__setattr__``). Instances compare, hash and
    print by field values; setting or deleting an attribute raises
    :class:`AttributeError`.
    """

    __slots__ = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs) -> None:
        names = self.__slots__
        values = {**self._defaults, **dict(zip(names, args)), **kwargs}
        if (len(args) > len(names) or not kwargs.keys() <= set(names[len(args):])
                or len(values) < len(names)):
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(names)}, each once; "
                            f"all but {', '.join(self._defaults) or 'none'} are required")
        for name in names:
            object.__setattr__(self, name, values[name])
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._values()))
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")

    __delattr__ = __setattr__


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
            "class": self.defect_class.value,
            "detection_effort": self.detection_effort,
            "observed_modes": sorted(m.value for m in self.observed_modes),
        }
        if self.resolution is not None:
            out["resolution"] = self.resolution
        return out


class Records:
    """The records of one input array, kept as the columns its field table
    checked: ``columns`` maps each field of the ``row`` type to its values
    in record order. ``len`` is the record count. Iterating or indexing
    builds ``row`` tuples from the columns on demand; a slice is the
    records it selects."""

    __slots__ = ("row", "columns")

    def __init__(self, row: type, columns: dict[str, list]) -> None:
        self.row, self.columns = row, columns

    def __len__(self) -> int:
        return len(self.columns[self.row._fields[0]])

    def __iter__(self) -> Iterator:
        return map(self.row._make, zip(*map(self.columns.__getitem__, self.row._fields)))

    def __getitem__(self, index: int | slice):
        if isinstance(index, slice):
            return Records(self.row, {name: column[index] for name, column in self.columns.items()})
        return self.row._make([self.columns[name][index] for name in self.row._fields])

    def __eq__(self, other) -> bool:
        return type(other) is Records and (self.row, self.columns) == (other.row, other.columns)


class EffortModel(FrozenRecord):
    """Total testing effort: a test count, plus hours per test for
    continuous-operation software.

    ``test_duration`` is required for the continuous kind and must be
    omitted for on-demand (demand counts have no duration).
    """

    __slots__ = ("kind", "test_count", "test_duration")
    _defaults = {"test_duration": None}
    kind: EffortKind
    test_count: int
    test_duration: float | None

    def __post_init__(self) -> None:
        if not isinstance(self.kind, EffortKind):
            raise ValueError(f"kind must be an EffortKind, got {self.kind!r}")
        if not isinstance(self.test_count, int) or isinstance(self.test_count, bool):
            raise ValueError(f"test_count must be an integer, got {self.test_count!r}")
        if self.test_count <= 0:
            raise ValueError(f"test_count must be positive, got {self.test_count}")
        if self.kind is EffortKind.CONTINUOUS:
            if self.test_duration is None:
                raise ValueError("continuous effort requires test_duration (hours per test)")
            duration = _require_finite(self.test_duration, "test_duration")
            if duration <= 0:
                raise ValueError(f"test_duration must be positive, got {duration!r}")
            object.__setattr__(self, "test_duration", duration)
        elif self.test_duration is not None:
            raise ValueError("on-demand effort takes no test_duration; remove it or use kind=continuous")

    @property
    def rate_unit(self) -> RateUnit:
        return RateUnit.PER_HOUR if self.kind is EffortKind.CONTINUOUS else RateUnit.PER_DEMAND


def total_effort(model: EffortModel) -> float:
    """Total testing effort: demands for on-demand, hours (count x
    duration) for continuous."""
    if model.kind is EffortKind.ON_DEMAND:
        return float(model.test_count)
    return model.test_count * model.test_duration


def count_by_class(defects: Records) -> dict[DefectClass, int]:
    """Number of defects per class, with zero entries for unseen classes."""
    counts = Counter(defects.columns["defect_class"])
    return {cls: counts[cls] for cls in DefectClass}

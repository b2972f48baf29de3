"""Dataset directory loading and validation.

An assessment bundle is a directory of UTF-8 JSON files, each described
below by a table of field entries:

  defects.json   array of defect records (_DEFECT_FIELDS)
  effort.json    the testing effort (_EFFORT_FIELDS)
  rtm.json       nonempty array of requirements (_RTM_FIELDS)
  tca.json       array of trigger-coverage slots (_TCA_FIELDS) that
                 covers the 15-slot template exactly
  config.json    assessment options (_CONFIG_FIELDS)
  matrix.json    optional causality matrix (_MATRIX_FIELDS)
  corpus.json    optional labeled corpus (_CORPUS_FIELDS): defect
                 records that each label an observed failure mode

Every file is parsed and its records and cross-references validated
here; the first violation raises :class:`BundleError` naming the file,
the entry, and the reason. No partial loads. A class history that the
growth model cannot fit (too few events for the stability windows, or no
growth signal) is found by the fit itself, in the rates stage of
:func:`orcas.report.run_assessment`, which raises it as a
:class:`BundleError` of the same form; ``orcas validate`` runs both.

Every input of the tool, the CSV defect log and a saved report included,
is read and decoded by :func:`_read_text`, which drops the bytes before it returns,
and, if JSON, parsed by :func:`_parse_json` and checked by a table of the field kinds below.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import sys
from itertools import repeat
from operator import itemgetter
from pathlib import Path
from types import NoneType
from typing import Any, NamedTuple

from . import causality as causality_mod
from .causality import ROW_SUM_TOLERANCE, CausalityMatrix
from .domain import (
    MODE_ORDER,
    DefectClass,
    DefectRecord,
    EffortKind,
    EffortModel,
    FailureMode,
    ModeFamily,
    Records,
    TestLevel,
    TriggerKind,
    total_effort,
)
from .errors import BundleError, OrcasError
from .evidence import (ACTIVITIES, DEFAULT_CONFIDENCE_THRESHOLD, CoverageStatus, RtmEntry, TcaEntry,
                       validate_tca_entries)
from .growth import DEFAULT_STABILITY_THRESHOLD, RateMethod, SrgmModel
from .quantify import SystemKind, mode_applicability

REQUIRED_FILES = ("defects.json", "effort.json", "rtm.json", "tca.json", "config.json")

DEFAULT_STABILITY_WINDOWS = 4
BUILTIN_MATRIX_SOURCE = "builtin"
CORPUS_SOURCE_PREFIX = "corpus:"


class AssessmentBundle(NamedTuple):
    """A fully validated dataset plus effective assessment options.

    Of the record arrays it keeps the columns the stages read: of the
    defects ``id``, ``defect_class``, ``detection_effort`` and
    ``observed_modes``, of the RTM ``req_id`` and ``status``, and every TCA
    column. A defect's ``description`` and ``resolution`` and a
    requirement's ``description`` are checked, not kept: their rows read
    them as None. The file readers (:func:`load_defects_file` and the rest)
    keep every field."""

    defects: Records
    effort: EffortModel
    rtm: Records
    tca: Records
    structural_coverage: float
    matrix: CausalityMatrix
    matrix_source: str
    system_kind: SystemKind
    excluded_modes: frozenset[FailureMode]
    mode_family: ModeFamily
    confidence_threshold: float
    stability_threshold: float
    rate_method: RateMethod
    srgm_model: SrgmModel
    stability_windows: int
    uniform_missing_rows: bool
    rtm_weight: float
    tca_weight: float
    input_digests: dict[str, str]


# ---------------------------------------------------------------------------
# Parsing helpers
# ---------------------------------------------------------------------------


def _fail(file: str, where: str, reason: str) -> BundleError:
    return BundleError(f"{file}: {where}: {reason}")


# Longest repr of a bad value quoted whole in an error message.
_QUOTE_LIMIT = 30
# Longest repr of a record id or req_id quoted whole in an error location:
# room for UUIDs, paths and URLs, and a bad-class line stays under 300 bytes.
_ID_LIMIT = 100


def _cut(text: str, limit: int) -> str:
    """``text`` cut after ``limit`` characters and marked with "..." where cut."""
    return text if len(text) <= limit else text[:limit] + "..."


def _quote(value: Any, limit: int = _QUOTE_LIMIT) -> str:
    """``repr(value)`` for an error message, cut by :func:`_cut`."""
    return _cut(repr(value), limit)


def _read_text(path: Path, file: str | None = None, digests: dict[str, str] | None = None) -> str:
    """The text of one input file, decoded by :func:`_decode` (errors name ``file``, by default the
    file's name). With ``digests``, also record the SHA-256 of its bytes under the file's name. Only
    this frame holds the bytes, so the caller parses the text with one copy of the input alive."""
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        raise BundleError(f"{path.name}: file not found in {path.parent}") from None
    except OSError as exc:
        raise BundleError(f"{path.name}: cannot read: {exc}") from exc
    if digests is not None:
        digests[path.name] = "sha256:" + hashlib.sha256(raw).hexdigest()
    return _decode(raw, file or path.name)


def _decode(raw: bytes, file: str) -> str:
    """The UTF-8 text of an input's bytes, with universal newlines as in
    text-mode reading: CR LF and a lone CR become LF, so the line numbers
    of errors count a lone CR as a line end."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _fail(file, f"byte {exc.start}", "not valid UTF-8") from None
    if "\r" in text:
        # One replacement at a time: at most two copies of the text beside the bytes.
        text = text.replace("\r\n", "\n")
        text = text.replace("\r", "\n")
    return text


def _parse_json(text: str, file: str) -> Any:
    """The JSON document in an input's text; ``file`` names the input in
    error messages."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise _fail(file, f"line {exc.lineno}", f"invalid JSON: {exc.msg}") from exc
    except ValueError:
        # The integer-literal length limit (sys.get_int_max_str_digits).
        raise _fail(file, "top level",
                    f"invalid JSON: an integer has more than {sys.get_int_max_str_digits()} digits"
                    ) from None
    except RecursionError:
        raise _fail(file, "top level", "invalid JSON: nested too deeply") from None
    if "\\" in text and ("\\ud" in text or "\\uD" in text):
        # A \uD800-\uDFFF escape that is not half of a pair decodes to a
        # lone surrogate, which no report can encode as UTF-8. Most files
        # hold no backslash, ruled out by one memchr-speed search.
        try:
            json.dumps(data, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError:
            raise _fail(file, "top level",
                        "invalid JSON: a \\u escape is an unpaired UTF-16 surrogate") from None
    return data


def _read_json(path: Path, digests: dict[str, str] | None = None) -> Any:
    """Parse one UTF-8 JSON file. With ``digests``, also record the SHA-256
    of the bytes parsed under the file's name."""
    return _parse_json(_read_text(path, digests=digests), path.name)


def _expect_object(data: Any, file: str, where: str, allowed: set[str], required: set[str]) -> dict:
    if not isinstance(data, dict):
        raise _fail(file, where, f"expected a JSON object, got {type(data).__name__}")
    unknown = set(data) - allowed
    if unknown:
        raise _fail(file, where, f"unknown key(s): {', '.join(sorted(unknown))}")
    missing = required - set(data)
    if missing:
        raise _fail(file, where, f"missing key(s): {', '.join(sorted(missing))}")
    return data


def _expect_array(data: Any, file: str) -> list:
    if not isinstance(data, list):
        raise _fail(file, "top level", f"expected a JSON array, got {type(data).__name__}")
    return data


def _parse_enum(enum_cls, value: Any, file: str, where: str):
    try:
        return enum_cls(value)
    except ValueError:
        expected = ", ".join(enum_cls)
        raise _fail(file, where, f"invalid value {_quote(value)} (expected one of: {expected})") from None


def _parse_number(value: Any, file: str, where: str, lo: float | None = None, hi: float | None = None) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _fail(file, where, f"expected a number, got {_quote(value)}")
    try:
        number = float(value)
    except OverflowError:
        raise _fail(file, where, "expected a finite number, got an integer beyond floating-point range"
                    ) from None
    if not math.isfinite(number):
        raise _fail(file, where, f"expected a finite number, got {_quote(value)}")
    if lo is not None and number < lo:
        raise _fail(file, where, f"must be >= {lo}, got {_quote(value)}")
    if hi is not None and number > hi:
        raise _fail(file, where, f"must be <= {hi}, got {_quote(value)}")
    return number


def _parse_string(value: Any, file: str, where: str) -> str:
    if not isinstance(value, str):
        raise _fail(file, where, f"expected a string, got {_quote(value)}")
    return value


# ---------------------------------------------------------------------------
# Record kinds
# ---------------------------------------------------------------------------

# Each input record kind is described once, as a tuple of field entries in
# the order of their checks. An object entry is (JSON key, default, kind);
# an array entry adds the record slot it fills and whether a fault names
# the record by its id (the value of its first field) or by its index. A
# slot of None marks a check of the whole record, named by the record
# alone. The default is _REQUIRED for a key that must be present, None for
# a key whose absence reads as None, and otherwise a JSON value checked as
# if it were given.

_REQUIRED = object()


class _Kind:
    """The rules of one field, in two faces.

    ``check(value, file, where)`` converts one JSON value or raises the
    rule's message at ``where``. :meth:`column` converts a whole column by
    passes that make no Python call per value, or returns None (or raises
    KeyError, TypeError or OverflowError) to have the array read a record
    at a time; it may refuse what ``check`` accepts, never the reverse.
    Where ``null`` is set, JSON null reads as None.
    """

    null = False

    def column(self, column: list) -> list | None:
        return None


class _String(_Kind):
    """A string; with ``nonempty``, one that names its record."""

    def __init__(self, null: bool = False, nonempty: bool = False):
        self.null, self.nonempty, self.types = null, nonempty, ({str, NoneType} if null else {str})

    def check(self, value: Any, file: str, where: str) -> str:
        if not _parse_string(value, file, where) and self.nonempty:
            raise _fail(file, where, "must be a nonempty string")
        return value

    def column(self, column: list) -> list | None:
        ok = set(map(type, column)) <= self.types and (not self.nonempty or all(column))
        return column if ok else None


class _Distinct(_Kind):
    """A check of the whole record: its id is no earlier record's. The
    record reader keeps the ids it has seen, so this kind has no check."""

    def column(self, column: list) -> list | None:
        return column if len(set(column)) == len(column) else None


_DISTINCT = _Distinct()


class _Rule(_Kind):
    """A check of the whole record: ``test`` holds for a field already
    read, else ``reason`` is raised, formatted with the value quoted by
    :func:`_quote`."""

    def __init__(self, test, reason: str):
        self.test, self.reason = test, reason

    def check(self, value: Any, file: str, where: str) -> Any:
        if not self.test(value):
            raise _fail(file, where, self.reason.format(_quote(value)))
        return value

    def column(self, column: list) -> list | None:
        return column if all(map(self.test, column)) else None


class _Enum(_Kind):
    def __init__(self, enum_cls: type):
        # Keyed by plain strings, as parsed names are: member keys raised a 24,000-defect load's peak RSS.
        self.enum_cls, self.members = enum_cls, {str(member): member for member in enum_cls}

    def check(self, value: Any, file: str, where: str):
        return _parse_enum(self.enum_cls, value, file, where)

    def column(self, column: list) -> list:
        return list(map(self.members.__getitem__, column))


class _Number(_Kind):
    """A finite number in [``lo``, ``hi``], read as a float; with
    ``positive``, one above 0."""

    def __init__(self, lo: float | None = None, hi: float | None = None, null: bool = False,
                 positive: bool = False):
        self.lo, self.hi, self.null, self.positive = lo, hi, null, positive

    def check(self, value: Any, file: str, where: str) -> float:
        number = _parse_number(value, file, where, self.lo, self.hi)
        if self.positive and number <= 0.0:
            raise _fail(file, where, f"must be positive, got {_quote(value)}")
        return number

    def column(self, column: list) -> list | None:
        types = set(map(type, column))
        if not types <= {float, int} or self.positive:  # bool is neither
            return None
        if int in types:
            column = list(map(float, column))
        # A sum is finite only where every term is; one that overflows sends the column to the record
        # faces. With NaN ruled out first, min and max are reliable; -0.0 passes lo=0.0, keeping its sign.
        if (not math.isfinite(sum(column)) or (self.lo is not None and min(column) < self.lo)
                or (self.hi is not None and max(column) > self.hi)):
            return None
        return column


class _Integer(_Kind):
    def __init__(self, lo: int | None = None):
        self.lo = lo

    def check(self, value: Any, file: str, where: str) -> int:
        if isinstance(value, bool) or not isinstance(value, int) or (self.lo is not None and value < self.lo):
            at_least = "" if self.lo is None else f" >= {self.lo}"
            raise _fail(file, where, f"expected an integer{at_least}, got {_quote(value)}")
        return value


class _Flag(_Kind):
    def check(self, value: Any, file: str, where: str) -> bool:
        if not isinstance(value, bool):
            raise _fail(file, where, f"expected true or false, got {_quote(value)}")
        return value


class _Array(_Kind):
    """An array (nonempty with ``nonempty``) of values read by ``kind``, a
    column at a time where its column face can, each named by its index
    with ``indexed``. ``message`` says what any other value should be, with
    ``{}`` for the value."""

    def __init__(self, kind: _Kind, message: str, indexed: bool = False, nonempty: bool = False,
                 null: bool = False):
        self.kind, self.message, self.indexed, self.nonempty, self.null = kind, message, indexed, nonempty, null

    def check(self, value: Any, file: str, where: str) -> list:
        if not isinstance(value, list) or (self.nonempty and not value):
            raise _fail(file, where, self.message.format(_quote(value)))
        try:
            column = self.kind.column(value) if value else None
        except (KeyError, TypeError, OverflowError):
            column = None
        # One item at a time only where the column face refuses, as to raise the first fault.
        return column if column is not None else [
            self.kind.check(item, file, f"{where}[{i}]" if self.indexed else where) for i, item in enumerate(value)]


class _EnumSet(_Array):
    """An array of enum values, read as a frozenset."""

    def __init__(self, enum_cls: type, message: str, null: bool = False):
        super().__init__(_Enum(enum_cls), message, null=null)

    def check(self, value: Any, file: str, where: str) -> frozenset:
        return frozenset(super().check(value, file, where))

    def column(self, column: list) -> list | None:
        if not set(map(type, column)) <= {list}:
            return None
        # One frozenset per distinct list, shared by its records; no tuple outlives its lookup.
        sets = {key: frozenset(map(self.kind.members.__getitem__, key)) for key in set(map(tuple, column))}
        return list(map(sets.__getitem__, map(tuple, column)))


class _Object(_Kind):
    """A JSON object described by a table of (key, default, kind) entries,
    read as a dict by key; its keys are named after it, unless at top level."""

    def __init__(self, fields: tuple, null: bool = False):
        self.fields, self.keys, self.null = fields, _keys(fields), null

    def check(self, value: Any, file: str, where: str) -> dict:
        data = _expect_object(value, file, where, *self.keys)
        at = "" if where == "top level" else f"{where}: "
        return {key: _value(data, key, default, kind, file, at + key) for key, default, kind in self.fields}


class _Map(_Enum):
    """A JSON object keyed by values of ``enum_cls`` (by all of them with
    ``complete``), each value read by ``kind``; read as a dict by member."""

    def __init__(self, enum_cls: type, kind: _Kind, complete: bool = False, null: bool = False):
        super().__init__(enum_cls)
        self.kind, self.null, self.required = kind, null, set(self.members) if complete else set()

    def check(self, value: Any, file: str, where: str) -> dict:
        for key in value if isinstance(value, dict) else ():
            super().check(key, file, where)  # a key that names no member
        data = _expect_object(value, file, where, set(self.members), self.required)
        return {self.members[key]: self.kind.check(item, file, f"{where}: {key}") for key, item in data.items()}


_DEFECT_FIELDS = (
    ("id", _REQUIRED, _String(nonempty=True), "id", False),
    ("class", _REQUIRED, _Enum(DefectClass), "defect_class", True),
    ("detection_effort", 0.0, _Number(lo=0.0), "detection_effort", True),
    ("observed_modes", [], _EnumSet(FailureMode, "expected an array, got {}"), "observed_modes", True),
    ("resolution", None, _String(null=True), "resolution", True),
    ("description", _REQUIRED, _String(), "description", True),
    ("id", _REQUIRED, _DISTINCT, None, True),
)
# A corpus record labels at least one mode; its fields are a defect record's.
_CORPUS_FIELDS = (
    *_DEFECT_FIELDS[:4],
    ("observed_modes", [], _Rule(bool, "corpus records must label at least one observed failure mode"),
     None, True),
    *_DEFECT_FIELDS[4:],
)
_RTM_FIELDS = (
    ("req_id", _REQUIRED, _String(nonempty=True), "req_id", False),
    ("req_id", _REQUIRED, _DISTINCT, None, True),
    ("description", _REQUIRED, _String(), "description", False),
    ("status", _REQUIRED, _Enum(CoverageStatus), "status", True),
)
_TCA_FIELDS = (
    ("level", _REQUIRED, _Enum(TestLevel), "level", False),
    ("activity", _REQUIRED, _String(), "activity", False),
    ("trigger", _REQUIRED, _Enum(TriggerKind), "trigger", False),
    ("status", _REQUIRED, _Enum(CoverageStatus), "status", False),
    ("activity", _REQUIRED, _Rule(ACTIVITIES.__contains__,
                                  f"activity must be one of {', '.join(ACTIVITIES)}; got {{}}"), None, False),
)
_EFFORT_FIELDS = (
    ("kind", _REQUIRED, _Enum(EffortKind)),
    ("test_count", _REQUIRED, _Integer()),
    ("test_duration", None, _Number(null=True)),
)
_CONFIG_FIELDS = (
    ("structural_coverage", _REQUIRED, _Number(0.0, 1.0)),
    ("system_kind", _REQUIRED, _Enum(SystemKind)),
    ("excluded_modes", None, _EnumSet(FailureMode, "expected an array of failure modes", null=True)),
    ("confidence_threshold", DEFAULT_CONFIDENCE_THRESHOLD, _Number(0.0, 1.0)),
    ("stability_threshold", DEFAULT_STABILITY_THRESHOLD, _Number(0.0)),
    ("rate_method", RateMethod.BOUNDED, _Enum(RateMethod)),
    ("srgm_model", SrgmModel.GOEL_OKUMOTO, _Enum(SrgmModel)),
    ("stability_windows", DEFAULT_STABILITY_WINDOWS, _Integer(2)),
    ("matrix", BUILTIN_MATRIX_SOURCE, _String()),
    ("uniform_missing_rows", False, _Flag()),
    ("mode_family", None, _Enum(ModeFamily)),  # null is refused, not read as absent
    ("rtm_weight", 0.5, _Number(0.0)),
    ("tca_weight", 0.5, _Number(0.0)),
)
_HISTORY_FIELDS = (
    ("events", _REQUIRED, _Array(_Number(lo=0.0), "expected a nonempty array of detection efforts",
                                 indexed=True, nonempty=True)),
    ("horizon", None, _Number(0.0, null=True)),
)
# The length, range and sum of a row are checked by load_matrix_file.
_COUNTS = "expected an array of 4 nonnegative integers"
_MATRIX_FIELDS = (
    ("rows", _REQUIRED, _Map(DefectClass, _Array(_Number(), "expected an array of 4 probabilities"))),
    ("counts", None, _Map(DefectClass, _Array(_Rule(lambda count: type(count) is int, _COUNTS), _COUNTS),
                          null=True)),
    ("provenance", _REQUIRED, _String()),
)


def _keys(fields: tuple) -> tuple[set[str], set[str]]:
    """The keys a table allows and those it requires."""
    return {entry[0] for entry in fields}, {entry[0] for entry in fields if entry[1] is _REQUIRED}


def _value(data: dict, key: str, default: Any, kind: _Kind, file: str, where: str) -> Any:
    """One field of a JSON object, checked by ``kind``; a missing key with
    the default None reads as None unchecked."""
    value = data.get(key, default)
    if value is None and (kind.null or key not in data):
        return None
    return kind.check(value, file, where)


# A record array is read a column at a time by the column faces, with no
# Python call per record, and kept as the columns of its fields. When a
# column check fails, the record faces read the array one record at a time
# and raise the first fault in record order (or, where the column face was
# the stricter, return the same columns), so each rule and message has one
# definition.


def _by_column(fields: tuple, objects: list) -> dict[str, list] | None:
    """The checked columns of a nonempty array by field, or None if the
    array is empty or a column check fails."""
    keys, _ = _keys(fields)
    # All objects, and no key outside the table (a missing required key is
    # found when its column is read).
    if set(map(type, objects)) != {dict} or not keys.issuperset(set().union(*objects)):
        return None
    columns = {}
    pulled: dict[str, tuple[Any, list]] = {}  # by key: the default and the values of its first entry
    try:
        for key, default, kind, slot, _ in fields:
            if key in pulled and pulled[key][0] == default:
                values = pulled[key][1]  # no column face changes the list it is given
            else:
                values = (list(map(itemgetter(key), objects)) if default is _REQUIRED
                          else list(map(dict.get, objects, repeat(key), repeat(default))))
                pulled[key] = default, values
            column = kind.column(values)
            if column is None:
                return None
            if slot is not None:
                columns[slot] = column
    except (KeyError, TypeError, OverflowError):
        return None
    return columns


def _by_record(fields: tuple, objects: list, file: str, label: str,
               numbers: list[int] | None = None) -> dict[str, list]:
    """The columns of an array by field, read one record at a time; each
    record is named ``label`` and its number in ``numbers`` (by default its
    index) or its id."""
    keys, required = _keys(fields)
    columns: dict[str, list] = {entry[3]: [] for entry in fields if entry[3] is not None}
    seen: set[str] = set()
    for index, obj in zip(numbers or range(len(objects)), objects):
        data = _expect_object(obj, file, f"{label} {index}", keys, required)
        for key, default, kind, slot, by_id in fields:
            where = (f"{label} {_quote(data[fields[0][0]], _ID_LIMIT) if by_id else index}"
                     + (f": {key}" if slot else ""))
            if kind is _DISTINCT:
                if data[key] in seen:
                    raise _fail(file, where, f"duplicate {key}")
                seen.add(data[key])
            else:
                value = _value(data, key, default, kind, file, where)
                if slot is not None:
                    columns[slot].append(value)
    return columns


def _parse_records(row: type, fields: tuple, objects: list, file: str, label: str = "record",
                   numbers: list[int] | None = None) -> Records:
    """The ``row`` records of an array, numbered as :func:`_by_record` numbers them."""
    columns = _by_column(fields, objects)
    return Records(row, columns if columns is not None else _by_record(fields, objects, file, label, numbers))


# Each record array by the name of its file: its row type, its table, the
# label of its records, and the fault of an empty array, if any.
_ARRAYS = {
    "defects.json": (DefectRecord, _DEFECT_FIELDS, "record", None),
    "corpus.json": (DefectRecord, _CORPUS_FIELDS, "record", "no corpus records"),
    "rtm.json": (RtmEntry, _RTM_FIELDS, "entry", "no entries; an empty traceability matrix cannot be scored"),
    "tca.json": (TcaEntry, _TCA_FIELDS, "entry", None),
}


def records_from_json(kind: str, values: Any, file: str | None = None) -> Records:
    """The records of a parsed JSON array of ``kind`` (``defects.json``, ``corpus.json``,
    ``rtm.json`` or ``tca.json``), checked as that file's loader checks them: the
    first fault raises the loader's :class:`BundleError`, naming ``file`` (default ``kind``)."""
    row, fields, label, empty = _ARRAYS[kind]
    file = file or kind
    records = _parse_records(row, fields, _expect_array(values, file), file, label)
    if empty and not records:
        raise _fail(file, "top level", empty)
    return records


def _load_records(kind: str, path: Path | str, digests: dict[str, str] | None) -> Records:
    path = Path(path)
    return records_from_json(kind, _read_json(path, digests), path.name)


# ---------------------------------------------------------------------------
# File loaders
# ---------------------------------------------------------------------------


def load_defects_file(path: Path | str, *, digests: dict[str, str] | None = None) -> Records:
    """Defect records from a defects.json file. ``digests``, if given,
    receives the SHA-256 of the file under its name (as do the other
    file loaders)."""
    return _load_records("defects.json", path, digests)


def load_corpus_file(path: Path | str, *, digests: dict[str, str] | None = None) -> Records:
    return _load_records("corpus.json", path, digests)


def load_effort_file(path: Path | str, *, digests: dict[str, str] | None = None) -> EffortModel:
    """The testing effort of an effort.json file (_EFFORT_FIELDS), with the
    rules that join its fields: a positive count, a positive duration
    exactly for continuous effort, and a finite total."""
    path = Path(path)
    model = EffortModel(**_Object(_EFFORT_FIELDS).check(_read_json(path, digests), path.name, "top level"))
    continuous = model.kind == EffortKind.CONTINUOUS
    if model.test_count <= 0:
        raise _fail(path.name, "top level", f"test_count must be positive, got {model.test_count}")
    if continuous and model.test_duration is None:
        raise _fail(path.name, "top level", "continuous effort requires test_duration (hours per test)")
    if continuous and model.test_duration <= 0.0:
        raise _fail(path.name, "top level", f"test_duration must be positive, got {model.test_duration!r}")
    if not continuous and model.test_duration is not None:
        raise _fail(path.name, "top level",
                    "on-demand effort takes no test_duration; remove it or use kind=continuous")
    try:
        total = total_effort(model)
    except OverflowError:
        total = math.inf
    if not math.isfinite(total):
        raise _fail(path.name, "test_count",
                    "total testing effort (test_count x test_duration) is beyond floating-point range")
    return model


def load_rtm_file(path: Path | str, *, digests: dict[str, str] | None = None) -> Records:
    return _load_records("rtm.json", path, digests)


def load_tca_file(path: Path | str, *, digests: dict[str, str] | None = None) -> Records:
    return _load_records("tca.json", path, digests)


def load_matrix_file(path: Path | str, *, digests: dict[str, str] | None = None) -> CausalityMatrix:
    """A causality matrix from a matrix.json file (_MATRIX_FIELDS): each row
    4 probabilities that sum to 1, and each count row 4 nonnegative integers."""
    path = Path(path)
    values = _Object(_MATRIX_FIELDS).check(_read_json(path, digests), path.name, "top level")
    for cls, row in values["rows"].items():
        where = f"rows: {cls}"
        if len(row) != len(MODE_ORDER):
            raise _fail(path.name, where, f"expected {len(MODE_ORDER)} probabilities, got {len(row)}")
        for p in row:
            if not 0.0 <= p <= 1.0:
                raise _fail(path.name, where, f"probability {p!r} outside [0, 1]")
        if abs(math.fsum(row) - 1.0) > ROW_SUM_TOLERANCE:
            raise _fail(path.name, where, f"sums to {math.fsum(row)!r}, outside 1.0 +/- {ROW_SUM_TOLERANCE}")
        values["rows"][cls] = tuple(row)
    for cls, row in (values["counts"] or {}).items():
        if len(row) != len(MODE_ORDER) or min(row) < 0:
            raise _fail(path.name, f"counts: {cls}", f"expected {len(MODE_ORDER)} nonnegative integers")
        values["counts"][cls] = tuple(row)
    return CausalityMatrix(**values)


def load_history_file(path: Path | str) -> tuple[list[float], float | None]:
    """Failure-history file for growth-model fitting:
    {"events": [efforts...], "horizon"?: total observed effort}."""
    path = Path(path)
    values = _Object(_HISTORY_FIELDS).check(_read_json(path), path.name, "top level")
    return values["events"], values["horizon"]


def defects_from_csv(path: Path | str) -> Records:
    """Convenience converter: defect records from a headered CSV file.

    Required columns: id, description, class. Optional: detection_effort,
    observed_modes (semicolon-separated mode letters), resolution. The
    JSON bundle format stays the source of truth; this exists because
    defect logs usually start life in spreadsheets.
    """
    import csv  # only this converter reads CSV; keep it out of every other command's start-up
    path = Path(path)
    file = path.name
    # The text's "\n"-terminated lines, one at a time (io.StringIO would hold 4 bytes per
    # character). strict: an unterminated quote is an error, not the rest of the file in one field.
    rows = csv.reader(map(itemgetter(0), re.finditer(r"[^\n]*\n|[^\n]+", _read_text(path))), strict=True)
    try:
        header = next(rows, None)
    except csv.Error as exc:
        raise _fail(file, "header", f"invalid CSV: {exc}") from None
    if header is None:
        raise _fail(file, "header", "empty file; expected a CSV header row")
    fields = [name.strip() for name in header]
    columns, required = _keys(_DEFECT_FIELDS)
    for problem, names in (("duplicate", {name for name in fields if fields.count(name) > 1}),
                           ("unknown", set(fields) - columns), ("missing", required - set(fields))):
        if names:
            raise _fail(file, "header", f"{problem} column(s): {', '.join(sorted(names))}")
    entries: list[dict] = []
    lines: list[int] = []  # the file line each entry's row starts on, which numbers the entry
    line = rows.line_num + 1
    try:
        for row in rows:
            if row:  # a blank line holds no row
                if len(row) > len(fields):
                    raise _fail(file, f"line {line}", f"{len(row)} fields; the header has {len(fields)}")
                values = dict(zip(fields, row))
                # Each required column, and each optional one not left blank.
                entry = {key: text for key in columns if (text := values.get(key, "").strip()) or key in required}
                if "detection_effort" in entry:
                    try:
                        entry["detection_effort"] = float(entry["detection_effort"])
                    except ValueError:
                        raise _fail(file, f"line {line}", "detection_effort is not a number: "
                                    f"{_quote(entry['detection_effort'])}") from None
                if "observed_modes" in entry:
                    entry["observed_modes"] = [m.strip() for m in entry["observed_modes"].split(";") if m.strip()]
                entries.append(entry)
                lines.append(line)
            line = rows.line_num + 1
    except (BundleError, csv.Error) as exc:
        # A fault in an earlier row is reported first.
        _by_record(_DEFECT_FIELDS, entries, file, "record", lines)
        if isinstance(exc, csv.Error):
            raise _fail(file, f"line {line}", f"invalid CSV: {exc}") from None
        raise
    return _parse_records(DefectRecord, _DEFECT_FIELDS, entries, file, numbers=lines)


# ---------------------------------------------------------------------------
# Config and bundle assembly
# ---------------------------------------------------------------------------


def _parse_config(path: Path, digests: dict[str, str] | None = None) -> dict:
    return _Object(_CONFIG_FIELDS).check(_read_json(path, digests), path.name, "top level")


def resolve_matrix_source(source: str, directory: Path, *,
                          digests: dict[str, str] | None = None) -> CausalityMatrix:
    """The matrix of "builtin", "corpus:<file>" (estimated from that
    corpus) or a matrix file path; relative paths resolve against the
    bundle directory. ``digests``, if given, receives the SHA-256 of the
    file read.
    """
    if source == BUILTIN_MATRIX_SOURCE:
        return causality_mod.builtin_causality()
    if source.startswith(CORPUS_SOURCE_PREFIX):
        corpus_path = Path(source[len(CORPUS_SOURCE_PREFIX):])
        if not corpus_path.is_absolute():
            corpus_path = directory / corpus_path
        corpus = load_corpus_file(corpus_path, digests=digests)
        try:
            return causality_mod.estimate_causality(corpus, provenance=f"corpus:{corpus_path.name}")
        except OrcasError as exc:
            raise _fail(corpus_path.name, "corpus", str(exc)) from exc
    matrix_path = Path(source)
    if not matrix_path.is_absolute():
        matrix_path = directory / matrix_path
    return load_matrix_file(matrix_path, digests=digests)


def _kept(records: Records, *names: str) -> Records:
    """``records`` with the columns ``names`` alone; its rows read any other field as None."""
    return Records(records.row, {name: records.columns[name] for name in names})


def load_bundle(
    directory: Path | str,
    matrix_source: str | None = None,
    exclude_modes: frozenset[FailureMode] | set[FailureMode] | None = None,
    confidence_threshold: float | None = None,
    uniform_missing_rows: bool | None = None,
) -> AssessmentBundle:
    """Load and validate an assessment directory.

    Keyword arguments override the corresponding config.json options;
    giving ``exclude_modes`` switches the bundle to an explicit custom
    exclusion set regardless of the configured system kind.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise BundleError(f"bundle directory not found: {directory}")
    paths = {name: directory / name for name in REQUIRED_FILES}
    digests: dict[str, str] = {}

    # Each record's every field is checked, but the bundle keeps only the columns the stages read,
    # so that no description or resolution is alive while corpus.json is parsed.
    defects = _kept(load_defects_file(paths["defects.json"], digests=digests),
                    "id", "defect_class", "detection_effort", "observed_modes")
    effort = load_effort_file(paths["effort.json"], digests=digests)
    rtm = _kept(load_rtm_file(paths["rtm.json"], digests=digests), "req_id", "status")
    tca = load_tca_file(paths["tca.json"], digests=digests)
    config = _parse_config(paths["config.json"], digests)
    if config["rtm_weight"] == config["tca_weight"] == 0.0:
        raise _fail("config.json", "top level", "rtm_weight and tca_weight must not both be zero")

    effort_total = total_effort(effort)
    unit = effort.rate_unit
    growth = config["rate_method"] == RateMethod.SRGM
    # Efforts are finite once loaded, so min and max are reliable; only when
    # a test fails is the first offending record looked for.
    efforts = defects.columns["detection_effort"]
    if efforts and ((growth and min(efforts) <= 0.0) or max(efforts) > effort_total):
        for id, detection in zip(defects.columns["id"], efforts):
            if growth and detection <= 0.0:
                raise _fail(
                    "defects.json", f"record {_quote(id, _ID_LIMIT)}: detection_effort",
                    f"must be positive for rate_method 'srgm' (the growth model fits detection "
                    f"efforts), got {detection!r}; record it or use rate_method 'bounded'",
                )
            if detection > effort_total:
                raise _fail(
                    "defects.json", f"record {_quote(id, _ID_LIMIT)}",
                    f"detection_effort {detection!r} exceeds total testing effort "
                    f"{effort_total!r}; detection efforts must be recorded in the effort model's "
                    f"unit ({unit})",
                )
    try:
        validate_tca_entries(tca)
    except OrcasError as exc:
        raise _fail("tca.json", "coverage", str(exc)) from exc

    # The configured system kind names the mode family, even where
    # exclude_modes overrides the kind.
    if config["mode_family"] is None:
        monitoring = config["system_kind"] == SystemKind.CONTINUOUS_MONITORING
        config["mode_family"] = ModeFamily.INFORMATION if monitoring else ModeFamily.CONTROL
    if exclude_modes is not None:
        config["system_kind"], config["excluded_modes"] = SystemKind.CUSTOM, frozenset(exclude_modes)
    else:
        try:
            config["excluded_modes"] = mode_applicability(config["system_kind"], config["excluded_modes"])
        except OrcasError as exc:
            raise _fail("config.json", "excluded_modes", str(exc)) from exc
    for key, value in (("matrix", matrix_source), ("confidence_threshold", confidence_threshold),
                       ("uniform_missing_rows", uniform_missing_rows)):
        if value is not None:
            config[key] = value
    # The other config keys are the bundle's own fields.
    source = config.pop("matrix")
    matrix = resolve_matrix_source(source, directory, digests=digests)
    return AssessmentBundle(defects=defects, effort=effort, rtm=rtm, tca=tca, matrix=matrix,
                            matrix_source=source, input_digests=digests, **config)

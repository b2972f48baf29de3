"""The one input layer: reading, parsing and the field kinds.

Every input of the tool, the CSV defect log and a saved report included, is
read and decoded by :func:`read_text`, which drops the bytes before it
returns, and, if JSON, parsed by :func:`parse_json` and checked by a table of
the field kinds below: the bundle's tables are in :mod:`orcas.bundle`, the
saved report's in :mod:`orcas.report`. A record file is first read by
:func:`read_records`, a block at a time, keeping only the columns its caller
asks for; on any fault or doubt its caller reads it whole as above, which
names the first fault. A fault is :func:`fail`'s ``<file>: <where>: <reason>``.
"""

from __future__ import annotations

import codecs
import hashlib
import json
import math
import re
import sys
from itertools import islice, repeat
from operator import itemgetter, lt, ne
from pathlib import Path
from types import NoneType
from typing import Any

from .domain import Records
from .errors import BundleError

# ---------------------------------------------------------------------------
# Fault naming and input reading
# ---------------------------------------------------------------------------


def fail(file: str, where: str, reason: str) -> BundleError:
    return BundleError(f"{file}: {where}: {reason}")


# Longest repr of a bad value quoted whole in an error message.
_QUOTE_LIMIT = 30
# Longest repr of a record id or req_id quoted whole in an error location:
# room for UUIDs, paths and URLs, and a bad-class line stays under 300 bytes.
ID_LIMIT = 100


def quote(value: Any, limit: int = _QUOTE_LIMIT) -> str:
    """``repr(value)`` for an error message, cut after ``limit`` characters
    and marked with "..." where cut."""
    text = repr(value)
    return text if len(text) <= limit else text[:limit] + "..."


def read_text(path: Path, file: str | None = None, digests: dict[str, str] | None = None) -> str:
    """The text of one input file, decoded by :func:`decode` (errors name ``file``, by default the
    file's name). With ``digests``, also record the SHA-256 of its bytes under the file's name, where
    another file of that name with other bytes is a fault. Only this frame holds the bytes, so the
    caller parses the text with one copy of the input alive."""
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        raise BundleError(f"{path.name}: file not found in {path.parent}") from None
    except OSError as exc:
        raise BundleError(f"{path.name}: cannot read: {exc}") from exc
    if digests is not None:
        _record_digest(digests, path, hashlib.sha256(raw))
    return decode(raw, file or path.name)


def _record_digest(digests: dict[str, str], path: Path, hasher) -> None:
    """Record the digest of ``hasher``, the SHA-256 of the file at ``path``, under the file's name. A
    report keys its input digests by name, so a second file of that name with other bytes is a fault."""
    digest = "sha256:" + hasher.hexdigest()
    if digests.setdefault(path.name, digest) != digest:
        raise fail(path.name, "top level", f"{path} differs from the input of this name already read, and a "
                                           "report keys input digests by file name; rename one of them")


def decode(raw: bytes, file: str) -> str:
    """The UTF-8 text of an input's bytes, with universal newlines as in
    text-mode reading: CR LF and a lone CR become LF, so the line numbers
    of errors count a lone CR as a line end."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise fail(file, f"byte {exc.start}", "not valid UTF-8") from None
    if "\r" in text:
        # One replacement at a time: at most two copies of the text beside the bytes.
        text = text.replace("\r\n", "\n")
        text = text.replace("\r", "\n")
    return text


def parse_json(text: str, file: str) -> Any:
    """The JSON document in an input's text; ``file`` names the input in
    error messages."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise fail(file, f"line {exc.lineno}", f"invalid JSON: {exc.msg}") from exc
    except ValueError:
        # The integer-literal length limit (sys.get_int_max_str_digits).
        raise fail(file, "top level",
                   f"invalid JSON: an integer has more than {sys.get_int_max_str_digits()} digits") from None
    except RecursionError:
        raise fail(file, "top level", "invalid JSON: nested too deeply") from None
    if _lone_surrogate(text, data):
        raise fail(file, "top level", "invalid JSON: a \\u escape is an unpaired UTF-16 surrogate")
    return data


def _lone_surrogate(text: str, data: Any) -> bool:
    """Whether ``data``, parsed from ``text``, holds a lone surrogate: a
    \\uD800-\\uDFFF escape that is not half of a pair, which no report can
    encode as UTF-8. Most files hold no backslash, ruled out by one
    memchr-speed search."""
    if "\\" in text and ("\\ud" in text or "\\uD" in text):
        try:
            json.dumps(data, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError:
            return True
    return False


def expect_object(data: Any, file: str, where: str, allowed: set[str], required: set[str]) -> dict:
    if not isinstance(data, dict):
        raise fail(file, where, f"expected a JSON object, got {type(data).__name__}")
    unknown = set(data) - allowed
    if unknown:
        raise fail(file, where, f"unknown key(s): {', '.join(sorted(unknown))}")
    missing = required - set(data)
    if missing:
        raise fail(file, where, f"missing key(s): {', '.join(sorted(missing))}")
    return data


# ---------------------------------------------------------------------------
# Field kinds
# ---------------------------------------------------------------------------

# Each input record kind is described once, as a tuple of field entries in
# the order of their checks. An object entry is (JSON key, default, kind);
# an array entry adds the record slot it fills and whether a fault names
# the record by its id (the value of its first field) or by its index. A
# slot of None marks a check of the whole record, named by the record
# alone; in an object, a second entry of a key checks it again. The default
# is REQUIRED for a key that must be present, None for a key whose absence
# reads as None, and otherwise a JSON value checked as if it were given.

REQUIRED = object()


class Kind:
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


class String(Kind):
    """A string; with ``nonempty``, one that names its record."""

    def __init__(self, null: bool = False, nonempty: bool = False):
        self.null, self.nonempty, self.types = null, nonempty, ({str, NoneType} if null else {str})

    def check(self, value: Any, file: str, where: str) -> str:
        if not isinstance(value, str):
            raise fail(file, where, f"expected a string, got {quote(value)}")
        if not value and self.nonempty:
            raise fail(file, where, "must be a nonempty string")
        return value

    def column(self, column: list) -> list | None:
        ok = set(map(type, column)) <= self.types and (not self.nonempty or all(column))
        return column if ok else None


class _Distinct(Kind):
    """A check of the whole record: its id is no earlier record's. The
    record reader keeps the ids it has seen, so this kind has no check.
    The column face compares the neighbours of a sorted copy, a list of
    references: a set of 24,000 ids is 14 times its size."""

    def column(self, column: list) -> list | None:
        ids = sorted(column)
        return column if all(map(ne, ids, islice(ids, 1, None))) else None


DISTINCT = _Distinct()


class Rule(Kind):
    """A check of the whole record: ``test`` holds for a field already
    read, else ``reason`` is raised, formatted with the value quoted by
    :func:`quote`."""

    def __init__(self, test, reason: str):
        self.test, self.reason = test, reason

    def check(self, value: Any, file: str, where: str) -> Any:
        if not self.test(value):
            raise fail(file, where, self.reason.format(quote(value)))
        return value

    def column(self, column: list) -> list | None:
        return column if all(map(self.test, column)) else None


class Enum(Kind):
    def __init__(self, enum_cls: type):
        # Keyed by plain strings, as parsed names are: member keys raised a 24,000-defect load's peak RSS.
        self.enum_cls, self.members = enum_cls, {str(member): member for member in enum_cls}

    def check(self, value: Any, file: str, where: str):
        try:
            return self.enum_cls(value)
        except ValueError:
            expected = ", ".join(self.enum_cls)
            raise fail(file, where, f"invalid value {quote(value)} (expected one of: {expected})") from None

    def column(self, column: list) -> list:
        return list(map(self.members.__getitem__, column))


class Number(Kind):
    """A finite number in [``lo``, ``hi``], read as a float; with
    ``positive``, one above 0."""

    def __init__(self, lo: float | None = None, hi: float | None = None, null: bool = False,
                 positive: bool = False):
        self.lo, self.hi, self.null, self.positive = lo, hi, null, positive

    def check(self, value: Any, file: str, where: str) -> float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise fail(file, where, f"expected a number, got {quote(value)}")
        try:
            number = float(value)
        except OverflowError:
            raise fail(file, where, "expected a finite number, got an integer beyond floating-point range") from None
        if not math.isfinite(number):
            raise fail(file, where, f"expected a finite number, got {quote(value)}")
        if self.lo is not None and number < self.lo:
            raise fail(file, where, f"must be >= {self.lo}, got {quote(value)}")
        if self.hi is not None and number > self.hi:
            raise fail(file, where, f"must be <= {self.hi}, got {quote(value)}")
        if self.positive and number <= 0.0:
            raise fail(file, where, f"must be positive, got {quote(value)}")
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


class Float(Number):
    """A number that the stages write as a float, in a field of a saved
    report that no relation derives from another (for bounded rates, the
    rates too): a saved int would pass every relation and re-emit as an
    int, bytes that run_assessment never writes."""

    def check(self, value, file: str, where: str) -> float:
        number = super().check(value, file, where)
        if type(value) is not float:
            raise fail(file, where, f"must be {quote(number)}, got {quote(value)}")
        return number

    def column(self, column: list) -> list | None:
        return None if int in set(map(type, column)) else super().column(column)


class Integer(Kind):
    def __init__(self, lo: int | None = None):
        self.lo = lo

    def check(self, value: Any, file: str, where: str) -> int:
        if isinstance(value, bool) or not isinstance(value, int) or (self.lo is not None and value < self.lo):
            at_least = "" if self.lo is None else f" >= {self.lo}"
            raise fail(file, where, f"expected an integer{at_least}, got {quote(value)}")
        return value


class Flag(Kind):
    def check(self, value: Any, file: str, where: str) -> bool:
        if not isinstance(value, bool):
            raise fail(file, where, f"expected true or false, got {quote(value)}")
        return value


class Array(Kind):
    """An array (nonempty with ``nonempty``) of values read by ``kind``, a
    column at a time where its column face can, each named by its index
    with ``indexed``. ``message`` says what any other value should be, with
    ``{}`` for the value."""

    def __init__(self, kind: Kind, message: str, indexed: bool = False, nonempty: bool = False,
                 null: bool = False):
        self.kind, self.message, self.indexed, self.nonempty, self.null = kind, message, indexed, nonempty, null

    def check(self, value: Any, file: str, where: str) -> list:
        if not isinstance(value, list) or (self.nonempty and not value):
            raise fail(file, where, self.message.format(quote(value)))
        try:
            column = self.kind.column(value) if value else None
        except (KeyError, TypeError, OverflowError):
            column = None
        # One item at a time only where the column face refuses, as to raise the first fault.
        return column if column is not None else [
            self.kind.check(item, file, f"{where}[{i}]" if self.indexed else where) for i, item in enumerate(value)]


class EnumSet(Array):
    """An array of enum values, read as a frozenset."""

    def __init__(self, enum_cls: type, message: str, null: bool = False):
        super().__init__(Enum(enum_cls), message, null=null)

    def check(self, value: Any, file: str, where: str) -> frozenset:
        return frozenset(super().check(value, file, where))

    def column(self, column: list) -> list | None:
        if not set(map(type, column)) <= {list}:
            return None
        # One frozenset per distinct list, shared by its records; no tuple outlives its lookup.
        sets = {key: frozenset(map(self.kind.members.__getitem__, key)) for key in set(map(tuple, column))}
        return list(map(sets.__getitem__, map(tuple, column)))


class Object(Kind):
    """A JSON object described by a table of (key, default, kind) entries,
    read as a dict by key; its keys are named after it, unless at top level."""

    def __init__(self, fields: tuple, null: bool = False):
        self.fields, self.keys, self.null = fields, table_keys(fields), null

    def check(self, value: Any, file: str, where: str) -> dict:
        data = expect_object(value, file, where, *self.keys)
        at = "" if where == "top level" else f"{where}: "
        return {key: _value(data, key, default, kind, file, at + key) for key, default, kind in self.fields}


class Map(Enum):
    """A JSON object keyed by values of ``enum_cls`` (by all of them with
    ``complete``), each value read by ``kind``; read as a dict by member."""

    def __init__(self, enum_cls: type, kind: Kind, complete: bool = False, null: bool = False):
        super().__init__(enum_cls)
        self.kind, self.null, self.required = kind, null, set(self.members) if complete else set()

    def check(self, value: Any, file: str, where: str) -> dict:
        for key in value if isinstance(value, dict) else ():
            super().check(key, file, where)  # a key that names no member
        data = expect_object(value, file, where, set(self.members), self.required)
        return {self.members[key]: self.kind.check(item, file, f"{where}: {key}") for key, item in data.items()}


# ---------------------------------------------------------------------------
# Table readers
# ---------------------------------------------------------------------------


def table_keys(fields: tuple) -> tuple[set[str], set[str]]:
    """The keys a table allows and those it requires."""
    return {entry[0] for entry in fields}, {entry[0] for entry in fields if entry[1] is REQUIRED}


def _value(data: dict, key: str, default: Any, kind: Kind, file: str, where: str) -> Any:
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


def by_column(fields: tuple, objects: list) -> dict[str, list] | None:
    """The checked columns of a nonempty array by field, or None if the
    array is empty or a column check fails."""
    keys, _ = table_keys(fields)
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
                values = (list(map(itemgetter(key), objects)) if default is REQUIRED
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


def by_record(fields: tuple, objects: list, file: str, label: str,
              numbers: list[int] | None = None) -> dict[str, list]:
    """The columns of an array by field, read one record at a time; each
    record is named ``label`` and its number in ``numbers`` (by default its
    index) or its id."""
    keys, required = table_keys(fields)
    columns: dict[str, list] = {entry[3]: [] for entry in fields if entry[3] is not None}
    seen: set[str] = set()
    for index, obj in zip(numbers or range(len(objects)), objects):
        data = expect_object(obj, file, f"{label} {index}", keys, required)
        for key, default, kind, slot, by_id in fields:
            where = (f"{label} {quote(data[fields[0][0]], ID_LIMIT) if by_id else index}"
                     + (f": {key}" if slot else ""))
            if kind is DISTINCT:
                if data[key] in seen:
                    raise fail(file, where, f"duplicate {key}")
                seen.add(data[key])
            else:
                value = _value(data, key, default, kind, file, where)
                if slot is not None:
                    columns[slot].append(value)
    return columns


def parse_records(row: type, fields: tuple, objects: list, file: str, label: str = "record",
                  numbers: list[int] | None = None) -> Records:
    """The ``row`` records of an array, numbered as :func:`by_record` numbers them."""
    columns = by_column(fields, objects)
    return Records(row, columns if columns is not None else by_record(fields, objects, file, label, numbers))


# A record file is read a block at a time and parsed a piece at a time: the
# records from one record boundary to the last boundary in the text read so
# far. A record boundary is a "}", a "," and a "{" that a key and its colon
# follow, with only JSON whitespace between them. In a file the loaders
# accept, no boundary lies in a string: there a '"' after the "{" can only
# close the string, and the next '"' opens a table key or a mode letter, none
# of which starts with ":". So a piece that parses ends with a "}" that closes
# a record, and the next piece starts outside every string; in a record file
# every object outside a string is a record (a nested one is a fault). A cut
# in a string, or inside a record, leaves a piece that does not parse: a
# doubt, as is a piece that fails a column face. A piece parses to the values
# it would as part of the text decode() returns, whatever its layout and line
# ends, so a file read so is never held whole, as text or as parsed objects.

_BLOCK = 64 * 1024
# What comes before the first record: whitespace, and "[" and whitespace unless the file is not an array.
_HEAD = re.compile(r"[ \t\n\r]*(\[[ \t\n\r]*)?")
# Up to the last record boundary; group 1 ends its piece. (A literal after ".*" is searched for at C speed.)
_LAST_BOUNDARY = re.compile(r'.*(\})[ \t\n\r]*,[ \t\n\r]*(?=\{[ \t\n\r]*"[^"\\]*"[ \t\n\r]*:)', re.DOTALL)
# Joins the ids of one piece.
_SEPARATOR = "\0"


def read_records(path: Path, fields: tuple, keep: tuple[str, ...],
                 digests: dict[str, str] | None = None) -> dict[str, list] | None:
    """The columns ``keep`` of the record array of the file at ``path``, read
    by the column faces of the table ``fields``, a block of the file at a
    time, cut into pieces before a record's "{" and first key; with
    ``digests``, also the SHA-256 of its bytes under its name, as
    :func:`read_text` records it.

    None where the file is not a nonempty UTF-8 array whose every piece
    parses as JSON and passes the column faces, and whose ids are distinct:
    for any fault or doubt, the caller reads the whole text, which names the
    first fault."""
    hasher = hashlib.sha256()
    # The columns of the keys no two records may share: one kept is checked at the end of the file,
    # one not kept as its pieces arrive, without holding it.
    slots = {key: slot for key, _, _, slot, _ in reversed(fields) if slot is not None}
    distinct = [slots[key] for key, _, kind, _, _ in fields if kind is DISTINCT]
    columns: dict[str, list] = {slot: [] for slot in keep}
    streamed = {slot: _StreamedIds() for slot in distinct if slot not in columns}
    # Which ids are distinct is a property of the whole file, not of a piece.
    fields = tuple(entry for entry in fields if entry[2] is not DISTINCT)
    # The text not yet parsed, from the "[" that opens its piece.
    pending, scan, opened = "", 0, False
    try:
        with path.open("rb") as handle:
            for text in _texts(handle, hasher):
                pending += text
                if not opened:
                    head = _HEAD.match(pending)
                    if head.end() == len(pending):
                        continue
                    if head.group(1) is None:
                        return None  # a top level that is not an array, or a BOM
                    pending, opened = "[" + pending[head.end():], True
                cut = _LAST_BOUNDARY.match(pending, scan)
                if cut is None:
                    # A boundary not yet read whole starts at the last "}", if any.
                    brace = pending.rfind("}", scan)
                    scan = brace if brace >= 0 else len(pending)
                    continue
                objects = _parse_piece(pending[:cut.end(1)] + "]")
                if not _append(fields, objects, columns, streamed):
                    return None
                # The piece's records die before the next block is read.
                pending, scan, objects = "[" + pending[cut.end():], 0, None
    except (OSError, UnicodeDecodeError):
        return None
    # The last piece: its text is dropped before its columns are read, and its records before the ids
    # are checked, as a whole-text read drops them.
    objects = _parse_piece(pending)
    del pending
    if not _append(fields, objects, columns, streamed):
        return None
    del objects
    if any(DISTINCT.column(columns[slot]) is None for slot in distinct if slot in columns):
        return None
    if not all(ids.distinct() for ids in streamed.values()):
        return None
    if digests is not None:
        _record_digest(digests, path, hasher)
    return columns


class _StreamedIds:
    """The ids of a column that is not kept, checked distinct a piece at a
    time. Ids that strictly increase through the file are distinct by the
    neighbour test of :class:`_Distinct`'s column face, so only the last is
    needed; each piece's ids are also kept packed into one string, which only
    a file whose ids break order unpacks, at its end, to sort them. An id that
    holds the separator unpacks as its parts, which can add a repeat but never
    hide one: a false repeat is a doubt, which the whole-text reader settles."""

    __slots__ = ("last", "ordered", "packed")

    def __init__(self) -> None:
        self.last, self.ordered, self.packed = None, True, []

    def add(self, ids: list[str]) -> None:
        """Take the next piece's ids, a nonempty column of strings."""
        self.packed.append(_SEPARATOR.join(ids))
        if self.ordered:
            self.ordered = (self.last is None or self.last < ids[0]) and all(map(lt, ids, islice(ids, 1, None)))
            self.last = ids[-1]

    def distinct(self) -> bool:
        if self.ordered:
            return True
        # Each piece's string dies as its ids are unpacked.
        ids: list[str] = []
        while self.packed:
            ids += self.packed.pop().split(_SEPARATOR)
        return DISTINCT.column(ids) is not None


def _texts(handle, hasher):
    """The text of each block of the binary file ``handle``, after adding the block to ``hasher``."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    while raw := handle.read(_BLOCK):
        hasher.update(raw)
        yield decoder.decode(raw)
    decoder.decode(b"", final=True)  # no text, but raises where the file ends inside a character


def _parse_piece(piece: str) -> Any:
    """The JSON value of ``piece``, or None on a fault."""
    try:
        objects = json.loads(piece)
    except (ValueError, RecursionError):  # a JSONDecodeError, or an integer of too many digits
        return None
    return None if _lone_surrogate(piece, objects) else objects


def _append(fields: tuple, objects: Any, columns: dict[str, list], streamed: dict[str, _StreamedIds]) -> bool:
    """Append to ``columns`` those of the records ``objects``, read by their
    column faces, and pass ``streamed`` their ids; False where ``objects`` is
    not a list or is empty, or a face refuses it."""
    read = by_column(fields, objects) if type(objects) is list else None
    if read is None:
        return False
    for slot, column in columns.items():
        column.extend(read[slot])
    for slot, ids in streamed.items():
        ids.add(read[slot])
    return True

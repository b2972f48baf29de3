"""Dataset directory loading and validation.

An assessment bundle is a directory of UTF-8 JSON files:

  defects.json   array of defect records:
                 {"id", "description", "class", "detection_effort",
                  "observed_modes"?: [...], "resolution"?}
  effort.json    {"kind": "on-demand"|"continuous", "test_count",
                  "test_duration"? (continuous only, hours per test)}
  rtm.json       nonempty array of {"req_id", "description", "status"}
  tca.json       array of {"level", "activity", "trigger", "status"};
                 must cover the 15-slot template exactly
  config.json    assessment options (see _parse_config)
  matrix.json    optional causality matrix:
                 {"provenance", "rows": {class: [4 probs]}, "counts"?}
  corpus.json    optional labeled corpus, same shape as defects.json but
                 observed_modes required nonempty

Every file is parsed and its records and cross-references validated
here; the first violation raises :class:`BundleError` naming the file,
the entry, and the reason. No partial loads. A class history that the
growth model cannot fit (too few events for the stability windows, or no
growth signal) is found by the fit itself, in the rates stage of
:func:`orcas.report.run_assessment`, which raises it as a
:class:`BundleError` of the same form; ``orcas validate`` runs both.

Every input of the tool, the CSV defect log and a saved report included,
is read by :func:`_read_bytes`, decoded by :func:`_decode` and, if JSON,
parsed by :func:`_parse_json`.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import sys
from collections import deque
from itertools import repeat
from operator import attrgetter, itemgetter
from pathlib import Path
from types import NoneType
from typing import Any, Iterable

from . import causality as causality_mod
from .causality import CausalityMatrix
from .domain import (
    DefectClass,
    DefectRecord,
    EffortKind,
    EffortModel,
    FailureMode,
    FrozenRecord,
    ModeFamily,
    TestLevel,
    TriggerKind,
    total_effort,
)
from .errors import BundleError, OrcasError
from .evidence import CoverageStatus, RtmEntry, TcaEntry, validate_tca_entries
from .growth import DEFAULT_STABILITY_THRESHOLD, RateMethod, SrgmModel
from .quantify import SystemKind, mode_applicability

REQUIRED_FILES = ("defects.json", "effort.json", "rtm.json", "tca.json", "config.json")

DEFAULT_CONFIDENCE_THRESHOLD = 0.90
DEFAULT_STABILITY_WINDOWS = 4
BUILTIN_MATRIX_SOURCE = "builtin"
CORPUS_SOURCE_PREFIX = "corpus:"


class AssessmentBundle(FrozenRecord):
    """A fully validated dataset plus effective assessment options."""

    __slots__ = ("defects", "effort", "rtm", "tca", "structural_coverage", "matrix", "matrix_source",
                 "system_kind", "excluded_modes", "mode_family", "confidence_threshold",
                 "stability_threshold", "rate_method", "srgm_model", "stability_windows",
                 "uniform_missing_rows", "rtm_weight", "tca_weight", "input_digests")
    defects: tuple[DefectRecord, ...]
    effort: EffortModel
    rtm: tuple[RtmEntry, ...]
    tca: tuple[TcaEntry, ...]
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


def _read_bytes(path: Path, digests: dict[str, str] | None = None) -> bytes:
    """The bytes of one input file. With ``digests``, also record their
    SHA-256 under the file's name."""
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        raise BundleError(f"{path.name}: file not found in {path.parent}") from None
    except OSError as exc:
        raise BundleError(f"{path.name}: cannot read: {exc}") from exc
    if digests is not None:
        digests[path.name] = "sha256:" + hashlib.sha256(raw).hexdigest()
    return raw


def _decode(raw: bytes, file: str) -> str:
    """The UTF-8 text of an input's bytes, with universal newlines as in
    text-mode reading: CR LF and a lone CR become LF, so the line numbers
    of errors count a lone CR as a line end."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _fail(file, f"byte {exc.start}", "not valid UTF-8") from None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _parse_json(raw: bytes, file: str) -> Any:
    """The JSON document in an input's bytes; ``file`` names the input in
    error messages."""
    text = _decode(raw, file)
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
    return _parse_json(_read_bytes(path, digests), path.name)


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
        expected = ", ".join(member.value for member in enum_cls)
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
# File loaders
# ---------------------------------------------------------------------------

# A record array is checked a column at a time, by passes that make no
# Python call per record (maps over C functions, set, all, min), and its
# records are built in bulk through the slot setters. The column checks
# accept a subset of what the per-record parsers accept: when one fails,
# the per-record parser runs over the array and raises the first fault in
# record order (or, where the column check was the stricter, returns the
# records), so each rule and message has one definition.

_DEFECT_KEYS = frozenset({"id", "description", "class", "detection_effort", "observed_modes",
                          "resolution"})
_DEFECT_REQUIRED = frozenset({"id", "description", "class"})
_CLASSES = {member.value: member for member in DefectClass}
_MODES = {member.value: member for member in FailureMode}


def _slot_setters(cls: type) -> tuple:
    # Slot descriptors set a field even on a frozen instance.
    return tuple(cls.__dict__[name].__set__ for name in cls.__slots__)


_DEFECT_SETTERS = _slot_setters(DefectRecord)
_ID, _DESCRIPTION, _CLASS = itemgetter("id"), itemgetter("description"), itemgetter("class")


def _blank_records(cls: type, count: int) -> tuple:
    """``count`` instances of ``cls`` with no field set, for :func:`_fill`."""
    return tuple(map(object.__new__, repeat(cls, count)))


def _fill(setter, records: tuple, column: Iterable) -> None:
    """Set one field of every record from a column already checked as the
    record type's own constructor would check it."""
    deque(map(setter, records, column), maxlen=0)


def _get(objects: list, key: str, default: Any = None) -> list:
    return list(map(dict.get, objects, repeat(key), repeat(default)))


def _objects_within(objects: list, keys: frozenset) -> bool:
    """Whether ``objects`` are all JSON objects with no key outside ``keys``
    (a missing required key is found when its column is read)."""
    return set(map(type, objects)) == {dict} and keys.issuperset(set().union(*objects))


def _distinct_ids(column: list) -> bool:
    return set(map(type, column)) == {str} and all(column) and len(set(column)) == len(column)


def _defects_by_column(objects: list, require_modes: bool) -> tuple[DefectRecord, ...] | None:
    """The records of a nonempty defect array, or None if a column check
    fails. A missing required key, an unknown class or mode, an unhashable
    value or an integer effort beyond float range raises below, and also
    gives None."""
    if not _objects_within(objects, _DEFECT_KEYS):
        return None
    set_id, set_description, set_class, set_effort, set_modes, set_resolution = _DEFECT_SETTERS
    records = _blank_records(DefectRecord, len(objects))
    try:
        column = list(map(_ID, objects))
        if not _distinct_ids(column):
            return None
        _fill(set_id, records, column)
        column = list(map(_DESCRIPTION, objects))
        if set(map(type, column)) != {str}:
            return None
        _fill(set_description, records, column)
        _fill(set_class, records, map(_CLASSES.__getitem__, map(_CLASS, objects)))
        column = _get(objects, "detection_effort", 0.0)
        types = set(map(type, column))
        if not types <= {float, int}:  # bool is neither
            return None
        if int in types:
            column = list(map(float, column))
        # With NaN ruled out first, min is reliable; -0.0 passes and keeps its sign.
        if not all(map(math.isfinite, column)) or min(column) < 0.0:
            return None
        _fill(set_effort, records, column)
        # An absent observed_modes reads as (), which no JSON value is; null stays None.
        column = _get(objects, "observed_modes", ())
        if not set(map(type, column)) <= {list, tuple}:
            return None
        column = list(map(tuple, column))
        # One frozenset per distinct mode list, shared by its records.
        modes = {key: frozenset(map(_MODES.__getitem__, key)) for key in set(column)}
        if require_modes and not all(modes.values()):
            return None
        _fill(set_modes, records, map(modes.__getitem__, column))
    except (KeyError, TypeError, OverflowError):
        return None
    column = _get(objects, "resolution")
    if not set(map(type, column)) <= {str, NoneType}:
        return None
    _fill(set_resolution, records, column)
    return records


def _parse_defect(obj: Any, file: str, index: int, require_modes: bool) -> DefectRecord:
    data = _expect_object(obj, file, f"record {index}", _DEFECT_KEYS, _DEFECT_REQUIRED)
    record_id = _parse_string(data["id"], file, f"record {index}: id")
    if not record_id:
        raise _fail(file, f"record {index}: id", "must be a nonempty string")
    where = f"record {_quote(record_id, _ID_LIMIT)}"
    defect_class = _parse_enum(DefectClass, data["class"], file, f"{where}: class")
    effort = _parse_number(data.get("detection_effort", 0.0), file, f"{where}: detection_effort", lo=0.0)
    raw_modes = data.get("observed_modes", [])
    if not isinstance(raw_modes, list):
        raise _fail(file, f"{where}: observed_modes", f"expected an array, got {_quote(raw_modes)}")
    modes = frozenset([_parse_enum(FailureMode, mode, file, f"{where}: observed_modes")
                       for mode in raw_modes])
    if require_modes and not modes:
        raise _fail(file, where, "corpus records must label at least one observed failure mode")
    resolution = data.get("resolution")
    if resolution is not None:
        resolution = _parse_string(resolution, file, f"{where}: resolution")
    description = _parse_string(data["description"], file, f"{where}: description")
    return DefectRecord(record_id, description, defect_class, effort, modes, resolution)


def _defects_by_record(objects: Iterable[tuple[int, Any]], file: str,
                       require_modes: bool) -> tuple[DefectRecord, ...]:
    """Parse (index, object) pairs into records with distinct ids."""
    records = []
    seen_ids: set[str] = set()
    for index, obj in objects:
        record = _parse_defect(obj, file, index, require_modes)
        if record.id in seen_ids:
            raise _fail(file, f"record {_quote(record.id, _ID_LIMIT)}", "duplicate id")
        seen_ids.add(record.id)
        records.append(record)
    return tuple(records)


def _parse_defects(objects: list, file: str, require_modes: bool, start: int = 0) -> tuple[DefectRecord, ...]:
    """The records of a defect array whose first element is record ``start``."""
    records = _defects_by_column(objects, require_modes)
    if records is None:
        records = _defects_by_record(enumerate(objects, start), file, require_modes)
    return records


def _load_defect_file(path: Path, require_modes: bool,
                      digests: dict[str, str] | None) -> tuple[DefectRecord, ...]:
    objects = _expect_array(_read_json(path, digests), path.name)
    return _parse_defects(objects, path.name, require_modes)


def load_defects_file(path: Path | str, *,
                      digests: dict[str, str] | None = None) -> tuple[DefectRecord, ...]:
    """Defect records from a defects.json file. ``digests``, if given,
    receives the SHA-256 of the file under its name (as do the other
    file loaders)."""
    return _load_defect_file(Path(path), False, digests)


def load_corpus_file(path: Path | str, *,
                     digests: dict[str, str] | None = None) -> tuple[DefectRecord, ...]:
    path = Path(path)
    records = _load_defect_file(path, True, digests)
    if not records:
        raise _fail(path.name, "top level", "no corpus records")
    return records


def load_effort_file(path: Path | str, *, digests: dict[str, str] | None = None) -> EffortModel:
    path = Path(path)
    data = _expect_object(
        _read_json(path, digests), path.name, "top level",
        {"kind", "test_count", "test_duration"}, {"kind", "test_count"},
    )
    kind = _parse_enum(EffortKind, data["kind"], path.name, "kind")
    count = data["test_count"]
    if isinstance(count, bool) or not isinstance(count, int):
        raise _fail(path.name, "test_count", f"expected an integer, got {_quote(count)}")
    duration = data.get("test_duration")
    if duration is not None:
        duration = _parse_number(duration, path.name, "test_duration")
    try:
        model = EffortModel(kind=kind, test_count=count, test_duration=duration)
    except ValueError as exc:
        raise _fail(path.name, "top level", str(exc)) from exc
    try:
        total = total_effort(model)
    except OverflowError:
        total = math.inf
    if not math.isfinite(total):
        raise _fail(path.name, "test_count",
                    "total testing effort (test_count x test_duration) is beyond floating-point range")
    return model


_RTM_KEYS = frozenset({"req_id", "description", "status"})
_RTM_SETTERS = _slot_setters(RtmEntry)
_STATUSES = {member.value: member for member in CoverageStatus}


def _rtm_by_column(objects: list) -> tuple[RtmEntry, ...] | None:
    """The entries of a nonempty RTM array, or None if a column check
    fails (a missing key or an unknown status raises below)."""
    if not _objects_within(objects, _RTM_KEYS):
        return None
    set_req_id, set_description, set_status = _RTM_SETTERS
    entries = _blank_records(RtmEntry, len(objects))
    try:
        column = list(map(itemgetter("req_id"), objects))
        if not _distinct_ids(column):
            return None
        _fill(set_req_id, entries, column)
        column = list(map(_DESCRIPTION, objects))
        if set(map(type, column)) != {str}:
            return None
        _fill(set_description, entries, column)
        _fill(set_status, entries, map(_STATUSES.__getitem__, map(itemgetter("status"), objects)))
    except (KeyError, TypeError):
        return None
    return entries


def _rtm_by_record(objects: list, file: str) -> tuple[RtmEntry, ...]:
    entries = []
    seen: set[str] = set()
    for index, obj in enumerate(objects):
        data = _expect_object(obj, file, f"entry {index}", _RTM_KEYS, _RTM_KEYS)
        req_id = _parse_string(data["req_id"], file, f"entry {index}: req_id")
        if not req_id:
            raise _fail(file, f"entry {index}: req_id", "must be a nonempty string")
        if req_id in seen:
            raise _fail(file, f"entry {_quote(req_id, _ID_LIMIT)}", "duplicate req_id")
        seen.add(req_id)
        description = _parse_string(data["description"], file, f"entry {index}: description")
        status = _parse_enum(CoverageStatus, data["status"], file,
                             f"entry {_quote(req_id, _ID_LIMIT)}: status")
        entries.append(RtmEntry(req_id, description, status))
    return tuple(entries)


def load_rtm_file(path: Path | str, *, digests: dict[str, str] | None = None) -> tuple[RtmEntry, ...]:
    path = Path(path)
    objects = _expect_array(_read_json(path, digests), path.name)
    entries = _rtm_by_column(objects)
    if entries is None:
        entries = _rtm_by_record(objects, path.name)
    if not entries:
        raise _fail(path.name, "top level", "no entries; an empty traceability matrix cannot be scored")
    return entries


def load_tca_file(path: Path | str, *, digests: dict[str, str] | None = None) -> tuple[TcaEntry, ...]:
    path = Path(path)
    entries = []
    for index, obj in enumerate(_expect_array(_read_json(path, digests), path.name)):
        where = f"entry {index}"
        data = _expect_object(obj, path.name, where, {"level", "activity", "trigger", "status"},
                              {"level", "activity", "trigger", "status"})
        try:
            entries.append(TcaEntry(
                level=_parse_enum(TestLevel, data["level"], path.name, f"{where}: level"),
                activity=_parse_string(data["activity"], path.name, f"{where}: activity"),
                trigger=_parse_enum(TriggerKind, data["trigger"], path.name, f"{where}: trigger"),
                status=_parse_enum(CoverageStatus, data["status"], path.name, f"{where}: status"),
            ))
        except ValueError as exc:
            raise _fail(path.name, where, str(exc)) from exc
    return tuple(entries)


def load_matrix_file(path: Path | str, *, digests: dict[str, str] | None = None) -> CausalityMatrix:
    """A causality matrix from a matrix.json file. The JSON types are
    checked here, the values by :class:`CausalityMatrix` itself."""
    path = Path(path)
    data = _expect_object(_read_json(path, digests), path.name, "top level",
                          {"provenance", "rows", "counts"}, {"provenance", "rows"})
    if not isinstance(data["rows"], dict):
        raise _fail(path.name, "rows", "expected an object mapping class to 4 probabilities")
    rows = {}
    for key, row in data["rows"].items():
        cls = _parse_enum(DefectClass, key, path.name, "rows")
        if not isinstance(row, list):
            raise _fail(path.name, f"rows: {key}", "expected an array of 4 probabilities")
        rows[cls] = tuple(_parse_number(p, path.name, f"rows: {key}") for p in row)
    counts = None
    if data.get("counts") is not None:
        if not isinstance(data["counts"], dict):
            raise _fail(path.name, "counts", "expected an object mapping class to 4 integers")
        counts = {}
        for key, row in data["counts"].items():
            cls = _parse_enum(DefectClass, key, path.name, "counts")
            if not isinstance(row, list) or any(isinstance(c, bool) or not isinstance(c, int) for c in row):
                raise _fail(path.name, f"counts: {key}", "expected an array of 4 nonnegative integers")
            counts[cls] = tuple(row)
    try:
        return CausalityMatrix(
            rows=rows,
            provenance=_parse_string(data["provenance"], path.name, "provenance"),
            counts=counts,
        )
    except ValueError as exc:
        # The message names the field and class: "rows: checking: ...".
        raise BundleError(f"{path.name}: {exc}") from exc


def load_history_file(path: Path | str) -> tuple[list[float], float | None]:
    """Failure-history file for growth-model fitting:
    {"events": [efforts...], "horizon"?: total observed effort}."""
    path = Path(path)
    data = _expect_object(_read_json(path), path.name, "top level", {"events", "horizon"}, {"events"})
    if not isinstance(data["events"], list) or not data["events"]:
        raise _fail(path.name, "events", "expected a nonempty array of detection efforts")
    events = [_parse_number(t, path.name, f"events[{i}]", lo=0.0) for i, t in enumerate(data["events"])]
    horizon = data.get("horizon")
    if horizon is not None:
        horizon = _parse_number(horizon, path.name, "horizon", lo=0.0)
    return events, horizon


_CSV_COLUMNS = {"id", "description", "class", "detection_effort", "observed_modes", "resolution"}


def defects_from_csv(path: Path | str) -> tuple[DefectRecord, ...]:
    """Convenience converter: defect records from a headered CSV file.

    Required columns: id, description, class. Optional: detection_effort,
    observed_modes (semicolon-separated mode letters), resolution. The
    JSON bundle format stays the source of truth; this exists because
    defect logs usually start life in spreadsheets.
    """
    import csv  # only this converter reads CSV; keep it out of every other command's start-up
    path = Path(path)
    reader = csv.DictReader(io.StringIO(_decode(_read_bytes(path), path.name)))
    if reader.fieldnames is None:
        raise _fail(path.name, "header", "empty file; expected a CSV header row")
    fields = [name.strip() for name in reader.fieldnames]
    unknown = set(fields) - _CSV_COLUMNS
    if unknown:
        raise _fail(path.name, "header", f"unknown column(s): {', '.join(sorted(unknown))}")
    missing = {"id", "description", "class"} - set(fields)
    if missing:
        raise _fail(path.name, "header", f"missing column(s): {', '.join(sorted(missing))}")
    entries: list[dict] = []
    try:
        for line, row in enumerate(reader, start=2):
            entries.append(_csv_entry(row, path.name, line))
    except BundleError:
        # A fault in an earlier row is reported first.
        _defects_by_record(enumerate(entries, start=2), path.name, require_modes=False)
        raise
    return _parse_defects(entries, path.name, require_modes=False, start=2)


def _csv_entry(row: dict, file: str, line: int) -> dict:
    entry: dict = {
        "id": (row.get("id") or "").strip(),
        "description": (row.get("description") or "").strip(),
        "class": (row.get("class") or "").strip(),
    }
    effort = (row.get("detection_effort") or "").strip()
    if effort:
        try:
            entry["detection_effort"] = float(effort)
        except ValueError:
            raise _fail(file, f"line {line}", f"detection_effort is not a number: {_quote(effort)}") from None
    modes = (row.get("observed_modes") or "").strip()
    if modes:
        entry["observed_modes"] = [m.strip() for m in modes.split(";") if m.strip()]
    resolution = (row.get("resolution") or "").strip()
    if resolution:
        entry["resolution"] = resolution
    return entry


# ---------------------------------------------------------------------------
# Config and bundle assembly
# ---------------------------------------------------------------------------

_CONFIG_KEYS = {
    "structural_coverage",
    "system_kind",
    "excluded_modes",
    "confidence_threshold",
    "stability_threshold",
    "rate_method",
    "srgm_model",
    "stability_windows",
    "matrix",
    "uniform_missing_rows",
    "mode_family",
    "rtm_weight",
    "tca_weight",
}


def _parse_config(path: Path, digests: dict[str, str] | None = None) -> dict:
    file = path.name
    data = _expect_object(_read_json(path, digests), file, "top level", _CONFIG_KEYS,
                          {"structural_coverage", "system_kind"})
    config: dict[str, Any] = {}
    config["structural_coverage"] = _parse_number(
        data["structural_coverage"], file, "structural_coverage", lo=0.0, hi=1.0)
    config["system_kind"] = _parse_enum(SystemKind, data["system_kind"], file, "system_kind")
    raw_excluded = data.get("excluded_modes")
    if raw_excluded is not None:
        if not isinstance(raw_excluded, list):
            raise _fail(file, "excluded_modes", "expected an array of failure modes")
        config["excluded_modes"] = frozenset(
            _parse_enum(FailureMode, m, file, "excluded_modes") for m in raw_excluded)
    else:
        config["excluded_modes"] = None
    config["confidence_threshold"] = _parse_number(
        data.get("confidence_threshold", DEFAULT_CONFIDENCE_THRESHOLD),
        file, "confidence_threshold", lo=0.0, hi=1.0)
    config["stability_threshold"] = _parse_number(
        data.get("stability_threshold", DEFAULT_STABILITY_THRESHOLD),
        file, "stability_threshold", lo=0.0)
    config["rate_method"] = _parse_enum(
        RateMethod, data.get("rate_method", RateMethod.BOUNDED.value), file, "rate_method")
    config["srgm_model"] = _parse_enum(
        SrgmModel, data.get("srgm_model", SrgmModel.GOEL_OKUMOTO.value), file, "srgm_model")
    windows = data.get("stability_windows", DEFAULT_STABILITY_WINDOWS)
    if isinstance(windows, bool) or not isinstance(windows, int) or windows < 2:
        raise _fail(file, "stability_windows", f"expected an integer >= 2, got {_quote(windows)}")
    config["stability_windows"] = windows
    config["matrix"] = _parse_string(data.get("matrix", BUILTIN_MATRIX_SOURCE), file, "matrix")
    flag = data.get("uniform_missing_rows", False)
    if not isinstance(flag, bool):
        raise _fail(file, "uniform_missing_rows", f"expected true or false, got {_quote(flag)}")
    config["uniform_missing_rows"] = flag
    if "mode_family" in data:
        config["mode_family"] = _parse_enum(ModeFamily, data["mode_family"], file, "mode_family")
    else:
        config["mode_family"] = None
    config["rtm_weight"] = _parse_number(data.get("rtm_weight", 0.5), file, "rtm_weight", lo=0.0)
    config["tca_weight"] = _parse_number(data.get("tca_weight", 0.5), file, "tca_weight", lo=0.0)
    return config


def resolve_matrix_source(source: str, directory: Path, *,
                          digests: dict[str, str] | None = None) -> tuple[CausalityMatrix, Path | None]:
    """Resolve "builtin", "corpus:<file>" or a matrix file path.

    Returns the matrix and the file it came from (None for builtin);
    relative paths resolve against the bundle directory. ``digests``, if
    given, receives the SHA-256 of the file read.
    """
    if source == BUILTIN_MATRIX_SOURCE:
        return causality_mod.builtin_causality(), None
    if source.startswith(CORPUS_SOURCE_PREFIX):
        corpus_path = Path(source[len(CORPUS_SOURCE_PREFIX):])
        if not corpus_path.is_absolute():
            corpus_path = directory / corpus_path
        corpus = load_corpus_file(corpus_path, digests=digests)
        try:
            matrix = causality_mod.estimate_causality(corpus, provenance=f"corpus:{corpus_path.name}")
        except OrcasError as exc:
            raise _fail(corpus_path.name, "corpus", str(exc)) from exc
        return matrix, corpus_path
    matrix_path = Path(source)
    if not matrix_path.is_absolute():
        matrix_path = directory / matrix_path
    return load_matrix_file(matrix_path, digests=digests), matrix_path


_EFFORT_OF = attrgetter("detection_effort")


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

    defects = load_defects_file(paths["defects.json"], digests=digests)
    effort = load_effort_file(paths["effort.json"], digests=digests)
    rtm = load_rtm_file(paths["rtm.json"], digests=digests)
    tca = load_tca_file(paths["tca.json"], digests=digests)
    config = _parse_config(paths["config.json"], digests)

    effort_total = total_effort(effort)
    unit = effort.rate_unit.value
    growth = config["rate_method"] is RateMethod.SRGM
    # Efforts are finite once loaded, so min and max are reliable; only when
    # a test fails is the first offending record looked for.
    if defects and ((growth and min(map(_EFFORT_OF, defects)) <= 0.0)
                    or max(map(_EFFORT_OF, defects)) > effort_total):
        for record in defects:
            if growth and record.detection_effort <= 0.0:
                raise _fail(
                    "defects.json", f"record {_quote(record.id, _ID_LIMIT)}: detection_effort",
                    f"must be positive for rate_method 'srgm' (the growth model fits detection "
                    f"efforts), got {record.detection_effort!r}; record it or use rate_method 'bounded'",
                )
            if record.detection_effort > effort_total:
                raise _fail(
                    "defects.json", f"record {_quote(record.id, _ID_LIMIT)}",
                    f"detection_effort {record.detection_effort!r} exceeds total testing effort "
                    f"{effort_total!r}; detection efforts must be recorded in the effort model's "
                    f"unit ({unit})",
                )
    try:
        validate_tca_entries(tca)
    except OrcasError as exc:
        raise _fail("tca.json", "coverage", str(exc)) from exc

    system_kind = config["system_kind"]
    config_excluded = config["excluded_modes"]
    if exclude_modes is not None:
        system_kind = SystemKind.CUSTOM
        excluded = frozenset(exclude_modes)
    else:
        try:
            excluded = mode_applicability(system_kind, config_excluded)
        except OrcasError as exc:
            raise _fail("config.json", "excluded_modes", str(exc)) from exc

    mode_family = config["mode_family"]
    if mode_family is None:
        mode_family = (
            ModeFamily.INFORMATION
            if config["system_kind"] is SystemKind.CONTINUOUS_MONITORING
            else ModeFamily.CONTROL
        )

    source = matrix_source if matrix_source is not None else config["matrix"]
    matrix, _ = resolve_matrix_source(source, directory, digests=digests)

    return AssessmentBundle(
        defects=defects,
        effort=effort,
        rtm=rtm,
        tca=tca,
        structural_coverage=config["structural_coverage"],
        matrix=matrix,
        matrix_source=source,
        system_kind=system_kind,
        excluded_modes=excluded,
        mode_family=mode_family,
        confidence_threshold=(
            confidence_threshold if confidence_threshold is not None
            else config["confidence_threshold"]),
        stability_threshold=config["stability_threshold"],
        rate_method=config["rate_method"],
        srgm_model=config["srgm_model"],
        stability_windows=config["stability_windows"],
        uniform_missing_rows=(
            uniform_missing_rows if uniform_missing_rows is not None
            else config["uniform_missing_rows"]),
        rtm_weight=config["rtm_weight"],
        tca_weight=config["tca_weight"],
        input_digests=digests,
    )

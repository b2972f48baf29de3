"""Dataset directory loading and validation.

An assessment bundle is a directory of UTF-8 JSON files, each described
below by a table of field entries, whose field kinds are those of
:mod:`orcas.schema`:

  defects.json   array of defect records (_DEFECT_FIELDS)
  effort.json    the testing effort (_EFFORT_FIELDS)
  rtm.json       nonempty array of requirements (_RTM_FIELDS)
  tca.json       array of trigger-coverage slots (_TCA_FIELDS) that
                 covers the 15-slot template exactly
  config.json    assessment options (_CONFIG_FIELDS)
  matrix.json    optional causality matrix (_MATRIX_FIELDS)
  corpus.json    optional labeled corpus (_CORPUS_FIELDS): defect
                 records that each label an observed failure mode

Every file is read once, parsed and checked against its table by
:mod:`orcas.schema` (a record file a block at a time, keeping only the
columns asked for), and the rules that join fields or files are checked
here; the first violation raises :class:`BundleError` naming the file,
the entry, and the reason. No partial loads. The rules that join each
detection effort to effort.json and config.json are entries of the
defects' table, so those two are read first. A class history that the
growth model cannot fit (too few events for the stability windows, or no
growth signal) is found by the fit itself, and a class of positive rate
that the matrix has no row for after the rates, in
:func:`orcas.report.run_assessment`, which raises each as a
:class:`BundleError` of the same form; ``orcas validate`` runs both.
"""

from __future__ import annotations

import math
import re
from operator import itemgetter
from pathlib import Path
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
from .growth import DEFAULT_STABILITY_THRESHOLD, RateMethod, SrgmModel, validate_events
from .quantify import SystemKind, mode_applicability
from .schema import (DISTINCT, REQUIRED, Array, Enum, EnumSet, Flag, Integer, Map, Number, Object, Rule,
                     String, by_record, fail, parse_json, parse_records, quote, read_records, read_text, table_keys)

REQUIRED_FILES = ("defects.json", "effort.json", "rtm.json", "tca.json", "config.json")

DEFAULT_STABILITY_WINDOWS = 4
BUILTIN_MATRIX_SOURCE = "builtin"
CORPUS_SOURCE_PREFIX = "corpus:"


class AssessmentBundle(NamedTuple):
    """A fully validated dataset plus effective assessment options.

    Of the record arrays it keeps the columns the stages read: of the
    defects ``defect_class``, and ``detection_effort`` where the growth
    model reads it (``rate_method`` ``srgm``), of the RTM ``req_id`` and
    ``status``, and every TCA column. Every other field is checked, not
    kept: the rows read it as None. :func:`load_bundle` passes these
    columns to the file readers (:func:`load_defects_file` and the rest)
    as ``keep``; without it they keep every field."""

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


_DEFECT_FIELDS = (
    ("id", REQUIRED, String(nonempty=True), "id", False),
    ("class", REQUIRED, Enum(DefectClass), "defect_class", True),
    ("detection_effort", 0.0, Number(lo=0.0), "detection_effort", True),
    ("observed_modes", [], EnumSet(FailureMode, "expected an array, got {}"), "observed_modes", True),
    ("resolution", None, String(null=True), "resolution", True),
    ("description", REQUIRED, String(), "description", True),
    ("id", REQUIRED, DISTINCT, None, True),
)
# A corpus record labels at least one mode; its fields are a defect record's.
_CORPUS_FIELDS = (
    *_DEFECT_FIELDS[:4],
    ("observed_modes", [], Rule(bool, "corpus records must label at least one observed failure mode"),
     None, True),
    *_DEFECT_FIELDS[4:],
)
_RTM_FIELDS = (
    ("req_id", REQUIRED, String(nonempty=True), "req_id", False),
    ("req_id", REQUIRED, DISTINCT, None, True),
    ("description", REQUIRED, String(), "description", False),
    ("status", REQUIRED, Enum(CoverageStatus), "status", True),
)
_TCA_FIELDS = (
    ("level", REQUIRED, Enum(TestLevel), "level", False),
    ("activity", REQUIRED, String(), "activity", False),
    ("trigger", REQUIRED, Enum(TriggerKind), "trigger", False),
    ("status", REQUIRED, Enum(CoverageStatus), "status", False),
    ("activity", REQUIRED, Rule(ACTIVITIES.__contains__,
                                f"activity must be one of {', '.join(ACTIVITIES)}; got {{}}"), None, False),
)
_EFFORT_FIELDS = (
    ("kind", REQUIRED, Enum(EffortKind)),
    ("test_count", REQUIRED, Integer()),
    ("test_duration", None, Number(null=True)),
)
# The kinds of a matrix source, in the order of their checks: config.json's "matrix" and a saved
# report's provenance.options.matrix_source.
MATRIX_SOURCE = (
    String(nonempty=True),
    Rule(lambda source: source != CORPUS_SOURCE_PREFIX,
         f"expected a corpus file after '{CORPUS_SOURCE_PREFIX}', got {{}}"),
)
_CONFIG_FIELDS = (
    ("structural_coverage", REQUIRED, Number(0.0, 1.0)),
    ("system_kind", REQUIRED, Enum(SystemKind)),
    ("excluded_modes", None, EnumSet(FailureMode, "expected an array of failure modes", null=True)),
    ("confidence_threshold", DEFAULT_CONFIDENCE_THRESHOLD, Number(0.0, 1.0)),
    ("stability_threshold", DEFAULT_STABILITY_THRESHOLD, Number(0.0)),
    ("rate_method", RateMethod.BOUNDED, Enum(RateMethod)),
    ("srgm_model", SrgmModel.GOEL_OKUMOTO, Enum(SrgmModel)),
    ("stability_windows", DEFAULT_STABILITY_WINDOWS, Integer(2)),
    *(("matrix", BUILTIN_MATRIX_SOURCE, kind) for kind in MATRIX_SOURCE),
    ("uniform_missing_rows", False, Flag()),
    ("mode_family", None, Enum(ModeFamily)),  # null is refused, not read as absent
    ("rtm_weight", 0.5, Number(0.0)),
    ("tca_weight", 0.5, Number(0.0)),
)
_HISTORY_FIELDS = (
    ("events", REQUIRED, Array(Number(lo=0.0), "expected a nonempty array of detection efforts",
                               indexed=True, nonempty=True)),
    ("horizon", None, Number(0.0, null=True)),
)
# The length, range and sum of a row are checked by load_matrix_file.
_COUNTS = "expected an array of 4 nonnegative integers"
_MATRIX_FIELDS = (
    ("rows", REQUIRED, Map(DefectClass, Array(Number(), "expected an array of 4 probabilities"))),
    ("counts", None, Map(DefectClass, Array(Rule(lambda count: type(count) is int, _COUNTS), _COUNTS),
                         null=True)),
    ("provenance", REQUIRED, String()),
)


# Each record array by the name of its file: its row type, its table, the
# label of its records, and the fault of an empty array, if any.
_ARRAYS = {
    "defects.json": (DefectRecord, _DEFECT_FIELDS, "record", None),
    "corpus.json": (DefectRecord, _CORPUS_FIELDS, "record", "no corpus records"),
    "rtm.json": (RtmEntry, _RTM_FIELDS, "entry", "no entries; an empty traceability matrix cannot be scored"),
    "tca.json": (TcaEntry, _TCA_FIELDS, "entry", None),
}


def records_from_json(kind: str, values: Any, file: str | None = None, *, rules: tuple = ()) -> Records:
    """The records of a parsed JSON array of ``kind`` (``defects.json``, ``corpus.json``,
    ``rtm.json`` or ``tca.json``), checked as that file's loader checks them (with ``rules``): the
    first fault raises the loader's :class:`BundleError`, naming ``file`` (default ``kind``)."""
    row, fields, label, empty = _ARRAYS[kind]
    file = file or kind
    if not isinstance(values, list):
        raise fail(file, "top level", f"expected a JSON array, got {type(values).__name__}")
    records = parse_records(row, fields + rules, values, file, label)
    if empty and not records:
        raise fail(file, "top level", empty)
    return records


def _read_json(path: Path, digests: dict[str, str] | None = None) -> Any:
    """Parse one UTF-8 JSON file. With ``digests``, also record the SHA-256
    of the bytes parsed under the file's name."""
    return parse_json(read_text(path, digests=digests), path.name)


def _load_records(kind: str, path: Path | str, digests: dict[str, str] | None,
                  keep: tuple[str, ...] | None, rules: tuple = ()) -> Records:
    """The records of the file at ``path``, of the array ``kind``, with the columns ``keep``
    (every column of the row type if None), checked also by the table entries ``rules``."""
    path = Path(path)
    row, fields, _, _ = _ARRAYS[kind]
    keep = row._fields if keep is None else keep
    if not keep:
        raise OrcasError(f"{kind}: keep names no column; a record count needs one")
    columns = read_records(path, fields + rules, keep, digests)
    if columns is None:
        # A fault, or a doubt: the whole text names the first fault, or reads the columns.
        columns = records_from_json(kind, _read_json(path, digests), path.name, rules=rules).columns
    return Records(row, {name: columns[name] for name in keep})


# ---------------------------------------------------------------------------
# File loaders
# ---------------------------------------------------------------------------


def load_defects_file(path: Path | str, *, digests: dict[str, str] | None = None,
                      keep: tuple[str, ...] | None = None,
                      campaign: tuple[EffortModel, RateMethod] | None = None) -> Records:
    """Defect records from a defects.json file. ``digests``, if given,
    receives the SHA-256 of the file under its name (as do the other
    file loaders). Every field of every record is checked; ``keep``, if
    given, names the columns kept, one at least (as for load_corpus_file
    and load_rtm_file), and the rows read any other as None. With
    ``campaign``, a bundle's effort model and rate method, each detection
    effort is also at most the total effort, and above 0 under ``srgm``."""
    rules: tuple = ()
    if campaign is not None:
        effort, rate_method = campaign
        total = total_effort(effort)
        rules = (Rule(total.__ge__, f"detection_effort {{}} exceeds total testing effort {total!r}; detection "
                                    f"efforts must be recorded in the effort model's unit ({effort.rate_unit})"),)
        if rate_method == RateMethod.SRGM:
            rules += (Rule((0.0).__lt__, "detection_effort must be positive for rate_method 'srgm' (the growth model "
                                         "fits detection efforts), got {}; record it or use rate_method 'bounded'"),)
    return _load_records("defects.json", path, digests, keep,
                         tuple(("detection_effort", 0.0, rule, None, True) for rule in rules))


def load_corpus_file(path: Path | str, *, digests: dict[str, str] | None = None,
                     keep: tuple[str, ...] | None = None) -> Records:
    return _load_records("corpus.json", path, digests, keep)


def load_effort_file(path: Path | str, *, digests: dict[str, str] | None = None) -> EffortModel:
    """The testing effort of an effort.json file (_EFFORT_FIELDS), with the
    rules that join its fields: a positive count, a positive duration
    exactly for continuous effort, and a finite total."""
    path = Path(path)
    model = EffortModel(**Object(_EFFORT_FIELDS).check(_read_json(path, digests), path.name, "top level"))
    continuous = model.kind == EffortKind.CONTINUOUS
    if model.test_count <= 0:
        raise fail(path.name, "top level", f"test_count must be positive, got {model.test_count}")
    if continuous and model.test_duration is None:
        raise fail(path.name, "top level", "continuous effort requires test_duration (hours per test)")
    if continuous and model.test_duration <= 0.0:
        raise fail(path.name, "top level", f"test_duration must be positive, got {model.test_duration!r}")
    if not continuous and model.test_duration is not None:
        raise fail(path.name, "top level",
                   "on-demand effort takes no test_duration; remove it or use kind=continuous")
    try:
        total = total_effort(model)
    except OverflowError:
        total = math.inf
    if not math.isfinite(total):
        raise fail(path.name, "test_count",
                   "total testing effort (test_count x test_duration) is beyond floating-point range")
    return model


def load_rtm_file(path: Path | str, *, digests: dict[str, str] | None = None,
                  keep: tuple[str, ...] | None = None) -> Records:
    return _load_records("rtm.json", path, digests, keep)


def load_tca_file(path: Path | str, *, digests: dict[str, str] | None = None) -> Records:
    return _load_records("tca.json", path, digests, None)


def load_matrix_file(path: Path | str, *, digests: dict[str, str] | None = None) -> CausalityMatrix:
    """A causality matrix from a matrix.json file (_MATRIX_FIELDS): each row
    4 probabilities that sum to 1, and each count row 4 nonnegative integers."""
    path = Path(path)
    values = Object(_MATRIX_FIELDS).check(_read_json(path, digests), path.name, "top level")
    for cls, row in values["rows"].items():
        where = f"rows: {cls}"
        if len(row) != len(MODE_ORDER):
            raise fail(path.name, where, f"expected {len(MODE_ORDER)} probabilities, got {len(row)}")
        for p in row:
            if not 0.0 <= p <= 1.0:
                raise fail(path.name, where, f"probability {p!r} outside [0, 1]")
        if abs(math.fsum(row) - 1.0) > ROW_SUM_TOLERANCE:
            raise fail(path.name, where, f"sums to {math.fsum(row)!r}, outside 1.0 +/- {ROW_SUM_TOLERANCE}")
        values["rows"][cls] = tuple(row)
    for cls, row in (values["counts"] or {}).items():
        if len(row) != len(MODE_ORDER) or min(row) < 0:
            raise fail(path.name, f"counts: {cls}", f"expected {len(MODE_ORDER)} nonnegative integers")
        values["counts"][cls] = tuple(row)
    return CausalityMatrix(**values)


def load_history_file(path: Path | str) -> tuple[list[float], float | None]:
    """Failure-history file for growth-model fitting, {"events": [efforts...], "horizon"?:
    total observed effort}, that :func:`orcas.growth.validate_events` accepts."""
    path = Path(path)
    values = Object(_HISTORY_FIELDS).check(_read_json(path), path.name, "top level")
    # The events alone, then with the horizon, so that a fault names the key at fault.
    for where, horizon in (("events", None), ("horizon", values["horizon"])):
        try:
            validate_events(values["events"], horizon)
        except OrcasError as exc:
            raise fail(path.name, where, str(exc)) from None
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
    # character), after the BOM a spreadsheet's "CSV UTF-8" starts with. strict: an unterminated
    # quote is an error, not the rest of the file in one field.
    text = read_text(path).removeprefix("\ufeff")
    rows = csv.reader(map(itemgetter(0), re.finditer(r"[^\n]*\n|[^\n]+", text)), strict=True)
    try:
        header = next(rows, None)
    except csv.Error as exc:
        raise fail(file, "header", f"invalid CSV: {exc}") from None
    if header is None:
        raise fail(file, "header", "empty file; expected a CSV header row")
    fields = [name.strip() for name in header]
    columns, required = table_keys(_DEFECT_FIELDS)
    for problem, names in (("duplicate", {name for name in fields if fields.count(name) > 1}),
                           ("unknown", set(fields) - columns), ("missing", required - set(fields))):
        if names:
            raise fail(file, "header", f"{problem} column(s): {', '.join(sorted(names))}")
    entries: list[dict] = []
    lines: list[int] = []  # the file line each entry's row starts on, which numbers the entry
    line = rows.line_num + 1
    try:
        for row in rows:
            if row:  # a blank line holds no row
                if len(row) > len(fields):
                    raise fail(file, f"line {line}", f"{len(row)} fields; the header has {len(fields)}")
                values = dict(zip(fields, row))
                # Each required column, and each optional one not left blank.
                entry = {key: text for key in columns if (text := values.get(key, "").strip()) or key in required}
                if "detection_effort" in entry:
                    try:
                        entry["detection_effort"] = float(entry["detection_effort"])
                    except ValueError:
                        raise fail(file, f"line {line}", "detection_effort is not a number: "
                                   f"{quote(entry['detection_effort'])}") from None
                if "observed_modes" in entry:
                    entry["observed_modes"] = [m.strip() for m in entry["observed_modes"].split(";") if m.strip()]
                entries.append(entry)
                lines.append(line)
            line = rows.line_num + 1
    except (BundleError, csv.Error) as exc:
        # A fault in an earlier row is reported first.
        by_record(_DEFECT_FIELDS, entries, file, "record", lines)
        if isinstance(exc, csv.Error):
            raise fail(file, f"line {line}", f"invalid CSV: {exc}") from None
        raise
    return parse_records(DefectRecord, _DEFECT_FIELDS, entries, file, numbers=lines)


# ---------------------------------------------------------------------------
# Config and bundle assembly
# ---------------------------------------------------------------------------


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
        corpus = load_corpus_file(corpus_path, digests=digests, keep=("defect_class", "observed_modes"))
        return causality_mod.estimate_causality(corpus, provenance=f"corpus:{corpus_path.name}")
    matrix_path = Path(source)
    if not matrix_path.is_absolute():
        matrix_path = directory / matrix_path
    return load_matrix_file(matrix_path, digests=digests)


def load_bundle(
    directory: Path | str,
    matrix_source: str | None = None,
    exclude_modes: frozenset[FailureMode] | set[FailureMode] | None = None,
    confidence_threshold: float | None = None,
    uniform_missing_rows: bool | None = None,
) -> AssessmentBundle:
    """Load and validate an assessment directory.

    Keyword arguments override the corresponding config.json options, each
    checked as its key is (a fault names ``override of config.json``);
    giving ``exclude_modes`` switches the bundle to an explicit custom
    exclusion set regardless of the configured system kind.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise BundleError(f"bundle directory not found: {directory}")
    paths = {name: directory / name for name in REQUIRED_FILES}
    digests: dict[str, str] = {}

    effort = load_effort_file(paths["effort.json"], digests=digests)
    config = Object(_CONFIG_FIELDS).check(_read_json(paths["config.json"], digests), "config.json", "top level")
    if config["rtm_weight"] == config["tca_weight"] == 0.0:
        raise fail("config.json", "top level", "rtm_weight and tca_weight must not both be zero")
    # Every field is checked, each effort against the campaign too; only the growth model reads the efforts.
    kept = ("defect_class", "detection_effort") if config["rate_method"] == RateMethod.SRGM else ("defect_class",)
    defects = load_defects_file(paths["defects.json"], digests=digests, keep=kept,
                                campaign=(effort, config["rate_method"]))
    rtm = load_rtm_file(paths["rtm.json"], digests=digests, keep=("req_id", "status"))
    tca = load_tca_file(paths["tca.json"], digests=digests)
    try:
        validate_tca_entries(tca)
    except OrcasError as exc:
        raise fail("tca.json", "coverage", str(exc)) from exc

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
            raise fail("config.json", "excluded_modes", str(exc)) from exc
    # Each override is checked as its config.json key is.
    overrides = {key: value for key, value in (("matrix", matrix_source),
                                               ("confidence_threshold", confidence_threshold),
                                               ("uniform_missing_rows", uniform_missing_rows)) if value is not None}
    config.update(Object(tuple(entry for entry in _CONFIG_FIELDS if entry[0] in overrides)).check(
        overrides, "override of config.json", "top level"))
    # The other config keys are the bundle's own fields.
    source = config.pop("matrix")
    matrix = resolve_matrix_source(source, directory, digests=digests)
    return AssessmentBundle(defects=defects, effort=effort, rtm=rtm, tca=tca, matrix=matrix,
                            matrix_source=source, input_digests=digests, **config)

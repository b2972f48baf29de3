"""The block reader of the record files against the whole-text reader.

``load_defects_file``, ``load_corpus_file`` and ``load_rtm_file`` read a
file a block at a time and parse it a piece of whole records at a time. With
blocks of a few bytes, each piece is a record or two and multi-byte
characters and CR LF pairs are split across blocks; the loaders must still
return the columns, the digest and the BundleError text of the whole-text
reader (``read_text`` -> ``parse_json`` -> ``records_from_json``), whether
they keep every column or leave out the ids, which are then checked as they
arrive. The files are indented or minified, with LF, CR LF or lone-CR line
ends, and may hold a BOM, escapes, text that looks like a record boundary in
a string, ids in file order or shuffled, an id that holds the separator of
the streamed id check, a nested object at a line start, or one fault in the
first, a middle or the last record; a repeated id is placed anywhere.
"""

from __future__ import annotations

import json
import re
from unittest.mock import patch

from hypothesis import given, settings
from hypothesis import strategies as st

from orcas import schema
from orcas.bundle import _ARRAYS, load_corpus_file, load_defects_file, load_rtm_file, records_from_json
from orcas.domain import DefectClass, FailureMode
from orcas.errors import BundleError
from orcas.evidence import CoverageStatus
from orcas.schema import parse_json, read_text

DIFFERENTIAL = settings(derandomize=True, database=None, deadline=None, max_examples=400)

LOADERS = {"defects.json": load_defects_file, "corpus.json": load_corpus_file, "rtm.json": load_rtm_file}
# Characters of 1 to 4 UTF-8 bytes, quotes and backslashes (written as \" and \\), text that
# looks like a record boundary or its parts once written ("\n{" is written "\\n{"), and the
# separator of the streamed id check.
TEXTS = st.lists(st.sampled_from(["a", " ", '"', "\\", "é", "中", "😀", "\n{", ",", "}", "]", "},{", "} , {",
                                  schema._SEPARATOR]), max_size=4).map("".join)
FAULTS = ("missing comma", "missing comma after an empty record", "duplicate id", "bad class", "unknown key",
          "nested object", "nested objects", "lone surrogate", "raw newline", "trailing comma", "not an array",
          "no opening bracket", "empty")
# A record boundary, as the block reader finds one.
BOUNDARY = re.compile(r"\}[ \t\n\r]*,[ \t\n\r]*\{")


@st.composite
def records(draw, kind):
    """Records of ``kind`` with distinct ids, in file order (increasing) or shuffled."""
    count = draw(st.integers(1, 6))
    if kind == "rtm.json":
        objects = [{"req_id": f"R-{i}", "description": draw(TEXTS),
                    "status": draw(st.sampled_from([str(status) for status in CoverageStatus]))}
                   for i in range(count)]
    else:
        modes = st.lists(st.sampled_from([str(mode) for mode in FailureMode]), min_size=kind == "corpus.json",
                         max_size=2)
        objects = [{"id": f"D-{i}-{draw(TEXTS)}", "class": draw(st.sampled_from([str(cls) for cls in DefectClass])),
                    "detection_effort": draw(st.sampled_from([0, 1, 2.5, 1e-300])), "observed_modes": draw(modes),
                    "description": draw(TEXTS), **({"resolution": draw(TEXTS)} if draw(st.booleans()) else {})}
                   for i in range(count)]
    return draw(st.permutations(objects)) if draw(st.booleans()) else objects


@st.composite
def record_files(draw):
    """A record file's kind, its bytes, and whether it is free of faults."""
    kind = draw(st.sampled_from(sorted(LOADERS)))
    objects = draw(records(kind))
    fault = draw(st.sampled_from((None, None, None) + FAULTS))
    at = draw(st.sampled_from([0, len(objects) // 2, len(objects) - 1]))  # the first, a middle or the last
    if fault == "duplicate id":
        # Before or after the record it repeats, next to it or pieces away.
        objects.insert(draw(st.integers(0, len(objects))), dict(objects[at]))
    elif fault == "bad class":
        objects[at]["status" if kind == "rtm.json" else "class"] = "bogus"
    elif fault == "unknown key":
        objects[at]["extra"] = 1
    elif fault == "nested object":
        objects[at]["description"] = [{"id": "X"}]
    elif fault == "nested objects":
        objects[at]["description"] = [{"id": "X"}, {"id": "Y"}]  # a record boundary inside a record
    elif fault == "lone surrogate":
        objects[at]["description"] = "\ud800"
    elif fault == "raw newline":
        objects[at]["description"] = "RAW"
    # Each record indented, or minified; records one or more to a line.
    indent = draw(st.sampled_from([None, 1, 2, "\t"]))
    escaped = draw(st.booleans()) or fault == "lone surrogate"
    texts = [json.dumps(obj, indent=indent, ensure_ascii=escaped, separators=None if indent else (",", ":"))
             for obj in objects]
    if indent is not None:
        texts = ["\n".join(" " + line for line in text.split("\n")) for text in texts]
    texts = [text.replace('"RAW"', '"x\n{"') for text in texts]
    separators = [draw(st.sampled_from([",\n", ",\n", ", ", ","])) for _ in texts[1:]]
    if fault and fault.startswith("missing comma") and separators:
        gap = min(at, len(separators) - 1)
        separators[gap] = separators[gap][1:]
        if fault.endswith("empty record") and gap:
            # Before a line end, after an empty record on the line of the record before it.
            texts[gap], separators[gap - 1], separators[gap] = "{}", ", ", "\n"
    body = texts[0] + "".join(map(str.__add__, separators, texts[1:]))
    if fault == "trailing comma":
        body += ","
    text = "[\n" + body + "\n]\n" if draw(st.booleans()) else "[" + body + "]"
    if fault == "not an array":
        text = '{"records": ' + text + "}"
    elif fault == "no opening bracket":
        text = text.replace("[", "", 1)
    elif fault == "empty":
        text = draw(st.sampled_from(["[]", "[\n]\n", "", "\n"]))
    text = text.replace("\n", draw(st.sampled_from(["\n", "\r\n", "\r"])))
    bom = draw(st.booleans()) and draw(st.booleans())
    # A boundary in a string is a doubt, and so may be an id that holds the separator: the whole text
    # is read.
    doubt = any(BOUNDARY.search(value) or (key in ("id", "req_id") and schema._SEPARATOR in value)
                for obj in objects for key, value in obj.items() if isinstance(value, str))
    return kind, ("\ufeff" * bom + text).encode("utf-8", "surrogatepass"), fault is None and not bom and not doubt


def outcome(read, path):
    """The columns (with each value's type), the digest, or the BundleError text of ``read``."""
    digests: dict[str, str] = {}
    try:
        columns = read(path, digests).columns
    except BundleError as exc:
        return str(exc)
    return columns, {name: list(map(type, column)) for name, column in columns.items()}, digests


def restricted(result, keep):
    """An :func:`outcome` with only the columns ``keep``."""
    if isinstance(result, str):
        return result
    columns, types, digests = result
    return {name: columns[name] for name in keep}, {name: types[name] for name in keep}, digests


@DIFFERENTIAL
@given(record_files(), st.integers(1, 9) | st.just(64))
def test_block_reader_matches_the_whole_text_reader(tmp_path_factory, case, block):
    kind, raw, clean = case
    path = tmp_path_factory.mktemp("blocks") / kind
    path.write_bytes(raw)
    whole = outcome(lambda path, digests: records_from_json(
        kind, parse_json(read_text(path, digests=digests), path.name), path.name), path)
    # Without the id column, the block reader checks the ids as they arrive.
    keep = ("status",) if kind == "rtm.json" else ("defect_class",)
    row, fields, _, _ = _ARRAYS[kind]
    with patch.object(schema, "_BLOCK", block):
        assert outcome(lambda path, digests: LOADERS[kind](path, digests=digests), path) == whole
        assert outcome(lambda path, digests: LOADERS[kind](path, digests=digests, keep=keep), path) == (
            restricted(whole, keep))
        if clean:
            # A file without fault, BOM or doubt is read by the blocks, not by the whole text.
            assert schema.read_records(path, fields, row._fields) == whole[0]
            assert schema.read_records(path, fields, keep) == {name: whole[0][name] for name in keep}

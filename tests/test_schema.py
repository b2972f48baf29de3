"""The field kinds of orcas.schema, and the boundary of its public names.

Contract: a kind's column face may refuse what its ``check`` accepts, never
the reverse, so wherever ``column(values)`` returns a list, each value
passes ``check`` and reads as the equal value of the same type (where the
kind sets ``null``, JSON null reads as None unchecked, as a record reads
it). Boundary: no module of the package imports a ``_``-prefixed name from
another.
"""

from __future__ import annotations

import ast
import math
import random
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import orcas
from orcas.domain import DefectClass, FailureMode
from orcas.evidence import ACTIVITIES
from orcas.schema import DISTINCT, Enum, EnumSet, Float, Number, Rule, String

CONTRACT = settings(derandomize=True, database=None, deadline=None, max_examples=150)

CLASS_NAMES = [str(member) for member in DefectClass]
MODE_NAMES = [str(member) for member in FailureMode]

# JSON values a careless column face lets through: bools among numbers,
# NaN and infinities, ints past the float range, sums that overflow, null.
NUMBERS = (st.floats() | st.integers() | st.integers(min_value=10**300, max_value=10**400)
           | st.booleans() | st.sampled_from([-0.0, 5e-324, 1e308, -1e308, math.inf, -math.inf, math.nan]))
JUNK = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3) | st.lists(st.none(), max_size=1)
TEXTS = st.text(max_size=3) | st.sampled_from(["", "x", "é"])
MODE_LISTS = st.lists(st.sampled_from(MODE_NAMES), max_size=4)

# Each kind with the values its column face is given: values close to valid,
# and other JSON values.
KINDS = {
    "String": (String(), TEXTS, JUNK),
    "String(null)": (String(null=True), TEXTS | st.none(), JUNK),
    "String(nonempty)": (String(nonempty=True), TEXTS, JUNK),
    "Number": (Number(), NUMBERS, JUNK),
    "Number(lo)": (Number(lo=0.0), NUMBERS, JUNK),
    "Number(lo, hi)": (Number(0.0, 1.0), NUMBERS | st.floats(0.0, 1.0), JUNK),
    "Number(positive)": (Number(positive=True), NUMBERS, JUNK),
    "Float(lo)": (Float(lo=0.0), NUMBERS, JUNK),
    "Float(lo, hi)": (Float(0.0, 1.0), NUMBERS | st.floats(0.0, 1.0), JUNK),
    "Enum": (Enum(DefectClass), st.sampled_from(CLASS_NAMES), JUNK),
    "EnumSet": (EnumSet(FailureMode, "expected an array, got {}"), MODE_LISTS,
                JUNK | st.lists(st.sampled_from(MODE_NAMES) | JUNK, max_size=3)),
    "Rule": (Rule(ACTIVITIES.__contains__, "activity must be one of the activities; got {}"),
             st.sampled_from(ACTIVITIES), JUNK),
    "Rule(bool)": (Rule(bool, "must be nonempty"), MODE_LISTS, JUNK),
}


def same(checked, read) -> bool:
    """``checked`` and ``read`` are equal values of one type (a float's sign included)."""
    if type(checked) is not type(read) or checked != read:
        return False
    return not isinstance(checked, float) or math.copysign(1.0, checked) == math.copysign(1.0, read)


def column_of(kind, values):
    """The column face's list for ``values``, or None where it refuses."""
    try:
        return kind.column(list(values))
    except (KeyError, TypeError, OverflowError):
        return None


@pytest.mark.parametrize("name", KINDS)
@CONTRACT
@given(data=st.data())
def test_a_column_the_column_face_reads_passes_the_value_check(name, data):
    kind, near, other = KINDS[name]
    values = data.draw(st.lists(near, min_size=1, max_size=6) | st.lists(near | other, min_size=1, max_size=6))
    column = column_of(kind, values)
    if column is None:
        return
    assert len(column) == len(values)
    for value, read in zip(values, column):
        checked = None if value is None and kind.null else kind.check(value, "file.json", "where")
        assert same(checked, read), (value, checked, read)


@pytest.mark.parametrize("name, values", [
    ("String", ["", "x"]), ("String(null)", [None, "x"]), ("String(nonempty)", ["x", "y"]),
    ("Number", [-1, 2.5]), ("Number(lo)", [0, -0.0, 1e300]), ("Number(lo, hi)", [0, 1.0]),
    ("Float(lo)", [0.0, 3.5]), ("Float(lo, hi)", [1.0]), ("Enum", CLASS_NAMES),
    ("EnumSet", [[], ["A", "A"], ["D", "B"]]), ("Rule", list(ACTIVITIES)), ("Rule(bool)", [["A"]]),
])
def test_the_column_face_reads_a_clean_column(name, values):
    # The contract above is not vacuous: each of these kinds reads a clean column at once.
    assert column_of(KINDS[name][0], values) is not None


# Ids with near-duplicates: a case, a trailing space or a combining accent
# apart. "é" in NFC and in NFD are different strings, so distinct ids.
NEAR_IDS = ["D-1", "d-1", "D-1 ", "D-10", "\u00e9", "e\u0301", "\U0001F600"]
ID_LISTS = st.lists(st.text(max_size=3) | st.sampled_from(NEAR_IDS), max_size=12)


@CONTRACT
@given(ids=ID_LISTS, seed=st.integers(0, 2**32 - 1))
@example(ids=["caf\u00e9", "cafe\u0301"], seed=0)
@example(ids=["caf\u00e9", "cafe\u0301", "caf\u00e9"], seed=0)
def test_the_distinct_face_agrees_with_a_set(ids, seed):
    shuffled = ids[:]
    random.Random(seed).shuffle(shuffled)
    for column in (ids, sorted(ids), shuffled):
        read = DISTINCT.column(column)
        assert (read is not None) == (len(set(column)) == len(column)), column
        assert read is None or read is column


@pytest.mark.parametrize("order", ["file", "shuffled"])
def test_the_distinct_face_holds_less_than_a_set_of_the_ids(order):
    # 24,000 ids, as in the benchmark's defect files: a set of them peaks at 2.5 MiB.
    ids = [f"D-{i + 1:06d}" for i in range(24_000)]
    if order == "shuffled":
        random.Random(1).shuffle(ids)
    tracemalloc.start()
    try:
        assert DISTINCT.column(ids) is ids
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * 2**20


def test_no_module_imports_a_private_name_of_another():
    source = Path(orcas.__file__).parent
    crossings = []
    for path in sorted(source.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "orcas"):
                crossings += [f"{path.name}: {alias.name}" for alias in node.names
                              if alias.name.startswith("_") and alias.name != "__version__"]
    assert crossings == []

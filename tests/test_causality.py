import json
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from orcas.bundle import load_matrix_file, records_from_json
from orcas.causality import (
    ROW_SUM_TOLERANCE,
    builtin_causality,
    estimate_causality,
)
from orcas.domain import MODE_ORDER, DefectClass, FailureMode, count_by_class
from orcas.errors import BundleError, OrcasError


def make_record(i, defect_class, modes):
    return {"id": f"r{i}", "description": "corpus record", "class": defect_class.value,
            "observed_modes": sorted(mode.value for mode in modes)}


def records(*objects):
    """The corpus records of JSON-shaped objects, as corpus.json reads them."""
    return records_from_json("corpus.json", list(objects))


# ---------------------------------------------------------------------------
# Built-in matrix
# ---------------------------------------------------------------------------


def test_builtin_assignment_b_as_printed():
    assert builtin_causality().row(DefectClass.ASSIGNMENT)[MODE_ORDER.index(FailureMode.B)] == 0.667


def test_builtin_algorithm_row():
    assert builtin_causality().row(DefectClass.ALGORITHM) == (0.320, 0.140, 0.350, 0.190)


def test_builtin_rows_sum_to_one():
    matrix = builtin_causality()
    for cls in sorted(matrix.rows):
        assert abs(sum(matrix.row(cls)) - 1.0) <= ROW_SUM_TOLERANCE


def test_builtin_has_six_rows_and_no_relationship():
    matrix = builtin_causality()
    assert len(matrix.rows) == 6
    assert DefectClass.RELATIONSHIP not in matrix.rows
    with pytest.raises(OrcasError, match="no causality row: relationship"):
        matrix.row(DefectClass.RELATIONSHIP)


def test_builtin_provenance():
    assert builtin_causality().provenance == "built-in"


# ---------------------------------------------------------------------------
# Corpus estimation
# ---------------------------------------------------------------------------


def test_estimate_simple_counting():
    corpus = records(
        make_record(0, DefectClass.CHECKING, {FailureMode.A}),
        make_record(1, DefectClass.CHECKING, {FailureMode.A}),
        make_record(2, DefectClass.CHECKING, {FailureMode.C}),
    )
    matrix = estimate_causality(corpus)
    assert matrix.row(DefectClass.CHECKING) == (2 / 3, 0.0, 1 / 3, 0.0)
    assert matrix.counts[DefectClass.CHECKING] == (2, 0, 1, 0)


def test_estimate_multi_label_normalization():
    corpus = records(make_record(0, DefectClass.TIMING, {FailureMode.C, FailureMode.D}))
    matrix = estimate_causality(corpus)
    assert matrix.row(DefectClass.TIMING) == (0.0, 0.0, 0.5, 0.5)


def test_estimate_leaves_unseen_classes_absent():
    matrix = estimate_causality(records(make_record(0, DefectClass.TIMING, {FailureMode.C})))
    assert sorted(matrix.rows) == [DefectClass.TIMING]
    assert DefectClass.CHECKING not in matrix.rows


corpus_shapes = st.lists(
    st.tuples(
        st.sampled_from(list(DefectClass)),
        st.frozensets(st.sampled_from(list(FailureMode)), min_size=1),
    ),
    min_size=1,
    max_size=200,
)


def brute_force_rows(corpus):
    """Independent tally with exact rational arithmetic."""
    counts: dict[DefectClass, list[int]] = {}
    for record in corpus:
        row = counts.setdefault(record.defect_class, [0, 0, 0, 0])
        for mode in record.observed_modes:
            row[MODE_ORDER.index(mode)] += 1
    return {
        cls: tuple(Fraction(c, sum(row)) for c in row)
        for cls, row in counts.items()
    }


@given(corpus_shapes)
def test_estimate_matches_rational_oracle(shapes):
    corpus = records(*(make_record(i, cls, modes) for i, (cls, modes) in enumerate(shapes)))
    matrix = estimate_causality(corpus)
    expected = brute_force_rows(corpus)
    assert set(matrix.rows) == set(expected)
    for cls, row in expected.items():
        for got, want in zip(matrix.row(cls), row):
            assert abs(got - float(want)) <= 1e-12


@given(corpus_shapes)
def test_estimate_rows_sum_to_one(shapes):
    matrix = estimate_causality(records(*(make_record(i, cls, modes) for i, (cls, modes) in enumerate(shapes))))
    for cls in sorted(matrix.rows):
        assert abs(math.fsum(matrix.row(cls)) - 1.0) <= 1e-12


@given(corpus_shapes, st.randoms(use_true_random=False))
def test_estimate_is_permutation_invariant(shapes, rng):
    corpus = [make_record(i, cls, modes) for i, (cls, modes) in enumerate(shapes)]
    shuffled = list(corpus)
    rng.shuffle(shuffled)
    assert estimate_causality(records(*corpus)).rows == estimate_causality(records(*shuffled)).rows


@given(corpus_shapes)
def test_estimate_is_invariant_under_doubling(shapes):
    corpus = [make_record(i, cls, modes) for i, (cls, modes) in enumerate(shapes)]
    doubled = corpus + [make_record(len(corpus) + i, cls, modes) for i, (cls, modes) in enumerate(shapes)]
    assert estimate_causality(records(*corpus)).rows == estimate_causality(records(*doubled)).rows


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def test_matrix_rejects_bad_rows(tmp_path):
    path = tmp_path / "matrix.json"
    for row, provenance, message in [
        ([0.9, 0.0, 0.0, 0.0], "bad sum", "sums to 0.9, outside 1.0 +/- 0.0005"),
        ([1.2, -0.2, 0.0, 0.0], "bad range", "probability 1.2 outside [0, 1]"),
        ([1.0, 0.0, 0.0], "bad length", "expected 4 probabilities, got 3"),
    ]:
        path.write_text(json.dumps({"rows": {"timing": row}, "provenance": provenance}), encoding="utf-8")
        with pytest.raises(BundleError) as info:
            load_matrix_file(path)
        assert str(info.value) == f"matrix.json: rows: timing: {message}"


def test_matrix_dict_round_trip(tmp_path):
    matrix = estimate_causality(records(
        make_record(0, DefectClass.TIMING, {FailureMode.C, FailureMode.D}),
        make_record(1, DefectClass.CHECKING, {FailureMode.A}),
    ))
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(matrix.to_dict()), encoding="utf-8")
    assert load_matrix_file(path) == matrix


@given(labels=st.lists(st.tuples(st.sampled_from(list(DefectClass)),
                                 st.frozensets(st.sampled_from(list(FailureMode)), max_size=4)),
                       min_size=1, max_size=40))
def test_counting_matches_per_record_loops(labels):
    objects = [make_record(i, cls, modes) for i, (cls, modes) in enumerate(labels)]
    unlabeled = [record["id"] for record in objects if not record["observed_modes"]]
    if unlabeled:
        # The corpus loader is the one home of the rule, and names the first unlabeled record.
        with pytest.raises(BundleError, match=f"^corpus.json: record '{unlabeled[0]}': corpus records must label"):
            records(*objects)
        return
    corpus = records(*objects)
    per_class = {cls: 0 for cls in DefectClass}
    for record in corpus:
        per_class[record.defect_class] += 1
    assert list(count_by_class(corpus).items()) == list(per_class.items())
    counts: dict = {}
    for record in corpus:
        row = counts.setdefault(record.defect_class, [0, 0, 0, 0])
        for mode in record.observed_modes:
            row[MODE_ORDER.index(mode)] += 1
    matrix = estimate_causality(corpus)
    assert list(matrix.counts.items()) == [(cls, tuple(row)) for cls, row in counts.items()]
    assert list(matrix.rows.items()) == [(cls, tuple(c / sum(row) for c in row))
                                         for cls, row in counts.items()]
    assert matrix.provenance == f"corpus ({len(corpus)} records)"

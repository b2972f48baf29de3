import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from orcas.causality import CausalityMatrix, builtin_causality
from orcas.domain import MODE_ORDER, DefectClass, FailureMode, RateUnit
from orcas.errors import OrcasError
from orcas.quantify import SystemKind, combine, mode_applicability


def rates_of(mapping, unit=RateUnit.PER_HOUR):
    """A report's ``rates`` section with the given rates by class."""
    return {"method": "bounded", "unit": unit.value, "per_class": {cls.value: rate for cls, rate in mapping.items()}}


VCU_RATES = rates_of({DefectClass.ALGORITHM: 2 / 10687, DefectClass.CHECKING: 6 / 10687})

# Published per-cell table for the case-study inputs (4 significant figures).
PUBLISHED_CELLS = {
    (DefectClass.ALGORITHM, FailureMode.A): 5.989e-5,
    (DefectClass.ALGORITHM, FailureMode.B): 0.0,
    (DefectClass.ALGORITHM, FailureMode.C): 6.550e-5,
    (DefectClass.ALGORITHM, FailureMode.D): 3.556e-5,
    (DefectClass.CHECKING, FailureMode.A): 2.021e-4,
    (DefectClass.CHECKING, FailureMode.B): 0.0,
    (DefectClass.CHECKING, FailureMode.C): 1.437e-4,
    (DefectClass.CHECKING, FailureMode.D): 7.860e-5,
}
PUBLISHED_MODE_TOTALS = {
    FailureMode.A: 2.620e-4,
    FailureMode.B: 0.0,
    FailureMode.C: 2.092e-4,
    FailureMode.D: 1.142e-4,
}
PUBLISHED_CLASS_TOTALS = {DefectClass.ALGORITHM: 1.609e-4, DefectClass.CHECKING: 4.244e-4}
PUBLISHED_TOTAL = 5.854e-4


def round4(x: float) -> float:
    return float(f"{x:.3e}")


# ---------------------------------------------------------------------------
# Mode applicability
# ---------------------------------------------------------------------------


def test_continuous_monitoring_excludes_b():
    assert mode_applicability(SystemKind.CONTINUOUS_MONITORING) == frozenset({FailureMode.B})


def test_control_excludes_nothing():
    assert mode_applicability(SystemKind.CONTROL) == frozenset()


def test_custom_passes_through():
    excluded = frozenset({FailureMode.B, FailureMode.D})
    assert mode_applicability(SystemKind.CUSTOM, excluded) == excluded


def test_custom_requires_a_set():
    with pytest.raises(OrcasError):
        mode_applicability(SystemKind.CUSTOM)


def test_non_custom_rejects_a_set():
    with pytest.raises(OrcasError):
        mode_applicability(SystemKind.CONTROL, frozenset({FailureMode.B}))


# ---------------------------------------------------------------------------
# Combination
# ---------------------------------------------------------------------------


def test_combine_reproduces_published_table():
    result = combine(builtin_causality(), VCU_RATES, excluded={FailureMode.B})
    for (cls, mode), printed in PUBLISHED_CELLS.items():
        got = result["per_cell"][cls.value][mode.value]
        assert abs(got - printed) <= 1e-7
        assert round4(got) == printed
    for mode, printed in PUBLISHED_MODE_TOTALS.items():
        assert round4(result["per_mode"][mode.value]) == printed
    class_totals = result["per_class_total"]
    for cls, printed in PUBLISHED_CLASS_TOTALS.items():
        assert round4(class_totals[cls.value]) == printed
    assert round4(result["total"]) == PUBLISHED_TOTAL
    assert result["unit"] == RateUnit.PER_HOUR.value


def test_combine_zero_rates_gives_zero_everything():
    result = combine(builtin_causality(), rates_of({}), excluded=frozenset())
    assert result["total"] == 0.0
    assert all(result["per_mode"][m.value] == 0.0 for m in MODE_ORDER)
    assert result["per_cell"] == {}


def test_combine_identity_row():
    matrix = CausalityMatrix(
        rows={DefectClass.FUNCTION: (1.0, 0.0, 0.0, 0.0)}, provenance="test")
    rate = 0.125
    result = combine(matrix, rates_of({DefectClass.FUNCTION: rate}))
    assert result["per_mode"][FailureMode.A.value] == rate
    assert result["per_mode"][FailureMode.B.value] == 0.0
    assert result["total"] == rate


def test_combine_missing_row_is_an_error():
    rates = rates_of({DefectClass.RELATIONSHIP: 0.01})
    with pytest.raises(OrcasError, match="no causality row: relationship"):
        combine(builtin_causality(), rates)


def test_combine_ignores_zero_rate_classes_without_rows():
    # relationship carries rate 0, so its missing row must not matter
    result = combine(builtin_causality(), rates_of({DefectClass.ALGORITHM: 0.5}))
    assert result["total"] == pytest.approx(0.5, rel=1e-12)


def test_excluded_modes_are_zeroed_not_redistributed():
    result = combine(builtin_causality(), VCU_RATES, excluded={FailureMode.B})
    unexcluded = combine(builtin_causality(), VCU_RATES)
    assert result["per_mode"][FailureMode.B.value] == 0.0
    for mode in (FailureMode.A, FailureMode.C, FailureMode.D):
        assert result["per_mode"][mode.value] == unexcluded["per_mode"][mode.value]
    assert result["total"] < unexcluded["total"]


# ---------------------------------------------------------------------------
# Algebraic properties
# ---------------------------------------------------------------------------

probabilities = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@st.composite
def random_matrices(draw):
    classes = draw(st.lists(st.sampled_from(list(DefectClass)), min_size=1,
                            max_size=7, unique=True))
    rows = {}
    for cls in classes:
        raw = [draw(st.floats(min_value=0.01, max_value=1.0)) for _ in MODE_ORDER]
        total = sum(raw)
        rows[cls] = tuple(v / total for v in raw)
    return CausalityMatrix(rows=rows, provenance="random")


@st.composite
def rate_maps_for(draw, matrix):
    return {
        cls: draw(st.floats(min_value=0.0, max_value=100.0, allow_nan=False))
        for cls in sorted(matrix.rows)
    }


@given(st.data())
def test_combine_is_linear_in_rates(data):
    matrix = data.draw(random_matrices())
    first = data.draw(rate_maps_for(matrix))
    second = data.draw(rate_maps_for(matrix))
    summed = {cls: first[cls] + second[cls] for cls in first}
    combined = combine(matrix, rates_of(summed))
    parts = (combine(matrix, rates_of(first)), combine(matrix, rates_of(second)))
    for cls, row in combined["per_cell"].items():
        for mode in row:
            lhs = row[mode]
            rhs = sum(p["per_cell"][cls][mode] for p in parts if cls in p["per_cell"])
            assert abs(lhs - rhs) <= 1e-12


@given(st.data(), st.floats(min_value=0.0, max_value=64.0))
def test_combine_scales_with_rates(data, k):
    matrix = data.draw(random_matrices())
    rates = data.draw(rate_maps_for(matrix))
    scaled = combine(matrix, rates_of({cls: k * v for cls, v in rates.items()}))
    base = combine(matrix, rates_of(rates))
    for mode in MODE_ORDER:
        assert abs(scaled["per_mode"][mode.value] - k * base["per_mode"][mode.value]) <= 1e-9 * max(1.0, k)


def test_total_equals_rate_sum_for_exact_rows():
    # Dyadic rows sum to 1.0 exactly, so the no-exclusion total telescopes
    # to the plain sum of rates with no rounding at all.
    matrix = CausalityMatrix(rows={
        DefectClass.ALGORITHM: (0.5, 0.25, 0.125, 0.125),
        DefectClass.CHECKING: (0.25, 0.25, 0.25, 0.25),
    }, provenance="dyadic")
    rates = {DefectClass.ALGORITHM: 0.375, DefectClass.CHECKING: 0.75}
    result = combine(matrix, rates_of(rates))
    assert result["total"] == 0.375 + 0.75


@st.composite
def matrices_with_rates(draw):
    matrix = draw(random_matrices())
    return matrix, draw(rate_maps_for(matrix))


# A subnormal rate: each cell rounds in absolute steps of ulp(0.0), and
# here the four cells sum to one such step above the rate.
SUBNORMAL_CASE = (CausalityMatrix(rows={DefectClass.ALGORITHM: (4 / 13, 4 / 13, 4 / 13, 1 / 13)},
                                  provenance="subnormal"), {DefectClass.ALGORITHM: 2.2250738585e-313})


@given(matrices_with_rates(), st.frozensets(st.sampled_from(list(FailureMode))))
@example(SUBNORMAL_CASE, frozenset())
def test_total_with_exclusions_never_exceeds_rate_sum(matrix_and_rates, excluded):
    matrix, rates = matrix_and_rates
    result = combine(matrix, rates_of(rates), excluded=excluded)
    # Relative rounding of normal cells, plus one absolute ulp(0.0) per subnormal cell.
    cells = len(MODE_ORDER) * len(result["per_cell"])
    assert result["total"] <= math.fsum(rates.values()) * (1 + 1e-12) + cells * math.ulp(0.0)

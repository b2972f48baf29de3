import math

import pytest

from orcas.errors import OrcasError
from orcas.roots import newton_bisection


def square_minus_two(x):
    return x * x - 2.0


def twice(x):
    return 2.0 * x


def test_finds_bracketed_root():
    root = newton_bisection(square_minus_two, twice, 0.0, 2.0)
    assert root == pytest.approx(math.sqrt(2.0), rel=1e-15)


def test_unbracketed_root_rejected():
    with pytest.raises(ValueError, match="not bracketed"):
        newton_bisection(square_minus_two, twice, 2.0, 3.0)


def test_exhausted_iterations_raise_with_bracket_and_residual():
    # A sign step with no usable derivative forces plain bisection, which
    # needs ~1000 halvings to close a bracket spanning 600 decades.
    def step(x):
        return 1.0 if x < 1.0 else -1.0

    with pytest.raises(OrcasError, match=r"did not converge in 200 iterations: bracket \[.*\], \|f\| = 1\.0"):
        newton_bisection(step, lambda x: 0.0, 1e-300, 1e300)


def test_wrong_derivative_exhausts_a_small_budget():
    with pytest.raises(OrcasError, match="did not converge in 5 iterations"):
        newton_bisection(lambda x: x - 0.3, lambda x: 1e-300, 0.0, 1.0, max_iter=5)


def test_bracket_near_the_largest_float_does_not_overflow():
    target = 1.5e308
    root = newton_bisection(lambda x: x - target, lambda x: 1.0, 1e308, 1.7e308)
    assert root == target


def test_known_end_values_are_not_evaluated_again():
    seen = []

    def f(x):
        seen.append(x)
        return square_minus_two(x)

    root = newton_bisection(f, twice, 0.0, 2.0, flo=-2.0, fhi=2.0, start=1.5)
    assert root == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert seen[0] == 1.5
    assert 0.0 not in seen and 2.0 not in seen


def test_start_outside_the_bracket_is_rejected():
    with pytest.raises(ValueError, match="outside the bracket"):
        newton_bisection(square_minus_two, twice, 0.0, 2.0, start=3.0)

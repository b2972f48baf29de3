"""Safeguarded 1-D root finding: Newton steps inside a maintained bracket,
bisection whenever Newton would leave it or stall."""

from __future__ import annotations

from typing import Callable

from .errors import OrcasError


def _midpoint(a: float, b: float) -> float:
    # Equal to 0.5*(a + b) whenever that sum does not overflow.
    return 0.5 * a + 0.5 * b


def newton_bisection(
    func: Callable[[float], float],
    dfunc: Callable[[float], float],
    lo: float,
    hi: float,
    rtol: float = 1e-15,
    max_iter: int = 200,
) -> float:
    """Find the root of ``func`` bracketed by [lo, hi].

    ``func(lo)`` and ``func(hi)`` must have opposite signs. The bracket is
    maintained throughout, so a wild Newton step can never escape it; the
    result is deterministic for identical inputs. Running out of
    ``max_iter`` iterations raises :class:`OrcasError` instead of
    returning an unconverged iterate.
    """
    flo = func(lo)
    fhi = func(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise ValueError(f"root not bracketed: f({lo!r})={flo!r}, f({hi!r})={fhi!r}")

    x = _midpoint(lo, hi)
    fx = flo
    for _ in range(max_iter):
        fx = func(x)
        if fx == 0.0:
            return x
        # Shrink the bracket around the sign change.
        if (fx > 0.0) == (flo > 0.0):
            lo, flo = x, fx
        else:
            hi, fhi = x, fx
        dfx = dfunc(x)
        if dfx != 0.0:
            step = fx / dfx
            candidate = x - step
        else:
            candidate = lo  # force bisection
        if not (min(lo, hi) < candidate < max(lo, hi)):
            candidate = _midpoint(lo, hi)
        if abs(candidate - x) <= rtol * abs(x):
            return candidate
        x = candidate
    raise OrcasError(
        f"root solve did not converge in {max_iter} iterations: bracket "
        f"[{min(lo, hi)!r}, {max(lo, hi)!r}], |f| = {abs(fx)!r}"
    )

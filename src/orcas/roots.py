"""Safeguarded 1-D root finding: Newton steps inside a maintained bracket,
bisection whenever Newton would leave it or stall."""

from __future__ import annotations

from typing import Callable

from .errors import OrcasError


# Relative step at which the iteration stops: about five ulps.
_RTOL = 1e-15


def _midpoint(a: float, b: float) -> float:
    # Equal to 0.5*(a + b) whenever that sum does not overflow.
    return 0.5 * a + 0.5 * b


def newton_bisection(
    func: Callable[[float], float],
    dfunc: Callable[[float], float],
    lo: float,
    hi: float,
    max_iter: int = 200,
    *,
    start: float | None = None,
    flo: float | None = None,
    fhi: float | None = None,
) -> float:
    """Find the root of ``func`` bracketed by [lo, hi].

    ``func(lo)`` and ``func(hi)`` must have opposite signs. A caller that
    already knows them passes them as ``flo`` and ``fhi``; only their
    signs, and whether they are zero, are used. The iteration starts at
    ``start`` (a point of [lo, hi]), or at the midpoint. The bracket is
    maintained throughout, so a wild Newton step can never escape it; the
    result is deterministic for identical inputs. Running out of
    ``max_iter`` iterations raises :class:`OrcasError` instead of
    returning an unconverged iterate.
    """
    if flo is None:
        flo = func(lo)
    if fhi is None:
        fhi = func(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise ValueError(f"root not bracketed: f({lo!r})={flo!r}, f({hi!r})={fhi!r}")

    if start is None:
        x = _midpoint(lo, hi)
    elif min(lo, hi) <= start <= max(lo, hi):
        x = start
    else:
        raise ValueError(f"start {start!r} is outside the bracket [{lo!r}, {hi!r}]")
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
        if abs(candidate - x) <= _RTOL * abs(x):
            return candidate
        x = candidate
    raise OrcasError(
        f"root solve did not converge in {max_iter} iterations: bracket "
        f"[{min(lo, hi)!r}, {max(lo, hi)!r}], |f| = {abs(fx)!r}"
    )

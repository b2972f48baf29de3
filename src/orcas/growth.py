"""Per-class failure-rate estimation.

Two estimators are provided. The bounded estimator divides per-class
defect counts by total testing effort; it is conservative and needs no
event timeline. The growth estimator fits a nonhomogeneous Poisson
process to the per-class detection-effort history:

  exponential model      m(t) = a * (1 - exp(-b*t))
  logarithmic model      m(t) = ln(lambda0*theta*t + 1) / theta

and reads the class rate as the fitted intensity m'(t) at the assessment
horizon. Fit trustworthiness is gauged by the stability rule: successive
refits over expanding windows must not move the tracked total (the
exponential model's predicted total, the logarithmic model's mean at the
horizon) by more than 10% (default).

MODELS holds one class per model, by name: its parameter names, mean and
intensity, its profile score (the likelihood profiled down to one
dimension) and the figure its refits track. One fitter, _fit_validated,
solves either model's score equation with a safeguarded Newton/bisection
iteration on a bracketed root; the second parameter then follows in closed
form. For the logarithmic model a 64-bucket summary of the events settles
most bracket signs, the floor's included, and its second-order expansion
starts Newton about 1e-7 from the root, so a fit of a few thousand events
makes 4-5 passes over them. This is deterministic: the same events always
produce bit-identical parameters.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from functools import cached_property
from operator import mul
from typing import Callable, Mapping, Sequence

from .domain import DefectClass, EffortModel, Name, RateUnit, Records, count_by_class, total_effort
from .errors import OrcasError
from .roots import newton_bisection


class RateMethod(Name):
    BOUNDED = "bounded"
    SRGM = "srgm"


class SrgmModel(Name):
    GOEL_OKUMOTO = "goel-okumoto"
    MUSA_OKUMOTO = "musa-okumoto"


DEFAULT_STABILITY_THRESHOLD = 0.10


# ---------------------------------------------------------------------------
# Bounded estimation
# ---------------------------------------------------------------------------


def _rates(per_class: Mapping[DefectClass, float], unit: RateUnit, method: RateMethod) -> dict:
    """The report's ``rates`` section: a rate for every class by name, 0.0 where ``per_class`` has none."""
    return {"method": method, "unit": unit, "per_class": {cls: per_class.get(cls, 0.0) for cls in sorted(DefectClass)}}


def bounded_class_rates(defects: Records, effort: EffortModel) -> dict:
    """Defect count per class divided by total testing effort, as the
    report's ``rates`` section.

    Classes with no detected defects get rate 0: more testing effort can
    only lower these rates, never raise them. The effort loader makes the total positive.
    """
    effort_total = total_effort(effort)
    counts = count_by_class(defects)
    return _rates({cls: count / effort_total for cls, count in counts.items()}, effort.rate_unit,
                  RateMethod.BOUNDED)


# ---------------------------------------------------------------------------
# Model functions
# ---------------------------------------------------------------------------


def go_mean(t: float, a: float, b: float) -> float:
    """Exponential-model mean: m(t) = a*(1 - exp(-b*t))."""
    return a * -math.expm1(-b * t)


def go_intensity(t: float, a: float, b: float) -> float:
    """Exponential-model intensity: m'(t) = a*b*exp(-b*t)."""
    return a * b * math.exp(-b * t)


def mo_mean(t: float, lambda0: float, theta: float) -> float:
    """Logarithmic-model mean: m(t) = ln(lambda0*theta*t + 1)/theta."""
    return math.log1p(lambda0 * theta * t) / theta


def mo_intensity(t: float, lambda0: float, theta: float) -> float:
    """Logarithmic-model intensity: m'(t) = lambda0/(lambda0*theta*t + 1)."""
    return lambda0 / (lambda0 * theta * t + 1.0)


def go_log_likelihood(events: Sequence[float], horizon: float, a: float, b: float) -> float:
    """Exact event-time log-likelihood of the exponential model:
    sum(ln(a*b*exp(-b*t_i))) - m(horizon)."""
    if a <= 0 or b <= 0:
        raise ValueError("parameters must be positive")
    n = len(events)
    return n * math.log(a * b) - b * math.fsum(events) - go_mean(horizon, a, b)


def mo_log_likelihood(events: Sequence[float], horizon: float, lambda0: float, theta: float) -> float:
    """Exact event-time log-likelihood of the logarithmic model."""
    if lambda0 <= 0 or theta <= 0:
        raise ValueError("parameters must be positive")
    n = len(events)
    beta = lambda0 * theta
    return (
        n * math.log(lambda0)
        - math.fsum([math.log1p(beta * t) for t in events])
        - mo_mean(horizon, lambda0, theta)
    )


# ---------------------------------------------------------------------------
# Maximum-likelihood fitting
# ---------------------------------------------------------------------------

# Lower edge of the root bracket, relative to 1/horizon. Below this the
# mean function is numerically indistinguishable from a straight line.
_BRACKET_FLOOR = 1e-12
_BOUNDARY_RATE = 1e-9


def validate_events(events: Sequence[float], horizon: float | None) -> tuple[list[float], float]:
    """The ``events`` and ``horizon`` (by default the last event) as floats, once they are a history a
    growth model can fit: 2 or more positive, finite, nondecreasing events, and a finite horizon at or
    after the last; otherwise raises :class:`OrcasError`."""
    events = [float(t) for t in events]
    if len(events) < 2:
        raise OrcasError("insufficient failure data: at least 2 detection events are required")
    previous = 0.0
    for t in events:
        if not math.isfinite(t) or t <= 0.0:
            raise OrcasError(f"detection efforts must be positive and finite, got {t!r}")
        if t < previous:
            raise OrcasError("detection efforts must be nondecreasing")
        previous = t
    if horizon is None:
        horizon = events[-1]
    horizon = float(horizon)
    if not math.isfinite(horizon):
        raise OrcasError(f"observation horizon must be finite, got {horizon!r}")
    if horizon < events[-1]:
        raise OrcasError(f"observation horizon {horizon!r} is before the last event {events[-1]!r}")
    return events, horizon


def _no_growth_diagnostic(n: int, total: float, horizon: float) -> str:
    return (
        f"no reliability growth in the event history: mean detection effort "
        f"{total / n:.6g} is not below half the horizon {horizon / 2:.6g}, so the "
        f"likelihood has no interior maximum (constant-rate limit); collect more "
        f"data or use bounded estimation"
    )


def _not_nan(s: float, x: float) -> float:
    if math.isnan(s):
        raise OrcasError(
            f"growth-model score is not a number at {x!r}: the detection "
            f"efforts are beyond floating-point range"
        )
    return s


def _bracket(sign: Callable[[float], float], s_lo: float, T: float) -> tuple[float, float]:
    """Upper end ``hi`` of the root bracket [floor, hi] of a profile score
    that is ``s_lo`` at the bracket floor, and ``sign(hi)``.

    ``sign(x)`` is the score at x, or a stand-in with its sign. ``hi``
    doubles up from 1/T until the score is no longer positive there. A
    NaN score, or an upper end that overflows, raises instead of solving
    on garbage.
    """
    _not_nan(s_lo, _BRACKET_FLOOR / T)
    hi = 1.0 / T
    while not math.isinf(hi):
        s = _not_nan(sign(hi), hi)
        if s <= 0.0:
            return hi, s
        hi *= 2.0
    raise OrcasError(
        "growth-model score has no root below the largest float: the "
        "detection efforts are beyond floating-point range"
    )


class _Profile:
    """A growth model's profile score in one parameter x, the other
    substituted in closed form, over a sorted history of n events in [0, T].
    Each model's class holds its parameter ``names`` (in argument order),
    ``mean`` and ``intensity``; the exact ``score(x)``; ``sign(x)``, the
    score or a stand-in with its sign; ``slope(x)``, which steers Newton;
    ``estimate(a, hi)``, a Newton start in [a, hi] or None for the midpoint;
    ``at_root(x)``, the parameters; ``log_likelihood``; and ``tracked(fit,
    horizon)``, the figure its stability series tracks."""

    def __init__(self, events: list[float], T: float) -> None:
        self.events = events
        self.n = len(events)
        self.T = T
        self.effort_sum = math.fsum(events)

    def estimate(self, a: float, hi: float) -> float | None:
        return None


class _GoProfile(_Profile):
    """Goel-Okumoto profile score in b, after substituting a = n/(1 - exp(-b*T)):

        score(b) = n/b - sum(t_i) - n*T/(exp(b*T) - 1).

    It costs O(1). Its stability series tracks the predicted total, a.
    """

    names = ("a", "b")
    mean, intensity = staticmethod(go_mean), staticmethod(go_intensity)
    log_likelihood = staticmethod(go_log_likelihood)

    def score(self, b: float) -> float:
        # Past bT ~ 700 the expm1 term underflows the sum anyway; skip it
        # instead of overflowing.
        n, T = self.n, self.T
        bt = b * T
        tail = n * T / math.expm1(bt) if bt < 700.0 else 0.0
        return n / b - self.effort_sum - tail

    sign = score

    def slope(self, b: float) -> float:
        n, T = self.n, self.T
        bt = b * T
        if bt >= 700.0:
            return -n / (b * b)
        e = math.expm1(bt)
        return -n / (b * b) + n * T * T * math.exp(bt) / (e * e)

    def at_root(self, b: float) -> tuple[float, float]:
        return self.n / -math.expm1(-b * self.T), b

    @staticmethod
    def tracked(fit: dict, horizon: float) -> float:
        return fit["predicted_total"]


# The Musa-Okumoto summary: at most this many buckets of consecutive
# events. Relative slack on its bounds of sum(q): the rounding of each
# q_i, of the bounds and of their sums is below 1e-13.
_SUMMARY_BUCKETS = 64
_BOUND_SLACK = 1e-12


class _MoProfile(_Profile):
    """Musa-Okumoto profile score in beta = lambda0*theta, after
    substituting lambda0 = n*beta/ln(beta*T + 1):

        score(beta) = n/beta - n*T/((beta*T + 1)*ln(beta*T + 1)) - sum(q_i),
        q_i = t_i/(beta*t_i + 1).

    :meth:`score` is exact and costs a pass over the events. The other
    methods read a summary of at most 64 buckets of consecutive events
    (count, first, last, mean, variance) and cost O(64). The mean is
    unbounded, so its stability series tracks the mean at the horizon.
    """

    names = ("lambda0", "theta")
    mean, intensity = staticmethod(mo_mean), staticmethod(mo_intensity)
    log_likelihood = staticmethod(mo_log_likelihood)

    @cached_property
    def buckets(self) -> list[tuple[int, float, float, float, float]]:
        events, n = self.events, self.n
        k = min(n, _SUMMARY_BUCKETS)
        buckets = []
        start = 0
        for j in range(1, k + 1):
            end = n * j // k
            chunk = events[start:end]
            count = end - start
            # fsum rounds once: the summary, so the root, is the same on every Python version.
            mean = math.fsum(chunk) / count
            # Variance from the mean square. It only steers the Newton
            # start: where rounding makes it negative, or the squares
            # overflow, it is taken as 0.
            var = math.fsum(map(mul, chunk, chunk)) / count - mean * mean
            var = var if 0.0 < var < math.inf else 0.0
            buckets.append((count, chunk[0], chunk[-1], mean, var))
            start = end
        return buckets

    def closed(self, beta: float) -> float:
        """The score without its sum: n/beta - n*T/((beta*T + 1)*ln(beta*T + 1))."""
        n, T = self.n, self.T
        u = math.log1p(beta * T)
        return n / beta - n * T / ((beta * T + 1.0) * u)

    def score(self, beta: float) -> float:
        return self.closed(beta) - math.fsum([t / (beta * t + 1.0) for t in self.events])

    def sign(self, beta: float) -> float:
        """``score(beta)``, or +-1.0 when the summary settles its sign.

        q increases with t, so a bucket's q_i lie between count*q(first)
        and count*q(last). The score is ``closed - fsum(q)``, rounded
        once, so its sign is that of ``closed`` against the sum; where
        ``closed`` clears the bounds by the slack no pass is needed. The
        bounds are trusted only where every q_i is a normal float.
        """
        closed = self.closed(beta)
        low = high = 0.0
        for count, first, last, _, _ in self.buckets:
            low += count * (first / (beta * first + 1.0))
            high += count * (last / (beta * last + 1.0))
        high *= 1.0 + _BOUND_SLACK
        t0 = self.events[0]
        if t0 / (beta * t0 + 1.0) >= sys.float_info.min and math.isfinite(high):
            if closed > high:
                return 1.0
            if closed < low * (1.0 - _BOUND_SLACK):
                return -1.0
        return self.score(beta)

    def approx(self, beta: float) -> float:
        """The score with each bucket's sum of q_i expanded to second order
        about the bucket mean m: count*(q(m) - beta*var/(beta*m + 1)**3)."""
        tail = 0.0
        for count, _, _, mean, var in self.buckets:
            d = beta * mean + 1.0
            tail += count * ((mean - var / (d * d) * beta) / d)
        return self.closed(beta) - tail

    def slope(self, beta: float) -> float:
        """Derivative of :meth:`approx`; it steers Newton steps on the score."""
        n, T = self.n, self.T
        u = beta * T + 1.0
        lu = math.log1p(beta * T)
        tail = 0.0
        for count, _, _, mean, var in self.buckets:
            d = beta * mean + 1.0
            q = mean / d
            # (3/d - 2)/d is (1 - 2*beta*m)/d**2, the variance term's share.
            tail += count * (q * q + var / (d * d) * (3.0 / d - 2.0) / d)
        return -n / (beta * beta) + n * T * T * (lu + 1.0) / (u * lu) ** 2 + tail

    def estimate(self, a: float, hi: float) -> float | None:
        """Root of :meth:`approx` in [a, hi], or None where it does not
        change sign there."""
        g_a, g_hi = self.approx(a), self.approx(hi)
        if not g_a > 0.0 > g_hi:
            return None
        return newton_bisection(self.approx, self.slope, a, hi, flo=g_a, fhi=g_hi)

    def at_root(self, beta: float) -> tuple[float, float]:
        n, T = self.n, self.T
        return n * beta / math.log1p(beta * T), math.log1p(beta * T) / n

    @staticmethod
    def tracked(fit: dict, horizon: float) -> float:
        return fit_mean(fit, horizon)


# Each growth model's profile class, by name.
MODELS = {SrgmModel.GOEL_OKUMOTO: _GoProfile, SrgmModel.MUSA_OKUMOTO: _MoProfile}


def fit_mean(fit: dict, t: float) -> float:
    """The mean function m(t) of a report's ``fit``."""
    profile = MODELS[fit["model"]]
    return profile.mean(t, *[fit["params"][name] for name in profile.names])


def mean_curve(fit: dict, horizon: float, samples: int) -> list[list[float]]:
    """[t, m(t)] of a report's ``fit`` at ``samples`` + 1 efforts evenly spaced over [0, ``horizon``]."""
    return [[horizon * i / samples, fit_mean(fit, horizon * i / samples)] for i in range(samples + 1)]


def fit_srgm(events: Sequence[float], model: SrgmModel, horizon: float | None = None) -> dict:
    """Maximum-likelihood fit to an ordered detection-effort history over
    [0, ``horizon``] (by default the last event), as a growth class's ``fit``
    section of the report: the ``params``, {"a", "b"} (exponential) or
    {"lambda0", "theta"} (logarithmic); ``predicted_total``, the mean at
    infinite effort, ``a`` or, for the unbounded logarithmic mean, infinity;
    ``current_intensity``, m'(horizon); and the ``log_likelihood``. Where the
    history shows no growth signal (events not front-loaded), the score has
    no root: the fit is not ``converged``, has a ``diagnostic``, and its
    parameters are the boundary the likelihood climbed toward, never point
    estimates."""
    events, horizon = validate_events(events, horizon)
    return _fit_validated(events, model, horizon)


def _fit_validated(events: list[float], model: SrgmModel, horizon: float, likelihood: bool = True) -> dict:
    """:func:`fit_srgm` on a history :func:`validate_events` has returned.
    Without ``likelihood``, the fit's ``log_likelihood`` is None: with
    finite, positive parameters it is finite, so skipping its pass over the
    events loses no fault, and a fit beyond range still names it."""
    if model not in MODELS:
        raise OrcasError(f"unknown growth model {model!r}")
    try:
        profile = MODELS[model](events, horizon)
        n, T, effort_sum = profile.n, horizon, profile.effort_sum
        lo = _BRACKET_FLOOR / T
        # No growth: the mean detection effort is not below half the horizon,
        # or the score is not positive at the floor. The score then has no
        # root and the likelihood no interior maximum. A NaN score at the
        # floor is neither: _bracket raises on it.
        if n * T / 2.0 - effort_sum <= 0.0 or (s_lo := profile.sign(lo)) <= 0.0:
            root, diagnostic = _BOUNDARY_RATE / T, _no_growth_diagnostic(n, effort_sum, T)
        else:
            hi, s_hi = _bracket(profile.sign, s_lo, T)
            # Newton on the exact score, from the profile's estimate in the
            # last octave the bracket search crossed.
            start = profile.estimate(lo if hi == 1.0 / T else 0.5 * hi, hi)
            root = newton_bisection(profile.score, profile.slope, lo, hi, start=start, flo=s_lo, fhi=s_hi)
            diagnostic = None
        values = profile.at_root(root)
        params = dict(zip(profile.names, values))
        current_intensity = profile.intensity(T, *values)
        finite = all(map(math.isfinite, (*values, current_intensity)))
        log_likelihood = None
        if likelihood or not finite:
            log_likelihood = profile.log_likelihood(events, T, *values)
            finite = finite and math.isfinite(log_likelihood)
        if not finite:
            raise OrcasError(f"growth fit is beyond floating-point range: parameters {params!r}, "
                             f"log-likelihood {log_likelihood!r}")
        return {"model": model, "params": params,
                "predicted_total": profile.mean(math.inf, *values), "current_intensity": current_intensity,
                "log_likelihood": log_likelihood, "converged": diagnostic is None, "diagnostic": diagnostic}
    except ArithmeticError as exc:
        raise OrcasError(f"growth fit is beyond floating-point range: {exc}") from exc


# ---------------------------------------------------------------------------
# Stability and rate extraction
# ---------------------------------------------------------------------------


def stability(
    series: Sequence[tuple[float, float]],
    threshold: float = DEFAULT_STABILITY_THRESHOLD,
) -> dict:
    """Check consecutive predicted totals for jumps beyond ``threshold``.

    ``series`` pairs each refit's window-end effort with its predicted
    total. Step size is |delta| / previous total; a zero previous total
    makes any nonzero step infinite. Returns a growth class's
    ``stability`` section of the report: the ``series`` as [end, total]
    pairs, ``max_relative_step``, ``threshold``, and ``stable``, true iff
    no step exceeds the threshold.
    """
    pairs = [(float(end), float(total)) for end, total in series]
    if len(pairs) < 2:
        raise OrcasError("stability needs at least 2 fits")
    if not 0 <= threshold < math.inf:
        raise OrcasError(f"stability threshold must be finite and >= 0, got {threshold!r}")
    previous_end = -math.inf
    for end, total in pairs:
        if end <= previous_end:
            raise OrcasError("stability window ends must be strictly increasing")
        if not math.isfinite(total):
            raise OrcasError(
                f"predicted total {total!r} in the stability series is not finite; "
                f"unbounded-model fits have no finite total to track"
            )
        previous_end = end
    max_step = 0.0
    for (_, prev), (_, cur) in zip(pairs, pairs[1:]):
        if prev == 0.0:
            step = 0.0 if cur == 0.0 else math.inf
        else:
            step = abs(cur - prev) / prev
        max_step = max(max_step, step)
    return {
        "series": [[end, total] for end, total in pairs],
        "max_relative_step": max_step,
        "stable": max_step <= threshold,
        "threshold": float(threshold),
    }


def srgm_class_rates(per_class_fits: Mapping[DefectClass, dict], unit: RateUnit) -> dict:
    """The report's ``rates`` section from the converged fits of :func:`growth_class` over the
    assessment horizon: each fit's ``current_intensity`` m'(horizon), the residual
    defect-manifestation rate there. Classes without a fit get rate 0."""
    return _rates({cls: fit["current_intensity"] for cls, fit in per_class_fits.items()}, unit, RateMethod.SRGM)


def growth_section(model: SrgmModel, horizon: float, per_class: dict[str, dict]) -> dict:
    """The report's ``growth`` section: ``per_class`` holds each class's
    ``fit``, ``events`` and ``stability`` by class name, and ``all_stable``
    is whether every class's refits are stable."""
    return {"model": model, "horizon": horizon, "per_class": per_class,
            "all_stable": all(entry["stability"]["stable"] for entry in per_class.values())}


def windowed_srgm_stability(
    events: Sequence[float],
    model: SrgmModel,
    horizon: float,
    windows: int,
    threshold: float = DEFAULT_STABILITY_THRESHOLD,
) -> tuple[dict, dict]:
    """Refit over expanding effort windows and run the stability check: the
    verdict of :func:`stability` and the last window's fit.

    ``events`` is a sorted detection history, validated once. Window k ends
    at k/windows of the horizon (the last at exactly the horizon, so its fit
    is ``fit_srgm(events, model, horizon)``) and fits every event up to its
    end; the series tracks each fit's figure (see :class:`_Profile`). Only
    the last fit computes its log-likelihood. Raises :class:`OrcasError`
    unless there are at least 2 windows and every window holds at least 2
    events, or where a window's fit raises."""
    events, horizon = validate_events(events, horizon)
    if windows < 2:
        raise OrcasError(f"stability needs at least 2 windows, got {windows}")
    series: list[tuple[float, float]] = []
    for k in range(1, windows + 1):
        end = horizon if k == windows else horizon * k / windows
        count = bisect_right(events, end)
        if count < 2:
            raise OrcasError(
                f"stability window ending at effort {end:.6g} contains "
                f"{count} event(s); need at least 2 (reduce the window "
                f"count or use bounded estimation)"
            )
        fit = _fit_validated(events[:count], model, end, likelihood=k == windows)
        series.append((end, MODELS[model].tracked(fit, horizon)))
    return stability(series, threshold), fit


def growth_class(events: Sequence[float], model: SrgmModel, horizon: float, windows: int, threshold: float) -> dict:
    """A class's entry in the report's ``growth`` section: its ``events`` and the ``stability``
    of :func:`windowed_srgm_stability`, and its last window's ``fit``, over [0, ``horizon``].
    Raises :class:`OrcasError` when that fit did not converge."""
    verdict, fit = windowed_srgm_stability(events, model, horizon, windows, threshold)
    if not fit["converged"]:
        raise OrcasError(fit["diagnostic"])
    return {"fit": fit, "events": events, "stability": verdict}

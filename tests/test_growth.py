import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from orcas.bundle import records_from_json
from orcas.domain import DefectClass, EffortKind, EffortModel, RateUnit
from orcas.errors import OrcasError
from orcas.growth import (
    DEFAULT_STABILITY_THRESHOLD,
    SrgmModel,
    bounded_class_rates,
    fit_mean,
    fit_srgm,
    go_intensity,
    go_log_likelihood,
    go_mean,
    growth_class,
    mo_intensity,
    mo_log_likelihood,
    mo_mean,
    srgm_class_rates,
    stability,
    windowed_srgm_stability,
)
from orcas.growth import _BRACKET_FLOOR, MODELS, _bracket, _MoProfile

from conftest import go_gradient, nhpp_exponential_events


def defect_objects(counts: dict[DefectClass, int], prefix: str = "") -> list[dict]:
    """JSON-shaped defects, ``counts[cls]`` of each class."""
    return [{"id": f"{prefix}{cls.value}-{i}", "description": "", "class": cls.value}
            for cls, n in counts.items() for i in range(n)]


def make_defects(counts: dict[DefectClass, int]):
    return records_from_json("defects.json", defect_objects(counts))


CONTINUOUS_10687 = EffortModel(kind=EffortKind.CONTINUOUS, test_count=10687, test_duration=1.0)


# ---------------------------------------------------------------------------
# Bounded estimation
# ---------------------------------------------------------------------------


def test_bounded_rates_for_case_study_counts():
    defects = make_defects({DefectClass.ALGORITHM: 2, DefectClass.CHECKING: 6})
    rates = bounded_class_rates(defects, CONTINUOUS_10687)
    per_class = rates["per_class"]
    assert per_class["algorithm"] == 2 / 10687
    assert per_class["checking"] == 6 / 10687
    assert f"{per_class['algorithm']:.4E}" == "1.8714E-04"
    assert f"{per_class['checking']:.4E}" == "5.6143E-04"
    assert rates["unit"] == "per-hour"
    assert rates["method"] == "bounded"
    assert list(per_class) == sorted(cls.value for cls in DefectClass)


def test_bounded_rates_zero_defects():
    rates = bounded_class_rates(make_defects({}), CONTINUOUS_10687)
    assert rates["per_class"] == {cls.value: 0.0 for cls in DefectClass}


def test_bounded_rates_on_demand():
    defects = make_defects({DefectClass.CHECKING: 1})
    rates = bounded_class_rates(defects, EffortModel(kind=EffortKind.ON_DEMAND, test_count=100))
    assert rates["per_class"]["checking"] == 0.01
    assert rates["unit"] == "per-demand"


count_maps = st.dictionaries(
    st.sampled_from(list(DefectClass)), st.integers(min_value=0, max_value=20), max_size=7)


@given(count_maps, st.randoms(use_true_random=False))
def test_bounded_rates_permutation_invariant(counts, rng):
    objects = defect_objects(counts)
    shuffled = list(objects)
    rng.shuffle(shuffled)
    assert (bounded_class_rates(records_from_json("defects.json", objects), CONTINUOUS_10687)
            == bounded_class_rates(records_from_json("defects.json", shuffled), CONTINUOUS_10687))


@given(count_maps, count_maps)
def test_bounded_rates_additive_over_disjoint_sets(counts_a, counts_b):
    a, b = defect_objects(counts_a), defect_objects(counts_b, prefix="b-")
    combined = bounded_class_rates(records_from_json("defects.json", a + b), CONTINUOUS_10687)["per_class"]
    ra = bounded_class_rates(records_from_json("defects.json", a), CONTINUOUS_10687)["per_class"]
    rb = bounded_class_rates(records_from_json("defects.json", b), CONTINUOUS_10687)["per_class"]
    for cls in combined:
        assert combined[cls] == pytest.approx(ra[cls] + rb[cls], abs=1e-15)


@given(
    st.integers(min_value=1, max_value=50),
    st.integers(min_value=10, max_value=10**5),
    st.integers(min_value=1, max_value=10**5),
)
def test_bounded_rate_decreases_with_more_effort(defect_count, tests, extra_tests):
    defects = make_defects({DefectClass.CHECKING: defect_count})
    small = EffortModel(kind=EffortKind.ON_DEMAND, test_count=tests)
    large = EffortModel(kind=EffortKind.ON_DEMAND, test_count=tests + extra_tests)
    assert bounded_class_rates(defects, large)["per_class"]["checking"] < \
        bounded_class_rates(defects, small)["per_class"]["checking"]


# ---------------------------------------------------------------------------
# Exponential-model fitting
# ---------------------------------------------------------------------------


def test_go_fit_recovers_known_parameters():
    rng = random.Random(11)
    a_true, b_true, horizon = 200.0, 0.02, 300.0
    events = sorted(
        t for _ in range(4) for t in nhpp_exponential_events(50.0, b_true, horizon, rng))
    fit = fit_srgm(events, SrgmModel.GOEL_OKUMOTO, horizon=horizon)
    assert fit["converged"]
    assert fit["params"]["a"] == pytest.approx(a_true, rel=0.15)
    assert fit["params"]["b"] == pytest.approx(b_true, rel=0.15)
    assert fit["predicted_total"] == fit["params"]["a"]


def test_go_fit_is_deterministic():
    rng = random.Random(5)
    events = nhpp_exponential_events(80.0, 0.05, 200.0, rng)
    first = fit_srgm(events, SrgmModel.GOEL_OKUMOTO, horizon=200.0)
    second = fit_srgm(events, SrgmModel.GOEL_OKUMOTO, horizon=200.0)
    assert first["params"]["a"] == second["params"]["a"]
    assert first["params"]["b"] == second["params"]["b"]
    assert first["log_likelihood"] == second["log_likelihood"]


def test_go_gradient_vanishes_at_fit():
    rng = random.Random(2)
    horizon = 250.0
    events = nhpp_exponential_events(60.0, 0.03, horizon, rng)
    fit = fit_srgm(events, SrgmModel.GOEL_OKUMOTO, horizon=horizon)
    d_a, d_b = go_gradient(events, horizon, fit["params"]["a"], fit["params"]["b"])
    assert abs(d_a) <= 1e-6
    assert abs(d_b) <= 1e-6


def central_difference(f, x, h):
    return (f(x + h) - f(x - h)) / (2 * h)


def test_go_gradient_matches_finite_differences():
    rng = random.Random(4)
    horizon = 250.0
    events = nhpp_exponential_events(60.0, 0.03, horizon, rng)
    fit = fit_srgm(events, SrgmModel.GOEL_OKUMOTO, horizon=horizon)
    a_hat, b_hat = fit["params"]["a"], fit["params"]["b"]
    # Away from the optimum the gradient is large; require plain relative
    # agreement there.
    for a, b in [(a_hat * 1.15, b_hat), (a_hat, b_hat * 0.85), (a_hat * 0.9, b_hat * 1.1)]:
        d_a, d_b = go_gradient(events, horizon, a, b)
        fd_a = central_difference(lambda x: go_log_likelihood(events, horizon, x, b), a, a * 1e-6)
        fd_b = central_difference(lambda x: go_log_likelihood(events, horizon, a, x), b, b * 1e-6)
        assert abs(d_a - fd_a) <= 1e-4 * max(1.0, abs(d_a), abs(fd_a))
        assert abs(d_b - fd_b) <= 1e-4 * max(1.0, abs(d_b), abs(fd_b))


def test_go_mean_matches_count_at_fit():
    # The fitted mean function passes through the observed count at the
    # horizon; well inside the n +/- 3*sqrt(n) band.
    rng = random.Random(9)
    horizon = 300.0
    events = nhpp_exponential_events(70.0, 0.02, horizon, rng)
    n = len(events)
    fit = fit_srgm(events, SrgmModel.GOEL_OKUMOTO, horizon=horizon)
    fitted_count = go_mean(horizon, fit["params"]["a"], fit["params"]["b"])
    assert abs(fitted_count - n) <= 1e-9 * n
    assert n - 3 * math.sqrt(n) <= fitted_count <= n + 3 * math.sqrt(n)


def test_go_fit_degenerates_on_uniform_events():
    # Evenly spaced events are the constant-rate limit: no interior
    # optimum exists and the fit must say so rather than invent one.
    k = 60
    events = [float(i) for i in range(1, k + 1)]
    fit = fit_srgm(events, SrgmModel.GOEL_OKUMOTO, horizon=float(k))
    assert not fit["converged"]
    assert fit["diagnostic"] is not None
    # The homogeneous-Poisson fit is the reference ceiling here.
    hpp_loglik = k * math.log(k / float(k)) - k
    assert fit["log_likelihood"] <= hpp_loglik + 1e-9


def test_fit_rejects_insufficient_data():
    with pytest.raises(OrcasError, match="insufficient failure data"):
        fit_srgm([1.0], SrgmModel.GOEL_OKUMOTO)
    with pytest.raises(OrcasError, match="insufficient failure data"):
        fit_srgm([], SrgmModel.GOEL_OKUMOTO)


def test_fit_rejects_bad_event_sequences():
    with pytest.raises(OrcasError, match="nondecreasing"):
        fit_srgm([3.0, 2.0], SrgmModel.GOEL_OKUMOTO)
    with pytest.raises(OrcasError, match="positive"):
        fit_srgm([0.0, 2.0], SrgmModel.GOEL_OKUMOTO)
    with pytest.raises(OrcasError, match="horizon"):
        fit_srgm([1.0, 5.0], SrgmModel.GOEL_OKUMOTO, horizon=4.0)


def test_an_unknown_growth_model_is_refused():
    events = sorted(nhpp_exponential_events(100.0, 0.01, 300.0, random.Random(5)))
    with pytest.raises(OrcasError, match="^unknown growth model 'weibull'$"):
        fit_srgm(events, "weibull", horizon=300.0)
    with pytest.raises(OrcasError, match="^unknown growth model 'weibull'$"):
        windowed_srgm_stability(events, "weibull", 300.0, windows=4)


@pytest.mark.parametrize("model", list(SrgmModel))
def test_each_model_names_its_fits_params(model):
    events = sorted(nhpp_exponential_events(100.0, 0.01, 300.0, random.Random(5)))
    fit = fit_srgm(events, model, horizon=300.0)
    assert fit["converged"]
    assert MODELS[model].names == tuple(fit["params"])


def test_go_fit_survives_events_far_below_horizon():
    # Tiny detection efforts push the score-equation bracket very high;
    # the solver must not overflow on the way there.
    fit = fit_srgm([1e-9, 2e-9, 3e-9], SrgmModel.GOEL_OKUMOTO, horizon=1.0)
    assert fit["converged"]
    assert fit["params"]["b"] > 0


# ---------------------------------------------------------------------------
# Logarithmic-model fitting
# ---------------------------------------------------------------------------


def test_mo_fit_basics():
    rng = random.Random(13)
    horizon = 400.0
    # Inversion sampling for the logarithmic mean function.
    events, s = [], 0.0
    lam0_true, theta_true = 2.0, 0.05
    ceiling = mo_mean(horizon, lam0_true, theta_true)
    while True:
        s += rng.expovariate(1.0)
        if s >= ceiling:
            break
        events.append(math.expm1(theta_true * s) / (lam0_true * theta_true))
    fit = fit_srgm(events, SrgmModel.MUSA_OKUMOTO, horizon=horizon)
    assert fit["converged"]
    assert math.isinf(fit["predicted_total"])
    # MLE ties the fitted mean at the horizon to the observed count.
    assert fit_mean(fit, horizon) == pytest.approx(len(events), rel=1e-9)
    assert fit["current_intensity"] == pytest.approx(
        mo_intensity(horizon, fit["params"]["lambda0"], fit["params"]["theta"]))
    assert mo_log_likelihood(events, horizon, fit["params"]["lambda0"], fit["params"]["theta"]) == \
        fit["log_likelihood"]


def test_mo_fit_degenerates_on_uniform_events():
    events = [float(i) for i in range(1, 41)]
    fit = fit_srgm(events, SrgmModel.MUSA_OKUMOTO, horizon=40.0)
    assert not fit["converged"]
    assert fit["diagnostic"] is not None


# ---------------------------------------------------------------------------
# Stability
# ---------------------------------------------------------------------------


def test_stability_small_steps_are_stable():
    verdict = stability([(1.0, 100.0), (2.0, 105.0), (3.0, 103.0)], threshold=0.10)
    assert verdict["max_relative_step"] == pytest.approx(0.05)
    assert verdict["stable"]


def test_stability_large_step_is_unstable():
    verdict = stability([(1.0, 100.0), (2.0, 120.0)], threshold=0.10)
    assert verdict["max_relative_step"] == pytest.approx(0.20)
    assert not verdict["stable"]


def test_stability_constant_series():
    verdict = stability([(1.0, 42.0), (2.0, 42.0), (3.0, 42.0)])
    assert verdict["max_relative_step"] == 0.0
    assert verdict["stable"]


@given(st.lists(st.floats(min_value=0.1, max_value=1e6, allow_nan=False), min_size=2, max_size=8))
def test_zero_threshold_is_stable_only_for_constant_series(totals):
    series = [(float(i), t) for i, t in enumerate(totals)]
    verdict = stability(series, threshold=0.0)
    assert verdict["stable"] == all(t == totals[0] for t in totals)


def test_stability_input_validation():
    with pytest.raises(OrcasError, match="at least 2"):
        stability([(1.0, 100.0)])
    with pytest.raises(OrcasError, match="increasing"):
        stability([(2.0, 100.0), (1.0, 100.0)])
    with pytest.raises(OrcasError, match="finite"):
        stability([(1.0, math.inf), (2.0, 100.0)])


def test_windowed_stability_on_synthetic_data():
    rng = random.Random(21)
    horizon = 300.0
    events = sorted(
        t for _ in range(4) for t in nhpp_exponential_events(50.0, 0.02, horizon, rng))
    verdict, fit = windowed_srgm_stability(
        events, SrgmModel.GOEL_OKUMOTO, horizon, windows=4)
    assert fit == fit_srgm(events, SrgmModel.GOEL_OKUMOTO, horizon)
    assert [end for end, _ in verdict["series"]] == [75.0, 150.0, 225.0, 300.0]
    assert all(total > 0 for _, total in verdict["series"])


def test_windowed_stability_rejects_sparse_windows():
    with pytest.raises(OrcasError, match="window"):
        windowed_srgm_stability([200.0, 250.0], SrgmModel.GOEL_OKUMOTO, 300.0, windows=3)


def test_stability_series_validates_events_once(monkeypatch):
    from orcas import growth
    calls = []
    validate = growth.validate_events
    monkeypatch.setattr(growth, "validate_events", lambda *args: calls.append(args) or validate(*args))
    events = sorted(nhpp_exponential_events(100.0, 0.01, 300.0, random.Random(5)))
    verdict, _ = windowed_srgm_stability(events, SrgmModel.MUSA_OKUMOTO, 300.0, windows=4)
    assert len(verdict["series"]) == 4
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# Rates from fits
# ---------------------------------------------------------------------------


def test_srgm_class_rates_exponential_intensity():
    fit = fit_srgm([10.0, 30.0, 80.0], SrgmModel.GOEL_OKUMOTO, horizon=100.0)
    # Evaluate through the published closed form on handpicked parameters.
    reference = go_intensity(100.0, 50.0, 0.02)
    assert reference == pytest.approx(50.0 * 0.02 * math.exp(-2.0))
    assert reference == pytest.approx(0.1353, abs=5e-5)
    rates = srgm_class_rates({DefectClass.CHECKING: fit}, RateUnit.PER_HOUR)
    # The fit's intensity at its horizon, bit for bit.
    assert rates["per_class"]["checking"] == go_intensity(100.0, fit["params"]["a"], fit["params"]["b"])
    assert rates["per_class"]["timing"] == 0.0
    assert rates["method"] == "srgm"
    assert rates["unit"] == "per-hour"


def test_go_intensity_vanishes_at_large_horizon():
    assert go_intensity(1e7, 50.0, 0.02) == 0.0


def test_mo_intensity_at_time_zero_is_initial():
    assert mo_intensity(0.0, 1.0, 0.1) == 1.0


def test_growth_class_raises_the_no_growth_diagnostic():
    # growth_class, which gives srgm_class_rates its fits, raises the fit's own diagnostic.
    events = [float(i) for i in range(1, 30)]
    fit = fit_srgm(events, SrgmModel.GOEL_OKUMOTO, horizon=29.0)
    assert not fit["converged"]
    with pytest.raises(OrcasError) as err:
        growth_class(events, SrgmModel.GOEL_OKUMOTO, 29.0, 2, DEFAULT_STABILITY_THRESHOLD)
    assert str(err.value) == fit["diagnostic"]
    assert str(err.value).startswith("no reliability growth in the event history: mean detection effort 15 "
                                     "is not below half the horizon 14.5")
    assert str(err.value).endswith("use bounded estimation")


# ---------------------------------------------------------------------------
# Oracle, boundary and window properties of the fitters
# ---------------------------------------------------------------------------


def nhpp_logarithmic_events(lambda0: float, theta: float, horizon: float,
                            rng: random.Random) -> list[float]:
    """Arrival efforts of the logarithmic-mean process, by inversion of
    m(t) = ln(lambda0*theta*t + 1)/theta over unit-rate Poisson sums."""
    events, s = [], 0.0
    ceiling = math.log1p(lambda0 * theta * horizon) / theta
    while True:
        s += rng.expovariate(1.0)
        if s >= ceiling:
            return events
        events.append(math.expm1(theta * s) / (lambda0 * theta))


# Histories drawn with a clear growth signal: the profiled root times the
# horizon (b*T, or lambda0*theta*T) is 2 to 8, with 60 to 400 events
# expected.
growth_histories = st.tuples(
    st.sampled_from(list(SrgmModel)),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(min_value=60.0, max_value=400.0),
    st.floats(min_value=2.0, max_value=8.0),
    st.floats(min_value=-2.0, max_value=6.0),
)


def sample_history(spec) -> tuple[SrgmModel, list[float], float]:
    model, seed, expected, growth, log_horizon = spec
    rng = random.Random(seed)
    horizon = 10.0 ** log_horizon
    if model is SrgmModel.GOEL_OKUMOTO:
        a = expected / -math.expm1(-growth)
        events = nhpp_exponential_events(a, growth / horizon, horizon, rng)
    else:
        theta = math.log1p(growth) / expected
        events = nhpp_logarithmic_events(growth / horizon / theta, theta, horizon, rng)
    return model, events, horizon


def independent_negative_log_likelihood(model: SrgmModel, events: list[float], horizon: float):
    """-ln L of the event-time likelihood, sum(ln m'(t_i)) - m(T), over
    log-parameters; written from the model definitions with numpy."""
    np = pytest.importorskip("numpy")
    t = np.asarray(events)

    if model is SrgmModel.GOEL_OKUMOTO:
        def nll(p):
            a, b = np.exp(p)
            return -(np.sum(np.log(a * b) - b * t) - a * (1.0 - np.exp(-b * horizon)))
    else:
        def nll(p):
            lam, theta = np.exp(p)
            return -(np.sum(np.log(lam / (lam * theta * t + 1.0)))
                     - np.log(lam * theta * horizon + 1.0) / theta)
    return nll


def profiled_root(fit) -> float:
    params = fit["params"]
    return params["b"] if fit["model"] == SrgmModel.GOEL_OKUMOTO.value else params["lambda0"] * params["theta"]


@settings(max_examples=25, deadline=None)
@given(growth_histories)
def test_fits_match_scipy_optimum_of_independent_likelihood(spec):
    optimize = pytest.importorskip("scipy.optimize")
    model, events, horizon = sample_history(spec)
    fit = fit_srgm(events, model, horizon=horizon)
    # A drawn history can lack a growth signal (the no-growth test covers
    # that), or have so weak a one that the likelihood is too flat for a
    # double-precision optimizer to pin the parameters to 1e-6; the
    # high-precision test below covers that case.
    assume(fit["converged"] and profiled_root(fit) * horizon >= 0.5)
    nll = independent_negative_log_likelihood(model, events, horizon)
    n = len(events)
    # A start that knows nothing of the fitter: n events over the horizon.
    start = [math.log(n), -math.log(horizon)] if model is SrgmModel.GOEL_OKUMOTO else \
        [math.log(n / horizon), math.log(1.0 / n)]
    options = {"xatol": 1e-12, "fatol": 1e-13, "maxiter": 20000, "maxfev": 40000}
    for _ in range(2):
        # A simplex a factor e wide in each parameter; the restart from
        # the first answer guards against a simplex that collapsed early.
        simplex = [start, [start[0] + 1.0, start[1]], [start[0], start[1] + 1.0]]
        result = optimize.minimize(nll, start, method="Nelder-Mead",
                                   options={**options, "initial_simplex": simplex})
        start = list(result.x)
    names = ("a", "b") if model is SrgmModel.GOEL_OKUMOTO else ("lambda0", "theta")
    for name, log_value in zip(names, result.x):
        assert fit["params"][name] == pytest.approx(math.exp(log_value), rel=1e-6)
    assert -result.fun <= fit["log_likelihood"] + 1e-9 * abs(fit["log_likelihood"])


def test_weak_growth_fit_matches_high_precision_profile_maximum():
    # 65 events with barely any growth signal (lambda0*theta*T = 0.0043):
    # Nelder-Mead on the likelihood stops 6e-5 away from the optimum in
    # theta. Here the oracle is the maximum of the profile log-likelihood,
    # n*ln(n*beta/ln(1 + beta*T)) - sum(ln(1 + beta*t_i)) - n, in 50 digits.
    mp = pytest.importorskip("mpmath")
    model, events, horizon = sample_history((SrgmModel.MUSA_OKUMOTO, 17391, 60.0, 2.0, 0.0))
    fit = fit_srgm(events, model, horizon=horizon)
    assert fit["converged"]
    assert profiled_root(fit) * horizon < 0.01
    n = len(events)
    with mp.workdps(50):
        T = mp.mpf(horizon)
        ts = [mp.mpf(t) for t in events]

        def profile(beta):
            return n * mp.log(n * beta / mp.log1p(beta * T)) - mp.fsum(mp.log1p(beta * t) for t in ts) - n

        beta = mp.findroot(lambda x: mp.diff(profile, x), mp.mpf(1e-3) / T)
        assert profile(beta) > max(profile(beta * 0.99), profile(beta * 1.01))
        lambda0 = float(n * beta / mp.log1p(beta * T))
        theta = float(mp.log1p(beta * T) / n)
    assert fit["params"]["lambda0"] == pytest.approx(lambda0, rel=1e-9)
    assert fit["params"]["theta"] == pytest.approx(theta, rel=1e-9)


@given(
    st.sampled_from(list(SrgmModel)),
    st.lists(st.floats(min_value=0.5, max_value=1.0), min_size=2, max_size=60),
    st.floats(min_value=-3.0, max_value=6.0),
)
def test_no_growth_boundary_gives_unconverged_fit(model, fractions, log_horizon):
    # Mean detection effort at or past half the horizon: n*T/2 <= sum(t_i).
    horizon = 10.0 ** log_horizon
    events = sorted(f * horizon for f in fractions)
    assert len(events) * horizon / 2.0 <= math.fsum(events)
    fit = fit_srgm(events, model, horizon=horizon)
    assert not fit["converged"]
    assert "no reliability growth" in fit["diagnostic"]
    assert all(math.isfinite(v) for v in fit["params"].values())


# Short histories, from front-loaded to near the constant-rate limit,
# where the logarithmic-model profile score can have several roots.
short_histories = st.tuples(
    st.sampled_from(list(SrgmModel)),
    st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=4, max_size=40),
    st.floats(min_value=0.5, max_value=3.0),
    st.floats(min_value=-3.0, max_value=5.0),
).map(lambda spec: (spec[0], sorted(u ** spec[2] * 10.0 ** spec[3] for u in spec[1]),
                    10.0 ** spec[3]))


def window_ends(horizon, windows):
    return [horizon * k / windows for k in range(1, windows)] + [horizon]


def assert_windows_are_cold_fits(model, events, horizon, windows):
    # Each window's figure is that of the cold fit of its own prefix, bit for
    # bit, and the fit returned is the last (full-horizon) cold fit.
    ends = window_ends(horizon, windows)
    fits = [fit_srgm([t for t in events if t <= end], model, horizon=end) for end in ends]
    verdict, fit = windowed_srgm_stability(events, model, horizon, windows)
    assert verdict["series"] == [[end, MODELS[model].tracked(cold, horizon)] for end, cold in zip(ends, fits)]
    assert fit == fits[-1]
    assert math.isfinite(fit["log_likelihood"])


def assert_windows_fit_or_fail_as_cold_fits(model, events, horizon, windows):
    # Where the cold fit of a window's prefix raises, the windows raise the
    # first such fault: the window fits that skip their log-likelihood lose
    # none. Otherwise the windows are the cold fits.
    try:
        for end in window_ends(horizon, windows):
            fit_srgm([t for t in events if t <= end], model, horizon=end)
    except OrcasError as exc:
        with pytest.raises(OrcasError) as raised:
            windowed_srgm_stability(events, model, horizon, windows)
        assert str(raised.value) == str(exc)
        return
    assert_windows_are_cold_fits(model, events, horizon, windows)


@settings(max_examples=40, deadline=None)
@given(growth_histories, st.sampled_from([3, 5, 6, 7]))
def test_window_fits_end_at_horizon_and_match_cold_fits(spec, windows):
    model, events, horizon = sample_history(spec)
    assert_windows_are_cold_fits(model, events, horizon, windows)


@settings(max_examples=150, deadline=None)
@given(short_histories, st.sampled_from([2, 3, 4, 5, 6, 7]))
def test_short_history_window_fits_match_cold_fits(history, windows):
    model, events, horizon = history
    # The first, sparsest window needs 2 events.
    assume(sum(t <= horizon / windows for t in events) >= 2)
    assert_windows_are_cold_fits(model, events, horizon, windows)


def test_window_fit_keeps_the_cold_root_of_a_multi_root_score():
    # On [0, 5] the logarithmic-model profile score of these events changes
    # sign near lambda0*theta*T = 6.6, 20 and 191; the cold bracket search
    # meets 6.6 first. The first of two windows must take that root too.
    events = [0.01, 1.74, 2.15, 3.92]
    verdict, _ = windowed_srgm_stability(events, SrgmModel.MUSA_OKUMOTO, 10.0, 2)
    end, tracked = verdict["series"][0]
    assert end == 5.0
    fit = fit_srgm(events, SrgmModel.MUSA_OKUMOTO, horizon=5.0)
    assert fit["params"]["lambda0"] * fit["params"]["theta"] * end == pytest.approx(6.61, rel=1e-3)
    assert tracked == fit_mean(fit, 10.0)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.integers(min_value=2, max_value=5000),
    st.floats(min_value=-3.0, max_value=6.0),
    st.floats(min_value=0.3, max_value=4.0),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(min_value=-1e-9, max_value=1e-9),
)
def test_summary_bounds_settle_the_exact_score_sign(n, log_scale, shape, seed, offset):
    # Histories from front-loaded (shape 4) to back-loaded (shape 0.3),
    # at time scales 1e-3 to 1e6. The sign the bucket bounds settle must be
    # the sign of the exact score, on the bracket search's dyadic grid and
    # within 1e-9 of the root, so the bracket is the all-exact search's.
    rng = random.Random(seed)
    horizon = 10.0 ** log_scale
    events = sorted(horizon * (1.0 - rng.random()) ** shape for _ in range(n))
    profile = _MoProfile(events, horizon)
    exact = profile.score
    betas = [2.0 ** k / horizon for k in range(-41, 64)]
    fit = fit_srgm(events, SrgmModel.MUSA_OKUMOTO, horizon=horizon)
    if fit["converged"]:
        root = fit["params"]["lambda0"] * fit["params"]["theta"]
        betas += [root * (1.0 + offset), root * (1.0 - 1e-9), root, root * (1.0 + 1e-9)]
    passes = []
    profile.score = lambda beta: passes.append(beta) or exact(beta)
    for beta in betas:
        settled = profile.sign(beta)
        score = exact(beta)
        assert (settled > 0.0, settled < 0.0) == (score > 0.0, score < 0.0), beta
    # Far from the root the bounds settle the sign without a pass.
    assert len(passes) < len(betas) // 2
    floor_score = exact(_BRACKET_FLOOR / horizon)
    assert _bracket(profile.sign, floor_score, horizon)[0] == \
        _bracket(exact, floor_score, horizon)[0]


BENCHMARK_SIZE_HORIZON = 1000.0


def benchmark_size_history(seed: int, growth: float) -> list[float]:
    """About 4,000 logarithmic-model events on [0, 1000] whose sampling
    model has lambda0*theta*T = ``growth``."""
    theta = math.log1p(growth) / 4000.0
    return nhpp_logarithmic_events(growth / BENCHMARK_SIZE_HORIZON / theta, theta,
                                   BENCHMARK_SIZE_HORIZON, random.Random(seed))


@pytest.mark.parametrize("seed, growth", [(11, 5.0), (12, 40.0), (13, 300.0)])
def test_benchmark_size_fit_matches_high_precision_score_root(seed, growth):
    # About 4,000 events, so each of the 64 summary buckets holds ~60 and
    # the summary's Newton start is 1e-7 to 1e-6 off the root. The oracle
    # is the root of the profile score,
    # n/beta - n*T/((beta*T + 1)*ln(beta*T + 1)) - sum(t_i/(beta*t_i + 1)),
    # solved in 50 digits.
    mp = pytest.importorskip("mpmath")
    horizon = BENCHMARK_SIZE_HORIZON
    events = benchmark_size_history(seed, growth)
    fit = fit_srgm(events, SrgmModel.MUSA_OKUMOTO, horizon=horizon)
    assert fit["converged"]
    beta = fit["params"]["lambda0"] * fit["params"]["theta"]
    n = len(events)
    with mp.workdps(50):
        T = mp.mpf(horizon)
        ts = [mp.mpf(t) for t in events]

        def score(x):
            # In units of 1/T: x = beta*T.
            b = x / T
            return n / b - n * T / ((x + 1) * mp.log1p(x)) - mp.fsum(t / (b * t + 1) for t in ts)

        # Started from the sampling model's beta*T, not from the fit.
        oracle = float(mp.findroot(score, mp.mpf(growth)) / T)
    assert beta == pytest.approx(oracle, rel=1e-12)


@pytest.mark.parametrize("seed, growth, passes", [(11, 5.0, 6), (12, 40.0, 3), (13, 300.0, 3)])
def test_benchmark_size_fit_exact_pass_count(seed, growth, passes, monkeypatch):
    # Each exact score evaluation is a pass over the events. The summary
    # bounds settle the bracket floor, and the second-order start leaves
    # Newton 1-4 exact steps. The counts are deterministic, on every Python
    # version: a change that adds passes must change them here.
    exact = _MoProfile.score
    betas = []
    monkeypatch.setattr(_MoProfile, "score", lambda self, beta: betas.append(beta) or exact(self, beta))
    fit = fit_srgm(benchmark_size_history(seed, growth), SrgmModel.MUSA_OKUMOTO,
                   horizon=BENCHMARK_SIZE_HORIZON)
    assert fit["converged"]
    assert _BRACKET_FLOOR / BENCHMARK_SIZE_HORIZON not in betas
    assert len(betas) == passes


def test_benchmark_size_fit_is_the_same_on_every_python():
    # The summary's bucket sums are fsums, which every Python version rounds
    # alike (the builtin sum of floats is compensated from 3.12 on), so the
    # Newton start, and with it the root, is bit for bit the same.
    # With the builtin sum, Python 3.10 and 3.11 gave lambda0 0x1.beb4a267f7208p+7.
    fit = fit_srgm(benchmark_size_history(13, 300.0), SrgmModel.MUSA_OKUMOTO, horizon=BENCHMARK_SIZE_HORIZON)
    assert fit["params"] == {"lambda0": float.fromhex("0x1.beb4a267f7211p+7"),
                             "theta": float.fromhex("0x1.755f4241edd08p-10")}
    assert fit["log_likelihood"] == float.fromhex("0x1.7d8b735c721b0p+12")


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(list(SrgmModel)),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=2, max_value=50),
    st.floats(min_value=-323.0, max_value=307.5),
    st.sampled_from([None, 1.0, 1.5, 4.0]),
)
def test_extreme_scales_give_a_finite_fit_or_an_error(model, seed, n, exponent, horizon_factor):
    # Detection efforts from near the smallest subnormal to near the
    # largest float: the bracket search may not overflow into inf, nor may
    # a fit carry non-finite parameters.
    rng = random.Random(seed)
    scale = 10.0 ** exponent
    events = sorted(rng.expovariate(1.0) * scale for _ in range(n))
    if events[0] <= 0.0 or math.isinf(events[-1]):
        return
    horizon = None if horizon_factor is None else events[-1] * horizon_factor
    if horizon is not None and math.isinf(horizon):
        return
    # Window fits without their log-likelihood raise where cold fits do.
    end = horizon if horizon is not None else events[-1]
    if sum(t <= end / 2 for t in events) >= 2:
        assert_windows_fit_or_fail_as_cold_fits(model, events, end, 2)
    try:
        fit = fit_srgm(events, model, horizon=horizon)
    except OrcasError:
        return
    assert all(math.isfinite(v) and v > 0.0 for v in fit["params"].values())
    assert math.isfinite(fit["log_likelihood"])
    assert math.isfinite(fit["current_intensity"])
    if fit["converged"]:
        assert fit_mean(fit, horizon if horizon is not None else events[-1]) == \
            pytest.approx(n, rel=1e-6)


@pytest.mark.parametrize("model", list(SrgmModel))
def test_extreme_scale_histories(model):
    # The same history in units of 1e-300 fits; in units of 1e300 the
    # score overflows to NaN and the fit says so.
    rng = random.Random(7)
    base = nhpp_exponential_events(40.0, 3.0, 1.0, rng)
    tiny = fit_srgm([t * 1e-300 for t in base], model, horizon=1e-300)
    assert tiny["converged"]
    assert all(math.isfinite(v) for v in tiny["params"].values())
    with pytest.raises(OrcasError, match="floating-point range"):
        fit_srgm([t * 1e300 for t in base], model, horizon=1e300)
    # The window fits, which skip the log-likelihood but the last's, fit and
    # fail as cold fits do: finite parameters give a finite log-likelihood.
    assert_windows_are_cold_fits(model, [t * 1e-300 for t in base], 1e-300, 4)
    with pytest.raises(OrcasError, match="floating-point range"):
        windowed_srgm_stability([t * 1e300 for t in base], model, 1e300, 4)
    assert_windows_fit_or_fail_as_cold_fits(model, [t * 1e300 for t in base], 1e300, 4)

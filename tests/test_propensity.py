"""Propensity fitting and Poisson pattern-density contracts."""

import itertools
import math

import numpy as np
import pytest

from geocausal.errors import OverlapViolationError, RankDeficiencyError
from geocausal.geometry import Raster, SpatialWindow, build_grid, integrate_raster
from geocausal.patterns import (
    MarkedPointPattern,
    PatternSeries,
    PointPattern,
    history_maps,
    prefix_series,
)
from geocausal import propensity
from geocausal.propensity import (
    FittedPropensity,
    PropensityOptions,
    fit_diagnostics,
    fit_poisson_intensity,
    log_pattern_density,
    predict_intensity,
)
from geocausal.validation import default_dgp
from geocausal.simulate import simulate_series


def make_series(grid, points_per_period, covariates=None):
    window = grid.window
    treatments, outcomes = [], []
    for t, pts in enumerate(points_per_period, start=1):
        pts = np.asarray(pts, dtype=float).reshape(-1, 2)
        treatments.append(MarkedPointPattern(
            base=PointPattern(time=t, points=pts, window=window),
            marks=tuple("none" for _ in range(pts.shape[0]))))
        outcomes.append(PointPattern(time=t, points=np.zeros((0, 2)), window=window))
    return PatternSeries(grid, treatments, outcomes, covariates or {})


def test_intercept_only_matches_closed_form_mle():
    # closed-form oracle: homogeneous Poisson MLE is total count / (area * T)
    window = SpatialWindow(bounds=(0.0, 0.0, 2.0, 2.0))
    grid = build_grid(window, 8, 8)
    rng = np.random.default_rng(5)
    pts = [rng.uniform(0, 2, size=(rng.poisson(3.0), 2)) for _ in range(50)]
    series = make_series(grid, pts)
    fit = fit_poisson_intensity(series, [])
    n_total = sum(len(p) for p in pts)
    lam_closed = n_total / (window.area * 50)
    assert fit.model.coefficients["intercept"] == pytest.approx(
        math.log(lam_closed), rel=1e-8)


def test_synthetic_recovery_within_tolerance():
    # simulation oracle: gradient-covariate DGP at T=2000
    import dataclasses

    base = default_dgp()
    grid = base.grid
    xs = grid.cell_centers()
    covs = {"east": Raster(grid, (xs[:, 0] / 10.0).reshape(grid.ny, grid.nx)),
            "north": Raster(grid, (xs[:, 1] / 10.0).reshape(grid.ny, grid.nx))}
    slopes = {"east": 0.8, "north": -0.5}
    eta = sum(slopes[n] * covs[n].values for n in slopes)
    rate = 12.0
    coef = {"intercept": math.log(rate / (float(np.sum(np.exp(eta))) * grid.cell_area))}
    coef.update(slopes)
    dgp = dataclasses.replace(base, covariates=covs, propensity_coef=coef,
                              mediator_coef=None)
    series = simulate_series(dgp, 2000, 2024)
    fit = fit_poisson_intensity(series, dgp.covariates.keys())
    for name, truth in coef.items():
        assert abs(fit.model.coefficients[name] - truth) < 0.05


def test_zero_events_error():
    grid = build_grid(SpatialWindow(bounds=(0, 0, 1, 1)), 4, 4)
    series = make_series(grid, [np.zeros((0, 2))] * 5)
    with pytest.raises(ValueError):
        fit_poisson_intensity(series, [])


def test_rank_deficiency_names_columns():
    grid = build_grid(SpatialWindow(bounds=(0, 0, 1, 1)), 6, 6)
    rng = np.random.default_rng(0)
    base = rng.uniform(size=(6, 6))
    covs = {"a": Raster(grid, base), "a_copy": Raster(grid, base.copy())}
    pts = [rng.uniform(0, 1, size=(3, 2)) for _ in range(10)]
    series = make_series(grid, pts, covs)
    with pytest.raises(RankDeficiencyError) as err:
        fit_poisson_intensity(series, ["a", "a_copy"])
    assert any("a" in str(c) for c in err.value.columns)


def test_irls_deviance_monotone_and_score_small():
    dgp = default_dgp(treatment_rate=2.0)
    series = simulate_series(dgp, 300, 9)
    fit = fit_poisson_intensity(series, dgp.covariates.keys())
    trace = fit.report.deviance_trace
    assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))
    assert fit.report.max_abs_score < 1e-6
    assert fit.report.converged


def test_predict_intensity_contracts():
    grid = build_grid(SpatialWindow(bounds=(0, 0, 1, 1)), 4, 4)
    rng = np.random.default_rng(1)
    cov = Raster(grid, rng.uniform(size=(4, 4)))
    series = make_series(grid, [rng.uniform(0, 1, size=(2, 2)) for _ in range(20)],
                         {"x": cov})
    fit = fit_poisson_intensity(series, ["x"])

    zero_cov = Raster(grid, np.zeros((4, 4)))
    flat = predict_intensity(fit, {"x": zero_cov})
    assert np.allclose(flat.values,
                       math.exp(fit.model.coefficients["intercept"]))

    plus = predict_intensity(fit, {"x": Raster(grid, cov.values + 1.0)})
    basev = predict_intensity(fit, {"x": cov})
    ratio = plus.values / basev.values
    assert np.allclose(ratio, math.exp(fit.model.coefficients["x"]), rtol=1e-10)

    with pytest.raises(ValueError):
        predict_intensity(fit, {})


@pytest.mark.parametrize("dynamic", [False, True])
def test_prediction_cache_follows_the_series(monkeypatch, dynamic):
    # A warm fit asked about a second series answers for that series, and
    # evaluates the intensity once per series switch: one raster when the
    # model is static on it, else one pass over every period.
    grid = build_grid(SpatialWindow(bounds=(0, 0, 1, 1)), 4, 4)
    rng = np.random.default_rng(1)
    T = 20
    values = rng.uniform(size=(T, 4, 4)) if dynamic else rng.uniform(size=(4, 4))
    pts = [rng.uniform(0, 1, size=(2, 2)) for _ in range(T)]

    def series_with(v):
        return make_series(grid, pts, {"x": v if dynamic else Raster(grid, v)})

    s1, s2 = series_with(values), series_with(values / 2.0)
    fit = fit_poisson_intensity(s1, ["x"])

    def fresh(series, t):
        return FittedPropensity(fit.model, fit.report, fit.options).intensity_integral(series, t)

    want = {(s, t): fresh(s, t) for s in (s1, s2) for t in (1, 3)}
    assert want[s1, 1] != want[s2, 1]
    counts = {"evaluate": 0, "is_static": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(propensity, "_intensity",
                        counted("evaluate", propensity._intensity))
    monkeypatch.setattr(PatternSeries, "is_static",
                        counted("is_static", PatternSeries.is_static))
    for series in (s1, s2, s1):
        for t in range(1, T + 1):
            fit.log_density(series, t)
        assert [fit.intensity_integral(series, t) for t in (1, 3)] == \
            [want[series, 1], want[series, 3]]
    assert counts == {"evaluate": 3, "is_static": 3}


def test_nodata_cells_masked():
    grid = build_grid(SpatialWindow(bounds=(0, 0, 1, 1)), 4, 4)
    rng = np.random.default_rng(2)
    vals = rng.uniform(size=(4, 4))
    vals[0, 0] = np.nan
    cov = Raster(grid, vals)
    series = make_series(grid, [np.array([[0.6, 0.6]]) for _ in range(30)], {"x": cov})
    fit = fit_poisson_intensity(series, ["x"])
    lam = predict_intensity(fit, {"x": cov})
    assert lam.values[0, 0] == 0.0  # NODATA cell excluded from prediction
    assert np.all(lam.values[np.isfinite(vals)] > 0.0)
    # an event on the NODATA cell is an overlap violation, with the same
    # message from the fitted density as from log_pattern_density
    bad = PointPattern(time=1, points=np.array([[0.1, 0.1]]), window=grid.window)
    with pytest.raises(OverlapViolationError) as want:
        log_pattern_density(lam, bad)
    other = make_series(grid, [np.array([[0.6, 0.6], [0.1, 0.1]])], {"x": cov})
    with pytest.raises(OverlapViolationError) as got:
        fit.log_density(other, 1)
    assert str(got.value) == str(want.value).replace("event 0", "event 1")


def test_log_density_hand_value():
    # hand evaluation: uniform intensity 2 on the unit square, 3 points
    grid = build_grid(SpatialWindow(bounds=(0, 0, 1, 1)), 8, 8)
    lam = Raster(grid, np.full((8, 8), 2.0))
    pts = PointPattern(time=1, points=np.array([[0.2, 0.2], [0.5, 0.5], [0.9, 0.1]]),
                       window=grid.window)
    assert log_pattern_density(lam, pts) == pytest.approx(3 * math.log(2.0) - 2.0,
                                                          rel=1e-12)
    empty = PointPattern(time=1, points=np.zeros((0, 2)), window=grid.window)
    assert log_pattern_density(lam, empty) == pytest.approx(-2.0, rel=1e-12)


def test_density_normalizes_on_two_cell_window():
    # brute-force oracle: summing exp(log density) times the reference
    # measure over all patterns with <= 10 points per cell gives 1
    window = SpatialWindow(bounds=(0.0, 0.0, 1.0, 1.0))
    grid = build_grid(window, 2, 1)
    lam = Raster(grid, np.array([[0.7, 1.3]]))
    area = grid.cell_area  # 0.5 each
    centers = grid.cell_centers()
    total = 0.0
    for n1, n2 in itertools.product(range(11), repeat=2):
        pts = np.vstack([np.tile(centers[0], (n1, 1)), np.tile(centers[1], (n2, 1))])
        pat = PointPattern(time=1, points=pts.reshape(-1, 2), window=window)
        logdens = log_pattern_density(lam, pat)
        ref = (area ** n1 / math.factorial(n1)) * (area ** n2 / math.factorial(n2))
        total += math.exp(logdens) * ref
    assert abs(total - 1.0) <= 1e-6


def test_density_ratio_independent_of_reference():
    grid = build_grid(SpatialWindow(bounds=(0, 0, 1, 1)), 4, 4)
    rng = np.random.default_rng(3)
    lam1 = Raster(grid, rng.uniform(0.5, 2.0, size=(4, 4)))
    lam2 = Raster(grid, rng.uniform(0.5, 2.0, size=(4, 4)))
    pat = PointPattern(time=1, points=rng.uniform(0, 1, size=(4, 2)),
                       window=grid.window)
    diff = log_pattern_density(lam1, pat) - log_pattern_density(lam2, pat)
    row, col = grid.cell_index(pat.points)
    direct = (float(np.sum(np.log(lam1.values[row, col] / lam2.values[row, col])))
              - (integrate_raster(lam1) - integrate_raster(lam2)))
    assert diff == pytest.approx(direct, rel=1e-12, abs=1e-12)


def test_fit_diagnostics_homogeneous():
    # simulation: a correct model on homogeneous data has residual mean within
    # three MC standard errors of zero
    window = SpatialWindow(bounds=(0.0, 0.0, 2.0, 2.0))
    grid = build_grid(window, 6, 6)
    rng = np.random.default_rng(11)
    T = 400
    pts = [rng.uniform(0, 2, size=(rng.poisson(2.0), 2)) for _ in range(T)]
    series = make_series(grid, pts)
    fit = fit_poisson_intensity(series, [])
    diag = fit_diagnostics(fit, series, split=0.8)
    assert diag.train_periods == int(0.8 * T)
    se = np.std(diag.residuals, ddof=1) / math.sqrt(T)
    assert abs(np.mean(diag.residuals)) < 3 * se
    assert not diag.trend_flagged


def test_fit_diagnostics_flags_trend():
    # simulation with a linear trend: a constant-only model must flag the
    # out-of-sample residual trend
    window = SpatialWindow(bounds=(0.0, 0.0, 2.0, 2.0))
    grid = build_grid(window, 6, 6)
    rng = np.random.default_rng(12)
    T = 1000
    pts = [rng.uniform(0, 2, size=(rng.poisson(1.0 + 5.0 * t / T), 2))
           for t in range(T)]
    series = make_series(grid, pts)
    fit = fit_poisson_intensity(series, [])
    diag = fit_diagnostics(fit, series, split=0.5)
    assert diag.trend_flagged

    with pytest.raises(ValueError):
        fit_diagnostics(fit, series, split=1.5)


def period_indicator(grid, values):
    """A per-period value as a dynamic covariate constant in space."""
    values = np.asarray(values, dtype=float)
    return np.broadcast_to(values[:, None, None], (values.size, grid.ny, grid.nx))


def test_time_spline_and_indicator_terms():
    window = SpatialWindow(bounds=(0.0, 0.0, 2.0, 2.0))
    grid = build_grid(window, 6, 6)
    rng = np.random.default_rng(13)
    T = 200
    surge = np.zeros(T)
    surge[100:150] = 1.0
    pts = [rng.uniform(0, 2, size=(rng.poisson(2.0 * (2.0 if surge[t] else 1.0)), 2))
           for t in range(T)]
    series = make_series(grid, pts, {"surge": period_indicator(grid, surge)})
    fit = fit_poisson_intensity(series, ["surge"])
    assert fit.model.coefficients["surge"] == pytest.approx(math.log(2.0), abs=0.25)
    assert not fit.report.collapsed

    options2 = PropensityOptions(time_spline_df=3)
    fit2 = fit_poisson_intensity(series, [], options2)
    assert fit2.model.time_spline is not None
    assert fit2.report.converged


def test_period_indicator_is_held_without_a_copy_and_predicts_out_of_sample():
    window = SpatialWindow(bounds=(0.0, 0.0, 2.0, 2.0))
    grid = build_grid(window, 6, 6)
    rng = np.random.default_rng(14)
    T = 120
    surge = (np.arange(T) % 10 < 3).astype(float)
    pts = [rng.uniform(0, 2, size=(rng.poisson(1.5 * (3.0 if surge[t] else 1.0)), 2))
           for t in range(T)]
    series = make_series(grid, pts, {"surge": period_indicator(grid, surge)})
    assert np.shares_memory(series.covariates["surge"], surge)
    assert np.shares_memory(prefix_series(series, 90).covariates["surge"], surge)

    fit = fit_poisson_intensity(series, ["surge"], PropensityOptions(time_spline_df=2))
    diag = fit_diagnostics(fit, series, split=0.75)
    # Out of sample, the training-window fit predicts each held-out period
    # from its own indicator value: surge periods expect about three times
    # the others.
    hold = diag.periods > diag.train_periods
    on = diag.outsample_expected[hold & (surge == 1.0)]
    off = diag.outsample_expected[hold & (surge == 0.0)]
    assert np.all(np.isfinite(diag.outsample_expected))
    assert on.mean() / off.mean() == pytest.approx(3.0, rel=0.35)
    refit = fit_poisson_intensity(prefix_series(series, 90), ["surge"],
                                  PropensityOptions(time_spline_df=2))
    want = [FittedPropensity(refit.model, refit.report, refit.options)
            .intensity_integral(series, t) for t in range(1, T + 1)]
    assert diag.outsample_expected.tolist() == want


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


@pytest.mark.parametrize("dynamic", [False, True])
def test_log_density_matches_log_pattern_density_bit_for_bit(dynamic):
    # The fitted density reads a per-series log table; log_pattern_density on
    # the same raster and integral is the reference, on every period,
    # including empty ones and ones of 8 or more events (pairwise summation).
    dgp = default_dgp(treatment_rate=4.0)
    series = simulate_series(dgp, 80, 22)
    names = sorted(dgp.covariates)
    if dynamic:
        maps = history_maps(series, lags=(1, 7), coef=-6.0)
        series = PatternSeries(series.grid, series.treatments, series.outcomes,
                               {**series.covariates, **maps})
        names += sorted(maps)
    fit = fit_poisson_intensity(series, names)
    counts = [len(series.treatment(t).base) for t in range(1, series.T + 1)]
    assert min(counts) == 0 and max(counts) >= 8
    for t in range(1, series.T + 1):
        want = log_pattern_density(fit.intensity(series, t), series.treatment(t).base,
                                   integral=fit.intensity_integral(series, t))
        assert _bits(fit.log_density(series, t)) == _bits(want)


@pytest.mark.parametrize("bad", [0.0, np.nan, np.inf])
def test_log_table_hands_non_finite_sums_to_log_pattern_density(bad):
    # zero and NaN intensity at an event raise log_pattern_density's overlap
    # error; an overflowed (+inf) intensity returns its non-finite value
    grid = build_grid(SpatialWindow(bounds=(0, 0, 1, 1)), 4, 4)
    vals = np.full((4, 4), 2.0)
    vals[0, 0] = bad
    lam = Raster(grid, vals)
    with np.errstate(divide="ignore"):
        table = np.log(lam.values.ravel())
    pat = PointPattern(time=3, points=np.array([[0.6, 0.6], [0.1, 0.1]]),
                       window=grid.window)
    if bad == np.inf:
        want = log_pattern_density(lam, pat, integral=2.0)
        assert want == np.inf
        assert _bits(propensity._log_density(table, lam, pat, 2.0)) == _bits(want)
        return
    with pytest.raises(OverlapViolationError) as want:
        log_pattern_density(lam, pat, integral=2.0)
    with pytest.raises(OverlapViolationError) as got:
        propensity._log_density(table, lam, pat, 2.0)
    assert str(got.value) == str(want.value)
    assert "event 1 at (0.1, 0.1) in period 3" in str(got.value)


def test_period_outside_the_series_is_rejected():
    # t outside 1..T is a ValueError naming t and T: no wrap-around through
    # negative indexing for t <= 0, no bare IndexError for t > T
    grid = build_grid(SpatialWindow(bounds=(0, 0, 1, 1)), 4, 4)
    series = make_series(grid, [np.array([[0.5, 0.5]])] * 5)
    fit = fit_poisson_intensity(series, [])
    for method in (fit.log_density, fit.intensity, fit.intensity_integral):
        for t in (0, -1, 6):
            with pytest.raises(ValueError, match=r"t=%d is outside 1\.\.T=5" % t):
                method(series, t)
        method(series, 5)

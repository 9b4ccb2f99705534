"""Weights, IPW/Hajek estimators, variance devices, and distance bands."""

import math

import numpy as np
import pytest
from reference import _period_log_ratio, compute_weights

from geocausal.effects import (
    SmoothedOutcomes,
    WeightSeries,
    _estimate_from_weights,
    compute_weight_series,
    effect_by_distance_band,
    effect_surface,
    estimate_ate,
    hajek_variance,
    per_period_contrasts,
    variance_bound,
    window_weights,
)
from geocausal.errors import OverlapViolationError
from geocausal.geometry import (
    Raster,
    Region,
    SpatialWindow,
    build_grid,
    integrate_raster,
    normalize_raster,
    snap_for_exact_sums,
)
from geocausal.interventions import InterventionPair, TreatmentIntervention, intensified
from geocausal.patterns import (
    MarkedPointPattern,
    PatternSeries,
    PointPattern,
    SmoothingSpec,
    smoothed_cell_values,
)
from geocausal.propensity import fit_poisson_intensity
from geocausal.simulate import simulate_series
from geocausal.validation import default_dgp, interior_region


@pytest.fixture(scope="module")
def fitted_world():
    dgp = default_dgp(treatment_rate=0.3)
    series = simulate_series(dgp, 400, 77)
    fit = fit_poisson_intensity(series, dgp.covariates.keys())
    baseline = normalize_raster(dgp.treatment_intensity())
    return dgp, series, fit, baseline


def test_weight_identity_intervention_equals_propensity(fitted_world):
    dgp, series, fit, _ = fitted_world
    lam = fit.intensity(series, 1)
    iv = TreatmentIntervention(intensity=lam, expected_count=integrate_raster(lam))
    ws = compute_weight_series(series, fit, iv, 3)
    assert np.max(np.abs(ws.weights - 1.0)) < 1e-12
    assert compute_weights(series, fit, iv, 3, 10) == pytest.approx(1.0, abs=1e-12)


def test_weight_hand_product():
    # two periods with per-period density ratios exactly 2 and 0.5
    window = SpatialWindow(bounds=(0.0, 0.0, 1.0, 1.0))
    grid = build_grid(window, 2, 1)
    c0, c1 = grid.cell_centers()

    def one_point_series(points):
        treatments, outcomes = [], []
        for t, pt in enumerate(points, start=1):
            treatments.append(MarkedPointPattern(
                base=PointPattern(time=t, points=pt.reshape(1, 2), window=window),
                marks=("none",)))
            outcomes.append(PointPattern(time=t, points=np.zeros((0, 2)),
                                         window=window))
        return PatternSeries(grid, treatments, outcomes)

    series = one_point_series([c0, c1])

    class FixedPropensity:
        def __init__(self, raster):
            self.raster = raster

        def log_density(self, series, t):
            from geocausal.propensity import log_pattern_density

            return log_pattern_density(self.raster, series.treatment(t).base)

    # propensity: intensity (1, 3); intervention: (2, 1.5): same total mass 2,
    # cell ratios are 2 at cell 0 and 0.5 at cell 1
    prop = FixedPropensity(Raster(grid, np.array([[1.0, 3.0]])))
    iv = TreatmentIntervention(intensity=Raster(grid, np.array([[2.0, 1.5]])),
                               expected_count=1.75)
    w = compute_weights(series, prop, iv, 2, 2)
    # log w = [log 2 - (1.75 - 2)] + [log 0.5 - (1.75 - 2)] = 0.5
    assert w == pytest.approx(math.exp(0.5), rel=1e-12)


def test_weight_log_vs_direct_product(fitted_world):
    dgp, series, fit, baseline = fitted_world
    iv = intensified(baseline, 0.2)
    L = 3
    ws = compute_weight_series(series, fit, iv, L)
    for t in (3, 50, 200):
        direct = 1.0
        for off, tt in enumerate(range(t - L + 1, t + 1)):
            direct *= math.exp(_period_log_ratio(series, fit, iv, tt, off))
        assert ws.weights[t - L] == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize("L", [1, 2, 3, 9])
def test_weight_series_raster_list_matches_scalar(fitted_world, L):
    dgp, series, fit, baseline = fitted_world
    shape = normalize_raster(fit.intensity(series, 1))
    iv = TreatmentIntervention(
        intensity=[Raster(series.grid, 0.3 * baseline.values),
                   Raster(series.grid, 0.3 * shape.values)],
        expected_count=0.3)
    ws = compute_weight_series(series, fit, iv, L)
    assert len(ws) == series.T - L + 1
    for t in range(L, series.T + 1):
        assert ws.weights[t - L] == pytest.approx(
            compute_weights(series, fit, iv, L, t), rel=1e-12)


def test_zero_intervention_at_event_names_period(fitted_world):
    dgp, series, fit, baseline = fitted_world
    grid = series.grid
    t0 = next(t for t in range(1, series.T + 1) if len(series.treatment(t)))
    row, col = grid.cell_index(series.treatment(t0).base.points[:1])
    values = baseline.values.copy()
    values[row[0], col[0]] = 0.0
    iv = intensified(normalize_raster(Raster(grid, values)), 0.3)
    with pytest.raises(OverlapViolationError) as exc:
        compute_weight_series(series, fit, iv, 2)
    assert str(exc.value).startswith("period %d: " % t0)


def test_expected_counts_modes(fitted_world):
    dgp, series, fit, baseline = fitted_world
    smoothed = SmoothedOutcomes(series, SmoothingSpec(bandwidth=0.4))
    region = Region.whole_window(series.grid)
    L = 2
    n = series.T - L + 1
    ones = WeightSeries(L=L, log_weights=np.zeros(n), weights=np.ones(n))
    doubled = WeightSeries(L=L, log_weights=np.full(n, math.log(2.0)),
                           weights=np.full(n, 2.0))
    counts = _estimate_from_weights(smoothed, region, ones, doubled, L).expected_counts
    assert counts["ipw_A"] == pytest.approx(counts["hajek_A"], rel=1e-12)
    assert counts["ipw_B"] == pytest.approx(2 * counts["ipw_A"], rel=1e-12)
    assert counts["hajek_B"] == pytest.approx(counts["hajek_A"], rel=1e-12)

    zero = WeightSeries(L=L, log_weights=np.zeros(n), weights=np.zeros(n))
    with pytest.raises(ValueError, match="weights sum to zero"):
        _estimate_from_weights(smoothed, region, zero, ones, L)
    with pytest.raises(ValueError, match="weights sum to zero"):
        _estimate_from_weights(smoothed, region, ones, zero, L)


def test_unit_weights_recover_mean_count():
    # kernel-mass oracle: with unit weights and interior events the estimate
    # matches the mean outcome count per period to 1e-3 relative
    window = SpatialWindow(bounds=(0.0, 0.0, 10.0, 10.0))
    grid = build_grid(window, 64, 64)
    rng = np.random.default_rng(21)
    treatments, outcomes = [], []
    T = 40
    for t in range(1, T + 1):
        pts = rng.uniform(3.0, 7.0, size=(rng.poisson(4.0), 2))
        treatments.append(MarkedPointPattern(
            base=PointPattern(time=t, points=np.zeros((0, 2)), window=window),
            marks=()))
        outcomes.append(PointPattern(time=t, points=pts, window=window))
    series = PatternSeries(grid, treatments, outcomes)
    smoothed = SmoothedOutcomes(series, SmoothingSpec(bandwidth=0.35))
    region = Region.whole_window(grid)
    ones = WeightSeries(L=1, log_weights=np.zeros(T), weights=np.ones(T))
    est = _estimate_from_weights(smoothed, region, ones, ones, 1)
    counts = np.mean([len(p) for p in outcomes])
    assert est.expected_counts["ipw_A"] == pytest.approx(counts, rel=1e-3)


def test_estimate_ate_trivials(fitted_world):
    dgp, series, fit, baseline = fitted_world
    spec = SmoothingSpec(bandwidth=0.4)
    region = interior_region(series.grid)
    ivA = InterventionPair(intensified(baseline, 0.5), L=3)
    ivB = InterventionPair(intensified(baseline, 0.2), L=3)

    same = estimate_ate(series, fit, ivA, ivA, spec, region)
    assert same.ipw == 0.0 and same.hajek == 0.0
    assert np.all(same.per_t == 0.0)

    ab = estimate_ate(series, fit, ivA, ivB, spec, region)
    ba = estimate_ate(series, fit, ivB, ivA, spec, region)
    assert ab.ipw == -ba.ipw and ab.hajek == -ba.hajek
    assert np.array_equal(ab.per_t, -ba.per_t)
    assert ab.ci95[0] <= ab.ci90[0] and ab.ci90[1] <= ab.ci95[1]
    assert ab.sigma2_star >= 0.0 and ab.hajek_variance >= 0.0
    assert 0 < ab.ess["A"] <= len(ab.per_t)


def test_variance_bound_trivials():
    assert variance_bound(np.full(10, 3.0)) == pytest.approx(9.0, rel=1e-12)
    assert variance_bound(np.zeros(5)) == 0.0
    with pytest.raises(ValueError):
        variance_bound(np.array([1.0]))


def test_hajek_variance_trivials():
    n = 12
    y = np.full(n, 2.5)
    w = np.ones(n)
    a = w * y
    assert hajek_variance(a, a, w, w, 2.5, 2.5) < 1e-12
    # scale equivariance: doubling outcomes quadruples the variance
    rng = np.random.default_rng(0)
    y = rng.uniform(1, 3, size=n)
    w1, w2 = rng.uniform(0.5, 2, size=n), rng.uniform(0.5, 2, size=n)
    nh1, nh2 = float(np.sum(w1 * y) / w1.sum()), float(np.sum(w2 * y) / w2.sum())
    v1 = hajek_variance(w1 * y, w2 * y, w1, w2, nh1, nh2)
    v4 = hajek_variance(w1 * 2 * y, w2 * 2 * y, w1, w2, 2 * nh1, 2 * nh2)
    assert v4 == pytest.approx(4.0 * v1, rel=1e-12)


def test_hajek_scale_invariance(fitted_world):
    dgp, series, fit, baseline = fitted_world
    smoothed = SmoothedOutcomes(series, SmoothingSpec(bandwidth=0.4))
    region = Region.whole_window(series.grid)
    L = 3
    ws = compute_weight_series(series, fit, intensified(baseline, 0.5), L)
    scaled = WeightSeries(L=L, log_weights=ws.log_weights + math.log(7.0),
                          weights=ws.weights * 7.0)
    counts = _estimate_from_weights(smoothed, region, ws, scaled, L).expected_counts
    assert counts["hajek_B"] == pytest.approx(counts["hajek_A"], rel=1e-12)


def test_mean_weight_law(fitted_world):
    # E[w | history] = 1 under a correctly specified fit
    dgp, series, fit, baseline = fitted_world
    iv = intensified(baseline, 0.35)
    ws = compute_weight_series(series, fit, iv, 2)
    se = np.std(ws.weights, ddof=1) / math.sqrt(len(ws))
    assert abs(np.mean(ws.weights) - 1.0) < 3 * se


def test_region_additivity_per_period(fitted_world):
    dgp, series, fit, baseline = fitted_world
    spec = SmoothingSpec(bandwidth=0.4)
    L = 3
    wA = compute_weight_series(series, fit, intensified(baseline, 0.5), L)
    wB = compute_weight_series(series, fit, intensified(baseline, 0.2), L)
    smoothed = SmoothedOutcomes(series, spec)
    grid = series.grid
    left = Region(polygon=np.array([[0, 0], [5, 0], [5, 10], [0, 10]], dtype=float),
                  label="west")
    right = Region(polygon=np.array([[5, 0], [10, 0], [10, 10], [5, 10]], dtype=float),
                   label="east")
    whole = Region.whole_window(grid)
    tau_l = per_period_contrasts(smoothed, left, wA, wB)
    tau_r = per_period_contrasts(smoothed, right, wA, wB)
    tau = per_period_contrasts(smoothed, whole, wA, wB)
    assert np.array_equal(tau_l + tau_r, tau)  # bit-exact split


def test_truncation_reports_both(fitted_world):
    dgp, series, fit, baseline = fitted_world
    spec = SmoothingSpec(bandwidth=0.4)
    region = Region.whole_window(series.grid)
    ivA = InterventionPair(intensified(baseline, 0.5), L=2)
    ivB = InterventionPair(intensified(baseline, 0.2), L=2)
    est = estimate_ate(series, fit, ivA, ivB, spec, region, truncation=0.95)
    assert est.truncated_variant is not None
    assert est.truncated_variant.truncated_variant is None
    payload = est.to_dict()
    assert "truncated" in payload


def test_truncation_keeps_an_underflowed_weight():
    # exp(-800) underflows to 0; truncation must not take log(0)
    lw = np.array([0.0, -800.0, 1.0, 2.0])
    w = WeightSeries(L=1, log_weights=lw, weights=np.exp(lw))
    cap = float(np.quantile(w.weights, 0.9))
    t = w.truncated(0.9)
    assert t.weights.tobytes() == np.minimum(w.weights, cap).tobytes()
    assert np.array_equal(t.log_weights, np.minimum(lw, math.log(cap)))
    assert t.truncation_quantile == 0.9
    lw0 = np.array([-800.0, -800.0, -800.0, 0.0])
    with pytest.raises(ValueError, match="quantile 0.5"):
        WeightSeries(L=1, log_weights=lw0, weights=np.exp(lw0)).truncated(0.5)


def test_an_overflowed_weight_is_rejected_with_its_period():
    # exp(800) overflows to inf while the log-weight stays finite
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="weight at t=3"):
        window_weights(np.array([[1.0, 2.0, 800.0, 1.0]]), 1)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="weight at t=2"):
        window_weights(np.array([[800.0, 1.0, 2.0]]), 2)


def test_effect_by_distance_band():
    grid = build_grid(SpatialWindow(bounds=(0.0, 0.0, 10.0, 10.0)), 20, 20)
    c = grid.cell_centers()
    surface = Raster(grid, np.exp(-np.abs(c[:, 1] - 5.0)).reshape(20, 20))
    road = [np.array([[0.0, 5.0], [10.0, 5.0]])]
    shares = effect_by_distance_band(surface, road, [1.0, 3.0, 20.0])
    assert shares[20.0] == pytest.approx(1.0, rel=1e-12)
    assert 0 < shares[1.0] < shares[3.0] <= 1.0

    flat = Raster(grid, np.zeros((20, 20)))
    with pytest.raises(ValueError):
        effect_by_distance_band(flat, road, [1.0])


def test_effect_surface_consistency(fitted_world):
    # the integral of the mean effect surface equals the mean per-period
    # contrast over the window, up to quadrature bookkeeping
    dgp, series, fit, baseline = fitted_world
    spec = SmoothingSpec(bandwidth=0.4)
    L = 3
    wA = compute_weight_series(series, fit, intensified(baseline, 0.5), L)
    wB = compute_weight_series(series, fit, intensified(baseline, 0.2), L)
    smoothed = SmoothedOutcomes(series, spec)
    surf = effect_surface(series, spec, wA, wB, smoothed=smoothed)
    total = integrate_raster(surf)
    per_t = per_period_contrasts(smoothed, Region.whole_window(series.grid), wA, wB)
    assert total == pytest.approx(float(np.mean(per_t)), rel=1e-9, abs=1e-12)


def _west_region():
    return Region(polygon=np.array([[0, 0], [5, 0], [5, 10], [0, 10]], dtype=float),
                  label="west")


def _scattered_cells(grid):
    mask = np.zeros((grid.ny, grid.nx), dtype=bool)
    mask[::3, 1::2] = True
    return Region(cell_mask=mask, label="scattered")


@pytest.mark.parametrize("L", [1, 3])
def test_row_operations_match_per_period_loop(fitted_world, L):
    # reference: one period at a time, straight from the smoothing function
    dgp, series, fit, baseline = fitted_world
    spec = SmoothingSpec(bandwidth=0.4)
    grid = series.grid
    wA = compute_weight_series(series, fit, intensified(baseline, 0.5), L)
    wB = compute_weight_series(series, fit, intensified(baseline, 0.2), L)
    smoothed = SmoothedOutcomes(series, spec)
    acc = np.zeros(grid.n_cells)
    for region in (Region.whole_window(grid), _west_region(), _scattered_cells(grid)):
        mask = region.resolve_mask(grid).ravel()
        want = []
        for i, t in enumerate(range(L, series.T + 1)):
            v = smoothed_cell_values(series.outcome(t), spec, grid)
            e = snap_for_exact_sums(wA.weights[i] * v - wB.weights[i] * v,
                                    n_terms=grid.n_cells)
            want.append(float(np.sum(e[mask])))
        got = per_period_contrasts(smoothed, region, wA, wB)
        assert got.tobytes() == np.array(want).tobytes()
    for i, t in enumerate(range(L, series.T + 1)):
        v = smoothed_cell_values(series.outcome(t), spec, grid)
        acc += wA.weights[i] * v - wB.weights[i] * v
    want_mean = (acc / (series.T - L + 1) / grid.cell_area).reshape(grid.ny, grid.nx)
    surf = effect_surface(series, spec, wA, wB, smoothed=smoothed)
    assert surf.values.tobytes() == want_mean.tobytes()


def test_region_integrals_are_masked_row_sums(fitted_world):
    dgp, series, fit, baseline = fitted_world
    spec = SmoothingSpec(bandwidth=0.4)
    grid = series.grid
    smoothed = SmoothedOutcomes(series, spec)
    rows = smoothed.rows(1)
    assert rows.shape == (series.T, grid.n_cells)
    assert not rows.flags.writeable
    for region in (Region.whole_window(grid), _west_region(), _scattered_cells(grid)):
        mask = region.resolve_mask(grid).ravel()
        for L in (1, 4):
            got = smoothed.region_integrals(region, L=L)
            assert got.tobytes() == rows[L - 1:, mask].sum(axis=1).tobytes()
            want = [float(np.sum(smoothed_cell_values(series.outcome(t), spec, grid)[mask]))
                    for t in range(L, series.T + 1)]
            assert got.tobytes() == np.array(want).tobytes()


def test_masked_row_sums_match_the_ordered_sum_on_every_kind_of_row():
    # The matrix-vector product gives the ordered masked sum's bits, signed
    # zeros included, on snapped rows and on the rows snap_for_exact_sums
    # leaves alone: a non-finite value outside the mask, an underflowing
    # quantum, all zeros.
    from geocausal.effects import _masked_row_sums

    n = 64
    rng = np.random.default_rng(12)
    mask = np.arange(n) % 3 == 1
    special = rng.normal(size=(8, n))
    special[0] *= 1e-300  # quantum 2**-1042: subnormal, still snapped
    special[1] *= 1e-310  # quantum underflows to 0: left alone
    special[2, 0] = np.inf  # non-finite outside the mask: left alone
    special[3, 2] = np.nan
    special[4] = -0.0
    special[5] = 0.0
    special[6, mask] = -0.0  # nonzero row, masked cells all -0.0
    special[7] *= 1e250
    scales = 10.0 ** rng.uniform(-300, 300, size=(200, 1))
    rows = np.vstack([special, rng.normal(size=(200, n)) * scales])
    snapped = snap_for_exact_sums(rows, n_terms=n)
    assert snapped[0].tobytes() != rows[0].tobytes()
    assert snapped[1:6].tobytes() == rows[1:6].tobytes()
    for m in (mask, ~mask, np.ones(n, dtype=bool)):
        got = _masked_row_sums(snapped, m)
        assert got.tobytes() == snapped[:, m].sum(axis=1).tobytes()

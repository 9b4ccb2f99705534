"""Point patterns, kernel smoothing, and history-map contracts."""

import math

import numpy as np
import pytest

from geocausal.geometry import Raster, SpatialWindow, build_grid, snap_for_exact_sums
from geocausal.patterns import (
    MarkedPointPattern,
    PatternSeries,
    PointPattern,
    SmoothingSpec,
    _kernel_quanta,
    boundary_event_fraction,
    history_maps,
    kernel_smooth,
    smoothed_cell_values,
)


def make_window(size=10.0):
    return SpatialWindow(bounds=(0.0, 0.0, size, size))


def empty_marked(t, window):
    return MarkedPointPattern(
        base=PointPattern(time=t, points=np.zeros((0, 2)), window=window), marks=())


def series_from_outcomes(grid, outcome_points):
    window = grid.window
    treatments, outcomes = [], []
    for t, pts in enumerate(outcome_points, start=1):
        treatments.append(empty_marked(t, window))
        outcomes.append(PointPattern(time=t, points=np.asarray(pts).reshape(-1, 2),
                                     window=window))
    return PatternSeries(grid, treatments, outcomes)


def test_point_outside_window_rejected():
    window = make_window(1.0)
    with pytest.raises(ValueError):
        PointPattern(time=1, points=np.array([[2.0, 0.5]]), window=window)


def test_outside_window_error_names_the_first_bad_point():
    window = make_window(1.0)
    pts = np.array([[0.5, 0.5], [0.25, 1.5], [2.0, 0.5]])
    with pytest.raises(ValueError, match=r"point 1 at \(0.25, 1.5\) .*\(t=3\)"):
        PointPattern(time=3, points=pts, window=window)
    # inside the bounds but outside a masking polygon
    triangle = SpatialWindow(bounds=(0.0, 0.0, 1.0, 1.0),
                             polygon=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match=r"point 2 at \(0.9, 0.9\)"):
        PointPattern(time=1, points=np.array([[0.1, 0.1], [0.2, 0.3], [0.9, 0.9]]),
                     window=triangle)


@pytest.mark.parametrize("bad", [[np.nan, 0.5], [0.5, np.nan], [np.nan, np.nan]])
def test_nan_coordinates_rejected(bad):
    with pytest.raises(ValueError, match="point 1 at"):
        PointPattern(time=1, points=np.array([[0.5, 0.5], bad]), window=make_window(1.0))


def test_cell_indices_are_flat_read_only_and_per_grid():
    window = make_window()
    pts = np.random.default_rng(3).uniform(0.0, 10.0, size=(50, 2))
    pts[:3] = [[0.0, 0.0], [10.0, 10.0], [10.0, 0.0]]  # edges clip inward
    pat = PointPattern(time=1, points=pts, window=window)
    grid = build_grid(window, 7, 5)
    row, col = grid.cell_index(pts)
    flat = pat.cell_indices(grid)
    assert np.array_equal(flat, row * grid.nx + col)
    assert not flat.flags.writeable
    with pytest.raises(ValueError):
        flat[0] = 0
    assert pat.cell_indices(grid) is flat
    assert pat.cell_indices(build_grid(window, 7, 5)) is flat  # same geometry
    other = build_grid(window, 4, 9)
    row, col = other.cell_index(pts)
    assert np.array_equal(pat.cell_indices(other), row * other.nx + col)
    assert np.array_equal(pat.cell_indices(grid), flat)
    empty = PointPattern(time=1, points=np.zeros((0, 2)), window=window)
    assert empty.cell_indices(grid).shape == (0,)


def test_duplicates_are_not_rejected():
    window = make_window()
    pat = PointPattern(time=1, points=np.array([[1.0, 1.0], [1.0, 1.0]]), window=window)
    assert len(pat) == 2


def test_marks_length_must_match():
    window = make_window()
    base = PointPattern(time=1, points=np.array([[1.0, 1.0]]), window=window)
    with pytest.raises(ValueError):
        MarkedPointPattern(base=base, marks=("a", "b"))


def test_series_requires_contiguous_periods():
    window = make_window()
    grid = build_grid(window, 4, 4)
    t1 = empty_marked(1, window)
    y_wrong = PointPattern(time=5, points=np.zeros((0, 2)), window=window)
    with pytest.raises(ValueError):
        PatternSeries(grid, [t1], [y_wrong])


def test_series_requires_marked_treatments():
    window = make_window()
    grid = build_grid(window, 4, 4)
    treatments = [empty_marked(1, window), empty_marked(2, window).base,
                  empty_marked(3, window)]
    outcomes = [PointPattern(time=t, points=np.zeros((0, 2)), window=window)
                for t in (1, 2, 3)]
    with pytest.raises(ValueError, match="treatment at index 1 is a PointPattern"):
        PatternSeries(grid, treatments, outcomes)


def test_series_rejects_a_wrongly_shaped_dynamic_covariate():
    grid = build_grid(make_window(), 4, 4)
    series = series_from_outcomes(grid, [np.zeros((0, 2))] * 3)
    good = np.zeros((3, 4, 4))
    covs = PatternSeries(grid, series.treatments, series.outcomes,
                         {"dyn": good}).covariates
    assert covs["dyn"] is not good and not covs["dyn"].flags.writeable
    for bad in (np.zeros((2, 4, 4)), np.zeros((3, 16)), [Raster(grid, good[0])] * 3):
        with pytest.raises(ValueError, match="dynamic covariate 'dyn'"):
            PatternSeries(grid, series.treatments, series.outcomes,
                          {"static": Raster(grid, good[0]), "dyn": bad})


def test_kernel_smooth_empty_is_zero():
    grid = build_grid(make_window(), 8, 8)
    pat = PointPattern(time=1, points=np.zeros((0, 2)), window=grid.window)
    out = kernel_smooth(pat, SmoothingSpec(bandwidth=0.5), grid)
    assert np.all(out.values == 0.0)


@pytest.mark.parametrize("kernel", ["gaussian", "epanechnikov"])
def test_kernel_mass_interior_point(kernel):
    # numeric quadrature oracle: a unit-mass kernel integrates to ~1 over a
    # window at least 10 bandwidths wide
    grid = build_grid(make_window(10.0), 128, 128)
    pat = PointPattern(time=1, points=np.array([[5.0, 5.0]]), window=grid.window)
    spec = SmoothingSpec(bandwidth=0.8, kernel=kernel)
    surface = kernel_smooth(pat, spec, grid)
    mass = float(np.sum(surface.values) * grid.cell_area)
    assert abs(mass - 1.0) <= 1e-3


def test_kernel_linearity_exact():
    grid = build_grid(make_window(), 32, 32)
    window = grid.window
    spec = SmoothingSpec(bandwidth=0.7)
    p1 = PointPattern(time=1, points=np.array([[2.0, 3.0], [4.5, 6.0]]), window=window)
    p2 = PointPattern(time=1, points=np.array([[7.0, 7.5]]), window=window)
    union = PointPattern(time=1, points=np.vstack([p1.points, p2.points]), window=window)
    lhs = kernel_smooth(union, spec, grid).values
    rhs = kernel_smooth(p1, spec, grid).values + kernel_smooth(p2, spec, grid).values
    assert np.array_equal(lhs, rhs)


def test_duplicated_point_doubles_surface_exactly():
    grid = build_grid(make_window(), 16, 16)
    window = grid.window
    spec = SmoothingSpec(bandwidth=0.5)
    single = PointPattern(time=1, points=np.array([[5.0, 5.0]]), window=window)
    double = PointPattern(time=1, points=np.array([[5.0, 5.0], [5.0, 5.0]]),
                          window=window)
    assert np.array_equal(kernel_smooth(double, spec, grid).values,
                          2.0 * kernel_smooth(single, spec, grid).values)


def test_smoothed_cell_values_region_additivity():
    grid = build_grid(make_window(), 16, 16)
    pat = PointPattern(time=1, points=np.array([[3.0, 3.0], [6.0, 7.0]]),
                       window=grid.window)
    v = smoothed_cell_values(pat, SmoothingSpec(bandwidth=0.6), grid)
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 9, size=v.size)
    parts = [v[labels == k].sum() for k in range(9)]
    assert sum(parts) == v.sum()


def _reference_contributions(pts, spec, grid):
    """Per-point kernel surfaces by the direct formula: kernel values, then
    division by the quantum, rounding and scaling back."""
    b = spec.bandwidth
    b2 = b * b
    if spec.kernel == "gaussian":
        gx = np.exp(-0.5 * ((grid.x_centers()[None, :] - pts[:, 0:1]) / b) ** 2)
        gy = np.exp(-0.5 * ((grid.y_centers()[None, :] - pts[:, 1:2]) / b) ** 2)
        vals = (gy[:, :, None] * gx[:, None, :]).reshape(len(pts), grid.n_cells)
        vals = vals / (2.0 * math.pi * b * b)
        peak = 1.0 / (2.0 * math.pi * b2)
    else:
        diff = grid.cell_centers()[None, :, :] - pts[:, None, :]
        d2 = np.sum(diff * diff, axis=2)
        vals = np.where(d2 < b2, (2.0 / (math.pi * b2)) * (1.0 - d2 / b2), 0.0)
        peak = 2.0 / (math.pi * b2)
    q = math.ldexp(1.0, math.frexp(peak)[1] + 21 - 53)
    return np.round(vals / q) * q


def _same_bits(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kernel", ["gaussian", "epanechnikov"])
@pytest.mark.parametrize("bandwidth", [0.05, 0.3, 0.67, 1.2, 5.0])
@pytest.mark.parametrize("nx, ny", [(32, 32), (64, 48)])
def test_smoothing_is_bit_identical_to_the_reference_formula(kernel, bandwidth, nx, ny):
    grid = build_grid(SpatialWindow(bounds=(0.0, 0.0, 10.0, 7.5)), nx, ny)
    spec = SmoothingSpec(bandwidth=bandwidth, kernel=kernel)
    rng = np.random.default_rng(nx + int(100 * bandwidth))
    for n in (0, 1, 2, 23):
        pts = np.column_stack([rng.uniform(0.0, 10.0, n), rng.uniform(0.0, 7.5, n)])
        if n == 23:
            pts[:2] = [[0.0, 0.0], [10.0, 7.5]]
        pat = PointPattern(time=1, points=pts, window=grid.window)
        ref = _reference_contributions(pts, spec, grid)
        k, q = _kernel_quanta(pts, spec, grid)
        assert _same_bits(k * q, ref)
        total = np.sum(ref, axis=0)
        assert _same_bits(kernel_smooth(pat, spec, grid).values,
                          total.reshape(grid.ny, grid.nx))
        want = snap_for_exact_sums((total * grid.cell_area)[None, :],
                                   n_terms=grid.n_cells)[0]
        assert _same_bits(smoothed_cell_values(pat, spec, grid), want)


def test_scott_rule_bandwidth():
    grid = build_grid(make_window(), 8, 8)
    rng = np.random.default_rng(42)
    pts = rng.uniform(2, 8, size=(200, 2))
    series = series_from_outcomes(grid, [pts[:100], pts[100:]])
    spec = SmoothingSpec.scott(series)
    pooled = np.vstack([pts[:100], pts[100:]])
    expected = np.mean(np.std(pooled, axis=0, ddof=1)) * 200 ** (-1 / 6)
    assert spec.bandwidth == pytest.approx(expected, rel=1e-12)


def test_history_maps_conventions():
    window = make_window()
    grid = build_grid(window, 8, 8)
    center = grid.cell_centers()[27]
    treatments = [
        MarkedPointPattern(base=PointPattern(time=1, points=center.reshape(1, 2),
                                             window=window), marks=("none",)),
        empty_marked(2, window),
        empty_marked(3, window),
    ]
    outcomes = [PointPattern(time=t, points=np.zeros((0, 2)), window=window)
                for t in (1, 2, 3)]
    series = PatternSeries(grid, treatments, outcomes)

    maps = history_maps(series, lags=(1,), coef=-6.0)
    assert maps["treatment_hist_1"].shape == (3, 8, 8)
    assert not maps["treatment_hist_1"].flags.writeable
    t = 2
    assert maps["treatment_hist_1"][t - 1].ravel()[27] == pytest.approx(1.0)
    assert np.all(maps["outcome_hist_1"][t - 1] == 0.0)  # no prior outcome events
    assert np.all(maps["treatment_hist_1"][0] == 0.0)  # no period before the first

    with pytest.raises(ValueError, match="lags must be positive"):
        history_maps(series, lags=(0, 7))
    with pytest.raises(ValueError, match="coefficient must be negative"):
        history_maps(series, lags=(1,), coef=0.0)


def test_history_maps_lag_monotonicity():
    # brute-force oracle: larger lag unions more events, so min distance can
    # only shrink and the decayed map can only grow
    window = make_window()
    grid = build_grid(window, 12, 12)
    rng = np.random.default_rng(7)
    treatments, outcomes = [], []
    for t in range(1, 9):
        pts = rng.uniform(1, 9, size=(rng.integers(0, 3), 2))
        treatments.append(MarkedPointPattern(
            base=PointPattern(time=t, points=pts, window=window),
            marks=tuple("none" for _ in range(len(pts)))))
        outcomes.append(PointPattern(time=t, points=np.zeros((0, 2)), window=window))
    series = PatternSeries(grid, treatments, outcomes)
    maps = history_maps(series, lags=(1, 7), coef=-6.0)
    t = 8
    short, long = maps["treatment_hist_1"][t - 1], maps["treatment_hist_7"][t - 1]
    assert np.all(long >= short - 1e-15)
    assert np.all(long >= 0.0) and np.all(long <= 1.0)



def _sparse_history_series():
    from geocausal.simulate import simulate_series
    from geocausal.validation import default_dgp

    # seed 3 leaves periods 1-2 and many later ones empty in both streams
    return simulate_series(default_dgp(treatment_rate=0.3), 40, 3)


def test_history_maps_equal_pooled_reference():
    from geocausal.geometry import decay_transform, distance_map

    series = _sparse_history_series()
    grid = series.grid
    lags = (1, 7, 30)
    assert any(len(series.treatment(t)) == 0 for t in range(1, series.T + 1))
    assert any(len(series.outcome(t)) == 0 for t in range(1, series.T + 1))
    zero_windows = 0
    maps = history_maps(series, lags=lags, coef=-6.0)
    for t in range(1, series.T + 1):
        for stream in ("treatment", "outcome"):
            for lag in lags:
                pats = [series.treatment(tt).base if stream == "treatment"
                        else series.outcome(tt) for tt in range(max(1, t - lag), t)]
                pts = [p.points for p in pats if len(p)]
                got = maps["%s_hist_%d" % (stream, lag)][t - 1]
                if pts:
                    ref = decay_transform(distance_map(grid, np.vstack(pts)), -6.0)
                    assert got.tobytes() == ref.values.tobytes()
                else:
                    zero_windows += 1
                    assert got.tobytes() == np.zeros((grid.ny, grid.nx)).tobytes()
    assert zero_windows > 0


def test_history_maps_distance_map_once_per_period(monkeypatch):
    import geocausal.patterns as patterns

    series = _sparse_history_series()
    calls = []
    original = patterns.distance_map

    def counting(grid, features):
        calls.append(features)
        return original(grid, features)

    monkeypatch.setattr(patterns, "distance_map", counting)
    history_maps(series, lags=(1, 7, 30), coef=-6.0)
    nonempty = sum(
        (len(series.treatment(t)) > 0) + (len(series.outcome(t)) > 0)
        for t in range(1, series.T)  # period T is never in a window
    )
    assert 0 < len(calls) == nonempty


def test_boundary_event_fraction():
    grid = build_grid(make_window(), 8, 8)
    series = series_from_outcomes(grid, [np.array([[0.1, 0.1]]),
                                         np.array([[5.0, 5.0]])])
    frac = boundary_event_fraction(series, SmoothingSpec(bandwidth=0.5))
    assert frac == pytest.approx(0.5)

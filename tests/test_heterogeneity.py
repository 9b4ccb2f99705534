"""Pixel partitions, projection OLS, and the spline basis."""

import numpy as np
import pytest

from geocausal.effects import SmoothedOutcomes, compute_weight_series, per_period_contrasts
from geocausal.errors import RankDeficiencyError
from geocausal.geometry import (
    Region,
    SpatialWindow,
    build_grid,
    normalize_raster,
    snap_for_exact_sums,
)
from geocausal.glm import natural_cubic_basis
from geocausal.heterogeneity import (
    ModeratorPanel,
    PixelPartition,
    ProjectionBasis,
    average_projection,
    estimate_cate,
    pixel_effects,
    project_cate_t,
)
from geocausal.interventions import intensified
from geocausal.patterns import SmoothingSpec, smoothed_cell_values
from geocausal.propensity import fit_poisson_intensity
from geocausal.simulate import simulate_series
from geocausal.validation import default_dgp


@pytest.fixture(scope="module")
def world():
    dgp = default_dgp(treatment_rate=0.3)
    series = simulate_series(dgp, 200, 55)
    fit = fit_poisson_intensity(series, dgp.covariates.keys())
    baseline = normalize_raster(dgp.treatment_intensity())
    spec = SmoothingSpec(bandwidth=0.4)
    L = 3
    wA = compute_weight_series(series, fit, intensified(baseline, 0.5), L)
    wB = compute_weight_series(series, fit, intensified(baseline, 0.2), L)
    smoothed = SmoothedOutcomes(series, spec)
    return dgp, series, smoothed, wA, wB


def test_partition_constructors():
    grid = build_grid(SpatialWindow(bounds=(0, 0, 8, 8)), 8, 8)
    part = PixelPartition.blocks(grid, 4)
    assert part.p == 4
    assert part.pixel_centroids().shape == (4, 2)
    with pytest.raises(ValueError):
        PixelPartition.blocks(grid, 8)  # single pixel is rejected
    with pytest.raises(ValueError):
        PixelPartition(grid=grid, labels=np.zeros((8, 8), dtype=int))


def test_pixel_additivity_blocks(world):
    dgp, series, smoothed, wA, wB = world
    part = PixelPartition.blocks(series.grid, 8)
    whole = Region.whole_window(series.grid)
    per_t = per_period_contrasts(smoothed, whole, wA, wB)
    for t in (3, 57, 133):
        tau = pixel_effects(smoothed, part, wA, wB, t)
        assert tau.shape == (part.p,)
        assert tau.sum() == per_t[t - wA.L]  # bit-exact partition additivity


def test_pixel_additivity_random_partitions(world):
    dgp, series, smoothed, wA, wB = world
    whole = Region.whole_window(series.grid)
    per_t = per_period_contrasts(smoothed, whole, wA, wB)
    rng = np.random.default_rng(4)
    grid = series.grid
    for k in range(10):
        p = int(rng.integers(2, 25))
        labels = rng.integers(0, p, size=(grid.ny, grid.nx))
        labels.flat[:p] = np.arange(p)  # ensure every id occupied
        part = PixelPartition(grid=grid, labels=labels)
        t = int(rng.integers(wA.L, series.T + 1))
        tau = pixel_effects(smoothed, part, wA, wB, t)
        assert tau.sum() == per_t[t - wA.L]


def test_identical_interventions_zero_pixels(world):
    dgp, series, smoothed, wA, wB = world
    part = PixelPartition.blocks(series.grid, 8)
    tau = pixel_effects(smoothed, part, wA, wA, 10)
    assert np.all(tau == 0.0)


def test_natural_cubic_basis_shapes():
    values = np.linspace(0.0, 10.0, 50)
    basis = natural_cubic_basis(values, 1)
    assert basis.design(values).shape == (50, 1)
    assert np.array_equal(basis.design(values)[:, 0], values)  # pure linear

    basis5 = natural_cubic_basis(values, 5)
    assert basis5.design(values).shape == (50, 5)
    with pytest.raises(ValueError):
        natural_cubic_basis(np.array([1.0, 2.0]), 5)


def test_natural_cubic_smoothness_and_linear_tails():
    # finite-difference oracle: C2 at interior knots, zero curvature outside
    values = np.linspace(0.0, 1.0, 101)
    basis = natural_cubic_basis(values, 4)
    h = 1e-5

    def second_diff(f, x):
        return (f(x + h) - 2 * f(x) + f(x - h)) / (h * h)

    for j in range(4):
        f = lambda x: basis.design(np.atleast_1d(x))[0, j]
        for knot in basis.knots[1:-1]:
            left = second_diff(f, knot - 5 * h)
            right = second_diff(f, knot + 5 * h)
            assert abs(left - right) < 1e-3
        lo, hi = basis.knots[0], basis.knots[-1]
        assert abs(second_diff(f, lo - 0.2)) < 1e-4
        assert abs(second_diff(f, hi + 0.2)) < 1e-4


def test_project_intercept_only_is_mean():
    rng = np.random.default_rng(8)
    tau = rng.normal(size=40)
    beta = project_cate_t(tau, rng.uniform(size=40), ProjectionBasis.intercept())
    assert beta[0] == pytest.approx(tau.mean(), abs=1e-10)


def test_project_binary_moderator_group_means():
    # closed-form two-group OLS oracle
    rng = np.random.default_rng(9)
    r = (rng.uniform(size=60) < 0.5).astype(float)
    tau = rng.normal(size=60)
    beta = project_cate_t(tau, r, ProjectionBasis.linear())
    mean0, mean1 = tau[r == 0].mean(), tau[r == 1].mean()
    assert beta[0] == pytest.approx(mean0, abs=1e-10)
    assert beta[1] == pytest.approx(mean1 - mean0, abs=1e-10)


def test_project_exact_linear_recovery():
    rng = np.random.default_rng(10)
    r = rng.uniform(-2, 5, size=30)
    tau = 1.25 - 0.75 * r
    beta = project_cate_t(tau, r, ProjectionBasis.linear())
    assert beta[0] == pytest.approx(1.25, abs=1e-10)
    assert beta[1] == pytest.approx(-0.75, abs=1e-10)


def test_project_ols_orthogonality():
    rng = np.random.default_rng(11)
    r = rng.uniform(size=50)
    tau = rng.normal(size=50)
    basis = ProjectionBasis.natural_cubic(r, 3)
    beta = project_cate_t(tau, r, basis)
    Z = basis.design(r)
    assert np.max(np.abs(Z.T @ (tau - Z @ beta))) < 1e-8


def test_project_missing_handling():
    rng = np.random.default_rng(12)
    r = rng.uniform(size=20)
    r[:5] = np.nan
    tau = 2.0 + 3.0 * np.nan_to_num(r)
    beta = project_cate_t(tau, r, ProjectionBasis.linear(), missing="drop")
    assert beta[1] == pytest.approx(3.0, abs=1e-8)
    beta_zero = project_cate_t(tau, r, ProjectionBasis.linear(), missing="zero")
    assert beta_zero is not None  # zero imputation is a different, valid fit
    with pytest.raises(ValueError):
        project_cate_t(tau, np.full(20, np.nan), ProjectionBasis.linear())


def test_project_rank_deficiency():
    tau = np.arange(10.0)
    r = np.ones(10)  # moderator constant -> collinear with the intercept
    with pytest.raises(RankDeficiencyError):
        project_cate_t(tau, r, ProjectionBasis.linear())


def test_average_projection_and_intervals():
    betas = np.tile(np.array([2.0, -1.0]), (20, 1))
    est = average_projection(betas)
    assert np.allclose(est.beta_bar, [2.0, -1.0])
    proj = est
    val, lo, hi = proj.coefficient_interval(0)
    assert val == pytest.approx(2.0)
    assert lo <= 2.0 <= hi
    with pytest.raises(ValueError):
        average_projection(betas[:1])


def test_estimate_cate_end_to_end(world):
    dgp, series, smoothed, wA, wB = world
    part = PixelPartition.blocks(series.grid, 8)
    rng = np.random.default_rng(13)
    panel = ModeratorPanel(partition=part, values={"m": rng.uniform(size=part.p)})
    proj = estimate_cate(smoothed, part, wA, wB, panel, "m", ProjectionBasis.linear())
    assert proj.beta_bar.shape == (2,)
    assert proj.betas.shape == (series.T - wA.L + 1, 2)
    out = proj.evaluate(np.array([0.2, 0.8]))
    assert out["value"].shape == (2,)
    assert np.all(out["ci95"][:, 0] <= out["value"])
    # intercept-only projection equals the mean pixel effect, averaged over t
    proj0 = estimate_cate(smoothed, part, wA, wB, panel, "m",
                          ProjectionBasis.intercept())
    taus = np.array([
        pixel_effects(smoothed, part, wA, wB, t).mean()
        for t in range(wA.L, series.T + 1)
    ])
    assert proj0.beta_bar[0] == pytest.approx(taus.mean(), abs=1e-10)


def test_estimate_cate_matches_per_period_loop(world):
    # reference: one period at a time, pixel sums by bincount of snapped cells
    dgp, series, smoothed, wA, wB = world
    grid = series.grid
    part = PixelPartition.blocks(grid, 4)
    rng = np.random.default_rng(29)
    panel = ModeratorPanel(partition=part, values={"m": rng.uniform(size=(part.p, series.T))})
    basis = ProjectionBasis.linear()
    flat = part.labels.ravel()
    keep = flat >= 0
    betas = []
    for i, t in enumerate(range(wA.L, series.T + 1)):
        v = smoothed_cell_values(series.outcome(t), smoothed.spec, grid)
        e = snap_for_exact_sums(wA.weights[i] * v - wB.weights[i] * v, n_terms=grid.n_cells)
        tau = np.bincount(flat[keep], weights=e[keep], minlength=part.p)
        assert pixel_effects(smoothed, part, wA, wB, t).tobytes() == tau.tobytes()
        betas.append(project_cate_t(tau, panel.at("m", t - wA.L + 1), basis))
    proj = estimate_cate(smoothed, part, wA, wB, panel, "m", basis)
    assert proj.betas.tobytes() == np.array(betas).tobytes()
    assert proj.beta_bar.tobytes() == np.array(betas).mean(axis=0).tobytes()


def test_one_design_per_distinct_moderator_vector(world, monkeypatch):
    import geocausal.heterogeneity as heterogeneity

    calls = []
    original = heterogeneity._check_rank

    def counting(X, columns, w=None):
        calls.append(columns)
        return original(X, columns, w)

    monkeypatch.setattr(heterogeneity, "_check_rank", counting)
    dgp, series, smoothed, wA, wB = world
    part = PixelPartition.blocks(series.grid, 4)
    rng = np.random.default_rng(31)
    n = series.T - wA.L + 1
    static = rng.uniform(size=part.p)
    flipped = static.copy()
    flipped[0] = 0.0
    signed = flipped.copy()
    signed[0] = -0.0  # equal by value, other bytes: a group of its own
    panel = ModeratorPanel(partition=part, values={
        "static": static,
        "dynamic": rng.uniform(size=(part.p, series.T)),
        "two": np.where(np.arange(series.T) % 2, flipped[:, None], static[:, None]),
        "signed": np.where(np.arange(series.T) < 50, flipped[:, None], signed[:, None]),
    })
    basis = ProjectionBasis.linear()
    taus = part.pixel_sums(smoothed.contributions(wA, wB))
    for name, designs in (("static", 1), ("dynamic", n), ("two", 2), ("signed", 2)):
        calls.clear()
        proj = estimate_cate(smoothed, part, wA, wB, panel, name, basis)
        assert len(calls) == designs, name
        # each period is still solved on its own: the per-period bytes
        betas = np.array([project_cate_t(tau, panel.at(name, i + 1), basis)
                          for i, tau in enumerate(taus)])
        assert proj.betas.tobytes() == betas.tobytes(), name


def test_constant_moderator_at_a_middle_period_names_the_column(world):
    dgp, series, smoothed, wA, wB = world
    part = PixelPartition.blocks(series.grid, 4)
    values = np.random.default_rng(37).uniform(size=(part.p, series.T))
    values[:, series.T // 2] = 0.5
    panel = ModeratorPanel(partition=part, values={"m": values})
    with pytest.raises(RankDeficiencyError) as err:
        estimate_cate(smoothed, part, wA, wB, panel, "m", ProjectionBasis.linear())
    assert err.value.columns == ["moderator"]


def test_short_dynamic_panel_is_checked_up_front(world, monkeypatch):
    dgp, series, smoothed, wA, wB = world
    part = PixelPartition.blocks(series.grid, 8)
    panel = ModeratorPanel(partition=part, values={
        "m": np.random.default_rng(41).uniform(size=(part.p, 20))})

    def no_contributions(*args):
        raise AssertionError("contributions computed before the panel check")

    monkeypatch.setattr(SmoothedOutcomes, "contributions", no_contributions)
    n = series.T - wA.L + 1
    with pytest.raises(ValueError, match=r"'m' has 20 periods; T - L \+ 1 = %d" % n):
        estimate_cate(smoothed, part, wA, wB, panel, "m", ProjectionBasis.linear())

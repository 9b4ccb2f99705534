"""Acceptance criteria: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every test here carries
the ``acceptance`` marker, so ``pytest -m "not acceptance"`` runs the module
suite without them.  The slow criteria (8-10) are full coverage experiments
against the Monte-Carlo oracle; each stays inside its stated runtime budget
on a laptop-class machine.
"""

import itertools
import json
import math

import numpy as np
import pytest

import geocausal as gc
from geocausal.effects import SmoothedOutcomes, compute_weight_series, per_period_contrasts
from geocausal.geometry import (
    Raster,
    Region,
    SpatialWindow,
    build_grid,
    integrate_raster,
    normalize_raster,
)
from geocausal.heterogeneity import PixelPartition, ProjectionBasis, pixel_effects, project_cate_t
from geocausal.interventions import (
    InterventionPair,
    MediatorIntervention,
    TreatmentIntervention,
    incremental_shift,
    intensified,
)
from geocausal.mediation import binary_tree, estimate_mediation_effects, fit_mediator_score
from geocausal.patterns import (
    MarkedPointPattern,
    PatternSeries,
    PointPattern,
    SmoothingSpec,
    kernel_smooth,
)
from geocausal.propensity import fit_poisson_intensity, log_pattern_density
from geocausal.simulate import simulate_series
from geocausal.validation import (
    EstimatorConfig,
    coverage_experiment,
    default_dgp,
    interior_region,
)

pytestmark = pytest.mark.acceptance


def _report(criterion: int, message: str) -> None:
    print("\n[ACCEPTANCE %2d] PASS - %s" % (criterion, message))


@pytest.fixture(scope="module")
def fitted_world():
    dgp = default_dgp(treatment_rate=0.4)
    series = simulate_series(dgp, 300, 1234)
    fit = fit_poisson_intensity(series, dgp.covariates.keys())
    baseline = normalize_raster(dgp.treatment_intensity())
    return dgp, series, fit, baseline


def test_criterion_1_weight_identity(fitted_world):
    dgp, series, fit, _ = fitted_world
    lam = fit.intensity(series, 1)
    iv = TreatmentIntervention(intensity=lam, expected_count=integrate_raster(lam))
    for L in (1, 3, 5):
        ws = compute_weight_series(series, fit, iv, L)
        worst = float(np.max(np.abs(ws.weights - 1.0)))
        assert worst < 1e-12
    _report(1, "intervention = fitted propensity gives w_t = 1 within 1e-12 "
               "for L in {1, 3, 5}")


def test_criterion_2_kernel_mass_and_linearity():
    window = SpatialWindow(bounds=(0.0, 0.0, 12.0, 12.0))
    grid = build_grid(window, 256, 256)
    spec = SmoothingSpec(bandwidth=0.9)
    single = PointPattern(time=1, points=np.array([[6.0, 6.0]]), window=window)
    mass = float(np.sum(kernel_smooth(single, spec, grid).values) * grid.cell_area)
    assert abs(mass - 1.0) <= 1e-3

    p1 = PointPattern(time=1, points=np.array([[4.0, 5.0], [7.5, 6.25]]),
                      window=window)
    p2 = PointPattern(time=1, points=np.array([[6.0, 8.0]]), window=window)
    union = PointPattern(time=1, points=np.vstack([p1.points, p2.points]),
                         window=window)
    lhs = kernel_smooth(union, spec, grid).values
    rhs = kernel_smooth(p1, spec, grid).values + kernel_smooth(p2, spec, grid).values
    assert np.array_equal(lhs, rhs)
    _report(2, "single-event mass = %.6f on a 256x256 grid (|err| <= 1e-3); "
               "superposition linearity bit-exact" % mass)


def test_criterion_3_incremental_shift():
    assert abs(incremental_shift(0.5, 2.0) - 2.0 / 3.0) < 1e-12
    rng = np.random.default_rng(99)
    p = rng.uniform(1e-6, 1 - 1e-6, size=10_000)
    d = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), size=10_000))
    assert np.max(np.abs(incremental_shift(p, 1.0) - p)) < 1e-12
    # monotone in delta at fixed p
    step_d = incremental_shift(p, d * 1.5) - incremental_shift(p, d)
    assert np.all(step_d > 0)
    # monotone in p at fixed delta
    p2 = np.minimum(p + rng.uniform(1e-6, 0.5, size=p.size), 1 - 1e-9)
    step_p = incremental_shift(p2, d) - incremental_shift(p, d)
    assert np.all(step_p > 0)
    _report(3, "delta=1 identity and p=0.5,delta=2 -> 2/3 within 1e-12; "
               "monotone in p and delta over 10^4 random pairs")


def test_criterion_4_decomposition():
    dgp = default_dgp(treatment_rate=0.5, mediator=True, mediator_bonus=4.0)
    region = interior_region(dgp.grid)
    spec = SmoothingSpec(bandwidth=0.4)
    baseline = normalize_raster(dgp.treatment_intensity())
    rng = np.random.default_rng(2718)
    worst = 0.0
    checked = 0
    for s in range(10):
        series = simulate_series(dgp, 60, 10_000 + s)
        fit = fit_poisson_intensity(series, dgp.covariates.keys())
        score = fit_mediator_score(series, ["bump_a"], binary_tree("hit", "none"))
        for _ in range(10):
            L = int(rng.integers(2, 4))
            cA, cB = rng.uniform(0.2, 0.9, size=2)
            dA = float(np.exp(rng.uniform(np.log(0.5), np.log(3.0))))
            dB = float(np.exp(rng.uniform(np.log(0.5), np.log(3.0))))
            pairA = InterventionPair(intensified(baseline, cA),
                                     MediatorIntervention(dA, "hit"), L=L)
            pairB = InterventionPair(intensified(baseline, cB),
                                     MediatorIntervention(dB, "hit"), L=L)
            eff = estimate_mediation_effects(series, fit, score, pairA, pairB,
                                             spec, region, L)
            for attr in ("ipw", "hajek"):
                te = getattr(eff.total, attr)
                gaps = (
                    abs(te - getattr(eff.direct, attr) - getattr(eff.indirect, attr)),
                    abs(te - getattr(eff.alt_direct, attr)
                        - getattr(eff.alt_indirect, attr)),
                )
                worst = max(worst, *gaps)
            checked += 1
    assert checked == 100
    assert worst < 1e-10
    _report(4, "TE = DE + IE over 100 random configurations, both orderings, "
               "IPW and Hajek; worst gap %.2e" % worst)


def test_criterion_5_partition_additivity(fitted_world):
    dgp, series, fit, baseline = fitted_world
    spec = SmoothingSpec(bandwidth=0.4)
    L = 3
    wA = compute_weight_series(series, fit, intensified(baseline, 0.6), L)
    wB = compute_weight_series(series, fit, intensified(baseline, 0.25), L)
    smoothed = SmoothedOutcomes(series, spec)
    whole = Region.whole_window(series.grid)
    per_t = per_period_contrasts(smoothed, whole, wA, wB)
    rng = np.random.default_rng(555)
    grid = series.grid
    for k in range(50):
        p = int(rng.integers(2, 40))
        labels = rng.integers(0, p, size=(grid.ny, grid.nx))
        labels.flat[:p] = np.arange(p)
        part = PixelPartition(grid=grid, labels=labels)
        t = int(rng.integers(L, series.T + 1))
        tau = pixel_effects(smoothed, part, wA, wB, t)
        assert tau.sum() == per_t[t - L]  # bit-exact
    _report(5, "sum of pixel effects equals the region effect bit-exactly "
               "across 50 random partitions")


def test_criterion_6_propensity_recovery():
    import dataclasses

    base = default_dgp()
    grid = base.grid
    centers = grid.cell_centers()
    covs = {"east": Raster(grid, (centers[:, 0] / 10.0).reshape(grid.ny, grid.nx)),
            "north": Raster(grid, (centers[:, 1] / 10.0).reshape(grid.ny, grid.nx))}
    slopes = {"east": 0.8, "north": -0.5}
    eta = sum(slopes[n] * covs[n].values for n in slopes)
    rate = 12.0
    coef = {"intercept": math.log(rate / (float(np.sum(np.exp(eta))) * grid.cell_area))}
    coef.update(slopes)
    dgp = dataclasses.replace(base, covariates=covs, propensity_coef=coef,
                              mediator_coef=None)
    series = simulate_series(dgp, 2000, 77_001)
    fit = fit_poisson_intensity(series, dgp.covariates.keys())
    errs = {k: abs(fit.model.coefficients[k] - v) for k, v in coef.items()}
    assert max(errs.values()) < 0.05
    trace = fit.report.deviance_trace
    assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))
    _report(6, "all coefficients within 0.05 of truth (max err %.4f) at T=2000; "
               "IRLS deviance monotone over %d iterations"
            % (max(errs.values()), fit.report.iterations))


def test_criterion_7_density_normalization():
    window = SpatialWindow(bounds=(0.0, 0.0, 1.0, 1.0))
    grid = build_grid(window, 2, 1)
    lam = Raster(grid, np.array([[0.7, 1.3]]))
    area = grid.cell_area
    centers = grid.cell_centers()
    total = 0.0
    for n1, n2 in itertools.product(range(11), repeat=2):
        pts = np.vstack([np.tile(centers[0], (n1, 1)), np.tile(centers[1], (n2, 1))])
        pat = PointPattern(time=1, points=pts.reshape(-1, 2), window=window)
        ref = (area ** n1 / math.factorial(n1)) * (area ** n2 / math.factorial(n2))
        total += math.exp(log_pattern_density(lam, pat)) * ref
    assert abs(total - 1.0) <= 1e-6
    _report(7, "exp(log density) sums to %.8f over all patterns with <= 10 "
               "points per cell on a 2-cell window" % total)


def test_criterion_8_consistency_and_coverage():
    dgp = default_dgp()
    config = EstimatorConfig(
        estimand="ate",
        T_grid=(500, 2000, 5000),
        bandwidth_schedule={500: 1.2, 2000: 0.67, 5000: 0.44},
        count_A=0.16, count_B=0.06, L=3, oracle_draws=150_000,
    )
    rows = coverage_experiment(dgp, config, replicates=200, seed=80_001)
    rows.sort(key=lambda r: r["T"])
    bias_ipw = [abs(r["bias_ipw"]) for r in rows]
    bias_hajek = [abs(r["bias_hajek"]) for r in rows]
    assert bias_ipw[0] > bias_ipw[1] > bias_ipw[2], bias_ipw
    assert bias_hajek[0] > bias_hajek[1] > bias_hajek[2], bias_hajek
    final = rows[-1]
    assert final["coverage95_ipw"] >= 0.93

    heavy = EstimatorConfig(estimand="ate", T_grid=(500,), bandwidth=0.3,
                            count_A=0.30, count_B=0.06, L=3, oracle_draws=150_000)
    heavy_rows = coverage_experiment(dgp, heavy, replicates=200, seed=80_002)
    assert heavy_rows[0]["rmse_hajek"] <= heavy_rows[0]["rmse_ipw"]

    _report(8, "|bias| decreasing: ipw %s, hajek %s; coverage95(sigma2*) at "
               "T=5000 = %.3f (hajek %.3f); heavy-tail RMSE hajek %.3f <= "
               "ipw %.3f"
            % (["%.4f" % b for b in bias_ipw], ["%.4f" % b for b in bias_hajek],
               final["coverage95_ipw"], final["coverage95_hajek"],
               heavy_rows[0]["rmse_hajek"], heavy_rows[0]["rmse_ipw"]))


def test_criterion_9_mediation_oracle():
    config = EstimatorConfig(
        estimand="mediation", T_grid=(2000,), L=2, bandwidth=0.4,
        count_A=0.1, count_B=0.1, delta_A=2.5, delta_B=None, oracle_draws=8000,
    )
    signal = coverage_experiment(default_dgp(mediator=True, mediator_bonus=8.0),
                                 config, replicates=200, seed=90_001)[0]
    assert signal["sign_rate_hajek"] >= 0.95
    assert signal["coverage95_ipw"] >= 0.93
    assert signal["coverage95_hajek"] >= 0.93

    null = coverage_experiment(default_dgp(mediator=True, mediator_bonus=0.0),
                               config, replicates=200, seed=90_002)[0]
    assert null["rejection_rate_ipw"] <= 0.08

    _report(9, "IE sign rate %.3f, truth-in-CI %.3f (ipw) / %.3f (hajek) with "
               "c_M > 0; null rejection rate %.3f <= 0.08"
            % (signal["sign_rate_hajek"], signal["coverage95_ipw"],
               signal["coverage95_hajek"], null["rejection_rate_ipw"]))


def test_criterion_10_cate_projection(fitted_world):
    config = EstimatorConfig(
        estimand="cate", T_grid=(2000,), L=3, bandwidth=0.35,
        count_A=0.16, count_B=0.06, pixel_factor=8,
    )
    row = coverage_experiment(default_dgp(), config, replicates=200,
                              seed=100_001)[0]
    assert row["coverage95_slope"] >= 0.93

    # intercept-only projection equals the mean pixel effect
    dgp, series, fit, baseline = fitted_world
    spec = SmoothingSpec(bandwidth=0.4)
    L = 3
    wA = compute_weight_series(series, fit, intensified(baseline, 0.6), L)
    wB = compute_weight_series(series, fit, intensified(baseline, 0.25), L)
    smoothed = SmoothedOutcomes(series, spec)
    part = PixelPartition.blocks(series.grid, 8)
    tau = pixel_effects(smoothed, part, wA, wB, 10)
    rng = np.random.default_rng(4)
    beta0 = project_cate_t(tau, rng.uniform(size=part.p), ProjectionBasis.intercept())
    assert abs(beta0[0] - tau.mean()) < 1e-10

    # binary moderator OLS equals the closed-form two-group oracle
    r = (rng.uniform(size=part.p) < 0.5).astype(float)
    beta = project_cate_t(tau, r, ProjectionBasis.linear())
    assert abs(beta[0] - tau[r == 0].mean()) < 1e-10
    assert abs(beta[1] - (tau[r == 1].mean() - tau[r == 0].mean())) < 1e-10

    _report(10, "slope truth-in-CI %.3f over 200 replicates; intercept-only = "
                "mean pixel effect and two-group OLS oracle exact to 1e-10"
            % row["coverage95_slope"])


def test_criterion_11_pipeline_determinism(tmp_path):
    from test_cli import make_workspace
    from geocausal.cli import main

    cfg = make_workspace(tmp_path, T=120, seed=31)
    assert main(["ate", "--config", str(cfg), "--threads", "1",
                 "--out", str(tmp_path / "a")]) == 0
    assert main(["ate", "--config", str(cfg), "--threads", "4",
                 "--out", str(tmp_path / "b")]) == 0
    ba = (tmp_path / "a" / "results.json").read_bytes()
    bb = (tmp_path / "b" / "results.json").read_bytes()
    assert ba == bb
    payload = json.loads(ba)
    assert payload["status"]["ate"] == "ok"
    _report(11, "results.json byte-identical across runs with 1 and 4 threads "
                "(%d bytes)" % len(ba))

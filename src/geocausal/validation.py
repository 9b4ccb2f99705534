"""Coverage experiments: run the full estimation stack against oracle truth.

One replicate = simulate a series, fit the nuisance models, estimate, and
compare with the Monte-Carlo oracle; the experiment aggregates bias, RMSE,
confidence-interval coverage, and weight diagnostics over replicates.  The
three arms share machinery:

* ``ate``: intensification contrast at several series lengths.  The T grid is
  evaluated on prefixes of one simulated series per replicate (common random
  numbers), which sharpens the bias-versus-T comparison.
* ``mediation``: indirect effect of a delta shift on the fitted mediator
  score.  The shift is data-defined, so the per-replicate truth comes from
  the oracle run with that replicate's fitted score as the intervention base.
* ``cate``: projection of pixel effects on a synthetic moderator built as an
  affine transform of the true pixel-effect map (so the pixel-level effect is
  exactly linear in the moderator, with known slope and intercept).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from .effects import (
    SmoothedOutcomes,
    Z95,
    _estimate_from_weights,
    intervention_log_densities,
    propensity_log_densities,
    window_weights,
)
from .geometry import (
    Raster,
    RasterGrid,
    Region,
    SpatialWindow,
    build_grid,
    integrate_raster,
    normalize_raster,
)
from .heterogeneity import (
    ModeratorPanel,
    PixelPartition,
    ProjectionBasis,
    estimate_cate,
)
from .interventions import (
    InterventionPair,
    MediatorIntervention,
    TreatmentIntervention,
    intensified,
)
from .mediation import estimate_mediation_effects, fit_mediator_score
from .patterns import SmoothingSpec
from .propensity import PropensityOptions, fit_poisson_intensity
from .simulate import (SyntheticDGP, exact_expected_spillover, oracle_effect,
                       prefix_series, simulate_series)


def _gaussian_bump(grid: RasterGrid, cx: float, cy: float, sd: float) -> Raster:
    centers = grid.cell_centers()
    d2 = (centers[:, 0] - cx) ** 2 + (centers[:, 1] - cy) ** 2
    return Raster(grid, np.exp(-0.5 * d2 / sd ** 2).reshape(grid.ny, grid.nx))


def default_dgp(treatment_rate: float = 0.1, mu0_rate: float = 0.3,
                carryover: tuple[float, ...] = (16.0,),
                spillover_range: float = 0.6,
                mediator: bool = False, mediator_bonus: float = 0.0) -> SyntheticDGP:
    """Desk-scale configuration: 32x32 grid, interior-concentrated intensities.

    Treatment is sparse (``treatment_rate`` expected events per period) with a
    log-linear intensity over four interior covariate bumps; each event raises
    the next period's outcome intensity by a large spillover burst, so the
    effect signal is strong relative to the weight spread.  The baseline
    outcome surface integrates to ``mu0_rate``.  The spillover range differs
    from any smoothing bandwidth used by the estimators, so tests cannot pass
    by kernel cancellation.
    """
    window = SpatialWindow(bounds=(0.0, 0.0, 10.0, 10.0))
    grid = build_grid(window, 32, 32)
    covs = {
        "bump_a": _gaussian_bump(grid, 4.5, 5.5, 2.2),
        "bump_b": _gaussian_bump(grid, 6.5, 4.0, 1.6),
        "bump_c": _gaussian_bump(grid, 3.4, 3.2, 1.3),
        "bump_d": _gaussian_bump(grid, 5.8, 6.9, 1.1),
    }
    slopes = {"bump_a": 1.6, "bump_b": 0.9, "bump_c": -1.1, "bump_d": 0.8}
    eta = sum(slopes[n] * covs[n].values for n in slopes)
    mass = float(np.sum(np.exp(eta)) * grid.cell_area)
    coef = {"intercept": math.log(treatment_rate / mass)}
    coef.update(slopes)

    mu0 = _gaussian_bump(grid, 5.0, 5.0, 2.0)
    mu0 = Raster(grid, mu0.values * (mu0_rate / integrate_raster(mu0)))

    mediator_coef = None
    if mediator or mediator_bonus > 0.0:
        mediator_coef = {"intercept": -0.6, "bump_a": 1.5}
    return SyntheticDGP(
        grid=grid,
        covariates=covs,
        propensity_coef=coef,
        mu0=mu0,
        carryover=carryover,
        spillover_range=spillover_range,
        mediator_coef=mediator_coef,
        mediator_bonus=mediator_bonus,
    )


def interior_region(grid: RasterGrid, margin: float = 1.5) -> Region:
    """Axis-aligned interior box; keeps smoothing mass away from the boundary."""
    x0, y0, x1, y1 = grid.window.bounds
    poly = np.array([
        [x0 + margin, y0 + margin], [x1 - margin, y0 + margin],
        [x1 - margin, y1 - margin], [x0 + margin, y1 - margin],
    ])
    return Region(polygon=poly, label="interior")


@dataclass
class EstimatorConfig:
    """Which estimand to validate and with what settings."""

    estimand: str = "ate"
    T_grid: tuple[int, ...] = (500, 2000, 5000)
    L: int = 3
    bandwidth: float = 0.3
    # Consistency requires the bandwidth to shrink with T; the default
    # schedule is roughly b ~ T^(-0.44), which makes the (deterministic)
    # smoothing bias the dominant, strictly decreasing bias component.
    bandwidth_schedule: dict | None = None
    count_A: float = 0.16
    count_B: float = 0.06
    region_margin: float = 1.5
    oracle_draws: int = 150_000
    delta_A: float | None = None          # mediation: shift applied under arm A
    delta_B: float | None = None          # None = pass-through
    pixel_factor: int = 8                 # cate
    moderator_slope: float = 1.0          # cate: affine scale of the synthetic moderator
    propensity_options: PropensityOptions = field(default_factory=PropensityOptions)


def true_pixel_effect_map(dgp: SyntheticDGP, ivA: TreatmentIntervention,
                          ivB: TreatmentIntervention, L: int,
                          partition: PixelPartition) -> np.ndarray:
    """Exact per-pixel contrast of expected outcome counts (treatment part).

    Only intervention-window lags contribute to the contrast (fixed history
    cancels), and the outcome rule is linear in event mass, so the truth is
    the separable-CDF field of the intensity difference summed over lags.
    """
    grid = dgp.grid
    lam_diff = ivA.rasters[0].values - ivB.rasters[0].values
    field = exact_expected_spillover(dgp, lam_diff)
    coef = sum(c for lag, c in enumerate(dgp.carryover, start=1) if lag < L)
    cellvals = coef * field * grid.cell_area
    flat = partition.labels.ravel()
    keep = flat >= 0
    return np.bincount(flat[keep], weights=cellvals[keep], minlength=partition.p)


def _summary_row(estimand: str, T: int, truth: float, truth_se: float,
                 est_ipw: np.ndarray, est_hajek: np.ndarray,
                 cover_ipw: np.ndarray, cover_hajek: np.ndarray,
                 reject_ipw: np.ndarray, ess_a: np.ndarray, ess_b: np.ndarray,
                 extra: dict | None = None) -> dict:
    row = {
        "estimand": estimand,
        "T": T,
        "n_replicates": int(est_ipw.size),
        "truth": truth,
        "truth_se": truth_se,
        "bias_ipw": float(np.mean(est_ipw) - truth),
        "bias_hajek": float(np.mean(est_hajek) - truth),
        "rmse_ipw": float(np.sqrt(np.mean((est_ipw - truth) ** 2))),
        "rmse_hajek": float(np.sqrt(np.mean((est_hajek - truth) ** 2))),
        "coverage95_ipw": float(np.mean(cover_ipw)),
        "coverage95_hajek": float(np.mean(cover_hajek)),
        "rejection_rate_ipw": float(np.mean(reject_ipw)),
        "mean_ess_A": float(np.mean(ess_a)),
        "mean_ess_B": float(np.mean(ess_b)),
    }
    if extra:
        row.update(extra)
    return row


def coverage_experiment(dgp: SyntheticDGP, config: EstimatorConfig,
                        replicates: int, seed) -> list[dict]:
    """Simulate-fit-estimate-compare, aggregated over replicates.

    Returns one row per T (ate) or one row per arm (mediation, cate) with
    bias, RMSE, CI coverage, rejection rates, and mean effective sample
    sizes.
    """
    if replicates < 50:
        raise ValueError("use at least 50 replicates")
    if config.estimand == "ate":
        return _ate_experiment(dgp, config, replicates, seed)
    if config.estimand == "mediation":
        return _mediation_experiment(dgp, config, replicates, seed)
    if config.estimand == "cate":
        return _cate_experiment(dgp, config, replicates, seed)
    raise ValueError("estimand must be 'ate', 'mediation', or 'cate'")


def _interventions(dgp: SyntheticDGP, config: EstimatorConfig):
    baseline = normalize_raster(dgp.treatment_intensity())
    ivA = intensified(baseline, config.count_A)
    ivB = intensified(baseline, config.count_B)
    return ivA, ivB


def _bandwidth_for(config: EstimatorConfig, T: int) -> float:
    if config.bandwidth_schedule:
        return float(config.bandwidth_schedule[T])
    return config.bandwidth


def _ate_experiment(dgp: SyntheticDGP, config: EstimatorConfig,
                    replicates: int, seed) -> list[dict]:
    ivA, ivB = _interventions(dgp, config)
    pairA = InterventionPair(treatment=ivA, L=config.L)
    pairB = InterventionPair(treatment=ivB, L=config.L)
    region = interior_region(dgp.grid, config.region_margin)
    L = config.L
    T_grid = tuple(sorted(config.T_grid))
    T_max = T_grid[-1]

    ss = np.random.SeedSequence(seed)
    rep_seeds = ss.spawn(replicates)
    truth, truth_se = oracle_effect(dgp, [], pairA, pairB, L, region,
                                    config.oracle_draws, ss.spawn(1)[0])

    est = {T: {"ipw": [], "hajek": [], "cov_i": [], "cov_h": [], "rej": [],
               "ess_a": [], "ess_b": []} for T in T_grid}
    for r in range(replicates):
        series = simulate_series(dgp, T_max, rep_seeds[r])
        num_A = intervention_log_densities(series, ivA)
        num_B = intervention_log_densities(series, ivB)
        for T in T_grid:
            sub = prefix_series(series, T)
            fit = fit_poisson_intensity(sub, dgp.covariates.keys(),
                                        config.propensity_options)
            den = propensity_log_densities(sub, fit)
            wA = window_weights(num_A[:, :T] - den, L)
            wB = window_weights(num_B[:, :T] - den, L)
            smoothed = SmoothedOutcomes(sub, SmoothingSpec(_bandwidth_for(config, T)))
            e = _estimate_from_weights(smoothed, region, wA, wB, L)
            bucket = est[T]
            bucket["ipw"].append(e.ipw)
            bucket["hajek"].append(e.hajek)
            bucket["cov_i"].append(e.ipw_ci95[0] <= truth <= e.ipw_ci95[1])
            bucket["cov_h"].append(e.ci95[0] <= truth <= e.ci95[1])
            bucket["rej"].append(not (e.ipw_ci95[0] <= 0.0 <= e.ipw_ci95[1]))
            bucket["ess_a"].append(e.ess["A"])
            bucket["ess_b"].append(e.ess["B"])

    rows = []
    for T in T_grid:
        b = est[T]
        rows.append(_summary_row(
            "ate", T, truth, truth_se,
            np.array(b["ipw"]), np.array(b["hajek"]),
            np.array(b["cov_i"], dtype=float), np.array(b["cov_h"], dtype=float),
            np.array(b["rej"], dtype=float),
            np.array(b["ess_a"]), np.array(b["ess_b"]),
        ))
    return rows


def _mediation_experiment(dgp: SyntheticDGP, config: EstimatorConfig,
                          replicates: int, seed) -> list[dict]:
    if dgp.mediator_coef is None:
        raise ValueError("mediation experiment needs a DGP with a mediator rule")
    ivA, ivB = _interventions(dgp, config)
    region = interior_region(dgp.grid, config.region_margin)
    spec = SmoothingSpec(bandwidth=config.bandwidth)
    L = config.L
    T = max(config.T_grid)
    target = dgp.mediator_positive
    medA = (MediatorIntervention(delta=config.delta_A, target_mark=target)
            if config.delta_A is not None else None)
    medB = (MediatorIntervention(delta=config.delta_B, target_mark=target)
            if config.delta_B is not None else None)
    pairA = InterventionPair(treatment=ivA, mediator=medA, L=L)
    pairB = InterventionPair(treatment=ivB, mediator=medB, L=L)
    # The indirect effect contrasts the two mediator shifts under F_W'':
    pairIEa = InterventionPair(treatment=ivB, mediator=medA, L=L)

    ss = np.random.SeedSequence(seed)
    rep_seeds = ss.spawn(replicates)
    oracle_seeds = ss.spawn(1)[0].spawn(replicates)
    cov_names = [n for n in sorted(dgp.mediator_coef) if n != "intercept"]

    res = {k: [] for k in ("ipw", "hajek", "cov_i", "cov_h", "rej", "sign",
                           "ess_a", "ess_b", "truth", "truth_se")}
    for r in range(replicates):
        series = simulate_series(dgp, T, rep_seeds[r])
        fit = fit_poisson_intensity(series, dgp.covariates.keys(),
                                    config.propensity_options)
        score = fit_mediator_score(
            series, cov_names, dgp.true_mediator_model().stages
        )
        effects = estimate_mediation_effects(series, fit, score, pairA, pairB,
                                             spec, region, L)
        e = effects.indirect
        if dgp.mediator_bonus == 0.0:
            truth, truth_se = 0.0, 0.0
        else:
            truth, truth_se = oracle_effect(dgp, [], pairIEa, pairB, L, region,
                                            config.oracle_draws, oracle_seeds[r],
                                            mediator_model=score)
        res["ipw"].append(e.ipw)
        res["hajek"].append(e.hajek)
        res["cov_i"].append(e.ipw_ci95[0] <= truth <= e.ipw_ci95[1])
        res["cov_h"].append(e.ci95[0] <= truth <= e.ci95[1])
        res["rej"].append(not (e.ipw_ci95[0] <= 0.0 <= e.ipw_ci95[1]))
        res["sign"].append(truth != 0.0 and math.copysign(1, e.hajek) == math.copysign(1, truth))
        res["ess_a"].append(e.ess["A"])
        res["ess_b"].append(e.ess["B"])
        res["truth"].append(truth)
        res["truth_se"].append(truth_se)

    ipw = np.array(res["ipw"])
    hajek = np.array(res["hajek"])
    truths = np.array(res["truth"])
    mean_truth = float(np.mean(truths))
    row = {
        "estimand": "mediation_ie",
        "T": T,
        "n_replicates": replicates,
        "truth": mean_truth,
        "truth_se": float(np.mean(res["truth_se"])),
        "bias_ipw": float(np.mean(ipw - truths)),
        "bias_hajek": float(np.mean(hajek - truths)),
        "rmse_ipw": float(np.sqrt(np.mean((ipw - truths) ** 2))),
        "rmse_hajek": float(np.sqrt(np.mean((hajek - truths) ** 2))),
        "coverage95_ipw": float(np.mean(res["cov_i"])),
        "coverage95_hajek": float(np.mean(res["cov_h"])),
        "rejection_rate_ipw": float(np.mean(res["rej"])),
        "sign_rate_hajek": float(np.mean(res["sign"])),
        "mean_ess_A": float(np.mean(res["ess_a"])),
        "mean_ess_B": float(np.mean(res["ess_b"])),
    }
    return [row]


def _cate_experiment(dgp: SyntheticDGP, config: EstimatorConfig,
                     replicates: int, seed) -> list[dict]:
    ivA, ivB = _interventions(dgp, config)
    spec = SmoothingSpec(bandwidth=config.bandwidth)
    L = config.L
    T = max(config.T_grid)
    partition = PixelPartition.blocks(dgp.grid, config.pixel_factor)

    true_map = true_pixel_effect_map(dgp, ivA, ivB, L, partition)
    spread = float(np.std(true_map))
    if spread == 0.0:
        raise ValueError("true pixel effects are constant; moderator undefined")
    slope = config.moderator_slope * spread
    intercept = float(np.mean(true_map))
    moderator = (true_map - intercept) / slope
    panel = ModeratorPanel(partition=partition, values={"m": moderator})
    basis = ProjectionBasis.linear()

    ss = np.random.SeedSequence(seed)
    rep_seeds = ss.spawn(replicates)

    slopes, covers, intercepts = [], [], []
    for r in range(replicates):
        series = simulate_series(dgp, T, rep_seeds[r])
        fit = fit_poisson_intensity(series, dgp.covariates.keys(),
                                    config.propensity_options)
        den = propensity_log_densities(series, fit)
        wA = window_weights(intervention_log_densities(series, ivA) - den, L)
        wB = window_weights(intervention_log_densities(series, ivB) - den, L)
        smoothed = SmoothedOutcomes(series, spec)
        proj = estimate_cate(smoothed, partition, wA, wB, panel, "m", basis)
        est, lo, hi = proj.coefficient_interval(1, z=Z95)
        slopes.append(est)
        covers.append(lo <= slope <= hi)
        intercepts.append(proj.beta_bar[0])

    slopes = np.array(slopes)
    row = {
        "estimand": "cate_slope",
        "T": T,
        "n_replicates": replicates,
        "truth": slope,
        "truth_se": 0.0,
        "bias_slope": float(np.mean(slopes) - slope),
        "rmse_slope": float(np.sqrt(np.mean((slopes - slope) ** 2))),
        "coverage95_slope": float(np.mean(np.asarray(covers, dtype=float))),
        "mean_intercept": float(np.mean(intercepts)),
        "true_intercept": intercept,
    }
    return [row]

"""Coverage experiments: run the full estimation stack against known truth.

One replicate = simulate a series, fit the nuisance models, estimate, and
score against the truth; rows aggregate bias, RMSE, CI coverage, and weight
diagnostics.  ``coverage_experiment`` is the one replicate loop: replicate
``r`` runs on child ``r`` of ``SeedSequence(seed)``, oracle seeds are spawned
after the replicates', and a picklable arm maps ``(r, seed)`` to a record.
Every arm fits the propensity with the default ``PropensityOptions`` and
reads ``L``, ``count_A``/``count_B`` and, per T, the bandwidth
``bandwidth_schedule[T]`` if a schedule is set, else ``bandwidth``.  Bad inputs, such as a schedule missing one of the arm's T,
raise ``ValueError`` before any truth is computed (``geocausal validate``:
exit 2).  Only the mediation arm reads ``oracle_draws``.

* ``ate`` (``T_grid``, ``region_margin``): every T is a prefix of one
  simulated series per replicate (common random numbers), which sharpens the
  bias-versus-T comparison.  The outcome rule is linear in event mass, so the
  truth is exact: two :func:`expected_region_outcome` calls, ``truth_se`` 0.
* ``mediation`` (``max(T_grid)``, ``delta_A``/``delta_B``, ``region_margin``,
  ``oracle_draws``): indirect effect of a delta shift on the fitted mediator
  score.  The shift is data-defined, so each replicate's truth comes from the
  oracle with its fitted score as the intervention base (0 without a bonus).
* ``cate`` (``max(T_grid)``, ``pixel_factor``): projection slope on the true
  pixel-effect map standardised to mean 0 and sd 1, so the pixel-level effect
  is exactly linear in it, with its sd as slope and its mean as intercept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from .effects import (
    EffectEstimate,
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
from .propensity import fit_poisson_intensity
from .simulate import (SyntheticDGP, exact_expected_spillover, expected_region_outcome,
                       oracle_effect, prefix_series, simulate_series)


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
    mu0 = _gaussian_bump(grid, 5.0, 5.0, 2.0)
    mu0 = Raster(grid, mu0.values * (mu0_rate / integrate_raster(mu0)))

    slopes = {"bump_a": 1.6, "bump_b": 0.9, "bump_c": -1.1, "bump_d": 0.8}
    mass = integrate_raster(SyntheticDGP(grid, covs, slopes, mu0).treatment_intensity())
    coef = {"intercept": math.log(treatment_rate / mass)}
    coef.update(slopes)

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
    # Consistency requires the bandwidth to shrink with T (None: ``bandwidth``
    # at every T); the acceptance schedule is roughly b ~ T^(-0.44), which makes
    # the (deterministic) smoothing bias the dominant, decreasing component.
    bandwidth_schedule: dict | None = None
    count_A: float = 0.16
    count_B: float = 0.06
    region_margin: float = 1.5
    oracle_draws: int = 150_000           # mediation only: per-replicate oracle draws
    delta_A: float | None = None          # mediation: shift applied under arm A
    delta_B: float | None = None          # None = pass-through
    pixel_factor: int = 8                 # cate


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
    return partition.pixel_sums((coef * field * grid.cell_area)[None])[0]


def _bandwidth_for(config: EstimatorConfig, T: int) -> float:
    if not config.bandwidth_schedule:
        return config.bandwidth
    if T not in config.bandwidth_schedule:
        raise ValueError("bandwidth_schedule has no bandwidth for T=%d" % T)
    return float(config.bandwidth_schedule[T])


def _score(e: EffectEstimate, truth: float, truth_se: float) -> dict:
    """One replicate's estimate scored against its truth."""
    return {
        "ipw": e.ipw, "hajek": e.hajek, "truth": truth, "truth_se": truth_se,
        "cover_ipw": e.ipw_ci95[0] <= truth <= e.ipw_ci95[1],
        "cover_hajek": e.ci95[0] <= truth <= e.ci95[1],
        "reject_ipw": not (e.ipw_ci95[0] <= 0.0 <= e.ipw_ci95[1]),
        "sign_hajek": (truth != 0.0
                       and math.copysign(1, e.hajek) == math.copysign(1, truth)),
        "ess_A": e.ess["A"], "ess_B": e.ess["B"],
    }


def _summary_row(estimand: str, T: int, scores: list[dict], truth: float,
                 truth_se: float, sign_rate: bool = False) -> dict:
    col = {k: np.array([s[k] for s in scores], dtype=float) for k in scores[0]}
    err_ipw = col["ipw"] - col["truth"]
    err_hajek = col["hajek"] - col["truth"]
    row = {
        "estimand": estimand,
        "T": T,
        "n_replicates": len(scores),
        "truth": truth,
        "truth_se": truth_se,
        "bias_ipw": float(np.mean(err_ipw)),
        "bias_hajek": float(np.mean(err_hajek)),
        "rmse_ipw": float(np.sqrt(np.mean(err_ipw ** 2))),
        "rmse_hajek": float(np.sqrt(np.mean(err_hajek ** 2))),
        "coverage95_ipw": float(np.mean(col["cover_ipw"])),
        "coverage95_hajek": float(np.mean(col["cover_hajek"])),
        "rejection_rate_ipw": float(np.mean(col["reject_ipw"])),
    }
    if sign_rate:
        row["sign_rate_hajek"] = float(np.mean(col["sign_hajek"]))
    row["mean_ess_A"] = float(np.mean(col["ess_A"]))
    row["mean_ess_B"] = float(np.mean(col["ess_B"]))
    return row


class _Arm:
    """Interventions and region shared by every replicate of an arm."""

    def __init__(self, dgp: SyntheticDGP, config: EstimatorConfig):
        self.dgp, self.config, self.L = dgp, config, config.L
        baseline = normalize_raster(dgp.treatment_intensity())
        self.ivA = intensified(baseline, config.count_A)
        self.ivB = intensified(baseline, config.count_B)
        self.region = interior_region(dgp.grid, config.region_margin)

    def _fit_and_weigh(self, series, num_A: np.ndarray, num_B: np.ndarray):
        """Fit the propensity on ``series`` and weigh both arms; the log
        numerators may span a longer series, whose first periods are used."""
        fit = fit_poisson_intensity(series, self.dgp.covariates.keys())
        den = propensity_log_densities(series, fit)
        return (window_weights(num_A[:, :series.T] - den, self.L),
                window_weights(num_B[:, :series.T] - den, self.L))


class AteArm(_Arm):
    """Intensification contrast at every T of the grid, against its exact truth."""

    def __init__(self, dgp, config, ss, replicates):
        super().__init__(dgp, config)
        self.T_grid = tuple(sorted(config.T_grid))
        self.specs = [SmoothingSpec(_bandwidth_for(config, T)) for T in self.T_grid]
        outcomes = [expected_region_outcome(dgp, [], InterventionPair(iv, L=self.L),
                                            self.L, self.region)
                    for iv in (self.ivA, self.ivB)]
        self.truth, self.truth_se = outcomes[0] - outcomes[1], 0.0

    def replicate(self, r: int, seed) -> list[dict]:
        series = simulate_series(self.dgp, self.T_grid[-1], seed)
        num_A = intervention_log_densities(series, self.ivA)
        num_B = intervention_log_densities(series, self.ivB)
        scores = []
        for T, spec in zip(self.T_grid, self.specs):
            sub = prefix_series(series, T)
            wA, wB = self._fit_and_weigh(sub, num_A, num_B)
            e = _estimate_from_weights(SmoothedOutcomes(sub, spec), self.region,
                                       wA, wB, self.L)
            scores.append(_score(e, self.truth, self.truth_se))
        return scores

    def rows(self, records: list) -> list[dict]:
        return [_summary_row("ate", T, [rec[i] for rec in records],
                             self.truth, self.truth_se)
                for i, T in enumerate(self.T_grid)]


class MediationArm(_Arm):
    """Indirect effect of the delta shift, against a per-replicate oracle truth."""

    def __init__(self, dgp, config, ss, replicates):
        if dgp.mediator_coef is None:
            raise ValueError("mediation experiment needs a DGP with a mediator rule")
        super().__init__(dgp, config)
        self.T = max(config.T_grid)
        self.spec = SmoothingSpec(_bandwidth_for(config, self.T))
        target = dgp.mediator_positive
        medA, medB = (None if d is None else MediatorIntervention(d, target)
                      for d in (config.delta_A, config.delta_B))
        self.pairA = InterventionPair(treatment=self.ivA, mediator=medA, L=self.L)
        self.pairB = InterventionPair(treatment=self.ivB, mediator=medB, L=self.L)
        # The indirect effect contrasts the two mediator shifts under F_W'':
        self.pairIEa = InterventionPair(treatment=self.ivB, mediator=medA, L=self.L)
        self.cov_names = [n for n in sorted(dgp.mediator_coef) if n != "intercept"]
        self.stages = dgp.true_mediator_model().stages
        self.oracle_seeds = ss.spawn(1)[0].spawn(replicates)

    def replicate(self, r: int, seed) -> dict:
        series = simulate_series(self.dgp, self.T, seed)
        fit = fit_poisson_intensity(series, self.dgp.covariates.keys())
        score = fit_mediator_score(series, self.cov_names, self.stages)
        e = estimate_mediation_effects(series, fit, score, self.pairA, self.pairB,
                                       self.spec, self.region, self.L).indirect
        if self.dgp.mediator_bonus == 0.0:
            return _score(e, 0.0, 0.0)
        truth, truth_se = oracle_effect(self.dgp, [], self.pairIEa, self.pairB,
                                        self.L, self.region, self.config.oracle_draws,
                                        self.oracle_seeds[r], mediator_model=score)
        return _score(e, truth, truth_se)

    def rows(self, records: list[dict]) -> list[dict]:
        truth, truth_se = (float(np.mean([s[k] for s in records]))
                           for k in ("truth", "truth_se"))
        return [_summary_row("mediation_ie", self.T, records, truth, truth_se,
                             sign_rate=True)]


class CateArm(_Arm):
    """Projection slope on a moderator that is affine in the true pixel effects."""

    def __init__(self, dgp, config, ss, replicates):
        super().__init__(dgp, config)
        self.T = max(config.T_grid)
        self.spec = SmoothingSpec(_bandwidth_for(config, self.T))
        self.partition = PixelPartition.blocks(dgp.grid, config.pixel_factor)
        true_map = true_pixel_effect_map(dgp, self.ivA, self.ivB, self.L, self.partition)
        self.slope = float(np.std(true_map))
        if self.slope == 0.0:
            raise ValueError("true pixel effects are constant; moderator undefined")
        self.intercept = float(np.mean(true_map))
        moderator = (true_map - self.intercept) / self.slope
        self.panel = ModeratorPanel(partition=self.partition, values={"m": moderator})

    def replicate(self, r: int, seed) -> tuple:
        series = simulate_series(self.dgp, self.T, seed)
        wA, wB = self._fit_and_weigh(series, intervention_log_densities(series, self.ivA),
                                     intervention_log_densities(series, self.ivB))
        proj = estimate_cate(SmoothedOutcomes(series, self.spec), self.partition,
                             wA, wB, self.panel, "m", ProjectionBasis.linear())
        est, lo, hi = proj.coefficient_interval(1, z=Z95)
        return est, lo <= self.slope <= hi, proj.beta_bar[0]

    def rows(self, records: list[tuple]) -> list[dict]:
        slopes, covers, intercepts = (np.array(c, dtype=float) for c in zip(*records))
        return [{
            "estimand": "cate_slope",
            "T": self.T,
            "n_replicates": len(records),
            "truth": self.slope,
            "truth_se": 0.0,
            "bias_slope": float(np.mean(slopes) - self.slope),
            "rmse_slope": float(np.sqrt(np.mean((slopes - self.slope) ** 2))),
            "coverage95_slope": float(np.mean(covers)),
            "mean_intercept": float(np.mean(intercepts)),
            "true_intercept": self.intercept,
        }]


ARMS = {"ate": AteArm, "mediation": MediationArm, "cate": CateArm}


def coverage_experiment(dgp: SyntheticDGP, config: EstimatorConfig,
                        replicates: int, seed) -> list[dict]:
    """Simulate-fit-estimate-compare, aggregated over replicates.

    Returns one row per T (ate) or one row per arm (mediation, cate) with
    bias, RMSE, CI coverage, rejection rates, and mean effective sample
    sizes.  Replicate ``r`` runs on child ``r`` of ``SeedSequence(seed)``;
    the oracle's seeds are spawned after those.
    """
    if replicates < 50:
        raise ValueError("use at least 50 replicates")
    if config.estimand not in ARMS:
        raise ValueError("estimand must be 'ate', 'mediation', or 'cate'")
    ss = np.random.SeedSequence(seed)
    seeds = ss.spawn(replicates)
    arm = ARMS[config.estimand](dgp, config, ss, replicates)
    return arm.rows([arm.replicate(r, s) for r, s in enumerate(seeds)])

"""Weights, IPW and Hajek effect estimators, variance bounds, distance bands.

The weight of period ``t`` under intervention ``F`` is the product over the
``L`` intervention periods of density ratios (intervention over propensity),
accumulated entirely in log space and exponentiated once.  Per-period effect
contributions are reduced on the shared per-cell path (pre-rounded cell
masses), so pixel-level effects from the heterogeneity module partition them
bit-exactly.

Inference uses two conservative devices: the squared-contribution bound
``sigma2_star = mean_t per_t**2`` for the IPW contrast, and the delta-method
sandwich ``J V J'`` over the per-period vector
``A_t = (w'_t y_t, w''_t y_t, w'_t, w''_t)`` for the Hajek contrast.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import OverlapViolationError
from .geometry import Raster, Region, snap_for_exact_sums
from .interventions import InterventionPair, TreatmentIntervention, log_intervention_density
from .patterns import PatternSeries, SmoothingSpec, smoothed_cell_values
from .propensity import FittedPropensity

# scipy.stats.norm.ppf(0.95) and norm.ppf(0.975), written out so that importing
# the package does not load scipy.stats.
Z90 = 1.6448536269514722
Z95 = 1.959963984540054


@dataclass(frozen=True)
class WeightSeries:
    """Per-period weights for t in [L, T]; index 0 corresponds to t = L."""

    L: int
    log_weights: np.ndarray
    weights: np.ndarray
    truncation_quantile: float | None = None

    def __post_init__(self):
        lw = np.asarray(self.log_weights, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if not np.all(np.isfinite(lw)):
            raise ValueError("non-finite log-weight encountered")
        if not np.all(np.isfinite(w)):
            bad = int(np.flatnonzero(~np.isfinite(w))[0])
            raise ValueError("non-finite weight at t=%d" % (self.L + bad))
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        lw.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "log_weights", lw)
        object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return self.weights.size

    @property
    def ess(self) -> float:
        """Effective sample size (sum w)^2 / sum w^2."""
        s1 = float(np.sum(self.weights))
        s2 = float(np.sum(self.weights ** 2))
        return s1 * s1 / s2 if s2 > 0 else 0.0

    def truncated(self, quantile: float) -> "WeightSeries":
        """Cap weights at their empirical quantile (stability option)."""
        if not 0.0 < quantile <= 1.0:
            raise ValueError("truncation quantile must be in (0, 1]")
        cap = float(np.quantile(self.weights, quantile))
        if cap <= 0.0:
            raise ValueError("truncation quantile %g caps the weights at 0" % quantile)
        return WeightSeries(self.L, np.minimum(self.log_weights, math.log(cap)),
                            np.minimum(self.weights, cap), truncation_quantile=quantile)


def intervention_log_densities(series: PatternSeries,
                               iv: TreatmentIntervention) -> np.ndarray:
    """Log density of every observed treatment pattern under each raster of
    the intervention; shape (n_rasters, T), row ``k`` for window offset ``k``."""
    out = np.empty((len(iv.rasters), series.T))
    for t in range(1, series.T + 1):
        pattern = series.treatment(t).base
        try:
            for offset in range(out.shape[0]):
                out[offset, t - 1] = log_intervention_density(iv, pattern, offset=offset)
        except OverlapViolationError as err:
            raise OverlapViolationError("period %d: %s" % (t, err)) from err
    return out


def propensity_log_densities(series: PatternSeries,
                             propensity: FittedPropensity) -> np.ndarray:
    """Log density of every observed treatment pattern under the fitted
    propensity; shape (T,)."""
    out = np.empty(series.T)
    for t in range(1, series.T + 1):
        try:
            out[t - 1] = propensity.log_density(series, t)
        except OverlapViolationError as err:
            raise OverlapViolationError("period %d: %s" % (t, err)) from err
    return out


def window_weights(ratios: np.ndarray, L: int) -> WeightSeries:
    """Weights for every t in [L, T] from per-period log density ratios.

    ``ratios`` has one row per intervention raster and one column per period;
    window offset ``o`` reads row ``o % n_rows``.  Each window is summed as
    one contiguous reduction, so a single row gives the same bits as
    ``np.sum(ratios[0, t - L:t])``.
    """
    n, T = ratios.shape
    if L < 1 or L > T:
        raise ValueError("need 1 <= L <= T")
    offsets = np.arange(L)
    starts = np.arange(T - L + 1)[:, None]
    log_w = ratios[offsets % n, starts + offsets].sum(axis=1)
    if not np.all(np.isfinite(log_w)):
        bad = int(np.where(~np.isfinite(log_w))[0][0]) + L
        raise ValueError("non-finite log-weight at t=%d" % bad)
    return WeightSeries(L=L, log_weights=log_w, weights=np.exp(log_w))


def compute_weight_series(series: PatternSeries, propensity: FittedPropensity,
                          iv: TreatmentIntervention, L: int) -> WeightSeries:
    """Weights for every t in [L, T]; per-period ratios are computed once."""
    num = intervention_log_densities(series, iv)
    den = propensity_log_densities(series, propensity)
    return window_weights(num - den, L)


class SmoothedOutcomes:
    """Per-period pre-rounded cell masses as one read-only (T, n_cells) matrix.

    Row ``t - 1`` holds ``smoothed_cell_values`` of period t's outcomes.  A
    row is smoothed once, on first request; periods before the smallest L
    asked for are never smoothed.  Region integrals, effect contrasts, pixel
    effects and effect surfaces are all row operations on this matrix.
    """

    def __init__(self, series: PatternSeries, spec: SmoothingSpec):
        self.series = series
        self.spec = spec
        self._matrix = np.empty((series.T, series.grid.n_cells))
        self._view = self._matrix.view()
        self._view.flags.writeable = False
        self._first = series.T + 1  # rows of periods >= _first are filled

    def rows(self, L: int = 1) -> np.ndarray:
        """Cell masses of periods L..T, shape (T - L + 1, n_cells), read-only."""
        if L < 1:
            raise ValueError("L must be at least 1")
        for t in range(L, self._first):
            self._matrix[t - 1] = smoothed_cell_values(
                self.series.outcome(t), self.spec, self.series.grid
            )
        self._first = min(self._first, L)
        return self._view[L - 1:]

    def cell_values(self, t: int) -> np.ndarray:
        """Cell masses of period t."""
        return self.rows(t)[0]

    def region_integrals(self, region: Region, L: int = 1) -> np.ndarray:
        """integral_B smooth(Y_t) for t in [L, T]; rows are snapped, so these
        sums are exact in any order and at any BLAS thread count."""
        return _masked_row_sums(self.rows(L), region.resolve_mask(self.series.grid))

    def contributions(self, w1: WeightSeries, w2: WeightSeries) -> np.ndarray:
        """Per-cell effect contributions ``w'_t v - w''_t v`` for t in [L, T].

        This is the one place the exact-additivity rule lives: each row is
        snapped onto its own power-of-two quantum with ``n_terms = n_cells``,
        so sums over any partition of the cells (regions, pixels) are
        error-free and add up bit-exactly.
        """
        if w1.L != w2.L:
            raise ValueError("weight series disagree on L")
        v = self.rows(w1.L)
        diff = v * w1.weights[:, None]
        diff -= v * w2.weights[:, None]
        return snap_for_exact_sums(diff, n_terms=self.series.grid.n_cells)


@dataclass(frozen=True)
class EffectEstimate:
    """Point estimates, variances, and confidence intervals for one contrast.

    ``ci90``/``ci95`` belong to the Hajek estimate (the stable default);
    ``ipw_ci90``/``ipw_ci95`` come from the sigma2_star bound around the IPW
    estimate.  ``per_t`` holds the per-period IPW contrasts on the exact
    per-cell reduction path.
    """

    ipw: float
    hajek: float
    sigma2_star: float
    hajek_variance: float
    ci90: tuple[float, float]
    ci95: tuple[float, float]
    ipw_ci90: tuple[float, float]
    ipw_ci95: tuple[float, float]
    per_t: np.ndarray
    n_periods: int
    L: int
    ess: dict[str, float]
    region_label: str = "window"
    expected_counts: dict[str, float] = field(default_factory=dict)
    truncated_variant: "EffectEstimate | None" = None

    def to_dict(self) -> dict:
        out = {
            "ipw": self.ipw,
            "hajek": self.hajek,
            "sigma2_star": self.sigma2_star,
            "hajek_var": self.hajek_variance,
            "ci90": list(self.ci90),
            "ci95": list(self.ci95),
            "ipw_ci90": list(self.ipw_ci90),
            "ipw_ci95": list(self.ipw_ci95),
            "ess": self.ess,
            "L": self.L,
            "region": self.region_label,
            "n_periods": self.n_periods,
            "expected_counts": self.expected_counts,
            "per_t": [float(v) for v in self.per_t],
        }
        if self.truncated_variant is not None:
            trunc = self.truncated_variant.to_dict()
            trunc.pop("per_t", None)
            out["truncated"] = trunc
        return out


def variance_bound(per_t: np.ndarray) -> float:
    """Conservative variance bound: mean of squared per-period contributions."""
    per_t = np.asarray(per_t, dtype=float)
    if per_t.size < 2:
        raise ValueError("variance bound needs at least two periods")
    return float(np.mean(per_t ** 2))


def hajek_variance(a1: np.ndarray, a2: np.ndarray, w1: np.ndarray, w2: np.ndarray,
                   n_hat_1: float, n_hat_2: float) -> float:
    """Sandwich variance J V J' for the Hajek contrast.

    ``a`` are the per-period IPW integrals ``w_t * y_t``; the Jacobian row is
    ``[1, -1, -Nhat', Nhat'']`` evaluated at the Hajek point estimates.
    """
    if a1.size < 2:
        raise ValueError("hajek variance needs at least two periods")
    jdot = a1 - a2 - n_hat_1 * w1 + n_hat_2 * w2
    return float(np.mean(jdot ** 2))


def _interval(center: float, var: float, n: int, z: float) -> tuple[float, float]:
    half = z * math.sqrt(max(var, 0.0) / n)
    return (center - half, center + half)


def _masked_row_sums(rows: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``rows[:, mask.ravel()].sum(axis=1)`` as one matrix-vector product.

    Rows snapped by ``snap_for_exact_sums`` sum without rounding in any
    order, and so do the finite rows it leaves alone (all zero, or an
    underflowed quantum: multiples of 2**-1074 summing below 2**-1021); an
    exact zero is +0.0 either way.  A non-finite row is summed as before.
    """
    mask = mask.ravel()
    with np.errstate(invalid="ignore"):  # inf * 0.0 outside the mask
        out = rows @ mask.astype(float)
    redo = ~np.isfinite(out)
    out[redo] = rows[redo][:, mask].sum(axis=1)
    return out


def per_period_contrasts(smoothed: SmoothedOutcomes, region: Region,
                         w1: WeightSeries, w2: WeightSeries) -> np.ndarray:
    """Per-period IPW contrasts: region sums of the snapped contributions,
    exact in any order, so sums over any partition of the region reproduce
    them bit-exactly and the BLAS thread count changes no bit."""
    return _masked_row_sums(smoothed.contributions(w1, w2),
                            region.resolve_mask(smoothed.series.grid))


def estimate_ate(series: PatternSeries, propensity: FittedPropensity,
                 ivA: InterventionPair, ivB: InterventionPair,
                 spec: SmoothingSpec, region: Region, L: int | None = None,
                 smoothed: SmoothedOutcomes | None = None,
                 truncation: float | None = None) -> EffectEstimate:
    """ATE of intervention A versus B over the region: tau = N(A) - N(B)."""
    L = L if L is not None else ivA.L
    if ivA.L != ivB.L:
        raise ValueError("interventions must share the same L")
    if L != ivA.L:
        raise ValueError("L disagrees with the intervention pair")
    smoothed = smoothed or SmoothedOutcomes(series, spec)
    wA = compute_weight_series(series, propensity, ivA.treatment, L)
    wB = (wA if ivB.treatment is ivA.treatment
          else compute_weight_series(series, propensity, ivB.treatment, L))
    estimate = _estimate_from_weights(smoothed, region, wA, wB, L)
    if truncation is not None:
        trunc = _estimate_from_weights(
            smoothed, region, wA.truncated(truncation), wB.truncated(truncation), L
        )
        estimate = replace(estimate, truncated_variant=trunc)
    return estimate


def _estimate_from_weights(smoothed: SmoothedOutcomes, region: Region,
                           wA: WeightSeries, wB: WeightSeries, L: int) -> EffectEstimate:
    y = smoothed.region_integrals(region, L=L)
    n = y.size
    a1, a2 = wA.weights * y, wB.weights * y
    ipw_1, ipw_2 = float(np.mean(a1)), float(np.mean(a2))
    ipw = ipw_1 - ipw_2
    sumA, sumB = float(np.sum(wA.weights)), float(np.sum(wB.weights))
    if sumA == 0.0 or sumB == 0.0:
        raise ValueError("Hajek estimator undefined: weights sum to zero")
    hajek_1, hajek_2 = float(np.sum(a1) / sumA), float(np.sum(a2) / sumB)
    hajek = hajek_1 - hajek_2

    per_t = per_period_contrasts(smoothed, region, wA, wB)
    s2 = variance_bound(per_t)
    try:
        hv = hajek_variance(a1, a2, wA.weights, wB.weights, hajek_1, hajek_2)
        if not math.isfinite(hv):
            raise FloatingPointError
    except (FloatingPointError, ValueError):
        warnings.warn("Hajek variance is degenerate; falling back to sigma2_star")
        hv = s2

    return EffectEstimate(
        ipw=ipw, hajek=hajek, sigma2_star=s2, hajek_variance=hv,
        ci90=_interval(hajek, hv, n, Z90), ci95=_interval(hajek, hv, n, Z95),
        ipw_ci90=_interval(ipw, s2, n, Z90), ipw_ci95=_interval(ipw, s2, n, Z95),
        per_t=per_t, n_periods=n, L=L,
        ess={"A": wA.ess, "B": wB.ess},
        region_label=region.label,
        expected_counts={"ipw_A": ipw_1, "ipw_B": ipw_2,
                         "hajek_A": hajek_1, "hajek_B": hajek_2},
    )


def effect_surface(series: PatternSeries, spec: SmoothingSpec,
                   wA: WeightSeries, wB: WeightSeries,
                   smoothed: SmoothedOutcomes | None = None) -> Raster:
    """Temporal mean of the per-period weighted surface differences.

    The mean surface is a density (per km^2): per-cell masses are divided by
    the cell area after averaging.
    """
    smoothed = smoothed or SmoothedOutcomes(series, spec)
    grid = series.grid
    v = smoothed.rows(wA.L)
    diff = v * wA.weights[:, None]
    diff -= v * wB.weights[:, None]
    mean = diff.sum(axis=0) / (series.T - wA.L + 1) / grid.cell_area
    return Raster(grid, mean.reshape(grid.ny, grid.nx))


def effect_by_distance_band(surface: Raster, polylines, bands) -> dict[float, float]:
    """Share of the total effect within each distance band of the features.

    For each band edge ``d`` the share is the integral of the mean effect
    surface over cells within ``d`` km of the polylines, divided by the
    window total.  Requires a nonzero window total.
    """
    from .geometry import distance_map, integrate_raster

    grid = surface.grid
    total = integrate_raster(surface)
    if total == 0.0:
        raise ValueError("total effect over the window is zero; shares undefined")
    dmap = distance_map(grid, list(polylines))
    shares = {}
    for d in bands:
        mask = (dmap.values <= d) & grid.mask
        if not mask.any():
            shares[float(d)] = 0.0
            continue
        region = Region(cell_mask=mask, label="band<=%g" % d)
        shares[float(d)] = integrate_raster(surface, region) / total
    return shares

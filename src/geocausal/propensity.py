"""Treatment propensity: inhomogeneous Poisson intensity fits and pattern densities.

The propensity score of a treatment pattern is its Poisson density with respect
to the unit-rate reference process,

    log e_t(w) = sum_{s in w} log lambda_t(s) - integral_Omega lambda_t,

up to an additive constant shared by every intensity on the same window, which
cancels in all density ratios.  Fitting maximizes the discretized (cell-count)
Poisson likelihood on the shared grid, so the propensity, the interventions,
and every spatial integral are mutually consistent.

The log-linear intensity has two kinds of term: named covariates of the
series (static rasters or dynamic ``(T, ny, nx)`` arrays) and an optional
natural cubic spline in t.  A period indicator, or any per-period value ``v``
that is constant in space, is an ordinary dynamic covariate:
``np.broadcast_to(v[:, None, None], (T, ny, nx))`` is read-only, so the
series holds it without a copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OverlapViolationError
from .geometry import Raster, RasterGrid, integrate_raster
from .glm import NaturalCubicBasis, fit_glm, natural_cubic_basis
from .patterns import PatternSeries, PointPattern, prefix_series


@dataclass
class PropensityOptions:
    """Fit settings: the time spline's degrees of freedom (0 for none) and
    the ridge penalty."""

    time_spline_df: int = 0
    ridge: float = 0.0


@dataclass(frozen=True)
class IntensityModel:
    """Log-linear intensity: intercept + named covariates + optional time spline."""

    coefficients: dict[str, float]
    time_spline: NaturalCubicBasis | None = None
    time_spline_coef: np.ndarray | None = None

    def __post_init__(self):
        for name, value in self.coefficients.items():
            if not np.isfinite(value):
                raise ValueError("non-finite coefficient for %r" % name)

    @property
    def covariate_names(self) -> list[str]:
        return [n for n in self.coefficients if n != "intercept"]


def _intensity(model: IntensityModel, covariates: dict[str, np.ndarray],
               grid: RasterGrid, periods) -> np.ndarray:
    """lambda for the P ``periods`` as a (P, ny, nx) array; NODATA cells are zero.

    ``covariates`` maps each of the model's covariate names to a (ny, nx) or
    a (P, ny, nx) array; only the time spline reads ``periods``.  The linear
    predictor is summed in one order: intercept, then coefficient times
    covariate in ``covariate_names`` order, then the spline offset.
    """
    eta = np.full((len(periods), grid.ny, grid.nx), model.coefficients["intercept"])
    for name in model.covariate_names:
        eta += model.coefficients[name] * covariates[name]
    if model.time_spline is not None:
        Z = model.time_spline.design(np.asarray(periods, dtype=float))
        eta += np.array([float(z @ model.time_spline_coef) for z in Z])[:, None, None]
    invalid = ~(np.isfinite(eta) & grid.mask)
    eta[invalid] = 0.0
    np.exp(eta, out=eta)
    eta[invalid] = 0.0
    return eta


def _values(cov) -> np.ndarray:
    """A series covariate's values: (ny, nx) when static, else (T, ny, nx)."""
    return cov.values if isinstance(cov, Raster) else cov


@dataclass
class ConvergenceReport:
    iterations: int
    deviance: float
    converged: bool
    max_abs_score: float
    deviance_trace: list[float]
    ridge: float
    collapsed: bool


class FittedPropensity:
    """A fitted intensity model plus the predicted intensity of the series
    it was last asked about."""

    def __init__(self, model: IntensityModel, report: ConvergenceReport,
                 options: PropensityOptions):
        self.model = model
        self.report = report
        self.options = options
        # (intensity raster, its integral, its flat np.log) per period of
        # ``_series``, or one serving every period when the model is static.
        self._series: PatternSeries | None = None
        self._predicted: list[tuple[Raster, float, np.ndarray]] = []

    @property
    def converged(self) -> bool:
        return self.report.converged

    def _period(self, series: PatternSeries, t: int) -> tuple[Raster, float, np.ndarray]:
        if not 1 <= t <= series.T:
            raise ValueError("period t=%d is outside 1..T=%d" % (t, series.T))
        if series is not self._series:
            names = self.model.covariate_names
            static = series.is_static(names) and self.model.time_spline is None
            lam = _intensity(self.model, {n: _values(series.covariates[n]) for n in names},
                             series.grid, [None] if static else range(1, series.T + 1))
            with np.errstate(divide="ignore"):
                logs = np.log(lam.reshape(len(lam), -1))
            rasters = [Raster(series.grid, row) for row in lam]
            self._predicted = [(r, integrate_raster(r), log) for r, log in zip(rasters, logs)]
            self._series = series
        return self._predicted[0 if len(self._predicted) == 1 else t - 1]

    def intensity(self, series: PatternSeries, t: int) -> Raster:
        """Predicted intensity raster for period t (cached)."""
        return self._period(series, t)[0]

    def intensity_integral(self, series: PatternSeries, t: int) -> float:
        return self._period(series, t)[1]

    def log_density(self, series: PatternSeries, t: int) -> float:
        """log e_t of the observed treatment pattern at period t."""
        raster, integral, log_lam = self._period(series, t)
        return _log_density(log_lam, raster, series.treatment(t).base, integral)


def fit_poisson_intensity(series: PatternSeries, covariate_names,
                          options: PropensityOptions | None = None) -> FittedPropensity:
    """Fit log lambda_t = gamma . x_t (+ spline(t)) by IRLS on the cell-count
    likelihood.

    Covariates are the series' named static rasters or dynamic (T, ny, nx)
    arrays; a period indicator is a dynamic covariate constant in space.
    Cells with a NODATA (NaN) covariate value are excluded from the
    likelihood.  When the covariate stack is static and no time spline is
    requested, periods collapse into per-cell totals with exposure T * area,
    which is the identical likelihood at a fraction of the cost.
    """
    options = options or PropensityOptions()
    covariate_names = list(covariate_names)
    if series.T < 1:
        raise ValueError("series must contain at least one period")
    grid = series.grid
    T, n = series.T, grid.n_cells
    periods = np.arange(1, T + 1, dtype=float)
    basis = (natural_cubic_basis(periods, options.time_spline_df)
             if options.time_spline_df > 0 else None)
    spline_names = ["time_spline_%d" % j for j in range(1, basis.df + 1)] if basis else []
    columns = ["intercept"] + covariate_names + spline_names
    k_cov = 1 + len(covariate_names)
    cellmask = grid.mask.ravel()
    bases = [series.treatment(t).base for t in range(1, T + 1)]
    cells = np.concatenate([np.zeros(0, int)] + [b.cell_indices(grid) for b in bases if len(b)])

    # One (P, n_cells, k) design in period-major order, NODATA cells dropped;
    # P = 1 when the periods collapse.
    static = series.is_static(covariate_names) and basis is None
    P = 1 if static else T
    design = np.empty((P, n, len(columns)))
    design[:, :, 0] = 1.0
    valid = np.tile(cellmask, (P, 1))
    for j, name in enumerate(covariate_names, start=1):
        values = _values(series.covariates[name]).reshape(-1, n)
        design[:, :, j] = values  # a static raster's one row broadcasts
        valid &= np.isfinite(values)
    if basis is not None:
        design[:, :, k_cov:] = basis.design(periods)[:, None, :]
    X = design.reshape(P * n, -1) if valid.all() else design[valid]
    if not static:
        cells = cells + n * np.repeat(np.arange(T), [len(b) for b in bases])
    y = np.bincount(cells, minlength=P * n).reshape(P, n)[valid].astype(float)
    offset = np.full(X.shape[0], np.log((T if static else 1) * grid.cell_area))

    fit = fit_glm(X, y, family="poisson", columns=columns, offset=offset,
                  ridge=options.ridge)

    coef = {"intercept": float(fit.coef[0])}
    coef.update({n: float(c) for n, c in zip(covariate_names, fit.coef[1:k_cov])})
    model = IntensityModel(coefficients=coef, time_spline=basis,
                           time_spline_coef=fit.coef[k_cov:].copy() if basis else None)
    report = ConvergenceReport(
        iterations=fit.iterations, deviance=fit.deviance, converged=fit.converged,
        max_abs_score=fit.max_abs_score, deviance_trace=fit.deviance_trace,
        ridge=options.ridge, collapsed=static,
    )
    return FittedPropensity(model, report, options)


def predict_intensity(fit: FittedPropensity, covariates: dict[str, Raster],
                      t: int | None = None, grid: RasterGrid | None = None) -> Raster:
    """lambda raster from a covariate stack; NODATA cells come back as zero.

    Zero means "outside the model's support": such cells are excluded from
    integrals, and any event there raises an overlap violation downstream.
    Intercept-only models need an explicit ``grid``; models with a time
    spline need the period ``t``.
    """
    model = fit.model
    missing = [n for n in model.covariate_names if n not in covariates]
    if missing:
        raise ValueError("missing covariates: %s" % ", ".join(missing))
    grids = [covariates[n].grid for n in model.covariate_names]
    if grids:
        grid = grids[0]
    elif grid is None:
        raise ValueError("model has no covariates; pass the grid explicitly")
    if model.time_spline is not None and t is None:
        raise ValueError("model has time terms; predict_intensity needs t")
    lam = _intensity(model, {n: covariates[n].values for n in model.covariate_names},
                     grid, [t])
    return Raster(grid, lam[0])


def log_pattern_density(intensity: Raster, pattern: PointPattern,
                        integral: float | None = None) -> float:
    """Poisson log-density of a pattern w.r.t. the unit-rate reference.

    The shared exp(|Omega|) reference constant is omitted; it cancels in
    every ratio of densities on the same window.  ``_log_density`` gives
    its bits from a log table."""
    grid = intensity.grid
    total = integrate_raster(intensity) if integral is None else integral
    if len(pattern) == 0:
        return -total
    lam = intensity.values.ravel()[pattern.cell_indices(grid)]
    if not (lam > 0.0).all():
        i = int(np.flatnonzero(~(lam > 0.0))[0])
        raise OverlapViolationError(
            "event %d at (%g, %g) in period %d falls on a zero/NODATA intensity cell"
            % (i, pattern.points[i, 0], pattern.points[i, 1], pattern.time)
        )
    return float(np.sum(np.log(lam)) - total)


def _log_density(log_lam: np.ndarray, intensity: Raster, pattern: PointPattern,
                 integral: float) -> float:
    """``log_pattern_density``'s bits from ``log_lam``, the flat log of lambda.
    A non-finite sum (zero, NODATA, NaN or inf lambda) is handed to it."""
    if len(pattern) == 0:
        return -integral
    total = float(np.add.reduce(log_lam[pattern.cell_indices(intensity.grid)]))
    if not math.isfinite(total):
        return log_pattern_density(intensity, pattern, integral=integral)
    return total - integral


@dataclass
class FitDiagnostics:
    periods: np.ndarray
    observed: np.ndarray
    expected: np.ndarray
    residuals: np.ndarray
    train_periods: int
    outsample_expected: np.ndarray
    outsample_residuals: np.ndarray
    outsample_trend: float
    outsample_trend_se: float
    trend_flagged: bool


def fit_diagnostics(fit: FittedPropensity, series: PatternSeries,
                    split: float = 0.8) -> FitDiagnostics:
    """Observed vs expected counts per period, in and out of sample.

    Refits on the first ``floor(split*T)`` periods and flags an out-of-sample
    residual trend when the OLS slope on t exceeds three standard errors.
    """
    if not 0.0 < split < 1.0:
        raise ValueError("split must lie in (0, 1)")
    T = series.T
    periods = np.arange(1, T + 1)
    observed = np.array([float(len(series.treatment(t).base)) for t in periods])
    expected = np.array([fit.intensity_integral(series, t) for t in periods])
    residuals = observed - expected

    n_train = int(np.floor(split * T))
    if n_train < 1:
        raise ValueError("split leaves no training periods")
    train = prefix_series(series, n_train)
    refit = fit_poisson_intensity(train, fit.model.covariate_names, fit.options)
    out_expected = np.array([refit.intensity_integral(series, t) for t in periods])
    out_resid = observed - out_expected

    hold = periods > n_train
    x = periods[hold].astype(float)
    r = out_resid[hold]
    if x.size >= 3:
        xc = x - x.mean()
        denom = float(np.sum(xc * xc))
        slope = float(np.sum(xc * r) / denom)
        dof = max(x.size - 2, 1)
        resid = r - r.mean() - slope * xc
        se = float(np.sqrt(np.sum(resid * resid) / dof / denom))
    else:
        slope, se = 0.0, np.inf
    flagged = bool(abs(slope) > 3.0 * se)

    return FitDiagnostics(
        periods=periods, observed=observed, expected=expected, residuals=residuals,
        train_periods=n_train, outsample_expected=out_expected,
        outsample_residuals=out_resid, outsample_trend=slope,
        outsample_trend_se=se, trend_flagged=flagged,
    )


"""Treatment propensity: inhomogeneous Poisson intensity fits and pattern densities.

The propensity score of a treatment pattern is its Poisson density with respect
to the unit-rate reference process,

    log e_t(w) = sum_{s in w} log lambda_t(s) - integral_Omega lambda_t,

up to an additive constant shared by every intensity on the same window, which
cancels in all density ratios.  Fitting maximizes the discretized (cell-count)
Poisson likelihood on the shared grid, so the propensity, the interventions,
and every spatial integral are mutually consistent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import OverlapViolationError
from .geometry import Raster, RasterGrid, integrate_raster
from .glm import NaturalCubicBasis, fit_glm, natural_cubic_basis
from .patterns import PatternSeries, PointPattern, prefix_series


@dataclass
class PropensityOptions:
    time_spline_df: int = 0
    period_indicators: dict[str, np.ndarray] | None = None
    ridge: float = 0.0
    tol: float = 1e-8
    max_iter: int = 100


@dataclass(frozen=True)
class IntensityModel:
    """Log-linear intensity: intercept + named covariates + optional time terms."""

    coefficients: dict[str, float]
    time_spline: NaturalCubicBasis | None = None
    time_spline_coef: np.ndarray | None = None
    indicator_coef: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        for name, value in self.coefficients.items():
            if not np.isfinite(value):
                raise ValueError("non-finite coefficient for %r" % name)

    @property
    def covariate_names(self) -> list[str]:
        return [n for n in self.coefficients if n != "intercept"]

    def time_offset(self, t: int, indicators: dict[str, np.ndarray] | None) -> float:
        """Spatially constant part of the linear predictor at period t."""
        out = 0.0
        if self.time_spline is not None:
            z = self.time_spline.design(np.array([float(t)]))[0]
            out += float(z @ self.time_spline_coef)
        for name, coef in self.indicator_coef.items():
            if indicators is None or name not in indicators:
                raise ValueError("model uses period indicator %r but none was supplied" % name)
            out += coef * float(indicators[name][t - 1])
        return out


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
    """A fitted intensity model plus its per-period prediction cache."""

    def __init__(self, model: IntensityModel, report: ConvergenceReport,
                 options: PropensityOptions):
        self.model = model
        self.report = report
        self.options = options
        self._indicators = options.period_indicators
        # period -> (intensity raster, its integral) for the series
        # ``_cache_series``; key None when the model is static on that series,
        # so one prediction serves every period.
        self._cache_series: PatternSeries | None = None
        self._static = False
        self._cache: dict[int | None, tuple[Raster, float]] = {}

    @property
    def converged(self) -> bool:
        return self.report.converged

    def _predicted(self, series: PatternSeries, t: int) -> tuple[Raster, float]:
        if series is not self._cache_series:
            self._cache_series = series
            self._static = (series.is_static(self.model.covariate_names)
                            and self.model.time_spline is None
                            and not self.model.indicator_coef)
            self._cache = {}
        key = None if self._static else t
        if key not in self._cache:
            period = 1 if key is None else key
            covs = {n: series.covariate(n, period) for n in self.model.covariate_names}
            raster = predict_intensity(self, covs, t=key, grid=series.grid)
            self._cache[key] = (raster, integrate_raster(raster))
        return self._cache[key]

    def intensity(self, series: PatternSeries, t: int) -> Raster:
        """Predicted intensity raster for period t (cached)."""
        return self._predicted(series, t)[0]

    def intensity_integral(self, series: PatternSeries, t: int) -> float:
        return self._predicted(series, t)[1]

    def log_density(self, series: PatternSeries, t: int) -> float:
        """log e_t of the observed treatment pattern at period t."""
        raster, integral = self._predicted(series, t)
        return log_pattern_density(raster, series.treatment(t).base, integral=integral)


def _time_design(T: int, options: PropensityOptions):
    """Per-period design of spline and indicator columns; (T, m) and names."""
    cols, names = [], []
    basis = None
    if options.time_spline_df and options.time_spline_df > 0:
        basis = natural_cubic_basis(np.arange(1, T + 1, dtype=float),
                                    options.time_spline_df)
        Z = basis.design(np.arange(1, T + 1, dtype=float))
        for j in range(Z.shape[1]):
            cols.append(Z[:, j])
            names.append("time_spline_%d" % (j + 1))
    for name, values in sorted((options.period_indicators or {}).items()):
        vals = np.asarray(values, dtype=float)
        if vals.shape != (T,):
            raise ValueError("period indicator %r must have length T=%d" % (name, T))
        cols.append(vals)
        names.append("indicator:%s" % name)
    design = np.column_stack(cols) if cols else np.zeros((T, 0))
    return design, names, basis


def fit_poisson_intensity(series: PatternSeries, covariate_names,
                          options: PropensityOptions | None = None) -> FittedPropensity:
    """Fit log lambda_t = gamma . x_t by IRLS on the cell-count likelihood.

    Cells with a NODATA (NaN) covariate value are excluded from the
    likelihood.  When the covariate stack is static and no time terms are
    requested, periods collapse into per-cell totals with exposure T * area,
    which is the identical likelihood at a fraction of the cost.
    """
    options = options or PropensityOptions()
    covariate_names = list(covariate_names)
    if series.T < 1:
        raise ValueError("series must contain at least one period")
    grid = series.grid
    T, n = series.T, grid.n_cells
    time_design, time_names, basis = _time_design(T, options)
    columns = ["intercept"] + covariate_names + time_names
    k_cov = 1 + len(covariate_names)
    cellmask = grid.mask.ravel()
    bases = [series.treatment(t).base for t in range(1, T + 1)]
    cells = np.concatenate([np.zeros(0, int)] + [b.cell_indices(grid) for b in bases if len(b)])

    # One (P, n_cells, k) design in period-major order, NODATA cells dropped;
    # P = 1 when the periods collapse.
    static = series.is_static(covariate_names) and not time_names
    P = 1 if static else T
    design = np.empty((P, n, len(columns)))
    design[:, :, 0] = 1.0
    valid = np.tile(cellmask, (P, 1))
    for j, name in enumerate(covariate_names, start=1):
        cov = series.covariates[name]
        values = (cov.values if isinstance(cov, Raster) else cov).reshape(-1, n)
        design[:, :, j] = values  # a static raster's one row broadcasts
        valid &= np.isfinite(values)
    if time_names:
        design[:, :, k_cov:] = time_design[:, None, :]
    X = design.reshape(P * n, -1) if valid.all() else design[valid]
    if not static:
        cells = cells + n * np.repeat(np.arange(T), [len(b) for b in bases])
    y = np.bincount(cells, minlength=P * n).reshape(P, n)[valid].astype(float)
    offset = np.full(X.shape[0], np.log((T if static else 1) * grid.cell_area))

    fit = fit_glm(X, y, family="poisson", columns=columns, offset=offset,
                  ridge=options.ridge, tol=options.tol, max_iter=options.max_iter)

    coef = {"intercept": float(fit.coef[0])}
    coef.update({n: float(c) for n, c in zip(covariate_names, fit.coef[1:k_cov])})
    spline_coef = None
    if basis is not None:
        spline_coef = fit.coef[k_cov:k_cov + basis.df].copy()
    ind_coef = {}
    for name, c in zip(columns[k_cov + (basis.df if basis else 0):],
                       fit.coef[k_cov + (basis.df if basis else 0):]):
        ind_coef[name.split(":", 1)[1]] = float(c)

    model = IntensityModel(coefficients=coef, time_spline=basis,
                           time_spline_coef=spline_coef, indicator_coef=ind_coef)
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
    Intercept-only models need an explicit ``grid``.
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
    eta = np.full((grid.ny, grid.nx), model.coefficients["intercept"])
    for name in model.covariate_names:
        eta = eta + model.coefficients[name] * covariates[name].values
    if model.time_spline is not None or model.indicator_coef:
        if t is None:
            raise ValueError("model has time terms; predict_intensity needs t")
        eta = eta + model.time_offset(t, fit._indicators)
    valid = np.isfinite(eta) & grid.mask
    lam = np.where(valid, np.exp(np.where(valid, eta, 0.0)), 0.0)
    return Raster(grid, lam)


def log_pattern_density(intensity: Raster, pattern: PointPattern,
                        integral: float | None = None) -> float:
    """Poisson log-density of a pattern w.r.t. the unit-rate reference.

    The shared exp(|Omega|) reference constant is omitted; it cancels in
    every ratio of densities on the same window.
    """
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
    refit = fit_poisson_intensity(train, fit.model.covariate_names,
                                  _truncated_options(fit.options, n_train))
    # Out-of-sample prediction needs indicator values past the training window.
    refit._indicators = fit.options.period_indicators
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


def _truncated_options(options: PropensityOptions, n: int) -> PropensityOptions:
    ind = None
    if options.period_indicators:
        ind = {k: np.asarray(v)[:n] for k, v in options.period_indicators.items()}
    return PropensityOptions(time_spline_df=options.time_spline_df,
                             period_indicators=ind, ridge=options.ridge,
                             tol=options.tol, max_iter=options.max_iter)


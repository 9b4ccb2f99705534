"""IRLS fitting for Poisson and binomial GLMs, plus the natural cubic basis.

Both the treatment propensity (Poisson intensity on cell counts) and the
mediator score stages (point-level logistic regressions) run through
:func:`fit_glm`.  The solver is deliberately small and transparent: monotone
deviance via step-halving, a 1e-8 relative-deviance stopping rule, an optional
ridge penalty as a rank-deficiency escape hatch, and a rank check that names
the collinear columns: an unpivoted QR of the tall design, then a pivoted QR
of its small triangular factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import linalg

from .errors import ConvergenceError, RankDeficiencyError

_RANK_RTOL = 1e-10
_MAX_HALVINGS = 30


@dataclass
class GLMFit:
    """Coefficients plus the convergence evidence the contracts require."""

    coef: np.ndarray
    columns: list[str]
    family: str
    deviance: float
    deviance_trace: list[float]
    iterations: int
    converged: bool
    score: np.ndarray
    ridge: float = 0.0

    @property
    def max_abs_score(self) -> float:
        return float(np.max(np.abs(self.score))) if self.score.size else 0.0


def _check_rank(X: np.ndarray, columns, w: np.ndarray | None = None) -> None:
    Xw = X if w is None else X * np.sqrt(w)[:, None]
    # Xw = QR, so a pivoted QR of the small R has the |diagonal| and pivots a
    # pivoted QR of Xw would have; with n < k the last k - n pivots have no
    # diagonal entry and count as deficient.
    r = np.triu(linalg.lapack.dgeqrf(Xw)[0][:Xw.shape[1]])
    _, r, piv = linalg.qr(r, mode="raw", pivoting=True)
    diag = np.zeros(len(columns))
    diag[:min(r.shape)] = np.abs(np.diag(r))
    if diag.size == 0 or diag[0] == 0.0:
        raise RankDeficiencyError(columns)
    bad = diag < _RANK_RTOL * diag[0]
    if bad.any():
        raise RankDeficiencyError([columns[j] for j in piv[np.where(bad)[0]]])


def _poisson_deviance(y: np.ndarray, mu: np.ndarray, pos: np.ndarray) -> float:
    """Deviance with ``pos`` the indices of the positive counts."""
    term = np.zeros_like(mu)
    with np.errstate(divide="ignore", invalid="ignore"):
        term[pos] = y[pos] * np.log(y[pos] / mu[pos])
    return 2.0 * float(np.sum(term - (y - mu)))


def _binomial_deviance(y: np.ndarray, mu: np.ndarray) -> float:
    eps = 1e-12
    mu = np.clip(mu, eps, 1.0 - eps)
    ll = y * np.log(mu) + (1.0 - y) * np.log(1.0 - mu)
    ll_sat = np.where((y > 0) & (y < 1),
                      y * np.log(np.maximum(y, eps))
                      + (1 - y) * np.log(np.maximum(1 - y, eps)), 0.0)
    return 2.0 * float(np.sum(ll_sat - ll))


def fit_glm(X: np.ndarray, y: np.ndarray, family: str, columns=None,
            offset: np.ndarray | None = None, ridge: float = 0.0,
            tol: float = 1e-8, max_iter: int = 100) -> GLMFit:
    """Maximum-likelihood GLM fit by iteratively reweighted least squares.

    Parameters
    ----------
    X : (n, k) design matrix, intercept column included by the caller.
    y : response; counts for ``family="poisson"``, 0/1 for ``"binomial"``.
    family : "poisson" (log link) or "binomial" (logit link).
    offset : added to the linear predictor (e.g. log exposure), fixed.
    ridge : optional L2 penalty on all non-intercept-like columns; the
        penalized deviance is the monotone objective when it is nonzero.

    Raises
    ------
    RankDeficiencyError
        naming the collinear columns, before any iteration runs.
    ConvergenceError
        if the deviance has not stabilized after ``max_iter`` iterations,
        with the deviance trace attached; for logistic fits a diverging
        linear predictor triggers a complete-separation message instead.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, k = X.shape
    columns = list(columns) if columns is not None else ["x%d" % j for j in range(k)]
    offset = np.zeros(n) if offset is None else np.asarray(offset, dtype=float)
    if family not in ("poisson", "binomial"):
        raise ValueError("family must be 'poisson' or 'binomial'")
    if family == "poisson" and np.sum(y) == 0:
        raise ValueError(
            "all counts are zero: the Poisson log-likelihood is unbounded below "
            "in the intercept and no MLE exists"
        )

    # Penalize every column that is not constant (the intercept stays free).
    pen_mask = (X.max(axis=0) > X.min(axis=0)).astype(float)

    def mu_of(eta):
        if family == "poisson":
            return np.exp(eta)
        return 1.0 / (1.0 + np.exp(-eta))

    pos = np.flatnonzero(y > 0)

    def deviance_of(mu):
        return (_poisson_deviance(y, mu, pos) if family == "poisson"
                else _binomial_deviance(y, mu))

    def objective(beta, mu):
        pen = ridge * float(np.sum(pen_mask * beta * beta)) if ridge else 0.0
        return deviance_of(mu) + pen

    # Start from a flat fit through the mean response.
    beta = np.zeros(k)
    const_cols = np.where(pen_mask == 0)[0]
    if const_cols.size:
        j0 = const_cols[0]
        c = X[0, j0]
        if family == "poisson":
            mean_rate = np.sum(y) / np.sum(np.exp(offset))
            beta[j0] = math.log(max(mean_rate, 1e-12)) / c
        else:
            p0 = min(max(np.mean(y), 1e-6), 1.0 - 1e-6)
            beta[j0] = math.log(p0 / (1.0 - p0)) / c

    eta = X @ beta + offset
    mu = mu_of(eta)
    _check_rank(X, columns)
    obj = objective(beta, mu)
    trace = [obj]
    converged = False
    it = 0
    # X.T * w, filled in place each iteration (same layout, same products)
    XtW = np.empty_like(X.T)

    for it in range(1, max_iter + 1):
        if family == "poisson":
            w = mu
            z = (y - mu) / np.maximum(mu, 1e-300)
        else:
            w = np.clip(mu * (1.0 - mu), 1e-10, None)
            z = (y - mu) / w
        z += eta - offset
        np.multiply(X.T, w, out=XtW)
        H = XtW @ X
        if ridge:
            H = H + ridge * np.diag(pen_mask)
        rhs = XtW @ z
        try:
            proposal = np.linalg.solve(H, rhs)
        except np.linalg.LinAlgError:
            _check_rank(X, columns, w)
            raise

        # Step-halving keeps the (penalized) deviance monotone.
        step = 1.0
        new_beta, new_obj, new_eta, new_mu = beta, obj, eta, mu
        for _ in range(_MAX_HALVINGS + 1):
            cand = beta + step * (proposal - beta)
            cand_eta = X @ cand + offset
            with np.errstate(over="ignore"):
                cand_mu = mu_of(cand_eta)
            cand_obj = objective(cand, cand_mu)
            if math.isfinite(cand_obj) and cand_obj <= obj + 1e-12:
                new_beta, new_obj, new_eta, new_mu = cand, cand_obj, cand_eta, cand_mu
                break
            step *= 0.5

        rel_change = abs(obj - new_obj) / (abs(obj) + tol)
        beta, obj, eta, mu = new_beta, new_obj, new_eta, new_mu
        trace.append(obj)
        if rel_change < tol:
            converged = True
            break

    score = X.T @ (y - mu)
    if ridge:
        score = score - ridge * pen_mask * beta

    if not converged:
        if family == "binomial" and float(np.max(np.abs(eta))) > 30.0:
            raise ConvergenceError(
                "logistic fit did not converge and the linear predictor is "
                "diverging: data are likely completely separated; consider the "
                "ridge option",
                trace=trace,
            )
        raise ConvergenceError(
            "IRLS did not converge in %d iterations (final deviance %.6g)"
            % (max_iter, obj),
            trace=trace,
        )

    return GLMFit(coef=beta, columns=columns, family=family,
                  deviance=deviance_of(mu), deviance_trace=trace,
                  iterations=it, converged=converged, score=score, ridge=ridge)


@dataclass(frozen=True)
class NaturalCubicBasis:
    """Natural cubic spline basis: linear tails, C2 at interior knots.

    With ``df`` degrees of freedom (intercept excluded) the basis uses
    ``df + 1`` knots at quantiles and spans the functions
    ``x, N_1(x), ..., N_{df-1}(x)`` in the usual truncated-power
    construction.  ``df=1`` is the pure linear basis.
    """

    knots: np.ndarray

    def __post_init__(self):
        knots = np.asarray(self.knots, dtype=float)
        if knots.ndim != 1 or knots.size < 2 or np.any(np.diff(knots) <= 0):
            raise ValueError("knots must be a strictly increasing vector of length >= 2")
        knots.setflags(write=False)
        object.__setattr__(self, "knots", knots)

    @property
    def df(self) -> int:
        return self.knots.size - 1

    def design(self, x: np.ndarray) -> np.ndarray:
        """Evaluate the ``df`` basis functions at x; shape (n, df)."""
        x = np.asarray(x, dtype=float).ravel()
        cols = [x]
        kn = self.knots
        K = kn.size
        if K > 2:
            def d(j):
                num = np.maximum(x - kn[j], 0.0) ** 3 - np.maximum(x - kn[-1], 0.0) ** 3
                return num / (kn[-1] - kn[j])
            dlast = d(K - 2)
            for j in range(K - 2):
                cols.append(d(j) - dlast)
        return np.column_stack(cols)


def natural_cubic_basis(values: np.ndarray, df: int) -> NaturalCubicBasis:
    """Basis with knots at quantiles of the observed values.

    Requires at least ``df + 1`` distinct values (one per knot).
    """
    if df < 1:
        raise ValueError("df must be at least 1")
    vals = np.unique(np.asarray(values, dtype=float))
    if vals.size < df + 1:
        raise ValueError(
            "need at least %d distinct values for df=%d, got %d"
            % (df + 1, df, vals.size)
        )
    knots = np.quantile(vals, np.linspace(0.0, 1.0, df + 1))
    knots = np.unique(knots)
    if knots.size < df + 1:
        raise ValueError("quantile knots are not distinct; reduce df")
    return NaturalCubicBasis(knots=knots)

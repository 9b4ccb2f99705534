"""IRLS solver: bit identity with the reference loop, rank checks, memory."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import linalg

from geocausal import glm, mediation, propensity
from geocausal.errors import RankDeficiencyError
from geocausal.mediation import binary_tree, fit_mediator_score
from geocausal.patterns import PatternSeries, history_maps
from geocausal.propensity import fit_poisson_intensity
from geocausal.simulate import simulate_series
from geocausal.validation import default_dgp


def _reference_fit(X, y, family, columns, offset=None, ridge=0.0, tol=1e-8,
                   max_iter=100):
    """The IRLS loop written out plainly: a pivoted QR of the whole weighted
    design for the rank check and a fresh ``X.T * w`` every iteration."""

    def check_rank(w):
        _, r, piv = linalg.qr(X * np.sqrt(w)[:, None], mode="raw", pivoting=True)
        diag = np.abs(np.diag(r))
        if diag.size == 0 or diag[0] == 0.0:
            raise RankDeficiencyError(columns)
        bad = diag < 1e-10 * diag[0]
        if bad.any():
            raise RankDeficiencyError([columns[j] for j in piv[np.where(bad)[0]]])

    def deviance_of(mu):
        if family == "poisson":
            with np.errstate(divide="ignore", invalid="ignore"):
                term = np.where(y > 0, y * np.log(np.where(y > 0, y / mu, 1.0)), 0.0)
            return 2.0 * float(np.sum(term - (y - mu)))
        m = np.clip(mu, 1e-12, 1.0 - 1e-12)
        ll = y * np.log(m) + (1.0 - y) * np.log(1.0 - m)
        ll_sat = np.where((y > 0) & (y < 1),
                          y * np.log(np.maximum(y, 1e-12))
                          + (1 - y) * np.log(np.maximum(1 - y, 1e-12)), 0.0)
        return 2.0 * float(np.sum(ll_sat - ll))

    def mu_of(eta):
        return np.exp(eta) if family == "poisson" else 1.0 / (1.0 + np.exp(-eta))

    n, k = X.shape
    offset = np.zeros(n) if offset is None else offset
    pen_mask = (X.max(axis=0) > X.min(axis=0)).astype(float)

    def objective(beta, mu):
        pen = ridge * float(np.sum(pen_mask * beta * beta)) if ridge else 0.0
        return deviance_of(mu) + pen

    beta = np.zeros(k)
    j0 = np.where(pen_mask == 0)[0][0]
    if family == "poisson":
        beta[j0] = math.log(max(np.sum(y) / np.sum(np.exp(offset)), 1e-12)) / X[0, j0]
    else:
        p0 = min(max(np.mean(y), 1e-6), 1.0 - 1e-6)
        beta[j0] = math.log(p0 / (1.0 - p0)) / X[0, j0]
    eta = X @ beta + offset
    mu = mu_of(eta)
    check_rank(np.ones(n))
    obj = objective(beta, mu)
    trace = [obj]
    for _ in range(max_iter):
        if family == "poisson":
            w = mu
            z = eta - offset + (y - mu) / np.maximum(mu, 1e-300)
        else:
            w = np.clip(mu * (1.0 - mu), 1e-10, None)
            z = eta - offset + (y - mu) / w
        XtW = X.T * w
        H = XtW @ X
        if ridge:
            H = H + ridge * np.diag(pen_mask)
        proposal = np.linalg.solve(H, XtW @ z)
        step = 1.0
        new = (beta, obj, eta, mu)
        for _ in range(31):
            cand = beta + step * (proposal - beta)
            cand_eta = X @ cand + offset
            with np.errstate(over="ignore"):
                cand_mu = mu_of(cand_eta)
            cand_obj = objective(cand, cand_mu)
            if math.isfinite(cand_obj) and cand_obj <= obj + 1e-12:
                new = (cand, cand_obj, cand_eta, cand_mu)
                break
            step *= 0.5
        rel_change = abs(obj - new[1]) / (abs(obj) + tol)
        beta, obj, eta, mu = new
        trace.append(obj)
        if rel_change < tol:
            break
    score = X.T @ (y - mu)
    if ridge:
        score = score - ridge * pen_mask * beta
    return beta, trace, score


def _captured(monkeypatch, module, call):
    """The (X, y, family, columns, offset) that ``call`` hands to fit_glm."""
    seen = []

    def record(X, y, family, columns=None, offset=None, **kw):
        seen.append((X, y, family, list(columns), offset))
        return glm.fit_glm(X, y, family, columns=columns, offset=offset, **kw)

    monkeypatch.setattr(module, "fit_glm", record)
    call()
    monkeypatch.undo()
    return seen[0]


@pytest.fixture(scope="module")
def dynamic_series():
    """A marked series with decayed-distance history covariates per period."""
    dgp = default_dgp(treatment_rate=1.0, mediator=True, mediator_bonus=4.0)
    series = simulate_series(dgp, 60, 17)
    covs = dict(series.covariates, **history_maps(series, lags=(1, 7)))
    return PatternSeries(series.grid, series.treatments, series.outcomes, covs)


def _designs(monkeypatch, series):
    names = sorted(series.covariates)
    static = [n for n in names if "_hist_" not in n]
    return {
        "per-period": _captured(monkeypatch, propensity,
                                lambda: fit_poisson_intensity(series, names)),
        "static": _captured(monkeypatch, propensity,
                            lambda: fit_poisson_intensity(series, static)),
        "mediator": _captured(monkeypatch, mediation, lambda: fit_mediator_score(
            series, ["bump_a"], binary_tree("hit", "none"))),
    }


@pytest.mark.parametrize("case,ridge", [("per-period", 0.0), ("static", 0.0),
                                        ("per-period", 0.5), ("mediator", 0.0)])
def test_fit_matches_reference_loop_bit_for_bit(monkeypatch, dynamic_series, case, ridge):
    X, y, family, columns, offset = _designs(monkeypatch, dynamic_series)[case]
    if case == "per-period":
        assert X.shape[0] == dynamic_series.T * dynamic_series.grid.n_cells
        assert any("_hist_" in c for c in columns)
    fit = glm.fit_glm(X, y, family, columns=columns, offset=offset, ridge=ridge)
    coef, trace, score = _reference_fit(X, y, family, columns, offset, ridge)
    assert fit.iterations > 2
    assert np.array_equal(fit.coef, coef)
    assert np.array_equal(fit.deviance_trace, trace)
    assert np.array_equal(fit.score, score)


def test_duplicated_column_in_tall_design_is_named(monkeypatch, dynamic_series):
    X, y, _, columns, offset = _designs(monkeypatch, dynamic_series)["per-period"]
    j = columns.index("treatment_hist_7")
    X = np.column_stack([X, X[:, j]])
    with pytest.raises(RankDeficiencyError) as err:
        glm.fit_glm(X, y, "poisson", columns=columns + ["copy"], offset=offset)
    assert len(err.value.columns) == 1
    assert err.value.columns[0] in ("treatment_hist_7", "copy")


def test_fewer_rows_than_columns_is_rank_deficient():
    rng = np.random.default_rng(3)
    X = np.column_stack([np.ones(3), rng.normal(size=(3, 4))])
    with pytest.raises(RankDeficiencyError) as err:
        glm.fit_glm(X, np.array([1.0, 0.0, 2.0]), "poisson",
                    columns=["intercept", "a", "b", "c", "d"])
    assert len(err.value.columns) == 2


def test_fit_peak_memory_below_twice_the_design():
    rng = np.random.default_rng(11)
    n, k = 81_920, 11
    X = np.empty((n, k))
    X[:, 0] = 1.0
    X[:, 1:] = rng.uniform(0.0, 1.0, size=(n, k - 1))
    offset = np.full(n, math.log(0.01))
    y = rng.poisson(np.exp(X @ np.linspace(-1.0, 1.0, k) + offset)).astype(float)
    tracemalloc.start()
    try:
        glm.fit_glm(X, y, "poisson", offset=offset)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * X.nbytes

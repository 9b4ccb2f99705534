"""Mediator scores, delta shifts, mediation weights, and decomposition."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import compute_mediation_weights

from geocausal.effects import compute_weight_series
from geocausal.errors import OverlapViolationError
from geocausal.geometry import Raster, SpatialWindow, build_grid, normalize_raster
from geocausal.interventions import InterventionPair, MediatorIntervention, intensified
from geocausal.mediation import (
    MediatorScoreModel,
    StageSpec,
    auc_diagnostic,
    binary_tree,
    compute_mediation_weight_series,
    estimate_mediation_effects,
    fit_mediator_score,
    mediator_log_density,
    two_stage_tree,
)
from geocausal.patterns import SmoothingSpec
from geocausal.propensity import fit_poisson_intensity
from geocausal.simulate import simulate_series
from geocausal.validation import default_dgp, interior_region


@pytest.fixture(scope="module")
def med_world():
    dgp = default_dgp(treatment_rate=0.5, mediator=True, mediator_bonus=4.0)
    series = simulate_series(dgp, 400, 99)
    fit = fit_poisson_intensity(series, dgp.covariates.keys())
    score = fit_mediator_score(series, ["bump_a"], binary_tree("hit", "none"))
    baseline = normalize_raster(dgp.treatment_intensity())
    return dgp, series, fit, score, baseline


def test_tree_validation():
    with pytest.raises(ValueError):
        _ = StageSpec("bad", universe=("a",), positive=("a",))
    stages = two_stage_tree()
    model_cats = {"civilian", "military", "other"}
    assert set(stages[0].universe) == model_cats
    # a stage whose universe is not a branch is rejected
    with pytest.raises(ValueError):
        fit_mediator_score.__wrapped__ if False else None
        from geocausal.mediation import _validate_tree

        _validate_tree([StageSpec("a", ("x", "y", "z"), ("x",)),
                        StageSpec("b", ("x", "y"), ("x",))])
    # unresolved leaves are rejected
    from geocausal.mediation import _validate_tree

    with pytest.raises(ValueError):
        _validate_tree([StageSpec("only", ("x", "y", "z"), ("x",))])


def test_two_stage_probabilities_sum_to_one():
    from geocausal.glm import GLMFit

    stages = two_stage_tree()
    fits = [
        GLMFit(coef=np.array([0.3, 1.0]), columns=["intercept", "x"],
               family="binomial", deviance=0.0, deviance_trace=[], iterations=1,
               converged=True, score=np.zeros(2)),
        GLMFit(coef=np.array([-0.2, 0.5]), columns=["intercept", "x"],
               family="binomial", deviance=0.0, deviance_trace=[], iterations=1,
               converged=True, score=np.zeros(2)),
    ]
    model = MediatorScoreModel(stages=stages, covariate_names=["x"], fits=fits)
    X = np.linspace(-3, 3, 30).reshape(-1, 1)
    probs = model.category_probabilities(X)
    total = sum(probs.values())
    assert np.max(np.abs(total - 1.0)) < 1e-12

    # delta shift on "military" leaves "other" untouched, sums stay one
    shifted = model.category_probabilities(
        X, shift=MediatorIntervention(delta=2.5, target_mark="military"))
    assert np.array_equal(shifted["other"], probs["other"])
    assert np.all(shifted["military"] > probs["military"])
    assert np.max(np.abs(sum(shifted.values()) - 1.0)) < 1e-12

    # shifting the complement category moves it up instead
    shifted_c = model.category_probabilities(
        X, shift=MediatorIntervention(delta=3.0, target_mark="civilian"))
    assert np.all(shifted_c["civilian"] > probs["civilian"])
    assert np.array_equal(shifted_c["other"], probs["other"])

    # delta monotonicity at every point
    s2 = model.category_probabilities(
        X, shift=MediatorIntervention(delta=5.0, target_mark="military"))
    assert np.all(s2["military"] >= shifted["military"])


def test_fit_mediator_score_recovery():
    # synthetic logistic DGP: coefficients recovered within 0.1 at ~1e4 points
    dgp = default_dgp(treatment_rate=6.0, mediator=True)
    series = simulate_series(dgp, 2000, 3)
    n_points = sum(len(series.treatment(t)) for t in range(1, series.T + 1))
    assert n_points > 8000
    score = fit_mediator_score(series, ["bump_a"], binary_tree("hit", "none"))
    fitted = dict(zip(score.fits[0].columns, score.fits[0].coef))
    assert abs(fitted["intercept"] - dgp.mediator_coef["intercept"]) < 0.1
    assert abs(fitted["bump_a"] - dgp.mediator_coef["bump_a"]) < 0.1


def test_fit_mediator_intercept_only_share():
    # binomial MC: intercept-only fit matches the empirical share
    dgp = default_dgp(treatment_rate=2.0, mediator=True)
    series = simulate_series(dgp, 500, 4)
    score = fit_mediator_score(series, [], binary_tree("hit", "none"))
    marks = [m for t in range(1, series.T + 1) for m in series.treatment(t).marks]
    share = np.mean([m == "hit" for m in marks])
    fitted_p = 1.0 / (1.0 + math.exp(-score.fits[0].coef[0]))
    se = math.sqrt(share * (1 - share) / len(marks))
    assert abs(fitted_p - share) < max(3 * se, 1e-10)


def test_fit_mediator_empty_stage_errors(med_world):
    dgp, series, fit, score, baseline = med_world
    with pytest.raises(ValueError):
        fit_mediator_score(series, [], binary_tree("unseen", "none"))


def test_auc_diagnostic():
    scores = np.array([0.9, 0.8, 0.2, 0.1])
    labels = np.array([1, 1, 0, 0])
    assert auc_diagnostic(scores, labels) == 1.0
    assert auc_diagnostic(-scores, labels) == 0.0  # reversing flips to 1 - AUC
    tied = auc_diagnostic(np.ones(4), labels)
    assert tied == pytest.approx(0.5)
    with pytest.raises(ValueError):
        auc_diagnostic(scores, np.ones(4))
    # permutation MC: independent scores give AUC near half
    rng = np.random.default_rng(5)
    n = 4000
    s, l = rng.uniform(size=n), rng.uniform(size=n) < 0.4
    se = math.sqrt(n / (12 * l.sum() * (~l).sum()))  # Wilcoxon null SE
    assert abs(auc_diagnostic(s, l) - 0.5) < 3 * se


def test_mediator_log_density_hand_values():
    from geocausal.glm import GLMFit

    stages = binary_tree("hit", "none")
    # intercept-only with P(hit) = 0.5 and 0.25 requires two separate points;
    # use a covariate to set per-point probabilities
    coef = np.array([0.0, 1.0])
    fits = [GLMFit(coef=coef, columns=["intercept", "x"], family="binomial",
                   deviance=0.0, deviance_trace=[], iterations=1, converged=True,
                   score=np.zeros(2))]
    model = MediatorScoreModel(stages=stages, covariate_names=["x"], fits=fits)
    x1 = 0.0                      # p = 0.5
    x2 = math.log(1.0 / 3.0)      # p = 0.25
    X = np.array([[x1], [x2]])
    out = mediator_log_density(model, ["hit", "hit"], X)
    assert out == pytest.approx(math.log(0.125), rel=1e-12)
    assert mediator_log_density(model, [], np.zeros((0, 1))) == 0.0
    # delta = 1 shift is the identity to float rounding
    same = mediator_log_density(model, ["hit", "hit"], X,
                                shift=MediatorIntervention(1.0, "hit"))
    assert same == pytest.approx(out, abs=1e-12)


def test_mediation_weights_passthrough_equals_ate(med_world):
    dgp, series, fit, score, baseline = med_world
    iv = intensified(baseline, 0.7)
    pair = InterventionPair(treatment=iv, mediator=None, L=3)
    med_ws = compute_mediation_weight_series(series, fit, score, pair, 3)
    ate_ws = compute_weight_series(series, fit, iv, 3)
    assert np.array_equal(med_ws.weights, ate_ws.weights)


def test_mediation_weights_identity(med_world):
    dgp, series, fit, score, baseline = med_world
    from geocausal.geometry import integrate_raster
    from geocausal.interventions import TreatmentIntervention

    lam = fit.intensity(series, 1)
    iv = TreatmentIntervention(intensity=lam, expected_count=integrate_raster(lam))
    pair = InterventionPair(treatment=iv, mediator=None, L=2)
    ws = compute_mediation_weight_series(series, fit, score, pair, 2)
    assert np.max(np.abs(ws.weights - 1.0)) < 1e-12


def test_mediation_weights_log_vs_direct(med_world):
    dgp, series, fit, score, baseline = med_world
    pair = InterventionPair(treatment=intensified(baseline, 0.7),
                            mediator=MediatorIntervention(2.0, "hit"), L=2)
    ws = compute_mediation_weight_series(series, fit, score, pair, 2)
    for t in (2, 100, 300):
        w = compute_mediation_weights(series, fit, score, pair, 2, t)
        assert ws.weights[t - 2] == pytest.approx(w, rel=1e-12)


@pytest.mark.parametrize("L", [1, 2, 3, 9])
def test_mediation_weights_raster_list_matches_scalar(med_world, L):
    dgp, series, fit, score, baseline = med_world
    from geocausal.interventions import TreatmentIntervention

    shape = normalize_raster(fit.intensity(series, 1))
    iv = TreatmentIntervention(
        intensity=[Raster(series.grid, 0.7 * baseline.values),
                   Raster(series.grid, 0.7 * shape.values)],
        expected_count=0.7)
    pair = InterventionPair(treatment=iv, mediator=MediatorIntervention(2.0, "hit"), L=L)
    ws = compute_mediation_weight_series(series, fit, score, pair, L)
    assert len(ws) == series.T - L + 1
    for t in range(L, series.T + 1):
        assert ws.weights[t - L] == pytest.approx(
            compute_mediation_weights(series, fit, score, pair, L, t), rel=1e-12)


def test_decomposition_exact(med_world):
    dgp, series, fit, score, baseline = med_world
    spec = SmoothingSpec(bandwidth=0.4)
    region = interior_region(series.grid)
    pairA = InterventionPair(intensified(baseline, 0.8),
                             MediatorIntervention(2.5, "hit"), L=2)
    pairB = InterventionPair(intensified(baseline, 0.4), None, L=2)
    eff = estimate_mediation_effects(series, fit, score, pairA, pairB, spec,
                                     region, 2)
    for attr in ("ipw", "hajek"):
        te = getattr(eff.total, attr)
        de, ie = getattr(eff.direct, attr), getattr(eff.indirect, attr)
        de2, ie2 = getattr(eff.alt_direct, attr), getattr(eff.alt_indirect, attr)
        assert te == pytest.approx(de + ie, abs=1e-10)
        assert te == pytest.approx(de2 + ie2, abs=1e-10)


def _corner_weights(monkeypatch, *args):
    """Run estimate_mediation_effects and capture its four corner weights."""
    import geocausal.mediation as mediation

    calls = []
    original = mediation._estimate_from_weights

    def record(smoothed, region, w1, w2, L):
        calls.append((w1, w2))
        return original(smoothed, region, w1, w2, L)

    monkeypatch.setattr(mediation, "_estimate_from_weights", record)
    estimate_mediation_effects(*args)
    # total (a, b), direct (a, ba), indirect (ba, b), alt_indirect (a, ab)
    return {"a": calls[0][0], "b": calls[0][1], "ba": calls[1][1], "ab": calls[3][1]}


@pytest.mark.parametrize("L", [2, 3])
def test_corner_weights_match_weight_series(med_world, monkeypatch, L):
    dgp, series, fit, score, baseline = med_world
    spec = SmoothingSpec(bandwidth=0.4)
    region = interior_region(series.grid)
    shifted = InterventionPair(intensified(baseline, 0.8),
                               MediatorIntervention(2.5, "hit"), L=L)
    passthrough = InterventionPair(intensified(baseline, 0.4), None, L=L)
    corners = _corner_weights(monkeypatch, series, fit, score, shifted, passthrough,
                              spec, region, L)
    for key, treatment, mediator in (
            ("a", shifted, shifted), ("b", passthrough, passthrough),
            ("ba", passthrough, shifted), ("ab", shifted, passthrough)):
        pair = InterventionPair(treatment.treatment, mediator.mediator, L=L)
        ws = compute_mediation_weight_series(series, fit, score, pair, L)
        assert np.array_equal(corners[key].log_weights, ws.log_weights), key
        assert np.array_equal(corners[key].weights, ws.weights), key


def test_estimate_computes_each_shared_series_once(med_world, monkeypatch):
    import geocausal.effects as effects
    import geocausal.mediation as mediation
    from geocausal.propensity import FittedPropensity

    dgp, series, fit, score, baseline = med_world
    counts = {"propensity": 0, "treatment": 0, "mediator": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(FittedPropensity, "log_density",
                        counting("propensity", FittedPropensity.log_density))
    monkeypatch.setattr(effects, "log_intervention_density",
                        counting("treatment", effects.log_intervention_density))
    monkeypatch.setattr(mediation, "_mediator_period_ratio",
                        counting("mediator", mediation._mediator_period_ratio))
    pairA = InterventionPair(intensified(baseline, 0.8),
                             MediatorIntervention(2.5, "hit"), L=2)
    pairB = InterventionPair(intensified(baseline, 0.4), None, L=2)
    estimate_mediation_effects(series, fit, score, pairA, pairB,
                               SmoothingSpec(bandwidth=0.4),
                               interior_region(series.grid), 2)
    T = series.T
    assert counts == {"propensity": T, "treatment": 2 * T, "mediator": 2 * T}


def test_point_covariates_read_the_cached_cell_index(med_world, monkeypatch):
    from geocausal.geometry import RasterGrid
    from geocausal.mediation import mediator_log_ratios, point_covariates

    dgp, series, fit, score, baseline = med_world
    grid = series.grid
    t = next(t for t in range(1, series.T + 1) if len(series.treatment(t)) > 1)
    pat = series.treatment(t).base
    row, col = grid.cell_index(pat.points)
    want = series.covariate("bump_a", t).values[row, col]
    for tt in range(1, series.T + 1):
        series.treatment(tt).base.cell_indices(grid)
    calls = []
    real = RasterGrid.cell_index
    monkeypatch.setattr(RasterGrid, "cell_index",
                        lambda self, pts: calls.append(1) or real(self, pts))
    got = point_covariates(series, ["bump_a"], t, pat)
    assert got.tobytes() == want[:, None].tobytes()
    fit_mediator_score(series, ["bump_a"], binary_tree("hit", "none"))
    mediator_log_ratios(series, score, MediatorIntervention(2.5, "hit"))
    assert calls == []


def test_degenerate_contrasts(med_world):
    dgp, series, fit, score, baseline = med_world
    spec = SmoothingSpec(bandwidth=0.4)
    region = interior_region(series.grid)
    med = MediatorIntervention(2.0, "hit")

    # same mediator on both arms: IE = 0 exactly, TE = DE
    pairA = InterventionPair(intensified(baseline, 0.8), med, L=2)
    pairB = InterventionPair(intensified(baseline, 0.4), med, L=2)
    eff = estimate_mediation_effects(series, fit, score, pairA, pairB, spec,
                                     region, 2)
    assert eff.indirect.ipw == 0.0 and eff.indirect.hajek == 0.0
    assert eff.total.ipw == pytest.approx(eff.direct.ipw, abs=1e-12)

    # same treatment on both arms: DE = 0 exactly, TE = IE
    shared = intensified(baseline, 0.6)
    pairA = InterventionPair(shared, med, L=2)
    pairB = InterventionPair(shared, None, L=2)
    eff = estimate_mediation_effects(series, fit, score, pairA, pairB, spec,
                                     region, 2)
    assert eff.direct.ipw == 0.0 and eff.direct.hajek == 0.0
    assert eff.total.ipw == pytest.approx(eff.indirect.ipw, abs=1e-12)


def test_zero_probability_mark_is_overlap_violation():
    from geocausal.glm import GLMFit

    stages = binary_tree("hit", "none")
    fits = [GLMFit(coef=np.array([80.0]), columns=["intercept"], family="binomial",
                   deviance=0.0, deviance_trace=[], iterations=1, converged=True,
                   score=np.zeros(1))]
    model = MediatorScoreModel(stages=stages, covariate_names=[], fits=fits)
    X = np.zeros((1, 0))
    with pytest.raises(OverlapViolationError):
        mediator_log_density(model, ["none"], X)  # P(none) = expit(-80) underflows


def test_passthrough_ratios_skip_the_covariate_gather(med_world):
    from geocausal.mediation import mediator_log_ratios
    from geocausal.patterns import PatternSeries

    dgp, series, fit, score, baseline = med_world
    t = next(t for t in range(1, series.T + 1) if len(series.treatment(t)) > 0)
    row, col = series.grid.cell_index(series.treatment(t).points[:1])
    values = series.covariate("bump_a", t).values.copy()
    values[row, col] = np.nan
    covs = dict(series.covariates, bump_a=Raster(series.grid, values))
    holed = PatternSeries(series.grid, series.treatments, series.outcomes, covs)
    ratios = mediator_log_ratios(holed, score, None)
    assert ratios.tobytes() == np.zeros(series.T).tobytes()
    with pytest.raises(ValueError, match="NODATA .*period %d" % t):
        mediator_log_ratios(holed, score, MediatorIntervention(2.5, "hit"))

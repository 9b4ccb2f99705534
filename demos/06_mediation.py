"""Causal mediation: mediator scores, delta shifts, and TE = DE + IE.

Fits a stage-logistic mediator score on marked treatment points, designs a
delta-shift intervention on the fitted score, and decomposes the total
effect into direct and indirect parts (exactly, in both orderings).
"""

import numpy as np

from geocausal import (
    InterventionPair,
    MediatorIntervention,
    SmoothingSpec,
    auc_diagnostic,
    binary_tree,
    estimate_mediation_effects,
    fit_mediator_score,
    fit_poisson_intensity,
    intensified,
    normalize_raster,
    simulate_series,
)
from geocausal.mediation import point_covariates
from geocausal.validation import default_dgp, interior_region

dgp = default_dgp(treatment_rate=0.5, mediator=True, mediator_bonus=6.0)
series = simulate_series(dgp, T=2000, seed=41)
fit = fit_poisson_intensity(series, dgp.covariates.keys())

score = fit_mediator_score(series, ["bump_a"], binary_tree("hit", "none"))
print("mediator stage fit: deviance %.1f, converged %s"
      % (score.fits[0].deviance, score.fits[0].converged))

# rank-based AUC of the fitted stage on the training marks
X, y = [], []
for t in range(1, series.T + 1):
    pat = series.treatment(t)
    if len(pat):
        X.append(point_covariates(series, ["bump_a"], t, pat.base))
        y.extend(m == "hit" for m in pat.marks)
scores = score.stage_probabilities(np.vstack(X))[0]
print("stage AUC: %.3f" % auc_diagnostic(scores, np.array(y)))

baseline = normalize_raster(dgp.treatment_intensity())
region = interior_region(dgp.grid)
spec = SmoothingSpec(bandwidth=0.4)
L = 2

pairA = InterventionPair(intensified(baseline, 0.1),
                         MediatorIntervention(delta=2.5, target_mark="hit"), L=L)
pairB = InterventionPair(intensified(baseline, 0.1), None, L=L)

effects = estimate_mediation_effects(series, fit, score, pairA, pairB,
                                     spec, region, L)
for name in ("total", "direct", "indirect"):
    e = getattr(effects, name)
    print("%-8s hajek %+.4f  ci95 [%+.4f, %+.4f]"
          % (name, e.hajek, e.ci95[0], e.ci95[1]))
gap = effects.total.hajek - effects.direct.hajek - effects.indirect.hajek
print("TE - DE - IE = %.2e (exact decomposition)" % gap)

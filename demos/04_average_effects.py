"""Average treatment effects of intensified interventions.

Estimates the effect of raising the daily event count, compares IPW and
Hajek point estimates with their conservative intervals, checks the answer
against the exact truth, and decomposes the effect surface by
distance from a polyline feature.
"""

import numpy as np

from geocausal import (
    InterventionPair,
    SmoothingSpec,
    compute_weight_series,
    effect_by_distance_band,
    effect_surface,
    estimate_ate,
    expected_region_outcome,
    fit_poisson_intensity,
    intensified,
    normalize_raster,
    simulate_series,
)
from geocausal.validation import default_dgp, interior_region

dgp = default_dgp()
series = simulate_series(dgp, T=3000, seed=21)
fit = fit_poisson_intensity(series, dgp.covariates.keys())
baseline = normalize_raster(dgp.treatment_intensity())
region = interior_region(dgp.grid)
spec = SmoothingSpec(bandwidth=0.45)

pairs = {c: InterventionPair(intensified(baseline, c), L=3) for c in (0.16, 0.06)}
est = estimate_ate(series, fit, pairs[0.16], pairs[0.06], spec, region)
print("effect of 0.16 vs 0.06 events/day over %d periods:" % est.n_periods)
print("  ipw   %+.3f  ci95(sigma2*) [%+.3f, %+.3f]"
      % (est.ipw, est.ipw_ci95[0], est.ipw_ci95[1]))
print("  hajek %+.3f  ci95(sandwich) [%+.3f, %+.3f]"
      % (est.hajek, est.ci95[0], est.ci95[1]))
print("  effective sample sizes: %s" % {k: round(v) for k, v in est.ess.items()})

# the outcome rule is linear in event mass: the truth is an intensity integral
truth = (expected_region_outcome(dgp, [], pairs[0.16], 3, region)
         - expected_region_outcome(dgp, [], pairs[0.06], 3, region))
print("exact truth %.3f" % truth)

# where does the effect sit relative to a road?
wA = compute_weight_series(series, fit, pairs[0.16].treatment, 3)
wB = compute_weight_series(series, fit, pairs[0.06].treatment, 3)
surface = effect_surface(series, spec, wA, wB)
road = [np.array([[0.0, 5.0], [10.0, 5.0]])]
shares = effect_by_distance_band(surface, road, [1.0, 2.0, 5.0, 10.0])
for d, share in shares.items():
    print("share of the total effect within %4.1f km of the road: %.2f"
          % (d, share))

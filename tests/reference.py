"""Scalar references for the vectorized weight engine.

Each function computes one period's weight the slow way, one density ratio
at a time, exactly as the window's definition reads; the tests compare
``compute_weight_series`` and ``compute_mediation_weight_series`` against
them.
"""

import math

from geocausal.errors import OverlapViolationError
from geocausal.interventions import log_intervention_density
from geocausal.mediation import _mediator_period_ratio


def _period_log_ratio(series, propensity, iv, t, offset):
    """Log density ratio (intervention over propensity) of period t's
    treatment pattern, reading the intervention's ``offset``-th raster."""
    pattern = series.treatment(t).base
    try:
        num = log_intervention_density(iv, pattern, offset=offset)
        den = propensity.log_density(series, t)
    except OverlapViolationError as err:
        raise OverlapViolationError("period %d: %s" % (t, err)) from err
    return num - den


def compute_weights(series, propensity, iv, L, t):
    """Weight of period t: exp of the summed log density ratios over the window."""
    if t < L:
        raise ValueError("t must be at least L")
    if L < 1 or t > series.T:
        raise ValueError("invalid (L, t) for a series of length %d" % series.T)
    log_w = 0.0
    for offset, tt in enumerate(range(t - L + 1, t + 1)):
        log_w += _period_log_ratio(series, propensity, iv, tt, offset)
    if not math.isfinite(log_w):
        raise ValueError("non-finite log-weight at t=%d" % t)
    return math.exp(log_w)


def compute_mediation_weights(series, propensity, model, iv, L, t):
    """Weight of period t with both treatment and mediator density ratios."""
    if t < L:
        raise ValueError("t must be at least L")
    log_w = 0.0
    for offset, tt in enumerate(range(t - L + 1, t + 1)):
        log_w += _period_log_ratio(series, propensity, iv.treatment, tt, offset)
        log_w += _mediator_period_ratio(series, model, iv.mediator, tt)
    if not math.isfinite(log_w):
        raise ValueError("non-finite mediation log-weight at t=%d" % t)
    return math.exp(log_w)

"""Mediator score models, mediation weights, and effect decomposition.

Marks on treatment points follow a small binary tree of logistic stages (for
the three-category case: stage 1 separates classifiable from not, stage 2
separates the target category from its complement).  Stage probabilities
compose into per-point category probabilities that sum to one by
construction.  A delta shift multiplies the odds of the target category
within its terminal stage, leaving categories outside that stage untouched.

Mediation weights extend the treatment weights with the mediator density
ratio; total, direct, and indirect effects are contrasts of the four corner
estimates and decompose exactly because the middle corner is shared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .effects import (
    EffectEstimate,
    SmoothedOutcomes,
    WeightSeries,
    _estimate_from_weights,
    intervention_log_densities,
    propensity_log_densities,
    window_weights,
)
from .errors import OverlapViolationError
from .geometry import Region
from .glm import GLMFit, fit_glm
from .interventions import InterventionPair, MediatorIntervention, incremental_shift
from .patterns import PatternSeries, PointPattern, SmoothingSpec
from .propensity import FittedPropensity


@dataclass(frozen=True)
class StageSpec:
    """One binary split: universe of categories and its positive side."""

    name: str
    universe: tuple[str, ...]
    positive: tuple[str, ...]

    def __post_init__(self):
        uni, pos = set(self.universe), set(self.positive)
        if not pos or not pos < uni:
            raise ValueError(
                "stage %r: positive categories must be a proper nonempty subset "
                "of the universe" % self.name
            )


def two_stage_tree(classifiable=("civilian", "military"), other="other",
                   target="military") -> list[StageSpec]:
    """The standard tree: classifiable-vs-not, then target-vs-complement."""
    all_cats = tuple(classifiable) + (other,)
    return [
        StageSpec("classifiable", universe=all_cats, positive=tuple(classifiable)),
        StageSpec("target", universe=tuple(classifiable), positive=(target,)),
    ]


def binary_tree(positive="hit", negative="none") -> list[StageSpec]:
    """One-stage tree for a binary mediator (e.g. a casualty indicator)."""
    return [StageSpec("mediator", universe=(positive, negative), positive=(positive,))]


def _validate_tree(stages: list[StageSpec]) -> tuple[str, ...]:
    """Check the stages form a proper nested binary tree; return the leaves."""
    if not stages:
        raise ValueError("at least one stage is required")
    partitions = [frozenset(stages[0].universe)]
    for stage in stages:
        uni = frozenset(stage.universe)
        if uni not in partitions:
            raise ValueError(
                "stage %r universe is not a current branch of the tree" % stage.name
            )
        pos = frozenset(stage.positive)
        partitions.remove(uni)
        partitions.extend([pos, uni - pos])
    for part in partitions:
        if len(part) != 1:
            raise ValueError(
                "tree leaves must be single categories; %s is unresolved"
                % sorted(part)
            )
    return tuple(sorted(stages[0].universe))


def point_covariates(series: PatternSeries, names, t: int,
                     pattern: PointPattern) -> np.ndarray:
    """Covariate values read off the period-t rasters at the pattern's events."""
    pts = pattern.points
    cells = pattern.cell_indices(series.grid)
    cols = []
    for name in names:
        vals = series.covariate(name, t).values.ravel()[cells]
        if np.any(~np.isfinite(vals)):
            i = int(np.where(~np.isfinite(vals))[0][0])
            raise ValueError(
                "covariate %r is NODATA at event (%g, %g), period %d"
                % (name, pts[i, 0], pts[i, 1], t)
            )
        cols.append(vals)
    return np.column_stack(cols) if cols else np.zeros((pts.shape[0], 0))


@dataclass
class MediatorScoreModel:
    """Fitted stage logistics over named point-level covariates."""

    stages: list[StageSpec]
    covariate_names: list[str]
    fits: list[GLMFit]
    categories: tuple[str, ...] = field(init=False)

    def __post_init__(self):
        self.categories = _validate_tree(self.stages)
        if len(self.fits) != len(self.stages):
            raise ValueError("one fitted logistic per stage")

    def stage_probabilities(self, X: np.ndarray) -> list[np.ndarray]:
        """Per-stage success probabilities at covariate rows X, in (0, 1)."""
        design = np.column_stack([np.ones(X.shape[0]), X])
        out = []
        for fit in self.fits:
            eta = design @ fit.coef
            out.append(1.0 / (1.0 + np.exp(-eta)))
        return out

    def category_probabilities(self, X: np.ndarray,
                               shift: MediatorIntervention | None = None
                               ) -> dict[str, np.ndarray]:
        """Per-point category probabilities, optionally delta-shifted.

        The shift applies in the target category's terminal stage (the last
        stage whose universe contains it): the stage probability moves by the
        incremental odds map on whichever side the target sits, so categories
        outside that stage keep their probabilities exactly.
        """
        stage_p = self.stage_probabilities(X)
        if shift is not None:
            idx = self._terminal_stage(shift.target_mark)
            stage = self.stages[idx]
            if shift.target_mark in stage.positive:
                stage_p[idx] = incremental_shift(stage_p[idx], shift.delta)
            else:
                stage_p[idx] = 1.0 - incremental_shift(1.0 - stage_p[idx], shift.delta)
        n = X.shape[0]
        probs = {cat: np.ones(n) for cat in self.categories}
        for stage, p in zip(self.stages, stage_p):
            for cat in stage.universe:
                probs[cat] = probs[cat] * (p if cat in stage.positive else 1.0 - p)
        return probs

    def _terminal_stage(self, category: str) -> int:
        idx = None
        for i, stage in enumerate(self.stages):
            if category in stage.universe:
                idx = i
        if idx is None:
            raise ValueError("unknown category %r" % category)
        return idx


def fit_mediator_score(series: PatternSeries, covariate_names,
                       stages: list[StageSpec], ridge: float = 0.0) -> MediatorScoreModel:
    """Fit the per-stage logistic regressions on all marked treatment points."""
    covariate_names = list(covariate_names)
    categories = _validate_tree(stages)
    rows_X, rows_mark = [], []
    for t in range(1, series.T + 1):
        pat = series.treatment(t)
        if len(pat) == 0:
            continue
        rows_X.append(point_covariates(series, covariate_names, t, pat.base))
        rows_mark.extend(pat.marks)
    if not rows_mark:
        raise ValueError("no marked treatment points to fit on")
    X = np.vstack(rows_X)
    marks = np.array(rows_mark)
    unknown = set(marks) - set(categories)
    if unknown:
        raise ValueError("marks %s are not in the category tree" % sorted(unknown))

    fits = []
    for stage in stages:
        in_stage = np.isin(marks, list(stage.universe))
        if not in_stage.any():
            raise ValueError("stage %r has no observations in its universe" % stage.name)
        y = np.isin(marks[in_stage], list(stage.positive)).astype(float)
        if y.min() == y.max():
            raise ValueError(
                "stage %r is empty on one side (all marks in %s)"
                % (stage.name, "positive" if y.min() == 1 else "negative")
            )
        design = np.column_stack([np.ones(int(in_stage.sum())), X[in_stage]])
        fits.append(fit_glm(design, y, family="binomial",
                            columns=["intercept"] + covariate_names,
                            ridge=ridge))
    return MediatorScoreModel(stages=list(stages), covariate_names=covariate_names,
                              fits=fits)


def auc_diagnostic(scores: np.ndarray, labels: np.ndarray) -> float:
    """Rank-based AUC with half credit for ties."""
    from scipy.stats import rankdata

    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels).astype(bool)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs at least one positive and one negative label")
    ranks = rankdata(scores)
    return float((ranks[labels].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def mediator_log_density(model: MediatorScoreModel, marks, X: np.ndarray,
                         shift: MediatorIntervention | None = None) -> float:
    """Sum of log category probabilities of the observed marks.

    Zero for an empty pattern (empty product).  A zero-probability observed
    mark is an overlap violation naming the offending point.
    """
    marks = list(marks)
    if not marks:
        return 0.0
    probs = model.category_probabilities(X, shift=shift)
    out = 0.0
    for i, mark in enumerate(marks):
        if mark not in probs:
            raise ValueError("mark %r is not a category of the model" % mark)
        p = float(probs[mark][i])
        if not p > 0.0:
            raise OverlapViolationError(
                "observed mark %r at point %d has zero probability" % (mark, i)
            )
        out += math.log(p)
    return out


def _mediator_period_ratio(series: PatternSeries, model: MediatorScoreModel,
                           shift: MediatorIntervention | None, t: int) -> float:
    pat = series.treatment(t)
    if shift is None or len(pat) == 0:
        return 0.0  # pass-through: identical densities cancel exactly
    X = point_covariates(series, model.covariate_names, t, pat.base)
    try:
        num = mediator_log_density(model, pat.marks, X, shift=shift)
        den = mediator_log_density(model, pat.marks, X)
    except OverlapViolationError as err:
        raise OverlapViolationError("period %d: %s" % (t, err)) from err
    return num - den


def mediator_log_ratios(series: PatternSeries, model: MediatorScoreModel,
                        shift: MediatorIntervention | None) -> np.ndarray:
    """Log ratio of the shifted over the fitted mediator density of every
    observed mark pattern; shape (T,), zero for a pass-through shift."""
    return np.array([_mediator_period_ratio(series, model, shift, t)
                     for t in range(1, series.T + 1)])


def compute_mediation_weight_series(series: PatternSeries,
                                    propensity: FittedPropensity,
                                    model: MediatorScoreModel,
                                    iv: InterventionPair, L: int) -> WeightSeries:
    """Mediation weights for every t in [L, T]."""
    return window_weights(mediator_log_ratios(series, model, iv.mediator)
                          + (intervention_log_densities(series, iv.treatment)
                             - propensity_log_densities(series, propensity)), L)


@dataclass(frozen=True)
class MediationEffects:
    """Total, direct, and indirect effects with both decomposition orderings.

    Primary ordering fixes the mediator intervention at F_M' for the direct
    effect and the treatment at F_W'' for the indirect effect; the ``alt_``
    pair is the opposite convention.  TE = DE + IE holds exactly in either
    ordering because the middle corner estimate is shared.
    """

    total: EffectEstimate
    direct: EffectEstimate
    indirect: EffectEstimate
    alt_direct: EffectEstimate
    alt_indirect: EffectEstimate

    def to_dict(self) -> dict:
        return {
            "total": self.total.to_dict(),
            "direct": self.direct.to_dict(),
            "indirect": self.indirect.to_dict(),
            "alt_direct": self.alt_direct.to_dict(),
            "alt_indirect": self.alt_indirect.to_dict(),
        }


def estimate_mediation_effects(series: PatternSeries, propensity: FittedPropensity,
                               model: MediatorScoreModel,
                               pairA: InterventionPair, pairB: InterventionPair,
                               spec: SmoothingSpec, region: Region,
                               L: int | None = None,
                               smoothed: SmoothedOutcomes | None = None
                               ) -> MediationEffects:
    """Estimate TE/DE/IE for the intervention pair contrast A vs B.

    The four corners share five per-period series: the propensity densities
    and, per arm, the treatment densities and the mediator log ratios."""
    L = L if L is not None else pairA.L
    if pairA.L != pairB.L or L != pairA.L:
        raise ValueError("both intervention pairs must share L")
    smoothed = smoothed or SmoothedOutcomes(series, spec)

    med_a = mediator_log_ratios(series, model, pairA.mediator)
    num_a = intervention_log_densities(series, pairA.treatment)
    den = propensity_log_densities(series, propensity)
    med_b = mediator_log_ratios(series, model, pairB.mediator)
    ratio_a = num_a - den
    ratio_b = intervention_log_densities(series, pairB.treatment) - den

    # Corner weights: (W', M'), (W'', M''), (W'', M'), (W', M'').
    w_a = window_weights(med_a + ratio_a, L)
    w_b = window_weights(med_b + ratio_b, L)
    w_ba = window_weights(med_a + ratio_b, L)
    w_ab = window_weights(med_b + ratio_a, L)

    total = _estimate_from_weights(smoothed, region, w_a, w_b, L)
    direct = _estimate_from_weights(smoothed, region, w_a, w_ba, L)
    indirect = _estimate_from_weights(smoothed, region, w_ba, w_b, L)
    alt_indirect = _estimate_from_weights(smoothed, region, w_a, w_ab, L)
    alt_direct = _estimate_from_weights(smoothed, region, w_ab, w_b, L)
    return MediationEffects(total=total, direct=direct, indirect=indirect,
                            alt_direct=alt_direct, alt_indirect=alt_indirect)

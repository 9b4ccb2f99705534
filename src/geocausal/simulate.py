"""Synthetic data-generating processes and the Monte-Carlo estimand oracle.

The DGP is fully known: treatment is an inhomogeneous Poisson process with a
log-linear intensity over synthetic covariate rasters; marks follow a logistic
rule; the outcome intensity is a baseline surface plus lagged spillover from
past events,

    mu_t(cell) = mu0(cell)
               + sum_l sum_{s in W_{t-l}} (c_l + c_M 1[s mark-active]) k_rho(cell - s),

with k_rho a Gaussian density whose range rho_s is deliberately different
from the estimators' smoothing bandwidth.  Because the rule is linear in
event mass, the expected outcome count under an intervention is an intensity
integral: the oracle draws (W, M) paths for the L intervention periods and
accumulates the integral analytically, never sampling outcomes.

The simulator and the per-draw oracles (plain and coupled) share one
draw-first loop, :func:`_draw_windows`: every treatment pattern and mark
uniform is drawn first, in a fixed order, and marks are then chosen once over
all kept points by one rule (:func:`~geocausal.interventions.choose_marks`
applied to those uniforms).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Raster, RasterGrid, Region, integrate_raster
from .glm import GLMFit
from .interventions import (
    InterventionPair,
    TreatmentIntervention,
    choose_marks,
    sample_pattern,
)
from .mediation import MediatorScoreModel, binary_tree
from .patterns import MarkedPointPattern, PatternSeries, PointPattern, prefix_series
from .propensity import IntensityModel, _intensity


@dataclass(frozen=True)
class SyntheticDGP:
    """A fully known spatiotemporal process with spillover and carryover."""

    grid: RasterGrid
    covariates: dict[str, Raster]
    propensity_coef: dict[str, float]
    mu0: Raster
    carryover: tuple[float, ...] = ()
    spillover_range: float = 0.5
    mediator_coef: dict[str, float] | None = None
    mediator_positive: str = "hit"
    mediator_negative: str = "none"
    mediator_bonus: float = 0.0

    def __post_init__(self):
        if any(c < 0 for c in self.carryover):
            raise ValueError("carryover coefficients must be nonnegative "
                             "(keeps mu_t nonnegative everywhere)")
        if self.mediator_bonus < 0:
            raise ValueError("mediator bonus must be nonnegative")
        if not self.spillover_range > 0:
            raise ValueError("spillover range must be positive")
        if np.any(self.mu0.values < 0):
            raise ValueError("baseline outcome intensity must be nonnegative")
        for name in self.propensity_coef:
            if name != "intercept" and name not in self.covariates:
                raise ValueError("propensity coefficient %r has no covariate" % name)
        if self.mediator_coef is not None:
            for name in self.mediator_coef:
                if name != "intercept" and name not in self.covariates:
                    raise ValueError("mediator coefficient %r has no covariate" % name)

    @property
    def max_lag(self) -> int:
        return len(self.carryover)

    def treatment_intensity(self) -> Raster:
        """exp(gamma . x) on the grid (static covariates)."""
        model = IntensityModel({"intercept": 0.0, **self.propensity_coef})
        values = {n: cov.values for n, cov in self.covariates.items()}
        lam = _intensity(model, values, self.grid, [None])
        return Raster(self.grid, lam[0])

    def propensity_intervention(self) -> TreatmentIntervention:
        lam = self.treatment_intensity()
        return TreatmentIntervention(intensity=lam, expected_count=integrate_raster(lam))

    def true_mediator_model(self) -> MediatorScoreModel:
        """The DGP's logistic mark rule packaged as a one-stage score model."""
        if self.mediator_coef is None:
            raise ValueError("DGP has no mediator rule")
        names = [n for n in sorted(self.mediator_coef) if n != "intercept"]
        coef = np.array([self.mediator_coef.get("intercept", 0.0)]
                        + [self.mediator_coef[n] for n in names])
        fit = GLMFit(coef=coef, columns=["intercept"] + names, family="binomial",
                     deviance=0.0, deviance_trace=[], iterations=0, converged=True,
                     score=np.zeros(coef.size))
        return MediatorScoreModel(
            stages=binary_tree(self.mediator_positive, self.mediator_negative),
            covariate_names=names, fits=[fit],
        )

    def spillover_fields(self, points: np.ndarray) -> np.ndarray:
        """Per-source spillover surfaces on the grid, shape (n, ny*nx): the
        Gaussian density k_rho at every cell center, evaluated separably."""
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        rho = self.spillover_range
        gx = np.exp(-0.5 * ((self.grid.x_centers()[None, :] - pts[:, 0:1]) / rho) ** 2)
        gy = np.exp(-0.5 * ((self.grid.y_centers()[None, :] - pts[:, 1:2]) / rho) ** 2)
        out = (gy[:, :, None] * gx[:, None, :]).reshape(pts.shape[0], self.grid.n_cells)
        return out / (2.0 * math.pi * rho * rho)


@dataclass(frozen=True)
class OracleResult:
    """Monte-Carlo estimand value with its standard error."""

    value: float
    se: float
    n_draws: int
    deterministic: float
    stochastic_mean: float


def exact_expected_spillover(dgp: SyntheticDGP, source: np.ndarray) -> np.ndarray:
    """E[sum_events k_rho(cell - s)] at cell centers, exactly.

    Events land in a source cell with Poisson mean ``lambda * area`` and are
    uniform within it, so the expectation separates into 1-D normal-CDF
    differences contracted against the per-cell source intensity.  This is
    the closed-form counterpart of the spillover part of the oracle.
    """
    from scipy.special import ndtr

    grid = dgp.grid
    rho = dgp.spillover_range

    def axis_matrix(centers: np.ndarray, step: float) -> np.ndarray:
        lo = centers - 0.5 * step
        hi = centers + 0.5 * step
        return (ndtr((centers[:, None] - lo[None, :]) / rho)
                - ndtr((centers[:, None] - hi[None, :]) / rho))

    Kx = axis_matrix(grid.x_centers(), grid.dx)
    Ky = axis_matrix(grid.y_centers(), grid.dy)
    lam = np.asarray(source, dtype=float).reshape(grid.ny, grid.nx)
    return (Ky @ lam @ Kx.T).ravel()


def _draw_windows(treatment: TreatmentIntervention, rng: np.random.Generator,
                  n_draws: int, L: int, marked) -> list:
    """Per draw and window offset j: one :func:`sample_pattern` call (through
    the module global), then one uniform per point of a non-empty pattern at
    an offset in ``marked``.  Returns ``(draw, offset, pattern, uniforms)``
    per non-empty pattern in draw order (uniforms None where unmarked)."""
    kept = []
    for d in range(n_draws):
        for j in range(L):
            pat = sample_pattern(treatment, rng, time=j + 1, offset=j)
            if len(pat):
                kept.append((d, j, pat, rng.uniform(size=len(pat)) if j in marked else None))
    return kept


def _kept_marks(dgp: SyntheticDGP, model: MediatorScoreModel, kept):
    """Mark-model covariate rows and mark uniforms of all kept points."""
    row, col = dgp.grid.cell_index(np.concatenate([pat.points for _, _, pat, _ in kept]))
    return (_mark_covariates(dgp, model, row * dgp.grid.nx + col),
            np.concatenate([u for *_, u in kept]))


def _positive(dgp: SyntheticDGP, model: MediatorScoreModel, X: np.ndarray,
              u: np.ndarray, shift) -> np.ndarray:
    """1.0 where the mark rule picks the DGP's positive category, else 0.0."""
    probs = model.category_probabilities(X, shift=shift)
    return (choose_marks(probs, u) == sorted(probs).index(dgp.mediator_positive)
            ).astype(float)


def simulate_series(dgp: SyntheticDGP, T: int, seed) -> PatternSeries:
    """Generate a series; bit-reproducible for a given seed.

    Treatments (with their mark uniforms) are one T-period window draw, then
    outcome counts for all periods are drawn in one batch (outcomes never
    feed back into the treatment process, so the factorization is exact).
    """
    if T < 1:
        raise ValueError("T must be at least 1")
    rng = np.random.default_rng(seed)
    grid = dgp.grid
    marked = dgp.mediator_coef is not None
    kept = _draw_windows(dgp.propensity_intervention(), rng, 1, T,
                         range(T) if marked else ())
    active = np.zeros(sum(len(pat) for _, _, pat, _ in kept))
    if marked and kept:
        model = dgp.true_mediator_model()
        active = _positive(dgp, model, *_kept_marks(dgp, model, kept), None)

    treatments: list[MarkedPointPattern | None] = [None] * T
    mu = np.tile(dgp.mu0.values.ravel(), (T, 1))
    coef = np.array(dgp.carryover)
    start = 0
    for _, j, pat, _ in kept:
        act = active[start:start + len(pat)]
        start += len(pat)
        marks = tuple(dgp.mediator_positive if a else dgp.mediator_negative for a in act)
        treatments[j] = MarkedPointPattern(base=pat, marks=marks)
        if dgp.max_lag > 0:
            fields = dgp.spillover_fields(pat.points)
            gain = fields.sum(axis=0)
            bonus_gain = (fields * act[:, None]).sum(axis=0) if act.any() else None
            for lag, c in enumerate(coef, start=1):
                tt = j + 1 + lag
                if tt > T:
                    break
                mu[tt - 1] += c * gain
                if bonus_gain is not None:
                    mu[tt - 1] += dgp.mediator_bonus * bonus_gain
    empty = np.zeros((0, 2))
    treatments = [MarkedPointPattern(PointPattern(t, empty, grid.window), ())
                  if w is None else w for t, w in enumerate(treatments, start=1)]

    counts = rng.poisson(mu * grid.cell_area)
    jitter = rng.uniform(size=(int(counts.sum()), 2))
    flat = np.flatnonzero(counts)
    cells = np.repeat(flat % grid.n_cells, counts.ravel()[flat])
    points = np.split(grid.jittered_points(cells, jitter[:, 0], jitter[:, 1]),
                      np.cumsum(counts.sum(axis=1))[:-1])
    outcomes = [PointPattern(time=t, points=pts, window=grid.window)
                for t, pts in enumerate(points, start=1)]
    return PatternSeries(grid, treatments, outcomes, dict(dgp.covariates))


def _region_kernel_mass(dgp: SyntheticDGP, region_mask: np.ndarray,
                        points: np.ndarray) -> np.ndarray:
    """integral over B of k_rho(. - s) per source point (midpoint rule), in
    blocks of 2**18 field cells (2 MB).  numpy sums a one-row gather pairwise
    and a taller one left to right, so a block is one row tall only when the
    call is: every row keeps the bits of the one-shot expression."""
    n, step = points.shape[0], max(2, (1 << 18) // dgp.grid.n_cells)
    bounds = [*range(0, max(n - 1, 1), step), n]  # a lone last row joins its block
    out = np.empty(n)
    for lo, hi in zip(bounds, bounds[1:]):
        out[lo:hi] = dgp.spillover_fields(points[lo:hi])[:, region_mask].sum(axis=1)
    return out * dgp.grid.cell_area


def _pattern_mass(dgp: SyntheticDGP, region_mask: np.ndarray, points: np.ndarray,
                  c: float, active: np.ndarray) -> float:
    """One pattern's share of the region's intensity integral at carryover
    coefficient ``c``: sum over points of (c + bonus * active) * kernel mass."""
    mass = _region_kernel_mass(dgp, region_mask, points)
    return float(np.sum((c + dgp.mediator_bonus * active) * mass))


def _history_contribution(dgp: SyntheticDGP, region_mask: np.ndarray,
                          history, L: int) -> float:
    """Deterministic part of the final-period intensity integral from fixed history."""
    out = 0.0
    for lag, c in enumerate(dgp.carryover, start=1):
        if lag < L:        # these lags fall inside the intervention window
            continue
        back = lag - L + 1  # 1 = most recent history period
        if back > len(history):
            continue
        pat = history[-back]
        if len(pat) == 0:
            continue
        if isinstance(pat, MarkedPointPattern):
            bonus = np.array([1.0 if m == dgp.mediator_positive else 0.0 for m in pat.marks])
        else:
            bonus = np.zeros(len(pat))
        out += _pattern_mass(dgp, region_mask, pat.points, c, bonus)
    return out


def _mark_model(dgp: SyntheticDGP,
                mediator_model: MediatorScoreModel | None) -> MediatorScoreModel | None:
    """The mark model the oracle shifts: the given one, else the DGP's own rule."""
    if mediator_model is None and dgp.mediator_coef is not None:
        return dgp.true_mediator_model()
    return mediator_model


def _mark_covariates(dgp: SyntheticDGP, model: MediatorScoreModel,
                     cells=slice(None)) -> np.ndarray:
    """Mark-model covariate rows read off the DGP rasters at flat cell indices
    ``cells`` (every cell by default)."""
    names = model.covariate_names
    if not names:
        return np.zeros((dgp.grid.n_cells, 0))[cells]
    return np.column_stack([dgp.covariates[n].values.ravel()[cells] for n in names])


def _check_draws(n_draws: int, L: int, *pairs: InterventionPair) -> None:
    if n_draws < 100:
        raise ValueError("use at least 100 oracle draws")
    if any(L != iv.L for iv in pairs):
        raise ValueError("L disagrees with the intervention pair")


def mc_oracle(dgp: SyntheticDGP, history, iv: InterventionPair, L: int,
              region: Region, n_draws: int, seed,
              mediator_model: MediatorScoreModel | None = None) -> OracleResult:
    """Brute-force truth: E[outcome count in B at the last intervention period].

    Draws (W, M) paths for the L intervention periods from the intervention,
    rolls the known outcome intensity forward, and accumulates the intensity
    integral analytically (the expectation of a Poisson count), so no outcome
    sampling is needed.  ``mediator_model`` is the base score the mediator
    shift applies to; default is the DGP's own (true) mark rule.  All draws
    come first (mark uniforms at every offset when there is a mark model);
    marks are then chosen once over the points that reach the final period.
    """
    _check_draws(n_draws, L, iv)
    rng = np.random.default_rng(seed)
    grid = dgp.grid
    region_mask = region.resolve_mask(grid).ravel()
    det = (float(np.sum(dgp.mu0.values.ravel()[region_mask]) * grid.cell_area)
           + _history_contribution(dgp, region_mask, list(history), L))

    model = _mark_model(dgp, mediator_model)
    # offset j has lag L-1-j; only lags 1..L-1 with a coefficient contribute
    offsets = {L - 1 - lag for lag in range(1, min(dgp.max_lag, L - 1) + 1)}
    kept = [k for k in _draw_windows(iv.treatment, rng, n_draws, L,
                                     range(L) if model is not None else ())
            if k[1] in offsets]
    active = np.zeros(sum(len(pat) for _, _, pat, _ in kept))
    if model is not None and kept:
        active = _positive(dgp, model, *_kept_marks(dgp, model, kept), iv.mediator)

    draws = np.zeros(n_draws)
    end = active.size
    for d, j, pat, _ in reversed(kept):   # backwards: each draw's lags ascend
        start = end - len(pat)
        draws[d] += _pattern_mass(dgp, region_mask, pat.points,
                                  dgp.carryover[L - 2 - j], active[start:end])
        end = start

    stoch = float(np.mean(draws))
    se = float(np.std(draws, ddof=1) / math.sqrt(n_draws))
    return OracleResult(value=det + stoch, se=se, n_draws=n_draws,
                        deterministic=det, stochastic_mean=stoch)


def oracle_effect(dgp: SyntheticDGP, history, ivA: InterventionPair,
                  ivB: InterventionPair, L: int, region: Region,
                  n_draws: int, seed,
                  mediator_model: MediatorScoreModel | None = None
                  ) -> tuple[float, float]:
    """True contrast (A minus B) with Monte-Carlo standard error.

    The deterministic history part cancels exactly, so the returned error
    reflects only the intervention draws.  When the two pairs share the same
    treatment intervention (a pure mediator contrast), the draws are coupled:
    one treatment path per draw and one uniform per point deciding the mark
    under both shifted distributions, which removes almost all of the
    Monte-Carlo variance of the difference.  Otherwise it runs two plain
    :func:`mc_oracle` on two spawned seeds.  Both paths need at least 100
    draws and an ``L`` that both pairs share.
    """
    _check_draws(n_draws, L, ivA, ivB)
    if ivA.treatment is ivB.treatment and dgp.mediator_bonus != 0.0:
        return _oracle_effect_coupled(dgp, ivA, ivB, L, region, n_draws, seed,
                                      mediator_model=mediator_model)
    base = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    ss = base.spawn(2)
    a = mc_oracle(dgp, history, ivA, L, region, n_draws, ss[0],
                  mediator_model=mediator_model)
    b = mc_oracle(dgp, history, ivB, L, region, n_draws, ss[1],
                  mediator_model=mediator_model)
    return a.value - b.value, math.hypot(a.se, b.se)


def _oracle_effect_coupled(dgp: SyntheticDGP, ivA: InterventionPair,
                           ivB: InterventionPair, L: int, region: Region,
                           n_draws: int, seed,
                           mediator_model: MediatorScoreModel | None = None
                           ) -> tuple[float, float]:
    """Mediator-only contrast with common treatment draws and coupled marks.

    All draws come first, with mark uniforms only where a lag reaches the
    final period.  Marks are then chosen under each shift from one covariate
    gather, and kernel masses only for the patterns with a flipped mark.
    """
    rng = np.random.default_rng(seed)
    region_mask = region.resolve_mask(dgp.grid).ravel()
    model = mediator_model if mediator_model is not None else dgp.true_mediator_model()

    offsets = {L - 1 - lag for lag in range(1, min(dgp.max_lag, L - 1) + 1)}
    kept = [k for k in _draw_windows(ivA.treatment, rng, n_draws, L, offsets)
            if k[1] in offsets]

    diffs = np.zeros(n_draws)
    if kept:
        X, u = _kept_marks(dgp, model, kept)
        # One uniform per point decides the mark under both shifts: the
        # carryover term cancels and only flipped marks contribute.
        delta_active = (_positive(dgp, model, X, u, ivA.mediator)
                        - _positive(dgp, model, X, u, ivB.mediator))
        start = 0
        for d, _, pat, _ in kept:
            delta = delta_active[start:start + len(pat)]
            start += len(pat)
            if np.any(delta != 0.0):
                mass = _region_kernel_mass(dgp, region_mask, pat.points)
                diffs[d] += float(np.sum(dgp.mediator_bonus * delta * mass))
    mean = float(np.mean(diffs))
    se = float(np.std(diffs, ddof=1) / math.sqrt(n_draws))
    return mean, se


def expected_region_outcome(dgp: SyntheticDGP, history, iv: InterventionPair,
                            L: int, region: Region,
                            mediator_model: MediatorScoreModel | None = None) -> float:
    """Closed-form expectation of the oracle (linearity of the outcome rule).

    Expected event mass of a Poisson intervention is its intensity, and the
    expected mark-active mass is intensity times the (shifted) mark
    probability; both enter the outcome rule linearly, so the spillover part
    is the separable normal-CDF field of the intervention intensity (exact
    under the piecewise-uniform jitter convention).  The ``ate`` coverage
    arm takes its truth from two of these calls, and the tests use it as the
    exact cross-check of :func:`mc_oracle`.
    """
    grid = dgp.grid
    region_mask = region.resolve_mask(grid).ravel()
    area = grid.cell_area
    total = (float(np.sum(dgp.mu0.values.ravel()[region_mask]) * area)
             + _history_contribution(dgp, region_mask, list(history), L))

    model = _mark_model(dgp, mediator_model)
    p_active = None
    if model is not None and dgp.mediator_bonus != 0.0:
        p_active = model.category_probabilities(
            _mark_covariates(dgp, model), shift=iv.mediator)[dgp.mediator_positive]

    for j in range(L):
        lag = L - 1 - j
        if lag < 1 or lag > dgp.max_lag:
            continue
        c = dgp.carryover[lag - 1]
        lam = iv.treatment.raster_for_offset(j).values
        field = exact_expected_spillover(dgp, lam)
        total += c * float(np.sum(field[region_mask])) * area
        if p_active is not None:
            bonus_field = exact_expected_spillover(
                dgp, lam.ravel() * p_active)
            total += (dgp.mediator_bonus
                      * float(np.sum(bonus_field[region_mask])) * area)
    return total

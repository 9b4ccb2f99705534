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
    sample_marks,
    sample_pattern,
)
from .mediation import MediatorScoreModel, binary_tree
from .patterns import MarkedPointPattern, PatternSeries, PointPattern, prefix_series


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
        grid = self.grid
        eta = np.full((grid.ny, grid.nx), self.propensity_coef.get("intercept", 0.0))
        for name, coef in self.propensity_coef.items():
            if name == "intercept":
                continue
            eta = eta + coef * self.covariates[name].values
        lam = np.where(grid.mask, np.exp(eta), 0.0)
        return Raster(grid, lam)

    def propensity_intervention(self) -> TreatmentIntervention:
        lam = self.treatment_intensity()
        return TreatmentIntervention(intensity=lam, expected_count=integrate_raster(lam))

    def mark_probability(self, points: np.ndarray) -> np.ndarray:
        """True P(mark = positive) at event locations."""
        if self.mediator_coef is None:
            return np.zeros(points.shape[0])
        row, col = self.grid.cell_index(points)
        eta = np.full(points.shape[0], self.mediator_coef.get("intercept", 0.0))
        for name, coef in self.mediator_coef.items():
            if name == "intercept":
                continue
            eta = eta + coef * self.covariates[name].values[row, col]
        return 1.0 / (1.0 + np.exp(-eta))

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

    def spillover_kernel(self, targets: np.ndarray, source: np.ndarray) -> np.ndarray:
        """Gaussian spillover density at target cells from one source point."""
        diff = targets - source[None, :]
        d2 = np.sum(diff * diff, axis=1)
        s2 = self.spillover_range ** 2
        return np.exp(-0.5 * d2 / s2) / (2.0 * math.pi * s2)

    def spillover_fields(self, points: np.ndarray) -> np.ndarray:
        """Per-source spillover surfaces on the grid, shape (n, ny*nx).

        Separable evaluation of :meth:`spillover_kernel` at all cell centers.
        """
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


def _event_bonus(marks, positive: str) -> np.ndarray:
    return np.array([1.0 if m == positive else 0.0 for m in marks])


def simulate_series(dgp: SyntheticDGP, T: int, seed) -> PatternSeries:
    """Generate a series; bit-reproducible for a given seed.

    Treatments and marks are drawn sequentially over periods, then outcome
    counts for all periods are drawn in one batch (outcomes never feed back
    into the treatment process, so the factorization is exact).
    """
    if T < 1:
        raise ValueError("T must be at least 1")
    rng = np.random.default_rng(seed)
    grid = dgp.grid
    lam = dgp.treatment_intensity()
    lam_iv = TreatmentIntervention(intensity=lam, expected_count=integrate_raster(lam))
    area = grid.cell_area
    mu0_flat = dgp.mu0.values.ravel()
    window = grid.window

    treatments: list[MarkedPointPattern] = []
    mu = np.tile(mu0_flat, (T, 1))
    for t in range(1, T + 1):
        w_pat = sample_pattern(lam_iv, rng, time=t)
        if dgp.mediator_coef is not None and len(w_pat):
            p = dgp.mark_probability(w_pat.points)
            marks = sample_marks({dgp.mediator_positive: p,
                                  dgp.mediator_negative: 1.0 - p}, rng)
        else:
            marks = tuple(dgp.mediator_negative for _ in range(len(w_pat)))
        treatments.append(MarkedPointPattern(base=w_pat, marks=marks))
        if dgp.max_lag > 0 and len(w_pat):
            fields = dgp.spillover_fields(w_pat.points)
            active = _event_bonus(marks, dgp.mediator_positive)
            coef = np.array(dgp.carryover)
            gain = fields.sum(axis=0)
            bonus_gain = (fields * active[:, None]).sum(axis=0) if active.any() else None
            for lag, c in enumerate(coef, start=1):
                tt = t + lag
                if tt > T:
                    break
                mu[tt - 1] += c * gain
                if bonus_gain is not None:
                    mu[tt - 1] += dgp.mediator_bonus * bonus_gain

    counts = rng.poisson(mu * area)
    total = int(counts.sum())
    jitter = rng.uniform(size=(total, 2))
    outcomes: list[PointPattern] = []
    x0, y0, _, _ = window.bounds
    pos = 0
    for t in range(1, T + 1):
        row_counts = counts[t - 1]
        idx = np.repeat(np.arange(grid.n_cells), row_counts)
        n_y = idx.size
        if n_y:
            rows, cols = idx // grid.nx, idx % grid.nx
            u = jitter[pos:pos + n_y]
            pts = np.column_stack([x0 + (cols + u[:, 0]) * grid.dx,
                                   y0 + (rows + u[:, 1]) * grid.dy])
        else:
            pts = np.zeros((0, 2))
        pos += n_y
        outcomes.append(PointPattern(time=t, points=pts, window=window))

    return PatternSeries(grid, treatments, outcomes, dict(dgp.covariates))


def _region_kernel_mass(dgp: SyntheticDGP, region_mask: np.ndarray,
                        points: np.ndarray) -> np.ndarray:
    """integral over B of k_rho(. - s) per source point (midpoint rule)."""
    if points.shape[0] == 0:
        return np.zeros(0)
    fields = dgp.spillover_fields(points)
    return fields[:, region_mask].sum(axis=1) * dgp.grid.cell_area


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
        mass = _region_kernel_mass(dgp, region_mask, pat.points)
        if isinstance(pat, MarkedPointPattern):
            bonus = _event_bonus(pat.marks, dgp.mediator_positive)
        else:
            bonus = np.zeros(len(pat))
        out += float(np.sum((c + dgp.mediator_bonus * bonus) * mass))
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
    shift applies to; default is the DGP's own (true) mark rule.
    """
    _check_draws(n_draws, L, iv)
    rng = np.random.default_rng(seed)
    grid = dgp.grid
    region_mask = region.resolve_mask(grid).ravel()
    mu0_region = float(np.sum(dgp.mu0.values.ravel()[region_mask]) * grid.cell_area)
    det = mu0_region + _history_contribution(dgp, region_mask, list(history), L)

    model = _mark_model(dgp, mediator_model)

    draws = np.zeros(n_draws)
    contributing = [lag for lag in range(1, dgp.max_lag + 1) if lag < L]
    for d in range(n_draws):
        total = 0.0
        # Window periods are drawn in order; period at offset j has lag L-1-j
        # from the final period.
        patterns = []
        for j in range(L):
            pat = sample_pattern(iv.treatment, rng, time=j + 1, offset=j)
            if model is not None and len(pat):
                row, col = grid.cell_index(pat.points)
                X = _mark_covariates(dgp, model, row * grid.nx + col)
                probs = model.category_probabilities(X, shift=iv.mediator)
                marks = sample_marks(probs, rng)
            else:
                marks = tuple(dgp.mediator_negative for _ in range(len(pat)))
            patterns.append((pat, marks))
        for lag in contributing:
            c = dgp.carryover[lag - 1]
            pat, marks = patterns[L - 1 - lag]
            if len(pat) == 0:
                continue
            mass = _region_kernel_mass(dgp, region_mask, pat.points)
            bonus = _event_bonus(marks, dgp.mediator_positive)
            total += float(np.sum((c + dgp.mediator_bonus * bonus) * mass))
        draws[d] = total

    stoch = float(np.mean(draws))
    se = float(np.std(draws, ddof=1) / math.sqrt(n_draws)) if n_draws > 1 else 0.0
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
    Monte-Carlo variance of the difference.  Every path needs at least 100
    draws and an ``L`` that both pairs share.
    """
    _check_draws(n_draws, L, ivA, ivB)
    if ivA.treatment is ivB.treatment and dgp.mediator_bonus != 0.0:
        return _oracle_effect_coupled(dgp, ivA, ivB, L, region, n_draws, seed,
                                      mediator_model=mediator_model)
    if (ivA.mediator == ivB.mediator and _same_shape(ivA.treatment, ivB.treatment)
            and ivA.treatment.expected_count > ivB.treatment.expected_count):
        return _oracle_effect_thinned(dgp, ivA, ivB, L, region, n_draws, seed,
                                      mediator_model=mediator_model)
    base = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    ss = base.spawn(2)
    a = mc_oracle(dgp, history, ivA, L, region, n_draws, ss[0],
                  mediator_model=mediator_model)
    b = mc_oracle(dgp, history, ivB, L, region, n_draws, ss[1],
                  mediator_model=mediator_model)
    return a.value - b.value, math.hypot(a.se, b.se)


def _same_shape(a: TreatmentIntervention, b: TreatmentIntervention) -> bool:
    if len(a.rasters) != 1 or len(b.rasters) != 1:
        return False
    va = a.rasters[0].values / a.expected_count
    vb = b.rasters[0].values / b.expected_count
    return bool(np.allclose(va, vb, rtol=1e-12, atol=1e-15))


def _oracle_effect_thinned(dgp: SyntheticDGP, ivA: InterventionPair,
                           ivB: InterventionPair, L: int, region: Region,
                           n_draws: int, seed,
                           mediator_model: MediatorScoreModel | None = None
                           ) -> tuple[float, float]:
    """Contrast of two intensifications of one baseline, by thinned event draws.

    A Poisson(cB) pattern is a thinned subset of a Poisson(cA) pattern with
    the same spatial law, so shared events cancel and the contrast rides on
    the difference process with rate cA - cB.  Because the outcome rule is
    linear in event mass and counts are independent of locations, the Poisson
    count integrates out exactly (Rao-Blackwellization); the Monte Carlo runs
    over ``n_draws`` single-event locations (and marks), each contributing
    its region kernel mass.
    """
    rng = np.random.default_rng(seed)
    grid = dgp.grid
    region_mask = region.resolve_mask(grid).ravel()
    delta_count = ivA.treatment.expected_count - ivB.treatment.expected_count
    baseline = Raster(grid, ivA.treatment.rasters[0].values
                      / ivA.treatment.expected_count)

    model = _mark_model(dgp, mediator_model)
    use_marks = dgp.mediator_bonus != 0.0 and model is not None

    contributing = [lag for lag in range(1, dgp.max_lag + 1) if lag < L]
    coef_sum = sum(dgp.carryover[lag - 1] for lag in contributing)
    if not contributing:
        return 0.0, 0.0

    # Draw all event locations at once: cells by multinomial, uniform jitter.
    mass_cells = (baseline.values * grid.cell_area).ravel()
    p_cells = mass_cells / mass_cells.sum()
    counts = rng.multinomial(n_draws, p_cells)
    idx = np.repeat(np.arange(grid.n_cells), counts)
    rows, cols = idx // grid.nx, idx % grid.nx
    x0, y0, _, _ = grid.window.bounds
    u = rng.uniform(size=(n_draws, 2))
    pts = np.column_stack([x0 + (cols + u[:, 0]) * grid.dx,
                           y0 + (rows + u[:, 1]) * grid.dy])

    if use_marks:
        X = _mark_covariates(dgp, model, idx)
        p = model.category_probabilities(X, shift=ivA.mediator)[dgp.mediator_positive]
        active = (rng.uniform(size=n_draws) < p).astype(float)
    else:
        active = np.zeros(n_draws)

    # Per-event contribution, evaluated in chunks to bound memory.
    per_event = np.empty(n_draws)
    step = 4096
    for lo in range(0, n_draws, step):
        hi = min(lo + step, n_draws)
        per_event[lo:hi] = _region_kernel_mass(dgp, region_mask, pts[lo:hi])
    x = per_event * (coef_sum + dgp.mediator_bonus * len(contributing) * active)
    mean = delta_count * float(np.mean(x))
    se = delta_count * float(np.std(x, ddof=1) / math.sqrt(n_draws))
    return mean, se


def _oracle_effect_coupled(dgp: SyntheticDGP, ivA: InterventionPair,
                           ivB: InterventionPair, L: int, region: Region,
                           n_draws: int, seed,
                           mediator_model: MediatorScoreModel | None = None
                           ) -> tuple[float, float]:
    """Mediator-only contrast with common treatment draws and coupled marks.

    Every draw is made first, in per-draw order: one treatment pattern per
    window period, then one uniform per point of each contributing non-empty
    pattern.  Marks are then evaluated once over all kept points, and kernel
    masses only for the patterns with a flipped mark.
    """
    rng = np.random.default_rng(seed)
    grid = dgp.grid
    region_mask = region.resolve_mask(grid).ravel()
    model = mediator_model if mediator_model is not None else dgp.true_mediator_model()
    positive = dgp.mediator_positive

    contributing = [lag for lag in range(1, dgp.max_lag + 1) if lag < L]
    kept = []  # (draw, points, uniforms) in draw order
    for d in range(n_draws):
        for j in range(L):
            pat = sample_pattern(ivA.treatment, rng, time=j + 1, offset=j)
            if len(pat) and L - 1 - j in contributing:
                kept.append((d, pat.points, rng.uniform(size=len(pat))))

    diffs = np.zeros(n_draws)
    if kept:
        points = np.concatenate([pts for _, pts, _ in kept])
        u = np.concatenate([uu for _, _, uu in kept])
        row, col = grid.cell_index(points)
        X = _mark_covariates(dgp, model, row * grid.nx + col)
        pA = model.category_probabilities(X, shift=ivA.mediator)[positive]
        pB = model.category_probabilities(X, shift=ivB.mediator)[positive]
        # One uniform per point decides the mark under both shifts: the
        # carryover term cancels and only flipped marks contribute.
        delta_active = (u < pA).astype(float) - (u < pB).astype(float)
        start = 0
        for d, pts, _ in kept:
            delta = delta_active[start:start + len(pts)]
            start += len(pts)
            if np.any(delta != 0.0):
                mass = _region_kernel_mass(dgp, region_mask, pts)
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
    under the piecewise-uniform jitter convention).  Used as the exact
    cross-check of :func:`mc_oracle` in the tests.
    """
    grid = dgp.grid
    region_mask = region.resolve_mask(grid).ravel()
    area = grid.cell_area
    total = (float(np.sum(dgp.mu0.values.ravel()[region_mask]) * area)
             + _history_contribution(dgp, region_mask, list(history), L))

    model = _mark_model(dgp, mediator_model)

    for j in range(L):
        lag = L - 1 - j
        if lag < 1 or lag > dgp.max_lag:
            continue
        c = dgp.carryover[lag - 1]
        lam = iv.treatment.raster_for_offset(j).values
        field = exact_expected_spillover(dgp, lam)
        total += c * float(np.sum(field[region_mask])) * area
        if model is not None and dgp.mediator_bonus != 0.0:
            X = _mark_covariates(dgp, model)
            p_active = model.category_probabilities(X, shift=iv.mediator)[
                dgp.mediator_positive]
            bonus_field = exact_expected_spillover(
                dgp, lam.ravel() * p_active)
            total += (dgp.mediator_bonus
                      * float(np.sum(bonus_field[region_mask])) * area)
    return total

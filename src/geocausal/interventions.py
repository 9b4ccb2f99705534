"""Counterfactual stochastic interventions and sampling from them.

A treatment intervention is a Poisson process over the window: a nonnegative
intensity raster whose integral is the expected daily event count.  Two
standard constructions are provided: *intensification* (scale a normalized
baseline density by a target count, leaving the spatial distribution alone)
and *location shift* (reweight the baseline by a normalized product of
component densities raised to precision exponents).  Mediator interventions
multiply the odds of one mark category by a factor delta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import Raster, RasterGrid, integrate_raster, normalize_raster
from .patterns import PointPattern
from .propensity import _log_density


@dataclass(frozen=True)
class TreatmentIntervention:
    """Poisson intervention: per-period intensity raster(s) over the window.

    ``intensity`` is one raster shared by all periods in the intervention
    window, or a list with one raster per period.
    """

    intensity: Raster | list[Raster]
    expected_count: float
    # per raster: its integral, set from the rasters
    integrals: tuple[float, ...] = field(default=None, init=False)
    # per raster: its cell masses as multinomial probabilities (None if the
    # raster has no mass), what sample_pattern draws cells from
    cell_probabilities: tuple = field(default=None, init=False, repr=False,
                                      compare=False)
    # per raster: the flat np.log of its values, what densities read
    log_values: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        rasters = self.rasters
        for r in rasters:
            if np.any(r.values < 0):
                raise ValueError("intervention intensity must be nonnegative")
        totals = tuple(integrate_raster(r) for r in rasters)
        for total in totals:
            if not math.isclose(total, self.expected_count, rel_tol=1e-9, abs_tol=1e-12):
                raise ValueError(
                    "intensity integrates to %g but expected_count is %g"
                    % (total, self.expected_count)
                )
        if not self.expected_count >= 0:
            raise ValueError("expected_count must be nonnegative")
        object.__setattr__(self, "integrals", totals)
        object.__setattr__(self, "cell_probabilities",
                           tuple(_cell_probabilities(r) for r in rasters))
        with np.errstate(divide="ignore"):
            logs = tuple(np.log(r.values.ravel()) for r in rasters)
        for log in logs:
            log.setflags(write=False)
        object.__setattr__(self, "log_values", logs)

    @property
    def rasters(self) -> list[Raster]:
        return list(self.intensity) if isinstance(self.intensity, list) else [self.intensity]

    def raster_for_offset(self, offset: int) -> Raster:
        """Intensity for the ``offset``-th period of the window (0-based)."""
        rasters = self.rasters
        return rasters[offset % len(rasters)]

    @property
    def grid(self) -> RasterGrid:
        return self.rasters[0].grid


def _cell_probabilities(raster: Raster) -> np.ndarray | None:
    mass = (raster.values * raster.grid.cell_area).ravel()
    total = mass.sum()
    if total <= 0:
        return None
    probs = mass / total
    probs.setflags(write=False)
    return probs


@dataclass(frozen=True)
class PowerDensitySpec:
    """Component densities and precision exponents for a power density."""

    components: list[Raster]
    exponents: list[float]

    def __post_init__(self):
        if len(self.components) == 0:
            raise ValueError("power density needs at least one component")
        if len(self.components) != len(self.exponents):
            raise ValueError("one exponent per component density")
        for d in self.components:
            if np.any(d.values < 0):
                raise ValueError("component densities must be nonnegative")


@dataclass(frozen=True)
class MediatorIntervention:
    """Incremental odds shift of one mark category by a factor delta."""

    delta: float
    target_mark: str

    def __post_init__(self):
        if not self.delta > 0:
            raise ValueError("delta must be positive")


@dataclass(frozen=True)
class InterventionPair:
    """F = (F_W, F_M|w): treatment intensity plus an optional mediator shift."""

    treatment: TreatmentIntervention
    mediator: MediatorIntervention | None = None
    L: int = 1

    def __post_init__(self):
        if self.L < 1:
            raise ValueError("intervention length L must be at least 1")


def intensified(baseline: Raster, count: float) -> TreatmentIntervention:
    """Scale a normalized baseline density to a target expected count."""
    if not count > 0:
        raise ValueError("target count must be positive")
    total = integrate_raster(baseline)
    if not math.isclose(total, 1.0, rel_tol=1e-6, abs_tol=1e-9):
        raise ValueError("baseline density must integrate to one (got %g)" % total)
    return TreatmentIntervention(intensity=Raster(baseline.grid, count * baseline.values),
                                 expected_count=count)


def power_density(spec: PowerDensitySpec, grid: RasterGrid) -> Raster:
    """Normalized product of component densities raised to their exponents.

    ``d**0`` is one everywhere (a zero exponent drops the component), so with
    all exponents zero the result is the uniform density on the window.
    """
    prod = np.ones((grid.ny, grid.nx))
    for d, alpha in zip(spec.components, spec.exponents):
        if not d.grid.same_geometry(grid):
            raise ValueError("component density grid does not match")
        if alpha == 0.0:
            continue
        with np.errstate(divide="ignore"):
            term = np.power(d.values, alpha)
        if np.any(np.isinf(term[grid.mask])):
            raise ValueError(
                "component density is zero where a negative exponent applies"
            )
        prod = prod * term
    raster = Raster(grid, np.where(grid.mask, prod, 0.0))
    return normalize_raster(raster)


def location_shift(baseline: Raster, power: Raster, count: float) -> TreatmentIntervention:
    """count * normalize(baseline * power): shift mass toward the power density."""
    if not baseline.grid.same_geometry(power.grid):
        raise ValueError("baseline and power density must share a grid")
    if not count > 0:
        raise ValueError("target count must be positive")
    product = Raster(baseline.grid, baseline.values * power.values)
    shifted = normalize_raster(product)
    return TreatmentIntervention(intensity=Raster(baseline.grid, count * shifted.values),
                                 expected_count=count)


def incremental_shift(p, delta):
    """Odds-multiplier map p -> delta*p / (delta*p + 1 - p).

    Identity at delta=1, strictly increasing in both arguments on (0, 1),
    fixed points at p=0 and p=1.  Accepts scalars or arrays (broadcast).
    """
    d = np.asarray(delta, dtype=float)
    if np.any(d <= 0):
        raise ValueError("delta must be positive")
    arr = np.asarray(p, dtype=float)
    if np.any(arr < 0) or np.any(arr > 1):
        raise ValueError("probabilities must lie in [0, 1]")
    out = d * arr / (d * arr + 1.0 - arr)
    return float(out) if (np.isscalar(p) and np.isscalar(delta)) else out


def log_intervention_density(iv: TreatmentIntervention, pattern: PointPattern,
                             offset: int = 0) -> float:
    """Poisson log-density of a pattern under the intervention intensity.

    Same reference process, and bits, as ``log_pattern_density`` on the
    offset's raster, so ratios with the propensity are exact density ratios.
    """
    k = offset % len(iv.integrals)
    return _log_density(iv.log_values[k], iv.raster_for_offset(offset), pattern,
                        iv.integrals[k])


def sample_pattern(iv: TreatmentIntervention, rng: np.random.Generator,
                   time: int = 1, offset: int = 0) -> PointPattern:
    """Draw one pattern: Poisson count, cells by multinomial, uniform jitter."""
    grid = iv.raster_for_offset(offset).grid
    n = int(rng.poisson(iv.expected_count))
    if n == 0:
        return PointPattern(time=time, points=np.zeros((0, 2)), window=grid.window)
    probs = iv.cell_probabilities[offset % len(iv.cell_probabilities)]
    if probs is None:
        return PointPattern(time=time, points=np.zeros((0, 2)), window=grid.window)
    cells = np.repeat(np.arange(grid.n_cells), rng.multinomial(n, probs))
    points = grid.jittered_points(cells, rng.uniform(size=n), rng.uniform(size=n))
    return PointPattern(time=time, points=points, window=grid.window)


def choose_marks(probs: dict[str, np.ndarray], u: np.ndarray) -> np.ndarray:
    """Each point's mark as an index into ``sorted(probs)``, from uniforms
    ``u`` already drawn: the first category whose cumulative probability
    reaches the point's uniform."""
    cats = sorted(probs)
    cum = np.cumsum(np.column_stack([probs[c] for c in cats]), axis=1)
    return np.minimum(np.sum(u[:, None] > cum, axis=1), len(cats) - 1)

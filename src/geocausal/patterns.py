"""Spatiotemporal data model: point patterns, marked patterns, series, smoothing.

A :class:`PatternSeries` holds, for each period ``t`` in ``1..T``, the treatment
pattern (with optional categorical marks), the outcome pattern, and a named
covariate stack on one shared grid.  Kernel smoothing turns an outcome pattern
into a nonnegative surface whose integral over a region estimates the expected
event count there; each event carries unit mass in the plane (2-D isotropic
kernel, not the 1-D ``b**-1 K(u/b)`` scaling, which does not integrate to one
in two dimensions).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    DistanceMap,
    Raster,
    RasterGrid,
    Region,
    SpatialWindow,
    decay_transform,
    distance_map,
    snap_for_exact_sums,
)

# Pattern sizes are bounded well below this; it fixes the quantum used to make
# kernel superposition error-free (see geometry.snap_for_exact_sums).
_MAX_POINTS_LOG2 = 21


@dataclass(frozen=True)
class PointPattern:
    """Events of one stream in one period: locations in km inside the window."""

    time: int
    points: np.ndarray
    window: SpatialWindow
    # (grid, flat cell index) of the last cell_indices call
    _cells: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float).reshape(-1, 2)
        if pts.size and not self.window.contains(pts).all():
            bad = np.where(~self.window.contains(pts))[0][0]
            raise ValueError(
                "point %d at (%g, %g) lies outside the window (t=%d)"
                % (bad, pts[bad, 0], pts[bad, 1], self.time)
            )
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def cell_indices(self, grid: RasterGrid) -> np.ndarray:
        """Read-only flat cell index ``row * nx + col`` per point, kept for the
        last grid geometry asked for."""
        if self._cells is None or not self._cells[0].same_geometry(grid):
            row, col = grid.cell_index(self.points)
            flat = row * grid.nx + col
            flat.setflags(write=False)
            object.__setattr__(self, "_cells", (grid, flat))
        return self._cells[1]

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def has_duplicates(self) -> bool:
        """Duplicates are permitted (the data model is a point pattern) but flagged."""
        if len(self) < 2:
            return False
        return len(np.unique(self.points, axis=0)) < len(self)


@dataclass(frozen=True)
class MarkedPointPattern:
    """A point pattern with one categorical mark per point.

    Mark-active points are by construction a subset of the base pattern, which
    is exactly the "mediator active implies treatment active" restriction.
    """

    base: PointPattern
    marks: tuple[str, ...]

    def __post_init__(self):
        marks = tuple(str(m) for m in self.marks)
        if len(marks) != len(self.base):
            raise ValueError(
                "got %d marks for %d points" % (len(marks), len(self.base))
            )
        object.__setattr__(self, "marks", marks)

    def __len__(self) -> int:
        return len(self.base)

    @property
    def points(self) -> np.ndarray:
        return self.base.points

    def active(self, mark: str) -> np.ndarray:
        """Locations whose mark equals ``mark``."""
        idx = [i for i, m in enumerate(self.marks) if m == mark]
        return self.base.points[idx]


@dataclass(frozen=True)
class SmoothingSpec:
    """Bandwidth (km) and kernel for outcome smoothing."""

    bandwidth: float
    kernel: str = "gaussian"

    def __post_init__(self):
        if not self.bandwidth > 0:
            raise ValueError("bandwidth must be positive")
        if self.kernel not in ("gaussian", "epanechnikov"):
            raise ValueError("kernel must be 'gaussian' or 'epanechnikov'")

    @classmethod
    def scott(cls, series: "PatternSeries", kernel: str = "gaussian") -> "SmoothingSpec":
        """Scott's rule on the pooled outcome pattern: n**(-1/6) * mean coord sd."""
        pooled = np.vstack([p.points for p in series.outcomes if len(p)])
        if pooled.shape[0] < 2:
            raise ValueError("Scott's rule needs at least two pooled outcome events")
        sd = float(np.mean(np.std(pooled, axis=0, ddof=1)))
        if sd == 0.0:
            raise ValueError("pooled outcome pattern has zero spread")
        return cls(bandwidth=sd * pooled.shape[0] ** (-1.0 / 6.0), kernel=kernel)


class PatternSeries:
    """Time-indexed history: treatments (marked), outcomes, covariates, one grid.

    ``covariates`` maps names to either a single Raster (static, shared across
    periods) or a length-T list of Rasters.
    """

    def __init__(self, grid: RasterGrid, treatments, outcomes, covariates=None):
        self.grid = grid
        self.treatments = list(treatments)
        self.outcomes = list(outcomes)
        self.covariates = dict(covariates or {})
        self.T = len(self.treatments)
        # (stream, t) -> per-cell distances to that period's events, or None
        # for an empty period; filled by history_maps.
        self._distances: dict[tuple[str, int], np.ndarray | None] = {}
        if len(self.outcomes) != self.T:
            raise ValueError("treatments and outcomes must cover the same periods")
        for t, (w, y) in enumerate(zip(self.treatments, self.outcomes), start=1):
            base = w.base if isinstance(w, MarkedPointPattern) else w
            for pat, name in ((base, "treatment"), (y, "outcome")):
                if pat.time != t:
                    raise ValueError(
                        "%s pattern at index %d has time %d; expected contiguous 1..T"
                        % (name, t - 1, pat.time)
                    )
                if pat.window is not grid.window and pat.window.bounds != grid.window.bounds:
                    raise ValueError("all patterns must share the series window")
        for name, cov in self.covariates.items():
            if isinstance(cov, Raster):
                continue
            if len(cov) != self.T:
                raise ValueError(
                    "dynamic covariate %r has %d rasters for T=%d" % (name, len(cov), self.T)
                )

    def covariate(self, name: str, t: int) -> Raster:
        cov = self.covariates[name]
        return cov if isinstance(cov, Raster) else cov[t - 1]

    def covariate_names(self) -> list[str]:
        return sorted(self.covariates)

    def is_static(self, names=None) -> bool:
        names = self.covariate_names() if names is None else names
        return all(isinstance(self.covariates[n], Raster) for n in names)

    def treatment(self, t: int) -> MarkedPointPattern:
        return self.treatments[t - 1]

    def outcome(self, t: int) -> PointPattern:
        return self.outcomes[t - 1]


def prefix_series(series: PatternSeries, T: int) -> PatternSeries:
    """View of the first T periods (shares pattern objects and covariates)."""
    if T > series.T:
        raise ValueError("prefix longer than the series")
    covs = {n: c if isinstance(c, Raster) else c[:T] for n, c in series.covariates.items()}
    return PatternSeries(series.grid, series.treatments[:T], series.outcomes[:T], covs)


def count_in_region(pattern: PointPattern, region: Region, grid: RasterGrid) -> int:
    """Number of events whose containing cell lies in the region.

    Boundary points resolve to a cell by the floor rule, with coordinates on
    the far window edge clipped inward, so edge events are counted.
    """
    if len(pattern) == 0:
        return 0
    mask = region.resolve_mask(grid)
    return int(np.count_nonzero(mask.ravel()[pattern.cell_indices(grid)]))


def _kernel_values(dist2: np.ndarray, spec: SmoothingSpec) -> np.ndarray:
    b2 = spec.bandwidth * spec.bandwidth
    if spec.kernel == "gaussian":
        return np.exp(-0.5 * dist2 / b2) / (2.0 * math.pi * b2)
    out = (2.0 / (math.pi * b2)) * (1.0 - dist2 / b2)
    return np.where(dist2 < b2, out, 0.0)


def _kernel_quantum(spec: SmoothingSpec) -> float:
    peak = _kernel_values(np.zeros(1), spec)[0]
    exp = math.frexp(peak)[1]
    return math.ldexp(1.0, exp + _MAX_POINTS_LOG2 - 53)


def _kernel_quanta(points: np.ndarray, spec: SmoothingSpec,
                   grid: RasterGrid) -> tuple[np.ndarray, float]:
    """Per-point kernel surfaces ``K`` as whole quanta ``k = round(K / q)``,
    shape (n_points, ny*nx), and the quantum ``q``.

    ``q`` is a power of two fixed by the kernel alone, so ``k * q`` is exact
    and sums of ``k`` over any subset of points are error-free: superposed
    patterns smooth to exactly the sum of their parts.  The Gaussian kernel is
    evaluated as a separable product over the axes, and its
    ``round(outer / (c*q))`` rounds exactly like ``outer / c`` divided by
    ``q`` (subnormal values give 0 both ways).
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    q = _kernel_quantum(spec)
    b = spec.bandwidth
    if spec.kernel == "gaussian":
        gx = np.exp(-0.5 * ((grid.x_centers()[None, :] - pts[:, 0:1]) / b) ** 2)
        gy = np.exp(-0.5 * ((grid.y_centers()[None, :] - pts[:, 1:2]) / b) ** 2)
        k = (gy[:, :, None] * gx[:, None, :]).reshape(len(pts), grid.n_cells)
        k /= 2.0 * math.pi * b * b * q
    else:
        diff = grid.cell_centers()[None, :, :] - pts[:, None, :]
        k = _kernel_values(np.sum(diff * diff, axis=2), spec)
        k /= q
    return np.round(k, out=k), q


def kernel_smooth(pattern: PointPattern, spec: SmoothingSpec,
                  grid: RasterGrid) -> Raster:
    """Sum of unit-mass kernel surfaces centered at the pattern's events: whole
    quanta summed exactly, then scaled once (the sum of the contributions)."""
    if len(pattern) == 0:
        return Raster(grid, np.zeros((grid.ny, grid.nx)))
    k, q = _kernel_quanta(pattern.points, spec, grid)
    return Raster(grid, (np.sum(k, axis=0) * q).reshape(grid.ny, grid.nx))


def smoothed_cell_values(pattern: PointPattern, spec: SmoothingSpec,
                         grid: RasterGrid) -> np.ndarray:
    """Flat per-cell masses ``smooth(pattern) * cell_area``, pre-rounded.

    Summed in whole quanta like :func:`kernel_smooth`, then snapped onto a
    common power-of-two grid so that sums over *any* subset of cells are
    error-free; region integrals built from it are therefore exactly
    additive over disjoint regions.
    """
    if len(pattern) == 0:
        return np.zeros(grid.n_cells)
    k, q = _kernel_quanta(pattern.points, spec, grid)
    return snap_for_exact_sums(
        np.sum(k, axis=0) * q * grid.cell_area, n_terms=grid.n_cells
    )


def boundary_event_fraction(series: PatternSeries, spec: SmoothingSpec) -> float:
    """Fraction of outcome events within 3 bandwidths of the window boundary.

    Kernel mass for such events leaks outside the window (no edge correction),
    so this is the standing diagnostic reported by the pipeline.
    """
    x0, y0, x1, y1 = series.grid.window.bounds
    cut = 3.0 * spec.bandwidth
    total, near = 0, 0
    for pat in series.outcomes:
        if len(pat) == 0:
            continue
        pts = pat.points
        d = np.minimum.reduce([pts[:, 0] - x0, x1 - pts[:, 0],
                               pts[:, 1] - y0, y1 - pts[:, 1]])
        total += len(pat)
        near += int(np.count_nonzero(d < cut))
    return near / total if total else 0.0


def history_maps(series: PatternSeries, t: int, lags=(1, 7, 30),
                 coef: float = -6.0, allow_truncated: bool = True) -> dict[str, Raster]:
    """Decayed distance maps to recent treatment/outcome events.

    For each lag ``l`` the feature set is every event in periods
    ``[t-l, t-1]``, separately per stream.  No prior events means distance
    infinity, hence a decay value of zero everywhere (stated convention).
    Returns rasters named ``"<stream>_hist_<l>"``; values lie in [0, 1].

    Each period's distance map is computed at most once per series and
    cached on it; a window's map is the cellwise minimum of its periods'
    maps, which is bit-identical to the map of the pooled events.
    """
    if t <= 0:
        raise ValueError("period index must be positive")
    maxlag = max(lags)
    if t <= maxlag and not allow_truncated:
        raise ValueError(
            "period %d has fewer than %d preceding periods; pass allow_truncated=True"
            % (t, maxlag)
        )
    grid = series.grid
    cache = series._distances
    out: dict[str, Raster] = {}
    for stream in ("treatment", "outcome"):
        for tt in range(max(1, t - maxlag), t):
            if (stream, tt) not in cache:
                pat = series.treatment(tt).base if stream == "treatment" else series.outcome(tt)
                cache[stream, tt] = distance_map(grid, pat.points).values if len(pat) else None
        for lag in lags:
            maps = [cache[stream, tt] for tt in range(max(1, t - lag), t)]
            maps = [m for m in maps if m is not None]
            name = "%s_hist_%d" % (stream, lag)
            if maps:
                dmap = DistanceMap(grid, np.minimum.reduce(maps))
                out[name] = decay_transform(dmap, coef)
            else:
                out[name] = Raster(grid, np.zeros((grid.ny, grid.nx)))
    return out

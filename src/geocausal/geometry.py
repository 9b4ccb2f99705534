"""Planar geometry: windows, raster grids, regions, distance maps, decay transforms.

Everything downstream works on one shared :class:`RasterGrid`.  Coordinates are
planar kilometres; there is no geodesy.  All spatial integrals are midpoint-rule
sums over cell centers, so quantities defined as integrals of the same raster
over disjoint regions add up the way set algebra says they should.

Two reduction schemes are used:

* :func:`integrate_raster` reduces with numpy's row-major pairwise summation,
  which is deterministic for a fixed grid.
* The effect-estimation modules pre-round per-cell contributions onto a common
  power-of-two grid (:func:`snap_for_exact_sums`) so that every partial sum is
  error-free in float64.  Sums of such values are bit-identical under any
  grouping or ordering, which is what makes pixel/region additivity and
  thread-count invariance exact rather than approximate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class SpatialWindow:
    """Axis-aligned study window, optionally masked by a polygon.

    Parameters
    ----------
    bounds : tuple
        ``(x0, y0, x1, y1)`` in km with ``x1 > x0`` and ``y1 > y0``.
    polygon : ndarray, optional
        ``(m, 2)`` vertex list (km) of a simple polygon lying inside the
        bounds.  Cells whose centers fall outside it are masked.
    """

    bounds: tuple[float, float, float, float]
    polygon: np.ndarray | None = None

    def __post_init__(self):
        x0, y0, x1, y1 = self.bounds
        if not (x1 > x0 and y1 > y0):
            raise ValueError("window bounds must have positive width and height")
        if self.polygon is not None:
            poly = np.asarray(self.polygon, dtype=float)
            if poly.ndim != 2 or poly.shape[1] != 2 or poly.shape[0] < 3:
                raise ValueError("polygon must be an (m, 2) array with m >= 3")
            if (poly[:, 0].min() < x0 - 1e-9 or poly[:, 0].max() > x1 + 1e-9
                    or poly[:, 1].min() < y0 - 1e-9 or poly[:, 1].max() > y1 + 1e-9):
                raise ValueError("polygon must lie within the window bounds")
            if polygon_area(poly) <= 0:
                raise ValueError("polygon has zero area")
            object.__setattr__(self, "polygon", poly)

    @property
    def width(self) -> float:
        return self.bounds[2] - self.bounds[0]

    @property
    def height(self) -> float:
        return self.bounds[3] - self.bounds[1]

    @property
    def area(self) -> float:
        """Exact window area: polygon area if masked, else bounds area."""
        if self.polygon is not None:
            return polygon_area(self.polygon)
        return self.width * self.height

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Boolean mask of points inside the window (edges inclusive)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        x0, y0, x1, y1 = self.bounds
        inside = ((pts[:, 0] >= x0) & (pts[:, 0] <= x1)
                  & (pts[:, 1] >= y0) & (pts[:, 1] <= y1))
        if self.polygon is not None:
            inside &= points_in_polygon(pts, self.polygon)
        return inside


def polygon_area(vertices: np.ndarray) -> float:
    """Shoelace area of a simple polygon (positive regardless of orientation)."""
    v = np.asarray(vertices, dtype=float)
    x, y = v[:, 0], v[:, 1]
    return 0.5 * abs(float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)))


def points_in_polygon(points: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """Crossing-number point-in-polygon test, vectorized over points.

    Points exactly on an edge may land on either side; grid cell centers are
    the only routine callers and essentially never sit on polygon edges.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    v = np.asarray(vertices, dtype=float)
    x, y = pts[:, 0][:, None], pts[:, 1][:, None]
    x1, y1 = v[:, 0][None, :], v[:, 1][None, :]
    x2, y2 = np.roll(v[:, 0], -1)[None, :], np.roll(v[:, 1], -1)[None, :]
    crosses = ((y1 > y) != (y2 > y)) & (
        x < (x2 - x1) * (y - y1) / np.where(y2 == y1, np.inf, y2 - y1) + x1
    )
    return np.sum(crosses, axis=1) % 2 == 1


@dataclass(frozen=True)
class RasterGrid:
    """Uniform nx-by-ny tiling of a window; the carrier for all quadrature.

    Raster values are stored as ``(ny, nx)`` arrays, row 0 at the *south*
    edge (y increasing with row index).  ``mask`` is True on cells whose
    centers lie inside the window polygon (all cells for plain rectangles).
    """

    window: SpatialWindow
    nx: int
    ny: int
    mask: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1:
            raise ValueError("nx and ny must be positive cell counts")
        if self.window.polygon is not None:
            centers = self.cell_centers()
            m = points_in_polygon(centers, self.window.polygon).reshape(self.ny, self.nx)
        else:
            m = np.ones((self.ny, self.nx), dtype=bool)
        if not m.any():
            raise ValueError("window mask excludes every cell center")
        m.setflags(write=False)
        object.__setattr__(self, "mask", m)

    @property
    def dx(self) -> float:
        return self.window.width / self.nx

    @property
    def dy(self) -> float:
        return self.window.height / self.ny

    @property
    def cell_area(self) -> float:
        return self.dx * self.dy

    @property
    def n_cells(self) -> int:
        return self.nx * self.ny

    @property
    def area(self) -> float:
        """Discretized window area: sum of unmasked cell areas."""
        return self.cell_area * int(np.count_nonzero(self.mask))

    def x_centers(self) -> np.ndarray:
        x0 = self.window.bounds[0]
        return x0 + (np.arange(self.nx) + 0.5) * self.dx

    def y_centers(self) -> np.ndarray:
        y0 = self.window.bounds[1]
        return y0 + (np.arange(self.ny) + 0.5) * self.dy

    def cell_centers(self) -> np.ndarray:
        """All cell centers as an ``(ny*nx, 2)`` array in row-major order."""
        xx, yy = np.meshgrid(self.x_centers(), self.y_centers())
        return np.column_stack([xx.ravel(), yy.ravel()])

    def jittered_points(self, cells: np.ndarray, ux: np.ndarray,
                        uy: np.ndarray) -> np.ndarray:
        """Points in flat cells ``cells`` at in-cell offsets ``(ux, uy)`` in
        [0, 1), shape ``(n, 2)``."""
        x0, y0, _, _ = self.window.bounds
        rows, cols = cells // self.nx, cells % self.nx
        return np.column_stack([x0 + (cols + ux) * self.dx,
                                y0 + (rows + uy) * self.dy])

    def cell_index(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Map points to containing (row, col); edge coordinates clip inward."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        x0, y0, _, _ = self.window.bounds
        col = np.floor((pts[:, 0] - x0) / self.dx).astype(int)
        row = np.floor((pts[:, 1] - y0) / self.dy).astype(int)
        # np.minimum/np.maximum: the same integers as np.clip, with less overhead
        return (np.minimum(np.maximum(row, 0), self.ny - 1),
                np.minimum(np.maximum(col, 0), self.nx - 1))

    def same_geometry(self, other: "RasterGrid") -> bool:
        return (self.nx == other.nx and self.ny == other.ny
                and self.window.bounds == other.window.bounds)


@dataclass(frozen=True)
class Raster:
    """A float field on a grid; immutable after construction."""

    grid: RasterGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.ny, self.grid.nx):
            raise ValueError(
                "raster values shape %s does not match grid (%d, %d)"
                % (vals.shape, self.grid.ny, self.grid.nx)
            )
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class Region:
    """A subset of the window: a polygon or an explicit cell mask.

    Either way the region resolves to a boolean cell mask on a grid; cells
    masked out of the window never belong to a region.
    """

    polygon: np.ndarray | None = None
    cell_mask: np.ndarray | None = None
    label: str = "region"
    # (grid, mask) of the last resolve_mask call
    _resolved: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if (self.polygon is None) == (self.cell_mask is None):
            raise ValueError("provide exactly one of polygon or cell_mask")
        if self.polygon is not None:
            poly = np.asarray(self.polygon, dtype=float)
            if poly.ndim != 2 or poly.shape[1] != 2 or poly.shape[0] < 3:
                raise ValueError("region polygon must be an (m, 2) array with m >= 3")
            object.__setattr__(self, "polygon", poly)
        if self.cell_mask is not None:
            m = np.asarray(self.cell_mask, dtype=bool).copy()
            m.setflags(write=False)
            object.__setattr__(self, "cell_mask", m)

    @classmethod
    def whole_window(cls, grid: RasterGrid) -> "Region":
        return cls(cell_mask=grid.mask, label="window")

    def resolve_mask(self, grid: RasterGrid) -> np.ndarray:
        """Boolean (ny, nx) mask of cells whose centers lie in the region.

        The mask is read-only; the last one resolved is kept for its grid, so
        repeated calls with the same grid object return the same array.
        """
        if self._resolved is not None and self._resolved[0] is grid:
            return self._resolved[1]
        if self.cell_mask is not None:
            if self.cell_mask.shape != (grid.ny, grid.nx):
                raise ValueError("region cell mask does not match the grid shape")
            mask = self.cell_mask & grid.mask
        else:
            inside = points_in_polygon(grid.cell_centers(), self.polygon)
            mask = inside.reshape(grid.ny, grid.nx) & grid.mask
        if not mask.any():
            raise ValueError("region is empty on this grid")
        mask.setflags(write=False)
        object.__setattr__(self, "_resolved", (grid, mask))
        return mask


@dataclass(frozen=True)
class DistanceMap:
    """Per-cell Euclidean distance (km) to the nearest feature."""

    grid: RasterGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.ny, self.grid.nx):
            raise ValueError("distance values do not match the grid shape")
        if np.any(vals < 0):
            raise ValueError("distances must be nonnegative")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


# Exponential-decay coefficients (per km) used to turn distance maps into
# bounded covariates.  Larger-magnitude coefficients localize influence.
DECAY_DEFAULTS = {
    "histories": -6.0,
    "roads": -3.0,
    "rivers": -3.0,
    "cities": (-2.0, -4.0, -6.0, -8.0, -10.0),
    "settlements": -12.0,
    "buildings": -0.5,
    "city_targeting": -20.0,
}


def build_grid(window: SpatialWindow, nx: int, ny: int) -> RasterGrid:
    """Tile the window uniformly with nx-by-ny cells."""
    if nx < 1 or ny < 1:
        raise ValueError("nx and ny must be at least 1")
    return RasterGrid(window=window, nx=nx, ny=ny)


def _segment_distances(points: np.ndarray, segments_a: np.ndarray,
                       segments_b: np.ndarray) -> np.ndarray:
    """Min distance from each point to a set of segments, analytically."""
    p = points[:, None, :]                       # (n, 1, 2)
    a = segments_a[None, :, :]                   # (1, s, 2)
    d = (segments_b - segments_a)[None, :, :]    # (1, s, 2)
    dd = np.sum(d * d, axis=2)                   # (1, s)
    t = np.sum((p - a) * d, axis=2) / np.where(dd == 0, 1.0, dd)
    t = np.clip(np.where(dd == 0, 0.0, t), 0.0, 1.0)
    proj = a + t[..., None] * d
    return np.sqrt(np.sum((p - proj) ** 2, axis=2)).min(axis=1)


def distance_map(grid: RasterGrid, features) -> DistanceMap:
    """Per-cell min Euclidean distance to a feature set.

    ``features`` is either an ``(n, 2)`` array of points or a sequence of
    polylines (each an ``(m, 2)`` array, measured to the nearest segment).
    """
    centers = grid.cell_centers()
    dist = np.full(centers.shape[0], np.inf)

    if isinstance(features, np.ndarray) and features.ndim == 2:
        points, polylines = features, []
    else:
        points, polylines = None, list(features or [])

    if points is not None:
        points = np.asarray(points, dtype=float)
        if points.size == 0:
            raise ValueError("feature set is empty")
        from scipy.spatial import cKDTree

        tree = cKDTree(points.reshape(-1, 2))
        dist = np.minimum(dist, tree.query(centers)[0])
    else:
        if not polylines:
            raise ValueError("feature set is empty")
        seg_a, seg_b = [], []
        for line in polylines:
            line = np.asarray(line, dtype=float).reshape(-1, 2)
            if line.shape[0] == 1:
                seg_a.append(line[0])
                seg_b.append(line[0])
            else:
                seg_a.extend(line[:-1])
                seg_b.extend(line[1:])
        dist = np.minimum(
            dist, _segment_distances(centers, np.asarray(seg_a), np.asarray(seg_b))
        )

    return DistanceMap(grid=grid, values=dist.reshape(grid.ny, grid.nx))


def decay_transform(dmap: DistanceMap, coef: float) -> Raster:
    """exp(coef * distance) with coef < 0; values in (0, 1], 1 at features."""
    if not coef < 0:
        raise ValueError("decay coefficient must be negative, got %r" % (coef,))
    return Raster(dmap.grid, np.exp(coef * dmap.values))


def integrate_raster(raster: Raster, region: Region | None = None) -> float:
    """Midpoint-rule integral of a raster over a region (default: window).

    Reduces in row-major order with numpy's pairwise summation, so the result
    is deterministic for a given grid and region.
    """
    grid = raster.grid
    mask = grid.mask if region is None else region.resolve_mask(grid)
    if mask.shape != raster.values.shape:
        raise ValueError("raster and region do not share a grid")
    return float(np.sum(raster.values[mask]) * grid.cell_area)


def normalize_raster(raster: Raster) -> Raster:
    """Rescale so the window integral is one (midpoint rule)."""
    total = integrate_raster(raster)
    if not total > 0:
        raise ValueError("raster has zero or negative total mass; cannot normalize")
    values = raster.values / total
    if raster.grid.window.polygon is not None:
        values = np.where(raster.grid.mask, values, 0.0)
    return Raster(raster.grid, values)


def snap_for_exact_sums(values: np.ndarray, n_terms: int | None = None) -> np.ndarray:
    """Round values onto a common power-of-two grid so partial sums are exact.

    After snapping, every value is an integer multiple of a single quantum
    ``q`` chosen so that any sum of up to ``n_terms`` of them stays below
    ``2**53 * q``.  Such sums incur no rounding at all, hence are identical
    under any grouping or ordering.  The per-value perturbation is at most
    ``q/2 ~ max|values| * 2**(g-53)`` with ``g = ceil(log2(n_terms))``.

    A 2-D array is snapped row by row, each row exactly as if it were
    snapped alone (``n_terms`` defaults to the row length).
    """
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        return v.copy()
    rows = np.atleast_2d(v)
    m = np.maximum(rows.max(axis=1), -rows.min(axis=1))
    n = int(n_terms if n_terms is not None else rows.shape[1])
    guard = max(1, math.ceil(math.log2(max(n, 2))))
    # frexp's exponent is the smallest e with m <= 2**e; a row whose quantum
    # underflows to 0 is kept as it is, like a zero row
    q = np.ldexp(1.0, np.frexp(m)[1] + guard - 53)
    keep = (q == 0.0) | (m == 0.0) | ~np.isfinite(m)
    q = np.where(keep, 1.0, q)[:, None]
    out = rows / q
    np.round(out, out=out)
    out *= q
    out[keep] = rows[keep]
    return out.reshape(v.shape)

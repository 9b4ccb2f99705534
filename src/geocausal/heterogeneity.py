"""Pixel-level conditional effects and their least-squares projection.

Pixels are grid-aligned disjoint blocks covering the window.  The pixel-level
effect at period t is the same weighted contrast as the ATE restricted to the
pixel; because per-cell contributions are pre-rounded, the pixel effects sum
bit-exactly to the region effect (partition additivity).  Per-period OLS
projects pixel effects onto moderator values measured at t - L + 1, with one
design and rank check per distinct moderator vector, and the time-averaged
coefficients summarize how effects vary with the moderator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .effects import SmoothedOutcomes, WeightSeries, Z90, Z95
from .geometry import RasterGrid
from .glm import NaturalCubicBasis, _check_rank, natural_cubic_basis


@dataclass(frozen=True)
class PixelPartition:
    """Disjoint grid-aligned pixels covering the window.

    ``labels`` assigns each cell a pixel id in ``0..p-1`` (-1 for cells
    masked out of the window).  Every id in range must be nonempty.
    """

    grid: RasterGrid
    labels: np.ndarray

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=int)
        if labels.shape != (self.grid.ny, self.grid.nx):
            raise ValueError("labels shape does not match the grid")
        if np.any((labels < 0) & self.grid.mask):
            raise ValueError("every in-window cell must belong to a pixel")
        if np.any((labels >= 0) & ~self.grid.mask):
            raise ValueError("masked cells cannot belong to a pixel")
        present = np.unique(labels[labels >= 0])
        p = present.size
        if p < 2:
            raise ValueError("a partition needs at least 2 pixels")
        if not np.array_equal(present, np.arange(p)):
            raise ValueError("pixel ids must be contiguous 0..p-1")
        labels = labels.copy()
        labels.setflags(write=False)
        object.__setattr__(self, "labels", labels)

    @property
    def p(self) -> int:
        return int(self.labels.max()) + 1

    @classmethod
    def blocks(cls, grid: RasterGrid, factor: int) -> "PixelPartition":
        """Aggregate factor-by-factor cell blocks into pixels (edges smaller)."""
        if factor < 1:
            raise ValueError("aggregation factor must be at least 1")
        rows = np.arange(grid.ny) // factor
        cols = np.arange(grid.nx) // factor
        ncols = int(cols.max()) + 1
        raw = rows[:, None] * ncols + cols[None, :]
        labels = np.where(grid.mask, raw, -1)
        # Relabel to a contiguous range over nonempty, in-window blocks.
        present = np.unique(labels[labels >= 0])
        remap = -np.ones(int(raw.max()) + 1, dtype=int)
        remap[present] = np.arange(present.size)
        labels = np.where(labels >= 0, remap[np.maximum(labels, 0)], -1)
        return cls(grid=grid, labels=labels)

    def pixel_sums(self, values: np.ndarray) -> np.ndarray:
        """Per-pixel sums of each row of per-cell values, (n, n_cells) -> (n, p)."""
        flat = self.labels.ravel()
        keep = flat >= 0
        n = values.shape[0]
        idx = (np.arange(n)[:, None] * self.p + flat[keep]).ravel()
        sums = np.bincount(idx, weights=values[:, keep].ravel(), minlength=n * self.p)
        return sums.reshape(n, self.p)

    def pixel_centroids(self) -> np.ndarray:
        """Mean cell-center coordinates per pixel, shape (p, 2)."""
        x, y = self.grid.cell_centers().T
        sx, sy, counts = self.pixel_sums(np.vstack([x, y, np.ones_like(x)]))
        return np.column_stack([sx, sy]) / counts[:, None]


def pixel_effects(smoothed: SmoothedOutcomes, partition: PixelPartition,
                  w1: WeightSeries, w2: WeightSeries, t: int) -> np.ndarray:
    """Per-pixel effect contrasts at period t, shape (p,).

    Uses the same pre-rounded per-cell contributions as the ATE per-period
    contrast, so ``sum(pixel_effects) == per_t contrast`` holds bit-exactly.
    The contributions of every period are formed; for all periods at once,
    take ``partition.pixel_sums`` of them once, as ``estimate_cate`` does.
    """
    if t < w1.L or t > smoothed.series.T:
        raise ValueError("t outside the estimable range [L, T]")
    i = t - w1.L
    return partition.pixel_sums(smoothed.contributions(w1, w2)[i:i + 1])[0]


@dataclass(frozen=True)
class ModeratorPanel:
    """Per-pixel, per-period moderator values; NaN marks missing data."""

    partition: PixelPartition
    values: dict[str, np.ndarray]

    def __post_init__(self):
        for name, arr in self.values.items():
            arr = np.asarray(arr, dtype=float)
            if arr.shape != (self.partition.p,) and (
                    arr.ndim != 2 or arr.shape[0] != self.partition.p):
                raise ValueError(
                    "moderator %r must be (p,) static or (p, T) dynamic" % name
                )

    def at(self, name: str, t: int) -> np.ndarray:
        """Moderator vector for period t (static moderators ignore t)."""
        arr = np.asarray(self.values[name], dtype=float)
        return arr if arr.ndim == 1 else arr[:, t - 1]


class ProjectionBasis:
    """Design-matrix builder: intercept plus optional moderator functions."""

    def __init__(self, spline: NaturalCubicBasis | None = None,
                 intercept_only: bool = False):
        self.spline = spline
        self.intercept_only = intercept_only

    @classmethod
    def intercept(cls) -> "ProjectionBasis":
        return cls(intercept_only=True)

    @classmethod
    def linear(cls) -> "ProjectionBasis":
        return cls(spline=None)

    @classmethod
    def natural_cubic(cls, values: np.ndarray, df: int) -> "ProjectionBasis":
        if df == 1:
            return cls.linear()
        return cls(spline=natural_cubic_basis(values, df))

    @property
    def k(self) -> int:
        if self.intercept_only:
            return 1
        return 2 if self.spline is None else 1 + self.spline.df

    def column_names(self) -> list[str]:
        if self.intercept_only:
            return ["intercept"]
        if self.spline is None:
            return ["intercept", "moderator"]
        return ["intercept", "moderator"] + [
            "spline_%d" % j for j in range(1, self.spline.df)
        ]

    def design(self, r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float).ravel()
        ones = np.ones(r.size)
        if self.intercept_only:
            return ones[:, None]
        if self.spline is None:
            return np.column_stack([ones, r])
        return np.column_stack([ones, self.spline.design(r)])


def project_cate_t(tau: np.ndarray, moderators: np.ndarray,
                   basis: ProjectionBasis, missing: str = "drop") -> np.ndarray:
    """Least-squares fit of pixel effects on the moderator basis.

    ``tau`` is one period's pixel effects (p,), or (m, p) for m periods that
    share the moderators: one design and rank check, one solve per period.
    Pixels with a missing (NaN) moderator are dropped by default; pass
    ``missing="zero"`` to impute zeros instead (a substantive choice).
    """
    tau = np.asarray(tau, dtype=float)
    r = np.asarray(moderators, dtype=float)
    if missing == "zero":
        r = np.where(np.isnan(r), 0.0, r)
        keep = np.ones(r.size, dtype=bool)
    elif missing == "drop":
        keep = ~np.isnan(r)
    else:
        raise ValueError("missing must be 'drop' or 'zero'")
    k = basis.k
    if int(keep.sum()) < k + 1:
        raise ValueError(
            "need at least %d pixels with observed moderators, have %d"
            % (k + 1, int(keep.sum()))
        )
    Z = basis.design(r[keep])
    _check_rank(Z, basis.column_names())
    betas = np.array([np.linalg.lstsq(Z, row[keep], rcond=None)[0]
                      for row in np.atleast_2d(tau)])
    return betas if tau.ndim == 2 else betas[0]


@dataclass(frozen=True)
class ProjectionEstimate:
    """Time-averaged projection coefficients and the conservative CI device.

    Variances are means of squared per-period projections (the same device as
    sigma2_star); the paper does not spell out its CATE banding, so this is a
    documented conservative choice.
    """

    basis: ProjectionBasis
    beta_bar: np.ndarray
    betas: np.ndarray  # (n_periods, k)

    @property
    def n_periods(self) -> int:
        return self.betas.shape[0]

    def evaluate(self, r) -> dict[str, object]:
        """CATE at moderator value(s) r with conservative intervals."""
        r_arr = np.atleast_1d(np.asarray(r, dtype=float))
        Z = self.basis.design(r_arr)
        value = Z @ self.beta_bar
        proj_t = self.betas @ Z.T  # (n_periods, n_r)
        var = np.mean(proj_t ** 2, axis=0)
        half90 = Z90 * np.sqrt(var / self.n_periods)
        half95 = Z95 * np.sqrt(var / self.n_periods)
        return {
            "r": r_arr,
            "value": value,
            "ci90": np.column_stack([value - half90, value + half90]),
            "ci95": np.column_stack([value - half95, value + half95]),
        }

    def coefficient_interval(self, index: int, z: float = Z95) -> tuple[float, float, float]:
        """(estimate, low, high) for one coefficient, conservative device."""
        est = float(self.beta_bar[index])
        var = float(np.mean(self.betas[:, index] ** 2))
        half = z * math.sqrt(var / self.n_periods)
        return est, est - half, est + half


def average_projection(betas) -> ProjectionEstimate:
    """Average per-period coefficients into the overall projection estimator."""
    arr = np.asarray(betas, dtype=float)
    if arr.ndim != 2 or arr.shape[0] < 2:
        raise ValueError("need per-period coefficients for at least two periods")
    if not np.all(np.isfinite(arr)):
        raise ValueError("non-finite projection coefficients")
    return ProjectionEstimate(basis=None, beta_bar=arr.mean(axis=0), betas=arr)


def estimate_cate(smoothed: SmoothedOutcomes, partition: PixelPartition,
                  w1: WeightSeries, w2: WeightSeries, panel: ModeratorPanel,
                  moderator: str, basis: ProjectionBasis,
                  missing: str = "drop") -> ProjectionEstimate:
    """Full CATE projection: per-period pixel effects, OLS, time average.

    The moderator enters at the pre-intervention period t - L + 1.  Periods
    are grouped by the bytes of their moderator vector (-0.0 is not 0.0), in
    order of first appearance, so the first failing period still raises.
    """
    n = len(w1)
    columns = np.shape(panel.values[moderator])[1:]
    if columns and columns[0] < n:
        raise ValueError("moderator %r has %d periods; T - L + 1 = %d periods need one each"
                         % (moderator, columns[0], n))
    taus = partition.pixel_sums(smoothed.contributions(w1, w2))
    groups: dict[bytes, list[int]] = {}
    for i in range(n):
        groups.setdefault(panel.at(moderator, i + 1).tobytes(), []).append(i)
    betas = np.empty((n, basis.k))
    for rows in groups.values():
        betas[rows] = project_cate_t(taus[rows], panel.at(moderator, rows[0] + 1),
                                     basis, missing=missing)
    return replace(average_projection(betas), basis=basis)

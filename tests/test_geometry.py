"""Grid, region, distance-map, and decay-transform contracts."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geocausal.geometry import (
    DECAY_DEFAULTS,
    Raster,
    Region,
    SpatialWindow,
    build_grid,
    decay_transform,
    distance_map,
    integrate_raster,
    normalize_raster,
    points_in_polygon,
    snap_for_exact_sums,
)


def unit_window():
    return SpatialWindow(bounds=(0.0, 0.0, 1.0, 1.0))


def test_build_grid_uniform_tiling():
    grid = build_grid(unit_window(), 2, 2)
    assert grid.n_cells == 4
    assert grid.cell_area == pytest.approx(0.25, abs=0.0)


def test_tiling_identity_many_shapes():
    window = SpatialWindow(bounds=(-3.0, 2.0, 7.5, 11.0))
    for nx, ny in [(1, 1), (3, 7), (41, 13), (128, 57)]:
        grid = build_grid(window, nx, ny)
        total = grid.cell_area * grid.n_cells
        assert total == pytest.approx(window.area, rel=1e-9)


def test_build_grid_rejects_zero_dims():
    with pytest.raises(ValueError):
        build_grid(unit_window(), 0, 2)
    with pytest.raises(ValueError):
        SpatialWindow(bounds=(0.0, 0.0, 0.0, 1.0))


def test_polygon_mask_and_area():
    poly = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]])
    window = SpatialWindow(bounds=(0.0, 0.0, 4.0, 4.0), polygon=poly)
    assert window.area == pytest.approx(4.0)
    grid = build_grid(window, 8, 8)
    # cells with centers inside the 2x2 polygon: a 4x4 block
    assert int(grid.mask.sum()) == 16


def test_points_in_polygon_triangle():
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    pts = np.array([[0.2, 0.2], [0.9, 0.9], [0.4, 0.4], [1.1, 0.0]])
    assert list(points_in_polygon(pts, tri)) == [True, False, True, False]


def test_distance_map_point_at_cell_center_is_zero():
    grid = build_grid(unit_window(), 4, 4)
    center = grid.cell_centers()[5]
    dmap = distance_map(grid, center.reshape(1, 2))
    assert dmap.values.ravel()[5] == 0.0


def test_distance_map_345_triangle():
    window = SpatialWindow(bounds=(0.0, 0.0, 8.0, 8.0))
    grid = build_grid(window, 8, 8)
    dmap = distance_map(grid, np.array([[0.0, 0.0]]))
    row, col = grid.cell_index(np.array([[3.0, 4.0]]))
    # move the feature so the queried cell center is exactly (3, 4) away
    center = grid.cell_centers()[int(row[0]) * 8 + int(col[0])]
    dmap = distance_map(grid, np.array([center - np.array([3.0, 4.0])]))
    assert dmap.values[row[0], col[0]] == pytest.approx(5.0, rel=1e-12)


def test_distance_map_min_of_two_points():
    grid = build_grid(unit_window(), 6, 6)
    a = np.array([[0.1, 0.1]])
    b = np.array([[0.9, 0.8]])
    both = distance_map(grid, np.vstack([a, b]))
    expected = np.minimum(distance_map(grid, a).values, distance_map(grid, b).values)
    assert np.array_equal(both.values, expected)


def test_distance_map_polyline_segmentwise():
    grid = build_grid(unit_window(), 5, 5)
    line = np.array([[0.0, 0.5], [1.0, 0.5]])
    dmap = distance_map(grid, [line])
    centers = grid.cell_centers()
    assert np.allclose(dmap.values.ravel(), np.abs(centers[:, 1] - 0.5), atol=1e-12)


def test_distance_map_empty_features_error():
    grid = build_grid(unit_window(), 2, 2)
    with pytest.raises(ValueError):
        distance_map(grid, np.zeros((0, 2)))
    with pytest.raises(ValueError):
        distance_map(grid, [])


def test_decay_transform_values():
    grid = build_grid(unit_window(), 2, 2)
    dmap = distance_map(grid, grid.cell_centers()[:1])
    out = decay_transform(dmap, -6.0)
    assert out.values.ravel()[0] == pytest.approx(1.0)  # exp(0)
    # hand evaluation: distance 1 km at coefficient -6
    one_km = math.exp(-6.0 * 1.0)
    assert one_km == pytest.approx(0.0024787521766663585, rel=1e-12)
    assert np.all(out.values > 0.0) and np.all(out.values <= 1.0)


def test_decay_transform_rejects_nonnegative_coef():
    grid = build_grid(unit_window(), 2, 2)
    dmap = distance_map(grid, grid.cell_centers()[:1])
    for coef in (0.0, 1.0):
        with pytest.raises(ValueError):
            decay_transform(dmap, coef)


def test_decay_catalog_defaults():
    assert DECAY_DEFAULTS["histories"] == -6.0
    assert DECAY_DEFAULTS["roads"] == -3.0 and DECAY_DEFAULTS["rivers"] == -3.0
    assert DECAY_DEFAULTS["cities"] == (-2.0, -4.0, -6.0, -8.0, -10.0)
    assert DECAY_DEFAULTS["settlements"] == -12.0
    assert DECAY_DEFAULTS["buildings"] == -0.5
    assert DECAY_DEFAULTS["city_targeting"] == -20.0
    for value in (-6.0, -3.0, -12.0, -0.5, -20.0):
        assert value < 0


def test_decay_monotone_along_ray():
    window = SpatialWindow(bounds=(0.0, 0.0, 10.0, 1.0))
    grid = build_grid(window, 50, 1)
    dmap = distance_map(grid, np.array([[0.0, 0.5]]))
    out = decay_transform(dmap, -2.0).values.ravel()
    assert np.all(np.diff(out) < 0)


def test_integrate_constant_full_window():
    window = SpatialWindow(bounds=(0.0, 0.0, 3.0, 2.0))
    grid = build_grid(window, 13, 9)
    raster = Raster(grid, np.ones((9, 13)))
    assert integrate_raster(raster) == pytest.approx(6.0, rel=1e-12)


def test_integrate_constant_over_half_mask():
    grid = build_grid(unit_window(), 10, 10)
    mask = np.zeros((10, 10), dtype=bool)
    mask[:5] = True
    region = Region(cell_mask=mask)
    raster = Raster(grid, np.full((10, 10), 3.0))
    assert integrate_raster(raster, region) == pytest.approx(1.5, rel=1e-12)


def test_integrate_grid_mismatch_error():
    grid = build_grid(unit_window(), 4, 4)
    other = build_grid(unit_window(), 5, 5)
    region = Region(cell_mask=np.ones((5, 5), dtype=bool))
    raster = Raster(grid, np.ones((4, 4)))
    with pytest.raises(ValueError):
        integrate_raster(raster, region)


def test_cell_index_floor_rule_and_clip_on_non_square_grid():
    # 5 columns of width 2 and 3 rows of height 1 over x in [1, 11], y in [-2, 1]
    grid = build_grid(SpatialWindow(bounds=(1.0, -2.0, 11.0, 1.0)), 5, 3)
    pts = np.array([
        [1.0, -2.0],     # (x0, y0)
        [11.0, 1.0],     # (x1, y1): far edges clip inward
        [11.0, -2.0],
        [1.0, 1.0],
        [3.0, -1.0],     # interior boundaries belong to the upper cell
        [9.0, 0.0],
        [5.0, 0.5],
        [10.999, 0.999],
        [0.5, -3.0],     # outside the window: clipped to the nearest cell
        [12.0, 2.0],
    ])
    row, col = grid.cell_index(pts)
    assert row.tolist() == [0, 2, 0, 2, 1, 2, 2, 2, 0, 2]
    assert col.tolist() == [0, 4, 4, 0, 1, 4, 2, 4, 0, 4]


def test_resolve_mask_is_cached_read_only_per_grid():
    window = SpatialWindow(bounds=(0.0, 0.0, 4.0, 4.0))
    coarse, fine = build_grid(window, 4, 4), build_grid(window, 8, 6)
    poly = np.array([[0.9, 0.9], [3.1, 0.9], [3.1, 2.6], [0.9, 2.6]])
    region = Region(polygon=poly)

    def direct(grid):
        inside = points_in_polygon(grid.cell_centers(), poly)
        return inside.reshape(grid.ny, grid.nx) & grid.mask

    first = region.resolve_mask(coarse)
    assert region.resolve_mask(coarse) is first
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0, 0] = True
    # alternating grids, as the pipeline's resolution check does
    for grid in (fine, coarse, fine, coarse):
        mask = region.resolve_mask(grid)
        assert mask.shape == (grid.ny, grid.nx)
        assert np.array_equal(mask, direct(grid))
        assert not mask.flags.writeable


def test_resolve_mask_empty_region_raises_every_call():
    grid = build_grid(unit_window(), 4, 4)
    # a sliver between cell centers contains none of them
    sliver = Region(polygon=np.array([[0.3, 0.3], [0.6, 0.3], [0.6, 0.35]]))
    for _ in range(2):
        with pytest.raises(ValueError, match="empty"):
            sliver.resolve_mask(grid)


def test_integrate_refinement_oracle_gaussian_bump():
    # quadrature-refinement oracle: doubling the resolution moves a smooth
    # integrand's midpoint integral by less than 1e-3 relative
    window = SpatialWindow(bounds=(0.0, 0.0, 10.0, 10.0))

    def bump_integral(n):
        grid = build_grid(window, n, n)
        c = grid.cell_centers()
        vals = np.exp(-((c[:, 0] - 5.0) ** 2 + (c[:, 1] - 4.0) ** 2) / 2.0)
        return integrate_raster(Raster(grid, vals.reshape(n, n)))

    coarse, fine = bump_integral(64), bump_integral(128)
    assert abs(coarse - fine) / abs(fine) < 1e-3


def test_integrate_linearity_within_float():
    rng = np.random.default_rng(3)
    grid = build_grid(unit_window(), 16, 16)
    f = Raster(grid, rng.uniform(size=(16, 16)))
    g = Raster(grid, rng.uniform(size=(16, 16)))
    a, b = 2.5, -1.25
    combined = Raster(grid, a * f.values + b * g.values)
    lhs = integrate_raster(combined)
    rhs = a * integrate_raster(f) + b * integrate_raster(g)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_normalize_constant_and_idempotence():
    window = SpatialWindow(bounds=(0.0, 0.0, 2.0, 2.0))
    grid = build_grid(window, 8, 8)
    raster = Raster(grid, np.full((8, 8), 7.0))
    normed = normalize_raster(raster)
    assert np.allclose(normed.values, 1.0 / 4.0)
    again = normalize_raster(normed)
    assert np.max(np.abs(again.values - normed.values)) < 1e-12
    assert abs(integrate_raster(normed) - 1.0) < 1e-12


def test_normalize_zero_mass_error():
    grid = build_grid(unit_window(), 4, 4)
    with pytest.raises(ValueError):
        normalize_raster(Raster(grid, np.zeros((4, 4))))


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=0.1, max_value=100.0))
def test_normalize_scale_invariance(c):
    grid = build_grid(unit_window(), 6, 6)
    base = np.linspace(0.5, 2.0, 36).reshape(6, 6)
    n1 = normalize_raster(Raster(grid, base))
    n2 = normalize_raster(Raster(grid, c * base))
    assert np.max(np.abs(n1.values - n2.values)) < 1e-12


def test_snap_for_exact_sums_subset_additivity():
    rng = np.random.default_rng(11)
    v = snap_for_exact_sums(rng.normal(size=4096), n_terms=4096)
    labels = rng.integers(0, 37, size=4096)
    parts = np.array([v[labels == k].sum() for k in range(37)])
    assert parts.sum() == v.sum()  # bit-exact, any grouping


def test_snap_for_exact_sums_2d_is_row_by_row():
    rng = np.random.default_rng(5)
    rows = rng.normal(size=(5, 300)) * np.array([[1e-6], [1.0], [0.0], [1e4], [3.0]])
    rows[4, ::3] = 0.0
    snapped = snap_for_exact_sums(rows, n_terms=1024)
    assert snapped.shape == rows.shape
    for got, row in zip(snapped, rows):
        assert got.tobytes() == snap_for_exact_sums(row, n_terms=1024).tobytes()
    assert np.all(snapped[2] == 0.0)
    # the default n_terms is the row length, as for a single row
    assert snap_for_exact_sums(rows)[1].tobytes() == snap_for_exact_sums(rows[1]).tobytes()

    # zero, infinite and NaN inputs come back as they are, alone or as a row
    for v in ([0.0, -0.0, 0.0], [1.0, np.inf, -2.0], [-np.inf, 3.0], [np.nan, 1.0]):
        v = np.array(v)
        assert snap_for_exact_sums(v).tobytes() == v.tobytes()
        assert snap_for_exact_sums(v[None, :], n_terms=4096).tobytes() == v.tobytes()


def test_snap_for_exact_sums_keeps_rows_whose_quantum_underflows():
    # below about 2**-1020 the quantum 2**(e + guard - 53) underflows to 0
    tiny = np.array([2.0**-1040, -3 * 2.0**-1060, 0.0])
    with np.errstate(divide="raise", invalid="raise"):
        assert snap_for_exact_sums(tiny).tobytes() == tiny.tobytes()
        rng = np.random.default_rng(2)
        rows = rng.normal(size=(3, 3))
        alone = [snap_for_exact_sums(r) for r in rows]
        rows = np.vstack([rows[:1], tiny, rows[1:]])
        snapped = snap_for_exact_sums(rows)
    assert snapped[1].tobytes() == tiny.tobytes()
    for got, want in zip(snapped[[0, 2, 3]], alone):
        assert got.tobytes() == want.tobytes()

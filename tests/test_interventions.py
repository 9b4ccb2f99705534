"""Intervention construction, incremental shifts, and sampling contracts."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geocausal.geometry import Raster, SpatialWindow, build_grid, integrate_raster, normalize_raster
from geocausal.interventions import (
    InterventionPair,
    MediatorIntervention,
    PowerDensitySpec,
    TreatmentIntervention,
    choose_marks,
    incremental_shift,
    intensified,
    location_shift,
    log_intervention_density,
    power_density,
    sample_pattern,
)
from geocausal.patterns import PointPattern


def unit_grid(n=8):
    return build_grid(SpatialWindow(bounds=(0.0, 0.0, 1.0, 1.0)), n, n)


def bump_raster(grid, cx=0.5, cy=0.5, sd=0.2):
    c = grid.cell_centers()
    vals = np.exp(-((c[:, 0] - cx) ** 2 + (c[:, 1] - cy) ** 2) / (2 * sd * sd))
    return normalize_raster(Raster(grid, vals.reshape(grid.ny, grid.nx)))


def test_intensified_construction():
    grid = unit_grid()
    baseline = bump_raster(grid)
    iv = intensified(baseline, 6.0)
    assert integrate_raster(iv.rasters[0]) == pytest.approx(6.0, rel=1e-12)
    same = intensified(baseline, 1.0)
    assert np.array_equal(same.rasters[0].values, baseline.values)
    for count in (1.0, 2.0, 4.0, 6.0):  # the intensification ladder
        assert intensified(baseline, count).expected_count == count


def test_intensified_rejects_unnormalized():
    grid = unit_grid()
    with pytest.raises(ValueError):
        intensified(Raster(grid, np.full((8, 8), 2.0)), 3.0)


def test_power_density_zero_exponents_uniform():
    grid = unit_grid()
    d = bump_raster(grid)
    out = power_density(PowerDensitySpec([d], [0.0]), grid)
    assert np.allclose(out.values, 1.0 / grid.window.area)


def test_power_density_single_component_identity():
    grid = unit_grid()
    d = bump_raster(grid)
    out = power_density(PowerDensitySpec([d], [1.0]), grid)
    assert np.max(np.abs(out.values - d.values)) < 1e-12
    assert abs(integrate_raster(out) - 1.0) < 1e-12


def test_power_density_rescale_invariance():
    grid = unit_grid()
    d = bump_raster(grid)
    scaled = Raster(grid, 17.0 * d.values)
    a = power_density(PowerDensitySpec([d], [2.0]), grid)
    b = power_density(PowerDensitySpec([scaled], [2.0]), grid)
    assert np.max(np.abs(a.values - b.values)) < 1e-12


def test_power_density_concentration_increases_with_alpha():
    # direct evaluation on a two-bump toy: the max-cell share strictly
    # increases with the precision exponent
    grid = unit_grid(16)
    c = grid.cell_centers()
    two = (np.exp(-((c[:, 0] - 0.25) ** 2 + (c[:, 1] - 0.5) ** 2) / 0.01)
           + 0.5 * np.exp(-((c[:, 0] - 0.75) ** 2 + (c[:, 1] - 0.5) ** 2) / 0.01))
    d = normalize_raster(Raster(grid, two.reshape(16, 16)))
    shares = []
    for alpha in (0.5, 1.0, 2.0, 4.0):
        out = power_density(PowerDensitySpec([d], [alpha]), grid)
        shares.append(out.values.max() * grid.cell_area)
    assert all(b > a for a, b in zip(shares, shares[1:]))


def test_location_shift_uniform_power_equals_intensified():
    grid = unit_grid()
    baseline = bump_raster(grid)
    uniform = power_density(PowerDensitySpec([baseline], [0.0]), grid)
    shifted = location_shift(baseline, uniform, 5.0)
    plain = intensified(baseline, 5.0)
    assert np.allclose(shifted.rasters[0].values, plain.rasters[0].values, rtol=1e-12)
    assert shifted.expected_count == 5.0  # target count five, varying alpha


def test_incremental_shift_values():
    assert incremental_shift(0.5, 1.0) == pytest.approx(0.5, abs=1e-12)
    assert incremental_shift(0.5, 2.0) == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert incremental_shift(0.3, 1e9) == pytest.approx(1.0, abs=1e-6)
    assert incremental_shift(0.0, 3.0) == 0.0
    assert incremental_shift(1.0, 3.0) == 1.0
    with pytest.raises(ValueError):
        incremental_shift(0.5, 0.0)
    with pytest.raises(ValueError):
        incremental_shift(1.5, 2.0)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=1e-3, max_value=1 - 1e-3),
       st.floats(min_value=1e-3, max_value=1e3),
       st.floats(min_value=1e-3, max_value=1e3))
def test_incremental_shift_group_property(p, d1, d2):
    once = incremental_shift(p, d1)
    assert abs(incremental_shift(once, 1.0 / d1) - p) < 1e-12
    # strict monotonicity in delta
    if abs(d1 - d2) > 1e-9:
        lo, hi = sorted((d1, d2))
        assert incremental_shift(p, lo) < incremental_shift(p, hi)


def test_log_intervention_density_contracts():
    grid = unit_grid()
    baseline = bump_raster(grid)
    iv = intensified(baseline, 4.0)
    empty = PointPattern(time=1, points=np.zeros((0, 2)), window=grid.window)
    assert log_intervention_density(iv, empty) == pytest.approx(-4.0, rel=1e-9)

    # the per-raster log tables give log_pattern_density's bits: a list
    # intensity at several offsets, an empty pattern, and 1, 2 and 12 events
    from geocausal.propensity import log_pattern_density

    rasters = [Raster(grid, 4.0 * bump_raster(grid, cx=c).values) for c in (0.3, 0.5, 0.7)]
    ivs = TreatmentIntervention(intensity=rasters, expected_count=4.0)
    assert not any(log.flags.writeable for log in ivs.log_values)
    rng = np.random.default_rng(6)
    patterns = [empty] + [PointPattern(time=1, points=rng.uniform(size=(n, 2)),
                                       window=grid.window) for n in (1, 2, 12)]
    for pat in patterns:
        assert log_intervention_density(iv, pat) == log_pattern_density(
            iv.rasters[0], pat, integral=iv.integrals[0])
        for offset in range(7):
            got = log_intervention_density(ivs, pat, offset=offset)
            want = log_pattern_density(ivs.rasters[offset % 3], pat,
                                       integral=ivs.integrals[offset % 3])
            assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_sample_pattern_poisson_count():
    # Poisson MC oracle on the draw count
    grid = unit_grid()
    iv = intensified(bump_raster(grid), 3.0)
    rng = np.random.default_rng(7)
    n = 20000
    counts = np.array([len(sample_pattern(iv, rng)) for _ in range(n)])
    se = math.sqrt(3.0 / n)
    assert abs(counts.mean() - 3.0) < 3 * se
    var_se = 3.0 * math.sqrt(2.0 / n)  # rough SE for a Poisson variance estimate
    assert abs(counts.var() - 3.0) < 4 * var_se


def test_sample_pattern_cell_frequencies():
    # multinomial MC oracle on the location distribution
    grid = unit_grid(4)
    baseline = bump_raster(grid, sd=0.3)
    iv = intensified(baseline, 5.0)
    rng = np.random.default_rng(8)
    counts = np.zeros(grid.n_cells)
    draws = 4000
    total = 0
    for _ in range(draws):
        pat = sample_pattern(iv, rng)
        total += len(pat)
        if len(pat):
            row, col = grid.cell_index(pat.points)
            np.add.at(counts, row * grid.nx + col, 1.0)
    probs = (baseline.values.ravel() * grid.cell_area)
    probs = probs / probs.sum()
    expected = total * probs
    se = np.sqrt(total * probs * (1 - probs))
    assert np.all(np.abs(counts - expected) <= 4 * se + 1e-9)


def test_sample_pattern_zero_count():
    grid = unit_grid()
    baseline = bump_raster(grid)
    iv = TreatmentIntervention(intensity=Raster(grid, 0.0 * baseline.values),
                               expected_count=0.0)
    rng = np.random.default_rng(9)
    for _ in range(50):
        assert len(sample_pattern(iv, rng)) == 0


def test_choose_marks_frequencies():
    rng = np.random.default_rng(10)
    n = 30000
    probs = {"b": np.full(n, 0.5), "a": np.full(n, 0.2), "c": np.full(n, 0.3)}
    marks = choose_marks(probs, rng.uniform(size=n))
    for index, p in enumerate((0.2, 0.5, 0.3)):  # indices into sorted(probs)
        freq = np.count_nonzero(marks == index) / n
        assert abs(freq - p) < 4 * math.sqrt(p * (1 - p) / n)


def test_intervention_pair_validation():
    grid = unit_grid()
    iv = intensified(bump_raster(grid), 2.0)
    with pytest.raises(ValueError):
        InterventionPair(treatment=iv, L=0)
    with pytest.raises(ValueError):
        MediatorIntervention(delta=0.0, target_mark="hit")
    pair = InterventionPair(treatment=iv,
                            mediator=MediatorIntervention(2.0, "hit"), L=3)
    assert pair.L == 3


def test_per_period_raster_list():
    grid = unit_grid()
    b1, b2 = bump_raster(grid, cx=0.3), bump_raster(grid, cx=0.7)
    iv = TreatmentIntervention(
        intensity=[Raster(grid, 2.0 * b1.values), Raster(grid, 2.0 * b2.values)],
        expected_count=2.0)
    assert iv.raster_for_offset(0) is iv.rasters[0]
    assert iv.raster_for_offset(1) is iv.rasters[1]
    assert iv.raster_for_offset(2) is iv.rasters[0]


def test_integrals_are_derived_not_passed():
    # The integrals are computed from the rasters; a caller's value would be
    # dropped, so passing one is an error.
    grid = unit_grid()
    raster = Raster(grid, 2.0 * bump_raster(grid).values)
    with pytest.raises(TypeError, match="integrals"):
        TreatmentIntervention(intensity=raster, expected_count=2.0, integrals=(5.0,))
    iv = TreatmentIntervention(intensity=raster, expected_count=2.0)
    assert iv.integrals == (integrate_raster(raster),)

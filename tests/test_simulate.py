"""Synthetic DGP, Monte-Carlo oracle, and their cross-checks."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from geocausal import simulate
from geocausal.geometry import Raster, integrate_raster, normalize_raster
from geocausal.interventions import (
    InterventionPair,
    MediatorIntervention,
    intensified,
    sample_pattern,
)
from geocausal.io import write_events_csv
from geocausal.simulate import (
    exact_expected_spillover,
    expected_region_outcome,
    mc_oracle,
    oracle_effect,
    prefix_series,
    simulate_series,
)
from geocausal.validation import default_dgp, interior_region


def test_same_seed_identical_series():
    dgp = default_dgp(mediator=True)
    a = simulate_series(dgp, 50, 123)
    b = simulate_series(dgp, 50, 123)
    for t in range(1, 51):
        assert np.array_equal(a.treatment(t).points, b.treatment(t).points)
        assert a.treatment(t).marks == b.treatment(t).marks
        assert np.array_equal(a.outcome(t).points, b.outcome(t).points)
    c = simulate_series(dgp, 50, 124)
    assert any(not np.array_equal(a.outcome(t).points, c.outcome(t).points)
               for t in range(1, 51))


def test_prefix_series_shares_objects():
    dgp = default_dgp()
    series = simulate_series(dgp, 30, 5)
    sub = prefix_series(series, 10)
    assert sub.T == 10
    assert sub.outcome(3) is series.outcome(3)
    with pytest.raises(ValueError):
        prefix_series(series, 31)


def test_null_dgp_outcomes_are_poisson():
    # dispersion-index oracle: with no carryover the per-period outcome
    # counts are iid Poisson, so the variance-to-mean ratio is near one
    dgp = default_dgp(mu0_rate=2.0, carryover=())
    series = simulate_series(dgp, 3000, 7)
    counts = np.array([len(series.outcome(t)) for t in range(1, series.T + 1)])
    dispersion = counts.var(ddof=1) / counts.mean()
    se = math.sqrt(2.0 / (len(counts) - 1))  # chi-square-based SE of the index
    assert abs(dispersion - 1.0) < 3 * se


def test_carryover_localizes_to_lagged_periods():
    # cell-regression style check with a one-cell spillover approximation:
    # outcome excess appears exactly one period after treatment
    dgp = default_dgp(treatment_rate=0.5, mu0_rate=0.5, carryover=(12.0,),
                      spillover_range=0.15)
    series = simulate_series(dgp, 3000, 8)
    treated = np.array([len(series.treatment(t)) > 0 for t in range(1, series.T + 1)])
    counts = np.array([float(len(series.outcome(t))) for t in range(1, series.T + 1)])
    after1 = counts[1:][treated[:-1]].mean()
    after2 = counts[2:][treated[:-2] & ~treated[1:-1]].mean()
    base = counts[1:][~treated[:-1]].mean()
    assert after1 > base + 5.0  # large burst at lag one
    assert abs(after2 - base) < 1.0  # no burst at lag two


def test_mc_oracle_null_is_deterministic():
    dgp = default_dgp(carryover=())
    region = interior_region(dgp.grid)
    iv = InterventionPair(intensified(normalize_raster(dgp.treatment_intensity()), 1.0),
                          L=3)
    res = mc_oracle(dgp, [], iv, 3, region, 200, 1)
    mask = region.resolve_mask(dgp.grid)
    mu0_b = float(np.sum(dgp.mu0.values[mask]) * dgp.grid.cell_area)
    assert res.value == pytest.approx(mu0_b, rel=1e-12)
    assert res.se == 0.0
    with pytest.raises(ValueError):
        mc_oracle(dgp, [], iv, 3, region, 50, 1)


def test_oracle_identical_interventions_zero():
    dgp = default_dgp()
    region = interior_region(dgp.grid)
    baseline = normalize_raster(dgp.treatment_intensity())
    iv = InterventionPair(intensified(baseline, 0.12), L=3)
    tau, se = oracle_effect(dgp, [], iv, iv, 3, region, 2000, 3)
    assert abs(tau) <= max(3 * se, 1e-12)


def _oracle_pairs(path: str, L: int = 2):
    dgp = default_dgp(mediator=True, mediator_bonus=6.0)
    baseline = normalize_raster(dgp.treatment_intensity())
    iv = intensified(baseline, 0.5)
    med = MediatorIntervention(2.5, "hit")
    if path == "coupled":      # one treatment intervention, two mediator shifts
        return dgp, InterventionPair(iv, med, L=L), InterventionPair(iv, None, L=L)
    other = intensified(baseline, 0.2)
    return dgp, InterventionPair(other, med, L=L), InterventionPair(iv, None, L=L)


@pytest.mark.parametrize("path", ["coupled", "plain"])
def test_oracle_effect_checks_draws_and_L_on_every_path(path):
    dgp, pairA, pairB = _oracle_pairs(path)
    region = interior_region(dgp.grid)
    for n_draws in (0, 1, 99):
        with pytest.raises(ValueError, match="100 oracle draws"):
            oracle_effect(dgp, [], pairA, pairB, 2, region, n_draws, 1)
    with pytest.raises(ValueError, match="L disagrees"):
        oracle_effect(dgp, [], pairA, pairB, 3, region, 200, 1)
    _, _, pairB3 = _oracle_pairs(path, L=3)
    with pytest.raises(ValueError, match="L disagrees"):
        oracle_effect(dgp, [], pairA, pairB3, 2, region, 200, 1)


def test_coupled_oracle_draws_are_pinned(monkeypatch):
    # The draw order and the random stream are part of the oracle's contract:
    # n_draws * L treatment patterns in draw order, and these exact bits.
    dgp, pairA, pairB = _oracle_pairs("coupled")
    region = interior_region(dgp.grid)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return sample_pattern(*args, **kwargs)

    monkeypatch.setattr(simulate, "sample_pattern", counted)
    tau, se = oracle_effect(dgp, [], pairA, pairB, 2, region, 400, 3)
    assert (tau.hex(), se.hex()) == ("0x1.9720d920e6a18p-2", "0x1.23726dda43e95p-4")
    assert len(calls) == 400 * 2


@pytest.mark.parametrize("config, pinned", [
    ("marked", ("0x1.c8613966f51e4p+2", "0x1.2758a2e8f8d07p-1")),
    ("two-lag", ("0x1.2f2cc66f59110p+1", "0x1.fdb9c36ae33e3p-4")),
])
def test_mc_oracle_draws_are_pinned(monkeypatch, config, pinned):
    # n_draws * L treatment patterns in draw order, mark uniforms after every
    # non-empty pattern when there is a mark model, and these exact bits
    if config == "marked":     # mediator shift on the DGP's own mark rule, L=2
        dgp, pair, _ = _oracle_pairs("coupled")
        L, seed = 2, 3
    else:                      # no marks, both carryover lags inside the window
        dgp = default_dgp(carryover=(4.0, 2.0))
        pair = InterventionPair(
            intensified(normalize_raster(dgp.treatment_intensity()), 0.5), L=3)
        L, seed = 3, 5
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return sample_pattern(*args, **kwargs)

    monkeypatch.setattr(simulate, "sample_pattern", counted)
    res = mc_oracle(dgp, [], pair, L, interior_region(dgp.grid), 400, seed)
    assert (res.value.hex(), res.se.hex()) == pinned
    assert len(calls) == 400 * L


def test_simulate_series_events_are_pinned(tmp_path):
    # treatment draws, mark uniforms and the outcome jitter keep their stream
    dgp = default_dgp(mediator=True, mediator_bonus=6.0, treatment_rate=0.5)
    series = simulate_series(dgp, 200, 17)
    write_events_csv(series, tmp_path / "events.csv")
    digest = hashlib.sha256((tmp_path / "events.csv").read_bytes()).hexdigest()
    assert digest == "8cf91120bfa9d8bcec82a29dcae572500fca7a8c32b35d4b610cb8e5d418af8e"


def test_oracle_against_closed_form():
    # dual-route: the event-draw oracle agrees with the separable closed form
    dgp = default_dgp()
    region = interior_region(dgp.grid)
    baseline = normalize_raster(dgp.treatment_intensity())
    pairA = InterventionPair(intensified(baseline, 0.16), L=3)
    pairB = InterventionPair(intensified(baseline, 0.06), L=3)
    tau, se = oracle_effect(dgp, [], pairA, pairB, 3, region, 60_000, 11)
    mask = region.resolve_mask(dgp.grid).ravel()
    ldiff = pairA.treatment.rasters[0].values - pairB.treatment.rasters[0].values
    exact = dgp.carryover[0] * float(
        np.sum(exact_expected_spillover(dgp, ldiff)[mask])) * dgp.grid.cell_area
    assert tau == pytest.approx(exact, abs=4 * se)

    # expected_region_outcome is the same closed form including mu0
    via_expect = (expected_region_outcome(dgp, [], pairA, 3, region)
                  - expected_region_outcome(dgp, [], pairB, 3, region))
    assert via_expect == pytest.approx(exact, rel=1e-9)


def test_plain_mc_oracle_agrees_with_closed_form():
    dgp = default_dgp(treatment_rate=0.3)
    region = interior_region(dgp.grid)
    baseline = normalize_raster(dgp.treatment_intensity())
    pair = InterventionPair(intensified(baseline, 0.5), L=3)
    res = mc_oracle(dgp, [], pair, 3, region, 4000, 5)
    exact = expected_region_outcome(dgp, [], pair, 3, region)
    assert res.value == pytest.approx(exact, abs=4 * res.se)


def test_oracle_doubling_count_doubles_attributable_part():
    # linearity of the DGP in event mass
    dgp = default_dgp()
    region = interior_region(dgp.grid)
    baseline = normalize_raster(dgp.treatment_intensity())
    base = InterventionPair(intensified(baseline, 0.1), L=3)
    double = InterventionPair(intensified(baseline, 0.2), L=3)
    r1 = mc_oracle(dgp, [], base, 3, region, 20_000, 21)
    r2 = mc_oracle(dgp, [], double, 3, region, 20_000, 22)
    att1, att2 = r1.stochastic_mean, r2.stochastic_mean
    se = math.hypot(2 * r1.se, r2.se)
    assert att2 == pytest.approx(2 * att1, abs=3 * se)


def test_oracle_self_consistency_with_propensity():
    # F = the DGP's own propensity reproduces the unconditional simulated mean
    dgp = default_dgp(treatment_rate=0.4, mu0_rate=0.5, carryover=(8.0,))
    region = interior_region(dgp.grid)
    iv = InterventionPair(dgp.propensity_intervention(), L=3)
    res = mc_oracle(dgp, [], iv, 3, region, 6000, 9)
    series = simulate_series(dgp, 6000, 10)
    mask = region.resolve_mask(dgp.grid).ravel()
    counts = [np.count_nonzero(mask[series.outcome(t).cell_indices(dgp.grid)])
              for t in range(2, series.T + 1)]
    sim_mean = float(np.mean(counts))
    sim_se = float(np.std(counts, ddof=1) / math.sqrt(len(counts)))
    assert res.value == pytest.approx(sim_mean, abs=3 * math.hypot(sim_se, res.se))


def test_oracle_history_contribution():
    # events in the fixed history contribute deterministically at lags >= L
    dgp = default_dgp(carryover=(4.0, 2.0))
    region = interior_region(dgp.grid)
    baseline = normalize_raster(dgp.treatment_intensity())
    iv = InterventionPair(intensified(baseline, 0.1), L=2)
    from geocausal.patterns import MarkedPointPattern, PointPattern

    event = np.array([[5.0, 5.0]])
    history = [MarkedPointPattern(
        base=PointPattern(time=1, points=event, window=dgp.grid.window),
        marks=("none",))]
    with_hist = mc_oracle(dgp, history, iv, 2, region, 500, 13)
    without = mc_oracle(dgp, [], iv, 2, region, 500, 13)
    # the single history event sits at lag 2 for the final window period
    from geocausal.simulate import _region_kernel_mass

    mask = region.resolve_mask(dgp.grid).ravel()
    expected_gap = dgp.carryover[1] * float(
        _region_kernel_mass(dgp, mask, event)[0])
    assert with_hist.deterministic - without.deterministic == pytest.approx(
        expected_gap, rel=1e-12)


def test_mediation_truth_decomposition():
    # oracle TE = DE + IE within combined MC error
    dgp = default_dgp(mediator=True, mediator_bonus=6.0)
    region = interior_region(dgp.grid)
    baseline = normalize_raster(dgp.treatment_intensity())
    ivA = intensified(baseline, 0.16)
    ivB = intensified(baseline, 0.06)
    med = MediatorIntervention(2.5, "hit")
    L, n = 2, 30_000
    pairs = {
        "a": InterventionPair(ivA, med, L=L),
        "b": InterventionPair(ivB, None, L=L),
        "ba": InterventionPair(ivB, med, L=L),
    }
    te, te_se = oracle_effect(dgp, [], pairs["a"], pairs["b"], L, region, n, 31)
    de, de_se = oracle_effect(dgp, [], pairs["a"], pairs["ba"], L, region, n, 32)
    ie, ie_se = oracle_effect(dgp, [], pairs["ba"], pairs["b"], L, region, n, 33)
    combined = math.sqrt(te_se ** 2 + de_se ** 2 + ie_se ** 2)
    assert te == pytest.approx(de + ie, abs=2.5 * combined)


def test_region_kernel_mass_is_blocked_bit_for_bit_in_bounded_memory():
    dgp = default_dgp()
    mask = interior_region(dgp.grid).resolve_mask(dgp.grid).ravel()
    pts = np.random.default_rng(8).uniform(0.0, 10.0, size=(20_000, 2))
    tracemalloc.start()
    try:
        got = simulate._region_kernel_mass(dgp, mask, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one shot, the (20000, 1024) fields alone would take 164 MB
    assert peak < 16 * 2 ** 20

    def one_shot(p):
        return dgp.spillover_fields(p)[:, mask].sum(axis=1) * dgp.grid.cell_area

    for rows in (slice(0, 2), slice(0, 7), slice(250, 270), slice(19_990, 20_000)):
        assert got[rows].tobytes() == one_shot(pts[rows]).tobytes()
    # numpy sums a one-row gather pairwise and a taller one left to right:
    # one-row calls keep their own bits, and no block is left one row tall
    for n in (1, 2, 257, 513):
        got = simulate._region_kernel_mass(dgp, mask, pts[:n])
        assert got.tobytes() == one_shot(pts[:n]).tobytes()
    assert simulate._region_kernel_mass(dgp, mask, np.zeros((0, 2))).shape == (0,)

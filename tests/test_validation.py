"""Coverage experiments at benchmark size: pinned rows, pickled arms, errors."""

import hashlib
import json
import pickle

import numpy as np
import pytest

from geocausal import validation
from geocausal.geometry import normalize_raster
from geocausal.interventions import InterventionPair, intensified
from geocausal.simulate import expected_region_outcome
from geocausal.validation import (
    AteArm,
    CateArm,
    EstimatorConfig,
    MediationArm,
    coverage_experiment,
    default_dgp,
    interior_region,
)

SUMMARY_KEYS = ["estimand", "T", "n_replicates", "truth", "truth_se", "bias_ipw",
                "bias_hajek", "rmse_ipw", "rmse_hajek", "coverage95_ipw",
                "coverage95_hajek", "rejection_rate_ipw"]
ATE_KEYS = SUMMARY_KEYS + ["mean_ess_A", "mean_ess_B"]
MEDIATION_KEYS = SUMMARY_KEYS + ["sign_rate_hajek", "mean_ess_A", "mean_ess_B"]
CATE_KEYS = ["estimand", "T", "n_replicates", "truth", "truth_se", "bias_slope",
             "rmse_slope", "coverage95_slope", "mean_intercept", "true_intercept"]


def ate_case():
    # perfbench's validate-ate inputs (rate scale 10)
    return default_dgp(treatment_rate=0.1 * 10), EstimatorConfig(
        estimand="ate", T_grid=(50, 100), bandwidth_schedule={50: 1.2, 100: 0.67},
        count_A=0.16 * 10, count_B=0.06 * 10, L=3, oracle_draws=15_000)


def mediation_case(bonus):
    # perfbench's validate-mediation inputs (rate scale 7)
    return (default_dgp(treatment_rate=0.1 * 7, mediator=True, mediator_bonus=bonus),
            EstimatorConfig(estimand="mediation", T_grid=(50,), L=2, bandwidth=0.4,
                            count_A=0.1 * 7, count_B=0.1 * 7, delta_A=2.5,
                            delta_B=None, oracle_draws=160))


def cate_case():
    return default_dgp(treatment_rate=1.0), EstimatorConfig(
        estimand="cate", T_grid=(60,), count_A=1.6, count_B=0.6, pixel_factor=8)


# sha256 of json.dumps(rows, sort_keys=True) for 50 replicates at seed 1.
PINNED = [
    ("ate", ate_case, ATE_KEYS,
     "914a6a874517a52e5dbf3e0ad3b52d692567473ee02aa69a99ddce160abac724"),
    ("mediation-signal", lambda: mediation_case(8.0), MEDIATION_KEYS,
     "a6bb18fb84bc50df10dbc77b89a3b5f695ee0a30a89251b2cc3b8a00ee36f0d8"),
    ("mediation-null", lambda: mediation_case(0.0), MEDIATION_KEYS,
     "000b83828b1e52dc5dc95c000aaa51b71b4387da1be26bda6f6aecfcd3bc1c20"),
    ("cate", cate_case, CATE_KEYS,
     "2b5144982b9ca4fb517c8d63eaa4fd4815b48806ced6d097393fdbf4e060bd20"),
]


@pytest.mark.parametrize("name,case,keys,digest", PINNED, ids=[p[0] for p in PINNED])
def test_rows_are_pinned(name, case, keys, digest):
    dgp, config = case()
    rows = coverage_experiment(dgp, config, 50, 1)
    assert [list(row) for row in rows] == [keys] * len(rows)
    blob = json.dumps(rows, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == digest


def no_oracle(*args, **kwargs):
    raise AssertionError("the oracle ran")


def test_ate_estimates_are_pinned_and_truth_is_exact(monkeypatch):
    monkeypatch.setattr(validation, "oracle_effect", no_oracle)
    dgp, config = ate_case()
    ss = np.random.SeedSequence(1)
    seeds = ss.spawn(50)
    arm = AteArm(dgp, config, ss, 50)
    records = [arm.replicate(r, s) for r, s in enumerate(seeds)]
    # the estimates do not depend on how the truth is computed
    bits = [[(s["ipw"], s["hajek"], s["ess_A"], s["ess_B"]) for s in rec]
            for rec in records]
    assert hashlib.sha256(json.dumps(bits).encode()).hexdigest() == (
        "34919f1ba3794742d382314d52f03192726eb3275d7f18996c5ebe1ed2e85590")
    # built as perfbench's validate-ate check builds it: at truth_se 0 that
    # check holds only at equal bits
    baseline = normalize_raster(dgp.treatment_intensity())
    region = interior_region(dgp.grid, config.region_margin)
    pairs = [InterventionPair(intensified(baseline, count), L=config.L)
             for count in (config.count_A, config.count_B)]
    exact = [expected_region_outcome(dgp, [], p, config.L, region) for p in pairs]
    assert arm.truth == exact[0] - exact[1]
    assert arm.truth_se == 0.0


@pytest.mark.parametrize("cls,case", [(MediationArm, lambda: mediation_case(8.0)),
                                      (CateArm, cate_case)])
def test_pickled_arm_returns_the_same_record(cls, case):
    dgp, config = case()
    ss = np.random.SeedSequence(1)
    seeds = ss.spawn(50)
    arm = cls(dgp, config, ss, 50)
    copy = pickle.loads(pickle.dumps(arm))
    assert copy.replicate(3, seeds[3]) == arm.replicate(3, seeds[3])


def test_error_paths():
    dgp, config = ate_case()
    with pytest.raises(ValueError, match="at least 50 replicates"):
        coverage_experiment(dgp, config, 49, 1)
    config.estimand = "bogus"
    with pytest.raises(ValueError, match="estimand must be"):
        coverage_experiment(dgp, config, 50, 1)
    _, config = mediation_case(8.0)
    with pytest.raises(ValueError, match="mediator rule"):
        coverage_experiment(default_dgp(), config, 50, 1)


def test_missing_schedule_entry_names_T_before_the_oracle(monkeypatch):
    monkeypatch.setattr(validation, "oracle_effect", no_oracle)
    monkeypatch.setattr(validation, "expected_region_outcome", no_oracle)
    dgp, config = ate_case()
    config.bandwidth_schedule = {50: 1.2}
    with pytest.raises(ValueError, match="T=100"):
        coverage_experiment(dgp, config, 50, 1)
    for case in (lambda: mediation_case(8.0), cate_case):
        dgp, config = case()
        config.bandwidth_schedule = {7: 0.5}
        with pytest.raises(ValueError, match="T=%d" % max(config.T_grid)):
            coverage_experiment(dgp, config, 50, 1)


@pytest.mark.parametrize("cls,case", [(MediationArm, lambda: mediation_case(0.0)),
                                      (CateArm, cate_case)])
def test_single_T_arms_read_the_schedule(cls, case):
    dgp, config = case()
    T, bandwidth = max(config.T_grid), config.bandwidth
    seed = np.random.SeedSequence(1).spawn(1)[0]

    def first_record(schedule):
        config.bandwidth_schedule = schedule
        arm = cls(dgp, config, np.random.SeedSequence(1), 50)
        return arm.spec.bandwidth, arm.replicate(0, seed)

    plain = first_record(None)
    assert first_record({T: bandwidth}) == plain
    wider = first_record({T: 2 * bandwidth})
    assert wider[0] == 2 * bandwidth and wider[1] != plain[1]

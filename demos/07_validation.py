"""Estimator validation against known truth.

Runs a small coverage experiment (fewer replicates than the acceptance
suite, same machinery): simulate, fit, estimate, and compare with the exact
truth; the table reports bias, RMSE, CI coverage, and mean ESS.
"""

from geocausal import EstimatorConfig, coverage_experiment
from geocausal.validation import default_dgp

dgp = default_dgp()
config = EstimatorConfig(
    estimand="ate",
    T_grid=(500, 2000),
    bandwidth_schedule={500: 1.2, 2000: 0.67},
    count_A=0.16, count_B=0.06, L=3,
)

rows = coverage_experiment(dgp, config, replicates=60, seed=123)
print("truth %.4f (exact)" % rows[0]["truth"])
print("%6s %12s %12s %10s %10s %8s" % ("T", "bias(hajek)", "rmse(hajek)",
                                       "cover_ipw", "cover_haj", "ess_A"))
for row in rows:
    print("%6d %12.4f %12.4f %10.2f %10.2f %8.0f"
          % (row["T"], row["bias_hajek"], row["rmse_hajek"],
             row["coverage95_ipw"], row["coverage95_hajek"], row["mean_ess_A"]))

print("\nthe acceptance suite runs the full 200-replicate versions of this "
      "experiment plus the mediation and CATE arms; see tests/test_acceptance.py")

"""The benchmark's workloads: inputs from a seed, one op, and the op's checks.

Every workload puts a different geocausal module on the critical path:

* ``ate-sweep``: ``geocausal ate`` over L = 1..14 on a static-covariate
  workspace.  The weight layer (30 weight series) dominates.
* ``full-dynamic``: ``pipeline.run`` for ate, cate and mediate with history
  covariates.  The only workload that reads a moderators CSV, builds history
  distance maps and fits the non-static (per-period) propensity.
* ``validate-ate``: an ATE coverage experiment.  Cold smoothing per
  replicate, per-replicate simulation and the thinned oracle.
* ``validate-mediation``: a mediation coverage experiment.  The coupled
  oracle (one ``sample_pattern`` call per draw and period) is its largest
  part, then the four corner weight series and five contrasts.

A workload builds its inputs in ``setup`` (files under a work directory for
the pipeline workloads, objects for the validation ones); the library sees
only those inputs.  ``prepare`` picks the next op's input and clears its
earlier output, outside the timed region; ``op`` runs one timed operation and
returns its output; ``check`` returns the list of problems with that output
(empty when correct).
"""

from __future__ import annotations

import csv
import hashlib
import io as stdio
import json
import math
import shutil
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

from geocausal import cli, pipeline, validation
from geocausal.interventions import InterventionPair, intensified
from geocausal.geometry import normalize_raster
from geocausal.io import dump_json, write_ascii_grid, write_events_csv
from geocausal.simulate import expected_region_outcome, simulate_series
from geocausal.validation import EstimatorConfig, default_dgp, interior_region

REFERENCE_DIR = Path(__file__).resolve().parent / "references"

# Input sizes are class attributes of each workload below.  The workloads
# were first specified at T=2000 (ate-sweep), T=1000 (full-dynamic), T grid
# (500, 1000) with 150,000 oracle draws (validate-ate) and T=500 with 8,000
# draws (validate-mediation); at 4-27 s per op those do not fit the run
# budget, and README.md says how the counts quoted for them map to these.
#
# A pipeline run cycles its ops through ``workspaces`` workspaces generated
# from the seed: one workspace's op cost differs from another's by up to a
# quarter, so a run's median over a few of them would move with the seed's
# data more than with the code.  Twelve take about 0.5 s to generate.
#
# The validation workloads need about fifty treatment events per replicate:
# with fewer, some seeds give replicates whose propensity or mark-model fit
# has no maximum-likelihood estimate, and the op fails.  They reach that
# count in few periods: ``rate_scale`` multiplies the DGP's treatment rate
# and both intervention counts (so their ratio to the observed rate is
# unchanged).

# coverage_experiment rejects fewer than 50 replicates; the benchmark keeps
# that floor.
REPLICATES = 50

COVARIATES = ["bump_a", "bump_b", "bump_c", "bump_d"]
HISTORY_LAGS = [1, 7, 30]
HISTORY_COVARIATES = ["%s_hist_%d" % (stream, lag)
                      for stream in ("treatment", "outcome") for lag in HISTORY_LAGS]


def _baseline_from_treatment() -> dict:
    return {"stream": "treatment", "bandwidth": 1.2}


def _workspace_config() -> dict:
    """The CLI test suite's synthetic workspace configuration."""
    return {
        "window": {"bounds": [0.0, 0.0, 10.0, 10.0]},
        "grid": {"nx": 32, "ny": 32},
        "events": "events.csv",
        "covariates": {"dir": "covs"},
        "smoothing": {"bandwidth": 0.5},
        "propensity": {"covariates": list(COVARIATES)},
        "interventions": {
            "A": {"type": "intensify", "count": 1.0,
                  "baseline_from": _baseline_from_treatment()},
            "B": {"type": "intensify", "count": 0.4,
                  "baseline_from": _baseline_from_treatment()},
        },
        "L": "1..14",
        "estimands": ["ate"],
        "region": "window",
        "seed": 7,
        "out": "out",
    }


def _write_workspace(workdir: Path, T: int, seed, config: dict) -> int:
    """Write events, covariates and config; returns the periods the events
    file spans (the pipeline reads T as the last period with an event)."""
    dgp = default_dgp(treatment_rate=0.5, mediator=True, mediator_bonus=4.0)
    series = simulate_series(dgp, T, seed)
    workdir.mkdir(parents=True, exist_ok=True)
    write_events_csv(series, workdir / "events.csv")
    covdir = workdir / "covs"
    covdir.mkdir(exist_ok=True)
    for name, raster in dgp.covariates.items():
        write_ascii_grid(raster, covdir / ("%s.asc" % name))
    dump_json(config, workdir / "config.json")
    return max(t for t in range(1, T + 1)
               if len(series.treatment(t)) or len(series.outcome(t)))


def _write_moderators(path: Path, T: int, seed, pixels: int = 8) -> None:
    """One moderator, ``mech``, per block pixel and period."""
    rng = np.random.default_rng(seed.spawn(1)[0])
    noise = rng.normal(scale=0.1, size=(T, pixels, pixels))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["pixel_row", "pixel_col", "t", "name", "value"])
        for t in range(1, T + 1):
            for pr in range(pixels):
                for pc in range(pixels):
                    value = 0.3 * pr + 0.1 * pc + noise[t - 1, pr, pc]
                    writer.writerow([pr, pc, t, "mech", repr(float(value))])


def compare_golden(got, want, path=""):
    """First difference under the golden fixture's rules, or None.

    Same types, same keys, same lengths, floats equal to rel 1e-9 (abs
    1e-12), everything else exactly equal.
    """
    if type(got) is not type(want):
        return "%s: type %s != %s" % (path, type(got).__name__, type(want).__name__)
    if isinstance(got, dict):
        if set(got) != set(want):
            return "%s: keys differ" % path
        for k in sorted(got):
            diff = compare_golden(got[k], want[k], "%s/%s" % (path, k))
            if diff:
                return diff
        return None
    if isinstance(got, list):
        if len(got) != len(want):
            return "%s: length %d != %d" % (path, len(got), len(want))
        for i, (x, y) in enumerate(zip(got, want)):
            diff = compare_golden(x, y, "%s[%d]" % (path, i))
            if diff:
                return diff
        return None
    if isinstance(got, float):
        if math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12):
            return None
        return "%s: %r != %r" % (path, got, want)
    return None if got == want else "%s: %r != %r" % (path, got, want)


def load_reference(workload: str, seed: int):
    """(parsed results.json, sha256 of its bytes) for a committed reference."""
    manifest = json.loads((REFERENCE_DIR / "manifest.json").read_text())
    entry = manifest.get("%s/%d" % (workload, seed))
    if entry is None:
        return None
    blob = (REFERENCE_DIR / entry["file"]).read_bytes()
    digest = hashlib.sha256(blob).hexdigest()
    if digest != entry["sha256"]:
        raise ValueError("reference %s does not match its recorded sha256"
                         % entry["file"])
    return json.loads(blob), digest


class Workload:
    """Inputs from a seed, ops that cycle through them, and output checks."""

    name = ""
    workspaces = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = Path(workdir)
        # (parsed output, sha256) of a committed reference for input 0
        self.reference = None
        self.current = 0
        self._ops = 0
        self._first: dict[int, tuple[bytes, list[str]]] = {}

    def prepare(self) -> None:
        """Pick the input of the next op and clear what an earlier op left
        there; runs outside the timed region."""
        self.current = self._ops % self.workspaces
        self._ops += 1

    def op(self):
        """One op on the input ``prepare`` picked."""
        return self.run(self.current)

    def check(self, output) -> list[str]:
        """Problems with the output of the op just run.

        Every op must pass ``check_op`` and reproduce the bytes of the run's
        first op on the same input; that first op must also pass the
        workload's content checks.
        """
        problems = self.check_op(output)
        blob = self.output_bytes(output)
        if self.current in self._first:
            first, first_problems = self._first[self.current]
            return problems + (first_problems if blob == first else [
                "output of input %d differs from the run's first op on it" % self.current])
        content = self.check_content(output, blob)
        if self.reference is not None and self.current == 0:
            diff = compare_golden(json.loads(blob), self.reference[0])
            if diff:
                content.append("differs from reference at %s" % diff)
        self._first[self.current] = (blob, content)
        return problems + content

    def check_op(self, output) -> list[str]:
        return []

    def first_output(self, index: int = 0) -> bytes | None:
        return self._first[index][0] if index in self._first else None

    def results_sha256(self) -> str | None:
        blob = self.first_output()
        return None if blob is None else hashlib.sha256(blob).hexdigest()

    def expected_counts(self) -> dict:
        """Counts of the op just run that repeat exactly at the benchmark's
        first commit; a traced run compares them as a self-check."""
        return {}


class PipelineWorkload(Workload):
    """A workload whose op writes ``results.json`` into a workspace."""

    workspaces = 12

    def workspace(self, index: int) -> Path:
        return self.workdir / ("ws%d" % index)

    def setup(self) -> None:
        self.periods = [
            self.write_workspace(self.workspace(k), np.random.SeedSequence([self.seed, k]))
            for k in range(self.workspaces)]

    def prepare(self) -> None:
        # An op that wrote nothing must not pass on an earlier op's output.
        super().prepare()
        shutil.rmtree(self.workspace(self.current) / "out", ignore_errors=True)

    def output_bytes(self, output) -> bytes:
        return (self.workspace(self.current) / "out" / "results.json").read_bytes()

    def check_op(self, output) -> list[str]:
        # cli.main returns its exit code, pipeline.run nothing.
        return [] if output in (0, None) else ["op returned %r" % (output,)]

    def check_content(self, output, blob: bytes) -> list[str]:
        report = json.loads(blob)
        bad = {k: v for k, v in report["status"].items() if v != "ok"}
        problems = ["estimand status not ok: %s" % bad] if bad else []
        return problems + self.check_report(report)

    def check_report(self, report: dict) -> list[str]:
        return []


class AteSweep(PipelineWorkload):
    name = "ate-sweep"
    T = 200

    def write_workspace(self, path: Path, seed) -> int:
        return _write_workspace(path, self.T, seed, _workspace_config())

    def run(self, index: int):
        # The CLI prints where it wrote the results; keep the benchmark's
        # own output clean.
        path = self.workspace(index)
        with redirect_stdout(stdio.StringIO()):
            return cli.main(["ate", "--config", str(path / "config.json"),
                             "--out", str(path / "out")])

    def expected_counts(self) -> dict:
        # 14 L values x (A, B) plus A and B again for the effect surface; two
        # log densities per period and series.
        return {"effects.weights.series": 30,
                "effects.log_ratio.evals": 30 * 2 * self.periods[self.current]}


class FullDynamic(PipelineWorkload):
    name = "full-dynamic"
    T = 80

    def write_workspace(self, path: Path, seed) -> int:
        config = _workspace_config()
        config.update({
            "L": 3,
            "estimands": ["ate", "cate", "mediate"],
            "history_covariates": {"lags": list(HISTORY_LAGS), "coef": -6.0},
            "propensity": {"covariates": COVARIATES + HISTORY_COVARIATES},
            "interventions": {
                "A": {"type": "mediator-delta", "count": 1.0, "delta": 2.0,
                      "target_mark": "hit",
                      "baseline_from": _baseline_from_treatment()},
                "B": {"type": "intensify", "count": 0.4,
                      "baseline_from": _baseline_from_treatment()},
            },
            "mediation": {"tree": "binary", "positive": "hit", "negative": "none",
                          "covariates": ["bump_a"]},
            "cate": {"moderators_csv": "mods.csv", "moderator": "mech",
                     "pixel_factor": 4, "basis": {"df": 3}},
        })
        periods = _write_workspace(path, self.T, seed, config)
        _write_moderators(path / "mods.csv", periods, seed)
        return periods

    def run(self, index: int):
        pipeline.run(pipeline.load_config(self.workspace(index) / "config.json"))

    def check_report(self, report: dict) -> list[str]:
        med = report["estimands"].get("mediate")
        if med is None:
            return ["no mediate block in results.json"]
        problems = []
        for direct, indirect in (("direct", "indirect"), ("alt_direct", "alt_indirect")):
            for est in ("ipw", "hajek"):
                te = med["total"][est]
                split = med[direct][est] + med[indirect][est]
                if not abs(te - split) <= 1e-10:
                    problems.append("TE != %s + %s (%s): %r vs %r"
                                    % (direct, indirect, est, te, split))
        return problems


class ValidationWorkload(Workload):
    """A workload whose op is one coverage experiment of 50 replicates."""

    def run(self, index: int):
        # Called through the module so that a traced run sees the call.
        return validation.coverage_experiment(self.dgp, self.config, REPLICATES,
                                              self.seed)

    def output_bytes(self, rows) -> bytes:
        return json.dumps(rows, sort_keys=True).encode()

    def check_content(self, rows, blob: bytes) -> list[str]:
        problems = []
        for row in rows:
            for key, value in row.items():
                if isinstance(value, float) and not math.isfinite(value):
                    problems.append("row T=%s: %s is not finite" % (row.get("T"), key))
        return problems + self.check_rows(rows)

    def check_rows(self, rows) -> list[str]:
        return []


class ValidateAte(ValidationWorkload):
    name = "validate-ate"
    rate_scale = 10
    T_grid = (50, 100)
    oracle_draws = 15_000

    def setup(self) -> None:
        k = self.rate_scale
        self.dgp = default_dgp(treatment_rate=0.1 * k)
        self.config = EstimatorConfig(
            estimand="ate", T_grid=self.T_grid,
            bandwidth_schedule=dict(zip(self.T_grid, (1.2, 0.67))),
            count_A=0.16 * k, count_B=0.06 * k, L=3,
            oracle_draws=self.oracle_draws,
        )

    def closed_form_contrast(self) -> float:
        """Exact expectation of the oracle's contrast (linearity of the DGP)."""
        cfg = self.config
        baseline = normalize_raster(self.dgp.treatment_intensity())
        region = interior_region(self.dgp.grid, cfg.region_margin)
        values = []
        for count in (cfg.count_A, cfg.count_B):
            pair = InterventionPair(treatment=intensified(baseline, count), L=cfg.L)
            values.append(expected_region_outcome(self.dgp, [], pair, cfg.L, region))
        return values[0] - values[1]

    def check_rows(self, rows) -> list[str]:
        exact = self.closed_form_contrast()
        problems = []
        for row in rows:
            if not abs(row["truth"] - exact) <= 4.0 * row["truth_se"]:
                problems.append("oracle truth %r is more than 4 se (%r) from the "
                                "closed form %r" % (row["truth"], row["truth_se"], exact))
        return problems


class ValidateMediation(ValidationWorkload):
    name = "validate-mediation"
    rate_scale = 7
    T = 50
    oracle_draws = 160

    def setup(self) -> None:
        k = self.rate_scale
        self.dgp = default_dgp(treatment_rate=0.1 * k, mediator=True, mediator_bonus=8.0)
        self.config = EstimatorConfig(
            estimand="mediation", T_grid=(self.T,), L=2, bandwidth=0.4,
            count_A=0.1 * k, count_B=0.1 * k, delta_A=2.5, delta_B=None,
            oracle_draws=self.oracle_draws,
        )

    def expected_counts(self) -> dict:
        # The coupled oracle draws L = 2 patterns per draw; the simulation
        # one per period; both once per replicate.
        return {"interventions.sample.calls": REPLICATES * (2 * self.oracle_draws + self.T)}


WORKLOADS = {cls.name: cls for cls in (AteSweep, FullDynamic, ValidateAte,
                                       ValidateMediation)}

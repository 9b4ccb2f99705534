"""CLI subcommands, pipeline determinism, and the golden end-to-end fixture."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from geocausal.cli import _dgp_from, _estimator_config_from, main
from geocausal.io import dump_json, load_json, write_ascii_grid, write_events_csv
from geocausal.simulate import simulate_series
from geocausal.validation import default_dgp

GOLDEN = Path(__file__).parent / "golden"


def make_workspace(tmp_path, T=160, seed=11, estimands=("ate",), extra=None):
    """Synthetic events + covariates + config in a temp dir."""
    dgp = default_dgp(treatment_rate=0.5, mediator=True, mediator_bonus=4.0)
    series = simulate_series(dgp, T, seed)
    write_events_csv(series, tmp_path / "events.csv")
    covdir = tmp_path / "covs"
    covdir.mkdir()
    for name, raster in dgp.covariates.items():
        write_ascii_grid(raster, covdir / ("%s.asc" % name))
    config = {
        "window": {"bounds": [0.0, 0.0, 10.0, 10.0]},
        "grid": {"nx": 32, "ny": 32},
        "events": "events.csv",
        "covariates": {"dir": "covs"},
        "smoothing": {"bandwidth": 0.5},
        "propensity": {"covariates": sorted(dgp.covariates)},
        "interventions": {
            "A": {"type": "intensify", "count": 1.0,
                  "baseline_from": {"stream": "treatment", "bandwidth": 1.2}},
            "B": {"type": "intensify", "count": 0.4,
                  "baseline_from": {"stream": "treatment", "bandwidth": 1.2}},
        },
        "L": [2, 3],
        "estimands": list(estimands),
        "region": "window",
        "seed": 7,
        "out": "out",
    }
    if extra:
        config.update(extra)
    dump_json(config, tmp_path / "config.json")
    return tmp_path / "config.json"


def test_missing_events_exit_code_2(tmp_path):
    cfg = make_workspace(tmp_path)
    (tmp_path / "events.csv").unlink()
    with pytest.raises(SystemExit) as exc:
        main(["ate", "--config", str(cfg)])
    assert exc.value.code == 2


def test_unknown_flag_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["ate", "--definitely-not-a-flag"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["fit-propensity", "design-intervention", "ate",
                                     "cate", "mediate", "simulate", "validate", "report"])
def test_threads_flag_is_a_usage_error(command, capsys):
    # No subcommand takes --threads; report's required flag is given so that
    # the error is the unknown flag.
    required = ["--results", "results.json"] if command == "report" else []
    with pytest.raises(SystemExit) as exc:
        main([command, *required, "--threads", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err


def test_missing_config_exit_code_2():
    with pytest.raises(SystemExit) as exc:
        main(["ate", "--config", "/nonexistent/config.json"])
    assert exc.value.code == 2


@pytest.mark.parametrize("flags,message", [
    (["--replicates", "10"], "use at least 50 replicates"),
    (["--estimand", "mediation"], "needs a DGP with a mediator rule"),
])
def test_validate_value_error_is_one_error_line(tmp_path, capsys, flags, message):
    out = tmp_path / "validation"
    assert main(["validate", "--out", str(out)] + flags) == 2
    captured = capsys.readouterr()
    [line] = captured.err.splitlines()
    assert line.startswith("error: ") and message in line
    assert captured.out == ""
    assert not out.exists()


def test_validate_coerces_estimator_values(tmp_path):
    dgp = tmp_path / "dgp.json"
    dump_json({"estimator": {"L": "3", "oracle_draws": 2000.0, "bandwidth": "0.5",
                             "delta_A": 2, "delta_B": None, "T_grid": [60.0],
                             "bandwidth_schedule": {"60": "0.4"}}}, dgp)
    cfg = _estimator_config_from(dgp)
    assert (cfg.L, cfg.oracle_draws, cfg.bandwidth) == (3, 2000, 0.5)
    assert type(cfg.L) is int and type(cfg.oracle_draws) is int
    assert (cfg.delta_A, cfg.delta_B, cfg.T_grid) == (2.0, None, (60,))
    assert cfg.bandwidth_schedule == {60: 0.4}


@pytest.mark.parametrize("estimator,message", [
    ({"L": "three"}, "estimator.L must be an integer, got 'three'"),
    ({"oracle_draws": 1500.5}, "estimator.oracle_draws must be an integer"),
    ({"pixel_factor": [8]}, "estimator.pixel_factor must be an integer"),
    ({"count_A": None}, "estimator.count_A must be a finite number"),
    ({"T_grid": [50, "x"]}, "estimator.T_grid must be an integer"),
])
def test_validate_bad_estimator_value_is_one_error_line(tmp_path, capsys,
                                                        estimator, message):
    dgp, out = tmp_path / "dgp.json", tmp_path / "validation"
    dump_json({"estimator": estimator}, dgp)
    assert main(["validate", "--dgp", str(dgp), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    [line] = captured.err.splitlines()
    assert line.startswith("error: ") and message in line
    assert captured.out == ""
    assert not out.exists()


def test_dgp_values_are_converted(tmp_path):
    path = tmp_path / "dgp.json"
    dump_json({"treatment_rate": "0.5", "mu0_rate": 1, "spillover_range": "0.8",
               "carryover": ["16", 8], "mediator": True, "mediator_bonus": "4"}, path)
    got = _dgp_from(path)
    want = default_dgp(treatment_rate=0.5, mu0_rate=1.0, spillover_range=0.8,
                       carryover=(16.0, 8.0), mediator=True, mediator_bonus=4.0)
    assert got.carryover == want.carryover == (16.0, 8.0)
    assert (got.spillover_range, got.mediator_bonus) == (0.8, 4.0)
    assert got.propensity_coef == want.propensity_coef
    assert got.mediator_coef == want.mediator_coef is not None
    assert got.mu0.values.tobytes() == want.mu0.values.tobytes()
    dump_json({"mediator": False}, path)
    assert _dgp_from(path).mediator_coef is None


@pytest.mark.parametrize("command", ["simulate", "validate"])
@pytest.mark.parametrize("spec,message", [
    ({"treatment_rate": "fast"}, "dgp.treatment_rate must be a finite number, got 'fast'"),
    ({"mu0_rate": None}, "dgp.mu0_rate must be a finite number"),
    ({"spillover_range": "nan"}, "dgp.spillover_range must be a finite number"),
    ({"mediator_bonus": [4]}, "dgp.mediator_bonus must be a finite number"),
    ({"carryover": [16, "x"]}, "dgp.carryover must be a finite number, got 'x'"),
    ({"carryover": "16"}, "dgp.carryover must be a list of finite numbers"),
    ({"mediator": "false"}, "dgp.mediator must be true or false, got 'false'"),
])
def test_bad_dgp_value_is_one_error_line(tmp_path, capsys, command, spec, message):
    dgp, out = tmp_path / "dgp.json", tmp_path / "out"
    dump_json(spec, dgp)
    assert main([command, "--dgp", str(dgp), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    [line] = captured.err.splitlines()
    assert line.startswith("error: ") and message in line
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "validate"])
def test_missing_dgp_file_is_one_error_line(tmp_path, capsys, command):
    dgp, out = tmp_path / "nonexistent.json", tmp_path / "out"
    assert main([command, "--dgp", str(dgp), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["error: dgp file not found: %s" % dgp]
    assert captured.out == ""
    assert not out.exists()


def test_ate_pipeline_deterministic_across_threads(tmp_path):
    cfg = make_workspace(tmp_path)
    assert main(["ate", "--config", str(cfg), "--out", str(tmp_path / "run1")]) == 0
    assert main(["ate", "--config", str(cfg), "--out", str(tmp_path / "run2")]) == 0
    b1 = (tmp_path / "run1" / "results.json").read_bytes()
    b2 = (tmp_path / "run2" / "results.json").read_bytes()
    assert b1 == b2  # byte-identical across runs

    report = json.loads(b1)
    assert report["status"]["ate"] == "ok"
    ate = report["estimands"]["ate"]
    assert set(k for k in ate if k.startswith("L=")) == {"L=2", "L=3"}
    for key in ("ipw", "hajek", "sigma2_star", "hajek_var", "ci90", "ci95", "ess",
                "per_t", "region", "L"):
        assert key in ate["L=3"]
    ci90, ci95 = ate["L=3"]["ci90"], ate["L=3"]["ci95"]
    assert ci95[0] <= ci90[0] <= ci90[1] <= ci95[1]
    assert (tmp_path / "run1" / "effect_vs_L.svg").exists()
    assert (tmp_path / "run1" / "effect_surface.asc").exists()
    assert (tmp_path / "run1" / "model.json").exists()

    # results.json round-trips through the JSON layer unchanged
    parsed = load_json(tmp_path / "run1" / "results.json")
    assert json.loads(json.dumps(parsed, sort_keys=True)) == parsed



def test_ate_builds_each_intervention_once(tmp_path, monkeypatch):
    # the smoothed baselines do not depend on L: one per intervention, not per L
    import geocausal.patterns as patterns

    calls = []
    original = patterns.kernel_smooth

    def counting(pattern, spec, grid):
        calls.append(len(pattern))
        return original(pattern, spec, grid)

    monkeypatch.setattr(patterns, "kernel_smooth", counting)
    cfg = make_workspace(tmp_path, extra={"L": "1..3"})
    assert main(["ate", "--config", str(cfg)]) == 0
    report = load_json(tmp_path / "out" / "results.json")
    assert report["status"]["ate"] == "ok"
    assert set(k for k in report["estimands"]["ate"] if k.startswith("L=")) == {
        "L=1", "L=2", "L=3"}
    assert len(calls) == 2


def test_run_builds_interventions_once_for_all_estimands(tmp_path, monkeypatch):
    # ate, cate and mediate share A and B: two smoothed baselines per run
    import geocausal.patterns as patterns
    from geocausal import pipeline

    calls = []
    original = patterns.kernel_smooth

    def counting(pattern, spec, grid):
        calls.append(len(pattern))
        return original(pattern, spec, grid)

    monkeypatch.setattr(patterns, "kernel_smooth", counting)
    T = 160
    rows = ["pixel_row,pixel_col,t,name,value"] + [
        "%d,%d,%d,mech,%g" % (pr, pc, t, 0.3 * pr + 0.1 * pc)
        for t in range(1, T + 1) for pr in range(4) for pc in range(4)]
    (tmp_path / "mods.csv").write_text("\n".join(rows) + "\n")
    cfg = make_workspace(tmp_path, T=T, estimands=("ate", "cate", "mediate"), extra={
        "mediation": {"tree": "binary", "positive": "hit", "negative": "none",
                      "covariates": ["bump_a"]},
        "cate": {"moderators_csv": "mods.csv", "moderator": "mech",
                 "pixel_factor": 8, "basis": {"df": 1}},
    })
    report = pipeline.run(pipeline.load_config(cfg))
    assert report["status"] == {"ate": "ok", "cate": "ok", "mediate": "ok"}
    assert len(calls) == 2


def test_unknown_moderator_names_the_ones_in_the_csv(tmp_path):
    from geocausal import pipeline

    rows = ["pixel_row,pixel_col,t,name,value"] + [
        "%d,%d,%d,%s,%g" % (pr, pc, t, name, 0.3 * pr + 0.1 * pc)
        for name in ("mech", "dist")
        for t in range(1, 81) for pr in range(4) for pc in range(4)]
    (tmp_path / "mods.csv").write_text("\n".join(rows) + "\n")
    cfg = make_workspace(tmp_path, T=80, estimands=("cate",), extra={
        "cate": {"moderators_csv": "mods.csv", "moderator": "mechx",
                 "pixel_factor": 8, "basis": {"df": 1}},
    })
    report = pipeline.run(pipeline.load_config(cfg))
    assert report["status"]["cate"] == (
        "error: moderator 'mechx' is not in mods.csv, which has: dist, mech")


HISTORY_COVARIATES = ["%s_hist_%d" % (stream, lag)
                      for stream in ("treatment", "outcome") for lag in (1, 7, 30)]


def test_history_covariates_pipeline_is_pinned(tmp_path):
    # ate and mediate with a per-period propensity on the four bumps and the
    # six history covariates; results.json bytes pinned
    from geocausal import pipeline

    cfg = make_workspace(tmp_path, estimands=("ate", "mediate"), extra={
        "history_covariates": {"lags": [1, 7, 30], "coef": -6.0},
        "propensity": {"covariates": ["bump_a", "bump_b", "bump_c", "bump_d"]
                       + HISTORY_COVARIATES},
        "interventions": {
            "A": {"type": "mediator-delta", "count": 1.0, "delta": 2.0,
                  "target_mark": "hit",
                  "baseline_from": {"stream": "treatment", "bandwidth": 1.2}},
            "B": {"type": "intensify", "count": 0.4,
                  "baseline_from": {"stream": "treatment", "bandwidth": 1.2}},
        },
        "mediation": {"tree": "binary", "positive": "hit", "negative": "none",
                      "covariates": ["bump_a"]},
    })
    report = pipeline.run(pipeline.load_config(cfg))
    assert report["status"] == {"ate": "ok", "mediate": "ok"}
    model = load_json(tmp_path / "out" / "model.json")
    assert set(HISTORY_COVARIATES) <= set(model["coefficients"])
    blob = (tmp_path / "out" / "results.json").read_bytes()
    assert hashlib.sha256(blob).hexdigest() == (
        "17c6c2751c07de3b81ca24921bfe322474dc26810a24f5983a8aea90bc73576d")


def test_identical_interventions_yield_zero(tmp_path):
    cfg = make_workspace(tmp_path, extra={
        "interventions": {
            "A": {"type": "intensify", "count": 1.0,
                  "baseline_from": {"stream": "treatment", "bandwidth": 1.2}},
            "B": {"type": "intensify", "count": 1.0,
                  "baseline_from": {"stream": "treatment", "bandwidth": 1.2}},
        },
        "L": 2,
    })
    assert main(["ate", "--config", str(cfg)]) == 0
    report = load_json(tmp_path / "out" / "results.json")
    assert report["estimands"]["ate"]["L=2"]["ipw"] == 0.0
    assert report["estimands"]["ate"]["L=2"]["hajek"] == 0.0


def test_mediate_and_cate_subcommands(tmp_path):
    T = 160
    mods = "pixel_row,pixel_col,t,name,value\n"
    rows = []
    for t in range(1, T + 1):
        for pr in range(4):
            for pc in range(4):
                rows.append("%d,%d,%d,mech,%g" % (pr, pc, t, 0.3 * pr + 0.1 * pc))
    cfg = make_workspace(tmp_path, estimands=("mediate",), extra={
        "interventions": {
            "A": {"type": "mediator-delta", "count": 0.5, "delta": 2.0,
                  "target_mark": "hit",
                  "baseline_from": {"stream": "treatment", "bandwidth": 1.2}},
            "B": {"type": "intensify", "count": 0.5,
                  "baseline_from": {"stream": "treatment", "bandwidth": 1.2}},
        },
        "L": 2,
        "mediation": {"tree": "binary", "positive": "hit", "negative": "none",
                      "covariates": ["bump_a"]},
        "cate": {"moderators_csv": "mods.csv", "moderator": "mech",
                 "pixel_factor": 8, "basis": {"df": 1}},
    })
    (tmp_path / "mods.csv").write_text(mods + "\n".join(rows) + "\n")

    assert main(["mediate", "--config", str(cfg),
                 "--out", str(tmp_path / "med")]) == 0
    med = load_json(tmp_path / "med" / "results.json")
    blocks = med["estimands"]["mediate"]
    for key in ("total", "direct", "indirect"):
        assert key in blocks
    te, de, ie = (blocks[k]["hajek"] for k in ("total", "direct", "indirect"))
    assert te == pytest.approx(de + ie, abs=1e-10)
    assert (tmp_path / "med" / "mediation.svg").exists()

    assert main(["cate", "--config", str(cfg), "--out", str(tmp_path / "cat")]) == 0
    cat = load_json(tmp_path / "cat" / "results.json")
    assert cat["status"]["cate"] == "ok"
    assert len(cat["estimands"]["cate"]["beta_bar"]) == 2
    assert (tmp_path / "cat" / "cate_curve.svg").exists()


def test_simulate_and_fit_propensity_commands(tmp_path):
    out = tmp_path / "syn"
    assert main(["simulate", "--T", "120", "--seed", "3", "--out", str(out)]) == 0
    assert (out / "events.csv").exists()
    assert (out / "bump_a.asc").exists()

    config = {
        "window": {"bounds": [0.0, 0.0, 10.0, 10.0]},
        "grid": {"nx": 32, "ny": 32},
        "events": str(out / "events.csv"),
        "covariates": {"dir": str(out)},
        "propensity": {"covariates": ["bump_a", "bump_b", "bump_c", "bump_d"]},
        "seed": 1,
        "out": str(tmp_path / "fitout"),
    }
    cfg = tmp_path / "fit_config.json"
    dump_json(config, cfg)
    model_path = tmp_path / "model.json"
    assert main(["fit-propensity", "--config", str(cfg),
                 "--model-out", str(model_path)]) == 0
    model = load_json(model_path)
    assert model["convergence"]["converged"]
    assert "bump_a" in model["coefficients"]


def test_design_intervention_command(tmp_path):
    cfg = make_workspace(tmp_path)
    out = tmp_path / "ivA.asc"
    assert main(["design-intervention", "--config", str(cfg), "--name", "A",
                 "--raster-out", str(out)]) == 0
    from geocausal.io import read_ascii_grid
    from geocausal.geometry import integrate_raster

    raster = read_ascii_grid(out)
    assert integrate_raster(raster) == pytest.approx(1.0, rel=1e-6)


def test_report_command(tmp_path):
    cfg = make_workspace(tmp_path)
    assert main(["ate", "--config", str(cfg)]) == 0
    results = tmp_path / "out" / "results.json"
    assert main(["report", "--results", str(results),
                 "--out", str(tmp_path / "figs")]) == 0
    svg = (tmp_path / "figs" / "effect_vs_L.svg").read_text()
    assert svg.startswith("<svg") and "polyline" not in svg.split("</svg>")[1:] != []


def test_report_renders_cate_curve(tmp_path):
    results = tmp_path / "results.json"
    dump_json({"estimands": {"cate": {"curve": {
        "r": [0.0, 0.5, 1.0],
        "value": [0.1, 0.2, 0.3],
        "ci90": [[0.0, 0.2], [0.1, 0.3], [0.2, 0.4]],
        "ci95": [[-0.1, 0.3], [0.0, 0.4], [0.1, 0.5]],
    }}}}, results)
    assert main(["report", "--results", str(results),
                 "--out", str(tmp_path / "figs")]) == 0
    assert (tmp_path / "figs" / "cate_curve.svg").read_text().startswith("<svg")


def test_console_entry_point(tmp_path):
    proc = subprocess.run([sys.executable, "-m", "geocausal.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "geocausal" in proc.stdout


def test_import_and_ate_leave_scipy_stats_and_spatial_unloaded(tmp_path):
    # Importing the package and running `geocausal ate` load neither
    # scipy.stats nor scipy.spatial; the z constants written out in effects
    # are the scipy quantiles bit for bit.
    import scipy.stats

    from geocausal.effects import Z90, Z95

    assert Z90 == float(scipy.stats.norm.ppf(0.95))
    assert Z95 == float(scipy.stats.norm.ppf(0.975))
    cfg = make_workspace(tmp_path)
    script = "\n".join([
        "import sys",
        "unloaded = ('scipy.stats', 'scipy.spatial')",
        "import geocausal",
        "from geocausal.cli import main",
        "assert not [m for m in unloaded if m in sys.modules], 'import'",
        "assert main(['ate', '--config', sys.argv[1]]) == 0",
        "assert not [m for m in unloaded if m in sys.modules], 'ate'",
    ])
    proc = subprocess.run([sys.executable, "-c", script, str(cfg)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "results.json").exists()


def test_results_do_not_depend_on_the_blas_thread_count(tmp_path):
    # Region sums and contrasts are BLAS matrix-vector products over snapped
    # rows, exact in any order, so ate and mediate write the same bytes with
    # one BLAS thread and with two.
    cfg = make_workspace(tmp_path, estimands=("ate", "mediate"))
    script = ("import sys; from geocausal import pipeline; "
              "pipeline.run(pipeline.load_config(sys.argv[1]))")
    blobs = []
    for threads in ("1", "2"):
        proc = subprocess.run([sys.executable, "-c", script, str(cfg)],
                              env=dict(os.environ, OPENBLAS_NUM_THREADS=threads),
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        blobs.append((tmp_path / "out" / "results.json").read_bytes())
    assert blobs[0] == blobs[1]
    assert json.loads(blobs[0])["status"] == {"ate": "ok", "mediate": "ok"}


@pytest.mark.skipif(not (GOLDEN / "results.json").exists(),
                    reason="golden fixture not generated yet")
def test_golden_end_to_end(tmp_path):
    """Bundled synthetic fixture matches the committed golden output to 1e-9."""
    workdir = tmp_path / "golden_run"
    shutil.copytree(GOLDEN / "workspace", workdir)
    assert main(["ate", "--config", str(workdir / "config.json"),
                 "--out", str(workdir / "out")]) == 0
    got = load_json(workdir / "out" / "results.json")
    want = load_json(GOLDEN / "results.json")

    def compare(a, b, path=""):
        assert type(a) is type(b), path
        if isinstance(a, dict):
            assert set(a) == set(b), path
            for k in a:
                compare(a[k], b[k], path + "/" + str(k))
        elif isinstance(a, list):
            assert len(a) == len(b), path
            for i, (x, y) in enumerate(zip(a, b)):
                compare(x, y, "%s[%d]" % (path, i))
        elif isinstance(a, float):
            assert a == pytest.approx(b, rel=1e-9, abs=1e-12), path
        else:
            assert a == b, path

    compare(got, want)


def test_fit_propensity_event_override_replaces_missing_config_file(tmp_path):
    cfg = make_workspace(tmp_path)
    config = load_json(cfg)
    config["events"] = "missing.csv"
    dump_json(config, cfg)
    model_path = tmp_path / "model.json"
    assert main(["fit-propensity", "--config", str(cfg),
                 "--events", str(tmp_path / "events.csv"),
                 "--covariates", str(tmp_path / "covs"),
                 "--model-out", str(model_path)]) == 0
    assert load_json(model_path)["convergence"]["converged"]


def test_fit_propensity_covariate_override_replaces_missing_config_dir(tmp_path, capsys):
    cfg = make_workspace(tmp_path)
    config = load_json(cfg)
    config["covariates"] = {"dir": "missing_covs"}
    dump_json(config, cfg)
    model_path = tmp_path / "model.json"
    assert main(["fit-propensity", "--config", str(cfg),
                 "--covariates", str(tmp_path / "covs"),
                 "--model-out", str(model_path)]) == 0
    assert load_json(model_path)["convergence"]["converged"]

    with pytest.raises(SystemExit) as exc:
        main(["fit-propensity", "--config", str(cfg), "--model-out", str(model_path)])
    assert exc.value.code == 2
    assert ("error: covariate directory not found: %s" % (tmp_path / "missing_covs")
            in capsys.readouterr().err)

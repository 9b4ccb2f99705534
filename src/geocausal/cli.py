"""Command-line interface: fit-propensity, design-intervention, ate, cate,
mediate, simulate, validate, report."""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import io, pipeline
from .validation import EstimatorConfig, coverage_experiment, default_dgp


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, help="run configuration JSON")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out", type=Path, default=None, help="override the output dir")


def _load(args) -> pipeline.RunConfig:
    if args.config is None:
        print("error: --config is required", file=sys.stderr)
        raise SystemExit(2)
    if not args.config.exists():
        print("error: config file not found: %s" % args.config, file=sys.stderr)
        raise SystemExit(2)
    config = pipeline.load_config(args.config)
    if args.seed is not None:
        config.seed = args.seed
        config.raw["seed"] = args.seed
    if args.out is not None:
        config.out_dir = args.out
    if getattr(args, "events", None) is not None:
        config.events_path = args.events
    if getattr(args, "covariates", None) is not None:
        config.covariate_paths = args.covariates
    try:
        config.covariate_paths = pipeline.covariate_rasters(config.covariate_paths)
    except FileNotFoundError as err:
        print("error: %s" % err, file=sys.stderr)
        raise SystemExit(2)
    if not config.events_path.exists():
        print("error: events file not found: %s" % config.events_path, file=sys.stderr)
        raise SystemExit(2)
    return config


def _run_estimands(args, estimands: list[str]) -> int:
    config = _load(args)
    config.estimands = estimands
    if getattr(args, "L", None):
        config.L_values = pipeline._parse_L(args.L)
        config.raw["L"] = args.L
    report = pipeline.run(config)
    failures = [k for k, v in report["status"].items() if v != "ok"]
    for k in failures:
        print("estimand %s failed: %s" % (k, report["status"][k]), file=sys.stderr)
    print("results written to %s" % (config.out_dir / "results.json"))
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="geocausal",
        description="Causal inference for spatiotemporal point patterns",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit-propensity", help="fit the treatment intensity model")
    p.add_argument("--events", type=Path, help="events CSV (overrides config)")
    p.add_argument("--covariates", type=Path, help="covariate raster directory")
    p.add_argument("--model-out", type=Path, default=Path("model.json"))
    _add_common(p)

    p = sub.add_parser("design-intervention", help="build an intervention raster")
    p.add_argument("--name", default="A", help="intervention key in the config")
    p.add_argument("--raster-out", type=Path, default=Path("intervention.asc"))
    _add_common(p)

    for name, est in (("ate", ["ate"]), ("cate", ["cate"]), ("mediate", ["mediate"])):
        p = sub.add_parser(name, help="estimate %s" % name)
        p.add_argument("--L", help="intervention length(s), e.g. 3 or 1..14")
        _add_common(p)

    p = sub.add_parser("simulate", help="write a synthetic data set")
    p.add_argument("--dgp", type=Path, help="DGP preset JSON")
    p.add_argument("--T", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path, default=Path("synthetic"))

    p = sub.add_parser("validate", help="coverage experiment against the oracle")
    p.add_argument("--dgp", type=Path, help="DGP preset JSON")
    p.add_argument("--estimand", default="ate", choices=["ate", "mediation", "cate"])
    p.add_argument("--replicates", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path, default=Path("validation"))

    p = sub.add_parser("report", help="render SVG figures from results.json")
    p.add_argument("--results", type=Path, required=True)
    p.add_argument("--out", type=Path, default=None)

    args = parser.parse_args(argv)

    if args.command == "fit-propensity":
        config = _load(args)
        series = pipeline._load_series(config)
        fit = pipeline._fit_propensity(config, series)
        io.dump_json(io.propensity_model_to_dict(fit), args.model_out)
        print("model written to %s (converged=%s, deviance=%.6g)"
              % (args.model_out, fit.report.converged, fit.report.deviance))
        return 0

    if args.command == "design-intervention":
        config = _load(args)
        series = pipeline._load_series(config)
        spec = config.interventions.get(args.name)
        if spec is None:
            print("error: intervention %r not in config" % args.name, file=sys.stderr)
            return 2
        pair = pipeline.build_intervention(spec, config, series,
                                           max(config.L_values))
        io.write_ascii_grid(pair.treatment.rasters[0], args.raster_out)
        print("intervention intensity written to %s (expected count %g)"
              % (args.raster_out, pair.treatment.expected_count))
        return 0

    if args.command in ("ate", "cate", "mediate"):
        return _run_estimands(args, [args.command])

    if args.command == "simulate":
        try:
            dgp = _dgp_from(args.dgp)
        except ValueError as err:
            print("error: %s" % err, file=sys.stderr)
            return 2
        from .simulate import simulate_series

        series = simulate_series(dgp, args.T, args.seed)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        io.write_events_csv(series, out / "events.csv")
        for name, raster in dgp.covariates.items():
            io.write_ascii_grid(raster, out / ("%s.asc" % name))
        io.write_ascii_grid(dgp.mu0, out / "mu0.asc")
        print("synthetic series (T=%d) written to %s" % (args.T, out))
        return 0

    if args.command == "validate":
        try:
            dgp = _dgp_from(args.dgp)
            config = _estimator_config_from(args.dgp)
            config.estimand = args.estimand
            rows = coverage_experiment(dgp, config, args.replicates, args.seed)
        except ValueError as err:
            print("error: %s" % err, file=sys.stderr)
            return 2
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        io.write_coverage_table(rows, out / "coverage.csv", out / "coverage.json")
        for row in rows:
            print({k: row[k] for k in ("estimand", "T", "truth") if k in row})
        print("coverage table written to %s" % (out / "coverage.csv"))
        return 0

    if args.command == "report":
        if not args.results.exists():
            print("error: results file not found: %s" % args.results, file=sys.stderr)
            return 2
        report = io.load_json(args.results)
        out = args.out or args.results.parent
        out.mkdir(parents=True, exist_ok=True)
        pipeline._render_figures(report, out)
        print("figures written to %s" % out)
        return 0

    return 2


def _dgp_from(path: Path | None):
    if path is None:
        return default_dgp()
    if not path.exists():
        raise ValueError("dgp file not found: %s" % path)
    spec = io.load_json(path)
    kwargs = {k: _number("dgp." + k, spec[k], False) for k in (
        "treatment_rate", "mu0_rate", "spillover_range", "mediator_bonus") if k in spec}
    if "mediator" in spec:
        if not isinstance(spec["mediator"], bool):
            raise ValueError("dgp.mediator must be true or false, got %r" % (spec["mediator"],))
        kwargs["mediator"] = spec["mediator"]
    if "carryover" in spec:
        if not isinstance(spec["carryover"], list):
            raise ValueError("dgp.carryover must be a list of finite numbers, got %r"
                             % (spec["carryover"],))
        kwargs["carryover"] = tuple(_number("dgp.carryover", v, False)
                                    for v in spec["carryover"])
    return default_dgp(**kwargs)


def _estimator_config_from(path: Path | None) -> EstimatorConfig:
    if path is None:
        return EstimatorConfig()
    spec = io.load_json(path)
    cfg = EstimatorConfig()
    est = spec.get("estimator", {})
    for key in ("L", "bandwidth", "count_A", "count_B", "delta_A", "delta_B",
                "pixel_factor", "oracle_draws", "region_margin"):
        if key in est and not (key.startswith("delta_") and est[key] is None):
            integral = key in ("L", "pixel_factor", "oracle_draws")
            setattr(cfg, key, _number("estimator." + key, est[key], integral))
    if "T_grid" in est:
        cfg.T_grid = tuple(_number("estimator.T_grid", v, True) for v in est["T_grid"])
    if "bandwidth_schedule" in est:
        cfg.bandwidth_schedule = {_number("estimator.bandwidth_schedule", k, True):
                                  _number("estimator.bandwidth_schedule", v, False)
                                  for k, v in est["bandwidth_schedule"].items()}
    return cfg


def _number(key: str, value, integral: bool):
    """A JSON value of ``key`` as a finite float, or an int where ``integral``."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = math.nan
    if not (number.is_integer() if integral else math.isfinite(number)):
        raise ValueError("%s must be %s, got %r"
                         % (key, "an integer" if integral else "a finite number", value))
    return int(number) if integral else number


if __name__ == "__main__":
    sys.exit(main())

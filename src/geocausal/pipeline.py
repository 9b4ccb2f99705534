"""Run orchestration: config parsing, estimation pipeline, report persistence.

A run is deterministic given (config, seed): results.json carries the config
hash, package versions, and seed as provenance, and deliberately no
timestamps or thread counts, so re-runs are byte-identical.  Figures render
from the persisted estimates, never from recomputation.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__, figures, io
from .effects import SmoothedOutcomes, compute_weight_series, effect_surface, estimate_ate
from .geometry import (
    RasterGrid,
    Region,
    SpatialWindow,
    build_grid,
    normalize_raster,
)
from .heterogeneity import (
    ModeratorPanel,
    PixelPartition,
    ProjectionBasis,
    estimate_cate,
)
from .interventions import (
    InterventionPair,
    MediatorIntervention,
    PowerDensitySpec,
    intensified,
    location_shift,
    power_density,
)
from .mediation import (
    binary_tree,
    estimate_mediation_effects,
    fit_mediator_score,
    two_stage_tree,
)
from .patterns import (
    PatternSeries,
    SmoothingSpec,
    boundary_event_fraction,
    history_maps,
    smoothed_cell_values,
)
from .propensity import FittedPropensity, PropensityOptions, fit_poisson_intensity


@dataclass
class RunConfig:
    """Parsed run configuration; see README for the JSON schema."""

    raw: dict
    base_dir: Path
    window: SpatialWindow
    grid: RasterGrid
    events_path: Path
    covariate_paths: dict[str, Path] | Path  # see covariate_rasters
    smoothing: dict
    propensity: dict
    interventions: dict
    L_values: list[int]
    estimands: list[str]
    region_spec: object
    cate: dict
    mediation: dict
    truncation: float | None
    seed: int
    out_dir: Path
    history: dict | None = None

    @property
    def config_hash(self) -> str:
        blob = json.dumps(self.raw, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def _parse_window(spec: dict, base: Path) -> SpatialWindow:
    if "bounds" in spec:
        return SpatialWindow(bounds=tuple(float(v) for v in spec["bounds"]))
    if "geojson" in spec:
        poly = io.read_geojson_polygon(base / spec["geojson"])
        x0, y0 = poly.min(axis=0)
        x1, y1 = poly.max(axis=0)
        return SpatialWindow(bounds=(float(x0), float(y0), float(x1), float(y1)),
                             polygon=poly)
    raise ValueError("window spec needs 'bounds' or 'geojson'")


def _parse_L(spec) -> list[int]:
    if isinstance(spec, int):
        return [spec]
    if isinstance(spec, str):
        lo, hi = spec.split("..")
        return list(range(int(lo), int(hi) + 1))
    return [int(v) for v in spec]


def load_config(path) -> RunConfig:
    path = Path(path)
    raw = json.loads(path.read_text())
    base = path.parent
    window = _parse_window(raw.get("window", {}), base)
    grid_spec = raw.get("grid", {})
    grid = build_grid(window, int(grid_spec.get("nx", 32)), int(grid_spec.get("ny", 32)))
    events = base / raw["events"]
    cov_spec = raw.get("covariates", {})
    if "dir" in cov_spec:
        cov_paths = base / cov_spec["dir"]
    else:
        cov_paths = {name: base / p for name, p in cov_spec.items()}
    return RunConfig(
        raw=raw, base_dir=base, window=window, grid=grid, events_path=events,
        covariate_paths=cov_paths,
        smoothing=raw.get("smoothing", {}),
        propensity=raw.get("propensity", {}),
        interventions=raw.get("interventions", {}),
        L_values=_parse_L(raw.get("L", 1)),
        estimands=list(raw.get("estimands", ["ate"])),
        region_spec=raw.get("region", "window"),
        cate=raw.get("cate", {}),
        mediation=raw.get("mediation", {}),
        truncation=raw.get("truncation"),
        seed=int(raw.get("seed", 0)),
        out_dir=Path(raw.get("out", "out")) if os.path.isabs(str(raw.get("out", "out")))
        else base / str(raw.get("out", "out")),
        history=raw.get("history_covariates"),
    )


def covariate_rasters(paths: dict[str, Path] | Path) -> dict[str, Path]:
    """Covariate raster paths by name: a mapping as given, or a directory's
    ``*.asc`` files named by their stems."""
    if isinstance(paths, dict):
        return paths
    if not paths.is_dir():
        raise FileNotFoundError("covariate directory not found: %s" % paths)
    return {asc.stem: asc for asc in sorted(paths.glob("*.asc"))}


def _load_series(config: RunConfig) -> PatternSeries:
    covariates = {}
    for name, p in covariate_rasters(config.covariate_paths).items():
        if not Path(p).exists():
            raise FileNotFoundError("covariate raster not found: %s" % p)
        covariates[name] = io.read_ascii_grid(p, window=config.window)
    series = io.read_events_csv(config.events_path, config.grid)
    if config.history:
        covariates.update(history_maps(
            series, lags=tuple(config.history.get("lags", (1, 7, 30))),
            coef=float(config.history.get("coef", -6.0))))
    return PatternSeries(config.grid, series.treatments, series.outcomes, covariates)


def _smoothing_spec(config: RunConfig, series: PatternSeries) -> SmoothingSpec:
    spec = config.smoothing
    bw = spec.get("bandwidth", "scott")
    kernel = spec.get("kernel", "gaussian")
    if bw == "scott":
        return SmoothingSpec.scott(series, kernel=kernel)
    return SmoothingSpec(bandwidth=float(bw), kernel=kernel)


def _region(config: RunConfig) -> Region:
    spec = config.region_spec
    if spec == "window":
        return Region.whole_window(config.grid)
    if isinstance(spec, dict) and "bounds" in spec:
        x0, y0, x1, y1 = (float(v) for v in spec["bounds"])
        poly = np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]])
        return Region(polygon=poly, label=spec.get("label", "box"))
    if isinstance(spec, dict) and "geojson" in spec:
        poly = io.read_geojson_polygon(config.base_dir / spec["geojson"])
        return Region(polygon=poly, label=spec.get("label", "polygon"))
    raise ValueError("region spec must be 'window', bounds, or geojson")


def build_intervention(spec: dict, config: RunConfig, series: PatternSeries,
                       L: int):
    """Treatment intervention (plus optional mediator shift) from its JSON spec."""
    kind = spec.get("type", "intensify")
    baseline_path = spec.get("baseline")
    if baseline_path:
        baseline = io.read_ascii_grid(config.base_dir / baseline_path,
                                      window=config.window)
        baseline = normalize_raster(baseline)
    else:
        # Kernel-smooth a designated event subset into a baseline density.
        sub = spec.get("baseline_from", {})
        stream = sub.get("stream", "treatment")
        upto = int(sub.get("first_periods", series.T))
        pts = []
        for t in range(1, min(upto, series.T) + 1):
            pat = series.treatment(t).base if stream == "treatment" else series.outcome(t)
            if len(pat):
                pts.append(pat.points)
        if not pts:
            raise ValueError("no events available to build a baseline density")
        from .patterns import PointPattern, kernel_smooth

        pooled = PointPattern(time=1, points=np.vstack(pts), window=config.window)
        bw = float(sub.get("bandwidth", 1.0))
        baseline = normalize_raster(
            kernel_smooth(pooled, SmoothingSpec(bandwidth=bw), config.grid))

    count = float(spec.get("count", 1.0))
    if kind == "intensify":
        treatment = intensified(baseline, count)
    elif kind == "shift":
        comps = [normalize_raster(io.read_ascii_grid(config.base_dir / p,
                                                     window=config.window))
                 for p in spec.get("components", [])]
        alphas = spec.get("alpha", [])
        alphas = [float(alphas)] * len(comps) if np.isscalar(alphas) else [
            float(a) for a in alphas]
        power = power_density(PowerDensitySpec(comps, alphas), config.grid)
        treatment = location_shift(baseline, power, count)
    elif kind == "mediator-delta":
        treatment = intensified(baseline, count)
    else:
        raise ValueError("unknown intervention type %r" % kind)

    mediator = None
    if spec.get("delta") is not None:
        mediator = MediatorIntervention(delta=float(spec["delta"]),
                                        target_mark=str(spec.get("target_mark", "hit")))
    return InterventionPair(treatment=treatment, mediator=mediator, L=L)


def _weight_summary(ws) -> dict:
    qs = [0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0]
    return {
        "ess": ws.ess,
        "mean": float(np.mean(ws.weights)),
        "quantiles": {str(q): float(np.quantile(ws.weights, q)) for q in qs},
    }


def _resolution_check(config: RunConfig, smoothed: SmoothedOutcomes,
                      region: Region) -> dict:
    """Relative change of region integrals on a 2x-refined grid, sampled every
    ``T // 12``-th period from the first."""
    series, spec = smoothed.series, smoothed.spec
    coarse = smoothed.rows(1)
    fine = build_grid(config.window, config.grid.nx * 2, config.grid.ny * 2)
    mask2d = region.resolve_mask(config.grid)
    mask = mask2d.ravel()
    if region.polygon is not None:
        mask_fine = region.resolve_mask(fine).ravel()
    else:
        # each coarse cell splits into a 2x2 block of fine cells
        mask_fine = np.kron(mask2d, np.ones((2, 2), dtype=bool)).ravel()
    step = max(1, series.T // 12)
    rel = []
    for t in range(1, series.T + 1, step):
        pat = series.outcome(t)
        if len(pat) == 0:
            continue
        coarse_val = float(np.sum(coarse[t - 1][mask]))
        fine_val = float(np.sum(smoothed_cell_values(pat, spec, fine)[mask_fine]))
        if fine_val != 0.0:
            rel.append(abs(coarse_val - fine_val) / abs(fine_val))
    return {
        "max_rel_change_2x": max(rel) if rel else 0.0,
        "periods_checked": len(rel),
    }


def _fit_propensity(config: RunConfig, series: PatternSeries) -> FittedPropensity:
    """Fit the configured treatment intensity model to the series."""
    prop_cfg = config.propensity
    cov_names = prop_cfg.get("covariates") or sorted(series.covariates)
    options = PropensityOptions(
        time_spline_df=int(prop_cfg.get("time_spline_df", 0)),
        ridge=float(prop_cfg.get("ridge", 0.0)),
    )
    return fit_poisson_intensity(series, cov_names, options)


def run(config: RunConfig) -> dict:
    """Execute the configured estimands; returns the report payload.

    The report's ``status`` block records per-estimand success; the CLI maps
    any failure to a nonzero exit code.
    """
    if not config.events_path.exists():
        raise FileNotFoundError("events file not found: %s" % config.events_path)
    series = _load_series(config)
    spec = _smoothing_spec(config, series)
    region = _region(config)
    out = config.out_dir
    out.mkdir(parents=True, exist_ok=True)

    fit = _fit_propensity(config, series)
    io.dump_json(io.propensity_model_to_dict(fit), out / "model.json")

    smoothed = SmoothedOutcomes(series, spec)
    report: dict = {
        "provenance": {
            "config_hash": config.config_hash,
            "seed": config.seed,
            "versions": {"geocausal": __version__, "numpy": np.__version__},
            "propensity_refit_per_L": False,
        },
        "estimands": {},
        "status": {},
        "diagnostics": {
            "smoothing": {"bandwidth": spec.bandwidth, "kernel": spec.kernel},
            "boundary_event_fraction_3b": boundary_event_fraction(series, spec),
            "propensity": {
                "converged": fit.report.converged,
                "iterations": fit.report.iterations,
                "deviance": fit.report.deviance,
                "max_abs_score": fit.report.max_abs_score,
                "ridge": fit.report.ridge,
            },
            "resolution": _resolution_check(config, smoothed, region),
        },
    }
    # A and B do not depend on L: built once, on first use, at the largest L.
    pairs = functools.cache(lambda: _intervention_pairs(config, series))

    for estimand in config.estimands:
        try:
            if estimand == "ate":
                report["estimands"]["ate"] = _run_ate(
                    config, series, fit, spec, region, smoothed, pairs)
            elif estimand == "cate":
                report["estimands"]["cate"] = _run_cate(
                    config, series, fit, smoothed, pairs)
            elif estimand == "mediate":
                report["estimands"]["mediate"] = _run_mediation(
                    config, series, fit, spec, region, smoothed, pairs)
            else:
                raise ValueError("unknown estimand %r" % estimand)
            report["status"][estimand] = "ok"
        except Exception as err:  # surfaced per estimand, run continues
            report["status"][estimand] = "error: %s" % err

    io.dump_json(report, out / "results.json")
    _render_figures(report, out)
    return report


def _intervention_pairs(config: RunConfig, series: PatternSeries):
    """Interventions A and B of the config at the largest L; a failed build
    is not cached, so every estimand that needs them reports the error."""
    ivs = config.interventions
    if not ("A" in ivs and "B" in ivs):
        raise ValueError("estimands need interventions A and B in the config")
    return tuple(build_intervention(ivs[k], config, series, max(config.L_values))
                 for k in "AB")


def _run_ate(config, series, fit, spec, region, smoothed, pairs) -> dict:
    baseA, baseB = pairs()
    L_max = baseA.L
    results = {}
    for L in config.L_values:
        est = estimate_ate(series, fit, replace(baseA, L=L), replace(baseB, L=L),
                           spec, region, L, smoothed=smoothed,
                           truncation=config.truncation)
        results["L=%d" % L] = est.to_dict()

    # Effect surface of the largest L, persisted as .asc.
    wA = compute_weight_series(series, fit, baseA.treatment, L_max)
    wB = compute_weight_series(series, fit, baseB.treatment, L_max)
    surface = effect_surface(series, spec, wA, wB, smoothed=smoothed)
    io.write_ascii_grid(surface, config.out_dir / "effect_surface.asc")
    results["weights"] = {"A": _weight_summary(wA), "B": _weight_summary(wB)}
    return results


def _run_cate(config, series, fit, smoothed, pairs) -> dict:
    cfg = config.cate
    L = max(config.L_values)
    factor = int(cfg.get("pixel_factor", 4))
    partition = PixelPartition.blocks(config.grid, factor)
    moderators = io.read_moderators_csv(config.base_dir / cfg["moderators_csv"],
                                        partition, factor, series.T)
    name = cfg.get("moderator") or sorted(moderators)[0]
    if name not in moderators:
        raise ValueError("moderator %r is not in %s, which has: %s"
                         % (name, cfg["moderators_csv"], ", ".join(sorted(moderators))))
    panel = ModeratorPanel(partition=partition, values=moderators)
    df = int(cfg.get("basis", {}).get("df", 1))
    values = moderators[name][~np.isnan(moderators[name])]
    basis = (ProjectionBasis.natural_cubic(values, df) if df > 1
             else ProjectionBasis.linear())

    pairA, pairB = pairs()
    wA = compute_weight_series(series, fit, pairA.treatment, L)
    wB = compute_weight_series(series, fit, pairB.treatment, L)
    proj = estimate_cate(smoothed, partition, wA, wB, panel, name, basis,
                         missing=cfg.get("missing", "drop"))
    grid_r = np.linspace(float(np.nanmin(moderators[name])),
                         float(np.nanmax(moderators[name])), 25)
    curve = proj.evaluate(grid_r)
    return {
        "moderator": name,
        "L": L,
        "pixel_factor": factor,
        "beta_bar": [float(v) for v in proj.beta_bar],
        "per_t_beta": [[float(v) for v in row] for row in proj.betas],
        "curve": {
            "r": [float(v) for v in curve["r"]],
            "value": [float(v) for v in curve["value"]],
            "ci90": [[float(a), float(b)] for a, b in curve["ci90"]],
            "ci95": [[float(a), float(b)] for a, b in curve["ci95"]],
        },
        "ci_device": "conservative per-period squared projection (deviation of "
                     "unknown magnitude from the source's unstated construction)",
    }


def _run_mediation(config, series, fit, spec, region, smoothed, pairs) -> dict:
    cfg = config.mediation
    L = max(config.L_values)
    tree_kind = cfg.get("tree", "binary")
    if tree_kind == "binary":
        stages = binary_tree(cfg.get("positive", "hit"), cfg.get("negative", "none"))
    else:
        cats = cfg.get("categories", {})
        stages = two_stage_tree(
            classifiable=tuple(cats.get("classifiable", ("civilian", "military"))),
            other=cats.get("other", "other"),
            target=cats.get("target", "military"),
        )
    cov_names = cfg.get("covariates") or sorted(series.covariates)
    score = fit_mediator_score(series, cov_names, stages,
                               ridge=float(cfg.get("ridge", 0.0)))
    pairA, pairB = pairs()
    effects = estimate_mediation_effects(series, fit, score, pairA, pairB,
                                         spec, region, L, smoothed=smoothed)
    payload = effects.to_dict()
    payload["L"] = L
    payload["score_model"] = {
        "stages": [s.name for s in stages],
        "deviance": [f.deviance for f in score.fits],
        "converged": [f.converged for f in score.fits],
        "note": "stage logistics replace the source's additive smoother",
    }
    return payload


def _render_figures(report: dict, out: Path) -> None:
    estimands = report.get("estimands", {})
    ate = estimands.get("ate")
    if ate:
        results = [dict(v, L=int(k.split("=")[1])) for k, v in ate.items()
                   if k.startswith("L=")]
        results.sort(key=lambda r: r["L"])
        if results:
            figures.write_svg(figures.effect_vs_l_panel(results),
                              out / "effect_vs_L.svg")
    cate = estimands.get("cate")
    if cate:
        curve = cate["curve"]
        evaluation = {
            "r": np.asarray(curve["r"]),
            "value": np.asarray(curve["value"]),
            "ci95": np.asarray(curve["ci95"]),
        }
        figures.write_svg(figures.cate_curve_panel(evaluation), out / "cate_curve.svg")
    mediate = estimands.get("mediate")
    if mediate:
        figures.write_svg(figures.mediation_bars(mediate), out / "mediation.svg")

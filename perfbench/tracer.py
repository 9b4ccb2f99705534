"""Per-layer tracing of geocausal from outside the library.

``install`` rebinds the public functions of each layer in every ``geocausal.*``
namespace that holds them (and wraps methods on their classes); nothing in the
library changes.  Coarse calls become spans: name, start, end, parent and the
id of the op they belong to.  Hot leaves (``sample_pattern``, the two log
densities, ``smoothed_cell_values``/``kernel_smooth``) only add a call count
and their summed time to the enclosing span, so memory stays bounded at
hundreds of thousands of calls per op.

A span's self time is its duration minus its child spans and leaves.  Self
times are summed per layer.  The layers' self times and the root span's own
time (``trace.unattributed_s``, time outside every layer) add up to the op.
"""

from __future__ import annotations

import functools
import hashlib
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT_SPAN = "op"


class Tracer:
    """Spans and per-op counters; one instance per traced window."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.ops: list[dict] = []
        self._stack: list[list] = []
        self._next_id = 0
        self._op_id = 0
        self._leaf_depth = 0
        self._reset_op()

    def _reset_op(self):
        self.values: dict[str, float] = defaultdict(float)
        self._distinct: set = set()
        self._alive: list = []
        self._digests: dict[int, str] = {}

    # spans -----------------------------------------------------------------
    def enter(self, name: str) -> None:
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0, parent])

    def exit(self) -> float:
        span_id, name, start, inner, parent = self._stack.pop()
        end = time.perf_counter()
        duration = end - start
        self.values["%s.self_s" % name] += duration - inner
        if self._stack:
            self._stack[-1][3] += duration
        self.spans.append((self._op_id, span_id, parent, name, start, end))
        return duration

    def leaf(self, name: str, seconds: float) -> None:
        self.values["%s.self_s" % name] += seconds
        if self._stack:
            self._stack[-1][3] += seconds

    def add(self, key: str, amount: float = 1.0) -> None:
        self.values[key] += amount

    # ops -------------------------------------------------------------------
    def run_op(self, fn):
        """Run one op under a root span; returns (result, seconds)."""
        self._op_id += 1
        self.enter(ROOT_SPAN)
        try:
            result = fn()
        finally:
            seconds = self.exit()
            record = dict(self.values)
            record["op_s"] = seconds
            record["log_ratio_distinct"] = len(self._distinct)
            self.ops.append(record)
            self._reset_op()
        return result, seconds

    # distinct (period, density) pairs behind the log-density evaluations ----
    def log_ratio_eval(self, density_key, pattern) -> None:
        self.values["effects.log_ratio.evals"] += 1
        # Objects are kept alive for the op so that their ids stay unique.
        self._alive.append(pattern)
        self._distinct.add((density_key, id(pattern)))

    def content_key(self, array) -> str:
        """Digest of an intervention raster, cached per array object."""
        key = self._digests.get(id(array))
        if key is None:
            key = hashlib.sha1(array.tobytes()).hexdigest()
            self._digests[id(array)] = key
            self._alive.append(array)
        return key

    def write_spans(self, path: Path) -> None:
        """Spans as JSON lines: op, id, parent, name, start and end in seconds."""
        origin = min((span[4] for span in self.spans), default=0.0)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for op_id, span_id, parent, name, start, end in self.spans:
                fh.write('{"op": %d, "id": %d, "parent": %s, "name": "%s", '
                         '"start": %.9f, "end": %.9f}\n'
                         % (op_id, span_id, "null" if parent is None else parent,
                            name, start - origin, end - origin))


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _file_bytes(values) -> int:
    total = 0
    for value in values:
        if isinstance(value, (str, Path)) and os.path.isfile(value):
            total += os.path.getsize(value)
    return total


def _span(tracer, name, fn, after=None, before=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(tracer, args, kwargs)
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if after is not None:
            after(tracer, args, kwargs, result)
        return result
    return wrapper


def _leaf(tracer, name, fn, before=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(tracer, args, kwargs)
        if tracer._leaf_depth:
            return fn(*args, **kwargs)
        tracer._leaf_depth += 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.leaf(name, time.perf_counter() - start)
            tracer._leaf_depth -= 1
    return wrapper


def _count(fn, before):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        before(args, kwargs)
        return fn(*args, **kwargs)
    return wrapper


def _io_read(tracer, args, kwargs):
    tracer.add("io.read.bytes", _file_bytes(args[:1]))


def _io_write(tracer, args, kwargs, result):
    tracer.add("io.write.bytes", _file_bytes(list(args) + list(kwargs.values())))


def _series_events(tracer, args, kwargs, series):
    tracer.add("simulate.series.events", sum(
        len(series.treatment(t)) + len(series.outcome(t)) for t in range(1, series.T + 1)))


def _propensity_fit(tracer, args, kwargs, fit):
    tracer.add("propensity.fit.irls_iterations", fit.report.iterations)


def _intervention_density(tracer, args, kwargs):
    iv, pattern = args[0], _arg(args, kwargs, 1, "pattern")
    offset = _arg(args, kwargs, 2, "offset", 0)
    tracer.log_ratio_eval(tracer.content_key(iv.raster_for_offset(offset).values), pattern)


def _propensity_density(tracer, args, kwargs):
    fit, series = args[0], _arg(args, kwargs, 1, "series")
    t = _arg(args, kwargs, 2, "t")
    tracer._alive.append(fit)
    tracer.log_ratio_eval(("propensity", id(fit)), series.treatment(t))


def _smooth_points(tracer, args, kwargs):
    tracer.add("patterns.smooth.points", len(args[0]))


def install(tracer: Tracer):
    """Wrap every traced layer; returns a function that undoes the wrapping."""
    from geocausal import (cli, effects, figures, geometry, glm, heterogeneity,
                           interventions, io, mediation, patterns, pipeline,
                           propensity, simulate, validation)

    t = tracer
    restore: list[tuple] = []
    modules = [m for n, m in sys.modules.items()
               if (n == "geocausal" or n.startswith("geocausal.")) and m is not None]

    def rebind(module, attr, make, only=None):
        original = getattr(module, attr)
        replacement = make(original)
        for mod in only or modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, replacement)
                    restore.append((mod, name, original))

    def method(cls, attr, make):
        original = cls.__dict__[attr]
        setattr(cls, attr, make(original))
        restore.append((cls, attr, original))

    def span(name, after=None, before=None):
        return lambda fn: _span(t, name, fn, after, before)

    def leaf(name, before=None):
        return lambda fn: _leaf(t, name, fn, before)

    def count(key, amount=None):
        def before(args, kwargs):
            t.add(key, 1.0 if amount is None else amount(args, kwargs))
        return lambda fn: _count(fn, before)

    # pipeline / cli: orchestration
    rebind(cli, "main", span("pipeline"))
    rebind(pipeline, "run", span("pipeline"))
    # io
    for name in ("read_events_csv", "read_ascii_grid", "read_moderators_csv",
                 "read_geojson_polygon", "read_geojson_polylines", "load_json"):
        rebind(io, name, span("io.read", before=_io_read))
    for name in ("dump_json", "write_ascii_grid", "write_events_csv",
                 "write_coverage_table"):
        rebind(io, name, span("io.write", _io_write))
    # figures
    for name in ("write_svg", "effect_vs_l_panel", "cate_curve_panel", "mediation_bars"):
        rebind(figures, name, span("figures"))
    # patterns and geometry
    rebind(patterns, "history_maps", span("patterns.history"))
    rebind(patterns, "smoothed_cell_values", leaf("patterns.smooth", _smooth_points))
    rebind(patterns, "kernel_smooth", leaf("patterns.smooth", _smooth_points))
    rebind(geometry, "distance_map", count("geometry.distance_map.calls"))
    # propensity + glm
    rebind(propensity, "fit_poisson_intensity", span("propensity.fit", _propensity_fit))
    rebind(glm, "fit_glm", count("propensity.fit.design_rows",
                                 lambda a, k: len(a[0])), only=[propensity])
    rebind(propensity, "predict_intensity", count("propensity.predict.calls"))
    method(propensity.FittedPropensity, "log_density",
           leaf("effects.log_ratio", _propensity_density))
    # interventions
    rebind(interventions, "log_intervention_density",
           leaf("effects.log_ratio", _intervention_density))
    rebind(interventions, "sample_pattern", leaf(
        "interventions.sample", lambda tr, a, k: tr.add("interventions.sample.calls")))
    # effects
    rebind(effects, "compute_weight_series",
           span("effects.weights", lambda tr, a, k, r: tr.add("effects.weights.series")))
    rebind(effects, "estimate_ate", span("effects.estimate"))
    rebind(effects, "_estimate_from_weights", span("effects.estimate"))
    rebind(effects, "per_period_contrasts", span("effects.contrasts"))
    rebind(effects, "effect_surface", span("effects.surface"))
    method(effects.SmoothedOutcomes, "region_integrals", span(
        "effects.region_integrals",
        lambda tr, a, k, r: tr.add("effects.region_integrals.calls")))

    def cache_request(args, kwargs):
        # A request is a hit when the period's cell values are already cached.
        smoothed, period = args[0], _arg(args, kwargs, 1, "t")
        t.add("effects.outcome_cache.requests")
        if period in smoothed._cells:
            t.add("effects.outcome_cache.hits")
    method(effects.SmoothedOutcomes, "cell_values", lambda fn: _count(fn, cache_request))
    # heterogeneity
    rebind(heterogeneity, "estimate_cate", span("heterogeneity"))
    rebind(heterogeneity, "pixel_effects", count("heterogeneity.pixel_effects.calls"))
    rebind(heterogeneity, "project_cate_t", count("heterogeneity.project.calls"))
    # mediation
    rebind(mediation, "fit_mediator_score", span("mediation.score"))
    rebind(mediation, "compute_mediation_weight_series",
           span("mediation.weights", lambda tr, a, k, r: tr.add("mediation.weights.series")))
    rebind(mediation, "estimate_mediation_effects", span("mediation.estimate"))
    # simulate
    rebind(simulate, "simulate_series", span("simulate.series", _series_events))
    rebind(simulate, "oracle_effect", span(
        "simulate.oracle",
        lambda tr, a, k, r: tr.add("simulate.oracle.draws", _arg(a, k, 6, "n_draws"))))
    # validation
    rebind(validation, "coverage_experiment", span("validation"))

    def uninstall():
        for target, name, original in reversed(restore):
            setattr(target, name, original)
    return uninstall


# Per-layer metrics reported by a traced run, with their units.  Values are
# means per op over the traced ops.
LAYER_METRICS = [
    ("effects.weights.self_s", "s"),
    ("effects.weights.series", "count"),
    ("effects.log_ratio.self_s", "s"),
    ("effects.log_ratio.evals", "count"),
    ("effects.log_ratio.useful_ratio", "ratio"),
    ("effects.estimate.self_s", "s"),
    ("effects.contrasts.self_s", "s"),
    ("effects.region_integrals.self_s", "s"),
    ("effects.region_integrals.calls", "count"),
    ("effects.surface.self_s", "s"),
    ("effects.outcome_cache.hit_ratio", "ratio"),
    ("patterns.smooth.self_s", "s"),
    ("patterns.smooth.points", "count"),
    ("patterns.history.self_s", "s"),
    ("geometry.distance_map.calls", "count"),
    ("propensity.fit.self_s", "s"),
    ("propensity.fit.irls_iterations", "count"),
    ("propensity.fit.design_rows", "count"),
    ("propensity.predict.calls", "count"),
    ("io.read.self_s", "s"),
    ("io.read.bytes", "bytes"),
    ("io.write.self_s", "s"),
    ("io.write.bytes", "bytes"),
    ("heterogeneity.self_s", "s"),
    ("heterogeneity.pixel_effects.calls", "count"),
    ("heterogeneity.project.calls", "count"),
    ("mediation.score.self_s", "s"),
    ("mediation.weights.self_s", "s"),
    ("mediation.weights.series", "count"),
    ("mediation.estimate.self_s", "s"),
    ("simulate.series.self_s", "s"),
    ("simulate.series.events", "count"),
    ("simulate.oracle.self_s", "s"),
    ("simulate.oracle.draws", "count"),
    ("interventions.sample.self_s", "s"),
    ("interventions.sample.calls", "count"),
    ("validation.self_s", "s"),
    ("pipeline.self_s", "s"),
    ("figures.self_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.op_s_mean", "s"),
    ("trace.overhead_s", "s"),
]


def layer_metrics(ops: list[dict], untraced_p50: float, traced_p50: float) -> dict:
    """Means per op of every per-layer metric, plus the tracing overhead.

    Self times and ``trace.op_s_mean`` are wall seconds of the traced ops;
    ``trace.overhead_s`` is the difference of the calibrated medians passed in.
    """
    n = len(ops)

    def mean(key):
        return sum(op.get(key, 0.0) for op in ops) / n

    out = {name: mean(name) for name, _ in LAYER_METRICS if not name.startswith("trace.")}
    evals = mean("effects.log_ratio.evals")
    out["effects.log_ratio.useful_ratio"] = mean("log_ratio_distinct") / evals if evals else 0.0
    requests = mean("effects.outcome_cache.requests")
    out["effects.outcome_cache.hit_ratio"] = (
        mean("effects.outcome_cache.hits") / requests if requests else 0.0)
    out["trace.unattributed_s"] = mean("%s.self_s" % ROOT_SPAN)
    out["trace.op_s_mean"] = mean("op_s")
    out["trace.overhead_s"] = traced_p50 - untraced_p50
    return out


def attributed_seconds(ops: list[dict]) -> float:
    """Mean per op of the self times of every layer (spans and leaves); the
    root span's own time, ``trace.unattributed_s``, is the rest of the op."""
    return sum(v for op in ops for k, v in op.items()
               if k.endswith(".self_s") and k != "%s.self_s" % ROOT_SPAN) / len(ops)

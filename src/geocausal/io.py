"""File formats: ESRI ASCII rasters, GeoJSON geometries, event and moderator CSVs.

Rasters travel as ESRI ASCII grids (.asc).  The format stores one cellsize,
so anisotropic grids are rejected on write.  Values are row-major from the
north edge; in-memory rasters keep row 0 at the south edge, so rows flip on
both read and write.  NODATA cells become NaN.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from .geometry import Raster, RasterGrid, SpatialWindow, build_grid
from .patterns import MarkedPointPattern, PatternSeries, PointPattern

_NODATA = -9999.0


def write_ascii_grid(raster: Raster, path) -> None:
    grid = raster.grid
    if not math.isclose(grid.dx, grid.dy, rel_tol=1e-9):
        raise ValueError(
            "ESRI ASCII stores a single cellsize; grid cells are %g x %g"
            % (grid.dx, grid.dy)
        )
    x0, y0, _, _ = grid.window.bounds
    values = np.where(np.isfinite(raster.values), raster.values, _NODATA)
    lines = [
        "ncols %d" % grid.nx,
        "nrows %d" % grid.ny,
        "xllcorner %s" % repr(float(x0)),
        "yllcorner %s" % repr(float(y0)),
        "cellsize %s" % repr(float(grid.dx)),
        "NODATA_value %s" % repr(_NODATA),
    ]
    for row in values[::-1]:  # north first on disk
        lines.append(" ".join(repr(float(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def read_ascii_grid(path, window: SpatialWindow | None = None) -> Raster:
    """Read an .asc raster; builds the implied grid unless a window is given."""
    tokens: list[str] = []
    header: dict[str, float] = {}
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            if parts[0].lower() in ("ncols", "nrows", "xllcorner", "yllcorner",
                                    "cellsize", "nodata_value"):
                header[parts[0].lower()] = float(parts[1])
            else:
                tokens.extend(parts)
    for key in ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize"):
        if key not in header:
            raise ValueError("missing %r in ESRI ASCII header of %s" % (key, path))
    nx, ny = int(header["ncols"]), int(header["nrows"])
    cell = header["cellsize"]
    if len(tokens) != nx * ny:
        raise ValueError(
            "expected %d values in %s, found %d" % (nx * ny, path, len(tokens))
        )
    values = np.array([float(v) for v in tokens]).reshape(ny, nx)[::-1]
    nodata = header.get("nodata_value")
    if nodata is not None:
        values = np.where(values == nodata, np.nan, values)
    if window is None:
        x0, y0 = header["xllcorner"], header["yllcorner"]
        window = SpatialWindow(bounds=(x0, y0, x0 + nx * cell, y0 + ny * cell))
    grid = build_grid(window, nx, ny)
    if not (math.isclose(grid.dx, cell, rel_tol=1e-9)
            and math.isclose(grid.dy, cell, rel_tol=1e-9)):
        raise ValueError("raster cellsize %g does not tile the window" % cell)
    return Raster(grid, values)


def _geometries(doc: dict) -> list[dict]:
    kind = doc.get("type")
    if kind == "FeatureCollection":
        return [f["geometry"] for f in doc.get("features", [])]
    if kind == "Feature":
        return [doc["geometry"]]
    return [doc]


def read_geojson_polygon(path) -> np.ndarray:
    """Exterior ring of the single polygon in a GeoJSON file (planar km)."""
    doc = json.loads(Path(path).read_text())
    polys = [g for g in _geometries(doc) if g.get("type") == "Polygon"]
    if len(polys) != 1:
        raise ValueError("expected exactly one Polygon in %s, found %d"
                         % (path, len(polys)))
    rings = polys[0]["coordinates"]
    if len(rings) != 1:
        raise ValueError("polygon holes are not supported (%s)" % path)
    ring = np.asarray(rings[0], dtype=float)
    if ring.shape[0] >= 2 and np.allclose(ring[0], ring[-1]):
        ring = ring[:-1]  # drop the GeoJSON closing vertex
    return ring


def read_geojson_polylines(path) -> list[np.ndarray]:
    """All LineString/MultiLineString geometries as coordinate arrays."""
    doc = json.loads(Path(path).read_text())
    lines: list[np.ndarray] = []
    for geom in _geometries(doc):
        if geom.get("type") == "LineString":
            lines.append(np.asarray(geom["coordinates"], dtype=float))
        elif geom.get("type") == "MultiLineString":
            lines.extend(np.asarray(c, dtype=float) for c in geom["coordinates"])
    if not lines:
        raise ValueError("no LineString geometries in %s" % path)
    return lines


def read_events_csv(path, grid: RasterGrid) -> PatternSeries:
    """Build a PatternSeries from the event CSV; T is the last period with an
    event.

    Columns: ``t`` (integer >= 1), ``x``, ``y`` (km), ``stream`` in
    {treatment, outcome}, optional ``mark`` (treatment rows only, ``none``
    when empty).  Any malformed row is a hard error naming the line number.
    """
    treatment: dict[int, list] = {}
    outcome: dict[int, list] = {}
    T = 0
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"t", "x", "y", "stream"}
        if reader.fieldnames is None or not required <= set(reader.fieldnames):
            raise ValueError(
                "%s must have columns t,x,y,stream (optional mark); got %s"
                % (path, reader.fieldnames)
            )
        for row in reader:
            lineno = reader.line_num
            try:
                t = int(row["t"])
                x = float(row["x"])
                y = float(row["y"])
            except (TypeError, ValueError) as err:
                raise ValueError("%s line %d: %s" % (path, lineno, err)) from None
            if t < 1:
                raise ValueError("%s line %d: t must be >= 1, got %d" % (path, lineno, t))
            stream = (row["stream"] or "").strip().lower()
            if stream == "treatment":
                mark = (row.get("mark") or "").strip() or "none"
                treatment.setdefault(t, []).append((x, y, mark))
            elif stream == "outcome":
                outcome.setdefault(t, []).append((x, y))
            else:
                raise ValueError(
                    "%s line %d: stream must be 'treatment' or 'outcome', got %r"
                    % (path, lineno, row["stream"])
                )
            T = max(T, t)
    if T < 1:
        raise ValueError("no events found in %s" % path)

    window = grid.window
    treatments, outcomes = [], []
    for t in range(1, T + 1):
        rows = treatment.get(t, [])
        pts = np.array([[r[0], r[1]] for r in rows]).reshape(-1, 2)
        marks = tuple(r[2] for r in rows)
        treatments.append(MarkedPointPattern(
            base=PointPattern(time=t, points=pts, window=window), marks=marks))
        orows = outcome.get(t, [])
        opts = np.array(orows).reshape(-1, 2)
        outcomes.append(PointPattern(time=t, points=opts, window=window))
    return PatternSeries(grid, treatments, outcomes)


def write_events_csv(series: PatternSeries, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "x", "y", "stream", "mark"])
        for t in range(1, series.T + 1):
            pat = series.treatment(t)
            for i in range(len(pat)):
                writer.writerow([t, repr(float(pat.points[i, 0])),
                                 repr(float(pat.points[i, 1])),
                                 "treatment", pat.marks[i]])
            out = series.outcome(t)
            for i in range(len(out)):
                writer.writerow([t, repr(float(out.points[i, 0])),
                                 repr(float(out.points[i, 1])),
                                 "outcome", ""])


def read_moderators_csv(path, partition, factor: int, T: int) -> dict[str, np.ndarray]:
    """Per-pixel, per-period moderators: pixel_row, pixel_col, t, name, value.

    ``pixel_row``/``pixel_col`` index blocks of the block partition (row 0 at
    the south edge, matching the raster convention); the partition resolves
    them to pixel ids.  Missing values stay NaN, which downstream projection
    treats as flagged-missing rather than imputing.
    """
    grid = partition.grid
    labels = partition.labels.tolist()
    out: dict[str, np.ndarray] = {}
    required = ("pixel_row", "pixel_col", "t", "name", "value")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or not set(required) <= set(header):
            raise ValueError(
                "%s must have columns pixel_row,pixel_col,t,name,value" % path
            )
        index = {name: i for i, name in enumerate(header)}  # last wins, as in DictReader
        cols = [index[c] for c in required]
        for row in reader:
            if not row:
                continue  # blank line
            lineno = reader.line_num
            if len(row) <= max(cols):
                raise ValueError("%s line %d: expected at least %d fields, got %d"
                                 % (path, lineno, max(cols) + 1, len(row)))
            pr, pc, t, name, value = (row[i] for i in cols)
            try:
                pr, pc, t = int(pr), int(pc), int(t)
                value = float(value) if value.strip() else math.nan
            except ValueError as err:
                raise ValueError("%s line %d: %s" % (path, lineno, err)) from None
            name = name.strip()
            if not name:
                raise ValueError("%s line %d: empty moderator name" % (path, lineno))
            if not (1 <= t <= T):
                raise ValueError("%s line %d: t=%d outside 1..%d" % (path, lineno, t, T))
            cell_r = pr * factor
            cell_c = pc * factor
            if not (0 <= cell_r < grid.ny and 0 <= cell_c < grid.nx):
                raise ValueError(
                    "%s line %d: pixel (%d, %d) outside the partition"
                    % (path, lineno, pr, pc)
                )
            pid = labels[cell_r][cell_c]
            if pid < 0:
                raise ValueError(
                    "%s line %d: pixel (%d, %d) is masked out" % (path, lineno, pr, pc)
                )
            if name not in out:
                out[name] = np.full((partition.p, T), np.nan)
            out[name][pid, t - 1] = value
    if not out:
        raise ValueError("no moderator rows in %s" % path)
    return out


def dump_json(payload: dict, path) -> None:
    """Canonical JSON emission: sorted keys, fixed separators, no timestamps."""
    Path(path).write_text(
        json.dumps(payload, sort_keys=True, indent=2, separators=(",", ": "))
        + "\n"
    )


def load_json(path) -> dict:
    return json.loads(Path(path).read_text())


def write_coverage_table(rows: list[dict], csv_path, json_path=None) -> None:
    """Coverage-experiment rows as CSV (and optionally JSON)."""
    if not rows:
        raise ValueError("no coverage rows to write")
    keys: list[str] = []
    for row in rows:
        for k in row:
            if k not in keys:
                keys.append(k)
    with open(csv_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=keys)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    if json_path is not None:
        dump_json({"rows": rows}, json_path)


def propensity_model_to_dict(fit) -> dict:
    """Persistable form of a fitted propensity: coefficients, knots, options."""
    model = fit.model
    payload = {
        "coefficients": {k: float(v) for k, v in model.coefficients.items()},
        "knots": (list(map(float, model.time_spline.knots))
                  if model.time_spline is not None else []),
        "time_spline_coef": (list(map(float, model.time_spline_coef))
                             if model.time_spline_coef is not None else []),
        "options": {
            "time_spline_df": fit.options.time_spline_df,
            "ridge": fit.options.ridge,
        },
        "convergence": {
            "iterations": fit.report.iterations,
            "deviance": fit.report.deviance,
            "converged": fit.report.converged,
            "max_abs_score": fit.report.max_abs_score,
            "collapsed": fit.report.collapsed,
        },
    }
    return payload


def propensity_model_from_dict(payload: dict):
    from .glm import NaturalCubicBasis
    from .propensity import (
        ConvergenceReport,
        FittedPropensity,
        IntensityModel,
        PropensityOptions,
    )

    if payload.get("indicator_coef"):
        raise ValueError("model.json has indicator_coef terms %s; refit with each period "
                         "indicator as a dynamic covariate" % sorted(payload["indicator_coef"]))
    knots = payload.get("knots") or []
    spline = NaturalCubicBasis(knots=np.asarray(knots, dtype=float)) if knots else None
    spline_coef = (np.asarray(payload.get("time_spline_coef"), dtype=float)
                   if payload.get("time_spline_coef") else None)
    model = IntensityModel(
        coefficients={k: float(v) for k, v in payload["coefficients"].items()},
        time_spline=spline,
        time_spline_coef=spline_coef,
    )
    opts = payload.get("options", {})
    conv = payload.get("convergence", {})
    options = PropensityOptions(
        time_spline_df=int(opts.get("time_spline_df", 0)),
        ridge=float(opts.get("ridge", 0.0)),
    )
    report = ConvergenceReport(
        iterations=int(conv.get("iterations", 0)),
        deviance=float(conv.get("deviance", 0.0)),
        converged=bool(conv.get("converged", True)),
        max_abs_score=float(conv.get("max_abs_score", 0.0)),
        deviance_trace=[],
        ridge=options.ridge,
        collapsed=bool(conv.get("collapsed", False)),
    )
    return FittedPropensity(model, report, options)

"""File format round trips and malformed-input errors."""

import json
import math

import numpy as np
import pytest

from geocausal.geometry import Raster, SpatialWindow, build_grid
from geocausal.heterogeneity import PixelPartition
from geocausal.io import (
    dump_json,
    load_json,
    propensity_model_from_dict,
    propensity_model_to_dict,
    read_ascii_grid,
    read_events_csv,
    read_geojson_polygon,
    read_geojson_polylines,
    read_moderators_csv,
    write_ascii_grid,
    write_coverage_table,
    write_events_csv,
)


def test_ascii_grid_round_trip(tmp_path):
    window = SpatialWindow(bounds=(1.0, 2.0, 5.0, 6.0))
    grid = build_grid(window, 8, 8)
    rng = np.random.default_rng(0)
    vals = rng.uniform(size=(8, 8))
    vals[3, 4] = np.nan
    raster = Raster(grid, vals)
    path = tmp_path / "r.asc"
    write_ascii_grid(raster, path)
    back = read_ascii_grid(path)
    assert back.grid.nx == 8 and back.grid.ny == 8
    assert back.grid.window.bounds == window.bounds
    finite = np.isfinite(vals)
    assert np.array_equal(back.values[finite], raster.values[finite])
    assert np.isnan(back.values[3, 4])


def test_ascii_grid_rejects_anisotropic(tmp_path):
    grid = build_grid(SpatialWindow(bounds=(0, 0, 2, 1)), 4, 4)
    with pytest.raises(ValueError):
        write_ascii_grid(Raster(grid, np.ones((4, 4))), tmp_path / "bad.asc")


def test_ascii_grid_header_errors(tmp_path):
    path = tmp_path / "broken.asc"
    path.write_text("ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\n1 2 3 4\n")
    with pytest.raises(ValueError):
        read_ascii_grid(path)
    path.write_text(
        "ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\n1 2 3\n")
    with pytest.raises(ValueError):
        read_ascii_grid(path)


def test_geojson_polygon_and_lines(tmp_path):
    poly = {
        "type": "FeatureCollection",
        "features": [{
            "type": "Feature",
            "geometry": {"type": "Polygon",
                         "coordinates": [[[0, 0], [4, 0], [4, 4], [0, 4], [0, 0]]]},
            "properties": {},
        }],
    }
    p = tmp_path / "poly.geojson"
    p.write_text(json.dumps(poly))
    ring = read_geojson_polygon(p)
    assert ring.shape == (4, 2)  # closing vertex dropped

    lines = {
        "type": "Feature",
        "geometry": {"type": "MultiLineString",
                     "coordinates": [[[0, 0], [1, 1]], [[2, 2], [3, 3], [4, 4]]]},
    }
    q = tmp_path / "lines.geojson"
    q.write_text(json.dumps(lines))
    out = read_geojson_polylines(q)
    assert len(out) == 2 and out[1].shape == (3, 2)

    with pytest.raises(ValueError):
        read_geojson_polylines(p)


def test_events_csv_round_trip(tmp_path):
    window = SpatialWindow(bounds=(0.0, 0.0, 10.0, 10.0))
    grid = build_grid(window, 4, 4)
    path = tmp_path / "events.csv"
    path.write_text(
        "t,x,y,stream,mark\n"
        "1,1.5,2.5,treatment,hit\n"
        "1,3.0,3.0,outcome,\n"
        "2,4.25,5.5,outcome,\n"
    )
    series = read_events_csv(path, grid)
    assert series.T == 2
    assert series.treatment(1).marks == ("hit",)
    assert len(series.outcome(2)) == 1

    out = tmp_path / "back.csv"
    write_events_csv(series, out)
    again = read_events_csv(out, grid)
    assert np.array_equal(again.treatment(1).points, series.treatment(1).points)
    assert np.array_equal(again.outcome(2).points, series.outcome(2).points)


def test_events_csv_malformed_rows(tmp_path):
    grid = build_grid(SpatialWindow(bounds=(0, 0, 10, 10)), 4, 4)
    bad_value = tmp_path / "bad1.csv"
    bad_value.write_text("t,x,y,stream\n1,oops,2.0,outcome\n")
    with pytest.raises(ValueError, match="line 2"):
        read_events_csv(bad_value, grid)

    bad_stream = tmp_path / "bad2.csv"
    bad_stream.write_text("t,x,y,stream\n1,1.0,2.0,both\n")
    with pytest.raises(ValueError, match="line 2"):
        read_events_csv(bad_stream, grid)

    bad_t = tmp_path / "bad3.csv"
    bad_t.write_text("t,x,y,stream\n0,1.0,2.0,outcome\n")
    with pytest.raises(ValueError, match="line 2"):
        read_events_csv(bad_t, grid)

    bad_cols = tmp_path / "bad4.csv"
    bad_cols.write_text("time,x,y\n1,1.0,2.0\n")
    with pytest.raises(ValueError):
        read_events_csv(bad_cols, grid)


def test_moderators_csv(tmp_path):
    grid = build_grid(SpatialWindow(bounds=(0, 0, 8, 8)), 8, 8)
    part = PixelPartition.blocks(grid, 4)  # 2x2 pixels
    path = tmp_path / "mods.csv"
    path.write_text(
        "pixel_row,pixel_col,t,name,value\n"
        "0,0,1,mech,10\n"
        "0,1,1,mech,25\n"
        "1,0,1,mech,\n"
        "1,1,1,mech,35\n"
    )
    out = read_moderators_csv(path, part, 4, 2)
    arr = out["mech"]
    assert arr.shape == (4, 2)
    assert arr[0, 0] == 10 and np.isnan(arr[2, 0])
    assert np.all(np.isnan(arr[:, 1]))  # period 2 never provided

    bad = tmp_path / "bad.csv"
    bad.write_text("pixel_row,pixel_col,t,name,value\n9,9,1,mech,1\n")
    with pytest.raises(ValueError, match="line 2"):
        read_moderators_csv(bad, part, 4, 2)



def test_csv_errors_name_the_physical_line(tmp_path):
    # a blank line is skipped, yet the error names the line as it is in the file
    grid = build_grid(SpatialWindow(bounds=(0, 0, 8, 8)), 8, 8)
    events = tmp_path / "events.csv"
    events.write_text("t,x,y,stream\n1,1.0,2.0,outcome\n\n1,oops,2.0,outcome\n")
    with pytest.raises(ValueError, match="line 4"):
        read_events_csv(events, grid)

    part = PixelPartition.blocks(grid, 4)
    mods = tmp_path / "mods.csv"
    mods.write_text("pixel_row,pixel_col,t,name,value\n0,0,1,mech,1\n\n"
                    "0,0,1,mech,1\n9,9,1,mech,1\n")
    with pytest.raises(ValueError, match="line 5"):
        read_moderators_csv(mods, part, 4, 2)


def test_csv_short_rows_raise_value_error(tmp_path):
    grid = build_grid(SpatialWindow(bounds=(0, 0, 8, 8)), 8, 8)
    events = tmp_path / "events.csv"
    events.write_text("t,x,y,stream\n1,1.0,2.0,outcome\n1,1.0\n")
    with pytest.raises(ValueError, match="line 3"):
        read_events_csv(events, grid)

    part = PixelPartition.blocks(grid, 4)
    mods = tmp_path / "mods.csv"
    mods.write_text("pixel_row,pixel_col,t,name,value\n0,0,1,mech,1\n0,1,1\n")
    with pytest.raises(ValueError, match="line 3"):
        read_moderators_csv(mods, part, 4, 2)


def test_propensity_model_json_round_trip(tmp_path):
    from geocausal.propensity import PropensityOptions, fit_poisson_intensity
    from geocausal.simulate import simulate_series
    from geocausal.validation import default_dgp

    dgp = default_dgp(treatment_rate=1.0)
    series = simulate_series(dgp, 100, 1)
    fit = fit_poisson_intensity(series, dgp.covariates.keys(),
                                PropensityOptions(time_spline_df=2))
    payload = propensity_model_to_dict(fit)
    path = tmp_path / "model.json"
    dump_json(payload, path)
    back = propensity_model_from_dict(load_json(path))
    assert back.model.coefficients == pytest.approx(fit.model.coefficients)
    assert np.allclose(back.model.time_spline.knots, fit.model.time_spline.knots)
    assert np.allclose(back.model.time_spline_coef, fit.model.time_spline_coef)
    # round trip of the serialized payload itself is exact
    assert json.loads(json.dumps(payload)) == payload


def test_propensity_model_with_indicator_terms_is_rejected():
    # model.json files written before period indicators became covariates
    # may carry indicator_coef terms that no model can evaluate any more
    payload = {"coefficients": {"intercept": -1.0}, "knots": [], "time_spline_coef": [],
               "indicator_coef": {"surge": 0.7},
               "options": {"time_spline_df": 0, "ridge": 0.0, "tol": 1e-8, "max_iter": 100}}
    with pytest.raises(ValueError, match="indicator_coef"):
        propensity_model_from_dict(payload)
    payload["indicator_coef"] = {}
    back = propensity_model_from_dict(payload)
    assert back.model.coefficients == {"intercept": -1.0}


def test_coverage_table_writer(tmp_path):
    rows = [{"estimand": "ate", "T": 500, "bias_ipw": -0.1},
            {"estimand": "ate", "T": 2000, "bias_ipw": -0.02, "extra": 1.0}]
    write_coverage_table(rows, tmp_path / "c.csv", tmp_path / "c.json")
    text = (tmp_path / "c.csv").read_text().splitlines()
    assert text[0] == "estimand,T,bias_ipw,extra"
    assert len(text) == 3
    assert load_json(tmp_path / "c.json")["rows"][1]["T"] == 2000

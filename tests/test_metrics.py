"""Metric semantics tests: zero-RMSE roundtrip (reference tests_data.py:118-139),
the area-error formula fixture (vector_to_rhpx.py:407-412), the int16 overflow
guard (rasterutils.py:244-248), and line-error behaviour."""
import math

import numpy as np
import pyarrow as pa
import pytest

from dggsray.core.rhpx import GridConfig, cells_from_lonlat
from dggsray.ops.cells2raster import cells_to_raster_array, meta_from_cells
from dggsray.ops.metrics import (RHEALPIX_MEAN_AREAL_DISTORTION, cell_table_rmse,
                                 raster_rmse, vector_raster_area_error,
                                 vector_raster_line_error)
from dggsray.ops.vector2dggs import burn_polygons_to_cells

G3 = GridConfig(3, 1, 0)


def _square(lon, lat, he):
    return np.array([[lon - he, lat - he], [lon + he, lat - he],
                     [lon + he, lat + he], [lon - he, lat + he]])


class TestRasterRmse:
    def _tiles(self, arr, meta):
        import ray.data as rd
        return rd.from_items([{"row0": 0, "col0": 0,
                               "h": meta["height"], "w": meta["width"],
                               "data": arr.tobytes()}])

    def test_identical_is_zero(self, ray_session):
        rng = np.random.default_rng(3)
        lon = rng.uniform(0, 10, 800)
        lat = rng.uniform(0, 10, 800)
        cells = sorted(set(cells_from_lonlat(5, lon, lat, G3)))
        import ray.data as rd
        ds = rd.from_arrow(pa.table({
            "cellid": pa.array(cells, pa.string()),
            "band1": pa.array(np.arange(len(cells)) % 200, pa.int16())}))
        meta = meta_from_cells(np.array(cells), G3, nodata=-9999, dtype="int16")
        arr, _ = cells_to_raster_array(ds, meta=meta)
        rmse, bias = raster_rmse(self._tiles(arr, meta), meta, arr, meta)
        assert rmse == 0.0 and bias == 0.0

    def test_strided_and_shifted(self, ray_session):
        meta = {"left": 0.0, "top": 1000.0, "right": 640.0, "bottom": 360.0,
                "height": 64, "width": 64, "res": 10.0, "res_idx": 0,
                "nbands": 1, "nodata": -1, "nodatavals": [-1],
                "store_nodata": False, "dtypes": ["int16"]}
        arr = np.arange(64 * 64, dtype=np.int16).reshape(1, 64, 64) % 100
        test = arr + 2
        rmse, bias = raster_rmse(self._tiles(arr, meta), meta,
                                 test.astype(np.int16), meta,
                                 every_rows=4, every_cols=2)
        assert rmse == pytest.approx(2.0) and bias == pytest.approx(2.0)

    def test_int16_overflow_guard(self, ray_session):
        # diffs near the int16 range must not wrap (reference upcasts short ints)
        meta = {"left": 0.0, "top": 100.0, "right": 40.0, "bottom": 60.0,
                "height": 4, "width": 4, "res": 10.0, "res_idx": 0,
                "nbands": 1, "nodata": None, "nodatavals": [None],
                "store_nodata": False, "dtypes": ["int16"]}
        a = np.full((1, 4, 4), -30000, dtype=np.int16)
        b = np.full((1, 4, 4), 30000, dtype=np.int16)
        rmse, bias = raster_rmse(self._tiles(a, meta), meta, b, meta)
        assert rmse == pytest.approx(60000.0)
        assert bias == pytest.approx(60000.0)

    def test_cell_table_rmse(self, ray_session):
        import ray.data as rd
        a = rd.from_arrow(pa.table({"cellid": ["N1", "N2", "N3"],
                                    "band1": [10, 20, 30]}))
        b = rd.from_arrow(pa.table({"cellid": ["N1", "N2", "N3", "N4"],
                                    "band1": [11, 19, 30, 99]}))
        rmse, bias = cell_table_rmse(a, b)
        assert rmse == pytest.approx(math.sqrt((1 + 1 + 0) / 3))
        assert bias == pytest.approx(0.0)


class TestAreaError:
    def test_formula_fixture(self, ray_session):
        """vector_to_rhpx.py:407-412: two classes, known areas ->
        rmse = sqrt(((c1-v1)^2 + (c2-v2)^2)/2), bias = mean diff."""
        import ray.data as rd
        feats = [
            {"feature_id": 0, "value": 1, "rings": [_square(10.0, 5.0, 0.5)]},
            {"feature_id": 1, "value": 2, "rings": [_square(12.0, 5.0, 0.3)]},
        ]
        res = 6
        cells = burn_polygons_to_cells(feats, res, G3)
        ds = rd.from_arrow(cells)
        rmse, bias, tot_v, tot_c = vector_raster_area_error(feats, ds, res, G3)
        # recompute expected from first principles
        from dggsray.core.geodesy import polygon_area_m2
        va = {1: polygon_area_m2(feats[0]["rings"][0][:, 0], feats[0]["rings"][0][:, 1]),
              2: polygon_area_m2(feats[1]["rings"][0][:, 0], feats[1]["rings"][0][:, 1])}
        import collections
        cnt = collections.Counter(cells.column("value").to_pylist())
        ca = {v: cnt[v] * G3.cell_width(res) ** 2 / RHEALPIX_MEAN_AREAL_DISTORTION
              for v in (1, 2)}
        exp_rmse = math.sqrt(((ca[1] - va[1]) ** 2 + (ca[2] - va[2]) ** 2) / 2)
        exp_bias = ((ca[1] - va[1]) + (ca[2] - va[2])) / 2
        assert rmse == pytest.approx(exp_rmse, rel=1e-12)
        assert bias == pytest.approx(exp_bias, rel=1e-12)
        # and the rasterized areas should be close to the vector truth (<6%)
        assert abs(tot_c - tot_v) / tot_v < 0.06


class TestLineError:
    def test_nodes_on_matching_cells(self, ray_session):
        import ray.data as rd
        feats = [{"feature_id": 0, "value": 3, "rings": [_square(20.0, 10.0, 0.5)]}]
        res = 6
        cells = burn_polygons_to_cells(feats, res, G3).rename_columns(
            ["cellid", "band1"])
        ds = rd.from_arrow(cells)
        meta = meta_from_cells(cells.column("cellid").to_numpy(zero_copy_only=False),
                               G3, nodata=0, dtype="int64")
        arr, _ = cells_to_raster_array(ds, meta=meta)
        # a polyline strictly inside the square, same class
        line = [{"feature_id": 0, "value": 3,
                 "coords": np.column_stack([np.linspace(19.8, 20.2, 7),
                                            np.full(7, 10.0)])}]
        per_node, per_feat = vector_raster_line_error(line, arr, meta, G3)
        cw = G3.cell_width(res)
        assert 0 < per_node < cw  # within a cell width (nodes inside cells)
        assert per_feat == pytest.approx(per_node * 7)
        # mismatched class -> penalty = cell width per node
        line_bad = [{"feature_id": 0, "value": 9, "coords": line[0]["coords"]}]
        pn_bad, _ = vector_raster_line_error(line_bad, arr, meta, G3)
        assert pn_bad == pytest.approx(cw)

    def test_every_feature_sampling(self, ray_session):
        feats = [{"feature_id": 0, "value": 3, "rings": [_square(20.0, 10.0, 0.5)]}]
        cells = burn_polygons_to_cells(feats, 6, G3).rename_columns(
            ["cellid", "band1"])
        meta = meta_from_cells(cells.column("cellid").to_numpy(zero_copy_only=False),
                               G3, nodata=0, dtype="int64")
        import ray.data as rd
        arr, _ = cells_to_raster_array(rd.from_arrow(cells), meta=meta)
        lines = [{"feature_id": i, "value": 3,
                  "coords": np.array([[20.0 + 0.01 * i, 10.0]])} for i in range(6)]
        _, per_feat = vector_raster_line_error(lines, arr, meta, G3,
                                               every_feature=3)
        # only 2 of 6 features sampled
        assert per_feat > 0


class TestMultiPolygonArea:
    def test_disjoint_parts_add_holes_subtract(self, ray_session):
        """Flattened MultiPolygon rings classify by containment: disjoint
        outer rings ADD; a nested ring subtracts as a hole (regression:
        every ring after the first was subtracted)."""
        import ray.data as rd
        import pyarrow as pa
        from dggsray.core.geodesy import polygon_area_m2
        from dggsray.ops.metrics import vector_raster_area_error
        sq1 = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]], float)
        sq2 = sq1 + np.array([3.0, 0.0])          # disjoint same-size square
        hole = np.array([[0.25, 0.25], [0.75, 0.25], [0.75, 0.75],
                         [0.25, 0.75], [0.25, 0.25]])
        feats = [{"value": 1, "rings": [sq1, sq2, hole]}]
        cells = rd.from_arrow(pa.table({"value": pa.array([1], pa.int64()),
                                        "cellid": pa.array(["N0"])}))
        _, _, tot_v, _ = vector_raster_area_error(feats, cells, 4)
        a1 = polygon_area_m2(sq1[:, 0], sq1[:, 1])
        a2 = polygon_area_m2(sq2[:, 0], sq2[:, 1])
        ah = polygon_area_m2(hole[:, 0], hole[:, 1])
        assert tot_v == pytest.approx(a1 + a2 - ah, rel=1e-12)

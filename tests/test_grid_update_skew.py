"""Grid enumeration, update-from-raster, and the F8 skew fixture."""
import numpy as np
import pyarrow as pa
import pytest

from dggsray.core.rhpx import GridConfig, cells_from_lonlat

G3 = GridConfig(3, 1, 0)


class TestGridCells:
    def test_bbox_grid_matches_point_encoding(self, ray_session):
        from dggsray.ops.cells2raster import grid_cells_for_bbox
        out = grid_cells_for_bbox((-2.0, 41.0), (0.0, 39.5), 6, G3).to_pandas()
        assert len(out) > 50
        assert out.cellid.is_unique
        # every returned centroid, re-encoded, gives its own cellid
        again = cells_from_lonlat(6, out.lon.to_numpy(), out.lat.to_numpy(), G3)
        assert (again == out.cellid.to_numpy()).all()
        # and all centroids are inside the requested bbox
        assert out.lon.between(-2.0, 0.0).all()
        assert out.lat.between(39.5, 41.0).all()
        # planar variant
        outp = grid_cells_for_bbox((-2.0, 41.0), (0.0, 39.5), 6, G3,
                                   as_geodetic=False).to_pandas()
        assert set(outp.columns) == {"cellid", "x", "y"}
        assert set(outp.cellid) == set(out.cellid)

    def test_cap_straddling_bbox(self, ray_session):
        from dggsray.ops.cells2raster import grid_cells_for_bbox
        # bbox across the equatorial/cap boundary at an arbitrary longitude
        out = grid_cells_for_bbox((100.0, 45.0), (103.0, 40.0), 5, G3).to_pandas()
        assert len(out) > 10
        faces = {c[0] for c in out.cellid}
        assert "N" in faces and faces - {"N"}   # both cap and equatorial cells


class TestUpdate:
    def test_update_refreshes_band_values(self, ray_session):
        import ray.data as rd
        from dggsray.ops.cells2raster import (cells_to_raster_array,
                                              meta_from_cells,
                                              update_cells_from_tiles)
        from dggsray.ops.raster2dggs import tiles_to_cells
        cells = sorted(set(cells_from_lonlat(
            6, np.random.default_rng(2).uniform(5, 8, 500),
            np.random.default_rng(3).uniform(5, 8, 500), G3)))
        vals = np.arange(len(cells), dtype=np.int16)
        ds = rd.from_arrow(pa.table({"cellid": pa.array(cells, pa.string()),
                                     "band1": pa.array(vals, pa.int16())}))
        meta = meta_from_cells(np.array(cells), G3, nodata=-9999, dtype="int16")
        meta["store_nodata"] = True
        arr, _ = cells_to_raster_array(ds, meta=meta)
        arr2 = arr.copy()
        arr2[arr2 != -9999] += 100      # the "modified raster"
        tiles = rd.from_items([{"row0": 0, "col0": 0,
                                "h": meta["height"], "w": meta["width"],
                                "data": arr2.tobytes()}])
        updated = update_cells_from_tiles(ds, tiles, meta, G3).to_pandas()
        merged = updated.set_index("cellid").band1.to_dict()
        for c, v in zip(cells, vals):
            assert merged[c] == v + 100

    def test_update_requires_store_nodata(self, ray_session):
        import ray.data as rd
        from dggsray.ops.cells2raster import update_cells_from_tiles
        with pytest.raises(AssertionError, match="store_nodata"):
            update_cells_from_tiles(rd.range(1), rd.range(1),
                                    {"store_nodata": False}, G3)


class TestSkew:
    def test_skewed_regrid_matches_oracle(self, ray_session):
        """F8: ~90% of rows in one cell prefix; the partial-aggregation regrid
        must equal the single-partition pandas oracle exactly."""
        import pandas as pd
        import ray.data as rd
        from dggsray.ops.cellify import regrid_mean, with_cellid
        rng = np.random.default_rng(42)
        n = 40000
        hot = rng.random(n) < 0.9
        lon = np.where(hot, -3.5 + rng.uniform(-0.4, 0.4, n),
                       rng.uniform(-170, 170, n))
        lat = np.where(hot, 40.5 + rng.uniform(-0.4, 0.4, n),
                       rng.uniform(-80, 80, n))
        val = rng.uniform(0, 10, n)
        ds = rd.from_arrow(pa.table({"lon": lon, "lat": lat, "v": val})) \
            .repartition(16)
        out = regrid_mean(with_cellid(ds, "lon", "lat", 6), "v", res=3).to_pandas()
        cells = cells_from_lonlat(6, lon, lat, G3)
        exp = pd.DataFrame({"c": [x[:4] for x in cells], "v": val}) \
            .groupby("c").agg(n=("v", "size"), s=("v", "sum")).reset_index()
        merged = out.merge(exp, left_on="cellid", right_on="c")
        assert len(merged) == len(exp) == len(out)
        assert (merged.n_x == merged.n_y).all()
        assert np.allclose(merged.mean_value, merged.s / merged.n_y)
        # the hot prefix dominates but is still exact
        hot_cell = pd.Series([x[:4] for x in cells]).mode()[0]
        assert int(merged[merged.cellid == hot_cell].n_x.iloc[0]) > 0.5 * n

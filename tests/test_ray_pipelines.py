"""Ray Data pipeline tests (one shared local Ray session via conftest)."""
import numpy as np
import pyarrow as pa
import pytest

from dggsray.core.rhpx import GridConfig, cells_from_lonlat


@pytest.fixture(scope="module")
def ray_ok(ray_session):
    import ray.data  # noqa
    return True


class TestFlagship:
    def test_flagship_deterministic(self, ray_ok):
        from dggsray.pipelines.flagship import flagship_pipeline
        df1 = flagship_pipeline(sf=0.001).to_pandas() \
            .sort_values("image_id").reset_index(drop=True)
        df2 = flagship_pipeline(sf=0.001, batch_size=32).to_pandas() \
            .sort_values("image_id").reset_index(drop=True)
        assert len(df1) == 500
        assert (df1.n_cells > 0).all()
        # determinism across batching
        import pandas as pd
        pd.testing.assert_frame_equal(df1, df2)
        # the clustered images overlap the cluster polygons
        assert (df1.n_matched > 0).sum() > 100

    def test_image_cells_vs_pointwise(self, ray_ok):
        """Every emitted cell of an image must be a cell some source pixel center
        maps to (nearest warp consistency)."""
        from dggsray.io.imagetable import synth_batch
        from dggsray.ops.raster2dggs import ImageToCells
        batch = synth_batch(pa.table({"id": pa.array(np.arange(20), pa.int64())}))
        op = ImageToCells(8)
        out = op(batch)
        assert out.num_rows > 0
        # pick image 0: recompute its pixel-center cells directly
        b0 = batch.slice(0, 1)
        w, h = b0.column("w")[0].as_py(), b0.column("h")[0].as_py()
        lon_min = b0.column("lon_min")[0].as_py()
        lat_min = b0.column("lat_min")[0].as_py()
        lon_max = b0.column("lon_max")[0].as_py()
        lat_max = b0.column("lat_max")[0].as_py()
        px_w, px_h = (lon_max - lon_min) / w, (lat_max - lat_min) / h
        cg, rg = np.meshgrid(np.arange(w), np.arange(h))
        lon = lon_min + (cg.ravel() + 0.5) * px_w
        lat = lat_max - (rg.ravel() + 0.5) * px_h
        pixel_cells = set(cells_from_lonlat(8, lon, lat))
        img0 = out.filter(pa.compute.equal(out.column("image_id"),
                                           b0.column("image_id")[0]))
        emitted = set(img0.column("cellid").to_pylist())
        assert emitted <= pixel_cells
        # and covers most of them (nearest resampling at similar resolution)
        assert len(emitted) >= 0.5 * len(pixel_cells)


class TestVector:
    def test_burn_square_area(self, ray_ok):
        from dggsray.ops.vector2dggs import burn_polygons_to_cells
        # 1-degree square at the equator ~ 12308.8 km^2; res-7 cells are
        # (F/3^7)^2 planar m^2 / 1.178 areal distortion on the ellipsoid
        ring = np.array([[10.0, -0.5], [11.0, -0.5], [11.0, 0.5], [10.0, 0.5]])
        t = burn_polygons_to_cells([{"feature_id": 0, "value": 7, "rings": [ring]}], 7)
        from dggsray.core.rhpx import F
        cell_area_m2 = (F / 3**7) ** 2 / 1.178
        got = t.num_rows * cell_area_m2
        assert got == pytest.approx(12308.8e6, rel=0.02)
        assert set(t.column("value").to_pylist()) == {7}

    def test_paint_order_and_distributed_equivalence(self, ray_ok):
        from dggsray.ops.vector2dggs import (burn_polygons_to_cells,
                                             polygons_to_cells_ds)
        sq = lambda lon, lat, he: np.array([
            [lon - he, lat - he], [lon + he, lat - he],
            [lon + he, lat + he], [lon - he, lat + he]])
        feats = [
            {"feature_id": 0, "value": 1, "rings": [sq(20.0, 10.0, 0.5)]},
            {"feature_id": 1, "value": 2, "rings": [sq(20.3, 10.2, 0.5)]},
        ]
        seq = burn_polygons_to_cells(feats, 6)
        dist = polygons_to_cells_ds(feats, 6, parallelism=2).to_pandas()
        seq_map = dict(zip(seq.column("cellid").to_pylist(),
                           seq.column("value").to_pylist()))
        dist_map = dict(zip(dist.cellid, dist.value))
        assert seq_map == dist_map
        assert 2 in set(seq_map.values()) and 1 in set(seq_map.values())

    def test_float_class_rejected(self, ray_ok):
        from dggsray.ops.vector2dggs import feature_class_values
        with pytest.raises(ValueError):
            feature_class_values([1.5])
        vals = feature_class_values(["b", "a", "b", 7])
        assert list(vals) == [1, 2, 1, 7]


class TestCellifyOps:
    def test_regrid_mean_matches_pandas(self, ray_ok):
        import ray.data as rd
        from dggsray.ops.cellify import regrid_mean, with_cellid
        rng = np.random.default_rng(5)
        n = 5000
        lon = rng.uniform(-30, 30, n)
        lat = rng.uniform(-30, 30, n)
        val = rng.uniform(0, 100, n)
        ds = rd.from_arrow(pa.table({"lon": lon, "lat": lat, "v": val}))
        out = regrid_mean(with_cellid(ds, "lon", "lat", 4), "v", res=2).to_pandas()
        import pandas as pd
        cells = cells_from_lonlat(4, lon, lat)
        exp = pd.DataFrame({"cellid": [c[:3] for c in cells], "v": val}) \
            .groupby("cellid")["v"].agg(["sum", "count"]).reset_index()
        exp["mean_value"] = exp["sum"] / exp["count"]
        merged = out.merge(exp, on="cellid")
        assert len(merged) == len(exp) == len(out)
        assert np.allclose(merged.mean_value_x, merged.mean_value_y)
        assert (merged.n == merged["count"]).all()

    def test_broadcast_semi_join(self, ray_ok):
        import ray.data as rd
        from dggsray.ops.joins import broadcast_semi_join
        ds = rd.from_arrow(pa.table({"cellid": ["N1", "N2", "Q3", "Q4"],
                                     "v": [1, 2, 3, 4]}))
        out = broadcast_semi_join(ds, ["N1", "Q4"]).to_pandas()
        assert sorted(out.v) == [1, 4]
        out = broadcast_semi_join(ds, ["N1", "Q4"], anti=True).to_pandas()
        assert sorted(out.v) == [2, 3]

    @pytest.mark.parametrize("res", [0, 2, 5])
    def test_truncating_sites_match_truncate_to_resolution(self, ray_ok, res):
        """Every cell-column truncation site (regrid coarsening, broadcast
        semi and lookup joins) keys rows exactly as truncate_to_resolution
        does, on mixed resolutions including cells coarser than `res`."""
        import ray.data as rd
        from dggsray.core.cells import truncate_to_resolution
        from dggsray.ops.cellify import _at_resolution
        from dggsray.ops.joins import broadcast_lookup_join, broadcast_semi_join
        rng = np.random.default_rng(11)
        lon = rng.uniform(-20, 20, 600)
        lat = rng.uniform(-20, 20, 600)
        cells = np.concatenate([cells_from_lonlat(r, lon[i::4], lat[i::4])
                                for i, r in enumerate((0, 1, 3, 7))])
        cells = cells.astype(object)
        exp = truncate_to_resolution(cells, res)
        tbl = pa.table({"cellid": pa.array(cells, pa.string()),
                        "i": np.arange(cells.size)})
        ds = rd.from_arrow(tbl)

        out = _at_resolution(tbl, "cellid", res).to_pandas().sort_values("i")
        assert out.cellid.tolist() == exp.tolist()

        keys = sorted(set(exp[::3]))
        hit = np.isin(exp, keys)
        for anti, want in ((False, hit), (True, ~hit)):
            out = broadcast_semi_join(ds, keys, res=res, anti=anti).take_all()
            assert sorted(r["i"] for r in out) == np.flatnonzero(want).tolist()

        tag = {k: j for j, k in enumerate(keys)}
        lookup = pa.table({"cellid": keys, "tag": list(tag.values())})
        out = broadcast_lookup_join(ds, lookup, res=res).to_pandas() \
            .sort_values("i")
        assert out.i.tolist() == np.flatnonzero(hit).tolist()
        assert out.cellid.tolist() == cells[hit].tolist()
        assert out.tag.tolist() == [tag[k] for k in exp[hit]]

    def test_knn(self, ray_ok):
        import ray.data as rd
        from dggsray.ops.joins import knn_cells
        rng = np.random.default_rng(2)
        lon = rng.uniform(-10, 10, 2000)
        lat = rng.uniform(-10, 10, 2000)
        cells = cells_from_lonlat(8, lon, lat)
        ds = rd.from_arrow(pa.table({"cellid": cells,
                                     "i": np.arange(2000)}))
        q = cells[0]
        out = knn_cells(ds, q, 5).to_pandas()
        assert len(out) == 5
        assert out.dist_m.is_monotonic_increasing
        assert out.iloc[0].cellid == q and out.iloc[0].dist_m == 0.0

"""The four benchmark workloads.

Each workload makes its inputs from the seed in `setup`, runs the engine's
public entry points in `run` (the timed section), and checks the output in
`check` (outside the timed section).  `check` raises AssertionError on a
wrong output and returns the run's counters for the traced metrics.

Driver-side spans are opened through ``bench.span``; with tracing off it
returns a no-op context.  A lazy Dataset call is timed through the
materialization of its result, and the workload materializes it in both
modes, so traced and untraced runs execute the same plan.
"""
from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

# flagship_join: 5,000 images; the table is a pure function of image index
FLAGSHIP_SF = 0.01
# points_regrid: point count, hot-cluster share, cell resolutions
POINTS_N = 24_000
POINTS_HOT = 0.3
POINTS_FILES = 4
CELL_RES, MEAN_RES, MAJ_RES = 10, 6, 5
N_CLASSES = 12
# raster_roundtrip: source raster size (pixels) and its geographic extent
RASTER_W, RASTER_H = 1024, 512
RASTER_DEG_W, RASTER_DEG_H = 4.0, 2.0
PARTITION_DEPTH = 4
# area_auid: polygon count and burn resolution
AUID_POLYGONS = 6
AUID_RES = 8
N_SIDE = 3


def _sorted_digest(table: pa.Table, key: str) -> str:
    t = table.sort_by(key)
    h = hashlib.sha256()
    for name in t.column_names:
        h.update(name.encode())
        for v in t.column(name).to_pylist():
            h.update(repr(v).encode())
    return h.hexdigest()


def _to_table(ds) -> pa.Table:
    """Execute a Dataset once and fetch its blocks.  (``to_arrow_refs`` on an
    unmaterialized Dataset runs the plan a second time to get the schema.)"""
    import ray
    return pa.concat_tables(ray.get(ds.materialize().to_arrow_refs()))


class FlagshipJoin:
    """Decode + verify, warp to res-8 packed keys, broadcast join with the
    burned polygons, per-image majority — the raster-heavy actor-pool path.
    Bypasses string cell ids, shuffles and storage.  The image table is fixed
    by image index: the seed selects nothing here."""

    name = "flagship_join"
    uses_ray = True
    item = "images"
    seed_effect = "none (the image table is a function of image index)"

    def setup(self, bench):
        from dggsray.io import imagetable
        from dggsray.pipelines import flagship

        root = os.path.join(bench.cache_dir, "images")
        path = imagetable.image_table_path(FLAGSHIP_SF, root)
        if os.path.isdir(path) and not os.path.exists(
                os.path.join(path, "_SUCCESS")):
            shutil.rmtree(path)          # partial table from an aborted run
        with bench.span("imagetable.gen"):
            imagetable.ensure_image_table(FLAGSHIP_SF, root=root)
        # the pipeline looks the table up itself: keep it inside the checkout
        flagship.ensure_image_table = functools.partial(
            imagetable.ensure_image_table, root=root)
        self.n_images = imagetable.n_images_for_sf(FLAGSHIP_SF)
        self.items = self.n_images
        self.digest = None

    def run(self, bench):
        from dggsray.pipelines.flagship import flagship_pipeline
        with bench.span("flagship.pipeline"):
            return _to_table(flagship_pipeline(FLAGSHIP_SF, verify=True))

    def check(self, out: pa.Table) -> dict:
        assert out.num_rows == self.n_images, \
            f"{out.num_rows} rows for {self.n_images} images"
        ids = out.column("image_id")
        assert len(ids.unique()) == self.n_images, "duplicate image rows"
        digest = _sorted_digest(out, "image_id")
        if self.digest is None:
            self.digest = digest         # the warm-up run sets the reference
        assert digest == self.digest, "output differs from the warm-up run"
        cells = int(np.sum(out.column("n_cells").to_numpy()))
        matched = int(np.sum(out.column("n_matched").to_numpy()))
        assert 0 < matched <= cells
        return {"flagship.match_ratio": matched / cells}


def make_points(seed: int, n: int) -> pa.Table:
    """Area-uniform points plus a hot cluster holding POINTS_HOT of them."""
    rng = np.random.default_rng(seed)
    lon = rng.uniform(-179.9, 179.9, n)
    lat = np.degrees(np.arcsin(rng.uniform(-0.999, 0.999, n)))
    hot = int(n * POINTS_HOT)
    hlon, hlat = rng.uniform(-150, 150), rng.uniform(-50, 50)
    lon[:hot] = hlon + rng.normal(0.0, 0.05, hot)
    lat[:hot] = hlat + rng.normal(0.0, 0.05, hot)
    value = rng.normal(100.0, 25.0, n)
    cls = rng.integers(0, N_CLASSES, n)
    cls[:hot] = rng.integers(0, 3, hot)        # the hot cells have few classes
    order = rng.permutation(n)
    return pa.table({"lon": lon[order], "lat": lat[order],
                     "value": value[order], "cls": cls[order]})


def regrid_reference(points: pa.Table):
    """Single-process pyarrow recomputation of both regrids."""
    from dggsray.core.cells import truncate_to_resolution
    from dggsray.core.rhpx import cells_from_lonlat

    cells = cells_from_lonlat(CELL_RES, points.column("lon").to_numpy(),
                              points.column("lat").to_numpy())
    ok = cells != ""
    value = points.column("value").to_numpy()[ok]
    cls = points.column("cls").to_numpy()[ok]
    mean = pa.table({"cellid": truncate_to_resolution(cells[ok], MEAN_RES),
                     "value": value}) \
        .group_by("cellid").aggregate([("value", "sum"), ("value", "count")])
    mean = pa.table({"cellid": mean.column("cellid"),
                     "mean_value": pc.divide(
                         mean.column("value_sum"),
                         pc.cast(mean.column("value_count"), pa.float64())),
                     "n": mean.column("value_count")}).sort_by("cellid")
    cnt = pa.table({"cellid": truncate_to_resolution(cells[ok], MAJ_RES),
                    "cls": cls}) \
        .group_by(["cellid", "cls"]).aggregate([([], "count_all")]) \
        .sort_by([("cellid", "ascending"), ("count_all", "descending"),
                  ("cls", "ascending")])
    c = cnt.column("cellid").to_numpy(zero_copy_only=False)
    first = np.ones(len(c), dtype=bool)
    first[1:] = c[1:] != c[:-1]
    maj = pa.table({"cellid": cnt.column("cellid"),
                    "majority_value": cnt.column("cls"),
                    "n": cnt.column("count_all")}).filter(pa.array(first))
    return int(ok.sum()), mean, maj.sort_by("cellid")


class PointsRegrid:
    """Seeded point table -> string cell ids at res 10 -> mean at res 6 and
    majority at res 5.  Loads string encoding and the combine/shuffle layers;
    bypasses decoding and warp."""

    name = "points_regrid"
    uses_ray = True
    item = "points"
    seed_effect = "point positions, values, classes and the hot cluster"

    def setup(self, bench):
        points = make_points(bench.seed, POINTS_N)
        self.dir = os.path.join(bench.work_dir, "points")
        os.makedirs(self.dir, exist_ok=True)
        step = math.ceil(POINTS_N / POINTS_FILES)
        self.files = []
        for i in range(POINTS_FILES):
            f = os.path.join(self.dir, f"part-{i}.parquet")
            pq.write_table(points.slice(i * step, step), f)
            self.files.append(f)
        self.on_plane, self.ref_mean, self.ref_maj = regrid_reference(points)
        self.items = POINTS_N

    def run(self, bench):
        import ray.data as rd

        from dggsray.ops import cellify

        with bench.span("cellify.add_cellid") as u:
            cells = cellify.with_cellid(rd.read_parquet(self.files), "lon",
                                        "lat", CELL_RES).materialize()
            u["rows"] = POINTS_N
        with bench.span("cellify.regrid_mean") as u:
            mean = _to_table(cellify.regrid_mean(cells, "value", res=MEAN_RES))
            u["cells"] = mean.num_rows
        with bench.span("cellify.regrid_majority") as u:
            maj = _to_table(cellify.regrid_majority(cells, "cls", res=MAJ_RES))
            u["cells"] = maj.num_rows
        return mean, maj

    def check(self, out) -> dict:
        mean, maj = out
        mean = mean.sort_by("cellid")
        maj = maj.sort_by("cellid").select(["cellid", "majority_value", "n"])
        n = mean.column("n").to_numpy()
        assert int(n.sum()) == self.on_plane, \
            f"mean counts sum to {int(n.sum())}, not {self.on_plane}"
        assert mean.column("cellid").equals(self.ref_mean.column("cellid"))
        assert np.array_equal(n, self.ref_mean.column("n").to_numpy())
        assert np.allclose(mean.column("mean_value").to_numpy(),
                           self.ref_mean.column("mean_value").to_numpy(),
                           rtol=1e-9, atol=0.0), "regrid_mean values differ"
        assert maj.column("cellid").equals(self.ref_maj.column("cellid"))
        for c in ("majority_value", "n"):
            assert np.array_equal(
                maj.column(c).to_numpy().astype(np.int64),
                self.ref_maj.column(c).to_numpy().astype(np.int64)), \
                f"regrid_majority {c} differs"
        return {}


def make_raster(seed: int):
    """Seeded 3-band uint8 geographic raster inside the equatorial band;
    values 1..255, so no source pixel is nodata (0)."""
    from dggsray.core.tiffio import GeoTiff

    rng = np.random.default_rng(seed)
    left = float(rng.uniform(-170.0, 160.0))
    top = float(rng.uniform(-25.0, 30.0))
    yy, xx = np.mgrid[0:RASTER_H, 0:RASTER_W]
    bands = []
    for b in range(3):
        fx, fy = rng.uniform(1.0, 6.0, 2)
        smooth = 127 + 100 * np.sin(xx / RASTER_W * fx * np.pi + b) \
            * np.cos(yy / RASTER_H * fy * np.pi)
        noise = rng.integers(-20, 21, (RASTER_H, RASTER_W))
        bands.append(np.clip(smooth + noise, 1, 255).astype(np.uint8))
    return GeoTiff(np.stack(bands), left, top, RASTER_DEG_W / RASTER_W,
                   RASTER_DEG_H / RASTER_H, nodata=0)


class RasterRoundtrip:
    """Geographic GeoTIFF -> rHEALPix raster -> cell table (hive-partitioned
    parquet) -> read back -> raster array, placed with the metadata stored
    beside the table.  The only workload that writes."""

    name = "raster_roundtrip"
    uses_ray = True
    item = "source pixels"
    seed_effect = "raster position and pixel values"

    def setup(self, bench):
        from dggsray.core.tiffio import write_geotiff

        self.dir = os.path.join(bench.work_dir, "raster")
        os.makedirs(self.dir, exist_ok=True)
        self.src = os.path.join(self.dir, "src.tif")
        write_geotiff(self.src, make_raster(bench.seed))
        self.dst = os.path.join(self.dir, "rhpx.tif")
        self.table = os.path.join(self.dir, "cells")
        self.items = RASTER_W * RASTER_H

    def run(self, bench):
        from dggsray.io import storage
        from dggsray.ops import cells2raster, raster2dggs, warp

        if os.path.exists(self.table):     # left by a run that failed
            shutil.rmtree(self.table)
        with bench.span("warp.raster_to_rhealpix", "kernel"):
            warp.raster_to_rhealpix(self.src, self.dst, input_crs="geographic")
        with bench.span("raster2dggs.geotiff_to_tiles"):
            tiles, meta = raster2dggs.geotiff_to_tiles(self.dst)
        with bench.span("raster2dggs.tiles_to_cells") as u:
            cells = raster2dggs.tiles_to_cells(tiles, meta).materialize()
            u["cells"] = cells.count()
        with bench.span("storage.write"):
            storage.write_cell_table(cells, self.table, meta,
                                     partition_depth=PARTITION_DEPTH)
        with bench.span("storage.read"):
            back, stored = storage.read_cell_table(self.table)
            back = back.materialize()
        with bench.span("cells2raster.cells_to_raster") as u:
            arr, _ = cells2raster.cells_to_raster_array(back, stored)
            tile = cells2raster.DEFAULT_TILE
            u["tiles"] = (math.ceil(stored["height"] / tile)
                          * math.ceil(stored["width"] / tile))
        return arr, stored, meta, cells.count()

    def check(self, out) -> dict:
        from dggsray.core.tiffio import read_geotiff

        arr, stored, meta, n_cells = out
        assert json.loads(json.dumps(meta)) == stored, \
            "stored metadata differs from the written metadata"
        warped = read_geotiff(self.dst)
        assert arr.shape == warped.data.shape and np.array_equal(
            arr, warped.data), "round-tripped array differs from the warp"
        files, size = 0, 0
        for d, _, names in os.walk(self.table):
            for f in names:
                if f.endswith(".parquet"):
                    files += 1
                    size += os.path.getsize(os.path.join(d, f))
        shutil.rmtree(self.table)
        return {"storage.bytes_written": size, "storage.files_written": files,
                "storage.bytes_per_cell": size / n_cells,
                "warp.dst_pixels": warped.data.shape[1] * warped.data.shape[2]}


class AreaAuid:
    """Seeded polygons -> burn at res 8 -> AUID encode -> decode and
    subarea test.  Driver only, without Ray: a Ray-level change should show
    no change here."""

    name = "area_auid"
    uses_ray = False
    item = "burned cells"
    seed_effect = "polygon vertex jitter"

    def setup(self, bench):
        from dggsray.core import auid
        from dggsray.ops import vector2dggs
        from dggsray.pipelines.flagship import synthetic_polygons

        self.features = synthetic_polygons(AUID_POLYGONS, bench.seed)
        cuids = vector2dggs.burn_polygons_to_cells(
            self.features, AUID_RES).column("cellid").to_pylist()
        self.expected = sorted(auid.optimize_cuids(cuids, N_SIDE))
        self.items = len(cuids)

    def run(self, bench):
        from dggsray.core import auid
        from dggsray.ops import vector2dggs

        cuids = vector2dggs.burn_polygons_to_cells(
            self.features, AUID_RES).column("cellid").to_pylist()
        gen = auid.RHEALPixAUIDGenerator(N_SIDE)
        with bench.span("auid.encode", "kernel") as u:
            comp, _ = gen.generate_auid_hash_b64(cuids)
            u.update(cells_in=len(cuids), bytes=len(comp))
        with bench.span("auid.decode", "kernel") as u:
            back = gen.cuids_from_auid_b64(comp)
            u["cells_out"] = len(back)
        with bench.span("auid.subarea", "kernel"):
            sub = auid.is_a_subarea(comp, comp)
        return len(cuids), back, sub

    def check(self, out) -> dict:
        n, back, sub = out
        assert n == self.items, f"burned {n} cells, expected {self.items}"
        assert sorted(back) == self.expected, \
            "decoded CUIDs differ from optimize_cuids"
        assert sub, "the AUID is not a subarea of itself"
        return {}


WORKLOADS = {w.name: w for w in (FlagshipJoin, PointsRegrid, RasterRoundtrip,
                                 AreaAuid)}

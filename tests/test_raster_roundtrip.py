"""Raster <-> cell-table roundtrip invariants and mini-DGGS shape goldens, ported
from /root/reference/tests/data_tests/tests_data.py:127-139 (zero RMSE both ways)
and :580-680 (DataFrame -> raster shapes)."""
import os

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import example, given, settings, strategies as st

from dggsray.core.rhpx import F, GridConfig, cell_from_point
from dggsray.core.tiffio import GeoTiff, read_geotiff, write_geotiff
from dggsray.ops.cells2raster import cells_to_raster_array, meta_from_cells
from dggsray.ops.raster2dggs import (geotiff_tiled_to_tiles, geotiff_to_tiles,
                                     tiles_to_cells)

G3 = GridConfig(3, 1, 0)
REF = "/root/reference/tests/test_data"


def _cells_ds(mapping, dtype=pa.int16()):
    import ray.data as rd
    cells = list(mapping.keys())
    vals = list(mapping.values())
    return rd.from_arrow(pa.table({"cellid": pa.array(cells, pa.string()),
                                   "band1": pa.array(vals, dtype)}))


class TestMiniDggsGoldens:
    # reference tests_data.py:580-680, DGGS (WGS84, 3, n=1, s=0), nodata -9999
    def test_single_cell(self, ray_session):
        arr, meta = cells_to_raster_array(_cells_ds({"N0": 0}), nodata=-9999)
        assert arr.shape == (1, 1, 1)
        assert arr[0, 0, 0] == 0

    def test_n_face(self, ray_session):
        arr, meta = cells_to_raster_array(
            _cells_ds({f"N{i}": i for i in range(9)}), nodata=-9999)
        assert arr.shape == (1, 3, 3)
        assert arr[0].tolist() == [[0, 1, 2], [3, 4, 5], [6, 7, 8]]

    def test_s_face(self, ray_session):
        arr, meta = cells_to_raster_array(
            _cells_ds({f"S{i}": i for i in range(9)}), nodata=-9999)
        assert arr.shape[1] in (3, 4) and arr.shape[2] in (3, 4)
        assert arr[0, :3, :3].tolist() == [[0, 1, 2], [3, 4, 5], [6, 7, 8]]

    def test_n_and_s(self, ray_session):
        mapping = {f"N{i}": i for i in range(9)}
        mapping.update({f"S{i}": i for i in range(9)})
        arr, meta = cells_to_raster_array(_cells_ds(mapping), nodata=-9999)
        # N square above face 1, S below face 0: width spans faces O..P (6 cells),
        # height spans N square + equator + S square (9 cells)
        assert arr.shape[2] in (6, 7)
        assert arr.shape[1] in (9, 10)
        assert (arr == -9999).sum() > 0


@st.composite
def _equatorial_block(draw):
    """(res, h, w, i0, j0): an h x w block of res cells whose top-left cell is
    row i0, column j0 of the global lattice anchored at (-2F, 3F/2), kept in
    the equatorial band (rows n..2n-1, columns 0..4n-1, n = 3**res)."""
    res = draw(st.integers(min_value=1, max_value=12))
    n = 3 ** res
    h = draw(st.integers(min_value=1, max_value=min(n, 64)))
    w = draw(st.integers(min_value=1, max_value=min(4 * n, 64)))
    i0 = draw(st.integers(min_value=n, max_value=2 * n - h))
    j0 = draw(st.integers(min_value=0, max_value=4 * n - w))
    return res, h, w, i0, j0


class TestCellsToRasterProperty:
    @settings(max_examples=25, deadline=None)
    @given(block=_equatorial_block())
    @example(block=(5, 7, 2, 272, 8))     # floor(6.9999999...) dropped a row
    def test_cells_meta_raster_equals_source(self, ray_session, block):
        """cells -> meta_from_cells -> cells_to_raster_array reproduces the
        source block exactly: no row or column lost to a float floor."""
        import ray.data as rd
        res, h, w, i0, j0 = block
        cw = G3.cell_width(res)
        ii, jj = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
        cells = cell_from_point(res, -2 * F + (j0 + jj.ravel() + 0.5) * cw,
                                1.5 * F - (i0 + ii.ravel() + 0.5) * cw, G3)
        src = np.arange(1, h * w + 1, dtype=np.int32).reshape(1, h, w)
        ds = rd.from_arrow(pa.table({"cellid": pa.array(cells, pa.string()),
                                     "band1": pa.array(src.ravel())}))
        meta = meta_from_cells(cells, G3, nodata=0, dtype="int32")
        arr, _ = cells_to_raster_array(ds, meta=meta, grid=G3)
        assert arr.shape == src.shape
        assert np.array_equal(arr, src)


class TestRoundtrip:
    def test_cells_to_raster_to_cells_zero_rmse(self, ray_session):
        """tests_data.py:127-139 analogue: cells -> raster -> cells recovers the
        exact values (RMSE == 0)."""
        import ray.data as rd
        rng = np.random.default_rng(11)
        lon = rng.uniform(-20, 20, 3000)
        lat = rng.uniform(-20, 20, 3000)
        from dggsray.core.rhpx import cells_from_lonlat
        cells = sorted(set(cells_from_lonlat(6, lon, lat, G3)))
        vals = (np.arange(len(cells)) % 1000).astype(np.int16)
        ds = rd.from_arrow(pa.table({"cellid": pa.array(cells, pa.string()),
                                     "band1": pa.array(vals, pa.int16())}))
        meta = meta_from_cells(np.array(cells), G3, nodata=-9999, dtype="int16")
        arr, _ = cells_to_raster_array(ds, meta=meta)
        # back: raster tiles -> cells
        import ray.data as rd2
        rows = [{"row0": 0, "col0": 0, "h": meta["height"],
                 "w": meta["width"], "data": arr.tobytes()}]
        back = tiles_to_cells(rd2.from_items(rows), meta, G3).to_pandas()
        back_map = dict(zip(back.cellid, back.band1))
        orig_map = dict(zip(cells, vals))
        assert back_map == orig_map  # RMSE == 0, both directions

    def test_geotiff_io_roundtrip(self, tmp_path):
        data = np.arange(2 * 5 * 7, dtype=np.int16).reshape(2, 5, 7)
        g = GeoTiff(data, left=-100.0, top=200.0, res_x=10.0, res_y=10.0,
                    nodata=-9999, tags={"GDAL_METADATA": "<x>hi</x>"})
        p = str(tmp_path / "t.tif")
        write_geotiff(p, g)
        r = read_geotiff(p)
        assert np.array_equal(r.data, data)
        assert r.left == -100.0 and r.top == 200.0
        assert r.res_x == 10.0 and r.nodata == -9999.0
        assert "hi" in r.tags["GDAL_METADATA"]

    def test_strip_blocks_list_without_an_execution(self, ray_session,
                                                     tmp_path, monkeypatch):
        """geotiff_to_tiles' dataset holds one strip per block, with its
        row0/col0 offset, and listing its blocks (as tiles_to_cells does)
        starts no Ray Data execution."""
        import ray
        from ray.data._internal.execution.streaming_executor import \
            StreamingExecutor
        data = np.arange(3 * 40 * 9, dtype=np.int16).reshape(3, 40, 9)
        p = str(tmp_path / "s.tif")
        write_geotiff(p, GeoTiff(data, 0.0, 0.0, G3.cell_width(5),
                                 G3.cell_width(5), nodata=-1))
        tiles, _ = geotiff_to_tiles(p, G3)
        started = []
        execute = StreamingExecutor.execute
        monkeypatch.setattr(StreamingExecutor, "execute",
                            lambda *a, **k: started.append(1)
                            or execute(*a, **k))
        refs = [ref for bundle in tiles.iter_internal_ref_bundles()
                for ref, _ in bundle.blocks]
        assert not started
        strips = pa.concat_tables(ray.get(refs))
        assert strips.num_rows == len(refs)
        h = strips.column("h").to_numpy()
        assert h.sum() == 40
        assert strips.column("row0").to_pylist() == \
            np.r_[0, np.cumsum(h)[:-1]].tolist()
        assert set(strips.column("col0").to_pylist()) == {0}

    def test_reference_mini_fixture_chain(self, ray_session, tmp_path):
        """Full chain on a committed reference fixture: read tif -> cells ->
        raster -> write tif -> read back == original pixels
        (tests_data.py:682-695 analogue)."""
        tiles, meta = geotiff_to_tiles(f"{REF}/mini_rhealpix_n1_s0_nside3.tiff", G3)
        cells = tiles_to_cells(tiles, meta, G3, store_nodata=False)
        pdf = cells.to_pandas()
        assert sorted(pdf.cellid) == [f"N{i}" for i in range(9)]
        assert sorted(pdf.band1) == list(range(9))
        # cells -> raster, using the legacy-frame meta of the fixture itself
        arr = np.full((1, 3, 3), -9999, dtype=np.int16)
        # scatter through our tile path with the fixture meta
        import ray.data as rd
        ds = rd.from_arrow(pa.table({"cellid": pa.array(list(pdf.cellid)),
                                     "band1": pa.array(pdf.band1, pa.int16())}))
        # our own (correct-frame) meta derived from the cells
        meta2 = meta_from_cells(pdf.cellid.to_numpy(), G3, nodata=-9999,
                                dtype="int16")
        out, _ = cells_to_raster_array(ds, meta=meta2)
        assert out[0].tolist() == [[0, 1, 2], [3, 4, 5], [6, 7, 8]]
        # write + reread through tiffio
        g = GeoTiff(out, meta2["left"], meta2["top"], meta2["res"], meta2["res"],
                    nodata=-9999)
        p = str(tmp_path / "mini_out.tif")
        write_geotiff(p, g)
        again = read_geotiff(p)
        assert np.array_equal(again.data, out)

    def test_landsat_fixture_explode_counts(self, ray_session):
        """Landsat rHPX fixture: nodata pixels (reprojection blank space) are
        dropped, kept pixels map to unique cells, and store_nodata=True keeps
        every pixel (rhpx_gdf_helper.py:89-91 semantics)."""
        tiles, meta = geotiff_to_tiles(
            f"{REF}/landsat_image_small-rhpx-N1-S0-NSide3-res11.tif", G3)
        assert meta["res_idx"] == 11
        pdf = tiles_to_cells(tiles, meta, G3).to_pandas()
        total = 237 * 128
        assert 0 < len(pdf) < total
        assert pdf.cellid.nunique() == len(pdf)
        all_pdf = tiles_to_cells(tiles, meta, G3, store_nodata=True).to_pandas()
        assert len(all_pdf) == total
        assert all_pdf.cellid.nunique() == total


class TestStripSpans:
    """Header-only strip scanning + per-task strip decode — the striped
    GeoTIFF analogue of the JP2 tile-span pipeline."""

    def test_multistrip_write_read_roundtrip(self, tmp_path):
        from dggsray.core.tiffio import (decode_geotiff_strip,
                                         geotiff_strip_spans)
        rng = np.random.default_rng(2)
        data = rng.integers(0, 4000, (3, 237, 128)).astype(np.int16)
        g = GeoTiff(data, -100.0, 200.0, 10.0, 10.0, nodata=-9999)
        for comp in (True, "lzw", False):
            for rps in (32, 7, 300):
                p = str(tmp_path / f"s_{comp}_{rps}.tif")
                write_geotiff(p, g, compress=comp, rows_per_strip=rps)
                assert np.array_equal(read_geotiff(p).data, data)
                meta, spans = geotiff_strip_spans(p)
                acc = np.zeros_like(data)
                with open(p, "rb") as f:
                    for s in spans:
                        f.seek(s["offset"])
                        acc[:, s["row0"]:s["row0"] + s["rows"], :] = \
                            decode_geotiff_strip(meta, f.read(s["count"]),
                                                 s["rows"])
                assert np.array_equal(acc, data)

    def test_landsat_fixture_strips_match_whole_file(self):
        """The reference's GDAL-written fixture ships 64 DEFLATE strips —
        span decode must reassemble it bit-exactly."""
        from dggsray.core.tiffio import (decode_geotiff_strip,
                                         geotiff_strip_spans)
        src = f"{REF}/landsat_image_small-rhpx-N1-S0-NSide3-res11.tif"
        meta, spans = geotiff_strip_spans(src)
        assert len(spans) == 64 and meta["rows_per_strip"] == 2
        ref = read_geotiff(src)
        acc = np.zeros_like(ref.data)
        with open(src, "rb") as f:
            for s in spans:
                f.seek(s["offset"])
                acc[:, s["row0"]:s["row0"] + s["rows"], :] = \
                    decode_geotiff_strip(meta, f.read(s["count"]), s["rows"])
        assert np.array_equal(acc, ref.data)

    def test_spans_pipeline_equals_whole_file_explode(self, ray_session):
        """geotiff_to_tiles_spans -> tiles_to_cells must produce the same
        cell table as the driver-decode geotiff_to_tiles path on the
        Landsat fixture (both nodata-drop and store-all)."""
        from dggsray.ops.raster2dggs import geotiff_to_tiles_spans
        src = f"{REF}/landsat_image_small-rhpx-N1-S0-NSide3-res11.tif"
        tiles_a, meta_a = geotiff_to_tiles(src, G3)
        tiles_b, meta_b = geotiff_to_tiles_spans(src, G3)
        assert meta_b["res_idx"] == meta_a["res_idx"] == 11
        for store in (False, True):
            a = tiles_to_cells(tiles_a, meta_a, G3,
                               store_nodata=store).to_pandas()
            b = tiles_to_cells(tiles_b, meta_b, G3,
                               store_nodata=store).to_pandas()
            a = a.sort_values("cellid").reset_index(drop=True)
            b = b[a.columns].sort_values("cellid").reset_index(drop=True)
            assert a.equals(b)


class TestTiledGeoTiff:
    """TILED layout (GDAL TILED=YES; tags 322-325): write/read roundtrip,
    predictor, header-only tile spans, and span-pipeline equality with the
    whole-file explode."""

    def test_tiled_write_read_roundtrip(self, tmp_path):
        from dggsray.core.tiffio import (decode_geotiff_tile,
                                         geotiff_tile_spans)
        rng = np.random.default_rng(6)
        data = rng.integers(0, 4000, (3, 237, 128)).astype(np.int16)
        g = GeoTiff(data, -100.0, 200.0, 10.0, 10.0, nodata=-9999)
        for comp in (True, "lzw", False):
            for pred in (False, True):
                p = str(tmp_path / f"t_{comp}_{pred}.tif")
                write_geotiff(p, g, compress=comp, tile_size=64,
                              predictor=pred)
                assert np.array_equal(read_geotiff(p).data, data)
                meta, spans = geotiff_tile_spans(p)
                assert meta["tile_w"] == meta["tile_h"] == 64
                assert len(spans) == 4 * 2      # ceil(237/64) x ceil(128/64)
                acc = np.zeros_like(data)
                with open(p, "rb") as f:
                    for s in spans:
                        f.seek(s["offset"])
                        t = decode_geotiff_tile(meta, f.read(s["count"]))
                        acc[:, s["row0"]:s["row0"] + s["rows"],
                            s["col0"]:s["col0"] + s["cols"]] = \
                            t[:, :s["rows"], :s["cols"]]
                assert np.array_equal(acc, data)

    def test_tile_size_validation(self, tmp_path):
        g = GeoTiff(np.zeros((1, 8, 8), np.uint8), 0, 1, 1.0, 1.0)
        with pytest.raises(ValueError, match="multiple of 16"):
            write_geotiff(str(tmp_path / "x.tif"), g, tile_size=20)
        with pytest.raises(ValueError, match="exclusive"):
            write_geotiff(str(tmp_path / "x.tif"), g, tile_size=16,
                          rows_per_strip=4)
        with pytest.raises(ValueError, match="predictor"):
            write_geotiff(str(tmp_path / "x.tif"),
                          GeoTiff(np.zeros((1, 8, 8), np.float32), 0, 1,
                                  1.0, 1.0), predictor=True)

    def test_tiled_pipeline_equals_whole_file_explode(self, ray_session,
                                                      tmp_path):
        """geotiff_tiled_to_tiles -> tiles_to_cells must equal the
        whole-file explode of the same raster, written tiled from the
        reference Landsat fixture's pixels."""
        from dggsray.ops.raster2dggs import geotiff_tiled_to_tiles
        src = f"{REF}/landsat_image_small-rhpx-N1-S0-NSide3-res11.tif"
        ref = read_geotiff(src)
        p = str(tmp_path / "landsat_tiled.tif")
        write_geotiff(p, ref, compress=True, tile_size=48, predictor=True)
        tiles_a, meta_a = geotiff_to_tiles(src, G3)
        tiles_b, meta_b = geotiff_tiled_to_tiles(p, G3)
        assert meta_b["res_idx"] == meta_a["res_idx"] == 11
        for store in (False, True):
            a = tiles_to_cells(tiles_a, meta_a, G3,
                               store_nodata=store).to_pandas()
            b = tiles_to_cells(tiles_b, meta_b, G3,
                               store_nodata=store).to_pandas()
            a = a.sort_values("cellid").reset_index(drop=True)
            b = b[a.columns].sort_values("cellid").reset_index(drop=True)
            assert a.equals(b)


class TestBigTiff:
    """BigTIFF (version 43, 8-byte offsets, LONG8 offset arrays): the >4 GB
    scene layout.  Roundtrip across layouts/compressions, span scans, and
    the auto-promotion threshold."""

    def test_bigtiff_roundtrip_matrix(self, tmp_path):
        from dggsray.core.tiffio import (decode_geotiff_strip,
                                         decode_geotiff_tile,
                                         geotiff_strip_spans,
                                         geotiff_tile_spans)
        rng = np.random.default_rng(13)
        data = rng.integers(0, 60000, (2, 90, 77)).astype(np.uint16)
        g = GeoTiff(data, 5.0, 50.0, 0.25, 0.25, nodata=0,
                    tags={"geokeys": {3072: 4326}})
        for comp in (True, "lzw", False):
            for kw in ({"rows_per_strip": 13}, {"tile_size": 32}, {}):
                p = str(tmp_path / "b.tif")
                write_geotiff(p, g, compress=comp, bigtiff=True, **kw)
                with open(p, "rb") as f:
                    assert f.read(4)[2] == 43        # version 43
                r = read_geotiff(p)
                assert np.array_equal(r.data, data)
                assert r.tags["geokeys"][3072] == 4326
                acc = np.zeros_like(data)
                raw = open(p, "rb").read()
                if "tile_size" in kw:
                    meta, spans = geotiff_tile_spans(p)
                    for s in spans:
                        t = decode_geotiff_tile(
                            meta, raw[s["offset"]:s["offset"] + s["count"]])
                        acc[:, s["row0"]:s["row0"] + s["rows"],
                            s["col0"]:s["col0"] + s["cols"]] = \
                            t[:, :s["rows"], :s["cols"]]
                else:
                    meta, spans = geotiff_strip_spans(p)
                    for s in spans:
                        acc[:, s["row0"]:s["row0"] + s["rows"], :] = \
                            decode_geotiff_strip(
                                meta, raw[s["offset"]:s["offset"]
                                          + s["count"]], s["rows"])
                assert np.array_equal(acc, data)

    def test_classic_stays_classic(self, tmp_path):
        g = GeoTiff(np.zeros((1, 16, 16), np.uint8), 0, 1, 1.0, 1.0)
        p = str(tmp_path / "c.tif")
        write_geotiff(p, g)
        with open(p, "rb") as f:
            assert f.read(4)[2] == 42

    def test_unknown_version_raises(self, tmp_path):
        p = tmp_path / "bad.tif"
        p.write_bytes(b"II\x2c\x00" + b"\x00" * 12)
        with pytest.raises(ValueError, match="version"):
            read_geotiff(str(p))


class TestMetaFromCellsDistributed:
    def test_ds_meta_equals_driver_meta(self, ray_session):
        """meta_from_cells_ds (in-plan Min/Max fold, no driver collect)
        must produce the exact meta dict of the driver-side helper."""
        import ray.data as rd

        from dggsray.ops.cells2raster import (meta_from_cells,
                                              meta_from_cells_ds)
        cells = [f"N{i}{j}" for i in range(9) for j in range(9)][7:60]
        ds = rd.from_items([{"cellid": c, "band1": 1} for c in cells]) \
            .repartition(5)
        got = meta_from_cells_ds(ds, nodata=-9999, dtype="int16")
        exp = meta_from_cells(np.array(cells), nodata=-9999, dtype="int16")
        assert got == exp

    def test_empty_blocks_are_skipped(self, ray_session):
        """0-row blocks (an all-nodata tile's) add nothing to the extent,
        and a table with no cells at all raises."""
        import ray.data as rd

        from dggsray.ops.cells2raster import (meta_from_cells,
                                              meta_from_cells_ds)
        cells = [f"O{i}{j}" for i in range(9) for j in range(9)][3:40]

        def block(cs):
            return pa.table({"cellid": pa.array(cs, pa.string()),
                             "band1": pa.array([1] * len(cs), pa.int16())})
        ds = rd.from_arrow([block([]), block(cells[:20]), block([]),
                            block(cells[20:])])
        got = meta_from_cells_ds(ds, nodata=-9999, dtype="int16")
        exp = meta_from_cells(np.array(cells), nodata=-9999, dtype="int16")
        assert got == exp
        with pytest.raises(ValueError, match="no cells"):
            meta_from_cells_ds(rd.from_arrow([block([])]))


TILED_EDGE = 16      # the smallest tile edge a tiled GeoTIFF may have


@st.composite
def _tiled_raster(draw):
    """(res, i0, j0, tiled, data): a 2-band int16 raster of res cells in the
    equatorial band, nodata 0 on a random mask and on one whole tile — a
    strip of geotiff_to_tiles' CPU-sized cut, or (tiled) one 16 px tile of a
    tiled GeoTIFF, whose tile rows carry 2-D (row0, col0) offsets."""
    res = draw(st.integers(min_value=4, max_value=9))
    n = 3 ** res
    tiled = draw(st.booleans())
    h = draw(st.integers(min_value=1, max_value=40))
    w = draw(st.integers(min_value=1, max_value=40))
    i0 = draw(st.integers(min_value=n, max_value=2 * n - h))
    j0 = draw(st.integers(min_value=0, max_value=4 * n - w))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    data = rng.integers(1, 30000, (2, h, w)).astype(np.int16)
    data[:, rng.random((h, w)) < draw(st.sampled_from([0.0, 0.3]))] = 0
    # conftest's Ray has 4 CPUs
    th, tw = (TILED_EDGE, TILED_EDGE) if tiled else (-(-h // min(4, h)), w)
    er = draw(st.integers(0, -(-h // th) - 1))
    ec = draw(st.integers(0, -(-w // tw) - 1))
    data[:, er * th:(er + 1) * th, ec * tw:(ec + 1) * tw] = 0
    return res, i0, j0, tiled, data


class TestTiledRoundTripProperty:
    @settings(max_examples=30, deadline=None)
    @given(raster=_tiled_raster(),
           depth=st.sampled_from([None, 0, 2, 4]),
           fmt=st.sampled_from(["parquet", "feather"]),
           extras=st.booleans())
    @example(raster=(5, 243, 0, False, np.zeros((2, 1, 1), np.int16)),
             depth=2, fmt="parquet", extras=True)     # no cell at all
    def test_geotiff_cells_table_raster_is_identity(self, ray_session, raster,
                                                    depth, fmt, extras):
        """geotiff -> tiles -> cells -> write -> read -> raster gives back
        the source bit for bit; every block carries the full typed schema
        (an all-nodata tile's 0-row block too); one cells block per tile, at
        most one read block per Ray CPU; Ray warns of no schema change."""
        import logging
        import tempfile

        import ray

        from dggsray.io.storage import read_cell_table, write_cell_table
        res, i0, j0, tiled, data = raster
        cw = G3.cell_width(res)
        schema = pa.schema(
            [("cellid", pa.string()), ("band1", pa.int16()),
             ("band2", pa.int16())]
            + [("all_bands", pa.string()), ("uuid", pa.string())] * extras)

        warned = []
        handler = logging.Handler()
        handler.emit = lambda r: warned.append(r.getMessage())
        log = logging.getLogger(
            "ray.data._internal.execution.streaming_executor_state")
        log.addHandler(handler)
        try:
            with tempfile.TemporaryDirectory() as d:
                src = os.path.join(d, "src.tif")
                write_geotiff(src, GeoTiff(data, -2 * F + j0 * cw,
                                           1.5 * F - i0 * cw, cw, cw,
                                           nodata=0),
                              tile_size=TILED_EDGE if tiled else None)
                tiles, meta = (geotiff_tiled_to_tiles if tiled
                               else geotiff_to_tiles)(src, G3)
                cells = tiles_to_cells(tiles, meta, G3, values_in_json=extras,
                                       add_uid=extras)
                blocks = ray.get(cells.to_arrow_refs())
                assert len(blocks) == tiles.count()
                assert all(b.schema.equals(schema) for b in blocks)
                assert min(b.num_rows for b in blocks) == 0
                table = os.path.join(d, "cells")
                write_cell_table(cells, table, meta, fmt=fmt,
                                 partition_depth=depth)
                back, stored = read_cell_table(table)
                blocks = ray.get(back.to_arrow_refs())
                assert 1 <= len(blocks) <= 4
                assert all(b.schema.equals(schema) for b in blocks)
                arr, _ = cells_to_raster_array(back, stored, G3)
        finally:
            log.removeHandler(handler)
        assert arr.dtype == data.dtype and np.array_equal(arr, data)
        assert not [m for m in warned if "different schema" in m]

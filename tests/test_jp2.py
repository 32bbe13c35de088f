"""JPEG2000 (core/jp2io.py) — from-scratch T.800 lossless codec.

Parity target: the reference reads JP2 via GDAL/rasterio (fixture
/root/reference/tests/test_data/685.jp2); this engine decodes it natively.
Layers tested bottom-up: MQ coder roundtrip, 5/3 DWT roundtrip, EBCOT
code-block roundtrip, codestream roundtrip, JP2+GeoJP2 container roundtrip,
then conformance against the independently-encoded (Kakadu v6) reference
fixture and the raster->rHEALPix acceptance path.
"""
import numpy as np
import pytest

from dggsray.core import jp2io as J

KAKADU_FIX = "/root/reference/tests/test_data/685.jp2"


class TestMQ:
    def test_roundtrip_random(self):
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, 4000).tolist()
        ctxs = rng.integers(0, 19, 4000).tolist()
        enc = J.MQEncoder()
        for c, b in zip(ctxs, bits):
            enc.encode(c, b)
        data = enc.flush()
        dec = J.MQDecoder(data)
        assert [dec.decode(c) for c in ctxs] == bits

    def test_roundtrip_skewed(self):
        # long MPS runs hit the renorm-free fast path and byte stuffing
        bits = ([0] * 500 + [1] + [0] * 500 + [1, 1, 1] + [0] * 100) * 3
        enc = J.MQEncoder()
        for b in bits:
            enc.encode(0, b)
        dec = J.MQDecoder(enc.flush())
        assert [dec.decode(0) for _ in bits] == bits


class TestDWT53:
    @pytest.mark.parametrize("shape", [(1, 1), (5, 7), (8, 8), (13, 1),
                                       (1, 9), (64, 48), (37, 53)])
    def test_level_roundtrip(self, shape):
        rng = np.random.default_rng(1)
        a = rng.integers(-300, 300, shape).astype(np.int64)
        assert np.array_equal(a, J.synth53_level(*J.fwd53_level(a)))

    def test_rct_roundtrip(self):
        rng = np.random.default_rng(2)
        r, g, b = (rng.integers(-128, 128, (9, 11)).astype(np.int64)
                   for _ in range(3))
        assert all(np.array_equal(x, y) for x, y in
                   zip((r, g, b), J.rct_inverse(*J.rct_forward(r, g, b))))


class TestCblk:
    @pytest.mark.parametrize("band", ["LL", "HL", "LH", "HH"])
    def test_roundtrip(self, band):
        rng = np.random.default_rng(3)
        for shape in [(4, 4), (17, 13), (64, 64), (3, 64), (1, 1)]:
            c = (rng.integers(-500, 500, shape)
                 * (rng.random(shape) < 0.3)).astype(np.int32)
            data, npl, npass = J.cblk_encode(c, band)
            if npl == 0:
                assert not c.any()
                continue
            d = J.cblk_decode(data, shape[1], shape[0], npl, npass, band)
            assert np.array_equal(c, d)

    def test_all_zero_block_not_included(self):
        _, npl, npass = J.cblk_encode(np.zeros((8, 8), np.int32), "LL")
        assert npl == 0 and npass == 0


class TestCodestream:
    def test_roundtrip_rgb_gray_and_16bit(self):
        rng = np.random.default_rng(4)
        cases = [((37, 53), 3, 8, False), ((64, 48), 1, 8, False),
                 ((31, 20), 3, 16, False), ((20, 31), 1, 16, True)]
        for shape, nc, depth, signed in cases:
            lo = -(1 << (depth - 1)) if signed else 0
            hi = (1 << (depth - 1)) - 1 if signed else (1 << depth) - 1
            comps = [rng.integers(lo, hi + 1, shape).astype(np.int64)
                     for _ in range(nc)]
            code = J.encode_codestream(comps, depth=depth, signed=signed)
            dec, cs = J.decode_codestream(code, 0)
            dc = 0 if signed else 1 << (depth - 1)
            for a, b in zip(comps, dec):
                assert np.array_equal(a - dc, b)

    def test_reduce_is_ll_of_full(self):
        """Resolution-progressive decode: reduce=1 output must equal the
        forward 5/3 LL of the full decode (reversibility of the DWT)."""
        rng = np.random.default_rng(5)
        comps = [rng.integers(0, 256, (45, 57)).astype(np.int64)]
        code = J.encode_codestream(comps, depth=8, levels=3)
        full, _ = J.decode_codestream(code, 0, reduce=0)
        red, _ = J.decode_codestream(code, 0, reduce=1)
        ll = J.fwd53_level(full[0])[0]
        assert np.array_equal(ll, red[0])


class TestJP2Container:
    def test_geojp2_bit_exact_roundtrip(self, tmp_path):
        from dggsray.core.tiffio import GeoTiff
        rng = np.random.default_rng(6)
        data = rng.integers(0, 256, (3, 50, 66)).astype(np.uint8)
        g = GeoTiff(data, -1.5, 41.25, 0.02, 0.02, None,
                    {"geokeys": {1024: 2, 2048: 4326}})
        p = str(tmp_path / "t.jp2")
        J.write_jp2(p, g)
        r = J.read_jp2_raster(p)
        assert np.array_equal(r.data, data)
        assert (r.left, r.top, r.res_x, r.res_y) == (-1.5, 41.25, 0.02, 0.02)
        assert r.tags["geokeys"][2048] == 4326

    def test_open_raster_dispatch(self, tmp_path):
        from dggsray.core.raster import open_raster
        from dggsray.core.tiffio import GeoTiff
        data = np.arange(48, dtype=np.uint8).reshape(1, 6, 8)
        p = str(tmp_path / "d.jp2")
        J.write_jp2(p, GeoTiff(data, 0.0, 1.0, 0.1, 0.1))
        assert np.array_equal(open_raster(p).data, data)


class TestKakaduFixture:
    """Conformance against an independent encoder (Kakadu v6, the reference
    repo's own 685.jp2): RPCL, 4 levels, MCT, 64x64 blocks, GeoJP2."""

    def test_reduced_decode_and_geo(self):
        g = J.read_jp2_raster(KAKADU_FIX, reduce=3)
        assert g.data.shape == (3, 48, 104)
        assert g.data.dtype == np.uint8
        # image statistics of a real aerial photo, not noise: every band
        # uses most of the 8-bit range with an interior mean
        for b in g.data:
            assert int(b.max()) - int(b.min()) > 150
            assert 80 < float(b.mean()) < 180
        # GeoJP2: NAD83 / UTM 10N, 3.48m pixels at full res -> *8 here
        assert g.tags["geokeys"][3072] == 26910
        assert g.res_x == pytest.approx(3.48373 * 8, rel=1e-3)
        assert g.left == pytest.approx(558627.038, abs=0.01)

    def test_multires_consistency(self):
        """reduce=k+1 must equal the forward-5/3 LL of reduce=k — ties every
        resolution of the Kakadu stream to the same coefficient lattice
        (catches any packet mis-ordering or band misassignment).  Compared
        on the raw codestream output (pre-clip) with the RCT undone exactly."""
        buf = open(KAKADU_FIX, "rb").read()
        cs_at = next(a for typ, a, b in J._boxes(buf, 0, len(buf))
                     if typ == b"jp2c")
        red2, _ = J.decode_codestream(buf, cs_at, reduce=2)
        red3, _ = J.decode_codestream(buf, cs_at, reduce=3)
        for p2, p3 in zip(J.rct_forward(*red2), J.rct_forward(*red3)):
            assert np.array_equal(J.fwd53_level(p2)[0], p3)


class TestRhealpixAcceptance:
    def test_jp2_conversion_bit_equals_geotiff(self, tmp_path):
        """The new-format acceptance contract (same as NetCDF-4): the SAME
        raster serialized as .jp2 and as .tif must produce bit-identical
        rHEALPix conversions through raster_to_rhealpix."""
        from dggsray.core.tiffio import GeoTiff, read_geotiff, write_geotiff
        from dggsray.ops.warp import raster_to_rhealpix
        rng = np.random.default_rng(7)
        data = rng.integers(1, 255, (1, 40, 60)).astype(np.uint8)
        g = GeoTiff(data, -1.0, 41.0, 0.02, 0.02, nodata=0)
        src_tif = str(tmp_path / "s.tif")
        src_jp2 = str(tmp_path / "s.jp2")
        write_geotiff(src_tif, g)
        J.write_jp2(src_jp2, g)
        out_tif = str(tmp_path / "o_tif.tif")
        out_jp2 = str(tmp_path / "o_jp2.tif")
        r1 = raster_to_rhealpix(src_tif, out_tif, dst_resolution_idx=5)
        r2 = raster_to_rhealpix(src_jp2, out_jp2, dst_resolution_idx=5)
        assert r1 == r2 == 5
        a, b = read_geotiff(out_tif), read_geotiff(out_jp2)
        assert np.array_equal(a.data, b.data)
        assert (a.left, a.top, a.res_x, a.res_y) == \
            (b.left, b.top, b.res_x, b.res_y)


class TestLoudFailures:
    def test_lossy_97_raises(self):
        # flip the COD transform byte of a valid stream to 9/7
        code = bytearray(J.encode_codestream(
            [np.zeros((8, 8), np.int64)], depth=8))
        at = code.find(b"\xff\x52")
        code[at + 2 + 11] = 0            # SPcod transform byte -> 9/7
        with pytest.raises(NotImplementedError, match="9/7"):
            J.decode_codestream(bytes(code), 0)

    def test_multi_layer_raises(self):
        code = bytearray(J.encode_codestream(
            [np.zeros((8, 8), np.int64)], depth=8))
        at = code.find(b"\xff\x52")
        code[at + 2 + 5] = 2             # layers -> 2
        with pytest.raises(NotImplementedError, match="layer"):
            J.decode_codestream(bytes(code), 0)

    def test_truncated_file_fails_cleanly(self, tmp_path):
        from dggsray.core.tiffio import GeoTiff
        p = str(tmp_path / "t.jp2")
        J.write_jp2(p, GeoTiff(
            np.arange(64, dtype=np.uint8).reshape(1, 8, 8), 0, 1, 1, 1))
        whole = open(p, "rb").read()
        with open(p, "wb") as f:
            f.write(whole[:len(whole) // 3])
        with pytest.raises(Exception):
            J.read_jp2_raster(p)


class TestMultiTile:
    """Tiled codestreams (one tile-part per tile, tile sizes a multiple of
    2^NL).  Tiles transform independently (T.800 tile-wise DWT), so tiled
    and untiled FULL decodes are pixel-identical, while reduced decodes
    legitimately differ near tile edges — their oracle is the per-tile
    forward-DWT LL pasted on the reduced grid."""

    @pytest.mark.parametrize("shape,ts,nl,nc", [
        ((64, 128), 64, 1, 1),
        ((64, 72), 64, 3, 1),            # 8-px edge tile
        ((150, 200), 64, 3, 3),          # 12 tiles, RGB + RCT
        ((150, 200), (64, 128), 2, 2),   # rectangular tiles
        ((100, 100), 40, 3, 1),          # non-power-of-two tile size
    ])
    def test_roundtrip_and_equals_untiled(self, shape, ts, nl, nc):
        rng = np.random.default_rng(11)
        comps = [rng.integers(0, 256, shape).astype(np.int64)
                 for _ in range(nc)]
        code = J.encode_codestream(comps, depth=8, levels=nl, tile_size=ts)
        dec, cs = J.decode_codestream(code)
        assert all(np.array_equal(a, b + 128) for a, b in zip(comps, dec))
        dec1, _ = J.decode_codestream(
            J.encode_codestream(comps, depth=8, levels=nl))
        assert all(np.array_equal(a, b) for a, b in zip(dec, dec1))

    @pytest.mark.parametrize("reduce", [1, 2, 3])
    def test_reduced_decode_is_per_tile_ll(self, reduce):
        rng = np.random.default_rng(7)
        H, W, TS = 150, 200, 64
        img = rng.integers(0, 256, (H, W)).astype(np.int64)
        code = J.encode_codestream([img], depth=8, levels=3, tile_size=TS,
                                   mct=False)
        dec, _ = J.decode_codestream(code, reduce=reduce)
        k = 1 << reduce
        exp = np.zeros((-(-H // k), -(-W // k)), np.int64)
        for ty0 in range(0, H, TS):
            for tx0 in range(0, W, TS):
                ll = img[ty0:min(H, ty0 + TS),
                         tx0:min(W, tx0 + TS)] - 128
                for _ in range(reduce):
                    ll = J.fwd53_level(ll)[0]
                exp[ty0 // k:ty0 // k + ll.shape[0],
                    tx0 // k:tx0 // k + ll.shape[1]] = ll
        assert np.array_equal(dec[0], exp)

    def test_span_decode_assembles_to_full(self):
        rng = np.random.default_rng(13)
        H, W = 150, 200
        comps = [rng.integers(0, 256, (H, W)).astype(np.int64)
                 for _ in range(3)]
        code = J.encode_codestream(comps, depth=8, levels=3, tile_size=64)
        hdr, spans, cs = J.jp2_tile_spans(code)
        assert len(spans) == 12
        assert len(hdr) < 200            # a task ships ~100 B + its tile
        for red in (0, 2):
            full, _ = J.decode_codestream(code, reduce=red)
            acc = [np.zeros_like(full[0]) for _ in range(3)]
            for s in spans:
                tc, (x0, y0) = J.decode_jp2_tile(
                    hdr, code[s["start"]:s["end"]], reduce=red)
                for c in range(3):
                    acc[c][y0:y0 + tc[c].shape[0],
                           x0:x0 + tc[c].shape[1]] = tc[c]
            assert all(np.array_equal(a, b) for a, b in zip(acc, full))

    def test_spans_from_jp2_container(self, tmp_path):
        from dggsray.core.tiffio import GeoTiff
        rng = np.random.default_rng(17)
        data = rng.integers(0, 256, (1, 100, 130)).astype(np.uint8)
        p = str(tmp_path / "t.jp2")
        J.write_jp2(p, GeoTiff(data, 10.0, 50.0, 0.1, 0.1), levels=2,
                    tile_size=64)
        buf = open(p, "rb").read()
        hdr, spans, cs = J.jp2_tile_spans(buf)
        assert len(spans) == 6 and (cs.XT, cs.YT) == (64, 64)
        g = J.read_jp2_raster(p)          # whole-file read still works
        assert np.array_equal(g.data, data)
        acc = np.zeros((100, 130), np.int64)
        for s in spans:
            tc, (x0, y0) = J.decode_jp2_tile(hdr, buf[s["start"]:s["end"]])
            acc[y0:y0 + tc[0].shape[0], x0:x0 + tc[0].shape[1]] = tc[0]
        assert np.array_equal(acc + 128, data[0])

    def test_ray_parallel_tile_decode(self, ray_session, tmp_path):
        """Tiles as the Ray fan-out unit: from_items over spans, each task
        decodes from (header, tile bytes) only, assembly equals the full
        decode.  The shape a 100 TB scene archive needs — no task ever
        holds the whole file."""
        import ray

        from dggsray.core.tiffio import GeoTiff
        rng = np.random.default_rng(19)
        data = rng.integers(0, 256, (1, 256, 384)).astype(np.uint8)
        p = str(tmp_path / "big.jp2")
        J.write_jp2(p, GeoTiff(data, 0.0, 0.0, 1.0, 1.0), levels=3,
                    tile_size=128)
        buf = open(p, "rb").read()
        hdr, spans, cs = J.jp2_tile_spans(buf)
        assert len(spans) == 6
        hdr_ref = ray.put(hdr)           # broadcast once, read per task

        def decode_batch(batch):
            import pyarrow as pa
            h = ray.get(hdr_ref)
            outs = {"x0": [], "y0": [], "h": [], "w": [], "px": []}
            for st, en in zip(batch["start"].to_pylist(),
                              batch["end"].to_pylist()):
                with open(p, "rb") as f:     # range read: only this tile
                    f.seek(st)
                    tb = f.read(en - st)
                tc, (x0, y0) = J.decode_jp2_tile(h, tb)
                outs["x0"].append(x0)
                outs["y0"].append(y0)
                outs["h"].append(tc[0].shape[0])
                outs["w"].append(tc[0].shape[1])
                outs["px"].append((tc[0] + 128).astype(np.uint8)
                                  .tobytes())
            return pa.table(outs)

        ds = ray.data.from_items(spans).map_batches(
            decode_batch, batch_format="pyarrow", batch_size=2)
        acc = np.zeros((256, 384), np.uint8)
        for row in ds.iter_rows():
            t = np.frombuffer(row["px"], np.uint8).reshape(row["h"],
                                                           row["w"])
            acc[row["y0"]:row["y0"] + row["h"],
                row["x0"]:row["x0"] + row["w"]] = t
        assert np.array_equal(acc, data[0])

    def test_indivisible_tile_size_raises(self):
        with pytest.raises(ValueError, match="multiple of 2\\^levels"):
            J.encode_codestream([np.zeros((100, 100), np.int64)],
                                depth=8, levels=5, tile_size=48)

    def test_decoder_rejects_indivisible_tiles(self):
        # craft: valid 2-tile stream, then shrink XTsiz in SIZ to 60
        code = bytearray(J.encode_codestream(
            [np.zeros((64, 128), np.int64)], depth=8, levels=2,
            tile_size=64))
        at = code.find(b"\xff\x51")
        import struct as S
        S.pack_into(">I", code, at + 4 + 18, 62)   # XTsiz: 62 % 2^2 != 0
        with pytest.raises(NotImplementedError, match="multiple of"):
            J.decode_codestream(bytes(code), 0)


class TestJp2ToCells:
    def test_jp2_tiles_to_cells_equals_geotiff_path(self, ray_session,
                                                    tmp_path):
        """The reference Landsat rHPX scene, re-serialized as a TILED JP2,
        explodes to the SAME cell table through the span pipeline (driver
        scans headers only; tiles decode inside tasks via range reads) as
        the whole-file GeoTIFF path."""
        from dggsray.core.rhpx import GridConfig
        from dggsray.core.tiffio import read_geotiff
        from dggsray.ops.raster2dggs import (geotiff_to_tiles, jp2_to_tiles,
                                             tiles_to_cells)

        G3 = GridConfig(3, 1, 0)
        src = ("/root/reference/tests/test_data/"
               "landsat_image_small-rhpx-N1-S0-NSide3-res11.tif")
        g = read_geotiff(src)
        p = str(tmp_path / "scene.jp2")
        J.write_jp2(p, g, levels=3, tile_size=64)

        tiles_a, meta_a = geotiff_to_tiles(src, G3)
        ref = tiles_to_cells(tiles_a, meta_a, G3,
                             store_nodata=True).to_pandas()

        tiles_b, meta_b = jp2_to_tiles(p, G3)
        assert meta_b["res_idx"] == 11 and meta_b["tile"] == 64
        assert (meta_b["width"], meta_b["height"]) == (237, 128)
        got = tiles_to_cells(tiles_b, meta_b, G3).to_pandas()

        cols = ["cellid"] + [f"band{i+1}" for i in range(8)]
        a = ref[cols].sort_values("cellid").reset_index(drop=True)
        b = got[cols].sort_values("cellid").reset_index(drop=True)
        assert a.equals(b)

    def test_jp2_tiles_nodata_drop(self, ray_session, tmp_path):
        """Setting nodatavals on the jp2 meta reproduces the GeoTIFF
        default (nodata-dropping) explode exactly."""
        from dggsray.core.rhpx import GridConfig
        from dggsray.core.tiffio import read_geotiff
        from dggsray.ops.raster2dggs import (geotiff_to_tiles, jp2_to_tiles,
                                             tiles_to_cells)

        G3 = GridConfig(3, 1, 0)
        src = ("/root/reference/tests/test_data/"
               "landsat_image_small-rhpx-N1-S0-NSide3-res11.tif")
        p = str(tmp_path / "scene.jp2")
        J.write_jp2(p, read_geotiff(src), levels=3, tile_size=64)

        tiles_a, meta_a = geotiff_to_tiles(src, G3)
        ref = tiles_to_cells(tiles_a, meta_a, G3).to_pandas()

        tiles_b, meta_b = jp2_to_tiles(p, G3)
        meta_b["nodatavals"] = meta_a["nodatavals"]
        got = tiles_to_cells(tiles_b, meta_b, G3).to_pandas()
        assert len(got) == len(ref) and 0 < len(got) < 237 * 128
        a = ref.sort_values("cellid").reset_index(drop=True)
        b = got[a.columns].sort_values("cellid").reset_index(drop=True)
        assert a.equals(b)

    def test_spans_file_matches_buffer_scan(self, tmp_path):
        from dggsray.core.tiffio import GeoTiff
        rng = np.random.default_rng(23)
        data = rng.integers(0, 256, (1, 100, 130)).astype(np.uint8)
        p = str(tmp_path / "t.jp2")
        J.write_jp2(p, GeoTiff(data, 10.0, 50.0, 0.1, 0.1), levels=2,
                    tile_size=64)
        buf = open(p, "rb").read()
        h1, s1, _ = J.jp2_tile_spans(buf)
        h2, s2, cs, geo = J.jp2_tile_spans_file(p)
        assert h1 == h2 and s1 == s2
        assert geo["left"] == 10.0 and geo["top"] == 50.0
        assert geo["res_x"] == 0.1


class TestDistributedEncode:
    def test_parallel_encode_bit_identical(self, ray_session, monkeypatch):
        """Tile bodies encoded over Ray tasks must be byte-for-byte what the
        sequential path writes (tiles are independent; assembly order is
        deterministic)."""
        import ray
        rng = np.random.default_rng(29)
        comps = [rng.integers(0, 256, (200, 260)).astype(np.int64)
                 for _ in range(3)]
        par = J.encode_codestream(comps, depth=8, levels=3, tile_size=64)
        monkeypatch.setattr(ray, "is_initialized", lambda: False)
        seq = J.encode_codestream(comps, depth=8, levels=3, tile_size=64)
        assert par == seq
        dec, _ = J.decode_codestream(par)
        assert all(np.array_equal(a, b + 128) for a, b in zip(comps, dec))

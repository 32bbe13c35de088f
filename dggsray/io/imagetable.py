"""The image+caption table (the engine's primary input, BASELINE.json input_hint):

    (image_id: string, bytes: binary, w: int32, h: int32, fmt: string,
     caption: string, phash: int64)

plus geo-footprint columns (lon_min, lat_min, lon_max, lat_max: float64) giving each
image a deterministic position on the globe (low-discrepancy R2 sequence for global
cover + a clustered 30% fraction that lands in one res-3 subtree to create the cell
skew the engine must handle — FIXTURES.md F1/F8).

Everything is deterministic in image index i (Philox counter RNG), so any worker can
regenerate the reference pixels of any row and verify the per-row invariant
(decode(bytes) == regenerated pixels, caption equality) without shared state.

Codecs are self-contained (no PIL/GDAL in this environment):
- "raw": C-order uint8 RGB bytes
- "png": real 8-bit RGB PNG (filter 0, zlib) — readable by any standard viewer.
Both lossless, so the PSNR>=40dB invariant is exact equality here.

Synthesis is a Ray pipeline (range -> map_batches -> write_parquet) so it scales the
same way the engine does.
"""
from __future__ import annotations

import os
import struct
import zlib

import numpy as np
import pyarrow as pa

# image sizes cycle (FIXTURES.md F1)
_WS = np.array([32, 64, 128], dtype=np.int32)
_HS = np.array([32, 64, 96], dtype=np.int32)
_FMTS = ["raw", "png"]

SEED = 42
# R2 low-discrepancy constants
_G1, _G2 = 0.7548776662466927, 0.5698402909980532
# the skew cluster: ~30% of images fall inside one res-3 cell subtree near (-3.5, 40.5)
_CLUSTER_LON, _CLUSTER_LAT, _CLUSTER_JITTER = -3.5, 40.5, 0.8


def n_images_for_sf(sf: float) -> int:
    return max(100, int(round(sf * 500_000)))


import functools


@functools.lru_cache(maxsize=16)
def _gradient_base(w: int, h: int):
    """(h, w, 3) gradient plane shared by all images of one size (cached: the
    size cycle has 3 entries, and regenerating int64 index grids per image is
    the dominant memory traffic of the per-row verification path)."""
    yy, xx = np.mgrid[0:h, 0:w]
    base = np.empty((h, w, 3), dtype=np.uint8)
    base[..., 0] = (xx * 255 // max(w - 1, 1)).astype(np.uint8)
    base[..., 1] = (yy * 255 // max(h - 1, 1)).astype(np.uint8)
    base[..., 2] = ((xx + yy) * 127 // max(w + h - 2, 1)).astype(np.uint8)
    base.setflags(write=False)
    return base


@functools.lru_cache(maxsize=16)
def _idx_mix(n: int):
    """Cached per-position term of the noise hash (one multiply per size)."""
    with np.errstate(over="ignore"):
        return np.arange(n, dtype=np.uint32) * np.uint32(0x9E3779B1)


def _pixels(i: int, w: int, h: int) -> np.ndarray:
    """Deterministic (h, w, 3) uint8 image: gradients + seeded noise.

    Noise is a uint32 counter hash (Weyl position term, one xorshift to break
    linearity, one multiply, top-5-bits) — the per-row verify invariant
    regenerates every reference image inside the flagship hot loop, and this
    regeneration is memory-bandwidth-bound: v2's splitmix64 streamed ~80 B of
    uint64 temps per output byte; the uint32 form streams ~24 B (measured
    ~2.5x faster end to end, which is also why the multi-worker scaling
    envelope cares — see BENCH/BASELINE.md)."""
    n = h * w * 3
    with np.errstate(over="ignore"):
        z = np.uint32((SEED + i) * 0x85EBCA6B % (1 << 32)) + _idx_mix(n)
        z ^= z >> np.uint32(16)
        z *= np.uint32(0x7FEB352D)
    noise = (z >> np.uint32(27)).astype(np.uint8).reshape(h, w, 3)   # 0..31
    out = _gradient_base(w, h) + noise  # uint8 wraparound, deterministic
    out[..., 2] += np.uint8(i % 64)
    return out


def _pixels_batch(idx: np.ndarray, w: int, h: int) -> np.ndarray:
    """(n, h, w, 3) reference images for n image indices, vectorized in
    CACHE-SIZED chunks: one whole-batch broadcast kept every temp in DRAM
    (5x slower than the per-image loop, measured); a handful of images per
    inner call keeps temps in L2 while amortizing the Python dispatch that
    made the per-image loop 37% of the fused flagship kernel."""
    n = h * w * 3
    idx = np.asarray(idx, dtype=np.uint64)
    m = idx.size
    out = np.empty((m, h, w, 3), dtype=np.uint8)
    grad = _gradient_base(w, h)
    mix = _idx_mix(n)
    rows = max(1, (1 << 19) // max(n, 1))       # ~2 MB of uint32 temps
    with np.errstate(over="ignore"):
        seeds = ((np.uint64(SEED) + idx) * np.uint64(0x85EBCA6B)) \
            .astype(np.uint32)
        badd = (idx % np.uint64(64)).astype(np.uint8)
        for s in range(0, m, rows):
            e = min(s + rows, m)
            z = seeds[s:e, None] + mix[None, :]
            z ^= z >> np.uint32(16)
            z *= np.uint32(0x7FEB352D)
            noise = (z >> np.uint32(27)).astype(np.uint8) \
                .reshape(-1, h, w, 3)
            chunk = grad[None, ...] + noise
            chunk[..., 2] += badd[s:e, None, None]
            out[s:e] = chunk
    return out


def average_phash(img: np.ndarray) -> int:
    """64-bit average hash: 8x8 block-mean of luminance, bit=1 where above mean."""
    h, w = img.shape[:2]
    gray = img.astype(np.float64).mean(axis=2)
    bh, bw = h // 8, w // 8
    blocks = gray[: bh * 8, : bw * 8].reshape(8, bh, 8, bw).mean(axis=(1, 3))
    bits = (blocks > blocks.mean()).ravel()
    return int(np.frombuffer(np.packbits(bits).tobytes(), dtype=">u8")[0].astype(np.uint64).view(np.int64))


def average_phash_batch(stack: np.ndarray) -> np.ndarray:
    """average_phash vectorized over an (n, h, w, 3) same-size stack — one
    reshape+mean for the whole group instead of n Python calls (bit-identical
    to the scalar form; the verify invariant compares against stored hashes).

    The grayscale goes through the integer channel sum: (r+g+b) is exact
    in int64 and (sum)/3.0 is the SAME float64 value the scalar path's
    astype(float64).mean(axis=2) produces (its pairwise sum of three
    integers is exact too), so no 8x-input float64 RGB temp is ever
    allocated and the block-mean reduction sees identical inputs."""
    n, h, w = stack.shape[:3]
    bh, bw = h // 8, w // 8
    gsum = stack[:, : bh * 8, : bw * 8].sum(axis=3, dtype=np.int64)
    gray = gsum.astype(np.float64)
    gray /= 3.0
    blocks = gray.reshape(n, 8, bh, 8, bw).mean(axis=(2, 4))
    bits = blocks > blocks.mean(axis=(1, 2))[:, None, None]
    packed = np.packbits(bits.reshape(n, 64), axis=1)
    return packed.view(">u8").ravel().astype(np.uint64).view(np.int64)


def encode_png(img: np.ndarray) -> bytes:
    """Minimal valid 8-bit RGB PNG, filter 0, single IDAT."""
    h, w = img.shape[:2]
    raw = b"".join(b"\x00" + img[r].tobytes() for r in range(h))

    def chunk(typ: bytes, data: bytes) -> bytes:
        c = struct.pack(">I", len(data)) + typ + data
        return c + struct.pack(">I", zlib.crc32(typ + data) & 0xFFFFFFFF)

    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    return (b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", ihdr)
            + chunk(b"IDAT", zlib.compress(raw, 6)) + chunk(b"IEND", b""))


def decode_png(data: bytes, out: np.ndarray | None = None) -> np.ndarray:
    assert data[:8] == b"\x89PNG\r\n\x1a\n", "not a PNG"
    pos = 8
    w = h = None
    idat = []
    while pos < len(data):
        (ln,) = struct.unpack(">I", data[pos:pos + 4])
        typ = data[pos + 4:pos + 8]
        payload = data[pos + 8:pos + 8 + ln]
        if typ == b"IHDR":
            w, h, depth, ctype = struct.unpack(">IIBB", payload[:10])
            assert depth == 8 and ctype == 2, "only 8-bit RGB supported"
        elif typ == b"IDAT":
            idat.append(payload)
        elif typ == b"IEND":
            break
        pos += 12 + ln
    raw = zlib.decompress(b"".join(idat))
    stride = w * 3 + 1
    arr = np.frombuffer(raw, dtype=np.uint8).reshape(h, stride)
    filters = arr[:, 0]
    if out is None:
        # ascontiguousarray is the ONE (writable) copy; a plain reshape of the
        # non-contiguous slice copies too but inherits the read-only flag
        out = np.ascontiguousarray(arr[:, 1:]).reshape(h, w, 3)
    else:
        # caller-provided destination (a slice of a batch pixel buffer): the
        # single unfiltering copy writes straight into it — no extra pass
        assert out.shape == (h, w, 3)
        np.copyto(out.reshape(h, w * 3), arr[:, 1:])
    if filters.any():
        # we only emit filter 0; handle 1 (Sub) and 2 (Up) defensively —
        # the all-zero common case never enters this per-row loop
        for r in range(h):
            f = filters[r]
            if f == 0:
                continue
            if f == 1:
                row = out[r].reshape(-1)
                for c in range(3, row.size):
                    row[c] = (int(row[c]) + int(row[c - 3])) & 0xFF
            elif f == 2 and r > 0:
                out[r] = (out[r].astype(np.int16) + out[r - 1]).astype(np.uint8)
            else:
                raise NotImplementedError(f"PNG filter {f} not supported")
    return out


def encode_image(img: np.ndarray, fmt: str) -> bytes:
    if fmt == "raw":
        return img.tobytes()
    if fmt == "png":
        return encode_png(img)
    if fmt == "jpeg":
        # LOSSY: quality 98 keeps the roundtrip above the PSNR>=40 dB
        # invariant bar on the noisy synthetic imagery (measured 43 dB)
        from ..core.jpegio import encode_jpeg
        return encode_jpeg(img, quality=98)
    raise ValueError(f"unknown fmt {fmt}")


def decode_image(data, w: int, h: int, fmt: str,
                 out: np.ndarray | None = None) -> np.ndarray:
    """data: bytes or any buffer (zero-copy memoryview slices of an Arrow
    binary column work).  out: optional (h, w, 3) uint8 destination — decoding
    into a shared batch buffer saves a concatenation pass in the hot path."""
    if fmt == "raw":
        flat = np.frombuffer(data, dtype=np.uint8)
        if out is None:
            return flat.reshape(h, w, 3)
        np.copyto(out.reshape(-1), flat)
        return out
    if fmt == "png":
        img = decode_png(data, out=out)
        assert img.shape == (h, w, 3)
        return img
    if fmt == "jpeg":
        from ..core.jpegio import decode_jpeg
        img = decode_jpeg(bytes(data))
        assert img.shape == (h, w, 3)
        if out is not None:
            np.copyto(out, img)
            return out
        return img
    raise ValueError(f"unknown fmt {fmt}")


def binary_column_views(col) -> list:
    """Zero-copy memoryview slices of a (Large)Binary column's value buffer —
    replaces to_pylist() in the flagship hot path, where materializing ~8 MB
    of PyBytes per 625-image batch was pure extra memory traffic."""
    views = []
    chunks = col.chunks if isinstance(col, pa.ChunkedArray) else [col]
    for ch in chunks:
        if ch.null_count:            # nulls: fall back to the copying path
            views.extend(ch.to_pylist())
            continue
        bufs = ch.buffers()
        odt = np.int64 if pa.types.is_large_binary(ch.type) else np.int32
        offs = np.frombuffer(bufs[1], dtype=odt,
                             count=len(ch) + 1, offset=ch.offset * odt().nbytes)
        # cast to unsigned bytes: pa.Buffer exposes format 'b', whose
        # per-element comparisons against bytes literals are signed (wrong)
        data = memoryview(bufs[2]).cast("B")
        views.extend(data[offs[i]:offs[i + 1]] for i in range(len(ch)))
    return views


LOSSY_FMTS = {"jpeg"}
PSNR_MIN_DB = 40.0      # per-row invariant bar for lossy codecs (input_hint)


def psnr_db(a: np.ndarray, b: np.ndarray) -> float:
    mse = ((a.astype(np.float64) - b.astype(np.float64)) ** 2).mean()
    return float(10 * np.log10(255.0 ** 2 / mse)) if mse > 0 else 99.0


def iter_verify_rows(b):
    """Decode an image-table batch's columns ONCE and yield per row
    (k, img_index, decoded_img, w, h, caption_ok) — the shared front half of
    every per-row invariant check (the back halves differ: exact pixels +
    phash for lossless formats, PSNR for lossy).  Keeps the caption format
    and id parsing in ONE place, next to the writer that produces them."""
    ids = b.column("image_id").to_pylist()
    blobs = b.column("bytes").to_pylist()
    ws = b.column("w").to_numpy()
    hs = b.column("h").to_numpy()
    fmts = b.column("fmt").to_pylist()
    caps = b.column("caption").to_pylist()
    lon_c = (b.column("lon_min").to_numpy()
             + b.column("lon_max").to_numpy()) / 2
    lat_c = (b.column("lat_min").to_numpy()
             + b.column("lat_max").to_numpy()) / 2
    for k in range(b.num_rows):
        i = int(ids[k][3:])
        img = decode_image(blobs[k], int(ws[k]), int(hs[k]), fmts[k])
        cap_ok = caps[k] == (f"caption for img{i} at "
                             f"({lon_c[k]:.4f},{lat_c[k]:.4f})")
        yield k, i, img, int(ws[k]), int(hs[k]), cap_ok


def ensure_jpeg_table(n: int = 500, root: str = "/tmp/dggsray_cache") -> str:
    """A small JPEG-encoded variant of the image table (same deterministic
    pixels/captions/footprints, fmt='jpeg') for the lossy-codec invariant
    path.  Separate from the headline table: the pure-python baseline decode
    costs ~100 ms per 64x64 image, so lossy rows ride a dedicated table
    instead of taxing the throughput benchmark."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    path = os.path.join(root, f"images_jpeg_v2_n{n}")
    if os.path.exists(os.path.join(path, "_SUCCESS")):
        return path
    os.makedirs(path, exist_ok=True)
    t = synth_batch(pa.table({"id": pa.array(np.arange(n), "int64")}),
                    fmt_override="jpeg")
    pq.write_table(t, os.path.join(path, "part-0.parquet"))
    open(os.path.join(path, "_SUCCESS"), "w").close()
    return path


def footprints(idx: np.ndarray):
    """Deterministic lon/lat bbox per image index (vectorized)."""
    i = np.asarray(idx, dtype=np.float64)
    u1 = (i * _G1) % 1.0
    u2 = (i * _G2) % 1.0
    lon = -180.0 + 360.0 * u1
    lat = np.degrees(np.arcsin(2.0 * u2 - 1.0))   # area-uniform on the sphere
    clustered = (np.asarray(idx) % 10) < 3
    lon = np.where(clustered, _CLUSTER_LON + (u1 - 0.5) * _CLUSTER_JITTER, lon)
    lat = np.where(clustered, _CLUSTER_LAT + (u2 - 0.5) * _CLUSTER_JITTER, lat)
    w = _WS[np.asarray(idx) % 3]
    half = 0.02 * (w / 32.0)
    # clamp away from poles/antimeridian so footprints stay well-formed
    lat = np.clip(lat, -84.0, 84.0)
    lon = np.clip(lon, -179.5, 179.5)
    return lon - half, lat - half, lon + half, lat + half


def synth_batch(batch: "pa.Table", fmt_override: str | None = None) -> pa.Table:
    """Ray map_batches kernel: {'id': int64} -> full image-table rows."""
    idx = batch.column("id").to_numpy()
    n = len(idx)
    ws = _WS[idx % 3]
    hs = _HS[idx % 3]
    lon_min, lat_min, lon_max, lat_max = footprints(idx)
    ids, blobs, fmts, caps, hashes = [], [], [], [], np.empty(n, dtype=np.int64)
    for k in range(n):
        i = int(idx[k])
        img = _pixels(i, int(ws[k]), int(hs[k]))
        fmt = fmt_override or _FMTS[i % 2]
        ids.append(f"img{i:08d}")
        blobs.append(encode_image(img, fmt))
        fmts.append(fmt)
        clon = (lon_min[k] + lon_max[k]) / 2
        clat = (lat_min[k] + lat_max[k]) / 2
        caps.append(f"caption for img{i} at ({clon:.4f},{clat:.4f})")
        hashes[k] = average_phash(img)
    return pa.table({
        "image_id": pa.array(ids, pa.string()),
        "bytes": pa.array(blobs, pa.binary()),
        "w": pa.array(ws, pa.int32()),
        "h": pa.array(hs, pa.int32()),
        "fmt": pa.array(fmts, pa.string()),
        "caption": pa.array(caps, pa.string()),
        "phash": pa.array(hashes, pa.int64()),
        "lon_min": pa.array(lon_min, pa.float64()),
        "lat_min": pa.array(lat_min, pa.float64()),
        "lon_max": pa.array(lon_max, pa.float64()),
        "lat_max": pa.array(lat_max, pa.float64()),
    })


def image_table_path(sf: float, root: str = "/tmp/dggsray_cache") -> str:
    # v3: noise generator changed (uint32 counter hash) — new cache key so a
    # stale cached table can never fail the pixel invariant
    return os.path.join(root, f"images_v3_sf{sf}")


def ensure_image_table(sf: float, root: str = "/tmp/dggsray_cache",
                       parallelism: int = 16) -> str:
    """Synthesize (once, cached) the image table for a scale factor; returns the
    parquet directory.  Runs as a Ray pipeline; deterministic independent of
    parallelism because every row depends only on its index."""
    import ray.data as rd

    path = image_table_path(sf, root)
    done = os.path.join(path, "_SUCCESS")
    if os.path.exists(done):
        return path
    n = n_images_for_sf(sf)
    ds = rd.range(n, override_num_blocks=max(parallelism, n // 800 + 1))
    ds = ds.map_batches(synth_batch, batch_format="pyarrow", batch_size=1024)
    os.makedirs(path, exist_ok=True)
    ds.write_parquet(path)
    with open(done, "w") as f:
        f.write("ok")
    return path

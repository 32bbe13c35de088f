"""Whole-raster warp: geographic raster -> aligned rHEALPix raster.

Re-expression of the reference's raster_to_rhealpix chain
(/root/reference/dggstools/rhpx/raster_to_rhpx.py:134-194 + 20-130):
resolution inference (projected: min pixel size; geographic: geodesic diagonal
estimate), RescalingStrategy snap, calculate-transform + vertex-snap alignment,
right-edge clamp for geographic inputs, nearest/bilinear resampling, n_side tag
on the output.

CRS support: geographic WGS84, the rHEALPix plane itself, and UTM zones
("utm:30N" / "epsg:326xx/327xx") via the pure-numpy Krüger series in
core.tmerc — the reference's canonical projected-in-meters input path
(raster_to_rhpx.py:58-77 via rasterio/PROJ) without a PROJ database.
Resampling: nearest, bilinear, cubic (4x4 Keys kernel, a=-0.5 — GDAL/rasterio
`Resampling.cubic` semantics), cubic_spline (approximating uniform B-spline),
lanczos (6x6 windowed sinc, a=3 — GDAL/rasterio `Resampling.lanczos`);
`scale_raster` additionally takes average / mode (area block reduce on
downscales).  The warp runs tiled over destination rows so memory stays
bounded regardless of output size.
"""
from __future__ import annotations

import enum
import math
import re

import numpy as np

from ..core.geodesy import get_geodesic_size
from ..core.rhpx import (DEFAULT_GRID, GridConfig, align_point, project_fwd,
                         project_inv, project_inv_lattice)
from ..core.raster import open_raster
from ..core.tiffio import GeoTiff, epsg_from_geokeys, read_geotiff, write_geotiff
from ..core.conformal import is_webmerc, parse_lcc_crs
from ..core.tmerc import parse_utm_crs, utm_fwd, utm_inv


# destination-cell count above which the warps fan row chunks out to Ray
# tasks (below it, single-process is lower-latency); tests patch this down
_DIST_WARP_MIN_CELLS = 4_000_000


def _fill_chunked(out: np.ndarray, src: np.ndarray, chunk_vals,
                  nrows: int, ncols: int, row_chunk: int):
    """Fill `out[:, r0:r1, :]` for every destination row chunk, distributing
    over plain Ray tasks when the output is large and a Ray session exists.
    The source raster goes to the object store ONCE and reaches each task
    as a top-level argument (a zero-copy numpy view, resolved before the
    task starts, so no task blocks in `ray.get`); `chunk_vals(src, r0, r1)`
    must be a pure function shipped by closure.  The driver assembles
    chunks into the single-file GeoTIFF (inherent to that output format;
    the partitioned scale path is tiles_to_cells -> parquet)."""
    starts = list(range(0, nrows, row_chunk))
    use_ray = False
    if len(starts) > 1 and ncols * nrows >= _DIST_WARP_MIN_CELLS:
        try:                      # distribute only inside an existing session
            import ray
            use_ray = ray.is_initialized()
        except ImportError:
            pass
    if not use_ray:
        for r0 in starts:
            r1 = min(r0 + row_chunk, nrows)
            out[:, r0:r1, :] = chunk_vals(src, r0, r1)
        return

    import ray

    from .joins import _remote

    src_ref, fn_ref = ray.put(src), ray.put(chunk_vals)
    task = _remote(_chunk_task)
    refs = [task.remote(fn_ref, src_ref, r0, min(r0 + row_chunk, nrows))
            for r0 in starts]
    for r0, ref in zip(starts, refs):
        out[:, r0:r0 + row_chunk, :] = ray.get(ref)


def _chunk_task(chunk_vals, src: np.ndarray, r0: int, r1: int) -> np.ndarray:
    """Task: one destination row chunk of a warp."""
    return chunk_vals(src, r0, r1)


class RescalingStrategy(enum.Enum):
    TO_HIGHER = "higher"
    TO_LOWER = "lower"
    TO_CLOSEST = "closest"


def _is_utm(crs: str) -> bool:
    try:
        parse_utm_crs(crs)
        return True
    except ValueError:
        return False


def _is_lcc(crs: str) -> bool:
    try:
        parse_lcc_crs(crs)
        return True
    except ValueError:
        return False


def _auto_crs(g: GeoTiff, input_path: str):
    """(crs_name, AlbersParams | None) detected from the file's own metadata,
    mirroring how the reference takes the CRS straight from the opened file.
    Detection chain: HFA Eprj_ProParameters (Albers) -> GeoTIFF GeoKeys EPSG
    -> PAM/world-file UTM -> the engine's own rhealpix tags -> GDAL_METADATA
    crs item -> geographic default.

    An unresolvable GeoKeys entry falls THROUGH the chain rather than erroring
    (the directory may be empty or carry only an unknown geographic datum,
    where the geographic default is the right call) — except when it names a
    projected CRS outside the supported families, which would warp to garbage
    under any fallback and so errors explicitly."""
    proj = g.tags.get("proj")
    if proj is not None and "Albers" in proj.get("name", ""):
        from ..core.albers import AlbersParams
        return "albers", AlbersParams.from_hfa(proj)
    gk = g.tags.get("geokeys") or {}
    detected = epsg_from_geokeys(gk)
    if detected is not None:
        return detected, None
    if "utm" in g.tags:
        zone, north = g.tags["utm"]
        return f"utm:{zone}{'N' if north else 'S'}", None
    if "n_side" in g.tags.get("GDAL_METADATA", ""):
        return "rhealpix", None           # the engine's own warp outputs
    # the engine's own reproject_raster outputs carry a crs item
    m = re.search(r'<Item name="crs">([^<]+)</Item>',
                  g.tags.get("GDAL_METADATA", ""))
    if m:
        return m.group(1), None
    code = gk.get(3072)
    if code and code != 32767:            # 32767 = user-defined, no info
        raise ValueError(
            f"{input_path}: GeoKeys carry projected EPSG:{code}, outside the "
            f"supported families — pass input_crs explicitly")
    return "geographic", None


def infer_resolution_idx(g: GeoTiff, crs: str, grid: GridConfig,
                         strategy: RescalingStrategy) -> int:
    """Reference raster_to_rhpx.py:156-190 semantics (projected-in-meters
    inputs use their native pixel size; geographic uses the geodesic
    estimate)."""
    if crs != "geographic":
        # any projected-in-meters CRS uses its native pixel size (reference
        # raster_to_rhpx.py:156-163: `if not crs.is_geographic`)
        best = min(abs(g.res_x), abs(g.res_y))
    else:
        right = g.left + g.data.shape[2] * g.res_x
        bottom = g.top - g.data.shape[1] * g.res_y
        _, best = get_geodesic_size(g.left, g.top, right, bottom,
                                    g.data.shape[2], g.data.shape[1])
    if strategy == RescalingStrategy.TO_HIGHER:
        return grid.get_closest_higher_resolution(best)[0]
    if strategy == RescalingStrategy.TO_LOWER:
        return grid.get_closest_lower_resolution(best)[0]
    return grid.get_closest_resolution(best)[0]


def _cubic_weights(t: np.ndarray) -> np.ndarray:
    """(n, 4) Keys cubic-convolution weights, a=-0.5 (GDAL/rasterio cubic):
    tap offsets -1..2 relative to floor(coord-0.5)."""
    a = -0.5
    d = np.empty((t.shape[0], 4), dtype=np.float64)
    d[:, 0] = 1.0 + t          # |distance| to tap -1
    d[:, 1] = t
    d[:, 2] = 1.0 - t
    d[:, 3] = 2.0 - t
    ad = np.abs(d)
    w = np.where(ad <= 1.0,
                 (a + 2.0) * ad**3 - (a + 3.0) * ad**2 + 1.0,
                 a * (ad**3 - 5.0 * ad**2 + 8.0 * ad - 4.0))
    return np.where(ad < 2.0, w, 0.0)


def _bspline_weights(t: np.ndarray) -> np.ndarray:
    """(n, 4) uniform cubic B-spline weights (GDAL/rasterio
    Resampling.cubic_spline): same -1..2 taps as Keys cubic but an
    APPROXIMATING kernel — smooths instead of interpolating, constants are
    preserved (partition of unity)."""
    d = np.empty((t.shape[0], 4), dtype=np.float64)
    d[:, 0] = 1.0 + t
    d[:, 1] = t
    d[:, 2] = 1.0 - t
    d[:, 3] = 2.0 - t
    ad = np.abs(d)
    w = np.where(ad <= 1.0,
                 2.0 / 3.0 - ad**2 + 0.5 * ad**3,
                 (2.0 - ad) ** 3 / 6.0)
    return np.where(ad < 2.0, w, 0.0)


def _lanczos_weights(t: np.ndarray) -> np.ndarray:
    """(n, 6) Lanczos a=3 weights (GDAL/rasterio Resampling.lanczos): tap
    offsets -2..3 relative to floor(coord-0.5), normalized to unit sum (the
    windowed sinc does not sum to 1 exactly, GDAL normalizes)."""
    k = np.arange(-2.0, 4.0)
    d = t[:, None] - k[None, :]
    pd = np.pi * d
    with np.errstate(invalid="ignore", divide="ignore"):
        w = np.where(np.abs(d) < 1e-12, 1.0,
                     3.0 * np.sin(pd) * np.sin(pd / 3.0) / (pd * pd))
    w[np.abs(d) >= 3.0] = 0.0
    return w / w.sum(axis=1, keepdims=True)


def resample_grid(data: np.ndarray, fc: np.ndarray, fr: np.ndarray,
                  resampling: str, src_nd, dst_nd) -> np.ndarray:
    """Sample (nbands, H, W) `data` at fractional pixel coords (fc, fr) —
    fc/fr in pixel units where integer k spans pixel [k, k+1).  Out-of-bounds
    (and, for nearest, src-nodata) points get dst_nd.  Returns
    (nbands, n) in the source dtype.  nearest / bilinear / cubic (Keys 4x4,
    a=-0.5 — rasterio Resampling.cubic) / cubic_spline (B-spline 4x4,
    approximating) / lanczos (6x6 windowed sinc, a=3 — rasterio
    Resampling.lanczos)."""
    nbands, H, W = data.shape
    n = fc.shape[0]
    out = np.full((nbands, n), dst_nd, dtype=data.dtype)
    if resampling == "nearest":
        sc = np.floor(fc).astype(np.int64)
        sr = np.floor(fr).astype(np.int64)
        ok = (sc >= 0) & (sc < W) & (sr >= 0) & (sr < H)
        v = data.reshape(nbands, H * W)[:, sr[ok] * W + sc[ok]]
        if src_nd is not None:
            v = np.where(v == src_nd, np.asarray(dst_nd).astype(data.dtype), v)
        out[:, ok] = v
        return out
    if resampling == "bilinear":
        x0 = np.floor(fc - 0.5).astype(np.int64)
        y0 = np.floor(fr - 0.5).astype(np.int64)
        wx = (fc - 0.5) - x0
        wy = (fr - 0.5) - y0
        ok = (x0 >= 0) & (x0 + 1 < W) & (y0 >= 0) & (y0 + 1 < H)
        xo, yo, wxo, wyo = x0[ok], y0[ok], wx[ok], wy[ok]
        for b in range(nbands):
            a00 = data[b, yo, xo].astype(np.float64)
            a01 = data[b, yo, xo + 1].astype(np.float64)
            a10 = data[b, yo + 1, xo].astype(np.float64)
            a11 = data[b, yo + 1, xo + 1].astype(np.float64)
            out[b, ok] = (a00 * (1 - wxo) * (1 - wyo) + a01 * wxo * (1 - wyo)
                          + a10 * (1 - wxo) * wyo + a11 * wxo * wyo) \
                .astype(data.dtype)
        return out
    if resampling in ("cubic", "cubic_spline", "lanczos"):
        R = 3 if resampling == "lanczos" else 2   # kernel radius -> 2R taps
        wfn = {"cubic": _cubic_weights, "cubic_spline": _bspline_weights,
               "lanczos": _lanczos_weights}[resampling]
        x0 = np.floor(fc - 0.5).astype(np.int64)
        y0 = np.floor(fr - 0.5).astype(np.int64)
        tx = (fc - 0.5) - x0
        ty = (fr - 0.5) - y0
        ok = (x0 - (R - 1) >= 0) & (x0 + R < W) \
            & (y0 - (R - 1) >= 0) & (y0 + R < H)
        xo, yo = x0[ok], y0[ok]
        wxk = wfn(tx[ok])
        wyk = wfn(ty[ok])
        for b in range(nbands):
            acc = np.zeros(xo.shape[0], dtype=np.float64)
            for dy in range(-(R - 1), R + 1):
                rowv = np.zeros(xo.shape[0], dtype=np.float64)
                for dx in range(-(R - 1), R + 1):
                    rowv += wxk[:, dx + R - 1] \
                        * data[b, yo + dy, xo + dx].astype(np.float64)
                acc += wyk[:, dy + R - 1] * rowv
            if np.issubdtype(data.dtype, np.integer):
                info = np.iinfo(data.dtype)
                acc = np.clip(np.rint(acc), info.min, info.max)
            out[b, ok] = acc.astype(data.dtype)
        return out
    raise ValueError(f"unsupported resampling {resampling!r}")


# one-slot per-process memo for the summed-area tables: the driver fill loop
# (and each Ray warp task) calls resample_grid_average once per row chunk on
# the SAME source array, so the O(H*W) prefix sums build once, not per chunk
_SAT_MEMO: dict = {}


def _sats(data: np.ndarray, src_nd):
    key = (data.__array_interface__["data"][0], data.shape, str(src_nd))
    hit = _SAT_MEMO.get("k") == key
    if not hit:
        nbands, H, W = data.shape
        if src_nd is not None:
            valid = data != src_nd
            vals = np.where(valid, data, 0).astype(np.float64)
        else:
            valid = np.ones(data.shape, dtype=np.float64)
            vals = data.astype(np.float64)
        sat = np.zeros((nbands, H + 1, W + 1), dtype=np.float64)
        np.cumsum(np.cumsum(vals, axis=1), axis=2, out=sat[:, 1:, 1:])
        vsat = np.zeros((nbands, H + 1, W + 1), dtype=np.float64)
        np.cumsum(np.cumsum(valid.astype(np.float64), axis=1), axis=2,
                  out=vsat[:, 1:, 1:])
        _SAT_MEMO.clear()
        _SAT_MEMO["k"] = key
        _SAT_MEMO["v"] = (sat, vsat)
    return _SAT_MEMO["v"]


def _sat_at(sat: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Bilinear sample of one band's SAT at continuous coords — EXACT
    cumulative integral of the piecewise-constant image (the integral
    function of a pixel grid is piecewise bilinear)."""
    H, W = sat.shape[0] - 1, sat.shape[1] - 1
    x0 = np.clip(np.floor(x).astype(np.int64), 0, W - 1)
    y0 = np.clip(np.floor(y).astype(np.int64), 0, H - 1)
    tx = x - x0
    ty = y - y0
    return (sat[y0, x0] * (1 - tx) * (1 - ty)
            + sat[y0, x0 + 1] * tx * (1 - ty)
            + sat[y0 + 1, x0] * (1 - tx) * ty
            + sat[y0 + 1, x0 + 1] * tx * ty)


def resample_grid_average(data: np.ndarray, fc: np.ndarray, fr: np.ndarray,
                          bw: np.ndarray, bh: np.ndarray,
                          src_nd, dst_nd) -> np.ndarray:
    """Area-weighted average resample (GDAL Resampling.average upgraded to
    EXACT fractional-pixel overlap): destination point i takes the mean of
    the source image over the axis-aligned box of extent (bw[i], bh[i])
    source-pixel units centered at (fc[i], fr[i]), each source pixel
    weighted by its exact overlap area with the box — the north-star's
    'area-weighted resampling'.  Implementation: two summed-area tables
    (values with nodata zeroed, and the valid mask); the box integral of a
    piecewise-constant image is an exact 4-corner bilinear read of its SAT,
    so per point this is O(1) regardless of how many source pixels the box
    covers.  Boxes clip to the raster; points whose clipped box covers no
    valid area get dst_nd.  Degenerate (sub-pixel) boxes reduce to the
    containing pixel's value.  Treats the inverse mapping as locally
    axis-aligned (first-order for curved CRSs, exact for scale warps)."""
    nbands = data.shape[0]
    H, W = data.shape[1], data.shape[2]
    n = fc.shape[0]
    out = np.full((nbands, n), dst_nd, dtype=data.dtype)
    eps = 1e-9
    x0 = np.clip(fc - np.maximum(bw, eps) / 2, 0.0, float(W))
    x1 = np.clip(fc + np.maximum(bw, eps) / 2, 0.0, float(W))
    y0 = np.clip(fr - np.maximum(bh, eps) / 2, 0.0, float(H))
    y1 = np.clip(fr + np.maximum(bh, eps) / 2, 0.0, float(H))
    ok = (x1 > x0) & (y1 > y0)
    # boxes spanning at most 2x2 source pixels get the exact 4-term
    # weighted mean directly: the SAT difference of a tiny box cancels
    # catastrophically (prefix sums are large, the box integral is tiny),
    # and sub-source-pixel boxes are exactly the regime where dest pixels
    # are no coarser than source pixels
    c0 = np.floor(x0).astype(np.int64)
    r0 = np.floor(y0).astype(np.int64)
    small = ok & (np.ceil(x1) - c0 <= 2) & (np.ceil(y1) - r0 <= 2)
    boxed = ok & ~small
    sat, vsat = _sats(data, src_nd)
    xo0, xo1, yo0, yo1 = x0[boxed], x1[boxed], y0[boxed], y1[boxed]
    is_int = np.issubdtype(data.dtype, np.integer)
    info = np.iinfo(data.dtype) if is_int else None
    # small-path geometry (shared across bands)
    cs = np.clip(c0[small], 0, W - 1)
    rs = np.clip(r0[small], 0, H - 1)
    cs1 = np.minimum(cs + 1, W - 1)
    rs1 = np.minimum(rs + 1, H - 1)
    wx0 = np.clip(np.minimum(x1[small], cs + 1) - x0[small], 0, None)
    wx1 = np.clip(x1[small] - (cs + 1), 0, None)
    wy0 = np.clip(np.minimum(y1[small], rs + 1) - y0[small], 0, None)
    wy1 = np.clip(y1[small] - (rs + 1), 0, None)
    nd_out = np.asarray(dst_nd).astype(data.dtype)
    for b in range(nbands):
        s = (_sat_at(sat[b], xo1, yo1) - _sat_at(sat[b], xo0, yo1)
             - _sat_at(sat[b], xo1, yo0) + _sat_at(sat[b], xo0, yo0))
        va = (_sat_at(vsat[b], xo1, yo1) - _sat_at(vsat[b], xo0, yo1)
              - _sat_at(vsat[b], xo1, yo0) + _sat_at(vsat[b], xo0, yo0))
        box_area = (xo1 - xo0) * (yo1 - yo0)
        has = va > box_area * 1e-12
        mean = np.divide(s, va, out=np.full(s.shape, float(dst_nd)),
                         where=has)
        if is_int:
            mean = np.clip(np.rint(mean), info.min, info.max)
        vals = mean.astype(data.dtype)
        out[b, boxed] = np.where(has, vals, nd_out)
        # exact 4-term weighted mean for the small path
        acc = np.zeros(cs.shape[0], dtype=np.float64)
        area = np.zeros(cs.shape[0], dtype=np.float64)
        for rr, wy in ((rs, wy0), (rs1, wy1)):
            for cc, wx in ((cs, wx0), (cs1, wx1)):
                v = data[b, rr, cc].astype(np.float64)
                w = wx * wy
                if src_nd is not None:
                    w = np.where(data[b, rr, cc] == src_nd, 0.0, w)
                acc += w * v
                area += w
        hs = area > 0
        m = np.divide(acc, area, out=np.full(acc.shape, float(dst_nd)),
                      where=hs)
        if is_int:
            m = np.clip(np.rint(m), info.min, info.max)
        out[b, small] = np.where(hs, m.astype(data.dtype), nd_out)
    return out


def _grid_box_sizes(fc: np.ndarray, fr: np.ndarray, rows: int, cols: int):
    """Per-point destination-footprint extents in source pixel units, from
    finite differences of the inverse-mapped coordinate grid (captures the
    spatially varying anisotropic stretch of curved CRSs).  Single-row /
    single-column chunks fall back to the other axis's spacing."""
    FC = fc.reshape(rows, cols)
    FR = fr.reshape(rows, cols)
    if cols >= 2:
        bw = np.abs(np.gradient(FC, axis=1))
    else:
        bw = np.abs(np.gradient(FR, axis=0)) if rows >= 2 \
            else np.ones((rows, cols))
    if rows >= 2:
        bh = np.abs(np.gradient(FR, axis=0))
    else:
        bh = bw
    return bw.ravel(), bh.ravel()


def raster_to_rhealpix(input_path: str, output_path: str,
                       grid: GridConfig = DEFAULT_GRID,
                       dst_resolution_idx: int = -1,
                       rescaling_strategy: RescalingStrategy = RescalingStrategy.TO_CLOSEST,
                       input_crs: str = "geographic",
                       resampling: str = "nearest",
                       src_nodata=None, dst_nodata=None,
                       row_chunk: int = 1024) -> int:
    """Returns the destination resolution index (reference contract)."""
    from ..core.conformal import is_pstereo, is_sinu
    if input_crs not in ("geographic", "rhealpix", "auto", "albers") \
            and not _is_utm(input_crs) and not is_webmerc(input_crs) \
            and not _is_lcc(input_crs) and not is_pstereo(input_crs) \
            and not is_sinu(input_crs):
        raise ValueError(
            f"unsupported input CRS {input_crs!r}: geographic | rhealpix | "
            f"utm:NNh | epsg:326NN/327NN | albers | webmerc/epsg:3857 | "
            f"lcc:lat1,lat2,lat0,lon0[,fe,fn] | epsg:3413/3031 | ups:N/S | "
            f"pstereo:lat_ts,lon0[,fe,fn] | sinu | auto")
    g = open_raster(input_path)
    albers = None
    if input_crs == "auto":
        input_crs, albers = _auto_crs(g, input_path)
    elif input_crs == "albers":
        detected, albers = _auto_crs(g, input_path)
        if albers is None:
            raise ValueError(f"{input_path}: no Albers parameters in file")
    if dst_resolution_idx == -1:
        dst_resolution_idx = infer_resolution_idx(g, input_crs, grid,
                                                  rescaling_strategy)
    cw = grid.cell_width(dst_resolution_idx)
    nbands, H, W = g.data.shape
    right = g.left + W * g.res_x
    bottom = g.top - H * g.res_y
    if input_crs == "geographic":
        # right-edge clamp (reference raster_to_rhpx.py:63-68)
        right = min(right, 180.0 - 1e-1)
    set_src_nd = g.nodata if src_nodata is None else src_nodata
    set_dst_nd = g.nodata if dst_nodata is None else dst_nodata
    if set_dst_nd is None:
        set_dst_nd = 0

    # (fwd, inv) through the lonlat hub for any projected-in-meters input
    pfwd = pinv = None
    if input_crs not in ("geographic", "rhealpix"):
        pfwd, pinv = _crs_funcs(input_crs, grid, albers)

    # destination bbox: project a boundary sample of the source extent
    if input_crs != "rhealpix":
        n = 64
        bx = np.concatenate([np.linspace(g.left, right, n),
                             np.linspace(g.left, right, n),
                             np.full(n, g.left), np.full(n, right)])
        by = np.concatenate([np.full(n, g.top), np.full(n, bottom),
                             np.linspace(bottom, g.top, n),
                             np.linspace(bottom, g.top, n)])
        if pinv is not None:
            bx, by = pinv(bx, by)
        px, py = project_fwd(bx, by, grid)
    else:
        px = np.array([g.left, right, g.left, right])
        py = np.array([g.top, g.top, bottom, bottom])
    dleft, dtop = align_point(px.min(), py.max(), dst_resolution_idx, grid)
    ncols = max(1, math.ceil((px.max() - dleft) / cw))
    nrows = max(1, math.ceil((dtop - py.min()) / cw))
    if ncols * nrows > 200_000_000:
        raise ValueError(f"destination raster {nrows}x{ncols} too large")

    # plain scalars only — chunk_vals is shipped to Ray tasks and must NOT
    # close over `g` (that would pickle the full source array per task,
    # defeating the one-time ray.put broadcast)
    s_left, s_top, s_rx, s_ry = g.left, g.top, g.res_x, g.res_y

    def chunk_vals(src: np.ndarray, r0: int, r1: int) -> np.ndarray:
        xs = dleft + (np.arange(ncols) + 0.5) * cw
        ys = dtop - (np.arange(r0, r1) + 0.5) * cw
        if input_crs == "rhealpix":
            lon, lat = (a.ravel() for a in np.meshgrid(xs, ys))
        else:
            lon, lat = (a.ravel() for a in project_inv_lattice(xs, ys, grid))
            if pfwd is not None:
                lon, lat = pfwd(lon, lat)
        fc = (lon - s_left) / s_rx
        fr = (s_top - lat) / s_ry
        if resampling == "average":
            bw, bh = _grid_box_sizes(fc, fr, r1 - r0, ncols)
            vals = resample_grid_average(src, fc, fr, bw, bh,
                                         set_src_nd, set_dst_nd)
        else:
            vals = resample_grid(src, fc, fr, resampling,
                                 set_src_nd, set_dst_nd)
        return vals.reshape(nbands, r1 - r0, ncols)

    out = np.full((nbands, nrows, ncols), set_dst_nd, dtype=g.data.dtype)
    _fill_chunked(out, g.data, chunk_vals, nrows, ncols, row_chunk)

    write_geotiff(output_path, GeoTiff(
        out, dleft, dtop, cw, cw, nodata=set_dst_nd,
        tags={"GDAL_METADATA": f'<GDALMetadata><Item name="n_side">'
                               f'{grid.n_side}</Item></GDALMetadata>'}))
    return dst_resolution_idx


def scale_raster(input_path: str, output_path: str, scale_x: float,
                 scale_y: float | None = None, resampling: str = "nearest"):
    """Resample by scale factors (reference rasterutils.py:68-119 semantics:
    ceil output shape, rescaled transform)."""
    if scale_y is None:
        scale_y = scale_x
    g = open_raster(input_path)
    nbands, H, W = g.data.shape
    oh, ow = math.ceil(H * scale_y), math.ceil(W * scale_x)
    if resampling == "nearest":
        rr = (np.arange(oh) * (H / oh)).astype(np.int64)
        cc = (np.arange(ow) * (W / ow)).astype(np.int64)
        out = g.data[:, rr][:, :, cc]
    elif resampling in ("average", "mode") and oh <= H and ow <= W:
        # area resample for downscales (GDAL Resampling.average / .mode):
        # each dest pixel takes the mean / most-common value of the source
        # pixels whose centers fall in its footprint
        edges_r = np.minimum((np.arange(oh + 1) * (H / oh)).astype(np.int64), H)
        edges_c = np.minimum((np.arange(ow + 1) * (W / ow)).astype(np.int64), W)
        if resampling == "average":
            # vectorized block mean via reduceat (edges strictly increase
            # because H/oh >= 1 and W/ow >= 1); nodata pixels are EXCLUDED
            # from the mean (GDAL Resampling.average), all-nodata blocks
            # stay nodata
            data = g.data.astype(np.float64)
            if g.nodata is not None:
                valid = g.data != g.nodata
                data = np.where(valid, data, 0.0)
            else:
                valid = np.ones(g.data.shape, dtype=bool)
            s = np.add.reduceat(data, edges_r[:-1], axis=1)
            s = np.add.reduceat(s, edges_c[:-1], axis=2)
            nv = np.add.reduceat(valid.astype(np.int64), edges_r[:-1], axis=1)
            nv = np.add.reduceat(nv, edges_c[:-1], axis=2)
            with np.errstate(invalid="ignore"):
                acc = s / np.maximum(nv, 1)
            if np.issubdtype(g.data.dtype, np.integer):
                acc = np.rint(acc)
            if g.nodata is not None:
                acc = np.where(nv == 0, g.nodata, acc)
            out = acc.astype(g.data.dtype)
        else:
            out = np.empty((nbands, oh, ow), dtype=g.data.dtype)
            for i in range(oh):
                r0, r1 = edges_r[i], edges_r[i + 1]
                for j in range(ow):
                    blk = g.data[:, r0:r1, edges_c[j]:edges_c[j + 1]] \
                        .reshape(nbands, -1)
                    for b in range(nbands):
                        vals, c = np.unique(blk[b], return_counts=True)
                        out[b, i, j] = vals[np.argmax(c)]
    else:
        # center-mapped interpolating resample (bilinear / cubic /
        # cubic_spline / lanczos; average/mode on an UPSCALE degrade to
        # bilinear, matching GDAL's one-source-pixel-per-dest behavior)
        if resampling in ("average", "mode"):
            resampling = "bilinear"
        pad = {"cubic": 1.5, "cubic_spline": 1.5,
               "lanczos": 2.5}.get(resampling, 0.5)
        nd = g.nodata
        nd_fill = nd if nd is not None else 0

        def chunk_vals(src: np.ndarray, r0: int, r1: int) -> np.ndarray:
            jj, ii = np.meshgrid(np.arange(ow), np.arange(r0, r1))
            fc = (jj.ravel() + 0.5) * (W / ow)
            fr = (ii.ravel() + 0.5) * (H / oh)
            # clamp so edge samples stay inside the interpolation support
            fc = np.clip(fc, pad, W - pad - 1e-9)
            fr = np.clip(fr, pad, H - pad - 1e-9)
            return resample_grid(src, fc, fr, resampling, nd, nd_fill) \
                .reshape(nbands, r1 - r0, ow)

        out = np.empty((nbands, oh, ow), dtype=g.data.dtype)
        _fill_chunked(out, g.data, chunk_vals, oh, ow, row_chunk=1024)
    write_geotiff(output_path, GeoTiff(
        out, g.left, g.top, g.res_x * (W / ow), g.res_y * (H / oh),
        nodata=g.nodata, tags=g.tags))


def scale_raster_to_desired_res(input_path: str, output_path: str,
                                desired_res_x: float,
                                desired_res_y: float | None = None,
                                resampling: str = "nearest"):
    """Re-scale so the output has the given cell size (reference
    rasterutils.py:54-66: scale factors = current res / desired res; our
    res_y is stored positive so no sign flip is needed)."""
    if desired_res_y is None:
        desired_res_y = desired_res_x
    g = open_raster(input_path)
    scale_raster(input_path, output_path, g.res_x / desired_res_x,
                 g.res_y / desired_res_y, resampling)


def _crs_funcs(name: str, grid: GridConfig, albers_params=None):
    """(fwd, inv) pair for a named CRS: fwd maps lonlat -> CRS xy, inv maps
    CRS xy -> lonlat.  Geographic is the identity hub every pair routes
    through."""
    if name == "geographic":
        ident = lambda a, b: (np.asarray(a, dtype=np.float64),
                              np.asarray(b, dtype=np.float64))
        return ident, ident
    if name == "rhealpix":
        return (lambda lon, lat: project_fwd(lon, lat, grid),
                lambda x, y: project_inv(x, y, grid))
    if _is_utm(name):
        z = parse_utm_crs(name)
        return (lambda lon, lat: utm_fwd(lon, lat, *z),
                lambda x, y: utm_inv(x, y, *z))
    if name == "albers":
        if albers_params is None:
            raise ValueError("albers CRS needs parameters (only available "
                             "from a source file carrying them)")
        from ..core.albers import albers_fwd, albers_inv
        return (lambda lon, lat: albers_fwd(lon, lat, albers_params),
                lambda x, y: albers_inv(x, y, albers_params))
    if is_webmerc(name):
        from ..core.conformal import webmerc_fwd, webmerc_inv
        return webmerc_fwd, webmerc_inv
    if _is_lcc(name):
        from ..core.conformal import lcc_fwd, lcc_inv
        P = parse_lcc_crs(name)
        return (lambda lon, lat: lcc_fwd(lon, lat, P),
                lambda x, y: lcc_inv(x, y, P))
    from ..core.conformal import is_pstereo, is_sinu
    if is_pstereo(name):
        from ..core.conformal import parse_pstereo_crs, pstereo_fwd, pstereo_inv
        P = parse_pstereo_crs(name)
        return (lambda lon, lat: pstereo_fwd(lon, lat, P),
                lambda x, y: pstereo_inv(x, y, P))
    if is_sinu(name):
        from ..core.conformal import sinu_fwd, sinu_inv
        return sinu_fwd, sinu_inv
    raise ValueError(f"unsupported CRS {name!r}: geographic | rhealpix | "
                     f"utm:NNh | epsg:326NN/327NN | albers | "
                     f"webmerc/epsg:3857 | lcc:lat1,lat2,lat0,lon0[,fe,fn] | "
                     f"epsg:3413/3031 | ups:N/S | pstereo:lat_ts,lon0[,fe,fn] "
                     f"| sinu")


def reproject_raster(input_path: str, output_path: str, dst_crs: str,
                     input_crs: str = "auto", resampling: str = "nearest",
                     src_nodata=None, dst_nodata=None,
                     grid: GridConfig = DEFAULT_GRID, row_chunk: int = 1024):
    """General raster reprojection between any two supported CRSes
    (reference rasterutils.py:122-173 via rasterio.warp.reproject +
    calculate_default_transform).  Square destination pixels sized to
    roughly preserve the source pixel count (GDAL SuggestedWarpOutput
    behavior); inverse-maps each destination pixel center through the
    lonlat hub and samples with `resample_grid`.  Not dateline-aware."""
    g = open_raster(input_path)
    src_albers = None
    if input_crs == "auto":
        input_crs, src_albers = _auto_crs(g, input_path)
    sfwd, sinv = _crs_funcs(input_crs, grid, src_albers)
    dfwd, dinv = _crs_funcs(dst_crs, grid)

    nbands, H, W = g.data.shape
    right = g.left + W * g.res_x
    bottom = g.top - H * g.res_y
    n = 64
    bx = np.concatenate([np.linspace(g.left, right, n),
                         np.linspace(g.left, right, n),
                         np.full(n, g.left), np.full(n, right)])
    by = np.concatenate([np.full(n, g.top), np.full(n, bottom),
                         np.linspace(bottom, g.top, n),
                         np.linspace(bottom, g.top, n)])
    lon, lat = sinv(bx, by)
    px, py = dfwd(lon, lat)
    bw, bh = float(px.max() - px.min()), float(py.max() - py.min())
    res = max(bw / W, bh / H)
    ncols = max(1, math.ceil(bw / res))
    nrows = max(1, math.ceil(bh / res))
    if ncols * nrows > 200_000_000:
        raise ValueError(f"destination raster {nrows}x{ncols} too large")
    dleft, dtop = float(px.min()), float(py.max())

    set_src_nd = g.nodata if src_nodata is None else src_nodata
    set_dst_nd = g.nodata if dst_nodata is None else dst_nodata
    if set_dst_nd is None:
        set_dst_nd = 0

    s_left, s_top, s_rx, s_ry = g.left, g.top, g.res_x, g.res_y

    def chunk_vals(src: np.ndarray, r0: int, r1: int) -> np.ndarray:
        jj, ii = np.meshgrid(np.arange(ncols), np.arange(r0, r1))
        xs = dleft + (jj.ravel() + 0.5) * res
        ys = dtop - (ii.ravel() + 0.5) * res
        lon, lat = dinv(xs, ys)
        sx, sy = sfwd(lon, lat)
        fc = (sx - s_left) / s_rx
        fr = (s_top - sy) / s_ry
        if resampling == "average":
            bw, bh = _grid_box_sizes(fc, fr, r1 - r0, ncols)
            vals = resample_grid_average(src, fc, fr, bw, bh,
                                         set_src_nd, set_dst_nd)
        else:
            vals = resample_grid(src, fc, fr, resampling,
                                 set_src_nd, set_dst_nd)
        return vals.reshape(nbands, r1 - r0, ncols)

    out = np.full((nbands, nrows, ncols), set_dst_nd, dtype=g.data.dtype)
    _fill_chunked(out, g.data, chunk_vals, nrows, ncols, row_chunk)

    tags = {"GDAL_METADATA": f'<GDALMetadata><Item name="crs">{dst_crs}'
                             f'</Item></GDALMetadata>'}
    write_geotiff(output_path, GeoTiff(out, dleft, dtop, res, res,
                                       nodata=set_dst_nd, tags=tags))


def get_rhpx_metadata(input_path: str, n_side: int = 3) -> dict:
    """Reference get_gdf_attrs_from_rhealpix_file semantics
    (rhpxutils.py:110-145): {} and res_idx -1 for non-rHPX files."""
    g = open_raster(input_path)
    grid = GridConfig(n_side, 1, 0)
    meta = {"left": g.left, "top": g.top,
            "right": g.left + g.data.shape[2] * g.res_x,
            "bottom": g.top - g.data.shape[1] * g.res_y,
            "res": g.res_x, "height": g.data.shape[1], "width": g.data.shape[2],
            "nbands": g.data.shape[0], "nodata": g.nodata,
            "nodatavals": [g.nodata] * g.data.shape[0],
            "dtypes": [g.data.dtype.name] * g.data.shape[0]}
    tag = g.tags.get("GDAL_METADATA", "")
    if "n_side" in tag:
        rx, _ = grid.get_closest_resolution(abs(g.res_x))
        ry, _ = grid.get_closest_resolution(abs(g.res_y))
        assert rx == ry, f"{input_path} is not a proper rhealpix file (non-square)"
        meta["res_idx"] = rx
        meta["rhealpixdggs"] = grid.to_meta()
    else:
        meta["res_idx"] = -1
        meta["rhealpixdggs"] = {}
    return meta

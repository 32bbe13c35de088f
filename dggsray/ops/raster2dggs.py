"""raster -> rHEALPix: warp each image onto the aligned DGGS lattice and explode to
cell rows.  Ray-Data-native re-expression of the reference pipeline
raster_to_rhealpix (+ rhealpix_file_to_geodataframe):

  reference (single process, whole file):        ours (streaming, per image/tile):
  calculate_default_transform + align_transform  -> per-image planar bbox + vertex snap
     (/root/reference/dggstools/rhpx/raster_to_rhpx.py:71-77)
  rasterio.warp.reproject nearest per band       -> vectorized inverse-projection
     (raster_to_rhpx.py:106-116)                    gather of source pixels
  per-pixel cell_from_point explode loop         -> vectorized cell_from_point over
     (rhpx_gdf_helper.py:85-118)                    the aligned lattice

The stage is a callable class: the projection context is built once per instance
(__init__) and batches stream through __call__ (pipelines.flagship builds one per
image-table file inside a plain Ray task).
"""
from __future__ import annotations

import math

import numpy as np
import pyarrow as pa

from ..core.rhpx import (DEFAULT_GRID, GridConfig, align_point,
                         cell_bytes_to_arrow, cell_from_point,
                         cell_keys_from_point, lattice_cell_bytes,
                         project_fwd, project_inv)
from ..io.imagetable import decode_image


class ImageToCells:
    """Callable stage: image rows (bytes,w,h,fmt + footprint bbox) -> cell rows
    (image_id, cellid, band1, band2, band3).

    dst_resolution_idx: fixed DGGS resolution of the output lattice (the flagship
    join key resolution).  verify=True re-derives the per-row invariant: decoded
    pixels must round-trip the codec exactly (lossless fmts) — BASELINE.json
    input_hint's decoded-pixel check, done inline where the bytes are already hot.
    """

    def __init__(self, dst_resolution_idx: int, grid: GridConfig = DEFAULT_GRID,
                 verify: bool = False, drop_bytes: bool = True):
        self.res = dst_resolution_idx
        self.grid = grid
        self.cw = grid.cell_width(dst_resolution_idx)
        self.verify = verify
        self.drop_bytes = drop_bytes
        # use_keys: emit packed int64 cell keys instead of cellid strings —
        # the fused-join subclass flips this (see core.rhpx.cell_keys_from_point)
        self.use_keys = False
        # geodetic latitude of the equatorial/cap boundary: footprints strictly
        # inside the equatorial band (or inside one cap triangle) have planar
        # extremes at their corners, enabling the corner-only fast path
        from ..core.ellipsoid import auth_lat_inv
        self.lat_cap = float(np.degrees(auth_lat_inv(np.arcsin(2.0 / 3.0))))

    def _cells_of(self, xs: np.ndarray, ys: np.ndarray):
        """(cells-or-keys, valid-mask) at self.res — string or packed form."""
        if self.use_keys:
            k = cell_keys_from_point(self.res, xs, ys, self.grid)
            return k, k >= 0
        c = cell_from_point(self.res, xs, ys, self.grid)
        return c, c != ""

    def _image_cells(self, img: np.ndarray, lon_min: float, lat_min: float,
                     lon_max: float, lat_max: float):
        h, w = img.shape[:2]
        # source pixel grid (geographic): pixel (r, c) center at
        # lon_min + (c+.5)*px_w, lat_max - (r+.5)*px_h
        px_w = (lon_max - lon_min) / w
        px_h = (lat_max - lat_min) / h
        # A footprint that straddles the equatorial/cap boundary maps to TWO planar
        # patches that can sit anywhere in the frame (the cap triangles are
        # relocated), so a single corner-derived bbox can span ~the whole plane
        # (the reference hits the same blowup and clamps the right edge at
        # raster_to_rhpx.py:63-68).
        # Fast path (the overwhelming majority of footprints): entirely inside the
        # equatorial band, or inside ONE cap triangle (lat beyond the boundary and
        # lon within one 90-degree quadrant) — there the projection is monotone
        # per axis up to a 90-degree rotation, so the 4 corners bound the image.
        lb = self.lat_cap
        in_equator = -lb <= lat_min and lat_max <= lb
        same_cap = (lat_min > lb or lat_max < -lb) and \
            (np.floor((lon_min + 180.0) / 90.0) == np.floor((lon_max + 180.0) / 90.0 - 1e-12))
        if in_equator or same_cap:
            cx, cy = project_fwd(
                np.array([lon_min, lon_max, lon_min, lon_max]),
                np.array([lat_max, lat_max, lat_min, lat_min]), self.grid)
            sx = np.array([cx.min(), cx.max()])
            sy = np.array([cy.min(), cy.max()])
            region = np.zeros(2, dtype=np.int64)  # one piece
        else:
            # slow path: project all source pixel centers and split by planar
            # region (N cap / equatorial / S cap)
            cgrid, rgrid = np.meshgrid(np.arange(w), np.arange(h))
            plon = lon_min + (cgrid.ravel() + 0.5) * px_w
            plat = lat_max - (rgrid.ravel() + 0.5) * px_h
            sx, sy = project_fwd(plon, plat, self.grid)
            from ..core.rhpx import F as _F
            region = np.where(sy > _F / 2, 0, np.where(sy < -_F / 2, 2, 1))
        out_cells, out_vals = [], []
        for reg in np.unique(region):
            m = region == reg
            left, right = sx[m].min(), sx[m].max()
            top, bottom = sy[m].max(), sy[m].min()
            # snap to the cell lattice (align_transform semantics), pad one cell
            left, top = align_point(left - self.cw, top + self.cw, self.res, self.grid)
            ncols = max(1, math.ceil((right - left) / self.cw) + 1)
            nrows = max(1, math.ceil((top - bottom) / self.cw) + 1)
            if ncols * nrows > 8_000_000:
                raise ValueError(
                    f"target lattice {ncols}x{nrows} too large for one image; "
                    f"raise tile granularity")
            jj, ii = np.meshgrid(np.arange(ncols), np.arange(nrows))
            xs = left + (jj.ravel() + 0.5) * self.cw
            ys = top - (ii.ravel() + 0.5) * self.cw
            # inverse-project lattice centers to the source CRS, nearest-gather
            lon, lat = project_inv(xs, ys, self.grid)
            sc = np.floor((lon - lon_min) / px_w).astype(np.int64)
            sr = np.floor((lat_max - lat) / px_h).astype(np.int64)
            inside = (sc >= 0) & (sc < w) & (sr >= 0) & (sr < h)
            if not inside.any():
                continue
            xs, ys, sc, sr = xs[inside], ys[inside], sc[inside], sr[inside]
            cells, ok = self._cells_of(xs, ys)
            out_cells.append(cells[ok])
            out_vals.append(img[sr[ok], sc[ok], :])
        if not out_cells:
            return None
        cells = np.concatenate(out_cells)
        vals = np.concatenate(out_vals, axis=0)
        if len(out_cells) > 1:
            # padded piece bboxes can overlap near the region boundary: dedup
            cells, idx = np.unique(cells, return_index=True)
            vals = vals[idx]
        return cells, vals

    def _batch_cells(self, batch: pa.Table):
        """Decode + warp every image of a batch.  Returns (ids, img_idx, cells,
        vals): concatenated arrays with rows of one image contiguous (images never
        straddle batches — the partitioning invariant downstream fused aggregates
        rely on).

        The destination lattices of all fast-path images are concatenated so the
        expensive kernels (inverse projection, cell indexing, pixel gather) run
        ONCE per batch over one big array instead of once per image — per-image
        Python/numpy call overhead dominates otherwise (~60-cell lattices)."""
        ids = batch.column("image_id").to_pylist()
        from ..io.imagetable import binary_column_views
        blobs = binary_column_views(batch.column("bytes"))   # zero-copy views
        ws = batch.column("w").to_numpy()
        hs = batch.column("h").to_numpy()
        fmts = batch.column("fmt").to_pylist()
        lon_mins = batch.column("lon_min").to_numpy()
        lat_mins = batch.column("lat_min").to_numpy()
        lon_maxs = batch.column("lon_max").to_numpy()
        lat_maxs = batch.column("lat_max").to_numpy()
        n = len(ids)

        caps = batch.column("caption").to_pylist() if self.verify and \
            "caption" in batch.column_names else None
        # decode every image straight into ONE batch pixel buffer: the fused
        # join gathers from it by flat index, so no per-image arrays are ever
        # concatenated (the concat was a full extra write+read pass of all
        # pixel data — this kernel is memory-bandwidth-bound at high worker
        # counts, see BENCH/BASELINE.md)
        pix_off = np.zeros(n + 1, np.int64)
        np.cumsum(ws.astype(np.int64) * hs, out=pix_off[1:])
        pixbuf = np.empty((int(pix_off[-1]), 3), np.uint8)
        imgs = [decode_image(blobs[k], int(ws[k]), int(hs[k]), fmts[k],
                             out=pixbuf[pix_off[k]:pix_off[k + 1]]
                             .reshape(int(hs[k]), int(ws[k]), 3))
                for k in range(n)]
        if self.verify:
            # per-row invariant (BASELINE.json input_hint): decoded pixels
            # must equal the deterministically regenerated reference image
            # (lossless codecs -> exact; PSNR>=40dB bounds lossy ones)
            # and the caption must match its regenerated form.  Regeneration
            # is batched per (w, h) group (per-image regen cost 37% of the
            # kernel); the compare is per image AGAINST the regen rows — a
            # np.stack of the decoded group would be another full copy.
            from ..io.imagetable import (LOSSY_FMTS, PSNR_MIN_DB,
                                         _pixels_batch, psnr_db)
            nums = np.array([int(s[3:]) for s in ids], dtype=np.int64)
            lossy = np.array([f in LOSSY_FMTS for f in fmts])
            for (w0, h0) in {(int(ws[k]), int(hs[k])) for k in range(n)}:
                sel = np.nonzero((ws == w0) & (hs == h0))[0]
                ref = _pixels_batch(nums[sel], w0, h0)
                for j, k in enumerate(sel):
                    if not lossy[k]:
                        if not np.array_equal(imgs[int(k)], ref[j]):
                            raise AssertionError(
                                f"pixel invariant failed: {ids[int(k)]}")
                    else:
                        # lossy codecs: PSNR >= 40 dB per row (input_hint)
                        p = psnr_db(imgs[int(k)], ref[j])
                        if p < PSNR_MIN_DB:
                            raise AssertionError(
                                f"PSNR invariant failed "
                                f"({p:.1f} dB < {PSNR_MIN_DB}): {ids[int(k)]}")
            if caps is not None:
                lon_c = (lon_mins + lon_maxs) / 2
                lat_c = (lat_mins + lat_maxs) / 2
                for k in range(n):
                    exp = (f"caption for img{nums[k]} at "
                           f"({lon_c[k]:.4f},{lat_c[k]:.4f})")
                    if caps[k] != exp:
                        raise AssertionError(
                            f"caption invariant failed: {ids[k]}")

        # fast path eligibility (see _image_cells for the geometry argument)
        lb = self.lat_cap
        in_eq = (-lb <= lat_mins) & (lat_maxs <= lb)
        same_cap = ((lat_mins > lb) | (lat_maxs < -lb)) & \
            (np.floor((lon_mins + 180.0) / 90.0)
             == np.floor((lon_maxs + 180.0) / 90.0 - 1e-12))
        fast = in_eq | same_cap

        out_idx, out_cell, out_vals = [], [], []

        fidx = np.nonzero(fast)[0]
        if fidx.size:
            # corner projection for all fast images in one call
            cl = np.concatenate([lon_mins[fidx], lon_maxs[fidx],
                                 lon_mins[fidx], lon_maxs[fidx]])
            ct = np.concatenate([lat_maxs[fidx], lat_maxs[fidx],
                                 lat_mins[fidx], lat_mins[fidx]])
            cx, cy = project_fwd(cl, ct, self.grid)
            cx = cx.reshape(4, fidx.size)
            cy = cy.reshape(4, fidx.size)
            left = cx.min(axis=0)
            right = cx.max(axis=0)
            top = cy.max(axis=0)
            bottom = cy.min(axis=0)
            # vertex snap (vectorized align_point)
            from ..core.rhpx import F as _F
            cw = self.cw
            aleft = -2 * _F + np.round((left - cw + 2 * _F) / cw) * cw
            atop = 1.5 * _F - np.round((1.5 * _F - (top + cw)) / cw) * cw
            ncols = np.maximum(1, np.ceil((right - aleft) / cw).astype(np.int64) + 1)
            nrows = np.maximum(1, np.ceil((atop - bottom) / cw).astype(np.int64) + 1)
            sizes = ncols * nrows
            if sizes.size and int(sizes.max()) > 8_000_000:
                # same guard as the slow path: a footprint spanning a wide
                # range would otherwise allocate a multi-billion-point lattice
                raise ValueError(
                    f"target lattice of {int(sizes.max())} points too large "
                    f"for one image; raise tile granularity")
            offsets = np.concatenate([[0], np.cumsum(sizes)])
            total = int(offsets[-1])
            # concatenated lattice: per-point image slot, local row/col
            slot = np.repeat(np.arange(fidx.size), sizes)
            local = np.arange(total) - offsets[slot]
            lr = local // ncols[slot]
            lc = local % ncols[slot]
            xs = aleft[slot] + (lc + 0.5) * cw
            ys = atop[slot] - (lr + 0.5) * cw
            lon, lat = project_inv(xs, ys, self.grid)
            px_w = (lon_maxs[fidx] - lon_mins[fidx]) / ws[fidx]
            px_h = (lat_maxs[fidx] - lat_mins[fidx]) / hs[fidx]
            sc = np.floor((lon - lon_mins[fidx][slot]) / px_w[slot]).astype(np.int64)
            sr = np.floor((lat_maxs[fidx][slot] - lat) / px_h[slot]).astype(np.int64)
            inside = ((sc >= 0) & (sc < ws[fidx][slot])
                      & (sr >= 0) & (sr < hs[fidx][slot]))
            xs, ys, sc, sr, slot = xs[inside], ys[inside], sc[inside], sr[inside], \
                slot[inside]
            cells, ok = self._cells_of(xs, ys)
            sc, sr, slot, cells = sc[ok], sr[ok], slot[ok], cells[ok]
            # global gather straight from the shared decode buffer
            g = fidx[slot]
            flat = pix_off[g] + sr * ws[g] + sc
            vals = pixbuf[flat]
            # order rows by image slot so each image's rows are contiguous
            order = np.argsort(slot, kind="stable")
            out_idx.append(fidx[slot[order]])
            out_cell.append(cells[order])
            out_vals.append(vals[order])

        for k in np.nonzero(~fast)[0]:
            r = self._image_cells(imgs[int(k)], lon_mins[k], lat_mins[k],
                                  lon_maxs[k], lat_maxs[k])
            if r is None:
                continue
            cells, vals = r
            out_idx.append(np.full(cells.shape[0], k, dtype=np.int64))
            out_cell.append(cells)
            out_vals.append(vals)
        if not out_cell:
            empty_cells = np.zeros(0, np.int64) if self.use_keys \
                else np.zeros(0, "U1")
            return ids, (np.zeros(0, np.int64), empty_cells,
                         np.zeros((0, 3), np.uint8))
        return ids, (np.concatenate(out_idx), np.concatenate(out_cell),
                     np.concatenate(out_vals, axis=0))

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, (img_idx, cells, vals) = self._batch_cells(batch)
        id_arr = np.array(ids, dtype=object)[img_idx] if img_idx.size else \
            np.zeros(0, dtype=object)
        return pa.table({
            "image_id": pa.array(id_arr, pa.string()),
            "cellid": pa.array(cells, pa.string()),
            "band1": pa.array(vals[:, 0], pa.uint8()),
            "band2": pa.array(vals[:, 1], pa.uint8()),
            "band3": pa.array(vals[:, 2], pa.uint8()),
        })


def tiles_to_cells(tiles_ds, meta: dict, grid: GridConfig = DEFAULT_GRID,
                   store_nodata: bool = False, values_in_json: bool = False,
                   add_uid: bool = False):
    """Aligned rHEALPix raster (tile-row Dataset) -> cell table: one plain
    Ray task per tile row, one output block per tile, returned as a
    materialized Dataset (`joins.materialized`, which waits for every
    task).  Each tile row carries its own pixel offset (row0, col0) in the
    raster.

    Vectorized re-expression of the reference's per-pixel double loop
    rhealpix_file_to_geodataframe (/root/reference/dggstools/rhpx/
    rhpx_gdf_helper.py:85-130): keep a pixel if any band differs from its
    nodataval (or store_nodata), cell id from the pixel center, optional
    all_bands JSON and uid columns.  The uid is a deterministic blake2b of
    (cellid, values) instead of uuid4 so retried tasks are idempotent
    (SURVEY.md section 4 stragglers row)."""
    from .joins import _remote, materialized

    task = _remote(_explode_tile)
    return materialized([
        task.remote(ref, k, meta, grid, store_nodata, values_in_json, add_uid)
        for bundle in tiles_ds.iter_internal_ref_bundles()
        for ref, block_meta in bundle.blocks
        for k in range(block_meta.num_rows)])


def _explode_tile(tiles: pa.Table, k: int, meta: dict, grid: GridConfig,
                  store_nodata: bool, values_in_json: bool,
                  add_uid: bool) -> pa.Table:
    """Task: tile row `k` of a tile block -> its cell rows, in row-major
    pixel order.  The cell id of each pixel centre comes from
    `lattice_cell_bytes`, which works per lattice row and column and
    equals `cell_from_point` at every pixel; the kept on-plane pixels' codec
    bytes become the Arrow cellid column as they are.  A tile with no kept
    pixel gives a 0-row block with the same typed columns (the optional
    all_bands/uuid included), so every block of the table shares one
    schema."""
    row0, col0, h, w = (tiles.column(c)[k].as_py()
                        for c in ("row0", "col0", "h", "w"))
    nbands = meta["nbands"]
    res = meta["res"]
    ndvals = meta.get("nodatavals") or [None] * nbands
    arr = np.frombuffer(tiles.column("data")[k].as_buffer(),
                        np.dtype(meta["dtypes"][0])).reshape(nbands, h, w)
    keep = np.full((h, w), store_nodata or None in ndvals)
    if not keep.all():
        for i, nd in enumerate(ndvals):
            keep |= arr[i] != nd
    xs = meta["left"] + (np.arange(w) + col0 + 0.5) * res
    ys = meta["top"] - (np.arange(h) + row0 + 0.5) * res
    cell_bytes, on_plane = lattice_cell_bytes(meta["res_idx"], xs, ys, grid)
    keep &= on_plane
    cols = {"cellid": cell_bytes_to_arrow(cell_bytes[keep])}
    bands = [arr[i][keep] for i in range(nbands)]
    for i, band in enumerate(bands):
        cols[f"band{i+1}"] = pa.array(band)
    if values_in_json:
        import json
        cols["all_bands"] = pa.array(
            [json.dumps({f"band{i+1}": bands[i][j].item()
                         for i in range(nbands)})
             for j in range(len(cols["cellid"]))], pa.string())
    if add_uid:
        import hashlib
        cols["uuid"] = pa.array(
            [hashlib.blake2b(
                (c + ":" + ",".join(str(bands[i][j])
                                    for i in range(nbands))).encode(),
                digest_size=16).hexdigest()
             for j, c in enumerate(cols["cellid"].to_pylist())], pa.string())
    return pa.table(cols)


# Pixels per tile row that geotiff_to_tiles cuts at most by default.
MAX_TILE_PX = 512 * 512


def geotiff_to_tiles(path: str, grid: GridConfig = DEFAULT_GRID):
    """Read a (small) aligned rHEALPix GeoTIFF into (tiles Dataset, meta) — the
    file-path entry of the reference's ras-rhpx-to-vec-rhpx chain.  The raster
    is cut into full-width strips of one height (the last may be shorter),
    one tile row per block: a multiple of Ray's CPU count of them, each of
    about MAX_TILE_PX pixels at most, so the explode runs as near-equal
    tasks.  The dataset is materialized (which for in-memory items runs no
    Ray Data execution), so listing its blocks starts none either."""
    import ray.data as rd

    from ..core.raster import open_raster
    from .joins import cluster_cpus

    g = open_raster(path)
    nbands, H, W = g.data.shape
    res_idx, _ = grid.get_closest_resolution(abs(g.res_x))
    res_idx_y, _ = grid.get_closest_resolution(abs(g.res_y))
    assert res_idx == res_idx_y, f"{path}: cells are not squares"
    cpus = cluster_cpus()
    units = cpus * math.ceil(H * W / (cpus * MAX_TILE_PX))
    strip = math.ceil(H / min(units, H))
    meta = {"left": g.left, "top": g.top,
            "right": g.left + W * g.res_x, "bottom": g.top - H * g.res_y,
            "height": H, "width": W, "res": g.res_x, "res_idx": res_idx,
            "nbands": nbands, "nodata": g.nodata,
            "nodatavals": [g.nodata] * nbands, "store_nodata": False,
            "dtypes": [g.data.dtype.name] * nbands,
            "rhealpixdggs": grid.to_meta()}
    rows = []
    for row0 in range(0, H, strip):
        sub = g.data[:, row0:row0 + strip]
        rows.append({"row0": row0, "col0": 0, "h": sub.shape[1], "w": W,
                     "data": np.ascontiguousarray(sub).tobytes()})
    return rd.from_items(rows, override_num_blocks=len(rows)).materialize(), \
        meta


def jp2_to_tiles(path: str, grid: GridConfig = DEFAULT_GRID):
    """Tiled-JP2 variant of geotiff_to_tiles for a HUGE aligned rHEALPix
    scene: the driver scans only headers (O(n_tiles) bytes via
    jp2_tile_spans_file — it never decodes, or even reads, the pixel
    payload); rows are tile byte spans, decoded inside downstream tasks by
    range reads.  No node ever holds the whole scene — the shape a 100 TB
    scene archive needs.  Composes as `tiles_to_cells(ds, meta)`."""
    import ray.data as rd

    from ..core import jp2io as J
    from ..core.raster import localize_path

    path = localize_path(path)    # scheme seam, same as parquet/raster reads
    header, spans, cs, geo = J.jp2_tile_spans_file(path)
    if cs.XT != cs.YT:
        raise NotImplementedError(
            f"non-square JP2 tiles {cs.XT}x{cs.YT} (meta['tile'] holds one "
            "tile edge)")
    res_x = geo.get("res_x", 1.0)
    res_idx, _ = grid.get_closest_resolution(abs(res_x))
    res_idx_y, _ = grid.get_closest_resolution(abs(geo.get("res_y", res_x)))
    assert res_idx == res_idx_y, f"{path}: cells are not squares"
    dt = np.dtype(np.uint8 if cs.depth <= 8 and not cs.signed else
                  np.int16 if cs.signed else np.uint16)
    meta = {"left": geo.get("left", 0.0), "top": geo.get("top", 0.0),
            "right": geo.get("left", 0.0) + cs.W * res_x,
            "bottom": geo.get("top", 0.0) - cs.H * geo.get("res_y", res_x),
            "height": cs.H, "width": cs.W, "res": res_x, "res_idx": res_idx,
            "nbands": cs.ncomp, "nodata": None,
            "nodatavals": [None] * cs.ncomp, "store_nodata": False,
            "dtypes": [dt.name] * cs.ncomp,
            "rhealpixdggs": grid.to_meta(), "tile": cs.XT}
    dc = 0 if cs.signed else 1 << (cs.depth - 1)

    def decode(b: pa.Table) -> pa.Table:
        # closure ships the ~100-byte main header + the path, never pixels
        rows = {"row0": [], "col0": [], "h": [], "w": [], "data": []}
        starts = b.column("start").to_pylist()
        ends = b.column("end").to_pylist()
        with open(path, "rb") as f:
            for st, en in zip(starts, ends):
                f.seek(st)
                comps, (x0, y0) = J.decode_jp2_tile(header, f.read(en - st))
                px = np.stack([c + dc for c in comps]).astype(dt)
                rows["row0"].append(y0)
                rows["col0"].append(x0)
                rows["h"].append(px.shape[1])
                rows["w"].append(px.shape[2])
                rows["data"].append(px.tobytes())
        return pa.table(rows)

    tiles = rd.from_items(spans).map_batches(decode, batch_format="pyarrow")
    return tiles, meta


def geotiff_to_tiles_spans(path: str, grid: GridConfig = DEFAULT_GRID):
    """Striped-GeoTIFF variant of jp2_to_tiles: the driver scans only the
    IFD (tiffio.geotiff_strip_spans — O(tags + n_strips) bytes, no pixel
    reads); each strip decompresses inside a downstream task from its own
    byte range (strips are whole-row units, the horizontal predictor is
    per-row, so strips never depend on each other).  Composes as
    `tiles_to_cells(ds, meta)`; meta["tile"] is rows_per_strip."""
    import ray.data as rd

    from ..core.raster import localize_path
    from ..core.tiffio import decode_geotiff_strip, geotiff_strip_spans

    path = localize_path(path)
    smeta, spans = geotiff_strip_spans(path)
    res_idx, _ = grid.get_closest_resolution(abs(smeta["res_x"]))
    res_idx_y, _ = grid.get_closest_resolution(abs(smeta["res_y"]))
    assert res_idx == res_idx_y, f"{path}: cells are not squares"
    nbands, H, W = smeta["bands"], smeta["h"], smeta["w"]
    nd = smeta["nodata"]
    meta = {"left": smeta["left"], "top": smeta["top"],
            "right": smeta["left"] + W * smeta["res_x"],
            "bottom": smeta["top"] - H * smeta["res_y"],
            "height": H, "width": W, "res": smeta["res_x"],
            "res_idx": res_idx, "nbands": nbands, "nodata": nd,
            "nodatavals": [nd] * nbands, "store_nodata": False,
            "dtypes": [np.dtype(smeta["dtype"]).name] * nbands,
            "rhealpixdggs": grid.to_meta(),
            "tile": smeta["rows_per_strip"]}

    def decode(b: pa.Table) -> pa.Table:
        rows = {"row0": [], "col0": [], "h": [], "w": [], "data": []}
        with open(path, "rb") as f:
            for k in range(b.num_rows):
                off = b.column("offset")[k].as_py()
                cnt = b.column("count")[k].as_py()
                nr = b.column("rows")[k].as_py()
                f.seek(off)
                px = decode_geotiff_strip(smeta, f.read(cnt), nr)
                rows["row0"].append(b.column("row0")[k].as_py())
                rows["col0"].append(0)
                rows["h"].append(nr)
                rows["w"].append(W)
                rows["data"].append(px.tobytes())
        return pa.table(rows)

    tiles = rd.from_items(spans).map_batches(decode, batch_format="pyarrow")
    return tiles, meta


def geotiff_tiled_to_tiles(path: str, grid: GridConfig = DEFAULT_GRID):
    """TILED-GeoTIFF variant of the span pipelines (GDAL TILED=YES — the
    layout GDAL defaults to for large rasters): the driver scans only the
    IFD (tiffio.geotiff_tile_spans); each tw x th tile decompresses inside
    a downstream task from its own byte range (tiles are independently
    compressed; the predictor differences per tile row).  Composes as
    `tiles_to_cells(ds, meta)` with the tiles' 2-D (row0, col0) offsets.
    Square tiles only (our writer and GDAL's default 256x256 both are)."""
    import ray.data as rd

    from ..core.raster import localize_path
    from ..core.tiffio import decode_geotiff_tile, geotiff_tile_spans

    path = localize_path(path)
    smeta, spans = geotiff_tile_spans(path)
    if smeta["tile_w"] != smeta["tile_h"]:
        raise NotImplementedError(
            f"{path}: non-square tiles {smeta['tile_w']}x{smeta['tile_h']}")
    res_idx, _ = grid.get_closest_resolution(abs(smeta["res_x"]))
    res_idx_y, _ = grid.get_closest_resolution(abs(smeta["res_y"]))
    assert res_idx == res_idx_y, f"{path}: cells are not squares"
    nbands, H, W = smeta["bands"], smeta["h"], smeta["w"]
    nd = smeta["nodata"]
    meta = {"left": smeta["left"], "top": smeta["top"],
            "right": smeta["left"] + W * smeta["res_x"],
            "bottom": smeta["top"] - H * smeta["res_y"],
            "height": H, "width": W, "res": smeta["res_x"],
            "res_idx": res_idx, "nbands": nbands, "nodata": nd,
            "nodatavals": [nd] * nbands, "store_nodata": False,
            "dtypes": [np.dtype(smeta["dtype"]).name] * nbands,
            "rhealpixdggs": grid.to_meta(),
            "tile": smeta["tile_w"]}

    def decode(b: pa.Table) -> pa.Table:
        rows = {"row0": [], "col0": [], "h": [], "w": [], "data": []}
        with open(path, "rb") as f:
            for k in range(b.num_rows):
                off = b.column("offset")[k].as_py()
                cnt = b.column("count")[k].as_py()
                nr = b.column("rows")[k].as_py()
                nc = b.column("cols")[k].as_py()
                f.seek(off)
                px = decode_geotiff_tile(smeta, f.read(cnt))[:, :nr, :nc]
                rows["row0"].append(b.column("row0")[k].as_py())
                rows["col0"].append(b.column("col0")[k].as_py())
                rows["h"].append(nr)
                rows["w"].append(nc)
                rows["data"].append(np.ascontiguousarray(px).tobytes())
        return pa.table(rows)

    tiles = rd.from_items(spans).map_batches(decode, batch_format="pyarrow")
    return tiles, meta


def nc4_to_tiles(path: str, var: str | None = None,
                 grid: GridConfig = DEFAULT_GRID):
    """NetCDF-4/HDF5 variant of the span pipelines: the mmap'd metadata
    walk (core.hdf5io.NetCDF4 + chunk_spans) touches only superblock /
    B-tree / object-header pages plus the tiny 1D coordinate variables;
    every data chunk decompresses inside a downstream task from its own
    byte range (HDF5 chunks are independent stored objects).  Composes as
    `tiles_to_cells(ds, meta)`.  Scope: north-up
    (descending y) 2D variables (leading dims size 1) with square chunks —
    everything else raises loudly; the whole-file open_raster path covers
    those shapes."""
    import ray.data as rd

    from ..core.hdf5io import NetCDF4, decode_h5_chunk
    from ..core.raster import localize_path

    path = localize_path(path)
    nc = NetCDF4(path)
    if var is None:
        subs = nc.subdatasets()
        if not subs:
            raise ValueError(f"{path}: no 2D+ variables")
        var = subs[0]
    v = nc.variables[var]
    if len(v.shape) < 2 or any(s != 1 for s in v.shape[:-2]):
        raise NotImplementedError(
            f"nc4_to_tiles: {var} dims {v.shape} (need 2D, leading dims 1)")
    H, W = int(v.shape[-2]), int(v.shape[-1])
    cmeta, spans = nc.chunk_spans(var)
    cshape = cmeta["cshape"]
    if any(c != 1 for c in cshape[:-2]) or cshape[-2] != cshape[-1]:
        raise NotImplementedError(
            f"nc4_to_tiles: chunk shape {cshape} (need square trailing "
            "chunks with leading extents 1)")
    tile = int(cshape[-2])
    ydim, xdim = v.dim_names[-2], v.dim_names[-1]

    def axis(dim, length):
        if dim in nc.variables and nc.variables[dim].shape == (length,):
            return nc.read(dim).astype(np.float64)
        return np.arange(length, dtype=np.float64)

    ys, xs = axis(ydim, H), axis(xdim, W)
    res_x = float(xs[1] - xs[0]) if xs.size > 1 else 1.0
    res_y_signed = float(ys[1] - ys[0]) if ys.size > 1 else -1.0
    if res_y_signed > 0:
        raise NotImplementedError(
            "nc4_to_tiles: ascending y (row flips couple chunks; use "
            "open_raster for this file)")
    left = float(xs[0]) - res_x / 2.0
    top = float(ys[0]) - res_y_signed / 2.0
    res_idx, _ = grid.get_closest_resolution(abs(res_x))
    res_idx_y, _ = grid.get_closest_resolution(abs(res_y_signed))
    assert res_idx == res_idx_y, f"{path}:{var}: cells are not squares"
    nd = v.nodata
    dt = np.dtype(cmeta["dtype"])
    meta = {"left": left, "top": top, "right": left + W * res_x,
            "bottom": top - H * res_x, "height": H, "width": W,
            "res": res_x, "res_idx": res_idx, "nbands": 1, "nodata": nd,
            "nodatavals": [nd], "store_nodata": False,
            "dtypes": [dt.name], "rhealpixdggs": grid.to_meta(),
            "tile": tile}
    nc.close()

    def decode(b: pa.Table) -> pa.Table:
        rows = {"row0": [], "col0": [], "h": [], "w": [], "data": []}
        with open(path, "rb") as f:
            for k in range(b.num_rows):
                coords = b.column("coords")[k].as_py()
                off = b.column("offset")[k].as_py()
                cnt = b.column("count")[k].as_py()
                f.seek(off)
                chunk = decode_h5_chunk(cmeta, f.read(cnt))
                chunk = chunk.reshape(cshape[-2], cshape[-1])
                row0, col0 = int(coords[-2]), int(coords[-1])
                h = min(tile, H - row0)
                w = min(tile, W - col0)
                rows["row0"].append(row0)
                rows["col0"].append(col0)
                rows["h"].append(h)
                rows["w"].append(w)
                rows["data"].append(
                    np.ascontiguousarray(chunk[:h, :w])[None].tobytes())
        return pa.table(rows)

    tiles = rd.from_items(spans).map_batches(decode, batch_format="pyarrow")
    return tiles, meta

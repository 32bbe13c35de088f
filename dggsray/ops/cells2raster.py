"""cells -> raster: scatter cell rows back onto the aligned lattice.

Ray-Data-native re-expression of the reference's geodataframe_to_rhealpix_file
(/root/reference/dggstools/rhpx/rhpx_gdf_helper.py:261-335: rebuild the transform
from the table metadata, force the exact cell width, prefill nodata, scatter each
row at rowcol(centroid)) and rhealpix_data_frame_to_geodataframe (:368-445: derive
bounds from cell vertices, res from cell_width, floor-based height/width with a
min of 1; here the floor first snaps float error, see `_cells_across`).

The scatter needs no shuffle and no map stage: one plain Ray task per block
of the cell table decodes its Arrow cellid column in place to centroids
(`core.rhpx` reads the digits two at a time through one lookup table), turns
them into flat pixel indices row*W + col (dropping rows outside the window)
and returns them with the block's band values; the calling process only
writes those into the (bands, H, W) array it returns — the raster is built
in its own pixel layout, as Raptor (VLDB 2019, PAPERS.md) argues for."""
from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..core.rhpx import DEFAULT_GRID, GridConfig, cell_centroid, cell_ul_vertex
from .joins import join_partitions

# Tile side (cells) in which perfbench's `cells2raster.tiles` metric counts
# the output raster; the scatter itself has no tiles.
DEFAULT_TILE = 512


def _cells_across(extent: float, res: float) -> int:
    """Whole cells spanning `extent`: floor of extent/res, after snapping a
    quotient that float error left within 1e-9 (relative) of an integer, so
    that e.g. 255.99999999997 counts 256 cells, not 255 (min 1)."""
    n = extent / res
    if math.isclose(n, round(n), rel_tol=1e-9):
        n = round(n)
    return max(1, math.floor(n))


def _meta_from_bounds(minx: float, maxx: float, miny: float, maxy: float,
                      res_idx: int, grid: GridConfig, nodata, nbands: int,
                      dtype: str) -> dict:
    res = grid.cell_width(res_idx)
    left, right = float(minx), float(maxx + res)
    top, bottom = float(maxy), float(miny - res)
    height = _cells_across(top - bottom, res)
    width = _cells_across(right - left, res)
    return {"left": left, "top": top, "right": right, "bottom": bottom,
            "height": height, "width": width, "res": res, "res_idx": res_idx,
            "nbands": nbands, "nodata": nodata, "nodatavals": [nodata] * nbands,
            "store_nodata": nodata is not None, "dtypes": [dtype] * nbands,
            "rhealpixdggs": grid.to_meta()}


def meta_from_cells(cellids, grid: GridConfig = DEFAULT_GRID, nodata=None,
                    nbands: int = 1, dtype: str = "int16") -> dict:
    """Derive the raster metadata dict (the reference's gdf.attrs) from a cellid
    collection — bounds from cell vertices, height/width by `_cells_across`."""
    cellids = np.asarray(cellids, dtype="U")
    res_idx = len(cellids[0]) - 1
    ulx, uly = cell_ul_vertex(cellids, grid)
    return _meta_from_bounds(ulx.min(), ulx.max(), uly.min(), uly.max(),
                             res_idx, grid, nodata, nbands, dtype)


def meta_from_cells_ds(ds, grid: GridConfig = DEFAULT_GRID,
                       cell_col: str = "cellid", nodata=None,
                       nbands: int = 1, dtype: str = "int16") -> dict:
    """Distributed twin of `meta_from_cells`: one plain Ray task per block
    (`joins.per_block`) finds its vertex extent and resolution, and the
    driver folds those five scalars per block — it never sees the cellid
    column (which scales with the raster).  Raises ValueError on no cells or
    on mixed resolutions."""
    from .joins import per_block

    parts = [p for p in per_block(ds, _cells_extent, cell_col, grid)
             if p is not None]
    if not parts:
        raise ValueError("meta_from_cells_ds: no cells")
    minx, maxx, miny, maxy, res = np.array(parts).T
    if len(set(res)) > 1:
        raise ValueError(f"meta_from_cells_ds: mixed resolutions "
                         f"{sorted(set(res.astype(int)))}")
    return _meta_from_bounds(minx.min(), maxx.max(), miny.min(), maxy.max(),
                             int(res[0]), grid, nodata, nbands, dtype)


def _cells_extent(block: pa.Table, cell_col: str, grid: GridConfig):
    """Task: (min x, max x, min y, max y) of a block's cell upper-left
    vertices and its resolution (the codec width - 1); None for 0 rows."""
    if block.num_rows == 0:
        return None
    cells = block.column(cell_col).combine_chunks()
    ulx, uly = cell_ul_vertex(cells, grid)
    res = pc.binary_length(cells)[0].as_py() - 1
    return ulx.min(), ulx.max(), uly.min(), uly.max(), res


def cells_to_raster_array(ds, meta: dict | None = None,
                          grid: GridConfig = DEFAULT_GRID,
                          cell_col: str = "cellid",
                          nodata=0) -> tuple[np.ndarray, dict]:
    """Cell-table Dataset (or pyarrow Table) -> (array (bands, H, W), meta),
    deriving meta from the cells when not given (reference DataFrame->raster
    path; the schema is read once).  Exact-resolution contract of the
    reference (rhpx_gdf_helper.py:292-298): the lattice step IS
    cell_width(res_idx); rows whose centroid falls outside the target
    window are dropped (they would be out-of-range rowcol writes).  Pixels
    no row reaches hold meta["nodata"] (0 when None).

    One plain Ray task per block (streamed as `joins.per_block` does)
    decodes the block's cell ids to flat pixel indices and gathers its band
    values; the driver fetches one block's result at a time and only
    assigns it into the array."""
    import ray

    from .joins import _block_tasks, _on_arrow, _remote

    if meta is None:
        schema = ds.schema()
        nbands = sum(1 for c in schema.names if c.startswith("band"))
        first_band_type = schema.types[schema.names.index("band1")]
        meta = meta_from_cells_ds(ds, grid, cell_col, nodata=nodata,
                                  nbands=max(1, nbands),
                                  dtype=first_band_type
                                  .to_pandas_dtype().__name__)
    H, W = meta["height"], meta["width"]
    dtype = np.dtype(meta["dtypes"][0])
    nbands = meta["nbands"]
    out = np.full((nbands, H * W), meta["nodata"]
                  if meta["nodata"] is not None else 0, dtype=dtype)
    for ref in _block_tasks(ds, _remote(_on_arrow), _block_pixels, meta,
                            grid, cell_col):
        pix, vals = ray.get(ref)
        out[:, pix] = vals
    return out.reshape(nbands, H, W), meta


def _block_pixels(block: pa.Table, meta: dict, grid: GridConfig,
                  cell_col: str):
    """Task: a cell-table block -> (flat pixel index row*W + col of each row
    inside the window, (bands, rows) values there in the raster's dtype).
    Calls `cell_centroid` through the module global (a tracer may wrap it
    there)."""
    res, H, W = meta["res"], meta["height"], meta["width"]
    dtype = np.dtype(meta["dtypes"][0])
    bands = [f"band{i + 1}" for i in range(meta["nbands"])]
    if block.num_rows == 0:
        return np.zeros(0, np.int64), np.zeros((len(bands), 0), dtype)
    cx, cy = cell_centroid(block.column(cell_col), grid)
    col = np.floor((cx - meta["left"]) / res).astype(np.int64)
    row = np.floor((meta["top"] - cy) / res).astype(np.int64)
    ok = (row >= 0) & (row < H) & (col >= 0) & (col < W)
    vals = np.empty((len(bands), int(ok.sum())), dtype)
    for i, bc in enumerate(bands):
        vals[i] = block.column(bc).to_numpy()[ok]
    return row[ok] * W + col[ok], vals


def grid_cells_for_bbox(nw: tuple, se: tuple, res: int,
                        grid: GridConfig = DEFAULT_GRID, as_geodetic: bool = True):
    """All cells of resolution `res` whose centroids fall inside the geodetic
    bbox (nw=(lon,lat), se=(lon,lat)) — the reference's
    rhealpix_grid_as_geodataframe (rhpx_gdf_helper.py:337-366) as a Dataset of
    (cellid, centroid lon/lat or planar x/y).  Enumeration is lattice-driven:
    project the bbox, walk the aligned lattice per planar region, keep centroids
    whose inverse projection is inside the bbox."""
    import ray.data as rd

    from ..core.rhpx import project_fwd, project_inv, align_point

    lon_w, lat_n = nw
    lon_e, lat_s = se
    cw = grid.cell_width(res)
    # sample the bbox boundary to get per-region planar extents
    n = 64
    bx = np.concatenate([np.linspace(lon_w, lon_e, n)] * 2 + [np.full(n, lon_w),
                                                              np.full(n, lon_e)])
    by = np.concatenate([np.full(n, lat_n), np.full(n, lat_s),
                         np.linspace(lat_s, lat_n, n), np.linspace(lat_s, lat_n, n)])
    px, py = project_fwd(bx, by, grid)
    from ..core.rhpx import F as _F
    region = np.where(py > _F / 2, 0, np.where(py < -_F / 2, 2, 1))
    tabs = []
    for reg in np.unique(region):
        m = region == reg
        left, top = align_point(px[m].min() - cw, py[m].max() + cw, res, grid)
        ncols = max(1, math.ceil((px[m].max() - left) / cw) + 1)
        nrows = max(1, math.ceil((top - py[m].min()) / cw) + 1)
        jj, ii = np.meshgrid(np.arange(ncols), np.arange(nrows))
        xs = left + (jj.ravel() + 0.5) * cw
        ys = top - (ii.ravel() + 0.5) * cw
        lon, lat = project_inv(xs, ys, grid)
        keep = (lon >= lon_w) & (lon <= lon_e) & (lat >= lat_s) & (lat <= lat_n)
        if not keep.any():
            continue
        from ..core.rhpx import cell_from_point
        cells = cell_from_point(res, xs[keep], ys[keep], grid)
        ok = cells != ""
        if as_geodetic:
            tabs.append(pa.table({"cellid": pa.array(cells[ok], pa.string()),
                                  "lon": pa.array(lon[keep][ok]),
                                  "lat": pa.array(lat[keep][ok])}))
        else:
            tabs.append(pa.table({"cellid": pa.array(cells[ok], pa.string()),
                                  "x": pa.array(xs[keep][ok]),
                                  "y": pa.array(ys[keep][ok])}))
    if not tabs:
        empty = {"cellid": pa.array([], pa.string())}
        return rd.from_arrow(pa.table(empty))
    t = pa.concat_tables(tabs)
    # cells straddling region boundaries can appear twice (padded lattices)
    import pyarrow.compute as pc
    t = t.group_by("cellid").aggregate(
        [(c, "min") for c in t.column_names if c != "cellid"])
    t = t.rename_columns(["cellid"] + [c for c in (["lon", "lat"] if as_geodetic
                                                   else ["x", "y"])])
    return rd.from_arrow(t)


def update_cells_from_tiles(original_ds, tiles_ds, meta: dict,
                            grid: GridConfig = DEFAULT_GRID):
    """Refresh band values of an existing cell table from a (modified) raster —
    the reference's rhealpix_file_to_geodataframe_update fast path
    (rhpx_gdf_helper.py:189-258: extents must match; requires the original to
    have been built with store_nodata so every pixel has a row).  Implemented as
    a cellid join: re-explode the raster and inner-join onto the original's
    cellids, keeping the original row order irrelevant (cell tables are sets)."""
    from .raster2dggs import tiles_to_cells

    assert meta.get("store_nodata"), \
        "store_nodata must be True for the original cell table (reference " \
        "rhpx_gdf_helper.py:207-208)"
    fresh = tiles_to_cells(tiles_ds, meta, grid, store_nodata=True)
    keep_cols = [c for c in original_ds.schema().names
                 if not c.startswith("band")]
    base = original_ds.select_columns(keep_cols) if keep_cols != ["cellid"] \
        else original_ds.select_columns(["cellid"])
    return base.join(fresh, join_type="inner", on=("cellid",), num_partitions=join_partitions())

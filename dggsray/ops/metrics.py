"""Accuracy metrics as distributed partial+final aggregates.

Semantics ported from the reference (each function cites its source); execution is
Ray-Data-native: the wide side streams as tile/cell batches with vectorized numpy
kernels computing partial sums, the small side (a lookup raster, line nodes) is
broadcast; finalization is a driver-side scalar step.
"""
from __future__ import annotations

import math

import numpy as np
import pyarrow as pa

from ..core.geodesy import geodesic_distance, polygon_area_m2
from ..core.rhpx import DEFAULT_GRID, GridConfig, project_fwd, project_inv

# rHEALPix mean areal distortion (Gibb/Raichev/Speth 2013; reference
# rhpxutils.py:18-20) used to convert planar cell areas to ellipsoidal ones.
RHEALPIX_MEAN_AREAL_DISTORTION = 1.178

_SHORT_INTS = {"uint8", "uint16", "int8", "int16"}


def raster_rmse(control_tiles, control_meta: dict, test, test_meta: dict,
                every_rows: int = 1, every_cols: int = 1,
                band: int = 1) -> tuple[float, float]:
    """RMSE + bias between a control raster (tile Dataset, each row at its
    (row0, col0) pixel offset) and a test raster (in-memory (bands,H,W)
    array + meta, broadcast to every task).

    Reference semantics (rasterutils.py:197-265): strided control pixels, skip
    control/test nodata, short ints upcast before differencing, positional lookup
    by the control pixel center.  Both rasters here share the rHEALPix plane, so
    the CRS transform step is the identity (the reference builds a pyproj
    Transformer; our engine has exactly two CRSs — WGS84 geographic and the
    rHEALPix plane — handled by project_fwd/inv)."""
    import ray

    bidx = band - 1
    test_ref = ray.put((np.asarray(test), test_meta))
    c_nd = (control_meta.get("nodatavals") or [None])[bidx]
    dtype = control_meta["dtypes"][bidx]
    upcast = dtype in _SHORT_INTS
    res = control_meta["res"]
    left, top = control_meta["left"], control_meta["top"]

    def partial(b: pa.Table) -> pa.Table:
        t_arr, t_meta = ray.get(test_ref)
        t_nd = (t_meta.get("nodatavals") or [None])[bidx]
        ssq = 0.0
        sb = 0.0
        n = 0
        for k in range(b.num_rows):
            gr0 = b.column("row0")[k].as_py()
            gc0 = b.column("col0")[k].as_py()
            h = b.column("h")[k].as_py()
            w = b.column("w")[k].as_py()
            arr = np.frombuffer(b.column("data")[k].as_py(),
                                dtype=np.dtype(dtype)) \
                .reshape(control_meta["nbands"], h, w)[bidx]
            rows = np.arange((every_rows - gr0 % every_rows) % every_rows, h,
                             every_rows)
            cols = np.arange((every_cols - gc0 % every_cols) % every_cols, w,
                             every_cols)
            if rows.size == 0 or cols.size == 0:
                continue
            rr, cc = np.meshgrid(rows, cols, indexing="ij")
            vals = arr[rr, cc]
            keep = np.ones(vals.shape, dtype=bool) if c_nd is None \
                else vals != c_nd
            if not keep.any():
                continue
            x = left + (gc0 + cc[keep] + 0.5) * res
            y = top - (gr0 + rr[keep] + 0.5) * res
            trow = np.floor((t_meta["top"] - y) / t_meta["res"]).astype(np.int64)
            tcol = np.floor((x - t_meta["left"]) / t_meta["res"]).astype(np.int64)
            inb = ((trow >= 0) & (trow < t_arr.shape[1])
                   & (tcol >= 0) & (tcol < t_arr.shape[2]))
            tv = t_arr[bidx, trow[inb], tcol[inb]]
            cv = vals[keep][inb]
            ok = np.ones(tv.shape, dtype=bool) if t_nd is None else tv != t_nd
            if upcast:
                diff = tv[ok].astype(np.int64) - cv[ok].astype(np.int64)
            else:
                diff = tv[ok].astype(np.float64) - cv[ok].astype(np.float64)
            ssq += float((diff.astype(np.float64) ** 2).sum())
            sb += float(diff.sum())
            n += int(diff.size)
        return pa.table({"_ssq": pa.array([ssq]), "_sb": pa.array([sb]),
                         "_n": pa.array([n], pa.int64())})

    parts = control_tiles.map_batches(partial, batch_format="pyarrow").to_pandas()
    n = int(parts["_n"].sum())
    if n == 0:
        raise ValueError("no comparable pixels")
    return math.sqrt(parts["_ssq"].sum() / n), parts["_sb"].sum() / n


def cell_table_rmse(cells_a, cells_b, value_col: str = "band1",
                    num_partitions: int = 8) -> tuple[float, float]:
    """RMSE/bias between two cell tables joined on cellid — the cell-keyed hash
    join generalization of the positional lookup (SURVEY.md section 2.5 row 1)."""
    joined = cells_a.select_columns(["cellid", value_col]) \
        .rename_columns({value_col: "_a"}) \
        .join(cells_b.select_columns(["cellid", value_col])
              .rename_columns({value_col: "_b"}),
              join_type="inner", on=("cellid",), num_partitions=num_partitions)

    def partial(b: pa.Table) -> pa.Table:
        d = b.column("_b").to_numpy().astype(np.float64) \
            - b.column("_a").to_numpy().astype(np.float64)
        return pa.table({"_ssq": pa.array([float((d * d).sum())]),
                         "_sb": pa.array([float(d.sum())]),
                         "_n": pa.array([len(d)], pa.int64())})

    parts = joined.map_batches(partial, batch_format="pyarrow").to_pandas()
    n = int(parts["_n"].sum())
    if n == 0:
        raise ValueError("no common cells")
    return math.sqrt(parts["_ssq"].sum() / n), parts["_sb"].sum() / n


def _point_in_ring(px: float, py: float, ring: np.ndarray) -> bool:
    """Even-odd test of one point against a (possibly unclosed) ring."""
    from .vector2dggs import _points_in_ring
    if ring[0, 0] != ring[-1, 0] or ring[0, 1] != ring[-1, 1]:
        ring = np.vstack([ring, ring[:1]])
    return bool(_points_in_ring(np.array([px]), np.array([py]), ring)[0])


def vector_raster_area_error(features: list[dict], cells_ds, res_idx: int,
                             grid: GridConfig = DEFAULT_GRID,
                             value_col: str = "value"):
    """Area error per feature class: geodesic vector areas vs cell-count x
    (planar cell area / areal distortion), aggregated as RMSE + bias over classes
    (reference calculate_vector_raster_area_error, vector_to_rhpx.py:388-501; the
    worked example at :407-412 is the formula fixture).

    Returns (rmse, bias, total_vector_area, total_cells_area)."""
    from .cellify import count_cells_per_value

    vector_area: dict[int, float] = {}
    for f in features:
        fc = int(f["value"])
        rings = [np.asarray(r, dtype=np.float64) for r in f["rings"]]
        # the loaders flatten MultiPolygon parts into one rings list, so
        # "every ring after the first is a hole" is wrong — classify by
        # containment instead: a ring nested inside an ODD number of other
        # rings is a hole (winding-order-independent)
        area = 0.0
        for i, r in enumerate(rings):
            px, py = float(r[0, 0]), float(r[0, 1])
            depth = sum(_point_in_ring(px, py, o)
                        for j, o in enumerate(rings) if j != i)
            a = polygon_area_m2(r[:, 0], r[:, 1])
            area += -a if depth % 2 == 1 else a
        vector_area[fc] = vector_area.get(fc, 0.0) + area

    cell_area = grid.cell_width(res_idx) ** 2 / RHEALPIX_MEAN_AREAL_DISTORTION
    counts = count_cells_per_value(cells_ds, value_col).to_pandas()
    count_map = dict(zip(counts[value_col], counts["cells"]))

    ssq = sb = tot_v = tot_c = 0.0
    classes = sorted(vector_area)
    for fc in classes:
        va = vector_area[fc]
        ca = float(count_map.get(fc, 0)) * cell_area
        tot_v += va
        tot_c += ca
        diff = ca - va
        ssq += diff * diff
        sb += diff
    rmse = math.sqrt(ssq / len(classes))
    bias = sb / len(classes)
    return rmse, bias, tot_v, tot_c


def vector_raster_line_error(line_features: list[dict], raster: np.ndarray,
                             meta: dict,
                             grid: GridConfig = DEFAULT_GRID,
                             every_feature: int = 1, band: int = 1):
    """Mean node -> cell-center geodesic distance (penalty = cell width when the
    node's cell holds a different class), per node and per feature (reference
    calculate_vector_raster_line_error, vector_to_rhpx.py:504-637, including its
    1-in-every_feature sampling).  line_features: [{"feature_id", "value",
    "coords": (k,2) lonlat}]."""
    bidx = band - 1
    cell_width = meta["res"]
    pts, fcs = [], []
    n_features = 0
    # reference sampling loop semantics (:552-558): takes features 0, e, 2e, ...
    skip = every_feature
    for f in sorted(line_features, key=lambda f: f["feature_id"]):
        if skip < every_feature:
            skip += 1
            continue
        skip = 1
        n_features += 1
        coords = np.asarray(f["coords"], dtype=np.float64)
        pts.append(coords)
        fcs.append(np.full(coords.shape[0], int(f["value"]), dtype=np.int64))
    if not pts:
        raise ValueError("no features sampled")
    p = np.vstack(pts)
    fc = np.concatenate(fcs)
    px, py = project_fwd(p[:, 0], p[:, 1], grid)
    row = np.floor((meta["top"] - py) / meta["res"]).astype(np.int64)
    col = np.floor((px - meta["left"]) / meta["res"]).astype(np.int64)
    inb = ((row >= 0) & (row < raster.shape[1])
           & (col >= 0) & (col < raster.shape[2]))
    dist = np.zeros(p.shape[0], dtype=np.float64)
    r_in, c_in = row[inb], col[inb]
    vals = raster[bidx, r_in, c_in]
    cx = meta["left"] + (c_in + 0.5) * meta["res"]
    cy = meta["top"] - (r_in + 0.5) * meta["res"]
    clon, clat = project_inv(cx, cy, grid)
    d = geodesic_distance(clon, clat, p[inb, 0], p[inb, 1])
    match = vals == fc[inb]
    dist[inb] = np.where(match, d, cell_width)
    # out-of-raster nodes: reference logs an IndexError warning and skips; we
    # count them as a cell-width penalty (documented divergence: skipping biases
    # the mean down)
    dist[~inb] = cell_width
    total = float(dist.sum())
    return total / p.shape[0], total / n_features

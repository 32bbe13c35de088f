"""Point -> cell encoding and cell-keyed regrid aggregation as Ray Data stages.

These are the engine's generalization of the reference's per-pixel
cell_from_point loop (/root/reference/dggstools/rhpx/rhpx_gdf_helper.py:85-118) to
arbitrary point tables, plus the majority/mean cell aggregation of the target
north_star.  All kernels are zero-copy Arrow in / Arrow out, and every
aggregation is one ops.joins.sized_groupby call, whose per-block partials move
one row per (cell, block) instead of one per input row.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..core.rhpx import DEFAULT_GRID, GridConfig, cells_from_lonlat, cell_centroid
from ..core.cells import truncate_to_resolution


def add_cellid_batch(batch: pa.Table, lon_col: str, lat_col: str, res: int,
                     grid: GridConfig = DEFAULT_GRID,
                     out_col: str = "cellid") -> pa.Table:
    lon = batch.column(lon_col).to_numpy(zero_copy_only=False)
    lat = batch.column(lat_col).to_numpy(zero_copy_only=False)
    cells = cells_from_lonlat(res, lon, lat, grid)
    return batch.append_column(out_col, pa.array(cells, pa.string()))


def with_cellid(ds, lon_col: str, lat_col: str, res: int,
                grid: GridConfig = DEFAULT_GRID, out_col: str = "cellid",
                batch_size: int = 65536):
    """Dataset stage: append a cellid column computed from lon/lat columns."""
    return ds.map_batches(
        lambda b: add_cellid_batch(b, lon_col, lat_col, res, grid, out_col),
        batch_format="pyarrow", batch_size=batch_size)


def add_centroid_batch(batch: pa.Table, cell_col: str = "cellid",
                       grid: GridConfig = DEFAULT_GRID) -> pa.Table:
    cells = batch.column(cell_col).to_numpy(zero_copy_only=False)
    x, y = cell_centroid(cells, grid)
    return batch.append_column("x", pa.array(x)).append_column("y", pa.array(y))


def _at_resolution(ds, cell_col: str, res: int | None):
    """Coarsen the cell column to `res` (the identity when res is None)."""
    if res is None:
        return ds

    def coarsen(b: pa.Table) -> pa.Table:
        cells = truncate_to_resolution(
            b.column(cell_col).to_numpy(zero_copy_only=False), res)
        return b.set_column(b.schema.get_field_index(cell_col), cell_col,
                            pa.array(cells, pa.string()))

    return ds.map_batches(coarsen, batch_format="pyarrow")


def regrid_mean(ds, value_col: str, res: int | None = None,
                cell_col: str = "cellid", out_col: str = "mean_value"):
    """Mean of the non-null values per (optionally coarsened) cell, with their
    count `n`: one sized_groupby (Sum + non-null Count), then sum/count.  Its
    per-block partial collapses hot cells inside every block before any
    exchange, which is what makes skewed groupbys safe (SURVEY.md section 4
    skew row)."""
    from ray.data.aggregate import Count, Sum

    from .joins import sized_groupby
    agg = sized_groupby(_at_resolution(ds, cell_col, res), cell_col,
                        Sum(value_col, alias_name="_sum"),
                        Count(value_col, ignore_nulls=True,
                              alias_name="_count"))

    def finalize(b: pa.Table) -> pa.Table:
        mean = pc.divide(b.column("_sum"), pc.cast(b.column("_count"), pa.float64()))
        return pa.table({cell_col: b.column(cell_col), out_col: mean,
                         "n": b.column("_count")})

    return agg.map_batches(finalize, batch_format="pyarrow")


def regrid_majority(ds, value_col: str, res: int | None = None,
                    cell_col: str = "cellid", out_col: str = "majority_value"):
    """Majority (mode) value per (optionally coarsened) cell, with its count
    `n`; ties break to the smallest value (matching a deterministic SQL
    oracle: ORDER BY cnt DESC, value ASC LIMIT 1 per cell).  One
    sized_groupby counts each (cell, value), then `_argmax_by_score` picks
    per cell.  The value column must hold integers in [-2^20, 2^20) (class
    ids, nation keys, burn values, nodata sentinels); map strings to ids
    with vector2dggs.feature_class_values first.  Anything else raises."""
    from ray.data.aggregate import Count

    from .joins import sized_groupby
    counts = sized_groupby(_at_resolution(ds, cell_col, res),
                           [cell_col, value_col], Count(alias_name="_cnt"))
    return _argmax_by_score(counts, cell_col, value_col, out_col)


_MAJ_K = 1 << 21     # value universe for the packed argmax score
_MAJ_BIAS = 1 << 20  # shift so signed sentinels (e.g. -1 nodata) qualify


def _argmax_by_score(counts, cell_col: str, value_col: str, out_col: str):
    """Per-cell argmax(cnt desc, value asc) over (cell, value, _cnt) rows as
    ONE sized_groupby Max: score = cnt * K + (K-1-(value+BIAS)) packs the
    comparison into a single int64, so no per-group Python call runs even
    with millions of distinct cells.  Integer values only: a non-integer
    value column raises TypeError and a value outside [-2^20, 2^20) raises
    ValueError, both from the encode kernel.  Per-(cell, value) counts must
    stay below 2^42."""
    from ray.data.aggregate import Max

    from .joins import sized_groupby

    def encode(b: pa.Table) -> pa.Table:
        col = b.column(value_col)
        if not pa.types.is_integer(col.type):
            raise TypeError(
                f"majority value column {value_col!r} is {col.type}, not an "
                f"integer: map values to integer ids first "
                f"(vector2dggs.feature_class_values)")
        v = col.to_numpy().astype(np.int64) + _MAJ_BIAS
        if v.size and (v.min() < 0 or v.max() >= _MAJ_K):
            raise ValueError(
                f"majority value out of [-{_MAJ_BIAS}, {_MAJ_BIAS}): "
                f"packed-score argmax needs bounded integer values")
        cnt = b.column("_cnt").to_numpy().astype(np.int64)
        score = cnt * _MAJ_K + (_MAJ_K - 1 - v)
        return pa.table({cell_col: b.column(cell_col),
                         "_score": pa.array(score)})

    best = sized_groupby(counts.map_batches(encode, batch_format="pyarrow"),
                         cell_col, Max("_score", alias_name="_score"))

    def decode(b: pa.Table) -> pa.Table:
        s = b.column("_score").to_numpy()
        return pa.table({cell_col: b.column(cell_col),
                         out_col: pa.array(_MAJ_K - 1 - (s % _MAJ_K)
                                           - _MAJ_BIAS),
                         "n": pa.array(s // _MAJ_K)})

    return best.map_batches(decode, batch_format="pyarrow")


def count_cells_per_value(ds, value_col: str, cell_col: str = "cellid"):
    """groupby(value).count over cell rows — the reference's per-class cell count
    (vector_to_rhpx.py:481-484) as a distributed aggregate."""
    from ray.data.aggregate import Count

    from .joins import sized_groupby
    return sized_groupby(ds, value_col, Count(alias_name="cells"))

"""The flagship end-to-end pipeline (BASELINE.json metric):

    image+caption table -> [read -> decode -> rHEALPix warp to packed cell keys
    -> probe the burned-polygon cell index -> per-image aggregate]

one plain Ray task per image-table file.  This is the reference's raster->rHPX
conversion (SURVEY.md section 3.1) and vector->rHPX rasterize (section 3.2)
composed into the cell-join the north_star describes.  Each task reads its
parquet file with pyarrow and joins it: pixels probe a sorted vector index in
the same pass that reads them (the Raptor shape, PAPERS.md), with no actor
pool and no Ray Data operator.  A Ray Data map would size each task's output
at `target_max_block_size` until its first task returns, and with op resource
reservation that budget admits one task at a time: the first wave would run
serially although a file's result is ~39 KB.  Throughput metric: images/sec
end-to-end.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..core.rhpx import DEFAULT_GRID, GridConfig
from ..io.imagetable import ensure_image_table, _CLUSTER_LON, _CLUSTER_LAT
from ..ops.raster2dggs import ImageToCells
from ..ops.vector2dggs import burn_polygons_to_cells, feature_class_values

FLAGSHIP_RES = 8


def synthetic_polygons(n: int = 48, seed: int = 7) -> list[dict]:
    """Deterministic vector side: n quadrilateral features spread over the globe
    (plus three stacked over the image cluster to exercise paint order), with
    string classes that exercise the first-seen dictionary."""
    rng = np.random.default_rng(seed)
    feats = []
    classes = []
    for i in range(n):
        u1, u2 = (i * 0.7548776662466927) % 1.0, (i * 0.5698402909980532) % 1.0
        lon = -175.0 + 350.0 * u1
        lat = np.degrees(np.arcsin(2.0 * min(max(u2, 0.03), 0.97) - 1.0))
        lat = float(np.clip(lat, -60, 60))
        he = 0.5 + (i % 4) * 0.25       # half extent in degrees
        jit = rng.uniform(-0.1, 0.1, size=8)
        ring = np.array([
            [lon - he + jit[0], lat - he + jit[1]],
            [lon + he + jit[2], lat - he + jit[3]],
            [lon + he + jit[4], lat + he + jit[5]],
            [lon - he + jit[6], lat + he + jit[7]],
        ])
        feats.append({"feature_id": i, "rings": [ring]})
        classes.append(f"class_{i % 7}")
    for j, (dlon, dlat, he) in enumerate([(-0.4, -0.4, 0.9), (0.3, 0.2, 0.7),
                                          (0.0, 0.0, 0.5)]):
        lon, lat = _CLUSTER_LON + dlon, _CLUSTER_LAT + dlat
        ring = np.array([[lon - he, lat - he], [lon + he, lat - he],
                         [lon + he, lat + he], [lon - he, lat + he]])
        feats.append({"feature_id": n + j, "rings": [ring]})
        classes.append(f"cluster_{j}")
    values = feature_class_values(classes)
    for f, v in zip(feats, values):
        f["value"] = int(v)
    return feats


import functools


@functools.lru_cache(maxsize=8)
def _vector_cells_cached(res: int, grid_key: tuple):
    grid = GridConfig(*grid_key)
    t = burn_polygons_to_cells(synthetic_polygons(), res, grid)
    vals = t.column("value").to_numpy().astype(np.int64)
    # packed int64 join keys (via each cell's centroid — strictly inside the
    # cell, so the key is exact): 8 B/cell instead of a 36+ B unicode cell.
    from ..core.rhpx import cell_centroid, cell_keys_from_point
    cx, cy = cell_centroid(t.column("cellid"), grid)
    keys = cell_keys_from_point(res, cx, cy, grid)
    order = np.argsort(keys)
    return t, keys[order], vals[order]


def vector_cells_table(res: int = FLAGSHIP_RES,
                       grid: GridConfig = DEFAULT_GRID) -> pa.Table:
    """Burn the synthetic polygons to (cellid, value).  Driver-side burn (the
    vector side is the broadcast-small side); the distributed variant lives in
    ops.vector2dggs.polygons_to_cells_ds for big vector inputs."""
    return _vector_cells_cached(res, (grid.n_side, grid.north_square,
                                      grid.south_square))[0]


def vector_cells_sorted(res: int = FLAGSHIP_RES,
                        grid: GridConfig = DEFAULT_GRID):
    """(sorted packed-int64 cell keys, aligned value array) — the broadcast
    join index, pre-sorted once on the driver so the per-block kernel
    constructors are trivial."""
    _, c, v = _vector_cells_cached(res, (grid.n_side, grid.north_square,
                                         grid.south_square))
    return c, v


class ImageCellJoinAgg(ImageToCells):
    """Flagship join kernel: decode -> warp to cells -> broadcast cell join ->
    per-image aggregate, all inside one `__call__` on a batch of image rows.

    Every image's cell rows are produced and consumed inside a single call
    (images are the natural partition of a 10^12-row image table), and the
    vector side is a broadcast lookup (sorted cell array + np.searchsorted),
    so the per-image join+majority needs NO shuffle at any input size.  The
    cell-level groupby shuffles live in the regrid queries (ops.cellify),
    where cross-image aggregation genuinely requires them.

    The pipelines build one instance per image-table file inside that
    file's plain Ray task (see `_join_file`); construction is cheap, so
    there is no long-lived state to keep in an actor.

    `poly_ref` is the join index in one of three forms:
    - `[ref]`: a 1-element list wrapping a `ray.ObjectRef` to the
      `(sorted keys, values)` pair of `vector_cells_sorted`.  The ~13 MB
      index is put into the object store once per pipeline call and fetched
      zero-copy here; the list keeps Ray from resolving the ref itself;
    - that `(keys, values)` pair by value;
    - a `(cellid, value)` string table, packed here via cell centroids.
    """

    def __init__(self, poly_ref, **kw):
        super().__init__(**kw)
        self.use_keys = True       # join on packed int64 keys, never strings
        if isinstance(poly_ref, list):
            import ray
            poly_ref = ray.get(poly_ref[0])
        if isinstance(poly_ref, pa.Table):
            # (cellid, value) string table: pack via centroids
            from ..core.rhpx import cell_centroid, cell_keys_from_point
            vals = poly_ref.column("value").to_numpy().astype(np.int64)
            cx, cy = cell_centroid(poly_ref.column("cellid"), self.grid)
            keys = cell_keys_from_point(self.res, cx, cy, self.grid)
            order = np.argsort(keys)
            poly_ref = (keys[order], vals[order])
        # pre-sorted (packed keys, values) arrays from vector_cells_sorted
        self.poly_cells, self.poly_vals = poly_ref

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, (img_idx, cells, vals) = self._batch_cells(batch)
        nimg = len(ids)
        if cells.size == 0 or self.poly_cells.size == 0:
            # nothing to join (no image cells, or an empty polygon index —
            # indexing an empty index would raise); n_cells still counts
            return pa.table({"image_id": pa.array(ids, pa.string()),
                             "n_cells": pa.array(
                                 np.bincount(img_idx, minlength=nimg)
                                 .astype(np.int64)),
                             "n_matched": pa.array(np.zeros(nimg, np.int64)),
                             "majority_value": pa.array(np.full(nimg, -1, np.int64))})
        # broadcast join: sorted lookup of each cell in the polygon cell index
        pos = np.searchsorted(self.poly_cells, cells)
        pos_c = np.clip(pos, 0, self.poly_cells.size - 1)
        matched = self.poly_cells[pos_c] == cells
        value = np.where(matched, self.poly_vals[pos_c], -1)
        # per-image aggregates (vectorized; rows of an image are contiguous)
        n_cells = np.bincount(img_idx, minlength=nimg).astype(np.int64)
        n_matched = np.bincount(img_idx, weights=matched.astype(np.float64),
                                minlength=nimg).astype(np.int64)
        majority = np.full(nimg, -1, dtype=np.int64)
        m_idx, m_val = img_idx[matched], value[matched]
        if m_idx.size:
            K = int(self.poly_vals.max()) + 2 if self.poly_vals.size else 2
            key = m_idx * K + m_val
            uniq, counts = np.unique(key, return_counts=True)
            u_img, u_val = uniq // K, uniq % K
            # per image: max count, ties to smallest value
            order = np.lexsort((u_val, -counts, u_img))
            u_img, u_val = u_img[order], u_val[order]
            first = np.ones(u_img.size, dtype=bool)
            first[1:] = u_img[1:] != u_img[:-1]
            majority[u_img[first]] = u_val[first]
        return pa.table({
            "image_id": pa.array(ids, pa.string()),
            "n_cells": pa.array(n_cells),
            "n_matched": pa.array(n_matched),
            "majority_value": pa.array(majority),
        })


class TimedImageCellJoinAgg(ImageCellJoinAgg):
    """ImageCellJoinAgg that appends one '(start, end, rows)' line per call to
    $GRAFT_CALLLOG/<pid>.log — used by bench --scaling to compute SUSTAINED
    steady-state throughput (the middle of the run, all workers busy).  The
    wall-clock window of a short single-box run is ramp(worker spawn + imports)
    + steady + tail; on a long-running cluster job ramp and tail amortize to
    zero, so the sustained rate is the honest N-vs-4N quantity."""

    def __init__(self, **kw):
        super().__init__(**kw)
        import os
        d = os.environ.get("GRAFT_CALLLOG", "/tmp/dggsray_calllog")
        os.makedirs(d, exist_ok=True)
        self._log_path = f"{d}/{os.getpid()}.log"

    def __call__(self, batch: pa.Table) -> pa.Table:
        import time
        t0 = time.time()
        out = super().__call__(batch)
        with open(self._log_path, "a") as f:
            f.write(f"{t0:.4f} {time.time():.4f} {batch.num_rows}\n")
        return out


def sustained_throughput(log_dir: str, lo_q: float = 0.1,
                         hi_q: float = 0.9) -> float | None:
    """Rows/sec over the inner-quantile window of logged call times: rows of
    calls fully inside [q10 of starts, q90 of ends] divided by that span."""
    import glob

    ev = []
    for f in glob.glob(f"{log_dir}/*.log"):
        for line in open(f):
            p = line.split()
            ev.append((float(p[0]), float(p[1]), int(p[2])))
    if len(ev) < 10:
        return None
    starts = np.array([e[0] for e in ev])
    ends = np.array([e[1] for e in ev])
    rows = np.array([e[2] for e in ev])
    t_lo = np.quantile(starts, lo_q)
    t_hi = np.quantile(ends, hi_q)
    if t_hi <= t_lo:
        return None
    inside = (starts >= t_lo) & (ends <= t_hi)
    if not inside.any():
        return None
    return float(rows[inside].sum() / (t_hi - t_lo))


# Per-call image cap for the join kernel: the concatenated per-call lattice
# (images x 4096 pixel cells) must stay inside the LLC working set — measured
# 0.33 ms/img at <=1250 images/call vs 3.13 ms/img at 5555 (cache thrash in
# the packed-key searchsorted probe).  A file is one task; `_join_block`
# slices it into calls of this size.
FLAGSHIP_BATCH = 625


def _join_block(block: pa.Table, cls, poly_ref, res: int, grid: GridConfig,
                verify: bool, batch_size: int) -> pa.Table:
    """Join a whole block of image rows, `batch_size` rows per kernel call.
    The kernel is built here, per block: that is a zero-copy `ray.get` of
    the index plus a trivial constructor."""
    op = cls(poly_ref=poly_ref, dst_resolution_idx=res, grid=grid,
             verify=verify)
    starts = range(0, block.num_rows, batch_size) or [0]
    return pa.concat_tables([op(block.slice(i, batch_size)) for i in starts])


def _join_file(path: str, shard: tuple | None, **join) -> pa.Table:
    """Task: read one image-table parquet file and join it.  `shard =
    (part, n_parts)` keeps only the rows whose image_id crc falls in `part`
    (deterministic row buckets for a resumable run over few files)."""
    import zlib

    import pyarrow.parquet as pq

    block = pq.read_table(path)
    if shard is not None:
        part, n_parts = shard
        mask = np.array([zlib.crc32(i.encode()) % n_parts == part
                         for i in block.column("image_id").to_pylist()],
                        dtype=bool)           # bool even when the file is empty
        block = block.filter(pa.array(mask))
    return _join_block(block, **join)


def _join_files(files: list[str], res: int, grid: GridConfig, verify: bool,
                batch_size: int = FLAGSHIP_BATCH, cls=ImageCellJoinAgg,
                shard: tuple | None = None):
    """Image-table files -> per-image join result: one plain Ray task per
    file (a file listed twice runs twice), returned through
    `joins.materialized`, which waits for the tasks."""
    import ray

    from ..ops.joins import _remote, materialized

    # nested-ref broadcast: put once, fetched zero-copy per task
    poly_idx = [ray.put(vector_cells_sorted(res, grid))]
    task = _remote(_join_file)
    return materialized([
        task.remote(f, shard, cls=cls, poly_ref=poly_idx, res=res, grid=grid,
                    verify=verify, batch_size=batch_size) for f in files])


def _image_files(sf: float) -> list[str]:
    import glob
    import os

    return sorted(glob.glob(os.path.join(ensure_image_table(sf), "*.parquet")))


def flagship_resumable(sf: float, out_dir: str, res: int = FLAGSHIP_RES,
                       grid: GridConfig = DEFAULT_GRID, n_parts: int | None = None,
                       fail_after: int | None = None):
    """Checkpointed flagship run: the image table's parquet files are split into
    partitions; each writes its own output + lineage record and is skipped on
    resume (io.lineage).  With fewer files than partitions, every partition
    joins every file and keeps its crc bucket of image_ids.  Returns
    (n_computed, n_skipped)."""
    from ..io.lineage import run_resumable

    files = _image_files(sf)
    shard_by_rows = len(files) < (n_parts or len(files))

    def make(part_files, part, nparts):
        return _join_files(part_files, res, grid, verify=False,
                           shard=(part, nparts) if shard_by_rows else None)

    return run_resumable(files, out_dir, make, n_parts, fail_after)


def flagship_pipeline(sf: float, res: int = FLAGSHIP_RES,
                      grid: GridConfig = DEFAULT_GRID, verify: bool = False,
                      batch_size=FLAGSHIP_BATCH):
    """Returns the per-image result Dataset:
    (image_id, n_cells, n_matched, majority_value), one block per image-table
    parquet file.

    One plain Ray task per file reads it with pyarrow and joins it,
    `batch_size` images per kernel call (see FLAGSHIP_BATCH).  Parallelism
    follows the table's file count, with no row-range splitting: sf0.01 has
    5 files, sf0.001 has 1 and runs as a single task.  The Dataset is not
    lazy: the call returns once every task has finished."""
    return _join_files(_image_files(sf), res, grid, verify, batch_size)


def flagship_epochs(sf: float, epochs: int, res: int = FLAGSHIP_RES,
                    grid: GridConfig = DEFAULT_GRID, verify: bool = True):
    """`epochs` passes over the image table through the same per-file join
    tasks as `flagship_pipeline`, all submitted at once: the steady-state
    throughput measurement used by bench --scaling (which sets
    $GRAFT_CALLLOG to log every kernel call, see TimedImageCellJoinAgg).
    Each task reads its file itself, so every epoch re-reads the table.
    Returns when every pass has finished."""
    import os

    cls = TimedImageCellJoinAgg if os.environ.get("GRAFT_CALLLOG") \
        else ImageCellJoinAgg
    return _join_files(_image_files(sf) * epochs, res, grid, verify, cls=cls)

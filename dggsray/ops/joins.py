"""Cell-keyed joins and lookups (the reference has no relational join operator; its
join-like computations are positional lookups — SURVEY.md section 2.5.  Here they
become first-class, cellid-keyed joins):

- broadcast_semi_join / broadcast_lookup_join: small side collected once, shipped
  via ray.put, probed inside map_batches (no shuffle of the big side).
- hash_join: both sides large -> native Ray Data hash join.
- knn_cells: k nearest cell rows to a query cell via packed-cellid prefix ranges
  (the index-prefix range scan of BASELINE.json north_star).
"""
from __future__ import annotations

import threading

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..core.cells import truncate_to_resolution
from ..core.rhpx import DEFAULT_GRID, GridConfig, cell_centroid


# Serializes LAZY PLAN CONSTRUCTION (read_parquet path resolution) across
# driver threads: ray's _is_http_filesystem import degrades from the
# ModuleNotFoundError it catches to a plain ImportError when two threads
# interleave the fsspec http import (aiohttp absent here).  Execution is
# never held — only the ms-scale plan build.
PLAN_LOCK = threading.Lock()


def join_partitions() -> int:
    """Hash-join partition count sized to the cluster: ~1 partition per CPU
    (floor 8).  A fixed 8 would serialize the probe side on a 256-node
    cluster; per-CPU keeps partitions ~constant-sized as the cluster grows."""
    import ray
    return max(8, int(ray.cluster_resources().get("CPU", 8)))


def dim_flag_bitmap(ds, key_col: str, pred) -> np.ndarray:
    """Distributed build of a dense key -> flag bitmap over a dimension
    table whose integer primary key is `key_col`.  The predicate runs
    IN-TASK over Arrow blocks (so string columns like p_type/p_name
    never leave the cluster); only the flagged keys stream back, and the
    driver scatters them into the bool[n] bitmap one batch at a time —
    it holds the n-byte bitmap plus one batch, never the dimension
    frame.  TPC-H part/supplier/customer scale linearly with the fact
    tables, so the round-4 pattern (collect the frame, build the bitmap
    in pandas) held multi-GB on the driver at 100x SF; this holds 20 MB
    for a 20M-row part table and moves O(#flagged) int64s.

    `pred(block) -> bool ndarray` aligned with the block's rows selects
    which keys flag true.  Broadcast the result with ray.put.

    ONE pass: each block emits its flagged keys plus a trailing
    (-1, block-max) sentinel row, so the stream carries the global key
    extent and no separate max() execution is needed; the driver holds
    the flagged int64 keys (never the frame) until the extent is known,
    then scatters once."""
    def kernel(blk: pa.Table) -> pa.Table:
        keys = blk.column(key_col).to_numpy().astype(np.int64)
        k = keys[np.asarray(pred(blk), dtype=bool)]
        mx = int(keys.max()) if keys.size else -1
        return pa.table({"_k": pa.array(np.r_[k, -1], pa.int64()),
                         "_m": pa.array(np.r_[np.full(k.size, -1,
                                                      np.int64), mx])})

    chunks, n = [], 0
    for b in ds.map_batches(kernel, batch_format="pyarrow") \
            .iter_batches(batch_format="pyarrow"):
        k = b.column("_k").to_numpy()
        chunks.append(k[k >= 0])
        m = b.column("_m").to_numpy()
        if m.size:
            n = max(n, int(m.max()) + 1)
    out = np.zeros(n, dtype=bool)
    for k in chunks:
        out[k] = True
    return out


def dim_dense_map(ds, key_col: str, val_fn, fill: int = -1,
                  dtype=np.int32) -> np.ndarray:
    """Distributed build of a dense key -> small-int map (e.g. suppkey
    -> nationkey) over a dimension table: `val_fn(block) -> int ndarray`
    runs in-task, rows whose value equals `fill` are dropped at the
    source, and the surviving (key, value) pairs stream back (ONE pass;
    a trailing (-1, block-max) sentinel row carries the key extent) to
    a vectorized scatter — the driver holds the kept int64 pairs and
    the n*itemsize map, never the frame.  Exact because `key_col` is a
    primary key (each key written at most once)."""
    def kernel(blk: pa.Table) -> pa.Table:
        keys = blk.column(key_col).to_numpy().astype(np.int64)
        vals = np.asarray(val_fn(blk)).astype(np.int64)
        m = vals != fill
        mx = int(keys.max()) if keys.size else -1
        return pa.table({"_k": pa.array(np.r_[keys[m], -1], pa.int64()),
                         "_v": pa.array(np.r_[vals[m], mx], pa.int64())})

    chunks, n = [], 0
    for b in ds.map_batches(kernel, batch_format="pyarrow") \
            .iter_batches(batch_format="pyarrow"):
        k = b.column("_k").to_numpy()
        v = b.column("_v").to_numpy()
        good = k >= 0
        chunks.append((k[good], v[good]))
        if (~good).any():
            n = max(n, int(v[~good].max()) + 1)
    out = np.full(n, fill, dtype=dtype)
    for k, v in chunks:
        out[k] = v.astype(dtype)
    return out


def build_parallel(*thunks):
    """Run several independent driver-side builds (dim_flag_bitmap /
    dim_dense_map calls) concurrently on threads: each is dominated by
    a blocking Ray Data execution, so overlapping them costs max()
    instead of sum() of their walls.  Returns results in thunk order."""
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=len(thunks)) as ex:
        futs = [ex.submit(t) for t in thunks]
        return [f.result() for f in futs]


def broadcast_semi_join(ds, keys, key_col: str = "cellid", res: int | None = None,
                        anti: bool = False):
    """Keep rows whose (optionally prefix-truncated) key is in `keys`.
    `keys` is an iterable of strings, ray.put once; each task reads the ref."""
    import ray

    key_ref = ray.put(pa.array(sorted(set(keys)), pa.string()))

    def probe(batch: pa.Table) -> pa.Table:
        kset = ray.get(key_ref)
        col = batch.column(key_col)
        if res is not None:
            vals = truncate_to_resolution(col.to_numpy(zero_copy_only=False), res)
            col = pa.array(vals, pa.string())
        mask = pc.is_in(col, value_set=kset)
        if anti:
            mask = pc.invert(mask)
        return batch.filter(mask)

    return ds.map_batches(probe, batch_format="pyarrow")


def broadcast_lookup_join(ds, lookup: pa.Table, key_col: str = "cellid",
                          res: int | None = None, how: str = "inner"):
    """Inner/left join of a streaming dataset with a small broadcast table keyed by
    key_col (the lookup's key column must be unique)."""
    import ray

    lk_ref = ray.put(lookup)

    def probe(batch: pa.Table) -> pa.Table:
        lk = ray.get(lk_ref)
        b = batch
        join_key = key_col
        if res is not None:
            vals = truncate_to_resolution(
                b.column(key_col).to_numpy(zero_copy_only=False), res)
            b = b.append_column("_jk", pa.array(vals, pa.string()))
            join_key = "_jk"
        out = b.join(lk, keys=join_key, right_keys=key_col,
                     join_type="inner" if how == "inner" else "left outer")
        if join_key == "_jk":
            out = out.drop_columns(["_jk"])
        return out

    return ds.map_batches(probe, batch_format="pyarrow")


def adaptive_join(left, right, on: str, broadcast_limit: int = 2_000_000,
                  num_partitions: int | None = None):
    """Inner join picking the strategy by the MEASURED size of `right`:
    at or below `broadcast_limit` rows the right side is collected once,
    ray.put, and probed per batch (broadcast_lookup_join — zero shuffle,
    probe-side block layout preserved); above it, the native hash-shuffle
    join.  Besides the shuffle saved, the broadcast path also sidesteps
    Ray's hash-join aggregator failing on partitions that received no
    blocks (tiny inputs spread over per-CPU partitions leave most empty).
    The right side is materialized once up front: count() would otherwise
    execute its lineage a second time before the collect/join consumed it
    again."""
    right = right.materialize()
    if right.count() <= broadcast_limit:
        sch = right.schema()
        pa_sch = pa.schema(list(zip(sch.names, sch.types)))
        tabs = [b.select(pa_sch.names) for b in
                right.iter_batches(batch_format="pyarrow", batch_size=None)
                if b.num_rows]
        tbl = pa.concat_tables(tabs).cast(pa_sch) if tabs \
            else pa_sch.empty_table()
        return broadcast_lookup_join(left, tbl, key_col=on)
    return hash_join(left, right, on=on,
                     num_partitions=num_partitions or join_partitions())


def hash_join(left, right, on: str = "cellid", join_type: str = "inner",
              num_partitions: int = 16):
    """Large-large hash join on a key column (native Ray Data shuffle join)."""
    return left.join(right, join_type=join_type, on=(on,),
                     num_partitions=num_partitions)


_ARROW_FNS = {"Sum": "sum", "Min": "min", "Max": "max"}


def sized_groupby(ds, key, *aggs, rows_per_part: int = 1_000_000,
                  single_block_rows: int = 8_000_000):
    """The engine's grouped aggregation: `ds.groupby(key).aggregate(*aggs)`
    for Sum, Min, Max and Count without Ray's sort-shuffle Aggregate at
    sizes where its fixed cost dominates.  Feed it the raw rows: phase 1 is
    the per-batch partial, so callers need no partial of their own.

    Phase 1 always runs: per-block Arrow group_by partials (Sum of Sums /
    Min of Mins / Max of Maxes are associative; counts combine by Sum),
    then again on blocks coalesced to ~rows_per_part rows, materialized —
    partials are bounded by (distinct keys x blocks), tiny relative to
    input.  `Count(col, ignore_nulls=True)` counts the non-null values of
    `col`; any other Count counts rows.

    Phase 2 picks by MEASURED size (the streaming planner cannot know it):
    under single_block_rows, ONE more Arrow group_by over the concatenated
    partials finishes the job in a single task — measured 0.8 s vs 6-8 s for
    Ray's sort/hash Aggregate on a 580k-row input, whose per-operator constant
    dominates below ~10M rows.  Low-cardinality keys (coarse cells, lang,
    type, hour...) always take this path: Ray's sort-shuffle, with one
    output partition per input block, cost ~7 s of fixed overhead per small
    groupby at sf0.1.  Above the limit (the true 100 TB regime, where keys
    do not fit one block) it falls back to the distributed Aggregate, whose
    overhead amortizes at that scale.  Other aggregations skip both phases
    and go straight to Ray's Aggregate."""
    keys = [key] if isinstance(key, str) else list(key)
    spec = []          # (src_col_or_None, level1_fn, alias); Count -> row
    for a in aggs:     # count at level 1, Sum of counts afterwards
        cls = type(a).__name__
        if cls == "Count":
            col = a._target_col_name if a._ignore_nulls else None
            spec.append((col, "count" if col else "count_all", a.name))
            continue
        fn = _ARROW_FNS.get(cls)
        if fn is None:                       # non-decomposable agg: shuffle
            return ds.repartition(target_num_rows_per_block=rows_per_part) \
                     .groupby(key).aggregate(*aggs)
        spec.append((a._target_col_name, fn, a.name))

    def partial(b: pa.Table) -> pa.Table:
        g = b.group_by(keys).aggregate(
            [([] if c is None else c, fn) for c, fn, _ in spec])
        return g.rename_columns(keys + [alias for _, _, alias in spec])

    partials = ds.map_batches(partial, batch_format="pyarrow") \
        .repartition(target_num_rows_per_block=rows_per_part) \
        .map_batches(partial_again(keys, spec), batch_format="pyarrow",
                     batch_size=None) \
        .materialize()
    if partials.count() <= single_block_rows:
        return partials.repartition(1).map_batches(
            partial_again(keys, spec), batch_format="pyarrow",
            batch_size=None)
    import ray.data.aggregate as agg_mod
    final_aggs = [
        (agg_mod.Sum if type(a).__name__ == "Count"
         else getattr(agg_mod, type(a).__name__))(alias, alias_name=alias)
        for a, (_, _, alias) in zip(aggs, spec)]
    return partials.groupby(key).aggregate(*final_aggs)


def partial_again(keys, spec):
    """Second/final-level combiner: aggregate the alias columns in place
    (counts combine by sum)."""
    def kernel(b: pa.Table) -> pa.Table:
        g = b.group_by(keys).aggregate(
            [(alias, "sum" if fn.startswith("count") else fn)
             for _, fn, alias in spec])
        return g.rename_columns(keys + [alias for _, _, alias in spec])
    return kernel


def union_groupby_inner(left, right, key_col: str,
                        left_cols: list[str], right_cols: list[str]):
    """Inner join of two (key -> int64 metrics) datasets expressed as union +
    ONE native grouped Sum — no hash-join aggregator actors, one shuffle total.

    Each side's rows are padded with zeros for the other side's metric columns
    plus a presence counter; after the grouped Sum, rows seen on both sides
    survive the filter.  Metric columns must be summable int64 partials (the
    caller's per-batch pre-aggregation output), so summing partials across
    blocks IS the per-key total — this replaces groupby(left) + groupby(right)
    + join(32 actors) with a single Aggregate operator.  Scale: the shuffle
    moves one row per (block, key), same volume as the join's build side."""
    def pad(side_cols, other_cols, pres):
        def kernel(b: pa.Table) -> pa.Table:
            n = b.num_rows
            zeros = pa.array(np.zeros(n, dtype=np.int64))
            ones = pa.array(np.ones(n, dtype=np.int64))
            cols = {key_col: b.column(key_col)}
            for c in side_cols:
                cols[c] = pc.cast(b.column(c), pa.int64())
            for c in other_cols:
                cols[c] = zeros
            cols["_ha"] = ones if pres == "a" else zeros
            cols["_hb"] = ones if pres == "b" else zeros
            return pa.table(cols)
        return kernel

    from ray.data.aggregate import Sum

    u = left.map_batches(pad(left_cols, right_cols, "a"),
                         batch_format="pyarrow").union(
        right.map_batches(pad(right_cols, left_cols, "b"),
                          batch_format="pyarrow"))
    aggs = [Sum(c, alias_name=c) for c in (*left_cols, *right_cols)]
    aggs += [Sum("_ha", alias_name="_ha"), Sum("_hb", alias_name="_hb")]
    g = sized_groupby(u, key_col, *aggs)

    def keep_both(b: pa.Table) -> pa.Table:
        mask = pc.and_(pc.greater(b.column("_ha"), 0),
                       pc.greater(b.column("_hb"), 0))
        return b.filter(mask).drop_columns(["_ha", "_hb"])

    return g.map_batches(keep_both, batch_format="pyarrow")


def knn_cells(ds, query_cellid: str, k: int, key_col: str = "cellid",
              grid: GridConfig = DEFAULT_GRID,
              tiebreak_cols: list[str] | None = None):
    """k rows nearest to query cell via index-prefix pruning, in TWO dataset
    passes total (not one per prefix length):

      1. one scan computes every row's longest-common-prefix length with the
         query cell and aggregates the (tiny, <= res+1 row) LCP histogram;
      2. the deepest prefix length with >= k cumulative rows selects the
         candidate region; one filtered scan computes exact planar distances
         and a partial top-k (ops.topk — no global sort).

    Distances use sqrt(dx^2+dy^2) (not np.hypot) so a SQL oracle computing the
    same expression agrees to the last ulp.  Ties are broken on tiebreak_cols
    (default: the cell column) for deterministic output."""
    qx, qy = cell_centroid([query_cellid], grid)
    qx, qy = float(qx[0]), float(qy[0])
    qlen = len(query_cellid)

    def lcp_hist(batch: pa.Table) -> pa.Table:
        col = batch.column(key_col)
        m = np.zeros(batch.num_rows, dtype=np.int32)
        for p in range(1, qlen + 1):
            hit = pc.equal(pc.utf8_slice_codeunits(col, 0, p),
                           query_cellid[:p]).to_numpy(zero_copy_only=False)
            m = np.where(hit, p, m)
            if not hit.any():
                break
        lv, cnt = np.unique(m, return_counts=True)
        return pa.table({"lcp": pa.array(lv.astype(np.int64), pa.int64()),
                         "_c": pa.array(cnt.astype(np.int64))})

    from ray.data.aggregate import Sum
    hist = sized_groupby(ds.map_batches(lcp_hist, batch_format="pyarrow"),
                         "lcp", Sum("_c", alias_name="n")).to_pandas()
    counts = dict(zip(hist["lcp"], hist["n"]))
    plen = 0          # fall through to the whole dataset (prefix "") when
    cum = 0           # even the 1-char face prefix holds fewer than k rows
    for p in range(qlen, 0, -1):
        cum += int(counts.get(p, 0))
        if cum >= k:
            plen = p
            break
    prefix = query_cellid[:plen]

    def dist(batch: pa.Table) -> pa.Table:
        if prefix:
            batch = batch.filter(pc.starts_with(batch.column(key_col),
                                                pattern=prefix))
        cells = batch.column(key_col).to_numpy(zero_copy_only=False)
        cx, cy = cell_centroid(cells, grid)
        d = np.sqrt((cx - qx) ** 2 + (cy - qy) ** 2)
        return batch.append_column("dist_m", pa.array(d))

    from .topk import partial_topk
    ties = tiebreak_cols if tiebreak_cols is not None else [key_col]
    cand = ds.map_batches(dist, batch_format="pyarrow")
    return partial_topk(cand, ["dist_m"] + ties,
                        [False] * (1 + len(ties)), k)

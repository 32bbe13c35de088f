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

import functools
import threading

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

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
    return max(8, cluster_cpus())


def cluster_cpus() -> int:
    """Ray's CPU count; the machine's before Ray starts."""
    import os

    import ray
    if ray.is_initialized():
        return max(1, int(ray.cluster_resources().get("CPU", 1)))
    return os.cpu_count() or 1


# A driver-side dense map holds max(key)+1 entries.  Keys sparser than this
# many entries per dimension row (beyond a floor that is always cheap) raise
# instead of allocating: join on such keys with adaptive_join.
DENSE_KEYS_PER_ROW = 16
DENSE_MIN_KEYS = 1 << 20


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
    which keys flag true.  Broadcast the result with ray.put.  One pass
    (`_dense_pairs`); keys too sparse for a dense bitmap raise ValueError."""
    def flagged(blk, keys):
        k = keys[np.asarray(pred(blk), dtype=bool)]
        return k, np.zeros(k.size, np.int64)

    chunks, n = _dense_pairs(ds, key_col, flagged)
    out = np.zeros(n, dtype=bool)
    for k, _ in chunks:
        out[k] = True
    return out


def dim_dense_map(ds, key_col: str, val_fn, fill: int = -1,
                  dtype=np.int32) -> np.ndarray:
    """Distributed build of a dense key -> small-int map (e.g. suppkey
    -> nationkey) over a dimension table: `val_fn(block) -> int ndarray`
    runs in-task, rows whose value equals `fill` are dropped at the
    source, and the surviving (key, value) pairs stream back in one pass
    (`_dense_pairs`) to a vectorized scatter — the driver holds the kept
    int64 pairs and the n*itemsize map, never the frame.  Exact because
    `key_col` is a primary key (each key written at most once); keys too
    sparse for a dense map raise ValueError."""
    def kept(blk, keys):
        vals = np.asarray(val_fn(blk)).astype(np.int64)
        m = vals != fill
        return keys[m], vals[m]

    chunks, n = _dense_pairs(ds, key_col, kept)
    out = np.full(n, fill, dtype=dtype)
    for k, v in chunks:
        out[k] = v.astype(dtype)
    return out


def _dense_pairs(ds, key_col: str, pairs):
    """The kept (key, value) int64 pairs of `pairs(block, keys)` over all
    blocks, and the dense map size n = max(key)+1.  Each block appends a
    (-1, block max key, block rows) sentinel row, so the key extent and the
    row count arrive with the pairs and no second execution is needed.
    Raises ValueError when n exceeds DENSE_KEYS_PER_ROW per row (and
    DENSE_MIN_KEYS)."""
    def kernel(blk: pa.Table) -> pa.Table:
        keys = blk.column(key_col).to_numpy().astype(np.int64)
        k, v = pairs(blk, keys)
        mx = int(keys.max()) if keys.size else -1
        return pa.table({"_k": pa.array(np.r_[k, -1], pa.int64()),
                         "_v": pa.array(np.r_[v, mx], pa.int64()),
                         "_n": pa.array(np.r_[np.zeros(k.size, np.int64),
                                              keys.size], pa.int64())})

    chunks, n, rows = [], 0, 0
    for b in ds.map_batches(kernel, batch_format="pyarrow") \
            .iter_batches(batch_format="pyarrow"):
        k = b.column("_k").to_numpy()
        v = b.column("_v").to_numpy()
        good = k >= 0
        chunks.append((k[good], v[good]))
        if (~good).any():
            n = max(n, int(v[~good].max()) + 1)
        rows += int(b.column("_n").to_numpy().sum())
    if n > max(DENSE_KEYS_PER_ROW * rows, DENSE_MIN_KEYS):
        raise ValueError(
            f"{key_col!r} keys are too sparse for a dense driver-side map: "
            f"max key {n - 1} over {rows} rows; join on {key_col!r} with "
            f"adaptive_join instead")
    return chunks, n


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
            col = pc.utf8_slice_codeunits(col, 0, res + 1)
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
            b = b.append_column(
                "_jk", pc.utf8_slice_codeunits(b.column(key_col), 0, res + 1))
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


def sized_groupby(ds, key, *aggs, single_block_rows: int = 8_000_000,
                  before=None, after=None):
    """The engine's grouped aggregation: `ds.groupby(key).aggregate(*aggs)`
    for Sum, Min, Max and Count in plain Ray tasks, with no Ray Data
    execution of its own, instead of Ray's sort-shuffle Aggregate, whose
    per-operator fixed cost dominates below ~10M rows.  Feed it the raw
    rows: the per-block partial is its own first step, so callers need no
    partial of their own.  With no aggregation it returns the distinct
    keys.  Any other aggregation raises TypeError.

    One `_partial` task per input block (submitted as the input's blocks
    stream out, at most two per CPU in flight, as `per_block` does) runs the
    Arrow group_by partial (Sum of Sums / Min of Mins / Max of Maxes are
    associative; counts combine by Sum) and returns it with its row count.
    Partials are bounded by (distinct keys x blocks), tiny relative to the
    input.  `Count(col, ignore_nulls=True)` counts the non-null values of
    `col`; any other Count counts rows.  `before(block) -> block`, if
    given, runs on each input block inside its partial task.

    Tasks over the partial refs finish it, sized by the summed partial row
    count.  With P = ceil(rows / single_block_rows), P = 1 is one task that
    combines every partial with `partial_again`.  Otherwise one task per
    partial block splits it into P parts by a stable hash of the first key
    column, and P tasks each combine one part.  Output contract: every row
    that shares a first-key value sits in one block, so a per-group step
    can run inside each block: `after(block) -> block`, if given, runs on
    each combined block inside its combine task.  An empty input (0-row or
    schema-less blocks, or none) gives one 0-row block with the output
    columns, `after` applied; key and Sum/Min/Max columns that no block
    typed are null-typed."""
    import ray

    keys = [key] if isinstance(key, str) else list(key)
    spec = []          # (src_col_or_None, level1_fn, alias); Count -> row
    for a in aggs:     # count at level 1, Sum of counts afterwards
        cls = type(a).__name__
        if cls == "Count":
            col = a._target_col_name if a._ignore_nulls else None
            spec.append((col, "count" if col else "count_all", a.name))
            continue
        fn = _ARROW_FNS.get(cls)
        if fn is None:
            raise TypeError(f"sized_groupby supports Sum, Min, Max and Count, "
                            f"not {cls}")
        spec.append((a._target_col_name, fn, a.name))

    task = _remote(_on_arrow).options(num_returns=2)
    done = _block_tasks(ds, task, _partial, keys, spec, before)
    counts = ray.get([n for _, n in done])
    refs = [p for (p, _), n in zip(done, counts) if n] \
        or [p for p, _ in done] or [_empty_partial(keys, spec)]
    n_parts = max(1, -(-sum(counts) // single_block_rows))
    combine = _remote(_combine)
    if n_parts == 1:
        return materialized([combine.remote(keys, spec, after, *refs)])
    split = _remote(_split_by_key).options(num_returns=n_parts)
    parts = [split.remote(r, keys[0], n_parts) for r in refs]
    return materialized(
        [combine.remote(keys, spec, after, *part) for part in zip(*parts)])


def partial_again(keys, spec):
    """Second/final-level combiner: aggregate the alias columns in place
    (counts combine by sum)."""
    def kernel(b: pa.Table) -> pa.Table:
        g = b.group_by(keys).aggregate(
            [(alias, "sum" if fn.startswith("count") else fn)
             for _, fn, alias in spec])
        return g.rename_columns(keys + [alias for _, _, alias in spec])
    return kernel


def materialized(refs: list):
    """Blocks from plain Ray tasks -> a MaterializedDataset over them (which
    waits for the tasks).  Listing its blocks starts no Ray Data execution;
    a bare `ray.data.from_arrow_refs` dataset starts one per listing."""
    import ray.data
    return ray.data.from_arrow_refs(refs).materialize()


@functools.cache
def _remote(fn):
    """One RemoteFunction per function: Ray exports it once, not per call."""
    import ray
    return ray.remote(fn)


def per_block(ds, fn, *args) -> list:
    """[fn(block, *args) for each block of `ds`] as plain Ray tasks, in block
    order; a pyarrow Table is one block (see `_block_tasks`)."""
    import ray
    return ray.get(_block_tasks(ds, _remote(_on_arrow), fn, *args))


def _block_tasks(ds, task, *args) -> list:
    """[task.remote(block, *args) for each block of `ds`], in block order; a
    pyarrow Table is one block.  The tasks start as Ray Data streams the
    blocks out, at most two per CPU in flight, so the whole input never has
    to sit in the object store at once.  Returns each call's refs."""
    import ray

    if isinstance(ds, pa.Table):
        return [task.remote(ds, *args)]
    cap = 2 * cluster_cpus()
    out, heads = [], []
    for bundle in ds.iter_internal_ref_bundles():
        for ref, _ in bundle.blocks:
            refs = task.remote(ref, *args)
            out.append(refs)
            heads.append(refs[0] if isinstance(refs, list) else refs)
            if len(heads) > cap:
                ray.wait(heads, num_returns=len(heads) - cap)
    return out


def _on_arrow(block, fn, *args):
    """Task: `fn` on `block` as a pyarrow Table."""
    from ray.data.block import BlockAccessor
    return fn(BlockAccessor.for_block(block).to_arrow(), *args)


def _partial(b: pa.Table, keys, spec, before):
    """The per-block partial of `b` after `before`, and its row count.  A
    schema-less block (0 rows, no columns) gives `_empty_partial`."""
    if b.num_columns == 0:
        return _empty_partial(keys, spec), 0
    if before is not None:
        b = before(b)
    g = b.group_by(keys).aggregate(
        [([] if c is None else c, fn) for c, fn, _ in spec]) \
        .rename_columns(keys + [alias for _, _, alias in spec])
    return g, g.num_rows


def _empty_partial(keys, spec) -> pa.Table:
    """A 0-row partial whose key and Sum/Min/Max columns are null-typed
    (any other partial's types win when they are concatenated)."""
    cols = {k: pa.nulls(0) for k in keys}
    for _, fn, alias in spec:
        cols[alias] = pa.nulls(0, pa.int64() if fn.startswith("count")
                               else pa.null())
    return pa.table(cols)


def _combine(keys, spec, after, *blocks: pa.Table) -> pa.Table:
    """Task: the final combine of `blocks` (partials of the same spec), then
    `after` if given."""
    out = partial_again(keys, spec)(
        pa.concat_tables(blocks, promote_options="permissive"))
    return out if after is None else after(out)


def _split_by_key(block: pa.Table, key: str, n_parts: int):
    """Task: `block` cut into `n_parts` tables by `_stable_hash(key)`."""
    h = _stable_hash(block.column(key).combine_chunks())
    part = (h % np.uint64(n_parts)).astype(np.int64)
    order = np.argsort(part, kind="stable")
    cuts = np.searchsorted(part[order], np.arange(n_parts + 1))
    block = block.take(pa.array(order))
    return tuple(block.slice(a, b - a) for a, b in zip(cuts[:-1], cuts[1:]))


_MIX = np.uint64(0x9E3779B97F4A7C15)


def _stable_hash(col: pa.Array) -> np.ndarray:
    """uint64 hash of each value that is the same in every process (Python's
    str hash is salted per process).  Integers hash their int64 value; any
    other type hashes the bytes of its string form.  Nulls hash like 0 or
    the empty string."""
    if pa.types.is_integer(col.type):
        x = pc.cast(col, pa.int64(), safe=False).fill_null(0).to_numpy()
        return (x.view(np.uint64) * _MIX) >> np.uint64(29)
    t = col.type
    if not (pa.types.is_binary(t) or pa.types.is_large_binary(t)):
        col = pc.cast(col, pa.large_string())
    col = pc.cast(col, pa.large_binary()).fill_null(b"")
    off = np.frombuffer(col.buffers()[1], np.int64)[
        col.offset:col.offset + len(col) + 1]
    start, lens = off[:-1] - off[0], np.diff(off)
    data = np.frombuffer(col.buffers()[2] or b"", np.uint8)[off[0]:off[-1]]
    weight = np.cumprod(np.full(int(lens.max(initial=0)) + 1, _MIX))
    pos = np.arange(data.size) - np.repeat(start, lens)
    h = np.zeros(len(col), np.uint64)
    full = lens > 0
    h[full] = np.add.reduceat(data * weight[pos], start[full])
    return ((h + lens.astype(np.uint64)) * _MIX) >> np.uint64(29)


def union_groupby_inner(left, right, key_col: str,
                        left_cols: list[str], right_cols: list[str]):
    """Inner join of two (key -> int64 metrics) datasets expressed as union +
    ONE native grouped Sum — no hash-join aggregator actors, one shuffle total.

    Each side's rows are padded with zeros for the other side's metric columns
    plus a presence counter; after the grouped Sum, rows seen on both sides
    survive the filter.  Metric columns are summable integer columns (raw
    rows or pre-summed), so the grouped Sum IS the per-key total — this
    replaces groupby(left) + groupby(right) + join(32 actors) with one
    sized_groupby, whose per-block partial moves one row per (block, key)."""
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

    def lcp(batch: pa.Table) -> pa.Table:
        col = batch.column(key_col)
        m = np.zeros(batch.num_rows, dtype=np.int32)
        for p in range(1, qlen + 1):
            hit = pc.equal(pc.utf8_slice_codeunits(col, 0, p),
                           query_cellid[:p]).to_numpy(zero_copy_only=False)
            m = np.where(hit, p, m)
            if not hit.any():
                break
        return pa.table({"lcp": pa.array(m.astype(np.int64))})

    from ray.data.aggregate import Count
    hist = sized_groupby(ds.map_batches(lcp, batch_format="pyarrow"),
                         "lcp", Count(alias_name="n")).to_pandas()
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
        cx, cy = cell_centroid(batch.column(key_col), grid)
        d = np.sqrt((cx - qx) ** 2 + (cy - qy) ** 2)
        return batch.append_column("dist_m", pa.array(d))

    from .topk import partial_topk
    ties = tiebreak_cols if tiebreak_cols is not None else [key_col]
    cand = ds.map_batches(dist, batch_format="pyarrow")
    return partial_topk(cand, ["dist_m"] + ties,
                        [False] * (1 + len(ties)), k)

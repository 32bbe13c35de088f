"""Deterministic sampling and sequence packing for training-data pipelines.

Two operators a 100 TB corpus pipeline needs between dedup and training:

- `hash_sample`: stratified downsampling with a DETERMINISTIC keep decision
  (multiplicative integer hash of the id — no RNG state, so retries/resumes
  pick the same rows, and the decision is reproducible in plain SQL for the
  correctness oracle).  Pure per-batch filter: embarrassingly parallel, no
  shuffle, no driver state.

- `pack_token_batches`: assign each document to a fixed-token-budget training
  batch by global doc order — batch_id = floor(exclusive_prefix_sum(tokens) /
  budget).  The classic distributed prefix-sum shape: one streaming pass for
  per-range token subtotals (tiny: one row per range), a driver-side exclusive
  scan over those subtotals (P numbers, not rows), then a second streaming
  pass that sorts each range locally and adds its offset.  No global sort, no
  all-to-all shuffle; both passes are vectorized Arrow/numpy.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# Knuth multiplicative hash constant (2^32 / phi) — public domain folklore.
_KNUTH = 2654435761
_MOD = 1 << 32


def hash_sample(ds, rates_per_mille: dict[str, int], id_col: str,
                strat_col: str, default_per_mille: int = 0):
    """Keep a row iff (id * 2654435761) mod 2^32 mod 1000 < rate[stratum].

    rates_per_mille: stratum value -> keep rate in 0..1000.  Integer-exact and
    oracle-expressible: the same arithmetic in SQL selects the same rows.
    """
    items = sorted(rates_per_mille.items())
    strata = np.array([k for k, _ in items])
    rates = np.array([v for _, v in items], dtype=np.int64)

    def kernel(b: pa.Table) -> pa.Table:
        ids = b.column(id_col).to_numpy().astype(np.int64)
        key = (ids * _KNUTH) % _MOD % 1000
        sv = b.column(strat_col).to_numpy(zero_copy_only=False)
        idx = np.searchsorted(strata, sv)
        idx_ok = (idx < len(strata))
        idx_c = np.minimum(idx, len(strata) - 1)
        rate = np.where(idx_ok & (strata[idx_c] == sv), rates[idx_c],
                        default_per_mille)
        return b.filter(pa.array(key < rate))

    return ds.map_batches(kernel, batch_format="pyarrow")


def _token_counts(b: pa.Table, text_col: str) -> pa.Array:
    """Whitespace token count, same convention as docs_token_stats (split of ""
    yields [""] = 1 token in Arrow and DuckDB alike)."""
    toks = pc.list_value_length(pc.split_pattern_regex(b.column(text_col),
                                                       r"\s+"))
    return pc.cast(toks, pa.int64())


def pack_token_batches(ds, budget: int, id_col: str = "doc_id",
                       text_col: str = "text", token_col: str | None = None,
                       n_ranges: int = 64):
    """(id, n_tokens, batch_id) rows: batch_id = excl-prefix-sum(tokens) //
    budget over rows ordered by id.

    Pass 1 streams once to get (range, token subtotal) — one output row per id
    range, so the driver scan sees P integers regardless of input size.
    Pass 2 re-streams, co-locates each range with groupby(range), sorts the
    range locally (ranges are contiguous id spans, so local order + range
    offset = global order) and emits batch ids.  token_col, when given, skips
    tokenization and uses a precomputed count column.
    """
    from .joins import sized_groupby
    from ray.data.aggregate import Sum, Min, Max

    def with_tokens(b: pa.Table) -> pa.Table:
        n = (b.column(token_col) if token_col
             else _token_counts(b, text_col))
        return pa.table({id_col: b.column(id_col), "_n": n})

    # Materialize the projected (id, count) table ONCE: three consumers follow
    # (min/max/count stats, pass-1 subtotals, pass-2 assignment), and without
    # this the whole upstream lineage — possibly a dedup shuffle — would
    # re-execute for each.  The materialized table is two int64 columns per
    # doc, held distributed in the object store, not on the driver.
    tok = ds.map_batches(with_tokens, batch_format="pyarrow").materialize()

    # id span -> contiguous ranges.  min/max is one tiny aggregate pass over
    # the (already projected) token table.
    from ray.data.aggregate import Count
    stats = tok.aggregate(Min(id_col, alias_name="lo"),
                          Max(id_col, alias_name="hi"),
                          Count(id_col, alias_name="rows"))
    if stats is None or stats.get("lo") is None:      # empty input
        import ray.data as rd
        return rd.from_arrow(pa.table({id_col: pa.array([], pa.int64()),
                                       "n_tokens": pa.array([], pa.int64()),
                                       "batch_id": pa.array([], pa.int64())}))
    lo, hi = int(stats["lo"]), int(stats["hi"])
    # each range is locally sorted in ONE task (pass 2), so cap the expected
    # rows per range — with uniform-ish ids this bounds task memory at any
    # input size instead of letting 64 ranges swallow 1/64th of the corpus
    n_ranges = max(n_ranges, int(stats["rows"]) // 2_000_000 + 1)
    span = max(1, -(-(hi - lo + 1) // n_ranges))      # ceil

    def with_range(b: pa.Table) -> pa.Table:
        ids = b.column(id_col).to_numpy()
        return b.append_column("_rg", pa.array((ids - lo) // span, pa.int64()))

    ranged = tok.map_batches(with_range, batch_format="pyarrow")

    # pass 1: per-range subtotals -> driver exclusive scan (P rows only)
    sub = sized_groupby(ranged, "_rg", Sum("_n", alias_name="_t")) \
        .to_pandas().sort_values("_rg")
    off_map = np.zeros(n_ranges, dtype=np.int64)
    rgs = sub["_rg"].to_numpy().astype(np.int64)
    tots = sub["_t"].to_numpy().astype(np.int64)
    excl = np.concatenate([[0], np.cumsum(tots)[:-1]])
    off_map[rgs] = excl

    # pass 2: per-range local sort + offset -> batch ids
    def assign(t: pa.Table) -> pa.Table:
        t = t.sort_by(id_col)
        n = t.column("_n").to_numpy()
        rg = int(t.column("_rg")[0].as_py())
        excl_local = np.concatenate([[0], np.cumsum(n[:-1])]) + off_map[rg]
        return pa.table({id_col: t.column(id_col),
                         "n_tokens": t.column("_n"),
                         "batch_id": pa.array(excl_local // budget,
                                              pa.int64())})

    return ranged.groupby("_rg").map_groups(assign, batch_format="pyarrow")


def with_split(ds, id_col: str, per_mille: tuple[int, int] = (900, 950)):
    """Deterministic train/val/test split assignment: key = Knuth hash of the
    id mod 1000; key < per_mille[0] -> 'train', < per_mille[1] -> 'val',
    else 'test'.  A pure per-batch labeler (no shuffle, no RNG state), so a
    resumed run assigns every row the same split and SQL can recompute the
    label exactly — the standard corpus split rule, as an operator."""
    lo, hi = per_mille

    def kernel(b: pa.Table) -> pa.Table:
        ids = b.column(id_col).to_numpy().astype(np.int64)
        key = (ids * _KNUTH) % _MOD % 1000
        lab = np.where(key < lo, "train", np.where(key < hi, "val", "test"))
        return b.append_column("split", pa.array(lab, pa.string()))

    return ds.map_batches(kernel, batch_format="pyarrow")

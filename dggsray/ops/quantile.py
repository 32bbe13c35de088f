"""Exact distributed order statistics (median / arbitrary ranks) per group.

Three bounded passes, none of which ships raw values:

- pass 0: per-group (count, min, max) — per-block Arrow partials + one
  low-cardinality grouped aggregate.
- pass 1: per-group fixed-width histograms — one `n_buckets` bincount blob
  per (block, group), summed per group.  The driver reads the cumulative
  histogram to locate, for EVERY requested quantile, the bucket(s) holding
  ranks r0 = floor((n-1)q) and r1 = ceil((n-1)q).
- pass 2: re-scan keeping only rows inside any requested bucket range
  (tiny: ~n/n_buckets rows per (group, quantile)), sort them on the driver
  and index the exact ranks.

Integer rational rank arithmetic throughout, so a SQL row_number mirror
selects bit-identical doubles.  Multiple quantiles share all three passes
(`exact_group_quantiles`); the single-quantile helpers wrap it.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa


def exact_group_median(ds, value_col: str, group_col: str,
                       n_buckets: int = 1 << 14):
    """-> pa.Table (group, med_lo, med_hi, n): exact lower/upper middle order
    statistics per group (equal when n is odd)."""
    return exact_group_quantile(ds, value_col, group_col, 1, 2, n_buckets)


def exact_group_quantile(ds, value_col: str, group_col: str,
                         num: int, den: int, n_buckets: int = 1 << 14):
    """Exact q = num/den order statistics per group (single-quantile wrapper
    over exact_group_quantiles, keeping the historical output schema)."""
    t = exact_group_quantiles(ds, value_col, group_col, [(num, den)],
                              n_buckets)
    return t.rename_columns([group_col, "med_lo", "med_hi", "n"])


def exact_group_quantiles(ds, value_col: str, group_col: str,
                          fracs: list[tuple[int, int]],
                          n_buckets: int = 1 << 14):
    """Exact order statistics per group for SEVERAL quantiles at once —
    all fracs share the stat pass, the histogram pass and the narrow
    re-scan (pass 2 keeps the union of the per-frac bucket ranges, each
    still ~n/n_buckets rows).  Returns
    (group, q0_lo, q0_hi, q1_lo, q1_hi, ..., n)."""
    from ray.data.aggregate import Max, Min, Sum

    from .joins import sized_groupby

    nq = len(fracs)

    # pass 0: per-group count/min/max
    def stat_partial(b: pa.Table) -> pa.Table:
        g = b.select([group_col, value_col]).group_by(group_col).aggregate(
            [(value_col, "count"), (value_col, "min"), (value_col, "max")])
        return g.rename_columns([group_col, "_c", "_lo", "_hi"])

    stats = sized_groupby(ds.map_batches(stat_partial, batch_format="pyarrow"),
                          group_col, Sum("_c", alias_name="n"),
                          Min("_lo", alias_name="lo"),
                          Max("_hi", alias_name="hi")).to_pandas()
    groups = stats[group_col].tolist()
    n_of = dict(zip(groups, stats["n"].astype(np.int64)))
    lo_of = dict(zip(groups, stats["lo"].astype(np.float64)))
    hi_of = dict(zip(groups, stats["hi"].astype(np.float64)))

    # degenerate groups (all-equal values) resolve without passes 1-2
    todo = [g for g in groups if hi_of[g] > lo_of[g]]
    results = {g: [(lo_of[g], lo_of[g])] * nq
               for g in groups if g not in todo}

    if todo:
        gidx = {g: i for i, g in enumerate(todo)}
        glo = np.array([lo_of[g] for g in todo])
        gspan = np.array([hi_of[g] - lo_of[g] for g in todo])

        # pass 1: per-group histograms, one bincount blob per (batch, group)
        def hist_partial(b: pa.Table) -> pa.Table:
            import pyarrow.compute as pc
            vv = b.column(value_col).to_numpy()
            out_g, out_h = [], []
            gv_arr = pc.fill_null(
                pc.index_in(b.column(group_col),
                            value_set=pa.array(todo, pa.string())), -1) \
                .to_numpy(zero_copy_only=False).astype(np.int64)
            for gi in np.unique(gv_arr):
                if gi < 0:
                    continue
                v = vv[gv_arr == gi]
                idx = np.clip(((v - glo[gi]) / gspan[gi] * n_buckets)
                              .astype(np.int64), 0, n_buckets - 1)
                out_g.append(todo[gi])
                out_h.append(np.bincount(idx, minlength=n_buckets)
                             .astype(np.int64).tobytes())
            return pa.table({group_col: pa.array(out_g, pa.string()),
                             "_h": pa.array(out_h, pa.large_binary())})

        def hist_sum(t: pa.Table) -> pa.Table:
            acc = np.zeros(n_buckets, dtype=np.int64)
            for blob in t.column("_h").to_pylist():
                acc += np.frombuffer(blob, dtype=np.int64)
            return pa.table({group_col: t.column(group_col).slice(0, 1),
                             "_h": pa.array([acc.tobytes()],
                                            pa.large_binary())})

        hists = ds.map_batches(hist_partial, batch_format="pyarrow") \
            .groupby(group_col).map_groups(hist_sum, batch_format="pyarrow") \
            .to_pandas()

        # driver: per group and per frac, the buckets holding ranks r0/r1
        want: dict = {}
        for _, row in hists.iterrows():
            g = row[group_col]
            h = np.frombuffer(row["_h"], dtype=np.int64)
            cum = np.cumsum(h)
            n = n_of[g]
            per_frac = []
            for num, den in fracs:
                r0 = ((n - 1) * num) // den
                r1 = -((-(n - 1) * num) // den)        # ceil
                b0 = int(np.searchsorted(cum, r0 + 1))
                b1 = int(np.searchsorted(cum, r1 + 1))
                below = int(cum[b0 - 1]) if b0 > 0 else 0
                per_frac.append((b0, b1, below, r0, r1))
            want[g] = per_frac

        # pass 2: collect only rows inside ANY frac's bucket range (tiny),
        # carrying the bucket index so each frac re-selects its own range
        def in_bucket(b: pa.Table) -> pa.Table:
            import pyarrow.compute as pc
            vv = b.column(value_col).to_numpy()
            gv_arr = pc.fill_null(
                pc.index_in(b.column(group_col),
                            value_set=pa.array(todo, pa.string())), -1) \
                .to_numpy(zero_copy_only=False).astype(np.int64)
            keep = np.zeros(len(vv), dtype=bool)
            bidx = np.zeros(len(vv), dtype=np.int64)
            for g, per_frac in want.items():
                gi = gidx[g]
                m = gv_arr == gi
                if not m.any():
                    continue
                idx = np.clip(((vv[m] - glo[gi]) / gspan[gi] * n_buckets)
                              .astype(np.int64), 0, n_buckets - 1)
                k = np.zeros(idx.size, dtype=bool)
                for b0, b1, _, _, _ in per_frac:
                    k |= (idx >= b0) & (idx <= b1)
                keep[m] = k
                bidx[m] = idx
            t = b.append_column("_bidx", pa.array(bidx))
            return t.filter(pa.array(keep)) \
                .select([group_col, value_col, "_bidx"])

        narrow = ds.map_batches(in_bucket, batch_format="pyarrow").to_pandas()
        for g, per_frac in want.items():
            rows = narrow[narrow[group_col] == g]
            vv = rows[value_col].to_numpy()
            bb = rows["_bidx"].to_numpy()
            res = []
            for b0, b1, below, r0, r1 in per_frac:
                vals = np.sort(vv[(bb >= b0) & (bb <= b1)])
                res.append((float(vals[r0 - below]),
                            float(vals[r1 - below])))
            results[g] = res

    cols = {group_col: pa.array(groups, pa.string())}
    for i in range(nq):
        cols[f"q{i}_lo"] = pa.array([results[g][i][0] for g in groups],
                                    pa.float64())
        cols[f"q{i}_hi"] = pa.array([results[g][i][1] for g in groups],
                                    pa.float64())
    cols["n"] = pa.array([int(n_of[g]) for g in groups], pa.int64())
    return pa.table(cols)

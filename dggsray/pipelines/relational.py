"""Query pipelines over the driver's parquet tables (region/nation/customer/.../
documents/embeddings), each paired with a DuckDB oracle in __ray_entry__.py.

Design rules for oracle bit-equality:
- numeric outputs are int64 (counts, cent-sums) — float summation order never leaks
  into the compared values;
- derived lon/lat points use the same closed-form key formulas as dggsray.oracle;
- every computed column is named identically to its SQL AS alias.
All stages are vectorized Arrow batches; groupbys are preceded by per-batch partial
aggregation where the key cardinality is below the row count.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..core.cells import truncate_to_resolution
from ..core.rhpx import DEFAULT_GRID, cells_from_lonlat
from ..oracle import G_LAT, G_LON
from ..ops.joins import join_partitions, sized_groupby


from ..ops.joins import PLAN_LOCK as _READ_LOCK  # noqa: E402


def _read(sf_dir: str, table: str, columns=None):
    # construction is serialized: ray's path resolution lazily imports
    # fsspec.implementations.http, whose failure mode (aiohttp absent)
    # degrades from the ModuleNotFoundError ray catches to a plain
    # ImportError when two threads interleave the import — execution
    # stays fully parallel, only the ms-scale plan build takes the lock
    import ray.data as rd

    from ..core.raster import localize_path
    with _READ_LOCK:
        return rd.read_parquet(localize_path(f"{sf_dir}/{table}.parquet"),
                               columns=columns)


def derived_lonlat(keys: np.ndarray):
    k = keys.astype(np.float64)
    lon = -180.0 + 360.0 * ((k * G_LON) % 1.0)
    lat = -35.0 + 70.0 * ((k * G_LAT) % 1.0)
    return lon, lat


def _with_cells(batch: pa.Table, key_col: str, res: int) -> pa.Table:
    keys = batch.column(key_col).to_numpy()
    lon, lat = derived_lonlat(keys)
    cells = cells_from_lonlat(res, lon, lat, DEFAULT_GRID)
    return pa.table({"key": pa.array(keys.astype(np.int64), pa.int64()),
                     "cellid": pa.array(cells, pa.string())})


# --- DGGS queries -----------------------------------------------------------

def cell_encode_customer(sf_dir: str, res: int = 4):
    """(c_custkey, cellid) for derived equatorial points — the strongest oracle:
    DuckDB recomputes the full cellid string."""
    ds = _read(sf_dir, "customer", ["c_custkey"])
    out = ds.map_batches(lambda b: _with_cells(b, "c_custkey", res),
                         batch_format="pyarrow")
    return out.rename_columns(["c_custkey", "cellid"])


def cell_count_by_face(sf_dir: str, res: int = 4):
    from ray.data.aggregate import Sum

    ds = cell_encode_customer(sf_dir, res)

    def partial(b: pa.Table) -> pa.Table:
        face = pc.utf8_slice_codeunits(b.column("cellid"), 0, 1)
        t = pa.table({"face": face}).group_by("face").aggregate([([], "count_all")])
        return t.rename_columns(["face", "_p"])

    return sized_groupby(ds.map_batches(partial, batch_format="pyarrow"),
                         "face", Sum("_p", alias_name="n_points"))


def cell_agg_customer(sf_dir: str, res_fine: int = 4, res_coarse: int = 2):
    """Regrid-style aggregate: encode at res_fine, roll up to res_coarse, count and
    sum account balances in exact cents."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "customer", ["c_custkey", "c_acctbal"])

    def kernel(b: pa.Table) -> pa.Table:
        keys = b.column("c_custkey").to_numpy()
        lon, lat = derived_lonlat(keys)
        cells = cells_from_lonlat(res_fine, lon, lat, DEFAULT_GRID)
        coarse = truncate_to_resolution(cells, res_coarse)
        cents = np.rint(b.column("c_acctbal").to_numpy() * 100).astype(np.int64)
        t = pa.table({"cell": pa.array(coarse, pa.string()),
                      "cents": pa.array(cents, pa.int64())})
        g = t.group_by("cell").aggregate([("cents", "sum"), ([], "count_all")])
        return g.rename_columns(["cell", "_ps", "_pc"])

    return sized_groupby(ds.map_batches(kernel, batch_format="pyarrow"),
                         "cell", Sum("_ps", alias_name="bal_cents"),
                         Sum("_pc", alias_name="n_customers"))


def cell_join_customer_orders(sf_dir: str, res: int = 3):
    """Inner join of customer-cells x order-cells on cellid; count pairs per
    cell.  Both sides pre-aggregate per batch to (cellid, count), then the join
    itself is a union + ONE native grouped Sum (ops.joins.union_groupby_inner)
    — measured 3-6x faster than Ray's hash-join operator here because nothing
    spins up per-partition aggregator actors for a few-thousand-row join."""
    from ..ops.joins import union_groupby_inner

    def counts(key_col):
        def kernel(b: pa.Table) -> pa.Table:
            cells = _with_cells(b, key_col, res)
            g = cells.select(["cellid"]).group_by("cellid") \
                     .aggregate([([], "count_all")])
            return g.rename_columns(["cellid", "nc" if key_col == "c_custkey"
                                     else "no"])
        return kernel

    cc = _read(sf_dir, "customer", ["c_custkey"]) \
        .map_batches(counts("c_custkey"), batch_format="pyarrow")
    oc = _read(sf_dir, "orders", ["o_orderkey"]) \
        .map_batches(counts("o_orderkey"), batch_format="pyarrow")
    joined = union_groupby_inner(cc, oc, "cellid", ["nc"], ["no"])

    def mul(b: pa.Table) -> pa.Table:
        pairs = pc.multiply(b.column("nc"), b.column("no"))
        return pa.table({"cellid": b.column("cellid"),
                         "n_pairs": pc.cast(pairs, pa.int64())})

    return joined.map_batches(mul, batch_format="pyarrow")


def cell_majority_nation(sf_dir: str, res: int = 2):
    """Majority nation per cell over customer points (majority regrid semantics:
    most frequent value, ties to the smallest value)."""
    from ..ops.cellify import regrid_majority

    ds = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])

    def kernel(b: pa.Table) -> pa.Table:
        keys = b.column("c_custkey").to_numpy()
        lon, lat = derived_lonlat(keys)
        cells = cells_from_lonlat(res, lon, lat, DEFAULT_GRID)
        return pa.table({"cell": pa.array(cells, pa.string()),
                         "nation": pc.cast(b.column("c_nationkey"), pa.int32())})

    maj = regrid_majority(ds.map_batches(kernel, batch_format="pyarrow"),
                          "nation", cell_col="cell", out_col="majority_nation")

    def rename(b: pa.Table) -> pa.Table:
        return pa.table({"cell": b.column("cell"),
                         "majority_nation": pc.cast(b.column("majority_nation"),
                                                    pa.int32()),
                         "cnt": b.column("n")})

    return maj.map_batches(rename, batch_format="pyarrow")


# --- relational / TPC-H-ish ------------------------------------------------

def pricing_summary(sf_dir: str):
    """TPC-H Q1-flavoured aggregate with exact integer outputs."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice"])

    def partial(b: pa.Table) -> pa.Table:
        qty = b.column("l_quantity").to_numpy()
        price_c = np.rint(b.column("l_extendedprice").to_numpy() * 100).astype(np.int64)
        t = pa.table({"l_returnflag": b.column("l_returnflag"),
                      "l_linestatus": b.column("l_linestatus"),
                      "qty": pa.array(qty.astype(np.int64), pa.int64()),
                      "price_cents": pa.array(price_c, pa.int64())})
        g = t.group_by(["l_returnflag", "l_linestatus"]).aggregate(
            [("qty", "sum"), ("price_cents", "sum"), ([], "count_all")])
        return g.rename_columns(["l_returnflag", "l_linestatus", "_q", "_p", "_n"])

    return sized_groupby(ds.map_batches(partial, batch_format="pyarrow"),
                         ["l_returnflag", "l_linestatus"],
                         Sum("_q", alias_name="sum_qty"),
                         Sum("_p", alias_name="sum_price_cents"),
                         Sum("_n", alias_name="n_rows"))


def top_orders(sf_dir: str, k: int = 25):
    ds = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])

    def cents(b: pa.Table) -> pa.Table:
        c = np.rint(b.column("o_totalprice").to_numpy() * 100).astype(np.int64)
        return pa.table({"o_orderkey": b.column("o_orderkey"),
                         "price_cents": pa.array(c, pa.int64())})

    from ..ops.topk import partial_topk
    return partial_topk(ds.map_batches(cents, batch_format="pyarrow"),
                        ["price_cents", "o_orderkey"], [True, False], k)


def events_by_type(sf_dir: str):
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events", ["event_type", "value"])

    def partial(b: pa.Table) -> pa.Table:
        cents = np.rint(b.column("value").to_numpy() * 100).astype(np.int64)
        t = pa.table({"event_type": b.column("event_type"),
                      "cents": pa.array(cents, pa.int64())})
        g = t.group_by("event_type").aggregate([("cents", "sum"), ([], "count_all")])
        return g.rename_columns(["event_type", "_s", "_n"])

    return sized_groupby(ds.map_batches(partial, batch_format="pyarrow"),
                         "event_type", Sum("_s", alias_name="value_cents"),
                         Sum("_n", alias_name="n_events"))


# --- documents: dedup + text analysis --------------------------------------

def docs_dedup_exact(sf_dir: str):
    """Exact dedup on text: keep the smallest doc_id per distinct text; return
    survivors count per lang.  One shuffle, no join: the winner's payload rides
    INSIDE the Min — "%020d|lang" packs (doc_id, lang) into a string whose
    lexicographic Min is the min-doc_id row (zero-padded ids compare
    numerically), so groupby(text).Min recovers the kept row's lang without
    joining survivors back to the table."""
    from ray.data.aggregate import Min, Sum

    ds = _read(sf_dir, "documents", ["doc_id", "text", "lang"])

    def pack(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy()
        langs = b.column("lang").to_pylist()
        packed = [f"{i:020d}|{l}" for i, l in zip(ids, langs)]
        return pa.table({"text": b.column("text"),
                         "_packed": pa.array(packed, pa.string())})

    keep = sized_groupby(ds.map_batches(pack, batch_format="pyarrow"),
                         "text", Min("_packed", alias_name="_win"),
                         rows_per_part=200_000)   # ~1 KB text rows

    def partial(b: pa.Table) -> pa.Table:
        lang = pc.utf8_slice_codeunits(b.column("_win"), 21, 2**31 - 1)
        g = pa.table({"lang": lang}).group_by("lang") \
            .aggregate([([], "count_all")])
        return g.rename_columns(["lang", "_n"])

    return sized_groupby(keep.map_batches(partial, batch_format="pyarrow"),
                         "lang", Sum("_n", alias_name="n_unique_docs"))


def docs_token_stats(sf_dir: str):
    """Per-language token statistics: whitespace tokens, chars, docs — vectorized
    Arrow string kernels; all-int outputs."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "documents", ["text", "lang"])

    def partial(b: pa.Table) -> pa.Table:
        toks = pc.list_value_length(pc.split_pattern_regex(b.column("text"), r"\s+"))
        # empty-string corner: split of "" yields [""] (1 token) in both engines
        chars = pc.utf8_length(b.column("text"))
        t = pa.table({"lang": b.column("lang"),
                      "toks": pc.cast(toks, pa.int64()),
                      "chars": pc.cast(chars, pa.int64())})
        g = t.group_by("lang").aggregate([("toks", "sum"), ("chars", "sum"),
                                          ([], "count_all")])
        return g.rename_columns(["lang", "_t", "_c", "_n"])

    return sized_groupby(ds.map_batches(partial, batch_format="pyarrow"),
                         "lang", Sum("_t", alias_name="n_tokens"),
                         Sum("_c", alias_name="n_chars"),
                         Sum("_n", alias_name="n_docs"))


def ann_cosine_top10(sf_dir: str, k: int = 10):
    """Brute-force cosine top-k against a fixed deterministic query vector:
    numpy matmul per batch (the baseline ANN of the training-data operator set).
    Output scores quantized to int64 micro-units for oracle equality."""
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def scores(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:      # np.stack raises on an empty block
            return pa.table({"vec_id": pa.array([], pa.int64()),
                             "cos_micro": pa.array([], pa.int64())})
        ids = b.column("vec_id").to_numpy()
        emb = np.stack(b.column("embedding").to_numpy(zero_copy_only=False))
        dim = emb.shape[1]
        q = np.sin(np.arange(dim, dtype=np.float64) * 0.1) + 0.5
        num = emb.astype(np.float64) @ q
        den = np.sqrt((emb.astype(np.float64) ** 2).sum(axis=1)) * np.sqrt((q ** 2).sum())
        cos = np.where(den > 0, num / den, 0.0)
        micro = np.rint(cos * 1_000_000).astype(np.int64)
        return pa.table({"vec_id": pa.array(ids, pa.int64()),
                         "cos_micro": pa.array(micro, pa.int64())})

    from ..ops.topk import partial_topk
    return partial_topk(ds.map_batches(scores, batch_format="pyarrow"),
                        ["cos_micro", "vec_id"], [True, False], k)


# --- dedup / text-analysis / similarity queries ----------------------------

def docs_charset_jaccard(sf_dir: str, threshold: float = 0.99):
    from ..ops.dedup import charset_jaccard_pairs
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return charset_jaccard_pairs(ds, threshold)


def docs_quality(sf_dir: str):
    from ..ops.text import with_quality
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = with_quality(ds)
    return out.drop_columns(["text"])


def embed_neardup(sf_dir: str, threshold: float = 0.5):
    from ..ops.dedup import embedding_neardup_pairs
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return embedding_neardup_pairs(ds, threshold)


def docs_minhash_dedup(sf_dir: str, threshold: float = 0.5):
    from ..ops.dedup import minhash_dedup
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return minhash_dedup(ds, threshold=threshold)


def docs_dup_components(sf_dir: str, threshold: float = 0.5):
    """Transitive dedup clusters: the verified minhash near-dup PAIRS closed
    under connectivity (ops.dedup.connected_components — distributed
    min-label propagation, shuffles bounded by the edge list).  One row per
    clustered doc: (doc_id, component = min doc_id of its cluster) — the
    table a dedup pass keeps exactly one representative per component of."""
    from ..ops.dedup import connected_components, minhash_dedup

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    import ray.data as rd
    pairs_tbl = minhash_dedup(ds, threshold=threshold)
    cc = connected_components(rd.from_arrow(pairs_tbl))
    return cc.map_batches(
        lambda b: pa.table({"doc_id": pc.cast(b.column("node"), pa.int64()),
                            "component": pc.cast(b.column("label"),
                                                 pa.int64())}),
        batch_format="pyarrow")


def docs_simhash_clusters(sf_dir: str):
    """SimHash exact-collision clusters: (simhash value, n_docs, min doc_id).
    A same-topic corpus collapses to few clusters — O(n) output, unlike the
    quadratic near-pair listing (simhash_near_pairs stays available as an
    operator for corpora where hamming neighbourhoods are sparse)."""
    from ray.data.aggregate import Count, Min
    from ..ops.dedup import simhash_batch
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def sig(b: pa.Table) -> pa.Table:
        texts = [x.encode("utf-8", "ignore")
                 for x in b.column("text").to_pylist()]
        return pa.table({"doc_id": b.column("doc_id"),
                         "simhash": pa.array(
                             simhash_batch(texts).astype(np.int64))})

    return sized_groupby(ds.map_batches(sig, batch_format="pyarrow"),
                         "simhash", Count(alias_name="n_docs"),
                         Min("doc_id", alias_name="min_doc_id"))


# stratified keep-rates per mille for docs_stratified_sample; the oracle CASE
# expression is generated from this same dict (never drifts)
SAMPLE_RATES_PER_MILLE = {"en": 200, "es": 150, "de": 100, "fr": 100, "zh": 50}
PACK_TOKEN_BUDGET = 2048


def docs_stratified_sample(sf_dir: str):
    """Deterministic stratified downsample of documents by language — the
    integer-hash keep decision reproduces exactly in SQL (and across retries:
    no RNG state)."""
    from ..ops.sampling import hash_sample
    ds = _read(sf_dir, "documents", ["doc_id", "lang"])
    return hash_sample(ds, SAMPLE_RATES_PER_MILLE, "doc_id", "lang")


def docs_pack_batches(sf_dir: str, budget: int = PACK_TOKEN_BUDGET):
    """Fixed-token-budget training-batch packing via distributed prefix sum
    (ops.sampling.pack_token_batches), summarized per batch."""
    from ray.data.aggregate import Sum

    from ..ops.sampling import pack_token_batches

    packed = pack_token_batches(_read(sf_dir, "documents", ["doc_id", "text"]),
                                budget)

    def partial(b: pa.Table) -> pa.Table:
        g = b.select(["batch_id", "n_tokens"]).group_by("batch_id") \
             .aggregate([("n_tokens", "sum"), ([], "count_all")])
        return g.rename_columns(["batch_id", "_ps", "_pc"])

    return sized_groupby(packed.map_batches(partial, batch_format="pyarrow"),
                         "batch_id",
                         Sum("_ps", alias_name="sum_tokens"),
                         Sum("_pc", alias_name="n_docs"))


def events_median_value(sf_dir: str):
    """Exact per-type median via two-pass distributed histogram narrowing
    (ops.quantile) — outputs the exact lower/upper middle ORDER STATISTICS
    (bit-identical to the SQL row_number mirror; no interpolation arithmetic
    to match across engines)."""
    from ..ops.quantile import exact_group_median
    ds = _read(sf_dir, "events", ["event_type", "value"])
    t = exact_group_median(ds, "value", "event_type")
    lo = np.floor(t.column("med_lo").to_numpy() * 1e6 + 0.5).astype(np.int64)
    hi = np.floor(t.column("med_hi").to_numpy() * 1e6 + 0.5).astype(np.int64)
    return pa.table({"event_type": t.column("event_type"),
                     "med_lo_micro": pa.array(lo),
                     "med_hi_micro": pa.array(hi),
                     "n_events": t.column("n")})


def _sf_of(sf_dir: str) -> float:
    return float(sf_dir.rstrip("/").rsplit("sf", 1)[-1])


def audio_features(sf_dir: str):
    """Audio actor-pool stage over the synthetic WAV table: real RIFF/PCM
    decode (stdlib wave) + rms/peak/zcr/spectral-centroid features; outputs
    micro-int columns for deterministic comparison."""
    import ray.data as rd

    from ..io.avtable import ensure_audio_table
    from ..ops.multimodal import AudioFeatures, _default_pool

    ds = rd.read_parquet(ensure_audio_table(_sf_of(sf_dir)))
    out = ds.map_batches(AudioFeatures, batch_format="pyarrow",
                         concurrency=_default_pool(), max_restarts=0)

    def fin(b: pa.Table) -> pa.Table:
        from ..io.avtable import synth_pcm

        def micro(col):
            return pa.array(np.rint(b.column(col).to_numpy() * 1e6)
                            .astype(np.int64))
        rms_m, peak_m, zcr_m, cen_m = (micro(c).to_numpy() for c in
                                       ("rms", "peak", "zcr",
                                        "spectral_centroid_hz"))
        ns = b.column("n_samples").to_numpy()
        ids = b.column("audio_id").to_pylist()
        # in-row oracle: features recomputed from the CONTAINER-FREE
        # regenerated samples must match the WAV-decoded stream's features
        # exactly (integer micro equality) — pins the RIFF decode + actor
        # plumbing per row
        ok = np.empty(len(ids), dtype=bool)
        for k, aid in enumerate(ids):
            pcm = synth_pcm(int(aid[1:])).astype(np.float64) / 32768.0
            r = int(np.rint(np.sqrt((pcm ** 2).mean()) * 1e6))
            p = int(np.rint(np.abs(pcm).max() * 1e6))
            z = int(np.rint((np.diff(np.signbit(pcm)) != 0).mean() * 1e6))
            spec = np.abs(np.fft.rfft(pcm))
            freqs = np.fft.rfftfreq(pcm.size, d=1.0 / 8000)
            c = int(np.rint((freqs * spec).sum() / spec.sum() * 1e6))
            ok[k] = (r == rms_m[k] and p == peak_m[k] and z == zcr_m[k]
                     and c == cen_m[k] and pcm.size == ns[k])
        return pa.table({"audio_id": b.column("audio_id"),
                         "rms_micro": pa.array(rms_m),
                         "peak_micro": pa.array(peak_m),
                         "zcr_micro": pa.array(zcr_m),
                         "centroid_mhz": pa.array(cen_m),
                         "n_samples": b.column("n_samples"),
                         "check_ok": pa.array(ok)})

    return out.map_batches(fin, batch_format="pyarrow")


def video_frames(sf_dir: str):
    """Video actor-pool stage over the synthetic AVI/MJPEG table: real RIFF
    parse + baseline-JPEG frame decode, every-2nd-frame sampling, per-frame
    mean brightness."""
    import ray.data as rd

    from ..io.avtable import ensure_video_table
    from ..ops.multimodal import VideoFrameSample, _default_pool

    ds = rd.read_parquet(ensure_video_table(_sf_of(sf_dir)))
    frames = ds.map_batches(VideoFrameSample, batch_format="pyarrow",
                            fn_constructor_kwargs={"every_n": 2},
                            concurrency=_default_pool(), max_restarts=0)

    def bright(b: pa.Table) -> pa.Table:
        from ..io.avtable import synth_frames
        means = np.array([np.frombuffer(x, np.uint8).mean() if len(x) else 0.0
                          for x in b.column("bytes").to_pylist()])
        mm = np.rint(means * 1000).astype(np.int64)
        # in-row oracle: the JPEG-decoded frame's mean brightness must sit
        # within the q95 error budget of the container-free regenerated
        # frame (1.5 gray levels catches any wrong-frame / wrong-clip mixup;
        # the luminance cycle steps are 20 levels apart)
        ids = b.column("video_id").to_pylist()
        fidx = b.column("frame_idx").to_numpy()
        ok = np.empty(len(ids), dtype=bool)
        for k, vid in enumerate(ids):
            ref = synth_frames(int(vid[1:]))[int(fidx[k])].mean()
            ok[k] = abs(mm[k] - int(np.rint(ref * 1000))) <= 1500
        return pa.table({"video_id": b.column("video_id"),
                         "frame_idx": b.column("frame_idx"),
                         "mean_milli": pa.array(mm),
                         "check_ok": pa.array(ok)})

    return frames.map_batches(bright, batch_format="pyarrow")


def video_scene_cuts(sf_dir: str):
    """Scene-cut rows over the synthetic AVI/MJPEG table: every clip's frames
    decode in an actor pool, consecutive-frame mean-|Δ| marks the cut where
    the clip's luminance cycle wraps (the synthetic clips contain exactly one
    such jump in their 6 frames — a deterministic detection target).  Only
    cut transitions are returned."""
    import ray.data as rd

    from ..io.avtable import ensure_video_table
    from ..ops.multimodal import VideoSceneCuts, _default_pool

    ds = rd.read_parquet(ensure_video_table(_sf_of(sf_dir)))
    rows = ds.map_batches(VideoSceneCuts, batch_format="pyarrow",
                          concurrency=_default_pool(), max_restarts=0)
    cuts = rows.filter(expr="is_cut")

    def check(b: pa.Table) -> pa.Table:
        from ..io.avtable import expected_cut_frame
        # in-row oracle: the synthetic clips wrap their luminance cycle at
        # an analytically known transition — the detected cut must land
        # exactly there
        ids = b.column("video_id").to_pylist()
        fidx = b.column("frame_idx").to_numpy()
        # emitted frame_idx is the 1-based transition index (diff between
        # frames f and f+1 reports f+1)
        ok = np.array([int(fidx[k]) == expected_cut_frame(int(vid[1:])) + 1
                       for k, vid in enumerate(ids)], dtype=bool)
        return b.append_column("check_ok", pa.array(ok))

    return cuts.map_batches(check, batch_format="pyarrow")


def events_top_users(sf_dir: str, k: int = 3):
    """Grouped top-k (top users by summed value per event type): per-batch
    partial (type, user) sums -> one keyed shuffle -> per-block vectorized
    grouped top-k -> tiny single-block final merge.  No global sort."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events", ["event_type", "user_id", "value"])

    def partial(b: pa.Table) -> pa.Table:
        cents = np.rint(b.column("value").to_numpy() * 100).astype(np.int64)
        t = pa.table({"event_type": b.column("event_type"),
                      "user_id": b.column("user_id"),
                      "_c": pa.array(cents)})
        g = t.group_by(["event_type", "user_id"]).aggregate([("_c", "sum")])
        return g.rename_columns(["event_type", "user_id", "_c"])

    agg = sized_groupby(ds.map_batches(partial, batch_format="pyarrow"),
                        ["event_type", "user_id"],
                        Sum("_c", alias_name="cents"))

    def block_topk(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return b
        idx = pc.sort_indices(b, sort_keys=[("event_type", "ascending"),
                                            ("cents", "descending"),
                                            ("user_id", "ascending")])
        b = b.take(idx)
        et = b.column("event_type").to_numpy(zero_copy_only=False)
        starts = np.flatnonzero(np.r_[True, et[1:] != et[:-1]])
        sizes = np.diff(np.r_[starts, len(et)])
        ranks = np.arange(len(et)) - np.repeat(starts, sizes)
        return b.filter(pa.array(ranks < k))

    # per-block partial top-k, then ONE coalesced final pass (<= k*types*blocks
    # rows — a merge, not a shuffle)
    return agg.map_batches(block_topk, batch_format="pyarrow") \
        .repartition(1).map_batches(block_topk, batch_format="pyarrow")


def docs_split_counts(sf_dir: str):
    """Deterministic 90/5/5 train/val/test split over the corpus
    (ops.sampling.with_split — pure per-batch hash labeler, no shuffle in
    the assignment), summarized per (lang, split) with exact token sums.
    The oracle recomputes the label with the same integer arithmetic."""
    from ray.data.aggregate import Sum

    from ..ops.sampling import _token_counts, with_split

    ds = with_split(_read(sf_dir, "documents", ["doc_id", "lang", "text"]),
                    "doc_id")

    def partial(b: pa.Table) -> pa.Table:
        t = pa.table({"lang": b.column("lang"), "split": b.column("split"),
                      "_n": _token_counts(b, "text")})
        g = t.group_by(["lang", "split"]).aggregate(
            [("_n", "sum"), ([], "count_all")])
        return g.rename_columns(["lang", "split", "_s", "_c"])

    return sized_groupby(ds.map_batches(partial, batch_format="pyarrow"),
                         ["lang", "split"],
                         Sum("_s", alias_name="n_tokens"),
                         Sum("_c", alias_name="n_docs"))


def docs_sample_n_per_group(sf_dir: str, n: int = 5):
    """Exactly-min(n, |group|) docs per language, deterministically: rank by
    the Knuth multiplicative hash of doc_id (the same integer keep-rule
    family as hash_sample, so resumes pick identical rows and SQL can rank
    identically) and keep the n smallest keys per group.  Grouped top-k
    machinery: per-block partial, one tiny coalesced merge, no global sort —
    the 'take a fixed-size per-stratum sample' step between dedup and
    training."""
    ds = _read(sf_dir, "documents", ["doc_id", "lang"])

    def with_key(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy().astype(np.int64)
        key = (ids * 2654435761) % (1 << 32)
        return pa.table({"lang": b.column("lang"),
                         "doc_id": b.column("doc_id"),
                         "hash_key": pa.array(key.astype(np.int64))})

    def block_topn(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return b
        idx = pc.sort_indices(b, sort_keys=[("lang", "ascending"),
                                            ("hash_key", "ascending"),
                                            ("doc_id", "ascending")])
        b = b.take(idx)
        lg = b.column("lang").to_numpy(zero_copy_only=False)
        starts = np.flatnonzero(np.r_[True, lg[1:] != lg[:-1]])
        sizes = np.diff(np.r_[starts, len(lg)])
        ranks = np.arange(len(lg)) - np.repeat(starts, sizes)
        return b.filter(pa.array(ranks < n))

    return ds.map_batches(with_key, batch_format="pyarrow") \
        .map_batches(block_topn, batch_format="pyarrow") \
        .repartition(1).map_batches(block_topn, batch_format="pyarrow")


def events_p90_value(sf_dir: str):
    """Exact per-type 90th-percentile order statistics (same two-pass
    histogram machinery as the median, ranks floor/ceil((n-1)*0.9))."""
    from ..ops.quantile import exact_group_quantile
    ds = _read(sf_dir, "events", ["event_type", "value"])
    t = exact_group_quantile(ds, "value", "event_type", 9, 10)
    lo = np.floor(t.column("med_lo").to_numpy() * 1e6 + 0.5).astype(np.int64)
    hi = np.floor(t.column("med_hi").to_numpy() * 1e6 + 0.5).astype(np.int64)
    return pa.table({"event_type": t.column("event_type"),
                     "p90_lo_micro": pa.array(lo),
                     "p90_hi_micro": pa.array(hi),
                     "n_events": t.column("n")})


CORPUS_MIN_TOKENS = 20
CORPUS_MAX_CHARS = 2000


def docs_corpus_pipeline(sf_dir: str, budget: int = PACK_TOKEN_BUDGET):
    """End-to-end training-corpus preparation as ONE streaming composition:
    quality filter -> exact dedup (min doc_id per text, winner row packed into
    the string Min so the only shuffle moves (text, small-key) rows) ->
    deterministic stratified sample -> token-budget batch packing ->
    per-batch summary.  Every stage is an existing operator; the whole chain
    is SQL-mirrorable, so the driver value-hashes the composition, not just
    the pieces."""
    from ray.data.aggregate import Min

    from ..ops.sampling import hash_sample, pack_token_batches

    ds = _read(sf_dir, "documents", ["doc_id", "text", "lang"])

    def qual_and_pack(b: pa.Table) -> pa.Table:
        toks = pc.cast(pc.list_value_length(
            pc.split_pattern_regex(b.column("text"), r"\s+")), pa.int64())
        chars = pc.cast(pc.utf8_length(b.column("text")), pa.int64())
        mask = pc.and_(
            pc.greater_equal(toks, pa.scalar(CORPUS_MIN_TOKENS, pa.int64())),
            pc.less_equal(chars, pa.scalar(CORPUS_MAX_CHARS, pa.int64())))
        b = b.filter(mask)
        ids = b.column("doc_id").to_numpy()
        langs = b.column("lang").to_pylist()
        packed = [f"{i:020d}|{l}" for i, l in zip(ids, langs)]
        g = pa.table({"text": b.column("text"),
                      "_w": pa.array(packed, pa.string())}) \
            .group_by("text").aggregate([("_w", "min")])
        return g.rename_columns(["text", "_w"])

    winners = sized_groupby(
        ds.map_batches(qual_and_pack, batch_format="pyarrow"),
        "text", Min("_w", alias_name="_w"))

    def unpack(b: pa.Table) -> pa.Table:
        w = b.column("_w").to_pylist()
        ids = np.array([int(x[:20]) for x in w], dtype=np.int64)
        langs = [x[21:] for x in w]
        return pa.table({"doc_id": pa.array(ids),
                         "text": b.column("text"),
                         "lang": pa.array(langs, pa.string())})

    survivors = winners.map_batches(unpack, batch_format="pyarrow")
    sampled = hash_sample(survivors, SAMPLE_RATES_PER_MILLE, "doc_id", "lang")
    packed = pack_token_batches(sampled, budget)

    def partial(b: pa.Table) -> pa.Table:
        g = b.select(["batch_id", "n_tokens"]).group_by("batch_id") \
             .aggregate([("n_tokens", "sum"), ([], "count_all")])
        return g.rename_columns(["batch_id", "_ps", "_pc"])

    from ray.data.aggregate import Sum

    return sized_groupby(packed.map_batches(partial, batch_format="pyarrow"),
                         "batch_id",
                         Sum("_ps", alias_name="sum_tokens"),
                         Sum("_pc", alias_name="n_docs"))


def docs_ngram_jaccard(sf_dir: str, threshold: float = 0.5):
    """Word-bigram-set Jaccard near-dup pairs (exact, all-pairs oracle
    baseline; minhash_dedup is the scale path)."""
    from ..ops.dedup import ngram_jaccard_pairs
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ngram_jaccard_pairs(ds, threshold)


def docs_fingerprint_overlap(sf_dir: str, top_k: int = 20):
    """Top document pairs by shared winnowing fingerprints (MOSS-style copy
    detection over the corpus; rows-only — the rolling-hash fingerprint has no
    SQL equivalent).  Exact-duplicate documents share their whole fingerprint
    set, so planted dups surface at the top."""
    from ..ops.text import fingerprint_overlap_pairs
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return fingerprint_overlap_pairs(ds, top_k=top_k)


def docs_repetition(sf_dir: str):
    """Token/bigram repetition quality signals per doc (Gopher/C4-style),
    vectorized dictionary-encode + lexsort distinct counts."""
    from ..ops.text import with_repetition
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return with_repetition(ds).map_batches(
        lambda b: b.drop_columns(["text"]), batch_format="pyarrow")


def docs_lang_id(sf_dir: str):
    from ..ops.text import with_language
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def finalize(b: pa.Table) -> pa.Table:
        # integer-exact confidence: hits*1e6 // n_tokens, so the DuckDB oracle
        # ((hits*1000000)//n) matches bit-for-bit with no float rounding
        hits = b.column("lang_hits").to_numpy()
        n = np.maximum(b.column("n_tokens_lang").to_numpy(), 1)
        conf = hits * 1_000_000 // n
        return pa.table({"doc_id": b.column("doc_id"),
                         "detected_lang": b.column("detected_lang"),
                         "conf_micro": pa.array(conf, pa.int64())})

    return with_language(ds).map_batches(finalize, batch_format="pyarrow")


def embed_knn_join(sf_dir: str, k: int = 5, n_queries: int = 8):
    """Batched ANN (kNN join): top-k per query for a broadcast query matrix in
    ONE corpus pass — per-block GEMM + per-query partial top-k, tiny final
    merge (ops.similarity.brute_topk already takes a matrix)."""
    from ..ops.similarity import brute_topk
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    dim = 64
    Q = np.stack([np.sin(np.arange(dim, dtype=np.float64) * 0.1 * (j + 1))
                  + 0.5 for j in range(n_queries)])
    return brute_topk(ds, Q, k)


def embed_lsh_top20(sf_dir: str):
    from ..ops.similarity import lsh_topk
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    dim = 64
    q = np.sin(np.arange(dim, dtype=np.float64) * 0.1) + 0.5
    return lsh_topk(ds, q, 20, n_bits=4, n_tables=16)


def embed_ivf_top10(sf_dir: str, n_centroids: int = 32, nprobe: int = 8):
    """IVF ANN: k-means coarse quantizer trained on a driver-side sample,
    nprobe nearest lists probed + exact rerank (ops.similarity.ivf_topk).
    The corpus streams; only the (n_centroids x dim) quantizer is broadcast."""
    from ..ops.similarity import ivf_topk, kmeans_centroids
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    sample = ds.limit(2048).to_pandas()
    X = np.stack(sample["embedding"].to_numpy())
    C = kmeans_centroids(X, n_centroids)
    dim = X.shape[1]
    q = np.sin(np.arange(dim, dtype=np.float64) * 0.1) + 0.5
    return ivf_topk(ds, q, 10, C, nprobe=nprobe)


def images_augment(sf_dir: str):
    """Deterministic augmentation sweep over the image table
    (ops.multimodal.ImageAugment): per-variant summary grouped by the flip
    combination — row count, mean |brightness shift|, and the mean phash
    Hamming distance between original and augmented pixels (flips permute
    the 8x8 hash blocks -> large distance; pure brightness shifts barely
    move it).  Augmented bytes stay inside the stage; only integer partials
    shuffle."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from ..io.imagetable import ensure_image_table
    from ..ops.dedup import _popcount64
    from ..ops.multimodal import ImageAugment, _default_pool

    ds = rd.read_parquet(ensure_image_table(_sf_of(sf_dir)))
    aug = ds.map_batches(ImageAugment, batch_format="pyarrow",
                         concurrency=_default_pool(), max_restarts=0)

    def partial(b: pa.Table) -> pa.Table:
        ham = _popcount64(b.column("orig_phash").to_numpy().astype(np.uint64)
                          ^ b.column("phash").to_numpy().astype(np.uint64))
        # in-row oracle: decoded-image phash vs the phash stored at
        # synthesis — summed per group, asserted zero in tests
        bad = pc.cast(pc.not_equal(b.column("decoded_phash"),
                                   b.column("orig_phash")), pa.int64())
        t = pa.table({
            "flip_h": b.column("flip_h"), "flip_v": b.column("flip_v"),
            "_ham": pa.array(ham.astype(np.int64)),
            "_abs": pc.abs(b.column("bright_shift")),
            "_bad": bad})
        g = t.group_by(["flip_h", "flip_v"]).aggregate(
            [("_ham", "sum"), ("_abs", "sum"), ("_bad", "sum"),
             ([], "count_all")])
        return g.rename_columns(["flip_h", "flip_v", "_sh", "_sa", "_sb",
                                 "_n"])

    agg = sized_groupby(aug.map_batches(partial, batch_format="pyarrow"),
                        ["flip_h", "flip_v"],
                        Sum("_sh", alias_name="_sh"),
                        Sum("_sa", alias_name="_sa"),
                        Sum("_sb", alias_name="n_decode_mismatch"),
                        Sum("_n", alias_name="n_images"))

    def fin(b: pa.Table) -> pa.Table:
        n = np.maximum(b.column("n_images").to_numpy(), 1)
        return pa.table({
            "flip_h": b.column("flip_h"), "flip_v": b.column("flip_v"),
            "n_images": b.column("n_images"),
            "mean_hamming_milli": pa.array(
                b.column("_sh").to_numpy() * 1000 // n),
            "mean_abs_shift_milli": pa.array(
                b.column("_sa").to_numpy() * 1000 // n),
            "n_decode_mismatch": b.column("n_decode_mismatch")})

    return agg.map_batches(fin, batch_format="pyarrow")


def images_caption_filter(sf_dir: str, min_tokens: int = 4):
    """Caption-quality gate over the image+caption table (the text half of a
    LAION-style multimodal filter): the SAME vectorized quality kernels the
    documents pipeline uses (ops.text.quality_metrics_batch — Arrow regex
    counters, no per-row Python) run on the caption column, and images whose
    caption is too short or digit-heavy are dropped.  Returns per-format
    kept/dropped counts plus integer caption-length stats; bytes are never
    read (column pruning at the parquet scan)."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from ..io.imagetable import ensure_image_table
    from ..ops.text import quality_metrics_batch

    ds = rd.read_parquet(ensure_image_table(_sf_of(sf_dir)),
                         columns=["image_id", "fmt", "caption"])

    def partial(b: pa.Table) -> pa.Table:
        q = quality_metrics_batch(b, text_col="caption")
        ntok = q.column("n_tokens").to_numpy()
        ndig = q.column("n_digits").to_numpy()
        nch = q.column("n_chars").to_numpy()
        # digit-heavy captions (39%+ of characters) read as coordinates-only
        # noise; integer-exact ratio rule, threshold set where the synthetic
        # caption population actually splits
        keep = (ntok >= min_tokens) & (ndig * 1000 <= nch * 390)
        t = pa.table({"fmt": b.column("fmt"),
                      "_k": pa.array(keep.astype(np.int64)),
                      "_d": pa.array((~keep).astype(np.int64)),
                      "_c": pa.array(np.where(keep, nch, 0))})
        g = t.group_by("fmt").aggregate(
            [("_k", "sum"), ("_d", "sum"), ("_c", "sum")])
        return g.rename_columns(["fmt", "_k", "_d", "_c"])

    agg = sized_groupby(ds.map_batches(partial, batch_format="pyarrow"),
                        "fmt", Sum("_k", alias_name="n_kept"),
                        Sum("_d", alias_name="n_dropped"),
                        Sum("_c", alias_name="_c"))

    def fin(b: pa.Table) -> pa.Table:
        n = np.maximum(b.column("n_kept").to_numpy(), 1)
        return pa.table({
            "fmt": b.column("fmt"),
            "n_kept": b.column("n_kept"),
            "n_dropped": b.column("n_dropped"),
            "avg_caption_chars_milli": pa.array(
                b.column("_c").to_numpy() * 1000 // n)})

    return agg.map_batches(fin, batch_format="pyarrow")


def images_corpus_pipeline(sf_dir: str, bright_max_milli: int = 127_000):
    """End-to-end IMAGE corpus preparation, the multimodal analogue of
    docs_corpus_pipeline: one fused decode pass (ops.multimodal.ImagePrep —
    integrity check + brightness/contrast + phash, bytes never leave the
    stage) -> quality filter (verified phash AND brightness under the cap,
    a LAION-style exposure gate) -> perceptual-hash dedup (keeper = min
    image_id per phash, sized_groupby) -> keeper semi-join -> per-format
    summary with integer-exact averages.

    The keeper set is broadcast (ray.put) because it is bounded by DISTINCT
    phashes, already small after dedup; at 100 TB with a high-entropy phash
    column, swap the semi-join for the hash join in ops.joins (one shuffle of
    the small integer rows — the decode pass is unchanged either way)."""
    import ray.data as rd
    from ray.data.aggregate import Count, Min, Sum

    from ..io.imagetable import ensure_image_table
    from ..ops.joins import broadcast_semi_join
    from ..ops.multimodal import ImagePrep, _default_pool

    ds = rd.read_parquet(ensure_image_table(_sf_of(sf_dir)))
    prep = ds.map_batches(ImagePrep, batch_format="pyarrow",
                          concurrency=_default_pool(), max_restarts=0)
    # materialize the POST-decode integer rows once: two consumers follow
    # (keeper groupby, winner semi-join) and without this the whole decode
    # pass would re-execute for the second — the exact cost the fused stage
    # exists to avoid.  Bytes are gone by here, so this holds ~40 B/image in
    # the object store, distributed.
    good = prep.filter(
        expr=f"phash_ok and bright_milli < {bright_max_milli}").materialize()
    keep = sized_groupby(good, "phash",
                         Min("image_id", alias_name="keeper_id")) \
        .to_pandas()["keeper_id"].tolist()
    winners = broadcast_semi_join(good, keep, key_col="image_id")

    def partial(b: pa.Table) -> pa.Table:
        t = pa.table({"fmt": b.column("fmt"),
                      "_b": b.column("bright_milli"),
                      "_c": b.column("contrast_milli")})
        g = t.group_by("fmt").aggregate(
            [("_b", "sum"), ("_c", "sum"), ([], "count_all")])
        return g.rename_columns(["fmt", "_sb", "_sc", "_n"])

    agg = sized_groupby(winners.map_batches(partial, batch_format="pyarrow"),
                        "fmt", Sum("_sb", alias_name="_sb"),
                        Sum("_sc", alias_name="_sc"),
                        Sum("_n", alias_name="n_kept"))

    def fin(b: pa.Table) -> pa.Table:
        n = b.column("n_kept").to_numpy()
        return pa.table({
            "fmt": b.column("fmt"),
            "n_kept": b.column("n_kept"),
            "avg_bright_milli": pa.array(
                b.column("_sb").to_numpy() // np.maximum(n, 1)),
            "avg_contrast_milli": pa.array(
                b.column("_sc").to_numpy() // np.maximum(n, 1))})

    return agg.map_batches(fin, batch_format="pyarrow")


def docs_decontaminate(sf_dir: str, k: int = 5, mod: int = 10):
    """Test-set decontamination over the documents table: every 1-in-`mod`
    doc (by id) plays the held-out eval set; training docs sharing any word
    k-gram with it are flagged with their shared-distinct-k-gram count
    (ops.dedup.decontaminate — broadcast eval hash union, streaming
    membership, no shuffle).  k=5 suits these short synthetic docs; real
    decontamination runs use k=8..13 on the same code path."""
    from ..ops.dedup import decontaminate

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def split(b: pa.Table, want_eval: bool) -> pa.Table:
        ids = b.column("doc_id").to_numpy()
        m = (ids % mod == 0) if want_eval else (ids % mod != 0)
        return b.filter(pa.array(m))

    eval_texts = ds.map_batches(lambda b: split(b, True),
                                batch_format="pyarrow") \
        .to_pandas()["text"].tolist()       # eval side: small by construction
    train = ds.map_batches(lambda b: split(b, False), batch_format="pyarrow")
    return decontaminate(train, eval_texts, k=k)


def embed_ivf_multiquery(sf_dir: str, n_queries: int = 4, k: int = 5,
                         n_centroids: int = 32, nprobe: int = 8):
    """Multi-query ANN over a PERSISTED IVF index: the corpus is assigned to
    lists and written hive-partitioned ONCE (cached under /tmp like the image
    tables); each of the n_queries then reads only its nprobe list
    directories — the serving pattern where the index cost amortizes over
    queries.  Deterministic: same quantizer sample/seed as embed_ivf_top10."""
    import os

    from ..ops.similarity import (build_ivf_index, ivf_topk_indexed,
                                  kmeans_centroids)

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    sample = ds.limit(2048).to_pandas()
    X = np.stack(sample["embedding"].to_numpy())
    C = kmeans_centroids(X, n_centroids)
    dim = X.shape[1]
    sf = _sf_of(sf_dir)
    idx_dir = os.path.join("/tmp/dggsray_cache",
                           f"ivf_sf{sf}_c{n_centroids}")
    build_ivf_index(ds, C, idx_dir)

    from ..ops.joins import build_parallel

    def probe(j):
        def run():
            q = np.sin(np.arange(dim, dtype=np.float64)
                       * 0.1 * (j + 1)) + 0.5
            t = ivf_topk_indexed(idx_dir, q, k, C,
                                 nprobe=nprobe).to_pandas()
            t["query"] = np.int32(j)
            return t
        return run

    # independent read-only probes of the persisted index: overlapping
    # them costs max() of their walls, the multi-tenant serving shape
    outs = build_parallel(*[probe(j) for j in range(n_queries)])
    import pandas as pd
    return pd.concat(outs, ignore_index=True)


def embed_quantized_top10(sf_dir: str, k: int = 10):
    """ANN over an int8-quantized corpus: quantize (4-8x storage cut),
    dequantize per batch, exact rerank with the unchanged brute_topk kernel.
    Recall vs the float index is bounded by the scale/2 per-component error
    (tested); rows-only because quantized cosines legitimately differ in the
    low micro digits from the float oracle."""
    from ..ops.similarity import (brute_topk, dequantize_batch,
                                  quantize_embeddings)

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    q = np.sin(np.arange(64, dtype=np.float64) * 0.1) + 0.5
    deq = quantize_embeddings(ds).map_batches(dequantize_batch,
                                              batch_format="pyarrow")
    return brute_topk(deq, q[None, :], k)


def images_jpeg_psnr(sf_dir: str, n: int = 500):
    """Lossy-codec per-row invariant (input_hint: "decoded-pixel allclose,
    PSNR >= 40 dB for lossy"): the JPEG-encoded variant table decodes through
    an actor-pool stage and every row reports its PSNR vs the regenerated
    reference plus caption equality.  sf_dir is unused (the table is
    engine-synthesized like the flagship input)."""
    import ray.data as rd

    from ..io.imagetable import (PSNR_MIN_DB, ensure_jpeg_table,
                                 iter_verify_rows, psnr_db, _pixels)

    path = ensure_jpeg_table(n)

    class JpegVerify:
        def __call__(self, b: pa.Table) -> pa.Table:
            vals = np.empty(b.num_rows)
            cap_ok = np.empty(b.num_rows, dtype=bool)
            for k, i, img, w, h, cok in iter_verify_rows(b):
                vals[k] = psnr_db(img, _pixels(i, w, h))
                cap_ok[k] = cok
            return pa.table({
                "image_id": b.column("image_id"),
                "psnr_milli_db": pa.array(
                    np.rint(vals * 1000).astype(np.int64)),
                "psnr_ok": pa.array(vals >= PSNR_MIN_DB),
                "caption_ok": pa.array(cap_ok)})

    # max_restarts=0: the serialized closure class is a constructor arg in the
    # object store; restarts with such args can abort the raylet (ray#53727).
    # batch_size=32: the table arrives as ONE parquet block; small batches are
    # what actually spread the per-image python decode across the pool.
    return rd.read_parquet(path).map_batches(
        JpegVerify, concurrency=(2, 8), batch_size=32, batch_format="pyarrow",
        max_restarts=0)


def images_phash_dedup(sf_dir: str):
    """Perceptual-hash dedup clusters across encodings — the multimodal
    analogue of docs_dedup_exact (LAION-style re-encode detection): the
    lossless image table UNIONed with its JPEG re-encoded variant, grouped by
    the 64-bit average-phash column the canonical input table carries
    (input_hint).  A re-encoded copy hashes identically (q98 JPEG preserves
    the 8x8 luma means bit-for-bit), so every cross-encoding duplicate lands
    in a cluster with n_jpeg > 0.  One row per duplicated cluster:
    (phash, n_images, n_jpeg, keeper_id = lexicographically first member).
    Only (image_id, phash, fmt) columns ever leave the parquet scan; the
    shuffle moves per-block partial aggregates, not image rows."""
    import ray.data as rd
    from ray.data.aggregate import Count, Min, Sum

    from ..io.imagetable import ensure_image_table, ensure_jpeg_table

    sf = float(sf_dir.rstrip("/").rsplit("sf", 1)[-1])
    cols = ["image_id", "phash", "fmt"]
    ds = rd.read_parquet(ensure_image_table(sf), columns=cols) \
        .union(rd.read_parquet(ensure_jpeg_table(), columns=cols))

    def prep(b: pa.Table) -> pa.Table:
        return pa.table({
            "phash": b.column("phash"),
            "image_id": b.column("image_id"),
            "_is_jpeg": pc.cast(pc.equal(b.column("fmt"), "jpeg"),
                                pa.int64())})

    grouped = sized_groupby(
        ds.map_batches(prep, batch_format="pyarrow"), "phash",
        Count(alias_name="n_images"),
        Sum("_is_jpeg", alias_name="n_jpeg"),
        Min("image_id", alias_name="keeper_id"))
    return grouped.filter(expr="n_images > 1")


def auid_customer_region(sf_dir: str, res: int = 3):
    """Distinct customer cells -> optimized CUID set -> canonical AUID.
    The distributed part is the distinct; the (small) compaction + encode is
    driver-side as in the reference (SURVEY.md section 2.9)."""
    from ..core.auid import RHEALPixAUIDGenerator, optimize_cuids
    import pandas as pd

    ds = _read(sf_dir, "customer", ["c_custkey"]) \
        .map_batches(lambda b: _with_cells(b, "c_custkey", res),
                     batch_format="pyarrow")
    cuids = sorted(set(ds.unique("cellid")))
    opt = optimize_cuids(cuids, 3)
    gen = RHEALPixAUIDGenerator(n_side=3)
    auid, h = gen.generate_auid_hash_b64(cuids)
    return pd.DataFrame({"n_cells": [len(cuids)], "n_optimized": [len(opt)],
                         "auid_b64": [auid], "auid_hash": [h]})


def knn_cells_customer(sf_dir: str, k: int = 15):
    from ..ops.joins import knn_cells
    ds = _read(sf_dir, "customer", ["c_custkey"]) \
        .map_batches(lambda b: _with_cells(b, "c_custkey", 6),
                     batch_format="pyarrow") \
        .rename_columns(["c_custkey", "cellid"])
    # deterministic query cell: the cell of customer key 1
    qlon, qlat = derived_lonlat(np.array([1]))
    qcell = cells_from_lonlat(6, qlon, qlat, DEFAULT_GRID)[0]
    out = knn_cells(ds, qcell, k, tiebreak_cols=["cellid", "c_custkey"])

    def to_int(b: pa.Table) -> pa.Table:
        # floor(d+0.5) == SQL round() for positive distances (np.rint would
        # bankers-round and diverge from the oracle at exact .5 m)
        d = np.floor(b.column("dist_m").to_numpy() + 0.5).astype(np.int64)
        return pa.table({"c_custkey": b.column("c_custkey"),
                         "cellid": b.column("cellid"),
                         "dist_m_int": pa.array(d)})
    return out.map_batches(to_int, batch_format="pyarrow")


def images_features(sf_dir: str):
    from ..io.imagetable import ensure_image_table
    from ..ops.multimodal import image_features
    import ray.data as rd
    sf = float(sf_dir.rstrip("/").rsplit("sf", 1)[-1])
    path = ensure_image_table(sf)
    ds = rd.read_parquet(path)
    feats = image_features(ds)

    def to_int(b: pa.Table) -> pa.Table:
        cols = {"image_id": b.column("image_id"), "phash": b.column("phash")}
        for c in ("mean_r", "mean_g", "mean_b", "std_r", "std_g", "std_b"):
            cols[c + "_milli"] = pa.array(
                np.rint(b.column(c).to_numpy() * 1000).astype(np.int64))
        # in-row oracle (rows-only query): the phash of the DECODED image
        # must equal the phash stored at synthesis from the original array —
        # any decode/plumbing corruption flips check_ok
        cols["check_ok"] = pc.equal(b.column("phash"),
                                    b.column("stored_phash"))
        return pa.table(cols)
    return feats.map_batches(to_int, batch_format="pyarrow")


def images_verify_invariant(sf_dir: str):
    """Per-row invariant of BASELINE.json input_hint: decoded pixels must equal
    the deterministically regenerated reference image (exact for lossless fmts,
    PSNR>=40dB would apply to lossy ones) and the caption must match its
    regenerated form.  Returns one row per image with check flags."""
    from ..io.imagetable import (_pixels_batch, average_phash_batch,
                                 ensure_image_table, iter_verify_rows)
    import ray.data as rd

    sf = float(sf_dir.rstrip("/").rsplit("sf", 1)[-1])
    path = ensure_image_table(sf)

    def kernel(b: pa.Table) -> pa.Table:
        n = b.num_rows
        phs = b.column("phash").to_numpy()
        ws = b.column("w").to_numpy()
        hs = b.column("h").to_numpy()
        pix_ok = np.zeros(n, dtype=bool)
        cap_ok = np.zeros(n, dtype=bool)
        phash_ok = np.zeros(n, dtype=bool)
        imgs, nums = [None] * n, np.empty(n, np.int64)
        for k, i, img, w, h, cok in iter_verify_rows(b):
            imgs[k], nums[k], cap_ok[k] = img, i, cok
        # reference regen + compare + phash batched per (w, h) group in
        # L2-SIZED chunks — a whole-group stack pushes the float64 phash
        # temps to DRAM (measured 20x slower than 16-row chunks); the chunk
        # amortizes Python dispatch while keeping every temp cache-resident
        for (w0, h0) in {(int(ws[k]), int(hs[k])) for k in range(n)}:
            sel = np.nonzero((ws == w0) & (hs == h0))[0]
            # a corrupted row whose decode yields the wrong shape must fail
            # ITS OWN pixels_ok flag, not crash the whole task's np.stack
            sel = np.array([k for k in sel
                            if imgs[int(k)].shape == (h0, w0, 3)],
                           dtype=np.int64)
            for s in range(0, sel.size, 16):
                sub = sel[s:s + 16]
                ref = _pixels_batch(nums[sub], w0, h0)
                stack = np.stack([imgs[int(k)] for k in sub])
                pix_ok[sub] = (stack == ref).reshape(sub.size, -1) \
                    .all(axis=1)
                phash_ok[sub] = average_phash_batch(stack) == phs[sub]
        return pa.table({"image_id": b.column("image_id"),
                         "pixels_ok": pa.array(pix_ok),
                         "caption_ok": pa.array(cap_ok),
                         "phash_ok": pa.array(phash_ok)})

    return rd.read_parquet(path).map_batches(kernel, batch_format="pyarrow",
                                             batch_size=128)


def cell_setops_customer_orders(sf_dir: str, res: int = 3):
    """Area set algebra between the customer cell set and the orders cell set at
    one resolution: ONE shared flags pass (per-cell in_a/in_b groupby), then all
    three cardinalities from a single grouped count — the inputs are encoded,
    expanded and shuffled exactly once, not once per set operator."""
    from ..ops.cellsets import area_setop_flags

    cust = _read(sf_dir, "customer", ["c_custkey"]) \
        .map_batches(lambda b: _with_cells(b, "c_custkey", res),
                     batch_format="pyarrow").select_columns(["cellid"])
    orders = _read(sf_dir, "orders", ["o_orderkey"]) \
        .map_batches(lambda b: _with_cells(b, "o_orderkey", res),
                     batch_format="pyarrow").select_columns(["cellid"])
    import pandas as pd
    flags = area_setop_flags(cust, orders, res)

    def partial_counts(b: pa.Table) -> pa.Table:
        a = b.column("in_a").to_numpy().astype(bool)
        bb = b.column("in_b").to_numpy().astype(bool)
        return pa.table({"_u": pa.array([int((a | bb).sum())], pa.int64()),
                         "_i": pa.array([int((a & bb).sum())], pa.int64()),
                         "_d": pa.array([int((a & ~bb).sum())], pa.int64())})

    tot = flags.map_batches(partial_counts, batch_format="pyarrow") \
        .sum(["_u", "_i", "_d"])
    return pd.DataFrame({"n_union": [int(tot["sum(_u)"])],
                         "n_intersection": [int(tot["sum(_i)"])],
                         "n_difference": [int(tot["sum(_d)"])]})


def cell_topk_densest(sf_dir: str, res: int = 4, k: int = 20):
    """Top-k cells by customer count (sort+limit over a cell aggregate)."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "customer", ["c_custkey"]) \
        .map_batches(lambda b: _with_cells(b, "c_custkey", res),
                     batch_format="pyarrow")

    def partial(b: pa.Table) -> pa.Table:
        g = b.select(["cellid"]).group_by("cellid").aggregate([([], "count_all")])
        return g.rename_columns(["cellid", "_p"])

    from ..ops.topk import partial_topk
    agg = sized_groupby(ds.map_batches(partial, batch_format="pyarrow"),
                        "cellid", Sum("_p", alias_name="n_points"))
    return partial_topk(agg, ["n_points", "cellid"], [True, False], k)


def events_sessions(sf_dir: str, gap_s: float = 1800.0):
    """Gap-based sessionization per user (windowed aggregate — an operator Ray
    Data lacks natively; `ops/window.sessionize`): one key-hash shuffle, then
    vectorized per-partition run-length kernels."""
    from ..ops.window import sessionize
    ds = _read(sf_dir, "events", ["user_id", "ts"])
    return sessionize(ds, gap_s=gap_s)


def events_view_attribution(sf_dir: str, window_min: int = 30):
    """Range self join: views attributed to each click — for every click,
    the count of the same user's view events within the preceding
    {window_min}-minute window, inclusive (ops.window.range_join_count,
    one user-hash shuffle + vectorized searchsorted window counts)."""
    from ..ops.window import range_join_count
    ds = _read(sf_dir, "events",
               ["event_id", "user_id", "ts", "event_type"])
    return range_join_count(ds, "click", "view", window_min * 60_000_000)


def events_asof_click_error(sf_dir: str):
    """As-of self join: every click event matched to the user's most recent
    error event at or before it (`ops/window.asof_join_self`)."""
    from ..ops.window import asof_join_self
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"])
    return asof_join_self(ds, "click", "error")


def events_hourly(sf_dir: str):
    """Events per (type, hour-of-day): temporal bucketing + grouped aggregate."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events", ["event_type", "ts", "value"])

    def partial(b: pa.Table) -> pa.Table:
        hours = pc.hour(b.column("ts"))
        cents = np.rint(b.column("value").to_numpy() * 100).astype(np.int64)
        t = pa.table({"event_type": b.column("event_type"),
                      "hour": pc.cast(hours, pa.int32()),
                      "cents": pa.array(cents)})
        g = t.group_by(["event_type", "hour"]).aggregate(
            [("cents", "sum"), ([], "count_all")])
        return g.rename_columns(["event_type", "hour", "_s", "_n"])

    return sized_groupby(ds.map_batches(partial, batch_format="pyarrow"),
                         ["event_type", "hour"],
                         Sum("_s", alias_name="value_cents"),
                         Sum("_n", alias_name="n_events"))


def events_cell_hourly(sf_dir: str, res: int = 2):
    """Spatiotemporal cube: events per (DGGS cell, hour-of-day) with exact
    cent sums — the ST-binning shape (H3/S2-style cell x time bucket) over
    user-derived points.  One partial aggregate per batch, one keyed shuffle
    of (cell x 24)-bounded partials."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events", ["user_id", "ts", "value"])

    def partial(b: pa.Table) -> pa.Table:
        keys = b.column("user_id").to_numpy()
        lon, lat = derived_lonlat(keys)
        cells = cells_from_lonlat(res, lon, lat, DEFAULT_GRID)
        hours = pc.cast(pc.hour(b.column("ts")), pa.int32())
        cents = np.rint(b.column("value").to_numpy() * 100).astype(np.int64)
        t = pa.table({"cell": pa.array(cells, pa.string()), "hour": hours,
                      "cents": pa.array(cents)})
        g = t.group_by(["cell", "hour"]).aggregate(
            [("cents", "sum"), ([], "count_all")])
        return g.rename_columns(["cell", "hour", "_s", "_n"])

    return sized_groupby(ds.map_batches(partial, batch_format="pyarrow"),
                         ["cell", "hour"],
                         Sum("_s", alias_name="value_cents"),
                         Sum("_n", alias_name="n_events"))


def events_geofence(sf_dir: str, res: int = 3):
    """Geofence aggregate — the broadcast spatial semi-join chain: a
    deterministic lon/lat polygon is rasterized to its res-{res} cell cover
    (ops.vector2dggs.burn_polygons_to_cells — the same even-odd scanline the
    vector pipelines use), the cover is broadcast, and events whose derived
    point falls in a covered cell aggregate per type.  The oracle recomputes
    every event's cellid in closed-form SQL and tests membership against the
    SAME cover literal — the cover itself is pinned by the rasterizer's own
    golden tests, the join/aggregate is verified independently."""
    from ray.data.aggregate import Sum

    cover = geofence_cover(res)

    ds = _read(sf_dir, "events", ["user_id", "event_type", "value"])

    def partial(b: pa.Table) -> pa.Table:
        keys = b.column("user_id").to_numpy()
        lon, lat = derived_lonlat(keys)
        cells = cells_from_lonlat(res, lon, lat, DEFAULT_GRID)
        inside = np.isin(cells, cover)
        cents = np.rint(b.column("value").to_numpy() * 100).astype(np.int64)
        t = pa.table({"event_type": b.column("event_type").filter(
                          pa.array(inside)),
                      "cents": pa.array(cents[inside])})
        g = t.group_by("event_type").aggregate(
            [("cents", "sum"), ([], "count_all")])
        return g.rename_columns(["event_type", "_s", "_n"])

    return sized_groupby(ds.map_batches(partial, batch_format="pyarrow"),
                         "event_type", Sum("_s", alias_name="value_cents"),
                         Sum("_n", alias_name="n_events"))


def geofence_cover(res: int = 3) -> np.ndarray:
    """Sorted cell cover of the fixed geofence triangle (lon/lat), shared by
    the engine query and the oracle generator so they can never drift."""
    from ..ops.vector2dggs import burn_polygons_to_cells

    tri = np.array([[-20.0, -10.0], [45.0, 5.0], [10.0, 40.0],
                    [-20.0, -10.0]])
    t = burn_polygons_to_cells([{"feature_id": 1, "value": 1,
                                 "rings": [tri]}], res)
    return np.sort(t.column("cellid").to_numpy(zero_copy_only=False))


def events_moving_window(sf_dir: str, window: int = 3):
    """Trailing moving window over per-type hourly aggregates: window sum of
    value-cents and event count over the current + (window-1) preceding
    hourly rows of each event type (SQL `ROWS BETWEEN n PRECEDING AND
    CURRENT ROW` semantics — rows, not time-range, so hour gaps do not pad).

    Scale shape: the wide input reduces DISTRIBUTEDLY to (type, hour)
    hourly partials first — cardinality bounded by #types x #hours (time
    span, not data volume) — then ONE vectorized sliding pass runs over that
    small sorted table.  At 100 TB the hourly table for 5 types x a decade
    is ~440k rows: single-task territory by construction.
    """
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events", ["event_type", "ts", "value"])

    def partial(b: pa.Table) -> pa.Table:
        hour_ts = pc.floor_temporal(b.column("ts"), unit="hour")
        cents = np.rint(b.column("value").to_numpy() * 100).astype(np.int64)
        t = pa.table({"event_type": b.column("event_type"),
                      "hour_ts": hour_ts,
                      "cents": pa.array(cents)})
        g = t.group_by(["event_type", "hour_ts"]).aggregate(
            [("cents", "sum"), ([], "count_all")])
        return g.rename_columns(["event_type", "hour_ts", "_s", "_n"])

    hourly = sized_groupby(ds.map_batches(partial, batch_format="pyarrow"),
                           ["event_type", "hour_ts"],
                           Sum("_s", alias_name="cents"),
                           Sum("_n", alias_name="n"))

    def sliding(b: pa.Table) -> pa.Table:
        idx = pc.sort_indices(b, sort_keys=[("event_type", "ascending"),
                                            ("hour_ts", "ascending")])
        b = b.take(idx)
        et = b.column("event_type").to_numpy(zero_copy_only=False)
        cents = b.column("cents").to_numpy()
        n = b.column("n").to_numpy()
        # per-type trailing sums via cumsum minus the cumsum `window` rows
        # back, reset at type boundaries (first row of each type restarts)
        start = np.zeros(len(et), dtype=np.int64)   # first row index of type
        if len(et):
            new = np.empty(len(et), dtype=bool)
            new[0] = True
            new[1:] = et[1:] != et[:-1]
            start = np.maximum.accumulate(np.where(new, np.arange(len(et)), 0))
        lo = np.maximum(np.arange(len(et)) - (window - 1), start)
        cs_c = np.concatenate([[0], np.cumsum(cents)])
        cs_n = np.concatenate([[0], np.cumsum(n)])
        hi = np.arange(len(et)) + 1
        return pa.table({
            "event_type": b.column("event_type"),
            "hour_ts": b.column("hour_ts"),
            "win_cents": pa.array(cs_c[hi] - cs_c[lo], pa.int64()),
            "win_events": pa.array(cs_n[hi] - cs_n[lo], pa.int64())})

    # one block by construction (hourly table is tiny post-aggregation)
    return hourly.repartition(1).map_batches(sliding, batch_format="pyarrow",
                                             batch_size=None)


def orders_lineitem_revenue(sf_dir: str, k: int = 50):
    """TPC-H Q3-flavoured: join orders x lineitem, revenue per order in exact
    cents, top-k (hash join + grouped aggregate + sort/limit)."""
    from ray.data.aggregate import Sum

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"])

    def partial(b: pa.Table) -> pa.Table:
        price = b.column("l_extendedprice").to_numpy()
        disc = b.column("l_discount").to_numpy()
        rev = np.rint(price * 100).astype(np.int64) \
            * np.rint((1 - disc) * 100).astype(np.int64)
        t = pa.table({"l_orderkey": b.column("l_orderkey"),
                      "rev": pa.array(rev)})
        g = t.group_by("l_orderkey").aggregate([("rev", "sum")])
        return g.rename_columns(["l_orderkey", "_r"])

    rev = sized_groupby(li.map_batches(partial, batch_format="pyarrow"),
                        "l_orderkey", Sum("_r", alias_name="revenue_e4"))
    from ..ops.topk import partial_topk
    # top-k the (l_orderkey, revenue) aggregate BEFORE touching orders: the k
    # winners (tiny) become a broadcast is_in filter over the orders scan, so
    # neither side is ever hash-shuffled and there is no global sort
    top = partial_topk(rev, ["revenue_e4", "l_orderkey"], [True, False], k) \
        .to_pandas()        # k rows — driver-safe at any input size
    keyset = pa.array(top["l_orderkey"].to_numpy(), pa.int64())
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
    matched = orders.map_batches(
        lambda b: b.filter(pc.is_in(pc.cast(b.column("o_orderkey"), pa.int64()),
                                    value_set=keyset)),
        batch_format="pyarrow").to_pandas()    # <= k rows
    out = top.merge(matched, left_on="l_orderkey", right_on="o_orderkey")
    out = out[["l_orderkey", "o_orderpriority", "revenue_e4"]]
    return out.sort_values(["revenue_e4", "l_orderkey"],
                           ascending=[False, True]).reset_index(drop=True)


def docs_vocab_topk(sf_dir: str, k: int = 50):
    """Corpus vocabulary: the k most frequent whitespace tokens.  The classic
    wide aggregate done combiner-first: every batch pre-counts its own tokens
    with one Arrow split+flatten+value_counts (the shuffle then moves
    (distinct-token x block) partial rows, not one row per token INSTANCE),
    a keyed Sum merges partials, and ops.topk.partial_topk picks the winners
    without a global sort.  At 100 TB the exchanged bytes are bounded by
    vocabulary size x block count — independent of corpus length."""
    from ray.data.aggregate import Sum

    from ..ops.topk import partial_topk

    ds = _read(sf_dir, "documents", ["text"])

    def counts(b: pa.Table) -> pa.Table:
        toks = pc.list_flatten(
            pc.split_pattern_regex(b.column("text"), r"\s+"))
        toks = toks.filter(pc.not_equal(toks, ""))
        vc = toks.value_counts()
        return pa.table({"token": vc.field("values"),
                         "n": pc.cast(vc.field("counts"), pa.int64())})

    tot = sized_groupby(ds.map_batches(counts, batch_format="pyarrow"),
                        "token", Sum("n", alias_name="n"))
    return partial_topk(tot, ["n", "token"], [True, False], k)


def docs_chunk_windows(sf_dir: str, chunk: int = 32, stride: int = 24):
    """Context-window chunking — split every document into overlapping
    token windows (size `chunk`, step `stride`), the prep step that turns a
    variable-length corpus into training rows.  Fully vectorized flat-map:
    chunk j of every doc comes from ONE Arrow list_slice + binary_join over
    the whole batch, looping only over the (small, bounded) max chunk count
    — never over rows.  Emits (doc_id, chunk_idx, n_tokens, chunk_text)."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def kernel(b: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(b.column("text"), r"\s+")
        toks = toks.combine_chunks() if isinstance(toks, pa.ChunkedArray) \
            else toks
        n = pc.list_value_length(toks).to_numpy().astype(np.int64)
        ids = b.column("doc_id").to_numpy().astype(np.int64)
        nchunks = np.where(n > 0, (n + stride - 1) // stride, 0)
        out_id, out_j, out_n, out_t = [], [], [], []
        for j in range(int(nchunks.max()) if nchunks.size else 0):
            m = nchunks > j
            off = j * stride
            sl = pc.list_slice(toks.filter(pa.array(m)), off, off + chunk)
            out_t.append(pc.binary_join(sl, " "))
            out_id.append(ids[m])
            out_j.append(np.full(int(m.sum()), j, dtype=np.int64))
            out_n.append(np.minimum(n[m] - off, chunk))
        if not out_id:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "chunk_idx": pa.array([], pa.int64()),
                             "n_tokens": pa.array([], pa.int64()),
                             "chunk_text": pa.array([], pa.string())})
        return pa.table({
            "doc_id": pa.array(np.concatenate(out_id)),
            "chunk_idx": pa.array(np.concatenate(out_j)),
            "n_tokens": pa.array(np.concatenate(out_n)),
            "chunk_text": pa.concat_arrays(
                [t.combine_chunks() if isinstance(t, pa.ChunkedArray) else t
                 for t in out_t])})

    return ds.map_batches(kernel, batch_format="pyarrow")


def docs_token_commonness(sf_dir: str, broadcast_limit: int = 2_000_000):
    """Corpus-statistics scoring — the two-pass broadcast-stats shape every
    frequency-based quality filter (TF weighting, unigram-LM surprisal)
    follows: pass 1 aggregates global token counts (combiner-first, same
    machinery as docs_vocab_topk), the small vocab table is broadcast via
    ray.put, pass 2 streams the corpus scoring each doc.  Integer outputs
    (sum and floor-mean of per-token global counts) keep the oracle
    hash-exact where a float log-prob would not be.

    Above `broadcast_limit` distinct tokens (web-scale corpora reach billions
    of distinct tokens — far past what one driver/worker heap holds) the
    vocabulary is never collected: the corpus explodes to per-doc (token,
    tf) rows (exact per batch — every doc lives in one batch), hash-joins the
    vocabulary by token, partial-sums per doc inside each join partition,
    and one doc-keyed sized_groupby finalizes.  Same outputs, bounded
    memory everywhere (the tested over-cap path; same fallback shape as
    docs_tfidf_topk)."""
    import ray
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def counts(b: pa.Table) -> pa.Table:
        toks = pc.list_flatten(
            pc.split_pattern_regex(b.column("text"), r"\s+"))
        toks = toks.filter(pc.not_equal(toks, ""))
        vc = toks.value_counts()
        return pa.table({"token": vc.field("values"),
                         "n": pc.cast(vc.field("counts"), pa.int64())})

    vocab_ds = sized_groupby(ds.map_batches(counts, batch_format="pyarrow"),
                             "token", Sum("n", alias_name="n")).materialize()
    if vocab_ds.count() > broadcast_limit:
        return _token_commonness_joined(ds, vocab_ds)
    vocab = vocab_ds.to_pandas()        # <= broadcast_limit rows by the gate
    # vocabulary-sized, not corpus-sized — sorted arrays for searchsorted
    vt = np.sort(vocab["token"].to_numpy())
    vn = vocab.set_index("token").loc[vt, "n"].to_numpy().astype(np.int64)
    ref = ray.put((vt, vn))

    def score(b: pa.Table) -> pa.Table:
        T, N = ray.get(ref)
        toks = pc.split_pattern_regex(b.column("text"), r"\s+")
        toks = toks.combine_chunks() if isinstance(toks, pa.ChunkedArray) \
            else toks
        flat = toks.flatten()
        off = toks.offsets.to_numpy()
        off = (off - off[0]).astype(np.int64)
        lens = off[1:] - off[:-1]
        seg = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
        fv = flat.to_numpy(zero_copy_only=False)
        keep = fv != ""
        seg, fv = seg[keep], fv[keep]
        idx = np.searchsorted(T, fv)
        cnt = N[np.minimum(idx, len(T) - 1)]
        tot = np.bincount(seg, weights=cnt, minlength=len(lens)) \
            .astype(np.int64)
        ntok = np.bincount(seg, minlength=len(lens)).astype(np.int64)
        return pa.table({
            "doc_id": b.column("doc_id"),
            "n_tokens": pa.array(ntok),
            "sum_commonness": pa.array(tot),
            "mean_commonness": pa.array(tot // np.maximum(ntok, 1))})

    return ds.map_batches(score, batch_format="pyarrow")


def _token_commonness_joined(ds, vocab_ds):
    """Over-cap path for docs_token_commonness: vocabulary too large to
    broadcast, so the (doc, token, tf) rows meet the vocabulary in a
    token-hash join instead.  Exchange is bounded by (distinct tokens per
    doc) rows on the probe side and the vocabulary on the build side;
    nothing corpus-sized or vocabulary-sized ever lands on one node.

    Every doc also emits one sentinel row (token="", tf=0) and the
    vocabulary gains a matching ("", 0) row, so zero-token docs survive the
    inner join and come out with all-zero scores — no driver-side anti-join
    needed."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from ..ops.joins import hash_join, join_partitions

    def tf_kernel(b: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(b.column("text"), r"\s+")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        ids = b.column("doc_id").take(pc.list_parent_indices(toks))
        t = pa.table({"doc_id": pc.cast(ids, pa.int64()),
                      "token": pc.list_flatten(toks)})
        t = t.filter(pc.not_equal(t.column("token"), ""))
        g = t.group_by(["doc_id", "token"]).aggregate([([], "count_all")])
        real = pa.table({"doc_id": pc.cast(g.column("doc_id"), pa.int64()),
                         "token": g.column("token"),
                         "tf": pc.cast(g.column("count_all"), pa.int64())})
        sent = pa.table({"doc_id": pc.cast(b.column("doc_id"), pa.int64()),
                         "token": pa.array([""] * b.num_rows, pa.string()),
                         "tf": pa.array(np.zeros(b.num_rows, np.int64))})
        return pa.concat_tables([real, sent]).combine_chunks()

    tf = ds.map_batches(tf_kernel, batch_format="pyarrow")
    sentinel = rd.from_arrow(pa.table({"token": pa.array([""], pa.string()),
                                       "n": pa.array([0], pa.int64())}))
    joined = hash_join(tf, vocab_ds.union(sentinel), on="token",
                       num_partitions=join_partitions())

    def partial_doc(b: pa.Table) -> pa.Table:
        s = pc.multiply(pc.cast(b.column("tf"), pa.int64()),
                        pc.cast(b.column("n"), pa.int64()))
        t = pa.table({"doc_id": b.column("doc_id"),
                      "_nt": b.column("tf"), "_s": s})
        g = t.group_by("doc_id").aggregate([("_nt", "sum"), ("_s", "sum")])
        return g.rename_columns(["doc_id", "_nt", "_s"])

    per_doc = sized_groupby(joined.map_batches(partial_doc,
                                               batch_format="pyarrow"),
                            "doc_id", Sum("_nt", alias_name="_nt"),
                            Sum("_s", alias_name="_s"))

    def finalize(b: pa.Table) -> pa.Table:
        ntok = b.column("_nt").to_numpy().astype(np.int64)
        tot = b.column("_s").to_numpy().astype(np.int64)
        return pa.table({
            "doc_id": pc.cast(b.column("doc_id"), pa.int64()),
            "n_tokens": pa.array(ntok),
            "sum_commonness": pa.array(tot),
            "mean_commonness": pa.array(tot // np.maximum(ntok, 1))})

    return per_doc.map_batches(finalize, batch_format="pyarrow")


def events_props_extract(sf_dir: str):
    """Semi-structured parsing: pull the integer field `k` out of the JSON
    `props` column with ONE vectorized Arrow regex per batch (extract_regex —
    no per-row json.loads), then a low-cardinality grouped aggregate per
    event type.  The JSON never leaves the scan stage; the shuffle moves one
    partial row per (event_type, block)."""
    from ray.data.aggregate import Max, Sum

    ds = _read(sf_dir, "events", ["event_type", "props"])

    def kernel(b: pa.Table) -> pa.Table:
        ex = pc.extract_regex(b.column("props"), r'"k":\s*(?P<k>\d+)')
        kv = pc.cast(pc.struct_field(ex, "k"), pa.int64())
        t = pa.table({"event_type": b.column("event_type"), "_k": kv})
        g = t.group_by("event_type").aggregate(
            [("_k", "sum"), ("_k", "max"), ([], "count_all")])
        return g.rename_columns(["event_type", "_s", "_m", "_n"])

    return sized_groupby(ds.map_batches(kernel, batch_format="pyarrow"),
                         "event_type", Sum("_s", alias_name="sum_k"),
                         Max("_m", alias_name="max_k"),
                         Sum("_n", alias_name="n_events"))


def docs_tfidf_topk(sf_dir: str, k: int = 5,
                    broadcast_limit: int = 2_000_000):
    """Per-document distinctive terms: the k tokens with the highest
    integer-exact tf/df score (tf * 1e6 // df — monotone in tf-idf for the
    comparisons that matter, and bit-reproducible in SQL, unlike a float
    log).  Three stages, each bounded:

    1. tf — one vectorized Arrow pass (split + list_parent_indices +
       batch-local group_by; every doc lives in exactly one batch, so the
       batch-local count IS the final tf).  No shuffle.
    2. df — per-block token value_counts (distinct per doc already) summed
       by sized_groupby: the exchange moves (vocab x blocks) partial rows,
       never token instances.
    3. score + per-doc top-k — vocabularies are bounded (~1e7 terms at web
       scale, ~100 MB), so the df table is ray.put once and probed per batch
       (broadcast_lookup_join); doc locality is preserved, making the
       per-batch grouped top-k exact with ZERO additional shuffle.  Above
       `broadcast_limit` distinct tokens it falls back to a token-hash join
       + per-doc map_groups (documented per-group cost).

    Emits (doc_id, token, tf, score) — the corpus recomputes once per
    consuming pass instead of materializing the doc x token matrix."""
    from ray.data.aggregate import Sum

    from ..ops.joins import (broadcast_lookup_join, hash_join,
                             join_partitions, sized_groupby)

    def tf_kernel(b: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(b.column("text"), r"\s+")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        ids = b.column("doc_id").take(pc.list_parent_indices(toks))
        t = pa.table({"doc_id": ids, "token": pc.list_flatten(toks)})
        t = t.filter(pc.not_equal(t.column("token"), ""))
        g = t.group_by(["doc_id", "token"]).aggregate([([], "count_all")])
        return pa.table({"doc_id": pc.cast(g.column("doc_id"), pa.int64()),
                         "token": g.column("token"),
                         "tf": pc.cast(g.column("count_all"), pa.int64())})

    def tf_ds():
        return _read(sf_dir, "documents", ["doc_id", "text"]) \
            .map_batches(tf_kernel, batch_format="pyarrow")

    def df_partial(b: pa.Table) -> pa.Table:
        vc = b.column("token").value_counts()
        return pa.table({"token": vc.field("values"),
                         "df": pc.cast(vc.field("counts"), pa.int64())})

    df = sized_groupby(tf_ds().map_batches(df_partial,
                                           batch_format="pyarrow"),
                       "token", Sum("df", alias_name="df"))

    def score_topk(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "token": pa.array([], pa.string()),
                             "tf": pa.array([], pa.int64()),
                             "score": pa.array([], pa.int64())})
        tf = b.column("tf").to_numpy().astype(np.int64)
        dfv = b.column("df").to_numpy().astype(np.int64)
        b = b.append_column("score", pa.array(tf * 1_000_000 // dfv))
        idx = pc.sort_indices(b, sort_keys=[("doc_id", "ascending"),
                                            ("score", "descending"),
                                            ("token", "ascending")])
        b = b.take(idx)
        d = b.column("doc_id").to_numpy()
        starts = np.flatnonzero(np.r_[True, d[1:] != d[:-1]])
        ranks = np.arange(len(d)) - np.repeat(
            starts, np.diff(np.r_[starts, len(d)]))
        return b.filter(pa.array(ranks < k)) \
            .select(["doc_id", "token", "tf", "score"])

    if df.count() <= broadcast_limit:
        from ..ops.dedup import collect_typed
        df_tbl = collect_typed(df, pa.schema([("token", pa.string()),
                                              ("df", pa.int64())]))
        scored = broadcast_lookup_join(tf_ds(), df_tbl, key_col="token")
        return scored.map_batches(score_topk, batch_format="pyarrow")
    scored = hash_join(tf_ds(), df, on="token",
                       num_partitions=join_partitions())
    return scored.groupby("doc_id").map_groups(
        score_topk, batch_format="pyarrow")


def events_funnel(sf_dir: str):
    """Ordered conversion funnel: users whose first 'view' is followed by a
    'click' strictly after it and a 'purchase' strictly after that click —
    one row per converted user with the three stage timestamps (epoch
    micros, BIGINT).  Sequential semantics a plain groupby cannot express:
    each stage is a per-user Min AFTER an inequality join against the
    previous stage's timestamp.  Stage tables join adaptively (broadcast
    when measured small, hash-shuffle at user-cardinality scale), every
    groupby is partial-aggregated per block
    first, and the per-user stage tables carry prior timestamps as extra
    group keys (functionally dependent on user_id) so no re-join is needed
    to assemble the final row."""
    from ray.data.aggregate import Min

    from ..ops.joins import adaptive_join

    def typed(event_type: str, out: str):
        # row filter pushed into the parquet scan: non-matching row groups
        # are pruned by statistics and non-matching rows never leave the read
        import pyarrow.dataset as pads
        import ray.data as rd
        ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                             columns=["user_id", "ts"],
                             filter=pads.field("event_type") == event_type)

        def kernel(b: pa.Table) -> pa.Table:
            return pa.table({"user_id": pc.cast(b.column("user_id"),
                                                pa.int64()),
                             out: pc.cast(b.column("ts"), pa.int64())})

        return ds.map_batches(kernel, batch_format="pyarrow")

    v = sized_groupby(typed("view", "first_view_us"), "user_id",
                      Min("first_view_us", alias_name="first_view_us"))

    clicks = adaptive_join(typed("click", "_ts"), v, on="user_id")
    clicks = clicks.map_batches(
        lambda b: b.filter(pc.greater(b.column("_ts"),
                                      b.column("first_view_us"))),
        batch_format="pyarrow")
    c = sized_groupby(clicks, ["user_id", "first_view_us"],
                      Min("_ts", alias_name="first_click_us"))

    purch = adaptive_join(typed("purchase", "_ts"), c, on="user_id")
    purch = purch.map_batches(
        lambda b: b.filter(pc.greater(b.column("_ts"),
                                      b.column("first_click_us"))),
        batch_format="pyarrow")
    p = sized_groupby(purch, ["user_id", "first_view_us", "first_click_us"],
                      Min("_ts", alias_name="first_purchase_us"))
    return p.map_batches(
        lambda b: b.select(["user_id", "first_view_us", "first_click_us",
                            "first_purchase_us"]),
        batch_format="pyarrow")


def docs_heavy_hitters(sf_dir: str, phi_ppm: int = 34_000):
    """EXACT frequency-threshold tokens (count >= phi_ppm/1e6 of all token
    occurrences) in two bounded passes — `ops.sketch.heavy_hitters`: pass 1
    keeps each block's locally phi-heavy tokens (the averaging lemma makes
    their union a provable superset of every global heavy hitter, <= 1e6/phi
    rows per block — no vocabulary shuffle); pass 2 recounts ONLY those
    candidates and applies the exact global threshold.  Sketch-bounded
    state, SQL-exact answer."""
    from ..ops.sketch import heavy_hitters

    ds = _read(sf_dir, "documents", ["text"])

    def tok(b: pa.Table) -> pa.Table:
        toks = pc.list_flatten(
            pc.split_pattern_regex(b.column("text"), r"\s+"))
        return pa.table({"token": toks.filter(pc.not_equal(toks, ""))})

    return heavy_hitters(ds, tok, phi_ppm)


def events_distinct_users(sf_dir: str):
    """Exact COUNT(DISTINCT user_id) per event type: per-block pair dedup
    (Arrow group_by — the block's duplicate users collapse before anything
    moves), a keyed pair-dedup groupby bounded by |type x user|, then a
    low-cardinality count.  The classic two-level distinct that never ships
    raw events."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events", ["event_type", "user_id"])

    def pairs(b: pa.Table) -> pa.Table:
        g = b.group_by(["event_type", "user_id"]).aggregate([([],
                                                              "count_all")])
        return pa.table({"event_type": g.column("event_type"),
                         "user_id": pc.cast(g.column("user_id"), pa.int64()),
                         "_one": pa.array(np.ones(g.num_rows, np.int64))})

    from ray.data.aggregate import Min
    dedup = sized_groupby(ds.map_batches(pairs, batch_format="pyarrow"),
                          ["event_type", "user_id"],
                          Min("_one", alias_name="_one"))

    def per_type(b: pa.Table) -> pa.Table:
        vc = b.column("event_type").value_counts()
        return pa.table({"event_type": vc.field("values"),
                         "n_users": pc.cast(vc.field("counts"), pa.int64())})

    return sized_groupby(dedup.map_batches(per_type,
                                             batch_format="pyarrow"),
                         "event_type", Sum("n_users",
                                             alias_name="n_users"))


def events_distinct_users_hll(sf_dir: str, p: int = 14):
    """Exact vs HyperLogLog distinct users per event type, side by side:
    each block reduces to one 2^p-byte register blob per type, a grouped
    map folds the blobs with elementwise max INSIDE the plan
    (ops.sketch.hll_distinct_grouped), so the driver receives one blob per
    TYPE — not blocks x types.  Rows-only by design: the estimate is
    deterministic (splitmix64 registers) but no SQL engine reproduces it."""
    from ..ops.sketch import hll_distinct_grouped

    ds = _read(sf_dir, "events", ["event_type", "user_id"]) \
        .map_batches(lambda b: pa.table({
            "event_type": b.column("event_type"),
            "user_id": pc.cast(b.column("user_id"), pa.int64())}),
            batch_format="pyarrow")
    hll = hll_distinct_grouped(ds, "user_id", "event_type", p)
    est = {r["event_type"]: r["n_distinct_hll"] for r in hll.to_pylist()}
    exact = {r["event_type"]: r["n_users"]
             for r in events_distinct_users(sf_dir).take_all()}
    ts = sorted(est)
    return pa.table({
        "event_type": pa.array(ts, pa.string()),
        "n_users_exact": pa.array([int(exact[t]) for t in ts], pa.int64()),
        "n_users_hll": pa.array([int(est[t]) for t in ts], pa.int64())})


def images_neardup_components(sf_dir: str, max_hamming: int = 3):
    """Perceptual near-dup image CLUSTERS across encodings, collapse-first:
    identical phashes are grouped ONCE (synthetic corpora and real ones both
    carry huge exact-duplicate buckets — banding raw rows would emit
    quadratically many identical pairs), then the banded hamming operator
    (ops.dedup.hamming_near_pairs) runs over the DISTINCT signatures only,
    connected_components closes the near-links transitively, and the
    per-signature member stats are mapped back with one broadcast lookup
    (the distinct-signature table is vocabulary-sized).  One row per
    near-dup cluster: (component, n_phashes, n_members, n_jpeg).
    Rows-only by design (phash is a byte contract)."""
    import ray
    import ray.data as rd
    from ray.data.aggregate import Count, Sum

    from ..io.imagetable import ensure_image_table, ensure_jpeg_table
    from ..ops.dedup import connected_components, hamming_near_pairs

    sf = float(sf_dir.rstrip("/").rsplit("sf", 1)[-1])
    cols = ["phash"]                  # the only column this query touches

    def prep(is_jpeg: int):
        def kernel(b: pa.Table) -> pa.Table:
            return pa.table({
                "phash": pc.cast(b.column("phash"), pa.uint64()),
                "_jpeg": pa.array(np.full(b.num_rows, is_jpeg, np.int64))})
        return kernel

    ds = rd.read_parquet(ensure_image_table(sf), columns=cols) \
        .map_batches(prep(0), batch_format="pyarrow") \
        .union(rd.read_parquet(ensure_jpeg_table(), columns=cols)
               .map_batches(prep(1), batch_format="pyarrow"))
    distinct = sized_groupby(ds, "phash",
                             Count(alias_name="n_members"),
                             Sum("_jpeg", alias_name="n_jpeg")) \
        .materialize()                      # vocabulary-sized; reused twice

    def as_sig(b: pa.Table) -> pa.Table:
        h = pc.cast(b.column("phash"), pa.uint64())
        return pa.table({"node_id": pc.cast(h, pa.int64()), "sig": h})

    pairs = hamming_near_pairs(distinct.map_batches(as_sig,
                                                    batch_format="pyarrow"),
                               max_hamming=max_hamming,
                               id_col="node_id", sig_col="sig")
    cc = connected_components(pairs)        # nodes = distinct phash values
    # label table is edge-bounded (only phashes with a near-link appear);
    # broadcast it as SORTED parallel arrays so the map-back is one
    # vectorized searchsorted per batch, never a per-row dict probe
    lt = pa.concat_tables(
        [t for t in cc.iter_batches(batch_format="pyarrow",
                                    batch_size=None) if t.num_rows]) \
        if cc.count() else pa.table({"node": pa.array([], pa.int64()),
                                     "label": pa.array([], pa.int64())})
    nodes = lt.column("node").to_numpy().astype(np.int64)
    labels = lt.column("label").to_numpy().astype(np.int64)
    order = np.argsort(nodes, kind="stable")
    lab_ref = ray.put((nodes[order], labels[order]))

    def flag(b: pa.Table) -> pa.Table:
        nd, lb = ray.get(lab_ref)
        h = pc.cast(b.column("phash"), pa.uint64()).to_numpy() \
            .astype(np.int64)
        if nd.size == 0:
            keep = np.zeros(b.num_rows, dtype=bool)
            comp = np.full(b.num_rows, -1, np.int64)
        else:
            pos = np.searchsorted(nd, h)
            pos_c = np.minimum(pos, nd.size - 1)
            keep = (nd[pos_c] == h) & (pos < nd.size)
            comp = np.where(keep, lb[pos_c], -1)
        kept = b.filter(pa.array(keep))
        return pa.table({
            "component": pa.array(comp[keep]),
            "n_phashes": pa.array(np.ones(int(keep.sum()), np.int64)),
            "n_members": kept.column("n_members"),
            "n_jpeg": kept.column("n_jpeg")})

    return sized_groupby(distinct.map_batches(flag, batch_format="pyarrow"),
                         "component",
                         Sum("n_phashes", alias_name="n_phashes"),
                         Sum("n_members", alias_name="n_members"),
                         Sum("n_jpeg", alias_name="n_jpeg"))


def docs_retained_after_dedup(sf_dir: str, threshold: float = 0.5,
                              broadcast_limit: int = 2_000_000):
    """The KEPT corpus after near-dedup — the table every dedup pass is
    actually run to produce: all doc_ids except the non-representative
    members of each near-dup component (minhash pairs -> pointer-jumped
    connected components -> keep the component-minimum doc).  The drop set
    is bounded by the duplicate count: broadcast anti-join when it measures
    small, Ray's native left_anti hash join when a duplicate-ridden corpus
    makes it large."""
    import ray
    import ray.data as rd

    from ..ops.dedup import connected_components, minhash_dedup
    from ..ops.joins import join_partitions

    docs = _read(sf_dir, "documents", ["doc_id"])
    pairs_tbl = minhash_dedup(_read(sf_dir, "documents",
                                    ["doc_id", "text"]),
                              threshold=threshold)
    cc = connected_components(rd.from_arrow(pairs_tbl))
    drop = cc.map_batches(
        lambda b: pa.table({"doc_id": pc.cast(
            b.filter(pc.not_equal(b.column("node"),
                                  b.column("label"))).column("node"),
            pa.int64())}),
        batch_format="pyarrow")

    if drop.count() <= broadcast_limit:
        ids = [bt.column("doc_id").to_numpy() for bt in
               drop.iter_batches(batch_format="pyarrow", batch_size=None)
               if bt.num_rows]
        drop_ref = ray.put(np.sort(np.concatenate(ids)) if ids
                           else np.array([], np.int64))

        def anti(b: pa.Table) -> pa.Table:
            d = ray.get(drop_ref)
            ids = b.column("doc_id").to_numpy()
            pos = np.searchsorted(d, ids)
            hit = (pos < d.size) & (d[np.minimum(pos, d.size - 1)] == ids)
            return pa.table({"doc_id": pa.array(
                ids[~hit].astype(np.int64))})

        return docs.map_batches(anti, batch_format="pyarrow")
    return docs.join(drop, "left_anti", join_partitions(), on=("doc_id",))


def events_value_quantiles_sketch(sf_dir: str, k: int = 2048):
    """Exact vs sketch order statistics per event type, side by side: the
    two-pass exact histogram (ops.quantile) next to the one-pass mergeable
    MRL summary (ops.sketch.quantile_sketch — one <= k-point weighted blob
    per (block, type) leaves each task).  One row per type with p50/p90
    exact and sketch values in micros.  Rows-only by design: the sketch is
    deterministic but its compaction is not SQL-reproducible."""
    from ..ops.quantile import exact_group_quantiles
    from ..ops.sketch import qsketch_batch, qsketch_merge, qsketch_quantile

    ds = _read(sf_dir, "events", ["event_type", "value"])

    def kernel(b: pa.Table) -> pa.Table:
        types, pts, wts = [], [], []
        for t in pc.unique(b.column("event_type")).to_pylist():
            v = b.filter(pc.equal(b.column("event_type"), t)) \
                .column("value").to_numpy(zero_copy_only=False)
            p, w = qsketch_batch(v, k)
            types.append(t)
            pts.append(p.tobytes())
            wts.append(w.tobytes())
        return pa.table({"event_type": pa.array(types, pa.string()),
                         "pts": pa.array(pts, pa.large_binary()),
                         "wts": pa.array(wts, pa.large_binary())})

    sks: dict[str, tuple] = {}
    for bt in ds.map_batches(kernel, batch_format="pyarrow") \
            .iter_batches(batch_format="pyarrow", batch_size=None):
        for t, pb, wb in zip(bt.column("event_type").to_pylist(),
                             bt.column("pts").to_pylist(),
                             bt.column("wts").to_pylist()):
            cur = (np.frombuffer(pb, np.float64),
                   np.frombuffer(wb, np.float64))
            sks[t] = cur if t not in sks else qsketch_merge(sks[t], cur, k)

    qq = exact_group_quantiles(_read(sf_dir, "events",
                                     ["event_type", "value"]),
                               "value", "event_type",
                               [(1, 2), (9, 10)])   # shared passes
    ex50 = {r["event_type"]: r["q0_lo"] for r in qq.to_pylist()}
    ex90 = {r["event_type"]: r["q1_lo"] for r in qq.to_pylist()}

    def micro(x: float) -> int:
        return int(np.floor(x * 1e6 + 0.5))

    ts = sorted(sks)
    return pa.table({
        "event_type": pa.array(ts, pa.string()),
        "p50_exact_micro": pa.array([micro(ex50[t]) for t in ts], pa.int64()),
        "p50_sketch_micro": pa.array(
            [micro(qsketch_quantile(sks[t], 0.5)) for t in ts], pa.int64()),
        "p90_exact_micro": pa.array([micro(ex90[t]) for t in ts], pa.int64()),
        "p90_sketch_micro": pa.array(
            [micro(qsketch_quantile(sks[t], 0.9)) for t in ts], pa.int64())})


def docs_decontaminate_bloom(sf_dir: str, k: int = 5, mod: int = 10):
    """Bloom-prefiltered decontamination — identical exact answer to
    docs_decontaminate (same oracle SQL), but the only broadcast is the
    Bloom bit array (ops.dedup.decontaminate_bloom): at 100 TB the exact
    eval k-gram union no longer fits a broadcast, while Bloom bits stay
    ~1 MB; false positives die in the adaptive join against the exact eval
    hash table, false negatives are impossible."""
    from ..ops.dedup import decontaminate_bloom

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def split(want_eval: bool):
        def kernel(b: pa.Table) -> pa.Table:
            ids = b.column("doc_id").to_numpy()
            m = (ids % mod == 0) if want_eval else (ids % mod != 0)
            return b.filter(pa.array(m))
        return kernel

    ev = ds.map_batches(split(True), batch_format="pyarrow")
    train = _read(sf_dir, "documents", ["doc_id", "text"]) \
        .map_batches(split(False), batch_format="pyarrow")
    return decontaminate_bloom(train, ev, k=k)


def docs_normalize_text(sf_dir: str):
    """Text normalization — the cleaning map every training pipeline runs
    before dedup/tokenization: unicode-aware lowercase, whitespace runs
    collapsed to single spaces, edges trimmed.  Three Arrow kernels per
    batch (utf8_lower / replace_substring_regex / utf8_trim_whitespace),
    zero shuffle, bit-reproducible in SQL (lower + regexp_replace + trim).
    Emits (doc_id, norm_text, n_chars_norm)."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def kernel(b: pa.Table) -> pa.Table:
        t = pc.utf8_trim_whitespace(pc.replace_substring_regex(
            pc.utf8_lower(b.column("text")), r"\s+", " "))
        return pa.table({"doc_id": pc.cast(b.column("doc_id"), pa.int64()),
                         "norm_text": t,
                         "n_chars_norm": pc.cast(pc.utf8_length(t),
                                                 pa.int64())})

    return ds.map_batches(kernel, batch_format="pyarrow")


def revenue_by_region(sf_dir: str):
    """TPC-H Q5-flavoured star join — revenue per REGION through the full
    dimension chain lineitem -> orders -> customer -> nation -> region.
    The fact table collapses FIRST (per-order revenue partials inside each
    block, then one keyed sum), each hash join therefore moves one row per
    order / per customer — never line items — and the two tiny dimensions
    (25 nations, 5 regions) are driver-mapped, not joined.  Exact integer
    cents*cents arithmetic (revenue_e4) as in orders_lineitem_revenue."""
    from ray.data.aggregate import Sum

    from ..ops.joins import adaptive_join

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_extendedprice", "l_discount"])

    def li_partial(b: pa.Table) -> pa.Table:
        price = b.column("l_extendedprice").to_numpy()
        disc = b.column("l_discount").to_numpy()
        rev = np.rint(price * 100).astype(np.int64) \
            * np.rint((1 - disc) * 100).astype(np.int64)
        t = pa.table({"o_orderkey": pc.cast(b.column("l_orderkey"),
                                            pa.int64()),
                      "rev": pa.array(rev)})
        g = t.group_by("o_orderkey").aggregate([("rev", "sum")])
        return g.rename_columns(["o_orderkey", "_r"])

    rev = sized_groupby(li.map_batches(li_partial, batch_format="pyarrow"),
                        "o_orderkey", Sum("_r", alias_name="_rev"))

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"]) \
        .map_batches(lambda b: pa.table({
            "o_orderkey": pc.cast(b.column("o_orderkey"), pa.int64()),
            "c_custkey": pc.cast(b.column("o_custkey"), pa.int64())}),
            batch_format="pyarrow")
    per_order = adaptive_join(orders, rev, on="o_orderkey")

    def cust_partial(b: pa.Table) -> pa.Table:
        t = pa.table({"c_custkey": b.column("c_custkey"),
                      "_rev": b.column("_rev"),
                      "_n": pa.array(np.ones(b.num_rows, np.int64))})
        g = t.group_by("c_custkey").aggregate([("_rev", "sum"),
                                               ("_n", "sum")])
        return g.rename_columns(["c_custkey", "_rev", "_n"])

    cust_rev = sized_groupby(per_order.map_batches(cust_partial,
                                                   batch_format="pyarrow"),
                             "c_custkey", Sum("_rev", alias_name="_rev"),
                             Sum("_n", alias_name="_n"))

    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]) \
        .map_batches(lambda b: pa.table({
            "c_custkey": pc.cast(b.column("c_custkey"), pa.int64()),
            "n_nationkey": pc.cast(b.column("c_nationkey"), pa.int64())}),
            batch_format="pyarrow")
    per_cust = adaptive_join(cust, cust_rev, on="c_custkey")

    def nation_partial(b: pa.Table) -> pa.Table:
        g = pa.table({"n_nationkey": b.column("n_nationkey"),
                      "_rev": b.column("_rev"), "_n": b.column("_n")}) \
            .group_by("n_nationkey").aggregate([("_rev", "sum"),
                                                ("_n", "sum")])
        return g.rename_columns(["n_nationkey", "_rev", "_n"])

    per_nation = sized_groupby(
        per_cust.map_batches(nation_partial, batch_format="pyarrow"),
        "n_nationkey", Sum("_rev", alias_name="revenue_e4"),
        Sum("_n", alias_name="n_orders")).to_pandas()

    # 25-nation / 5-region dims: driver maps, no join machinery
    import pandas as pd
    import pyarrow.parquet as pq
    nat = pq.read_table(f"{sf_dir}/nation.parquet",
                        columns=["n_nationkey", "n_regionkey"]).to_pandas()
    reg = pq.read_table(f"{sf_dir}/region.parquet",
                        columns=["r_regionkey", "r_name"]).to_pandas()
    m = per_nation.merge(nat, on="n_nationkey") \
        .merge(reg, left_on="n_regionkey", right_on="r_regionkey")
    out = m.groupby("r_name", as_index=False).agg(
        revenue_e4=("revenue_e4", "sum"), n_orders=("n_orders", "sum"))
    out["revenue_e4"] = out["revenue_e4"].astype("int64")
    out["n_orders"] = out["n_orders"].astype("int64")
    return out.sort_values("r_name").reset_index(drop=True)


def embed_kmeans_clusters(sf_dir: str, n_centroids: int = 16,
                          iters: int = 5):
    """Distributed Lloyd's k-means over the embeddings corpus
    (ops.similarity.kmeans_fit_distributed — per-round shuffle is k partial
    rows per block, corpus never leaves the stream).  One row per cluster:
    (cluster_id, n_members, centroid_norm_micro) plus the shared total
    inertia — deterministic (fixed sample seed) but not SQL-reproducible:
    rows-only by design."""
    from ..ops.similarity import kmeans_fit_distributed

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    C, cnt, inertia = kmeans_fit_distributed(ds, n_centroids, iters=iters)
    norms = np.rint(np.linalg.norm(C, axis=1) * 1e6).astype(np.int64)
    return pa.table({
        "cluster_id": pa.array(np.arange(C.shape[0], dtype=np.int64)),
        "n_members": pa.array(cnt.astype(np.int64)),
        "centroid_norm_micro": pa.array(norms),
        "inertia_milli": pa.array(np.full(C.shape[0],
                                          int(np.rint(inertia * 1e3)),
                                          np.int64))})


def docs_bpe_merges(sf_dir: str, n_merges: int = 8):
    """BPE merge-table learning over the documents corpus
    (ops.bpe.learn_bpe): each round is one streaming pass that replays the
    merges learned so far from raw bytes (stateless tasks), counts adjacent
    token pairs vectorized, and picks the global winner from per-block
    partials — the tokenizer-training step of an LLM data pipeline.
    Deterministic (count desc, packed key asc tie-break); rows-only by
    design (iterative, not SQL-expressible).  Executes the delta-counted
    actor-pool path (ops.bpe.learn_bpe_delta) — byte-identical merge
    tables to the streaming learner (equality pinned at 512 merges in
    tests/test_bpe.py) with per-merge cost tracking pair frequency
    instead of corpus size."""
    from ..ops.bpe import learn_bpe_delta

    ds = _read(sf_dir, "documents", ["text"])
    return learn_bpe_delta(ds, n_merges)


def cell_join_customer_orders_bucketed(sf_dir: str, res: int = 3,
                                       n_buckets: int = 8):
    """The SAME cell join as cell_join_customer_orders, executed through the
    clustered-table physical plan (ops.bucketed): both per-cell count tables
    are written hive-bucketed by cellid hash ONCE (cached under /tmp like
    the image tables), then joined bucket-by-bucket with ZERO shuffle —
    each task reads one matching partition-directory pair and joins
    locally.  Shares cell_join_customer_orders' oracle: identical values,
    different physical plan — the pattern a 100 TB deployment uses when
    many queries join on one cluster key."""
    import os

    from ray.data.aggregate import Sum

    from ..ops.bucketed import bucketed_join, write_bucketed

    def counts(key_col, alias):
        def kernel(b: pa.Table) -> pa.Table:
            cells = _with_cells(b, key_col, res)
            g = cells.select(["cellid"]).group_by("cellid") \
                     .aggregate([([], "count_all")])
            return g.rename_columns(["cellid", alias])
        return kernel

    sf = _sf_of(sf_dir)
    root = f"/tmp/dggsray_cache/bucketed_sf{sf}_res{res}"
    cc = sized_groupby(
        _read(sf_dir, "customer", ["c_custkey"])
        .map_batches(counts("c_custkey", "nc"), batch_format="pyarrow"),
        "cellid", Sum("nc", alias_name="nc"))
    oc = sized_groupby(
        _read(sf_dir, "orders", ["o_orderkey"])
        .map_batches(counts("o_orderkey", "no"), batch_format="pyarrow"),
        "cellid", Sum("no", alias_name="no"))
    pa_dir = write_bucketed(cc, "cellid", n_buckets,
                            os.path.join(root, "cust"))
    pb_dir = write_bucketed(oc, "cellid", n_buckets,
                            os.path.join(root, "ord"))
    joined = bucketed_join(pa_dir, pb_dir, on="cellid")

    def mul(b: pa.Table) -> pa.Table:
        pairs = pc.multiply(b.column("nc"), b.column("no"))
        return pa.table({"cellid": b.column("cellid"),
                         "n_pairs": pc.cast(pairs, pa.int64())})

    return joined.map_batches(mul, batch_format="pyarrow")


def docs_global_shuffle(sf_dir: str):
    """Reproducible pre-epoch corpus shuffle: every doc gets a global
    position by Knuth-hash order (ops.indexing.deterministic_shuffle — one
    global sort, then metadata-only zip_with_index).  Same order on every
    run/resume/machine, and SQL-reproducible (ROW_NUMBER over the same
    integer hash) so the driver hash-checks the full permutation."""
    from ..ops.indexing import deterministic_shuffle

    ds = _read(sf_dir, "documents", ["doc_id"])
    out = deterministic_shuffle(ds, "doc_id")
    return out.map_batches(
        lambda b: pa.table({"doc_id": pc.cast(b.column("doc_id"),
                                              pa.int64()),
                            "position": b.column("position")}),
        batch_format="pyarrow")


def events_running_total(sf_dir: str):
    """Per-user running cumulative value (unbounded-preceding window frame —
    ops.window.running_total): one user-hash shuffle, one sort per
    partition, vectorized grouped cumsum in exact integer cents."""
    from ..ops.window import running_total

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])
    return running_total(ds)


def lineitem_q6_revenue(sf_dir: str):
    """TPC-H Q6 shape (forecast-revenue-change): scan -> filter -> global
    aggregate, the canonical read-pruning pipeline.  The predicate is pushed
    INTO the parquet scan (row groups pruned by statistics, rows filtered at
    decode) and only the four needed columns leave storage — at 100 TB this
    is the difference between reading TBs and reading GBs.  Revenue in exact
    integer cents (floor(x*100 + 0.5), same arithmetic as the oracle) so the
    value hash is float-order-independent."""
    import datetime

    import pyarrow.dataset as pads
    import ray.data as rd

    f = ((pads.field("l_shipdate")
          >= datetime.datetime(1996, 1, 1))
         & (pads.field("l_shipdate") < datetime.datetime(1997, 1, 1))
         & (pads.field("l_discount") >= 0.05)
         & (pads.field("l_discount") <= 0.07)
         & (pads.field("l_quantity") < 24.0))
    ds = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                         columns=["l_extendedprice", "l_discount"],
                         filter=f)

    def partial(b: pa.Table) -> pa.Table:
        ep = b.column("l_extendedprice").to_numpy()
        d = b.column("l_discount").to_numpy()
        cents = np.floor(ep * d * 100.0 + 0.5).astype(np.int64)
        return pa.table({"revenue_cents": pa.array([int(cents.sum())],
                                                   pa.int64()),
                         "n_rows": pa.array([b.num_rows], pa.int64())})

    # merge the tiny per-block partials with an in-plan aggregate — no
    # repartition shuffle, the partials stream into one reduce
    from ray.data.aggregate import Sum
    agg = ds.map_batches(partial, batch_format="pyarrow").aggregate(
        Sum("revenue_cents", alias_name="revenue_cents"),
        Sum("n_rows", alias_name="n_rows"))
    return pa.table({"revenue_cents": pa.array([int(agg["revenue_cents"])],
                                               pa.int64()),
                     "n_rows": pa.array([int(agg["n_rows"])], pa.int64())})


def docs_bigram_topk(sf_dir: str, k: int = 30):
    """Corpus collocations: the k most frequent adjacent word PAIRS — the
    phrase-mining counterpart of docs_vocab_topk (and the statistic behind
    PMI phrase detection).  Combiner-first like every wide count here: each
    batch forms its bigrams vectorized (flattened token array + list parent
    indices; a pair exists where position i and i+1 share a parent) and
    pre-counts them, the shuffle moves (distinct bigram x block) partials,
    a keyed Sum merges, partial_topk picks winners without a global sort."""
    from ray.data.aggregate import Sum

    from ..ops.topk import partial_topk

    ds = _read(sf_dir, "documents", ["text"])

    def counts(b: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(b.column("text"), r"\s+")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat = pc.list_flatten(toks)
        parent = pc.list_parent_indices(toks).to_numpy()
        keep = flat.to_numpy(zero_copy_only=False) != ""
        flat = flat.filter(pa.array(keep))
        parent = parent[keep]
        if len(flat) < 2:
            return pa.table({"bigram": pa.array([], pa.string()),
                             "n": pa.array([], pa.int64())})
        adj = parent[1:] == parent[:-1]
        idx = np.flatnonzero(adj)
        left = flat.take(pa.array(idx))
        right = flat.take(pa.array(idx + 1))
        bi = pc.binary_join_element_wise(left, right, " ")
        vc = bi.value_counts()
        return pa.table({"bigram": vc.field("values"),
                         "n": pc.cast(vc.field("counts"), pa.int64())})

    tot = sized_groupby(ds.map_batches(counts, batch_format="pyarrow"),
                        "bigram", Sum("n", alias_name="n"))
    return partial_topk(tot, ["n", "bigram"], [True, False], k)


def docs_duplicate_spans(sf_dir: str, w: int = 8):
    """Exact duplicate-SPAN detection (the substring-level dedup of
    "Deduplicating Training Data Makes Language Models Better" — doc-level
    near-dup misses boilerplate shared between otherwise-distinct pages):
    every doc's distinct w-token windows (stride 1) are counted across the
    corpus, and each doc reports how many of its windows also appear in
    another document.

    Fully vectorized: one flattened token array per batch, windows exist
    where position i and i+w-1 share a list parent, the w-way
    binary_join_element_wise builds all window strings at once (the only
    Python loop is over w).  Shuffles move DISTINCT (doc, window) pairs and
    (window, count) partials — bounded by distinct-window volume, never
    corpus length.  Output: (doc_id, n_windows, n_dup_windows) for docs
    with >= w tokens.

    Scale note: the shuffle key here is the window STRING (exact, matches
    the SQL oracle byte-for-byte).  At trillions of windows, key bytes
    dominate the exchange — swap the key for a 64-bit window hash and
    verify string equality per hash bucket before counting (the same
    hash-then-verify shape as minhash_dedup's candidate check); collisions
    then cost a verify, never a wrong count."""
    from ray.data.aggregate import Count, Sum

    from ..ops.joins import adaptive_join

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def wins(b: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(b.column("text"), r"\s+")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat = pc.list_flatten(toks)
        parent = pc.list_parent_indices(toks).to_numpy()
        keep = flat.to_numpy(zero_copy_only=False) != ""
        flat = flat.filter(pa.array(keep))
        parent = parent[keep]
        ids = b.column("doc_id").to_numpy()
        if len(flat) < w:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "win": pa.array([], pa.string())})
        idx = np.flatnonzero(parent[: len(parent) - w + 1]
                             == parent[w - 1:])
        parts = [flat.take(pa.array(idx + k)) for k in range(w)]
        win = pc.binary_join_element_wise(*parts, " ")
        t = pa.table({"doc_id": pa.array(ids[parent[idx]].astype(np.int64)),
                      "win": win})
        # batch-local distinct: every doc lives in one batch, so this IS
        # the per-doc distinct — the groupby below only dedups block seams
        g = t.group_by(["doc_id", "win"]).aggregate([([], "count_all")])
        return g.select(["doc_id", "win"])

    pairs = sized_groupby(ds.map_batches(wins, batch_format="pyarrow"),
                          ["doc_id", "win"],
                          Count(alias_name="_c")) \
        .drop_columns(["_c"]).materialize()
    counts = sized_groupby(pairs, "win", Count(alias_name="nd"))
    joined = adaptive_join(pairs, counts, on="win")

    def partial(b: pa.Table) -> pa.Table:
        nd = b.column("nd").to_numpy()
        t = pa.table({"doc_id": b.column("doc_id"),
                      "_n": pa.array(np.ones(b.num_rows, np.int64)),
                      "_d": pa.array((nd >= 2).astype(np.int64))})
        g = t.group_by("doc_id").aggregate([("_n", "sum"), ("_d", "sum")])
        return g.rename_columns(["doc_id", "_n", "_d"])

    out = sized_groupby(joined.map_batches(partial, batch_format="pyarrow"),
                        "doc_id", Sum("_n", alias_name="_n"),
                        Sum("_d", alias_name="_d"))
    return out.map_batches(
        lambda b: pa.table({
            "doc_id": pc.cast(b.column("doc_id"), pa.int64()),
            "n_windows": pc.cast(b.column("_n"), pa.int64()),
            "n_dup_windows": pc.cast(b.column("_d"), pa.int64())}),
        batch_format="pyarrow")


def docs_tokenize_bpe(sf_dir: str, n_merges: int = 8):
    """Train -> apply: learn a BPE merge table on the corpus (one streaming
    pass per merge, ops.bpe.learn_bpe), broadcast the tiny table, and
    re-tokenize every document under the learned vocabulary — the
    tokenizer-fitting loop of an LLM data pipeline end to end.  Apply is a
    stateless map (merge list rides the closure; replay is vectorized
    apply_merges), so the corpus streams once.  Output per doc:
    byte-token count, BPE-token count, and the exact integer compression
    ratio (bytes*1e6 // bpe_tokens).  Rows-only: BPE is not expressible in
    SQL; correctness is pinned by ops/bpe's sequential-reference equality
    tests."""
    from ..ops.bpe import _flatten, apply_merges, learn_bpe_delta

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    mt = learn_bpe_delta(ds, n_merges)
    merges = list(zip(mt.column("left_id").to_pylist(),
                      mt.column("right_id").to_pylist(),
                      mt.column("new_id").to_pylist()))

    def kernel(b: pa.Table) -> pa.Table:
        texts = [t.encode("utf-8", "ignore")
                 for t in b.column("text").to_pylist()]
        tok, off = _flatten(texts)
        n_base = np.diff(off)
        tok2, off2 = apply_merges(tok, off, merges)
        n_bpe = np.diff(off2)
        return pa.table({
            "doc_id": pc.cast(b.column("doc_id"), pa.int64()),
            "n_byte_tokens": pa.array(n_base.astype(np.int64)),
            "n_bpe_tokens": pa.array(n_bpe.astype(np.int64)),
            "compression_micro": pa.array(
                (n_base.astype(np.int64) * 1_000_000)
                // np.maximum(n_bpe.astype(np.int64), 1))})

    return ds.map_batches(kernel, batch_format="pyarrow")


def cell_rollup_customer(sf_dir: str, res_fine: int = 4, res_min: int = 1):
    """Multi-resolution cell pyramid in ONE pass — the OLAP rollup of the
    DGGS hierarchy (tile servers and multi-scale analyses need every level,
    and re-scanning the fact table per level is the naive mistake): encode
    once at res_fine, aggregate per batch at the fine level, then derive
    every coarser level's partials FROM the fine partials (a parent is a
    prefix truncate — combiners compose up the hierarchy), and one
    (res, cell) groupby finalizes all levels together.  The shuffle moves
    sum-of-levels partials, still bounded by (cells x blocks); the input is
    scanned exactly once.  Output: (res, cell, bal_cents, n_customers)."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "customer", ["c_custkey", "c_acctbal"])

    def kernel(b: pa.Table) -> pa.Table:
        keys = b.column("c_custkey").to_numpy()
        lon, lat = derived_lonlat(keys)
        cells = cells_from_lonlat(res_fine, lon, lat, DEFAULT_GRID)
        cents = np.rint(b.column("c_acctbal").to_numpy() * 100) \
            .astype(np.int64)
        fine = pa.table({"cell": pa.array(cells, pa.string()),
                         "cents": pa.array(cents)}) \
            .group_by("cell").aggregate([("cents", "sum"),
                                         ([], "count_all")]) \
            .rename_columns(["cell", "_ps", "_pc"])
        outs = []
        cell_arr = fine.column("cell")
        for r in range(res_min, res_fine + 1):
            # parent at res r = first r+1 chars (face + r digits)
            trunc = pc.utf8_slice_codeunits(cell_arr, 0, r + 1)
            lvl = pa.table({"res": pa.array(
                np.full(fine.num_rows, r, np.int64)),
                "cell": trunc,
                "_ps": fine.column("_ps"), "_pc": fine.column("_pc")}) \
                .group_by(["res", "cell"]) \
                .aggregate([("_ps", "sum"), ("_pc", "sum")]) \
                .rename_columns(["res", "cell", "_ps", "_pc"])
            outs.append(lvl)
        return pa.concat_tables(outs).combine_chunks()

    return sized_groupby(ds.map_batches(kernel, batch_format="pyarrow"),
                         ["res", "cell"],
                         Sum("_ps", alias_name="bal_cents"),
                         Sum("_pc", alias_name="n_customers"))


def shipping_priority_q3(sf_dir: str, segment: str = "BUILDING", k: int = 10):
    """TPC-H Q3 shape (shipping priority): filter a dimension, semi-join the
    fact chain, aggregate revenue per order, top-k.  Every scan is pruned
    (segment / order-date / ship-date predicates and column sets pushed into
    the parquet reads); the segment's customers ride an adaptive join
    (broadcast when measured-small, hash-shuffle above the cap); lineitem
    collapses to per-order revenue partials inside each batch BEFORE its
    shuffle; the top-k is partial per block, never a global sort.  Revenue
    in exact integer cents (floor(x*100+0.5), the oracle's arithmetic)."""
    import datetime

    import pyarrow.dataset as pads
    import ray.data as rd
    from ray.data.aggregate import Sum

    from ..ops.joins import adaptive_join
    from ..ops.topk import partial_topk

    D = datetime.datetime(1998, 6, 1)
    cust = rd.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey"],
        filter=pads.field("c_mktsegment") == segment) \
        .map_batches(lambda b: pa.table(
            {"o_custkey": pc.cast(b.column("c_custkey"), pa.int64())}),
            batch_format="pyarrow")
    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
        filter=pads.field("o_orderdate") < D)

    def okey(b: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderkey": pc.cast(b.column("o_orderkey"), pa.int64()),
            "o_custkey": pc.cast(b.column("o_custkey"), pa.int64()),
            "o_orderdate_us": pc.cast(
                pc.cast(b.column("o_orderdate"), pa.int64()), pa.int64())})

    sel_orders = adaptive_join(orders.map_batches(okey,
                                                  batch_format="pyarrow"),
                               cust, on="o_custkey") \
        .select_columns(["o_orderkey", "o_orderdate_us"])

    line = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount"],
        filter=pads.field("l_shipdate") > D)

    def rev_partial(b: pa.Table) -> pa.Table:
        ep = b.column("l_extendedprice").to_numpy()
        d = b.column("l_discount").to_numpy()
        cents = np.floor(ep * (1.0 - d) * 100.0 + 0.5).astype(np.int64)
        t = pa.table({"o_orderkey": pc.cast(b.column("l_orderkey"),
                                            pa.int64()),
                      "_r": pa.array(cents)})
        g = t.group_by("o_orderkey").aggregate([("_r", "sum")])
        return g.rename_columns(["o_orderkey", "_r"])

    rev = sized_groupby(line.map_batches(rev_partial,
                                         batch_format="pyarrow"),
                        "o_orderkey", Sum("_r", alias_name="revenue_cents"))
    joined = adaptive_join(rev, sel_orders, on="o_orderkey")
    return partial_topk(joined,
                        ["revenue_cents", "o_orderdate_us", "o_orderkey"],
                        [True, False, False], k)


def events_cohort_retention(sf_dir: str):
    """Cohort retention — the week a user FIRST appears is their cohort;
    each (cohort_week, week_offset) cell counts users still active that
    many weeks later.  The product-analytics staple that needs two passes
    over user activity: (1) distinct (user, week) pairs built combiner-first
    (the shuffle moves per-block distinct pairs, never events), materialized
    ONCE and reused for both the per-user Min (cohort) and the activity
    side; (2) cohorts meet activity in an adaptive join keyed on user_id.
    Week truncation is ISO-Monday on both sides (Arrow floor_temporal ==
    DuckDB date_trunc('week')); offsets are exact integer week counts."""
    from ray.data.aggregate import Count, Min, Sum

    from ..ops.joins import adaptive_join

    WEEK_US = 7 * 86_400 * 1_000_000
    ds = _read(sf_dir, "events", ["user_id", "ts"])

    def pairs(b: pa.Table) -> pa.Table:
        wk = pc.cast(pc.cast(pc.floor_temporal(b.column("ts"), unit="week"),
                             pa.timestamp("us")), pa.int64())
        t = pa.table({"user_id": pc.cast(b.column("user_id"), pa.int64()),
                      "week_us": wk})
        g = t.group_by(["user_id", "week_us"]).aggregate([([], "count_all")])
        return g.select(["user_id", "week_us"])

    activity = sized_groupby(ds.map_batches(pairs, batch_format="pyarrow"),
                             ["user_id", "week_us"],
                             Count(alias_name="_c")) \
        .drop_columns(["_c"]).materialize()
    cohorts = sized_groupby(activity, "user_id",
                            Min("week_us", alias_name="cohort_week_us"))
    joined = adaptive_join(activity, cohorts, on="user_id")

    def cell(b: pa.Table) -> pa.Table:
        wk = b.column("week_us").to_numpy()
        co = b.column("cohort_week_us").to_numpy()
        t = pa.table({"cohort_week_us": pa.array(co),
                      "week_offset": pa.array((wk - co) // WEEK_US),
                      "_n": pa.array(np.ones(b.num_rows, np.int64))})
        g = t.group_by(["cohort_week_us", "week_offset"]) \
            .aggregate([("_n", "sum")])
        return g.rename_columns(["cohort_week_us", "week_offset", "_n"])

    return sized_groupby(joined.map_batches(cell, batch_format="pyarrow"),
                         ["cohort_week_us", "week_offset"],
                         Sum("_n", alias_name="n_users"))


def orders_delayed_by_priority(sf_dir: str):
    """TPC-H Q4 shape (order-priority checking): orders in a 6-month window
    that have AT LEAST ONE line shipped more than 90 days after the order
    date, counted per priority.  The EXISTS subquery decomposes into a
    combiner-first per-order MAX(l_shipdate) (exists(ship > cutoff) ==
    max(ship) > cutoff) met by an adaptive join — and because every
    qualifying order's cutoff is >= window_start + 90d, the lineitem scan
    itself is PRUNED to l_shipdate >= that bound (row groups skipped by
    statistics), so the fact scan reads only potentially-late lines."""
    import datetime

    import pyarrow.dataset as pads
    import ray.data as rd
    from ray.data.aggregate import Max, Sum

    from ..ops.joins import adaptive_join

    D0 = datetime.datetime(1996, 1, 1)
    D1 = datetime.datetime(1996, 7, 1)
    LATE_US = 90 * 86_400 * 1_000_000

    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderdate", "o_orderpriority"],
        filter=(pads.field("o_orderdate") >= D0)
        & (pads.field("o_orderdate") < D1))

    def okey(b: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderkey": pc.cast(b.column("o_orderkey"), pa.int64()),
            "_odate_us": pc.cast(pc.cast(b.column("o_orderdate"),
                                         pa.int64()), pa.int64()),
            "o_orderpriority": b.column("o_orderpriority")})

    line = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_shipdate"],
        filter=pads.field("l_shipdate")
        >= D0 + datetime.timedelta(days=90))

    def ship_partial(b: pa.Table) -> pa.Table:
        t = pa.table({"o_orderkey": pc.cast(b.column("l_orderkey"),
                                            pa.int64()),
                      "_ship_us": pc.cast(pc.cast(b.column("l_shipdate"),
                                                  pa.int64()), pa.int64())})
        g = t.group_by("o_orderkey").aggregate([("_ship_us", "max")])
        return g.rename_columns(["o_orderkey", "_ship_us"])

    max_ship = sized_groupby(line.map_batches(ship_partial,
                                              batch_format="pyarrow"),
                             "o_orderkey",
                             Max("_ship_us", alias_name="_ship_us"))
    joined = adaptive_join(orders.map_batches(okey,
                                              batch_format="pyarrow"),
                           max_ship, on="o_orderkey")

    def late(b: pa.Table) -> pa.Table:
        m = pc.greater(b.column("_ship_us"),
                       pc.add(b.column("_odate_us"), LATE_US))
        t = b.filter(m)
        return pa.table({"o_orderpriority": t.column("o_orderpriority"),
                         "_n": pa.array(np.ones(t.num_rows, np.int64))})

    return sized_groupby(joined.map_batches(late, batch_format="pyarrow"),
                         "o_orderpriority",
                         Sum("_n", alias_name="order_count"))


def promo_revenue_q14(sf_dir: str):
    """TPC-H Q14 shape (promotion effect): one month of lineitem joined to
    part, revenue split by whether the part's type is PROMO.  The part table
    is the SMALL side — broadcast once via ray.put as a partkey -> is_promo
    bitmap lookup (no shuffle); the lineitem scan is pruned to the month and
    to (l_partkey, l_extendedprice, l_discount).  Revenue is integer cents
    (floor(x*100+0.5), the engine/DuckDB-FLOOR convention), the promo share
    an integer permille of cents.  Output one row:
    (promo_cents, total_cents, promo_permille)."""
    import datetime

    import pyarrow.dataset as pads
    import ray
    import ray.data as rd
    from ray.data.aggregate import Sum

    D0 = datetime.datetime(1996, 9, 1)
    D1 = datetime.datetime(1996, 10, 1)

    from ..ops.joins import dim_flag_bitmap

    promo = dim_flag_bitmap(
        _read(sf_dir, "part", ["p_partkey", "p_type"]), "p_partkey",
        lambda b: pc.equal(b.column("p_type"), "PROMO").to_numpy(
            zero_copy_only=False))
    ref = ray.put(promo)

    line = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_extendedprice", "l_discount"],
        filter=(pads.field("l_shipdate") >= D0)
        & (pads.field("l_shipdate") < D1))

    def partial(b: pa.Table) -> pa.Table:
        pm = ray.get(ref)
        pk = b.column("l_partkey").to_numpy()
        ep = b.column("l_extendedprice").to_numpy()
        d = b.column("l_discount").to_numpy()
        cents = np.floor(ep * (1.0 - d) * 100.0 + 0.5).astype(np.int64)
        is_p = pm[pk]
        return pa.table({
            "_p": pa.array([int(cents[is_p].sum())], pa.int64()),
            "_t": pa.array([int(cents.sum())], pa.int64())})

    agg = line.map_batches(partial, batch_format="pyarrow").aggregate(
        Sum("_p", alias_name="_p"), Sum("_t", alias_name="_t"))
    p, t = int(agg["_p"]), int(agg["_t"])
    return pa.table({"promo_cents": pa.array([p], pa.int64()),
                     "total_cents": pa.array([t], pa.int64()),
                     "promo_permille": pa.array([p * 1000 // max(t, 1)],
                                                pa.int64())})


def dormant_customers_by_nation(sf_dir: str,
                                cutoff: str = "2000-01-01"):
    """TPC-H Q22 flavor (dormant accounts): customers with NO order since
    `cutoff`, grouped by nation — a broadcast ANTI join.  The broadcast side
    is the DISTINCT recently-active custkey set (bounded by the customer
    count, never the orders fact table), built from a scan pruned to the
    cutoff window and one column; the customer stream is filtered against
    it with a vectorized membership probe and grouped combiner-first.
    Output: (c_nationkey, n_customers, bal_cents)."""
    import datetime

    import pyarrow.dataset as pads
    import ray
    import ray.data as rd
    from ray.data.aggregate import Sum

    D = datetime.datetime.fromisoformat(cutoff)
    active = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey"],
        filter=pads.field("o_orderdate") >= D)

    def distinct(b: pa.Table) -> pa.Table:
        return pa.table({"k": pa.array(
            np.unique(b.column("o_custkey").to_numpy()))})

    keys = np.unique(np.concatenate(
        [t.column("k").to_numpy() for t in
         active.map_batches(distinct, batch_format="pyarrow")
         .iter_batches(batch_format="pyarrow", batch_size=None)]
        or [np.zeros(0, np.int64)]))
    ref = ray.put(keys)

    cust = _read(sf_dir, "customer",
                 ["c_custkey", "c_nationkey", "c_acctbal"])

    def anti(b: pa.Table) -> pa.Table:
        ks = ray.get(ref)
        ck = b.column("c_custkey").to_numpy()
        pos = np.searchsorted(ks, ck)
        hit = (pos < ks.size) & (ks[np.minimum(pos, max(ks.size - 1, 0))]
                                 == ck) if ks.size else np.zeros(
            ck.size, dtype=bool)
        sub = b.filter(pa.array(~hit))
        cents = np.rint(sub.column("c_acctbal").to_numpy() * 100) \
            .astype(np.int64)
        t = pa.table({"c_nationkey": pc.cast(sub.column("c_nationkey"),
                                             pa.int64()),
                      "_b": pa.array(cents),
                      "_n": pa.array(np.ones(sub.num_rows, np.int64))})
        g = t.group_by("c_nationkey").aggregate([("_b", "sum"),
                                                 ("_n", "sum")])
        return g.rename_columns(["c_nationkey", "_b", "_n"])

    return sized_groupby(cust.map_batches(anti, batch_format="pyarrow"),
                         "c_nationkey",
                         Sum("_b", alias_name="bal_cents"),
                         Sum("_n", alias_name="n_customers"))


def sales_opportunity_q22(sf_dir: str, cutoff: str = "2001-06-01"):
    """TPC-H Q22 (full shape): customers whose balance exceeds the GLOBAL
    average of positive balances AND who have no order since `cutoff`,
    grouped by market segment — the scalar-subquery-feeds-a-filter physical
    plan the Q22-flavor dormant query above does not exercise.  Reference
    parity: dggstools has no relational engine; engine-completeness row.

    Three stages, all dimension-bounded:
    1. a combiner-first partial pass computes (sum_cents, n) over positive
       balances; the global threshold is the exact rational sum/n — the
       filter compares cents * n > sum_cents in INTEGER math, so the engine
       and the SQL oracle agree bit-for-bit with no float-average ulp risk;
    2. the DISTINCT recently-ordering custkey set (scan pruned to the cutoff
       window and one column, bounded by the customer dimension, never the
       orders fact table) is unioned from per-block uniques and broadcast
       once via ray.put;
    3. one customer-stream pass applies threshold filter + vectorized anti
       probe + per-batch partial groupby, finished by a low-card groupby.
    Output: (c_mktsegment, n_customers, bal_cents)."""
    import datetime

    import pyarrow.dataset as pads
    import ray
    from ray.data.aggregate import Sum

    D = datetime.datetime.fromisoformat(cutoff)
    cust = _read(sf_dir, "customer",
                 ["c_custkey", "c_mktsegment", "c_acctbal"])

    # stage 1: exact global threshold over positive balances
    def partial(b: pa.Table) -> pa.Table:
        cents = np.rint(b.column("c_acctbal").to_numpy() * 100) \
            .astype(np.int64)
        pos = cents > 0
        return pa.table({"s": pa.array([int(cents[pos].sum())]),
                         "n": pa.array([int(pos.sum())])})

    s_tot = n_tot = 0
    for t in cust.map_batches(partial, batch_format="pyarrow") \
            .iter_batches(batch_format="pyarrow", batch_size=None):
        s_tot += int(pc.sum(t.column("s")).as_py() or 0)
        n_tot += int(pc.sum(t.column("n")).as_py() or 0)

    # stage 2: distinct recently-ordering custkeys (dimension-bounded)
    import ray.data as rd

    from ..core.raster import localize_path

    def distinct(b: pa.Table) -> pa.Table:
        return pa.table({"k": pa.array(
            np.unique(b.column("o_custkey").to_numpy()))})

    active = rd.read_parquet(
        localize_path(f"{sf_dir}/orders.parquet"), columns=["o_custkey"],
        filter=pads.field("o_orderdate") >= D)
    keys = np.unique(np.concatenate(
        [t.column("k").to_numpy() for t in
         active.map_batches(distinct, batch_format="pyarrow")
         .iter_batches(batch_format="pyarrow", batch_size=None)]
        or [np.zeros(0, np.int64)]))
    ref = ray.put(keys)

    # stage 3: threshold filter + anti probe + partial groupby
    def opportunity(b: pa.Table) -> pa.Table:
        ks = ray.get(ref)
        cents = np.rint(b.column("c_acctbal").to_numpy() * 100) \
            .astype(np.int64)
        keep = cents * n_tot > s_tot
        ck = b.column("c_custkey").to_numpy()
        if ks.size:
            pos = np.searchsorted(ks, ck)
            hit = (pos < ks.size) & \
                (ks[np.minimum(pos, ks.size - 1)] == ck)
        else:
            hit = np.zeros(ck.size, dtype=bool)
        keep &= ~hit
        sub = b.filter(pa.array(keep))
        t = pa.table({"c_mktsegment": sub.column("c_mktsegment"),
                      "_b": pa.array(cents[keep]),
                      "_n": pa.array(np.ones(sub.num_rows, np.int64))})
        g = t.group_by("c_mktsegment").aggregate([("_b", "sum"),
                                                  ("_n", "sum")])
        return g.rename_columns(["c_mktsegment", "_b", "_n"])

    return sized_groupby(
        cust.map_batches(opportunity, batch_format="pyarrow"),
        "c_mktsegment",
        Sum("_b", alias_name="bal_cents"),
        Sum("_n", alias_name="n_customers"))


# ---------------------------------------------------------------------------
# Huge-scene tiled-JP2 explode (round-4): jp2_to_tiles -> tiles_to_cells
# ---------------------------------------------------------------------------

def _ensure_scene_jp2(sf: float, root: str = "/tmp/dggsray_cache"):
    """Synthesize (once, cached) a deterministic aligned rHEALPix scene for
    a scale factor, serialized BOTH as a GeoTIFF and as a 64px-tiled JP2.
    Side grows ~ sf^(1/3) in 64px steps (192px at sf0.001, 896px at sf0.1).
    Returns (tif_path, jp2_path, side)."""
    import os

    from ..core.jp2io import write_jp2
    from ..core.rhpx import align_point
    from ..core.tiffio import GeoTiff, write_geotiff

    side = 64 * max(3, round(192 * (sf / 0.001) ** (1 / 3) / 64))
    d = os.path.join(root, f"scene_{side}")
    tif, jp2 = os.path.join(d, "scene.tif"), os.path.join(d, "scene.jp2")
    done = os.path.join(d, "_SUCCESS")
    if os.path.exists(done):
        return tif, jp2, side
    os.makedirs(d, exist_ok=True)
    res_idx = 11
    res = DEFAULT_GRID.cell_width(res_idx)
    # straddle the x=0 face boundary so the explode spans two faces
    left, top = align_point(-side * res / 2.0, 1_000_000.0, res_idx,
                            DEFAULT_GRID)
    rr, cc = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    data = np.stack([(3 * rr + 5 * cc) % 251,
                     (7 * rr + 2 * cc + 11) % 241,
                     (rr * cc + 13) % 239]).astype(np.uint8)
    g = GeoTiff(data, left, top, res, res, nodata=None)
    write_geotiff(tif, g)
    write_jp2(jp2, g, levels=3, tile_size=64)
    with open(done, "w") as f:
        f.write("ok")
    return tif, jp2, side


def _face_fingerprints(cells_ds):
    """(face, n_cells, fp) per resolution-0 face: per-row 64-bit hashes of
    the (cellid, bands) rows xor-folded per face — a combiner-first grouped
    equivalence fingerprint (order/blocking independent), no shuffle join."""
    import pandas as pd

    from ..io.lineage import row_hashes

    def partial(b: pa.Table) -> pa.Table:
        h = row_hashes(b)
        faces = pc.utf8_slice_codeunits(
            b.column("cellid"), 0, 1).to_numpy(zero_copy_only=False)
        out = {"face": [], "n": [], "fp": []}
        for f in np.unique(faces):
            m = faces == f
            out["face"].append(str(f))
            out["n"].append(int(m.sum()))
            out["fp"].append(int(np.bitwise_xor.reduce(h[m])))
        return pa.table({"face": pa.array(out["face"], pa.string()),
                         "n": pa.array(out["n"], pa.int64()),
                         "fp": pa.array(out["fp"], pa.uint64())})

    parts = cells_ds.map_batches(partial,
                                 batch_format="pyarrow").to_pandas()
    g = parts.groupby("face", sort=True)
    return pd.DataFrame({
        "n_cells": g["n"].sum(),
        "fp": g["fp"].agg(lambda s: int(np.bitwise_xor.reduce(
            s.to_numpy().astype(np.uint64)))),
    }).reset_index()


def scene_jp2_cells(sf_dir: str):
    """ONE huge tiled-JP2 scene -> cell table without any node holding the
    whole image: the driver scans tile byte spans only
    (core.jp2io.jp2_tile_spans_file, O(header + n_tiles) bytes) and each
    task range-reads + decodes its own tiles (ops.raster2dggs.jp2_to_tiles
    -> tiles_to_cells).  In-row oracle (rows-only query): the same scene
    exploded through the whole-file GeoTIFF path must produce identical
    (cellid, band) rows — compared via per-face xor fingerprints of per-row
    hashes (order-independent, combiner-first, no shuffle).  One output row
    per face with check_ok."""
    import pandas as pd

    from ..ops.raster2dggs import (geotiff_to_tiles, jp2_to_tiles,
                                   tiles_to_cells)

    sf = float(sf_dir.rstrip("/").rsplit("sf", 1)[-1])
    tif, jp2, side = _ensure_scene_jp2(sf)

    tiles_a, meta_a = geotiff_to_tiles(tif)
    ref = _face_fingerprints(tiles_to_cells(tiles_a, meta_a,
                                            store_nodata=True))
    tiles_b, meta_b = jp2_to_tiles(jp2)
    got = _face_fingerprints(tiles_to_cells(tiles_b, meta_b,
                                            tile=meta_b["tile"]))

    m = ref.merge(got, on="face", how="outer", suffixes=("", "_jp2"))
    return pd.DataFrame({
        "face": m["face"],
        "n_cells": m["n_cells"].fillna(-1).astype("int64"),
        "check_ok": ((m["n_cells"] == m["n_cells_jp2"])
                     & (m["fp"] == m["fp_jp2"])).astype(bool),
    }).sort_values("face").reset_index(drop=True)


def discount_revenue_q19(sf_dir: str):
    """TPC-H Q19 shape: disjunctive (brand, size-window, quantity-window)
    predicates over lineitem x part, integer revenue per surviving branch.
    The part side is pruned to the branch unions BEFORE it moves (brand +
    size pushdown, 3 brands of 25), joined by measured size (adaptive_join:
    broadcast under the cap, hash shuffle above), then each batch evaluates
    its branch's quantity window vectorized and folds revenue partials —
    the final exchange is O(branches x blocks) rows."""
    from ray.data.aggregate import Sum

    branches = [("Brand#1", 1, 10, 1, 15),
                ("Brand#2", 5, 20, 10, 30),
                ("Brand#3", 15, 50, 20, 50)]
    brand_of = {br: i for i, (br, *_) in enumerate(branches)}
    q_lo = np.array([b[3] for b in branches], np.float64)
    q_hi = np.array([b[4] for b in branches], np.float64)

    part = _read(sf_dir, "part", ["p_partkey", "p_brand", "p_size"])

    def prune(b: pa.Table) -> pa.Table:
        brand = b.column("p_brand").to_numpy(zero_copy_only=False)
        size = b.column("p_size").to_numpy()
        code = np.full(len(brand), -1, np.int64)
        for i, (br, s0, s1, _, _) in enumerate(branches):
            code[(brand == br) & (size >= s0) & (size <= s1)] = i
        keep = code >= 0
        return pa.table({
            "l_partkey": pc.cast(b.column("p_partkey"), pa.int64())
            .filter(pa.array(keep)),
            "branch": pa.array(code[keep])})

    from ..ops.joins import adaptive_join
    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_quantity", "l_extendedprice", "l_discount"])
    joined = adaptive_join(li, part.map_batches(prune,
                                                batch_format="pyarrow"),
                           on="l_partkey")

    def partial(b: pa.Table) -> pa.Table:
        br = b.column("branch").to_numpy()
        qty = b.column("l_quantity").to_numpy()
        m = (qty >= q_lo[br]) & (qty <= q_hi[br])
        price = b.column("l_extendedprice").to_numpy()[m]
        disc = b.column("l_discount").to_numpy()[m]
        rev = np.rint(price * 100).astype(np.int64) \
            * np.rint((1 - disc) * 100).astype(np.int64)
        t = pa.table({"branch": pa.array(br[m]), "_r": pa.array(rev)})
        g = t.group_by("branch").aggregate([("_r", "sum")])
        return g.rename_columns(["branch", "_r"])

    agg = sized_groupby(joined.map_batches(partial,
                                             batch_format="pyarrow"),
                        "branch", Sum("_r", alias_name="revenue_e4"))
    import pandas as pd
    out = agg.to_pandas()                      # <= len(branches) rows
    if "branch" not in out.columns:            # no branch matched at all
        out = pd.DataFrame({"branch": pd.Series([], dtype="int64"),
                            "revenue_e4": pd.Series([], dtype="int64")})
    names = {i: br for br, i in brand_of.items()}
    out["p_brand"] = out["branch"].map(names)
    return out[["p_brand", "revenue_e4"]].sort_values("p_brand") \
        .reset_index(drop=True)


def volume_shipping_q7(sf_dir: str, nation_a: int = 1, nation_b: int = 2):
    """TPC-H Q7 shape: revenue volume shipped between two nations by ship
    year (supplier nation -> customer nation, both directions).  Both
    dimension sides are pruned to the two nations BEFORE moving; lineitem
    joins the supplier map and the (orders x customer) nation map via
    adaptive_join (broadcast under the measured cap, hash shuffle above);
    cross-nation filter + the (2 x 2 x years) grouped aggregate fold
    combiner-first per batch."""
    from ray.data.aggregate import Sum

    from ..ops.joins import adaptive_join

    pair = pa.array([nation_a, nation_b], pa.int64())

    supp = _read(sf_dir, "supplier", ["s_suppkey", "s_nationkey"]) \
        .map_batches(lambda b: pa.table({
            "l_suppkey": pc.cast(b.column("s_suppkey"), pa.int64()),
            "supp_nationkey": pc.cast(b.column("s_nationkey"), pa.int64())})
            .filter(pc.is_in(pc.cast(b.column("s_nationkey"), pa.int64()),
                             value_set=pair)),
            batch_format="pyarrow")
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]) \
        .map_batches(lambda b: pa.table({
            "o_custkey": pc.cast(b.column("c_custkey"), pa.int64()),
            "cust_nationkey": pc.cast(b.column("c_nationkey"), pa.int64())})
            .filter(pc.is_in(pc.cast(b.column("c_nationkey"), pa.int64()),
                             value_set=pair)),
            batch_format="pyarrow")
    omap = adaptive_join(_read(sf_dir, "orders",
                               ["o_orderkey", "o_custkey"]),
                         cust, on="o_custkey") \
        .map_batches(lambda b: pa.table({
            "l_orderkey": pc.cast(b.column("o_orderkey"), pa.int64()),
            "cust_nationkey": b.column("cust_nationkey")}),
            batch_format="pyarrow")

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount",
                "l_shipdate"])
    li = adaptive_join(li, supp, on="l_suppkey")
    joined = adaptive_join(li, omap, on="l_orderkey")

    def partial(b: pa.Table) -> pa.Table:
        sn = b.column("supp_nationkey").to_numpy()
        cn = b.column("cust_nationkey").to_numpy()
        m = sn != cn
        price = b.column("l_extendedprice").to_numpy()[m]
        disc = b.column("l_discount").to_numpy()[m]
        yr = b.column("l_shipdate").to_numpy()[m] \
            .astype("datetime64[Y]").astype(np.int64) + 1970
        rev = np.rint(price * 100).astype(np.int64) \
            * np.rint((1 - disc) * 100).astype(np.int64)
        key = sn[m] * 1_000_000 + cn[m] * 10_000 + yr  # packed low-card key
        t = pa.table({"k": pa.array(key), "_r": pa.array(rev)})
        g = t.group_by("k").aggregate([("_r", "sum")])
        return g.rename_columns(["k", "_r"])

    agg = sized_groupby(joined.map_batches(partial,
                                             batch_format="pyarrow"),
                        "k", Sum("_r", alias_name="revenue_e4"))
    import pandas as pd
    out = agg.to_pandas()                      # 2 x 2 x years rows
    if "k" not in out.columns:                 # no cross-nation rows at all
        out = pd.DataFrame({"k": pd.Series([], dtype="int64"),
                            "revenue_e4": pd.Series([], dtype="int64")})
    out["supp_nationkey"] = out["k"] // 1_000_000
    out["cust_nationkey"] = (out["k"] // 10_000) % 100
    out["ship_year"] = out["k"] % 10_000
    return out[["supp_nationkey", "cust_nationkey", "ship_year",
                "revenue_e4"]] \
        .sort_values(["supp_nationkey", "cust_nationkey", "ship_year"]) \
        .reset_index(drop=True)


# outer ring + hole of the exact geofence — vertex latitudes all distinct so
# no planar edge is horizontal (keeps the SQL crossing expression free of a
# 0/0 branch); shared verbatim with the oracle builder in __ray_entry__
_GEOFENCE_EXACT_RINGS = [
    np.array([[-20.0, -10.0], [45.0, 5.0], [10.0, 30.0], [-20.0, -10.0]]),
    np.array([[0.0, 2.0], [18.0, 8.0], [6.0, 16.0], [0.0, 2.0]]),
]


def events_geofence_exact(sf_dir: str, res: int = 3):
    """EXACT point-in-polygon geofence (polygon with a hole) — the
    north-star's prepared-geometry probe: ops.vector2dggs.PolygonProbe
    accepts interior-cell points by one sorted-array membership test and
    runs the even-odd kernel only on the boundary-cell minority (~9% of
    points at res 3).  The oracle replays the identical planar crossing
    test in SQL (dggsray.oracle.planar_xy_sql + the same vertex literals),
    so inside/outside is value-checked per event, not cover-approximate."""
    from ray.data.aggregate import Sum

    from ..ops.vector2dggs import PolygonProbe

    probe = PolygonProbe(_GEOFENCE_EXACT_RINGS, res)
    ds = _read(sf_dir, "events", ["user_id", "event_type", "value"])

    def partial(b: pa.Table) -> pa.Table:
        keys = b.column("user_id").to_numpy()
        lon, lat = derived_lonlat(keys)
        inside = probe.contains_lonlat(lon, lat)
        cents = np.rint(b.column("value").to_numpy() * 100).astype(np.int64)
        t = pa.table({"event_type": b.column("event_type").filter(
                          pa.array(inside)),
                      "cents": pa.array(cents[inside])})
        g = t.group_by("event_type").aggregate(
            [("cents", "sum"), ([], "count_all")])
        return g.rename_columns(["event_type", "_s", "_n"])

    return sized_groupby(ds.map_batches(partial, batch_format="pyarrow"),
                         "event_type", Sum("_s", alias_name="value_cents"),
                         Sum("_n", alias_name="n_events"))


# three regions for the exact assignment query — region 2 overlaps region 1
# (paint order: LATER feature wins, the engine's established burn semantics);
# all vertex latitudes distinct so no planar edge is horizontal
_REGION_ASSIGN_FEATURES = [
    {"feature_id": 1, "rings": [np.array(
        [[-30.0, -20.0], [20.0, -8.0], [-5.0, 24.0], [-30.0, -20.0]])]},
    {"feature_id": 2, "rings": [np.array(
        [[-10.0, -5.0], [40.0, 3.0], [15.0, 28.0], [-10.0, -5.0]])]},
    {"feature_id": 3, "rings": [np.array(
        [[50.0, -30.0], [90.0, -22.0], [70.0, 6.0], [50.0, -30.0]])]},
]


def events_region_assign(sf_dir: str, res: int = 3):
    """Exact spatial join: every event is assigned the feature_id of its
    containing region (ops.vector2dggs.RegionAssigner — per-feature
    interior/boundary cell prefilter, even-odd refinement only in boundary
    cells, paint order = later feature wins on overlap, -1 outside), then
    (region_id, event_type) counts and value cents aggregate combiner-first.
    The oracle replays per-feature crossing parities in one SQL scan over a
    feature-tagged edge table and applies the same paint-order CASE."""
    from ray.data.aggregate import Sum

    from ..ops.vector2dggs import RegionAssigner

    ra = RegionAssigner(_REGION_ASSIGN_FEATURES, res)
    ds = _read(sf_dir, "events", ["user_id", "event_type", "value"])

    def partial(b: pa.Table) -> pa.Table:
        keys = b.column("user_id").to_numpy()
        lon, lat = derived_lonlat(keys)
        fid = ra.assign_lonlat(lon, lat)
        cents = np.rint(b.column("value").to_numpy() * 100).astype(np.int64)
        t = pa.table({"region_id": pa.array(fid),
                      "event_type": b.column("event_type"),
                      "cents": pa.array(cents)})
        g = t.group_by(["region_id", "event_type"]).aggregate(
            [("cents", "sum"), ([], "count_all")])
        return g.rename_columns(["region_id", "event_type", "_s", "_n"])

    def pack(b: pa.Table) -> pa.Table:
        # single low-card composite key for the final fold
        k = pc.binary_join_element_wise(
            pc.cast(b.column("region_id"), pa.string()),
            b.column("event_type"), "\x1f")
        return pa.table({"k": k, "_s": b.column("_s"), "_n": b.column("_n")})

    agg = sized_groupby(
        ds.map_batches(partial, batch_format="pyarrow")
          .map_batches(pack, batch_format="pyarrow"),
        "k", Sum("_s", alias_name="value_cents"),
        Sum("_n", alias_name="n_events"))
    import pandas as pd
    out = agg.to_pandas()
    parts = out["k"].str.split("\x1f", expand=True)
    out["region_id"] = parts[0].astype("int64")
    out["event_type"] = parts[1]
    return out[["region_id", "event_type", "value_cents", "n_events"]] \
        .sort_values(["region_id", "event_type"]).reset_index(drop=True)


def returned_item_revenue_q10(sf_dir: str, k: int = 20):
    """TPC-H Q10 shape: revenue lost to returned items per customer, top-k.
    Returnflag filter + per-order revenue partials fold inside the lineitem
    scan; the order->customer key map joins by measured size
    (adaptive_join); per-customer revenue re-aggregates combiner-first; the
    k winners (tiny) become a broadcast is_in filter over the customer scan
    so no side is shuffled for the detail join."""
    from ray.data.aggregate import Sum

    from ..ops.joins import adaptive_join
    from ..ops.topk import partial_topk

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_extendedprice", "l_discount",
                "l_returnflag"])

    def partial(b: pa.Table) -> pa.Table:
        m = pc.equal(b.column("l_returnflag"), "R")
        sub = b.filter(m)
        price = sub.column("l_extendedprice").to_numpy()
        disc = sub.column("l_discount").to_numpy()
        rev = np.rint(price * 100).astype(np.int64) \
            * np.rint((1 - disc) * 100).astype(np.int64)
        t = pa.table({"l_orderkey": pc.cast(sub.column("l_orderkey"),
                                            pa.int64()),
                      "_r": pa.array(rev)})
        g = t.group_by("l_orderkey").aggregate([("_r", "sum")])
        return g.rename_columns(["l_orderkey", "_r"])

    per_order = sized_groupby(li.map_batches(partial,
                                             batch_format="pyarrow"),
                              "l_orderkey", Sum("_r", alias_name="_r"))
    omap = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"]) \
        .map_batches(lambda b: pa.table({
            "l_orderkey": pc.cast(b.column("o_orderkey"), pa.int64()),
            "c_custkey": pc.cast(b.column("o_custkey"), pa.int64())}),
            batch_format="pyarrow")
    joined = adaptive_join(per_order, omap, on="l_orderkey")

    def cust_partial(b: pa.Table) -> pa.Table:
        t = pa.table({"c_custkey": b.column("c_custkey"),
                      "_r": b.column("_r")})
        g = t.group_by("c_custkey").aggregate([("_r", "sum")])
        return g.rename_columns(["c_custkey", "_r"])

    per_cust = sized_groupby(joined.map_batches(cust_partial,
                                                batch_format="pyarrow"),
                             "c_custkey", Sum("_r", alias_name="revenue_e4"))
    top = partial_topk(per_cust, ["revenue_e4", "c_custkey"],
                       [True, False], k).to_pandas()
    keyset = pa.array(top["c_custkey"].to_numpy(), pa.int64())
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]) \
        .map_batches(lambda b: b.filter(pc.is_in(
            pc.cast(b.column("c_custkey"), pa.int64()), value_set=keyset)),
            batch_format="pyarrow").to_pandas()
    cust["c_custkey"] = cust["c_custkey"].astype("int64")
    cust["c_nationkey"] = cust["c_nationkey"].astype("int64")
    out = top.merge(cust, on="c_custkey")
    return out[["c_custkey", "c_nationkey", "revenue_e4"]] \
        .sort_values(["revenue_e4", "c_custkey"], ascending=[False, True]) \
        .reset_index(drop=True)


def large_quantity_orders_q18(sf_dir: str, min_qty: int = 300,
                              k: int = 100):
    """TPC-H Q18 shape: orders whose total line quantity exceeds min_qty.
    Quantity partials fold per order inside the scan, the (small, measured)
    winner set joins orders via adaptive_join, and the top-k by total price
    avoids a global sort."""
    from ray.data.aggregate import Sum

    from ..ops.joins import adaptive_join
    from ..ops.topk import partial_topk

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_quantity"])

    def partial(b: pa.Table) -> pa.Table:
        t = pa.table({"o_orderkey": pc.cast(b.column("l_orderkey"),
                                            pa.int64()),
                      "_q": pa.array(np.rint(
                          b.column("l_quantity").to_numpy())
                          .astype(np.int64))})
        g = t.group_by("o_orderkey").aggregate([("_q", "sum")])
        return g.rename_columns(["o_orderkey", "_q"])

    per_order = sized_groupby(li.map_batches(partial,
                                             batch_format="pyarrow"),
                              "o_orderkey", Sum("_q", alias_name="total_qty"))
    winners = per_order.map_batches(
        lambda b: b.filter(pc.greater(b.column("total_qty"), min_qty)),
        batch_format="pyarrow")
    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_totalprice"]) \
        .map_batches(lambda b: pa.table({
            "o_orderkey": pc.cast(b.column("o_orderkey"), pa.int64()),
            "c_custkey": pc.cast(b.column("o_custkey"), pa.int64()),
            "price_cents": pa.array(np.rint(
                b.column("o_totalprice").to_numpy() * 100)
                .astype(np.int64))}), batch_format="pyarrow")
    joined = adaptive_join(orders, winners, on="o_orderkey")
    import pandas as pd
    out = partial_topk(joined, ["price_cents", "o_orderkey"],
                       [True, False], k).to_pandas()
    cols = ["o_orderkey", "c_custkey", "price_cents", "total_qty"]
    if out.empty and not set(cols) <= set(out.columns):
        return pd.DataFrame({c: pd.Series([], dtype="int64")
                             for c in cols})
    return out[cols].sort_values(["price_cents", "o_orderkey"],
                                 ascending=[False, True]) \
        .reset_index(drop=True)


def customer_order_counts_q13(sf_dir: str):
    """TPC-H Q13 shape (customer order-count distribution): histogram of
    customers by how many orders they placed, INCLUDING the zero-order
    bucket of the LEFT OUTER join.  No join materializes: per-customer
    order counts fold combiner-first inside the orders scan (bounded by
    #customers, not #orders), the histogram is a second tiny groupby over
    those counts, and the zero bucket is #customers minus #customers seen
    in orders — outer-join semantics from two aggregates and one scalar.
    Output: (c_count, custdist)."""
    from ray.data.aggregate import Sum

    orders = _read(sf_dir, "orders", ["o_custkey"])

    def per_cust(b: pa.Table) -> pa.Table:
        t = pa.table({"c": pc.cast(b.column("o_custkey"), pa.int64())})
        g = t.group_by("c").aggregate([([], "count_all")])
        return g.rename_columns(["c", "_n"])

    counts = sized_groupby(orders.map_batches(per_cust,
                                              batch_format="pyarrow"),
                           "c", Sum("_n", alias_name="c_count"))

    def hist(b: pa.Table) -> pa.Table:
        t = pa.table({"c_count": b.column("c_count")})
        g = t.group_by("c_count").aggregate([([], "count_all")])
        return g.rename_columns(["c_count", "_d"])

    out = sized_groupby(counts.map_batches(hist, batch_format="pyarrow"),
                        "c_count",
                        Sum("_d", alias_name="custdist")).to_pandas()
    n_cust = _read(sf_dir, "customer", ["c_custkey"]).count()
    zero = n_cust - int(out["custdist"].sum())
    if zero > 0:
        import pandas as pd
        out = pd.concat([out, pd.DataFrame(
            {"c_count": [0], "custdist": [zero]})], ignore_index=True)
    out["c_count"] = out["c_count"].astype("int64")
    out["custdist"] = out["custdist"].astype("int64")
    return out.sort_values(["custdist", "c_count"],
                           ascending=[False, False]).reset_index(drop=True)


def top_supplier_q15(sf_dir: str, start: str = "1996-01-01",
                     end: str = "1996-04-01"):
    """TPC-H Q15 shape (top supplier): revenue per supplier over one
    quarter, then the supplier(s) achieving the maximum — the
    aggregate-then-argmax-then-detail-join chain.  Revenue partials fold
    per suppkey inside the pruned lineitem scan (bounded by #suppliers);
    the max and the winner filter run on that small table; winner names
    come from a broadcast is_in probe of the supplier scan, so nothing
    shuffles.  Output: (s_suppkey, s_name, total_revenue_e4)."""
    import datetime

    import pyarrow.dataset as pads
    import ray.data as rd
    from ray.data.aggregate import Sum

    D0 = datetime.datetime.fromisoformat(start)
    D1 = datetime.datetime.fromisoformat(end)
    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_suppkey", "l_extendedprice", "l_discount"],
        filter=(pads.field("l_shipdate") >= D0)
        & (pads.field("l_shipdate") < D1))

    def partial(b: pa.Table) -> pa.Table:
        rev = np.rint(b.column("l_extendedprice").to_numpy() * 100) \
            .astype(np.int64) \
            * np.rint((1 - b.column("l_discount").to_numpy()) * 100) \
            .astype(np.int64)
        t = pa.table({"s_suppkey": pc.cast(b.column("l_suppkey"),
                                           pa.int64()),
                      "_r": pa.array(rev)})
        g = t.group_by("s_suppkey").aggregate([("_r", "sum")])
        return g.rename_columns(["s_suppkey", "_r"])

    per_supp = sized_groupby(li.map_batches(partial,
                                            batch_format="pyarrow"),
                             "s_suppkey",
                             Sum("_r", alias_name="total_revenue_e4")) \
        .to_pandas()
    best = per_supp[per_supp.total_revenue_e4
                    == per_supp.total_revenue_e4.max()]
    keyset = pa.array(best["s_suppkey"].to_numpy(), pa.int64())
    supp = _read(sf_dir, "supplier", ["s_suppkey", "s_name"]) \
        .map_batches(lambda b: b.filter(pc.is_in(
            pc.cast(b.column("s_suppkey"), pa.int64()), value_set=keyset)),
            batch_format="pyarrow").to_pandas()
    supp["s_suppkey"] = supp["s_suppkey"].astype("int64")
    out = best.merge(supp, on="s_suppkey")
    return out[["s_suppkey", "s_name", "total_revenue_e4"]] \
        .sort_values("s_suppkey").reset_index(drop=True)


def small_quantity_revenue_q17(sf_dir: str, brand: str = "Brand#1"):
    """TPC-H Q17 shape (small-quantity order revenue): among one brand's
    parts, revenue from lines whose quantity is under 20% of that part's
    average line quantity.  The brand's partkeys broadcast as an is_in
    probe; per-part (sum_qty, n_lines) folds combiner-first in the first
    pruned scan (bounded by the brand's part count); the threshold test
    runs EXACT in integers on the second scan — qty < sum/(5*n) iff
    5*qty*n < sum — so engine and oracle can never diverge on float
    rounding.  Output one row: (total_cents, avg_yearly_cents)."""
    from ray.data.aggregate import Sum

    import ray

    from ..ops.joins import dim_flag_bitmap

    is_brand = dim_flag_bitmap(
        _read(sf_dir, "part", ["p_partkey", "p_brand"]), "p_partkey",
        lambda b: pc.equal(b.column("p_brand"), brand).to_numpy(
            zero_copy_only=False))
    bref = ray.put(is_brand)

    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_quantity", "l_extendedprice"])

    def stats(b: pa.Table) -> pa.Table:
        bm = ray.get(bref)
        pk = b.column("l_partkey").to_numpy().astype(np.int64)
        hit = (pk < bm.size) & bm[np.minimum(pk, max(bm.size - 1, 0))] \
            if bm.size else np.zeros(pk.size, dtype=bool)
        sub = b.filter(pa.array(hit))
        t = pa.table({"p": pc.cast(sub.column("l_partkey"), pa.int64()),
                      "_q": pa.array(np.rint(
                          sub.column("l_quantity").to_numpy())
                          .astype(np.int64))})
        g = t.group_by("p").aggregate([("_q", "sum"), ([], "count_all")])
        return g.rename_columns(["p", "_q", "_n"])

    per_part = sized_groupby(li.map_batches(stats, batch_format="pyarrow"),
                             "p", Sum("_q", alias_name="sq"),
                             Sum("_n", alias_name="n")).to_pandas()
    has_rows = len(per_part) and "p" in per_part.columns
    npk = int(per_part.p.max()) + 1 if has_rows else 1
    sumq = np.zeros(npk, dtype=np.int64)
    cnt = np.zeros(npk, dtype=np.int64)
    if has_rows:
        sumq[per_part.p.to_numpy()] = per_part.sq.to_numpy()
        cnt[per_part.p.to_numpy()] = per_part.n.to_numpy()
    import ray
    ref = ray.put((sumq, cnt))

    def revenue(b: pa.Table) -> pa.Table:
        sq, n = ray.get(ref)
        pk = b.column("l_partkey").to_numpy().astype(np.int64)
        qty = np.rint(b.column("l_quantity").to_numpy()).astype(np.int64)
        ok = pk < sq.size
        pk_c = np.minimum(pk, sq.size - 1)
        hit = ok & (n[pk_c] > 0) & (5 * qty * n[pk_c] < sq[pk_c])
        cents = np.rint(
            b.column("l_extendedprice").to_numpy()[hit] * 100) \
            .astype(np.int64)
        return pa.table({"_c": pa.array([int(cents.sum())], pa.int64())})

    agg = li.map_batches(revenue, batch_format="pyarrow").aggregate(
        Sum("_c", alias_name="_c"))
    total = int(agg["_c"])
    return pa.table({"total_cents": pa.array([total], pa.int64()),
                     "avg_yearly_cents": pa.array([total // 7],
                                                  pa.int64())})


def market_share_q8(sf_dir: str, region: int = 3, supp_nation: int = 7,
                    p_type: str = "ECONOMY"):
    """TPC-H Q8 shape (national market share): within one region's customer
    orders and one part type, the per-order-year share of revenue supplied
    by one nation.  All three dimension filters broadcast as bitmaps
    (partkey->is_type, custkey->in_region via the nation->region map,
    suppkey->is_nation); the only wide step is lineitem->orders on
    orderkey, done AFTER lineitem folds to per-order (rev_total,
    rev_nation) partials — the join input is bounded by #orders, not
    #lineitems.  Output: (o_year, nation_e4, total_e4, share_permille)."""
    import ray
    from ray.data.aggregate import Sum

    from ..ops.joins import adaptive_join

    from ..ops.joins import build_parallel, dim_flag_bitmap

    # nation is 25 fixed rows — a driver dict is its natural home
    nation = _read(sf_dir, "nation", ["n_nationkey", "n_regionkey"]) \
        .to_pandas()
    rmap = np.zeros(int(nation.n_nationkey.max()) + 1, dtype=np.int64)
    rmap[nation.n_nationkey.to_numpy()] = nation.n_regionkey.to_numpy()
    is_type, is_nat, in_reg = build_parallel(
        lambda: dim_flag_bitmap(
            _read(sf_dir, "part", ["p_partkey", "p_type"]), "p_partkey",
            lambda b: pc.equal(b.column("p_type"), p_type).to_numpy(
                zero_copy_only=False)),
        lambda: dim_flag_bitmap(
            _read(sf_dir, "supplier", ["s_suppkey", "s_nationkey"]),
            "s_suppkey",
            lambda b: b.column("s_nationkey").to_numpy() == supp_nation),
        lambda: dim_flag_bitmap(
            _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]),
            "c_custkey",
            lambda b: rmap[b.column("c_nationkey").to_numpy()] == region))

    refs = ray.put((is_type, is_nat))

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_partkey", "l_suppkey",
                "l_extendedprice", "l_discount"])

    def per_order(b: pa.Table) -> pa.Table:
        ist, isn = ray.get(refs)
        pk = b.column("l_partkey").to_numpy().astype(np.int64)
        keep = (pk < ist.size) & ist[np.minimum(pk, ist.size - 1)]
        sub = b.filter(pa.array(keep))
        sk = sub.column("l_suppkey").to_numpy().astype(np.int64)
        rev = np.rint(sub.column("l_extendedprice").to_numpy() * 100) \
            .astype(np.int64) \
            * np.rint((1 - sub.column("l_discount").to_numpy()) * 100) \
            .astype(np.int64)
        nat = (sk < isn.size) & isn[np.minimum(sk, isn.size - 1)]
        t = pa.table({"o_orderkey": pc.cast(sub.column("l_orderkey"),
                                            pa.int64()),
                      "_t": pa.array(rev),
                      "_n": pa.array(np.where(nat, rev, 0))})
        g = t.group_by("o_orderkey").aggregate([("_t", "sum"),
                                                ("_n", "sum")])
        return g.rename_columns(["o_orderkey", "_t", "_n"])

    per_o = sized_groupby(li.map_batches(per_order,
                                         batch_format="pyarrow"),
                          "o_orderkey", Sum("_t", alias_name="_t"),
                          Sum("_n", alias_name="_n"))
    reg_ref = ray.put(in_reg)
    omap = _read(sf_dir, "orders",
                 ["o_orderkey", "o_custkey", "o_orderdate"])

    def order_dim(b: pa.Table) -> pa.Table:
        ir = ray.get(reg_ref)
        ck = b.column("o_custkey").to_numpy().astype(np.int64)
        keep = (ck < ir.size) & ir[np.minimum(ck, ir.size - 1)]
        sub = b.filter(pa.array(keep))
        return pa.table({"o_orderkey": pc.cast(sub.column("o_orderkey"),
                                               pa.int64()),
                         "o_year": pc.cast(pc.year(
                             sub.column("o_orderdate")), pa.int64())})

    joined = adaptive_join(per_o,
                           omap.map_batches(order_dim,
                                            batch_format="pyarrow"),
                           on="o_orderkey")

    def year_partial(b: pa.Table) -> pa.Table:
        t = pa.table({"o_year": b.column("o_year"),
                      "_t": b.column("_t"), "_n": b.column("_n")})
        g = t.group_by("o_year").aggregate([("_t", "sum"), ("_n", "sum")])
        return g.rename_columns(["o_year", "_t", "_n"])

    out = sized_groupby(joined.map_batches(year_partial,
                                             batch_format="pyarrow"),
                        "o_year", Sum("_t", alias_name="total_e4"),
                        Sum("_n", alias_name="nation_e4")).to_pandas()
    out["share_permille"] = (out.nation_e4 * 1000
                             // out.total_e4.clip(lower=1)).astype("int64")
    return out[["o_year", "nation_e4", "total_e4", "share_permille"]] \
        .sort_values("o_year").reset_index(drop=True)


def last_shipper_blame_q21(sf_dir: str, k: int = 20):
    """TPC-H Q21 flavor (suppliers who kept orders waiting), adapted to
    this schema: the test tables carry no commit/receipt dates, so 'kept
    the order waiting' is realized as 'SOLE last shipper of a
    multi-supplier order' — the supplier whose latest line shipped
    strictly after every other supplier's in that order.  Same
    exists/not-exists join shape as Q21, expressed as three combiner-first
    reductions and one keyed join: (order,supplier)->max shipdate partials
    fold in the scan; per-order (latest, #suppliers) folds over THAT
    (bounded by distinct pairs); the join-back + uniqueness filter blames
    exactly one supplier per qualifying order.  Output: (s_suppkey,
    s_name, numwait), top-k by numwait."""
    from ray.data.aggregate import Count, Max, Min, Sum

    from ..ops.joins import adaptive_join
    from ..ops.topk import partial_topk

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_suppkey", "l_shipdate"])

    def pair_partial(b: pa.Table) -> pa.Table:
        days = pc.cast(b.column("l_shipdate"), pa.int64())
        t = pa.table({"o": pc.cast(b.column("l_orderkey"), pa.int64()),
                      "s": pc.cast(b.column("l_suppkey"), pa.int64()),
                      "_d": days})
        g = t.group_by(["o", "s"]).aggregate([("_d", "max")])
        return g.rename_columns(["o", "s", "_d"])

    pairs = sized_groupby(li.map_batches(pair_partial,
                                         batch_format="pyarrow"),
                          ["o", "s"], Max("_d", alias_name="maxd"))

    pero = sized_groupby(pairs, "o", Max("maxd", alias_name="lastd"),
                         Count(alias_name="n_supp"))
    multi = pero.map_batches(
        lambda b: b.filter(pc.greater_equal(b.column("n_supp"), 2)),
        batch_format="pyarrow")
    joined = adaptive_join(pairs, multi, on="o")
    at_max = joined.map_batches(
        lambda b: b.filter(pc.equal(b.column("maxd"),
                                    b.column("lastd"))),
        batch_format="pyarrow")
    sole = sized_groupby(at_max, "o", Count(alias_name="n_at_max"),
                         Min("s", alias_name="s")) \
        .map_batches(lambda b: b.filter(pc.equal(b.column("n_at_max"), 1)),
                     batch_format="pyarrow")

    def blame_partial(b: pa.Table) -> pa.Table:
        t = pa.table({"s_suppkey": b.column("s")})
        g = t.group_by("s_suppkey").aggregate([([], "count_all")])
        return g.rename_columns(["s_suppkey", "_n"])

    blame = sized_groupby(sole.map_batches(blame_partial,
                                           batch_format="pyarrow"),
                          "s_suppkey", Sum("_n", alias_name="numwait"))
    top = partial_topk(blame, ["numwait", "s_suppkey"], [True, False],
                       k).to_pandas()
    keyset = pa.array(top["s_suppkey"].to_numpy(), pa.int64())
    supp = _read(sf_dir, "supplier", ["s_suppkey", "s_name"]) \
        .map_batches(lambda b: b.filter(pc.is_in(
            pc.cast(b.column("s_suppkey"), pa.int64()), value_set=keyset)),
            batch_format="pyarrow").to_pandas()
    supp["s_suppkey"] = supp["s_suppkey"].astype("int64")
    out = top.merge(supp, on="s_suppkey")
    return out[["s_suppkey", "s_name", "numwait"]] \
        .sort_values(["numwait", "s_suppkey"], ascending=[False, True]) \
        .reset_index(drop=True)


def events_cell_transitions(sf_dir: str, res: int = 1):
    """Trajectory origin-destination matrix: each user's events, ordered by
    (ts, event_id), form a path over DGGS cells (the event-derived point —
    event_id, not user_id, so the path actually moves); every consecutive
    pair contributes one (cell_from, cell_to) transition.  One user-hash
    shuffle (ops.window.transition_counts) emits per-partition partial
    pair counts bounded by the res-{res} cell-pair cardinality, then one
    tiny keyed aggregate finishes.  The OD matrix is the standard
    mobility-analytics shape (flows between zones) over the engine's own
    cell encoder.  Output: (cell_from, cell_to, n_transitions)."""
    from ray.data.aggregate import Sum

    from ..ops.window import transition_counts

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts"])

    def with_cell(b: pa.Table) -> pa.Table:
        keys = b.column("event_id").to_numpy()
        lon, lat = derived_lonlat(keys)
        cells = cells_from_lonlat(res, lon, lat, DEFAULT_GRID)
        return b.append_column("cell", pa.array(cells, pa.string()))

    partials = transition_counts(
        ds.map_batches(with_cell, batch_format="pyarrow"), col="cell")
    return sized_groupby(partials, ["cell_from", "cell_to"],
                         Sum("_n", alias_name="n_transitions"))


def local_supplier_volume_q5(sf_dir: str, region: int = 1,
                             year: int = 1996):
    """TPC-H Q5 shape (local supplier volume): revenue from lineitems whose
    supplier and ordering customer sit in the SAME nation of one region,
    for orders placed in one year, grouped by nation.  The supplier map
    (suppkey -> nationkey, -1 outside the region) broadcasts once via
    ray.put; lineitem folds to per-(orderkey, supp_nation) revenue
    partials INSIDE the scan — the only wide step joins those partials
    (bounded by #orders x region-nation count, never #lineitems) to the
    year-pruned (orderkey -> cust_nation) map.  Output: (n_nationkey,
    n_name, revenue_e4) revenue-descending, int-cents^2 exact."""
    import ray
    from ray.data.aggregate import Sum

    from ..ops.joins import adaptive_join

    nation = _read(sf_dir, "nation",
                   ["n_nationkey", "n_name", "n_regionkey"]).to_pandas()
    in_region = set(nation.n_nationkey[nation.n_regionkey == region]
                    .astype("int64"))
    names = dict(zip(nation.n_nationkey.astype("int64"), nation.n_name))

    from ..ops.joins import dim_dense_map

    reg_arr = np.zeros(max(in_region, default=0) + 2, dtype=bool)
    reg_arr[list(in_region)] = True

    def _nat_if_in_region(col):
        def val(b: pa.Table):
            nk = b.column(col).to_numpy().astype(np.int64)
            ok = (nk < reg_arr.size) & reg_arr[np.minimum(
                nk, reg_arr.size - 1)]
            return np.where(ok, nk, -1)
        return val

    from ..ops.joins import build_parallel
    smap, cmap = build_parallel(
        lambda: dim_dense_map(
            _read(sf_dir, "supplier", ["s_suppkey", "s_nationkey"]),
            "s_suppkey", _nat_if_in_region("s_nationkey"),
            dtype=np.int64),
        lambda: dim_dense_map(
            _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]),
            "c_custkey", _nat_if_in_region("c_nationkey"),
            dtype=np.int64))
    smap_ref = ray.put(smap)
    cmap_ref = ray.put(cmap)

    def per_order_supp(b: pa.Table) -> pa.Table:
        sm = ray.get(smap_ref)
        sk = b.column("l_suppkey").to_numpy().astype(np.int64)
        sn = np.where(sk < sm.size, sm[np.minimum(sk, sm.size - 1)], -1)
        keep = sn >= 0
        sub = b.filter(pa.array(keep))
        rev = np.rint(sub.column("l_extendedprice").to_numpy() * 100) \
            .astype(np.int64) \
            * np.rint((1 - sub.column("l_discount").to_numpy()) * 100) \
            .astype(np.int64)
        t = pa.table({"o_orderkey": pc.cast(sub.column("l_orderkey"),
                                            pa.int64()),
                      "supp_nation": pa.array(sn[keep]),
                      "_r": pa.array(rev)})
        g = t.group_by(["o_orderkey", "supp_nation"]).aggregate(
            [("_r", "sum")])
        return g.rename_columns(["o_orderkey", "supp_nation", "_r"])

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"])
    per_os = sized_groupby(li.map_batches(per_order_supp,
                                          batch_format="pyarrow"),
                           ["o_orderkey", "supp_nation"],
                           Sum("_r", alias_name="_r"))

    def order_dim(b: pa.Table) -> pa.Table:
        cm = ray.get(cmap_ref)
        yr = pc.year(b.column("o_orderdate")).to_numpy()
        ck = b.column("o_custkey").to_numpy().astype(np.int64)
        cn = np.where(ck < cm.size, cm[np.minimum(ck, cm.size - 1)], -1)
        keep = (yr == year) & (cn >= 0)
        sub = b.filter(pa.array(keep))
        return pa.table({"o_orderkey": pc.cast(sub.column("o_orderkey"),
                                               pa.int64()),
                         "cust_nation": pa.array(cn[keep])})

    omap = _read(sf_dir, "orders",
                 ["o_orderkey", "o_custkey", "o_orderdate"]) \
        .map_batches(order_dim, batch_format="pyarrow")
    joined = adaptive_join(per_os, omap, on="o_orderkey")

    def local_partial(b: pa.Table) -> pa.Table:
        m = pc.equal(b.column("supp_nation"), b.column("cust_nation"))
        sub = b.filter(m)
        t = pa.table({"n_nationkey": sub.column("supp_nation"),
                      "_r": sub.column("_r")})
        g = t.group_by("n_nationkey").aggregate([("_r", "sum")])
        return g.rename_columns(["n_nationkey", "_r"])

    import pandas as pd
    out = sized_groupby(joined.map_batches(local_partial,
                                             batch_format="pyarrow"),
                        "n_nationkey",
                        Sum("_r", alias_name="revenue_e4")).to_pandas()
    if "n_nationkey" not in out.columns:
        out = pd.DataFrame({"n_nationkey": pd.Series([], dtype="int64"),
                            "revenue_e4": pd.Series([], dtype="int64")})
    out["n_name"] = out.n_nationkey.map(names)
    return out[["n_nationkey", "n_name", "revenue_e4"]] \
        .sort_values(["revenue_e4", "n_nationkey"],
                     ascending=[False, True]).reset_index(drop=True)


def product_profit_q9(sf_dir: str, name_sub: str = "widget"):
    """TPC-H Q9 shape (product-type profit by nation and year), adapted to
    this schema: the test tables carry no partsupp/supplycost, so profit
    is the discounted revenue sum(l_extendedprice * (1 - l_discount))
    over lineitems of parts whose name contains `name_sub`.  Part
    membership and the supplier nation map broadcast once as bitmaps
    (ray.put); lineitem folds to per-(orderkey, supp_nation) integer
    partials in the scan; the single wide step joins those to the
    (orderkey -> order year) map.  Output: (n_name, o_year, profit_e4),
    nation ascending / year descending (the Q9 sort)."""
    import ray
    from ray.data.aggregate import Sum

    from ..ops.joins import adaptive_join

    from ..ops.joins import build_parallel, dim_dense_map, dim_flag_bitmap

    is_sub, smap = build_parallel(
        lambda: dim_flag_bitmap(
            _read(sf_dir, "part", ["p_partkey", "p_name"]), "p_partkey",
            lambda b: pc.match_substring(b.column("p_name"), name_sub)
            .to_numpy(zero_copy_only=False)),
        lambda: dim_dense_map(
            _read(sf_dir, "supplier", ["s_suppkey", "s_nationkey"]),
            "s_suppkey",
            lambda b: b.column("s_nationkey").to_numpy().astype(np.int64),
            dtype=np.int64))
    refs = ray.put((is_sub, smap))

    nation = _read(sf_dir, "nation",
                   ["n_nationkey", "n_name"]).to_pandas()
    names = dict(zip(nation.n_nationkey.astype("int64"), nation.n_name))

    def per_order_supp(b: pa.Table) -> pa.Table:
        isb, sm = ray.get(refs)
        pk = b.column("l_partkey").to_numpy().astype(np.int64)
        keep = (pk < isb.size) & isb[np.minimum(pk, isb.size - 1)]
        sub = b.filter(pa.array(keep))
        sk = sub.column("l_suppkey").to_numpy().astype(np.int64)
        sn = np.where(sk < sm.size, sm[np.minimum(sk, sm.size - 1)], -1)
        rev = np.rint(sub.column("l_extendedprice").to_numpy() * 100) \
            .astype(np.int64) \
            * np.rint((1 - sub.column("l_discount").to_numpy()) * 100) \
            .astype(np.int64)
        t = pa.table({"o_orderkey": pc.cast(sub.column("l_orderkey"),
                                            pa.int64()),
                      "supp_nation": pa.array(sn),
                      "_r": pa.array(rev)})
        g = t.group_by(["o_orderkey", "supp_nation"]).aggregate(
            [("_r", "sum")])
        return g.rename_columns(["o_orderkey", "supp_nation", "_r"])

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_partkey", "l_suppkey",
                "l_extendedprice", "l_discount"])
    per_os = sized_groupby(li.map_batches(per_order_supp,
                                          batch_format="pyarrow"),
                           ["o_orderkey", "supp_nation"],
                           Sum("_r", alias_name="_r"))

    omap = _read(sf_dir, "orders", ["o_orderkey", "o_orderdate"]) \
        .map_batches(lambda b: pa.table({
            "o_orderkey": pc.cast(b.column("o_orderkey"), pa.int64()),
            "o_year": pc.cast(pc.year(b.column("o_orderdate")),
                              pa.int64())}), batch_format="pyarrow")
    joined = adaptive_join(per_os, omap, on="o_orderkey")

    def year_partial(b: pa.Table) -> pa.Table:
        key = pc.add(pc.multiply(b.column("supp_nation"),
                                 pa.scalar(10_000, pa.int64())),
                     b.column("o_year"))
        t = pa.table({"k": key, "_r": b.column("_r")})
        g = t.group_by("k").aggregate([("_r", "sum")])
        return g.rename_columns(["k", "_r"])

    import pandas as pd
    out = sized_groupby(joined.map_batches(year_partial,
                                             batch_format="pyarrow"),
                        "k", Sum("_r", alias_name="profit_e4")).to_pandas()
    if "k" not in out.columns:
        out = pd.DataFrame({"k": pd.Series([], dtype="int64"),
                            "profit_e4": pd.Series([], dtype="int64")})
    out["n_nationkey"] = out.k // 10_000
    out["o_year"] = out.k % 10_000
    out["n_name"] = out.n_nationkey.map(names)
    return out[["n_name", "o_year", "profit_e4"]] \
        .sort_values(["n_name", "o_year"], ascending=[True, False]) \
        .reset_index(drop=True)


def cell_embedding_centroid(sf_dir: str, res: int = 1):
    """Per-cell embedding centroid: element-wise mean of the embedding
    vectors of all points in each DGGS cell — the spatial-semantic
    aggregate (one centroid per zone) a geo-aware retrieval index is
    built from.  Integer-exact and order-independent: each float32
    component maps to micro-units via floor(x*1e6 + 0.5) BEFORE summing
    (the oracle replays the same arithmetic), so the distributed sum is
    associative.  Per batch one vectorized sort+reduceat folds rows to
    (cell, dim) partial sums — the shuffle is bounded by cells x D, never
    by row count.  Output long-form: (cell, dim, sum_e6, n_points,
    centroid_e6) with centroid_e6 = floor(sum/n)."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def partial(b: pa.Table) -> pa.Table:
        keys = b.column("vec_id").to_numpy()
        lon, lat = derived_lonlat(keys)
        cells = np.asarray(cells_from_lonlat(res, lon, lat, DEFAULT_GRID))
        emb = np.stack(b.column("embedding").to_numpy(zero_copy_only=False))
        v = np.floor(emb.astype(np.float64) * 1e6 + 0.5).astype(np.int64)
        order = np.argsort(cells, kind="stable")
        cs, vs = cells[order], v[order]
        bounds = np.flatnonzero(np.r_[True, cs[1:] != cs[:-1]])
        sums = np.add.reduceat(vs, bounds, axis=0)
        ns = np.diff(np.r_[bounds, cs.size]).astype(np.int64)
        g, D = sums.shape
        return pa.table({
            "cell": pa.array(np.repeat(cs[bounds], D), pa.string()),
            "dim": pa.array(np.tile(np.arange(D, dtype=np.int64), g)),
            "sum_e6": pa.array(sums.ravel()),
            "_n": pa.array(np.repeat(ns, D))})

    agg = sized_groupby(ds.map_batches(partial, batch_format="pyarrow"),
                        ["cell", "dim"],
                        Sum("sum_e6", alias_name="sum_e6"),
                        Sum("_n", alias_name="n_points"))
    out = agg.to_pandas()
    out["centroid_e6"] = (out.sum_e6 // out.n_points).astype("int64")
    return out[["cell", "dim", "sum_e6", "n_points", "centroid_e6"]] \
        .sort_values(["cell", "dim"]).reset_index(drop=True)


def shipping_latency_q12(sf_dir: str):
    """TPC-H Q12 shape adapted to this schema (no l_shipmode/l_receiptdate):
    lineitems bucketed by ship latency (calendar days from o_orderdate to
    l_shipdate: <0 / 0-29 / 30-89 / >=90), counting high-priority
    (1-URGENT, 2-HIGH) vs other orders' lines per bucket — Q12's
    conditional split aggregate.  Lineitem folds to per-(orderkey,
    shipdate) counts in the scan (bounded by distinct pairs, cheaper than
    raw lines), one adaptive join brings the order date + priority class,
    then (bucket, class) partials fold combiner-first.  Output:
    (latency_bucket, high_line_count, low_line_count)."""
    from ray.data.aggregate import Sum

    from ..ops.joins import adaptive_join

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"])

    def fold_pairs(b: pa.Table) -> pa.Table:
        t = pa.table({"o_orderkey": pc.cast(b.column("l_orderkey"),
                                            pa.int64()),
                      "ship_day": pc.cast(
                          pc.floor_temporal(b.column("l_shipdate"),
                                            unit="day"),
                          pa.timestamp("us"))})
        g = t.group_by(["o_orderkey", "ship_day"]).aggregate(
            [([], "count_all")])
        return g.rename_columns(["o_orderkey", "ship_day", "_n"])

    pairs = sized_groupby(li.map_batches(fold_pairs,
                                         batch_format="pyarrow"),
                          ["o_orderkey", "ship_day"],
                          Sum("_n", alias_name="_n"))

    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_orderdate", "o_orderpriority"]) \
        .map_batches(lambda b: pa.table({
            "o_orderkey": pc.cast(b.column("o_orderkey"), pa.int64()),
            "order_day": pc.cast(pc.floor_temporal(b.column("o_orderdate"),
                                                   unit="day"),
                                 pa.timestamp("us")),
            "is_high": pc.is_in(b.column("o_orderpriority"),
                                value_set=pa.array(["1-URGENT", "2-HIGH"]))}),
            batch_format="pyarrow")

    joined = adaptive_join(pairs, orders, on="o_orderkey")

    _BUCKETS = ["early", "0-29d", "30-89d", "90d+"]

    def bucket_partial(b: pa.Table) -> pa.Table:
        days = (b.column("ship_day").to_numpy().astype("datetime64[D]")
                - b.column("order_day").to_numpy().astype("datetime64[D]")) \
            .astype(np.int64)
        idx = np.full(days.shape, 3, dtype=np.int64)
        idx[days < 90] = 2
        idx[days < 30] = 1
        idx[days < 0] = 0
        hi = b.column("is_high").to_numpy(zero_copy_only=False)
        n = b.column("_n").to_numpy()
        t = pa.table({"bidx": pa.array(idx),
                      "_hi": pa.array(np.where(hi, n, 0)),
                      "_lo": pa.array(np.where(hi, 0, n))})
        g = t.group_by("bidx").aggregate([("_hi", "sum"), ("_lo", "sum")])
        return g.rename_columns(["bidx", "_hi", "_lo"])

    out = sized_groupby(joined.map_batches(bucket_partial,
                                             batch_format="pyarrow"),
                        "bidx",
                        Sum("_hi", alias_name="high_line_count"),
                        Sum("_lo", alias_name="low_line_count")).to_pandas()
    out["latency_bucket"] = out.bidx.map(dict(enumerate(_BUCKETS)))
    return out[["latency_bucket", "high_line_count", "low_line_count"]] \
        .sort_values("latency_bucket").reset_index(drop=True)


def events_cell_dwell(sf_dir: str, res: int = 1):
    """Per-cell visit statistics from each user's trajectory: a visit is a
    maximal run of consecutive events in the same DGGS cell (ordered by
    ts, event_id), its dwell the first-to-last-event span.  The classic
    gaps-and-islands shape — LAG change flag, running-sum island id, two
    nested GROUP BYs in SQL — expressed as ONE user-hash shuffle with
    vectorized run detection (ops.window.run_dwell_aggregate) and a tiny
    keyed aggregate over (cell, partial) rows.  Output: (cell, n_visits,
    total_dwell_us, n_events) — integer-exact microseconds."""
    from ray.data.aggregate import Sum

    from ..ops.window import run_dwell_aggregate

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts"])

    def with_cell(b: pa.Table) -> pa.Table:
        keys = b.column("event_id").to_numpy()
        lon, lat = derived_lonlat(keys)
        cells = cells_from_lonlat(res, lon, lat, DEFAULT_GRID)
        return b.append_column("cell", pa.array(cells, pa.string()))

    partials = run_dwell_aggregate(
        ds.map_batches(with_cell, batch_format="pyarrow"), col="cell")
    return sized_groupby(partials, "cell",
                         Sum("_v", alias_name="n_visits"),
                         Sum("_d", alias_name="total_dwell_us"),
                         Sum("_n", alias_name="n_events"))


def events_user_anomalies(sf_dir: str, k: int = 2, min_prior: int = 5):
    """Online per-user anomaly counts: an event is anomalous when its value
    (integer cents) deviates more than `k` standard deviations from the
    mean of that user's PRECEDING events — the streaming-quality-control
    window, scored with zero float division via the cross-multiplied
    integer form (ops.window.running_anomaly_counts), so the SQL window
    oracle matches bit-for-bit.  Output: (user_id, n_scored,
    n_anomalies) for users with at least one scored event."""
    from ..ops.window import running_anomaly_counts

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def cents(b: pa.Table) -> pa.Table:
        v = np.floor(b.column("value").to_numpy() * 100 + 0.5) \
            .astype(np.int64)
        return pa.table({"event_id": b.column("event_id"),
                         "user_id": b.column("user_id"),
                         "ts": b.column("ts"),
                         "v": pa.array(v)})

    out = running_anomaly_counts(
        ds.map_batches(cents, batch_format="pyarrow"),
        k=k, min_prior=min_prior).to_pandas()
    out = out[out.n_scored > 0]
    return out.sort_values("user_id").reset_index(drop=True)


def docs_dedup_survivors(sf_dir: str):
    """Canonical-document selection (dedup survivorship): group docs by
    whitespace-normalized lowercased text, keep the LONGEST doc per group
    (whitespace token count of the normalized text; tie -> min doc_id) —
    the "choose the best representative" step every dedup pipeline runs
    after clustering.  One shuffle, no join-back: the winner rides inside
    a lexicographic Min whose packed key "{1e9 - n_tokens:010d}|{doc_id:020d}"
    sorts max-tokens-then-min-id first (docs_dedup_exact's trick), and the
    group size rides in a Sum.  Output: (doc_id, n_tokens, group_size)."""
    from ray.data.aggregate import Min, Sum

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def pack(b: pa.Table) -> pa.Table:
        norm = pc.utf8_trim_whitespace(
            pc.replace_substring_regex(pc.utf8_lower(b.column("text")),
                                       r"\s+", " "))
        n_tok = pc.list_value_length(pc.split_pattern(norm, " ")) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        ids = b.column("doc_id").to_numpy()
        packed = [f"{10**9 - t:010d}|{i:020d}" for t, i in zip(n_tok, ids)]
        return pa.table({"norm": norm,
                         "_packed": pa.array(packed, pa.string()),
                         "_one": pa.array(np.ones(len(ids), np.int64))})

    keep = sized_groupby(ds.map_batches(pack, batch_format="pyarrow"),
                         "norm", Min("_packed", alias_name="_win"),
                         Sum("_one", alias_name="group_size"),
                         rows_per_part=200_000)

    def unpack(b: pa.Table) -> pa.Table:
        win = b.column("_win").to_pylist()
        toks = np.array([10**9 - int(w[:10]) for w in win], np.int64)
        ids = np.array([int(w[11:]) for w in win], np.int64)
        return pa.table({"doc_id": pa.array(ids),
                         "n_tokens": pa.array(toks),
                         "group_size": pc.cast(b.column("group_size"),
                                               pa.int64())})

    out = keep.map_batches(unpack, batch_format="pyarrow").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


_PII_EMAIL = r"[A-Za-z0-9._%+\-]+@[A-Za-z0-9.\-]+\.[A-Za-z]{2,}"
_PII_IP = r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b"
_PII_PHONE = r"\+?[0-9][0-9 \-]{7,}[0-9]"


def docs_pii_scrub(sf_dir: str):
    """PII detection + redaction — the corpus-preparation stage every
    large text pipeline runs before training: count and replace emails,
    IPv4 addresses and phone-number-shaped digit runs with typed tokens
    (<EMAIL>/<IP>/<PHONE>), in that order (emails first so their digits
    never double-count as phones).  Pure per-row transform: one
    map_batches of vectorized Arrow RE2 kernels, zero shuffle; both the
    engine (pyarrow.compute) and the oracle (DuckDB) run RE2, so counts
    and scrubbed lengths agree exactly.  Output: (doc_id, n_emails,
    n_ips, n_phones, n_chars_scrubbed)."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def scrub(b: pa.Table) -> pa.Table:
        t = b.column("text")
        n_em = pc.count_substring_regex(t, _PII_EMAIL)
        t = pc.replace_substring_regex(t, _PII_EMAIL, "<EMAIL>")
        n_ip = pc.count_substring_regex(t, _PII_IP)
        t = pc.replace_substring_regex(t, _PII_IP, "<IP>")
        n_ph = pc.count_substring_regex(t, _PII_PHONE)
        t = pc.replace_substring_regex(t, _PII_PHONE, "<PHONE>")
        return pa.table({
            "doc_id": pc.cast(b.column("doc_id"), pa.int64()),
            "n_emails": pc.cast(n_em, pa.int64()),
            "n_ips": pc.cast(n_ip, pa.int64()),
            "n_phones": pc.cast(n_ph, pa.int64()),
            "n_chars_scrubbed": pc.cast(pc.utf8_length(t), pa.int64())})

    return ds.map_batches(scrub, batch_format="pyarrow")


def embed_cell_assign(sf_dir: str, res: int = 1):
    """Geo-semantic routing: assign every embedding to the cell whose
    CENTROID (cell_embedding_centroid's integer micro-unit mean) is
    nearest in exact squared-L2 — the router a spatially-partitioned
    vector index uses to direct queries.  The small (cells x D) centroid
    matrix broadcasts once via ray.put; each batch computes all distances
    with one int64 GEMM (v2 + c2 - 2 v.c — exact, no floats anywhere),
    argmin ties break to the lexicographically smallest cell.  Output:
    (vec_id, cell_assigned, dist_e12)."""
    import ray

    cent = cell_embedding_centroid(sf_dir, res)
    cells = sorted(cent.cell.unique())
    D = int(cent.dim.max()) + 1
    C = np.zeros((len(cells), D), dtype=np.int64)
    idx = {c: i for i, c in enumerate(cells)}
    C[[idx[c] for c in cent.cell], cent.dim.to_numpy()] = \
        cent.centroid_e6.to_numpy()
    c2 = (C * C).sum(axis=1)             # (K,)
    ref = ray.put((C, c2, np.array(cells)))

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def assign(b: pa.Table) -> pa.Table:
        Cm, c2m, names = ray.get(ref)
        emb = np.stack(b.column("embedding").to_numpy(zero_copy_only=False))
        v = np.floor(emb.astype(np.float64) * 1e6 + 0.5).astype(np.int64)
        d = (v * v).sum(axis=1)[:, None] + c2m[None, :] - 2 * (v @ Cm.T)
        best = np.argmin(d, axis=1)      # ties -> first = smallest cell
        return pa.table({
            "vec_id": pc.cast(b.column("vec_id"), pa.int64()),
            "cell_assigned": pa.array(names[best], pa.string()),
            "dist_e12": pa.array(d[np.arange(d.shape[0]), best])})

    return ds.map_batches(assign, batch_format="pyarrow")


def embed_semantic_dedup(sf_dir: str, tau_permille: int = 350):
    """SemDeDup over the embeddings table: the `label` column is the
    semantic cluster (the k-means shard of the original pipeline); within
    each cluster a vector is a duplicate if an earlier (smaller vec_id)
    vector clears cosine >= tau_permille/1000 under the exact milli-unit
    integer contract of ops.dedup.semantic_dedup.  Output:
    (vec_id, label, is_dup, n_cluster)."""
    from ..ops.dedup import semantic_dedup

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding", "label"])
    return semantic_dedup(ds, tau_permille=tau_permille)


# ---------------------------------------------------------------------------
# round-5 oracled queries
# ---------------------------------------------------------------------------

def events_user_argmax(sf_dir: str):
    """Per-user argmax (the grouped window shape SELECT-the-row-with-the-
    max-value): the winning event per user, ties broken to the SMALLEST
    event_id.  One combiner-first shuffle: each block packs (cents,
    inverted event_id) into one int64 — pk = cents * 2^40 + (2^40-1 -
    event_id), exact because cents < 2^17 and event_id < 2^40 — takes
    the per-block max per user, and a keyed Max aggregate finishes; the
    winner unpacks WITHOUT a join-back.  Output: (user_id, max_cents,
    event_id)."""
    from ray.data.aggregate import Max

    SHIFT = 1 << 40
    ds = _read(sf_dir, "events", ["user_id", "event_id", "value"])

    def partial(b: pa.Table) -> pa.Table:
        cents = np.rint(b.column("value").to_numpy() * 100).astype(np.int64)
        eid = b.column("event_id").to_numpy().astype(np.int64)
        if cents.size and (int(cents.max()) >= 1 << 23
                           or int(eid.max()) >= SHIFT or cents.min() < 0):
            raise ValueError("events_user_argmax packed-key domain "
                             "exceeded (cents < 2^23, event_id < 2^40)")
        pk = cents * SHIFT + (SHIFT - 1 - eid)
        t = pa.table({"user_id": pc.cast(b.column("user_id"), pa.int64()),
                      "_pk": pa.array(pk)})
        g = t.group_by("user_id").aggregate([("_pk", "max")])
        return g.rename_columns(["user_id", "_pk"])

    agg = sized_groupby(ds.map_batches(partial, batch_format="pyarrow"),
                        "user_id", Max("_pk", alias_name="_pk"))

    def unpack(b: pa.Table) -> pa.Table:
        pk = b.column("_pk").to_numpy()
        return pa.table({
            "user_id": b.column("user_id"),
            "max_cents": pa.array(pk // SHIFT),
            "event_id": pa.array(SHIFT - 1 - pk % SHIFT)})

    return agg.map_batches(unpack, batch_format="pyarrow")


def events_daily_active_users(sf_dir: str):
    """Exact daily-active-users: COUNT(DISTINCT user_id) per UTC day.
    Day key is integer epoch-days (floor(epoch_us / 86.4e9) — exact and
    engine-portable).  Two combiner-first exchanges, both bounded by
    DISTINCT (day, user) pairs, never event rows: per-block pair dedup
    -> keyed dedup shuffle -> per-block day partials -> tiny day fold.
    Output: (day, n_users)."""
    from ray.data.aggregate import Count, Sum

    ds = _read(sf_dir, "events", ["ts", "user_id"])

    def pairs(b: pa.Table) -> pa.Table:
        us = pc.cast(b.column("ts"), pa.int64()).to_numpy()
        day = us // 86_400_000_000
        t = pa.table({"day": pa.array(day),
                      "user_id": pc.cast(b.column("user_id"), pa.int64())})
        g = t.group_by(["day", "user_id"]).aggregate([([], "count_all")])
        return g.select(["day", "user_id"])

    distinct = sized_groupby(ds.map_batches(pairs, batch_format="pyarrow"),
                             ["day", "user_id"],
                             Count(alias_name="_n"))

    def day_partial(b: pa.Table) -> pa.Table:
        g = b.select(["day"]).group_by("day").aggregate([([], "count_all")])
        return g.rename_columns(["day", "_u"])

    return sized_groupby(
        distinct.map_batches(day_partial, batch_format="pyarrow"),
        "day", Sum("_u", alias_name="n_users"))


def embed_norm_buckets(sf_dir: str, bucket_width: int = 50_000):
    """Histogram of embedding L2 norms under the milli-unit integer
    contract: n2 = sum(w^2) with w = floor(x*1000 + 0.5) (exact int64),
    bucket = n2 // bucket_width.  Vectorized per batch (one stacked
    square-sum, no per-row loop), combiner-first fold on the tiny bucket
    key.  Output: (bucket, n_vectors, min_vec_id)."""
    from ray.data.aggregate import Min, Sum

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def partial(b: pa.Table) -> pa.Table:
        emb = np.stack(b.column("embedding").to_numpy(
            zero_copy_only=False))
        W = np.floor(emb.astype(np.float64) * 1000 + 0.5).astype(np.int64)
        n2 = (W * W).sum(axis=1)
        t = pa.table({"bucket": pa.array(n2 // bucket_width),
                      "vec_id": pc.cast(b.column("vec_id"), pa.int64()),
                      "_one": pa.array(np.ones(len(n2), np.int64))})
        g = t.group_by("bucket").aggregate([("_one", "sum"),
                                            ("vec_id", "min")])
        return g.rename_columns(["bucket", "_n", "_mv"])

    return sized_groupby(ds.map_batches(partial, batch_format="pyarrow"),
                         "bucket", Sum("_n", alias_name="n_vectors"),
                         Min("_mv", alias_name="min_vec_id"))


def cell_neighbor_smooth(sf_dir: str, res: int = 3):
    """3x3 cell-neighborhood smoothing over the customer point cloud —
    the spatial-join shape of the north star (each cell aggregated with
    its ring-1 neighbours): per cell at resolution `res`, the customer
    count of the cell and of its 3x3 equatorial neighbourhood
    (horizontal wrap across the four equatorial faces; |lat| <= 35
    derived points sit > 1 cell from the polar edge for res >= 3, so no
    vertical face crossing exists).  Combiner-first: per-block (gx, gy)
    partials -> one keyed fold -> a 9-way neighbour scatter of the TINY
    cell table -> keyed fold -> broadcast/hash join back to occupied
    cells.  Output: (gx, gy, n_cell, n_neighborhood)."""
    from ray.data.aggregate import Sum

    from ..core.rhpx import F, project_fwd
    from ..ops.joins import adaptive_join

    side = 3 ** res
    total = 4 * side
    w = F / side

    ds = _read(sf_dir, "customer", ["c_custkey"])

    def pts(b: pa.Table) -> pa.Table:
        k = b.column("c_custkey").to_numpy().astype(np.int64)
        lon, lat = derived_lonlat(k)
        x, y = project_fwd(lon, lat)
        gx = np.floor((x + 2 * F) / w).astype(np.int64)
        gy = np.floor((F / 2 - y) / w).astype(np.int64)
        t = pa.table({"gx": pa.array(gx), "gy": pa.array(gy)})
        g = t.group_by(["gx", "gy"]).aggregate([([], "count_all")])
        return g.rename_columns(["gx", "gy", "_n"])

    cells = sized_groupby(ds.map_batches(pts, batch_format="pyarrow"),
                          ["gx", "gy"], Sum("_n", alias_name="n_cell"))

    def scatter(b: pa.Table) -> pa.Table:
        gx = b.column("gx").to_numpy()
        gy = b.column("gy").to_numpy()
        n = b.column("n_cell").to_numpy()
        ks, ns = [], []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                ny = gy + dy
                ok = (ny >= 0) & (ny < side)
                nx = (gx[ok] + dx) % total
                ks.append(nx * 65536 + ny[ok])
                ns.append(n[ok])
        t = pa.table({"key": pa.array(np.concatenate(ks)),
                      "_s": pa.array(np.concatenate(ns))})
        g = t.group_by("key").aggregate([("_s", "sum")])
        return g.rename_columns(["key", "_s"])

    nb = sized_groupby(cells.map_batches(scatter, batch_format="pyarrow"),
                       "key", Sum("_s", alias_name="n_neighborhood"))

    keyed = cells.map_batches(
        lambda b: b.append_column(
            "key", pa.array(b.column("gx").to_numpy() * 65536
                            + b.column("gy").to_numpy())),
        batch_format="pyarrow")
    out = adaptive_join(keyed, nb, on="key")
    return out.map_batches(
        lambda b: b.select(["gx", "gy", "n_cell", "n_neighborhood"]),
        batch_format="pyarrow")


def embed_label_centroid_dist(sf_dir: str):
    """Pairwise distances between the k-means label centroids — the
    cluster-geometry diagnostic of an embedding pipeline (which semantic
    shards are neighbours).  Exact integer contract: per-(label, dim)
    sums of milli-quantized components are exact int64; each centroid
    component floors to floor(1000 * S / n) (floor division — exact, and
    DuckDB's float mirror cannot misround because 1000*S/n sits at least
    1/n away from any other integer); d2 = sum of squared component
    deltas (<= (6e3)^2 * 64 per pair, int64-safe).  One combiner-first
    shuffle bounded by labels x dims; the pairwise step runs on the TINY
    (k, D) centroid matrix.  Output: (label_a, label_b, d2_milli)."""
    from ray.data.aggregate import Count, Sum

    ds = _read(sf_dir, "embeddings", ["label", "embedding"])

    def partial(b: pa.Table) -> pa.Table:
        lab = pc.cast(b.column("label"), pa.int64()).to_numpy()
        emb = np.stack(b.column("embedding").to_numpy(
            zero_copy_only=False))
        W = np.floor(emb.astype(np.float64) * 1000 + 0.5).astype(np.int64)
        order = np.argsort(lab, kind="stable")
        lab_s, W_s = lab[order], W[order]
        u, first = np.unique(lab_s, return_index=True)
        sums = np.add.reduceat(W_s, first, axis=0)
        cnts = np.diff(np.r_[first, lab_s.size])
        d = W.shape[1]
        return pa.table({
            "label": pa.array(np.repeat(u, d)),
            "dim": pa.array(np.tile(np.arange(d, dtype=np.int64), u.size)),
            "_s": pa.array(sums.ravel()),
            "_n": pa.array(np.repeat(cnts.astype(np.int64), d))})

    agg = sized_groupby(ds.map_batches(partial, batch_format="pyarrow"),
                        ["label", "dim"], Sum("_s", alias_name="s"),
                        Sum("_n", alias_name="nd"))
    t = agg.to_pandas()                   # tiny: labels x dims rows
    labs = np.sort(t.label.unique())
    d = int(t.dim.max()) + 1
    C = np.zeros((labs.size, d), dtype=np.int64)
    pos = {int(v): i for i, v in enumerate(labs)}
    li = t.label.map(pos).to_numpy()
    C[li, t.dim.to_numpy()] = (1000 * t.s.to_numpy()) // t.nd.to_numpy()
    la, lb, dd = [], [], []
    for i in range(labs.size):
        for j in range(i + 1, labs.size):
            diff = C[i] - C[j]
            la.append(int(labs[i]))
            lb.append(int(labs[j]))
            dd.append(int((diff * diff).sum()))
    return pa.table({"label_a": pa.array(la, pa.int64()),
                     "label_b": pa.array(lb, pa.int64()),
                     "d2_milli": pa.array(dd, pa.int64())})

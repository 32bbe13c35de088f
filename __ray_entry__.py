"""Driver contract for the graft builder (Ray Data target).

entry(): flagship raster+vector->DGGS cell-join on sf0.001 images.
queries(): one callable per implemented operator/pipeline (SURVEY.md section 2).
oracle_sql(): DuckDB-equivalent SQL per query (cell encodes included — the
equatorial rHEALPix encoding is closed-form arithmetic, see dggsray/oracle.py).

Ray is initialised by the driver BEFORE importing this module; nothing here calls
ray.init()/ray.shutdown().
"""
from __future__ import annotations

from collections.abc import Callable
from typing import Any

from dggsray.oracle import cellid_sql, lonlat_sql
from dggsray.pipelines import relational as R

_RES_ENC = 4
_RES_AGG_FINE, _RES_AGG_COARSE = 4, 2
_RES_ROLLUP_MIN = 1      # rollup emits resolutions [_RES_ROLLUP_MIN, FINE]
_RES_JOIN = 3
_RES_MAJ = 2


def entry() -> Any:
    from dggsray.pipelines.flagship import flagship_pipeline
    return flagship_pipeline(sf=0.001)


def queries() -> dict[str, Callable[[str], Any]]:
    from dggsray.pipelines.flagship import flagship_pipeline

    def _flagship(sf_dir: str):
        sf = float(sf_dir.rstrip("/").rsplit("sf", 1)[-1])
        return flagship_pipeline(sf=sf)

    # ORDERING CONTRACT: the driver's CORRECTNESS_rNN.json records only the
    # FIRST 50 entries, so every oracle-checked query (a key of oracle_sql())
    # comes first and rows-only queries come last; _windowed() additionally
    # rotates never-recorded oracled keys to the front (newest first).
    # tests/test_entry.py asserts the invariant — keep it green.
    d = {
        # --- oracle-checked (DuckDB value-hash) ---
        "cell_encode_customer": lambda d: R.cell_encode_customer(d, _RES_ENC),
        "cell_count_by_face": lambda d: R.cell_count_by_face(d, _RES_ENC),
        "cell_agg_customer": lambda d: R.cell_agg_customer(d, _RES_AGG_FINE,
                                                           _RES_AGG_COARSE),
        "cell_join_customer_orders": lambda d: R.cell_join_customer_orders(d, _RES_JOIN),
        "cell_majority_nation": lambda d: R.cell_majority_nation(d, _RES_MAJ),
        "cell_setops_customer_orders": lambda d: R.cell_setops_customer_orders(d, _RES_JOIN),
        "cell_topk_densest": R.cell_topk_densest,
        "knn_cells_customer": R.knn_cells_customer,
        "pricing_summary": R.pricing_summary,
        "top_orders": R.top_orders,
        "orders_lineitem_revenue": R.orders_lineitem_revenue,
        "revenue_by_region": R.revenue_by_region,
        "events_by_type": R.events_by_type,
        "events_hourly": R.events_hourly,
        "events_cell_hourly": R.events_cell_hourly,
        "events_geofence": R.events_geofence,
        "events_median_value": R.events_median_value,
        "events_p90_value": R.events_p90_value,
        "events_top_users": R.events_top_users,
        "events_sessions": R.events_sessions,
        "events_moving_window": R.events_moving_window,
        "events_asof_click_error": R.events_asof_click_error,
        "events_view_attribution": R.events_view_attribution,
        "events_props_extract": R.events_props_extract,
        "events_funnel": R.events_funnel,
        "events_distinct_users": R.events_distinct_users,
        "events_running_total": R.events_running_total,
        "docs_dedup_exact": R.docs_dedup_exact,
        "docs_token_stats": R.docs_token_stats,
        "docs_quality": R.docs_quality,
        "docs_lang_id": R.docs_lang_id,
        "docs_repetition": R.docs_repetition,
        "docs_normalize_text": R.docs_normalize_text,
        "docs_minhash_dedup": R.docs_minhash_dedup,
        "docs_ngram_jaccard": R.docs_ngram_jaccard,
        "docs_charset_jaccard": R.docs_charset_jaccard,
        "docs_dup_components": R.docs_dup_components,
        "docs_retained_after_dedup": R.docs_retained_after_dedup,
        "docs_decontaminate": R.docs_decontaminate,
        "docs_decontaminate_bloom": R.docs_decontaminate_bloom,
        "docs_stratified_sample": R.docs_stratified_sample,
        "docs_sample_n_per_group": R.docs_sample_n_per_group,
        "docs_split_counts": R.docs_split_counts,
        "docs_chunk_windows": R.docs_chunk_windows,
        "docs_pack_batches": R.docs_pack_batches,
        "docs_token_commonness": R.docs_token_commonness,
        "docs_vocab_topk": R.docs_vocab_topk,
        "docs_tfidf_topk": R.docs_tfidf_topk,
        "docs_heavy_hitters": R.docs_heavy_hitters,
        "docs_corpus_pipeline": R.docs_corpus_pipeline,
        "docs_global_shuffle": R.docs_global_shuffle,
        "ann_cosine_top10": R.ann_cosine_top10,
        "embed_knn_join": R.embed_knn_join,
        "embed_neardup": R.embed_neardup,
        "lineitem_q6_revenue": R.lineitem_q6_revenue,
        "docs_bigram_topk": R.docs_bigram_topk,
        "docs_duplicate_spans": R.docs_duplicate_spans,
        "cell_rollup_customer": lambda d: R.cell_rollup_customer(
            d, res_fine=_RES_AGG_FINE, res_min=_RES_ROLLUP_MIN),
        "shipping_priority_q3": R.shipping_priority_q3,
        "events_cohort_retention": R.events_cohort_retention,
        "orders_delayed_by_priority": R.orders_delayed_by_priority,
        "promo_revenue_q14": R.promo_revenue_q14,
        "dormant_customers_by_nation": R.dormant_customers_by_nation,
        "sales_opportunity_q22": R.sales_opportunity_q22,
        "discount_revenue_q19": R.discount_revenue_q19,
        "volume_shipping_q7": R.volume_shipping_q7,
        "events_geofence_exact": R.events_geofence_exact,
        "events_region_assign": R.events_region_assign,
        "returned_item_revenue_q10": R.returned_item_revenue_q10,
        "large_quantity_orders_q18": R.large_quantity_orders_q18,
        "customer_order_counts_q13": R.customer_order_counts_q13,
        "top_supplier_q15": R.top_supplier_q15,
        "small_quantity_revenue_q17": R.small_quantity_revenue_q17,
        "market_share_q8": R.market_share_q8,
        "last_shipper_blame_q21": R.last_shipper_blame_q21,
        "events_cell_transitions": R.events_cell_transitions,
        "local_supplier_volume_q5": R.local_supplier_volume_q5,
        "product_profit_q9": R.product_profit_q9,
        "cell_embedding_centroid": R.cell_embedding_centroid,
        "shipping_latency_q12": R.shipping_latency_q12,
        "events_cell_dwell": R.events_cell_dwell,
        "events_user_anomalies": R.events_user_anomalies,
        "docs_dedup_survivors": R.docs_dedup_survivors,
        "docs_pii_scrub": R.docs_pii_scrub,
        "embed_cell_assign": R.embed_cell_assign,
        "embed_semantic_dedup": R.embed_semantic_dedup,
        "events_user_argmax": R.events_user_argmax,
        "events_daily_active_users": R.events_daily_active_users,
        "embed_norm_buckets": R.embed_norm_buckets,
        "cell_neighbor_smooth": R.cell_neighbor_smooth,
        "embed_label_centroid_dist": R.embed_label_centroid_dist,
        # --- rows-only by design (see the note at the end of oracle_sql) ---
        "docs_simhash_clusters": R.docs_simhash_clusters,
        "docs_fingerprint_overlap": R.docs_fingerprint_overlap,
        "embed_lsh_top20": R.embed_lsh_top20,
        "embed_ivf_top10": R.embed_ivf_top10,
        "embed_ivf_multiquery": R.embed_ivf_multiquery,
        "embed_quantized_top10": R.embed_quantized_top10,
        "embed_kmeans_clusters": R.embed_kmeans_clusters,
        "docs_bpe_merges": R.docs_bpe_merges,
        "docs_tokenize_bpe": R.docs_tokenize_bpe,
        "auid_customer_region": R.auid_customer_region,
        "images_features": R.images_features,
        "images_verify_invariant": R.images_verify_invariant,
        "images_jpeg_psnr": R.images_jpeg_psnr,
        "images_phash_dedup": R.images_phash_dedup,
        "images_neardup_components": R.images_neardup_components,
        "images_corpus_pipeline": R.images_corpus_pipeline,
        "images_augment": R.images_augment,
        "images_caption_filter": R.images_caption_filter,
        "audio_features": R.audio_features,
        "video_frames": R.video_frames,
        "video_scene_cuts": R.video_scene_cuts,
        "events_distinct_users_hll": R.events_distinct_users_hll,
        "events_value_quantiles_sketch": R.events_value_quantiles_sketch,
        "scene_jp2_cells": R.scene_jp2_cells,
        "flagship_cell_join": _flagship,
    }
    return _windowed(d)


# Round-N oracled queries the driver's 50-slot correctness window has not
# yet recorded, NEWEST FIRST — _windowed() moves these to the front of the
# oracled prefix so each round's CORRECTNESS_r{N}.json covers the latest
# additions (VERDICT r4 item #4: under a static ordering the round-3/4
# queries would never enter the window).  Append new round-5 oracled keys
# to the TOP of this list.
_WINDOW_PRIORITY = [
    # round 5
    "embed_label_centroid_dist", "cell_neighbor_smooth",
    "events_user_argmax",
    "events_daily_active_users", "embed_norm_buckets",
    # round 4 (never recorded by the driver)
    "embed_semantic_dedup", "embed_cell_assign", "docs_pii_scrub",
    "docs_dedup_survivors", "events_user_anomalies", "events_cell_dwell",
    "events_cell_transitions", "shipping_latency_q12",
    "cell_embedding_centroid", "product_profit_q9",
    "local_supplier_volume_q5", "last_shipper_blame_q21", "market_share_q8",
    "small_quantity_revenue_q17", "top_supplier_q15",
    "customer_order_counts_q13", "large_quantity_orders_q18",
    "returned_item_revenue_q10", "events_region_assign",
    "events_geofence_exact", "volume_shipping_q7", "discount_revenue_q19",
    "sales_opportunity_q22", "dormant_customers_by_nation",
    "promo_revenue_q14", "orders_delayed_by_priority",
    "events_cohort_retention", "shipping_priority_q3",
    "cell_rollup_customer",
    # round 3 (never recorded by the driver)
    "docs_duplicate_spans", "docs_bigram_topk", "lineitem_q6_revenue",
    "embed_neardup", "embed_knn_join", "ann_cosine_top10",
    "docs_global_shuffle", "docs_corpus_pipeline",
]


def _windowed(d: dict) -> dict:
    """Reorder queries: window-priority oracled keys, then the remaining
    oracled keys (still a contiguous prefix), then rows-only keys."""
    osql = set(oracle_sql())
    prio = [k for k in _WINDOW_PRIORITY if k in d and k in osql]
    seen = set(prio)
    rest = [k for k in d if k in osql and k not in seen]
    rows_only = [k for k in d if k not in osql]
    return {k: d[k] for k in prio + rest + rows_only}


def _ann_sql(dim: int = 64) -> str:
    """Query vector literal matches dggsray.pipelines.relational.ann_cosine_top10:
    q[i] = sin(i*0.1)+0.5 (embeddings tables ship dim-64 vectors)."""
    import numpy as np
    q = np.sin(np.arange(dim, dtype=np.float64) * 0.1) + 0.5
    lit = "[" + ", ".join(repr(v) for v in q) + "]"
    # cast to DOUBLE[] so DuckDB matches the engine's float64 accumulation
    return (f"SELECT vec_id, CAST(round(list_cosine_similarity("
            f"CAST(embedding AS DOUBLE[]), {lit}) "
            f"* 1000000) AS BIGINT) AS cos_micro FROM embeddings "
            f"ORDER BY cos_micro DESC, vec_id ASC LIMIT 10")


def _geofence_exact_sql() -> str:
    """Exact point-in-polygon oracle: the engine's PolygonProbe decision is
    replayed as a SQL crossing-number test — planar point coordinates from
    dggsray.oracle.planar_xy_sql (the cellid_sql closed form) against the
    SAME planar vertex literals the engine's rings project to, even-odd over
    the outer ring plus the hole."""
    from dggsray.core.rhpx import DEFAULT_GRID, project_fwd
    from dggsray.oracle import lonlat_sql, planar_xy_sql
    from dggsray.pipelines.relational import _GEOFENCE_EXACT_RINGS

    edges = []
    for ring in _GEOFENCE_EXACT_RINGS:
        x, y = project_fwd(ring[:, 0], ring[:, 1], DEFAULT_GRID)
        for i in range(len(x) - 1):
            edges.append((x[i], y[i], x[i + 1], y[i + 1]))
    vals = ", ".join(f"({a!r}, {b!r}, {c!r}, {d!r})" for a, b, c, d in edges)
    lon, lat = lonlat_sql("user_id")
    px, py = planar_xy_sql(lon, lat)
    return (
        f"WITH e(x0, y0, x1, y1) AS (VALUES {vals}), "
        f"p AS (SELECT event_id, event_type, value, {px} AS px, {py} AS py "
        "FROM events), "
        "c AS (SELECT p.event_id, any_value(p.event_type) AS et, "
        "any_value(p.value) AS v, "
        "SUM(CASE WHEN (e.y0 > p.py) <> (e.y1 > p.py) "
        "AND p.px < e.x0 + (p.py - e.y0) * (e.x1 - e.x0) / (e.y1 - e.y0) "
        "THEN 1 ELSE 0 END) AS cr "
        "FROM p CROSS JOIN e GROUP BY p.event_id) "
        "SELECT et AS event_type, "
        "CAST(SUM(CAST(round(v * 100) AS BIGINT)) AS BIGINT) AS value_cents, "
        "COUNT(*) AS n_events "
        "FROM c WHERE cr % 2 = 1 GROUP BY 1")


def _region_assign_sql() -> str:
    """Exact many-polygon assignment oracle: per-feature crossing parities
    in ONE scan over a feature-tagged edge VALUES table, then the engine's
    paint-order (later feature wins) as a CASE, -1 outside."""
    from dggsray.core.rhpx import DEFAULT_GRID, project_fwd
    from dggsray.oracle import lonlat_sql, planar_xy_sql
    from dggsray.pipelines.relational import _REGION_ASSIGN_FEATURES

    edges = []
    fids = []
    for f in _REGION_ASSIGN_FEATURES:
        fids.append(int(f["feature_id"]))
        for ring in f["rings"]:
            x, y = project_fwd(ring[:, 0], ring[:, 1], DEFAULT_GRID)
            for i in range(len(x) - 1):
                edges.append((f["feature_id"], x[i], y[i], x[i + 1],
                              y[i + 1]))
    vals = ", ".join(f"({f}, {a!r}, {b!r}, {c!r}, {d!r})"
                     for f, a, b, c, d in edges)
    lon, lat = lonlat_sql("user_id")
    px, py = planar_xy_sql(lon, lat)
    cross = ("(e.y0 > p.py) <> (e.y1 > p.py) AND p.px < e.x0 + "
             "(p.py - e.y0) * (e.x1 - e.x0) / (e.y1 - e.y0)")
    crs = ", ".join(
        f"SUM(CASE WHEN e.fid = {f} AND {cross} THEN 1 ELSE 0 END) AS c{f}"
        for f in fids)
    paint = " ".join(f"WHEN c{f} % 2 = 1 THEN {f}"
                     for f in sorted(fids, reverse=True))
    return (
        f"WITH e(fid, x0, y0, x1, y1) AS (VALUES {vals}), "
        f"p AS (SELECT event_id, event_type, value, {px} AS px, {py} AS py "
        "FROM events), "
        "c AS (SELECT p.event_id, any_value(p.event_type) AS et, "
        f"any_value(p.value) AS v, {crs} "
        "FROM p CROSS JOIN e GROUP BY p.event_id) "
        f"SELECT CASE {paint} ELSE -1 END AS region_id, et AS event_type, "
        "CAST(SUM(CAST(round(v * 100) AS BIGINT)) AS BIGINT) AS value_cents, "
        "COUNT(*) AS n_events FROM c GROUP BY 1, 2")


def _decontaminate_sql(k: int = 5, mod: int = 10) -> str:
    """Mirror of relational.docs_decontaminate: eval = doc_id % mod == 0,
    flag training docs whose distinct word-k-gram lists intersect the eval
    union, count the shared distinct k-grams."""
    terms = " || chr(31) || ".join(f"l[i+{j}]" for j in range(k))
    return (
        "WITH l0 AS (SELECT doc_id, list_filter("
        "regexp_split_to_array(text, '\\s+'), x -> x <> '') AS l "
        "FROM documents), "
        f"g AS (SELECT doc_id, list_distinct(list_transform("
        f"range(1, len(l) - {k - 2}), i -> {terms})) AS kg FROM l0), "
        f"ev AS (SELECT list_distinct(flatten(list(kg))) AS ekg FROM g "
        f"WHERE doc_id % {mod} = 0), "
        f"tr AS (SELECT doc_id, kg FROM g WHERE doc_id % {mod} <> 0) "
        "SELECT tr.doc_id, CAST(len(list_intersect(tr.kg, ev.ekg)) AS BIGINT) "
        "AS n_shared_kgrams FROM tr, ev "
        "WHERE len(list_intersect(tr.kg, ev.ekg)) > 0")


def _cc_body(threshold: float = 0.5, k: int = 3) -> str:
    """Shared CTE chain: minhash pairs -> symmetric edges -> recursive
    closure -> cc(doc_id, component)."""
    return (
        "WITH RECURSIVE p AS (" + _minhash_sql(threshold, k) + "), "
        "e AS (SELECT id_a AS a, id_b AS b FROM p "
        "UNION ALL SELECT id_b, id_a FROM p), "
        "r AS (SELECT a AS node, a AS label FROM (SELECT DISTINCT a FROM e) "
        "UNION SELECT e.b, r.label FROM r JOIN e ON r.node = e.a), "
        "cc AS (SELECT node AS doc_id, CAST(MIN(label) AS BIGINT) "
        "AS component FROM r GROUP BY 1) ")


def _cc_sql(threshold: float = 0.5, k: int = 3) -> str:
    """Mirror of relational.docs_dup_components: the minhash pair SQL as the
    edge list, transitive closure via a recursive CTE (every node collects
    all reachable seed labels; MIN per node = the component's min doc id —
    exactly the engine's min-label-propagation fixpoint)."""
    return _cc_body(threshold, k) + "SELECT doc_id, component FROM cc"


def _retained_sql(threshold: float = 0.5, k: int = 3) -> str:
    """Mirror of relational.docs_retained_after_dedup: every doc except the
    non-representative members of near-dup components (keep-one dedup)."""
    return (_cc_body(threshold, k) +
            "SELECT d.doc_id FROM documents d WHERE d.doc_id NOT IN "
            "(SELECT doc_id FROM cc WHERE doc_id != component)")


def _cell_hourly_sql(res: int = 2) -> str:
    """Mirror of relational.events_cell_hourly: the full cellid recomputed in
    SQL from the derived user point (dggsray.oracle.cellid_sql), crossed with
    hour-of-day."""
    lon, lat = lonlat_sql("user_id")
    cell = cellid_sql(lon, lat, res)
    return (f"SELECT {cell} AS cell, CAST(hour(ts) AS INTEGER) AS hour, "
            "CAST(SUM(CAST(round(value * 100) AS BIGINT)) AS BIGINT) "
            "AS value_cents, COUNT(*) AS n_events FROM events GROUP BY 1, 2")


def _geofence_sql(res: int = 3) -> str:
    """Mirror of relational.events_geofence: recompute each event's cellid in
    SQL, test membership against the SAME rasterized cover literal (shared
    via relational.geofence_cover — the cover is pinned by the rasterizer's
    golden tests; the join/aggregate is what this oracle verifies)."""
    from dggsray.pipelines.relational import geofence_cover

    cover = ", ".join(f"'{c}'" for c in geofence_cover(res))
    lon, lat = lonlat_sql("user_id")
    cell = cellid_sql(lon, lat, res)
    return (f"SELECT event_type, "
            "CAST(SUM(CAST(round(value * 100) AS BIGINT)) AS BIGINT) "
            "AS value_cents, COUNT(*) AS n_events FROM events "
            f"WHERE {cell} IN ({cover}) GROUP BY 1")


def _cell_transitions_sql(res: int = 1) -> str:
    """Mirror of relational.events_cell_transitions: the LAG window over
    each user's (ts, event_id)-ordered path of event-derived cellids
    (dggsray.oracle.cellid_sql on the event_id point), then the pair
    groupby."""
    lon, lat = lonlat_sql("event_id")
    cell = cellid_sql(lon, lat, res)
    return (f"WITH e AS (SELECT user_id, ts, event_id, {cell} AS cell "
            "FROM events), "
            "t AS (SELECT cell AS cell_to, "
            "LAG(cell) OVER (PARTITION BY user_id "
            "ORDER BY ts, event_id) AS cell_from FROM e) "
            "SELECT cell_from, cell_to, COUNT(*) AS n_transitions "
            "FROM t WHERE cell_from IS NOT NULL GROUP BY 1, 2")


def _embedding_centroid_sql(res: int = 1) -> str:
    """Mirror of relational.cell_embedding_centroid: per-(cell, dim) sums of
    floor(x*1e6 + 0.5) micro-units (the exact arithmetic the engine applies
    before summing, so both sides are order-independent), cell derived from
    vec_id, dim from generate_subscripts (1-based -> 0-based)."""
    lon, lat = lonlat_sql("vec_id")
    cell = cellid_sql(lon, lat, res)
    return (f"WITH e AS (SELECT vec_id, {cell} AS cell, embedding "
            "FROM embeddings), "
            "u AS (SELECT cell, "
            "CAST(generate_subscripts(embedding, 1) - 1 AS BIGINT) AS dim, "
            "CAST(FLOOR(CAST(unnest(embedding) AS DOUBLE) * 1000000 + 0.5) "
            "AS BIGINT) AS v FROM e) "
            "SELECT cell, dim, CAST(SUM(v) AS BIGINT) AS sum_e6, "
            "COUNT(*) AS n_points, "
            "CAST(FLOOR(CAST(SUM(v) AS DOUBLE) / COUNT(*)) AS BIGINT) "
            "AS centroid_e6 FROM u GROUP BY 1, 2")


def _cell_dwell_sql(res: int = 1) -> str:
    """Mirror of relational.events_cell_dwell: gaps-and-islands — LAG
    change flag over each user's (ts, event_id)-ordered cell stream,
    running-sum island id, per-island MIN/MAX span, then the cell
    rollup.  Integer-exact epoch microseconds."""
    lon, lat = lonlat_sql("event_id")
    cell = cellid_sql(lon, lat, res)
    return (f"WITH e AS (SELECT user_id, ts, event_id, {cell} AS cell "
            "FROM events), "
            "t AS (SELECT *, CASE WHEN cell IS DISTINCT FROM LAG(cell) "
            "OVER (PARTITION BY user_id ORDER BY ts, event_id) "
            "THEN 1 ELSE 0 END AS chg FROM e), "
            "r AS (SELECT user_id, cell, ts, SUM(chg) OVER "
            "(PARTITION BY user_id ORDER BY ts, event_id "
            "ROWS UNBOUNDED PRECEDING) AS island FROM t), "
            "v AS (SELECT user_id, island, MIN(cell) AS cell, "
            "CAST(epoch_us(MAX(ts)) - epoch_us(MIN(ts)) AS BIGINT) AS d, "
            "COUNT(*) AS n FROM r GROUP BY 1, 2) "
            "SELECT cell, COUNT(*) AS n_visits, "
            "CAST(SUM(d) AS BIGINT) AS total_dwell_us, "
            "CAST(SUM(n) AS BIGINT) AS n_events FROM v GROUP BY 1")


def _pii_sql() -> str:
    """Mirror of relational.docs_pii_scrub — both engines run RE2, same
    patterns, same replacement order (emails -> IPs -> phones)."""
    em = r"[A-Za-z0-9._%+\-]+@[A-Za-z0-9.\-]+\.[A-Za-z]{2,}"
    ip = r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b"
    ph = r"\+?[0-9][0-9 \-]{7,}[0-9]"
    return (
        "WITH s1 AS (SELECT doc_id, "
        f"CAST(len(regexp_extract_all(text, '{em}')) AS BIGINT) AS n_emails, "
        f"regexp_replace(text, '{em}', '<EMAIL>', 'g') AS t FROM documents), "
        "s2 AS (SELECT doc_id, n_emails, "
        f"CAST(len(regexp_extract_all(t, '{ip}')) AS BIGINT) AS n_ips, "
        f"regexp_replace(t, '{ip}', '<IP>', 'g') AS t FROM s1), "
        "s3 AS (SELECT doc_id, n_emails, n_ips, "
        f"CAST(len(regexp_extract_all(t, '{ph}')) AS BIGINT) AS n_phones, "
        f"regexp_replace(t, '{ph}', '<PHONE>', 'g') AS t FROM s2) "
        "SELECT doc_id, n_emails, n_ips, n_phones, "
        "CAST(length(t) AS BIGINT) AS n_chars_scrubbed FROM s3")


def _embed_cell_assign_sql(res: int = 1) -> str:
    """Mirror of relational.embed_cell_assign: the centroid CTE (same
    micro-unit arithmetic as _embedding_centroid_sql), each vector's
    exact integer squared-L2 to every centroid via an unnest join on
    dim, argmin with cell-ascending tie-break."""
    lon, lat = lonlat_sql("vec_id")
    cell = cellid_sql(lon, lat, res)
    return (
        f"WITH e AS (SELECT vec_id, {cell} AS cell, embedding "
        "FROM embeddings), "
        "u AS (SELECT vec_id, cell, "
        "CAST(generate_subscripts(embedding, 1) - 1 AS BIGINT) AS dim, "
        "CAST(FLOOR(CAST(unnest(embedding) AS DOUBLE) * 1000000 + 0.5) "
        "AS BIGINT) AS v FROM e), "
        "cent AS (SELECT cell, dim, "
        "CAST(FLOOR(CAST(SUM(v) AS DOUBLE) / COUNT(*)) AS BIGINT) AS c "
        "FROM u GROUP BY 1, 2), "
        "d AS (SELECT u.vec_id, cent.cell, "
        "SUM((u.v - cent.c) * (u.v - cent.c)) AS dist "
        "FROM u JOIN cent ON u.dim = cent.dim GROUP BY 1, 2) "
        "SELECT vec_id, cell AS cell_assigned, "
        "CAST(dist AS BIGINT) AS dist_e12 FROM d "
        "QUALIFY ROW_NUMBER() OVER (PARTITION BY vec_id "
        "ORDER BY dist ASC, cell ASC) = 1")


def _cell_neighbor_smooth_sql(res: int = 3) -> str:
    """Mirror of relational.cell_neighbor_smooth: same planar (gx, gy)
    arithmetic from the closed-form projection, 3x3 neighbourhood with
    horizontal wrap over the four equatorial faces."""
    from dggsray.oracle import F, lonlat_sql, planar_xy_sql

    side = 3 ** res
    total = 4 * side
    w = F / side
    lon, lat = lonlat_sql("k")
    x, y = planar_xy_sql(lon, lat)
    return f"""
        WITH pts AS (
            SELECT CAST(floor((({x}) + {2 * F!r}) / {w!r}) AS BIGINT) gx,
                   CAST(floor(({F / 2!r} - ({y})) / {w!r}) AS BIGINT) gy
            FROM (SELECT CAST(c_custkey AS BIGINT) k FROM customer)),
        cells AS (
            SELECT gx, gy, CAST(COUNT(*) AS BIGINT) n
            FROM pts GROUP BY 1, 2)
        SELECT c.gx AS gx, c.gy AS gy, c.n AS n_cell,
               CAST(SUM(d.n) AS BIGINT) AS n_neighborhood
        FROM cells c JOIN cells d
          ON ((d.gx - c.gx + {total}) % {total}) IN (0, 1, {total - 1})
         AND abs(d.gy - c.gy) <= 1
        GROUP BY 1, 2, 3"""


def _semantic_dedup_sql(tau: int = 350) -> str:
    """Mirror of relational.embed_semantic_dedup: milli-unit quantization,
    within-label pairwise integer dot products, the exact comparison
    10^6*dot^2 >= tau^2*na*nb in HUGEINT (the engine evaluates the same
    inequality in float64 with an exact bigint re-check on boundary
    pairs), is_dup = an earlier same-label vector clears it."""
    return (
        "WITH q AS (SELECT vec_id, CAST(label AS BIGINT) AS label, "
        "CAST(generate_subscripts(embedding, 1) - 1 AS BIGINT) AS dim, "
        "CAST(FLOOR(CAST(unnest(embedding) AS DOUBLE) * 1000 + 0.5) "
        "AS BIGINT) AS w FROM embeddings), "
        "norms AS (SELECT vec_id, SUM(w * w) AS nn FROM q GROUP BY 1), "
        "dots AS (SELECT a.vec_id AS ia, b.vec_id AS ib, "
        "SUM(a.w * b.w) AS dot FROM q a JOIN q b "
        "ON a.label = b.label AND a.dim = b.dim AND a.vec_id < b.vec_id "
        "GROUP BY 1, 2), "
        "dup AS (SELECT d.ib FROM dots d "
        "JOIN norms x ON x.vec_id = d.ia "
        "JOIN norms y ON y.vec_id = d.ib "
        "WHERE d.dot > 0 AND "
        "1000000 * CAST(d.dot AS HUGEINT) * d.dot >= "
        f"CAST({tau * tau} AS HUGEINT) * x.nn * y.nn GROUP BY 1) "
        "SELECT e.vec_id, CAST(e.label AS BIGINT) AS label, "
        "CAST(CASE WHEN d.ib IS NULL THEN 0 ELSE 1 END AS BIGINT) "
        "AS is_dup, "
        "COUNT(*) OVER (PARTITION BY e.label) AS n_cluster "
        "FROM embeddings e LEFT JOIN dup d ON d.ib = e.vec_id")


def _minhash_sql(threshold: float = 0.5, k: int = 3) -> str:
    """Mirror of relational.docs_minhash_dedup: pairs whose word-{k}-shingle
    set Jaccard clears the threshold, integer-exact micro arithmetic
    (inter*1e6 // union) matching ops.dedup.minhash_dedup's verify stage.
    The engine's LSH bands (32 bands x 4 rows, fixed seed) recall every
    qualifying pair on the test tables (verified at sf0.001 and sf0.01), so
    the exact all-pairs answer is the oracle; the band prefilter only prunes
    the candidate set."""
    thr = int(round(threshold * 1_000_000))
    sep = " || chr(31) || "
    shingle = sep.join(f"l[i+{j}]" for j in range(k))
    return (
        "WITH l0 AS (SELECT doc_id, "
        "list_filter(regexp_split_to_array(text, '\\s+'), x -> x <> '') "
        "AS l FROM documents), "
        f"t AS (SELECT doc_id, list_distinct(list_transform("
        f"range(1, len(l) - {k - 2}), i -> {shingle})) AS sg FROM l0) "
        "SELECT a.doc_id AS id_a, b.doc_id AS id_b, "
        "CAST((len(list_intersect(a.sg, b.sg)) * 1000000) // "
        "(len(a.sg) + len(b.sg) - len(list_intersect(a.sg, b.sg))) "
        "AS BIGINT) AS jaccard_micro "
        "FROM t a JOIN t b ON a.doc_id < b.doc_id "
        "WHERE len(a.sg) > 0 AND len(b.sg) > 0 "
        "AND len(list_intersect(a.sg, b.sg)) * 1000000 >= "
        f"{thr} * (len(a.sg) + len(b.sg) - len(list_intersect(a.sg, b.sg)))")


def _knn_sql(k: int = 15, res: int = 6) -> str:
    """Mirror of relational.knn_cells_customer: LCP prefix selection + exact
    planar centroid distance.  The query cell and its centroid are Python-side
    literals (closed-form, no Ray needed); centroid arithmetic in SQL matches
    the engine's float op order bit-for-bit (oracle.centroid_xy_sql)."""
    import numpy as np

    from dggsray.core.rhpx import DEFAULT_GRID, cell_centroid, cells_from_lonlat
    from dggsray.oracle import centroid_xy_sql
    from dggsray.pipelines.relational import derived_lonlat

    qlon, qlat = derived_lonlat(np.array([1]))
    qcell = cells_from_lonlat(res, qlon, qlat, DEFAULT_GRID)[0]
    qx, qy = cell_centroid([qcell], DEFAULT_GRID)
    qx, qy = float(qx[0]), float(qy[0])
    lon, lat = lonlat_sql("c_custkey")
    cell = cellid_sql(lon, lat, res)
    qlen = len(qcell)
    m_cases = " ".join(
        f"WHEN substr(cellid,1,{p}) = '{qcell[:p]}' THEN {p}"
        for p in range(qlen, 0, -1))
    x, y = centroid_xy_sql("cellid", res)
    return (
        f"WITH pts AS (SELECT c_custkey, {cell} AS cellid FROM customer), "
        f"lcp AS (SELECT c_custkey, cellid, "
        f"(CASE {m_cases} ELSE 0 END) AS m FROM pts), "
        f"hist AS (SELECT m, COUNT(*) AS c FROM lcp GROUP BY m), "
        f"cum AS (SELECT p.p AS p, (SELECT COALESCE(SUM(c), 0) FROM hist "
        f"WHERE m >= p.p) AS n FROM (SELECT unnest(range(1, {qlen + 1})) AS p) p), "
        f"pstar AS (SELECT COALESCE(MAX(p), 1) AS p FROM cum WHERE n >= {k}), "
        f"cand AS (SELECT c_custkey, cellid, "
        f"sqrt(({x} - {qx!r}) * ({x} - {qx!r}) + ({y} - {qy!r}) * ({y} - {qy!r})) "
        f"AS dist FROM lcp WHERE m >= (SELECT p FROM pstar)) "
        f"SELECT c_custkey, cellid, CAST(round(dist) AS BIGINT) AS dist_m_int "
        f"FROM cand ORDER BY dist, cellid, c_custkey LIMIT {k}")


def _knn_join_sql(k: int = 5, n_queries: int = 8, dim: int = 64) -> str:
    """Mirror of relational.embed_knn_join: same deterministic query matrix,
    per-query top-k via QUALIFY row_number."""
    import numpy as np
    rows = []
    for j in range(n_queries):
        q = np.sin(np.arange(dim, dtype=np.float64) * 0.1 * (j + 1)) + 0.5
        lit = "[" + ", ".join(repr(v) for v in q) + "]"
        rows.append(f"({j}, {lit}::DOUBLE[])")
    return (f"WITH q(qid, qv) AS (SELECT * FROM (VALUES {', '.join(rows)})) "
            f"SELECT CAST(qid AS INTEGER) AS query, vec_id, "
            f"CAST(round(list_cosine_similarity(CAST(embedding AS DOUBLE[]), "
            f"qv) * 1000000) AS BIGINT) AS cos_micro "
            f"FROM q CROSS JOIN embeddings "
            f"QUALIFY row_number() OVER (PARTITION BY qid "
            f"ORDER BY cos_micro DESC, vec_id ASC) <= {k}")


def _lang_id_sql() -> str:
    """Mirror of relational.docs_lang_id: stopword hit-rate argmax with dict-order
    tie-break, 'und' at zero hits, integer-exact conf = hits*1e6 // n_tokens.
    Generated from the same _STOPWORDS table the engine uses, so the two can
    never drift."""
    from dggsray.ops.text import _STOPWORDS

    langs = list(_STOPWORDS)            # dict order = engine tie-break order
    hits_cols = []
    for lang in langs:
        lit = "[" + ", ".join(f"'{w}'" for w in sorted(_STOPWORDS[lang])) + "]"
        hits_cols.append(
            f"len(list_filter(tk, t -> list_contains({lit}, t))) AS h_{lang}")
    h = [f"h_{lang}" for lang in langs]
    best = f"greatest({', '.join(h)})"
    # first language whose hits >= all later ones is the argmax (dict order ties)
    cases = []
    for i, lang in enumerate(langs[:-1]):
        conds = " AND ".join(f"{h[i]} >= {hj}" for hj in h[i + 1:])
        cases.append(f"WHEN {conds} THEN '{lang}'")
    case_lang = (f"CASE WHEN {best} = 0 THEN 'und' "
                 + " ".join(cases) + f" ELSE '{langs[-1]}' END")
    return (
        "WITH toks AS (SELECT doc_id, "
        "list_filter(regexp_split_to_array(lower(text), '\\s+'), "
        "t -> t <> '') AS tk FROM documents), "
        f"sc AS (SELECT doc_id, len(tk) AS n, {', '.join(hits_cols)} FROM toks) "
        f"SELECT doc_id, {case_lang} AS detected_lang, "
        f"CAST(CASE WHEN {best} = 0 THEN 0 ELSE "
        f"({best} * 1000000) // greatest(n, 1) END AS BIGINT) AS conf_micro "
        "FROM sc")


def _sample_sql() -> str:
    """Mirror of relational.docs_stratified_sample: same Knuth-hash keep rule,
    CASE arms generated from the same rate dict."""
    arms = " ".join(f"WHEN '{k}' THEN {v}"
                    for k, v in sorted(R.SAMPLE_RATES_PER_MILLE.items()))
    return ("SELECT doc_id, lang FROM documents "
            "WHERE ((doc_id * 2654435761) % 4294967296) % 1000 < "
            f"CASE lang {arms} ELSE 0 END")


def _corpus_sql() -> str:
    """Mirror of relational.docs_corpus_pipeline: quality filter -> min-id
    exact dedup -> stratified Knuth-hash sample -> token-budget packing ->
    per-batch summary.  Constants and the rate CASE come from the same
    relational-module definitions the engine uses."""
    arms = " ".join(f"WHEN '{k}' THEN {v}"
                    for k, v in sorted(R.SAMPLE_RATES_PER_MILLE.items()))
    return (
        "WITH tok AS (SELECT doc_id, text, lang, "
        "CAST(length(regexp_split_to_array(text, '\\s+')) AS BIGINT) AS n "
        "FROM documents), "
        f"q AS (SELECT * FROM tok WHERE n >= {R.CORPUS_MIN_TOKENS} "
        f"AND length(text) <= {R.CORPUS_MAX_CHARS}), "
        "k AS (SELECT MIN(doc_id) AS keep FROM q GROUP BY text), "
        "d AS (SELECT q.* FROM q JOIN k ON q.doc_id = k.keep), "
        "s AS (SELECT * FROM d WHERE "
        "((doc_id * 2654435761) % 4294967296) % 1000 < "
        f"CASE lang {arms} ELSE 0 END), "
        "c AS (SELECT doc_id, n, SUM(n) OVER (ORDER BY doc_id "
        "ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) - n AS excl "
        "FROM s) "
        f"SELECT CAST(excl // {R.PACK_TOKEN_BUDGET} AS BIGINT) AS batch_id, "
        "CAST(SUM(n) AS BIGINT) AS sum_tokens, COUNT(*) AS n_docs "
        "FROM c GROUP BY 1")


def oracle_sql() -> dict[str, str]:
    lon_c, lat_c = lonlat_sql("c_custkey")
    lon_o, lat_o = lonlat_sql("o_orderkey")
    cell_c_enc = cellid_sql(lon_c, lat_c, _RES_ENC)
    cell_c_fine = cellid_sql(lon_c, lat_c, _RES_AGG_FINE)
    cell_c_join = cellid_sql(lon_c, lat_c, _RES_JOIN)
    cell_o_join = cellid_sql(lon_o, lat_o, _RES_JOIN)
    cell_c_maj = cellid_sql(lon_c, lat_c, _RES_MAJ)

    return {
        "cell_encode_customer":
            f"SELECT c_custkey, {cell_c_enc} AS cellid FROM customer",
        "cell_count_by_face":
            f"SELECT substr({cell_c_enc}, 1, 1) AS face, "
            f"COUNT(*) AS n_points FROM customer GROUP BY 1",
        "cell_agg_customer":
            f"SELECT substr({cell_c_fine}, 1, {_RES_AGG_COARSE + 1}) AS cell, "
            f"CAST(SUM(CAST(round(c_acctbal * 100) AS BIGINT)) AS BIGINT) "
            f"AS bal_cents, "
            f"COUNT(*) AS n_customers FROM customer GROUP BY 1",
        "cell_join_customer_orders":
            f"WITH cc AS (SELECT {cell_c_join} AS cellid, COUNT(*) AS nc "
            f"FROM customer GROUP BY 1), "
            f"oc AS (SELECT {cell_o_join} AS cellid, COUNT(*) AS no "
            f"FROM orders GROUP BY 1) "
            f"SELECT cc.cellid AS cellid, CAST(cc.nc * oc.no AS BIGINT) AS n_pairs "
            f"FROM cc JOIN oc ON cc.cellid = oc.cellid",
        "cell_majority_nation":
            f"WITH cv AS (SELECT {cell_c_maj} AS cell, c_nationkey AS nation, "
            f"COUNT(*) AS cnt FROM customer GROUP BY 1, 2), "
            f"r AS (SELECT cell, nation, cnt, ROW_NUMBER() OVER "
            f"(PARTITION BY cell ORDER BY cnt DESC, nation ASC) AS rn FROM cv) "
            f"SELECT cell, nation AS majority_nation, cnt FROM r WHERE rn = 1",
        "pricing_summary":
            "SELECT l_returnflag, l_linestatus, "
            "CAST(SUM(CAST(l_quantity AS BIGINT)) AS BIGINT) AS sum_qty, "
            "CAST(SUM(CAST(round(l_extendedprice * 100) AS BIGINT)) AS BIGINT) "
            "AS sum_price_cents, "
            "COUNT(*) AS n_rows FROM lineitem GROUP BY 1, 2",
        "top_orders":
            "SELECT o_orderkey, CAST(round(o_totalprice * 100) AS BIGINT) AS "
            "price_cents FROM orders ORDER BY price_cents DESC, o_orderkey ASC "
            "LIMIT 25",
        "events_by_type":
            "SELECT event_type, CAST(SUM(CAST(round(value * 100) AS BIGINT)) "
            "AS BIGINT) AS value_cents, COUNT(*) AS n_events "
            "FROM events GROUP BY 1",
        "docs_dedup_exact":
            "WITH keep AS (SELECT MIN(doc_id) AS keep_id FROM documents "
            "GROUP BY text) "
            "SELECT d.lang AS lang, COUNT(*) AS n_unique_docs FROM documents d "
            "JOIN keep ON d.doc_id = keep.keep_id GROUP BY 1",
        "docs_token_stats":
            "SELECT lang, "
            "CAST(SUM(CAST(length(regexp_split_to_array(text, '\\s+')) "
            "AS BIGINT)) AS BIGINT) AS n_tokens, "
            "CAST(SUM(CAST(length(text) AS BIGINT)) AS BIGINT) AS n_chars, "
            "COUNT(*) AS n_docs FROM documents GROUP BY 1",
        "ann_cosine_top10": _ann_sql(),
        "docs_minhash_dedup": _minhash_sql(),
        "docs_dup_components": _cc_sql(),
        "docs_retained_after_dedup": _retained_sql(),
        "docs_decontaminate": _decontaminate_sql(),
        # same exact semantics, Bloom-prefiltered execution
        "docs_decontaminate_bloom": _decontaminate_sql(),
        "events_view_attribution":
            "SELECT c.event_id, c.user_id, epoch_us(c.ts) AS ts_us, "
            "CAST(COUNT(v.event_id) AS BIGINT) AS n_matches "
            "FROM events c LEFT JOIN events v "
            "ON c.user_id = v.user_id AND v.event_type = 'view' "
            "AND v.ts BETWEEN c.ts - INTERVAL 30 MINUTE AND c.ts "
            "WHERE c.event_type = 'click' GROUP BY 1, 2, 3",
        "docs_split_counts":
            "WITH s AS (SELECT lang, text, "
            "(doc_id * 2654435761) % 4294967296 % 1000 AS key, "
            "CASE WHEN (doc_id * 2654435761) % 4294967296 % 1000 < 900 "
            "THEN 'train' WHEN (doc_id * 2654435761) % 4294967296 % 1000 "
            "< 950 THEN 'val' ELSE 'test' END AS split FROM documents) "
            "SELECT lang, split, "
            "CAST(SUM(CAST(length(regexp_split_to_array(text, '\\s+')) "
            "AS BIGINT)) AS BIGINT) AS n_tokens, "
            "COUNT(*) AS n_docs FROM s GROUP BY 1, 2",
        "docs_sample_n_per_group":
            "SELECT lang, doc_id, "
            "CAST((doc_id * 2654435761) % 4294967296 AS BIGINT) AS hash_key "
            "FROM documents "
            "QUALIFY row_number() OVER (PARTITION BY lang "
            "ORDER BY hash_key ASC, doc_id ASC) <= 5",
        "docs_chunk_windows":
            "WITH l0 AS (SELECT doc_id, "
            "regexp_split_to_array(text, '\\s+') AS l FROM documents), "
            "c AS (SELECT doc_id, l, "
            "unnest(range(0, CAST(ceil(len(l) / 24.0) AS BIGINT))) AS j "
            "FROM l0 WHERE len(l) > 0) "
            "SELECT doc_id, CAST(j AS BIGINT) AS chunk_idx, "
            "CAST(least(len(l) - j * 24, 32) AS BIGINT) AS n_tokens, "
            "array_to_string(list_slice(l, j * 24 + 1, "
            "least(j * 24 + 32, len(l))), ' ') AS chunk_text FROM c",
        "docs_token_commonness":
            "WITH l0 AS (SELECT doc_id, list_filter("
            "regexp_split_to_array(text, '\\s+'), x -> x <> '') AS l "
            "FROM documents), "
            "tok AS (SELECT doc_id, unnest(l) AS token FROM l0), "
            "vocab AS (SELECT token, COUNT(*) AS n FROM tok GROUP BY 1), "
            "per AS (SELECT t.doc_id, COUNT(*) AS n_tokens, SUM(v.n) AS s "
            "FROM tok t JOIN vocab v USING(token) GROUP BY 1) "
            "SELECT d.doc_id, CAST(COALESCE(p.n_tokens, 0) AS BIGINT) "
            "AS n_tokens, "
            "CAST(COALESCE(p.s, 0) AS BIGINT) AS sum_commonness, "
            "CAST(COALESCE(p.s // GREATEST(p.n_tokens, 1), 0) AS BIGINT) "
            "AS mean_commonness "
            "FROM documents d LEFT JOIN per p USING (doc_id)",
        "docs_tfidf_topk":
            "WITH t AS (SELECT doc_id, unnest(list_filter("
            "regexp_split_to_array(text, '\\s+'), x -> x <> '')) AS token "
            "FROM documents), "
            "tf AS (SELECT doc_id, token, COUNT(*) AS tf FROM t "
            "GROUP BY 1, 2), "
            "df AS (SELECT token, COUNT(*) AS df FROM tf GROUP BY 1), "
            "s AS (SELECT tf.doc_id, tf.token, tf.tf, "
            "tf.tf * 1000000 // df.df AS score FROM tf JOIN df "
            "USING (token)), "
            "r AS (SELECT *, ROW_NUMBER() OVER (PARTITION BY doc_id "
            "ORDER BY score DESC, token ASC) AS rn FROM s) "
            "SELECT doc_id, token, CAST(tf AS BIGINT) AS tf, "
            "CAST(score AS BIGINT) AS score FROM r WHERE rn <= 5",
        "docs_normalize_text":
            "SELECT doc_id, trim(regexp_replace(lower(text), '\\s+', ' ', "
            "'g')) AS norm_text, CAST(length(trim(regexp_replace(lower("
            "text), '\\s+', ' ', 'g'))) AS BIGINT) AS n_chars_norm "
            "FROM documents",
        "revenue_by_region":
            "SELECT r.r_name, CAST(SUM(CAST(round(l.l_extendedprice * 100) "
            "AS BIGINT) * CAST(round((1 - l.l_discount) * 100) AS BIGINT)) "
            "AS BIGINT) AS revenue_e4, "
            "CAST(COUNT(DISTINCT o.o_orderkey) AS BIGINT) AS n_orders "
            "FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey "
            "JOIN customer c ON o.o_custkey = c.c_custkey "
            "JOIN nation n ON c.c_nationkey = n.n_nationkey "
            "JOIN region r ON n.n_regionkey = r.r_regionkey GROUP BY 1",
        "docs_global_shuffle":
            "SELECT doc_id, CAST(ROW_NUMBER() OVER (ORDER BY "
            "(doc_id * 2654435761) % 4294967296, doc_id) - 1 AS BIGINT) "
            "AS position FROM documents",
        "docs_heavy_hitters":
            "WITH t AS (SELECT unnest(list_filter("
            "regexp_split_to_array(text, '\\s+'), x -> x <> '')) AS token "
            "FROM documents), tot AS (SELECT COUNT(*) AS n FROM t) "
            "SELECT token, CAST(COUNT(*) AS BIGINT) AS n, "
            "CAST((SELECT n FROM tot) AS BIGINT) AS n_total "
            "FROM t GROUP BY 1 "
            "HAVING COUNT(*) * 1000000 >= 34000 * (SELECT n FROM tot)",
        "events_distinct_users":
            "SELECT event_type, CAST(COUNT(DISTINCT user_id) AS BIGINT) "
            "AS n_users FROM events GROUP BY 1",
        # events_distinct_users_hll and events_value_quantiles_sketch are
        # rows-only by design: the HLL estimate / MRL compaction are
        # deterministic but not SQL-reproducible.
        "events_running_total":
            "SELECT event_id, user_id, CAST(epoch_us(ts) AS BIGINT) "
            "AS ts_us, CAST(SUM(CAST(round(value * 100) AS BIGINT)) "
            "OVER (PARTITION BY user_id ORDER BY ts, event_id "
            "ROWS UNBOUNDED PRECEDING) AS BIGINT) AS running_cents "
            "FROM events",
        "events_funnel":
            "WITH v AS (SELECT user_id, MIN(epoch_us(ts)) AS first_view_us "
            "FROM events WHERE event_type = 'view' GROUP BY 1), "
            "c AS (SELECT e.user_id, MIN(epoch_us(e.ts)) AS first_click_us "
            "FROM events e JOIN v USING (user_id) "
            "WHERE e.event_type = 'click' "
            "AND epoch_us(e.ts) > v.first_view_us GROUP BY 1), "
            "p AS (SELECT e.user_id, MIN(epoch_us(e.ts)) "
            "AS first_purchase_us FROM events e JOIN c USING (user_id) "
            "WHERE e.event_type = 'purchase' "
            "AND epoch_us(e.ts) > c.first_click_us GROUP BY 1) "
            "SELECT v.user_id, CAST(v.first_view_us AS BIGINT) "
            "AS first_view_us, CAST(c.first_click_us AS BIGINT) "
            "AS first_click_us, CAST(p.first_purchase_us AS BIGINT) "
            "AS first_purchase_us FROM v JOIN c USING (user_id) "
            "JOIN p USING (user_id)",
        "docs_vocab_topk":
            "WITH t AS (SELECT unnest(list_filter("
            "regexp_split_to_array(text, '\\s+'), x -> x <> '')) AS token "
            "FROM documents) "
            "SELECT token, CAST(COUNT(*) AS BIGINT) AS n FROM t GROUP BY 1 "
            "ORDER BY n DESC, token ASC LIMIT 50",
        "lineitem_q6_revenue":
            "SELECT CAST(SUM(CAST(FLOOR(l_extendedprice * l_discount * 100 "
            "+ 0.5) AS BIGINT)) AS BIGINT) AS revenue_cents, "
            "CAST(COUNT(*) AS BIGINT) AS n_rows FROM lineitem "
            "WHERE l_shipdate >= TIMESTAMP '1996-01-01' "
            "AND l_shipdate < TIMESTAMP '1997-01-01' "
            "AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24",
        "docs_bigram_topk":
            "WITH toks AS (SELECT list_filter("
            "regexp_split_to_array(text, '\\s+'), x -> x <> '') AS l "
            "FROM documents), "
            "bi AS (SELECT unnest(list_zip(l[:len(l)-1], l[2:])) AS p "
            "FROM toks WHERE len(l) >= 2) "
            "SELECT p[1] || ' ' || p[2] AS bigram, "
            "CAST(COUNT(*) AS BIGINT) AS n FROM bi GROUP BY 1 "
            "ORDER BY n DESC, bigram ASC LIMIT 30",
        "docs_duplicate_spans":
            "WITH toks AS (SELECT doc_id, list_filter("
            "regexp_split_to_array(text, '\\s+'), x -> x <> '') AS l "
            "FROM documents), "
            "wins AS (SELECT DISTINCT doc_id, "
            "array_to_string(l[i:i+7], ' ') AS win "
            "FROM toks, unnest(range(1, len(l)-6)) AS t(i) "
            "WHERE len(l) >= 8), "
            "counts AS (SELECT win, COUNT(*) AS nd FROM wins GROUP BY 1) "
            "SELECT w.doc_id, CAST(COUNT(*) AS BIGINT) AS n_windows, "
            "CAST(SUM(CASE WHEN c.nd >= 2 THEN 1 ELSE 0 END) AS BIGINT) "
            "AS n_dup_windows "
            "FROM wins w JOIN counts c USING (win) GROUP BY 1",
        "cell_rollup_customer":
            f"WITH base AS (SELECT {cell_c_fine} AS cell, "
            "CAST(round(c_acctbal * 100) AS BIGINT) AS cents "
            "FROM customer) "
            "SELECT CAST(r.res AS BIGINT) AS res, "
            "substr(cell, 1, r.res + 1) AS cell, "
            "CAST(SUM(cents) AS BIGINT) AS bal_cents, "
            "COUNT(*) AS n_customers "
            "FROM base, (VALUES "
            + ", ".join(f"({r})" for r in
                        range(_RES_ROLLUP_MIN, _RES_AGG_FINE + 1))
            + ") AS r(res) GROUP BY 1, 2",
        "shipping_priority_q3":
            "SELECT CAST(o.o_orderkey AS BIGINT) AS o_orderkey, "
            "CAST(SUM(CAST(FLOOR(l.l_extendedprice * (1 - l.l_discount) "
            "* 100 + 0.5) AS BIGINT)) AS BIGINT) AS revenue_cents, "
            "CAST(epoch_us(o.o_orderdate) AS BIGINT) AS o_orderdate_us "
            "FROM customer c JOIN orders o ON c.c_custkey = o.o_custkey "
            "JOIN lineitem l ON l.l_orderkey = o.o_orderkey "
            "WHERE c.c_mktsegment = 'BUILDING' "
            "AND o.o_orderdate < TIMESTAMP '1998-06-01' "
            "AND l.l_shipdate > TIMESTAMP '1998-06-01' "
            "GROUP BY 1, 3 "
            "ORDER BY revenue_cents DESC, o_orderdate_us ASC, "
            "o_orderkey ASC LIMIT 10",
        "events_cohort_retention":
            "WITH act AS (SELECT DISTINCT user_id, "
            "date_trunc('week', ts) AS wk FROM events), "
            "first AS (SELECT user_id, MIN(wk) AS cohort FROM act "
            "GROUP BY 1) "
            "SELECT CAST(epoch_us(f.cohort) AS BIGINT) AS cohort_week_us, "
            "CAST((epoch_us(a.wk) - epoch_us(f.cohort)) // 604800000000 "
            "AS BIGINT) AS week_offset, "
            "COUNT(*) AS n_users "
            "FROM act a JOIN first f USING (user_id) GROUP BY 1, 2",
        "orders_delayed_by_priority":
            "SELECT o.o_orderpriority, COUNT(*) AS order_count "
            "FROM orders o "
            "WHERE o.o_orderdate >= TIMESTAMP '1996-01-01' "
            "AND o.o_orderdate < TIMESTAMP '1996-07-01' "
            "AND EXISTS (SELECT 1 FROM lineitem l "
            "WHERE l.l_orderkey = o.o_orderkey "
            "AND l.l_shipdate > o.o_orderdate + INTERVAL 90 DAY) "
            "GROUP BY 1",
        "promo_revenue_q14":
            "WITH m AS (SELECT CAST(FLOOR(l.l_extendedprice "
            "* (1 - l.l_discount) * 100 + 0.5) AS BIGINT) AS cents, "
            "p.p_type = 'PROMO' AS is_p "
            "FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey "
            "WHERE l.l_shipdate >= TIMESTAMP '1996-09-01' "
            "AND l.l_shipdate < TIMESTAMP '1996-10-01') "
            "SELECT CAST(SUM(CASE WHEN is_p THEN cents ELSE 0 END) "
            "AS BIGINT) AS promo_cents, "
            "CAST(SUM(cents) AS BIGINT) AS total_cents, "
            "CAST(SUM(CASE WHEN is_p THEN cents ELSE 0 END) * 1000 "
            "// GREATEST(SUM(cents), 1) AS BIGINT) AS promo_permille "
            "FROM m",
        "dormant_customers_by_nation":
            "SELECT CAST(c.c_nationkey AS BIGINT) AS c_nationkey, "
            "CAST(SUM(CAST(round(c.c_acctbal * 100) AS BIGINT)) AS BIGINT) "
            "AS bal_cents, "
            "COUNT(*) AS n_customers "
            "FROM customer c "
            "WHERE NOT EXISTS (SELECT 1 FROM orders o "
            "WHERE o.o_custkey = c.c_custkey "
            "AND o.o_orderdate >= TIMESTAMP '2000-01-01') "
            "GROUP BY 1",
        "sales_opportunity_q22":
            "WITH c AS (SELECT c_custkey, c_mktsegment, "
            "CAST(round(c_acctbal * 100) AS BIGINT) AS cents "
            "FROM customer), "
            "t AS (SELECT SUM(CASE WHEN cents > 0 THEN cents ELSE 0 END) "
            "AS s, SUM(CASE WHEN cents > 0 THEN 1 ELSE 0 END) AS n FROM c) "
            "SELECT c.c_mktsegment, "
            "CAST(SUM(c.cents) AS BIGINT) AS bal_cents, "
            "COUNT(*) AS n_customers "
            "FROM c, t WHERE c.cents * t.n > t.s "
            "AND NOT EXISTS (SELECT 1 FROM orders o "
            "WHERE o.o_custkey = c.c_custkey "
            "AND o.o_orderdate >= TIMESTAMP '2001-06-01') "
            "GROUP BY 1",
        "discount_revenue_q19":
            "SELECT p_brand, "
            "CAST(SUM(CAST(round(l_extendedprice * 100) AS BIGINT) "
            "* CAST(round((1 - l_discount) * 100) AS BIGINT)) AS BIGINT) "
            "AS revenue_e4 "
            "FROM lineitem, part WHERE l_partkey = p_partkey AND ("
            "(p_brand = 'Brand#1' AND p_size BETWEEN 1 AND 10 "
            "AND l_quantity BETWEEN 1 AND 15) "
            "OR (p_brand = 'Brand#2' AND p_size BETWEEN 5 AND 20 "
            "AND l_quantity BETWEEN 10 AND 30) "
            "OR (p_brand = 'Brand#3' AND p_size BETWEEN 15 AND 50 "
            "AND l_quantity BETWEEN 20 AND 50)) "
            "GROUP BY p_brand ORDER BY p_brand",
        "volume_shipping_q7":
            "SELECT CAST(s_nationkey AS BIGINT) AS supp_nationkey, "
            "CAST(c_nationkey AS BIGINT) AS cust_nationkey, "
            "CAST(year(l_shipdate) AS BIGINT) AS ship_year, "
            "CAST(SUM(CAST(round(l_extendedprice * 100) AS BIGINT) "
            "* CAST(round((1 - l_discount) * 100) AS BIGINT)) AS BIGINT) "
            "AS revenue_e4 "
            "FROM lineitem l "
            "JOIN supplier s ON l.l_suppkey = s.s_suppkey "
            "JOIN orders o ON l.l_orderkey = o.o_orderkey "
            "JOIN customer c ON o.o_custkey = c.c_custkey "
            "WHERE s_nationkey IN (1, 2) AND c_nationkey IN (1, 2) "
            "AND s_nationkey <> c_nationkey "
            "GROUP BY 1, 2, 3 ORDER BY 1, 2, 3",
        "events_props_extract":
            "SELECT event_type, "
            "CAST(SUM(CAST(json_extract_string(props, '$.k') AS BIGINT)) "
            "AS BIGINT) AS sum_k, "
            "CAST(MAX(CAST(json_extract_string(props, '$.k') AS BIGINT)) "
            "AS BIGINT) AS max_k, "
            "COUNT(*) AS n_events FROM events GROUP BY 1",
        "events_cell_transitions": _cell_transitions_sql(),
        "events_cell_dwell": _cell_dwell_sql(),
        "docs_pii_scrub": _pii_sql(),
        "embed_cell_assign": _embed_cell_assign_sql(),
        "embed_semantic_dedup": _semantic_dedup_sql(),
        "cell_neighbor_smooth": _cell_neighbor_smooth_sql(),
        "embed_label_centroid_dist": """
            WITH u AS (
                SELECT CAST(label AS BIGINT) AS label,
                       CAST(generate_subscripts(embedding, 1) - 1 AS BIGINT)
                           AS dim,
                       CAST(FLOOR(CAST(unnest(embedding) AS DOUBLE) * 1000
                                  + 0.5) AS BIGINT) AS v
                FROM embeddings),
            c AS (
                SELECT label, dim,
                       CAST(FLOOR(1000.0 * SUM(v) / COUNT(*)) AS BIGINT)
                           AS cv
                FROM u GROUP BY 1, 2)
            SELECT a.label AS label_a, b.label AS label_b,
                   CAST(SUM((a.cv - b.cv) * (a.cv - b.cv)) AS BIGINT)
                       AS d2_milli
            FROM c a JOIN c b ON a.dim = b.dim AND a.label < b.label
            GROUP BY 1, 2""",
        "events_user_argmax": """
            SELECT CAST(user_id AS BIGINT) AS user_id,
                   CAST(max(pk) // 1099511627776 AS BIGINT) AS max_cents,
                   CAST(1099511627775 - max(pk) % 1099511627776 AS BIGINT)
                       AS event_id
            FROM (SELECT user_id,
                         CAST(round(value * 100) AS BIGINT)
                             * 1099511627776
                             + (1099511627775 - event_id) AS pk
                  FROM events)
            GROUP BY 1""",
        "events_daily_active_users": """
            SELECT CAST(floor(epoch_us(ts) / 86400000000) AS BIGINT)
                       AS day,
                   CAST(COUNT(DISTINCT user_id) AS BIGINT) AS n_users
            FROM events GROUP BY 1""",
        "embed_norm_buckets": """
            SELECT CAST(n2 // 50000 AS BIGINT) AS bucket,
                   CAST(COUNT(*) AS BIGINT) AS n_vectors,
                   CAST(MIN(vec_id) AS BIGINT) AS min_vec_id
            FROM (SELECT vec_id,
                         SUM(CAST(floor(CAST(u AS DOUBLE) * 1000 + 0.5)
                                  AS BIGINT)
                             * CAST(floor(CAST(u AS DOUBLE) * 1000 + 0.5)
                                    AS BIGINT)) AS n2
                  FROM (SELECT vec_id, unnest(embedding) AS u
                        FROM embeddings)
                  GROUP BY vec_id)
            GROUP BY 1""",
        "docs_dedup_survivors":
            "WITH n AS (SELECT doc_id, trim(regexp_replace(lower(text), "
            "'\\s+', ' ', 'g')) AS norm FROM documents), "
            "t AS (SELECT doc_id, norm, "
            "CAST(len(string_split(norm, ' ')) AS BIGINT) AS n_tokens, "
            "COUNT(*) OVER (PARTITION BY norm) AS gs FROM n) "
            "SELECT doc_id, n_tokens, CAST(gs AS BIGINT) AS group_size "
            "FROM t QUALIFY ROW_NUMBER() OVER (PARTITION BY norm "
            "ORDER BY n_tokens DESC, doc_id ASC) = 1",
        "events_user_anomalies":
            "WITH x AS (SELECT user_id, ts, event_id, "
            "CAST(FLOOR(value * 100 + 0.5) AS BIGINT) AS v FROM events), "
            "w AS (SELECT user_id, v, COUNT(*) OVER pre AS n, "
            "SUM(v) OVER pre AS s, SUM(v * v) OVER pre AS ss FROM x "
            "WINDOW pre AS (PARTITION BY user_id ORDER BY ts, event_id "
            "ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)) "
            "SELECT user_id, "
            "CAST(SUM(CASE WHEN n >= 5 THEN 1 ELSE 0 END) AS BIGINT) "
            "AS n_scored, "
            "CAST(SUM(CASE WHEN n >= 5 AND (v * n - s) * (v * n - s) "
            "> 4 * (n * ss - s * s) THEN 1 ELSE 0 END) AS BIGINT) "
            "AS n_anomalies FROM w GROUP BY 1 "
            "HAVING SUM(CASE WHEN n >= 5 THEN 1 ELSE 0 END) > 0",
        "cell_embedding_centroid": _embedding_centroid_sql(),
        "shipping_latency_q12":
            "WITH d AS (SELECT date_diff('day', CAST(o.o_orderdate AS DATE), "
            "CAST(l.l_shipdate AS DATE)) AS days, "
            "o.o_orderpriority IN ('1-URGENT', '2-HIGH') AS hi "
            "FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey) "
            "SELECT CASE WHEN days < 0 THEN 'early' "
            "WHEN days < 30 THEN '0-29d' WHEN days < 90 THEN '30-89d' "
            "ELSE '90d+' END AS latency_bucket, "
            "CAST(SUM(CASE WHEN hi THEN 1 ELSE 0 END) AS BIGINT) "
            "AS high_line_count, "
            "CAST(SUM(CASE WHEN hi THEN 0 ELSE 1 END) AS BIGINT) "
            "AS low_line_count FROM d GROUP BY 1",
        "local_supplier_volume_q5":
            "SELECT CAST(n.n_nationkey AS BIGINT) AS n_nationkey, "
            "n.n_name AS n_name, "
            "CAST(SUM(CAST(round(l.l_extendedprice * 100) AS BIGINT) "
            "* CAST(round((1 - l.l_discount) * 100) AS BIGINT)) AS BIGINT) "
            "AS revenue_e4 "
            "FROM customer c "
            "JOIN orders o ON c.c_custkey = o.o_custkey "
            "JOIN lineitem l ON l.l_orderkey = o.o_orderkey "
            "JOIN supplier s ON l.l_suppkey = s.s_suppkey "
            "AND c.c_nationkey = s.s_nationkey "
            "JOIN nation n ON s.s_nationkey = n.n_nationkey "
            "WHERE n.n_regionkey = 1 AND year(o.o_orderdate) = 1996 "
            "GROUP BY 1, 2",
        "product_profit_q9":
            "SELECT n.n_name AS n_name, "
            "CAST(year(o.o_orderdate) AS BIGINT) AS o_year, "
            "CAST(SUM(CAST(round(l.l_extendedprice * 100) AS BIGINT) "
            "* CAST(round((1 - l.l_discount) * 100) AS BIGINT)) AS BIGINT) "
            "AS profit_e4 "
            "FROM lineitem l "
            "JOIN part p ON l.l_partkey = p.p_partkey "
            "JOIN supplier s ON l.l_suppkey = s.s_suppkey "
            "JOIN orders o ON l.l_orderkey = o.o_orderkey "
            "JOIN nation n ON s.s_nationkey = n.n_nationkey "
            "WHERE p.p_name LIKE '%widget%' "
            "GROUP BY 1, 2",
        "events_geofence_exact": _geofence_exact_sql(),
        "events_region_assign": _region_assign_sql(),
        "returned_item_revenue_q10":
            "WITH rev AS (SELECT o.o_custkey AS ck, "
            "SUM(CAST(round(l_extendedprice * 100) AS BIGINT) "
            "* CAST(round((1 - l_discount) * 100) AS BIGINT)) AS r "
            "FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey "
            "WHERE l_returnflag = 'R' GROUP BY 1) "
            "SELECT CAST(c.c_custkey AS BIGINT) AS c_custkey, "
            "CAST(c.c_nationkey AS BIGINT) AS c_nationkey, "
            "CAST(rev.r AS BIGINT) AS revenue_e4 "
            "FROM rev JOIN customer c ON rev.ck = c.c_custkey "
            "ORDER BY revenue_e4 DESC, c_custkey ASC LIMIT 20",
        "large_quantity_orders_q18":
            "WITH q AS (SELECT l_orderkey, "
            "CAST(SUM(CAST(round(l_quantity) AS BIGINT)) AS BIGINT) AS tq "
            "FROM lineitem GROUP BY 1 "
            "HAVING SUM(CAST(round(l_quantity) AS BIGINT)) > 300) "
            "SELECT CAST(o.o_orderkey AS BIGINT) AS o_orderkey, "
            "CAST(o.o_custkey AS BIGINT) AS c_custkey, "
            "CAST(round(o.o_totalprice * 100) AS BIGINT) AS price_cents, "
            "q.tq AS total_qty "
            "FROM q JOIN orders o ON q.l_orderkey = o.o_orderkey "
            "ORDER BY price_cents DESC, o_orderkey ASC LIMIT 100",
        "customer_order_counts_q13":
            "WITH pc AS (SELECT c.c_custkey, COUNT(o.o_orderkey) AS c_count "
            "FROM customer c LEFT OUTER JOIN orders o "
            "ON c.c_custkey = o.o_custkey GROUP BY 1) "
            "SELECT CAST(c_count AS BIGINT) AS c_count, "
            "COUNT(*) AS custdist FROM pc GROUP BY 1 "
            "ORDER BY custdist DESC, c_count DESC",
        "top_supplier_q15":
            "WITH rev AS (SELECT CAST(l_suppkey AS BIGINT) AS s_suppkey, "
            "CAST(SUM(CAST(round(l_extendedprice * 100) AS BIGINT) "
            "* CAST(round((1 - l_discount) * 100) AS BIGINT)) AS BIGINT) "
            "AS total_revenue_e4 FROM lineitem "
            "WHERE l_shipdate >= TIMESTAMP '1996-01-01' "
            "AND l_shipdate < TIMESTAMP '1996-04-01' GROUP BY 1) "
            "SELECT r.s_suppkey, s.s_name, r.total_revenue_e4 "
            "FROM rev r JOIN supplier s ON r.s_suppkey = s.s_suppkey "
            "WHERE r.total_revenue_e4 = (SELECT MAX(total_revenue_e4) "
            "FROM rev) ORDER BY r.s_suppkey",
        "small_quantity_revenue_q17":
            "WITH bl AS (SELECT l.l_partkey, "
            "CAST(round(l.l_quantity) AS BIGINT) AS q, "
            "CAST(round(l.l_extendedprice * 100) AS BIGINT) AS cents "
            "FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey "
            "WHERE p.p_brand = 'Brand#1'), "
            "agg AS (SELECT l_partkey, SUM(q) AS sq, COUNT(*) AS n "
            "FROM bl GROUP BY 1) "
            "SELECT CAST(COALESCE(SUM(bl.cents), 0) AS BIGINT) "
            "AS total_cents, "
            "CAST(COALESCE(SUM(bl.cents), 0) // 7 AS BIGINT) "
            "AS avg_yearly_cents "
            "FROM bl JOIN agg ON bl.l_partkey = agg.l_partkey "
            "WHERE 5 * bl.q * agg.n < agg.sq",
        "market_share_q8":
            "WITH lo AS (SELECT CAST(year(o.o_orderdate) AS BIGINT) "
            "AS o_year, "
            "CAST(round(l.l_extendedprice * 100) AS BIGINT) "
            "* CAST(round((1 - l.l_discount) * 100) AS BIGINT) AS rev, "
            "s.s_nationkey = 7 AS isn "
            "FROM lineitem l "
            "JOIN orders o ON l.l_orderkey = o.o_orderkey "
            "JOIN part p ON l.l_partkey = p.p_partkey "
            "JOIN supplier s ON l.l_suppkey = s.s_suppkey "
            "JOIN customer c ON o.o_custkey = c.c_custkey "
            "JOIN nation n ON c.c_nationkey = n.n_nationkey "
            "WHERE p.p_type = 'ECONOMY' AND n.n_regionkey = 3) "
            "SELECT o_year, "
            "CAST(SUM(CASE WHEN isn THEN rev ELSE 0 END) AS BIGINT) "
            "AS nation_e4, "
            "CAST(SUM(rev) AS BIGINT) AS total_e4, "
            "CAST(SUM(CASE WHEN isn THEN rev ELSE 0 END) * 1000 "
            "// GREATEST(SUM(rev), 1) AS BIGINT) AS share_permille "
            "FROM lo GROUP BY 1 ORDER BY 1",
        "last_shipper_blame_q21":
            "WITH pairs AS (SELECT l_orderkey o, l_suppkey s, "
            "MAX(CAST(l_shipdate AS DATE)) maxd "
            "FROM lineitem GROUP BY 1, 2), "
            "pero AS (SELECT o, MAX(maxd) lastd, COUNT(*) n_supp "
            "FROM pairs GROUP BY 1), "
            "sole AS (SELECT p.o, MIN(p.s) AS s FROM pairs p "
            "JOIN pero e ON p.o = e.o "
            "WHERE e.n_supp >= 2 AND p.maxd = e.lastd "
            "GROUP BY 1 HAVING COUNT(*) = 1) "
            "SELECT CAST(sole.s AS BIGINT) AS s_suppkey, sup.s_name, "
            "COUNT(*) AS numwait "
            "FROM sole JOIN supplier sup ON sole.s = sup.s_suppkey "
            "GROUP BY 1, 2 "
            "ORDER BY numwait DESC, s_suppkey ASC LIMIT 20",
        "embed_knn_join": _knn_join_sql(),
        "knn_cells_customer": _knn_sql(),
        "docs_lang_id": _lang_id_sql(),
        "docs_stratified_sample": _sample_sql(),
        "docs_corpus_pipeline": _corpus_sql(),
        "docs_repetition":
            "WITH t AS (SELECT doc_id, "
            "list_filter(regexp_split_to_array(text, '\\s+'), x -> x <> '') "
            "AS l FROM documents) "
            "SELECT doc_id, CAST(len(l) AS BIGINT) AS n_tokens, "
            "CAST(len(list_distinct(l)) AS BIGINT) AS n_distinct_tokens, "
            "CAST(greatest(len(l) - 1, 0) AS BIGINT) AS n_bigrams, "
            "CAST(len(list_distinct(list_transform(range(1, len(l)), "
            "i -> l[i] || chr(31) || l[i+1]))) AS BIGINT) "
            "AS n_distinct_bigrams FROM t",
        "docs_ngram_jaccard":
            "WITH l0 AS (SELECT doc_id, "
            "list_filter(regexp_split_to_array(text, '\\s+'), x -> x <> '') "
            "AS l FROM documents), "
            "t AS (SELECT doc_id, list_distinct(list_transform("
            "range(1, len(l)), i -> l[i] || chr(31) || l[i+1])) AS bg "
            "FROM l0) "
            "SELECT a.doc_id AS id_a, b.doc_id AS id_b, "
            "CAST((len(list_intersect(a.bg, b.bg)) * 1000000) // "
            "(len(a.bg) + len(b.bg) - len(list_intersect(a.bg, b.bg))) "
            "AS BIGINT) AS jac_micro "
            "FROM t a JOIN t b ON a.doc_id < b.doc_id "
            "WHERE len(a.bg) > 0 AND len(b.bg) > 0 AND "
            "len(list_intersect(a.bg, b.bg)) * 1000000 >= "
            "500000 * (len(a.bg) + len(b.bg) - len(list_intersect(a.bg, b.bg)))",
        "docs_pack_batches":
            f"WITH t AS (SELECT doc_id, "
            f"CAST(length(regexp_split_to_array(text, '\\s+')) AS BIGINT) AS n "
            f"FROM documents), "
            f"c AS (SELECT doc_id, n, SUM(n) OVER (ORDER BY doc_id "
            f"ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) - n AS excl "
            f"FROM t) "
            f"SELECT CAST(excl // {R.PACK_TOKEN_BUDGET} AS BIGINT) AS batch_id, "
            f"CAST(SUM(n) AS BIGINT) AS sum_tokens, COUNT(*) AS n_docs "
            f"FROM c GROUP BY 1",
        "docs_charset_jaccard":
            "SELECT a.doc_id AS id_a, b.doc_id AS id_b, "
            "CAST(round(jaccard(a.text, b.text) * 1000000) AS BIGINT) AS "
            "jac_micro FROM documents a JOIN documents b ON a.doc_id < b.doc_id "
            "WHERE jaccard(a.text, b.text) >= 0.99",
        "docs_quality":
            "SELECT doc_id, "
            "CAST(length(regexp_split_to_array(text, '\\s+')) AS BIGINT) AS "
            "n_tokens, "
            "CAST(length(text) AS BIGINT) AS n_chars, "
            "CAST(length(text) - length(regexp_replace(text, "
            "'[,.;:!?''\"()\\-]', '', 'g')) AS BIGINT) AS n_punct, "
            "CAST(length(text) - length(regexp_replace(text, '[0-9]', '', 'g')) "
            "AS BIGINT) AS n_digits, "
            "CAST(length(text) - length(regexp_replace(text, '[A-Z]', '', 'g')) "
            "AS BIGINT) AS n_upper, "
            "CAST(coalesce(list_max(list_transform(regexp_split_to_array(text, "
            "'\\s+'), x -> length(x))), 0) AS BIGINT) AS max_token_len "
            "FROM documents",
        "embed_neardup":
            "SELECT a.vec_id AS id_a, b.vec_id AS id_b, "
            "CAST(round(list_cosine_similarity(CAST(a.embedding AS DOUBLE[]), "
            "CAST(b.embedding AS DOUBLE[])) * 1000000) AS BIGINT) AS cos_micro "
            "FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id "
            "WHERE list_cosine_similarity(CAST(a.embedding AS DOUBLE[]), "
            "CAST(b.embedding AS DOUBLE[])) >= 0.5",
        "cell_setops_customer_orders":
            f"WITH ca AS (SELECT DISTINCT {cell_c_join} AS cellid FROM customer), "
            f"ob AS (SELECT DISTINCT {cell_o_join} AS cellid FROM orders) "
            f"SELECT (SELECT COUNT(*) FROM (SELECT cellid FROM ca UNION "
            f"SELECT cellid FROM ob)) AS n_union, "
            f"(SELECT COUNT(*) FROM (SELECT cellid FROM ca INTERSECT "
            f"SELECT cellid FROM ob)) AS n_intersection, "
            f"(SELECT COUNT(*) FROM (SELECT cellid FROM ca EXCEPT "
            f"SELECT cellid FROM ob)) AS n_difference",
        "cell_topk_densest":
            f"SELECT {cell_c_enc} AS cellid, COUNT(*) AS n_points FROM customer "
            f"GROUP BY 1 ORDER BY n_points DESC, cellid ASC LIMIT 20",
        "events_hourly":
            "SELECT event_type, CAST(hour(ts) AS INTEGER) AS hour, "
            "CAST(SUM(CAST(round(value * 100) AS BIGINT)) AS BIGINT) "
            "AS value_cents, "
            "COUNT(*) AS n_events FROM events GROUP BY 1, 2",
        "events_cell_hourly": _cell_hourly_sql(),
        "events_geofence": _geofence_sql(),
        "events_median_value":
            "WITH ranked AS (SELECT event_type, value, "
            "row_number() OVER (PARTITION BY event_type "
            "ORDER BY value, event_id) - 1 AS r, "
            "COUNT(*) OVER (PARTITION BY event_type) AS n FROM events) "
            "SELECT event_type, "
            "CAST(floor(MAX(CASE WHEN r = (n - 1) // 2 THEN value END) "
            "* 1000000 + 0.5) AS BIGINT) AS med_lo_micro, "
            "CAST(floor(MAX(CASE WHEN r = n // 2 THEN value END) "
            "* 1000000 + 0.5) AS BIGINT) AS med_hi_micro, "
            "COUNT(*) AS n_events FROM ranked GROUP BY 1",
        "events_p90_value":
            "WITH ranked AS (SELECT event_type, value, "
            "row_number() OVER (PARTITION BY event_type "
            "ORDER BY value, event_id) - 1 AS r, "
            "COUNT(*) OVER (PARTITION BY event_type) AS n FROM events) "
            "SELECT event_type, "
            "CAST(floor(MAX(CASE WHEN r = ((n - 1) * 9) // 10 "
            "THEN value END) * 1000000 + 0.5) AS BIGINT) AS p90_lo_micro, "
            "CAST(floor(MAX(CASE WHEN r = ((n - 1) * 9 + 9) // 10 "
            "THEN value END) * 1000000 + 0.5) AS BIGINT) AS p90_hi_micro, "
            "COUNT(*) AS n_events FROM ranked GROUP BY 1",
        "events_top_users":
            "WITH uv AS (SELECT event_type, user_id, "
            "CAST(SUM(CAST(round(value * 100) AS BIGINT)) AS BIGINT) AS cents "
            "FROM events GROUP BY 1, 2) "
            "SELECT event_type, user_id, cents FROM uv "
            "QUALIFY row_number() OVER (PARTITION BY event_type "
            "ORDER BY cents DESC, user_id ASC) <= 3",
        "events_sessions":
            "WITH o AS (SELECT user_id, ts, lag(ts) OVER "
            "(PARTITION BY user_id ORDER BY ts) AS prev FROM events) "
            "SELECT user_id, COUNT(*) AS n_events, "
            "CAST(SUM(CASE WHEN prev IS NULL OR "
            "epoch_us(ts) - epoch_us(prev) > 1800000000 THEN 1 ELSE 0 END) "
            "AS BIGINT) AS n_sessions FROM o GROUP BY 1",
        "events_moving_window":
            "WITH hourly AS (SELECT event_type, "
            "date_trunc('hour', ts) AS hour_ts, "
            "CAST(SUM(CAST(round(value * 100) AS BIGINT)) AS BIGINT) "
            "AS cents, COUNT(*) AS n FROM events GROUP BY 1, 2) "
            "SELECT event_type, hour_ts, "
            "CAST(SUM(cents) OVER w AS BIGINT) AS win_cents, "
            "CAST(SUM(n) OVER w AS BIGINT) AS win_events FROM hourly "
            "WINDOW w AS (PARTITION BY event_type ORDER BY hour_ts "
            "ROWS BETWEEN 2 PRECEDING AND CURRENT ROW)",
        "events_asof_click_error":
            "WITH r AS (SELECT * FROM events WHERE event_type = 'error'), "
            "l AS (SELECT * FROM events WHERE event_type = 'click') "
            "SELECT l.event_id, l.user_id, epoch_us(l.ts) AS ts_us, "
            "COALESCE(rr.event_id, -1) AS match_event_id, "
            "COALESCE(rr.mts, -1) AS match_ts_us "
            "FROM l LEFT JOIN LATERAL ("
            "SELECT r.event_id, epoch_us(r.ts) AS mts FROM r "
            "WHERE r.user_id = l.user_id AND r.ts <= l.ts "
            "ORDER BY r.ts DESC, r.event_id DESC LIMIT 1) rr ON true",
        "orders_lineitem_revenue":
            "WITH rev AS (SELECT l_orderkey, "
            "CAST(SUM(CAST(round(l_extendedprice * 100) AS BIGINT) * "
            "CAST(round((1 - l_discount) * 100) AS BIGINT)) AS BIGINT) "
            "AS revenue_e4 "
            "FROM lineitem GROUP BY 1) "
            "SELECT r.l_orderkey, o.o_orderpriority, r.revenue_e4 "
            "FROM rev r JOIN orders o ON r.l_orderkey = o.o_orderkey "
            "ORDER BY revenue_e4 DESC, l_orderkey ASC LIMIT 50",
        # rows-only by design (non-SQL-expressible or engine-synthesized input):
        # docs_simhash_clusters (byte-level hash contracts),
        # docs_fingerprint_overlap (winnowing rolling-hash contract),
        # embed_lsh_top20 / embed_ivf_top10 / embed_ivf_multiquery (recall
        # genuinely partial: measured 15/20 resp. <10/10 at sf0.01),
        # embed_quantized_top10 (int8 cosines differ in low micro digits),
        # auid_customer_region (zlib+b64+blake2b), flagship_cell_join,
        # images_features / images_verify_invariant / images_jpeg_psnr /
        # images_phash_dedup / images_neardup_components /
        # images_corpus_pipeline / images_augment /
        # images_caption_filter / audio_features / video_frames /
        # video_scene_cuts (engine-synthesized multimodal tables),
        # events_distinct_users_hll / events_value_quantiles_sketch
        # (deterministic sketch estimates, not SQL-reproducible),
        # embed_kmeans_clusters / docs_bpe_merges (iterative algorithms)
    }

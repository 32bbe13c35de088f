"""SemDeDup-style semantic dedup (ops.dedup.semantic_dedup): exact
integer cosine-threshold contract, within-cluster-only pruning,
earlier-id-wins semantics, and the float64-boundary bigint re-check."""
import numpy as np
import pyarrow as pa

SF = "/root/testdata/sf0.001"


def _ds(rows):
    import ray.data as rd
    ids = [r[0] for r in rows]
    labs = [r[1] for r in rows]
    vecs = [r[2] for r in rows]
    return rd.from_arrow(pa.table({
        "vec_id": pa.array(ids, pa.int64()),
        "label": pa.array(labs, pa.int32()),
        "embedding": pa.array(vecs, pa.list_(pa.float32()))}))


def _run(rows, tau):
    from dggsray.ops.dedup import semantic_dedup
    out = semantic_dedup(_ds(rows), tau_permille=tau).to_pandas()
    return out.set_index("vec_id").sort_index()


class TestSemanticDedupSemantics:
    def test_identical_pair_later_id_flagged(self, ray_session):
        out = _run([(1, 0, [0.5, 0.5]), (2, 0, [0.5, 0.5]),
                    (3, 0, [0.5, -0.5])], tau=950)
        assert out.loc[1].is_dup == 0          # earliest kept
        assert out.loc[2].is_dup == 1          # exact duplicate of 1
        assert out.loc[3].is_dup == 0          # orthogonal
        assert (out.n_cluster == 3).all()

    def test_cross_cluster_pair_not_flagged(self, ray_session):
        # identical vectors in DIFFERENT clusters are never compared
        out = _run([(1, 0, [0.5, 0.5]), (2, 1, [0.5, 0.5])], tau=950)
        assert out.is_dup.sum() == 0
        assert (out.n_cluster == 1).all()

    def test_exact_boundary_decided_by_integer_math(self, ray_session):
        # milli-quantized (1,0) vs (3,4): cos = 3/5 exactly, so
        # 10^6*dot^2 == tau^2*na*nb at tau=600 — the float64 border band
        # must hand this pair to the bigint re-check, which accepts >=
        rows = [(1, 0, [0.001, 0.0]), (2, 0, [0.003, 0.004])]
        assert _run(rows, tau=600).loc[2].is_dup == 1     # cos == tau
        assert _run(rows, tau=601).loc[2].is_dup == 0     # cos <  tau

    def test_zero_vector_never_duplicate(self, ray_session):
        out = _run([(1, 0, [0.0, 0.0]), (2, 0, [0.0, 0.0]),
                    (3, 0, [0.5, 0.5])], tau=100)
        assert out.is_dup.sum() == 0           # dot > 0 required


class TestSemanticDedupVsBruteForce:
    def test_matches_numpy_brute_force_sf0001(self, ray_session):
        import pyarrow.parquet as pq

        from dggsray.pipelines.relational import embed_semantic_dedup
        tau = 350
        out = embed_semantic_dedup(SF, tau_permille=tau).to_pandas() \
            .set_index("vec_id").sort_index()
        t = pq.read_table(f"{SF}/embeddings.parquet")
        ids = t.column("vec_id").to_numpy()
        lab = t.column("label").to_numpy()
        emb = np.stack(t.column("embedding").to_numpy(
            zero_copy_only=False))
        order = np.argsort(ids, kind="stable")
        ids, lab, emb = ids[order], lab[order], emb[order]
        W = np.floor(emb.astype(np.float64) * 1000 + 0.5).astype(object)
        exp = {}
        for i in range(ids.size):
            d = False
            for j in range(ids.size):
                if ids[j] >= ids[i] or lab[j] != lab[i]:
                    continue
                dot = int((W[i] * W[j]).sum())
                na = int((W[i] * W[i]).sum())
                nb = int((W[j] * W[j]).sum())
                if dot > 0 and 10**6 * dot * dot >= tau * tau * na * nb:
                    d = True
                    break
            exp[int(ids[i])] = int(d)
        assert out.is_dup.to_dict() == exp
        assert out.is_dup.sum() > 0            # non-trivial at this tau
        counts = out.groupby("label").size()
        assert (out.n_cluster ==
                out.label.map(counts)).all()


class TestSemanticDupFlagsProperty:
    """The float64-fast-path + bigint-border kernel must equal a pure
    arbitrary-precision brute force on ANY integer matrix, including
    adversarial near-threshold geometry."""

    def _brute(self, W, tau):
        k = W.shape[0]
        Wo = W.astype(object)
        out = np.zeros(k, dtype=bool)
        for j in range(k):
            for i in range(j):
                d = int((Wo[i] * Wo[j]).sum())
                na = int((Wo[i] * Wo[i]).sum())
                nb = int((Wo[j] * Wo[j]).sum())
                if d > 0 and 10**6 * d * d >= tau * tau * na * nb:
                    out[j] = True
                    break
        return out

    def test_hypothesis_random_matrices(self):
        from hypothesis import given, settings, strategies as st

        from dggsray.ops.dedup import semantic_dup_flags

        @settings(max_examples=150, deadline=None)
        @given(st.lists(st.lists(st.integers(-1000, 1000),
                                 min_size=4, max_size=4),
                        min_size=2, max_size=8),
               st.integers(min_value=1, max_value=999))
        def check(rows, tau):
            W = np.array(rows, dtype=np.int64)
            got = semantic_dup_flags(W, tau)
            exp = self._brute(W, tau)
            assert np.array_equal(got, exp)

        check()

    def test_exact_threshold_grid(self):
        # pythagorean construction: cos((a,0),(p,q)) = p/hypot; scan
        # integer triples whose cosine is EXACTLY expressible in permille
        from dggsray.ops.dedup import semantic_dup_flags
        W = np.array([[5, 0], [3, 4], [4, 3], [-3, 4]], dtype=np.int64)
        # cos(row0, row1) = 3/5 = 0.600; row2 = 4/5 = 0.800; row3 = -3/5
        got600 = semantic_dup_flags(W, 600)
        assert got600.tolist() == [False, True, True, False]
        got601 = semantic_dup_flags(W, 601)
        assert got601.tolist() == [False, False, True, False]
        got800 = semantic_dup_flags(W, 800)
        assert got800.tolist() == [False, False, True, False]
        # at 801 row2 no longer clears vs row0 (0.800 < 0.801) but still
        # dups via row1 (cos(r1,r2) = 24/25 = 0.96): "earlier ANY" rule
        got801 = semantic_dup_flags(W, 801)
        assert got801.tolist() == [False, False, True, False]
        got961 = semantic_dup_flags(W, 961)
        assert got961.tolist() == [False, False, False, False]


class TestBlockedKernel:
    """semantic_dup_flags is blocked (column strips); flags must be
    bit-identical across strip widths, including widths that split the
    matrix mid-border-band."""

    def test_block_width_invariance(self):
        from dggsray.ops.dedup import semantic_dup_flags
        rng = np.random.default_rng(7)
        W = rng.integers(-500, 500, size=(300, 8)).astype(np.int64)
        # plant exact duplicates and near-threshold pairs across strips
        W[137] = W[3]
        W[251] = W[64]
        W[299] = [5, 0, 0, 0, 0, 0, 0, 0]
        W[298] = [3, 4, 0, 0, 0, 0, 0, 0]      # cos = 3/5 vs row299
        ref = semantic_dup_flags(W, 600, block=10**9)   # one strip
        for b in (1, 7, 64, 100, 299):
            assert np.array_equal(semantic_dup_flags(W, 600, block=b), ref)
        assert ref[137] and ref[251]

    def test_blocked_matches_brute(self):
        from dggsray.ops.dedup import semantic_dup_flags
        rng = np.random.default_rng(11)
        W = rng.integers(-50, 50, size=(60, 4)).astype(np.int64)
        got = semantic_dup_flags(W, 700, block=13)
        exp = TestSemanticDupFlagsProperty()._brute(W, 700)
        assert np.array_equal(got, exp)


class TestClusterSizeCap:
    """Skew guard: one giant cluster is split in-task by k-means and the
    kernel reruns per sub-cluster (SemDeDup's own mitigation).  With
    well-separated sub-populations no near-dup pair crosses a split, so
    the capped flags equal the uncapped kernel exactly."""

    def _separated_cluster(self, n=3000, seed=3):
        # 12 orthogonal blobs (~250 rows each, under the cap) in 16-d, every member IDENTICAL to its blob
        # center: identical rows share one distance row, so k-means can
        # never split a blob across cells regardless of where centroids
        # land — the capped path is guaranteed sub-cluster-blind-exact
        rng = np.random.default_rng(seed)
        centers = np.eye(12, 16) * 100.0
        lab = rng.integers(0, 12, n)
        return centers[lab].astype(np.float32)

    def test_capped_equals_uncapped_on_separated_data(self):
        from dggsray.ops.dedup import (semantic_dup_flags,
                                       semantic_dup_flags_capped)
        emb = self._separated_cluster()
        ids = np.arange(emb.shape[0], dtype=np.int64)
        W = np.floor(emb.astype(np.float64) * 1000 + 0.5).astype(np.int64)
        exp = semantic_dup_flags(W, 900)
        got = semantic_dup_flags_capped(ids, W, 900, max_cluster_rows=400)
        assert np.array_equal(got, exp)
        assert exp.sum() > 0                   # non-trivial

    def test_end_to_end_giant_cluster(self, ray_session):
        # every row in ONE top-level cluster, cap far below its size:
        # the operator output must equal the uncapped run
        from dggsray.ops.dedup import semantic_dedup
        emb = self._separated_cluster(n=1200, seed=5)
        rows = [(i, 0, emb[i].tolist()) for i in range(emb.shape[0])]
        capped = semantic_dedup(_ds(rows), tau_permille=900,
                                max_cluster_rows=150).to_pandas() \
            .set_index("vec_id").sort_index()
        uncapped = semantic_dedup(_ds(rows), tau_permille=900,
                                  max_cluster_rows=10**9).to_pandas() \
            .set_index("vec_id").sort_index()
        assert capped.is_dup.tolist() == uncapped.is_dup.tolist()
        assert (capped.n_cluster == 1200).all()   # reports TOP-LEVEL size
        assert capped.is_dup.sum() > 0

    def test_distributed_tier_equals_uncapped(self, ray_session,
                                              monkeypatch):
        """Inputs of 16 MB and more first count rows per cluster and split
        the hot clusters across tasks: same flags as the uncapped run."""
        import ray.data as rd

        from dggsray.ops.dedup import semantic_dedup
        emb = self._separated_cluster(n=1200, seed=5)
        rows = [(i, i % 2, emb[i].tolist()) for i in range(emb.shape[0])]
        uncapped = semantic_dedup(_ds(rows), tau_permille=900,
                                  max_cluster_rows=10**9).to_pandas() \
            .set_index("vec_id").sort_index()
        monkeypatch.setattr(rd.Dataset, "size_bytes",
                            lambda self: 1 << 30)
        split = semantic_dedup(_ds(rows), tau_permille=900,
                               max_cluster_rows=100).to_pandas() \
            .set_index("vec_id").sort_index()
        assert split.is_dup.tolist() == uncapped.is_dup.tolist()
        assert (split.n_cluster == 600).all()
        assert split.is_dup.sum() > 0

    def test_degenerate_identical_vectors_terminate(self):
        # all-identical vectors defeat k-means (one cell) — the id-order
        # chunk fallback must terminate and keep exactly one survivor
        # per chunk (sub-cluster-blind contract)
        from dggsray.ops.dedup import semantic_dup_flags_capped
        n, cap = 1000, 128
        ids = np.arange(n, dtype=np.int64)
        W = np.tile(np.array([3, 4, 0, 0], np.int64), (n, 1))
        got = semantic_dup_flags_capped(ids, W, 900, max_cluster_rows=cap)
        n_chunks = -(-n // cap)
        assert (~got).sum() == n_chunks
        assert not got[0]

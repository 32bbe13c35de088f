"""Stable hash bucketing (`ops/joins._split_by_key`), zip_with_index and
sketch merge properties."""
import numpy as np
import pyarrow as pa


class TestZipWithIndex:
    def test_positions_follow_sorted_order(self, ray_session):
        import ray.data as rd
        from dggsray.ops.indexing import deterministic_shuffle, zip_with_index
        t = pa.table({"doc_id": pa.array(np.arange(1000, dtype=np.int64))})
        out = deterministic_shuffle(rd.from_arrow(t).repartition(7),
                                    "doc_id").to_pandas()
        assert sorted(out.position) == list(range(1000))
        # position order == Knuth-hash order
        k = (out.doc_id.to_numpy().astype(np.uint64) * np.uint64(2654435761)) \
            % np.uint64(1 << 32)
        by_pos = out.sort_values("position")
        kk = (by_pos.doc_id.to_numpy().astype(np.uint64)
              * np.uint64(2654435761)) % np.uint64(1 << 32)
        assert (np.diff(kk.astype(np.int64)) >= 0).all()
        # reproducible across runs
        out2 = deterministic_shuffle(rd.from_arrow(t).repartition(3),
                                     "doc_id").to_pandas()
        a = out.sort_values("doc_id").position.to_numpy()
        b = out2.sort_values("doc_id").position.to_numpy()
        assert (a == b).all()

    def test_zip_with_index_block_order(self, ray_session):
        import ray.data as rd
        from dggsray.ops.indexing import zip_with_index
        t = pa.table({"v": pa.array(np.arange(200, dtype=np.int64))})
        out = zip_with_index(rd.from_arrow(t).repartition(5).sort("v")) \
            .to_pandas().sort_values("position")
        assert (out.v.to_numpy() == np.arange(200)).all()

    def test_fallback_without_private_api(self, ray_session, monkeypatch):
        """iter_internal_ref_bundles is a Ray developer API: with it gone
        (future Ray), the stable-API fallback must give identical output."""
        import ray.data as rd
        from dggsray.ops.indexing import zip_with_index
        monkeypatch.delattr(rd.Dataset, "iter_internal_ref_bundles")
        t = pa.table({"v": pa.array(np.arange(200, dtype=np.int64))})
        out = zip_with_index(rd.from_arrow(t).repartition(5).sort("v")) \
            .to_pandas().sort_values("position")
        assert (out.v.to_numpy() == np.arange(200)).all()


class TestBucketProperties:
    def test_bucket_hash_stable_and_spread(self):
        """sized_groupby's key split: the same key always lands in the same
        one of the n parts, and every row lands in exactly one."""
        from hypothesis import given, settings, strategies as st
        from dggsray.ops.joins import _split_by_key

        @settings(max_examples=60, deadline=None)
        @given(st.lists(st.integers(-2**62, 2**62), min_size=1,
                        max_size=300),
               st.sampled_from([2, 4, 8, 32]))
        def run(ids, n):
            t = pa.table({"k": pa.array(np.array(ids, dtype=np.int64))})
            p1 = _split_by_key(t, "k", n)
            p2 = _split_by_key(t, "k", n)
            assert len(p1) == n
            assert all(a.equals(b) for a, b in zip(p1, p2))
            owner = {}
            for i, part in enumerate(p1):
                for k in part.column("k").to_pylist():
                    assert owner.setdefault(k, i) == i
            assert sum(part.num_rows for part in p1) == len(ids)

        run()

    def test_bucket_uniformity_large_sample(self):
        from dggsray.ops.joins import _stable_hash
        for ids in (pa.array(np.arange(80_000, dtype=np.int64)),
                    pa.array([f"u{i}" for i in range(80_000)])):
            b = (_stable_hash(ids) % np.uint64(16)).astype(np.int64)
            counts = np.bincount(b, minlength=16)
            # every bucket within 10% of the mean
            assert (abs(counts - 5000) < 500).all(), counts

    def test_qsketch_weight_conserved_under_merge(self):
        from hypothesis import given, settings, strategies as st
        from dggsray.ops.sketch import qsketch_batch, qsketch_merge

        @settings(max_examples=60, deadline=None)
        @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=400),
               st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=400))
        def run(a, b):
            sa = qsketch_batch(np.array(a), k=64)
            sb = qsketch_batch(np.array(b), k=64)
            m = qsketch_merge(sa, sb, k=64)
            assert abs(m[1].sum() - (len(a) + len(b))) < 1e-6
            # points stay sorted
            assert (np.diff(m[0]) >= 0).all()

        run()

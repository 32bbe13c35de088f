"""Dedup / text / similarity / multimodal operator tests with synthetic ground
truth (known near-dup pairs, known languages, known nearest neighbours)."""
import numpy as np
import pyarrow as pa
import pytest


def _docs_with_near_dups():
    base = ("the quick brown fox jumps over the lazy dog while the cat watches "
            "from the warm windowsill and the rain keeps falling on the roof")
    rng = np.random.default_rng(4)
    docs = []
    for i in range(30):
        words = [f"w{rng.integers(0, 500)}" for _ in range(40)]
        docs.append(" ".join(words))
    docs.append(base)                                   # 30
    docs.append(base.replace("lazy", "sleepy"))         # 31: near-dup of 30
    docs.append(base + " extra tail words here")        # 32: near-dup of 30
    docs.append(base)                                   # 33: exact dup of 30
    return docs


class TestMinhash:
    def test_minhash_lsh_finds_planted_dups(self, ray_session):
        import ray.data as rd
        from dggsray.ops.dedup import minhash_dedup
        docs = _docs_with_near_dups()
        ds = rd.from_arrow(pa.table({"doc_id": pa.array(range(len(docs)), pa.int64()),
                                     "text": pa.array(docs, pa.string())}))
        pairs = minhash_dedup(ds, threshold=0.6).to_pandas()
        got = set(map(tuple, pairs[["id_a", "id_b"]].values.tolist()))
        assert (30, 33) in got          # exact dup
        assert (30, 31) in got and (30, 32) in got
        # no random-doc false positives at this threshold
        assert all(a >= 30 and b >= 30 for a, b in got)

    def test_signature_stability(self, ray_session):
        from dggsray.ops.dedup import minhash_batch
        s1 = minhash_batch([b"hello world hello world"], 64)
        s2 = minhash_batch([b"hello world hello world"], 64)
        assert (s1 == s2).all()
        # identical docs -> identical signatures; different docs differ
        s3 = minhash_batch([b"completely different content"], 64)
        assert (s1 != s3).any()


class TestSimhash:
    def test_simhash_near_pairs(self, ray_session):
        import ray.data as rd
        from dggsray.ops.dedup import simhash_near_pairs, simhash_batch
        docs = _docs_with_near_dups()
        ds = rd.from_arrow(pa.table({"doc_id": pa.array(range(len(docs)), pa.int64()),
                                     "text": pa.array(docs, pa.string())}))
        # exact dup must be at hamming 0
        h30 = simhash_batch([docs[30].encode()])[0]
        h33 = simhash_batch([docs[33].encode()])[0]
        assert h30 == h33
        pairs = simhash_near_pairs(ds, max_hamming=6).to_pandas()
        got = set(map(tuple, pairs[["id_a", "id_b"]].values.tolist()))
        assert (30, 33) in got


class TestCharsetJaccard:
    def test_matches_duckdb_jaccard(self, ray_session):
        """Pin the definition to DuckDB's jaccard() — used as an oracle."""
        import duckdb
        import ray.data as rd
        from dggsray.ops.dedup import charset_jaccard_pairs
        texts = ["abcdef", "abcdeg", "xyz", "abc xyz", "aabbcc"]
        ds = rd.from_arrow(pa.table({"doc_id": pa.array(range(5), pa.int64()),
                                     "text": pa.array(texts, pa.string())}))
        ours = charset_jaccard_pairs(ds, threshold=0.0).to_pandas() \
            .sort_values(["id_a", "id_b"]).reset_index(drop=True)
        con = duckdb.connect()
        con.register("d", __import__("pandas").DataFrame(
            {"doc_id": range(5), "text": texts}))
        theirs = con.sql(
            "SELECT a.doc_id id_a, b.doc_id id_b, "
            "CAST(round(jaccard(a.text, b.text)*1000000) AS BIGINT) jac_micro "
            "FROM d a JOIN d b ON a.doc_id < b.doc_id "
            "ORDER BY id_a, id_b").df()
        assert ours[["id_a", "id_b", "jac_micro"]].values.tolist() == \
            theirs.values.tolist()

    def test_over_cap_banding_agrees(self, ray_session):
        """n > max_broadcast_docs forces the partition-pair banding path; it
        must produce exactly the broadcast path's pairs (no dup, no miss)."""
        import ray.data as rd
        from dggsray.ops.dedup import charset_jaccard_pairs
        rng = np.random.default_rng(3)
        alpha = "abcdefghijklmnopqrstuvwxyz"
        texts = ["".join(rng.choice(list(alpha), rng.integers(3, 12)))
                 for _ in range(80)]
        ds = rd.from_arrow(pa.table({
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string())}))
        cols = ["id_a", "id_b", "jac_micro"]
        ref = charset_jaccard_pairs(ds, threshold=0.5).to_pandas() \
            .sort_values(cols).reset_index(drop=True)
        banded = charset_jaccard_pairs(ds, threshold=0.5,
                                       max_broadcast_docs=16).to_pandas() \
            .sort_values(cols).reset_index(drop=True)
        assert len(ref) > 0
        assert ref[cols].values.tolist() == banded[cols].values.tolist()


class TestEmbeddingDedup:
    def test_planted_neighbor(self, ray_session):
        import ray.data as rd
        from dggsray.ops.dedup import embedding_neardup_pairs
        rng = np.random.default_rng(9)
        M = rng.standard_normal((100, 16))
        M[50] = M[10] + rng.standard_normal(16) * 0.01   # near-dup of 10
        ds = rd.from_arrow(pa.table({
            "vec_id": pa.array(range(100), pa.int64()),
            "embedding": pa.array([list(r) for r in M],
                                  pa.list_(pa.float32()))}))
        pairs = embedding_neardup_pairs(ds, threshold=0.99).to_pandas()
        assert (10, 50) in set(map(tuple, pairs[["id_a", "id_b"]].values.tolist()))

    def test_lsh_variant_recall_vs_exact(self, ray_session):
        import ray.data as rd
        from dggsray.ops.dedup import (embedding_neardup_lsh,
                                       embedding_neardup_pairs)
        rng = np.random.default_rng(11)
        M = rng.standard_normal((200, 16))
        for src, dst in [(10, 50), (20, 60), (30, 70)]:
            M[dst] = M[src] + rng.standard_normal(16) * 0.02
        ds = rd.from_arrow(pa.table({
            "vec_id": pa.array(range(200), pa.int64()),
            "embedding": pa.array([list(r) for r in M],
                                  pa.list_(pa.float32()))}))
        exact = embedding_neardup_pairs(ds, threshold=0.95).to_pandas()
        approx = embedding_neardup_lsh(ds, threshold=0.95, n_bits=8,
                                       n_tables=12).to_pandas()
        exact_pairs = set(map(tuple, exact[["id_a", "id_b"]].values.tolist()))
        approx_pairs = set(map(tuple, approx[["id_a", "id_b"]].values.tolist()))
        # high-threshold pairs (near-identical vectors) must all be recalled,
        # and LSH never invents pairs (every emitted pair is exactly verified)
        assert exact_pairs <= approx_pairs or \
            len(exact_pairs & approx_pairs) / max(len(exact_pairs), 1) >= 0.9
        assert approx_pairs <= exact_pairs
        assert not approx["truncated"].any()


class TestSimilarity:
    def test_lsh_topk_vs_brute(self, ray_session):
        import ray.data as rd
        from dggsray.ops.similarity import brute_topk, lsh_topk
        rng = np.random.default_rng(1)
        M = rng.standard_normal((500, 32))
        q = M[123] + rng.standard_normal(32) * 0.05
        ds = rd.from_arrow(pa.table({
            "vec_id": pa.array(range(500), pa.int64()),
            "embedding": pa.array([list(r) for r in M], pa.list_(pa.float32()))}))
        brute = brute_topk(ds, q[None, :], 5).to_pandas() \
            .sort_values("cos_micro", ascending=False)
        assert brute.iloc[0].vec_id == 123
        ann = lsh_topk(ds, q, 5).to_pandas().sort_values("cos_micro",
                                                         ascending=False)
        # the planted nearest neighbour must survive the LSH filter
        assert ann.iloc[0].vec_id == 123


class TestTextOps:
    def test_language_id(self, ray_session):
        from dggsray.ops.text import detect_language
        assert detect_language("the cat is on the table and it is warm")[0] == "en"
        assert detect_language("el gato está en la mesa y es de madera")[0] == "es"
        assert detect_language("der Hund ist in dem Haus und die Katze auch")[0] == "de"
        assert detect_language("le chien est dans la maison et les chats")[0] == "fr"
        assert detect_language("")[0] == "und"
        assert detect_language("zzz qqq www")[0] == "und"

    def test_quality_metrics(self, ray_session):
        import ray.data as rd
        from dggsray.ops.text import with_quality, quality_score_batch
        ds = rd.from_arrow(pa.table({
            "doc_id": pa.array([1, 2], pa.int64()),
            "text": pa.array(["Hello, World! 123", "plain text here"],
                             pa.string())}))
        out = with_quality(ds).map_batches(quality_score_batch,
                                           batch_format="pyarrow").to_pandas()
        r = out[out.doc_id == 1].iloc[0]
        assert r.n_tokens == 3 and r.n_punct == 2 and r.n_digits == 3
        assert r.n_upper == 2
        assert 0 <= r.quality_score <= 1

    def test_winnowing_fingerprint(self, ray_session):
        from dggsray.ops.text import winnowing_fingerprint
        a = winnowing_fingerprint(b"the quick brown fox jumps over the lazy dog")
        b = winnowing_fingerprint(b"the quick brown fox jumps over the lazy cat")
        c = winnowing_fingerprint(b"completely unrelated content entirely")
        overlap_ab = np.intersect1d(a, b).size / max(min(a.size, b.size), 1)
        overlap_ac = np.intersect1d(a, c).size / max(min(a.size, c.size), 1)
        assert overlap_ab > 0.5 > overlap_ac


    def test_fingerprint_overlap_pairs(self, ray_session):
        import itertools
        import ray.data as rd
        from dggsray.ops.text import (fingerprint_overlap_pairs,
                                      winnowing_fingerprint)
        rng = np.random.default_rng(11)
        words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta",
                 "theta", "kappa", "lambda", "sigma"]
        texts = [" ".join(rng.choice(words, 30)) for _ in range(20)]
        texts.append(texts[3])                      # exact duplicate of doc 3
        texts.append(texts[7][:-8] + " changed")    # near duplicate of doc 7
        ids = list(range(len(texts)))
        ds = rd.from_arrow(pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "text": pa.array(texts, pa.string())}))
        got = fingerprint_overlap_pairs(ds, top_k=50, df_cap=1000) \
            .to_pandas().sort_values(["shared", "id_a", "id_b"],
                                     ascending=[False, True, True]) \
            .reset_index(drop=True)
        # brute-force oracle: pairwise fingerprint-set intersections
        fps = [winnowing_fingerprint(t.encode()) for t in texts]
        exp = sorted(((int(np.intersect1d(fps[a], fps[b]).size), a, b)
                      for a, b in itertools.combinations(ids, 2)
                      if np.intersect1d(fps[a], fps[b]).size > 0),
                     key=lambda r: (-r[0], r[1], r[2]))[:50]
        assert [tuple(r) for r in got[["shared", "id_a", "id_b"]]
                .itertuples(index=False)] == exp
        # both planted duplicate pairs surface in the top pairs
        pairs = set(zip(got.id_a, got.id_b))
        assert (3, 20) in pairs and (7, 21) in pairs

    def test_fingerprint_overlap_df_cap_drops_ubiquitous(self, ray_session):
        import ray.data as rd
        from dggsray.ops.text import fingerprint_overlap_pairs
        # every doc identical -> every fingerprint has df = n_docs > df_cap
        ds = rd.from_arrow(pa.table({
            "doc_id": pa.array(list(range(10)), pa.int64()),
            "text": pa.array(["shared common body of text"] * 10,
                             pa.string())}))
        got = fingerprint_overlap_pairs(ds, top_k=10, df_cap=4).to_pandas()
        assert len(got) == 0


class TestMultimodal:
    def test_resize_and_features(self, ray_session):
        import ray.data as rd
        from dggsray.io.imagetable import synth_batch
        from dggsray.ops.multimodal import image_features
        batch = synth_batch(pa.table({"id": pa.array(np.arange(8), pa.int64())}))
        ds = rd.from_arrow(batch)
        feats = image_features(ds).to_pandas()
        assert len(feats) == 8
        # phash recomputed from bytes matches the stored table phash
        stored = dict(zip(batch.column("image_id").to_pylist(),
                          batch.column("phash").to_pylist()))
        assert all(stored[r.image_id] == r.phash for r in feats.itertuples())

    def test_audio_video_stubs(self, ray_session):
        import ray.data as rd
        from dggsray.ops.multimodal import AudioFeatures, VideoFrameSample
        pcm = (np.sin(np.arange(2048) * 0.1) * 20000).astype("<i2").tobytes()
        t = pa.table({"audio_id": pa.array(["a1"], pa.string()),
                      "bytes": pa.array([pcm], pa.binary()),
                      "fmt": pa.array(["pcm16"], pa.string())})
        out = AudioFeatures()(t)
        assert out.column("n_samples")[0].as_py() == 2048
        assert 0.4 < out.column("rms")[0].as_py() < 0.7
        # wav is now a REAL decoder (stdlib wave); compressed codecs stay
        # NotImplementedError stubs
        bad = pa.table({"audio_id": pa.array(["a2"], pa.string()),
                        "bytes": pa.array([b"ID3...."], pa.binary()),
                        "fmt": pa.array(["mp3"], pa.string())})
        with pytest.raises(NotImplementedError):
            AudioFeatures()(bad)
        frames = np.zeros((25, 4, 4, 3), dtype=np.uint8)
        vt = pa.table({"video_id": pa.array(["v1"], pa.string()),
                       "bytes": pa.array([frames.tobytes()], pa.binary()),
                       "w": pa.array([4], pa.int32()),
                       "h": pa.array([4], pa.int32()),
                       "fmt": pa.array(["rawv"], pa.string())})
        out = VideoFrameSample(every_n=10)(vt)
        assert out.column("frame_idx").to_pylist() == [0, 10, 20]


class TestIVF:
    def test_ivf_topk_vs_brute(self, ray_session):
        import ray.data as rd
        from dggsray.ops.similarity import (brute_topk, ivf_assign, ivf_topk,
                                            kmeans_centroids)
        rng = np.random.default_rng(11)
        emb = rng.standard_normal((800, 16))
        q = emb[123] + rng.standard_normal(16) * 0.01
        ds = rd.from_arrow(pa.table({
            "vec_id": pa.array(np.arange(800), pa.int64()),
            "embedding": pa.array(list(emb), pa.list_(pa.float64()))}))
        C = kmeans_centroids(emb[:400], 16)
        exact = brute_topk(ds, q[None, :], 5).to_pandas() \
            .sort_values("cos_micro", ascending=False)
        ann = ivf_topk(ds, q, 5, C, nprobe=6).to_pandas() \
            .sort_values("cos_micro", ascending=False)
        # the near-duplicate of the query must be found, and recall >= 3/5
        assert ann.iloc[0]["vec_id"] == exact.iloc[0]["vec_id"] == 123
        assert len(set(ann["vec_id"]) & set(exact["vec_id"])) >= 3

    def test_ivf_assign_partitions_cover_corpus(self, ray_session):
        import ray.data as rd
        from dggsray.ops.similarity import ivf_assign, kmeans_centroids
        rng = np.random.default_rng(12)
        emb = rng.standard_normal((300, 8))
        ds = rd.from_arrow(pa.table({
            "vec_id": pa.array(np.arange(300), pa.int64()),
            "embedding": pa.array(list(emb), pa.list_(pa.float64()))}))
        C = kmeans_centroids(emb, 8)
        out = ivf_assign(ds, C).to_pandas()
        assert len(out) == 300
        assert out["list_id"].between(0, 7).all()
        assert out["list_id"].nunique() >= 4    # lists actually used


class TestWav:
    def test_wav_features_through_actor_pool(self, ray_session):
        """REAL RIFF/WAVE PCM decode (stdlib wave) through the audio actor
        stage: a 440 Hz sine's rms, zero-crossing rate, and spectral centroid
        come out at their analytic values."""
        import io
        import wave

        import ray.data as rd
        from dggsray.ops.multimodal import AudioFeatures

        def tone(freq, rate=16000, secs=1.0, ch=1, width=2):
            t = np.arange(int(rate * secs)) / rate
            sig = (0.5 * np.sin(2 * np.pi * freq * t) * 32767).astype("<i2")
            buf = io.BytesIO()
            with wave.open(buf, "wb") as w:
                w.setnchannels(ch)
                w.setsampwidth(width)
                w.setframerate(rate)
                frames = np.repeat(sig, ch).tobytes() if ch > 1 else sig.tobytes()
                w.writeframes(frames)
            return buf.getvalue()

        t = pa.table({"audio_id": pa.array(["a440", "a880"], pa.string()),
                      "bytes": pa.array([tone(440), tone(880, ch=2)],
                                        pa.binary()),
                      "fmt": pa.array(["wav", "wav"], pa.string())})
        out = rd.from_arrow(t).map_batches(
            AudioFeatures, concurrency=1, batch_format="pyarrow").to_pandas()
        out = out.set_index("audio_id")
        assert out.loc["a440", "rms"] == pytest.approx(0.5 / np.sqrt(2), rel=1e-3)
        assert out.loc["a440", "zcr"] == pytest.approx(2 * 440 / 16000, rel=0.02)
        assert out.loc["a440", "spectral_centroid_hz"] == pytest.approx(440, rel=0.05)
        assert out.loc["a880", "spectral_centroid_hz"] == pytest.approx(880, rel=0.05)
        assert out.loc["a880", "n_samples"] == 16000   # stereo folded to mono


class TestImagesPhashDedup:
    def test_clusters_match_pandas_and_catch_reencodes(self, ray_session):
        """images_phash_dedup clusters == a pandas groupby over the same two
        parquet tables, and every JPEG re-encode lands in a cluster with its
        lossless twin (q98 JPEG preserves the 8x8 average-phash exactly)."""
        import pandas as pd
        import pyarrow.parquet as pq
        from dggsray.io.imagetable import ensure_image_table, ensure_jpeg_table
        from dggsray.pipelines.relational import images_phash_dedup

        out = images_phash_dedup("/root/testdata/sf0.001").to_pandas() \
            .sort_values("phash").reset_index(drop=True)

        base = pq.read_table(ensure_image_table(0.001),
                             columns=["image_id", "phash", "fmt"]).to_pandas()
        jp = pq.read_table(ensure_jpeg_table(),
                           columns=["image_id", "phash", "fmt"]).to_pandas()
        allrows = pd.concat([base, jp], ignore_index=True)
        allrows["is_jpeg"] = (allrows.fmt == "jpeg").astype("int64")
        exp = allrows.groupby("phash").agg(
            n_images=("image_id", "size"), n_jpeg=("is_jpeg", "sum"),
            keeper_id=("image_id", "min")).reset_index()
        exp = exp[exp.n_images > 1].sort_values("phash").reset_index(drop=True)

        cols = ["phash", "n_images", "n_jpeg", "keeper_id"]
        pd.testing.assert_frame_equal(out[cols], exp[cols],
                                      check_dtype=False)
        # every jpeg twin is detected: its phash belongs to some cluster
        assert set(jp.phash).issubset(set(out.phash))


class TestIvfIndexed:
    def test_indexed_probe_equals_streaming_ivf(self, ray_session, tmp_path):
        """ivf_topk_indexed over the persisted hive-partitioned index returns
        the SAME top-k as ivf_topk streaming the raw dataset with the same
        quantizer, while reading only the probed list directories."""
        import glob
        import ray.data as rd
        from dggsray.ops.similarity import (build_ivf_index, ivf_topk,
                                            ivf_topk_indexed, kmeans_centroids)

        rng = np.random.default_rng(7)
        emb = rng.standard_normal((600, 16))
        ds = rd.from_arrow(pa.table({
            "vec_id": pa.array(np.arange(600), pa.int64()),
            "embedding": pa.array(list(emb), pa.list_(pa.float64()))}))
        C = kmeans_centroids(emb[:300], 8)
        idx = build_ivf_index(ds, C, str(tmp_path / "ivf"))
        # index is really partitioned, and a probe touches a strict subset
        all_dirs = glob.glob(str(tmp_path / "ivf" / "list_id=*"))
        assert len(all_dirs) > 2
        q = emb[42] * 0.9
        a = ivf_topk_indexed(idx, q, 5, C, nprobe=3).to_pandas()
        b = ivf_topk(ds, q, 5, C, nprobe=3).to_pandas()
        cols = ["vec_id", "cos_micro"]
        assert a[cols].values.tolist() == b[cols].values.tolist()
        assert a.vec_id.iloc[0] == 42
        # build is idempotent (cached by _SUCCESS)
        assert build_ivf_index(ds, C, idx) == idx

    def test_multiquery_pipeline(self, ray_session):
        from dggsray.pipelines.relational import embed_ivf_multiquery
        out = embed_ivf_multiquery("/root/testdata/sf0.001", n_queries=3, k=4)
        assert len(out) == 12
        assert set(out["query"]) == {0, 1, 2}
        # per-query results are sorted by descending cosine
        for _, g in out.groupby("query"):
            assert list(g.cos_micro) == sorted(g.cos_micro, reverse=True)


class TestDecontaminate:
    def test_planted_overlap_flagged_and_counts_exact(self, ray_session):
        import ray.data as rd
        from dggsray.ops.dedup import decontaminate

        evals = ["alpha beta gamma delta epsilon zeta", "one two three"]
        train = [
            ("clean", "the quick brown fox jumps over the lazy dog"),
            # contains eval 8..gram? k=3: shares 'beta gamma delta'
            ("hit1", "xx beta gamma delta yy"),
            # two distinct shared trigrams with eval[0]
            ("hit2", "alpha beta gamma delta qq"),
            ("short", "one two"),            # k-1 words: no trigram, clean
        ]
        ds = rd.from_arrow(pa.table({
            "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
            "text": pa.array([t for _, t in train], pa.string())}))
        out = decontaminate(ds, evals, k=3).to_pandas() \
            .set_index("doc_id")
        assert set(out.index) == {2, 3}
        assert out.loc[2, "n_shared_kgrams"] == 1
        # hit2 shares 'alpha beta gamma' and 'beta gamma delta'
        assert out.loc[3, "n_shared_kgrams"] == 2

    def test_edge_cases(self, ray_session):
        import ray.data as rd
        from dggsray.ops.dedup import _kgram_hash_sets, decontaminate

        # docs shorter than k, empty strings, whitespace-only: empty sets
        h, o = _kgram_hash_sets(pa.array(["", "a b", "   ", "a b c"]), 3)
        assert list(o) == [0, 0, 0, 0, 1]       # only the 3-word doc has a gram
        assert h.size == 1
        # empty eval set: nothing can be flagged
        ds = rd.from_arrow(pa.table({
            "doc_id": pa.array([1], pa.int64()),
            "text": pa.array(["a b c d"], pa.string())}))
        assert decontaminate(ds, [], k=3).to_pandas().empty
        # eval docs shorter than k contribute no grams
        assert decontaminate(ds, ["a b"], k=3).to_pandas().empty


class TestImagesCorpusPipeline:
    def test_matches_pandas_reference(self, ray_session):
        """The fused prep -> filter -> phash-dedup -> summary chain equals a
        pandas recomputation over the decoded table."""
        import pandas as pd
        import pyarrow.parquet as pq
        from dggsray.io.imagetable import (average_phash, decode_image,
                                           ensure_image_table)
        from dggsray.pipelines.relational import images_corpus_pipeline

        out = images_corpus_pipeline("/root/testdata/sf0.001") \
            .to_pandas().set_index("fmt").sort_index()

        t = pq.read_table(ensure_image_table(0.001)).to_pandas()
        rows = []
        for r in t.itertuples():
            img = decode_image(r.bytes, r.w, r.h, r.fmt)
            rows.append((r.image_id, r.fmt, average_phash(img),
                         int(round(img.mean() * 1000)),
                         int(round(img.std() * 1000))))
        df = pd.DataFrame(rows, columns=["image_id", "fmt", "phash",
                                         "bright", "contrast"])
        df = df[df.bright < 127_000]
        keep = df.groupby("phash").image_id.min()
        df = df[df.image_id.isin(set(keep))]
        exp = df.groupby("fmt").agg(n_kept=("image_id", "size"),
                                    sb=("bright", "sum"),
                                    sc=("contrast", "sum")).sort_index()
        assert list(out.index) == list(exp.index)
        for f in exp.index:
            assert out.loc[f, "n_kept"] == exp.loc[f, "n_kept"]
            assert out.loc[f, "avg_bright_milli"] == \
                exp.loc[f, "sb"] // exp.loc[f, "n_kept"]
            assert out.loc[f, "avg_contrast_milli"] == \
                exp.loc[f, "sc"] // exp.loc[f, "n_kept"]


class TestImageAugmentAndResample:
    def test_augment_deterministic_and_pixel_exact(self, ray_session):
        import ray.data as rd
        from hashlib import blake2b
        from dggsray.io.imagetable import decode_image, synth_batch
        from dggsray.ops.multimodal import ImageAugment

        batch = synth_batch(pa.table({"id": pa.array(np.arange(12), pa.int64())}))
        out1 = ImageAugment()(batch)
        out2 = ImageAugment()(batch)      # same input -> identical variant
        assert out1.equals(out2)
        for k in range(out1.num_rows):
            iid = out1.column("image_id")[k].as_py()
            h0 = blake2b(iid.encode(), digest_size=8).digest()
            assert out1.column("flip_h")[k].as_py() == bool(h0[0] & 1)
            img = decode_image(batch.column("bytes")[k].as_py(),
                               batch.column("w")[k].as_py(),
                               batch.column("h")[k].as_py(),
                               batch.column("fmt")[k].as_py())
            if out1.column("flip_h")[k].as_py():
                img = img[:, ::-1]
            if out1.column("flip_v")[k].as_py():
                img = img[::-1]
            img = np.clip(img.astype(np.int16)
                          + out1.column("bright_shift")[k].as_py(),
                          0, 255).astype(np.uint8)
            got = np.frombuffer(out1.column("bytes")[k].as_py(),
                                np.uint8).reshape(img.shape)
            assert np.array_equal(got, img)

    def test_augment_query_groups(self, ray_session):
        from dggsray.pipelines.relational import images_augment
        out = images_augment("/root/testdata/sf0.001").to_pandas()
        assert out.n_images.sum() == 500
        # in-row oracle: decoded-image phash == stored synthesis phash
        assert (out.n_decode_mismatch == 0).all()
        assert len(out) <= 4       # at most the 4 flip combinations
        # flipped variants move the phash far more than unflipped ones
        flipped = out[out.flip_h | out.flip_v].mean_hamming_milli.min()
        plain = out[~(out.flip_h | out.flip_v)].mean_hamming_milli.max()
        assert flipped > plain

    def test_resample_preserves_tone_frequency(self, ray_session):
        from dggsray.ops.multimodal import resample_audio
        rate = 8000
        t = np.arange(rate) / rate
        x = np.sin(2 * np.pi * 440 * t)
        for rout in (4000, 16000):
            y = resample_audio(x, rate, rout)
            assert y.size == rate * rout // rate if rout <= rate else True
            assert abs(y.size - round(x.size * rout / rate)) <= 0
            # dominant FFT bin still at 440 Hz
            f = np.fft.rfftfreq(y.size, 1 / rout)
            peak = f[np.argmax(np.abs(np.fft.rfft(y)))]
            assert abs(peak - 440) < 2
        assert resample_audio(np.zeros(0), 8000, 4000).size == 0


class TestImagesCaptionFilter:
    def test_counts_match_pandas(self, ray_session):
        import pyarrow.parquet as pq
        from dggsray.io.imagetable import ensure_image_table
        from dggsray.pipelines.relational import images_caption_filter

        out = images_caption_filter("/root/testdata/sf0.001") \
            .to_pandas().set_index("fmt")
        t = pq.read_table(ensure_image_table(0.001),
                          columns=["fmt", "caption"]).to_pandas()
        t["ntok"] = t.caption.str.split().str.len()
        t["ndig"] = t.caption.str.count(r"[0-9]")
        t["nch"] = t.caption.str.len()
        t["keep"] = (t.ntok >= 4) & (t.ndig * 1000 <= t.nch * 390)
        exp = t.groupby("fmt").agg(k=("keep", "sum"),
                                   n=("keep", "size"))
        for f in exp.index:
            assert out.loc[f, "n_kept"] == exp.loc[f, "k"]
            assert out.loc[f, "n_dropped"] == exp.loc[f, "n"] - exp.loc[f, "k"]
        kept = t[t.keep]
        for f in exp.index:
            s = kept[kept.fmt == f].nch.sum()
            assert out.loc[f, "avg_caption_chars_milli"] == \
                s * 1000 // max(out.loc[f, "n_kept"], 1)


class TestQuantizedEmbeddings:
    def test_error_bound_and_recall(self, ray_session):
        import ray.data as rd
        from dggsray.ops.similarity import (brute_topk, dequantize_batch,
                                            quantize_embeddings)

        rng = np.random.default_rng(5)
        emb = rng.standard_normal((400, 32))
        ds = rd.from_arrow(pa.table({
            "vec_id": pa.array(np.arange(400), pa.int64()),
            "embedding": pa.array(list(emb), pa.list_(pa.float64()))}))
        qt = quantize_embeddings(ds).to_pandas().set_index("vec_id")
        # per-component reconstruction error bounded by scale/2
        for vid in (0, 17, 399):
            row = qt.loc[vid]
            deq = np.frombuffer(row.codes, np.int8).astype(np.float64) \
                * row.scale
            assert np.abs(deq - emb[vid]).max() <= row.scale / 2 + 1e-12
        # zero vector: scale fallback, codes all zero
        z = rd.from_arrow(pa.table({
            "vec_id": pa.array([0], pa.int64()),
            "embedding": pa.array([np.zeros(8)], pa.list_(pa.float64()))}))
        zq = quantize_embeddings(z).to_pandas()
        assert np.frombuffer(zq.codes[0], np.int8).sum() == 0
        # top-10 over dequantized index overlaps the exact float top-10
        q = emb[7] + rng.standard_normal(32) * 0.05
        deq_ds = quantize_embeddings(ds).map_batches(dequantize_batch,
                                                     batch_format="pyarrow")
        a = set(brute_topk(deq_ds, q[None, :], 10).to_pandas().vec_id)
        b = set(brute_topk(ds, q[None, :], 10).to_pandas().vec_id)
        assert len(a & b) >= 8


class TestConnectedComponents:
    def test_chains_cliques_and_diameter(self, ray_session):
        """Min-label propagation closes chains (diameter > 1), cliques and
        isolated pairs to the component's min id."""
        import ray.data as rd
        from dggsray.ops.dedup import connected_components

        pairs = [(1, 2), (2, 3), (10, 11), (11, 12), (10, 12), (20, 21),
                 (30, 31), (31, 32), (32, 33), (33, 34)]
        t = pa.table({"id_a": pa.array([a for a, _ in pairs], pa.int64()),
                      "id_b": pa.array([b for _, b in pairs], pa.int64())})
        exp = {1: 1, 2: 1, 3: 1, 10: 10, 11: 10, 12: 10,
               20: 20, 21: 20, 30: 30, 31: 30, 32: 30, 33: 30, 34: 30}
        # driver fast path (measured-size default) and the distributed
        # min-label propagation (forced via small_limit=0) must agree
        for limit in (5_000_000, 0):
            out = connected_components(rd.from_arrow(t),
                                       small_limit=limit).to_pandas() \
                .set_index("node")["label"].to_dict()
            assert out == exp, f"small_limit={limit}"

    def test_distributed_path_equals_local_at_scale(self, ray_session):
        """20k random edges over 6k nodes: the distributed min-label
        propagation (forced) and the driver union-find agree exactly."""
        import ray.data as rd
        from dggsray.ops.dedup import connected_components

        rng = np.random.default_rng(17)
        a = rng.integers(0, 6000, 20_000).astype(np.int64)
        b = (a + rng.integers(1, 40, 20_000)) % 6000   # local-ish edges
        t = pa.table({"id_a": pa.array(a), "id_b": pa.array(b)})
        loc = connected_components(rd.from_arrow(t)).to_pandas() \
            .sort_values("node").reset_index(drop=True)
        dist = connected_components(rd.from_arrow(t), small_limit=0) \
            .to_pandas().sort_values("node").reset_index(drop=True)
        assert loc.equals(dist)


class TestNgramOverCapBanding:
    def test_over_cap_banding_agrees(self, ray_session):
        """n > max_broadcast_docs forces the partition-pair banding path for
        ngram_jaccard_pairs; it must produce exactly the broadcast path's
        pairs (no dup, no miss)."""
        import ray.data as rd
        from dggsray.ops.dedup import ngram_jaccard_pairs
        rng = np.random.default_rng(7)
        vocab = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta",
                 "eta", "theta"]
        texts = [" ".join(rng.choice(vocab, rng.integers(2, 9)))
                 for _ in range(80)]
        texts[13] = texts[11]                     # planted exact dup
        texts[5] = ""                             # zero-bigram doc
        ds = rd.from_arrow(pa.table({
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string())}))
        cols = ["id_a", "id_b", "jac_micro"]
        ref = ngram_jaccard_pairs(ds, 0.5).to_pandas() \
            .sort_values(cols).reset_index(drop=True)
        banded = ngram_jaccard_pairs(ds, 0.5, max_broadcast_docs=16) \
            .to_pandas().sort_values(cols).reset_index(drop=True)
        assert len(ref) > 0
        assert (11, 13) in set(zip(ref.id_a, ref.id_b))
        assert ref[cols].values.tolist() == banded[cols].values.tolist()

    def test_zero_threshold_rejected(self, ray_session):
        import pytest
        import ray.data as rd
        from dggsray.ops.dedup import ngram_jaccard_pairs
        ds = rd.from_arrow(pa.table({"doc_id": pa.array([0], pa.int64()),
                                     "text": pa.array(["a b"], pa.string())}))
        with pytest.raises(ValueError, match="threshold"):
            ngram_jaccard_pairs(ds, 0.0)


class TestEmbeddingOverCapBanding:
    def test_over_cap_banding_agrees(self, ray_session):
        """n > max_broadcast_rows forces the partition-pair banding path for
        embedding_neardup_pairs; it is STILL exact — identical pair set and
        cos_micro values as the broadcast path."""
        import ray.data as rd
        from dggsray.ops.dedup import embedding_neardup_pairs
        rng = np.random.default_rng(13)
        M = rng.standard_normal((120, 16))
        for src, dst in [(10, 50), (20, 60), (30, 115)]:
            M[dst] = M[src] + rng.standard_normal(16) * 0.01
        ds = rd.from_arrow(pa.table({
            "vec_id": pa.array(range(len(M)), pa.int64()),
            "embedding": pa.array([list(r) for r in M],
                                  pa.list_(pa.float32()))}))
        cols = ["id_a", "id_b", "cos_micro"]
        ref = embedding_neardup_pairs(ds, threshold=0.95).to_pandas() \
            .sort_values(cols).reset_index(drop=True)
        banded = embedding_neardup_pairs(ds, threshold=0.95,
                                         max_broadcast_rows=32) \
            .to_pandas().sort_values(cols).reset_index(drop=True)
        pairs = set(zip(ref.id_a, ref.id_b))
        assert {(10, 50), (20, 60), (30, 115)} <= pairs
        assert ref[cols].values.tolist() == banded[cols].values.tolist()

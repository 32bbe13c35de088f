"""Kill-and-resume: a run killed mid-way must resume by skipping verified
partitions and produce output identical to a single-shot run (north_rule
checkpoint/lineage requirement)."""
import json
import os

import pytest


class TestResume:
    def test_kill_and_resume_equals_single_run(self, ray_session, tmp_path):
        from dggsray.io.lineage import LineageLog, read_resumable
        from dggsray.pipelines.flagship import flagship_resumable

        out1 = str(tmp_path / "run_killed")
        out2 = str(tmp_path / "run_clean")

        # killed run: crash injected after 2 fresh partitions
        with pytest.raises(RuntimeError, match="injected failure"):
            flagship_resumable(0.001, out1, n_parts=5, fail_after=2)
        log = LineageLog(out1)
        assert sum(log.verify(p) for p in range(5)) == 2
        assert not os.path.exists(os.path.join(out1, "_lineage", "_done"))

        # resume: the 2 verified partitions are skipped, the rest computed
        computed, skipped = flagship_resumable(0.001, out1, n_parts=5)
        assert skipped == 2 and computed == 3
        assert os.path.exists(os.path.join(out1, "_lineage", "_done"))

        # clean single-shot run
        c2, s2 = flagship_resumable(0.001, out2, n_parts=5)
        assert (c2, s2) == (5, 0)

        df1 = read_resumable(out1).to_pandas().sort_values("image_id") \
            .reset_index(drop=True)
        df2 = read_resumable(out2).to_pandas().sort_values("image_id") \
            .reset_index(drop=True)
        import pandas as pd
        pd.testing.assert_frame_equal(df1, df2)
        assert len(df1) == 500

        # lineage digests of matching partitions are identical
        l2 = LineageLog(out2)
        for p in range(5):
            assert log.load(p)["digest"] == l2.load(p)["digest"]

    def test_resumable_rows_equal_pipeline(self, ray_session, tmp_path):
        """File shards (n_parts=1) and crc row buckets (n_parts=5 over the
        one sf0.001 file) both give the pipeline's rows."""
        import pandas as pd

        from dggsray.io.lineage import read_resumable
        from dggsray.pipelines.flagship import (flagship_pipeline,
                                                flagship_resumable)

        want = flagship_pipeline(sf=0.001).to_pandas() \
            .sort_values("image_id").reset_index(drop=True)
        assert len(want) == 500
        for n_parts in (5, 1):
            out = str(tmp_path / f"parts{n_parts}")
            assert flagship_resumable(0.001, out, n_parts=n_parts) \
                == (n_parts, 0)
            got = read_resumable(out).to_pandas().sort_values("image_id") \
                .reset_index(drop=True)
            pd.testing.assert_frame_equal(got, want)

    def test_tampered_partition_recomputed(self, ray_session, tmp_path):
        from dggsray.io.lineage import LineageLog
        from dggsray.pipelines.flagship import flagship_resumable

        out = str(tmp_path / "run_t")
        flagship_resumable(0.001, out, n_parts=3)
        # corrupt one partition's parquet
        pdir = os.path.join(out, "part-00001")
        victim = [f for f in os.listdir(pdir) if f.endswith(".parquet")][0]
        os.remove(os.path.join(pdir, victim))
        computed, skipped = flagship_resumable(0.001, out, n_parts=3)
        assert computed == 1 and skipped == 2

    def test_lineage_summary(self, ray_session, tmp_path):
        from dggsray.io.lineage import LineageLog
        from dggsray.pipelines.flagship import flagship_resumable

        out = str(tmp_path / "run_s")
        flagship_resumable(0.001, out, n_parts=2)
        s = LineageLog(out).summary()
        assert s["parts"] == 2 and s["rows"] == 500 and s["wall_s"] > 0


class TestShardingChangeInvalidates:
    def test_resume_with_different_n_parts_recomputes(self, ray_session,
                                                      tmp_path):
        """Changing n_parts re-buckets inputs; stale partition records must
        NOT be skipped (they'd duplicate/omit input rows)."""
        from dggsray.io.lineage import read_resumable
        from dggsray.pipelines.flagship import flagship_resumable

        out = str(tmp_path / "run")
        flagship_resumable(0.001, out, n_parts=5)
        n_ref = read_resumable(out).count()
        # same output dir, FEWER parts: nothing may be skipped, and the
        # out-of-range part dirs of the old sharding must be pruned or the
        # output would hold duplicate rows
        computed, skipped = flagship_resumable(0.001, out, n_parts=3)
        assert skipped == 0 and computed == 3
        assert read_resumable(out).count() == n_ref


class TestJobEntrypoint:
    """python -m dggsray.job — the ray-job-submit driver program (north_rule).
    In-process here (the test session owns Ray); on a cluster the same main()
    runs under `ray job submit` with RAY_ADDRESS pointing at the head node."""

    def test_pipeline_mode_writes_parquet_and_reports(self, ray_session,
                                                      tmp_path, capsys):
        import json
        import ray.data as rd
        from dggsray.job import main

        out = str(tmp_path / "job_p")
        rc = main(["--pipeline", "cell_count_by_face",
                   "--sf-dir", "/root/testdata/sf0.001", "--out", out])
        assert rc == 0
        rep = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert rep["pipeline"] == "cell_count_by_face" and rep["rows"] > 0
        assert rd.read_parquet(out).count() == rep["rows"]

    def test_resumable_mode_skips_on_resubmit(self, ray_session, tmp_path,
                                              capsys):
        import json
        from dggsray.job import main

        out = str(tmp_path / "job_r")
        args = ["--resumable", "--sf-dir", "/root/testdata/sf0.001",
                "--out", out, "--n-parts", "3"]
        assert main(args) == 0
        first = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert first["computed_parts"] == 3 and first["rows"] == 500
        assert first["lineage"]["out_bytes"] > 0
        assert first["lineage"]["rows_per_s"] > 0
        assert main(args) == 0      # resubmit: all partitions verify -> skip
        second = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert second["skipped_parts"] == 3 and second["computed_parts"] == 0
        assert second["rows"] == 500

"""Flagship robustness: no hang at small CPU counts, no stall between
back-to-back calls without the cyclic GC, and one join task per image-table
file."""
import glob
import os
import signal
import subprocess
import sys
import textwrap

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

BACK_TO_BACK = textwrap.dedent("""
    import gc
    import sys

    import ray

    ray.init(address="local", num_cpus=int(sys.argv[1]),
             object_store_memory=256 << 20, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    from dggsray.pipelines.flagship import flagship_pipeline

    # a finished Dataset must release its workers without a gc.collect()
    gc.disable()
    for _ in range(3):
        rows = flagship_pipeline(sf=0.001, verify=True).take_all()
        assert len(rows) == 500, len(rows)
        assert len({r["image_id"] for r in rows}) == 500
    ray.shutdown()
    print("OK")
""")


@pytest.mark.parametrize("num_cpus", [1, 2, 4])
def test_back_to_back_calls_finish_at_small_cpu_counts(num_cpus):
    env = dict(os.environ, PYTHONPATH=ROOT)
    env.pop("RAY_ADDRESS", None)
    # own session: on a timeout the whole group goes, Ray's daemons included
    p = subprocess.Popen([sys.executable, "-c", BACK_TO_BACK, str(num_cpus)],
                         cwd=ROOT, env=env, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True,
                         start_new_session=True)
    try:
        out, err = p.communicate(timeout=180)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        pytest.fail(f"3 flagship calls at num_cpus={num_cpus} took over 180 s")
    assert p.returncode == 0, err[-3000:]
    assert out.strip().endswith("OK")


def test_flagship_is_one_task_per_file(ray_session):
    """One plain task per image-table parquet file: one output block per
    file, every image exactly once, and each block equal to the join kernel
    run on that file in the driver."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    from dggsray.core.rhpx import DEFAULT_GRID
    from dggsray.io.imagetable import ensure_image_table
    from dggsray.pipelines.flagship import (FLAGSHIP_BATCH, FLAGSHIP_RES,
                                            ImageCellJoinAgg, _join_block,
                                            flagship_pipeline,
                                            vector_cells_sorted)

    index = vector_cells_sorted(FLAGSHIP_RES, DEFAULT_GRID)
    for sf, n_images in ((0.001, 500), (0.01, 5000)):
        files = sorted(glob.glob(os.path.join(ensure_image_table(sf),
                                              "*.parquet")))
        blocks = ray.get(flagship_pipeline(sf=sf).to_arrow_refs())
        assert len(blocks) == len(files), (sf, len(blocks), len(files))
        out = pa.concat_tables(blocks)
        assert out.num_rows == n_images, (sf, out.num_rows)
        assert len(out.column("image_id").unique()) == n_images
        want = pa.concat_tables([
            _join_block(pq.read_table(f), ImageCellJoinAgg, index,
                        FLAGSHIP_RES, DEFAULT_GRID, False, FLAGSHIP_BATCH)
            for f in files])
        assert out.equals(want), sf

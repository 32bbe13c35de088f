"""Flagship robustness: no hang at small CPU counts, no stall between
back-to-back calls without the cyclic GC, and a plan that stays one fused
read->join operator."""
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


def test_flagship_plan_is_one_fused_read_join(ray_session):
    """Reading the table unsplit and mapping a function with batch_size=None
    lets Ray fuse the join into the read; a batch_size or a block split
    would separate the two and keep the image blocks resident in workers."""
    import ray
    from ray.data._internal.compute import ActorPoolStrategy

    from dggsray.io.imagetable import ensure_image_table
    from dggsray.pipelines.flagship import flagship_pipeline

    n_files = len(glob.glob(os.path.join(ensure_image_table(0.01),
                                         "*.parquet")))
    cpus = int(ray.cluster_resources()["CPU"])
    assert n_files >= cpus, (n_files, cpus)
    ds = flagship_pipeline(sf=0.01)
    # the join is the plan's last operator
    assert not isinstance(ds._logical_plan.dag._compute, ActorPoolStrategy)
    out = ds.materialize()
    assert out.count() == 5000
    operators = [ln for ln in out.stats().splitlines()
                 if ln.startswith("Operator ")]
    assert len(operators) == 1, operators
    assert "ReadParquet->MapBatches(" in operators[0], operators

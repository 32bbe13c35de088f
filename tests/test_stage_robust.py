"""Per-batch stages (multimodal decoders, JPEG verify, the broadcast dedup
probes) and the plain-task raster round trip (explode, cell-table write and
read, per-block scatter): no hang at small CPU counts and no stall between
back-to-back calls without the cyclic GC."""
import os
import signal
import subprocess
import sys
import textwrap

import pytest
from conftest import SF_DIR

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

BACK_TO_BACK = textwrap.dedent("""
    import gc
    import sys
    import tempfile

    import numpy as np
    import ray

    ray.init(address="local", num_cpus=int(sys.argv[1]),
             object_store_memory=256 << 20, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    import __ray_entry__ as E
    from dggsray.pipelines import relational as R

    SF = sys.argv[2]
    Q = E.queries()
    calls = {k: Q[k] for k in (
        "images_features", "images_corpus_pipeline", "images_augment",
        "audio_features", "video_frames", "video_scene_cuts",
        "docs_charset_jaccard", "docs_ngram_jaccard")}
    calls["images_jpeg_psnr"] = lambda d: R.images_jpeg_psnr(d, n=64)
    ROWS = {"images_features": 500, "images_corpus_pipeline": 2,
            "images_augment": 4, "audio_features": 40, "video_frames": 60,
            "video_scene_cuts": 20, "docs_charset_jaccard": 42103,
            "docs_ngram_jaccard": 28, "images_jpeg_psnr": 64}

    from dggsray.core.tiffio import GeoTiff, read_geotiff, write_geotiff
    from dggsray.io.storage import read_cell_table, write_cell_table
    from dggsray.ops.cells2raster import cells_to_raster_array
    from dggsray.ops.raster2dggs import geotiff_to_tiles, tiles_to_cells
    from dggsray.ops.warp import raster_to_rhealpix

    TMP = tempfile.mkdtemp()
    rng = np.random.default_rng(0)
    write_geotiff(TMP + "/src.tif", GeoTiff(
        rng.integers(1, 256, (3, 60, 80)).astype(np.uint8), 10.0, 5.0,
        0.05, 0.05, nodata=0))
    raster_to_rhealpix(TMP + "/src.tif", TMP + "/rhpx.tif")
    WARPED = read_geotiff(TMP + "/rhpx.tif").data

    def raster_roundtrip():
        tiles, meta = geotiff_to_tiles(TMP + "/rhpx.tif")
        table = tempfile.mkdtemp(dir=TMP)
        write_cell_table(tiles_to_cells(tiles, meta), table, meta,
                         partition_depth=2)
        back, stored = read_cell_table(table)
        arr, _ = cells_to_raster_array(back, stored)
        assert arr.shape == WARPED.shape and np.array_equal(arr, WARPED)

    # a finished Dataset must release its workers without a gc.collect()
    gc.disable()
    for _ in range(3):
        raster_roundtrip()
        print("raster_roundtrip", flush=True)
        for name, fn in calls.items():
            df = fn(SF).to_pandas()
            assert len(df) == ROWS[name], (name, len(df))
            for flag in ("check_ok", "psnr_ok", "caption_ok"):
                if flag in df.columns:
                    assert df[flag].all(), (name, flag)
            if name == "images_augment":
                assert (df["n_decode_mismatch"] == 0).all()
                assert df["n_images"].sum() == 500
            print(name, flush=True)
    ray.shutdown()
    print("OK")
""")


@pytest.mark.parametrize("num_cpus", [1, 2, 4])
def test_back_to_back_calls_finish_at_small_cpu_counts(num_cpus):
    env = dict(os.environ, PYTHONPATH=ROOT)
    env.pop("RAY_ADDRESS", None)
    # own session: on a timeout the whole group goes, Ray's daemons included
    p = subprocess.Popen([sys.executable, "-c", BACK_TO_BACK, str(num_cpus),
                          SF_DIR],
                         cwd=ROOT, env=env, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True,
                         start_new_session=True)
    try:
        out, err = p.communicate(timeout=180)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        out, _ = p.communicate()
        done = out.split()
        pytest.fail(f"30 stage calls at num_cpus={num_cpus} took over 180 s; "
                    f"{len(done)} finished, the last {done[-1:]}")
    assert p.returncode == 0, err[-3000:]
    assert out.strip().endswith("OK")

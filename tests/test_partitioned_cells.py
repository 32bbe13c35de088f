"""Hive-partitioned cell-table output: write_cell_table(partition_depth=N)
lays out one directory per cell-id prefix (the resumable key-range unit),
read_cell_table reassembles the identical table, finished_partitions lists
completed ranges, and a partition-pruned read touches only its directory."""
import os

import numpy as np
import pyarrow as pa


def _table(n=200, res=3):
    rng = np.random.default_rng(5)
    faces = np.array(list("NOPQRS"))[rng.integers(0, 6, n)]
    digits = rng.integers(0, 9, (n, res))
    cells = [f + "".join(map(str, d)) for f, d in zip(faces, digits)]
    return pa.table({"cellid": pa.array(cells, pa.string()),
                     "band1": pa.array(rng.integers(0, 255, n), pa.int64())})


class TestPartitionedCellTable:
    def test_roundtrip_and_layout(self, ray_session, tmp_path):
        import ray.data as rd
        from dggsray.io.storage import (finished_partitions, read_cell_table,
                                        write_cell_table)
        t = _table()
        out = str(tmp_path / "cells")
        write_cell_table(rd.from_arrow(t), out, {"res": 3},
                         partition_depth=1)
        # layout: one dir per 2-char prefix, each with parquet files
        parts = finished_partitions(out)
        expect = sorted({c[:2] for c in t.column("cellid").to_pylist()})
        assert parts == expect
        ds, meta = read_cell_table(out)
        assert meta == {"res": 3}
        got = ds.to_pandas().sort_values(["cellid", "band1"]) \
            .reset_index(drop=True)
        ref = t.to_pandas().sort_values(["cellid", "band1"]) \
            .reset_index(drop=True)
        assert set(got.columns) == {"cellid", "band1"}
        assert got.cellid.tolist() == ref.cellid.tolist()
        assert got.band1.tolist() == ref.band1.tolist()
        # every row landed in the directory matching its own prefix
        import glob
        import pyarrow.parquet as pq
        for d in glob.glob(os.path.join(out, "cell_part=*")):
            pfx = d.split("=", 1)[1]
            for f in glob.glob(os.path.join(d, "*.parquet")):
                cells = pq.read_table(f, columns=["cellid"]) \
                    .column("cellid").to_pylist()
                assert all(c.startswith(pfx) for c in cells)

    def test_pruned_read_touches_one_partition(self, ray_session, tmp_path):
        import glob

        import ray.data as rd
        import pyarrow.parquet as pq
        from dggsray.io.storage import write_cell_table
        t = _table()
        out = str(tmp_path / "cells")
        write_cell_table(rd.from_arrow(t), out, {"res": 3},
                         partition_depth=1)
        pfx = sorted({c[:2] for c in t.column("cellid").to_pylist()})[0]
        files = glob.glob(os.path.join(out, f"cell_part={pfx}", "*.parquet"))
        sub = pq.read_table(files, columns=["cellid"])
        ref = [c for c in t.column("cellid").to_pylist()
               if c.startswith(pfx)]
        assert sorted(sub.column("cellid").to_pylist()) == sorted(ref)

    def test_resume_skips_finished_ranges(self, ray_session, tmp_path):
        import ray.data as rd
        from dggsray.io.storage import (finished_partitions, read_cell_table,
                                        write_cell_table)
        t = _table()
        out = str(tmp_path / "cells")
        prefixes = sorted({c[:2] for c in t.column("cellid").to_pylist()})
        half = set(prefixes[:len(prefixes) // 2])
        # first (interrupted) run wrote only half the key ranges
        mask = pa.array([c[:2] in half
                         for c in t.column("cellid").to_pylist()])
        write_cell_table(rd.from_arrow(t.filter(mask)), out, {"res": 3},
                         partition_depth=1)
        done = set(finished_partitions(out))
        assert done == half
        # resume: write only rows whose range is not finished
        rest = pa.array([c[:2] not in done
                         for c in t.column("cellid").to_pylist()])
        write_cell_table(rd.from_arrow(t.filter(rest)), out, {"res": 3},
                         partition_depth=1)
        ds, _ = read_cell_table(out)
        assert sorted(ds.to_pandas().cellid) \
            == sorted(t.column("cellid").to_pylist())


class TestCellTableLayouts:
    def test_reads_tables_of_the_ray_data_writer(self, ray_session, tmp_path):
        """Tables written by Ray Data's parquet writer (hive-partitioned by
        an added cell_part column, and flat) read back with the same rows
        and without a cell_part column."""
        import json

        import pyarrow.compute as pc
        import ray
        import ray.data as rd
        from dggsray.io.storage import META_SPEC_URI, read_cell_table
        t = _table()

        def add_part(b: pa.Table) -> pa.Table:
            return b.append_column("cell_part", pc.utf8_slice_codeunits(
                b.column("cellid"), 0, 2))

        for depth in (1, None):
            out = str(tmp_path / f"cells{depth}")
            ds = rd.from_arrow(t).repartition(3)
            if depth is None:
                ds.write_parquet(out)
            else:
                ds.map_batches(add_part, batch_format="pyarrow") \
                    .write_parquet(out, partition_cols=["cell_part"])
            with open(os.path.join(out, "_meta.json"), "w") as f:
                json.dump({"spec": META_SPEC_URI, "attrs": {"res": 3},
                           "format": "parquet", "partition_depth": depth}, f)
            back, meta = read_cell_table(out)
            got = pa.concat_tables(ray.get(back.to_arrow_refs()))
            assert meta == {"res": 3}
            assert got.column_names == ["cellid", "band1"]
            assert sorted(zip(got.column("cellid").to_pylist(),
                              got.column("band1").to_pylist())) \
                == sorted(zip(t.column("cellid").to_pylist(),
                              t.column("band1").to_pylist()))

    def test_two_writes_into_one_table_keep_both(self, ray_session, tmp_path):
        """A second write_cell_table call into the same table adds its files
        next to the first call's, in every layout, even on shared prefixes."""
        import glob

        import ray
        import ray.data as rd
        from dggsray.io.storage import read_cell_table, write_cell_table
        t = _table()
        rows = sorted(zip(t.column("cellid").to_pylist(),
                          t.column("band1").to_pylist()))
        for fmt, depth in (("parquet", 1), ("parquet", None),
                           ("feather", 1), ("feather", None)):
            out = str(tmp_path / f"{fmt}{depth}")
            write_cell_table(rd.from_arrow(t).repartition(2), out,
                             {"res": 3}, fmt=fmt, partition_depth=depth)
            files = set(glob.glob(os.path.join(out, "**", f"*.{fmt}"),
                                  recursive=True))
            write_cell_table(t, out, {"res": 3}, fmt=fmt,
                             partition_depth=depth)
            after = set(glob.glob(os.path.join(out, "**", f"*.{fmt}"),
                                  recursive=True))
            assert files < after
            back, _ = read_cell_table(out)
            got = pa.concat_tables(ray.get(back.to_arrow_refs()))
            assert sorted(zip(got.column("cellid").to_pylist(),
                              got.column("band1").to_pylist())) \
                == sorted(rows + rows)

    def test_read_blocks_stay_under_the_byte_bound(self, ray_session,
                                                   tmp_path, monkeypatch):
        """A table with more than READ_BLOCK_BYTES of files per Ray CPU
        reads as more blocks than CPUs, none much over the bound; input
        blocks in pandas format write unchanged."""
        import glob

        import ray
        import ray.data as rd
        from dggsray.io import storage
        t = _table(n=2000)
        out = str(tmp_path / "cells")
        ds = rd.from_arrow(t).repartition(20).map_batches(
            lambda df: df, batch_format="pandas")
        storage.write_cell_table(ds, out, {"res": 3}, partition_depth=None)
        sizes = [os.path.getsize(f)
                 for f in glob.glob(os.path.join(out, "*.parquet"))]
        monkeypatch.setattr(storage, "READ_BLOCK_BYTES", sum(sizes) // 10)
        back, _ = storage.read_cell_table(out)
        blocks = ray.get(back.to_arrow_refs())
        assert 10 <= len(blocks) <= len(sizes) == 20
        # near-equal bytes: a tenth of the rows, give or take one file's 100
        assert max(b.num_rows for b in blocks) <= 2000 // 10 + 100
        got = pa.concat_tables(blocks)
        assert sorted(zip(got.column("cellid").to_pylist(),
                          got.column("band1").to_pylist())) \
            == sorted(zip(t.column("cellid").to_pylist(),
                          t.column("band1").to_pylist()))

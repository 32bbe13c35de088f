"""Distributed dimension-map builders (ops.joins.dim_flag_bitmap /
dim_dense_map): the driver receives only the dense probe structure —
predicates run in-task over Arrow blocks, flagged pairs stream back."""
import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _dim_ds(n=5000, parts=13):
    import ray.data as rd
    keys = np.random.default_rng(5).permutation(n).astype(np.int64)
    return rd.from_arrow(pa.table({
        "k": pa.array(keys),
        "v": pa.array((keys * 7) % 25),
        "s": pa.array(np.where(keys % 3 == 0, "PROMO", "STD"))})) \
        .repartition(parts), keys


class TestDimFlagBitmap:
    def test_string_predicate(self, ray_session):
        from dggsray.ops.joins import dim_flag_bitmap
        ds, keys = _dim_ds()
        bm = dim_flag_bitmap(ds, "k", lambda b: pc.equal(
            b.column("s"), "PROMO").to_numpy(zero_copy_only=False))
        assert bm.size == keys.max() + 1
        exp = np.arange(bm.size) % 3 == 0
        assert np.array_equal(bm, exp)

    def test_empty_dataset(self, ray_session):
        import ray.data as rd
        from dggsray.ops.joins import dim_flag_bitmap
        ds = rd.from_arrow(pa.table({"k": pa.array([], pa.int64())}))
        bm = dim_flag_bitmap(ds, "k", lambda b: np.zeros(0, bool))
        assert bm.size == 0


class TestDimDenseMap:
    def test_value_map_with_fill_exclusion(self, ray_session):
        from dggsray.ops.joins import dim_dense_map
        ds, keys = _dim_ds()
        # exclude values >= 20 at the source (emit fill)

        def val(b):
            v = b.column("v").to_numpy().astype(np.int64)
            return np.where(v < 20, v, -1)

        m = dim_dense_map(ds, "k", val, fill=-1, dtype=np.int64)
        exp = (np.arange(m.size) * 7) % 25
        exp = np.where(exp < 20, exp, -1)
        assert np.array_equal(m, exp)


class TestSparseKeys:
    def test_sparse_keys_raise(self, ray_session):
        """A sparse or hashed key would make the driver allocate max(key)+1
        entries; both builders refuse and point at adaptive_join."""
        import pytest
        import ray.data as rd
        from dggsray.ops.joins import dim_dense_map, dim_flag_bitmap
        ds = rd.from_arrow(pa.table({"k": pa.array([0, 2**40], pa.int64()),
                                     "v": pa.array([1, 2], pa.int64())}))
        with pytest.raises(ValueError, match="adaptive_join"):
            dim_flag_bitmap(ds, "k", lambda b: np.ones(b.num_rows, bool))
        with pytest.raises(ValueError, match="adaptive_join"):
            dim_dense_map(ds, "k", lambda b: b.column("v").to_numpy())

    def test_dense_keys_at_the_bound_pass(self, ray_session):
        """Keys up to DENSE_KEYS_PER_ROW entries per row (above the floor)
        still build."""
        import ray.data as rd
        from dggsray.ops.joins import (DENSE_KEYS_PER_ROW, DENSE_MIN_KEYS,
                                       dim_flag_bitmap)
        rows = DENSE_MIN_KEYS // DENSE_KEYS_PER_ROW + 1
        keys = np.arange(rows, dtype=np.int64) * DENSE_KEYS_PER_ROW
        ds = rd.from_arrow(pa.table({"k": pa.array(keys)}))
        bm = dim_flag_bitmap(ds, "k", lambda b: np.ones(b.num_rows, bool))
        assert bm.size == keys[-1] + 1 and int(bm.sum()) == rows

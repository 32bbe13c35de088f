"""Skewed-key groupby at bench scale.

100 TB runs hit Zipf-distributed keys; this exercises the adaptive groupby
(`ops/joins.sized_groupby`) and the majority regrid at ~2M rows with one key
owning half the data, asserting exact agreement with a numpy ground truth —
the partial-aggregation-before-shuffle design means the hot key collapses to
one row per block before any exchange, so skew cannot concentrate load.
"""
import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings, strategies as st


N = 2_000_000
HOT_FRACTION = 0.5
N_KEYS = 10_000


def _skewed_ds():
    """2M rows, key 0 owns 50%, the rest Zipf-ish over 10k keys; value is a
    deterministic function of the row index so any lost/duplicated row shifts
    a sum."""
    import ray.data as rd

    def gen(b: pa.Table) -> pa.Table:
        i = b.column("id").to_numpy()
        r = (i * 2654435761) % (2**31)         # Knuth hash, deterministic
        hot = (r % 100) < int(HOT_FRACTION * 100)
        key = np.where(hot, 0, 1 + (r // 100) % (N_KEYS - 1)).astype(np.int64)
        val = (i % 1000).astype(np.int64)
        return pa.table({"key": pa.array(key), "val": pa.array(val)})

    return rd.range(N, override_num_blocks=64) \
        .map_batches(gen, batch_format="pyarrow")


def _ground_truth():
    i = np.arange(N, dtype=np.int64)
    r = (i * 2654435761) % (2**31)
    hot = (r % 100) < int(HOT_FRACTION * 100)
    key = np.where(hot, 0, 1 + (r // 100) % (N_KEYS - 1)).astype(np.int64)
    val = (i % 1000).astype(np.int64)
    return key, val


class TestSkewedGroupby:
    def test_sized_groupby_sum_exact_under_skew(self, ray_session):
        from ray.data.aggregate import Sum
        from dggsray.ops.joins import sized_groupby

        out = sized_groupby(_skewed_ds(), "key",
                            Sum("val", alias_name="s")).take_all()
        key, val = _ground_truth()
        want_hot = int(val[key == 0].sum())
        got = {r["key"]: r["s"] for r in out}
        assert len(got) == len(np.unique(key))
        assert got[0] == want_hot
        # spot-check 50 cold keys + total conservation
        order = np.argsort(key, kind="stable")
        ks, vs = key[order], val[order]
        bounds = np.flatnonzero(np.r_[True, ks[1:] != ks[:-1]])
        sums = np.add.reduceat(vs, bounds)
        uk = ks[bounds]
        for j in range(0, len(uk), max(1, len(uk) // 50)):
            assert got[int(uk[j])] == int(sums[j])
        assert sum(got.values()) == int(val.sum())

    @pytest.mark.parametrize("n_keys", [3, 1_000_000])
    @pytest.mark.parametrize("blocks", [1, 4, 32])
    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_sized_groupby_matches_one_arrow_group_by(self, ray_session,
                                                      blocks, n_keys, seed):
        """Sum/Min/Max/Count (rows, and non-null values) over 1, 4 and 32
        blocks, low- and high-cardinality keys, equal a single pyarrow
        group_by — including the Max over a packed majority score that
        regrid_majority's argmax relies on."""
        import ray.data as rd
        from ray.data.aggregate import Count, Max, Min, Sum
        from dggsray.ops.cellify import _MAJ_BIAS, _MAJ_K
        from dggsray.ops.joins import sized_groupby

        rng = np.random.default_rng(seed)
        n = int(rng.integers(blocks, 4000))
        cnt = rng.integers(1, 2**20, n)
        val = rng.integers(-_MAJ_BIAS, _MAJ_BIAS, n)
        v = rng.integers(-1000, 1000, n)
        t = pa.table({"k": rng.integers(0, n_keys, n),
                      "v": pa.array(v, mask=rng.random(n) < 0.1),
                      "score": cnt * _MAJ_K + (_MAJ_K - 1 - (val + _MAJ_BIAS))})
        cuts = np.linspace(0, n, blocks + 1).astype(int)
        ds = rd.from_arrow([t.slice(a, b - a)
                            for a, b in zip(cuts[:-1], cuts[1:])])
        got = pa.Table.from_pylist(sized_groupby(
            ds, "k", Sum("v", alias_name="sum"), Min("v", alias_name="min"),
            Max("v", alias_name="max"), Count(alias_name="count"),
            Count("v", ignore_nulls=True, alias_name="count_v"),
            Max("score", alias_name="best")).take_all()).sort_by("k")
        cols = ["k", "sum", "min", "max", "count", "count_v", "best"]
        want = t.group_by("k").aggregate(
            [("v", "sum"), ("v", "min"), ("v", "max"), ([], "count_all"),
             ("v", "count"), ("score", "max")]) \
            .rename_columns(cols).sort_by("k")
        for c in cols:
            assert got.column(c).to_pylist() == want.column(c).to_pylist(), c

    def test_majority_regrid_hot_cell(self, ray_session):
        """Majority per cell with one cell holding 50% of all rows; ties
        break to the smallest value (the documented contract)."""
        import ray.data as rd
        from dggsray.ops.cellify import regrid_majority

        def gen(b: pa.Table) -> pa.Table:
            i = b.column("id").to_numpy()
            r = (i * 2654435761) % (2**31)
            hot = (r % 10) < 5
            cell = np.where(hot, 0, 1 + (r // 10) % 999)
            # hot cell: value 7 wins with 60% of its rows; cold cells: all
            # rows carry value (cell % 5)
            v = np.where(hot, np.where((r // 1000) % 10 < 6, 7, 3), cell % 5)
            return pa.table({
                "cellid": pa.array(np.char.add("N", cell.astype("U8"))),
                "val": pa.array(v.astype(np.int64))})

        ds = rd.range(N // 2, override_num_blocks=32) \
            .map_batches(gen, batch_format="pyarrow")
        out = regrid_majority(ds, "val", cell_col="cellid").take_all()
        got = {r["cellid"]: r["majority_value"] for r in out}
        assert got["N0"] == 7
        for c, v in got.items():
            if c != "N0":
                assert v == int(c[1:]) % 5
        assert len(got) == 1000


class TestMajorityNegativeValues:
    def test_nodata_sentinel_minus_one(self, ray_session):
        """-1 nodata sentinels must take the vectorized packed-argmax path
        (regression: it rejected any negative value)."""
        import ray.data as rd
        from dggsray.ops.cellify import regrid_majority
        t = pa.table({
            "cellid": pa.array(["N0"] * 5 + ["N1"] * 4),
            "v": pa.array([-1, -1, -1, 2, 2, 3, 3, 3, -1], pa.int64())})
        out = regrid_majority(rd.from_arrow(t), "v").take_all()
        got = {r["cellid"]: r["majority_value"] for r in out}
        assert got == {"N0": -1, "N1": 3}

    def test_float_values_raise_type_error(self, ray_session):
        """A non-integer value column fails loudly and names the mapping
        helper (regression: floats silently took a separate slow path)."""
        import ray.data as rd
        from dggsray.ops.cellify import regrid_majority
        t = pa.table({"cellid": pa.array(["N0", "N0", "N1"]),
                      "v": pa.array([1.5, 1.5, 2.0])})
        with pytest.raises(Exception,
                           match=r"TypeError: .*feature_class_values"):
            regrid_majority(rd.from_arrow(t), "v").take_all()

    @pytest.mark.parametrize("v", [2**20, 2**40, -2**20 - 1])
    def test_values_outside_packed_range_raise(self, ray_session, v):
        import ray.data as rd
        from dggsray.ops.cellify import regrid_majority
        t = pa.table({"cellid": pa.array(["N0", "N0", "N1"]),
                      "v": pa.array([v, v, 0], pa.int64())})
        with pytest.raises(Exception, match=r"ValueError: majority value out"):
            regrid_majority(rd.from_arrow(t), "v").take_all()


class TestKnnPrefixFallback:
    def test_fewer_rows_under_face_than_k(self, ray_session):
        """k=5 with only 2 cells sharing the query's face: the scan must fall
        back to the whole dataset, not return 2 rows."""
        import ray.data as rd
        from dggsray.ops.joins import knn_cells
        t = pa.table({"cellid": pa.array(
            ["R00", "R01", "N00", "N11", "N22", "O33", "P44"])})
        out = knn_cells(rd.from_arrow(t), "R00", k=5).take_all()
        assert len(out) == 5
        cells = [r["cellid"] for r in out]
        assert "R00" in cells and "R01" in cells


class TestBroadcastLookupJoin:
    def test_joins_on_key_col_not_first_column(self, ray_session):
        """Lookup table with the key NOT in first position (regression:
        joined against column 0 regardless of key_col)."""
        import ray.data as rd
        from dggsray.ops.joins import broadcast_lookup_join
        ds = rd.from_arrow(pa.table({
            "cellid": pa.array(["A", "B", "C"]),
            "x": pa.array([1, 2, 3], pa.int64())}))
        lookup = pa.table({
            "population": pa.array([10, 20], pa.int64()),
            "cellid": pa.array(["B", "C"])})
        out = broadcast_lookup_join(ds, lookup, key_col="cellid").take_all()
        by = {r["cellid"]: r["population"] for r in out}
        assert by == {"B": 10, "C": 20}

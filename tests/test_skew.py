"""Skewed-key groupby at bench scale.

100 TB runs hit Zipf-distributed keys; this exercises the adaptive groupby
(`ops/joins.sized_groupby`) and the majority regrid at ~2M rows with one key
owning half the data, asserting exact agreement with a numpy ground truth —
the partial-aggregation-before-shuffle design means the hot key collapses to
one row per block before any exchange, so skew cannot concentrate load.
"""
import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
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
        regrid_majority's argmax relies on.  `single_block_rows` is sized
        from the partial row count so the combine runs as 1, 2 and 5 hash
        parts (fewer when there are fewer partial rows), and the output
        blocks hold pairwise disjoint key sets."""
        import ray
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
        pieces = [t.slice(a, b - a) for a, b in zip(cuts[:-1], cuts[1:])]
        partial_rows = sum(len(np.unique(p.column("k"))) for p in pieces)
        cols = ["k", "sum", "min", "max", "count", "count_v", "best"]
        want = t.group_by("k").aggregate(
            [("v", "sum"), ("v", "min"), ("v", "max"), ([], "count_all"),
             ("v", "count"), ("score", "max")]) \
            .rename_columns(cols).sort_by("k")
        for parts in (1, 2, 5):
            single = -(-partial_rows // parts)
            out = sized_groupby(
                rd.from_arrow(pieces), "k", Sum("v", alias_name="sum"),
                Min("v", alias_name="min"), Max("v", alias_name="max"),
                Count(alias_name="count"),
                Count("v", ignore_nulls=True, alias_name="count_v"),
                Max("score", alias_name="best"), single_block_rows=single)
            key_sets = [set(b.column("k").to_pylist())
                        for b in ray.get(out.to_arrow_refs())]
            assert len(key_sets) == -(-partial_rows // single)
            assert sum(map(len, key_sets)) == len(set().union(*key_sets))
            got = pa.Table.from_pylist(out.take_all()).sort_by("k")
            for c in cols:
                assert got.column(c).to_pylist() == \
                    want.column(c).to_pylist(), (parts, c)

    @pytest.mark.parametrize("parts", [2, 5])
    def test_majority_argmax_over_hash_parts(self, ray_session, parts):
        """The in-block argmax over a multi-part (cell, value) count equals
        a pyarrow recomputation: max count per cell, ties to the smallest
        value."""
        import ray.data as rd
        from ray.data.aggregate import Count
        from dggsray.ops.cellify import _argmax_by_score
        from dggsray.ops.joins import sized_groupby

        rng = np.random.default_rng(parts)
        n = 20_000
        t = pa.table({
            "cellid": pa.array(np.char.add(
                "N", rng.integers(0, 700, n).astype("U4"))),
            "v": pa.array(rng.integers(-3, 4, n))})
        pieces = [t.slice(i, 2500) for i in range(0, n, 2500)]
        partial_rows = sum(p.group_by(["cellid", "v"]).aggregate([]).num_rows
                           for p in pieces)
        counts = sized_groupby(rd.from_arrow(pieces), ["cellid", "v"],
                               Count(alias_name="_cnt"),
                               single_block_rows=-(-partial_rows // parts))
        assert counts.num_blocks() == parts
        got = pa.concat_tables(
            _argmax_by_score(b, "cellid", "v", "majority_value")
            for b in counts.iter_batches(batch_format="pyarrow",
                                         batch_size=None))
        cnt = t.group_by(["cellid", "v"]).aggregate([([], "count_all")]) \
            .sort_by([("cellid", "ascending"), ("count_all", "descending"),
                      ("v", "ascending")])
        c = cnt.column("cellid").to_numpy(zero_copy_only=False)
        first = np.r_[True, c[1:] != c[:-1]]
        want = cnt.filter(pa.array(first))
        got = got.sort_by("cellid")
        assert got.column("cellid").to_pylist() == \
            want.column("cellid").to_pylist()
        assert got.column("majority_value").to_pylist() == \
            want.column("v").to_pylist()
        assert got.column("n").to_pylist() == \
            want.column("count_all").to_pylist()

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


class TestAggregationSpec:
    def test_other_aggregations_raise(self, ray_session):
        """Only Sum, Min, Max and Count decompose into the per-block
        partial; anything else fails loudly instead of taking a path
        without the one-block-per-first-key output contract."""
        import ray.data as rd
        from ray.data.aggregate import Mean
        from dggsray.ops.joins import sized_groupby

        ds = rd.from_arrow(pa.table({"k": [1, 1, 2], "v": [1.0, 2.0, 3.0]}))
        with pytest.raises(TypeError, match="Sum, Min, Max and Count"):
            sized_groupby(ds, "k", Mean("v"))

    @pytest.mark.parametrize("parts", [1, 3])
    def test_distinct_keys_then_in_block_count(self, ray_session, parts):
        """No aggregation gives the distinct key rows, and a per-block
        value_counts of the first key over them is COUNT(DISTINCT second)
        per first key: the chain shape of the distinct-user queries, over
        one and several hash parts."""
        import ray.data as rd
        from dggsray.ops.joins import sized_groupby

        rng = np.random.default_rng(parts)
        n = 3000
        t = pa.table({"a": rng.integers(0, 40, n), "b": rng.integers(0, 60, n)})
        pieces = [t.slice(i, 750) for i in range(0, n, 750)]
        partial_rows = sum(p.group_by(["a", "b"]).aggregate([]).num_rows
                           for p in pieces)
        pairs = sized_groupby(rd.from_arrow(pieces), ["a", "b"],
                              single_block_rows=-(-partial_rows // parts))
        assert len(pairs.to_arrow_refs()) == parts
        assert pairs.count() == len(set(zip(t.column("a").to_pylist(),
                                            t.column("b").to_pylist())))

        def per_a(b: pa.Table) -> pa.Table:
            vc = b.column("a").value_counts()
            return pa.table({"a": vc.field("values"), "n": vc.field("counts")})

        out = pairs.map_batches(per_a, batch_format="pyarrow",
                                batch_size=None).take_all()
        want = t.group_by("a").aggregate([("b", "count_distinct")])
        assert {r["a"]: r["n"] for r in out} == dict(zip(
            want.column("a").to_pylist(),
            want.column("b_count_distinct").to_pylist()))


class TestEmptyInput:
    @pytest.mark.parametrize("filtered", [False, True])
    def test_aggregations_return_no_rows(self, ray_session, filtered):
        """An empty input, or one filtered to nothing, gives 0 rows from
        sized_groupby, regrid_mean and regrid_majority (no combine over an
        empty list of partial blocks)."""
        import ray.data as rd
        from ray.data.aggregate import Count, Sum
        from dggsray.ops.cellify import regrid_majority, regrid_mean
        from dggsray.ops.joins import sized_groupby

        t = pa.table({"cellid": pa.array(["N01", "N02", "O11"]),
                      "v": pa.array([1, 2, 3], pa.int64())})
        ds = rd.from_arrow(t).filter(lambda r: r["v"] > 9) if filtered \
            else rd.from_arrow(t.slice(0, 0))
        assert sized_groupby(ds, "cellid", Sum("v", alias_name="s"),
                             Count(alias_name="n")).count() == 0
        assert regrid_mean(ds, "v", res=1).count() == 0
        assert regrid_majority(ds, "v", res=1).count() == 0

    @pytest.mark.parametrize("empty", ["typed", "schema-less", "no blocks"])
    def test_regrids_keep_their_output_columns(self, ray_session, empty):
        """An empty input gives 0 rows of the regrid's own output columns,
        typed when the input is; a schema-less 0-row block (a filter that
        kept nothing) or an input with no blocks at all is no error."""
        import ray
        import ray.data as rd
        from dggsray.ops.cellify import regrid_majority, regrid_mean

        t = pa.table({"cellid": pa.array(["N01", "N02", "O11"]),
                      "v": pa.array([1, 2, 3], pa.int64())})
        ds = {"typed": lambda: rd.from_arrow(t.slice(0, 0)),
              "schema-less": lambda: rd.from_arrow(t).filter(
                  lambda r: r["v"] > 9),
              "no blocks": lambda: rd.from_arrow_refs([])}[empty]()
        want = {"mean_value": pa.float64(), "majority_value": pa.int64()}
        for regrid, col in ((regrid_mean, "mean_value"),
                            (regrid_majority, "majority_value")):
            blocks = ray.get(regrid(ds, "v", res=1).to_arrow_refs())
            assert [b.num_rows for b in blocks] == [0]
            assert blocks[0].column_names == ["cellid", col, "n"]
            assert blocks[0].schema.field("n").type == pa.int64()
            if empty == "typed":
                assert blocks[0].schema.field("cellid").type == pa.string()
                assert blocks[0].schema.field(col).type == want[col]


@st.composite
def _regrid_case(draw):
    """(blocks, res, parts): 1-8 blocks of (cellid, v, cls) rows drawn from
    one pool of cells at resolutions 0-6, so cells repeat across blocks; v
    is int64 with nulls, cls a small signed class id; 0-row blocks too."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = np.array(["".join([rng.choice(list("NOPQRS"))]
                             + [str(d) for d in rng.integers(0, 9, r)])
                     for r in rng.integers(0, 7, rng.integers(1, 40))])
    blocks = []
    for _ in range(draw(st.integers(1, 8))):
        n = int(rng.integers(0, 80))
        v = rng.integers(-50, 50, n)
        blocks.append(pa.table({
            "cellid": pa.array(rng.choice(pool, n), pa.string()),
            "v": pa.array(v, pa.int64(), mask=rng.random(n) < 0.1),
            "cls": pa.array(rng.integers(-2, 5, n), pa.int64())}))
    res = draw(st.sampled_from([None, 0, 1, 2, 3, 5]))
    return blocks, res, draw(st.sampled_from([1, 2, 5]))


def _regrid_reference(t: pa.Table, res):
    """Single-process pyarrow regrids (as perfbench's regrid_reference)."""
    from dggsray.core.cells import truncate_to_resolution
    cells = t.column("cellid").to_numpy(zero_copy_only=False)
    if res is not None and cells.size:
        cells = truncate_to_resolution(cells, res)
    c = pa.array(cells, pa.string())
    g = pa.table({"cellid": c, "v": t.column("v")}).group_by("cellid") \
        .aggregate([("v", "sum"), ("v", "count")])
    mean = pa.table({"cellid": g.column("cellid"),
                     "mean_value": pc.divide(
                         g.column("v_sum"),
                         pc.cast(g.column("v_count"), pa.float64())),
                     "n": g.column("v_count")}).sort_by("cellid")
    cnt = pa.table({"cellid": c, "cls": t.column("cls")}) \
        .group_by(["cellid", "cls"]).aggregate([([], "count_all")]) \
        .sort_by([("cellid", "ascending"), ("count_all", "descending"),
                  ("cls", "ascending")])
    k = cnt.column("cellid").to_numpy(zero_copy_only=False)
    first = np.r_[np.ones(min(k.size, 1), bool), k[1:] != k[:-1]]
    maj = pa.table({"cellid": cnt.column("cellid"),
                    "majority_value": cnt.column("cls"),
                    "n": cnt.column("count_all")}).filter(pa.array(first))
    return mean, maj.sort_by("cellid")


class TestRegridProperty:
    @settings(max_examples=30, deadline=None)
    @given(case=_regrid_case())
    def test_regrids_equal_one_process_reference(self, ray_session, case):
        """regrid_mean and regrid_majority over several blocks, forced into
        P output blocks, equal a single-process pyarrow recomputation; each
        output block holds all rows of its cells, and Ray warns of no
        schema change between blocks."""
        import functools
        import logging

        import ray
        import ray.data as rd
        from dggsray.core.cells import truncate_to_resolution
        from dggsray.ops import joins
        from dggsray.ops.cellify import regrid_majority, regrid_mean

        blocks, res, parts = case
        table = pa.concat_tables(blocks)
        want_mean, want_maj = _regrid_reference(table, res)

        def partial_rows(keys):
            rows = 0
            for b in blocks:
                c = b.column("cellid").to_numpy(zero_copy_only=False)
                if res is not None and c.size:
                    c = truncate_to_resolution(c, res)
                rows += len({tuple(r) for r in zip(
                    c, *(b.column(k).to_pylist() for k in keys))})
            return rows

        warned = []
        handler = logging.Handler()
        handler.emit = lambda r: warned.append(r.getMessage())
        log = logging.getLogger(
            "ray.data._internal.execution.streaming_executor_state")
        log.addHandler(handler)
        try:
            for regrid, col, keys, want in (
                    (regrid_mean, "v", [], want_mean),
                    (regrid_majority, "cls", ["cls"], want_maj)):
                rows = partial_rows(keys)
                size = next((s for s in range(1, rows + 1)
                             if -(-rows // s) == parts), None)
                if size is None:          # fewer partial rows than parts
                    size, n_out = 8_000_000, 1
                else:
                    n_out = parts
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(joins, "sized_groupby", functools.partial(
                        joins.sized_groupby, single_block_rows=size))
                    out = regrid(rd.from_arrow(blocks), col, res=res)
                got = ray.get(out.to_arrow_refs())
                assert len(got) == n_out
                cells = [set(b.column("cellid").to_pylist()) for b in got]
                assert sum(map(len, cells)) == len(set().union(*cells))
                got = pa.concat_tables(got).sort_by("cellid")
                assert got.column_names == want.column_names
                for name in want.column_names:
                    assert got.column(name).to_pylist() == \
                        want.column(name).to_pylist(), name
        finally:
            log.removeHandler(handler)
        assert not [m for m in warned if "different schema" in m]


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

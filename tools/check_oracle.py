"""Side-by-side check of queries() vs oracle_sql() — local simulation of the
driver's correctness gate.  A query without an oracle passes only if every
value of its in-row check columns (`check_ok`, `*_ok`) is True.  Exits 1 on
any failure.  Usage: python tools/check_oracle.py [sf_dir] [query ...]"""
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def to_pandas(res):
    import pandas as pd
    import pyarrow as pa
    try:
        import ray.data
        if isinstance(res, ray.data.Dataset):
            return res.to_pandas()
    except ImportError:
        pass
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return pd.DataFrame(res)


def canon(df):
    df = df[sorted(df.columns)]
    return df.sort_values(by=list(df.columns)).reset_index(drop=True)


def in_row_check_failures(df) -> dict:
    """{column: rows not True} for each in-row check column (`check_ok` or
    any `*_ok`) of a query without an oracle that holds a non-True value."""
    out = {}
    for c in df.columns:
        if c == "check_ok" or c.endswith("_ok"):
            n = int((df[c] != True).sum())  # noqa: E712 (None counts too)
            if n:
                out[c] = n
    return out


def main(sf_dir: str, only: list[str] | None = None):
    import duckdb
    import pandas as pd
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as E

    con = duckdb.connect()
    for t in ("region nation customer supplier part orders lineitem events "
              "documents embeddings").split():
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM "
                f"read_parquet('{sf_dir}/{t}.parquet')")

    qs = E.queries()
    if only:
        qs = {k: v for k, v in qs.items() if k in only}
    oracles = E.oracle_sql()
    failures = 0
    for name, fn in qs.items():
        try:
            ours = canon(to_pandas(fn(sf_dir)))
        except Exception as ex:
            print(f"[FAIL-RUN ] {name}: {type(ex).__name__}: {ex}")
            failures += 1
            continue
        if name not in oracles:
            bad = in_row_check_failures(ours)
            if bad:
                print(f"[FAIL-CHECK] {name}: not True in {bad}")
                failures += 1
            else:
                print(f"[ROWS-ONLY] {name}: {len(ours)} rows, "
                      f"cols={list(ours.columns)}")
            continue
        try:
            theirs = canon(con.sql(oracles[name]).df())
        except Exception as ex:
            print(f"[FAIL-SQL ] {name}: {ex}")
            failures += 1
            continue
        if len(ours) != len(theirs):
            print(f"[MISMATCH ] {name}: rows {len(ours)} vs {len(theirs)}")
            failures += 1
            continue
        theirs = theirs.astype(ours.dtypes.to_dict(), errors="ignore")
        try:
            pd.testing.assert_frame_equal(ours, theirs, check_dtype=False)
            print(f"[OK       ] {name}: {len(ours)} rows match")
        except AssertionError as ex:
            print(f"[MISMATCH ] {name}: {str(ex).splitlines()[0]} ...")
            failures += 1
    ray.shutdown()
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.001",
         sys.argv[2:] or None)

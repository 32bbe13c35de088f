"""Contract tests for __ray_entry__ (no Ray session needed — pure dict checks).

The driver's CORRECTNESS_rNN.json records only the FIRST 50 queries() entries,
so every oracle-checked query must come before every rows-only query.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import __ray_entry__ as E


def test_oracled_queries_form_a_contiguous_prefix():
    q = list(E.queries())
    oracled = set(E.oracle_sql())
    assert oracled <= set(q), f"oracle_sql keys missing from queries: {oracled - set(q)}"
    idx = [i for i, k in enumerate(q) if k in oracled]
    assert idx == list(range(len(oracled))), (
        "oracle-checked queries must come first so the driver's 50-entry "
        "correctness window records only oracled rows; out-of-place keys: "
        f"{[q[i] for i in idx if i >= len(oracled)]}")


def test_first_fifty_queries_all_oracled():
    q = list(E.queries())
    oracled = set(E.oracle_sql())
    window = q[: min(50, len(q))]
    not_oracled = [k for k in window if k not in oracled]
    assert not not_oracled, f"rows-only queries inside the driver window: {not_oracled}"


def test_check_oracle_reads_in_row_checks():
    """tools/check_oracle.py fails a query without an oracle whose in-row
    check column (`check_ok` or any `*_ok`) holds a value other than True."""
    import pandas as pd

    from tools.check_oracle import in_row_check_failures

    ok = pd.DataFrame({"face": ["P", "Q"], "check_ok": [True, True],
                       "psnr_ok": [True, True], "looks": [False, False]})
    assert in_row_check_failures(ok) == {}
    bad = ok.assign(check_ok=[True, False], psnr_ok=[None, True])
    assert in_row_check_failures(bad) == {"check_ok": 1, "psnr_ok": 1}

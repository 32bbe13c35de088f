"""AUID optimizer checks that call no second optimizer: malformed CUIDs fail
loudly, and the optimized burn of real polygons satisfies the definition of
an optimal CUID set, checked with plain Python sets."""
import itertools

import pytest

from dggsray.core.auid import is_optimal_cuids, optimize_cuids
from dggsray.ops.vector2dggs import burn_polygons_to_cells
from dggsray.pipelines.flagship import synthetic_polygons

N_SIDE = 3
DIGITS = "012345678"


@pytest.mark.parametrize("bad", [["X12"], ["N1a"], [None], [""],
                                 ["N11", "S2", "N1-"], ["N11", None]])
def test_malformed_cuids_raise(bad):
    with pytest.raises(ValueError):
        optimize_cuids(bad, N_SIDE)
    with pytest.raises(ValueError):
        is_optimal_cuids(bad, N_SIDE)


def _expand(cuids, res):
    """Every res-`res` descendant of every CUID."""
    return {c + "".join(tail) for c in cuids
            for tail in itertools.product(DIGITS, repeat=res + 1 - len(c))}


def _complete_sibling_blocks(cuids):
    """Parents not in the set whose N_side^2 children are all in the set and
    all leaves (no other CUID extends them)."""
    cells = set(cuids)
    inner = {c[:i] for c in cells for i in range(1, len(c))}
    leaves = cells - inner
    parents = {c[:-1] for c in leaves if len(c) > 1}
    return {p for p in parents - cells
            if all(p + d in leaves for d in DIGITS)
            and not any(c[:-1] == p for c in inner)}


@pytest.mark.parametrize("seed", [3, 11])
def test_optimized_burn_meets_the_definition(seed):
    res = 5
    burned = burn_polygons_to_cells(synthetic_polygons(6, seed), res) \
        .column("cellid").to_pylist()
    opt = optimize_cuids(burned, N_SIDE)
    assert len(opt) < len(burned)           # the burn does collapse
    assert _expand(opt, res) == set(burned)
    assert not _complete_sibling_blocks(opt)
    assert opt == sorted(set(opt))

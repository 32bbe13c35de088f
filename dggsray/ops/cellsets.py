"""Distributed CUID-set operations: compaction (the AUID "optimize" pre-pass) and
area set algebra.

The reference optimizes CUID sets in a driver-side networkx trie, which is
O(cells) memory and minutes-slow at res 9 (auids/rhpx.py:108-181, timings
:116-118).  Here the collapse runs as a bottom-up loop of grouped aggregates —
one groupby(parent_prefix) per resolution level — so the set shrinks
distributedly and only the (small) residue ever reaches the integer pass of
core.auid (SURVEY.md section 2.8).  Semantics are identical to
core.auid.optimize_cuids: n_side^2 sibling LEAF cells with a non-terminal
parent collapse, iterated to fixpoint (equivalence-tested against
core.auid).
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..core.auid import optimize_cuids
from ..core.cells import explode_to_children
from ..core.rhpx import DEFAULT_GRID, GridConfig


def distributed_optimize(ds, n_side: int, cell_col: str = "cellid",
                         prefix_depth: int = 2) -> list[str]:
    """Compact a (possibly huge, possibly duplicated) cell-id Dataset to the
    area-equivalent minimal CUID list — semantics identical to
    core.auid.optimize_cuids (equivalence-tested, incl. the terminal-parent
    guard for duplicate-area inputs).

    Design (one shuffle, no driver materialization of the input):
      1. distinct cells (sized_groupby with no aggregation);
      2. cells deeper than `prefix_depth` are grouped by their depth-B prefix —
         sibling collapses NEVER cross a subtree boundary except by producing
         the prefix cell itself, so the exact optimizer runs independently
         per subtree (groupby + map_groups);
      3. a final exact driver pass over (per-subtree residues + the shallow
         cells, both small: residues are >=9x compacted or tiny, shallow is
         bounded by sum_{d<=B} 6*k^d) resolves cross-subtree collapses.
    The terminal-parent guard at the boundary is preserved by injecting the
    group's own prefix into the subtree optimize when it is itself present.
    The returned list is driver-side by contract (it feeds AUID generation),
    but only the final compacted residue ever reaches the driver."""
    from .joins import sized_groupby

    B = prefix_depth
    distinct = sized_groupby(ds, cell_col)

    def tag(b: pa.Table) -> pa.Table:
        arr = b.column(cell_col)
        return pa.table({cell_col: arr,
                         "_len": pc.utf8_length(arr),
                         "_prefix": pc.utf8_slice_codeunits(arr, 0, B + 1)})

    tagged = distinct.map_batches(tag, batch_format="pyarrow")
    shallow = set()
    for batch in tagged.filter(expr=f"_len <= {B + 1}") \
            .iter_batches(batch_format="pyarrow"):
        shallow.update(batch.column(cell_col).to_pylist())
    shallow_set = frozenset(shallow)

    def group_opt(g: pa.Table) -> pa.Table:
        cells = g.column(cell_col).to_pylist()
        prefix = cells[0][:B + 1]
        if prefix in shallow_set:
            cells.append(prefix)      # boundary terminal guard
        res = optimize_cuids(sorted(cells), n_side)
        return pa.table({cell_col: pa.array(res, pa.string())})

    residues = tagged.filter(expr=f"_len > {B + 1}") \
        .groupby("_prefix").map_groups(group_opt, batch_format="pyarrow")
    final = set()
    for batch in residues.iter_batches(batch_format="pyarrow"):
        final.update(batch.column(cell_col).to_pylist())
    return optimize_cuids(sorted(final | shallow_set), n_side)


def expand_to_resolution(ds, res: int, grid: GridConfig = DEFAULT_GRID,
                         cell_col: str = "cellid"):
    """Expand every cell to its descendants at exactly `res` (cells already at
    res pass through; deeper cells raise).  Vectorized level-by-level flat map."""
    def kernel(b: pa.Table) -> pa.Table:
        arr = np.asarray(b.column(cell_col).to_numpy(zero_copy_only=False),
                         dtype="U")
        if arr.size == 0:
            return pa.table({cell_col: pa.array([], pa.string())})
        lens = np.char.str_len(arr)
        if (lens > res + 1).any():
            raise ValueError("cells deeper than target resolution")
        out = [arr[lens == res + 1]]
        todo = arr[lens < res + 1]
        while todo.size:
            kids, _ = explode_to_children(todo, grid)
            done = np.char.str_len(kids) == res + 1
            out.append(kids[done])
            todo = kids[~done]
        return pa.table({cell_col: pa.array(np.concatenate(out), pa.string())})

    return ds.map_batches(kernel, batch_format="pyarrow")


def _flagged(ds, cell_col, in_a: bool):
    """(cell, _a, _b) rows: the side's presence indicators."""
    def kernel(b: pa.Table) -> pa.Table:
        n = b.num_rows
        return pa.table({cell_col: b.column(cell_col),
                         "_a": pa.array(np.full(n, in_a, np.int8)),
                         "_b": pa.array(np.full(n, not in_a, np.int8))})
    return ds.map_batches(kernel, batch_format="pyarrow")


def area_setop_flags(ds_a, ds_b, res: int, grid: GridConfig = DEFAULT_GRID,
                     cell_col: str = "cellid"):
    """One shared pass for ALL set operations: per-cell (in_a, in_b) presence
    flags at the common resolution.  Union/intersection/difference (and their
    cardinalities) are cheap filters/aggregates over this single grouped result
    — computing them does NOT re-expand or re-shuffle the inputs."""
    from ray.data.aggregate import Max

    a = _flagged(expand_to_resolution(ds_a, res, grid, cell_col), cell_col,
                 True)
    b = _flagged(expand_to_resolution(ds_b, res, grid, cell_col), cell_col,
                 False)

    from .joins import sized_groupby

    # one aggregation over both sides' rows: a cell's flags are the Max of
    # its rows' indicators
    return sized_groupby(a.union(b), cell_col, Max("_a", alias_name="in_a"),
                         Max("_b", alias_name="in_b"))


def area_setop(ds_a, ds_b, op: str, res: int, grid: GridConfig = DEFAULT_GRID,
               cell_col: str = "cellid"):
    """union / intersection / difference of two cell areas, computed at a common
    resolution via descendant expansion + one groupby with presence flags
    (SURVEY.md section 2.8: absent as reference operators, representable over
    CUID sets via rhpxutils.py:85-107 expansion)."""
    agg = area_setop_flags(ds_a, ds_b, res, grid, cell_col)

    if op == "union":
        expr = "in_a == 1 or in_b == 1"
    elif op == "intersection":
        expr = "in_a == 1 and in_b == 1"
    elif op == "difference":
        expr = "in_a == 1 and in_b == 0"
    else:
        raise ValueError(op)
    return agg.filter(expr=expr).select_columns([cell_col])

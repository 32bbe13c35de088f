"""Cell-hierarchy kernels: the scalar cellid functions of the reference
(/root/reference/dggstools/rhpx/rhpxutils.py:49-107) plus vectorized variants used
inside Ray Data map_batches stages (prefix truncation is the hot one — it is the key
of every regrid groupby and cell join)."""
from __future__ import annotations

import numpy as np

from .rhpx import GridConfig, DEFAULT_GRID


# --- scalar semantics (reference rhpxutils.py:49-107) ---

def cellid_resolution_idx(cellid: str) -> int:
    return len(cellid) - 1


def get_parent_cellid(cellid: str) -> str:
    return cellid[:-1] if len(cellid) > 1 else ""


def get_ascendant_cellid_at_resolution_idx(cellid: str, res: int) -> str | None:
    return cellid[: res + 1] if cellid_resolution_idx(cellid) > res else None


def get_ascendant_cellids_up_to_resolution_idx(cellid: str, res: int) -> list[str]:
    own = cellid_resolution_idx(cellid)
    if own <= res:
        return []
    return [cellid[: i + 1] for i in range(res, own)]


def get_children_cellids(cellid: str, grid: GridConfig = DEFAULT_GRID) -> list[str]:
    return [cellid + str(i) for i in range(grid.n_side ** 2)]


def get_descendant_cellids_at_resolution_idx(cellid: str, grid: GridConfig,
                                             res: int) -> list[str]:
    own = cellid_resolution_idx(cellid)
    if res <= own:
        return []
    cells = [cellid]
    for _ in range(res - own):
        cells = [c + str(i) for c in cells for i in range(grid.n_side ** 2)]
    return cells


def get_descendant_cellids_up_to_resolution_idx(cellid: str, grid: GridConfig,
                                                res: int) -> list[str]:
    out: list[str] = []
    for i in range(cellid_resolution_idx(cellid), res + 1):
        out.extend(get_descendant_cellids_at_resolution_idx(cellid, grid, i))
    return out


# --- vectorized kernels (numpy over string arrays / Arrow columns) ---

def truncate_to_resolution(cellids: np.ndarray, res: int) -> np.ndarray:
    """Vectorized ascendant-at-resolution: prefix of length res+1.  Cells at a coarser
    resolution than res are returned unchanged (they already cover the target cell)."""
    arr = np.asarray(cellids, dtype="U")
    # numpy unicode slicing: view trick via fixed-size recast
    itemsize = arr.dtype.itemsize // 4
    keep = res + 1
    if itemsize <= keep:
        return arr.copy()
    as_u32 = arr.view(np.uint32).reshape(arr.size, itemsize).copy()
    as_u32[:, keep:] = 0
    return as_u32.reshape(-1).view(f"U{itemsize}").reshape(arr.shape)


def explode_to_children(cellids: np.ndarray, grid: GridConfig = DEFAULT_GRID):
    """Vectorized flat-map cellids -> all children (n_side^2 rows per input).
    Returns (child_ids, parent_index) so callers can repeat sibling columns."""
    arr = np.asarray(cellids, dtype="U")
    k = grid.n_side ** 2
    digits = np.array([str(i) for i in range(k)], dtype="U1")
    parents = np.repeat(arr, k)
    kids = np.char.add(parents, np.tile(digits, arr.size))
    return kids, np.repeat(np.arange(arr.size), k)

"""vector -> rHEALPix cells: rasterize polygons onto the aligned DGGS lattice.

Ray-Data-native re-expression of the reference's vector_to_rhealpix
(/root/reference/dggstools/rhpx/vector_to_rhpx.py:84-163): feature-class extraction
(stateful string->int dictionary in first-seen feature order, floats rejected —
vector_to_rhpx.py:38-65), then burn polygons by class value with pixel-center
(= cell-center) even-odd containment, later features overwriting earlier ones
(rasterio burn order — paint order equals input order, SURVEY.md section 2.10c).

Scanline containment is vectorized numpy (no shapely in this environment); the
polygon list is broadcast once via ray.put and each map_batches task burns the
features of its batch, so the wide side (cells) streams while the vector side is a
small broadcast — the broadcast-small-side spatial join of SURVEY.md section 2.5.
"""
from __future__ import annotations

import math

import numpy as np
import pyarrow as pa

from ..core.rhpx import (DEFAULT_GRID, F, GridConfig, _parse_cellids,
                         align_point, cell_from_point, cell_keys_from_point,
                         cellids_to_arrow, project_fwd)


def _cellids_to_keys(cells: np.ndarray, res: int,
                     grid: GridConfig = DEFAULT_GRID) -> np.ndarray:
    """Fixed-resolution cellid strings -> the packed int64 keys
    `cell_keys_from_point` produces (face*side^2 + row*side + col), so
    membership indexes compare 8-byte integers instead of unicode."""
    face, col, row, _ = _parse_cellids(cells, grid)
    side = grid.n_side**res
    return face * side * side + row * side + col


def feature_class_values(classes, fixed_value: int | None = None) -> np.ndarray:
    """Class value per feature: ints (and int-convertible strings like '02')
    pass through int(), remaining strings get first-seen auto-increment ids
    starting at 1, floats are rejected — exactly the reference's
    _get_feature_class try-int-first chain (vector_to_rhpx.py:38-65, where
    int('02') -> 2 before the string dictionary is consulted)."""
    if fixed_value is not None:
        return np.full(len(classes), fixed_value, dtype=np.int64)
    out = np.empty(len(classes), dtype=np.int64)
    mapping: dict[str, int] = {}
    for i, v in enumerate(classes):
        if isinstance(v, (bool, np.bool_)):
            raise ValueError("bool class properties are not supported")
        if isinstance(v, (float, np.floating)):
            raise ValueError(
                "float class properties are not supported (reference "
                "vector_to_rhpx.py:55-57)")
        if isinstance(v, (int, np.integer)):
            out[i] = int(v)
        else:
            try:
                out[i] = int(v)       # TypeError: None / unsupported objects
                continue
            except (ValueError, TypeError):
                pass
            if v is None:
                raise ValueError("null class property is not supported")
            try:
                float(v)
            except ValueError:
                if v not in mapping:
                    mapping[v] = len(mapping) + 1
                out[i] = mapping[v]
                continue
            raise ValueError(
                "float class properties are not supported (reference "
                "vector_to_rhpx.py:55-57)")
    return out


def _ring_planar(ring_lonlat: np.ndarray, grid: GridConfig):
    x, y = project_fwd(ring_lonlat[:, 0], ring_lonlat[:, 1], grid)
    return np.column_stack([x, y])


def _points_in_ring(px: np.ndarray, py: np.ndarray, ring: np.ndarray) -> np.ndarray:
    """Vectorized even-odd crossing test: points (px,py) vs closed planar ring."""
    inside = np.zeros(px.shape[0], dtype=bool)
    x0, y0 = ring[:-1, 0], ring[:-1, 1]
    x1, y1 = ring[1:, 0], ring[1:, 1]
    for i in range(x0.shape[0]):
        xa, ya, xb, yb = x0[i], y0[i], x1[i], y1[i]
        if ya == yb:
            continue
        cond = ((ya > py) != (yb > py))
        xint = xa + (py - ya) * (xb - xa) / (yb - ya)
        inside ^= cond & (px < xint)
    return inside


def burn_polygons_to_cells(features: list[dict], res: int,
                           grid: GridConfig = DEFAULT_GRID,
                           all_touched: bool = False,
                           clip_to_cube: bool = False) -> pa.Table:
    """Burn a list of features onto the res lattice.  Each feature:
    {"feature_id": int, "value": int, "rings": [np.ndarray (k,2) lonlat, ...]}
    (first ring outer, rest holes — even-odd combines them for free).
    Returns (cellid, value) with paint-order semantics (later feature wins).
    all_touched=True additionally includes cells whose bounding box the ring's
    bbox-expanded edges touch (approximation of rasterio all_touched).

    clip_to_cube=True additionally mirrors the reference's explicit
    project_and_clip_to_rhealpix step before rasterization
    (vector_to_rhpx.py:224): rings Sutherland-Hodgman-clip to each
    resolution-0 face square and the even-odd test runs per face.  The
    reference NEEDS that step because rasterio burns onto a face-blind
    rectangular grid; here it is provably redundant — for any point p in
    face f, even-odd parity wrt the ring equals parity wrt ring ∩ f, and
    cell_from_point returns '' for points outside every face (dropped by
    the burn) — so both settings emit identical cells for ANY input,
    including polygons whose straight planar edges cross the unfolded
    cross's empty quadrants (equivalence pinned in test_project_clip)."""
    from .vectorwarp import clip_ring_to_box, rhealpix_face_boxes

    cw = grid.cell_width(res)
    painted: list[np.ndarray] = []
    values: list[np.ndarray] = []
    boxes = rhealpix_face_boxes(grid) if clip_to_cube else None
    for feat in features:
        rings = [_ring_planar(np.asarray(r, dtype=np.float64), grid)
                 for r in feat["rings"]]
        allpts = np.vstack(rings)
        left, right = allpts[:, 0].min(), allpts[:, 0].max()
        top, bottom = allpts[:, 1].max(), allpts[:, 1].min()
        left, top = align_point(left, top, res, grid)
        pad = 1 if all_touched else 0
        ncols = max(1, math.ceil((right - left) / cw)) + pad
        nrows = max(1, math.ceil((top - bottom) / cw)) + pad
        jj, ii = np.meshgrid(np.arange(ncols), np.arange(nrows))
        px = left + (jj.ravel() + 0.5) * cw
        py = top - (ii.ravel() + 0.5) * cw
        inside = np.zeros(px.shape[0], dtype=bool)
        closed = [np.vstack([r, r[:1]]) if not np.array_equal(r[0], r[-1]) else r
                  for r in rings]
        if clip_to_cube:
            for box in boxes:
                face_in = None
                for r in closed:
                    cr = clip_ring_to_box(r, box)
                    if cr.shape[0] < 3:
                        continue
                    hit = _points_in_ring(px, py, np.vstack([cr, cr[:1]]))
                    face_in = hit if face_in is None else face_in ^ hit
                if face_in is not None:
                    inside |= face_in
        else:
            for ring in closed:
                inside ^= _points_in_ring(px, py, ring)
        if all_touched:
            # include any cell whose center is within half a cell diagonal of an edge
            near = np.zeros(px.shape[0], dtype=bool)
            tol = cw * 0.5
            for ring in closed:
                for i in range(ring.shape[0] - 1):
                    ax, ay = ring[i]
                    bx, by = ring[i + 1]
                    dx, dy = bx - ax, by - ay
                    L2 = dx * dx + dy * dy
                    if L2 == 0:
                        continue
                    t = np.clip(((px - ax) * dx + (py - ay) * dy) / L2, 0, 1)
                    d2 = (px - (ax + t * dx)) ** 2 + (py - (ay + t * dy)) ** 2
                    near |= d2 <= tol * tol
            inside |= near
        if not inside.any():
            continue
        cells = cell_from_point(res, px[inside], py[inside], grid)
        cells = cells[cells != ""]
        painted.append(cells)
        values.append(np.full(cells.size, int(feat["value"]), dtype=np.int64))
    cells = np.concatenate(painted) if painted else np.zeros(0, "U1")
    if not cells.size:
        return pa.table({"cellid": pa.array([], pa.string()),
                         "value": pa.array([], pa.int64())})
    # paint order: rows in first-seen order, each valued by the last feature
    # that paints it (a stable sort keeps each cell's paints in input order)
    key = _cellids_to_keys(cells, res, grid)
    order = np.argsort(key, kind="stable")
    key = key[order]
    new = np.r_[True, key[1:] != key[:-1]]
    first = order[new]
    last = order[np.r_[new[1:], True]]
    rows = np.argsort(first)
    return pa.table({"cellid": cellids_to_arrow(cells[first[rows]], grid),
                     "value": np.concatenate(values)[last[rows]]})


def _supercover_cells(x0: float, y0: float, x1: float, y1: float,
                      left: float, top: float, cw: float) -> np.ndarray:
    """All lattice cells a planar segment passes through (GDAL all_touched line
    semantics): parametric crossings of the vertical and horizontal lattice
    lines, midpoint of each t-interval identifies its cell.  Fully vectorized
    per segment.  Returns (n, 2) planar points, one strictly inside each cell."""
    # segment in cell units
    cx0, cy0 = (x0 - left) / cw, (top - y0) / cw
    cx1, cy1 = (x1 - left) / cw, (top - y1) / cw
    dx, dy = cx1 - cx0, cy1 - cy0
    ts = [np.array([0.0, 1.0])]
    if dx != 0.0:
        ks = np.arange(math.ceil(min(cx0, cx1)), math.floor(max(cx0, cx1)) + 1)
        ts.append((ks - cx0) / dx)
    if dy != 0.0:
        ks = np.arange(math.ceil(min(cy0, cy1)), math.floor(max(cy0, cy1)) + 1)
        ts.append((ks - cy0) / dy)
    t = np.unique(np.clip(np.concatenate(ts), 0.0, 1.0))
    tm = (t[:-1] + t[1:]) / 2.0
    tm = tm[t[1:] > t[:-1]]
    if tm.size == 0:
        tm = np.array([0.5])
    mx = cx0 + tm * dx
    my = cy0 + tm * dy
    return np.column_stack([left + mx * cw, top - my * cw])


def burn_lines_to_cells(features: list[dict], res: int,
                        grid: GridConfig = DEFAULT_GRID) -> pa.Table:
    """Burn LineString features onto the res lattice with all_touched line
    semantics (every cell the line passes through), paint order = later feature
    wins — the reference's line rasterization path
    (/root/reference/dggstools/rhpx/vector_to_rhpx.py:562-563, rasterio
    rasterize(all_touched=True) for non-polygon geometries).  Each feature:
    {"feature_id": int, "value": int, "coords": np.ndarray (k,2) lonlat}."""
    cw = grid.cell_width(res)
    cell_to_val: dict = {}
    for feat in features:
        coords = np.asarray(feat["coords"], dtype=np.float64)
        x, y = project_fwd(coords[:, 0], coords[:, 1], grid)
        # the cell lattice is globally anchored at (-2F, 1.5F) with pitch cw
        # (core.rhpx.align_point invariant), so supercover traversal against
        # that lattice enumerates exactly the touched cells
        pts = [_supercover_cells(x[i], y[i], x[i + 1], y[i + 1],
                                 -2 * F, 1.5 * F, cw)
               for i in range(len(x) - 1)]
        if not pts:
            continue
        allp = np.vstack(pts)
        cells = cell_from_point(res, allp[:, 0], allp[:, 1], grid)
        val = int(feat["value"])
        for c in cells:
            if c:
                cell_to_val[c] = val
    if not cell_to_val:
        return pa.table({"cellid": pa.array([], pa.string()),
                         "value": pa.array([], pa.int64())})
    return pa.table({"cellid": pa.array(list(cell_to_val.keys()), pa.string()),
                     "value": pa.array(list(cell_to_val.values()), pa.int64())})


def polygons_to_cells_ds(features: list[dict], res: int,
                         grid: GridConfig = DEFAULT_GRID,
                         parallelism: int = 8):
    """Distributed burn: shard features across tasks, resolve paint order globally
    by keeping the highest feature_id per cell (equivalent to sequential overwrite
    because ids are insertion-ordered)."""
    import ray
    import ray.data as rd

    ordered = sorted(features, key=lambda f: f["feature_id"])
    for rank, f in enumerate(ordered):
        f["_rank"] = rank
    feats_ref = ray.put(ordered)
    n = max(1, min(parallelism, len(ordered)))

    def burn_shard(batch: pa.Table) -> pa.Table:
        shard = batch.column("id").to_numpy()
        feats = ray.get(feats_ref)
        mine = [f for f in feats if f["_rank"] % n in shard]
        tabs = []
        for f in mine:
            t = burn_polygons_to_cells([f], res, grid)
            tabs.append(t.append_column(
                "_rank", pa.array(np.full(t.num_rows, f["_rank"]), pa.int64())))
        if not tabs:
            return pa.table({"cellid": pa.array([], pa.string()),
                             "value": pa.array([], pa.int64()),
                             "_rank": pa.array([], pa.int64())})
        return pa.concat_tables(tabs)

    shards = rd.range(n, override_num_blocks=n).map_batches(
        burn_shard, batch_format="pyarrow", batch_size=1)

    # paint order: per cell keep the value of the max rank — packed into one
    # int64 score so the reduction is a native vectorized Max (no per-cell
    # Python call)
    from ray.data.aggregate import Max
    K = 1 << 21

    def encode(b: pa.Table) -> pa.Table:
        v = b.column("value").to_numpy()
        if v.size and (v.min() < 0 or v.max() >= K):
            raise ValueError(f"burn value out of [0, {K}) for packed paint order")
        score = b.column("_rank").to_numpy() * K + v
        return pa.table({"cellid": b.column("cellid"),
                         "_score": pa.array(score, pa.int64())})

    from .joins import sized_groupby
    best = sized_groupby(shards.map_batches(encode, batch_format="pyarrow"),
                         "cellid", Max("_score", alias_name="_score"))

    def decode(b: pa.Table) -> pa.Table:
        s = b.column("_score").to_numpy()
        return pa.table({"cellid": b.column("cellid"),
                         "value": pa.array(s % K, pa.int64())})

    return best.map_batches(decode, batch_format="pyarrow")


def vector_to_optimal_cuids(source, res: int, grid: GridConfig = DEFAULT_GRID,
                            property_for_class: str | None = None,
                            fixed_value: int = 1, layer: str | None = None,
                            all_touched: bool = False,
                            with_auid: bool = False):
    """Vector area -> area-equivalent MINIMAL CUID set (variable-resolution
    cover): burn at the deepest resolution, then collapse complete sibling
    groups bottom-up.  The reference keeps a slow direct recursion for this
    (_vector_to_optimal_set_of_cuids, vector_to_rhpx.py:263-385) but itself
    notes rasterize-then-optimize is faster — that is exactly this composite.
    `source` is a vector file path (GeoJSON/SHP/GPKG) or a pre-loaded feature
    list.  Returns sorted optimal CUIDs, or (cuids, compressed_auid_b64,
    hash_b64) with with_auid=True (generate_bp_auid_from_cuids,
    auids/common.py:180-213)."""
    from ..core.auid import optimize_cuids

    if isinstance(source, str):
        from ..cli import _load_geojson_features
        feats = _load_geojson_features(source, property_for_class,
                                       fixed_value, layer=layer)
    else:
        feats = source
    t = burn_polygons_to_cells(feats, res, grid, all_touched=all_touched)
    cuids = sorted(set(t.column("cellid").to_pylist()))
    optimal = optimize_cuids(cuids, grid.n_side)
    if not with_auid:
        return optimal
    from ..core.auid import generate_bp_auid_from_cuids
    _auid, _hash, hash_b64, _comp, comp_b64, _ids = \
        generate_bp_auid_from_cuids(optimal)
    return optimal, comp_b64, hash_b64


class PolygonProbe:
    """Prepared-geometry point-in-polygon probe — the north-star's
    'point-in-polygon tests via prepared-geometry STRtree probes'
    re-expressed DGGS-first.  Build once per polygon set (driver, or actor
    __init__ for map_batches pools), probe per batch:

      * interior cells = center-cover MINUS the boundary supercover.  A cell
        the boundary never enters is wholly inside or wholly outside, decided
        by its center — so points in interior cells accept with ONE sorted-
        array membership test, no geometry math;
      * points in boundary-supercover cells refine with the exact vectorized
        even-odd kernel against the planar rings;
      * points in neither set are outside.

    Exact (up to float64), not cover-approximate: the only geometry work is
    the boundary-cell minority, which shrinks as res grows — the DGGS cover
    plays the role an STRtree plays for prepared shapely geometries, and the
    two sorted cell arrays broadcast in O(cover) bytes."""

    def __init__(self, rings_lonlat: list, res: int,
                 grid: GridConfig = DEFAULT_GRID):
        rings = [np.asarray(r, dtype=np.float64) for r in rings_lonlat]
        cover = burn_polygons_to_cells(
            [{"feature_id": 1, "value": 1, "rings": rings}], res, grid)
        cover_cells = cover.column("cellid").to_numpy(zero_copy_only=False)
        closed = [np.vstack([r, r[:1]])
                  if not np.array_equal(r[0], r[-1]) else r for r in rings]
        bound = burn_lines_to_cells(
            [{"feature_id": i, "value": 1, "coords": r}
             for i, r in enumerate(closed)], res, grid)
        bcells = bound.column("cellid").to_numpy(zero_copy_only=False)
        self.boundary = np.unique(bcells)
        self.interior = np.setdiff1d(np.sort(cover_cells), self.boundary)
        self.res = res
        self.grid = grid
        self.planar_rings = [_ring_planar(r, grid) for r in closed]
        self.n_refined = 0        # probe-side stats: exact-kernel points
        self.n_fast = 0           # accepted/rejected by cell membership only

    def planar_vertices(self):
        """Planar ring vertex arrays — share with an external oracle so both
        sides test against the identical polygon."""
        return [r.copy() for r in self.planar_rings]

    def contains_lonlat(self, lon: np.ndarray, lat: np.ndarray) -> np.ndarray:
        px, py = project_fwd(np.asarray(lon, np.float64),
                             np.asarray(lat, np.float64), self.grid)
        cells = cell_from_point(self.res, px, py, self.grid)
        inside = np.zeros(len(px), dtype=bool)
        inside[np.isin(cells, self.interior)] = True
        ref = np.isin(cells, self.boundary)
        self.n_refined += int(ref.sum())
        self.n_fast += int(len(px) - ref.sum())
        if ref.any():
            sub = np.zeros(int(ref.sum()), dtype=bool)
            for ring in self.planar_rings:
                sub ^= _points_in_ring(px[ref], py[ref], ring)
            inside[ref] = sub
        return inside


class RegionAssigner:
    """Exact many-polygon point assignment (spatial join: point -> containing
    feature_id, paint order = later feature wins on overlap, -1 outside).

    Scales to thousands of features through a GLOBAL cell -> candidate
    index (the DGGS stand-in for the north-star's STRtree): per feature
    the interior/boundary covers are burned once, then collapsed into

      * a sorted unique interior-cell array carrying the MAX paint
        position per cell (overlapping interiors pre-resolve at build);
      * a (cell, paint-position)-sorted boundary candidate array.

    Per batch the work is two searchsorted probes plus the exact
    even-odd kernel for ONLY the (point, candidate-feature) pairs whose
    cell lies on that feature's boundary AND whose paint position can
    still win — O(points + touched candidates), independent of the
    total feature count.  Features: [{"feature_id": int, "rings":
    [lonlat ring, ...]}] with even-odd hole semantics per feature."""

    def __init__(self, features: list[dict], res: int,
                 grid: GridConfig = DEFAULT_GRID):
        self.res = res
        self.grid = grid
        self.n_refined = 0
        self.n_fast = 0
        self.pos2fid = np.array([int(f["feature_id"]) for f in features],
                                dtype=np.int64)
        self.rings_by_pos: list[list[np.ndarray]] = []
        int_cells, int_pos = [], []
        bnd_cells, bnd_pos = [], []
        for pos, f in enumerate(features):
            probe = PolygonProbe(f["rings"], res, grid)
            self.rings_by_pos.append(probe.planar_rings)
            int_cells.append(probe.interior)
            int_pos.append(np.full(probe.interior.size, pos, np.int64))
            bnd_cells.append(probe.boundary)
            bnd_pos.append(np.full(probe.boundary.size, pos, np.int64))
        ic = _cellids_to_keys(
            np.concatenate(int_cells) if int_cells else np.zeros(0, "U1"),
            res, grid)
        ip = np.concatenate(int_pos) if int_pos else np.zeros(0, np.int64)
        # collapse overlapping interiors: keep max position per cell
        order = np.lexsort((ip, ic))          # cell asc, position asc
        ic, ip = ic[order], ip[order]
        last = np.ones(ic.size, dtype=bool)
        last[:-1] = ic[1:] != ic[:-1]         # last dup = max position
        self.int_cells = ic[last]
        self.int_best = ip[last]
        bc = _cellids_to_keys(
            np.concatenate(bnd_cells) if bnd_cells else np.zeros(0, "U1"),
            res, grid)
        bp = np.concatenate(bnd_pos) if bnd_pos else np.zeros(0, np.int64)
        order = np.lexsort((bp, bc))
        self.bnd_cells = bc[order]
        self.bnd_pos = bp[order]
        # flat per-feature edge table (horizontal edges dropped, exactly
        # as _points_in_ring skips them) so boundary refinement runs as
        # ONE vectorized pair-edge crossing count, no per-feature loop
        ex0, ey0, ex1, ey1 = [], [], [], []
        eoff = np.zeros(len(features) + 1, dtype=np.int64)
        for pos, rings in enumerate(self.rings_by_pos):
            for ring in rings:
                a, b = ring[:-1], ring[1:]
                m = a[:, 1] != b[:, 1]
                ex0.append(a[m, 0])
                ey0.append(a[m, 1])
                ex1.append(b[m, 0])
                ey1.append(b[m, 1])
            eoff[pos + 1] = eoff[pos] + sum(
                x.size for x in ex0[len(ex0) - len(rings):])
        z = np.zeros(0, np.float64)
        self.ex0 = np.concatenate(ex0) if ex0 else z
        self.ey0 = np.concatenate(ey0) if ey0 else z
        self.ex1 = np.concatenate(ex1) if ex1 else z
        self.ey1 = np.concatenate(ey1) if ey1 else z
        self.eoff = eoff

    def assign_lonlat(self, lon: np.ndarray,
                      lat: np.ndarray) -> np.ndarray:
        px, py = project_fwd(np.asarray(lon, np.float64),
                             np.asarray(lat, np.float64), self.grid)
        cells = cell_keys_from_point(self.res, px, py, self.grid)
        n = len(px)
        best = np.full(n, -1, dtype=np.int64)     # winning paint position
        # interior hits: one membership probe, pre-collapsed winner
        if self.int_cells.size:
            i = np.searchsorted(self.int_cells, cells)
            i_c = np.minimum(i, self.int_cells.size - 1)
            m = self.int_cells[i_c] == cells
            best[m] = self.int_best[i_c[m]]
        # boundary candidates: (point, position) pairs via range probe
        if self.bnd_cells.size:
            lo = np.searchsorted(self.bnd_cells, cells, side="left")
            hi = np.searchsorted(self.bnd_cells, cells, side="right")
            cnt = hi - lo
            total = int(cnt.sum())
            self.n_refined += total
            self.n_fast += n - int((cnt > 0).sum())
            if total:
                pts = np.repeat(np.arange(n), cnt)
                starts = np.repeat(lo, cnt)
                offs = np.arange(total) - np.repeat(
                    np.cumsum(cnt) - cnt, cnt)
                ppos = self.bnd_pos[starts + offs]
                keep = ppos > best[pts]
                pts, ppos = pts[keep], ppos[keep]
                if pts.size:
                    # one flat pair-edge expansion: crossing count per
                    # (point, feature) pair, parity = even-odd inside
                    ec = self.eoff[ppos + 1] - self.eoff[ppos]
                    tot = int(ec.sum())
                    pe = np.repeat(np.arange(pts.size), ec)
                    ei = np.repeat(self.eoff[ppos], ec) + (
                        np.arange(tot) - np.repeat(np.cumsum(ec) - ec, ec))
                    pxv, pyv = px[pts[pe]], py[pts[pe]]
                    ya, yb = self.ey0[ei], self.ey1[ei]
                    cond = (ya > pyv) != (yb > pyv)
                    with np.errstate(divide="ignore", invalid="ignore"):
                        xint = self.ex0[ei] + (pyv - ya) \
                            * (self.ex1[ei] - self.ex0[ei]) / (yb - ya)
                    cross = cond & (pxv < xint)
                    odd = np.bincount(pe[cross],
                                      minlength=pts.size) % 2 == 1
                    np.maximum.at(best, pts[odd], ppos[odd])
        fid = np.full(n, -1, dtype=np.int64)
        won = best >= 0
        fid[won] = self.pos2fid[best[won]]
        return fid

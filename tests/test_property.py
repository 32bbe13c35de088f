"""Property-based invariants (hypothesis) over the pure-numpy core.

These complement the golden tests: goldens pin exact reference values on a few
inputs, properties pin the ALGEBRA on thousands of generated ones — cell
assignment is a function of position, packing preserves lexicographic order,
AUID encode/decode is lossless, compaction preserves covered area.  No Ray
session needed: everything here is driver-side math.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dggsray.core.auid import (generate_bp_auid_from_cuids,
                               generate_cuids_from_bp_auid, is_optimal_cuids,
                               optimize_cuids)
from dggsray.core.cells import (get_descendant_cellids_at_resolution_idx,
                                truncate_to_resolution)
from dggsray.core.rhpx import (DEFAULT_GRID, cell_centroid, cells_from_lonlat,
                               pack_cellids, unpack_cellids)

# rHEALPix cellids: face letter + up to 6 digits 0..8 (n_side=3)
_cell = st.text(alphabet="012345678", min_size=0, max_size=6) \
    .flatmap(lambda d: st.sampled_from("NOPQRS").map(lambda f: f + d))

_lon = st.floats(min_value=-179.9, max_value=179.9,
                 allow_nan=False, allow_infinity=False)
_lat = st.floats(min_value=-89.9, max_value=89.9,
                 allow_nan=False, allow_infinity=False)


class TestCellAssignment:
    @settings(max_examples=200, deadline=None)
    @given(lon=_lon, lat=_lat, res=st.integers(min_value=0, max_value=8))
    def test_centroid_maps_back_to_its_own_cell(self, lon, lat, res):
        """cells_from_lonlat is idempotent through the cell centroid: the
        planar centroid of an assigned cell lies in THAT cell (the invariant
        the pixel-explode verify step relies on)."""
        from dggsray.core.rhpx import cell_from_point, project_fwd
        c = cells_from_lonlat(res, np.array([lon]), np.array([lat]))[0]
        cx, cy = cell_centroid([c], DEFAULT_GRID)
        c2 = cell_from_point(res, cx, cy, DEFAULT_GRID)[0]
        assert c2 == c

    @settings(max_examples=200, deadline=None)
    @given(lon=_lon, lat=_lat,
           res=st.integers(min_value=1, max_value=8),
           up=st.integers(min_value=0, max_value=7))
    def test_coarser_assignment_is_prefix(self, lon, lat, res, up):
        """Assigning at a coarser resolution equals truncating the finer
        cellid — the hierarchy property every rollup aggregate builds on."""
        coarse_res = min(up, res)
        lo = np.array([lon]); la = np.array([lat])
        fine = cells_from_lonlat(res, lo, la)[0]
        coarse = cells_from_lonlat(coarse_res, lo, la)[0]
        assert fine[:coarse_res + 1] == coarse
        assert truncate_to_resolution(np.array([fine]), coarse_res)[0] == coarse


    @settings(max_examples=200, deadline=None)
    @given(cells=st.lists(_cell, min_size=1, max_size=40),
           res=st.integers(min_value=0, max_value=7))
    def test_arrow_prefix_slice_equals_truncate(self, cells, res):
        """The Arrow kernel the engine truncates cell columns with equals
        truncate_to_resolution on mixed resolutions: finer cells are cut to
        res+1 characters, coarser ones pass through unchanged."""
        import pyarrow as pa
        import pyarrow.compute as pc
        got = pc.utf8_slice_codeunits(pa.array(cells, pa.string()), 0, res + 1)
        assert got.to_pylist() == \
            truncate_to_resolution(np.array(cells), res).tolist()


class TestPackedOrder:
    @settings(max_examples=100, deadline=None)
    @given(cells=st.lists(_cell, min_size=2, max_size=40))
    def test_pack_order_equals_lexicographic(self, cells):
        """Packed-int sort order == python string sort order (the claim that
        lets the engine sort cellids as int64)."""
        arr = np.array(cells)
        face, path, res = pack_cellids(arr)
        # same resolution required for a meaningful single-key comparison:
        # pad by grouping per resolution
        for r in np.unique(res):
            m = res == r
            sub = arr[m]
            order = np.lexsort((path[m], face[m]))   # face major, then path
            assert list(sub[order]) == sorted(sub)

    @settings(max_examples=100, deadline=None)
    @given(cells=st.lists(_cell, min_size=1, max_size=30))
    def test_pack_unpack_roundtrip(self, cells):
        arr = np.array(cells)
        face, path, res = pack_cellids(arr)
        back = unpack_cellids(face, path, res)
        assert list(back) == cells


class TestAuidRoundtrip:
    @settings(max_examples=100, deadline=None)
    @given(cells=st.sets(_cell, min_size=1, max_size=25))
    def test_bp_auid_roundtrips_sorted_cuids(self, cells):
        cuids = sorted(cells)
        auid = generate_bp_auid_from_cuids(cuids)[0]
        assert generate_cuids_from_bp_auid(auid) == cuids


class TestOptimizeCuids:
    @settings(max_examples=60, deadline=None)
    @given(cells=st.sets(_cell, min_size=1, max_size=20))
    def test_optimize_preserves_area_and_is_optimal(self, cells):
        """Compaction never changes the covered area (expansion to the
        deepest input resolution is set-equal) and its output passes the
        optimality predicate."""
        cuids = sorted(cells)
        opt = optimize_cuids(cuids, 3)
        assert is_optimal_cuids(opt, 3)
        deep = max(len(c) for c in cuids) - 1

        def expand(cs):
            out = set()
            for c in cs:
                out.update(get_descendant_cellids_at_resolution_idx(
                    c, DEFAULT_GRID, deep))
            return out

        assert expand(opt) == expand(cuids)


# --- reference copy of the former dict-trie AUID code (optimize_cuids,
# is_optimal_cuids, the BP encoder), kept here as the equivalence oracle ---

class _Node(dict):
    __slots__ = ("term",)

    def __init__(self):
        super().__init__()
        self.term = False


def _build_trie(cuids):
    root = _Node()
    for cuid in sorted(cuids):
        node = root
        for ch in cuid:
            nxt = node.get(ch)
            if nxt is None:
                nxt = node[ch] = _Node()
            node = nxt
        node.term = True
    return root


def _trie_to_ids(root):
    out, stack = [], [(root, "")]
    while stack:
        node, prefix = stack.pop()
        if node.term:
            out.append(prefix)
        for ch in node:
            stack.append((node[ch], prefix + ch))
    return sorted(out)


def _trie_bp(root, pars, root_name, nil_name, with_opening_par):
    op = pars[0] if with_opening_par else ""
    cl = pars[1]
    parts = [op, root_name]

    def emit(node, ch):
        parts.append(op)
        parts.append(ch)
        if node.term:
            parts.extend((op, nil_name, cl))
        for c in node:
            emit(node[c], c)
        parts.append(cl)

    for c in root:
        emit(root[c], c)
    parts.append(cl)
    return "".join(parts)


def _trie_auid(cuids, pars, with_opening_par, with_trailing_pars):
    auid = _trie_bp(_build_trie(cuids), pars, "^", "$", with_opening_par)
    return auid if with_trailing_pars else auid[: auid.rfind("$") + 1]


def _collapsible(node, k):
    return (not node.term and len(node) == k
            and all(v.term and not v for v in node.values()))


def _trie_optimize(cuids, n_side):
    root = _build_trie(cuids)
    k = n_side * n_side
    changed = True
    while changed:
        changed = False
        stack = [(root, True, False)]
        while stack:
            node, is_root, processed = stack.pop()
            if not processed:
                stack.append((node, is_root, True))
                stack.extend((node[c], False, False) for c in node)
            elif not is_root and _collapsible(node, k):
                node.clear()
                node.term = True
                changed = True
    return _trie_to_ids(root)


def _trie_is_optimal(cuids, n_side):
    k = n_side * n_side
    stack = [(_build_trie(cuids), True)]
    while stack:
        node, is_root = stack.pop()
        if not is_root and _collapsible(node, k):
            return False
        stack.extend((node[c], False) for c in node)
    return True


@st.composite
def _mixed_cuid_sets(draw):
    """(n_side, CUIDs): random mixed-resolution ids plus full sibling blocks
    (some nested two levels deep, some under a terminal parent, some missing a
    child, some with an extra child or grandchild) and duplicates, over 0-based, 1-based or wider-than-n_side^2 digit
    alphabets."""
    n_side = draw(st.sampled_from((2, 3)))
    k = n_side * n_side
    alphabet = draw(st.sampled_from(
        ("0123456789"[:k], "123456789"[:k], "0123456789"[:k + 1])))
    cuid = st.tuples(st.sampled_from("NOPQRS"),
                     st.text(alphabet, max_size=3)).map("".join)
    cells = draw(st.lists(cuid, max_size=12))
    for parent in draw(st.lists(cuid, max_size=3)):
        block = [parent]
        for _ in range(draw(st.integers(1, 2))):
            block = [b + d for b in block for d in alphabet[:k]]
        if draw(st.booleans()):
            block.pop(draw(st.integers(0, len(block) - 1)))
        if draw(st.booleans()):
            block.append(parent)
        if draw(st.booleans()):     # one more child, or a grandchild
            block.append(parent + alphabet[-1] + draw(st.text(alphabet,
                                                              max_size=1)))
        cells += block
    if cells:
        cells += draw(st.lists(st.sampled_from(cells), max_size=5))
    return n_side, draw(st.permutations(cells))


class TestTrieEquivalence:
    """The integer-key optimizer and the sorted-walk BP codec equal the former
    dict-trie implementation on mixed-resolution sets."""

    @settings(max_examples=300, deadline=None)
    @given(case=_mixed_cuid_sets())
    def test_optimize_and_is_optimal_match_trie(self, case):
        n_side, cells = case
        assert optimize_cuids(cells, n_side) == _trie_optimize(cells, n_side)
        assert is_optimal_cuids(cells, n_side) == \
            _trie_is_optimal(cells, n_side)

    @settings(max_examples=150, deadline=None)
    @given(case=_mixed_cuid_sets())
    def test_bp_matches_trie_and_decodes(self, case):
        _, cells = case
        for pars in ("¿?", "()"):
            for wop in (True, False):
                for wtp in (True, False):
                    auid, *_, ids = generate_bp_auid_from_cuids(
                        cells, pars, with_opening_par=wop,
                        with_trailing_pars=wtp)
                    assert auid == _trie_auid(cells, pars, wop, wtp)
                    assert ids == sorted(set(cells))
                    assert generate_cuids_from_bp_auid(
                        auid, pars, with_opening_par=wop,
                        with_trailing_pars=wtp) == sorted(set(cells))

    def test_ids_longer_than_int64_keys(self):
        """Past 19 chars the keys leave int64; the result must not change."""
        cells = ["N" + "1" * 20 + d for d in "0123"] + ["S" + "0" * 22]
        assert optimize_cuids(cells, 2) == _trie_optimize(cells, 2) == \
            ["N" + "1" * 20, "S" + "0" * 22]


class TestProjectionProperties:
    @settings(max_examples=200, deadline=None)
    @given(lon=_lon, lat=_lat)
    def test_forward_inverse_roundtrip(self, lon, lat):
        """project_inv(project_fwd(p)) == p to sub-meter angular tolerance
        everywhere off the exact cap seams."""
        x, y = __import__("dggsray.core.rhpx", fromlist=["project_fwd"]) \
            .project_fwd(np.array([lon]), np.array([lat]))
        from dggsray.core.rhpx import project_inv
        lo, la = project_inv(x, y)
        # wrap-safe longitude compare (degenerate at the poles)
        dlon = (lo[0] - lon + 180.0) % 360.0 - 180.0
        assert abs(la[0] - lat) < 1e-5
        if abs(lat) < 89.0:
            assert abs(dlon) < 1e-5

    @settings(max_examples=100, deadline=None)
    @given(lon1=_lon, lat1=_lat, lon2=_lon, lat2=_lat)
    def test_geodesic_distance_symmetric_and_bounded(self, lon1, lat1,
                                                     lon2, lat2):
        from dggsray.core.geodesy import geodesic_distance
        d1 = geodesic_distance(lon1, lat1, lon2, lat2)
        d2 = geodesic_distance(lon2, lat2, lon1, lat1)
        assert d1 >= 0
        assert abs(d1 - d2) <= max(1e-6 * max(d1, 1.0), 1e-6)
        assert d1 < 20_100_000        # no geodesic exceeds half meridian + slack


class TestCellGeometryProperties:
    @settings(max_examples=200, deadline=None)
    @given(lon=_lon, lat=_lat, res=st.integers(min_value=0, max_value=7))
    def test_point_inside_its_cell_box(self, lon, lat, res):
        """Ownership convention: a point's cell has upper-left vertex with
        ul_x <= x < ul_x + w and ul_y - w < y <= ul_y (left/top edges owned,
        right/bottom belong to the neighbor) — what the pixel explode and
        cells2raster scatter both rely on."""
        from dggsray.core.rhpx import (cell_from_point, cell_ul_vertex,
                                       project_fwd)
        x, y = project_fwd(np.array([lon]), np.array([lat]))
        c = cell_from_point(res, x, y)[0]
        ulx, uly = cell_ul_vertex([c])
        w = DEFAULT_GRID.cell_width(res)
        eps = w * 1e-9
        assert ulx[0] - eps <= x[0] < ulx[0] + w + eps
        assert uly[0] - w - eps < y[0] <= uly[0] + eps

    @settings(max_examples=200, deadline=None)
    @given(lon=_lon, lat=_lat, res=st.integers(min_value=0, max_value=7))
    def test_align_point_idempotent_and_near(self, lon, lat, res):
        """align_point snaps to the res lattice: idempotent, and never moves
        a point more than half a cell width per axis."""
        from dggsray.core.rhpx import align_point, project_fwd
        x, y = project_fwd(np.array([lon]), np.array([lat]))
        ax, ay = align_point(float(x[0]), float(y[0]), res)
        w = DEFAULT_GRID.cell_width(res)
        assert abs(ax - x[0]) <= w / 2 + 1e-6
        assert abs(ay - y[0]) <= w / 2 + 1e-6
        ax2, ay2 = align_point(ax, ay, res)
        assert abs(ax2 - ax) < 1e-6 and abs(ay2 - ay) < 1e-6


class TestTextKernelRobustness:
    """Arbitrary unicode through the batch text kernels: no exceptions, sane
    integer invariants.  Surrogates are excluded (not encodable to utf-8 —
    Arrow string columns cannot carry them either)."""

    _text = st.text(
        alphabet=st.characters(blacklist_categories=("Cs",)),
        min_size=0, max_size=400)

    @settings(max_examples=150, deadline=None)
    @given(texts=st.lists(_text, min_size=1, max_size=8))
    def test_quality_metrics_never_raise(self, texts):
        import pyarrow as pa
        from dggsray.ops.text import quality_metrics_batch
        b = pa.table({"text": pa.array(texts, pa.string())})
        out = quality_metrics_batch(b)
        n_tok = out.column("n_tokens").to_numpy()
        n_ch = out.column("n_chars").to_numpy()
        assert (n_tok >= 1).all()          # split of "" yields [""] = 1 token
        assert (out.column("n_punct").to_numpy() <= n_ch).all()
        assert (out.column("n_digits").to_numpy() <= n_ch).all()
        assert (out.column("max_token_len").to_numpy() >= 0).all()

    @settings(max_examples=150, deadline=None)
    @given(text=_text)
    def test_lang_shingles_winnowing_never_raise(self, text):
        from dggsray.ops.dedup import shingle_set
        from dggsray.ops.text import detect_language, winnowing_fingerprint
        lang, conf = detect_language(text)
        assert isinstance(lang, str) and 0.0 <= conf <= 1.0
        raw = text.encode("utf-8", "ignore")
        for unit in ("word", "char"):
            h = shingle_set(raw, 3, unit)
            assert h.dtype == np.uint64 and h.size >= 0
        fp = winnowing_fingerprint(raw)
        assert fp.dtype == np.uint64

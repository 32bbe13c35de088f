"""Core rHEALPix math vs the reference's golden values and committed fixtures.

Goldens ported from /root/reference/tests/unit_tests/tests_dggstools.py and the
binary fixtures in /root/reference/tests/test_data (decoded with stdlib zlib).
"""
import struct
import zlib

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings, strategies as st

from dggsray.core.ellipsoid import R_A, auth_lat_fwd, auth_lat_inv
from dggsray.core.rhpx import (
    DEFAULT_GRID, F, GridConfig, _parse_cellids, align_point, cell_centroid,
    cell_from_point, cell_ul_vertex, cell_vertices, cellids_to_arrow,
    cells_from_lonlat, pack_cellids, project_fwd, project_inv, unpack_cellids,
)

G3 = GridConfig(3, 1, 0)
G2 = GridConfig(2, 1, 0)


class TestResolutions:
    # reference tests_dggstools.py:15-33
    def test_closest_resolution(self):
        idx, res = G3.get_closest_resolution(128)
        assert res == pytest.approx(169.4788172157132, abs=1e-7)
        assert idx == 10
        idx, res = G3.get_closest_resolution(100)
        assert res == pytest.approx(56.49293907190441, abs=1e-7)
        assert idx == 11

    def test_higher_lower(self):
        assert G3.get_closest_higher_resolution(128)[1] == pytest.approx(56.49293907190441, abs=1e-7)
        assert G3.get_closest_lower_resolution(128)[1] == pytest.approx(169.4788172157132, abs=1e-7)

    def test_max_resolution(self):
        assert G3.max_resolution == 15
        assert G2.max_resolution == 24


class TestProjection:
    def test_authalic_roundtrip(self):
        phi = np.radians(np.linspace(-89.99, 89.99, 1001))
        beta = auth_lat_fwd(phi)
        back = auth_lat_inv(beta)
        # series inverse: ~2.5e-10 rad (~1.6 mm) — far below the half-cell
        # tolerance of any supported resolution (res-15 cells are ~305 m)
        assert np.abs(back - phi).max() < 5e-10

    def test_fwd_inv_roundtrip_global(self):
        rng = np.random.default_rng(7)
        lon = rng.uniform(-180, 180, 20000)
        lat = rng.uniform(-90, 90, 20000)
        x, y = project_fwd(lon, lat, G3)
        lon2, lat2 = project_inv(x, y, G3)
        assert np.abs(lat - lat2).max() < 5e-8   # ~5 mm (series inverse)
        # longitude at the exact poles is degenerate; mask them out
        m = np.abs(lat) < 89.9999
        assert np.abs(lon[m] - lon2[m]).max() < 5e-8

    def test_frame_extents(self):
        # equator maps to y=0, x = R_A * lam
        x, y = project_fwd([0.0, 90.0, -180.0], [0.0, 0.0, 0.0], G3)
        assert y == pytest.approx([0, 0, 0], abs=1e-9)
        assert x[0] == pytest.approx(0.0, abs=1e-9)
        assert x[1] == pytest.approx(F, rel=1e-12)
        assert x[2] == pytest.approx(-2 * F, rel=1e-12)
        # north pole -> center of N square (above face north_square)
        x, y = project_fwd([123.0], [90.0], G3)
        assert x[0] == pytest.approx(-2 * F + 1.5 * F, rel=1e-12)
        assert y[0] == pytest.approx(F, rel=1e-12)

    def test_origin_cell_is_Q3(self):
        # reference rhpxutils.py:168-170: planar (0,0) falls on the Q3 cell
        assert cells_from_lonlat(1, [0.0], [0.0], G3)[0] == "Q3"

    def test_polar_rotation_continuity(self):
        """Pins the triangle rotation directions of the cap assembly:
        (a) crossing the cap boundary is planar-continuous at the longitude quadrant
            of the cap square (the triangle that does not move);
        (b) crossing a cap-interior meridian (a shared edge of two adjacent polar
            triangles) is planar-continuous inside the assembled square."""
        lat_b = np.degrees(auth_lat_inv(np.arcsin(2.0 / 3.0)))  # cap boundary, geodetic
        for grid in (G3, GridConfig(3, 0, 2), GridConfig(3, 3, 3), G2):
            # (a) face under the cap square: lon quadrant [-180+ns*90, -90+ns*90]
            lon_n = -180 + grid.north_square * 90 + 45.0
            x1, y1 = project_fwd([lon_n], [lat_b - 1e-7], grid)
            x2, y2 = project_fwd([lon_n], [lat_b + 1e-7], grid)
            assert np.hypot(x1 - x2, y1 - y2)[0] < 5.0
            lon_s = -180 + grid.south_square * 90 + 45.0
            x1, y1 = project_fwd([lon_s], [-lat_b + 1e-7], grid)
            x2, y2 = project_fwd([lon_s], [-lat_b - 1e-7], grid)
            assert np.hypot(x1 - x2, y1 - y2)[0] < 5.0
            # (b) triangle-to-triangle seams at lon = -90, 0, 90 (and +-180 wrap)
            for lon in (-90.0, 0.0, 90.0):
                for lat in (80.0, -80.0):
                    x1, y1 = project_fwd([lon - 1e-7], [lat], grid)
                    x2, y2 = project_fwd([lon + 1e-7], [lat], grid)
                    d = np.hypot(x1 - x2, y1 - y2)[0]
                    assert d < 5.0, (lon, lat, grid, d)


def _read_mini_tiff(path):
    d = open(path, "rb").read()
    bo = "<"
    off = struct.unpack(bo + "I", d[4:8])[0]
    n = struct.unpack(bo + "H", d[off:off + 2])[0]
    tags = {}
    for i in range(n):
        e = d[off + 2 + i * 12: off + 14 + i * 12]
        tag, typ, cnt = struct.unpack(bo + "HHI", e[:8])
        size = {3: 2, 4: 4, 12: 8}.get(typ, 1)
        total = size * cnt
        raw = e[8:8 + total] if total <= 4 else d[struct.unpack(bo + "I", e[8:12])[0]:][:total]
        if typ == 12:
            tags[tag] = struct.unpack(bo + "d" * cnt, raw)
        elif typ in (3, 4):
            tags[tag] = struct.unpack(bo + ("H" if typ == 3 else "I") * cnt, raw)
    scale = tags[33550]
    tie = tags[33922]
    strip_off, strip_len = tags[273][0], tags[279][0]
    arr = np.frombuffer(zlib.decompress(d[strip_off:strip_off + strip_len]),
                        dtype="<i2").reshape(tags[257][0], tags[256][0])
    return arr, tie[3], tie[4], scale[0]


class TestMiniFixture:
    """mini_rhealpix_n1_s0_nside3.tiff: 3x3 int16 over the N square, values 0..8
    row-major == cells N0..N8 (reference tests/test_data)."""

    def test_cells_match(self):
        arr, left, top, scale = _read_mini_tiff(
            "/root/reference/tests/test_data/mini_rhealpix_n1_s0_nside3.tiff")
        assert arr.tolist() == [[0, 1, 2], [3, 4, 5], [6, 7, 8]]
        cols, rows = np.meshgrid(np.arange(3), np.arange(3))
        xs = left + (cols.ravel() + 0.5) * scale
        ys = top - (rows.ravel() + 0.5) * scale
        cells = cell_from_point(1, xs, ys, G3)
        assert list(cells) == [f"N{v}" for v in arr.ravel()]

    def test_resolution_recovered_from_pixel_size(self):
        # the reference infers res via get_closest_resolution on the pixel size
        # (rhpx_gdf_helper.py:51-54); must hold for the legacy-frame fixture scale too
        _, _, _, scale = _read_mini_tiff(
            "/root/reference/tests/test_data/mini_rhealpix_n1_s0_nside3.tiff")
        assert G3.get_closest_resolution(abs(scale))[0] == 1


class TestCellIndexing:
    def test_cell_geometry_roundtrip(self):
        rng = np.random.default_rng(1)
        lon = rng.uniform(-180, 180, 5000)
        lat = rng.uniform(-90, 90, 5000)
        for res in (0, 1, 3, 7):
            cells = cells_from_lonlat(res, lon, lat, G3)
            assert (np.char.str_len(cells) == res + 1).all()
            cx, cy = cell_centroid(cells, G3)
            again = cell_from_point(res, cx, cy, G3)
            assert (again == cells).all()

    def test_centroid_inside_cell(self):
        ulx, uly = cell_ul_vertex(["N4"], G3)
        w = G3.cell_width(1)
        cx, cy = cell_centroid(["N4"], G3)
        assert cx[0] == pytest.approx(ulx[0] + w / 2)
        assert cy[0] == pytest.approx(uly[0] - w / 2)

    def test_vertices_order(self):
        v = cell_vertices("N", G3)
        ulx, uly = -2 * F + 1 * F, 1.5 * F
        assert v[0] == pytest.approx((ulx, uly))
        assert v[1] == pytest.approx((ulx + F, uly))
        assert v[2] == pytest.approx((ulx + F, uly - F))
        assert v[3] == pytest.approx((ulx, uly - F))

    def test_off_plane_empty(self):
        cells = cell_from_point(2, np.array([-2 * F + 0.1]), np.array([1.4 * F]), G3)
        assert cells[0] == ""  # above face O (ns=1) there is no N square

    def test_nside2(self):
        # N_side=2: digits 0..3
        cells = cells_from_lonlat(3, np.array([0.0]), np.array([0.0]), G2)
        assert set(cells[0][1:]) <= set("0123")


class TestAlign:
    def test_align_on_vertex_is_noop(self):
        w = G3.cell_width(4)
        left = -2 * F + 1234 * w
        top = 1.5 * F - 777 * w
        assert align_point(left, top, 4, G3) == pytest.approx((left, top))

    def test_align_snaps_to_nearest(self):
        w = G3.cell_width(4)
        left = -2 * F + 1234 * w + 0.2 * w
        top = 1.5 * F - 777 * w - 0.4 * w
        al, at = align_point(left, top, 4, G3)
        assert al == pytest.approx(-2 * F + 1234 * w)
        assert at == pytest.approx(1.5 * F - 777 * w)


class TestPack:
    def test_pack_sort_equals_lexicographic(self):
        rng = np.random.default_rng(3)
        lon = rng.uniform(-180, 180, 2000)
        lat = rng.uniform(-90, 90, 2000)
        cids = []
        for res in (0, 2, 5, 9, 14):
            cids.extend(cells_from_lonlat(res, lon[:400], lat[:400], G3))
        cids = np.array(cids)
        f, p, r = pack_cellids(cids, G3)
        order = np.lexsort((r, p, f))
        assert list(cids[order]) == sorted(cids)

    def test_pack_roundtrip(self):
        cids = np.array(["N", "O12345678", "S88", "Q", "R0"])
        f, p, r = pack_cellids(cids, G3)
        assert list(unpack_cellids(f, p, r, G3)) == list(cids)


class TestCellidCodec:
    """The byte-matrix codec between cell-id columns and (face, row, col)."""

    @pytest.mark.parametrize("bad", [
        # a res-3 null read as "None" parses to row 266 of a 27-row face
        pa.array(["N123", None, "N345"]),          # null cellid in Arrow
        np.array(["N123", None], dtype=object),    # ... and in numpy
        ["N1239"],                                  # digit >= N_side^2
        ["X123"],                                   # face outside NOPQRS
        pa.array(["N12", "Z12"]),
        ["N1/2"],                                   # byte below '0'
        [""],                                       # empty cellid
    ], ids=["arrow-null", "object-null", "digit", "face", "arrow-face",
            "below-zero", "empty"])
    def test_malformed_cellids_raise(self, bad):
        with pytest.raises(ValueError):
            cell_centroid(bad, G3)

    def test_digit_bound_follows_n_side(self):
        cell_centroid(["N38"], G3)
        with pytest.raises(ValueError):
            cell_centroid(["N34"], G2)

    def test_mixed_resolutions_raise(self):
        for cells in (["N12", "N1"], pa.array(["N12", "N1"]),
                      pa.chunked_array([["N12"], ["N123"]])):
            with pytest.raises(ValueError, match="one resolution"):
                cell_centroid(cells, G3)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n_side=st.sampled_from([2, 3]),
           res=st.integers(min_value=0, max_value=15),
           n=st.integers(min_value=1, max_value=40))
    def test_codec_forms_agree(self, data, n_side, res, n):
        grid = G2 if n_side == 2 else G3
        side = n_side**res
        face = np.array(data.draw(st.lists(st.integers(0, 5), min_size=n,
                                           max_size=n)))
        row = np.array(data.draw(st.lists(st.integers(0, side - 1),
                                          min_size=n, max_size=n)))
        col = np.array(data.draw(st.lists(st.integers(0, side - 1),
                                          min_size=n, max_size=n)))
        fx0, fytop = grid.face_origins()
        w = grid.cell_width(res)
        cells = cell_from_point(res, fx0[face] + (col + 0.5) * w,
                                fytop[face] - (row + 0.5) * w, grid)
        assert cells.dtype.kind == "U" and (cells != "").all()

        arrow = cellids_to_arrow(cells, grid)
        assert arrow.type == pa.string()
        assert arrow.to_pylist() == cells.tolist()
        k = data.draw(st.integers(0, n))
        forms = {
            "unicode": cells,
            "object": cells.astype(object),
            "arrow": arrow,
            "sliced": cellids_to_arrow(np.concatenate([cells, cells]),
                                       grid)[n:],
            "chunked": pa.chunked_array([arrow[:k], arrow[k:]]),
            "large_string": arrow.cast(pa.large_string()),
        }
        assert forms["sliced"].offset == n
        for name, form in forms.items():
            f, c, r, got_res = _parse_cellids(form, grid)
            assert got_res == res, name
            assert f.tolist() == face.tolist(), name
            assert c.tolist() == col.tolist(), name
            assert r.tolist() == row.tolist(), name

        # reference: the object -> U -> S decode the codec replaced
        u = np.asarray(cells.astype(object), dtype="U")
        b = u.astype(f"S{res + 1}").view(np.uint8).reshape(n, res + 1)
        rf = np.searchsorted(np.frombuffer(b"NOPQRS", np.uint8), b[:, 0])
        rc = np.zeros(n, np.int64)
        rr = np.zeros(n, np.int64)
        for level in range(1, res + 1):
            d = (b[:, level] - 48).astype(np.int64)
            rc = rc * n_side + d % n_side
            rr = rr * n_side + d // n_side
        ref_x = fx0[rf] + (rc + 0.5) * w
        ref_y = fytop[rf] - (rr + 0.5) * w
        for form in (cells, arrow, forms["chunked"]):
            cx, cy = cell_centroid(form, grid)
            assert cx.tobytes() == ref_x.tobytes()
            assert cy.tobytes() == ref_y.tobytes()

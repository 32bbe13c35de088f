"""Pure-numpy, vectorized rHEALPix DGGS: projection, cell indexing, cell geometry.

From-scratch implementation of the published (r)HEALPix equations
(Gibb/Raichev/Speth 2013, the paper the reference cites at
/root/reference/dggstools/rhpx/rhpxutils.py:18).  Nothing here is ported from the
reference (which delegates all of this to the `rhealpixdggs` package); semantics are
validated against the reference's committed fixtures and golden unit values
(tests/test_core_rhpx.py):

- cell widths 169.4788172157132 m (res 10) / 56.49293907190441 m (res 11), N_side=3
  (reference tests/unit_tests/tests_dggstools.py:15-33);
- the mini_rhealpix_n1_s0_nside3*.tiff fixtures: pixel scale 3337723.051123348 =
  cell_width(1), top-left (-10013169.153370045, 15019753.730055068) = UL vertex of the
  N square for north_square=1, pixels N0..N8 row-major.

Planar frame (meters): x in [-2F, 2F], F = (pi/2)*R_A = half a face width... precisely
F is ONE face width: F = (pi/2)*R_A ~ 10007554 m?  No: F = cell_width(0) =
(pi/2)*R_A = 10013169.153370045 m.  Equatorial faces O,P,Q,R occupy
x in [-2F+k*F, -2F+(k+1)*F] (k=0..3), y in [-F/2, F/2]; the N square sits above face
`north_square`, y in [F/2, 3F/2]; the S square below face `south_square`,
y in [-3F/2, -F/2].  Cell ids: one face char [NOPQRS] + one base-N_side^2 digit per
level, digits row-major from the cell's top-left (N4 = center of N for N_side=3).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
import math

import numpy as np

from .ellipsoid import R_A, auth_lat_fwd, auth_lat_inv

PI = math.pi
FACE_CHARS = "NOPQRS"
_FACE_BYTES = np.frombuffer(b"NOPQRS", dtype=np.uint8)
# byte -> face index 0..5; 6 marks a byte that is not a face letter
_FACE_INDEX = np.full(256, 6, dtype=np.int64)
_FACE_INDEX[_FACE_BYTES] = np.arange(6)

# Planar face width in meters: cell_width(0).
F = (PI / 2.0) * R_A


@dataclass(frozen=True)
class GridConfig:
    """DGGS parameters: (WGS84 ellipsoid implied), N_side in {2,3}, cap squares 0..3.

    Mirrors the reference's RHEALPixDGGSNamedTuple("WGS84", n_side, north_square,
    south_square) (/root/reference/dggstools/rhpx/rhpxutils.py:22) — only WGS84 is
    supported there too (rhpxutils.py:26-27).
    """
    n_side: int = 3
    north_square: int = 1
    south_square: int = 0

    def __post_init__(self):
        assert self.n_side in (2, 3), "N_side must be 2 or 3"
        assert 0 <= self.north_square <= 3 and 0 <= self.south_square <= 3

    @property
    def max_resolution(self) -> int:
        # Smallest i with cell area (2*pi/3)R_A^2 / N^(2i) <= 1 m^2 (the rhealpixdggs
        # max_areal_resolution=1 default the reference relies on for its resolution
        # search loops, rhpxutils.py:198-216).
        return int(math.ceil(math.log(R_A**2 * (2 * PI / 3)) / (2 * math.log(self.n_side))))

    def cell_width(self, res_idx: int) -> float:
        return F / self.n_side**res_idx

    def cell_widths_for_all_resolutions(self) -> list[float]:
        return [self.cell_width(i) for i in range(self.max_resolution)]

    # --- resolution pickers (semantics of rhpxutils.py:198-216) ---
    def get_closest_higher_resolution(self, base: float) -> tuple[int, float]:
        for i in range(self.max_resolution):
            if self.cell_width(i) < base:
                return i, self.cell_width(i)
        raise ValueError(f"no resolution below {base}")

    def get_closest_lower_resolution(self, base: float) -> tuple[int, float]:
        for i in range(self.max_resolution):
            if self.cell_width(i) < base:
                return i - 1, self.cell_width(i - 1)
        raise ValueError(f"no resolution below {base}")

    def get_closest_resolution(self, base: float) -> tuple[int, float]:
        for i in range(self.max_resolution):
            if self.cell_width(i) < base:
                higher = (i, self.cell_width(i))
                lower = (i - 1, self.cell_width(i - 1))
                if (lower[1] - base) < (base - higher[1]):
                    return lower
                return higher
        raise ValueError(f"no resolution below {base}")

    # Face planar origins: x of the left edge, y of the top edge, per face index
    # 0=N, 1=O, 2=P, 3=Q, 4=R, 5=S.
    def face_origins(self) -> tuple[np.ndarray, np.ndarray]:
        x0 = np.array(
            [-2 * F + self.north_square * F, -2 * F, -F, 0.0, F,
             -2 * F + self.south_square * F], dtype=np.float64)
        ytop = np.array([1.5 * F, 0.5 * F, 0.5 * F, 0.5 * F, 0.5 * F, -0.5 * F],
                        dtype=np.float64)
        return x0, ytop

    def to_proj_string(self) -> str:
        # Same CRS identification string the reference persists (rhpxutils.py:160-181).
        return (f"+proj=rhealpix +south_square={self.south_square} "
                f"+north_square={self.north_square}")

    def to_wkt(self) -> str:
        """WKT2:2019 rendering of the rHEALPix CRS — the reference serializes
        pyproj.CRS(proj_string).to_wkt() (rhpxutils.py:184-185); this emits the
        same structure (PROJ-method rhealpix conversion over a GRS80-parameter
        base, which is what PROJ defaults to for +proj=rhealpix) without a PROJ
        database.  Field content is identical; whitespace/quoting may differ
        from a given PROJ release's renderer."""
        return (
            'PROJCRS["unknown",'
            'BASEGEOGCRS["unknown",'
            'DATUM["Unknown based on GRS80 ellipsoid",'
            'ELLIPSOID["GRS 80",6378137,298.257222101,'
            'LENGTHUNIT["metre",1]]],'
            'PRIMEM["Greenwich",0,ANGLEUNIT["degree",0.0174532925199433]]],'
            'CONVERSION["unknown",METHOD["PROJ rhealpix"],'
            f'PARAMETER["south_square",{self.south_square},SCALEUNIT["unity",1]],'
            f'PARAMETER["north_square",{self.north_square},SCALEUNIT["unity",1]],'
            'PARAMETER["Longitude of natural origin",0,'
            'ANGLEUNIT["degree",0.0174532925199433]]],'
            'CS[Cartesian,2],'
            'AXIS["(E)",east,ORDER[1],LENGTHUNIT["metre",1]],'
            'AXIS["(N)",north,ORDER[2],LENGTHUNIT["metre",1]]]')

    @staticmethod
    def from_wkt(wkt: str, n_side: int = 3) -> "GridConfig":
        """Recover the grid squares from a WKT produced by to_wkt (or pyproj's
        rendering of the same CRS).  n_side is not part of the CRS and must be
        supplied (the reference carries it in the metadata dict, not the WKT)."""
        import re
        ss = re.search(r'PARAMETER\["south_square",(\d+)', wkt)
        ns = re.search(r'PARAMETER\["north_square",(\d+)', wkt)
        if not ss or not ns:
            raise ValueError("not an rHEALPix WKT (missing square parameters)")
        return GridConfig(n_side=n_side, north_square=int(ns.group(1)),
                          south_square=int(ss.group(1)))

    def to_meta(self) -> dict:
        return {"n_side": self.n_side, "north_square": self.north_square,
                "south_square": self.south_square,
                "max_areal_resolution": 1,
                "max_resolution": self.max_resolution,
                "ellipsoid": "WGS84"}

    @staticmethod
    def from_meta(meta: dict) -> "GridConfig":
        return GridConfig(n_side=int(meta["n_side"]),
                          north_square=int(meta["north_square"]),
                          south_square=int(meta["south_square"]))


DEFAULT_GRID = GridConfig(3, 1, 0)  # the reference CLI default "3/1/0" (__main__.py:21-32)


# ---------------------------------------------------------------------------
# Spherical HEALPix projection (unit sphere, radians)
# ---------------------------------------------------------------------------

_PHI0 = math.asin(2.0 / 3.0)


def _healpix_fwd(lam: np.ndarray, beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """HEALPix projection of the unit sphere; lam in [-pi, pi]."""
    sinb = np.sin(beta)
    eq = np.abs(beta) <= _PHI0
    # polar branch
    sigma = np.sqrt(np.maximum(3.0 * (1.0 - np.abs(sinb)), 0.0))
    cap = np.clip(np.floor(2.0 * lam / PI + 2.0), 0, 3)
    lamc = -3.0 * PI / 4.0 + (PI / 2.0) * cap
    x = np.where(eq, lam, lamc + (lam - lamc) * sigma)
    y = np.where(eq, 3.0 * PI / 8.0 * sinb, np.sign(beta) * (PI / 4.0) * (2.0 - sigma))
    return x, y


def _healpix_inv(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse HEALPix on the unit sphere; returns (lam, beta)."""
    eq = np.abs(y) <= PI / 4.0
    tau = 2.0 - 4.0 * np.abs(y) / PI                      # sigma in the polar zone
    cap = np.clip(np.floor(2.0 * x / PI + 2.0), 0, 3)
    xc = -3.0 * PI / 4.0 + (PI / 2.0) * cap
    pole = tau <= 1e-15
    lam_p = np.where(pole, x, xc + (x - xc) / np.where(pole, 1.0, tau))
    beta_p = np.sign(y) * np.arcsin(np.clip(1.0 - tau * tau / 3.0, -1.0, 1.0))
    lam = np.where(eq, x, np.clip(lam_p, -PI, PI))
    beta = np.where(eq, np.arcsin(np.clip(8.0 * y / (3.0 * PI), -1.0, 1.0)), beta_p)
    return lam, beta


# ---------------------------------------------------------------------------
# rHEALPix: combine the 4 polar triangles of each cap into one square
# ---------------------------------------------------------------------------
# Geometry (paper section 4): HEALPix polar triangle c (c = 0..3, left to right) has
# its apex at the pole point (xc, +-pi/2), xc = -3pi/4 + c*pi/2.  rHEALPix rotates each
# triangle about its apex and translates the apex to the center of the destination cap
# square (above/below equatorial face north_square/south_square).  Quadrant of triangle
# c inside the square: k = (c - cap_square) mod 4 with k=0 adjacent to the equator,
# k=1 east, k=2 opposite, k=3 west; rotation is CCW by k*90deg in the north and CW by
# k*90deg in the south (this is forced by edge continuity with the equatorial band and
# between adjacent triangles, and matches the reference fixtures).

def _rot_k(dx: np.ndarray, dy: np.ndarray, k: np.ndarray, ccw: bool):
    """Rotate (dx,dy) by k*90deg, counterclockwise if ccw else clockwise (vectorized)."""
    if not ccw:
        k = (-k) % 4
    rx = np.where(k == 0, dx, np.where(k == 1, -dy, np.where(k == 2, -dx, dy)))
    ry = np.where(k == 0, dy, np.where(k == 1, dx, np.where(k == 2, -dy, -dx)))
    return rx, ry


def _combine_fwd(x, y, grid: GridConfig):
    ns, ss = grid.north_square, grid.south_square
    north = y > PI / 4.0
    south = y < -PI / 4.0
    cap = np.clip(np.floor(2.0 * x / PI + 2.0), 0, 3).astype(np.int64)
    lamc = -3.0 * PI / 4.0 + (PI / 2.0) * cap
    xo, yo = np.asarray(x, dtype=np.float64).copy(), np.asarray(y, dtype=np.float64).copy()
    for is_north, sq in ((True, ns), (False, ss)):
        m = north if is_north else south
        if not np.any(m):
            continue
        k = (cap[m] - sq) % 4
        apex_y = PI / 2.0 if is_north else -PI / 2.0
        dx, dy = x[m] - lamc[m], y[m] - apex_y
        rx, ry = _rot_k(dx, dy, k, ccw=is_north)
        xo[m] = (-3.0 * PI / 4.0 + sq * PI / 2.0) + rx
        yo[m] = apex_y + ry
    return xo, yo


def _combine_inv(x, y, grid: GridConfig):
    ns, ss = grid.north_square, grid.south_square
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    xo, yo = x.copy(), y.copy()
    north = y > PI / 4.0
    south = y < -PI / 4.0
    if np.any(north):
        xm, ym = x[north], y[north]
        # which quadrant of the north square, by its diagonals
        L1 = xm + 3.0 * PI / 4.0 - (ns - 1) * PI / 2.0     # up-right diagonal value
        L2 = -xm - 3.0 * PI / 4.0 + (ns + 1) * PI / 2.0    # down-right diagonal value
        c = np.where((ym < L1) & (ym >= L2), (ns + 1) % 4,
             np.where((ym >= L1) & (ym > L2), (ns + 2) % 4,
              np.where((ym > L1) & (ym <= L2), (ns + 3) % 4, ns)))
        k = (c - ns) % 4
        dx = xm - (-3.0 * PI / 4.0 + ns * PI / 2.0)
        dy = ym - PI / 2.0
        rx, ry = _rot_k(dx, dy, k, ccw=False)              # undo CCW
        xo[north] = (-3.0 * PI / 4.0 + c * PI / 2.0) + rx
        yo[north] = PI / 2.0 + ry
    if np.any(south):
        xm, ym = x[south], y[south]
        L1 = xm + 3.0 * PI / 4.0 - (ss + 1) * PI / 2.0
        L2 = -xm - 3.0 * PI / 4.0 + (ss - 1) * PI / 2.0
        # tie-breaks give every quadrant the diagonal ray its cap's LEFT edge
        # maps onto (forward floor-assigns seam longitudes to the cap on their
        # +x side): right owns v=u/u>0, bottom v=-u/u>0 (hence <= on L2 —
        # strict < mis-decoded exact seam points, caught by the property
        # tests), left v=u/u<0, top v=-u/u<0.
        c = np.where((ym <= L1) & (ym > L2), (ss + 1) % 4,
             np.where((ym < L1) & (ym <= L2), (ss + 2) % 4,
              np.where((ym >= L1) & (ym < L2), (ss + 3) % 4, ss)))
        k = (c - ss) % 4
        dx = xm - (-3.0 * PI / 4.0 + ss * PI / 2.0)
        dy = ym + PI / 2.0
        rx, ry = _rot_k(dx, dy, k, ccw=True)               # undo CW
        xo[south] = (-3.0 * PI / 4.0 + c * PI / 2.0) + rx
        yo[south] = -PI / 2.0 + ry
    return xo, yo


def project_fwd(lon_deg, lat_deg, grid: GridConfig = DEFAULT_GRID):
    """Geodetic WGS84 lon/lat (degrees) -> planar rHEALPix (meters). Vectorized."""
    lam = np.radians(np.asarray(lon_deg, dtype=np.float64))
    lam = np.clip(lam, -PI, PI)
    beta = auth_lat_fwd(np.radians(np.asarray(lat_deg, dtype=np.float64)))
    x, y = _healpix_fwd(lam, beta)
    x, y = _combine_fwd(x, y, grid)
    return x * R_A, y * R_A


def project_inv(x_m, y_m, grid: GridConfig = DEFAULT_GRID):
    """Planar rHEALPix (meters) -> geodetic WGS84 lon/lat (degrees). Vectorized."""
    x = np.asarray(x_m, dtype=np.float64) / R_A
    y = np.asarray(y_m, dtype=np.float64) / R_A
    x, y = _combine_inv(x, y, grid)
    lam, beta = _healpix_inv(x, y)
    phi = auth_lat_inv(beta)
    return np.degrees(lam), np.degrees(phi)


def project_inv_lattice(xs, ys, grid: GridConfig = DEFAULT_GRID):
    """`project_inv` over the lattice of column coordinates `xs` and row
    coordinates `ys` (planar meters): (lon, lat), each (len(ys), len(xs)),
    bit-identical to `project_inv` of the full meshgrid.  On a row inside
    the equatorial band (|y| <= pi/4 R_A) the inverse is separable, lon a
    function of x alone and lat of y alone, so those rows cost one point
    per column plus one per row; rows in the caps take the 2-D path."""
    xs = np.ascontiguousarray(xs, dtype=np.float64)
    ys = np.ascontiguousarray(ys, dtype=np.float64)
    lon = np.empty((ys.size, xs.size))
    lat = np.empty((ys.size, xs.size))
    band = np.abs(ys / R_A) <= PI / 4.0        # project_inv's own band test
    if band.any():
        lon[band] = project_inv(xs, np.zeros(xs.size), grid)[0]
        lat[band] = project_inv(np.zeros(int(band.sum())), ys[band],
                                grid)[1][:, None]
    if not band.all():
        xx, yy = np.meshgrid(xs, ys[~band])
        lo, la = project_inv(xx.ravel(), yy.ravel(), grid)
        lon[~band] = lo.reshape(-1, xs.size)
        lat[~band] = la.reshape(-1, xs.size)
    return lon, lat


# ---------------------------------------------------------------------------
# Cell indexing (planar)
# ---------------------------------------------------------------------------

def face_from_point(x, y, grid: GridConfig = DEFAULT_GRID):
    """Face index 0..5 (N,O,P,Q,R,S) for planar points; -1 if outside the frame.

    Convention: a cell owns its left and top edges; the global right/bottom edges of
    the frame are owned by the last cell (matches pixel-center usage throughout).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    face = np.full(x.shape, -1, dtype=np.int8)
    eq = (y <= F / 2.0) & (y >= -F / 2.0) & (x >= -2 * F) & (x <= 2 * F)
    col = np.clip(np.floor((x + 2 * F) / F), 0, 3).astype(np.int8)
    face = np.where(eq, col + 1, face)
    nx0 = -2 * F + grid.north_square * F
    north = (y > F / 2.0) & (y <= 1.5 * F) & (x >= nx0) & (x <= nx0 + F)
    face = np.where(north, np.int8(0), face)
    sx0 = -2 * F + grid.south_square * F
    south = (y < -F / 2.0) & (y >= -1.5 * F) & (x >= sx0) & (x <= sx0 + F)
    face = np.where(south, np.int8(5), face)
    return face


def cell_from_point(res_idx: int, x, y, grid: GridConfig = DEFAULT_GRID):
    """Vectorized analogue of rdggs.cell_from_point (used per pixel by the reference at
    /root/reference/dggstools/rhpx/rhpx_gdf_helper.py:95): planar points -> cellid
    strings at resolution res_idx.  Off-plane points get "" (reference returns None and
    drops them, rhpx_gdf_helper.py:114-118)."""
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    y = np.atleast_1d(np.asarray(y, dtype=np.float64))
    face = face_from_point(x, y, grid)
    ok = face >= 0
    fx0, fytop = grid.face_origins()
    x0 = fx0[np.clip(face, 0, 5)]
    ytop = fytop[np.clip(face, 0, 5)]
    n = grid.n_side
    chars = np.zeros((x.shape[0], res_idx + 1), dtype=np.uint8)  # +1 for face
    chars[:, 0] = _FACE_BYTES[np.clip(face, 0, 5)]
    if res_idx > 0:
        # one float division at the target resolution, then pure-integer base-n
        # digit extraction level by level (cheaper than per-level float floors)
        w = F / n**res_idx
        hi = n**res_idx - 1
        col = np.clip(np.floor((x - x0) / w), 0, hi).astype(np.int64)
        row = np.clip(np.floor((ytop - y) / w), 0, hi).astype(np.int64)
        for level in range(res_idx, 0, -1):
            digit = (row % n) * n + (col % n)
            chars[:, level] = 48 + digit.astype(np.uint8)
            col //= n
            row //= n
    result = chars.astype(np.uint32).view(f"U{res_idx + 1}").ravel()
    result[~ok] = ""
    return result


def cell_keys_from_point(res_idx: int, x, y, grid: GridConfig = DEFAULT_GRID):
    """Planar points -> PACKED int64 cell keys at a fixed resolution:
    key = face*(n^res)^2 + row*(n^res) + col, off-plane points get -1.

    Bijective with the cellid string at that resolution (same face/col/row
    computation as cell_from_point), but 8 bytes instead of a (res+1)-char
    unicode cell — join/shuffle keys built this way keep broadcast indexes
    ~5x smaller and make searchsorted integer-compare instead of string-compare
    (measured 2.5x per-image cost inflation under a 15-actor pool with the
    string index: every actor binary-searching its own 33 MB string copy
    thrashes the shared cache)."""
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    y = np.atleast_1d(np.asarray(y, dtype=np.float64))
    face = face_from_point(x, y, grid)
    ok = face >= 0
    fx0, fytop = grid.face_origins()
    f = np.clip(face, 0, 5).astype(np.int64)
    n = grid.n_side
    side = n**res_idx
    if side * side * 6 > 2**62:
        raise ValueError(f"res {res_idx} too deep for packed int64 keys")
    w = F / side
    hi = side - 1
    col = np.clip(np.floor((x - fx0[f]) / w), 0, hi).astype(np.int64)
    row = np.clip(np.floor((fytop[f] - y) / w), 0, hi).astype(np.int64)
    key = f * (side * side) + row * side + col
    return np.where(ok, key, np.int64(-1))


def lattice_cell_bytes(res_idx: int, xs, ys, grid: GridConfig = DEFAULT_GRID):
    """`cell_from_point` over the lattice of column coordinates `xs` and row
    coordinates `ys` (planar meters), as the (len(ys), len(xs), res_idx+1)
    codec byte matrix of the cell ids and an on-plane mask (the bytes of
    off-plane points are meaningless).  Equal to `cell_from_point` at every
    lattice point, with no per-point float work: a point's face is fixed by its
    row's zone (N cap, equator, S cap) and its column, its face-lattice
    row by its row alone and its column by the zone and its column, so the
    faces, indices and base-n digits are computed once per row and once per
    column (same float expressions as `cell_from_point`) and broadcast."""
    xs = np.atleast_1d(np.asarray(xs, dtype=np.float64))
    ys = np.atleast_1d(np.asarray(ys, dtype=np.float64))
    n = grid.n_side
    w = F / n**res_idx
    hi = n**res_idx - 1
    fx0, fytop = grid.face_origins()
    out = np.zeros((ys.size, xs.size, res_idx + 1), dtype=np.uint8)
    on = np.zeros((ys.size, xs.size), dtype=bool)
    # the row tests of face_from_point: N cap, equator, S cap, else off-plane
    zone = np.select([(ys > F / 2.0) & (ys <= 1.5 * F),
                      (ys <= F / 2.0) & (ys >= -F / 2.0),
                      (ys < -F / 2.0) & (ys >= -1.5 * F)], [0, 1, 2], 3)
    for z, zface in ((0, 0), (1, 1), (2, 5)):
        rows = np.flatnonzero(zone == z)
        if not rows.size:
            continue
        face = face_from_point(xs, np.full(xs.size, ys[rows[0]]), grid)
        col = np.clip(np.floor((xs - fx0[np.clip(face, 0, 5)]) / w), 0, hi) \
            .astype(np.int64)
        row = np.clip(np.floor((fytop[zface] - ys[rows]) / w), 0, hi) \
            .astype(np.int64)
        colb = np.zeros((xs.size, res_idx + 1), dtype=np.uint8)
        rowb = np.zeros((rows.size, res_idx + 1), dtype=np.uint8)
        colb[:, 0] = _FACE_BYTES[np.clip(face, 0, 5)]
        for level in range(res_idx, 0, -1):
            colb[:, level] = col % n
            rowb[:, level] = 48 + (row % n) * n
            col //= n
            row //= n
        out[rows] = rowb[:, None, :] + colb[None, :, :]
        on[rows] = face >= 0
    return out, on


def cells_from_lonlat(res_idx: int, lon_deg, lat_deg, grid: GridConfig = DEFAULT_GRID):
    """Geodetic lon/lat -> cellid strings (fwd projection + planar indexing)."""
    x, y = project_fwd(lon_deg, lat_deg, grid)
    return cell_from_point(res_idx, x, y, grid)


# ---------------------------------------------------------------------------
# Cell-id codec: uniform-resolution cell ids as an (n, res+1) uint8 byte matrix
# ---------------------------------------------------------------------------
# One row per cell: the face byte, then one ASCII digit per level.  Arrow string
# columns are viewed in place (a uniform-width column's data buffer already IS
# this matrix), numpy unicode arrays are narrowed from their UCS-4 code units,
# and `cellids_to_arrow` builds a string column straight from the matrix with
# arithmetic offsets, so no Python str is created on either side.  Malformed
# ids (nulls, empty ids, a face outside NOPQRS, a digit >= N_side^2) raise.

def _arrow_cell_bytes(a) -> np.ndarray:
    """Zero-copy (n, w) uint8 view of a string/large_string Arrow array."""
    import pyarrow as pa

    if not (pa.types.is_string(a.type) or pa.types.is_large_string(a.type)):
        a = a.cast(pa.string())
    if a.null_count:
        raise ValueError("null cellid")
    n = len(a)
    if n == 0:
        return np.zeros((0, 1), dtype=np.uint8)
    _, offs, data = a.buffers()
    otype = np.int64 if pa.types.is_large_string(a.type) else np.int32
    offsets = np.frombuffer(offs, dtype=otype)[a.offset: a.offset + n + 1]
    start, w = int(offsets[0]), int(offsets[1] - offsets[0])
    if not (np.diff(offsets) == w).all():
        raise ValueError("all cellids must share one resolution")
    if w == 0:
        raise ValueError("empty cellid")
    return np.frombuffer(data, dtype=np.uint8)[start: start + n * w].reshape(n, w)


def _numpy_cell_bytes(cellids) -> np.ndarray:
    """(n, w) uint8 matrix of a numpy unicode (or object) cellid array,
    narrowed from its UCS-4 code units."""
    arr = np.asarray(cellids).ravel()
    if arr.dtype == object and np.equal(arr, None).any():
        raise ValueError("null cellid")
    arr = np.ascontiguousarray(arr, dtype="U")
    if arr.size == 0:
        return np.zeros((0, 1), dtype=np.uint8)
    k = arr.dtype.itemsize // 4
    u = arr.view(np.uint32).reshape(arr.size, k)
    w = len(arr[0])
    if w == 0:
        raise ValueError("empty cellid")
    if not (u[:, w - 1] != 0).all() or (w < k and (u[:, w] != 0).any()):
        raise ValueError("all cellids must share one resolution")
    if u[:, :w].max() > 127:
        raise ValueError("non-ASCII cellid")
    return u[:, :w].astype(np.uint8)


def _cellid_bytes(cellids, n_side: int) -> np.ndarray:
    """Uniform-resolution cell ids -> validated (n, res+1) uint8 byte matrix:
    every row must be a face byte followed by base-n_side^2 ASCII digits.

    Accepts a pyarrow (Chunked)Array of strings, a numpy U/object array or any
    sequence numpy turns into one."""
    import pyarrow as pa

    if isinstance(cellids, pa.ChunkedArray):
        cellids = cellids.combine_chunks()
    if isinstance(cellids, pa.Array):
        b = _arrow_cell_bytes(cellids)
    else:
        b = _numpy_cell_bytes(cellids)
    if b.shape[0] and _FACE_INDEX[b[:, 0]].max() > 5:
        raise ValueError(f"cellid face not in {FACE_CHARS}")
    # uint8 wrap-around sends bytes below '0' past the digit range too
    if b.shape[0] and b.shape[1] > 1 and \
            (b[:, 1:] - np.uint8(48)).max() >= n_side * n_side:
        raise ValueError(f"cellid digit outside 0..{n_side * n_side - 1}")
    return b


def cellids_to_arrow(cells, grid: GridConfig = DEFAULT_GRID):
    """Uniform-resolution cell ids -> pa.StringArray, built from the byte
    matrix with arithmetic offsets (no per-element decode)."""
    return cell_bytes_to_arrow(_cellid_bytes(cells, grid.n_side))


def cell_bytes_to_arrow(b: np.ndarray):
    """(n, res+1) codec byte matrix -> pa.StringArray over the same bytes,
    with arithmetic offsets (the matrix is taken as valid)."""
    import pyarrow as pa

    n, w = b.shape
    offsets = np.arange(0, (n + 1) * w, w, dtype=np.int32)
    return pa.StringArray.from_buffers(n, pa.py_buffer(offsets),
                                       pa.py_buffer(np.ascontiguousarray(b)))


@lru_cache(maxsize=None)
def _digit_pair_lut(n_side: int) -> np.ndarray:
    """Two consecutive digit bytes, read as one big-endian uint16 -> their
    col part (d1 % n)*n + d2 % n plus their row part (d1 // n)*n + d2 // n
    shifted to the high 32 bits, so one Horner step in int64 advances both.
    Codes that are not two digits map to 0 (`_cellid_bytes` rejects them)."""
    code = np.arange(1 << 16, dtype=np.int64)
    d1, d2 = (code >> 8) - 48, (code & 255) - 48
    n = n_side
    lut = (d1 % n) * n + d2 % n + (((d1 // n) * n + d2 // n) << 32)
    ok = (d1 >= 0) & (d1 < n * n) & (d2 >= 0) & (d2 < n * n)
    return np.where(ok, lut, 0)


def _parse_cellids(cellids, grid: GridConfig):
    """cellid strings (uniform resolution) -> (face_idx, col, row, res).

    col/row are the cell's integer grid position inside its face at its
    resolution, decoded two digits per step through `_digit_pair_lut`."""
    b = _cellid_bytes(cellids, grid.n_side)
    if b.shape[0] == 0:
        return (np.zeros(0, np.int64),) * 3 + (0,)
    res = b.shape[1] - 1
    n = grid.n_side
    if n**res > 2**31:
        raise ValueError(f"cellid resolution {res} too deep to decode")
    lut = _digit_pair_lut(n)
    pairs = np.ascontiguousarray(b[:, 1:1 + res - res % 2]).view(">u2").T
    acc = np.zeros(b.shape[0], np.int64)
    for p in pairs:
        acc *= n * n
        acc += lut[p]
    if res % 2:
        d = b[:, res].astype(np.int64) - 48
        acc *= n
        acc += d % n + ((d // n) << 32)
    return _FACE_INDEX[b[:, 0]], acc & 0xFFFFFFFF, acc >> 32, res


def cell_ul_vertex(cellids, grid: GridConfig = DEFAULT_GRID):
    """Upper-left planar vertex of each (uniform-resolution) cellid."""
    face, col, row, res = _parse_cellids(cellids, grid)
    fx0, fytop = grid.face_origins()
    w = grid.cell_width(res)
    return fx0[face] + col * w, fytop[face] - row * w


def cell_centroid(cellids, grid: GridConfig = DEFAULT_GRID):
    """Planar centroid (= nucleus) of each cellid; reference uses this as the cell-table
    point geometry (rhpx_gdf_helper.py:108-111)."""
    face, col, row, res = _parse_cellids(cellids, grid)
    fx0, fytop = grid.face_origins()
    w = grid.cell_width(res)
    return fx0[face] + (col + 0.5) * w, fytop[face] - (row + 0.5) * w


def cell_vertices(cellid: str, grid: GridConfig = DEFAULT_GRID):
    """4 planar corners (ul, ur, dr, dl) of a single cell — rhealpixdggs Cell.vertices
    order, used by the closest-vertex snap (rhpxutils.py:323-334)."""
    ulx, uly = cell_ul_vertex([cellid], grid)
    ulx, uly = float(ulx[0]), float(uly[0])
    w = grid.cell_width(len(cellid) - 1)
    return [(ulx, uly), (ulx + w, uly), (ulx + w, uly - w), (ulx, uly - w)]


# ---------------------------------------------------------------------------
# Grid alignment (vertex snap)
# ---------------------------------------------------------------------------

def align_point(left: float, top: float, res_idx: int,
                grid: GridConfig = DEFAULT_GRID) -> tuple[float, float]:
    """Snap (left, top) to the nearest res_idx cell vertex.

    Semantics of the reference's align_transform (rhpxutils.py:240-284): find the cell
    containing (left, top) and move to its closest vertex; when the point is off-plane,
    probe an equatorial cell at (left, 0) for x and a cap cell for y.  Because every
    cell vertex lies on the single global lattice anchored at (-2F, 3F/2) with pitch
    w = cell_width(res_idx) (face origins differ by multiples of F and w divides F),
    the closest vertex of the *containing* cell is exactly the nearest lattice point,
    so we snap x and y independently to that lattice.  The off-plane fallbacks probe
    cells on the same lattice and therefore yield the same result.
    """
    w = grid.cell_width(res_idx)
    new_left = -2 * F + round((left + 2 * F) / w) * w
    new_top = 1.5 * F - round((1.5 * F - top) / w) * w
    return new_left, new_top


def align_transform(left: float, top: float, res_idx: int,
                    grid: GridConfig = DEFAULT_GRID) -> tuple[float, float]:
    return align_point(left, top, res_idx, grid)


# ---------------------------------------------------------------------------
# Packed numeric cellid form (for sorts / joins / shuffles)
# ---------------------------------------------------------------------------

_PACK_BASE = {2: 4, 3: 9}
_PACK_LEVELS = {2: 24, 3: 15}


def pack_cellids(cellids, grid: GridConfig = DEFAULT_GRID):
    """cellids -> (face:uint8, path:uint64, res:uint8).  Sorting by (face, path, res)
    is equivalent to lexicographic cellid order (path digits are left-aligned in base
    N_side^2 across max-resolution levels), which is the order canonical AUIDs require
    (reference auids/common.py:201-203)."""
    arr = np.asarray(cellids, dtype="U")
    lens = np.char.str_len(arr)
    maxlen = int(lens.max()) if arr.size else 1
    base = _PACK_BASE[grid.n_side]
    levels = _PACK_LEVELS[grid.n_side]
    b = arr.astype(f"S{maxlen}").view(np.uint8).reshape(arr.size, maxlen)
    face = np.searchsorted(_FACE_BYTES, b[:, 0]).astype(np.uint8)
    path = np.zeros(arr.size, dtype=np.uint64)
    for level in range(1, maxlen):
        digit = np.where(level < lens, b[:, level] - 48, 0).astype(np.uint64)
        path += digit * np.uint64(base) ** np.uint64(levels - level)
    return face, path, (lens - 1).astype(np.uint8)


def unpack_cellids(face, path, res, grid: GridConfig = DEFAULT_GRID):
    """Inverse of pack_cellids."""
    face = np.asarray(face, dtype=np.int64)
    path = np.asarray(path, dtype=np.uint64).copy()
    res = np.asarray(res, dtype=np.int64)
    base = _PACK_BASE[grid.n_side]
    levels = _PACK_LEVELS[grid.n_side]
    maxres = int(res.max()) if res.size else 0
    chars = np.zeros((face.size, maxres + 1), dtype=np.uint8)
    chars[:, 0] = _FACE_BYTES[face]
    for level in range(1, maxres + 1):
        p = np.uint64(base) ** np.uint64(levels - level)
        digit = (path // p).astype(np.int64)
        path -= digit.astype(np.uint64) * p
        chars[:, level] = np.where(level <= res, 48 + digit, 0).astype(np.uint8)
    out = chars.view(f"S{maxres + 1}").ravel().astype("U")
    return out

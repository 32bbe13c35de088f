"""SQL builders for the driver's DuckDB oracle.

The rHEALPix cell encoding of an equatorial point (authalic |sin beta| <= 2/3) is a
closed-form arithmetic expression — radians -> authalic sin -> HEALPix equatorial
x,y -> base-N digit extraction — so for derived points kept inside |lat| <= 35 deg
the full cellid is expressible in ANSI SQL and DuckDB can serve as a *value-level*
oracle for the engine's cell encoder (not just row counts).  The SQL mirrors the
numpy expressions in dggsray.core (same constants, same operation order); the only
divergences are last-ulp libm differences, irrelevant at ~1e-9 cell-boundary
probability per row.

Derived deterministic points (same formulas in dggsray.pipelines.relational):
    lon(k) = -180 + 360 * frac(k * G_LON)
    lat(k) =  -35 +  70 * frac(k * G_LAT)      (equatorial band only)
"""
from __future__ import annotations

from .core.ellipsoid import R_A, _E, _E2, _QP  # noqa: F401 (constants into SQL)
from .core.rhpx import F

G_LON = 0.6180339887498949
G_LAT = 0.41421356237309515

PI = 3.141592653589793


def frac_sql(expr: str) -> str:
    return f"(({expr}) - floor({expr}))"


def lonlat_sql(key: str) -> tuple[str, str]:
    lon = f"(-180.0 + 360.0 * {frac_sql(f'CAST({key} AS DOUBLE) * {G_LON!r}')})"
    lat = f"(-35.0 + 70.0 * {frac_sql(f'CAST({key} AS DOUBLE) * {G_LAT!r}')})"
    return lon, lat


def planar_xy_sql(lon: str, lat: str) -> tuple[str, str]:
    """SQL (x, y) planar rHEALPix coordinates of an equatorial point — the
    same closed-form expressions cellid_sql builds on, exposed for oracles
    that need the projected point itself (e.g. exact point-in-polygon
    crossing tests)."""
    s = f"sin(radians({lat}))"
    q = (f"((1.0 - {_E2!r}) * (({s}) / (1.0 - {_E2!r} * ({s}) * ({s}))"
         f" + (0.5 * ln((1.0 + {_E!r} * ({s})) / (1.0 - {_E!r} * ({s})))) / {_E!r}))")
    sinb = f"({q} / {_QP!r})"
    x = f"(radians({lon}) * {R_A!r})"
    y = f"({R_A!r} * (3.0 * {PI!r} / 8.0) * {sinb})"
    return x, y


def cellid_sql(lon: str, lat: str, res: int, n_side: int = 3) -> str:
    """SQL expression producing the same cellid string as
    dggsray.core.rhpx.cells_from_lonlat for equatorial points."""
    assert n_side == 3, "oracle SQL emitted for N_side=3 grids"
    x, y = planar_xy_sql(lon, lat)
    fidx = f"CAST(floor((({x}) + {2*F!r}) / {F!r}) AS BIGINT)"
    face = (f"(CASE {fidx} WHEN 0 THEN 'O' WHEN 1 THEN 'P' WHEN 2 THEN 'Q' "
            f"ELSE 'R' END)")
    # face left edges as exact literals (bit-identical to rhpx.GridConfig.face_origins)
    x0 = (f"(CASE {fidx} WHEN 0 THEN {-2*F!r} WHEN 1 THEN {-F!r} "
          f"WHEN 2 THEN 0.0 ELSE {F!r} END)")
    dx = f"(({x}) - {x0})"
    dy = f"({F/2!r} - ({y}))"
    parts = [face]
    for level in range(1, res + 1):
        w = F / n_side**level
        col = f"CAST(floor({dx} / {w!r}) AS BIGINT)"
        row = f"CAST(floor({dy} / {w!r}) AS BIGINT)"
        digit = f"((({row}) % 3) * 3 + (({col}) % 3))"
        parts.append(f"CAST({digit} AS VARCHAR)")
    return "(" + " || ".join(parts) + ")"


def centroid_xy_sql(cell: str, res: int, n_side: int = 3) -> tuple[str, str]:
    """SQL (x, y) planar centroid of a res-`res` cellid string on an equatorial
    face — exact mirror of core.rhpx.cell_centroid's float ops: the combined
    col/row indices are integer-exact in SQL, and the final `x0 + (col+0.5)*w`
    uses the same operation order as the numpy code, so values agree bit-for-bit
    (no libm calls involved)."""
    assert n_side == 3, "oracle SQL emitted for N_side=3 grids"
    x0 = (f"(CASE substr({cell},1,1) WHEN 'O' THEN {-2*F!r} "
          f"WHEN 'P' THEN {-F!r} WHEN 'Q' THEN 0.0 ELSE {F!r} END)")
    col_terms, row_terms = [], []
    for i in range(1, res + 1):
        d = f"CAST(substr({cell},{i + 1},1) AS BIGINT)"
        scale = 3 ** (res - i)
        col_terms.append(f"(({d}) % 3) * {scale}")
        row_terms.append(f"(({d}) // 3) * {scale}")
    w = F / n_side**res
    col = "(" + " + ".join(col_terms) + ")"
    row = "(" + " + ".join(row_terms) + ")"
    x = f"({x0} + (CAST({col} AS DOUBLE) + 0.5) * {w!r})"
    y = f"({F/2!r} - (CAST({row} AS DOUBLE) + 0.5) * {w!r})"
    return x, y

"""Per-layer metrics of the traced run, derived from recorded spans.

Each metric reads one field of the spans with a given name:

- ``cpu_self`` / ``cpu``: process CPU seconds, self or inclusive (kernels);
- ``wall_self`` / ``wall``: wall seconds, self or inclusive (driver stages,
  which wait on workers, and waits such as actor start-up);
- ``count``: number of spans;
- ``units:<key>``: a count recorded at the span boundary;
- ``counter``: a value the workload recorded for the run (from its output).

A metric is the median over the traced runs of its per-run total, except
the set-up metrics in `SETUP` (the image table, the flagship join index and
``ray.init``, all of which move ``setup_s``), which are set-up totals.
Layers a workload does not touch report 0.
"""
from __future__ import annotations

import statistics

# rhpx functions: (span name, metric stem)
_RHPX = (("rhpx.project_inv", "rhpx.project_inv"),
         ("rhpx.project_fwd", "rhpx.project_fwd"),
         ("rhpx.cell_keys", "rhpx.cell_keys"),
         ("rhpx.cell_from_point", "rhpx.cell_from_point"),
         ("rhpx.cell_centroid", "rhpx.cell_centroid"))

# (metric, unit, [(span name, field)], scale)
PER_LAYER = [
    ("flagship.call_s", "s", [("flagship.call", "cpu")], 1),
    ("flagship.join_self_s", "s", [("flagship.call", "cpu_self")], 1),
    ("flagship.actor_init_s", "s", [("flagship.actor_init", "wall")], 1),
    ("flagship.index_build_s", "s", [("flagship.index_build", "wall")], 1),
    ("flagship.match_ratio", "ratio", [("flagship.match_ratio", "counter")], 1),
    ("imagetable.decode_s", "s", [("imagetable.decode", "cpu_self")], 1),
    ("imagetable.decode_calls", "count", [("imagetable.decode", "count")], 1),
    ("imagetable.verify_s", "s", [("imagetable.verify", "cpu_self")], 1),
    ("imagetable.decoded_mb", "MB", [("imagetable.decode", "units:bytes")],
     1e-6),
    ("imagetable.gen_s", "s", [("imagetable.gen", "wall")], 1),
    ("raster2dggs.warp_self_s", "s", [("raster2dggs.warp", "cpu_self")], 1),
    ("raster2dggs.cells_emitted", "count",
     [("raster2dggs.warp", "units:cells"),
      ("raster2dggs.tiles_to_cells", "units:cells")], 1),
    ("raster2dggs.slow_path_images", "count",
     [("raster2dggs.slow_path", "count")], 1),
    ("raster2dggs.tiles_to_cells_s", "s",
     [("raster2dggs.tiles_to_cells", "wall_self")], 1),
    *[m for span, stem in _RHPX for m in (
        (stem + "_s", "s", [(span, "cpu_self")], 1),
        (stem + ".points", "count", [(span, "units:points")], 1))],
    ("cellify.add_cellid_s", "s", [("cellify.add_cellid", "wall_self")], 1),
    ("cellify.rows", "count", [("cellify.add_cellid", "units:rows")], 1),
    ("cellify.regrid_mean_s", "s", [("cellify.regrid_mean", "wall_self")], 1),
    ("cellify.regrid_majority_s", "s",
     [("cellify.regrid_majority", "wall_self")], 1),
    ("cellify.cells_out", "count",
     [("cellify.regrid_mean", "units:cells"),
      ("cellify.regrid_majority", "units:cells")], 1),
    ("joins.sized_groupby_s", "s", [("joins.sized_groupby", "wall_self")], 1),
    ("joins.rows_in", "count", [("joins.combine", "units:rows_in")], 1),
    ("joins.rows_out", "count", [("joins.combine", "units:rows_out")], 1),
    ("warp.raster_to_rhealpix_s", "s",
     [("warp.raster_to_rhealpix", "cpu_self")], 1),
    ("warp.dst_pixels", "count",
     [("warp.dst_pixels", "counter")], 1),
    ("tiffio.read_s", "s", [("tiffio.read", "cpu_self")], 1),
    ("tiffio.write_s", "s", [("tiffio.write", "cpu_self")], 1),
    ("tiffio.bytes_written", "bytes", [("tiffio.write", "units:bytes")], 1),
    ("storage.write_s", "s", [("storage.write", "wall_self")], 1),
    ("storage.read_s", "s", [("storage.read", "wall_self")], 1),
    ("storage.bytes_written", "bytes",
     [("storage.bytes_written", "counter")], 1),
    ("storage.files_written", "count",
     [("storage.files_written", "counter")], 1),
    ("storage.bytes_per_cell", "bytes",
     [("storage.bytes_per_cell", "counter")], 1),
    ("cells2raster.s", "s", [("cells2raster.cells_to_raster", "wall_self")],
     1),
    ("cells2raster.tiles", "count",
     [("cells2raster.cells_to_raster", "units:tiles")], 1),
    ("vector2dggs.burn_s", "s", [("vector2dggs.burn", "cpu_self")], 1),
    ("vector2dggs.cells", "count", [("vector2dggs.burn", "units:cells")], 1),
    ("auid.is_optimal_s", "s", [("auid.is_optimal", "cpu_self")], 1),
    ("auid.optimize_s", "s", [("auid.optimize", "cpu_self")], 1),
    ("auid.encode_s", "s", [("auid.encode", "cpu_self")], 1),
    ("auid.decode_s", "s", [("auid.decode", "cpu_self")], 1),
    ("auid.cells_in", "count", [("auid.encode", "units:cells_in")], 1),
    ("auid.cells_out", "count", [("auid.decode", "units:cells_out")], 1),
    ("auid.compressed_bytes", "bytes", [("auid.encode", "units:bytes")], 1),
    ("ray_data.init_s", "s", [("ray_data.init", "wall")], 1),
]

SETUP = {"flagship.index_build_s", "imagetable.gen_s", "ray_data.init_s"}

# metrics computed from other metrics or from whole runs
DERIVED = [
    ("joins.combine_ratio", "ratio"),     # rows_out / rows_in
    ("ray_data.overhead_s", "s"),         # wall_s minus time under any span
    ("trace.overhead_s", "s"),            # traced minus untraced wall_s
]

NAMES = [m[0] for m in PER_LAYER] + [m[0] for m in DERIVED]

_FIELDS = {"wall": lambda s: s[3] - s[2], "cpu": lambda s: s[4],
           "wall_self": lambda s: s[5], "cpu_self": lambda s: s[6],
           "count": lambda s: 1}


def _value(spans, counters, sources, scale):
    """Total of the sources over one run; None if none of them occurred."""
    total, seen = 0.0, False
    for name, field in sources:
        if field == "counter":
            if name in counters:
                total += counters[name]
                seen = True
            continue
        for s in spans:
            if s[0] != name:
                continue
            seen = True
            if field.startswith("units:"):
                total += (s[9] or {}).get(field[6:], 0)
            else:
                total += _FIELDS[field](s)
    return total * scale if seen else None


def _covered(spans, lo, hi) -> float:
    """Seconds of [lo, hi] under at least one non-stage span."""
    iv = sorted((max(s[2], lo), min(s[3], hi)) for s in spans
                if s[1] != "stage" and s[3] > lo and s[2] < hi)
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in iv:
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def per_layer(spans, runs, setup_end: float) -> dict:
    """runs: dicts with start, end, wall_s, traced, counters, error.
    Returns {metric: value} over the runs that succeeded."""
    ok = [r for r in runs if r["error"] is None]
    traced = [r for r in ok if r["traced"]]
    untraced = [r for r in ok if not r["traced"]]
    setup = [s for s in spans if s[2] < setup_end]
    by_run = [[s for s in spans if r["start"] <= s[2] < r["end"]]
              for r in traced]
    out = {}
    for name, _unit, sources, scale in PER_LAYER:
        if name in SETUP:
            out[name] = _value(setup, {}, sources, scale) or 0.0
            continue
        vals = [_value(sp, r["counters"], sources, scale) or 0.0
                for sp, r in zip(by_run, traced)]
        out[name] = statistics.median(vals) if vals else 0.0
    rin, rout = out["joins.rows_in"], out["joins.rows_out"]
    out["joins.combine_ratio"] = rout / rin if rin else 0.0
    out["ray_data.overhead_s"] = statistics.median(
        [r["wall_s"] - _covered(sp, r["start"], r["end"])
         for sp, r in zip(by_run, traced)]) if traced else 0.0
    out["trace.overhead_s"] = (
        statistics.median(r["wall_s"] for r in traced)
        - statistics.median(r["wall_s"] for r in untraced)
        if traced and untraced else 0.0)
    return out


def units() -> dict:
    u = {m[0]: m[1] for m in PER_LAYER}
    u.update(dict(DERIVED))
    return u

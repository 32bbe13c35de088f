"""Cell-table persistence: partitioned parquet + `_meta.json` sidecar carrying the
table-level metadata dict (the reference persists the same dict as a JSON row in
a GeoPackage gpkg_metadata table with uri http://www.iaaa.es/geo2dggs/spec/1 —
/root/reference/dggstools/rhpx/utils/storage.py:32-113).  Parquet is the
distributed-native format; REAL GeoPackage read/write (stdlib sqlite3 +
hand-built GPKG binary geometry, same metadata rows) lives in io.gpkg.
PostGIS remains out of scope (no network/DB in this environment)."""
from __future__ import annotations

import json
import math
import os

import numpy as np

META_SPEC_URI = "http://www.iaaa.es/geo2dggs/spec/1"

# File bytes that read_cell_table puts in one block at most (about: a file
# is never split).  A parquet cell table decodes to about twice its file
# bytes (1.8x for perfbench's), so a block stays under Ray Data's 128 MiB
# default target block size.
READ_BLOCK_BYTES = 32 << 20


class _NpEncoder(json.JSONEncoder):
    def default(self, o):
        if isinstance(o, np.integer):
            return int(o)
        if isinstance(o, np.floating):
            return float(o)
        if isinstance(o, np.ndarray):
            return o.tolist()
        return super().default(o)


def write_cell_table(ds, path: str, meta: dict, fmt: str = "parquet",
                     partition_depth: int | None = None,
                     cell_col: str = "cellid"):
    """Dataset (or pyarrow Table) + metadata -> parquet/feather directory +
    sidecar.  One plain Ray task per block (`joins.per_block`, which streams
    the blocks) writes that block's own files, named so that no other task
    or call can produce the same name; a table can take several calls
    (reference feather output: tests_data.py:325-326 via
    GeoDataFrame.to_feather).  A pyarrow Table is one block.

    partition_depth=N hive-partitions the output by the cell-id
    prefix of length N+1 (face char + N digits) — the resumable-output
    layout for huge cell tables: each key-range directory is a unit a
    re-run can skip (`finished_partitions`), a reader can prune, and a
    downstream cell-keyed stage can consume shuffle-free.  The prefix
    lives only in the directory name (`cell_part=<prefix>/`)."""
    from ..ops.joins import per_block

    if fmt not in ("parquet", "feather"):
        raise ValueError(f"unsupported format {fmt!r}")
    os.makedirs(path, exist_ok=True)
    written = per_block(ds, _write_block, path, fmt, partition_depth,
                        cell_col)
    if written and not sum(n for n, _ in written):
        _write_file(written[0][1].empty_table(), path, fmt)  # keep the schema
    with open(os.path.join(path, "_meta.json"), "w") as f:
        json.dump({"spec": META_SPEC_URI, "attrs": meta, "format": fmt,
                   "partition_depth": partition_depth}, f, cls=_NpEncoder)


def _write_block(block, path: str, fmt: str, partition_depth: int | None,
                 cell_col: str):
    """Task: one block -> its files under `path`; (how many, its schema).
    A 0-row block writes none.  With a partition depth the block is sorted
    once by its cell-id prefix and each run of one prefix goes to its own
    file under `cell_part=<prefix>/`."""
    import pyarrow as pa
    import pyarrow.compute as pc

    if block.num_rows == 0:
        return 0, block.schema
    if partition_depth is None:
        _write_file(block, path, fmt)
        return 1, block.schema
    part = pc.utf8_slice_codeunits(pc.cast(block.column(cell_col), pa.string()),
                                   0, partition_depth + 1).combine_chunks()
    order = pc.sort_indices(part)
    block = block.take(order)
    runs = pc.run_end_encode(part.take(order))
    start = 0
    for prefix, end in zip(runs.values.to_pylist(),
                           runs.run_ends.to_pylist()):
        _write_file(block.slice(start, end - start),
                    os.path.join(path, f"cell_part={prefix}"), fmt)
        start = end
    return len(runs.values), block.schema


def _write_file(table, dirname: str, fmt: str):
    """`table` -> a new uniquely named file in `dirname`."""
    import uuid

    import pyarrow.feather as paf
    import pyarrow.parquet as pq

    os.makedirs(dirname, exist_ok=True)
    name = os.path.join(dirname, f"part-{uuid.uuid4().hex}.{fmt}")
    if fmt == "feather":
        paf.write_feather(table, name)
    else:
        pq.write_table(table, name)


def finished_partitions(path: str) -> list[str]:
    """Cell-prefix partitions already present in a hive-partitioned cell
    table (directories `cell_part=<prefix>` containing at least one parquet
    or feather file) — the resume primitive: a restarted writer filters its
    input to `~cellid.prefix in finished_partitions(out)` and appends only
    the missing key ranges."""
    import glob
    out = []
    for d in sorted(glob.glob(os.path.join(path, "cell_part=*"))):
        if glob.glob(os.path.join(d, "*.parquet")) or \
                glob.glob(os.path.join(d, "*.feather")):
            out.append(os.path.basename(d).split("=", 1)[1])
    return out


def read_cell_table(path: str):
    """-> (Dataset, meta dict); reads parquet or feather per the sidecar.
    The table's files (the hive layout's `cell_part=<prefix>/` ones too) are
    split into groups of near-equal bytes — one per Ray CPU, or more when
    that would put over READ_BLOCK_BYTES of files in one — and one plain Ray
    task reads each group into one block, with no partition discovery.
    Scheme-qualified paths (s3://...) resolve through the same
    register_filesystem seam as rasters — the fetcher localizes the whole
    table directory."""
    import glob

    from ..core.raster import localize_path
    from ..ops.joins import _remote, cluster_cpus, materialized

    path = localize_path(path)
    with open(os.path.join(path, "_meta.json")) as f:
        side = json.load(f)
    fmt = side.get("format", "parquet")
    files = sorted(glob.glob(os.path.join(glob.escape(path), "**",
                                          f"*.{fmt}"), recursive=True))
    sizes = np.array([os.path.getsize(f) for f in files], dtype=np.float64)
    n = max(cluster_cpus(), math.ceil(sizes.sum() / READ_BLOCK_BYTES))
    task = _remote(_read_files)
    return materialized([
        task.remote(group, fmt)
        for group in _size_groups(files, sizes, n)]), side["attrs"]


def _size_groups(files: list[str], sizes: np.ndarray,
                 n: int) -> list[list[str]]:
    """`files` cut, in order, into at most `n` runs of near-equal bytes: a
    run holds at most about total/n bytes plus one file, however uneven the
    files are (a cut by file count would not bound it)."""
    mid = np.cumsum(sizes) - sizes / 2
    group = np.minimum((mid * n / max(sizes.sum(), 1.0)).astype(np.int64),
                       n - 1)
    cuts = np.flatnonzero(np.diff(group)) + 1
    return [list(g) for g in np.split(np.array(files, dtype=object), cuts)
            if len(g)]


def _read_files(files: list[str], fmt: str):
    """Task: cell-table files -> one block."""
    import pyarrow as pa
    import pyarrow.feather as paf
    import pyarrow.parquet as pq

    if fmt == "feather":
        return pa.concat_tables([paf.read_table(f) for f in files])
    return pa.concat_tables([pq.read_table(f, partitioning=None)
                             for f in files])


def get_parquet_rhpx_metadata(path: str) -> dict:
    """Reference get_gpkg_rhpx_metadata analogue (storage.py:100-113)."""
    from ..core.raster import localize_path
    with open(os.path.join(localize_path(path), "_meta.json")) as f:
        return json.load(f)["attrs"]


def rhealpix_to_parquet(input_tif: str, output_path: str, n_side: int = 3,
                        geo_id_column_name: str = "cellid", add_uid: bool = False,
                        values_in_json: bool = False, store_nodata: bool = False,
                        grid=None):
    """Composite: rHPX raster file -> cell table parquet (+ metadata), the
    reference's rhealpix_to_geopackage (storage.py:71-83) on our formats.
    `grid` carries the FULL GridConfig (north/south cap squares included);
    the bare n_side remains for callers on the default (n, 1, 0) grid."""
    from ..core.rhpx import GridConfig
    from ..ops.raster2dggs import geotiff_to_tiles, tiles_to_cells

    grid = grid or GridConfig(n_side, 1, 0)
    tiles, meta = geotiff_to_tiles(input_tif, grid)
    cells = tiles_to_cells(tiles, meta, grid, store_nodata=store_nodata,
                           values_in_json=values_in_json, add_uid=add_uid)
    if geo_id_column_name != "cellid":
        cells = cells.rename_columns({"cellid": geo_id_column_name})
        meta = dict(meta, geo_id_column_name=geo_id_column_name)
    write_cell_table(cells, output_path, meta)
    return meta


def parquet_to_rhealpix(input_path: str, output_tif: str, nodata=0,
                        n_side: int = 3, grid=None):
    """Composite inverse: cell-table parquet -> rHPX raster file
    (reference geopackage_to_rhealpix, storage.py:86-97)."""
    import json as _json

    from ..core.rhpx import GridConfig
    from ..core.tiffio import GeoTiff, write_geotiff
    from ..ops.cells2raster import cells_to_raster_array

    ds, meta = read_cell_table(input_path)
    if meta.get("rhealpixdggs"):
        grid = GridConfig.from_meta(meta["rhealpixdggs"])
    elif grid is None:
        grid = GridConfig(n_side, 1, 0)
    gid = meta.get("geo_id_column_name", "cellid")
    if gid != "cellid":       # renamed on write; the raster path needs cellid
        ds = ds.rename_columns({gid: "cellid"})
    if meta.get("nodata") is None:
        meta = dict(meta, nodata=nodata, nodatavals=[nodata] * meta["nbands"])
    arr, _ = cells_to_raster_array(ds, meta=meta, grid=grid)
    write_geotiff(output_tif, GeoTiff(
        arr, meta["left"], meta["top"], meta["res"], meta["res"],
        nodata=meta["nodata"],
        tags={"GDAL_METADATA":
              f'<GDALMetadata><Item name="n_side">{grid.n_side}</Item>'
              f'<Item name="user_metadata">'
              f'{_json.dumps(meta, cls=_NpEncoder)}</Item></GDALMetadata>'}))
    return meta

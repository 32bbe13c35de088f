"""The raster stages per lattice axis: the separable inverse projection of
the warp, the arithmetic explode, the two-digit cell-id decoder and the
per-block scatter, each against the per-point computation it replaces."""
import numpy as np
import pyarrow as pa
import pytest
from hypothesis import example, given, settings, strategies as st

from dggsray.core.rhpx import (F, R_A, GridConfig, _cellid_bytes,
                               _FACE_INDEX, _parse_cellids, cell_bytes_to_arrow,
                               cell_from_point, lattice_cell_bytes,
                               project_inv, project_inv_lattice)
from dggsray.ops.raster2dggs import _explode_tile

GRIDS = st.builds(GridConfig, n_side=st.sampled_from([2, 3]),
                  north_square=st.integers(0, 3),
                  south_square=st.integers(0, 3))


def _mesh_cells(res, xs, ys, grid):
    xx, yy = np.meshgrid(xs, ys)
    return cell_from_point(res, xx.ravel(), yy.ravel(), grid) \
        .reshape(ys.size, xs.size)


def _assert_lattice_equals_points(res, xs, ys, grid):
    ref = _mesh_cells(res, xs, ys, grid)
    cb, on = lattice_cell_bytes(res, xs, ys, grid)
    assert cb.shape == (ys.size, xs.size, res + 1)
    assert np.array_equal(on, ref != "")
    assert cell_bytes_to_arrow(cb[on]).to_pylist() == ref[on].tolist()


@st.composite
def _aligned_block(draw):
    """(res, grid, i0, j0, h, w): a block of the global cell lattice at res
    (rows from the frame's top edge 1.5F, columns from its left edge -2F),
    reaching up to 3 cells past the frame on every side, so blocks cover
    the caps, the equator, their edges and off-plane pixels."""
    grid = draw(GRIDS)
    res = draw(st.integers(0, 12))
    side = grid.n_side ** res
    h = draw(st.integers(1, min(30, 3 * side + 6)))
    w = draw(st.integers(1, min(30, 4 * side + 6)))
    i0 = draw(st.integers(-3, 3 * side + 3 - h))
    j0 = draw(st.integers(-3, 4 * side + 3 - w))
    return res, grid, i0, j0, h, w


def _tile(data: np.ndarray, row0: int = 0, col0: int = 0) -> pa.Table:
    return pa.table({"row0": [row0], "col0": [col0], "h": [data.shape[1]],
                     "w": [data.shape[2]], "data": [data.tobytes()]})


class TestArithmeticExplode:
    @settings(max_examples=300, deadline=None)
    @given(block=_aligned_block())
    @example(block=(5, GridConfig(3, 1, 0), 243 - 4, 300, 8, 8))   # N | eq
    @example(block=(5, GridConfig(3, 1, 0), 486 - 4, 10, 8, 8))    # eq | S
    @example(block=(2, GridConfig(2, 3, 2), -3, -3, 18, 23))      # off-plane
    @example(block=(0, GridConfig(3, 0, 3), -3, -3, 9, 10))       # res 0
    def test_aligned_lattice_equals_cell_from_point(self, block):
        res, grid, i0, j0, h, w = block
        cw = grid.cell_width(res)
        xs = -2 * F + (np.arange(w) + j0 + 0.5) * cw
        ys = 1.5 * F - (np.arange(h) + i0 + 0.5) * cw
        _assert_lattice_equals_points(res, xs, ys, grid)

    @settings(max_examples=200, deadline=None)
    @given(grid=GRIDS, res=st.integers(0, 12),
           left=st.floats(-2.2 * F, 2.2 * F), top=st.floats(-1.7 * F, 1.7 * F),
           scale=st.floats(0.05, 20.0), h=st.integers(1, 25),
           w=st.integers(1, 25))
    def test_unaligned_lattice_equals_cell_from_point(self, grid, res, left,
                                                      top, scale, h, w):
        """Pixel edges off the cell edges and pixels of any size: the lattice
        path still evaluates the same float expressions per pixel centre."""
        px = grid.cell_width(res) * scale
        xs = left + (np.arange(w) + 0.5) * px
        ys = top - (np.arange(h) + 0.5) * px
        _assert_lattice_equals_points(res, xs, ys, grid)

    @settings(max_examples=60, deadline=None)
    @given(block=_aligned_block(), seed=st.integers(0, 2**32 - 1),
           store_nodata=st.booleans())
    def test_explode_tile_equals_per_pixel_explode(self, block, seed,
                                                   store_nodata):
        """_explode_tile's rows (order, cell ids, band values) equal the
        per-pixel `cell_from_point` explode over the kept pixels."""
        res, grid, i0, j0, h, w = block
        cw = grid.cell_width(res)
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 4, (2, h, w)).astype(np.int16)
        meta = {"left": -2 * F + j0 * cw, "top": 1.5 * F - i0 * cw,
                "res": cw, "res_idx": res, "nbands": 2,
                "nodatavals": [0, 0], "dtypes": ["int16"] * 2}
        r0, c0 = int(rng.integers(0, 5)), int(rng.integers(0, 5))
        meta["left"] -= c0 * cw
        meta["top"] += r0 * cw
        got = _explode_tile(_tile(data, r0, c0), 0, meta, grid, store_nodata,
                            False, False)

        keep = np.ones((h, w), bool) if store_nodata else (data != 0).any(0)
        rr, cc = np.nonzero(keep)
        cells = cell_from_point(res, meta["left"] + (cc + c0 + 0.5) * cw,
                                meta["top"] - (rr + r0 + 0.5) * cw, grid)
        ok = cells != ""
        assert got.schema.names == ["cellid", "band1", "band2"]
        assert got.column("cellid").to_pylist() == cells[ok].tolist()
        for i in range(2):
            assert np.array_equal(got.column(f"band{i + 1}").to_numpy(),
                                  data[i][rr[ok], cc[ok]])


class TestSeparableProjectInv:
    @settings(max_examples=200, deadline=None)
    @given(grid=GRIDS, x0=st.floats(-2.1 * F, 2.1 * F),
           y0=st.one_of(st.floats(0.5 * F - 1e5, 0.5 * F + 1e5),     # N edge
                        st.floats(-0.5 * F - 1e5, -0.5 * F + 1e5),   # S edge
                        st.floats(0.5 * F, 1.6 * F),                 # N cap
                        st.floats(-1.6 * F, -0.5 * F),               # S cap
                        st.floats(-0.5 * F, 0.5 * F)),               # band
           step=st.floats(1.0, 5e4), h=st.integers(1, 40),
           w=st.integers(1, 300))
    @example(grid=GridConfig(3, 1, 0), x0=-3e6, y0=0.5 * F + 10 * 377.0,
             step=377.0, h=20, w=33)           # rows on both sides of pi/4
    def test_equals_project_inv_of_the_meshgrid(self, grid, x0, y0, step,
                                                 h, w):
        xs = x0 + (np.arange(w) + 0.5) * step
        ys = y0 - (np.arange(h) + 0.5) * step
        lon, lat = project_inv_lattice(xs, ys, grid)
        xx, yy = np.meshgrid(xs, ys)
        rlon, rlat = project_inv(xx.ravel(), yy.ravel(), grid)
        assert lon.shape == lat.shape == (h, w)
        assert lon.tobytes() == rlon.tobytes()
        assert lat.tobytes() == rlat.tobytes()

    def test_band_rows_cost_one_point_per_row_and_column(self, monkeypatch):
        import dggsray.core.rhpx as rhpx
        points = []
        inner = rhpx.project_inv
        monkeypatch.setattr(rhpx, "project_inv", lambda x, y, g:
                            points.append(np.size(x)) or inner(x, y, g))
        xs = np.linspace(-F, F, 50)
        ys = np.linspace(0.5 * F + 20.0, 0.5 * F - 1e6, 30)   # 1 cap row
        project_inv_lattice(xs, ys, rhpx.DEFAULT_GRID)
        assert sorted(points) == [29, 50, 50]
        assert np.abs(ys[0] / R_A) > np.pi / 4


def _matmul_decode(cellids, grid):
    """The int64 matmul decoder the pair table replaced."""
    b = _cellid_bytes(cellids, grid.n_side)
    if b.shape[0] == 0:
        return (np.zeros(0, np.int64),) * 3 + (0,)
    res = b.shape[1] - 1
    n = grid.n_side
    digits = b[:, 1:] - np.uint8(48)
    place = n ** np.arange(res - 1, -1, -1, dtype=np.int64)
    col = (digits % n).astype(np.int64) @ place
    row = (digits // n).astype(np.int64) @ place
    return _FACE_INDEX[b[:, 0]], col, row, res


class TestPairDecoder:
    @settings(max_examples=200, deadline=None)
    @given(n_side=st.sampled_from([2, 3]), res=st.integers(0, 15),
           n=st.integers(1, 300), seed=st.integers(0, 2**32 - 1),
           arrow=st.booleans())
    def test_equals_matmul_decoder(self, n_side, res, n, seed, arrow):
        grid = GridConfig(n_side, 1, 0)
        rng = np.random.default_rng(seed)
        b = np.empty((n, res + 1), np.uint8)
        b[:, 0] = np.frombuffer(b"NOPQRS", np.uint8)[rng.integers(0, 6, n)]
        b[:, 1:] = 48 + rng.integers(0, n_side * n_side, (n, res))
        cells = cell_bytes_to_arrow(b)
        if not arrow:
            cells = np.array(cells.to_pylist())
        got, ref = _parse_cellids(cells, grid), _matmul_decode(cells, grid)
        assert got[3] == ref[3] == res
        for g, r in zip(got[:3], ref[:3]):
            assert g.dtype == np.int64 and np.array_equal(g, r)

    @pytest.mark.parametrize("bad", [
        pa.array(["N123", None, "N345"]), np.array(["N12", None], object),
        ["N1239"], ["X123"], pa.array(["N12", "Z12"]), ["N1/2"], [""],
        ["N12", "N1"], ["N1:"], ["N9"]])
    def test_malformed_ids_raise_in_both(self, bad):
        for decode in (_parse_cellids, _matmul_decode):
            with pytest.raises(ValueError):
                decode(bad, GridConfig(3, 1, 0))
        with pytest.raises(ValueError):
            _parse_cellids(["N4"], GridConfig(2, 1, 0))

    def test_ids_too_deep_for_the_packed_decode_raise(self):
        _parse_cellids(["N" + "1" * 19], GridConfig(3, 1, 0))
        with pytest.raises(ValueError, match="too deep"):
            _parse_cellids(["N" + "1" * 20], GridConfig(3, 1, 0))


class TestStageOutputs:
    def test_plain_task_outputs_are_materialized(self, ray_session, tmp_path,
                                                 monkeypatch):
        """sized_groupby, tiles_to_cells, read_cell_table and the flagship's
        per-file join return MaterializedDatasets whose blocks list with no
        Ray Data execution."""
        import ray.data
        from ray.data._internal.execution.streaming_executor import \
            StreamingExecutor
        from ray.data.aggregate import Count
        from ray.data.dataset import MaterializedDataset

        from dggsray.core.tiffio import GeoTiff, write_geotiff
        from dggsray.io.storage import read_cell_table, write_cell_table
        from dggsray.ops.joins import sized_groupby
        from dggsray.ops.raster2dggs import geotiff_to_tiles, tiles_to_cells
        from dggsray.pipelines import flagship

        g3 = GridConfig(3, 1, 0)
        cw = g3.cell_width(6)
        p = str(tmp_path / "r.tif")
        write_geotiff(p, GeoTiff(np.ones((1, 8, 8), np.int16), -F, 0.0, cw,
                                 cw, nodata=0))
        tiles, meta = geotiff_to_tiles(p, g3)
        cells = tiles_to_cells(tiles, meta, g3)
        write_cell_table(cells, str(tmp_path / "t"), meta)
        files = flagship._image_files(0.001)[:2]
        outs = {
            "sized_groupby": sized_groupby(
                ray.data.from_arrow(pa.table({"k": [1, 2, 1]})), "k",
                Count(alias_name="n")),
            "tiles_to_cells": cells,
            "read_cell_table": read_cell_table(str(tmp_path / "t"))[0],
            "flagship._join_files": flagship._join_files(
                files, flagship.FLAGSHIP_RES, g3, verify=False),
        }
        started = []
        execute = StreamingExecutor.execute
        monkeypatch.setattr(StreamingExecutor, "execute",
                            lambda *a, **k: started.append(1)
                            or execute(*a, **k))
        for name, ds in outs.items():
            assert isinstance(ds, MaterializedDataset), name
            for _ in range(2):
                list(ds.iter_internal_ref_bundles())
                ds.to_arrow_refs()
            assert not started, name

    def test_cells_to_raster_reads_the_schema_once(self, ray_session,
                                                    monkeypatch):
        import ray.data

        from dggsray.ops.cells2raster import cells_to_raster_array

        ds = ray.data.from_arrow(pa.table({
            "cellid": pa.array([f"N{i}" for i in range(9)]),
            "band1": pa.array(range(9), pa.int16())})) \
            .map_batches(lambda b: b, batch_format="pyarrow")
        calls = []
        schema = ray.data.Dataset.schema
        monkeypatch.setattr(ray.data.Dataset, "schema", lambda *a, **k:
                            calls.append(1) or schema(*a, **k))
        arr, meta = cells_to_raster_array(ds, nodata=-9999)
        assert arr[0].tolist() == [[0, 1, 2], [3, 4, 5], [6, 7, 8]]
        assert len(calls) == 1

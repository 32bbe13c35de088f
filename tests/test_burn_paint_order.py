"""burn_polygons_to_cells keeps the former per-cell dict loop's paint order:
rows in first-seen order, each cell valued by the last feature that paints it."""
import numpy as np
import pytest

from dggsray.core.rhpx import cell_from_point
from dggsray.ops import vector2dggs
from dggsray.pipelines.flagship import synthetic_polygons


def _dict_loop_burn(monkeypatch, features, res):
    """The former dict loop, fed each feature's raw cell_from_point output."""
    cell_to_val = {}
    for feat in features:
        calls = []
        with monkeypatch.context() as m:
            m.setattr(vector2dggs, "cell_from_point",
                      lambda *a: calls.append(cell_from_point(*a)) or calls[-1])
            vector2dggs.burn_polygons_to_cells([feat], res)
        for cells in calls:
            for c in cells:
                if c:
                    cell_to_val[c] = int(feat["value"])
    return list(cell_to_val), list(cell_to_val.values())


def _check(monkeypatch, features, res):
    t = vector2dggs.burn_polygons_to_cells(features, res)
    cells, values = _dict_loop_burn(monkeypatch, features, res)
    assert t.column("cellid").to_pylist() == cells
    assert t.column("value").to_pylist() == values
    return t


@pytest.mark.parametrize("res", [5, 7])
def test_synthetic_polygons_match_dict_loop(monkeypatch, res):
    t = _check(monkeypatch, synthetic_polygons(), res)
    assert t.num_rows > 0 and t.schema.field("value").type == "int64"


def _square(lon, lat, he, value):
    ring = np.array([[lon - he, lat - he], [lon + he, lat - he],
                     [lon + he, lat + he], [lon - he, lat + he]])
    return {"feature_id": value, "value": value, "rings": [ring]}


def test_features_painting_the_same_cells(monkeypatch):
    a, b, c = _square(10, 20, 1.0, 1), _square(10, 20, 1.0, 2), \
        _square(10.6, 20, 0.6, 3)
    t = _check(monkeypatch, [a, b, c], 6)
    only_a = vector2dggs.burn_polygons_to_cells([a], 6)
    assert t.num_rows == len(set(only_a.column("cellid").to_pylist())
                             | set(vector2dggs.burn_polygons_to_cells(
                                 [c], 6).column("cellid").to_pylist()))
    assert set(t.column("value").to_pylist()) == {2, 3}


def test_nothing_burned():
    t = vector2dggs.burn_polygons_to_cells([], 5)
    assert t.num_rows == 0 and t.column_names == ["cellid", "value"]

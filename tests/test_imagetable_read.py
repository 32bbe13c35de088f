"""The scheme seam of engine inputs (`core.raster.localize_path`, which
`relational._read`, `io/storage` and `raster2dggs` call): scheme-qualified
paths resolve through `register_filesystem`, and an unregistered scheme
fails naming the seam."""
import pytest


def test_scheme_seam(ray_session):
    import ray.data as rd
    from dggsray.core.raster import (_FILESYSTEMS, localize_path,
                                     register_filesystem)
    from dggsray.io.imagetable import ensure_image_table
    local = ensure_image_table(0.001)
    calls = []

    def fetch(url):
        calls.append(url)
        return local

    register_filesystem("mock-img", fetch)
    try:
        ds = rd.read_parquet(localize_path("mock-img://bucket/corpus"),
                             columns=["image_id"])
        assert ds.count() > 0
        assert calls == ["mock-img://bucket/corpus"]
    finally:
        _FILESYSTEMS.pop("mock-img", None)


def test_unregistered_scheme_names_seam(ray_session):
    from dggsray.core.raster import localize_path
    with pytest.raises(NotImplementedError, match="register_filesystem"):
        localize_path("gs://bucket/corpus")

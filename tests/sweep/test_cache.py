"""On-disk sweep cache: round-trips, corruption tolerance, layout."""

import json

import pytest

from repro.sweep import (
    SweepCache,
    SweepCell,
    register_cell_kind,
    run_cell,
    run_sweep,
)


def toy_cell(spec, collector):
    collector.count("work", 1)
    return {"value": spec.get("x", 0) + spec.get("seed", 0)}


@pytest.fixture(autouse=True)
def _toy_kind():
    register_cell_kind("toy_cache", toy_cell)
    yield


class TestSweepCache:
    def test_store_load_round_trip(self, tmp_path):
        cache = SweepCache(tmp_path / "cache")
        cell = SweepCell("toy_cache", {"x": 4, "seed": 2})
        payload = run_cell(cell)
        assert cache.load(cell) is None
        cache.store(cell, payload)
        assert cache.load(cell) == payload
        assert len(cache) == 1

    def test_path_keyed_by_hash_and_seed(self, tmp_path):
        cache = SweepCache(tmp_path)
        cell = SweepCell("toy_cache", {"x": 4, "seed": 2})
        path = cache.path_for(cell)
        assert path.parent.name == "toy_cache"
        assert path.name == f"{cell.config_hash()}-2.json"
        reseeded = SweepCell("toy_cache", {"x": 4, "seed": 3})
        assert cache.path_for(reseeded) != path

    def test_corrupt_file_is_a_miss(self, tmp_path, caplog):
        cache = SweepCache(tmp_path)
        cell = SweepCell("toy_cache", {"x": 4, "seed": 2})
        cache.store(cell, run_cell(cell))
        cache.path_for(cell).write_text("{not json", encoding="utf-8")
        with caplog.at_level("WARNING", logger="repro.sweep"):
            assert cache.load(cell) is None
        assert "unusable cache file" in caplog.text

    def test_mismatching_payload_is_a_miss(self, tmp_path, caplog):
        cache = SweepCache(tmp_path)
        cell = SweepCell("toy_cache", {"x": 4, "seed": 2})
        other = SweepCell("toy_cache", {"x": 5, "seed": 2})
        # Simulate a file landing at the wrong key on disk.
        path = cache.path_for(cell)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(run_cell(other)), encoding="utf-8")
        with caplog.at_level("WARNING", logger="repro.sweep"):
            assert cache.load(cell) is None
        assert "unusable cache file" in caplog.text

    def test_store_rejects_foreign_payload(self, tmp_path):
        cache = SweepCache(tmp_path)
        cell = SweepCell("toy_cache", {"x": 4, "seed": 2})
        other = SweepCell("toy_cache", {"x": 5, "seed": 2})
        with pytest.raises(ValueError):
            cache.store(cell, run_cell(other))

    @pytest.mark.parametrize("body", ["null", "5", {"seed": None}])
    def test_wrongly_typed_file_is_a_miss_and_recomputed(
        self, tmp_path, body
    ):
        cache = SweepCache(tmp_path)
        cell = SweepCell("toy_cache", {"x": 4, "seed": 2})
        payload = run_cell(cell)
        if isinstance(body, dict):
            body = json.dumps({**payload, **body})
        cache.path_for(cell).parent.mkdir(parents=True, exist_ok=True)
        cache.path_for(cell).write_text(body, encoding="utf-8")
        assert cache.load(cell) is None
        run = run_sweep([cell], workers=1, cache=cache)
        assert run.stats["recomputed"] == 1
        assert run.payloads == [payload]
        assert cache.load(cell) == payload

"""Registry semantics: registration, discovery, suite selection."""

import inspect

import pytest

from repro.bench import (
    BenchSpec,
    discover,
    register,
    registered,
)

from tests.bench.conftest import FULL_ONLY_BENCH, GOOD_BENCH


class TestRegister:
    def test_decorator_returns_function_unchanged(self):
        def bench_sample():
            return "payload"

        assert register(bench_sample) is bench_sample
        spec = registered()["sample"]
        assert spec.name == "sample"          # bench_ prefix stripped
        assert spec.suite == "quick"
        assert spec.func is bench_sample

    def test_fixtureless_and_named(self):
        @register(name="custom", suite="full")
        def bench_other():
            pass

        spec = registered()["custom"]
        assert spec.suite == "full"
        assert spec.func is bench_other

    def test_rejects_unknown_suite(self):
        with pytest.raises(ValueError, match="suite"):
            register(suite="nightly")(lambda: None)

    def test_suite_selection(self):
        quick = BenchSpec("a", lambda: None, "quick", "s")
        full = BenchSpec("b", lambda: None, "full", "s")
        assert quick.selected_by("quick") and quick.selected_by("full")
        assert not full.selected_by("quick")
        assert full.selected_by("full")


class TestDiscover:
    def test_imports_and_filters_by_directory(self, make_bench_dir):
        bench_dir = make_bench_dir(
            bench_good=GOOD_BENCH, bench_full=FULL_ONLY_BENCH
        )
        specs = discover(bench_dir)
        assert [spec.name for spec in specs] == ["alpha", "slow"]
        # Registrations from elsewhere are not attributed to this dir.
        other = make_bench_dir(bench_solo=GOOD_BENCH)
        assert [spec.name for spec in discover(other)] == ["alpha"]

    def test_requires_package(self, tmp_path):
        bare = tmp_path / "not_a_package"
        bare.mkdir()
        with pytest.raises(FileNotFoundError, match="__init__"):
            discover(bare)
        with pytest.raises(FileNotFoundError, match="does not exist"):
            discover(tmp_path / "missing")

    def test_repo_benchmarks_all_registered(self):
        """Every ``benchmarks/bench_*.py`` module in the repository
        has joined the registry — no orphan benchmarks — and every
        entry point takes no arguments (``repro bench`` calls it
        bare)."""
        from repro.bench.registry import default_bench_dir

        bench_dir = default_bench_dir()
        specs = discover(bench_dir)
        modules = sorted(
            path.stem for path in bench_dir.glob("bench_*.py")
        )
        assert len(specs) == len(modules) == 17
        assert {spec.suite for spec in specs} == {"quick", "full"}
        takes_arguments = [
            spec.name
            for spec in specs
            if inspect.signature(spec.func).parameters
        ]
        assert takes_arguments == []

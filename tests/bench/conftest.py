"""Fixtures for the unified-benchmark-runner tests.

The runner is exercised against throwaway benchmark *packages* built
in ``tmp_path`` rather than the repository's real ``benchmarks/``
directory, so the tests stay fast and hermetic.  Each generated
package gets a unique name: ``discover`` imports by module name, and
Python caches imports process-wide.
"""

import itertools
import textwrap

import pytest

from repro.bench import clear_registry

_PACKAGE_IDS = itertools.count()

#: A well-behaved bench module: returns one document with two
#: deterministic metrics.
GOOD_BENCH = """
    from repro.bench import register
    from repro.telemetry import bench_document


    @register(suite="quick")
    def bench_alpha():
        return [bench_document(
            bench="alpha", workload="w", backend="b", wall_time_s=0.0,
            counters={"calls": 1},
            extra={"metrics": {"answer": 42.0, "cycles": 7}},
        )]
"""

FULL_ONLY_BENCH = """
    from repro.bench import register
    from repro.telemetry import bench_document


    @register(suite="full")
    def bench_slow():
        return [bench_document(
            bench="slow", workload="w", backend="b", wall_time_s=0.0,
            counters={}, extra={"metrics": {"depth": 3.0}},
        )]
"""

FAILING_BENCH = """
    from repro.bench import register


    @register(suite="quick")
    def bench_boom():
        raise RuntimeError("kaboom")
"""


def build_bench_dir(tmp_path, **modules):
    """Build a uniquely named bench package from module sources."""
    package = tmp_path / f"benchstub{next(_PACKAGE_IDS)}"
    package.mkdir()
    (package / "__init__.py").write_text("")
    for stem, source in modules.items():
        (package / f"{stem}.py").write_text(
            textwrap.dedent(source).lstrip()
        )
    return package


@pytest.fixture()
def make_bench_dir(tmp_path):
    """Factory fixture over :func:`build_bench_dir`."""

    def build(**modules):
        return build_bench_dir(tmp_path, **modules)

    return build


@pytest.fixture(autouse=True)
def _isolated_registry():
    """Each test starts and ends with an empty bench registry."""
    clear_registry()
    yield
    clear_registry()

"""Fixture coverage for the whole-program rule family.

Each cross-file rule gets at least one violating fixture proving it
fires and one clean fixture proving it stays quiet on the sanctioned
pattern (lazy import, lock guard, plain-data submit, registered
validator, firing suppression).

Fixture projects are written under ``tmp_path / "repro"`` so
canonical paths come out as ``repro/...`` and the default layer table
and path scopes apply.
"""

import textwrap

from repro import checks
from repro.checks import CheckConfig, check_paths, check_source


def write_project(root, files):
    for relative, source in files.items():
        file = root / relative
        file.parent.mkdir(parents=True, exist_ok=True)
        file.write_text(textwrap.dedent(source))
    return root


def run_rules(root, select):
    return check_paths([root], config=CheckConfig(select=select))


# -- ARCH001 ----------------------------------------------------------------


def test_arch001_flags_upward_eager_import(tmp_path):
    root = write_project(
        tmp_path / "repro",
        {
            "utils/helpers.py": "from repro.serve.server import S\n",
            "serve/server.py": "S = 1\n",
        },
    )
    findings = run_rules(root, ["ARCH001"])
    assert [f.rule for f in findings] == ["ARCH001"]
    assert findings[0].path == "repro/utils/helpers.py"
    assert findings[0].line == 1
    assert "repro.serve.server" in findings[0].message
    assert "lower layer" in findings[0].message


def test_arch001_allows_lazy_and_typing_imports(tmp_path):
    root = write_project(
        tmp_path / "repro",
        {
            "utils/helpers.py": """
                from typing import TYPE_CHECKING

                if TYPE_CHECKING:
                    from repro.serve.server import S

                def use():
                    from repro.serve.server import S
                    return S
                """,
            "serve/server.py": "S = 1\n",
        },
    )
    assert run_rules(root, ["ARCH001"]) == []


def test_arch001_allows_downward_and_same_layer(tmp_path):
    root = write_project(
        tmp_path / "repro",
        {
            "utils/a.py": "from repro.utils.b import X\n",
            "utils/b.py": "X = 1\n",
            "serve/server.py": "from repro.utils.a import X\n",
        },
    )
    assert run_rules(root, ["ARCH001"]) == []


def test_arch001_reports_shortest_cycle(tmp_path):
    root = write_project(
        tmp_path / "repro",
        {
            # Same layer (core), so no edge findings — only the cycle.
            "core/a.py": "from repro.core.b import X\n",
            "core/b.py": "from repro.core.a import Y\n",
        },
    )
    findings = run_rules(root, ["ARCH001"])
    assert len(findings) == 1
    assert "cycle" in findings[0].message
    assert "repro.core.a -> repro.core.b -> repro.core.a" in (
        findings[0].message
    )


# -- CONC001 ----------------------------------------------------------------

CONC001_VIOLATION = """
    import subprocess
    import time
    from pathlib import Path

    async def handler(future, path: Path):
        time.sleep(0.1)
        subprocess.run(["ls"])
        open("x.txt")
        path.read_text()
        return future.result()
"""


def test_conc001_flags_blocking_calls_in_async_bodies():
    findings = check_source(
        textwrap.dedent(CONC001_VIOLATION),
        path="repro/serve/handler.py",
        config=CheckConfig(select=["CONC001"]),
    )
    assert [f.rule for f in findings] == ["CONC001"] * 5
    messages = " ".join(f.message for f in findings)
    assert "time.sleep" in messages
    assert "subprocess" in messages
    assert ".result()" in messages


def test_conc001_exempts_nested_sync_defs_and_other_packages():
    source = textwrap.dedent(
        """
        import time

        async def handler(loop, pool):
            def work():
                time.sleep(0.1)
                return open("x.txt").read()
            return await loop.run_in_executor(pool, work)
        """
    )
    clean = check_source(
        source,
        path="repro/serve/handler.py",
        config=CheckConfig(select=["CONC001"]),
    )
    assert clean == []
    # Outside repro/serve the rule does not apply at all.
    elsewhere = check_source(
        textwrap.dedent(CONC001_VIOLATION),
        path="repro/core/handler.py",
        config=CheckConfig(select=["CONC001"]),
    )
    assert elsewhere == []


def test_conc001_allows_asyncio_sleep():
    source = textwrap.dedent(
        """
        import asyncio

        async def handler():
            await asyncio.sleep(0.1)
        """
    )
    assert (
        check_source(
            source,
            path="repro/serve/handler.py",
            config=CheckConfig(select=["CONC001"]),
        )
        == []
    )


# -- CONC002 ----------------------------------------------------------------


def test_conc002_flags_unlocked_mutation_from_thread(tmp_path):
    root = write_project(
        tmp_path / "repro",
        {
            "serve/server.py": """
                from concurrent.futures import ThreadPoolExecutor

                class Server:
                    def __init__(self):
                        self._pool = ThreadPoolExecutor(2)
                        self._jobs = {}

                    def submit(self, key, value):
                        def work():
                            self._jobs[key] = value
                        return self._pool.submit(work)
                """,
        },
    )
    findings = run_rules(root, ["CONC002"])
    assert [f.rule for f in findings] == ["CONC002"]
    assert "'_jobs'" in findings[0].message
    assert "lock" in findings[0].message


def test_conc002_accepts_lock_guarded_mutation(tmp_path):
    root = write_project(
        tmp_path / "repro",
        {
            "serve/server.py": """
                import threading
                from concurrent.futures import ThreadPoolExecutor

                class Server:
                    def __init__(self):
                        self._pool = ThreadPoolExecutor(2)
                        self._lock = threading.Lock()
                        self._jobs = {}

                    def submit(self, key, value):
                        def work():
                            with self._lock:
                                self._jobs[key] = value
                        return self._pool.submit(work)
                """,
        },
    )
    assert run_rules(root, ["CONC002"]) == []


def test_conc002_follows_run_in_executor_and_cross_file_calls(tmp_path):
    # server.work() runs on a pool thread and calls into the cache
    # object built in __init__; the cache's unlocked mutation is the
    # violation even though it lives in another file.
    root = write_project(
        tmp_path / "repro",
        {
            "serve/cache.py": """
                class Cache:
                    def __init__(self):
                        self._entries = {}

                    def put(self, key, value):
                        self._entries[key] = value
                """,
            "serve/server.py": """
                from repro.serve.cache import Cache

                class Server:
                    def __init__(self):
                        self._cache = Cache()

                    async def run(self, loop, pool, key, value):
                        def work():
                            self._cache.put(key, value)
                        await loop.run_in_executor(pool, work)
                """,
        },
    )
    findings = run_rules(root, ["CONC002"])
    assert [(f.rule, f.path) for f in findings] == [
        ("CONC002", "repro/serve/cache.py")
    ]
    assert "'_entries'" in findings[0].message


def test_conc002_ignores_process_pool_submissions(tmp_path):
    # A process pool worker has its own address space: per-process
    # module state (e.g. the sweep cell memo) is not thread-shared.
    root = write_project(
        tmp_path / "repro",
        {
            "sweep/executor.py": """
                from concurrent.futures import ProcessPoolExecutor

                _MEMO = {}

                def run_cell(spec):
                    _MEMO[spec] = spec
                    return spec

                def run_all(specs):
                    with ProcessPoolExecutor(2) as pool:
                        return [
                            pool.submit(run_cell, spec).result()
                            for spec in specs
                        ]
                """,
        },
    )
    assert run_rules(root, ["CONC002"]) == []


def test_conc002_flags_thread_target_mutating_module_state(tmp_path):
    root = write_project(
        tmp_path / "repro",
        {
            "sweep/progress.py": """
                import threading

                _EVENTS = []

                def _drain():
                    _EVENTS.append("tick")

                def start():
                    worker = threading.Thread(target=_drain)
                    worker.start()
                    return worker
                """,
        },
    )
    findings = run_rules(root, ["CONC002"])
    assert [f.rule for f in findings] == ["CONC002"]
    assert "'_EVENTS'" in findings[0].message


# -- CONC003 ----------------------------------------------------------------


def test_conc003_flags_live_objects_in_process_submit():
    source = textwrap.dedent(
        """
        from concurrent.futures import ProcessPoolExecutor

        from repro.telemetry import Collector

        def run(cells):
            collector = Collector()
            with ProcessPoolExecutor(2) as pool:
                return [
                    pool.submit(work, cell, collector)
                    for cell in cells
                ]
        """
    )
    findings = check_source(
        source,
        path="repro/sweep/executor.py",
        config=CheckConfig(select=["CONC003"]),
    )
    assert [f.rule for f in findings] == ["CONC003"]
    assert "process-pool submit" in findings[0].message


def test_conc003_flags_direct_unsafe_constructor_args():
    source = textwrap.dedent(
        """
        from concurrent.futures import ProcessPoolExecutor

        from repro.utils.rng import new_rng

        def run(cells):
            with ProcessPoolExecutor(2) as pool:
                return [
                    pool.submit(work, cell, new_rng(0), open("log"))
                    for cell in cells
                ]
        """
    )
    findings = check_source(
        source,
        path="repro/sweep/executor.py",
        config=CheckConfig(select=["CONC003"]),
    )
    assert len(findings) == 2
    messages = " ".join(f.message for f in findings)
    assert "new_rng" in messages
    assert "open" in messages


def test_conc003_accepts_plain_data_and_thread_pools():
    source = textwrap.dedent(
        """
        from concurrent.futures import (
            ProcessPoolExecutor,
            ThreadPoolExecutor,
        )

        def run(cells, carriers, collector):
            with ProcessPoolExecutor(2) as pool:
                futures = [
                    pool.submit(work, cells[i], carriers[i])
                    for i in range(len(cells))
                ]
            with ThreadPoolExecutor(2) as threads:
                # Same address space: a collector is fine here.
                threads.submit(observe, collector)
            return futures
        """
    )
    assert (
        check_source(
            source,
            path="repro/sweep/executor.py",
            config=CheckConfig(select=["CONC003"]),
        )
        == []
    )


# -- SCHEMA001 validators ---------------------------------------------------


def test_schema002_flags_emitter_without_validator(tmp_path):
    root = write_project(
        tmp_path / "repro",
        {
            "api.py": """
                def thing_report():
                    return {"schema_version": 1, "x": 1}
                """,
        },
    )
    findings = run_rules(root, ["SCHEMA001"])
    assert [f.rule for f in findings] == ["SCHEMA001"]
    assert "validate_thing_report" in findings[0].message


def test_schema002_requires_a_test_reference(tmp_path):
    write_project(
        tmp_path / "tests",
        {"test_other.py": "def test_unrelated():\n    pass\n"},
    )
    root = write_project(
        tmp_path / "repro",
        {
            "api.py": """
                def thing_report():
                    return {"schema_version": 1, "x": 1}

                def validate_thing_report(document):
                    return document
                """,
        },
    )
    findings = run_rules(root, ["SCHEMA001"])
    assert len(findings) == 1
    assert "never referenced by a test" in findings[0].message
    # Referencing the validator from any test clears the finding.
    write_project(
        tmp_path / "tests",
        {
            "test_thing.py": """
                from repro.api import validate_thing_report

                def test_round_trip():
                    validate_thing_report(
                        {"schema_version": 1, "x": 1}
                    )
                """,
        },
    )
    assert run_rules(root, ["SCHEMA001"]) == []


def test_schema002_accepts_delegating_emitters(tmp_path):
    write_project(
        tmp_path / "tests",
        {
            "test_base.py": (
                "from repro.api import validate_base_document\n"
            ),
        },
    )
    root = write_project(
        tmp_path / "repro",
        {
            "api.py": """
                def base_document(rows):
                    return {"schema_version": 1, "rows": rows}

                def validate_base_document(document):
                    return document

                def wrapped_report(rows) -> dict:
                    return base_document(rows)
                """,
        },
    )
    # wrapped_report only re-emits base_document, which is validated:
    # no finding for the missing validate_wrapped_report.
    assert run_rules(root, ["SCHEMA001"]) == []


def test_schema002_ignores_private_and_non_dict_functions(tmp_path):
    root = write_project(
        tmp_path / "repro",
        {
            "api.py": """
                def _internal_report():
                    return {"x": 1}

                def render_text_report() -> str:
                    return "fine"

                def summary_rows():
                    return {"not": "an emitter name"}
                """,
        },
    )
    assert run_rules(root, ["SCHEMA001"]) == []


# -- NOQA001 ----------------------------------------------------------------


def test_noqa001_flags_stale_named_pin(tmp_path):
    root = write_project(
        tmp_path / "repro",
        {
            "utils/math.py": (
                "def double(x):\n"
                "    return 2 * x  # repro: noqa[RNG001]\n"
            ),
        },
    )
    findings = run_rules(root, None)
    assert [f.rule for f in findings] == ["NOQA001"]
    assert "RNG001" in findings[0].message
    assert findings[0].line == 2


def test_noqa001_flags_bare_pin_and_unknown_rule(tmp_path):
    root = write_project(
        tmp_path / "repro",
        {
            "utils/math.py": (
                "A = 1  # repro: noqa\n"
                "B = 2  # repro: noqa[NOPE99]\n"
            ),
        },
    )
    findings = run_rules(root, None)
    assert [f.rule for f in findings] == ["NOQA001", "NOQA001"]
    assert "bare" in findings[0].message
    assert "unknown rule" in findings[1].message


def test_noqa001_keeps_firing_pins(tmp_path):
    root = write_project(
        tmp_path / "repro",
        {
            "core/sim.py": (
                "import time\n"
                "T = time.time()  # repro: noqa[DET001]\n"
            ),
        },
    )
    # The pin suppresses a real DET001 finding, so the full run is
    # clean: no DET001 (suppressed) and no NOQA001 (the pin fired).
    assert run_rules(root, None) == []


def test_noqa001_does_not_judge_pins_of_unselected_rules(tmp_path):
    root = write_project(
        tmp_path / "repro",
        {
            "core/sim.py": (
                "import time\n"
                "T = time.time()  # repro: noqa[DET001]\n"
            ),
        },
    )
    # Under --select NOQA001 alone, DET001 never ran, so the pin
    # cannot be proven stale and must not be flagged.
    assert run_rules(root, ["NOQA001"]) == []


# -- target handling --------------------------------------------------------

#: A thread target mutating ``self.items`` unlocked (CONC002, line 12)
#: beside an emitter whose SCHEMA001 finding is pinned on line 3.
THREADED_MODULE = """\
import threading

def thing_report():  # repro: noqa[SCHEMA001]
    return {"schema_version": 1}


class Pool:
    def start(self):
        threading.Thread(target=self._drain).start()

    def _drain(self):
        self.items.append(1)
"""


def test_subpackage_target_sees_the_whole_package(tmp_path):
    root = write_project(
        tmp_path / "repro",
        {
            "serve/y.py": THREADED_MODULE,
            "serve/z.py": """
                def other_report():
                    return {"schema_version": 1}
                """,
            "api.py": """
                def validate_other_report(document):
                    return document
                """,
        },
    )
    # The serve/ target is indexed as part of its enclosing package:
    # paths stay package-rooted, the repro/serve/ scope of CONC002
    # applies, the pin mutes SCHEMA001 without a NOQA001, and the
    # validator outside serve/ still counts.
    expected = [("CONC002", "repro/serve/y.py", 12)]
    for target in (root, root / "serve"):
        findings = check_paths([target])
        assert [(f.rule, f.path, f.line) for f in findings] == expected


def test_overlapping_targets_check_each_file_once(tmp_path):
    root = write_project(
        tmp_path / "repro",
        {
            "serve/y.py": THREADED_MODULE,
            "api.py": """
                def thing_report():
                    return {"schema_version": 1}
                """,
        },
    )
    whole = check_paths([root])
    assert [f.rule for f in whole] == ["SCHEMA001", "CONC002"]
    assert check_paths([root, root / "serve"]) == whole
    assert check_paths([root / "serve", root]) == whole
    # A subpackage target reports only its own files, and a file
    # target gets the per-file rules alone.
    assert check_paths([root / "serve"]) == whole[1:]
    assert check_paths([root / "serve", root / "api.py"]) == whole[1:]


def test_project_rules_are_inert_under_check_source():
    # check_source is the single-file API: project rules (and the
    # suppression audit) only run via check_paths.
    source = "from repro.serve.server import S\n"
    assert (
        check_source(
            source,
            path="repro/utils/helpers.py",
            config=CheckConfig(select=["ARCH001", "NOQA001"]),
        )
        == []
    )


def test_registry_contains_the_project_family():
    for rule_id in (
        "ARCH001",
        "CONC001",
        "CONC002",
        "CONC003",
        "SCHEMA001",
        "NOQA001",
    ):
        assert rule_id in checks.RULES

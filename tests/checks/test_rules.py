"""Unit tests for every ``repro.checks`` rule.

Each rule gets minimal positive (flagged) and negative (clean) source
fixtures, plus the ``# repro: noqa[RULE]`` suppression contract.
"""

import textwrap

import pytest

from repro import checks


def run(source, select, path="repro/somewhere/module.py", allow=None):
    """Findings of the selected rules over a dedented source string."""
    config = checks.CheckConfig(select=select, allow=allow or {})
    return checks.check_source(
        textwrap.dedent(source), path=path, config=config
    )


def rule_ids(findings):
    return [finding.rule for finding in findings]


# -- RNG001 -----------------------------------------------------------------


class TestRng001:
    def test_flags_np_random_default_rng(self):
        findings = run(
            """
            import numpy as np

            def f():
                return np.random.default_rng(0)
            """,
            ["RNG001"],
        )
        assert rule_ids(findings) == ["RNG001"]
        assert "new_rng" in findings[0].message

    def test_flags_np_random_distribution(self):
        findings = run(
            """
            import numpy as np

            x = np.random.rand(3)
            np.random.seed(0)
            """,
            ["RNG001"],
        )
        assert rule_ids(findings) == ["RNG001", "RNG001"]

    def test_flags_stdlib_random_import(self):
        assert rule_ids(run("import random\n", ["RNG001"])) == ["RNG001"]
        assert rule_ids(
            run("from random import choice\n", ["RNG001"])
        ) == ["RNG001"]

    def test_flags_aliased_numpy_random_module(self):
        # The ISSUE fixture: default_rng reached through
        # ``from numpy import random``.
        findings = run(
            """
            from numpy import random

            def f():
                return random.default_rng(7)
            """,
            ["RNG001"],
        )
        assert rule_ids(findings) == ["RNG001"]
        findings = run(
            """
            from numpy import random as nprand

            gen = nprand.default_rng(7)
            """,
            ["RNG001"],
        )
        assert rule_ids(findings) == ["RNG001"]

    def test_flags_direct_import_of_default_rng(self):
        findings = run(
            "from numpy.random import default_rng\n", ["RNG001"]
        )
        assert rule_ids(findings) == ["RNG001"]

    def test_allows_generator_annotations_and_classes(self):
        findings = run(
            """
            import numpy as np

            def f(rng: np.random.Generator) -> np.random.Generator:
                seq = np.random.SeedSequence(3)
                return rng
            """,
            ["RNG001"],
        )
        assert findings == []

    def test_allows_rng_module_itself(self):
        findings = run(
            "import numpy as np\nr = np.random.default_rng(1)\n",
            ["RNG001"],
            path="repro/utils/rng.py",
        )
        assert findings == []

    def test_noqa_suppression(self):
        findings = run(
            """
            import numpy as np

            r = np.random.default_rng(1)  # repro: noqa[RNG001]
            """,
            ["RNG001"],
        )
        assert findings == []


# -- DET001 -----------------------------------------------------------------


class TestDet001:
    def test_flags_wall_clock_sources(self):
        findings = run(
            """
            import time
            import datetime

            a = time.time()
            b = time.perf_counter()
            c = datetime.datetime.now()
            """,
            ["DET001"],
        )
        assert rule_ids(findings) == ["DET001"] * 3

    def test_flags_from_time_import(self):
        findings = run(
            "from time import perf_counter\n", ["DET001"]
        )
        assert rule_ids(findings) == ["DET001"]

    def test_flags_aliased_datetime(self):
        findings = run(
            """
            from datetime import datetime

            stamp = datetime.now()
            """,
            ["DET001"],
        )
        assert rule_ids(findings) == ["DET001"]

    def test_allows_time_sleep_and_telemetry_paths(self):
        assert run("import time\ntime.sleep(0)\n", ["DET001"]) == []
        clean = "import time\nt = time.perf_counter()\n"
        assert (
            run(clean, ["DET001"], path="repro/telemetry/collector.py")
            == []
        )
        assert run(clean, ["DET001"], path="repro/cli.py") == []

    def test_noqa_suppression(self):
        findings = run(
            """
            import time

            start = time.perf_counter()  # repro: noqa[DET001]
            """,
            ["DET001"],
        )
        assert findings == []


# -- SCHEMA001 --------------------------------------------------------------


class TestSchema001:
    def test_flags_unstamped_report(self):
        findings = run(
            """
            def fault_report():
                return {"cells": 1, "tiles": []}
            """,
            ["SCHEMA001"],
        )
        assert rule_ids(findings) == ["SCHEMA001"]
        assert "schema_version" in findings[0].message

    def test_spread_does_not_count_as_stamp(self):
        findings = run(
            """
            def totals_report(totals):
                return {**totals, "tiles": []}
            """,
            ["SCHEMA001"],
        )
        assert rule_ids(findings) == ["SCHEMA001"]

    def test_stamped_report_is_clean(self):
        findings = run(
            """
            SCHEMA_VERSION = 1

            def fault_report():
                return {"schema_version": SCHEMA_VERSION, "cells": 1}

            def bench_document():
                return {"schema_version": 1, "kind": "bench"}
            """,
            ["SCHEMA001"],
        )
        assert findings == []

    def test_private_and_unmatched_names_are_skipped(self):
        findings = run(
            """
            def _scratch_report():
                return {"cells": 1}

            def to_dict(self):
                return {"cells": 1}

            def census():
                return {"cells": 1}
            """,
            ["SCHEMA001"],
        )
        assert findings == []

    def test_method_returns_are_checked(self):
        findings = run(
            """
            class Engine:
                def fault_report(self):
                    return {"cells": 1}
            """,
            ["SCHEMA001"],
        )
        assert rule_ids(findings) == ["SCHEMA001"]

    def test_nested_function_returns_not_attributed(self):
        # The dict is returned by a *nested* helper, not by the
        # report function itself.
        findings = run(
            """
            def stats_report():
                def helper():
                    return {"cells": 1}
                document = helper()
                document["schema_version"] = 1
                return document
            """,
            ["SCHEMA001"],
        )
        assert findings == []

    def test_noqa_suppression(self):
        findings = run(
            """
            def legacy_report():
                return {"cells": 1}  # repro: noqa[SCHEMA001]
            """,
            ["SCHEMA001"],
        )
        assert findings == []


# -- TEL001 -----------------------------------------------------------------


class TestTel001:
    def test_flags_bad_paths(self):
        findings = run(
            """
            def f(tel, collector):
                tel.count("Engine/Reads", 1)
                tel.count("engine reads", 1)
                collector.span("engine\\\\reads")
            """,
            ["TEL001"],
        )
        assert rule_ids(findings) == ["TEL001"] * 3

    def test_allows_grammar_conformant_paths(self):
        findings = run(
            """
            def f(tel, collector):
                tel.count("engine/fc1/tile[pos,0]/reads", 1)
                tel.count("inference.runs", 1)
                tel.set("makespan_cycles", 3)
                collector.scope("reliability/scenario[stuck=0.01]")
                with tel.span("train/epoch[3]"):
                    pass
            """,
            ["TEL001"],
        )
        assert findings == []

    def test_fstring_constant_fragments_are_checked(self):
        findings = run(
            """
            def f(tel, stage, scheme):
                tel.count(f"stage[{stage}].busy_cycles", 1)
                with tel.span(f"simulate[{scheme}]"):
                    pass
                tel.count(f"STAGE[{stage}]", 1)
            """,
            ["TEL001"],
        )
        assert rule_ids(findings) == ["TEL001"]
        assert "STAGE" in findings[0].message

    def test_non_collector_receivers_are_ignored(self):
        findings = run(
            """
            def f(flags, registry):
                flags.set("NOT A PATH", 1)
                registry.count("Also Not", 2)
            """,
            ["TEL001"],
        )
        assert findings == []

    def test_noqa_suppression(self):
        findings = run(
            """
            def f(tel):
                tel.count("Legacy/Path", 1)  # repro: noqa[TEL001]
            """,
            ["TEL001"],
        )
        assert findings == []


# -- TEL002 -----------------------------------------------------------------


class TestTel002:
    def test_flags_unitless_leaf(self):
        findings = run(
            """
            def f(tel, collector):
                tel.observe("serve/latency/queue_wait", 0.1)
                collector.observe("coalesce/batch_size", 8)
                with tel.timed("cache/lookup"):
                    pass
            """,
            ["TEL002"],
        )
        assert rule_ids(findings) == ["TEL002"] * 3
        assert "unit suffix" in findings[0].message

    def test_allows_unit_suffixed_paths(self):
        findings = run(
            """
            def f(tel, collector):
                tel.observe("serve/latency/queue_wait_seconds", 0.1)
                collector.observe("coalesce/batch_size_jobs", 8)
                with tel.timed("cache/lookup_seconds"):
                    pass
                tel.observe("cache/hit_ratio", 0.5)
                tel.observe("payload_bytes", 512)
            """,
            ["TEL002"],
        )
        assert findings == []

    def test_flags_grammar_violations_too(self):
        findings = run(
            """
            def f(tel):
                tel.observe("Serve/Queue Wait Seconds", 0.1)
            """,
            ["TEL002"],
        )
        assert rule_ids(findings) == ["TEL002"]
        assert "lowercase" in findings[0].message

    def test_scope_and_collector_receivers_are_checked(self):
        findings = run(
            """
            class Server:
                def f(self):
                    self._serve_scope.observe("latency/e2e", 0.2)
                    self._collector.observe("queue_depth", 3)

            def g(tenant_scope):
                tenant_scope.observe("latency/e2e", 0.2)
            """,
            ["TEL002"],
        )
        assert rule_ids(findings) == ["TEL002"] * 3

    def test_non_collector_receivers_are_ignored(self):
        findings = run(
            """
            def f(watcher, probe):
                watcher.observe("Not A Path", 1)
                probe.timed("also_not")
            """,
            ["TEL002"],
        )
        assert findings == []

    def test_unit_suffix_inside_index_bracket_leaf(self):
        findings = run(
            """
            def f(tel, worker):
                tel.observe(f"queue_wait_seconds[{worker}]", 0.1)
                tel.observe(f"queue_wait[{worker}]", 0.1)
            """,
            ["TEL002"],
        )
        assert rule_ids(findings) == ["TEL002"]
        assert "queue_wait" in findings[0].message

    def test_flags_misspelled_energy_units(self):
        findings = run(
            """
            def f(tel):
                tel.observe("energy/total_joule", 1e-9)
                tel.observe("power/avg_watt", 0.5)
            """,
            ["TEL002"],
        )
        assert rule_ids(findings) == ["TEL002"] * 2
        assert "unit suffix" in findings[0].message

    def test_allows_energy_unit_suffixes(self):
        findings = run(
            """
            def f(tel):
                tel.observe("energy/total_joules", 1e-9)
                tel.observe("energy/average_watts", 0.5)
            """,
            ["TEL002"],
        )
        assert findings == []

    def test_noqa_suppression(self):
        findings = run(
            """
            def f(tel):
                tel.observe("legacy/latency", 0.1)  # repro: noqa[TEL002]
            """,
            ["TEL002"],
        )
        assert findings == []


# -- PY001 ------------------------------------------------------------------


class TestPy001:
    @pytest.mark.parametrize(
        "default", ["[]", "{}", "set()", "dict()", "list()", "[1, 2]"]
    )
    def test_flags_mutable_defaults(self, default):
        findings = run(
            f"def f(x={default}):\n    return x\n", ["PY001"]
        )
        assert rule_ids(findings) == ["PY001"]

    def test_flags_kwonly_and_lambda_defaults(self):
        findings = run(
            """
            def f(*, x=[]):
                return x

            g = lambda items=[]: items
            """,
            ["PY001"],
        )
        assert rule_ids(findings) == ["PY001", "PY001"]

    def test_allows_immutable_defaults(self):
        findings = run(
            "def f(x=None, y=(), z=3, name='ok', scale=1.0):\n"
            "    return x\n",
            ["PY001"],
        )
        assert findings == []

    def test_noqa_suppression(self):
        findings = run(
            "def f(x=[]):  # repro: noqa[PY001]\n    return x\n",
            ["PY001"],
        )
        assert findings == []


# -- PY002 ------------------------------------------------------------------


class TestPy002:
    def test_flags_non_sentinel_float_equality(self):
        findings = run(
            """
            def f(x):
                if x == 0.5:
                    return 1
                return x != 2.5
            """,
            ["PY002"],
        )
        assert rule_ids(findings) == ["PY002", "PY002"]
        assert "isclose" in findings[0].message

    def test_allows_sentinel_and_ordering_comparisons(self):
        findings = run(
            """
            def f(rate, scale):
                if rate == 0.0 or scale != 1.0 or rate == -1.0:
                    return 0
                return rate < 0.5 and scale >= 2.5
            """,
            ["PY002"],
        )
        assert findings == []

    def test_noqa_suppression(self):
        findings = run(
            """
            def f(x):
                return x == 0.25  # repro: noqa[PY002]
            """,
            ["PY002"],
        )
        assert findings == []


# -- PY003 ------------------------------------------------------------------


class TestPy003:
    def test_flags_builtin_shadowing_params(self):
        findings = run(
            """
            def select(filter, type):
                return filter, type
            """,
            ["PY003"],
        )
        assert rule_ids(findings) == ["PY003", "PY003"]
        assert "'filter'" in findings[0].message
        assert "select()" in findings[0].message

    def test_flags_lambda_vararg_and_kwarg(self):
        findings = run(
            """
            f = lambda list: list

            def g(*input, **vars):
                return input, vars
            """,
            ["PY003"],
        )
        assert rule_ids(findings) == ["PY003", "PY003", "PY003"]

    def test_flags_kwonly_and_posonly(self):
        findings = run(
            """
            def f(dict, /, *, range):
                return dict, range
            """,
            ["PY003"],
        )
        assert rule_ids(findings) == ["PY003", "PY003"]

    def test_allows_clean_and_site_injected_names(self):
        findings = run(
            """
            def f(name_filter, type_, items, help, exit):
                return name_filter
            """,
            ["PY003"],
        )
        assert findings == []

    def test_noqa_suppression(self):
        findings = run(
            "def f(filter):  # repro: noqa[PY003]\n    return filter\n",
            ["PY003"],
        )
        assert findings == []


# -- engine-level behavior --------------------------------------------------


class TestEngine:
    def test_bare_noqa_suppresses_all_rules(self):
        findings = run(
            """
            import numpy as np

            r = np.random.default_rng(0)  # repro: noqa
            """,
            ["RNG001"],
        )
        assert findings == []

    def test_noqa_only_suppresses_named_rules(self):
        findings = run(
            """
            import numpy as np

            r = np.random.default_rng(0)  # repro: noqa[DET001]
            """,
            ["RNG001"],
        )
        assert rule_ids(findings) == ["RNG001"]

    def test_noqa_inside_string_literal_is_inert(self):
        findings = run(
            """
            import numpy as np

            note = "use # repro: noqa[RNG001] to suppress"
            r = np.random.default_rng(0)
            """,
            ["RNG001"],
        )
        assert rule_ids(findings) == ["RNG001"]

    def test_unknown_rule_selection_raises(self):
        with pytest.raises(ValueError, match="unknown rule"):
            checks.CheckConfig(select=["NOPE01"]).rules()

    def test_syntax_error_becomes_parse_finding(self):
        findings = checks.check_source("def broken(:\n")
        assert rule_ids(findings) == ["PARSE"]

    def test_findings_sorted_and_located(self):
        findings = run(
            """
            import time

            def f(x=[]):
                return time.time()
            """,
            ["DET001", "PY001"],
        )
        assert rule_ids(findings) == ["PY001", "DET001"]
        assert [f.line for f in findings] == [4, 5]
        assert all(f.col > 0 for f in findings)

    def test_extra_allow_paths_via_config(self):
        source = "import time\nt = time.time()\n"
        findings = run(
            source,
            ["DET001"],
            path="repro/bench/custom.py",
            allow={"DET001": ["repro/bench/*"]},
        )
        assert findings == []

    def test_check_report_document_shape(self):
        findings = run("def f(x=[]):\n    return x\n", ["PY001"])
        document = checks.check_report(
            findings, targets=["src"], select=["PY001"]
        )
        assert document["schema_version"] == checks.SCHEMA_VERSION
        assert document["kind"] == "check_report"
        assert document["finding_count"] == 1
        assert document["counts"] == {"PY001": 1}
        assert document["findings"][0]["rule"] == "PY001"

    def test_render_findings_text(self):
        findings = run("def f(x=[]):\n    return x\n", ["PY001"])
        text = checks.render_findings(findings, ["PY001"])
        assert "repro/somewhere/module.py:1:" in text
        assert "1 finding(s)" in text
        assert "clean" in checks.render_findings([], ["PY001"])

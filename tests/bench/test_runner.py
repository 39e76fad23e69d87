"""Runner behaviour: execution, baseline gating, trajectory history."""

import json

import pytest

from repro.bench import (
    DEFAULT_REL_TOL,
    compare_metrics,
    load_baseline,
    load_trajectory,
    run_suite,
    validate_baseline,
    write_baseline,
)

from tests.bench.conftest import FAILING_BENCH, FULL_ONLY_BENCH, GOOD_BENCH


def _run(bench_dir, tmp_path, **kwargs):
    kwargs.setdefault("baseline_dir", bench_dir / "baselines")
    kwargs.setdefault("trajectory_path", tmp_path / "traj.json")
    return run_suite(bench_dir=bench_dir, **kwargs)


class TestRunSuite:
    def test_captures_documents_and_metrics(self, make_bench_dir,
                                            tmp_path):
        bench_dir = make_bench_dir(bench_good=GOOD_BENCH)
        run = _run(bench_dir, tmp_path)
        (outcome,) = run.benches
        assert outcome.status == "ok"
        assert outcome.metrics == {"w/b/answer": 42.0, "w/b/cycles": 7.0}
        assert outcome.documents[0]["kind"] == "bench"
        assert outcome.baseline_status == "no-baseline"
        assert run.exit_code == 0

    def test_failure_sets_exit_code(self, make_bench_dir, tmp_path):
        bench_dir = make_bench_dir(
            bench_good=GOOD_BENCH, bench_bad=FAILING_BENCH
        )
        run = _run(bench_dir, tmp_path)
        statuses = {b.name: b.status for b in run.benches}
        assert statuses == {"alpha": "ok", "boom": "failed"}
        boom = next(b for b in run.benches if b.name == "boom")
        assert "kaboom" in boom.error
        assert run.failure_count == 1
        assert run.exit_code == 1
        assert "failed" in run.summary()

    @pytest.mark.parametrize(
        "returned, message",
        [
            ("None", "returned NoneType, not a list of bench documents"),
            ("DOC", "returned dict, not a list of bench documents"),
            ("[DOC, 'x']", "document 1 is a str, not a bench document"),
            ("[{'kind': 'bench'}]", "bench document missing field"),
            ("[dict(DOC, kind='profile')]", "bench kind 'profile'"),
        ],
    )
    def test_bad_return_fails_that_bench_only(
        self, make_bench_dir, tmp_path, returned, message
    ):
        """The runner boundary: a bench that returns anything but a
        list of valid bench documents fails with an error naming the
        problem, and the other benches still run."""
        bad = f"""
            from repro.bench import register
            from repro.telemetry import bench_document

            DOC = bench_document(
                bench="bad", workload="w", backend="b", wall_time_s=0.0,
                counters={{}}, extra={{"metrics": {{"x": 1.0}}}},
            )


            @register(suite="quick")
            def bench_bad():
                return {returned}
        """
        bench_dir = make_bench_dir(bench_good=GOOD_BENCH, bench_bad=bad)
        run = _run(bench_dir, tmp_path)
        outcomes = {b.name: b for b in run.benches}
        assert outcomes["alpha"].status == "ok"
        assert outcomes["alpha"].metrics == {
            "w/b/answer": 42.0, "w/b/cycles": 7.0
        }
        assert outcomes["bad"].status == "failed"
        assert message in outcomes["bad"].error
        assert outcomes["bad"].metrics == {}
        assert run.exit_code == 1

    def test_suite_and_filter_selection(self, make_bench_dir, tmp_path):
        bench_dir = make_bench_dir(
            bench_good=GOOD_BENCH, bench_full=FULL_ONLY_BENCH
        )
        quick = _run(bench_dir, tmp_path, suite="quick")
        assert [b.name for b in quick.benches] == ["alpha"]
        full = _run(bench_dir, tmp_path, suite="full")
        assert [b.name for b in full.benches] == ["alpha", "slow"]
        filtered = _run(
            bench_dir, tmp_path, suite="full", name_filter="sl*"
        )
        assert [b.name for b in filtered.benches] == ["slow"]

    def test_deprecated_filter_alias(self, make_bench_dir, tmp_path):
        # The alias shadowed the builtin (PY003) and is gone; only
        # name_filter= selects benches.
        bench_dir = make_bench_dir(bench_good=GOOD_BENCH)
        with pytest.raises(TypeError, match="'filter'"):
            _run(bench_dir, tmp_path, suite="full", filter="sl*")

    def test_unexpected_kwarg_rejected(self, make_bench_dir, tmp_path):
        bench_dir = make_bench_dir(bench_good=GOOD_BENCH)
        with pytest.raises(TypeError, match="unexpected keyword"):
            _run(bench_dir, tmp_path, no_such_option=1)

    def test_parallel_workers_match_serial(self, make_bench_dir,
                                           tmp_path):
        bench_dir = make_bench_dir(
            bench_good=GOOD_BENCH, bench_full=FULL_ONLY_BENCH
        )
        serial = _run(bench_dir, tmp_path, suite="full")
        parallel = _run(bench_dir, tmp_path, suite="full", workers=2)
        assert [b.name for b in parallel.benches] == [
            b.name for b in serial.benches
        ]
        assert [b.metrics for b in parallel.benches] == [
            b.metrics for b in serial.benches
        ]
        assert parallel.exit_code == serial.exit_code == 0

    def test_update_then_compare_clean(self, make_bench_dir, tmp_path):
        bench_dir = make_bench_dir(bench_good=GOOD_BENCH)
        first = _run(bench_dir, tmp_path, update_baselines=True)
        assert first.benches[0].baseline_status == "updated"
        baseline = load_baseline(bench_dir / "baselines", "alpha")
        validate_baseline(baseline)
        assert baseline["metrics"]["w/b/answer"]["value"] == 42.0
        second = _run(bench_dir, tmp_path)
        assert second.benches[0].baseline_status == "ok"
        assert second.exit_code == 0

    def test_perturbed_baseline_regresses(self, make_bench_dir,
                                          tmp_path):
        """The acceptance check: nudge a committed baseline outside
        its band and the run exits non-zero."""
        bench_dir = make_bench_dir(bench_good=GOOD_BENCH)
        _run(bench_dir, tmp_path, update_baselines=True)
        path = bench_dir / "baselines" / "alpha.json"
        document = json.loads(path.read_text())
        document["metrics"]["w/b/answer"]["value"] = 43.0
        path.write_text(json.dumps(document))
        run = _run(bench_dir, tmp_path)
        (outcome,) = run.benches
        assert outcome.baseline_status == "regression"
        (deviation,) = outcome.regressions
        assert deviation.metric == "w/b/answer"
        assert deviation.status == "regression"
        assert run.exit_code == 1
        assert "REGRESSION" in run.summary()

    def test_missing_metric_is_regression(self, make_bench_dir,
                                          tmp_path):
        bench_dir = make_bench_dir(bench_good=GOOD_BENCH)
        _run(bench_dir, tmp_path, update_baselines=True)
        path = bench_dir / "baselines" / "alpha.json"
        document = json.loads(path.read_text())
        document["metrics"]["w/b/vanished"] = {"value": 1.0}
        path.write_text(json.dumps(document))
        run = _run(bench_dir, tmp_path)
        (deviation,) = run.benches[0].regressions
        assert deviation.status == "missing"
        assert "did not produce" in deviation.describe()
        assert run.exit_code == 1

    def test_run_only_metrics_ignored(self):
        baseline = {
            "schema_version": 1,
            "kind": "bench_baseline",
            "bench": "x",
            "metrics": {"a": {"value": 1.0}},
        }
        deviations = compare_metrics(
            "x", {"a": 1.0, "brand_new": 99.0}, baseline
        )
        assert [d.status for d in deviations] == ["ok"]

    def test_abs_tol_band(self):
        baseline = {
            "schema_version": 1,
            "kind": "bench_baseline",
            "bench": "x",
            "metrics": {"a": {"value": 0.0, "abs_tol": 0.5}},
        }
        (ok,) = compare_metrics("x", {"a": 0.4}, baseline)
        assert ok.status == "ok"
        (bad,) = compare_metrics("x", {"a": 0.6}, baseline)
        assert bad.status == "regression"


class TestTrajectory:
    def test_appends_runs(self, make_bench_dir, tmp_path):
        bench_dir = make_bench_dir(bench_good=GOOD_BENCH)
        trajectory = tmp_path / "traj.json"
        _run(bench_dir, tmp_path)
        _run(bench_dir, tmp_path)
        document = load_trajectory(trajectory)
        assert document["kind"] == "bench_trajectory"
        assert len(document["runs"]) == 2
        record = document["runs"][0]["benches"][0]
        assert record["name"] == "alpha"
        assert record["metrics"]["w/b/answer"] == 42.0

    def test_rejects_foreign_document(self, tmp_path):
        path = tmp_path / "traj.json"
        path.write_text(json.dumps({"kind": "something_else"}))
        with pytest.raises(ValueError, match="not a bench trajectory"):
            load_trajectory(path)

    def test_concurrent_appends_keep_every_record(self, tmp_path):
        """The bugfix: parallel appenders must not drop records (the
        old load→append→rewrite raced and lost updates)."""
        import threading

        from repro.bench.runner import SuiteRun, append_trajectory

        path = tmp_path / "traj.json"
        runs = [
            SuiteRun(
                suite=f"s{i}", filter=None, benches=[], wall_time_s=0.0
            )
            for i in range(8)
        ]
        threads = [
            threading.Thread(target=append_trajectory, args=(path, run))
            for run in runs
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        document = load_trajectory(path)
        assert len(document["runs"]) == 8
        assert sorted(r["suite"] for r in document["runs"]) == sorted(
            f"s{i}" for i in range(8)
        )


class TestBaselineValidation:
    def test_write_baseline_roundtrip(self, tmp_path):
        path = write_baseline(tmp_path, "demo", {"m": 3.5})
        document = json.loads(path.read_text())
        validate_baseline(document)
        assert document["metrics"]["m"] == {
            "value": 3.5, "rel_tol": DEFAULT_REL_TOL
        }

    @pytest.mark.parametrize(
        "mutation, message",
        [
            ({"kind": "bench"}, "kind"),
            ({"schema_version": 99}, "schema_version"),
            ({"metrics": {"m": 3.5}}, "dict with 'value'"),
        ],
    )
    def test_rejects_malformed(self, tmp_path, mutation, message):
        write_baseline(tmp_path, "demo", {"m": 3.5})
        document = json.loads((tmp_path / "demo.json").read_text())
        document.update(mutation)
        with pytest.raises(ValueError, match=message):
            validate_baseline(document)

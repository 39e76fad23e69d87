"""Wall-time stays out of every deterministic / baseline-gated metric.

``repro profile`` measures ``time.perf_counter`` around subcommand
dispatch (the one legitimate CLI timing shim).  This suite pins the
audit result: that measurement surfaces only as ``wall_time_s`` /
span fields, never inside the deterministic ``counters`` section, a
bench document's baseline-gated ``metrics`` map, or the committed
baselines themselves.
"""

import json
from pathlib import Path

from repro.bench.runner import _document_metrics
from repro.cli import main

# Matches the runner's _WALL_CLOCK_METRICS guard; deliberately does
# not match deterministic *model* metrics like subcycle_time_swing.
_WALL_MARKERS = ("wall_time", "wall_clock", "elapsed_s", "timestamp")


def test_profile_counters_carry_no_wall_clock(tmp_path, capsys):
    trace = tmp_path / "trace.json"
    exit_code = main(
        [
            "profile", "--trace-out", str(trace),
            "infer", "mlp", "--json", "--count", "4", "--seed", "1",
        ]
    )
    assert exit_code == 0
    document = json.loads(capsys.readouterr().out)
    # The wall time is reported -- but only at the top level, outside
    # every determinism contract.
    assert document["wall_time_s"] > 0
    for path in document["counters"]:
        assert not any(marker in path for marker in _WALL_MARKERS), (
            f"wall-clock-looking counter {path!r} in deterministic "
            "profile section"
        )


def test_bench_metric_flattening_drops_wall_clock_keys(caplog):
    document = {
        "workload": "mlp",
        "backend": "vectorized",
        "metrics": {
            "accuracy": 0.5,
            "wall_time_s": 1.23,
            "total_wall_clock": 9.9,
            "elapsed_s": 4.5,
        },
    }
    with caplog.at_level("WARNING", logger="repro.bench"):
        metrics = _document_metrics([document])
    assert metrics == {"mlp/vectorized/accuracy": 0.5}
    assert "wall-clock" in caplog.text


def test_committed_baselines_carry_no_wall_clock_metrics():
    baseline_dir = Path(__file__).resolve().parents[2] / (
        "benchmarks/baselines"
    )
    checked = 0
    for baseline_file in sorted(baseline_dir.glob("*.json")):
        document = json.loads(baseline_file.read_text())
        for name in document.get("metrics", {}):
            checked += 1
            assert not any(m in name for m in _WALL_MARKERS), (
                f"{baseline_file.name} gates wall-clock metric {name!r}"
            )
    assert checked > 0, "no baseline metrics found -- wrong directory?"


def test_bench_run_document_keeps_wall_time_outside_metrics(tmp_path):
    # An in-process suite run via the public runner API, against a
    # hermetic bench package (the real benchmarks/ tree writes result
    # artifacts): a bench that *tries* to smuggle wall_time_s into its
    # metrics map sees it stripped, while wall time still lands on the
    # run and bench outcomes.
    from repro.bench import run_suite
    from tests.bench.conftest import build_bench_dir

    bench_dir = build_bench_dir(
        tmp_path,
        bench_wall="""
            from repro.bench import register
            from repro.telemetry import bench_document


            @register(suite="quick")
            def bench_sneaky():
                return [bench_document(
                    bench="sneaky", workload="w", backend="b",
                    wall_time_s=0.5, counters={},
                    extra={"metrics": {
                        "cycles": 7.0, "wall_time_s": 0.5,
                    }},
                )]
        """,
    )
    run = run_suite(
        suite="quick",
        bench_dir=bench_dir,
        baseline_dir=tmp_path / "baselines",
        trajectory_path=tmp_path / "trajectory.json",
    )
    assert run.wall_time_s > 0
    (bench,) = run.benches
    assert bench.wall_time_s > 0
    assert bench.metrics == {"w/b/cycles": 7.0}

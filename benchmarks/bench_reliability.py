"""R1 — accuracy vs fault rate (the reliability campaign curve).

The crossbar fabric is only useful if the mapped network tolerates the
device's failure modes.  This benchmark trains the toy MLP golden
reference on the float path, then sweeps stuck-cell and transient
read-upset rates through :func:`repro.reliability.run_campaign`,
recording the accuracy-degradation curve for each axis.  The whole
campaign derives from one seed, so the recorded curve is reproducible
bit for bit.
"""

import time

from benchmarks._common import format_table, record, record_json
from repro.bench import register
from repro.reliability import run_campaign
from repro.telemetry import Collector
from repro.telemetry import bench_document as _bench_document

STUCK_RATES = (0.0, 0.002, 0.01, 0.05, 0.2)
UPSET_RATES = (0.0, 0.001, 0.01, 0.05, 0.2)
CAMPAIGN = dict(
    workload="mlp",
    seed=7,
    count=64,
    batch=32,
    train_epochs=16,
    train_count=512,
    include_tiles=False,
)


def run_axis(axis, rates, collector=None):
    return run_campaign(
        axis=axis, rates=rates, collector=collector, **CAMPAIGN
    )


def _run_axis_timed(axis, rates):
    """(report, bench document) for one recorded campaign axis."""
    collector = Collector(record_spans=False)
    start = time.perf_counter()
    report = run_axis(axis, rates, collector=collector)
    wall_time_s = time.perf_counter() - start
    counters = {
        path: value
        for path, value in collector.counters().items()
        if "tile[" not in path
    }
    # Accuracy/mismatch numbers are bit-reproducible (one master seed
    # drives the whole campaign), so they are baseline-gated metrics.
    heaviest = report["scenarios"][-1]
    document = _bench_document(
        bench="reliability",
        workload=CAMPAIGN["workload"],
        backend=report["backend"],
        wall_time_s=wall_time_s,
        counters=counters,
        extra={
            "axis": axis,
            "rates": list(rates),
            "metrics": {
                f"{axis}_baseline_accuracy": report["baseline_accuracy"],
                f"{axis}_heaviest_accuracy": heaviest["accuracy"],
                f"{axis}_heaviest_mismatch": heaviest["mismatch_rate"],
            },
        },
    )
    return report, document


@register(suite="quick")
def bench_reliability():
    stuck, stuck_doc = _run_axis_timed("stuck", STUCK_RATES)
    upset, upset_doc = _run_axis_timed("upset", UPSET_RATES)
    documents = record_json("reliability", [stuck_doc, upset_doc])

    rows = []
    for report in (stuck, upset):
        for scenario in report["scenarios"]:
            rows.append(
                (
                    scenario["name"],
                    scenario["accuracy"],
                    scenario["mismatch_rate"],
                    scenario["logit_rms_error"],
                )
            )
    lines = [
        f"golden (float) accuracy: {stuck['baseline_accuracy']:.4g}",
        "",
    ]
    lines += format_table(
        ("scenario", "accuracy", "mismatch", "logit_rms"), rows
    )
    record("reliability", lines)

    # The golden reference actually trained (chance is 0.25 for the
    # 4-class toy set), and the quantization-only floor stays close.
    assert stuck["baseline_accuracy"] > 0.5
    by_name = {
        scenario["name"]: scenario
        for report in (stuck, upset)
        for scenario in report["scenarios"]
    }
    assert by_name["stuck=0"]["accuracy"] >= stuck["baseline_accuracy"] - 0.1
    # The fault-free points inject nothing beyond quantization.
    for name in ("stuck=0", "upset=0"):
        assert by_name[name]["logit_rms_error"] < 0.2

    # Faults monotonically increase output damage along each axis, and
    # the heavy end of the sweep visibly degrades accuracy.
    for report in (stuck, upset):
        errors = [s["logit_rms_error"] for s in report["scenarios"]]
        assert errors == sorted(errors), report["axis"]
    assert by_name["stuck=0.2"]["accuracy"] <= by_name["stuck=0"]["accuracy"]
    assert by_name["stuck=0.2"]["mismatch_rate"] > 0.0
    assert by_name["upset=0.2"]["mismatch_rate"] > 0.0

    return documents

"""A3/A4 — device-effect studies implied by the training-on-ReRAM claim.

Three sweeps:

* **Noise-aware training** (A3): PipeLayer trains on the arrays, so a
  network can adapt to its own device's fixed defects.  Measured as
  clean-then-deploy vs crossbar-in-the-loop accuracy on a device with
  persistent stuck cells.
* **IR drop vs array size** (A4): wire resistance degrades far cells;
  smaller arrays (shorter wires) trade tiling overhead for fidelity —
  the physical argument behind the 128x128 design point.
* **Endurance lifetime** (A4): each batch rewrites every weight cell;
  lifetime under continuous training for the PipeLayer suite across
  endurance ratings.
"""

import math
import time

import numpy as np

from benchmarks._common import format_table, record, record_json
from repro.arch import training_lifetime
from repro.bench import register
from repro.telemetry import bench_document as _bench_document
from repro.core import PipeLayerModel
from repro.core.training_sim import compare_noise_aware
from repro.datasets import make_train_test
from repro.nn import SGD, build_mlp
from repro.workloads import pipelayer_suite
from repro.xbar import CrossbarEngine, CrossbarEngineConfig, DeviceConfig


def _small_data():
    x_train, y_train, x_test, y_test = make_train_test(
        300, 100, noise=0.1, rng=7
    )

    def shrink(images):
        return images[:, :, ::2, ::2].reshape(len(images), -1)

    return shrink(x_train), y_train, shrink(x_test), y_test


def noise_aware_rows():
    x_train, y_train, x_test, y_test = _small_data()
    rows = []
    for stuck in (0.01, 0.03):
        device = DeviceConfig(
            stuck_on_rate=stuck, stuck_off_rate=stuck, program_noise=0.02
        )
        config = CrossbarEngineConfig(
            array_rows=64, array_cols=64, device=device, fast_linear=True
        )
        comparison = compare_noise_aware(
            lambda: build_mlp(196, (32,), 10, rng=5),
            lambda net: SGD(net.parameters(), lr=0.05, momentum=0.9),
            (x_train, y_train),
            (x_test, y_test),
            config,
            epochs=4,
            batch_size=32,
        )
        rows.append(
            (
                f"{stuck:.0%}+{stuck:.0%}",
                comparison.float_accuracy,
                comparison.clean_then_deploy_accuracy,
                comparison.in_loop_accuracy,
                comparison.recovery,
            )
        )
    return rows


def ir_drop_rows():
    rng = np.random.default_rng(0)
    weights = rng.normal(size=(256, 64))
    activations = rng.normal(size=(8, 256))
    exact = activations @ weights
    rows = []
    for array_size in (32, 64, 128):
        for wire_resistance in (0.0, 1.0, 5.0):
            config = CrossbarEngineConfig(
                array_rows=array_size,
                array_cols=array_size,
                device=DeviceConfig(wire_resistance=wire_resistance),
                fast_ideal=False,
            )
            engine = CrossbarEngine(config, rng=1)
            engine.prepare(weights)
            out = engine.matmul(activations)
            error = float(
                np.mean(np.abs(out - exact)) / np.mean(np.abs(exact))
            )
            rows.append((array_size, wire_resistance, error))
    return rows


def endurance_rows():
    rows = []
    for spec in pipelayer_suite():
        model = PipeLayerModel(spec, array_budget=262144)
        for endurance in (1e6, 1e9, 1e12):
            report = training_lifetime(model, batch=32, endurance=endurance)
            rows.append(
                (
                    spec.name,
                    f"{endurance:.0e}",
                    report.lifetime_examples,
                    report.lifetime_days,
                )
            )
    return rows


@register(suite="quick")
def bench_device_effects():
    start = time.perf_counter()
    ir_rows = ir_drop_rows()
    na_rows = noise_aware_rows()
    end_rows = endurance_rows()
    wall_time_s = time.perf_counter() - start

    lines = ["[noise-aware training: fixed stuck cells]"]
    lines += format_table(
        ("stuck", "float", "deploy_after", "in_loop", "recovered"), na_rows
    )
    lines.append("\n[IR drop: mean rel error vs array size]")
    lines += format_table(("array", "r_wire", "rel_err"), ir_rows)
    lines.append("\n[endurance lifetime, B=32 continuous training]")
    lines += format_table(
        ("network", "endurance", "examples", "days"), end_rows
    )
    record("device_effects", lines)
    err_by_size = {
        size: error
        for size, wire_resistance, error in ir_rows
        if wire_resistance == 5.0
    }
    documents = record_json(
        "device_effects",
        _bench_document(
            bench="device_effects",
            workload="device_effects",
            backend="sim",
            wall_time_s=wall_time_s,
            counters={},
            extra={
                "metrics": {
                    "in_loop_accuracy_heavy": na_rows[-1][3],
                    "recovery_heavy": na_rows[-1][4],
                    "ir_rel_err_32_r5": err_by_size[32],
                    "ir_rel_err_128_r5": err_by_size[128],
                    "lifetime_examples_1e9": end_rows[1][2],
                }
            },
        ),
    )

    # Noise-aware training recovers accuracy at the heavier fault rate.
    heavy = na_rows[-1]
    assert heavy[4] > 0.05
    # IR drop: error grows with wire resistance at fixed array size...
    by_size = {}
    for array_size, wire_resistance, error in ir_rows:
        by_size.setdefault(array_size, []).append(error)
    for errors in by_size.values():
        assert errors[0] <= errors[1] <= errors[2]
    # ...and shrinking the array reduces it at fixed resistance.
    err_at_5 = {
        size: error
        for size, wire_resistance, error in ir_rows
        if wire_resistance == 5.0
    }
    assert err_at_5[32] < err_at_5[128]
    # Endurance: lifetime scales linearly with the rating.
    assert math.isclose(end_rows[1][2], end_rows[0][2] * 1000, rel_tol=1e-6)

    return documents

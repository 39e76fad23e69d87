"""A2 — ablations over the design choices DESIGN.md calls out.

Four sweeps, all on the AlexNet deployment at batch 32:

* array size (64 / 128 / 256): cycle time vs array count;
* activation (spike-code) width: cycle time vs fidelity proxy;
* array budget (duplication headroom): speedup vs energy saving —
  the paper's "carefully chosen X" trade-off at system level;
* batch size: pipelined training speedup vs the GPU (amortisation of
  the weight-update bubble).
"""

import time

from benchmarks._common import format_table, record, record_json
from repro.bench import register
from repro.core import PipeLayerModel
from repro.core.mapping import MappingConfig
from repro.telemetry import bench_document as _bench_document
from repro.workloads import alexnet_spec


def sweep_array_size():
    rows = []
    for array_size in (64, 128, 256):
        config = MappingConfig(array_rows=array_size, array_cols=array_size)
        model = PipeLayerModel(
            alexnet_spec(), array_budget=262144, mapping_config=config
        )
        report = model.report(batch=32, training=True)
        rows.append(
            (
                array_size,
                model.total_arrays,
                report.cycle_time * 1e6,
                report.speedup,
                report.energy_saving,
            )
        )
    return rows


def sweep_activation_bits():
    rows = []
    for bits in (4, 8, 16):
        config = MappingConfig(activation_bits=bits)
        model = PipeLayerModel(
            alexnet_spec(), array_budget=262144, mapping_config=config
        )
        report = model.report(batch=32, training=True)
        rows.append(
            (bits, report.cycle_time * 1e6, report.speedup,
             report.energy_saving)
        )
    return rows


def sweep_budget():
    rows = []
    for budget in (262144 // 2, 262144, 262144 * 2, 262144 * 4):
        model = PipeLayerModel(alexnet_spec(), array_budget=budget)
        report = model.report(batch=32, training=True)
        rows.append(
            (budget, report.total_arrays, report.speedup,
             report.energy_saving)
        )
    return rows


def sweep_input_coding():
    """Weighted spike coding vs rate (unary) coding vs analog DAC.

    Functional results are identical (verified in the test suite); the
    difference is sub-cycles per MVM — the paper's stated reason for
    the weighted scheme.
    """
    from repro.xbar import AnalogDAC, InputEncoding, RateCoder, SpikeCoder

    rows = []
    for bits in (4, 8, 16):
        encoding = InputEncoding(bits=bits)
        rows.append(
            (
                bits,
                SpikeCoder(encoding).subcycles,
                RateCoder(encoding).subcycles,
                AnalogDAC(encoding).subcycles,
                RateCoder(encoding).subcycles
                / SpikeCoder(encoding).subcycles,
            )
        )
    return rows


def sweep_batch():
    model = PipeLayerModel(alexnet_spec(), array_budget=262144)
    rows = []
    for batch in (1, 8, 32, 128):
        report = model.report(batch=batch, training=True)
        rows.append((batch, report.speedup, report.energy_saving))
    return rows


@register(suite="quick")
def bench_ablation():
    start = time.perf_counter()
    array_rows = sweep_array_size()
    bits_rows = sweep_activation_bits()
    budget_rows = sweep_budget()
    batch_rows = sweep_batch()
    wall_time_s = time.perf_counter() - start

    lines = ["[array size]"]
    lines += format_table(
        ("size", "arrays", "cycle_us", "speedup", "energy_x"), array_rows
    )
    lines.append("\n[activation bits]")
    lines += format_table(
        ("bits", "cycle_us", "speedup", "energy_x"), bits_rows
    )
    lines.append("\n[array budget]")
    lines += format_table(
        ("budget", "deployed", "speedup", "energy_x"), budget_rows
    )
    lines.append("\n[batch size]")
    lines += format_table(("B", "speedup", "energy_x"), batch_rows)
    coding_rows = sweep_input_coding()
    lines.append("\n[input coding: sub-cycles per MVM]")
    lines += format_table(
        ("bits", "weighted", "rate", "analog", "rate/weighted"),
        coding_rows,
    )
    record("ablation", lines)
    documents = record_json(
        "ablation",
        _bench_document(
            bench="ablation",
            workload="ablation",
            backend="model",
            wall_time_s=wall_time_s,
            counters={},
            extra={
                "metrics": {
                    "speedup_budget_min": budget_rows[0][2],
                    "speedup_budget_max": budget_rows[-1][2],
                    "speedup_b128": batch_rows[-1][1],
                    "rate_over_weighted_16b": coding_rows[-1][4],
                    "cycle_us_8b": bits_rows[1][1],
                }
            },
        ),
    )

    # Weighted spike coding's advantage grows exponentially with bits.
    ratios = [row[4] for row in coding_rows]
    assert ratios == sorted(ratios)
    assert coding_rows[-1][4] > 1000  # 16-bit: 65535/16

    # Budget: more arrays -> more duplication X -> more speedup, but the
    # energy saving erodes (write + static overheads grow) — exactly the
    # Fig. 4 "excessive hardware cost" warning at system scale.
    budget_speedups = [row[2] for row in budget_rows]
    assert budget_speedups == sorted(budget_speedups)
    assert budget_rows[-1][3] < budget_rows[0][3] * 2.5

    # Activation bits: cycle time scales linearly with spike passes.
    cycle_by_bits = {row[0]: row[1] for row in bits_rows}
    assert cycle_by_bits[16] > cycle_by_bits[8] > cycle_by_bits[4]

    # Batch: speedup improves with B (update bubble amortised).
    batch_speedups = [row[1] for row in batch_rows]
    assert batch_speedups == sorted(batch_speedups)

    return documents

"""Fig. 7 — FCNN forward/backward mapping equivalence and cost.

Fig. 7(a): a fractional-strided convolution equals an ordinary
convolution over the zero-inserted input; Fig. 7(b): its error
back-propagation is a strided convolution.  The benchmark verifies both
equivalences numerically on DCGAN-shaped layers, measures the
zero-insertion formulation's runtime, and records the wasted-drive
fraction (zeros in the extended map) per generator stage — the cost
ReGAN accepts to reuse convolution hardware.
"""

import time

import numpy as np

from benchmarks._common import format_table, record, record_json
from repro.bench import register
from repro.telemetry import bench_document as _bench_document
from repro.core.fcnn import (
    fcnn_backward_strided_conv,
    fcnn_forward_zero_insertion,
    zero_fraction,
)
from repro.nn.layers import FractionalStridedConv2D

# DCGAN generator stages for a 64x64 model (channels reduced 4x so the
# functional check stays fast; geometry is what matters here).
STAGES = [
    # (cin, cout, size) with k=4, s=2, p=1
    (256, 128, 4),
    (128, 64, 8),
    (64, 32, 16),
    (32, 3, 32),
]


def forward_all(layers, inputs_list):
    return [
        fcnn_forward_zero_insertion(inputs, layer.weight.value, 2, 1)
        for layer, inputs in zip(layers, inputs_list)
    ]


@register(suite="quick")
def bench_fig7_fcnn():
    rng = np.random.default_rng(0)
    layers, inputs_list, rows = [], [], []
    for cin, cout, size in STAGES:
        layer = FractionalStridedConv2D(
            cin, cout, 4, stride=2, pad=1, use_bias=False, rng=1
        )
        inputs = rng.normal(size=(2, cin, size, size))
        layers.append(layer)
        inputs_list.append(inputs)

        reference = layer.forward(inputs)
        via_zeros = fcnn_forward_zero_insertion(
            inputs, layer.weight.value, 2, 1
        )
        forward_err = float(np.max(np.abs(reference - via_zeros)))

        grad = rng.normal(size=reference.shape)
        layer.zero_grad()
        back_reference = layer.backward(grad)
        back_conv = fcnn_backward_strided_conv(
            grad, layer.weight.value, 2, 1
        )
        backward_err = float(np.max(np.abs(back_reference - back_conv)))
        rows.append(
            (
                f"{cin}->{cout}@{size}",
                forward_err,
                backward_err,
                zero_fraction((size, size), 4, 2, 1),
            )
        )

    start = time.perf_counter()
    forward_all(layers, inputs_list)
    wall_time_s = time.perf_counter() - start

    lines = format_table(
        ("stage", "fwd_max_err", "bwd_max_err", "zero_frac"), rows
    )
    record("fig7_fcnn", lines)
    documents = record_json(
        "fig7_fcnn",
        _bench_document(
            bench="fig7_fcnn",
            workload="fig7",
            backend="analytic",
            wall_time_s=wall_time_s,
            counters={},
            extra={
                # Zero fractions are closed-form geometry; the float
                # equivalence errors stay out of `metrics` (they sit at
                # machine epsilon, where relative bands are meaningless).
                "metrics": {
                    f"zero_frac_{size}": zero_fraction((size, size), 4, 2, 1)
                    for _, _, size in STAGES
                }
            },
        ),
    )

    # Both identities hold to numerical precision on every stage.
    assert all(row[1] < 1e-9 and row[2] < 1e-9 for row in rows)
    # Stride-2 zero insertion wastes the expected ~70-80% of drive.
    assert all(0.6 < row[3] < 0.9 for row in rows)

    return documents

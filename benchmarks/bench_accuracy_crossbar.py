"""A1 — inference accuracy through the crossbar vs float (fidelity).

The PIM proposal implicitly claims that crossbar arithmetic (quantized
weights, spike-coded activations, bounded ADC) preserves model quality.
This benchmark trains an MNIST-shaped CNN on the synthetic dataset,
then evaluates it through the full simulated datapath across weight
resolutions, recording the accuracy knee.
"""

import time

import numpy as np

from benchmarks._common import format_table, record, record_json
from repro.bench import register
from repro.core import deploy_network
from repro.telemetry import bench_document as _bench_document
from repro.datasets import make_train_test
from repro.nn import Adam, build_mnist_cnn, evaluate_classifier, train_classifier
from repro.xbar import CrossbarEngineConfig, InputEncoding, WeightMapping

WEIGHT_BITS = [16, 8, 6, 4, 3, 2]


def prepare():
    x_train, y_train, x_test, y_test = make_train_test(500, 150, rng=7)
    network = build_mnist_cnn(rng=11)
    train_classifier(
        network,
        Adam(network.parameters(), lr=1e-3),
        x_train,
        y_train,
        epochs=3,
        batch_size=32,
        rng=np.random.default_rng(1),
    )
    return network, x_test, y_test


def evaluate_at(network, x_test, y_test, weight_bits):
    config = CrossbarEngineConfig(
        mapping=WeightMapping(
            weight_bits=weight_bits, cell_bits=min(4, weight_bits - 1)
        ),
        encoding=InputEncoding(bits=8),
    )
    deployment = deploy_network(network, config, rng=3)
    accuracy = evaluate_classifier(network, x_test, y_test)
    deployment.undeploy()
    return accuracy


@register(suite="full")
def bench_accuracy_crossbar():
    start = time.perf_counter()
    network, x_test, y_test = prepare()
    float_accuracy = evaluate_classifier(network, x_test, y_test)

    rows = [("float", float_accuracy)]
    for weight_bits in WEIGHT_BITS:
        rows.append(
            (
                f"{weight_bits}b",
                evaluate_at(network, x_test, y_test, weight_bits),
            )
        )

    wall_time_s = time.perf_counter() - start

    lines = format_table(("weights", "accuracy"), rows)
    record("accuracy_crossbar", lines)
    documents = record_json(
        "accuracy_crossbar",
        _bench_document(
            bench="accuracy_crossbar",
            workload="mnist_cnn",
            backend="sim",
            wall_time_s=wall_time_s,
            counters={},
            extra={
                "metrics": {
                    f"accuracy_{label}": accuracy
                    for label, accuracy in rows
                }
            },
        ),
    )

    accuracies = dict(rows)
    assert accuracies["float"] > 0.9            # the model trained
    assert accuracies["16b"] >= accuracies["float"] - 0.02  # lossless-ish
    assert accuracies["8b"] >= accuracies["float"] - 0.05
    assert accuracies["2b"] <= accuracies["16b"]  # the knee exists

    return documents

"""The Fig. 5 pipeline, executed numerically — and proven harmless.

PipeLayer's speedup rests on one correctness claim (Sec. III-A-2):
"no dependency exists among data inputs inside a batch", so inputs can
flow through the layer pipeline concurrently, with gradients stored and
the weights updated once per batch.  This example *executes* that
schedule on a real CNN — several images genuinely in flight, one
pipeline stage per cycle, per-input intermediate results stashed and
restored (the job of Fig. 6's memory subarrays) — and compares the
resulting weights against conventional batched training.  They agree
to within float rounding (max |Δw| ~6e-16): the pipeline sums the
per-input gradients one at a time, the batched pass inside one matrix
product.

Run:  python examples/pipelined_training_equivalence.py
(exits 1 if any weight differs by more than 1e-12)
"""

import sys

import numpy as np

from repro.core.pipeline import training_cycles_per_batch_pipelined
from repro.core.pipelined_trainer import PipelinedTrainer
from repro.core.trace import occupancy_profile
from repro.datasets import make_train_test
from repro.nn import SGD, SoftmaxCrossEntropy, build_mnist_cnn, evaluate_classifier


#: Largest weight difference still counted as float rounding.
TOLERANCE = 1e-12


def main() -> int:
    x_train, y_train, x_test, y_test = make_train_test(320, 100, rng=7)
    batch = 16

    # Two identical networks: one trained conventionally, one through
    # the executed pipeline.
    reference = build_mnist_cnn(rng=11)
    pipelined = build_mnist_cnn(rng=11)
    loss = SoftmaxCrossEntropy()
    opt_ref = SGD(reference.parameters(), lr=0.05, momentum=0.9)
    trainer = PipelinedTrainer(
        pipelined,
        SGD(pipelined.parameters(), lr=0.05, momentum=0.9),
        SoftmaxCrossEntropy(),
    )

    batches = x_train.shape[0] // batch
    for index in range(batches):
        lo = index * batch
        reference.zero_grad()
        reference.train_step(
            x_train[lo : lo + batch], y_train[lo : lo + batch], loss
        )
        opt_ref.step()

        pipelined.zero_grad()
        trainer.train_batch(
            x_train[lo : lo + batch], y_train[lo : lo + batch]
        )

    worst = max(
        float(np.max(np.abs(ref.value - pipe.value)))
        for ref, pipe in zip(reference.parameters(), pipelined.parameters())
    )
    cycles = training_cycles_per_batch_pipelined(trainer.depth, batch)
    print(f"trained {batches} batches of {batch} "
          f"(pipeline depth L={trainer.depth}, {cycles} cycles/batch)")
    print(f"max |w_batched - w_pipelined| over all parameters: {worst:.3e}")
    print(f"peak inputs in flight: "
          f"{max(occupancy_profile(trainer.schedule))}")
    print(f"test accuracy: batched "
          f"{evaluate_classifier(reference, x_test, y_test):.3f}, "
          f"pipelined {evaluate_classifier(pipelined, x_test, y_test):.3f}")
    sequential_cycles = (2 * trainer.depth + 1) * batch + 1
    print(f"cycle advantage per batch: {sequential_cycles} sequential "
          f"vs {cycles} pipelined "
          f"({sequential_cycles / cycles:.1f}x, same weights within "
          f"{TOLERANCE:g})")
    return 0 if worst <= TOLERANCE else 1


if __name__ == "__main__":
    sys.exit(main())

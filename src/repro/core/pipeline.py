"""Inter-layer pipeline cycle models (Sec. III-A-2, Fig. 5).

Closed-form cycle counts for training an ``L``-layer network on ``N``
inputs with batch size ``B``:

* **Sequential** (no pipeline): each input occupies the machine for its
  full forward (+backward) sweep before the next enters.  The paper:
  "the forward process takes ``L x B`` cycles, the backward computation
  takes ``(L + 1) x B`` cycles, and each weight update needs one
  cycle", i.e. ``(2L + 1)B + 1`` per batch and ``(2L + 1)N + N/B``
  total.
* **Pipelined** (Fig. 5b): a new input enters every cycle within a
  batch; the next batch waits for the weight update.  "The first weight
  update is generated after ``(2L + 1)`` cycles.  Then there will be
  ``(B - 1)`` cycles until the end of batch.  Finally, one cycle is
  needed to update all weights" — ``2L + B + 1`` per batch and
  ``(N/B)(2L + B + 1)`` total.

Inference (testing) pipelines similarly: ``N x L`` sequential,
``L + N - 1`` pipelined.

These formulas are cross-checked against the event-driven simulator in
:mod:`repro.core.schedule` by the test suite and the Fig. 5 benchmark.
"""

from __future__ import annotations

from repro.utils.validation import check_positive


def _check_batching(n_inputs: int, batch: int) -> None:
    check_positive("n_inputs", n_inputs)
    check_positive("batch", batch)
    if n_inputs % batch:
        raise ValueError(
            f"n_inputs ({n_inputs}) must be a multiple of batch ({batch}); "
            "pad the final batch upstream"
        )


def training_cycles_sequential(layers: int, n_inputs: int, batch: int) -> int:
    """Unpipelined training cycles: ``(2L + 1)N + N/B``."""
    check_positive("layers", layers)
    _check_batching(n_inputs, batch)
    return (2 * layers + 1) * n_inputs + n_inputs // batch


def training_cycles_pipelined(layers: int, n_inputs: int, batch: int) -> int:
    """Pipelined training cycles: ``(N/B)(2L + B + 1)``."""
    check_positive("layers", layers)
    _check_batching(n_inputs, batch)
    return (n_inputs // batch) * (2 * layers + batch + 1)


def training_cycles_per_batch_pipelined(layers: int, batch: int) -> int:
    """One batch through the training pipeline: ``2L + B + 1``."""
    check_positive("layers", layers)
    check_positive("batch", batch)
    return 2 * layers + batch + 1


def inference_cycles_sequential(layers: int, n_inputs: int) -> int:
    """Unpipelined testing cycles: each input sweeps all L layers."""
    check_positive("layers", layers)
    check_positive("n_inputs", n_inputs)
    return layers * n_inputs


def inference_cycles_pipelined(layers: int, n_inputs: int) -> int:
    """Pipelined testing cycles: fill latency plus one per input."""
    check_positive("layers", layers)
    check_positive("n_inputs", n_inputs)
    return layers + n_inputs - 1


def training_speedup(layers: int, n_inputs: int, batch: int) -> float:
    """Cycle-count ratio sequential / pipelined for training."""
    return training_cycles_sequential(
        layers, n_inputs, batch
    ) / training_cycles_pipelined(layers, n_inputs, batch)


def asymptotic_training_speedup(layers: int, batch: int) -> float:
    """Large-N limit of :func:`training_speedup`.

    ``((2L + 1)B + 1) / (2L + B + 1)`` — approaches ``2L + 1`` for
    large batches and 1 for ``B = 1`` as the pipeline drains every
    input; this is the crossover structure the Fig. 5 benchmark sweeps.
    """
    check_positive("layers", layers)
    check_positive("batch", batch)
    return ((2 * layers + 1) * batch + 1) / (2 * layers + batch + 1)


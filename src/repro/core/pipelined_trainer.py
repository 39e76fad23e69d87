"""Functional execution of PipeLayer's training pipeline on real data.

:mod:`repro.core.schedule` executes Fig. 5(b) *structurally*; this
module executes it *numerically*: a real :class:`~repro.nn.network.
Sequential` is trained with several inputs genuinely in flight, one
pipeline stage per cycle, exactly as the architecture would run it —

* the network's layers are grouped into ``L`` pipeline stages, one per
  weighted layer (peripheral layers — activation, pooling, flatten —
  ride in the same stage, as PipeLayer folds them into the morphable
  subarray's periphery);
* within a batch, a new input enters every cycle; each input's
  intermediate results are stashed per (input, stage) after its forward
  pass and restored before its backward pass (the role of the memory
  subarrays in Fig. 6);
* weights are *frozen* for the whole batch ("the inputs in the same
  batch are all processed based on the same weights at the start of the
  batch"); per-input gradients accumulate and the update applies in the
  single cycle after the last input drains.

Because no dependency exists among inputs of a batch, this pipelined
execution trains the same weights as conventional batched training —
the correctness property behind the paper's entire speedup, and the
property the test suite asserts.  They agree to within float rounding,
not bit for bit: the pipeline adds the per-input gradients one at a
time, where the batched pass sums them inside one matrix product.

:func:`run_wavefront` is the one executor of a stage program; it books
every op it runs on the lane :mod:`repro.core.schedule` gives it, so a
trainer's ``schedule`` is the structural simulator's event table.
"""

from __future__ import annotations

from typing import Dict, List, Tuple, Union

import numpy as np

from repro.core.schedule import (
    PIPE,
    Program,
    ScheduleEvent,
    ScheduleResult,
    training_program,
    update_event,
)
from repro.nn.layers import Conv2D, Dense, FractionalStridedConv2D
from repro.nn.layers.base import Layer
from repro.nn.losses import Loss
from repro.nn.network import Sequential, backward_params
from repro.nn.optim import Optimizer
from repro.nn.parameter import ParameterSnapshot
from repro.utils.validation import check_positive

#: Layer types that anchor a pipeline stage.
_STAGE_ANCHORS = (Dense, Conv2D, FractionalStridedConv2D)


def group_into_stages(network: Sequential) -> List[List[Layer]]:
    """Partition a network's layers into pipeline stages.

    Each weighted layer starts a new stage; stateless layers attach to
    the stage of the preceding weighted layer (layers before the first
    weighted layer join the first stage).
    """
    stages: List[List[Layer]] = []
    pending: List[Layer] = []
    for layer in network.layers:
        if isinstance(layer, _STAGE_ANCHORS):
            stages.append(pending + [layer])
            pending = []
        elif stages:
            stages[-1].append(layer)
        else:
            pending.append(layer)
    if pending:
        if not stages:
            raise ValueError("network has no weighted layers to pipeline")
        stages[-1].extend(pending)
    return stages


def run_wavefront(
    program: Program,
    stages: Dict[str, List[List[Layer]]],
    inputs: np.ndarray,
    loss: Loss,
    target: Union[np.ndarray, float],
    events: List[ScheduleEvent],
    start: int,
    dataflow: str,
    first: int = 0,
) -> Tuple[List[float], int]:
    """Pipeline a batch through a stage program on real data.

    Sample ``b`` enters at ``start + b`` and advances one op per cycle;
    each op it runs is booked on the op's lane as element ``first + b``
    (exactly the events :func:`repro.core.schedule.run_phase` books).
    ``stages`` maps each network to its layer groups.  A forward op
    stashes its layers' caches per sample and the backward op of the
    same group restores them; a forward op that no backward op
    differentiates runs in inference mode and stashes nothing.  The
    loss op scores sample ``b`` against ``target[b]`` (or the scalar
    label ``target``) and scales its gradient by ``1 / B``, so the
    accumulated gradients equal one batched backward pass.  The
    program's final op, when a backward, forms parameter gradients
    only: the gradient into the program's input is never read.

    Returns the per-sample losses and the first cycle after the drain.
    Raises if a weight moves during the phase (weights stay frozen
    within a batch) or a stashed cache is never consumed.
    """
    batch, length = inputs.shape[0], len(program)
    trained = {
        (op.network, op.group) for op in program if op.kind == "backward"
    }
    frozen = ParameterSnapshot(
        parameter
        for groups in stages.values()
        for group in groups
        for layer in group
        for parameter in layer.parameters()
    )
    caches: Dict[Tuple[int, str, int], List[dict]] = {}
    values = [inputs[sample : sample + 1] for sample in range(batch)]
    losses = [0.0] * batch
    for cycle in range(start, start + batch + length - 1):
        for sample in range(batch):
            position = cycle - start - sample
            if not 0 <= position < length:
                continue
            op = program[position]
            events.append(
                ScheduleEvent(cycle, *op.lane, first + sample, dataflow)
            )
            value = values[sample]
            if op.kind == "loss":
                wanted = (
                    target[sample : sample + 1]
                    if np.ndim(target)
                    else np.full(value.shape, target)
                )
                losses[sample] = loss.forward(value, wanted)
                value = loss.backward() / batch
            else:
                group = stages[op.network][op.group]
                key = (sample, op.network, op.group)
                if op.kind == "forward":
                    training = (op.network, op.group) in trained
                    for layer in group:
                        value = layer.forward(value, training=training)
                    if training:
                        caches[key] = [layer.save_cache() for layer in group]
                else:
                    for layer, cache in zip(group, caches.pop(key)):
                        layer.load_cache(cache)
                    if position == length - 1:
                        backward_params(group, value)
                    else:
                        for layer in reversed(group):
                            value = layer.backward(value)
            values[sample] = value
    if frozen.max_abs_delta() != 0.0:
        raise AssertionError(f"weights changed during {dataflow}")
    if caches:
        raise AssertionError(
            f"{len(caches)} stage caches left in flight after {dataflow}"
        )
    return losses, start + batch + length - 1


class PipelinedTrainer:
    """Executes Fig. 5(b) batch training cycle by cycle.

    Parameters
    ----------
    network, optimizer, loss:
        The model, its optimizer, and the training loss.

    ``schedule`` is the event table of every batch trained so far: the
    table :func:`repro.core.schedule.simulate_training_pipeline` builds
    for the same inputs, given batches of one size.
    """

    def __init__(
        self, network: Sequential, optimizer: Optimizer, loss: Loss
    ) -> None:
        self.network = network
        self.optimizer = optimizer
        self.loss = loss
        self.stages = group_into_stages(network)
        self.program = training_program(self.depth)
        self.schedule = ScheduleResult([], 0, len(self.program))

    @property
    def depth(self) -> int:
        """Pipeline depth L (weighted layers)."""
        return len(self.stages)

    def train_batch(
        self, inputs: np.ndarray, targets: np.ndarray
    ) -> Tuple[float, int]:
        """Train one batch through the pipeline.

        Returns ``(mean loss, cycles)``; cycles always equals the
        paper's ``2L + B + 1``.  Raises if the weights move before the
        update cycle (they must stay frozen within the batch).
        """
        batch = inputs.shape[0]
        check_positive("batch", batch)
        if targets.shape[0] != batch:
            raise ValueError(
                f"targets ({targets.shape[0]}) do not match batch ({batch})"
            )
        schedule = self.schedule
        # The batch starts the cycle after the previous batch's update,
        # the last event booked (scanning for the makespan grows with
        # every batch trained).
        start = schedule.events[-1].cycle + 1 if schedule.events else 0
        self.network.zero_grad()
        losses, end = run_wavefront(
            self.program, {PIPE: self.stages}, inputs, self.loss, targets,
            schedule.events, start, "train", schedule.n_inputs,
        )
        # The single update cycle at the end of the batch.
        self.optimizer.step()
        schedule.events.append(
            update_event(end, "update", schedule.n_inputs // batch)
        )
        schedule.batch = batch
        schedule.n_inputs += batch
        return float(np.mean(losses)), end + 1 - start

    def train(
        self,
        images: np.ndarray,
        labels: np.ndarray,
        batch_size: int,
        epochs: int = 1,
    ) -> List[float]:
        """Train over a dataset; returns per-batch mean losses.

        ``len(images)`` must divide into whole batches (the pipeline
        formula assumes it; pad upstream otherwise).
        """
        check_positive("batch_size", batch_size)
        if images.shape[0] % batch_size:
            raise ValueError(
                f"{images.shape[0]} inputs do not divide into batches of "
                f"{batch_size}"
            )
        losses: List[float] = []
        for _ in range(epochs):
            for start in range(0, images.shape[0], batch_size):
                value, _ = self.train_batch(
                    images[start : start + batch_size],
                    labels[start : start + batch_size],
                )
                self.network.zero_grad()
                losses.append(value)
        return losses

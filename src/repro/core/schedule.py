"""Event-driven pipeline schedule simulator (validates Fig. 5 / Fig. 8).

The closed-form cycle counts in :mod:`repro.core.pipeline` and
:mod:`repro.core.gan_pipeline` are easy to get subtly wrong (fill,
drain, batch barriers, update cycles), so this module *executes* the
schedule: inputs advance through a linear chain of stages one cycle at
a time, a new input may enter every cycle within a batch, the weight
update fires one cycle after the last input drains, and the next batch
waits for it.  The simulator returns the full event table, which tests
check for structural hazards and dependency violations before comparing
its makespan with the formulas.

This is the executable form of Fig. 5: the rectangles (per-layer
compute) are stages, the red dashed lines are our cycle boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.telemetry import NULL_COLLECTOR, TelemetryLike
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class ScheduleEvent:
    """One (cycle, stage, input) occupancy record.

    ``stage`` is 0-based along the pipeline; ``input_id`` is global
    across batches.  Update events use ``stage = -1`` and
    ``input_id = batch index``.
    """

    cycle: int
    stage: int
    input_id: int
    kind: str = "compute"


@dataclass
class ScheduleResult:
    """Full event table plus derived metrics."""

    events: List[ScheduleEvent]
    stages: int
    n_inputs: int
    batch: int
    updates_expected: bool = True

    @property
    def makespan(self) -> int:
        """Total cycles: last event cycle + 1."""
        if not self.events:
            return 0
        return max(event.cycle for event in self.events) + 1

    def occupancy(self) -> float:
        """Mean fraction of stages busy per cycle."""
        if not self.events:
            return 0.0
        compute = [e for e in self.events if e.kind == "compute"]
        return len(compute) / (self.makespan * self.stages)

    # -- validation ------------------------------------------------------------
    def check_structural_hazards(self) -> None:
        """Raise if two inputs ever occupy the same stage in a cycle."""
        seen: Set[Tuple[int, int]] = set()
        for event in self.events:
            if event.kind != "compute":
                continue
            key = (event.cycle, event.stage)
            if key in seen:
                raise AssertionError(
                    f"structural hazard: stage {event.stage} double-booked "
                    f"at cycle {event.cycle}"
                )
            seen.add(key)

    def check_stage_progression(self) -> None:
        """Raise unless each input advances one stage per cycle."""
        per_input: Dict[int, List[ScheduleEvent]] = {}
        for event in self.events:
            if event.kind == "compute":
                per_input.setdefault(event.input_id, []).append(event)
        for input_id, events in per_input.items():
            events.sort(key=lambda e: e.stage)
            if [e.stage for e in events] != list(range(self.stages)):
                raise AssertionError(
                    f"input {input_id} skipped stages: "
                    f"{[e.stage for e in events]}"
                )
            for earlier, later in zip(events, events[1:]):
                if later.cycle != earlier.cycle + 1:
                    raise AssertionError(
                        f"input {input_id} stalled between stages "
                        f"{earlier.stage} and {later.stage}"
                    )

    def check_batch_barrier(self) -> None:
        """Raise unless updates separate batches correctly."""
        if not self.updates_expected:
            return
        updates = sorted(
            (e for e in self.events if e.kind == "update"),
            key=lambda e: e.cycle,
        )
        expected_batches = self.n_inputs // self.batch
        if len(updates) != expected_batches:
            raise AssertionError(
                f"{len(updates)} updates for {expected_batches} batches"
            )
        for batch_index, update in enumerate(updates):
            members = [
                e
                for e in self.events
                if e.kind == "compute"
                and batch_index * self.batch
                <= e.input_id
                < (batch_index + 1) * self.batch
            ]
            last_compute = max(e.cycle for e in members)
            if update.cycle != last_compute + 1:
                raise AssertionError(
                    f"batch {batch_index} update at {update.cycle}, last "
                    f"compute at {last_compute}"
                )
            next_members = [
                e
                for e in self.events
                if e.kind == "compute"
                and e.input_id >= (batch_index + 1) * self.batch
            ]
            if next_members:
                first_next = min(e.cycle for e in next_members)
                if first_next <= update.cycle:
                    raise AssertionError(
                        f"batch {batch_index + 1} started at {first_next} "
                        f"before update at {update.cycle}"
                    )

    def validate(self) -> None:
        """Run all structural checks."""
        self.check_structural_hazards()
        self.check_stage_progression()
        self.check_batch_barrier()


def _record_schedule_telemetry(
    tel: TelemetryLike, result: ScheduleResult
) -> None:
    """Publish one executed schedule's occupancy counters.

    Counter paths follow the component-path convention of
    :mod:`repro.telemetry`: per-stage busy cycles
    (``stage[<s>].busy_cycles``), event/update totals, and the
    makespan gauge.  Everything here is derived from the deterministic
    event table, so the counters inherit the simulator's determinism.
    """
    if not tel:
        return
    busy: Dict[int, int] = {}
    updates = 0
    for event in result.events:
        if event.kind == "compute":
            busy[event.stage] = busy.get(event.stage, 0) + 1
        elif event.kind == "update":
            updates += 1
    for stage in sorted(busy):
        tel.count(f"stage[{stage}].busy_cycles", busy[stage])
    tel.count("events", len(result.events))
    tel.count("updates", updates)
    tel.set("makespan_cycles", result.makespan)


def simulate_training_pipeline(
    layers: int,
    n_inputs: int,
    batch: int,
    collector: Optional[TelemetryLike] = None,
) -> ScheduleResult:
    """Execute the Fig. 5(b) pipelined training schedule.

    The per-input sweep is ``2L + 1`` stages (L forward, one
    loss/error stage, L backward); a new input enters every cycle
    within a batch; the weight update takes the cycle after the last
    input drains; the next batch starts the cycle after the update.
    ``collector`` receives the per-stage occupancy counters and a
    timing span (see :mod:`repro.telemetry`).
    """
    check_positive("layers", layers)
    check_positive("n_inputs", n_inputs)
    check_positive("batch", batch)
    if n_inputs % batch:
        raise ValueError("n_inputs must be a multiple of batch")
    tel = collector if collector is not None else NULL_COLLECTOR
    stages = 2 * layers + 1
    events: List[ScheduleEvent] = []
    with tel.span("simulate_training_pipeline"):
        batch_start = 0
        for batch_index in range(n_inputs // batch):
            last_drain = 0
            for position in range(batch):
                input_id = batch_index * batch + position
                entry = batch_start + position
                for stage in range(stages):
                    events.append(
                        ScheduleEvent(
                            cycle=entry + stage, stage=stage, input_id=input_id
                        )
                    )
                last_drain = entry + stages - 1
            update_cycle = last_drain + 1
            events.append(
                ScheduleEvent(
                    cycle=update_cycle, stage=-1, input_id=batch_index, kind="update"
                )
            )
            batch_start = update_cycle + 1
    result = ScheduleResult(
        events=events, stages=stages, n_inputs=n_inputs, batch=batch
    )
    _record_schedule_telemetry(tel, result)
    return result


def simulate_training_sequential(
    layers: int,
    n_inputs: int,
    batch: int,
    collector: Optional[TelemetryLike] = None,
) -> ScheduleResult:
    """Execute the unpipelined schedule: one input at a time."""
    check_positive("layers", layers)
    check_positive("n_inputs", n_inputs)
    check_positive("batch", batch)
    if n_inputs % batch:
        raise ValueError("n_inputs must be a multiple of batch")
    tel = collector if collector is not None else NULL_COLLECTOR
    stages = 2 * layers + 1
    events: List[ScheduleEvent] = []
    with tel.span("simulate_training_sequential"):
        cycle = 0
        for batch_index in range(n_inputs // batch):
            for position in range(batch):
                input_id = batch_index * batch + position
                for stage in range(stages):
                    events.append(
                        ScheduleEvent(cycle=cycle, stage=stage, input_id=input_id)
                    )
                    cycle += 1
            events.append(
                ScheduleEvent(
                    cycle=cycle, stage=-1, input_id=batch_index, kind="update"
                )
            )
            cycle += 1
    result = ScheduleResult(
        events=events, stages=stages, n_inputs=n_inputs, batch=batch
    )
    _record_schedule_telemetry(tel, result)
    return result


def simulate_inference_pipeline(
    layers: int,
    n_inputs: int,
    collector: Optional[TelemetryLike] = None,
) -> ScheduleResult:
    """Execute the testing pipeline: L stages, no updates."""
    check_positive("layers", layers)
    check_positive("n_inputs", n_inputs)
    tel = collector if collector is not None else NULL_COLLECTOR
    with tel.span("simulate_inference_pipeline"):
        events = [
            ScheduleEvent(cycle=input_id + stage, stage=stage, input_id=input_id)
            for input_id in range(n_inputs)
            for stage in range(layers)
        ]
    result = ScheduleResult(
        events=events,
        stages=layers,
        n_inputs=n_inputs,
        batch=n_inputs,
        updates_expected=False,
    )
    _record_schedule_telemetry(tel, result)
    return result

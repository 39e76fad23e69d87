"""Event-driven schedule simulator (validates Figs. 5, 8 and 9).

The closed-form cycle counts in :mod:`repro.core.pipeline` and
:mod:`repro.core.gan_pipeline` are easy to get subtly wrong (fill,
drain, batch barriers, update cycles), so this module *executes* the
schedules and returns the full event table, which tests check for
structural hazards and dependency violations before comparing its
makespan with the formulas.

Both papers' pipelines are one machine: a batch streams through a
chain of stages on explicit hardware resources, one element entering
per cycle, and a weight update follows the drain.  :func:`run_phase`
is that primitive and every simulator here is a sequence of phases.
Stage ``s`` of a resource holds one element per cycle (the
structural-hazard rule).  A phase runs a dataflow's stage program
(:func:`training_program`, :func:`gan_programs`); the numerical
trainers run the same programs on real data.

* Fig. 5 — :func:`simulate_training_pipeline` streams each batch
  through the ``2L + 1`` stages of one chain (L forward, one
  loss/error stage, L backward); the weight update takes the cycle
  after the last input drains, and the next batch waits for it.  The
  rectangles of Fig. 5 (per-layer compute) are stages, the red dashed
  lines are our cycle boundaries.
* Figs. 8-9 — :func:`simulate_gan_iteration` streams the three GAN
  dataflows over G's stage chain and one or two copies of D's.  The
  schemes differ in how the dataflows share those resources:

  * ``pipelined`` — dataflows run back-to-back on a single D copy.
  * ``sp`` — dataflow (1) uses D copy B while dataflow (2) uses copy
    A, concurrently.
  * ``cs`` — dataflows (2) and (3) merge: one forward pass through
    G+D, then two backward branches; the D branch ends (and D updates)
    while the G branch continues.
  * ``sp_cs`` — both.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.gan_pipeline import SCHEMES, iteration_cycles
from repro.telemetry import NULL_COLLECTOR, Collector
from repro.utils.validation import check_choice, check_positive

#: The one resource a Fig. 5 chain runs on.
PIPE = "pipe"


@dataclass(frozen=True)
class StageOp:
    """One position of a dataflow's stage program.

    ``kind`` is ``"forward"``, ``"loss"`` or ``"backward"``; a forward
    or backward op runs layer group ``group`` of ``network``.  ``lane``
    is the (resource, stage) it occupies, in :func:`run_phase` and in
    the numerical :func:`repro.core.pipelined_trainer.run_wavefront`.
    """

    kind: str
    lane: Tuple[str, int]
    network: str = PIPE
    group: int = -1


#: A dataflow's ops in pipeline order.
Program = List[StageOp]


def training_program(
    layers: int, resource: str = PIPE, network: str = PIPE
) -> Program:
    """The ``2L + 1`` chain: L forward stages, loss, L backward.

    Fig. 5's pipeline, and each GAN dataflow's pass through a copy of D.
    """
    return (
        [StageOp("forward", (resource, g), network, g) for g in range(layers)]
        + [StageOp("loss", (resource, layers))]
        + [
            StageOp("backward", (resource, 2 * layers - g), network, g)
            for g in reversed(range(layers))
        ]
    )


def gan_programs(
    l_d: int, l_g: int, d_real_copy: str = "D0"
) -> Dict[str, Program]:
    """Fig. 8's three dataflows over G's chain and D's copies.

    (1) ``d_real``: a real sample through D (on ``d_real_copy``).
    (2) ``d_fake``: G forward, then D trained; no error enters G.
    (3) ``g_train``: dataflow (2)'s chain, then back through G.
    """
    g_forward = [StageOp("forward", ("G", g), "G", g) for g in range(l_g)]
    g_backward = [
        StageOp("backward", ("G", 2 * l_g - 1 - g), "G", g)
        for g in reversed(range(l_g))
    ]
    d_fake = g_forward + training_program(l_d, "D0", "D")
    return {
        "d_real": training_program(l_d, d_real_copy, "D"),
        "d_fake": d_fake,
        "g_train": d_fake + g_backward,
    }


@dataclass(frozen=True)
class ScheduleEvent:
    """One occupancy record: (cycle, resource, stage, element, dataflow).

    ``resource`` names the hardware chain (:data:`PIPE` for Fig. 5;
    ``"G"``, ``"D0"``, ``"D1"``, ``"Dbwd2"`` for the GAN schemes).
    Weight updates use resource ``"ctrl"`` and stage ``-1``; a Fig. 5
    update's ``element`` is its batch index.
    """

    cycle: int
    resource: str
    stage: int
    element: int
    dataflow: str


@dataclass
class ScheduleResult:
    """Event table of one executed schedule, plus the shape it ran.

    A Fig. 5 chain sets ``stages`` (its depth) and ``n_inputs``
    (``batch`` inputs per update; an inference pipeline expects no
    updates).  A GAN iteration sets ``scheme``.
    """

    events: List[ScheduleEvent]
    batch: int
    stages: int = 0
    n_inputs: int = 0
    updates_expected: bool = True
    scheme: Optional[str] = None

    @property
    def makespan(self) -> int:
        """Total cycles: last event cycle + 1."""
        if not self.events:
            return 0
        return max(event.cycle for event in self.events) + 1

    def compute_events(self) -> List[ScheduleEvent]:
        """The stage-occupancy events (everything but updates)."""
        return [e for e in self.events if e.stage >= 0]

    def updates(self) -> List[ScheduleEvent]:
        """The weight-update events, in cycle order."""
        return sorted(
            (e for e in self.events if e.stage < 0), key=lambda e: e.cycle
        )

    def occupancy(self) -> float:
        """Mean fraction of (resource, stage) lanes busy per cycle."""
        compute = self.compute_events()
        if not compute:
            return 0.0
        lanes = {(e.resource, e.stage) for e in compute}
        return len(compute) / (self.makespan * len(lanes))

    # -- validation -----------------------------------------------------------
    def check_structural_hazards(self) -> None:
        """No (resource, stage) may hold two elements in one cycle."""
        seen = set()
        for event in self.compute_events():
            key = (event.cycle, event.resource, event.stage)
            if key in seen:
                raise AssertionError(
                    f"structural hazard: {event.resource} stage "
                    f"{event.stage} double-booked at cycle {event.cycle}"
                )
            seen.add(key)

    def check_stage_progression(self) -> None:
        """Fig. 5: raise unless each input advances one stage per cycle."""
        per_input: Dict[int, List[ScheduleEvent]] = {}
        for event in self.compute_events():
            per_input.setdefault(event.element, []).append(event)
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
        """Fig. 5: raise unless updates separate batches correctly."""
        if not self.updates_expected:
            return
        updates = self.updates()
        compute = self.compute_events()
        expected_batches = self.n_inputs // self.batch
        if len(updates) != expected_batches:
            raise AssertionError(
                f"{len(updates)} updates for {expected_batches} batches"
            )
        for batch_index, update in enumerate(updates):
            end = (batch_index + 1) * self.batch
            members = [
                e.cycle for e in compute
                if batch_index * self.batch <= e.element < end
            ]
            if not members:
                raise AssertionError(
                    f"batch {batch_index} has no compute events"
                )
            last_compute = max(members)
            if update.cycle != last_compute + 1:
                raise AssertionError(
                    f"batch {batch_index} update at {update.cycle}, last "
                    f"compute at {last_compute}"
                )
            next_members = [e.cycle for e in compute if e.element >= end]
            if next_members and min(next_members) <= update.cycle:
                raise AssertionError(
                    f"batch {batch_index + 1} started at "
                    f"{min(next_members)} before update at {update.cycle}"
                )

    def check_update_ordering(self) -> None:
        """GAN: D updates after dataflows (1)+(2) drain; G after (3).

        In CS schemes the D update (T11) must precede the G update
        (T14), both inside the merged pass.
        """
        updates = {e.dataflow: e.cycle for e in self.updates()}
        if "D update" not in updates or "G update" not in updates:
            raise AssertionError(f"missing updates: {sorted(updates)}")
        d_inputs = [
            e.cycle
            for e in self.compute_events()
            if e.dataflow in ("d_real", "d_fake", "merged_d_branch")
        ]
        if updates["D update"] <= max(d_inputs):
            raise AssertionError("D updated before its derivatives drained")
        g_inputs = [
            e.cycle
            for e in self.compute_events()
            if e.dataflow in ("g_train", "merged_g_branch")
        ]
        if updates["G update"] <= max(g_inputs):
            raise AssertionError("G updated before its derivatives drained")
        if self.scheme in ("cs", "sp_cs"):
            if not updates["D update"] < updates["G update"]:
                raise AssertionError(
                    "computation sharing must update D (T11) before G (T14)"
                )

    def validate(self) -> None:
        """The hazard check plus the schedule's dependency checks."""
        self.check_structural_hazards()
        if self.scheme is None:
            self.check_stage_progression()
            self.check_batch_barrier()
        else:
            self.check_update_ordering()


def run_phase(
    events: List[ScheduleEvent],
    start: int,
    batch: int,
    program: Program,
    dataflow: str,
    first: int = 0,
) -> int:
    """Pipeline a batch through a stage program; returns drain cycle + 1.

    Element ``first + b`` enters at ``start + b`` and advances one op
    per cycle, occupying the op's lane; the return value is the first
    cycle after the last element leaves the last stage.
    """
    for offset in range(batch):
        entry = start + offset
        for position, op in enumerate(program):
            events.append(
                ScheduleEvent(
                    entry + position, *op.lane, first + offset, dataflow
                )
            )
    return start + batch - 1 + len(program)


def update_event(
    cycle: int, dataflow: str, element: int = 0
) -> ScheduleEvent:
    """A weight update: lane ``("ctrl", -1)``."""
    return ScheduleEvent(cycle, "ctrl", -1, element, dataflow)


def _record_occupancy(tel: Collector, result: ScheduleResult) -> None:
    """Publish one executed schedule's occupancy counters.

    Counter paths follow the component-path convention of
    :mod:`repro.telemetry`: busy cycles per stage of a one-chain
    pipeline (``stage[<s>].busy_cycles``) or per resource when several
    chains share the schedule (``resource[<r>].busy_cycles``),
    event/update totals, and the makespan gauge.  Everything here is
    derived from the deterministic event table, so the counters
    inherit the simulator's determinism.
    """
    if not tel:
        return
    compute = result.compute_events()
    one_chain = len({e.resource for e in compute}) == 1
    label = "stage" if one_chain else "resource"
    busy = Counter(e.stage if one_chain else e.resource for e in compute)
    for key in sorted(busy):
        tel.count(f"{label}[{key}].busy_cycles", busy[key])
    tel.count("events", len(result.events))
    tel.count("updates", len(result.updates()))
    tel.set("makespan_cycles", result.makespan)


def _execute(
    span: str,
    collector: Optional[Collector],
    build: Callable[[], ScheduleResult],
) -> ScheduleResult:
    """Run ``build`` inside a timing span and record its occupancy."""
    tel = collector if collector is not None else NULL_COLLECTOR
    with tel.span(span):
        result = build()
    _record_occupancy(tel, result)
    return result


def _training_schedule(
    span: str,
    layers: int,
    n_inputs: int,
    batch: int,
    in_flight: int,
    collector: Optional[Collector],
) -> ScheduleResult:
    """Batches of ``in_flight``-input phases on the ``2L + 1`` chain."""
    check_positive("layers", layers)
    check_positive("n_inputs", n_inputs)
    check_positive("batch", batch)
    if n_inputs % batch:
        raise ValueError("n_inputs must be a multiple of batch")
    program = training_program(layers)

    def build() -> ScheduleResult:
        events: List[ScheduleEvent] = []
        cycle = 0
        for batch_index in range(n_inputs // batch):
            for first in range(
                batch_index * batch, (batch_index + 1) * batch, in_flight
            ):
                cycle = run_phase(
                    events, cycle, in_flight, program, "train", first
                )
            events.append(update_event(cycle, "update", batch_index))
            cycle += 1
        return ScheduleResult(events, batch, len(program), n_inputs)

    return _execute(span, collector, build)


def simulate_training_pipeline(
    layers: int,
    n_inputs: int,
    batch: int,
    collector: Optional[Collector] = None,
) -> ScheduleResult:
    """Execute the Fig. 5(b) pipelined training schedule.

    The per-input sweep is ``2L + 1`` stages (L forward, one
    loss/error stage, L backward); a new input enters every cycle
    within a batch; the weight update takes the cycle after the last
    input drains; the next batch starts the cycle after the update.
    ``collector`` receives the per-stage occupancy counters and a
    timing span (see :mod:`repro.telemetry`).
    """
    return _training_schedule(
        "simulate_training_pipeline", layers, n_inputs, batch, batch,
        collector,
    )


def simulate_training_sequential(
    layers: int,
    n_inputs: int,
    batch: int,
    collector: Optional[Collector] = None,
) -> ScheduleResult:
    """Execute the unpipelined schedule: one input at a time."""
    return _training_schedule(
        "simulate_training_sequential", layers, n_inputs, batch, 1,
        collector,
    )


def simulate_inference_pipeline(
    layers: int,
    n_inputs: int,
    collector: Optional[Collector] = None,
) -> ScheduleResult:
    """Execute the testing pipeline: L stages, no updates."""
    check_positive("layers", layers)
    check_positive("n_inputs", n_inputs)

    def build() -> ScheduleResult:
        events: List[ScheduleEvent] = []
        forward = training_program(layers)[:layers]
        run_phase(events, 0, n_inputs, forward, "infer")
        return ScheduleResult(
            events, n_inputs, layers, n_inputs, updates_expected=False
        )

    return _execute("simulate_inference_pipeline", collector, build)


def simulate_gan_iteration(
    l_d: int,
    l_g: int,
    batch: int,
    scheme: str,
    collector: Optional[Collector] = None,
) -> ScheduleResult:
    """Execute one GAN training iteration under ``scheme``.

    Returns the full event table; ``makespan`` equals
    :func:`repro.core.gan_pipeline.iteration_cycles` for every scheme
    (asserted by the test suite).  ``collector`` receives per-resource
    occupancy counters and a ``simulate[<scheme>]`` timing span.
    """
    check_positive("l_d", l_d)
    check_positive("l_g", l_g)
    check_positive("batch", batch)
    check_choice("scheme", scheme, SCHEMES)
    return _execute(
        f"simulate[{scheme}]",
        collector,
        lambda: _gan_iteration(l_d, l_g, batch, scheme),
    )


def _gan_iteration(
    l_d: int, l_g: int, batch: int, scheme: str
) -> ScheduleResult:
    """The GAN schedule proper (validated args, no telemetry)."""

    # SP runs phase (1) on its own D copy, concurrently with phase (2).
    spatial = scheme in ("sp", "sp_cs")
    programs = gan_programs(l_d, l_g, "D1" if spatial else "D0")
    d_real, d_fake, g_train = (
        programs[name] for name in ("d_real", "d_fake", "g_train")
    )
    # The forward pass CS shares between the D and G branches: G
    # forward, then D forward and its loss stage.
    shared = l_g + l_d + 1
    events: List[ScheduleEvent] = []

    if scheme == "unpipelined":
        cycle = 0
        for element in range(batch):
            cycle = run_phase(events, cycle, 1, d_real, "d_real", element)
            cycle = run_phase(events, cycle, 1, d_fake, "d_fake", element)
        events.append(update_event(cycle, "D update"))
        cycle += 1
        for element in range(batch):
            cycle = run_phase(events, cycle, 1, g_train, "g_train", element)
        events.append(update_event(cycle, "G update"))
        return ScheduleResult(events, batch, scheme=scheme)

    d_real_end = run_phase(events, 0, batch, d_real, "d_real")
    start = 0 if spatial else d_real_end
    if scheme in ("cs", "sp_cs"):
        # Merged pass: one shared forward feeds two backward branches.
        # The D branch drains sweep_d_fake stages after entry, the G
        # branch sweep_g stages.  The branch stages after the shared
        # prefix occupy different hardware (stored derivatives vs G's
        # backward chain), so the G branch emits only its tail and the
        # shared prefix is booked once.
        d_end = run_phase(events, start, batch, d_fake, "merged_d_branch")
        g_tail = [
            StageOp("backward", ("Dbwd2", s), "D", l_d - 1 - s)
            for s in range(l_d)
        ] + g_train[len(d_fake) :]
        g_end = run_phase(
            events, start + shared, batch, g_tail, "merged_g_branch"
        )
        # T11: D updates right after its branch and phase (1); T14: G
        # updates after its branch drains.
        events.append(update_event(max(d_real_end, d_end), "D update"))
    else:
        d_end = run_phase(events, start, batch, d_fake, "d_fake")
        d_update = max(d_real_end, d_end)
        events.append(update_event(d_update, "D update"))
        g_end = run_phase(events, d_update + 1, batch, g_train, "g_train")
    events.append(update_event(g_end, "G update"))
    return ScheduleResult(events, batch, scheme=scheme)


def verify_scheme(
    l_d: int,
    l_g: int,
    batch: int,
    scheme: str,
    collector: Optional[Collector] = None,
) -> Dict:
    """Run one scheme and compare against the closed form.

    Returns a record with both cycle counts; raises on any structural
    violation.  Used by tests and the Fig. 9 benchmark.
    """
    result = simulate_gan_iteration(
        l_d, l_g, batch, scheme, collector=collector
    )
    result.validate()
    formula = iteration_cycles(l_d, l_g, batch, scheme)
    return {
        "scheme": scheme,
        "simulated": result.makespan,
        "formula": formula,
        "match": result.makespan == formula,
    }

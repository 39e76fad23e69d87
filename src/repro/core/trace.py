"""ASCII Gantt rendering of pipeline schedules (Fig. 5 / Fig. 8 visuals).

The paper's pipeline figures are occupancy charts: stages on one axis,
cycles on the other, batch elements filling the diagonal.  This module
renders the executed schedules from :mod:`repro.core.schedule` in the
same visual language, so the examples (and curious users) can *see*
the fill/drain/barrier structure instead of trusting a formula.

Cells show the element id (mod 62, as 0-9a-zA-Z); ``*`` (or ``D`` /
``G`` for a GAN iteration) marks a weight update; ``.`` an idle slot.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.core.schedule import PIPE, ScheduleEvent, ScheduleResult

_SYMBOLS = (
    "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
)

#: A Gantt row: its label and the (resource, stage) lane it shows.
Row = Tuple[str, Tuple[str, int]]

#: The lane every weight update is drawn on.
_UPDATES = ("update", -1)


def _element_symbol(element: int) -> str:
    return _SYMBOLS[element % len(_SYMBOLS)]


def _gantt(
    result: ScheduleResult,
    rows: List[Row],
    width: int,
    max_cycles: int,
    mark: Callable[[ScheduleEvent], str],
) -> str:
    """The cycle header, one line per row, and the ``update`` row.

    Only the first ``max_cycles`` cycles are drawn; ``mark`` gives an
    update event's symbol.  A schedule that expects no updates (an
    inference sweep) draws no ``update`` row.
    """
    cycles = min(result.makespan, max_cycles)
    grid: Dict[Tuple[Tuple[str, int], int], str] = {}
    for event in result.events:
        if event.cycle >= cycles:
            continue
        if event.stage < 0:
            grid[(_UPDATES, event.cycle)] = mark(event)
        else:
            grid[((event.resource, event.stage), event.cycle)] = (
                _element_symbol(event.element)
            )
    lines = [
        " " * width
        + "".join(str(c % 10) for c in range(cycles))
        + ("  (truncated)" if result.makespan > cycles else "")
    ]
    if result.updates_expected:
        rows = rows + [("update", _UPDATES)]
    for label, lane in rows:
        row = "".join(grid.get((lane, cycle), ".") for cycle in range(cycles))
        lines.append(label.ljust(width) + row)
    return "\n".join(lines)


def render_training_schedule(
    result: ScheduleResult, max_cycles: int = 120
) -> str:
    """Gantt chart of a Fig. 5 training or inference schedule.

    One row per pipeline stage (forward stages, the loss stage, then
    backward stages), one column per cycle, plus an ``update`` row.  An
    inference schedule (no updates expected) has forward stages only
    and no ``update`` row.
    """
    layers = (
        (result.stages - 1) // 2 if result.updates_expected else result.stages
    )
    labels: List[str] = []
    for stage in range(result.stages):
        if stage < layers:
            labels.append(f"fwd L{stage + 1}")
        elif stage == layers:
            labels.append("loss")
        else:
            labels.append(f"bwd L{result.stages - stage}")
    width = max(len(label) for label in labels + ["update"]) + 1
    rows = [(label, (PIPE, stage)) for stage, label in enumerate(labels)]
    return _gantt(result, rows, width, max_cycles, lambda event: "*")


def render_gan_schedule(
    result: ScheduleResult, max_cycles: int = 140
) -> str:
    """Gantt chart of a Fig. 8/9 GAN iteration.

    One row per (resource, stage); resources are G's chain, each D
    copy's chain, the CS second backward branch, and the control row
    with the D (``D``) and G (``G``) update marks.
    """
    depth: Dict[str, int] = {}
    for event in result.compute_events():
        depth[event.resource] = max(
            depth.get(event.resource, 0), event.stage + 1
        )
    rows = [
        (f"{resource}[{stage}]", (resource, stage))
        for resource in ("G", "D0", "D1", "Dbwd2")
        if resource in depth
        for stage in range(depth[resource])
    ]
    return _gantt(
        result,
        rows,
        12,
        max_cycles,
        lambda event: "D" if event.dataflow.startswith("D") else "G",
    )


def occupancy_profile(result: ScheduleResult) -> List[int]:
    """Busy-stage count per cycle (the fill/drain envelope)."""
    counts = [0] * result.makespan
    for event in result.compute_events():
        counts[event.cycle] += 1
    return counts

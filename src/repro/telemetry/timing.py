"""The one sanctioned wall-clock read for instrumented subsystems.

``repro check`` rule DET001 bans wall-clock reads outside
``repro/telemetry/`` (and the CLI's timing shims) so simulation
results can never depend on the host clock.  Subsystems that *do*
legitimately measure host latency — the serve stack's queue-wait and
end-to-end histograms — therefore read the clock through this module
instead of importing :mod:`time` themselves: the dependency is
explicit, grep-able, and stays inside the allow-listed package.

Wall-clock values feed *histograms and span wall fields only*
(``wall_start_s`` / ``wall_duration_s`` of the
:class:`~repro.telemetry.trace.TraceSpan`\\ s that
:meth:`repro.telemetry.Collector.span` records); they are excluded
from every determinism contract, and a span's logical ids and ticks
stay its identity.
"""

from __future__ import annotations

import time


def wall_clock() -> float:
    """Monotonic host time in seconds (``time.perf_counter``).

    Only meaningful as a difference between two reads; never persist
    the absolute value into a deterministic document.
    """
    return time.perf_counter()


__all__ = ["wall_clock"]

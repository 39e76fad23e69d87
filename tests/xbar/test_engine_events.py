"""Physical event counters the energy-attribution layer prices.

The engine meters every simulated operation — DAC line fires, ADC
samples, shift-adds, buffer bits, cell writes, static occupancy — and
the contract is threefold: both full-path backends emit bit-identical
event streams, the priced MVM-path energy equals the closed-form
``array_subcycle_energy``, and the fast-ideal shortcut emits no
dynamic read events (only the one-time programming writes).
"""

import pytest

from repro.arch.components import array_subcycle_energy, event_costs
from repro.arch.params import DEFAULT_TECH
from repro.telemetry import Collector, attribute_energy
from repro.xbar.engine import CrossbarEngine, CrossbarEngineConfig


def _run(backend, fast_ideal=False, rows=16, cols=16):
    collector = Collector(record_spans=False)
    engine = CrossbarEngine(
        CrossbarEngineConfig(
            array_rows=rows,
            array_cols=cols,
            backend=backend,
            fast_ideal=fast_ideal,
        ),
        rng=0,
        collector=collector,
    )
    from repro.utils.rng import new_rng

    rng = new_rng(7)
    engine.prepare(rng.normal(size=(40, 24)))
    engine.matmul(rng.normal(size=(5, 40)))
    return collector.counters()


class TestEventCounters:
    def test_backends_emit_identical_events(self):
        assert _run("loop") == _run("vectorized")

    def test_full_path_emits_every_event_kind(self):
        counters = _run("loop")
        for leaf in (
            "array_reads",
            "dac.line_fires",
            "adc.samples",
            "shift_adds",
            "buffer.bits",
            "cell_writes",
            "static.array_subcycles",
            "static.controller_subcycles",
        ):
            assert counters[leaf] > 0, leaf

    def test_line_fires_and_samples_match_geometry(self):
        counters = _run("loop", rows=16, cols=16)
        reads = counters["array_reads"]
        assert counters["dac.line_fires"] == reads * 16
        assert counters["adc.samples"] == reads * 16
        assert counters["shift_adds"] == reads * 16

    def test_mvm_energy_equals_closed_form(self):
        counters = _run("loop", rows=16, cols=16)
        totals = attribute_energy(
            counters, event_costs(DEFAULT_TECH)
        )["totals"]
        mvm = (
            totals["components"]["array"]
            + totals["components"]["adc"]
            + totals["components"]["driver"]
        )
        expected = counters["array_reads"] * array_subcycle_energy(
            DEFAULT_TECH, 16, 16
        )
        assert mvm == pytest.approx(expected, rel=1e-12)

    def test_fast_ideal_emits_only_programming_writes(self):
        counters = _run("vectorized", fast_ideal=True)
        assert counters["fast_ideal_calls"] == 1
        assert counters["cell_writes"] > 0  # one-time programming
        for leaf in (
            "dac.line_fires",
            "adc.samples",
            "shift_adds",
            "buffer.bits",
            "static.controller_subcycles",
        ):
            assert leaf not in counters, leaf

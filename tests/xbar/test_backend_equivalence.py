"""Backend equivalence: vectorized must match the loop oracle bit-for-bit.

The vectorized backend's contract is not "close": under a shared seed
it must reproduce the loop backend's outputs *exactly* (bit-identical
float64) and report identical operation statistics — including the
full hierarchical telemetry counter tree — across every input mode,
mapping scheme, device non-ideality, and ADC configuration.  These
tests pin that contract with parametrized fixed-seed cases and a
hypothesis sweep over random weights, activations, and seeds.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry import Collector
from repro.xbar.device import NOISY_DEVICE, PIPELAYER_DEVICE
from repro.xbar.engine import CrossbarEngine, CrossbarEngineConfig
from repro.xbar.mapping import WeightMapping

STUCK_DEVICE = replace(
    PIPELAYER_DEVICE, stuck_off_rate=0.03, stuck_on_rate=0.02
)
IR_DEVICE = replace(PIPELAYER_DEVICE, wire_resistance=5.0)
UPSET_DEVICE = replace(PIPELAYER_DEVICE, upset_rate=0.05)
DRIFT_DEVICE = replace(PIPELAYER_DEVICE, drift_nu=0.1)
# Everything at once: static faults, both noises, both transients.
SOFT_DEVICE = replace(NOISY_DEVICE, upset_rate=0.02, drift_nu=0.05)

# Rate coding at full 8-bit width costs 255 sub-cycles per sign; a
# narrower encoding keeps the loop oracle fast without losing coverage.
RATE_BITS = 3


def small_config(**overrides):
    defaults = dict(array_rows=16, array_cols=16, fast_ideal=False)
    defaults.update(overrides)
    return CrossbarEngineConfig(**defaults)


def run_both(config_kwargs, weights, activations, seed=11):
    """Evaluate the same MVM on both backends with identical seeds."""
    results = {}
    for backend in ("loop", "vectorized"):
        collector = Collector(record_spans=False)
        engine = CrossbarEngine(
            small_config(backend=backend, **config_kwargs),
            rng=seed,
            collector=collector,
        )
        engine.prepare(weights)
        out = engine.matmul(activations)
        results[backend] = (
            out,
            (
                engine.telemetry.get("subcycles"),
                engine.telemetry.get("array_reads"),
                engine.telemetry.get("adc_conversions"),
                engine.telemetry.get("mvm_calls"),
            ),
            collector.counters(),
        )
    return results


def assert_bit_identical(results):
    loop_out, loop_stats, loop_counters = results["loop"]
    vec_out, vec_stats, vec_counters = results["vectorized"]
    # Bit-for-bit: array_equal, not allclose.
    assert np.array_equal(loop_out, vec_out), (
        f"max abs diff {np.max(np.abs(loop_out - vec_out))}"
    )
    assert loop_stats == vec_stats
    # The telemetry contract extends bit-identity to the full
    # hierarchical counter map, byte-for-byte once serialized.
    assert loop_counters == vec_counters
    assert json.dumps(loop_counters, sort_keys=True) == json.dumps(
        vec_counters, sort_keys=True
    )


CASES = {
    "ideal-spike": dict(),
    "ideal-offset": dict(mapping=WeightMapping(scheme="offset")),
    "ideal-rate": dict(input_mode="rate"),
    "ideal-analog": dict(input_mode="analog"),
    "stuck-spike": dict(device=STUCK_DEVICE),
    "stuck-analog": dict(device=STUCK_DEVICE, input_mode="analog"),
    "noisy-spike": dict(device=NOISY_DEVICE),
    "noisy-offset": dict(
        device=NOISY_DEVICE, mapping=WeightMapping(scheme="offset")
    ),
    "noisy-rate": dict(device=NOISY_DEVICE, input_mode="rate"),
    "noisy-analog": dict(device=NOISY_DEVICE, input_mode="analog"),
    "lossy-adc": dict(adc_bits=3),
    "noisy-lossy-adc": dict(device=NOISY_DEVICE, adc_bits=3),
    "ir-drop": dict(device=IR_DEVICE),
    "upset-spike": dict(device=UPSET_DEVICE),
    "upset-analog": dict(device=UPSET_DEVICE, input_mode="analog"),
    "upset-offset": dict(
        device=UPSET_DEVICE, mapping=WeightMapping(scheme="offset")
    ),
    "drift-spike": dict(device=DRIFT_DEVICE),
    "drift-analog": dict(device=DRIFT_DEVICE, input_mode="analog"),
    "soft-combined": dict(device=SOFT_DEVICE),
    "soft-combined-rate": dict(device=SOFT_DEVICE, input_mode="rate"),
}


class TestBitExactEquivalence:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_case(self, name, rng):
        kwargs = dict(CASES[name])
        if kwargs.get("input_mode") == "rate":
            from repro.xbar.dac import InputEncoding

            kwargs["encoding"] = InputEncoding(bits=RATE_BITS)
        weights = rng.normal(size=(40, 24))
        activations = rng.normal(size=(6, 40))
        assert_bit_identical(run_both(kwargs, weights, activations))

    @pytest.mark.parametrize(
        "device",
        [NOISY_DEVICE, UPSET_DEVICE, DRIFT_DEVICE, SOFT_DEVICE],
        ids=["noisy", "upset", "drift", "soft-combined"],
    )
    def test_multiple_calls_stay_identical(self, device, rng):
        """RNG streams and the drift clock stay in lockstep across
        repeated matmuls — the loop backend advances them one sub-cycle
        at a time, the vectorized backend in stacked chunks."""
        weights = rng.normal(size=(30, 20))
        engines = {}
        for backend in ("loop", "vectorized"):
            engine = CrossbarEngine(
                small_config(backend=backend, device=device), rng=3
            )
            engine.prepare(weights)
            engines[backend] = engine
        for _ in range(3):
            activations = rng.normal(size=(4, 30))
            assert np.array_equal(
                engines["loop"].matmul(activations),
                engines["vectorized"].matmul(activations),
            )

    def test_reprogram_invalidates_cache(self, rng):
        """New weights must flow into the vectorized state."""
        first = rng.normal(size=(20, 12))
        second = rng.normal(size=(20, 12))
        activations = rng.normal(size=(3, 20))
        engine = CrossbarEngine(small_config(backend="vectorized"), rng=5)
        engine.prepare(first)
        out_first = engine.matmul(activations)
        engine.prepare(second)
        out_second = engine.matmul(activations)
        oracle = CrossbarEngine(small_config(backend="loop"), rng=5)
        oracle.prepare(first)
        oracle.matmul(activations)
        oracle.prepare(second)
        assert not np.array_equal(out_first, out_second)
        assert np.array_equal(out_second, oracle.matmul(activations))

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        data_seed=st.integers(min_value=0, max_value=2**31 - 1),
        rows=st.integers(min_value=1, max_value=40),
        cols=st.integers(min_value=1, max_value=24),
        batch=st.integers(min_value=1, max_value=5),
        noisy=st.booleans(),
        offset=st.booleans(),
        transient=st.booleans(),
    )
    def test_property_random_configs(
        self, seed, data_seed, rows, cols, batch, noisy, offset, transient
    ):
        data_rng = np.random.default_rng(data_seed)
        weights = data_rng.normal(size=(rows, cols))
        activations = data_rng.normal(size=(batch, rows))
        kwargs = {}
        if noisy:
            kwargs["device"] = NOISY_DEVICE
        if transient:
            kwargs["device"] = SOFT_DEVICE
        if offset:
            kwargs["mapping"] = WeightMapping(scheme="offset")
        assert_bit_identical(
            run_both(kwargs, weights, activations, seed=seed)
        )


class TestCollapsedFastPath:
    """The transparent-ADC collapse must engage exactly when provable."""

    def test_collapse_engages_for_ideal_device(self, rng):
        engine = CrossbarEngine(small_config(backend="vectorized"), rng=0)
        engine.prepare(rng.normal(size=(20, 12)))
        engine.matmul(rng.normal(size=(2, 20)))
        assert engine._vector is not None
        assert engine._vector.collapsed is not None
        assert engine._vector.gmat is None

    def test_collapse_engages_with_stuck_faults(self, rng):
        engine = CrossbarEngine(
            small_config(backend="vectorized", device=STUCK_DEVICE), rng=0
        )
        engine.prepare(rng.normal(size=(20, 12)))
        engine.matmul(rng.normal(size=(2, 20)))
        assert engine._vector.collapsed is not None

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(device=NOISY_DEVICE),
            dict(device=IR_DEVICE),
            dict(adc_bits=3),
            dict(device=UPSET_DEVICE),
            dict(device=DRIFT_DEVICE),
        ],
        ids=["noisy", "ir-drop", "lossy-adc", "upset", "drift"],
    )
    def test_full_stack_used_when_not_provable(self, kwargs, rng):
        engine = CrossbarEngine(
            small_config(backend="vectorized", **kwargs), rng=0
        )
        engine.prepare(rng.normal(size=(20, 12)))
        engine.matmul(rng.normal(size=(2, 20)))
        assert engine._vector.collapsed is None
        assert engine._vector.gmat is not None


class TestTelemetryThroughEngine:
    """The collector contract at engine granularity."""

    def test_counters_cover_every_tile(self, rng):
        collector = Collector()
        engine = CrossbarEngine(small_config(), rng=0, collector=collector)
        engine.prepare(rng.normal(size=(40, 24)))
        engine.matmul(rng.normal(size=(3, 40)))
        counters = collector.counters()
        tiles = {path for path in counters if path.startswith("tile[")}
        # 16x16 arrays under a 40x24 logical matmul: 3 row slices per
        # differential plane, each with program + read + adc counters.
        assert any(path.endswith("/reads") for path in tiles)
        assert any(path.endswith("/adc.conversions") for path in tiles)
        assert any(path.endswith("/programs") for path in tiles)
        assert counters["mvm_calls"] == 1

    def test_stats_view_matches_collector(self, rng):
        collector = Collector()
        engine = CrossbarEngine(small_config(), rng=0, collector=collector)
        engine.prepare(rng.normal(size=(20, 12)))
        engine.matmul(rng.normal(size=(2, 20)))
        # The attached collector is the engine's only counter store.
        assert engine.telemetry is collector
        assert collector.get("array_reads") > 0
        assert collector.get("adc_conversions") > 0
        assert collector.get("mvm_calls") == 1

    def test_disabled_collector_records_nothing(self, rng):
        disabled = Collector(enabled=False)
        engine = CrossbarEngine(small_config(), rng=0, collector=disabled)
        engine.prepare(rng.normal(size=(20, 12)))
        engine.matmul(rng.normal(size=(2, 20)))
        assert disabled.counters() == {}
        assert disabled.spans() == []

    def test_disabled_collector_outputs_bit_identical(self, rng):
        """Telemetry off must not perturb the simulation in any way."""
        weights = rng.normal(size=(30, 20))
        activations = rng.normal(size=(4, 30))
        outputs = {}
        for name, collector in (
            ("none", None),
            ("disabled", Collector(enabled=False)),
            ("enabled", Collector()),
        ):
            engine = CrossbarEngine(
                small_config(device=NOISY_DEVICE),
                rng=7,
                collector=collector,
            )
            engine.prepare(weights)
            outputs[name] = engine.matmul(activations)
        assert np.array_equal(outputs["none"], outputs["disabled"])
        assert np.array_equal(outputs["none"], outputs["enabled"])

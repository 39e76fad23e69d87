"""Property-based tests (hypothesis) on core invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.gan_pipeline import SCHEMES, iteration_cycles
from repro.core.pipeline import (
    training_cycles_pipelined,
    training_cycles_sequential,
)
from repro.core.schedule import simulate_training_pipeline
from repro.utils.im2col import col2im, im2col
from repro.xbar.dac import InputEncoding, SpikeCoder, quantize_activations
from repro.xbar.mapping import WeightMapping, map_weights


small_floats = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
)


class TestSpikeCoderProperties:
    @given(
        integers=arrays(
            np.int64,
            st.tuples(st.integers(1, 6), st.integers(1, 6)),
            elements=st.integers(0, 255),
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_decompose_accumulate_round_trip(self, integers):
        """Weighted spike coding is a lossless integer codec."""
        coder = SpikeCoder(InputEncoding(bits=8))
        planes = coder.decompose(integers)
        np.testing.assert_array_equal(coder.accumulate(planes), integers)

    @given(
        values=arrays(
            np.float64, st.integers(1, 30), elements=small_floats
        ),
        bits=st.integers(2, 10),
    )
    @settings(max_examples=60, deadline=None)
    def test_activation_quantization_error_bounded(self, values, bits):
        encoding = InputEncoding(bits=bits)
        max_abs = max(float(np.max(np.abs(values))), 1e-6)
        signed, scale = quantize_activations(values, encoding, max_abs)
        assert signed.dtype == np.float64
        np.testing.assert_array_equal(signed, np.rint(signed))
        assert np.all(np.abs(signed) <= encoding.max_int)
        assert np.all(np.abs(signed * scale - values) <= scale / 2 + 1e-9)


class TestWeightMappingProperties:
    @given(
        weights=arrays(
            np.float64,
            st.tuples(st.integers(1, 12), st.integers(1, 12)),
            elements=small_floats,
        ),
        weight_bits=st.integers(4, 16),
        cell_bits=st.integers(1, 6),
        scheme=st.sampled_from(["differential", "offset"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_reconstruction_error_bounded(
        self, weights, weight_bits, cell_bits, scheme
    ):
        """Slicing + sign handling reconstructs within half a quantum."""
        mapping = WeightMapping(
            weight_bits=weight_bits, cell_bits=cell_bits, scheme=scheme
        )
        sliced = map_weights(weights, mapping)
        np.testing.assert_allclose(
            sliced.reconstruct(), weights, atol=sliced.scale / 2 + 1e-9
        )

    @given(
        weights=arrays(
            np.float64,
            st.tuples(st.integers(1, 10), st.integers(1, 10)),
            elements=small_floats,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_all_slices_are_valid_cell_levels(self, weights):
        mapping = WeightMapping(weight_bits=16, cell_bits=4)
        sliced = map_weights(weights, mapping)
        for plane in sliced.pos_slices + sliced.neg_slices:
            assert np.all((plane >= 0) & (plane < 16))


class TestIm2colProperties:
    @given(
        batch=st.integers(1, 3),
        channels=st.integers(1, 3),
        size=st.integers(3, 8),
        kernel=st.integers(1, 3),
        stride=st.integers(1, 2),
        pad=st.integers(0, 2),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=60, deadline=None)
    def test_adjointness(self, batch, channels, size, kernel, stride, pad, seed):
        """<im2col(x), y> == <x, col2im(y)> for every geometry."""
        if size + 2 * pad < kernel:
            return
        rng = np.random.default_rng(seed)
        shape = (batch, channels, size, size)
        images = rng.normal(size=shape)
        cols = im2col(images, kernel, kernel, stride, pad)
        other = rng.normal(size=cols.shape)
        lhs = float(np.sum(cols * other))
        rhs = float(
            np.sum(images * col2im(other, shape, kernel, kernel, stride, pad))
        )
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs))


class TestPipelineProperties:
    @given(
        layers=st.integers(1, 10),
        batches=st.integers(1, 6),
        batch=st.integers(1, 32),
    )
    @settings(max_examples=80, deadline=None)
    def test_pipelined_never_slower_and_sim_agrees(self, layers, batches, batch):
        """For every (L, N, B): formula == simulator, pipeline <= sequential."""
        n_inputs = batches * batch
        pipelined = training_cycles_pipelined(layers, n_inputs, batch)
        sequential = training_cycles_sequential(layers, n_inputs, batch)
        assert pipelined <= sequential
        result = simulate_training_pipeline(layers, n_inputs, batch)
        assert result.makespan == pipelined

    @given(
        l_d=st.integers(1, 8),
        l_g=st.integers(1, 8),
        batch=st.integers(1, 64),
    )
    @settings(max_examples=80, deadline=None)
    def test_gan_scheme_dominance(self, l_d, l_g, batch):
        """Optimization ordering holds for every (L_D, L_G, B)."""
        cycles = {
            scheme: iteration_cycles(l_d, l_g, batch, scheme)
            for scheme in SCHEMES
        }
        assert cycles["pipelined"] <= cycles["unpipelined"]
        assert cycles["sp"] <= cycles["pipelined"]
        assert cycles["cs"] <= cycles["pipelined"]
        assert cycles["sp_cs"] <= cycles["sp"]
        assert cycles["sp_cs"] <= cycles["cs"]
        assert all(count >= 1 for count in cycles.values())


class TestCrossbarProperties:
    @given(
        rows=st.integers(2, 20),
        cols=st.integers(2, 20),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_ideal_engine_linear(self, rows, cols, seed):
        """The ideal crossbar engine is (approximately) linear: the
        output for a+b matches the sum of outputs within quantization
        tolerance when a common activation range is fixed."""
        from repro.xbar.engine import CrossbarEngine, CrossbarEngineConfig

        rng = np.random.default_rng(seed)
        weights = rng.normal(size=(rows, cols))
        config = CrossbarEngineConfig(
            array_rows=16, array_cols=16, activation_range=4.0,
            encoding=InputEncoding(bits=10),
        )
        engine = CrossbarEngine(config, rng=0)
        engine.prepare(weights)
        a = rng.uniform(-1, 1, size=(1, rows))
        b = rng.uniform(-1, 1, size=(1, rows))
        combined = engine.matmul(a + b)
        separate = engine.matmul(a) + engine.matmul(b)
        # Three quantizations, each bounded by scale/2 per input lane.
        scale = 4.0 / (2**10 - 1)
        tolerance = 1.5 * scale * np.sum(np.abs(engine.quantized_weights()),
                                         axis=0).max() + 1e-9
        assert np.max(np.abs(combined - separate)) <= tolerance

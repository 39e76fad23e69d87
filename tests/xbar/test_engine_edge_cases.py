"""Edge-case tests for the crossbar engine."""

import numpy as np
import pytest

from repro.telemetry import Collector
from repro.utils.rng import new_rng
from repro.xbar import (
    CrossbarEngine,
    CrossbarEngineConfig,
    InputEncoding,
    WeightMapping,
)


class TestSmallMatrices:
    def test_matrix_smaller_than_one_array(self, rng):
        weights = rng.normal(size=(3, 2))
        engine = CrossbarEngine(
            CrossbarEngineConfig(array_rows=128, array_cols=128), rng=0
        )
        engine.prepare(weights)
        activations = rng.normal(size=(4, 3))
        out = engine.matmul(activations)
        exact = activations @ weights
        assert np.max(np.abs(out - exact)) / np.max(np.abs(exact)) < 0.01
        # One array per slice plane x 4 slices x 2 signs.
        assert engine.array_count == 8

    def test_single_cell_matrix(self, rng):
        engine = CrossbarEngine(
            CrossbarEngineConfig(array_rows=16, array_cols=16), rng=0
        )
        engine.prepare(np.array([[2.0]]))
        out = engine.matmul(np.array([[3.0]]))
        assert out[0, 0] == pytest.approx(6.0, rel=0.01)

    def test_row_vector_weights(self, rng):
        weights = rng.normal(size=(1, 10))
        engine = CrossbarEngine(
            CrossbarEngineConfig(array_rows=16, array_cols=16), rng=0
        )
        engine.prepare(weights)
        activations = rng.normal(size=(2, 1))
        np.testing.assert_allclose(
            engine.matmul(activations),
            activations @ weights,
            rtol=0.02,
            atol=1e-6,
        )


class TestDegenerateValues:
    def test_all_zero_weights_full_path(self, rng):
        engine = CrossbarEngine(
            CrossbarEngineConfig(
                array_rows=16, array_cols=16, fast_ideal=False
            ),
            rng=0,
        )
        engine.prepare(np.zeros((8, 4)))
        out = engine.matmul(rng.normal(size=(2, 8)))
        np.testing.assert_allclose(out, 0.0, atol=1e-9)

    @pytest.mark.parametrize("backend", ["loop", "vectorized"])
    def test_all_zero_batch_books_the_full_path_tally(self, backend):
        """With or without a fixed range, a zero batch books one tally."""

        def counters(activation_range, fast_ideal=False):
            collector = Collector(record_spans=False)
            engine = CrossbarEngine(
                CrossbarEngineConfig(
                    array_rows=16,
                    array_cols=16,
                    backend=backend,
                    fast_ideal=fast_ideal,
                    activation_range=activation_range,
                ),
                rng=0,
                collector=collector,
            )
            engine.prepare(new_rng(7).normal(size=(40, 24)))
            out = engine.matmul(np.zeros((5, 40)))
            np.testing.assert_array_equal(out, np.zeros((5, 24)))
            return collector.counters()

        auto = counters(None)
        # Drive reads 40 rows x 8 bits, results write 24 x 16 bits.
        assert auto["buffer.bits"] == 5 * (40 * 8 + 24 * 16) == 3520
        assert auto["array_reads"] == auto["subcycles"] == 0
        assert auto == counters(1.0)
        assert "buffer.bits" not in counters(None, fast_ideal=True)

    def test_all_negative_weights(self, rng):
        weights = -np.abs(rng.normal(size=(10, 6))) - 0.1
        engine = CrossbarEngine(
            CrossbarEngineConfig(
                array_rows=16, array_cols=16, fast_ideal=False
            ),
            rng=0,
        )
        engine.prepare(weights)
        activations = np.abs(rng.normal(size=(2, 10)))
        out = engine.matmul(activations)
        assert np.all(out < 0)

    def test_all_negative_activations(self, rng):
        weights = rng.normal(size=(10, 6))
        engine = CrossbarEngine(
            CrossbarEngineConfig(
                array_rows=16, array_cols=16, fast_ideal=False
            ),
            rng=0,
        )
        engine.prepare(weights)
        activations = -np.abs(rng.normal(size=(2, 10)))
        exact = activations @ weights
        rel = np.max(np.abs(engine.matmul(activations) - exact)) / np.max(
            np.abs(exact)
        )
        assert rel < 0.02

    def test_one_bit_everything(self, rng):
        """The most extreme quantization that still functions."""
        config = CrossbarEngineConfig(
            array_rows=16,
            array_cols=16,
            mapping=WeightMapping(weight_bits=2, cell_bits=1),
            encoding=InputEncoding(bits=1),
            fast_ideal=False,
        )
        engine = CrossbarEngine(config, rng=0)
        weights = rng.normal(size=(8, 4))
        engine.prepare(weights)
        out = engine.matmul(rng.normal(size=(2, 8)))
        assert np.all(np.isfinite(out))
        # Ternary approximation: weights within half-scale of zero snap
        # to 0; every retained weight keeps its sign.
        quantized = engine.quantized_weights()
        retained = quantized != 0
        assert retained.any()
        assert np.all(
            np.sign(quantized[retained]) == np.sign(weights[retained])
        )

    def test_clipping_at_fixed_range(self, rng):
        config = CrossbarEngineConfig(
            array_rows=16, array_cols=16, activation_range=0.5
        )
        engine = CrossbarEngine(config, rng=0)
        engine.prepare(np.eye(4))
        out = engine.matmul(np.array([[10.0, -10.0, 0.25, 0.0]]))
        np.testing.assert_allclose(
            out[0], [0.5, -0.5, 0.25, 0.0], atol=0.01
        )

    def test_non_2d_weights_rejected(self, rng):
        engine = CrossbarEngine(
            CrossbarEngineConfig(array_rows=16, array_cols=16), rng=0
        )
        with pytest.raises(ValueError):
            engine.prepare(rng.normal(size=(2, 3, 4)))

    def test_non_2d_activations_rejected(self, rng):
        engine = CrossbarEngine(
            CrossbarEngineConfig(array_rows=16, array_cols=16), rng=0
        )
        engine.prepare(rng.normal(size=(4, 4)))
        with pytest.raises(ValueError):
            engine.matmul(rng.normal(size=(4,)))

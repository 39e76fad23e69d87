"""Additional property-based tests: pipelined equivalence, rate coding,
mapping balance."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.mapping import MappingConfig, balance_duplication
from repro.core.pipelined_trainer import PipelinedTrainer
from repro.nn import SGD, SoftmaxCrossEntropy, build_mlp
from repro.workloads import NetworkSpec, conv, fc
from repro.xbar.dac import InputEncoding, RateCoder, SpikeCoder


class TestPipelinedEquivalenceProperty:
    @given(
        in_features=st.integers(2, 8),
        hidden=st.integers(2, 10),
        classes=st.integers(2, 5),
        batch=st.integers(1, 6),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=25, deadline=None)
    def test_pipeline_equals_batched_for_random_mlps(
        self, in_features, hidden, classes, batch, seed
    ):
        """For every MLP shape and batch size: identical final weights."""
        rng = np.random.default_rng(seed)
        inputs = rng.normal(size=(batch, in_features))
        labels = rng.integers(0, classes, size=batch)

        reference = build_mlp(in_features, (hidden,), classes, rng=seed)
        pipelined = build_mlp(in_features, (hidden,), classes, rng=seed)

        loss = SoftmaxCrossEntropy()
        opt = SGD(reference.parameters(), lr=0.1)
        reference.zero_grad()
        reference.train_step(inputs, labels, loss)
        opt.step()

        trainer = PipelinedTrainer(
            pipelined, SGD(pipelined.parameters(), lr=0.1),
            SoftmaxCrossEntropy(),
        )
        pipelined.zero_grad()
        trainer.train_batch(inputs, labels)

        for ref, pipe in zip(
            reference.parameters(), pipelined.parameters()
        ):
            np.testing.assert_allclose(ref.value, pipe.value, atol=1e-10)


class TestRateCodingProperty:
    @given(
        integers=arrays(
            np.int64,
            st.tuples(st.integers(1, 5), st.integers(1, 5)),
            elements=st.integers(0, 15),
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_rate_and_weighted_agree(self, integers):
        """Both codecs reconstruct the same integers."""
        encoding = InputEncoding(bits=4)
        weighted = SpikeCoder(encoding)
        rate = RateCoder(encoding)
        np.testing.assert_array_equal(
            weighted.accumulate(weighted.decompose(integers)),
            rate.accumulate(rate.decompose(integers)),
        )

    @given(bits=st.integers(1, 10))
    @settings(max_examples=10, deadline=None)
    def test_subcycle_gap(self, bits):
        encoding = InputEncoding(bits=bits)
        assert RateCoder(encoding).subcycles == 2**bits - 1
        assert SpikeCoder(encoding).subcycles == bits


class TestBalanceDuplicationProperty:
    @given(
        channels=st.integers(1, 32),
        size=st.integers(4, 20),
        out_channels=st.integers(1, 64),
        features=st.integers(8, 512),
        budget_factor=st.integers(1, 50),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_budget_respected_and_all_layers_mapped(
        self, channels, size, out_channels, features, budget_factor, seed
    ):
        """For random two-layer networks and budgets: the balanced
        mapping never exceeds the budget and covers every layer."""
        network = NetworkSpec(
            name="random",
            input_shape=(channels, size, size),
            layers=(
                conv(channels, size, out_channels, 3, pad=1, name="c"),
                fc(features, 10, name="f"),
            ),
        )
        config = MappingConfig(array_rows=32, array_cols=32)
        single = sum(
            m.total_arrays
            for m in balance_duplication(
                network, 10**9, config
            ).values()
        )
        # Any budget at least one max-duplication deployment works; use
        # a budget between the single-copy need and the all-out need.
        minimal = sum(
            balance_duplication(network, 10**9, config)[name].arrays_per_copy
            for name in ("c", "f")
        )
        budget = minimal * budget_factor
        try:
            mappings = balance_duplication(network, budget, config)
        except ValueError:
            # Budget below a single copy: legitimate rejection.
            assert budget < minimal * 2
            return
        assert set(mappings) == {"c", "f"}
        assert sum(m.total_arrays for m in mappings.values()) <= budget
        del single

"""Property tests: memory round trips and pipelined-trainer schedules."""

from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pipelined_gan import PipelinedGANTrainer
from repro.core.pipelined_trainer import PipelinedTrainer
from repro.core.schedule import (
    simulate_gan_iteration,
    simulate_training_pipeline,
)
from repro.nn import SGD, Dense, Sequential, SoftmaxCrossEntropy
from repro.xbar.memory import ReRAMMemory


class TestMemoryRoundTrip:
    @given(
        width=st.sampled_from([4, 8, 12, 16]),
        count=st.integers(1, 32),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_ideal_round_trip_any_width(self, width, count, seed):
        """Every word width and payload survives an ideal store/load."""
        memory = ReRAMMemory.create(rows=16, cols=16, rng=0)
        if count > memory.capacity_words(width):
            return
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 2**width, size=count)
        memory.store(values, width=width)
        np.testing.assert_array_equal(memory.load(), values)
        assert memory.bit_error_rate(values) == 0.0

    @given(
        width=st.sampled_from([8, 16]),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=20, deadline=None)
    def test_extreme_values_round_trip(self, width, seed):
        memory = ReRAMMemory.create(rows=16, cols=16, rng=0)
        values = np.array([0, 2**width - 1, 1, 2 ** (width - 1)])
        memory.store(values, width=width)
        np.testing.assert_array_equal(memory.load(), values)


def _dense_stack(depth, width, outputs, seed):
    """``depth`` Dense layers: one pipeline stage each."""
    sizes = [width] * depth + [outputs]
    return Sequential(
        [
            Dense(sizes[i], sizes[i + 1], rng=seed + i)
            for i in range(depth)
        ]
    )


class TestPipelinedSchedules:
    @given(
        depth=st.integers(1, 4),
        l_d=st.integers(1, 4),
        l_g=st.integers(1, 4),
        batch=st.integers(1, 6),
        batches=st.integers(1, 3),
    )
    @settings(max_examples=30, deadline=None)
    def test_trainers_book_simulator_events(
        self, depth, l_d, l_g, batch, batches
    ):
        """Both numerical trainers book exactly the structural
        simulator's event table (as a multiset) and it validates."""
        rng = np.random.default_rng(depth * 100 + batch)
        network = _dense_stack(depth, 3, 2, seed=1)
        trainer = PipelinedTrainer(
            network, SGD(network.parameters(), lr=0.1),
            SoftmaxCrossEntropy(),
        )
        count = batch * batches
        trainer.train(
            rng.normal(size=(count, 3)), rng.integers(0, 2, size=count),
            batch_size=batch,
        )
        expected = simulate_training_pipeline(depth, count, batch)
        assert Counter(trainer.schedule.events) == Counter(expected.events)
        trainer.schedule.validate()

        generator = _dense_stack(l_g, 3, 3, seed=10)
        discriminator = _dense_stack(l_d, 3, 1, seed=20)
        gan = PipelinedGANTrainer(
            generator, discriminator,
            SGD(generator.parameters(), lr=0.1),
            SGD(discriminator.parameters(), lr=0.1),
        )
        real, fake_noise, g_noise = rng.normal(size=(3, batch, 3))
        gan.train_iteration(real, fake_noise, g_noise)
        expected = simulate_gan_iteration(l_d, l_g, batch, "pipelined")
        assert Counter(gan.schedule.events) == Counter(expected.events)
        gan.schedule.validate()

"""Integration tests for crossbar-in-the-loop (noise-aware) training."""

import numpy as np
import pytest

from repro.arch import lifetime_for, training_lifetime
from repro.core import PipeLayerModel
from repro.core.training_sim import compare_noise_aware, train_on_crossbar
from repro.datasets import make_train_test
from repro.nn import SGD, build_mlp
from repro.workloads import mnist_cnn_spec
from repro.xbar import CrossbarEngineConfig, DeviceConfig


@pytest.fixture(scope="module")
def small_data():
    """Flattened low-res data for a quick MLP training run."""
    x_train, y_train, x_test, y_test = make_train_test(
        300, 100, noise=0.1, rng=7
    )
    # Downsample 28x28 -> 14x14 and flatten: fast to train, fast to
    # push through the crossbars.
    def shrink(images):
        small = images[:, :, ::2, ::2]
        return small.reshape(len(small), -1)

    return shrink(x_train), y_train, shrink(x_test), y_test


def build_net():
    return build_mlp(196, (32,), 10, rng=5)


def build_opt(network):
    return SGD(network.parameters(), lr=0.05, momentum=0.9)


class TestTrainOnCrossbar:
    def test_training_through_ideal_crossbars_learns(self, small_data):
        x_train, y_train, x_test, y_test = small_data
        network = build_net()
        result = train_on_crossbar(
            network,
            build_opt(network),
            x_train,
            y_train,
            CrossbarEngineConfig(array_rows=64, array_cols=64),
            (x_test, y_test),
            epochs=3,
            batch_size=32,
            rng=np.random.default_rng(1),
        )
        assert result.final_accuracy > 0.8
        result.deployment.undeploy()

    def test_weight_updates_trigger_reprogramming(self, small_data):
        """Each batch update must rewrite the arrays — that is the
        whole endurance story of on-accelerator training."""
        x_train, y_train, x_test, y_test = small_data
        network = build_net()
        result = train_on_crossbar(
            network,
            build_opt(network),
            x_train[:64],
            y_train[:64],
            CrossbarEngineConfig(array_rows=64, array_cols=64),
            (x_test[:20], y_test[:20]),
            epochs=1,
            batch_size=32,
        )
        engines = list(result.deployment.engines.values())
        result.deployment.undeploy()
        # 2 batches + final eval: at least 3 programming rounds/layer.
        for engine in engines:
            assert engine.telemetry.get("array_programs") >= 3 * (
                engine.array_count // max(engine.array_count, 1)
            )
        assert result.array_programs > 0


class TestNoiseAwareTraining:
    def test_in_loop_training_recovers_accuracy(self, small_data):
        """The headline property: training on the noisy hardware beats
        training clean and deploying."""
        x_train, y_train, x_test, y_test = small_data
        # Fixed non-idealities dominate: stuck cells persist across the
        # per-batch reprogramming, so the surviving weights can learn
        # around them.  (Per-write redrawn noise, by contrast, corrupts
        # the training gradients themselves and is NOT recoverable this
        # way — tested separately below.)
        device = DeviceConfig(
            stuck_on_rate=0.03, stuck_off_rate=0.03, program_noise=0.02
        )
        config = CrossbarEngineConfig(
            array_rows=64, array_cols=64, device=device, fast_linear=True
        )
        comparison = compare_noise_aware(
            build_net,
            build_opt,
            (x_train, y_train),
            (x_test, y_test),
            config,
            epochs=4,
            batch_size=32,
        )
        assert comparison.float_accuracy > 0.8
        # The faulty device visibly hurts the clean-trained network...
        assert (
            comparison.clean_then_deploy_accuracy
            < comparison.float_accuracy - 0.05
        )
        # ...and in-loop training claws a solid margin back.
        assert comparison.recovery > 0.1

    def test_fault_masks_persist_across_reprogramming(self, small_data):
        """The physical premise of the recovery: the same cells stay
        stuck when the arrays are rewritten."""
        from repro.xbar import CrossbarEngine

        device = DeviceConfig(stuck_on_rate=0.05)
        engine = CrossbarEngine(
            CrossbarEngineConfig(
                array_rows=32, array_cols=32, device=device
            ),
            rng=5,
        )
        # Two deployments that differ only in the sign of one weight:
        # apart from that entry, every non-zero effective weight comes
        # from a stuck-ON cell, so the non-zero pattern locates the
        # fault mask.
        weights = np.zeros((32, 16))
        weights[0, 0] = 1.0
        engine.prepare(weights)
        first = engine.effective_weights().copy()
        engine.prepare(-weights)
        second = engine.effective_weights()
        stuck_first = np.abs(first) > 1e-9
        stuck_second = np.abs(second) > 1e-9
        stuck_first[0, 0] = stuck_second[0, 0] = False
        assert np.array_equal(stuck_first, stuck_second)
        assert stuck_first.any()

    def test_summary_renders(self, small_data):
        x_train, y_train, x_test, y_test = small_data
        config = CrossbarEngineConfig(array_rows=64, array_cols=64)
        comparison = compare_noise_aware(
            build_net,
            build_opt,
            (x_train[:64], y_train[:64]),
            (x_test[:20], y_test[:20]),
            config,
            epochs=1,
        )
        assert "in-loop" in comparison.summary()


class TestEnduranceAnalysis:
    def test_lifetime_from_pipelayer_model(self):
        model = PipeLayerModel(mnist_cnn_spec(), array_budget=65536)
        report = training_lifetime(model, batch=32, endurance=1e9)
        assert report.lifetime_batches == pytest.approx(1e9)
        assert report.lifetime_seconds > 0
        assert report.lifetime_examples == pytest.approx(32e9)

    def test_low_endurance_short_lifetime(self):
        fragile = lifetime_for("net", endurance=1e6,
                               seconds_per_batch=1e-4)
        robust = lifetime_for("net", endurance=1e12,
                              seconds_per_batch=1e-4)
        assert fragile.lifetime_seconds < robust.lifetime_seconds
        assert fragile.lifetime_days == pytest.approx(
            1e6 * 1e-4 / 86400.0
        )

    def test_faster_training_wears_out_sooner_in_wall_clock(self):
        slow = lifetime_for("net", endurance=1e9, seconds_per_batch=1e-2)
        fast = lifetime_for("net", endurance=1e9, seconds_per_batch=1e-5)
        assert fast.lifetime_seconds < slow.lifetime_seconds
        # Same number of batches either way: the budget is writes.
        assert fast.lifetime_batches == slow.lifetime_batches

    def test_summary_renders(self):
        report = lifetime_for("mnist", 1e9, 1e-4)
        assert "endurance" in report.summary()

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            lifetime_for("net", endurance=0, seconds_per_batch=1e-4)

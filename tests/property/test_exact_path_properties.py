"""Property tests: the one-product exact paths equal the bit-serial oracle.

With integer levels and a lossless ADC the vectorized backend collapses
every sub-cycle and both input signs into one product of the signed
activation matrix with the signed level sum.  That product must give
the loop backend's output bytes, including the sign of every zero, and
book the same counters.  Stuck cells keep integer levels, so a stuck
device collapses too.  The batches mix zero rows, all-positive rows and
tiny negatives that quantize to ``-0.0``.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry import Collector
from repro.xbar.dac import InputEncoding
from repro.xbar.device import PIPELAYER_DEVICE
from repro.xbar.engine import CrossbarEngine, CrossbarEngineConfig
from repro.xbar.mapping import WeightMapping

ROW_KINDS = ("mixed", "zeros", "positive", "tiny_negative")


def _activations(data, kinds, rows):
    batch = data.normal(size=(len(kinds), rows))
    for index, kind in enumerate(kinds):
        if kind == "zeros":
            batch[index] = 0.0
        elif kind == "positive":
            batch[index] = np.abs(batch[index])
        elif kind == "tiny_negative":
            batch[index] = -1e-9 * np.abs(batch[index])
    return batch


def _run(config, weights, activations):
    collector = Collector(record_spans=False)
    engine = CrossbarEngine(config, rng=5, collector=collector)
    engine.prepare(weights)
    return engine.matmul(activations), collector.counters()


@given(
    seed=st.integers(0, 2**31 - 1),
    rows=st.integers(1, 40),
    cols=st.integers(1, 24),
    kinds=st.lists(st.sampled_from(ROW_KINDS), min_size=1, max_size=4),
    input_mode=st.sampled_from(["spike", "rate", "analog"]),
    scheme=st.sampled_from(["differential", "offset"]),
    stuck_rate=st.sampled_from([0.0, 0.04]),
)
@settings(max_examples=60, deadline=None)
def test_collapsed_path_equals_loop_backend(
    seed, rows, cols, kinds, input_mode, scheme, stuck_rate
):
    data = np.random.default_rng(seed)
    weights = data.normal(size=(rows, cols))
    activations = _activations(data, kinds, rows)
    device = replace(
        PIPELAYER_DEVICE,
        stuck_off_rate=stuck_rate / 2,
        stuck_on_rate=stuck_rate / 2,
    )
    config = CrossbarEngineConfig(
        device=device,
        mapping=WeightMapping(scheme=scheme),
        # Rate coding drives 2**bits - 1 sub-cycles per sign.
        encoding=InputEncoding(bits=3 if input_mode == "rate" else 8),
        array_rows=16,
        array_cols=16,
        input_mode=input_mode,
        fast_ideal=False,
    )
    assert config.is_collapsible
    loop_out, loop_counters = _run(
        replace(config, backend="loop"), weights, activations
    )
    vec_out, vec_counters = _run(config, weights, activations)
    assert vec_out.tobytes() == loop_out.tobytes()
    assert vec_counters == loop_counters
    if stuck_rate == 0.0:
        # An ideal device: the fast path's single product is the same
        # exact integer matmul.
        fast_out, _ = _run(
            replace(config, fast_ideal=True), weights, activations
        )
        assert fast_out.tobytes() == loop_out.tobytes()

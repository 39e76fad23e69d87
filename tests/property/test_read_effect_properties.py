"""Property tests: the vectorized read-effect stage equals the loop oracle.

The vectorized backend applies each read-path effect once per chunk:
every array fills its block of one array-major read-noise buffer, one
scale and one add follow, and every array's upsets land through one
flat scatter-add into the partial-sum tensor.  Both index maps must put
each draw on the element the loop backend's per-array ``mvm`` puts it
on.  These properties drive them where they are easiest to get wrong:
tiles several arrays tall and wide (so an array's block is not
contiguous), sub-cycle chunks down to one sub-cycle, and both the exact
(unit-count) and the fractional ADC accumulate.  Outputs must match
byte for byte and every counter must match, over several calls, with
read noise, drift and upsets all on.
"""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.xbar.engine as engine_module
from repro.telemetry import Collector
from repro.xbar.device import NOISY_DEVICE
from repro.xbar.engine import CrossbarEngine, CrossbarEngineConfig

#: Every read-path effect on, with upsets frequent enough to fire in
#: small arrays, over programming noise and stuck cells.
EFFECTS_DEVICE = replace(NOISY_DEVICE, upset_rate=0.05, drift_nu=0.05)

#: 8x8 arrays: a 9..30-row, 9..20-column layer spans 2-4 block rows
#: and 2-3 block columns per tile.
ARRAY = 8


def _engine(backend, seed, adc_bits, input_mode):
    collector = Collector(record_spans=False)
    config = CrossbarEngineConfig(
        device=EFFECTS_DEVICE,
        array_rows=ARRAY,
        array_cols=ARRAY,
        adc_bits=adc_bits,
        input_mode=input_mode,
        fast_ideal=False,
        backend=backend,
    )
    return CrossbarEngine(config, rng=seed, collector=collector), collector


@given(
    seed=st.integers(0, 2**31 - 1),
    rows=st.integers(1, 30),
    cols=st.integers(1, 20),
    batch=st.integers(1, 3),
    adc_bits=st.sampled_from([None, 3]),
    input_mode=st.sampled_from(["spike", "analog"]),
    chunk_elements=st.sampled_from([1, 300, None]),
)
@settings(max_examples=30, deadline=None)
def test_vectorized_effects_equal_loop(
    seed, rows, cols, batch, adc_bits, input_mode, chunk_elements
):
    data = np.random.default_rng(seed)
    weights = data.normal(size=(rows, cols))
    calls = [data.normal(size=(batch, rows)) for _ in range(3)]
    runs = {}
    for backend in ("loop", "vectorized"):
        engine, collector = _engine(backend, seed, adc_bits, input_mode)
        engine.prepare(weights)
        with pytest.MonkeyPatch.context() as patch:
            if chunk_elements is not None:
                patch.setattr(
                    engine_module, "_VECTOR_CHUNK_ELEMENTS", chunk_elements
                )
            outputs = [engine.matmul(call).tobytes() for call in calls]
        runs[backend] = (outputs, collector.counters())
    loop_outputs, loop_counters = runs["loop"]
    vector_outputs, vector_counters = runs["vectorized"]
    assert vector_outputs == loop_outputs
    assert json.dumps(vector_counters, sort_keys=True) == json.dumps(
        loop_counters, sort_keys=True
    )


def test_examples_cover_multi_array_tiles():
    """The strategy's corners reach what the properties are about: a
    tile several arrays tall and wide, and a one-sub-cycle chunk."""
    engine, _ = _engine("vectorized", 0, 3, "spike")
    engine.prepare(np.ones((30, 20)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine_module, "_VECTOR_CHUNK_ELEMENTS", 1)
        engine.matmul(np.ones((1, 30)))
    state = engine._vector
    assert (state.grid_rows, state.grid_cols) == (4, 3)
    # Block columns 0 and 1 of a 20-column plane are 8 of its columns.
    assert {tuple(row[2:]) for row in state.geometry} == {
        (0, 8), (8, 8), (16, 4)
    }

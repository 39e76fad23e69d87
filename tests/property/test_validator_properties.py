"""Every document validator accepts its input or raises ``ValueError``.

Each ``validate_*`` is fed arbitrary JSON values and single-point
mutations of one real document it accepts: a deleted key, or a nested
value replaced by an arbitrary JSON value.  Whatever the input, the
validator either returns or raises ``ValueError`` — never
``TypeError``, ``AttributeError`` or ``KeyError``, which callers such
as the sweep cache do not catch.
"""

from __future__ import annotations

import copy
import functools
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    SCHEMA_VERSION,
    gan_scheme_report,
    reliability_report,
    validate_gan_scheme_report,
    validate_reliability_report,
    validate_table1_report,
)
from repro.arch.components import event_costs
from repro.arch.params import DEFAULT_TECH
from repro.bench.baseline import validate_baseline, write_baseline
from repro.checks import (
    Finding,
    check_report,
    sarif_document,
    validate_check_report,
    validate_sarif_document,
)
from repro.core.schedule import (
    simulate_gan_iteration,
    simulate_training_pipeline,
)
from repro.serve import InferenceJob
from repro.serve.server import (
    JobServer,
    job_report,
    validate_job_report,
    validate_stats_report,
)
from repro.sweep import SweepCell, SweepRun, register_cell_kind, run_cell
from repro.sweep.cells import validate_cell_payload
from repro.sweep.report import sweep_report, validate_sweep_report
from repro.telemetry import (
    Collector,
    analyze_counters,
    attribute_energy,
    bench_document,
    event_record,
    profile_report,
    trace_chrome_document,
    trace_document,
    trace_id_for,
    validate_analysis_report,
    validate_bench_document,
    validate_cost_table,
    validate_energy_report,
    validate_event_record,
    validate_profile_report,
    validate_trace_chrome_document,
    validate_trace_document,
)
from repro.xbar.engine import (
    CrossbarEngine,
    CrossbarEngineConfig,
    validate_fault_report,
)
from tests.serve.test_wire_properties import JSON_VALUES


def toy_cell(spec, collector):
    collector.count("work", spec["x"])
    return {"value": spec["x"]}


register_cell_kind("toy_validators", toy_cell)
CELL = SweepCell("toy_validators", {"x": 3, "seed": 1})

FINDINGS = [
    Finding("RNG001", "repro/a.py", 3, 1, "unseeded generator"),
    Finding("DET001", "repro/b.py", 7, 5, "set iteration"),
]


def _collector():
    collector = Collector()
    with collector.span("work"):
        collector.count("engine/fc1/array_reads", 4)
        collector.count("engine/fc1/adc.samples", 4)
        collector.observe("serve/latency", 0.25, bounds=[0.1, 1.0])
    simulate_training_pipeline(
        3, 8, 4, collector=collector.scope("pipeline")
    )
    simulate_gan_iteration(
        3, 3, 4, "sp_cs", collector=collector.scope("gan")
    )
    engine = CrossbarEngine(
        CrossbarEngineConfig(
            array_rows=16, array_cols=16, fast_ideal=False
        ),
        rng=1,
        collector=collector.scope("engine/dense"),
    )
    engine.prepare(np.random.default_rng(0).normal(size=(24, 20)))
    engine.matmul(np.random.default_rng(1).normal(size=(2, 24)))
    return collector, engine


def _spans():
    trace_id = trace_id_for("job-00001")
    return [
        {"trace_id": trace_id, "span_id": "0", "parent_id": None,
         "name": "job", "proc": "server", "start": 0, "end": 10,
         "attrs": {}},
        {"trace_id": trace_id, "span_id": "0.0", "parent_id": "0",
         "name": "unit", "proc": "unit-a", "start": 2, "end": 7,
         "attrs": {}},
    ]


def _table1():
    row = {
        "speedup": 42.0, "energy_saving": 7.0,
        "paper_speedup": 42.1, "paper_energy_saving": 7.1,
        "per_workload": [{"network": "mlp", "speedup": 40.0}],
    }
    return {"schema_version": SCHEMA_VERSION, "pipelayer": row}


def _stats():
    server = JobServer()
    server.collector.count("serve/jobs.done", 1)
    server.collector.observe("serve/latency", 0.25, bounds=[0.1, 1.0])
    return server.stats_report()


def _baseline(tmp_dir):
    path = write_baseline(tmp_dir, "demo", {"m": 3.5, "n": 1.0})
    return json.loads(path.read_text())


def _cell_payload_both(document):
    validate_cell_payload(document)
    validate_cell_payload(document, CELL)


@functools.lru_cache(maxsize=None)
def valid_documents():
    """``name -> (validator, one real document it accepts)``."""
    collector, engine = _collector()
    counters = collector.counters()
    payload = run_cell(CELL)
    with tempfile.TemporaryDirectory() as tmp:
        baseline = _baseline(Path(tmp))
    trace_id = trace_id_for("job-00001")
    return {
        "analysis_report": (
            validate_analysis_report, analyze_counters(collector)
        ),
        "baseline": (validate_baseline, baseline),
        "bench_document": (
            validate_bench_document,
            bench_document("b", "w", "vectorized", 1.5, {"calls": 2},
                           extra={"metrics": {"w/b/m": 1.0}}),
        ),
        "cell_payload": (_cell_payload_both, payload),
        "check_report": (
            validate_check_report, check_report(FINDINGS, ["src"])
        ),
        "cost_table": (validate_cost_table, event_costs(DEFAULT_TECH)),
        "energy_report": (
            validate_energy_report,
            attribute_energy(counters, event_costs(DEFAULT_TECH)),
        ),
        "event_record": (
            validate_event_record,
            event_record(3, "done", "job-00001", "alice", "inference",
                         trace_id, span_id="0", attrs={"unit": 1}),
        ),
        "fault_report": (validate_fault_report, engine.fault_report()),
        "gan_scheme_report": (
            validate_gan_scheme_report, gan_scheme_report(batch=8)
        ),
        "job_report": (
            validate_job_report,
            job_report(
                InferenceJob(workload="mlp", seed=1), "job-00001", "done",
                result={"accuracy": 0.5, "count": 64,
                        "outputs_sha256": "ab" * 32},
            ),
        ),
        "profile_report": (
            validate_profile_report,
            profile_report(collector, ["infer"], 0, 0.5),
        ),
        "reliability_report": (
            validate_reliability_report,
            reliability_report(
                workload="mlp", rates=(0.0,), seed=0, count=8, batch=8,
                train_epochs=1, train_count=32, include_tiles=False,
            ),
        ),
        "sarif_document": (
            validate_sarif_document, sarif_document(FINDINGS)
        ),
        "stats_report": (validate_stats_report, _stats()),
        "sweep_report": (
            validate_sweep_report,
            sweep_report(SweepRun([CELL], [payload])),
        ),
        "table1_report": (validate_table1_report, _table1()),
        "trace_chrome_document": (
            validate_trace_chrome_document,
            trace_chrome_document(_spans()),
        ),
        "trace_document": (
            validate_trace_document,
            {**trace_document(trace_id, []), "span_count": 2,
             "procs": ["server", "unit-a"], "spans": _spans()},
        ),
    }


VALIDATORS = sorted(
    [
        "analysis_report", "baseline", "bench_document", "cell_payload",
        "check_report", "cost_table", "energy_report", "event_record",
        "fault_report", "gan_scheme_report", "job_report",
        "profile_report", "reliability_report", "sarif_document",
        "stats_report", "sweep_report", "table1_report",
        "trace_chrome_document", "trace_document",
    ]
)


def _paths(value, prefix=()):
    """Every path to a nested value, the root excluded."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, item in items:
        yield prefix + (key,)
        yield from _paths(item, prefix + (key,))


@st.composite
def mutations(draw, document):
    """``document`` with one key deleted or one value replaced."""
    mutated = copy.deepcopy(document)
    path = draw(st.sampled_from(list(_paths(mutated))))
    parent = mutated
    for step in path[:-1]:
        parent = parent[step]
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(JSON_VALUES)
    return mutated


def test_every_validator_is_covered():
    assert sorted(valid_documents()) == VALIDATORS


@pytest.mark.parametrize("name", VALIDATORS)
def test_real_document_validates(name):
    validator, document = valid_documents()[name]
    validator(copy.deepcopy(document))


@pytest.mark.parametrize("name", VALIDATORS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_validator_accepts_or_raises_value_error(name, data):
    validator, document = valid_documents()[name]
    candidate = data.draw(JSON_VALUES | mutations(document))
    try:
        validator(candidate)
    except ValueError:
        pass


@pytest.mark.parametrize(
    "name, path, value",
    [
        # Malformed input that once leaked TypeError/AttributeError.
        ("sarif_document", ("runs",), [3]),
        ("table1_report", ("pipelayer", "per_workload"), [3]),
        ("trace_document", ("spans",), [3, 3]),
        ("baseline", ("metrics",), []),
        ("cell_payload", ("seed",), None),
        ("check_report", ("findings",), [3]),
        ("energy_report", ("groups",), [3]),
        ("gan_scheme_report", ("datasets", "mnist"), [3]),
        ("job_report", ("spec", "seed"), 1.5),
        ("analysis_report", ("pipelines",), [3]),
        # An int no float holds once raised OverflowError.
        ("energy_report", ("totals", "total_joules"), 10**400),
        ("cost_table", ("array_read_joules",), 10**400),
        # A bool is never an int or a number.
        ("event_record", ("seq",), True),
        ("table1_report", ("pipelayer", "speedup"), True),
        ("reliability_report", ("seed",), True),
        ("cell_payload", ("seed",), True),
    ],
    ids=lambda value: (
        ".".join(value) if isinstance(value, tuple) else str(value)[:24]
    ),
)
def test_pinned_malformed_documents_raise_value_error(name, path, value):
    validator, document = valid_documents()[name]
    mutated = copy.deepcopy(document)
    target = mutated
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = value
    with pytest.raises(ValueError):
        validator(mutated)

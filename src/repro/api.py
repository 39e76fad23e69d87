"""Unified simulation facade: one import for the whole reproduction.

The subpackages expose every internal seam (device physics, mapping,
pipelines, estimators); this module is the curated front door that
wires them together for the common journeys:

>>> from repro import Simulator
>>> from repro.api import InferenceJob
>>> sim = Simulator.from_workload("mnist_cnn", seed=7)
>>> result = sim.run(InferenceJob(workload="mnist_cnn", seed=7, count=32))
>>> result.stats["mvm_calls"] > 0
True

* :meth:`Simulator.from_workload` — build a runnable network for a
  named workload and deploy it onto simulated crossbar engines
  (``backend="vectorized"`` or ``"loop"``, see
  :class:`repro.xbar.engine.CrossbarEngineConfig`);
* :meth:`Simulator.run` — execute a frozen job spec
  (:class:`~repro.serve.jobs.InferenceJob` /
  :class:`~repro.serve.jobs.TrainingJob`) against this instance — the
  one way to run a job on a deployed simulator;
* :func:`run_job` — one-shot entry point: build the right simulator
  for any job spec (including
  :class:`~repro.serve.jobs.ReliabilityJob`) and execute it;
* :meth:`Simulator.table1` — the paper's headline Table I rows.

:func:`weights_hash` / :func:`device_config_hash` (re-exported from
:mod:`repro.xbar.engine`) form the programmed-crossbar cache key: the
engines skip reprogramming on an unchanged key for in-process calls,
and :class:`repro.serve.cache.ProgrammedStateCache` reuses whole
deployed simulators across server jobs on the same
``(weights_hash, device_config_hash)``.

The module-level report functions (:func:`table1_report`,
:func:`mapping_sweep`, :func:`pipeline_sweep`,
:func:`gan_scheme_report`, :func:`schedule_trace`) return plain
JSON-able dictionaries; the CLI routes those subcommands through them,
and reliability campaigns come from
:func:`repro.reliability.run_campaign`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.compiler import Deployment, deploy_network, spec_from_network
from repro.core.estimator import TableOneRow, pipelayer_table1, regan_table1
from repro.core.gan_pipeline import scheme_table
from repro.core.mapping import balanced_mapping
from repro.core.pipeline import (
    training_cycles_pipelined,
    training_cycles_sequential,
)
from repro.core.schedule import (
    simulate_gan_iteration,
    simulate_training_pipeline,
)
from repro.core.trace import render_gan_schedule, render_training_schedule
from repro.datasets.synthetic import (
    CIFAR10_SHAPE,
    MNIST_SHAPE,
    DatasetShape,
    make_classification_images,
    make_train_test,
)
from repro.nn.models import build_cifar_cnn, build_mlp, build_mnist_cnn
from repro.nn.network import Sequential
from repro.nn.optim import SGD
from repro.nn.train import evaluate_classifier, train_classifier
from repro.serve.jobs import (
    InferenceJob,
    JobSpec,
    ReliabilityJob,
    TrainingJob,
    job_from_dict,
)
from repro.telemetry import NULL_COLLECTOR, SCHEMA_VERSION, TelemetryLike
from repro.utils.logging import get_logger
from repro.utils.rng import derive_seed, new_rng
from repro.utils.validation import (
    POSITIVE,
    POSITIVE_INT,
    Number,
    check_document,
    non_empty,
)
from repro.workloads import FIG4_EXAMPLE, RUNNABLE_WORKLOADS, regan_suite
from repro.workloads.suite import NetworkSpec
from repro.xbar.engine import (
    CrossbarEngineConfig,
    device_config_hash,
    weights_hash,
)

_log = get_logger("api")

#: Small flat-input stand-in driven by the "mlp" workload.
_TOY_SHAPE = DatasetShape("toy", 1, 8, 4)


@dataclass
class InferenceResult:
    """Outcome of :meth:`Simulator.run` on an ``InferenceJob``."""

    accuracy: float
    count: int
    outputs: np.ndarray
    stats: Dict[str, int]
    engine_info: Dict[str, dict]

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able view (outputs elided — they are bulk data)."""
        return {
            "schema_version": SCHEMA_VERSION,
            "accuracy": self.accuracy,
            "count": self.count,
            "stats": dict(self.stats),
            "engine_info": self.engine_info,
        }

    def summary(self) -> str:
        return (
            f"inference on {self.count} inputs: accuracy "
            f"{self.accuracy:.3f}, {self.stats.get('mvm_calls', 0)} crossbar "
            f"matmuls, {self.stats.get('subcycles', 0)} sub-cycles"
        )


@dataclass
class TrainResult:
    """Outcome of :meth:`Simulator.run` on a ``TrainingJob``."""

    final_accuracy: float
    epochs: int
    batch_losses: List[float] = field(repr=False)
    stats: Dict[str, int] = field(default_factory=dict)
    engine_info: Dict[str, dict] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "final_accuracy": self.final_accuracy,
            "epochs": self.epochs,
            "final_loss": self.batch_losses[-1] if self.batch_losses else None,
            "stats": dict(self.stats),
            "engine_info": self.engine_info,
        }

    def summary(self) -> str:
        return (
            f"trained {self.epochs} epoch(s): accuracy "
            f"{self.final_accuracy:.3f}, "
            f"{self.stats.get('array_programs', 0):,} array programs"
        )


class Simulator:
    """A workload deployed onto the simulated accelerator.

    Construct with :meth:`from_workload`; the instance owns the live
    network, its synthetic dataset geometry, and (unless
    ``deploy=False``) a crossbar engine per weight layer.  All
    randomness derives from ``seed``, so runs are reproducible and the
    two evaluation backends are bit-identical under the same seed.
    """

    WORKLOADS = RUNNABLE_WORKLOADS

    def __init__(
        self,
        name: str,
        network: Sequential,
        input_shape: Tuple[int, ...],
        dataset: DatasetShape,
        seed: int,
        deployment: Optional[Deployment],
        flatten_inputs: bool = False,
        collector: Optional[TelemetryLike] = None,
    ) -> None:
        self.name = name
        self.network = network
        self.input_shape = input_shape
        self.dataset = dataset
        self.seed = seed
        self.deployment = deployment
        self.collector = collector
        self._flatten_inputs = flatten_inputs

    # -- construction -------------------------------------------------------
    @classmethod
    def from_workload(
        cls,
        name: str,
        engine_config: Optional[CrossbarEngineConfig] = None,
        backend: Optional[str] = None,
        seed: int = 0,
        deploy: bool = True,
        collector: Optional[TelemetryLike] = None,
    ) -> "Simulator":
        """Build a named workload and deploy it onto crossbar engines.

        ``name`` is one of :attr:`WORKLOADS`.  ``backend`` overrides
        the engine evaluation backend (``"loop"`` or ``"vectorized"``)
        without rebuilding ``engine_config``; ``deploy=False`` keeps
        the network on exact float matmul (the GPU-baseline
        counterpart).  ``collector`` attaches a
        :class:`repro.telemetry.Collector` (or scoped view): the
        per-layer engines write under ``engine/<layer>/...`` and
        :meth:`run` adds the job's own counters and timing spans.
        Counter telemetry is deterministic (part of the backend
        bit-identity contract); spans are wall-clock.
        """
        if name not in cls.WORKLOADS:
            raise ValueError(
                f"unknown workload {name!r}; pick from {cls.WORKLOADS}"
            )
        net_rng = derive_seed(seed, f"net:{name}")
        if name == "mlp":
            dataset = _TOY_SHAPE
            features = (
                dataset.channels * dataset.size * dataset.size
            )
            network = build_mlp(
                features, hidden=(32,), classes=dataset.classes, rng=net_rng
            )
            input_shape: Tuple[int, ...] = (features,)
            flatten = True
        elif name == "mnist_cnn":
            dataset = MNIST_SHAPE
            network = build_mnist_cnn(rng=net_rng, classes=dataset.classes)
            input_shape = dataset.image_shape
            flatten = False
        else:
            dataset = CIFAR10_SHAPE
            network = build_cifar_cnn(rng=net_rng, classes=dataset.classes)
            input_shape = dataset.image_shape
            flatten = False
        _log.info(
            "building workload %s (seed=%d, backend=%s, deploy=%s)",
            name,
            seed,
            backend or "default",
            deploy,
        )
        deployment = None
        if deploy:
            deployment = deploy_network(
                network,
                engine_config,
                rng=derive_seed(seed, "deploy"),
                backend=backend,
                collector=collector,
            )
        return cls(
            name=name,
            network=network,
            input_shape=input_shape,
            dataset=dataset,
            seed=seed,
            deployment=deployment,
            flatten_inputs=flatten,
            collector=collector,
        )

    # -- properties ---------------------------------------------------------
    def spec(self) -> NetworkSpec:
        """Shape-level spec of the deployed network (for cost models)."""
        return spec_from_network(self.network, self.input_shape)

    def engine_info(self) -> Dict[str, dict]:
        """Which datapath serves each weight layer."""
        if self.deployment is None:
            return {}
        return self.deployment.engine_info()

    def stats(self) -> Dict[str, int]:
        """Aggregate crossbar operation counters (zeros if undeployed)."""
        if self.deployment is None:
            return {}
        return self.deployment.total_stats()

    def counters_snapshot(self) -> Dict[str, float]:
        """Point-in-time copy of this simulator's counter tree.

        Empty when no collector is attached.  Long-lived holders (the
        serve cache) subtract two snapshots around a run to get the
        exact event counters that run added — the delta a cost table
        prices into per-job energy.
        """
        if self.collector is None:
            return {}
        return dict(self.collector.counters())

    def undeploy(self) -> None:
        """Detach the engines; the network falls back to exact matmul."""
        if self.deployment is not None:
            self.deployment.undeploy()
            self.deployment = None

    # -- journeys -----------------------------------------------------------
    def _inputs(self, images: np.ndarray) -> np.ndarray:
        if self._flatten_inputs:
            return images.reshape(images.shape[0], -1)
        return images

    def make_inputs(
        self, count: int = 64, input_seed: Optional[int] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """A deterministic evaluation set of this simulator.

        Returns ``(inputs, labels)`` shaped for the inference forward
        pass.  With ``input_seed=None`` this is the *canonical*
        evaluation set — derived from the instance seed with the same
        salt the inference journey uses, so external evaluation
        harnesses (e.g. :mod:`repro.reliability`) see exactly the
        inputs an inference run would.  An explicit ``input_seed``
        draws an independent input stream (labels, jitter, noise) over
        the same class templates — distinct evaluation data for the
        same model, used by the serve layer's per-job
        ``InferenceJob.input_seed``.

        The class *templates* always come from the ``"train"`` stream
        — the same template family a ``TrainingJob`` fits — so inference
        after training measures generalisation on held-out draws of
        the trained task, not performance on an unrelated one.
        """
        images, labels = make_classification_images(
            count,
            shape=self.dataset,
            rng=(
                derive_seed(self.seed, "infer")
                if input_seed is None
                else input_seed
            ),
            template_rng=derive_seed(self.seed, "train"),
        )
        return self._inputs(images), labels

    # -- the JobSpec entry point ---------------------------------------------
    def run(
        self, job: JobSpec
    ) -> Union[InferenceResult, TrainResult]:
        """Execute a frozen job spec against this deployed instance.

        The spec must describe *this* simulator: ``job.workload`` and
        ``job.seed`` have to match (the spec is the determinism
        contract — silently running a mismatched spec would detach the
        result from its description).  Accepts
        :class:`~repro.serve.jobs.InferenceJob` and
        :class:`~repro.serve.jobs.TrainingJob`;
        :class:`~repro.serve.jobs.ReliabilityJob` builds its own
        simulators — route it through :func:`run_job`.
        """
        if not isinstance(job, (InferenceJob, TrainingJob)):
            raise TypeError(
                f"Simulator.run() takes an InferenceJob or TrainingJob, "
                f"got {type(job).__name__}; use repro.api.run_job() for "
                "other job kinds"
            )
        if job.workload != self.name or job.seed != self.seed:
            raise ValueError(
                f"job spec ({job.workload!r}, seed={job.seed}) does not "
                f"describe this simulator ({self.name!r}, "
                f"seed={self.seed})"
            )
        if isinstance(job, InferenceJob):
            return self._run_inference_job(job)
        return self._run_training_job(job)

    def _run_inference_job(self, job: InferenceJob) -> InferenceResult:
        tel = self.collector if self.collector is not None else NULL_COLLECTOR
        _log.info(
            "inference on %s: %d inputs in batches of %d",
            self.name,
            job.count,
            job.batch,
        )
        inputs, labels = self.make_inputs(
            job.count, input_seed=job.input_seed
        )
        outputs = []
        with tel.span("inference"):
            for start in range(0, job.count, job.batch):
                outputs.append(
                    self.network.forward(
                        inputs[start : start + job.batch], training=False
                    )
                )
        tel.count("inference.runs", 1)
        tel.count("inference.inputs", job.count)
        logits = np.concatenate(outputs, axis=0)
        accuracy = float(np.mean(np.argmax(logits, axis=1) == labels))
        return InferenceResult(
            accuracy=accuracy,
            count=job.count,
            outputs=logits,
            stats=self.stats(),
            engine_info=self.engine_info(),
        )

    def _run_training_job(self, job: TrainingJob) -> TrainResult:
        tel = self.collector if self.collector is not None else NULL_COLLECTOR
        _log.info(
            "training %s: %d epochs over %d samples (batch=%d, lr=%g)",
            self.name,
            job.epochs,
            job.train_count,
            job.batch,
            job.learning_rate,
        )
        images, labels, test_images, test_labels = make_train_test(
            job.train_count,
            job.test_count,
            shape=self.dataset,
            rng=derive_seed(self.seed, "train"),
        )
        with tel.span("train"):
            history = train_classifier(
                self.network,
                SGD(self.network.parameters(), lr=job.learning_rate),
                self._inputs(images),
                labels,
                epochs=job.epochs,
                batch_size=job.batch,
                rng=new_rng(derive_seed(self.seed, "shuffle")),
                collector=tel.scope("train") if tel else None,
            )
            accuracy = evaluate_classifier(
                self.network, self._inputs(test_images), test_labels
            )
        return TrainResult(
            final_accuracy=accuracy,
            epochs=job.epochs,
            batch_losses=list(history.batch_losses),
            stats=self.stats(),
            engine_info=self.engine_info(),
        )

    def cache_key(
        self, engine_config: Optional[CrossbarEngineConfig] = None
    ) -> Tuple[str, str]:
        """``(weights_hash, device_config_hash)`` of this simulator.

        The programmed-crossbar state identity: combines the content
        hashes of every trainable parameter with the hash of the
        engine pipeline config (the deployed one when available, else
        ``engine_config`` or the default).  Weights derive
        deterministically from ``(workload, seed)``, so equal keys
        mean the crossbars would be programmed identically —
        :class:`repro.serve.cache.ProgrammedStateCache` shares one
        deployment across all such jobs, and the engines themselves
        skip in-process reprogramming on an unchanged weights hash.
        """
        if engine_config is None:
            if self.deployment is not None and self.deployment.engines:
                engine_config = next(
                    iter(self.deployment.engines.values())
                ).config
            else:
                engine_config = CrossbarEngineConfig()
        digest = hashlib.sha256()
        for parameter in self.network.parameters():
            digest.update(weights_hash(parameter.value).encode())
        return digest.hexdigest(), device_config_hash(engine_config)

    @staticmethod
    def table1(batch: int = 32) -> Dict[str, TableOneRow]:
        """Both Table I rows (PipeLayer and ReGAN) at ``batch``."""
        return {
            "pipelayer": pipelayer_table1(batch=batch),
            "regan": regan_table1(batch=batch),
        }


def run_job(
    job: JobSpec,
    engine_config: Optional[CrossbarEngineConfig] = None,
    collector: Optional[TelemetryLike] = None,
    simulator: Optional[Simulator] = None,
) -> Union[InferenceResult, TrainResult, Dict[str, Any]]:
    """Build the right simulator for ``job`` and execute it.

    The one-shot counterpart of :meth:`Simulator.run`: inference and
    training jobs deploy a fresh :class:`Simulator` (or run against
    ``simulator`` when given — e.g. one leased from the serve layer's
    programmed-state cache); reliability jobs route to
    :func:`repro.reliability.run_campaign`, which builds its own
    golden/faulty simulator pairs and returns the campaign document.
    """
    if isinstance(job, ReliabilityJob):
        from repro.reliability import run_campaign

        return run_campaign(
            workload=job.workload,
            axis=job.axis,
            rates=job.rates,
            seed=job.seed,
            count=job.count,
            batch=job.batch,
            backend=job.backend or "vectorized",
            train_epochs=job.train_epochs,
            train_count=job.train_count,
            include_tiles=job.include_tiles,
            collector=collector,
        )
    if not isinstance(job, (InferenceJob, TrainingJob)):
        raise TypeError(
            f"run_job() takes a JobSpec, got {type(job).__name__}"
        )
    sim = simulator
    if sim is None:
        sim = Simulator.from_workload(
            job.workload,
            engine_config=engine_config,
            backend=job.backend,
            seed=job.seed,
            collector=collector,
        )
    return sim.run(job)


# -- JSON-able report functions (the CLI's data layer) ----------------------
# Every document carries ``schema_version`` (pinned by
# tests/core/test_schema_version.py) so downstream consumers can detect
# structural changes.
def table1_report(batch: int = 32) -> Dict[str, Any]:
    """Table I rows as a plain dictionary."""
    rows = Simulator.table1(batch=batch)
    return {
        "schema_version": SCHEMA_VERSION,
        **{name: row.to_dict() for name, row in rows.items()},
    }


_TABLE1_SHAPE = {
    "schema_version": SCHEMA_VERSION,
    str: {
        "speedup": POSITIVE, "energy_saving": POSITIVE,
        "paper_speedup": POSITIVE, "paper_energy_saving": POSITIVE,
        "per_workload": non_empty([{"network": str}]),
    },
}


def validate_table1_report(document: Dict[str, Any]) -> Dict[str, Any]:
    """Raise ``ValueError`` unless ``document`` is a Table I report."""
    check_document(document, _TABLE1_SHAPE, "table1_report")
    if len(document) == 1:
        raise ValueError("table1_report carries no accelerator rows")
    return document


def mapping_sweep(
    duplications: Sequence[int] = (1, 4, 16, 64, 256, 1024, 4096, 12544),
) -> Dict[str, Any]:
    """Fig. 4 mapping trade-off: duplication vs passes vs arrays."""
    rows = []
    for duplication in duplications:
        mapping = balanced_mapping(FIG4_EXAMPLE, duplication)
        rows.append(
            {
                "duplication": int(duplication),
                "passes_per_image": mapping.passes_per_image,
                "arrays": mapping.total_arrays,
            }
        )
    return {"schema_version": SCHEMA_VERSION, "rows": rows}


def pipeline_sweep(
    layers: int = 8,
    batches: Sequence[int] = (1, 2, 4, 8, 16, 32, 64, 128),
) -> Dict[str, Any]:
    """Fig. 5 pipeline cycles: sequential vs pipelined training."""
    rows = []
    for batch in batches:
        n_inputs = batch * 4
        sequential = training_cycles_sequential(layers, n_inputs, batch)
        pipelined = training_cycles_pipelined(layers, n_inputs, batch)
        rows.append(
            {
                "batch": int(batch),
                "sequential_cycles": sequential,
                "pipelined_cycles": pipelined,
                "speedup": sequential / pipelined,
            }
        )
    return {
        "schema_version": SCHEMA_VERSION,
        "layers": int(layers),
        "rows": rows,
    }


_RELIABILITY_SHAPE = {
    "schema_version": SCHEMA_VERSION,
    "workload": str, "axis": str, "backend": str,
    "seed": int, "count": int, "batch": int, "train_epochs": int,
    "train_count": int, "baseline_accuracy": Number,
    "scenarios": non_empty([{
        "name": str, "rate": Number, "accuracy": Number,
        "accuracy_drop": Number,
    }]),
}


def validate_reliability_report(
    document: Dict[str, Any],
) -> Dict[str, Any]:
    """Raise ``ValueError`` unless ``document`` is a campaign report."""
    return check_document(document, _RELIABILITY_SHAPE, "reliability_report")


def gan_scheme_report(batch: int = 32) -> Dict[str, Any]:
    """Fig. 9 GAN pipeline schemes per ReGAN dataset."""
    datasets = {}
    for dataset, (generator, discriminator) in regan_suite().items():
        datasets[dataset] = scheme_table(
            discriminator.depth, generator.depth, batch
        )
    return {
        "schema_version": SCHEMA_VERSION,
        "batch": int(batch),
        "datasets": datasets,
    }


_GAN_SCHEME_SHAPE = {
    "schema_version": SCHEMA_VERSION,
    "batch": POSITIVE_INT,
    "datasets": non_empty({str: non_empty([{
        "scheme": str, "cycles": Number, "speedup": Number,
        "d_copies": Number,
    }])}),
}


def validate_gan_scheme_report(
    document: Dict[str, Any],
) -> Dict[str, Any]:
    """Raise ``ValueError`` unless ``document`` is a scheme report."""
    return check_document(document, _GAN_SCHEME_SHAPE, "gan_scheme_report")


def schedule_trace(
    layers: int = 3,
    batch: int = 4,
    gan: bool = False,
    scheme: str = "sp_cs",
    collector: Optional[TelemetryLike] = None,
) -> Dict[str, Any]:
    """Cycle-accurate schedule of one pipeline run, with ASCII Gantt.

    ``collector`` receives the schedule's occupancy counters under the
    ``gan/...`` or ``pipeline/...`` subtree.
    """
    tel = collector if collector is not None else NULL_COLLECTOR
    if gan:
        result = simulate_gan_iteration(
            layers, layers, batch, scheme,
            collector=tel.scope("gan") if tel else None,
        )
        rendered = render_gan_schedule(result)
    else:
        result = simulate_training_pipeline(
            layers, batch * 2, batch,
            collector=tel.scope("pipeline") if tel else None,
        )
        rendered = render_training_schedule(result)
    return {
        "schema_version": SCHEMA_VERSION,
        "layers": layers,
        "batch": batch,
        "gan": gan,
        "scheme": scheme if gan else None,
        "makespan": result.makespan,
        "gantt": rendered,
    }


__all__ = [
    "Simulator",
    "InferenceResult",
    "TrainResult",
    "JobSpec",
    "InferenceJob",
    "TrainingJob",
    "ReliabilityJob",
    "job_from_dict",
    "run_job",
    "weights_hash",
    "device_config_hash",
    "table1_report",
    "mapping_sweep",
    "pipeline_sweep",
    "gan_scheme_report",
    "schedule_trace",
]

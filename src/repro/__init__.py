"""repro — reproduction of "ReRAM-based Accelerator for Deep Learning".

(B. Li, L. Song, F. Chen, X. Qian, Y. Chen, H. Li — DATE 2018.)

Subpackages
-----------
``repro.nn``
    From-scratch numpy DNN substrate: layers (conv / pool / FC /
    fractional-strided conv / batch norm), losses, optimizers, full
    training, and the DCGAN generator/discriminator pair.
``repro.xbar``
    ReRAM crossbar functional simulator: device model, weight mapping
    (differential pairs, bit slicing), spike-coded input drive,
    integrate-and-fire ADC, tiled arrays, and a drop-in matmul engine.
``repro.arch``
    Cost models: technology parameter tables, per-component energy,
    area/power and endurance reports, and the GTX 1080 roofline baseline.
``repro.core``
    The paper's contribution: PipeLayer data mapping and inter-layer
    pipeline, ReGAN's FCNN mapping and GAN training pipelines (with
    spatial parallelism and computation sharing), schedule simulator,
    accelerator models, and the Table I estimator.
``repro.workloads``
    Shape-faithful specs of the evaluation networks (MNIST CNN,
    AlexNet, VGG-16, four DCGANs).
``repro.datasets``
    Deterministic synthetic stand-ins for the paper's datasets.
``repro.telemetry``
    Hierarchical counters and timing spans threaded through the engine,
    pipeline, training, and reliability layers (zero overhead when
    disabled; exports JSON and Chrome-trace).

``repro.api``
    The curated facade: :class:`~repro.api.Simulator` wires workload
    building, crossbar deployment, inference/training, and the Table I
    estimator into one object (re-exported here).

Quick start
-----------
>>> from repro import Simulator
>>> row = Simulator.table1()["pipelayer"]
>>> row.speedup > 1.0
True
"""

__version__ = "1.0.0"

from repro import arch, core, datasets, nn, telemetry, workloads, xbar
from repro.api import InferenceResult, Simulator, TrainResult
from repro.telemetry import Collector

__all__ = [
    "arch",
    "core",
    "datasets",
    "nn",
    "telemetry",
    "workloads",
    "xbar",
    "Simulator",
    "InferenceResult",
    "TrainResult",
    "Collector",
    "__version__",
]

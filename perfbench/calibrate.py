"""Host-speed calibration for the compute-bound workloads.

The benchmark shares a virtual machine whose speed moves by up to 2x
over minutes, as other tenants load the host's cores, caches and
memory.  Two measures keep most of that out of the compute-bound
figures:

- Operations are timed in CPU seconds of the processes doing the work,
  not wall seconds, so time the core spent on other processes does not
  count.  Each such operation runs on one thread with one BLAS thread
  and does no I/O, so on an idle host the two are the same.
- A fixed reference kernel of the benchmark's own (random draws, a
  float matrix product, rounding and clipping: the mix the engine
  spends its time in) is timed after each operation, and every time of
  the run is reported as it would read on a host where the kernel
  takes :data:`REFERENCE_S`::

      normalized = measured * (REFERENCE_S / median(kernel times)) ** s

The kernel is more sensitive to a busy host than the program: over
three sessions of several minutes, in which the kernel's time moved by
1.8x to 2.6x, a noisy inference job stretched by about the kernel's
stretch to the power 0.6 and a fault campaign by about the power 0.4.
With those sensitivities ``s`` the spread of 20-second medians fell
from 0.13-0.22 of their median to 0.02-0.10.  The kernel never calls
the program under test, so a change to the program moves the measured
times and leaves the kernel's alone.
"""

from __future__ import annotations

from typing import List

from common import cpu_s, median

#: Kernel CPU time on the host the seed numbers were measured on (a
#: 2-vCPU Xeon virtual machine, one BLAS thread).  It only sets the
#: scale of the normalized times: the ratio between two programs
#: measured on one host does not depend on it.
REFERENCE_S = 0.013
#: Kernel runs per sample; the sample is their median.
REPEATS = 3
#: Element-wise passes per kernel run: as long as its matrix half.
ELEMENTWISE_PASSES = 24


class HostClock:
    """Times the reference kernel and normalizes measured times by it.

    ``sensitivity`` is the exponent ``s`` of the module docstring: how
    strongly the measured workload's times follow the kernel's.
    """

    def __init__(self, sensitivity: float) -> None:
        import numpy as np

        self._np = np
        self.sensitivity = sensitivity
        rng = np.random.default_rng(0xCA11B)
        self._left = rng.standard_normal((192, 256))
        self._right = rng.standard_normal((256, 192))
        self._levels = rng.standard_normal(200_000)
        # Every buffer the kernel writes is allocated here, once, so its
        # time does not depend on the state of the process's heap.
        self._product = np.empty((192, 192))
        self._noise = np.empty((192, 192))
        self._rounded = np.empty_like(self._levels)
        self.samples: List[float] = []

    def _kernel(self) -> float:
        np = self._np
        rng = np.random.default_rng(1)
        product, noise, rounded = self._product, self._noise, self._rounded
        total = 0.0
        for _ in range(6):
            np.matmul(self._left, self._right, out=product)
            rng.standard_normal(out=noise)
            noise *= 0.5
            product += noise
            product *= 4.0
            np.rint(product, out=product)
            np.clip(product, -127, 127, out=product)
            total += float(product[0, 0])
        for _ in range(ELEMENTWISE_PASSES):
            np.multiply(self._levels, 4.0, out=rounded)
            np.rint(rounded, out=rounded)
            np.clip(rounded, -127, 127, out=rounded)
            total += float(rounded[0])
        return total

    def sample(self) -> None:
        """Time the kernel now and record the median of its runs."""
        runs = []
        for _ in range(REPEATS):
            start = cpu_s()
            self._kernel()
            runs.append(cpu_s() - start)
        self.samples.append(median(runs))

    def scale(self) -> float:
        """Factor that turns this run's CPU seconds into normalized ones."""
        return (REFERENCE_S / median(self.samples)) ** self.sensitivity

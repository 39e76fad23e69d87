"""Smoke tests: the example scripts must run and report sane results.

Each example is executed as a subprocess (exactly how a user runs it)
with a generous timeout; assertions check the load-bearing lines of its
output.  Only the faster examples run here; the heavyweight fidelity
sweep is exercised piecewise by the unit suite.
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def run_example(name: str, timeout: int = 600) -> str:
    """Execute one example; returns stdout, fails the test on error."""
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


@pytest.mark.slow
class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "float accuracy" in out
        assert "crossbar accuracy" in out
        assert "speedup" in out

    def test_pipelined_training_equivalence(self):
        out = run_example("pipelined_training_equivalence.py")
        # The headline: the same weights, in far fewer cycles.
        line = next(
            l for l in out.splitlines() if "max |w_batched" in l
        )
        delta = float(line.rsplit(":", 1)[1])
        assert delta < 1e-12
        assert "same weights within 1e-12" in out

    def test_noise_aware_training(self):
        out = run_example("noise_aware_training.py")
        line = next(l for l in out.splitlines() if "recovered" in l)
        recovered = float(
            line.split("recovered")[1].strip().rstrip(")")
        )
        assert recovered > 0.05
        assert "fwd L1" in out  # the schedule trace rendered

    def test_regan_example(self):
        out = run_example("regan_gan_training.py", timeout=900)
        assert "sp_cs" in out
        assert "speedup" in out
        # Scheme ordering is visible in the printed table.
        assert out.index("unpipelined") < out.index("sp_cs")

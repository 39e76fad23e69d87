"""The suite's own pytest configuration reports failures it finds.

``pyproject.toml`` turns every ``DeprecationWarning`` into an error.
A failing hypothesis property must still end in a normal ``FAILED``
report (exit 1), not an ``INTERNALERROR`` raised while hypothesis
prints its falsifying example.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

FAILING_PROPERTY = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@given(st.integers(0, 10))
@settings(max_examples=50, deadline=None, database=None)
def test_fails(value):
    assert value < 5
'''


def test_failing_property_is_reported_as_failed(tmp_path):
    (tmp_path / "test_failing_property.py").write_text(FAILING_PROPERTY)
    result = subprocess.run(
        [
            sys.executable, "-m", "pytest",
            "-c", str(ROOT / "pyproject.toml"),
            "-p", "no:cacheprovider",
            str(tmp_path / "test_failing_property.py"),
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    output = result.stdout + result.stderr
    assert "INTERNALERROR" not in output, output[-2000:]
    assert result.returncode == 1, output[-2000:]
    assert "FAILED" in output and "assert 5 < 5" in output, output[-2000:]

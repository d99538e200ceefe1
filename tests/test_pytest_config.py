"""The repo's pytest settings must not swallow a failing Hypothesis test.

Tier-1 runs with every ``DeprecationWarning`` turned into an error.  When
Hypothesis finds a falsifying example, its pytest plugin imports
``libcst`` to offer a patch, and that import raises a deprecation
warning of its own; unscoped, the error filter turned it into an
``INTERNALERROR`` (exit 3) that hid the example.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_always_negative(x):
    assert x < 0
"""


def test_falsifying_example_is_reported(tmp_path):
    (tmp_path / "test_failing.py").write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
         "-p", "no:cacheprovider", "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "Falsifying example" in out

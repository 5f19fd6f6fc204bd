"""The project's pytest settings report a failing property test and keep going.

``pyproject.toml`` turns warnings into errors. When a ``@given`` test fails,
hypothesis's pytest plugin imports ``libcst`` (if installed) to write a patch
with the failing example, and that import may warn; under ``"error"`` alone
the warning ended the whole session in ``INTERNALERROR``.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_THEN_PASSING = """
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers(0, 10))
def test_fails(x):
    assert x < 3


def test_passes():
    pass
"""


def test_a_failing_property_test_is_reported_and_the_session_goes_on(tmp_path):
    (tmp_path / "test_two.py").write_text(FAILING_THEN_PASSING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out
    assert run.returncode == 1, out
    assert "1 failed, 1 passed" in out
    assert "Falsifying example: test_fails(" in out

"""The test configuration in ``pyproject.toml`` reports failures as failures.

A failing ``@given`` test makes hypothesis import libcst, whose import of
``mypy_extensions.TypedDict`` raises a DeprecationWarning.  Under the
``error::DeprecationWarning`` filter that warning, unless ignored by name,
aborts the session with an INTERNALERROR, so no later test runs.
"""

import subprocess
import sys
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st

@given(st.integers())
def test_a_property_that_fails(x):
    assert x < 0
'''

OTHER_DEPRECATION = '''
import warnings

def test_a_deprecation_warning_fails():
    warnings.warn("some API is deprecated", DeprecationWarning)
'''

PASSING = '''

def test_z_runs_after_the_failure():
    pass
'''


@pytest.mark.parametrize("planted", [FAILING_PROPERTY, OTHER_DEPRECATION], ids=["property", "deprecation"])
def test_a_failing_test_is_reported_and_the_session_runs_on(planted, tmp_path):
    (tmp_path / "test_planted.py").write_text(planted + PASSING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), str(tmp_path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout.splitlines()[-1], run.stdout

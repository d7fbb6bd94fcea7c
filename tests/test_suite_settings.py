"""The test suite's own settings, as ``pyproject.toml`` gives them to pytest."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_a_failing_property(n):
    assert n < 5


def test_after_the_failure():
    pass
'''


def test_a_failing_hypothesis_test_does_not_end_the_session(tmp_path):
    # Every warning is an error here, and reporting a falsifying example
    # imports modules that warn; the session must still report the failure
    # and go on to the next test.
    (tmp_path / "test_child.py").write_text(FAILING_PROPERTY, encoding="utf-8")
    result = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
            "-p", "no:cacheprovider", "-rfp", "test_child.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "FAILED test_child.py::test_a_failing_property" in result.stdout
    assert "PASSED test_child.py::test_after_the_failure" in result.stdout
    assert result.returncode == 1, result.stdout

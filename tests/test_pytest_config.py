"""The repository's pytest configuration reports failing property tests."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

_PAIR = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, deadline=None)
@given(st.integers(0, 10))
def test_fails(x):
    assert x < 5


def test_passes():
    pass
'''


def test_failing_property_reports_its_example_and_the_run_goes_on(tmp_path):
    (tmp_path / "test_pair.py").write_text(_PAIR)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = done.stdout + done.stderr
    assert done.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "Falsifying example: test_fails(" in out
    assert "1 failed, 1 passed" in out

"""The pytest configuration in pyproject.toml: a failing property test is
reported as a failure, with the session going on, and a warning raised by
genus_forge still fails its test."""

import os
import subprocess
import sys
from pathlib import Path

import genus_forge

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(genus_forge.__file__).resolve().parents[1])


def _pytest(tmp_path, body: str) -> subprocess.CompletedProcess:
    """pytest under the repository's configuration on one test file in tmp_path."""
    (tmp_path / "test_probe.py").write_text(body)
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"), "--rootdir",
         str(tmp_path), "-p", "no:cacheprovider", "-q", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC})


def test_failing_property_test_is_reported(tmp_path):
    # hypothesis's failure report imports libcst, whose import warns: under
    # "error" alone that ended the session with INTERNALERROR and exit 3
    run = _pytest(tmp_path, (
        "from hypothesis import given, strategies as st\n\n"
        "@given(st.integers())\n"
        "def test_always_fails(n):\n"
        "    assert n != n\n"))
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed" in run.stdout and "INTERNALERROR" not in run.stdout


def test_package_warning_fails_its_test(tmp_path):
    run = _pytest(tmp_path, (
        "from genus_forge.elliptic import twisted_indices\n"
        "from genus_forge.manifolds import ManifoldData\n\n"
        "def test_warns():\n"
        "    fake = ManifoldData(name='fake-spin', real_dim=4, spin=True,\n"
        "                        pontryagin_numbers={(1,): -47})\n"
        "    twisted_indices(fake, 'W', 0)\n"))
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed" in run.stdout and "NonIntegralIndexWarning" in run.stdout

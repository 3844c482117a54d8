"""The demos run clean: exit 0 and nothing on stderr, with warnings as errors."""

import os
import subprocess
import sys

import pytest

import fdzeros

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("name", ["classify_operators", "mesh_growth", "root_drift_sweep"])
def test_demo_runs_clean(name):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(fdzeros.__file__)))
    done = subprocess.run(
        [sys.executable, "-W", "error", os.path.join(ROOT, "demos", f"{name}.py")],
        env=env, capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout

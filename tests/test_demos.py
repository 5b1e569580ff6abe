"""Every demo script runs to completion without writing to stderr."""

import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs(path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(os.path.join(ROOT, "src"))
    r = subprocess.run([sys.executable, path], capture_output=True,
                       text=True, env=env, timeout=300)
    assert r.returncode == 0, r.stderr
    assert r.stderr == ""

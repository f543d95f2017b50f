"""Every demo script runs to completion against the installed sources."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import sirnet

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    src = str(Path(sirnet.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=300)
    assert proc.returncode == 0, proc.stderr

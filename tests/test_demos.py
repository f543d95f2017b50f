"""Every demo script, and the README's Python quick start, runs to
completion against the installed sources."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import sirnet

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_PYTHON = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                           re.MULTILINE | re.DOTALL)


def _run_python(args):
    src = str(Path(sirnet.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=300)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    _run_python([str(demo)])


def test_readme_quick_start_runs():
    # the README's one python block, so its example cannot go stale
    assert len(README_PYTHON) == 1
    _run_python(["-c", README_PYTHON[0]])

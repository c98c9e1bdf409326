"""Every narrative demo runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import levysheet

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    src = str(Path(levysheet.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True,
                            text=True, timeout=300)
    assert result.returncode == 0, result.stderr

"""One round each of perfbench's cf-exact, cpp-dense-field and cpp-small-draws workloads,
judged by the benchmark's own checker: every result matches its oracle and no operation
fails.

The round is round 0 at seed 1, drawn from the stream `perfbench/run.py` gives
it, and cf-exact's round includes its `python -m levysheet.cli cf` subprocess.
The workload writes its files under the test's temporary directory.
"""

import importlib
import os
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"

# (module, position in run.py's WORKLOADS table): run.py seeds round r of the
# workload at that position with [seed, position, r]
WORKLOADS = {"cf-exact": ("cf_exact", 3), "cpp-dense-field": ("cpp_dense", 2),
             "cpp-small-draws": ("cpp_small", 1)}


class _Context:
    """What run.py's Context gives a workload, with the work directory moved."""

    def __init__(self, workdir: Path):
        self.python = sys.executable
        self.env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        self.workdir = workdir


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_one_round_is_correct(workload, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    harness = importlib.import_module("harness")
    module_name, position = WORKLOADS[workload]
    work = importlib.import_module(module_name).Workload(_Context(tmp_path / "work"))
    tracer, checker = harness.Tracer(), harness.Checker()
    work.round(np.random.default_rng([1, position, 0]), tracer, checker)
    checker.finish()
    assert checker.attempted > 0 and checker.checks > 0
    assert checker.mismatches == []
    assert (checker.failed, checker.failures) == (0, [])

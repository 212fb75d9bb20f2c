"""The shipped configs at seed 0 reproduce the benchmark's reference outputs
(``perfbench/reference/``) to a relative deviation of 1e-12.

This is the one tier-1 check of every bound term and constant that
``summary.json`` records: a term scaled by 0.01 moves no trajectory and
breaks no bound, so only the comparison with the stored outputs sees it.
The comparison is the benchmark's own, imported from ``perfbench/check.py``.
"""
import sys
from pathlib import Path

import pytest

from airmeta.cli import main

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import check  # noqa: E402


@pytest.mark.parametrize("workload, config", [("conv_run", "convergence.json"),
                                              ("gen_trials", "generalization.json")])
def test_shipped_config_reproduces_the_reference_outputs(workload, config, tmp_path):
    assert main(["run", "--config", str(ROOT / "configs" / config),
                 "--out-dir", str(tmp_path), "--seed", "0"]) == 0
    assert check.reference_errors(workload, tmp_path) == []

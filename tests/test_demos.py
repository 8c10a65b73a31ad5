import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = [
    "axiom_soundness_suite.py",
    "bisimulation_and_minimization.py",
    "bounds_and_model_checking.py",
    "satisfiability_and_witnesses.py",
]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_cleanly(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        env=env, capture_output=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr.decode()

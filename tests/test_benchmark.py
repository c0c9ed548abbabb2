"""The benchmark's own output checks, run at smoke size.

`perfbench/run.py --smoke` runs each workload once at tiny shot counts
through the real CLI and checks its outputs (at the pinned seed, the
records sha256 among them); a change that breaks any of those checks
fails here.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["tomo_roundtrip", "paper_eta_sweep", "ramsey_bulk"])
def test_benchmark_smoke_run_is_correct(workload):
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload, "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True, done.stdout
    assert result["failed"] == 0, done.stdout
    assert result["attempted"] >= 1

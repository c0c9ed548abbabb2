"""Self-test of the benchmark harness, in smoke mode; takes about a minute.

usage: python3 perfbench/selftest.py      (or: python3 -m pytest perfbench/selftest.py)

It checks that every workload prints a correct result whose metrics and
units are exactly those BENCHMARK.json declares, with tracing off and on;
that the work counts of two traced runs with one seed are identical; that a
directory without the program makes the benchmark fail without a result;
and that the output checks reject wrong outputs.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTS = (
    "engine.run_experiment_calls",
    "engine.shots",
    "engine.attempts",
    "engine.heralds",
    "engine.draw_mb",
    "cli.read_records_rows",
    "cli.write_records_mb",
    "tomography.reconstruct_calls",
)


def bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    """Run the benchmark in smoke mode."""
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def result(*args) -> dict:
    proc = bench(*args)
    assert proc.returncode == 0, f"run.py {args} exited with {proc.returncode}:\n{proc.stderr}"
    lines = proc.stdout.splitlines()
    out = json.loads(lines[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    return out


def declared(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_spec_matches_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert declared("end_to_end") == run.END_TO_END_UNITS
    assert declared("per_layer") == run.PER_LAYER_UNITS


def test_fails_without_program():
    bare = ROOT / ".perfbench_work" / f"selftest-{os.getpid()}"
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = bench("--workload", "tomo_roundtrip", "--seed", "1", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def _block(chi) -> dict:
    chi = np.asarray(chi, dtype=complex)
    return {
        "chi_real": chi.real.tolist(),
        "chi_imag": chi.imag.tolist(),
        "identity_overlap": float(chi[0, 0].real),
    }


def test_tomography_checks_reject_unphysical_chi():
    good = np.diag([0.9, 0.05, 0.03, 0.02])
    assert workloads.check_tomography_block(_block(good), "x") == []
    skew = good.astype(complex)
    skew[0, 1] = 0.1j
    assert workloads.check_tomography_block(_block(skew), "x")
    assert workloads.check_tomography_block(_block(2.0 * good), "x")
    assert workloads.check_tomography_block(_block(np.diag([1.1, 0.0, 0.0, -0.1])), "x")


def test_ramsey_check_rejects_lost_contrast():
    out = ROOT / ".perfbench_work" / f"ramsey-{os.getpid()}"
    out.mkdir(parents=True)
    try:
        n = 10_000
        fits = [
            {"branch": b, "contrast": workloads.ideal_ramsey_contrast(b)} for b in (1, 2)
        ]
        summary = {
            "branch_stats": {"n_shots": 2 * n, "n_branch_1": n, "n_branch_2": n},
            "fringes": fits,
        }
        (out / "fringe.csv").write_text("\n".join(["h"] * (1 + 2 * workloads.RAMSEY_BINS)))
        (out / "ramsey_summary.json").write_text(json.dumps(summary))
        assert workloads.check_ramsey(out, 2 * n) == []
        assert workloads.check_ramsey(out, 2 * n + 1)
        fits[1]["contrast"] -= 10.0 * math.sqrt(2.0 / n)
        (out / "ramsey_summary.json").write_text(json.dumps(summary))
        assert workloads.check_ramsey(out, 2 * n)
    finally:
        shutil.rmtree(out, ignore_errors=True)


def test_workloads_report_declared_metrics_and_counts_repeat():
    for workload in run.WORKLOADS:
        out = result("--workload", workload, "--seed", "7", "--trace", "0")
        units = {k: v["unit"] for k, v in out["metrics"].items()}
        assert units == declared("end_to_end"), workload
        assert out["metrics"]["ok_frac"]["value"] == 1.0

        first = result("--workload", workload, "--seed", "3", "--trace", "1")
        units = {k: v["unit"] for k, v in first["metrics"].items()}
        assert units == declared("per_layer"), workload
        second = result("--workload", workload, "--seed", "3", "--trace", "1")
        for name in COUNTS:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            assert a == b, f"{workload} {name}: {a} != {b}"
        assert first["metrics"]["engine.shots"]["value"] > 0


def main() -> int:
    tests = [v for k, v in globals().items() if k.startswith("test_")]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Workloads of the spinherald benchmark.

Each workload writes its manifest from the benchmark seed, lists the CLI
invocations of one pass, and checks what each invocation wrote.  A check
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

N_SETTINGS = 12  # the tomography plan

# Copies of demos/corrected_hv.ini and demos/ramsey_hv.ini as they stood when
# the benchmark was defined.  They are kept here so that a later edit of a
# demo does not change what the benchmark measures; only the seed, the shot
# count and eta are filled in by the benchmark.
CORRECTED_HV = """\
[run]
sequence = corrected_HV
shots = {shots}
seed = {seed}

[config]
p_exc = 0.075
eta = {eta!r}

[errors]
p_multi = 0.05
p_dark = 0.03
e_prep = 0.015
e_meas = 0.015
pol_misalign = 0.01
phi_jitter_sigma = 0.17

[analysis]
tomography = true
filter = corrected
entanglement_fidelity = true
"""

RAMSEY_HV = """\
[run]
sequence = ramsey_HV
shots = 100000
seed = {seed}

[config]
p_exc = 0.075

[analysis]
fringe_harmonic = 2
bins = 20
"""

RAMSEY_HARMONIC = 2
RAMSEY_BINS = 20
SWEEP_GRID = ("0", "0.05", "0.1")

# Shots per CLI run (per tomography setting where the manifest runs the
# plan).  The smoke sizes run the same code path in seconds.
SHOTS = {
    "tomo_roundtrip": 100_000,
    "paper_eta_sweep": 20_000,
    "ramsey_bulk": 2_000_000,
}
SMOKE_SHOTS = {
    "tomo_roundtrip": 2_000,
    "paper_eta_sweep": 500,
    "ramsey_bulk": 20_000,
}
ETA = {"tomo_roundtrip": 1.0, "paper_eta_sweep": 2.5e-3, "ramsey_bulk": 1.0}

# sha256 of tomo_roundtrip's records.csv at seed 7 (the demo seed), keyed by
# shots per setting.  Records at eta = 1 are fixed by the engine's
# randomness contract, so any change here is a change of program output.
RECORDS_SHA256_SEED7 = {
    100_000: "c30aefc4da4ba76b20f67981f231cb07f22413d4cf633e38b978876e84d9d983",
    2_000: "d31e3d95af2136a8c710cee973abd0e0d8a8865798166f7c0ab0a17f6f4b88df",
}
PINNED_SEED = 7


@dataclass(frozen=True)
class Step:
    """One CLI invocation of a pass and the check of its output."""

    argv: tuple[str, ...]
    check: Callable[[], list[str]]


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    shots: int
    eta: float
    manifest: Path
    out: Path

    @property
    def total_shots(self) -> int:
        """Shots simulated by one pass."""
        if self.name == "tomo_roundtrip":
            return N_SETTINGS * self.shots
        if self.name == "paper_eta_sweep":
            return N_SETTINGS * self.shots * len(SWEEP_GRID)
        return self.shots

    def steps(self) -> list[Step]:
        out, m = self.out, str(self.manifest)
        if self.name == "tomo_roundtrip":
            return [
                Step(
                    ("simulate", "--manifest", m, "--out", str(out)),
                    lambda: check_simulate(out, self.shots, self.seed),
                ),
                Step(
                    (
                        "tomo",
                        "--records",
                        str(out / "records.csv"),
                        "--filter",
                        "corrected",
                        "--out",
                        str(out),
                    ),
                    lambda: check_tomo(out),
                ),
            ]
        if self.name == "paper_eta_sweep":
            argv = ("sweep", "--manifest", m, "--parameter", "p_multi")
            argv += ("--grid", ",".join(SWEEP_GRID), "--out", str(out))
            return [Step(argv, lambda: check_sweep(out, self.shots))]
        argv = ("ramsey", "--manifest", m, "--shots", str(self.shots), "--out", str(out))
        return [Step(argv, lambda: check_ramsey(out, self.shots))]

    def meta(self) -> dict:
        return {
            "workload": self.name,
            "seed": self.seed,
            "shots_per_run": self.shots,
            "shots_per_pass": self.total_shots,
            "eta": self.eta,
        }


def make_workload(name: str, seed: int, work: Path, smoke: bool) -> Workload:
    """Write the workload's manifest for `seed` under `work`."""
    shots = (SMOKE_SHOTS if smoke else SHOTS)[name]
    eta = ETA[name]
    manifest = work / f"{name}.ini"
    if name == "ramsey_bulk":
        text = RAMSEY_HV.format(seed=seed)
    else:
        text = CORRECTED_HV.format(shots=shots, seed=seed, eta=eta)
    manifest.write_text(text)
    return Workload(name, seed, shots, eta, manifest, work / "out")


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def _load(path: Path):
    try:
        return json.loads(path.read_text()), None
    except (OSError, ValueError) as exc:
        return None, f"{path.name}: {exc}"


def check_tomography_block(block: dict, label: str) -> list[str]:
    """Invariants of a physical process matrix; they hold at any eta."""
    problems = []
    chi = np.asarray(block["chi_real"]) + 1j * np.asarray(block["chi_imag"])
    if chi.shape != (4, 4):
        return [f"{label}: chi has shape {chi.shape}"]
    if not np.allclose(chi, chi.conj().T, rtol=0.0, atol=1e-9):
        problems.append(f"{label}: chi is not Hermitian")
    trace = np.trace(chi)
    if abs(trace - 1.0) > 1e-9:
        problems.append(f"{label}: trace of chi is {trace}")
    min_eig = float(np.linalg.eigvalsh(0.5 * (chi + chi.conj().T))[0])
    if min_eig < -1e-9:
        problems.append(f"{label}: minimum eigenvalue of chi is {min_eig}")
    overlap = block["identity_overlap"]
    if not 0.0 <= overlap <= 1.0:
        problems.append(f"{label}: identity overlap {overlap} outside [0, 1]")
    return problems


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def check_simulate(out: Path, shots: int, seed: int) -> list[str]:
    summary, err = _load(out / "summary.json")
    if err:
        return [err]
    problems = check_tomography_block(summary["tomography"], "simulate")
    n = summary["branch_stats"]["n_shots"]
    if n != N_SETTINGS * shots:
        problems.append(f"simulate: n_shots {n} != {N_SETTINGS * shots}")
    pinned = RECORDS_SHA256_SEED7.get(shots)
    if seed == PINNED_SEED and pinned is not None:
        got = _sha256(out / "records.csv")
        if got != pinned:
            problems.append(f"records.csv sha256 {got} != pinned {pinned}")
    return problems


def check_tomo(out: Path) -> list[str]:
    """At eta = 1 the tomography from the records file must equal the one
    built in memory by simulate: reconstruct reads only branch and outcome,
    which the records hold exactly."""
    simulated, err = _load(out / "summary.json")
    if err:
        return [err]
    from_records, err = _load(out / "tomo_summary.json")
    if err:
        return [err]
    if from_records["tomography"] != simulated["tomography"]:
        return ["tomo: tomography from records differs from simulate's summary"]
    return []


def check_sweep(out: Path, shots: int) -> list[str]:
    """Invariants only: records at eta < 1 may change on purpose."""
    problems = []
    for i, value in enumerate(SWEEP_GRID):
        summary, err = _load(out / f"summary_{i:03d}.json")
        if err:
            problems.append(err)
            continue
        label = f"sweep point {i}"
        problems += check_tomography_block(summary["tomography"], label)
        n = summary["branch_stats"]["n_shots"]
        if n != N_SETTINGS * shots:
            problems.append(f"{label}: n_shots {n} != {N_SETTINGS * shots}")
        if summary["sweep"] != {"parameter": "p_multi", "value": float(value)}:
            problems.append(f"{label}: sweep echo {summary['sweep']}")
    try:
        lines = (out / "sweep.csv").read_text().splitlines()
    except OSError as exc:
        return problems + [f"sweep.csv: {exc}"]
    if len(lines) != 1 + len(SWEEP_GRID):
        problems.append(f"sweep.csv has {len(lines)} lines")
    return problems


def ideal_ramsey_contrast(branch: int) -> float:
    """Contrast of the ideal ramsey_HV fringe after binning.

    Branch 1 (V) leaves the spin alone, so pi/2 - pi/2 ends in |down> at
    every phase and the fit reports contrast 0.  Branch 2 (H) is a pi
    rotation about the precessing axis, giving P(up) = (1 - cos 2phi)/2 with
    contrast 1, which averaging over a bin of width 2pi/B scales by
    sinc(m pi / B).
    """
    if branch == 1:
        return 0.0
    x = RAMSEY_HARMONIC * math.pi / RAMSEY_BINS
    return math.sin(x) / x


def check_ramsey(out: Path, shots: int) -> list[str]:
    summary, err = _load(out / "ramsey_summary.json")
    if err:
        return [err]
    problems = []
    stats = summary["branch_stats"]
    if stats["n_shots"] != shots:
        problems.append(f"ramsey: n_shots {stats['n_shots']} != {shots}")
    fits = {f["branch"]: f for f in summary["fringes"]}
    for branch in (1, 2):
        if branch not in fits:
            problems.append(f"ramsey: no fringe fit for branch {branch}")
            continue
        n_branch = stats[f"n_branch_{branch}"]
        # binomial standard error of a fitted contrast is at most
        # sqrt(2 * 0.25 / n) / offset with offset 1/2; allow five of them
        tol = 5.0 * math.sqrt(2.0 / max(n_branch, 1))
        ideal = ideal_ramsey_contrast(branch)
        got = fits[branch]["contrast"]
        if abs(got - ideal) > tol:
            problems.append(
                f"ramsey: branch {branch} contrast {got} not within {tol:.2g} of {ideal}"
            )
    try:
        lines = (out / "fringe.csv").read_text().splitlines()
    except OSError as exc:
        return problems + [f"fringe.csv: {exc}"]
    if len(lines) != 1 + 2 * RAMSEY_BINS:
        problems.append(f"fringe.csv has {len(lines)} lines")
    return problems

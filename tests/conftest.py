import csv

import numpy as np
import pytest

from spinherald.engine import (
    ErrorBudget,
    ExperimentConfig,
    ShotFrame,
    get_sequence,
    run_experiment,
)
from spinherald.spinalg import PAULIS, from_bloch, to_bloch
from spinherald.tomography import run_plan, tomography_plan

ACCEPT_SEED = 20211
SHOTS_PER_SETTING = 100_000

PLAN = tomography_plan()


def tomography_frames(sequence_name, errors, seed, shots=SHOTS_PER_SETTING):
    """Run the full 12-setting plan for one channel block."""
    cfg = ExperimentConfig(shots=shots, seed=seed, p_exc=0.075, eta=1.0, errors=errors)
    return run_plan(cfg, get_sequence(sequence_name))


def ranges_equal_serial(serial, config, seq, parts):
    """True when each of `parts` near-equal contiguous ranges lo ... hi-1 of
    the shot range, simulated alone, equals those rows of the serial run."""
    bounds = np.linspace(0, config.shots, parts + 1, dtype=int).tolist()
    return all(
        run_experiment(config, seq, lo, hi).equals(serial.select(slice(lo, hi)))
        for lo, hi in zip(bounds[:-1], bounds[1:])
    )


_FRAME_DTYPES = (np.int64, np.int8, np.float64, bool, np.int64)


def read_frames(path):
    """Reference records reader: one ShotFrame per setting_id, in ascending
    setting order, each keeping its rows in file order.  Parsed line by line
    with the csv module, int and float, apart from the reader under test."""
    with open(path, newline="") as fh:
        header, *lines = csv.reader(fh)
    assert ",".join(header) == "shot_id,setting_id,branch,phi_tac,outcome,n_attempts"
    rows = {}
    for shot_id, setting_id, branch, phi_tac, outcome, n_attempts in lines:
        assert outcome in ("up", "down"), outcome
        row = (int(shot_id), int(branch), float(phi_tac), outcome == "up", int(n_attempts))
        rows.setdefault(int(setting_id), []).append(row)
    return {
        key: ShotFrame(*map(np.array, zip(*rows[key]), _FRAME_DTYPES))
        for key in sorted(rows)
    }


def oracle_fringe(phi, values, n_bins):
    """Rows of (bin center, mean of values, count) over n_bins equal phase
    bins of [0, 2 pi): the fringe table that ShotCounts builds, binned here
    independently by np.mod and np.digitize (2 pi and above go to the last
    bin)."""
    edges = np.linspace(0.0, 2.0 * np.pi, n_bins + 1)
    idx = np.clip(np.digitize(np.mod(phi, 2.0 * np.pi), edges) - 1, 0, n_bins - 1)
    counts = np.bincount(idx, minlength=n_bins).astype(float)
    sums = np.bincount(idx, weights=np.asarray(values, dtype=float), minlength=n_bins)
    with np.errstate(invalid="ignore", divide="ignore"):
        mean = np.where(counts > 0, sums / counts, np.nan)
    return np.column_stack([0.5 * (edges[:-1] + edges[1:]), mean, counts])


def kraus_transfer(kraus_ops):
    """Independent transfer-matrix oracle: T_ab = tr(P_a E(P_b))/2."""
    t = np.zeros((4, 4))
    for a in range(4):
        for b in range(4):
            out = sum(k @ PAULIS[b] @ k.conj().T for k in kraus_ops)
            t[a, b] = 0.5 * np.trace(PAULIS[a] @ out).real
    return t


def synthetic_outcomes(kraus_ops, shots, rng):
    """Bernoulli outcomes of the plan under a channel, simulated at the
    state level (independent of the PTM machinery under test)."""
    outcomes = {}
    for s in PLAN:
        rho = from_bloch(np.array(s.prep_bloch))
        out = sum(k @ rho @ k.conj().T for k in kraus_ops)
        p_up = 0.5 * (1.0 + float(np.dot(s.axis_bloch, to_bloch(out))))
        outcomes[s.index] = rng.random(shots) < p_up
    return outcomes


@pytest.fixture(scope="session")
def ideal_uncorrected_frames():
    """H/V scattering, no errors, no correction: shared by the engine
    convergence test and acceptance criteria 2 and 3."""
    return tomography_frames("scatter_HV", ErrorBudget(), ACCEPT_SEED + 1)

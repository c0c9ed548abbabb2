"""Single-qubit process tomography and fringe analysis.

The reconstruction pipeline is: measured up/down counts per (preparation,
measurement axis) setting -> affine Bloch map by linear inversion (the Pauli
transfer matrix) -> process matrix chi over {I, sigma_x, sigma_y, sigma_z}
-> projection onto the completely-positive trace-preserving set by
alternating eigenvalue truncation and trace-preservation re-imposition.

chi conventions: E(rho) = sum_mn chi[m, n] P_m rho P_n with P = (I, X, Y, Z);
chi is Hermitian with unit trace for trace-preserving maps and chi[0, 0] is
the overlap with the identity process.  The Pauli transfer matrix T is the
4x4 real matrix acting on (1, x, y, z); its first row is (1, 0, 0, 0) and
its 3x3 lower-right block carries the Bloch-ball image whose singular values
are the semi-axes of the ellipsoid that the pure-state sphere maps onto.

The 12-setting plan (four preparations times three measurement axes) is
defined here alone; `plan_runs` and `run_plan` run one engine sequence
under each of its settings.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace

import numpy as np

from .engine import (
    ExperimentConfig, PulseSequence, RotationSpec, X_AXIS, Y_AXIS, derive_seed,
    run_experiment,
)
from .spinalg import ID2, PAULIS, pauli_transfer

__all__ = [
    "IncompleteDataError",
    "UnderdeterminedFitError",
    "CPTPConvergenceError",
    "TomographySetting",
    "BlochEllipsoid",
    "FringeFit",
    "ShotCounts",
    "TomographyResult",
    "tomography_plan",
    "plan_runs",
    "run_plan",
    "estimate_ptm",
    "ptm_to_chi",
    "chi_to_ptm",
    "chi_to_choi",
    "choi_to_chi",
    "project_cptp",
    "identity_overlap",
    "bloch_ellipsoid",
    "fit_fringe",
    "reconstruct",
]


class IncompleteDataError(ValueError):
    """Tomography settings without any records."""


class UnderdeterminedFitError(ValueError):
    """Fewer populated fringe bins than fit parameters."""


class CPTPConvergenceError(RuntimeError):
    """Alternating projection failed to converge; carries diagnostics."""

    def __init__(self, iterations: int, delta: float, tp_residual: float):
        self.iterations = iterations
        self.delta = delta
        self.tp_residual = tp_residual
        super().__init__(
            f"CPTP projection did not converge after {iterations} iterations "
            f"(last step {delta:.3e}, TP residual {tp_residual:.3e})"
        )


# ---------------------------------------------------------------------------
# the measurement plan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TomographySetting:
    """One (preparation, measurement axis) combination of the 4 x 3 plan."""

    index: int
    prep_label: str
    prep: RotationSpec | None
    prep_bloch: tuple[float, float, float]
    axis_label: str
    analysis: RotationSpec | None
    axis_bloch: tuple[float, float, float]

    @property
    def label(self) -> str:
        return f"{self.prep_label}/{self.axis_label}"


# the four prepared states: the pulse applied to |up> and the state's Bloch
# vector; plus_x = (|up>+|down>)/sqrt2, plus_y = (|up>+i|down>)/sqrt2
_PREPARATIONS = {
    "up": (None, (0.0, 0.0, 1.0)),
    "down": (RotationSpec(X_AXIS, math.pi), (0.0, 0.0, -1.0)),
    "plus_x": (RotationSpec(Y_AXIS, math.pi / 2), (1.0, 0.0, 0.0)),
    "plus_y": (RotationSpec(X_AXIS, -math.pi / 2), (0.0, 1.0, 0.0)),
}

# the analysis pulse rotates the measured axis onto +z
_MEASUREMENTS = {
    "x": (RotationSpec(Y_AXIS, -math.pi / 2), (1.0, 0.0, 0.0)),
    "y": (RotationSpec(X_AXIS, math.pi / 2), (0.0, 1.0, 0.0)),
    "z": (None, (0.0, 0.0, 1.0)),
}


def tomography_plan() -> list[TomographySetting]:
    """The informationally complete 12-setting plan: preparations
    {up, down, plus_x, plus_y} x measurement axes {x, y, z}."""
    plan = []
    for prep_label, (prep, prep_bloch) in _PREPARATIONS.items():
        for axis_label, (analysis, axis_bloch) in _MEASUREMENTS.items():
            plan.append(
                TomographySetting(
                    index=len(plan),
                    prep_label=prep_label,
                    prep=prep,
                    prep_bloch=prep_bloch,
                    axis_label=axis_label,
                    analysis=analysis,
                    axis_bloch=axis_bloch,
                )
            )
    return plan


def plan_runs(config: ExperimentConfig, seq: PulseSequence):
    """(setting.index, config, sequence) of the run of each plan setting, in
    plan order: its prep/analysis pulses swapped into `seq`, its label
    appended to the sequence name and its own child seed derived from
    (config.seed, setting.index)."""
    for setting in tomography_plan():
        seq_s = replace(
            seq,
            name=f"{seq.name}:{setting.label}",
            prep=setting.prep,
            analysis=setting.analysis,
        )
        cfg_s = replace(config, seed=derive_seed(config.seed, setting.index))
        yield setting.index, cfg_s, seq_s


def run_plan(config: ExperimentConfig, seq: PulseSequence) -> dict:
    """Run one sequence under every setting of the plan, as `plan_runs` lays
    them out; returns {setting.index: ShotFrame}."""
    return {
        index: run_experiment(cfg_s, seq_s)
        for index, cfg_s, seq_s in plan_runs(config, seq)
    }


def _up_counts(setting, value) -> tuple[int, int]:
    """(n_up, n) of one setting: given as such a pair of integers, or counted
    from 1-d bool outcomes or an object with an `outcome_up` attribute."""
    if isinstance(value, tuple):
        try:
            n_up, n = map(operator.index, value)
        except (TypeError, ValueError):
            raise ValueError(f"setting {setting}: {value!r} is not an integer pair") from None
        if not 0 <= n_up <= n:
            raise ValueError(f"setting {setting}: up count {n_up} is not within [0, {n}]")
        return n_up, n
    up = np.asarray(getattr(value, "outcome_up", value))
    if up.dtype != bool or up.ndim != 1:
        raise ValueError(f"setting {setting}: outcomes are not a 1-d bool array")
    return int(np.count_nonzero(up)), len(up)


def estimate_ptm(outcomes_by_setting) -> np.ndarray:
    """Pauli transfer matrix by least-squares linear inversion.

    `outcomes_by_setting` maps the plan index to its up/down outcomes: an
    (n_up, n) tuple of integer counts, a 1-d bool array or an object with an
    `outcome_up` attribute.  For measurement axis j the model
    <a_j> = t_j + T_j . r_k is solved over the four prepared Bloch vectors
    r_k; the estimate is unbiased for the true channel in the infinite-shot
    limit.
    """
    plan = tomography_plan()
    stray = sorted(set(outcomes_by_setting) - {s.index for s in plan})
    if stray:
        raise ValueError(f"settings outside the {len(plan)}-setting plan: {stray}")
    counts = {k: _up_counts(k, v) for k, v in outcomes_by_setting.items()}
    missing = [s.label for s in plan if counts.get(s.index, (0, 0))[1] == 0]
    if missing:
        raise IncompleteDataError(f"settings without records: {missing}")

    # the plan runs preparations in the outer loop and axes in the inner one
    design = np.array([[1.0, *bloch] for _, bloch in _PREPARATIONS.values()])
    means = np.array([n_up / n for n_up, n in (counts[s.index] for s in plan)])
    measured = (2.0 * means - 1.0).reshape(len(_PREPARATIONS), len(_MEASUREMENTS))

    coeff, *_ = np.linalg.lstsq(design, measured, rcond=None)

    ptm = np.zeros((4, 4))
    ptm[0, 0] = 1.0
    ptm[1:, 0] = coeff[0]  # translation
    ptm[1:, 1:] = coeff[1:].T  # Bloch block
    return ptm


# ---------------------------------------------------------------------------
# representation changes
# ---------------------------------------------------------------------------

def _build_basis_change() -> tuple[np.ndarray, np.ndarray]:
    """16x16 map L with vec(T) = L vec(chi), and its inverse: column (m, n)
    is the transfer matrix of rho -> P_m rho P_n."""
    l = np.stack([pauli_transfer(pm, pn).ravel() for pm in PAULIS for pn in PAULIS], 1)
    return l, np.linalg.inv(l)


_L_CHI_TO_PTM, _L_PTM_TO_CHI = _build_basis_change()

# columns (I (x) P_m) |sum_i i,i>: the congruence between chi and the Choi
# matrix (input factor first)
_V_CHOI = np.stack([np.kron(ID2, p) @ np.array([1.0, 0.0, 0.0, 1.0]) for p in PAULIS], 1)


def chi_to_ptm(chi) -> np.ndarray:
    """Exact linear basis change from the process matrix to the PTM."""
    chi = np.asarray(chi, dtype=complex)
    t = _L_CHI_TO_PTM @ chi.reshape(-1)
    return t.real.reshape(4, 4)


def ptm_to_chi(ptm) -> np.ndarray:
    """Exact linear basis change from the PTM to the process matrix."""
    ptm = np.asarray(ptm, dtype=float)
    chi = (_L_PTM_TO_CHI @ ptm.astype(complex).reshape(-1)).reshape(4, 4)
    return 0.5 * (chi + chi.conj().T)


def chi_to_choi(chi) -> np.ndarray:
    return _V_CHOI @ np.asarray(chi, dtype=complex) @ _V_CHOI.conj().T


def choi_to_chi(choi) -> np.ndarray:
    return _V_CHOI.conj().T @ np.asarray(choi, dtype=complex) @ _V_CHOI / 4.0


def _trace_out_output(choi: np.ndarray) -> np.ndarray:
    """Partial trace over the output factor of a (input x output) Choi."""
    return np.trace(choi.reshape(2, 2, 2, 2), axis1=1, axis2=3)


def _project_trace_preserving(chi: np.ndarray) -> np.ndarray:
    """Frobenius-orthogonal projection onto trace-preserving processes."""
    choi = chi_to_choi(chi)
    delta = _trace_out_output(choi) - np.eye(2)
    choi = choi - np.kron(delta, ID2) / 2.0
    return choi_to_chi(choi)


def _project_psd(chi: np.ndarray) -> np.ndarray:
    herm = 0.5 * (chi + chi.conj().T)
    evals, evecs = np.linalg.eigh(herm)
    evals = np.clip(evals, 0.0, None)
    return (evecs * evals) @ evecs.conj().T


def project_cptp(
    chi_raw, max_iter: int = 1000, tol: float = 1e-9
) -> np.ndarray:
    """Physical process matrix by alternating projection.

    Alternates eigenvalue truncation at zero (projection onto the positive
    cone) with the orthogonal projection onto trace-preserving maps, which
    also renormalizes the trace to one, until the iterate moves less than
    `tol` in Frobenius norm.  Both steps are non-expansive toward every
    physical channel, so the distance to the true channel never grows.
    Physical inputs are fixed points.  Raises CPTPConvergenceError with
    diagnostics after `max_iter` sweeps.
    """
    chi = 0.5 * (np.asarray(chi_raw, dtype=complex) + np.asarray(chi_raw).conj().T)
    delta = np.inf
    for _ in range(max_iter):
        prev = chi
        chi = _project_trace_preserving(_project_psd(chi))
        delta = np.linalg.norm(chi - prev)
        if delta <= tol:
            return chi
    tp_residual = np.linalg.norm(
        _trace_out_output(chi_to_choi(chi)) - np.eye(2)
    )
    raise CPTPConvergenceError(max_iter, float(delta), float(tp_residual))


def identity_overlap(chi) -> float:
    """The II element of the process matrix: overlap with the identity."""
    return float(np.asarray(chi)[0, 0].real)


# ---------------------------------------------------------------------------
# geometry of the reconstructed channel
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlochEllipsoid:
    """Image of the pure-state sphere: center, semi-axes (descending) and
    the orthonormal principal directions (as columns)."""

    center: np.ndarray
    semi_axes: np.ndarray
    principal_directions: np.ndarray


def bloch_ellipsoid(ptm) -> BlochEllipsoid:
    """Singular-value geometry of the Bloch block of a transfer matrix."""
    ptm = np.asarray(ptm, dtype=float)
    u, s, _ = np.linalg.svd(ptm[1:, 1:])
    return BlochEllipsoid(center=ptm[1:, 0].copy(), semi_axes=s, principal_directions=u)


# ---------------------------------------------------------------------------
# fringe fitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FringeFit:
    """offset + amplitude * cos(m*phi + phase) fit of a binned fringe."""

    offset: float
    amplitude: float
    phase: float
    harmonic: int
    contrast: float
    residual: float


def _phase_edges(n_bins: int) -> np.ndarray:
    return np.linspace(0.0, 2.0 * math.pi, n_bins + 1)


def _phase_bin(phi, n_bins: int) -> np.ndarray:
    """The `np.digitize` bin over `_phase_edges` of each phi wrapped into
    [0, 2 pi), with 2 pi and NaN in the last bin: floor(phi * n_bins / 2 pi)
    is at most one bin off, and one comparison with each neighbouring edge
    corrects it."""
    phi = np.asarray(phi, dtype=float)
    if not (phi.min(initial=0.0) >= 0.0 and phi.max(initial=0.0) < 2.0 * math.pi):
        phi = np.mod(phi, 2.0 * math.pi)  # fmod is the identity on [0, 2 pi)
    edges = _phase_edges(n_bins)
    edges[-1] = np.inf  # keeps 2 pi, where a tiny negative phi wraps, in the last bin
    idx = np.floor(phi * (n_bins / (2.0 * math.pi)))
    idx = np.fmin(idx, n_bins - 1).astype(np.intp)
    idx -= phi < edges[idx]
    idx += phi >= edges[idx + 1]
    return idx


def _fringe_table(counts: np.ndarray, ups: np.ndarray) -> np.ndarray:
    """Rows of (bin center, ups / counts, counts) over the phase bins; the
    ratio is NaN in an empty bin."""
    edges = _phase_edges(len(counts))
    centers = 0.5 * (edges[:-1] + edges[1:])
    counts, ups = np.asarray(counts, dtype=float), np.asarray(ups, dtype=float)
    with np.errstate(invalid="ignore"):
        p = np.where(counts > 0, ups / np.maximum(counts, 1.0), np.nan)
    return np.column_stack([centers, p, counts])


def _exact_sum(a: np.ndarray) -> int:
    """Sum of non-negative int64 values as a Python int: the high and low
    32-bit halves are summed apart, so for fewer than 2^31 values no int64
    partial sum can wrap."""
    a = np.asarray(a, dtype=np.int64)
    return (int(np.sum(a >> 32)) << 32) + int(np.sum(a & 0xFFFFFFFF))


@dataclass(frozen=True, eq=False)
class ShotCounts:
    """The sufficient statistics of a set of shots for every analysis.

    `n[branch, bin, outcome]` counts shots by recorded branch (0 without a
    scatter block, 1 = V, 2 = H), `_phase_bin` phase bin of phi_tac and
    outcome (0 down, 1 up); `attempts` is the exact sum of n_attempts over
    the heralded (branch > 0) shots.  Counts of disjoint shot sets add.
    """

    n: np.ndarray
    attempts: int

    @classmethod
    def of(cls, shots, n_bins: int) -> "ShotCounts":
        """Counts of `shots`: any object with branch, phi_tac, outcome_up and
        n_attempts columns, such as an engine ShotFrame."""
        if n_bins < 1:
            raise ValueError(f"n_bins must be >= 1, got {n_bins!r}")
        branch = np.asarray(shots.branch, dtype=np.int64)
        cell = (branch * n_bins + _phase_bin(shots.phi_tac, n_bins)) * 2
        cell += np.asarray(shots.outcome_up, dtype=bool)
        n = np.bincount(cell, minlength=3 * n_bins * 2).reshape(3, n_bins, 2)
        return cls(n, _exact_sum(shots.n_attempts[branch > 0]))

    def __add__(self, other: "ShotCounts") -> "ShotCounts":
        return ShotCounts(self.n + other.n, self.attempts + other.attempts)

    def up_counts(self, branches) -> tuple[int, int]:
        """(n_up, n) over the shots of the given branches."""
        n = self.n[list(branches)]
        return int(n[..., 1].sum()), int(n.sum())

    def fringe(self, branch: int) -> np.ndarray:
        """Rows of (bin center, P(up), count) over the shots of one branch."""
        n = self.n[branch]
        return _fringe_table(n.sum(axis=1), n[:, 1])

    def branch_fringe(self) -> np.ndarray:
        """Rows of (bin center, P(branch 1), count) over the heralded shots."""
        n = self.n[1:].sum(axis=2)
        return _fringe_table(n.sum(axis=0), n[0])


def fit_fringe(bins, harmonic: int) -> FringeFit:
    """Weighted linear least squares of offset + a*cos(m phi) + b*sin(m phi).

    `bins` holds rows of (phi center, P(up), count); bins with zero counts
    are ignored.  amplitude = hypot(a, b) and phase = atan2(-b, a), so the
    fitted model reads offset + amplitude * cos(m*phi + phase).  Noiseless
    synthetic data is recovered exactly.

    The model is sampled at the bin centres, not averaged over the bins.
    When a bin's phases spread evenly over its width 2 pi / N (N bins), its
    P(up) is the bin average, whose cosine is damped by sinc(m pi / N) =
    sin(m pi / N) / (m pi / N): amplitude and contrast then read low by that
    factor (0.984 at m = 2 and N = 20), while offset and phase do not.
    """
    if harmonic not in (1, 2):
        raise ValueError(f"harmonic must be 1 or 2, got {harmonic!r}")
    bins = np.asarray(bins, dtype=float)
    if bins.ndim != 2 or bins.shape[1] != 3:
        raise ValueError("bins must be rows of (phi, p_up, count)")
    live = bins[:, 2] > 0
    if np.count_nonzero(live) < 3:
        raise UnderdeterminedFitError(
            f"{np.count_nonzero(live)} populated bins cannot determine 3 parameters"
        )
    phi, p, w = bins[live, 0], bins[live, 1], bins[live, 2]
    design = np.column_stack(
        [np.ones_like(phi), np.cos(harmonic * phi), np.sin(harmonic * phi)]
    )
    sw = np.sqrt(w)
    coeff, *_ = np.linalg.lstsq(design * sw[:, None], p * sw, rcond=None)
    offset, a, b = coeff
    amplitude = float(np.hypot(a, b))
    return FringeFit(
        offset=float(offset),
        amplitude=amplitude,
        phase=float(np.arctan2(-b, a)),
        harmonic=harmonic,
        contrast=float(amplitude / offset) if offset > 1e-9 else 0.0,
        residual=float(np.sqrt(np.mean((design @ coeff - p) ** 2))),
    )


# ---------------------------------------------------------------------------
# end-to-end reconstruction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TomographyResult:
    ptm_raw: np.ndarray
    chi_raw: np.ndarray
    chi: np.ndarray
    ptm: np.ndarray
    identity_overlap: float
    ellipsoid: BlochEllipsoid


def reconstruct(outcomes_by_setting) -> TomographyResult:
    """Linear inversion followed by CPTP projection of the outcomes that
    `estimate_ptm` takes; reported overlap and ellipsoid refer to the
    projected (physical) channel."""
    ptm_raw = estimate_ptm(outcomes_by_setting)
    chi_raw = ptm_to_chi(ptm_raw)
    chi = project_cptp(chi_raw)
    ptm = chi_to_ptm(chi)
    return TomographyResult(
        ptm_raw, chi_raw, chi, ptm, identity_overlap(chi), bloch_ellipsoid(ptm)
    )

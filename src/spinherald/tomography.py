"""Single-qubit process tomography and fringe analysis.

The reconstruction pipeline is: measured up/down outcomes per (preparation,
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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import PREPARATIONS, RotationSpec, X_AXIS, Y_AXIS
from .spinalg import ID2, PAULIS, pauli_transfer

__all__ = [
    "IncompleteDataError",
    "UnderdeterminedFitError",
    "CPTPConvergenceError",
    "TomographySetting",
    "BlochEllipsoid",
    "FringeFit",
    "TomographyResult",
    "tomography_plan",
    "estimate_ptm",
    "ptm_to_chi",
    "chi_to_ptm",
    "chi_to_choi",
    "choi_to_chi",
    "project_cptp",
    "identity_overlap",
    "bloch_ellipsoid",
    "binned_fringe",
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


_PREP_BLOCH = {
    "up": (0.0, 0.0, 1.0),
    "down": (0.0, 0.0, -1.0),
    "plus_x": (1.0, 0.0, 0.0),
    "plus_y": (0.0, 1.0, 0.0),
}

# analysis pulse rotates the measured axis onto +z
_MEASUREMENTS = {
    "x": (RotationSpec(Y_AXIS, -math.pi / 2), (1.0, 0.0, 0.0)),
    "y": (RotationSpec(X_AXIS, math.pi / 2), (0.0, 1.0, 0.0)),
    "z": (None, (0.0, 0.0, 1.0)),
}


def tomography_plan() -> list[TomographySetting]:
    """The informationally complete 12-setting plan: preparations
    {up, down, plus_x, plus_y} x measurement axes {x, y, z}."""
    plan = []
    for prep_label, prep in PREPARATIONS.items():
        for axis_label, (analysis, axis_bloch) in _MEASUREMENTS.items():
            plan.append(
                TomographySetting(
                    index=len(plan),
                    prep_label=prep_label,
                    prep=prep,
                    prep_bloch=_PREP_BLOCH[prep_label],
                    axis_label=axis_label,
                    analysis=analysis,
                    axis_bloch=axis_bloch,
                )
            )
    return plan


def _setting_outcomes(value) -> np.ndarray:
    up = getattr(value, "outcome_up", value)
    return np.asarray(up, dtype=bool)


def estimate_ptm(outcomes_by_setting) -> np.ndarray:
    """Pauli transfer matrix by least-squares linear inversion.

    `outcomes_by_setting` maps the plan index to up/down outcomes (boolean
    arrays or objects with an `outcome_up` attribute).  For measurement axis
    j the model <a_j> = t_j + T_j . r_k is solved over the four prepared
    Bloch vectors r_k; the estimate is unbiased for the true channel in the
    infinite-shot limit.
    """
    plan = tomography_plan()
    missing = [
        s.label
        for s in plan
        if s.index not in outcomes_by_setting
        or len(_setting_outcomes(outcomes_by_setting[s.index])) == 0
    ]
    if missing:
        raise IncompleteDataError(f"settings without records: {missing}")

    preps = list(PREPARATIONS)
    axes = list(_MEASUREMENTS)
    setting = {(s.prep_label, s.axis_label): s.index for s in plan}

    design = np.array([[1.0, *(_PREP_BLOCH[p])] for p in preps])
    measured = np.empty((len(preps), len(axes)))
    for i, p in enumerate(preps):
        for j, a in enumerate(axes):
            up = _setting_outcomes(outcomes_by_setting[setting[(p, a)]])
            measured[i, j] = 2.0 * np.mean(up) - 1.0

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
_V_CHOI = np.zeros((4, 4), dtype=complex)
for _m, _p in enumerate(PAULIS):
    _V_CHOI[:, _m] = np.kron(ID2, _p) @ np.array([1.0, 0.0, 0.0, 1.0])


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


def binned_fringe(phi, outcome_up, n_bins: int = 20) -> np.ndarray:
    """Bin outcomes by phase: rows of (bin center, P(up), count)."""
    phi = np.mod(np.asarray(phi, dtype=float), 2.0 * math.pi)
    up = np.asarray(outcome_up, dtype=float)
    edges = np.linspace(0.0, 2.0 * math.pi, n_bins + 1)
    idx = np.clip(np.digitize(phi, edges) - 1, 0, n_bins - 1)
    counts = np.bincount(idx, minlength=n_bins).astype(float)
    ups = np.bincount(idx, weights=up, minlength=n_bins)
    centers = 0.5 * (edges[:-1] + edges[1:])
    with np.errstate(invalid="ignore"):
        p = np.where(counts > 0, ups / np.maximum(counts, 1.0), np.nan)
    return np.column_stack([centers, p, counts])


def fit_fringe(bins, harmonic: int) -> FringeFit:
    """Weighted linear least squares of offset + a*cos(m phi) + b*sin(m phi).

    `bins` holds rows of (phi center, P(up), count); bins with zero counts
    are ignored.  amplitude = hypot(a, b) and phase = atan2(-b, a), so the
    fitted model reads offset + amplitude * cos(m*phi + phase).  Noiseless
    synthetic data is recovered exactly.
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
    phase = float(np.arctan2(-b, a))
    contrast = float(amplitude / offset) if offset > 1e-9 else 0.0
    residual = float(np.sqrt(np.mean((design @ coeff - p) ** 2)))
    return FringeFit(
        offset=float(offset),
        amplitude=amplitude,
        phase=phase,
        harmonic=harmonic,
        contrast=contrast,
        residual=residual,
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
    """Linear inversion followed by CPTP projection; reported overlap and
    ellipsoid refer to the projected (physical) channel."""
    ptm_raw = estimate_ptm(outcomes_by_setting)
    chi_raw = ptm_to_chi(ptm_raw)
    chi = project_cptp(chi_raw)
    ptm = chi_to_ptm(chi)
    return TomographyResult(
        ptm_raw=ptm_raw,
        chi_raw=chi_raw,
        chi=chi,
        ptm=ptm,
        identity_overlap=identity_overlap(chi),
        ellipsoid=bloch_ellipsoid(ptm),
    )

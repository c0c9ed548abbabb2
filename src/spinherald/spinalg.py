"""Exact single-qubit algebra: Pauli projections, rotations, rotating-frame
conjugation, Bloch conversions, Kraus channels and fidelities.

Operators are plain 2x2 complex ndarrays; pure states are 2-vectors and mixed
states are 2x2 density matrices.  Every function is pure and never mutates its
arguments, so the whole module is safe for unrestricted concurrent use.

Conventions
-----------
basis     |up> = (1, 0), |down> = (0, 1), sigma_z |up> = +|up>
rotation  rotation(axis, angle) = exp(-i * angle/2 * axis.sigma), which acts
          on the Bloch sphere as a right-handed rotation by `angle` about
          `axis`.
frame     rotating_frame(op, phi) = Rz(phi) @ op @ Rz(phi)^dag; an equatorial
          operator axis is carried around +z by phi.  With phi the Larmor
          phase accumulated up to the scattering time this reproduces the
          amplitudes beta*exp(-i*phi)|up> + alpha*exp(+i*phi)|down> of the
          spin-flipping scattering branch.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "ID2",
    "PAULIS",
    "KET_UP",
    "KET_DOWN",
    "ContractViolationError",
    "pauli_projection",
    "rotation",
    "rotation_bloch",
    "rotating_frame",
    "pauli_transfer",
    "to_bloch",
    "from_bloch",
    "density",
    "unit_state",
    "apply_kraus",
    "state_fidelity",
    "validate_density_matrix",
    "equal_up_to_phase",
]

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
ID2 = np.eye(2, dtype=complex)
PAULIS = (ID2, SIGMA_X, SIGMA_Y, SIGMA_Z)

KET_UP = np.array([1.0, 0.0], dtype=complex)
KET_DOWN = np.array([0.0, 1.0], dtype=complex)

_UNIT_ATOL = 1e-9


class ContractViolationError(ValueError):
    """A set of Kraus operators does not resolve the identity."""


def _as_unit_axis(axis) -> np.ndarray:
    axis = np.asarray(axis, dtype=float)
    if axis.shape != (3,):
        raise ValueError(f"axis must be a 3-vector, got shape {axis.shape}")
    norm = np.linalg.norm(axis)
    if abs(norm - 1.0) > _UNIT_ATOL:
        raise ValueError(f"axis must have unit norm, got |axis| = {norm!r}")
    return axis


def pauli_projection(axis) -> np.ndarray:
    """Projection of the Pauli vector onto a real unit axis, axis . sigma.

    The result is Hermitian, unitary and squares to the identity; it equals
    exp(i*pi/2 * axis.sigma) up to a global phase i, i.e. a pi rotation of
    the Bloch sphere about `axis`.
    """
    axis = _as_unit_axis(axis)
    return axis[0] * SIGMA_X + axis[1] * SIGMA_Y + axis[2] * SIGMA_Z


def rotation(axis, angle: float) -> np.ndarray:
    """Spin rotation exp(-i*angle/2 * axis.sigma) about a real unit axis."""
    half = 0.5 * angle
    return np.cos(half) * ID2 - 1.0j * np.sin(half) * pauli_projection(axis)


def rotation_bloch(axis, angle: float) -> np.ndarray:
    """3x3 right-handed Bloch-sphere rotation matrix of rotation(axis, angle)."""
    k = _as_unit_axis(axis)
    c, s = np.cos(angle), np.sin(angle)
    kx = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
    return c * np.eye(3) + s * kx + (1.0 - c) * np.outer(k, k)


def rotating_frame(op, phase: float) -> np.ndarray:
    """Conjugate an operator into the frame precessing about +z by `phase`.

    rotating_frame(op, phi) = Rz(phi) @ op @ Rz(phi)^dag with
    Rz(phi) = exp(-i*phi/2 * sigma_z).  sigma_z and the identity are fixed
    points; i*sigma_x maps to i*(cos(phi)*sigma_x + sin(phi)*sigma_y).
    """
    op = np.asarray(op, dtype=complex)
    rz = rotation((0.0, 0.0, 1.0), phase)
    return rz @ op @ rz.conj().T


def pauli_transfer(a, b) -> np.ndarray:
    """Complex 4x4 matrix T[i, j] = tr(P_i a P_j b^dag) / 2 over P = (I, X, Y, Z).

    pauli_transfer(op, op).real is the Pauli transfer matrix of
    rho -> op rho op^dag.
    """
    b_dag = np.asarray(b, dtype=complex).conj().T
    return np.array(
        [[0.5 * np.trace(p @ a @ q @ b_dag) for q in PAULIS] for p in PAULIS]
    )


def unit_state(psi) -> np.ndarray:
    """A state vector scaled to unit norm, as complex; ValueError unless its
    norm is finite and non-zero."""
    psi = np.asarray(psi, dtype=complex)
    norm = float(np.linalg.norm(psi))
    if not (np.isfinite(norm) and norm > 0.0):
        raise ValueError(f"state must have a finite, non-zero norm, got {norm!r}")
    return psi / norm


def density(psi) -> np.ndarray:
    """Density matrix |psi><psi| of a pure state (normalized first)."""
    psi = unit_state(psi)
    return np.outer(psi, psi.conj())


def validate_density_matrix(rho, atol: float = 1e-9) -> np.ndarray:
    """Check Hermiticity, unit trace and positivity; return rho as complex."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {rho.shape}")
    if not np.allclose(rho, rho.conj().T, atol=atol):
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > atol:
        raise ValueError(f"density matrix trace is {np.trace(rho)!r}, expected 1")
    if np.linalg.eigvalsh(rho).min() < -1e-8:
        raise ValueError("density matrix has a negative eigenvalue")
    return rho


def to_bloch(rho) -> np.ndarray:
    """Bloch vector (x, y, z) of a 2x2 density matrix."""
    rho = validate_density_matrix(rho)
    return np.array([np.trace(rho @ p).real for p in PAULIS[1:]])


def from_bloch(v) -> np.ndarray:
    """Density matrix (I + v.sigma)/2 of a Bloch vector inside the unit ball."""
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"Bloch vector must be a 3-vector, got shape {v.shape}")
    if np.linalg.norm(v) > 1.0 + 1e-10:
        raise ValueError(f"Bloch vector lies outside the unit ball: |v| = {np.linalg.norm(v)!r}")
    return 0.5 * (ID2 + v[0] * SIGMA_X + v[1] * SIGMA_Y + v[2] * SIGMA_Z)


def apply_kraus(rho, operators) -> np.ndarray:
    """Apply the channel rho -> sum_i K_i rho K_i^dag.

    The operators must resolve the identity, sum_i K_i^dag K_i = I, within
    1e-9; otherwise a ContractViolationError is raised.
    """
    rho = np.asarray(rho, dtype=complex)
    ops = [np.asarray(k, dtype=complex) for k in operators]
    total = sum(k.conj().T @ k for k in ops)
    if not np.allclose(total, np.eye(rho.shape[0]), atol=1e-9):
        raise ContractViolationError(
            "Kraus operators are not trace preserving: sum K^dag K != I"
        )
    return sum(k @ rho @ k.conj().T for k in ops)


def state_fidelity(rho, psi) -> float:
    """Overlap <psi|rho|psi> of a density matrix with a pure reference state."""
    rho = np.asarray(rho, dtype=complex)
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (rho.shape[0],):
        raise ValueError(
            f"dimension mismatch: state has shape {psi.shape}, matrix {rho.shape}"
        )
    psi = unit_state(psi)
    return float(np.real(psi.conj() @ rho @ psi))


def equal_up_to_phase(a, b, atol: float = 1e-10) -> bool:
    """Whether min over phi of ||exp(i*phi)*a - b||_F vanishes within atol."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    dist_sq = (
        np.linalg.norm(a) ** 2
        + np.linalg.norm(b) ** 2
        - 2.0 * abs(np.trace(a.conj().T @ b))
    )
    return dist_sq < atol

"""Physics of a single polarization-resolved photon scattering event.

Geometry: the quantization field points along +z, the excitation laser runs
along +y and is linearly polarized along z (pi light), and photons emitted
along +x are analysed in a basis of two orthonormal (possibly elliptical)
polarization vectors lying in the transverse (z, y) plane.

Absorbing a photon of polarization lambda_L and detecting the emitted photon
in analysis vector lambda_i rotates the spin with

    M_i = (1/sqrt 2) * R_{lambda_i} R_{lambda_L},   R_lambda = lambda . sigma.

For linear analysis vectors each sqrt(2)*M_i is unitary (a pi rotation about
lambda_i composed with a pi rotation about lambda_L), so the heralded kick is
exactly invertible.  For elliptical vectors the branch operators lose rank
and the kick becomes a projective, irreversible measurement.  In the frame
co-rotating with the Larmor precession both factors are conjugated by
Rz(phase), which carries the equivalent rotation axes around the equator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spinalg import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    pauli_projection,
    rotating_frame,
    unit_state,
    validate_density_matrix,
)

__all__ = [
    "DEFAULT_EXCITATION",
    "PolarizationBasis",
    "ScatterOutcome",
    "branch_operators",
    "branch_operators_from_vectors",
    "scatter",
    "joint_state",
    "unconditioned_channel",
    "entanglement_fidelity",
]

# pi-polarized excitation along the quantization axis
DEFAULT_EXCITATION = np.array([0.0, 0.0, 1.0])

# Born-rule probabilities below this are reported with an undefined post-state
# instead of dividing by ~0.
PROBABILITY_FLOOR = 1e-14


@dataclass(frozen=True)
class PolarizationBasis:
    """Analysis basis for photons detected along +x.

    theta rotates the linear pair inside the (z, y) plane: at theta = 0 the
    first vector is V = z and the second is H = y.  ellipticity interpolates
    from linear (0, reversible spin kicks) to circular (+-pi/4, projective
    kicks); the vector pair is

        lambda_1 = cos(eps) v1 + i sin(eps) v2
        lambda_2 = cos(eps) v2 + i sin(eps) v1

    with v1, v2 the rotated linear pair.  The pair is orthonormal for every
    (theta, eps).
    """

    theta: float = 0.0
    ellipticity: float = 0.0

    def __post_init__(self):
        for name in ("theta", "ellipticity"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if abs(self.ellipticity) > np.pi / 4 + 1e-12:
            raise ValueError(
                f"ellipticity must lie in [-pi/4, pi/4], got {self.ellipticity!r}"
            )

    @property
    def is_linear(self) -> bool:
        return abs(self.ellipticity) < 1e-12

    def linear_pair(self) -> np.ndarray:
        """The rotated linear pair (v1, v2) as rows of a real (2, 3) array."""
        c, s = np.cos(self.theta), np.sin(self.theta)
        v1 = np.array([0.0, s, c])  # theta = 0: z
        v2 = np.array([0.0, c, -s])  # theta = 0: y
        return np.stack([v1, v2])

    def vectors(self) -> np.ndarray:
        """Analysis vectors as rows of a complex (2, 3) array."""
        v1, v2 = self.linear_pair()
        ce, se = np.cos(self.ellipticity), np.sin(self.ellipticity)
        return np.stack([ce * v1 + 1.0j * se * v2, ce * v2 + 1.0j * se * v1])


@dataclass(frozen=True)
class ScatterOutcome:
    """One heralded branch: index, Born probability, applied operator and
    normalized post-state (None when the probability is numerically zero)."""

    branch: int
    probability: float
    operator: np.ndarray
    post_state: np.ndarray | None


def _r_lambda(lam: np.ndarray) -> np.ndarray:
    """lambda . sigma for a (possibly complex) polarization vector."""
    return lam[0] * SIGMA_X + lam[1] * SIGMA_Y + lam[2] * SIGMA_Z


def branch_operators_from_vectors(vectors, excitation, phase: float) -> np.ndarray:
    """Branch operators for explicit analysis vectors; shape (2, 2, 2).

    Each operator is (1/sqrt 2) * Rz(phase) R_{lambda_i} R_{lambda_L}
    Rz(phase)^dag.  For any orthonormal vector pair the two operators satisfy
    sum_i M_i^dag M_i = I.
    """
    vectors = np.asarray(vectors, dtype=complex)
    r_l = pauli_projection(excitation)
    return np.stack(
        [rotating_frame(_r_lambda(lam) @ r_l, phase) / np.sqrt(2.0) for lam in vectors]
    )


def branch_operators(
    excitation=DEFAULT_EXCITATION,
    basis: PolarizationBasis = PolarizationBasis(),
    phase: float = 0.0,
) -> np.ndarray:
    """Branch operators M_1, M_2 of a heralded scattering event.

    At theta = 0 (linear): M_1 is proportional to the identity (the photon
    polarized along z leaves the spin alone) and M_2 to
    i*(cos(phase) sigma_x + sin(phase) sigma_y), a pi rotation about the
    precessing equatorial axis.
    """
    return branch_operators_from_vectors(basis.vectors(), excitation, phase)


def scatter(
    rho,
    excitation=DEFAULT_EXCITATION,
    basis: PolarizationBasis = PolarizationBasis(),
    phase: float = 0.0,
) -> tuple[ScatterOutcome, ScatterOutcome]:
    """Both heralded outcomes of one scattering event on a density matrix.

    Outcome i occurs with probability tr(M_i rho M_i^dag) and leaves the spin
    in M_i rho M_i^dag / p_i.  For a linear basis p_1 = p_2 = 1/2 for every
    input state.
    """
    rho = validate_density_matrix(rho)
    ops = branch_operators(excitation, basis, phase)
    outcomes = []
    for i, m in enumerate(ops):
        unnorm = m @ rho @ m.conj().T
        p = float(np.trace(unnorm).real)
        post = unnorm / p if p >= PROBABILITY_FLOOR else None
        outcomes.append(ScatterOutcome(i + 1, p, m, post))
    return outcomes[0], outcomes[1]


def joint_state(state_in, phase: float = 0.0) -> np.ndarray:
    """Ion-photon state after scattering in the H/V basis, as a 4-vector.

    Ordering is qubit (x) photon with photon basis (V, H); for an input
    alpha|up> + beta|down> the result is

        (1/sqrt 2) [ (alpha|up> + beta|down>) (x) |V>
                     + i (beta e^{-i phase}|up> + alpha e^{+i phase}|down>) (x) |H> ]
    """
    if not math.isfinite(phase):
        raise ValueError(f"phase must be finite, got {phase!r}")
    psi = unit_state(state_in)
    m_v, m_h = branch_operators(DEFAULT_EXCITATION, PolarizationBasis(), phase)
    e_v = np.array([1.0, 0.0], dtype=complex)
    e_h = np.array([0.0, 1.0], dtype=complex)
    return np.kron(m_v @ psi, e_v) + np.kron(m_h @ psi, e_h)


def unconditioned_channel(rho) -> np.ndarray:
    """Spin channel of an unobserved scattering event.

    Tracing out the photon and averaging the scattering phase over a full
    precession period gives

        rho -> rho/2 + (sigma_x rho sigma_x + sigma_y rho sigma_y)/4,

    which contracts the Bloch ball as (x, y, z) -> (x/2, y/2, 0).
    """
    rho = np.asarray(rho, dtype=complex)
    return 0.5 * rho + 0.25 * (SIGMA_X @ rho @ SIGMA_X + SIGMA_Y @ rho @ SIGMA_Y)


def entanglement_fidelity(rho_joint, state_in, phase: float = 0.0) -> float:
    """Overlap of a joint ion-photon density matrix with the ideal entangled
    state produced by scattering `state_in` at the given precession phase."""
    rho_joint = np.asarray(rho_joint, dtype=complex)
    if rho_joint.shape != (4, 4):
        raise ValueError(f"joint state must be 4x4, got shape {rho_joint.shape}")
    validate_density_matrix(rho_joint)
    ideal = joint_state(state_in, phase)
    return float(np.real(ideal.conj() @ rho_joint @ ideal))

import numpy as np
import pytest

from spinherald.scattering import (
    PolarizationBasis,
    branch_operators,
    entanglement_fidelity,
    joint_state,
    scatter,
    unconditioned_channel,
)
from spinherald.spinalg import (
    ID2,
    KET_DOWN,
    KET_UP,
    SIGMA_X,
    SIGMA_Y,
    density,
    equal_up_to_phase,
    from_bloch,
    pauli_projection,
    rotation,
    rotation_bloch,
    to_bloch,
)


def random_state(rng):
    psi = rng.normal(size=2) + 1j * rng.normal(size=2)
    return psi / np.linalg.norm(psi)


def sigma_phi(phi):
    return np.cos(phi) * SIGMA_X + np.sin(phi) * SIGMA_Y


# ---------------------------------------------------------------------------
# analysis bases
# ---------------------------------------------------------------------------


def test_vectors_orthonormal_and_transverse():
    rng = np.random.default_rng(0)
    for _ in range(100):
        basis = PolarizationBasis(
            rng.uniform(-np.pi, np.pi), rng.uniform(-np.pi / 4, np.pi / 4)
        )
        v = basis.vectors()
        gram = v.conj() @ v.T
        assert np.allclose(gram, np.eye(2), atol=1e-12)
        assert np.allclose(v[:, 0], 0.0)  # transverse to the detection axis x


def test_hv_basis_vectors():
    v = PolarizationBasis(0.0, 0.0).vectors()
    assert np.allclose(v[0], (0, 0, 1), atol=1e-12)  # V = z
    assert np.allclose(v[1], (0, 1, 0), atol=1e-12)  # H = y


def test_ellipticity_bounds():
    with pytest.raises(ValueError):
        PolarizationBasis(0.0, 1.0)
    for value in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="theta"):
            PolarizationBasis(value, 0.0)
        with pytest.raises(ValueError, match="ellipticity"):
            PolarizationBasis(0.0, value)


# ---------------------------------------------------------------------------
# branch operators
# ---------------------------------------------------------------------------


def test_hv_branches_identity_and_rotating_pi():
    for phi in (0.0, 0.7, 2.9, -1.3):
        m_v, m_h = branch_operators(phase=phi)
        assert np.allclose(m_v * np.sqrt(2), ID2, atol=1e-12)
        assert np.allclose(m_h * np.sqrt(2), 1j * sigma_phi(phi), atol=1e-12)


def test_45_branches_are_half_pi_rotations():
    basis = PolarizationBasis(np.pi / 4, 0.0)
    m1, m2 = branch_operators(basis=basis, phase=0.0)
    plus = rotation((1, 0, 0), -np.pi / 2)  # exp(+i pi/4 sigma_x)
    minus = rotation((1, 0, 0), np.pi / 2)  # exp(-i pi/4 sigma_x)
    assert equal_up_to_phase(np.sqrt(2) * m1, plus, atol=1e-10)
    assert equal_up_to_phase(np.sqrt(2) * m2, minus, atol=1e-10)


def test_circular_branches_are_rank_one():
    basis = PolarizationBasis(0.0, np.pi / 4)
    for m in branch_operators(basis=basis):
        assert abs(np.linalg.det(m)) < 1e-12


def test_measurement_completeness_random():
    rng = np.random.default_rng(1)
    for _ in range(200):
        basis = PolarizationBasis(
            rng.uniform(-np.pi, np.pi), rng.uniform(-np.pi / 4, np.pi / 4)
        )
        m1, m2 = branch_operators(basis=basis, phase=rng.uniform(0, 2 * np.pi))
        total = m1.conj().T @ m1 + m2.conj().T @ m2
        assert np.allclose(total, ID2, atol=1e-10)


def test_linear_branches_unitary_elliptical_singular():
    rng = np.random.default_rng(2)
    for _ in range(20):
        theta = rng.uniform(-np.pi, np.pi)
        for m in branch_operators(basis=PolarizationBasis(theta, 0.0)):
            u = np.sqrt(2) * m
            assert np.allclose(u.conj().T @ u, ID2, atol=1e-10)
        for m in branch_operators(basis=PolarizationBasis(theta, np.pi / 4)):
            assert abs(np.linalg.det(m)) < 1e-10


def test_basis_covariance_under_frame_rotation():
    # rotating the analysis frame by delta in the (z, y) plane conjugates
    # the emission operators by the matching spin rotation about x
    rng = np.random.default_rng(3)
    for _ in range(50):
        theta, delta = rng.uniform(-np.pi, np.pi, size=2)
        base = PolarizationBasis(theta, 0.0).vectors().real
        rotated = PolarizationBasis(theta + delta, 0.0).vectors().real
        rot3 = rotation_bloch((1, 0, 0), -delta)
        assert np.allclose(rotated, base @ rot3.T, atol=1e-10)
        u = rotation((1, 0, 0), -delta)
        for lam_r, lam in zip(rotated, base):
            assert np.allclose(
                pauli_projection(lam_r),
                u @ pauli_projection(lam) @ u.conj().T,
                atol=1e-10,
            )


# ---------------------------------------------------------------------------
# scatter
# ---------------------------------------------------------------------------


def test_linear_scatter_has_equal_probabilities():
    rng = np.random.default_rng(4)
    for _ in range(20):
        rho = density(random_state(rng))
        basis = PolarizationBasis(rng.uniform(-np.pi, np.pi), 0.0)
        out1, out2 = scatter(rho, basis=basis, phase=rng.uniform(0, 2 * np.pi))
        assert out1.probability == pytest.approx(0.5, abs=1e-12)
        assert out2.probability == pytest.approx(0.5, abs=1e-12)


def test_circular_scatter_projects_onto_x_eigenstates():
    # explicit rank-1 Born oracle at theta = 0, ellipticity = +pi/4, phase 0:
    # M_1 = (I - sx)/2 and M_2 = i (I + sx)/2
    m1 = (ID2 - SIGMA_X) / 2
    m2 = 1j * (ID2 + SIGMA_X) / 2
    rho = density(KET_UP)
    out1, out2 = scatter(rho, basis=PolarizationBasis(0.0, np.pi / 4), phase=0.0)
    for out, m in ((out1, m1), (out2, m2)):
        unnorm = m @ rho @ m.conj().T
        p = np.trace(unnorm).real
        assert out.probability == pytest.approx(p, abs=1e-12)
        assert np.allclose(out.post_state, unnorm / p, atol=1e-12)
    # post-states are the projector eigenstates +-x
    assert np.allclose(to_bloch(out1.post_state), (-1, 0, 0), atol=1e-12)
    assert np.allclose(to_bloch(out2.post_state), (1, 0, 0), atol=1e-12)


def test_hv_raman_branch_swaps_poles():
    for phi in (0.0, 1.1, 4.4):
        _, raman = scatter(density(KET_UP), phase=phi)
        assert np.allclose(raman.post_state, density(KET_DOWN), atol=1e-12)


def test_zero_probability_branch_flagged_undefined():
    # |-x> is orthogonal to the branch-2 projector of the circular basis
    rho = from_bloch((-1, 0, 0))
    _, out2 = scatter(rho, basis=PolarizationBasis(0.0, np.pi / 4), phase=0.0)
    assert out2.probability < 1e-14
    assert out2.post_state is None


# ---------------------------------------------------------------------------
# joint state
# ---------------------------------------------------------------------------


def test_joint_state_of_up_is_maximally_entangled():
    psi = joint_state(KET_UP, 0.0)
    expected = np.array([1.0, 0.0, 0.0, 1.0j]) / np.sqrt(2)
    assert np.allclose(psi, expected, atol=1e-12)
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)


def test_joint_state_amplitudes():
    rng = np.random.default_rng(5)
    for _ in range(10):
        alpha, beta = random_state(rng)
        phase = rng.uniform(0, 2 * np.pi)
        psi = joint_state(np.array([alpha, beta]), phase)
        expected = np.array(
            [
                alpha,
                1j * beta * np.exp(-1j * phase),
                beta,
                1j * alpha * np.exp(1j * phase),
            ]
        ) / np.sqrt(2)
        assert np.allclose(psi, expected, atol=1e-12)


def test_joint_state_v_branch_returns_input():
    rng = np.random.default_rng(6)
    for _ in range(10):
        phi_in = random_state(rng)
        psi = joint_state(phi_in, rng.uniform(0, 2 * np.pi))
        v_block = psi.reshape(2, 2)[:, 0]  # photon V component
        v_block = v_block / np.linalg.norm(v_block)
        assert abs(np.vdot(v_block, phi_in)) == pytest.approx(1.0, abs=1e-12)


def test_joint_state_h_branch_fixes_x_eigenstate():
    plus_x = np.array([1.0, 1.0]) / np.sqrt(2)
    psi = joint_state(plus_x, 0.0)
    h_block = psi.reshape(2, 2)[:, 1]
    h_block = h_block / np.linalg.norm(h_block)
    assert abs(np.vdot(h_block, plus_x)) == pytest.approx(1.0, abs=1e-12)


def test_joint_state_traces_to_scatter_mixture():
    rng = np.random.default_rng(7)
    for _ in range(20):
        phi_in = random_state(rng)
        phase = rng.uniform(0, 2 * np.pi)
        psi = joint_state(phi_in, phase)
        rho_joint = np.outer(psi, psi.conj())
        reduced = np.trace(rho_joint.reshape(2, 2, 2, 2), axis1=1, axis2=3)
        out1, out2 = scatter(density(phi_in), phase=phase)
        mixture = out1.probability * out1.post_state + out2.probability * out2.post_state
        assert np.allclose(reduced, mixture, atol=1e-10)


# ---------------------------------------------------------------------------
# unconditioned channel
# ---------------------------------------------------------------------------


def test_unconditioned_channel_is_unital():
    assert np.allclose(unconditioned_channel(ID2 / 2), ID2 / 2, atol=1e-12)


def test_unconditioned_channel_phase_average_oracle():
    # average sigma_phi conjugation over the full period numerically
    rho = from_bloch((1, 0, 0))
    phis = np.linspace(0, 2 * np.pi, 4096, endpoint=False)
    avg = np.zeros((2, 2), dtype=complex)
    for phi in phis:
        avg += sigma_phi(phi) @ rho @ sigma_phi(phi)
    avg = 0.5 * rho + 0.5 * avg / len(phis)
    assert np.allclose(unconditioned_channel(rho), avg, atol=1e-8)
    assert np.allclose(to_bloch(unconditioned_channel(rho)), (0.5, 0, 0), atol=1e-12)


def test_unconditioned_channel_kills_poles():
    # oracle: equal mixture of +z (Rayleigh keeps) and -z (Raman flips)
    out = unconditioned_channel(density(KET_UP))
    mix = 0.5 * density(KET_UP) + 0.5 * density(KET_DOWN)
    assert np.allclose(out, mix, atol=1e-12)
    assert np.allclose(to_bloch(out), (0, 0, 0), atol=1e-12)


def test_unconditioned_channel_bloch_contraction():
    rng = np.random.default_rng(8)
    for _ in range(20):
        v = rng.normal(size=3)
        v *= rng.random() / np.linalg.norm(v)
        out = to_bloch(unconditioned_channel(from_bloch(v)))
        assert np.allclose(out, (v[0] / 2, v[1] / 2, 0.0), atol=1e-12)


# ---------------------------------------------------------------------------
# entanglement fidelity
# ---------------------------------------------------------------------------


def test_entanglement_fidelity_of_ideal_state():
    rng = np.random.default_rng(9)
    phi_in = random_state(rng)
    psi = joint_state(phi_in, 0.4)
    rho = np.outer(psi, psi.conj())
    assert entanglement_fidelity(rho, phi_in, 0.4) == pytest.approx(1.0, abs=1e-12)


def test_entanglement_fidelity_of_maximally_mixed():
    assert entanglement_fidelity(np.eye(4) / 4, KET_UP, 0.0) == pytest.approx(
        0.25, abs=1e-12
    )


def test_entanglement_fidelity_dimension_check():
    with pytest.raises(ValueError):
        entanglement_fidelity(np.eye(2) / 2, KET_UP, 0.0)

import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from spinherald.spinalg import (
    ID2,
    KET_DOWN,
    KET_UP,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    ContractViolationError,
    apply_kraus,
    density,
    equal_up_to_phase,
    from_bloch,
    pauli_projection,
    rotating_frame,
    rotation,
    rotation_bloch,
    state_fidelity,
    to_bloch,
    unit_state,
)


def random_axis(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def random_state(rng):
    psi = rng.normal(size=2) + 1j * rng.normal(size=2)
    return psi / np.linalg.norm(psi)


# ---------------------------------------------------------------------------
# pauli_projection
# ---------------------------------------------------------------------------


def test_pauli_projection_z_axis():
    assert np.array_equal(pauli_projection((0, 0, 1)), SIGMA_Z)


def test_pauli_projection_y_axis():
    assert np.array_equal(pauli_projection((0, 1, 0)), SIGMA_Y)


def test_pauli_projection_tilted_axis_squares_to_identity():
    axis = np.array([0.0, 1.0, 1.0]) / np.sqrt(2)
    op = pauli_projection(axis)
    assert np.allclose(op, (SIGMA_Y + SIGMA_Z) / np.sqrt(2), atol=1e-12)
    assert np.allclose(op @ op, ID2, atol=1e-12)


def test_pauli_projection_rejects_non_unit_axis():
    with pytest.raises(ValueError):
        pauli_projection((0, 0, 2))


def test_pauli_projection_is_exponential_up_to_phase_i():
    rng = np.random.default_rng(1)
    for _ in range(50):
        axis = random_axis(rng)
        op = pauli_projection(axis)
        assert np.allclose(op @ op, ID2, atol=1e-10)
        # lambda.sigma = exp(i pi/2 lambda.sigma) up to a global phase i
        assert np.allclose(1j * op, expm(1j * np.pi / 2 * op), atol=1e-10)


# ---------------------------------------------------------------------------
# rotation
# ---------------------------------------------------------------------------


def test_rotation_x_pi_is_minus_i_sigma_x():
    assert np.allclose(rotation((1, 0, 0), np.pi), -1j * SIGMA_X, atol=1e-12)


def test_rotation_z_leaves_up_with_phase_only():
    theta = 0.83
    out = rotation((0, 0, 1), theta) @ KET_UP
    assert np.allclose(out, np.exp(-1j * theta / 2) * KET_UP, atol=1e-12)
    assert np.allclose(to_bloch(density(out)), (0, 0, 1), atol=1e-12)


def test_rotation_half_pi_twice_composes_to_pi():
    half = rotation((1, 0, 0), np.pi / 2)
    full = rotation((1, 0, 0), np.pi)
    assert np.allclose(half @ half, full, atol=1e-12)
    # pi about x maps Bloch +z to -z
    flipped = full @ KET_UP
    assert np.allclose(to_bloch(density(flipped)), (0, 0, -1), atol=1e-12)


def test_rotation_2pi_is_minus_identity():
    rng = np.random.default_rng(2)
    for _ in range(10):
        assert np.allclose(rotation(random_axis(rng), 2 * np.pi), -ID2, atol=1e-12)


def test_rotation_bloch_matches_state_conjugation():
    rng = np.random.default_rng(3)
    for _ in range(30):
        axis, angle = random_axis(rng), rng.uniform(-2 * np.pi, 2 * np.pi)
        u = rotation(axis, angle)
        rho = density(random_state(rng))
        assert np.allclose(
            to_bloch(u @ rho @ u.conj().T),
            rotation_bloch(axis, angle) @ to_bloch(rho),
            atol=1e-10,
        )


def test_rotation_bloch_is_right_handed():
    # +pi/2 about x carries +z to -y
    assert np.allclose(
        rotation_bloch((1, 0, 0), np.pi / 2) @ np.array([0, 0, 1.0]),
        (0, -1, 0),
        atol=1e-12,
    )


# ---------------------------------------------------------------------------
# rotating_frame
# ---------------------------------------------------------------------------


def test_rotating_frame_fixes_sigma_z():
    for phase in (0.0, 0.3, 2.1, -4.0):
        assert np.allclose(rotating_frame(SIGMA_Z, phase), SIGMA_Z, atol=1e-12)


def test_rotating_frame_carries_equatorial_axis():
    # i sigma_x -> i (cos(phi) sigma_x + sin(phi) sigma_y): the phase
    # convention that produces beta e^{-i phi}|up> + alpha e^{+i phi}|down>
    # on the spin-flipping branch
    for phi in (0.0, 0.4, 1.9, -2.5):
        expected = 1j * (np.cos(phi) * SIGMA_X + np.sin(phi) * SIGMA_Y)
        assert np.allclose(rotating_frame(1j * SIGMA_X, phi), expected, atol=1e-12)


def test_rotating_frame_quarter_turn():
    assert np.allclose(rotating_frame(1j * SIGMA_X, np.pi / 2), 1j * SIGMA_Y, atol=1e-12)


def test_rotating_frame_zero_phase_is_exact_identity():
    rng = np.random.default_rng(4)
    op = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    assert np.array_equal(rotating_frame(op, 0.0), op)


def test_rotating_frame_is_homomorphism():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        phi = rng.uniform(-np.pi, np.pi)
        assert np.allclose(
            rotating_frame(a @ b, phi),
            rotating_frame(a, phi) @ rotating_frame(b, phi),
            atol=1e-10,
        )


def test_rotating_frame_preserves_unitarity():
    rng = np.random.default_rng(6)
    u = rotation(random_axis(rng), 1.234)
    v = rotating_frame(u, 0.77)
    assert np.allclose(v.conj().T @ v, ID2, atol=1e-12)


# ---------------------------------------------------------------------------
# Bloch conversions
# ---------------------------------------------------------------------------


def test_bloch_trivial_states():
    assert np.allclose(to_bloch(ID2 / 2), (0, 0, 0), atol=1e-12)
    assert np.allclose(to_bloch(density(KET_UP)), (0, 0, 1), atol=1e-12)
    assert np.allclose(
        from_bloch((1, 0, 0)), np.array([[0.5, 0.5], [0.5, 0.5]]), atol=1e-12
    )


def test_bloch_round_trip_on_unit_ball():
    rng = np.random.default_rng(7)
    for _ in range(200):
        v = rng.normal(size=3)
        v *= rng.random() / np.linalg.norm(v)
        assert np.allclose(to_bloch(from_bloch(v)), v, atol=1e-12)


def test_from_bloch_rejects_outside_ball():
    with pytest.raises(ValueError):
        from_bloch((0.8, 0.8, 0.8))


# ---------------------------------------------------------------------------
# apply_kraus
# ---------------------------------------------------------------------------


def test_apply_kraus_identity_channel():
    rho = density(np.array([0.6, 0.8j]))
    assert np.allclose(apply_kraus(rho, [ID2]), rho, atol=1e-12)


def test_apply_kraus_equatorial_pi_mixture_flips_up():
    # hand multiplication: sx|u><u|sx/2 + sy|u><u|sy/2 = |d><d|
    ops = [SIGMA_X / np.sqrt(2), SIGMA_Y / np.sqrt(2)]
    out = apply_kraus(density(KET_UP), ops)
    assert np.allclose(out, density(KET_DOWN), atol=1e-12)


def test_apply_kraus_equatorial_pi_mixture_bloch_action():
    # oracle: average the two conjugations directly
    ops = [SIGMA_X / np.sqrt(2), SIGMA_Y / np.sqrt(2)]
    rng = np.random.default_rng(8)
    for _ in range(20):
        v = rng.normal(size=3)
        v *= rng.random() / np.linalg.norm(v)
        rho = from_bloch(v)
        direct = 0.5 * (SIGMA_X @ rho @ SIGMA_X + SIGMA_Y @ rho @ SIGMA_Y)
        out = apply_kraus(rho, ops)
        assert np.allclose(out, direct, atol=1e-12)
        assert np.allclose(to_bloch(out), (0, 0, -v[2]), atol=1e-12)


def test_apply_kraus_preserves_trace_and_positivity():
    rng = np.random.default_rng(9)
    for _ in range(50):
        v = rng.normal(size=3)
        v *= rng.random() / np.linalg.norm(v)
        rho = from_bloch(v)
        # random isometric Kraus pair from a QR-orthonormalized 4x2 block
        g = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
        q, _ = np.linalg.qr(g)
        out = apply_kraus(rho, [q[:2], q[2:]])
        assert abs(np.trace(out).real - 1.0) < 1e-10
        assert np.linalg.eigvalsh(out).min() > -1e-10


def test_apply_kraus_rejects_non_trace_preserving():
    with pytest.raises(ContractViolationError):
        apply_kraus(ID2 / 2, [SIGMA_X / np.sqrt(2)])


# ---------------------------------------------------------------------------
# fidelities, phase-insensitive equality
# ---------------------------------------------------------------------------


def test_state_fidelity_pure_reference():
    rng = np.random.default_rng(10)
    psi = random_state(rng)
    assert state_fidelity(density(psi), psi) == pytest.approx(1.0, abs=1e-12)


def test_state_fidelity_maximally_mixed():
    rng = np.random.default_rng(11)
    assert state_fidelity(ID2 / 2, random_state(rng)) == pytest.approx(0.5, abs=1e-12)


def test_state_fidelity_two_qubit_mixed():
    rng = np.random.default_rng(12)
    psi = np.kron(random_state(rng), random_state(rng))
    assert state_fidelity(np.eye(4) / 4, psi) == pytest.approx(0.25, abs=1e-12)


def test_state_fidelity_dimension_mismatch():
    with pytest.raises(ValueError):
        state_fidelity(ID2 / 2, np.ones(4) / 2)


def test_equal_up_to_phase():
    rng = np.random.default_rng(13)
    u = rotation(random_axis(rng), 0.9)
    assert equal_up_to_phase(u, np.exp(0.31j) * u)
    assert not equal_up_to_phase(u, rotation((0, 0, 1), 2.0) @ u)


def test_unit_state_scales_to_unit_norm():
    psi = unit_state([3.0, 4.0j])
    assert psi.dtype == complex
    assert np.allclose(psi, [0.6, 0.8j], atol=1e-15)


@pytest.mark.parametrize(
    "psi", [[0.0, 0.0], [1.0, np.nan], [np.inf, 0.0], [1.0, complex(0.0, np.nan)]]
)
def test_zero_or_non_finite_states_are_rejected(psi):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (unit_state, density, lambda v: state_fidelity(ID2 / 2, v)):
            with pytest.raises(ValueError, match="norm"):
                call(np.array(psi, dtype=complex))

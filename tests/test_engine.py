import math

import numpy as np
import pytest

from spinherald.engine import (
    ErrorBudget,
    ExperimentConfig,
    PulseSequence,
    RotationSpec,
    UnsupportedCorrectionError,
    correction_for,
    derive_seed,
    get_sequence,
    noisy_joint_state,
    run_experiment,
    run_shot,
    shot_stream,
    standard_sequences,
)
from spinherald.scattering import (
    PolarizationBasis,
    branch_operators,
    entanglement_fidelity,
    unconditioned_channel,
)
from spinherald.spinalg import ID2, KET_UP, from_bloch, to_bloch
from spinherald.tomography import estimate_ptm


def ideal_config(shots, seed, p_exc=1.0, eta=1.0, errors=None):
    return ExperimentConfig(
        shots=shots, seed=seed, p_exc=p_exc, eta=eta, errors=errors or ErrorBudget()
    )


# ---------------------------------------------------------------------------
# correction rules
# ---------------------------------------------------------------------------


def test_correction_hv_rayleigh_is_no_pulse():
    assert correction_for(PolarizationBasis(0.0, 0.0), 1, 1.23) is None


def test_correction_hv_raman_is_pi_pulse():
    spec = correction_for(PolarizationBasis(0.0, 0.0), 2, 0.0)
    assert spec.angle == pytest.approx(math.pi)
    assert np.allclose(spec.axis, (1, 0, 0), atol=1e-12)
    # 2x2 oracle: exp(-i pi/2 sx) i sx = identity up to phase
    m_h = np.sqrt(2) * branch_operators(phase=0.0)[1]
    product = spec.matrix() @ m_h
    assert abs(abs(product[0, 0]) - 1.0) < 1e-12
    assert np.allclose(product / product[0, 0], ID2, atol=1e-12)


def test_correction_45_half_pi_pulses_invert():
    basis = PolarizationBasis(math.pi / 4, 0.0)
    angles = {}
    for branch in (1, 2):
        spec = correction_for(basis, branch, 0.0)
        angles[branch] = spec.angle
        m = np.sqrt(2) * branch_operators(basis=basis, phase=0.0)[branch - 1]
        product = spec.matrix() @ m
        assert abs(abs(product[0, 0]) - 1.0) < 1e-10
        assert np.allclose(product / product[0, 0], ID2, atol=1e-10)
    # opposite half-pi rotations for the two branches
    assert angles[1] == pytest.approx(math.pi / 2)
    assert angles[2] == pytest.approx(-math.pi / 2)


def test_correction_rejects_elliptical_basis():
    elliptical = PolarizationBasis(0.0, 0.2)
    with pytest.raises(UnsupportedCorrectionError):
        correction_for(elliptical, 1, 0.0)
    with pytest.raises(UnsupportedCorrectionError):
        PulseSequence("bad", scatter=elliptical, corrected=True)


def test_heralded_reversibility_property():
    # any linear basis, any phase, any state: branch kick then the announced
    # correction restores the input exactly
    rng = np.random.default_rng(21)
    for _ in range(1000):
        theta = rng.uniform(-np.pi, np.pi)
        phi = rng.uniform(0, 2 * np.pi)
        psi = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi /= np.linalg.norm(psi)
        basis = PolarizationBasis(theta, 0.0)
        ops = branch_operators(basis=basis, phase=phi)
        branch = int(rng.integers(1, 3))
        kicked = np.sqrt(2) * ops[branch - 1] @ psi
        spec = correction_for(basis, branch, phi)
        restored = kicked if spec is None else spec.matrix() @ kicked
        fidelity = abs(np.vdot(psi, restored)) ** 2
        assert fidelity == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# single-shot semantics
# ---------------------------------------------------------------------------


def test_rayleigh_branch_keeps_up():
    frame = run_experiment(ideal_config(500, 3), get_sequence("scatter_HV"))
    v = frame.select(frame.branch == 1)
    assert v.outcome_up.all()


def test_uncorrected_raman_branch_flips_up():
    frame = run_experiment(ideal_config(500, 4), get_sequence("scatter_HV"))
    h = frame.select(frame.branch == 2)
    assert not h.outcome_up.any()


def test_corrected_raman_branch_restored():
    frame = run_experiment(ideal_config(500, 5), get_sequence("corrected_HV"))
    assert (frame.branch == 2).any()
    assert frame.outcome_up.all()


def test_corrected_45_restores_up():
    frame = run_experiment(ideal_config(500, 6), get_sequence("corrected_45"))
    assert frame.outcome_up.all()


def test_mean_attempts_geometric():
    # paper-range parameters: mean attempts 1/(p_exc * eta) ~ 5333
    cfg = ExperimentConfig(shots=20_000, seed=7, p_exc=0.075, eta=2.5e-3)
    frame = run_experiment(cfg, get_sequence("scatter_HV"))
    expected = 1.0 / (0.075 * 2.5e-3)
    assert abs(frame.n_attempts.mean() - expected) < 150.0


def test_branch_frequency_is_half():
    frame = run_experiment(ideal_config(100_000, 8), get_sequence("scatter_HV"))
    freq = np.mean(frame.branch == 1)
    assert abs(freq - 0.5) < 0.005  # 3 sigma binomial bound


def test_unheralded_scattering_decoheres():
    # p_exc = 1, eta = 0.5: each failed attempt scatters unseen with
    # probability 1/2, so <x | branch V> = E[(3/4)^failures] = 0.8
    cfg = ExperimentConfig(shots=40_000, seed=9, p_exc=1.0, eta=0.5)
    seq = PulseSequence(
        "x_to_x",
        prep=RotationSpec((0, 1, 0), math.pi / 2),
        scatter=PolarizationBasis(0.0, 0.0),
        analysis=RotationSpec((0, 1, 0), -math.pi / 2),
    )
    frame = run_experiment(cfg, seq)
    v = frame.select(frame.branch == 1)
    x_mean = 2.0 * v.outcome_up.mean() - 1.0
    assert abs(x_mean - 0.8) < 0.03


def test_dark_heralds_carry_random_branch_and_skip_scattering():
    errors = ErrorBudget(p_dark=1.0)
    cfg = ExperimentConfig(shots=2000, seed=10, errors=errors)
    frame = run_experiment(cfg, get_sequence("corrected_HV"))
    assert abs(np.mean(frame.branch == 1) - 0.5) < 0.05
    # no scattering happened: the branch-1 "correction" (none) leaves |up>,
    # while the spurious branch-2 pi pulse flips it
    v = frame.select(frame.branch == 1)
    h = frame.select(frame.branch == 2)
    assert v.outcome_up.all()
    assert not h.outcome_up.any()


def test_ramsey_hv_fringe_shapes_follow_convention():
    # under the chosen pulse convention the two in-phase pi/2 pulses about +x
    # send |up> to |down>, so the Rayleigh branch sits flat at P(up) = 0 and
    # the Raman branch oscillates as (1 + cos 2*phi)/2
    from spinherald.tomography import binned_fringe, fit_fringe

    frame = run_experiment(ideal_config(60_000, 20, p_exc=0.5), get_sequence("ramsey_HV"))
    v = frame.select(frame.branch == 1)
    assert v.outcome_up.mean() < 0.005
    h = frame.select(frame.branch == 2)
    fit = fit_fringe(binned_fringe(h.phi_tac, h.outcome_up), harmonic=2)
    assert fit.offset == pytest.approx(0.5, abs=0.01)
    assert abs(np.angle(np.exp(1j * fit.phase))) < 0.05  # +cos sign
    assert fit.contrast > 0.95


def test_scatter_first_reorders_the_kick_before_the_prep_pulse():
    # with prep and analysis both pi/2 about +x, the spin-flip branch gives a
    # double fringe when the kick lands between the pulses, but a flat line
    # at P(up) = 1 when it precedes them: |up> -> |down> -> +y -> +z
    base = dict(
        prep=RotationSpec((1, 0, 0), math.pi / 2),
        scatter=PolarizationBasis(0.0, 0.0),
        analysis=RotationSpec((1, 0, 0), math.pi / 2),
    )
    cfg = ideal_config(20_000, 24, p_exc=0.5)
    between = run_experiment(cfg, PulseSequence("between", **base))
    first = run_experiment(cfg, PulseSequence("first", scatter_first=True, **base))
    h_between = between.select(between.branch == 2)
    h_first = first.select(first.branch == 2)
    assert abs(h_between.outcome_up.mean() - 0.5) < 0.02  # fringe averages to 1/2
    assert h_first.outcome_up.all()


def test_elliptical_branch_probabilities_follow_born_rule():
    # engine sampling vs the operator-level Born rule: for a circular basis
    # the branch weights depend on the state and the precession phase
    from spinherald.scattering import scatter
    from spinherald.spinalg import density

    basis = PolarizationBasis(0.0, math.pi / 4)
    seq = PulseSequence(
        "circular", prep=RotationSpec((0, 1, 0), math.pi / 2), scatter=basis
    )
    frame = run_experiment(ideal_config(60_000, 25, p_exc=0.5), seq)
    plus_x = np.array([1.0, 1.0]) / np.sqrt(2)
    edges = np.linspace(0, 2 * math.pi, 13)
    for lo, hi in zip(edges[:-1], edges[1:]):
        sel = (frame.phi_tac >= lo) & (frame.phi_tac < hi)
        n = int(np.count_nonzero(sel))
        f1 = float(np.mean(frame.branch[sel] == 1))
        born = scatter(density(plus_x), basis=basis, phase=0.5 * (lo + hi))
        p1 = born[0].probability
        assert abs(f1 - p1) < 3.0 * math.sqrt(0.25 / n) + 0.02  # bin-width slack


def test_phi_tac_in_range_and_uniform():
    frame = run_experiment(ideal_config(50_000, 11), get_sequence("scatter_HV"))
    assert (frame.phi_tac >= 0.0).all() and (frame.phi_tac < 2 * math.pi).all()
    counts, _ = np.histogram(frame.phi_tac, bins=8, range=(0, 2 * math.pi))
    assert counts.min() > 0.9 * 50_000 / 8 - 3 * math.sqrt(50_000 / 8)


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_same_seed_reproduces_bit_identical_records():
    cfg = ideal_config(3000, 12, errors=ErrorBudget.nominal())
    seq = get_sequence("corrected_HV")
    assert run_experiment(cfg, seq).equals(run_experiment(cfg, seq))


def test_seed_changes_records():
    seq = get_sequence("scatter_HV")
    a = run_experiment(ideal_config(1000, 13), seq)
    b = run_experiment(ideal_config(1000, 14), seq)
    assert not a.equals(b)


def test_parallel_equals_serial():
    cfg = ideal_config(5000, 15, p_exc=0.5, eta=0.8, errors=ErrorBudget.nominal())
    seq = get_sequence("corrected_HV")
    serial = run_experiment(cfg, seq, workers=1)
    for workers in (2, 3, 8):
        assert serial.equals(run_experiment(cfg, seq, workers=workers))


def test_run_shot_matches_run_experiment_rows():
    cfg = ideal_config(50, 16, errors=ErrorBudget.nominal())
    seq = get_sequence("corrected_HV")
    frame = run_experiment(cfg, seq)
    for i in (0, 1, 17, 49):
        shot = run_shot(cfg, seq, shot_stream(cfg.seed, i), shot_id=i)
        assert len(shot) == 1
        assert shot.equals(frame.select(frame.shot_id == i))


def test_single_shot_run():
    frame = run_experiment(ideal_config(1, 17), get_sequence("scatter_HV"))
    assert len(frame) == 1
    assert frame.n_attempts[0] >= 1


def test_derive_seed_is_stable_and_distinct():
    assert derive_seed(5, 0) == derive_seed(5, 0)
    assert derive_seed(5, 0) != derive_seed(5, 1)
    assert derive_seed(5, 0) != derive_seed(6, 0)


# ---------------------------------------------------------------------------
# empirical channel convergence (shared heavy fixture)
# ---------------------------------------------------------------------------


def test_uncorrected_records_converge_to_unconditioned_channel(
    ideal_uncorrected_frames,
):
    ptm = estimate_ptm(ideal_uncorrected_frames)
    # analytic oracle: apply the channel to the basis states directly
    center = to_bloch(unconditioned_channel(from_bloch((0, 0, 0))))
    expected = np.zeros((3, 3))
    for j, e in enumerate(np.eye(3)):
        expected[:, j] = to_bloch(unconditioned_channel(from_bloch(e))) - center
    assert np.abs(ptm[1:, 1:] - expected).max() < 0.02
    assert np.abs(ptm[1:, 0] - center).max() < 0.02
    assert np.abs(np.diag(ptm)[1:] - (0.5, 0.5, 0.0)).max() < 0.02


# ---------------------------------------------------------------------------
# configuration validation and catalog
# ---------------------------------------------------------------------------


def test_zero_shots_rejected():
    with pytest.raises(ValueError):
        ExperimentConfig(shots=0, seed=1)


def test_probability_bounds_enforced():
    with pytest.raises(ValueError):
        ExperimentConfig(shots=1, seed=1, p_exc=1.5)
    with pytest.raises(ValueError):
        ErrorBudget(p_dark=-0.1)
    with pytest.raises(ValueError):
        ErrorBudget(phi_jitter_sigma=-1.0)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("name", ["pol_misalign", "biref_phase", "phi_jitter_sigma"])
def test_error_budget_rejects_non_finite_angles(name, value):
    with pytest.raises(ValueError, match=name):
        ErrorBudget(**{name: value})


def test_scatter_needs_herald_probability():
    cfg = ExperimentConfig(shots=10, seed=1, p_exc=0.0)
    with pytest.raises(ValueError):
        run_experiment(cfg, get_sequence("scatter_HV"))


def test_correction_without_scatter_rejected():
    with pytest.raises(ValueError, match="scatter block"):
        PulseSequence("bad", corrected=True)


def test_standard_sequence_catalog():
    catalog = standard_sequences()
    for name in (
        "ramsey_HV",
        "ramsey_45",
        "corrected_HV",
        "corrected_45",
        "tomo_input_1",
        "tomo_input_4",
        "no_scatter",
    ):
        assert name in catalog
    assert catalog["ramsey_45"].scatter_first
    assert catalog["no_scatter"].scatter is None
    with pytest.raises(KeyError, match="ramsey_HV"):
        get_sequence("nonesuch")


def test_no_scatter_sequence_emits_sentinel_records():
    frame = run_experiment(ideal_config(100, 18), get_sequence("no_scatter"))
    assert (frame.branch == 0).all()
    assert (frame.n_attempts == 0).all()
    assert frame.outcome_up.all()


# ---------------------------------------------------------------------------
# analytic joint-state error model
# ---------------------------------------------------------------------------


def test_noisy_joint_state_ideal_is_pure_ideal():
    rng = np.random.default_rng(19)
    psi = rng.normal(size=2) + 1j * rng.normal(size=2)
    psi /= np.linalg.norm(psi)
    rho = noisy_joint_state(psi, 0.9, ErrorBudget())
    assert entanglement_fidelity(rho, psi, 0.9) == pytest.approx(1.0, abs=1e-10)


def test_noisy_joint_state_nominal_in_expected_window():
    rho = noisy_joint_state(KET_UP, 0.0, ErrorBudget.nominal())
    fidelity = entanglement_fidelity(rho, KET_UP, 0.0)
    assert 0.80 <= fidelity <= 0.95


def test_noisy_joint_state_is_valid_density_matrix():
    rho = noisy_joint_state(KET_UP, 1.2, ErrorBudget.nominal())
    assert abs(np.trace(rho).real - 1.0) < 1e-10
    assert np.linalg.eigvalsh(rho).min() > -1e-10

import math
import statistics
import tracemalloc
import warnings
from dataclasses import replace
from functools import reduce
from operator import add

import numpy as np
import pytest

from spinherald.engine import (
    _BLOCK,
    _apply_correction,
    _apply_scatter_block,
    _ndtri,
    DRAWS_PER_SHOT,
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
    standard_sequences,
)
from spinherald.cli import _CHUNK
from spinherald.scattering import (
    PolarizationBasis,
    branch_operators,
    entanglement_fidelity,
    joint_state,
    unconditioned_channel,
)
from spinherald.spinalg import ID2, KET_UP, from_bloch, to_bloch
from spinherald.tomography import ShotCounts, estimate_ptm, fit_fringe

from conftest import oracle_fringe, ranges_equal_serial


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


def test_failed_attempts_leave_no_trace():
    # p_exc = 1, eta = 0.5: half the attempts fail, but each starts from a
    # fresh preparation, so the Rayleigh branch keeps <x> = 1 exactly
    cfg = ExperimentConfig(shots=40_000, seed=9, p_exc=1.0, eta=0.5)
    seq = PulseSequence(
        "x_to_x",
        prep=RotationSpec((0, 1, 0), math.pi / 2),
        scatter=PolarizationBasis(0.0, 0.0),
        analysis=RotationSpec((0, 1, 0), -math.pi / 2),
    )
    frame = run_experiment(cfg, seq)
    assert (frame.n_attempts > 1).any()
    v = frame.select(frame.branch == 1)
    assert len(v) > 0
    assert v.outcome_up.all()


def test_eta_sets_only_the_attempt_count():
    cfg = ExperimentConfig(shots=4000, seed=9, p_exc=0.5, errors=ErrorBudget.nominal())
    for name in ("corrected_HV", "ramsey_45", "scatter_45"):
        seq = get_sequence(name)
        ref = run_experiment(cfg, seq)
        for eta in (0.5, 2.5e-3):
            frame = run_experiment(replace(cfg, eta=eta), seq)
            for col in ("branch", "phi_tac", "outcome_up"):
                a, b = getattr(frame, col), getattr(ref, col)
                assert a.tobytes() == b.tobytes(), (name, eta, col)
            assert frame.n_attempts.mean() > ref.n_attempts.mean()


def test_normal_quantile_matches_scipy_ndtri():
    from scipy.special import ndtri

    clip = (2.0**-53, 1.0 - 2.0**-53)
    # AS 241 switches approximations at |u - 1/2| = 0.425 and at u = e^-25
    edges = (0.075, 0.925, math.exp(-25.0), 1.0 - math.exp(-25.0), 0.5)
    uniforms = np.random.default_rng(26).random(100_000)
    u = np.concatenate([clip, edges, uniforms])
    got, want = _ndtri(u), ndtri(u)
    assert np.isfinite(_ndtri(np.array([0.0, *clip]))).all()
    assert (np.abs(got - want) <= 8 * np.spacing(np.abs(want))).all()


def test_normal_quantile_follows_the_stdlib_as241():
    # the per-value stdlib routine is the reference; numpy's log may differ
    # from libm's by an ulp, which the tail approximation can amplify
    inv_cdf = statistics.NormalDist().inv_cdf
    clip = (2.0**-53, 1.0 - 2.0**-53)
    edges = (0.075, 0.925, math.exp(-25.0), 1.0 - math.exp(-25.0), 0.5)
    u = np.concatenate([clip, edges, np.random.default_rng(27).random(2**16)])
    got = _ndtri(u)
    want = np.array([inv_cdf(x) for x in u.tolist()])
    assert np.mean(got == want) > 0.999
    assert (np.abs(got - want) <= 4 * np.spacing(np.abs(want))).all()


def test_scatter_and_correction_keep_bloch_rows_in_the_ball():
    # property: under random budgets, bases and input states the scatter
    # block (and, for a linear basis, the heralded correction) maps Bloch
    # rows inside the unit ball into it
    rng = np.random.default_rng(41)

    def probability():
        return float(rng.choice([0.0, 1.0, rng.random()]))

    n = 256
    for _ in range(60):
        errors = ErrorBudget(
            p_multi=probability(),
            p_dark=probability(),
            e_prep=probability(),
            e_meas=probability(),
            pol_misalign=rng.uniform(-math.pi, math.pi),
            biref_phase=rng.uniform(-math.pi, math.pi),
            phi_jitter_sigma=rng.uniform(0.0, 2.0),
        )
        cfg = ExperimentConfig(
            shots=n, seed=0, p_exc=1.0 - rng.random(), eta=1.0 - rng.random(),
            errors=errors,
        )
        ellipticity = rng.choice([0.0, rng.uniform(-math.pi / 4, math.pi / 4)])
        basis = PolarizationBasis(rng.uniform(-math.pi / 4, math.pi / 4), ellipticity)
        seq = PulseSequence("property", scatter=basis)
        directions = rng.normal(size=(n, 3))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        radii = np.where(rng.random(n) < 0.25, 1.0, rng.random(n) ** (1 / 3))
        bloch = directions * radii[:, None]
        draws = rng.random((n, DRAWS_PER_SHOT))
        bloch, _, branch, phi_rec = _apply_scatter_block(cfg, seq, draws, bloch.T.copy())
        assert np.linalg.norm(bloch, axis=0).max() <= 1.0 + 1e-12
        if basis.is_linear:
            bloch = _apply_correction(basis, branch, phi_rec, bloch)
            assert np.linalg.norm(bloch, axis=0).max() <= 1.0 + 1e-12


@pytest.mark.parametrize("sigma", [1e-300, 0.17, 5.0, 1e3])
def test_phi_tac_is_np_mod_of_the_jittered_phase(sigma):
    # the reference reads the run's draws from its Philox stream, block by
    # block as the run does, and wraps with np.mod; dark heralds keep the
    # true phase
    cfg = ideal_config(2 * _BLOCK + 5, 31, errors=ErrorBudget(p_dark=0.2, phi_jitter_sigma=sigma))
    frame = run_experiment(cfg, get_sequence("corrected_HV"))
    key = np.random.SeedSequence(cfg.seed).generate_state(2, np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    want = []
    for lo in range(0, cfg.shots, _BLOCK):
        draws = rng.random((min(_BLOCK, cfg.shots - lo), DRAWS_PER_SHOT))
        phi_true = 2.0 * math.pi * draws[:, 4]
        phi = np.mod(phi_true + sigma * _ndtri(draws[:, 5]), 2.0 * math.pi)
        dark = draws[:, 3] < cfg.errors.p_dark
        phi[dark] = phi_true[dark]
        want.append(phi)
    # bit for bit, the sign of a zero too
    assert np.array_equal(frame.phi_tac.view(np.int64), np.concatenate(want).view(np.int64))


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
    frame = run_experiment(ideal_config(60_000, 20, p_exc=0.5), get_sequence("ramsey_HV"))
    v = frame.select(frame.branch == 1)
    assert v.outcome_up.mean() < 0.005
    h = frame.select(frame.branch == 2)
    fit = fit_fringe(oracle_fringe(h.phi_tac, h.outcome_up, 20), harmonic=2)
    assert fit.offset == pytest.approx(0.5, abs=0.01)
    assert abs(np.angle(np.exp(1j * fit.phase))) < 0.05  # +cos sign
    assert fit.contrast > 0.95


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


def test_ranges_of_a_partition_equal_the_serial_rows():
    cfg = ideal_config(5000, 15, p_exc=0.5, eta=0.8, errors=ErrorBudget.nominal())
    seq = get_sequence("corrected_HV")
    serial = run_experiment(cfg, seq)
    for parts in (2, 3, 8):
        assert ranges_equal_serial(serial, cfg, seq, parts)


def test_run_range_matches_run_experiment_rows():
    cfg = ideal_config(50, 16, errors=ErrorBudget.nominal())
    seq = get_sequence("corrected_HV")
    frame = run_experiment(cfg, seq)
    for i in (0, 1, 17, 49):
        shot = run_experiment(cfg, seq, i, i + 1)
        assert len(shot) == 1
        assert shot.equals(frame.select(frame.shot_id == i))
    for lo, hi in ((-1, 1), (3, 2), (0, cfg.shots + 1)):
        with pytest.raises(ValueError, match="shot range"):
            run_experiment(cfg, seq, lo, hi)
    # rows on both sides of a chunk boundary and the last row of a partial chunk
    cfg = replace(cfg, shots=2 * _CHUNK + 3)
    frame = run_experiment(cfg, seq)
    assert len(frame) == cfg.shots
    for i in (_CHUNK - 1, _CHUNK, cfg.shots - 1):
        assert run_experiment(cfg, seq, i, i + 1).equals(frame.select(frame.shot_id == i))
    # a range from lo to the end, and an empty range with a full run's dtypes
    assert run_experiment(cfg, seq, 7).equals(frame.select(slice(7, None)))
    empty = run_experiment(cfg, seq, 5, 5)
    assert len(empty) == 0
    assert [c.dtype for c in empty._columns()] == [c.dtype for c in frame._columns()]


def test_counts_of_a_run_equal_the_sum_over_an_uneven_partition():
    cfg = ideal_config(2 * _CHUNK + 11, 21, p_exc=0.3, eta=0.4, errors=ErrorBudget.nominal())
    seq = get_sequence("corrected_45")
    whole = ShotCounts.of(run_experiment(cfg, seq), 9)
    bounds = (0, 1, 1, 5000, _CHUNK + 3, 2 * _CHUNK + 10, cfg.shots)
    parts = reduce(
        add,
        (ShotCounts.of(run_experiment(cfg, seq, lo, hi), 9) for lo, hi in zip(bounds, bounds[1:])),
    )
    assert np.array_equal(parts.n, whole.n)
    assert parts.attempts == whole.attempts
    assert whole.n.sum() == cfg.shots


@pytest.mark.parametrize("shots", [1 << 18, 1 << 20])
@pytest.mark.parametrize(
    "name, errors", [("corrected_HV", ErrorBudget.nominal()), ("ramsey_HV", ErrorBudget())]
)
def test_run_experiment_memory_is_bounded_by_the_block(name, errors, shots):
    cfg = ideal_config(shots, 23, errors=errors)
    tracemalloc.start()
    try:
        frame = run_experiment(cfg, get_sequence(name))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # beyond the range's columns: one block's draws, state and temporaries
    nbytes = sum(col.nbytes for col in frame._columns())
    assert peak - nbytes <= 4 * 10**6


def test_rows_at_block_edges_match_the_whole_run():
    cfg = ideal_config(_CHUNK + 2 * _BLOCK + 3, 24, p_exc=0.4, errors=ErrorBudget.nominal())
    seq = get_sequence("corrected_45")
    frame = run_experiment(cfg, seq)
    assert frame.shot_id.tolist() == list(range(cfg.shots))
    for i in (_BLOCK - 1, _BLOCK, _CHUNK - 1, _CHUNK + _BLOCK):
        assert run_experiment(cfg, seq, i, i + 1).equals(frame.select(slice(i, i + 1)))
    # a partition cut at block edges and just off them
    bounds = (0, _BLOCK - 1, _BLOCK, 3 * _BLOCK, _CHUNK - 1, _CHUNK + _BLOCK, cfg.shots)
    parts = [run_experiment(cfg, seq, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    whole, summed = ShotCounts.of(frame, 7), reduce(add, (ShotCounts.of(p, 7) for p in parts))
    assert np.array_equal(summed.n, whole.n)
    assert summed.attempts == whole.attempts
    # a range that starts one shot before a block edge
    assert run_experiment(cfg, seq, _BLOCK - 1).equals(frame.select(slice(_BLOCK - 1, None)))


def test_attempt_count_beyond_int64_is_rejected():
    cfg = ExperimentConfig(shots=5, seed=1, p_exc=1e-30)
    with pytest.raises(ValueError, match=r"herald probability .*1e-30"):
        run_experiment(cfg, get_sequence("scatter_HV"))


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
        "no_scatter",
    ):
        assert name in catalog
    assert catalog["ramsey_45"].prep is None
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


def test_jitter_bound_holds_for_the_joint_state_nodes():
    rho = noisy_joint_state(KET_UP, 0.0, ErrorBudget(phi_jitter_sigma=1.5e307))
    assert np.isfinite(rho).all()


def dense_jitter_average(psi, phase, errors):
    """The jitter-free joint state averaged over the offset by a trapezoid
    rule on a fine grid of the Gaussian density.  Only the scattering phase
    depends on the offset, and every later step of the model is affine, so
    this is the jittered state.  For a trigonometric polynomial of degree
    <= 2 the rule errs by ~exp(-(2 pi / h - 2 sigma)^2 / 2) at step h."""
    h = 0.25
    z = np.arange(-10.0, 10.0 + h / 2, h)
    weights = h * np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    fixed = replace(errors, phi_jitter_sigma=0.0)
    return sum(
        w * noisy_joint_state(psi, phase - errors.phi_jitter_sigma * zi, fixed)
        for zi, w in zip(z, weights)
    )


@pytest.mark.parametrize("sigma", [0.0, 0.17, 1.0, 2.0])
def test_noisy_joint_state_averages_the_jitter_exactly(sigma):
    rng = np.random.default_rng(int(100 * sigma) + 5)
    for _ in range(3):
        psi = rng.normal(size=2) + 1j * rng.normal(size=2)
        errors = ErrorBudget(
            p_multi=rng.uniform(0.0, 0.3),
            p_dark=rng.uniform(0.0, 0.3),
            e_prep=rng.uniform(0.0, 0.3),
            pol_misalign=rng.normal(0.0, 0.3),
            biref_phase=rng.normal(0.0, 0.5),
            phi_jitter_sigma=sigma,
        )
        phase = rng.uniform(-2.0 * math.pi, 2.0 * math.pi)
        rho = noisy_joint_state(psi, phase, errors)
        assert np.abs(rho - dense_jitter_average(psi, phase, errors)).max() <= 1e-13


def test_huge_jitter_dephases_fully_without_a_warning():
    errors = replace(ErrorBudget.nominal(), biref_phase=0.3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rho = noisy_joint_state(KET_UP, 0.4, replace(errors, phi_jitter_sigma=1e200))
    assert np.isfinite(rho).all()
    limit = noisy_joint_state(KET_UP, 0.4, replace(errors, phi_jitter_sigma=40.0))
    np.testing.assert_allclose(rho, limit, rtol=0.0, atol=1e-15)
    assert entanglement_fidelity(rho, KET_UP, 0.4) < entanglement_fidelity(
        noisy_joint_state(KET_UP, 0.4, errors), KET_UP, 0.4
    )


@pytest.mark.parametrize(
    "state, phase, match",
    [
        ((0.0, 0.0), 0.3, "norm"),
        ((1.0, math.nan), 0.3, "norm"),
        ((math.inf, 1.0), 0.3, "norm"),
        ((1.0, 0.0), math.nan, "phase"),
        ((1.0, 0.0), math.inf, "phase"),
        ((1.0, 0.0), -math.inf, "phase"),
    ],
)
def test_joint_states_reject_a_degenerate_input(state, phase, match):
    psi = np.array(state)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (
            lambda: noisy_joint_state(psi, phase, ErrorBudget.nominal()),
            lambda: joint_state(psi, phase),
            lambda: entanglement_fidelity(np.eye(4) / 4, psi, phase),
        ):
            with pytest.raises(ValueError, match=match):
                call()

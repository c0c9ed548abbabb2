from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from spinherald.engine import (
    ErrorBudget,
    ExperimentConfig,
    derive_seed,
    get_sequence,
    run_experiment,
)
from spinherald.scattering import unconditioned_channel
from spinherald.spinalg import SIGMA_X, from_bloch, to_bloch
from spinherald.tomography import (
    _phase_bin,
    CPTPConvergenceError,
    IncompleteDataError,
    ShotCounts,
    UnderdeterminedFitError,
    bloch_ellipsoid,
    chi_to_choi,
    chi_to_ptm,
    estimate_ptm,
    fit_fringe,
    identity_overlap,
    project_cptp,
    ptm_to_chi,
    plan_runs,
    reconstruct,
    run_plan,
    tomography_plan,
)

from conftest import kraus_transfer, oracle_fringe, synthetic_outcomes


def bernoulli_outcomes(p_up_by_setting, shots, rng):
    return {k: rng.random(shots) < p for k, p in p_up_by_setting.items()}


def channel_p_up(bloch_map, translation=(0, 0, 0)):
    plan = tomography_plan()
    p = {}
    for s in plan:
        out = np.asarray(bloch_map) @ np.asarray(s.prep_bloch) + np.asarray(translation)
        p[s.index] = 0.5 * (1.0 + float(np.dot(s.axis_bloch, out)))
    return p


# ---------------------------------------------------------------------------
# the plan
# ---------------------------------------------------------------------------


def test_plan_has_twelve_settings():
    plan = tomography_plan()
    assert len(plan) == 12
    assert [s.index for s in plan] == list(range(12))
    assert len({(s.prep_label, s.axis_label) for s in plan}) == 12


def test_plan_identity_channel_eigenstate_settings():
    # on the identity channel: preparing up and measuring z gives P(up) = 1,
    # as does preparing +x and measuring x
    p = channel_p_up(np.eye(3))
    plan = {(s.prep_label, s.axis_label): s.index for s in tomography_plan()}
    assert p[plan[("up", "z")]] == pytest.approx(1.0)
    assert p[plan[("plus_x", "x")]] == pytest.approx(1.0)
    assert p[plan[("plus_y", "y")]] == pytest.approx(1.0)
    assert p[plan[("down", "z")]] == pytest.approx(0.0)


def test_plan_rotations_map_preparation_and_axis():
    # the prep pulse creates the advertised Bloch vector; the analysis pulse
    # carries the measured axis onto +z
    from spinherald.spinalg import KET_UP, density

    for s in tomography_plan():
        psi = KET_UP if s.prep is None else s.prep.matrix() @ KET_UP
        assert np.allclose(to_bloch(density(psi)), s.prep_bloch, atol=1e-12)
        rot = np.eye(3) if s.analysis is None else s.analysis.bloch_matrix()
        assert np.allclose(rot @ np.asarray(s.axis_bloch), (0, 0, 1), atol=1e-12)


def test_plan_runs_lays_out_each_setting_in_plan_order():
    # a setting's run is the given one with the setting's pulses, its label
    # after the sequence name and the child seed of (seed, index)
    config = ExperimentConfig(
        shots=17, seed=123, p_exc=0.3, eta=0.5, errors=ErrorBudget(p_dark=0.1)
    )
    seq = get_sequence("corrected_HV")
    runs = list(plan_runs(config, seq))
    plan = tomography_plan()
    assert [index for index, _, _ in runs] == list(range(12))
    for (index, cfg, seq_s), s in zip(runs, plan, strict=True):
        assert index == s.index
        assert cfg == replace(config, seed=derive_seed(123, index))
        assert seq_s == replace(
            seq, name=f"corrected_HV:{s.label}", prep=s.prep, analysis=s.analysis
        )
    # preparations in the outer loop, measurement axes in the inner one
    names = [seq_s.name for _, _, seq_s in runs]
    assert names[:4] == [
        "corrected_HV:up/x", "corrected_HV:up/y", "corrected_HV:up/z", "corrected_HV:down/x"
    ]
    assert names[-1] == "corrected_HV:plus_y/z"
    frames = run_plan(config, seq)
    assert list(frames) == list(range(12))
    for index, cfg, seq_s in runs:
        assert frames[index].equals(run_experiment(cfg, seq_s))
    # the plan is no argument
    with pytest.raises(TypeError):
        plan_runs(config, seq, plan)
    with pytest.raises(TypeError):
        run_plan(config, seq, plan)


# ---------------------------------------------------------------------------
# linear inversion
# ---------------------------------------------------------------------------


def test_estimate_ptm_identity_channel():
    rng = np.random.default_rng(0)
    outcomes = bernoulli_outcomes(channel_p_up(np.eye(3)), 100_000, rng)
    ptm = estimate_ptm(outcomes)
    assert np.abs(ptm - np.eye(4)).max() < 0.02


def test_estimate_ptm_unconditioned_scattering():
    # oracle: the traced-out scattering channel applied analytically
    center = to_bloch(unconditioned_channel(from_bloch((0, 0, 0))))
    cols = np.column_stack(
        [
            to_bloch(unconditioned_channel(from_bloch(e))) - center
            for e in np.eye(3)
        ]
    )
    rng = np.random.default_rng(1)
    outcomes = bernoulli_outcomes(channel_p_up(cols, center), 100_000, rng)
    ptm = estimate_ptm(outcomes)
    assert np.abs(ptm[1:, 1:] - np.diag([0.5, 0.5, 0.0])).max() < 0.02


def test_estimate_ptm_phase_averaged_raman():
    # oracle: average the equatorial pi rotation over the recorded phase
    phis = np.linspace(0, 2 * np.pi, 720, endpoint=False)
    bloch = np.zeros((3, 3))
    for phi in phis:
        k = np.array([np.cos(phi), np.sin(phi), 0.0])
        bloch += 2.0 * np.outer(k, k) - np.eye(3)
    bloch /= len(phis)
    assert np.allclose(bloch, np.diag([0.0, 0.0, -1.0]), atol=1e-12)
    rng = np.random.default_rng(2)
    outcomes = bernoulli_outcomes(channel_p_up(bloch), 100_000, rng)
    ptm = estimate_ptm(outcomes)
    assert np.abs(ptm[1:, 1:] - np.diag([0.0, 0.0, -1.0])).max() < 0.02


def test_estimate_ptm_missing_setting():
    rng = np.random.default_rng(3)
    outcomes = bernoulli_outcomes(channel_p_up(np.eye(3)), 100, rng)
    del outcomes[5]
    with pytest.raises(IncompleteDataError, match="down"):
        estimate_ptm(outcomes)
    outcomes[12] = outcomes[0]
    with pytest.raises(ValueError, match=r"settings outside the 12-setting plan: \[12\]"):
        estimate_ptm(outcomes)


def test_estimate_ptm_from_counts_equals_outcome_arrays():
    rng = np.random.default_rng(31)
    outcomes = bernoulli_outcomes(channel_p_up(np.diag([0.9, -0.4, 0.7])), 7919, rng)
    counts = {k: (int(up.sum()), len(up)) for k, up in outcomes.items()}
    assert np.array_equal(estimate_ptm(counts), estimate_ptm(outcomes))
    counts[3] = (0, 0)
    with pytest.raises(IncompleteDataError, match="down/x"):
        estimate_ptm(counts)
    counts[3] = (12, 11)
    with pytest.raises(ValueError, match="up count 12"):
        estimate_ptm(counts)


@pytest.mark.parametrize(
    "bad",
    [[30, 100], (30.9, 100.7), np.array([2, 0, 5]), np.ones((2, 3), bool)],
    ids=["list", "floats", "ints", "2-d"],
)
def test_estimate_ptm_rejects_counts_that_are_neither_integers_nor_booleans(bad):
    rng = np.random.default_rng(37)
    outcomes = bernoulli_outcomes(channel_p_up(np.eye(3)), 100, rng)
    counts = {k: (int(up.sum()), len(up)) for k, up in outcomes.items()}
    counts[4] = (np.int64(counts[4][0]), np.int32(counts[4][1]))  # numpy integers pass
    estimate_ptm(counts)
    counts[4] = bad
    with pytest.raises(ValueError, match="setting 4: "):
        estimate_ptm(counts)


# ---------------------------------------------------------------------------
# chi <-> ptm
# ---------------------------------------------------------------------------


def test_round_trip_is_exact():
    rng = np.random.default_rng(4)
    for _ in range(20):
        h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        chi = h + h.conj().T
        assert np.allclose(ptm_to_chi(chi_to_ptm(chi)), chi, atol=1e-12)


def test_identity_process_chi():
    chi = ptm_to_chi(np.eye(4))
    assert np.allclose(chi, np.diag([1.0, 0, 0, 0]), atol=1e-12)


def test_sigma_x_conjugation_chi():
    ptm = kraus_transfer([SIGMA_X])
    assert np.allclose(ptm, np.diag([1.0, 1.0, -1.0, -1.0]), atol=1e-12)
    assert np.allclose(ptm_to_chi(ptm), np.diag([0, 1.0, 0, 0]), atol=1e-12)


def test_unconditioned_channel_chi_weights():
    # half identity, quarter pi rotations about each of x and y
    ptm = np.diag([1.0, 0.5, 0.5, 0.0])
    chi = ptm_to_chi(ptm)
    assert np.allclose(chi, np.diag([0.5, 0.25, 0.25, 0.0]), atol=1e-12)


def test_phase_averaged_raman_chi_has_no_identity_weight():
    # pole swap with a scrambled equator: chi lives on sigma_x and sigma_y
    ptm = np.diag([1.0, 0.0, 0.0, -1.0])
    chi = ptm_to_chi(ptm)
    assert np.allclose(chi, np.diag([0.0, 0.5, 0.5, 0.0]), atol=1e-12)
    assert identity_overlap(chi) == pytest.approx(0.0, abs=1e-12)


def test_chi_to_choi_trace_preservation_constraint():
    chi = np.diag([0.5, 0.25, 0.25, 0.0]).astype(complex)
    choi = chi_to_choi(chi)
    traced = np.trace(choi.reshape(2, 2, 2, 2), axis1=1, axis2=3)
    assert np.allclose(traced, np.eye(2), atol=1e-12)


# ---------------------------------------------------------------------------
# CPTP projection
# ---------------------------------------------------------------------------


def test_projection_fixes_physical_input():
    chi = np.diag([0.5, 0.25, 0.25, 0.0]).astype(complex)
    assert np.allclose(project_cptp(chi), chi, atol=1e-10)


def test_projection_truncates_negative_weight():
    # one-step hand oracle: the negative eigenvalue is removed and the
    # remaining weight renormalizes onto the identity component
    chi = np.diag([1.1, -0.1, 0.0, 0.0]).astype(complex)
    assert np.allclose(project_cptp(chi), np.diag([1.0, 0, 0, 0]), atol=1e-7)


def test_projection_output_is_physical():
    rng = np.random.default_rng(5)
    for _ in range(100):
        h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        chi = np.diag([1.0, 0, 0, 0]) + 0.2 * (h + h.conj().T)
        out = project_cptp(chi)
        assert np.linalg.eigvalsh(out).min() > -1e-9
        traced = np.trace(chi_to_choi(out).reshape(2, 2, 2, 2), axis1=1, axis2=3)
        assert np.abs(traced - np.eye(2)).max() < 1e-8
        assert abs(np.trace(out).real - 1.0) < 1e-8
        # idempotent on its own output
        assert np.allclose(project_cptp(out), out, atol=1e-7)


def test_projection_never_expands_distance_to_true_channel():
    # each alternating step is a metric projection onto a convex set, so the
    # distance to any physical channel cannot grow
    rng = np.random.default_rng(6)
    for _ in range(50):
        g = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
        q, _ = np.linalg.qr(g)
        kraus = [q[:2], q[2:]]
        chi_true = ptm_to_chi(kraus_transfer(kraus))
        outcomes = synthetic_outcomes(kraus, 2000, rng)
        chi_raw = ptm_to_chi(estimate_ptm(outcomes))
        chi_proj = project_cptp(chi_raw)
        assert np.linalg.norm(chi_proj - chi_true) <= np.linalg.norm(
            chi_raw - chi_true
        ) + 1e-12
        # the projected identity overlap is physically bounded even when the
        # raw linear-inversion value exceeds one
        assert identity_overlap(chi_proj) <= 1.0 + 1e-9


def test_projection_convergence_diagnostics():
    chi = np.diag([1.1, -0.1, 0.0, 0.0]).astype(complex)
    with pytest.raises(CPTPConvergenceError) as err:
        project_cptp(chi, max_iter=2)
    assert err.value.iterations == 2
    assert err.value.delta > 0.0


def test_identity_overlap_reads_ii_element():
    assert identity_overlap(np.diag([0.83, 0.1, 0.05, 0.02])) == pytest.approx(0.83)


# ---------------------------------------------------------------------------
# ellipsoid
# ---------------------------------------------------------------------------


def test_ellipsoid_identity():
    e = bloch_ellipsoid(np.eye(4))
    assert np.allclose(e.semi_axes, (1, 1, 1), atol=1e-12)
    assert np.allclose(e.center, (0, 0, 0), atol=1e-12)


def test_ellipsoid_pancake():
    e = bloch_ellipsoid(np.diag([1.0, 0.5, 0.5, 0.0]))
    assert np.allclose(e.semi_axes, (0.5, 0.5, 0.0), atol=1e-12)
    assert np.allclose(
        e.principal_directions @ e.principal_directions.T, np.eye(3), atol=1e-12
    )


def test_ellipsoid_semi_axes_frame_invariant():
    # pre/post rotations of the analysis convention leave the spectrum alone
    from spinherald.spinalg import rotation_bloch

    rng = np.random.default_rng(7)
    base = np.diag([1.0, 0.7, 0.4, 0.1])
    for _ in range(20):
        axes = rng.normal(size=(2, 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        r1 = rotation_bloch(axes[0], rng.uniform(0, 2 * np.pi))
        r2 = rotation_bloch(axes[1], rng.uniform(0, 2 * np.pi))
        rotated = base.copy()
        rotated[1:, 1:] = r1 @ base[1:, 1:] @ r2
        assert np.allclose(
            bloch_ellipsoid(rotated).semi_axes,
            bloch_ellipsoid(base).semi_axes,
            atol=1e-10,
        )


# ---------------------------------------------------------------------------
# fringe fitting
# ---------------------------------------------------------------------------


def test_fit_fringe_exact_double_fringe():
    phi = np.linspace(0, 2 * np.pi, 20, endpoint=False) + np.pi / 20
    p = 0.5 - 0.5 * np.cos(2 * phi)
    bins = np.column_stack([phi, p, np.full_like(phi, 500)])
    fit = fit_fringe(bins, harmonic=2)
    assert fit.amplitude == pytest.approx(0.5, abs=1e-10)
    assert abs(abs(fit.phase) - np.pi) < 1e-10  # 0.5 - 0.5cos = 0.5 + 0.5cos(.+pi)
    assert fit.contrast == pytest.approx(1.0, abs=1e-10)
    assert fit.residual < 1e-10


def test_fit_fringe_constant_data():
    phi = np.linspace(0, 2 * np.pi, 20, endpoint=False)
    bins = np.column_stack([phi, np.full_like(phi, 0.37), np.full_like(phi, 100)])
    for m in (1, 2):
        fit = fit_fringe(bins, harmonic=m)
        assert fit.amplitude < 1e-12
        assert fit.offset == pytest.approx(0.37, abs=1e-12)


def test_fit_fringe_recovers_planted_parameters_within_3_sigma():
    rng = np.random.default_rng(8)
    n_per_bin = 4000
    phi = np.linspace(0, 2 * np.pi, 20, endpoint=False) + np.pi / 20
    for _ in range(10):
        a_true = rng.uniform(0.1, 0.45)
        ph_true = rng.uniform(-np.pi, np.pi)
        p_true = 0.5 + a_true * np.cos(phi + ph_true)
        counts_up = rng.binomial(n_per_bin, p_true)
        bins = np.column_stack(
            [phi, counts_up / n_per_bin, np.full_like(phi, n_per_bin)]
        )
        fit = fit_fringe(bins, harmonic=1)
        # quadrature amplitudes have variance ~ 2 * var(p) / n_bins
        sigma_quad = np.sqrt(2 * np.mean(p_true * (1 - p_true) / n_per_bin) / len(phi))
        assert abs(fit.amplitude - a_true) < 3.5 * sigma_quad
        dphi = np.angle(np.exp(1j * (fit.phase - ph_true)))
        assert abs(dphi) < 3.5 * sigma_quad / a_true


def test_fit_fringe_validates_inputs():
    phi = np.linspace(0, 2 * np.pi, 6, endpoint=False)
    bins = np.column_stack([phi, np.full_like(phi, 0.5), np.full_like(phi, 10)])
    with pytest.raises(ValueError):
        fit_fringe(bins, harmonic=3)
    bins[:, 2] = 0
    bins[0, 2] = 5
    bins[1, 2] = 5
    with pytest.raises(UnderdeterminedFitError):
        fit_fringe(bins, harmonic=1)


def test_shot_counts_fringe_counts_and_centers():
    phi = np.array([0.05, 0.05, 3.2, 6.2])
    up = np.array([True, False, True, True])
    shots = SimpleNamespace(
        branch=np.ones(4, dtype=np.int8), phi_tac=phi, outcome_up=up,
        n_attempts=np.ones(4, dtype=np.int64),
    )
    bins = ShotCounts.of(shots, 4).fringe(1)
    assert bins.shape == (4, 3)
    np.testing.assert_allclose(bins[:, 0], (np.arange(4) + 0.5) * np.pi / 2)
    assert bins[0, 2] == 2 and bins[0, 1] == 0.5
    assert bins[2, 2] == 1 and bins[2, 1] == 1.0
    assert bins[3, 2] == 1


def random_shots(rng, n):
    return SimpleNamespace(
        branch=rng.integers(0, 3, n).astype(np.int8),
        phi_tac=rng.uniform(-7.0, 14.0, n),
        outcome_up=rng.random(n) < 0.3,
        n_attempts=rng.geometric(0.01, n).astype(np.int64),
    )


def test_shot_counts_tables_equal_oracle_fringe():
    rng = np.random.default_rng(32)
    shots = random_shots(rng, 5000)
    counts = ShotCounts.of(shots, 11)
    assert counts.n.shape == (3, 11, 2) and counts.n.sum() == 5000
    heralded = shots.branch > 0
    assert counts.attempts == int(shots.n_attempts[heralded].sum())
    for b in (0, 1, 2):
        sel = shots.branch == b
        expected = oracle_fringe(shots.phi_tac[sel], shots.outcome_up[sel], 11)
        np.testing.assert_array_equal(counts.fringe(b), expected)
        assert counts.up_counts((b,)) == (int(shots.outcome_up[sel].sum()), int(sel.sum()))
    expected = oracle_fringe(shots.phi_tac[heralded], shots.branch[heralded] == 1, 11)
    np.testing.assert_array_equal(counts.branch_fringe(), expected)
    assert counts.up_counts((0, 1, 2)) == (int(shots.outcome_up.sum()), 5000)


@pytest.mark.parametrize("n_bins", [1, 3, 7, 20, 64])
def test_phase_bin_equals_digitize_at_the_edges(n_bins):
    # oracle: wrap with np.mod, then np.digitize over the same linspace edges
    tau = 2.0 * np.pi
    edges = np.linspace(0.0, tau, n_bins + 1)
    rng = np.random.default_rng(n_bins)
    phi = np.concatenate([
        edges,
        np.nextafter(edges, -np.inf),
        np.nextafter(edges, np.inf),
        [0.0, -0.0, np.nextafter(tau, 0.0), tau, -1e-300],
        tau + rng.uniform(0.0, 50.0, 100),
        -tau * np.arange(1.0, 6.0),
        rng.uniform(0.0, tau, 10**5),
    ])
    assert np.mod(-1e-300, tau) == tau

    def oracle(x):
        return np.clip(np.digitize(np.mod(x, tau), edges) - 1, 0, n_bins - 1)

    # values outside [0, 2 pi) take the wrapped path, the rest the direct one
    inside = phi[(phi >= 0.0) & (phi < tau)]
    for x in (phi, inside):
        np.testing.assert_array_equal(_phase_bin(x, n_bins), oracle(x))


def test_shot_counts_add_and_sum_attempts_exactly():
    rng = np.random.default_rng(33)
    a, b = random_shots(rng, 300), random_shots(rng, 200)
    a.n_attempts[:] = 2**62 + 12345  # an int64 sum of these would wrap
    b.n_attempts[:] = 2**40 + 1
    total = ShotCounts.of(a, 4) + ShotCounts.of(b, 4)
    assert total.attempts == sum(a.n_attempts[a.branch > 0].tolist()) + sum(
        b.n_attempts[b.branch > 0].tolist()
    )
    assert total.attempts > 2**63
    assert np.array_equal(total.n, ShotCounts.of(a, 4).n + ShotCounts.of(b, 4).n)


@pytest.mark.parametrize("n_bins", [0, -1])
def test_shot_counts_reject_fewer_than_one_bin(n_bins):
    shots = random_shots(np.random.default_rng(34), 10)
    with pytest.raises(ValueError, match=rf"n_bins must be >= 1, got {n_bins}"):
        ShotCounts.of(shots, n_bins)


# ---------------------------------------------------------------------------
# full pipeline smoke
# ---------------------------------------------------------------------------


def test_reconstruct_random_channels_smoke():
    rng = np.random.default_rng(9)
    for _ in range(3):
        g = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
        q, _ = np.linalg.qr(g)
        kraus = [q[:2], q[2:]]
        result = reconstruct(synthetic_outcomes(kraus, 20_000, rng))
        t_true = kraus_transfer(kraus)
        assert np.abs(result.ptm - t_true).max() < 0.05
        assert 0.0 <= result.identity_overlap <= 1.0 + 1e-9

"""Acceptance suite: one test per criterion (ideal and error-budget variants
split where both are specified), each printing a PASS/FAIL line.

Heavy Monte Carlo inputs (10^5 shots per tomography setting) are shared
through session fixtures; run `pytest tests/test_acceptance.py -v -s` to see
the per-criterion lines as they are produced.
"""

import math

import numpy as np
import pytest

from spinherald.engine import (
    ErrorBudget,
    ExperimentConfig,
    get_sequence,
    noisy_joint_state,
    run_experiment,
)
from spinherald.scattering import (
    PolarizationBasis,
    branch_operators,
    entanglement_fidelity,
    joint_state,
)
from spinherald.spinalg import ID2, KET_UP
from spinherald.tomography import (
    chi_to_choi,
    estimate_ptm,
    fit_fringe,
    project_cptp,
    reconstruct,
)
from spinherald.engine import correction_for

from conftest import (
    ACCEPT_SEED,
    PLAN,
    kraus_transfer,
    oracle_fringe,
    ranges_equal_serial,
    synthetic_outcomes,
    tomography_frames,
)

NOMINAL = ErrorBudget(
    p_multi=0.05,
    p_dark=0.03,
    e_prep=0.015,
    e_meas=0.015,
    pol_misalign=0.01,
    phi_jitter_sigma=0.17,
)


def wrap(a):
    return float(np.angle(np.exp(1j * np.asarray(a))))


def report(criterion: str, checks: list[tuple[str, bool, str]]):
    failures = []
    for label, ok, detail in checks:
        print(f"ACCEPTANCE {criterion} [{label}]: {'PASS' if ok else 'FAIL'} {detail}")
        if not ok:
            failures.append(f"{label}: {detail}")
    assert not failures, f"criterion {criterion} failed -> " + " | ".join(failures)


# ---------------------------------------------------------------------------
# shared heavy runs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def identity_ideal():
    return reconstruct(tomography_frames("no_scatter", ErrorBudget(), ACCEPT_SEED + 10))


@pytest.fixture(scope="session")
def identity_spam():
    spam = ErrorBudget(e_prep=0.015, e_meas=0.015)
    return reconstruct(tomography_frames("no_scatter", spam, ACCEPT_SEED + 11))


@pytest.fixture(scope="session")
def uncorrected_ideal(ideal_uncorrected_frames):
    return reconstruct(ideal_uncorrected_frames)


@pytest.fixture(scope="session")
def uncorrected_ideal_branches(ideal_uncorrected_frames):
    frames = ideal_uncorrected_frames
    v = reconstruct({k: f.select(f.branch == 1) for k, f in frames.items()})
    h = reconstruct({k: f.select(f.branch == 2) for k, f in frames.items()})
    return v, h


@pytest.fixture(scope="session")
def uncorrected_nominal_frames():
    return tomography_frames("scatter_HV", NOMINAL, ACCEPT_SEED + 12)


@pytest.fixture(scope="session")
def uncorrected_nominal_v(uncorrected_nominal_frames):
    frames = uncorrected_nominal_frames
    return reconstruct({k: f.select(f.branch == 1) for k, f in frames.items()})


@pytest.fixture(scope="session")
def corrected_hv_ideal():
    return reconstruct(
        tomography_frames("corrected_HV", ErrorBudget(), ACCEPT_SEED + 13)
    )


@pytest.fixture(scope="session")
def corrected_hv_nominal():
    return reconstruct(tomography_frames("corrected_HV", NOMINAL, ACCEPT_SEED + 14))


@pytest.fixture(scope="session")
def corrected_45_ideal():
    return reconstruct(
        tomography_frames("corrected_45", ErrorBudget(), ACCEPT_SEED + 15)
    )


@pytest.fixture(scope="session")
def corrected_45_nominal():
    return reconstruct(tomography_frames("corrected_45", NOMINAL, ACCEPT_SEED + 16))


def ramsey_fits(sequence_name, errors, seed, harmonic, shots=100_000):
    cfg = ExperimentConfig(shots=shots, seed=seed, p_exc=0.075, errors=errors)
    frame = run_experiment(cfg, get_sequence(sequence_name))
    fits = {}
    for b in (1, 2):
        sel = frame.select(frame.branch == b)
        fits[b] = fit_fringe(oracle_fringe(sel.phi_tac, sel.outcome_up, 20), harmonic)
    return fits


# ---------------------------------------------------------------------------
# criterion 1: identity benchmark
# ---------------------------------------------------------------------------


def test_criterion_1_identity_benchmark(identity_ideal, identity_spam):
    overlap = identity_ideal.identity_overlap
    spam_overlap = identity_spam.identity_overlap
    report(
        "1",
        [
            ("ideal", overlap >= 0.99, f"identity overlap {overlap:.4f} >= 0.99"),
            (
                "spam 0.015/0.015",
                abs(spam_overlap - 0.97) <= 0.015,
                f"identity overlap {spam_overlap:.4f} in 0.97 +- 0.015",
            ),
        ],
    )


# ---------------------------------------------------------------------------
# criterion 2: unconditioned scattering
# ---------------------------------------------------------------------------


def test_criterion_2_unconditioned_scattering(uncorrected_ideal):
    chi = uncorrected_ideal.chi
    target = np.diag([0.5, 0.25, 0.25, 0.0])
    chi_err = max(np.abs(chi.real - target).max(), np.abs(chi.imag).max())
    overlap = uncorrected_ideal.identity_overlap
    axes = uncorrected_ideal.ellipsoid.semi_axes
    axes_err = np.abs(axes - (0.5, 0.5, 0.0)).max()
    report(
        "2",
        [
            ("chi", chi_err <= 0.02, f"max |chi - diag(.5,.25,.25,0)| = {chi_err:.4f}"),
            (
                "overlap",
                abs(overlap - 0.5) <= 0.02,
                f"identity overlap {overlap:.4f} in 0.50 +- 0.02",
            ),
            (
                "ellipsoid",
                axes_err <= 0.02,
                f"semi-axes {np.round(axes, 4)} vs (0.5, 0.5, 0)",
            ),
        ],
    )


def _rot3(azimuth, angle):
    """Right-handed rotation about the equatorial axis at `azimuth`."""
    k = np.array([math.cos(azimuth), math.sin(azimuth), 0.0])
    kx = np.array([[0, -k[2], k[1]], [k[2], 0, -k[0]], [-k[1], k[0], 0]])
    return math.cos(angle) * np.eye(3) + math.sin(angle) * kx + (
        1 - math.cos(angle)
    ) * np.outer(k, k)


def analytic_nominal_overlap(theta, corrected, branch_filter=None):
    """Identity overlap of the nominal-error channel by direct quadrature.

    Independent of the engine and estimator: composes the 3x3 Bloch maps of
    the scattering kick (misaligned basis), the optional extra-scattering
    channel, the heralded correction at the jittered recorded phase and the
    dark-count admixture, averaging the true phase uniformly and the jitter
    over a Gauss-Hermite grid, then applies the SPAM shrink factors.
    """
    e = NOMINAL
    contraction = np.diag([0.5, 0.5, 0.0])
    multi_mix = (1 - e.p_multi) * np.eye(3) + e.p_multi * contraction
    nodes, weights = np.polynomial.hermite.hermgauss(21)
    deltas = math.sqrt(2.0) * e.phi_jitter_sigma * nodes
    dweights = weights / math.sqrt(math.pi)
    phis = np.linspace(0.0, 2 * math.pi, 720, endpoint=False)

    branches = (1, 2) if branch_filter is None else (branch_filter,)
    t_avg = np.zeros((3, 3))
    for b in branches:
        theta_eff = theta + e.pol_misalign + (b - 1) * math.pi / 2
        theta_nom = theta + (b - 1) * math.pi / 2
        t_branch = np.zeros((3, 3))
        for phi in phis:
            kick = _rot3(phi, -2.0 * theta_eff)
            after_kick = multi_mix @ kick
            if corrected:
                for delta, w in zip(deltas, dweights):
                    t_branch += w * _rot3(phi + delta, 2.0 * theta_nom) @ after_kick
            else:
                t_branch += after_kick
        t_branch /= len(phis)

        # dark heralds: no kick, possible extra scattering, spurious pulse
        t_dark = np.zeros((3, 3))
        if corrected:
            for phi in phis:
                t_dark += _rot3(phi, 2.0 * theta_nom) @ multi_mix
            t_dark /= len(phis)
        else:
            t_dark = multi_mix

        t_avg += ((1 - e.p_dark) * t_branch + e.p_dark * t_dark) / len(branches)

    spam = (1 - 2 * e.e_prep) * (1 - 2 * e.e_meas)
    return (1.0 + spam * np.trace(t_avg)) / 4.0


def test_nominal_model_cross_validation(
    uncorrected_nominal_v, corrected_hv_nominal, corrected_45_nominal
):
    # dual route: the Monte Carlo + tomography estimates must agree with the
    # quadrature-composed channels; this pins the measured values quoted in
    # the nominal acceptance assertions to the model, not to estimator bugs
    cases = [
        ("uncorrected V", uncorrected_nominal_v, analytic_nominal_overlap(0.0, False, branch_filter=1)),
        ("corrected HV", corrected_hv_nominal, analytic_nominal_overlap(0.0, True)),
        ("corrected 45", corrected_45_nominal, analytic_nominal_overlap(math.pi / 4, True)),
    ]
    for label, result, predicted in cases:
        measured = result.identity_overlap
        assert abs(measured - predicted) < 0.01, (
            f"{label}: measured {measured:.4f} vs analytic {predicted:.4f}"
        )
        print(f"MODEL CHECK {label}: analytic {predicted:.4f}, measured {measured:.4f}")


def test_error_regime_pancake_reference(uncorrected_nominal_frames):
    # loose comparison against the measured experiment: with the error budget
    # on, the unconditioned pancake shrinks below the ideal 0.5 equatorial
    # radius (the experiment reported ~0.4) and stays thin along z (reported
    # 0.05, there dominated by projection noise)
    result = reconstruct(uncorrected_nominal_frames)
    axes = result.ellipsoid.semi_axes
    assert 0.35 <= axes[0] <= 0.5 and 0.35 <= axes[1] <= 0.5
    assert axes[2] <= 0.05


# ---------------------------------------------------------------------------
# criterion 3: Rayleigh / Raman conditioning
# ---------------------------------------------------------------------------


def test_criterion_3_conditioning_ideal(uncorrected_ideal_branches):
    v, h = uncorrected_ideal_branches
    h_block_err = np.abs(h.ptm[1:, 1:] - np.diag([0.0, 0.0, -1.0])).max()
    report(
        "3-ideal",
        [
            (
                "branch V",
                v.identity_overlap >= 0.99,
                f"overlap {v.identity_overlap:.4f} >= 0.99",
            ),
            (
                "branch H",
                h_block_err <= 0.02,
                f"max |bloch - diag(0,0,-1)| = {h_block_err:.4f}",
            ),
        ],
    )


def test_criterion_3_conditioning_nominal_error_budget(uncorrected_nominal_v):
    overlap = uncorrected_nominal_v.identity_overlap
    report(
        "3-nominal",
        [
            (
                "branch V",
                0.83 <= overlap <= 0.91,
                f"overlap {overlap:.4f} in 0.87 +- 0.04",
            )
        ],
    )


# ---------------------------------------------------------------------------
# criterion 4: H/V correction
# ---------------------------------------------------------------------------


def test_criterion_4_hv_correction_ideal(corrected_hv_ideal):
    overlap = corrected_hv_ideal.identity_overlap
    report("4-ideal", [("overlap", overlap >= 0.99, f"{overlap:.4f} >= 0.99")])


def test_criterion_4_hv_correction_nominal_error_budget(corrected_hv_nominal):
    overlap = corrected_hv_nominal.identity_overlap
    report(
        "4-nominal",
        [("overlap", 0.78 <= overlap <= 0.88, f"{overlap:.4f} in [0.78, 0.88]")],
    )


# ---------------------------------------------------------------------------
# criterion 5: 45-degree correction
# ---------------------------------------------------------------------------


def test_criterion_5_45_correction_ideal(corrected_45_ideal):
    overlap = corrected_45_ideal.identity_overlap
    report("5-ideal", [("overlap", overlap >= 0.99, f"{overlap:.4f} >= 0.99")])


def test_criterion_5_45_correction_nominal_error_budget(corrected_45_nominal):
    overlap = corrected_45_nominal.identity_overlap
    report(
        "5-nominal",
        [("overlap", 0.80 <= overlap <= 0.90, f"{overlap:.4f} in [0.80, 0.90]")],
    )


# ---------------------------------------------------------------------------
# criterion 6: Ramsey fringes
# ---------------------------------------------------------------------------


def test_criterion_6_ramsey_fringes():
    hv = ramsey_fits("ramsey_HV", ErrorBudget(), ACCEPT_SEED + 20, harmonic=2)
    r45 = ramsey_fits("ramsey_45", ErrorBudget(), ACCEPT_SEED + 21, harmonic=1)
    r45b = ramsey_fits(
        "ramsey_45", ErrorBudget(biref_phase=0.5), ACCEPT_SEED + 22, harmonic=1
    )

    diff_ideal = abs(wrap(r45[2].phase - r45[1].phase))
    diff_biref = abs(wrap(r45b[2].phase - r45b[1].phase))
    # common offset relative to the biref-free fringes (branch 2 carries pi)
    offsets = np.array([wrap(r45b[1].phase), wrap(r45b[2].phase - math.pi)])
    common = float(np.angle(np.mean(np.exp(1j * offsets))))

    report(
        "6",
        [
            (
                "HV Raman double fringe",
                hv[2].contrast >= 0.97,
                f"m=2 contrast {hv[2].contrast:.4f} >= 0.97",
            ),
            (
                "HV Rayleigh flat",
                hv[1].amplitude <= 0.03,
                f"fitted amplitude {hv[1].amplitude:.4f} <= 0.03",
            ),
            (
                "45 opposite phases",
                abs(diff_ideal - math.pi) <= 0.05,
                f"|phase difference| = {diff_ideal:.4f} vs pi +- 0.05",
            ),
            (
                "45 contrast",
                min(r45[1].contrast, r45[2].contrast) >= 0.97,
                f"m=1 contrasts ({r45[1].contrast:.3f}, {r45[2].contrast:.3f})",
            ),
            (
                "birefringence offset",
                abs(common - 0.5) <= 0.05 and abs(diff_biref - math.pi) <= 0.05,
                f"common offset {common:+.4f} vs +0.5 +- 0.05 "
                f"(pi difference kept: {diff_biref:.4f})",
            ),
        ],
    )


# ---------------------------------------------------------------------------
# criterion 7: entanglement fidelity
# ---------------------------------------------------------------------------


def test_criterion_7_entanglement_fidelity():
    rng = np.random.default_rng(ACCEPT_SEED)
    worst = 1.0
    for _ in range(20):
        psi = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi /= np.linalg.norm(psi)
        phase = rng.uniform(0, 2 * math.pi)
        ideal = joint_state(psi, phase)
        f_direct = entanglement_fidelity(np.outer(ideal, ideal.conj()), psi, phase)
        f_model = entanglement_fidelity(
            noisy_joint_state(psi, phase, ErrorBudget()), psi, phase
        )
        worst = min(worst, f_direct, f_model)
    nominal = entanglement_fidelity(
        noisy_joint_state(KET_UP, 0.0, NOMINAL), KET_UP, 0.0
    )
    report(
        "7",
        [
            (
                "ideal",
                abs(worst - 1.0) <= 1e-10,
                f"state-vector fidelity {worst:.12f} = 1 +- 1e-10",
            ),
            ("nominal", nominal >= 0.80, f"error-model fidelity {nominal:.4f} >= 0.80"),
        ],
    )


# ---------------------------------------------------------------------------
# criterion 8: property suites
# ---------------------------------------------------------------------------


def _check_completeness(rng) -> bool:
    for _ in range(1000):
        basis = PolarizationBasis(
            rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi / 4, math.pi / 4)
        )
        m1, m2 = branch_operators(basis=basis, phase=rng.uniform(0, 2 * math.pi))
        if not np.allclose(m1.conj().T @ m1 + m2.conj().T @ m2, ID2, atol=1e-10):
            return False
    return True


def _check_reversibility(rng) -> bool:
    for _ in range(1000):
        theta = rng.uniform(-math.pi, math.pi)
        phi = rng.uniform(0, 2 * math.pi)
        psi = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi /= np.linalg.norm(psi)
        basis = PolarizationBasis(theta, 0.0)
        ops = branch_operators(basis=basis, phase=phi)
        for branch in (1, 2):
            kicked = math.sqrt(2) * ops[branch - 1] @ psi
            spec = correction_for(basis, branch, phi)
            restored = kicked if spec is None else spec.matrix() @ kicked
            if abs(abs(np.vdot(psi, restored)) ** 2 - 1.0) > 1e-10:
                return False
    return True


def _check_cptp_guarantees(rng) -> bool:
    for _ in range(50):
        h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        chi = np.diag([0.6, 0.2, 0.1, 0.1]) + 0.3 * (h + h.conj().T)
        out = project_cptp(chi)
        if np.linalg.eigvalsh(out).min() < -1e-9:
            return False
        traced = np.trace(chi_to_choi(out).reshape(2, 2, 2, 2), axis1=1, axis2=3)
        if np.abs(traced - np.eye(2)).max() > 1e-8:
            return False
    return True


def _check_determinism() -> bool:
    cfg = ExperimentConfig(
        shots=4000, seed=ACCEPT_SEED + 30, p_exc=0.5, eta=0.7, errors=NOMINAL
    )
    seq = get_sequence("corrected_HV")
    serial = run_experiment(cfg, seq)
    if not serial.equals(run_experiment(cfg, seq)):
        return False
    return all(ranges_equal_serial(serial, cfg, seq, parts) for parts in (2, 5))


def _check_oracle_equivalence(rng) -> bool:
    shots = 100_000
    design = np.array(
        [[1.0, 0, 0, 1.0], [1.0, 0, 0, -1.0], [1.0, 1.0, 0, 0], [1.0, 0, 1.0, 0]]
    )
    inv = np.linalg.inv(design)
    for _ in range(10):
        g = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
        q, _ = np.linalg.qr(g)
        kraus = [q[:2], q[2:]]
        t_true = kraus_transfer(kraus)
        outcomes = synthetic_outcomes(kraus, shots, rng)
        ptm = estimate_ptm(outcomes)

        # propagate binomial standard errors through the linear inversion
        p_true = {}
        for s in PLAN:
            out = t_true @ np.array([1.0, *s.prep_bloch])
            p_true[s.index] = 0.5 * (1.0 + float(np.dot(s.axis_bloch, out[1:])))
        for axis_idx, axis in enumerate("xyz"):
            rows = [s for s in PLAN if s.axis_label == axis]
            var_m = np.array(
                [4.0 * p_true[s.index] * (1 - p_true[s.index]) / shots for s in rows]
            )
            se_coeff = np.sqrt(inv**2 @ var_m)
            est = np.concatenate(
                [[ptm[1 + axis_idx, 0]], ptm[1 + axis_idx, 1:]]
            )
            true = np.concatenate(
                [[t_true[1 + axis_idx, 0]], t_true[1 + axis_idx, 1:]]
            )
            if np.any(np.abs(est - true) > 3.0 * se_coeff + 1e-9):
                return False
    return True


def test_criterion_8_property_suites():
    rng = np.random.default_rng(ACCEPT_SEED + 40)
    checks = [
        (
            "measurement completeness",
            _check_completeness(rng),
            "sum M^dag M = I within 1e-10 over 1000 random bases/phases",
        ),
        (
            "heralded reversibility",
            _check_reversibility(rng),
            "fidelity 1 within 1e-10 over 1000 random (state, theta, phi) triples",
        ),
        (
            "CPTP projection guarantees",
            _check_cptp_guarantees(rng),
            "projected chi PSD (>= -1e-9) and trace preserving (1e-9)",
        ),
        (
            "seeded determinism",
            _check_determinism(),
            "bit-identical records, serial == partitioned (2 and 5 ranges)",
        ),
        (
            "tomography oracle equivalence",
            _check_oracle_equivalence(rng),
            "10 random channels within 3 binomial standard errors entrywise",
        ),
    ]
    report("8", checks)

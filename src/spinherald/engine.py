"""Seeded Monte Carlo engine for the heralded scattering-correction sequence.

One shot runs: optical-pumping preparation (with flip error), preparation
pulse, excitation attempts repeated until a herald, a polarization-resolved
scattering kick with a recorded precession phase phi_tac, an optional extra
undetected scattering event, the heralded correction pulse, the analysis
pulse and a projective z measurement (with flip error).

Randomness contract: shot i consumes a fixed block of 12 uniform variates
taken from a Philox counter stream keyed by the run seed.  Any partition of
the shot range regenerates exactly its own rows (`shot_stream` exposes the
stream of a single shot), so the produced records are bit-identical for any
worker count or execution order.

The per-shot state is tracked as a Bloch vector; scattering branch operators
enter through their 4x4 Pauli transfer matrices conjugated by the per-shot
precession phase, which keeps every step vectorized across shots.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace

import numpy as np
from scipy.special import ndtri
from scipy.stats import binom

from .scattering import (
    DEFAULT_EXCITATION,
    PolarizationBasis,
    branch_operators_from_vectors,
)
from .spinalg import ID2, SIGMA_X, SIGMA_Y, pauli_transfer, rotation_bloch

__all__ = [
    "DRAWS_PER_SHOT",
    "RotationSpec",
    "UnsupportedCorrectionError",
    "ErrorBudget",
    "ExperimentConfig",
    "PulseSequence",
    "ShotFrame",
    "PREPARATIONS",
    "correction_for",
    "standard_sequences",
    "get_sequence",
    "run_shot",
    "run_experiment",
    "run_plan",
    "shot_stream",
    "derive_seed",
    "noisy_joint_state",
]

TAU = 2.0 * math.pi

# Uniform variates consumed per shot; a multiple of 4 so that shot substreams
# sit on Philox counter boundaries.  Slots: 0 prep flip, 1 attempt count,
# 2 undetected-scatter count, 3 dark herald, 4 scattering phase, 5 phase
# jitter, 6 branch, 7 extra scatter, 8 measurement, 9 measurement flip,
# 10-11 reserved.
DRAWS_PER_SHOT = 12
_BLOCKS_PER_SHOT = DRAWS_PER_SHOT // 4


class UnsupportedCorrectionError(ValueError):
    """Correction requested for a non-linear (irreversible) analysis basis."""


# ---------------------------------------------------------------------------
# pulse and sequence specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RotationSpec:
    """An rf pulse: rotation by `angle` about the real unit vector `axis`."""

    axis: tuple[float, float, float]
    angle: float

    def matrix(self) -> np.ndarray:
        from .spinalg import rotation

        return rotation(self.axis, self.angle)

    def bloch_matrix(self) -> np.ndarray:
        return rotation_bloch(self.axis, self.angle)

    @classmethod
    def equatorial(cls, angle: float, azimuth: float) -> "RotationSpec":
        return cls((math.cos(azimuth), math.sin(azimuth), 0.0), angle)


X_AXIS = (1.0, 0.0, 0.0)
Y_AXIS = (0.0, 1.0, 0.0)
Z_AXIS = (0.0, 0.0, 1.0)

# Named state preparations (rotation applied to |up>): the four tomography
# inputs.  plus_x = (|up>+|down>)/sqrt2, plus_y = (|up>+i|down>)/sqrt2.
PREPARATIONS: dict[str, RotationSpec | None] = {
    "up": None,
    "down": RotationSpec(X_AXIS, math.pi),
    "plus_x": RotationSpec(Y_AXIS, math.pi / 2),
    "plus_y": RotationSpec(X_AXIS, -math.pi / 2),
}


def _wrap_angle(a: float) -> float:
    """Wrap to (-pi, pi]."""
    w = math.fmod(a + math.pi, TAU)
    if w <= 0.0:
        w += TAU
    return w - math.pi


def correction_for(
    basis: PolarizationBasis, branch: int, phi_tac: float
) -> RotationSpec | None:
    """Pulse that inverts the announced branch operator of a linear basis.

    Branch operators of a linear basis at angle theta are exp(i*theta'*
    sigma_phi) with theta' = theta (branch 1) or theta + pi/2 (branch 2); the
    inverse is a rotation by 2*theta' about the equatorial axis at azimuth
    phi_tac.  theta = 0 gives {branch 1: no pulse, branch 2: pi pulse};
    theta = pi/4 gives +-pi/2 pulses.
    """
    if not basis.is_linear:
        raise UnsupportedCorrectionError(
            "heralded correction requires a linear analysis basis; "
            f"ellipticity = {basis.ellipticity!r} is projective and irreversible"
        )
    if branch not in (1, 2):
        raise ValueError(f"branch must be 1 or 2, got {branch!r}")
    theta_b = basis.theta if branch == 1 else basis.theta + math.pi / 2
    angle = _wrap_angle(2.0 * theta_b)
    if abs(angle) < 1e-12:
        return None
    return RotationSpec.equatorial(angle, phi_tac)


@dataclass(frozen=True)
class PulseSequence:
    """One experimental sequence: prep pulse, at most one scatter block with
    optional heralded correction, analysis pulse, projective z measurement.

    corrected applies, after the scatter block, the pulse that correction_for
    derives from the scatter basis, the detector branch and the recorded
    phi_tac; it needs a linear scatter basis.

    scatter_first reorders the pipeline so the scattering kick (plus its
    correction) acts before the prep pulse; the double-fringe experiment in
    the 45 degree basis uses it so the photon kick replaces the first pulse.
    scatter = None disables scattering entirely (identity benchmark).
    """

    name: str
    prep: RotationSpec | None = None
    scatter: PolarizationBasis | None = None
    corrected: bool = False
    analysis: RotationSpec | None = None
    scatter_first: bool = False

    def __post_init__(self):
        if self.corrected:
            if self.scatter is None:
                raise ValueError("correction requires a scatter block")
            correction_for(self.scatter, 1, 0.0)  # rejects a non-linear basis


@dataclass(frozen=True)
class ErrorBudget:
    """Experimental imperfections injected by the engine.

    p_multi       extra undetected scattering event per heralded shot
    p_dark        probability that a herald is a detector dark count
    e_prep        preparation flip probability (before the prep pulse)
    e_meas        measurement outcome flip probability
    pol_misalign  rotation error of the analysis basis, radians
    biref_phase   uncompensated retardation between the z and y analysis
                  components, radians
    phi_jitter_sigma  Gaussian noise on the recorded phi_tac, radians
    """

    p_multi: float = 0.0
    p_dark: float = 0.0
    e_prep: float = 0.0
    e_meas: float = 0.0
    pol_misalign: float = 0.0
    biref_phase: float = 0.0
    phi_jitter_sigma: float = 0.0

    def __post_init__(self):
        for name in ("p_multi", "p_dark", "e_prep", "e_meas"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {p!r}")
        for name in ("pol_misalign", "biref_phase", "phi_jitter_sigma"):
            a = getattr(self, name)
            if not math.isfinite(a):
                raise ValueError(f"{name} must be finite, got {a!r}")
        if self.phi_jitter_sigma < 0.0:
            raise ValueError("phi_jitter_sigma must be >= 0")

    @classmethod
    def nominal(cls) -> "ErrorBudget":
        """Error budget matching the experiment: 5% multiple scattering, 3%
        dark counts, 3% combined preparation/detection error split evenly,
        0.01 rad analysis misalignment and 0.17 rad phase jitter."""
        return cls(
            p_multi=0.05,
            p_dark=0.03,
            e_prep=0.015,
            e_meas=0.015,
            pol_misalign=0.01,
            phi_jitter_sigma=0.17,
        )


@dataclass(frozen=True)
class ExperimentConfig:
    """Run parameters: shot count, seed, excitation and detection
    probabilities and the error budget.

    eta = 1 folds every scattering event into a herald; with eta < 1 each
    unheralded attempt that scattered applies the unconditioned decoherence
    channel, which is the dominant effect at realistic detection
    efficiencies (the experiment measured eta = 2.5e-3).
    """

    shots: int
    seed: int
    p_exc: float = 1.0
    eta: float = 1.0
    errors: ErrorBudget = field(default_factory=ErrorBudget)

    def __post_init__(self):
        if self.shots < 1:
            raise ValueError(f"shots must be >= 1, got {self.shots!r}")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        for name in ("p_exc", "eta"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {p!r}")


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ShotFrame:
    """Columnar shot records of one setting: the records-file columns
    except setting_id.

    branch 0 / n_attempts 0 mark sequences without a scatter block.  `select`
    indexes every column alike; column arrays are never mutated.
    """

    shot_id: np.ndarray
    branch: np.ndarray
    phi_tac: np.ndarray
    outcome_up: np.ndarray
    n_attempts: np.ndarray

    def __len__(self) -> int:
        return len(self.shot_id)

    def _columns(self) -> tuple:
        return tuple(getattr(self, f.name) for f in fields(self))

    def select(self, mask) -> "ShotFrame":
        return ShotFrame(*(col[mask] for col in self._columns()))

    def equals(self, other: "ShotFrame") -> bool:
        pairs = zip(self._columns(), other._columns())
        return all(np.array_equal(a, b) for a, b in pairs)


# ---------------------------------------------------------------------------
# randomness plumbing
# ---------------------------------------------------------------------------


def _philox_key(seed: int) -> np.ndarray:
    return np.random.SeedSequence(seed).generate_state(2, np.uint64)


def shot_stream(seed: int, shot_id: int) -> np.random.Generator:
    """Random stream of one shot: the run's Philox stream advanced to the
    shot's counter block.  run_shot on this stream reproduces exactly the
    row that run_experiment emits at the same index, as a one-row frame."""
    bg = np.random.Philox(key=_philox_key(seed))
    bg.advance(shot_id * _BLOCKS_PER_SHOT)
    return np.random.Generator(bg)


def _draw_rows(seed: int, start: int, count: int) -> np.ndarray:
    bg = np.random.Philox(key=_philox_key(seed))
    bg.advance(start * _BLOCKS_PER_SHOT)
    return np.random.Generator(bg).random((count, DRAWS_PER_SHOT))


def derive_seed(seed: int, index: int) -> int:
    """Deterministic child seed for sub-run `index` of a master seed."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1, np.uint64)[0])


def _geometric(u: np.ndarray, p: float) -> np.ndarray:
    """Inverse-CDF geometric trial count (support 1, 2, ...)."""
    if p >= 1.0:
        return np.ones(u.shape, dtype=np.int64)
    n = 1 + np.floor(np.log1p(-u) / math.log1p(-p))
    return np.maximum(n, 1).astype(np.int64)


def _binomial_icdf(u: np.ndarray, n: np.ndarray, p: float) -> np.ndarray:
    """Inverse-CDF binomial draw, vectorized over per-shot trial counts."""
    k = binom.ppf(u, n, p)
    k = np.nan_to_num(k, nan=0.0, posinf=0.0, neginf=0.0)
    return np.clip(k, 0, np.maximum(n, 0)).astype(np.int64)


def _effective_vectors(basis: PolarizationBasis, errors: ErrorBudget) -> np.ndarray:
    """Analysis vectors actually implemented by the imperfect optics."""
    eff = PolarizationBasis(basis.theta + errors.pol_misalign, basis.ellipticity)
    vecs = eff.vectors()
    if errors.biref_phase != 0.0:
        vecs = vecs.copy()
        vecs[:, 1] *= np.exp(1.0j * errors.biref_phase)
    return vecs


# ---------------------------------------------------------------------------
# the simulation kernel
# ---------------------------------------------------------------------------


def _rotate_rows(bloch: np.ndarray, spec: RotationSpec | None) -> np.ndarray:
    if spec is None:
        return bloch
    return bloch @ spec.bloch_matrix().T


def _rz(rows: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Rotate each Bloch row right-handedly about +z by its own angle."""
    c, s = np.cos(phi), np.sin(phi)
    return np.column_stack(
        [c * rows[:, 0] - s * rows[:, 1], s * rows[:, 0] + c * rows[:, 1], rows[:, 2]]
    )


def _apply_scatter_block(config, seq, draws, bloch):
    """Attempts, herald, scattering kick.  Returns updated state and the
    per-shot (n_attempts, branch, phi_rec) columns."""
    err = config.errors
    n = draws.shape[0]
    if config.p_exc * config.eta <= 0.0 and err.p_dark < 1.0:
        raise ValueError("sequence scatters but p_exc * eta = 0: no herald possible")

    if err.p_dark >= 1.0:
        p_herald = 1.0
    else:
        p_herald = min(config.p_exc * config.eta / (1.0 - err.p_dark), 1.0)
    n_att = _geometric(draws[:, 1], p_herald)

    # failed attempts that scattered without a herald decohere the spin
    p_unseen = config.p_exc * (1.0 - config.eta)
    if p_unseen > 0.0:
        k = _binomial_icdf(draws[:, 2], n_att - 1, p_unseen)
        shrink = np.float_power(0.5, k)
        bloch = bloch * np.column_stack([shrink, shrink, (k == 0).astype(float)])

    dark = draws[:, 3] < err.p_dark
    phi_true = TAU * draws[:, 4]
    if err.phi_jitter_sigma > 0.0:
        jitter = err.phi_jitter_sigma * ndtri(
            np.clip(draws[:, 5], 2.0**-53, 1.0 - 2.0**-53)
        )
    else:
        jitter = 0.0
    phi_rec = np.where(dark, phi_true, np.mod(phi_true + jitter, TAU))

    vecs = _effective_vectors(seq.scatter, err)
    m1, m2 = branch_operators_from_vectors(vecs, DEFAULT_EXCITATION, 0.0)
    # unnormalized Pauli transfer matrices of rho -> m rho m^dag
    t1, t2 = pauli_transfer(m1, m1).real, pauli_transfer(m2, m2).real

    # conjugate by Rz(phi_true): rotate the state into the phase-0 frame,
    # apply the fixed transfer matrices, rotate back
    s4 = np.column_stack([np.ones(n), _rz(bloch, -phi_true)])
    w1 = s4 @ t1.T
    w2 = s4 @ t2.T
    p1 = np.where(dark, 0.5, w1[:, 0])
    pick1 = draws[:, 6] < p1
    branch = np.where(pick1, 1, 2).astype(np.int8)

    w = np.where(pick1[:, None], w1, w2)
    norm = np.where(np.abs(w[:, 0]) < 1e-300, 1.0, w[:, 0])
    w = w / norm[:, None]
    bloch = np.where(dark[:, None], bloch, _rz(w[:, 1:], phi_true))

    # possible extra scattering event whose photon was missed
    if err.p_multi > 0.0:
        multi = draws[:, 7] < err.p_multi
        keep_xy = np.where(multi, 0.5, 1.0)
        keep_z = np.where(multi, 0.0, 1.0)
        bloch = bloch * np.column_stack([keep_xy, keep_xy, keep_z])

    return bloch, n_att, branch, phi_rec


def _apply_correction(basis, branch, phi_rec, bloch):
    """Per-shot heralded correction pulses: each branch's phase-0 pulse,
    applied in the frame of the shot's recorded phase."""
    out = bloch.copy()
    for b in (1, 2):
        spec = correction_for(basis, b, 0.0)
        if spec is None:
            continue
        sel = branch == b
        phi = phi_rec[sel]
        out[sel] = _rz(_rz(bloch[sel], -phi) @ spec.bloch_matrix().T, phi)
    return out


def _simulate_rows(
    config: ExperimentConfig,
    seq: PulseSequence,
    draws: np.ndarray,
    first_shot_id: int,
) -> ShotFrame:
    err = config.errors
    n = draws.shape[0]

    # optical pumping into |up>, flipped with probability e_prep
    z0 = np.where(draws[:, 0] < err.e_prep, -1.0, 1.0)
    bloch = np.zeros((n, 3))
    bloch[:, 2] = z0

    n_att = np.zeros(n, dtype=np.int64)
    branch = np.zeros(n, dtype=np.int8)
    phi_rec = np.zeros(n)

    def scatter_and_correct(state):
        nonlocal n_att, branch, phi_rec
        state, n_att, branch, phi_rec = _apply_scatter_block(
            config, seq, draws, state
        )
        if seq.corrected:
            state = _apply_correction(seq.scatter, branch, phi_rec, state)
        return state

    if seq.scatter is not None and seq.scatter_first:
        bloch = scatter_and_correct(bloch)
        bloch = _rotate_rows(bloch, seq.prep)
    else:
        bloch = _rotate_rows(bloch, seq.prep)
        if seq.scatter is not None:
            bloch = scatter_and_correct(bloch)

    bloch = _rotate_rows(bloch, seq.analysis)

    p_up = np.clip(0.5 * (1.0 + bloch[:, 2]), 0.0, 1.0)
    up = draws[:, 8] < p_up
    up ^= draws[:, 9] < err.e_meas

    return ShotFrame(
        shot_id=first_shot_id + np.arange(n, dtype=np.int64),
        branch=branch,
        phi_tac=phi_rec,
        outcome_up=up,
        n_attempts=n_att,
    )


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------


def run_shot(
    config: ExperimentConfig,
    seq: PulseSequence,
    stream: np.random.Generator,
    shot_id: int = 0,
) -> ShotFrame:
    """Execute a single shot, drawing all randomness from `stream`; returns
    a one-row frame."""
    draws = stream.random(DRAWS_PER_SHOT).reshape(1, -1)
    return _simulate_rows(config, seq, draws, shot_id)


def run_experiment(
    config: ExperimentConfig, seq: PulseSequence, workers: int = 1
) -> ShotFrame:
    """Run `config.shots` independent shots of a sequence.

    Shot i consumes the draw block derived from (seed, i) only, so the result
    is bit-identical for any `workers` value; worker threads simulate
    contiguous shot ranges and regenerate exactly their own draws.
    """
    shots = config.shots
    if workers <= 1:
        draws = _draw_rows(config.seed, 0, shots)
        return _simulate_rows(config, seq, draws, 0)

    bounds = np.linspace(0, shots, workers + 1, dtype=int)
    ranges = [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]

    def job(lo: int, hi: int) -> ShotFrame:
        return _simulate_rows(config, seq, _draw_rows(config.seed, lo, hi - lo), lo)

    with ThreadPoolExecutor(max_workers=len(ranges)) as pool:
        parts = list(pool.map(lambda r: job(*r), ranges))

    return ShotFrame(*map(np.concatenate, zip(*(p._columns() for p in parts))))


def run_plan(config: ExperimentConfig, seq: PulseSequence, settings) -> dict:
    """Run one sequence under every (preparation, analysis) setting.

    Each setting runs with prep/analysis pulses swapped into `seq` and its
    own child seed derived from (config.seed, setting.index); returns
    {setting.index: ShotFrame}.
    """
    frames = {}
    for setting in settings:
        seq_s = replace(
            seq,
            name=f"{seq.name}:{setting.label}",
            prep=setting.prep,
            analysis=setting.analysis,
        )
        cfg_s = replace(config, seed=derive_seed(config.seed, setting.index))
        frames[setting.index] = run_experiment(cfg_s, seq_s)
    return frames


# ---------------------------------------------------------------------------
# sequence catalog
# ---------------------------------------------------------------------------


def standard_sequences() -> dict[str, PulseSequence]:
    """Named catalog of the standard sequences.

    tomo_input_1..4   the four tomography preparations over an H/V scatter
    ramsey_HV         pi/2 -- scatter (H/V) -- pi/2, both pulses about +x
    ramsey_45         scatter in the 45-degree basis acts as the first
                      Ramsey pulse, then pi/2 about +x
    corrected_HV      H/V scatter followed by its heralded inverse pulse
    corrected_45      45-degree scatter followed by +-pi/2 inverse pulses
    scatter_HV/45     uncorrected scatter blocks (tomography drivers swap in
                      their own prep/analysis pulses)
    no_scatter        preparation and measurement only (identity benchmark)
    """
    hv = PolarizationBasis(0.0, 0.0)
    diag = PolarizationBasis(math.pi / 4, 0.0)
    half_x = RotationSpec(X_AXIS, math.pi / 2)
    catalog = {
        "no_scatter": PulseSequence("no_scatter"),
        "scatter_HV": PulseSequence("scatter_HV", scatter=hv),
        "scatter_45": PulseSequence("scatter_45", scatter=diag),
        "ramsey_HV": PulseSequence(
            "ramsey_HV", prep=half_x, scatter=hv, analysis=half_x
        ),
        "ramsey_45": PulseSequence(
            "ramsey_45", scatter=diag, analysis=half_x, scatter_first=True
        ),
        "corrected_HV": PulseSequence("corrected_HV", scatter=hv, corrected=True),
        "corrected_45": PulseSequence("corrected_45", scatter=diag, corrected=True),
    }
    for i, (label, prep) in enumerate(PREPARATIONS.items(), start=1):
        catalog[f"tomo_input_{i}"] = PulseSequence(
            f"tomo_input_{i}", prep=prep, scatter=hv
        )
    return catalog


def get_sequence(name: str) -> PulseSequence:
    catalog = standard_sequences()
    try:
        return catalog[name]
    except KeyError:
        raise KeyError(
            f"unknown sequence {name!r}; available: {sorted(catalog)}"
        ) from None


# ---------------------------------------------------------------------------
# analytic joint-state error model
# ---------------------------------------------------------------------------


def noisy_joint_state(
    state_in,
    phase: float,
    errors: ErrorBudget,
    n_quad: int = 41,
) -> np.ndarray:
    """Joint ion-photon density matrix under the error budget.

    Composes, at the state level: the preparation flip, the (misaligned,
    birefringent) analysis basis, Gauss-Hermite averaging over the phi_tac
    jitter (the reference phase is the recorded one), the dark-count
    admixture (unscattered spin with a maximally mixed photon record) and
    the extra-scattering channel on the spin side.  Detection errors e_meas
    affect recorded outcomes, not the state, and are not applied here.
    """
    psi = np.asarray(state_in, dtype=complex)
    psi = psi / np.linalg.norm(psi)
    flipped = np.array([-np.conj(psi[1]), np.conj(psi[0])])
    inputs = [(1.0 - errors.e_prep, psi)]
    if errors.e_prep > 0.0:
        inputs.append((errors.e_prep, flipped))

    vecs = _effective_vectors(PolarizationBasis(0.0, 0.0), errors)
    e_v = np.array([1.0, 0.0], dtype=complex)
    e_h = np.array([0.0, 1.0], dtype=complex)

    if errors.phi_jitter_sigma > 0.0:
        nodes, weights = np.polynomial.hermite.hermgauss(n_quad)
        deltas = math.sqrt(2.0) * errors.phi_jitter_sigma * nodes
        weights = weights / math.sqrt(math.pi)
    else:
        deltas, weights = np.array([0.0]), np.array([1.0])

    rho = np.zeros((4, 4), dtype=complex)
    rho_in = np.zeros((2, 2), dtype=complex)
    for w_in, phi_state in inputs:
        rho_in += w_in * np.outer(phi_state, phi_state.conj())
        for delta, w in zip(deltas, weights):
            m1, m2 = branch_operators_from_vectors(
                vecs, DEFAULT_EXCITATION, phase - delta
            )
            psi4 = np.kron(m1 @ phi_state, e_v) + np.kron(m2 @ phi_state, e_h)
            rho += w_in * w * np.outer(psi4, psi4.conj())

    if errors.p_dark > 0.0:
        rho = (1.0 - errors.p_dark) * rho + errors.p_dark * np.kron(rho_in, ID2 / 2.0)

    if errors.p_multi > 0.0:
        kicked = sum(
            np.kron(k, ID2) @ rho @ np.kron(k, ID2).conj().T
            for k in (ID2 / math.sqrt(2.0), SIGMA_X / 2.0, SIGMA_Y / 2.0)
        )
        rho = (1.0 - errors.p_multi) * rho + errors.p_multi * kicked

    return rho

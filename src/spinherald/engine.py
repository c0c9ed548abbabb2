"""Seeded Monte Carlo engine for the heralded scattering-correction sequence.

One shot runs: optical-pumping preparation (with flip error), preparation
pulse, excitation attempts repeated until a herald, a polarization-resolved
scattering kick with a recorded precession phase phi_tac, an optional extra
undetected scattering event, the heralded correction pulse, the analysis
pulse and a projective z measurement (with flip error).

Randomness contract: shot i consumes a fixed block of 12 uniform variates
taken from a Philox counter stream keyed by the run seed.  `run_experiment`
simulates any contiguous range of shots from its own counter blocks, block
by block, 2^13 shots at a time, which bounds its draws and temporaries
next to the range's columns.  The produced records are bit-identical for
any partition of the shot range.

The per-shot state is a Bloch vector, held component-major in one (3, n)
array per block whose x, y and z rows are contiguous; fixed pulses act on it
as elementwise 3x3 updates.  Scattering branch operators enter through their
4x4 Pauli transfer matrices conjugated by the per-shot precession phase, one
cos/sin of which serves both conjugations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import lru_cache

import numpy as np

from .scattering import (
    DEFAULT_EXCITATION,
    PolarizationBasis,
    branch_operators_from_vectors,
)
from .spinalg import (
    ID2, SIGMA_X, SIGMA_Y, pauli_transfer, rotation, rotation_bloch, unit_state
)

__all__ = [
    "DRAWS_PER_SHOT",
    "RotationSpec",
    "UnsupportedCorrectionError",
    "ErrorBudget",
    "ExperimentConfig",
    "PulseSequence",
    "ShotFrame",
    "correction_for",
    "standard_sequences",
    "get_sequence",
    "run_experiment",
    "derive_seed",
    "noisy_joint_state",
]

TAU = 2.0 * math.pi

# Uniform variates consumed per shot; a multiple of 4 so that shot substreams
# sit on Philox counter boundaries.  Slots: 0 prep flip, 1 attempt count,
# 2 reserved, 3 dark herald, 4 scattering phase, 5 phase jitter, 6 branch,
# 7 extra scatter, 8 measurement, 9 measurement flip, 10-11 reserved.
# Unused slots keep their places, so each shot keeps its counter block and
# every other slot its variate.
DRAWS_PER_SHOT = 12
_BLOCKS_PER_SHOT = DRAWS_PER_SHOT // 4
# Shots per kernel pass: bounds the draw buffer, the (3, n) state and every
# kernel temporary.
_BLOCK = 1 << 13


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
        return rotation(self.axis, self.angle)

    def bloch_matrix(self) -> np.ndarray:
        return rotation_bloch(self.axis, self.angle)

    @classmethod
    def equatorial(cls, angle: float, azimuth: float) -> "RotationSpec":
        return cls((math.cos(azimuth), math.sin(azimuth), 0.0), angle)


X_AXIS = (1.0, 0.0, 0.0)
Y_AXIS = (0.0, 1.0, 0.0)


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
            f"ellipticity = {basis.ellipticity!r} is projective and irreversible: "
            "heralded correction requires a linear analysis basis"
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

    scatter = None disables scattering entirely (identity benchmark).
    """

    name: str
    prep: RotationSpec | None = None
    scatter: PolarizationBasis | None = None
    corrected: bool = False
    analysis: RotationSpec | None = None

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
        # the largest jitter offset the engine draws: sigma * _ndtri(u) with
        # |_ndtri| <= 8.2096
        if not math.isfinite(self.phi_jitter_sigma * 8.2096):
            raise ValueError(
                f"phi_jitter_sigma = {self.phi_jitter_sigma!r} is too large: "
                "a phi_tac jitter offset overflows"
            )

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

    eta only sets the number of excitation attempts before a herald (the
    experiment measured eta = 2.5e-3).  Each attempt starts from a fresh
    preparation and runs without a detected photon are discarded, so failed
    attempts leave no trace on the heralded shot; an undetected scatter
    within the heralded attempt is errors.p_multi.  The engine reads p_exc
    and eta only as their product, in the herald probability
    p_exc * eta / (1 - p_dark), so two configs with the same product run the
    same shots.
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


def derive_seed(seed: int, index: int) -> int:
    """Deterministic child seed for sub-run `index` of a master seed."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1, np.uint64)[0])


def _geometric(u: np.ndarray, p: float) -> np.ndarray:
    """Inverse-CDF geometric trial count (support 1, 2, ...); ValueError
    where a count would not fit in int64."""
    if p >= 1.0:
        return np.ones(u.shape, dtype=np.int64)
    n = 1 + np.floor(np.log1p(-u) / math.log1p(-p))
    if n.max(initial=1.0) >= 2.0**63:
        raise ValueError(
            f"herald probability p_exc * eta / (1 - p_dark) = {p!r} is too small: "
            "an attempt count exceeds the int64 range"
        )
    return np.maximum(n, 1).astype(np.int64)


# Wichura's AS 241 (PPND16), Appl. Statist. 37, 477 (1988): numerator and
# denominator coefficients, highest power first, of its three rational
# approximations -- |u - 1/2| <= 0.425, then tail r = sqrt(-log(min(u, 1 - u)))
# at r <= 5 and at r > 5
_AS241_CENTRAL = (
    (2.5090809287301226727e3, 3.3430575583588128105e4, 6.7265770927008700853e4,
     4.5921953931549871457e4, 1.3731693765509461125e4, 1.9715909503065514427e3,
     1.3314166789178437745e2, 3.3871328727963666080e0),
    (5.2264952788528545610e3, 2.8729085735721942674e4, 3.9307895800092710610e4,
     2.1213794301586595867e4, 5.3941960214247511077e3, 6.8718700749205790830e2,
     4.2313330701600911252e1, 1.0),
)
_AS241_NEAR = (
    (7.7454501427834140764e-4, 2.2723844989269184583e-2, 2.4178072517745061177e-1,
     1.2704582524523683826e0, 3.6478483247632046050e0, 5.7694972214606914055e0,
     4.6303378461565452959e0, 1.4234371107496835773e0),
    (1.0507500716444168432e-9, 5.4759380849953449460e-4, 1.5198666563616457197e-2,
     1.4810397642748007459e-1, 6.8976733498510000455e-1, 1.6763848301838038494e0,
     2.0531916266377588219e0, 1.0),
)
_AS241_FAR = (
    (2.0103343992922881327e-7, 2.7115555687434875782e-5, 1.2426609473880784386e-3,
     2.6532189526576123093e-2, 2.9656057182850489123e-1, 1.7848265399172913358e0,
     5.4637849111641143699e0, 6.6579046435011037772e0),
    (2.0442631033899397856e-15, 1.4215117583164458887e-7, 1.8463183175100546818e-5,
     7.8686913114561325910e-4, 1.4875361290850614853e-2, 1.3692988092273580531e-1,
     5.9983220655588793769e-1, 1.0),
)


def _horner(coefficients, r: np.ndarray) -> np.ndarray:
    """The polynomial at r, in place: the roundings of acc * r + c."""
    acc = coefficients[0] * r
    acc += coefficients[1]
    for c in coefficients[2:]:
        acc *= r
        acc += c
    return acc


def _ndtri(u: np.ndarray) -> np.ndarray:
    """Standard normal quantile of each uniform, clipped into (0, 1): AS 241
    with the operation order of `statistics.NormalDist().inv_cdf`."""
    u = np.clip(u, 2.0**-53, 1.0 - 2.0**-53)
    q = u - 0.5
    x = np.empty_like(q)
    central = np.abs(q) <= 0.425
    qc = q[central]
    r = 0.180625 - qc * qc
    num, den = _AS241_CENTRAL
    x[central] = _horner(num, r) * qc / _horner(den, r)
    tail = ~central
    qt = q[tail]
    r = np.sqrt(-np.log(np.where(qt <= 0.0, u[tail], 1.0 - u[tail])))
    (near_num, near_den), (far_num, far_den) = _AS241_NEAR, _AS241_FAR
    xt = _horner(near_num, r - 1.6) / _horner(near_den, r - 1.6)
    far = r > 5.0  # u within e^-25 of 0 or 1: rare, so evaluated only where met
    if far.any():
        rf = r[far] - 5.0
        xt[far] = _horner(far_num, rf) / _horner(far_den, rf)
    x[tail] = np.where(qt < 0.0, -xt, xt)
    return x


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


@lru_cache(maxsize=64)
def _pulse_matrix(spec: RotationSpec | None) -> np.ndarray:
    """Bloch matrix of a fixed pulse (the identity for none), built once per
    run however many blocks apply it; it is shared, so never write to it."""
    return np.eye(3) if spec is None else spec.bloch_matrix()


@lru_cache(maxsize=64)
def _branch_transfers(basis: PolarizationBasis, errors: ErrorBudget) -> tuple:
    """Unnormalized Pauli transfer matrices t1, t2 of rho -> m rho m^dag for
    the two phase-0 branch operators of the imperfect analysis basis."""
    vecs = _effective_vectors(basis, errors)
    m1, m2 = branch_operators_from_vectors(vecs, DEFAULT_EXCITATION, 0.0)
    return pauli_transfer(m1, m1).real, pauli_transfer(m2, m2).real


def _dot(coefficients, components):
    """sum_k coefficients[k] * components[k] over shots, in order of k and
    skipping exact-zero scalar coefficients; either may be per-shot arrays."""
    acc = 0.0
    for a, v in zip(coefficients, components):
        if isinstance(a, np.ndarray) or a != 0.0:
            acc = acc + a * v
    return acc


def _rz(x, y, c, s, inverse=False):
    """Rotate the (x, y) components right-handedly about +z by the angle
    whose cosine and sine are c and s, or by minus that angle."""
    if inverse:
        return c * x + s * y, c * y - s * x
    return c * x - s * y, s * x + c * y


def _apply_scatter_block(config, seq, draws, bloch):
    """Attempts, herald and scattering kick on the (3, n) state, in place.
    Returns the state and the per-shot (n_attempts, branch, phi_rec)."""
    err = config.errors
    if config.p_exc * config.eta <= 0.0 and err.p_dark < 1.0:
        raise ValueError("sequence scatters but p_exc * eta = 0: no herald possible")

    if err.p_dark >= 1.0:
        p_herald = 1.0
    else:
        p_herald = min(config.p_exc * config.eta / (1.0 - err.p_dark), 1.0)
    n_att = _geometric(draws[:, 1], p_herald)

    dark = np.flatnonzero(draws[:, 3] < err.p_dark)
    phi_true = TAU * draws[:, 4]
    phi_rec = phi_true  # TAU * u < TAU, so without jitter the wrap is the identity
    if err.phi_jitter_sigma > 0.0:
        # np.mod(x, TAU), ~3x faster: fmod's remainder, plus TAU where it is
        # negative, and +0.0 for -0.0
        phi_rec = np.fmod(phi_true + err.phi_jitter_sigma * _ndtri(draws[:, 5]), TAU)
        np.add(phi_rec, TAU, out=phi_rec, where=phi_rec < 0.0)
        phi_rec += 0.0
        phi_rec[dark] = phi_true[dark]

    # conjugate by Rz(phi_true): rotate the state into the phase-0 frame,
    # apply the fixed transfer matrices to (1, x, y, z), rotate back
    t1, t2 = _branch_transfers(seq.scatter, err)
    c, s = np.cos(phi_true), np.sin(phi_true)
    s4 = (1.0, *_rz(bloch[0], bloch[1], c, s, inverse=True), bloch[2])
    pick1 = draws[:, 6] < _dot(t1[0], s4)
    pick1[dark] = draws[dark, 6] < 0.5
    branch = np.subtract(2, pick1, dtype=np.int8)

    # each shot's row of its picked matrix: coefficients that differ between
    # the branches are blended as a * p + b * (1 - p), exactly a or b
    p = pick1.astype(float)
    w0, wx, wy, wz = (
        _dot([a if a == b else a * p + b * (1.0 - p) for a, b in zip(r1, r2)], s4)
        for r1, r2 in zip(t1, t2)
    )
    norm = np.where(np.abs(w0) < 1e-300, 1.0, w0)
    unkicked = np.take(bloch, dark, axis=1)  # a dark count leaves the spin alone
    bloch[0], bloch[1] = _rz(wx / norm, wy / norm, c, s)
    bloch[2] = wz / norm
    for row, keep in zip(bloch, unkicked):
        row[dark] = keep

    # possible extra scattering event whose photon was missed
    if err.p_multi > 0.0:
        multi = draws[:, 7] < err.p_multi
        for row, keep in zip(bloch, (0.5, 0.5, 0.0)):
            np.multiply(row, keep, out=row, where=multi)

    return bloch, n_att, branch, phi_rec


def _apply_correction(basis, branch, phi_rec, bloch):
    """Per-shot heralded correction pulses on the (3, n) state, in place: each
    branch's phase-0 pulse, applied in the frame of the shot's recorded phase."""
    for b in (1, 2):
        spec = correction_for(basis, b, 0.0)
        if spec is not None:
            sel = np.flatnonzero(branch == b)
            c, s = np.cos(phi_rec[sel]), np.sin(phi_rec[sel])
            x, y, z = np.take(bloch, sel, axis=1)
            frame = (*_rz(x, y, c, s, inverse=True), z)
            u, v, w = (_dot(row, frame) for row in _pulse_matrix(spec))
            for row, new in zip(bloch, (*_rz(u, v, c, s), w)):
                row[sel] = new
    return bloch


def _simulate_rows(config, seq, draws, first_shot_id: int, bloch) -> ShotFrame:
    """The block's shots from their draws, with `bloch` as the (3, n) state."""
    err = config.errors
    n = draws.shape[0]

    # optical pumping into |up>, flipped with probability e_prep; the prep
    # pulse maps it to z0 times the last column of its Bloch matrix
    z0 = np.where(draws[:, 0] < err.e_prep, -1.0, 1.0)
    np.multiply.outer(_pulse_matrix(seq.prep)[:, 2], z0, out=bloch)

    if seq.scatter is None:
        n_att, branch, phi_rec = (np.zeros(n, t) for t in (np.int64, np.int8, float))
    else:
        bloch, n_att, branch, phi_rec = _apply_scatter_block(config, seq, draws, bloch)
        if seq.corrected:
            bloch = _apply_correction(seq.scatter, branch, phi_rec, bloch)

    # only z of the analysed state is measured; a uniform in [0, 1) compares
    # with P(up) as it would with P(up) clipped into [0, 1]
    z = _dot(_pulse_matrix(seq.analysis)[2], bloch)
    up = draws[:, 8] < 0.5 * (1.0 + z)
    up ^= draws[:, 9] < err.e_meas

    shot_id = first_shot_id + np.arange(n, dtype=np.int64)
    return ShotFrame(shot_id, branch, phi_rec, up, n_att)


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------


def run_experiment(
    config: ExperimentConfig, seq: PulseSequence, lo: int = 0, hi=None
) -> ShotFrame:
    """Rows lo ... hi-1 (by default all `config.shots`) of a run of
    independent shots of a sequence; an empty range is an empty frame.

    Shot i consumes the draw block derived from (seed, i) only: the run's
    Philox stream is advanced to lo's counter block and read on, block after
    block of at most `_BLOCK` shots, into one reused draw buffer, and each
    block's rows are written into the range's columns, allocated once.  A
    block of 12 draws per shot ends on a counter boundary, so each block
    reads what `advance` would reach.
    """
    hi = config.shots if hi is None else hi
    if not 0 <= lo <= hi <= config.shots:
        raise ValueError(f"shot range [{lo}, {hi}) is not within [0, {config.shots}]")
    key = np.random.SeedSequence(config.seed).generate_state(2, np.uint64)
    bg = np.random.Philox(key=key)
    bg.advance(lo * _BLOCKS_PER_SHOT)
    rng = np.random.Generator(bg)
    n = hi - lo
    buf = np.empty((min(n, _BLOCK), DRAWS_PER_SHOT))
    state = np.empty((3, len(buf)))
    columns = None
    for b in range(0, n, _BLOCK) or (0,):
        k = min(n - b, _BLOCK)
        draws = rng.random(out=buf[:k])
        rows = _simulate_rows(config, seq, draws, lo + b, state[:, :k])._columns()
        columns = columns or [np.empty(n, col.dtype) for col in rows]
        for column, col in zip(columns, rows):
            column[b : b + k] = col
    return ShotFrame(*columns)


# ---------------------------------------------------------------------------
# sequence catalog
# ---------------------------------------------------------------------------


def standard_sequences() -> dict[str, PulseSequence]:
    """Named catalog of the standard sequences.

    ramsey_HV         pi/2 -- scatter (H/V) -- pi/2, both pulses about +x
    ramsey_45         scatter in the 45-degree basis acts as the first
                      Ramsey pulse, then pi/2 about +x
    corrected_HV      H/V scatter followed by its heralded inverse pulse
    corrected_45      45-degree scatter followed by +-pi/2 inverse pulses
    scatter_HV/45     uncorrected scatter blocks (a tomography run swaps in
                      each setting's prep/analysis pulses)
    no_scatter        preparation and measurement only (identity benchmark)
    """
    hv = PolarizationBasis(0.0, 0.0)
    diag = PolarizationBasis(math.pi / 4, 0.0)
    half_x = RotationSpec(X_AXIS, math.pi / 2)
    return {
        "no_scatter": PulseSequence("no_scatter"),
        "scatter_HV": PulseSequence("scatter_HV", scatter=hv),
        "scatter_45": PulseSequence("scatter_45", scatter=diag),
        "ramsey_HV": PulseSequence(
            "ramsey_HV", prep=half_x, scatter=hv, analysis=half_x
        ),
        "ramsey_45": PulseSequence("ramsey_45", scatter=diag, analysis=half_x),
        "corrected_HV": PulseSequence("corrected_HV", scatter=hv, corrected=True),
        "corrected_45": PulseSequence("corrected_45", scatter=diag, corrected=True),
    }


def get_sequence(name: str) -> PulseSequence:
    catalog = standard_sequences()
    try:
        return catalog[name]
    except KeyError:
        raise KeyError(
            f"sequence {name!r} is unknown; available: {sorted(catalog)}"
        ) from None


# ---------------------------------------------------------------------------
# analytic joint-state error model
# ---------------------------------------------------------------------------


def _jitter_phases(sigma: float) -> list[tuple[float, float]]:
    """Offsets delta_j = 2 pi j / 5 and weights w_j that average any
    trigonometric polynomial of degree <= 2 exactly over delta ~ N(0, sigma^2):
    w_j = (1 + 2 d_1 cos(delta_j) + 2 d_2 cos(2 delta_j)) / 5 with the damping
    d_k = exp(-k^2 sigma^2 / 2), written through d_k - 1 so that sigma = 0
    gives exactly (1, 0, 0, 0, 0)."""
    s2 = sigma * sigma  # a float product: inf, not an error, damps to exactly 0
    g1, g2 = math.expm1(-0.5 * s2), math.expm1(-2.0 * s2)
    deltas = [TAU * j / 5 for j in range(5)]
    return [
        (d, float(j == 0) + 0.4 * (g1 * math.cos(d) + g2 * math.cos(2.0 * d)))
        for j, d in enumerate(deltas)
    ]


def noisy_joint_state(state_in, phase: float, errors: ErrorBudget) -> np.ndarray:
    """Joint ion-photon density matrix under the error budget.

    Composes, at the state level: the preparation flip, the (misaligned,
    birefringent) analysis basis, the exact average over the Gaussian
    phi_tac jitter (the reference phase is the recorded one; the state has
    degree <= 2 in the offset, so five phases suffice), the dark-count
    admixture (unscattered spin with a maximally mixed photon record) and
    the extra-scattering channel on the spin side.  Detection errors e_meas
    affect recorded outcomes, not the state, and are not applied here.
    The scatter is always in the H/V basis, PolarizationBasis(0, 0), before
    pol_misalign and biref_phase act on it, so a sequence's own scatter
    basis or a [basis] override of a manifest does not enter.
    """
    if not math.isfinite(phase):
        raise ValueError(f"phase must be finite, got {phase!r}")
    psi = unit_state(state_in)
    flipped = np.array([-np.conj(psi[1]), np.conj(psi[0])])
    inputs = [(1.0 - errors.e_prep, psi)]
    if errors.e_prep > 0.0:
        inputs.append((errors.e_prep, flipped))

    vecs = _effective_vectors(PolarizationBasis(0.0, 0.0), errors)
    e_v = np.array([1.0, 0.0], dtype=complex)
    e_h = np.array([0.0, 1.0], dtype=complex)

    rho = np.zeros((4, 4), dtype=complex)
    rho_in = np.zeros((2, 2), dtype=complex)
    for w_in, phi_state in inputs:
        rho_in += w_in * np.outer(phi_state, phi_state.conj())
        for delta, w in _jitter_phases(errors.phi_jitter_sigma):
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

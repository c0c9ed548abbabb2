"""Simulation and analysis of heralded photon-scattering correction on a
ground-state spin qubit.

A scattered photon entangles the spin with the photon polarization; measuring
the photon in a linear basis announces which pi rotation hit the spin, and a
phase-locked rf pulse undoes it.  This package provides the exact one-qubit
algebra, the polarization-conditioned scattering channel, a deterministic
seeded Monte Carlo engine with a configurable error budget, full single-qubit
process tomography with CPTP projection, and Ramsey fringe fitting.
"""

__version__ = "0.1.0"

from .spinalg import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    ID2,
    PAULIS,
    KET_UP,
    KET_DOWN,
    apply_kraus,
    density,
    from_bloch,
    pauli_projection,
    rotating_frame,
    rotation,
    state_fidelity,
    to_bloch,
)
from .scattering import (
    PolarizationBasis,
    ScatterOutcome,
    branch_operators,
    entanglement_fidelity,
    joint_state,
    scatter,
    unconditioned_channel,
)
from .engine import (
    ErrorBudget,
    ExperimentConfig,
    PulseSequence,
    RotationSpec,
    ShotFrame,
    correction_for,
    get_sequence,
    noisy_joint_state,
    run_experiment,
    run_plan,
    run_shot,
    shot_stream,
    standard_sequences,
)
from .tomography import (
    BlochEllipsoid,
    FringeFit,
    bloch_ellipsoid,
    chi_to_ptm,
    estimate_ptm,
    fit_fringe,
    identity_overlap,
    project_cptp,
    ptm_to_chi,
    reconstruct,
    tomography_plan,
)

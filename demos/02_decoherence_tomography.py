"""Process tomography of the scattering decoherence, branch by branch.

Runs the 12-setting tomography plan through the Monte Carlo engine on an
uncorrected H/V scattering sequence and reconstructs the channel three
ways: photon ignored (the Bloch ball collapses onto an equatorial pancake),
conditioned on V (identity) and conditioned on H (pole swap).
"""

import numpy as np

from spinherald import (
    ErrorBudget,
    ExperimentConfig,
    get_sequence,
    reconstruct,
    run_plan,
)

np.set_printoptions(precision=3, suppress=True)

SHOTS = 50_000
cfg = ExperimentConfig(shots=SHOTS, seed=42, p_exc=0.075, errors=ErrorBudget())
frames = run_plan(cfg, get_sequence("scatter_HV"))
print(f"simulated {12 * SHOTS} shots across the 12 tomography settings\n")


def show(title, frames_by_setting):
    result = reconstruct(frames_by_setting)
    print(f"--- {title} ---")
    print("chi (real part):")
    print(np.round(result.chi.real, 3))
    print(f"identity overlap: {result.identity_overlap:.3f}")
    print(f"ellipsoid semi-axes: {np.round(result.ellipsoid.semi_axes, 3)}\n")
    return result


show("photon ignored: half identity, quarter pi_x, quarter pi_y", frames)
show("conditioned on V (elastic): spin untouched", {
    k: f.select(f.branch == 1) for k, f in frames.items()
})
show("conditioned on H (spin flip): poles swap, equator scrambles", {
    k: f.select(f.branch == 2) for k, f in frames.items()
})

print("The H branch *is* a clean pi rotation shot by shot; the equatorial")
print("contraction only reflects the random precession phase phi_tac, which")
print("is exactly the record the correction pulse will use.")

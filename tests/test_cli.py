import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from spinherald.cli import (
    ManifestError,
    cmd_ramsey,
    cmd_simulate,
    cmd_sweep,
    cmd_tomo,
    load_manifest,
    main,
    read_records,
    write_records,
)
from spinherald.engine import UnsupportedCorrectionError
from spinherald.scattering import PolarizationBasis, scatter
from spinherald.spinalg import ID2
from spinherald.tomography import IncompleteDataError

NOMINAL_ERRORS = {
    "p_multi": 0.05,
    "p_dark": 0.03,
    "e_prep": 0.015,
    "e_meas": 0.015,
    "pol_misalign": 0.01,
    "phi_jitter_sigma": 0.17,
}


def write_manifest(
    path: Path,
    sequence: str,
    shots: int = 100,
    seed: int = 7,
    errors: dict | None = None,
    analysis: dict | None = None,
    basis: dict | None = None,
    config: dict | None = None,
) -> Path:
    lines = [
        "[run]",
        f"sequence = {sequence}",
        f"shots = {shots}",
        f"seed = {seed}",
    ]
    for section, values in (
        ("config", config),
        ("errors", errors),
        ("basis", basis),
        ("analysis", analysis),
    ):
        if values:
            lines.append(f"[{section}]")
            lines.extend(f"{k} = {v}" for k, v in values.items())
    path.write_text("\n".join(lines) + "\n")
    return path


# ---------------------------------------------------------------------------
# manifest parsing
# ---------------------------------------------------------------------------


def test_manifest_defaults(tmp_path):
    m = load_manifest(write_manifest(tmp_path / "m.ini", "scatter_HV"))
    assert m.config.shots == 100
    assert m.config.eta == 1.0
    assert m.analysis.filter == "all"
    assert m.sequence().name == "scatter_HV"


def test_manifest_unknown_sequence(tmp_path):
    path = write_manifest(tmp_path / "m.ini", "nonesuch")
    with pytest.raises(KeyError):
        load_manifest(path)


def test_manifest_bad_number(tmp_path):
    path = tmp_path / "m.ini"
    for text, key in (
        ("[run]\nsequence = scatter_HV\nshots = many\n", "shots"),
        ("[run]\nsequence = scatter_HV\n[analysis]\nbins = 0\n", "bins"),
    ):
        path.write_text(text)
        with pytest.raises(ManifestError, match=key):
            load_manifest(path)


def test_manifest_unknown_key(tmp_path):
    path = tmp_path / "m.ini"
    for text, key in (
        ("[run]\nsequence = scatter_HV\ncolour = blue\n", "colour"),
        # no qubit-splitting key: the engine draws phi_tac uniformly
        ("[run]\nsequence = scatter_HV\n[config]\nomega0 = 2.2e7\n", "omega0"),
    ):
        path.write_text(text)
        with pytest.raises(ManifestError, match=key):
            load_manifest(path)


def test_manifest_missing_file(tmp_path):
    with pytest.raises(ManifestError, match="not found"):
        load_manifest(tmp_path / "absent.ini")


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_writes_reproducible_records(tmp_path):
    manifest = write_manifest(tmp_path / "m.ini", "scatter_HV", shots=10, seed=123)
    b1 = cmd_simulate(manifest, tmp_path / "a")
    b2 = cmd_simulate(manifest, tmp_path / "b")
    r1 = b1.records_path.read_bytes()
    assert r1 == b2.records_path.read_bytes()
    assert b1.summary_path.read_bytes() == b2.summary_path.read_bytes()
    lines = r1.decode().strip().split("\n")
    assert len(lines) == 11  # header + one line per shot
    assert lines[0] == "shot_id,setting_id,branch,phi_tac,outcome,n_attempts"


def test_simulate_seed_override_changes_records(tmp_path):
    manifest = write_manifest(tmp_path / "m.ini", "scatter_HV", shots=50, seed=1)
    b1 = cmd_simulate(manifest, tmp_path / "a")
    b2 = cmd_simulate(manifest, tmp_path / "b", seed=2)
    assert b1.records_path.read_bytes() != b2.records_path.read_bytes()
    assert b2.summary["seed"] == 2


def test_simulate_tomography_summary_has_overlap(tmp_path):
    manifest = write_manifest(
        tmp_path / "m.ini",
        "corrected_HV",
        shots=4000,
        seed=5,
        errors={"p_multi": 0.05, "p_dark": 0.03, "e_prep": 0.015, "e_meas": 0.015},
        analysis={"tomography": "true", "filter": "corrected"},
        config={"p_exc": "0.075"},
    )
    bundle = cmd_simulate(manifest, tmp_path / "out")
    overlap = bundle.summary["tomography"]["identity_overlap"]
    assert 0.0 <= overlap <= 1.0
    assert bundle.summary["config"]["errors"]["p_multi"] == 0.05


def test_entanglement_fidelity_summary_field(tmp_path):
    manifest = write_manifest(
        tmp_path / "m.ini",
        "scatter_HV",
        shots=10,
        analysis={"entanglement_fidelity": "true"},
    )
    bundle = cmd_simulate(manifest, tmp_path / "out")
    assert bundle.summary["entanglement_fidelity"]["fidelity"] == pytest.approx(
        1.0, abs=1e-9
    )


# ---------------------------------------------------------------------------
# file round trips
# ---------------------------------------------------------------------------


def test_records_file_round_trip(tmp_path):
    manifest = write_manifest(
        tmp_path / "m.ini", "tomo_input_1", shots=200, seed=9,
        analysis={"tomography": "true"},
    )
    bundle = cmd_simulate(manifest, tmp_path / "out")
    tables = read_records(bundle.records_path)
    assert sorted(tables) == list(range(12))
    # writing the parsed frames back reproduces the file byte for byte
    out2 = tmp_path / "copy.csv"
    write_records(out2, tables)
    assert out2.read_bytes() == bundle.records_path.read_bytes()


def test_summary_json_round_trip(tmp_path):
    manifest = write_manifest(
        tmp_path / "m.ini", "scatter_HV", shots=500, seed=3,
        analysis={"fringe_harmonic": 2},
    )
    bundle = cmd_simulate(manifest, tmp_path / "out")
    loaded = json.loads(bundle.summary_path.read_text())
    assert loaded == json.loads(json.dumps(bundle.summary))


def test_read_records_rejects_malformed(tmp_path):
    bad = tmp_path / "r.csv"
    for row in (
        "0,0,x,0,up,1",
        "0,0,1,0.5,UP,1",  # outcome other than up/down
        "0,0,7,0.5,up,1",  # branch outside {0, 1, 2}
        "0,0,1,nan,up,1",  # non-finite phi_tac
        "0,0,1,inf,down,1",
        "0,0,7,nan,UP,1",
        "0,0,1,0.5,up",  # missing field
        "-4,0,1,0.5,up,1",  # negative shot_id
        "0,-3,1,0.5,up,1",  # negative setting_id
        "0,0,1,0.5,up,-5",  # negative n_attempts
        "0,-3,1,0.5,up,-5",
    ):
        bad.write_text(f"shot_id,setting_id,branch,phi_tac,outcome,n_attempts\n{row}\n")
        with pytest.raises(ValueError, match=r"r\.csv:2: malformed record"):
            read_records(bad)


# ---------------------------------------------------------------------------
# tomo
# ---------------------------------------------------------------------------


def test_demo_records_bytes_are_pinned(tmp_path):
    # corrected tomography runs at 2000 shots per setting under the nominal
    # error budget; each digest is the engine's output under its randomness
    # contract, so a change here is a change of program output
    def corrected(name, sequence, basis=None):
        return write_manifest(
            tmp_path / f"{name}.ini", sequence, shots=2000, seed=7,
            errors=NOMINAL_ERRORS,
            analysis={"tomography": "true", "filter": "corrected"},
            basis=basis, config={"p_exc": 0.075},
        )

    cases = (
        (
            Path(__file__).resolve().parents[1] / "demos" / "corrected_hv.ini",
            "d31e3d95af2136a8c710cee973abd0e0d8a8865798166f7c0ab0a17f6f4b88df",
        ),
        (
            corrected("c45", "corrected_45"),
            "512bc6c05c0daa41e846340f95bf305af8f0088ee4d7dd56e7a654da0f006760",
        ),
        (
            corrected("chv", "corrected_HV", basis={"theta": 0.3}),
            "963b91c89435f0982199ce587e539e4ae9674fd8a1c460c52dbc4d732dd0c755",
        ),
    )
    for i, (manifest, expected) in enumerate(cases):
        bundle = cmd_simulate(manifest, tmp_path / f"out{i}", shots=2000)
        digest = hashlib.sha256(bundle.records_path.read_bytes()).hexdigest()
        assert digest == expected, manifest
        regenerated = cmd_tomo(records_path=bundle.records_path, flt="corrected")
        assert regenerated["tomography"] == bundle.summary["tomography"]

    # the correction inverts the basis in use, and an elliptical kick has none
    elliptical = corrected("chv_elliptical", "corrected_HV", basis={"ellipticity": 0.2})
    with pytest.raises(UnsupportedCorrectionError, match="ellipticity"):
        load_manifest(elliptical)


def test_tomo_from_records_matches_in_memory(tmp_path):
    manifest = write_manifest(
        tmp_path / "m.ini", "scatter_HV", shots=5000, seed=21,
        analysis={"tomography": "true"},
    )
    bundle = cmd_simulate(manifest, tmp_path / "out")
    regenerated = cmd_tomo(records_path=bundle.records_path, flt="all")
    assert regenerated["tomography"] == bundle.summary["tomography"]


def test_branch_stats_follow_manifest_bins(tmp_path):
    # an elliptical basis makes the branch fraction depend on phi_tac, so
    # the phase-resolved asymmetry depends on the bin count
    def summary(bins, name):
        manifest = write_manifest(
            tmp_path / f"{name}.ini", "tomo_input_3", shots=500, seed=24,
            basis={"ellipticity": 0.3},
            analysis={"tomography": "true", "bins": bins},
        )
        return cmd_simulate(manifest, tmp_path / name).summary, manifest

    coarse, manifest = summary(4, "coarse")
    fine, _ = summary(20, "fine")
    asym = "phase_resolved_branch_asymmetry"
    assert coarse["branch_stats"][asym] != fine["branch_stats"][asym]
    # tomo --manifest bins its branch statistics the same way
    assert cmd_tomo(manifest_path=manifest)["branch_stats"] == coarse["branch_stats"]


def test_tomo_branch_filters(tmp_path):
    manifest = write_manifest(
        tmp_path / "m.ini", "scatter_HV", shots=20_000, seed=22,
        analysis={"tomography": "true"},
    )
    bundle = cmd_simulate(manifest, tmp_path / "out")
    v = cmd_tomo(records_path=bundle.records_path, flt="V")
    h = cmd_tomo(records_path=bundle.records_path, flt="H")
    assert v["tomography"]["identity_overlap"] > 0.98
    zz = h["tomography"]["ptm"][3][3]
    assert abs(zz + 1.0) < 0.05


def test_tomo_incomplete_settings(tmp_path):
    manifest = write_manifest(tmp_path / "m.ini", "scatter_HV", shots=50)
    bundle = cmd_simulate(manifest, tmp_path / "out")  # single-setting records
    with pytest.raises(IncompleteDataError, match="plus_x"):
        cmd_tomo(records_path=bundle.records_path, flt="all")


# ---------------------------------------------------------------------------
# ramsey
# ---------------------------------------------------------------------------


def test_ramsey_hv_fringe_output(tmp_path):
    manifest = write_manifest(tmp_path / "m.ini", "ramsey_HV", shots=30_000, seed=23)
    summary = cmd_ramsey(manifest, tmp_path / "out")
    fits = {f["branch"]: f for f in summary["fringes"]}
    assert fits[1]["amplitude"] < 0.05  # Rayleigh branch is flat
    assert fits[2]["contrast"] > 0.9  # Raman branch double fringe
    assert fits[2]["harmonic"] == 2
    table = (tmp_path / "out" / "fringe.csv").read_text().strip().split("\n")
    assert table[0] == "branch,phi_bin_center,p_up,count"
    assert len(table) == 1 + 2 * 20


def test_ramsey_rejects_non_ramsey_sequence(tmp_path):
    manifest = write_manifest(tmp_path / "m.ini", "no_scatter", shots=10)
    with pytest.raises(ValueError, match="Ramsey"):
        cmd_ramsey(manifest, tmp_path / "out")


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_single_point_matches_simulate(tmp_path):
    manifest = write_manifest(
        tmp_path / "m.ini", "scatter_HV", shots=300, seed=31,
        analysis={"tomography": "true"},
    )
    sim = cmd_simulate(manifest, tmp_path / "sim")
    swept = cmd_sweep(manifest, "p_multi", [0.0], tmp_path / "sweep")
    assert len(swept) == 1
    assert swept[0]["tomography"] == sim.summary["tomography"]
    assert swept[0]["branch_stats"] == sim.summary["branch_stats"]


def test_sweep_p_multi_overlap_non_increasing(tmp_path):
    manifest = write_manifest(
        tmp_path / "m.ini", "corrected_HV", shots=20_000, seed=32,
        analysis={"tomography": "true", "filter": "corrected"},
    )
    summaries = cmd_sweep(manifest, "p_multi", [0.0, 0.05, 0.10], tmp_path / "out")
    overlaps = [s["tomography"]["identity_overlap"] for s in summaries]
    assert overlaps[1] <= overlaps[0] + 0.01
    assert overlaps[2] <= overlaps[1] + 0.01
    table = (tmp_path / "out" / "sweep.csv").read_text().strip().split("\n")
    assert len(table) == 4
    assert table[0].startswith("p_multi")


def test_sweep_ellipticity_toward_projective_limit(tmp_path):
    grid = [0.0, math.pi / 8, math.pi / 4]

    # Born-rule oracle: branch-conditioned post-states of the maximally
    # mixed input purify toward the projective limit
    purities = []
    for eps in grid:
        out1, _ = scatter(ID2 / 2, basis=PolarizationBasis(0.0, eps), phase=0.3)
        purities.append(float(np.trace(out1.post_state @ out1.post_state).real))
    assert purities[0] == pytest.approx(0.5, abs=1e-12)
    assert purities[0] < purities[1] < purities[2]
    assert purities[2] == pytest.approx(1.0, abs=1e-12)

    # the records show the same trend as a phase-resolved branch asymmetry
    manifest = write_manifest(
        tmp_path / "m.ini", "tomo_input_3", shots=40_000, seed=33
    )
    summaries = cmd_sweep(manifest, "ellipticity", grid, tmp_path / "out")
    asym = [s["branch_stats"]["phase_resolved_branch_asymmetry"] for s in summaries]
    assert asym[0] < 0.05
    assert asym[0] < asym[1] < asym[2]
    assert asym[2] > 0.5


def test_sweep_unknown_parameter(tmp_path):
    manifest = write_manifest(tmp_path / "m.ini", "scatter_HV", shots=10)
    with pytest.raises(ValueError, match="p_multi"):
        cmd_sweep(manifest, "bogus", [1.0], tmp_path / "out")
    with pytest.raises(ValueError, match="nonempty"):
        cmd_sweep(manifest, "p_multi", [], tmp_path / "out")


# ---------------------------------------------------------------------------
# entry point exit codes
# ---------------------------------------------------------------------------


def test_main_simulate_success(tmp_path, capsys):
    manifest = write_manifest(tmp_path / "m.ini", "scatter_HV", shots=10)
    code = main(["simulate", "--manifest", str(manifest), "--out", str(tmp_path / "o")])
    assert code == 0
    assert "records:" in capsys.readouterr().out


def test_main_unknown_sequence_fails(tmp_path, capsys):
    manifest = write_manifest(tmp_path / "m.ini", "nonesuch", shots=10)
    code = main(["simulate", "--manifest", str(manifest), "--out", str(tmp_path / "o")])
    assert code != 0
    assert "nonesuch" in capsys.readouterr().err


def test_main_tomo_requires_input(capsys):
    assert main(["tomo"]) != 0
    assert "error" in capsys.readouterr().err


def test_main_ramsey_wrong_sequence(tmp_path, capsys):
    manifest = write_manifest(tmp_path / "m.ini", "no_scatter", shots=10)
    assert main(["ramsey", "--manifest", str(manifest)]) != 0
    capsys.readouterr()

"""Command-line orchestration: manifest-driven simulation and analysis.

Subcommands
-----------
simulate   run a sequence (or the full 12-setting tomography plan), write a
           records file and a JSON summary
tomo       reconstruct the process matrix from a records file or a manifest,
           with optional branch conditioning
ramsey     run a Ramsey sequence and emit the binned fringe table plus fits
sweep      repeat a manifest over a grid of one parameter and tabulate the
           summaries

Manifests are flat INI files (see docs/manifest-schema.ini).  Records files
hold one line per shot with a fixed column order; summaries are JSON and
round-trip losslessly.  Exit status is nonzero exactly when an error was
reported.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import math
import sys
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .engine import (
    ErrorBudget,
    ExperimentConfig,
    PulseSequence,
    ShotFrame,
    get_sequence,
    noisy_joint_state,
    run_experiment,
    run_plan,
)
from .scattering import entanglement_fidelity
from .spinalg import KET_UP
from .tomography import (
    binned_fringe,
    fit_fringe,
    reconstruct,
    tomography_plan,
)

RECORD_COLUMNS = ("shot_id", "setting_id", "branch", "phi_tac", "outcome", "n_attempts")
FILTERS = ("all", "V", "H", "unconditioned", "corrected")
_OUTCOMES = {"up": True, "down": False}

_CONFIG_KEYS = ("p_exc", "eta")
_ERROR_KEYS = (
    "p_multi",
    "p_dark",
    "e_prep",
    "e_meas",
    "pol_misalign",
    "biref_phase",
    "phi_jitter_sigma",
)
_BASIS_KEYS = ("theta", "ellipticity")

SWEEP_PARAMETERS = ("shots", "seed") + _CONFIG_KEYS + _ERROR_KEYS + _BASIS_KEYS


class ManifestError(ValueError):
    """Malformed manifest, with section/key context in the message."""


@dataclass(frozen=True)
class AnalysisRequest:
    tomography: bool = False
    fringe_harmonic: int | None = None
    bins: int = 20
    filter: str = "all"
    entanglement_fidelity: bool = False


@dataclass(frozen=True)
class RunManifest:
    sequence_name: str
    config: ExperimentConfig
    basis_override: dict = field(default_factory=dict)
    analysis: AnalysisRequest = field(default_factory=AnalysisRequest)
    out_dir: str = "."

    def sequence(self) -> PulseSequence:
        seq = get_sequence(self.sequence_name)
        if self.basis_override:
            if seq.scatter is None:
                raise ManifestError(
                    f"[basis] overrides given but sequence {seq.name!r} has no scatter block"
                )
            seq = replace(seq, scatter=replace(seq.scatter, **self.basis_override))
        return seq


def _get_float(parser, section, key, default):
    if not parser.has_option(section, key):
        return default
    raw = parser.get(section, key)
    try:
        return float(raw)
    except ValueError:
        raise ManifestError(f"[{section}] {key} = {raw!r} is not a number") from None


def _get_int(parser, section, key, default):
    if not parser.has_option(section, key):
        return default
    raw = parser.get(section, key)
    try:
        return int(raw)
    except ValueError:
        raise ManifestError(f"[{section}] {key} = {raw!r} is not an integer") from None


def _get_bool(parser, section, key, default):
    if not parser.has_option(section, key):
        return default
    raw = parser.get(section, key)
    try:
        return parser.getboolean(section, key)
    except ValueError:
        raise ManifestError(f"[{section}] {key} = {raw!r} is not a boolean") from None


def load_manifest(path) -> RunManifest:
    """Parse an INI manifest; unknown keys and bad values raise ManifestError."""
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ManifestError(f"{path}: {exc}") from None
    if not read:
        raise ManifestError(f"manifest not found: {path}")

    known = {
        "run": {"sequence", "shots", "seed", "out_dir"},
        "config": set(_CONFIG_KEYS),
        "errors": set(_ERROR_KEYS),
        "basis": set(_BASIS_KEYS),
        "analysis": {
            "tomography",
            "fringe_harmonic",
            "bins",
            "filter",
            "entanglement_fidelity",
        },
    }
    for section in parser.sections():
        if section not in known:
            raise ManifestError(f"unknown manifest section [{section}]")
        for key in parser.options(section):
            if key not in known[section]:
                raise ManifestError(f"unknown key {key!r} in section [{section}]")

    if not parser.has_option("run", "sequence"):
        raise ManifestError("[run] sequence is required")

    errors = ErrorBudget(
        **{k: _get_float(parser, "errors", k, 0.0) for k in _ERROR_KEYS}
    )
    config = ExperimentConfig(
        shots=_get_int(parser, "run", "shots", 1000),
        seed=_get_int(parser, "run", "seed", 0),
        p_exc=_get_float(parser, "config", "p_exc", 1.0),
        eta=_get_float(parser, "config", "eta", 1.0),
        errors=errors,
    )

    basis_override = {}
    for key in _BASIS_KEYS:
        if parser.has_option("basis", key):
            basis_override[key] = _get_float(parser, "basis", key, 0.0)

    flt = parser.get("analysis", "filter", fallback="all")
    if flt not in FILTERS:
        raise ManifestError(f"[analysis] filter must be one of {FILTERS}, got {flt!r}")
    harmonic = None
    if parser.has_option("analysis", "fringe_harmonic"):
        raw = parser.get("analysis", "fringe_harmonic").strip()
        if raw:
            harmonic = _get_int(parser, "analysis", "fringe_harmonic", None)

    bins = _get_int(parser, "analysis", "bins", 20)
    if bins < 1:
        raise ManifestError(f"[analysis] bins must be >= 1, got {bins!r}")
    analysis = AnalysisRequest(
        tomography=_get_bool(parser, "analysis", "tomography", False),
        fringe_harmonic=harmonic,
        bins=bins,
        filter=flt,
        entanglement_fidelity=_get_bool(
            parser, "analysis", "entanglement_fidelity", False
        ),
    )

    manifest = RunManifest(
        sequence_name=parser.get("run", "sequence"),
        config=config,
        basis_override=basis_override,
        analysis=analysis,
        out_dir=parser.get("run", "out_dir", fallback="."),
    )
    manifest.sequence()  # fail fast on unknown sequence names
    return manifest


# ---------------------------------------------------------------------------
# records files
# ---------------------------------------------------------------------------


def _frame_rows(frame: ShotFrame, setting_id: int):
    for i in range(len(frame)):
        yield (
            int(frame.shot_id[i]),
            setting_id,
            int(frame.branch[i]),
            format(float(frame.phi_tac[i]), ".9g"),
            "up" if frame.outcome_up[i] else "down",
            int(frame.n_attempts[i]),
        )


def write_records(path, frames_by_setting: dict) -> None:
    """One line per shot: shot_id, setting_id, branch, phi_tac (9 significant
    digits), outcome, n_attempts; settings in ascending order."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RECORD_COLUMNS)
        for setting_id in sorted(frames_by_setting):
            for row in _frame_rows(frames_by_setting[setting_id], setting_id):
                writer.writerow(row)


def read_records(path) -> dict[int, ShotFrame]:
    """Parse a records file into one frame per setting.  A line with the
    wrong field count, a non-integer or negative id, a negative n_attempts, a
    branch outside {0, 1, 2}, a non-finite phi_tac or an outcome other than
    up/down is rejected."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"records file not found: {path}")
    buckets: dict[int, list] = {}
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != RECORD_COLUMNS:
            raise ValueError(f"{path}: unexpected records header {header!r}")
        for lineno, row in enumerate(reader, start=2):
            try:
                shot, setting, branch, phi, outcome, n_att = row
                setting = int(setting)
                record = (
                    int(shot), int(branch), float(phi), _OUTCOMES[outcome], int(n_att)
                )
                if (
                    record[1] not in (0, 1, 2)
                    or not math.isfinite(record[2])
                    or min(record[0], setting, record[4]) < 0
                ):
                    raise ValueError
                buckets.setdefault(setting, []).append(record)
            except (ValueError, KeyError):
                raise ValueError(f"{path}:{lineno}: malformed record {row!r}") from None
    frames = {}
    for setting, rows in buckets.items():
        arr = list(zip(*rows))
        frames[setting] = ShotFrame(
            shot_id=np.array(arr[0], dtype=np.int64),
            branch=np.array(arr[1], dtype=np.int8),
            phi_tac=np.array(arr[2], dtype=float),
            outcome_up=np.array(arr[3], dtype=bool),
            n_attempts=np.array(arr[4], dtype=np.int64),
        )
    return frames


def apply_filter(frame: ShotFrame, name: str) -> ShotFrame:
    """Condition records on the recorded branch; 'all', 'unconditioned' and
    'corrected' keep every shot, 'V'/'H' select branch 1/2."""
    if name not in FILTERS:
        raise ValueError(f"filter must be one of {FILTERS}, got {name!r}")
    if name == "V":
        return frame.select(frame.branch == 1)
    if name == "H":
        return frame.select(frame.branch == 2)
    return frame


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------


def _branch_stats(frames_by_setting: dict, n_bins: int) -> dict:
    branch = np.concatenate([f.branch for f in frames_by_setting.values()])
    att = np.concatenate([f.n_attempts for f in frames_by_setting.values()])
    phi = np.concatenate([f.phi_tac for f in frames_by_setting.values()])
    n = len(branch)
    scattering = branch > 0
    stats = {
        "n_shots": int(n),
        "n_branch_1": int(np.count_nonzero(branch == 1)),
        "n_branch_2": int(np.count_nonzero(branch == 2)),
        "mean_attempts": float(np.mean(att[scattering])) if scattering.any() else 0.0,
    }
    heralded = stats["n_branch_1"] + stats["n_branch_2"]
    stats["branch_1_fraction"] = stats["n_branch_1"] / heralded if heralded else 0.0
    # phase-resolved branch asymmetry over the populated phi_tac bins: 0 for
    # a linear analysis basis (both branches fire with probability 1/2 at
    # every phase) and maximal in the projective circular limit
    if heralded:
        bins = binned_fringe(phi[scattering], branch[scattering] == 1, n_bins)
        frac = bins[bins[:, 2] > 0, 1]
        stats["phase_resolved_branch_asymmetry"] = float(
            np.mean(np.abs(2.0 * frac - 1.0))
        )
    else:
        stats["phase_resolved_branch_asymmetry"] = 0.0
    return stats


def _tomography_summary(frames_by_setting: dict, flt: str) -> dict:
    filtered = {k: apply_filter(f, flt) for k, f in frames_by_setting.items()}
    result = reconstruct(filtered)
    return {
        "filter": flt,
        "identity_overlap": result.identity_overlap,
        "chi_real": result.chi.real.tolist(),
        "chi_imag": result.chi.imag.tolist(),
        "ptm": result.ptm.tolist(),
        "ellipsoid": {
            "center": result.ellipsoid.center.tolist(),
            "semi_axes": result.ellipsoid.semi_axes.tolist(),
            "principal_directions": result.ellipsoid.principal_directions.tolist(),
        },
    }


def _fringe_summary(frames_by_setting: dict, harmonic: int, n_bins: int) -> list[dict]:
    out = []
    for setting_id in sorted(frames_by_setting):
        f = frames_by_setting[setting_id]
        for b in (1, 2):
            sel = f.select(f.branch == b)
            if len(sel) == 0:
                continue
            bins = binned_fringe(sel.phi_tac, sel.outcome_up, n_bins)
            fit = fit_fringe(bins, harmonic)
            out.append(
                {
                    "setting_id": setting_id,
                    "branch": b,
                    "harmonic": harmonic,
                    "offset": fit.offset,
                    "amplitude": fit.amplitude,
                    "phase": fit.phase,
                    "contrast": fit.contrast,
                    "residual": fit.residual,
                }
            )
    return out


def _entanglement_summary(manifest: RunManifest) -> dict:
    seq = manifest.sequence()
    psi = KET_UP if seq.prep is None else seq.prep.matrix() @ KET_UP
    rho = noisy_joint_state(psi, 0.0, manifest.config.errors)
    return {
        "input": "sequence preparation",
        "fidelity": entanglement_fidelity(rho, psi, 0.0),
    }


def write_summary(path, summary: dict) -> None:
    Path(path).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# pipeline pieces shared by the subcommands
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResultBundle:
    records_path: Path
    summary_path: Path
    summary: dict


def _run_manifest(manifest: RunManifest) -> dict:
    seq = manifest.sequence()
    if manifest.analysis.tomography:
        return run_plan(manifest.config, seq, tomography_plan())
    return {0: run_experiment(manifest.config, seq)}


def _build_summary(manifest: RunManifest, frames_by_setting: dict) -> dict:
    """Summary of one manifest run: config echo and branch statistics, plus
    the analyses its [analysis] section requests."""
    cfg, analysis = manifest.config, manifest.analysis
    summary = {
        "version": __version__,
        "seed": cfg.seed,
        "config": {
            "sequence": manifest.sequence_name,
            "shots": cfg.shots,
            "seed": cfg.seed,
            "p_exc": cfg.p_exc,
            "eta": cfg.eta,
            "errors": asdict(cfg.errors),
            "basis_override": dict(manifest.basis_override),
        },
        "branch_stats": _branch_stats(frames_by_setting, analysis.bins),
    }
    if analysis.tomography:
        summary["tomography"] = _tomography_summary(frames_by_setting, analysis.filter)
    if analysis.fringe_harmonic is not None:
        summary["fringes"] = _fringe_summary(
            frames_by_setting, analysis.fringe_harmonic, analysis.bins
        )
    if analysis.entanglement_fidelity:
        summary["entanglement_fidelity"] = _entanglement_summary(manifest)
    return summary


def _apply_overrides(manifest: RunManifest, seed=None, shots=None) -> RunManifest:
    cfg = manifest.config
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    if shots is not None:
        cfg = replace(cfg, shots=shots)
    return replace(manifest, config=cfg)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_simulate(
    manifest_path, out_dir=None, seed=None, shots=None
) -> ResultBundle:
    """Run the manifest, write records.csv and summary.json."""
    manifest = _apply_overrides(load_manifest(manifest_path), seed, shots)
    out = Path(out_dir if out_dir is not None else manifest.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    frames = _run_manifest(manifest)
    summary = _build_summary(manifest, frames)

    records_path = out / "records.csv"
    summary_path = out / "summary.json"
    write_records(records_path, frames)
    write_summary(summary_path, summary)
    return ResultBundle(records_path, summary_path, summary)


def cmd_tomo(
    records_path=None,
    manifest_path=None,
    flt: str = "all",
    out_dir=None,
    seed=None,
    shots=None,
) -> dict:
    """Reconstruct the process matrix from records (or simulate first).

    Records must cover all 12 plan settings; the summary carries the
    projected chi, the identity overlap and the Bloch ellipsoid.
    """
    if records_path is not None:
        summary = {
            "version": __version__,
            "records": str(records_path),
            "tomography": _tomography_summary(read_records(records_path), flt),
        }
    elif manifest_path is not None:
        manifest = _apply_overrides(load_manifest(manifest_path), seed, shots)
        analysis = AnalysisRequest(
            tomography=True, bins=manifest.analysis.bins, filter=flt
        )
        manifest = replace(manifest, analysis=analysis)
        summary = _build_summary(manifest, _run_manifest(manifest))
    else:
        raise ValueError("cmd_tomo needs a records file or a manifest")

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_summary(out / "tomo_summary.json", summary)
    return summary


def cmd_ramsey(
    manifest_path, out_dir=None, seed=None, shots=None
) -> dict:
    """Run a Ramsey sequence; emit per-branch binned fringes and their fits."""
    manifest = _apply_overrides(load_manifest(manifest_path), seed, shots)
    seq = manifest.sequence()
    if seq.scatter is None or seq.analysis is None:
        raise ValueError(
            f"sequence {seq.name!r} is not a Ramsey sequence (needs a scatter "
            "block and an analysis pulse)"
        )
    harmonic = manifest.analysis.fringe_harmonic
    if harmonic is None:
        harmonic = 1 if seq.scatter_first else 2
    bins = manifest.analysis.bins
    manifest = replace(
        manifest, analysis=AnalysisRequest(fringe_harmonic=harmonic, bins=bins)
    )
    frames = _run_manifest(manifest)
    summary = _build_summary(manifest, frames)

    out = Path(out_dir if out_dir is not None else manifest.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    table_path = out / "fringe.csv"
    with table_path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("branch", "phi_bin_center", "p_up", "count"))
        for b in (1, 2):
            sel = frames[0].select(frames[0].branch == b)
            for phi_c, p, cnt in binned_fringe(sel.phi_tac, sel.outcome_up, bins):
                writer.writerow(
                    (b, format(phi_c, ".9g"), format(p, ".9g"), int(cnt))
                )
    write_summary(out / "ramsey_summary.json", summary)
    return summary


def cmd_sweep(manifest_path, parameter: str, grid, out_dir=None) -> list[dict]:
    """Repeat the manifest over `grid` values of one parameter.

    Writes sweep.csv keyed by the parameter value plus one summary per grid
    point; returns the summaries in grid order.
    """
    if parameter not in SWEEP_PARAMETERS:
        raise ValueError(
            f"unknown sweep parameter {parameter!r}; valid: {sorted(SWEEP_PARAMETERS)}"
        )
    if len(grid) == 0:
        raise ValueError("sweep grid must be nonempty")
    base = load_manifest(manifest_path)
    out = Path(out_dir if out_dir is not None else base.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    summaries = []
    rows = []
    for i, value in enumerate(grid):
        if parameter == "shots":
            manifest = _apply_overrides(base, shots=int(value))
        elif parameter == "seed":
            manifest = _apply_overrides(base, seed=int(value))
        elif parameter in _CONFIG_KEYS:
            manifest = replace(
                base, config=replace(base.config, **{parameter: float(value)})
            )
        elif parameter in _ERROR_KEYS:
            errors = replace(base.config.errors, **{parameter: float(value)})
            manifest = replace(base, config=replace(base.config, errors=errors))
        else:  # basis key
            override = dict(base.basis_override)
            override[parameter] = float(value)
            manifest = replace(base, basis_override=override)

        frames = _run_manifest(manifest)
        summary = _build_summary(manifest, frames)
        summary["sweep"] = {"parameter": parameter, "value": float(value)}
        write_summary(out / f"summary_{i:03d}.json", summary)
        summaries.append(summary)

        row = {
            "value": float(value),
            "n_shots": summary["branch_stats"]["n_shots"],
            "branch_1_fraction": summary["branch_stats"]["branch_1_fraction"],
            "identity_overlap": summary.get("tomography", {}).get(
                "identity_overlap", ""
            ),
        }
        rows.append(row)

    with (out / "sweep.csv").open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow((parameter, "n_shots", "branch_1_fraction", "identity_overlap"))
        for row in rows:
            writer.writerow(
                (
                    format(row["value"], ".9g"),
                    row["n_shots"],
                    format(row["branch_1_fraction"], ".9g"),
                    format(row["identity_overlap"], ".9g")
                    if row["identity_overlap"] != ""
                    else "",
                )
            )
    return summaries


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinherald",
        description="Simulate and analyse heralded photon-scattering correction "
        "on a spin qubit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="output directory (default: manifest out_dir)")
        p.add_argument("--seed", type=int, help="override the manifest seed")
        p.add_argument("--shots", type=int, help="override the manifest shot count")

    p_sim = sub.add_parser("simulate", help="run a manifest, write records + summary")
    p_sim.add_argument("--manifest", required=True)
    common(p_sim)

    p_tomo = sub.add_parser("tomo", help="process tomography from records or manifest")
    p_tomo.add_argument("--records", help="records.csv from a tomography run")
    p_tomo.add_argument("--manifest", help="manifest to simulate first")
    p_tomo.add_argument("--filter", default="all", choices=FILTERS)
    common(p_tomo)

    p_ram = sub.add_parser("ramsey", help="fringe table and fits for a Ramsey run")
    p_ram.add_argument("--manifest", required=True)
    common(p_ram)

    p_sweep = sub.add_parser("sweep", help="grid sweep over one parameter")
    p_sweep.add_argument("--manifest", required=True)
    p_sweep.add_argument("--parameter", required=True)
    p_sweep.add_argument(
        "--grid", required=True, help="comma-separated parameter values"
    )
    p_sweep.add_argument("--out", help="output directory")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            bundle = cmd_simulate(args.manifest, args.out, args.seed, args.shots)
            print(f"records: {bundle.records_path}")
            print(f"summary: {bundle.summary_path}")
        elif args.command == "tomo":
            if args.records is None and args.manifest is None:
                raise ValueError("tomo needs --records or --manifest")
            summary = cmd_tomo(
                args.records, args.manifest, args.filter, args.out, args.seed, args.shots
            )
            print(
                "identity_overlap:",
                format(summary["tomography"]["identity_overlap"], ".6f"),
            )
        elif args.command == "ramsey":
            summary = cmd_ramsey(args.manifest, args.out, args.seed, args.shots)
            for fit in summary["fringes"]:
                print(
                    f"branch {fit['branch']}: amplitude "
                    f"{fit['amplitude']:.4f} phase {fit['phase']:+.4f} "
                    f"contrast {fit['contrast']:.4f}"
                )
        elif args.command == "sweep":
            grid = [v for v in args.grid.split(",") if v.strip()]
            summaries = cmd_sweep(args.manifest, args.parameter, grid, args.out)
            print(f"{len(summaries)} grid points written")
    except BrokenPipeError:
        raise
    except Exception as exc:  # reported error -> nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

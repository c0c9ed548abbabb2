import ast
import configparser
import errno
import functools
import hashlib
import importlib
import io
import itertools
import json
import math
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import asdict
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from spinherald.cli import (
    AnalysisRequest,
    ManifestError,
    cmd_ramsey,
    cmd_simulate,
    cmd_sweep,
    cmd_tomo,
    load_manifest,
    main,
    read_counts,
)
import spinherald.cli
import spinherald.records
from spinherald.cli import _CHUNK
from spinherald.engine import (
    DRAWS_PER_SHOT,
    ShotFrame,
    UnsupportedCorrectionError,
    run_experiment,
    run_plan,
    standard_sequences,
)
from spinherald.scattering import PolarizationBasis, scatter
from spinherald.spinalg import ID2
from spinherald.tomography import (
    IncompleteDataError,
    ShotCounts,
    fit_fringe,
    reconstruct,
    tomography_plan,
)

from conftest import oracle_fringe, read_frames

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
        # no interpolation: a '%' reaches the typed getter
        ("[run]\nsequence = scatter_HV\nshots = 20%\n", r"\[run\] shots = '20%'"),
        ("[run]\nsequence = scatter_HV\n[analysis]\nbins = 0\n", "bins"),
        (
            "[run]\nsequence = no_scatter\n[analysis]\nfringe_harmonic = 3\n",
            "fringe_harmonic",
        ),
        (  # a fringe fit has 3 parameters
            "[run]\nsequence = ramsey_HV\n[analysis]\nfringe_harmonic = 2\nbins = 2\n",
            r"\[analysis\] bins must be >= 3",
        ),
        # values out of range name the section of their key
        ("[run]\nsequence = scatter_HV\n[errors]\np_multi = 2\n", r"\[errors\] p_multi must lie"),
        ("[run]\nsequence = scatter_HV\nshots = 0\n", r"\[run\] shots must be >= 1"),
        ("[run]\nsequence = scatter_HV\nseed = -1\n", r"\[run\] seed must be"),
        ("[run]\nsequence = scatter_HV\n[config]\neta = 1.5\n", r"\[config\] eta must lie"),
    ):
        path.write_text(text)
        with pytest.raises(ManifestError, match=key):
            load_manifest(path)
    # so do the values of a sweep grid
    path.write_text("[run]\nsequence = scatter_HV\nshots = 10\n")
    with pytest.raises(ManifestError, match=r"\[errors\] p_multi must lie in \[0, 1\], got 2.0"):
        cmd_sweep(path, "p_multi", ["2"], tmp_path / "sweep")


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


def test_manifest_rejects_a_default_section(tmp_path):
    # configparser copies [DEFAULT] keys into every section: a known key
    # would slip into [run] unchecked, and fail as unknown in [errors]
    path = tmp_path / "m.ini"
    for extra in ("", "[errors]\np_dark = 0.1\n"):
        path.write_text(f"[DEFAULT]\nshots = 5\n[run]\nsequence = scatter_HV\n{extra}")
        with pytest.raises(ManifestError, match=r"unknown manifest section \[DEFAULT\]"):
            load_manifest(path)


def test_manifest_missing_file(tmp_path):
    with pytest.raises(ManifestError, match="not found"):
        load_manifest(tmp_path / "absent.ini")


def test_analysis_request_checks_itself():
    for kwargs, key in (
        ({"bins": 0}, "bins"),
        ({"fringe_harmonic": 3}, "fringe_harmonic"),
        ({"filter": "bogus"}, "filter"),
        ({"fringe_harmonic": 1, "bins": 2}, "bins"),
    ):
        with pytest.raises(ValueError, match=key):
            AnalysisRequest(**kwargs)


def test_ramsey_needs_three_bins_before_the_run(tmp_path, monkeypatch):
    # ramsey always fits a fringe, of 3 parameters, so it checks the bins
    # before it runs a shot
    assert AnalysisRequest(bins=2).bins == 2  # no fit, no floor
    assert AnalysisRequest(fringe_harmonic=1, bins=3).bins == 3
    calls = []
    monkeypatch.setattr(spinherald.cli, "_run_counts", lambda *args: calls.append(args))
    ramsey = write_manifest(tmp_path / "r.ini", "ramsey_HV", shots=10, analysis={"bins": 2})
    with pytest.raises(ValueError, match="bins must be >= 3"):
        cmd_ramsey(ramsey, tmp_path / "out")
    assert calls == [] and not (tmp_path / "out").exists()


def test_analysis_bins_have_an_upper_limit(tmp_path):
    # a run's counts hold 6 int64 per phi_tac bin, whatever its shot count
    assert AnalysisRequest(bins=4096).bins == 4096
    with pytest.raises(ValueError, match=r"bins must lie in \[1, 4096\]"):
        AnalysisRequest(bins=4097)
    big = {"bins": 4097}
    tomo = write_manifest(tmp_path / "t.ini", "corrected_HV", shots=10, analysis=big)
    ramsey = write_manifest(tmp_path / "r.ini", "ramsey_HV", shots=10, analysis=big)
    for run in (
        lambda: cmd_simulate(tomo, tmp_path / "out"),
        lambda: cmd_tomo(manifest_path=tomo),
        lambda: cmd_ramsey(ramsey, tmp_path / "out"),
    ):
        with pytest.raises(ManifestError, match=r"\[analysis\] bins"):
            run()
    assert not (tmp_path / "out").exists()


def test_manifest_schema_doc_matches_the_parser(tmp_path):
    doc_path = Path(__file__).resolve().parents[1] / "docs" / "manifest-schema.ini"
    doc = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";",))
    doc.read(doc_path)
    schema = spinherald.cli._SCHEMA
    assert {s: set(doc[s]) for s in doc.sections()} == {
        s: set(keys) for s, keys in schema.items()
    }
    # every value the doc shows is what a manifest holding only the required
    # sequence yields; the basis is then the sequence's own
    path = tmp_path / "minimal.ini"
    path.write_text(f"[run]\nsequence = {doc['run']['sequence']}\n")
    m = load_manifest(path)
    cfg = m.config
    loaded = {
        "run": {"shots": cfg.shots, "seed": cfg.seed, "out_dir": m.out_dir},
        "config": {"p_exc": cfg.p_exc, "eta": cfg.eta},
        "errors": asdict(cfg.errors),
        "basis": asdict(m.sequence().scatter),
        "analysis": asdict(m.analysis),
    }
    for section, values in loaded.items():
        for key, value in values.items():
            assert schema[section][key](doc[section][key]) == value, (section, key)
    path.write_text("[run]\nsequence = ramsey_HV\n[analysis]\nfringe_harmonic =\n")
    assert load_manifest(path).analysis.fringe_harmonic is None
    # the comment of [run] sequence lists the catalog's names, each once
    text = doc_path.read_text()
    block = text[text.index("\nsequence =") : text.index("\nshots =")]
    comment = " ".join(line.partition(";")[2] for line in block.splitlines())
    listed = [name.strip() for name in comment.split("standard_sequences():")[1].split(",")]
    assert sorted(listed) == sorted(standard_sequences())


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


def test_paper_eta_keeps_the_heralded_overlap(tmp_path):
    # the paper reports an overlap above 0.85 whenever a photon was detected,
    # at eta = 2.5e-3; failed attempts leave no trace, so eta changes only
    # the attempt counts and the tomography equals that at eta = 1
    manifest = write_manifest(
        tmp_path / "m.ini", "corrected_HV", shots=20_000, seed=7,
        errors=NOMINAL_ERRORS,
        analysis={"tomography": "true", "filter": "corrected"},
        config={"p_exc": 0.075, "eta": 0.0025},
    )
    paper, ideal = cmd_sweep(manifest, "eta", [0.0025, 1.0], tmp_path / "out")
    assert paper["config"]["eta"] == 0.0025
    assert paper["tomography"] == ideal["tomography"]
    assert paper["tomography"]["identity_overlap"] > 0.85


# ---------------------------------------------------------------------------
# file round trips
# ---------------------------------------------------------------------------


def test_records_file_round_trip(tmp_path):
    manifest = write_manifest(
        tmp_path / "m.ini", "tomo_input_1", shots=200, seed=9,
        analysis={"tomography": "true"},
    )
    bundle = cmd_simulate(manifest, tmp_path / "out")
    tables = read_frames(bundle.records_path)
    assert sorted(tables) == list(range(12))
    # formatting the parsed frames again reproduces the file byte for byte
    assert records_bytes(tables) == bundle.records_path.read_bytes()


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
            read_counts(bad, 1)


RECORDS_HEADER = "shot_id,setting_id,branch,phi_tac,outcome,n_attempts\n"
GOOD_ROW = "0,0,1,0.5,up,1\n"


def records_bytes(frames: dict) -> bytes:
    """A records file of frames by setting: the header line, then the lines
    that `_record_lines` formats, settings in ascending order."""
    lines = (spinherald.cli._record_lines(k, f) for k, f in sorted(frames.items()))
    return RECORDS_HEADER.encode() + b"".join(lines)


def count_ranges(path, monkeypatch) -> int:
    """How many ranges `read_counts` cuts the body of a records file into,
    counted in process."""
    calls, task = [], spinherald.cli._range_task
    with monkeypatch.context() as m:
        cpus(m, 1)
        m.setattr(spinherald.cli, "_range_task", lambda t: calls.append(t) or task(t))
        read_counts(path, 1)
    return len(calls)


def test_read_records_rejects_lines_outside_the_grammar(tmp_path):
    bad = tmp_path / "r.csv"
    for body, lineno in (
        (GOOD_ROW + "\n" + GOOD_ROW, 3),  # blank line mid-file
        (GOOD_ROW + "\n", 3),  # trailing blank line
        ("# a comment\n" + GOOD_ROW, 2),
        ("0,0,1,0.5,downx,1\n", 2),
        ("0,0,1,0.5,upp,1\n", 2),
        ("0,0,1,0.5,up,1,7\n", 2),  # extra field
        (GOOD_ROW * 2 + "0,0,1,0.5,UP,1\n" + GOOD_ROW, 4),  # after good rows
        ("99999999999999999999,0,1,0.5,up,1\n", 2),  # shot_id beyond int64
    ):
        bad.write_text(RECORDS_HEADER + body)
        with pytest.raises(ValueError, match=rf"r\.csv:{lineno}: malformed record"):
            read_counts(bad, 1)


def test_read_records_accepts_only_what_the_writer_writes(tmp_path):
    # csv quoting, digit underscores, whitespace padding, CRLF line ends
    # and any other header are no part of the records grammar
    bad = tmp_path / "r.csv"
    for row in (
        '0,0,1,0.5,"up",1\n',
        "1_0,0,1,0.5,up,1\n",
        "0,0,1,1_0,up,1\n",
        " 0,0,1,0.5,up,1\n",
        "0,0,1, 0.5,up,1\n",
        "0,0,1,0.5,up,1\t\n",
        "0,0,1,0.5,up,1\r\n",
    ):
        bad.write_bytes((RECORDS_HEADER + GOOD_ROW + row).encode())
        with pytest.raises(ValueError, match=r"r\.csv:3: malformed record"):
            read_counts(bad, 1)
    for header in (
        RECORDS_HEADER.replace(",n_attempts", ""),
        RECORDS_HEADER.replace("\n", "\r\n"),
    ):
        bad.write_bytes((header + GOOD_ROW).encode())
        with pytest.raises(ValueError, match="unexpected records header"):
            read_counts(bad, 1)


def test_read_records_header_only_and_single_row(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text(RECORDS_HEADER)
    assert read_counts(path, 1) == {}
    path.write_text(RECORDS_HEADER + "5,3,2,-1.25,down,4")  # no final newline
    (setting, counts), = read_counts(path, 4).items()
    assert setting == 3
    # one shot of branch 2, outcome down, in the bin of -1.25 + 2 pi
    assert counts.n.sum() == counts.n[2, 3, 0] == 1
    assert counts.attempts == 4
    # a field is read as its value: signs, leading zeros and exponents too
    path.write_text(RECORDS_HEADER + "007,+3,01,.5,up,1\n-0,3,2,5E-1,down,4\n")
    loose = read_counts(path, 4)
    path.write_text(RECORDS_HEADER + "7,3,1,0.5,up,1\n0,3,2,0.5,down,4\n")
    assert_counts_equal(loose, read_counts(path, 4))


def test_read_records_checks_the_grammar_across_block_boundaries(tmp_path, monkeypatch):
    # with 4-byte blocks every line spans blocks, and some blank lines fall
    # on a block boundary
    path = tmp_path / "r.csv"
    body = "".join(f"{i},0,1,0.5,up,1\n" for i in range(9))
    path.write_text(RECORDS_HEADER + body)
    expected = read_counts(path, 3)
    monkeypatch.setattr(spinherald.cli, "_READ_BLOCK", 4)
    assert_counts_equal(read_counts(path, 3), expected)
    lines = body.splitlines(keepends=True)
    for k in range(len(lines) + 1):
        path.write_text(RECORDS_HEADER + "".join(lines[:k]) + "\n" + "".join(lines[k:]))
        with pytest.raises(ValueError, match=rf"r\.csv:{k + 2}: malformed record"):
            read_counts(path, 1)


def test_records_write_read_write_is_byte_identical(tmp_path):
    # more rows than one pool task, two settings, every branch and outcome
    rng = np.random.default_rng(12)
    n = 2**16 + 3
    frame = ShotFrame(
        shot_id=np.arange(n, dtype=np.int64),
        branch=rng.integers(0, 3, n).astype(np.int8),
        phi_tac=rng.uniform(0.0, 2 * math.pi, n),
        outcome_up=rng.random(n) < 0.5,
        n_attempts=rng.geometric(0.3, n).astype(np.int64),
    )
    path = tmp_path / "r.csv"
    path.write_bytes(records_bytes({4: frame, 1: frame.select(slice(0, 10))}))
    frames = read_frames(path)
    assert sorted(frames) == [1, 4]
    assert len(frames[4]) == n
    assert records_bytes(frames) == path.read_bytes()
    expected = {k: ShotCounts.of(f, 9) for k, f in frames.items()}
    assert_counts_equal(read_counts(path, 9), expected)


def test_records_write_phi_tac_as_nine_significant_digits(tmp_path):
    phis = [
        -0.0,
        5e-324,
        1e-5,
        9.9999999995e-5,
        float(np.nextafter(2 * math.pi, 0.0)),
        1e300,
        -1.25,
        -math.pi,
        -9.9999999995e-5,
    ]
    n = len(phis)
    frame = ShotFrame(
        shot_id=np.arange(n, dtype=np.int64),
        branch=np.arange(n).astype(np.int8) % 3,
        phi_tac=np.array(phis),
        outcome_up=np.arange(n) % 2 == 0,
        n_attempts=np.arange(n, dtype=np.int64) * 7,
    )
    path = tmp_path / "r.csv"
    path.write_bytes(records_bytes({3: frame}))
    assert path.read_text().splitlines()[1:] == [
        f"{i},3,{i % 3},{phi:.9g},{'down' if i % 2 else 'up'},{7 * i}"
        for i, phi in enumerate(phis)
    ]
    assert records_bytes(read_frames(path)) == path.read_bytes()


_REFERENCE_OUTCOMES = np.array(["down", "up"], dtype=object)


def reference_record_lines(setting_id: int, f: ShotFrame) -> str:
    """The records lines of one frame's shots from one %-format over every
    field, the writer's reference; %.9g formats a float as f"{x:.9g}" does."""
    fields = [0] * (5 * len(f))
    fields[0::5] = f.shot_id.tolist()
    fields[1::5] = f.branch.tolist()
    fields[2::5] = f.phi_tac.tolist()
    fields[3::5] = _REFERENCE_OUTCOMES[f.outcome_up.astype(np.intp)].tolist()
    fields[4::5] = f.n_attempts.tolist()
    return f"%d,{setting_id},%d,%.9g,%s,%d\n" * len(f) % tuple(fields)


def test_record_lines_equal_the_reference_formatter():
    rng = np.random.default_rng(16)
    int64_max = 2**63 - 1

    def integers(n, top):
        # every digit count up to that of top
        return rng.integers(0, top, n, endpoint=True) // 10 ** rng.integers(0, 19, n)

    def frame(phi, top=int64_max):
        n = len(phi)
        return ShotFrame(
            shot_id=integers(n, top),
            branch=rng.integers(0, 3, n).astype(np.int8),
            phi_tac=np.asarray(phi, dtype=np.float64),
            outcome_up=rng.random(n) < 0.5,
            n_attempts=integers(n, top),
        )

    special = [
        0.0, -0.0, 5e-324, 9.9999999995e-5, 9.9999999995, 999999999.6, 1e300,
        1e-4, 1e9, 99999999.95, -1.25, -math.pi, -1e-7, -1e300,
    ]
    n = 4000
    log_uniform = 10.0 ** rng.uniform(-8.0, 12.0, n)
    frames = [
        frame(log_uniform),
        frame((rng.integers(0, 10**9, n) + 0.5) / 1e8),  # decimal ties
        frame(rng.choice(special, n)),
        frame(log_uniform * rng.choice([-1.0, 1.0], n)),
        frame(np.round(log_uniform, 3)),  # trailing fraction zeros
        frame([]),
        frame([2 * math.pi]),
    ]
    for top in (9, 10**9 - 1, 2**31, 10**10 - 1, int64_max):  # 1, 9, 10, 10, 19 digits
        f = frame(log_uniform[:50], top)
        f.shot_id[0] = f.n_attempts[-1] = top
        frames.append(f)
    for setting_id in (0, 7, 11, 1234567, int64_max):
        for f in frames:
            expected = reference_record_lines(setting_id, f).encode()
            assert spinherald.cli._record_lines(setting_id, f) == expected


def test_record_lines_are_at_most_line_max_bytes():
    # int64-max integers and the widest phi_tac texts: a sign, 9 digits and
    # a 4-character exponent, or a sign and 14 fixed-point characters
    int64_max = 2**63 - 1
    phi = [-1.23456789e-100, -1.23456789e100, -0.000123456789, -123456789.5, 5e-324]
    n = len(phi)
    f = ShotFrame(
        shot_id=np.full(n, int64_max),
        branch=np.full(n, 2, np.int8),
        phi_tac=np.array(phi),
        outcome_up=np.zeros(n, bool),
        n_attempts=np.full(n, int64_max),
    )
    lines = spinherald.cli._record_lines(int64_max, f).splitlines(keepends=True)
    assert len(lines) == n
    assert max(map(len, lines)) == 19 + 21 + 2 + 16 + 1 + 4 + 1 + 19 + 1
    assert max(map(len, lines)) <= spinherald.cli._LINE_MAX


def test_write_records_rejects_what_read_records_rejects(tmp_path):
    def frame(**column):
        values = {
            "shot_id": [0, 1], "branch": [0, 2], "phi_tac": [0.5, 1.5],
            "outcome_up": [True, False], "n_attempts": [1, 3], **column,
        }
        dtypes = (np.int64, np.int8, np.float64, bool, np.int64)
        return ShotFrame(*(np.array(v, t) for v, t in zip(values.values(), dtypes)))

    for setting_id, f, column in (
        (0, frame(phi_tac=[0.5, math.nan]), "phi_tac"),
        (0, frame(phi_tac=[math.inf, 0.5]), "phi_tac"),
        (1, frame(shot_id=[-1, 1]), "shot_id"),
        (2, frame(n_attempts=[1, -3]), "n_attempts"),
        (3, frame(branch=[3, 1]), "branch"),
        (-4, frame(), "setting_id"),
    ):
        with pytest.raises(ValueError, match=rf"setting {setting_id}: {column} must be"):
            spinherald.cli._record_lines(setting_id, f)
    path = tmp_path / "r.csv"
    path.write_bytes(records_bytes({5: frame()}))
    assert read_frames(path)[5].equals(frame())
    assert_counts_equal(read_counts(path, 2), {5: ShotCounts.of(frame(), 2)})


def random_rows(n: int, settings, seed: int) -> str:
    """Records lines of n shots, the i-th in setting settings[i % len]."""
    rng = np.random.default_rng(seed)
    return "".join(
        f"{i},{settings[i % len(settings)]},{rng.integers(0, 3)},"
        f"{rng.uniform(-1.0, 7.0):.9g},{rng.choice(['up', 'down'])},"
        f"{rng.integers(0, 50)}\n"
        for i in range(n)
    )


def test_record_blocks_report_the_line_number_in_the_file(tmp_path, monkeypatch):
    monkeypatch.setattr(spinherald.cli, "_READ_BLOCK", 40)
    path = tmp_path / "r.csv"
    lines = random_rows(30, (0,), 1).splitlines(keepends=True)
    path.write_text(RECORDS_HEADER + "".join(lines))
    assert count_ranges(path, monkeypatch) > 10
    for k in (0, 13, 29):
        bad = lines.copy()
        bad[k] = f"{k},0,1,0.5,UP,1\n"
        path.write_text(RECORDS_HEADER + "".join(bad))
        with pytest.raises(
            ValueError,
            match=rf"r\.csv:{k + 2}: malformed record \['{k}', '0', '1', '0.5', 'UP', '1'\]",
        ):
            read_counts(path, 1)


def test_read_counts_adds_settings_across_blocks(tmp_path, monkeypatch):
    path = tmp_path / "r.csv"
    # rows for 0, then 1, then 0 again, ... spread over many blocks; the
    # final line has no line end
    path.write_text(RECORDS_HEADER + random_rows(60, (0, 0, 1, 0, 2, 2, 1), 2).rstrip("\n"))
    frames = read_frames(path)
    assert list(frames) == [0, 1, 2]
    assert frames[0].shot_id.tolist() == [i for i in range(60) if i % 7 in (0, 1, 3)]
    whole = read_counts(path, 5)  # the body in one range
    monkeypatch.setattr(spinherald.cli, "_READ_BLOCK", 40)
    assert count_ranges(path, monkeypatch) > 10
    counts = read_counts(path, 5)
    assert list(counts) == [0, 1, 2]
    assert_counts_equal(counts, whole)
    assert_counts_equal(counts, {k: ShotCounts.of(f, 5) for k, f in frames.items()})


@pytest.mark.parametrize("n_bins", [0, -1])
def test_read_counts_rejects_fewer_than_one_bin(tmp_path, n_bins):
    path = tmp_path / "r.csv"
    path.write_text(RECORDS_HEADER + random_rows(20, (0, 1), 3))
    with pytest.raises(ValueError, match=rf"n_bins must be >= 1, got {n_bins}"):
        read_counts(path, n_bins)


@pytest.mark.parametrize("n_bins", [0, -1])
def test_read_counts_checks_its_bins_before_reading(tmp_path, n_bins):
    path = tmp_path / "r.csv"
    path.write_text(RECORDS_HEADER)  # no rows, so no range is ever counted
    for records in (path, tmp_path / "missing.csv"):
        with pytest.raises(ValueError, match=rf"n_bins must be >= 1, got {n_bins}"):
            read_counts(records, n_bins)
    with pytest.raises(FileNotFoundError, match="records file not found"):
        read_counts(tmp_path / "missing.csv", 1)


def test_read_counts_rejects_more_bins_than_a_manifest_may_ask_for(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text(RECORDS_HEADER + random_rows(20, (0, 1), 3))
    cap = spinherald.cli._MAX_BINS
    for records in (path, tmp_path / "missing.csv"):  # checked before reading
        with pytest.raises(ValueError, match=rf"n_bins must be <= {cap}, got {cap + 1}"):
            read_counts(records, cap + 1)


def test_tomo_records_in_small_blocks_equals_simulate(tmp_path, monkeypatch):
    monkeypatch.setattr(spinherald.cli, "_READ_BLOCK", 100)
    for flt in ("all", "V", "H", "corrected"):
        manifest = write_manifest(
            tmp_path / f"{flt}.ini", "corrected_HV", shots=200, seed=45,
            errors=NOMINAL_ERRORS, config={"p_exc": 0.075},
            analysis={"tomography": "true", "filter": flt},
        )
        out = tmp_path / flt
        bundle = cmd_simulate(manifest, out)
        argv = ["tomo", "--records", str(bundle.records_path), "--filter", flt]
        assert main([*argv, "--out", str(out)]) == 0
        tomo = json.loads((out / "tomo_summary.json").read_text())
        assert tomo["tomography"] == bundle.summary["tomography"]


# ---------------------------------------------------------------------------
# tomo
# ---------------------------------------------------------------------------


def test_demo_imports_resolve():
    # every name the demos import from the package still exists
    demos = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
    assert demos
    for demo in demos:
        for node in ast.walk(ast.parse(demo.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module.startswith("spinherald"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), (demo.name, alias.name)


def test_demos_run_to_completion(tmp_path):
    # each demo in a fresh interpreter, from an empty working directory
    demos = sorted(DEMOS.glob("0*.py"))
    assert len(demos) == 4
    for demo in demos:
        done = subprocess.run(
            [sys.executable, str(demo)], cwd=tmp_path, env=src_env(),
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, (demo.name, done.stderr[-2000:])


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


def test_kernel_paths_records_bytes_are_pinned(tmp_path):
    # one pin per kernel path the corrected pins above do not take: a
    # scatter block with no prep pulse before it, an elliptical
    # birefringent kick, no scatter block at all, and the Ramsey fringe table
    def nominal(name, sequence, errors=NOMINAL_ERRORS, basis=None, tomography=True):
        return write_manifest(
            tmp_path / f"{name}.ini", sequence, shots=2000, seed=7,
            errors=errors, basis=basis, config={"p_exc": 0.075},
            analysis={"tomography": "true"} if tomography else None,
        )

    cases = (
        (
            nominal("r45", "ramsey_45", tomography=False),
            "d1298769bd9f3416ce318d20a4e8330e8f2e36e38e1a8a0161609505199bfec3",
        ),
        (
            nominal(
                "shv", "scatter_HV", errors={**NOMINAL_ERRORS, "biref_phase": 0.2},
                basis={"ellipticity": 0.3},
            ),
            "d7c0afc4a51f267aad20e7c3dcebc80ae1feeae7a9a9cf3fcde0270111ab751a",
        ),
        (
            nominal("ns", "no_scatter"),
            "1ee8cfd093c2b2bf9e6b5766dbf54ab9d2db7d6db25c02fed4235565275fdb2d",
        ),
    )
    for i, (manifest, expected) in enumerate(cases):
        bundle = cmd_simulate(manifest, tmp_path / f"out{i}", shots=2000)
        digest = hashlib.sha256(bundle.records_path.read_bytes()).hexdigest()
        assert digest == expected, manifest

    demo = Path(__file__).resolve().parents[1] / "demos" / "ramsey_hv.ini"
    cmd_ramsey(demo, tmp_path / "ramsey", shots=20_000)
    digest = hashlib.sha256((tmp_path / "ramsey" / "fringe.csv").read_bytes()).hexdigest()
    assert digest == "0f089011e2ba9f09d744b8ddb84f8d7472a2f602a1f725a06d2adc1fbfe791db"


def test_tomo_from_records_matches_in_memory(tmp_path):
    manifest = write_manifest(
        tmp_path / "m.ini", "scatter_HV", shots=5000, seed=21,
        analysis={"tomography": "true"},
    )
    bundle = cmd_simulate(manifest, tmp_path / "out")
    regenerated = cmd_tomo(records_path=bundle.records_path, flt="all")
    assert regenerated["tomography"] == bundle.summary["tomography"]


def test_ramsey_45_tomography_is_the_scatter_45_tomography(tmp_path):
    # the plan swaps in its own prep and analysis pulses, so a sequence
    # without a prep pulse runs the plan of its bare scatter block
    bundles = [
        cmd_simulate(
            write_manifest(
                tmp_path / f"{name}.ini", name, shots=3000, seed=7,
                errors=NOMINAL_ERRORS, config={"p_exc": 0.075},
                analysis={"tomography": "true"},
            ),
            tmp_path / name,
        )
        for name in ("ramsey_45", "scatter_45")
    ]
    r45, s45 = bundles
    assert r45.records_path.read_bytes() == s45.records_path.read_bytes()
    for block in ("tomography", "branch_stats"):
        assert r45.summary[block] == s45.summary[block], block


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
    # a complete plan plus rows of a setting the plan does not have
    manifest = write_manifest(
        tmp_path / "m.ini", "scatter_HV", shots=50, analysis={"tomography": "true"}
    )
    records = cmd_simulate(manifest, tmp_path / "plan").records_path
    with records.open("a") as fh:
        fh.writelines(f"{i},12,1,0.5,up,1\n" for i in range(50))
    with pytest.raises(ValueError, match=r"\[12\]"):
        cmd_tomo(records_path=records, flt="all")


def test_failed_simulate_leaves_no_records(tmp_path):
    # p_exc = 1e-30 gives attempt counts beyond int64
    manifest = write_manifest(
        tmp_path / "m.ini", "scatter_HV", shots=5, seed=1, config={"p_exc": 1e-30}
    )
    with pytest.raises(ValueError, match="herald probability"):
        cmd_simulate(manifest, tmp_path / "out")
    assert list((tmp_path / "out").iterdir()) == []


def test_overflowing_phase_jitter_is_rejected(tmp_path):
    # sigma * _ndtri(u) overflows to inf here, which the engine would record
    # as a nan phi_tac
    for extra in ({}, {"entanglement_fidelity": "true"}):
        manifest = write_manifest(
            tmp_path / "m.ini", "scatter_HV", shots=50, seed=1,
            errors={"phi_jitter_sigma": 1e308}, analysis=extra,
        )
        with pytest.raises(ValueError, match="phi_jitter_sigma"):
            cmd_simulate(manifest, tmp_path / "out")
        assert not (tmp_path / "out" / "records.csv").exists()
    # the largest jitter kept still records finite phases and a finite state:
    # 2.1897e307 * 8.2096 is finite, and 2.1898e307 * 8.2096 is not
    manifest = write_manifest(
        tmp_path / "m.ini", "scatter_HV", shots=50, seed=1,
        errors={"phi_jitter_sigma": 2.1897e307},
        analysis={"entanglement_fidelity": "true"},
    )
    bundle = cmd_simulate(manifest, tmp_path / "out")
    assert np.isfinite(read_frames(bundle.records_path)[0].phi_tac).all()
    assert math.isfinite(bundle.summary["entanglement_fidelity"]["fidelity"])


def test_tomo_manifest_takes_the_manifest_filter(tmp_path):
    manifest = write_manifest(
        tmp_path / "m.ini", "corrected_HV", shots=300, seed=49,
        errors=NOMINAL_ERRORS, analysis={"tomography": "true", "filter": "V"},
    )
    sim = cmd_simulate(manifest, tmp_path / "sim").summary
    assert cmd_tomo(manifest_path=manifest)["tomography"] == sim["tomography"]
    # an explicit filter still wins; records carry no filter and take all
    assert cmd_tomo(manifest_path=manifest, flt="H")["tomography"]["filter"] == "H"
    records = tmp_path / "sim" / "records.csv"
    assert cmd_tomo(records_path=records)["tomography"]["filter"] == "all"


def test_tomo_rejects_a_bad_filter_before_any_work(tmp_path, monkeypatch):
    def never(*args):
        raise AssertionError("ran work for a request it must reject")

    manifest = write_manifest(tmp_path / "m.ini", "corrected_HV", shots=20)
    records = cmd_simulate(manifest, tmp_path / "sim").records_path
    monkeypatch.setattr(spinherald.cli, "_run_counts", never)
    monkeypatch.setattr(spinherald.cli, "read_counts", never)
    with pytest.raises(ValueError, match="filter must be one of"):
        cmd_tomo(manifest_path=manifest, flt="bogus")
    with pytest.raises(ValueError, match="filter must be one of"):
        cmd_tomo(records_path=records, flt="bogus")


# ---------------------------------------------------------------------------
# summaries built from counts, against oracles built from shot frames
# ---------------------------------------------------------------------------


def oracle_branch_stats(frames: dict, n_bins: int) -> dict:
    branch = np.concatenate([f.branch for f in frames.values()])
    att = np.concatenate([f.n_attempts for f in frames.values()])
    phi = np.concatenate([f.phi_tac for f in frames.values()])
    heralded = branch > 0
    n1, n2 = int((branch == 1).sum()), int((branch == 2).sum())
    table = oracle_fringe(phi[heralded], branch[heralded] == 1, n_bins)
    frac = table[table[:, 2] > 0, 1]
    return {
        "n_shots": len(branch),
        "n_branch_1": n1,
        "n_branch_2": n2,
        "mean_attempts": float(np.mean(att[heralded])),
        "branch_1_fraction": n1 / (n1 + n2),
        "phase_resolved_branch_asymmetry": float(np.mean(np.abs(2.0 * frac - 1.0))),
    }


def oracle_fringes(frames: dict, n_bins: int, harmonic: int) -> list:
    fits = []
    for setting_id in sorted(frames):
        f = frames[setting_id]
        for b in (1, 2):
            sel = f.branch == b
            if sel.any():
                bins = oracle_fringe(f.phi_tac[sel], f.outcome_up[sel], n_bins)
                fit = asdict(fit_fringe(bins, harmonic))
                fits.append({"setting_id": setting_id, "branch": b, **fit})
    return fits


def oracle_tomography(frames: dict, flt: str) -> dict:
    keep = {"V": (1,), "H": (2,)}.get(flt, (0, 1, 2))
    result = reconstruct(
        {k: f.select(np.isin(f.branch, keep)) for k, f in frames.items()}
    )
    e = result.ellipsoid
    return {
        "filter": flt,
        "identity_overlap": result.identity_overlap,
        "chi_real": result.chi.real.tolist(),
        "chi_imag": result.chi.imag.tolist(),
        "ptm": result.ptm.tolist(),
        "ellipsoid": {
            "center": e.center.tolist(),
            "semi_axes": e.semi_axes.tolist(),
            "principal_directions": e.principal_directions.tolist(),
        },
    }


def test_ramsey_summary_equals_frame_oracle(tmp_path):
    manifest = write_manifest(
        tmp_path / "m.ini", "ramsey_45", shots=70_000, seed=41,
        errors=NOMINAL_ERRORS, config={"p_exc": 0.3, "eta": 0.5},
        analysis={"bins": 13},
    )
    summary = cmd_ramsey(manifest, tmp_path / "out")
    m = load_manifest(manifest)
    frames = {0: run_experiment(m.config, m.sequence())}
    assert summary["branch_stats"] == oracle_branch_stats(frames, 13)
    assert summary["fringes"] == oracle_fringes(frames, 13, 1)


def test_tomo_manifest_summary_equals_frame_oracle(tmp_path):
    manifest = write_manifest(
        tmp_path / "m.ini", "tomo_input_3", shots=3000, seed=42,
        errors=NOMINAL_ERRORS, config={"eta": 0.2},
        basis={"ellipticity": 0.25}, analysis={"bins": 7},
    )
    m = load_manifest(manifest)
    frames = run_plan(m.config, m.sequence(), tomography_plan())
    for flt in ("V", "H", "all"):
        summary = cmd_tomo(manifest_path=manifest, flt=flt)
        assert summary["branch_stats"] == oracle_branch_stats(frames, 7)
        assert summary["tomography"] == oracle_tomography(frames, flt)


def test_sweep_summaries_equal_frame_oracle(tmp_path):
    manifest = write_manifest(
        tmp_path / "m.ini", "corrected_HV", shots=2000, seed=43,
        errors=NOMINAL_ERRORS, config={"p_exc": 0.075, "eta": 0.01},
        analysis={"tomography": "true", "filter": "V", "fringe_harmonic": 2, "bins": 9},
    )
    grid = ["0", "0.2"]
    for value, summary in zip(grid, cmd_sweep(manifest, "p_multi", grid, tmp_path / "out")):
        m = load_manifest(manifest, {"p_multi": value})
        frames = run_plan(m.config, m.sequence(), tomography_plan())
        assert summary["branch_stats"] == oracle_branch_stats(frames, 9)
        assert summary["tomography"] == oracle_tomography(frames, "V")
        assert summary["fringes"] == oracle_fringes(frames, 9, 2)


def test_ramsey_memory_does_not_grow_with_shots(tmp_path):
    manifest = write_manifest(
        tmp_path / "m.ini", "ramsey_HV", shots=1, seed=44, config={"p_exc": 0.075}
    )

    def peak(shots):
        tracemalloc.start()
        try:
            summary = cmd_ramsey(manifest, tmp_path / "out", shots=shots)
            traced = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert summary["branch_stats"]["n_shots"] == shots
        return traced

    small = peak(1 << 17)
    # a frame of 2^21 shots alone would take 2^21 * 26 B = 54 MB
    assert peak(1 << 21) <= small + (1 << 20)


def test_ramsey_memory_does_not_grow_with_shots_in_process(tmp_path, monkeypatch):
    # on a pool tracemalloc sees only the parent; in process it sees the
    # engine and the counts of every chunk
    cpus(monkeypatch, 1)
    test_ramsey_memory_does_not_grow_with_shots(tmp_path)


def test_simulate_memory_does_not_grow_with_shots(tmp_path, monkeypatch):
    # in process, so that tracemalloc sees the engine, the counts and the
    # records lines of every chunk
    cpus(monkeypatch, 1)
    manifest = write_manifest(
        tmp_path / "m.ini", "ramsey_HV", shots=1, seed=44, config={"p_exc": 0.075}
    )

    def peak(shots):
        tracemalloc.start()
        try:
            bundle = cmd_simulate(manifest, tmp_path / "out", shots=shots)
            traced = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert bundle.summary["branch_stats"]["n_shots"] == shots
        assert bundle.records_path.stat().st_size > 20 * shots
        return traced

    small = peak(1 << 17)
    # the records of 2^19 shots held whole would take over 2^19 * 20 B = 10 MB
    assert peak(1 << 19) <= small + (1 << 20)


def test_tomo_records_memory_does_not_grow_with_rows(tmp_path):
    def peak(rows):
        rng = np.random.default_rng(rows)
        frames = {}
        for setting_id, ids in enumerate(np.array_split(np.arange(rows), 12)):
            n = len(ids)
            frames[setting_id] = ShotFrame(
                shot_id=ids.astype(np.int64),
                branch=rng.integers(0, 3, n).astype(np.int8),
                phi_tac=rng.uniform(0.0, 2 * math.pi, n),
                outcome_up=rng.random(n) < 0.5,
                n_attempts=rng.geometric(0.3, n).astype(np.int64),
            )
        records = tmp_path / f"records_{rows}.csv"
        records.write_bytes(records_bytes(frames))
        tracemalloc.start()
        try:
            summary = cmd_tomo(records_path=records, flt="all")
            traced = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.0 <= summary["tomography"]["identity_overlap"] <= 1.0
        return traced

    small = peak(1 << 16)
    # parsed whole, 2^19 rows would take 2^19 * 45 B = 24 MB
    assert peak(1 << 19) <= small + (1 << 20)


def test_tomo_records_memory_does_not_grow_with_rows_in_process(tmp_path, monkeypatch):
    # on a pool tracemalloc sees only the parent; in process it sees the parse
    cpus(monkeypatch, 1)
    test_tomo_records_memory_does_not_grow_with_rows(tmp_path)


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


def test_sweep_echoes_the_parsed_value(tmp_path):
    manifest = write_manifest(tmp_path / "m.ini", "scatter_HV", shots=10)
    seeds = [1234567890123, 1234567890124]
    summaries = cmd_sweep(manifest, "seed", [str(s) for s in seeds], tmp_path / "a")
    assert [s["sweep"]["value"] for s in summaries] == seeds
    assert [s["seed"] for s in summaries] == seeds
    table = (tmp_path / "a" / "sweep.csv").read_text().strip().split("\n")
    assert [row.split(",")[0] for row in table[1:]] == [str(s) for s in seeds]
    # float parameters keep their 9-significant-digit column
    summaries = cmd_sweep(manifest, "p_multi", ["1e-3", "0.1234567891"], tmp_path / "b")
    assert [s["sweep"]["value"] for s in summaries] == [1e-3, 0.1234567891]
    table = (tmp_path / "b" / "sweep.csv").read_text().strip().split("\n")
    assert [row.split(",")[0] for row in table[1:]] == ["0.001", "0.123456789"]


def test_sweep_table_bytes_are_pinned(tmp_path):
    # floats with an identity overlap, then ints with an empty overlap field
    manifest = write_manifest(
        tmp_path / "m.ini", "corrected_HV", shots=3000, seed=48,
        errors={"p_dark": 0.03, "phi_jitter_sigma": 0.17},
        analysis={"tomography": "true", "filter": "corrected"},
    )
    cmd_sweep(manifest, "p_multi", ["0", "0.05", "0.1234567891"], tmp_path / "a")
    assert (tmp_path / "a" / "sweep.csv").read_text().split("\n")[:2] == [
        "p_multi,n_shots,branch_1_fraction,identity_overlap",
        "0,36000,0.496833333,0.975984545",
    ]
    assert sha256(tmp_path / "a" / "sweep.csv") == (
        "e3482336bc33c69e33a295491d88b2c96cbb29b14fd44546d2312e2fb7726779"
    )
    cmd_sweep(DEMOS / "ramsey_hv.ini", "seed", ["1", "1234567890123"], tmp_path / "b")
    assert (tmp_path / "b" / "sweep.csv").read_text().split("\n")[:2] == [
        "seed,n_shots,branch_1_fraction,identity_overlap",
        "1,100000,0.50184,",
    ]
    assert sha256(tmp_path / "b" / "sweep.csv") == (
        "ad3b72df52da091ce7057fb54699585af4466719ad76a1f807ca2447668d2cf4"
    )


def test_sweep_unknown_parameter(tmp_path):
    manifest = write_manifest(tmp_path / "m.ini", "scatter_HV", shots=10)
    with pytest.raises(ValueError, match="p_multi"):
        cmd_sweep(manifest, "bogus", [1.0], tmp_path / "out")
    with pytest.raises(ValueError, match="nonempty"):
        cmd_sweep(manifest, "p_multi", [], tmp_path / "out")
    with pytest.raises(ManifestError, match="shots"):
        cmd_sweep(manifest, "shots", ["1e2"], tmp_path / "out")
    with pytest.raises(ManifestError, match=r"\[errors\] p_multi = '5%'"):
        cmd_sweep(manifest, "p_multi", ["5%"], tmp_path / "out")


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


def test_main_tomo_records_rejects_run_options(tmp_path, capsys):
    manifest = write_manifest(
        tmp_path / "m.ini", "corrected_HV", shots=50, analysis={"tomography": "true"}
    )
    records = str(cmd_simulate(manifest, tmp_path / "run").records_path)
    assert main(["tomo", "--records", records]) == 0
    capsys.readouterr()
    for extra, message in (
        (["--seed", "3"], "overrides need a manifest"),
        (["--shots", "5"], "overrides need a manifest"),
        (["--manifest", str(manifest)], "exactly one"),
    ):
        assert main(["tomo", "--records", records, *extra]) != 0
        assert message in capsys.readouterr().err


def test_main_ramsey_wrong_sequence(tmp_path, capsys):
    manifest = write_manifest(tmp_path / "m.ini", "no_scatter", shots=10)
    assert main(["ramsey", "--manifest", str(manifest)]) != 0
    capsys.readouterr()


def test_cli_import_loads_no_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    # nor an executor's modules, which not even a run on the pool imports
    # (test_pooled_run_loads_no_executor_and_starts_no_thread)
    lazy = ("scipy", "multiprocessing", "concurrent")
    code = (
        "import spinherald.cli, sys; "
        f"print(sorted(m for m in sys.modules if m.split('.')[0] in {lazy!r}))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


POOLED_RAMSEY = """
import os, sys, threading
os.sched_getaffinity = lambda pid: {0, 1}
import spinherald.cli as cli
threads, run_counts = [], cli._run_counts

def counted(manifest, pool, *args):
    counts = run_counts(manifest, pool, *args)
    threads.append(threading.active_count())  # the pool still runs here
    return counts

cli._run_counts = counted
cli.cmd_ramsey(sys.argv[1], sys.argv[2], shots=3 * cli._CHUNK)
lazy = ("multiprocessing", "concurrent", "select")
print(threads, sorted(m for m in sys.modules if m.split(".")[0] in lazy))
"""


def test_pooled_run_loads_no_executor_and_starts_no_thread(tmp_path):
    # a fresh CLI process on a pool of two workers, which it forks itself
    out = subprocess.run(
        [sys.executable, "-c", POOLED_RAMSEY, str(DEMOS / "ramsey_hv.ini"), str(tmp_path)],
        env=src_env(), capture_output=True, text=True, check=True, timeout=300,
    ).stdout
    assert out.strip() == "[1] []"
    assert (tmp_path / "fringe.csv").exists()


# ---------------------------------------------------------------------------
# chunk pool
# ---------------------------------------------------------------------------

DEMOS = Path(__file__).resolve().parents[1] / "demos"
CLI_ENTRY = "import sys; from spinherald.cli import main; sys.exit(main(sys.argv[1:]))"


def cpus(monkeypatch, n):
    """Let the CLI see n usable CPUs: 1 runs its chunks in process, 2 on a
    pool of two workers whatever the machine has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def assert_no_child_left():
    """This process has no child left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def src_env() -> dict:
    """This environment with the checkout's src/ first on PYTHONPATH."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def console(argv, out):
    """The console entry on argv, started in a session of its own."""
    return subprocess.Popen(
        [sys.executable, "-c", CLI_ENTRY, *argv, "--out", str(out)],
        env=src_env(), stdout=subprocess.DEVNULL, start_new_session=True,
    )


def test_multi_chunk_outputs_are_pinned_on_the_pool_and_in_process(tmp_path, monkeypatch):
    # two chunks per setting, of 32,769 and 32,770 shots, and three of
    # 43,692 or 43,693 for the ramsey run: the digests pin the order of
    # collection
    outputs = {}
    for n in (2, 1):
        cpus(monkeypatch, n)
        out = tmp_path / f"cpus{n}"
        bundle = cmd_simulate(DEMOS / "corrected_hv.ini", out / "sim", shots=65539)
        ramsey = cmd_ramsey(DEMOS / "ramsey_hv.ini", out / "ramsey", shots=131077)
        assert_no_child_left()
        assert sha256(bundle.records_path) == (
            "e05e5bc12f7378ba4cb64341018e76904f913ddee1b5195ce5eb137904bde236"
        )
        assert sha256(out / "ramsey" / "fringe.csv") == (
            "8d569bd82dea3264c2de6ac8decd0f183c287d8891d8c1f25722a84f83f99ffe"
        )
        outputs[n] = (bundle.summary, ramsey)
    assert outputs[2] == outputs[1]


def task_and_bytes(task):
    return task, np.random.default_rng(task).bytes(40_000 * task)


def test_pool_passes_a_tasks_bytes_to_the_sink_a_buffer_at_a_time(monkeypatch):
    tasks = [0, 1, 5, 2]  # 0 to 200,000 bytes: up to three buffers and a part
    expected = [task_and_bytes(task)[1] for task in tasks]
    buffer = spinherald.cli._COPY_BUFFER
    pieces = {  # a task's bytes on the pool, whole in process
        2: [40_000, buffer, buffer, buffer, 200_000 - 3 * buffer, buffer, 80_000 - buffer],
        1: [0, 40_000, 200_000, 80_000],
    }
    for n in (2, 1):
        cpus(monkeypatch, n)
        sunk = []
        with spinherald.cli._ChunkPool() as pool:
            # each value comes once its bytes, and no later ones, are sunk
            seen = [
                (value, sum(map(len, sunk)))
                for value in pool.map(task_and_bytes, tasks, sunk.append)
            ]
        assert seen == list(zip(tasks, itertools.accumulate(map(len, expected))))
        assert b"".join(sunk) == b"".join(expected)
        assert list(map(len, sunk)) == pieces[n]
        assert_no_child_left()


def test_simulate_on_the_pool_holds_no_records_lines(tmp_path, monkeypatch):
    # the workers send their lines down their result pipes, and this process
    # copies them to the records file a buffer at a time
    cpus(monkeypatch, 2)
    manifest = write_manifest(
        tmp_path / "m.ini", "ramsey_HV", shots=1, seed=44, config={"p_exc": 0.075}
    )
    cmd_simulate(manifest, tmp_path / "warm", shots=1 << 18)  # imports the pool

    def peak(shots):
        tracemalloc.start()
        try:
            bundle = cmd_simulate(manifest, tmp_path / str(shots), shots=shots)
            traced = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert bundle.records_path.stat().st_size > 20 * shots
        return traced

    small, large = peak(1 << 18), peak(1 << 20)  # 4 and 16 chunks
    # the lines of one chunk alone take over _CHUNK * 20 B = 1.25 MiB
    assert max(small, large) < _CHUNK * 20
    assert large <= small + (1 << 16)


class NearlyFullDisk(io.BufferedWriter):
    """A file that takes writes of `room` bytes in all; a write past them
    fails as on a full disk."""

    room = 60_000

    def write(self, data):
        if len(data) > self.room:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self.room -= len(data)
        return super().write(data)


def test_simulate_leaves_only_records_and_summary_on_both_routes(tmp_path, monkeypatch):
    manifest = write_manifest(tmp_path / "m.ini", "ramsey_HV", shots=5000, seed=3)
    monkeypatch.setattr(spinherald.cli, "_CHUNK", 1000)  # five chunks
    outputs = {}
    for n in (1, 2):  # in process, then on a pool of two workers
        cpus(monkeypatch, n)
        out = tmp_path / f"cpus{n}"
        cmd_simulate(manifest, out)
        outputs[n] = {p.name: p.read_bytes() for p in out.iterdir()}
        assert sorted(outputs[n]) == ["records.csv", "summary.json"]
        assert_no_child_left()
    assert outputs[1] == outputs[2]


def test_records_write_failures_fail_simulate(tmp_path, monkeypatch):
    manifest = write_manifest(tmp_path / "m.ini", "ramsey_HV", shots=5000, seed=3)
    monkeypatch.setattr(spinherald.cli, "_CHUNK", 1000)  # five chunks
    cpus(monkeypatch, 1)
    records = cmd_simulate(manifest, tmp_path / "whole").records_path
    assert records.stat().st_size > 2 * NearlyFullDisk.room

    path_open = Path.open

    def nearly_full(self, *args, **kwargs):
        if self.name != "records.csv.partial":
            return path_open(self, *args, **kwargs)
        return NearlyFullDisk(path_open(self, "wb", buffering=0))

    # the disk fills up partway through the records
    monkeypatch.setattr(Path, "open", nearly_full)
    for n in (1, 2):
        cpus(monkeypatch, n)
        out = tmp_path / f"full{n}"
        with pytest.raises(OSError, match=os.strerror(errno.ENOSPC)):
            cmd_simulate(manifest, out)
        assert list(out.iterdir()) == []
        assert_no_child_left()


def test_pool_and_in_process_write_the_same_outputs(tmp_path, monkeypatch):
    monkeypatch.setattr(spinherald.cli, "_CHUNK", 700)  # several chunks a setting
    manifest = write_manifest(
        tmp_path / "m.ini", "corrected_HV", shots=2000, seed=46,
        errors=NOMINAL_ERRORS, config={"p_exc": 0.3, "eta": 0.4},
        analysis={"tomography": "true", "filter": "V", "fringe_harmonic": 2, "bins": 9},
    )
    ramsey = write_manifest(tmp_path / "r.ini", "ramsey_45", shots=5000, seed=47)

    def run(out):
        return (
            cmd_simulate(manifest, out / "sim").summary,
            cmd_tomo(manifest_path=manifest, flt="H"),
            cmd_ramsey(ramsey, out / "ramsey"),
            cmd_sweep(manifest, "p_dark", ["0", "0.1"], out / "sweep"),
        )

    files = ("sim/records.csv", "sim/summary.json", "ramsey/fringe.csv",
             "ramsey/ramsey_summary.json", "sweep/sweep.csv",
             "sweep/summary_000.json", "sweep/summary_001.json")
    cpus(monkeypatch, 2)
    pooled = run(tmp_path / "pool")
    assert_no_child_left()
    cpus(monkeypatch, 1)
    assert run(tmp_path / "serial") == pooled
    for name in files:
        assert sha256(tmp_path / "pool" / name) == sha256(tmp_path / "serial" / name), name


def test_worker_error_is_reported_and_cleaned_up(tmp_path, monkeypatch, capsys):
    # p_exc = 1e-30 gives attempt counts beyond int64 in every chunk
    cpus(monkeypatch, 2)
    manifest = write_manifest(
        tmp_path / "m.ini", "corrected_HV", shots=50, seed=1,
        config={"p_exc": 1e-30}, analysis={"tomography": "true"},
    )
    with pytest.raises(ValueError, match="herald probability") as raised:
        cmd_simulate(manifest, tmp_path / "out")
    # raised in a worker: the pool attaches the worker's traceback
    cause = str(raised.value.__cause__)
    assert "Traceback (most recent call last)" in cause and "in _chunk_task" in cause
    assert cause.rstrip().endswith(f"ValueError: {raised.value}")
    assert list((tmp_path / "out").iterdir()) == []
    assert_no_child_left()

    ramsey = write_manifest(
        tmp_path / "r.ini", "ramsey_HV", shots=3000, config={"p_exc": 1e-30}
    )
    monkeypatch.setattr(spinherald.cli, "_CHUNK", 1000)  # three chunks a run
    for command, m, extra in (
        ("simulate", manifest, []),
        ("tomo", manifest, []),
        ("ramsey", ramsey, []),
        ("sweep", manifest, ["--parameter", "seed", "--grid", "1,2"]),
    ):
        argv = [command, "--manifest", str(m), "--out", str(tmp_path / command), *extra]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: herald probability")
        assert_no_child_left()
    assert not (tmp_path / "simulate" / "records.csv").exists()
    assert not (tmp_path / "simulate" / "records.csv.partial").exists()


def count_pool_window(monkeypatch) -> dict:
    """Count the tasks the pool sends and the results it yields, and the
    peak of those sent and not yet yielded, at the pool's own send and
    yield points."""
    tally = {"submitted": 0, "in_flight": 0, "peak": 0}
    submit, result = spinherald.cli._ChunkPool._submit, spinherald.cli._ChunkPool._result

    def counted_submit(self, *args):
        submit(self, *args)
        tally["submitted"] += 1
        tally["in_flight"] += 1
        tally["peak"] = max(tally["peak"], tally["in_flight"])

    def counted_result(self, reply):
        tally["in_flight"] -= 1
        return result(self, reply)

    monkeypatch.setattr(spinherald.cli._ChunkPool, "_submit", counted_submit)
    monkeypatch.setattr(spinherald.cli._ChunkPool, "_result", counted_result)
    return tally


def test_dead_worker_fails_the_run_and_is_reaped(tmp_path, monkeypatch):
    cpus(monkeypatch, 2)
    monkeypatch.setattr(spinherald.cli, "_CHUNK", 1000)  # five chunks
    chunk_task = spinherald.cli._chunk_task

    @functools.wraps(chunk_task)  # pickled by name, as the patched module has it
    def dying(task):
        if task[3] == 2000:  # the third chunk's worker exits without a result
            os._exit(3)
        return chunk_task(task)

    def hung(signum, frame):
        raise TimeoutError("the pool waits for a dead worker")

    monkeypatch.setattr(spinherald.cli, "_chunk_task", dying)  # before the fork
    manifest = write_manifest(tmp_path / "m.ini", "ramsey_HV", shots=5000, seed=3)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        with pytest.raises(RuntimeError, match=r"pool worker \d+ ended \(exit status 3\)"):
            cmd_simulate(manifest, tmp_path / "out")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert list((tmp_path / "out").iterdir()) == []
    assert_no_child_left()


def test_worker_dead_partway_through_its_lines_fails_the_run(tmp_path, monkeypatch):
    cpus(monkeypatch, 2)
    monkeypatch.setattr(spinherald.cli, "_CHUNK", 1000)  # five chunks
    chunk_task = spinherald.cli._chunk_task

    @functools.wraps(chunk_task)  # pickled by name, as the patched module has it
    def dying(task):
        value, lines = chunk_task(task)
        if task[3] == 4000:  # the last chunk, after which no task is sent
            serve = sys._getframe(1)
            assert serve.f_code is spinherald.cli._serve.__code__
            results = serve.f_locals["results"]  # this worker's result pipe
            results.write(pickle.dumps((True, value, len(lines))))
            results.write(lines[: len(lines) // 2])
            results.flush()
            os._exit(4)
        return value, lines

    def hung(signum, frame):
        raise TimeoutError("the pool waits for a dead worker")

    monkeypatch.setattr(spinherald.cli, "_chunk_task", dying)  # before the fork
    manifest = write_manifest(tmp_path / "m.ini", "ramsey_HV", shots=5000, seed=3)
    path_open, sent = Path.open, []

    def counted(self, *args, **kwargs):  # the writes that reach the partial file
        fh = path_open(self, *args, **kwargs)
        if self.name == "records.csv.partial":
            write = fh.write
            fh.write = lambda data: sent.append(len(data)) or write(data)
        return fh

    monkeypatch.setattr(Path, "open", counted)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        with pytest.raises(RuntimeError, match=r"pool worker \d+ ended \(exit status 4\)"):
            cmd_simulate(manifest, tmp_path / "out")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    # the header, the lines of chunks 0 to 3, and half of those of chunk 4
    assert len(sent) == 6 and sent[-1] > 0
    assert list((tmp_path / "out").iterdir()) == []
    assert_no_child_left()


def exit_on_task_2(task):
    if task == 2:
        os._exit(5)
    return task


def test_worker_dead_before_its_next_task_fails_the_map(monkeypatch):
    # worker 0 dies on task 2 while the caller holds result 0, so task 4,
    # which goes to it too, meets a closed pipe, and its buffered bytes are
    # dropped with the pipe
    cpus(monkeypatch, 2)
    with pytest.raises(RuntimeError, match=r"pool worker \d+ ended \(exit status 5\)") as raised:
        with spinherald.cli._ChunkPool() as pool:
            for _ in pool.map(exit_on_task_2, list(range(8))):
                os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOWAIT)  # until worker 0 ends
    assert isinstance(raised.value.__context__, BrokenPipeError)
    assert_no_child_left()


class Unpicklable(Exception):
    def __reduce__(self):
        raise TypeError("this exception cannot be pickled")


def raise_unpicklable(task):
    raise Unpicklable(f"task {task}")


def return_unpicklable(task):
    return threading.Lock()


def test_unpicklable_task_errors_and_values_come_back_as_runtime_errors(monkeypatch):
    cpus(monkeypatch, 2)
    # each error carries the worker's traceback: of the task, or of pickle
    for fn, text, frame in (
        (raise_unpicklable, "Unpicklable: task 0", "in raise_unpicklable"),
        (return_unpicklable, "cannot pickle '_thread.lock' object", "in _serve"),
    ):
        with spinherald.cli._ChunkPool() as pool:
            with pytest.raises(RuntimeError, match=text) as raised:
                list(pool.map(fn, [0, 1]))
        assert str(raised.value).startswith("Traceback") and frame in str(raised.value)
        assert_no_child_left()


@pytest.mark.skipif(sys.platform != "linux", reason="lists /proc/self/fd")
def test_failed_fork_leaks_no_pipe_and_leaves_no_child(tmp_path, monkeypatch):
    fork, forks = os.fork, []

    def fork_once():
        forks.append(None)
        if len(forks) > 1:
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return fork()

    manifest = write_manifest(tmp_path / "r.ini", "ramsey_HV", shots=3000, seed=3)
    monkeypatch.setattr(spinherald.cli, "_CHUNK", 1000)  # three chunks
    cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", fork_once)
    fds = sorted(os.listdir("/proc/self/fd"))
    with pytest.raises(OSError, match=os.strerror(errno.EAGAIN)):
        cmd_ramsey(manifest, tmp_path / "out")
    assert len(forks) == 2
    assert sorted(os.listdir("/proc/self/fd")) == fds
    assert_no_child_left()


def test_pool_window_is_bounded(tmp_path, monkeypatch):
    cpus(monkeypatch, 2)
    monkeypatch.setattr(spinherald.cli, "_CHUNK", 512)
    tally = count_pool_window(monkeypatch)
    manifest = write_manifest(tmp_path / "m.ini", "ramsey_HV", shots=64 * 512, seed=48)
    summary = cmd_ramsey(manifest, tmp_path / "small")
    # 64 chunks, 16 times the window of two tasks for each of two workers
    assert tally["submitted"] == 64 and not tally["in_flight"]
    assert 0 < tally["peak"] <= 4
    monkeypatch.undo()  # default chunks, in process: records of any partition agree
    cpus(monkeypatch, 1)
    assert cmd_ramsey(manifest, tmp_path / "whole") == summary


def worker_pid(task):
    return os.getpid()


def test_pool_sends_task_k_to_worker_k_mod_w(monkeypatch):
    fork, forked = os.fork, []

    def recorded():
        pid = fork()
        forked.append(pid)  # in this process, the workers in fork order
        return pid

    cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", recorded)
    with spinherald.cli._ChunkPool() as pool:
        pids = list(pool.map(worker_pid, list(range(6))))
    assert len(set(forked)) == 2 and pids == forked * 3
    assert_no_child_left()


def test_runs_are_cut_into_chunks_of_equal_size(tmp_path, monkeypatch):
    cpus(monkeypatch, 1)
    monkeypatch.setattr(spinherald.cli, "_CHUNK", 700)
    spans, chunk_task = [], spinherald.cli._chunk_task

    def recorded(task):
        spans.append(task[3:5])
        return chunk_task(task)

    monkeypatch.setattr(spinherald.cli, "_chunk_task", recorded)
    manifest = write_manifest(tmp_path / "m.ini", "ramsey_HV", shots=2000, seed=3)
    cmd_ramsey(manifest, tmp_path / "out")
    # ceil(2000 / 700) = 3 chunks, whose sizes differ by at most one shot
    assert spans == [(0, 666), (666, 1333), (1333, 2000)]


def assert_counts_equal(counts, expected):
    assert list(counts) == list(expected)
    for key, c in counts.items():
        assert np.array_equal(c.n, expected[key].n), key
        assert c.attempts == expected[key].attempts, key


def test_tomo_records_on_the_pool_equals_in_process(tmp_path, monkeypatch, capsys):
    manifest = write_manifest(
        tmp_path / "m.ini", "corrected_HV", shots=40, seed=49,
        errors=NOMINAL_ERRORS, config={"p_exc": 0.075},
        analysis={"tomography": "true", "filter": "V"},
    )
    bundle = cmd_simulate(manifest, tmp_path / "sim")
    header, *lines = bundle.records_path.read_text().splitlines(keepends=True)
    monkeypatch.setattr(spinherald.cli, "_READ_BLOCK", 40)  # one or two lines a range
    path = tmp_path / "r.csv"

    def run(n):
        cpus(monkeypatch, n)
        path.write_text(header + "".join(lines))
        counts = read_counts(path, 7)
        out = tmp_path / f"tomo{n}"
        assert main(["tomo", "--records", str(path), "--filter", "V", "--out", str(out)]) == 0
        capsys.readouterr()
        assert_no_child_left()
        summary = json.loads((out / "tomo_summary.json").read_text())
        errors = []
        for k in (0, len(lines) // 2, len(lines) - 1):  # first, middle, last range
            bad = lines.copy()
            bad[k] = f"{k},0,1,0.5,UP,1\n"
            path.write_text(header + "".join(bad))
            message = rf"r\.csv:{k + 2}: malformed record \['{k}', '0', '1', '0.5', 'UP', '1'\]"
            with pytest.raises(ValueError, match=message) as raised:
                read_counts(path, 7)
            assert main(["tomo", "--records", str(path)]) == 1
            assert capsys.readouterr().err == f"error: {raised.value}\n"
            assert_no_child_left()
            errors.append(str(raised.value))
        return counts, summary, errors

    pooled, serial = run(2), run(1)
    assert_counts_equal(pooled[0], serial[0])
    assert pooled[1:] == serial[1:]
    assert pooled[1]["tomography"] == bundle.summary["tomography"]


def test_records_ranges_on_the_pool(tmp_path, monkeypatch):
    path = tmp_path / "r.csv"
    body = random_rows(50, (0, 1, 2), 3)
    for text in (body, body.rstrip("\n")):  # with and without a final line end
        path.write_text(RECORDS_HEADER + text)
        monkeypatch.undo()
        expected = {k: ShotCounts.of(f, 5) for k, f in read_frames(path).items()}
        cpus(monkeypatch, 2)
        monkeypatch.setattr(spinherald.cli, "_READ_BLOCK", 4)  # every line is longer
        assert_counts_equal(read_counts(path, 5), expected)
        assert_no_child_left()

    # 16-byte lines and 40-byte blocks make ranges of three lines, so the
    # blank line after the third starts the second range
    monkeypatch.setattr(spinherald.cli, "_READ_BLOCK", 40)
    lines = [f"{i},0,1,0.5,up,1\n" for i in range(10, 40)]
    path.write_text(RECORDS_HEADER + "".join(lines[:3]) + "\n" + "".join(lines[3:]))
    for n in (2, 1):
        cpus(monkeypatch, n)
        with pytest.raises(ValueError, match=r"r\.csv:5: malformed record \[''\]"):
            read_counts(path, 5)
        assert_no_child_left()

    path.write_text(RECORDS_HEADER)
    for n in (2, 1):
        cpus(monkeypatch, n)
        assert read_counts(path, 5) == {}
        with pytest.raises(IncompleteDataError, match="settings without records"):
            cmd_tomo(records_path=path)


def test_records_pool_window_is_bounded(tmp_path, monkeypatch):
    path = tmp_path / "r.csv"
    path.write_text(RECORDS_HEADER + random_rows(200, (0, 1), 4))
    expected = read_counts(path, 3)
    monkeypatch.setattr(spinherald.cli, "_READ_BLOCK", 40)
    ranges = count_ranges(path, monkeypatch)
    cpus(monkeypatch, 2)
    tally = count_pool_window(monkeypatch)
    assert_counts_equal(read_counts(path, 3), expected)
    assert ranges > 50 and tally["submitted"] == ranges and not tally["in_flight"]
    assert 0 < tally["peak"] <= 4


def test_console_entry_leaves_no_process_behind(tmp_path):
    argv = ["simulate", "--manifest", str(DEMOS / "corrected_hv.ini"), "--shots", "2000"]
    proc = console(argv, tmp_path)
    assert proc.wait(timeout=120) == 0
    assert sha256(tmp_path / "records.csv") == (
        "d31e3d95af2136a8c710cee973abd0e0d8a8865798166f7c0ab0a17f6f4b88df"
    )
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)  # the session's group is empty: no worker lives on


def test_keep_freed_pages_sets_both_malloc_thresholds():
    calls = []
    spinherald.cli._keep_freed_pages(SimpleNamespace(mallopt=lambda *call: calls.append(call)))
    mmap, trim = spinherald.cli._MMAP_THRESHOLD, spinherald.cli._TRIM_THRESHOLD
    assert calls == [(-3, mmap), (-1, trim)]  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD
    assert _CHUNK * DRAWS_PER_SHOT * 8 < mmap < trim  # the draw buffer stays on the heap
    # so does a chunk's largest array, its records matrix: lines of at most a
    # 19-digit shot_id, ",<19-digit setting_id>,", the branch and ",", the
    # phi_tac columns, ",", 4 outcome columns, ",", a 19-digit n_attempts, "\n"
    widest = 19 + 21 + 2 + spinherald.records._PHI_WIDTH + 1 + 4 + 1 + 19 + 1
    assert widest == spinherald.cli._LINE_MAX == 91 and _CHUNK * widest < mmap
    spinherald.cli._keep_freed_pages(SimpleNamespace())  # a libc without mallopt


WORKER_RUSAGE = """
import os, resource, sys
os.sched_getaffinity = lambda pid: {0, 1}
from spinherald.cli import cmd_ramsey
cmd_ramsey(sys.argv[1], sys.argv[2], shots=int(sys.argv[3]))
usage = resource.getrusage(resource.RUSAGE_CHILDREN)
print(usage.ru_minflt, usage.ru_maxrss)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="tunes glibc's malloc; ru_maxrss in KiB")
def test_worker_page_faults_do_not_grow_with_chunks(tmp_path):
    def worker_usage(shots):
        # a fresh CLI process on a pool of two workers: RUSAGE_CHILDREN sums
        # the faults of the workers it joined and keeps the largest peak RSS
        out = subprocess.run(
            [sys.executable, "-c", WORKER_RUSAGE, str(DEMOS / "ramsey_hv.ini"),
             str(tmp_path / str(shots)), str(shots)],
            env=src_env(), capture_output=True, text=True, check=True, timeout=300,
        ).stdout
        return map(int, out.split())

    faults, peak_kib = worker_usage(1 << 18)  # 4 chunks
    more_faults, more_peak_kib = worker_usage(1 << 21)  # 32 chunks
    # a worker that gives a chunk's pages back faults ~2,900 of them in again
    # for every later chunk: ~80,000 more here
    assert more_faults <= faults + 8000
    assert more_peak_kib <= peak_kib + 1024


def group_states(pgid: int) -> dict[int, str]:
    """State letter of each process in a process group, read from /proc."""
    states = {}
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:  # the process has gone
            continue
        if int(fields[2]) == pgid:
            states[int(stat.parent.name)] = fields[0]
    return states


@pytest.mark.skipif(
    sys.platform != "linux" or len(os.sched_getaffinity(0)) < 2,
    reason="reads /proc; needs two CPUs for a pool",
)
def test_workers_die_with_a_killed_cli(tmp_path):
    argv = ["ramsey", "--manifest", str(DEMOS / "ramsey_hv.ini"), "--shots", "100000000"]
    proc = console(argv, tmp_path)
    try:
        deadline = time.monotonic() + 60
        while len(group_states(proc.pid)) < 3 and time.monotonic() < deadline:
            time.sleep(0.02)  # until the workers run
        workers = set(group_states(proc.pid)) - {proc.pid}
        assert workers
    finally:
        proc.kill()
        proc.wait(timeout=60)
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        live = {p for p, s in group_states(proc.pid).items() if p in workers and s != "Z"}
        if not live:
            break
        time.sleep(0.02)
    assert not live

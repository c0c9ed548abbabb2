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
are ASCII, one line per shot with a fixed column order; summaries are JSON and
round-trip losslessly.  Exit status is nonzero exactly when an error was
reported.

Every command spreads its work over a pool of worker processes sized to the
CPUs this process may use and collects the results in order.  This process
forks the workers itself and talks to each over a task pipe and a result
pipe of its own: no executor, no thread, no multiprocessing.  The commands
that run the engine (simulate, tomo --manifest, ramsey, sweep) hand a worker
a chunk of `_CHUNK` shots, which it reduces to counts.  For simulate it
also formats the chunk's records lines and writes them into its slot of a
spool file, from which the calling process appends them to the records
file in shot order without reading them.  tomo --records hands a worker a
range of whole lines of the records file, which it reads, parses and
counts.  Records and summaries are the same bytes as a run in one process,
and there is no option to set.  On Linux with glibc a worker keeps the
pages a chunk frees for its next chunk instead of faulting them in again;
the calling process's allocator, which also serves a run in process, is
left as it is.  read_counts, the one records reader, uses the same pool;
the other library functions (run_experiment, run_plan, ...) run in the
calling process.
"""

from __future__ import annotations

import argparse
import configparser
import errno
import io
import json
import os
import pickle
import string
import sys
import tempfile
from collections import deque
from dataclasses import asdict, dataclass, field, fields, replace
from functools import reduce
from operator import add
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import __version__
from .engine import (
    ErrorBudget,
    ExperimentConfig,
    PulseSequence,
    ShotFrame,
    get_sequence,
    noisy_joint_state,
    plan_runs,
    run_experiment,
)
from .scattering import PolarizationBasis, entanglement_fidelity
from .spinalg import KET_UP
from .tomography import (
    ShotCounts,
    fit_fringe,
    reconstruct,
    tomography_plan,
)

RECORD_COLUMNS = ("shot_id", "setting_id", "branch", "phi_tac", "outcome", "n_attempts")
_HEADER = ",".join(RECORD_COLUMNS).encode()  # a records file's first line
# recorded branches each filter keeps: V and H condition on their detector
# branch, the others keep every shot
_FILTER_BRANCHES = {
    "all": (0, 1, 2),
    "V": (1,),
    "H": (2,),
    "unconditioned": (0, 1, 2),
    "corrected": (0, 1, 2),
}
FILTERS = tuple(_FILTER_BRANCHES)
# the most phi_tac bins a run may ask for: its counts hold 6 int64 per bin
_MAX_BINS = 4096
_CHUNK = 1 << 16  # shots of a pool task


class ManifestError(ValueError):
    """Malformed manifest, with section/key context in the message."""


@dataclass(frozen=True)
class AnalysisRequest:
    tomography: bool = False
    fringe_harmonic: int | None = None
    bins: int = 20
    filter: str = "all"
    entanglement_fidelity: bool = False

    def __post_init__(self):
        if self.filter not in FILTERS:
            raise ValueError(f"filter must be one of {FILTERS}, got {self.filter!r}")
        if self.fringe_harmonic not in (None, 1, 2):
            raise ValueError(
                f"fringe_harmonic must be 1 or 2, got {self.fringe_harmonic!r}"
            )
        if not 1 <= self.bins <= _MAX_BINS:
            raise ValueError(f"bins must lie in [1, {_MAX_BINS}], got {self.bins!r}")


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


def _boolean(raw: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
    except KeyError:
        raise ValueError(raw) from None


def _harmonic(raw: str) -> int | None:
    return int(raw) if raw.strip() else None  # empty: fit no fringes


# what a raw value is not when its reader raises ValueError
_NOUNS = {
    float: "a number",
    int: "an integer",
    _harmonic: "an integer",
    _boolean: "a boolean",
}

# each manifest section's keys and the reader of each raw value; a key left
# out takes the default of the dataclass field it fills, except the shots and
# seed that ExperimentConfig requires, which load_manifest defaults
_SCHEMA = {
    "run": {"sequence": str, "shots": int, "seed": int, "out_dir": str},
    "config": {"p_exc": float, "eta": float},
    "errors": {f.name: float for f in fields(ErrorBudget)},
    "basis": {f.name: float for f in fields(PolarizationBasis)},
    "analysis": {
        "tomography": _boolean,
        "fringe_harmonic": _harmonic,
        "bins": int,
        "filter": str,
        "entanglement_fidelity": _boolean,
    },
}
_SECTION_OF = {key: section for section, keys in _SCHEMA.items() for key in keys}

SWEEP_PARAMETERS = (
    "shots", "seed", *_SCHEMA["config"], *_SCHEMA["errors"], *_SCHEMA["basis"]
)


def _read(parser, section, key):
    """The value of a key the manifest holds, parsed by its schema reader."""
    raw = parser.get(section, key)
    read = _SCHEMA[section][key]
    try:
        return read(raw)
    except ValueError:
        noun = _NOUNS[read]
        raise ManifestError(f"[{section}] {key} = {raw!r} is not {noun}") from None


def load_manifest(path, overrides=None) -> RunManifest:
    """Parse an INI manifest; unknown keys and bad values raise ManifestError.

    `overrides` maps manifest keys to values that replace the file's own
    (None leaves a key as the file has it); each value is str()-ed into the
    section owning its key, so it is parsed and checked exactly as if the
    file held it.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ManifestError(f"{path}: {exc}") from None
    if not read:
        raise ManifestError(f"manifest not found: {path}")
    if parser.defaults():  # configparser would copy its keys into every section
        raise ManifestError("unknown manifest section [DEFAULT]")

    for key, value in (overrides or {}).items():
        if value is None:
            continue
        section = _SECTION_OF.get(key)
        if section is None:
            raise ManifestError(f"unknown manifest key {key!r}")
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, key, str(value))

    for section in parser.sections():
        if section not in _SCHEMA:
            raise ManifestError(f"unknown manifest section [{section}]")
        for key in parser.options(section):
            if key not in _SCHEMA[section]:
                raise ManifestError(f"unknown key {key!r} in section [{section}]")

    if not parser.has_option("run", "sequence"):
        raise ManifestError("[run] sequence is required")

    run, config, errors, basis, analysis = (
        {key: _read(parser, section, key) for key in parser.options(section)}
        if parser.has_section(section)
        else {}
        for section in _SCHEMA
    )
    config = ExperimentConfig(
        shots=run.pop("shots", 1000),
        seed=run.pop("seed", 0),
        errors=ErrorBudget(**errors),
        **config,
    )
    try:
        analysis = AnalysisRequest(**analysis)
    except ValueError as exc:
        raise ManifestError(f"[analysis] {exc}") from None
    manifest = RunManifest(run.pop("sequence"), config, basis, analysis, **run)
    manifest.sequence()  # fail fast on unknown sequence names
    return manifest


# ---------------------------------------------------------------------------
# records files
# ---------------------------------------------------------------------------


_READ_BLOCK = 1 << 20  # bytes of a records body read, checked and parsed at once
_RECORD_DTYPE = np.dtype(
    [
        ("shot_id", np.int64),
        ("setting_id", np.int64),
        ("branch", np.int64),
        ("phi_tac", np.float64),
        ("outcome", "S5"),  # wide enough that "downx" cannot read as "down"
        ("n_attempts", np.int64),
    ]
)
# every byte a records body may hold: no whitespace, quote or comment mark
_RECORD_BYTES = (string.ascii_letters + string.digits + "+-.,\n").encode()
# 10**k, k = 0 ... 13: exact in int64, and in float64 too
_POW10 = 10 ** np.arange(14, dtype=np.int64)
# an outcome's 4 columns: "down", or "up" and two padding bytes
_OUTCOME_BYTES = np.frombuffer(b"downup\0\0", np.uint8).reshape(2, 4).T
# phi_tac's columns: 9 integer-part digits, the point and 13 fraction digits
_PHI_WIDTH = 23
# bytes of the widest records line: a 19-digit shot_id, ",<19-digit
# setting_id>,", the branch and ",", the phi_tac columns, ",", 4 outcome
# columns, ",", a 19-digit n_attempts and "\n"
_LINE_MAX = 91


def _check_records(setting_id: int, f: ShotFrame) -> None:
    """ValueError, naming the setting and the column, unless every value of
    the frame lies in the grammar of `read_counts`."""
    for column, ok, rule in (
        ("setting_id", 0 <= setting_id < 2**63, "a non-negative int64"),
        ("shot_id", f.shot_id.min(initial=0) >= 0, "non-negative"),
        ("branch", ((f.branch >= 0) & (f.branch <= 2)).all(), "0, 1 or 2"),
        ("phi_tac", np.isfinite(f.phi_tac).all(), "finite"),
        ("n_attempts", f.n_attempts.min(initial=0) >= 0, "non-negative"),
    ):
        if not ok:
            raise ValueError(
                f"records of setting {setting_id}: {column} must be {rule}"
            )


def _digits(rows: np.ndarray, t: np.ndarray) -> None:
    """The decimal digits of non-negative integers t, right-aligned in
    `rows` (one uint8 row per digit, at least as many rows as the widest
    value has digits) as the numbers 0-9."""
    # a copy, which the loop overwrites; int32 arithmetic is ~3x faster and
    # holds any value of at most 9 digits
    t = t.astype(np.int32 if len(rows) <= 9 else np.int64)
    q, ten_q = np.empty_like(t), np.empty_like(t)
    for row in rows[:0:-1]:
        np.floor_divide(t, 10, out=q)
        np.multiply(q, 10, out=ten_q)
        np.subtract(t, ten_q, out=row, casting="unsafe")
        t, q = q, t
    rows[0] = t


def _ascii(rows: np.ndarray) -> np.ndarray:
    """Digits 0-9 in `rows` as ASCII, except that the zeros ahead of the
    first nonzero digit in row order become 0 bytes; True where a digit is
    nonzero."""
    seen = np.zeros(rows.shape[1], bool)
    for row in rows:
        seen |= row != 0
        row += ord("0")
        row *= seen
    return seen


def _integer_column(rows: np.ndarray, t: np.ndarray) -> None:
    """Non-negative int64 values t as decimal text right-aligned in `rows`,
    their leading zeros 0 bytes."""
    _digits(rows, t)
    _ascii(rows[:-1])
    rows[-1] += ord("0")  # the units digit, also of a 0


def _phi_columns(rows: np.ndarray, x: np.ndarray) -> None:
    """Finite x as `format(x, ".9g")` in `rows` (_PHI_WIDTH uint8 rows), with
    0 bytes where the text has no character.

    With e = floor(log10 |x|) clipped to [-4, 8], y = x * 10**(8 - e) takes
    one rounding (error < 6e-8, as y < 1e9 and 10**(8 - e) is exact).  Where
    its rint r lies in [1e8, 1e9) and y is no near-tie, r is the correctly
    rounded 9-digit significand of a fixed-point text, written as the digits
    of r / 10**(8 - e) with the fraction's trailing zeros (and a bare point)
    dropped.  Every other row (zeros, negatives, exponent form, near-ties,
    a log10 one off) is formatted by Python and copied in."""
    with np.errstate(divide="ignore"):
        e = np.floor(np.log10(np.abs(x)))
    k = 8 - np.clip(e, -4, 8).astype(np.intp)
    scale = _POW10[k]
    y = x * scale
    r = np.rint(y)
    fast = (r >= 1e8) & (r < 1e9) & (np.abs(y - np.floor(y) - 0.5) > 1e-6)
    r = np.where(fast, r, 0.0).astype(np.int64)
    whole = r // scale
    _integer_column(rows[:9], whole)
    point, frac = rows[9], rows[10:]
    fraction = (r - whole * scale) * _POW10[13 - k]  # its 13 digits, as an integer
    high = fraction // _POW10[7]  # in two halves of 6 and 7 digits, for int32
    _digits(frac[:6], high)
    _digits(frac[6:], fraction - high * _POW10[7])
    point[:] = _ascii(frac[::-1]) * ord(".")  # trailing zeros dropped
    slow = np.flatnonzero(~fast)
    if len(slow):
        text = [format(v, ".9g").encode() for v in x[slow].tolist()]
        text = np.array(text, f"S{_PHI_WIDTH}").view(np.uint8)
        rows[:, slow] = text.reshape(-1, _PHI_WIDTH).T


def _record_lines(setting_id: int, f: ShotFrame) -> bytes:
    """The records lines of one frame's shots, as ASCII bytes; ValueError if
    a value lies outside the grammar of `read_counts`.

    One uint8 row per output column of a (width, shots) matrix, each written
    whole: shot_id digits (as many as its largest value has), ",setting_id,",
    the branch digit and ",", phi_tac (`_phi_columns`), ",", the outcome in 4
    columns, ",", n_attempts digits and "\n".  Bytes that belong to no text
    (leading and trailing zeros, padding) are 0 and are dropped once the
    matrix is laid out row by row."""
    _check_records(setting_id, f)
    if len(f) == 0:
        return b""
    setting = f",{setting_id},".encode()
    shot_width, attempts_width = (len(str(c.max())) for c in (f.shot_id, f.n_attempts))
    widths = (shot_width, len(setting), 2, _PHI_WIDTH, 1, 4, 1, attempts_width, 1)
    M = np.empty((sum(widths), len(f)), np.uint8)
    shot, sid, branch, phi, comma1, outcome, comma2, attempts, newline = np.split(
        M, np.cumsum(widths)[:-1]
    )
    _integer_column(shot, f.shot_id)
    sid[:] = np.frombuffer(setting, np.uint8)[:, None]
    np.add(f.branch, ord("0"), out=branch[0], casting="unsafe")
    branch[1] = comma1[0] = comma2[0] = ord(",")
    _phi_columns(phi, f.phi_tac)
    np.take(_OUTCOME_BYTES, f.outcome_up.astype(np.intp), axis=1, out=outcome)
    _integer_column(attempts, f.n_attempts)
    newline[0] = ord("\n")
    return M.T.tobytes().translate(None, b"\0")  # tobytes writes line after line


def _parse_block(block: bytes) -> np.ndarray:
    """The lines of a nonempty run of whole lines of a records body as one
    structured row each; ValueError unless every line is a record."""
    blank_line = block.startswith(b"\n") or b"\n\n" in block
    if blank_line or block.translate(None, _RECORD_BYTES):
        raise ValueError("blank line or a byte outside the records grammar")
    rec = np.loadtxt(
        io.BytesIO(block), dtype=_RECORD_DTYPE, delimiter=",", comments=None, ndmin=1
    )
    outcome, branch = rec["outcome"], rec["branch"]
    if not (
        ((outcome == b"up") | (outcome == b"down")).all()
        and ((branch >= 0) & (branch <= 2)).all()
        and np.isfinite(rec["phi_tac"]).all()
        and min(rec[k].min() for k in ("shot_id", "setting_id", "n_attempts")) >= 0
    ):
        raise ValueError("record outside its column's range")
    return rec


def _range_task(task) -> tuple[int, dict | None, tuple | None]:
    """(rows, counts by setting, None) of the whole lines in bytes lo ... hi-1
    of a records file, or (0, None, (index, fields)) of the first line
    `_parse_block` rejects, by bisection."""
    path, lo, hi, n_bins = task
    with open(path, "rb") as fh:
        fh.seek(lo)
        block = fh.read(hi - lo)
    try:
        rec = _parse_block(block)
    except ValueError:
        lines = block.removesuffix(b"\n").split(b"\n")
        lo, hi = 0, len(lines)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            try:
                _parse_block(b"\n".join(lines[lo:mid]) + b"\n")
                lo = mid
            except ValueError:
                hi = mid
        return 0, None, (lo, lines[lo].decode(errors="replace").split(","))
    del block  # the counting below peaks without it
    setting, up, counts = rec["setting_id"], rec["outcome"] == b"up", {}
    for key in set(setting.tolist()):
        mask = setting == key
        shots = SimpleNamespace(  # the columns that ShotCounts.of reads
            branch=rec["branch"][mask],
            phi_tac=rec["phi_tac"][mask],
            outcome_up=up[mask],
            n_attempts=rec["n_attempts"][mask],
        )
        counts[key] = ShotCounts.of(shots, n_bins)
    return len(rec), counts, None


def read_counts(path, n_bins: int) -> dict[int, ShotCounts]:
    """Counts of each setting of a records file, in ascending setting order.

    After the header, every line must be six comma-separated fields in the
    writer's form, without whitespace, quotes or blank lines: a non-negative
    int64 shot_id and setting_id, a branch in {0, 1, 2}, a finite phi_tac,
    an outcome of up or down and a non-negative int64 n_attempts.  The first
    line that is not raises a `path:lineno` error.  The body is counted in
    ranges of whole lines of about `_READ_BLOCK` bytes on a `_ChunkPool`,
    whose workers each read their own range of the file, and the counts are
    added in file order: memory stays bounded."""
    if n_bins < 1:
        raise ValueError(f"n_bins must be >= 1, got {n_bins!r}")
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"records file not found: {path}")
    with path.open("rb") as fh:
        header = fh.readline(len(_HEADER) + 1).removesuffix(b"\n")
        if header != _HEADER:
            header = header.decode(errors="replace")
            raise ValueError(f"{path}: unexpected records header {header!r}")
        lo, size, tasks = fh.tell(), os.fstat(fh.fileno()).st_size, []
        while lo < size:
            fh.seek(lo + _READ_BLOCK)
            fh.readline()  # on to a line end or the end of the file
            hi = min(fh.tell(), size)
            tasks.append((path, lo, hi, n_bins))
            lo = hi
    counts, rows = {}, 0
    with _ChunkPool() as pool:
        for n, part, bad in pool.map(_range_task, tasks):
            if bad is not None:
                lineno = rows + 2 + bad[0]
                raise ValueError(f"{path}:{lineno}: malformed record {bad[1]!r}")
            rows += n
            for key, c in part.items():
                counts[key] = counts[key] + c if key in counts else c
    return dict(sorted(counts.items()))


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------


def _branch_stats(counts_by_setting: dict) -> dict:
    total = reduce(add, counts_by_setting.values())
    n_branch = total.n.sum(axis=(1, 2)).tolist()
    heralded = n_branch[1] + n_branch[2]
    stats = {
        "n_shots": sum(n_branch),
        "n_branch_1": n_branch[1],
        "n_branch_2": n_branch[2],
        "mean_attempts": total.attempts / heralded if heralded else 0.0,
        "branch_1_fraction": n_branch[1] / heralded if heralded else 0.0,
    }
    # phase-resolved branch asymmetry over the populated phi_tac bins: 0 for
    # a linear analysis basis (both branches fire with probability 1/2 at
    # every phase) and maximal in the projective circular limit
    bins = total.branch_fringe()
    frac = bins[bins[:, 2] > 0, 1]
    asymmetry = float(np.mean(np.abs(2.0 * frac - 1.0))) if heralded else 0.0
    stats["phase_resolved_branch_asymmetry"] = asymmetry
    return stats


def _tomography_summary(counts_by_setting: dict, flt: str) -> dict:
    keep = _FILTER_BRANCHES[flt]
    result = reconstruct({k: c.up_counts(keep) for k, c in counts_by_setting.items()})
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


def _fringe_tables(counts_by_setting: dict) -> dict:
    """Binned fringe of each branch of each setting, keyed (setting_id,
    branch) in ascending order; an empty branch has all counts zero."""
    return {
        (setting_id, b): counts_by_setting[setting_id].fringe(b)
        for setting_id in sorted(counts_by_setting)
        for b in (1, 2)
    }


def _fringe_summary(tables: dict, harmonic: int) -> list[dict]:
    """The fit of each populated table, keyed by its setting and branch."""
    return [
        {"setting_id": setting_id, "branch": b, **asdict(fit_fringe(bins, harmonic))}
        for (setting_id, b), bins in tables.items()
        if bins[:, 2].any()
    ]


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


def _write_table(path, header, rows) -> None:
    """A CSV table: the header line, then a line per row with ints as they
    are, other numbers with 9 significant digits and None as an empty field;
    every line ends in \\n."""

    def cell(x) -> str:
        if x is None:
            return ""
        return str(x) if isinstance(x, int) else format(x, ".9g")

    with Path(path).open("w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(cell, row)) + "\n" for row in rows)


# ---------------------------------------------------------------------------
# pipeline pieces shared by the subcommands
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResultBundle:
    records_path: Path
    summary_path: Path
    summary: dict


def _chunk_task(task) -> tuple[int, ShotCounts, bytes | int | None]:
    """(setting index, counts, records) of one chunk task (index, config,
    sequence, lo, hi, n_bins, with_records, slot): shots lo ... hi-1 of one
    setting's run.  Its records lines are formatted only when asked for.
    With a slot (fd, offset, size) of the spool file they are written there
    (`_spool_write`) and records is their byte count; without one, records
    is the lines themselves."""
    index, cfg, seq, lo, hi, n_bins, with_records, slot = task
    frame = run_experiment(cfg, seq, lo, hi)
    records = _record_lines(index, frame) if with_records else None
    if slot is not None:
        records = _spool_write(records, *slot)  # the lines are freed here
    return index, ShotCounts.of(frame, n_bins), records


def _spool_write(lines: bytes, fd: int, offset: int, size: int) -> int:
    """Write records lines with os.pwrite into the slot of `size` bytes at
    `offset` of the file open as `fd`; their byte count.  ValueError if they
    overflow the slot, OSError if the write fails or comes up short."""
    if len(lines) > size:
        raise ValueError(f"{len(lines)} bytes of records overflow a {size}-byte slot")
    written = os.pwrite(fd, lines, offset)
    if written != len(lines):
        raise OSError(f"short write to the records spool: {written} of {len(lines)} bytes")
    return written


# copy_file_range errors that leave a slot to the buffered copy
_COPY_REFUSED = (errno.ENOSYS, errno.EXDEV, errno.EINVAL)
_COPY_BUFFER = 1 << 16  # bytes of that copy's buffer


def _append_slot(spool, offset: int, count: int, records) -> None:
    """Append bytes offset ... offset+count-1 of the unbuffered `spool` file
    to the `records` file at its position, which must have nothing left in
    its buffer: in the kernel with os.copy_file_range, looping on short
    copies, or where that call is missing or refused, through one buffer of
    at most `_COPY_BUFFER` bytes."""
    src, dst = spool.fileno(), records.fileno()
    copy = getattr(os, "copy_file_range", None)
    try:
        while count and copy is not None:
            n = copy(src, dst, count, offset)
            if not n:  # the spool's end: the buffered copy reports it
                break
            offset, count = offset + n, count - n
    except OSError as exc:
        if exc.errno not in _COPY_REFUSED:
            raise
    buffer = memoryview(bytearray(min(count, _COPY_BUFFER)))
    while count:
        spool.seek(offset)
        n = spool.readinto(buffer[:count])
        if not n:
            raise EOFError(f"records spool ends {count} bytes short")
        view = buffer[:n]
        while view:
            view = view[os.write(dst, view):]
        offset, count = offset + n, count - n


# glibc's malloc thresholds for a pool worker: each array of a chunk, the
# largest its records matrix of <= _LINE_MAX bytes a shot, stays below the
# mmap threshold and its working set below the trim one, so freed pages are
# reused
_MMAP_THRESHOLD = 1 << (_CHUNK * _LINE_MAX).bit_length()  # 8 MiB
_TRIM_THRESHOLD = 8 * _MMAP_THRESHOLD


def _keep_freed_pages(libc) -> None:
    """Have `libc`'s malloc keep the memory a chunk frees for the next one
    instead of giving it back to the kernel (heap trimming and munmap),
    which the next chunk would page-fault in again; nothing without
    `mallopt`."""
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is not None:
        mallopt(-3, _MMAP_THRESHOLD)  # M_MMAP_THRESHOLD
        mallopt(-1, _TRIM_THRESHOLD)  # M_TRIM_THRESHOLD


def _init_worker(parent: int) -> None:
    """Leave an interrupt to the parent (pid `parent`), which kills and
    reaps the workers; on Linux, die with the parent
    if it is killed, also if it was killed before this ran, and keep the
    pages a chunk frees for the next chunk (`_keep_freed_pages`).  Only a
    worker's allocator is tuned: the parent, and a run in process, belong to
    the caller."""
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    if sys.platform == "linux":
        import ctypes

        libc = ctypes.CDLL(None)
        libc.prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
        if os.getppid() != parent:  # no parent left to send the signal
            os._exit(1)
        _keep_freed_pages(libc)


def _send(fd: int, data: bytes) -> None:
    """Write a pickle to the pipe `fd` as one message: its byte count (8
    bytes, little-endian), then the pickle."""
    view = memoryview(len(data).to_bytes(8, "little") + data)
    while view:
        view = view[os.write(fd, view):]


def _read_exactly(fd: int, n: int) -> bytearray | None:
    """The next n bytes of the pipe `fd`, None if it ends before them."""
    buffer, got = bytearray(n), 0
    while got < n:
        k = os.readv(fd, [memoryview(buffer)[got:]])
        if not k:
            return None
        got += k
    return buffer


def _receive(fd: int):
    """The next object `_send` wrote to the pipe `fd`, None if it ends first."""
    head = _read_exactly(fd, 8)
    body = None if head is None else _read_exactly(fd, int.from_bytes(head, "little"))
    return None if body is None else pickle.loads(body)


def _serve(tasks: int, results: int) -> None:
    """A pool worker's loop: for each (fn, task) read from the pipe `tasks`
    until it ends, write (True, fn(task)) or (False, (exception, traceback
    text)) to the pipe `results`.  A value or an exception that pickle
    refuses comes back as a RuntimeError that carries the traceback text."""
    while (message := _receive(tasks)) is not None:
        fn, task = message
        try:
            reply = True, fn(task)
        except Exception as exc:
            import traceback

            reply = False, (exc, traceback.format_exc())
        try:
            data = pickle.dumps(reply, pickle.HIGHEST_PROTOCOL)
        except Exception:
            import traceback

            text = traceback.format_exc() if reply[0] else reply[1][1]
            data = pickle.dumps((False, (RuntimeError(text), text)))
        _send(results, data)


class _WorkerTraceback(Exception):
    """The formatted traceback of an exception raised in a pool worker."""

    def __str__(self):
        return "\n" + self.args[0]


class _ChunkPool:
    """`map(fn, tasks)` on worker processes that this process forks itself,
    one per CPU it may use (capped at the task count of the first call that
    starts them), with no executor and no thread.  Results come in
    submission order with at most `window` tasks, two per worker, submitted
    and not yet collected, so memory stays O(task): task k is submitted
    only once the caller has taken the result of task k - window.

    Each worker has a task pipe and a result pipe of its own (`_serve`).  A
    task goes to any worker that holds fewer than two; the results are
    polled, and those that come early wait here for their turn.  A task's
    exception is raised here with the worker's traceback as its cause; a
    worker that dies fails the map with its pid and exit status.

    The first `map` or `window` call with more than one task starts the
    workers, and later calls reuse them.  Leaving the `with` block closes
    every pipe, so an idle worker exits and a busy one fails on its next
    write, and reaps every worker, killing them first on an exception.
    With one worker, or on a platform that cannot report the CPU affinity
    (and may lack fork), tasks run in this process.  Fork, not spawn: a
    spawned worker would import numpy again.
    """

    def __init__(self):
        self._workers = {}  # result pipe -> (pid, task pipe)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *exc_info):
        workers, self._workers = self._workers, {}
        for results, (pid, tasks) in workers.items():
            if exc_type is not None:
                os.kill(pid, 9)  # SIGKILL
            os.close(tasks)
            os.close(results)
        for pid, _ in workers.values():
            os.waitpid(pid, 0)

    def window(self, n_tasks: int) -> int:
        """The most tasks `map` keeps submitted and not yet collected, on
        the pool this starts for `n_tasks` tasks if none runs yet; 0 while
        tasks run in this process."""
        if not self._workers:
            # the affinity call exists only where fork does too
            affinity = getattr(os, "sched_getaffinity", None)
            workers = min(len(affinity(0)) if affinity else 1, n_tasks)
            if workers < 2:
                return 0
            for _ in range(workers):
                self._fork()
        return 2 * len(self._workers)

    def _fork(self) -> None:
        """Start a worker; it closes the pipes of the workers before it."""
        (task_read, tasks), (results, result_write) = os.pipe(), os.pipe()
        parent, pid = os.getpid(), os.fork()
        if pid == 0:  # the worker, which never returns into the caller
            status = 1
            try:
                for fd in (tasks, results, *self._workers):
                    os.close(fd)
                for _, fd in self._workers.values():
                    os.close(fd)
                _init_worker(parent)
                _serve(task_read, result_write)
                status = 0
            finally:
                os._exit(status)
        os.close(task_read)
        os.close(result_write)
        self._workers[results] = pid, tasks

    def map(self, fn, tasks: list):
        if not self.window(len(tasks)):
            return map(fn, tasks)
        return self._ordered(fn, tasks)

    def _ordered(self, fn, tasks):
        import select

        poll, held = select.poll(), {results: deque() for results in self._workers}
        for results in held:
            poll.register(results, select.POLLIN)
        early, sent = {}, 0  # results that came before their turn, by task
        for taken in range(len(tasks)):
            while sent < len(tasks) and sent - taken < 2 * len(held):
                results = min(held, key=lambda r: len(held[r]))
                if len(held[results]) == 2:
                    break
                self._submit(results, fn, tasks[sent])
                held[results].append(sent)
                sent += 1
            while taken not in early:
                for results, _ in poll.poll():
                    reply = _receive(results)
                    if reply is None:
                        self._died(results)
                    early[held[results].popleft()] = reply
            yield self._result(early.pop(taken))

    def _submit(self, results: int, fn, task) -> None:
        """Send (fn, task) to the worker of the result pipe `results`."""
        try:
            data = pickle.dumps((fn, task), pickle.HIGHEST_PROTOCOL)
            _send(self._workers[results][1], data)
        except BrokenPipeError:
            self._died(results)

    def _died(self, results: int):
        """Close the pipes of the worker of the result pipe `results`, which
        has ended, reap it and raise an error naming it."""
        pid, tasks = self._workers.pop(results)
        os.close(tasks)
        os.close(results)
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        how = f"exit status {code}" if code >= 0 else f"signal {-code}"
        raise RuntimeError(f"pool worker {pid} ended ({how}) before its results")

    def _result(self, reply):
        """A task's value from its (ok, value) reply, or its exception,
        raised again with the worker's traceback as the cause."""
        ok, value = reply
        if not ok:
            raise value[0] from _WorkerTraceback(value[1])
        return value


def _run_counts(
    manifest: RunManifest, pool: _ChunkPool, records=None, spool=None
) -> dict[int, ShotCounts]:
    """Counts of each setting of the manifest's run (the tomography plan or
    one run as setting 0), reduced chunk by chunk as the pool returns them in
    shot order.

    With an open records file, each chunk's lines are appended to it.  Where
    os.pwrite exists, task k writes them into slot k mod S of the unbuffered
    `spool` file, open before the pool starts, and this process copies them
    from there (`_append_slot`) without reading them: a slot holds _CHUNK
    lines of at most `_LINE_MAX` bytes, and S is the pool's window (1 in
    process), so a slot is written again only once its lines are copied
    out.  Elsewhere tasks run in process and their lines are written here."""
    seq = manifest.sequence()
    if manifest.analysis.tomography:
        runs = plan_runs(manifest.config, seq, tomography_plan())
    else:
        runs = [(0, manifest.config, seq)]
    n_bins, with_records = manifest.analysis.bins, records is not None
    spans = [
        (index, cfg, seq_s, lo, min(lo + _CHUNK, cfg.shots))
        for index, cfg, seq_s in runs
        for lo in range(0, cfg.shots, _CHUNK)
    ]
    slots, size = max(pool.window(len(spans)), 1), _CHUNK * _LINE_MAX
    spooled = with_records and hasattr(os, "pwrite")
    if spooled:
        records.flush()  # the header goes first
    tasks = [
        (*span, n_bins, with_records,
         (spool.fileno(), k % slots * size, size) if spooled else None)
        for k, span in enumerate(spans)
    ]
    counts = {}
    for k, (index, c, lines) in enumerate(pool.map(_chunk_task, tasks)):
        if spooled:
            _append_slot(spool, k % slots * size, lines, records)
        elif with_records:
            records.write(lines)
        counts[index] = counts[index] + c if index in counts else c
    return counts


def _build_summary(manifest: RunManifest, counts_by_setting: dict) -> dict:
    """Summary of one manifest run: config echo and branch statistics, plus
    the analyses its [analysis] section requests."""
    cfg, analysis = manifest.config, manifest.analysis
    summary = {
        "version": __version__,
        "seed": cfg.seed,
        "config": {
            "sequence": manifest.sequence_name,
            **asdict(cfg),
            "basis_override": dict(manifest.basis_override),
        },
        "branch_stats": _branch_stats(counts_by_setting),
    }
    if analysis.tomography:
        summary["tomography"] = _tomography_summary(counts_by_setting, analysis.filter)
    if analysis.fringe_harmonic is not None:
        summary["fringes"] = _fringe_summary(
            _fringe_tables(counts_by_setting), analysis.fringe_harmonic
        )
    if analysis.entanglement_fidelity:
        summary["entanglement_fidelity"] = _entanglement_summary(manifest)
    return summary


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_simulate(
    manifest_path, out_dir=None, seed=None, shots=None
) -> ResultBundle:
    """Run the manifest, write records.csv and summary.json.

    Records are written chunk by chunk while the run is reduced to counts,
    into a partial file that replaces records.csv only once the summary is
    built; a failed run leaves the output directory as it was.  Where
    os.pwrite exists, the tasks write their lines into an unnamed spool file
    in the output directory, opened before the pool starts so that its
    workers inherit it, and this process only appends them to the partial
    file (`_run_counts`).
    """
    manifest = load_manifest(manifest_path, {"seed": seed, "shots": shots})
    out = Path(out_dir if out_dir is not None else manifest.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    records_path = out / "records.csv"
    summary_path = out / "summary.json"
    partial = out / "records.csv.partial"
    try:
        with (
            _ChunkPool() as pool,
            partial.open("wb") as fh,
            tempfile.TemporaryFile(dir=out, buffering=0) as spool,
        ):
            fh.write(_HEADER + b"\n")
            counts = _run_counts(manifest, pool, fh, spool)
        summary = _build_summary(manifest, counts)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise
    partial.replace(records_path)
    write_summary(summary_path, summary)
    return ResultBundle(records_path, summary_path, summary)


def cmd_tomo(
    records_path=None,
    manifest_path=None,
    flt: str | None = None,
    out_dir=None,
    seed=None,
    shots=None,
) -> dict:
    """Reconstruct the process matrix from records (or simulate first).

    Records must cover all 12 plan settings; the summary carries the
    projected chi, the identity overlap and the Bloch ellipsoid.  A filter
    of None takes the manifest's own, or all shots of a records file.  The
    seed and shot overrides apply to a manifest only.
    """
    if (records_path is None) == (manifest_path is None):
        raise ValueError("tomo needs exactly one of a records file and a manifest")
    if flt is not None:
        AnalysisRequest(filter=flt)  # checks the filter
    if records_path is not None:
        if (seed, shots) != (None, None):
            raise ValueError("seed and shots overrides need a manifest, not records")
        counts = read_counts(records_path, 1)  # the tomography needs no phase bins
        summary = {
            "version": __version__,
            "records": str(records_path),
            "tomography": _tomography_summary(counts, flt or AnalysisRequest.filter),
        }
    else:
        manifest = load_manifest(manifest_path, {"seed": seed, "shots": shots})
        analysis = AnalysisRequest(
            tomography=True,
            bins=manifest.analysis.bins,
            filter=flt or manifest.analysis.filter,
        )
        manifest = replace(manifest, analysis=analysis)
        with _ChunkPool() as pool:
            counts = _run_counts(manifest, pool)
        summary = _build_summary(manifest, counts)

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_summary(out / "tomo_summary.json", summary)
    return summary


def cmd_ramsey(
    manifest_path, out_dir=None, seed=None, shots=None
) -> dict:
    """Run a Ramsey sequence; emit per-branch binned fringes and their fits."""
    manifest = load_manifest(manifest_path, {"seed": seed, "shots": shots})
    seq = manifest.sequence()
    if seq.scatter is None or seq.analysis is None:
        raise ValueError(
            f"sequence {seq.name!r} is not a Ramsey sequence (needs a scatter "
            "block and an analysis pulse)"
        )
    harmonic = manifest.analysis.fringe_harmonic
    if harmonic is None:
        harmonic = 1 if seq.scatter_first else 2
    analysis = AnalysisRequest(fringe_harmonic=harmonic, bins=manifest.analysis.bins)
    manifest = replace(manifest, analysis=analysis)
    with _ChunkPool() as pool:
        counts = _run_counts(manifest, pool)
    summary = _build_summary(manifest, counts)

    out = Path(out_dir if out_dir is not None else manifest.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_table(
        out / "fringe.csv",
        ("branch", "phi_bin_center", "p_up", "count"),
        (
            (b, phi_c, p, int(cnt))
            for (_, b), table in _fringe_tables(counts).items()
            for phi_c, p, cnt in table.tolist()
        ),
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
    read = _SCHEMA[_SECTION_OF[parameter]][parameter]
    out = Path(out_dir if out_dir is not None else base.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    summaries = []
    rows = []
    with _ChunkPool() as pool:  # one pool for every grid point
        for i, raw in enumerate(grid):
            manifest = load_manifest(manifest_path, {parameter: raw})
            value = read(str(raw))  # as load_manifest parsed it
            summary = _build_summary(manifest, _run_counts(manifest, pool))
            summary["sweep"] = {"parameter": parameter, "value": value}
            write_summary(out / f"summary_{i:03d}.json", summary)
            summaries.append(summary)
            stats = summary["branch_stats"]
            rows.append((
                value,
                stats["n_shots"],
                stats["branch_1_fraction"],
                summary.get("tomography", {}).get("identity_overlap"),
            ))

    header = (parameter, "n_shots", "branch_1_fraction", "identity_overlap")
    _write_table(out / "sweep.csv", header, rows)
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
    p_tomo.add_argument(
        "--filter",
        choices=FILTERS,
        help="shots to reconstruct from: V/H keep branch 1/2, while all, "
        "unconditioned and corrected keep every shot (default: the "
        "manifest's [analysis] filter, or all with --records)",
    )
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
            summary = cmd_tomo(
                args.records, args.manifest, args.filter, args.out, args.seed, args.shots
            )
            print(f"identity_overlap: {summary['tomography']['identity_overlap']:.6f}")
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

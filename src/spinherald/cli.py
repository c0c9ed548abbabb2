"""Command-line orchestration: manifest-driven simulation and analysis.

Subcommands
-----------
simulate   run a sequence (or, with tomography = true, each setting of
           `tomography.plan_runs`), write a records file and a JSON summary
tomo       reconstruct the process matrix from a records file, with
           optional branch conditioning
ramsey     run a Ramsey sequence and emit the binned fringe table plus fits
sweep      repeat a manifest over a grid of one parameter and tabulate the
           summaries

Manifests are flat INI files (see docs/manifest-schema.ini).  Records files
are ASCII, one line per shot with a fixed column order, in the format of
`spinherald.records`, which formats the lines and reads them back;
summaries are JSON and round-trip losslessly.  Exit status is nonzero
exactly when an error was reported.

Every command spreads its work over a pool of worker processes sized to the
CPUs this process may use and collects the results in order.  A command
builds its whole task list first and then forks the workers itself, once
(`_pool_map`; sweep runs every grid point in the one map): of W workers,
worker k runs tasks k, k + W, k + 2W, ..., which it inherits through the
fork, and sends each result back as a plain pickle down a result pipe of
its own, from which this process reads the results in task order.  No
executor, no thread, no multiprocessing.  The commands that run the engine
(simulate, ramsey, sweep) cut each run into chunks of equal size, within a
shot, of at most `_CHUNK` shots, and hand a worker a chunk, which it
reduces to counts.  For simulate it also formats the chunk's records lines
and sends them down its result pipe right after the counts, and the
calling process copies them from there to the records file in shot order,
64 KiB at a time.  tomo hands a worker a range of whole lines of the
records file, about `_READ_BLOCK` bytes, which it reads, checks and counts
(`records._range_task`: lines in the writer's form by byte arithmetic, any
other line by np.loadtxt).  Records and summaries are the same bytes as a
run in one process, and there is no option to set.  On Linux with glibc a
worker keeps the pages a chunk frees for its next chunk instead of faulting
them in again; the calling process's allocator, which also serves a run in
process, is left as it is.
read_counts, the one records reader, uses the same pool; the other library
functions (engine.run_experiment, tomography.run_plan, ...) run in the
calling process.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import pickle
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from functools import reduce
from operator import add
from pathlib import Path

import numpy as np

from . import __version__
from .engine import (
    ErrorBudget,
    ExperimentConfig,
    PulseSequence,
    get_sequence,
    noisy_joint_state,
    run_experiment,
)
from .records import _HEADER, _LINE_MAX, _range_task, _record_lines
from .scattering import PolarizationBasis, entanglement_fidelity
from .spinalg import KET_UP
from .tomography import ShotCounts, fit_fringe, plan_runs, reconstruct

# recorded branches each filter keeps: V and H condition on their detector
# branch, the others keep every shot
_FILTER_BRANCHES = {
    "all": (0, 1, 2),
    "V": (1,),
    "H": (2,),
    "corrected": (0, 1, 2),
}
FILTERS = tuple(_FILTER_BRANCHES)
# the most phi_tac bins a run may ask for: its counts hold 6 int64 per bin
_MAX_BINS = 4096
_CHUNK = 1 << 16  # the most shots of a pool task


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
        if self.fringe_harmonic is not None and self.bins < 3:
            raise ValueError(
                f"bins must be >= 3 to fit a fringe's 3 parameters, got {self.bins!r}"
            )


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
    try:
        config = ExperimentConfig(
            shots=run.pop("shots", 1000),
            seed=run.pop("seed", 0),
            errors=ErrorBudget(**errors),
            **config,
        )
        analysis = AnalysisRequest(**analysis)
    except ValueError as exc:  # each message starts with the field at fault
        raise ManifestError(f"[{_SECTION_OF[str(exc).split()[0]]}] {exc}") from None
    manifest = RunManifest(run.pop("sequence"), config, basis, analysis, **run)
    manifest.sequence()  # fail fast on unknown sequence names
    return manifest


# ---------------------------------------------------------------------------
# records files
# ---------------------------------------------------------------------------


_READ_BLOCK = 1 << 18  # bytes of a records body read, checked and parsed at once


def read_counts(path) -> dict[int, ShotCounts]:
    """Counts of each setting of a records file, in ascending setting order,
    in one phase bin: the tomography reads no phi_tac.

    After the header, every line must be six comma-separated fields without
    whitespace, quotes, digit underscores or blank lines: a non-negative
    int64 shot_id and setting_id, a branch in {0, 1, 2}, a finite decimal
    phi_tac, up or down and a non-negative int64 n_attempts, each in any
    form `np.loadtxt` reads (also `+3`, `007` or `5E-1`, which the writer
    never prints).
    The first line that is not raises a `path:lineno` error.  The body is
    counted in ranges of whole lines of about `_READ_BLOCK` bytes on the
    pool (`_pool_map`), whose workers each read their own range of the file
    (`records._range_task`), and the counts are added in file order: memory
    stays bounded."""
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
            tasks.append((path, lo, hi))
            lo = hi
    counts, rows = {}, 0
    for n, part, bad in _pool_map(_range_task, tasks):
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


def _chunk_task(task):
    """(setting index, counts) of one chunk task (index, config, sequence,
    lo, hi, n_bins, lines): shots lo ... hi-1 of one setting's run.  With
    `lines` true, the pair comes with the chunk's records lines, as
    ((index, counts), lines), for a map with a sink (`_pool_map`)."""
    index, cfg, seq, lo, hi, n_bins, lines = task
    frame = run_experiment(cfg, seq, lo, hi)
    value = index, ShotCounts.of(frame, n_bins)
    return (value, _record_lines(index, frame)) if lines else value


_COPY_BUFFER = 1 << 16  # bytes of records lines copied from a result pipe at a time


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


def _serve(fn, tasks, split, results) -> None:
    """A pool worker's loop: for each of its `tasks`, write (True, value, n)
    or (False, (exception, traceback text), 0) as a pickle to the pipe file
    `results`, then n bytes.  The value is fn(task), or with `split` the
    first item of the (value, bytes) pair that fn(task) returns, and the n
    bytes are its second (`_pool_map` with a sink).  A value or an exception
    that pickle refuses comes back as a RuntimeError that carries the
    traceback text."""
    for task in tasks:
        data = b""
        try:
            value = fn(task)
            if split:
                value, data = value
            reply = True, value, len(data)
        except Exception as exc:
            import traceback

            reply = False, (exc, traceback.format_exc()), 0
        try:
            head = pickle.dumps(reply, pickle.HIGHEST_PROTOCOL)
        except Exception:
            import traceback

            text = traceback.format_exc() if reply[0] else reply[1][1]
            head, data = pickle.dumps((False, (RuntimeError(text), text), 0)), b""
        results.write(head)
        results.write(data)
        results.flush()


class _WorkerTraceback(Exception):
    """The formatted traceback of an exception raised in a pool worker."""

    def __str__(self):
        return "\n" + self.args[0]


def _fork(fn, tasks, split):
    """(pid, result pipe file) of a new pool worker that serves `tasks`."""
    read, write = os.pipe()
    try:
        parent, pid = os.getpid(), os.fork()
    except BaseException:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:  # the worker, which never returns into the caller
        status = 1
        try:
            os.close(read)
            _init_worker(parent)
            _serve(fn, tasks, split, os.fdopen(write, "wb"))
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    return pid, os.fdopen(read, "rb")


def _pool_map(fn, tasks: list, sink=None):
    """The value of fn(task) for each task, in order, on worker processes
    that this call forks itself, one per CPU this process may use, capped
    at the task count; no executor, no thread.

    Of W workers, worker k runs tasks[k::W], which it inherits through the
    fork, and writes each result down a result pipe of its own (`_serve`),
    so this process reads result k from worker k mod W.  The pipe's
    capacity blocks a worker that runs ahead: memory stays O(task).  With a
    sink, fn(task) returns a (value, bytes) pair, and the bytes go to sink
    before the value is yielded: whole in process, from the result pipe at
    most `_COPY_BUFFER` at a time on the pool.  A task's exception is raised
    here with the worker's traceback as its cause; a worker that dies fails
    the map with its pid and exit status.  Every worker is reaped when the
    map ends, and killed first if it ends early (an error, an interrupt or
    a map left unfinished).  With one worker, or on a platform that cannot
    report the CPU affinity (and may lack fork), tasks run in this process.
    Fork, not spawn: a spawned worker would import numpy again."""
    # the affinity call exists only where fork does too
    affinity = getattr(os, "sched_getaffinity", None)
    width = min(len(affinity(0)) if affinity else 1, len(tasks))
    if width < 2:
        for task in tasks:
            value = fn(task)
            if sink is not None:  # the pair, and so its bytes, die before the yield
                sink(value[1])
                value = value[0]
            yield value
        return
    workers, finished = [], False
    try:
        for k in range(width):
            workers.append(_fork(fn, tasks[k::width], sink is not None))
        for k in range(len(tasks)):
            pid, results = workers[k % width]
            try:
                ok, value, count = pickle.load(results)
                while count:  # the task's bytes, which follow its reply
                    piece = results.read(min(count, _COPY_BUFFER))
                    if not piece:
                        raise EOFError
                    sink(piece)
                    count -= len(piece)
            except (EOFError, pickle.UnpicklingError):
                end = os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
                how = "exit status" if end.si_code == os.CLD_EXITED else "signal"
                raise RuntimeError(
                    f"pool worker {pid} ended ({how} {end.si_status}) before its results"
                )
            if not ok:
                raise value[0] from _WorkerTraceback(value[1])
            yield value
        finished = True
    finally:
        for pid, results in workers:
            if not finished:
                os.kill(pid, 9)  # SIGKILL
            results.close()
        for pid, _ in workers:
            os.waitpid(pid, 0)


def _run_counts(manifests: list, records=None) -> list[dict[int, ShotCounts]]:
    """Counts of each setting of each manifest's run (the tomography plan or
    one run as setting 0), in manifest order, reduced chunk by chunk as one
    `_pool_map` over the chunks of every run returns them in shot order.

    With an open records file, each chunk's task also formats the chunk's
    records lines, and the map appends them to the file in shot order
    (`records.write` is its sink): on a pool they follow the chunk's counts
    down its worker's result pipe and are copied from there at most
    `_COPY_BUFFER` bytes at a time, so this process never holds a chunk's
    lines; in process they are written whole."""
    counts = [{} for _ in manifests]
    tasks, targets = [], []  # a chunk's task and the counts it adds to
    for manifest, into in zip(manifests, counts):
        seq, bins = manifest.sequence(), manifest.analysis.bins
        if manifest.analysis.tomography:
            runs = plan_runs(manifest.config, seq)
        else:
            runs = [(0, manifest.config, seq)]
        for index, cfg, seq_s in runs:
            parts = -(-cfg.shots // _CHUNK)  # sizes within one shot
            for i in range(parts):
                lo, hi = cfg.shots * i // parts, cfg.shots * (i + 1) // parts
                tasks.append((index, cfg, seq_s, lo, hi, bins, records is not None))
                targets.append(into)
    sink = None if records is None else records.write
    for (index, c), into in zip(_pool_map(_chunk_task, tasks, sink), targets):
        into[index] = into[index] + c if index in into else c
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


def cmd_simulate(path, out_dir=None, seed=None, shots=None) -> ResultBundle:
    """Run the manifest at `path`, write records.csv and summary.json.

    Records are written chunk by chunk while the run is reduced to counts,
    into a partial file, and the summary into one of its own; they replace
    summary.json and then records.csv only once both are written, so a run
    that fails up to the summary's rename leaves the output directory as it
    was.  A failure of the last rename (a records.csv that is a directory,
    say) leaves the new summary.json beside whatever records.csv was there,
    and no partial file.  On a pool, forked for this run alone, each worker
    sends its chunks' lines down its result pipe, and this process copies
    them from there to the partial file (`_run_counts`); in process, each
    chunk's lines are written to it whole.
    """
    manifest = load_manifest(path, {"seed": seed, "shots": shots})
    out = Path(out_dir if out_dir is not None else manifest.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    records_path = out / "records.csv"
    summary_path = out / "summary.json"
    partials = out / "records.csv.partial", out / "summary.json.partial"
    try:
        with partials[0].open("wb") as fh:
            fh.write(_HEADER + b"\n")
            [counts] = _run_counts([manifest], fh)
        summary = _build_summary(manifest, counts)
        write_summary(partials[1], summary)
        partials[1].replace(summary_path)
        partials[0].replace(records_path)  # last: no new records without a summary
    except BaseException:
        for partial in partials:
            partial.unlink(missing_ok=True)
        raise
    return ResultBundle(records_path, summary_path, summary)


def cmd_tomo(records_path, flt: str = "all", out_dir=None) -> dict:
    """Reconstruct the process matrix from a records file.

    Records must cover all 12 plan settings; the summary carries the
    projected chi, the identity overlap and the Bloch ellipsoid of the
    shots that the filter keeps.
    """
    AnalysisRequest(filter=flt)  # checks the filter before the file is read
    summary = {
        "version": __version__,
        "records": str(records_path),
        "tomography": _tomography_summary(read_counts(records_path), flt),
    }
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_summary(out / "tomo_summary.json", summary)
    return summary


def cmd_ramsey(path, out_dir=None, seed=None, shots=None) -> dict:
    """Run the Ramsey sequence of the manifest at `path`; emit per-branch
    binned fringes and their fits."""
    manifest = load_manifest(path, {"seed": seed, "shots": shots})
    seq = manifest.sequence()
    if seq.scatter is None or seq.analysis is None:
        raise ValueError(
            f"sequence {seq.name!r} is not a Ramsey sequence (needs a scatter "
            "block and an analysis pulse)"
        )
    harmonic = manifest.analysis.fringe_harmonic
    if harmonic is None:  # without a prep pulse the kick is the first pulse
        harmonic = 1 if seq.prep is None else 2
    analysis = AnalysisRequest(fringe_harmonic=harmonic, bins=manifest.analysis.bins)
    manifest = replace(manifest, analysis=analysis)
    [counts] = _run_counts([manifest])
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


def cmd_sweep(path, parameter: str, grid, out_dir=None) -> list[dict]:
    """Repeat the manifest at `path` over `grid` values of one parameter.

    Writes sweep.csv keyed by the parameter value plus one summary per grid
    point; returns the summaries in grid order.
    """
    if parameter not in SWEEP_PARAMETERS:
        raise ValueError(
            f"unknown sweep parameter {parameter!r}; valid: {sorted(SWEEP_PARAMETERS)}"
        )
    if len(grid) == 0:
        raise ValueError("sweep grid must be nonempty")
    # every grid value is checked before any runs
    manifests = [load_manifest(path, {parameter: raw}) for raw in grid]
    read = _SCHEMA[_SECTION_OF[parameter]][parameter]
    out = Path(out_dir if out_dir is not None else manifests[0].out_dir)
    out.mkdir(parents=True, exist_ok=True)

    summaries = []
    rows = []
    # one map over the chunks of every grid point
    for i, (raw, manifest, counts) in enumerate(
        zip(grid, manifests, _run_counts(manifests))
    ):
        value = read(str(raw))  # as load_manifest parsed it
        summary = _build_summary(manifest, counts)
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

    p_tomo = sub.add_parser("tomo", help="process tomography from a records file")
    p_tomo.add_argument("--records", required=True, help="records.csv of a tomography run")
    p_tomo.add_argument(
        "--filter",
        choices=FILTERS,
        default="all",
        help="shots to reconstruct from: V/H keep branch 1/2, while all and "
        "corrected keep every shot (default: all)",
    )
    p_tomo.add_argument("--out", help="directory for tomo_summary.json")

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
            summary = cmd_tomo(args.records, args.filter, args.out)
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

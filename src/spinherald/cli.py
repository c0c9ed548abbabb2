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
are ASCII, one line per shot with a fixed column order, in the format of
`spinherald.records`, which formats the lines and reads them back;
summaries are JSON and round-trip losslessly.  Exit status is nonzero
exactly when an error was reported.

Every command spreads its work over a pool of worker processes sized to the
CPUs this process may use and collects the results in order.  This process
forks the workers itself and talks to each over a task pipe and a result
pipe of its own, which carry plain pickles: no executor, no thread, no
multiprocessing.  The schedule is static: of W workers, worker k mod W runs
task k, and this process reads the results back in task order.  The
commands that run the engine (simulate, tomo --manifest, ramsey, sweep) cut
each run into chunks of equal size, within a shot, of at most `_CHUNK`
shots, and hand a worker a chunk, which it reduces to counts.  For simulate it
also formats the chunk's records lines and sends them down its result pipe
right after the counts, and the calling process copies them from there to
the records file in shot order, 64 KiB at a time.  tomo --records hands a
worker a range of whole lines of the records file, about `_READ_BLOCK`
bytes, which it reads, parses and counts (`records._range_task`: lines in
the writer's form by byte arithmetic, any other line by np.loadtxt).
Records and summaries are the same bytes as a run in one process, and there
is no option to set.  On Linux with glibc a worker keeps the pages a chunk
frees for its next chunk instead of faulting them in again; the calling
process's allocator, which also serves a run in process, is left as it is.
read_counts, the one records reader, uses the same pool; the other library
functions (run_experiment, run_plan, ...) run in the calling process.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import pickle
import sys
from contextlib import suppress
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
    plan_runs,
    run_experiment,
)
from .records import _HEADER, _LINE_MAX, _range_task, _record_lines
from .scattering import PolarizationBasis, entanglement_fidelity
from .spinalg import KET_UP
from .tomography import (
    ShotCounts,
    fit_fringe,
    reconstruct,
    tomography_plan,
)

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


def read_counts(path, n_bins: int) -> dict[int, ShotCounts]:
    """Counts of each setting of a records file, in ascending setting order.

    After the header, every line must be six comma-separated fields without
    whitespace, quotes, digit underscores or blank lines: a non-negative
    int64 shot_id and setting_id, a branch in {0, 1, 2}, a finite decimal
    phi_tac, up or down and a non-negative int64 n_attempts, each read as
    its value (also `+3`, `007` or `5E-1`, which the writer never prints).
    The first line that is not raises a `path:lineno` error.  The body is
    counted in ranges of whole lines of about `_READ_BLOCK` bytes on a
    `_ChunkPool`, whose workers each read their own range of the file
    (`records._range_task`), and the counts are added in file order: memory
    stays bounded.  n_bins lies in [1, _MAX_BINS], as a manifest's bins."""
    if n_bins < 1:
        raise ValueError(f"n_bins must be >= 1, got {n_bins!r}")
    if n_bins > _MAX_BINS:
        raise ValueError(f"n_bins must be <= {_MAX_BINS}, got {n_bins!r}")
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


def _chunk_task(task):
    """(setting index, counts) of one chunk task (index, config, sequence,
    lo, hi, n_bins, lines): shots lo ... hi-1 of one setting's run.  With
    `lines` true, the pair comes with the chunk's records lines, as
    ((index, counts), lines), for a map with a sink (`_ChunkPool.map`)."""
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


def _serve(tasks, results) -> None:
    """A pool worker's loop: for each (fn, task, split) pickle read from the
    pipe file `tasks` until it ends, write (True, value, n) or (False,
    (exception, traceback text), 0) as a pickle to the pipe file `results`,
    then n bytes.  The value is fn(task), or with `split` the first item of
    the (value, bytes) pair that fn(task) returns, and the n bytes are its
    second (`_ChunkPool.map` with a sink).  A value or an exception that
    pickle refuses comes back as a RuntimeError that carries the traceback
    text."""
    while True:
        try:
            fn, task, split = pickle.load(tasks)
        except EOFError:
            return
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


def _close(worker) -> None:
    """Close the pipe files of a pool worker (pid, tasks, results); a task
    that it no longer reads is dropped."""
    worker[2].close()
    with suppress(BrokenPipeError):  # flushing a task left for a dead worker
        worker[1].close()


def _pass_on(pair, sink):
    """The value of a (value, bytes) pair, once `sink` has taken the bytes."""
    value, data = pair
    sink(data)
    return value


class _ChunkPool:
    """`map(fn, tasks, sink)` on worker processes that this process forks
    itself, one per CPU it may use (capped at the task count of the first
    call that starts them), with no executor and no thread.

    Each of the W workers has a task pipe and a result pipe of its own
    (`_serve`), each carrying plain pickles.  The schedule is static: task
    k goes to worker k mod W, and its result is read back from that
    worker's pipe in turn, so results come in submission order.  With a
    sink, the bytes a task returns follow its pickle down the result pipe,
    and this process passes them to the sink, at most `_COPY_BUFFER` at a
    time, before it yields the value: it never holds a task's bytes whole.
    At most two tasks per worker are submitted and not yet collected, so
    memory stays O(task): task k + 2W is submitted only once the caller has
    taken the result of task k.  A task's exception is raised here with the
    worker's traceback as its cause; a worker that dies fails the map with
    its pid and exit status.

    The first `map` call with more than one task starts the workers, and
    later calls reuse them.  Leaving the `with` block closes every pipe, so
    an idle worker exits and a busy one fails on its next write, and reaps
    every worker, killing them first on an exception.  With one worker, or
    on a platform that cannot report the CPU affinity (and may lack fork),
    tasks run in this process.  Fork, not spawn: a spawned worker would
    import numpy again.
    """

    def __init__(self):
        self._workers = []  # (pid, task pipe file, result pipe file), in fork order

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *exc_info):
        workers, self._workers = self._workers, []
        for worker in workers:
            if exc_type is not None:
                os.kill(worker[0], 9)  # SIGKILL
            _close(worker)
        for pid, _, _ in workers:
            os.waitpid(pid, 0)

    def _fork(self) -> None:
        """Start a worker; it closes the pipes of the workers before it."""
        (task_read, task_write), (result_read, result_write) = os.pipe(), os.pipe()
        try:
            parent, pid = os.getpid(), os.fork()
        except BaseException:
            for fd in (task_read, task_write, result_read, result_write):
                os.close(fd)
            raise
        if pid == 0:  # the worker, which never returns into the caller
            status = 1
            try:
                os.close(task_write)
                os.close(result_read)
                for worker in self._workers:
                    _close(worker)
                _init_worker(parent)
                _serve(os.fdopen(task_read, "rb"), os.fdopen(result_write, "wb"))
                status = 0
            finally:
                os._exit(status)
        os.close(task_read)
        os.close(result_write)
        tasks, results = os.fdopen(task_write, "wb"), os.fdopen(result_read, "rb")
        self._workers.append((pid, tasks, results))

    def map(self, fn, tasks: list, sink=None):
        """The value of fn(task) for each task, in order.  With a sink,
        fn(task) returns a (value, bytes) pair, and the bytes go to sink
        before the value is yielded: whole in process, from a worker's
        result pipe at most `_COPY_BUFFER` at a time on the pool."""
        if not self._workers:
            # the affinity call exists only where fork does too
            affinity = getattr(os, "sched_getaffinity", None)
            workers = min(len(affinity(0)) if affinity else 1, len(tasks))
            for _ in range(workers if workers > 1 else 0):
                self._fork()
        if self._workers:
            return self._ordered(fn, tasks, sink)
        if sink is None:
            return map(fn, tasks)
        # a call, not a loop variable, so the bytes die before the yield
        return (_pass_on(fn(task), sink) for task in tasks)

    def _ordered(self, fn, tasks, sink):
        workers, split = self._workers, sink is not None
        window = 2 * len(workers)
        for k, task in enumerate(tasks[:window]):
            self._submit(workers[k % len(workers)], fn, task, split)
        for k in range(len(tasks)):
            worker = workers[k % len(workers)]
            try:
                *reply, count = pickle.load(worker[2])
                while count:  # the task's bytes, which follow its reply
                    piece = worker[2].read(min(count, _COPY_BUFFER))
                    if not piece:
                        raise EOFError
                    sink(piece)
                    count -= len(piece)
            except (EOFError, pickle.UnpicklingError):
                self._died(worker)
            yield self._result(reply)
            if k + window < len(tasks):
                self._submit(worker, fn, tasks[k + window], split)

    def _submit(self, worker, fn, task, split) -> None:
        """Send (fn, task, split) to `worker`, one of the pool's (pid,
        tasks, results)."""
        data = pickle.dumps((fn, task, split), pickle.HIGHEST_PROTOCOL)
        try:
            worker[1].write(data)
            worker[1].flush()
        except BrokenPipeError:
            self._died(worker)

    def _died(self, worker):
        """Close the pipes of `worker`, which has ended, reap it and raise an
        error naming it."""
        self._workers.remove(worker)
        _close(worker)
        code = os.waitstatus_to_exitcode(os.waitpid(worker[0], 0)[1])
        how = f"exit status {code}" if code >= 0 else f"signal {-code}"
        raise RuntimeError(f"pool worker {worker[0]} ended ({how}) before its results")

    def _result(self, reply):
        """A task's value from its (ok, value) reply, or its exception,
        raised again with the worker's traceback as the cause."""
        ok, value = reply
        if not ok:
            raise value[0] from _WorkerTraceback(value[1])
        return value


def _run_counts(
    manifest: RunManifest, pool: _ChunkPool, records=None
) -> dict[int, ShotCounts]:
    """Counts of each setting of the manifest's run (the tomography plan or
    one run as setting 0), reduced chunk by chunk as the pool returns them in
    shot order.

    With an open records file, each chunk's task also formats the chunk's
    records lines, and the pool's map appends them to the file in shot
    order (`records.write` is its sink): on a pool they follow the chunk's
    counts down its worker's result pipe and are copied from there at most
    `_COPY_BUFFER` bytes at a time, so this process never holds a chunk's
    lines; in process they are written whole."""
    seq = manifest.sequence()
    if manifest.analysis.tomography:
        runs = plan_runs(manifest.config, seq, tomography_plan())
    else:
        runs = [(0, manifest.config, seq)]
    spans = [  # each run in ceil(shots / _CHUNK) parts, sizes within one shot
        (index, cfg, seq_s, cfg.shots * i // parts, cfg.shots * (i + 1) // parts)
        for index, cfg, seq_s in runs
        for parts in [-(-cfg.shots // _CHUNK)]
        for i in range(parts)
    ]
    tasks = [(*span, manifest.analysis.bins, records is not None) for span in spans]
    sink = None if records is None else records.write
    counts = {}
    for index, c in pool.map(_chunk_task, tasks, sink):
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
    built; a failed run leaves the output directory as it was.  On a pool,
    each worker sends its chunk's lines down its result pipe, and this
    process copies them from there to the partial file (`_run_counts`); in
    process, each chunk's lines are written to it whole.
    """
    manifest = load_manifest(manifest_path, {"seed": seed, "shots": shots})
    out = Path(out_dir if out_dir is not None else manifest.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    records_path = out / "records.csv"
    summary_path = out / "summary.json"
    partial = out / "records.csv.partial"
    try:
        with _ChunkPool() as pool, partial.open("wb") as fh:
            fh.write(_HEADER + b"\n")
            counts = _run_counts(manifest, pool, fh)
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
    if harmonic is None:  # without a prep pulse the kick is the first pulse
        harmonic = 1 if seq.prep is None else 2
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

#!/usr/bin/env python3
"""spinherald benchmark: the CLI workloads run as fresh processes.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from anywhere inside a source checkout; the program under test is the
checkout's src/spinherald.  Each pass runs the workload's CLI invocations one
after another, each in a fresh interpreter, so import is paid as users pay
it.  Passes repeat for --seconds and medians are reported.

--trace 0 reports the end-to-end metrics.  --trace 1 reports the per-layer
metrics: an import breakdown from `python -X importtime`, and self times and
counts from spans that perfbench/launch.py records around each layer's
public functions, alternating traced passes with untraced ones to measure
the tracing overhead.  --smoke runs one pass at tiny shot counts through the
same code and checks.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it print every metric with
its unit and spread, and the run metadata.  The exit status is 0 whenever a
result was printed, 2 when the checkout holds no program to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
LAUNCHER = Path(__file__).resolve().parent / "launch.py"
WORKLOADS = ("tomo_roundtrip", "paper_eta_sweep", "ramsey_bulk")

# The console script's entry point, spelled out so that no install is needed.
CLI_ENTRY = "import sys; from spinherald.cli import main; sys.exit(main(sys.argv[1:]))"
SETUP_ENTRY = "import sys; from spinherald.cli import load_manifest; load_manifest(sys.argv[1])"

SETUP_REPEATS = 5
IMPORT_REPEATS = 5
IMPORT_MODULES = {
    "spinherald": "import.spinherald_s",
    "scipy.stats": "import.scipy_stats_s",
    "scipy.special": "import.scipy_special_s",
    "numpy": "import.numpy_s",
}
# span name -> per-layer metric holding the span's self time per pass
SPAN_METRICS = {
    "import.spinherald_cli": "import.spinherald_cli_s",
    "cli.main": "cli.self_s",
    "cli.load_manifest": "cli.load_manifest_s",
    "cli.write_records": "cli.write_records_s",
    "cli.read_records": "cli.read_records_s",
    "cli.write_summary": "cli.write_summary_s",
    "engine.run_plan": "engine.run_plan_s",
    "engine.run_experiment": "engine.run_experiment_s",
    "engine.noisy_joint_state": "engine.noisy_joint_state_s",
    "scattering.entanglement_fidelity": "scattering.entanglement_fidelity_s",
    "scattering.branch_operators": "scattering.branch_operators_s",
    "tomography.reconstruct": "tomography.reconstruct_s",
    "tomography.estimate_ptm": "tomography.estimate_ptm_s",
    "tomography.project_cptp": "tomography.project_cptp_s",
    "tomography.binned_fringe": "tomography.binned_fringe_s",
    "tomography.fit_fringe": "tomography.fit_fringe_s",
}
# Per traced process: from spawn to the launcher's first statement
# (interpreter start-up), and from writing the trace to being reaped
# (interpreter exit, which frees every array and module).
PROCESS_METRICS = ("process.startup_s", "process.exit_s")
# work counts that must repeat exactly for a seed
REPEATING_COUNTS = (
    "engine.run_experiment_calls",
    "engine.shots",
    "engine.attempts",
    "engine.heralds",
    "engine.draw_bytes_max",
    "cli.read_records_rows",
    "cli.write_records_bytes",
    "tomography.reconstruct_calls",
)

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "fraction"}
PER_LAYER_UNITS = {
    **{name: "s" for name in IMPORT_MODULES.values()},
    **{name: "s" for name in SPAN_METRICS.values()},
    **{name: "s" for name in PROCESS_METRICS},
    "cli.write_records_mb": "MB",
    "cli.read_records_rows": "count",
    "engine.run_experiment_calls": "count",
    "engine.shots": "count",
    "engine.shots_per_s": "1/s",
    "engine.attempts": "count",
    "engine.heralds": "count",
    "engine.herald_yield": "fraction",
    "engine.draw_mb": "MB",
    "tomography.reconstruct_calls": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unaccounted_s": "s",
}


class Problems(list):
    """Problems found in the run; any of them makes the result incorrect."""

    def add(self, message: str) -> None:
        print(f"problem: {message}", file=sys.stderr)
        self.append(message)


def run_process(argv, cwd: Path, log: Path, env: dict) -> tuple[float, float, int, float]:
    """Run argv to completion; return (start clock, end clock, exit status,
    peak RSS MB)."""
    with log.open("ab") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=fh, stderr=fh)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return start, end, proc.returncode, usage.ru_maxrss / 1024.0


def self_times(spans) -> dict[str, float]:
    """Per span name, the summed span durations minus what child spans cover."""
    children: dict[int, list] = {}
    for name, start, end, parent in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    totals: dict[str, float] = {}
    for i, (name, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        totals[name] = totals.get(name, 0.0) + (end - start) - covered
    return totals


class Bench:
    def __init__(self, workload: workloads.Workload, work: Path, problems: Problems):
        self.workload = workload
        self.work = work
        self.log = work / "children.log"
        self.problems = problems
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        self.attempted = 0
        self.failed = 0

    def run(self, argv) -> tuple[float, float, int, float]:
        return run_process(argv, self.work, self.log, self.env)

    def setup_times(self, repeats: int) -> list[float]:
        """Fresh processes that import the CLI and load the manifest."""
        argv = [sys.executable, "-c", SETUP_ENTRY, str(self.workload.manifest)]
        times = []
        for _ in range(repeats):
            start, end, status, _ = self.run(argv)
            if status != 0:
                self.problems.add(f"set-up process exited with {status}")
            else:
                times.append(end - start)
        return times

    def import_breakdown(self, repeats: int) -> dict[str, list[float]]:
        """Cumulative import times from `python -X importtime`, in seconds."""
        samples: dict[str, list[float]] = {m: [] for m in IMPORT_MODULES.values()}
        line = re.compile(r"^import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$")
        for _ in range(repeats):
            err = self.work / "importtime.txt"
            err.unlink(missing_ok=True)
            _, _, status, _ = run_process(
                [sys.executable, "-X", "importtime", "-c", "import spinherald"],
                self.work,
                err,
                self.env,
            )
            if status != 0:
                self.problems.add(f"import process exited with {status}")
                continue
            cumulative = {}
            for text in err.read_text().splitlines():
                match = line.match(text)
                if match:
                    cumulative[match.group(2)] = int(match.group(1)) * 1e-6
            if "spinherald" not in cumulative:
                self.problems.add("-X importtime reported no spinherald")
            for module, metric in IMPORT_MODULES.items():
                # a module the package no longer imports costs nothing
                samples[metric].append(cumulative.get(module, 0.0))
        return samples

    def one_pass(self, traced: bool) -> dict:
        """Run every CLI invocation of one pass, then check the outputs."""
        shutil.rmtree(self.workload.out, ignore_errors=True)
        steps = self.workload.steps()
        statuses, rss, clocks, traces = [], [], [], []
        start = time.perf_counter()
        for i, step in enumerate(steps):
            if traced:
                trace = self.work / f"trace_{i}.json"
                trace.unlink(missing_ok=True)
                traces.append(trace)
                argv = [sys.executable, str(LAUNCHER), str(trace), *step.argv]
            else:
                argv = [sys.executable, "-c", CLI_ENTRY, *step.argv]
            spawned, reaped, status, peak = self.run(argv)
            statuses.append(status)
            rss.append(peak)
            clocks.append((spawned, reaped))
        wall = time.perf_counter() - start

        for step, status in zip(steps, statuses):
            self.attempted += 1
            if status != 0:
                tail = self.log.read_text(errors="replace").splitlines()[-5:]
                found = [f"{step.argv[0]} exited with {status}:", *tail]
            else:
                try:
                    found = step.check()
                except (KeyError, TypeError, ValueError, IndexError) as exc:
                    found = [f"{step.argv[0]}: malformed output ({exc!r})"]
            if found:
                self.failed += 1
                for message in found:
                    self.problems.add(message)

        result = {"wall": wall, "rss": max(rss)}
        if traced:
            result.update(self.read_traces(traces, clocks, wall))
        return result

    def read_traces(self, traces: list[Path], clocks: list, wall: float) -> dict:
        layers = {metric: 0.0 for metric in (*SPAN_METRICS.values(), *PROCESS_METRICS)}
        counts = {name: 0 for name in REPEATING_COUNTS}
        for trace, (spawned, reaped) in zip(traces, clocks):
            try:
                data = json.loads(trace.read_text())
            except (OSError, ValueError) as exc:
                self.problems.add(f"no trace from {trace.name}: {exc}")
                continue
            layers["process.startup_s"] += data["started"] - spawned
            layers["process.exit_s"] += reaped - data["exiting"]
            for name, seconds in self_times(data["spans"]).items():
                layers[SPAN_METRICS[name]] += seconds
            for name, value in data["counts"].items():
                if name == "engine.draw_bytes_max":
                    counts[name] = max(counts[name], value)
                else:
                    counts[name] += value
        return {
            "layers": layers,
            "counts": counts,
            "unaccounted": wall - sum(layers.values()),
        }


def measure(budget: float, one_pass) -> list:
    """Repeat one_pass for about `budget` seconds, at least once: another
    pass starts only if, at the mean pass time so far, it would end within
    the budget."""
    results = []
    start = time.perf_counter()
    while True:
        results.append(one_pass())
        elapsed = time.perf_counter() - start
        if elapsed * (len(results) + 1) / len(results) > budget:
            return results


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.6g} q3={q3:.6g}"


def end_to_end(bench: Bench, args) -> dict[str, list]:
    """Samples of each end-to-end metric."""
    setups = bench.setup_times(1 if args.smoke else SETUP_REPEATS)
    passes = measure(args.seconds, lambda: bench.one_pass(traced=False))
    return {
        "wall_s": [p["wall"] for p in passes],
        "setup_s": setups,
        "peak_rss_mb": [p["rss"] for p in passes],
        "ok_frac": [1.0 - bench.failed / bench.attempted],
    }


def per_layer(bench: Bench, args) -> dict[str, list]:
    """Samples of each per-layer metric."""
    samples = bench.import_breakdown(1 if args.smoke else IMPORT_REPEATS)
    pairs = measure(
        args.seconds,
        lambda: (bench.one_pass(traced=False), bench.one_pass(traced=True)),
    )
    plain = [p[0] for p in pairs]
    traced = [p[1] for p in pairs]
    for name in (*SPAN_METRICS.values(), *PROCESS_METRICS):
        samples[name] = [p["layers"][name] for p in traced]

    counts = traced[0]["counts"]
    for p in traced[1:]:
        if p["counts"] != counts:
            bench.problems.add(f"work counts differ between passes: {counts} vs {p['counts']}")
    shots, attempts = counts["engine.shots"], counts["engine.attempts"]
    samples.update(
        {
            "cli.write_records_mb": [counts["cli.write_records_bytes"] / 1e6],
            "cli.read_records_rows": [counts["cli.read_records_rows"]],
            "engine.run_experiment_calls": [counts["engine.run_experiment_calls"]],
            "engine.shots": [shots],
            "engine.shots_per_s": [
                shots / s if s > 0 else 0.0 for s in samples["engine.run_experiment_s"]
            ],
            "engine.attempts": [attempts],
            "engine.heralds": [counts["engine.heralds"]],
            "engine.herald_yield": [counts["engine.heralds"] / attempts if attempts else 0.0],
            "engine.draw_mb": [counts["engine.draw_bytes_max"] / 1e6],
            "tomography.reconstruct_calls": [counts["tomography.reconstruct_calls"]],
            "trace.wall_s": [p["wall"] for p in traced],
            "trace.overhead_s": [
                statistics.median(p["wall"] for p in traced)
                - statistics.median(p["wall"] for p in plain)
            ],
            "trace.unaccounted_s": [p["unaccounted"] for p in traced],
        }
    )
    return samples


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    # the ceiling keeps git from reporting a repository that encloses the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "unknown"


def run_metadata(workload: workloads.Workload, args) -> dict:
    return {
        **workload.meta(),
        "trace": args.trace,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas_threads": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "git_commit": git_commit(),
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="one pass at tiny shot counts"
    )
    args = parser.parse_args(argv)
    if args.smoke:
        args.seconds = 0.0  # a single pass
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "spinherald" / "cli.py").is_file():
        print(f"error: no spinherald sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        seed = args.seed % 2**63  # the engine takes non-negative seeds
        workload = workloads.make_workload(args.workload, seed, work, args.smoke)
        problems = Problems()
        bench = Bench(workload, work, problems)
        samples = per_layer(bench, args) if args.trace else end_to_end(bench, args)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    metrics = {}
    for name, unit in (PER_LAYER_UNITS if args.trace else END_TO_END_UNITS).items():
        values = samples[name]
        if not values:
            problems.add(f"no sample of {name}")
            values = [0.0]
        metrics[name] = {"value": statistics.median(values), "unit": unit}
        print(f"{name:36s} {metrics[name]['value']:<14.6g} {unit:9s} {spread(values)}")
    print(f"attempted={bench.attempted} failed={bench.failed}")
    print("meta " + json.dumps(run_metadata(workload, args), sort_keys=True))
    result = {
        "correct": not problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one spinherald CLI invocation with spans around its layer calls.

usage: python3 perfbench/launch.py TRACE_JSON CLI_ARG...

Imports spinherald.cli, wraps the public functions each layer exposes where
their callers look them up, calls spinherald.cli.main(CLI_ARG...) and writes
the spans and counts to TRACE_JSON when the call returns.  A span is
[name, start, end, parent index]; counts come from the wrapped functions'
return values.  The exit status is main's.

TRACE_JSON also holds the clock reading when this file began to run and
when it began to write the trace.  The clock is CLOCK_MONOTONIC, shared by
all processes, so the parent can time interpreter start-up and exit.
"""

import time

clock = time.perf_counter
started = clock()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

spans = []
counts = {
    "engine.run_experiment_calls": 0,
    "engine.shots": 0,
    "engine.attempts": 0,
    "engine.heralds": 0,
    "engine.draw_bytes_max": 0,
    "cli.read_records_rows": 0,
    "cli.write_records_bytes": 0,
    "tomography.reconstruct_calls": 0,
}
_open = []  # indices of the spans currently open, innermost last

DRAWS_PER_SHOT = 12  # uniforms per shot, 8 bytes each


def traced(name, fn, count=None):
    """Wrap fn so each call records a span; count(result, args) runs after
    the span has closed."""

    def wrapper(*args, **kwargs):
        index = len(spans)
        spans.append([name, clock(), None, _open[-1] if _open else None])
        _open.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            _open.pop()
            spans[index][2] = clock()
        if count is not None:
            count(result, args)
        return result

    return wrapper


def _count_frame(frame, args):
    counts["engine.run_experiment_calls"] += 1
    counts["engine.shots"] += len(frame)
    counts["engine.attempts"] += int(frame.n_attempts.sum())
    counts["engine.heralds"] += int((frame.branch > 0).sum())
    counts["engine.draw_bytes_max"] = max(
        counts["engine.draw_bytes_max"], len(frame) * DRAWS_PER_SHOT * 8
    )


def _count_read(tables, args):
    counts["cli.read_records_rows"] += sum(len(t.shot_id) for t in tables.values())


def _count_write(result, args):
    counts["cli.write_records_bytes"] += os.path.getsize(args[0])


def _count_reconstruct(result, args):
    counts["tomography.reconstruct_calls"] += 1


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    start = clock()
    import spinherald.cli as cli
    import spinherald.engine as engine
    import spinherald.tomography as tomography

    spans.append(["import.spinherald_cli", start, clock(), None])

    # span name, the places callers look the function up, count
    patches = [
        ("engine.run_experiment", [(cli, "run_experiment"), (engine, "run_experiment")], _count_frame),
        ("engine.run_plan", [(cli, "run_plan")], None),
        ("scattering.branch_operators", [(engine, "branch_operators_from_vectors")], None),
        ("engine.noisy_joint_state", [(cli, "noisy_joint_state")], None),
        ("scattering.entanglement_fidelity", [(cli, "entanglement_fidelity")], None),
        ("cli.load_manifest", [(cli, "load_manifest")], None),
        ("cli.read_records", [(cli, "read_records")], _count_read),
        ("cli.write_records", [(cli, "write_records")], _count_write),
        ("cli.write_summary", [(cli, "write_summary")], None),
        ("tomography.reconstruct", [(cli, "reconstruct")], _count_reconstruct),
        ("tomography.estimate_ptm", [(tomography, "estimate_ptm")], None),
        ("tomography.project_cptp", [(tomography, "project_cptp")], None),
        ("tomography.binned_fringe", [(cli, "binned_fringe")], None),
        ("tomography.fit_fringe", [(cli, "fit_fringe")], None),
    ]
    for name, sites, count in patches:
        # a call the program no longer makes is skipped and its metric reads 0
        sites = [(module, attr) for module, attr in sites if hasattr(module, attr)]
        if sites:
            wrapper = traced(name, getattr(*sites[0]), count)
            for module, attr in sites:
                setattr(module, attr, wrapper)

    try:
        return traced("cli.main", cli.main)(argv)
    finally:
        trace = {"started": started, "exiting": clock(), "spans": spans, "counts": counts}
        with open(trace_path, "w") as fh:
            json.dump(trace, fh)


if __name__ == "__main__":
    sys.exit(main())

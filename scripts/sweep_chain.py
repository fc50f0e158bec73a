#!/usr/bin/env python3
"""Sweep the synthetic chain workload over its size and print one table row per N.

    python3 scripts/sweep_chain.py --seed 1 --sizes 50 100 200 400 800 1600
    python3 scripts/sweep_chain.py --seed 1 --json BENCH_scaling.json

Each size runs ``perfbench.workloads.chain_large(seed, n)`` once in this
process and reports the run's CPU time (every thread), the prompt tokens of
all its dispatches, its largest prompt, and the largest prompt of each role
(planner, reviewer, worker or critic), as a markdown table; the role whose
prompt grows with N is the next wall of a default context limit. The exit code
is non-zero when any run fails its oracle check (every task VERIFIED, the
workspace equal to the generator's), and the failures go to standard error.

With ``--json PATH`` the sweep also counts, for each N up to
``LINE_EVENTS_MAX``, the ``sys.settrace`` "line" events during the first run
of ``chain_large(seed, n)`` in a fresh process: in frames of ``src/charter``
files (``line_events``, the total earlier rows compare with), and in every
Python frame, the standard library's ``ast``, ``difflib``, ``dataclasses``
and ``re`` included, split by phase (``phase_line_events``). An event is
charged to the innermost phase function on the stack (``PHASES``), or to
``other`` outside them all, so work moved into or out of the standard library
still counts where it is done. The counts are the engine's work: unlike CPU
time they repeat exactly from run to run (for one Python version), however
busy the host. It then writes every row and the slope of each column fitted
on a log-log scale (1.0 is linear in N, 2.0 quadratic) to PATH.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import subprocess
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402

# The roles behind each largest-prompt column, as ``CompletionRequest.role``
# names them.
ROLE_COLUMNS = (
    ("planner", ("project_manager",)),
    ("reviewer", ("discriminator",)),
    ("worker/critic", ("worker", "critic")),
)
# The largest N whose line events are counted: tracing costs ~1 s CPU per
# 100 files.
LINE_EVENTS_MAX = 400
CHARTER_SOURCES = str(ROOT / "src" / "charter") + os.sep


# Phase -> the functions whose calls it holds. Each line event is charged to
# the innermost of these on the stack, so ``extract_symbols`` under the audit,
# or a projection under the merge, is charged to its own phase.
PHASES = {
    "synthesis": ("agents.synthesize_contract",),
    "plan": ("scheduler.plan_layer",),
    "prompt_build": ("agents.build_prompt",),
    "parse": ("agents.parse_response",),
    "audit": ("auditor.audit_layer",),
    "extract_symbols": ("workspace.extract_symbols",),
    "projection": ("kernel.project",),
    "merge_commit": ("patches.commit_actions",),
}
OTHER = "other"


def count_line_events(seed: int, n: int) -> dict:
    """The line events of one ``chain_large(seed, n)`` run in this process:
    ``charter``, those in frames of ``src/charter`` files, and ``phases``,
    those in every Python frame by phase; ValueError if the run fails its
    oracle check."""
    phase_of_code = {
        getattr(importlib.import_module(f"charter.{module}"), name).__code__: phase
        for phase, functions in PHASES.items()
        for module, name in (function.split(".") for function in functions)
    }
    counts = dict.fromkeys([*PHASES, OTHER, "charter"], 0)
    phase_of_tracer = {}

    def local_tracer(phase: str, charter: bool):
        def local(frame, event, arg):
            if event == "line":
                counts[phase] += 1
                if charter:
                    counts["charter"] += 1
            return local

        phase_of_tracer[local] = phase
        return local

    tracers = {(phase, charter): local_tracer(phase, charter) for phase in [*PHASES, OTHER] for charter in (False, True)}

    def tracer(frame, event, arg):
        code = frame.f_code
        phase = phase_of_code.get(code)
        if phase is None:  # the caller's phase, read off the tracer it runs under
            caller = frame.f_back
            phase = phase_of_tracer.get(caller.f_trace, OTHER) if caller is not None else OTHER
        return tracers[phase, code.co_filename.startswith(CHARTER_SOURCES)]

    (case,) = workloads.chain_large(seed, n)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        record = workloads.run_case(case)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if record.problems:
        raise ValueError(f"chain_large(seed={seed}, n={n}): {'; '.join(record.problems)}")
    return {"charter": counts.pop("charter"), "phases": counts}


def line_events(seed: int, n: int) -> dict:
    """``count_line_events`` of the first run in a fresh process, so no cache
    of an earlier run in this one is warm."""
    proc = subprocess.run(
        [sys.executable, __file__, "--seed", str(seed), "--count-line-events", str(n)],
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"line-event count for n={n} failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def fitted_slope(points: list[tuple[int, float]]) -> float | None:
    """Least-squares slope of log(value) over log(N); None under two points."""
    if len(points) < 2:
        return None
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(value) for _, value in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def _rounded(value):
    if isinstance(value, dict):
        return {key: _rounded(item) for key, item in value.items()}
    return None if value is None else round(value, 3)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--sizes", type=int, nargs="+", default=[50, 100, 200, 400, 800, 1600])
    parser.add_argument("--json", type=Path, help="write the rows, line events and fitted slopes here")
    parser.add_argument("--count-line-events", type=int, metavar="N", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.count_line_events is not None:
        print(json.dumps(count_line_events(args.seed, args.count_line_events)))
        return 0

    print("| N files | CPU s | prompt tokens | largest prompt | planner | reviewer | worker/critic | line events |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- |")
    failed = 0
    rows = []
    for n in args.sizes:
        (case,) = workloads.chain_large(args.seed, n)
        record = workloads.run_case(case)
        tokens = [call.tokens for call in record.calls]
        largest = {
            column: max((call.tokens for call in record.calls if call.role in roles), default=0)
            for column, roles in ROLE_COLUMNS
        }
        row = {
            "n": n,
            "cpu_s": round(record.cpu_s, 3),
            "prompt_tokens": sum(tokens),
            "largest_prompt": max(tokens, default=0),
            "largest_prompt_by_role": largest,
        }
        if args.json is not None and n <= LINE_EVENTS_MAX:
            counted = line_events(args.seed, n)
            row["line_events"] = counted["charter"]
            row["phase_line_events"] = counted["phases"]
        cells = [f"{n}", f"{record.cpu_s:.2f}", f"{row['prompt_tokens']:,}", f"{row['largest_prompt']:,}"]
        cells += [f"{size:,}" for size in largest.values()]
        cells.append(f"{row['line_events']:,}" if "line_events" in row else "")
        print("| " + " | ".join(cells) + " |", flush=True)
        for problem in record.problems:
            print(f"chain_large(seed={args.seed}, n={n}): {problem}", file=sys.stderr)
        failed += bool(record.problems)
        rows.append(row)

    if args.json is not None:
        slopes = {
            key: fitted_slope([(row["n"], row[key]) for row in rows if row.get(key)])
            for key in ("cpu_s", "prompt_tokens", "largest_prompt", "line_events")
        }
        slopes["phase_line_events"] = {
            phase: fitted_slope([(row["n"], row["phase_line_events"][phase]) for row in rows if "phase_line_events" in row])
            for phase in [*PHASES, OTHER]
        }
        record = {
            "workload": "perfbench.workloads.chain_large",
            "seed": args.seed,
            "python": platform.python_version(),
            "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
            "cpu_s": "process CPU time of one run in this process, every thread; not gated",
            "line_events": (
                f"sys.settrace line events in src/charter frames, first run in a fresh process, N <= {LINE_EVENTS_MAX}"
            ),
            "phase_line_events": (
                "the same run's line events in every Python frame, each charged to the innermost phase function on "
                "the stack: " + "; ".join(f"{phase} = {', '.join(functions)}" for phase, functions in PHASES.items())
                + f"; {OTHER} = outside them all"
            ),
            "rows": rows,
            "slopes": {key: _rounded(value) for key, value in slopes.items()},
        }
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

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
``LINE_EVENTS_MAX``, the ``sys.settrace`` "line" events in frames of
``src/charter`` files during the first run of ``chain_large(seed, n)`` in a
fresh process. That count is the engine's work: unlike CPU time it repeats
exactly from run to run (for one Python version), however busy the host. It
then writes every row and the slope of each column fitted on a log-log scale
(1.0 is linear in N, 2.0 quadratic) to PATH.
"""

from __future__ import annotations

import argparse
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


def count_line_events(seed: int, n: int) -> int:
    """The line events of one ``chain_large(seed, n)`` run in this process,
    counted in frames of ``src/charter`` files; ValueError if the run fails
    its oracle check."""
    (case,) = workloads.chain_large(seed, n)
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(CHARTER_SOURCES) else None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        record = workloads.run_case(case)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if record.problems:
        raise ValueError(f"chain_large(seed={seed}, n={n}): {'; '.join(record.problems)}")
    return count


def line_events(seed: int, n: int) -> int:
    """``count_line_events`` of the first run in a fresh process, so no cache
    of an earlier run in this one is warm."""
    proc = subprocess.run(
        [sys.executable, __file__, "--seed", str(seed), "--count-line-events", str(n)],
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"line-event count for n={n} failed: {proc.stderr.strip()[-500:]}")
    return int(proc.stdout.split()[-1])


def fitted_slope(points: list[tuple[int, float]]) -> float | None:
    """Least-squares slope of log(value) over log(N); None under two points."""
    if len(points) < 2:
        return None
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(value) for _, value in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--sizes", type=int, nargs="+", default=[50, 100, 200, 400, 800, 1600])
    parser.add_argument("--json", type=Path, help="write the rows, line events and fitted slopes here")
    parser.add_argument("--count-line-events", type=int, metavar="N", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.count_line_events is not None:
        print(count_line_events(args.seed, args.count_line_events))
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
            row["line_events"] = line_events(args.seed, n)
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
        record = {
            "workload": "perfbench.workloads.chain_large",
            "seed": args.seed,
            "python": platform.python_version(),
            "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
            "cpu_s": "process CPU time of one run in this process, every thread; not gated",
            "line_events": (
                f"sys.settrace line events in src/charter frames, first run in a fresh process, N <= {LINE_EVENTS_MAX}"
            ),
            "rows": rows,
            "slopes": {key: None if value is None else round(value, 3) for key, value in slopes.items()},
        }
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Sweep the synthetic chain workload over its size and print one table row per N.

    python3 scripts/sweep_chain.py --seed 1 --sizes 50 100 200 400 800

Each size runs ``perfbench.workloads.chain_large(seed, n)`` once in this
process and reports the run's CPU time (every thread), the prompt tokens of
all its dispatches, its largest prompt, and the largest prompt of each role
(planner, reviewer, worker or critic), as a markdown table; the role whose
prompt grows with N is the next wall of a default context limit. The exit code
is non-zero when any run fails its oracle check (every task VERIFIED, the
workspace equal to the generator's), and the failures go to standard error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402

# The roles behind each largest-prompt column, as ``CompletionRequest.role``
# names them.
ROLE_COLUMNS = (("project_manager",), ("discriminator",), ("worker", "critic"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--sizes", type=int, nargs="+", default=[50, 100, 200, 400, 800])
    args = parser.parse_args(argv)

    print("| N files | CPU s | prompt tokens | largest prompt | planner | reviewer | worker/critic |")
    print("| --- | --- | --- | --- | --- | --- | --- |")
    failed = 0
    for n in args.sizes:
        (case,) = workloads.chain_large(args.seed, n)
        record = workloads.run_case(case)
        tokens = [call.tokens for call in record.calls]
        largest = [
            max((call.tokens for call in record.calls if call.role in roles), default=0)
            for roles in ROLE_COLUMNS
        ]
        row = [f"{n}", f"{record.cpu_s:.2f}", f"{sum(tokens):,}", f"{max(tokens, default=0):,}"]
        print("| " + " | ".join(row + [f"{size:,}" for size in largest]) + " |", flush=True)
        for problem in record.problems:
            print(f"chain_large(seed={args.seed}, n={n}): {problem}", file=sys.stderr)
        failed += bool(record.problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

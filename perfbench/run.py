#!/usr/bin/env python3
"""Offline benchmark of the charter engine.

    python3 perfbench/run.py --workload chain-large --seed 1 --seconds 30 --trace 0

Drives ``charter.run`` in this process from a single-threaded closed loop: one
client, runs back to back, each run's output checked. Workloads are defined
in ``workloads.py``; ``BENCHMARK.json`` at the repository root lists them with
the metrics and their bounds.

``--trace 0`` prints the end-to-end metrics: set-up time (median of this
process and two fresh ones), run time percentiles, the engine's own time
(run time minus the model wait on the critical path), prompt tokens,
dispatches, layers and peak memory. Every time is the process's CPU time,
all threads, plus the simulated model wait on the critical path: wall time
without the stretches in which a shared host runs something else, which
can lengthen a CPU-bound run by three quarters from one minute to the next.
``--trace 1`` alternates untraced and traced samples and prints the
per-layer metrics of ``tracing.py`` plus the tracing overhead; the spans go
to ``.perfbench/`` under the repository root.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is
non-zero when any run fails its output check.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench"
WORKLOADS = ("fixtures-replay", "chain-large", "heal-wide")
FRESH_SETUPS = 2  # set-ups in fresh processes, besides this process's own
SETUP_TIMEOUT_S = 150
BLOCKS = 4


def setup(workload: str, seed: int):
    """Import charter, build the workload's inputs and do one warm-up run.
    Timed like a sample: CPU time plus the warm-up's simulated model wait."""
    start = time.process_time()
    import workloads

    cases = workloads.WORKLOADS[workload](seed)
    warm = workloads.run_sample(cases)
    return time.process_time() - start + warm.stats().wait_s, cases, warm


def fresh_setup_seconds(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed), "--setup-only"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=SETUP_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed ({proc.returncode}): {proc.stderr.strip()[-500:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def _percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def percentile(values: list[float], pct: int) -> float:
    """Percentile of per-sample values in run order: the median, over BLOCKS
    consecutive blocks of samples, of each block's percentile. The host's CPU
    speed comes and goes in bursts; a burst within one block does not move it."""
    n = len(values)
    if n < 2 * BLOCKS:
        return _percentile(values, pct)
    blocks = [values[i * n // BLOCKS : (i + 1) * n // BLOCKS] for i in range(BLOCKS)]
    return statistics.median(_percentile(block, pct) for block in blocks)


def unit_of(name: str) -> str:
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if "tokens" in name:
        return "tokens"
    if name.endswith(".lines"):
        return "lines"
    if name.endswith(".bytes"):
        return "bytes"
    if "ratio" in name or "_per_" in name or name.endswith("_frac"):
        return "ratio"
    return "count"


def measure(workloads, cases, seconds: float, tracer=None):
    """Samples until ``seconds`` have passed (at least one). With a tracer,
    untraced and traced samples alternate. Returns the untraced and traced
    samples' ``Stats`` and the per-layer metrics of each traced sample."""
    import tracing

    untraced, traced, per_sample = [], [], []
    deadline = time.perf_counter() + seconds
    while not untraced or time.perf_counter() < deadline:
        gc.collect()
        untraced.append(workloads.run_sample(cases).stats())
        if tracer is None:
            continue
        gc.collect()
        tracer.run_id += 1
        first = len(tracer.spans)
        tracer.install()
        try:
            sample = workloads.run_sample(cases, on_backend=tracer.trace_backend)
        finally:
            tracer.restore()
        traced.append(sample.stats())
        per_sample.append(tracing.sample_metrics(tracer.spans[first:], sample))
    return untraced, traced, per_sample


def end_to_end(samples, setups: list[float]) -> dict[str, tuple[float, str]]:
    run_s = [s.run_s for s in samples]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "run_s.p50": (percentile(run_s, 50), "s"),
        "run_s.p90": (percentile(run_s, 90), "s"),
        "engine_s.p50": (percentile([s.run_s - s.wait_s for s in samples], 50), "s"),
        "prompt_tokens": (statistics.median(s.prompt_tokens for s in samples), "tokens"),
        "prompt_tokens.max": (max(s.prompt_tokens_max for s in samples), "tokens"),
        "dispatches": (statistics.median(s.dispatches for s in samples), "count"),
        "layers": (statistics.median(s.layers for s in samples), "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="time one set-up and exit")
    args = parser.parse_args(argv)

    if not (SRC / "charter" / "__init__.py").is_file():
        print(f"error: {SRC / 'charter'} not found; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    setup_s, cases, warm = setup(args.workload, args.seed)
    import charter
    import workloads

    if Path(charter.__file__).resolve().parent != (SRC / "charter").resolve():
        print(f"error: imported charter from {charter.__file__}, not {SRC}", file=sys.stderr)
        return 2
    warm = warm.stats()
    if not warm.ok:
        print(f"warm-up run failed: {list(warm.problems)}", file=sys.stderr)
    if args.setup_only:
        # The measuring process checks its own samples and reports failures.
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        untraced, traced, per_sample = measure(workloads, cases, args.seconds, tracer)
        TRACE_DIR.mkdir(exist_ok=True)
        tracer.write(TRACE_DIR / f"trace-{args.workload}.jsonl")
        base = statistics.median(s.run_s for s in untraced)
        with_trace = statistics.median(s.run_s for s in traced)
        values = tracing.median_metrics(per_sample)
        values["trace.overhead_s"] = with_trace - base
        values["trace.overhead_frac"] = with_trace / base - 1.0
        metrics = {name: (value, unit_of(name)) for name, value in values.items()}
        samples = untraced + traced
    else:
        setups = [setup_s] + [fresh_setup_seconds(args.workload, args.seed) for _ in range(FRESH_SETUPS)]
        samples, _, _ = measure(workloads, cases, args.seconds)
        metrics = end_to_end(samples, setups)

    failed = sum(1 for s in samples if not s.ok)
    for sample in samples:
        for problem in sample.problems:
            print(f"check failed: {problem}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {len(samples)} samples")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.6g} {unit}")
    print(f"  {'failed_frac':36s} {failed / len(samples):14.6g} ratio")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(samples),
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

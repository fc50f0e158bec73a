"""The benchmark's workloads: inputs, one timed sample, and the output check.

A workload is a list of cases; one sample runs every case once through
``charter.run`` in this process, back to back, and checks each result.

* ``fixtures-replay``: the bundled gomoku and plane_battle transcripts through
  the real ``ScriptedBackend`` with the default ``RunConfig``. Fixed per-run
  costs dominate, so it catches a large-N optimisation that slows small runs.
* ``chain-large``: a 100-file chain contract, SEQUENTIAL, zero model latency,
  two layers. It measures the barrier's CPU work on the quadratic paths.
* ``heal-wide``: a 48-file self-healing contract, PARALLEL, seeded model
  latency. It loads the contract's write path, dispatch width and the wait
  for the slowest dispatch of each layer.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from charter.agents import IntentSpec
from charter.backends import ScriptedBackend
from charter import scheduler
from charter.scheduler import RunConfig, RunMode, RunResult
from charter.tasks import TaskStatus

import synth

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "src" / "charter" / "fixtures"
GOLDEN = ROOT / "tests" / "golden"

# About 190 prompt tokens per contracted file: 100 files give prompts the size
# of a 150-file contract with terser entries, past the default 16,384-token
# limit, and runs short enough to take a median over ~20 samples.
CHAIN_FILES = 100
HEAL_FILES = 48
HEAL_FAULTS = 6  # tasks per fault kind
CHAIN_CONTEXT_LIMIT = 1 << 22


@dataclass(frozen=True)
class Call:
    layer: int
    role: str
    tokens: int


class MeteredBackend:
    """Client-side meter around the backend ``charter.run`` receives: the
    layer, role and prompt tokens of each ``complete`` call."""

    def __init__(self, inner):
        self.inner = inner
        self.calls: list[Call] = []
        self._lock = threading.Lock()

    def complete(self, request) -> str:
        try:
            return self.inner.complete(request)
        finally:
            call = Call(request.layer, request.role, request.bundle.token_count)
            with self._lock:
                self.calls.append(call)


def critical_wait(waits: list[tuple[int, float]], mode: RunMode) -> float:
    """Simulated model wait on the critical path, from (layer, seconds) per
    call: per layer, the longest wait when the layer's dispatches run in
    parallel, their sum otherwise. Synthesis (layer 0) is always sequential."""
    by_layer: dict[int, list[float]] = {}
    for layer, seconds in waits:
        by_layer.setdefault(layer, []).append(seconds)
    wait = 0.0
    for layer, seconds in by_layer.items():
        wait += sum(seconds) if layer == 0 or mode is RunMode.SEQUENTIAL else max(seconds)
    return wait


@dataclass
class Case:
    intent: IntentSpec
    config: RunConfig
    make_backend: Callable[[], object]
    check: Callable[[RunResult], list[str]]  # problems; empty when correct


@dataclass
class RunRecord:
    case: Case
    result: RunResult
    cpu_s: float  # CPU time of the process, every thread, during the run
    wait_s: float  # simulated model wait on the critical path
    calls: list[Call]
    problems: list[str]


@dataclass(frozen=True)
class Stats:
    """What the end-to-end metrics need from one sample. Measuring keeps these
    rather than the runs, so memory stays flat however many samples fit.

    ``run_s`` is the engine's CPU time plus the simulated model wait on the
    critical path: the run's wall time with the time the host takes the CPU
    away from this process left out. ``run_s - wait_s`` is the CPU time alone."""

    run_s: float
    wait_s: float
    prompt_tokens: int
    prompt_tokens_max: int
    dispatches: int
    layers: int
    problems: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.problems


@dataclass
class Sample:
    runs: list[RunRecord] = field(default_factory=list)

    def stats(self) -> Stats:
        calls = [c for r in self.runs for c in r.calls]
        return Stats(
            run_s=sum(r.cpu_s + r.wait_s for r in self.runs),
            wait_s=sum(r.wait_s for r in self.runs),
            prompt_tokens=sum(c.tokens for c in calls),
            prompt_tokens_max=max((c.tokens for c in calls), default=0),
            dispatches=len(calls),
            layers=sum(r.result.layers_used for r in self.runs),
            problems=tuple(p for r in self.runs for p in r.problems),
        )


def run_case(case: Case, on_backend: Callable[[object], None] | None = None) -> RunRecord:
    inner = case.make_backend()
    if on_backend is not None:
        on_backend(inner)
    backend = MeteredBackend(inner)
    start = time.process_time()
    # Looked up on the module so that the traced pass sees its wrapper.
    result = scheduler.run(case.intent, case.config, backend)
    cpu_s = time.process_time() - start
    wait_s = critical_wait(getattr(inner, "waits", []), case.config.mode)
    return RunRecord(case, result, cpu_s, wait_s, backend.calls, case.check(result))


def run_sample(cases: list[Case], on_backend: Callable[[object], None] | None = None) -> Sample:
    return Sample([run_case(case, on_backend) for case in cases])


# --- output checks -----------------------------------------------------------------


def _hashes(result: RunResult) -> dict[str, str]:
    return {u.path: hashlib.sha256(u.body.encode("utf-8")).hexdigest() for u in result.workspace.units()}


def check_gomoku(golden: dict) -> Callable[[RunResult], list[str]]:
    def check(result: RunResult) -> list[str]:
        problems = []
        if _hashes(result) != golden["files"]:
            problems.append("gomoku: workspace hashes differ from the golden file")
        if result.layers_used != golden["layers"]:
            problems.append(f"gomoku: {result.layers_used} layers, golden says {golden['layers']}")
        if result.ledger.sha256() != golden["ledger_sha256"]:
            problems.append("gomoku: ledger sha256 differs from the golden file")
        return problems

    return check


def check_plane_battle(result: RunResult) -> list[str]:
    problems = []
    if not result.converged or result.layers_used != 3:
        problems.append(f"plane_battle: converged={result.converged} in {result.layers_used} layers, expected 3")
    player = result.workspace.get("entities/player.py")
    body = player.body if player is not None else ""
    if "self.width" not in body or "self.height" not in body:
        problems.append("plane_battle: entities/player.py lacks width/height")
    return problems


def check_oracle(plan: synth.Plan) -> Callable[[RunResult], list[str]]:
    expected = synth.oracle_hashes(plan)

    def check(result: RunResult) -> list[str]:
        problems = []
        unverified = sorted(t for t, task in result.tasks.items() if task.status is not TaskStatus.VERIFIED)
        if unverified:
            problems.append(f"{len(unverified)} tasks not VERIFIED, first {unverified[0]}")
        got = _hashes(result)
        if got != expected:
            wrong = sorted(p for p in expected.keys() | got.keys() if got.get(p) != expected.get(p))
            problems.append(f"{len(wrong)} files differ from the oracle, first {wrong[0]}")
        return problems

    return check


# --- workloads -----------------------------------------------------------------------


def fixtures_replay(seed: int) -> list[Case]:
    """Recorded traffic; the transcripts are fixed, so the seed selects nothing."""
    golden = json.loads((GOLDEN / "gomoku.json").read_text(encoding="utf-8"))
    cases = []
    for name, check in (("gomoku", check_gomoku(golden)), ("plane_battle", check_plane_battle)):
        intent = IntentSpec((FIXTURES / "intents" / f"{name}.txt").read_text(encoding="utf-8"))
        transcript = FIXTURES / "transcripts" / f"{name}.jsonl"
        cases.append(Case(intent, RunConfig(), lambda path=transcript: ScriptedBackend.from_file(path), check))
    return cases


def chain_large(seed: int, n: int = CHAIN_FILES) -> list[Case]:
    plan = synth.chain_plan(seed, n)
    config = RunConfig(mode=RunMode.SEQUENTIAL, context_limit=CHAIN_CONTEXT_LIMIT)
    return [Case(IntentSpec(plan.intent), config, lambda: synth.SyntheticBackend(plan), check_oracle(plan))]


def heal_wide(
    seed: int, n: int = HEAL_FILES, per_fault: int = HEAL_FAULTS, latency: synth.Latency = synth.HEAL_LATENCY
) -> list[Case]:
    plan = synth.heal_plan(seed, n, per_fault, latency)
    return [Case(IntentSpec(plan.intent), RunConfig(), lambda: synth.SyntheticBackend(plan), check_oracle(plan))]


WORKLOADS: dict[str, Callable[[int], list[Case]]] = {
    "fixtures-replay": fixtures_replay,
    "chain-large": chain_large,
    "heal-wide": heal_wide,
}

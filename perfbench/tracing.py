"""Traced pass: spans around charter's public functions, recorded from outside.

The engine binds names at import (``from .kernel import project``), so a
function is wrapped in every ``charter`` module whose namespace holds it, e.g.
``charter.scheduler.audit_layer``, ``charter.auditor.project``,
``charter.auditor.analyze`` and ``charter.patches.diff_against_base``. The
engine's code is not touched, and ``Tracer.restore`` puts every original
function back.

Spans stay in memory; ``write`` dumps them when the pass ends. A span's self
time is its duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import sys
import threading
import time
from dataclasses import asdict, dataclass

from charter.contract import Rejection

# Functions timed per module: the entry points each module offers the others.
TRACED: dict[str, tuple[str, ...]] = {
    "scheduler": ("run", "plan_layer", "run_layer"),
    "agents": ("synthesize_contract", "build_prompt", "parse_response"),
    "auditor": ("audit_layer", "compare_unit", "demand_details", "existence_check"),
    "kernel": ("project", "guard_violations", "validate", "print_api_section"),
    "workspace": ("analyze",),
    "patches": ("patches_for_action", "diff_against_base", "merge_layer", "commit_merge"),
    "contract": ("apply_action", "render"),
}

# Per-span numbers taken from a call's arguments and result.
MEASURES = {
    "patches.diff_against_base": lambda args, kwargs, result: len(args[0]) + len(args[1]),
    "agents.build_prompt": lambda args, kwargs, result: result.token_count,
    "contract.apply_action": lambda args, kwargs, result: int(isinstance(result, Rejection)),
}


@dataclass
class Span:
    name: str
    id: int
    parent: int | None
    run: int
    start: float
    end: float
    error: str = ""
    value: float = 0.0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.run_id = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []  # (module, attribute, original)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        measure = MEASURES.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = Span(name, next(tracer._ids), stack[-1] if stack else None, tracer.run_id, 0.0, 0.0)
            stack.append(span.id)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            else:
                if measure is not None:
                    span.value = measure(args, kwargs, result)
                return result
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)

        return traced

    def install(self) -> None:
        """Wrap every traced function at each ``charter`` module that binds it."""
        modules = [m for n, m in list(sys.modules.items()) if n == "charter" or n.startswith("charter.")]
        for short, names in TRACED.items():
            owner = sys.modules[f"charter.{short}"]
            for fname in names:
                original = getattr(owner, fname)
                wrapped = self.wrap(f"{short}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapped)
                            self._patched.append((module, attr, original))

    def trace_backend(self, backend) -> None:
        """Time ``complete`` on one backend instance."""
        backend.complete = self.wrap("backends.complete", backend.complete)

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span), sort_keys=True) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out: dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
            start, end = max(child.start, cursor), min(child.end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        out[span.id] = (span.end - span.start) - covered
    return out


def _barrier_seconds(spans: list[Span]) -> float:
    """Per root ``scheduler.run`` span, the time from the end of each
    ``run_layer`` to the next ``plan_layer`` (or to the end of the run)."""
    total = 0.0
    for root in (s for s in spans if s.name == "scheduler.run"):
        inside = [s for s in spans if root.start <= s.start and s.end <= root.end]
        plans = sorted(s.start for s in inside if s.name == "scheduler.plan_layer")
        for layer in (s for s in inside if s.name == "scheduler.run_layer"):
            nxt = next((p for p in plans if p >= layer.end), root.end)
            total += nxt - layer.end
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def sample_metrics(spans: list[Span], sample) -> dict[str, float]:
    """Per-layer metrics of one traced sample (its spans plus its run records)."""
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    values: dict[str, float] = {}
    errors: dict[str, int] = {}
    for span in spans:
        calls[span.name] = calls.get(span.name, 0) + 1
        self_s[span.name] = self_s.get(span.name, 0.0) + selfs[span.id]
        values[span.name] = values.get(span.name, 0.0) + span.value
        if span.error:
            errors[span.name] = errors.get(span.name, 0) + 1

    layers = [rec for run in sample.runs for rec in run.result.ledger.records if rec["kind"] == "layer"]
    deltas = [d["kind"] for rec in layers for d in rec["deltas"]]
    interventions = [i["kind"] for rec in layers for i in rec["interventions"]]
    worker_dispatches = sum(1 for rec in layers for d in rec["dispatches"] if d["role"] == "worker")
    verified = sum(
        1 for run in sample.runs for t in run.result.tasks.values() if t.status.value == "VERIFIED"
    )
    revisions = sum(run.result.contract.revision for run in sample.runs)
    file_layers = 0
    for run in sample.runs:
        present: set[str] = set()
        for rec in (r for r in run.result.ledger.records if r["kind"] == "layer"):
            present.update(c["path"] for c in rec["commits"])
            file_layers += len(present)
    ledgers = [run.result.ledger for run in sample.runs]

    def c(name: str) -> float:
        return float(calls.get(name, 0))

    def s(name: str) -> float:
        return self_s.get(name, 0.0)

    return {
        "patches.diff_against_base.calls": c("patches.diff_against_base"),
        "patches.diff_against_base.s": s("patches.diff_against_base"),
        "patches.diff_against_base.lines": values.get("patches.diff_against_base", 0.0),
        "patches.merge_layer.s": s("patches.merge_layer"),
        "patches.commit_merge.s": s("patches.commit_merge"),
        "patches.conflicts": float(sum(rec["merge_conflicts"] for rec in layers)),
        "kernel.project.calls": c("kernel.project"),
        "kernel.project.s": s("kernel.project"),
        "kernel.guard_violations.calls": c("kernel.guard_violations"),
        "kernel.guard_violations.s": s("kernel.guard_violations"),
        "kernel.project_per_revision": _ratio(c("kernel.project"), revisions),
        "workspace.analyze.calls": c("workspace.analyze"),
        "workspace.analyze.s": s("workspace.analyze"),
        "workspace.analyze_per_file_layer": _ratio(c("workspace.analyze"), file_layers),
        "agents.build_prompt.calls": c("agents.build_prompt"),
        "agents.build_prompt.s": s("agents.build_prompt"),
        "agents.prompt_tokens": values.get("agents.build_prompt", 0.0),
        "agents.context_overflows": float(errors.get("agents.build_prompt", 0)),
        "agents.parse_response.calls": c("agents.parse_response"),
        "agents.parse_response.s": s("agents.parse_response"),
        "agents.parse_errors": float(errors.get("agents.parse_response", 0)),
        "agents.synthesize_contract.s": s("agents.synthesize_contract"),
        "backends.complete.calls": c("backends.complete"),
        "backends.complete.s": s("backends.complete"),
        "backends.wait.s": sample.stats().wait_s,
        "backends.errors": float(errors.get("backends.complete", 0)),
        "scheduler.plan_layer.s": s("scheduler.plan_layer"),
        "scheduler.run_layer.s": s("scheduler.run_layer"),
        "scheduler.barrier.s": _barrier_seconds(spans),
        "scheduler.layer_width.max": float(max((rec["dispatch_count"] for rec in layers), default=0)),
        "scheduler.useful_ratio": _ratio(verified, sum(rec["dispatch_count"] for rec in layers)),
        "auditor.audit_layer.s": s("auditor.audit_layer"),
        "auditor.compare_unit.calls": c("auditor.compare_unit"),
        "auditor.demand_details.calls": c("auditor.demand_details"),
        "auditor.existence_check.calls": c("auditor.existence_check"),
        "auditor.deltas.CRITICAL": float(deltas.count("CRITICAL")),
        "auditor.deltas.PATCHABLE": float(deltas.count("PATCHABLE")),
        "auditor.amendments": float(interventions.count("ContractAmendment")),
        "auditor.accept_ratio": _ratio(sum(len(rec["commits"]) for rec in layers), worker_dispatches),
        "contract.apply_action.calls": c("contract.apply_action"),
        "contract.apply_action.s": s("contract.apply_action"),
        "contract.render.calls": c("contract.render"),
        "contract.render.s": s("contract.render"),
        "contract.rejections": values.get("contract.apply_action", 0.0),
        "ledger.records": float(sum(len(l.records) + len(l.journal) for l in ledgers)),
        "ledger.bytes": float(sum(len(l.serialize().encode()) + len(l.serialize_journal().encode()) for l in ledgers)),
        "tasks.attempts.max": float(
            max((t.attempts for run in sample.runs for t in run.result.tasks.values()), default=0)
        ),
        "tasks.transitions": float(sum(len(rec["transitions"]) for rec in layers)),
    }


def median_metrics(per_sample: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(m[name] for m in per_sample) for name in per_sample[0]}

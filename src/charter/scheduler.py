"""Layer-synchronized execution over the task state machine.

The execution topology is not hard-coded: each layer is derived from task
statuses alone. TODO and ERROR tasks get a worker, DONE tasks get a critic,
VERIFIED tasks get nothing. Every dispatch in a layer reads its task's view
of the same immutable contract snapshot; all mutation (statuses, workspace,
contract, tasks) happens single-threaded in ``barrier`` after the auditor has
classified the outputs, and every status move, artifact commit and document
action comes from its report. The document actions commit through
``patches.commit_actions``, the path synthesis commits each stage through.
``create_tasks`` gives each entry of the synthesized contract, and of each
committed one, that has no task a TODO task, so a module added to the
contract in one layer is dispatched in the next; the layer's record lists
each such task as a ``TaskInjection`` intervention, after the auditor's. A
layer's dispatches run side by side on the run's one thread pool, of at most
``MAX_DISPATCH_THREADS`` workers (the bound a remote backend's connection
pool is sized by), so a run starts no more threads than its widest layer
has dispatches. The loop runs until everything is verified or the layer
budget is exhausted, in which case the current best-effort repository is
returned.
"""

from __future__ import annotations

import logging
from concurrent.futures import Executor, ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from functools import partial

from .agents import (
    CONTEXT_LIMIT,
    ContextOverflow,
    IntentSpec,
    RoleKind,
    build_prompt,
    parse_response,
    synthesize_contract,
)
from .auditor import DispatchOutcome, audit_layer
from .backends import MAX_DISPATCH_THREADS, CompletionRequest, RequestRejected
from .contract import LanguageContract
from .kernel import NO_LINES, SymbolicKernel, ViolationKind, project
from .ledger import RunLedger, file_sha256
from .patches import commit_actions
from .tasks import Task, TaskStatus
from .workspace import Workspace

logger = logging.getLogger(__name__)


class RunMode(Enum):
    PARALLEL = "PARALLEL"
    SEQUENTIAL = "SEQUENTIAL"
    NO_CONTRACT = "NO_CONTRACT"


class InternalInconsistency(RuntimeError):
    """A DONE task reached dispatch without an implementation to review."""


@dataclass
class RunConfig:
    t_max: int = 8
    mode: RunMode = RunMode.PARALLEL
    context_limit: int = CONTEXT_LIMIT
    attempt_cap: int = 3

    def __post_init__(self):
        if self.t_max < 0:
            raise ValueError("t_max must be >= 0")
        if self.attempt_cap < 0:
            raise ValueError("attempt_cap must be >= 0")
        if self.context_limit < 1:
            raise ValueError("context_limit must be >= 1")


@dataclass(frozen=True)
class Dispatch:
    task_id: str
    role: RoleKind


def dispatch_for(task: Task, implementation: str | None = None) -> Dispatch | None:
    """The state-conditional dispatch map: TODO/ERROR -> worker, DONE -> critic,
    VERIFIED -> nothing."""
    if task.status is TaskStatus.VERIFIED:
        return None
    if task.status in (TaskStatus.TODO, TaskStatus.ERROR):
        return Dispatch(task_id=task.id, role=RoleKind.WORKER)
    if task.status is TaskStatus.DONE:
        if implementation is None:
            raise InternalInconsistency(f"{task.id} is DONE but has no implementation to verify")
        return Dispatch(task_id=task.id, role=RoleKind.CRITIC)
    raise InternalInconsistency(f"unhandled status {task.status}")


@dataclass(frozen=True)
class LayerPlan:
    dispatches: tuple[Dispatch, ...]
    skipped: tuple[str, ...] = ()  # tasks withheld by the attempt cap

    def __len__(self) -> int:
        return len(self.dispatches)


def plan_layer(
    tasks: dict[str, Task],
    workspace: Workspace,
    attempt_cap: int = 0,
) -> LayerPlan:
    """Dispatches for every non-VERIFIED task, ordered by task id."""
    dispatches: list[Dispatch] = []
    skipped: list[str] = []
    for task_id in sorted(tasks):
        task = tasks[task_id]
        unit = workspace.get(task_id)
        if (
            attempt_cap
            and task.status in (TaskStatus.TODO, TaskStatus.ERROR)
            and task.attempts >= attempt_cap
        ):
            skipped.append(task_id)
            continue
        dispatch = dispatch_for(task, unit.body if unit else None)
        if dispatch is not None:
            dispatches.append(dispatch)
    return LayerPlan(dispatches=tuple(dispatches), skipped=tuple(skipped))


def run_layer(
    plan: LayerPlan,
    backend,
    contract: LanguageContract,
    intent: IntentSpec,
    tasks: dict[str, Task],
    workspace: Workspace,
    layer: int,
    config: RunConfig,
    *,
    pool: Executor | None,
) -> list[DispatchOutcome]:
    """Execute one layer against a single snapshot and collect at the barrier.

    A failing dispatch only affects its own task. The requests are all
    submitted at once to ``pool``, the run's dispatch pool, whose threads only
    wait for the backend (``Executor.map``); this thread parses the answers in
    plan order as they arrive. With ``pool=None`` (SEQUENTIAL mode, or a layer
    of one dispatch) the requests are sent one at a time in plan order on the
    caller's thread, each as its outcome is built. The caller chooses:
    ``config.mode`` does not select the pool here. The scripted backend makes
    the two produce identical outputs.
    """
    all_paths = tuple(sorted(tasks))
    requests: list[tuple[Dispatch, CompletionRequest | None, str]] = []
    for dispatch in plan.dispatches:
        task = tasks[dispatch.task_id]
        implementation = None
        if dispatch.role is RoleKind.CRITIC:  # planned only for a task with a committed unit
            implementation = workspace.get(task.id).body
        try:
            bundle = build_prompt(
                dispatch.role,
                task,
                contract,
                intent,
                context_limit=config.context_limit,
                implementation=implementation,
                task_paths=all_paths if config.mode is RunMode.NO_CONTRACT else None,
            )
        except ContextOverflow as exc:
            requests.append((dispatch, None, str(exc)))
            continue
        requests.append(
            (
                dispatch,
                CompletionRequest(layer=layer, role=dispatch.role.value, task_id=dispatch.task_id, bundle=bundle),
                "",
            )
        )

    def complete(request: CompletionRequest) -> str | Exception:
        """The answer, or what the backend raised; a pool thread runs only this."""
        logger.info("event=dispatch_start layer=%d role=%s task=%s", layer, request.role, request.task_id)
        try:
            return backend.complete(request)
        except Exception as exc:  # noqa: BLE001 - isolate failures per dispatch
            return exc

    sent = [request for _, request, _ in requests if request is not None]
    answers = (map if pool is None else pool.map)(complete, sent)
    outcomes: list[DispatchOutcome] = []
    for dispatch, request, build_error in requests:
        if request is None:
            # No prompt was sent, so the dispatch was shown no line.
            outcomes.append(DispatchOutcome(dispatch.task_id, dispatch.role, NO_LINES, error=build_error))
            continue
        outcome_of = partial(DispatchOutcome, dispatch.task_id, dispatch.role, request.bundle.view)
        answer = next(answers)
        if isinstance(answer, Exception):
            # A refused request would be refused again, so it is no transport failure.
            outcome = outcome_of(error=str(answer), transport_failed=not isinstance(answer, RequestRejected))
        else:
            try:
                outcome = outcome_of(response=parse_response(answer))
            except Exception as exc:  # noqa: BLE001 - isolate failures per dispatch
                outcome = outcome_of(error=str(exc))
        logger.info(
            "event=dispatch_finish layer=%d role=%s task=%s ok=%s",
            layer,
            dispatch.role.value,
            dispatch.task_id,
            not outcome.error,
        )
        outcomes.append(outcome)
    return outcomes


def create_tasks(kernel: SymbolicKernel, tasks: dict[str, Task]) -> list[str]:
    """Give each entry of ``kernel`` without a task a TODO task with the
    entry's owner, whatever Status the entry names, and the INCOMPLETE
    messages of its validation as feedback; return the new task ids in path
    order. Synthesis and every barrier create tasks only here."""
    created = [path for path in sorted(kernel.entries) if path not in tasks]
    tasks.update((path, Task(id=path, owner=kernel.entries[path].owner)) for path in created)
    for violation in kernel.violations:
        if violation.kind is ViolationKind.INCOMPLETE and violation.subject in created:
            tasks[violation.subject].feedback.append(violation.message)
    return created


@dataclass
class RunResult:
    workspace: Workspace
    contract: LanguageContract
    layers_used: int
    tasks: dict[str, Task]
    converged: bool
    ledger: RunLedger

    @property
    def best_effort(self) -> bool:
        return not self.converged


def barrier(
    layer: int,
    outcomes: list[DispatchOutcome],
    contract: LanguageContract,
    tasks: dict[str, Task],
    workspace: Workspace,
    config: RunConfig,
    ledger: RunLedger,
) -> LanguageContract:
    """Apply one layer's outcomes (one per dispatch, in plan order) and return
    the committed contract: count attempts, audit, commit the document
    actions in one ``commit_actions`` batch and the audited units, move
    statuses, add feedback, create the tasks of new entries and write the
    layer record. When the guard refuses the batch, ``commit_actions``
    journals the agents' actions as refused and commits the write-back
    alone; each of their authors gets the refusal as feedback. The record's
    ``execution_width`` is the configured width, ``min(MAX_DISPATCH_THREADS,
    dispatches)`` (1 under SEQUENTIAL), not an observed concurrency."""
    # A worker pass is an attempt once the model answered, the prompt could
    # not be built or the endpoint refused the request; any other transport
    # failure costs none.
    for outcome in outcomes:
        if outcome.role is RoleKind.WORKER and not outcome.transport_failed:
            tasks[outcome.task_id].attempts += 1

    report = audit_layer(contract, workspace.view(), tasks, outcomes)
    for warning in report.warnings:
        logger.warning("event=audit_warning layer=%d %s", layer, warning)

    # Every document action is a patch against the snapshot the layer read.
    # If the guard refuses the merge, the agents' actions are dropped and the
    # auditor's write-back (the guarded amendment plus Status lines) commits
    # alone; artifacts and statuses stay as audited.
    feedback = list(report.feedback)
    contract, merge_conflicts, refusal = commit_actions(
        contract, report.contract_actions, ledger.add_journal, report.write_back, f"layer {layer}"
    )
    if refusal is not None:
        authors = sorted({author for author, _, _ in report.contract_actions})
        logger.warning("event=merge_rejected layer=%d authors=%s reason=%s", layer, authors, refusal)
        feedback.extend((author, f"document action rejected: {refusal}") for author in authors)

    commits = []
    for task_id, artifacts in report.accepted_artifacts:
        for unit in artifacts:
            workspace.commit(unit)
            commits.append({"path": unit.path, "sha256": file_sha256(unit.body), "writer": task_id})
    for task_id, _old, new in report.status_updates:
        tasks[task_id].transition(TaskStatus(new))
    for task_id, note in feedback:
        if note not in tasks[task_id].feedback:
            tasks[task_id].feedback.append(note)

    # Every entry of the committed contract has a task: one that an action
    # of this layer added becomes TODO work for the next.
    created = create_tasks(project(contract), tasks)
    interventions = [*report.interventions, *({"kind": "TaskInjection", "path": path} for path in created)]
    for intervention in interventions:
        logger.info("event=intervention layer=%d %s", layer, intervention)

    ledger.add(
        {
            "kind": "layer",
            "layer": layer,
            "mode": config.mode.value,
            "dispatch_count": len(outcomes),
            "execution_width": 1 if config.mode is RunMode.SEQUENTIAL else min(MAX_DISPATCH_THREADS, len(outcomes)),
            "dispatches": [{"task": o.task_id, "role": o.role.value} for o in outcomes],
            "transitions": [list(update) for update in report.status_updates],
            "audit_sha256": report.sha256(),
            "deltas": [{"task": d.task_id, "kind": d.kind.value} for d in report.deltas],
            "interventions": interventions,
            "existence": report.existence,
            "consistency": report.consistency,
            "commits": commits,
            "merge_conflicts": merge_conflicts,
            "contract_sha256": contract.fingerprint(),
        }
    )
    return contract


def run(intent: IntentSpec, config: RunConfig, backend) -> RunResult:
    """Synthesize the contract, then ``plan_layer``, ``run_layer`` and ``barrier`` per layer."""
    ledger = RunLedger()
    workspace = Workspace()

    contract = synthesize_contract(
        intent,
        backend,
        context_limit=config.context_limit,
        journal=ledger.add_journal,
    )
    tasks: dict[str, Task] = {}
    create_tasks(project(contract), tasks)
    ledger.add(
        {
            "kind": "synthesis",
            "revision": contract.revision,
            "contract_sha256": contract.fingerprint(),
            "tasks": sorted(tasks),
        }
    )

    layers_used = 0
    # One dispatch pool per run. It starts a thread only when a layer's
    # dispatches are mapped over it and no started one is idle, so a run
    # starts at most as many as its widest layer has dispatches, not one per
    # dispatch and layer; leaving the block joins them, also on a raise.
    with ThreadPoolExecutor(max_workers=MAX_DISPATCH_THREADS, thread_name_prefix="charter-dispatch") as pool:
        while layers_used < config.t_max:
            plan = plan_layer(tasks, workspace, attempt_cap=config.attempt_cap)
            for task_id in plan.skipped:
                note = f"attempt cap ({config.attempt_cap}) reached; task parked"
                if note not in tasks[task_id].feedback:
                    tasks[task_id].feedback.append(note)
                    logger.warning("event=task_parked task=%s cap=%d", task_id, config.attempt_cap)
            if not plan.dispatches:
                break
            layers_used += 1
            outcomes = run_layer(
                plan, backend, contract, intent, tasks, workspace, layers_used, config,
                pool=pool if config.mode is not RunMode.SEQUENTIAL and len(plan) > 1 else None,
            )
            contract = barrier(layers_used, outcomes, contract, tasks, workspace, config, ledger)

    converged = bool(tasks) and all(t.status is TaskStatus.VERIFIED for t in tasks.values())
    ledger.add(
        {
            "kind": "result",
            "layers": layers_used,
            "converged": converged,
            "workspace": [
                {"path": u.path, "sha256": file_sha256(u.body)} for u in workspace.units()
            ],
            "contract_sha256": contract.fingerprint(),
        }
    )
    return RunResult(
        workspace=workspace,
        contract=contract,
        layers_used=layers_used,
        tasks=tasks,
        converged=converged,
        ledger=ledger,
    )

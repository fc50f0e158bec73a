"""Layer-synchronized execution over the task state machine.

The execution topology is not hard-coded: each layer is derived from task
statuses alone. TODO and ERROR tasks get a worker, DONE tasks get a critic,
VERIFIED tasks get nothing. Every dispatch in a layer sees the same immutable
contract snapshot; all mutation (statuses, workspace, contract) happens
single-threaded at the layer barrier after the auditor has classified the
outputs. The loop runs until everything is verified or the layer budget is
exhausted, in which case the current best-effort repository is returned.
"""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum

from .agents import (
    ContextOverflow,
    IntentSpec,
    Role,
    RoleKind,
    build_prompt,
    parse_response,
    synthesize_contract,
)
from .auditor import DispatchOutcome, audit_layer
from .backends import CompletionRequest
from .contract import LanguageContract, journal_record
from .kernel import ViolationKind, project, tasks_of, validate
from .ledger import RunLedger, file_sha256
from .patches import KernelViolation, StalePatch, merge_layer, commit_merge, patches_for_action
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
    model: str = "gpt-4o-2024-11-20"
    temperature: float = 0.0
    context_limit: int = 16384
    attempt_cap: int = 3

    def __post_init__(self):
        if self.t_max < 0:
            raise ValueError("t_max must be >= 0")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")


@dataclass(frozen=True)
class Dispatch:
    task_id: str
    role: Role


def dispatch_for(task: Task, contract: LanguageContract, implementation: str | None = None) -> Dispatch | None:
    """The state-conditional dispatch map: TODO/ERROR -> worker, DONE -> critic,
    VERIFIED -> nothing."""
    if task.status is TaskStatus.VERIFIED:
        return None
    if task.status in (TaskStatus.TODO, TaskStatus.ERROR):
        return Dispatch(task_id=task.id, role=Role(RoleKind.WORKER, owner=task.owner or task.id))
    if task.status is TaskStatus.DONE:
        if implementation is None:
            raise InternalInconsistency(f"{task.id} is DONE but has no implementation to verify")
        return Dispatch(task_id=task.id, role=Role(RoleKind.CRITIC))
    raise InternalInconsistency(f"unhandled status {task.status}")


@dataclass(frozen=True)
class LayerPlan:
    dispatches: tuple[Dispatch, ...]
    skipped: tuple[str, ...] = ()  # tasks withheld by the attempt cap

    def __len__(self) -> int:
        return len(self.dispatches)


def plan_layer(
    tasks: dict[str, Task],
    contract: LanguageContract,
    workspace: Workspace,
    attempt_cap: int = 0,
) -> LayerPlan:
    """Dispatches for every non-VERIFIED task, ordered by task id."""
    dispatches: list[Dispatch] = []
    skipped: list[str] = []
    for task_id in sorted(tasks):
        task = tasks[task_id]
        unit = workspace.get(task.file_path)
        if (
            attempt_cap
            and task.status in (TaskStatus.TODO, TaskStatus.ERROR)
            and task.attempts >= attempt_cap
        ):
            skipped.append(task_id)
            continue
        dispatch = dispatch_for(task, contract, unit.body if unit else None)
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
) -> list[DispatchOutcome]:
    """Execute one layer against a single snapshot and collect at the barrier.

    A failing dispatch only affects its own task. In SEQUENTIAL mode the
    dispatches run one at a time in plan order; the scripted backend makes the
    two modes produce identical outputs.
    """
    all_paths = tuple(tasks[t].file_path for t in sorted(tasks))
    requests: list[tuple[Dispatch, CompletionRequest | None, str]] = []
    for dispatch in plan.dispatches:
        task = tasks[dispatch.task_id]
        implementation = None
        if dispatch.role.kind is RoleKind.CRITIC:
            unit = workspace.get(task.file_path)
            if unit is None:
                raise InternalInconsistency(f"{task.id} is DONE but has no workspace unit")
            implementation = unit.body
        try:
            bundle = build_prompt(
                dispatch.role,
                task,
                contract,
                intent,
                context_limit=config.context_limit,
                implementation=implementation,
                include_contract=config.mode is not RunMode.NO_CONTRACT,
                task_paths=all_paths if config.mode is RunMode.NO_CONTRACT else (),
            )
        except ContextOverflow as exc:
            requests.append((dispatch, None, str(exc)))
            continue
        requests.append(
            (
                dispatch,
                CompletionRequest(
                    layer=layer, role=dispatch.role.kind.value, task_id=dispatch.task_id, bundle=bundle
                ),
                "",
            )
        )

    def execute(item: tuple[Dispatch, CompletionRequest | None, str]) -> DispatchOutcome:
        dispatch, request, build_error = item
        if request is None:
            return DispatchOutcome(task_id=dispatch.task_id, role=dispatch.role.kind, error=build_error)
        logger.info(
            "event=dispatch_start layer=%d role=%s task=%s", layer, dispatch.role.kind.value, dispatch.task_id
        )
        try:
            raw = backend.complete(request)
            response = parse_response(raw)
            outcome = DispatchOutcome(task_id=dispatch.task_id, role=dispatch.role.kind, response=response)
        except Exception as exc:  # noqa: BLE001 - isolate failures per dispatch
            outcome = DispatchOutcome(task_id=dispatch.task_id, role=dispatch.role.kind, error=str(exc))
        logger.info(
            "event=dispatch_finish layer=%d role=%s task=%s ok=%s",
            layer,
            dispatch.role.kind.value,
            dispatch.task_id,
            not outcome.error,
        )
        return outcome

    if config.mode is RunMode.SEQUENTIAL or len(requests) <= 1:
        return [execute(item) for item in requests]
    with ThreadPoolExecutor(max_workers=len(requests)) as pool:
        return list(pool.map(execute, requests))


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


def _offending_authors(patch_authors: set[str]) -> set[str]:
    agents = {a for a in patch_authors if a != "auditor"}
    return agents or set(patch_authors)


def run(intent: IntentSpec, config: RunConfig, backend) -> RunResult:
    """Synthesize the contract, then iterate plan / execute / audit / commit."""
    ledger = RunLedger()
    workspace = Workspace()

    contract = synthesize_contract(
        intent,
        backend,
        context_limit=config.context_limit,
        on_accept=lambda action, revision: ledger.add_journal(journal_record(action, revision)),
    )
    contract = contract.refresh_base()
    kernel = project(contract)
    tasks = {t.id: t for t in tasks_of(kernel)}

    # Interfaces that survived rectification underspecified become feedback.
    for violation in validate(kernel):
        if violation.kind is ViolationKind.INCOMPLETE and violation.subject in tasks:
            tasks[violation.subject].feedback.append(violation.message)

    ledger.add(
        {
            "kind": "synthesis",
            "revision": contract.revision,
            "contract_sha256": contract.fingerprint(),
            "tasks": sorted(tasks),
        }
    )

    layers_used = 0
    while layers_used < config.t_max:
        plan = plan_layer(tasks, contract, workspace, attempt_cap=config.attempt_cap)
        for task_id in plan.skipped:
            note = f"attempt cap ({config.attempt_cap}) reached; task parked"
            if note not in tasks[task_id].feedback:
                tasks[task_id].feedback.append(note)
                logger.warning("event=task_parked task=%s cap=%d", task_id, config.attempt_cap)
        if not plan.dispatches:
            break
        layers_used += 1
        snapshot = contract
        outcomes = run_layer(plan, backend, snapshot, intent, tasks, workspace, layers_used, config)

        for dispatch in plan.dispatches:
            if dispatch.role.kind is RoleKind.WORKER:
                tasks[dispatch.task_id].attempts += 1

        report = audit_layer(snapshot, workspace.view(), tasks, outcomes)
        for warning in report.warnings:
            logger.warning("event=audit_warning layer=%d %s", layers_used, warning)
        for intervention in report.interventions:
            logger.info("event=intervention layer=%d %s", layers_used, intervention.to_dict())

        # Merge every accepted document action against the frozen base.
        patches = []
        for author, action in report.contract_actions:
            patches.extend(patches_for_action(snapshot, action, author, layers_used))

        status_updates = list(report.status_updates)
        accepted_artifacts = dict(report.accepted_artifacts)
        feedback = list(report.feedback)
        rejected_authors: set[str] = set()
        merge_conflicts = 0

        if patches:
            try:
                merge_result = merge_layer(snapshot, patches)
                merge_conflicts = len(merge_result.conflicts)
                contract = commit_merge(snapshot, merge_result)
                for author, action in report.contract_actions:
                    ledger.add_journal(journal_record(action, contract.revision))
                ledger.add_journal(
                    {
                        "kind": "commit",
                        "revision": contract.revision,
                        "base_sha256": contract.fingerprint(),
                    }
                )
            except (KernelViolation, StalePatch) as exc:
                rejected_authors = _offending_authors({p.author for p in patches})
                logger.warning(
                    "event=merge_rejected layer=%d authors=%s reason=%s",
                    layers_used,
                    sorted(rejected_authors),
                    exc,
                )
                note = f"layer merge rejected: {exc}"
                status_updates = [u for u in status_updates if u[0] not in rejected_authors]
                for author in sorted(rejected_authors):
                    if author not in tasks:
                        continue
                    accepted_artifacts.pop(author, None)
                    feedback.append((author, note))
                    current = tasks[author].status
                    if current is TaskStatus.TODO:
                        status_updates.append((author, "TODO", "DONE"))
                        status_updates.append((author, "DONE", "ERROR"))
                    elif current is TaskStatus.DONE:
                        status_updates.append((author, "DONE", "ERROR"))

        commits = []
        for task_id in sorted(accepted_artifacts):
            for path, body in accepted_artifacts[task_id]:
                workspace.commit_file(path, body, writer=task_id, layer=layers_used)
                commits.append({"path": path, "sha256": file_sha256(body), "writer": task_id})

        for task_id, old, new in status_updates:
            task = tasks.get(task_id)
            if task is None:
                continue
            task.transition(TaskStatus(new))

        for task_id, note in feedback:
            task = tasks.get(task_id)
            if task is not None and note not in task.feedback:
                task.feedback.append(note)

        for path, owner in report.injected_tasks:
            if path not in tasks:
                tasks[path] = Task(id=path, file_path=path, owner=owner, status=TaskStatus.TODO)
                logger.info("event=task_injected layer=%d task=%s", layers_used, path)

        ledger.add(
            {
                "kind": "layer",
                "layer": layers_used,
                "mode": config.mode.value,
                "dispatch_count": len(plan.dispatches),
                "execution_width": 1 if config.mode is RunMode.SEQUENTIAL else len(plan.dispatches),
                "dispatches": [
                    {"task": d.task_id, "role": d.role.kind.value} for d in plan.dispatches
                ],
                "transitions": [[t, old, new] for t, old, new in status_updates],
                "audit_sha256": report.sha256(),
                "deltas": [{"task": d.task_id, "kind": d.kind.value} for d in report.deltas],
                "interventions": [i.to_dict() for i in report.interventions],
                "existence": report.existence,
                "consistency": report.consistency,
                "commits": commits,
                "merge_conflicts": merge_conflicts,
                "contract_sha256": contract.fingerprint(),
            }
        )

        if all(t.status is TaskStatus.VERIFIED for t in tasks.values()):
            break

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

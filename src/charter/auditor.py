"""Deterministic layer auditor: structural existence, status synchronization,
and contract/code consistency, with self-healing interventions.

The auditor never executes generated code and never calls a model. After each
layer it compares every produced artifact against the contract's schema and
classifies the difference:

* EMPTY - the artifact matches; commit it and mark the task done.
* CRITICAL - a contracted symbol is missing or its signature drifted; the
  artifact is rejected wholesale and the worker is rescheduled with feedback.
* PATCHABLE - the artifact is a strict superset of the contract (extra
  symbols defined, or symbols demanded from a peer class that the contract
  does not declare yet); the artifact is committed and the contract is
  formally amended to legitimize the superset. Extra members and classes are
  recorded as they were read from the audited body. A peer class is demanded
  only through a parameter annotated with it that its def never rebinds: a
  local, a loop variable or an untyped parameter has no class here, so an
  undeclared read through one (``for enemy in self.enemies: enemy.mana``) is
  not a demand and shows only when the code runs.

A worker may write its own file and files no task owns; an artifact at a
peer task's path is dropped with feedback, so each contracted file committed
is the body audited for it.

Amendments run through the same guarded transition as any other action; an
amendment that would break the kernel is dropped and the delta is downgraded
to CRITICAL. After amending, every committed file is re-checked: a file that
no longer satisfies the amended schema gets a synchronization task (status
regressed to ERROR with a repair directive).

Every lookup is keyed by module path: a task id is a key of the kernel's
``entries`` and a workspace path, all spelled by ``kernel.normalize_path``.
In analyzed code, a class name denotes the class ``code_classes`` picks.

Every check reads ``FileUnit`` values and takes their analysis from
``workspace.analyze``, which keeps it on the unit. The report carries the
accepted units themselves, and the workspace stores them, so a committed
body is not analyzed again in later layers.

``audit_layer`` is a pure function of its inputs, run as named steps;
``scheduler.barrier`` applies the returned effects and creates tasks. Each
document action it returns carries the view its author was shown, which the
barrier re-anchors it through.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass, replace
from enum import Enum

from .agents import AgentResponse, RoleKind
from .contract import ActionOp, ContractAction, LanguageContract, Rejection, SectionKey, apply_action
from .kernel import (
    ApiSpecEntry,
    AttributeSpec,
    ClassSpec,
    ContractView,
    MethodSig,
    PathViolation,
    SymbolicKernel,
    full_view,
    guard_violations,
    normalize_path,
    print_api_section,
    project,
    tasks_of,
    type_head,
)
from .tasks import Task, TaskStatus
from .workspace import ExtractedSymbols, FileUnit, analyze

logger = logging.getLogger(__name__)

AUDITOR_AUTHOR = "auditor"


class DeltaKind(Enum):
    EMPTY = "EMPTY"
    CRITICAL = "CRITICAL"
    PATCHABLE = "PATCHABLE"


class DetailKind(Enum):
    MISSING = "MISSING"
    MISMATCH = "MISMATCH"
    EXTRA = "EXTRA"
    DEMANDED = "DEMANDED"
    UNANALYZABLE = "UNANALYZABLE"


_CRITICAL_KINDS = {DetailKind.MISSING, DetailKind.MISMATCH, DetailKind.UNANALYZABLE}


@dataclass(frozen=True)
class MismatchDetail:
    kind: DetailKind
    symbol: str
    expected: str = ""
    actual: str = ""

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "symbol": self.symbol,
            "expected": self.expected,
            "actual": self.actual,
        }


@dataclass(frozen=True)
class AuditDelta:
    task_id: str
    kind: DeltaKind
    details: tuple[MismatchDetail, ...] = ()

    def to_dict(self) -> dict:
        return {
            "task": self.task_id,
            "kind": self.kind.value,
            "details": [d.to_dict() for d in self.details],
        }


@dataclass(frozen=True)
class TaskInjection:
    """A task the barrier created for a contract entry that had none."""

    path: str

    def to_dict(self) -> dict:
        return {"kind": "TaskInjection", "path": self.path}


@dataclass(frozen=True)
class StatusRegression:
    task_id: str
    reason: str

    def to_dict(self) -> dict:
        return {"kind": "StatusRegression", "task": self.task_id, "reason": self.reason}


@dataclass(frozen=True)
class SyncTask:
    task_id: str
    directive: str

    def to_dict(self) -> dict:
        return {"kind": "SyncTask", "task": self.task_id, "directive": self.directive}


@dataclass(frozen=True)
class ContractAmendment:
    """Schema additions written into the Symbolic API Specifications."""

    added_symbols: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "kind": "ContractAmendment",
            "section": SectionKey.API_SPECIFICATIONS.value,
            "op": ActionOp.UPDATE.value,
            "added_symbols": list(self.added_symbols),
        }


@dataclass(frozen=True)
class AuditReport:
    existence: float
    unmatched: tuple[str, ...]
    status_updates: tuple[tuple[str, str, str], ...]
    consistency: bool
    deltas: tuple[AuditDelta, ...]
    interventions: tuple
    accepted_artifacts: tuple[tuple[str, tuple[FileUnit, ...]], ...]
    contract_actions: tuple[tuple[str, ContractAction, ContractView], ...]  # (author, action, view shown)
    feedback: tuple[tuple[str, str], ...]
    warnings: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "existence": self.existence,
            "unmatched": list(self.unmatched),
            "status_updates": [list(u) for u in self.status_updates],
            "consistency": self.consistency,
            "deltas": [d.to_dict() for d in self.deltas],
            "interventions": [i.to_dict() for i in self.interventions],
            "accepted_artifacts": [
                {"task": task_id, "paths": [unit.path for unit in artifacts]}
                for task_id, artifacts in self.accepted_artifacts
            ],
            "contract_actions": [
                {"author": author, "section": action.section.value, "op": action.op.value}
                for author, action, _ in self.contract_actions
            ],
            "feedback": [list(f) for f in self.feedback],
            "warnings": list(self.warnings),
        }

    def sha256(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class DispatchOutcome:
    task_id: str
    role: RoleKind
    view: ContractView  # the contract lines the dispatch's prompt showed
    response: AgentResponse | None = None
    error: str = ""
    transport_failed: bool = False  # the backend raised, short of refusing the request


def _is_internal_name(name: str) -> bool:
    return name.startswith("_")


def code_classes(symbols: ExtractedSymbols) -> dict[str, ClassSpec]:
    """The class each name denotes in analyzed code: the first of that name in
    ``symbols.classes``. The walk that fills it is breadth-first, so a
    module-level class wins over a nested one of the same name. ``match``,
    ``compare_unit`` and the amendment all read classes through here."""
    classes: dict[str, ClassSpec] = {}
    for cls in symbols.classes:
        classes.setdefault(cls.name, cls)
    return classes


def match(task: Task, unit: FileUnit | None, entry: ApiSpecEntry) -> bool:
    """Physical alignment: file exists at the task's path, is non-empty, and
    defines every class the contract names for it (the hollow-skeleton guard)."""
    if unit is None:
        return False
    try:
        if normalize_path(unit.path) != task.id:
            return False
    except PathViolation:
        return False
    if not unit.body.strip():
        return False
    if entry.classes:
        symbols = analyze(unit)
        if symbols.unanalyzable:
            return False
        code = code_classes(symbols)
        for cls in entry.classes:
            extracted = code.get(cls.name)
            # A bare `class X: pass` counts as hollow when attributes or
            # methods are contracted for it.
            if extracted is None or (
                (cls.attributes or cls.methods) and not (extracted.attributes or extracted.methods)
            ):
                return False
    return True


def existence_check(
    contract: LanguageContract, files: dict[str, FileUnit]
) -> tuple[float, tuple[str, ...]]:
    """Fraction of tasks physically realized in the workspace, plus the misses."""
    kernel = project(contract)
    tasks = tasks_of(kernel)
    if not tasks:
        logger.warning("existence check over an empty task set; defining it as 1.0")
        return 1.0, ()
    unmatched = []
    for task in tasks:
        if not match(task, files.get(task.id), kernel.entries[task.id]):
            unmatched.append(task.id)
    fraction = (len(tasks) - len(unmatched)) / len(tasks)
    return fraction, tuple(unmatched)


def compare_unit(entry: ApiSpecEntry, unit: FileUnit) -> list[MismatchDetail]:
    """Definition-side comparison of one file against its contract entry."""
    symbols = analyze(unit)
    if symbols.unanalyzable:
        return [MismatchDetail(DetailKind.UNANALYZABLE, entry.file_path, actual="unanalyzable")]
    details: list[MismatchDetail] = []
    extracted_by_name = code_classes(symbols)

    for cls in entry.classes:
        extracted = extracted_by_name.get(cls.name)
        if extracted is None:
            details.append(MismatchDetail(DetailKind.MISSING, cls.name, expected="class"))
            continue
        details += _member_details(cls, extracted)

    declared_class_names = {c.name for c in entry.classes}
    for name, extracted in extracted_by_name.items():
        if name not in declared_class_names and not _is_internal_name(name):
            details.append(MismatchDetail(DetailKind.EXTRA, name, actual="class"))

    details.sort(key=lambda d: (d.kind.value, d.symbol))
    return details


def _member_details(declared: ClassSpec, found: ClassSpec) -> list[MismatchDetail]:
    """MISSING, MISMATCH and EXTRA details of a class's members, each read as
    its canonical text: an attribute's type, a method's signature. An
    unannotated attribute ("any") only proves presence, and a declared "any"
    accepts every annotation."""
    details = []
    for texts in (
        lambda cls: {a.name: a.type_name for a in cls.attributes},
        lambda cls: {m.name: m.text for m in cls.methods},
    ):
        expected_texts, found_texts = texts(declared), texts(found)
        for name, expected in expected_texts.items():
            actual = found_texts.get(name)
            if actual is None:
                details.append(MismatchDetail(DetailKind.MISSING, f"{declared.name}.{name}", expected=expected))
            elif "any" not in (expected, actual) and actual != expected:
                details.append(MismatchDetail(DetailKind.MISMATCH, f"{declared.name}.{name}", expected, actual))
        for name, actual in found_texts.items():
            if name not in expected_texts and not _is_internal_name(name):
                details.append(MismatchDetail(DetailKind.EXTRA, f"{declared.name}.{name}", actual=actual))
    return details


def demand_details(kernel: SymbolicKernel, unit: FileUnit) -> list[MismatchDetail]:
    """Attributes a file reads off a contracted peer class that the contract
    does not declare: the demand side of a schema divergence. A receiver is
    a contracted class only where it is a parameter annotated with it that
    its def never rebinds; a read through any other name demands nothing."""
    symbols = analyze(unit)
    if symbols.unanalyzable:
        return []
    details: list[MismatchDetail] = []
    seen: set[str] = set()
    for receiver_type, attr in symbols.attribute_uses:
        target = type_head(receiver_type)
        if _is_internal_name(attr) or target not in kernel.classes or _class_declares(kernel.classes[target][1], attr):
            continue
        symbol = f"{target}.{attr}"
        if symbol in seen:
            continue
        seen.add(symbol)
        details.append(MismatchDetail(DetailKind.DEMANDED, symbol))
    details.sort(key=lambda d: d.symbol)
    return details


def _class_declares(cls: ClassSpec, name: str) -> bool:
    return any(member.name == name for member in (*cls.attributes, *cls.methods))


def classify(details: list[MismatchDetail]) -> DeltaKind:
    if any(d.kind in _CRITICAL_KINDS for d in details):
        return DeltaKind.CRITICAL
    if details:
        return DeltaKind.PATCHABLE
    return DeltaKind.EMPTY


def consistency_check(
    contract: LanguageContract, files: dict[str, FileUnit]
) -> tuple[bool, tuple[AuditDelta, ...]]:
    """Signature alignment between the contract and the workspace, per task,
    classified like ``audit_layer``: definitions and peer demands."""
    kernel = project(contract)
    deltas: list[AuditDelta] = []
    for task_id, entry in sorted(kernel.entries.items()):
        unit = files.get(task_id)
        if unit is None:
            continue
        details = compare_unit(entry, unit) + demand_details(kernel, unit)
        deltas.append(AuditDelta(task_id=task_id, kind=classify(details), details=tuple(details)))
    ok = all(d.kind is DeltaKind.EMPTY for d in deltas)
    return ok, tuple(deltas)


def sync_statuses(
    tasks: dict[str, Task], outcomes: list[DispatchOutcome]
) -> tuple[list[tuple[str, TaskStatus, TaskStatus]], list[tuple[str, str]], list[str]]:
    """Planned status moves from critic verdicts alone (worker moves depend on
    the delta classification and are planned by ``audit_layer``)."""
    updates: list[tuple[str, TaskStatus, TaskStatus]] = []
    feedback: list[tuple[str, str]] = []
    warnings: list[str] = []
    for outcome in sorted(outcomes, key=lambda o: o.task_id):
        if outcome.role is not RoleKind.CRITIC or outcome.task_id not in tasks:
            continue
        if outcome.error or outcome.response is None:
            warnings.append(f"critic for {outcome.task_id} failed: {outcome.error or 'no response'}")
            feedback.append((outcome.task_id, f"critic dispatch failed: {outcome.error or 'no response'}"))
            continue
        verdict = outcome.response.verdict
        if verdict is None:
            warnings.append(f"critic for {outcome.task_id} produced no verdict; status unchanged")
            continue
        if verdict.passed:
            updates.append((outcome.task_id, TaskStatus.DONE, TaskStatus.VERIFIED))
        else:
            updates.append((outcome.task_id, TaskStatus.DONE, TaskStatus.ERROR))
            feedback.append((outcome.task_id, verdict.reason or "critic rejected the implementation"))
    return updates, feedback, warnings


def _amended_entries(
    kernel: SymbolicKernel, deltas: dict[str, tuple[MismatchDetail, ...]], artifacts: dict[str, tuple[FileUnit, ...]]
) -> tuple[list[ApiSpecEntry], list[str]]:
    """The kernel's entries with the EXTRA/DEMANDED details of ``deltas``
    recorded as read from the audited code, each amended entry one version
    up, and the symbols recorded."""
    attributes: dict[str, list[AttributeSpec]] = {}  # class name -> recorded members
    methods: dict[str, list[MethodSig]] = {}
    classes: dict[str, list[ClassSpec]] = {}  # module id -> recorded classes
    symbols: list[str] = []
    for task_id in sorted(deltas):
        # The same class per name that compare_unit compared, read off the
        # audited unit: the last at the task's own path.
        own = next(unit for unit in reversed(artifacts[task_id]) if unit.path == task_id)
        code = {name: _recorded_class(c, task_id) for name, c in code_classes(analyze(own)).items()}
        for detail in deltas[task_id]:
            if detail.symbol in symbols:
                continue
            if detail.kind is DetailKind.DEMANDED:
                cls_name, attr = detail.symbol.split(".", 1)
                attributes.setdefault(cls_name, []).append(
                    AttributeSpec(name=attr, type_name="any", description=f"required by {task_id}")
                )
            elif "." in detail.symbol:
                cls_name, member = detail.symbol.split(".", 1)
                recorded = methods if detail.actual.startswith("def ") else attributes
                items = code[cls_name].methods if recorded is methods else code[cls_name].attributes
                recorded.setdefault(cls_name, []).append(next(i for i in items if i.name == member))
            else:
                classes.setdefault(task_id, []).append(code[detail.symbol])
            symbols.append(detail.symbol)

    entries: list[ApiSpecEntry] = []
    for module_id, entry in kernel.entries.items():
        amended = [
            ClassSpec(
                cls.name,
                cls.attributes + tuple(attributes.get(cls.name, ())),
                cls.methods + tuple(methods.get(cls.name, ())),
            )
            for cls in entry.classes
        ]
        amended += classes.get(module_id, [])
        version = entry.version + 1 if tuple(amended) != entry.classes else entry.version
        entries.append(replace(entry, version=version, classes=tuple(amended)))
    return entries, symbols


def _recorded_class(cls: ClassSpec, module_id: str) -> ClassSpec:
    """A class read from code, as the contract records it: public members
    only, each attributed to the file it came from."""
    return ClassSpec(
        name=cls.name,
        attributes=tuple(
            replace(a, description=f"observed in {module_id}")
            for a in cls.attributes
            if not _is_internal_name(a.name)
        ),
        methods=tuple(
            replace(m, docstring=f"recorded from {module_id}")
            for m in cls.methods
            if not _is_internal_name(m.name)
        ),
    )


def _repair_directive(missing: dict[str, list[str]]) -> str:
    parts = []
    for cls_name in sorted(missing):
        members = ", ".join(sorted(missing[cls_name]))
        parts.append(f"Fix the schema definition; {cls_name} requires {members}")
    return ". ".join(parts) + "."


def audit_layer(
    contract: LanguageContract,
    files: dict[str, FileUnit],
    tasks: dict[str, Task],
    outcomes: list[DispatchOutcome],
) -> AuditReport:
    """Classify one layer's outputs and plan every intervention.

    Pure: identical inputs produce identical reports. The scheduler commits
    the accepted units, the values audited here, and applies the status
    updates and contract actions at the barrier. Each contract action is
    ``(author, action, view)``: an agent action carries the view of its
    dispatch (``DispatchOutcome.view``); the auditor's write-back (the amended
    contract's entries, stamped with the planned statuses) carries
    ``full_view(contract)``.
    """
    kernel = project(contract)
    feedback: list[tuple[str, str]] = []
    warnings: list[str] = []

    artifacts, deltas = _read_worker_artifacts(kernel, tasks, outcomes, feedback)
    amended, symbols = _try_amendment(contract, kernel, artifacts, deltas, warnings)
    updates = _plan_worker_moves(tasks, deltas, feedback)
    accepted = {task_id: artifacts[task_id] for task_id, d in deltas.items() if d.kind is not DeltaKind.CRITICAL}

    # Critic verdicts: a rejected implementation regresses with the critic's note as its reason.
    critic_updates, critic_feedback, critic_warnings = sync_statuses(tasks, outcomes)
    reasons = dict(critic_feedback)
    regressions = [StatusRegression(t, reasons[t]) for t, _, new in critic_updates if new is TaskStatus.ERROR]
    updates += critic_updates
    feedback += critic_feedback
    warnings += critic_warnings

    committed = dict(files)
    for units in accepted.values():
        committed.update((unit.path, unit) for unit in units)
    sync_tasks = _sync_after_amendment(amended, tasks, deltas, committed, updates, feedback, warnings)

    # Structural existence over the post-commit view, against the amended contract.
    existence, unmatched = existence_check(amended, committed)

    interventions: list = [ContractAmendment(added_symbols=tuple(symbols))] if symbols else []
    interventions += regressions + sync_tasks

    return AuditReport(
        existence=existence,
        unmatched=unmatched,
        status_updates=tuple((t, old.value, new.value) for t, old, new in updates),
        consistency=all(d.kind is DeltaKind.EMPTY for d in deltas.values()) and not sync_tasks,
        deltas=tuple(deltas.values()),
        interventions=tuple(interventions),
        accepted_artifacts=tuple(accepted.items()),
        contract_actions=_write_back(contract, amended, _planned_statuses(tasks, updates), outcomes, deltas),
        feedback=tuple(feedback),
        warnings=tuple(warnings),
    )


def _read_worker_artifacts(
    kernel: SymbolicKernel,
    tasks: dict[str, Task],
    outcomes: list[DispatchOutcome],
    feedback: list[tuple[str, str]],
) -> tuple[dict[str, tuple[FileUnit, ...]], dict[str, AuditDelta]]:
    """Each answered worker's artifacts and the delta of its own file, or feedback."""
    artifacts: dict[str, tuple[FileUnit, ...]] = {}
    deltas: dict[str, AuditDelta] = {}
    for outcome in sorted(outcomes, key=lambda o: o.task_id):
        task_id = outcome.task_id
        if outcome.role is not RoleKind.WORKER or task_id not in tasks:
            continue
        if outcome.error or outcome.response is None:
            feedback.append((task_id, f"worker dispatch failed: {outcome.error or 'no response'}"))
            continue
        units, own = [], None
        for path, body in outcome.response.artifacts:
            try:
                normalized = normalize_path(path)
            except PathViolation as exc:
                feedback.append((task_id, f"artifact dropped: {exc}"))
                continue
            if normalized != task_id and normalized in tasks:
                # A peer task's file is written only by the peer's audited body.
                feedback.append((task_id, f"artifact dropped: {normalized} is another task's file"))
                continue
            units.append(FileUnit(normalized, body))
            if normalized == task_id:
                own = units[-1]
        if own is None:
            feedback.append((task_id, f"worker produced no artifact for {task_id}"))
            continue
        artifacts[task_id] = tuple(units)
        entry = kernel.entries.get(task_id)
        details = (compare_unit(entry, own) if entry is not None else []) + demand_details(kernel, own)
        deltas[task_id] = AuditDelta(task_id, classify(details), tuple(details))
    return artifacts, deltas


def _try_amendment(
    contract: LanguageContract,
    kernel: SymbolicKernel,
    artifacts: dict[str, tuple[FileUnit, ...]],
    deltas: dict[str, AuditDelta],
    warnings: list[str],
) -> tuple[LanguageContract, list[str]]:
    """The contract amended under the guard to legitimize every PATCHABLE
    superset, and the symbols recorded; a refused one makes each CRITICAL."""
    patchable = {task_id: d.details for task_id, d in deltas.items() if d.kind is DeltaKind.PATCHABLE}
    entries, symbols = _amended_entries(kernel, patchable, artifacts)
    if not symbols:
        return contract, symbols
    trial = apply_action(
        contract,
        ContractAction(ActionOp.UPDATE, SectionKey.API_SPECIFICATIONS, "\n".join(print_api_section(entries))),
        guard=guard_violations,
    )
    if not isinstance(trial, Rejection):
        return trial, symbols
    warnings.append(f"amendment rejected: {trial}")
    for task_id in sorted(patchable):
        refused = MismatchDetail(DetailKind.MISMATCH, task_id, expected="amendable superset", actual=str(trial.reason))
        deltas[task_id] = AuditDelta(task_id, DeltaKind.CRITICAL, patchable[task_id] + (refused,))
    return contract, []


def _plan_worker_moves(
    tasks: dict[str, Task], deltas: dict[str, AuditDelta], feedback: list[tuple[str, str]]
) -> list[tuple[str, TaskStatus, TaskStatus]]:
    """A worker whose artifacts are accepted moves its task to DONE. A CRITICAL
    artifact is rejected with one note per detail, but it still consumed a
    worker pass: a TODO task lands on ERROR via the legal TODO -> DONE -> ERROR
    path."""
    updates: list[tuple[str, TaskStatus, TaskStatus]] = []
    for task_id, delta in deltas.items():
        status = tasks[task_id].status
        if delta.kind is DeltaKind.CRITICAL:
            feedback.extend((task_id, _describe_detail(detail)) for detail in delta.details)
            if status is TaskStatus.TODO:
                updates += [(task_id, TaskStatus.TODO, TaskStatus.DONE), (task_id, TaskStatus.DONE, TaskStatus.ERROR)]
        elif status in (TaskStatus.TODO, TaskStatus.ERROR):
            updates.append((task_id, status, TaskStatus.DONE))
    return updates


def _planned_statuses(
    tasks: dict[str, Task], updates: list[tuple[str, TaskStatus, TaskStatus]]
) -> dict[str, TaskStatus]:
    """Each task's status once ``updates`` are applied."""
    return {**{task_id: task.status for task_id, task in tasks.items()}, **{t: new for t, _, new in updates}}


def _sync_after_amendment(
    amended: LanguageContract,
    tasks: dict[str, Task],
    deltas: dict[str, AuditDelta],
    committed: dict[str, FileUnit],
    updates: list[tuple[str, TaskStatus, TaskStatus]],
    feedback: list[tuple[str, str]],
    warnings: list[str],
) -> list[SyncTask]:
    """A committed file that misses members of the (possibly amended) schema
    compels a repair: its DONE task regresses to ERROR with a directive."""
    statuses = _planned_statuses(tasks, updates)
    entries = project(amended).entries
    sync_tasks: list[SyncTask] = []
    for task_id in sorted(tasks):
        if task_id in deltas and deltas[task_id].kind is DeltaKind.CRITICAL:
            continue
        unit, entry = committed.get(task_id), entries.get(task_id)
        if unit is None or entry is None:
            continue
        missing_members: dict[str, list[str]] = {}
        for detail in compare_unit(entry, unit):
            if detail.kind is DetailKind.MISSING and "." in detail.symbol:
                cls_name, member = detail.symbol.split(".", 1)
                missing_members.setdefault(cls_name, []).append(member)
        if not missing_members:
            continue
        if statuses[task_id] is TaskStatus.VERIFIED:
            warnings.append(f"{task_id} is already verified but misses amended symbols; no automatic cascade")
            continue
        directive = _repair_directive(missing_members)
        if statuses[task_id] is TaskStatus.DONE:
            updates.append((task_id, TaskStatus.DONE, TaskStatus.ERROR))
        feedback.append((task_id, directive))
        sync_tasks.append(SyncTask(task_id=task_id, directive=directive))
    return sync_tasks


def _write_back(
    contract: LanguageContract,
    amended: LanguageContract,
    statuses: dict[str, TaskStatus],
    outcomes: list[DispatchOutcome],
    deltas: dict[str, AuditDelta],
) -> tuple[tuple[str, ContractAction, ContractView], ...]:
    """The write-back of the amended entries and planned statuses, then each
    agent action with its view, unless its artifact was rejected outright."""
    actions: list[tuple[str, ContractAction, ContractView]] = []
    entries = project(amended).entries.values()
    body = print_api_section([replace(e, status=statuses.get(e.file_path, e.status)) for e in entries])
    if tuple(body) != contract.body(SectionKey.API_SPECIFICATIONS):
        write_back = ContractAction(ActionOp.UPDATE, SectionKey.API_SPECIFICATIONS, "\n".join(body))
        actions.append((AUDITOR_AUTHOR, write_back, full_view(contract)))
    for outcome in sorted(outcomes, key=lambda o: o.task_id):
        delta = deltas.get(outcome.task_id)
        if outcome.response is None or (delta is not None and delta.kind is DeltaKind.CRITICAL):
            continue
        actions.extend((outcome.task_id, action, outcome.view) for action in outcome.response.actions)
    return tuple(actions)


def _describe_detail(detail: MismatchDetail) -> str:
    if detail.kind is DetailKind.MISSING:
        return f"missing contracted symbol {detail.symbol} (expected {detail.expected})"
    if detail.kind is DetailKind.MISMATCH:
        return (
            f"signature drift on {detail.symbol}: contract says {detail.expected!r}, "
            f"implementation says {detail.actual!r}"
        )
    if detail.kind is DetailKind.UNANALYZABLE:
        return f"{detail.symbol} could not be analyzed"
    return f"{detail.kind.value.lower()} symbol {detail.symbol}"

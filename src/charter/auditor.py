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
  recorded as they were read from the audited body.

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

``audit_layer`` is a pure function of its inputs; the scheduler applies the
returned effects at the barrier. Each document action it returns carries the
view its author was shown, which the barrier re-anchors it through.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass, field, replace
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
    print_signature,
    project,
    tasks_of,
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
    injected_tasks: tuple[tuple[str, str], ...]  # (path, owner)
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
            "injected_tasks": [list(t) for t in self.injected_tasks],
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
        declared_attrs = {a.name: a for a in cls.attributes}
        extracted_attrs = {a.name: a.type_name for a in extracted.attributes}
        for name, attr in declared_attrs.items():
            if name not in extracted_attrs:
                details.append(
                    MismatchDetail(
                        DetailKind.MISSING, f"{cls.name}.{name}", expected=attr.type_name
                    )
                )
            else:
                actual_type = extracted_attrs[name]
                # Unannotated assignments only prove presence, and a declared
                # "any" accepts every annotation.
                if actual_type != "any" and attr.type_name != "any" and actual_type != attr.type_name:
                    details.append(
                        MismatchDetail(
                            DetailKind.MISMATCH,
                            f"{cls.name}.{name}",
                            expected=attr.type_name,
                            actual=actual_type,
                        )
                    )
        for name, actual_type in extracted_attrs.items():
            if name not in declared_attrs and not _is_internal_name(name):
                details.append(
                    MismatchDetail(DetailKind.EXTRA, f"{cls.name}.{name}", actual=actual_type)
                )

        declared_methods = {m.name: m for m in cls.methods}
        extracted_methods = {m.name: m for m in extracted.methods}
        for name, sig in declared_methods.items():
            got = extracted_methods.get(name)
            if got is None:
                details.append(
                    MismatchDetail(
                        DetailKind.MISSING, f"{cls.name}.{name}", expected=print_signature(sig)
                    )
                )
            elif (got.params, got.return_type) != (sig.params, sig.return_type):
                details.append(
                    MismatchDetail(
                        DetailKind.MISMATCH,
                        f"{cls.name}.{name}",
                        expected=print_signature(sig),
                        actual=print_signature(got),
                    )
                )
        for name in extracted_methods:
            if name not in declared_methods and not _is_internal_name(name):
                details.append(
                    MismatchDetail(
                        DetailKind.EXTRA,
                        f"{cls.name}.{name}",
                        actual=print_signature(extracted_methods[name]),
                    )
                )

    declared_class_names = {c.name for c in entry.classes}
    for name, extracted in extracted_by_name.items():
        if name not in declared_class_names and not _is_internal_name(name):
            details.append(MismatchDetail(DetailKind.EXTRA, name, actual="class"))

    details.sort(key=lambda d: (d.kind.value, d.symbol))
    return details


def demand_details(kernel: SymbolicKernel, unit: FileUnit) -> list[MismatchDetail]:
    """Attributes a file reads off a contracted peer class that the contract
    does not declare: the demand side of a schema divergence."""
    symbols = analyze(unit)
    if symbols.unanalyzable:
        return []
    by_lower = kernel.classes_by_lower

    receiver_types: dict[str, set[str]] = {}
    for method in [m for c in symbols.classes for m in c.methods] + list(symbols.functions):
        for pname, ptype in method.params:
            head = ptype.split("[")[0].strip()
            if head in kernel.classes:
                receiver_types.setdefault(pname, set()).add(head)

    details: list[MismatchDetail] = []
    seen: set[str] = set()
    for receiver, attr in symbols.attribute_uses:
        if _is_internal_name(attr):
            continue
        candidates = receiver_types.get(receiver, set())
        if not candidates and receiver.lower() in by_lower:
            candidates = {by_lower[receiver.lower()]}
        if not candidates:
            continue
        if any(_class_declares(kernel.classes[c][1], attr) for c in candidates):
            continue
        target = sorted(candidates)[0]
        symbol = f"{target}.{attr}"
        if symbol in seen:
            continue
        seen.add(symbol)
        details.append(MismatchDetail(DetailKind.DEMANDED, symbol))
    details.sort(key=lambda d: d.symbol)
    return details


def _class_declares(cls: ClassSpec, name: str) -> bool:
    return any(a.name == name for a in cls.attributes) or any(
        m.name == name for m in cls.methods
    )


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
        if outcome.role is not RoleKind.CRITIC:
            continue
        task = tasks.get(outcome.task_id)
        if task is None:
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


@dataclass
class SchemaAdditions:
    """Accumulated superset legitimizations for one amendment."""

    members: dict[str, list[AttributeSpec | MethodSig]] = field(default_factory=dict)
    classes: dict[str, list[ClassSpec]] = field(default_factory=dict)  # module id -> new classes
    symbols: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return bool(self.members or self.classes)


def _schema_additions(
    deltas: dict[str, list[MismatchDetail]], units: dict[str, FileUnit]
) -> SchemaAdditions:
    """Turn EXTRA/DEMANDED details into schema additions. Every detail names a
    class of the kernel it was computed against; recorded members and classes
    are read off the analysis of ``units[task_id]``, the unit audited for that
    task."""
    out = SchemaAdditions()
    for task_id in sorted(deltas):
        # The same class per name that compare_unit compared.
        code = {name: _recorded_class(c, task_id) for name, c in code_classes(analyze(units[task_id])).items()}
        for detail in deltas[task_id]:
            if detail.symbol in out.symbols:
                continue
            if detail.kind is DetailKind.DEMANDED:
                cls_name, attr = detail.symbol.split(".", 1)
                out.members.setdefault(cls_name, []).append(
                    AttributeSpec(name=attr, type_name="any", description=f"required by {task_id}")
                )
            elif "." in detail.symbol:
                cls_name, member = detail.symbol.split(".", 1)
                cls = code[cls_name]
                items = cls.methods if detail.actual.startswith("def ") else cls.attributes
                out.members.setdefault(cls_name, []).append(next(i for i in items if i.name == member))
            else:
                out.classes.setdefault(task_id, []).append(code[detail.symbol])
            out.symbols.append(detail.symbol)
    return out


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


def amended_entries(kernel: SymbolicKernel, additions: SchemaAdditions) -> list[ApiSpecEntry]:
    """Rebuild the entry list with schema additions folded in; amended entries
    get a version bump."""
    out: list[ApiSpecEntry] = []
    for module_id, entry in kernel.entries.items():
        classes = []
        amended = False
        for cls in entry.classes:
            extra = additions.members.get(cls.name, [])
            new_attrs = list(cls.attributes)
            new_methods = list(cls.methods)
            for item in extra:
                if isinstance(item, AttributeSpec):
                    new_attrs.append(item)
                else:
                    new_methods.append(item)
                amended = True
            classes.append(
                ClassSpec(name=cls.name, attributes=tuple(new_attrs), methods=tuple(new_methods))
            )
        for new_class in additions.classes.get(module_id, []):
            classes.append(new_class)
            amended = True
        out.append(replace(entry, version=entry.version + 1 if amended else entry.version, classes=tuple(classes)))
    return out


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
    updates, contract actions and task injections at the barrier. Each
    contract action is ``(author, action, view)``: a ride-along agent action
    carries the view of its dispatch (``DispatchOutcome.view``), and the
    auditor's own Status/amendment write-back carries ``full_view(contract)``.
    The write-back prints one entry list: ``amended_entries`` once, tried
    through ``apply_action`` under the guard, and stamped with the planned
    statuses.
    """
    kernel = project(contract)

    feedback: list[tuple[str, str]] = []
    warnings: list[str] = []
    worker_details: dict[str, list[MismatchDetail]] = {}
    worker_units: dict[str, FileUnit] = {}
    worker_artifacts: dict[str, tuple[FileUnit, ...]] = {}

    for outcome in sorted(outcomes, key=lambda o: o.task_id):
        if outcome.role is not RoleKind.WORKER:
            continue
        task = tasks.get(outcome.task_id)
        if task is None:
            continue
        if outcome.error or outcome.response is None:
            feedback.append((outcome.task_id, f"worker dispatch failed: {outcome.error or 'no response'}"))
            continue
        artifacts = []
        own: FileUnit | None = None
        for path, body in outcome.response.artifacts:
            try:
                normalized = normalize_path(path)
            except PathViolation as exc:
                feedback.append((outcome.task_id, f"artifact dropped: {exc}"))
                continue
            if normalized != outcome.task_id and normalized in tasks:
                # A peer task's file is written only by the peer's audited body.
                feedback.append((outcome.task_id, f"artifact dropped: {normalized} is another task's file"))
                continue
            unit = FileUnit(normalized, body)
            artifacts.append(unit)
            if normalized == outcome.task_id:
                own = unit
        if own is None:
            feedback.append((outcome.task_id, f"worker produced no artifact for {task.id}"))
            continue
        worker_artifacts[outcome.task_id] = tuple(artifacts)
        entry = kernel.entries.get(outcome.task_id)
        worker_units[outcome.task_id] = own
        details = compare_unit(entry, own) if entry is not None else []
        details.extend(demand_details(kernel, own))
        worker_details[outcome.task_id] = details

    # Tentative amendment from every patchable superset.
    patchable_ids = {
        task_id
        for task_id, details in worker_details.items()
        if classify(details) is DeltaKind.PATCHABLE
    }
    additions = _schema_additions({tid: worker_details[tid] for tid in patchable_ids}, worker_units)

    entries = amended_entries(kernel, additions)
    amended_contract = contract
    if additions:
        trial = apply_action(
            contract,
            ContractAction(ActionOp.UPDATE, SectionKey.API_SPECIFICATIONS, "\n".join(print_api_section(entries))),
            guard=guard_violations,
        )
        if isinstance(trial, Rejection):
            # The superset cannot be legitimized; reject the contributing
            # artifacts instead of polluting the kernel.
            warnings.append(f"amendment rejected: {trial}")
            for task_id in sorted(patchable_ids):
                worker_details[task_id] = worker_details[task_id] + [
                    MismatchDetail(
                        DetailKind.MISMATCH,
                        task_id,
                        expected="amendable superset",
                        actual=str(trial.reason),
                    )
                ]
            entries = list(kernel.entries.values())
            additions = SchemaAdditions()
        else:
            amended_contract = trial

    deltas: dict[str, AuditDelta] = {}
    for task_id in sorted(worker_details):
        details = worker_details[task_id]
        deltas[task_id] = AuditDelta(
            task_id=task_id, kind=classify(details), details=tuple(details)
        )

    # Plan worker status moves. A rejected artifact still consumed a worker
    # pass: the task lands on ERROR via the legal TODO -> DONE -> ERROR path.
    status_updates: list[tuple[str, TaskStatus, TaskStatus]] = []
    accepted: dict[str, tuple[FileUnit, ...]] = {}
    statuses = {task_id: task.status for task_id, task in tasks.items()}

    for task_id, delta in sorted(deltas.items()):
        task = tasks[task_id]
        if delta.kind is DeltaKind.CRITICAL:
            for detail in delta.details:
                feedback.append((task_id, _describe_detail(detail)))
            if task.status is TaskStatus.TODO:
                status_updates.append((task_id, TaskStatus.TODO, TaskStatus.DONE))
                status_updates.append((task_id, TaskStatus.DONE, TaskStatus.ERROR))
            statuses[task_id] = TaskStatus.ERROR
        else:
            accepted[task_id] = worker_artifacts[task_id]
            if task.status is TaskStatus.TODO:
                status_updates.append((task_id, TaskStatus.TODO, TaskStatus.DONE))
            elif task.status is TaskStatus.ERROR:
                status_updates.append((task_id, TaskStatus.ERROR, TaskStatus.DONE))
            statuses[task_id] = TaskStatus.DONE

    # Critic verdicts.
    critic_updates, critic_feedback, critic_warnings = sync_statuses(tasks, outcomes)
    regressions: list[StatusRegression] = []
    for task_id, old, new in critic_updates:
        status_updates.append((task_id, old, new))
        statuses[task_id] = new
        if new is TaskStatus.ERROR:
            reason = next((note for tid, note in critic_feedback if tid == task_id), "")
            regressions.append(StatusRegression(task_id=task_id, reason=reason))
    feedback.extend(critic_feedback)
    warnings.extend(critic_warnings)

    # Post-amendment synchronization: committed files that no longer satisfy
    # the (possibly amended) schema compel a repair round.
    committed = dict(files)
    for artifacts in accepted.values():
        committed.update((unit.path, unit) for unit in artifacts)

    sync_tasks: list[SyncTask] = []
    amended_by_id = project(amended_contract).entries
    for task_id in sorted(tasks):
        if task_id in deltas and deltas[task_id].kind is DeltaKind.CRITICAL:
            continue
        unit = committed.get(task_id)
        entry = amended_by_id.get(task_id)
        if unit is None or entry is None:
            continue
        missing_members: dict[str, list[str]] = {}
        for detail in compare_unit(entry, unit):
            if detail.kind is DetailKind.MISSING and "." in detail.symbol:
                cls_name, member = detail.symbol.split(".", 1)
                missing_members.setdefault(cls_name, []).append(member)
        if not missing_members:
            continue
        current = statuses.get(task_id)
        if current is TaskStatus.VERIFIED:
            warnings.append(
                f"{task_id} is already verified but misses amended symbols; no automatic cascade"
            )
            continue
        directive = _repair_directive(missing_members)
        if current is TaskStatus.DONE:
            status_updates.append((task_id, TaskStatus.DONE, TaskStatus.ERROR))
            statuses[task_id] = TaskStatus.ERROR
        feedback.append((task_id, directive))
        sync_tasks.append(SyncTask(task_id=task_id, directive=directive))

    # Structural existence over the post-commit view, against the amended
    # contract. Every unmatched task is (re)injected as next-layer TODO work;
    # for contracted paths with no task yet the injection also creates one.
    existence, unmatched = existence_check(amended_contract, committed)
    injections: list[TaskInjection] = []
    injected: list[tuple[str, str]] = []
    missing_task_paths = [m for m in sorted(amended_by_id) if m not in tasks]
    for module_id in sorted(set(unmatched) | set(missing_task_paths)):
        injections.append(TaskInjection(path=module_id))
    for module_id in missing_task_paths:
        injected.append((module_id, amended_by_id[module_id].owner))

    # Write live statuses (and any schema additions) back into the document,
    # addressed to the whole contract.
    contract_actions: list[tuple[str, ContractAction, ContractView]] = []
    final_body = print_api_section([replace(e, status=statuses.get(e.file_path, e.status)) for e in entries])
    if tuple(final_body) != contract.body(SectionKey.API_SPECIFICATIONS):
        write_back = ContractAction(ActionOp.UPDATE, SectionKey.API_SPECIFICATIONS, "\n".join(final_body))
        contract_actions.append((AUDITOR_AUTHOR, write_back, full_view(contract)))

    # Agent-proposed document actions ride along, each with the view its
    # author was shown, unless their artifact was rejected outright.
    for outcome in sorted(outcomes, key=lambda o: o.task_id):
        if outcome.response is None:
            continue
        delta = deltas.get(outcome.task_id)
        if delta is not None and delta.kind is DeltaKind.CRITICAL:
            continue
        for action in outcome.response.actions:
            contract_actions.append((outcome.task_id, action, outcome.view))

    interventions: list = []
    if additions:
        interventions.append(ContractAmendment(added_symbols=tuple(additions.symbols)))
    interventions.extend(regressions)
    interventions.extend(sync_tasks)
    interventions.extend(injections)

    consistency_ok = all(d.kind is DeltaKind.EMPTY for d in deltas.values()) and not sync_tasks

    return AuditReport(
        existence=existence,
        unmatched=unmatched,
        status_updates=tuple((t, old.value, new.value) for t, old, new in status_updates),
        consistency=consistency_ok,
        deltas=tuple(deltas[t] for t in sorted(deltas)),
        interventions=tuple(interventions),
        accepted_artifacts=tuple((t, accepted[t]) for t in sorted(accepted)),
        contract_actions=tuple(contract_actions),
        feedback=tuple(feedback),
        injected_tasks=tuple(injected),
        warnings=tuple(warnings),
    )


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

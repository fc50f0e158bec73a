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

An amendment is tried through the merge and guarded commit every document
action takes; an amendment that would break the kernel is dropped and the
delta is downgraded to CRITICAL. After amending, every committed file is
re-checked: a file that no longer satisfies the amended schema gets a
synchronization task (status regressed to ERROR with a repair directive).

Every lookup is keyed by module path: a task id is a key of the kernel's
``entries`` and a workspace path, all spelled by ``kernel.normalize_path``.
In analyzed code, a class name denotes the class ``code_classes`` picks.

Every check reads ``FileUnit`` values and takes their analysis from
``workspace.analyze``, which keeps it on the unit; a unit also keeps its
last ``compare_unit`` result. The report carries the accepted units
themselves, and the workspace stores them, so a committed body is not
analyzed again in later layers, nor compared again with an entry whose
classes are the same objects. An amendment keeps the kernel's own entry and
class objects for everything it records nothing on.

``audit_layer`` is a pure function of its inputs, run as named steps that
move each task through one planned-status map and record feedback, warnings
and interventions in step order; the repair check, the existence check and
the write-back read the entries the amendment step placed. An intervention
is built once, where it is planned, as the record the ledger writes: a dict
whose ``kind`` is ``ContractAmendment``, ``StatusRegression`` or
``SyncTask``.
``scheduler.barrier`` applies the returned effects and creates tasks. Each
agent's document action it returns carries the view its author was shown,
which the barrier re-anchors it through; the write-back is only patches,
placed here in the snapshot: one per moved Status line and a diff of each
amended entry. The amendment is tried with the calls that commit it, so a
refusal here is the refusal the barrier's commit would meet.
"""

from __future__ import annotations

import hashlib
import json
import logging
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from enum import Enum

from .agents import AgentResponse, RoleKind
from .contract import ActionOp, ContractAction, LanguageContract, SectionKey
from .kernel import (
    ApiSpecEntry,
    AttributeSpec,
    ClassSpec,
    ContractView,
    MethodSig,
    PathViolation,
    SymbolicKernel,
    normalize_path,
    print_api_section,
    print_status,
    project,
    type_head,
)
from .patches import AtomicPatch, KernelViolation, commit_merge, diff_against_base, merge_layer
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
class AuditReport:
    existence: float
    unmatched: tuple[str, ...]
    status_updates: tuple[tuple[str, str, str], ...]
    consistency: bool
    deltas: tuple[AuditDelta, ...]
    interventions: tuple[dict, ...]  # each the record the ledger writes, keyed by "kind"
    accepted_artifacts: tuple[tuple[str, tuple[FileUnit, ...]], ...]
    write_back: tuple[AtomicPatch, ...]  # the amended entries and planned statuses, placed in the snapshot
    contract_actions: tuple[tuple[str, ContractAction, ContractView], ...]  # agents' (author, action, view shown)
    feedback: tuple[tuple[str, str], ...]
    warnings: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        journaled = [(author, action.section, action.op) for author, action, _ in self.contract_actions]
        if self.write_back:
            journaled.insert(0, (AUDITOR_AUTHOR, SectionKey.API_SPECIFICATIONS, ActionOp.UPDATE))
        return {
            "existence": self.existence,
            "unmatched": list(self.unmatched),
            "status_updates": [list(u) for u in self.status_updates],
            "consistency": self.consistency,
            "deltas": [d.to_dict() for d in self.deltas],
            "interventions": list(self.interventions),
            "accepted_artifacts": [
                {"task": task_id, "paths": [unit.path for unit in artifacts]}
                for task_id, artifacts in self.accepted_artifacts
            ],
            "contract_actions": [
                {"author": author, "section": section.value, "op": op.value}
                for author, section, op in journaled
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
    ``symbols.classes``, which is in ``ast.walk``'s breadth-first order, so a
    module-level class wins over a nested one of the same name. ``match``,
    ``compare_unit`` and the amendment all read classes through here."""
    classes: dict[str, ClassSpec] = {}
    for cls in symbols.classes:
        classes.setdefault(cls.name, cls)
    return classes


def match(unit: FileUnit | None, entry: ApiSpecEntry) -> bool:
    """Physical alignment: a file exists at the entry's path, is non-empty, and
    defines every class the entry names (the hollow-skeleton guard)."""
    if unit is None:
        return False
    try:
        if normalize_path(unit.path) != entry.file_path:
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


def existence_check(entries: Mapping[str, ApiSpecEntry], files: dict[str, FileUnit]) -> tuple[float, tuple[str, ...]]:
    """Fraction of a kernel's entries (path -> entry) physically realized in
    the workspace, plus the paths that are not, in path order."""
    if not entries:
        logger.warning("existence check over a kernel without entries; defining it as 1.0")
        return 1.0, ()
    unmatched = tuple(path for path, entry in sorted(entries.items()) if not match(files.get(path), entry))
    return (len(entries) - len(unmatched)) / len(entries), unmatched


def compare_unit(entry: ApiSpecEntry, unit: FileUnit) -> list[MismatchDetail]:
    """Definition-side comparison of one file against its contract entry,
    sorted by kind and symbol.

    The result reads only the unit's analysis and the entry's ``classes``
    and ``file_path``, so the unit keeps its last comparison with them: a
    unit compared again with the same ``classes`` object and path, as a
    committed file is at every later barrier until its entry is amended,
    reads the kept details. Either way the caller gets a list of its own."""
    kept = unit._compared
    if kept is not None and kept[0] is entry.classes and kept[1] == entry.file_path:
        return list(kept[2])
    details = _compare(entry, unit)
    object.__setattr__(unit, "_compared", (entry.classes, entry.file_path, tuple(details)))
    return details


def _compare(entry: ApiSpecEntry, unit: FileUnit) -> list[MismatchDetail]:
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


def _amended_entries(
    kernel: SymbolicKernel, deltas: dict[str, tuple[MismatchDetail, ...]], artifacts: dict[str, tuple[FileUnit, ...]]
) -> tuple[dict[str, ApiSpecEntry], list[str]]:
    """The kernel's entries (path -> entry) with the EXTRA/DEMANDED details
    of ``deltas`` recorded as read from the audited code, each amended entry
    one version up, and the symbols recorded. An entry, or a class, that
    records nothing is the kernel's own object."""
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

    grown = attributes.keys() | methods.keys()  # the classes that record a member
    entries: dict[str, ApiSpecEntry] = {}
    for module_id, entry in kernel.entries.items():
        added = tuple(classes.get(module_id, ()))
        if not added and not any(cls.name in grown for cls in entry.classes):
            entries[module_id] = entry  # kept whole: its comparisons still hold
            continue
        amended = tuple(
            ClassSpec(
                cls.name,
                cls.attributes + tuple(attributes.get(cls.name, ())),
                cls.methods + tuple(methods.get(cls.name, ())),
            )
            if cls.name in grown
            else cls
            for cls in entry.classes
        )
        entries[module_id] = replace(entry, version=entry.version + 1, classes=amended + added)
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


@dataclass
class _AuditPlan:
    """The one state the steps of a layer's audit write, in step order: each
    task's planned status, the ``(task, old, new)`` moves that led there, and
    the feedback, warnings and interventions the steps recorded."""

    statuses: dict[str, TaskStatus]
    moves: list[tuple[str, TaskStatus, TaskStatus]] = field(default_factory=list)
    feedback: list[tuple[str, str]] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    interventions: list[dict] = field(default_factory=list)

    def move(self, task_id: str, new: TaskStatus) -> None:
        self.moves.append((task_id, self.statuses[task_id], new))
        self.statuses[task_id] = new


def audit_layer(
    contract: LanguageContract,
    files: dict[str, FileUnit],
    tasks: dict[str, Task],
    outcomes: list[DispatchOutcome],
) -> AuditReport:
    """Classify one layer's outputs and plan every intervention.

    Pure: identical inputs produce identical reports. Every step writes one
    ``_AuditPlan``; the sync, the existence check and the write-back read the
    entries the amendment step placed for its guarded trial. The scheduler
    commits the accepted units, the values audited here, and applies the
    status moves and document actions at the barrier. Each agent action is
    ``(author, action, view)`` and carries the view of its dispatch
    (``DispatchOutcome.view``). The auditor's write-back (the amended entries,
    stamped with the planned statuses) is its ``AtomicPatch``es, placed here
    in the snapshot the layer read (``_write_back``), empty when no line
    moves; ``patches.commit_actions`` journals the UPDATE they make.
    """
    kernel = project(contract)
    plan = _AuditPlan({task_id: task.status for task_id, task in tasks.items()})

    artifacts, deltas = _read_worker_artifacts(kernel, outcomes, plan)
    entries = _try_amendment(contract, kernel, artifacts, deltas, plan)
    _plan_worker_moves(deltas, plan)
    _plan_critic_verdicts(outcomes, plan)
    accepted = {task_id: artifacts[task_id] for task_id, d in deltas.items() if d.kind is not DeltaKind.CRITICAL}

    committed = dict(files)
    for units in accepted.values():
        committed.update((unit.path, unit) for unit in units)
    _sync_after_amendment(entries, deltas, committed, plan)

    # Structural existence over the post-commit view, against the amended entries.
    existence, unmatched = existence_check(entries, committed)

    return AuditReport(
        existence=existence,
        unmatched=unmatched,
        status_updates=tuple((t, old.value, new.value) for t, old, new in plan.moves),
        consistency=all(d.kind is DeltaKind.EMPTY for d in deltas.values())
        and not any(i["kind"] == "SyncTask" for i in plan.interventions),
        deltas=tuple(deltas.values()),
        interventions=tuple(plan.interventions),
        accepted_artifacts=tuple(accepted.items()),
        write_back=_write_back(contract, entries, plan.statuses),
        contract_actions=_agent_actions(outcomes, deltas),
        feedback=tuple(plan.feedback),
        warnings=tuple(plan.warnings),
    )


def _read_worker_artifacts(
    kernel: SymbolicKernel, outcomes: list[DispatchOutcome], plan: _AuditPlan
) -> tuple[dict[str, tuple[FileUnit, ...]], dict[str, AuditDelta]]:
    """Each answered worker's artifacts and the delta of its own file, or feedback."""
    artifacts: dict[str, tuple[FileUnit, ...]] = {}
    deltas: dict[str, AuditDelta] = {}
    for outcome in sorted(outcomes, key=lambda o: o.task_id):
        task_id = outcome.task_id
        if outcome.role is not RoleKind.WORKER or task_id not in plan.statuses:
            continue
        if outcome.error or outcome.response is None:
            plan.feedback.append((task_id, f"worker dispatch failed: {outcome.error or 'no response'}"))
            continue
        units, own = [], None
        for path, body in outcome.response.artifacts:
            try:
                normalized = normalize_path(path)
            except PathViolation as exc:
                plan.feedback.append((task_id, f"artifact dropped: {exc}"))
                continue
            if normalized != task_id and normalized in plan.statuses:
                # A peer task's file is written only by the peer's audited body.
                plan.feedback.append((task_id, f"artifact dropped: {normalized} is another task's file"))
                continue
            units.append(FileUnit(normalized, body))
            if normalized == task_id:
                own = units[-1]
        if own is None:
            plan.feedback.append((task_id, f"worker produced no artifact for {task_id}"))
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
    plan: _AuditPlan,
) -> Mapping[str, ApiSpecEntry]:
    """The entries (path -> entry) amended to legitimize every PATCHABLE
    superset, tried under the guard as the barrier commits them: their
    write-back merged into the snapshot and committed (``merge_layer``,
    ``commit_merge``), the result dropped. Without a PATCHABLE delta they
    are the kernel's own entries, and none is built; when the guard refuses
    the amendment they are the kernel's too, and the refusal makes each
    PATCHABLE delta CRITICAL."""
    patchable = {task_id: d.details for task_id, d in deltas.items() if d.kind is DeltaKind.PATCHABLE}
    if not patchable:
        return kernel.entries
    entries, symbols = _amended_entries(kernel, patchable, artifacts)
    try:
        commit_merge(contract, merge_layer(contract, _write_back(contract, entries, {})))
    except KernelViolation as exc:
        plan.warnings.append(f"amendment rejected: kernel validation failed; {exc}")
        for task_id in sorted(patchable):
            refused = MismatchDetail(DetailKind.MISMATCH, task_id, expected="amendable superset", actual="kernel validation failed")
            deltas[task_id] = AuditDelta(task_id, DeltaKind.CRITICAL, patchable[task_id] + (refused,))
        return kernel.entries
    plan.interventions.append(
        {
            "kind": "ContractAmendment",
            "section": SectionKey.API_SPECIFICATIONS.value,
            "op": ActionOp.UPDATE.value,
            "added_symbols": symbols,
        }
    )
    return entries


def _plan_worker_moves(deltas: dict[str, AuditDelta], plan: _AuditPlan) -> None:
    """A worker whose artifacts are accepted moves its task to DONE. A CRITICAL
    artifact is rejected with one note per detail, but it still consumed a
    worker pass: a TODO task lands on ERROR via the legal TODO -> DONE -> ERROR
    path."""
    for task_id, delta in deltas.items():
        status = plan.statuses[task_id]
        if delta.kind is DeltaKind.CRITICAL:
            plan.feedback.extend((task_id, _describe_detail(detail)) for detail in delta.details)
            if status is TaskStatus.TODO:
                plan.move(task_id, TaskStatus.DONE)
                plan.move(task_id, TaskStatus.ERROR)
        elif status in (TaskStatus.TODO, TaskStatus.ERROR):
            plan.move(task_id, TaskStatus.DONE)


def _plan_critic_verdicts(outcomes: list[DispatchOutcome], plan: _AuditPlan) -> None:
    """A passing verdict verifies its task. A failing one regresses it to ERROR
    with the critic's note as its feedback and as the regression's reason. A
    failed critic dispatch or a missing verdict leaves the status and warns."""
    for outcome in sorted(outcomes, key=lambda o: o.task_id):
        task_id = outcome.task_id
        if outcome.role is not RoleKind.CRITIC or task_id not in plan.statuses:
            continue
        if outcome.error or outcome.response is None:
            plan.warnings.append(f"critic for {task_id} failed: {outcome.error or 'no response'}")
            plan.feedback.append((task_id, f"critic dispatch failed: {outcome.error or 'no response'}"))
            continue
        verdict = outcome.response.verdict
        if verdict is None:
            plan.warnings.append(f"critic for {task_id} produced no verdict; status unchanged")
        elif verdict.passed:
            plan.move(task_id, TaskStatus.VERIFIED)
        else:
            reason = verdict.reason or "critic rejected the implementation"
            plan.move(task_id, TaskStatus.ERROR)
            plan.feedback.append((task_id, reason))
            plan.interventions.append({"kind": "StatusRegression", "task": task_id, "reason": reason})


def _sync_after_amendment(
    entries: Mapping[str, ApiSpecEntry],
    deltas: dict[str, AuditDelta],
    committed: dict[str, FileUnit],
    plan: _AuditPlan,
) -> None:
    """A committed file that misses members of the (possibly amended) schema
    compels a repair: its DONE task regresses to ERROR with a directive."""
    for task_id in sorted(plan.statuses):
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
        if plan.statuses[task_id] is TaskStatus.VERIFIED:
            plan.warnings.append(f"{task_id} is already verified but misses amended symbols; no automatic cascade")
            continue
        directive = _repair_directive(missing_members)
        if plan.statuses[task_id] is TaskStatus.DONE:
            plan.move(task_id, TaskStatus.ERROR)
        plan.feedback.append((task_id, directive))
        plan.interventions.append({"kind": "SyncTask", "task": task_id, "directive": directive})


def _write_back(
    contract: LanguageContract, entries: Mapping[str, ApiSpecEntry], statuses: Mapping[str, TaskStatus]
) -> tuple[AtomicPatch, ...]:
    """``entries`` (path -> entry, for each entry of the kernel of
    ``contract``) stamped with ``statuses``, as patches placed in the API
    section of ``contract``; none when they move no line. An entry the
    kernel holds as it is, with a Status line, is patched only when its
    status moves: that line, printed anew. Any other entry, amended or
    without a Status line, is its span, trailing blanks trimmed, diffed
    against its own print. On a section in
    canonical spelling the result is ``print_api_section`` of the stamped
    entries; in any other, only the lines that move are rewritten."""
    section = SectionKey.API_SPECIFICATIONS
    body, kept = contract.body(section), project(contract).entries
    hunks: list[tuple[int, int, tuple[str, ...]]] = []
    for path, entry in entries.items():
        status = statuses.get(path, entry.status)
        start, end = entry.span
        if entry is kept[path] and entry.status_line is not None:
            if status is not entry.status:
                at = start + entry.status_line
                hunks.append((at, at + 1, (print_status(status),)))
            continue
        while end > start and not body[end - 1].strip():
            end -= 1
        printed = print_api_section([replace(entry, status=status)])
        hunks += [(start + i0, start + i1, lines) for i0, i1, lines in diff_against_base(body[start:end], printed)]
    return tuple(AtomicPatch(section, start, end, lines, AUDITOR_AUTHOR) for start, end, lines in hunks)


def _agent_actions(
    outcomes: list[DispatchOutcome], deltas: dict[str, AuditDelta]
) -> tuple[tuple[str, ContractAction, ContractView], ...]:
    """Each agent action with its view, unless its artifact was rejected outright."""
    actions: list[tuple[str, ContractAction, ContractView]] = []
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

"""Contract-governed multi-agent repository synthesis.

A structured planning document (the contract) is the single source of truth
between agents: it is projected into a machine-checkable kernel, drives a
status-conditioned layer scheduler whose barrier gives each new entry its
task, and is policed after every layer by a deterministic auditor that
regresses failed tasks and formally amends the schema when implementations
legitimately outgrow it.
"""

from .contract import (
    ActionOp,
    ContractAction,
    LanguageContract,
    MalformedTemplate,
    Rejection,
    SectionKey,
    UnknownSection,
    apply_action,
    new_contract,
    parse,
    render,
)
from .kernel import (
    ApiSpecEntry,
    ClassSpec,
    MethodSig,
    ProjectionError,
    SignatureError,
    SymbolicKernel,
    UnknownEdgeEndpoint,
    Violation,
    ViolationKind,
    parse_signature,
    print_signature,
    project,
    validate,
)
from .tasks import Task, TaskStatus
from .scheduler import RunConfig, RunMode, RunResult, dispatch_for, plan_layer, run, run_layer
from .agents import (
    AgentResponse,
    IntentSpec,
    RoleKind,
    Verdict,
    build_prompt,
    format_response,
    parse_response,
    synthesize_contract,
)
from .auditor import (
    AuditDelta,
    AuditReport,
    DeltaKind,
    audit_layer,
    consistency_check,
    existence_check,
    match,
)
from .patches import AtomicPatch, MergeResult, commit_merge, diff_against_base, merge_layer
from .workspace import FileUnit, Workspace, extract_symbols, resolve_imports
from .evaluation import EvalReport, architecture_score, linkage_score, overall_score, token_report

__version__ = "0.1.0"

__all__ = [
    "ActionOp",
    "AgentResponse",
    "ApiSpecEntry",
    "AtomicPatch",
    "AuditDelta",
    "AuditReport",
    "ClassSpec",
    "ContractAction",
    "DeltaKind",
    "EvalReport",
    "FileUnit",
    "IntentSpec",
    "LanguageContract",
    "MalformedTemplate",
    "MergeResult",
    "MethodSig",
    "ProjectionError",
    "Rejection",
    "RoleKind",
    "RunConfig",
    "RunMode",
    "RunResult",
    "SectionKey",
    "SignatureError",
    "SymbolicKernel",
    "Task",
    "TaskStatus",
    "UnknownEdgeEndpoint",
    "UnknownSection",
    "Verdict",
    "Violation",
    "ViolationKind",
    "Workspace",
    "apply_action",
    "architecture_score",
    "audit_layer",
    "build_prompt",
    "commit_merge",
    "consistency_check",
    "diff_against_base",
    "dispatch_for",
    "existence_check",
    "extract_symbols",
    "format_response",
    "linkage_score",
    "match",
    "merge_layer",
    "new_contract",
    "overall_score",
    "parse",
    "parse_response",
    "parse_signature",
    "plan_layer",
    "print_signature",
    "project",
    "render",
    "resolve_imports",
    "run",
    "run_layer",
    "synthesize_contract",
    "token_report",
    "validate",
]

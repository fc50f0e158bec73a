"""Agent roles, prompt assembly, the three-block response protocol, and
two-stage contract synthesis.

Every agent answers in the same tagged format: a ``<thinking>`` block, an
``<output>`` block, and an optional ``<document_action>`` block carrying a
JSON array of section patches. Code leaves an agent as fenced blocks whose
first line is ``# FILE: <path>``; critics end their output with a
``VERDICT: PASS`` or ``VERDICT: FAIL <reason>`` line.
"""

from __future__ import annotations

import json
import logging
import math
import re
from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .contract import (
    ActionOp,
    ContractAction,
    LanguageContract,
    Rejection,
    SectionKey,
    apply_action,
    is_partial_api_patch,
    new_contract,
    render,
    section_key_from_name,
    DEFAULT_TEMPLATE,
)
from .kernel import guard_violations
from .tasks import Task

logger = logging.getLogger(__name__)


class RoleKind(Enum):
    PROJECT_MANAGER = "project_manager"
    DISCRIMINATOR = "discriminator"
    WORKER = "worker"
    CRITIC = "critic"


@dataclass(frozen=True)
class Role:
    kind: RoleKind
    owner: str = ""

    def __post_init__(self):
        if self.kind is RoleKind.WORKER and not self.owner:
            raise ValueError("worker roles require a non-empty owner")


@dataclass(frozen=True)
class Verdict:
    passed: bool
    reason: str = ""


@dataclass(frozen=True)
class AgentResponse:
    thinking: str
    output: str
    actions: tuple[ContractAction, ...] = ()
    artifacts: tuple[tuple[str, str], ...] = ()
    verdict: Verdict | None = None


@dataclass(frozen=True)
class IntentSpec:
    text: str

    def __post_init__(self):
        if not self.text.strip():
            raise ValueError("intent must be non-empty")


class ParseError(Exception):
    pass


class ContextOverflow(Exception):
    pass


class SynthesisFailure(Exception):
    pass


def estimate_tokens(text: str) -> int:
    """Default estimator: one token per four UTF-8 bytes, rounded up."""
    return math.ceil(len(text.encode("utf-8")) / 4)


TokenEstimator = Callable[[str], int]


_SECTION_KEY_LIST = "\n".join(f'    - "{key.title}"' for key in SectionKey)

SYSTEM_PROMPT = f"""You are one specialist agent inside a collaborative team that turns a user
intent into a working multi-file repository. The team coordinates through a
single shared planning document; read it carefully and treat it as the only
authority on interfaces, file layout and task status.

Respond in EXACTLY this structure:
1. A <thinking> block: your step-by-step analysis.
2. An <output> block: a human-readable summary of what you did or concluded.
3. Optionally a <document_action> block: a JSON array of patch objects for
   the shared document. Omit the block entirely if you change nothing.

Document patch objects look like:
    [{{"type": "update|add", "section": "<section key>", "content": "<markdown body>"}}]
Allowed section keys:
{_SECTION_KEY_LIST}
A patch content is the FULL replacement body of that section: if you change
one line you must still emit every unchanged line. Partial patches of the
Symbolic API Specifications section (for example a Status field without a
File field) are rejected to keep the section from being clobbered.

Code files are emitted inside your <output> as fenced code blocks whose first
line is a comment of the form `# FILE: <workspace-relative path>`.
"""

ROLE_PROMPTS: dict[RoleKind, str] = {
    RoleKind.PROJECT_MANAGER: (
        "Role: project planner. Decompose the user intent into a concrete,\n"
        "parallelizable plan and CREATE the shared document content through\n"
        "document actions: overview, user stories, constraints, directory\n"
        "structure, shared knowledge, a dependency diagram (lines of the form\n"
        "`A --> B`), and one Symbolic API Specifications entry per file with\n"
        "File/Owner/Version/Status fields, classes, typed attributes and\n"
        "documented method signatures. Interfaces must be acyclic and typed."
    ),
    RoleKind.DISCRIMINATOR: (
        "Role: plan reviewer. Perform exactly one rectification pass over the\n"
        "drafted document: break dependency cycles, replace undefined types,\n"
        "and tighten underspecified interfaces. Emit corrective document\n"
        "actions only; do not write code."
    ),
    RoleKind.WORKER: (
        "Role: implementation engineer. Implement exactly the file assigned\n"
        "below so that it satisfies the shared document: same classes, same\n"
        "attributes, same method signatures. Emit the complete file as a\n"
        "`# FILE:` fenced block. Do not invent interfaces that are not in the\n"
        "document; propose a document action instead if one is missing."
    ),
    RoleKind.CRITIC: (
        "Role: reviewer. Check the implementation below strictly against the\n"
        "shared document: does it fulfil the contracted interface for its\n"
        "file? End your <output> with `VERDICT: PASS` or `VERDICT: FAIL\n"
        "<reason>`. Judge conformance, not style."
    ),
}


@dataclass(frozen=True)
class PromptBundle:
    role: Role
    parts: tuple[str, ...]
    token_count: int

    @property
    def text(self) -> str:
        return "\n\n".join(self.parts)


def build_prompt(
    role: Role,
    task: Task | None,
    contract: LanguageContract,
    intent: IntentSpec,
    *,
    context_limit: int = 16384,
    estimator: TokenEstimator = estimate_tokens,
    implementation: str | None = None,
    include_contract: bool = True,
    task_paths: tuple[str, ...] = (),
) -> PromptBundle:
    """Assemble the prompt for one dispatch.

    Worker bundles carry the full rendered document and never any peer file
    body; critic bundles additionally carry the body of the file under
    review. With ``include_contract`` off (the contract-less ablation), the
    document is replaced by the raw intent plus the task path list.
    """
    if role.kind in (RoleKind.WORKER, RoleKind.CRITIC) and task is None:
        raise ValueError(f"{role.kind.value} dispatch requires a task")
    parts: list[str] = [SYSTEM_PROMPT, ROLE_PROMPTS[role.kind]]
    parts.append(f"User intent:\n{intent.text.strip()}")
    if include_contract:
        parts.append("Shared document:\n\n" + render(contract))
    elif task_paths:
        parts.append("Task files:\n" + "\n".join(f"- {p}" for p in task_paths))
    if task is not None:
        directive = [f"Assigned file: {task.file_path}", f"Owner: {task.owner}"]
        if task.feedback:
            directive.append("Feedback to address:")
            directive.extend(f"- {note}" for note in task.feedback)
        parts.append("\n".join(directive))
    if role.kind is RoleKind.CRITIC:
        if implementation is None:
            raise ValueError("critic dispatch requires the implementation body")
        parts.append(f"Implementation under review ({task.file_path}):\n\n{implementation}")
    tokens = estimator("\n\n".join(parts))
    if tokens > context_limit:
        raise ContextOverflow(f"prompt needs {tokens} tokens, limit is {context_limit}")
    return PromptBundle(role=role, parts=tuple(parts), token_count=tokens)


# --- response protocol -------------------------------------------------------

_BLOCK_RE = re.compile(r"<(thinking|output|document_action)>\s*\n?(.*?)\n?\s*</\1>", re.S)
_ARTIFACT_RE = re.compile(r"```[A-Za-z0-9_+-]*\n# FILE: ([^\n]+)\n(.*?)```", re.S)
_VERDICT_RE = re.compile(r"^VERDICT:\s*(PASS|FAIL)\s*(.*)$", re.M)


def _parse_actions(payload: str) -> tuple[ContractAction, ...]:
    try:
        items = json.loads(payload)
    except json.JSONDecodeError as exc:
        raise ParseError(f"document_action block is not valid JSON: {exc}") from exc
    if not isinstance(items, list):
        raise ParseError("document_action block must be a JSON array")
    actions: list[ContractAction] = []
    for item in items:
        if not isinstance(item, dict):
            raise ParseError(f"action items must be objects, got {type(item).__name__}")
        raw_type = str(item.get("type", "update|add")).strip().lower()
        if raw_type == "add":
            op = ActionOp.ADD
        elif raw_type in ("update", "update|add"):
            # The combined verb means a full-replacement patch.
            op = ActionOp.UPDATE
        else:
            raise ParseError(f"unknown action type: {raw_type!r}")
        content = item.get("content")
        if isinstance(content, dict):
            pairs = [(section_key_from_name(k), str(v)) for k, v in content.items()]
        else:
            if "section" not in item:
                raise ParseError("action item missing 'section'")
            if not isinstance(content, str):
                raise ParseError("action item 'content' must be a string")
            pairs = [(section_key_from_name(str(item["section"])), content)]
        for section, body in pairs:
            if section is SectionKey.API_SPECIFICATIONS and is_partial_api_patch(body):
                raise ParseError(
                    "partial API-spec patch (Status without File) would clobber the section"
                )
            actions.append(ContractAction(op=op, section=section, content=body))
    return tuple(actions)


def parse_response(raw: str) -> AgentResponse:
    """Parse the tagged three-block format into a structured response."""
    blocks = {name: body for name, body in _BLOCK_RE.findall(raw)}
    if "output" not in blocks:
        raise ParseError("response has no <output> block")
    output = blocks["output"]
    thinking = blocks.get("thinking", "")
    actions = _parse_actions(blocks["document_action"]) if "document_action" in blocks else ()
    artifacts = tuple((path.strip(), body) for path, body in _ARTIFACT_RE.findall(raw))
    verdict = None
    m = _VERDICT_RE.search(output)
    if m:
        verdict = Verdict(passed=m.group(1) == "PASS", reason=m.group(2).strip())
    return AgentResponse(
        thinking=thinking,
        output=output,
        actions=actions,
        artifacts=artifacts,
        verdict=verdict,
    )


def format_response(response: AgentResponse) -> str:
    """Serialize a response back to the tagged wire format (parse inverts it)."""
    parts = [f"<thinking>\n{response.thinking}\n</thinking>"]
    parts.append(f"<output>\n{response.output}\n</output>")
    if response.actions:
        items = [
            {"type": a.op.value, "section": a.section.title, "content": a.content}
            for a in response.actions
        ]
        parts.append(f"<document_action>\n{json.dumps(items, indent=2)}\n</document_action>")
    for path, body in response.artifacts:
        fenced_body = body if body.endswith("\n") else body + "\n"
        parts.append(f"```python\n# FILE: {path}\n{fenced_body}```")
    return "\n\n".join(parts)


# --- two-stage contract synthesis ---------------------------------------------


def apply_actions(
    contract: LanguageContract,
    actions: tuple[ContractAction, ...] | list[ContractAction],
    *,
    stage: str,
    on_accept: Callable[[ContractAction, int], None] | None = None,
) -> tuple[LanguageContract, list[tuple[ContractAction, Rejection]]]:
    """Apply a batch of actions transactionally, collecting rejections."""
    rejected: list[tuple[ContractAction, Rejection]] = []
    for action in actions:
        outcome = apply_action(contract, action, guard=guard_violations)
        if isinstance(outcome, Rejection):
            logger.warning("%s action on %s rejected: %s", stage, action.section.value, outcome)
            rejected.append((action, outcome))
        else:
            contract = outcome
            if on_accept is not None:
                on_accept(action, contract.revision)
    return contract, rejected


def synthesize_contract(
    intent: IntentSpec,
    backend,
    *,
    context_limit: int = 16384,
    on_accept: Callable[[ContractAction, int], None] | None = None,
) -> LanguageContract:
    """Build the initial contract: a proposal pass, then one rectification pass.

    The proposal agent drafts the whole document through actions; the reviewer
    agent gets exactly one corrective pass. Every action runs through the
    kernel guard, so the returned contract projects to an acyclic, type-safe
    kernel by construction. Interfaces that survive with too little detail are
    left for downstream feedback, not rejected here.
    """
    from .backends import CompletionRequest  # local import: backends never import agents

    contract = new_contract(DEFAULT_TEMPLATE)
    stages = (
        (Role(RoleKind.PROJECT_MANAGER), "proposal"),
        (Role(RoleKind.DISCRIMINATOR), "rectification"),
    )
    for role, stage in stages:
        bundle = build_prompt(role, None, contract, intent, context_limit=context_limit)
        raw = backend.complete(
            CompletionRequest(layer=0, role=role.kind.value, task_id="", bundle=bundle)
        )
        try:
            response = parse_response(raw)
        except ParseError as exc:
            raise SynthesisFailure(f"{stage} response unparseable: {exc}") from exc
        if stage == "proposal" and not response.actions:
            raise SynthesisFailure("proposal stage emitted no document actions")
        contract, _ = apply_actions(contract, response.actions, stage=stage, on_accept=on_accept)
        if stage == "proposal" and not contract.body(SectionKey.API_SPECIFICATIONS):
            raise SynthesisFailure("proposal stage produced no Symbolic API Specifications content")
    return contract

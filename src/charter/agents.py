"""Agent roles, prompt assembly, the three-block response protocol, and
two-stage contract synthesis.

A worker or critic reads its task's view of the contract, not the whole
document: the task's own API entry and those of its direct dependencies, with
the directory and dependency lines of every other module left out. The plan
reviewer reads the same kind of view over the modules validation flags; the
modules that passed are not shown and are kept as drafted. A prompt
therefore stays the same size however many modules the contract holds.
``build_prompt`` decides the view once and records it on the bundle; the
scheduler carries it with the dispatch's document actions to the barrier,
and synthesis with each stage's actions to ``patches.commit_actions``, which
re-anchors each action through it, so lines an author was not shown are
kept. A synthesis stage commits like a layer: once, whole or not at all.

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
    SectionKey,
    UnknownSection,
    is_partial_api_patch,
    new_contract,
    render,
    section_key_from_name,
    DEFAULT_TEMPLATE,
)
from .kernel import NO_LINES, ContractView, review_view, task_view
from .patches import commit_actions
from .tasks import Task

logger = logging.getLogger(__name__)


class RoleKind(Enum):
    PROJECT_MANAGER = "project_manager"
    DISCRIMINATOR = "discriminator"
    WORKER = "worker"
    CRITIC = "critic"


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
    """One token per four UTF-8 bytes, rounded up."""
    return math.ceil(len(text.encode("utf-8")) / 4)


CONTEXT_LIMIT = 16384  # prompt tokens a dispatch may need, unless a run configures another limit

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
A patch content is the FULL replacement body of that section: emit every
unchanged line you were shown; lines you were not shown are kept. Partial
patches of the Symbolic API Specifications section (for example a Status
field without a File field) are rejected to keep the section from being
clobbered.

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
        "Role: plan reviewer. Perform exactly one rectification pass to tighten\n"
        "the underspecified interfaces. You are shown the underspecified API\n"
        "entries with their direct dependencies; modules not shown passed\n"
        "validation and are kept. Emit corrective document actions only; do not\n"
        "write code."
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
    text: str
    token_count: int
    view: ContractView  # the contract lines the text shows, per section


def build_prompt(
    role: RoleKind,
    task: Task | None,
    contract: LanguageContract,
    intent: IntentSpec,
    *,
    context_limit: int = CONTEXT_LIMIT,
    implementation: str | None = None,
    task_paths: tuple[str, ...] | None = None,
) -> PromptBundle:
    """Assemble the prompt for one dispatch.

    The bundle records the view its text shows, and a document action
    answering it is re-anchored through that view. The planner's bundle shows
    the whole document: its view ``{}`` cuts no section. Worker and critic
    bundles show the task's view (``kernel.task_view``), which cuts three: the
    Symbolic API Specifications hold only the entries of the task and of its
    direct dependencies, and the Directory Structure and Dependency
    Relationships lines of other modules are left out. The reviewer's bundle
    shows the same view over the modules validation flags
    (``kernel.review_view``). No bundle carries a peer file body; critic
    bundles additionally carry the body of the file under review. Given
    ``task_paths`` (the contract-less ablation), the document is replaced by
    the raw intent plus the task path list, and the view is ``NO_LINES``.
    """
    if role in (RoleKind.WORKER, RoleKind.CRITIC) and task is None:
        raise ValueError(f"{role.value} dispatch requires a task")
    parts: list[str] = [SYSTEM_PROMPT, ROLE_PROMPTS[role]]
    parts.append(f"User intent:\n{intent.text.strip()}")
    if task_paths is not None:
        view = NO_LINES
        if task_paths:
            parts.append("Task files:\n" + "\n".join(f"- {p}" for p in task_paths))
    else:
        if role in (RoleKind.WORKER, RoleKind.CRITIC):
            view = task_view(contract, task.id)
        elif role is RoleKind.DISCRIMINATOR:
            view = review_view(contract)
        else:
            view = {}
        parts.append("Shared document:\n\n" + render(contract, view))
    if task is not None:
        directive = [f"Assigned file: {task.id}", f"Owner: {task.owner}"]
        if task.feedback:
            directive.append("Feedback to address:")
            directive.extend(f"- {note}" for note in task.feedback)
        parts.append("\n".join(directive))
    if role is RoleKind.CRITIC:
        if implementation is None:
            raise ValueError("critic dispatch requires the implementation body")
        parts.append(f"Implementation under review ({task.id}):\n\n{implementation}")
    text = "\n\n".join(parts)
    tokens = estimate_tokens(text)
    if tokens > context_limit:
        raise ContextOverflow(f"prompt needs {tokens} tokens, limit is {context_limit}")
    return PromptBundle(text=text, token_count=tokens, view=view)


# --- response protocol -------------------------------------------------------

# A block's body runs to the first close tag of its name and is stripped in
# ``parse_response``. The close tag starts with a literal ``<``, so the lazy
# body fails it at once on any other character; a tail of optional
# whitespace before the tag would be tried in full at every character.
_BLOCK_RE = re.compile(r"<(thinking|output|document_action)>(.*?)</\1>", re.S)
# The ``FILE:`` marker and the verdict are matched in any case; a verdict may
# be wrapped in emphasis (``**VERDICT: PASS**``, ``**VERDICT:** FAIL reason``).
# The verdict is a whole word, ``PASS``/``PASSED`` or ``FAIL``/``FAILED``, so
# ``VERDICT: FAILED x`` gives the reason ``x`` and ``VERDICT: PASSING`` none.
_ARTIFACT_RE = re.compile(r"```[A-Za-z0-9_+-]*[ \t]*\n#[ \t]*FILE:[ \t]*([^\n]+)\n(.*?)```", re.S | re.I)
_VERDICT_RE = re.compile(r"^(\*\*|__|\*|_)?VERDICT:\1?\s*(PASS|FAIL)(?:ED)?\b\s*(.*)$", re.M | re.I)


def _section_key(name: str) -> SectionKey:
    try:
        return section_key_from_name(name)
    except UnknownSection as exc:
        raise ParseError(str(exc)) from exc


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
            pairs = [(_section_key(k), str(v)) for k, v in content.items()]
        else:
            if "section" not in item:
                raise ParseError("action item missing 'section'")
            if not isinstance(content, str):
                raise ParseError("action item 'content' must be a string")
            pairs = [(_section_key(str(item["section"])), content)]
        for section, body in pairs:
            if section is SectionKey.API_SPECIFICATIONS and is_partial_api_patch(body):
                raise ParseError(
                    "partial API-spec patch (Status without File) would clobber the section"
                )
            actions.append(ContractAction(op=op, section=section, content=body))
    return tuple(actions)


def parse_response(raw: str) -> AgentResponse:
    """Parse the tagged three-block format into a structured response. A CRLF
    line end is read as LF, and a fence may carry blanks after its language
    tag. An artifact path may be written in backticks (``# FILE: `a.py` ``);
    the marker and the verdict are read in any case. A block's body is read
    without the blanks around it; of blocks with one name, the last wins."""
    raw = raw.replace("\r\n", "\n")
    blocks = dict(_BLOCK_RE.findall(raw))
    if "output" not in blocks:
        raise ParseError("response has no <output> block")
    output = blocks["output"].strip()
    thinking = blocks.get("thinking", "").strip()
    actions = _parse_actions(blocks["document_action"].strip()) if "document_action" in blocks else ()
    artifacts = tuple((path.strip().strip("`"), body) for path, body in _ARTIFACT_RE.findall(raw))
    verdict = None
    m = _VERDICT_RE.search(output)
    if m:
        emphasis, word, reason = m.group(1) or "", m.group(2), m.group(3).strip()
        verdict = Verdict(passed=word.upper() == "PASS", reason=reason.removesuffix(emphasis).strip())
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


def synthesize_contract(
    intent: IntentSpec,
    backend,
    *,
    context_limit: int = CONTEXT_LIMIT,
    journal: Callable[[dict], None] = lambda record: None,
) -> LanguageContract:
    """Build the initial contract: a proposal pass, then one rectification pass.

    The proposal agent drafts the whole document through actions; the reviewer
    agent gets exactly one corrective pass. Each stage commits its actions as
    a layer does (``patches.commit_actions``): placed through the view its
    prompt showed, merged and guarded once, so the planner's sections land in
    any order and a reviewer's update keeps every line it was not shown. A
    stage the guard refuses changes nothing, and ``commit_actions`` journals
    each of its actions as refused at that stage; a refused proposal raises
    ``SynthesisFailure``. So the returned contract projects to an acyclic,
    type-safe kernel by construction. Interfaces that survive with too little detail are left for
    downstream feedback, not rejected here. A stage whose prompt exceeds
    ``context_limit`` fails the synthesis.
    """
    from .backends import CompletionRequest  # local import: backends never import agents

    contract = new_contract(DEFAULT_TEMPLATE)
    stages = ((RoleKind.PROJECT_MANAGER, "proposal"), (RoleKind.DISCRIMINATOR, "rectification"))
    for role, stage in stages:
        try:
            bundle = build_prompt(role, None, contract, intent, context_limit=context_limit)
        except ContextOverflow as exc:
            raise SynthesisFailure(f"{stage} prompt does not fit: {exc}") from exc
        raw = backend.complete(CompletionRequest(layer=0, role=role.value, task_id="", bundle=bundle))
        try:
            response = parse_response(raw)
        except ParseError as exc:
            raise SynthesisFailure(f"{stage} response unparseable: {exc}") from exc
        if stage == "proposal" and not response.actions:
            raise SynthesisFailure("proposal stage emitted no document actions")
        actions = [(stage, a, bundle.view) for a in response.actions]
        contract, _, refusal = commit_actions(contract, actions, journal, (), stage)
        if refusal is not None:
            logger.warning("event=stage_rejected stage=%s reason=%s", stage, refusal)
            if stage == "proposal":
                raise SynthesisFailure(f"proposal refused by the kernel guard: {refusal}") from refusal
        if stage == "proposal" and not contract.body(SectionKey.API_SPECIFICATIONS):
            raise SynthesisFailure("proposal stage produced no Symbolic API Specifications content")
    return contract

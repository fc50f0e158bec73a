"""The contract document: seven canonical sections, mutations, and serialization.

The contract is the single shared planning document every agent reads and
patches. It is stored line-oriented (lines are the coordinate unit for the
patch machinery) and is immutable: every mutation produces a new value. The
value committed at a layer barrier is therefore itself the frozen snapshot that
every dispatch of the next layer reads and that all of that layer's patches
are expressed against; there is no second copy of the sections.

On disk the document is markdown with two fixed tier headings and the seven
section headings below, extension ``.contract.md``.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Mapping, Sequence

from .tasks import TaskStatus


class SectionKey(Enum):
    """Closed set of section identifiers; parsing any other key is an error."""

    PROJECT_OVERVIEW = "ProjectOverview"
    USER_STORIES = "UserStories"
    CONSTRAINTS = "Constraints"
    DIRECTORY_STRUCTURE = "DirectoryStructure"
    GLOBAL_SHARED_KNOWLEDGE = "GlobalSharedKnowledge"
    DEPENDENCY_RELATIONSHIPS = "DependencyRelationships"
    API_SPECIFICATIONS = "SymbolicApiSpecifications"

    # Members are singletons that compare by identity, so they hash by it too:
    # a dict keyed by them then hashes in C, not through ``Enum.__hash__``.
    __hash__ = object.__hash__

    @property
    def title(self) -> str:
        return _TITLES[self]


_TITLES: dict[SectionKey, str] = {
    SectionKey.PROJECT_OVERVIEW: "Project Overview",
    SectionKey.USER_STORIES: "User Stories (Features)",
    SectionKey.CONSTRAINTS: "Constraints",
    SectionKey.DIRECTORY_STRUCTURE: "Directory Structure",
    SectionKey.GLOBAL_SHARED_KNOWLEDGE: "Global Shared Knowledge",
    SectionKey.DEPENDENCY_RELATIONSHIPS: "Dependency Relationships",
    SectionKey.API_SPECIFICATIONS: "Symbolic API Specifications",
}

PRODUCT_TIER_TITLE = "Product Requirement Document"
TECHNICAL_TIER_TITLE = "Technical Document"

# Render order: product tier first, technical tier second.
TIERS: tuple[tuple[str, tuple[SectionKey, ...]], ...] = (
    (
        PRODUCT_TIER_TITLE,
        (
            SectionKey.PROJECT_OVERVIEW,
            SectionKey.USER_STORIES,
            SectionKey.CONSTRAINTS,
        ),
    ),
    (
        TECHNICAL_TIER_TITLE,
        (
            SectionKey.DIRECTORY_STRUCTURE,
            SectionKey.GLOBAL_SHARED_KNOWLEDGE,
            SectionKey.DEPENDENCY_RELATIONSHIPS,
            SectionKey.API_SPECIFICATIONS,
        ),
    ),
)

SECTION_ORDER: tuple[SectionKey, ...] = tuple(
    key for _, keys in TIERS for key in keys
)

_TITLE_TO_KEY: dict[str, SectionKey] = {v.lower(): k for k, v in _TITLES.items()}
# Alias table for action payloads; the closed key set itself never grows.
_SECTION_ALIASES: dict[str, SectionKey] = {
    **{k.value.lower(): k for k in SectionKey},
    **_TITLE_TO_KEY,
    "user stories": SectionKey.USER_STORIES,
    "symbolic api specification": SectionKey.API_SPECIFICATIONS,
    "api specifications": SectionKey.API_SPECIFICATIONS,
}


class ContractError(Exception):
    """Base class for contract document failures."""


class MalformedTemplate(ContractError):
    """Document is missing a canonical heading, duplicates one, or adds a stray one."""


class UnknownSection(ContractError):
    """An action named a section outside the closed key set."""


class ActionOp(Enum):
    ADD = "add"
    UPDATE = "update"


@dataclass(frozen=True)
class ContractAction:
    """Atomic mutation: ADD appends lines to a section, UPDATE replaces its body."""

    op: ActionOp
    section: SectionKey
    content: str


@dataclass(frozen=True)
class Rejection:
    """Outcome of a refused action; the input contract is left untouched."""

    reason: str
    violations: tuple = ()

    def __str__(self) -> str:
        parts = [self.reason] + [str(v) for v in self.violations]
        return "; ".join(parts)


def section_key_from_name(name: str) -> SectionKey:
    key = _SECTION_ALIASES.get(name.strip().lower())
    if key is None:
        raise UnknownSection(f"unknown section key: {name!r}")
    return key


def normalize_body(lines: Iterable[str]) -> tuple[str, ...]:
    """A section body: the lines without a trailing ``\\r``, trimmed of blank
    lines at both ends."""
    body = [line.rstrip("\r") for line in lines]
    while body and not body[0].strip():
        body.pop(0)
    while body and not body[-1].strip():
        body.pop()
    return tuple(body)


def body_from_text(text: str) -> tuple[str, ...]:
    return normalize_body(text.split("\n"))


@dataclass(frozen=True)
class LanguageContract:
    """An immutable contract value; ``revision`` counts the commits that made
    it (one per synthesis stage or layer that changed it), not the actions.
    It refers to no other value: ``kernel.project`` is handed its basis."""

    sections: dict[SectionKey, tuple[str, ...]]
    revision: int
    # The value's projection, filled by ``kernel.project`` on first use; a
    # derived value starts without one.
    _kernel: object = field(default=None, init=False, repr=False, compare=False)
    # The digest of the value's rendering, filled by ``fingerprint`` on first use.
    _fingerprint: str | None = field(default=None, init=False, repr=False, compare=False)

    def body(self, key: SectionKey) -> tuple[str, ...]:
        return self.sections[key]

    def with_section(self, key: SectionKey, lines: Sequence[str]) -> "LanguageContract":
        """The next revision, with ``lines`` as the body of ``key``."""
        sections = dict(self.sections)
        sections[key] = normalize_body(lines)
        return LanguageContract(sections=sections, revision=self.revision + 1)

    def fingerprint(self) -> str:
        """The sha256 of the rendered document, rendered once per value."""
        if self._fingerprint is None:
            object.__setattr__(self, "_fingerprint", hashlib.sha256(render(self).encode("utf-8")).hexdigest())
        return self._fingerprint

    @staticmethod
    def empty() -> "LanguageContract":
        return LanguageContract(sections={key: () for key in SECTION_ORDER}, revision=0)


def render(contract: LanguageContract, view: Mapping[SectionKey, Sequence[int]] | None = None) -> str:
    """Serialize to the canonical markdown layout, deterministically.

    Given a ``view`` (section -> line indices), each section it names shows
    only those of its lines; any other section is shown whole."""
    lines: list[str] = []
    for tier_title, keys in TIERS:
        lines.append(f"# {tier_title}")
        lines.append("")
        for key in keys:
            lines.append(f"## {key.title}")
            lines.append("")
            body = contract.sections[key]
            if view is not None and key in view:
                body = [body[i] for i in view[key]]
            if body:
                lines.extend(body)
                lines.append("")
    return "\n".join(lines) + "\n"


_FENCE_RE = re.compile(r"^\s*```")
_TIER_TITLES = {PRODUCT_TIER_TITLE, TECHNICAL_TIER_TITLE}


def parse(doc: str) -> LanguageContract:
    """Parse a canonical document back into a contract at revision 0.

    Section boundaries are ``##`` headings outside fenced code blocks; the two
    tier headings are structural and skipped. Leading/trailing blank lines in
    a section body are tolerated and dropped.
    """
    bodies: dict[SectionKey, list[str]] = {}
    current: SectionKey | None = None
    in_fence = False
    for lineno, raw in enumerate(doc.split("\n"), start=1):
        line = raw.rstrip("\r")
        if _FENCE_RE.match(line):
            in_fence = not in_fence
            if current is not None:
                bodies[current].append(line)
            elif line.strip():
                raise MalformedTemplate(f"line {lineno}: content before first section")
            continue
        if not in_fence and line.startswith("## "):
            title = line[3:].strip()
            key = _TITLE_TO_KEY.get(title.lower())
            if key is None:
                raise MalformedTemplate(f"line {lineno}: unknown section heading {title!r}")
            if key in bodies:
                raise MalformedTemplate(f"line {lineno}: duplicate section heading {title!r}")
            bodies[key] = []
            current = key
            continue
        if not in_fence and line.startswith("# ") and line[2:].strip() in _TIER_TITLES:
            continue
        if current is None:
            if line.strip():
                raise MalformedTemplate(f"line {lineno}: content before first section")
            continue
        bodies[current].append(line)

    missing = [key.title for key in SECTION_ORDER if key not in bodies]
    if missing:
        raise MalformedTemplate(f"missing section heading(s): {', '.join(missing)}")
    sections = {key: normalize_body(bodies[key]) for key in SECTION_ORDER}
    return LanguageContract(sections=sections, revision=0)


def new_contract(template: str) -> LanguageContract:
    """Build a fresh contract from a template document at revision 0."""
    return parse(template)


DEFAULT_TEMPLATE = render(LanguageContract.empty())


_BULLET_RE = re.compile(r"^[-*]\s+")
_FIELD_RE = re.compile(r"^([A-Za-z][A-Za-z ]*?)\s*:\s*(.*)$")


# A field line is e.g. "- Status: DONE" or "* **Status:** DONE"; bullets and
# bold markers are stripped before matching.
def parse_field_line(line: str) -> tuple[str, str] | None:
    stripped = _BULLET_RE.sub("", line.strip())
    stripped = stripped.replace("*", "")
    m = _FIELD_RE.match(stripped)
    if m is None:
        return None
    return m.group(1).strip().lower(), m.group(2).strip()


def read_status(value: str) -> TaskStatus | None:
    """The status a Status field's value names, quotes stripped and case
    folded (``done``, ``"DONE"``), or None."""
    try:
        return TaskStatus(value.strip('"').upper())
    except ValueError:
        return None


def is_partial_api_patch(content: str) -> bool:
    """True when an API-spec patch carries a lifecycle Status field (one whose
    value's first word ``read_status`` reads) but no File field.

    Such fragments would clobber the section under full-replacement semantics,
    so they are refused at both the parse and the apply layer.
    """
    has_status = False
    for line in content.split("\n"):
        parsed = parse_field_line(line)
        if parsed is None:
            continue
        key, value = parsed
        if key in ("file", "file path"):
            return False  # a File field anywhere makes it whole
        if key == "status" and read_status(value.partition(" ")[0]) is not None:
            has_status = True
    return has_status


GuardFn = Callable[[LanguageContract], Sequence[object]]


def apply_action(
    contract: LanguageContract, action: ContractAction, guard: GuardFn | None = None
) -> LanguageContract | Rejection:
    """Apply one mutation on its own, as the next revision.

    The candidate contract is validated by ``guard`` (typically the kernel
    validator); any reported violation rejects the action and the caller's
    contract is untouched. ADD appends the content lines to the section body,
    UPDATE replaces the body outright. The engine commits every document
    action, and tries the auditor's amendment, through ``patches.merge_layer``
    and ``commit_merge``; this is the library's and the tests' one-action
    entry point.
    """
    if action.section is SectionKey.API_SPECIFICATIONS and is_partial_api_patch(action.content):
        return Rejection("partial API-spec patch (Status without File) refused to prevent clobbering")
    new_lines = body_from_text(action.content)
    body = contract.body(action.section) + new_lines if action.op is ActionOp.ADD else new_lines
    candidate = contract.with_section(action.section, body)
    if guard is not None:
        violations = tuple(guard(candidate))
        if violations:
            return Rejection("kernel validation failed", violations)
    return candidate


def journal_record(action: ContractAction, revision: int) -> dict:
    """One append-only sidecar record per accepted action."""
    return {"revision": revision, **_action_fields(action)}


def rejection_record(action: ContractAction, stage: str, reason: str) -> dict:
    """The sidecar record of an action refused at ``stage`` for ``reason``."""
    return {"kind": "rejected", "stage": stage, **_action_fields(action), "reason": reason}


def _action_fields(action: ContractAction) -> dict:
    digest = hashlib.sha256(action.content.encode("utf-8")).hexdigest()
    return {"op": action.op.value, "section": action.section.value, "content_sha256": digest}

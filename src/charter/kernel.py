"""Projection of the contract's technical sections into a machine-checkable kernel.

The kernel is the triple the orchestrator actually executes against: a node
map (module id -> file path), a signature table (fully qualified symbol ->
method signature or attribute type), and the inter-module dependency digraph.
Any contract mutation re-projects the kernel; a projection or validation
failure is what lets the store refuse an action before it pollutes shared
state.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, replace
from enum import Enum

from .contract import LanguageContract, SectionKey, parse_field_line
from .tasks import Task, TaskStatus

logger = logging.getLogger(__name__)

# Head symbols accepted without a matching class declaration. Generic
# parameters (e.g. list[int]) are checked on the head symbol only.
PRIMITIVE_TYPES = frozenset(
    {"int", "float", "str", "bool", "None", "list", "dict", "tuple", "set", "any", "object"}
)


class KernelError(Exception):
    """Base class for projection and signature failures."""


class ProjectionError(KernelError):
    def __init__(self, message: str, line: int | None = None):
        locus = f"line {line}: " if line is not None else ""
        super().__init__(f"{locus}{message}")
        self.line = line


class UnknownEdgeEndpoint(ProjectionError):
    """A dependency edge names a module that is not a kernel node."""


class SignatureError(KernelError):
    def __init__(self, message: str, column: int):
        super().__init__(f"col {column}: {message}")
        self.column = column


@dataclass(frozen=True)
class MethodSig:
    name: str
    params: tuple[tuple[str, str], ...]
    return_type: str
    docstring: str = ""


@dataclass(frozen=True)
class AttributeSpec:
    name: str
    type_name: str
    description: str = ""


@dataclass(frozen=True)
class ClassSpec:
    name: str
    attributes: tuple[AttributeSpec, ...] = ()
    methods: tuple[MethodSig, ...] = ()


@dataclass(frozen=True)
class ApiSpecEntry:
    file_path: str
    owner: str
    version: int
    status: TaskStatus
    classes: tuple[ClassSpec, ...] = ()


class ViolationKind(Enum):
    CYCLE = "CYCLE"
    TYPE_UNDEFINED = "TYPE_UNDEFINED"
    INCOMPLETE = "INCOMPLETE"


@dataclass(frozen=True)
class Violation:
    kind: ViolationKind
    subject: str
    message: str

    def __str__(self) -> str:
        return f"{self.kind.value}({self.subject}): {self.message}"


@dataclass(frozen=True)
class SymbolicKernel:
    nodes: dict[str, str]  # module id -> file path (ids are normalized paths)
    signatures: dict[str, MethodSig | str]  # "path::Class.member" -> sig or attr type
    dependencies: dict[str, tuple[str, ...]]  # declared edges, module id -> successors
    entries: tuple[ApiSpecEntry, ...] = ()
    derived_edges: tuple[tuple[str, str], ...] = ()  # implied by cross-entry type refs

    def class_specs(self) -> dict[str, tuple[str, ClassSpec]]:
        out: dict[str, tuple[str, ClassSpec]] = {}
        for entry in self.entries:
            for cls in entry.classes:
                out[cls.name] = (normalize_module_id(entry.file_path), cls)
        return out


def normalize_module_id(path: str) -> str:
    return path.replace("\\", "/").strip().strip("/")


# --- signature grammar ------------------------------------------------------
#
#   def NAME ( (NAME : TYPE) {, NAME : TYPE} ) -> TYPE
#
# Whitespace-insensitive; zero parameters and a None return are accepted.

_DEF_RE = re.compile(r"^\s*def\s+([A-Za-z_]\w*)\s*\(")


def _split_top_level(text: str, offset: int) -> list[tuple[str, int]]:
    """Split on commas outside brackets, keeping each piece's source column."""
    pieces: list[tuple[str, int]] = []
    depth = 0
    start = 0
    for i, ch in enumerate(text):
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        elif ch == "," and depth == 0:
            pieces.append((text[start:i], offset + start))
            start = i + 1
    pieces.append((text[start:], offset + start))
    return pieces


def parse_signature(text: str) -> MethodSig:
    m = _DEF_RE.match(text)
    if m is None:
        col = len(text) - len(text.lstrip()) + 1
        raise SignatureError("expected 'def NAME('", col)
    open_paren = m.end() - 1
    depth = 0
    close_paren = -1
    for i in range(open_paren, len(text)):
        if text[i] in "([{":
            depth += 1
        elif text[i] in ")]}":
            depth -= 1
            if depth == 0:
                close_paren = i
                break
    if close_paren < 0:
        raise SignatureError("unclosed parameter list", len(text))
    params: list[tuple[str, str]] = []
    inner = text[open_paren + 1 : close_paren]
    if inner.strip():
        for piece, col in _split_top_level(inner, open_paren + 1):
            if not piece.strip():
                raise SignatureError("empty parameter", col + 1)
            if ":" not in piece:
                raise SignatureError(f"missing ':' in parameter {piece.strip()!r}", col + 1)
            pname, ptype = piece.split(":", 1)
            pname = pname.strip()
            ptype = " ".join(ptype.split())
            if not re.fullmatch(r"[A-Za-z_]\w*", pname):
                raise SignatureError(f"bad parameter name {pname!r}", col + 1)
            if not ptype:
                raise SignatureError(f"missing type for parameter {pname!r}", col + 1)
            params.append((pname, ptype))
    tail = text[close_paren + 1 :]
    arrow = re.match(r"\s*->\s*(.+?)\s*:?\s*$", tail)
    if arrow is None:
        raise SignatureError("expected '-> TYPE' after parameter list", close_paren + 2)
    return_type = " ".join(arrow.group(1).split())
    return MethodSig(name=m.group(1), params=tuple(params), return_type=return_type)


def print_signature(sig: MethodSig) -> str:
    params = ", ".join(f"{n}: {t}" for n, t in sig.params)
    return f"def {sig.name}({params}) -> {sig.return_type}"


def type_head(type_name: str) -> str:
    return re.split(r"[\[\s]", type_name.strip(), maxsplit=1)[0]


# --- API specification section grammar --------------------------------------
#
#   - File: entities/player.py
#     Owner: backend
#     Version: 1
#     Status: TODO
#     Classes:
#       - Class: Player
#         Attributes:
#           - x: int | Horizontal position.
#         Methods:
#           - def move(dx: int) -> None | Shift the player.
#
# Bullets, indentation and bold markers are not significant; the field names
# are. Attribute and method lines are only meaningful inside their blocks.

_ATTR_LINE_RE = re.compile(r"^\s*-\s*([A-Za-z_]\w*)\s*:\s*([^|]+?)\s*(?:\|\s*(.*))?$")
_METHOD_LINE_RE = re.compile(r"^\s*-\s*(def\s.+?)\s*(?:\|\s*(.*))?$")


class _EntryBuilder:
    def __init__(self, path: str, line: int):
        self.path = path
        self.line = line
        self.owner = ""
        self.version = 0
        self.status = TaskStatus.TODO
        self.classes: list[dict] = []
        self.seen_fields: set[str] = set()

    def build(self) -> ApiSpecEntry:
        classes = tuple(
            ClassSpec(
                name=c["name"],
                attributes=tuple(c["attributes"]),
                methods=tuple(c["methods"]),
            )
            for c in self.classes
        )
        return ApiSpecEntry(
            file_path=self.path,
            owner=self.owner,
            version=self.version,
            status=self.status,
            classes=classes,
        )


def parse_api_section(body: tuple[str, ...] | list[str]) -> list[ApiSpecEntry]:
    entries: list[_EntryBuilder] = []
    entry: _EntryBuilder | None = None
    block: str | None = None  # None | "attrs" | "methods"

    for lineno, line in enumerate(body, start=1):
        if not line.strip():
            continue
        parsed = parse_field_line(line)
        key = parsed[0] if parsed else None

        if key in ("file", "file path"):
            if not parsed[1]:
                raise ProjectionError("File field without a path", lineno)
            entry = _EntryBuilder(parsed[1].strip('"'), lineno)
            entry.seen_fields.add("file")
            entries.append(entry)
            block = None
            continue
        if key in ("owner", "version", "status"):
            if entry is None:
                raise ProjectionError(f"{key} field before any File field", lineno)
            if key in entry.seen_fields:
                raise ProjectionError(f"duplicate {key} field in entry {entry.path}", lineno)
            entry.seen_fields.add(key)
            value = parsed[1].strip('"')
            if key == "owner":
                entry.owner = value
            elif key == "version":
                try:
                    entry.version = int(value)
                except ValueError:
                    raise ProjectionError(f"Version is not an integer: {value!r}", lineno) from None
                if entry.version < 0:
                    raise ProjectionError("Version must be non-negative", lineno)
            else:
                try:
                    entry.status = TaskStatus(value.upper())
                except ValueError:
                    raise ProjectionError(f"unknown Status value: {value!r}", lineno) from None
            block = None
            continue
        if key == "classes":
            if entry is None:
                raise ProjectionError("Classes block before any File field", lineno)
            block = None
            continue
        if key in ("class", "class name"):
            if entry is None:
                raise ProjectionError("Class field before any File field", lineno)
            name = parsed[1].strip('"')
            if not re.fullmatch(r"[A-Za-z_]\w*", name):
                raise ProjectionError(f"bad class name {name!r}", lineno)
            if any(c["name"] == name for c in entry.classes):
                raise ProjectionError(f"duplicate class {name} in entry {entry.path}", lineno)
            entry.classes.append({"name": name, "attributes": [], "methods": []})
            block = None
            continue
        if key == "attributes":
            if entry is None or not entry.classes:
                raise ProjectionError("Attributes block outside a class", lineno)
            block = "attrs"
            continue
        if key == "methods":
            if entry is None or not entry.classes:
                raise ProjectionError("Methods block outside a class", lineno)
            block = "methods"
            continue

        if block == "attrs":
            m = _ATTR_LINE_RE.match(line.replace("*", ""))
            if m is None:
                raise ProjectionError(f"unparseable attribute line: {line.strip()!r}", lineno)
            name, type_name, desc = m.group(1), " ".join(m.group(2).split()), m.group(3) or ""
            cls = entry.classes[-1]  # type: ignore[union-attr]
            if any(a.name == name for a in cls["attributes"]):
                raise ProjectionError(f"duplicate attribute {name} in class {cls['name']}", lineno)
            cls["attributes"].append(AttributeSpec(name=name, type_name=type_name, description=desc))
            continue
        if block == "methods":
            m = _METHOD_LINE_RE.match(line.replace("*", ""))
            if m is None:
                raise ProjectionError(f"unparseable method line: {line.strip()!r}", lineno)
            try:
                sig = parse_signature(m.group(1))
            except SignatureError as exc:
                raise ProjectionError(f"bad method signature: {exc}", lineno) from exc
            sig = replace(sig, docstring=(m.group(2) or "").strip())
            cls = entry.classes[-1]  # type: ignore[union-attr]
            if any(existing.name == sig.name for existing in cls["methods"]):
                raise ProjectionError(f"duplicate method {sig.name} in class {cls['name']}", lineno)
            cls["methods"].append(sig)
            continue

        raise ProjectionError(f"unparseable specification line: {line.strip()!r}", lineno)

    built = [e.build() for e in entries]
    seen_paths: set[str] = set()
    for e in built:
        path = normalize_module_id(e.file_path)
        if path in seen_paths:
            raise ProjectionError(f"duplicate File entry: {e.file_path}")
        seen_paths.add(path)
    return built


def print_api_section(entries: list[ApiSpecEntry] | tuple[ApiSpecEntry, ...]) -> list[str]:
    """Canonical re-rendering; ``parse_api_section`` inverts it exactly."""
    lines: list[str] = []
    for i, entry in enumerate(entries):
        if i:
            lines.append("")
        lines.append(f"- File: {entry.file_path}")
        lines.append(f"  Owner: {entry.owner}")
        lines.append(f"  Version: {entry.version}")
        lines.append(f"  Status: {entry.status.value}")
        if entry.classes:
            lines.append("  Classes:")
        for cls in entry.classes:
            lines.append(f"    - Class: {cls.name}")
            if cls.attributes:
                lines.append("      Attributes:")
                for attr in cls.attributes:
                    desc = f" | {attr.description}" if attr.description else ""
                    lines.append(f"        - {attr.name}: {attr.type_name}{desc}")
            if cls.methods:
                lines.append("      Methods:")
                for sig in cls.methods:
                    doc = f" | {sig.docstring}" if sig.docstring else ""
                    lines.append(f"        - {print_signature(sig)}{doc}")
    return lines


# --- dependency diagram ------------------------------------------------------

_EDGE_RE = re.compile(r"^\s*(\S+)\s*-->\s*(\S+)\s*;?\s*$")
_DIAGRAM_NOISE_RE = re.compile(r"^\s*(graph|flowchart)\b", re.IGNORECASE)


def _clean_endpoint(raw: str) -> str:
    cleaned = raw.strip().strip('"').strip("'")
    cleaned = re.sub(r"\[[^\]]*\]$", "", cleaned)
    return cleaned.strip()


def parse_dependency_edges(body: tuple[str, ...] | list[str]) -> list[tuple[str, str]]:
    """Extract ``A --> B`` edges; other diagram syntax is ignored with a warning."""
    edges: list[tuple[str, str]] = []
    for line in body:
        stripped = line.strip()
        if not stripped or stripped.startswith("```") or _DIAGRAM_NOISE_RE.match(stripped):
            continue
        m = _EDGE_RE.match(stripped)
        if m is None:
            logger.warning("ignoring unrecognized dependency line: %r", stripped)
            continue
        edges.append((_clean_endpoint(m.group(1)), _clean_endpoint(m.group(2))))
    return edges


def _resolve_endpoint(name: str, nodes: dict[str, str]) -> str:
    direct = normalize_module_id(name)
    if direct in nodes:
        return direct
    dotted = normalize_module_id(name.replace(".", "/"))
    for candidate in (dotted, dotted + ".py"):
        if candidate in nodes:
            return candidate
    stem_matches = [
        node
        for node in nodes
        if node.rsplit("/", 1)[-1].rsplit(".", 1)[0] == name.strip()
    ]
    if len(stem_matches) == 1:
        return stem_matches[0]
    raise UnknownEdgeEndpoint(f"dependency edge endpoint {name!r} is not a known module")


# --- projection and validation ------------------------------------------------


def project(contract: LanguageContract) -> SymbolicKernel:
    """Project the API and dependency sections into the kernel."""
    entries = parse_api_section(list(contract.body(SectionKey.API_SPECIFICATIONS)))
    nodes: dict[str, str] = {}
    signatures: dict[str, MethodSig | str] = {}
    class_owner: dict[str, str] = {}
    for entry in entries:
        module_id = normalize_module_id(entry.file_path)
        nodes[module_id] = entry.file_path
        for cls in entry.classes:
            if cls.name in class_owner:
                raise ProjectionError(
                    f"class {cls.name} declared in both {class_owner[cls.name]} and {module_id}"
                )
            class_owner[cls.name] = module_id
            for attr in cls.attributes:
                signatures[f"{module_id}::{cls.name}.{attr.name}"] = attr.type_name
            for sig in cls.methods:
                signatures[f"{module_id}::{cls.name}.{sig.name}"] = sig

    declared: dict[str, set[str]] = {node: set() for node in nodes}
    for left, right in parse_dependency_edges(list(contract.body(SectionKey.DEPENDENCY_RELATIONSHIPS))):
        src = _resolve_endpoint(left, nodes)
        dst = _resolve_endpoint(right, nodes)
        if src != dst:
            declared[src].add(dst)

    derived: set[tuple[str, str]] = set()
    for entry in entries:
        module_id = normalize_module_id(entry.file_path)
        for cls in entry.classes:
            referenced: set[str] = set()
            for attr in cls.attributes:
                referenced.add(type_head(attr.type_name))
            for sig in cls.methods:
                referenced.add(type_head(sig.return_type))
                referenced.update(type_head(t) for _, t in sig.params)
            for ref in referenced:
                owner = class_owner.get(ref)
                if owner is not None and owner != module_id and owner not in declared[module_id]:
                    derived.add((module_id, owner))

    dependencies = {node: tuple(sorted(declared[node])) for node in sorted(nodes)}
    return SymbolicKernel(
        nodes=dict(sorted(nodes.items())),
        signatures=dict(sorted(signatures.items())),
        dependencies=dependencies,
        entries=tuple(entries),
        derived_edges=tuple(sorted(derived)),
    )


def find_cycle(nodes: list[str] | tuple[str, ...], edges: dict[str, tuple[str, ...]]) -> list[str] | None:
    """First cycle found by DFS over lexicographically ordered nodes, or None."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {n: WHITE for n in nodes}
    parent: dict[str, str] = {}
    for root in sorted(nodes):
        if color[root] != WHITE:
            continue
        stack: list[tuple[str, int]] = [(root, 0)]
        color[root] = GRAY
        while stack:
            node, idx = stack[-1]
            successors = edges.get(node, ())
            if idx < len(successors):
                stack[-1] = (node, idx + 1)
                nxt = successors[idx]
                if nxt not in color:
                    continue
                if color[nxt] == GRAY:
                    cycle = [nxt]
                    cursor = node
                    while cursor != nxt:
                        cycle.append(cursor)
                        cursor = parent[cursor]
                    cycle.reverse()
                    return cycle
                if color[nxt] == WHITE:
                    color[nxt] = GRAY
                    parent[nxt] = node
                    stack.append((nxt, 0))
            else:
                color[node] = BLACK
                stack.pop()
    return None


def validate(kernel: SymbolicKernel) -> list[Violation]:
    """All violations in the kernel; an empty list means valid.

    CYCLE: the declared dependency graph is not a DAG.
    TYPE_UNDEFINED: a signature names a type that is neither primitive nor a
    declared class (head symbol only for generics).
    INCOMPLETE: an entry none of whose methods carries a docstring, the proxy
    for an interface described in too little detail to implement against.
    """
    violations: list[Violation] = []
    cycle = find_cycle(list(kernel.nodes), kernel.dependencies)
    if cycle is not None:
        violations.append(
            Violation(ViolationKind.CYCLE, " -> ".join(cycle), "dependency graph contains a cycle")
        )

    declared_classes = set(kernel.class_specs())
    for entry in kernel.entries:
        module_id = normalize_module_id(entry.file_path)
        for cls in entry.classes:
            referenced: list[tuple[str, str]] = []
            for attr in cls.attributes:
                referenced.append((f"{cls.name}.{attr.name}", attr.type_name))
            for sig in cls.methods:
                referenced.append((f"{cls.name}.{sig.name} return", sig.return_type))
                referenced.extend((f"{cls.name}.{sig.name}({n})", t) for n, t in sig.params)
            for where, type_name in referenced:
                head = type_head(type_name)
                if head not in PRIMITIVE_TYPES and head not in declared_classes:
                    violations.append(
                        Violation(
                            ViolationKind.TYPE_UNDEFINED,
                            f"{module_id}::{where}",
                            f"type {head!r} is neither primitive nor a declared class",
                        )
                    )
        methods = [sig for cls in entry.classes for sig in cls.methods]
        if not any(sig.docstring for sig in methods):
            violations.append(
                Violation(
                    ViolationKind.INCOMPLETE,
                    module_id,
                    "entry has no documented method; interface detail is insufficient",
                )
            )
    violations.sort(key=lambda v: (v.kind.value, v.subject))
    return violations


def guard_violations(contract: LanguageContract) -> list[Violation]:
    """Hard violations that reject a contract mutation (cycles, type safety).

    INCOMPLETE findings are advisory and never block an action; a projection
    failure is reported as a blocking pseudo-violation.
    """
    try:
        kernel = project(contract)
    except KernelError as exc:
        return [Violation(ViolationKind.TYPE_UNDEFINED, "projection", str(exc))]
    return [v for v in validate(kernel) if v.kind is not ViolationKind.INCOMPLETE]


def tasks_of(kernel: SymbolicKernel) -> list[Task]:
    """One task per kernel node, in path-lexicographic order."""
    tasks = []
    for entry in sorted(kernel.entries, key=lambda e: normalize_module_id(e.file_path)):
        module_id = normalize_module_id(entry.file_path)
        tasks.append(
            Task(id=module_id, file_path=entry.file_path, owner=entry.owner, status=entry.status)
        )
    return tasks

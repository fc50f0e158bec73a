"""Projection of the contract's technical sections into a machine-checkable kernel.

The kernel is what the orchestrator actually executes against: the API
entries keyed by module path, the classes they declare, and the inter-module
dependency digraph. A module is named by its ``File:`` path, normalized once
here by ``normalize_path``, the same function the workspace keys files by, so
a task id, a kernel key and a workspace path are one string. Every contract
mutation is projected before it is accepted; a projection or validation
failure is what lets the store refuse an action before it pollutes shared
state. A contract value is immutable, so ``project`` computes its kernel once
and keeps it on the value. A value derived from a projected parent re-reads
only the API entries whose lines changed and reuses the parent's for the rest
(``parse_api_section``'s basis), so a mutation's projection costs what it
changed rather than the section's size. The views that slice a contract for
one reader (``task_view``, ``review_view``) read an index of module paths to
lines that the value's first view builds and its kernel keeps, so a view
costs the size of its neighbourhood.

Contract method signatures are Python ``def`` headers. They are read by the
same ``ast`` reader (``read_signature``) that reads the generated code's
definitions, so contract and code agree on defaults (not part of a
signature), a leading ``self``/``cls`` (dropped), ``*args``/``**kw`` and the
``/``/``*`` markers (not recorded).
"""

from __future__ import annotations

import ast
import io
import logging
import posixpath
import re
import tokenize
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property

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
    # Half-open line interval of the entry in the section it was parsed from,
    # from its File line up to the next entry's File line (or the section
    # end); None for an entry that was not parsed.
    span: tuple[int, int] | None = field(default=None, compare=False)
    # Offset of the Status line from the span's start; None without one.
    status_line: int | None = field(default=None, compare=False)


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
    entries: dict[str, ApiSpecEntry]  # module path -> entry, in contract order
    classes: dict[str, tuple[str, ClassSpec]]  # class name -> (owning module path, class)
    dependencies: dict[str, tuple[str, ...]]  # declared edges, module path -> successors
    derived_edges: tuple[tuple[str, str], ...] = ()  # implied by cross-entry type refs
    # Line index -> resolved endpoints of each edge line of the diagram, and
    # line index -> kernel paths named by a Directory Structure line.
    edge_lines: dict[int, tuple[str, str]] = field(default_factory=dict)
    directory_lines: dict[int, frozenset[str]] = field(default_factory=dict)
    # The inverted index views read, filled by a view of the contract value
    # this kernel was projected from (``_view_index``).
    _views: "_ViewIndex | None" = field(default=None, init=False, repr=False, compare=False)

    @cached_property
    def classes_by_lower(self) -> dict[str, str]:
        """Lower-cased class name -> class name, built on first use."""
        return {name.lower(): name for name in self.classes}


class PathViolation(ValueError):
    """A path escapes the workspace root or is otherwise unusable."""


def normalize_path(path: str) -> str:
    """The one spelling of a module path: the ``File:`` path of a contract
    entry, a task id and a workspace file path all go through here."""
    cleaned = path.strip().replace("\\", "/")
    if not cleaned:
        raise PathViolation("empty path")
    if cleaned.startswith("/") or re.match(r"^[A-Za-z]:", cleaned):
        raise PathViolation(f"absolute path not allowed: {path!r}")
    normalized = posixpath.normpath(cleaned)
    if normalized == "." or normalized.startswith("../") or normalized == "..":
        raise PathViolation(f"path escapes the workspace root: {path!r}")
    return normalized


# --- signature reader: one for contract headers and generated code -------------

_OPENERS = "([{"
_CLOSERS = ")]}"


def without_comments(pieces: list[str]) -> list[str]:
    """The lines of a wrapped node's source, each cut where a ``#`` comment
    starts. The lines are tokenized inside parentheses, so every line break is
    a continuation; a ``#`` inside a string literal is no comment and stays."""
    cuts: dict[int, int] = {}
    source = "(" + "\n".join(pieces) + ")"
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT:
            row, col = token.start
            cuts[row - 1] = col - 1 if row == 1 else col
    return [piece[: cuts[i]] if i in cuts else piece for i, piece in enumerate(pieces)]


def source_text(node: ast.expr, lines: list[bytes]) -> str:
    """A node's source text with whitespace collapsed.

    Annotations are compared as written (``Tuple[int,int]`` stays as is), so
    the text is sliced from the source rather than unparsed. A wrapped
    annotation is joined back onto one line without its comments: no space
    after an opening or before a closing bracket, and a trailing comma before
    a closing bracket dropped, so black's three-line ``list[`` /
    ``list[int],`` / ``]`` reads ``list[list[int]]``. Offsets are UTF-8 byte
    columns, hence the byte lines.
    """
    first, last = node.lineno - 1, node.end_lineno - 1
    if first == last:
        return " ".join(lines[first][node.col_offset : node.end_col_offset].decode().split())
    pieces = [lines[first][node.col_offset :], *lines[first + 1 : last], lines[last][: node.end_col_offset]]
    text = ""
    for raw in without_comments([piece.decode() for piece in pieces]):
        piece = " ".join(raw.split())
        if not piece:
            continue
        if text.endswith(",") and piece[0] in _CLOSERS:
            text = text[:-1] + piece
        elif not text or text[-1] in _OPENERS or piece[0] in _CLOSERS:
            text += piece
        else:
            text += " " + piece
    return text


def _parameters(node: ast.FunctionDef | ast.AsyncFunctionDef) -> list[ast.arg]:
    """Every parameter in source order, a leading ``self``/``cls`` dropped."""
    args = node.args
    params = [a for a in (*args.posonlyargs, *args.args, args.vararg, *args.kwonlyargs, args.kwarg) if a is not None]
    return params[1:] if params and params[0].arg in ("self", "cls") else params


def read_signature(node: ast.FunctionDef | ast.AsyncFunctionDef, lines: list[bytes]) -> MethodSig:
    """Untyped parameters read "any" and a missing return annotation "None"."""
    params = tuple(
        (a.arg, "any" if a.annotation is None else source_text(a.annotation, lines)) for a in _parameters(node)
    )
    returns = "None" if node.returns is None else source_text(node.returns, lines)
    return MethodSig(name=node.name, params=params, return_type=returns)


def parse_signature(text: str) -> MethodSig:
    """Read one contract header such as ``def move(dx: int) -> None``.

    Every parameter but a leading ``self``/``cls`` and the return must be
    annotated; a default is not part of the signature. Columns are 1-based.
    """
    indent = len(text) - len(text.lstrip())
    header = text.strip().removesuffix(":")
    source = header + ": ..."
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        raise SignatureError(exc.msg, indent + (exc.offset or 1)) from None
    if len(tree.body) != 1 or not isinstance(tree.body[0], ast.FunctionDef):
        raise SignatureError("expected one 'def NAME(...) -> TYPE'", indent + 1)
    node = tree.body[0]
    if node.returns is None:
        raise SignatureError("expected '-> TYPE' after parameter list", indent + len(header) + 1)
    for a in _parameters(node):
        if a.annotation is None:
            raise SignatureError(f"missing type for parameter {a.arg!r}", indent + a.col_offset + 1)
    return read_signature(node, [source.encode()])


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


_FILE_KEYS = ("file", "file path")


class _EntryBuilder:
    def __init__(self, path: str, start: int):
        self.path = path
        self.start = start
        self.owner = ""
        self.version = 0
        self.status = TaskStatus.TODO
        self.status_line: int | None = None
        self.classes: list[dict] = []
        self.seen_fields: set[str] = set()

    def build(self, end: int) -> ApiSpecEntry:
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
            span=(self.start, end),
            status_line=self.status_line,
        )


def parse_api_section(
    body: tuple[str, ...] | list[str], basis: LanguageContract | None = None
) -> list[ApiSpecEntry]:
    """The entries of a Symbolic API Specifications body, in section order.

    The body is read in chunks, each from a ``File:`` line up to the next
    ``File:`` line or the end. ``basis`` is a projected contract (one whose
    kernel ``project`` keeps) that this body was derived from. A chunk equal
    line for line to the span of the basis entry of the same path reuses that
    entry; the one line allowed to differ is the entry's Status line, which
    is re-read. Every other chunk goes through the parser, so a body gives
    the same entries, spans and ``ProjectionError`` with a basis as without
    one, and a derived value re-parses only the entries that changed.
    """
    fields = [parse_field_line(line) if line.strip() else None for line in body]
    starts = [i for i, parsed in enumerate(fields) if parsed is not None and parsed[0] in _FILE_KEYS]
    reusable: dict[str, ApiSpecEntry] = {}
    old_body: tuple[str, ...] = ()
    if basis is not None:
        reusable = basis._kernel.entries
        old_body = basis.body(SectionKey.API_SPECIFICATIONS)

    # Before the first entry any line but a blank one is an error.
    _parse_chunk(body, fields, 0, starts[0] if starts else len(body), None)
    entries: list[ApiSpecEntry] = []
    paths: set[str] = set()
    for start, end in zip(starts, [*starts[1:], len(body)]):
        value = fields[start][1]
        if not value:
            raise ProjectionError("File field without a path", start + 1)
        try:
            path = normalize_path(value.strip('"'))
        except PathViolation as exc:
            raise ProjectionError(str(exc), start + 1) from None
        if path in paths:
            raise ProjectionError(f"duplicate File entry: {path}", start + 1)
        paths.add(path)
        old = reusable.get(path)
        entry = None if old is None else _reused(old, old_body, body, fields, start, end)
        if entry is None:
            builder = _EntryBuilder(path, start)
            _parse_chunk(body, fields, start + 1, end, builder)
            entry = builder.build(end)
        entries.append(entry)
    return entries


def _reused(
    old: ApiSpecEntry,
    old_body: tuple[str, ...],
    body: tuple[str, ...] | list[str],
    fields: list[tuple[str, str] | None],
    start: int,
    end: int,
) -> ApiSpecEntry | None:
    """``old`` moved to ``[start, end)`` with the status read there, when the
    chunk equals its span but for the Status line; otherwise None."""
    old_lines = old_body[slice(*old.span)]
    lines = tuple(body[start:end])
    at = old.status_line
    if at is not None:
        lines = lines[:at] + old_lines[at : at + 1] + lines[at + 1 :]
    if lines != old_lines:
        return None
    status = old.status
    if at is not None:
        parsed = fields[start + at]
        if parsed is None or parsed[0] != "status":
            return None
        try:
            status = TaskStatus(parsed[1].strip('"').upper())
        except ValueError:
            return None  # the parser raises the error
    if status is old.status and old.span == (start, end):
        return old
    return replace(old, status=status, span=(start, end))


def _parse_chunk(
    body: tuple[str, ...] | list[str],
    fields: list[tuple[str, str] | None],
    first: int,
    end: int,
    entry: _EntryBuilder | None,
) -> None:
    """Read lines ``[first, end)``, none of them a ``File:`` line, into
    ``entry``, the entry whose ``File:`` line precedes them (None before the
    first one). Line numbers in errors are 1-based in the whole body."""
    block: str | None = None  # None | "attrs" | "methods"
    for index in range(first, end):
        line = body[index]
        if not line.strip():
            continue
        lineno = index + 1
        parsed = fields[index]
        key = parsed[0] if parsed else None

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
                entry.status_line = index - entry.start
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


def print_api_section(entries: list[ApiSpecEntry] | tuple[ApiSpecEntry, ...]) -> list[str]:
    """Canonical re-rendering. ``parse_api_section`` inverts it, except for a
    type spelled with ``|``: the attribute line ``x: int | None | doc`` reads
    back as type ``int``, and the method line ``def f(y: int | None) -> int``
    does not parse, since ``|`` also separates the description."""
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


def parse_dependency_edges(body: tuple[str, ...] | list[str]) -> list[tuple[int, str, str]]:
    """Extract ``A --> B`` edges as (line index, A, B); other diagram syntax is
    ignored with a warning."""
    edges: list[tuple[int, str, str]] = []
    for index, line in enumerate(body):
        stripped = line.strip()
        if not stripped or stripped.startswith("```") or _DIAGRAM_NOISE_RE.match(stripped):
            continue
        m = _EDGE_RE.match(stripped)
        if m is None:
            logger.warning("ignoring unrecognized dependency line: %r", stripped)
            continue
        edges.append((index, _clean_endpoint(m.group(1)), _clean_endpoint(m.group(2))))
    return edges


def _resolve_endpoint(name: str, entries: dict[str, ApiSpecEntry]) -> str:
    dotted = name.replace(".", "/")
    for candidate in (name, dotted, dotted + ".py"):
        try:
            path = normalize_path(candidate)
        except PathViolation:
            continue
        if path in entries:
            return path
    stem_matches = [
        path
        for path in entries
        if path.rsplit("/", 1)[-1].rsplit(".", 1)[0] == name.strip()
    ]
    if len(stem_matches) == 1:
        return stem_matches[0]
    raise UnknownEdgeEndpoint(f"dependency edge endpoint {name!r} is not a known module")


# --- directory listing ---------------------------------------------------------

# Whatever separates a path from the text around it on a listing line:
# whitespace, tree drawing, code quotes and punctuation.
_LISTING_SEPARATORS_RE = re.compile(r"[\s`'\"|,;:()<>*─│├└]+")


def _directory_lines(body: tuple[str, ...], entries: dict[str, ApiSpecEntry]) -> dict[int, frozenset[str]]:
    """Line index -> the kernel paths a Directory Structure line names."""
    named: dict[int, frozenset[str]] = {}
    for index, line in enumerate(body):
        paths = set()
        for token in _LISTING_SEPARATORS_RE.split(line):
            if "/" in token or "\\" in token:  # only such a token can change spelling
                try:
                    token = normalize_path(token)
                except PathViolation:
                    continue
            if token in entries:
                paths.add(token)
        if paths:
            named[index] = frozenset(paths)
    return named


# --- projection and validation ------------------------------------------------


def project(contract: LanguageContract) -> SymbolicKernel:
    """Project the API and dependency sections into the kernel.

    A contract value never changes, so its kernel is computed once and kept
    on the value; a projection that raises is not kept. A value derived from
    a projected one (``with_section``, ``patches.commit_merge``) reuses its
    basis's API entries for the chunks that did not change, and drops the
    basis once its own kernel is kept, so no value holds more than its
    parent and no revision history accumulates.
    """
    if contract._kernel is None:
        object.__setattr__(contract, "_kernel", _project(contract))
        object.__setattr__(contract, "_basis", None)
    return contract._kernel


def _project(contract: LanguageContract) -> SymbolicKernel:
    parsed = parse_api_section(contract.body(SectionKey.API_SPECIFICATIONS), contract._basis)
    entries = {e.file_path: e for e in parsed}
    classes: dict[str, tuple[str, ClassSpec]] = {}
    for path, entry in entries.items():
        for cls in entry.classes:
            if cls.name in classes:
                raise ProjectionError(f"class {cls.name} declared in both {classes[cls.name][0]} and {path}")
            classes[cls.name] = (path, cls)

    declared: dict[str, set[str]] = {path: set() for path in entries}
    edge_lines: dict[int, tuple[str, str]] = {}
    for index, left, right in parse_dependency_edges(list(contract.body(SectionKey.DEPENDENCY_RELATIONSHIPS))):
        src = _resolve_endpoint(left, entries)
        dst = _resolve_endpoint(right, entries)
        edge_lines[index] = (src, dst)
        if src != dst:
            declared[src].add(dst)

    derived: set[tuple[str, str]] = set()
    for path, entry in entries.items():
        for cls in entry.classes:
            referenced: set[str] = set()
            for attr in cls.attributes:
                referenced.add(type_head(attr.type_name))
            for sig in cls.methods:
                referenced.add(type_head(sig.return_type))
                referenced.update(type_head(t) for _, t in sig.params)
            for ref in referenced & classes.keys():
                owner = classes[ref][0]
                if owner != path and owner not in declared[path]:
                    derived.add((path, owner))

    return SymbolicKernel(
        entries=entries,
        classes=classes,
        dependencies={path: tuple(sorted(declared[path])) for path in sorted(entries)},
        derived_edges=tuple(sorted(derived)),
        edge_lines=edge_lines,
        directory_lines=_directory_lines(contract.body(SectionKey.DIRECTORY_STRUCTURE), entries),
    )


# --- views: the lines one dispatch reads ----------------------------------------

# Section -> the ascending base line indices a reader is shown.
ContractView = dict[SectionKey, tuple[int, ...]]

# The sections a view may cut; every other section is shown whole.
_SLICED = (SectionKey.API_SPECIFICATIONS, SectionKey.DIRECTORY_STRUCTURE, SectionKey.DEPENDENCY_RELATIONSHIPS)


@dataclass(frozen=True)
class _ViewIndex:
    """A contract value's kernel, inverted for views: each lookup a view makes
    costs the size of the neighbourhood it reads, not of the contract."""

    whole: dict[SectionKey, tuple[int, ...]]  # every line of each section no view cuts
    neighbourhood: dict[str, frozenset[str]]  # path -> itself and its direct dependencies
    directory: dict[str, tuple[int, ...]]  # path -> the Directory Structure lines naming it
    directory_free: tuple[int, ...]  # the Directory Structure lines naming no kernel path
    diagram: dict[str, tuple[int, ...]]  # path -> the edge lines it is an endpoint of
    diagram_free: tuple[int, ...]  # the diagram lines that are not edges
    entry_end: dict[int, int]  # an API entry's File line -> the end of its span


def _view_index(contract: LanguageContract) -> tuple[SymbolicKernel, _ViewIndex]:
    """The value's kernel and its view index. The index is built on the
    kernel's first view and kept on the kernel, as ``project`` keeps the
    kernel on the value; a projection that never serves a view builds none."""
    kernel = project(contract)
    if kernel._views is None:
        object.__setattr__(kernel, "_views", _build_view_index(contract, kernel))
    return kernel, kernel._views


def _build_view_index(contract: LanguageContract, kernel: SymbolicKernel) -> _ViewIndex:
    neighbourhood = {path: {path, *successors} for path, successors in kernel.dependencies.items()}
    for src, dst in kernel.derived_edges:
        neighbourhood[src].add(dst)
    directory_lines, edge_lines = kernel.directory_lines, kernel.edge_lines
    directory: dict[str, list[int]] = {}
    for index, paths in directory_lines.items():
        for path in paths:
            directory.setdefault(path, []).append(index)
    diagram: dict[str, list[int]] = {}
    for index, endpoints in edge_lines.items():
        for path in set(endpoints):
            diagram.setdefault(path, []).append(index)
    sizes = {key: len(body) for key, body in contract.sections.items()}
    return _ViewIndex(
        whole={key: tuple(range(size)) for key, size in sizes.items() if key not in _SLICED},
        neighbourhood={path: frozenset(paths) for path, paths in neighbourhood.items()},
        directory={path: tuple(lines) for path, lines in directory.items()},
        directory_free=tuple(i for i in range(sizes[SectionKey.DIRECTORY_STRUCTURE]) if i not in directory_lines),
        diagram={path: tuple(lines) for path, lines in diagram.items()},
        diagram_free=tuple(i for i in range(sizes[SectionKey.DEPENDENCY_RELATIONSHIPS]) if i not in edge_lines),
        entry_end=dict(entry.span for entry in kernel.entries.values()),
    )


def full_view(contract: LanguageContract) -> ContractView:
    """Every line of every section: what the auditor's write-back addresses."""
    return {key: tuple(range(len(body))) for key, body in contract.sections.items()}


def task_view(contract: LanguageContract, task_id: str) -> ContractView:
    """The lines a worker or critic of ``task_id`` reads and writes back through.

    The neighbourhood is the task's module and its direct dependencies: the
    declared edges and the derived edges out of it, never the transitive
    closure, so a view stays the same size however long the chain behind it.
    Every section is shown whole except three. Symbolic API Specifications
    keeps the lines before its first entry and the neighbourhood's entries;
    Directory Structure drops the lines that name a kernel path outside the
    neighbourhood; Dependency Relationships drops the edge lines with an
    endpoint outside it. Blank lines left at either end of a section's view
    are trimmed, as they are from an action's content. The lines are looked
    up through the value's view index, so a view costs the size of its
    neighbourhood (and of the lines that name no module).
    """
    kernel, index = _view_index(contract)
    shown = index.neighbourhood.get(task_id, frozenset({task_id}))
    view = dict(index.whole)

    api = contract.body(SectionKey.API_SPECIFICATIONS)
    lines = list(range(_first_entry_line(kernel, api)))
    for span in sorted(kernel.entries[path].span for path in shown if path in kernel.entries):
        lines.extend(range(*span))
    view[SectionKey.API_SPECIFICATIONS] = _trimmed(api, lines)

    named = {i for path in shown for i in index.directory.get(path, ()) if kernel.directory_lines[i] <= shown}
    view[SectionKey.DIRECTORY_STRUCTURE] = _trimmed(
        contract.body(SectionKey.DIRECTORY_STRUCTURE), sorted(named.union(index.directory_free))
    )

    named = {i for path in shown for i in index.diagram.get(path, ()) if shown.issuperset(kernel.edge_lines[i])}
    view[SectionKey.DEPENDENCY_RELATIONSHIPS] = _trimmed(
        contract.body(SectionKey.DEPENDENCY_RELATIONSHIPS), sorted(named.union(index.diagram_free))
    )
    return view


def review_view(contract: LanguageContract) -> ContractView:
    """The lines the plan reviewer reads and writes back through.

    Every section is shown whole except Symbolic API Specifications, which
    keeps the lines before its first entry, every entry's ``File:`` line, and
    the whole entries that ``validate`` names (INCOMPLETE, TYPE_UNDEFINED)
    together with their direct neighbourhoods, the ones ``task_view`` shows.
    The reviewer sees every module of the plan and the detail of the ones it
    has to rectify, so its prompt grows by a line per module rather than by
    an entry per module.
    """
    kernel, index = _view_index(contract)
    flagged = set()
    for violation in validate(kernel):
        if violation.kind is ViolationKind.INCOMPLETE:
            flagged.add(violation.subject)
        elif violation.kind is ViolationKind.TYPE_UNDEFINED:
            flagged.add(violation.subject.rsplit("::", 1)[0])
    whole = frozenset().union(*(index.neighbourhood[path] for path in flagged if path in index.neighbourhood))
    view = full_view(contract)

    api = contract.body(SectionKey.API_SPECIFICATIONS)
    lines = list(range(_first_entry_line(kernel, api)))
    for path, entry in kernel.entries.items():  # in section order
        if path in whole:
            lines.extend(range(*entry.span))
        else:
            lines.append(entry.span[0])
    view[SectionKey.API_SPECIFICATIONS] = _trimmed(api, lines)
    return view


def entry_extents(contract: LanguageContract, shown: tuple[int, ...]) -> dict[int, int]:
    """The API entries ``shown`` (a view of the Symbolic API Specifications)
    shows by their ``File:`` line alone, as that line -> the end of the entry.

    ``review_view`` shows every entry it does not flag this way. An edit
    placed through the view treats such a line as the whole entry
    (``patches.patches_for_action``): a module added after it lands after
    the entry, and deleting or replacing it deletes or replaces the entry.
    """
    size = len(contract.body(SectionKey.API_SPECIFICATIONS))
    if len(shown) == size:
        return {}
    _, index = _view_index(contract)
    extents = {}
    for line, following in zip(shown, [*shown[1:], size]):
        end = index.entry_end.get(line)
        if end is not None and following > line + 1:
            extents[line] = min(end, following)
    return extents


def _first_entry_line(kernel: SymbolicKernel, api: tuple[str, ...]) -> int:
    first = next(iter(kernel.entries.values()), None)
    return len(api) if first is None else first.span[0]


def _trimmed(body: tuple[str, ...], lines: list[int]) -> tuple[int, ...]:
    start, end = 0, len(lines)
    while start < end and not body[lines[start]].strip():
        start += 1
    while end > start and not body[lines[end - 1]].strip():
        end -= 1
    return tuple(lines[start:end])


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
    cycle = find_cycle(list(kernel.entries), kernel.dependencies)
    if cycle is not None:
        violations.append(
            Violation(ViolationKind.CYCLE, " -> ".join(cycle), "dependency graph contains a cycle")
        )

    for path, entry in kernel.entries.items():
        for cls in entry.classes:
            referenced: list[tuple[str, str]] = []
            for attr in cls.attributes:
                referenced.append((f"{cls.name}.{attr.name}", attr.type_name))
            for sig in cls.methods:
                referenced.append((f"{cls.name}.{sig.name} return", sig.return_type))
                referenced.extend((f"{cls.name}.{sig.name}({n})", t) for n, t in sig.params)
            for where, type_name in referenced:
                head = type_head(type_name)
                if head not in PRIMITIVE_TYPES and head not in kernel.classes:
                    violations.append(
                        Violation(
                            ViolationKind.TYPE_UNDEFINED,
                            f"{path}::{where}",
                            f"type {head!r} is neither primitive nor a declared class",
                        )
                    )
        methods = [sig for cls in entry.classes for sig in cls.methods]
        if not any(sig.docstring for sig in methods):
            violations.append(
                Violation(
                    ViolationKind.INCOMPLETE,
                    path,
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
    """One task per kernel entry, in path-lexicographic order."""
    return [Task(id=path, owner=e.owner, status=e.status) for path, e in sorted(kernel.entries.items())]

"""Projection of the contract's technical sections into a machine-checkable kernel.

The kernel is what the orchestrator actually executes against: the API
entries keyed by module path, the classes they declare, and the inter-module
dependency digraph. A module is named by its ``File:`` path, normalized once
here by ``normalize_path``, the same function the workspace keys files by, so
a task id, a kernel key and a workspace path are one string. Every contract
mutation is projected before it is accepted; a projection or validation
failure is what lets the store refuse an action before it pollutes shared
state. A contract value is immutable, so ``project`` computes its kernel once
and keeps it on the value. A revision projected through the projected
snapshot it was merged from (``patches.commit_merge``) reads field by field
only the API entries whose lines changed and reuses the snapshot's for the
rest (``parse_api_section``'s basis), and a revision that changes only
statuses shares the rest of the snapshot's kernel, so a mutation's
projection costs what it changed rather than the section's size. Within one
read each distinct line is read once: the Owner, Version, Status and block
lines of every entry repeat, and so do members that many classes share. Every reader but the planner and the auditor reads one kind
of view (``task_view``): the entries of a set of modules and of their
direct dependencies, with the Directory Structure and diagram lines inside
that neighbourhood. A worker or critic reads its task's; the plan reviewer
reads the modules validation flags (``review_view``). A view reads an index
of module paths to lines that is built with the kernel and shared with it,
so it costs the size of its neighbourhood.

Contract and code share one type model. Every type, of a contract attribute
or header or of a code annotation, is read by ``read_type`` into one canonical
text, the one that is compared, printed and cut to a head, so a spelling or
layout (``'Player'``, ``Optional[int]``, a wrapped ``List[...]``) is never a
mismatch. Contract method signatures are Python ``def`` headers, read by the
reader of the code's definitions (``read_signature``), so contract and code
agree on defaults (not part of a signature), a leading ``self``/``cls``
(dropped), ``*args``/``**kw`` and the ``/``/``*`` markers (not recorded).
"""

from __future__ import annotations

import ast
import logging
import posixpath
import re
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property, lru_cache
from itertools import compress, count

from .contract import LanguageContract, SectionKey, parse_field_line, read_status
from .tasks import TaskStatus

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

    @cached_property
    def text(self) -> str:
        """``print_signature`` of this signature, computed on first use."""
        return print_signature(self)


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

    @cached_property
    def member_heads(self) -> tuple[tuple[str, str], ...]:
        """``(where, head)`` for each union alternative of each member type,
        attributes first (``list[Game]`` has the head ``list``). Computed on
        first use, so every projection that keeps the class reuses it."""
        typed = [(f"{self.name}.{a.name}", a.type_name) for a in self.attributes]
        for sig in self.methods:
            typed.append((f"{self.name}.{sig.name} return", sig.return_type))
            typed.extend((f"{self.name}.{sig.name}({n})", t) for n, t in sig.params)
        return tuple((where, type_head(alternative)) for where, t in typed for alternative in _outer_bars(t))


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
    derived_edges: tuple[tuple[str, str], ...]  # implied by cross-entry type refs
    views: _ViewIndex = field(repr=False, compare=False)  # what ``task_view`` reads

    @cached_property
    def violations(self) -> tuple[Violation, ...]:
        """What ``validate`` finds in this kernel, computed on first use."""
        return tuple(validate(self))


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


# --- type and signature readers: one for contract and generated code ----------

_TYPING_ALIASES = {"List": "list", "Dict": "dict", "Tuple": "tuple", "Set": "set", "Any": "any"}


def read_type(node: ast.expr) -> str:
    """The canonical text of a type, which contract and code both compare,
    print and take heads from: a forward reference unquoted (not inside
    ``Literal[...]``), no ``typing.`` prefix, ``Optional[X]`` as ``X | None``,
    ``Union[A, B]`` as ``A | B``, ``List``/``Dict``/``Tuple``/``Set`` as the
    builtins, ``Any`` as ``any`` and a one-element subscript tuple (black's
    trailing comma) as its element; the rest is unparsed, without layout or
    comments. A node nested too deep for the reader raises RecursionError."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "typing":
        node = ast.Name(node.attr)
    if isinstance(node, ast.Name):
        return _TYPING_ALIASES.get(node.id, node.id)
    if isinstance(node, ast.Constant) and isinstance(node.value, str):  # a forward reference
        try:
            return read_type(ast.parse(node.value.strip(), mode="eval").body)
        except (SyntaxError, ValueError):
            return ast.unparse(node)  # not an expression: kept as written
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return f"{read_type(node.left)} | {read_type(node.right)}"
    if isinstance(node, ast.List):  # the parameter list of a Callable
        return f"[{', '.join(map(read_type, node.elts))}]"
    if not isinstance(node, ast.Subscript):
        return ast.unparse(node)
    head = read_type(node.value)
    items = node.slice.elts if isinstance(node.slice, ast.Tuple) else [node.slice]
    if head == "Literal":  # its strings are values, not references
        return f"Literal[{', '.join(map(ast.unparse, items))}]"
    texts = [read_type(item) for item in items]
    if head == "Optional" and len(texts) == 1:
        return f"{texts[0]} | None"
    if head == "Union" and texts:
        return " | ".join(texts)
    return f"{head}[{', '.join(texts) or '()'}]"


@lru_cache(maxsize=4096)
def _read_type_text(text: str) -> str:
    """``read_type`` of a type written as text (SyntaxError or ValueError if it
    is no Python expression), read once: contract revisions repeat types."""
    return read_type(ast.parse(text, mode="eval").body)


def _parameters(node: ast.FunctionDef | ast.AsyncFunctionDef) -> list[ast.arg]:
    """Every parameter in source order, a leading ``self``/``cls`` dropped."""
    args = node.args
    params = [a for a in (*args.posonlyargs, *args.args, args.vararg, *args.kwonlyargs, args.kwarg) if a is not None]
    return params[1:] if params and params[0].arg in ("self", "cls") else params


def read_signature(node: ast.FunctionDef | ast.AsyncFunctionDef) -> MethodSig:
    """Untyped parameters read "any" and a missing return annotation "None"."""
    params = tuple((a.arg, "any" if a.annotation is None else read_type(a.annotation)) for a in _parameters(node))
    returns = "None" if node.returns is None else read_type(node.returns)
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
    return read_signature(node)


def print_signature(sig: MethodSig) -> str:
    params = ", ".join(f"{n}: {t}" for n, t in sig.params)
    return f"def {sig.name}({params}) -> {_printed_type(sig.return_type)}"


_STRING_RE = re.compile(r"'(?:[^'\\]|\\.)*'" r'|"(?:[^"\\]|\\.)*"')


def _outer_bars(text: str) -> list[str]:
    """``text`` cut at each ``|`` outside brackets and string literals: a
    contract line's description follows the first, and a union's
    alternatives are cut apart."""
    pieces, start, at = [], 0, text.find("|")
    while at >= 0:
        piece = text[start:at]
        if "'" in piece or '"' in piece:  # a quote left over opens the literal the bar is in
            piece = _STRING_RE.sub("", piece)
        if sum(map(piece.count, "([{'\"")) == sum(map(piece.count, ")]}")):
            pieces.append(text[start:at])
            start = at + 1
        at = text.find("|", at + 1)
    return [*pieces, text[start:]]


def _printed_type(type_name: str) -> str:
    """A type as a contract line prints it, a union in parentheses."""
    return f"({type_name})" if "|" in type_name and len(_outer_bars(type_name)) > 1 else type_name


def type_head(type_name: str) -> str:
    """The head symbol of a canonical type: ``list`` of ``list[int]``."""
    return type_name.strip().partition("[")[0].partition(" ")[0]


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
#           - target: (Player | None) | Who is chased, if anyone.
#         Methods:
#           - def move(dx: int) -> None | Shift the player.
#
# Bullets, indentation and bold markers are not significant; the field names
# are. Attribute and method lines are only meaningful inside their blocks, and
# an attribute may be named like a field (``_parse_chunk``): a ``file``
# attribute, or an ``owner``, ``version`` or ``status`` one in an entry
# without that field, is told from the field by its indentation
# (``_names_an_attribute``). A description follows the first ``|`` outside
# brackets and string literals, so a union type is printed in parentheses. An
# attribute type is a Python expression.

_ATTR_LINE_RE = re.compile(r"^\s*-\s*([A-Za-z_]\w*)\s*:(.*)$")
_METHOD_LINE_RE = re.compile(r"^\s*-\s*(def\s.*)$")


_FILE_KEYS = ("file", "file path")
_BLOCK_KEYS = ("classes", "attributes", "methods")
_ENTRY_FIELDS = ("owner", "version", "status")
_FIELD_NAMES = frozenset((*_ENTRY_FIELDS, *_BLOCK_KEYS))  # an attribute may be named like one


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


# A line ``parse_field_line`` reads as a File field starts with these letters,
# in either case, once it strips blanks, a bullet and every ``*``: a superset
# of those lines, matched against each line without a Python-level loop.
_FILE_HINT_RE = re.compile(r"[\s*-]*[Ff]\**[Ii]\**[Ll]\**[Ee]")


def _file_fields(body: tuple[str, ...] | list[str]) -> list[tuple[int, str]]:
    """``(index, value)`` of each line ``parse_field_line`` reads as a File
    field; only the lines ``_FILE_HINT_RE`` matches are read."""
    found: list[tuple[int, str]] = []
    for index in compress(count(), map(_FILE_HINT_RE.match, body)):
        parsed = parse_field_line(body[index])
        if parsed is not None and parsed[0] in _FILE_KEYS:
            found.append((index, parsed[1]))
    return found


def _names_an_attribute(body: tuple[str, ...] | list[str], index: int) -> bool:
    """Whether the field line at ``index`` is an attribute named like its
    field (``file`` or an entry field): an attribute line indented deeper
    than the ``Attributes:`` line above it, with only blank lines and
    attribute lines of its own indentation (none a File line) between them.
    A File line at the margin starts an entry."""
    line = body[index]
    indent = len(line) - len(line.lstrip())
    if not indent or not _ATTR_LINE_RE.match(line.replace("*", "")):
        return False
    for above in range(index - 1, -1, -1):
        text = body[above].rstrip()
        if not text:
            continue
        parsed = parse_field_line(text)
        depth = len(text) - len(text.lstrip())
        if depth < indent:
            return parsed == ("attributes", "")
        if depth > indent or not _ATTR_LINE_RE.match(text.replace("*", "")) or parsed and parsed[0] in _FILE_KEYS:
            return False
    return False


def parse_api_section(
    body: tuple[str, ...] | list[str], basis: LanguageContract | None = None
) -> list[ApiSpecEntry]:
    """The entries of a Symbolic API Specifications body, in section order.

    The body is read in chunks, each from a ``File:`` line up to the next
    ``File:`` line or the end. ``basis`` is a projected contract (one whose
    kernel ``project`` keeps) that this body was derived from. A body equal
    to the basis's gives the basis's entries. Otherwise a chunk equal line
    for line to the span of the basis entry of the same path reuses that
    entry; the one line allowed to differ is the entry's Status line, which
    is re-read when it changed. Only the other chunks are read field by
    field, and the ``File:`` lines are found without reading the rest, so a
    body gives the same entries, spans and ``ProjectionError`` with a basis
    as without one, and a derived value reads only the lines that changed.
    Each distinct line is read once per call (``_LineReads``): a line that
    repeats, as the Owner, Version, Status and block lines of every entry
    and the members shared by many classes do, takes its field, attribute or
    method reading from the call's line map. The checks that depend on where
    a line stands run at each occurrence, in line order, so every error
    raises at the line it did without the map, and a bad line raises at its
    first occurrence.
    """
    reusable: dict[str, ApiSpecEntry] = {}
    old_body: tuple[str, ...] = ()
    if basis is not None:
        reusable = basis._kernel.entries
        old_body = basis.body(SectionKey.API_SPECIFICATIONS)
        if tuple(body) == old_body:
            return list(reusable.values())
    found = [(index, value) for index, value in _file_fields(body) if not _names_an_attribute(body, index)]
    starts = [index for index, _ in found]
    reads = _LineReads()

    # Before the first entry any line but a blank one is an error.
    _parse_chunk(body, 0, starts[0] if starts else len(body), None, reads)
    entries: list[ApiSpecEntry] = []
    paths: set[str] = set()
    for (start, value), end in zip(found, [*starts[1:], len(body)]):
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
        entry = None if old is None else _reused(old, old_body, body[start:end], start, end, reads)
        if entry is None:
            builder = _EntryBuilder(path, start)
            _parse_chunk(body, start + 1, end, builder, reads)
            entry = builder.build(end)
        entries.append(entry)
    return entries


def _reused(
    old: ApiSpecEntry,
    old_body: tuple[str, ...],
    lines: tuple[str, ...] | list[str],
    start: int,
    end: int,
    reads: _LineReads,
) -> ApiSpecEntry | None:
    """``old`` moved to ``[start, end)`` with the status read there, when the
    chunk ``lines`` equals its span but for the Status line; otherwise None.
    The Status line is read through the call's line map ``reads``; one that
    may be an attribute (``_names_an_attribute``) is left to the parser."""
    old_lines = old_body[slice(*old.span)]
    lines = tuple(lines)
    at = old.status_line
    status = old.status
    if at is not None and at < len(lines) and lines[at] != old_lines[at]:
        parsed = reads.field(lines[at])
        if parsed is None or parsed[0] != "status" or _names_an_attribute(lines, at):
            return None
        status = read_status(parsed[1])
        if status is None:
            return None  # the parser raises the error
        lines = lines[:at] + old_lines[at : at + 1] + lines[at + 1 :]
    if lines != old_lines:
        return None
    if status is old.status and old.span == (start, end):
        return old
    return replace(old, status=status, span=(start, end))


class _LineReads:
    """What one ``parse_api_section`` call has read each distinct line as:
    its ``parse_field_line`` reading, and, in an Attributes or Methods block,
    its attribute or method (docstring included). Only readings are kept,
    never a check that depends on the entry or block a line stands in, and
    only a reading that succeeded, so a bad line raises where it first
    occurs."""

    def __init__(self) -> None:
        self.fields: dict[str, tuple[str, str] | None] = {}
        self.attributes: dict[str, AttributeSpec] = {}
        self.methods: dict[str, MethodSig] = {}

    def field(self, line: str) -> tuple[str, str] | None:
        try:
            return self.fields[line]
        except KeyError:
            parsed = self.fields[line] = parse_field_line(line)
            return parsed

    def attribute(self, line: str, lineno: int) -> AttributeSpec:
        spec = self.attributes.get(line)
        if spec is None:
            m = _ATTR_LINE_RE.match(line.replace("*", ""))
            if m is None:
                raise ProjectionError(f"unparseable attribute line: {line.strip()!r}", lineno)
            name, (text, *desc) = m.group(1), _outer_bars(m.group(2))
            try:
                type_name = _read_type_text(text.strip())
            except (SyntaxError, ValueError, RecursionError, MemoryError):
                raise ProjectionError(f"attribute type is not a Python expression: {text.strip()!r}", lineno) from None
            spec = self.attributes[line] = AttributeSpec(name, type_name, "|".join(desc).strip())
        return spec

    def method(self, line: str, lineno: int) -> MethodSig:
        sig = self.methods.get(line)
        if sig is None:
            m = _METHOD_LINE_RE.match(line.replace("*", ""))
            if m is None:
                raise ProjectionError(f"unparseable method line: {line.strip()!r}", lineno)
            header, *doc = _outer_bars(m.group(1))
            try:
                read = parse_signature(header)
            except (SignatureError, ValueError, RecursionError, MemoryError) as exc:
                raise ProjectionError(f"bad method signature: {exc}", lineno) from exc
            sig = self.methods[line] = MethodSig(read.name, read.params, read.return_type, "|".join(doc).strip())
        return sig


def _parse_chunk(
    body: tuple[str, ...] | list[str],
    first: int,
    end: int,
    entry: _EntryBuilder | None,
    reads: _LineReads,
) -> None:
    """Read lines ``[first, end)``, none of them a ``File:`` line, into
    ``entry``, the entry whose ``File:`` line precedes them (None before the
    first one). Line numbers in errors are 1-based in the whole body.
    ``reads`` holds what the call has read each distinct line as so far.

    Inside an Attributes block an attribute may be named like a field: a
    ``status``, ``owner`` or ``version`` line is an attribute when the entry
    already holds that field or when it is indented as a ``file`` attribute
    is (``_names_an_attribute``); at the margin or the block's own
    indentation it is the field. A ``classes``, ``attributes`` or ``methods``
    line that carries a type is an attribute too; without one it opens its
    block. A ``file`` line reaches a chunk only as an attribute."""
    block: str | None = None  # None | "attrs" | "methods"
    for index in range(first, end):
        line = body[index]
        if not line.strip():
            continue
        lineno = index + 1
        parsed = reads.field(line)
        key = parsed[0] if parsed else None
        if block == "attrs" and key in _FIELD_NAMES and (
            parsed[1] if key in _BLOCK_KEYS else key in entry.seen_fields or _names_an_attribute(body, index)
        ):
            key = None  # an attribute named like a field

        if key in _ENTRY_FIELDS:
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
                status = read_status(value)
                if status is None:
                    raise ProjectionError(f"unknown Status value: {value!r}", lineno)
                entry.status = status
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
            attr = reads.attribute(line, lineno)
            cls = entry.classes[-1]  # type: ignore[union-attr]
            if any(a.name == attr.name for a in cls["attributes"]):
                raise ProjectionError(f"duplicate attribute {attr.name} in class {cls['name']}", lineno)
            cls["attributes"].append(attr)
            continue
        if block == "methods":
            sig = reads.method(line, lineno)
            cls = entry.classes[-1]  # type: ignore[union-attr]
            if any(existing.name == sig.name for existing in cls["methods"]):
                raise ProjectionError(f"duplicate method {sig.name} in class {cls['name']}", lineno)
            cls["methods"].append(sig)
            continue

        raise ProjectionError(f"unparseable specification line: {line.strip()!r}", lineno)


def print_api_section(entries: list[ApiSpecEntry] | tuple[ApiSpecEntry, ...]) -> list[str]:
    """Canonical re-rendering; ``parse_api_section`` inverts it."""
    lines: list[str] = []
    for i, entry in enumerate(entries):
        if i:
            lines.append("")
        lines += (
            f"- File: {entry.file_path}",
            f"  Owner: {entry.owner}",
            f"  Version: {entry.version}",
            print_status(entry.status),
        )
        if entry.classes:
            lines.append("  Classes:")
        for cls in entry.classes:
            lines.append(f"    - Class: {cls.name}")
            if cls.attributes:
                lines.append("      Attributes:")
                for attr in cls.attributes:
                    desc = f" | {attr.description}" if attr.description else ""
                    lines.append(f"        - {attr.name}: {_printed_type(attr.type_name)}{desc}")
            if cls.methods:
                lines.append("      Methods:")
                for sig in cls.methods:
                    doc = f" | {sig.docstring}" if sig.docstring else ""
                    lines.append(f"        - {sig.text}{doc}")
    return lines


def print_status(status: TaskStatus) -> str:
    """An entry's Status line as ``print_api_section`` writes it."""
    return f"  Status: {status.value}"


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


def project(contract: LanguageContract, basis: LanguageContract | None = None) -> SymbolicKernel:
    """Project the API and dependency sections into the kernel.

    A contract value never changes, so its kernel is computed once and kept
    on the value; a projection that raises is not kept. A ``basis`` that has
    been projected, the snapshot a revision was merged from, makes it read
    field by field only the API entries whose lines changed and take the
    basis's entries for the rest (``parse_api_section``); an API section
    equal to the basis's is not read at all. When the revision keeps the
    basis's diagram, Directory Structure, entry paths and class tuples, as a
    Status-only write-back does, the basis kernel's classes, edges, view
    index and findings are shared (``_restamped``); otherwise they are read
    again. The kernel is the same with a basis as without one.
    """
    if contract._kernel is None:
        usable = basis if basis is not None and basis._kernel is not None else None
        object.__setattr__(contract, "_kernel", _project(contract, usable))
    return contract._kernel


def _project(contract: LanguageContract, basis: LanguageContract | None) -> SymbolicKernel:
    parsed = parse_api_section(contract.body(SectionKey.API_SPECIFICATIONS), basis)
    entries = {e.file_path: e for e in parsed}
    if basis is not None and _same_structure(contract, basis, entries):
        return _restamped(basis._kernel, entries)
    classes: dict[str, tuple[str, ClassSpec]] = {}
    for path, entry in entries.items():
        for cls in entry.classes:
            if cls.name in classes:
                raise ProjectionError(f"class {cls.name} declared in both {classes[cls.name][0]} and {path}")
            classes[cls.name] = (path, cls)

    declared: dict[str, set[str]] = {path: set() for path in entries}
    edge_lines: dict[int, frozenset[str]] = {}
    diagram = contract.body(SectionKey.DEPENDENCY_RELATIONSHIPS)
    for index, left, right in parse_dependency_edges(diagram):
        src = _resolve_endpoint(left, entries)
        dst = _resolve_endpoint(right, entries)
        edge_lines[index] = frozenset((src, dst))
        if src != dst:
            declared[src].add(dst)

    neighbourhood = {path: {path, *successors} for path, successors in declared.items()}
    derived: set[tuple[str, str]] = set()
    for path, entry in entries.items():
        for cls in entry.classes:
            for _, head in cls.member_heads:
                owner = classes[head][0] if head in classes else path
                if owner != path and owner not in declared[path]:
                    derived.add((path, owner))
                    neighbourhood[path].add(owner)

    directory = contract.body(SectionKey.DIRECTORY_STRUCTURE)
    views = _ViewIndex(
        neighbourhood={path: frozenset(paths) for path, paths in neighbourhood.items()},
        sections={
            SectionKey.DIRECTORY_STRUCTURE: _section_lines(_directory_lines(directory, entries), directory),
            SectionKey.DEPENDENCY_RELATIONSHIPS: _section_lines(edge_lines, diagram),
        },
    )
    return SymbolicKernel(
        entries=entries,
        classes=classes,
        dependencies={path: tuple(sorted(declared[path])) for path in sorted(entries)},
        derived_edges=tuple(sorted(derived)),
        views=views,
    )


def _same_structure(contract: LanguageContract, basis: LanguageContract, entries: dict[str, ApiSpecEntry]) -> bool:
    """Whether everything the kernel reads but the entries' statuses and spans
    is the basis's: the diagram and the Directory Structure bodies, the entry
    paths in order, and each entry's class tuple, the basis entry's own
    object (``_reused`` keeps it for a chunk that is unchanged)."""
    old = basis._kernel.entries
    return (
        len(entries) == len(old)
        and all(
            contract.body(key) == basis.body(key)
            for key in (SectionKey.DEPENDENCY_RELATIONSHIPS, SectionKey.DIRECTORY_STRUCTURE)
        )
        and all(
            path == old_path and entry.classes is old_entry.classes
            for (path, entry), (old_path, old_entry) in zip(entries.items(), old.items())
        )
    )


def _restamped(kernel: SymbolicKernel, entries: dict[str, ApiSpecEntry]) -> SymbolicKernel:
    """``kernel`` with ``entries`` in place of its own: the classes, edges,
    view index and findings, which read nothing else, are shared. The index
    holds no line of a section that a view shows whole, so a revision that
    edits only such a section (Constraints, say) shares it too."""
    restamped = replace(kernel, entries=entries)
    if "violations" in kernel.__dict__:  # found already: the same kernel finds the same
        restamped.__dict__["violations"] = kernel.violations
    return restamped


# --- views: the lines one dispatch reads ----------------------------------------

# Section -> the ascending base line indices a reader is shown.
ContractView = dict[SectionKey, tuple[int, ...]]

# The sections a view may cut; every other section is shown whole.
_SLICED = (SectionKey.API_SPECIFICATIONS, SectionKey.DIRECTORY_STRUCTURE, SectionKey.DEPENDENCY_RELATIONSHIPS)


@dataclass(frozen=True)
class _SectionLines:
    """The lines of a Directory Structure or diagram body by the kernel paths
    they name; an edge line names its endpoints."""

    named: dict[int, frozenset[str]]  # line -> the kernel paths it names
    lines: dict[str, tuple[int, ...]]  # path -> the lines naming it
    free: tuple[int, ...]  # the lines naming no kernel path


def _section_lines(named: dict[int, frozenset[str]], body: tuple[str, ...]) -> _SectionLines:
    lines: dict[str, list[int]] = {}
    for index, paths in named.items():
        for path in paths:
            lines.setdefault(path, []).append(index)
    free = tuple(i for i in range(len(body)) if i not in named)
    return _SectionLines(named, {path: tuple(indices) for path, indices in lines.items()}, free)


@dataclass(frozen=True)
class _ViewIndex:
    """A kernel inverted for views, built with it: each lookup a view makes
    costs the size of the neighbourhood it reads, not of the contract."""

    neighbourhood: dict[str, frozenset[str]]  # path -> itself and its direct dependencies
    sections: dict[SectionKey, _SectionLines]  # the Directory Structure and the diagram


def full_view(contract: LanguageContract) -> ContractView:
    """Every line of every section: what the planner reads and writes back through."""
    return {key: tuple(range(len(body))) for key, body in contract.sections.items()}


def task_view(contract: LanguageContract, *task_ids: str) -> ContractView:
    """The lines a reader of the modules ``task_ids`` reads and writes back through.

    The neighbourhood is the union, over those modules, of the module and its
    direct dependencies: the declared edges and the derived edges out of it,
    never the transitive closure, so a view stays the same size however long
    the chain behind it. Every section is shown whole except three. Symbolic
    API Specifications keeps the neighbourhood's entries, each whole;
    Directory Structure drops the lines that name a kernel path outside the
    neighbourhood; Dependency Relationships drops the edge lines with an
    endpoint outside it. Blank lines left at either end of a section's view
    are trimmed, as they are from an action's content. The lines are looked
    up through the kernel's view index (``SymbolicKernel.views``), so a view
    costs the size of its neighbourhood (and of the lines that name no
    module); a section shown whole is shown at the value's own length.
    """
    kernel = project(contract)
    index = kernel.views
    shown = frozenset().union(*(index.neighbourhood.get(path, {path}) for path in task_ids))
    view = {key: tuple(range(len(body))) for key, body in contract.sections.items() if key not in _SLICED}

    lines: list[int] = []
    for span in sorted(kernel.entries[path].span for path in shown if path in kernel.entries):
        lines.extend(range(*span))
    view[SectionKey.API_SPECIFICATIONS] = _trimmed(contract.body(SectionKey.API_SPECIFICATIONS), lines)

    for key, section in index.sections.items():
        named = {i for path in shown for i in section.lines.get(path, ()) if section.named[i] <= shown}
        view[key] = _trimmed(contract.body(key), sorted(named.union(section.free)))
    return view


def review_view(contract: LanguageContract) -> ContractView:
    """The lines the plan reviewer reads and writes back through: the task
    view of the modules ``validate`` flags INCOMPLETE. Every other module
    passed validation and is kept as drafted; the guard refuses a cycle or an
    undefined type before a reviewer is dispatched, so INCOMPLETE is the only
    finding a reviewer meets."""
    flagged = [v.subject for v in project(contract).violations if v.kind is ViolationKind.INCOMPLETE]
    return task_view(contract, *flagged)


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
    TYPE_UNDEFINED: a member type has a head (``ClassSpec.member_heads``)
    that is neither primitive nor a declared class.
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
            for where, head in cls.member_heads:
                if head not in PRIMITIVE_TYPES and head not in kernel.classes:
                    message = f"type {head!r} is neither primitive nor a declared class"
                    violations.append(Violation(ViolationKind.TYPE_UNDEFINED, f"{path}::{where}", message))
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


def guard_violations(contract: LanguageContract, basis: LanguageContract | None = None) -> list[Violation]:
    """Hard violations that reject a contract mutation (cycles, type safety),
    found in its projection through ``basis`` (``project``).

    INCOMPLETE findings are advisory and never block an action; a projection
    failure is reported as a blocking pseudo-violation.
    """
    try:
        kernel = project(contract, basis)
    except KernelError as exc:
        return [Violation(ViolationKind.TYPE_UNDEFINED, "projection", str(exc))]
    return [v for v in kernel.violations if v.kind is not ViolationKind.INCOMPLETE]

"""The generated repository: file units, symbol extraction, import resolution.

Symbols are read from the syntax tree of the standard ``ast`` module: the
auditor and the evaluation metrics need classes, attributes (constructor
assignments and class-body annotations), method signatures, imports and
attribute uses, and a real parser reads them regardless of layout (multi-line
signatures, decorators, docstrings, nested defs). Code is read into the
contract's own model: classes are ``kernel.ClassSpec`` values with
``AttributeSpec`` attributes, and signatures go through
``kernel.read_signature``, the reader that also reads the contract's headers.
Analyzers are pluggable per file extension; only ``.py`` has one, and files of
any other type yield no symbols.
"""

from __future__ import annotations

import ast
import logging
import posixpath
import re
from collections.abc import Callable
from dataclasses import dataclass

from .kernel import AttributeSpec, ClassSpec, MethodSig, read_signature, source_text

logger = logging.getLogger(__name__)

WHOLE_MODULE = "*"


class PathViolation(ValueError):
    """Commit path escapes the workspace root or is otherwise unusable."""


def normalize_path(path: str) -> str:
    cleaned = path.strip().replace("\\", "/")
    if not cleaned:
        raise PathViolation("empty path")
    if cleaned.startswith("/") or re.match(r"^[A-Za-z]:", cleaned):
        raise PathViolation(f"absolute path not allowed: {path!r}")
    normalized = posixpath.normpath(cleaned)
    if normalized == "." or normalized.startswith("../") or normalized == "..":
        raise PathViolation(f"path escapes the workspace root: {path!r}")
    return normalized


@dataclass(frozen=True)
class FileUnit:
    path: str
    body: str
    writer: str = ""
    layer: int = 0


@dataclass(frozen=True)
class ExtractedSymbols:
    classes: tuple[ClassSpec, ...] = ()
    functions: tuple[MethodSig, ...] = ()
    imports: tuple[tuple[str, str], ...] = ()  # (module path, symbol or WHOLE_MODULE)
    attribute_uses: tuple[tuple[str, str], ...] = ()  # (receiver name, attribute)
    toplevel_names: tuple[str, ...] = ()
    unanalyzable: bool = False


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)
_KEYWORD_RECEIVERS = {"self", "cls", "super"}


def _self_attributes(init: ast.FunctionDef | ast.AsyncFunctionDef, lines: list[bytes]) -> list[tuple[str, str]]:
    """``self.NAME [: TYPE] = ...`` targets anywhere in a constructor, in source order."""
    params = init.args.posonlyargs + init.args.args
    if not params:
        return []
    receiver = params[0].arg
    found: list[tuple[int, int, str, str]] = []
    for node in ast.walk(init):
        if isinstance(node, ast.Assign):
            targets, type_name = node.targets, "any"
        elif isinstance(node, ast.AnnAssign):
            targets, type_name = [node.target], source_text(node.annotation, lines)
        else:
            continue
        for target in targets:
            for item in target.elts if isinstance(target, ast.Tuple) else (target,):
                if isinstance(item, ast.Attribute) and isinstance(item.value, ast.Name) and item.value.id == receiver:
                    found.append((item.lineno, item.col_offset, item.attr, type_name))
    return [(name, type_name) for _, _, name, type_name in sorted(found)]


def _class(node: ast.ClassDef, lines: list[bytes]) -> ClassSpec:
    """Class-body annotations (dataclass fields) and constructor assignments
    are attributes, typed ``"any"`` when unannotated; the class body's own
    defs are methods. The first definition of a name wins, so a property's
    setter does not replace its getter."""
    attributes: dict[str, str] = {}
    methods: dict[str, MethodSig] = {}
    for item in node.body:
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            attributes.setdefault(item.target.id, source_text(item.annotation, lines))
        elif isinstance(item, _DEFS):
            methods.setdefault(item.name, read_signature(item, lines))
            if item.name == "__init__":
                for name, type_name in _self_attributes(item, lines):
                    attributes.setdefault(name, type_name)
    return ClassSpec(
        name=node.name,
        attributes=tuple(AttributeSpec(name, type_name) for name, type_name in attributes.items()),
        methods=tuple(methods.values()),
    )


def extract_symbols(unit: FileUnit) -> ExtractedSymbols:
    """Classes, signatures, imports and attribute uses of one Python module.

    Classes are found at any depth; functions and top-level names are the
    module's own statements (defs, classes, assigned and imported names; a
    package's ``__init__.py`` re-exports what it imports). A body that does
    not parse is unanalyzable; so is one nested too deep for the parser,
    which reports that as RecursionError or MemoryError.
    """
    try:
        tree = ast.parse(unit.body)
        lines = unit.body.encode("utf-8").splitlines()
    except (SyntaxError, ValueError, TypeError, RecursionError, MemoryError):
        return ExtractedSymbols(unanalyzable=True)

    classes: list[ClassSpec] = []
    imports: list[tuple[str, str]] = []
    uses: list[tuple[int, int, str, str]] = []  # source position first: the walk is breadth-first
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id not in _KEYWORD_RECEIVERS:
                uses.append((node.lineno, node.col_offset, node.value.id, node.attr))
        elif isinstance(node, ast.ClassDef):
            classes.append(_class(node, lines))
        elif isinstance(node, ast.Import):
            imports.extend((alias.name, WHOLE_MODULE) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            imports.extend((module, WHOLE_MODULE if alias.name == "*" else alias.name) for alias in node.names)

    functions: list[MethodSig] = []
    toplevel: list[str] = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            toplevel.append(node.name)
        elif isinstance(node, _DEFS):
            functions.append(read_signature(node, lines))
            toplevel.append(node.name)
        elif isinstance(node, ast.Assign):
            toplevel.extend(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and node.value is not None and isinstance(node.target, ast.Name):
            toplevel.append(node.target.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            # ``import a.b`` binds ``a``; a star import binds nothing nameable.
            toplevel.extend(alias.asname or alias.name.split(".")[0] for alias in node.names if alias.name != "*")

    return ExtractedSymbols(
        classes=tuple(classes),
        functions=tuple(functions),
        imports=tuple(imports),
        attribute_uses=tuple(dict.fromkeys((receiver, attr) for _, _, receiver, attr in sorted(uses))),
        toplevel_names=tuple(dict.fromkeys(toplevel)),
    )


# Analyzers are keyed by file extension; a file no analyzer claims yields no
# symbols.
ANALYZERS: dict[str, Callable[[FileUnit], ExtractedSymbols]] = {".py": extract_symbols}


def analyze(unit: FileUnit) -> ExtractedSymbols:
    analyzer = ANALYZERS.get(posixpath.splitext(unit.path)[1])
    return analyzer(unit) if analyzer is not None else ExtractedSymbols()


class Workspace:
    """In-memory repository with deterministic iteration and disk materialization."""

    def __init__(self):
        self._units: dict[str, FileUnit] = {}

    def commit_file(self, path: str, body: str, writer: str = "", layer: int = 0) -> FileUnit:
        normalized = normalize_path(path)
        unit = FileUnit(path=normalized, body=body, writer=writer, layer=layer)
        self._units[normalized] = unit
        return unit

    def get(self, path: str) -> FileUnit | None:
        try:
            return self._units.get(normalize_path(path))
        except PathViolation:
            return None

    def paths(self) -> list[str]:
        return sorted(self._units)

    def units(self) -> list[FileUnit]:
        return [self._units[p] for p in self.paths()]

    def view(self) -> dict[str, str]:
        return {p: self._units[p].body for p in self.paths()}

    def __len__(self) -> int:
        return len(self._units)

    def materialize(self, root) -> None:
        from pathlib import Path

        base = Path(root)
        for unit in self.units():
            target = base / unit.path
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(unit.body, encoding="utf-8")

    @staticmethod
    def load(root) -> "Workspace":
        from pathlib import Path

        ws = Workspace()
        base = Path(root)
        for path in sorted(base.rglob("*")):
            if not path.is_file():
                continue
            rel = path.relative_to(base).as_posix()
            try:
                body = path.read_text(encoding="utf-8")
            except UnicodeDecodeError:
                logger.warning("skipping undecodable file %s", rel)
                continue
            ws.commit_file(rel, body)
        return ws


def module_candidates(module: str, importer_path: str) -> list[str]:
    """Repository paths a dotted module path may resolve to."""
    if module.startswith("."):
        stripped = module.lstrip(".")
        hops = len(module) - len(stripped)
        parent = posixpath.dirname(importer_path)
        for _ in range(hops - 1):
            parent = posixpath.dirname(parent)
        prefix = f"{parent}/" if parent else ""
        dotted = stripped
    else:
        prefix = ""
        dotted = module
    rel = dotted.replace(".", "/")
    if not rel:
        return []
    return [f"{prefix}{rel}.py", f"{prefix}{rel}/__init__.py"]


@dataclass(frozen=True)
class ImportCheck:
    importer: str
    module: str
    symbol: str
    target: str | None
    valid: bool


def resolve_imports(workspace: Workspace) -> list[ImportCheck]:
    """Validity of every internal import; external packages are excluded.

    An import is internal when its module path maps onto a repository file.
    ``from M import S`` is valid iff the target file exists and defines S;
    whole-module imports only require the file (or package marker) to exist.
    """
    checks: list[ImportCheck] = []
    paths = set(workspace.paths())
    directories = {p.rsplit("/", 1)[0] for p in paths if "/" in p}
    directories.update(d.split("/", 1)[0] for d in set(directories))
    file_stems = {p.rsplit("/", 1)[-1].rsplit(".", 1)[0] for p in paths}
    analyzed = {unit.path: analyze(unit) for unit in workspace.units()}

    def looks_internal(module: str) -> bool:
        if module.startswith("."):
            return True
        parts = module.split(".")
        return parts[0] in directories or parts[-1] in file_stems

    for path, symbols in analyzed.items():
        if symbols.unanalyzable:
            continue
        for module, symbol in symbols.imports:
            candidates = module_candidates(module, path)
            target = next((c for c in candidates if c in paths), None)
            if target is None:
                # Dangling: counts as internal (and invalid) when the module
                # path points at something that plausibly lives in this
                # repository; anything else is an external package.
                if looks_internal(module):
                    checks.append(ImportCheck(path, module, symbol, None, False))
                continue
            valid = symbol == WHOLE_MODULE or symbol in analyzed[target].toplevel_names
            checks.append(ImportCheck(path, module, symbol, target, valid))
    return checks

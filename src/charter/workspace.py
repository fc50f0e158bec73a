"""The generated repository: file units, symbol extraction, import resolution.

Symbols are read from the syntax tree of the standard ``ast`` module: the
auditor and the evaluation metrics need classes, attributes (constructor
assignments and class-body annotations), method signatures, imports and
attribute uses, and a real parser reads them regardless of layout (multi-line
signatures, decorators, docstrings, nested defs). Code is read into the
contract's own model: classes are ``kernel.ClassSpec`` values with
``AttributeSpec`` attributes, and annotations and signatures go through
``kernel.read_type`` and ``read_signature``, the readers of the contract's
types, so a type reads the same on both sides however it is spelled. An
attribute use is recorded with its receiver's type, and only where the
receiver is a typed parameter of a def whose body reads it and never
rebinds it: a local, a module-level name, an untyped parameter, a lambda's
parameter or a comprehension's target (each of the last three shadows an
outer typed parameter) has no type to read, whatever its name.
A ``FileUnit`` keeps its analysis, as a contract value keeps its kernel:
``analyze`` reads a ``.py`` unit on first use and stores the result on the
unit, and files of any other type yield no symbols. The workspace stores the
units the auditor read, so a committed body is not analyzed again. Files are
keyed by ``kernel.normalize_path``, the function that also keys the kernel's
entries, so a workspace path is the task id of the file contracted there.
"""

from __future__ import annotations

import ast
import logging
import posixpath
from dataclasses import dataclass, field

from .kernel import (
    AttributeSpec,
    ClassSpec,
    MethodSig,
    PathViolation,
    normalize_path,
    read_signature,
    read_type,
)

logger = logging.getLogger(__name__)

WHOLE_MODULE = "*"


@dataclass(frozen=True)
class FileUnit:
    path: str
    body: str
    # The body's analysis, filled by ``analyze`` on first use.
    _symbols: ExtractedSymbols | None = field(default=None, init=False, repr=False, compare=False)


@dataclass(frozen=True)
class ExtractedSymbols:
    classes: tuple[ClassSpec, ...] = ()
    imports: tuple[tuple[str, str], ...] = ()  # (module path, symbol or WHOLE_MODULE)
    # (receiver type, attribute) in source order, for a receiver that is a typed
    # parameter of a def whose body reads it
    attribute_uses: tuple[tuple[str, str], ...] = ()
    toplevel_names: tuple[str, ...] = ()
    unanalyzable: bool = False


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)
# What binds untyped names of its own scope: its parameters or targets.
_UNTYPED_SCOPES = (ast.Lambda, ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
# The fields a def, lambda or comprehension reads in its own scope.
_INNER_FIELDS = frozenset({"body", "elt", "key", "value", "generators"})
# What can hold a statement, and so a class, an import or a def.
_BLOCKS = (ast.stmt, ast.excepthandler, ast.match_case)


def _self_attributes(init: ast.FunctionDef | ast.AsyncFunctionDef) -> list[tuple[str, str]]:
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
            targets, type_name = [node.target], read_type(node.annotation)
        else:
            continue
        for target in targets:
            for item in target.elts if isinstance(target, ast.Tuple) else (target,):
                if isinstance(item, ast.Attribute) and isinstance(item.value, ast.Name) and item.value.id == receiver:
                    found.append((item.lineno, item.col_offset, item.attr, type_name))
    return [(name, type_name) for _, _, name, type_name in sorted(found)]


def _class(node: ast.ClassDef, signatures: dict[ast.AST, MethodSig]) -> ClassSpec:
    """Class-body annotations (dataclass fields) and constructor assignments
    are attributes, typed ``"any"`` when unannotated; the class body's own
    defs are methods, and their signatures are recorded in ``signatures``.
    The first definition of a name wins, so a property's setter does not
    replace its getter."""
    attributes: dict[str, str] = {}
    methods: dict[str, MethodSig] = {}
    for item in node.body:
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            attributes.setdefault(item.target.id, read_type(item.annotation))
        elif isinstance(item, _DEFS):
            signatures[item] = read_signature(item)
            methods.setdefault(item.name, signatures[item])
            if item.name == "__init__":
                for name, type_name in _self_attributes(item):
                    attributes.setdefault(name, type_name)
    return ClassSpec(
        name=node.name,
        attributes=tuple(AttributeSpec(name, type_name) for name, type_name in attributes.items()),
        methods=tuple(methods.values()),
    )


def extract_symbols(unit: FileUnit) -> ExtractedSymbols:
    """Classes, imports, attribute uses and top-level names of one Python module.

    Classes are found at any depth; top-level names are the module's own
    statements (defs, classes, assigned and imported names; a package's
    ``__init__.py`` re-exports what it imports). A body that does not parse
    is unanalyzable; so is one nested too deep for the parser or for
    ``read_type``, which report that as RecursionError or MemoryError.
    """
    try:
        tree = ast.parse(unit.body)
    except (SyntaxError, ValueError, TypeError, RecursionError, MemoryError):
        return ExtractedSymbols(unanalyzable=True)
    try:
        return _read_module(tree, walrus=":=" in unit.body)
    except (RecursionError, MemoryError):
        return ExtractedSymbols(unanalyzable=True)


def _own_bindings(node: ast.FunctionDef | ast.AsyncFunctionDef, walrus: bool) -> set[str]:
    """The names a def's body binds in the def's own scope: targets of every
    kind, walruses (in a comprehension too), imports, ``del`` and nested defs
    and classes, but nothing a nested def, lambda or class binds inside."""
    bound: set[str] = set()
    stack: list[ast.AST] = list(node.body)
    while stack:
        child = stack.pop()
        if isinstance(child, ast.Name) and not isinstance(child.ctx, ast.Load):
            bound.add(child.id)
        elif isinstance(child, (*_DEFS, ast.ClassDef, ast.ExceptHandler, ast.MatchAs, ast.MatchStar)) and child.name:
            bound.add(child.name)
        elif isinstance(child, ast.MatchMapping) and child.rest:
            bound.add(child.rest)
        elif isinstance(child, ast.alias):
            bound.add(child.asname or child.name.split(".")[0])
        if isinstance(child, ast.comprehension):
            stack += [child.iter, *child.ifs]
        elif isinstance(child, ast.expr) and not walrus and isinstance(getattr(child, "ctx", ast.Load()), ast.Load):
            pass  # with no walrus in the module, an expression binds only as a target
        elif not isinstance(child, (*_DEFS, ast.ClassDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(child))
    return bound


def _read_module(tree: ast.Module, walrus: bool) -> ExtractedSymbols:
    """One breadth-first walk, in ``ast.walk``'s order, in which each node
    carries the typed parameters of the defs whose bodies hold it (a def's
    decorators, defaults and annotations are read in the enclosing scope).
    A lambda's parameters and a comprehension's targets are untyped names of
    their own scope, so they hide an outer typed parameter of the same name,
    and a name a def binds in its own scope (``_own_bindings``) is untyped in
    all of that def. An expression is entered only where such a parameter is
    in scope."""
    classes: list[ClassSpec] = []
    imports: list[tuple[str, str]] = []
    uses: list[tuple[tuple[int, int], str, str]] = []  # source position first: the walk is breadth-first
    signatures: dict[ast.AST, MethodSig] = {}  # a class's methods, read by ``_class``
    queue: list[tuple[ast.AST, dict[str, str]]] = [(tree, {})]
    for node, scope in queue:  # the queue grows as it is read
        inner = scope
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id in scope:
                uses.append(((node.lineno, node.col_offset), scope[node.value.id], node.attr))
        elif isinstance(node, _DEFS):
            # An untyped parameter ("any") shadows an outer typed one.
            signature = signatures.pop(node, None) or read_signature(node)
            typed = {name: t for name, t in {**scope, **dict(signature.params)}.items() if t != "any"}
            bound = _own_bindings(node, walrus) if typed else set()
            inner = {name: t for name, t in typed.items() if name not in bound}
        elif isinstance(node, _UNTYPED_SCOPES):
            if isinstance(node, ast.Lambda):
                args = node.args
                every = (*args.posonlyargs, *args.args, args.vararg, *args.kwonlyargs, args.kwarg)
                bound = {a.arg for a in every if a is not None}
            else:
                bound = {n.id for g in node.generators for n in ast.walk(g.target) if isinstance(n, ast.Name)}
                # The first iterable is read outside the comprehension: it is
                # queued in the outer scope too, and a use found twice is
                # recorded once.
                queue.append((node.generators[0].iter, scope))
            inner = {name: t for name, t in scope.items() if name not in bound}
        elif isinstance(node, ast.ClassDef):
            classes.append(_class(node, signatures))
        elif isinstance(node, ast.Import):
            imports.extend((alias.name, WHOLE_MODULE) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            imports.extend((module, WHOLE_MODULE if alias.name == "*" else alias.name) for alias in node.names)
        for name in node._fields:
            held = inner if name in _INNER_FIELDS else scope
            value = getattr(node, name)
            for child in value if isinstance(value, list) else (value,):
                if isinstance(child, _BLOCKS) or (held and isinstance(child, ast.AST)):
                    queue.append((child, held))

    toplevel: list[str] = []
    for node in tree.body:
        if isinstance(node, (ast.ClassDef, *_DEFS)):
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
        imports=tuple(imports),
        attribute_uses=tuple(dict.fromkeys(use[1:] for use in sorted(uses))),
        toplevel_names=tuple(dict.fromkeys(toplevel)),
    )


def analyze(unit: FileUnit) -> ExtractedSymbols:
    """The unit's symbols, computed once and kept on the unit; a file that is
    not ``.py`` has none."""
    if unit._symbols is None:
        symbols = extract_symbols(unit) if posixpath.splitext(unit.path)[1] == ".py" else ExtractedSymbols()
        object.__setattr__(unit, "_symbols", symbols)
    return unit._symbols


class Workspace:
    """In-memory repository with deterministic iteration and disk materialization."""

    def __init__(self):
        self._units: dict[str, FileUnit] = {}

    def commit(self, unit: FileUnit) -> None:
        """Store ``unit`` under its normalized path; ``PathViolation`` if it
        escapes the repository. A unit whose path is already normalized is
        stored as is, with its analysis."""
        path = normalize_path(unit.path)
        self._units[path] = unit if path == unit.path else FileUnit(path, unit.body)

    def get(self, path: str) -> FileUnit | None:
        try:
            return self._units.get(normalize_path(path))
        except PathViolation:
            return None

    def paths(self) -> list[str]:
        return sorted(self._units)

    def units(self) -> list[FileUnit]:
        return [self._units[p] for p in self.paths()]

    def view(self) -> dict[str, FileUnit]:
        return {p: self._units[p] for p in self.paths()}

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
            ws.commit(FileUnit(rel, body))
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

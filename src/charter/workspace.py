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
One depth-first walk reads a module and visits each node once; leaving a
def, it drops the uses read there of a name the def binds.
A ``FileUnit`` keeps its analysis, as a contract value keeps its kernel:
``analyze`` reads a ``.py`` unit on first use and stores the result on the
unit, and files of any other type yield no symbols. A unit also keeps its
last comparison with a contract entry (``auditor.compare_unit``). The
workspace stores the units the auditor read, so a committed body is not
analyzed again, nor compared again with an entry whose classes are
unchanged. Files are keyed by ``kernel.normalize_path``, the function that
also keys the kernel's entries, so a workspace path is the task id of the
file contracted there.
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
    # The last ``auditor.compare_unit`` of this unit: (the entry's classes,
    # its file path, the details found).
    _compared: tuple | None = field(default=None, init=False, repr=False, compare=False)


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
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
# The fields that hold statements, handlers or match cases.
_BLOCKS = frozenset({"body", "orelse", "finalbody", "handlers", "cases"})
# The field naming what a pattern binds.
_PATTERN_NAMES = {ast.MatchAs: "name", ast.MatchStar: "name", ast.MatchMapping: "rest"}


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
        return _read_module(tree)
    except (RecursionError, MemoryError):
        return ExtractedSymbols(unanalyzable=True)


def _read_module(tree: ast.Module) -> ExtractedSymbols:
    """One depth-first walk that visits each node once. It enters every
    statement, and an expression only where a typed name is in scope: a
    typed parameter of a def whose body holds it (a def's or a class's
    decorators, defaults and annotations are read in the enclosing scope,
    and a walrus there or in a lambda's default binds in the enclosing def).
    A lambda's parameters and a comprehension's targets hide an outer typed
    name. Each def collects the uses read in its scope and the names it binds
    there (targets, walruses, imports, ``del``, handlers, patterns, nested
    defs and classes); leaving it, the walk drops the uses of a name it
    binds, so a binding anywhere in a def untypes the name in all of it. A
    class reads its annotations, method signatures and constructors'
    ``self.NAME`` targets as the walk passes them. Classes and imports keep
    ``ast.walk``'s order (by depth, then position). Only defs, classes,
    lambdas and comprehensions recurse, so a deep ``elif`` chain costs no
    frames."""
    classes: list[tuple[tuple[int, int, int], ClassSpec]] = []  # (depth, line, column) first
    imports: list[tuple[tuple[int, int, int], list[tuple[str, str]]]] = []
    uses: list[tuple[tuple[int, int], str, str, str]] = []  # (position, type, attribute, receiver)
    constructors: list[tuple[str | None, list]] = []  # (receiver, self.NAME targets) of each one the walk is in

    def read_def(node, depth, scope, frame, outer, constructor=False) -> tuple[MethodSig, list[tuple[str, str]]]:
        """The def's signature and, for a constructor, its attributes. Its
        header binds a walrus target in ``outer``, the enclosing def's names."""
        signature = read_signature(node)
        if scope:
            expressions([getattr(node, name) for name in node._fields if name != "body"], scope, frame, outer)
        params = dict(signature.params)
        typed = {name: t for name, t in {**scope, **params}.items() if t != "any"}  # "any" hides an outer type
        own, bound, assigned = [], set(), []  # uses read in its scope, names bound there, self.NAME targets
        if constructor:
            receiver = node.args.posonlyargs + node.args.args
            constructors.append((receiver[0].arg if receiver else None, assigned))
        statements(node.body, depth + 1, typed, own, bound if typed else None)
        if constructor:
            constructors.pop()
        for use in own:
            if use[3] not in bound:
                (uses if use[3] in params else frame).append(use)
        return signature, [(name, type_name) for _, _, name, type_name in sorted(assigned)]

    def read_class(node, depth, scope, frame, outer) -> None:
        """Class-body annotations and constructor assignments are attributes
        (``"any"`` unannotated), its own defs methods; the first of a name
        wins, so a property's setter does not replace its getter."""
        if scope:
            expressions([getattr(node, name) for name in node._fields if name != "body"], scope, frame, outer)
        attributes: dict[str, str] = {}
        methods: dict[str, MethodSig] = {}
        for item in node.body:
            if isinstance(item, _DEFS):
                signature, assigned = read_def(item, depth + 1, scope, frame, None, item.name == "__init__")
                methods.setdefault(item.name, signature)
                for name, type_name in assigned:
                    attributes.setdefault(name, type_name)
                continue
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                attributes.setdefault(item.target.id, read_type(item.annotation))
            statements([item], depth + 1, scope, frame, None)
        spec = ClassSpec(node.name, tuple(AttributeSpec(n, t) for n, t in attributes.items()), tuple(methods.values()))
        classes.append(((depth, node.lineno, node.col_offset), spec))

    def statements(body, depth, scope, frame, bound) -> None:
        """The statements of ``body``, then their expressions if a typed name is in scope."""
        stack = [(node, depth) for node in body]
        found: list = []
        while stack:
            node, depth = stack.pop()
            kind = node.__class__
            if kind in readers:
                if bound is not None:
                    bound.add(node.name)
                readers[kind](node, depth, scope, frame, bound)
                continue
            if kind is ast.Import or kind is ast.ImportFrom:
                if kind is ast.Import:
                    pairs = [(alias.name, WHOLE_MODULE) for alias in node.names]
                else:
                    module = "." * node.level + (node.module or "")
                    pairs = [(module, WHOLE_MODULE if alias.name == "*" else alias.name) for alias in node.names]
                imports.append(((depth, node.lineno, node.col_offset), pairs))
                if bound is not None:
                    bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
                continue
            if constructors and (kind is ast.Assign or kind is ast.AnnAssign):
                annotated = kind is ast.AnnAssign
                targets, type_name = ([node.target], read_type(node.annotation)) if annotated else (node.targets, "any")
                for target in targets:
                    for item in target.elts if isinstance(target, ast.Tuple) else (target,):
                        if isinstance(item, ast.Attribute) and isinstance(item.value, ast.Name):
                            for receiver, assigned in constructors:
                                if item.value.id == receiver:
                                    assigned.append((item.lineno, item.col_offset, item.attr, type_name))
            elif kind is ast.ExceptHandler and node.name and bound is not None:
                bound.add(node.name)
            for name in node._fields:
                if name in _BLOCKS:
                    stack += [(child, depth + 1) for child in getattr(node, name)]
                elif scope:
                    found.append(getattr(node, name))
        if found:
            expressions(found, scope, frame, bound)

    def expressions(found, scope, frame, bound) -> None:
        """Each ``name.attr`` of a receiver typed in ``scope`` goes to ``frame``, each name bound to ``bound``."""
        stack = list(found)
        while stack:
            node = stack.pop()
            kind = node.__class__
            if kind is ast.Name:
                if bound is not None and node.ctx.__class__ is not ast.Load:
                    bound.add(node.id)
            elif kind is list:
                stack += node
            elif kind is ast.Attribute and node.value.__class__ is ast.Name:
                receiver = node.value.id
                if receiver in scope:
                    frame.append(((node.lineno, node.col_offset), scope[receiver], node.attr, receiver))
            elif kind is ast.Lambda:
                a = node.args
                hidden = {p.arg for p in (*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg) if p is not None}
                expressions([a], scope, frame, bound)  # the defaults are read outside the lambda
                if inner := {name: t for name, t in scope.items() if name not in hidden}:
                    expressions([node.body], inner, frame, None)
            elif kind in _COMPREHENSIONS:
                generators = node.generators
                hidden = {n.id for g in generators for n in ast.walk(g.target) if isinstance(n, ast.Name)}
                stack.append(generators[0].iter)  # the first iterable is read outside the comprehension
                if inner := {name: t for name, t in scope.items() if name not in hidden}:  # a target holds no use
                    parts = [getattr(node, name) for name in node._fields if name != "generators"]
                    parts += [*(g.ifs for g in generators), *(g.iter for g in generators[1:])]
                    expressions(parts, inner, frame, bound)
            elif isinstance(node, ast.AST) and kind is not ast.Constant:
                if kind in _PATTERN_NAMES and bound is not None and getattr(node, _PATTERN_NAMES[kind]):
                    bound.add(getattr(node, _PATTERN_NAMES[kind]))
                for name in node._fields:
                    value = getattr(node, name)
                    if value.__class__ is list or isinstance(value, ast.AST) and name != "ctx":
                        stack.append(value)

    readers = {ast.FunctionDef: read_def, ast.AsyncFunctionDef: read_def, ast.ClassDef: read_class}
    statements(tree.body, 1, {}, None, None)

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
        classes=tuple(spec for _, spec in sorted(classes, key=lambda found: found[0])),
        imports=tuple(pair for _, pairs in sorted(imports, key=lambda found: found[0]) for pair in pairs),
        attribute_uses=tuple(dict.fromkeys(use[1:3] for use in sorted(uses))),
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
        if not base.is_dir():
            raise NotADirectoryError(f"workspace root is not a directory: {root}")
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

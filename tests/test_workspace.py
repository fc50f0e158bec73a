from __future__ import annotations

import ast
import json
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from charter import workspace
from charter.agents import parse_response
from charter.kernel import AttributeSpec, ClassSpec, MethodSig, read_signature, read_type
from charter.workspace import (
    ExtractedSymbols,
    FileUnit,
    PathViolation,
    Workspace,
    WHOLE_MODULE,
    analyze,
    extract_symbols,
    module_candidates,
    normalize_path,
    resolve_imports,
)

from conftest import fixture_path
from test_conformance import MUTATIONS, PATH, _applies, _entries, _render

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import synth  # noqa: E402

PLAYER_BODY = '''\
"""Player entity."""

from core.game import Game
import os


class Player:
    def __init__(self):
        self.x = 0
        self.y = 0
        self.health: int = 100
        self._secret = 1

    def move(self, dx: int, dy: int) -> None:
        """Shift."""
        self.x += dx
        self.y += dy

    def helper(self):
        return self.x


def spawn(game: Game) -> Player:
    return Player()
'''


def test_commit_and_read_back_identical(tmp_path):
    ws = Workspace()
    ws.commit(FileUnit("core/engine.py", "print('hi')\n"))
    assert ws.get("core/engine.py").body == "print('hi')\n"
    ws.materialize(tmp_path)
    assert (tmp_path / "core" / "engine.py").read_text() == "print('hi')\n"
    loaded = Workspace.load(tmp_path)
    assert loaded.view() == ws.view()


def test_commit_rejects_escaping_paths():
    ws = Workspace()
    with pytest.raises(PathViolation):
        ws.commit(FileUnit("../etc/x", "boom"))
    with pytest.raises(PathViolation):
        ws.commit(FileUnit("/abs/path.py", "boom"))
    with pytest.raises(PathViolation):
        normalize_path("a/../../b")


def test_recommit_updates_writer_and_layer():
    ws = Workspace()
    ws.commit(FileUnit("a.py", "v1"))
    ws.commit(FileUnit("a.py", "v2"))
    unit = ws.get("a.py")
    assert unit.body == "v2"


def test_a_unit_keeps_its_analysis():
    unit = FileUnit("player.py", PLAYER_BODY)
    assert analyze(unit) is analyze(unit)
    assert FileUnit("player.py", PLAYER_BODY) == unit
    ws = Workspace()
    ws.commit(unit)
    assert ws.view()["player.py"] is unit
    assert analyze(FileUnit("notes.md", "class Fake:\n    pass\n")) == ExtractedSymbols()


def test_extract_symbols_player():
    symbols = extract_symbols(FileUnit(path="player.py", body=PLAYER_BODY))
    assert [c.name for c in symbols.classes] == ["Player"]
    player = symbols.classes[0]
    attributes = {a.name: a.type_name for a in player.attributes}
    assert attributes == {"x": "any", "y": "any", "health": "int", "_secret": "any"}
    names = [m.name for m in player.methods]
    assert names == ["__init__", "move", "helper"]
    move = player.methods[1]
    assert move.params == (("dx", "int"), ("dy", "int"))
    assert move.return_type == "None"
    assert ("core.game", "Game") in symbols.imports
    assert ("os", WHOLE_MODULE) in symbols.imports
    assert symbols.toplevel_names == ("Game", "os", "Player", "spawn")


def test_extract_symbols_empty_file():
    symbols = extract_symbols(FileUnit(path="x.py", body=""))
    assert symbols.classes == ()
    assert symbols.toplevel_names == ()
    assert symbols.imports == ()


def _members(symbols):
    return [(c.name, {a.name: a.type_name for a in c.attributes}, [m.name for m in c.methods]) for c in symbols.classes]


LAYOUT_CASES = {
    "multi-line def": (
        "board.py",
        "class Board:\n"
        "    def place(\n"
        "        self,\n"
        "        row: int,\n"
        "        col: int,\n"
        "    ) -> bool:\n"
        "        return True\n",
        lambda s: s.classes[0].methods,
        (MethodSig("place", (("row", "int"), ("col", "int")), "bool"),),
    ),
    "docstring containing a class statement": (
        "game.py",
        'class Game:\n'
        '    """Runs the loop.\n'
        "\n"
        "    class Fake:\n"
        "        pass\n"
        '    """\n'
        "\n"
        "    def __init__(self):\n"
        "        self.turn: int = 0\n"
        "\n"
        "    def step(self) -> None:\n"
        "        pass\n",
        _members,
        [("Game", {"turn": "int"}, ["__init__", "step"])],
    ),
    "decorated method: a setter keeps the getter": (
        "counter.py",
        "class Counter:\n"
        "    @property\n"
        "    def value(self) -> int:\n"
        "        return self._value\n"
        "\n"
        "    @value.setter\n"
        "    def value(self, new: int) -> None:\n"
        "        self._value = new\n",
        lambda s: s.classes[0].methods,
        (MethodSig("value", (), "int"),),
    ),
    "async def": (
        "client.py",
        "class Client:\n"
        "    async def fetch(self, url: str) -> bytes:\n"
        "        return b''\n"
        "\n"
        "\n"
        "async def main() -> None:\n"
        "    pass\n",
        lambda s: (s.classes[0].methods, s.toplevel_names),
        ((MethodSig("fetch", (("url", "str"),), "bytes"),), ("Client", "main")),
    ),
    "def nested in a method": (
        "grid.py",
        "class Grid:\n"
        "    def cells(self) -> list:\n"
        "        def key(cell: tuple) -> int:\n"
        "            return cell[0]\n"
        "        return []\n",
        lambda s: (_members(s), s.toplevel_names),
        ([("Grid", {}, ["cells"])], ("Grid",)),
    ),
    "parenthesised multi-line import": (
        "main.py",
        "from core.game import (\n    Board,\n    Game,\n)\n",
        lambda s: s.imports,
        (("core.game", "Board"), ("core.game", "Game")),
    ),
    "wrapped attribute annotation": (
        "grid.py",
        "class Grid:\n"
        "    def __init__(self):\n"
        "        self.cells: list[\n"
        "            list[int],\n"
        "        ] = []\n"
        "        self.pair: Tuple[int,int] = (0, 0)\n",
        lambda s: tuple((a.name, a.type_name) for a in s.classes[0].attributes),
        (("cells", "list[list[int]]"), ("pair", "tuple[int, int]")),
    ),
    "comments inside a wrapped annotation": (
        "grid.py",
        "class Grid:\n"
        "    def fill(\n"
        "        self,\n"
        "        x: list[  # one row\n"
        "            int  # cell\n"
        "        ],\n"
        "        mark: Literal[\n"
        "            '#',\n"
        "        ],\n"
        "    ) -> None:\n"
        "        pass\n",
        lambda s: s.classes[0].methods,
        (MethodSig("fill", (("x", "list[int]"), ("mark", "Literal['#']")), "None"),),
    ),
    "dataclass fields": (
        "point.py",
        "@dataclass\nclass Point:\n    x: int\n    y: int = 0\n    label: str = ''\n",
        _members,
        [("Point", {"x": "int", "y": "int", "label": "str"}, [])],
    ),
    "syntax error": ("broken.py", "def broken(:\n    pass\n", lambda s: s, ExtractedSymbols(unanalyzable=True)),
    "nested too deep to parse": ("deep.py", "x = " + "-" * 100_000 + "1\n", lambda s: s, ExtractedSymbols(unanalyzable=True)),
    "non-python path": ("notes.md", "class Note:\n    x: int = 0\nimport os\n", lambda s: s, ExtractedSymbols()),
}


@pytest.mark.parametrize("case", sorted(LAYOUT_CASES))
def test_analyze_reads_any_layout(case):
    path, body, view, expected = LAYOUT_CASES[case]
    assert view(analyze(FileUnit(path=path, body=body))) == expected


def test_attribute_use_extraction():
    body = "def hit(player: Player, y: int) -> bool:\n    return player.x < y and player.width > 0\n"
    symbols = extract_symbols(FileUnit(path="c.py", body=body))
    assert ("Player", "x") in symbols.attribute_uses
    assert ("Player", "width") in symbols.attribute_uses


def test_a_receiver_is_typed_only_in_the_body_of_the_def_it_is_a_parameter_of():
    body = (
        "import typing\n"
        "class Game:\n"
        "    @property\n"
        "    def player(self) -> int:\n"
        "        return 0\n"
        "\n"
        "    @player.setter\n"
        "    def player(self, value: int) -> None:\n"
        "        pass\n"
        "\n"
        "    def hit(self, player: 'Player', typing: Optional[Board]) -> bool:\n"
        "        return player.x > typing.size\n"
        "\n"
        "    def miss(self, cells: typing.List[int]) -> int:\n"
        "        return player.x\n"
    )
    symbols = extract_symbols(FileUnit(path="g.py", body=body))
    # The setter's decorator, the annotation `typing.List` (read outside the
    # def's body) and `player` in `miss` (no parameter there) are no uses.
    assert symbols.attribute_uses == (("Player", "x"), ("Board | None", "size"))


def test_chained_and_self_receivers_excluded():
    body = (
        "class T:\n"
        "    def go(self):\n"
        "        self.board.place(1, 2)\n"
    )
    symbols = extract_symbols(FileUnit(path="t.py", body=body))
    # self is no parameter a type is read from, and a chained access after
    # self.<attr> has no name for a receiver
    assert symbols.attribute_uses == ()


def positional_typed_uses(body: str) -> tuple[tuple[str, str], ...]:
    """Reference: each ``name.attr`` whose receiver the innermost def names
    as a typed parameter, that def being the one whose body (from its first
    statement to its end) holds the use, as ``(type, attr)`` in source order."""
    tree = ast.parse(body)
    defs = [
        (node, dict(read_signature(node).params))
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    uses = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)):
            continue
        at = (node.lineno, node.col_offset)
        holders = [
            (d.body[0].lineno, d.body[0].col_offset, params)
            for d, params in defs
            if node.value.id in params and (d.body[0].lineno, d.body[0].col_offset) <= at <= (d.end_lineno, d.end_col_offset)
        ]
        if holders:
            type_name = max(holders, key=lambda h: h[:2])[2][node.value.id]
            if type_name != "any":
                uses.append((at, type_name, node.attr))
    return tuple(dict.fromkeys(use[1:] for use in sorted(uses)))


# --- the reference reader ----------------------------------------------------
# The breadth-first reader that ``workspace._read_module``'s one walk
# replaced, kept verbatim as the reference the walk must equal field for
# field: a queue in ``ast.walk``'s order, ``_class``'s signatures handed to
# the walk, a walk of each constructor and a second walk of each typed def.

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


def reference_symbols(body: str) -> ExtractedSymbols:
    """``extract_symbols`` as it was with the reference reader."""
    try:
        tree = ast.parse(body)
    except (SyntaxError, ValueError, TypeError, RecursionError, MemoryError):
        return ExtractedSymbols(unanalyzable=True)
    try:
        return _read_module(tree, walrus=":=" in body)
    except (RecursionError, MemoryError):
        return ExtractedSymbols(unanalyzable=True)


def _fixture_bodies() -> list[str]:
    bodies = []
    for transcript in sorted(fixture_path("transcripts").glob("*.jsonl")):
        for line in transcript.read_text(encoding="utf-8").splitlines():
            artifacts = parse_response(json.loads(line)["response"]).artifacts
            bodies += [body for path, body in artifacts if path.endswith(".py")]
    return bodies


SCOPE_BODIES = [
    # an untyped inner parameter shadows an outer typed one, a typed one
    # rebinds it, and neither is in scope in the def's own defaults
    "def f(p: Player, q: Board) -> None:\n"
    "    def g(p, q: Cell = q.origin) -> int:\n"
    "        return p.x + q.y\n"
    "    return p.hp + q.size\n",
    # decorators, defaults and annotations of an inner def read the outer scope
    "def f(p: Player) -> None:\n"
    "    p.first()\n"
    "    @p.wrap\n"
    "    def g(x: p.Kind = p.default, *rest: Cell, **kw: Board) -> p.Out:\n"
    "        return rest.count + kw.keys\n"
    "    class Local:\n"
    "        size = p.size\n"
    "        def m(self) -> int:\n"
    "            return p.width\n"
    "    return [p.a for _ in p.b] or (lambda: p.c)()\n",
    # a module-level name is no parameter; handlers and match cases hold uses
    "player = {}\n"
    "player.get(1)\n"
    "def f(player: Player) -> int:\n"
    "    try:\n"
    "        pass\n"
    "    except ValueError as e:\n"
    "        return player.x\n"
    "    match player:\n"
    "        case {'x': 1} if player.ok:\n"
    "            return 0\n",
]


def test_attribute_uses_agree_with_the_positional_reference():
    fixtures = _fixture_bodies()
    assert len(fixtures) >= 5
    bodies = [body for path, body, _, _ in LAYOUT_CASES.values() if path.endswith(".py")]
    for body in [*bodies, PLAYER_BODY, *SCOPE_BODIES, *fixtures]:
        symbols = extract_symbols(FileUnit("m.py", body))
        if not symbols.unanalyzable:
            assert symbols.attribute_uses == positional_typed_uses(body), body
    assert extract_symbols(FileUnit("m.py", SCOPE_BODIES[0])).attribute_uses == (
        ("Board", "origin"),
        ("Cell", "y"),
        ("Player", "hp"),
        ("Board", "size"),
    )
    assert extract_symbols(FileUnit("m.py", SCOPE_BODIES[2])).attribute_uses == (("Player", "x"), ("Player", "ok"))


def test_a_decorator_on_the_first_statement_of_a_body_reads_the_def_scope():
    # The reference misses this use: a decorated def's position is its `def`
    # line, so the positional rule puts the decorator before the body.
    body = "def f(p: Player) -> None:\n    @p.wrap\n    def g() -> None:\n        pass\n"
    assert extract_symbols(FileUnit("m.py", body)).attribute_uses == (("Player", "wrap"),)
    assert positional_typed_uses(body) == ()


@given(entry=_entries(), mutation=st.sampled_from(["", *sorted(MUTATIONS)]), data=st.data())
@settings(max_examples=100, deadline=None)
def test_attribute_uses_of_a_conformance_body_agree_with_the_positional_reference(entry, mutation, data):
    body = _render(entry.classes[0], data.draw, mutation if _applies(mutation, entry.classes[0]) else "")
    assert extract_symbols(FileUnit(PATH, body)).attribute_uses == positional_typed_uses(body), body



def _synthetic_bodies() -> list[str]:
    """The oracle bodies of the benchmark's chain and heal plans, and every
    body their workers send (the heal plan's faulty ones too)."""
    bodies = []
    for plan in (synth.chain_plan(1, 100), synth.heal_plan(1, 48, 6)):
        bodies += plan.oracle.values()
        for (role, _), answers in sorted(plan.answers.items()):
            if role == "worker":
                bodies += [body for answer in answers for _, body in parse_response(answer).artifacts]
    return bodies


# Orders and scopes a single walk can get wrong: label -> (body, what the
# body reads as, expected).
WALK_BODIES = {
    "a class nested in a def above a later top-level class of the same name": (
        "def make():\n"
        "    class Player:\n"
        "        hp: int\n"
        "    return Player\n"
        "try:\n"
        "    pass\n"
        "except ValueError:\n"
        "    class Deep:\n"
        "        pass\n"
        "if True:\n"
        "    class Shallow:\n"
        "        pass\n"
        "class Player:\n"
        "    name: str\n",
        lambda s: [(c.name, [a.name for a in c.attributes]) for c in s.classes],
        [("Player", ["name"]), ("Player", ["hp"]), ("Shallow", []), ("Deep", [])],
    ),
    "an import inside an if, and one inside a def": (
        "import os\n"
        "if os:\n"
        "    from a import b\n"
        "def f(p: Player):\n"
        "    import json\n"
        "    from .c import *\n"
        "    return p.x\n"
        "from d import e as g\n",
        lambda s: s.imports,
        (("os", WHOLE_MODULE), ("d", "e"), ("a", "b"), ("json", WHOLE_MODULE), (".c", WHOLE_MODULE)),
    ),
    "self.x set under an if, a with and a try in __init__": (
        "class Game:\n"
        "    turn: int\n"
        "    def __init__(self, n: int):\n"
        "        if n:\n"
        "            self.a: int = n\n"
        "        else:\n"
        "            self.b = self.c = 0\n"
        "        with open(n) as handle:\n"
        "            self.d: str = handle.read()\n"
        "        try:\n"
        "            self.e, other.f = 1, 2\n"
        "        except ValueError:\n"
        "            self.g: float = 0.0\n"
        "        finally:\n"
        "            self.a = 2\n"
        "        def helper(me):\n"
        "            self.h = me.i = 3\n"
        "        class Inner:\n"
        "            def __init__(me):\n"
        "                me.j = self.k = 1\n"
        "    score: float\n",
        lambda s: [(c.name, [(a.name, a.type_name) for a in c.attributes]) for c in s.classes],
        [
            (
                "Game",
                [
                    ("turn", "int"), ("a", "int"), ("b", "any"), ("c", "any"), ("d", "str"), ("e", "any"),
                    ("g", "float"), ("h", "any"), ("k", "any"), ("score", "float"),
                ],
            ),
            ("Inner", [("j", "any")]),
        ],
    ),
    "a walrus inside a comprehension of a typed def": (
        "def f(p: Player, q: Board, xs: list) -> list:\n"
        "    found = [y for x in xs if (p := x)]\n"
        "    def g() -> None:\n"
        "        (q := 1)\n"
        "    return p.name, q.size, found\n",
        lambda s: s.attribute_uses,
        (("Board", "size"),),
    ),
    "a lambda and a comprehension that shadow a typed parameter": (
        "def f(p: Player, others: list) -> list:\n"
        "    key = lambda p: p.rank\n"
        "    return sorted(others, key=key) + [p.name for p in others] + [p.hp]\n",
        lambda s: s.attribute_uses,
        (("Player", "hp"),),
    ),
    "a nested def that reads an outer typed parameter which the outer def rebinds below it": (
        "def f(p: Player, q: Board) -> None:\n"
        "    def g() -> int:\n"
        "        return p.hp + q.size\n"
        "    def h() -> int:\n"
        "        q = None\n"
        "        return q.size\n"
        "    p = None\n",
        lambda s: s.attribute_uses,
        (("Board", "size"),),
    ),
    "a decorator and a default that read a typed name": (
        "def f(p: Player, q: Board) -> None:\n"
        "    @p.wrap\n"
        "    def g(x: int = q.size) -> int:\n"
        "        q = 0\n"
        "        return x\n",
        lambda s: s.attribute_uses,
        (("Player", "wrap"), ("Board", "size")),
    ),
    "match patterns and a handler bind in the def": (
        "def f(p: Player, q: Board, r: Cell) -> None:\n"
        "    match q:\n"
        "        case {'k': 1, **p}:\n"
        "            pass\n"
        "        case [*rest] if q.ok:\n"
        "            pass\n"
        "    try:\n"
        "        pass\n"
        "    except ValueError as r:\n"
        "        pass\n"
        "    return p.x, r.y\n",
        lambda s: s.attribute_uses,
        (("Board", "ok"),),
    ),
    "an elif chain and a sum nested past the interpreter's recursion limit": (
        "def f(p: Player, n: int) -> int:\n"
        "    if n == 0:\n"
        "        return p.x\n"
        + "".join(f"    elif n == {i}:\n        return {i}\n" for i in range(1, 1500))
        + "    return " + " + ".join(["p.y"] * 1500) + "\n",
        lambda s: (s.unanalyzable, s.attribute_uses),
        (False, (("Player", "x"), ("Player", "y"))),
    ),
    "type parameters are read in the enclosing scope": pytest.param(
        "def f[T](x: T, p: Player) -> T:\n"
        "    return p.x\n"
        "class Box[T]:\n"
        "    item: T\n",
        lambda s: (s.attribute_uses, [(c.name, [(a.name, a.type_name) for a in c.attributes]) for c in s.classes]),
        ((("Player", "x"),), [("Box", [("item", "T")])]),
        marks=pytest.mark.skipif(sys.version_info < (3, 12), reason="type parameters are Python 3.12 syntax"),
    ),
}


@pytest.mark.parametrize("body, view, expected", [WALK_BODIES[label] for label in sorted(WALK_BODIES)], ids=sorted(WALK_BODIES))
def test_the_one_walk_reads_each_labelled_body_as_the_reference_reader(body, view, expected):
    symbols = extract_symbols(FileUnit("m.py", body))
    assert symbols == reference_symbols(body)
    assert view(symbols) == expected


def test_extract_symbols_equals_the_reference_reader():
    layouts = [body for _, body, _, _ in LAYOUT_CASES.values()]
    fixtures, synthetic = _fixture_bodies(), _synthetic_bodies()
    assert len(fixtures) >= 5 and len(synthetic) >= 148
    for body in [*layouts, *SCOPE_BODIES, PLAYER_BODY, *fixtures, *synthetic]:
        assert extract_symbols(FileUnit("m.py", body)) == reference_symbols(body), body


@pytest.mark.parametrize("mutation", ["", *sorted(MUTATIONS)])
@given(entry=_entries(), data=st.data())
@settings(max_examples=30, deadline=None)
def test_extract_symbols_of_a_conformance_body_equals_the_reference_reader(mutation, entry, data):
    body = _render(entry.classes[0], data.draw, mutation if _applies(mutation, entry.classes[0]) else "")
    assert extract_symbols(FileUnit(PATH, body)) == reference_symbols(body), body

def test_a_comprehension_target_hides_a_typed_parameter_of_its_name():
    def uses(expression):
        body = f"def f(p: Player, others: list) -> list:\n    return {expression}\n"
        return extract_symbols(FileUnit("m.py", body)).attribute_uses

    assert uses("[p.name for p in others]") == ()
    assert uses("{p.k: p.v for (q, p) in others}") == ()
    assert uses("[p.name for q in others]") == (("Player", "name"),)
    # The first iterable is read outside the comprehension.
    assert uses("[p.name for p in p.party]") == (("Player", "party"),)


def test_a_lambda_parameter_hides_a_typed_parameter_of_its_name():
    def uses(expression):
        body = f"def f(p: Player, others: list) -> list:\n    return {expression}\n"
        return extract_symbols(FileUnit("m.py", body)).attribute_uses

    assert uses("lambda p: p.key") == ()
    assert uses("lambda *p: p.key") == ()
    # A default is read outside the lambda.
    assert uses("lambda q=p.key: q.size") == (("Player", "key"),)


def test_a_binding_anywhere_in_a_def_untypes_the_name_in_all_of_it():
    def uses(*statements):
        body = "def f(p: Player, others: list) -> None:\n" + "".join(f"    {s}\n" for s in statements)
        return extract_symbols(FileUnit("m.py", body)).attribute_uses

    # A read before the binding, or in a nested def, reads the rebound name.
    assert uses("p.name", "p = others[0]") == ()
    assert uses("def g():", "    return p.name", "p = others[0]") == ()
    assert uses("import p", "p.name") == ()
    assert uses("def p():", "    pass", "p.name") == ()
    # What a nested def or class binds is its own; f's p keeps its type.
    assert uses("def g():", "    p = 1", "    return p.name", "p.name") == (("Player", "name"),)
    assert uses("class K:", "    p = 1", "p.name") == (("Player", "name"),)


def test_each_def_signature_is_read_once(monkeypatch):
    body = (
        "class Game:\n"
        "    @property\n"
        "    def player(self) -> int:\n"
        "        return 0\n"
        "\n"
        "    @player.setter\n"
        "    def player(self, value: int) -> None:\n"
        "        def inner(p: Player) -> int:\n"
        "            class Local:\n"
        "                async def m(self, q) -> None:\n"
        "                    return q.x\n"
        "            return p.x\n"
        "\n"
        "def spawn(game: Game) -> None:\n"
        "    return lambda: game.turn\n"
    )
    read = []
    real = workspace.read_signature

    def counting(node):
        read.append(node)
        return real(node)

    monkeypatch.setattr(workspace, "read_signature", counting)
    symbols = extract_symbols(FileUnit("g.py", body))
    defs = [n for n in ast.walk(ast.parse(body)) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    assert sorted(n.name for n in read) == sorted(n.name for n in defs) == ["inner", "m", "player", "player", "spawn"]
    assert len({id(n) for n in read}) == len(read)
    assert symbols.attribute_uses == (("Player", "x"), ("Game", "turn"))


def test_module_candidates_absolute_and_relative():
    assert module_candidates("core.game", "main.py") == ["core/game.py", "core/game/__init__.py"]
    assert module_candidates(".sibling", "pkg/mod.py") == [
        "pkg/sibling.py",
        "pkg/sibling/__init__.py",
    ]


def test_resolve_imports_valid_and_dangling():
    ws = Workspace()
    ws.commit(FileUnit("core/game.py", "class Game:\n    pass\n"))
    ws.commit(FileUnit("main.py", "from core.game import Game\nfrom core.game import Missing\nimport os\n"))
    checks = {(c.module, c.symbol): c.valid for c in resolve_imports(ws)}
    assert checks[("core.game", "Game")] is True
    assert checks[("core.game", "Missing")] is False
    assert ("os", WHOLE_MODULE) not in checks  # external excluded


def test_resolve_imports_flat_layout_failure_mode():
    # Nested import paths over a flat directory: every internal import dangles.
    ws = Workspace()
    ws.commit(FileUnit("game.py", "class Game:\n    pass\n"))
    ws.commit(FileUnit("main.py", "from core.game import Game\n"))
    checks = resolve_imports(ws)
    assert len(checks) == 1
    assert checks[0].valid is False
    assert checks[0].target is None


def test_resolve_imports_whole_module():
    ws = Workspace()
    ws.commit(FileUnit("util/__init__.py", ""))
    ws.commit(FileUnit("main.py", "import util\n"))
    checks = resolve_imports(ws)
    assert [(c.module, c.valid) for c in checks] == [("util", True)]


def test_resolve_imports_package_reexport():
    ws = Workspace()
    ws.commit(FileUnit("game/core.py", "class Game:\n    pass\n"))
    ws.commit(FileUnit("game/__init__.py", "from .core import Game\nimport os.path\nimport json as codec\nfrom .core import *\n"))
    ws.commit(FileUnit("main.py", "from game import Game\nfrom game import os, codec\nfrom game import path\n"))
    checks = {(c.module, c.symbol): c.valid for c in resolve_imports(ws) if c.importer == "main.py"}
    assert checks == {("game", "Game"): True, ("game", "os"): True, ("game", "codec"): True, ("game", "path"): False}


def brute_force_import_check(ws: Workspace, module: str, symbol: str, importer: str) -> bool | None:
    """Oracle: scan every file for a definition token of the symbol."""
    candidates = module_candidates(module, importer)
    target = next((c for c in candidates if c in set(ws.paths())), None)
    if target is None:
        return None
    if symbol == WHOLE_MODULE:
        return True
    body = ws.get(target).body
    import re

    return bool(
        re.search(rf"^\s*(class|def)\s+{re.escape(symbol)}\b", body, re.M)
        or re.search(rf"^{re.escape(symbol)}\s*(:[^=]+)?=", body, re.M)
    )


def test_resolve_imports_agrees_with_brute_force_on_larger_fixture():
    ws = Workspace()
    for i in range(12):
        ws.commit(FileUnit(f"pkg{i % 3}/mod{i}.py", f"class C{i}:\n    pass\n\nVALUE{i} = {i}\n"))
    for i in range(12):
        target = (i + 5) % 12
        missing = (i + 7) % 12
        ws.commit(
            FileUnit(
                f"app/use{i}.py",
                f"from pkg{target % 3}.mod{target} import C{target}\n"
                f"from pkg{missing % 3}.mod{missing} import Nope{missing}\n",
            )
        )
    checks = resolve_imports(ws)
    assert len(checks) == 24
    for check in checks:
        oracle = brute_force_import_check(ws, check.module, check.symbol, check.importer)
        assert oracle is not None
        assert check.valid == oracle


def test_unanalyzable_marker_for_non_text_body():
    symbols = extract_symbols(FileUnit(path="blob.py", body=None))  # type: ignore[arg-type]
    assert symbols.unanalyzable is True

from __future__ import annotations

import pytest

from charter.kernel import MethodSig
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
    ws.commit_file("core/engine.py", "print('hi')\n", writer="w", layer=1)
    assert ws.get("core/engine.py").body == "print('hi')\n"
    ws.materialize(tmp_path)
    assert (tmp_path / "core" / "engine.py").read_text() == "print('hi')\n"
    loaded = Workspace.load(tmp_path)
    assert loaded.view() == ws.view()


def test_commit_rejects_escaping_paths():
    ws = Workspace()
    with pytest.raises(PathViolation):
        ws.commit_file("../etc/x", "boom")
    with pytest.raises(PathViolation):
        ws.commit_file("/abs/path.py", "boom")
    with pytest.raises(PathViolation):
        normalize_path("a/../../b")


def test_recommit_updates_writer_and_layer():
    ws = Workspace()
    ws.commit_file("a.py", "v1", writer="w1", layer=1)
    ws.commit_file("a.py", "v2", writer="w2", layer=3)
    unit = ws.get("a.py")
    assert (unit.body, unit.writer, unit.layer) == ("v2", "w2", 3)


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
    assert [f.name for f in symbols.functions] == ["spawn"]
    assert "Player" in symbols.toplevel_names and "spawn" in symbols.toplevel_names


def test_extract_symbols_empty_file():
    symbols = extract_symbols(FileUnit(path="x.py", body=""))
    assert symbols.classes == ()
    assert symbols.functions == ()
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
        lambda s: (s.classes[0].methods, s.functions),
        ((MethodSig("fetch", (("url", "str"),), "bytes"),), (MethodSig("main", (), "None"),)),
    ),
    "def nested in a method": (
        "grid.py",
        "class Grid:\n"
        "    def cells(self) -> list:\n"
        "        def key(cell: tuple) -> int:\n"
        "            return cell[0]\n"
        "        return []\n",
        lambda s: (_members(s), s.functions),
        ([("Grid", {}, ["cells"])], ()),
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
        (("cells", "list[list[int]]"), ("pair", "Tuple[int,int]")),
    ),
    "comments inside a wrapped annotation": (
        "grid.py",
        "def fill(\n"
        "    x: list[  # one row\n"
        "        int  # cell\n"
        "    ],\n"
        "    mark: Literal[\n"
        "        '#',\n"
        "    ],\n"
        ") -> None:\n"
        "    pass\n",
        lambda s: s.functions,
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
    assert ("player", "x") in symbols.attribute_uses
    assert ("player", "width") in symbols.attribute_uses


def test_chained_and_self_receivers_excluded():
    body = (
        "class T:\n"
        "    def go(self):\n"
        "        self.board.place(1, 2)\n"
    )
    symbols = extract_symbols(FileUnit(path="t.py", body=body))
    receivers = {r for r, _ in symbols.attribute_uses}
    assert "self" not in receivers
    # chained access after self.<attr> contributes no receiver
    assert receivers == set()


def test_module_candidates_absolute_and_relative():
    assert module_candidates("core.game", "main.py") == ["core/game.py", "core/game/__init__.py"]
    assert module_candidates(".sibling", "pkg/mod.py") == [
        "pkg/sibling.py",
        "pkg/sibling/__init__.py",
    ]


def test_resolve_imports_valid_and_dangling():
    ws = Workspace()
    ws.commit_file("core/game.py", "class Game:\n    pass\n")
    ws.commit_file("main.py", "from core.game import Game\nfrom core.game import Missing\nimport os\n")
    checks = {(c.module, c.symbol): c.valid for c in resolve_imports(ws)}
    assert checks[("core.game", "Game")] is True
    assert checks[("core.game", "Missing")] is False
    assert ("os", WHOLE_MODULE) not in checks  # external excluded


def test_resolve_imports_flat_layout_failure_mode():
    # Nested import paths over a flat directory: every internal import dangles.
    ws = Workspace()
    ws.commit_file("game.py", "class Game:\n    pass\n")
    ws.commit_file("main.py", "from core.game import Game\n")
    checks = resolve_imports(ws)
    assert len(checks) == 1
    assert checks[0].valid is False
    assert checks[0].target is None


def test_resolve_imports_whole_module():
    ws = Workspace()
    ws.commit_file("util/__init__.py", "")
    ws.commit_file("main.py", "import util\n")
    checks = resolve_imports(ws)
    assert [(c.module, c.valid) for c in checks] == [("util", True)]


def test_resolve_imports_package_reexport():
    ws = Workspace()
    ws.commit_file("game/core.py", "class Game:\n    pass\n")
    ws.commit_file("game/__init__.py", "from .core import Game\nimport os.path\nimport json as codec\nfrom .core import *\n")
    ws.commit_file("main.py", "from game import Game\nfrom game import os, codec\nfrom game import path\n")
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
        ws.commit_file(f"pkg{i % 3}/mod{i}.py", f"class C{i}:\n    pass\n\nVALUE{i} = {i}\n")
    for i in range(12):
        target = (i + 5) % 12
        missing = (i + 7) % 12
        ws.commit_file(
            f"app/use{i}.py",
            f"from pkg{target % 3}.mod{target} import C{target}\n"
            f"from pkg{missing % 3}.mod{missing} import Nope{missing}\n",
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

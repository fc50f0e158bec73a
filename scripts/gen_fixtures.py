#!/usr/bin/env python3
"""Regenerate the bundled scripted transcripts and reference manifests.

The transcripts are authored through the package's own response formatter so
that every fixture round-trips the wire format exactly. Run from the repo
root:  python3 scripts/gen_fixtures.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from charter.agents import AgentResponse, format_response
from charter.contract import ActionOp, ContractAction, SectionKey
from charter.kernel import ApiSpecEntry, AttributeSpec, ClassSpec, MethodSig, print_api_section
from charter.tasks import TaskStatus

FIXTURES = ROOT / "src" / "charter" / "fixtures"


def sig(text: str, doc: str) -> MethodSig:
    from charter.kernel import parse_signature
    from dataclasses import replace

    return replace(parse_signature(text), docstring=doc)


def record(layer: int, role: str, task: str, response: AgentResponse) -> dict:
    return {"layer": layer, "role": role, "task": task, "response": format_response(response)}


def write_jsonl(path: Path, records: list[dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records), encoding="utf-8")


# --- intents (benchmark task texts) ------------------------------------------

INTENTS = {
    "gomoku": "Write a Gomoku program with AI that allows players to play against AI.\n",
    "plane_battle": (
        "Build a flying battle game where airplanes can move up, down, left, and right, "
        "and also fire bullets. Bullets can hit enemies, and enemies will die if hit. "
        "Players need to control the airplane to avoid enemy bullets until all enemies "
        "are eliminated or the player is hit and killed.\n"
    ),
    "city_sim": """Project: Micro City Sim
Objective: Create a relaxing grid-based city builder in Python/Pygame focused on resource balancing.
Core Features Needed:
The Economy Loop: I need a simulation where Money and Energy are calculated in real-time.
Houses generate Money (Tax) but consume Energy.
Power Plants generate Energy but cost Money to build.
If Energy is low, Houses stop paying taxes. (This logic needs to be robust).
Building System: I want to select different structures from a menu and click the grid to place them.
Include at least: Roads, Residential Zones, and Industrial Zones.
Make it easy to add more building types later (Implicitly asks for polymorphism).
Visual Feedback: A HUD that shows my current resources and alerts me if I'm out of power. The map should look clean.
Requirements:
Above 10 files.
""",
    "snake": """Project: Snake Grand-Master Objective: Build a highly extensible Snake game using Python and Pygame. Functional Requirements:
Advanced Movement: Standard snake growth logic with support for "Speed Boost" and "Teleportation Walls".
Power-up Factory: A modular system to spawn different items (Apple for growth, Magnet for distance, Shield for wall-clip).
Level/Map System: Different arena layouts (e.g., Box, Tunnel, Maze).
Leaderboard & Save System: A module to handle high-score persistence and rank calculation. Architecture Constraint: The repository must contain 13-15 files.
""",
    "roguelike": """Project: Abyssal Echoes (Roguelike)
Objective: Generate a repository-level Python project using Pygame. The architecture must be highly modular to support the following complex features:
Procedural Map System: An isolated algorithm module generating rooms and tunnels. Data must be separated from rendering.
Event-Driven UI: A Message Log and HUD that updates via an Event Bus, never by direct coupling to game logic.
Polymorphic Entities: Implement Player, Orc (Melee), and Mage (Ranged/Fleeing AI) sharing a base class.
Interaction System: An inventory system where items can trigger effects across different modules (e.g., a Scroll that reveals the Fog of War map layer).
Constraint: The codebase must be split into at least 15 files.
""",
}

MANIFESTS = {
    "gomoku": ["ai.py", "board.py", "game.py"],
    "plane_battle": ["entities/player.py", "systems/collision.py"],
    "city_sim": [
        "main.py",
        "core/simulation.py",
        "core/economy.py",
        "core/grid.py",
        "buildings/base.py",
        "buildings/house.py",
        "buildings/power_plant.py",
        "buildings/road.py",
        "buildings/industrial.py",
        "ui/hud.py",
        "ui/menu.py",
    ],
    "snake": [
        "main.py",
        "core/game.py",
        "core/snake.py",
        "core/board.py",
        "core/movement.py",
        "powerups/base.py",
        "powerups/apple.py",
        "powerups/magnet.py",
        "powerups/shield.py",
        "powerups/factory.py",
        "levels/base.py",
        "levels/layouts.py",
        "persistence/leaderboard.py",
        "persistence/storage.py",
    ],
    "roguelike": [
        "main.py",
        "core/engine.py",
        "core/events.py",
        "core/turn_loop.py",
        "map/generator.py",
        "map/tiles.py",
        "map/fog.py",
        "entities/base.py",
        "entities/player.py",
        "entities/orc.py",
        "entities/mage.py",
        "items/base.py",
        "items/scroll.py",
        "items/inventory.py",
        "ui/hud.py",
        "ui/message_log.py",
    ],
}


def action(section: SectionKey, content: str, op: ActionOp = ActionOp.UPDATE) -> ContractAction:
    return ContractAction(op=op, section=section, content=content)


# --- gomoku transcript ---------------------------------------------------------


def gomoku_entries() -> list[ApiSpecEntry]:
    board = ApiSpecEntry(
        file_path="board.py",
        owner="engine",
        version=1,
        status=TaskStatus.TODO,
        classes=(
            ClassSpec(
                name="Board",
                attributes=(
                    AttributeSpec("size", "int", "Edge length of the square grid."),
                    AttributeSpec("cells", "list[list[int]]", "0 empty, 1 human, 2 machine."),
                ),
                methods=(
                    sig(
                        "def place(x: int, y: int, player: int) -> bool",
                        "Put a stone if the cell is free; True on success.",
                    ),
                    sig(
                        "def is_winning_move(x: int, y: int, player: int) -> bool",
                        "True when the stone at (x, y) completes five in a row.",
                    ),
                    sig("def reset() -> None", "Clear every cell."),
                ),
            ),
        ),
    )
    advisor = ApiSpecEntry(
        file_path="ai.py",
        owner="algorithm",
        version=1,
        status=TaskStatus.TODO,
        classes=(
            ClassSpec(
                name="MoveAdvisor",
                attributes=(AttributeSpec("depth", "int", "Search depth for scoring."),),
                methods=(
                    sig(
                        "def choose_move(board: Board) -> tuple",
                        "Best free cell for the machine as an (x, y) pair.",
                    ),
                    sig(
                        "def score_cell(board: Board, x: int, y: int) -> int",
                        "Heuristic value of placing the machine stone at (x, y).",
                    ),
                ),
            ),
        ),
    )
    game = ApiSpecEntry(
        file_path="game.py",
        owner="app",
        version=1,
        status=TaskStatus.TODO,
        classes=(
            ClassSpec(
                name="Game",
                attributes=(
                    AttributeSpec("board", "Board", "Shared play field."),
                    AttributeSpec("advisor", "MoveAdvisor", "Machine move source."),
                    AttributeSpec("current_player", "int", "1 human, 2 machine."),
                ),
                methods=(
                    sig(
                        "def play_turn(x: int, y: int) -> bool",
                        "Apply the human move, then the machine reply; True while the game continues.",
                    ),
                    sig("def winner() -> int", "0 while undecided, else the winning player number."),
                ),
            ),
        ),
    )
    return [advisor, board, game]


GOMOKU_BOARD_PY = '''\
"""Square Gomoku grid with stone placement and win detection."""


class Board:
    def __init__(self, size: int = 15):
        self.size: int = size
        self.cells: list[list[int]] = [[0] * size for _ in range(size)]

    def place(self, x: int, y: int, player: int) -> bool:
        """Put a stone if the cell is free; True on success."""
        if not (0 <= x < self.size and 0 <= y < self.size):
            return False
        if self.cells[y][x] != 0:
            return False
        self.cells[y][x] = player
        return True

    def is_winning_move(self, x: int, y: int, player: int) -> bool:
        """True when the stone at (x, y) completes five in a row."""
        for dx, dy in ((1, 0), (0, 1), (1, 1), (1, -1)):
            run = 1
            for sign in (1, -1):
                cx, cy = x + sign * dx, y + sign * dy
                while 0 <= cx < self.size and 0 <= cy < self.size and self.cells[cy][cx] == player:
                    run += 1
                    cx += sign * dx
                    cy += sign * dy
            if run >= 5:
                return True
        return False

    def reset(self) -> None:
        """Clear every cell."""
        for row in self.cells:
            for x in range(self.size):
                row[x] = 0
'''

GOMOKU_AI_PY = '''\
"""Greedy one-ply move advisor for the machine player."""

from board import Board


class MoveAdvisor:
    def __init__(self, depth: int = 1):
        self.depth: int = depth

    def choose_move(self, board: Board) -> tuple:
        """Best free cell for the machine as an (x, y) pair."""
        best = (-1, (board.size // 2, board.size // 2))
        for y in range(board.size):
            for x in range(board.size):
                if board.cells[y][x] != 0:
                    continue
                value = self.score_cell(board, x, y)
                if value > best[0]:
                    best = (value, (x, y))
        return best[1]

    def score_cell(self, board: Board, x: int, y: int) -> int:
        """Heuristic value of placing the machine stone at (x, y)."""
        score = 0
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                if dx == 0 and dy == 0:
                    continue
                cx, cy = x + dx, y + dy
                if 0 <= cx < board.size and 0 <= cy < board.size:
                    if board.cells[cy][cx] == 2:
                        score += 2
                    elif board.cells[cy][cx] == 1:
                        score += 1
        return score
'''

GOMOKU_GAME_PY = '''\
"""Turn loop wiring the grid and the machine advisor together."""

from ai import MoveAdvisor
from board import Board


class Game:
    def __init__(self):
        self.board: Board = Board()
        self.advisor: MoveAdvisor = MoveAdvisor()
        self.current_player: int = 1
        self._winner = 0

    def play_turn(self, x: int, y: int) -> bool:
        """Apply the human move, then the machine reply; True while the game continues."""
        if self._winner != 0:
            return False
        if not self.board.place(x, y, 1):
            return True
        if self.board.is_winning_move(x, y, 1):
            self._winner = 1
            return False
        mx, my = self.advisor.choose_move(self.board)
        self.board.place(mx, my, 2)
        if self.board.is_winning_move(mx, my, 2):
            self._winner = 2
            return False
        return True

    def winner(self) -> int:
        """0 while undecided, else the winning player number."""
        return self._winner
'''


def gomoku_transcript() -> list[dict]:
    entries = gomoku_entries()
    pm_actions = [
        action(
            SectionKey.PROJECT_OVERVIEW,
            "A console Gomoku match between a human and a built-in machine opponent on a 15x15 grid.",
        ),
        action(
            SectionKey.USER_STORIES,
            "- As a player I place a stone and immediately see the machine reply.\n"
            "- As a player I am told the moment either side gets five in a row.",
        ),
        action(
            SectionKey.CONSTRAINTS,
            "- Standard library only; fully offline.\n- Machine replies are deterministic for a given board.",
        ),
        action(
            SectionKey.DIRECTORY_STRUCTURE,
            "board.py    grid state and win detection\nai.py       machine move selection\ngame.py     turn loop",
        ),
        action(
            SectionKey.GLOBAL_SHARED_KNOWLEDGE,
            "- Cell encoding: 0 empty, 1 human, 2 machine.\n- Board size defaults to 15.",
        ),
        action(SectionKey.API_SPECIFICATIONS, "\n".join(print_api_section(entries))),
        action(
            SectionKey.DEPENDENCY_RELATIONSHIPS,
            "```\ngame.py --> board.py\ngame.py --> ai.py\nai.py --> board.py\n```",
        ),
    ]
    proposal = AgentResponse(
        thinking="Split the build into grid state, move selection and the turn loop; one file each keeps the workers independent.",
        output="Drafted the full plan: three files, typed interfaces, acyclic dependencies.",
        actions=tuple(pm_actions),
    )
    rectification = AgentResponse(
        thinking="The draft is acyclic and typed. One constraint is worth pinning down: reply latency.",
        output="Draft verified; added a response-time constraint.",
        actions=(
            action(
                SectionKey.CONSTRAINTS,
                "- The machine must reply in under one second on the default grid.",
                op=ActionOp.ADD,
            ),
        ),
    )
    records = [
        record(0, "project_manager", "", proposal),
        record(0, "discriminator", "", rectification),
    ]
    workers = {
        "ai.py": GOMOKU_AI_PY,
        "board.py": GOMOKU_BOARD_PY,
        "game.py": GOMOKU_GAME_PY,
    }
    for task_id, body in workers.items():
        records.append(
            record(
                1,
                "worker",
                task_id,
                AgentResponse(
                    thinking=f"Implement {task_id} exactly as contracted.",
                    output=f"Implemented {task_id} against the shared document.",
                    artifacts=((task_id, body),),
                ),
            )
        )
    for task_id in workers:
        records.append(
            record(
                2,
                "critic",
                task_id,
                AgentResponse(
                    thinking="Interface check: every contracted class, attribute and signature is present.",
                    output=f"{task_id} fulfils its contracted interface.\nVERDICT: PASS",
                ),
            )
        )
    return records


# --- plane battle (schema divergence regression) -------------------------------


def plane_entries() -> list[ApiSpecEntry]:
    player = ApiSpecEntry(
        file_path="entities/player.py",
        owner="backend",
        version=1,
        status=TaskStatus.TODO,
        classes=(
            ClassSpec(
                name="Player",
                attributes=(
                    AttributeSpec("x", "int", "Horizontal position in pixels."),
                    AttributeSpec("y", "int", "Vertical position in pixels."),
                    AttributeSpec("health", "int", "Remaining hit points."),
                ),
                methods=(
                    sig("def move(dx: int, dy: int) -> None", "Shift the plane by the given deltas."),
                    sig("def take_damage(amount: int) -> None", "Subtract hit points, floored at zero."),
                ),
            ),
        ),
    )
    collision = ApiSpecEntry(
        file_path="systems/collision.py",
        owner="algorithm",
        version=1,
        status=TaskStatus.TODO,
        classes=(
            ClassSpec(
                name="CollisionSystem",
                attributes=(AttributeSpec("hits", "int", "Number of registered impacts."),),
                methods=(
                    sig(
                        "def hit_test(player: Player, px: int, py: int) -> bool",
                        "True when the point lies inside the plane's bounding box.",
                    ),
                    sig(
                        "def record_hit(player: Player) -> None",
                        "Apply impact damage to the plane and count it.",
                    ),
                ),
            ),
        ),
    )
    return [player, collision]


PLANE_PLAYER_V1 = '''\
"""Player plane: position and hit points, exactly as contracted."""


class Player:
    def __init__(self):
        self.x: int = 0
        self.y: int = 0
        self.health: int = 100

    def move(self, dx: int, dy: int) -> None:
        """Shift the plane by the given deltas."""
        self.x += dx
        self.y += dy

    def take_damage(self, amount: int) -> None:
        """Subtract hit points, floored at zero."""
        self.health = max(0, self.health - amount)
'''

PLANE_COLLISION_PY = '''\
"""Axis-aligned collision checks between the plane and projectiles."""

from entities.player import Player


class CollisionSystem:
    def __init__(self):
        self.hits: int = 0

    def hit_test(self, player: Player, px: int, py: int) -> bool:
        """True when the point lies inside the plane's bounding box."""
        inside_x = player.x <= px < player.x + player.width
        inside_y = player.y <= py < player.y + player.height
        return inside_x and inside_y

    def record_hit(self, player: Player) -> None:
        """Apply impact damage to the plane and count it."""
        player.take_damage(10)
        self.hits = self.hits + 1
'''

PLANE_PLAYER_V2 = '''\
"""Player plane: position, hit points, and the bounding box the collision
system measures against."""


class Player:
    def __init__(self):
        self.x: int = 0
        self.y: int = 0
        self.health: int = 100
        self.width = 32
        self.height = 24

    def move(self, dx: int, dy: int) -> None:
        """Shift the plane by the given deltas."""
        self.x += dx
        self.y += dy

    def take_damage(self, amount: int) -> None:
        """Subtract hit points, floored at zero."""
        self.health = max(0, self.health - amount)
'''


def plane_transcript() -> list[dict]:
    entries = plane_entries()
    pm_actions = [
        action(
            SectionKey.PROJECT_OVERVIEW,
            "A scrolling plane battle: the player dodges enemy fire and shoots back until one side is gone.",
        ),
        action(
            SectionKey.USER_STORIES,
            "- As a player I steer the plane in four directions and fire bullets.\n"
            "- As a player I lose when my plane's hit points reach zero.",
        ),
        action(
            SectionKey.CONSTRAINTS,
            "- Collision decisions must be deterministic and unit-testable without a display.",
        ),
        action(
            SectionKey.DIRECTORY_STRUCTURE,
            "entities/player.py     plane state\nsystems/collision.py   impact detection",
        ),
        action(
            SectionKey.GLOBAL_SHARED_KNOWLEDGE,
            "- Coordinates are screen pixels, origin top-left.\n- One impact costs 10 hit points.",
        ),
        action(SectionKey.API_SPECIFICATIONS, "\n".join(print_api_section(entries))),
        action(
            SectionKey.DEPENDENCY_RELATIONSHIPS,
            "```\nsystems/collision.py --> entities/player.py\n```",
        ),
    ]
    proposal = AgentResponse(
        thinking="Two independent workers: plane state and collision math. The document carries the only shared interface.",
        output="Drafted the plan: plane entity plus a collision system keyed off its schema.",
        actions=tuple(pm_actions),
    )
    rectification = AgentResponse(
        thinking="Dependencies are acyclic and every type is declared; nothing to correct.",
        output="Draft verified; no corrections needed.",
    )
    records = [
        record(0, "project_manager", "", proposal),
        record(0, "discriminator", "", rectification),
        record(
            1,
            "worker",
            "entities/player.py",
            AgentResponse(
                thinking="Implement the plane exactly as the schema declares it.",
                output="Implemented entities/player.py per the shared document.",
                artifacts=(("entities/player.py", PLANE_PLAYER_V1),),
            ),
        ),
        record(
            1,
            "worker",
            "systems/collision.py",
            AgentResponse(
                thinking="Bounding-box math needs the plane's extent; reading width and height off the plane.",
                output="Implemented systems/collision.py with an axis-aligned box test.",
                artifacts=(("systems/collision.py", PLANE_COLLISION_PY),),
            ),
        ),
        record(
            2,
            "worker",
            "entities/player.py",
            AgentResponse(
                thinking="The schema now requires spatial dimensions on the plane; adding the bounding box.",
                output="Repaired entities/player.py: the plane now carries its bounding box.",
                artifacts=(("entities/player.py", PLANE_PLAYER_V2),),
            ),
        ),
        record(
            2,
            "critic",
            "systems/collision.py",
            AgentResponse(
                thinking="The box test matches the amended schema and the damage rule.",
                output="systems/collision.py fulfils its contracted interface.\nVERDICT: PASS",
            ),
        ),
        record(
            3,
            "critic",
            "entities/player.py",
            AgentResponse(
                thinking="All contracted attributes including the bounding box are present with correct signatures.",
                output="entities/player.py fulfils its contracted interface.\nVERDICT: PASS",
            ),
        ),
    ]
    return records


def main() -> None:
    intents_dir = FIXTURES / "intents"
    intents_dir.mkdir(parents=True, exist_ok=True)
    for name, text in INTENTS.items():
        (intents_dir / f"{name}.txt").write_text(text, encoding="utf-8")

    manifests_dir = FIXTURES / "manifests"
    manifests_dir.mkdir(parents=True, exist_ok=True)
    for name, paths in MANIFESTS.items():
        (manifests_dir / f"{name}.txt").write_text("\n".join(paths) + "\n", encoding="utf-8")

    write_jsonl(FIXTURES / "transcripts" / "gomoku.jsonl", gomoku_transcript())
    write_jsonl(FIXTURES / "transcripts" / "plane_battle.jsonl", plane_transcript())
    print(f"fixtures written under {FIXTURES}")


if __name__ == "__main__":
    main()

from __future__ import annotations

import pytest

from charter.agents import AgentResponse, RoleKind, Verdict
from charter.auditor import (
    ContractAmendment,
    DeltaKind,
    DetailKind,
    DispatchOutcome,
    SyncTask,
    TaskInjection,
    audit_layer,
    classify,
    compare_unit,
    consistency_check,
    demand_details,
    existence_check,
    match,
    sync_statuses,
)
from charter.contract import SectionKey
from charter.kernel import project
from charter.tasks import Task, TaskStatus
from charter.workspace import FileUnit

from conftest import contract_with, make_entry, method, simple_class

PLAYER_CLASS = simple_class(
    "Player",
    [("x", "int"), ("y", "int"), ("health", "int")],
    [method("def move(dx: int, dy: int) -> None"), method("def take_damage(amount: int) -> None")],
)

COLLISION_CLASS = simple_class(
    "CollisionSystem",
    [("hits", "int")],
    [method("def hit_test(player: Player, px: int, py: int) -> bool")],
)

PLAYER_OK = """\
class Player:
    def __init__(self):
        self.x: int = 0
        self.y: int = 0
        self.health: int = 100

    def move(self, dx: int, dy: int) -> None:
        self.x += dx
        self.y += dy

    def take_damage(self, amount: int) -> None:
        self.health -= amount
"""

PLAYER_SUPERSET = PLAYER_OK.replace(
    "        self.health: int = 100\n",
    "        self.health: int = 100\n        self.width: int = 32\n        self.height: int = 24\n",
)

COLLISION_DEMANDING = """\
class CollisionSystem:
    def __init__(self):
        self.hits: int = 0

    def hit_test(self, player: Player, px: int, py: int) -> bool:
        inside_x = player.x <= px < player.x + player.width
        inside_y = player.y <= py < player.y + player.height
        return inside_x and inside_y
"""


def _plane_contract():
    return contract_with(
        [
            make_entry("entities/player.py", owner="backend", classes=(PLAYER_CLASS,)),
            make_entry("systems/collision.py", owner="algorithm", classes=(COLLISION_CLASS,)),
        ],
        dependency_lines=["systems/collision.py --> entities/player.py"],
    )


def _tasks(contract, statuses=None):
    from charter.kernel import tasks_of

    tasks = {t.id: t for t in tasks_of(project(contract))}
    for task_id, status in (statuses or {}).items():
        tasks[task_id].status = status
    return tasks


def test_match_true_when_classes_present():
    task = Task(id="entities/player.py", file_path="entities/player.py", owner="b")
    entry = make_entry("entities/player.py", classes=(PLAYER_CLASS,))
    assert match(task, FileUnit(path="entities/player.py", body=PLAYER_OK), entry)


def test_match_false_on_missing_class_or_empty_file():
    task = Task(id="a.py", file_path="a.py", owner="b")
    entry = make_entry("a.py", classes=(PLAYER_CLASS,))
    assert not match(task, FileUnit(path="a.py", body="x = 1\n"), entry)
    assert not match(task, FileUnit(path="a.py", body="   \n"), entry)
    assert not match(task, None, entry)


def test_match_rejects_hollow_skeleton():
    task = Task(id="entities/player.py", file_path="entities/player.py", owner="b")
    entry = make_entry("entities/player.py", classes=(PLAYER_CLASS,))
    assert not match(task, FileUnit(path="entities/player.py", body="class Player: pass\n"), entry)


def test_existence_two_of_three():
    contract = contract_with(
        [
            make_entry("a.py", classes=(simple_class("A", [("v", "int")], [method("def f() -> None")]),)),
            make_entry("b.py", classes=(simple_class("B", [("v", "int")], [method("def g() -> None")]),)),
            make_entry("c.py", classes=(simple_class("C", [("v", "int")], [method("def h() -> None")]),)),
        ]
    )
    view = {
        "a.py": "class A:\n    def __init__(self):\n        self.v = 1\n",
        "b.py": "class B:\n    def __init__(self):\n        self.v = 2\n",
    }
    fraction, unmatched = existence_check(contract, view)
    assert fraction == pytest.approx(2 / 3)
    assert unmatched == ("c.py",)


def test_existence_zero_files():
    contract = contract_with(
        [make_entry("a.py", classes=(simple_class("A", [], [method("def f() -> None")]),))]
    )
    fraction, unmatched = existence_check(contract, {})
    assert fraction == 0.0
    assert unmatched == ("a.py",)


def test_consistency_superset_is_patchable_width_height():
    contract = contract_with([make_entry("entities/player.py", classes=(PLAYER_CLASS,))])
    ok, deltas = consistency_check(contract, {"entities/player.py": PLAYER_SUPERSET})
    assert ok is False
    assert len(deltas) == 1
    delta = deltas[0]
    assert delta.kind is DeltaKind.PATCHABLE
    symbols = sorted(d.symbol for d in delta.details)
    assert symbols == ["Player.height", "Player.width"]
    assert all(d.kind is DetailKind.EXTRA for d in delta.details)


def test_consistency_type_drift_is_critical():
    contract = contract_with([make_entry("entities/player.py", classes=(PLAYER_CLASS,))])
    drifted = PLAYER_OK.replace("def move(self, dx: int, dy: int) -> None:", "def move(self, dx: float, dy: int) -> None:")
    ok, deltas = consistency_check(contract, {"entities/player.py": drifted})
    assert ok is False
    assert deltas[0].kind is DeltaKind.CRITICAL
    mismatch = [d for d in deltas[0].details if d.kind is DetailKind.MISMATCH]
    assert mismatch and "dx: float" in mismatch[0].actual


def test_consistency_identical_everywhere():
    contract = contract_with([make_entry("entities/player.py", classes=(PLAYER_CLASS,))])
    ok, deltas = consistency_check(contract, {"entities/player.py": PLAYER_OK})
    assert ok is True
    assert all(d.kind is DeltaKind.EMPTY for d in deltas)


def test_consistency_reports_demands_like_the_layer_audit():
    contract = _plane_contract()
    view = {"entities/player.py": PLAYER_OK, "systems/collision.py": COLLISION_DEMANDING}
    ok, deltas = consistency_check(contract, view)
    assert ok is False
    by_id = {d.task_id: d for d in deltas}
    assert by_id["entities/player.py"].kind is DeltaKind.EMPTY
    collision = by_id["systems/collision.py"]
    assert collision.kind is DeltaKind.PATCHABLE
    assert [(d.kind, d.symbol) for d in collision.details] == [
        (DetailKind.DEMANDED, "Player.height"),
        (DetailKind.DEMANDED, "Player.width"),
    ]


def test_default_valued_contract_method_matches_its_implementation():
    cls = simple_class("Player", [("x", "int")], [method("def move(dx: int = 1) -> None")])
    entry = make_entry("entities/player.py", classes=(cls,))
    body = (
        "class Player:\n"
        "    def __init__(self):\n"
        "        self.x: int = 0\n\n"
        "    def move(self, dx: int = 1) -> None:\n"
        "        self.x += dx\n"
    )
    details = compare_unit(entry, body)
    assert details == []
    assert classify(details) is DeltaKind.EMPTY


def test_demand_details_resolves_param_annotation():
    contract = _plane_contract()
    kernel = project(contract)
    details = demand_details(kernel, "systems/collision.py", COLLISION_DEMANDING)
    assert [d.symbol for d in details] == ["Player.height", "Player.width"]
    assert all(d.kind is DetailKind.DEMANDED for d in details)


def test_sync_statuses_critic_outcomes():
    contract = _plane_contract()
    tasks = _tasks(contract, {"entities/player.py": TaskStatus.DONE, "systems/collision.py": TaskStatus.DONE})
    outcomes = [
        DispatchOutcome(
            task_id="entities/player.py",
            role=RoleKind.CRITIC,
            response=AgentResponse(thinking="t", output="VERDICT: PASS", verdict=Verdict(True)),
        ),
        DispatchOutcome(
            task_id="systems/collision.py",
            role=RoleKind.CRITIC,
            response=AgentResponse(
                thinking="t",
                output="VERDICT: FAIL collision uses undeclared width",
                verdict=Verdict(False, "collision uses undeclared width"),
            ),
        ),
    ]
    updates, feedback, warnings = sync_statuses(tasks, outcomes)
    assert ("entities/player.py", TaskStatus.DONE, TaskStatus.VERIFIED) in updates
    assert ("systems/collision.py", TaskStatus.DONE, TaskStatus.ERROR) in updates
    assert ("systems/collision.py", "collision uses undeclared width") in feedback
    assert warnings == []


def test_sync_statuses_missing_verdict_warns():
    contract = _plane_contract()
    tasks = _tasks(contract, {"entities/player.py": TaskStatus.DONE})
    outcomes = [
        DispatchOutcome(
            task_id="entities/player.py",
            role=RoleKind.CRITIC,
            response=AgentResponse(thinking="t", output="no verdict here"),
        )
    ]
    updates, feedback, warnings = sync_statuses(tasks, outcomes)
    assert updates == [] and feedback == []
    assert any("no verdict" in w for w in warnings)


def _worker_outcome(task_id: str, path: str, body: str) -> DispatchOutcome:
    return DispatchOutcome(
        task_id=task_id,
        role=RoleKind.WORKER,
        response=AgentResponse(thinking="t", output="built", artifacts=((path, body),)),
    )


def test_audit_layer_schema_divergence_scenario():
    contract = _plane_contract()
    tasks = _tasks(contract)
    outcomes = [
        _worker_outcome("entities/player.py", "entities/player.py", PLAYER_OK),
        _worker_outcome("systems/collision.py", "systems/collision.py", COLLISION_DEMANDING),
    ]
    report = audit_layer(contract, {}, tasks, outcomes)

    by_task = {d.task_id: d for d in report.deltas}
    assert by_task["entities/player.py"].kind is DeltaKind.EMPTY
    assert by_task["systems/collision.py"].kind is DeltaKind.PATCHABLE

    amendments = [i for i in report.interventions if isinstance(i, ContractAmendment)]
    assert len(amendments) == 1
    assert amendments[0].added_symbols == ("Player.height", "Player.width")
    assert amendments[0].action.section is SectionKey.API_SPECIFICATIONS

    syncs = [i for i in report.interventions if isinstance(i, SyncTask)]
    assert len(syncs) == 1
    assert syncs[0].task_id == "entities/player.py"
    assert syncs[0].directive.startswith("Fix the schema definition; Player requires")

    # both artifacts were committed, and the backend task regressed afterwards
    assert [t for t, _ in report.accepted_artifacts] == [
        "entities/player.py",
        "systems/collision.py",
    ]
    assert ("entities/player.py", "DONE", "ERROR") in report.status_updates
    assert report.consistency is False


def test_audit_layer_silent_rename_is_rejected():
    contract = _plane_contract()
    tasks = _tasks(contract)
    renamed = PLAYER_OK.replace("def take_damage(self, amount: int) -> None:", "def hurt(self, amount: int) -> None:")
    outcomes = [_worker_outcome("entities/player.py", "entities/player.py", renamed)]
    report = audit_layer(contract, {}, tasks, outcomes)
    delta = report.deltas[0]
    assert delta.kind is DeltaKind.CRITICAL
    assert report.accepted_artifacts == ()
    assert ("entities/player.py", "TODO", "DONE") in report.status_updates
    assert ("entities/player.py", "DONE", "ERROR") in report.status_updates
    assert any("take_damage" in note for _, note in report.feedback)


def test_audit_layer_all_empty_is_quiet():
    contract = _plane_contract()
    tasks = _tasks(contract)
    collision_clean = """\
class CollisionSystem:
    def __init__(self):
        self.hits: int = 0

    def hit_test(self, player: Player, px: int, py: int) -> bool:
        return player.x == px and player.y == py
"""
    outcomes = [
        _worker_outcome("entities/player.py", "entities/player.py", PLAYER_OK),
        _worker_outcome("systems/collision.py", "systems/collision.py", collision_clean),
    ]
    report = audit_layer(contract, {}, tasks, outcomes)
    assert report.existence == 1.0
    assert report.consistency is True
    assert all(d.kind is DeltaKind.EMPTY for d in report.deltas)
    # only the status write-back touches the document
    assert [i for i in report.interventions if not isinstance(i, TaskInjection)] == []


def test_audit_layer_is_pure():
    contract = _plane_contract()
    outcomes = [
        _worker_outcome("entities/player.py", "entities/player.py", PLAYER_OK),
        _worker_outcome("systems/collision.py", "systems/collision.py", COLLISION_DEMANDING),
    ]
    first = audit_layer(contract, {}, _tasks(contract), outcomes)
    second = audit_layer(contract, {}, _tasks(contract), outcomes)
    assert first.sha256() == second.sha256()


def test_audit_layer_unmatched_task_injected():
    contract = _plane_contract()
    tasks = _tasks(contract)
    outcomes = [_worker_outcome("entities/player.py", "entities/player.py", PLAYER_OK)]
    report = audit_layer(contract, {}, tasks, outcomes)
    injections = [i for i in report.interventions if isinstance(i, TaskInjection)]
    assert [i.path for i in injections] == ["systems/collision.py"]
    assert report.existence == pytest.approx(0.5)


def test_audit_layer_amendment_downgrade_on_duplicate_class():
    # The worker defines a peer's contracted class in its own file; the
    # legitimizing amendment would duplicate the class and is refused.
    contract = _plane_contract()
    tasks = _tasks(contract)
    squatting = COLLISION_DEMANDING.replace(
        "class CollisionSystem:",
        "class Player:\n    def __init__(self):\n        self.x: int = 0\n\n\nclass CollisionSystem:",
    )
    outcomes = [_worker_outcome("systems/collision.py", "systems/collision.py", squatting)]
    report = audit_layer(contract, {}, tasks, outcomes)
    delta = report.deltas[0]
    assert delta.kind is DeltaKind.CRITICAL
    assert not any(isinstance(i, ContractAmendment) for i in report.interventions)
    assert report.accepted_artifacts == ()
    assert any("amendment rejected" in w for w in report.warnings)


PLAYER_BLACK = '''\
class Player:
    """A movable player."""

    def __init__(self) -> None:
        self.x: int = 0
        self.y: int = 0
        self.health: int = 100

    def move(
        self,
        dx: int,
        dy: int,
    ) -> None:
        self.x += dx
        self.y += dy

    async def _sync(self) -> None:
        pass

    def take_damage(self, amount: int) -> None:
        self.health -= amount
'''


def test_audit_layer_accepts_black_formatted_artifact():
    contract = contract_with([make_entry("entities/player.py", classes=(PLAYER_CLASS,))])
    outcomes = [_worker_outcome("entities/player.py", "entities/player.py", PLAYER_BLACK)]
    report = audit_layer(contract, {}, _tasks(contract), outcomes)
    assert [(d.task_id, d.kind, d.details) for d in report.deltas] == [("entities/player.py", DeltaKind.EMPTY, ())]
    assert [t for t, _ in report.accepted_artifacts] == ["entities/player.py"]


def test_audit_layer_drops_an_artifact_written_to_a_peer_tasks_file():
    contract = _plane_contract()
    drifted = PLAYER_OK.replace("def take_damage(self, amount: int)", "def take_damage(self, amount: str)")
    collision_clean = COLLISION_DEMANDING.replace(" + player.width", "").replace(" + player.height", "")
    squatter = DispatchOutcome(
        task_id="systems/collision.py",
        role=RoleKind.WORKER,
        response=AgentResponse(
            thinking="t",
            output="built",
            artifacts=(("systems/collision.py", collision_clean), ("entities/player.py", drifted)),
        ),
    )
    outcomes = [_worker_outcome("entities/player.py", "entities/player.py", PLAYER_OK), squatter]
    report = audit_layer(contract, {}, _tasks(contract), outcomes)

    assert [(d.task_id, d.kind) for d in report.deltas] == [
        ("entities/player.py", DeltaKind.EMPTY),
        ("systems/collision.py", DeltaKind.EMPTY),
    ]
    committed = {path: body for _, artifacts in report.accepted_artifacts for path, body in artifacts}
    assert committed == {"entities/player.py": PLAYER_OK, "systems/collision.py": collision_clean}
    assert ("systems/collision.py", "artifact dropped: entities/player.py is another task's file") in report.feedback


PLAYER_GROWN = PLAYER_OK.replace(
    "        self.health: int = 100\n",
    "        self.health: int = 100\n        self.speed: float = 1.5\n        self._cache = {}\n",
) + '''
    def heal(self, amount: int = 5) -> int:
        self.health += amount
        return self.health


class Inventory:
    def __init__(self):
        self._dirty = False

    def _flush(self) -> None:
        self._dirty = False
'''

COLLISION_READING_SPEED = """\
class CollisionSystem:
    def __init__(self):
        self.hits: int = 0

    def hit_test(self, player: Player, px: int, py: int) -> bool:
        return player.x <= px < player.x + player.width * player.speed
"""


def test_audit_layer_amendment_records_members_from_the_audited_body():
    # The worker's own members are recorded from its body, private names left
    # out; a member both defined and demanded keeps the first task's wording.
    contract = _plane_contract()
    outcomes = [
        _worker_outcome("entities/player.py", "entities/player.py", PLAYER_GROWN),
        _worker_outcome("systems/collision.py", "systems/collision.py", COLLISION_READING_SPEED),
    ]
    report = audit_layer(contract, {}, _tasks(contract), outcomes)

    amendment = next(i for i in report.interventions if isinstance(i, ContractAmendment))
    assert amendment.added_symbols == ("Inventory", "Player.heal", "Player.speed", "Player.width")
    [(author, write_back)] = report.contract_actions
    assert author == "auditor"
    assert write_back.content == """\
- File: entities/player.py
  Owner: backend
  Version: 2
  Status: ERROR
  Classes:
    - Class: Player
      Attributes:
        - x: int | x value
        - y: int | y value
        - health: int | health value
        - speed: float | observed in entities/player.py
        - width: any | required by systems/collision.py
      Methods:
        - def move(dx: int, dy: int) -> None | documented
        - def take_damage(amount: int) -> None | documented
        - def heal(amount: int) -> int | recorded from entities/player.py
    - Class: Inventory

- File: systems/collision.py
  Owner: algorithm
  Version: 1
  Status: DONE
  Classes:
    - Class: CollisionSystem
      Attributes:
        - hits: int | hits value
      Methods:
        - def hit_test(player: Player, px: int, py: int) -> bool | documented"""

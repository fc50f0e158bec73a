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

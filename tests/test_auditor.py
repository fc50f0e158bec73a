from __future__ import annotations

from dataclasses import replace

import pytest

from charter.agents import AgentResponse, RoleKind, Verdict
from charter.auditor import (
    AUDITOR_AUTHOR,
    ContractAmendment,
    DeltaKind,
    DetailKind,
    DispatchOutcome,
    StatusRegression,
    SyncTask,
    TaskInjection,
    _amended_entries,
    audit_layer,
    classify,
    compare_unit,
    consistency_check,
    demand_details,
    existence_check,
    match,
)
from charter.contract import SectionKey, apply_action
from charter.kernel import AttributeSpec, ClassSpec, full_view, project
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
    tasks = {path: Task(id=path, owner=entry.owner) for path, entry in project(contract).entries.items()}
    for task_id, status in (statuses or {}).items():
        tasks[task_id].status = status
    return tasks


def _units(bodies: dict[str, str]) -> dict[str, FileUnit]:
    return {path: FileUnit(path, body) for path, body in bodies.items()}


def test_match_true_when_classes_present():
    entry = make_entry("entities/player.py", classes=(PLAYER_CLASS,))
    assert match(FileUnit(path="entities/player.py", body=PLAYER_OK), entry)


def test_match_false_on_missing_class_or_empty_file():
    entry = make_entry("a.py", classes=(PLAYER_CLASS,))
    assert not match(FileUnit(path="a.py", body="x = 1\n"), entry)
    assert not match(FileUnit(path="a.py", body="   \n"), entry)
    assert not match(None, entry)


def test_match_rejects_hollow_skeleton():
    entry = make_entry("entities/player.py", classes=(PLAYER_CLASS,))
    assert not match(FileUnit(path="entities/player.py", body="class Player: pass\n"), entry)


def test_a_nested_class_of_a_contracted_name_is_not_the_one_audited():
    # Both read the module-level Player, not the one nested in factory().
    body = PLAYER_OK + "\n\ndef factory():\n    class Player:\n        pass\n    return Player\n"
    entry = make_entry("entities/player.py", classes=(PLAYER_CLASS,))
    assert match(FileUnit(path="entities/player.py", body=body), entry)
    assert compare_unit(entry, FileUnit("entities/player.py", body)) == []


def test_existence_two_of_three():
    contract = contract_with(
        [
            make_entry("a.py", classes=(simple_class("A", [("v", "int")], [method("def f() -> None")]),)),
            make_entry("b.py", classes=(simple_class("B", [("v", "int")], [method("def g() -> None")]),)),
            make_entry("c.py", classes=(simple_class("C", [("v", "int")], [method("def h() -> None")]),)),
        ]
    )
    files = _units(
        {
            "a.py": "class A:\n    def __init__(self):\n        self.v = 1\n",
            "b.py": "class B:\n    def __init__(self):\n        self.v = 2\n",
        }
    )
    fraction, unmatched = existence_check(project(contract).entries, files)
    assert fraction == pytest.approx(2 / 3)
    assert unmatched == ("c.py",)


def test_existence_zero_files():
    contract = contract_with(
        [make_entry("a.py", classes=(simple_class("A", [], [method("def f() -> None")]),))]
    )
    fraction, unmatched = existence_check(project(contract).entries, {})
    assert fraction == 0.0
    assert unmatched == ("a.py",)


def test_consistency_superset_is_patchable_width_height():
    contract = contract_with([make_entry("entities/player.py", classes=(PLAYER_CLASS,))])
    ok, deltas = consistency_check(contract, _units({"entities/player.py": PLAYER_SUPERSET}))
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
    ok, deltas = consistency_check(contract, _units({"entities/player.py": drifted}))
    assert ok is False
    assert deltas[0].kind is DeltaKind.CRITICAL
    mismatch = [d for d in deltas[0].details if d.kind is DetailKind.MISMATCH]
    assert mismatch and "dx: float" in mismatch[0].actual


def test_consistency_identical_everywhere():
    contract = contract_with([make_entry("entities/player.py", classes=(PLAYER_CLASS,))])
    ok, deltas = consistency_check(contract, _units({"entities/player.py": PLAYER_OK}))
    assert ok is True
    assert all(d.kind is DeltaKind.EMPTY for d in deltas)


def test_consistency_reports_demands_like_the_layer_audit():
    contract = _plane_contract()
    files = _units({"entities/player.py": PLAYER_OK, "systems/collision.py": COLLISION_DEMANDING})
    ok, deltas = consistency_check(contract, files)
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
    details = compare_unit(entry, FileUnit("entities/player.py", body))
    assert details == []
    assert classify(details) is DeltaKind.EMPTY


def test_demand_details_resolves_param_annotation():
    contract = _plane_contract()
    kernel = project(contract)
    details = demand_details(kernel, FileUnit("systems/collision.py", COLLISION_DEMANDING))
    assert [d.symbol for d in details] == ["Player.height", "Player.width"]
    assert all(d.kind is DetailKind.DEMANDED for d in details)


def _critic_outcome(task_id: str, output: str, verdict: Verdict | None) -> DispatchOutcome:
    return DispatchOutcome(
        task_id=task_id,
        role=RoleKind.CRITIC,
        view={},
        response=AgentResponse(thinking="t", output=output, verdict=verdict),
    )


def test_audit_layer_moves_tasks_by_critic_verdicts():
    contract = _plane_contract()
    tasks = _tasks(contract, {"entities/player.py": TaskStatus.DONE, "systems/collision.py": TaskStatus.DONE})
    outcomes = [
        _critic_outcome("entities/player.py", "VERDICT: PASS", Verdict(True)),
        _critic_outcome(
            "systems/collision.py",
            "VERDICT: FAIL collision uses undeclared width",
            Verdict(False, "collision uses undeclared width"),
        ),
    ]
    report = audit_layer(contract, {}, tasks, outcomes)
    assert report.status_updates == (
        ("entities/player.py", "DONE", "VERIFIED"),
        ("systems/collision.py", "DONE", "ERROR"),
    )
    assert report.feedback == (("systems/collision.py", "collision uses undeclared width"),)
    assert report.warnings == ()
    assert report.interventions == (StatusRegression("systems/collision.py", "collision uses undeclared width"),)


def test_audit_layer_warns_when_a_critic_gives_no_verdict():
    contract = _plane_contract()
    tasks = _tasks(contract, {"entities/player.py": TaskStatus.DONE})
    outcomes = [_critic_outcome("entities/player.py", "no verdict here", None)]
    report = audit_layer(contract, {}, tasks, outcomes)
    assert report.status_updates == () and report.feedback == ()
    assert any("no verdict" in w for w in report.warnings)
    assert report.interventions == ()


def _worker_outcome(task_id: str, path: str, body: str) -> DispatchOutcome:
    return DispatchOutcome(
        task_id=task_id,
        role=RoleKind.WORKER,
        view={},
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
    assert amendments[0].to_dict()["section"] == SectionKey.API_SPECIFICATIONS.value

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


@pytest.mark.parametrize("names", [("file", "status", "owner", "version"), ("methods", "attributes", "classes")])
def test_an_amendment_records_members_named_like_entry_fields(names):
    # Each recorded member is printed as an attribute line of the entry; the
    # guarded trial reads it back as that attribute, not as a field or a block.
    added = "".join(f"        self.{name}: int = 0\n" for name in names)
    body = PLAYER_OK.replace("        self.health: int = 100\n", "        self.health: int = 100\n" + added)
    contract = _plane_contract()
    outcomes = [_worker_outcome("entities/player.py", "entities/player.py", body)]
    report = audit_layer(contract, {}, _tasks(contract), outcomes)

    assert [d.kind for d in report.deltas] == [DeltaKind.PATCHABLE]
    assert report.warnings == ()
    amendment = next(i for i in report.interventions if isinstance(i, ContractAmendment))
    assert amendment.added_symbols == tuple(f"Player.{name}" for name in sorted(names))


def test_an_audit_without_a_patchable_delta_builds_no_amended_entries(monkeypatch):
    import charter.auditor

    def refuse(*args):
        raise AssertionError("amended entries built without a PATCHABLE delta")

    monkeypatch.setattr(charter.auditor, "_amended_entries", refuse)
    contract = _plane_contract()
    outcomes = [_worker_outcome("entities/player.py", "entities/player.py", PLAYER_OK)]
    report = audit_layer(contract, {}, _tasks(contract), outcomes)
    assert [d.kind for d in report.deltas] == [DeltaKind.EMPTY]


def test_a_unit_compared_again_reads_what_a_fresh_comparison_reads(monkeypatch):
    import charter.auditor

    computed = []
    compare = charter.auditor._compare
    monkeypatch.setattr(charter.auditor, "_compare", lambda entry, unit: computed.append(unit) or compare(entry, unit))
    entry = make_entry("entities/player.py", classes=(PLAYER_CLASS,))
    unit = FileUnit("entities/player.py", PLAYER_SUPERSET)
    first = compare_unit(entry, unit)
    assert [d.symbol for d in first] == ["Player.height", "Player.width"]
    first.clear()  # the caller's own list: the kept details are untouched
    again = compare_unit(entry, unit)
    assert again == compare_unit(entry, FileUnit(unit.path, unit.body))
    assert [d.symbol for d in again] == ["Player.height", "Player.width"]
    again.append(again[0])
    assert len(compare_unit(entry, unit)) == 2
    assert len(computed) == 2  # ``unit`` once, the fresh unit once: the repeats read the kept details

    # Equal classes in another tuple, or the same classes at another path, are compared afresh.
    computed.clear()
    assert compare_unit(replace(entry, classes=(PLAYER_CLASS,)), unit) == again[:2]
    broken = FileUnit("a.py", "class Player(:\n")
    assert [d.symbol for d in compare_unit(replace(entry, file_path="a.py"), broken)] == ["a.py"]
    assert [d.symbol for d in compare_unit(replace(entry, file_path="b.py"), broken)] == ["b.py"]
    assert len(computed) == 3


def test_an_amended_class_is_compared_afresh():
    entry = make_entry("entities/player.py", classes=(PLAYER_CLASS,))
    unit = FileUnit("entities/player.py", PLAYER_SUPERSET)
    assert [d.kind for d in compare_unit(entry, unit)] == [DetailKind.EXTRA, DetailKind.EXTRA]
    grown = ClassSpec(
        "Player", PLAYER_CLASS.attributes + (AttributeSpec("height", "int"), AttributeSpec("width", "int")), PLAYER_CLASS.methods
    )
    assert compare_unit(replace(entry, classes=(grown,)), unit) == []
    assert len(compare_unit(entry, unit)) == 2  # the first entry again: compared afresh, not read off the last


def test_amended_entries_keep_the_kernels_object_for_an_entry_they_leave_alone():
    contract = _plane_contract()
    kernel = project(contract)
    unit = FileUnit("systems/collision.py", COLLISION_DEMANDING)
    details = tuple(demand_details(kernel, unit))
    entries, symbols = _amended_entries(kernel, {unit.path: details}, {unit.path: (unit,)})
    assert symbols == ["Player.height", "Player.width"]
    assert entries["systems/collision.py"] is kernel.entries["systems/collision.py"]
    player = entries["entities/player.py"]
    assert player is not kernel.entries["entities/player.py"] and player.version == 2
    assert [a.name for a in player.classes[0].attributes] == ["x", "y", "health", "height", "width"]


HUD_CLASS = simple_class("Hud", [("score", "int")], [method("def draw() -> None")])

HUD_OK = """\
class Hud:
    def __init__(self):
        self.score: int = 0

    def draw(self) -> None:
        pass
"""


def test_audit_layer_plans_amendment_regression_and_repair_into_one_state():
    # collision's demand amends Player; hud's critic fails; the committed
    # player body misses the amended members. Each step moves its task in
    # one planned-status map, and the write-back stamps where they end.
    contract = contract_with(
        [
            make_entry("entities/player.py", owner="backend", classes=(PLAYER_CLASS,)),
            make_entry("systems/collision.py", owner="algorithm", classes=(COLLISION_CLASS,)),
            make_entry("ui/hud.py", owner="frontend", classes=(HUD_CLASS,)),
        ],
        dependency_lines=["systems/collision.py --> entities/player.py"],
    )
    tasks = _tasks(contract, {"entities/player.py": TaskStatus.DONE, "ui/hud.py": TaskStatus.DONE})
    files = _units({"entities/player.py": PLAYER_OK, "ui/hud.py": HUD_OK})
    outcomes = [
        _worker_outcome("systems/collision.py", "systems/collision.py", COLLISION_DEMANDING),
        _critic_outcome("ui/hud.py", "VERDICT: FAIL the score never changes", Verdict(False, "the score never changes")),
    ]
    report = audit_layer(contract, files, tasks, outcomes)

    directive = "Fix the schema definition; Player requires height, width."
    assert report.interventions == (
        ContractAmendment(added_symbols=("Player.height", "Player.width")),
        StatusRegression("ui/hud.py", "the score never changes"),
        SyncTask("entities/player.py", directive),
    )
    assert report.status_updates == (
        ("systems/collision.py", "TODO", "DONE"),
        ("ui/hud.py", "DONE", "ERROR"),
        ("entities/player.py", "DONE", "ERROR"),
    )
    assert report.feedback == (("ui/hud.py", "the score never changes"), ("entities/player.py", directive))
    assert report.existence == 1.0 and report.unmatched == ()

    [(author, write_back, view)] = report.contract_actions
    assert (author, view) == (AUDITOR_AUTHOR, full_view(contract))
    written = project(apply_action(contract, write_back)).entries
    planned = {task_id: task.status.value for task_id, task in tasks.items()}
    planned.update((task_id, new) for task_id, _, new in report.status_updates)
    assert {path: entry.status.value for path, entry in written.items()} == planned
    player = written["entities/player.py"].classes[0]
    assert [a.name for a in player.attributes][-2:] == ["height", "width"]


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


def test_audit_layer_reports_an_unmatched_task_without_injecting_it():
    # collision.py's task exists and is dispatched again; only a task the
    # barrier creates is a TaskInjection.
    contract = _plane_contract()
    tasks = _tasks(contract)
    outcomes = [_worker_outcome("entities/player.py", "entities/player.py", PLAYER_OK)]
    report = audit_layer(contract, {}, tasks, outcomes)
    assert report.unmatched == ("systems/collision.py",)
    assert not any(isinstance(i, TaskInjection) for i in report.interventions)
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
        view={},
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
    committed = {unit.path: unit.body for _, artifacts in report.accepted_artifacts for unit in artifacts}
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
    [(author, write_back, view)] = report.contract_actions
    assert author == "auditor" and view == full_view(contract)
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


def test_types_are_compared_in_one_canonical_form():
    # Quoted forward references, `X | None` against `Optional[X]` and a
    # wrapped annotation read as the contract's types: nothing differs.
    contract = contract_with(
        [
            make_entry(
                "game/player.py",
                classes=(
                    simple_class(
                        "Player",
                        [("hp", "int"), ("score", "Optional[int]"), ("moves", "List[Tuple[int, int]]")],
                        [method("def beats(other: Player) -> bool")],
                    ),
                ),
            )
        ]
    )
    body = (
        "class Player:\n"
        "    def __init__(self):\n"
        "        self.hp: 'int' = 10\n"
        "        self.score: int | None = None\n"
        "        self.moves: list[\n"
        "            tuple[int, int],  # (row, col)\n"
        "        ] = []\n"
        "\n"
        '    def beats(self, other: "Player") -> bool:\n'
        "        return self.hp > other.hp\n"
    )
    kernel = project(contract)
    unit = FileUnit("game/player.py", body)
    assert compare_unit(kernel.entries["game/player.py"], unit) == []
    assert demand_details(kernel, unit) == []


def test_a_method_with_a_union_parameter_is_amended_into_the_contract():
    # A layer in which one worker adds a method typed with `|` and another an
    # unrelated method: both supersets are legitimized by one amendment.
    contract = contract_with(
        [
            make_entry("a.py", classes=(simple_class("A", [], [method("def f() -> int")]),)),
            make_entry("b.py", classes=(simple_class("B", [], [method("def g() -> int")]),)),
        ]
    )
    outcomes = [
        _worker_outcome(
            "a.py",
            "a.py",
            "class A:\n    def f(self) -> int:\n        return 1\n\n"
            "    def h(self, y: int | None) -> int:\n        return 0\n",
        ),
        _worker_outcome(
            "b.py",
            "b.py",
            "class B:\n    def g(self) -> int:\n        return 1\n\n    def k(self) -> int:\n        return 2\n",
        ),
    ]
    report = audit_layer(contract, {}, _tasks(contract), outcomes)
    assert [(d.task_id, d.kind) for d in report.deltas] == [("a.py", DeltaKind.PATCHABLE), ("b.py", DeltaKind.PATCHABLE)]
    amendment = next(i for i in report.interventions if isinstance(i, ContractAmendment))
    assert amendment.added_symbols == ("A.h", "B.k")
    assert report.warnings == ()
    [(_, write_back, _)] = report.contract_actions
    assert "        - def h(y: int | None) -> int | recorded from a.py" in write_back.content.splitlines()


def test_a_receiver_is_a_peer_only_where_it_is_a_typed_parameter():
    # `other` is a Player in `beats` alone: the dict of the same name in
    # `tally` demands nothing of Player.
    contract = contract_with(
        [make_entry("p.py", classes=(simple_class("Player", [("hp", "int")], [method("def beats(other: Player) -> bool"), method("def tally() -> int")]),))]
    )
    body = (
        "class Player:\n"
        "    def __init__(self):\n"
        "        self.hp: int = 0\n"
        "\n"
        "    def beats(self, other: 'Player') -> bool:\n"
        "        return self.hp > other.hp\n"
        "\n"
        "    def tally(self) -> int:\n"
        "        other = {}\n"
        "        return other.get(1, 0)\n"
    )
    kernel = project(contract)
    assert demand_details(kernel, FileUnit("p.py", body)) == []
    assert [d.symbol for d in demand_details(kernel, FileUnit("p.py", body.replace("other.hp", "other.mp")))] == ["Player.mp"]


def test_a_receiver_named_like_a_class_is_no_peer_unless_typed():
    # A local, an untyped parameter and a module-level name called `player`
    # demand nothing of Player; a parameter typed Player does, and an untyped
    # inner parameter of the same name shadows it. A loop variable has no
    # annotation either, so an undeclared read through it is not a demand:
    # that read is given up for the false demands a name guess made.
    contract = contract_with([make_entry("p.py", classes=(simple_class("Player", [("hp", "int")], [method("def tally() -> int")]),))])
    kernel = project(contract)
    local = (
        "class Player:\n"
        "    def __init__(self):\n"
        "        self.hp: int = 0\n"
        "\n"
        "    def tally(self) -> int:\n"
        "        player = {}\n"
        "        return player.get(1, 0)\n"
    )
    untyped = local + "\n\ndef f(player):\n    return player.mp\n"
    module_level = local + "\n\nplayer = Player()\nplayer.mp = 1\n"
    typed = local + "\n\ndef f(player: Player) -> int:\n    return player.mp\n"
    shadowed = local + "\n\ndef f(player: Player) -> int:\n    def g(player):\n        return player.mp\n    return g(0)\n"
    loop = local + "\n\ndef f(players: list[Player]) -> int:\n    for player in players:\n        player.mp\n    return 0\n"
    for body in (local, untyped, module_level, shadowed, loop):
        assert demand_details(kernel, FileUnit("p.py", body)) == [], body
    assert [d.symbol for d in demand_details(kernel, FileUnit("p.py", typed))] == ["Player.mp"]

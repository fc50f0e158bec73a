from __future__ import annotations

import logging

import pytest

import charter.auditor
import charter.kernel
import charter.scheduler
from charter.agents import AgentResponse, IntentSpec, RoleKind, format_response
from charter.backends import ScriptedBackend
from charter.contract import ActionOp, ContractAction, SectionKey
from charter.kernel import normalize_module_id, print_api_section, project
from charter.scheduler import (
    InternalInconsistency,
    RunConfig,
    RunMode,
    dispatch_for,
    plan_layer,
    run,
    run_layer,
)
from charter.tasks import IllegalTransition, LEGAL_TRANSITIONS, Task, TaskStatus
from charter.workspace import Workspace

from conftest import contract_with, make_entry, method, simple_class


def _task(status=TaskStatus.TODO):
    return Task(id="mod.py", file_path="mod.py", owner="dev", status=status)


def test_dispatch_map_pointwise():
    assert dispatch_for(_task(TaskStatus.TODO)).role.kind is RoleKind.WORKER
    assert dispatch_for(_task(TaskStatus.ERROR)).role.kind is RoleKind.WORKER
    assert dispatch_for(_task(TaskStatus.DONE), "body").role.kind is RoleKind.CRITIC
    assert dispatch_for(_task(TaskStatus.VERIFIED)) is None


def test_dispatch_done_without_impl_is_inconsistent():
    with pytest.raises(InternalInconsistency):
        dispatch_for(_task(TaskStatus.DONE))


def test_plan_layer_mixed_statuses():
    ws = Workspace()
    ws.commit_file("b.py", "class B:\n    pass\n")
    tasks = {
        "a.py": Task(id="a.py", file_path="a.py", owner="d", status=TaskStatus.TODO),
        "b.py": Task(id="b.py", file_path="b.py", owner="d", status=TaskStatus.DONE),
        "c.py": Task(id="c.py", file_path="c.py", owner="d", status=TaskStatus.VERIFIED),
    }
    plan = plan_layer(tasks, ws)
    assert [(d.task_id, d.role.kind) for d in plan.dispatches] == [
        ("a.py", RoleKind.WORKER),
        ("b.py", RoleKind.CRITIC),
    ]


def test_plan_layer_empty_iff_all_verified():
    tasks = {
        f"t{i}.py": Task(id=f"t{i}.py", file_path=f"t{i}.py", owner="d", status=TaskStatus.VERIFIED)
        for i in range(3)
    }
    assert len(plan_layer(tasks, Workspace())) == 0


def test_plan_layer_five_todo_gives_width_five():
    tasks = {
        f"t{i}.py": Task(id=f"t{i}.py", file_path=f"t{i}.py", owner="d") for i in range(5)
    }
    plan = plan_layer(tasks, Workspace())
    assert len(plan) == 5
    assert all(d.role.kind is RoleKind.WORKER for d in plan.dispatches)


def _worker_record(layer, task, body, path=None):
    response = AgentResponse(
        thinking="t", output="built", artifacts=(((path or task), body),)
    )
    return {"layer": layer, "role": "worker", "task": task, "response": format_response(response)}


def _critic_record(layer, task, passed=True, reason=""):
    verdict_line = "VERDICT: PASS" if passed else f"VERDICT: FAIL {reason}"
    response = AgentResponse(thinking="t", output=f"review\n{verdict_line}")
    return {"layer": layer, "role": "critic", "task": task, "response": format_response(response)}


def _synthesis_records(entries, deps=None):
    actions = [
        ContractAction(
            ActionOp.UPDATE, SectionKey.API_SPECIFICATIONS, "\n".join(print_api_section(entries))
        )
    ]
    if deps:
        actions.append(ContractAction(ActionOp.UPDATE, SectionKey.DEPENDENCY_RELATIONSHIPS, "\n".join(deps)))
    pm = AgentResponse(thinking="plan", output="planned", actions=tuple(actions))
    disc = AgentResponse(thinking="check", output="fine")
    return [
        {"layer": 0, "role": "project_manager", "task": "", "response": format_response(pm)},
        {"layer": 0, "role": "discriminator", "task": "", "response": format_response(disc)},
    ]


MOD_BODY = """\
class M:
    def __init__(self):
        self.v: int = 0

    def f(self) -> None:
        \"\"\"documented\"\"\"
        self.v = self.v
"""


def _single_module_entries():
    return [
        make_entry(
            "mod.py",
            owner="dev",
            classes=(simple_class("M", [("v", "int")], [method("def f() -> None")]),),
        )
    ]


def test_run_layer_isolates_missing_transcript_entry():
    records = _synthesis_records(_single_module_entries())
    records += [
        _worker_record(1, "a.py", "class A:\n    pass\n"),
        # no entry for b.py on purpose
    ]
    backend = ScriptedBackend(records)
    contract = contract_with(
        [
            make_entry("a.py", classes=(simple_class("A", [], [method("def f() -> None")]),)),
            make_entry("b.py", classes=(simple_class("B", [], [method("def g() -> None")]),)),
        ]
    )
    tasks = {
        "a.py": Task(id="a.py", file_path="a.py", owner="d"),
        "b.py": Task(id="b.py", file_path="b.py", owner="d"),
    }
    plan = plan_layer(tasks, Workspace())
    outcomes = run_layer(
        plan, backend, contract, IntentSpec("x"), tasks, Workspace(), 1, RunConfig()
    )
    by_task = {o.task_id: o for o in outcomes}
    assert by_task["a.py"].response is not None
    assert by_task["b.py"].response is None
    assert "no transcript entry" in by_task["b.py"].error


def test_sequential_and_parallel_modes_match(gomoku_intent, gomoku_transcript):
    intent = IntentSpec(gomoku_intent.read_text())
    results = {}
    for mode in (RunMode.PARALLEL, RunMode.SEQUENTIAL):
        backend = ScriptedBackend.from_file(gomoku_transcript)
        results[mode] = run(intent, RunConfig(t_max=5, mode=mode), backend)
    parallel, sequential = results[RunMode.PARALLEL], results[RunMode.SEQUENTIAL]
    assert parallel.workspace.view() == sequential.workspace.view()
    assert parallel.contract.sections == sequential.contract.sections
    widths_parallel = [r["execution_width"] for r in parallel.ledger.records if r["kind"] == "layer"]
    widths_sequential = [r["execution_width"] for r in sequential.ledger.records if r["kind"] == "layer"]
    assert widths_sequential == [1, 1]
    assert widths_parallel == [3, 3]


def test_run_t_max_zero_best_effort(gomoku_intent, gomoku_transcript):
    intent = IntentSpec(gomoku_intent.read_text())
    backend = ScriptedBackend.from_file(gomoku_transcript)
    result = run(intent, RunConfig(t_max=0), backend)
    assert result.best_effort is True
    assert result.layers_used == 0
    assert result.workspace.paths() == []


def test_run_permanent_critic_rejection_best_effort():
    records = _synthesis_records(_single_module_entries())
    for layer in (1, 3):
        records.append(_worker_record(layer, "mod.py", MOD_BODY))
    for layer in (2, 4):
        records.append(_critic_record(layer, "mod.py", passed=False, reason="never good enough"))
    backend = ScriptedBackend(records)
    result = run(IntentSpec("one module"), RunConfig(t_max=4), backend)
    assert result.best_effort is True
    assert result.layers_used == 4
    assert result.tasks["mod.py"].status is TaskStatus.ERROR
    assert any("never good enough" in note for note in result.tasks["mod.py"].feedback)


def test_run_attempt_cap_parks_thrashing_task():
    # worker keeps omitting the contracted class -> CRITICAL every layer
    records = _synthesis_records(_single_module_entries())
    for layer in (1, 2, 3):
        records.append(_worker_record(layer, "mod.py", "x = 1\n"))
    backend = ScriptedBackend(records)
    result = run(IntentSpec("one module"), RunConfig(t_max=8, attempt_cap=3), backend)
    assert result.best_effort is True
    assert result.tasks["mod.py"].attempts == 3
    assert any("attempt cap" in note for note in result.tasks["mod.py"].feedback)
    # the loop stopped on an empty plan before exhausting t_max
    assert result.layers_used == 3


def test_run_contractless_mode_swaps_dispatch_context(gomoku_intent, gomoku_transcript):
    captured = []

    class Capture:
        def __init__(self, inner):
            self.inner = inner

        def complete(self, request):
            captured.append((request.layer, request.role, request.bundle.text))
            return self.inner.complete(request)

    intent = IntentSpec(gomoku_intent.read_text())
    backend = Capture(ScriptedBackend.from_file(gomoku_transcript))
    result = run(intent, RunConfig(t_max=5, mode=RunMode.NO_CONTRACT), backend)
    assert result.converged
    worker_bundles = [text for layer, role, text in captured if role == "worker"]
    assert worker_bundles
    for text in worker_bundles:
        assert "Shared document:" not in text
        assert "Task files:" in text
        assert "- board.py" in text
    # synthesis still sees the document it is building
    synthesis_bundles = [text for layer, role, text in captured if layer == 0]
    assert all("Shared document:" in text for text in synthesis_bundles)


def test_run_traces_only_legal_transitions(gomoku_intent, gomoku_transcript, plane_intent, plane_transcript):
    legal = {(a.value, b.value) for a, b in LEGAL_TRANSITIONS}
    for intent_path, transcript in ((gomoku_intent, gomoku_transcript), (plane_intent, plane_transcript)):
        backend = ScriptedBackend.from_file(transcript)
        result = run(IntentSpec(intent_path.read_text()), RunConfig(t_max=6), backend)
        for record in result.ledger.records:
            if record["kind"] != "layer":
                continue
            for _task, old, new in record["transitions"]:
                assert (old, new) in legal


def test_task_transition_guard():
    task = Task(id="x", file_path="x", owner="d", status=TaskStatus.TODO)
    with pytest.raises(IllegalTransition):
        task.transition(TaskStatus.VERIFIED)


def test_layer_snapshot_identical_for_all_dispatches(gomoku_intent, gomoku_transcript):
    seen_per_layer: dict[int, set[str]] = {}

    class Capture:
        def __init__(self, inner):
            self.inner = inner

        def complete(self, request):
            if request.layer > 0:
                start = request.bundle.text.index("Shared document:")
                end = request.bundle.text.index("Assigned file:")
                seen_per_layer.setdefault(request.layer, set()).add(
                    request.bundle.text[start:end]
                )
            return self.inner.complete(request)

    backend = Capture(ScriptedBackend.from_file(gomoku_transcript))
    run(IntentSpec(gomoku_intent.read_text()), RunConfig(t_max=5), backend)
    assert seen_per_layer
    for layer, snapshots in seen_per_layer.items():
        assert len(snapshots) == 1, f"layer {layer} saw diverging snapshots"


def test_workspace_equals_fold_of_ledger_commits(plane_intent, plane_transcript):
    from charter.ledger import file_sha256

    backend = ScriptedBackend.from_file(plane_transcript)
    result = run(IntentSpec(plane_intent.read_text()), RunConfig(t_max=6), backend)
    folded: dict[str, str] = {}
    for record in result.ledger.records:
        if record["kind"] == "layer":
            for commit in record["commits"]:
                folded[commit["path"]] = commit["sha256"]
    final = {u.path: file_sha256(u.body) for u in result.workspace.units()}
    assert folded == final


def test_worker_bundles_never_carry_peer_file_bodies(plane_intent, plane_transcript):
    bodies_seen: list[str] = []
    worker_bundles: list[str] = []

    class Capture:
        def __init__(self, inner):
            self.inner = inner

        def complete(self, request):
            if request.role == "worker":
                worker_bundles.append(request.bundle.text)
            return self.inner.complete(request)

    backend = Capture(ScriptedBackend.from_file(plane_transcript))
    result = run(IntentSpec(plane_intent.read_text()), RunConfig(t_max=6), backend)
    assert worker_bundles
    for unit in result.workspace.units():
        bodies_seen.append(unit.body)
    for text in worker_bundles:
        for body in bodies_seen:
            assert body not in text


def test_existence_monotone_when_no_commit_rejected(gomoku_intent, gomoku_transcript, plane_intent, plane_transcript):
    for intent_path, transcript, t_max in (
        (gomoku_intent, gomoku_transcript, 5),
        (plane_intent, plane_transcript, 6),
    ):
        backend = ScriptedBackend.from_file(transcript)
        result = run(IntentSpec(intent_path.read_text()), RunConfig(t_max=t_max), backend)
        values = [r["existence"] for r in result.ledger.records if r["kind"] == "layer"]
        assert values == sorted(values)


def test_each_contract_value_is_parsed_once(monkeypatch, gomoku_intent, gomoku_transcript, plane_intent, plane_transcript):
    projected = []  # the values themselves, so no id is reused while the runs last
    parsed = []
    project_, parse_ = charter.kernel.project, charter.kernel.parse_api_section

    def recording_project(contract):
        projected.append(contract)
        return project_(contract)

    def recording_parse(body):
        parsed.append(body)
        return parse_(body)

    for module in (charter.kernel, charter.auditor, charter.scheduler):
        monkeypatch.setattr(module, "project", recording_project)
    monkeypatch.setattr(charter.kernel, "parse_api_section", recording_parse)
    for intent_path, transcript in ((gomoku_intent, gomoku_transcript), (plane_intent, plane_transcript)):
        run(IntentSpec(intent_path.read_text()), RunConfig(t_max=6), ScriptedBackend.from_file(transcript))
    distinct = {id(contract) for contract in projected}
    assert len(projected) > len(distinct)
    assert len(parsed) == len(distinct)


def test_dispatch_events_logged(gomoku_intent, gomoku_transcript, caplog):
    backend = ScriptedBackend.from_file(gomoku_transcript)
    with caplog.at_level(logging.INFO, logger="charter.scheduler"):
        run(IntentSpec(gomoku_intent.read_text()), RunConfig(t_max=5), backend)
    starts = [r for r in caplog.records if "event=dispatch_start" in r.getMessage()]
    finishes = [r for r in caplog.records if "event=dispatch_finish" in r.getMessage()]
    assert len(starts) == 6  # 3 workers + 3 critics
    assert len(finishes) == 6


def test_audit_warnings_are_logged(caplog):
    records = _synthesis_records(_single_module_entries())
    records.append(_worker_record(1, "mod.py", MOD_BODY))
    silent = AgentResponse(thinking="t", output="review without a verdict line")
    records.append({"layer": 2, "role": "critic", "task": "mod.py", "response": format_response(silent)})
    with caplog.at_level(logging.WARNING, logger="charter.scheduler"):
        run(IntentSpec("one module"), RunConfig(t_max=2), ScriptedBackend(records))
    warnings = [r for r in caplog.records if "event=audit_warning" in r.getMessage()]
    assert [(r.levelno, "layer=2" in r.getMessage(), "produced no verdict" in r.getMessage()) for r in warnings] == [
        (logging.WARNING, True, True)
    ]


def test_rejected_document_action_keeps_audited_artifacts_and_statuses():
    # a.py adds a public method (PATCHABLE); b.py conforms but closes a cycle
    # in the dependency diagram. Only b.py's document action is rejected.
    entries = [
        make_entry("a.py", classes=(simple_class("A", [], [method("def f() -> None")]),)),
        make_entry("b.py", classes=(simple_class("B", [], [method("def g() -> None")]),)),
    ]
    a_body = (
        "class A:\n"
        "    def f(self) -> None:\n        \"\"\"documented\"\"\"\n\n"
        "    def extra(self) -> int:\n        \"\"\"documented\"\"\"\n        return 1\n"
    )
    b_body = "class B:\n    def g(self) -> None:\n        \"\"\"documented\"\"\"\n"
    cycle = ContractAction(ActionOp.ADD, SectionKey.DEPENDENCY_RELATIONSHIPS, "b.py --> a.py")
    b_response = AgentResponse(thinking="t", output="built", artifacts=(("b.py", b_body),), actions=(cycle,))
    records = _synthesis_records(entries, deps=["a.py --> b.py"]) + [
        _worker_record(1, "a.py", a_body),
        {"layer": 1, "role": "worker", "task": "b.py", "response": format_response(b_response)},
    ]
    result = run(IntentSpec("two modules"), RunConfig(t_max=1), ScriptedBackend(records))

    kernel = project(result.contract)
    assert [m.name for m in kernel.class_specs()["A"][1].methods] == ["f", "extra"]
    statuses = {normalize_module_id(e.file_path): e.status for e in kernel.entries}
    assert statuses == {t: task.status for t, task in result.tasks.items()}
    assert set(statuses.values()) == {TaskStatus.DONE}
    assert result.workspace.get("b.py").body == b_body
    assert result.tasks["b.py"].feedback[0].startswith("document action rejected: CYCLE")
    layer = next(r for r in result.ledger.records if r["kind"] == "layer")
    assert [t for t in layer["transitions"] if t[1:] == ["DONE", "ERROR"]] == []

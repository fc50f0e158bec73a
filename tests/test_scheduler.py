from __future__ import annotations

import json
import logging
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest

import charter.auditor
import charter.kernel
import charter.patches
import charter.scheduler
import charter.workspace
from charter.agents import AgentResponse, IntentSpec, RoleKind, format_response, parse_response
from charter.backends import BackendError, RequestRejected, ScriptedBackend
from charter.contract import (
    DEFAULT_TEMPLATE,
    ActionOp,
    ContractAction,
    SectionKey,
    journal_record,
    new_contract,
    rejection_record,
    render,
)
from charter.kernel import ViolationKind, print_api_section, project, task_view
from charter.ledger import file_sha256
from charter.scheduler import (
    InternalInconsistency,
    RunConfig,
    RunMode,
    create_tasks,
    dispatch_for,
    plan_layer,
    run,
    run_layer,
)
from charter.tasks import IllegalTransition, LEGAL_TRANSITIONS, Task, TaskStatus
from charter.workspace import FileUnit, Workspace

from conftest import GOLDEN, contract_with, make_entry, method, simple_class

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import synth  # noqa: E402


def _task(status=TaskStatus.TODO):
    return Task(id="mod.py", owner="dev", status=status)


def test_dispatch_map_pointwise():
    assert dispatch_for(_task(TaskStatus.TODO)).role is RoleKind.WORKER
    assert dispatch_for(_task(TaskStatus.ERROR)).role is RoleKind.WORKER
    assert dispatch_for(_task(TaskStatus.DONE), "body").role is RoleKind.CRITIC
    assert dispatch_for(_task(TaskStatus.VERIFIED)) is None


def test_dispatch_done_without_impl_is_inconsistent():
    with pytest.raises(InternalInconsistency):
        dispatch_for(_task(TaskStatus.DONE))


def test_plan_layer_mixed_statuses():
    ws = Workspace()
    ws.commit(FileUnit("b.py", "class B:\n    pass\n"))
    tasks = {
        "a.py": Task(id="a.py", owner="d", status=TaskStatus.TODO),
        "b.py": Task(id="b.py", owner="d", status=TaskStatus.DONE),
        "c.py": Task(id="c.py", owner="d", status=TaskStatus.VERIFIED),
    }
    plan = plan_layer(tasks, ws)
    assert [(d.task_id, d.role) for d in plan.dispatches] == [
        ("a.py", RoleKind.WORKER),
        ("b.py", RoleKind.CRITIC),
    ]


def test_plan_layer_empty_iff_all_verified():
    tasks = {
        f"t{i}.py": Task(id=f"t{i}.py", owner="d", status=TaskStatus.VERIFIED)
        for i in range(3)
    }
    assert len(plan_layer(tasks, Workspace())) == 0


def test_plan_layer_five_todo_gives_width_five():
    tasks = {
        f"t{i}.py": Task(id=f"t{i}.py", owner="d") for i in range(5)
    }
    plan = plan_layer(tasks, Workspace())
    assert len(plan) == 5
    assert all(d.role is RoleKind.WORKER for d in plan.dispatches)


def _worker_record(layer, task, body, path=None):
    response = AgentResponse(
        thinking="t", output="built", artifacts=(((path or task), body),)
    )
    return {"layer": layer, "role": "worker", "task": task, "response": format_response(response)}


def _critic_record(layer, task, passed=True, reason=""):
    verdict_line = "VERDICT: PASS" if passed else f"VERDICT: FAIL {reason}"
    response = AgentResponse(thinking="t", output=f"review\n{verdict_line}")
    return {"layer": layer, "role": "critic", "task": task, "response": format_response(response)}


def _synthesis_records(entries, deps=None, extra=()):
    actions = [
        ContractAction(
            ActionOp.UPDATE, SectionKey.API_SPECIFICATIONS, "\n".join(print_api_section(entries))
        )
    ]
    if deps:
        actions.append(ContractAction(ActionOp.UPDATE, SectionKey.DEPENDENCY_RELATIONSHIPS, "\n".join(deps)))
    actions.extend(extra)
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
        "a.py": Task(id="a.py", owner="d"),
        "b.py": Task(id="b.py", owner="d"),
    }
    plan = plan_layer(tasks, Workspace())
    outcomes = run_layer(
        plan, backend, contract, IntentSpec("x"), tasks, Workspace(), 1, RunConfig(), pool=None
    )
    by_task = {o.task_id: o for o in outcomes}
    assert by_task["a.py"].response is not None
    assert by_task["b.py"].response is None
    assert "no transcript entry" in by_task["b.py"].error



def test_a_parallel_layer_parses_every_answer_on_the_calling_thread(monkeypatch):
    """Pool threads only wait for the backend: the layer's own thread parses
    each answer, and still reads a raise as a transport failure and a garbled
    answer as a parse error."""
    paths = ("a.py", "b.py", "c.py")
    contract = contract_with(
        [make_entry(path, classes=(simple_class(path[0].upper(), [], [method("def f() -> None")]),)) for path in paths]
    )
    tasks = {path: Task(id=path, owner="d") for path in paths}
    parsed_on, completed_on = [], []

    def recording_parse(raw):
        parsed_on.append(threading.current_thread())
        return parse_response(raw)

    class Backend:
        def __init__(self, answers):
            self.answers = answers

        def complete(self, request):
            completed_on.append(threading.current_thread())
            answer = self.answers[request.task_id]
            if isinstance(answer, Exception):
                raise answer
            return answer

    monkeypatch.setattr(charter.scheduler, "parse_response", recording_parse)
    answers = {path: _worker_record(1, path, "class A:\n    pass\n")["response"] for path in paths}

    def layer(backend):
        with charter.scheduler.ThreadPoolExecutor(max_workers=3) as pool:
            plan = plan_layer(tasks, Workspace())
            return run_layer(plan, backend, contract, IntentSpec("x"), tasks, Workspace(), 1, RunConfig(), pool=pool)

    outcomes = layer(Backend(answers))
    assert [o.task_id for o in outcomes] == list(paths)
    assert all(o.response is not None and not o.error for o in outcomes)
    assert parsed_on == [threading.current_thread()] * 3
    assert threading.current_thread() not in completed_on

    parsed_on.clear()
    failing = {**answers, "b.py": BackendError("connection reset"), "c.py": "no tagged blocks"}
    a, b, c = layer(Backend(failing))
    assert a.response is not None and not a.error
    assert (b.response, b.error, b.transport_failed) == (None, "connection reset", True)
    assert c.response is None and "no <output> block" in c.error and not c.transport_failed
    assert parsed_on == [threading.current_thread()] * 2

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


@pytest.mark.parametrize("written, path", [("./mod.py", "mod.py"), ("pkg//mod.py", "pkg/mod.py")])
def test_run_converges_on_an_unnormalized_file_path(written, path):
    # The task, its transcript key and its workspace file are the normalized path.
    entries = [replace(_single_module_entries()[0], file_path=written)]
    records = _synthesis_records(entries) + [
        _worker_record(1, path, MOD_BODY, path=written),
        _critic_record(2, path),
    ]
    result = run(IntentSpec("one module"), RunConfig(t_max=3), ScriptedBackend(records))
    assert result.converged
    assert result.workspace.paths() == [path]
    assert list(project(result.contract).entries) == [path]


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


@pytest.mark.parametrize(
    "field, value", [("t_max", -1), ("attempt_cap", -1), ("context_limit", 0), ("context_limit", -5)]
)
def test_run_config_rejects_a_negative_bound(field, value):
    least = 1 if field == "context_limit" else 0  # no prompt fits in zero tokens
    with pytest.raises(ValueError, match=f"{field} must be >= {least}"):
        RunConfig(**{field: value})


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
    task = Task(id="x", owner="d", status=TaskStatus.TODO)
    with pytest.raises(IllegalTransition):
        task.transition(TaskStatus.VERIFIED)


def test_layer_snapshot_identical_for_all_dispatches(monkeypatch, gomoku_intent, gomoku_transcript):
    # Every layer-N prompt is built from one contract value, and each
    # dispatch's document is that snapshot's view for its task.
    built: list[tuple[str, object, str]] = []  # (task id, contract, document) per worker/critic prompt
    build = charter.scheduler.build_prompt

    def recording_build(role, task, contract, intent, **kwargs):
        bundle = build(role, task, contract, intent, **kwargs)
        start, end = bundle.text.index("Shared document:"), bundle.text.index("Assigned file:")
        built.append((task.id, contract, bundle.text[start:end]))
        return bundle

    monkeypatch.setattr(charter.scheduler, "build_prompt", recording_build)
    backend = ScriptedBackend.from_file(gomoku_transcript)
    result = run(IntentSpec(gomoku_intent.read_text()), RunConfig(t_max=5), backend)
    layers = [r for r in result.ledger.records if r["kind"] == "layer"]
    assert [len(layer["dispatches"]) for layer in layers] == [3, 3] and len(built) == 6
    snapshots = []
    for layer, prompts in zip(layers, (built[:3], built[3:])):
        assert [task_id for task_id, _, _ in prompts] == [d["task"] for d in layer["dispatches"]]
        snapshot = prompts[0][1]
        assert all(contract is snapshot for _, contract, _ in prompts)
        for task_id, _, document in prompts:
            assert document == "Shared document:\n\n" + render(snapshot, task_view(snapshot, task_id)) + "\n\n"
        assert len({document for _, _, document in prompts}) == 3  # the views differ by design
        snapshots.append(snapshot)
    assert snapshots[0].revision < snapshots[1].revision


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

    def recording_project(contract, basis=None):
        projected.append(contract)
        return project_(contract, basis)

    def recording_parse(body, basis):
        parsed.append(body)
        return parse_(body, basis)

    for module in (charter.kernel, charter.auditor, charter.scheduler):
        monkeypatch.setattr(module, "project", recording_project)
    monkeypatch.setattr(charter.kernel, "parse_api_section", recording_parse)
    for intent_path, transcript in ((gomoku_intent, gomoku_transcript), (plane_intent, plane_transcript)):
        run(IntentSpec(intent_path.read_text()), RunConfig(t_max=6), ScriptedBackend.from_file(transcript))
    distinct = {id(contract) for contract in projected}
    assert len(projected) > len(distinct)
    assert len(parsed) == len(distinct)


def test_each_file_value_is_analyzed_once(monkeypatch, gomoku_intent, gomoku_transcript, plane_intent, plane_transcript):
    extract = charter.workspace.extract_symbols
    for intent_path, transcript in ((gomoku_intent, gomoku_transcript), (plane_intent, plane_transcript)):
        analyzed = []

        def recording_extract(unit):
            analyzed.append((unit.path, unit.body))
            return extract(unit)

        monkeypatch.setattr(charter.workspace, "extract_symbols", recording_extract)
        run(IntentSpec(intent_path.read_text()), RunConfig(t_max=6), ScriptedBackend.from_file(transcript))
        assert len(analyzed) == len(set(analyzed)) == 3


def test_each_file_is_compared_with_its_entry_once(monkeypatch):
    # Layer 1 compares each worker's file; layer 2's repair check meets the
    # same committed units and unamended entries, and reads the kept result.
    compared = []
    compare = charter.auditor._compare

    def recording_compare(entry, unit):
        compared.append((entry.file_path, unit.body))
        return compare(entry, unit)

    monkeypatch.setattr(charter.auditor, "_compare", recording_compare)
    plan = synth.chain_plan(1, 20)
    result = run(IntentSpec(plan.intent), RunConfig(mode=RunMode.SEQUENTIAL), synth.SyntheticBackend(plan))
    assert all(task.status is TaskStatus.VERIFIED for task in result.tasks.values())
    assert sorted(compared) == sorted(plan.oracle.items())


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
    assert [m.name for m in kernel.classes["A"][1].methods] == ["f", "extra"]
    statuses = {path: e.status for path, e in kernel.entries.items()}
    assert statuses == {t: task.status for t, task in result.tasks.items()}
    assert set(statuses.values()) == {TaskStatus.DONE}
    assert result.workspace.get("b.py").body == b_body
    assert result.tasks["b.py"].feedback[0].startswith("document action rejected: CYCLE")
    layer = next(r for r in result.ledger.records if r["kind"] == "layer")
    assert [t for t in layer["transitions"] if t[1:] == ["DONE", "ERROR"]] == []
    # The dropped action is journaled as refused at its layer, before the
    # write-back that commits alone.
    [refused] = [j for j in result.ledger.journal if j.get("kind") == "rejected"]
    assert refused == rejection_record(cycle, "layer 1", refused["reason"])
    assert refused["reason"].startswith("CYCLE")
    assert result.ledger.journal[-1]["kind"] == "commit"


def test_a_module_added_in_a_layer_is_dispatched_in_the_next(gomoku_intent, gomoku_transcript):
    # game.py's layer-1 worker ADDs a util.py entry. The commit that adds it
    # creates its task, so util.py's worker runs in layer 2 beside the
    # critics, its critic in layer 3, and the run converges in 3 layers.
    util = make_entry("util.py", classes=(simple_class("Clock", [], [method("def tick() -> int")]),))
    add_util = ContractAction(ActionOp.ADD, SectionKey.API_SPECIFICATIONS, "\n".join(print_api_section([util])))
    records = [json.loads(line) for line in gomoku_transcript.read_text().splitlines()]
    game = next(r for r in records if r["role"] == "worker" and r["task"] == "game.py")
    game["response"] = format_response(replace(parse_response(game["response"]), actions=(add_util,)))
    util_body = "class Clock:\n    def tick(self) -> int:\n        \"\"\"documented\"\"\"\n        return 0\n"
    records += [_worker_record(2, "util.py", util_body), _critic_record(3, "util.py")]

    result = run(IntentSpec(gomoku_intent.read_text()), RunConfig(t_max=5), ScriptedBackend(records))

    assert result.converged and result.layers_used == 3
    layers = [r for r in result.ledger.records if r["kind"] == "layer"]
    assert {"task": "util.py", "role": "worker"} in layers[1]["dispatches"]
    assert {"kind": "TaskInjection", "path": "util.py"} in layers[0]["interventions"]
    assert result.workspace.get("util.py").body == util_body


def test_a_sliced_workers_update_keeps_the_entries_it_was_not_shown():
    # b.py depends on a.py; c.py is nobody's neighbour, and its worker gets no
    # answer, so the auditor leaves its entry alone. b.py's worker is shown
    # a.py and b.py and answers with both, its own entry edited.
    def entry(path, cls, doc="documented"):
        return make_entry(path, classes=(simple_class(cls, [("v", "int")], [method("def f() -> None", doc)]),))

    def body(cls):
        return f"class {cls}:\n    v: int = 0\n\n    def f(self) -> None:\n        pass\n"

    entries = [entry("a.py", "A"), entry("b.py", "B"), entry("c.py", "C")]
    own_and_dependency = "\n".join(print_api_section([entries[0], entry("b.py", "B", "edited")]))
    update = ContractAction(ActionOp.UPDATE, SectionKey.API_SPECIFICATIONS, own_and_dependency)
    b_response = AgentResponse(thinking="t", output="built", artifacts=(("b.py", body("B")),), actions=(update,))
    records = _synthesis_records(entries, deps=["b.py --> a.py"]) + [
        _worker_record(1, "a.py", body("A")),
        {"layer": 1, "role": "worker", "task": "b.py", "response": format_response(b_response)},
    ]
    prompts = {}

    class Capture(ScriptedBackend):
        def complete(self, request):
            prompts[request.task_id] = request.bundle.text
            return super().complete(request)

    result = run(IntentSpec("three modules"), RunConfig(t_max=1), Capture(records))
    assert "- File: a.py" in prompts["b.py"] and "- File: c.py" not in prompts["b.py"]
    kernel = project(result.contract)
    assert list(kernel.entries) == ["a.py", "b.py", "c.py"]
    assert kernel.classes["B"][1].methods[0].docstring == "edited"
    assert {path: e.status for path, e in kernel.entries.items()} == {
        "a.py": TaskStatus.DONE,
        "b.py": TaskStatus.DONE,
        "c.py": TaskStatus.TODO,
    }


def test_transport_failures_do_not_consume_attempts():
    records = _synthesis_records(_single_module_entries()) + [
        _worker_record(3, "mod.py", MOD_BODY),
        _critic_record(4, "mod.py"),
    ]

    class Flaky(ScriptedBackend):
        failures = 2

        def complete(self, request):
            if request.role == "worker" and self.failures:
                self.failures -= 1
                raise BackendError("retryable status 503")
            return super().complete(request)

    result = run(IntentSpec("one module"), RunConfig(t_max=8, attempt_cap=2), Flaky(records))
    assert result.converged
    assert result.layers_used == 4
    assert result.tasks["mod.py"].attempts == 1


def test_a_refused_request_costs_an_attempt():
    # The endpoint refuses every worker request outright: each refusal is an
    # attempt, so the cap parks the task instead of re-sending until t_max.
    sent = []

    class Refusing(ScriptedBackend):
        def complete(self, request):
            if request.role == "worker":
                sent.append(request.layer)
                raise RequestRejected("request failed with 400: prompt too large")
            return super().complete(request)

    records = _synthesis_records(_single_module_entries())
    result = run(IntentSpec("one module"), RunConfig(t_max=8, attempt_cap=3), Refusing(records))
    assert sent == [1, 2, 3]
    assert result.layers_used == 3
    assert result.tasks["mod.py"].attempts == 3


def test_a_contractless_workers_update_keeps_the_lines_it_was_never_shown():
    # Shown no document, the worker's UPDATE is an insertion: the three lines
    # of shared knowledge it never saw are kept.
    knowledge = ContractAction(ActionOp.UPDATE, SectionKey.GLOBAL_SHARED_KNOWLEDGE, "- one\n- two\n- three")
    update = ContractAction(ActionOp.UPDATE, SectionKey.GLOBAL_SHARED_KNOWLEDGE, "- learned")
    response = AgentResponse(thinking="t", output="built", artifacts=(("mod.py", MOD_BODY),), actions=(update,))
    records = _synthesis_records(_single_module_entries(), extra=(knowledge,)) + [
        {"layer": 1, "role": "worker", "task": "mod.py", "response": format_response(response)}
    ]
    result = run(IntentSpec("one module"), RunConfig(t_max=1, mode=RunMode.NO_CONTRACT), ScriptedBackend(records))
    assert result.contract.body(SectionKey.GLOBAL_SHARED_KNOWLEDGE) == ("- learned", "- one", "- two", "- three")


def test_each_document_action_is_reanchored_through_its_authors_prompt_view(monkeypatch):
    # Both workers answer with a document action, and a.py's extra method is
    # amended into the contract by the auditor's write-back, which the
    # auditor places itself, so it is not re-anchored through a view.
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
    a_action = ContractAction(ActionOp.ADD, SectionKey.GLOBAL_SHARED_KNOWLEDGE, "- A.extra returns 1")
    b_action = ContractAction(ActionOp.UPDATE, SectionKey.CONSTRAINTS, "- B.g returns nothing")
    records = _synthesis_records(entries, deps=["a.py --> b.py"]) + [
        {
            "layer": 1,
            "role": "worker",
            "task": path,
            "response": format_response(
                AgentResponse(thinking="t", output="built", artifacts=((path, body),), actions=(action,))
            ),
        }
        for path, body, action in (("a.py", a_body, a_action), ("b.py", b_body, b_action))
    ]
    # The reviewer answers too, so both synthesis stages place an action.
    records[1] = {**records[1], "response": format_response(AgentResponse("t", "o", actions=(b_action,)))}
    shown = {}
    stages = {"project_manager": "proposal", "discriminator": "rectification"}

    class Capture(ScriptedBackend):
        def complete(self, request):
            shown[request.task_id or stages[request.role]] = request.bundle.view
            return super().complete(request)

    calls = []
    reanchor = charter.patches.patches_for_action

    def recording(contract, action, author, view):
        calls.append((contract, author, view))
        return reanchor(contract, action, author, view)

    monkeypatch.setattr(charter.patches, "patches_for_action", recording)
    result = run(IntentSpec("two modules"), RunConfig(t_max=1), Capture(records))
    assert [m.name for m in project(result.contract).classes["A"][1].methods] == ["f", "extra"]
    assert sorted(author for _, author, _ in calls) == ["a.py", "b.py", "proposal", "proposal", "rectification"]
    for _, author, view in calls:
        assert view is shown[author]


class _Metered:
    """A backend that counts the requests in flight and the threads serving them."""

    def __init__(self, inner, hold: float = 0.0):
        self.inner = inner
        self.hold = hold
        self.in_flight = self.peak = 0
        self.threads: set[threading.Thread] = set()  # an ident is reused once its thread ends
        self._lock = threading.Lock()

    def complete(self, request):
        with self._lock:
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
            if request.layer:  # synthesis runs on the caller's thread
                self.threads.add(threading.current_thread())
        try:
            time.sleep(self.hold)
            return self.inner.complete(request)
        finally:
            with self._lock:
                self.in_flight -= 1


def _dispatch_threads() -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name.startswith("charter-dispatch")]


def test_a_layer_never_has_more_requests_in_flight_than_the_dispatch_bound(monkeypatch):
    monkeypatch.setattr(charter.scheduler, "MAX_DISPATCH_THREADS", 2)
    plan = synth.chain_plan(1, 5)
    backend = _Metered(synth.SyntheticBackend(plan), hold=0.02)
    result = run(IntentSpec(plan.intent), RunConfig(), backend)
    assert result.converged
    assert backend.peak == len(backend.threads) == 2
    layers = [r for r in result.ledger.records if r["kind"] == "layer"]
    assert [(r["dispatch_count"], r["execution_width"]) for r in layers] == [(5, 2), (5, 2)]


def test_one_pool_serves_every_layer_of_a_run_and_is_gone_after_it(monkeypatch):
    plan = synth.heal_plan(1, 16, 2, synth.Latency())
    backend = _Metered(synth.SyntheticBackend(plan), hold=0.01)  # a layer's dispatches overlap
    result = run(IntentSpec(plan.intent), RunConfig(), backend)
    widths = [r["dispatch_count"] for r in result.ledger.records if r["kind"] == "layer"]
    assert result.converged and len(widths) == 3
    assert 1 < len(backend.threads) <= max(widths) < sum(widths)
    assert _dispatch_threads() == []

    def failing_audit(*args):
        raise RuntimeError("audit failed")

    monkeypatch.setattr(charter.scheduler, "audit_layer", failing_audit)
    with pytest.raises(RuntimeError, match="audit failed"):
        run(IntentSpec(plan.intent), RunConfig(), synth.SyntheticBackend(plan))
    assert _dispatch_threads() == []


def test_a_workers_second_update_of_a_section_replaces_its_first():
    keep = ContractAction(ActionOp.UPDATE, SectionKey.CONSTRAINTS, "- a\n- keep")
    first = ContractAction(ActionOp.UPDATE, SectionKey.CONSTRAINTS, "- a\n- b\n- keep")
    second = ContractAction(ActionOp.UPDATE, SectionKey.CONSTRAINTS, "- c\n- keep")
    worker = AgentResponse(thinking="t", output="built", artifacts=(("mod.py", MOD_BODY),), actions=(first, second))
    records = _synthesis_records(_single_module_entries(), extra=(keep,)) + [
        {"layer": 1, "role": "worker", "task": "mod.py", "response": format_response(worker)}
    ]
    result = run(IntentSpec("one module"), RunConfig(t_max=1), ScriptedBackend(records))
    assert result.contract.body(SectionKey.CONSTRAINTS) == ("- c", "- keep")


@pytest.mark.parametrize("status", ["DONE", "VERIFIED"])
def test_every_task_starts_todo_whatever_status_the_planner_writes(status, gomoku_intent, gomoku_transcript):
    records = [json.loads(line) for line in gomoku_transcript.read_text().splitlines()]
    planner = next(r for r in records if r["role"] == "project_manager")
    assert "Status: TODO" in planner["response"]
    planner["response"] = planner["response"].replace("Status: TODO", f"Status: {status}")
    result = run(IntentSpec(gomoku_intent.read_text()), RunConfig(), ScriptedBackend(records))
    golden = json.loads((GOLDEN / "gomoku.json").read_text())
    assert {u.path: file_sha256(u.body) for u in result.workspace.units()} == golden["files"]
    assert result.converged and result.layers_used == golden["layers"]


def test_create_tasks_makes_one_todo_task_per_entry_in_path_order():
    cls = simple_class("M", [], [method("def f() -> None")])
    entries = [
        make_entry("b.py", owner="y", status=TaskStatus.DONE, classes=(replace(cls, name="B"),)),
        make_entry("a.py", owner="x", status=TaskStatus.TODO, classes=(replace(cls, name="A"),)),
        make_entry("c.py", owner="z", status=TaskStatus.VERIFIED, classes=(replace(cls, name="C"),)),
    ]
    kernel = project(contract_with(entries))
    tasks = {}
    assert create_tasks(kernel, tasks) == ["a.py", "b.py", "c.py"]
    assert [(t.id, t.owner, t.status) for t in tasks.values()] == [
        ("a.py", "x", TaskStatus.TODO),
        ("b.py", "y", TaskStatus.TODO),
        ("c.py", "z", TaskStatus.TODO),
    ]
    assert create_tasks(kernel, tasks) == []


def test_create_tasks_on_an_empty_kernel_makes_none():
    tasks = {}
    assert create_tasks(project(new_contract(DEFAULT_TEMPLATE)), tasks) == []
    assert tasks == {}


def test_a_backticked_artifact_path_reaches_its_task():
    entries = [replace(_single_module_entries()[0], file_path="a.py")]
    records = _synthesis_records(entries) + [_worker_record(1, "a.py", MOD_BODY, path="`a.py`")]
    assert "# FILE: `a.py`" in records[-1]["response"]
    result = run(IntentSpec("one module"), RunConfig(t_max=1), ScriptedBackend(records))
    assert result.tasks["a.py"].status is TaskStatus.DONE
    assert result.workspace.paths() == ["a.py"]
    assert result.workspace.get("a.py").body == MOD_BODY


def test_a_task_created_at_the_barrier_gets_its_entrys_incomplete_feedback(gomoku_intent, gomoku_transcript):
    # game.py's layer-1 worker ADDs a util.py entry whose method has no docstring.
    util = make_entry("util.py", classes=(simple_class("Clock", [], [method("def tick() -> int", doc="")]),))
    add_util = ContractAction(ActionOp.ADD, SectionKey.API_SPECIFICATIONS, "\n".join(print_api_section([util])))
    records = [json.loads(line) for line in gomoku_transcript.read_text().splitlines()]
    game = next(r for r in records if r["role"] == "worker" and r["task"] == "game.py")
    game["response"] = format_response(replace(parse_response(game["response"]), actions=(add_util,)))

    result = run(IntentSpec(gomoku_intent.read_text()), RunConfig(t_max=1), ScriptedBackend(records))
    [incomplete] = [
        v.message
        for v in project(result.contract).violations
        if v.kind is ViolationKind.INCOMPLETE and v.subject == "util.py"
    ]
    assert result.tasks["util.py"].feedback == [incomplete]


def test_an_empty_add_alone_in_a_layer_is_journaled():
    # The critic gives no verdict, so no status moves and the auditor writes
    # nothing back: the layer's one action changes no line.
    empty = ContractAction(ActionOp.ADD, SectionKey.CONSTRAINTS, "")
    silent = AgentResponse(thinking="t", output="review without a verdict line", actions=(empty,))
    records = _synthesis_records(_single_module_entries()) + [
        _worker_record(1, "mod.py", MOD_BODY),
        {"layer": 2, "role": "critic", "task": "mod.py", "response": format_response(silent)},
    ]
    result = run(IntentSpec("one module"), RunConfig(t_max=2), ScriptedBackend(records))
    assert result.ledger.journal[-1] == journal_record(empty, result.contract.revision)

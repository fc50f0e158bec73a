from __future__ import annotations

import json
from dataclasses import replace

import pytest

from charter.agents import (
    AgentResponse,
    ContextOverflow,
    IntentSpec,
    ParseError,
    RoleKind,
    SynthesisFailure,
    Verdict,
    build_prompt,
    estimate_tokens,
    format_response,
    parse_response,
    synthesize_contract,
)
from charter.backends import ScriptedBackend
from charter.contract import (
    ActionOp,
    ContractAction,
    SectionKey,
    body_from_text,
    rejection_record,
    render,
)
from charter.kernel import ViolationKind, print_api_section, project, validate
from charter.tasks import Task, TaskStatus

from conftest import contract_with, make_entry, method, simple_class

INTENT = IntentSpec("Build a small grid game.")


def _contract():
    entry = make_entry(
        "core/engine.py",
        classes=(simple_class("Engine", [("ticks", "int")], [method("def tick() -> None")]),),
    )
    return contract_with([entry])


def test_worker_bundle_contains_contract_and_no_file_bodies():
    contract = _contract()
    task = Task(id="core/engine.py", owner="dev")
    secret_body = "class Engine:\n    SECRET_CONSTANT = 42\n"
    bundle = build_prompt(RoleKind.WORKER, task, contract, INTENT)
    assert render(contract) in bundle.text
    assert "SECRET_CONSTANT" not in bundle.text
    assert secret_body not in bundle.text


def test_worker_bundle_includes_feedback():
    contract = _contract()
    task = Task(id="core/engine.py", owner="dev")
    task.feedback.append("Fix the schema definition; Engine requires ticks")
    bundle = build_prompt(RoleKind.WORKER, task, contract, INTENT)
    assert "Fix the schema definition; Engine requires ticks" in bundle.text


def test_critic_bundle_contains_implementation():
    contract = _contract()
    task = Task(id="core/engine.py", owner="dev", status=TaskStatus.DONE)
    body = "class Engine:\n    def tick(self) -> None:\n        pass\n"
    bundle = build_prompt(RoleKind.CRITIC, task, contract, INTENT, implementation=body)
    assert body in bundle.text


def test_contractless_bundle_replaces_document_with_paths():
    contract = _contract()
    task = Task(id="core/engine.py", owner="dev")
    bundle = build_prompt(
        RoleKind.WORKER,
        task,
        contract,
        INTENT,
        task_paths=("core/engine.py", "main.py"),
    )
    assert "Shared document:" not in bundle.text
    assert "- core/engine.py" in bundle.text and "- main.py" in bundle.text


def test_context_overflow():
    contract = _contract()
    task = Task(id="core/engine.py", owner="dev")
    with pytest.raises(ContextOverflow):
        build_prompt(RoleKind.WORKER, task, contract, INTENT, context_limit=50)


def test_token_estimator_rounds_up():
    assert estimate_tokens("") == 0
    assert estimate_tokens("abcd") == 1
    assert estimate_tokens("abcde") == 2


def test_parse_response_update_add_action():
    raw = (
        "<thinking>\nplan\n</thinking>\n\n<output>\ndone\n</output>\n\n"
        '<document_action>\n[{"type": "update|add", "section": "Constraints", "content": "- fast"}]\n'
        "</document_action>"
    )
    response = parse_response(raw)
    assert len(response.actions) == 1
    action = response.actions[0]
    assert action.op is ActionOp.UPDATE
    assert action.section is SectionKey.CONSTRAINTS
    assert action.content == "- fast"


def test_parse_response_content_object_fans_out():
    payload = json.dumps([
        {"type": "update", "content": {"Constraints": "- a", "Project Overview": "overview"}}
    ])
    raw = f"<thinking>\nt\n</thinking>\n<output>\no\n</output>\n<document_action>\n{payload}\n</document_action>"
    response = parse_response(raw)
    sections = {a.section for a in response.actions}
    assert sections == {SectionKey.CONSTRAINTS, SectionKey.PROJECT_OVERVIEW}


def test_parse_response_missing_output_block():
    with pytest.raises(ParseError, match="output"):
        parse_response("<thinking>\nonly thinking\n</thinking>")


def test_parse_response_clobber_guard():
    payload = json.dumps(
        [{"type": "update", "section": "Symbolic API Specifications", "content": "* **Status:** DONE"}]
    )
    raw = f"<thinking>\nt\n</thinking>\n<output>\no\n</output>\n<document_action>\n{payload}\n</document_action>"
    with pytest.raises(ParseError, match="clobber"):
        parse_response(raw)


@pytest.mark.parametrize("status", ["- Status: done", '- Status: "DONE"'])
def test_the_clobber_guard_reads_a_status_as_the_kernel_does(status):
    payload = json.dumps([{"type": "update", "section": "Symbolic API Specifications", "content": status}])
    raw = f"<thinking>\nt\n</thinking>\n<output>\no\n</output>\n<document_action>\n{payload}\n</document_action>"
    with pytest.raises(ParseError, match="clobber"):
        parse_response(raw)


def test_parse_response_artifacts_and_verdict():
    raw = (
        "<thinking>\nt\n</thinking>\n"
        "<output>\nlooks right\nVERDICT: FAIL collision uses undeclared width\n</output>\n"
        "```python\n# FILE: core/engine.py\nclass Engine:\n    pass\n```"
    )
    response = parse_response(raw)
    assert response.artifacts == (("core/engine.py", "class Engine:\n    pass\n"),)
    assert response.verdict == Verdict(passed=False, reason="collision uses undeclared width")



# How a live model may spell the verdict and the file marker: label ->
# (output line, marker line, the verdict read, the artifacts read). A marker
# that is not read loses the artifact and spends the worker's attempt.
A_PY = (("a.py", "x = 1\n"),)
CASE_DEVIATIONS = {
    "canonical": ("VERDICT: FAIL collision", "# FILE: a.py", Verdict(False, "collision"), A_PY),
    "verdict word in title case": ("Verdict: pass", "# File: a.py", Verdict(True), A_PY),
    "bold verdict": ("**VERDICT: PASS**", "#FILE: a.py", Verdict(True), A_PY),
    "bold label before a reason": ("**VERDICT:** FAIL missing x", "# file: a.py", Verdict(False, "missing x"), A_PY),
    "bold verdict with its reason": ("**VERDICT: FAIL missing x**", "# FILE: a.py", Verdict(False, "missing x"), A_PY),
    "a verdict in prose is none": ("my verdict: the code passes", "# FILE: a.py", None, A_PY),
    "a marker that is no comment is none": ("VERDICT: PASS", "FILE: a.py", Verdict(True), ()),
}


@pytest.mark.parametrize("case", sorted(CASE_DEVIATIONS))
def test_the_verdict_and_the_file_marker_are_read_in_any_case(case):
    line, marker, verdict, artifacts = CASE_DEVIATIONS[case]
    response = parse_response(f"<output>\nreviewed\n{line}\n</output>\n```python\n{marker}\nx = 1\n```")
    assert (response.verdict, response.artifacts) == (verdict, artifacts)

@pytest.mark.parametrize(
    "response",
    [
        AgentResponse(thinking="t", output="o"),
        AgentResponse(
            thinking="multi\nline",
            output="summary\nVERDICT: PASS",
            verdict=Verdict(passed=True),
        ),
        AgentResponse(
            thinking="t",
            output="o",
            actions=(
                # round-trip uses the display title in the wire format
                __import__("charter").contract.ContractAction(
                    ActionOp.ADD, SectionKey.USER_STORIES, "- story"
                ),
            ),
            artifacts=(("a/b.py", "print(1)\n"),),
        ),
    ],
)
def test_format_parse_round_trip(response):
    assert parse_response(format_response(response)) == response


def _synthesis_backend(records):
    return ScriptedBackend(records)


def _pm_record(actions, task=""):
    response = AgentResponse(thinking="plan", output="planned", actions=tuple(actions))
    return {"layer": 0, "role": "project_manager", "task": task, "response": format_response(response)}


def _disc_record(actions=()):
    response = AgentResponse(thinking="check", output="checked", actions=tuple(actions))
    return {"layer": 0, "role": "discriminator", "task": "", "response": format_response(response)}


def test_synthesize_contract_from_fixture(gomoku_transcript):
    backend = ScriptedBackend.from_file(gomoku_transcript)
    contract = synthesize_contract(IntentSpec("Write a Gomoku program with AI."), backend)
    kernel = project(contract)
    assert len(kernel.entries) >= 3
    assert not any(v.kind is ViolationKind.CYCLE for v in validate(kernel))


def test_a_cyclic_proposal_is_refused_whole_and_fails_the_synthesis():
    # The stage commits as one merge, so the guard refuses all of it; the
    # reviewer could not repair the diagram anyway, as its view shows only
    # the flagged modules' lines.
    mk = lambda p, c: make_entry(p, classes=(simple_class(c, [], [method("def f() -> None")]),))
    api = ContractAction(
        ActionOp.UPDATE,
        SectionKey.API_SPECIFICATIONS,
        "\n".join(print_api_section([mk("a.py", "A"), mk("b.py", "B")])),
    )
    cyclic = ContractAction(
        ActionOp.UPDATE, SectionKey.DEPENDENCY_RELATIONSHIPS, "a.py --> b.py\nb.py --> a.py"
    )
    fixed = ContractAction(ActionOp.UPDATE, SectionKey.DEPENDENCY_RELATIONSHIPS, "a.py --> b.py")
    backend = _synthesis_backend([_pm_record([api, cyclic]), _disc_record([fixed])])
    journal = []
    with pytest.raises(SynthesisFailure, match=r"proposal refused by the kernel guard: CYCLE\(b\.py -> a\.py\)"):
        synthesize_contract(IntentSpec("two modules"), backend, journal=journal.append)
    reason = journal[0]["reason"]
    assert journal == [rejection_record(api, "proposal", reason), rejection_record(cyclic, "proposal", reason)]


def test_a_planner_sending_the_diagram_before_the_api_entries_keeps_it(gomoku_transcript):
    records = [json.loads(line) for line in gomoku_transcript.read_text().splitlines()]
    intent = IntentSpec("Write a Gomoku program with AI.")
    as_recorded = synthesize_contract(intent, ScriptedBackend(records))
    planner = next(r for r in records if r["role"] == "project_manager")
    response = parse_response(planner["response"])
    *head, api, diagram = response.actions
    assert (api.section, diagram.section) == (SectionKey.API_SPECIFICATIONS, SectionKey.DEPENDENCY_RELATIONSHIPS)
    planner["response"] = format_response(replace(response, actions=(*head, diagram, api)))
    journal = []

    contract = synthesize_contract(intent, ScriptedBackend(records), journal=journal.append)
    assert contract.body(SectionKey.DEPENDENCY_RELATIONSHIPS) == body_from_text(diagram.content) != ()
    assert contract.sections == as_recorded.sections
    assert not any(record.get("kind") == "rejected" for record in journal)


def test_synthesize_fails_without_actions():
    backend = _synthesis_backend([_pm_record([]), _disc_record()])
    with pytest.raises(SynthesisFailure, match="no document actions"):
        synthesize_contract(IntentSpec("anything"), backend)


def test_synthesize_fails_without_api_content():
    overview = ContractAction(ActionOp.UPDATE, SectionKey.PROJECT_OVERVIEW, "words")
    backend = _synthesis_backend([_pm_record([overview]), _disc_record()])
    with pytest.raises(SynthesisFailure, match="Symbolic API Specifications"):
        synthesize_contract(IntentSpec("anything"), backend)


def test_synthesize_fails_on_unknown_section_name():
    raw = (
        "<thinking>plan</thinking>\n<output>planned</output>\n"
        '<document_action>[{"type": "update", "section": "Architecture", "content": "x"}]</document_action>'
    )
    backend = _synthesis_backend(
        [{"layer": 0, "role": "project_manager", "task": "", "response": raw}, _disc_record()]
    )
    with pytest.raises(SynthesisFailure, match="proposal response unparseable: unknown section key: 'Architecture'"):
        synthesize_contract(IntentSpec("anything"), backend)


def test_synthesize_fails_on_a_prompt_over_the_context_limit(gomoku_transcript):
    backend = ScriptedBackend.from_file(gomoku_transcript)
    with pytest.raises(SynthesisFailure, match="proposal prompt does not fit: prompt needs"):
        synthesize_contract(IntentSpec("Write a Gomoku program with AI."), backend, context_limit=50)


def test_synthesis_is_exactly_two_role_phases(gomoku_transcript):
    calls = []

    class Spy:
        def __init__(self, inner):
            self.inner = inner

        def complete(self, request):
            calls.append((request.layer, request.role))
            return self.inner.complete(request)

    backend = Spy(ScriptedBackend.from_file(gomoku_transcript))
    synthesize_contract(IntentSpec("Write a Gomoku program with AI."), backend)
    assert calls == [(0, "project_manager"), (0, "discriminator")]


def test_synthesized_gomoku_contract_populates_all_sections(gomoku_transcript):
    from charter.contract import SectionKey

    backend = ScriptedBackend.from_file(gomoku_transcript)
    contract = synthesize_contract(IntentSpec("Write a Gomoku program with AI."), backend)
    for key in SectionKey:
        assert contract.body(key), f"{key.value} left empty"

"""Contract views: the indexed task view against a scan of every line, and the
plan reviewer's view with the re-anchoring of its edits at synthesis."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import charter.agents
from charter import scheduler
from charter.agents import AgentResponse, IntentSpec, RoleKind, build_prompt, format_response, synthesize_contract
from charter.backends import ScriptedBackend
from charter.contract import (
    ActionOp,
    ContractAction,
    LanguageContract,
    SectionKey,
    apply_action,
    journal_record,
    rejection_record,
    render,
)
from charter.kernel import NO_LINES, ViolationKind, project, review_view, task_view, validate
from charter.patches import commit_actions, patches_for_action
from charter.scheduler import RunConfig
from charter.tasks import Task, TaskStatus

from conftest import contract_with, make_entry, method, simple_class

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import synth  # noqa: E402
import workloads  # noqa: E402

API = SectionKey.API_SPECIFICATIONS
DIRECTORY = SectionKey.DIRECTORY_STRUCTURE
DIAGRAM = SectionKey.DEPENDENCY_RELATIONSHIPS


# --- the indexed task view equals a scan of every line ------------------------------


def scanned_task_view(contract: LanguageContract, *task_ids: str) -> dict:
    """Reference: the task view read by scanning every Directory Structure and
    diagram line, as it was before views were indexed; it names the three
    sections it cuts."""
    kernel = project(contract)
    shown = {path for task_id in task_ids for path in (task_id, *kernel.dependencies.get(task_id, ()))}
    shown.update(dst for src, dst in kernel.derived_edges if src in task_ids)
    view = {}

    api = contract.body(API)
    first = next((entry.span[0] for entry in kernel.entries.values()), len(api))
    lines = list(range(first))
    for path, entry in kernel.entries.items():
        if path in shown:
            lines.extend(range(*entry.span))
    view[API] = _scan_trimmed(api, lines)

    directory = contract.body(DIRECTORY)
    named = kernel.section_lines[DIRECTORY].named
    lines = [i for i in range(len(directory)) if named.get(i, frozenset()) <= shown]
    view[DIRECTORY] = _scan_trimmed(directory, lines)

    diagram = contract.body(DIAGRAM)
    named = kernel.section_lines[DIAGRAM].named
    lines = [i for i in range(len(diagram)) if shown.issuperset(named.get(i, ()))]
    view[DIAGRAM] = _scan_trimmed(diagram, lines)
    return view


def _scan_trimmed(body, lines):
    while lines and not body[lines[0]].strip():
        lines = lines[1:]
    while lines and not body[lines[-1]].strip():
        lines = lines[:-1]
    return tuple(lines)


def _workload_cases(name):
    if name == "heal-wide":
        return workloads.heal_wide(1, latency=synth.Latency())
    return workloads.WORKLOADS[name](1)


@pytest.mark.parametrize("name", ["fixtures-replay", "chain-large", "heal-wide"])
def test_indexed_task_view_equals_the_scan_on_every_layer_snapshot(name, monkeypatch):
    mismatches, snapshots, calls = [], set(), []
    case_no = 0

    def compared(contract, task_id):
        view = task_view(contract, task_id)
        if view != scanned_task_view(contract, task_id):
            mismatches.append((case_no, contract.revision, task_id))
        snapshots.add((case_no, contract.revision))
        calls.append(task_id)
        return view

    monkeypatch.setattr(charter.agents, "task_view", compared)
    layers = 0
    for case_no, case in enumerate(_workload_cases(name)):
        result = scheduler.run(case.intent, case.config, case.make_backend())
        assert case.check(result) == []
        layers += result.layers_used
    assert mismatches == []
    assert len(snapshots) == layers > 0  # every layer's snapshot served views
    assert len(calls) > layers


PATHS = ("app/a.py", "app/b.py", "lib/c.py", "lib/d.py")
OUTSIDE = "other/x.py"


def _layout_contract(n, refs, diagram, directory):
    """``n`` entries, entry ``i`` holding an attribute typed with the class of
    entry ``j`` for each ``(i, j)`` in ``refs``, and the two listings as given."""
    entries = []
    for i in range(n):
        refs_of_i = [(f"r{j}", f"C{j}") for k, j in sorted(refs) if k == i]
        entries.append(make_entry(PATHS[i], classes=(simple_class(f"C{i}", refs_of_i, [method("def f() -> None")]),)))
    contract = contract_with(entries, dependency_lines=diagram)
    return contract.with_section(DIRECTORY, directory)


@st.composite
def layouts(draw):
    n = draw(st.integers(1, len(PATHS)))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    refs = draw(st.sets(pair, max_size=4))
    edge = pair.map(lambda e: f"{PATHS[e[0]]} --> {PATHS[e[1]]}")
    diagram = draw(st.lists(st.one_of(edge, st.sampled_from(["", "```", "graph TD"])), max_size=8))
    token = st.sampled_from([*PATHS[:n], f"./{PATHS[0]}", OUTSIDE, "app/", "node", "├──", "`lib/`"])
    listing = st.one_of(st.just(""), st.lists(token, min_size=1, max_size=3).map(" ".join))
    directory = draw(st.lists(listing, max_size=8))
    return n, refs, diagram, directory


@settings(max_examples=150, deadline=None)
@given(layout=layouts())
@example(
    layout=(
        3,
        {(0, 2)},  # a derived edge app/a.py -> lib/c.py
        ["", "```", "app/a.py --> app/a.py", "app/b.py --> app/a.py", "lib/c.py --> app/b.py", "```", ""],
        [
            "lib/c.py",
            "",
            "app/a.py app/b.py",  # two paths on one line
            "# the tree",  # no path
            f"{OUTSIDE}    not contracted",
            "",
            "app/b.py",
            "",
        ],
    )
)
def test_indexed_task_view_equals_the_scan_on_any_layout(layout):
    contract = _layout_contract(*layout)
    paths = (*project(contract).entries, OUTSIDE)
    for task_ids in ((), *((path,) for path in paths), paths[::2], paths):
        assert task_view(contract, *task_ids) == scanned_task_view(contract, *task_ids), task_ids


def _counting_index_builds(monkeypatch) -> list:
    """One entry per line map built for views: a kernel builds two, the
    Directory Structure's and the diagram's (``_section_lines``)."""
    built = []
    section_lines = charter.kernel._section_lines
    monkeypatch.setattr(charter.kernel, "_section_lines", lambda *args: built.append(1) or section_lines(*args))
    return built


def test_the_view_index_is_built_once_per_kernel(monkeypatch):
    contract = _layout_contract(3, {(0, 1)}, ["app/a.py --> lib/c.py"], ["app/a.py", "lib/c.py"])
    built = _counting_index_builds(monkeypatch)
    parent = project(contract)
    assert built == [1, 1]  # projection builds the maps
    for task_id in PATHS[:3]:
        task_view(contract, task_id)
    review_view(contract)
    assert built == [1, 1]  # a view builds none

    api = list(contract.body(API))
    status = next(i for i, line in enumerate(api) if line.strip() == "Status: TODO")
    api[status] = api[status].replace("TODO", "DONE")
    child = contract.with_section(API, api)
    assert project(child, contract).entries[PATHS[0]].status is TaskStatus.DONE
    kernel = project(child)
    assert kernel.neighbourhood is parent.neighbourhood and kernel.section_lines is parent.section_lines
    task_view(child, PATHS[0])
    assert built == [1, 1]


@pytest.mark.parametrize("key", [SectionKey.CONSTRAINTS, SectionKey.GLOBAL_SHARED_KNOWLEDGE])
def test_a_revision_of_a_section_no_view_cuts_shares_the_index_and_shows_the_section_whole(key, monkeypatch):
    contract = _layout_contract(3, {(0, 1)}, ["app/a.py --> lib/c.py"], ["app/a.py", "lib/c.py"])
    parent = project(contract)
    built = _counting_index_builds(monkeypatch)
    edited = [*contract.body(key), "- first added line", "", "- second added line"]
    child = contract.with_section(key, edited)
    kernel = project(child, contract)
    assert kernel.neighbourhood is parent.neighbourhood and kernel.section_lines is parent.section_lines
    assert built == []
    for task_ids in ((), (PATHS[0],), PATHS[:3]):
        view = task_view(child, *task_ids)
        assert key not in view  # shown whole
        assert render(child, view) == render(child, {**view, key: tuple(range(len(edited)))})
        assert view == scanned_task_view(child, *task_ids)
    assert built == []


# --- a view names only the sections it cuts ---------------------------------------------

CUT = {API, DIRECTORY, DIAGRAM}
_PROSE = (SectionKey.PROJECT_OVERVIEW, SectionKey.USER_STORIES, SectionKey.CONSTRAINTS, SectionKey.GLOBAL_SHARED_KNOWLEDGE)
_LINES = ("- a", "- b", "", "- File: app/a.py", "app/a.py --> app/b.py", "  Status: DONE")


def _whole(contract, view):
    """``view`` as every section used to be spelled: a section it does not
    name, shown whole, as the range of all its lines."""
    return {key: view.get(key, tuple(range(len(body)))) for key, body in contract.sections.items()}


@st.composite
def _views_and_actions(draw):
    """A contract of any layout and prose, a view of it (a task view, the
    planner's, or any sections cut to any lines) and actions on any section."""
    contract = _layout_contract(*draw(layouts()))
    for key in _PROSE:
        contract = contract.with_section(key, draw(st.lists(st.sampled_from(_LINES), max_size=6)))
    kind = draw(st.sampled_from(("task", "planner", "any")))
    if kind == "task":
        view = task_view(contract, *draw(st.lists(st.sampled_from((*PATHS, OUTSIDE)), max_size=3)))
    elif kind == "planner":
        view = {}
    else:
        keys = draw(st.sets(st.sampled_from(list(SectionKey))))
        view = {}
        for key in sorted(keys, key=lambda k: k.value):
            size = len(contract.body(key))
            view[key] = tuple(sorted(draw(st.sets(st.integers(0, size - 1))))) if size else ()
    content = st.lists(st.sampled_from(_LINES), max_size=4).map("\n".join)
    action = st.builds(ContractAction, st.sampled_from(ActionOp), st.sampled_from(list(SectionKey)), content)
    return contract, view, draw(st.lists(action, min_size=1, max_size=3))


@settings(max_examples=150, deadline=None)
@given(_views_and_actions())
def test_a_view_that_names_only_its_cuts_acts_as_the_view_that_spells_every_section(case):
    contract, view, actions = case
    whole = _whole(contract, view)
    assert render(contract, view) == render(contract, whole)
    for action in actions:
        assert patches_for_action(contract, action, "w", view) == patches_for_action(contract, action, "w", whole)
    commits = []
    for shown in (view, whole):
        journal = []
        committed, conflicts, refusal = commit_actions(
            contract, [("w", action, shown) for action in actions], journal.append, (), "layer 1"
        )
        commits.append((committed.sections, committed.revision, conflicts, str(refusal), journal))
    assert commits[0] == commits[1]


def test_each_bundle_view_names_only_the_sections_it_cuts():
    contract = contract_with(*_flagged_plan())
    intent = IntentSpec("six modules")
    planner = build_prompt(RoleKind.PROJECT_MANAGER, None, contract, intent)
    reviewer = build_prompt(RoleKind.DISCRIMINATOR, None, contract, intent)
    worker = build_prompt(RoleKind.WORKER, Task(id="m2.py", owner="d"), contract, intent)
    ablation = build_prompt(RoleKind.WORKER, Task(id="m2.py", owner="d"), contract, intent, task_paths=("m2.py",))
    assert planner.view == {}
    assert reviewer.view.keys() == worker.view.keys() == CUT
    assert ablation.view is NO_LINES and all(lines == () for lines in NO_LINES.values())
    assert render(contract, planner.view) == render(contract) in planner.text
    for bundle in (reviewer, worker):
        assert render(contract, bundle.view) == render(contract, _whole(contract, bundle.view)) in bundle.text


# --- the reviewer's view ---------------------------------------------------------------


def _entry(i, *, documented=True, attrs=()):
    doc = "documented" if documented else ""
    return make_entry(f"m{i}.py", classes=(simple_class(f"M{i}", list(attrs), [method("def f() -> None", doc)]),))


def _flagged_plan():
    """Six modules; m2 is INCOMPLETE, declares m1 and derives m3 (an attribute
    typed M3). m0, m4 and m5 are outside m2's neighbourhood, and m4 is
    outside every edge."""
    entries = [_entry(0), _entry(1), _entry(2, documented=False, attrs=[("next", "M3")]), *map(_entry, (3, 4, 5))]
    return entries, ["m2.py --> m1.py", "m1.py --> m0.py", "m5.py --> m3.py"]


UNSEEN = ("m0.py", "m4.py", "m5.py")


def _span_lines(contract, path):
    entry = project(contract).entries[path]
    return contract.body(API)[slice(*entry.span)]


def test_the_review_view_is_the_task_view_of_the_flagged_modules():
    contract = contract_with(*_flagged_plan())
    assert [v.subject for v in validate(project(contract)) if v.kind is ViolationKind.INCOMPLETE] == ["m2.py"]
    view = review_view(contract)
    assert view == task_view(contract, "m2.py")
    api, diagram = contract.body(API), contract.body(DIAGRAM)
    shown_files = [api[i] for i in view[API] if api[i].startswith("- File:")]
    assert shown_files == ["- File: m1.py", "- File: m2.py", "- File: m3.py"]
    assert [diagram[i] for i in view[DIAGRAM]] == ["m2.py --> m1.py"]


def test_the_review_view_of_a_complete_plan_shows_no_api_entry():
    contract = contract_with([_entry(i) for i in range(3)], dependency_lines=["m1.py --> m0.py"])
    assert project(contract).violations == ()
    view = review_view(contract)
    assert view[API] == () and view[DIAGRAM] == ()


def _synthesizes_a_chain_under_the_default_limit(n):
    plan = synth.chain_plan(1, n)
    contract = synthesize_contract(
        IntentSpec(plan.intent), synth.SyntheticBackend(plan), context_limit=RunConfig().context_limit
    )
    assert len(project(contract).entries) == n


def test_a_default_config_synthesizes_a_100_file_chain():
    _synthesizes_a_chain_under_the_default_limit(100)


def test_a_default_config_synthesizes_a_1000_file_chain():
    # Holds only while no synthesis prompt grows with the number of modules.
    _synthesizes_a_chain_under_the_default_limit(1000)


def _synthesis(proposal, review):
    def record(role, actions):
        response = format_response(AgentResponse(thinking="t", output="o", actions=tuple(actions)))
        return {"layer": 0, "role": role, "task": "", "response": response}

    journal = []
    contract = synthesize_contract(
        IntentSpec("five modules"),
        ScriptedBackend([record("project_manager", proposal), record("discriminator", review)]),
        journal=journal.append,
    )
    return contract, journal


def _commit(contract):
    """The journal record of the commit that made ``contract``."""
    return {"kind": "commit", "revision": contract.revision, "base_sha256": contract.fingerprint()}


def _proposal(entries, edges):
    drafted = contract_with(entries, dependency_lines=edges)
    actions = [ContractAction(ActionOp.UPDATE, key, "\n".join(drafted.body(key))) for key in (API, DIAGRAM)]
    return drafted, actions


def _rewritten(drafted, old, new):
    """The API lines the reviewer was shown, with ``old`` replaced by ``new``."""
    api = drafted.body(API)
    return "\n".join(new if api[i] == old else api[i] for i in review_view(drafted)[API])


def test_a_reviewer_update_rewrites_only_the_entries_it_was_shown():
    drafted, proposal = _proposal(*_flagged_plan())
    bare = "        - def f() -> None"
    fix = ContractAction(ActionOp.UPDATE, API, _rewritten(drafted, bare, bare + " | Step the module."))
    assert fix.content.count("- def f()") == 3  # m1, m2 and m3; the others are not shown
    contract, journal = _synthesis(proposal, [fix])

    for path in UNSEEN:
        assert _span_lines(contract, path) == _span_lines(drafted, path)
    assert not any(v.kind is ViolationKind.INCOMPLETE for v in validate(project(contract)))
    assert journal[-2:] == [journal_record(fix, contract.revision), _commit(contract)]


def test_a_second_reviewer_update_is_placed_through_the_moved_view():
    drafted, proposal = _proposal(*_flagged_plan())
    bare = "        - def f() -> None"
    first = _rewritten(drafted, bare, bare + " | Step the module.")
    second = first.replace("Step the module.", "Advance the module by one step.")
    actions = [ContractAction(ActionOp.UPDATE, API, first), ContractAction(ActionOp.UPDATE, API, second)]
    contract, journal = _synthesis(proposal, actions)

    assert len(journal) == len(proposal) + 1 + len(actions) + 1  # each stage's actions, then its commit
    assert journal[-3:] == [*(journal_record(action, contract.revision) for action in actions), _commit(contract)]
    for path in UNSEEN:
        assert _span_lines(contract, path) == _span_lines(drafted, path)
    docs = {sig.docstring for entry in project(contract).entries.values() for c in entry.classes for sig in c.methods}
    assert docs == {"documented", "Advance the module by one step."}


def test_a_reviewer_add_appends_as_a_replace_free_apply_does():
    drafted, proposal = _proposal(*_flagged_plan())
    added = ContractAction(ActionOp.ADD, API, "\n".join(["", "- File: m6.py", "  Owner: dev", "  Version: 1"]))
    pinned = ContractAction(ActionOp.ADD, SectionKey.CONSTRAINTS, "- Modules never import downstream.")
    contract, journal = _synthesis(proposal, [added, pinned])

    expected = apply_action(apply_action(drafted, added), pinned)
    assert isinstance(expected, LanguageContract)
    assert contract.sections == expected.sections
    assert journal[-3:] == [*(journal_record(action, contract.revision) for action in (added, pinned)), _commit(contract)]


NEW_ENTRY = ("- File: m6.py", "  Owner: dev", "  Version: 1")


def _reviewed(drafted, section, edit):
    """The lines of ``section`` the reviewer was shown, edited by ``edit`` (a list -> None)."""
    body = drafted.body(section)
    lines = [body[i] for i in review_view(drafted)[section]]
    edit(lines)
    return ContractAction(ActionOp.UPDATE, section, "\n".join(lines))


def _assert_unseen_kept(contract, drafted, order):
    assert list(project(contract).entries) == [f"{name}.py" for name in order]
    for path in UNSEEN:
        assert _span_lines(contract, path) == _span_lines(drafted, path)


def test_a_reviewer_update_appending_a_module_after_the_last_shown_entry_keeps_the_unseen_ones():
    drafted, proposal = _proposal(*_flagged_plan())
    update = _reviewed(drafted, API, lambda lines: lines.extend(["", *NEW_ENTRY]))
    contract, journal = _synthesis(proposal, [update])

    assert journal[-2:] == [journal_record(update, contract.revision), _commit(contract)]  # accepted
    _assert_unseen_kept(contract, drafted, ["m0", "m1", "m2", "m3", "m6", "m4", "m5"])
    assert [line for line in _span_lines(contract, "m6.py") if line.strip()] == list(NEW_ENTRY)


def _without(lines, file_line):
    """Delete the lines from ``file_line`` up to the next entry's File line."""
    at = lines.index(file_line)
    end = next((i for i in range(at + 1, len(lines)) if lines[i].startswith("- File:")), len(lines))
    del lines[at:end]


def test_a_reviewer_update_deleting_a_shown_neighbour_keeps_the_unseen_entries():
    entries, edges = _flagged_plan()
    edges = [edge for edge in edges if edge != "m1.py --> m0.py"]  # m1's only edge is shown
    drafted, proposal = _proposal(entries, edges)
    unlinked = _reviewed(drafted, DIAGRAM, lambda lines: lines.remove("m2.py --> m1.py"))
    deleted = _reviewed(drafted, API, lambda lines: _without(lines, "- File: m1.py"))
    contract, journal = _synthesis(proposal, [unlinked, deleted])

    assert journal[-3:] == [*(journal_record(action, contract.revision) for action in (unlinked, deleted)), _commit(contract)]
    _assert_unseen_kept(contract, drafted, ["m0", "m2", "m3", "m4", "m5"])
    assert contract.body(DIAGRAM) == ("m5.py --> m3.py",)


def test_a_shown_neighbour_with_an_unseen_edge_cannot_be_deleted():
    """The reviewer is not shown the edge ``m1.py --> m0.py`` and cannot remove
    it, so deleting m1 would leave the diagram naming an unknown module: the
    guard refuses the stage whole, both of the reviewer's actions."""
    drafted, proposal = _proposal(*_flagged_plan())
    unlinked = _reviewed(drafted, DIAGRAM, lambda lines: lines.remove("m2.py --> m1.py"))
    deleted = _reviewed(drafted, API, lambda lines: _without(lines, "- File: m1.py"))
    contract, journal = _synthesis(proposal, [unlinked, deleted])

    reason = journal[-1]["reason"]  # the stage was refused, and the journal says so
    assert journal[-2:] == [rejection_record(action, "rectification", reason) for action in (unlinked, deleted)]
    assert "m1.py" in reason
    assert (contract.body(API), contract.body(DIAGRAM)) == (drafted.body(API), drafted.body(DIAGRAM))

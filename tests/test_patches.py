from __future__ import annotations

import difflib
import itertools
import random
from dataclasses import replace

import pytest
from hypothesis import example, given, strategies as st

from charter.contract import (
    ActionOp,
    ContractAction,
    LanguageContract,
    SectionKey,
    apply_action,
    journal_record,
    new_contract,
    render,
    DEFAULT_TEMPLATE,
)
from charter.patches import (
    AtomicPatch,
    KernelViolation,
    StalePatch,
    apply_patches,
    commit_actions,
    commit_merge,
    diff_against_base,
    merge_layer,
    patches_for_action,
    _replaced_line,
)
from charter.kernel import full_view, print_api_section
from charter.tasks import TaskStatus

from conftest import contract_with, make_entry, method, simple_class


def _patch(section, start, end, lines, author):
    return AtomicPatch(section=section, start=start, end=end, replacement=tuple(lines), author=author)


def test_diff_identity_is_empty():
    assert diff_against_base(["a", "b"], ["a", "b"]) == []


def test_diff_single_replacement():
    patches = diff_against_base(["a", "b", "c"], ["a", "x", "c"])
    assert patches == [(1, 2, ("x",))]


def test_diff_apply_round_trip_randomized():
    rng = random.Random(7)
    for vocabulary in (12, 60):  # few lines unique on both sides; many, so anchored
        alphabet = [f"line{i}" for i in range(vocabulary)]
        for _ in range(500):
            base = [rng.choice(alphabet) for _ in range(rng.randrange(0, 14))]
            proposed = [rng.choice(alphabet) for _ in range(rng.randrange(0, 14))]
            patches = diff_against_base(base, proposed)
            assert apply_patches(base, patches) == proposed


def test_status_write_back_diffs_to_one_line_per_flip():
    for count, every in ((100, 7), (300, 1)):  # every seventh Status flipped; every one
        entries = [
            make_entry(f"mod{i}.py", classes=(simple_class(f"C{i}", [("n", "int")], [method("def run() -> None")]),))
            for i in range(count)
        ]
        base = print_api_section(entries)
        assert len(base) >= 2 * count
        flipped = {i: random.Random(i).choice([TaskStatus.DONE, TaskStatus.ERROR]) for i in range(0, count, every)}
        proposed = print_api_section(
            [replace(e, status=flipped[i]) if i in flipped else e for i, e in enumerate(entries)]
        )
        changed = [i for i, (old, new) in enumerate(zip(base, proposed)) if old != new]
        assert len(changed) == len(flipped)
        assert diff_against_base(base, proposed) == [(i, i + 1, (proposed[i],)) for i in changed]


def test_a_status_write_back_builds_no_sequence_matcher(monkeypatch):
    entries = [
        make_entry(f"mod{i}.py", classes=(simple_class(f"C{i}", [("n", "int")], [method("def run() -> None")]),))
        for i in range(50)
    ]
    base = print_api_section(entries)
    proposed = print_api_section([replace(e, status=TaskStatus.DONE) for e in entries])

    def refuse(*args, **kwargs):
        raise AssertionError("a one-line stretch needs no matcher")

    monkeypatch.setattr(difflib, "SequenceMatcher", refuse)
    patches = diff_against_base(base, proposed)
    assert len(patches) == 50 and apply_patches(base, patches) == proposed


@given(st.lists(st.sampled_from("abcd"), min_size=1, max_size=12), st.integers(0, 11), st.sampled_from("abcxy"))
@example(["a", "b", "c", "d"], 2, "x")
def test_a_stretch_written_without_a_matcher_is_the_matchers_replacement(old, at, line):
    at %= len(old)
    new = [*old[:at], line, *old[at + 1 :]]
    changed = [op for op in difflib.SequenceMatcher(a=old, b=new).get_opcodes() if op[0] != "equal"]
    found = _replaced_line(old, new)
    if found is not None:
        assert changed == [("replace", at, at + 1, at, at + 1)]
    assert _replaced_line(["a", "b", "c", "d"], ["a", "b", "x", "d"]) == 2


@given(st.lists(st.sampled_from("abcd"), max_size=10), st.lists(st.sampled_from("abcde"), max_size=20))
def test_without_an_anchor_the_diff_is_one_sequence_matcher(halves, proposed):
    base = [line for line in halves for _ in range(2)]  # no line occurs once in base
    expected = [
        (a0, a1, tuple(proposed[b0:b1]))
        for tag, a0, a1, b0, b1 in difflib.SequenceMatcher(a=base, b=proposed).get_opcodes()
        if tag != "equal"
    ]
    assert diff_against_base(base, proposed) == expected


def test_union_keeps_both_authors_lines():
    base_contract = _contract_with_attr_block()
    section = SectionKey.API_SPECIFICATIONS
    base = list(base_contract.body(section))
    idx = base.index("        - y: int | y value") + 1
    a = _patch(section, idx, idx, ["        - width: int | a side"], author="agent-a")
    b = _patch(section, idx, idx, ["        - color: str | paint"], author="agent-b")
    result = merge_layer(base_contract, [a, b])
    merged = result.sections[section]
    assert "        - width: int | a side" in merged
    assert "        - color: str | paint" in merged


def _contract_with_attr_block():
    entry = make_entry(
        "player.py",
        classes=(
            simple_class("Player", [("x", "int"), ("y", "int")], [method("def move(dx: int) -> None")]),
        ),
    )
    return contract_with([entry])


def test_overlapping_replacements_union_dedups():
    contract = new_contract(DEFAULT_TEMPLATE)
    contract = contract.with_section(SectionKey.CONSTRAINTS, ("one", "two", "three"))
    a = _patch(SectionKey.CONSTRAINTS, 0, 3, ["one", "two", "three", "alpha"], "a")
    b = _patch(SectionKey.CONSTRAINTS, 0, 3, ["one", "two", "three", "beta"], "b")
    result = merge_layer(contract, [a, b])
    assert result.sections[SectionKey.CONSTRAINTS] == ("one", "two", "three", "alpha", "beta")
    assert len(result.conflicts) == 1
    assert result.conflicts[0].authors == ("a", "b")


def test_disjoint_patches_commute():
    contract = new_contract(DEFAULT_TEMPLATE)
    contract = contract.with_section(SectionKey.CONSTRAINTS, ("c1", "c2"))
    p1 = _patch(SectionKey.CONSTRAINTS, 0, 1, ["c1x"], "a")
    p2 = _patch(SectionKey.USER_STORIES, 0, 0, ["s1"], "b")
    merged_ab = merge_layer(contract, [p1, p2]).sections
    merged_ba = merge_layer(contract, [p2, p1]).sections
    assert merged_ab == merged_ba


def test_merge_order_independence_permutations():
    contract = new_contract(DEFAULT_TEMPLATE)
    contract = contract.with_section(
        SectionKey.CONSTRAINTS, tuple(f"l{i}" for i in range(6))
    )
    patches = [
        _patch(SectionKey.CONSTRAINTS, 0, 2, ["a0", "a1"], "a"),
        _patch(SectionKey.CONSTRAINTS, 1, 3, ["b0"], "b"),
        _patch(SectionKey.CONSTRAINTS, 4, 4, ["c0"], "c"),
        _patch(SectionKey.CONSTRAINTS, 5, 6, ["d0", "d1"], "d"),
    ]
    baseline = merge_layer(contract, patches)
    for perm in itertools.permutations(patches):
        result = merge_layer(contract, list(perm))
        assert result.sections == baseline.sections
        assert result.conflicts == baseline.conflicts


def test_union_superset_of_each_alone():
    rng = random.Random(99)
    contract = new_contract(DEFAULT_TEMPLATE)
    base_lines = tuple(f"base{i}" for i in range(8))
    contract = contract.with_section(SectionKey.CONSTRAINTS, base_lines)
    for _ in range(300):
        s1, s2 = sorted(rng.sample(range(8), 2))
        p1 = _patch(
            SectionKey.CONSTRAINTS, s1, s2, [f"a{rng.randrange(5)}" for _ in range(rng.randrange(1, 4))], "a"
        )
        e1, e2 = sorted(rng.sample(range(8), 2))
        p2 = _patch(
            SectionKey.CONSTRAINTS, e1, e2, [f"b{rng.randrange(5)}" for _ in range(rng.randrange(1, 4))], "b"
        )
        merged = set(merge_layer(contract, [p1, p2]).sections[SectionKey.CONSTRAINTS])
        for patch in (p1, p2):
            for line in patch.replacement:
                assert line in merged


def test_stale_patch_detected():
    contract = new_contract(DEFAULT_TEMPLATE)
    with pytest.raises(StalePatch):
        merge_layer(contract, [_patch(SectionKey.CONSTRAINTS, 0, 5, ["x"], "a")])


def test_patches_for_action_add_and_update():
    contract = new_contract(DEFAULT_TEMPLATE)
    contract = contract.with_section(SectionKey.CONSTRAINTS, ("old",))
    view = full_view(contract)
    add = ContractAction(ActionOp.ADD, SectionKey.CONSTRAINTS, "extra")
    patches = patches_for_action(contract, add, "x", view)
    assert patches == [AtomicPatch(SectionKey.CONSTRAINTS, 1, 1, ("extra",), "x")]
    assert apply_patches(list(contract.body(SectionKey.CONSTRAINTS)), [
        (p.start, p.end, p.replacement) for p in patches
    ]) == ["old", "extra"]
    assert patches_for_action(contract, ContractAction(ActionOp.ADD, SectionKey.CONSTRAINTS, ""), "x", view) == []
    update = ContractAction(ActionOp.UPDATE, SectionKey.CONSTRAINTS, "new only")
    patches = patches_for_action(contract, update, "x", view)
    assert apply_patches(["old"], [(p.start, p.end, p.replacement) for p in patches]) == ["new only"]


def test_commit_merge_refreshes_base_and_bumps_revision():
    contract = _contract_with_attr_block()
    action = ContractAction(ActionOp.UPDATE, SectionKey.CONSTRAINTS, "- constrained")
    patches = patches_for_action(contract, action, "a", full_view(contract))
    committed = commit_merge(contract, merge_layer(contract, patches))
    assert committed.revision == contract.revision + 1
    assert committed.body(SectionKey.CONSTRAINTS) == ("- constrained",)


def test_commit_merge_empty_patch_set_is_noop():
    contract = _contract_with_attr_block()
    committed = commit_merge(contract, merge_layer(contract, []))
    assert committed == contract


def test_commit_merge_rejects_cycle_and_names_it():
    mk = lambda p, c: make_entry(p, classes=(simple_class(c, [], [method("def f() -> None")]),))
    contract = contract_with([mk("a.py", "A"), mk("b.py", "B")], dependency_lines=["a.py --> b.py"])
    action = ContractAction(
        ActionOp.UPDATE,
        SectionKey.DEPENDENCY_RELATIONSHIPS,
        "a.py --> b.py\nb.py --> a.py",
    )
    patches = patches_for_action(contract, action, "agent", full_view(contract))
    before = render(contract)
    with pytest.raises(KernelViolation) as excinfo:
        commit_merge(contract, merge_layer(contract, patches))
    assert "a.py" in str(excinfo.value) and "b.py" in str(excinfo.value)
    assert render(contract) == before


_VIEW_LINES = ("- a", "- b", "- c", "  Status: TODO", "  Status: DONE", "- File: x.py")


@st.composite
def _view_edits(draw):
    """A base body, any subset of its lines as the view, and an edit of the view."""
    base = draw(st.lists(st.sampled_from(_VIEW_LINES), max_size=12))
    shown = tuple(sorted(draw(st.sets(st.integers(0, len(base) - 1))))) if base else ()
    seen = [base[i] for i in shown]
    proposed = list(seen)
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(proposed)))
        op = draw(st.sampled_from(("insert", "delete", "replace")))
        if op == "insert" or at == len(proposed):
            proposed.insert(at, draw(st.sampled_from(_VIEW_LINES)))
        elif op == "delete":
            del proposed[at : at + draw(st.integers(1, 3))]
        else:
            proposed[at] = draw(st.sampled_from(_VIEW_LINES))
    return base, shown, proposed


def _update(base, proposed):
    section = SectionKey.GLOBAL_SHARED_KNOWLEDGE
    contract = LanguageContract.empty().with_section(section, base)
    return contract, ContractAction(ActionOp.UPDATE, section, "\n".join(proposed))


@given(_view_edits())
def test_a_view_edit_keeps_every_unseen_line(case):
    base, shown, proposed = case
    contract, action = _update(base, proposed)
    patches = patches_for_action(contract, action, "w", {action.section: shown})
    # Tag each line with its base index (None for written lines) and apply.
    tagged = apply_patches(
        list(enumerate(base)),
        [(p.start, p.end, tuple((None, line) for line in p.replacement)) for p in patches],
    )
    unseen = [i for i in range(len(base)) if i not in shown]
    assert [i for i, _ in tagged if i is not None and i not in shown] == unseen
    assert [line for i, line in tagged if i is None or i in shown] == proposed


@given(_view_edits())
def test_the_whole_contract_view_patches_the_plain_diff(case):
    base, _, proposed = case
    contract, action = _update(base, proposed)
    expected = [
        AtomicPatch(action.section, start, end, replacement, "w")
        for start, end, replacement in diff_against_base(list(base), proposed)
    ]
    assert patches_for_action(contract, action, "w", full_view(contract)) == expected


@given(_view_edits(), st.data())
def test_two_edits_and_an_add_of_one_author_fold_into_one_placement(case, data):
    base, shown, proposed = case
    # Hidden lines are distinct from every line an edit can write.
    base = [line if i in shown else f"- hidden {i}" for i, line in enumerate(base)]
    contract, first = _update(base, proposed)
    second = list(proposed)
    at = data.draw(st.integers(0, len(second)))
    second[at:at + data.draw(st.integers(0, 2))] = data.draw(st.lists(st.sampled_from(_VIEW_LINES), max_size=2))
    view = {**full_view(contract), first.section: shown}
    actions = [
        first,
        ContractAction(ActionOp.UPDATE, first.section, "\n".join(second)),
        ContractAction(ActionOp.ADD, first.section, "- added"),
    ]
    journal = []

    committed, _ = commit_actions(contract, [("w", action, view) for action in actions], journal.append)
    body = committed.body(first.section)
    assert [line for line in body if not line.startswith("- hidden")] == [*second, "- added"]
    assert [line for line in body if line.startswith("- hidden")] == [base[i] for i in range(len(base)) if i not in shown]
    assert journal[:3] == [journal_record(action, committed.revision) for action in actions]


@given(_view_edits(), st.sampled_from(ActionOp))
def test_through_the_whole_view_an_action_applies_as_apply_action_does(case, op):
    base, _, proposed = case
    contract, action = _update(base, proposed)
    action = ContractAction(op, action.section, action.content)
    committed, _ = commit_actions(contract, [("w", action, full_view(contract))], lambda record: None)
    assert committed.sections == apply_action(contract, action).sections


def test_a_commit_trims_the_blank_lines_an_edit_leaves_at_a_section_end():
    contract = LanguageContract.empty().with_section(SectionKey.CONSTRAINTS, ("- x", "", "- y", "- z"))
    view = {**full_view(contract), SectionKey.CONSTRAINTS: (0, 3)}
    action = ContractAction(ActionOp.UPDATE, SectionKey.CONSTRAINTS, "- z")
    committed, _ = commit_actions(contract, [("w", action, view)], lambda record: None)
    assert committed.body(SectionKey.CONSTRAINTS) == ("- y", "- z")  # the hidden blank line is trimmed


def test_a_guarded_action_placed_through_a_view_is_rejected_whole():
    contract = contract_with([make_entry("a.py"), make_entry("b.py")])
    cyclic = ContractAction(ActionOp.UPDATE, SectionKey.DEPENDENCY_RELATIONSHIPS, "a.py --> b.py\nb.py --> a.py")
    journal = []
    with pytest.raises(KernelViolation) as refused:
        commit_actions(contract, [("w", cyclic, full_view(contract))], journal.append)
    assert refused.value.violations and journal == []

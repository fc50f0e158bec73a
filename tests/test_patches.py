from __future__ import annotations

import itertools
import random
from dataclasses import replace

import pytest

from charter.contract import ActionOp, ContractAction, SectionKey, new_contract, render, DEFAULT_TEMPLATE
from charter.patches import (
    AtomicPatch,
    KernelViolation,
    StalePatch,
    apply_patches,
    commit_merge,
    diff_against_base,
    merge_layer,
    patches_for_action,
)
from charter.kernel import print_api_section
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
    alphabet = [f"line{i}" for i in range(12)]
    for _ in range(500):
        base = [rng.choice(alphabet) for _ in range(rng.randrange(0, 14))]
        proposed = [rng.choice(alphabet) for _ in range(rng.randrange(0, 14))]
        patches = diff_against_base(base, proposed)
        assert apply_patches(base, patches) == proposed


def test_status_write_back_diffs_to_one_line_per_flip():
    entries = [
        make_entry(f"mod{i}.py", classes=(simple_class(f"C{i}", [("n", "int")], [method("def run() -> None")]),))
        for i in range(100)
    ]
    base = print_api_section(entries)
    assert len(base) >= 200
    flipped = {i: random.Random(i).choice([TaskStatus.DONE, TaskStatus.ERROR]) for i in range(0, 100, 7)}
    proposed = print_api_section(
        [replace(e, status=flipped[i]) if i in flipped else e for i, e in enumerate(entries)]
    )
    changed = [i for i, (old, new) in enumerate(zip(base, proposed)) if old != new]
    assert len(changed) == len(flipped)
    assert diff_against_base(base, proposed) == [(i, i + 1, (proposed[i],)) for i in changed]


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
    add = ContractAction(ActionOp.ADD, SectionKey.CONSTRAINTS, "extra")
    patches = patches_for_action(contract, add, author="x")
    assert apply_patches(list(contract.body(SectionKey.CONSTRAINTS)), [
        (p.start, p.end, p.replacement) for p in patches
    ]) == ["old", "extra"]
    update = ContractAction(ActionOp.UPDATE, SectionKey.CONSTRAINTS, "new only")
    patches = patches_for_action(contract, update, author="x")
    assert apply_patches(["old"], [(p.start, p.end, p.replacement) for p in patches]) == ["new only"]


def test_commit_merge_refreshes_base_and_bumps_revision():
    contract = _contract_with_attr_block()
    action = ContractAction(ActionOp.UPDATE, SectionKey.CONSTRAINTS, "- constrained")
    patches = patches_for_action(contract, action, author="a")
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
    patches = patches_for_action(contract, action, author="agent")
    before = render(contract)
    with pytest.raises(KernelViolation) as excinfo:
        commit_merge(contract, merge_layer(contract, patches))
    assert "a.py" in str(excinfo.value) and "b.py" in str(excinfo.value)
    assert render(contract) == before

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from charter.contract import (
    ActionOp,
    ContractAction,
    LanguageContract,
    MalformedTemplate,
    Rejection,
    SectionKey,
    UnknownSection,
    apply_action,
    is_partial_api_patch,
    new_contract,
    parse,
    read_status,
    render,
    section_key_from_name,
    DEFAULT_TEMPLATE,
)
from charter.kernel import guard_violations, parse_api_section
from charter.tasks import TaskStatus

from conftest import contract_with, make_entry, method, simple_class


def test_default_template_yields_seven_empty_sections():
    contract = new_contract(DEFAULT_TEMPLATE)
    assert set(contract.sections) == set(SectionKey)
    assert all(body == () for body in contract.sections.values())
    assert contract.revision == 0


def test_template_missing_section_rejected():
    doc = DEFAULT_TEMPLATE.replace("## Dependency Relationships\n\n", "")
    with pytest.raises(MalformedTemplate, match="Dependency Relationships"):
        new_contract(doc)


def test_template_duplicate_heading_rejected():
    doc = DEFAULT_TEMPLATE.replace(
        "## Constraints", "## Constraints\n\nbody\n\n## Constraints", 1
    )
    with pytest.raises(MalformedTemplate, match="duplicate"):
        new_contract(doc)


def test_stray_heading_rejected():
    doc = DEFAULT_TEMPLATE.replace("## Constraints", "## Budget", 1)
    with pytest.raises(MalformedTemplate):
        new_contract(doc)


def test_unknown_section_name_rejected():
    with pytest.raises(UnknownSection):
        section_key_from_name("Budget")


def test_update_is_full_replacement():
    contract = new_contract(DEFAULT_TEMPLATE)
    action = ContractAction(ActionOp.UPDATE, SectionKey.CONSTRAINTS, "- offline only")
    updated = apply_action(contract, action)
    assert isinstance(updated, LanguageContract)
    assert updated.body(SectionKey.CONSTRAINTS) == ("- offline only",)
    again = apply_action(updated, ContractAction(ActionOp.UPDATE, SectionKey.CONSTRAINTS, "- new"))
    assert again.body(SectionKey.CONSTRAINTS) == ("- new",)


def test_add_appends_lines():
    contract = new_contract(DEFAULT_TEMPLATE)
    first = apply_action(contract, ContractAction(ActionOp.ADD, SectionKey.CONSTRAINTS, "- a"))
    second = apply_action(first, ContractAction(ActionOp.ADD, SectionKey.CONSTRAINTS, "- b"))
    assert second.body(SectionKey.CONSTRAINTS) == ("- a", "- b")


def test_revision_counts_accepted_actions():
    contract = new_contract(DEFAULT_TEMPLATE)
    one = apply_action(contract, ContractAction(ActionOp.UPDATE, SectionKey.CONSTRAINTS, "x"))
    two = apply_action(one, ContractAction(ActionOp.UPDATE, SectionKey.USER_STORIES, "y"))
    assert (contract.revision, one.revision, two.revision) == (0, 1, 2)


def test_rejection_leaves_contract_untouched():
    entries = [
        make_entry("a.py", classes=(simple_class("A", [("n", "int")], [method("def f() -> None")]),)),
        make_entry("b.py", classes=(simple_class("B", [("n", "int")], [method("def g() -> None")]),)),
    ]
    contract = contract_with(entries, dependency_lines=["a.py --> b.py"])
    before = render(contract)
    result = apply_action(
        contract,
        ContractAction(ActionOp.ADD, SectionKey.DEPENDENCY_RELATIONSHIPS, "b.py --> a.py"),
        guard=guard_violations,
    )
    assert isinstance(result, Rejection)
    assert any("CYCLE" in str(v) for v in result.violations)
    assert render(contract) == before


def test_partial_api_patch_rejected():
    contract = new_contract(DEFAULT_TEMPLATE)
    action = ContractAction(
        ActionOp.UPDATE, SectionKey.API_SPECIFICATIONS, "* **Status:** DONE"
    )
    result = apply_action(contract, action)
    assert isinstance(result, Rejection)
    assert "clobber" in result.reason


def test_partial_patch_detector_ignores_attribute_named_status():
    body = "- File: a.py\n  Status: TODO\n  Classes:\n    - Class: A\n      Attributes:\n        - status: str | current phase"
    assert not is_partial_api_patch(body)
    assert is_partial_api_patch("  Status: DONE")


@pytest.mark.parametrize("spelling", ["- Status: done", '- Status: "DONE"', "* **Status:** Verified"])
def test_every_spelling_the_kernel_reads_as_a_status_is_refused_without_a_file(spelling):
    [entry] = parse_api_section(["- File: a.py", spelling.replace("- ", "  ", 1)])
    assert entry.status is read_status(spelling.split(":")[-1].strip(" *"))
    assert entry.status in (TaskStatus.DONE, TaskStatus.VERIFIED)
    contract = contract_with([make_entry("a.py")])
    for op in ActionOp:
        result = apply_action(contract, ContractAction(op, SectionKey.API_SPECIFICATIONS, spelling), guard_violations)
        assert isinstance(result, Rejection) and "clobber" in result.reason
    assert not is_partial_api_patch("- File: a.py\n" + spelling)
    assert read_status("done extra") is None


def test_render_of_empty_contract_is_template():
    assert render(new_contract(DEFAULT_TEMPLATE)) == DEFAULT_TEMPLATE


def test_render_includes_story_line():
    contract = apply_action(
        new_contract(DEFAULT_TEMPLATE),
        ContractAction(ActionOp.UPDATE, SectionKey.USER_STORIES, "- As a player I move."),
    )
    text = render(contract)
    assert "## User Stories (Features)\n\n- As a player I move.\n" in text
    assert parse(text).body(SectionKey.USER_STORIES) == ("- As a player I move.",)


def test_parse_tolerates_edge_blank_lines():
    doc = DEFAULT_TEMPLATE.replace(
        "## Constraints\n", "## Constraints\n\n\n- tight\n\n\n", 1
    )
    assert parse(doc).body(SectionKey.CONSTRAINTS) == ("- tight",)


def test_parse_handles_fenced_headings():
    contract = apply_action(
        new_contract(DEFAULT_TEMPLATE),
        ContractAction(
            ActionOp.UPDATE,
            SectionKey.DEPENDENCY_RELATIONSHIPS,
            "```\n## not a heading\na --> b\n```",
        ),
    )
    round_tripped = parse(render(contract))
    assert round_tripped.body(SectionKey.DEPENDENCY_RELATIONSHIPS) == (
        "```",
        "## not a heading",
        "a --> b",
        "```",
    )


_body_line = st.text(
    alphabet=st.characters(whitelist_categories=("L", "N", "P", "Zs"), blacklist_characters="#`"),
    max_size=60,
).map(lambda s: s.rstrip())


@given(
    bodies=st.lists(
        st.lists(_body_line, max_size=6),
        min_size=7,
        max_size=7,
    )
)
@settings(max_examples=150, deadline=None)
def test_render_parse_round_trip(bodies):
    sections = {}
    for key, lines in zip(SectionKey, bodies):
        sections[key] = lines
    contract = new_contract(DEFAULT_TEMPLATE)
    for key, lines in sections.items():
        result = apply_action(contract, ContractAction(ActionOp.UPDATE, key, "\n".join(lines)))
        assert isinstance(result, LanguageContract)
        contract = result
    reparsed = parse(render(contract))
    assert reparsed.sections == contract.sections
    # idempotence of the serialized form
    assert render(parse(render(contract))) == render(contract)


def test_a_value_renders_once_for_any_number_of_fingerprints(monkeypatch):
    import hashlib

    import charter.contract

    contract = contract_with([make_entry("a.py", classes=(simple_class("A", [], [method("def run() -> None")]),))])
    derived = contract.with_section(SectionKey.CONSTRAINTS, ["- one more"])
    render = charter.contract.render
    rendered = []
    monkeypatch.setattr(charter.contract, "render", lambda value, view=None: rendered.append(value) or render(value, view))

    first = contract.fingerprint()
    assert all(contract.fingerprint() == first for _ in range(5))
    assert first == hashlib.sha256(render(contract).encode("utf-8")).hexdigest()
    assert derived.fingerprint() != first and derived.fingerprint() == derived.fingerprint()
    assert rendered == [contract, derived]

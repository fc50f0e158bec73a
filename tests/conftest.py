from __future__ import annotations

import logging
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest

from charter import auditor
from charter.contract import (
    ActionOp,
    ContractAction,
    LanguageContract,
    SectionKey,
    apply_action,
    journal_record,
    new_contract,
    DEFAULT_TEMPLATE,
)
from charter.kernel import (
    ApiSpecEntry,
    AttributeSpec,
    ClassSpec,
    MethodSig,
    print_api_section,
)
from charter.patches import apply_patches, commit_actions
from charter.tasks import TaskStatus

logging.getLogger("charter").setLevel(logging.ERROR)

FIXTURES = Path(__file__).resolve().parents[1] / "src" / "charter" / "fixtures"
GOLDEN = Path(__file__).parent / "golden"


def fixture_path(*parts: str) -> Path:
    return FIXTURES.joinpath(*parts)


def method(text: str, doc: str = "documented") -> MethodSig:
    from dataclasses import replace

    from charter.kernel import parse_signature

    return replace(parse_signature(text), docstring=doc)


def make_entry(
    path: str,
    owner: str = "dev",
    status: TaskStatus = TaskStatus.TODO,
    classes: tuple[ClassSpec, ...] = (),
) -> ApiSpecEntry:
    return ApiSpecEntry(file_path=path, owner=owner, version=1, status=status, classes=classes)


def contract_with(
    entries: list[ApiSpecEntry],
    dependency_lines: list[str] | None = None,
) -> LanguageContract:
    """Contract whose API section holds ``entries`` (and optionally a diagram)."""
    contract = new_contract(DEFAULT_TEMPLATE)
    result = apply_action(
        contract,
        ContractAction(
            op=ActionOp.UPDATE,
            section=SectionKey.API_SPECIFICATIONS,
            content="\n".join(print_api_section(entries)),
        ),
    )
    assert isinstance(result, LanguageContract), result
    if dependency_lines:
        result2 = apply_action(
            result,
            ContractAction(
                op=ActionOp.UPDATE,
                section=SectionKey.DEPENDENCY_RELATIONSHIPS,
                content="\n".join(dependency_lines),
            ),
        )
        assert isinstance(result2, LanguageContract), result2
        result = result2
    return result


def simple_class(name: str, attrs: list[tuple[str, str]], methods: list[MethodSig]) -> ClassSpec:
    return ClassSpec(
        name=name,
        attributes=tuple(AttributeSpec(n, t, f"{n} value") for n, t in attrs),
        methods=tuple(methods),
    )


def written(contract, patches) -> str:
    """The API section of ``contract`` with ``patches`` applied: the text of
    the UPDATE ``commit_actions`` journals for a write-back."""
    body = contract.body(SectionKey.API_SPECIFICATIONS)
    return "\n".join(apply_patches(body, [(p.start, p.end, p.replacement) for p in patches]))


def audit_checking_the_write_back(contract, files, tasks, outcomes):
    """``auditor.audit_layer``, checking that the write-back it places,
    applied alone to ``contract``, is ``print_api_section`` of the amended
    entries stamped with the planned statuses: the whole section the
    auditor once printed and diffed against the snapshot. It is also the
    UPDATE that ``commit_actions`` journals for the write-back."""
    amended = []
    amend = auditor._try_amendment

    def recording(*args):
        amended.append(amend(*args))
        return amended[-1]

    statuses = {task_id: task.status for task_id, task in tasks.items()}
    with mock.patch.object(auditor, "_try_amendment", recording):
        report = auditor.audit_layer(contract, files, tasks, outcomes)
    statuses.update((task_id, TaskStatus(new)) for task_id, _, new in report.status_updates)
    whole = print_api_section([replace(e, status=statuses.get(path, e.status)) for path, e in amended[0].items()])
    body = list(contract.body(SectionKey.API_SPECIFICATIONS))
    if not report.write_back:
        assert body == whole
    else:
        assert apply_patches(body, [(p.start, p.end, p.replacement) for p in report.write_back]) == whole
        journal = []
        commit_actions(contract, (), journal.append, report.write_back, "layer 1")
        update = ContractAction(ActionOp.UPDATE, SectionKey.API_SPECIFICATIONS, "\n".join(whole))
        assert journal[0] == journal_record(update, contract.revision + 1)
    return report


@pytest.fixture
def gomoku_transcript() -> Path:
    return fixture_path("transcripts", "gomoku.jsonl")


@pytest.fixture
def plane_transcript() -> Path:
    return fixture_path("transcripts", "plane_battle.jsonl")


@pytest.fixture
def gomoku_intent() -> Path:
    return fixture_path("intents", "gomoku.txt")


@pytest.fixture
def plane_intent() -> Path:
    return fixture_path("intents", "plane_battle.txt")


_ACCEPTANCE_RESULTS: dict[str, str] = {}


def record_acceptance(criterion: str, detail: str = "") -> None:
    _ACCEPTANCE_RESULTS[criterion] = detail


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call" or "test_acceptance" not in str(item.fspath):
        return
    name = item.name
    if report.passed:
        print(f"\nACCEPTANCE {name}: PASS")
    elif report.failed:
        print(f"\nACCEPTANCE {name}: FAIL")

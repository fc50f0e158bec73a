from __future__ import annotations

import keyword
import random

import pytest
from hypothesis import given, settings, strategies as st

from charter.contract import new_contract, DEFAULT_TEMPLATE
from charter.kernel import (
    MethodSig,
    ProjectionError,
    SignatureError,
    UnknownEdgeEndpoint,
    ViolationKind,
    find_cycle,
    parse_api_section,
    parse_signature,
    print_api_section,
    print_signature,
    project,
    tasks_of,
    validate,
)
from charter.tasks import TaskStatus
from charter.workspace import FileUnit, extract_symbols

from conftest import contract_with, make_entry, method, simple_class


def test_parse_signature_basic():
    sig = parse_signature("def move(dx: int) -> None")
    assert sig.name == "move"
    assert sig.params == (("dx", "int"),)
    assert sig.return_type == "None"


def test_parse_signature_zero_params():
    sig = parse_signature("def tick() -> GameState")
    assert sig.name == "tick"
    assert sig.params == ()
    assert sig.return_type == "GameState"


def test_parse_signature_missing_colon_reports_column():
    with pytest.raises(SignatureError) as excinfo:
        parse_signature("def f(x int)")
    assert excinfo.value.column == 9  # Python's parser points at `int`


def test_parse_signature_whitespace_insensitive():
    a = parse_signature("def f(x: int, y: str) -> bool")
    b = parse_signature("def  f ( x :int ,  y : str )->bool")
    assert a == b


def test_parse_signature_generic_types_with_commas():
    sig = parse_signature("def f(m: dict[str, list[int]], n: int) -> tuple[int, int]")
    assert sig.params == (("m", "dict[str, list[int]]"), ("n", "int"))
    assert sig.return_type == "tuple[int, int]"


def test_parse_signature_requires_return():
    with pytest.raises(SignatureError):
        parse_signature("def f(x: int)")


@pytest.mark.parametrize(
    "header", ["def f(x) -> None", "def f(self, x) -> None", "list of int", "def if(x: int) -> None", "x = 1"]
)
def test_parse_signature_rejects(header):
    with pytest.raises(SignatureError):
        parse_signature(header)


@pytest.mark.parametrize(
    "header",
    [
        "def f(x: int = 0) -> None",
        "def f(self, x: int) -> None",
        "def f(*args: int, **kw: str) -> None",
        "def f(a: int, /, b: int, *, c: int) -> None",
        "def f(m: dict[str, list[int]]) -> tuple[int, int]",
    ],
)
def test_contract_and_code_read_a_header_alike(header):
    symbols = extract_symbols(FileUnit(path="m.py", body=header + ":\n    ...\n"))
    assert symbols.functions == (parse_signature(header),)


_type_names = st.sampled_from(["int", "float", "str", "bool", "None", "list[int]", "dict[str, int]", "Game"])
# A keyword cannot name a function or parameter, and a leading self/cls is the
# receiver, not a parameter.
_identifiers = st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True).filter(
    lambda name: not keyword.iskeyword(name) and name not in ("self", "cls")
)


@given(
    name=_identifiers,
    params=st.lists(st.tuples(_identifiers, _type_names), max_size=4, unique_by=lambda p: p[0]),
    ret=_type_names,
)
@settings(max_examples=200, deadline=None)
def test_signature_round_trip(name, params, ret):
    sig = MethodSig(name=name, params=tuple(params), return_type=ret)
    assert parse_signature(print_signature(sig)) == sig


def test_project_player_entry():
    entry = make_entry(
        "entities/player.py",
        classes=(
            simple_class(
                "Player",
                [("x", "int"), ("y", "int"), ("health", "int")],
                [method("def move(dx: int) -> None")],
            ),
        ),
    )
    kernel = project(contract_with([entry]))
    assert list(kernel.nodes) == ["entities/player.py"]
    attr_symbols = [s for s, v in kernel.signatures.items() if isinstance(v, str)]
    assert len(attr_symbols) == 3
    assert "entities/player.py::Player.move" in kernel.signatures


def test_project_empty_section():
    kernel = project(new_contract(DEFAULT_TEMPLATE))
    assert kernel.nodes == {}
    assert kernel.signatures == {}
    assert kernel.dependencies == {}


def _three_module_contract():
    mk = lambda p, cls: make_entry(p, classes=(simple_class(cls, [("n", "int")], [method(f"def run() -> None")]),))
    return contract_with(
        [mk("a.py", "A"), mk("b.py", "B"), mk("c.py", "C")],
        dependency_lines=["a.py --> b.py", "b.py --> c.py"],
    )


def test_edge_endpoint_resolution_variants():
    entries = [
        make_entry("core/game.py", classes=(simple_class("Game", [], [method("def go() -> None")]),)),
        make_entry("main.py", classes=(simple_class("App", [], [method("def run() -> None")]),)),
    ]
    contract = contract_with(entries, dependency_lines=["main --> core.game"])
    kernel = project(contract)
    assert kernel.dependencies["main.py"] == ("core/game.py",)


def test_unknown_edge_endpoint():
    entries = [make_entry("a.py", classes=(simple_class("A", [], [method("def f() -> None")]),))]
    with pytest.raises(UnknownEdgeEndpoint):
        project(contract_with(entries, dependency_lines=["a.py --> ghost.py"]))


def test_validate_finds_cycle():
    mk = lambda p, cls: make_entry(p, classes=(simple_class(cls, [], [method("def f() -> None")]),))
    contract = contract_with(
        [mk("a.py", "A"), mk("b.py", "B")],
        dependency_lines=["a.py --> b.py", "b.py --> a.py"],
    )
    violations = validate(project(contract))
    cycles = [v for v in violations if v.kind is ViolationKind.CYCLE]
    assert len(cycles) == 1
    assert "a.py" in cycles[0].subject and "b.py" in cycles[0].subject


def test_validate_flags_undeclared_type():
    entry = make_entry(
        "a.py",
        classes=(simple_class("A", [], [method("def f() -> Inventory")]),),
    )
    violations = validate(project(contract_with([entry])))
    assert any(v.kind is ViolationKind.TYPE_UNDEFINED and "Inventory" in v.message for v in violations)


def test_validate_clean_kernel():
    violations = validate(project(_three_module_contract()))
    assert violations == []


def test_validate_incomplete_when_no_docstrings():
    entry = make_entry(
        "a.py",
        classes=(simple_class("A", [], [method("def f() -> None", doc="")]),),
    )
    violations = validate(project(contract_with([entry])))
    assert any(v.kind is ViolationKind.INCOMPLETE for v in violations)


def test_generic_head_symbol_only():
    entry = make_entry(
        "a.py",
        classes=(simple_class("A", [("xs", "list[Mystery]")], [method("def f() -> None")]),),
    )
    assert not any(
        v.kind is ViolationKind.TYPE_UNDEFINED for v in validate(project(contract_with([entry])))
    )


def test_tasks_of_orders_and_copies_status():
    entries = [
        make_entry("b.py", status=TaskStatus.DONE, classes=(simple_class("B", [], [method("def f() -> None")]),)),
        make_entry("a.py", status=TaskStatus.TODO, classes=(simple_class("A", [], [method("def f() -> None")]),)),
        make_entry("c.py", status=TaskStatus.VERIFIED, classes=(simple_class("C", [], [method("def f() -> None")]),)),
    ]
    tasks = tasks_of(project(contract_with(entries)))
    assert [t.id for t in tasks] == ["a.py", "b.py", "c.py"]
    assert [t.status for t in tasks] == [TaskStatus.TODO, TaskStatus.DONE, TaskStatus.VERIFIED]


def test_tasks_of_empty_kernel():
    assert tasks_of(project(new_contract(DEFAULT_TEMPLATE))) == []


def test_api_section_print_parse_round_trip():
    entries = [
        make_entry(
            "x/y.py",
            owner="backend",
            status=TaskStatus.ERROR,
            classes=(
                simple_class(
                    "Thing",
                    [("a", "int"), ("b", "list[str]")],
                    [method("def f(q: int) -> bool", doc="checks q"), method("def g() -> None", doc="")],
                ),
            ),
        ),
        make_entry("z.py", owner="app"),
    ]
    printed = print_api_section(entries)
    assert parse_api_section(printed) == entries


def test_parse_api_section_reports_line_locus():
    with pytest.raises(ProjectionError, match="line 2"):
        parse_api_section(["- File: a.py", "  what is this line"])


def test_duplicate_class_across_entries_rejected():
    entries = [
        make_entry("a.py", classes=(simple_class("Dup", [], [method("def f() -> None")]),)),
        make_entry("b.py", classes=(simple_class("Dup", [], [method("def g() -> None")]),)),
    ]
    with pytest.raises(ProjectionError, match="Dup"):
        project(contract_with(entries))


def test_derived_edges_flagged_not_violating():
    entries = [
        make_entry("a.py", classes=(simple_class("A", [], [method("def f(b: B) -> None")]),)),
        make_entry("b.py", classes=(simple_class("B", [], [method("def g(a: A) -> None")]),)),
    ]
    kernel = project(contract_with(entries))
    assert ("a.py", "b.py") in kernel.derived_edges
    assert ("b.py", "a.py") in kernel.derived_edges
    assert not any(v.kind is ViolationKind.CYCLE for v in validate(kernel))


def _brute_force_has_cycle(n: int, edges: set[tuple[int, int]]) -> bool:
    reach = [[False] * n for _ in range(n)]
    for i, j in edges:
        reach[i][j] = True
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                row_k = reach[k]
                row_i = reach[i]
                for j in range(n):
                    if row_k[j]:
                        row_i[j] = True
    return any(reach[i][i] for i in range(n))


def test_cycle_detector_exhaustive_small_graphs():
    for n in (1, 2, 3):
        nodes = [str(i) for i in range(n)]
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        for bits in range(2 ** len(pairs)):
            edges = {pairs[k] for k in range(len(pairs)) if bits >> k & 1}
            adjacency = {str(i): tuple(sorted(str(j) for (a, j) in edges if a == i)) for i in range(n)}
            found = find_cycle(nodes, adjacency) is not None
            assert found == _brute_force_has_cycle(n, edges)


def test_cycle_detector_random_sample_matches_brute_force():
    rng = random.Random(20240817)
    for n, cases, density in ((6, 2000, 0.25), (10, 500, 0.12)):
        nodes = [str(i) for i in range(n)]
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        for _ in range(cases):
            edges = {p for p in pairs if rng.random() < density}
            adjacency = {
                str(i): tuple(sorted(str(j) for (a, j) in edges if a == i)) for i in range(n)
            }
            assert (find_cycle(nodes, adjacency) is not None) == _brute_force_has_cycle(n, edges)


def test_no_orphan_signatures():
    kernel = project(_three_module_contract())
    for symbol in kernel.signatures:
        module_id = symbol.split("::", 1)[0]
        assert module_id in kernel.nodes

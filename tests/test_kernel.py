from __future__ import annotations

import ast
import keyword
import random
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import charter.auditor
import charter.kernel
import charter.patches
from charter.agents import IntentSpec, synthesize_contract
from charter.backends import ScriptedBackend
from charter.contract import LanguageContract, SectionKey, new_contract, DEFAULT_TEMPLATE
from charter.kernel import (
    ApiSpecEntry,
    AttributeSpec,
    ClassSpec,
    MethodSig,
    ProjectionError,
    SignatureError,
    UnknownEdgeEndpoint,
    ViolationKind,
    find_cycle,
    guard_violations,
    parse_api_section,
    parse_field_line,
    parse_signature,
    print_api_section,
    print_signature,
    project,
    read_type,
    task_view,
    validate,
)
from charter.scheduler import RunConfig, RunMode, run
from charter.tasks import TaskStatus
from charter.workspace import FileUnit, extract_symbols

from conftest import contract_with, make_entry, method, simple_class

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import synth  # noqa: E402


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
    symbols = extract_symbols(FileUnit(path="m.py", body=f"class C:\n    {header}:\n        ...\n"))
    assert symbols.classes[0].methods == (parse_signature(header),)


_type_names = st.sampled_from(
    ["int", "float", "str", "bool", "None", "list[int]", "dict[str, int]", "Game", "int | None", "Optional[Game]", "list[int | None]"]
)
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
    sig = MethodSig(name=name, params=tuple((n, _read(t)) for n, t in params), return_type=_read(ret))
    assert parse_signature(print_signature(sig)) == sig
    # A header as written reads into the same canonical types.
    header = f"def {name}({', '.join(f'{n}: {t}' for n, t in params)}) -> {ret}"
    assert parse_signature(header) == sig


def _read(text: str) -> str:
    return read_type(ast.parse(text, mode="eval").body)


_names = st.sampled_from(["int", "str", "None", "Game", "Any", "List", "typing.Dict", "Optional", "Union", "Literal"])
_type_texts = st.recursive(
    _names,
    lambda inner: st.one_of(
        st.builds("{}[{}]".format, _names, inner),
        st.builds("{}[{}, {}]".format, _names, inner, inner),
        st.builds("{}[{},]".format, _names, inner),
        st.builds("{} | {}".format, inner, inner),
        st.builds(repr, inner),
    ),
    max_leaves=6,
)


@given(_type_texts)
@settings(max_examples=300, deadline=None)
@example("Literal['int', \"'Game'\"]")
@example("'not a type!'")
def test_reading_a_canonical_type_again_changes_nothing(text):
    canonical = _read(text)
    assert _read(canonical) == canonical


@pytest.mark.parametrize(
    "written, canonical",
    [
        ("'Player'", "Player"),
        ("typing.Optional['Player']", "Player | None"),
        ("Union[int, str, None]", "int | str | None"),
        ("List[Tuple[int,int],]", "list[tuple[int, int]]"),
        ("Dict[str, typing.Any]", "dict[str, any]"),
        ("Literal['Game', 'a b',]", "Literal['Game', 'a b']"),
        ("'not a type!'", "'not a type!'"),
    ],
)
def test_a_type_is_read_in_its_canonical_form(written, canonical):
    assert _read(written) == canonical


def test_an_attribute_type_that_is_no_python_expression_is_refused():
    lines = ["- File: a.py", "  Classes:", "    - Class: A", "      Attributes:", "        - x: list of int | cells"]
    with pytest.raises(ProjectionError, match="line 5: attribute type is not a Python expression: 'list of int'"):
        parse_api_section(lines)
    lines[-1] = "        - x: int | None | cells"  # unparenthesised: the type ends at the first `|`
    [entry] = parse_api_section(lines)
    assert entry.classes[0].attributes[0] == AttributeSpec("x", "int", "None | cells")


def test_a_bracket_or_bar_in_a_string_literal_does_not_end_a_type():
    lines = ["- File: a.py", "  Classes:", "    - Class: A", "      Attributes:", "        - mark: Literal['('] | d"]
    lines += ["      Methods:", '        - def join(sep: str = "(") -> str | Joins.']
    [entry] = parse_api_section(lines)
    [cls] = entry.classes
    assert cls.attributes == (AttributeSpec("mark", "Literal['(']", "d"),)
    assert cls.methods == (MethodSig("join", (("sep", "str"),), "str", "Joins."),)
    # Printed and read back, also as an alternative of a union.
    for type_name in ("Literal['(']", "Literal['|']", "Literal['('] | int", "int | Literal[')', '|']"):
        printed = replace(entry, classes=(replace(cls, attributes=(AttributeSpec("mark", type_name, "d"),)),))
        assert parse_api_section(print_api_section([printed])) == [printed]
    lines[-1] = "        - def join(sep: str = \"(\") | Joins."
    with pytest.raises(ProjectionError, match="line 7: bad method signature: col 25: expected '-> TYPE' after parameter list"):
        parse_api_section(lines)


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
    assert kernel.entries == {"entities/player.py": entry}
    assert kernel.classes == {"Player": ("entities/player.py", entry.classes[0])}


def test_project_empty_section():
    kernel = project(new_contract(DEFAULT_TEMPLATE))
    assert kernel.entries == {}
    assert kernel.classes == {}
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


def test_edge_endpoints_are_read_as_normalized_paths():
    entries = [
        make_entry("a.py", classes=(simple_class("A", [], [method("def f() -> None")]),)),
        make_entry("b.py", classes=(simple_class("B", [], [method("def g() -> None")]),)),
    ]
    kernel = project(contract_with(entries, dependency_lines=["./a.py --> b.py"]))
    assert kernel.dependencies["a.py"] == ("b.py",)
    with pytest.raises(UnknownEdgeEndpoint):
        project(contract_with(entries, dependency_lines=["/a.py --> b.py"]))


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


def test_every_alternative_of_a_union_is_a_head():
    entries = [
        make_entry("a.py", classes=(simple_class("A", [("b", "None | B"), ("c", "Optional['Cart']")], [method("def f() -> int")]),)),
        make_entry("b.py", classes=(simple_class("B", [], [method("def g() -> int")]),)),
    ]
    kernel = project(contract_with(entries))
    assert [(v.subject, v.message) for v in kernel.violations if v.kind is ViolationKind.TYPE_UNDEFINED] == [
        ("a.py::A.c", "type 'Cart' is neither primitive nor a declared class")
    ]
    assert kernel.derived_edges == (("a.py", "b.py"),)


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


def test_api_section_print_parse_round_trip():
    entries = [
        make_entry(
            "x/y.py",
            owner="backend",
            status=TaskStatus.ERROR,
            classes=(
                simple_class(
                    "Thing",
                    [("a", "int"), ("b", "list[str]"), ("c", "int | None"), ("d", "dict[str, int | None]")],
                    [
                        method("def f(q: int) -> bool", doc="checks q"),
                        method("def g() -> None", doc=""),
                        method("def h(y: int | None) -> Optional[Thing]", doc="maybe | maybe not"),
                    ],
                ),
            ),
        ),
        make_entry("z.py", owner="app"),
    ]
    printed = print_api_section(entries)
    assert "        - c: (int | None) | c value" in printed
    assert "        - def h(y: int | None) -> (Thing | None) | maybe | maybe not" in printed
    assert parse_api_section(printed) == entries


def test_parse_api_section_reports_line_locus():
    with pytest.raises(ProjectionError, match="line 2"):
        parse_api_section(["- File: a.py", "  what is this line"])


def test_file_paths_are_projected_normalized():
    entries = parse_api_section(print_api_section([make_entry("./a.py"), make_entry("pkg//b.py")]))
    assert [e.file_path for e in entries] == ["a.py", "pkg/b.py"]


def test_one_module_spelled_twice_is_a_duplicate_entry():
    with pytest.raises(ProjectionError, match="line 6: duplicate File entry: a.py"):
        parse_api_section(print_api_section([make_entry("a.py"), make_entry("./a.py")]))


def _basis_entries(statuses):
    return [
        make_entry(
            f"m{i}.py",
            status=status,
            classes=(simple_class(f"C{i}", [("n", "int")] if i % 2 else [], [method(f"def run{i}(k: int) -> None")]),),
        )
        for i, status in enumerate(statuses)
    ]


_EDIT_LINES = (
    "  Version: 2",
    "  Owner: someone",
    "  Owner: DONE",
    "        - extra: int | added",
    "        - def extra() -> None | added",
    "      Methods:",
    "  what is this line",
    "",
)


@st.composite
def _derived_api_sections(draw):
    """A printed API section, some entries without a Status line, and the
    lines of a child derived from it by flipping Status lines (to a known or
    unknown value, or to a File line), editing lines (any line, a Status line
    or an entry's last line), and inserting (possibly duplicate) or deleting
    entries."""
    entries = _basis_entries(draw(st.lists(st.sampled_from(TaskStatus), min_size=1, max_size=6)))
    n = len(entries)
    base = [
        line
        for line in print_api_section(entries)
        if not (line.strip().startswith("Status:") and draw(st.booleans()))
    ]
    lines = list(base)
    for _ in range(draw(st.integers(0, 6))):
        status_lines = [i for i, line in enumerate(lines) if line.strip().startswith("Status:")]
        file_lines = [i for i, line in enumerate(lines) if line.startswith("- File:")]
        op = draw(st.sampled_from(("flip", "unknown", "to_file", "edit", "insert", "delete")))
        if op in ("flip", "unknown", "to_file") and status_lines:
            at = draw(st.sampled_from(status_lines))
            if op == "flip":
                lines[at] = f"  Status: {draw(st.sampled_from(TaskStatus)).value}"
            elif op == "unknown":
                lines[at] = "  Status: SHIPPED"
            else:
                lines[at] = f"- File: m{draw(st.integers(0, n))}.py"
        elif op == "edit" and lines:
            last_lines = [i - 1 for i in file_lines[1:]] + [len(lines) - 1]
            at = draw(st.sampled_from(sorted({*status_lines, *last_lines})) | st.integers(0, len(lines) - 1))
            lines[at] = draw(st.sampled_from(_EDIT_LINES))
        elif op == "insert":
            at = draw(st.sampled_from([*file_lines, len(lines)]))
            path, name = f"m{draw(st.integers(0, n + 1))}.py", f"C{draw(st.integers(0, n + 1))}"
            added = make_entry(path, classes=(simple_class(name, [], [method("def go() -> None")]),))
            lines[at:at] = [*print_api_section([added]), ""]
        elif op == "delete" and file_lines:
            k = draw(st.integers(0, len(file_lines) - 1))
            del lines[file_lines[k] : file_lines[k + 1] if k + 1 < len(file_lines) else len(lines)]
    return base, lines


def _edited(entries, edits):
    base = print_api_section(entries)
    lines = list(base)
    for at, line in edits:
        lines[at] = line
    return base, lines


_TWO = _basis_entries([TaskStatus.TODO, TaskStatus.DONE])
_BARE = print_api_section([make_entry("m0.py"), make_entry("m1.py")])  # each entry ends at its Status line
# An entry whose Status line follows its Attributes block.
_LATE_STATUS = [
    "- File: a.py", "  Classes:", "    - Class: A", "      Methods:", "        - def f() -> None | documented",
    "      Attributes:", "        - x: int", "  Status: TODO",
]  # fmt: skip


@given(_derived_api_sections())
@example(_edited(_TWO, [(3, "- File: m2.py")]))  # a Status line replaced by a File line
@example(_edited(_TWO, [(3, "  Status: SHIPPED")]))  # an unknown status value
@example(_edited(_TWO, [(len(print_api_section(_TWO[:1])) + 1, "- File: m0.py")]))  # a duplicated path
@example((_BARE, _BARE[:-1]))  # the last entry's Status line, its last line, deleted
@example((_LATE_STATUS, [*_LATE_STATUS[:-1], "        - status: DONE"]))  # a Status line edited into an attribute
@settings(max_examples=200, deadline=None)
def test_a_projection_through_its_basis_equals_a_fresh_one(case):
    base, lines = case
    parent = new_contract(DEFAULT_TEMPLATE).with_section(SectionKey.API_SPECIFICATIONS, base)
    project(parent)
    child = parent.with_section(SectionKey.API_SPECIFICATIONS, lines)
    fresh = LanguageContract(sections=child.sections, revision=child.revision)
    outcomes = []
    for contract, basis in ((child, parent), (fresh, None)):
        try:
            kernel = project(contract, basis)
        except ProjectionError as exc:
            outcomes.append(str(exc))
        else:
            outcomes.append((kernel, [(e.span, e.status_line) for e in kernel.entries.values()]))
    assert outcomes[0] == outcomes[1]
    assert all(value is not parent for value in vars(child).values())  # the child keeps no history


def test_each_distinct_header_of_a_read_is_parsed_once(monkeypatch):
    plan = synth.chain_plan(1, 20)
    calls = []
    parse = charter.kernel.parse_signature

    def recording_parse(text):
        calls.append(text)
        return parse(text)

    monkeypatch.setattr(charter.kernel, "parse_signature", recording_parse)
    result = run(IntentSpec(plan.intent), RunConfig(mode=RunMode.SEQUENTIAL), synth.SyntheticBackend(plan))
    api = result.contract.body(SectionKey.API_SPECIFICATIONS)
    method_lines = [line for line in api if line.strip().startswith("- def")]
    headers = {line.strip().removeprefix("- ").partition(" | ")[0] for line in method_lines}
    assert (len(method_lines), len(headers)) == (80, 40)
    # The run reads the synthesized section once; later revisions reuse its entries.
    assert sorted(text.strip() for text in calls) == sorted(headers)

    calls.clear()
    assert parse_api_section(api) == parse_api_section(list(api))
    assert len(calls) == 2 * len(headers)


def _basis_and_revisions():
    """A projected contract and two revisions derived from it: one that
    flips a Status and one that documents and adds a method."""
    a = make_entry("a.py", classes=(simple_class("A", [("n", "int")], [method("def run() -> None")]),))
    b = make_entry("b.py", classes=(simple_class("B", [("a", "A")], [method("def go(x: A) -> int")]),))
    c = make_entry("c.py", classes=(simple_class("C", [], [method("def idle() -> None", doc="")]),))
    contract = contract_with([a, b, c], dependency_lines=["b.py --> a.py"])
    basis = project(contract)
    assert [v.kind for v in basis.violations] == [ViolationKind.INCOMPLETE]
    flipped = contract.with_section(
        SectionKey.API_SPECIFICATIONS, print_api_section([replace(a, status=TaskStatus.DONE), b, c])
    )
    grown = replace(c, classes=(simple_class("C", [], [method("def idle() -> None"), method("def wake() -> None")]),))
    amended = contract.with_section(SectionKey.API_SPECIFICATIONS, print_api_section([a, b, grown]))
    return contract, flipped, amended


def _fresh(contract: LanguageContract):
    """The contract's kernel projected without a basis."""
    return project(LanguageContract(sections=contract.sections, revision=contract.revision))


def test_a_status_only_revision_shares_its_basis_kernel():
    parent, flipped, _ = _basis_and_revisions()
    basis = project(parent)
    kernel = project(flipped, parent)
    assert kernel.entries["a.py"].status is TaskStatus.DONE
    assert kernel.classes is basis.classes
    assert kernel.dependencies is basis.dependencies and kernel.derived_edges is basis.derived_edges
    assert kernel.views is basis.views
    assert kernel.violations is basis.violations
    fresh = _fresh(flipped)
    assert kernel == fresh and kernel.violations == fresh.violations
    assert [e.span for e in kernel.entries.values()] == [e.span for e in fresh.entries.values()]
    assert [e.status_line for e in kernel.entries.values()] == [e.status_line for e in fresh.entries.values()]


def test_a_revision_that_changes_a_class_is_projected_again():
    parent, _, amended = _basis_and_revisions()
    basis = project(parent)
    kernel = project(amended, parent)
    assert kernel.classes is not basis.classes
    assert kernel == _fresh(amended) and kernel.violations == () == _fresh(amended).violations


# The words an entry's field lines and block headers are named by.
_FIELD_WORDS = ("file", "status", "owner", "version", "methods", "attributes", "classes")


@given(
    st.lists(st.sampled_from((*_FIELD_WORDS, "hp", "x1", "_seen")), min_size=1, max_size=8, unique=True),
    st.lists(st.sampled_from((*_FIELD_WORDS, "run")), max_size=3, unique=True),
    st.sampled_from(list(TaskStatus)),
    st.sampled_from(["int", "list[str]", "Player | None", "any"]),
)
@example(["status"], [], TaskStatus.TODO, "int")
@example(["methods", "x"], [], TaskStatus.DONE, "int")
@example(["x1", "_seen", "file"], [], TaskStatus.TODO, "str")
def test_an_attribute_named_like_an_entry_field_survives_print_and_parse(attributes, methods, status, type_name):
    cls = ClassSpec(
        "Player",
        tuple(AttributeSpec(name, type_name, f"{name} value" if len(name) % 2 else "") for name in attributes),
        tuple(method(f"def {name}() -> int") for name in methods),
    )
    entries = [ApiSpecEntry("a.py", "dev", 2, status, (cls,)), make_entry("b.py")]
    assert parse_api_section(print_api_section(entries)) == entries


# Members drawn from small pools, so a drawn section repeats most of its
# lines: field lines, block lines and member lines shared by many classes,
# among them attributes named like the fields each entry's lines also hold.
_REPEATED_ATTRIBUTES = st.builds(
    AttributeSpec,
    st.sampled_from(("status", "owner", "version", "file", "methods", "hp")),
    st.sampled_from(("int", "list[str]", "Player | None")),
    st.sampled_from(("", "shared", "a | b")),
)
_REPEATED_METHODS = st.builds(
    lambda header, doc: replace(parse_signature(header), docstring=doc),
    st.sampled_from(("def run() -> None", "def step(delta: int) -> int", "def status(x: int | None) -> str")),
    st.sampled_from(("", "documented", "x | y")),
)
_REPEATED_CLASSES = st.builds(
    ClassSpec,
    st.sampled_from(("Player", "Board")),
    st.lists(_REPEATED_ATTRIBUTES, max_size=4, unique_by=lambda a: a.name).map(tuple),
    st.lists(_REPEATED_METHODS, max_size=3, unique_by=lambda m: m.name).map(tuple),
)


@st.composite
def _repetitive_entries(draw):
    entries = []
    for i in range(draw(st.integers(1, 6))):
        classes = draw(st.lists(_REPEATED_CLASSES, max_size=2, unique_by=lambda c: c.name))
        owner = draw(st.sampled_from(("dev", "backend")))
        version = draw(st.sampled_from((1, 2)))
        entries.append(ApiSpecEntry(f"m{i}.py", owner, version, draw(st.sampled_from(list(TaskStatus))), tuple(classes)))
    return entries


@given(_repetitive_entries())
@settings(max_examples=300, deadline=None)
def test_a_section_of_repeated_lines_survives_print_and_parse(entries):
    printed = print_api_section(entries)
    parsed = parse_api_section(printed)
    assert parsed == entries
    assert print_api_section(parsed) == printed


@pytest.mark.parametrize(
    "field, type_name", [("Status", "str"), ("Version", "int"), ("Owner", "str")], ids=["status", "version", "owner"]
)
def test_an_attribute_named_like_a_field_the_entry_lacks_stays_an_attribute(field, type_name):
    cls = simple_class("A", [(field.lower(), type_name), ("x", "int")], [method("def f() -> None")])
    printed = print_api_section([make_entry("a.py", classes=(cls,))])
    (entry,) = parse_api_section([line for line in printed if not line.strip().startswith(f"{field}:")])
    assert entry.classes == (cls,)


def test_one_line_is_read_as_a_field_in_one_entry_and_an_attribute_in_another():
    lines = [
        "- File: a.py", "- Owner: dev", "- Status: DONE",
        "- File: b.py", "- Status: TODO", "- Classes:", "- Class: B", "- Attributes:", "- Status: DONE", "- Owner: dev",
    ]  # fmt: skip
    a, b = parse_api_section(lines)
    assert (a.owner, a.status, a.classes) == ("dev", TaskStatus.DONE, ())
    assert (b.owner, b.status) == ("dev", TaskStatus.TODO)
    assert b.classes == (ClassSpec("B", (AttributeSpec("Status", "DONE"),)),)


def _section_of_two(attributes=(("hp", "int"),)):
    """The printed lines of two entries whose classes share every member line."""
    return print_api_section(
        [
            make_entry(path, classes=(simple_class(name, list(attributes), [method("def run() -> None")]),))
            for path, name in (("a.py", "A"), ("b.py", "B"))
        ]
    )


def _with_line(lines, at, insert=(), replace_with=None):
    """``lines`` with every line equal to ``at`` replaced by ``replace_with``,
    or with ``insert`` after the last such line."""
    lines = list(lines)
    if replace_with is not None:
        lines = [replace_with if line == at else line for line in lines]
    else:
        index = max(i for i, line in enumerate(lines) if line == at)  # in the last entry
        lines[index + 1 : index + 1] = insert
    return lines


_SHARED_ATTRIBUTE = "        - hp: int | hp value"
# label -> (lines, the 1-based line the read raises at, the message).
ERROR_LOCI = {
    "a bad type on a repeated line, at its first occurrence": (
        _with_line(_section_of_two(), _SHARED_ATTRIBUTE, replace_with="        - hp: list of int"),
        _section_of_two().index(_SHARED_ATTRIBUTE) + 1,
        "attribute type is not a Python expression",
    ),
    "a duplicate attribute whose line an earlier entry holds, at its own line": (
        _with_line(_section_of_two(), _SHARED_ATTRIBUTE, insert=[_SHARED_ATTRIBUTE]),
        max(i for i, line in enumerate(_section_of_two()) if line == _SHARED_ATTRIBUTE) + 2,
        "duplicate attribute hp in class B",
    ),
    "a duplicate Status, at the second Status line of its entry": (
        _with_line(_section_of_two(), "  Status: TODO", insert=["  Status: TODO"]),
        max(i for i, line in enumerate(_section_of_two()) if line == "  Status: TODO") + 2,
        "duplicate status field in entry b.py",
    ),
    "a duplicate method whose line an earlier entry holds, at its own line": (
        _with_line(_section_of_two(), "        - def run() -> None | documented", insert=["        - def run() -> None"]),
        len(_section_of_two()) + 1,
        "duplicate method run in class B",
    ),
    "a duplicate class line, at the second one": (
        _with_line(_section_of_two(), "        - def run() -> None | documented", insert=["    - Class: B"]),
        len(_section_of_two()) + 1,
        "duplicate class B in entry b.py",
    ),
}


@pytest.mark.parametrize("label", sorted(ERROR_LOCI))
def test_a_line_map_read_raises_where_a_line_by_line_read_does(label):
    lines, lineno, message = ERROR_LOCI[label]
    with pytest.raises(ProjectionError, match=f"^line {lineno}: {message}"):
        parse_api_section(lines)


# Where a ``file:`` line stands: label -> (lines, the entry paths read, the
# attributes of the first entry's class).
FILE_LINE_LAYOUTS = {
    "indented under Attributes": (
        ["- File: a.py", "  Classes:", "    - Class: A", "      Attributes:", "        - hp: int", "        - file: str"],
        ["a.py"],
        ["hp", "file"],
    ),
    "at the margin under Attributes at the margin": (
        ["- File: a.py", "Classes:", "- Class: A", "Attributes:", "- hp: int", "- file: b.py"],
        ["a.py", "b.py"],
        ["hp"],
    ),
    "an indented entry after attributes": (
        ["  - File: a.py", "    Classes:", "      - Class: A", "        Attributes:", "          - hp: int", "  - File: b.py"],
        ["a.py", "b.py"],
        ["hp"],
    ),
    "an indented entry after its fields": (
        ["  - File: a.py", "  - Owner: x", "  - File: b.py"],
        ["a.py", "b.py"],
        None,
    ),
}


@pytest.mark.parametrize("label", sorted(FILE_LINE_LAYOUTS))
def test_a_file_line_is_an_attribute_only_indented_under_attributes(label):
    lines, paths, attributes = FILE_LINE_LAYOUTS[label]
    entries = parse_api_section(lines)
    assert [e.file_path for e in entries] == paths
    if attributes is not None:
        assert [a.name for a in entries[0].classes[0].attributes] == attributes


_FIELD_ALPHABET = st.sampled_from(
    ["\n", "F", "f", "I", "i", "L", "l", "E", "e", "ile", " path", "P", "*", "**", "-", " ", "\t", "\xa0", "\x1c", ":", "x", "\u0130"]
)


@given(st.lists(st.lists(_FIELD_ALPHABET, max_size=12).map("".join), max_size=8))
@example(["- File: a.py", "* **File path:** b.py", "  F*i*l*e: c.py", "-File: d.py", "\x1c- file : e"])
@example(["", "-", "- \n", "  - FILE:", "Files: x", "File path x: y", "- Profile: p"])
@settings(max_examples=300, deadline=None)
def test_the_file_line_scan_finds_exactly_the_lines_parse_field_line_reads_as_file(lines):
    expected = [
        (i, parsed[1])
        for i, line in enumerate(lines)
        if (parsed := parse_field_line(line)) is not None and parsed[0] in ("file", "file path")
    ]
    assert charter.kernel._file_fields(lines) == expected


def _revisions_of_runs():
    """A run of each bundled fixture, and of ``chain_plan(seed, 20)`` and
    ``heal_plan(seed, 48, 6)`` for seeds 1 to 4."""
    root = Path(__file__).resolve().parents[1] / "src" / "charter" / "fixtures"
    for name in ("gomoku", "plane_battle"):
        intent = IntentSpec((root / "intents" / f"{name}.txt").read_text())
        yield intent, RunConfig(), ScriptedBackend.from_file(root / "transcripts" / f"{name}.jsonl")
    for seed in range(1, 5):
        chain, heal = synth.chain_plan(seed, 20), synth.heal_plan(seed, 48, 6, synth.Latency())
        for plan, mode in ((chain, RunMode.SEQUENTIAL), (heal, RunMode.PARALLEL)):
            yield IntentSpec(plan.intent), RunConfig(mode=mode), synth.SyntheticBackend(plan)


def test_every_revision_projected_through_its_basis_equals_a_fresh_projection(monkeypatch):
    compared = []
    projected = []  # (contract, basis) as ``_project`` receives them
    merged = []  # (committed revision, the snapshot it was merged from)
    derived = charter.kernel._project
    commit = charter.patches.commit_merge

    def checked(contract, basis):
        projected.append((contract, basis))
        kernel = derived(contract, basis)
        if basis is not None:
            fresh = derived(LanguageContract(sections=contract.sections, revision=contract.revision), None)
            assert kernel == fresh
            assert [(e.span, e.status_line) for e in kernel.entries.values()] == [
                (e.span, e.status_line) for e in fresh.entries.values()
            ]
            assert kernel.violations == fresh.violations
            compared.append(contract)
        return kernel

    def recording_commit(contract, result):
        committed = commit(contract, result)
        if committed is not contract:
            merged.append((committed, contract))
        return committed

    monkeypatch.setattr(charter.kernel, "_project", checked)
    for module in (charter.patches, charter.auditor):
        monkeypatch.setattr(module, "commit_merge", recording_commit)
    for intent, config, backend in _revisions_of_runs():
        result = run(intent, config, backend)
        assert result.converged
    assert len(compared) > 30
    bases = {id(contract): basis for contract, basis in projected}
    later = [(committed, parent) for committed, parent in merged if committed.revision > 1]
    assert len(later) > 30
    assert all(bases[id(committed)] is parent for committed, parent in later)


def _hundred_entries():
    return [
        make_entry(f"pkg/m{i}.py", classes=(simple_class(f"C{i}", [("n", "int")], [method(f"def run{i}() -> None")]),))
        for i in range(100)
    ]


def test_a_derived_revision_reads_only_the_lines_it_changed(monkeypatch):
    edges = [f"pkg/m{i}.py --> pkg/m{i - 1}.py" for i in range(1, 100)]
    parent = contract_with(_hundred_entries(), dependency_lines=edges)
    parent = parent.with_section(SectionKey.DIRECTORY_STRUCTURE, ["pkg/", *(f"  m{i}.py" for i in range(100))])
    old = project(parent)
    api = list(parent.body(SectionKey.API_SPECIFICATIONS))
    flipped = [i for i, line in enumerate(api) if line.strip() == "Status: TODO"][::10]
    for i in flipped:
        api[i] = "  Status: DONE"
    reads = []
    read = charter.kernel.parse_field_line
    monkeypatch.setattr(charter.kernel, "parse_field_line", lambda line: reads.append(line) or read(line))

    status_only = project(parent.with_section(SectionKey.API_SPECIFICATIONS, api), parent)
    assert len(reads) <= 100 + len(flipped) + 2
    assert sum(e.status is TaskStatus.DONE for e in status_only.entries.values()) == len(flipped) == 10
    assert status_only.classes == old.classes and status_only.dependencies == old.dependencies

    reads.clear()
    elsewhere = project(parent.with_section(SectionKey.CONSTRAINTS, ["- No module performs I/O at import."]), parent)
    assert reads == []
    assert elsewhere.entries == old.entries and elsewhere.views == old.views


def test_a_kernel_keeps_its_findings_in_validation_order():
    undocumented = make_entry("b.py", classes=(simple_class("B", [("ref", "Ghost")], [method("def f() -> None", "")]),))
    contract = contract_with([make_entry("a.py"), undocumented], dependency_lines=["a.py --> b.py", "b.py --> a.py"])
    kernel = project(contract)
    assert [v.kind for v in kernel.violations] == [
        ViolationKind.CYCLE, ViolationKind.INCOMPLETE, ViolationKind.INCOMPLETE, ViolationKind.TYPE_UNDEFINED
    ]
    assert kernel.violations == tuple(validate(kernel))
    assert guard_violations(contract) == [v for v in validate(kernel) if v.kind is not ViolationKind.INCOMPLETE]


def test_each_kernel_is_validated_once_per_run(monkeypatch):
    plan = synth.chain_plan(1, 20)
    validated = []
    check = charter.kernel.validate
    monkeypatch.setattr(charter.kernel, "validate", lambda kernel: validated.append(kernel) or check(kernel))
    run(IntentSpec(plan.intent), RunConfig(mode=RunMode.SEQUENTIAL), synth.SyntheticBackend(plan))
    assert validated
    assert len({id(kernel) for kernel in validated}) == len(validated)  # the list keeps every kernel alive


@pytest.mark.parametrize("path", ["../a.py", "/a.py"])
def test_guard_reports_a_file_path_outside_the_root(path):
    violations = guard_violations(contract_with([make_entry(path)]))
    assert [v.subject for v in violations] == ["projection"]
    assert repr(path) in violations[0].message


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
    # Such entries may cycle: a reference that only annotates a signature or
    # an attribute needs no import at run time (a quoted name or
    # ``from __future__ import annotations`` suffices), so only the declared
    # diagram, which orders the layers, must be acyclic.
    assert not any(v.kind is ViolationKind.CYCLE for v in validate(kernel))


def _viewed_entries(contract, task_id):
    api = contract.body(SectionKey.API_SPECIFICATIONS)
    return parse_api_section([api[i] for i in task_view(contract, task_id)[SectionKey.API_SPECIFICATIONS]])


def test_entries_that_reference_each_other_see_each_other():
    entries = [
        make_entry("a.py", classes=(simple_class("A", [("b", "B")], [method("def f() -> None")]),)),
        make_entry("b.py", classes=(simple_class("B", [("a", "A")], [method("def g() -> None")]),)),
        make_entry("c.py", classes=(simple_class("C", [], [method("def h() -> None")]),)),
    ]
    contract = contract_with(entries)
    assert project(contract).dependencies == {"a.py": (), "b.py": (), "c.py": ()}
    assert [e.file_path for e in _viewed_entries(contract, "a.py")] == ["a.py", "b.py"]
    assert [e.file_path for e in _viewed_entries(contract, "b.py")] == ["a.py", "b.py"]
    assert [e.file_path for e in _viewed_entries(contract, "c.py")] == ["c.py"]


def test_a_view_holds_direct_dependencies_only():
    entries = [
        make_entry(f"m{i}.py", classes=(simple_class(f"M{i}", [], [method("def f() -> None")]),))
        for i in range(4)
    ]
    edges = ["m3.py --> m2.py", "m2.py --> m1.py", "m1.py --> m0.py"]
    contract = contract_with(entries, dependency_lines=edges)
    contract = contract.with_section(
        SectionKey.DIRECTORY_STRUCTURE, ["src/", *(f"  ./m{i}.py    node {i}" for i in range(4))]
    )
    view = task_view(contract, "m2.py")
    assert [e.file_path for e in _viewed_entries(contract, "m2.py")] == ["m1.py", "m2.py"]
    directory = contract.body(SectionKey.DIRECTORY_STRUCTURE)
    assert [directory[i] for i in view[SectionKey.DIRECTORY_STRUCTURE]] == [
        "src/", "  ./m1.py    node 1", "  ./m2.py    node 2"
    ]
    diagram = contract.body(SectionKey.DEPENDENCY_RELATIONSHIPS)
    assert [diagram[i] for i in view[SectionKey.DEPENDENCY_RELATIONSHIPS]] == ["m2.py --> m1.py"]
    assert view[SectionKey.CONSTRAINTS] == tuple(range(len(contract.body(SectionKey.CONSTRAINTS))))


def _fixture_contract(name):
    root = Path(__file__).resolve().parents[1] / "src" / "charter" / "fixtures"
    intent = IntentSpec((root / "intents" / f"{name}.txt").read_text())
    return synthesize_contract(intent, ScriptedBackend.from_file(root / "transcripts" / f"{name}.jsonl"))


def _heal_contract():
    plan = synth.heal_plan(1, 48, 6, synth.Latency())
    return synthesize_contract(IntentSpec(plan.intent), synth.SyntheticBackend(plan))


@pytest.mark.parametrize("name", ["gomoku", "plane_battle", "heal_plan"])
def test_every_class_an_entry_references_is_declared_in_its_view(name):
    contract = _heal_contract() if name == "heal_plan" else _fixture_contract(name)
    kernel = project(contract)
    assert len(kernel.entries) > 1
    for task_id, entry in kernel.entries.items():
        referenced = {head for cls in entry.classes for _, head in cls.member_heads}
        declared = {cls.name for e in _viewed_entries(contract, task_id) for cls in e.classes}
        assert referenced & kernel.classes.keys() <= declared, task_id


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
    assert set(kernel.classes) == {"A", "B", "C"}
    for owner, cls in kernel.classes.values():
        assert cls in kernel.entries[owner].classes

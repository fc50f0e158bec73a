"""A conformance oracle for the auditor.

A generated API entry is rendered as Python source under random layouts:
wrapped signatures with comments, decorators, docstrings, dataclass fields,
properties, quoted forward references and ``typing`` spellings. Every
conforming body must come out EMPTY from ``compare_unit`` and
``demand_details``; each labelled mutation must give its labelled
``DeltaKind``.
"""

from __future__ import annotations

import keyword

import pytest
from hypothesis import assume, given, settings, strategies as st

from charter.agents import AgentResponse, RoleKind
from charter.auditor import DeltaKind, DispatchOutcome, classify, compare_unit, demand_details
from charter.kernel import ApiSpecEntry, AttributeSpec, ClassSpec, MethodSig, project
from charter.tasks import Task, TaskStatus
from charter.workspace import FileUnit

from conftest import audit_checking_the_write_back, contract_with

PATH = "game/state.py"
CLASS = "Game"

# Contract type (canonical) -> spellings a conforming body may use for it.
SPELLINGS = {
    "int": ["int", "'int'", '"int"'],
    "str": ["str", "'str'"],
    "bool": ["bool"],
    "list[int]": ["list[int]", "List[int]", "typing.List[int]", "'list[int]'", "list[\n        int,  # cells\n    ]"],
    "dict[str, int]": ["dict[str, int]", "Dict[str, int]", "Dict[str,int]", "dict['str', 'int']"],
    "tuple[int, int]": ["tuple[int, int]", "Tuple[int,int]", "tuple[\n        int,\n        int,\n    ]"],
    "int | None": ["int | None", "Optional[int]", "typing.Optional[int]", "Union[int, None]", "'int | None'"],
    "list[int | None]": ["list[int | None]", "List[Optional[int]]", "list[Union[int, None]]"],
    CLASS: [CLASS, f"'{CLASS}'", f'"{CLASS}"'],
    f"{CLASS} | None": [f"Optional[{CLASS}]", f"Optional['{CLASS}']", f"'{CLASS} | None'", f"Union[{CLASS}, None]"],
    "any": ["Any", "typing.Any", ""],  # "" leaves the name unannotated
}
RETURN_SPELLINGS = {**SPELLINGS, "None": ["None", ""], "any": ["Any", "typing.Any"]}  # "" omits "-> ..."
PEER_TYPES = (CLASS, f"{CLASS} | None")

MUTATIONS = {
    "drop a member": DeltaKind.CRITICAL,
    "retype an attribute": DeltaKind.CRITICAL,
    "add a public method": DeltaKind.PATCHABLE,
    "read an undeclared member of a peer": DeltaKind.PATCHABLE,
}

_names = st.from_regex(r"[a-z][a-z0-9_]{0,6}", fullmatch=True).filter(
    lambda name: not keyword.iskeyword(name) and name not in ("self", "cls")
)
_types = st.sampled_from(sorted(SPELLINGS))


@st.composite
def _entries(draw) -> ApiSpecEntry:
    names = draw(st.lists(_names, max_size=6, unique=True))
    split = draw(st.integers(0, len(names)))
    attributes = tuple(AttributeSpec(name, draw(_types), "documented") for name in names[:split])
    methods = []
    for name in names[split:]:
        params = draw(st.lists(st.tuples(_names, _types), max_size=3, unique_by=lambda p: p[0]))
        ret = draw(st.sampled_from(sorted(RETURN_SPELLINGS)))
        methods.append(MethodSig(name, tuple(params), ret, "documented"))
    return ApiSpecEntry(PATH, "dev", 1, TaskStatus.TODO, (ClassSpec(CLASS, attributes, tuple(methods)),))


def _annotation(draw, spellings: list[str]) -> str:
    spelled = draw(st.sampled_from(spellings))
    return f": {spelled}" if spelled else ""


def _render(cls: ClassSpec, draw, mutation: str = "") -> str:
    """Python source of a body conforming to ``cls``, laid out as ``draw``
    chooses, with ``mutation`` applied."""
    members = [*cls.attributes, *cls.methods]
    dropped = draw(st.sampled_from(members)).name if mutation == "drop a member" else None
    retyped = ""
    if mutation == "retype an attribute":
        retyped = draw(st.sampled_from([a.name for a in cls.attributes if a.type_name != "any"]))

    lines = ["from __future__ import annotations", ""] if draw(st.booleans()) else []
    lines += ["import typing", "from dataclasses import dataclass", "from typing import Any, Dict, List, Optional, Tuple, Union"]
    lines += ["", "", "def traced(fn):", "    return fn", "", ""]
    dataclass_fields = draw(st.booleans())
    if dataclass_fields:
        lines.append("@dataclass")
    lines.append(f"class {cls.name}:")
    lines += draw(st.sampled_from([[], ['    """Game state."""'], ['    """Game state.', "", "    class Fake:", "        pass", '    """']]))

    constructor = []  # an unannotated attribute is always assigned here
    for attr in cls.attributes:
        if attr.name == dropped:
            continue
        annotation = ": bytes" if attr.name == retyped else _annotation(draw, SPELLINGS[attr.type_name])
        if dataclass_fields and annotation:
            lines.append(f"    {attr.name}{annotation} = None")
        else:
            constructor.append(f"        self.{attr.name}{annotation} = None")
    if constructor:
        lines += ["", "    def __init__(self):", *constructor]

    declared = [m.name for m in cls.methods] + [a.name for a in cls.attributes]
    for sig in cls.methods:
        if sig.name == dropped:
            continue
        params = [(name, _annotation(draw, SPELLINGS[t])) for name, t in sig.params]
        ret = _annotation(draw, RETURN_SPELLINGS[sig.return_type]).replace(":", " ->", 1)
        lines.append("")
        if draw(st.booleans()):
            lines.append("    @traced")
        is_property = not params and draw(st.booleans())
        if is_property:
            lines.append("    @property")
        if draw(st.booleans()):
            lines += [f"    def {sig.name}(", "        self,  # the receiver"]
            lines += [f"        {name}{annotation}," for name, annotation in params]
            lines.append(f"    ){ret}:")
        else:
            lines.append(f"    def {sig.name}(self{''.join(f', {n}{a}' for n, a in params)}){ret}:")
        if draw(st.booleans()):
            lines.append(f'        """{sig.docstring}."""')
        peer = next((name for name, t in sig.params if t in PEER_TYPES), None)
        if peer is None:
            lines.append("        return None")
        elif mutation == "read an undeclared member of a peer":
            lines.append(f"        return {peer}.undeclared_member")
        else:
            lines.append(f"        return {peer}.{declared[0]}")
        if is_property and draw(st.booleans()):
            lines += ["", f"    @{sig.name}.setter", f"    def {sig.name}(self, value: int) -> None:", "        pass"]
    if mutation == "add a public method":
        lines += ["", "    def added_method(self) -> int:", "        return 0"]
    if lines[-1].endswith(":"):
        lines.append("    pass")
    return "\n".join(lines) + "\n"


def _details(entry: ApiSpecEntry, draw, mutation: str = ""):
    kernel = project(contract_with([entry]))  # printed and read back, so the contract side is exercised too
    unit = FileUnit(PATH, _render(kernel.entries[PATH].classes[0], draw, mutation))
    return unit.body, compare_unit(kernel.entries[PATH], unit) + demand_details(kernel, unit)


@given(entry=_entries(), data=st.data())
@settings(max_examples=200, deadline=None)
def test_a_conforming_body_in_any_layout_comes_out_empty(entry, data):
    body, details = _details(entry, data.draw)
    assert details == [], body


def _applies(mutation: str, cls: ClassSpec) -> bool:
    if mutation == "drop a member":
        return bool(cls.attributes or cls.methods)
    if mutation == "retype an attribute":
        return any(a.type_name != "any" for a in cls.attributes)
    if mutation == "read an undeclared member of a peer":
        return any(t in PEER_TYPES for sig in cls.methods for _, t in sig.params)
    return True


@given(entry=_entries(), mutation=st.sampled_from(sorted(MUTATIONS)), data=st.data())
@settings(max_examples=200, deadline=None)
def test_a_labelled_mutation_gives_its_delta_kind(entry, mutation, data):
    assume(_applies(mutation, entry.classes[0]))
    body, details = _details(entry, data.draw, mutation)
    assert classify(details) is MUTATIONS[mutation], (body, details)


@given(entry=_entries(), mutation=st.sampled_from(["", *sorted(MUTATIONS)]), data=st.data())
@settings(max_examples=100, deadline=None)
def test_a_placed_write_back_is_the_whole_section_once_printed(entry, mutation, data):
    # A conforming or mutated body moves its task's Status, and a PATCHABLE
    # one amends its entry; a later entry leaves a blank line in its span.
    assume(not mutation or _applies(mutation, entry.classes[0]))
    later = ApiSpecEntry("game/view.py", "dev", 1, TaskStatus.TODO)
    contract = contract_with([entry, later])
    body = _render(project(contract).entries[PATH].classes[0], data.draw, mutation)
    response = AgentResponse(thinking="t", output="built", artifacts=((PATH, body),))
    outcome = DispatchOutcome(PATH, RoleKind.WORKER, {}, response)
    tasks = {path: Task(id=path, owner="dev") for path in (PATH, later.file_path)}
    report = audit_checking_the_write_back(contract, {}, tasks, [outcome])
    assert report.write_back


# A name a def binds anywhere in its own scope is untyped throughout the def,
# so a read through a rebound typed parameter demands nothing; a binding inside
# a nested def, lambda or class leaves the parameter typed.
REBINDINGS = {
    "a loop rebinds it": ("for p in others:\n        p.name", DeltaKind.EMPTY),
    "an assignment rebinds it": ("p = others[0]\n    p.name", DeltaKind.EMPTY),
    "a with target rebinds it": ("with open(x) as p:\n        p.read()", DeltaKind.EMPTY),
    "an except target rebinds it": ("try:\n        pass\n    except Exception as p:\n        p.args", DeltaKind.EMPTY),
    "a walrus rebinds it": ("if (p := xs[0]):\n        p.name", DeltaKind.EMPTY),
    "a walrus in a comprehension rebinds it": ("[(p := x) for x in xs]\n    p.name", DeltaKind.EMPTY),
    "a walrus in a nested def's default rebinds it": ("def g(y=(p := None)):\n        pass\n    p.name", DeltaKind.EMPTY),
    "a nested def binds its own": ("def g():\n        p = 1\n    p.name", DeltaKind.PATCHABLE),
    "a nested class binds its own": ("class K:\n        p = 1\n    p.name", DeltaKind.PATCHABLE),
}


@pytest.mark.parametrize("label", sorted(REBINDINGS))
def test_a_labelled_rebinding_gives_its_delta_kind(label):
    statements, kind = REBINDINGS[label]
    game = ClassSpec(CLASS, (AttributeSpec("turn", "int", "documented"),))
    peer = ApiSpecEntry(PATH, "dev", 1, TaskStatus.TODO, (game,))
    reader = ApiSpecEntry("game/view.py", "dev", 1, TaskStatus.TODO, ())
    kernel = project(contract_with([peer, reader]))
    body = f"def show(p: {CLASS}, others: list, x: str, xs: list) -> None:\n    {statements}\n"
    unit = FileUnit("game/view.py", body)
    assert classify(compare_unit(kernel.entries["game/view.py"], unit) + demand_details(kernel, unit)) is kind, body

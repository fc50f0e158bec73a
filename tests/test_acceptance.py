"""Acceptance gate: one test per criterion, each at its stated tolerance.

The conftest hook prints one `ACCEPTANCE <name>: PASS/FAIL` line per test.
"""

from __future__ import annotations

import itertools
import json
import random
import time

import pytest

from charter.agents import IntentSpec
from charter.backends import ScriptedBackend
from charter.contract import (
    ActionOp,
    ContractAction,
    LanguageContract,
    Rejection,
    SectionKey,
    apply_action,
    new_contract,
    render,
    DEFAULT_TEMPLATE,
)
from charter.evaluation import architecture_score, linkage_score, overall_score, token_report
from charter.kernel import find_cycle, guard_violations, print_api_section, project
from charter.ledger import file_sha256
from charter.patches import AtomicPatch, apply_patches, diff_against_base, merge_layer
from charter.scheduler import RunConfig, RunMode, dispatch_for, run
from charter.tasks import LEGAL_TRANSITIONS, Task, TaskStatus
from charter.workspace import FileUnit, Workspace, module_candidates, resolve_imports, WHOLE_MODULE
from charter.auditor import consistency_check, existence_check, match, DeltaKind, DetailKind
from charter.agents import RoleKind

from conftest import GOLDEN, contract_with, fixture_path, make_entry, method, simple_class


def _run_fixture(name: str, t_max: int, mode: RunMode = RunMode.PARALLEL):
    intent = IntentSpec(fixture_path("intents", f"{name}.txt").read_text())
    backend = ScriptedBackend.from_file(fixture_path("transcripts", f"{name}.jsonl"))
    return run(intent, RunConfig(t_max=t_max, mode=mode), backend)


def test_c1_scripted_end_to_end_convergence():
    started = time.perf_counter()
    first = _run_fixture("gomoku", t_max=5)
    second = _run_fixture("gomoku", t_max=5)
    elapsed = time.perf_counter() - started

    assert first.converged is True
    assert first.layers_used <= 3
    assert all(t.status is TaskStatus.VERIFIED for t in first.tasks.values())

    golden = json.loads((GOLDEN / "gomoku.json").read_text())
    hashes = {u.path: file_sha256(u.body) for u in first.workspace.units()}
    assert hashes == golden["files"]
    assert first.layers_used == golden["layers"]

    # bit-reproducibility across repeated runs
    assert first.ledger.serialize() == second.ledger.serialize()
    assert first.workspace.view() == second.workspace.view()
    assert render(first.contract) == render(second.contract)
    assert first.ledger.sha256() == golden["ledger_sha256"]

    assert elapsed < 5.0, f"two runs took {elapsed:.2f}s"


def test_c2_self_healing_regression_sequence():
    result = _run_fixture("plane_battle", t_max=6)
    assert result.converged is True

    layers = [r for r in result.ledger.records if r["kind"] == "layer"]
    assert len(layers) == 3

    first = layers[0]
    # 1) the divergence is classified PATCHABLE on the demanding module
    deltas = {d["task"]: d["kind"] for d in first["deltas"]}
    assert deltas["systems/collision.py"] == "PATCHABLE"
    assert deltas["entities/player.py"] == "EMPTY"

    # 2) the schema is formally amended with the missing spatial dimensions
    interventions = first["interventions"]
    assert interventions[0]["kind"] == "ContractAmendment"
    assert interventions[0]["section"] == "SymbolicApiSpecifications"
    assert sorted(interventions[0]["added_symbols"]) == ["Player.height", "Player.width"]

    # 3) the schema owner is regressed DONE -> ERROR with the repair directive
    assert interventions[1]["kind"] == "SyncTask"
    assert interventions[1]["task"] == "entities/player.py"
    directive = interventions[1]["directive"]
    assert directive.startswith("Fix the schema definition; Player requires")
    assert "width" in directive and "height" in directive
    assert ["entities/player.py", "DONE", "ERROR"] in first["transitions"]
    assert any(
        note.startswith("Fix the schema definition; Player requires")
        for note in result.tasks["entities/player.py"].feedback
    )

    # 4) repair in the next layer, then convergence
    assert ["entities/player.py", "ERROR", "DONE"] in layers[1]["transitions"]
    assert ["systems/collision.py", "DONE", "VERIFIED"] in layers[1]["transitions"]
    assert ["entities/player.py", "DONE", "VERIFIED"] in layers[2]["transitions"]

    # the amendment landed in the committed document
    api_body = "\n".join(result.contract.body(SectionKey.API_SPECIFICATIONS))
    assert "- width: any | required by systems/collision.py" in api_body
    assert "- height: any | required by systems/collision.py" in api_body

    # and it appears in the journal as an accepted UPDATE of the API section
    api_updates = [
        j
        for j in result.ledger.journal
        if j.get("kind", "action") == "action"
        and j["section"] == "SymbolicApiSpecifications"
        and j["op"] == "update"
    ]
    assert api_updates


def test_c2_plane_battle_matches_its_golden():
    # The amendment, sync-repair and regression steps of the audit run only
    # here, so this golden holds them as c1's holds the plain path.
    first = _run_fixture("plane_battle", t_max=6)
    second = _run_fixture("plane_battle", t_max=6)

    golden = json.loads((GOLDEN / "plane_battle.json").read_text())
    assert {u.path: file_sha256(u.body) for u in first.workspace.units()} == golden["files"]
    assert first.layers_used == golden["layers"]
    assert first.ledger.serialize() == second.ledger.serialize()
    assert first.ledger.sha256() == golden["ledger_sha256"]


def test_c3_scheduler_law_pointwise_and_legal_traces():
    contract = contract_with(
        [make_entry("m.py", classes=(simple_class("M", [], [method("def f() -> None")]),))]
    )
    rng = random.Random(5)
    statuses = list(TaskStatus)
    for i in range(1000):
        status = rng.choice(statuses)
        task = Task(id=f"t{i}.py", owner="d", status=status)
        dispatch = dispatch_for(task, "body" if status is TaskStatus.DONE else None)
        if status in (TaskStatus.TODO, TaskStatus.ERROR):
            assert dispatch is not None and dispatch.role is RoleKind.WORKER
        elif status is TaskStatus.DONE:
            assert dispatch is not None and dispatch.role is RoleKind.CRITIC
        else:
            assert dispatch is None

    legal = {(a.value, b.value) for a, b in LEGAL_TRANSITIONS}
    for name, t_max in (("gomoku", 5), ("plane_battle", 6)):
        result = _run_fixture(name, t_max=t_max)
        for record in result.ledger.records:
            if record["kind"] != "layer":
                continue
            for _task, old, new in record["transitions"]:
                assert (old, new) in legal, f"illegal transition {old}->{new} in {name}"


PLAYER_CONTRACT_CLASS = simple_class(
    "Player",
    [("x", "int"), ("y", "int"), ("health", "int")],
    [method("def move(dx: int, dy: int) -> None")],
)

PLAYER_SUPERSET_BODY = """\
class Player:
    def __init__(self):
        self.x: int = 0
        self.y: int = 0
        self.health: int = 100
        self.width: int = 32
        self.height: int = 24

    def move(self, dx: int, dy: int) -> None:
        self.x += dx
        self.y += dy
"""


def test_c4_audit_metric_arithmetic():
    # E(C) on a 3-task / 2-match fixture is exactly 2/3
    contract = contract_with(
        [
            make_entry("a.py", classes=(simple_class("A", [("v", "int")], [method("def f() -> None")]),)),
            make_entry("b.py", classes=(simple_class("B", [("v", "int")], [method("def g() -> None")]),)),
            make_entry("c.py", classes=(simple_class("C", [("v", "int")], [method("def h() -> None")]),)),
        ]
    )
    files = {
        "a.py": FileUnit("a.py", "class A:\n    def __init__(self):\n        self.v = 1\n"),
        "b.py": FileUnit("b.py", "class B:\n    def __init__(self):\n        self.v = 2\n"),
    }
    fraction, unmatched = existence_check(project(contract).entries, files)
    assert fraction == 2 / 3  # exact
    assert unmatched == ("c.py",)

    # V(C) false with exactly the PATCHABLE(width, height) details
    contract = contract_with([make_entry("entities/player.py", classes=(PLAYER_CONTRACT_CLASS,))])
    ok, deltas = consistency_check(
        contract, {"entities/player.py": FileUnit("entities/player.py", PLAYER_SUPERSET_BODY)}
    )
    assert ok is False
    assert len(deltas) == 1 and deltas[0].kind is DeltaKind.PATCHABLE
    assert sorted(d.symbol for d in deltas[0].details) == ["Player.height", "Player.width"]
    assert all(d.kind is DetailKind.EXTRA for d in deltas[0].details)

    # the hollow skeleton fails the physical match
    entry = make_entry("entities/player.py", classes=(PLAYER_CONTRACT_CLASS,))
    hollow = FileUnit(path="entities/player.py", body="class Player: pass\n")
    assert match(hollow, entry) is False


def test_c5_merge_properties():
    started = time.perf_counter()
    rng = random.Random(20240801)
    section = SectionKey.CONSTRAINTS
    base_contract = new_contract(DEFAULT_TEMPLATE)

    # (a) union preservation over 10,000 randomized overlapping pairs
    losses = 0
    for i in range(10_000):
        base_len = rng.randrange(2, 10)
        base_lines = tuple(f"base{j}" for j in range(base_len))
        contract = base_contract.with_section(section, base_lines)
        start1 = rng.randrange(0, base_len)
        end1 = rng.randrange(start1, base_len + 1)
        # force an intersection for the second interval
        start2 = rng.randrange(0, max(1, end1)) if end1 > start1 else start1
        end2 = rng.randrange(min(start2 + 1, base_len), base_len + 1) if start2 < base_len else start2
        p1 = AtomicPatch(section, start1, end1, tuple(f"a{i}_{k}" for k in range(rng.randrange(1, 4))), "a")
        p2 = AtomicPatch(section, start2, max(end2, start2), tuple(f"b{i}_{k}" for k in range(rng.randrange(1, 4))), "b")
        merged = merge_layer(contract, [p1, p2])
        merged_lines = set(merged.sections[section])
        for patch in (p1, p2):
            for line in patch.replacement:
                if line not in merged_lines:
                    losses += 1
    assert losses == 0

    # (b) order independence: permuted patch lists merge byte-identically
    base_lines = tuple(f"l{j}" for j in range(8))
    contract = base_contract.with_section(section, base_lines)
    for _ in range(200):
        patches = []
        for author in ("a", "b", "c"):
            s = rng.randrange(0, 8)
            e = rng.randrange(s, 9)
            patches.append(
                AtomicPatch(section, s, e, tuple(f"{author}{k}" for k in range(rng.randrange(0, 3))), author)
            )
        baseline = merge_layer(contract, patches)
        for perm in itertools.permutations(patches):
            result = merge_layer(contract, list(perm))
            assert result.sections == baseline.sections

    # (c) diff/apply round-trip on randomized documents
    vocab = [f"w{j}" for j in range(9)]
    for _ in range(2_000):
        base = [rng.choice(vocab) for _ in range(rng.randrange(0, 16))]
        proposed = [rng.choice(vocab) for _ in range(rng.randrange(0, 16))]
        assert apply_patches(base, diff_against_base(base, proposed)) == proposed

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"merge property suite took {elapsed:.2f}s"


def _closure_has_cycle(n: int, edge_mask: int, pairs: list[tuple[int, int]]) -> bool:
    reach = [[False] * n for _ in range(n)]
    for k, (i, j) in enumerate(pairs):
        if edge_mask >> k & 1:
            reach[i][j] = True
    for k in range(n):
        row_k = reach[k]
        for i in range(n):
            if reach[i][k]:
                row_i = reach[i]
                for j in range(n):
                    if row_k[j]:
                        row_i[j] = True
    return any(reach[i][i] for i in range(n))


def test_c6_cycle_detection_equivalence():
    disagreements = 0

    # exhaustive over all digraphs on up to 3 nodes
    for n in (1, 2, 3):
        nodes = [str(i) for i in range(n)]
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        for mask in range(1 << len(pairs)):
            adjacency: dict[str, tuple[str, ...]] = {str(i): () for i in range(n)}
            buckets: dict[int, list[str]] = {}
            for k, (i, j) in enumerate(pairs):
                if mask >> k & 1:
                    buckets.setdefault(i, []).append(str(j))
            for i, dsts in buckets.items():
                adjacency[str(i)] = tuple(sorted(dsts))
            found = find_cycle(nodes, adjacency) is not None
            if found != _closure_has_cycle(n, mask, pairs):
                disagreements += 1

    # 100,000 digraphs sampled from the <= 6 node space (2^30 edge subsets
    # at n=6, pruned by sampling)
    rng = random.Random(61_803)
    by_size = {
        n: ([str(i) for i in range(n)], [(i, j) for i in range(n) for j in range(n) if i != j])
        for n in (4, 5, 6)
    }
    for _ in range(100_000):
        n = rng.choice((4, 5, 6))
        nodes, pairs = by_size[n]
        mask = rng.getrandbits(len(pairs))
        buckets = {}
        for k, (i, j) in enumerate(pairs):
            if mask >> k & 1:
                buckets.setdefault(i, []).append(str(j))
        adjacency = {str(i): tuple(sorted(buckets.get(i, ()))) for i in range(n)}
        found = find_cycle(nodes, adjacency) is not None
        if found != _closure_has_cycle(n, mask, pairs):
            disagreements += 1

    assert disagreements == 0


def test_c7_eval_formulas():
    gen = {f"g{i}.py" for i in range(4)} | {"shared.py"}
    ref = {f"g{i}.py" for i in range(4)} | {"other.py"}
    assert architecture_score(gen, ref) == 0.8  # exact

    ws = Workspace()
    ws.commit(FileUnit("core/game.py", "class Game:\n    pass\n"))
    ws.commit(FileUnit("core/rules.py", "class Rules:\n    pass\n"))
    ws.commit(
        FileUnit(
            "main.py",
            "from core.game import Game\nfrom core.rules import Rules\nimport core.game\n"
            "from core.engine import Engine\n",
        )
    )
    assert linkage_score(ws) == 0.75  # exact

    # brute-force definition-scan oracle agreement on a 25-file fixture
    big = Workspace()
    for i in range(12):
        big.commit(FileUnit(f"pkg{i % 4}/mod{i}.py", f"class C{i}:\n    pass\nVALUE{i} = {i}\n"))
    for i in range(13):
        good = (i * 3) % 12
        bad = (i * 5 + 1) % 12
        big.commit(
            FileUnit(
                f"app/entry{i}.py",
                f"from pkg{good % 4}.mod{good} import C{good}\n"
                f"from pkg{bad % 4}.mod{bad} import Absent{bad}\n",
            )
        )
    assert len(big.paths()) == 25
    checks = resolve_imports(big)

    def oracle(module: str, symbol: str, importer: str) -> bool:
        import re

        target = next((c for c in module_candidates(module, importer) if c in set(big.paths())), None)
        if target is None:
            return False
        if symbol == WHOLE_MODULE:
            return True
        body = big.get(target).body
        return bool(
            re.search(rf"^\s*(class|def)\s+{re.escape(symbol)}\b", body, re.M)
            or re.search(rf"^{re.escape(symbol)}\s*(:[^=]+)?=", body, re.M)
        )

    brute_valid = sum(1 for c in checks if oracle(c.module, c.symbol, c.importer))
    assert sum(1 for c in checks if c.valid) == brute_valid
    for c in checks:
        assert c.valid == oracle(c.module, c.symbol, c.importer)

    assert overall_score(0.9, 0.2, 0.3) == pytest.approx(46.67, abs=0.01)


def test_c8_token_compression_ratio():
    # Build a contract whose render is exactly 7600 bytes -> 1900 tokens,
    # and a repository of exactly 8857 tokens, under the default estimator.
    probe = apply_action(
        new_contract(DEFAULT_TEMPLATE),
        ContractAction(ActionOp.UPDATE, SectionKey.GLOBAL_SHARED_KNOWLEDGE, "x"),
    )
    probe_bytes = len(render(probe).encode("utf-8"))
    filler = "x" * (1 + 7600 - probe_bytes)
    contract = apply_action(
        new_contract(DEFAULT_TEMPLATE),
        ContractAction(ActionOp.UPDATE, SectionKey.GLOBAL_SHARED_KNOWLEDGE, filler),
    )
    assert len(render(contract).encode("utf-8")) == 7600

    ws = Workspace()
    ws.commit(FileUnit("big/module.py", "y" * (8857 * 4)))

    contract_tokens, repo_tokens, ratio = token_report(contract, ws)
    assert contract_tokens == 1900
    assert repo_tokens == 8857
    assert ratio == pytest.approx(4.66, abs=0.01)


def test_c9_ablation_sequential_matches_parallel():
    parallel = _run_fixture("gomoku", t_max=5, mode=RunMode.PARALLEL)
    sequential = _run_fixture("gomoku", t_max=5, mode=RunMode.SEQUENTIAL)

    # identical final repository, byte for byte
    assert parallel.workspace.view() == sequential.workspace.view()
    hashes_p = {u.path: file_sha256(u.body) for u in parallel.workspace.units()}
    hashes_s = {u.path: file_sha256(u.body) for u in sequential.workspace.units()}
    assert hashes_p == hashes_s
    assert render(parallel.contract) == render(sequential.contract)

    # transcript-equality oracle: both modes consumed the same exchanges
    def consumed(result):
        return [
            (r["layer"], tuple((d["task"], d["role"]) for d in r["dispatches"]))
            for r in result.ledger.records
            if r["kind"] == "layer"
        ]

    assert consumed(parallel) == consumed(sequential)

    # the structural distinction: layer width N vs width 1
    widths = lambda result: [
        (r["dispatch_count"], r["execution_width"])
        for r in result.ledger.records
        if r["kind"] == "layer"
    ]
    assert widths(parallel) == [(3, 3), (3, 3)]
    assert widths(sequential) == [(3, 1), (3, 1)]


def _random_contract(rng: random.Random) -> LanguageContract:
    n = rng.randrange(1, 4)
    entries = []
    for i in range(n):
        entries.append(
            make_entry(
                f"m{i}.py",
                classes=(
                    simple_class(
                        f"K{i}",
                        [("v", "int")],
                        [method(f"def f{i}(x: int) -> int")],
                    ),
                ),
            )
        )
    deps = [f"m{i}.py --> m{i + 1}.py" for i in range(n - 1)]
    return contract_with(entries, dependency_lines=deps or None)


def _random_action(rng: random.Random, contract: LanguageContract) -> ContractAction:
    kind = rng.randrange(6)
    op = ActionOp.ADD if rng.random() < 0.4 else ActionOp.UPDATE
    sections = list(SectionKey)
    if kind == 0:  # harmless prose update
        return ContractAction(op, rng.choice(sections[:5]), f"- note {rng.randrange(1000)}")
    if kind == 1:  # cyclic dependency edit (rejected when >= 2 modules)
        return ContractAction(
            ActionOp.UPDATE,
            SectionKey.DEPENDENCY_RELATIONSHIPS,
            "m0.py --> m1.py\nm1.py --> m0.py",
        )
    if kind == 2:  # unknown edge endpoint
        return ContractAction(ActionOp.ADD, SectionKey.DEPENDENCY_RELATIONSHIPS, "ghost.py --> m0.py")
    if kind == 3:  # unparseable API body
        return ContractAction(ActionOp.UPDATE, SectionKey.API_SPECIFICATIONS, "not a spec line at all")
    if kind == 4:  # partial API patch (clobber guard)
        return ContractAction(op, SectionKey.API_SPECIFICATIONS, "* **Status:** DONE")
    # valid API rewrite
    entries = [
        make_entry(
            f"m{rng.randrange(3)}.py",
            classes=(simple_class("Fresh", [("q", "int")], [method("def go() -> None")]),),
        )
    ]
    return ContractAction(ActionOp.UPDATE, SectionKey.API_SPECIFICATIONS, "\n".join(print_api_section(entries)))


def test_c10_transactionality_fuzz():
    rng = random.Random(424242)
    accepted = rejected = 0
    for i in range(10_000):
        contract = _random_contract(rng)
        action = _random_action(rng, contract)
        before = render(contract)
        before_revision = contract.revision
        outcome = apply_action(contract, action, guard=guard_violations)
        if isinstance(outcome, Rejection):
            rejected += 1
            assert render(contract) == before
            assert contract.revision == before_revision
        else:
            accepted += 1
            assert outcome.revision == before_revision + 1
            assert render(contract) == before  # the input value is never mutated
    assert accepted > 1000 and rejected > 1000, (accepted, rejected)

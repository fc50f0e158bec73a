from __future__ import annotations

import pytest

from charter.contract import ActionOp, ContractAction, SectionKey, apply_action, new_contract, render, DEFAULT_TEMPLATE
from charter.evaluation import (
    ScoreRangeError,
    architecture_score,
    evaluate,
    keepalive_check,
    linkage_score,
    load_manifest,
    load_scores,
    overall_score,
    token_report,
)
from charter.workspace import FileUnit, Workspace


def test_architecture_score_formula():
    gen = {f"g{i}" for i in range(5)}
    ref = set(list(gen)[:4]) | {"extra"}
    assert architecture_score(gen, ref) == pytest.approx(0.8)


def test_architecture_score_identity_and_disjoint():
    paths = {"a.py", "b.py"}
    assert architecture_score(paths, set(paths)) == 1.0
    assert architecture_score({"a.py"}, {"b.py"}) == 0.0
    assert architecture_score(set(), set()) == 1.0


def test_architecture_score_symmetric_and_bounded():
    import random

    rng = random.Random(3)
    universe = [f"f{i}.py" for i in range(10)]
    for _ in range(200):
        gen = {p for p in universe if rng.random() < 0.5}
        ref = {p for p in universe if rng.random() < 0.5}
        score = architecture_score(gen, ref)
        assert 0.0 <= score <= 1.0
        assert score == architecture_score(ref, gen)
        assert (score == 1.0) == (gen == ref)


def _workspace_with_dangling() -> Workspace:
    ws = Workspace()
    ws.commit(FileUnit("core/game.py", "class Game:\n    pass\n\nSTATE = 1\n"))
    ws.commit(
        FileUnit(
            "main.py",
            "from core.game import Game\nfrom core.game import STATE\nfrom core.game import Ghost\n"
            "from core.missing import Thing\n",
        )
    )
    return ws


def test_linkage_score_three_quarters():
    # 4 internal imports, 1 dangling file + 1 missing symbol -> 2 invalid of 4
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
    assert linkage_score(ws) == pytest.approx(0.75)


def test_linkage_score_all_valid_and_empty():
    ws = Workspace()
    ws.commit(FileUnit("a.py", "import os\n"))
    assert linkage_score(ws) == 1.0  # no internal imports


def test_linkage_score_flat_layout_is_zero():
    ws = Workspace()
    ws.commit(FileUnit("game.py", "class Game:\n    pass\n"))
    ws.commit(FileUnit("gui.py", "class Gui:\n    pass\n"))
    ws.commit(FileUnit("main.py", "from core.game import Game\nfrom core.gui import Gui\n"))
    assert linkage_score(ws) == 0.0


def test_overall_score_values():
    assert overall_score(1.0, 1.0, 1.0) == pytest.approx(100.0)
    assert overall_score(1.0, 0.2, 0.3) == pytest.approx(50.0)
    assert overall_score(0.0, 0.0, 0.0) == 0.0
    assert overall_score(0.9, 0.2, 0.3) == pytest.approx(46.666666, abs=1e-4)


def test_overall_score_mean_law():
    for x in (0.0, 0.25, 0.5, 0.99, 1.0):
        assert overall_score(x, x, x) == pytest.approx(100 * x)


def test_overall_score_range_check():
    with pytest.raises(ScoreRangeError):
        overall_score(1.2, 0.0, 0.0)
    with pytest.raises(ScoreRangeError):
        overall_score(0.5, -0.1, 0.0)


def _contract_with_text(text: str):
    return apply_action(
        new_contract(DEFAULT_TEMPLATE),
        ContractAction(ActionOp.UPDATE, SectionKey.GLOBAL_SHARED_KNOWLEDGE, text),
    )


def test_token_report_ratio_one_when_equal():
    contract = _contract_with_text("shared")
    ws = Workspace()
    ws.commit(FileUnit("copy.md", render(contract)))
    c, r, ratio = token_report(contract, ws)
    assert c == r
    assert ratio == pytest.approx(1.0)


def test_token_report_ratio_doubles_with_repo():
    contract = _contract_with_text("shared")
    ws = Workspace()
    ws.commit(FileUnit("a.py", "x" * 4000))
    c1, r1, ratio1 = token_report(contract, ws)
    ws.commit(FileUnit("b.py", "x" * 4000))
    c2, r2, ratio2 = token_report(contract, ws)
    assert c1 == c2
    assert r2 == 2 * r1
    assert ratio2 == pytest.approx(2 * ratio1)


def test_token_report_invariant_under_commit_order():
    contract = _contract_with_text("shared")
    ws1, ws2 = Workspace(), Workspace()
    ws1.commit(FileUnit("a.py", "alpha " * 50))
    ws1.commit(FileUnit("b.py", "beta " * 99))
    ws2.commit(FileUnit("b.py", "beta " * 99))
    ws2.commit(FileUnit("a.py", "alpha " * 50))
    assert token_report(contract, ws1) == token_report(contract, ws2)


def test_load_scores_and_manifest(tmp_path):
    scores = tmp_path / "scores.json"
    scores.write_text('{"exec": 0.9, "inter": 0.2, "rule": 0.3}')
    assert load_scores(scores) == (0.9, 0.2, 0.3)
    manifest = tmp_path / "ref.txt"
    manifest.write_text("a.py\n# comment\n\nb/c.py\n")
    assert load_manifest(manifest) == {"a.py", "b/c.py"}


def test_keepalive_check_quick(tmp_path):
    (tmp_path / "dies.py").write_text("raise SystemExit(1)\n")
    (tmp_path / "lives.py").write_text("import time\ntime.sleep(30)\n")
    assert keepalive_check(tmp_path, entry="dies.py", seconds=0.5) is False
    assert keepalive_check(tmp_path, entry="lives.py", seconds=0.5) is True
    for seconds in (0, -1, float("nan")):  # a window that is not positive would pass "dies.py"
        with pytest.raises(ValueError, match="keep-alive window must be positive"):
            keepalive_check(tmp_path, entry="dies.py", seconds=seconds)


def test_evaluate_combined_report():
    ws = _workspace_with_dangling()
    contract = _contract_with_text("shared")
    report = evaluate(
        ws,
        ref_paths={"core/game.py", "main.py"},
        scores=(0.9, 0.2, 0.3),
        contract=contract,
    )
    assert report.s_arch == pytest.approx(1.0)
    assert report.s_link == pytest.approx(0.5)
    assert report.s_overall == pytest.approx(46.6666, abs=1e-3)
    assert report.compression_ratio is not None
    parsed = report.to_json()
    assert '"s_arch"' in parsed

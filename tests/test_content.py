"""Every bundled and benchmark workload run produces the content pinned in
``tests/golden/content.json``: ledger, journal, prompt texts, contract,
workspace and layer count, as ``scripts/content_hashes.py`` hashes them.

A change meant to move no content passes this unchanged. A change that moves
content on purpose regenerates the golden with
``python3 scripts/content_hashes.py --json tests/golden/content.json`` and
says which hashes moved and why.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from charter import scheduler

from conftest import audit_checking_the_write_back

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "content_hashes.py"
GOLDEN = json.loads((ROOT / "tests" / "golden" / "content.json").read_text(encoding="utf-8"))


def _script():
    spec = importlib.util.spec_from_file_location("content_hashes", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SCRIPT_MODULE = _script()
CASES = SCRIPT_MODULE.cases()


def test_the_golden_names_every_case():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_a_workload_run_produces_its_golden_content(name):
    assert SCRIPT_MODULE.content_hashes(CASES[name]) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_each_placed_write_back_is_the_whole_section_once_printed(name, monkeypatch):
    audits = []

    def audit(*args):
        audits.append(audit_checking_the_write_back(*args))
        return audits[-1]

    monkeypatch.setattr(scheduler, "audit_layer", audit)
    case = CASES[name]
    scheduler.run(case.intent, case.config, case.make_backend())
    assert len(audits) == GOLDEN[name]["layers"]
    assert any(report.write_back for report in audits)

#!/usr/bin/env python3
"""Print what every bundled and benchmark workload run produces, as hashes.

    python3 scripts/content_hashes.py
    python3 scripts/content_hashes.py --json tests/golden/content.json

The cases are the bundled gomoku and plane_battle transcripts, and
``perfbench.workloads.chain_large(seed)`` and
``perfbench.workloads.heal_wide(seed)`` at zero model latency, each for seeds
1, 2 and 7. Each case runs once in this process. For each it prints the
sha256 of the ledger, of the journal and of the sorted prompt texts, the
final contract's fingerprint, the sha256 of the workspace (each path with
the sha256 of its body) and the number of layers. ``--json PATH`` writes the
same mapping to PATH.

A change that should move no content leaves every line of the output as it
was; ``tests/test_content.py`` compares it with ``tests/golden/content.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import synth  # noqa: E402
import workloads  # noqa: E402
from charter import scheduler  # noqa: E402

SEEDS = (1, 2, 7)


class PromptLog:
    """Keeps the prompt text of each ``complete`` call, in any order."""

    def __init__(self, inner):
        self.inner = inner
        self.texts: list[str] = []

    def complete(self, request) -> str:
        self.texts.append(request.bundle.text)  # list.append is atomic across dispatch threads
        return self.inner.complete(request)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cases() -> dict[str, workloads.Case]:
    gomoku, plane_battle = workloads.fixtures_replay(1)
    named = {"gomoku": gomoku, "plane_battle": plane_battle}
    for seed in SEEDS:
        (named[f"chain_large/{seed}"],) = workloads.chain_large(seed)
    for seed in SEEDS:
        (named[f"heal_wide/{seed}"],) = workloads.heal_wide(seed, latency=synth.Latency())
    return named


def content_hashes(case: workloads.Case) -> dict:
    backend = PromptLog(case.make_backend())
    result = scheduler.run(case.intent, case.config, backend)
    files = {unit.path: _sha256(unit.body) for unit in result.workspace.units()}
    return {
        "ledger_sha256": result.ledger.sha256(),
        "journal_sha256": _sha256(result.ledger.serialize_journal()),
        "prompts_sha256": _sha256(json.dumps(sorted(backend.texts))),
        "contract_sha256": result.contract.fingerprint(),
        "workspace_sha256": _sha256(json.dumps(files, sort_keys=True)),
        "layers": result.layers_used,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--json", type=Path, help="write the hashes of every case here")
    args = parser.parse_args(argv)
    hashes = {name: content_hashes(case) for name, case in cases().items()}
    for name, row in hashes.items():
        print(name, " ".join(f"{key}={value}" for key, value in row.items()), flush=True)
    if args.json is not None:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps(hashes, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

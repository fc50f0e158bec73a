"""Static repository metrics, score composition, and token-decoupling report.

Structural fidelity is the F1 of the generated file set against a reference
manifest; linkage is the fraction of internal imports that resolve. Dynamic
sub-scores (executability, interactivity, rule adherence) are judged by
humans and only ingested here; an optional keep-alive check can stand in for
the executability judgment on platforms where launching the entry point is
feasible.
"""

from __future__ import annotations

import json
import logging
import subprocess
import sys
from dataclasses import dataclass, asdict

from .agents import estimate_tokens
from .contract import LanguageContract, render
from .workspace import Workspace, resolve_imports

logger = logging.getLogger(__name__)


class ScoreRangeError(ValueError):
    pass


@dataclass
class EvalReport:
    s_arch: float | None = None
    s_link: float | None = None
    s_exec: float | None = None
    s_inter: float | None = None
    s_rule: float | None = None
    s_overall: float | None = None
    contract_tokens: int | None = None
    repo_tokens: int | None = None
    compression_ratio: float | None = None

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)


def architecture_score(gen_paths: set[str], ref_paths: set[str]) -> float:
    """F1 of the file-set match between the generated and reference layouts."""
    if not gen_paths and not ref_paths:
        logger.warning("both file sets empty; architecture score defined as 1.0")
        return 1.0
    overlap = len(gen_paths & ref_paths)
    return 2.0 * overlap / (len(gen_paths) + len(ref_paths))


def linkage_score(workspace: Workspace) -> float:
    """Fraction of internal imports that resolve to a defining file."""
    checks = resolve_imports(workspace)
    if not checks:
        logger.warning("no internal imports found; linkage score defined as 1.0")
        return 1.0
    return sum(1 for c in checks if c.valid) / len(checks)


def overall_score(exec_score: float, inter_score: float, rule_score: float) -> float:
    """Mean of the three dynamic sub-scores, as a percentage."""
    for name, value in (("exec", exec_score), ("inter", inter_score), ("rule", rule_score)):
        if not 0.0 <= value <= 1.0:
            raise ScoreRangeError(f"{name} score {value} outside [0, 1]")
    return (exec_score + inter_score + rule_score) / 3.0 * 100.0


def token_report(contract: LanguageContract, workspace: Workspace) -> tuple[int, int, float]:
    """Token counts of the rendered contract and the repository, plus the
    repo/contract compression ratio. A rendered contract always holds its
    section headings, so its count is never zero."""
    contract_tokens = estimate_tokens(render(contract))
    repo_tokens = sum(estimate_tokens(unit.body) for unit in workspace.units())
    return contract_tokens, repo_tokens, repo_tokens / contract_tokens


def load_scores(path) -> tuple[float, float, float]:
    """Read an externally supplied {exec, inter, rule} scores file, a JSON
    object of three numbers; ValueError names the first field without one."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    for key in ("exec", "inter", "rule"):
        if not isinstance(data, dict) or not isinstance(data.get(key), (int, float)):
            raise ValueError(f"scores file has no number in field {key!r}")
    return float(data["exec"]), float(data["inter"]), float(data["rule"])


def load_manifest(path) -> set[str]:
    """Reference file set: newline-delimited path list."""
    paths = set()
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line and not line.startswith("#"):
                paths.add(line)
    return paths


def keepalive_check(repo_root, entry: str = "main.py", seconds: float = 60.0) -> bool:
    """Launch the repository entry point and require it to stay alive.

    Stands in for the binary executability judgment: the process must not
    exit (cleanly or not) before the keep-alive window closes. A window that
    is not positive would pass a program that has not yet run, so it raises
    ValueError.
    """
    if not seconds > 0:
        raise ValueError(f"keep-alive window must be positive, got {seconds!r}")
    try:
        proc = subprocess.Popen(
            [sys.executable, entry],
            cwd=repo_root,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
    except OSError as exc:
        logger.warning("keep-alive launch failed: %s", exc)
        return False
    try:
        proc.wait(timeout=seconds)
    except subprocess.TimeoutExpired:
        proc.terminate()
        try:
            proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            proc.kill()
        return True
    return False


def evaluate(
    workspace: Workspace,
    *,
    ref_paths: set[str] | None = None,
    scores: tuple[float, float, float] | None = None,
    contract: LanguageContract | None = None,
) -> EvalReport:
    report = EvalReport()
    if ref_paths is not None:
        report.s_arch = architecture_score(set(workspace.paths()), ref_paths)
    report.s_link = linkage_score(workspace)
    if scores is not None:
        report.s_exec, report.s_inter, report.s_rule = scores
        report.s_overall = overall_score(*scores)
    if contract is not None:
        contract_tokens, repo_tokens, ratio = token_report(contract, workspace)
        report.contract_tokens = contract_tokens
        report.repo_tokens = repo_tokens
        report.compression_ratio = ratio
    return report

"""Operator entry point: generate, audit, eval, replay.

JSON results go to stdout, progress events to stderr. Flags win over the
config file, which wins over defaults; the endpoint key is read from the
environment only.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from . import __version__
from .agents import IntentSpec, SynthesisFailure
from .auditor import existence_check, consistency_check
from .backends import BackendError, RecordingBackend, RemoteBackend, ScriptedBackend
from .contract import ContractError, parse as parse_contract
from .evaluation import evaluate, keepalive_check, load_manifest, load_scores
from .kernel import KernelError, project
from .ledger import RunLedger
from .scheduler import RunConfig, RunMode, run
from .workspace import Workspace

logger = logging.getLogger("charter")

CONTRACT_FILENAME = "project.contract.md"
JOURNAL_FILENAME = "project.contract.journal.jsonl"
LEDGER_FILENAME = "run.ledger.jsonl"
WORKSPACE_DIRNAME = "workspace"


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ValueError("config file must contain a JSON object")
    return data


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="charter", description=__doc__)
    parser.add_argument("--version", action="version", version=f"charter {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="synthesize a repository from an intent")
    gen.add_argument("--intent", required=True, help="path to the intent text file")
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--backend", choices=("remote", "scripted", "record"), default="remote")
    gen.add_argument("--transcript", help="transcript path (required for scripted/record)")
    gen.add_argument("--config", help="JSON config file")
    gen.add_argument("--model", default=None)
    gen.add_argument("--temperature", type=float, default=None)
    gen.add_argument("--context-limit", type=int, default=None)
    gen.add_argument("--t-max", type=int, default=None)
    gen.add_argument("--mode", choices=[m.value for m in RunMode], default=None)
    gen.add_argument("--base-url", default=None, help="remote endpoint base URL")

    aud = sub.add_parser("audit", help="audit a contract against a workspace; exits 1 unless it conforms")
    aud.add_argument("--contract", required=True)
    aud.add_argument("--workspace", required=True)

    ev = sub.add_parser("eval", help="score a generated repository")
    ev.add_argument("--gen", required=True, help="generated repository directory")
    ev.add_argument("--ref", help="reference manifest (newline-delimited paths)")
    ev.add_argument("--scores", help="JSON file with {exec, inter, rule}")
    ev.add_argument("--contract", help="contract file for the token report")
    ev.add_argument("--exec-check", action="store_true", help="run the keep-alive executability check")
    ev.add_argument("--exec-seconds", type=float, default=60.0)

    rep = sub.add_parser("replay", help="re-run a recorded transcript and verify hashes")
    rep.add_argument("--intent", required=True)
    rep.add_argument("--transcript", required=True)
    rep.add_argument("--ledger", required=True, help="golden ledger to compare against")
    rep.add_argument("--config", help="JSON config file")
    rep.add_argument("--t-max", type=int, default=None)
    rep.add_argument("--mode", choices=[m.value for m in RunMode], default=None)
    return parser


def _setting(args, file_config: dict, key: str, default):
    """The flag named ``key`` if given, else the config file's ``key``, else ``default``."""
    flag = getattr(args, key, None)
    return flag if flag is not None else file_config.get(key, default)


def _run_config(args, file_config: dict) -> RunConfig:
    """Each setting as ``_setting`` finds it; ValueError names one of the wrong type."""
    default, fields = RunConfig(), {}
    for key, read in (("t_max", int), ("mode", RunMode), ("context_limit", int), ("attempt_cap", int)):
        value = _setting(args, file_config, key, getattr(default, key))
        try:
            fields[key] = read(value)
        except (TypeError, ValueError):
            raise ValueError(f"config field {key!r} is not a valid {read.__name__}: {value!r}") from None
    return RunConfig(**fields)


def _make_backend(kind: str, args, file_config: dict, parser: argparse.ArgumentParser):
    if kind in ("scripted", "record") and not getattr(args, "transcript", None):
        parser.error(f"--transcript is required with the {kind} backend")
    if kind == "scripted":
        return ScriptedBackend.from_file(args.transcript)
    remote = RemoteBackend(
        base_url=getattr(args, "base_url", None) or "https://api.openai.com/v1",
        model=_setting(args, file_config, "model", "gpt-4o-2024-11-20"),
        temperature=float(_setting(args, file_config, "temperature", 0.0)),
    )
    if kind == "record":
        return RecordingBackend(remote, args.transcript)
    return remote


def _write_run(result, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    ws_dir = out_dir / WORKSPACE_DIRNAME
    result.workspace.materialize(ws_dir)
    from .contract import render

    (out_dir / CONTRACT_FILENAME).write_text(render(result.contract), encoding="utf-8")
    result.ledger.write(out_dir / LEDGER_FILENAME)
    result.ledger.write_journal(out_dir / JOURNAL_FILENAME)


def _cmd_generate(args, parser) -> int:
    file_config = _load_config_file(args.config)
    config = _run_config(args, file_config)
    backend = _make_backend(args.backend, args, file_config, parser)
    intent = IntentSpec(Path(args.intent).read_text(encoding="utf-8"))
    result = run(intent, config, backend)
    _write_run(result, Path(args.out))
    summary = {
        "converged": result.converged,
        "best_effort": result.best_effort,
        "layers": result.layers_used,
        "tasks": {t.id: t.status.value for t in result.tasks.values()},
        "files": result.workspace.paths(),
        "out": str(args.out),
    }
    print(json.dumps(summary, sort_keys=True, indent=2))
    return 0


def _cmd_audit(args) -> int:
    contract = parse_contract(Path(args.contract).read_text(encoding="utf-8"))
    workspace = Workspace.load(args.workspace)
    files = workspace.view()
    existence, unmatched = existence_check(project(contract).entries, files)
    consistent, deltas = consistency_check(contract, files)
    report = {
        "existence": existence,
        "unmatched": list(unmatched),
        "consistency": consistent,
        "deltas": [d.to_dict() for d in deltas],
    }
    print(json.dumps(report, sort_keys=True, indent=2))
    return 0 if existence == 1.0 and consistent else 1


def _cmd_eval(args) -> int:
    workspace = Workspace.load(args.gen)
    ref_paths = load_manifest(args.ref) if args.ref else None
    scores = load_scores(args.scores) if args.scores else None
    contract = (
        parse_contract(Path(args.contract).read_text(encoding="utf-8")) if args.contract else None
    )
    report = evaluate(workspace, ref_paths=ref_paths, scores=scores, contract=contract)
    if args.exec_check:
        alive = keepalive_check(args.gen, seconds=args.exec_seconds)
        report.s_exec = 1.0 if alive else 0.0
    print(report.to_json())
    return 0


def _cmd_replay(args, parser) -> int:
    file_config = _load_config_file(args.config)
    config = _run_config(args, file_config)
    backend = ScriptedBackend.from_file(args.transcript)
    intent = IntentSpec(Path(args.intent).read_text(encoding="utf-8"))
    result = run(intent, config, backend)
    golden = RunLedger.load(args.ledger)
    ok = golden.serialize() == result.ledger.serialize()
    print(
        json.dumps(
            {
                "match": ok,
                "golden_sha256": golden.sha256(),
                "replay_sha256": result.ledger.sha256(),
            },
            sort_keys=True,
            indent=2,
        )
    )
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO,
        format="%(levelname)s %(name)s %(message)s",
    )
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "generate":
            return _cmd_generate(args, parser)
        if args.command == "audit":
            return _cmd_audit(args)
        if args.command == "eval":
            return _cmd_eval(args)
        if args.command == "replay":
            return _cmd_replay(args, parser)
        parser.error(f"unknown command {args.command!r}")
    except (SynthesisFailure, BackendError, ContractError, KernelError, OSError, ValueError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 1
    return 2


if __name__ == "__main__":
    sys.exit(main())

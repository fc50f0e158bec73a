from __future__ import annotations

import json
import re

import pytest

from charter.agents import CONTEXT_LIMIT, build_prompt, synthesize_contract
from charter.cli import _build_parser, _make_backend, _run_config, main
from charter.scheduler import RunConfig

from conftest import fixture_path


def _generate(tmp_path, capsys, extra=()):
    out = tmp_path / "build"
    argv = [
        "generate",
        "--intent",
        str(fixture_path("intents", "gomoku.txt")),
        "--backend",
        "scripted",
        "--transcript",
        str(fixture_path("transcripts", "gomoku.jsonl")),
        "--out",
        str(out),
        "--t-max",
        "5",
        *extra,
    ]
    code = main(argv)
    stdout = capsys.readouterr().out
    return code, out, json.loads(stdout)


def test_generate_scripted_gomoku(tmp_path, capsys):
    code, out, summary = _generate(tmp_path, capsys)
    assert code == 0
    assert summary["converged"] is True
    assert summary["layers"] == 2
    assert sorted(summary["files"]) == ["ai.py", "board.py", "game.py"]
    assert (out / "workspace" / "board.py").exists()
    assert (out / "project.contract.md").exists()
    assert (out / "run.ledger.jsonl").exists()
    assert (out / "project.contract.journal.jsonl").exists()


def test_generate_requires_transcript_for_scripted(tmp_path):
    argv = [
        "generate",
        "--intent",
        str(fixture_path("intents", "gomoku.txt")),
        "--backend",
        "scripted",
        "--out",
        str(tmp_path / "build"),
    ]
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2


def test_generate_fails_cleanly_on_an_oversized_synthesis_prompt(tmp_path, capsys):
    argv = [
        "generate",
        "--intent",
        str(fixture_path("intents", "gomoku.txt")),
        "--backend",
        "scripted",
        "--transcript",
        str(fixture_path("transcripts", "gomoku.jsonl")),
        "--out",
        str(tmp_path / "build"),
        "--context-limit",
        "50",
    ]
    assert main(argv) == 1
    error = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert error["error"] == "SynthesisFailure"
    assert error["message"].startswith("proposal prompt does not fit")


def test_bad_flags_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main(["generate", "--nope"])
    assert excinfo.value.code == 2


def test_eval_command(tmp_path, capsys):
    code, out, _ = _generate(tmp_path, capsys)
    assert code == 0
    code = main(
        [
            "eval",
            "--gen",
            str(out / "workspace"),
            "--ref",
            str(fixture_path("manifests", "gomoku.txt")),
            "--contract",
            str(out / "project.contract.md"),
        ]
    )
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["s_arch"] == 1.0
    assert report["s_link"] == 1.0
    assert report["compression_ratio"] > 0


def test_audit_command(tmp_path, capsys):
    code, out, _ = _generate(tmp_path, capsys)
    assert code == 0
    code = main(
        [
            "audit",
            "--contract",
            str(out / "project.contract.md"),
            "--workspace",
            str(out / "workspace"),
        ]
    )
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["existence"] == 1.0
    assert report["consistency"] is True
    assert report["unmatched"] == []


@pytest.mark.parametrize(
    "tamper, failure",
    [
        (lambda ws: (ws / "board.py").unlink(), "existence"),
        (lambda ws: (ws / "board.py").write_text((ws / "board.py").read_text().replace("def place(", "def put(")), "consistency"),
    ],
)
def test_audit_command_fails_on_a_tampered_workspace(tmp_path, capsys, tamper, failure):
    code, out, _ = _generate(tmp_path, capsys)
    assert code == 0
    tamper(out / "workspace")
    argv = ["audit", "--contract", str(out / "project.contract.md"), "--workspace", str(out / "workspace")]
    code = main(argv)
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["existence"] < 1.0 if failure == "existence" else report["consistency"] is False


def test_audit_command_reports_a_malformed_contract_as_an_error(tmp_path, capsys):
    code, out, _ = _generate(tmp_path, capsys)
    assert code == 0
    contract = out / "project.contract.md"
    contract.write_text("## Goals\n" + contract.read_text())
    code = main(["audit", "--contract", str(contract), "--workspace", str(out / "workspace")])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    error = json.loads(captured.err.strip().splitlines()[-1])
    assert error["error"] == "MalformedTemplate"
    assert "unknown section heading 'Goals'" in error["message"]


def test_audit_command_reports_a_contract_that_does_not_project_as_an_error(tmp_path, capsys):
    code, out, _ = _generate(tmp_path, capsys)
    assert code == 0
    contract = out / "project.contract.md"
    contract.write_text(re.sub(r"(?m)^  Version: \d+$", "  Version: one", contract.read_text(), count=1))
    code = main(["audit", "--contract", str(contract), "--workspace", str(out / "workspace")])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    error = json.loads(captured.err.strip().splitlines()[-1])
    assert error == {"error": "ProjectionError", "message": "line 3: Version is not an integer: 'one'"}


def test_replay_matches_and_detects_tamper(tmp_path, capsys):
    code, out, _ = _generate(tmp_path, capsys)
    assert code == 0
    argv = [
        "replay",
        "--intent",
        str(fixture_path("intents", "gomoku.txt")),
        "--transcript",
        str(fixture_path("transcripts", "gomoku.jsonl")),
        "--ledger",
        str(out / "run.ledger.jsonl"),
        "--t-max",
        "5",
    ]
    assert main(argv) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["match"] is True

    ledger_path = out / "run.ledger.jsonl"
    ledger_path.write_text(ledger_path.read_text().replace("VERIFIED", "DONE"))
    assert main(argv) == 1
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["match"] is False


def test_config_file_defaults(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"t_max": 5, "mode": "SEQUENTIAL"}))
    out = tmp_path / "build"
    argv = [
        "generate",
        "--intent",
        str(fixture_path("intents", "gomoku.txt")),
        "--backend",
        "scripted",
        "--transcript",
        str(fixture_path("transcripts", "gomoku.jsonl")),
        "--out",
        str(out),
        "--config",
        str(config),
    ]
    assert main(argv) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["converged"] is True
    ledger_lines = (out / "run.ledger.jsonl").read_text().splitlines()
    layer = next(json.loads(l) for l in ledger_lines if json.loads(l)["kind"] == "layer")
    assert layer["mode"] == "SEQUENTIAL"
    assert layer["execution_width"] == 1


def test_flags_override_config_file(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"t_max": 0}))
    out = tmp_path / "build"
    argv = [
        "generate",
        "--intent",
        str(fixture_path("intents", "gomoku.txt")),
        "--backend",
        "scripted",
        "--transcript",
        str(fixture_path("transcripts", "gomoku.jsonl")),
        "--out",
        str(out),
        "--config",
        str(config),
        "--t-max",
        "5",
    ]
    assert main(argv) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["converged"] is True  # the flag's t_max=5 won over the file's 0


@pytest.mark.parametrize("command", ["generate", "replay"])
def test_a_negative_attempt_cap_in_the_config_file_is_an_error(tmp_path, capsys, command):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"attempt_cap": -1}))
    intent, transcript = str(fixture_path("intents", "gomoku.txt")), str(fixture_path("transcripts", "gomoku.jsonl"))
    rest = {
        "generate": ["--backend", "scripted", "--out", str(tmp_path / "build")],
        "replay": ["--ledger", str(tmp_path / "run.ledger.jsonl")],
    }[command]
    argv = [command, "--intent", intent, "--transcript", transcript, "--config", str(config), *rest]
    assert main(argv) == 1
    error = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert error == {"error": "ValueError", "message": "attempt_cap must be >= 0"}
    assert not (tmp_path / "build").exists()


def test_a_context_limit_no_prompt_fits_is_an_error(tmp_path, capsys):
    intent, transcript = str(fixture_path("intents", "gomoku.txt")), str(fixture_path("transcripts", "gomoku.jsonl"))
    argv = [
        "generate", "--intent", intent, "--transcript", transcript, "--backend", "scripted",
        "--out", str(tmp_path / "build"), "--context-limit", "0",
    ]
    assert main(argv) == 1
    error = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert error == {"error": "ValueError", "message": "context_limit must be >= 1"}
    assert not (tmp_path / "build").exists()


def test_eval_refuses_a_keepalive_window_that_is_not_positive(tmp_path, capsys):
    (tmp_path / "main.py").write_text("raise SystemExit(3)\n")
    for seconds in ("0", "-1"):
        assert main(["eval", "--gen", str(tmp_path), "--exec-check", "--exec-seconds", seconds]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err.splitlines()[-1])["error"] == "ValueError"


def test_remote_backend_settings_follow_flags_then_config_file(tmp_path, capsys):
    parser = _build_parser()
    args = parser.parse_args(["generate", "--intent", "i", "--out", "o", "--temperature", "0.5"])
    backend = _make_backend("remote", args, {"model": "m", "temperature": 0.2}, parser)
    assert (backend.model, backend.temperature) == ("m", 0.5)
    backend = _make_backend("remote", parser.parse_args(["generate", "--intent", "i", "--out", "o"]), {}, parser)
    assert (backend.model, backend.temperature) == ("gpt-4o-2024-11-20", 0.0)
    argv = ["generate", "--intent", "i", "--out", str(tmp_path), "--temperature", "-1"]
    assert main(argv) == 1
    assert json.loads(capsys.readouterr().err.splitlines()[-1])["error"] == "ValueError"


def test_journal_records_accepted_actions(tmp_path, capsys):
    code, out, _ = _generate(tmp_path, capsys)
    assert code == 0
    lines = [json.loads(l) for l in (out / "project.contract.journal.jsonl").read_text().splitlines()]
    actions = [l for l in lines if l.get("kind", "action") == "action"]
    assert actions, "journal must carry one record per accepted action"
    for record in actions:
        assert {"revision", "op", "section", "content_sha256"} <= set(record)


@pytest.mark.parametrize("command", ["generate", "replay"])
def test_empty_flags_and_config_give_the_default_run_config(command):
    required = {"generate": ["--intent", "i", "--out", "o"], "replay": ["--intent", "i", "--transcript", "t", "--ledger", "l"]}
    args = _build_parser().parse_args([command, *required[command]])
    assert _run_config(args, {}) == RunConfig()
    assert RunConfig().context_limit == CONTEXT_LIMIT
    for reader in (build_prompt, synthesize_contract):
        assert reader.__kwdefaults__["context_limit"] == CONTEXT_LIMIT

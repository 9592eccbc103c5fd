"""The CLI's observability flags: ``--profile`` / ``--ledger`` on the
retime entry point, and every flag and its ``REPRO_*`` environment
variable on both commands that take them (``mcretime FILE`` and
``mcretime pipeline FILE``)."""

import json
from pathlib import Path

import pytest

from repro import obs
from repro.tools.cli import main as cli_main

DATA = Path(__file__).resolve().parent.parent / "data"


def _retime(tmp_path, *extra):
    src = DATA / "c2_small.blif"
    out = tmp_path / "out.blif"
    code = cli_main([str(src), "-o", str(out), *extra])
    assert code == 0
    return out


class TestProfileFlag:
    def test_writes_speedscope(self, tmp_path):
        profile = tmp_path / "flame.json"
        _retime(tmp_path, "--profile", str(profile))
        scope = json.loads(profile.read_text())
        assert scope["profiles"][0]["type"] == "sampled"

    def test_collapsed_extension(self, tmp_path):
        profile = tmp_path / "flame.collapsed"
        _retime(tmp_path, "--profile", str(profile), "--profile-interval",
                "0.001")
        assert profile.exists()


class TestLedgerFlag:
    def test_appends_cli_record(self, tmp_path):
        ledger = tmp_path / "runs.jsonl"
        out = _retime(tmp_path, "--ledger", str(ledger))
        assert out.exists()
        (record,) = obs.RunLedger(ledger).load()
        assert record["kind"] == "cli.retime"
        assert record["fingerprint"] and len(record["fingerprint"]) == 64
        assert record["spans"], "engine spans missing"
        assert record["config"]["objective"] in ("minarea", "minperiod")
        metrics = record["metrics"]
        assert metrics["period_after"] <= metrics["period_before"]
        assert "ff_after" in metrics and "n_classes" in metrics

    def test_env_var_equivalent(self, tmp_path, monkeypatch):
        ledger = tmp_path / "env_runs.jsonl"
        monkeypatch.setenv("REPRO_LEDGER", str(ledger))
        _retime(tmp_path)
        (record,) = obs.RunLedger(ledger).load()
        assert record["kind"] == "cli.retime"

    def test_two_runs_same_fingerprint(self, tmp_path):
        ledger = tmp_path / "runs.jsonl"
        _retime(tmp_path, "--ledger", str(ledger))
        _retime(tmp_path, "--ledger", str(ledger))
        a, b = obs.RunLedger(ledger).load()
        assert a["fingerprint"] == b["fingerprint"]
        assert a["run_id"] != b["run_id"]


def _run(tmp_path, command, *extra):
    src = DATA / "c2_small.blif"
    out = tmp_path / "out.blif"
    assert cli_main([*command, str(src), "-o", str(out), *extra]) == 0


#: the two commands that take the observability flags
COMMANDS = pytest.mark.parametrize(
    "command", [[], ["pipeline"]], ids=["retime", "pipeline"]
)


@COMMANDS
def test_no_flag_or_env_var_runs_untraced(
    tmp_path, monkeypatch, capsys, command
):
    for var in (
        "REPRO_TRACE",
        "REPRO_TRACE_LOG",
        "REPRO_TRACE_SUMMARY",
        "REPRO_PROFILE",
        "REPRO_LEDGER",
    ):
        monkeypatch.delenv(var, raising=False)

    def no_session(**kwargs):
        raise AssertionError("an untraced run opened a session")

    monkeypatch.setattr(obs, "session", no_session)
    _run(tmp_path, command)
    assert capsys.readouterr().err == ""


@COMMANDS
@pytest.mark.parametrize("via", ["flag", "env"])
class TestObservabilityFlags:
    @pytest.mark.parametrize(
        "flag,env,name,note",
        [
            ("--trace", "REPRO_TRACE", "trace.json", "wrote trace to"),
            ("--log-json", "REPRO_TRACE_LOG", "run.jsonl", "wrote run log to"),
        ],
        ids=["trace", "log-json"],
    )
    def test_writes_a_valid_trace(
        self, tmp_path, monkeypatch, capsys, command, via, flag, env, name,
        note,
    ):
        path = tmp_path / name
        if via == "flag":
            _run(tmp_path, command, flag, str(path))
        else:
            monkeypatch.setenv(env, str(path))
            _run(tmp_path, command)
        assert f"{note} {path}" in capsys.readouterr().err
        assert cli_main(["report", str(path), "--validate"]) == 0
        assert capsys.readouterr().out == f"{path}: OK\n"

    def test_verbose_prints_the_summary_tree(
        self, tmp_path, monkeypatch, capsys, command, via
    ):
        if via == "flag":
            _run(tmp_path, command, "-v")
        else:
            monkeypatch.setenv("REPRO_TRACE_SUMMARY", "1")
            _run(tmp_path, command)
        err = capsys.readouterr().err
        assert "span tree (count, total, self, % of run):" in err
        assert "engine.minperiod" in err

    def test_profile_and_ledger(
        self, tmp_path, monkeypatch, capsys, command, via
    ):
        profile = tmp_path / "flame.json"
        ledger = tmp_path / "runs.jsonl"
        if via == "flag":
            _run(
                tmp_path, command,
                "--profile", str(profile), "--ledger", str(ledger),
            )
        else:
            monkeypatch.setenv("REPRO_PROFILE", str(profile))
            monkeypatch.setenv("REPRO_LEDGER", str(ledger))
            _run(tmp_path, command)
        err = capsys.readouterr().err
        assert f"wrote profile to {profile}" in err
        assert f"appended run record to {ledger}" in err
        scope = json.loads(profile.read_text())
        assert scope["profiles"][0]["type"] == "sampled"
        (record,) = obs.RunLedger(ledger).load()
        assert record["kind"] == f"cli.{(command or ['retime'])[0]}"

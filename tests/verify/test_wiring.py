"""Verification wired through flows, the CLI, and the batch service."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.flows import baseline_flow, retime_flow
from repro.service.jobs import RetimeJob, execute_job
from repro.synth import generate
from repro.tools import cli
from repro.verify import SequentialCheckResult, VerificationError
from repro.verify.fuzz import random_spec

DESIGN = generate(random_spec(4)).circuit
DATA = Path(__file__).resolve().parent.parent / "data"


def test_retime_flow_verify_stage():
    result = retime_flow(DESIGN, verify=True, verify_cycles=24)
    assert result.verify is not None and result.verify.equivalent
    assert result.verify.cycles == 24
    assert "verify" in result.timings
    assert result.timings["verify"] <= result.timings["total"]


def test_baseline_flow_verify_stage():
    result = baseline_flow(DESIGN, verify=True, verify_cycles=24)
    assert result.verify is not None and result.verify.equivalent
    assert "verify" in result.timings


def test_flow_without_verify_has_no_stage():
    result = retime_flow(DESIGN)
    assert result.verify is None
    assert "verify" not in result.timings


def test_flow_raises_verification_error_on_mismatch(monkeypatch):
    from repro.flows import script

    def fake_check(original, transformed, cycles=64):
        return SequentialCheckResult(False, "injected mismatch")

    monkeypatch.setattr(script, "check_sequential", fake_check)
    with pytest.raises(VerificationError, match="injected mismatch"):
        retime_flow(DESIGN, verify=True)


# -- service ----------------------------------------------------------- #


def _job(**kw) -> RetimeJob:
    from repro.netlist import write_blif

    return RetimeJob(netlist=write_blif(DESIGN), **kw)


def test_job_key_depends_on_verify_options():
    plain = _job()
    verifying = _job(verify=True)
    assert plain.canonical_key != verifying.canonical_key
    assert verifying.options()["verify"] is True
    assert verifying.options()["verify_cycles"] == 64
    # verify_cycles is irrelevant (and un-keyed) when verify is off
    assert plain.canonical_key == _job(verify_cycles=32).canonical_key


def test_job_rejects_malformed_verify_options():
    # must be rejected at construction (the HTTP layer maps this to 400),
    # not discovered as a crash inside a worker
    with pytest.raises(ValueError, match="verify must be a bool"):
        _job(verify="maybe")
    with pytest.raises(ValueError, match="verify_cycles"):
        _job(verify=True, verify_cycles=0)
    with pytest.raises(ValueError, match="verify_cycles"):
        _job(verify=True, verify_cycles="64")


def test_execute_job_records_verify_metrics():
    result = execute_job(_job(verify=True, verify_cycles=24))
    assert result.ok
    verdict = result.metrics["verify"]
    assert verdict["equivalent"] is True
    assert verdict["cycles"] == 24
    assert verdict["lanes"] >= 24
    assert verdict["seconds"] >= 0.0


def test_execute_job_fails_on_verification_mismatch(monkeypatch):
    from repro.flows import script

    def fake_check(original, transformed, cycles=64):
        return SequentialCheckResult(False, "injected mismatch")

    monkeypatch.setattr(script, "check_sequential", fake_check)
    with pytest.raises(VerificationError, match="injected mismatch"):
        execute_job(_job(verify=True))


# -- CLI --------------------------------------------------------------- #


def test_cli_verify_flag(tmp_path, capsys):
    from repro.netlist import write_blif

    path = tmp_path / "design.blif"
    path.write_text(write_blif(DESIGN))
    rc = cli.main([str(path), "--verify", "--verify-cycles", "24"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "verified: 24 cycles" in out


def test_cli_map_verify_on_table2_row(capsys):
    rc = cli.main([str(DATA / "c3_small.blif"), "--map", "--verify"])
    out = capsys.readouterr().out
    assert rc == 0
    # one verdict per checked leg, each naming its leg
    verdicts = [
        line for line in out.splitlines() if line.startswith("verified:")
    ]
    assert len(verdicts) == 2
    assert verdicts[0].startswith("verified: mapping leg (input -> mapped): ")
    assert verdicts[1].startswith("verified: retiming leg (mapped -> final): ")
    assert all(line.endswith("refinement holds") for line in verdicts)


def test_cli_verify_failure_exits_nonzero(tmp_path, capsys, monkeypatch):
    from repro.flows import script
    from repro.netlist import write_blif

    def fake_check(original, transformed, cycles=64):
        return SequentialCheckResult(False, "injected mismatch")

    monkeypatch.setattr(script, "check_sequential", fake_check)
    path = tmp_path / "design.blif"
    path.write_text(write_blif(DESIGN))
    rc = cli.main([str(path), "--verify"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "injected mismatch" in err


def test_cli_fuzz_subcommand(capsys):
    rc = cli.main(["fuzz", "--rounds", "2", "--cycles", "16", "-q"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "2 rounds, 0 failures" in out

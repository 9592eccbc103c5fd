"""Unit tests for job specs, content-addressed keys, and execution."""

from pathlib import Path

import pytest

from repro.mcretime import mc_retime
from repro.netlist import read_blif, write_blif
from repro.service import (
    JobFailure,
    JobResult,
    RetimeJob,
    execute_job,
    run_payload,
)
from repro.service import jobs as jobs_module
from repro.timing import UNIT_DELAY

DATA = Path(__file__).resolve().parent.parent / "data"

TINY = """\
.model tiny
.inputs clk a b
.outputs y
.names a b n1
11 1
.names n1 q1 y
10 1
01 1
.latch n1 q1 re clk 0
.end
"""


class TestCanonicalKey:
    def test_deterministic(self):
        job = RetimeJob(netlist=TINY, name="tiny")
        assert job.canonical_key == RetimeJob(netlist=TINY, name="tiny").canonical_key
        assert len(job.canonical_key) == 64

    def test_whitespace_and_comments_do_not_change_key(self):
        noisy = "# a comment\n" + TINY.replace("\n.names", "\n\n.names")
        assert (
            RetimeJob(netlist=noisy).canonical_key
            == RetimeJob(netlist=TINY).canonical_key
        )

    def test_reemitted_blif_does_not_change_key(self):
        # canonicalisation is parse -> write_blif, so re-emitted BLIF
        # (different latch syntax, reordered covers) keys identically
        reemitted = write_blif(read_blif(TINY))
        assert reemitted != TINY
        assert (
            RetimeJob(netlist=reemitted).canonical_key
            == RetimeJob(netlist=TINY).canonical_key
        )

    def test_options_change_key(self):
        base = RetimeJob(netlist=TINY)
        assert base.canonical_key != RetimeJob(
            netlist=TINY, objective="minperiod"
        ).canonical_key
        assert base.canonical_key != RetimeJob(
            netlist=TINY, delay_model="xc4000e"
        ).canonical_key
        assert base.canonical_key != RetimeJob(
            netlist=TINY, target_period=9.5
        ).canonical_key

    def test_default_delay_model_resolution(self):
        # mcretime flow defaults to unit, synthesis flows to xc4000e
        assert RetimeJob(netlist=TINY).resolved_delay_model() == "unit"
        assert (
            RetimeJob(netlist=TINY, flow="retime").resolved_delay_model()
            == "xc4000e"
        )
        # an explicit model and the matching default share a key
        assert (
            RetimeJob(netlist=TINY, delay_model="unit").canonical_key
            == RetimeJob(netlist=TINY).canonical_key
        )


class TestValidation:
    def test_bad_flow_rejected(self):
        with pytest.raises(ValueError, match="unknown flow"):
            RetimeJob(netlist=TINY, flow="nope")

    def test_bad_format_rejected(self):
        with pytest.raises(ValueError, match="format"):
            RetimeJob(netlist=TINY, fmt="edif")

    def test_parse_error_surfaces_at_key_time(self):
        from repro.netlist import NetlistError

        job = RetimeJob(netlist=".model x\ngarbage\n.end\n")
        with pytest.raises(NetlistError):
            job.canonical_key


class TestRoundTrips:
    def test_job_dict_round_trip(self):
        job = RetimeJob(netlist=TINY, flow="retime", target_period=4.0)
        assert RetimeJob.from_dict(job.to_dict()) == job

    def test_result_dict_round_trip(self):
        result = JobResult(
            job_id="abc",
            status="failed",
            error=JobFailure(type="timeout", message="too slow"),
            attempts=3,
        )
        back = JobResult.from_dict(result.to_dict())
        assert back.error.type == "timeout"
        assert back.attempts == 3
        assert not back.ok


class TestExecuteJob:
    def test_mcretime_flow_matches_direct_call(self):
        text = (DATA / "c2_small_mapped.blif").read_text()
        job = RetimeJob(netlist=text, name="c2_small_mapped")
        result = execute_job(job)
        assert result.ok
        direct = mc_retime(
            read_blif(text, name_hint="c2_small_mapped"), delay_model=UNIT_DELAY
        )
        assert result.output == write_blif(direct.circuit)
        assert result.metrics["retime"]["n_classes"] == direct.n_classes
        assert result.metrics["timings"]["total"] > 0

    def test_retime_flow_reports_baseline_and_final(self):
        result = execute_job(RetimeJob(netlist=TINY, flow="retime"))
        assert result.ok
        assert set(result.metrics) >= {"baseline", "final", "retime", "timings"}
        assert result.metrics["final"]["accepted"] in (True, False)

    def test_verilog_output_format(self):
        result = execute_job(RetimeJob(netlist=TINY, output_fmt="verilog"))
        assert result.output_fmt == "verilog"
        assert "module" in result.output


def _count_parses(monkeypatch) -> list:
    """Empty the worker parse cache and log every parse made."""
    jobs_module._PARSED.clear()
    parses = []
    real = jobs_module._parse

    def parse(*args):
        parses.append(args)
        return real(*args)

    monkeypatch.setattr(jobs_module, "_parse", parse)
    return parses


class TestRunPayload:
    def test_mcretime_job_parses_once(self, monkeypatch):
        """The worker parse cache serves the second dispatch of a design."""
        job = RetimeJob(netlist=TINY, name="tiny")
        key = job.canonical_key
        parses = _count_parses(monkeypatch)
        first = run_payload(key, job.to_dict())
        second = run_payload(key, job.to_dict())
        assert len(parses) == 1
        assert len(jobs_module._PARSED) == 1
        assert first["status"] == second["status"] == "done"
        assert first["output"] == second["output"]

    def test_transform_job_bypasses_the_cache(self, monkeypatch):
        job = RetimeJob(netlist=TINY, name="tiny", transform="pipeline")
        _count_parses(monkeypatch)
        data = run_payload(job.canonical_key, job.to_dict())
        assert data["status"] == "done"
        assert len(jobs_module._PARSED) == 0

"""Verification-side tests: the latency-shifted pipeline check and the
thread-interleaving C-slow refinement check, including mutant kills for
the two classically-wrong C-slow constructions (controls broadcast onto
the replicas instead of folded into the D path)."""

import pytest

from repro.flows import run_flow
from repro.netlist import Circuit
from repro.pipeline import cslow_transform
from repro.synth import build_datapath, build_design
from repro.verify import check_cslow, check_pipeline


def pipelined(circuit, stages):
    return run_flow(
        circuit, transform="pipeline", stages=stages, objective="minperiod"
    )


def cslowed(circuit, factor):
    return run_flow(
        circuit, transform="cslow", factor=factor, objective="minperiod"
    )


class TestCheckPipeline:
    @pytest.mark.parametrize("name", ["C2", "C5"])
    def test_designs_pass(self, name):
        c = build_design(name, scale=0.4).circuit
        result = pipelined(c, 2)
        check = check_pipeline(c, result.circuit, shift=2, cycles=32)
        assert check.equivalent, check.reason
        assert check.shift == 2

    def test_wrong_shift_fails(self):
        c = build_datapath("NTT4").circuit
        result = pipelined(c, 2)
        check = check_pipeline(c, result.circuit, shift=1, cycles=32)
        assert not check.equivalent


class TestCheckCSlow:
    @pytest.mark.parametrize("name", ["C2", "C5"])
    def test_designs_pass(self, name):
        c = build_design(name, scale=0.4).circuit
        result = cslowed(c, 3)
        check = check_cslow(c, result.circuit, 3, cycles=24)
        assert check.equivalent, check.reason

    def test_datapath_passes_through_retime(self):
        c = build_datapath("MAC6").circuit
        result = cslowed(c, 2)
        check = check_cslow(c, result.circuit, 2, cycles=24)
        assert check.equivalent, check.reason

    def test_raw_transform_passes(self):
        c = build_design("C7", scale=0.3).circuit
        out, _ = cslow_transform(c, 2)
        check = check_cslow(c, out, 2, cycles=24)
        assert check.equivalent, check.reason


def _naive_cslow(circuit: Circuit, factor: int, keep: str) -> Circuit:
    """The wrong construction: replicate registers but *broadcast* the
    kept control (EN or AR) onto every replica instead of folding it
    into the D path."""
    work = circuit.clone()
    for reg in list(work.registers.values()):
        d, clk, q, name = reg.d, reg.clk, reg.q, reg.name
        spec = dict(
            en=reg.en, sr=reg.sr, ar=reg.ar, sval=reg.sval, aval=reg.aval
        )
        work.remove_register(name)
        prev = d
        for _ in range(factor - 1):
            kwargs = {}
            if keep == "en" and spec["en"] is not None:
                kwargs = {"en": spec["en"]}
            elif keep == "ar" and spec["ar"] is not None:
                kwargs = {"ar": spec["ar"], "aval": spec["aval"]}
            prev = work.add_register(prev, clk=clk, **kwargs).q
        work.add_register(prev, q=q, name=name, clk=clk, **spec)
    return work


class TestMutantKills:
    def test_enable_on_replicas_killed(self):
        # a stalled enable freezes the whole chain and misaligns every
        # other thread; the refinement check must catch it
        killed = False
        for name in ("C5", "C2"):
            c = build_design(name, scale=0.4).circuit
            mutant = _naive_cslow(c, 3, keep="en")
            if not check_cslow(c, mutant, 3, cycles=32).equivalent:
                killed = True
                break
        assert killed

    def test_async_reset_on_replicas_killed(self):
        # broadcast AR forces every replica on the first edge of an
        # assertion superperiod: threads k >= 1 observe post-reset
        # state one thread-cycle early
        killed = False
        for name in ("C5", "MAC6"):
            c = (
                build_datapath(name).circuit
                if name == "MAC6"
                else build_design(name, scale=0.4).circuit
            )
            mutant = _naive_cslow(c, 3, keep="ar")
            if not check_cslow(c, mutant, 3, cycles=32).equivalent:
                killed = True
                break
        assert killed

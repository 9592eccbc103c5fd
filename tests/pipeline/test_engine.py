"""Engine-level pipeline/C-slow tests, incl. the trivial-config
differentials: ``stages=0`` / ``factor=1`` must be byte-identical to a
plain ``mc_retime`` run with the same arguments."""

from repro.mcretime import mc_retime
from repro.netlist import check_circuit, write_blif
from repro.pipeline import (
    cslow_retime,
    insert_pipeline_layers,
    pipeline_retime,
)
from repro.synth import build_datapath, build_design


class TestTrivialConfigDifferentials:
    def test_zero_stage_pipeline_matches_plain_retime(self):
        c = build_design("C2", scale=0.4).circuit
        plain = mc_retime(c, objective="minperiod")
        result = pipeline_retime(c, 0)
        assert result.registers_inserted == 0
        assert write_blif(result.circuit) == write_blif(plain.circuit)

    def test_factor_one_cslow_matches_plain_retime(self):
        c = build_design("C5", scale=0.4).circuit
        plain = mc_retime(c, objective="minperiod")
        result = cslow_retime(c, 1)
        assert result.registers_replicated == 0
        assert write_blif(result.circuit) == write_blif(plain.circuit)

    def test_trivial_configs_respect_objective(self):
        c = build_design("C2", scale=0.3).circuit
        plain = mc_retime(c, objective="minarea")
        result = cslow_retime(c, 1, objective="minarea")
        assert write_blif(result.circuit) == write_blif(plain.circuit)


class TestPipelineRetime:
    def test_speedup_and_bound(self):
        c = build_datapath("MODMUL6").circuit
        result = pipeline_retime(c, 2)
        check_circuit(result.circuit)
        assert result.period_after < result.period_before
        assert result.period_after >= result.lower_bound
        assert abs(
            result.balance_slack
            - (result.period_after - result.lower_bound)
        ) < 1e-9
        assert result.ff_after >= result.ff_before

    def test_classes_tracked(self):
        c = build_datapath("NTT4").circuit
        result = pipeline_retime(c, 1)
        assert sum(result.classes_before.values()) == result.ff_before
        assert sum(result.classes_after.values()) == result.ff_after


class TestRelocationDeadlockRecovery:
    def test_mapped_pipeline_recovers_from_scheduler_wedge(self):
        # mapped feed-forward datapaths historically wedged the unit-move
        # scheduler (mixed-direction lags on multi-fanout carry nets);
        # the engine must clamp the stuck gates and re-solve instead of
        # raising RelocationError
        from repro.flows import baseline_flow
        from repro.mcretime import mc_retime
        from repro.timing import XC4000E_DELAY

        base = baseline_flow(build_datapath("MODMUL6").circuit)
        work, _ = insert_pipeline_layers(base.circuit, 2)
        result = mc_retime(
            work, delay_model=XC4000E_DELAY, objective="minperiod"
        )
        check_circuit(result.circuit)
        assert result.period_after <= result.period_before


class TestCSlowRetime:
    def test_throughput_gain_on_datapath(self):
        for name in ("MAC6", "NTT4", "MODMUL6"):
            c = build_datapath(name).circuit
            result = cslow_retime(c, 3)
            check_circuit(result.circuit)
            assert result.throughput_gain >= 2.0, name
            assert result.thread_period == 3 * result.period_after, name
            assert result.registers_replicated == 2 * result.ff_before, name

    def test_fold_counts_surface(self):
        c = build_datapath("NTT4").circuit
        result = cslow_retime(c, 2)
        assert result.enables_folded > 0
        assert result.async_resets_folded > 0
        # post-transform, every register class collapses to plain
        assert set(result.classes_after) == {"plain"}

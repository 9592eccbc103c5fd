"""The production sequential checker: verdicts, determinism,
counterexamples, and shrinking."""

from __future__ import annotations

from repro.logic.ternary import T0, T1, TX
from repro.netlist import Circuit, GateFn
from repro.verify import (
    SequentialCheckResult,
    StimulusPlan,
    VerificationError,
    check_sequential,
    replay,
    shrink_counterexample,
)


def toggle_pair():
    """A toggling register behind a sync reset, plus a broken clone
    whose reset value is flipped (differs from cycle 1 on)."""
    good = Circuit("good")
    good.add_input("clk")
    good.add_input("rst")
    q = good.new_net("q")
    inv = good.add_gate(GateFn.NOT, [q])
    good.add_register(d=inv.output, q=q, clk="clk", sr="rst", sval=T0)
    good.add_output(q)
    bad = good.clone()
    next(iter(bad.registers.values())).sval = T1
    return good, bad


def test_equivalent_clone_passes():
    good, _ = toggle_pair()
    result = check_sequential(good, good.clone(), cycles=16)
    assert result.equivalent
    assert result.cycles == 16
    assert result.lanes >= 16  # dedicated lanes grow the budget


def test_flipped_reset_is_caught_with_counterexample():
    good, bad = toggle_pair()
    result = check_sequential(good, bad, cycles=16)
    assert not result.equivalent
    assert result.stimulus is not None and len(result.stimulus) >= 2
    assert result.lane is not None
    # the stored counterexample replays to exactly the reported failure
    assert replay(good, bad, result.stimulus) == result.counterexample


def test_checker_is_deterministic_in_the_seed():
    good, bad = toggle_pair()
    a = check_sequential(good, bad, cycles=16, seed=7)
    b = check_sequential(good, bad, cycles=16, seed=7)
    assert (a.equivalent, a.reason, a.stimulus, a.lane) == (
        b.equivalent, b.reason, b.stimulus, b.lane
    )
    plan_a = StimulusPlan(good, bad, 12, seed=3, lanes=64)
    plan_b = StimulusPlan(good, bad, 12, seed=3, lanes=64)
    assert plan_a.words == plan_b.words


def test_scalar_oracle_agrees_with_bits():
    good, bad = toggle_pair()
    for pair in ((good, good.clone()), (good, bad)):
        bits = check_sequential(*pair, cycles=12, shrink=False)
        scalar = check_sequential(
            *pair, cycles=12, shrink=False, engine="scalar"
        )
        assert bits.equivalent == scalar.equivalent
        assert bits.reason == scalar.reason


def test_input_interface_mismatch_rejected():
    good, _ = toggle_pair()
    extra = good.clone()
    extra.add_input("spurious")
    result = check_sequential(good, extra, cycles=4)
    assert not result.equivalent
    assert "input interface mismatch" in result.reason
    assert "spurious" in result.reason


def test_output_count_mismatch_rejected():
    good, _ = toggle_pair()
    fewer = good.clone()
    fewer.remove_output(len(fewer.outputs) - 1)
    result = check_sequential(good, fewer, cycles=4)
    assert not result.equivalent


def test_x_in_original_exempts_transformed():
    # the original drives its output X forever (reset-free register);
    # refinement lets the transformed circuit pick any value there
    orig = Circuit("orig")
    orig.add_input("clk")
    a = orig.add_input("a")
    q = orig.new_net("q")
    orig.add_register(d=q, q=q, clk="clk")  # never leaves X
    out = orig.add_gate(GateFn.AND, [q, a]).output
    orig.add_output(out)

    conc = Circuit("conc")
    conc.add_input("clk")
    a2 = conc.add_input("a")
    out2 = conc.add_gate(GateFn.AND, [a2, a2]).output
    conc.add_output(out2)
    result = check_sequential(orig, conc, cycles=8)
    assert result.equivalent


def test_shrinker_minimises_and_confirms():
    good, bad = toggle_pair()
    raw = check_sequential(good, bad, cycles=32, shrink=False)
    assert not raw.equivalent
    shrunk = shrink_counterexample(good, bad, raw.stimulus)
    assert shrunk is not None
    stimulus, failure = shrunk
    assert len(stimulus) <= len(raw.stimulus)
    assert replay(good, bad, stimulus) == failure


def test_shrinker_returns_none_for_passing_stimulus():
    good, _ = toggle_pair()
    plan = StimulusPlan(good, good, 4, seed=0, lanes=64)
    stim = [plan.lane_vector(t, 0) for t in range(5)]
    assert shrink_counterexample(good, good.clone(), stim) is None


def test_verification_error_carries_the_check():
    check = SequentialCheckResult(False, "boom")
    err = VerificationError(check)
    assert err.check is check
    assert "boom" in str(err)

"""Unit tests for :mod:`repro.eco.solve` — plans, caching, fallbacks."""

from __future__ import annotations

import pytest

from repro.eco import (
    EcoState,
    apply_edit_script,
    deterministic_metrics,
    eco_retime,
)
from repro.mcretime import mc_retime
from repro.netlist import Circuit, GateFn, read_blif, write_blif
from repro.obs.explain import infeasible_payload
from repro.retime.constraints import InfeasibleConstraints
from repro.timing import UNIT_DELAY, XC4000E_DELAY


def _base() -> Circuit:
    """Small sequential circuit with a CARRY gate (0.25 ns vs 1.6 ns for
    a LUT under XC4000E — the delay-changing retype lever)."""
    c = Circuit("eco_solve")
    c.add_input("clk")
    for net in ("a", "b", "ci"):
        c.add_input(net)
    c.new_net("q1")
    c.add_gate(GateFn.CARRY, ["a", "b", "ci"], "c1", name="gc")
    c.add_gate(GateFn.XOR, ["a", "c1"], "s1", name="gx")
    c.add_gate(GateFn.BUF, ["c1"], "bc", name="gb")
    c.add_gate(GateFn.AND, ["s1", "q1"], "n3", name="ga")
    c.add_register(d="n3", q="q1", clk="clk")
    c.add_gate(GateFn.OR, ["q1", "bc"], "out", name="go")
    c.add_output("out")
    return c


RETYPE_CARRY = {"op": "retype_gate", "name": "gc", "fn": "mux"}
RETYPE_BUF = {"op": "retype_gate", "name": "gb", "fn": "or"}


def _assert_matches_cold(eco, circuit, model):
    cold = mc_retime(circuit, delay_model=model)
    assert write_blif(eco.result.circuit) == write_blif(cold.circuit)
    assert deterministic_metrics(eco.result) == deterministic_metrics(cold)


def test_empty_edit_resolves_then_reuses():
    base = _base()
    state = EcoState(base, delay_model=XC4000E_DELAY)
    first = eco_retime(state, [])
    assert first.plan == "resolve"
    assert first.patched_entries == 0
    _assert_matches_cold(first, base, XC4000E_DELAY)
    again = eco_retime(state, [])
    assert again.plan == "reuse"
    _assert_matches_cold(again, base, XC4000E_DELAY)
    assert state.stats["resolve"] == 1
    assert state.stats["reuse"] == 1
    assert state.stats["edits"] == 2


def test_delay_changing_retype_is_patched_and_exact():
    base = _base()
    state = EcoState(base, delay_model=XC4000E_DELAY)
    eco = eco_retime(state, [RETYPE_CARRY])
    assert eco.plan == "resolve"
    assert eco.patched_entries >= 1
    assert eco.diff is not None and eco.diff.retyped_gates == ["gc"]
    from repro.eco import apply_edit_script

    _assert_matches_cold(eco, apply_edit_script(base, [RETYPE_CARRY]), XC4000E_DELAY)


def test_delay_neutral_retype_shares_the_base_solve():
    # under UNIT_DELAY every gate costs 1.0, so a retype patches nothing
    # and lands on the same solve key as the un-edited design
    base = _base()
    state = EcoState(base, delay_model=UNIT_DELAY)
    eco_retime(state, [])
    eco = eco_retime(state, [{"op": "retype_gate", "name": "gx", "fn": "nand"}])
    assert eco.patched_entries == 0
    assert eco.plan == "reuse"
    from repro.eco import apply_edit_script

    edited = apply_edit_script(
        base, [{"op": "retype_gate", "name": "gx", "fn": "nand"}]
    )
    _assert_matches_cold(eco, edited, UNIT_DELAY)


def test_force_cold_fallback():
    state = EcoState(_base(), delay_model=XC4000E_DELAY)
    eco = eco_retime(state, [RETYPE_CARRY], force_cold=True)
    assert eco.plan == "cold"
    assert eco.fallback_reason == "forced"
    assert state.stats["cold"] == 1


def test_dirty_threshold_zero_forces_cold():
    state = EcoState(_base(), delay_model=XC4000E_DELAY)
    eco = eco_retime(state, [RETYPE_CARRY], dirty_threshold=0.0)
    assert eco.plan == "cold"
    assert eco.fallback_reason == "dirty_fraction"
    assert eco.dirty_fraction > 0.0


def test_structural_edit_falls_back_cold():
    base = _base()
    state = EcoState(base, delay_model=XC4000E_DELAY)
    ops = [
        {
            "op": "add_gate",
            "name": "extra",
            "fn": "and",
            "inputs": ["a", "b"],
            "output": "xnet",
            "as_output": True,
        }
    ]
    eco = eco_retime(state, ops)
    assert eco.plan == "cold"
    assert eco.fallback_reason == "structural"
    from repro.eco import apply_edit_script

    _assert_matches_cold(eco, apply_edit_script(base, ops), XC4000E_DELAY)


def test_control_edit_falls_back_cold():
    base = _base()
    state = EcoState(base, delay_model=XC4000E_DELAY)
    ops = [{"op": "set_control", "name": "r0", "en": "a"}]
    reg = next(iter(base.registers))
    ops[0]["name"] = reg
    eco = eco_retime(state, ops)
    assert eco.plan == "cold"
    assert eco.fallback_reason == "structural"


def test_conflicting_model_rejected():
    state = EcoState(_base(), delay_model=XC4000E_DELAY)
    with pytest.raises(ValueError, match="delay_model"):
        eco_retime(state, [], delay_model=UNIT_DELAY)


def test_solve_cache_eviction_is_lru_bounded():
    base = _base()
    state = EcoState(base, delay_model=XC4000E_DELAY, max_solve_records=1)
    assert eco_retime(state, [RETYPE_CARRY]).plan == "resolve"
    assert eco_retime(state, [RETYPE_CARRY]).plan == "reuse"
    # a different delay-changing edit claims the single slot...
    assert eco_retime(state, [RETYPE_BUF]).plan == "resolve"
    # ...so the first edit must re-solve (still exact, just not cached)
    evicted = eco_retime(state, [RETYPE_CARRY])
    assert evicted.plan == "resolve"
    from repro.eco import apply_edit_script

    _assert_matches_cold(
        evicted, apply_edit_script(base, [RETYPE_CARRY]), XC4000E_DELAY
    )


def test_solve_cache_keeps_the_entry_it_just_reused():
    """A reuse refreshes its entry, so the next insertion evicts the
    least recently used solve instead."""
    base = _base()
    state = EcoState(base, delay_model=XC4000E_DELAY, max_solve_records=2)
    a, b, e = [RETYPE_CARRY], [RETYPE_BUF], []
    plans = [eco_retime(state, edit).plan for edit in (a, b, a, e)]
    assert plans == ["resolve", "resolve", "reuse", "resolve"]
    last_a = eco_retime(state, a)
    assert last_a.plan == "reuse"
    _assert_matches_cold(last_a, apply_edit_script(base, a), XC4000E_DELAY)
    assert eco_retime(state, b).plan == "resolve"


def test_accepts_edited_circuit_instead_of_script():
    base = _base()
    state = EcoState(base, delay_model=XC4000E_DELAY)
    from repro.eco import apply_edit_script

    edited = apply_edit_script(base, [RETYPE_CARRY])
    eco = eco_retime(state, edited)
    assert eco.plan == "resolve"
    _assert_matches_cold(eco, edited, XC4000E_DELAY)


SEEDCHECK = """
.model seedcheck
.inputs clk a b c
.outputs out1 out2
.names a b n1
11 1
.names n1 c n2
10 1
.names n2 q1 n3
01 1
.mcff r1 d=n3 q=q1 clk=clk
.mcff r2 d=n2 q=q2 clk=clk en=c
.mcff r3 d=n1 q=q3 clk=clk sr=a sval=0
.names q1 q2 out1
11 1
.names q3 n2 out2
10 1
.end
"""


def test_infeasible_target_raises_the_cold_certificate():
    """A warm solve of an infeasible target period fails exactly like a
    cold one: the same error type, message and negative cycle."""
    base = read_blif(SEEDCHECK)
    edit = [{"op": "retype_gate", "name": "lut$n1", "fn": "lut", "table": 6}]
    options = {"target_period": 0.5, "objective": "minperiod"}
    with pytest.raises(InfeasibleConstraints) as cold:
        mc_retime(apply_edit_script(base, edit), UNIT_DELAY, **options)
    state = EcoState(base, delay_model=UNIT_DELAY)
    with pytest.raises(InfeasibleConstraints) as warm:
        eco_retime(state, edit, **options)
    assert state.stats["cold"] == 0  # the warm path raised
    assert str(warm.value) == str(cold.value)
    assert warm.value.cycle == cold.value.cycle
    assert infeasible_payload(warm.value)["valid"] is True

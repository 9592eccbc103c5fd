"""Hypothesis differential suite: ECO results must be bit-identical.

Random base circuits take random cumulative edit sequences; after every
step the incremental result is compared byte-for-byte (written netlist)
and metric-for-metric against a cold :func:`mc_retime` of the edited
circuit.  Warm, reuse, and every fallback path flow through the same
assertion — the plan chosen is an implementation detail, the output
contract is not.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.eco import (
    EcoState,
    apply_edit_script,
    deterministic_metrics,
    diff_circuits,
    eco_retime,
)
from repro.mcretime import mc_retime
from repro.netlist import Circuit, GateFn, write_blif
from repro.timing import UNIT_DELAY, XC4000E_DELAY
from tests.strategies import circuits

RELAXED = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

# retype targets by arity; LUT handled separately (needs a table)
_FNS_1 = [GateFn.AND, GateFn.OR, GateFn.NAND, GateFn.NOR, GateFn.XOR,
          GateFn.XNOR, GateFn.BUF, GateFn.NOT]
_FNS_2 = [GateFn.AND, GateFn.OR, GateFn.NAND, GateFn.NOR, GateFn.XOR,
          GateFn.XNOR]
_FNS_3 = _FNS_2 + [GateFn.MUX, GateFn.CARRY]


def _read_nets(circuit: Circuit) -> set[str]:
    """Nets read by some cell (primary outputs are not 'reads' here —
    remove_gate prunes the output list itself)."""
    read: set[str] = set()
    for gate in circuit.gates.values():
        read.update(gate.inputs)
    for reg in circuit.registers.values():
        read.add(reg.d)
        for pin in (reg.clk, reg.en, reg.sr, reg.ar):
            if pin is not None:
                read.add(pin)
    return read


def _driven_nets(circuit: Circuit) -> list[str]:
    driven = [n for n in circuit.inputs if n != "clk"]
    driven += [g.output for g in circuit.gates.values()]
    driven += [r.q for r in circuit.registers.values()]
    return driven


@st.composite
def edit_ops(draw, current: Circuit, tag: int) -> dict:
    """One valid edit op against *current* (applied cumulatively)."""
    kinds = ["retype_gate", "retype_gate", "retype_gate", "add_gate"]
    if current.registers:
        kinds += ["set_reset", "set_reset", "set_control"]
    reads = _read_nets(current)
    removable = [
        g.name
        for g in current.gates.values()
        if g.output not in reads
        # never strip the last primary output
        and not (g.output in current.outputs and len(current.outputs) == 1)
    ]
    if removable and len(current.gates) > 1:
        kinds.append("remove_gate")
    kind = draw(st.sampled_from(kinds))

    if kind == "retype_gate":
        gate = current.gates[draw(st.sampled_from(list(current.gates)))]
        arity = len(gate.inputs)
        pool = {1: _FNS_1, 2: _FNS_2, 3: _FNS_3}.get(arity, [GateFn.LUT])
        fn = draw(st.sampled_from(list(pool) + [GateFn.LUT]))
        op = {"op": "retype_gate", "name": gate.name, "fn": fn.value}
        if fn is GateFn.LUT:
            op["table"] = draw(
                st.integers(min_value=0, max_value=(1 << (1 << arity)) - 1)
            )
        return op
    if kind == "set_reset":
        name = draw(st.sampled_from(list(current.registers)))
        return {
            "op": "set_reset",
            "name": name,
            "sval": draw(st.sampled_from([0, 1, 2])),
            "aval": draw(st.sampled_from([0, 1, 2])),
        }
    if kind == "set_control":
        name = draw(st.sampled_from(list(current.registers)))
        pool = [n for n in current.inputs if n != "clk"]
        return {
            "op": "set_control",
            "name": name,
            draw(st.sampled_from(["en", "sr", "ar"])): draw(
                st.sampled_from(pool + [None])
            ),
        }
    if kind == "remove_gate":
        return {"op": "remove_gate", "name": draw(st.sampled_from(removable))}
    # add_gate: fresh name/net, inputs from already-driven nets
    driven = _driven_nets(current)
    arity = draw(st.integers(min_value=1, max_value=min(3, len(driven))))
    fn = draw(st.sampled_from({1: _FNS_1, 2: _FNS_2, 3: _FNS_3}[arity]))
    ins = [draw(st.sampled_from(driven)) for _ in range(arity)]
    return {
        "op": "add_gate",
        "name": f"ecox{tag}",
        "fn": fn.value,
        "inputs": ins,
        "output": f"ecox{tag}_o",
        "as_output": draw(st.booleans()),
    }


@st.composite
def base_and_edits(draw, max_steps: int = 4):
    base = draw(circuits(max_inputs=4, max_gates=10, max_registers=4))
    ops: list[dict] = []
    current = base
    n_steps = draw(st.integers(min_value=1, max_value=max_steps))
    for k in range(n_steps):
        op = draw(edit_ops(current, tag=k))
        ops.append(op)
        current = apply_edit_script(base, ops)
    return base, ops


def _assert_step_identical(state, base, ops, model, **kwargs):
    """Run one cumulative step warm and cold; both must agree exactly —
    including on failure (same exception type)."""
    edited = apply_edit_script(base, ops)
    try:
        cold = mc_retime(edited, delay_model=model)
    except Exception as exc:  # noqa: BLE001 — mirror whatever cold does
        with pytest.raises(type(exc)):
            eco_retime(state, ops, **kwargs)
        return False
    eco = eco_retime(state, ops, **kwargs)
    assert write_blif(eco.result.circuit) == write_blif(cold.circuit)
    assert deterministic_metrics(eco.result) == deterministic_metrics(cold)
    return True


@RELAXED
@given(data=base_and_edits())
def test_eco_matches_cold_unit_delay(data):
    base, ops = data
    state = EcoState(base, delay_model=UNIT_DELAY)
    for step in range(1, len(ops) + 1):
        if not _assert_step_identical(state, base, ops[:step], UNIT_DELAY):
            return


@RELAXED
@given(data=base_and_edits())
def test_eco_matches_cold_xc4000e(data):
    base, ops = data
    state = EcoState(base, delay_model=XC4000E_DELAY)
    for step in range(1, len(ops) + 1):
        if not _assert_step_identical(state, base, ops[:step], XC4000E_DELAY):
            return


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=base_and_edits(max_steps=2))
def test_forced_fallbacks_match_cold(data):
    """force_cold and a zero dirty-threshold must still be exact."""
    base, ops = data
    state = EcoState(base, delay_model=XC4000E_DELAY)
    if not _assert_step_identical(state, base, ops, XC4000E_DELAY,
                                  force_cold=True):
        return
    _assert_step_identical(state, base, ops, XC4000E_DELAY,
                           dirty_threshold=0.0)


@RELAXED
@given(circuit=circuits(max_inputs=4, max_gates=10, max_registers=4))
def test_repeated_identical_edit_hits_the_cache(circuit):
    """The second submission of the same edit must come from the solve
    cache (plan == reuse) and still match cold exactly."""
    try:
        cold = mc_retime(circuit, delay_model=UNIT_DELAY)
    except Exception:  # noqa: BLE001 — unsolvable draws are not the point here
        return
    state = EcoState(circuit, delay_model=UNIT_DELAY)
    first = eco_retime(state, [])
    second = eco_retime(state, [])
    assert first.plan == "resolve" or first.plan == "cold"
    # conflict-free solves are cached; conflicted trajectories are not
    # (their replay depends on justification state, so they re-solve)
    if first.plan == "resolve" and first.result.resolve_attempts == 0:
        assert second.plan == "reuse"
    for eco in (first, second):
        assert write_blif(eco.result.circuit) == write_blif(cold.circuit)
        assert deterministic_metrics(eco.result) == deterministic_metrics(cold)


@RELAXED
@given(data=base_and_edits(max_steps=3))
def test_diff_roundtrip_classification(data):
    """The diff of base vs (base + script) touches exactly the cells the
    script names, and an empty tail keeps the diff stable."""
    base, ops = data
    edited = apply_edit_script(base, ops)
    d = diff_circuits(base, edited)
    named = {op["name"] for op in ops}
    touched = set(
        d.added_gates + d.removed_gates + d.retyped_gates + d.rewired_gates
        + d.control_changed + d.reset_changed
    )
    # every touched cell traces back to an op (ops may cancel out, so <=)
    assert touched <= named
    assert diff_circuits(edited, edited.clone()).is_empty

"""Structural decomposition passes.

Three jobs:

* :func:`decompose_sync_resets` — XC4000E flip-flops have no synchronous
  set/clear, so SS/SC pins are decomposed into logic ahead of the D pin
  (exactly what the paper does: "all such inputs inferred by the HDL
  analyzer are decomposed into additional logic before the optimization
  and mapping").
* :func:`decompose_enables` — turns the EN pin into a D-side multiplexer
  with a Q feedback (paper Fig. 1c).  Used by the Table 3 baseline
  experiment, where load enables are *not* preserved for retiming.
* :func:`decompose_to_two_input` — splits wide gates into trees of
  2-input gates so cut enumeration stays cheap.
"""

from __future__ import annotations

from ..logic.ternary import T1, TX
from ..netlist import Circuit, GateFn
from ..netlist.cells import Gate


def decompose_sync_resets(circuit: Circuit) -> int:
    """Rewrite SS/SC pins as logic in front of D; returns #registers hit.

    Semantics preserved: ``if sr: Q <= sval elif en: Q <= D`` becomes
    ``en' = en OR sr`` and ``d' = sr ? sval : d``.  A don't-care sval is
    materialised as a clear (0).
    """
    count = 0
    for reg in list(circuit.registers.values()):
        if not reg.has_sync_reset:
            if reg.sr is not None:  # constant-0 reset pin: just drop it
                circuit.set_register_pin(reg, "sr", None)
            continue
        sr = reg.sr
        sval = reg.sval
        if sval == T1:
            new_d = circuit.add_gate(GateFn.OR, [reg.d, sr]).output
        else:  # clear for 0 and for don't-care
            inv = circuit.add_gate(GateFn.NOT, [sr]).output
            new_d = circuit.add_gate(GateFn.AND, [reg.d, inv]).output
        circuit.set_register_pin(reg, "d", new_d)
        if reg.has_enable:
            en = circuit.add_gate(GateFn.OR, [reg.en, sr]).output
            circuit.set_register_pin(reg, "en", en)
        circuit.set_register_pin(reg, "sr", None)
        reg.sval = TX
        count += 1
    return count


def decompose_enables(circuit: Circuit) -> int:
    """Rewrite EN pins as a D-side hold multiplexer (paper Fig. 1c)."""
    count = 0
    for reg in list(circuit.registers.values()):
        if not reg.has_enable:
            if reg.en is not None:  # constant-1 enable: drop the pin
                circuit.set_register_pin(reg, "en", None)
            continue
        mux = circuit.add_gate(GateFn.MUX, [reg.en, reg.q, reg.d])
        circuit.set_register_pin(reg, "d", mux.output)
        circuit.set_register_pin(reg, "en", None)
        count += 1
    return count


def _balanced_tree(
    circuit: Circuit, fn: GateFn, nets: list[str]
) -> str:
    if len(nets) == 1:
        return nets[0]
    mid = len(nets) // 2
    left = _balanced_tree(circuit, fn, nets[:mid])
    right = _balanced_tree(circuit, fn, nets[mid:])
    return circuit.add_gate(fn, [left, right]).output


_TREE_FAMILIES = {
    GateFn.AND: (GateFn.AND, False),
    GateFn.NAND: (GateFn.AND, True),
    GateFn.OR: (GateFn.OR, False),
    GateFn.NOR: (GateFn.OR, True),
    GateFn.XOR: (GateFn.XOR, False),
    GateFn.XNOR: (GateFn.XOR, True),
}


def _shannon(circuit: Circuit, gate: Gate) -> str:
    """Recursive Shannon decomposition of a wide LUT into 2-input gates.

    Splits on the highest pin: ``f = s ? f1 : f0`` built from AND/OR/NOT.
    """
    n = gate.n_inputs
    table = gate.truth_table()
    return _shannon_rec(circuit, table, list(gate.inputs))


def _shannon_rec(circuit: Circuit, table: int, inputs: list[str]) -> str:
    n = len(inputs)
    if n == 0:
        from ..netlist.signals import const_net

        return const_net(table & 1)
    if n <= 2:
        gate = circuit.add_gate(GateFn.LUT, inputs, table=table)
        return gate.output
    half = 1 << (n - 1)
    mask = (1 << half) - 1
    sel = inputs[-1]
    low = _shannon_rec(circuit, table & mask, inputs[:-1])
    high = _shannon_rec(circuit, (table >> half) & mask, inputs[:-1])
    if low == high:
        return low
    nsel = circuit.add_gate(GateFn.NOT, [sel]).output
    a = circuit.add_gate(GateFn.AND, [nsel, low]).output
    b = circuit.add_gate(GateFn.AND, [sel, high]).output
    return circuit.add_gate(GateFn.OR, [a, b]).output


def decompose_to_two_input(circuit: Circuit) -> int:
    """Split every gate with more than 2 inputs; returns #gates split.

    Hardwired carry cells are architectural primitives and are kept
    whole (the mapper preserves them too)."""
    count = 0
    for gate in list(circuit.gates.values()):
        if gate.n_inputs <= 2 or gate.fn is GateFn.CARRY:
            continue
        family = _TREE_FAMILIES.get(gate.fn)
        if family is not None:
            fn, invert = family
            result = _balanced_tree(circuit, fn, list(gate.inputs))
            if invert:
                result = circuit.add_gate(GateFn.NOT, [result]).output
        else:
            result = _shannon(circuit, gate)
        out = gate.output
        circuit.remove_gate(gate.name)
        circuit.replace_net(out, result)
        count += 1
    return count

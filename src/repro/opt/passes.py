"""Technology-independent logic optimisation passes.

The paper's synthesis script runs "logic synthesis, optimization and
mapping"; these passes are the optimization stage.  All passes take a
circuit and mutate it in place, returning the number of changes, so
flows can iterate to a fixed point with :func:`optimize`.

Passes:

* :func:`propagate_constants` — fold constant inputs into gate tables,
  replace constant gates by the constant nets;
* :func:`collapse_buffers` — bypass BUF gates and single-input identity
  LUTs (double inverters collapse via table folding + this pass);
* :func:`share_structural` — merge gates with identical (function,
  inputs) signatures (structural hashing);
* :func:`sweep_dead` — remove gates and registers that reach no primary
  output or register control pin.
"""

from __future__ import annotations

from ..netlist import Circuit, GateFn
from ..netlist.signals import const_net, is_const


def propagate_constants(circuit: Circuit) -> int:
    """Fold constant inputs; replace constant-output gates by constants.

    Iterates in topological order so constants flow forward in one call.
    """
    changes = 0
    for gate in circuit.topo_gates():
        if gate.name not in circuit.gates:
            continue
        table = gate.truth_table()
        n = gate.n_inputs
        # cofactor constant pins out of the table, highest pin first so
        # lower pin indexes stay valid
        for pin in range(n - 1, -1, -1):
            net = gate.inputs[pin]
            if not is_const(net):
                continue
            value = 1 if net == const_net(1) else 0
            table = _cofactor(table, len(gate.inputs), pin, value)
            circuit.remove_gate_input(gate, pin)
            changes += 1
        if len(gate.inputs) != n:
            gate.fn = GateFn.LUT
            gate.table = table
        const = gate.is_constant()
        if const is not None:
            out = gate.output
            circuit.remove_gate(gate.name)
            circuit.replace_net(out, const_net(const))
            changes += 1
    return changes


def _cofactor(table: int, n: int, pin: int, value: int) -> int:
    """Restrict truth table to pin=value, dropping the pin."""
    result = 0
    out_bit = 0
    for minterm in range(1 << n):
        if (minterm >> pin) & 1 != value:
            continue
        if (table >> minterm) & 1:
            result |= 1 << out_bit
        out_bit += 1
    return result


def collapse_buffers(circuit: Circuit) -> int:
    """Collapse 1-input gate chains; bypass identity gates.

    A 1-input gate whose driver is also a 1-input gate absorbs the
    driver's function (so NOT∘NOT becomes the identity), then every
    identity gate is bypassed.  Dead drivers are left for
    :func:`sweep_dead`.
    """
    changes = 0
    for gate in circuit.topo_gates():
        if gate.name not in circuit.gates or gate.n_inputs != 1:
            continue
        driver = circuit.driver_gate(gate.inputs[0])
        while driver is not None and driver.n_inputs == 1:
            h = driver.truth_table()
            g = gate.truth_table()
            folded = ((g >> (h & 1)) & 1) | (((g >> ((h >> 1) & 1)) & 1) << 1)
            gate.fn = GateFn.LUT
            gate.table = folded
            circuit.set_gate_input(gate, 0, driver.inputs[0])
            changes += 1
            driver = circuit.driver_gate(gate.inputs[0])
    for gate in list(circuit.gates.values()):
        if gate.n_inputs != 1:
            continue
        if gate.truth_table() != 0b10:  # not the identity function
            continue
        source = gate.inputs[0]
        out = gate.output
        if _bypass_closes_register_ring(circuit, source, out):
            # an identity gate between a register Q and a register D may
            # be the only combinational cell on a sequential loop; bypassing
            # it would create a pure register ring, which the retiming
            # graph (rightly) rejects — keep the buffer as the anchor
            continue
        circuit.remove_gate(gate.name)
        circuit.replace_net(out, source)
        changes += 1
    return changes


def _bypass_closes_register_ring(
    circuit: Circuit, source: str, out: str
) -> bool:
    """Would rewiring readers of *out* to *source* create a cycle of
    registers with no combinational cell on it?"""
    reg = circuit.driver_register(source)
    if reg is None:
        return False
    victims = {
        name
        for kind, name, pin in circuit.readers(out)
        if kind == "register" and pin == 0
    }
    if not victims:
        return False
    # walk the register-only chain upstream of `source`; if it reaches a
    # victim register, the bypass closes a pure ring
    seen: set[str] = set()
    while reg is not None and reg.name not in seen:
        seen.add(reg.name)
        reg = circuit.driver_register(reg.d)
    return bool(victims & seen)


def share_structural(circuit: Circuit) -> int:
    """Merge gates with identical function and input nets."""
    changes = 0
    seen: dict[tuple, str] = {}
    for gate in circuit.topo_gates():
        if gate.name not in circuit.gates:
            continue
        key = (gate.truth_table(), tuple(gate.inputs))
        keeper = seen.get(key)
        if keeper is None:
            seen[key] = gate.name
            continue
        keep_out = circuit.gates[keeper].output
        out = gate.output
        circuit.remove_gate(gate.name)
        circuit.replace_net(out, keep_out)
        changes += 1
    return changes


def sweep_dead(circuit: Circuit) -> int:
    """Remove logic unreachable (backward) from the primary outputs.

    Marks nets by walking fanin cones from the outputs, through both
    gates and registers (D, clock, and control pins).  Everything
    unmarked — including self-sustaining register rings that no output
    observes — is deleted.
    """
    marked: set[str] = set()
    work = list(circuit.outputs)
    while work:
        net = work.pop()
        if net in marked:
            continue
        marked.add(net)
        gate = circuit.driver_gate(net)
        if gate is not None:
            work.extend(gate.inputs)
            continue
        reg = circuit.driver_register(net)
        if reg is not None:
            work.append(reg.d)
            work.append(reg.clk)
            for pin in (reg.en, reg.sr, reg.ar):
                if pin is not None:
                    work.append(pin)
    removed = 0
    for gate in list(circuit.gates.values()):
        if gate.output not in marked:
            circuit.remove_gate(gate.name)
            removed += 1
    for reg in list(circuit.registers.values()):
        if reg.q not in marked:
            circuit.remove_register(reg.name)
            removed += 1
    return removed


def optimize(circuit: Circuit, max_rounds: int = 20) -> int:
    """Run all passes to a fixed point; returns total changes."""
    total = 0
    for _ in range(max_rounds):
        round_changes = (
            propagate_constants(circuit)
            + collapse_buffers(circuit)
            + share_structural(circuit)
            + sweep_dead(circuit)
        )
        total += round_changes
        if not round_changes:
            break
    return total

"""Depth-oriented K-LUT technology mapping.

Pipeline: optimise → decompose to 2-input gates → enumerate priority
cuts → cover from the required nets (primary outputs and every register
pin) choosing each net's best cut → emit one LUT per chosen cut with
the cone's composed truth table.

Covered nets keep their names, so register connections (including
control pins) survive mapping untouched — important because register
classification compares control *functions* and the functions are
preserved exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import obs
from ..netlist import Circuit, GateFn
from ..netlist.signals import is_const
from ..opt.passes import optimize
from .cuts import Cut, CutDatabase, enumerate_cuts
from .decompose import decompose_to_two_input


@dataclass
class MapResult:
    """Outcome of a mapping run."""

    circuit: Circuit
    n_luts: int
    depth: int


def cone_truth_table(
    circuit: Circuit,
    root: str,
    leaves: list[str],
    topo_index: dict[str, int] | None = None,
) -> int:
    """Truth table of net *root* as a function of *leaves*.

    Brute-force over the ≤ 2^K leaf assignments, evaluating the cone
    gate by gate — exact and simple (K ≤ 4 post-mapping ⇒ ≤ 16 sweeps).
    A precomputed gate-name→topological-index map avoids re-sorting the
    whole netlist per cone.
    """
    from ..netlist.signals import const_value

    if topo_index is None:
        topo_index = {g.name: i for i, g in enumerate(circuit.topo_gates())}
    leaf_set = set(leaves)
    cone: list = []
    seen: set[str] = set()
    stack = [root]
    while stack:
        net = stack.pop()
        if net in leaf_set or net in seen:
            continue
        seen.add(net)
        gate = circuit.driver_gate(net)
        if gate is not None:
            cone.append(gate)
            stack.extend(gate.inputs)
    cone.sort(key=lambda g: topo_index[g.name])
    table = 0
    for assignment in range(1 << len(leaves)):
        values = {
            leaf: (assignment >> i) & 1 for i, leaf in enumerate(leaves)
        }
        for gate in cone:
            ins = []
            for net in gate.inputs:
                if is_const(net):
                    ins.append(const_value(net))
                else:
                    ins.append(values.get(net, 0))
            values[gate.output] = gate.eval_binary(ins)
        if values.get(root, 0):
            table |= 1 << assignment
    return table


def _required_nets(circuit: Circuit) -> list[str]:
    required: dict[str, None] = {}
    for net in circuit.outputs:
        required.setdefault(net)
    for reg in circuit.registers.values():
        for net in (reg.d, reg.en, reg.sr, reg.ar):
            if net is not None and not is_const(net):
                required.setdefault(net)
    return list(required)


def cover(circuit: Circuit, db: CutDatabase) -> Circuit:
    """Select best cuts from the required nets; emit the LUT netlist.

    Hardwired carry cells are copied through verbatim; their inputs
    become covering roots of their own."""
    mapped = Circuit(circuit.name)
    for net in circuit.inputs:
        mapped.add_input(net)

    carry_by_output = {
        g.output: g for g in circuit.gates.values() if g.fn is GateFn.CARRY
    }
    chosen: dict[str, Cut] = {}
    carries: dict[str, None] = {}
    work = [
        net for net in _required_nets(circuit)
        if circuit.driver_gate(net) is not None
    ]
    while work:
        net = work.pop()
        if net in chosen or net in carries:
            continue
        carry = carry_by_output.get(net)
        if carry is not None:
            carries[net] = None
            for pin in sorted(set(carry.inputs)):
                if circuit.driver_gate(pin) is not None:
                    work.append(pin)
            continue
        cut = db.best.get(net)
        if cut is None:  # undriven or sequential leaf
            continue
        chosen[net] = cut
        # sorted: frozenset iteration order is hash-seed dependent and
        # would make gate creation order (hence names) irreproducible
        for leaf in sorted(cut.leaves):
            if circuit.driver_gate(leaf) is not None and leaf not in chosen:
                work.append(leaf)

    topo_index = {g.name: i for i, g in enumerate(circuit.topo_gates())}
    for net in carries:
        carry = carry_by_output[net]
        mapped.add_gate(GateFn.CARRY, list(carry.inputs), net, name=None)
    for net, cut in chosen.items():
        leaves = sorted(cut.leaves)
        table = cone_truth_table(circuit, net, leaves, topo_index)
        mapped.add_gate(GateFn.LUT, leaves, net, name=None, table=table)

    for reg in circuit.registers.values():
        mapped.add_register(
            d=reg.d,
            q=reg.q,
            clk=reg.clk,
            name=reg.name,
            en=reg.en,
            sr=reg.sr,
            ar=reg.ar,
            sval=reg.sval,
            aval=reg.aval,
        )
    for net in circuit.outputs:
        mapped.add_output(net)
    return mapped


def map_luts(
    circuit: Circuit,
    k: int = 4,
    priority: int = 8,
    optimise: bool = True,
    mode: str = "depth",
) -> MapResult:
    """Full mapping pipeline on a clone of *circuit*.

    ``mode="depth"`` minimises mapped depth (ties by area) — the
    paper's minimal-area-for-best-delay setup; ``mode="area"`` selects
    cuts by area flow for the plain minimal-area script.
    """
    work = circuit.clone()
    if optimise:
        with obs.span("lutmap.optimize"):
            optimize(work)
    with obs.span("lutmap.decompose"):
        decompose_to_two_input(work)
    if optimise:
        with obs.span("lutmap.optimize"):
            optimize(work)
    with obs.span("lutmap.cuts"):
        db = enumerate_cuts(work, k=k, priority=priority, mode=mode)
    with obs.span("lutmap.cover"):
        mapped = cover(work, db)
    depth = max(
        (db.depth_of(net) for net in _required_nets(work)), default=0
    )
    return MapResult(mapped, n_luts=len(mapped.gates), depth=depth)

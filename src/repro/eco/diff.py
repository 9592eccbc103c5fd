"""Netlist diffing and edit scripts for incremental (ECO) retiming.

Two circuits of the same design lineage are compared cell by cell into
a :class:`CircuitDiff`: which gates were added, removed, re-typed
(function/table changed, pins identical) or rewired, which registers
changed their reset values, control pins or connectivity, and which
nets the edit touched.  The diff drives the plan decision in
:func:`repro.eco.eco_retime` — a *topology-preserving* edit (only gate
functions and register reset values changed, cell order intact) keeps
the base design's retiming graph structurally identical, so the solver
prefix (build → bounds → sharing) and, when delays are also unchanged,
the whole solve can be reused.

Edits also travel as **edit scripts**: JSON-able lists of operation
dicts that :func:`apply_edit_script` replays onto a clone of the base
circuit.  The service layer ships scripts instead of full netlists for
``RetimeJob(base_key=..., edit=...)`` submissions.

Supported operations::

    {"op": "retype_gate", "name": g, "fn": "nand", "table": null}
    {"op": "set_reset",   "name": f, "sval": 1, "aval": 2}
    {"op": "set_control", "name": f, "en": "net" | null, ...}
    {"op": "add_gate",    "name": g, "fn": "and", "inputs": [...],
                          "output": net, "table": null,
                          "as_output": true}
    {"op": "remove_gate", "name": g}

Reset values are the ternary integers of :mod:`repro.logic.ternary`
(0, 1, 2 = don't-care), so scripts round-trip through JSON untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..netlist import Circuit, GateFn


#: ops that keep the retiming graph's structure (vertices, edges,
#: weights) identical; only vertex delays and reset values may move
_TOPOLOGY_PRESERVING_OPS = frozenset({"retype_gate", "set_reset"})


@dataclass
class CircuitDiff:
    """Cell-level difference between a base and an edited circuit."""

    #: gate names present only in the edited circuit
    added_gates: list[str] = field(default_factory=list)
    #: gate names present only in the base circuit
    removed_gates: list[str] = field(default_factory=list)
    #: same name and pins, different function or truth table
    retyped_gates: list[str] = field(default_factory=list)
    #: same name, different inputs or output net
    rewired_gates: list[str] = field(default_factory=list)
    added_registers: list[str] = field(default_factory=list)
    removed_registers: list[str] = field(default_factory=list)
    #: registers whose d/q/clk/en/sr/ar nets changed (class-relevant)
    control_changed: list[str] = field(default_factory=list)
    #: registers whose sval/aval changed (relocation-relevant only)
    reset_changed: list[str] = field(default_factory=list)
    #: primary input/output lists or circuit name differ
    io_changed: bool = False
    #: cell insertion order differs (vertex ids would renumber)
    order_changed: bool = False
    #: nets whose driving cell or timing the edit may have altered
    touched_nets: set[str] = field(default_factory=set)

    @property
    def is_empty(self) -> bool:
        return not (
            self.added_gates
            or self.removed_gates
            or self.retyped_gates
            or self.rewired_gates
            or self.added_registers
            or self.removed_registers
            or self.control_changed
            or self.reset_changed
            or self.io_changed
            or self.order_changed
        )

    @property
    def topology_preserving(self) -> bool:
        """True when the mc-graph of the edited circuit has the same
        vertices, edges, weights, and register classes-by-position as
        the base — only vertex delays (gate retypes) and reset values
        may differ.  The solver prefix (build → bounds → sharing) is
        then structurally identical and reusable."""
        return not (
            self.added_gates
            or self.removed_gates
            or self.rewired_gates
            or self.added_registers
            or self.removed_registers
            or self.control_changed
            or self.io_changed
            or self.order_changed
        )

    @property
    def n_touched_cells(self) -> int:
        return (
            len(self.added_gates)
            + len(self.removed_gates)
            + len(self.retyped_gates)
            + len(self.rewired_gates)
            + len(self.added_registers)
            + len(self.removed_registers)
            + len(self.control_changed)
            + len(self.reset_changed)
        )

    def dirty_fraction(self, circuit: Circuit) -> float:
        """Touched cells as a fraction of the edited design's cells."""
        total = len(circuit.gates) + len(circuit.registers)
        if total == 0:
            return 1.0 if not self.is_empty else 0.0
        return min(1.0, self.n_touched_cells / total)


def diff_circuits(base: Circuit, edited: Circuit) -> CircuitDiff:
    """Compare two circuits cell by cell.

    The comparison is name-keyed: a gate present in both circuits under
    the same name is classified as unchanged / retyped / rewired; cell
    *insertion order* is compared separately (``order_changed``) because
    compiled-graph vertex ids follow it.
    """
    d = CircuitDiff()
    d.io_changed = (
        base.inputs != edited.inputs
        or base.outputs != edited.outputs
        or base.name != edited.name
    )

    base_gates = base.gates
    new_gates = edited.gates
    for name, gate in new_gates.items():
        old = base_gates.get(name)
        if old is None:
            d.added_gates.append(name)
            d.touched_nets.add(gate.output)
        elif old.inputs != gate.inputs or old.output != gate.output:
            d.rewired_gates.append(name)
            d.touched_nets.add(gate.output)
            d.touched_nets.add(old.output)
        elif old.fn is not gate.fn or old.truth_table() != gate.truth_table():
            d.retyped_gates.append(name)
            d.touched_nets.add(gate.output)
    for name, gate in base_gates.items():
        if name not in new_gates:
            d.removed_gates.append(name)
            d.touched_nets.add(gate.output)

    base_regs = base.registers
    new_regs = edited.registers
    for name, reg in new_regs.items():
        old = base_regs.get(name)
        if old is None:
            d.added_registers.append(name)
            d.touched_nets.add(reg.q)
            continue
        if (
            old.d != reg.d
            or old.q != reg.q
            or old.clk != reg.clk
            or old.en != reg.en
            or old.sr != reg.sr
            or old.ar != reg.ar
        ):
            d.control_changed.append(name)
            d.touched_nets.add(reg.q)
            d.touched_nets.add(old.q)
        elif old.sval != reg.sval or old.aval != reg.aval:
            d.reset_changed.append(name)
    for name, reg in base_regs.items():
        if name not in new_regs:
            d.removed_registers.append(name)
            d.touched_nets.add(reg.q)

    # vertex/edge ids follow cell insertion order; a reordering with
    # identical content still renumbers the compiled arrays (compare
    # common cells only — adds/removes are already classified above)
    if not d.order_changed:
        d.order_changed = [n for n in base_gates if n in new_gates] != [
            n for n in new_gates if n in base_gates
        ] or [n for n in base_regs if n in new_regs] != [
            n for n in new_regs if n in base_regs
        ]
    return d


def _fn_of(value: str) -> GateFn:
    try:
        return GateFn(value)
    except ValueError:
        raise ValueError(f"unknown gate function {value!r}") from None


def apply_edit_script(circuit: Circuit, ops: list[dict]) -> Circuit:
    """Replay *ops* onto a clone of *circuit*; the input is untouched.

    Raises ``ValueError``/``KeyError`` on malformed operations (unknown
    op kind, missing cell, bad function name) — the service layer maps
    these to HTTP 400.
    """
    work = circuit.clone()
    for op in ops:
        kind = op.get("op")
        if kind == "retype_gate":
            gate = work.gates[op["name"]]
            fn = _fn_of(op["fn"])
            table = op.get("table")
            if fn is not GateFn.LUT and table is None:
                # primitive retype: let the arity check validate
                replacement = type(gate)(
                    gate.name, fn, list(gate.inputs), gate.output
                )
            else:
                replacement = type(gate)(
                    gate.name, fn, list(gate.inputs), gate.output, table
                )
            # swap in place, preserving insertion order
            work.gates[gate.name] = replacement
        elif kind == "set_reset":
            reg = work.registers[op["name"]]
            if "sval" in op:
                reg.sval = int(op["sval"])
            if "aval" in op:
                reg.aval = int(op["aval"])
        elif kind == "set_control":
            reg = work.registers[op["name"]]
            for pin in ("en", "sr", "ar"):
                if pin in op:
                    work.set_register_pin(reg, pin, op[pin])
        elif kind == "add_gate":
            work.add_gate(
                _fn_of(op["fn"]),
                list(op["inputs"]),
                op["output"],
                name=op["name"],
                table=op.get("table"),
            )
            if op.get("as_output"):
                work.add_output(op["output"])
        elif kind == "remove_gate":
            gate = work.remove_gate(op["name"])
            if gate.output in work.outputs:
                work.remove_output(work.outputs.index(gate.output))
        else:
            raise ValueError(f"unknown edit op {kind!r}")
    return work

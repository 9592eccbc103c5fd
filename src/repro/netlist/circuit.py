"""The circuit container: a flat netlist of gates, registers, and ports.

This is the central mutable data structure of the library.  Everything —
optimization passes, technology mapping, retiming-graph construction, and
register relocation — reads and edits a :class:`Circuit`.

Design notes
------------
* Nets are strings.  Each net has at most one driver: a primary input, a
  gate output, a register Q, or one of the two constant nets.
* The container keeps two indexes: each net's driver, and each net's
  readers (the cell pins and output ports that use it).  Every mutator
  updates both in place, so :meth:`Circuit.replace_net` rewrites only
  the net's readers and no query ever rebuilds an index from the cells.
* Pins are therefore written only through :class:`Circuit` methods:
  ``set_gate_input``, ``remove_gate_input``, ``set_register_pin``,
  ``set_output``, ``remove_output``, ``replace_net`` and ``map_nets``.
  Assigning ``gate.inputs[i]``, ``reg.d`` (or any register pin) or
  ``circuit.outputs`` directly leaves the reader index stale.
* Registers never participate in combinational topological order: their
  Q pins act as sources and their D/control pins as sinks.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Callable, Iterable, Iterator

from .cells import Gate, GateFn, Port, Register
from .signals import CONST0, CONST1, NetNamer, is_const

#: register pins in reader-index order (pin 0=D, 1=CLK, 2=EN, 3=SR, 4=AR)
REGISTER_PINS = ("d", "clk", "en", "sr", "ar")

_KIND_ORDER = {"gate": 0, "register": 1}


class NetlistError(Exception):
    """Raised on structural violations (double drivers, missing nets, ...)."""


class Circuit:
    """A flat synchronous netlist.

    Attributes:
        name: design name.
        inputs: primary input port names, in declaration order.
        outputs: primary output port names, in declaration order.
        gates: combinational cells by instance name.
        registers: sequential cells by instance name.
    """

    def __init__(self, name: str = "top") -> None:
        self.name = name
        self.inputs: list[str] = []
        self.outputs: list[str] = []
        self.gates: dict[str, Gate] = {}
        self.registers: dict[str, Register] = {}
        self._driver: dict[str, tuple[str, str]] = {}  # net -> (kind, cell/port name)
        # net -> its readers, kept in the order readers() documents
        self._readers: dict[str, list[tuple[str, str, int]]] = {}
        # cell name -> insertion stamp, the reader order within a kind
        self._rank: dict[str, int] = {}
        self._next_rank = 0
        self.namer = NetNamer()
        self.namer.claim(CONST0)
        self.namer.claim(CONST1)

    # ------------------------------------------------------------------ #
    # construction

    def add_input(self, name: str) -> str:
        """Declare a primary input; the port name is also the net name."""
        if name in self._driver:
            raise NetlistError(f"net {name!r} already driven")
        self.inputs.append(name)
        self._driver[name] = ("input", name)
        self.namer.claim(name)
        return name

    def add_output(self, net: str) -> str:
        """Declare *net* as a primary output (it must be driven by someone)."""
        self._link_new(net, ("output", net, len(self.outputs)))
        self.outputs.append(net)
        self.namer.claim(net)
        return net

    def add_gate(
        self,
        fn: GateFn,
        inputs: Iterable[str],
        output: str | None = None,
        name: str | None = None,
        table: int | None = None,
    ) -> Gate:
        """Create a gate; names and output net are auto-generated if omitted."""
        if name is None:
            name = self.namer.fresh(f"g_{fn.value}")
        else:
            if name in self.gates or name in self.registers:
                raise NetlistError(f"cell name {name!r} already used")
            self.namer.claim(name)
        if output is None:
            output = self.namer.fresh(f"n_{fn.value}")
        else:
            self.namer.claim(output)
        if output in self._driver:
            raise NetlistError(f"net {output!r} already driven")
        gate = Gate(name, fn, list(inputs), output, table)
        self.gates[name] = gate
        self._driver[output] = ("gate", name)
        self._stamp(name)
        for pin, net in enumerate(gate.inputs):
            self._link_new(net, ("gate", name, pin))
        return gate

    def add_register(
        self,
        d: str,
        q: str | None = None,
        clk: str = "clk",
        name: str | None = None,
        en: str | None = None,
        sr: str | None = None,
        ar: str | None = None,
        sval: int = 2,
        aval: int = 2,
    ) -> Register:
        """Create a generic register (paper Fig. 2a)."""
        if name is None:
            name = self.namer.fresh("r")
        else:
            if name in self.gates or name in self.registers:
                raise NetlistError(f"cell name {name!r} already used")
            self.namer.claim(name)
        if q is None:
            q = self.namer.fresh("q")
        else:
            self.namer.claim(q)
        if q in self._driver:
            raise NetlistError(f"net {q!r} already driven")
        reg = Register(name, d, q, clk, en=en, sr=sr, ar=ar, sval=sval, aval=aval)
        self.registers[name] = reg
        self._driver[q] = ("register", name)
        self._stamp(name)
        for pin, net in enumerate((d, clk, en, sr, ar)):
            if net is not None:
                self._link_new(net, ("register", name, pin))
        return reg

    def new_net(self, prefix: str = "n") -> str:
        """Reserve and return a fresh net name (undriven until used)."""
        return self.namer.fresh(prefix)

    # ------------------------------------------------------------------ #
    # removal / rewiring

    def remove_gate(self, name: str) -> Gate:
        """Delete a gate; its output net becomes undriven."""
        gate = self.gates.pop(name)
        del self._driver[gate.output]
        for pin, net in enumerate(gate.inputs):
            self._unlink(net, ("gate", name, pin))
        del self._rank[name]
        return gate

    def remove_register(self, name: str) -> Register:
        """Delete a register; its Q net becomes undriven."""
        reg = self.registers.pop(name)
        del self._driver[reg.q]
        for pin, attr in enumerate(REGISTER_PINS):
            net = getattr(reg, attr)
            if net is not None:
                self._unlink(net, ("register", name, pin))
        del self._rank[name]
        return reg

    def rewire_gate_output(self, gate: Gate, new_output: str) -> None:
        """Move a gate's output to a different (undriven) net."""
        if new_output in self._driver:
            raise NetlistError(f"net {new_output!r} already driven")
        del self._driver[gate.output]
        gate.output = new_output
        self.namer.claim(new_output)
        self._driver[new_output] = ("gate", gate.name)

    def set_gate_input(self, gate: Gate, pin: int, net: str) -> None:
        """Connect input *pin* of *gate* to *net*."""
        old = gate.inputs[pin]
        if old == net:
            return
        entry = ("gate", gate.name, pin)
        self._unlink(old, entry)
        gate.inputs[pin] = net
        self._link(net, entry)

    def remove_gate_input(self, gate: Gate, pin: int) -> str:
        """Drop input *pin* of *gate*; later pins shift down by one.

        Returns the net the pin read.  The gate's function is not
        touched: the caller restates it for the narrower pin list.
        """
        name = gate.name
        self._unlink(gate.inputs[pin], ("gate", name, pin))
        for later in range(pin + 1, len(gate.inputs)):
            self._shift(gate.inputs[later], ("gate", name, later))
        return gate.inputs.pop(pin)

    def set_register_pin(self, reg: Register, pin: str, net: str | None) -> None:
        """Connect register pin *pin* (``"d"``, ``"clk"``, ``"en"``,
        ``"sr"`` or ``"ar"``) to *net*; ``None`` drops a control pin."""
        index = REGISTER_PINS.index(pin)
        if net is None and index < 2:
            raise NetlistError(f"register {reg.name!r} needs a {pin} net")
        old = getattr(reg, pin)
        if old == net:
            return
        entry = ("register", reg.name, index)
        if old is not None:
            self._unlink(old, entry)
        setattr(reg, pin, net)
        if net is not None:
            self._link(net, entry)

    def set_output(self, index: int, net: str) -> None:
        """Make output port *index* observe *net* instead."""
        old = self.outputs[index]
        if old == net:
            return
        self._unlink(old, ("output", old, index))
        self.outputs[index] = net
        self._link(net, ("output", net, index))

    def remove_output(self, index: int) -> str:
        """Delete output port *index*; later ports shift down by one.

        Returns the net the port observed."""
        net = self.outputs[index]
        self._unlink(net, ("output", net, index))
        for later in range(index + 1, len(self.outputs)):
            other = self.outputs[later]
            self._shift(other, ("output", other, later))
        return self.outputs.pop(index)

    def replace_net(self, old: str, new: str) -> int:
        """Substitute every *use* of net ``old`` by ``new``.

        The driver of ``old`` is untouched; returns the number of pins
        rewritten (including output-port uses).  Only the readers of
        ``old`` are visited.
        """
        moved = self._readers.get(old, [])
        if old == new or not moved:
            return len(moved)
        del self._readers[old]
        for i, (kind, name, pin) in enumerate(moved):
            if kind == "gate":
                self.gates[name].inputs[pin] = new
            elif kind == "register":
                setattr(self.registers[name], REGISTER_PINS[pin], new)
            else:
                self.outputs[pin] = new
                moved[i] = ("output", new, pin)
        self._merge(new, moved)
        return len(moved)

    # ------------------------------------------------------------------ #
    # the reader index

    def _stamp(self, name: str) -> None:
        self._rank[name] = self._next_rank
        self._next_rank += 1

    def _order(self, entry: tuple[str, str, int]) -> tuple[int, ...]:
        """Sort key of a reader: gates, then registers, each in insertion
        order with pins ascending, then output ports by index."""
        kind, name, pin = entry
        if kind == "output":
            return (2, pin)
        return (_KIND_ORDER[kind], self._rank[name], pin)

    def _find(self, readers: list, entry: tuple[str, str, int]) -> int:
        return bisect_left(readers, self._order(entry), key=self._order)

    def _link(self, net: str, entry: tuple[str, str, int]) -> None:
        readers = self._readers.get(net)
        if readers is None:
            self._readers[net] = [entry]
        else:
            insort(readers, entry, key=self._order)

    def _link_new(self, net: str, entry: tuple[str, str, int]) -> None:
        """Link a pin of the cell or port added last.  It sorts after
        every reader of its own kind, so it appends unless a reader of a
        later kind (a register after a gate, a port after a cell) ends
        the list."""
        readers = self._readers.get(net)
        if readers is None:
            self._readers[net] = [entry]
        elif readers[-1][0] in ("gate", entry[0]):
            readers.append(entry)
        else:
            insort(readers, entry, key=self._order)

    def _unlink(self, net: str, entry: tuple[str, str, int]) -> None:
        readers = self._readers[net]
        if len(readers) == 1:
            del self._readers[net]
        else:
            del readers[self._find(readers, entry)]

    def _shift(self, net: str, entry: tuple[str, str, int]) -> None:
        """Renumber *entry* one pin (or port) down, in place: an earlier
        pin of the same cell (or port) was dropped."""
        readers = self._readers[net]
        kind, name, pin = entry
        readers[self._find(readers, entry)] = (kind, name, pin - 1)

    def _merge(self, net: str, moved: list[tuple[str, str, int]]) -> None:
        present = self._readers.get(net)
        if present is None:
            self._readers[net] = moved
        else:
            present.extend(moved)
            present.sort(key=self._order)

    # ------------------------------------------------------------------ #
    # queries

    def driver(self, net: str) -> tuple[str, str] | None:
        """Return ``(kind, name)`` driving *net*; constants drive themselves.

        Kinds: ``"input"``, ``"gate"``, ``"register"``, ``"const"``.
        Returns None for undriven nets.
        """
        if is_const(net):
            return ("const", net)
        return self._driver.get(net)

    def driver_gate(self, net: str) -> Gate | None:
        """The gate driving *net*, or None."""
        d = self._driver.get(net)
        if d is not None and d[0] == "gate":
            return self.gates[d[1]]
        return None

    def driver_register(self, net: str) -> Register | None:
        """The register whose Q drives *net*, or None."""
        d = self._driver.get(net)
        if d is not None and d[0] == "register":
            return self.registers[d[1]]
        return None

    def readers(self, net: str) -> list[tuple[str, str, int]]:
        """All sinks of *net* as ``(kind, cell name, pin index)`` triples.

        Kinds: ``"gate"`` (pin index into ``gate.inputs``), ``"register"``
        (pin 0=D, 1=CLK, 2=EN, 3=SR, 4=AR), ``"output"`` (index into
        ``self.outputs``; the name is the net).  Gates come first, then
        registers, each in insertion order with pins ascending, then
        output ports by index.  The list is a copy: callers may edit the
        circuit while they walk it.
        """
        return list(self._readers.get(net, ()))

    def nets(self) -> set[str]:
        """Every net mentioned anywhere in the circuit."""
        result: set[str] = set(self.inputs) | set(self.outputs)
        for gate in self.gates.values():
            result.update(gate.inputs)
            result.add(gate.output)
        for reg in self.registers.values():
            result.add(reg.d)
            result.add(reg.q)
            result.add(reg.clk)
            for net in (reg.en, reg.sr, reg.ar):
                if net is not None:
                    result.add(net)
        return result

    def clock_nets(self) -> list[str]:
        """Distinct nets used as register clocks, in first-use order."""
        seen: dict[str, None] = {}
        for reg in self.registers.values():
            seen.setdefault(reg.clk)
        return list(seen)

    def control_nets(self) -> list[str]:
        """Distinct nets used as EN/SR/AR pins, in first-use order."""
        seen: dict[str, None] = {}
        for reg in self.registers.values():
            for net in reg.control_nets():
                if not is_const(net):
                    seen.setdefault(net)
        return list(seen)

    def topo_gates(self) -> list[Gate]:
        """Gates in combinational topological order.

        Register Q pins, primary inputs and constants are sources.
        Raises :class:`NetlistError` if a combinational cycle exists.
        """
        order: list[Gate] = []
        state: dict[str, int] = {}  # gate name -> 0 visiting, 1 done
        stack: list[tuple[Gate, int]] = []
        for root in self.gates.values():
            if state.get(root.name) == 1:
                continue
            stack.append((root, 0))
            while stack:
                gate, pin = stack.pop()
                if pin == 0:
                    if state.get(gate.name) == 1:
                        continue
                    if state.get(gate.name) == 0:
                        continue
                    state[gate.name] = 0
                if pin < len(gate.inputs):
                    stack.append((gate, pin + 1))
                    pred = self.driver_gate(gate.inputs[pin])
                    if pred is not None and state.get(pred.name) != 1:
                        if state.get(pred.name) == 0:
                            raise NetlistError(
                                f"combinational cycle through {pred.name!r}"
                            )
                        stack.append((pred, 0))
                else:
                    state[gate.name] = 1
                    order.append(gate)
        return order

    def transitive_fanin_gates(self, nets: Iterable[str]) -> list[Gate]:
        """Gates in the combinational cone feeding *nets* (topo order)."""
        cone: set[str] = set()
        work = list(nets)
        while work:
            net = work.pop()
            gate = self.driver_gate(net)
            if gate is not None and gate.name not in cone:
                cone.add(gate.name)
                work.extend(gate.inputs)
        return [g for g in self.topo_gates() if g.name in cone]

    # ------------------------------------------------------------------ #
    # misc

    def clone(self, name: str | None = None) -> "Circuit":
        """Deep copy of the circuit (independent cells and indexes)."""
        other = Circuit(name or self.name)
        other.inputs = list(self.inputs)
        other.outputs = list(self.outputs)
        other.gates = {n: g.clone() for n, g in self.gates.items()}
        other.registers = {n: r.clone() for n, r in self.registers.items()}
        other._driver = dict(self._driver)
        other._readers = {net: list(rs) for net, rs in self._readers.items()}
        other._rank = dict(self._rank)
        other._next_rank = self._next_rank
        for n in self.nets():
            other.namer.claim(n)
        for n in list(self.gates) + list(self.registers):
            other.namer.claim(n)
        return other

    def counts(self) -> dict[str, int]:
        """Quick size summary: gates, registers, inputs, outputs."""
        return {
            "gates": len(self.gates),
            "registers": len(self.registers),
            "inputs": len(self.inputs),
            "outputs": len(self.outputs),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        c = self.counts()
        return (
            f"<Circuit {self.name!r}: {c['gates']} gates, "
            f"{c['registers']} regs, {c['inputs']}/{c['outputs']} io>"
        )

    def cells(self) -> Iterator[Gate | Register]:
        """Iterate all cells, gates first."""
        yield from self.gates.values()
        yield from self.registers.values()

    def map_nets(self, fn: Callable[[str], str]) -> None:
        """Apply a renaming function to every net reference (advanced)."""
        for gate in self.gates.values():
            gate.inputs = [fn(n) for n in gate.inputs]
            gate.output = fn(gate.output)
        for reg in self.registers.values():
            reg.d = fn(reg.d)
            reg.q = fn(reg.q)
            reg.clk = fn(reg.clk)
            for attr in ("en", "sr", "ar"):
                v = getattr(reg, attr)
                if v is not None:
                    setattr(reg, attr, fn(v))
        self.inputs = [fn(n) for n in self.inputs]
        self.outputs = [fn(n) for n in self.outputs]
        self._driver = {}
        for name in self.inputs:
            self._driver[name] = ("input", name)
        for gate in self.gates.values():
            self._driver[gate.output] = ("gate", gate.name)
        for reg in self.registers.values():
            self._driver[reg.q] = ("register", reg.name)
        readers, self._readers = self._readers, {}
        for net, entries in readers.items():
            new = fn(net)
            self._merge(new, [
                ("output", new, pin) if kind == "output" else (kind, name, pin)
                for kind, name, pin in entries
            ])

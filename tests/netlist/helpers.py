"""Test-only oracles for the netlist container."""

from repro.netlist import Circuit


def rebuilt_readers(circuit: Circuit) -> dict[str, list[tuple[str, str, int]]]:
    """Every net's readers, scanned from the cells: gates, then
    registers, each in insertion order with pins ascending, then output
    ports by index — the order :meth:`Circuit.readers` promises."""
    readers: dict[str, list[tuple[str, str, int]]] = {}
    for gate in circuit.gates.values():
        for i, net in enumerate(gate.inputs):
            readers.setdefault(net, []).append(("gate", gate.name, i))
    for reg in circuit.registers.values():
        pins = [reg.d, reg.clk, reg.en, reg.sr, reg.ar]
        for i, net in enumerate(pins):
            if net is not None:
                readers.setdefault(net, []).append(("register", reg.name, i))
    for i, net in enumerate(circuit.outputs):
        readers.setdefault(net, []).append(("output", net, i))
    return readers


def assert_readers_fresh(circuit: Circuit) -> None:
    """``circuit.readers(net)`` equals the scan for every net, in order."""
    scanned = rebuilt_readers(circuit)
    for net in circuit.nets() | set(scanned):
        assert circuit.readers(net) == scanned.get(net, []), net

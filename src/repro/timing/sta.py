"""Static timing analysis of the combinational network.

Computes per-net arrival times and the maximum combinational path delay
— the paper's Table 1/2/3 ``Delay`` column ("maximal delay over all
combinational paths").  Sources are primary inputs (arrival 0) and
register Q pins (arrival = clock-to-Q); sinks are primary outputs and
register D/EN/SR/AR pins (+ setup on synchronous pins).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import obs
from ..netlist import Circuit
from ..netlist.signals import is_const
from .delay_models import DelayModel, UNIT_DELAY


@dataclass
class TimingResult:
    """Outcome of one STA sweep."""

    #: Maximum combinational path delay (the clock-period lower bound).
    max_delay: float
    #: Arrival time per net (sources included).
    arrival: dict[str, float]
    #: Nets along one critical path, source first.
    critical_path: list[str] = field(default_factory=list)
    #: The sink net realizing ``max_delay``.
    critical_sink: str | None = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<TimingResult max_delay={self.max_delay:.2f}>"


def analyze(
    circuit: Circuit,
    model: DelayModel = UNIT_DELAY,
) -> TimingResult:
    """Run STA; returns arrival times and the critical path."""
    with obs.span("sta.analyze"):
        return _analyze(circuit, model)


def _analyze(circuit: Circuit, model: DelayModel) -> TimingResult:
    arrival: dict[str, float] = {}
    pred: dict[str, str | None] = {}
    fanout_count = {net: len(circuit.readers(net)) for net in circuit.nets()}

    for net in circuit.inputs:
        arrival[net] = 0.0
        pred[net] = None
    for reg in circuit.registers.values():
        arrival[reg.q] = model.clock_to_q
        pred[reg.q] = None

    for gate in circuit.topo_gates():
        best_at = 0.0
        best_in: str | None = None
        for net in gate.inputs:
            if is_const(net):
                continue
            at = arrival.get(net, 0.0)
            if best_in is None or at > best_at:
                best_at = at
                best_in = net
        out = gate.output
        arrival[out] = (
            best_at
            + model.gate_delay(gate)
            + model.net_delay(fanout_count.get(out, 0))
        )
        pred[out] = best_in

    max_delay = 0.0
    critical_sink: str | None = None

    def consider(net: str | None, extra: float) -> None:
        nonlocal max_delay, critical_sink
        if net is None or is_const(net):
            return
        at = arrival.get(net, 0.0) + extra
        if at > max_delay:
            max_delay = at
            critical_sink = net

    for net in circuit.outputs:
        consider(net, 0.0)
    for reg in circuit.registers.values():
        consider(reg.d, model.setup)
        consider(reg.en, model.setup)
        consider(reg.sr, model.setup)
        # async pins have no setup against the clock; still combinational
        consider(reg.ar, 0.0)

    path: list[str] = []
    node = critical_sink
    while node is not None:
        path.append(node)
        node = pred.get(node)
    path.reverse()
    return TimingResult(
        max_delay=max_delay,
        arrival=arrival,
        critical_path=path,
        critical_sink=critical_sink,
    )


def combinational_depth(circuit: Circuit) -> int:
    """Maximum gate count along any combinational path (unit levels)."""
    depth: dict[str, int] = {}
    best = 0
    for gate in circuit.topo_gates():
        d = 1 + max((depth.get(n, 0) for n in gate.inputs), default=0)
        depth[gate.output] = d
        best = max(best, d)
    return best

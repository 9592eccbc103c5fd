"""Netlist-level throughput transforms: pipelining and C-slow.

Both transforms *add* registers in positions that are trivially correct
and leave the hard work — balancing them across the combinational
logic — to the multiple-class retiming engine.  That division of labour
is the point: the transforms only need a sound insertion site, and
mc-retiming (which already understands EN/SR/AR classes) does the
legality-preserving redistribution.

Pipelining
----------
:func:`insert_pipeline_layers` appends *K* plain register layers to the
primary-output edges (the host vertex's input edges in the retiming
graph).  A pure output delay is universally sound, feedback or not:
the new machine computes ``y'(t) = y(t - K)``.  Inserting on the PI
edges instead would feed *stale inputs* into live state and is **not**
behaviour-preserving for sequential circuits, so we never do it.
Min-period retiming then pulls the new registers backward through the
output cones, turning latency into clock speed.

C-slow
------
:func:`cslow_transform` replaces every register with a chain of *C*
always-shifting replicas, producing a machine that interleaves *C*
independent threads of the original computation (thread ``k`` occupies
global cycles ``t ≡ k (mod C)``).  Register classes make this legal
per-thread only with care:

* **EN** — a load enable must *not* be copied onto the replicas: an
  enable observed low for one superperiod would freeze the whole chain
  and misalign every other thread's state.  Instead the enable becomes
  a D-side recirculation mux ``D' = MUX(en, q, D)`` over the *whole*
  chain, so a stalled thread's value travels the full C replicas and
  returns to that same thread — exactly the original hold semantics,
  including the X-enable rule (hold is only certain where ``D == Q``).
* **SR** — likewise folded into D-side logic (``OR`` for ``sval=1``,
  ``AND NOT`` otherwise; an X ``sval`` is refined to 0), so each
  thread's synchronous reset lands in its own slot.
* **AR** (+ ``aval``) — also folded into the D path, outermost (the
  class model's priority is AR over SR over EN).  This is exact here
  because the engine's register semantics (paper Fig. 2a, and both
  simulators) sample AR at the clock edge: AR is a highest-priority
  synchronous load of ``aval``, so ``D' = ar ? aval : …`` commutes with
  replication just like SR.  Keeping AR on the replicas instead — the
  "broadcast reset" reading of a level-sensitive AR — is *not*
  per-thread exact: the first edge of an assertion superperiod forces
  every replica at once, so threads ``k >= 1`` observe downstream
  D-values computed from post-reset state one thread-cycle early, and
  that skew propagates register-by-register indefinitely.  Folding
  keeps every thread's reset in its own slot, gate-driven (derived)
  AR nets included.

Every control class therefore decomposes to D-side logic and the
replicas are plain registers — maximum freedom for the retiming engine,
with the class semantics preserved per thread by construction.

Both transforms are non-destructive (they clone their input) and emit
``pipeline.*`` / ``cslow.*`` observability spans and counters.
"""

from __future__ import annotations

from .. import obs
from ..logic.ternary import T1
from ..netlist import Circuit, GateFn


class PipelineError(Exception):
    """A transform's legality preconditions do not hold."""


def _single_clock(circuit: Circuit, what: str) -> str | None:
    clocks = circuit.clock_nets()
    if len(clocks) > 1:
        raise PipelineError(
            f"{what} requires a single clock domain; "
            f"found {len(clocks)}: {clocks}"
        )
    return clocks[0] if clocks else None


def insert_pipeline_layers(
    circuit: Circuit, stages: int, clk: str | None = None
) -> tuple[Circuit, int]:
    """Append *stages* plain register layers to every primary output.

    Returns ``(pipelined clone, registers inserted)``.  Outputs that
    share a driver net share one chain.  ``stages=0`` returns a plain
    clone (byte-identical netlist).  The inserted registers are plain
    (no EN/SR/AR): they carry no architectural state, and keeping them
    classless gives retiming maximum freedom to move them.
    """
    if stages < 0:
        raise PipelineError(f"stage count must be >= 0, got {stages}")
    work = circuit.clone()
    if stages == 0 or not work.outputs:
        return work, 0
    if clk is None:
        clk = _single_clock(work, "pipelining")
        if clk is None:
            clk = "clk" if "clk" in work.inputs else work.add_input("clk")
    inserted = 0
    with obs.span("pipeline.insert", stages=stages):
        chain_end: dict[str, str] = {}
        for net in dict.fromkeys(work.outputs):
            prev = net
            for _ in range(stages):
                prev = work.add_register(
                    prev, clk=clk, name=work.namer.fresh("pipe")
                ).q
                inserted += 1
            chain_end[net] = prev
        for index, net in enumerate(list(work.outputs)):
            work.set_output(index, chain_end[net])
    obs.count("pipeline.layers_inserted", stages)
    obs.count("pipeline.registers_inserted", inserted)
    return work, inserted


def cslow_transform(
    circuit: Circuit, factor: int
) -> tuple[Circuit, dict[str, int]]:
    """Replace every register with a chain of *factor* plain replicas.

    Returns ``(C-slowed clone, counts)`` where ``counts`` reports
    ``registers_replicated`` (new registers added) and
    ``enables_folded`` / ``sync_resets_folded`` / ``async_resets_folded``
    (per-class D-side decompositions performed; see the module
    docstring for why every control must move to the D side).
    ``factor=1`` returns a plain clone.
    """
    if factor < 1:
        raise PipelineError(f"slowdown factor must be >= 1, got {factor}")
    work = circuit.clone()
    counts = {
        "registers_replicated": 0,
        "enables_folded": 0,
        "sync_resets_folded": 0,
        "async_resets_folded": 0,
    }
    if factor == 1:
        return work, counts
    _single_clock(work, "C-slow")
    with obs.span("cslow.replicate", factor=factor):
        for reg in list(work.registers.values()):
            d = reg.d
            if reg.has_enable:
                # recirculate the *chain end* so a stalled thread's value
                # traverses all C replicas back to its own slot
                d = work.add_gate(GateFn.MUX, [reg.en, reg.q, d]).output
                counts["enables_folded"] += 1
            if reg.has_sync_reset:
                if reg.sval == T1:
                    d = work.add_gate(GateFn.OR, [d, reg.sr]).output
                else:  # sval 0, or X refined to 0
                    inv = work.add_gate(GateFn.NOT, [reg.sr]).output
                    d = work.add_gate(GateFn.AND, [d, inv]).output
                counts["sync_resets_folded"] += 1
            if reg.has_async_reset:
                # outermost: AR wins over SR and EN
                if reg.aval == T1:
                    d = work.add_gate(GateFn.OR, [d, reg.ar]).output
                else:  # aval 0, or X refined to 0
                    inv = work.add_gate(GateFn.NOT, [reg.ar]).output
                    d = work.add_gate(GateFn.AND, [d, inv]).output
                counts["async_resets_folded"] += 1
            clk, q, name = reg.clk, reg.q, reg.name
            work.remove_register(name)
            prev = d
            for _ in range(factor - 1):
                prev = work.add_register(prev, clk=clk).q
                counts["registers_replicated"] += 1
            work.add_register(prev, q=q, name=name, clk=clk)
    obs.count("cslow.registers_replicated", counts["registers_replicated"])
    obs.count("cslow.enables_folded", counts["enables_folded"])
    obs.count("cslow.sync_resets_folded", counts["sync_resets_folded"])
    obs.count("cslow.async_resets_folded", counts["async_resets_folded"])
    return work, counts

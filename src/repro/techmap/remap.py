"""Post-retiming remapping (the paper's ``remap`` command).

Retiming a mapped netlist leaves the combinational structure sliced at
the old register positions; remapping re-covers it so LUT count and
depth recover.  Our remap re-runs the optimizer and the LUT mapper on
the (already LUT-level) netlist and — like production flows — keeps
whichever netlist is better under the delay model, so the command never
degrades a design.

Two lessons encoded here: the re-cover needs a wider priority-cut list
(the Shannon decomposition of existing LUTs creates many similar cuts
and a narrow list prunes the depth-optimal covers), and even then the
re-cover can duplicate shared logic, so the keep-better guard matters.
"""

from __future__ import annotations

from .. import obs
from ..netlist import Circuit
from ..timing.delay_models import DelayModel, XC4000E_DELAY
from ..timing.sta import analyze
from .cuts import enumerate_cuts
from .lutmap import MapResult, map_luts


def remap(
    circuit: Circuit,
    k: int = 4,
    priority: int = 16,
    delay_model: DelayModel = XC4000E_DELAY,
    keep_better: bool = True,
) -> MapResult:
    """Re-cover a mapped netlist into K-LUTs, keeping the better result.

    "Better" means strictly smaller STA delay, or equal delay with fewer
    LUTs.  With ``keep_better=False`` the re-covered netlist is returned
    unconditionally.
    """
    result = map_luts(circuit, k=k, priority=priority, optimise=True)
    if not keep_better:
        return result
    with obs.span("remap.keep_better"):
        before = analyze(circuit, delay_model).max_delay
        after = analyze(result.circuit, delay_model).max_delay
        eps = 1e-9
        if after < before - eps or (
            abs(after - before) <= eps and result.n_luts < len(circuit.gates)
        ):
            return result
        db = enumerate_cuts(circuit, k=k, priority=1)
        depth = max(
            (db.depth_of(g.output) for g in circuit.gates.values()), default=0
        )
        return MapResult(circuit.clone(), n_luts=len(circuit.gates), depth=depth)

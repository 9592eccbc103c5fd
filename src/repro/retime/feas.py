"""Clock period (CP) and the classic FEAS algorithm.

``CP`` computes Δ(v) — the largest delay of a register-free path ending
at v — by a topological sweep of the zero-weight subgraph; the clock
period of a retimed graph is ``max_v Δ(v)`` (paper Sec. 2 / [9]).  The
sweep is :func:`repro.kernels.delta_sweep`.

``FEAS`` is Leiserson–Saxe's relaxation: repeat |V|−1 times, increment
r(v) wherever Δ(v) exceeds the target period.  It is kept for its
textbook value and as a test reference; the production path (which also
supports per-vertex bounds and pinned I/O) is the lazy constraint
generation in :mod:`repro.retime.minperiod`.
"""

from __future__ import annotations

from .. import obs
from ..graph.retiming_graph import RetimingGraph
from ..kernels import compile_graph, delta_sweep


def clock_period(graph: RetimingGraph, r: dict[str, int] | None = None) -> float:
    """Clock period of the (retimed) graph.

    Raises :class:`~repro.graph.GraphError` when *r* makes an edge
    weight negative or leaves a register-free cycle.
    """
    cg = compile_graph(graph)
    return delta_sweep(cg, cg.r_array(r)).period


def feas(
    graph: RetimingGraph, phi: float, normalize: str | None = None
) -> dict[str, int] | None:
    """Classic FEAS: a legal retiming achieving period ≤ *phi*, or None.

    No bounds or pinning support — every vertex may move (Leiserson–Saxe
    Algorithm FEAS), and the host is an ordinary vertex of the sweep.
    When *normalize* names a vertex, the solution is shifted so that
    vertex gets value 0 (uniform shifts are no-ops).
    """
    eps = 1e-9
    cg = compile_graph(graph)
    r = [0] * cg.n
    sweep = None
    changed = False
    passes = 0
    for _ in range(max(cg.n - 1, 1)):
        sweep = delta_sweep(cg, r, through_host=True)
        passes += 1
        changed = False
        for v, dv in enumerate(sweep.delta):
            if dv > phi + eps:
                r[v] += 1
                changed = True
        if not changed:
            break
    if changed or sweep is None:  # r moved after the last sweep
        sweep = delta_sweep(cg, r, through_host=True)
    obs.count("feas.passes", passes)
    if sweep.period > phi + eps:
        return None
    solution = cg.r_dict(r)
    if normalize is not None and normalize in solution:
        shift = solution[normalize]
        solution = {v: val - shift for v, val in solution.items()}
    return solution

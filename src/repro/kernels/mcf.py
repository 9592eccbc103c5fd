"""Min-cost flow on integer node ids (the min-area LP dual kernel).

Primal-dual: each phase runs one heap Dijkstra over Johnson-potential
reduced costs, multi-source from all excess nodes, and stops at the
distance D of the nearest deficit node.  Every potential is raised by
min(dist, D), which keeps all residual reduced costs non-negative and
makes every shortest path to a deficit at distance D zero-cost.  A
maximum flow over those zero-reduced-cost residual arcs is then routed
by Dinic blocking flows (BFS levels, then an iterative DFS with
current-arc pointers), so one Dijkstra serves many augmenting paths
and a path carries as many units as its bottleneck allows.

Nodes are dense integer ids and arcs are stored as forward/backward
slot pairs, in the order the caller adds them.  Costs and potentials
are integers, so reduced costs are compared exactly.
"""

from __future__ import annotations

import heapq

from .. import obs

INF = float("inf")


class FlowInfeasibleError(Exception):
    """Raised when supplies cannot be routed to demands."""


class IntMinCostFlow:
    """Primal-dual min-cost flow over dense int nodes."""

    __slots__ = ("n", "supply", "_to", "_cap", "_cost", "_adj", "potential")

    def __init__(self, n: int) -> None:
        self.n = n
        self.supply = [0] * n
        # forward/backward arc pairs at even/odd slots
        self._to: list[int] = []
        self._cap: list[float] = []
        self._cost: list[int] = []
        self._adj: list[list[int]] = [[] for _ in range(n)]
        self.potential: list[int] = []

    def add_arc(self, u: int, v: int, cost: int, capacity: float = INF) -> None:
        """Create an arc u→v."""
        slot = len(self._to)
        self._to.extend((v, u))
        self._cap.extend((capacity, 0))
        self._cost.extend((cost, -cost))
        self._adj[u].append(slot)
        self._adj[v].append(slot + 1)

    def arcs(self) -> list[tuple[int, int, int, int]]:
        """Every arc as ``(u, v, cost, flow)``, in creation order.

        The flow on an arc is what its backward slot has gained, which
        is zero until :meth:`solve` routes through it.
        """
        to, cap, cost = self._to, self._cap, self._cost
        return [
            (to[slot + 1], to[slot], cost[slot], int(cap[slot + 1]))
            for slot in range(0, len(to), 2)
        ]

    def solve(self, initial_potentials: list[int] | None = None) -> None:
        """Route all supplies; potentials are left in ``self.potential``.

        *initial_potentials* (integers) must make every reduced cost
        non-negative (the retiming caller passes the negated
        difference-constraint solution).  Raises
        :class:`FlowInfeasibleError` when supplies don't balance or
        cannot reach the demands.
        """
        n = self.n
        if sum(self.supply) != 0:
            raise FlowInfeasibleError("supplies do not balance")
        excess = list(self.supply)
        potential = (
            list(initial_potentials) if initial_potentials is not None else [0] * n
        )
        to, cap, cost = self._to, self._cap, self._cost
        for slot in range(0, len(to), 2):
            u, v = to[slot + 1], to[slot]
            if cap[slot] > 0 and cost[slot] + potential[u] < potential[v]:
                raise ValueError("initial potentials leave a negative reduced cost")
        self.potential = potential

        # Pre-zipped adjacency: one tuple unpack per scanned arc instead
        # of three list index ops (to/cost are fixed for the whole solve;
        # only cap mutates, so it stays a slot lookup).
        arcs = [
            [(slot, to[slot], cost[slot]) for slot in slots] for slots in self._adj
        ]
        paths = 0
        while True:
            sources = [i for i, e in enumerate(excess) if e > 0]
            if not sources:
                break
            _raise_potentials(arcs, cap, potential, excess, sources)
            paths += _route_admissible(arcs, to, cap, potential, excess, sources)
        if obs.enabled():
            obs.count("mcf.augmentations", paths)
            # routed flow sits on the backward (odd) slots
            total = sum(
                int(cap[slot + 1]) * cost[slot] for slot in range(0, len(to), 2)
            )
            obs.count("mcf.cost", total)


def _raise_potentials(arcs, cap, potential, excess, sources) -> None:
    """One Dijkstra phase: raise every potential by min(dist, D).

    D is the reduced-cost distance from the excess nodes to the nearest
    deficit; the search stops when that deficit is settled, because
    every node not yet settled is at least D away.
    """
    heappush, heappop = heapq.heappush, heapq.heappop
    dist = [INF] * len(potential)
    heap = []
    for s in sources:
        dist[s] = 0
        heap.append((0, s))  # ascending ids: already a heap
    reach = -1
    while heap:
        d, v = heappop(heap)
        if d > dist[v]:
            continue
        if excess[v] < 0:
            reach = d
            break
        pv = potential[v]
        for slot, t, c in arcs[v]:
            if cap[slot] > 0:
                nd = d + c + pv - potential[t]
                if nd < dist[t]:
                    dist[t] = nd
                    heappush(heap, (nd, t))
    if reach < 0:
        raise FlowInfeasibleError("no augmenting path to a demand")
    if reach:
        for i, di in enumerate(dist):
            potential[i] += di if di < reach else reach


def _route_admissible(arcs, to, cap, potential, excess, sources) -> int:
    """Maximum flow from excess to deficit nodes over zero-cost arcs.

    Dinic phases on the admissible residual graph (arcs with capacity
    and zero reduced cost): BFS levels from all excess nodes, then a
    blocking flow found by an iterative DFS that only follows arcs one
    level deeper and keeps a current-arc pointer per node.  Reverse
    arcs created here have zero reduced cost too, so every residual
    reduced cost stays non-negative.  Returns the number of augmenting
    paths routed.
    """
    n = len(potential)
    paths = 0
    while True:
        sources = [s for s in sources if excess[s] > 0]
        level = [-1] * n
        for s in sources:
            level[s] = 0
        queue = list(sources)
        reached = False
        for v in queue:  # grows while iterated: a FIFO scan
            nl = level[v] + 1
            pv = potential[v]
            for slot, t, c in arcs[v]:
                if level[t] < 0 and cap[slot] > 0 and c + pv == potential[t]:
                    level[t] = nl
                    queue.append(t)
                    if excess[t] < 0:
                        reached = True
        if not reached:
            return paths
        current = [0] * n
        for s in sources:
            path: list[int] = []
            v = s
            while excess[s] > 0:
                if excess[v] < 0:
                    amount = min(excess[s], -excess[v])
                    for slot in path:
                        if cap[slot] < amount:
                            amount = cap[slot]
                    amount = int(amount)
                    for slot in path:
                        cap[slot] -= amount
                        cap[slot ^ 1] += amount
                    excess[s] -= amount
                    excess[v] += amount
                    paths += 1
                    # retreat to the tail of the first saturated arc
                    # (or restart from s); current arcs keep progress
                    for k, slot in enumerate(path):
                        if not cap[slot]:
                            del path[k:]
                            break
                    v = to[path[-1]] if path else s
                    continue
                out = arcs[v]
                i = current[v]
                deeper = level[v] + 1
                pv = potential[v]
                while i < len(out):
                    slot, t, c = out[i]
                    if level[t] == deeper and cap[slot] > 0 and c + pv == potential[t]:
                        break
                    i += 1
                current[v] = i
                if i < len(out):
                    path.append(out[i][0])
                    v = out[i][1]
                elif path:  # dead end: back up and skip the arc into v
                    v = to[path.pop() ^ 1]
                    current[v] += 1
                else:
                    break  # s has no admissible path left this phase

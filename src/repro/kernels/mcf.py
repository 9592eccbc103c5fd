"""Min-cost flow on integer node ids (the min-area LP dual kernel).

Successive shortest paths: heap Dijkstra over Johnson-potential reduced
costs, multi-source from all excess nodes.  Nodes are dense integer
ids and arcs are stored as forward/backward slot pairs, created in the
order the caller adds them.  Dijkstra's heap keys are ``(distance,
node-id)`` pairs, so for a fixed node and arc order the tie-breaking —
and therefore which optimal dual solution is returned — is
deterministic.
"""

from __future__ import annotations

import heapq

from .. import obs

INF = float("inf")


class FlowInfeasibleError(Exception):
    """Raised when supplies cannot be routed to demands."""


class IntMinCostFlow:
    """Successive-shortest-path min-cost flow over dense int nodes."""

    __slots__ = ("n", "supply", "_to", "_cap", "_cost", "_adj", "potential")

    def __init__(self, n: int) -> None:
        self.n = n
        self.supply = [0] * n
        # forward/backward arc pairs at even/odd slots
        self._to: list[int] = []
        self._cap: list[float] = []
        self._cost: list[int] = []
        self._adj: list[list[int]] = [[] for _ in range(n)]
        self.potential: list[float] = []

    def add_arc(self, u: int, v: int, cost: int, capacity: float = INF) -> None:
        """Create an arc u→v."""
        slot = len(self._to)
        self._to.extend((v, u))
        self._cap.extend((capacity, 0.0))
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

    def solve(self, initial_potentials: list[float] | None = None) -> None:
        """Route all supplies; potentials are left in ``self.potential``.

        *initial_potentials* must make every reduced cost non-negative
        (the retiming caller passes the negated difference-constraint
        solution).  Raises :class:`FlowInfeasibleError` when supplies
        don't balance or cannot reach the demands.
        """
        n = self.n
        if sum(self.supply) != 0:
            raise FlowInfeasibleError("supplies do not balance")
        excess = list(self.supply)
        potential = (
            list(initial_potentials)
            if initial_potentials is not None
            else [0.0] * n
        )
        to, cap, cost, adj = self._to, self._cap, self._cost, self._adj
        for slot in range(0, len(to), 2):
            if cap[slot] > 0:
                u = to[slot ^ 1]
                v = to[slot]
                if cost[slot] + potential[u] - potential[v] < -1e-9:
                    raise ValueError(
                        "initial potentials leave a negative reduced cost"
                    )
        self.potential = potential

        # Pre-zipped adjacency: one tuple unpack per scanned arc instead
        # of three list index ops (to/cost are fixed for the whole solve;
        # only cap mutates, so it stays a slot lookup).
        arcs = [
            [(slot, to[slot], cost[slot]) for slot in slots] for slots in adj
        ]

        heappush, heappop = heapq.heappush, heapq.heappop
        augmentations = 0
        while True:
            sources = [i for i, e in enumerate(excess) if e > 0]
            if not sources:
                break
            dist = [INF] * n
            prev_arc = [-1] * n
            heap: list[tuple[float, int]] = []
            for s in sources:
                dist[s] = 0.0
                heappush(heap, (0.0, s))
            while heap:
                d, vi = heappop(heap)
                if d > dist[vi]:
                    continue
                pvi = potential[vi]
                for slot, t, c in arcs[vi]:
                    if cap[slot] <= 0:
                        continue
                    nd = d + c + pvi - potential[t]
                    if nd < dist[t] - 1e-12:
                        dist[t] = nd
                        prev_arc[t] = slot
                        heappush(heap, (nd, t))
            target = -1
            best = INF
            for i, e in enumerate(excess):
                if e < 0 and dist[i] < best:
                    best = dist[i]
                    target = i
            if target < 0:
                raise FlowInfeasibleError("no augmenting path to a demand")
            for i, di in enumerate(dist):
                potential[i] += di if di < INF else best
            bottleneck = -excess[target]
            node = target
            while prev_arc[node] != -1:
                slot = prev_arc[node]
                if cap[slot] < bottleneck:
                    bottleneck = cap[slot]
                node = to[slot ^ 1]
            if excess[node] < bottleneck:
                bottleneck = excess[node]
            amount = int(bottleneck)
            node = target
            while prev_arc[node] != -1:
                slot = prev_arc[node]
                cap[slot] -= amount
                cap[slot ^ 1] += amount
                node = to[slot ^ 1]
            excess[node] -= amount
            excess[target] += amount
            augmentations += 1
        if obs.enabled():
            obs.count("mcf.augmentations", augmentations)
            # all arcs are INF-capacity forward slots, so routed flow
            # sits entirely on the backward (odd) slots
            total = sum(
                int(cap[slot ^ 1]) * cost[slot]
                for slot in range(0, len(to), 2)
            )
            obs.count("mcf.cost", total)

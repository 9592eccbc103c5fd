"""Systems of difference constraints ``r(u) − r(v) ≤ b`` over vertex ids.

Retiming legality, register-class bounds and period requirements are all
difference constraints (paper Sec. 2, 4.1, 5.1).  ``CompiledSystem``
keeps the tightest bound per ordered vertex pair, together with the tag
of the constraint that set it, on flat arrays keyed by vertex id, and
solves the system by Bellman-Ford with negative-cycle detection.

Solving convention: a constraint ``r(u) − r(v) ≤ b`` becomes a
relaxation arc ``v → u`` with weight ``b``; starting every distance at 0
(virtual source) yields the component-wise *maximal non-positive*
solution, which callers normalise by the host value (solutions are
invariant under uniform shifts because every consumer only reads
differences).  That solution is *unique*, so every solving strategy
below returns exactly the same answer, however it is computed.

The incremental mode is the point: the lazy constraint loops solve,
add a few period constraints, and solve again.  Distances only ever
decrease when constraints are added, so re-relaxation can start from
the previous solution instead of from scratch — warm-started
Bellman-Ford converges in as many synchronous rounds as the new
constraints' influence cone is deep, usually one or two.  On systems
of at least ``_NUMPY_MIN_ARCS`` arcs the rounds themselves vectorise:
arcs are pre-sorted by target once and each round is a gather +
``minimum.reduceat`` + scatter.  Either way a round still updating
after |V| rounds is the classic negative-cycle certificate.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterator

import numpy as _np

from .. import obs
from ..graph.retiming_graph import HOST

#: Below this arc count the numpy round overhead beats its win.
_NUMPY_MIN_ARCS = 192


@dataclass(frozen=True)
class Constraint:
    """One difference constraint ``r(u) − r(v) ≤ bound``."""

    u: str
    v: str
    bound: int
    tag: str = ""


class CompiledSystem:
    """A difference-constraint system over integer vertex ids."""

    __slots__ = (
        "names",
        "index",
        "n",
        "arc_u",
        "arc_v",
        "arc_b",
        "arc_tag",
        "arcs_from",
        "pair",
        "self_negative",
        "dist",
        "_stale",
        "host",
        "pruned_constraints",
        "_bf_m",
        "_bf_order",
        "_bf_av",
        "_bf_seg",
        "_bf_targets",
    )

    def __init__(self, names: list[str], index: dict[str, int]) -> None:
        # the universe is shared with (not copied from) the caller until
        # a variable is appended, at which point it is forked
        self.names = names
        self.index = index
        self.n = len(names)
        # constraint (u, v, b) ≡ r(u) − r(v) ≤ b ≡ relaxation arc v→u
        self.arc_u: list[int] = []
        self.arc_v: list[int] = []
        self.arc_b: list[int] = []
        #: tag of the constraint that set each slot's current bound
        self.arc_tag: list[str] = []
        self.arcs_from: list[list[int]] = [[] for _ in range(self.n)]
        #: (u, v) -> arc slot, in insertion order
        self.pair: dict[tuple[int, int], int] = {}
        #: a negative self-constraint was recorded (instant infeasibility)
        self.self_negative = False
        #: last solution (shared-source SPFA distances), or None
        self.dist: list[int] | None = None
        #: constraints were added or tightened since the last solve
        self._stale = False
        self.host = index.get(HOST, -1)
        #: constraints a generator decided not to materialise because
        #: they were implied (informational; set by dense generation)
        self.pruned_constraints = 0
        # vectorised-round cache (arcs sorted by target); keyed on the
        # arc count, so it stays valid across copies until either grows
        self._bf_m = -1
        self._bf_order = None
        self._bf_av = None
        self._bf_seg = None
        self._bf_targets = None

    # ------------------------------------------------------------------ #
    # construction

    def add_variable(self, name: str) -> int:
        """Declare a variable (idempotent); returns its id."""
        i = self.index.get(name)
        if i is None:
            # fork the universe lazily — the base lists may be shared
            self.names = list(self.names)
            self.index = dict(self.index)
            i = len(self.names)
            self.index[name] = i
            self.names.append(name)
            self.n += 1
            self.arcs_from.append([])
            if self.dist is not None:
                self.dist.append(0)
            if name == HOST:
                self.host = i
        return i

    def add(self, u: int, v: int, bound: int, tag: str = "") -> bool:
        """Add ``r(u) − r(v) ≤ bound``; True iff it tightened.

        Keeps the minimum bound per ordered pair (and, when *tag* is
        given, the tag of the constraint that set it), drops vacuous
        non-negative self-pairs and records negative self-pairs (making
        the system infeasible, intentionally).
        """
        if u == v and bound >= 0:
            return False
        key = (u, v)
        slot = self.pair.get(key)
        if slot is not None:
            if self.arc_b[slot] <= bound:
                return False
            self.arc_b[slot] = bound
            if tag:
                self.arc_tag[slot] = tag
            self._stale = True
            return True
        slot = len(self.arc_b)
        self.pair[key] = slot
        self.arc_u.append(u)
        self.arc_v.append(v)
        self.arc_b.append(bound)
        self.arc_tag.append(tag)
        if u == v:
            self.self_negative = True
        else:
            self.arcs_from[v].append(slot)
        self._stale = True
        return True

    def add_named(self, u: str, v: str, bound: int, tag: str = "") -> bool:
        """:meth:`add` by variable name, declaring unknown names."""
        return self.add(self.add_variable(u), self.add_variable(v), bound, tag)

    def __len__(self) -> int:
        return len(self.arc_b)

    def __iter__(self) -> Iterator[Constraint]:
        """The constraints by vertex name, in insertion order."""
        return map(self._constraint, range(len(self.arc_b)))

    def copy(self) -> "CompiledSystem":
        """Independent copy (shares the name table, forks on growth)."""
        other = CompiledSystem.__new__(CompiledSystem)
        other.names = self.names
        other.index = self.index
        other.n = self.n
        other.arc_u = list(self.arc_u)
        other.arc_v = list(self.arc_v)
        other.arc_b = list(self.arc_b)
        other.arc_tag = list(self.arc_tag)
        other.arcs_from = [list(a) for a in self.arcs_from]
        other.pair = dict(self.pair)
        other.self_negative = self.self_negative
        other.dist = list(self.dist) if self.dist is not None else None
        other._stale = self._stale
        other.host = self.host
        other.pruned_constraints = self.pruned_constraints
        other._bf_m = self._bf_m
        other._bf_order = self._bf_order
        other._bf_av = self._bf_av
        other._bf_seg = self._bf_seg
        other._bf_targets = self._bf_targets
        return other

    # ------------------------------------------------------------------ #
    # solving

    def solve(self) -> list[int] | None:
        """Maximal non-positive solution, or None when infeasible.

        Runs incrementally from the previous solution when one exists
        (the unique fixed point makes warm and cold starts agree
        exactly).
        """
        if self.self_negative:
            return None
        if self.dist is not None and not self._stale:
            return self.dist
        if len(self.arc_b) >= _NUMPY_MIN_ARCS:
            result = self._solve_vectorized()
        elif self.dist is not None:
            result = self._solve_warm_list()
        else:
            result = self._solve_full()
        self.dist = result
        self._stale = False
        if obs.enabled():
            obs.count("bf.solves")
        return result

    def _solve_full(self) -> list[int] | None:
        """Cold queue-based Bellman-Ford (SPFA) from the all-zero start."""
        n = self.n
        arc_u, arc_b = self.arc_u, self.arc_b
        arcs_from = self.arcs_from
        dist = [0] * n
        in_queue = bytearray([1]) * n
        relax_count = [0] * n
        queue: deque[int] = deque(range(n))
        push, pop = queue.append, queue.popleft
        while queue:
            vi = pop()
            in_queue[vi] = 0
            dvi = dist[vi]
            for slot in arcs_from[vi]:
                ui = arc_u[slot]
                nd = dvi + arc_b[slot]
                if nd < dist[ui]:
                    dist[ui] = nd
                    relax_count[ui] += 1
                    if relax_count[ui] > n:
                        if obs.enabled():
                            obs.count("bf.relaxations", sum(relax_count))
                        return None  # negative cycle
                    if not in_queue[ui]:
                        in_queue[ui] = 1
                        push(ui)
        if obs.enabled():
            obs.count("bf.relaxations", sum(relax_count))
            # queue-based SPFA has no synchronous rounds; report the
            # depth an equivalent round-based Bellman-Ford would need
            obs.count("bf.rounds", max(relax_count, default=0) + 1)
        return dist

    def _solve_warm_list(self) -> list[int] | None:
        """Warm Bellman-Ford rounds seeded from the previous solution.

        The previous fixed point upper-bounds the new one (constraints
        only tighten), so in-place rounds converge monotonically within
        |V| sweeps; a round still improving after that proves a negative
        cycle.  Round-robin sweeps avoid the queue-thrash a sparsely
        seeded label-correcting pass suffers when a tightened constraint
        shifts a large region.
        """
        prev = self.dist
        assert prev is not None
        dist = list(prev)
        arc_u, arc_v, arc_b = self.arc_u, self.arc_v, self.arc_b
        m = len(arc_b)
        for rounds in range(1, self.n + 2):
            changed = False
            for slot in range(m):
                nd = dist[arc_v[slot]] + arc_b[slot]
                if nd < dist[arc_u[slot]]:
                    dist[arc_u[slot]] = nd
                    changed = True
            if not changed:
                if obs.enabled():
                    obs.count("bf.rounds", rounds)
                return dist
        if obs.enabled():
            obs.count("bf.rounds", self.n + 1)
        return None  # negative cycle

    def _solve_vectorized(self) -> list[int] | None:
        """Bellman-Ford with vectorised synchronous rounds.

        Arcs are pre-sorted by constrained vertex (cached until the arc
        list grows) so one round is a gather, a segmented minimum and a
        masked scatter.  Warm-starts from the previous solution when one
        exists; an update in round |V|+1 certifies a negative cycle.
        """
        np = _np
        m = len(self.arc_b)
        if self._bf_m != m:
            au = np.asarray(self.arc_u, dtype=np.int64)
            order = np.argsort(au, kind="stable")
            au_s = au[order]
            boundary = np.empty(m, dtype=bool)
            boundary[0] = True
            np.not_equal(au_s[1:], au_s[:-1], out=boundary[1:])
            seg = np.flatnonzero(boundary)
            self._bf_av = np.asarray(self.arc_v, dtype=np.int64)[order]
            # bounds can tighten in place, so re-gather them every solve;
            # only the ordering is cached
            self._bf_seg = seg
            self._bf_targets = au_s[seg]
            self._bf_m = m
            self._bf_order = order
        ab = np.asarray(self.arc_b, dtype=np.int64)[self._bf_order]
        av, seg, targets = self._bf_av, self._bf_seg, self._bf_targets
        if self.dist is not None:
            dist = np.asarray(self.dist, dtype=np.int64)
        else:
            dist = np.zeros(self.n, dtype=np.int64)
        for rounds in range(1, self.n + 2):
            mins = np.minimum.reduceat(dist[av] + ab, seg)
            updated = mins < dist[targets]
            if not updated.any():
                if obs.enabled():
                    obs.count("bf.rounds", rounds)
                return dist.tolist()
            dist[targets[updated]] = mins[updated]
        if obs.enabled():
            obs.count("bf.rounds", self.n + 1)
        return None  # negative cycle

    def negative_cycle(self) -> list[Constraint] | None:
        """Negative-cycle certificate of an infeasible system.

        Post-hoc predecessor-tracking Bellman-Ford, run only after
        :meth:`solve` reported infeasibility — the solving rounds stay
        certificate-free.  Returns the cycle's tagged constraints in arc
        order — consecutive entries chain ``c[i].v == c[i+1].u`` and the
        bounds sum to a negative number — or None when the system is in
        fact feasible.
        """
        for (u, v), slot in self.pair.items():
            if u == v:  # negative self-pair (add() filtered the rest)
                return [self._constraint(slot)]
        n = self.n
        arc_u, arc_v, arc_b = self.arc_u, self.arc_v, self.arc_b
        m = len(arc_b)
        dist = [0] * n
        pred = [-1] * n
        marked = -1
        # virtual-source paths have at most n-1 arcs, so a relaxation in
        # pass n+1 proves a cycle through the relaxed vertex's preds
        for _ in range(n + 1):
            updated = -1
            for slot in range(m):
                nd = dist[arc_v[slot]] + arc_b[slot]
                ui = arc_u[slot]
                if nd < dist[ui]:
                    dist[ui] = nd
                    pred[ui] = slot
                    updated = ui
            if updated < 0:
                return None  # converged: feasible
            marked = updated
        # walk predecessors until a vertex repeats; that repeat closes
        # the negative cycle (the prefix before it is an approach tail)
        seen: dict[int, int] = {}
        trail: list[int] = []
        node = marked
        while node not in seen:
            seen[node] = len(trail)
            slot = pred[node]
            if slot < 0:  # defensive: should be unreachable
                return None
            trail.append(slot)
            node = arc_v[slot]
        return [self._constraint(slot) for slot in trail[seen[node]:]]

    def _constraint(self, slot: int) -> Constraint:
        names = self.names
        return Constraint(
            names[self.arc_u[slot]],
            names[self.arc_v[slot]],
            self.arc_b[slot],
            self.arc_tag[slot],
        )

    def normalized(self, dist: list[int]) -> list[int]:
        """Shift a solution so the host variable reads 0."""
        shift = dist[self.host] if self.host >= 0 else 0
        if shift:
            return [d - shift for d in dist]
        return list(dist)

    def violated(self, r: list[int]) -> list[tuple[int, int, int]]:
        """Constraints violated by *r* as (u, v, bound) id triples."""
        out = []
        arc_u, arc_v, arc_b = self.arc_u, self.arc_v, self.arc_b
        for slot in range(len(arc_b)):
            if r[arc_u[slot]] - r[arc_v[slot]] > arc_b[slot]:
                out.append((arc_u[slot], arc_v[slot], arc_b[slot]))
        return out

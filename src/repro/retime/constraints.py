"""Infeasibility certificates for systems of difference constraints.

Retiming legality, register-class bounds and period requirements are
all difference constraints ``r(u) − r(v) ≤ b`` (paper Sec. 2, 4.1,
5.1), kept and solved by :class:`repro.kernels.CompiledSystem`.  When a
system has no solution, the solver's negative cycle is the proof; this
module holds the error types that carry it.
"""

from __future__ import annotations

from typing import Iterable

from ..kernels.diffsys import Constraint


class InfeasibleError(Exception):
    """Raised when a difference system has no solution (negative cycle)."""


class InfeasibleConstraints(InfeasibleError):
    """Infeasibility with a machine-checkable negative-cycle certificate.

    *cycle* is the witness: a list of :class:`Constraint` whose arcs
    chain into a cycle (``cycle[i].v == cycle[(i+1) % k].u``) and whose
    bounds sum to a negative number — no assignment can satisfy all of
    them simultaneously, which is exactly why the system (and therefore
    the requested period) is infeasible.  The certificate re-validates
    independently of the solver: sum the bounds, check the chain.
    """

    def __init__(
        self,
        message: str,
        cycle: Iterable[Constraint] = (),
        period: float | None = None,
    ) -> None:
        super().__init__(message)
        self.cycle: list[Constraint] = list(cycle)
        self.period = period

    @property
    def total(self) -> int:
        """Sum of the cycle's bounds (negative for a valid certificate)."""
        return sum(c.bound for c in self.cycle)

    def certificate(self) -> dict:
        """JSON-ready negative-cycle certificate."""
        return {
            "kind": "negative_cycle",
            "period": self.period,
            "sum": self.total,
            "constraints": [
                {"u": c.u, "v": c.v, "bound": c.bound, "tag": c.tag}
                for c in self.cycle
            ],
        }

    def summary(self) -> str:
        """One-line human diagnostic naming the cycle."""
        if not self.cycle:
            return str(self)
        tags: dict[str, int] = {}
        for c in self.cycle:
            tags[c.tag or "untagged"] = tags.get(c.tag or "untagged", 0) + 1
        path = " -> ".join(c.u for c in self.cycle) + f" -> {self.cycle[0].u}"
        tag_note = ", ".join(f"{t}x{n}" for t, n in sorted(tags.items()))
        return (
            f"{self}: {len(self.cycle)}-constraint cycle {path} "
            f"sums to {self.total} ({tag_note})"
        )

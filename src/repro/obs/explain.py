"""Certificate-backed explanations for retiming results.

Every solver in the pipeline is naturally self-explaining: the binding
period is witnessed by a maximal register-free path, minimality by a
negative cycle at any smaller period, per-gate clamps by the mc-bound
machinery's own step-validity predicate, and every register of min-area
cost by LP duality on the min-cost-flow solution.  This module extracts
those facts as **machine-checkable certificates** and renders them as
human explanations (``mcretime explain``):

* **why-period** — the critical-path witness (gate chain whose delays
  re-sum bit-exactly to the achieved period over zero-register retimed
  edges) plus, when the period was minimised, a negative-cycle
  certificate at the next-lower candidate period: the gate cycle whose
  register count cannot separate its register-free segments, reported
  with its delay/registers ratio.
* **why-stuck** — per-gate bound attribution: which mc-bound
  (``r_min^mc`` / ``r_max^mc``) clamps the gate and the concrete
  blocker behind it (incompatible register-class pair on named edges,
  empty register layer, separation-vertex cap, conflict clamp).
* **why-area** — min-area attribution from the min-cost-flow dual:
  per-vertex cost coefficients and lags, flow-carrying (binding)
  constraints, separation/mirror charges, and the strong-duality
  identity ``registers == primal == dual`` re-checked arithmetically.
* **lags** — the tight-constraint predecessor chain through the host
  explaining each vertex's lag (telescoping sums re-validated).
* **why-infeasible** — :class:`repro.retime.constraints.
  InfeasibleConstraints` carries a verified negative-cycle certificate;
  :func:`infeasible_payload` turns it into the same JSON shape.

All extraction is post-hoc: nothing here runs unless an explanation was
requested, so the solving hot paths pay nothing when explain is off
(gated by ``benchmarks/bench_obs.py --check-explain``).  Because every
certificate is re-validated independently of the solver that produced
it (:func:`validate_explanation`), the layer doubles as a correctness
oracle over the retiming solvers.

See docs/EXPLAIN.md for worked examples.
"""

from __future__ import annotations

import json
from typing import Any

SCHEMA = "repro.explain/1"

__all__ = [
    "SCHEMA",
    "area_attribution",
    "build_explanation",
    "critical_path_witness",
    "infeasible_payload",
    "lag_parents",
    "period_lower_bound",
    "render_explanation",
    "stuck_attribution",
    "summary_metrics",
    "validate_explanation",
]

#: Same float slack as the retiming engines.
_EPS = 1e-9


# ---------------------------------------------------------------------------
# why-period: witness + lower bound
# ---------------------------------------------------------------------------


def critical_path_witness(graph, r: dict[str, int]) -> dict[str, Any]:
    """The critical-path certificate: achieved period, witnessed.

    Walks the Δ-sweep predecessor chain from the maximal vertex and
    re-sums the gate delays in chain order — the same left-fold the
    sweep itself performs, so the sum reproduces the achieved period
    **bit-exactly**.  Every consecutive edge must carry zero registers
    under *r* (recorded for independent re-validation).
    """
    from ..kernels import compile_graph, delta_sweep

    cg = compile_graph(graph)
    sweep = delta_sweep(cg, cg.r_array(r))
    period = sweep.period
    # the first maximal vertex in the sweep's topological order
    end = next(v for v in sweep.order if sweep.delta[v] == period)
    path = [cg.names[i] for i in sweep.path(end)]
    delays = [graph.vertices[v].delay for v in path]
    acc = 0.0
    for d in delays:
        acc += d
    edges = []
    for u, v in zip(path, path[1:]):
        w = min(
            graph.retimed_weight(e, r)
            for e in graph.out_edges(u)
            if e.v == v
        )
        edges.append({"u": u, "v": v, "w_retimed": w})
    return {
        "kind": "critical_path",
        "period": period,
        "path": path,
        "delays": delays,
        "sum": acc,
        "edges": edges,
    }


def _feasibility_probe(graph, bounds, phi, paths=None):
    """Min-period's lazy feasibility loop at *phi* from the base system.

    Returns ``(system, feasible)``: the system the loop grew (period
    constraints tagged ``period``) and whether *phi* is feasible.
    *paths* receives each generated constraint's gate path, keyed by
    vertex-id pair (see :func:`repro.retime.minperiod.
    add_period_constraints`).
    """
    from ..kernels import compile_graph
    from ..retime.minperiod import _base_system, _lazy_feasibility

    cg = compile_graph(graph)
    system = _base_system(cg, bounds)
    r, _rounds, _sweep = _lazy_feasibility(cg, phi, system, paths)
    return system, r is not None


def _compose_cycle(cycle, paths):
    """Expand a negative cycle's constraints into a gate cycle.

    Circuit constraints contribute their edge (bound registers); period
    constraints contribute their captured register-free path (bound + 1
    registers, the path's original weight).  Returns ``(gates,
    registers)`` or None when the cycle runs through pin/class arcs
    (those name an mc-bound clamp instead of a pure gate cycle).
    """
    gates: list[str] = []
    registers = 0
    for c in cycle:
        if c["tag"] == "circuit":
            seg = [c["u"], c["v"]]
            registers += c["bound"]
        elif c["tag"] == "period":
            seg = paths.get((c["u"], c["v"])) or [c["u"], c["v"]]
            registers += c["bound"] + 1
        else:
            return None
        if gates and gates[-1] == seg[0]:
            gates.extend(seg[1:])
        else:
            gates.extend(seg)
    if len(gates) > 1 and gates[0] == gates[-1]:
        gates.pop()
    return gates, registers


def period_lower_bound(graph, bounds, period: float) -> dict[str, Any] | None:
    """Minimality certificate: a negative cycle at the next-lower period.

    Probes feasibility just below the achieved period (half a unit for
    integral delays, a relative epsilon otherwise) and extracts the
    negative cycle proving no retiming can beat it.  When the cycle is
    pure circuit+period it is expanded into the witnessing gate cycle
    with its delay/registers ratio — the classic ``ceil(D/W)`` bound.
    Returns None when the probe is still feasible (period not proven
    minimal at this granularity — e.g. a float-delay search that
    converged within its epsilon, or a caller-supplied target period).
    """
    integral = period == int(period) and all(
        v.delay == int(v.delay) for v in graph.vertices.values()
    )
    probe = period - 0.5 if integral else period - max(period * 1e-6, 1e-6)
    if probe < 0:
        return None
    path_ids: dict[tuple[int, int], list[int]] = {}
    system, feasible = _feasibility_probe(graph, bounds, probe, path_ids)
    if feasible:
        return None
    cycle = system.negative_cycle()
    if cycle is None:
        return None
    names = system.names
    paths = {
        (names[u], names[v]): [names[i] for i in chain]
        for (u, v), chain in path_ids.items()
    }
    constraints = [
        {"u": c.u, "v": c.v, "bound": c.bound, "tag": c.tag} for c in cycle
    ]
    cert: dict[str, Any] = {
        "kind": "negative_cycle",
        "probe_period": probe,
        "sum": sum(c["bound"] for c in constraints),
        "constraints": constraints,
        "paths": {
            f"{u}->{v}": chain
            for (u, v), chain in paths.items()
            if any(c["u"] == u and c["v"] == v for c in constraints)
        },
    }
    composed = _compose_cycle(constraints, paths)
    if composed is not None:
        gates, registers = composed
        delay = 0.0
        for g in gates:
            delay += graph.vertices[g].delay
        cert["cycle_gates"] = gates
        cert["registers"] = registers
        cert["delay"] = delay
        if registers > 0:
            cert["ratio"] = delay / registers
            if integral:
                ceil = -(-int(round(delay)) // registers)
                cert["ratio_ceil"] = ceil
                cert["ratio_matches_period"] = float(ceil) == period
    else:
        tags = sorted({c["tag"] for c in constraints} - {"circuit", "period"})
        cert["bound_tags"] = tags  # mc-bound / pin arcs participate
    return cert


# ---------------------------------------------------------------------------
# lags: tight-chain attribution
# ---------------------------------------------------------------------------


def lag_parents(system, r: dict[str, int]) -> dict[str, Any]:
    """Tight-constraint predecessor chains through the host.

    A constraint ``r(u) − r(v) ≤ b`` is *tight* when equality holds;
    chaining tight constraints from the host explains each reachable
    vertex's lag as a telescoping sum of named bounds.  Vertices not
    reachable through tight arcs have lags pinned by the objective, not
    by any constraint chain — they are reported absent.
    """
    from ..graph.retiming_graph import HOST

    by_source: dict[str, list] = {}
    for c in system:
        by_source.setdefault(c.v, []).append(c)
    parents: dict[str, dict[str, Any]] = {}
    frontier = [HOST]
    visited = {HOST}
    while frontier:
        v = frontier.pop()
        rv = r.get(v, 0)
        for c in by_source.get(v, ()):
            if c.u in visited:
                continue
            if r.get(c.u, 0) - rv == c.bound:
                visited.add(c.u)
                parents[c.u] = {
                    "u": c.u,
                    "v": c.v,
                    "bound": c.bound,
                    "tag": c.tag,
                }
                frontier.append(c.u)
    return {"host": HOST, "parents": parents}


def lag_chain(lags: dict[str, Any], gate: str) -> list[dict[str, Any]]:
    """Reconstruct the tight chain host → *gate* from a parents map."""
    chain = []
    node = gate
    parents = lags.get("parents", {})
    seen = set()
    while node in parents and node not in seen:
        seen.add(node)
        chain.append(parents[node])
        node = parents[node]["v"]
    return chain


# ---------------------------------------------------------------------------
# why-stuck: bound attribution
# ---------------------------------------------------------------------------


def stuck_attribution(
    work_graph,
    bounds_result,
    transform,
    work_bounds: dict[str, tuple[int, int]],
    r: dict[str, int],
) -> dict[str, Any]:
    """Name the concrete blocker for every gate clamped at an mc-bound.

    For a gate sitting at ``r_max^mc`` the backward-step validity
    predicate is probed on the *maximally backward-retimed* graph — the
    exact state in which the bounds pass stopped moving it — so the
    reason (incompatible class pair, empty layer, no fanout) is the real
    one, not a reconstruction; symmetrically ``r_min^mc`` probes the
    forward graph.  Engine clamps below the mc-bound (justification
    conflicts, relocation deadlocks) and separation-vertex caps (Eq. 3)
    are reported as such.
    """
    from ..graph.mcgraph import backward_block_reason, forward_block_reason

    seps = {s.sep: s for s in transform.separations} if transform else {}
    entries: dict[str, dict[str, Any]] = {}
    for v in sorted(work_bounds):
        lo, hi = work_bounds[v]
        rv = r.get(v, 0)
        vertex = work_graph.vertices.get(v)
        kind = vertex.kind if vertex is not None else "unknown"
        binding: list[str] = []
        reasons: list[dict[str, Any]] = []
        if rv >= hi:
            binding.append("r_max^mc")
            reasons.append(_bound_reason(
                v, hi, kind, seps, bounds_result, "backward",
                backward_block_reason,
            ))
        if rv <= lo:
            binding.append("r_min^mc")
            reasons.append(_bound_reason(
                v, lo, kind, seps, bounds_result, "forward",
                forward_block_reason,
            ))
        if not binding:
            continue
        entries[v] = {
            "r": rv,
            "r_min": lo,
            "r_max": hi,
            "kind": kind,
            "binding": binding,
            "reasons": reasons,
        }
    return entries


def _bound_reason(v, bound, kind, seps, bounds_result, direction, probe):
    if kind == "sep":
        s = seps.get(v)
        reason: dict[str, Any] = {
            "direction": direction,
            "reason": "separation_bound",
        }
        if s is not None:
            reason.update(
                edge=f"{s.u}->{s.v}",
                non_sharable=s.tail_regs,
                detail=(
                    "Eq. 3 cap: moving further would pull non-sharable "
                    "registers across the class cutline"
                ),
            )
        return reason
    mc_lo, mc_hi = bounds_result.bounds.get(v, (0, 0))
    mc_bound = mc_hi if direction == "backward" else mc_lo
    if (direction == "backward" and bound < mc_hi) or (
        direction == "forward" and bound > mc_lo
    ):
        return {
            "direction": direction,
            "reason": "conflict_clamp",
            "mc_bound": mc_bound,
            "clamped_to": bound,
            "detail": (
                "engine clamped below the mc-bound after a justification "
                "conflict or relocation deadlock"
            ),
        }
    graph = (
        bounds_result.backward_graph
        if direction == "backward"
        else bounds_result.forward_graph
    )
    if v not in graph.vertices:
        return {"direction": direction, "reason": "unknown_vertex"}
    reason = probe(graph, v)
    if reason is None:
        # the maximal pass stopped at the per-vertex cap, not a blocker
        return {"direction": direction, "reason": "exploration_cap"}
    return reason


# ---------------------------------------------------------------------------
# why-area: LP dual attribution
# ---------------------------------------------------------------------------


def area_attribution(
    work_graph,
    phi: float,
    bounds: dict[str, tuple[int, int]] | None,
    expected_r: dict[str, int] | None = None,
) -> dict[str, Any]:
    """Min-area attribution from the min-cost-flow dual.

    Re-runs the (deterministic) lazy LP loop at *phi* and reads its
    final flow network: per-vertex cost coefficients and their
    objective contributions, the flow-carrying (binding) constraints
    with their tags, mirror/separation charges, and the strong-duality
    identity ``registers == constant + Σc·r == constant − Σb·flow``
    which the validator re-checks arithmetically.  ``reproduced``
    records that the re-run's solution matches the engine's
    (bit-identity between the re-run and the served result).
    """
    from ..retime.minarea import lazy_min_area
    from ..retime.sharing_model import build_sharing_model, shared_register_count

    model = build_sharing_model(work_graph)
    loop = lazy_min_area(work_graph, phi, bounds, model)
    names = loop.system.names
    full_r = dict(zip(names, loop.r))
    real_r = {v: full_r[v] for v in work_graph.vertices}
    registers = shared_register_count(work_graph, real_r)
    # the flow has one arc per constraint, in constraint order
    arcs = loop.flow.arcs()
    binding = [
        {
            "u": names[u],
            "v": names[v],
            "bound": cost,
            "flow": flow,
            "tag": tag,
        }
        for (u, v, cost, flow), tag in zip(arcs, loop.system.arc_tag)
        if flow
    ]
    dual_sum = sum(flow * cost for _, _, cost, flow in arcs)
    primal_sum = sum(c * full_r.get(v, 0) for v, c in model.cost.items())
    contributions = {
        v: {"cost": c, "r": full_r.get(v, 0), "term": c * full_r.get(v, 0)}
        for v, c in sorted(model.cost.items())
    }
    charges = []
    for v, c in sorted(model.cost.items()):
        vertex = model.graph.vertices.get(v)
        kind = vertex.kind if vertex is not None else "unknown"
        if kind in ("sep", "mirror"):
            charges.append(
                {"vertex": v, "kind": kind, "cost": c, "r": full_r.get(v, 0)}
            )
    return {
        "kind": "area_lp_duality",
        "phi": phi,
        "registers": registers,
        "registers_before": shared_register_count(work_graph),
        "constant": model.constant,
        "primal": model.constant + primal_sum,
        "dual": model.constant - dual_sum,
        "costs": {v: c for v, c in sorted(model.cost.items())},
        "full_r": {v: full_r.get(v, 0) for v in sorted(model.cost)},
        "binding": binding,
        "contributions": contributions,
        "charges": charges,
        "rounds": loop.rounds,
        "reproduced": expected_r is None or real_r == expected_r,
    }


# ---------------------------------------------------------------------------
# assembly + validation
# ---------------------------------------------------------------------------


def build_explanation(
    work_graph,
    bounds_result,
    transform,
    work_bounds: dict[str, tuple[int, int]],
    r: dict[str, int],
    phi: float,
    objective: str,
    target_period: float | None = None,
    design: str = "",
) -> dict[str, Any]:
    """Assemble the full explanation for a solved retiming.

    Called post-hoc by :func:`repro.mcretime.mc_retime` when
    ``explain=True`` — every section is extracted from the already-
    solved state (plus deterministic re-solves on the exceptional
    explain path), never from instrumentation inside the hot loops.
    The result is JSON-ready and self-validating: ``checks`` /
    ``valid`` record the outcome of :func:`validate_explanation` run at
    build time.
    """
    witness = critical_path_witness(work_graph, r)
    period = witness["period"]
    minimal = target_period is None
    lower = period_lower_bound(work_graph, work_bounds, period) if minimal else None
    system, feasible = _feasibility_probe(work_graph, work_bounds, phi)
    lags = lag_parents(system, r) if feasible else {"host": "", "parents": {}}
    stuck = stuck_attribution(
        work_graph, bounds_result, transform, work_bounds, r
    )
    area = (
        area_attribution(work_graph, phi, work_bounds, expected_r=r)
        if objective == "minarea"
        else None
    )
    explanation: dict[str, Any] = {
        "schema": SCHEMA,
        "design": design or work_graph.name,
        "objective": objective,
        "target_period": target_period,
        "phi": phi,
        "period": period,
        "minimal": minimal,
        "minimal_proven": lower is not None,
        "r": {v: r.get(v, 0) for v in sorted(work_graph.vertices)},
        "bounds": {v: list(b) for v, b in sorted(work_bounds.items())},
        "why_period": {"witness": witness, "lower_bound": lower},
        "why_stuck": stuck,
        "lags": lags,
        "why_area": area,
    }
    errors = validate_explanation(work_graph, explanation, bounds_result)
    explanation["certificates"] = certificate_count(explanation)
    explanation["errors"] = errors
    explanation["valid"] = not errors
    return explanation


def certificate_count(explanation: dict[str, Any]) -> int:
    """Number of independently checkable certificates attached."""
    n = 0
    wp = explanation.get("why_period") or {}
    if wp.get("witness"):
        n += 1
    if wp.get("lower_bound"):
        n += 1
    n += len(explanation.get("why_stuck") or ())
    if (explanation.get("lags") or {}).get("parents"):
        n += 1
    if explanation.get("why_area"):
        n += 1
    return n


def validate_explanation(
    work_graph, explanation: dict[str, Any], bounds_result=None
) -> list[str]:
    """Re-check every certificate independently of the solvers.

    Pure arithmetic over the graph and the explanation's own data:
    witness delays re-sum bit-exactly to the period over zero-register
    edges; the negative cycle chains and sums below zero, its gate
    cycle's ``delay/registers`` ratio lower-bounds the period (and
    reproduces it exactly when claimed); tight chains telescope to each
    vertex's lag; the area identity ``registers == primal == dual``
    holds.  Returns a list of error strings — empty means every
    certificate validates.
    """
    errors: list[str] = []
    r = explanation.get("r", {})
    period = explanation.get("period")

    witness = (explanation.get("why_period") or {}).get("witness")
    if witness:
        path = witness["path"]
        if not path:
            errors.append("witness: empty path")
        else:
            acc = 0.0
            for v in path:
                if v not in work_graph.vertices:
                    errors.append(f"witness: unknown vertex {v!r}")
                    break
                acc += work_graph.vertices[v].delay
            else:
                if acc != witness["sum"] or acc != period:
                    errors.append(
                        f"witness: delays sum to {acc}, certificate says "
                        f"{witness['sum']}, period {period}"
                    )
                for u, v in zip(path, path[1:]):
                    w = min(
                        (
                            work_graph.retimed_weight(e, r)
                            for e in work_graph.out_edges(u)
                            if e.v == v
                        ),
                        default=None,
                    )
                    if w != 0:
                        errors.append(
                            f"witness: edge {u}->{v} retimed weight {w} != 0"
                        )

    lower = (explanation.get("why_period") or {}).get("lower_bound")
    if lower:
        cons = lower["constraints"]
        total = sum(c["bound"] for c in cons)
        if total != lower["sum"] or total >= 0:
            errors.append(f"lower_bound: cycle sums to {total}, not negative")
        for i, c in enumerate(cons):
            nxt = cons[(i + 1) % len(cons)]
            if c["v"] != nxt["u"]:
                errors.append("lower_bound: constraint cycle does not chain")
                break
        for key, chain in (lower.get("paths") or {}).items():
            d = sum(work_graph.vertices[g].delay for g in chain if g in work_graph.vertices)
            if d <= lower["probe_period"] + _EPS:
                errors.append(
                    f"lower_bound: path {key} delay {d} does not exceed "
                    f"probe period {lower['probe_period']}"
                )
        if "cycle_gates" in lower:
            d = 0.0
            for g in lower["cycle_gates"]:
                d += work_graph.vertices[g].delay
            if d != lower["delay"]:
                errors.append("lower_bound: cycle delay mismatch")
            w = lower["registers"]
            if w > 0 and period is not None and period + _EPS < d / w:
                errors.append(
                    f"lower_bound: ratio {d / w} exceeds achieved period"
                )
            if lower.get("ratio_matches_period") and float(
                lower["ratio_ceil"]
            ) != period:
                errors.append(
                    "lower_bound: claimed ceil(D/W) == period does not hold"
                )

    lags = explanation.get("lags") or {}
    host = lags.get("host")
    for v, parent in (lags.get("parents") or {}).items():
        if parent["u"] != v:
            errors.append(f"lags: parent arc for {v!r} names {parent['u']!r}")
            continue
        chain = lag_chain(lags, v)
        if not chain or chain[-1]["v"] != host:
            errors.append(f"lags: chain for {v!r} does not reach the host")
            continue
        total = 0
        ok = True
        for c in chain:
            if r.get(c["u"], 0) - r.get(c["v"], 0) != c["bound"]:
                errors.append(f"lags: arc {c['u']}->{c['v']} is not tight")
                ok = False
                break
            total += c["bound"]
        if ok and total != r.get(v, 0) - r.get(host, 0):
            errors.append(
                f"lags: chain for {v!r} telescopes to {total}, lag is "
                f"{r.get(v, 0)}"
            )

    for v, entry in (explanation.get("why_stuck") or {}).items():
        lo, hi = entry["r_min"], entry["r_max"]
        rv = entry["r"]
        if r.get(v, 0) != rv or not (lo <= rv <= hi):
            errors.append(f"why_stuck: {v!r} lag {rv} outside [{lo}, {hi}]")
        if not entry["reasons"]:
            errors.append(f"why_stuck: {v!r} clamped without a reason")
        for reason in entry["reasons"]:
            if reason.get("reason") == "class_mismatch":
                classes = {e["cls"] for e in reason.get("edges", ())}
                if len(classes) < 2:
                    errors.append(
                        f"why_stuck: {v!r} class_mismatch names one class"
                    )
        if bounds_result is not None and entry["kind"] not in ("sep",):
            mc = bounds_result.bounds.get(v)
            if mc is not None and not (mc[0] <= lo and hi <= mc[1]):
                errors.append(
                    f"why_stuck: {v!r} bounds [{lo}, {hi}] outside mc "
                    f"bounds {mc}"
                )

    area = explanation.get("why_area")
    if area:
        from ..retime.sharing_model import shared_register_count

        real_r = {v: r.get(v, 0) for v in work_graph.vertices}
        registers = shared_register_count(work_graph, real_r)
        if registers != area["registers"]:
            errors.append(
                f"why_area: shared register count {registers} != "
                f"certificate {area['registers']}"
            )
        primal = area["constant"] + sum(
            c * area["full_r"].get(v, 0) for v, c in area["costs"].items()
        )
        dual = area["constant"] - sum(
            b["flow"] * b["bound"] for b in area["binding"]
        )
        if primal != area["primal"] or dual != area["dual"]:
            errors.append("why_area: primal/dual recomputation mismatch")
        if not (area["registers"] == primal == dual):
            errors.append(
                f"why_area: duality identity fails (registers "
                f"{area['registers']}, primal {primal}, dual {dual})"
            )
        if not area.get("reproduced", True):
            errors.append("why_area: re-solve did not reproduce the result")

    return errors


def infeasible_payload(err) -> dict[str, Any]:
    """JSON payload for an :class:`InfeasibleConstraints` error."""
    cert = err.certificate()
    cons = cert["constraints"]
    chained = all(
        cons[i]["v"] == cons[(i + 1) % len(cons)]["u"] for i in range(len(cons))
    ) if cons else False
    valid = bool(cons) and cert["sum"] < 0 and chained
    return {
        "schema": SCHEMA,
        "kind": "infeasible",
        "message": str(err),
        "summary": err.summary(),
        "certificate": cert,
        "valid": valid,
        "errors": [] if valid else ["negative-cycle certificate invalid"],
    }


def summary_metrics(explanation: dict[str, Any]) -> dict[str, Any]:
    """Flat, diffable summary for the run ledger / service metrics."""
    wp = explanation.get("why_period") or {}
    witness = wp.get("witness") or {}
    lower = wp.get("lower_bound") or {}
    return {
        "certificates": explanation.get("certificates", 0),
        "valid": bool(explanation.get("valid")),
        "period": explanation.get("period"),
        "minimal_proven": bool(explanation.get("minimal_proven")),
        "witness_gates": len(witness.get("path", ())),
        "cycle_registers": lower.get("registers"),
        "stuck_gates": len(explanation.get("why_stuck") or ()),
        "binding_constraints": len(
            (explanation.get("why_area") or {}).get("binding", ())
        ),
    }


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def render_explanation(
    explanation: dict[str, Any],
    sections: tuple[str, ...] | None = None,
    gate: str | None = None,
    max_items: int = 8,
) -> str:
    """Human-readable tree for ``mcretime explain`` (text mode).

    *sections* restricts output (names: ``why-period``, ``why-stuck``,
    ``why-area``, ``lags``); *gate* focuses why-stuck/lags on one gate.
    """
    if explanation.get("kind") == "infeasible":
        return render_infeasible(explanation)
    want = set(sections) if sections else None

    def on(name: str) -> bool:
        return want is None or name in want

    lines = [
        f"explain {explanation.get('design', '?')} "
        f"(objective {explanation.get('objective')}, "
        f"period {_fmt(explanation.get('period'))})"
    ]
    if on("why-period"):
        lines += _render_period(explanation, max_items)
    if on("why-stuck"):
        lines += _render_stuck(explanation, gate, max_items)
    if on("lags"):
        lines += _render_lags(explanation, gate, max_items)
    if on("why-area") and explanation.get("why_area"):
        lines += _render_area(explanation, max_items)
    errors = explanation.get("errors") or []
    n = explanation.get("certificates", 0)
    verdict = "all valid" if not errors else f"{len(errors)} FAILED"
    lines.append(f"certificates: {n} ({verdict})")
    for e in errors:
        lines.append(f"  ! {e}")
    return "\n".join(lines)


def render_infeasible(payload: dict[str, Any]) -> str:
    """Text rendering of an infeasibility certificate."""
    cert = payload["certificate"]
    cons = cert["constraints"]
    lines = [payload["summary"]]
    for c in cons:
        tag = c["tag"] or "untagged"
        lines.append(
            f"  {c['u']} -> {c['v']}  r({c['u']}) - r({c['v']}) <= "
            f"{c['bound']}  [{tag}]"
        )
    lines.append(
        f"  sum of bounds = {cert['sum']} < 0  "
        f"[{'verified' if payload['valid'] else 'INVALID'}]"
    )
    return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float) and value == int(value):
        return str(int(value))
    return str(value)


def _render_period(explanation, max_items):
    wp = explanation.get("why_period") or {}
    witness = wp.get("witness")
    lines = ["why-period:"]
    if witness:
        path = witness["path"]
        shown = " -> ".join(
            f"{v}({_fmt(d)})" for v, d in list(zip(path, witness["delays"]))[:max_items]
        )
        more = f" ... +{len(path) - max_items}" if len(path) > max_items else ""
        ok = witness["sum"] == explanation.get("period")
        lines.append(
            f"  witness: {len(path)}-gate register-free critical path, "
            f"delay {_fmt(witness['sum'])} "
            f"{'== achieved period [OK]' if ok else '!= period [FAIL]'}"
        )
        lines.append(f"    {shown}{more}")
    lower = wp.get("lower_bound")
    if lower:
        lines.append(
            f"  lower bound: period {_fmt(lower['probe_period'])} infeasible "
            f"— {len(lower['constraints'])}-constraint negative cycle "
            f"(sum {lower['sum']})"
        )
        if "cycle_gates" in lower:
            gates = lower["cycle_gates"]
            shown = " -> ".join(gates[:max_items])
            more = f" ... +{len(gates) - max_items}" if len(gates) > max_items else ""
            note = ""
            if "ratio" in lower:
                note = (
                    f"  D/W = {_fmt(lower['delay'])}/{lower['registers']} "
                    f"= {lower['ratio']:.4g}"
                )
                if lower.get("ratio_matches_period"):
                    note += f", ceil = {lower['ratio_ceil']} == period [OK]"
            lines.append(f"    cycle: {shown}{more}{note}")
        elif lower.get("bound_tags"):
            lines.append(
                "    cycle runs through "
                + ", ".join(lower["bound_tags"])
                + " constraints (mc-bound clamp participates)"
            )
    elif explanation.get("minimal"):
        lines.append(
            "  lower bound: not proven at this granularity "
            "(float-delay search epsilon)"
        )
    else:
        lines.append(
            "  lower bound: n/a (caller-supplied target period, "
            "minimality not claimed)"
        )
    return lines


def _render_stuck(explanation, gate, max_items):
    stuck = explanation.get("why_stuck") or {}
    if gate is not None:
        entry = stuck.get(gate)
        if entry is None:
            bounds = (explanation.get("bounds") or {}).get(gate)
            if bounds is None:
                return [
                    f"why-stuck {gate}: not a movable vertex "
                    "(pinned to the host, or not in this design)"
                ]
            return [
                f"why-stuck {gate}: not clamped — lag "
                f"{explanation['r'].get(gate, 0)} strictly inside "
                f"bounds [{bounds[0]}, {bounds[1]}]"
            ]
        return [f"why-stuck {gate}:"] + _stuck_lines(gate, entry)
    interesting = {
        v: e for v, e in stuck.items()
        if e["kind"] != "sep" and (e["r_max"] != 0 or e["r_min"] != 0 or e["r"] != 0)
    } or stuck
    lines = [f"why-stuck: {len(stuck)} clamped vertices"]
    for v in list(sorted(interesting))[:max_items]:
        lines += _stuck_lines(v, stuck[v])
    if len(interesting) > max_items:
        lines.append(f"  ... +{len(interesting) - max_items} more")
    return lines


def _stuck_lines(v, entry):
    lines = [
        f"  {v}: r={entry['r']} in [{entry['r_min']}, {entry['r_max']}] "
        f"binds {', '.join(entry['binding'])}"
    ]
    for reason in entry["reasons"]:
        kind = reason.get("reason")
        if kind == "class_mismatch":
            pair = reason.get("edges", [])
            desc = " vs ".join(
                f"{e['edge']} class {e['cls']}" for e in pair
            )
            lines.append(f"    {reason['direction']}: class mismatch — {desc}")
        elif kind == "empty_layer":
            lines.append(
                f"    {reason['direction']}: no register layer on "
                f"{reason.get('edge')}"
            )
        elif kind == "conflict_clamp":
            lines.append(
                f"    {reason['direction']}: clamped to "
                f"{reason.get('clamped_to')} (mc bound "
                f"{reason.get('mc_bound')}) by a justification conflict"
            )
        elif kind == "separation_bound":
            lines.append(
                f"    {reason['direction']}: separation vertex cap "
                f"(Eq. 3) on {reason.get('edge', '?')}"
            )
        else:
            lines.append(f"    {reason.get('direction', '?')}: {kind}")
    return lines


def _render_lags(explanation, gate, max_items):
    lags = explanation.get("lags") or {}
    parents = lags.get("parents") or {}
    if gate is not None:
        chain = lag_chain(lags, gate)
        if not chain:
            return [
                f"lag {gate}: r={explanation['r'].get(gate, 0)} — no tight "
                "chain (lag chosen by the objective, not forced)"
            ]
        lines = [f"lag {gate}: r={explanation['r'].get(gate, 0)} forced by:"]
        for c in chain:
            lines.append(
                f"    r({c['u']}) = r({c['v']}) + {c['bound']}  [{c['tag']}]"
            )
        return lines
    nonzero = [v for v in sorted(parents) if explanation["r"].get(v, 0)]
    return [
        f"lags: {len(parents)} vertices have tight constraint chains "
        f"({len(nonzero)} with non-zero lag)"
    ]


def _render_area(explanation, max_items):
    area = explanation["why_area"]
    ok = area["registers"] == area["primal"] == area["dual"]
    lines = [
        "why-area:",
        f"  registers {area['registers']} = primal {area['primal']} = "
        f"dual {area['dual']} "
        f"{'(strong duality holds) [OK]' if ok else '[FAIL]'}",
    ]
    tags: dict[str, int] = {}
    for b in area["binding"]:
        tags[b["tag"] or "untagged"] = tags.get(b["tag"] or "untagged", 0) + 1
    lines.append(
        f"  binding constraints: {len(area['binding'])} flow-carrying arcs ("
        + ", ".join(f"{t} x{n}" for t, n in sorted(tags.items()))
        + ")"
    )
    top = sorted(
        area["contributions"].items(),
        key=lambda kv: abs(kv[1]["term"]),
        reverse=True,
    )[:max_items]
    shown = ", ".join(
        f"{v}({kv['term']:+d})" for v, kv in top if kv["term"]
    )
    if shown:
        lines.append(f"  top charges: {shown}")
    if area["charges"]:
        lines.append(
            f"  class-conflict charges: {len(area['charges'])} "
            "separation/mirror vertices carry cost"
        )
    return lines


def to_json(explanation: dict[str, Any]) -> str:
    """Canonical JSON rendering (sorted keys, stable across runs)."""
    return json.dumps(explanation, indent=2, sort_keys=True, default=str)

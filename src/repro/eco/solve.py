"""Incremental (ECO) multiple-class retiming.

``eco_retime(base, edit)`` answers a stream of near-identical jobs —
small netlist edits, parameter nudges, what-if sweeps — without paying
a cold six-step solve for each.  The contract is absolute: **every ECO
result is bit-identical to a cold solve of the edited design** (same
netlist bytes, same deterministic result metrics).  Speed comes only
from skipping work whose result is provably unchanged, never from
approximation:

* the solver prefix (build → bounds → sharing) is *delay-independent*
  and depends only on graph structure and register classes, so a
  topology-preserving, class-preserving edit reuses the base's prefix
  outright;
* the solves (min-period binary search + min-area LP) depend only on
  the work graph's structure, weights, bounds and vertex delays — not
  on reset values — so the **solve cache** (content-addressed by base
  content + patched delay vector + solve options) returns the full
  retiming instantly for any edit that lands on a previously solved
  delay configuration (reset nudges, reverts, A/B sweeps);
* on a solve-cache miss the edit's delay changes are patched into a
  copy of the base's work graph
  (:func:`repro.eco.patch.patch_graph_delays`), and the live solve
  runs the exact cold trajectory over it;
* clock periods before/after are recomputed with the incremental
  Δ ``refresh`` (:mod:`repro.kernels.delta`), seeded with the edit's
  dirty vertices (``extra_seeds``) and re-swept only over the edit's
  forward cone — the dirty-region STA of the graph domain;
* relocation (reset justification) *does* depend on reset values, so
  it always runs for real on the edited circuit.

Structural edits, class changes, IO changes, edits touching more than
``dirty_threshold`` of the design (the ``_REFRESH_FRACTION``
discipline), and relocation conflicts on a warm path all **fall back
to a cold solve** — correct by construction, only slower.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from .. import obs
from ..graph.build import build_mcgraph
from ..kernels import compile_graph, delta_sweep, refresh
from ..kernels.delta import _REFRESH_FRACTION
from ..mcretime import MCRetimeResult, mc_retime
from ..mcretime.bounds import compute_bounds
from ..mcretime.classes import Classifier
from ..mcretime.engine import _verify_reset_requirements, solve_and_relocate
from ..mcretime.relocate import (
    JustificationConflict,
    RelocationDeadlock,
    relocate,
)
from ..mcretime.reset import JustificationStats
from ..mcretime.sharing import apply_sharing_transform
from ..netlist import Circuit, write_blif
from ..timing.delay_models import DelayModel, UNIT_DELAY
from .diff import CircuitDiff, apply_edit_script, diff_circuits
from .patch import (
    gate_delay_updates,
    patch_compiled_delays,
    patch_graph_delays,
)

#: result fields that must be bit-identical between an ECO solve and a
#: cold solve (everything except wall-clock timings)
DETERMINISTIC_METRICS = (
    "r",
    "n_classes",
    "steps_moved",
    "steps_possible",
    "period_before",
    "period_after",
    "ff_before",
    "ff_after",
    "resolve_attempts",
    "area_registers",
)


def deterministic_metrics(result: MCRetimeResult) -> dict:
    """The timing-independent projection of a retiming result."""
    return {name: getattr(result, name) for name in DETERMINISTIC_METRICS}


@dataclass
class SolveRecord:
    """Cached solver output for one delay configuration of a base."""

    phi: float
    #: full solver retiming over the work-graph vertices (the original
    #: graph's restriction feeds the period computation)
    r: dict[str, int]
    gate_r: dict[str, int]
    area_registers: int | None


@dataclass
class EcoResult:
    """An ECO solve: the retiming result plus how it was obtained."""

    result: MCRetimeResult
    circuit: Circuit
    #: ``"reuse"`` (solve cache hit), ``"resolve"`` (warm prefix, live
    #: solve over patched arrays) or ``"cold"`` (full fallback)
    plan: str
    diff: CircuitDiff | None = None
    dirty_fraction: float = 0.0
    #: why a cold fallback ran (``None`` on warm plans)
    fallback_reason: str | None = None
    #: CSR delay entries patched copy-on-write
    patched_entries: int = 0
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def warm(self) -> bool:
        return self.plan != "cold"


class EcoState:
    """Reusable per-base-design solver state for incremental retiming.

    Holds the base circuit's solver prefix (classifier, mc-graph,
    bounds, sharing transform), the compiled CSR snapshots, the base
    Δ sweep the dirty-region refreshes start from, and the
    content-addressed solve cache.  One state serves any number of
    edits of the same base; construction is lazy, so creating a state
    costs nothing until the first :func:`eco_retime` call.
    """

    def __init__(
        self,
        circuit: Circuit,
        delay_model: DelayModel = UNIT_DELAY,
        semantic_classes: bool = True,
        max_solve_records: int = 64,
    ) -> None:
        self.circuit = circuit
        self.delay_model = delay_model
        self.semantic_classes = semantic_classes
        self.max_solve_records = max(1, max_solve_records)
        self.solve_cache: dict[str, SolveRecord] = {}
        self.stats = {
            "edits": 0,
            "reuse": 0,
            "resolve": 0,
            "cold": 0,
            "patched_entries": 0,
        }
        self._built = False

    # -- lazy prefix ---------------------------------------------------

    def _build_prefix(self) -> None:
        if self._built:
            return
        with obs.timed("eco.prefix", circuit=self.circuit.name):
            self.classifier = Classifier(
                self.circuit, semantic=self.semantic_classes
            )
            self.build = build_mcgraph(
                self.circuit, self.delay_model, self.classifier.classify
            )
            self.graph = self.build.graph
            self.bounds = compute_bounds(self.graph)
            self.transform = apply_sharing_transform(
                self.graph, self.bounds.bounds, self.bounds.backward_graph
            )
            #: name -> class id of the base (class-preservation check)
            self.cid_map = {
                name: self.classifier.classify(reg)
                for name, reg in self.circuit.registers.items()
            }
            #: mc-graph CSR + its Δ sweep at r = 0: the anchor every
            #: dirty-region refresh starts from
            self.graph_cg = compile_graph(self.graph)
            self.zero_sweep = delta_sweep(
                self.graph_cg, [0] * self.graph_cg.n
            )
            self.structural_key = hashlib.sha256(
                json.dumps(
                    {
                        "netlist": write_blif(self.circuit),
                        "model": repr(self.delay_model),
                        "semantic": self.semantic_classes,
                    },
                    sort_keys=True,
                ).encode()
            ).hexdigest()
        self._built = True

    def solve_key(
        self,
        updates: dict[int, float],
        objective: str,
        target_period: float | None,
    ) -> str:
        """Content address of one solve: base content + patched delay
        vector + solve options.  Every edit that lands on the same
        delay configuration (reset nudges, reverts, repeated what-ifs)
        shares the key and reuses the cached retiming."""
        self._build_prefix()
        payload = json.dumps(
            {
                "base": self.structural_key,
                "delays": sorted(updates.items()),
                "objective": objective,
                "target": target_period,
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def remember(self, key: str, record: SolveRecord) -> None:
        if len(self.solve_cache) >= self.max_solve_records:
            # drop the oldest insertion (dict preserves order)
            self.solve_cache.pop(next(iter(self.solve_cache)))
        self.solve_cache[key] = record


def _periods(
    state: EcoState,
    updates: dict[int, float],
    full_r: dict[str, int],
) -> tuple[float, float]:
    """Clock period before/after via dirty-region Δ refreshes.

    Starts from the base's r=0 sweep, patches the edit's delay changes
    in (``extra_seeds`` drives the forward-cone re-sweep), then moves
    to the solved retiming.  The kernel refresh is provably equal to a
    full :func:`~repro.kernels.delta_sweep`, the sweep a cold
    :func:`~repro.mcretime.mc_retime` runs — so both values equal a
    cold solve's ``period_before``/``period_after`` exactly.
    """
    cg = patch_compiled_delays(state.graph_cg, updates)
    zeros = [0] * cg.n
    before = refresh(
        cg, state.zero_sweep, zeros, extra_seeds=set(updates)
    )
    r_list = cg.r_array(full_r)
    after = refresh(cg, before, r_list)
    return before.period, after.period


def eco_retime(
    base: "EcoState | Circuit",
    edit: "list[dict] | Circuit",
    delay_model: DelayModel | None = None,
    target_period: float | None = None,
    objective: str = "minarea",
    semantic_classes: bool | None = None,
    max_conflict_resolves: int = 25,
    verify_resets: bool = True,
    dirty_threshold: float = _REFRESH_FRACTION,
    force_cold: bool = False,
) -> EcoResult:
    """Retime an edited design incrementally against its base.

    Args:
        base: an :class:`EcoState` (reused across edits — the fast
            path) or the base :class:`Circuit` (a throwaway state is
            built).
        edit: an edit script (list of op dicts, see
            :func:`repro.eco.apply_edit_script`) applied to the base,
            or the already-edited :class:`Circuit`.
        delay_model / semantic_classes: must match the state when one
            is passed; default to the state's settings.
        dirty_threshold: fall back to a cold solve when the edit
            touches more than this fraction of cells (the
            ``_REFRESH_FRACTION`` discipline).
        force_cold: always take the cold path (differential testing).

    Returns:
        :class:`EcoResult`; ``.result`` is bit-identical to
        ``mc_retime`` on the edited design.
    """
    state = base if isinstance(base, EcoState) else EcoState(
        base,
        delay_model=delay_model or UNIT_DELAY,
        semantic_classes=True if semantic_classes is None else semantic_classes,
    )
    if delay_model is not None and delay_model != state.delay_model:
        raise ValueError("delay_model differs from the ECO state's")
    if (
        semantic_classes is not None
        and semantic_classes != state.semantic_classes
    ):
        raise ValueError("semantic_classes differs from the ECO state's")

    timings: dict[str, float] = {}
    state.stats["edits"] += 1

    with obs.span("eco.retime", circuit=state.circuit.name):
        with obs.timed("eco.diff") as sp:
            edited = (
                edit
                if isinstance(edit, Circuit)
                else apply_edit_script(state.circuit, edit)
            )
            diff = diff_circuits(state.circuit, edited)
            dirty_fraction = diff.dirty_fraction(edited)
        timings["eco.diff"] = sp.duration
        obs.gauge("eco.dirty_fraction", dirty_fraction)

        reason = None
        if force_cold:
            reason = "forced"
        elif not diff.topology_preserving:
            reason = "structural"
        elif dirty_fraction > dirty_threshold:
            reason = "dirty_fraction"

        classifier = None
        if reason is None:
            state._build_prefix()
            # relocation needs the edited circuit's classifier anyway;
            # compare its partition against the base's — a retype that
            # altered a control function changes classes, which the
            # solver prefix baked in, so reuse would be unsound
            classifier = Classifier(edited, semantic=state.semantic_classes)
            cid_map = {
                name: classifier.classify(reg)
                for name, reg in edited.registers.items()
            }
            if cid_map != state.cid_map:
                reason = "class_changed"

        if reason is not None:
            return _cold(
                state,
                edited,
                diff,
                dirty_fraction,
                reason,
                timings,
                target_period,
                objective,
                max_conflict_resolves,
                verify_resets,
            )

        with obs.timed("eco.patch") as sp:
            updates = gate_delay_updates(
                edited,
                state.delay_model,
                state.graph_cg,
                diff.retyped_gates,
            )
            key = state.solve_key(updates, objective, target_period)
        timings["eco.patch"] = sp.duration
        obs.count("eco.patch.entries", len(updates))
        state.stats["patched_entries"] += len(updates)

        record = state.solve_cache.get(key)
        with obs.timed("eco.resolve", plan="reuse" if record else "live") as sp:
            try:
                if record is not None:
                    obs.count("eco.cache.hit")
                    plan = "reuse"
                    stats = JustificationStats()
                    with obs.timed("engine.relocate") as rsp:
                        reloc = relocate(edited, record.gate_r, classifier)
                    timings["relocate"] = rsp.duration
                    full_r, gate_r = record.r, record.gate_r
                    area_registers = record.area_registers
                    attempts = 0
                else:
                    obs.count("eco.cache.miss")
                    plan = "resolve"
                    work_graph = state.transform.graph
                    if updates:
                        work_graph = patch_graph_delays(
                            work_graph,
                            {
                                state.graph_cg.names[i]: d
                                for i, d in updates.items()
                            },
                        )
                    # the loop mc_retime runs after its prefix, over a
                    # fresh bounds copy: the trajectory (hence the
                    # result) is a cold solve's, bit for bit
                    solved = solve_and_relocate(
                        edited,
                        classifier,
                        work_graph,
                        dict(state.transform.bounds),
                        target_period,
                        objective,
                        max_conflict_resolves,
                        timings,
                    )
                    full_r, gate_r = solved.r, solved.gate_r
                    area_registers = solved.area_registers
                    reloc, stats = solved.reloc, solved.stats
                    attempts = solved.attempts
                    if attempts == 0:
                        # conflict-free solves are pure functions of the
                        # delay configuration — safe to reuse; conflicted
                        # trajectories also depend on reset values, so
                        # they are never cached
                        state.remember(
                            key,
                            SolveRecord(
                                phi=solved.phi,
                                r=dict(full_r),
                                gate_r=dict(gate_r),
                                area_registers=area_registers,
                            ),
                        )
            except (JustificationConflict, RelocationDeadlock):
                # a cached retiming can conflict on *this* edit's reset
                # values even though it was conflict-free on the base's;
                # the cold solve replays the clamp loop from scratch
                return _cold(
                    state,
                    edited,
                    diff,
                    dirty_fraction,
                    "conflict",
                    timings,
                    target_period,
                    objective,
                    max_conflict_resolves,
                    verify_resets,
                )
        timings["eco.resolve"] = sp.duration

        if verify_resets:
            _verify_reset_requirements(reloc.circuit, reloc.requirements)

        period_before, period_after = _periods(state, updates, full_r)

        for stage in ("build", "bounds", "sharing"):
            # the prefix is amortised across edits; the keys stay so
            # timing_fractions() sees the same schema as a cold result
            timings.setdefault(stage, 0.0)

        result = MCRetimeResult(
            circuit=reloc.circuit,
            r=gate_r,
            n_classes=classifier.n_classes,
            steps_moved=reloc.steps_moved,
            steps_possible=state.bounds.steps_possible,
            period_before=period_before,
            period_after=period_after,
            ff_before=len(edited.registers),
            ff_after=len(reloc.circuit.registers),
            stats=stats.merged(reloc.stats),
            timings=timings,
            resolve_attempts=attempts,
            area_registers=area_registers,
        )
        state.stats[plan] += 1
        return EcoResult(
            result=result,
            circuit=edited,
            plan=plan,
            diff=diff,
            dirty_fraction=dirty_fraction,
            patched_entries=len(updates),
            timings=dict(timings),
        )


def _cold(
    state: EcoState,
    edited: Circuit,
    diff: CircuitDiff,
    dirty_fraction: float,
    reason: str,
    timings: dict[str, float],
    target_period: float | None,
    objective: str,
    max_conflict_resolves: int,
    verify_resets: bool,
) -> EcoResult:
    """Full cold solve of the edited design (always bit-identical)."""
    obs.count("eco.fallback")
    obs.count(f"eco.fallback.{reason}")
    state.stats["cold"] += 1
    result = mc_retime(
        edited,
        delay_model=state.delay_model,
        target_period=target_period,
        objective=objective,
        semantic_classes=state.semantic_classes,
        max_conflict_resolves=max_conflict_resolves,
        verify_resets=verify_resets,
    )
    merged = dict(result.timings)
    merged.update(timings)
    result.timings = merged
    return EcoResult(
        result=result,
        circuit=edited,
        plan="cold",
        diff=diff,
        dirty_fraction=dirty_fraction,
        fallback_reason=reason,
        timings=merged,
    )


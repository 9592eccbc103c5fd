"""Register relocation: implement a computed mc-retiming on the circuit.

Step 6 of the paper's flow: given per-gate retiming values, perform the
corresponding sequence of *valid mc-retiming steps* directly on the
netlist, computing equivalent reset states on the way (Sec. 5.2):

* **forward step** (r < 0): bypass the register layer at the gate's
  inputs, insert one register after the gate; its reset values are the
  forward implication of the source values.
* **backward step** (r > 0): remove the register layer at the gate's
  output, insert one register per (non-constant) input net; values come
  from local justification, or from a BDD global justification over the
  cone back to the registers' original positions when the local step
  conflicts (paper Fig. 5).

Every register created by a backward step records the flattened set of
*terminal requirements* — ``(net, sval, aval)`` at original register
positions — it is responsible for.  A global justification solves those
requirements jointly for the new layer *and* any sibling registers
carrying a subset of the same requirements (the paper's "other
registers involved in moving backward the conflicting registers"),
assuming the committed values of all other registers and universally
quantifying primary inputs.

If even the global step fails, :class:`JustificationConflict` reports
the gate and how many backward moves succeeded there, so the engine can
clamp ``r_max^mc`` and re-solve (paper Sec. 5.2, last paragraph).

Scheduling: repeatedly sweep the gates with outstanding moves and apply
any step that is currently valid; a full sweep without progress on a
legal retiming indicates an upstream bug and raises RelocationError.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .. import obs
from ..bdd import BDD, FALSE, TRUE
from ..logic.netfn import net_functions
from ..logic.simulate import eval_nets
from ..logic.ternary import T0, T1, TX, meet
from ..netlist import Circuit, Register
from ..netlist.signals import is_const
from .classes import Classifier
from .reset import JustificationStats, implied_value, justify_pins


class RelocationError(Exception):
    """Raised when a supposedly legal retiming cannot be replayed."""


class RelocationDeadlock(RelocationError):
    """The move scheduler reached a fixed point with moves pending.

    Per-gate unit moves can wedge even for an LP-feasible solution:
    a backward move needs registers on *every* fanout edge right now,
    and with mixed-direction lags on a multi-fanout net no single gate
    may be movable first.  The engine treats this like a justification
    conflict — clamp each stuck gate to the moves it actually
    completed (``done``) and re-solve.

    Attributes:
        pending: gate name -> remaining (signed) moves at the wedge.
        done: gate name -> signed moves successfully applied there.
    """

    def __init__(self, pending: dict[str, int], done: dict[str, int]):
        super().__init__(
            f"relocation deadlocked with pending moves: {pending}"
        )
        self.pending = pending
        self.done = done


class JustificationConflict(Exception):
    """An unresolvable reset conflict at a backward step.

    Attributes:
        gate: vertex where the conflict occurred.
        moves_done: backward moves successfully performed there before
            the conflict — the paper's new upper bound for that vertex.
    """

    def __init__(self, gate: str, moves_done: int) -> None:
        super().__init__(f"unjustifiable backward move at {gate!r}")
        self.gate = gate
        self.moves_done = moves_done


@dataclass
class RelocationResult:
    """Retimed circuit plus bookkeeping."""

    circuit: Circuit
    stats: JustificationStats
    #: layers actually moved (Σ |r(v)|) — the paper's first #Step number
    steps_moved: int = 0
    #: registers created minus removed (net area movement)
    register_delta: int = 0
    #: per-register terminal requirements (register -> {(net, s, a)})
    requirements: dict[str, frozenset] = field(default_factory=dict)


def relocate(
    circuit: Circuit,
    r: dict[str, int],
    classifier: Classifier | None = None,
) -> RelocationResult:
    """Apply retiming *r* (gate name -> lag) to a clone of *circuit*."""
    work = circuit.clone()
    classifier = classifier or Classifier(circuit)
    stats = JustificationStats()
    pending: dict[str, int] = {
        name: value
        for name, value in r.items()
        if value and name in work.gates
    }
    requested = dict(pending)
    requirements: dict[str, frozenset] = {}
    performed: dict[str, int] = {}
    steps_moved = 0
    regs_before = len(work.registers)

    while pending:
        progress = False
        for name in list(pending):
            direction = pending[name]
            gate = work.gates[name]
            if direction > 0:
                applied = _try_backward(
                    work, gate, classifier, requirements, stats, performed
                )
            else:
                applied = _try_forward(
                    work, gate, classifier, requirements, stats
                )
            if applied:
                progress = True
                steps_moved += 1
                pending[name] += -1 if direction > 0 else 1
                if pending[name] == 0:
                    del pending[name]
        if not progress:
            raise RelocationDeadlock(
                dict(pending),
                {name: requested[name] - pending[name] for name in pending},
            )

    merge_shareable_registers(work, classifier, requirements)

    return RelocationResult(
        circuit=work,
        stats=stats,
        steps_moved=steps_moved,
        register_delta=len(work.registers) - regs_before,
        requirements=requirements,
    )


def merge_shareable_registers(
    work: Circuit,
    classifier: Classifier,
    requirements: dict[str, frozenset] | None = None,
) -> int:
    """Merge registers with one driver, one class, and compatible values.

    Relocation materialises one register per gate input, so several
    gates reading the same net end up with duplicate registers; the
    min-area cost model already assumed those share (Leiserson–Saxe
    fanout sharing), and this pass realises it.  Reset values are met
    (X yields to a binary sibling); incompatible values keep separate
    registers.  Returns the number of registers removed.
    """
    from ..logic.ternary import compatible as t_compatible

    requirements = requirements if requirements is not None else {}
    removed = 0
    groups: dict[tuple, list[Register]] = {}
    for reg in work.registers.values():
        groups.setdefault((reg.d, classifier.classify(reg)), []).append(reg)
    for (_, _), members in groups.items():
        if len(members) < 2:
            continue
        keeper = members[0]
        for other in members[1:]:
            if not (
                t_compatible(keeper.sval, other.sval)
                and t_compatible(keeper.aval, other.aval)
            ):
                continue
            keeper.sval = meet(keeper.sval, other.sval)
            keeper.aval = meet(keeper.aval, other.aval)
            if other.name in requirements:
                merged = requirements.get(keeper.name, frozenset()) | (
                    requirements.pop(other.name)
                )
                requirements[keeper.name] = merged
            work.remove_register(other.name)
            work.replace_net(other.q, keeper.q)
            removed += 1
    return removed


def _meet_all(values: list[int]) -> int | None:
    """Meet of ternary values, or None on a 0/1 conflict."""
    acc = TX
    for v in values:
        try:
            acc = meet(acc, v)
        except ValueError:
            return None
    return acc


def _try_backward(
    work: Circuit,
    gate,
    classifier: Classifier,
    requirements: dict[str, frozenset],
    stats: JustificationStats,
    performed: dict[str, int],
) -> bool:
    """One backward layer move across *gate*, if currently valid."""
    out_net = gate.output
    fanout = work.readers(out_net)
    if not fanout:
        return False
    removed: list[Register] = []
    for kind, name, pin in fanout:
        if kind != "register" or pin != 0:
            return False  # some fanout connection has no adjacent register
        removed.append(work.registers[name])
    cids = {classifier.classify(reg) for reg in removed}
    if len(cids) != 1:
        return False
    in_nets = [n for n in gate.inputs if not is_const(n)]
    if not in_nets:
        return False  # constant generator: no fanin edges to receive a layer

    # terminal requirements carried by the removed layer
    req_items: set[tuple[str, int, int]] = set()
    for reg in removed:
        stored = requirements.get(reg.name)
        if stored is not None:
            req_items |= stored
        else:
            req_items.add((out_net, reg.sval, reg.aval))

    # --- try the cheap local justification first -----------------------
    # the new layer must reproduce the removed layer's values AND any
    # terminal requirement anchored at this gate's output net: a derived
    # X-valued register at `out_net` may coexist with a hard requirement
    # (net, s, a) that deeper logic satisfied until now — inserting the
    # new layer cuts that path, so the layer must carry it itself.
    # Requirements anchored here by *other* registers' histories count
    # too: `out_net` may itself be an original register position whose
    # implied value a sibling layer elsewhere still depends on, and the
    # new layer pins that implied value to g(new values).
    local_values: tuple[dict[str, int], dict[str, int]] | None = None
    anchored = [item for item in req_items if item[0] == out_net]
    for reqs in requirements.values():
        anchored.extend(item for item in reqs if item[0] == out_net)
    req_s = _meet_all(
        [reg.sval for reg in removed] + [s for _net, s, _a in anchored]
    )
    req_a = _meet_all(
        [reg.aval for reg in removed] + [a for _net, _s, a in anchored]
    )
    if req_s is not None and req_a is not None:
        vs = justify_pins(gate, req_s)
        va = justify_pins(gate, req_a)
        if vs is not None and va is not None:
            local_values = (vs, va)

    # the global path revises register values, so it must compare the
    # circuit's behaviour against what the committed circuit computed
    # *before* this step (see _global_justify)
    pre = None if local_values is not None else work.clone()

    # --- structural rewiring (shared by both justification paths) ------
    template = removed[0]
    new_regs: dict[str, Register] = {}
    for net in dict.fromkeys(in_nets):
        new_regs[net] = work.add_register(
            d=net,
            clk=template.clk,
            en=template.en,
            sr=template.sr,
            ar=template.ar,
            sval=TX,
            aval=TX,
        )
    for i, net in enumerate(gate.inputs):
        if not is_const(net):
            work.set_gate_input(gate, i, new_regs[net].q)
    for reg in removed:
        work.remove_register(reg.name)
        work.replace_net(reg.q, out_net)
        requirements.pop(reg.name, None)

    frozen = frozenset(req_items)
    if local_values is not None:
        vs, va = local_values
        for net, reg in new_regs.items():
            reg.sval = vs.get(net, TX)
            reg.aval = va.get(net, TX)
            requirements[reg.name] = frozen
        stats.local_steps += 1
        obs.count("relocate.local_steps")
        performed[gate.name] = performed.get(gate.name, 0) + 1
        return True

    # --- global justification over the cone ----------------------------
    ok = _global_justify(
        pre, work, next(iter(cids)), classifier, new_regs, frozen, requirements
    )
    if not ok:
        stats.unresolvable += 1
        raise JustificationConflict(gate.name, performed.get(gate.name, 0))
    stats.global_steps += 1
    obs.count("relocate.global_steps")
    performed[gate.name] = performed.get(gate.name, 0) + 1
    return True


def _global_justify(
    pre: Circuit,
    work: Circuit,
    cid,
    classifier: Classifier,
    new_regs: dict[str, Register],
    req_items: frozenset,
    requirements: dict[str, frozenset],
) -> bool:
    """Joint BDD justification of the requirement set (paper Fig. 5b).

    Two families of constraints, solved per reset channel in one BDD:

    * the flattened *terminal requirements* — implied values at original
      register positions with every committed register at its channel
      value (the environment :func:`_verify_reset_requirements` checks);
    * *frontier function preservation* — revising a sibling register's
      reset value changes what its readers see during that class's
      reset-hold window, while registers of other classes keep arbitrary
      dynamic contents.  So at every committed register pin and primary
      output the step can reach, the net's function — over primary
      inputs and other-class register contents, with same-class
      committed registers at their channel values — must equal its
      pre-step function.  Value-level snapshots are not enough: a
      revision can keep an X-valued implication X while silently
      changing which function of the inputs reaches a committed D pin.

    Revisable siblings are restricted to registers of the moved layer's
    class whose whole responsibility is a subset of the requirements
    being solved (the paper's "other registers involved in moving
    backward the conflicting registers").  Returns False when no
    assignment exists; the caller refuses the step and the engine clamps
    ``r_max^mc`` (paper Sec. 5.2, last paragraph).
    """
    # requirements per net, with per-net meets (a hard clash here means
    # two original registers at one position disagreed — unresolvable).
    # Iterate in sorted order: req_items is a set, and its hash-dependent
    # order would otherwise leak into the BDD variable order and thereby
    # into which (equally valid) justification gets picked, making runs
    # irreproducible across interpreter hash seeds.
    required_s: dict[str, int] = {}
    required_a: dict[str, int] = {}
    for net, sval, aval in sorted(req_items):
        s = _meet_all([required_s.get(net, TX), sval])
        a = _meet_all([required_a.get(net, TX), aval])
        if s is None or a is None:
            return False
        required_s[net] = s
        required_a[net] = a

    cut = {reg.q for reg in new_regs.values()}
    revisable: dict[str, Register] = {reg.q: reg for reg in new_regs.values()}
    for name in sorted(requirements):
        reqs = requirements[name]
        if reqs and reqs <= req_items:
            reg = work.registers.get(name)
            if reg is not None and classifier.classify(reg) == cid:
                cut.add(reg.q)
                revisable[reg.q] = reg

    # nets the step can change, post-rewiring
    affected = set(cut)
    for gate in work.topo_gates():
        if gate.output not in affected and any(
            n in affected for n in gate.inputs
        ):
            affected.add(gate.output)

    # outstanding requirements from other registers' histories that
    # anchor at nets this step can change must be preserved as well
    for name in sorted(requirements):
        for net, sval, aval in sorted(requirements[name]):
            if net not in affected:
                continue
            s = _meet_all([required_s.get(net, TX), sval])
            a = _meet_all([required_a.get(net, TX), aval])
            if s is None or a is None:
                return False
            required_s[net] = s
            required_a[net] = a

    # observation frontier: register pins and primary outputs the change
    # can reach, paired with their pre-step nets.  Keyed by register
    # name / output index because the rewiring renames nets in place
    # (removed Q nets collapse onto the moved gate's output net).  Cut
    # registers' own D pins are observed too: the new layer samples the
    # moved gate's input nets every cycle, and a sibling revision that
    # shifts what those nets compute right after a reset changes the
    # data the moved region replays one cycle later.  New registers have
    # no pre-step twin; their D nets kept their names through the
    # rewiring, so the pre-step net is the same string.
    targets: list[tuple[str, str]] = []
    for name in sorted(work.registers):
        reg = work.registers[name]
        pre_reg = pre.registers.get(name)
        for attr in ("d", "en", "sr", "ar"):
            post_net = getattr(reg, attr)
            if post_net is None or post_net not in affected:
                continue
            pre_net = (
                getattr(pre_reg, attr) if pre_reg is not None else post_net
            )
            targets.append((pre_net, post_net))
    for index, post_net in enumerate(work.outputs):
        if post_net in affected:
            targets.append((pre.outputs[index], post_net))

    new_q = {reg.q for reg in new_regs.values()}
    template = next(iter(new_regs.values()))
    solutions = []
    for attr, pin, required in (
        ("sval", template.sr, required_s),
        ("aval", template.ar, required_a),
    ):
        # a class without the matching reset pin never loads this
        # channel, so there is no reset event to preserve behaviour
        # across — only the implied-value requirements remain (other
        # classes' bookkeeping still references this channel's state)
        chan_targets = targets if pin is not None else []
        sol = _solve_channel(
            pre, work, cid, classifier, attr, required, cut, chan_targets
        )
        if sol is None:
            return False
        # a don't-care on a *sibling* keeps its committed value: the BDD
        # treats X as "either binary value works", but to the ternary
        # simulator X is an information loss its readers may observe
        for q_net, reg in revisable.items():
            if q_net not in new_q and sol.get(q_net, TX) == TX:
                sol[q_net] = getattr(reg, attr)
        if not _ternary_ok(
            pre, work, cid, classifier, attr, required, sol, chan_targets
        ):
            return False
        solutions.append(sol)
    sol_s, sol_a = solutions
    for q_net, reg in revisable.items():
        reg.sval = sol_s.get(q_net, TX)
        reg.aval = sol_a.get(q_net, TX)
        if reg.name not in requirements or reg.q in {
            nr.q for nr in new_regs.values()
        }:
            requirements[reg.name] = req_items
    return True


def _ternary_ok(
    pre: Circuit,
    work: Circuit,
    cid,
    classifier: Classifier,
    attr: str,
    required: dict[str, int],
    cut_vals: dict[str, int],
    targets: list[tuple[str, str]],
) -> bool:
    """Validate a BDD solution under per-gate ternary evaluation.

    The BDD solve reasons over binary completions, so it may leave a
    don't-care cut variable at X — but the sequential simulator's
    per-gate X-propagation is structural, and an X reset value can
    surface as X at a net the pre-step circuit kept binary (a real
    refinement violation even though every binary completion agrees).
    So re-check the solution with :func:`eval_nets`: the terminal
    requirements must implicate exactly in the all-channel-values
    state, and every frontier target must evaluate identically to the
    pre-step circuit in the class reset state (other classes X).
    """
    env_all: dict[str, int] = {}
    env_cls_post: dict[str, int] = {}
    for reg in work.registers.values():
        val = cut_vals.get(reg.q, getattr(reg, attr))
        env_all[reg.q] = val
        if classifier.classify(reg) == cid:
            env_cls_post[reg.q] = val
    vals_all = eval_nets(work, env_all)
    for net, val in required.items():
        if val != TX and vals_all.get(net, TX) != val:
            return False
    if not targets:
        return True
    # warm-up environment: every class resets at once
    pre_all = eval_nets(
        pre, {reg.q: getattr(reg, attr) for reg in pre.registers.values()}
    )
    for pre_net, post_net in targets:
        if vals_all.get(post_net, TX) != pre_all.get(pre_net, TX):
            return False
    # class reset environment: other classes hold dynamic contents (X)
    env_cls_pre = {
        reg.q: getattr(reg, attr)
        for reg in pre.registers.values()
        if classifier.classify(reg) == cid
    }
    post_vals = eval_nets(work, env_cls_post)
    pre_vals = eval_nets(pre, env_cls_pre)
    for pre_net, post_net in targets:
        if post_vals.get(post_net, TX) != pre_vals.get(pre_net, TX):
            return False
    return True


def _solve_channel(
    pre: Circuit,
    work: Circuit,
    cid,
    classifier: Classifier,
    attr: str,
    required: dict[str, int],
    cut: set[str],
    targets: list[tuple[str, str]],
) -> dict[str, int] | None:
    """Solve one reset channel of a global justification (see above).

    Register Q nets share BDD variables between the pre- and post-step
    circuits: a committed register's dynamic content is the same
    unknown on both sides of every equality constraint.
    """
    bdd = BDD()
    # environment A: every committed register at its channel value — the
    # terminal requirements are implications in exactly this state
    bind_all: dict[str, int] = {}
    # environment B: only class-`cid` registers at channel values; other
    # classes hold arbitrary dynamic contents (free, quantified below)
    bind_cls_post: dict[str, int] = {}
    for reg in work.registers.values():
        if reg.q in cut:
            continue
        val = getattr(reg, attr)
        if val == TX:
            continue
        node = TRUE if val == T1 else FALSE
        bind_all[reg.q] = node
        if classifier.classify(reg) == cid:
            bind_cls_post[reg.q] = node
    bind_cls_pre: dict[str, int] = {}
    for reg in pre.registers.values():
        val = getattr(reg, attr)
        if val == TX or classifier.classify(reg) != cid:
            continue
        bind_cls_pre[reg.q] = TRUE if val == T1 else FALSE

    constraint = TRUE
    hard = {net: val for net, val in required.items() if val != TX}
    if hard:
        fns = net_functions(work, list(hard), bdd, bindings=bind_all)
        for net in sorted(hard):
            f = fns[net]
            constraint = bdd.and_(
                constraint, f if hard[net] == T1 else bdd.not_(f)
            )
            if constraint == FALSE:
                return None
    if targets:
        post_fns = net_functions(
            work, [p for _, p in targets], bdd, bindings=bind_cls_post
        )
        pre_fns = net_functions(
            pre, [p for p, _ in targets], bdd, bindings=bind_cls_pre
        )
        for pre_net, post_net in targets:
            constraint = bdd.and_(
                constraint, bdd.xnor(pre_fns[pre_net], post_fns[post_net])
            )
            if constraint == FALSE:
                return None

    # everything we do not control — primary inputs, other-class
    # contents, removed registers' unknowns — must not be relied upon
    foreign = [
        level
        for level in bdd.support(constraint)
        if bdd.var_name(level) not in cut
    ]
    if foreign:
        constraint = bdd.forall(constraint, foreign)
        if constraint == FALSE:
            return None
    model = bdd.sat_one(constraint)
    if model is None:
        return None
    result = {net: TX for net in cut}
    name_of = bdd.var_names()
    for level, value in model.items():
        net = name_of[level]
        if net in result:
            result[net] = T1 if value else T0
    return result


def _try_forward(
    work: Circuit,
    gate,
    classifier: Classifier,
    requirements: dict[str, frozenset],
    stats: JustificationStats,
) -> bool:
    """One forward layer move across *gate*, if currently valid."""
    in_nets = [n for n in gate.inputs if not is_const(n)]
    if not in_nets:
        return False
    drivers: dict[str, Register] = {}
    for net in in_nets:
        reg = work.driver_register(net)
        if reg is None:
            return False
        drivers[net] = reg
    cids = {classifier.classify(reg) for reg in drivers.values()}
    if len(cids) != 1:
        return False

    # forward implication of the reset values (exact ternary)
    sval = implied_value(gate, {n: r.sval for n, r in drivers.items()})
    aval = implied_value(gate, {n: r.aval for n, r in drivers.items()})

    template = next(iter(drivers.values()))
    # bypass the source registers at this gate's pins
    for i, net in enumerate(gate.inputs):
        if not is_const(net):
            work.set_gate_input(gate, i, drivers[net].d)
    # drop sources that became unobservable
    for reg in drivers.values():
        if reg.name in work.registers and not work.readers(reg.q):
            work.remove_register(reg.name)
            requirements.pop(reg.name, None)
    # insert the new layer after the gate
    old_out = gate.output
    new_net = work.new_net("fwd")
    work.rewire_gate_output(gate, new_net)
    work.add_register(
        d=new_net,
        q=old_out,
        clk=template.clk,
        en=template.en,
        sr=template.sr,
        ar=template.ar,
        sval=sval,
        aval=aval,
    )
    stats.forward_steps += 1
    obs.count("relocate.forward_steps")
    return True

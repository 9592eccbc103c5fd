"""``mcretime`` — retime netlist files from the command line.

Reads extended BLIF (``.blif``/``.mcblif``) or the structural Verilog
subset (``.v``), runs multiple-class retiming (optionally preceded by
optimisation and LUT mapping), and writes the result back in either
format.

Examples::

    mcretime design.blif -o retimed.blif
    mcretime design.v --map --objective minperiod -o out.v
    mcretime design.blif --target-period 12.5 --report
    mcretime design.blif --check          # validate + stats only

Two subcommands run the throughput transforms of :mod:`repro.pipeline`
(see ``docs/PIPELINE.md``) — pipelining (insert K output register
layers, retime to balance) and C-slow (C-way thread interleaving)::

    mcretime pipeline design.blif --stages 3 --report -o out.blif
    mcretime cslow design.blif --factor 3 --verify -o out.blif

Two subcommands expose the batch service layer
(:mod:`repro.service`, see ``docs/SERVICE.md``)::

    mcretime batch designs/ -o retimed/ --workers 4
    mcretime serve --port 8117 --cache-dir ~/.cache/mcretime

``mcretime explain`` answers *why* a retiming result is what it is,
with machine-checkable certificates (see ``docs/EXPLAIN.md``): the
critical cycle pinning the period, the mc-bound / class conflict
clamping a gate, the LP-duality accounting of every register, and a
verified negative-cycle certificate for infeasible targets::

    mcretime explain design.blif --why-period
    mcretime explain design.blif --why-stuck gate_name
    mcretime explain design.blif --why-area --json --out explain.json
    mcretime explain design.blif --target-period 3 --why-infeasible

Distributed tracing & SLOs (see ``docs/OBSERVABILITY.md``): a served
system run with ``--trace-dir`` writes per-process traces that
``mcretime report --stitch`` merges into one wall-clock timeline;
``--critical-path`` attributes request time to queue/intern/solve/
respond; ``mcretime top`` is a live dashboard and ``mcretime slo``
gates rolling-window burn rates::

    mcretime serve --trace-dir traces/ --slo-config slo.json
    mcretime report traces/ --stitch --critical-path --out merged.json
    mcretime top --url http://127.0.0.1:8117
    mcretime slo check --url http://127.0.0.1:8117 --config slo.json

Tracing (see ``docs/OBSERVABILITY.md``): ``--trace out.json`` writes a
Chrome trace_event JSON, ``--log-json run.jsonl`` a structured run log,
``-v`` prints the span summary tree to stderr; ``mcretime report``
renders a saved trace back into that tree::

    mcretime design.blif --trace out.json --log-json run.jsonl -v
    mcretime report run.jsonl

Profiling & the run ledger (same doc): ``--profile out.json`` samples
the run into speedscope flame data, ``--ledger runs.jsonl`` appends a
schema-validated run record; ``mcretime obs diff/check`` compare
ledgers and gate on perf regressions::

    mcretime design.blif --profile flame.json --ledger runs.jsonl
    mcretime obs diff old_runs.jsonl new_runs.jsonl
    mcretime obs check --baseline baseline.jsonl runs.jsonl

Verification (see ``docs/VERIFICATION.md``): ``--verify`` sequentially
checks every transformed netlist against its original with the
bit-parallel coverage-directed checker and fails the run on a
mismatch; ``mcretime fuzz`` differential-fuzzes the whole pipeline::

    mcretime design.blif --map --verify -o out.blif
    mcretime fuzz --rounds 50
    mcretime fuzz --mutate --time-budget 60
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from pathlib import Path

from .. import obs
from ..flows import baseline_flow, cslow_flow, pipeline_flow, retime_flow
from ..mcretime import mc_retime
from ..netlist import (
    Circuit,
    NetlistError,
    check_circuit,
    circuit_stats,
    class_histogram,
    format_class_histogram,
    read_blif,
    read_verilog,
    write_blif,
    write_verilog,
)
from ..pipeline import PipelineError, cslow_retime, pipeline_retime
from ..retime.constraints import InfeasibleConstraints, InfeasibleError
from ..timing import UNIT_DELAY, XC4000E_DELAY, analyze
from ..verify import (
    VerificationError,
    check_cslow,
    check_pipeline,
    check_sequential,
)

#: netlist suffixes ``mcretime batch`` picks up when given a directory
BATCH_SUFFIXES = (".blif", ".mcblif", ".v", ".sv")


def load_circuit(path: Path) -> Circuit:
    """Load a netlist by extension (.v → Verilog, else BLIF)."""
    text = path.read_text()
    if path.suffix in (".v", ".sv"):
        return read_verilog(text)
    return read_blif(text, name_hint=path.stem)


def save_circuit(circuit: Circuit, path: Path) -> None:
    """Write a netlist by extension (.v → Verilog, else BLIF)."""
    if path.suffix in (".v", ".sv"):
        path.write_text(write_verilog(circuit))
    else:
        path.write_text(write_blif(circuit))


class _Fail(Exception):
    """A one-line user error: :func:`main` prints it and exits 1."""


def _fail(message: str) -> int:
    print(f"mcretime: error: {message}", file=sys.stderr)
    return 1


def _load_checked(path: Path) -> Circuit:
    """:func:`load_circuit` plus ``check_circuit``; a read or netlist
    error becomes a :class:`_Fail` naming *path*."""
    try:
        circuit = load_circuit(path)
        check_circuit(circuit)
    except OSError as exc:
        raise _Fail(f"cannot read {path}: {exc.strerror or exc}") from None
    except NetlistError as exc:
        raise _Fail(f"{path}: {exc}") from None
    return circuit


def _obs_parent() -> argparse.ArgumentParser:
    """The observability flags of the retime and transform commands
    (resolved against their environment variables by :func:`_observed`)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--trace", type=Path, default=None, metavar="OUT.json",
        help="write a Chrome trace_event JSON (open in Perfetto)",
    )
    parent.add_argument(
        "--log-json", type=Path, default=None, metavar="RUN.jsonl",
        help="write a structured JSONL run log (one event per line)",
    )
    parent.add_argument(
        "-v", "--verbose", action="store_true",
        help="print the trace summary tree to stderr after the run",
    )
    parent.add_argument(
        "--profile", type=Path, default=None, metavar="OUT.json",
        help="sample the run with the built-in profiler and write flame "
        "data (speedscope JSON; .txt/.collapsed for collapsed stacks)",
    )
    parent.add_argument(
        "--profile-interval", type=float, default=0.005, metavar="SECONDS",
        help="sampling interval for --profile (default 5ms)",
    )
    parent.add_argument(
        "--ledger", type=Path, default=None, metavar="RUNS.jsonl",
        help="append one run-ledger record (fingerprint, config, span "
        "self-times, counters, result metrics) to this JSONL file",
    )
    return parent


@contextlib.contextmanager
def _observed(args, circuit: Circuit, kind: str, meta: dict):
    """Run the block under the :func:`obs.session` the flags ask for.

    Each flag takes precedence over its environment variable
    (``REPRO_TRACE``, ``REPRO_TRACE_LOG``, ``REPRO_TRACE_SUMMARY``,
    ``REPRO_PROFILE``, ``REPRO_LEDGER``), so wrappers can trace without
    threading flags through their scripts.  Once the block completes,
    every file written is named on stderr.
    """
    env = os.environ
    trace = args.trace or env.get("REPRO_TRACE") or None
    log_json = args.log_json or env.get("REPRO_TRACE_LOG") or None
    verbose = args.verbose or bool(env.get("REPRO_TRACE_SUMMARY"))
    profile = args.profile or env.get("REPRO_PROFILE") or None
    ledger = args.ledger or env.get("REPRO_LEDGER") or None
    if not (trace or log_json or verbose or profile or ledger):
        yield
        return
    with obs.session(
        trace=trace,
        jsonl=log_json,
        summary=verbose,
        meta=meta,
        profile=profile,
        profile_interval=args.profile_interval,
        ledger=ledger,
        ledger_kind=f"cli.{kind}",
        fingerprint=obs.design_fingerprint(circuit) if ledger else None,
    ):
        yield
    for note, path in (
        ("wrote trace to", trace),
        ("wrote run log to", log_json),
        ("wrote profile to", profile),
        ("appended run record to", ledger),
    ):
        if path:
            print(f"{note} {path}", file=sys.stderr)


def _stats_line(circuit: Circuit, delay_model) -> str:
    stats = circuit_stats(circuit)
    delay = analyze(circuit, delay_model).max_delay
    flags = []
    if stats.has_enable:
        flags.append("EN")
    if stats.has_async:
        flags.append("AS/AC")
    flag_text = ",".join(flags) or "plain"
    return (
        f"{stats.n_ff} FF, {len(circuit.gates)} gates "
        f"({flag_text}), delay {delay:.2f}"
    )


def main(argv: list[str] | None = None) -> int:
    """Entry point for the ``mcretime`` console script."""
    argv = list(sys.argv[1:] if argv is None else argv)
    command = argv[0] if argv else None
    subcommands = {
        "serve": _serve_main,
        "batch": _batch_main,
        "report": _report_main,
        "obs": _obs_main,
        "slo": _slo_main,
        "top": _top_main,
        "fuzz": _fuzz_main,
        "eco": _eco_main,
        "explain": _explain_main,
    }
    try:
        if command in ("pipeline", "cslow"):
            return _transform_main(command, argv[1:])
        if command in subcommands:
            return subcommands[command](argv[1:])
        return _retime_main(argv)
    except _Fail as exc:
        return _fail(str(exc))


# ---------------------------------------------------------------------------
# single-file retiming (the classic CLI)
# ---------------------------------------------------------------------------


def _retime_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="mcretime", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        parents=[_obs_parent()],
    )
    parser.add_argument("input", type=Path, help="input netlist (.blif/.v)")
    parser.add_argument("-o", "--output", type=Path, help="output netlist")
    parser.add_argument(
        "--objective", choices=["minarea", "minperiod"], default="minarea"
    )
    parser.add_argument(
        "--target-period", type=float, default=None,
        help="retime for this period instead of the minimum feasible",
    )
    parser.add_argument(
        "--map", action="store_true",
        help="optimise + map to 4-LUTs before retiming (XC4000E flow)",
    )
    parser.add_argument(
        "--delay-model", choices=["unit", "xc4000e"], default=None,
        help="default: xc4000e when --map is given, unit otherwise",
    )
    parser.add_argument(
        "--syntactic-classes", action="store_true",
        help="compare control signals by net name instead of BDD function",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="validate and print stats, don't retime",
    )
    parser.add_argument(
        "--report", action="store_true", help="print the retiming report"
    )
    parser.add_argument(
        "--verify", action="store_true",
        help="sequentially check the result against the input "
        "(coverage-directed bit-parallel refinement check); "
        "a mismatch fails the run with a shrunk counterexample",
    )
    parser.add_argument(
        "--verify-cycles", type=int, default=64, metavar="N",
        help="cycles per verification lane (default 64)",
    )
    args = parser.parse_args(argv)

    circuit = _load_checked(args.input)
    model_name = args.delay_model or ("xc4000e" if args.map else "unit")
    model = XC4000E_DELAY if model_name == "xc4000e" else UNIT_DELAY

    print(f"{args.input}: {_stats_line(circuit, model)}")
    if args.check:
        return 0

    accepted = True
    verify_check = None
    try:
        with _observed(args, circuit, "retime", {
            "input": str(args.input),
            "objective": args.objective,
            "flow": "retime" if args.map else "mcretime",
            "delay_model": model_name,
            "target_period": args.target_period,
        }):
            if args.map:
                # the paper's Table-2 script: optimise + map, retime on
                # the mapped netlist, remap, and keep the better netlist
                # under STA; --verify gates both transform legs
                flow = baseline_flow(
                    circuit, model,
                    verify=args.verify, verify_cycles=args.verify_cycles,
                )
                print(f"mapped: {flow.n_lut} LUTs, delay {flow.delay:.2f}")
                final = retime_flow(
                    circuit,
                    model,
                    objective=args.objective,
                    mapped=flow,
                    target_period=args.target_period,
                    semantic_classes=not args.syntactic_classes,
                    verify=args.verify,
                    verify_cycles=args.verify_cycles,
                )
                result = final.retime
                retimed = final.circuit
                accepted = final.accepted
                verify_check = final.verify or flow.verify
            else:
                result = mc_retime(
                    circuit,
                    delay_model=model,
                    target_period=args.target_period,
                    objective=args.objective,
                    semantic_classes=not args.syntactic_classes,
                )
                retimed = result.circuit
                if args.verify:
                    verify_check = check_sequential(
                        circuit, retimed, cycles=args.verify_cycles
                    )
                    if not verify_check.equivalent:
                        raise VerificationError(verify_check)
            check_circuit(retimed)
            if obs.enabled():
                stats = circuit_stats(retimed)
                obs.annotate(
                    period_before=result.period_before,
                    period_after=result.period_after,
                    ff_before=result.ff_before,
                    ff_after=result.ff_after,
                    n_classes=result.n_classes,
                    n_lut=stats.n_lut,
                    n_gates=len(retimed.gates),
                    delay=analyze(retimed, model).max_delay,
                    accepted=accepted,
                )
    except InfeasibleError as exc:
        # InfeasibleConstraints carries a verified negative-cycle
        # certificate; its one-line summary names the cycle
        detail = (
            exc.summary() if isinstance(exc, InfeasibleConstraints)
            else str(exc)
        )
        return _fail(detail + " (run `mcretime explain --why-infeasible`)")
    except VerificationError as exc:
        return _fail(str(exc))
    print(f"retimed: {_stats_line(retimed, model)}")
    if verify_check is not None:
        print(
            f"verified: {verify_check.cycles} cycles x "
            f"{verify_check.lanes} lanes, refinement holds"
        )
    if not accepted:
        print(
            "  (retiming rejected: STA delay regressed on the retimed "
            "netlist; keeping the pre-retiming mapping)"
        )

    if args.report:
        fractions = result.timing_fractions()
        if not accepted:
            print(
                "  retiming REJECTED — the numbers below describe the "
                "discarded attempt; the kept netlist is the baseline"
            )
        print(f"  classes          : {result.n_classes}")
        print(
            f"  steps            : {result.steps_moved} moved / "
            f"{result.steps_possible} possible"
        )
        print(
            f"  graph period     : {result.period_before:.2f} -> "
            f"{result.period_after:.2f}"
        )
        print(f"  registers        : {result.ff_before} -> {result.ff_after}")
        print(
            f"  justification    : {result.stats.local_steps} local, "
            f"{result.stats.global_steps} global, "
            f"{result.stats.forward_steps} forward"
        )
        print(
            f"  cpu split        : {100 * fractions['basic_retiming']:.0f}% "
            f"retime / {100 * fractions['relocation']:.0f}% relocate / "
            f"{100 * fractions['mc_overhead']:.0f}% mc overhead"
        )

    if args.output is not None:
        save_circuit(retimed, args.output)
        print(f"wrote {args.output}")
    return 0


# ---------------------------------------------------------------------------
# incremental (ECO) retiming (docs/ECO.md)
# ---------------------------------------------------------------------------


def _eco_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="mcretime eco",
        description=(
            "Incrementally retime an edited design against a base "
            "netlist: the solver prefix and solve cache of the base are "
            "reused when the edit allows it, and the result is "
            "bit-identical to a cold retime of the edited design "
            "(docs/ECO.md)."
        ),
    )
    parser.add_argument(
        "input", type=Path, nargs="?",
        help="edited netlist (.blif/.v); omit when --edits is given",
    )
    parser.add_argument(
        "--base", type=Path, required=True, metavar="BASE",
        help="base netlist the edit is diffed against",
    )
    parser.add_argument(
        "--edits", type=Path, default=None, metavar="SCRIPT.json",
        help="JSON edit script applied to the base instead of an "
        "edited netlist (list of op dicts, see docs/ECO.md)",
    )
    parser.add_argument("-o", "--output", type=Path, help="output netlist")
    parser.add_argument(
        "--objective", choices=["minarea", "minperiod"], default="minarea"
    )
    parser.add_argument(
        "--target-period", type=float, default=None,
        help="retime for this period instead of the minimum feasible",
    )
    parser.add_argument(
        "--delay-model", choices=["unit", "xc4000e"], default="unit"
    )
    parser.add_argument(
        "--syntactic-classes", action="store_true",
        help="compare control signals by net name instead of BDD function",
    )
    parser.add_argument(
        "--dirty-threshold", type=float, default=None, metavar="FRACTION",
        help="fall back to a cold solve when the edit touches more than "
        "this fraction of cells (default: the kernel refresh fraction)",
    )
    parser.add_argument(
        "--force-cold", action="store_true",
        help="skip the incremental path (differential debugging)",
    )
    parser.add_argument(
        "--report", action="store_true", help="print the ECO plan report"
    )
    args = parser.parse_args(argv)

    if (args.input is None) == (args.edits is None):
        return _fail("give exactly one of: an edited netlist, or --edits")

    from ..eco import EcoState, eco_retime

    base = _load_checked(args.base)
    if args.edits is not None:
        try:
            script = json.loads(args.edits.read_text())
        except OSError as exc:
            return _fail(f"cannot read {args.edits}: {exc.strerror or exc}")
        except json.JSONDecodeError as exc:
            return _fail(f"{args.edits}: {exc}")
        if not isinstance(script, list):
            return _fail(f"{args.edits}: expected a JSON list of edit ops")
        edit = script
    else:
        edit = _load_checked(args.input)

    model = XC4000E_DELAY if args.delay_model == "xc4000e" else UNIT_DELAY
    state = EcoState(
        base,
        delay_model=model,
        semantic_classes=not args.syntactic_classes,
    )
    kwargs = {}
    if args.dirty_threshold is not None:
        kwargs["dirty_threshold"] = args.dirty_threshold
    try:
        eco = eco_retime(
            state,
            edit,
            target_period=args.target_period,
            objective=args.objective,
            force_cold=args.force_cold,
            **kwargs,
        )
    except (ValueError, KeyError) as exc:
        return _fail(f"bad edit script: {exc}")
    result = eco.result
    check_circuit(result.circuit)

    plan_text = eco.plan
    if eco.fallback_reason:
        plan_text += f" ({eco.fallback_reason})"
    print(
        f"eco: plan={plan_text} dirty={eco.dirty_fraction:.3f} "
        f"patched={eco.patched_entries}"
    )
    print(f"retimed: {_stats_line(result.circuit, model)}")
    if args.report:
        diff = eco.diff
        print(f"  plan             : {plan_text}")
        if diff is not None:
            print(
                f"  diff             : +{len(diff.added_gates)} "
                f"-{len(diff.removed_gates)} gates, "
                f"{len(diff.retyped_gates)} retyped, "
                f"{len(diff.reset_changed)} resets, "
                f"{len(diff.control_changed)} control"
            )
        print(f"  dirty fraction   : {eco.dirty_fraction:.3f}")
        print(f"  classes          : {result.n_classes}")
        print(
            f"  graph period     : {result.period_before:.2f} -> "
            f"{result.period_after:.2f}"
        )
        print(f"  registers        : {result.ff_before} -> {result.ff_after}")

    if args.output is not None:
        save_circuit(result.circuit, args.output)
        print(f"wrote {args.output}")
    return 0


# ---------------------------------------------------------------------------
# explain mode: certificate-backed "why" reports (docs/EXPLAIN.md)
# ---------------------------------------------------------------------------


def _explain_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="mcretime explain",
        description=(
            "Explain a retiming result with machine-checkable "
            "certificates (docs/EXPLAIN.md): the critical path and "
            "critical cycle pinning the period, the mc-bound or class "
            "conflict clamping each gate, the LP-duality accounting of "
            "every register, and a verified negative-cycle certificate "
            "when the target period is infeasible.  Every certificate "
            "is re-validated arithmetically before it is printed."
        ),
    )
    parser.add_argument("input", type=Path, help="input netlist (.blif/.v)")
    parser.add_argument(
        "--objective", choices=["minarea", "minperiod"], default="minarea"
    )
    parser.add_argument(
        "--target-period", type=float, default=None,
        help="explain retiming for this period instead of the minimum",
    )
    parser.add_argument(
        "--map", action="store_true",
        help="optimise + map to 4-LUTs first and explain the mapped "
        "retiming (XC4000E flow)",
    )
    parser.add_argument(
        "--delay-model", choices=["unit", "xc4000e"], default=None,
        help="default: xc4000e when --map is given, unit otherwise",
    )
    parser.add_argument(
        "--syntactic-classes", action="store_true",
        help="compare control signals by net name instead of BDD function",
    )
    parser.add_argument(
        "--why-period", action="store_true",
        help="only the period sections: critical-path witness + "
        "negative-cycle lower bound",
    )
    parser.add_argument(
        "--why-area", action="store_true",
        help="only the min-area attribution (LP duality, binding "
        "constraints, per-vertex charges)",
    )
    parser.add_argument(
        "--why-stuck", default=None, metavar="GATE",
        help="explain why GATE's lag is clamped (mc-bound blocker, "
        "class conflict, or tight constraint chain)",
    )
    parser.add_argument(
        "--why-infeasible", action="store_true",
        help="with --target-period: expect infeasibility and print the "
        "verified negative-cycle certificate (exit 0); without it an "
        "infeasible target is an error (exit 1)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit the full explanation as canonical JSON instead of text",
    )
    parser.add_argument(
        "--out", type=Path, default=None,
        help="also write the explanation (JSON) to this file",
    )
    args = parser.parse_args(argv)

    from ..obs import explain as obs_explain

    circuit = _load_checked(args.input)
    model_name = args.delay_model or ("xc4000e" if args.map else "unit")
    model = XC4000E_DELAY if model_name == "xc4000e" else UNIT_DELAY

    sections: set[str] = set()
    gate = args.why_stuck
    if args.why_period:
        sections.add("why-period")
    if args.why_area:
        sections.add("why-area")
    if gate is not None:
        sections.update(("why-stuck", "lags"))

    try:
        if args.map:
            flow = retime_flow(
                circuit,
                model,
                objective=args.objective,
                target_period=args.target_period,
                semantic_classes=not args.syntactic_classes,
                explain=True,
            )
            explanation = flow.explain
        else:
            result = mc_retime(
                circuit,
                delay_model=model,
                target_period=args.target_period,
                objective=args.objective,
                semantic_classes=not args.syntactic_classes,
                explain=True,
            )
            explanation = result.explanation
    except InfeasibleConstraints as exc:
        payload = obs_explain.infeasible_payload(exc)
        text = (
            obs_explain.to_json(payload) if args.json
            else obs_explain.render_infeasible(payload)
        )
        print(text)
        if args.out is not None:
            args.out.write_text(obs_explain.to_json(payload) + "\n")
            print(f"wrote {args.out}", file=sys.stderr)
        if not payload["valid"]:
            return _fail("infeasibility certificate failed validation")
        return 0 if args.why_infeasible else 1
    except InfeasibleError as exc:
        return _fail(str(exc))

    if args.why_infeasible:
        return _fail(
            f"--why-infeasible: period "
            f"{explanation['period'] if args.target_period is None else args.target_period} "
            "is feasible (nothing to certify)"
        )
    if args.json:
        print(obs_explain.to_json(explanation))
    else:
        print(
            obs_explain.render_explanation(
                explanation,
                sections=tuple(sections) if sections else None,
                gate=gate,
            )
        )
    if args.out is not None:
        args.out.write_text(obs_explain.to_json(explanation) + "\n")
        print(f"wrote {args.out}", file=sys.stderr)
    if not explanation["valid"]:
        return _fail(
            f"{len(explanation['errors'])} certificate(s) failed validation"
        )
    return 0


# ---------------------------------------------------------------------------
# throughput transforms: pipelining and C-slow (docs/PIPELINE.md)
# ---------------------------------------------------------------------------


def _transform_main(kind: str, argv: list[str]) -> int:
    is_pipe = kind == "pipeline"
    parser = argparse.ArgumentParser(
        prog=f"mcretime {kind}",
        parents=[_obs_parent()],
        description=(
            "Insert K output register layers and retime to balance them "
            "(latency for clock speed)."
            if is_pipe
            else "C-slow: replicate every register C times (folding "
            "EN/SR/AR per class into the D path) and retime, producing "
            "a C-way thread-interleaved machine."
        ),
    )
    parser.add_argument("input", type=Path, help="input netlist (.blif/.v)")
    parser.add_argument("-o", "--output", type=Path, help="output netlist")
    if is_pipe:
        parser.add_argument(
            "--stages", type=int, default=1, metavar="K",
            help="register layers to insert (default 1; 0 = plain retime)",
        )
    else:
        parser.add_argument(
            "--factor", type=int, default=2, metavar="C",
            help="slowdown factor / thread count (default 2; 1 = plain "
            "retime)",
        )
    parser.add_argument(
        "--objective", choices=["minarea", "minperiod"], default="minperiod",
        help="retiming objective (default minperiod: balancing the new "
        "registers is the point)",
    )
    parser.add_argument(
        "--target-period", type=float, default=None,
        help="retime for this period instead of the minimum feasible",
    )
    parser.add_argument(
        "--map", action="store_true",
        help="run the mapped XC4000E flow (optimise + map first, remap "
        "after) instead of the unit-delay engine transform",
    )
    parser.add_argument(
        "--delay-model", choices=["unit", "xc4000e"], default=None,
        help="default: xc4000e when --map is given, unit otherwise",
    )
    parser.add_argument(
        "--syntactic-classes", action="store_true",
        help="compare control signals by net name instead of BDD function",
    )
    parser.add_argument(
        "--report", action="store_true",
        help="print the retiming engine report",
    )
    parser.add_argument(
        "--verify", action="store_true",
        help="check the result against the input with the "
        + (
            "latency-shifted refinement check"
            if is_pipe
            else "thread-interleaving refinement check"
        )
        + "; a mismatch fails the run",
    )
    parser.add_argument(
        "--verify-cycles", type=int, default=48 if is_pipe else 32,
        metavar="N",
        help="cycles (pipeline) / superperiods (cslow) to compare "
        f"(default {48 if is_pipe else 32})",
    )
    args = parser.parse_args(argv)
    amount = args.stages if is_pipe else args.factor

    circuit = _load_checked(args.input)
    model_name = args.delay_model or ("xc4000e" if args.map else "unit")
    model = XC4000E_DELAY if model_name == "xc4000e" else UNIT_DELAY

    print(f"{args.input}: {_stats_line(circuit, model)}")
    print(f"  classes: {format_class_histogram(class_histogram(circuit))}")

    verify_check = None
    try:
        with _observed(args, circuit, kind, {
            "input": str(args.input),
            "transform": kind,
            ("stages" if is_pipe else "factor"): amount,
            "objective": args.objective,
            "flow": "retime" if args.map else "mcretime",
            "delay_model": model_name,
            "target_period": args.target_period,
        }):
            if args.map:
                flow_fn = pipeline_flow if is_pipe else cslow_flow
                flow = flow_fn(
                    circuit,
                    amount,
                    model,
                    objective=args.objective,
                    target_period=args.target_period,
                    semantic_classes=not args.syntactic_classes,
                    verify=args.verify,
                    verify_cycles=args.verify_cycles,
                )
                out, retime = flow.circuit, flow.retime
                report = flow.transform
                verify_check = flow.verify
            else:
                retime_fn = pipeline_retime if is_pipe else cslow_retime
                res = retime_fn(
                    circuit,
                    amount,
                    model,
                    objective=args.objective,
                    target_period=args.target_period,
                    semantic_classes=not args.syntactic_classes,
                )
                out, retime = res.circuit, res.retime
                report = res.report()
            if args.verify and not args.map:
                if is_pipe:
                    verify_check = check_pipeline(
                        circuit, out, shift=amount,
                        cycles=args.verify_cycles,
                    )
                else:
                    verify_check = check_cslow(
                        circuit, out, amount, cycles=args.verify_cycles
                    )
                if not verify_check.equivalent:
                    raise VerificationError(verify_check)
            check_circuit(out)
            if obs.enabled():
                numeric = {
                    k: v for k, v in report.items()
                    if isinstance(v, (int, float)) and not isinstance(v, bool)
                }
                obs.annotate(
                    ff_before=len(circuit.registers),
                    ff_after=len(out.registers),
                    n_gates=len(out.gates),
                    **numeric,
                )
    except PipelineError as exc:
        return _fail(str(exc))
    except InfeasibleError as exc:
        detail = (
            exc.summary() if isinstance(exc, InfeasibleConstraints)
            else str(exc)
        )
        return _fail(detail)
    except VerificationError as exc:
        return _fail(str(exc))

    if is_pipe:
        print(
            f"pipelined: period {report['period_before']:.2f} -> "
            f"{report['period_after']:.2f} "
            f"(lower bound {report['lower_bound']:.2f}, "
            f"slack {report['balance_slack']:.2f}, "
            f"speedup {report['speedup']:.2f}x)"
        )
        print(
            f"  inserted {report['registers_inserted']} registers "
            f"({report['stages']} layers); "
            f"FF {len(circuit.registers)} -> {len(out.registers)}"
        )
    else:
        print(
            f"C-slowed: period {report['period_before']:.2f} -> "
            f"{report['period_after']:.2f} "
            f"(thread period {report['thread_period']:.2f}, "
            f"throughput gain {report['throughput_gain']:.2f}x)"
        )
        print(
            f"  replicated {report['registers_replicated']} registers; "
            f"folded {report['enables_folded']} EN / "
            f"{report['sync_resets_folded']} SR / "
            f"{report['async_resets_folded']} AR; "
            f"FF {len(circuit.registers)} -> {len(out.registers)}"
        )
    print(
        f"  classes: {format_class_histogram(report['classes_before'])} "
        f"-> {format_class_histogram(report['classes_after'])}"
    )
    if verify_check is not None:
        print(f"verified: {verify_check.reason}")

    if args.report:
        print(f"  classes          : {retime.n_classes}")
        print(
            f"  steps            : {retime.steps_moved} moved / "
            f"{retime.steps_possible} possible"
        )
        print(
            f"  graph period     : {retime.period_before:.2f} -> "
            f"{retime.period_after:.2f}"
        )
        print(f"  registers        : {retime.ff_before} -> {retime.ff_after}")

    if args.output is not None:
        save_circuit(out, args.output)
        print(f"wrote {args.output}")
    return 0


# ---------------------------------------------------------------------------
# batch mode: fan a directory of netlists across the worker pool
# ---------------------------------------------------------------------------


def _collect_inputs(paths: list[Path]) -> list[Path]:
    files: list[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(
                p for p in sorted(path.iterdir())
                if p.suffix in BATCH_SUFFIXES and p.is_file()
            )
        else:
            files.append(path)
    return files


def _batch_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="mcretime batch",
        description=(
            "Retime every netlist in the given files/directories through "
            "the concurrent worker pool, with result caching."
        ),
    )
    parser.add_argument(
        "inputs", type=Path, nargs="+",
        help="netlist files and/or directories to scan for "
        + "/".join(BATCH_SUFFIXES),
    )
    parser.add_argument(
        "-o", "--output-dir", type=Path, default=None,
        help="directory for retimed netlists (default: <input>/retimed)",
    )
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument(
        "--objective", choices=["minarea", "minperiod"], default="minarea"
    )
    parser.add_argument(
        "--map", action="store_true",
        help="run the full optimise+map+retime+remap flow per design",
    )
    parser.add_argument(
        "--delay-model", choices=["unit", "xc4000e"], default=None
    )
    parser.add_argument("--target-period", type=float, default=None)
    parser.add_argument("--syntactic-classes", action="store_true")
    parser.add_argument(
        "--verify", action="store_true",
        help="sequentially verify each result against its input; "
        "a mismatch fails that job (no retry)",
    )
    parser.add_argument("--verify-cycles", type=int, default=64, metavar="N")
    parser.add_argument(
        "--cache-dir", type=Path, default=None,
        help="persistent result cache (reruns of unchanged designs are free)",
    )
    parser.add_argument("--timeout", type=float, default=600.0)
    parser.add_argument("--retries", type=int, default=2)
    parser.add_argument(
        "--metrics-out", type=Path, default=None,
        help="write Prometheus metrics text here after the run",
    )
    parser.add_argument(
        "--trace-dir", type=Path, default=None,
        help="write one JSONL trace per job here (trace id = job key); "
        "render with `mcretime report <dir>/<id>.jsonl`",
    )
    args = parser.parse_args(argv)

    from ..service import RetimeJob, RetimeService

    files = _collect_inputs(args.inputs)
    if not files:
        return _fail("no netlists found (looked for "
                     + "/".join(BATCH_SUFFIXES) + ")")
    out_dir = args.output_dir
    if out_dir is None:
        base = args.inputs[0] if args.inputs[0].is_dir() else Path.cwd()
        out_dir = base / "retimed"
    out_dir.mkdir(parents=True, exist_ok=True)

    jobs, job_files = [], []
    for path in files:
        try:
            job = RetimeJob.from_file(
                path,
                flow="retime" if args.map else "mcretime",
                objective=args.objective,
                delay_model=args.delay_model,
                target_period=args.target_period,
                semantic_classes=not args.syntactic_classes,
                verify=args.verify,
                verify_cycles=args.verify_cycles,
            )
            job.canonical_key  # parse early: reject bad inputs up front
        except OSError as exc:
            return _fail(f"cannot read {path}: {exc.strerror or exc}")
        except NetlistError as exc:
            return _fail(f"{path}: {exc}")
        jobs.append(job)
        job_files.append(path)

    service = RetimeService(
        workers=args.workers,
        cache_dir=args.cache_dir,
        job_timeout=args.timeout,
        max_retries=args.retries,
        trace_dir=args.trace_dir,
    )
    t0 = time.perf_counter()
    failures = 0
    try:
        results = service.batch(jobs)
        for path, result in zip(job_files, results):
            if result.ok:
                out_path = out_dir / path.name
                out_path.write_text(result.output)
                tag = " [cached]" if result.cached else ""
                tries = (
                    f" after {result.attempts} attempts"
                    if result.attempts > 1 else ""
                )
                print(f"{path.name}: done{tag}{tries} -> {out_path}")
            else:
                failures += 1
                print(
                    f"{path.name}: FAILED ({result.error.type}: "
                    f"{result.error.message})"
                )
        elapsed = time.perf_counter() - t0
        print(
            f"\n{len(jobs)} jobs in {elapsed:.2f}s "
            f"({len(jobs) / max(elapsed, 1e-9):.2f} jobs/s, "
            f"{service.pool.workers} workers), "
            f"cache hit rate {100 * service.cache_hit_rate():.0f}%, "
            f"{failures} failed"
        )
        if args.metrics_out is not None:
            args.metrics_out.write_text(service.metrics.render())
            print(f"wrote metrics to {args.metrics_out}")
    finally:
        service.close()
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# fuzz mode: differential fuzzing of the whole pipeline
# ---------------------------------------------------------------------------


def _fuzz_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="mcretime fuzz",
        description=(
            "Differential-fuzz the retiming pipeline: random multi-class "
            "designs through prepare+map+mc_retime, every result "
            "refinement-checked with the sequential checker.  --mutate "
            "instead corrupts correct results with known-bad register "
            "moves and demands the checker kill every oracle-confirmed "
            "bad mutant."
        ),
    )
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument(
        "--seed", type=int, default=0, help="base seed (round i uses seed+i)"
    )
    parser.add_argument(
        "--cycles", type=int, default=48, help="cycles per checker lane"
    )
    parser.add_argument(
        "--mutate", action="store_true",
        help="mutation mode: fault-inject retimed results, check kill rate",
    )
    parser.add_argument(
        "--time-budget", type=float, default=None, metavar="SECONDS",
        help="stop starting new rounds after this much wall-clock time",
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true",
        help="only print the final summary",
    )
    args = parser.parse_args(argv)

    from ..verify import fuzz_run

    def on_case(case):
        if args.quiet:
            return
        if case.ok:
            tag = f" [{case.mutation}]" if case.mutation else ""
            print(f"  seed {case.seed}: ok{tag}")
        else:
            detail = case.error or (case.check and case.check.reason)
            tag = f" [{case.mutation}]" if case.mutation else ""
            print(f"  seed {case.seed}: FAIL{tag} — {detail}")

    report = fuzz_run(
        rounds=args.rounds,
        seed=args.seed,
        cycles=args.cycles,
        mutate=args.mutate,
        time_budget=args.time_budget,
        on_case=on_case,
    )
    print(f"fuzz: {report.summary()}")
    if args.mutate and report.confirmed:
        print(f"kill rate: {100 * report.kill_rate:.0f}%")
    if not report.ok:
        for case in report.failures:
            detail = case.error or (case.check and case.check.reason)
            print(f"  FAILED seed {case.seed}: {detail}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# report mode: render saved traces into the text summary tree
# ---------------------------------------------------------------------------


def _report_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="mcretime report",
        description=(
            "Render a saved trace (JSONL run log or Chrome trace JSON, "
            "from --trace/--log-json/REPRO_TRACE*) as a text summary "
            "tree: per-span totals, self times, counters, and gauges."
        ),
    )
    parser.add_argument(
        "trace", type=Path,
        help="trace file: a .jsonl run log or a Chrome trace_event JSON "
        "(with --stitch/--critical-path: a service trace DIRECTORY)",
    )
    parser.add_argument(
        "--top", type=int, default=5,
        help="how many spans to list in the hot-spans section",
    )
    parser.add_argument(
        "--max-depth", type=int, default=6,
        help="maximum span-tree depth to print",
    )
    parser.add_argument(
        "--validate", action="store_true",
        help="check the file against the trace schema and exit",
    )
    parser.add_argument(
        "--stitch", action="store_true",
        help="treat the positional path as a service trace directory and "
        "merge each request's front-end + worker JSONL traces into one "
        "wall-clock-anchored timeline (write Chrome JSON with --out)",
    )
    parser.add_argument(
        "--critical-path", action="store_true",
        help="over stitched traces: attribute each request's wall time to "
        "queue / intern / solve / respond and print the table",
    )
    parser.add_argument(
        "--job", default=None, metavar="ID",
        help="with --stitch/--critical-path: only this job id (or its "
        "16-char prefix)",
    )
    parser.add_argument(
        "--out", type=Path, default=None,
        help="with --stitch: write the merged Chrome trace_event JSON here",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="with --critical-path: emit the per-request attribution as "
        "JSON (requests + sum) instead of the text table",
    )
    args = parser.parse_args(argv)

    if args.stitch or args.critical_path:
        return _report_stitched(args)

    try:
        if args.validate:
            head = args.trace.read_text()[:200].strip()
            if '"traceEvents"' in head:
                errors = obs.chrome_trace_errors(args.trace)
            else:
                errors = obs.jsonl_errors(args.trace)
            if errors:
                # every violation, not just the first — and a non-zero
                # exit so CI steps actually gate on the schema
                for error in errors:
                    print(f"mcretime: error: {error}", file=sys.stderr)
                print(
                    f"{args.trace}: INVALID ({len(errors)} "
                    f"error{'s' if len(errors) != 1 else ''})",
                    file=sys.stderr,
                )
                return 1
            print(f"{args.trace}: OK")
            return 0
        events = obs.load_events(args.trace)
        print(obs.render_summary(events, top=args.top, max_depth=args.max_depth))
    except OSError as exc:
        return _fail(f"cannot read {args.trace}: {exc.strerror or exc}")
    except (ValueError, KeyError) as exc:
        return _fail(f"{args.trace}: {exc}")
    return 0


def _report_stitched(args) -> int:
    """``mcretime report --stitch / --critical-path`` over a trace dir."""
    if not args.trace.is_dir():
        return _fail(
            f"{args.trace}: --stitch/--critical-path expect a service "
            "trace directory (the service's trace_dir)"
        )
    stitched = obs.stitch_dir(args.trace, job=args.job)
    stitched = {key: events for key, events in stitched.items() if events}
    if not stitched:
        return _fail(f"{args.trace}: no traces found")
    if args.stitch:
        print(
            f"stitched {len(stitched)} request(s) from {args.trace} "
            "(coverage = request wall time accounted by child spans):"
        )
        worst = 1.0
        for key, events in stitched.items():
            for line in obs.request_timelines(events):
                worst = min(worst, line["coverage"])
                print(
                    f"  {key:<18} {line['duration'] * 1e3:8.1f}ms  "
                    f"coverage {line['coverage'] * 100:5.1f}%  "
                    f"({line['children']} child span(s))"
                )
        if args.out is not None:
            obs.write_chrome(stitched, args.out)
            print(f"wrote merged Chrome trace: {args.out}")
        if worst < 0.9:
            print(
                "mcretime report: WARNING: a request's timeline covers "
                f"only {worst * 100:.1f}% of its wall time",
                file=sys.stderr,
            )
    if args.critical_path:
        analysis = obs.critical_path(stitched)
        if args.json:
            print(json.dumps(analysis, indent=2, sort_keys=True))
        else:
            print(obs.render_critical_path(analysis))
    return 0


# ---------------------------------------------------------------------------
# obs mode: the run-ledger perf sentinel
# ---------------------------------------------------------------------------


def _obs_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="mcretime obs",
        description=(
            "Compare run-ledger files (see docs/OBSERVABILITY.md): "
            "`diff` prints per-span deltas between two ledgers; `check` "
            "gates a ledger against a baseline and exits non-zero on a "
            "perf regression."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def _common(p):
        p.add_argument(
            "--threshold", type=float, default=None,
            help="regression ratio (default 1.5 absolute, 1.8 relative)",
        )
        p.add_argument(
            "--min-seconds", type=float, default=0.005,
            help="absolute noise floor in seconds (default 5ms)",
        )
        p.add_argument(
            "--window", type=int, default=5,
            help="median-of-k window over the newest runs per group",
        )
        p.add_argument(
            "--mode", choices=["absolute", "relative"], default="absolute",
            help="absolute seconds (same machine) or share-of-run "
            "(portable across machine speeds)",
        )
        p.add_argument(
            "--top", type=int, default=0,
            help="only print the N largest deltas (default: all)",
        )

    p_diff = sub.add_parser(
        "diff", help="per-span deltas between two ledger files"
    )
    p_diff.add_argument("baseline", type=Path)
    p_diff.add_argument("current", type=Path)
    _common(p_diff)

    p_check = sub.add_parser(
        "check", help="gate a ledger against a baseline (exit 1 on regression)"
    )
    p_check.add_argument(
        "current", type=Path, nargs="?", default=None,
        help="ledger under test (default: the baseline itself — a "
        "self-check that always passes unless --inject-slowdown is set)",
    )
    p_check.add_argument(
        "--baseline", type=Path, required=True,
        help="the committed baseline ledger to compare against",
    )
    p_check.add_argument(
        "--inject-slowdown", type=float, default=None, metavar="FACTOR",
        help="multiply every current span time by FACTOR before comparing "
        "(self-test hook: proves the gate fires on a synthetic slowdown)",
    )
    _common(p_check)

    args = parser.parse_args(argv)
    from ..obs import sentinel

    threshold = args.threshold
    if threshold is None:
        threshold = 1.5 if args.mode == "absolute" else 1.8

    try:
        if args.command == "diff":
            report = sentinel.diff(
                sentinel.load_records(args.baseline),
                sentinel.load_records(args.current),
                threshold=threshold,
                min_seconds=args.min_seconds,
                window=args.window,
                mode=args.mode,
            )
        else:
            current = args.current or args.baseline
            report = sentinel.check(
                args.baseline,
                current,
                threshold=threshold,
                min_seconds=args.min_seconds,
                window=args.window,
                mode=args.mode,
                inject_slowdown=args.inject_slowdown,
            )
    except OSError as exc:
        return _fail(f"cannot read ledger: {exc.strerror or exc}")
    except ValueError as exc:
        return _fail(str(exc))

    print(report.render(top=args.top))
    if not report.deltas and not report.unmatched:
        return _fail("no comparable records (empty or disjoint ledgers)")
    if not report.ok:
        print(
            f"mcretime obs: {len(report.regressions)} span(s) regressed "
            f"beyond {threshold:.2f}x",
            file=sys.stderr,
        )
        return 1
    return 0


# ---------------------------------------------------------------------------
# slo mode: service-level-objective burn rates
# ---------------------------------------------------------------------------


def _slo_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="mcretime slo",
        description=(
            "Service-level objectives (see docs/OBSERVABILITY.md): `show` "
            "prints the rolling-window burn rates of a live server; "
            "`check` gates them (or a run ledger) against an SLO config "
            "and exits non-zero when any objective is burning."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def _common(p):
        p.add_argument(
            "--url", default=None, metavar="URL",
            help="base URL of a live mcretime service (GET /slo)",
        )
        p.add_argument(
            "--ledger", type=Path, default=None,
            help="offline mode: replay service.job records from this run "
            "ledger instead of querying a server",
        )
        p.add_argument(
            "--config", type=Path, default=None,
            help="SLO config JSON (window_seconds / latency_p95_seconds / "
            "error_rate / shed_rate); defaults to the server's own config",
        )

    p_show = sub.add_parser("show", help="print current burn rates")
    _common(p_show)
    p_check = sub.add_parser(
        "check", help="gate burn rates against the config (exit 1 on burn)"
    )
    _common(p_check)
    p_check.add_argument(
        "--inject-latency", type=float, default=None, metavar="FACTOR",
        help="multiply the observed p95 by FACTOR before judging "
        "(self-test hook: proves the gate fires on a degraded service)",
    )
    args = parser.parse_args(argv)

    if (args.url is None) == (args.ledger is None):
        return _fail("exactly one of --url / --ledger is required")
    config = None
    if args.config is not None:
        try:
            config = obs.SLOConfig.load(args.config)
        except (OSError, ValueError, TypeError) as exc:
            return _fail(f"cannot load SLO config {args.config}: {exc}")

    inject = getattr(args, "inject_latency", None)
    if args.ledger is not None:
        from ..obs import sentinel

        if config is None:
            return _fail("--ledger mode requires --config")
        try:
            records = sentinel.load_records(args.ledger)
        except OSError as exc:
            return _fail(f"cannot read {args.ledger}: {exc.strerror or exc}")
        ok, messages, status = obs.check_records(
            records, config, inject_latency=inject
        )
    else:
        from ..service import RetimeClient, ServiceError

        try:
            with RetimeClient(args.url, timeout=30.0) as client:
                status = client.slo()
        except (ServiceError, OSError, ValueError) as exc:
            return _fail(f"cannot query {args.url}: {exc}")
        if config is not None:
            status = obs.reevaluate(status, config)
        ok, messages = obs.evaluate(status, inject_latency=inject)

    print(obs.render_status(status))
    if args.command == "show":
        return 0
    for message in messages:
        print(message)
    if not ok:
        print("mcretime slo: SLO check FAILED", file=sys.stderr)
        return 1
    print("mcretime slo: all objectives within budget")
    return 0


# ---------------------------------------------------------------------------
# top mode: live terminal dashboard over a running service
# ---------------------------------------------------------------------------


def _top_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="mcretime top",
        description=(
            "Live terminal dashboard over a running mcretime service: "
            "queue depth, per-shard utilization, throughput, p95 latency, "
            "and SLO burn rates, refreshed in place (Ctrl-C to quit)."
        ),
    )
    parser.add_argument(
        "--url", default="http://127.0.0.1:8117",
        help="base URL of the service (default %(default)s)",
    )
    parser.add_argument(
        "--interval", type=float, default=2.0,
        help="refresh interval in seconds (default %(default)s)",
    )
    parser.add_argument(
        "--once", action="store_true",
        help="render a single frame and exit (no screen clearing; for "
        "CI logs and piping)",
    )
    args = parser.parse_args(argv)

    from ..service import RetimeClient, ServiceError
    from .top import render_frame

    with RetimeClient(args.url, timeout=10.0) as client:
        while True:
            try:
                frame = render_frame(client, args.url)
            except (ServiceError, OSError, ValueError) as exc:
                return _fail(f"cannot query {args.url}: {exc}")
            if args.once:
                print(frame)
                return 0
            # ANSI home+clear keeps the frame in place without flicker
            sys.stdout.write("\x1b[H\x1b[2J" + frame + "\n")
            sys.stdout.flush()
            try:
                time.sleep(max(0.2, args.interval))
            except KeyboardInterrupt:
                return 0


# ---------------------------------------------------------------------------
# serve mode: the HTTP JSON API
# ---------------------------------------------------------------------------


def _serve_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="mcretime serve",
        description="Serve retiming over HTTP (POST /retime, GET /jobs/<id>, "
        "GET /healthz, GET /metrics, GET /slo, GET /trace/<id>, GET /runs, "
        "GET /debug/profile).",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8117)
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--cache-dir", type=Path, default=None)
    parser.add_argument("--cache-memory", type=int, default=128)
    parser.add_argument("--timeout", type=float, default=600.0)
    parser.add_argument("--retries", type=int, default=2)
    parser.add_argument(
        "--ledger", type=Path, default=None,
        help="append one run-ledger record per executed job here "
        "(served back by GET /runs)",
    )
    parser.add_argument(
        "--max-pending", type=int, default=None, metavar="N",
        help="bound the admission queue at N in-flight jobs; beyond it "
        "POST /retime sheds load with 429 + Retry-After "
        "(default: unbounded)",
    )
    parser.add_argument(
        "--trace-dir", type=Path, default=None, metavar="DIR",
        help="distributed tracing: workers write per-job JSONL traces "
        "here and the front-end writes one request log per job; stitch "
        "them with `mcretime report --stitch DIR` and query live via "
        "GET /trace/<id>",
    )
    parser.add_argument(
        "--slo-config", type=Path, default=None, metavar="JSON",
        help="SLO config JSON backing GET /slo and `mcretime slo check` "
        "(default: built-in targets)",
    )
    parser.add_argument(
        "--start-method", choices=["fork", "spawn", "forkserver"],
        default=None,
        help="multiprocessing start method for pool workers "
        "(default: platform default)",
    )
    parser.add_argument(
        "--no-telemetry", action="store_true",
        help="disable the worker→supervisor telemetry bus (live traces "
        "of in-flight jobs and bus metrics)",
    )
    args = parser.parse_args(argv)

    from ..service import RetimeService, serve_forever

    service = RetimeService(
        workers=args.workers,
        cache_dir=args.cache_dir,
        cache_memory=args.cache_memory,
        job_timeout=args.timeout,
        max_retries=args.retries,
        ledger=args.ledger,
        max_pending=args.max_pending,
        trace_dir=args.trace_dir,
        slo=args.slo_config,
        telemetry=not args.no_telemetry,
        start_method=args.start_method,
    )
    print(
        f"mcretime service on http://{args.host}:{args.port} "
        f"({service.pool.workers} workers"
        + (f", max-pending {args.max_pending}" if args.max_pending else "")
        + (f", cache {args.cache_dir}" if args.cache_dir else "")
        + (f", ledger {args.ledger}" if args.ledger else "")
        + (f", traces {args.trace_dir}" if args.trace_dir else "")
        + (f", slo {args.slo_config}" if args.slo_config else "")
        + ")"
    )
    serve_forever(service, host=args.host, port=args.port)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark: incremental (ECO) retiming vs cold re-solves.

Replays an edit sweep over the datapath designs
(:mod:`repro.synth.datapath`): each edit re-types a carry cell into a
LUT-implemented mux (0.25 ns -> 1.6 ns under the XC4000E model — the
kind of late functional fix an ECO flow exists for), then solves the
edited design three ways:

* **cold** — a from-scratch :func:`repro.mcretime.mc_retime`;
* **first visit** — :func:`repro.eco.eco_retime` against a warm
  :class:`~repro.eco.EcoState` seeing the edit for the first time
  (prefix reused, solve re-run on the patched graph);
* **revisit** — the same edit submitted again, landing on the
  content-addressed solve cache (plan ``reuse``: relocation only).

Every incremental result is differentially checked bit-identical to
the cold solve (netlist bytes + deterministic metrics).  The headline
number is the **revisit speedup** (cold median / revisit median) — the
regime an ECO service lives in, where candidate fixes are toggled,
re-examined, and re-submitted.  The JSON report goes to stdout::

    PYTHONPATH=src:. python benchmarks/bench_eco.py [--quick] [--check]

With ``--check`` the exit status enforces the speedup floor: revisit
speedup >= MIN_SPEEDUP (10x) on every benchmarked design.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import time

FULL_DESIGNS = ["NTT4", "BFLY8", "MODMUL6", "MAC6"]
QUICK_DESIGNS = ["NTT4", "BFLY8"]

#: acceptance floor: cold median / revisit median, per design
MIN_SPEEDUP = 10.0


def _timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


def _edit_scripts(circuit, n_edits: int) -> list[list[dict]]:
    """One single-op script per edit: re-type a carry cell to a mux."""
    from repro.netlist import GateFn

    carries = [g.name for g in circuit.gates.values() if g.fn is GateFn.CARRY]
    if not carries:
        raise ValueError(
            f"{circuit.name}: no carry cells to edit — pick another design"
        )
    return [
        [{"op": "retype_gate", "name": name, "fn": "mux"}]
        for name in carries[:n_edits]
    ]


def bench_design(name: str, n_edits: int) -> dict[str, object]:
    from repro.eco import (
        EcoState,
        apply_edit_script,
        deterministic_metrics,
        eco_retime,
    )
    from repro.mcretime import mc_retime
    from repro.netlist import circuit_stats, write_blif
    from repro.synth import build_datapath
    from repro.timing import XC4000E_DELAY

    circuit = build_datapath(name).circuit
    stats = circuit_stats(circuit)
    scripts = _edit_scripts(circuit, n_edits)

    state = EcoState(circuit, delay_model=XC4000E_DELAY)
    eco_retime(state, [])  # pay the prefix build once, before the clock

    cold_s: list[float] = []
    first_s: list[float] = []
    revisit_s: list[float] = []
    plans: dict[str, int] = {}
    for ops in scripts:
        edited = apply_edit_script(circuit, ops)
        cold, sec = _timed(lambda: mc_retime(edited, delay_model=XC4000E_DELAY))
        cold_s.append(sec)
        first, sec = _timed(lambda: eco_retime(state, ops))
        first_s.append(sec)
        revisit, sec = _timed(lambda: eco_retime(state, ops))
        revisit_s.append(sec)
        for eco in (first, revisit):
            plans[eco.plan] = plans.get(eco.plan, 0) + 1
            if write_blif(eco.result.circuit) != write_blif(cold.circuit):
                raise AssertionError(
                    f"{name} {ops}: ECO netlist diverged from cold"
                )
            if deterministic_metrics(eco.result) != deterministic_metrics(
                cold
            ):
                raise AssertionError(
                    f"{name} {ops}: ECO metrics diverged from cold"
                )

    cold_med = statistics.median(cold_s)
    first_med = statistics.median(first_s)
    revisit_med = statistics.median(revisit_s)
    return {
        "ff": stats.n_ff,
        "gates": stats.n_gates,
        "edits": len(scripts),
        "plans": plans,
        "cold_median_s": cold_med,
        "first_visit_median_s": first_med,
        "revisit_median_s": revisit_med,
        "first_visit_speedup": cold_med / max(first_med, 1e-12),
        "revisit_speedup": cold_med / max(revisit_med, 1e-12),
    }


def run_bench(quick: bool = False) -> dict[str, object]:
    designs = QUICK_DESIGNS if quick else FULL_DESIGNS
    n_edits = 4 if quick else 8
    rows = {name: bench_design(name, n_edits) for name in designs}
    speedups = {name: row["revisit_speedup"] for name, row in rows.items()}
    aggregate = {
        "designs_at_floor": sum(
            1 for s in speedups.values() if s >= MIN_SPEEDUP
        ),
        "speedup_min": min(speedups.values()),
        "speedup_max": max(speedups.values()),
        "revisit_speedups": speedups,
    }
    return {
        "meta": {
            "quick": quick,
            "designs": designs,
            "edits": n_edits,
            "python": platform.python_version(),
            "min_speedup": MIN_SPEEDUP,
        },
        "designs": rows,
        "aggregate": aggregate,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true")
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero unless every design meets the speedup floor",
    )
    args = parser.parse_args(argv)
    report = run_bench(quick=args.quick)
    print(json.dumps(report, indent=2))
    agg = report["aggregate"]
    print(
        f"revisit speedup {agg['speedup_min']:.1f}x–{agg['speedup_max']:.1f}x "
        f"(floor {MIN_SPEEDUP:.0f}x, {agg['designs_at_floor']}/"
        f"{len(report['designs'])} designs at floor)"
    )
    if args.check and agg["designs_at_floor"] < len(report["designs"]):
        print(
            f"speedup floor {MIN_SPEEDUP:.0f}x missed on "
            f"{len(report['designs']) - agg['designs_at_floor']} design(s)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

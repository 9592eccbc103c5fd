"""Command-line regeneration of every table and figure.

Usage (installed as ``mcretime-tables``)::

    mcretime-tables                 # all tables + figures, full scale
    mcretime-tables --scale 0.3     # quick pass on shrunken designs
    mcretime-tables --only table2   # one artefact
    mcretime-tables --designs C1,C2
    mcretime-tables --workers 4     # fan designs across a worker pool

With ``--workers N`` (N > 1) the per-design flows for Tables 1–3 are
submitted as jobs to the :mod:`repro.service` pool instead of running
serially, so the paper sweep parallelises across cores; rows are
rebuilt from the job metrics and print identically to the serial path.

Prints the same rows the paper reports; see EXPERIMENTS.md for the
paper-vs-measured record.
"""

from __future__ import annotations

import argparse
import sys
import time

from ..mcretime.report import format_table
from . import figures, pareto, scaling, table1, table2, table3


def _render_table1(rows):
    print("\n== Table 1: circuit characteristics ==")
    data = [r.as_dict() for r in rows]
    data.append(table1.totals(rows).as_dict())
    print(format_table(data))


def _render_table2(rows):
    print("\n== Table 2: multiple-class retiming results ==")
    data = [r.as_dict() for r in rows]
    data.append(table2.totals(rows))
    print(format_table(data, floatfmt=".2f"))
    local = min((r.local_fraction for r in rows), default=1.0)
    basic = sum(r.basic_fraction * r.cpu_seconds for r in rows)
    reloc = sum(r.relocate_fraction * r.cpu_seconds for r in rows)
    over = sum(r.overhead_fraction * r.cpu_seconds for r in rows)
    total = max(sum(r.cpu_seconds for r in rows), 1e-9)
    print(
        f"\nSec. 6 prose: local justification fraction >= "
        f"{100 * local:.1f}% (paper: >99%)"
    )
    print(
        f"CPU split: basic retiming {100 * basic / total:.0f}% / "
        f"relocation {100 * reloc / total:.0f}% / mc overhead "
        f"{100 * over / total:.0f}%  (paper: 90/7/3)"
    )
    print(f"total retime CPU: {total:.1f}s (paper: <60s/design on a 1999 CPU)")


def _render_table3(rows):
    print("\n== Table 3: retiming without load enables ==")
    data = [r.as_dict() for r in rows]
    data.append(table3.totals(rows))
    print(format_table(data, floatfmt=".2f"))


def _print_table1(scale: float, names: list[str] | None):
    rows, flows = table1.run(scale, names)
    _render_table1(rows)
    return rows, flows


def _print_table2(scale, names, baselines):
    rows, flows = table2.run(scale, names, baselines)
    _render_table2(rows)
    return rows


def _print_table3(scale, names, t1_rows, t2_rows):
    rows = table3.run(scale, names, t1_rows, t2_rows)
    _render_table3(rows)
    return rows


# ---------------------------------------------------------------------------
# parallel sweep through the service pool
# ---------------------------------------------------------------------------


def parallel_tables(
    scale: float,
    names: list[str] | None,
    workers: int,
    want_t3: bool = True,
):
    """Regenerate the Table 1–3 rows with per-design jobs on the pool.

    Each design becomes one ``flow="retime"`` job (whose metrics carry
    both the Table 1 baseline and the Table 2 retiming numbers) plus,
    when *want_t3*, one ``flow="decomposed_enable"`` job.  Returns
    ``(t1_rows, t2_rows, t3_rows)`` — ``t3_rows`` is ``None`` unless
    requested.
    """
    from ..netlist import write_blif
    from ..service import RetimeJob, RetimeService
    from ..synth import DESIGN_NAMES, build_design

    names = list(names or DESIGN_NAMES)
    texts = {
        name: write_blif(build_design(name, scale).circuit) for name in names
    }
    jobs = [
        RetimeJob(
            netlist=texts[name], name=name, flow="retime",
            delay_model="xc4000e",
        )
        for name in names
    ]
    if want_t3:
        jobs.extend(
            RetimeJob(
                netlist=texts[name], name=name, flow="decomposed_enable",
                delay_model="xc4000e",
            )
            for name in names
        )

    service = RetimeService(workers=workers)
    try:
        results = service.batch(jobs)
    finally:
        service.close()
    for job, result in zip(jobs, results):
        if not result.ok:
            raise RuntimeError(
                f"design {job.name} ({job.flow}) failed: "
                f"{result.error.type}: {result.error.message}"
            )

    retimed = [result.metrics for result in results[: len(names)]]
    t1_rows = [table1.row(n, m) for n, m in zip(names, retimed)]
    t2_rows = [table2.row(n, m) for n, m in zip(names, retimed)]
    t3_rows = None
    if want_t3:
        decomposed = [result.metrics for result in results[len(names):]]
        t3_rows = [
            table3.row(*row)
            for row in zip(names, decomposed, t1_rows, t2_rows)
        ]
    return t1_rows, t2_rows, t3_rows


def _print_pareto(scale: float, names: list[str] | None):
    from ..flows import baseline_flow
    from ..synth import build_design

    for name in names or ["C5"]:
        mapped = baseline_flow(build_design(name, scale).circuit).circuit
        sweep = pareto.pareto_sweep(mapped)
        print(f"\n== Pareto sweep: {name} (period vs registers) ==")
        print(
            f"  original: period {sweep.phi_original:.2f}, "
            f"{sweep.registers_original} registers; φ_min {sweep.phi_min:.2f}"
        )
        for point in sweep.points:
            print(
                f"  target {point.target_period:7.2f} -> achieved "
                f"{point.achieved_period:7.2f} with {point.registers} registers"
            )


def _print_figures():
    f1 = figures.figure1()
    print("\n== Figure 1: enable registers, mc-step vs decomposition ==")
    print(f"  original:            {f1.original_ff} FF, {f1.original_gates} gates")
    print(f"  b) mc forward step:  {f1.mc_ff} FF, {f1.mc_gates} gates")
    print(
        f"  c) EN decomposed:    {f1.decomposed_ff} FF, "
        f"{f1.decomposed_gates} gates"
    )
    print(
        f"  d) c) retimed:       {f1.retimed_decomposed_ff} FF, "
        f"{f1.retimed_decomposed_gates} gates"
    )
    print(
        f"  mc advantage: {f1.mc_advantage_ff} registers and "
        f"{f1.mc_advantage_gates} gates (paper: 2 registers, 2 muxes)"
    )

    f4 = figures.figure4()
    print("\n== Figure 4: multiple-class register sharing ==")
    print(f"  naive shared count:     {f4.naive_count} (paper: 2)")
    print(f"  true multi-class cost:  {f4.true_count} (paper: 3)")
    print(f"  corrected model count:  {f4.corrected_count} (paper: 3)")
    print(f"  separation vertices:    {f4.separations}")

    f5 = figures.figure5()
    print("\n== Figure 5: local conflict, global justification ==")
    print(f"  local steps:  {f5.local_steps}")
    print(f"  global steps: {f5.global_steps} (the v2 conflict)")
    print(f"  final reset values by position: {f5.final_values}")
    print(f"  sequentially equivalent after reset: {f5.equivalent}")


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``mcretime-tables``."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument(
        "--only",
        choices=[
            "table1", "table2", "table3", "figures", "pareto",
            "scaling", "all",
        ],
        default="all",
    )
    parser.add_argument(
        "--designs",
        type=str,
        default=None,
        help="comma-separated subset, e.g. C1,C2,C5",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="run the per-design table flows on a service worker pool "
        "(>1 enables the parallel path)",
    )
    args = parser.parse_args(argv)
    names = args.designs.split(",") if args.designs else None

    t_start = time.perf_counter()
    table_artefacts = ("table1", "table2", "table3", "all")
    if args.workers > 1 and args.only in table_artefacts:
        want_t3 = args.only in ("table3", "all")
        t1_rows, t2_rows, t3_rows = parallel_tables(
            args.scale, names, args.workers, want_t3
        )
        if args.only in ("table1", "all"):
            _render_table1(t1_rows)
        if args.only in ("table2", "all"):
            _render_table2(t2_rows)
        if args.only in ("table3", "all"):
            _render_table3(t3_rows)
    else:
        if args.only in ("table1", "all"):
            t1_rows, flows = _print_table1(args.scale, names)
        else:
            t1_rows, flows = (None, None)
        if args.only in ("table2", "all"):
            if flows is None:
                t1_rows, flows = table1.run(args.scale, names)
            t2_rows = _print_table2(args.scale, names, flows)
        else:
            t2_rows = None
        if args.only in ("table3", "all"):
            _print_table3(args.scale, names, t1_rows, t2_rows)
    if args.only in ("figures", "all"):
        _print_figures()
    if args.only == "pareto":
        _print_pareto(args.scale, names)
    if args.only == "scaling":
        for name in names or ["C6"]:
            print(f"\n== Scaling study: {name} ==")
            points = scaling.scaling_study(
                name, scales=(0.1, 0.25, 0.5, args.scale)
            )
            print(scaling.format_study(points))
    print(f"\n(total wall time {time.perf_counter() - t_start:.1f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

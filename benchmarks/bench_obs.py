"""Benchmark: disabled-tracing overhead of the obs instrumentation.

The retiming hot loops (PR 2's compiled kernels) carry permanent
``obs.span`` / ``obs.count`` / ``obs.gauge`` call sites.  With no
tracer installed each call is one global load plus an identity check —
this bench gates that the *disabled* path stays under 3 % overhead by
timing the kernel loops twice, interleaved: once against the real
:mod:`repro.obs` dispatch functions and once with them swapped for
bare do-nothing stubs (the cheapest possible baseline the call sites
permit).  If a future change makes the disabled path do real work, the
ratio trips the gate.

Run one or more gates (``--quick`` for the CI sizes)::

    PYTHONPATH=src:. python benchmarks/bench_obs.py --check-overhead --quick

``--check-overhead`` exits non-zero when any kernel loop exceeds the
3 % budget.  ``--check-bus`` gates the *distributed* telemetry plane:
a traced saturation batch with the worker→supervisor telemetry bus
attached must stay within 5 % of the same batch with the bus disabled
(JSONL tracing on in both runs, so the delta isolates the bus itself).
``--check-explain`` gates the explanation plane
(:mod:`repro.obs.explain`): certificate extraction must be strictly
post-hoc, so an ``explain=True`` run minus its recorded ``explain``
stage must match a plain ``explain=False`` run within 3 % — and the
explanation it produces must re-validate.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import tempfile
import threading
import time
from pathlib import Path

_perf_counter = time.perf_counter

#: disabled-tracing overhead budget (percent) for --check-overhead
OVERHEAD_BUDGET_PCT = 3.0

#: telemetry-bus budget (percent) on traced saturation wall time
BUS_BUDGET_PCT = 5.0

#: explain-off budget (percent): solve phases of an explained run vs a
#: plain run — certificate extraction must be entirely post-hoc
EXPLAIN_BUDGET_PCT = 3.0

#: A/B repeats for the explain gate
EXPLAIN_REPEATS = 7

#: A/B repeats for the quick explain gate (NTT4, about 30 s on 2 CPUs).
#: One NTT4 solve is ~0.1 s and single pairs spread by 8-24 % (IQR) on
#: a 2-CPU host, so the median of 3 pairs breached the 3 % budget
#: on about half the runs of an unchanged tree; the median of 101 pairs
#: moves by well under 1 % between runs.
EXPLAIN_QUICK_REPEATS = 101

#: interleaved repeats per workload (median taken over these)
DEFAULT_REPEATS = 15

#: A/B repeats for the bus gate (each repeat runs two full batches)
BUS_REPEATS = 3


@contextlib.contextmanager
def _stubbed_obs():
    """Swap the obs dispatch helpers for bare no-op stubs.

    Instrumented modules hold a reference to the ``repro.obs`` package
    and resolve ``obs.span`` etc. at call time, so patching the package
    attributes reaches every call site at once.
    """
    from repro import obs

    saved = {
        name: getattr(obs, name)
        for name in ("span", "timed", "count", "gauge", "enabled")
    }

    def _null_span(*args, **kwargs):
        return obs.NULL_SPAN

    def _noop(*args, **kwargs):
        return None

    obs.span = _null_span
    obs.timed = lambda *a, **k: obs.Stopwatch()
    obs.count = _noop
    obs.gauge = _noop
    obs.enabled = lambda: False
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(obs, name, fn)


def _paired_overhead(fn, repeats: int) -> tuple[float, float, float]:
    """Overhead estimate for *fn*: (real_s, stub_s, overhead_pct).

    Each repeat times one real run and one stubbed run back to back and
    keeps their ratio; the reported overhead is the **median of the
    per-pair ratios**.  Adjacent runs share the same host conditions
    (~tens of ms apart), so machine-wide drift cancels out of each
    ratio, and the pair order alternates every repeat because running
    second in a pair is measurably faster (warm allocator/branch state)
    — a fixed order would bias the ratio far more than the effect under
    test.
    """
    import statistics

    fn()
    fn()  # two warm-up runs; the first is much slower than steady state
    real = []
    stub = []
    ratios = []

    def run_real() -> float:
        t0 = _perf_counter()
        fn()
        dt = _perf_counter() - t0
        real.append(dt)
        return dt

    def run_stub() -> float:
        with _stubbed_obs():
            t0 = _perf_counter()
            fn()
            dt = _perf_counter() - t0
        stub.append(dt)
        return dt

    for i in range(repeats):
        if i % 2 == 0:
            a = run_real()
            b = run_stub()
        else:
            b = run_stub()
            a = run_real()
        ratios.append(a / b)
    overhead = 100.0 * (statistics.median(ratios) - 1.0)
    return statistics.median(real), statistics.median(stub), overhead


def _workloads(quick: bool):
    """The PR 2 kernel hot loops, sized so each run is well above timer
    resolution (tens of milliseconds)."""
    from repro import kernels
    from repro.retime import minperiod
    from tests.retime.helpers import random_graph

    n, m = (150, 500) if quick else (400, 1400)
    graph = random_graph(11, n_vertices=n, n_edges=m)
    cg = kernels.compile_graph(graph)
    zero = [0] * cg.n
    # each workload must run tens of milliseconds: at the 1–2 ms scale
    # scheduler/allocator noise swamps the sub-percent effect under test
    sweeps = 250 if quick else 300
    checks = 12 if quick else 6

    def delta_sweep():
        for _ in range(sweeps):
            kernels.delta_sweep(cg, zero)

    def check_period():
        for _ in range(checks):
            minperiod.check_period(graph, phi, minperiod.base_system(graph))

    def min_period():
        minperiod.min_period(graph)

    # resolve the achievable period once, outside the timed region
    phi = minperiod.min_period(graph).phi

    return {
        "delta_sweep": delta_sweep,
        "check_period": check_period,
        "min_period": min_period,
    }


def check_overhead(quick: bool = False) -> dict[str, dict[str, float]]:
    """Measure disabled-obs overhead per kernel loop; raises on breach.

    The "real" side runs with the full obs *and* profiler machinery
    importable but inactive — no tracer installed, no sampler thread
    alive — so the gate covers the cost of having the profiler in the
    process without running it (the default production state).
    """
    from repro import obs

    assert not obs.enabled(), "tracing must be disabled for the overhead gate"
    assert not any(
        t.name == "repro-obs-sampler" for t in threading.enumerate()
    ), "the sampling profiler must not be running during the overhead gate"
    repeats, threshold = DEFAULT_REPEATS, OVERHEAD_BUDGET_PCT
    report: dict[str, dict[str, float]] = {}
    failures = []
    for name, fn in _workloads(quick).items():
        # a genuine regression breaches the budget on every attempt;
        # host-noise spikes (~1.5 % sigma here) do not survive retries
        best = None
        for attempt in range(3):
            real, stub, overhead = _paired_overhead(fn, repeats)
            if best is None or overhead < best[2]:
                best = (real, stub, overhead)
            if overhead <= threshold:
                break
            print(f"{name}: {overhead:+.2f}% > {threshold}%, re-measuring")
        real, stub, overhead = best
        report[name] = {
            "real_s": real,
            "stub_s": stub,
            "overhead_pct": overhead,
        }
        print(
            f"{name:16s} real {real * 1e3:8.2f}ms  "
            f"stub {stub * 1e3:8.2f}ms  overhead {overhead:+6.2f}%"
        )
        if overhead > threshold:
            failures.append(f"{name}: {overhead:.2f}% > {threshold}%")
    if failures:
        raise AssertionError(
            "disabled-tracing overhead budget exceeded: " + "; ".join(failures)
        )
    return report


# --------------------------------------------------------------------- #
# telemetry-bus throughput gate (--check-bus)


def _traced_batch_seconds(
    jobs, workers: int, trace_dir: Path, telemetry: bool
) -> float:
    """Wall time for one fully traced batch, bus on or off."""
    from repro.service import RetimeService

    service = RetimeService(
        workers=workers,
        job_timeout=600.0,
        trace_dir=trace_dir,
        telemetry=telemetry,
    )
    try:
        t0 = _perf_counter()
        ids = [service.submit(job) for job in jobs]
        results = [service.wait(job_id, timeout=600) for job_id in ids]
        elapsed = _perf_counter() - t0
        assert all(r.ok for r in results), [
            r.error.message for r in results if not r.ok
        ]
        return elapsed
    finally:
        service.close()


def check_bus(out_dir: Path, quick: bool = False) -> dict[str, float]:
    """Gate: the live telemetry bus must not tax traced throughput.

    Both sides run the same cold target-period sweep with JSONL tracing
    enabled (traces under *out_dir*); only the worker→supervisor bus
    differs.  Pairs run back to back with alternating order (same
    rationale as :func:`_paired_overhead`) and the gate judges the
    median per-pair ratio.
    """
    import os
    import statistics

    try:
        from benchmarks.bench_service import _sweep_jobs
    except ImportError:  # standalone: python benchmarks/bench_obs.py
        from bench_service import _sweep_jobs

    repeats, threshold = BUS_REPEATS, BUS_BUDGET_PCT
    designs = ["C1", "C3"] if quick else ["C1", "C3", "C5"]
    n_jobs = 8 if quick else 12
    workers = min(4, os.cpu_count() or 1)
    jobs = _sweep_jobs(designs, 0.3, n_jobs)
    out_dir.mkdir(parents=True, exist_ok=True)

    run_index = 0

    def run(telemetry: bool) -> float:
        nonlocal run_index
        run_index += 1
        trace_dir = out_dir / f"traces_{run_index:02d}"
        return _traced_batch_seconds(jobs, workers, trace_dir, telemetry)

    run(telemetry=True)  # warm-up: imports, design build caches

    def measure() -> dict[str, float]:
        with_bus, without_bus, ratios = [], [], []
        for i in range(repeats):
            if i % 2 == 0:
                a = run(telemetry=True)
                b = run(telemetry=False)
            else:
                b = run(telemetry=False)
                a = run(telemetry=True)
            with_bus.append(a)
            without_bus.append(b)
            ratios.append(a / b)
        return {
            "with_bus_s": statistics.median(with_bus),
            "without_bus_s": statistics.median(without_bus),
            "overhead_pct": 100.0 * (statistics.median(ratios) - 1.0),
        }

    # a real bus regression breaches on every attempt; pool-startup and
    # scheduler noise (batches are short) does not survive retries
    report = None
    for attempt in range(3):
        candidate = measure()
        if report is None or candidate["overhead_pct"] < report["overhead_pct"]:
            report = candidate
        if report["overhead_pct"] <= threshold:
            break
        print(
            f"bus: {candidate['overhead_pct']:+.2f}% > {threshold}%, "
            "re-measuring"
        )
    overhead = report["overhead_pct"]
    print(
        f"telemetry bus    on {report['with_bus_s']:8.2f}s  "
        f"off {report['without_bus_s']:8.2f}s  overhead {overhead:+6.2f}%"
    )
    if overhead > threshold:
        raise AssertionError(
            f"telemetry bus overhead {overhead:.2f}% > {threshold}% "
            f"of traced saturation wall time"
        )
    return report


# --------------------------------------------------------------------- #
# explanation-plane gate (--check-explain)


def check_explain(quick: bool = False) -> dict[str, float]:
    """Gate: requesting an explanation must not tax the solve itself.

    Certificate extraction (:mod:`repro.obs.explain`) is specified as
    strictly post-hoc — ``mc_retime(explain=True)`` runs the exact same
    solving phases as ``explain=False`` and only then walks the solved
    system.  This gate measures that contract from the outside: the
    wall time of an explained run *minus its recorded ``explain`` stage*
    must stay within the threshold of a plain run (paired, alternating
    order, median per-pair ratio — same protocol as the obs overhead
    gate).  A regression here means explanation capture leaked into the
    solver hot path.  The explanation produced on the way is also
    re-validated, so the gate doubles as a certificate smoke test.
    """
    import statistics

    from repro.mcretime import mc_retime
    from repro.synth import build_datapath

    repeats = EXPLAIN_QUICK_REPEATS if quick else EXPLAIN_REPEATS
    threshold = EXPLAIN_BUDGET_PCT
    design = "NTT4" if quick else "BFLY8"
    circuit = build_datapath(design).circuit

    def run(explain: bool) -> tuple[float, object]:
        t0 = _perf_counter()
        result = mc_retime(circuit, explain=explain)
        return _perf_counter() - t0, result

    run(explain=True)  # warm-up: imports, BDD caches, kernels
    plain_s, solve_s, ratios = [], [], []
    summary = None
    for i in range(repeats):
        if i % 2 == 0:
            off, _ = run(explain=False)
            on, res = run(explain=True)
        else:
            on, res = run(explain=True)
            off, _ = run(explain=False)
        explanation = res.explanation
        assert explanation is not None and explanation["valid"], (
            "explained run produced an invalid explanation: "
            f"{explanation and explanation['errors']}"
        )
        summary = explanation
        solve = on - res.timings.get("explain", 0.0)
        plain_s.append(off)
        solve_s.append(solve)
        ratios.append(solve / off)
    overhead = 100.0 * (statistics.median(ratios) - 1.0)
    report = {
        "plain_s": statistics.median(plain_s),
        "explained_solve_s": statistics.median(solve_s),
        "overhead_pct": overhead,
        "certificates": float(summary["certificates"]),
    }
    print(
        f"explain gate     off {report['plain_s'] * 1e3:8.2f}ms  "
        f"on-solve {report['explained_solve_s'] * 1e3:8.2f}ms  "
        f"overhead {overhead:+6.2f}%  "
        f"({summary['certificates']} certificates valid)"
    )
    if overhead > threshold:
        raise AssertionError(
            f"explain-off overhead {overhead:.2f}% > {threshold}%: "
            "explanation capture leaked into the solver hot path"
        )
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check-overhead", action="store_true")
    parser.add_argument("--check-bus", action="store_true")
    parser.add_argument("--check-explain", action="store_true")
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)

    if not (args.check_overhead or args.check_bus or args.check_explain):
        parser.error(
            "pick at least one of --check-overhead / --check-bus / "
            "--check-explain"
        )
    try:
        if args.check_overhead:
            check_overhead(args.quick)
        if args.check_explain:
            check_explain(args.quick)
        if args.check_bus:
            with tempfile.TemporaryDirectory() as tmp:
                check_bus(Path(tmp), args.quick)
    except AssertionError as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

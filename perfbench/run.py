"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload tables|throughput|serve \\
        --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from its
``src/`` tree.  Each metric is printed as ``<workload> <name> <value>
<unit>``; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics from a traced
run.  ``perfbench/NOTES.md`` describes the workloads and metrics.

An operation that raises, is refused, or whose output fails its check
is counted in ``failed`` with its reason and never aborts the run.
``correct`` is false only when the run itself is inconsistent: passes
whose outputs differ, or an invalid trace file.  A traced run whose
guard finds an entry point gone, or silent on a workload that must call
it, exits with code 3 and names it.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import batch  # noqa: E402
import layers  # noqa: E402
import served  # noqa: E402
from common import OUT, ROOT, host_probe, percentile, self_peak_rss_mb, write_record  # noqa: E402

#: end-to-end metrics: name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "latency_p50_s": ("s", "lower"),
    "latency_p95_s": ("s", "lower"),
    "registers": ("count", "lower"),
    "luts": ("count", "lower"),
    "period_ns": ("ns_sta", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: batch: a set-up is timed before the first pass and after every Nth
#: operation, so ``setup_s`` (their median) samples the host across the
#: whole run; serve: set-ups before and after the request list
SETUP_EVERY = {"tables": 3, "throughput": 2}
SERVE_SETUPS = 2
#: seconds of one pass on a slow phase of this host: ``--seconds`` buys
#: ``seconds // PASS_SECONDS`` passes (at least one), so a run stays near
#: its time when the host is slow
PASS_SECONDS = {"tables": 20.0, "throughput": 9.0}
WORKLOADS = ("tables", "throughput", "serve")


def per_layer_units() -> dict[str, tuple[str, str]]:
    """Every per-layer metric: name -> (unit, better)."""
    units: dict[str, tuple[str, str]] = {}
    for entry in layers.ENTRY_POINTS:
        units[f"{entry}.busy_s"] = ("s", "lower")
        units[f"{entry}.calls"] = ("count", "lower")
        units[f"{entry}.share"] = ("ratio", "lower")
    for name in layers.COUNTERS:
        if name != "delta.refreshes":
            units[name] = ("count", "lower")
    units["delta.incremental_share"] = ("ratio", "higher")
    units["mcretime.resolve_share"] = ("ratio", "lower")
    units["service.rtt_s"] = ("s", "lower")
    units["service.cache.hit_ratio"] = ("ratio", "higher")
    units["service.queue_wait_s"] = ("s", "lower")
    units["service.stolen_share"] = ("ratio", "lower")
    for name in ("service.jobs_retried", "service.jobs_failed", "service.jobs_shed"):
        units[name] = ("count", "lower")
    units["eco.plan.reuse"] = ("count", "higher")
    units["eco.plan.resolve"] = ("count", "higher")
    units["eco.plan.cold"] = ("count", "lower")
    units["eco.warm_share"] = ("ratio", "higher")
    for stage in served.WORKER_STAGES:
        units[f"service.worker.{stage}.busy_s"] = ("s", "lower")
    units["trace.overhead"] = ("ratio", "lower")
    units["failed_share"] = ("ratio", "lower")
    return units


class Run:
    """What one invocation measured."""

    def __init__(self) -> None:
        self.metrics: dict[str, float] = {}
        self.attempted = 0
        #: "<pass or list>/<operation>" -> reason
        self.failures: dict[str, str] = {}
        #: reasons the run itself is inconsistent (``correct`` false)
        self.inconsistent: list[str] = []
        self.details: dict = {}


# -- batch workloads ---------------------------------------------------------


def batch_run(workload: str, seed: int, seconds: float, trace: bool) -> Run:
    run = Run()
    if not trace:
        setup_times: list[float] = []
        ops = batch.timed_setup(workload, seed, setup_times)
        done = itertools.count(1)

        def after_op() -> None:
            if next(done) % SETUP_EVERY[workload] == 0:
                batch.timed_setup(workload, seed, setup_times)

        repeats = max(1, int(seconds // PASS_SECONDS[workload]))
        passes = batch.run_passes(ops, seed, repeats, after_op=after_op)
        _account(run, passes, len(ops))
        pass_times = [p.seconds for p in passes]
        first = passes[0]
        run.metrics = {
            "setup_s": median(setup_times),
            "ops_per_s": len(ops) / median(pass_times),
            # a batch user waits for the whole operation list
            "latency_p50_s": median(pass_times),
            "latency_p95_s": percentile(pass_times, 95),
            "registers": first.registers,
            "luts": first.luts,
            "period_ns": first.period_ns,
            "peak_rss_mb": self_peak_rss_mb(),
        }
        run.details = {"setup_times": setup_times, "pass_times": pass_times,
                       "latency_samples": len(pass_times), "operations": [op.name for op in ops]}
        return run

    recorder = layers.Recorder()
    recorder.install()
    try:
        with recorder.root("bench.setup", -1):
            ops = batch.setup(workload, seed)
    finally:
        recorder.uninstall()
    [untraced] = batch.run_passes(ops, seed)
    recorder.install()
    try:
        [traced] = batch.run_passes(ops, seed, reference=untraced, recorder=recorder)
    finally:
        recorder.uninstall()
    _account(run, [untraced, traced], len(ops))
    trace_path = OUT / f"{workload}-seed{seed}.trace.json"
    layers.write_chrome(recorder.spans, trace_path)
    from repro.obs import chrome_trace_errors

    run.inconsistent += chrome_trace_errors(trace_path)
    run.metrics.update(layers.layer_metrics(recorder, batch.REQUIRED[workload]))
    run.metrics.update(layers.counter_metrics(traced.counters, len(ops), traced.resolved_ops))
    run.metrics["trace.overhead"] = traced.seconds / untraced.seconds - 1.0
    run.details = {"trace": str(trace_path.relative_to(ROOT)), "pass_times": [untraced.seconds, traced.seconds]}
    return run


def _account(run: Run, passes, n_ops: int) -> None:
    first = passes[0]
    for index, p in enumerate(passes):
        run.attempted += n_ops
        for name, reason in sorted(p.failures.items()):
            run.failures[f"pass{index}/{name}"] = reason
        if (p.registers, p.luts, p.period_ns) != (first.registers, first.luts, first.period_ns):
            run.inconsistent.append(f"pass {index} output totals differ from pass 0")
    if any("differs from the first pass" in r for r in run.failures.values()):
        run.inconsistent.append("an operation's output differs between passes")


# -- serve -------------------------------------------------------------------


def serve_run(seed: int, seconds: float, trace: bool) -> Run:
    run = Run()
    n_cold = served.cold_count(seconds)
    setup_times: list[float] = []
    server = None

    def set_up(keep: bool):
        nonlocal server
        t0 = time.perf_counter()
        requests = served.build_requests(seed, n_cold)
        server = served.Server()
        server.wait_healthy()
        setup_times.append(time.perf_counter() - t0)
        if not keep:
            server.stop()
            server = None
        return requests

    try:
        for k in range(1 if trace else SERVE_SETUPS):
            requests = set_up(keep=k == SERVE_SETUPS - 1 or trace)
        outcomes, wall = served.run_load(server.url, requests)
        rss = server.peak_rss_mb()
        server.stop()
        server = None
        if not trace:
            for _ in range(SERVE_SETUPS):
                set_up(keep=False)
        registers, luts, period = _serve_account(run, "list0", requests, outcomes, seed)
        if not trace:
            latencies = [o.latency for o in outcomes if o.latency is not None]
            run.metrics = {
                "setup_s": median(setup_times),
                "ops_per_s": len(requests) / wall,
                "latency_p50_s": median(latencies),
                "latency_p95_s": percentile(latencies, 95),
                "registers": registers,
                "luts": luts,
                "period_ns": period,
                "peak_rss_mb": rss,
            }
            run.details = {"setup_times": setup_times, "wall_s": wall,
                           "latency_samples": len(latencies),
                           "kinds": {k: sum(r.kind == k for r in requests) for k in ("cold", "eco", "hit")}}
            return run
        # traced: the same list again, on a fresh server whose workers
        # trace every job; the first list is the untraced baseline
        server = served.Server(traced=True)
        server.wait_healthy()
        rtt = served.rtt(server.url)
        before = served.scrape(server.url)
        traced_outcomes, traced_wall = served.run_load(server.url, requests)
        after = served.scrape(server.url)
        server.stop()
        server = None
    finally:
        if server is not None:
            server.stop()
    _serve_account(run, "list1", requests, traced_outcomes, seed)
    service, counters, resolved, executed = served.layer_metrics(traced_outcomes, before, after)
    run.metrics.update(layers.counter_metrics(counters, executed, resolved))
    run.metrics.update(service)
    run.metrics["service.rtt_s"] = rtt
    run.metrics["trace.overhead"] = traced_wall / wall - 1.0
    # the serve guard: each layer the workload exists for must show work
    m = run.metrics
    shown = {
        "result cache": m["service.cache.hit_ratio"],
        "ECO plans": m["eco.plan.reuse"] + m["eco.plan.resolve"] + m["eco.plan.cold"],
        "worker stage timings": m["service.worker.minarea.busy_s"],
        "worker counters": m["minarea.rounds"],
    }
    silent = [name for name, value in shown.items() if not value]
    if silent:
        raise layers.GuardError("no work recorded by " + ", ".join(silent))
    # client-side request spans, one per list index
    trace_path = OUT / f"serve-seed{seed}.trace.json"
    layers.write_chrome([[f"serve.{r.kind}", o.sent, o.replied, -1, i]
                         for i, (r, o) in enumerate(zip(requests, traced_outcomes))
                         if o.latency is not None], trace_path)
    from repro.obs import chrome_trace_errors

    run.inconsistent += chrome_trace_errors(trace_path)
    run.details = {"wall_s": [wall, traced_wall], "executed_jobs": executed,
                   "trace": str(trace_path.relative_to(ROOT))}
    return run


def _serve_account(run: Run, label: str, requests, outcomes, seed: int):
    """Check one list's outputs; returns its registers, LUTs and period sums."""
    failures, *totals = served.check(requests, outcomes, seed)
    run.attempted += len(requests)
    for index, reason in sorted(failures.items()):
        run.failures[f"{label}/{index}:{requests[index].kind}"] = reason
    return totals


# -- entry point -------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {src}/repro; run inside a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    probe_start = host_probe()
    try:
        if args.workload == "serve":
            run = serve_run(args.seed, args.seconds, bool(args.trace))
        else:
            run = batch_run(args.workload, args.seed, args.seconds, bool(args.trace))
    except layers.GuardError as exc:
        print(f"perfbench: traced-run guard: {exc}", file=sys.stderr)
        return 3
    probe_end = host_probe()

    failed_share = len(run.failures) / run.attempted
    units = per_layer_units() if args.trace else END_TO_END
    if args.trace:
        run.metrics["failed_share"] = failed_share
        for name, (unit, _) in units.items():
            # the workload's process does not go through this layer
            run.metrics.setdefault(name, 0 if unit == "count" else 0.0)
    metrics = {name: {"value": run.metrics[name], "unit": units[name][0]} for name in units}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host_probe_s": {"start": probe_start, "end": probe_end},
        "failures": run.failures, "inconsistent": run.inconsistent,
        "failed_share": failed_share, "metrics": metrics, "details": run.details,
    }
    path = write_record(f"{args.workload}-seed{args.seed}-trace{args.trace}", record)
    print(f"host probe: start {probe_start:.4f}s end {probe_end:.4f}s (record: {path.relative_to(ROOT)})")
    for key, reason in run.failures.items():
        print(f"failed {key}: {reason}")
    for reason in run.inconsistent:
        print(f"inconsistent: {reason}")
    print(f"{args.workload} failed_share {failed_share:.4f} ratio "
          f"({len(run.failures)} of {run.attempted})")
    for name, m in metrics.items():
        print(f"{args.workload} {name} {m['value']!r} {m['unit']}")
    print(json.dumps({
        "correct": not run.inconsistent, "attempted": run.attempted,
        "failed": len(run.failures), "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

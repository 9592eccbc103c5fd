"""Benchmark: batch service throughput, pool saturation, phases.

Measures three things and prints them as one JSON report:

* **batch throughput** — an N-design batch cold at 1 worker, cold at
  the pool size, and warm (cache hits);
* **per-phase breakdown** — where a cold batch's wall-clock goes:
  ``serialize`` (canonicalisation), ``admit`` (front-end submission),
  ``solve`` (worker stage seconds);
* **saturation** — cold jobs/sec for a target-period sweep at 1
  worker vs ``--pool-workers`` workers.  The scaling gate (pool rate
  >= 3x the 1-worker rate) is enforced by ``--check`` when the host
  actually has >= 4 cores; a smaller host records the honest curve
  without failing.

The CI gate runs::

    PYTHONPATH=src:. python benchmarks/bench_service.py --quick \
        --pool-workers 4 --n-jobs 24 --check
"""

from __future__ import annotations

import argparse
import json
import os
import tempfile
import time
from pathlib import Path

#: worker flow stages summed into the ``solve`` phase
_STAGES = ("build", "bounds", "sharing", "minperiod", "minarea", "relocate")


def _jobs(designs: list[str], scale: float):
    from repro.netlist import write_blif
    from repro.service import RetimeJob
    from repro.synth import build_design

    return [
        RetimeJob(
            netlist=write_blif(build_design(name, scale).circuit),
            name=name,
            flow="mcretime",
            delay_model="xc4000e",
        )
        for name in designs
    ]


def _sweep_jobs(designs: list[str], scale: float, n_jobs: int):
    """A cold target-period sweep: n_jobs distinct jobs over designs."""
    from repro.netlist import read_blif, write_blif
    from repro.mcretime import mc_retime
    from repro.service import RetimeJob
    from repro.synth import build_design
    from repro.timing import XC4000E_DELAY

    texts, base_periods = {}, {}
    for name in designs:
        texts[name] = write_blif(build_design(name, scale).circuit)
        base = mc_retime(read_blif(texts[name]), delay_model=XC4000E_DELAY)
        base_periods[name] = base.period_after

    jobs = []
    for i in range(n_jobs):
        name = designs[i % len(designs)]
        slack = 1.10 + 0.03 * (i // len(designs))
        jobs.append(
            RetimeJob(
                netlist=texts[name],
                name=name,
                flow="mcretime",
                delay_model="xc4000e",
                target_period=round(base_periods[name] * slack, 4),
            )
        )
    return jobs


def _timed_batch(jobs, workers: int, cache_dir: Path | None) -> dict[str, float]:
    from repro.service import RetimeService

    service = RetimeService(workers=workers, cache_dir=cache_dir)
    try:
        admit = 0.0
        t0 = time.perf_counter()
        ids = []
        for job in jobs:
            a0 = time.perf_counter()
            ids.append(service.submit(job))
            admit += time.perf_counter() - a0
        results = [service.wait(job_id, timeout=600) for job_id in ids]
        elapsed = time.perf_counter() - t0
        assert all(r.ok for r in results), [
            r.error.message for r in results if not r.ok
        ]
        stage_hist = service.metrics.histogram("repro_stage_seconds")
        return {
            "seconds": elapsed,
            "jobs_per_sec": len(jobs) / max(elapsed, 1e-9),
            "cache_hit_rate": service.cache_hit_rate(),
            "p95_latency": service.metrics.histogram(
                "repro_job_latency_seconds"
            ).percentile(95),
            "admit_seconds": admit,
            "solve_seconds": sum(
                stage_hist.sum(stage=stage) for stage in _STAGES
            ),
        }
    finally:
        service.close()


def _phase_breakdown(jobs) -> dict[str, float]:
    """Front-end canonicalisation cost of a cold batch."""
    from repro.service import RetimeJob

    t0 = time.perf_counter()
    fresh = [RetimeJob.from_dict(job.to_dict()) for job in jobs]
    for job in fresh:
        job.canonical_key  # parse + canonical emit + hash
    return {"serialize_seconds": time.perf_counter() - t0}


def run_bench(
    designs: list[str],
    scale: float,
    out_dir: Path,
    pool_workers: int | None = None,
    n_jobs: int | None = None,
) -> dict:
    """Cold/warm batch throughput + saturation scaling + phase split."""
    cpu_count = os.cpu_count() or 1
    pool_workers = pool_workers or min(4, cpu_count)
    n_jobs = n_jobs or 4 * len(designs)
    jobs = _jobs(designs, scale)

    cold_serial = _timed_batch(jobs, 1, out_dir / "cache_serial")
    cold_pool = _timed_batch(jobs, pool_workers, out_dir / "cache_pool")
    warm = _timed_batch(jobs, pool_workers, out_dir / "cache_pool")
    phases = _phase_breakdown(jobs)
    phases["admit_seconds"] = cold_pool["admit_seconds"]
    phases["solve_seconds"] = cold_pool["solve_seconds"]

    sweep = _sweep_jobs(designs, scale, n_jobs)
    sweep_1w = _timed_batch(sweep, 1, None)
    sweep_pool = _timed_batch(sweep, pool_workers, None)
    saturation = {
        "n_jobs": len(sweep),
        "pool_workers": pool_workers,
        "cpu_count": cpu_count,
        "one_worker": sweep_1w,
        "pool": sweep_pool,
        "speedup_vs_1_worker": (
            sweep_pool["jobs_per_sec"] / max(sweep_1w["jobs_per_sec"], 1e-9)
        ),
    }

    return {
        "designs": designs,
        "scale": scale,
        "n_jobs": len(jobs),
        "pool_workers": pool_workers,
        "cpu_count": cpu_count,
        "cold_1_worker": cold_serial,
        "cold_pool": cold_pool,
        "warm_cache": warm,
        "phases": phases,
        "saturation": saturation,
        "pool_speedup": cold_serial["seconds"] / max(cold_pool["seconds"], 1e-9),
        "warm_speedup": cold_serial["seconds"] / max(warm["seconds"], 1e-9),
    }


def check_gates(report: dict) -> list[str]:
    """Hard gates for --check / CI; returns failure messages."""
    failures = []
    warm = report["warm_cache"]
    if warm["cache_hit_rate"] <= 0.9:
        failures.append(
            f"warm cache hit rate {warm['cache_hit_rate']:.2f} <= 0.9"
        )
    if warm["p95_latency"] <= 0.0:
        failures.append("warm p95 latency is 0.0 (empty reservoir bug)")
    sat = report["saturation"]
    if sat["cpu_count"] >= 4 and sat["pool_workers"] >= 4:
        speedup = sat["speedup_vs_1_worker"]
        if speedup < 3.0:
            failures.append(
                f"saturation: {sat['pool_workers']}-worker rate is only "
                f"{speedup:.2f}x the 1-worker rate "
                f"(gate: >= 3x on a >= 4-core host)"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--pool-workers", type=int, default=None, metavar="N",
        help="pool size for the cold-pool and saturation sections "
        "(default: min(4, cpu_count))",
    )
    parser.add_argument(
        "--n-jobs", type=int, default=None, metavar="M",
        help="saturation sweep size (default: 4 jobs per design)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller designs and sweep (CI smoke size)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="fail on gate violations (cache hit rate, p95, >=3x scaling "
        "on >=4-core hosts)",
    )
    args = parser.parse_args(argv)
    if args.quick:
        designs, scale = ["C1", "C2"], 0.3
        n_jobs = args.n_jobs or 3 * len(designs)
    else:
        designs, scale, n_jobs = ["C1", "C2", "C3", "C5"], 0.4, args.n_jobs

    with tempfile.TemporaryDirectory() as tmp:
        report = run_bench(
            designs,
            scale,
            Path(tmp),
            pool_workers=args.pool_workers,
            n_jobs=n_jobs,
        )
    print(json.dumps(report, indent=2))
    if args.check:
        failures = check_gates(report)
        for failure in failures:
            print(f"GATE FAILED: {failure}")
        return 1 if failures else 0
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Benchmark: the bit-parallel verification kernel vs the scalar oracle.

Measures, per evaluation design, the cycle throughput of
:class:`repro.kernels.sim.BitSimulator` against per-lane
:class:`repro.logic.simulate.SequentialSimulator` runs over the
identical coverage-directed stimulus plan, asserting **bit-identical
verdicts** along the way (the kernel exists to make `--verify` cheap,
not to change its answer).  Also times the end-to-end
:func:`~repro.verify.check_sequential` gate in both engines and one
pipeline-fuzz round.  The JSON report goes to stdout::

    PYTHONPATH=src:. python benchmarks/bench_verify.py [--quick]

The exit status enforces the kernel's floor: it must stay >=20x the
scalar engine on simulation throughput (MIN_SPEEDUP).
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import time

FULL_DESIGNS = ["C1", "C2", "C3", "C5", "C8"]
QUICK_DESIGNS = ["C1", "C3"]

#: acceptance floor: aggregate kernel speedup over the scalar oracle
MIN_SPEEDUP = 20.0


def _median(samples: list[float]) -> float:
    return statistics.median(samples)


def bench_design(
    name: str, scale: float, cycles: int, repeats: int
) -> dict[str, object]:
    from repro.flows import baseline_flow, retime_flow
    from repro.kernels.sim import BitSimulator, compile_circuit
    from repro.logic.simulate import SequentialSimulator
    from repro.synth import build_design
    from repro.verify import check_sequential
    from repro.verify.sequential import StimulusPlan

    base = baseline_flow(build_design(name, scale).circuit)
    flow = retime_flow(build_design(name, scale).circuit, mapped=base)
    original, transformed = base.circuit, flow.circuit
    plan = StimulusPlan(original, transformed, cycles, seed=0, lanes=64)

    # raw simulation throughput over the identical plan, both engines
    def run_bits():
        sim = BitSimulator(compile_circuit(original), lanes=plan.lanes)
        for cycle in range(cycles + 1):
            sim.step(plan.word_stimulus(cycle))

    def run_scalar():
        sims = [SequentialSimulator(original) for _ in range(plan.lanes)]
        for cycle in range(cycles + 1):
            for lane, sim in enumerate(sims):
                sim.step(plan.lane_vector(cycle, lane))

    bits_s = [_timed(run_bits) for _ in range(repeats)]
    scalar_s = [_timed(run_scalar) for _ in range(max(1, repeats // 2))]

    # the production gate end to end, both engines — verdicts must agree
    check_bits = check_sequential(
        original, transformed, cycles=cycles, engine="bits"
    )
    check_scalar = check_sequential(
        original, transformed, cycles=cycles, engine="scalar"
    )
    if (check_bits.equivalent, check_bits.reason) != (
        check_scalar.equivalent, check_scalar.reason
    ):
        raise AssertionError(
            f"{name}: engine verdicts diverge: "
            f"bits={check_bits.reason!r} scalar={check_scalar.reason!r}"
        )
    gate_bits = [
        _timed(
            lambda: check_sequential(
                original, transformed, cycles=cycles, engine="bits"
            )
        )
        for _ in range(repeats)
    ]
    gate_scalar = [
        _timed(
            lambda: check_sequential(
                original, transformed, cycles=cycles, engine="scalar"
            )
        )
        for _ in range(max(1, repeats // 2))
    ]

    lane_cycles = plan.lanes * (cycles + 1)
    t_bits, t_scalar = _median(bits_s), _median(scalar_s)
    return {
        "lanes": plan.lanes,
        "cycles": cycles,
        "sim": {
            "scalar_seconds": t_scalar,
            "bits_seconds": t_bits,
            "speedup": t_scalar / max(t_bits, 1e-12),
            "bits_lane_cycles_per_s": lane_cycles / max(t_bits, 1e-12),
            "scalar_lane_cycles_per_s": lane_cycles / max(t_scalar, 1e-12),
        },
        "check": {
            "scalar_seconds": _median(gate_scalar),
            "bits_seconds": _median(gate_bits),
            "speedup": _median(gate_scalar) / max(_median(gate_bits), 1e-12),
            "equivalent": check_bits.equivalent,
            "verdicts_identical": True,
        },
    }


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def bench_fuzz(cycles: int) -> dict[str, object]:
    from repro.verify import fuzz_run

    t0 = time.perf_counter()
    report = fuzz_run(rounds=3, seed=0, cycles=cycles)
    pipeline_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    mutation = fuzz_run(rounds=3, seed=0, cycles=cycles, mutate=True)
    mutation_s = time.perf_counter() - t0
    return {
        "pipeline": {
            "rounds": report.rounds,
            "failures": len(report.failures),
            "seconds": pipeline_s,
        },
        "mutation": {
            "rounds": mutation.rounds,
            "confirmed": mutation.confirmed,
            "killed": mutation.killed,
            "kill_rate": mutation.kill_rate,
            "seconds": mutation_s,
        },
    }


def run_bench(quick: bool = False) -> dict[str, object]:
    designs = QUICK_DESIGNS if quick else FULL_DESIGNS
    scale = 0.2 if quick else 0.3
    cycles = 24 if quick else 48
    repeats = 2 if quick else 3
    rows = {
        name: bench_design(name, scale, cycles, repeats) for name in designs
    }
    sims = [row["sim"] for row in rows.values()]
    aggregate = {
        "speedup_min": min(s["speedup"] for s in sims),
        "speedup_median": _median([s["speedup"] for s in sims]),
        "scalar_seconds": sum(s["scalar_seconds"] for s in sims),
        "bits_seconds": sum(s["bits_seconds"] for s in sims),
    }
    aggregate["speedup_total"] = aggregate["scalar_seconds"] / max(
        aggregate["bits_seconds"], 1e-12
    )
    return {
        "meta": {
            "quick": quick,
            "scale": scale,
            "cycles": cycles,
            "repeats": repeats,
            "designs": designs,
            "python": platform.python_version(),
            "min_speedup": MIN_SPEEDUP,
        },
        "designs": rows,
        "aggregate": aggregate,
        "fuzz": bench_fuzz(cycles),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    report = run_bench(quick=args.quick)
    print(json.dumps(report, indent=2))
    speedup = report["aggregate"]["speedup_total"]
    if speedup < MIN_SPEEDUP:
        print(
            f"kernel speedup {speedup:.1f}x below the {MIN_SPEEDUP:.0f}x "
            "floor",
            file=sys.stderr,
        )
        return 1
    print(f"kernel speedup {speedup:.1f}x (floor {MIN_SPEEDUP:.0f}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

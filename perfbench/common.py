"""Helpers shared by the workloads: statistics, host probe, memory, output."""

from __future__ import annotations

import json
import resource
import statistics
import time
from pathlib import Path

#: repository root (this file lives in ``<root>/perfbench``)
ROOT = Path(__file__).resolve().parent.parent
#: run records, traces and server logs; ignored by git
OUT = ROOT / "perfbench" / "out"


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in 0..100) of *values*."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def host_probe(repeats: int = 7) -> float:
    """Median seconds of a fixed pure-Python loop: the host's speed now.

    Stored beside the metrics so a slow run can be traced to the host
    rather than to the program.
    """
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def self_peak_rss_mb() -> float:
    """Peak resident set size of this process in MB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of process *pid* in MB, 0 if gone."""
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0.0
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def child_pids(pid: int) -> list[int]:
    """Direct children of *pid* (all its threads)."""
    children: list[int] = []
    for task in Path(f"/proc/{pid}/task").glob("*"):
        try:
            children += [int(c) for c in (task / "children").read_text().split()]
        except OSError:
            continue
    return sorted(set(children))


def write_record(name: str, record: dict) -> Path:
    """Write one run's full record (metrics, host probe, failures) as JSON."""
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{name}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True))
    return path

"""The ``serve`` workload: seeded traffic through ``mcretime serve``.

The server runs as its own process with its default worker count.  One
load-generator process (this one) drives it in a closed loop from two
callers, each on a keep-alive ``RetimeClient`` connection.  The request
list is fixed from the seed before the run:

* 20 % cold: new multi-class designs from ``random_spec``;
* 20 % ECO: ``{base_key, edit}`` truth-table retypes of one LUT in an
  earlier cold design (the edit kind docs/ECO.md keeps warm);
* 60 % exact resubmissions of an earlier request: result-cache hits.

A hit or an edit names only a request that has completed (its caller
waits for it; the wait is not part of its latency).  Results are keyed
by list index, never by completion order.  Everything about the server
is measured from outside: client timings, ``GET /metrics`` before and
after, and the returned job records.
"""

from __future__ import annotations

import http.client
import itertools
import math
import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

from common import OUT, ROOT, child_pids, proc_peak_rss_mb

CALLERS = 2
#: a request names only requests at least this many list places back
REF_GAP = 4
#: each cold design is edited once and resubmitted twice; each edit is
#: resubmitted once: 20 % cold, 20 % ECO, 60 % hits
COLD_HITS, ECO_HITS = 2, 1
OPTIONS = {"delay_model": "xc4000e", "wait": True}
#: stage timings the workers return in ``metrics.timings``
WORKER_STAGES = (
    "build", "bounds", "sharing", "minperiod", "minarea", "relocate",
    "eco.diff", "eco.patch", "eco.resolve",
)


@dataclass
class Request:
    kind: str  # "cold" | "eco" | "hit"
    #: eco: the cold request edited; hit: the request repeated
    ref: int | None = None
    netlist: str | None = None
    edit: list | None = None


def cold_count(seconds: float) -> int:
    """Cold designs per list (a fifth of the list): at least 40, so the
    list has 200 requests and p95 has ten samples beyond it."""
    return max(40, round(seconds * 4 / 3))


def build_requests(seed: int, n_cold: int) -> list[Request]:
    """The seeded request list (same seed and size, same list).

    The cold designs are the pinned ``random_spec(1..n_cold)`` at every
    seed, and every list solves each of them once, edits each once and
    repeats them in the same proportions, so every seed does the same
    work.  Drawing fresh designs per seed moved ``ops_per_s`` by 19 %
    and p95 by 40 % (quartile spread over five seeds).  The seed picks
    the order of the list and which LUT each edit retypes.
    """
    from repro.netlist import GateFn, read_blif, write_blif
    from repro.synth import generate
    from repro.verify.fuzz import random_spec

    rng = random.Random(f"serve:{seed}")
    colds = [write_blif(generate(random_spec(k)).circuit) for k in range(1, n_cold + 1)]
    rng.shuffle(colds)
    # tokens not yet placed: (kind, cold design, hit of an edit?)
    pending = [("cold", c, False) for c in range(n_cold)]
    pending += [("eco", c, False) for c in range(n_cold)]
    pending += [("hit", c, False) for c in range(n_cold) for _ in range(COLD_HITS)]
    pending += [("hit", c, True) for c in range(n_cold) for _ in range(ECO_HITS)]
    placed: dict[tuple[str, int], int] = {}  # ("cold"|"eco", design) -> index
    requests: list[Request] = []
    while pending:
        i = len(requests)

        def ready(token, gap):
            kind, c, of_edit = token
            if kind == "cold":
                return True
            dep = ("eco" if of_edit else "cold", c)
            return dep in placed and placed[dep] <= i - gap

        eligible = [t for t in pending if ready(t, REF_GAP)] or [t for t in pending if ready(t, 1)]
        token = rng.choice(eligible)
        pending.remove(token)
        kind, c, of_edit = token
        if kind == "cold":
            placed["cold", c] = i
            requests.append(Request("cold", netlist=colds[c]))
        elif kind == "eco":
            placed["eco", c] = i
            luts = sorted(
                (g.name, len(g.inputs), g.table)
                for g in read_blif(colds[c]).gates.values()
                if g.fn is GateFn.LUT and g.inputs
            )
            # names as the server parses them: from the submitted text
            name, width, table = rng.choice(luts)
            flipped = table ^ (1 << rng.randrange(1 << width))
            edit = [{"op": "retype_gate", "name": name, "fn": "lut", "table": flipped}]
            requests.append(Request("eco", ref=placed["cold", c], edit=edit))
        else:
            requests.append(Request("hit", ref=placed["eco" if of_edit else "cold", c]))
    return requests


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _group_alive(pgid: int) -> bool:
    """Whether any non-zombie process is left in process group *pgid*."""
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            return True
    return False


class Server:
    """``mcretime serve`` in its own process group, logging under ``out/``."""

    def __init__(self, traced: bool = False) -> None:
        self.port = _free_port()
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        )
        if traced:
            # workers trace each job in memory; counters ride back in
            # the job record's metrics["obs"]
            env["REPRO_TRACE_SPANS"] = "1"
        OUT.mkdir(parents=True, exist_ok=True)
        self._log = open(OUT / f"server-{self.port}.log", "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.tools.cli", "serve",
             "--host", "127.0.0.1", "--port", str(self.port)],
            cwd=ROOT, env=env, stdout=self._log, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        self.url = f"http://127.0.0.1:{self.port}"

    def wait_healthy(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with {self.proc.returncode}; see {self._log.name}")
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=2)
            try:
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                response.read()
                if response.status == 200:
                    return
            except OSError:
                pass
            finally:
                conn.close()
            if time.monotonic() > deadline:
                raise RuntimeError("server did not become healthy")
            time.sleep(0.01)

    def peak_rss_mb(self) -> float:
        """Peak RSS of the server plus its worker processes."""
        pid = self.proc.pid
        return proc_peak_rss_mb(pid) + sum(proc_peak_rss_mb(c) for c in child_pids(pid))

    def stop(self) -> None:
        """Interrupt the server (it shuts its pool down) and wait for the group."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self._kill_group()
                self.proc.wait()
        deadline = time.monotonic() + 30
        while _group_alive(self.proc.pid):
            if time.monotonic() > deadline:
                self._kill_group()
                deadline = time.monotonic() + 30
            time.sleep(0.05)
        self._log.close()

    def _kill_group(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


@dataclass
class Outcome:
    latency: float | None = None
    sent: float = 0.0
    replied: float = 0.0
    record: dict | None = None
    error: str | None = None


def _body(requests: list[Request], outcomes: list[Outcome], i: int) -> dict:
    req = requests[i]
    if req.kind == "hit":
        return _body(requests, outcomes, req.ref)
    if req.kind == "eco":
        return {"netlist": None, "base_key": outcomes[req.ref].record["design_key"],
                "edit": req.edit}
    return {"netlist": req.netlist}


def _ok(outcome: Outcome | None) -> bool:
    return (
        outcome is not None and outcome.error is None
        and outcome.record is not None and outcome.record.get("state") == "done"
    )


def run_load(url: str, requests: list[Request]) -> tuple[list[Outcome], float]:
    """Send the whole list from :data:`CALLERS` closed-loop callers."""
    from repro.service import RetimeClient

    outcomes: list[Outcome | None] = [None] * len(requests)
    done = [threading.Event() for _ in requests]
    order = itertools.count()
    lock = threading.Lock()

    def send(client, i: int) -> Outcome:
        ref = requests[i].ref
        if ref is not None:
            done[ref].wait(timeout=300)
            if not _ok(outcomes[ref]):
                return Outcome(error=f"depends on failed request {ref}")
        body = _body(requests, outcomes, i)
        out = Outcome(sent=time.perf_counter())
        try:
            out.record = client.retime(body.pop("netlist"), **body, **OPTIONS)
        except Exception as exc:  # refused or failed: counted, never fatal
            out.error = f"{type(exc).__name__}: {str(exc)[:160]}"
        out.replied = time.perf_counter()
        out.latency = out.replied - out.sent
        return out

    def caller() -> None:
        with RetimeClient(url, timeout=300) as client:
            while True:
                with lock:
                    i = next(order)
                if i >= len(requests):
                    return
                try:
                    outcomes[i] = send(client, i)
                except Exception as exc:
                    outcomes[i] = Outcome(error=f"{type(exc).__name__}: {exc}")
                finally:
                    done[i].set()

    threads = [threading.Thread(target=caller, daemon=True) for _ in range(CALLERS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=170)
    if any(t.is_alive() for t in threads):
        raise RuntimeError("load generator did not finish")
    sent = [o.sent for o in outcomes if o.latency is not None]
    replied = [o.replied for o in outcomes if o.latency is not None]
    wall = max(replied) - min(sent) if sent else 0.0
    return outcomes, wall


def check(requests: list[Request], outcomes: list[Outcome], seed: int):
    """Failure reasons by index, plus the quality sums over every output.

    Solved outputs must refine their input (for ECO: the base with the
    edit applied); a hit must repeat the bytes of the request it repeats.
    """
    from repro.eco import apply_edit_script
    from repro.netlist import circuit_stats, read_blif
    from repro.timing import XC4000E_DELAY, analyze
    from repro.verify import check_sequential

    failures: dict[int, str] = {}
    measured: dict[str, tuple[int, int, float]] = {}
    registers = luts = 0
    delays = []
    for i, (req, out) in enumerate(zip(requests, outcomes)):
        if out.error is not None:
            failures[i] = out.error
            continue
        if out.record.get("state") != "done":
            error = (out.record.get("result") or {}).get("error") or {}
            failures[i] = f"job {out.record.get('state')}: {error.get('type')}"
            continue
        text = out.record["result"]["output"]
        if req.kind == "hit":
            if text != outcomes[req.ref].record["result"]["output"]:
                failures[i] = "hit differs from the request it repeats"
        else:
            source = read_blif(requests[req.ref if req.kind == "eco" else i].netlist)
            if req.kind == "eco":
                source = apply_edit_script(source, req.edit)
            if not check_sequential(source, read_blif(text), cycles=64, seed=seed).equivalent:
                failures[i] = "output fails refinement check"
        if text not in measured:
            circuit = read_blif(text)
            stats = circuit_stats(circuit)
            measured[text] = (stats.n_ff, stats.n_lut, analyze(circuit, XC4000E_DELAY).max_delay)
        ff, lut, delay = measured[text]
        registers += ff
        luts += lut
        delays.append(delay)
    return failures, registers, luts, math.fsum(delays)


def scrape(url: str) -> dict[str, float]:
    """``GET /metrics`` as ``{sample name with labels: value}``."""
    from repro.service import RetimeClient

    values: dict[str, float] = {}
    with RetimeClient(url) as client:
        for line in client.metrics_text().splitlines():
            if not line or line.startswith("#"):
                continue
            sample = line.split(" # ")[0].split()
            values[sample[0]] = float(sample[1])
    return values


def _delta(before: dict, after: dict, name: str) -> float:
    """Change of every sample of metric *name* (all label sets summed)."""
    def total(values):
        return sum(v for k, v in values.items() if k == name or k.startswith(name + "{"))
    return total(after) - total(before)


def rtt(url: str, probes: int = 31) -> float:
    """Median ``GET /healthz`` round trip on one keep-alive connection."""
    from repro.service import RetimeClient

    times = []
    with RetimeClient(url) as client:
        for _ in range(probes):
            t0 = time.perf_counter()
            client.healthz()
            times.append(time.perf_counter() - t0)
    return median(times)


def layer_metrics(outcomes: list[Outcome], before: dict, after: dict):
    """The service-side per-layer numbers, measured from outside.

    Returns the service metrics, the program counters summed over the
    executed (not cached) jobs, how many of those jobs needed a
    clamp-and-resolve, and how many jobs executed.
    """
    executed = [
        o.record["result"] for o in outcomes
        if _ok(o) and not o.record.get("cached")
    ]
    hits, misses = (_delta(before, after, f"repro_cache_{k}_total") for k in ("hits", "misses"))
    waits = _delta(before, after, "repro_queue_wait_seconds_count")
    dispatched = _delta(before, after, "repro_shard_dispatched_total")
    plans = {"reuse": 0, "resolve": 0, "cold": 0}
    stages = dict.fromkeys(WORKER_STAGES, 0.0)
    counters: dict[str, float] = {}
    resolved = 0
    for result in executed:
        metrics = result.get("metrics") or {}
        plan = (metrics.get("eco") or {}).get("plan")
        if plan in plans:
            plans[plan] += 1
        for stage, seconds in (metrics.get("timings") or {}).items():
            if stage in stages:
                stages[stage] += seconds
        job_counters = (metrics.get("obs") or {}).get("counters") or {}
        for key, value in job_counters.items():
            counters[key] = counters.get(key, 0) + value
        if job_counters.get("relocate.conflicts", 0) + job_counters.get("relocate.deadlocks", 0):
            resolved += 1
    eco_jobs = sum(plans.values())
    out = {
        "service.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "service.queue_wait_s": (
            _delta(before, after, "repro_queue_wait_seconds_sum") / waits if waits else 0.0
        ),
        "service.stolen_share": (
            _delta(before, after, "repro_jobs_stolen_total") / dispatched if dispatched else 0.0
        ),
        "service.jobs_retried": _delta(before, after, "repro_jobs_retried_total"),
        "service.jobs_failed": _delta(before, after, "repro_jobs_failed_total"),
        "service.jobs_shed": _delta(before, after, "repro_jobs_shed_total"),
        "eco.warm_share": (plans["reuse"] + plans["resolve"]) / eco_jobs if eco_jobs else 0.0,
    }
    out.update({f"eco.plan.{plan}": count for plan, count in plans.items()})
    out.update({f"service.worker.{stage}.busy_s": s for stage, s in stages.items()})
    return out, counters, resolved, len(executed)

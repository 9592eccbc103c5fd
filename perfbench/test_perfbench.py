"""The benchmark's own tests.

    PYTHONPATH=src python -m pytest perfbench/test_perfbench.py -q

A short pass of ``tables`` and of ``throughput`` runs twice in this
process and again in a fresh one with another hash seed: registers,
LUTs, period, the set of failed operations and the program counters
must repeat exactly.  The rest checks the request list of ``serve``,
the traced-run guard and the metric list in ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import batch  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import served  # noqa: E402

#: a short pass: the small designs plus C9, whose output fails its check
SHORT = {
    "tables": ("C1", "C2", "C3", "C5", "C8", "C9"),
    "throughput": ("NTT4/pipeline", "NTT4/cslow", "MAC6/pipeline", "MAC6/cslow"),
}


def short_pass_summary(workload: str, seed: int = 0) -> list[dict]:
    """Two traced passes of the short operation list, as comparable dicts."""
    ops = [op for op in batch.setup(workload, seed) if op.name in SHORT[workload]]
    recorder = layers.Recorder()
    recorder.install()
    try:
        passes = batch.run_passes(ops, seed, 2, recorder=recorder)
    finally:
        recorder.uninstall()
    return [
        {
            "registers": p.registers,
            "luts": p.luts,
            "period_ns": p.period_ns,
            "failed": sorted(p.failures),
            "counters": p.counters,
        }
        for p in passes
    ]


@pytest.mark.parametrize("workload", ["tables", "throughput"])
def test_short_pass_repeats_exactly(workload):
    first, second = short_pass_summary(workload)
    assert first == second
    env = dict(os.environ, PYTHONHASHSEED="4242")
    out = subprocess.run(
        [sys.executable, __file__, workload], capture_output=True, text=True,
        cwd=ROOT, env=env, timeout=600, check=True,
    )
    assert json.loads(out.stdout.splitlines()[-1]) == json.loads(json.dumps(first))
    if workload == "tables":
        assert first["failed"] == ["C9"]
        assert first["counters"]["minarea.rounds"] > 0
    else:
        assert first["failed"] == []
        assert "minarea.rounds" not in first["counters"]
        assert first["counters"]["verify.lane_cycles"] > 0


def test_serve_requests_are_seeded():
    a = served.build_requests(7, 40)
    assert a == served.build_requests(7, 40)
    assert a != served.build_requests(8, 40)
    kinds = [r.kind for r in a]
    assert (kinds.count("cold"), kinds.count("eco"), kinds.count("hit")) == (40, 40, 120)
    assert kinds[0] == "cold"
    edited = sorted(r.ref for r in a if r.kind == "eco")
    assert edited == [i for i, k in enumerate(kinds) if k == "cold"]
    for i, r in enumerate(a):
        if r.ref is not None:
            assert r.ref < i
            allowed = ("cold",) if r.kind == "eco" else ("cold", "eco")
            assert a[r.ref].kind in allowed


def test_eco_edit_applies_to_its_base():
    from repro.eco import apply_edit_script, diff_circuits
    from repro.netlist import read_blif

    requests = served.build_requests(3, 40)
    eco = next(r for r in requests if r.kind == "eco")
    base = read_blif(requests[eco.ref].netlist)
    diff = diff_circuits(base, apply_edit_script(base, eco.edit))
    assert diff.topology_preserving


def test_guard_names_a_missing_entry_point(monkeypatch):
    monkeypatch.setitem(layers.ENTRY_POINTS, "retime.min_area", ("repro.mcretime.engine:no_such_fn",))
    recorder = layers.Recorder()
    with pytest.raises(layers.GuardError, match="retime.min_area"):
        recorder.install()
    import repro.mcretime.engine as engine

    assert not hasattr(engine.min_period, "__wrapped__")


def test_guard_names_a_silent_entry_point():
    with pytest.raises(layers.GuardError, match="retime.min_area"):
        layers.layer_metrics(layers.Recorder(), ("retime.min_area",))


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.per_layer_units()


def test_refuses_to_run_without_the_program():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for name in ("run.py", "common.py", "batch.py", "served.py", "layers.py"):
        shutil.copy(HERE / name, bare / "perfbench")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tables", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=bare, env=env, timeout=180,
    )
    shutil.rmtree(bare)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


if __name__ == "__main__":
    print(json.dumps(short_pass_summary(sys.argv[1])[0]))

"""The sampling profiler: determinism off, flame data on."""

import json
import threading
import time

from repro import obs
from repro.obs.profile import Profile, SamplingProfiler


def _spin(seconds: float) -> int:
    """A recognisable CPU-bound leaf frame for the sampler to catch."""
    deadline = time.perf_counter() + seconds
    n = 0
    while time.perf_counter() < deadline:
        n += 1
    return n


def _sampler_alive() -> bool:
    return any(t.name == "repro-obs-sampler" for t in threading.enumerate())


STACK = (("outer", "/x/f.py", 1), ("inner", "/x/f.py", 5))


class TestProfileData:
    def test_empty(self):
        p = Profile({}, interval=0.01, duration=0.0, ticks=0)
        assert p.n_samples == 0
        assert p.collapsed() == ""
        scope = p.speedscope()
        assert scope["$schema"].startswith("https://www.speedscope.app")
        assert scope["profiles"][0]["samples"] == []

    def test_aggregations(self):
        p = Profile(
            {(None, STACK): 2, ("my.span", STACK[:1]): 1},
            interval=0.01,
            duration=0.05,
            ticks=3,
        )
        assert p.n_samples == 3
        assert p.by_span() == {"(no span)": 2, "my.span": 1}
        assert p.by_function()["f.inner"] == 2
        assert {"f.outer", "f.inner"} <= p.functions_seen()

    def test_collapsed_span_roots(self):
        p = Profile(
            {("abc", STACK[:1]): 4}, interval=0.01, duration=0.1, ticks=4
        )
        assert p.collapsed(spans=True).splitlines()[0] == "span:abc;f.outer 4"
        assert p.collapsed(spans=False).splitlines()[0] == "f.outer 4"

    def test_speedscope_weights_are_seconds(self):
        p = Profile(
            {(None, STACK[:1]): 3}, interval=0.25, duration=1.0, ticks=3
        )
        scope = p.speedscope()
        prof = scope["profiles"][0]
        assert prof["weights"] == [0.75]
        assert prof["endValue"] == 0.75
        frame = scope["shared"]["frames"][prof["samples"][0][0]]
        assert frame["name"] == "f.outer"

    def test_write_by_extension(self, tmp_path):
        p = Profile(
            {(None, STACK[:1]): 1}, interval=0.01, duration=0.01, ticks=1
        )
        p.write(tmp_path / "flame.collapsed")
        p.write(tmp_path / "flame.json")
        assert "f.outer 1" in (tmp_path / "flame.collapsed").read_text()
        scope = json.loads((tmp_path / "flame.json").read_text())
        assert scope["profiles"][0]["type"] == "sampled"


class TestSampler:
    def test_catches_busy_function(self):
        profiler = SamplingProfiler(interval=0.002).start()
        _spin(0.15)
        profile = profiler.stop()
        assert profile.n_samples > 10
        assert any(
            label.endswith("._spin") for label in profile.functions_seen()
        )

    def test_span_attribution(self):
        profiler = SamplingProfiler(interval=0.002).start()
        obs.start()
        try:
            with obs.span("hot.zone"):
                _spin(0.12)
        finally:
            obs.stop()
        profile = profiler.stop()
        assert profile.by_span().get("hot.zone", 0) > 5

    def test_stop_is_idempotent_and_joins(self):
        profiler = SamplingProfiler(interval=0.005).start()
        _spin(0.02)
        profiler.stop()
        profiler.stop()
        assert not _sampler_alive()


class TestDeterminism:
    def test_disabled_profiler_zero_samples_and_identical_results(self):
        """No profiler => no sampler thread alive, and a profiled run
        retimes to the bit-identical netlist (sampling reads interpreter
        state from outside; it must never perturb the algorithm)."""
        from repro.mcretime import mc_retime
        from repro.netlist import write_blif
        from repro.synth import build_design
        from repro.timing import XC4000E_DELAY

        circuit = build_design("C1", 0.2).circuit
        assert not _sampler_alive()
        plain = mc_retime(circuit, XC4000E_DELAY)

        profiler = SamplingProfiler(interval=0.002).start()
        profiled = mc_retime(circuit, XC4000E_DELAY)
        profile = profiler.stop()

        assert write_blif(plain.circuit) == write_blif(profiled.circuit)
        assert plain.period_after == profiled.period_after
        assert profile.n_samples > 0

    def test_kernel_hot_loops_in_flame_data(self):
        """The retiming engine's hot loops dominate the flame data (the
        profile is useful, not just nonempty)."""
        from repro.mcretime import mc_retime
        from repro.synth import build_design
        from repro.timing import XC4000E_DELAY

        circuit = build_design("C3", 0.3).circuit
        profiler = SamplingProfiler(interval=0.001).start()
        mc_retime(circuit, XC4000E_DELAY)
        profile = profiler.stop()
        assert profile.n_samples > 0
        seen = profile.functions_seen()
        hot_modules = {"minperiod", "minarea", "delta", "feas", "mcf",
                       "diffsys", "compiled_graph", "sta", "engine",
                       "mcretime"}
        assert any(
            label.split(".")[0] in hot_modules for label in seen
        ), sorted(seen)


class TestSessionIntegration:
    def test_session_profile_written(self, tmp_path):
        out = tmp_path / "profile.json"
        with obs.session(profile=out, profile_interval=0.002):
            _spin(0.08)
        assert not _sampler_alive()
        scope = json.loads(out.read_text())
        names = {f["name"] for f in scope["shared"]["frames"]}
        assert any(name.endswith("._spin") for name in names)

    def test_profile_block_all_threads(self):
        stop = threading.Event()

        def busy():
            while not stop.is_set():
                _spin(0.01)

        worker = threading.Thread(target=busy, daemon=True)
        worker.start()
        try:
            profile = obs.profile_block(0.1, interval=0.005)
        finally:
            stop.set()
            worker.join(timeout=2)
        assert profile.n_samples > 0
        assert not _sampler_alive()

"""CLI-level tests: ``mcretime batch``, error diagnostics, reports."""

from pathlib import Path

import pytest

from repro.tools.cli import main

DATA = Path(__file__).resolve().parent.parent / "data"


@pytest.fixture()
def design_dir(tmp_path):
    src = tmp_path / "designs"
    src.mkdir()
    for name in ("c2_small", "c3_small"):
        (src / f"{name}.blif").write_text((DATA / f"{name}.blif").read_text())
    return src


class TestBatch:
    def test_batch_matches_serial_cli(self, design_dir, tmp_path, capsys):
        serial_dir = tmp_path / "serial"
        serial_dir.mkdir()
        for path in sorted(design_dir.iterdir()):
            assert main([str(path), "-o", str(serial_dir / path.name)]) == 0

        out_dir = tmp_path / "batch"
        assert main([
            "batch", str(design_dir), "-o", str(out_dir), "--workers", "4",
        ]) == 0
        out = capsys.readouterr().out
        assert "2 jobs" in out and "0 failed" in out
        for path in sorted(design_dir.iterdir()):
            assert (
                (out_dir / path.name).read_bytes()
                == (serial_dir / path.name).read_bytes()
            )

    def test_warm_cache_rerun(self, design_dir, tmp_path, capsys):
        cache = tmp_path / "cache"
        args = [
            "batch", str(design_dir), "-o", str(tmp_path / "out1"),
            "--workers", "2", "--cache-dir", str(cache),
        ]
        assert main(args) == 0
        capsys.readouterr()
        metrics_out = tmp_path / "metrics.txt"
        assert main([
            "batch", str(design_dir), "-o", str(tmp_path / "out2"),
            "--workers", "2", "--cache-dir", str(cache),
            "--metrics-out", str(metrics_out),
        ]) == 0
        out = capsys.readouterr().out
        assert "cache hit rate 100%" in out
        assert "[cached]" in out
        text = metrics_out.read_text()
        assert "repro_cache_hits_total 2" in text
        assert "repro_cache_misses_total 0" in text

    def test_batch_rejects_malformed_input_upfront(self, tmp_path, capsys):
        bad = tmp_path / "bad.blif"
        bad.write_text(".model x\ngarbage\n.end\n")
        assert main(["batch", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "mcretime: error" in err and "bad.blif" in err

    def test_batch_empty_dir(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["batch", str(empty)]) == 1
        assert "no netlists found" in capsys.readouterr().err


class TestDiagnostics:
    """Satellite: malformed inputs exit 1 with a one-line message."""

    def test_parse_error_one_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.blif"
        bad.write_text(".model x\n.names a b\nnot-a-cover\n.end\n")
        assert main([str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("mcretime: error:")
        assert len(err.strip().splitlines()) == 1

    def test_missing_file_one_line(self, tmp_path, capsys):
        assert main([str(tmp_path / "absent.blif")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("mcretime: error:")
        assert "absent.blif" in err

    def test_validation_error_one_line(self, tmp_path, capsys):
        bad = tmp_path / "undriven.blif"
        bad.write_text(
            ".model x\n.inputs a\n.outputs y\n.names a miss y\n11 1\n.end\n"
        )
        assert main([str(bad)]) == 1
        err = capsys.readouterr().err
        assert "undriven" in err


class TestRejectionReport:
    """Satellite: --report surfaces accepted=False instead of silently
    printing baseline numbers."""

    def test_rejected_retiming_is_reported(self, tmp_path, capsys, monkeypatch):
        from repro.flows import script

        real_measure = script.measure

        def slower_remap(circuit, model, **fields):
            # the flow measures the remapped netlist with no extra
            # fields (the mapped base carries its timings): make full
            # STA regress on it so the flow keeps the mapped base
            flow = real_measure(circuit, model, **fields)
            if not fields:
                flow.delay += 100.0
            return flow

        monkeypatch.setattr(script, "measure", slower_remap)
        design = tmp_path / "design.blif"
        design.write_text((DATA / "c2_small.blif").read_text())
        assert main([str(design), "--map", "--report"]) == 0
        out = capsys.readouterr().out
        assert "retiming rejected" in out
        assert "REJECTED" in out

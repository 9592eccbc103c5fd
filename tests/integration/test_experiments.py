"""Integration tests: the experiment regenerators at reduced scale."""

import pytest

from repro.experiments import figures, table1, table2, table3
from repro.experiments.runner import main
from repro.logic.ternary import T0, T1

SCALE = 0.3
NAMES = ["C1", "C3", "C5"]


@pytest.fixture(scope="module")
def t1():
    return table1.run(SCALE, NAMES)


@pytest.fixture(scope="module")
def t2(t1):
    _, flows = t1
    return table2.run(SCALE, NAMES, baselines=flows)


class TestTable1:
    def test_rows_in_order(self, t1):
        rows, _ = t1
        assert [r.name for r in rows] == NAMES
        assert all(r.n_ff > 0 and r.n_lut > 0 for r in rows)

    def test_flags_match_specs(self, t1):
        rows, _ = t1
        by_name = {r.name: r for r in rows}
        assert by_name["C1"].has_async and by_name["C1"].has_enable
        assert not by_name["C3"].has_async

    def test_totals(self, t1):
        rows, _ = t1
        total = table1.totals(rows)
        assert total.n_ff == sum(r.n_ff for r in rows)
        assert total.delay == pytest.approx(sum(r.delay for r in rows))

    def test_as_dict_columns(self, t1):
        rows, _ = t1
        d = rows[0].as_dict()
        assert list(d) == ["Name", "AS/AC", "EN", "#FF", "#LUT", "Delay"]


class TestTable2:
    def test_ratios_consistent(self, t1, t2):
        t1_rows, _ = t1
        rows, _ = t2
        by1 = {r.name: r for r in t1_rows}
        for row in rows:
            assert row.rlut == pytest.approx(
                row.n_lut / by1[row.name].n_lut, rel=1e-6
            )
            assert row.rdelay == pytest.approx(
                row.delay / by1[row.name].delay, rel=1e-6
            )

    def test_steps_and_classes(self, t2):
        rows, _ = t2
        for row in rows:
            assert row.steps_possible >= row.steps_moved >= 0
            assert row.n_classes >= 1

    def test_prose_stats(self, t2):
        rows, _ = t2
        for row in rows:
            assert 0.0 <= row.local_fraction <= 1.0
            assert row.cpu_seconds > 0

    def test_never_slower(self, t2):
        rows, _ = t2
        for row in rows:
            assert row.rdelay <= 1.05


class TestTable3:
    def test_rows_and_ratios(self, t1, t2):
        t1_rows, _ = t1
        t2_rows, _ = t2
        rows = table3.run(SCALE, NAMES, t1_rows, t2_rows)
        assert {r.name for r in rows} == set(NAMES)
        for row in rows:
            assert row.n_ff > 0 and row.n_lut > 0
            assert row.rlut1 > 0 and row.rdelay2 > 0
        totals = table3.totals(rows)
        assert totals["#FF"] == sum(r.n_ff for r in rows)


class TestFigures:
    def test_figure1_matches_paper(self):
        f = figures.figure1()
        assert f.original_ff == 2
        assert f.mc_ff == 1  # circuit b): one shared EN register
        assert f.retimed_decomposed_ff == 3
        assert f.mc_advantage_ff == 2  # paper: two registers
        assert f.mc_advantage_gates == 2  # paper: two multiplexors

    def test_figure4_matches_paper(self):
        f = figures.figure4()
        assert f.naive_count == 2  # the under-estimate
        assert f.true_count == 3  # actual multi-class cost
        assert f.corrected_count == 3  # our model's estimate
        assert f.separations == 1

    def test_figure5_matches_paper(self):
        f = figures.figure5()
        assert f.global_steps == 1
        assert f.local_steps == 2
        assert f.equivalent
        assert f.final_values == {"x1": T1, "x2": T1, "x3": T0}


class TestRunner:
    def test_cli_figures_only(self, capsys):
        assert main(["--only", "figures"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out and "Figure 4" in out and "Figure 5" in out

    def test_cli_small_tables(self, capsys):
        assert main(["--scale", "0.2", "--designs", "C3", "--only", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "C3" in out

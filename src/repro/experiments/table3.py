"""Table 3: retiming results *without* using load-enable inputs.

A command decomposing every register's EN pin into a D-side hold
multiplexer is prepended to the script (paper Sec. 6, second
experiment); retiming then runs on the decomposed design.  Columns:
Name, #FF, #LUT, Delay, Rlut1/Rdelay1 (vs Table 1 — the unretimed
original) and Rlut2/Rdelay2 (vs Table 2 — mc-retiming with enables).

The paper's headline: decomposing enables yields circuits 21 % faster
than the originals but with 17 % more registers and 10 % more LUTs,
while mc-retiming with enables preserved achieves 22 % faster with only
10 % more registers and 3 % *fewer* LUTs.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..flows import decomposed_enable_flow
from ..synth import build_design
from ..timing import XC4000E_DELAY
from . import table1, table2


@dataclass
class Table3Row:
    """One design's EN-decomposed retiming results."""

    name: str
    n_ff: int
    n_lut: int
    delay: float
    rlut1: float
    rdelay1: float
    rlut2: float
    rdelay2: float

    def as_dict(self) -> dict[str, object]:
        return {
            "Name": self.name,
            "#FF": self.n_ff,
            "#LUT": self.n_lut,
            "Delay": self.delay,
            "Rlut1": self.rlut1,
            "Rdelay1": self.rdelay1,
            "Rlut2": self.rlut2,
            "Rdelay2": self.rdelay2,
        }


def row(
    name: str,
    metrics: dict,
    t1_row: table1.Table1Row,
    t2_row: table2.Table2Row,
) -> Table3Row:
    """One design's row from its ``decomposed_enable`` flow metrics
    (:meth:`FlowResult.metrics` or a served job's)."""
    final = metrics["final"]
    return Table3Row(
        name=name,
        n_ff=final["n_ff"],
        n_lut=final["n_lut"],
        delay=final["delay"],
        rlut1=final["n_lut"] / max(t1_row.n_lut, 1),
        rdelay1=final["delay"] / max(t1_row.delay, 1e-9),
        rlut2=final["n_lut"] / max(t2_row.n_lut, 1),
        rdelay2=final["delay"] / max(t2_row.delay, 1e-9),
    )


def run_design(
    name: str,
    t1_row: table1.Table1Row,
    t2_row: table2.Table2Row,
    scale: float = 1.0,
) -> Table3Row:
    """EN-decomposed retime flow for one design."""
    design = build_design(name, scale)
    flow = decomposed_enable_flow(design.circuit, XC4000E_DELAY)
    return row(name, flow.metrics(), t1_row, t2_row)


def run(
    scale: float = 1.0,
    names: list[str] | None = None,
    t1_rows: list[table1.Table1Row] | None = None,
    t2_rows: list[table2.Table2Row] | None = None,
) -> list[Table3Row]:
    """Regenerate Table 3 (recomputing Tables 1/2 if not supplied)."""
    if t1_rows is None or t2_rows is None:
        t2_rows, flows = table2.run(scale, names)
        t1_rows = [
            table1.row(name, flow.metrics())
            for name, flow in flows.items()
            if names is None or name in names
        ]
    by_name1 = {r.name: r for r in t1_rows}
    return [
        run_design(r.name, by_name1[r.name], r, scale) for r in t2_rows
    ]


def totals(rows: list[Table3Row]) -> dict[str, object]:
    """Aggregate Totals row (ratio columns are recomputed from sums)."""
    n_lut = sum(r.n_lut for r in rows)
    delay = sum(r.delay for r in rows)
    lut1 = sum(r.n_lut / max(r.rlut1, 1e-9) for r in rows)
    d1 = sum(r.delay / max(r.rdelay1, 1e-9) for r in rows)
    lut2 = sum(r.n_lut / max(r.rlut2, 1e-9) for r in rows)
    d2 = sum(r.delay / max(r.rdelay2, 1e-9) for r in rows)
    return {
        "Name": "Totals",
        "#FF": sum(r.n_ff for r in rows),
        "#LUT": n_lut,
        "Delay": delay,
        "Rlut1": n_lut / max(lut1, 1e-9),
        "Rdelay1": delay / max(d1, 1e-9),
        "Rlut2": n_lut / max(lut2, 1e-9),
        "Rdelay2": delay / max(d2, 1e-9),
    }

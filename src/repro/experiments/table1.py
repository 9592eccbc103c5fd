"""Table 1: circuit characteristics after optimisation and mapping.

Columns mirror the paper: Name, AS/AC, EN, #FF, #LUT, Delay, plus a
Totals row.  Delay is our STA over the XC4000E delay model (standing in
for Xilinx post-P&R timing; see DESIGN.md substitutions).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..flows import FlowResult, baseline_flow
from ..synth import DESIGN_NAMES, build_design
from ..timing import XC4000E_DELAY


@dataclass
class Table1Row:
    """One design's characteristics."""

    name: str
    has_async: bool
    has_enable: bool
    n_ff: int
    n_lut: int
    delay: float

    def as_dict(self) -> dict[str, object]:
        return {
            "Name": self.name,
            "AS/AC": "y" if self.has_async else "",
            "EN": "y" if self.has_enable else "",
            "#FF": self.n_ff,
            "#LUT": self.n_lut,
            "Delay": self.delay,
        }


def row(name: str, metrics: dict) -> Table1Row:
    """One design's row from its flow metrics (:meth:`FlowResult.metrics`
    or a served job's): the mapped design every table retimes from."""
    base = metrics["baseline"]
    return Table1Row(
        name=name,
        has_async=base["has_async"],
        has_enable=base["has_enable"],
        n_ff=base["n_ff"],
        n_lut=base["n_lut"],
        delay=base["delay"],
    )


def run_design(name: str, scale: float = 1.0) -> tuple[Table1Row, FlowResult]:
    """Baseline flow for one design; returns the row and the artifacts."""
    flow = baseline_flow(build_design(name, scale).circuit, XC4000E_DELAY)
    return row(name, flow.metrics()), flow


def run(
    scale: float = 1.0, names: list[str] | None = None
) -> tuple[list[Table1Row], dict[str, FlowResult]]:
    """Regenerate Table 1; returns rows plus the mapped designs (which
    Table 2/3 reuse so all three tables describe the same netlists)."""
    rows: list[Table1Row] = []
    flows: dict[str, FlowResult] = {}
    for name in names or DESIGN_NAMES:
        row, flow = run_design(name, scale)
        rows.append(row)
        flows[name] = flow
    return rows, flows


def totals(rows: list[Table1Row]) -> Table1Row:
    """The paper's Totals row (delay column is summed, as in the paper)."""
    return Table1Row(
        name="Totals",
        has_async=any(r.has_async for r in rows),
        has_enable=any(r.has_enable for r in rows),
        n_ff=sum(r.n_ff for r in rows),
        n_lut=sum(r.n_lut for r in rows),
        delay=sum(r.delay for r in rows),
    )

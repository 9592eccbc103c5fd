"""Table 2: multiple-class retiming results.

Columns mirror the paper: Name, #Class, #Step (moved / possible), #FF,
#LUT, Delay, Rlut, Rdelay (ratios against Table 1), plus the Sec. 6
prose statistics: the per-phase CPU split (the paper reports ≈90 %
basic retiming / 7 % relocation / 3 % mc-graph bookkeeping) and the
fraction of backward justifications resolved locally (paper: >99 %).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..flows import FlowResult, retime_flow
from ..timing import XC4000E_DELAY
from . import table1


@dataclass
class Table2Row:
    """One design's retiming results."""

    name: str
    n_classes: int
    steps_moved: int
    steps_possible: int
    n_ff: int
    n_lut: int
    delay: float
    rlut: float
    rdelay: float
    #: Sec. 6 prose statistics
    local_fraction: float
    basic_fraction: float
    relocate_fraction: float
    overhead_fraction: float
    cpu_seconds: float

    def as_dict(self) -> dict[str, object]:
        return {
            "Name": self.name,
            "#Class": self.n_classes,
            "#Step": f"{self.steps_moved}/{self.steps_possible}",
            "#FF": self.n_ff,
            "#LUT": self.n_lut,
            "Delay": self.delay,
            "Rlut": self.rlut,
            "Rdelay": self.rdelay,
        }


def row(name: str, metrics: dict) -> Table2Row:
    """One design's row from its retime flow metrics
    (:meth:`FlowResult.metrics` or a served ``retime`` job's)."""
    base, final = metrics["baseline"], metrics["final"]
    result = metrics["retime"]
    return Table2Row(
        name=name,
        n_classes=result["n_classes"],
        steps_moved=result["steps_moved"],
        steps_possible=result["steps_possible"],
        n_ff=final["n_ff"],
        n_lut=final["n_lut"],
        delay=final["delay"],
        rlut=final["n_lut"] / max(base["n_lut"], 1),
        rdelay=final["delay"] / max(base["delay"], 1e-9),
        local_fraction=result["local_fraction"],
        basic_fraction=result["basic_fraction"],
        relocate_fraction=result["relocate_fraction"],
        overhead_fraction=result["overhead_fraction"],
        cpu_seconds=result["cpu_seconds"],
    )


def run_design(name: str, base: FlowResult) -> Table2Row:
    """Retime one already-mapped design and build its Table 2 row."""
    flow = retime_flow(base.circuit, XC4000E_DELAY, mapped=base)
    return row(name, flow.metrics())


def run(
    scale: float = 1.0,
    names: list[str] | None = None,
    baselines: dict[str, FlowResult] | None = None,
) -> tuple[list[Table2Row], dict[str, FlowResult]]:
    """Regenerate Table 2 (and Table 1 internally if not provided)."""
    if baselines is None:
        _, baselines = table1.run(scale, names)
    rows = [
        run_design(name, flow)
        for name, flow in baselines.items()
        if names is None or name in names
    ]
    return rows, baselines


def totals(rows: list[Table2Row]) -> dict[str, object]:
    """The paper's Total row plus the aggregated prose statistics."""
    n_lut = sum(r.n_lut for r in rows)
    delay = sum(r.delay for r in rows)
    backward_weight = sum(
        r.steps_moved for r in rows
    )  # weight CPU stats by activity
    return {
        "Name": "Total",
        "#Class": "",
        "#Step": "",
        "#FF": sum(r.n_ff for r in rows),
        "#LUT": n_lut,
        "Delay": delay,
        "Rlut": (
            n_lut / max(sum(r.n_lut / max(r.rlut, 1e-9) for r in rows), 1e-9)
        ),
        "Rdelay": (
            delay
            / max(sum(r.delay / max(r.rdelay, 1e-9) for r in rows), 1e-9)
        ),
    }

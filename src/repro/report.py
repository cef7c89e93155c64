"""Report formatting shared by benchmarks and examples.

The benchmark harness regenerates every figure and table of the paper as
text: tables print aligned rows, figures print one series per outer
unroll factor (the paper's curve families).  Keeping the formatting in
one place makes the bench output diffable and lets EXPERIMENTS.md quote
it directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

Cell = Union[str, int, float]


@dataclass
class Table:
    """A paper-style table: title, column headers, rows."""

    title: str
    headers: Sequence[str]
    rows: List[Sequence[Cell]] = field(default_factory=list)

    def add_row(self, *cells: Cell) -> None:
        if len(cells) != len(self.headers):
            raise ValueError(
                f"row has {len(cells)} cells for {len(self.headers)} headers"
            )
        self.rows.append(cells)

    def render(self) -> str:
        rendered_rows = [
            [_format_cell(cell) for cell in row] for row in self.rows
        ]
        widths = [len(h) for h in self.headers]
        for row in rendered_rows:
            for index, cell in enumerate(row):
                widths[index] = max(widths[index], len(cell))
        lines = [self.title, ""]
        lines.append("  ".join(h.ljust(w) for h, w in zip(self.headers, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in rendered_rows:
            lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)

    def column(self, header: str) -> List[Cell]:
        index = list(self.headers).index(header)
        return [row[index] for row in self.rows]


@dataclass
class Series:
    """One curve of a figure: a label and (x, y) points."""

    label: str
    points: List[Tuple[Cell, float]] = field(default_factory=list)

    def add(self, x: Cell, y: float) -> None:
        self.points.append((x, y))

    def ys(self) -> List[float]:
        return [y for _x, y in self.points]


@dataclass
class Figure:
    """A paper-style figure: a family of curves over a common x-axis."""

    title: str
    x_label: str
    y_label: str
    series: List[Series] = field(default_factory=list)
    log_y: bool = False

    def new_series(self, label: str) -> Series:
        found = Series(label)
        self.series.append(found)
        return found

    def render(self) -> str:
        lines = [self.title, f"  x: {self.x_label}   y: {self.y_label}"
                 + ("  (log scale)" if self.log_y else ""), ""]
        xs: List[Cell] = []
        for series in self.series:
            for x, _y in series.points:
                if x not in xs:
                    xs.append(x)
        header = ["series \\ x"] + [_format_cell(x) for x in xs]
        widths = [max(len(header[0]), max((len(s.label) for s in self.series), default=0))]
        widths += [max(len(h), 10) for h in header[1:]]
        lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for series in self.series:
            values = dict(series.points)
            cells = [series.label.ljust(widths[0])]
            for x, width in zip(xs, widths[1:]):
                if x in values:
                    cells.append(_format_cell(values[x]).rjust(width))
                else:
                    cells.append("-".rjust(width))
            lines.append("  ".join(cells))
        return "\n".join(lines)


def _format_cell(cell: Cell) -> str:
    if isinstance(cell, float):
        if cell == float("inf"):
            return "inf"
        if abs(cell) >= 1000:
            return f"{cell:.0f}"
        return f"{cell:.3f}"
    return str(cell)


def batch_summary_table(summary: Dict[str, object],
                        title: str = "batch summary") -> Table:
    """Render a batch-service metrics summary (see
    :func:`repro.service.telemetry.summarize_events`) as a two-column
    metric/value table, phases included as indented rows."""
    table = Table(title, ["Metric", "Value"])
    table.add_row("jobs", summary.get("jobs", 0))
    table.add_row("succeeded", summary.get("succeeded", 0))
    table.add_row("failed", summary.get("failed", 0))
    table.add_row("retries", summary.get("retries", 0))
    table.add_row("points synthesized", summary.get("points_synthesized", 0))
    hits = summary.get("cache_hits", 0)
    misses = summary.get("cache_misses", 0)
    table.add_row("cache hits", hits)
    table.add_row("cache misses", misses)
    lookups = (hits or 0) + (misses or 0)
    table.add_row("cache hit rate", (hits / lookups) if lookups else 0.0)
    table.add_row("job wall seconds", summary.get("wall_seconds", 0.0))
    phases = summary.get("phase_seconds", {}) or {}
    for phase in sorted(phases):
        table.add_row(f"  phase: {phase}", phases[phase])
    if summary.get("serial_fallbacks"):
        table.add_row("serial fallbacks", summary["serial_fallbacks"])
    # robustness rows appear only when something actually happened, so
    # the quiet-path table stays identical to earlier releases
    if summary.get("resumed"):
        table.add_row("jobs resumed", summary["resumed"])
    if summary.get("estimator_retries"):
        table.add_row("estimator retries", summary["estimator_retries"])
    if summary.get("deadline_hits"):
        table.add_row("deadline hits", summary["deadline_hits"])
    if summary.get("infeasible_points"):
        table.add_row("infeasible points", summary["infeasible_points"])
    if summary.get("baselines_degraded"):
        table.add_row("baselines degraded", summary["baselines_degraded"])
    if summary.get("telemetry_dropped"):
        table.add_row("telemetry drops", summary["telemetry_dropped"])
    if summary.get("ledger_dropped"):
        table.add_row("ledger drops", summary["ledger_dropped"])
    return table


def speedup_table(results: Dict[str, Dict[str, float]], title: str) -> Table:
    """Render the Table-2 layout: kernels x {non-pipelined, pipelined}."""
    table = Table(title, ["Program", "Non-Pipelined", "Pipelined"])
    for kernel, modes in results.items():
        table.add_row(
            kernel.upper(),
            modes.get("non-pipelined", float("nan")),
            modes.get("pipelined", float("nan")),
        )
    return table

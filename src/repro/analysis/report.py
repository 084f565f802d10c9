"""Plain-text / Markdown rendering of analysis results.

The repository is usable on machines without any plotting stack, so every
analysis artifact can be rendered as a Markdown table or a fixed-width text
block.  These helpers are shared by the CLI, the studies
(:mod:`repro.campaign.studies`), ``CampaignResult``'s summary, the
``benchmarks/`` suite and the examples; keeping the formatting in one place
lets tests assert on structure without caring about alignment details.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence

from ..exceptions import ReproError
from .energy import EnergyReport
from .fairness import FairnessReport

__all__ = [
    "format_table",
    "format_figure_series",
    "fairness_report_table",
    "energy_report_table",
]


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    *,
    title: Optional[str] = None,
    float_format: str = "{:.2f}",
) -> str:
    """Render a simple aligned text table."""
    rendered_rows: List[List[str]] = []
    for row in rows:
        rendered: List[str] = []
        for value in row:
            if isinstance(value, float):
                rendered.append(float_format.format(value))
            else:
                rendered.append(str(value))
        rendered_rows.append(rendered)
    widths = [len(str(header)) for header in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    header_line = "  ".join(str(h).ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("  ".join("-" * width for width in widths))
    for row in rendered_rows:
        lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_figure_series(
    series: Mapping[str, Mapping[float, float]],
    *,
    x_label: str = "load",
    title: Optional[str] = None,
    float_format: str = "{:.2f}",
) -> str:
    """Render {algorithm -> {x -> y}} as a table with one column per x value."""
    xs = sorted({x for values in series.values() for x in values})
    headers = [x_label] + [f"{x:g}" for x in xs]
    rows: List[List[object]] = []
    for name in series:
        row: List[object] = [name]
        for x in xs:
            value = series[name].get(x)
            row.append(float_format.format(value) if value is not None else "-")
        rows.append(row)
    return format_table(headers, rows, title=title, float_format=float_format)


def _markdown_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]], float_format: str
) -> str:
    def render(cell: object) -> str:
        return float_format.format(cell) if isinstance(cell, float) else str(cell)

    lines = [
        "| " + " | ".join(headers) + " |",
        "| " + " | ".join("---" for _ in headers) + " |",
    ]
    for row in rows:
        lines.append("| " + " | ".join(render(cell) for cell in row) + " |")
    return "\n".join(lines)


def fairness_report_table(reports: Sequence[FairnessReport]) -> str:
    """Markdown table of per-algorithm fairness reports."""
    if not reports:
        raise ReproError("need at least one fairness report")
    headers = ["algorithm", "jobs", "max stretch", "mean stretch", "p95 stretch", "Jain", "Gini"]
    rows = [
        [
            report.algorithm,
            report.num_jobs,
            report.max_stretch,
            report.mean_stretch,
            report.p95_stretch,
            report.jain_stretch,
            report.gini_stretch,
        ]
        for report in reports
    ]
    return _markdown_table(headers, rows, "{:.3f}")


def energy_report_table(reports: Sequence[EnergyReport]) -> str:
    """Markdown table of per-algorithm energy reports."""
    if not reports:
        raise ReproError("need at least one energy report")
    headers = [
        "algorithm",
        "duration (h)",
        "busy node-hours",
        "idle node-hours",
        "always-on kWh",
        "power-down kWh",
        "savings",
    ]
    rows = [
        [
            report.algorithm,
            report.duration_seconds / 3600.0,
            report.busy_node_seconds / 3600.0,
            report.idle_node_seconds / 3600.0,
            report.always_on_kwh,
            report.power_down_kwh,
            f"{100.0 * report.savings_fraction:.1f}%",
        ]
        for report in reports
    ]
    return _markdown_table(headers, rows, "{:.2f}")

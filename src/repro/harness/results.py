"""Experiment result containers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from .reporting import format_table


@dataclass
class ExperimentResult:
    """Generic result of one experiment: a named table of rows.

    Every experiment of the harness (one per paper figure/claim) returns an
    instance of this class; benchmarks assert on the rows, and
    ``python -m repro.harness.runner --full --markdown`` renders the tables
    (catalogued in ``docs/experiments.md``).
    """

    name: str
    description: str
    parameters: Dict[str, object] = field(default_factory=dict)
    columns: List[str] = field(default_factory=list, init=False)
    rows: List[Dict[str, object]] = field(default_factory=list, init=False)
    notes: List[str] = field(default_factory=list, init=False)

    def add_row(self, **values: object) -> None:
        """Append a row, extending the column list with any new keys.

        Columns keep first-appearance order; rows that predate a column
        simply render blank in that cell (nothing is silently dropped).
        """
        for key in values:
            if key not in self.columns:
                self.columns.append(key)
        self.rows.append(dict(values))

    def column(self, name: str) -> List[object]:
        """Return one column as a list."""
        return [row.get(name) for row in self.rows]

    def format_table(self) -> str:
        """Render the rows as an aligned text table (missing cells blank)."""
        return format_table(
            self.columns,
            [[row.get(column, "") for column in self.columns] for row in self.rows],
        )

    def to_markdown(self) -> str:
        """Render the result as a Markdown section (the runner's ``--markdown``)."""
        lines = [f"### {self.name}", "", self.description, ""]
        if self.parameters:
            lines.append(
                "Parameters: "
                + ", ".join(f"{key}={value}" for key, value in sorted(self.parameters.items()))
            )
            lines.append("")
        if self.rows:
            header = "| " + " | ".join(self.columns) + " |"
            separator = "| " + " | ".join("---" for _ in self.columns) + " |"
            lines.append(header)
            lines.append(separator)
            for row in self.rows:
                lines.append(
                    "| "
                    + " | ".join(
                        _format_markdown_cell(row.get(column, ""))
                        for column in self.columns
                    )
                    + " |"
                )
            lines.append("")
        for note in self.notes:
            lines.append(f"- {note}")
        return "\n".join(lines)


def _format_markdown_cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    # A literal "|" in a cell value would split the Markdown table column.
    return str(value).replace("|", "\\|")

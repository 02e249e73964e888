"""Plain-text rendering of experiment results (the benches' output)."""

from __future__ import annotations

import typing as _t

Row = _t.Mapping[str, object]


def format_table(
    rows: _t.Sequence[Row],
    columns: _t.Optional[_t.Sequence[str]] = None,
    precision: int = 2,
) -> str:
    """Render rows as an aligned ASCII table."""
    if not rows:
        return "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())

    def cell(value: object) -> str:
        if isinstance(value, float):
            return f"{value:.{precision}f}"
        return str(value)

    rendered = [[cell(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(col), *(len(r[i]) for r in rendered))
        for i, col in enumerate(columns)
    ]
    header = "  ".join(col.rjust(w) for col, w in zip(columns, widths))
    separator = "  ".join("-" * w for w in widths)
    body = "\n".join(
        "  ".join(value.rjust(w) for value, w in zip(row, widths))
        for row in rendered
    )
    return f"{header}\n{separator}\n{body}"


def print_table(
    rows: _t.Sequence[Row],
    title: str = "",
    columns: _t.Optional[_t.Sequence[str]] = None,
    precision: int = 2,
) -> None:
    if title:
        print(f"\n== {title} ==")
    print(format_table(rows, columns=columns, precision=precision))

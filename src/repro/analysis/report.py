"""Plain-text tables and series for the experiments' output."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Sequence

from repro.errors import ConfigurationError


def fmt_pct(value: float, digits: int = 1) -> str:
    """Format a fraction as a percentage string."""
    return f"{value * 100:.{digits}f}%"


def fmt_w(value: float, digits: int = 1) -> str:
    """Format a power in watts."""
    return f"{value:.{digits}f}W"


@dataclass
class Table:
    """A fixed-width text table, the experiments' figure/table medium."""

    title: str
    headers: Sequence[str]
    rows: List[Sequence[str]] = field(default_factory=list)

    def add_row(self, *cells: object) -> None:
        if len(cells) != len(self.headers):
            raise ConfigurationError(
                f"row has {len(cells)} cells, expected {len(self.headers)}")
        self.rows.append([str(c) for c in cells])

    def render(self) -> str:
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))

        def line(cells: Sequence[str]) -> str:
            return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()

        out = [f"== {self.title} =="]
        out.append(line(self.headers))
        out.append(line(["-" * w for w in widths]))
        out.extend(line(row) for row in self.rows)
        return "\n".join(out)

    def show(self) -> None:
        print(self.render())
        print()


def render_series(title: str, xs: Iterable[object], ys: Iterable[float],
                  y_format: str = "{:.2f}", width: int = 50) -> str:
    """A crude horizontal bar rendering of one series (figure stand-in)."""
    xs = list(xs)
    ys = list(ys)
    if len(xs) != len(ys):
        raise ConfigurationError("xs and ys must have equal length")
    out = [f"== {title} =="]
    top = max((abs(y) for y in ys), default=1.0) or 1.0
    label_w = max((len(str(x)) for x in xs), default=1)
    for x, y in zip(xs, ys):
        bar = "#" * int(round(abs(y) / top * width))
        out.append(f"{str(x).ljust(label_w)}  {y_format.format(y):>10}  {bar}")
    return "\n".join(out)

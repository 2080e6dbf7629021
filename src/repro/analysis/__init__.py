"""Result rendering, paper-reference data, and suite aggregation.

``report`` renders text tables/series the way the experiments print
them; ``paper`` holds the published numbers for every table and figure
so each experiment can print paper-vs-measured side by side;
``aggregate`` folds the parallel runner's out-of-order job outcomes
into a canonical suite summary.
"""

from repro.analysis.aggregate import SuiteAggregator
from repro.analysis.report import Table, render_series, fmt_pct, fmt_w
from repro.analysis.paper import PAPER

__all__ = ["SuiteAggregator", "Table", "render_series", "fmt_pct",
           "fmt_w", "PAPER"]

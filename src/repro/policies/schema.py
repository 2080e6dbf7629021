"""One serialization schema for policy-comparison results.

The Figure 9/10 matrix cells (:class:`repro.sim.experiment.PolicyResult`)
and the tournament's per-cell measurements both flatten into a
:class:`PolicyRow` here, so tournament tables, figure expectations, and
``repro report`` sections render from the same field set and round-trip
through the JSONL metrics stream without bespoke glue.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence

from repro.analysis.report import Table

#: The scalar core every producer fills (extras carry the rest).
POLICY_ROW_FIELDS = ("policy", "scenario", "runtime_s", "dram_power_w",
                     "dram_energy_j", "baseline_dram_energy_j",
                     "dram_energy_saving", "system_energy_j",
                     "overhead_fraction", "notes")


@dataclass(frozen=True)
class PolicyRow:
    """One policy evaluated in one scenario, flattened for transport."""

    policy: str
    scenario: str
    runtime_s: float = 0.0
    dram_power_w: float = 0.0
    dram_energy_j: float = 0.0
    baseline_dram_energy_j: float = 0.0
    #: 1 - dram_energy / baseline (0 when no baseline was measured).
    dram_energy_saving: float = 0.0
    system_energy_j: float = 0.0
    overhead_fraction: float = 0.0
    notes: str = ""
    #: Producer-specific scalars (residencies, tail power, fault counts,
    #: migration totals, ...), kept flat so they serialize as-is.
    extras: Mapping[str, float] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        """Flatten to one JSON-ready mapping (extras inline)."""
        out: Dict[str, object] = {
            name: getattr(self, name) for name in POLICY_ROW_FIELDS}
        out.update(self.extras)
        return out


def render_rows(title: str, rows: Sequence[PolicyRow]) -> Table:
    """The canonical fixed-width table every CLI surface prints."""
    table = Table(title, ["policy", "scenario", "runtime s", "dram W",
                          "dram kJ", "saving %", "overhead %", "notes"])
    for row in rows:
        table.add_row(row.policy, row.scenario,
                      f"{row.runtime_s:.0f}",
                      f"{row.dram_power_w:.2f}",
                      f"{row.dram_energy_j / 1e3:.2f}",
                      f"{row.dram_energy_saving * 100.0:.1f}",
                      f"{row.overhead_fraction * 100.0:.2f}",
                      row.notes)
    return table


def mean_saving_by_policy(rows: Sequence[PolicyRow]) -> Dict[str, float]:
    """Per-policy mean DRAM energy saving across every scenario seen."""
    sums: Dict[str, List[float]] = {}
    for row in rows:
        sums.setdefault(row.policy, []).append(row.dram_energy_saving)
    return {policy: sum(values) / len(values)
            for policy, values in sums.items()}

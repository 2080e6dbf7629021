#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md from full (non-fast) experiment runs.

Usage: python benchmarks/generate_experiments_md.py [--fast]
"""

from __future__ import annotations

import pathlib
import sys
import time

from repro.experiments.registry import runners

HEADER = """# EXPERIMENTS — paper vs. measured

Generated by ``benchmarks/generate_experiments_md.py`` from full-length
runs of the experiments ``repro figures`` pins.  Paper values come
from the published text and (approximately) from reading its figures.
Absolute watts/latencies are anchored where the paper reports
measurements; elsewhere the claim is the *shape* — who wins, by roughly
what factor, and in which direction each knob moves the result.

Known fidelity gaps (see DESIGN.md for the substitutions behind them):

* The SPEC-suite mean DRAM-energy reduction comes out larger than the
  paper's 38% and the data-center mean smaller than its 60%: our
  rank-sleep baseline tracks the paper's measured 54% self-refresh
  residency, while CPU-bound SPEC codes in the real testbed apparently
  kept more of the DRAM awake than the model's estimate.  Every
  qualitative relationship of Figures 9/10 (GreenDIMM best in every
  column; interleaving penalizes CPU-bound energy and helps
  memory-bound; rank/bank schemes useless under interleaving) holds.
* Azure-trace peaks reach ~85% rather than 92% because the synthetic
  VM mix caps at a 2x vCPU consolidation ratio with published flavour
  sizes.

Every number below is independent of the simulator's quiescence
fast-forward layer: fast-forwarded runs are bit-for-bit identical to
per-epoch stepping (same samples, energies, and daemon statistics), a
guarantee enforced by ``tests/test_fastforward.py`` and re-checked by
the end-to-end benchmark's reference-path re-run.

## The figure regression suite (`repro figures`)

Every experiment below is also pinned by a committed *expectation file*
under ``tests/expected/figures/<id>.json`` holding its headline numbers
at fast-mode settings:

```
python -m repro figures check --fast    # regenerate + diff + gate (CI)
python -m repro figures run --fast      # regenerate + report, no gate
python -m repro figures bless --fast    # re-pin after an intentional change
```

``check`` regenerates each experiment, writes a per-figure
``reports/figures/<id>/REPORT.md`` (rendered tables plus an
expected-vs-measured diff), and exits non-zero when any cell drifts, when
an experiment has no expectation, or when a committed expectation is
*stale* (no registered experiment behind it).  CI runs this gate, so a
refactor that shifts an energy-saving percentage fails the build instead
of silently redefining the reproduction.  A pin only says "unchanged":
the paper's claims are thresholds in ``tests/test_experiments.py``,
which tier-1 applies to every committed pin, so a re-bless that breaks
a claim fails too.

**Tolerance policy.** Numeric cells compare at a per-cell *relative*
tolerance — the file-level ``tolerance`` (default ``1e-4``), overridable
per key via a ``tolerances`` object in the expectation file.  Bools,
ints, and strings must match exactly.  The experiments are seeded and
deterministic, so the default only absorbs float drift across
Python/numpy versions; widen a single key's tolerance rather than the
file's when one metric is legitimately noisier.

**Blessing.** After an intentional model change, run
``python -m repro figures bless --fast``, eyeball the regenerated
``REPORT.md`` diffs, and commit the updated expectation files together
with the change that moved the numbers.

"""

_TITLES = {
    "fig1": "Figure 1", "tab1": "Table 1", "fig2": "Figure 2",
    "fig3": "Figure 3", "fig6": "Figure 6", "fig7": "Figure 7",
    "tab2": "Table 2", "tab3": "Table 3", "fig8": "Figure 8",
    "fig9": "Figure 9", "fig10": "Figure 10", "fig11": "Figure 11",
    "fig12": "Figure 12", "fig13": "Figure 13",
    "daemon-overhead": "Daemon overhead (Sec. 6.2)",
    "tail-latency": "Tail latency (Sec. 6.2)",
    "fault-storm": "Fault storm (extension of Fig. 8)",
    "fleet": "Fleet study (extension beyond the paper)",
    "gem5-staircase": "gem5 power-down staircase (independent validation)",
    "tournament": "Policy tournament (extension beyond the paper)",
    "ablation-off-thr": "Ablation: off_thr reserve (Sec. 4.2)",
    "ablation-monitor-period": "Ablation: monitoring period (Sec. 4.2)",
    "ablation-movablecore": "Ablation: movablecore split (Sec. 5.2)",
    "ablation-pair-gating": "Ablation: sense-amp pair gating (Sec. 6.1)",
    "colocation": "Colocation study (extension beyond the paper)",
    "suite-sweep": "Whole-catalog sweep (extension beyond the paper)",
}

RUNNERS = [(_TITLES[name], runner)
           for name, runner in runners().items()]


def main() -> None:
    fast = "--fast" in sys.argv
    sections = [HEADER]
    for label, runner in RUNNERS:
        start = time.time()
        result = runner(fast=fast)
        elapsed = time.time() - start
        print(f"{label}: done in {elapsed:.1f}s")
        sections.append(f"## {label}\n\n```\n{result.render()}\n```\n")
    out = pathlib.Path(__file__).parent.parent / "EXPERIMENTS.md"
    out.write_text("\n".join(sections))
    print(f"wrote {out}")


if __name__ == "__main__":
    main()

"""Conservation laws a kernel run must keep on its own.

The equivalence tests compare a fast run with a reference run, so a law
both paths break in the same way passes them.  These checks hold every
run to the laws directly:

* pages: the owners' pages sum to ``online_pages - free_pages``, which
  is also the sum of the per-block ``used_pages``;
* blocks: ``online_pages`` plus the offline blocks' pages is the
  installed ``total_pages``;
* runs tile the used pages: every run lies inside one memory block and
  is listed in that block's ``extents``; an owner's runs ascend without
  overlapping; each block's runs sum to its used and unmovable pages;
  and the buddy blocks the runs derive are the zones' allocated blocks,
  each at its order: the runs' max-order prefixes, merged, are each
  zone's allocated max-order intervals, and their tail blocks are the
  zones' allocated sub-max-order blocks;
* every sample's ``dpd_fraction`` lies in [0, 1];
* neither energy sum ever decreases;
* the residency buckets sum to the executed epochs times ``epoch_s``.

:func:`install_conservation_checks` asserts them after every
``advance`` of every kernel, and all but the run-tiling law after every
span executor call, for one test.
"""

from __future__ import annotations

import pytest

from repro.os.buddy import tail_blocks
from repro.os.page import TAIL_MASK
from repro.sim.kernel import EpochKernel


def check_memory(system, runs: bool = True) -> None:
    """The page and block conservation laws of *system*, right now, and
    with *runs* the run-tiling law too."""
    mm = system.mm
    used = mm.online_pages - mm.free_pages
    assert sum(mm.owner_pages(owner) for owner in mm.owners()) == used
    assert sum(mm.block_accounting(block).used_pages
               for block in range(mm.num_blocks)) == used
    hotplug = getattr(system.hotplug, "inner", system.hotplug)
    assert (mm.online_pages + hotplug.offline_count * mm.block_pages
            == mm.total_pages)
    if runs:
        check_runs(mm)


def check_runs(mm) -> None:
    """The run-tiling law of the memory manager *mm*, right now.

    Between kernel calls no off-lining is in flight, so the runs'
    derived buddy blocks are exactly the zones' allocated blocks.
    """
    block_pages = mm.block_pages
    used = [0] * mm.num_blocks
    unmovable = [0] * mm.num_blocks
    starts = [set() for _ in range(mm.num_blocks)]
    prefixes = {zone.start_pfn: [] for zone in mm.zones}
    tails = {}
    for owner in mm.owners():
        end = 0
        for run in mm.extents_of(owner):
            pfn, pages = run.pfn, run.pages
            block = pfn // block_pages
            assert end <= pfn and pages > 0
            assert (pfn + pages - 1) // block_pages == block
            end = pfn + pages
            used[block] += pages
            if not run.movable:
                unmovable[block] += pages
            starts[block].add(pfn)
            prefix = pages & ~TAIL_MASK
            if prefix:
                prefixes[mm._zone_of(pfn).start_pfn].append(
                    (pfn, pfn + prefix))
            tails.update(tail_blocks(pfn + prefix, pages & TAIL_MASK))
    allocated = {}
    for zone in mm.zones:
        allocated.update(zone.allocator._allocated)
        assert (zone.allocator._allocated_runs
                == merged(prefixes[zone.start_pfn]))
    assert tails == allocated
    accounts = [mm.block_accounting(block) for block in range(mm.num_blocks)]
    assert [acct.used_pages for acct in accounts] == used
    assert [acct.unmovable_pages for acct in accounts] == unmovable
    assert [acct.extents for acct in accounts] == starts


def merged(spans):
    """Disjoint ``(start, end)`` spans as flat interval bounds, touching
    spans merged."""
    bounds = []
    for start, end in sorted(spans):
        assert not bounds or bounds[-1] <= start, "overlapping runs"
        if bounds and bounds[-1] == start:
            bounds[-1] = end
        else:
            bounds += [start, end]
    return bounds


def check_run(system, samples, first, epoch_s, residency,
              runs: bool = True) -> None:
    """The laws after a kernel call that appended ``samples[first:]``."""
    check_memory(system, runs)
    assert all(0.0 <= sample.dpd_fraction <= 1.0
               for sample in samples[first:])
    assert residency.total_s == pytest.approx(len(samples) * epoch_s,
                                              rel=1e-9)


def install_conservation_checks(monkeypatch) -> None:
    """Check the laws after every ``EpochKernel._stable_span_window``,
    ``EpochKernel._ramp_epochs`` and ``EpochKernel.advance`` call until
    the test ends.

    The run-tiling law walks every run and buddy block, so it is checked
    after each ``advance`` only: runs are persistent state, and a broken
    one is still broken when the call returns.
    """
    advance = EpochKernel.advance

    def checked(executor):
        def checked_executor(self, state, *args):
            first = len(state.samples)
            energies = state.dram_energy, state.baseline_energy
            executor(self, state, *args)
            assert state.dram_energy >= energies[0]
            assert state.baseline_energy >= energies[1]
            check_run(self.system, state.samples, first, state.epoch_s,
                      state.residency, runs=False)
        return checked_executor

    def checked_advance(self, state, *args, **kwargs):
        first = len(state.samples)
        energies = state.dram_energy, state.baseline_energy
        done = advance(self, state, *args, **kwargs)
        assert state.dram_energy >= energies[0]
        assert state.baseline_energy >= energies[1]
        check_run(self.system, state.samples, first, state.epoch_s,
                  state.residency)
        return done

    for name in ("_stable_span_window", "_ramp_epochs"):
        monkeypatch.setattr(EpochKernel, name,
                            checked(getattr(EpochKernel, name)))
    monkeypatch.setattr(EpochKernel, "advance", checked_advance)

"""Conservation laws a kernel run must keep on its own.

The equivalence tests compare a fast run with a reference run, so a law
both paths break in the same way passes them.  These checks hold every
run to the laws directly:

* pages: the owners' pages sum to ``online_pages - free_pages``, which
  is also the sum of the per-block ``used_pages``;
* blocks: ``online_pages`` plus the offline blocks' pages is the
  installed ``total_pages``;
* every sample's ``dpd_fraction`` lies in [0, 1];
* neither energy sum ever decreases;
* the residency buckets sum to the executed epochs times ``epoch_s``.

:func:`install_conservation_checks` asserts them after every span
executor call and every ``advance`` of every kernel, for one test.
"""

from __future__ import annotations

import pytest

from repro.sim.kernel import EpochKernel


def check_memory(system) -> None:
    """The page and block conservation laws of *system*, right now."""
    mm = system.mm
    used = mm.online_pages - mm.free_pages
    assert sum(mm.owner_pages(owner) for owner in mm.owners()) == used
    assert sum(mm.block_accounting(block).used_pages
               for block in range(mm.num_blocks)) == used
    hotplug = getattr(system.hotplug, "inner", system.hotplug)
    assert (mm.online_pages + hotplug.offline_count * mm.block_pages
            == mm.total_pages)


def check_run(system, samples, first, epoch_s, residency) -> None:
    """The laws after a kernel call that appended ``samples[first:]``."""
    check_memory(system)
    assert all(0.0 <= sample.dpd_fraction <= 1.0
               for sample in samples[first:])
    assert residency.total_s == pytest.approx(len(samples) * epoch_s,
                                              rel=1e-9)


def install_conservation_checks(monkeypatch) -> None:
    """Check the laws after every ``EpochKernel._stable_span_window``
    and ``EpochKernel.advance`` call until the test ends."""
    executor = EpochKernel._stable_span_window
    advance = EpochKernel.advance

    def checked_executor(self, clock, n, quiescent, bandwidth,
                         row_miss_rate, churn, samples, dram_energy,
                         baseline_energy, residency):
        first = len(samples)
        energies = executor(self, clock, n, quiescent, bandwidth,
                            row_miss_rate, churn, samples, dram_energy,
                            baseline_energy, residency)
        assert energies[0] >= dram_energy
        assert energies[1] >= baseline_energy
        check_run(self.system, samples, first, clock.epoch_s, residency)
        return energies

    def checked_advance(self, state, *args, **kwargs):
        first = len(state.samples)
        energies = state.dram_energy, state.baseline_energy
        done = advance(self, state, *args, **kwargs)
        assert state.dram_energy >= energies[0]
        assert state.baseline_energy >= energies[1]
        check_run(self.system, state.samples, first, state.epoch_s,
                  state.residency)
        return done

    monkeypatch.setattr(EpochKernel, "_stable_span_window", checked_executor)
    monkeypatch.setattr(EpochKernel, "advance", checked_advance)


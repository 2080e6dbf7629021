"""The kernel's one span loop: what the bit-exact goldens cannot see.

``tests/golden/kernel_golden.json`` pins the samples, energies and
``FastForwardStats.as_dict()`` of every scenario, so it cannot tell how
a run was executed.  These tests pin the rest:

* the run's energy lives on :class:`~repro.sim.kernel.KernelRunState`
  and is booked together with the samples and the clock, so a span that
  raises midway leaves a state whose energy is still the sum of its
  samples' energies;
* the stable-span counters and the sample log's entry count of each
  fast scenario in :mod:`tests.kernel_scenarios`: quiet churn epochs
  must stay in run records, which is what keeps the log small;
* the conservation laws hold after every ramp span.
"""

from __future__ import annotations

import pytest

from repro.sim.kernel import EpochKernel, ProfileSource
from repro.sim.server import ServerSimulator
from repro.workloads.registry import profile_by_name
from tests import kernel_scenarios
from tests.conservation import install_conservation_checks
from tests.kernel_scenarios import small_system
from tests.test_ramp_spans import ramp_mix, run


class TestSpanExceptions:
    def test_an_exception_inside_a_span_keeps_the_energy_with_the_clock(
            self, monkeypatch):
        sim = ServerSimulator(small_system(), seed=5, fast_forward=True)
        window = EpochKernel._stable_span_window
        scan = sim._quiet_churn_epochs
        churn = sim._pinned_churn
        # One flag per open span: has it replayed a quiet run yet?
        replayed = []

        def tracked_window(kernel, *args):
            replayed.append(False)
            try:
                return window(kernel, *args)
            finally:
                replayed.pop()

        def tracked_scan(now_s, dt_s, limit):
            quiet, draw = scan(now_s, dt_s, limit)
            if quiet and replayed:
                replayed[-1] = True
            return quiet, draw

        def failing_churn(t, epoch_s, draw=None):
            if replayed and replayed[-1]:
                raise RuntimeError("churn failed inside a span")
            return churn(t, epoch_s, draw)

        monkeypatch.setattr(EpochKernel, "_stable_span_window",
                            tracked_window)
        sim._quiet_churn_epochs = tracked_scan
        sim._pinned_churn = failing_churn
        epoch_s = 1.0
        source = ProfileSource(sim, profile_by_name("429.mcf"))
        state = sim.kernel.begin(source, epoch_s, warmup_s=30.0,
                                 pinned_churn=True)
        with pytest.raises(RuntimeError, match="inside a span"):
            sim.kernel.advance(state)
        # The span that raised booked nothing; the epochs before it are
        # booked whole: samples, clock, energy and residency agree.
        samples = list(state.samples)
        assert len(samples) > 30
        assert state.now_s == len(samples) * epoch_s
        energy = 0.0
        for sample in samples:
            energy += sample.dram_power_w * epoch_s
        assert state.dram_energy == energy
        assert state.residency.total_s == pytest.approx(state.now_s,
                                                        rel=1e-12)


#: Per fast scenario, recorded before the span loop existed:
#: ``(spans_stable, epochs_batched, sample log entries)``.
FAST_COUNTS = {
    "workload_nochurn": (0, 0, 49),
    "workload_churn": (0, 0, 466),
    "workload_storm": (0, 0, 138),
    "vmtrace_nochurn": (0, 0, 58),
    "vmtrace_churn": (0, 0, 20046),
    "mix_nochurn": (0, 0, 53),
    "mix_churn": (0, 0, 293),
}


@pytest.mark.parametrize("name", sorted(kernel_scenarios.SCENARIOS))
def test_fast_scenario_counts(name, monkeypatch):
    seen = {}
    canonicalize = kernel_scenarios.canonicalize

    def capturing(sim, result):
        seen["counts"] = (sim.ff_stats.spans_stable,
                          sim.ff_stats.epochs_batched,
                          len(result.samples._entries))
        return canonicalize(sim, result)

    monkeypatch.setattr(kernel_scenarios, "canonicalize", capturing)
    kernel_scenarios.SCENARIOS[name](True)
    spans, batched, entries = seen["counts"]
    pinned_spans, pinned_batched, pinned_entries = FAST_COUNTS[name]
    assert (spans, batched) == (pinned_spans, pinned_batched)
    assert entries <= pinned_entries


def test_ramp_spans_keep_the_conservation_laws(monkeypatch):
    original = EpochKernel._ramp_epochs
    install_conservation_checks(monkeypatch)
    checked = EpochKernel._ramp_epochs
    assert checked is not original
    calls = []

    def counted(kernel, *args):
        calls.append(args)
        return checked(kernel, *args)

    monkeypatch.setattr(EpochKernel, "_ramp_epochs", counted)
    run(ramp_mix(), fast=True)
    assert len(calls) > 1

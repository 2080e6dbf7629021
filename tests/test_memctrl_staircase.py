"""gem5-style idle/power-down staircase validation of repro.memctrl."""

import pytest

from repro.core.power_control import GreenDIMMPowerControl
from repro.dram.organization import spec_server_memory
from repro.errors import ConfigurationError
from repro.experiments.gem5_staircase import check_mrs_lockstep
from repro.memctrl.lowpower import LowPowerConfig
from repro.memctrl.moderegister import TMRD_NS
from repro.memctrl.staircase import (
    BURST_NS,
    DEFAULT_IDLE_SWEEP_NS,
    detect_entry_threshold,
    run_mrs_sweep,
    run_pasr_sweep,
    run_staircase,
    validate_pasr_sweep,
    validate_staircase,
)
from repro.power.states import PowerState, exit_latency_ns


class TestStaircase:
    def test_default_sweep_passes_the_contract(self):
        points = run_staircase()
        validation = validate_staircase(points)
        assert validation.passed, validation.violations

    def test_states_step_down_at_the_configured_thresholds(self):
        config = LowPowerConfig()
        states = {p.idle_ns: p.state for p in run_staircase(config=config)}
        assert states[999.0] is PowerState.PRECHARGE_STANDBY
        assert states[1_000.0] is PowerState.POWER_DOWN
        assert states[63_999.0] is PowerState.POWER_DOWN
        assert states[64_000.0] is PowerState.SELF_REFRESH

    def test_wakeups_pay_published_exit_latencies(self):
        for point in run_staircase():
            assert point.wake_penalty_ns == exit_latency_ns(point.state)
        by_state = {p.state: p for p in run_staircase()}
        assert by_state[PowerState.POWER_DOWN].wake_penalty_ns == 18.0
        assert by_state[PowerState.SELF_REFRESH].wake_penalty_ns == 768.0

    def test_residency_accounting_closes_every_window(self):
        for point in run_staircase():
            accounted = sum(point.residency_ns.values())
            assert accounted == pytest.approx(BURST_NS + point.idle_ns)
            assert point.residency_ns[PowerState.ACTIVE_STANDBY] == \
                pytest.approx(BURST_NS)
            assert all(t >= 0.0 for t in point.residency_ns.values())

    def test_energy_curve_is_a_monotone_staircase(self):
        points = sorted(run_staircase(), key=lambda p: p.idle_ns)
        energies = [p.idle_energy_nj for p in points]
        assert energies == sorted(energies)
        slopes = [(b.idle_energy_nj - a.idle_energy_nj)
                  / (b.idle_ns - a.idle_ns)
                  for a, b in zip(points, points[1:])]
        # Marginal idle power never rises: each deeper state flattens
        # the curve — the staircase the gem5 paper plots.
        assert all(b <= a * (1 + 1e-9)
                   for a, b in zip(slopes, slopes[1:]))
        # And it genuinely steps: self-refresh spans burn less marginal
        # power than precharge-standby spans.
        assert slopes[-1] < slopes[0] * 0.5

    def test_mean_idle_power_is_non_increasing(self):
        points = sorted(run_staircase(), key=lambda p: p.idle_ns)
        powers = [p.idle_power_w for p in points]
        assert all(b <= a * (1 + 1e-9) for a, b in zip(powers, powers[1:]))

    def test_disabled_policy_never_demotes(self):
        config = LowPowerConfig(enabled=False)
        points = run_staircase(config=config)
        assert all(p.state is PowerState.PRECHARGE_STANDBY for p in points)
        assert all(p.wake_penalty_ns == 0.0 for p in points)
        assert validate_staircase(points, config=config).passed

    def test_validation_catches_a_broken_ladder(self):
        # A policy that self-refreshes too eagerly must be flagged when
        # judged against the default thresholds.
        eager = LowPowerConfig(selfrefresh_idle_ns=2_000.0)
        points = run_staircase(config=eager)
        validation = validate_staircase(points, config=LowPowerConfig())
        assert not validation.passed
        assert any("expected power_down" in v for v in validation.violations)

    def test_rejects_non_positive_idle_gaps(self):
        with pytest.raises(ConfigurationError):
            run_staircase(idle_sweep_ns=(0.0,))

    def test_sweep_brackets_both_thresholds(self):
        config = LowPowerConfig()
        below_pd = [t for t in DEFAULT_IDLE_SWEEP_NS
                    if t < config.powerdown_idle_ns]
        above_sr = [t for t in DEFAULT_IDLE_SWEEP_NS
                    if t >= config.selfrefresh_idle_ns]
        assert below_pd and above_sr


class TestEntryThresholdDetection:
    def test_detects_configured_thresholds_by_bisection(self):
        assert detect_entry_threshold(PowerState.POWER_DOWN) == \
            pytest.approx(1_000.0, abs=1e-6)
        assert detect_entry_threshold(PowerState.SELF_REFRESH) == \
            pytest.approx(64_000.0, abs=1e-6)

    def test_tracks_a_retuned_policy(self):
        config = LowPowerConfig(powerdown_idle_ns=500.0,
                                selfrefresh_idle_ns=10_000.0)
        assert detect_entry_threshold(PowerState.POWER_DOWN, config) == \
            pytest.approx(500.0, abs=1e-6)
        assert detect_entry_threshold(PowerState.SELF_REFRESH, config) == \
            pytest.approx(10_000.0, abs=1e-6)

    def test_unreachable_state_is_an_error(self):
        config = LowPowerConfig(enabled=False)
        with pytest.raises(ConfigurationError, match="never entered"):
            detect_entry_threshold(PowerState.SELF_REFRESH, config)


class TestPASRSweep:
    def test_refreshing_fraction_falls_one_bank_per_step(self):
        steps = run_pasr_sweep()
        assert validate_pasr_sweep(steps) == []
        assert steps[0][1] == 1.0
        assert steps[-1][1] == 0.0

    def test_validation_catches_a_non_monotone_sweep(self):
        steps = [(0, 1.0), (1, 1.0)]  # gating a bank changed nothing
        assert validate_pasr_sweep(steps)


class TestMRSSweep:
    def test_slice_updates_cost_one_tmrd_each(self):
        sweep = run_mrs_sweep()
        assert sweep["slice_update_ns"] == TMRD_NS
        assert sweep["slice_updates_uniform"] == 1.0

    def test_full_update_costs_all_slices_and_idempotent_is_free(self):
        sweep = run_mrs_sweep()
        assert sweep["full_update_ns"] == sweep["expected_full_update_ns"]
        assert sweep["idempotent_update_ns"] == 0.0

    def test_ranks_stay_lock_step_consistent(self):
        sweep = run_mrs_sweep()
        assert check_mrs_lockstep() == []
        # Four single-slice steps on each of the 16 ranks; the idempotent
        # re-broadcast adds none.
        assert sweep["commands"] == 4.0 * spec_server_memory().total_ranks

    def test_lockstep_check_catches_a_skipped_broadcast(self, monkeypatch):
        assert check_mrs_lockstep() == []
        real_online = GreenDIMMPowerControl.block_onlined

        def online_without_broadcast(control, *args):
            registers = control.mode_registers
            registers.broadcast_gate_mask = lambda mask: 0.0
            try:
                return real_online(control, *args)
            finally:
                del registers.broadcast_gate_mask

        monkeypatch.setattr(GreenDIMMPowerControl, "block_onlined",
                            online_without_broadcast)
        problems = check_mrs_lockstep()
        assert any(p.startswith("after online 31: MR mask") for p in problems)
        assert any("MRS commands" in p for p in problems)
        assert any("MRS time" in p for p in problems)

        from repro.experiments.registry import run_experiment

        result = run_experiment("gem5-staircase", fast=True)
        assert result.measured["mrs_lockstep_consistent"] is False


class TestStaircaseExperiment:
    def test_experiment_is_registered_and_clean(self):
        from repro.experiments.registry import run_experiment

        result = run_experiment("gem5-staircase", fast=True)
        assert result.measured["staircase_violations"] == 0
        assert result.measured["pasr_violations"] == 0
        assert result.measured["mrs_lockstep_consistent"] is True
        assert result.measured["powerdown_entry_ns"] == \
            pytest.approx(1_000.0, abs=1e-6)
        assert result.measured["selfrefresh_entry_ns"] == \
            pytest.approx(64_000.0, abs=1e-6)
        # Deeper states save real background power.
        assert 0.0 < result.measured["powerdown_power_reduction"] \
            < result.measured["selfrefresh_power_reduction"] < 1.0
        assert "staircase" in result.render()

    def test_full_mode_sweep_is_denser_and_still_clean(self):
        from repro.experiments.registry import run_experiment

        fast = run_experiment("gem5-staircase", fast=True)
        full = run_experiment("gem5-staircase", fast=False)
        assert len(full.tables[0].rows) > len(fast.tables[0].rows)
        assert full.measured["staircase_violations"] == 0

    def test_validate_cli_includes_staircase_checks(self, capsys):
        from repro.cli import main

        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "staircase power-down entry" in out
        assert "staircase contract violations" in out
        assert "PASR gating sweep violations" in out

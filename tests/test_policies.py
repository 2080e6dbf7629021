"""The PowerPolicy plug-in layer: registry, the daemon as policy, schema,
tournament, and the closed-form estimates of the rank-level comparison
policies (srf-only, RAMZzz, PASR): each policy class's ``estimate``."""

import dataclasses
import gc
import subprocess
import sys
import weakref

import pytest

from repro.core.config import GreenDIMMConfig
from repro.core.system import GreenDIMMSystem
from repro.dram.device import DDR4_4GB_X8
from repro.dram.organization import MemoryOrganization, spec_server_memory
from repro.errors import ConfigurationError
from repro.policies import (
    DEFAULT_POLICY,
    PolicyRow,
    PowerPolicy,
    analytical_policy_names,
    create_policy,
    get_active_policy,
    policy_class,
    policy_names,
    policy_scope,
    policy_spec,
    render_rows,
)
from repro.policies.calibration import (
    ESTIMATE_KERNEL_BYTES,
    idle_bank_fraction,
    resident_ranks,
)
from repro.policies.pasr import PASR_BANK_SAVING, PASRKernelPolicy
from repro.policies.ramzzz import RAMZzzKernelPolicy
from repro.policies.srf import SelfRefreshTimeoutPolicy
from repro.power.model import DRAMPowerModel
from repro.power.states import PowerState
from repro.sim.server import ServerSimulator
from repro.units import GIB, MIB
from repro.workloads.registry import profile_by_name
from tests.kernel_scenarios import small_system as scenario_system
from tests.test_churn_replay import flat_profile


def small_system(policy=None, **kwargs) -> GreenDIMMSystem:
    org = MemoryOrganization(device=DDR4_4GB_X8, channels=2,
                             dimms_per_channel=1, ranks_per_dimm=2)
    defaults = dict(organization=org,
                    config=GreenDIMMConfig(block_bytes=64 * MIB),
                    kernel_boot_bytes=256 * MIB,
                    transient_failure_probability=0.0,
                    policy=policy, seed=3)
    defaults.update(kwargs)
    return GreenDIMMSystem(**defaults)


def short_profile(name="429.mcf", duration_s=60.0):
    return dataclasses.replace(profile_by_name(name), duration_s=duration_s)


def exact_observables(result, sim):
    """A run's samples, energies, policy stats and daemon events with
    every float rendered exactly."""
    def hexed(value):
        return value.hex() if isinstance(value, float) else value

    stats = dataclasses.asdict(sim.system.policy.stats)
    return {
        "samples": [[hexed(v) for v in s] for s in result.samples],
        "dram_energy": result.dram_energy_j.hex(),
        "baseline": result.baseline_dram_energy_j.hex(),
        "stats": {k: hexed(v) for k, v in stats.items()},
        "events": list(sim.system.daemon.event_log),
    }


class TestRegistry:
    def test_canonical_order_and_default(self):
        names = policy_names()
        assert names[:4] == ("srf_only", "ramzzz", "pasr", "greendimm")
        assert DEFAULT_POLICY in names
        assert analytical_policy_names() == ("srf_only", "ramzzz", "pasr")

    def test_experiment_policies_tuple_derives_from_registry(self):
        from repro.sim.experiment import POLICIES

        assert POLICIES == ("srf_only", "ramzzz", "pasr", "greendimm")

    def test_unknown_policy_rejected_with_catalog(self):
        with pytest.raises(ConfigurationError, match="srf_only"):
            policy_spec("bogus")
        with pytest.raises(ConfigurationError, match="srf_only"):
            policy_class("bogus")

    def test_no_estimator_for_kernel_only_policy(self):
        assert policy_spec("rank-migration").analytical is False
        assert "rank-migration" not in analytical_policy_names()
        for name in analytical_policy_names():
            assert policy_spec(name).analytical is True
            assert callable(policy_class(name).estimate)

    def test_registration_is_lazy(self):
        # Importing the registry (or the experiment module) must not
        # instantiate any policy or estimator; a fresh interpreter
        # proves it without depending on this process's import state.
        code = (
            "import sys\n"
            "import repro.sim.experiment\n"
            "import repro.policies.registry\n"
            "assert repro.sim.experiment.POLICIES\n"
            "banned = ['repro.policies.greendimm', 'repro.policies.srf',\n"
            "          'repro.policies.pasr', 'repro.policies.ramzzz',\n"
            "          'repro.policies.migration',\n"
            "          'repro.policies.demotion']\n"
            "loaded = [m for m in banned if m in sys.modules]\n"
            "assert not loaded, loaded\n")
        subprocess.run([sys.executable, "-c", code], check=True)

    def test_every_policy_satisfies_the_protocol(self):
        system = small_system()
        for name in policy_names():
            policy = create_policy(name, system)
            assert isinstance(policy, PowerPolicy)
            assert policy.name == name


class TestGreenDIMMPolicy:
    def test_the_policy_is_the_daemon(self):
        system = small_system()
        assert system.policy is system.daemon
        assert create_policy("greendimm", system) is system.daemon

    def test_stats_surface_is_the_daemons(self):
        system = small_system(policy="greendimm")
        before = system.daemon.stats
        system.policy.reset_stats()
        assert system.daemon.stats is not before
        assert system.policy.stats is system.daemon.stats

    def test_monitor_timer_wraps_the_daemon_field(self):
        system = small_system(policy="greendimm")
        system.daemon.monitor_timer = 1.5
        assert system.daemon._since_monitor_s == 1.5
        assert system.daemon.monitor_timer == 1.5
        assert (system.daemon.monitor_period_s
                == system.config.monitor_period_s)

    def test_daemon_adds_no_power_terms(self):
        system = small_system(policy="greendimm")
        assert system.daemon.extra_power_w() == 0.0
        assert system.daemon.runtime_overhead_fraction() == 0.0
        assert system.daemon.policy_metrics() == {}


@pytest.mark.parametrize("name", policy_names())
def test_finished_simulator_freed_without_gc(name):
    # The system holds its policy; a policy that held the system back
    # would keep a finished simulator alive until a full GC pass.
    gc.collect()
    gc.disable()
    try:
        system = small_system(policy=name)
        simulator = ServerSimulator(system, seed=5)
        simulator.run_mix([short_profile(duration_s=2.0)], warmup_s=0.0)
        system_ref = weakref.ref(system)
        simulator_ref = weakref.ref(simulator)
        del system, simulator
        assert system_ref() is None
        assert simulator_ref() is None
    finally:
        gc.enable()


class TestPolicySelection:
    def test_explicit_name_wins(self):
        system = small_system(policy="pasr")
        assert system.policy_name == "pasr"
        assert system.policy.name == "pasr"

    def test_ambient_context_reaches_new_systems(self):
        with policy_scope("srf_only"):
            assert get_active_policy() == "srf_only"
            system = small_system()
            assert system.policy_name == "srf_only"
        assert get_active_policy() is None
        assert small_system().policy_name == DEFAULT_POLICY

    def test_job_config_hash_keys_on_policy(self):
        from repro.runner import ExperimentJob

        plain = ExperimentJob("tab1", fast=True)
        tagged = ExperimentJob("tab1", fast=True, policy="pasr")
        assert plain.config_hash() != tagged.config_hash()
        assert plain.describe() == "tab1 (fast)"
        assert tagged.describe() == "tab1 (fast, policy=pasr)"


class TestInKernelPolicies:
    @pytest.mark.parametrize("name", policy_names())
    def test_short_run_produces_sane_power(self, name):
        system = small_system(policy=name)
        simulator = ServerSimulator(system, seed=5)
        result = simulator.run_workload(short_profile(), epoch_s=1.0)
        assert result.samples
        assert result.dram_energy_j > 0.0
        assert 0.0 <= system.policy.dpd_fraction() <= 1.0
        for sample in result.samples:
            assert 0.0 <= sample.dpd_fraction <= 1.0

    @pytest.mark.parametrize("name", policy_names())
    def test_fast_forward_matches_per_epoch(self, name):
        def energy(fast_forward):
            system = small_system(policy=name)
            simulator = ServerSimulator(system, seed=5,
                                        fast_forward=fast_forward)
            result = simulator.run_workload(short_profile(), epoch_s=1.0)
            return (result.dram_energy_j, result.baseline_dram_energy_j,
                    [s.dpd_fraction for s in result.samples])

        assert energy(True) == energy(False)

        # 9 GiB of demand on the 8 GiB box: both owners hold swap with
        # free memory at the swap-in reserve, where apply() is a strict
        # no-op.  A policy whose monitor no-ops there batches the run as
        # quiescent windows, whose residency is booked in closed form.
        profiles = [flat_profile(5.0, name="a"), flat_profile(4.0, name="b")]
        for churn in (False, True):
            runs = []
            for fast_forward in (False, True):
                sim = ServerSimulator(scenario_system(policy=name), seed=5,
                                      fast_forward=fast_forward)
                result = sim.run_mix(profiles, epoch_s=0.1,
                                     pinned_churn=churn)
                runs.append((exact_observables(result, sim),
                             result.residency.as_dict(), sim.ff_stats))
            (slow, slow_residency, _), (fast, fast_residency, ff) = runs
            assert fast == slow, churn
            assert fast_residency == pytest.approx(slow_residency), churn
            if name != "greendimm":
                assert ff.windows >= 1, churn

    def test_rank_policies_save_energy_when_ranks_idle(self):
        for name in ("srf_only", "ramzzz", "pasr"):
            system = small_system(policy=name)
            simulator = ServerSimulator(system, seed=5)
            result = simulator.run_workload(short_profile(), epoch_s=1.0)
            assert result.dram_energy_saving > 0.0, name


class TestSchema:

    def test_render_rows_is_a_table(self):
        table = render_rows("t", [PolicyRow(policy="p", scenario="s")])
        assert "policy" in table.render()


class TestTournament:
    #: Pinned model error: in-kernel minus closed-form relative gain
    #: over srf_only at the tournament's steady operating point.
    MODEL_GAPS = {"ramzzz": 0.017, "pasr": -0.035}

    def test_fast_matrix_and_ranking_consistency(self):
        from repro.experiments.tournament import (
            analytical_powers,
            analytical_ranking,
            kernel_ranking,
            run,
        )
        from repro.runner import MetricsBus

        bus = MetricsBus()
        result = run(fast=True, policies=("srf_only", "ramzzz", "pasr",
                                          "greendimm"),
                     scenarios=("steady",), metrics=bus)
        assert result.measured["cells"] == 4
        assert result.measured["ranking_consistent"] is True

        # The closed-form estimate is a checked claim: its gain over
        # srf_only must stay within a point of the pinned distance from
        # what the kernel simulates.
        energy = {event["policy"]: event["dram_energy_j"]
                  for event in bus.events
                  if event["event"] == "tournament_row"}
        power = analytical_powers()
        for name, gap in self.MODEL_GAPS.items():
            analytic = 1.0 - power[name] / power["srf_only"]
            kernel = 1.0 - energy[name] / energy["srf_only"]
            assert kernel - analytic == pytest.approx(gap, abs=0.01), name
        ranking = analytical_ranking()
        assert set(ranking) == set(analytical_policy_names())
        rows = [PolicyRow(policy="srf_only", scenario="steady",
                          dram_energy_saving=0.1),
                PolicyRow(policy="pasr", scenario="steady",
                          dram_energy_saving=0.3)]
        assert kernel_ranking(rows) == ["pasr", "srf_only"]

    def test_unknown_names_rejected(self):
        from repro.experiments.tournament import run

        with pytest.raises(ConfigurationError):
            run(fast=True, policies=("bogus",))
        with pytest.raises(ConfigurationError):
            run(fast=True, scenarios=("bogus",))

    def test_parallel_matches_serial(self):
        from repro.experiments.tournament import run

        kwargs = dict(fast=True, policies=("greendimm", "pasr"),
                      scenarios=("steady",))
        assert (run(workers=1, **kwargs).measured
                == run(workers=2, **kwargs).measured)

    def test_cli_smoke(self, tmp_path):
        from repro.cli import main

        metrics = tmp_path / "tournament.jsonl"
        report = tmp_path / "tournament.md"
        code = main(["tournament", "--fast",
                     "--policies", "greendimm", "--policies", "pasr",
                     "--scenarios", "steady",
                     "--metrics", str(metrics), "--report", str(report)])
        assert code == 0
        assert metrics.exists()
        text = report.read_text()
        assert "Policy tournament" in text
        assert "greendimm" in text


class TestGoldenDivergence:
    def test_golden_scenarios_catch_a_diverging_policy(self):
        # The CI must-fail step in script form: replaying a golden
        # scenario under any non-GreenDIMM policy must change the
        # canonical float stream, proving the golden suite would catch
        # an adapter that silently routed to the wrong policy.
        import json
        import pathlib

        from tests.kernel_scenarios import SCENARIOS

        golden = json.loads(
            (pathlib.Path(__file__).parent / "golden"
             / "kernel_golden.json").read_text())
        name = "workload_nochurn"
        with policy_scope("pasr"):
            diverged = SCENARIOS[name](True)
        assert diverged != golden[name]["fast"]


ORG = spec_server_memory()
MODEL = DRAMPowerModel(ORG)
MCF = profile_by_name("429.mcf")
GCC = profile_by_name("403.gcc")


def policy_power(policy, profile, interleaved, n_copies=8):
    ranks = policy.estimate(profile, ORG, interleaved, n_copies)
    return MODEL.power(ranks).total_w, ranks


class TestResidentRanks:
    def test_interleaved_footprint_everywhere(self):
        _power, ranks = policy_power(SelfRefreshTimeoutPolicy, GCC, True,
                                     n_copies=1)
        assert len(ranks) == ORG.total_ranks
        assert all(rank.bandwidth_bytes_per_s > 0 for rank in ranks)

    def test_non_interleaved_minimal(self):
        # 1GB + 2GB kernel -> one 4GB rank.
        assert resident_ranks(GIB + ESTIMATE_KERNEL_BYTES, ORG) == 1

    def test_large_footprint_spans_ranks(self):
        assert resident_ranks(30 * GIB + ESTIMATE_KERNEL_BYTES, ORG) == 8

    def test_capped_at_total(self):
        assert resident_ranks(10_000 * GIB + ESTIMATE_KERNEL_BYTES,
                              ORG) == ORG.total_ranks


class TestSelfRefreshOnly:
    def test_interleaved_no_rank_sleeps(self):
        _power, ranks = policy_power(SelfRefreshTimeoutPolicy, MCF, True)
        for rank in ranks:
            assert PowerState.SELF_REFRESH not in rank.state_residency

    def test_non_interleaved_idle_ranks_sleep(self):
        _power, ranks = policy_power(SelfRefreshTimeoutPolicy, MCF, False)
        sleeping = sum(
            1 for rank in ranks
            if rank.state_residency.get(PowerState.SELF_REFRESH, 0) > 0.5)
        assert sleeping >= 8

    def test_power_lower_without_interleaving(self):
        with_intlv, _ = policy_power(SelfRefreshTimeoutPolicy, MCF, True)
        without, _ = policy_power(SelfRefreshTimeoutPolicy, MCF, False)
        assert without < with_intlv


class TestRAMZzz:
    def test_no_benefit_with_interleaving(self):
        ramzzz, _ = policy_power(RAMZzzKernelPolicy, MCF, True)
        srf, _ = policy_power(SelfRefreshTimeoutPolicy, MCF, True)
        assert ramzzz >= srf * 0.98  # monitoring gains nothing

    def test_beats_srf_without_interleaving(self):
        ramzzz, _ = policy_power(RAMZzzKernelPolicy, GCC, False)
        srf, _ = policy_power(SelfRefreshTimeoutPolicy, GCC, False)
        assert ramzzz < srf

    def test_carries_runtime_overhead(self):
        assert RAMZzzKernelPolicy.RUNTIME_OVERHEAD > 0.0
        assert SelfRefreshTimeoutPolicy.RUNTIME_OVERHEAD == 0.0
        org = MemoryOrganization(device=DDR4_4GB_X8, channels=2,
                                 dimms_per_channel=1, ranks_per_dimm=2)
        system = GreenDIMMSystem(organization=org,
                                 config=GreenDIMMConfig(block_bytes=64 * MIB),
                                 kernel_boot_bytes=256 * MIB,
                                 policy="ramzzz", seed=3)
        assert (system.policy.runtime_overhead_fraction()
                == RAMZzzKernelPolicy.RUNTIME_OVERHEAD)


class TestPASR:
    def test_no_idle_banks_with_interleaving(self):
        _power, ranks = policy_power(PASRKernelPolicy, MCF, True)
        assert all(rank.dpd_fraction == 0.0 for rank in ranks)

    def test_refresh_savings_without_interleaving(self):
        pasr, _ = policy_power(PASRKernelPolicy, MCF, False)
        srf, _ = policy_power(SelfRefreshTimeoutPolicy, MCF, False)
        assert pasr < srf

    def test_idle_bank_fraction_shrinks_with_footprint(self):
        _p1, small = policy_power(PASRKernelPolicy, GCC, False, n_copies=1)
        _p2, big = policy_power(PASRKernelPolicy, MCF, False, n_copies=16)
        assert small[0].dpd_fraction > big[0].dpd_fraction
        for ranks, profile, n_copies in ((small, GCC, 1), (big, MCF, 16)):
            expected = PASR_BANK_SAVING * idle_bank_fraction(
                profile.peak_footprint_bytes * n_copies, ORG)
            assert all(rank.dpd_fraction == expected for rank in ranks)

"""The paper's claims, one table keyed by registry id.

``repro figures check`` pins every experiment's ``measured`` numbers at
a 1e-4 relative tolerance, but a pin only says "unchanged": a re-bless
that broke a paper claim would pass it.  :data:`CLAIMS` states each
claim as a threshold, and this module applies it to every committed pin
under ``tests/expected/figures/`` (no experiment runs for that) and to
fresh fast runs of the cheap experiments.  CI's figures job applies
:data:`FULL_CLAIMS` to a full-length Figure 1 run.
"""

import pytest

from repro.experiments.common import ExperimentResult
from repro.experiments.registry import run_experiment, runners
from repro.figures import default_expected_dir, expected_path, load_expectation

#: Registry id -> claims that hold at any trace length.  Each claim is a
#: Python expression over the experiment's ``measured`` keys; a hyphen in
#: a key reads as ``_`` (``cpu-bound_saving`` -> ``cpu_bound_saving``).
CLAIMS = {
    "fig1": ["ksm_mean_reduction > 0.10"],
    "tab1": ["spread_w < 1e-6"],
    "fig2": [
        "abs(idle_w_256gb - 18.0) <= 0.12 * 18.0",
        "abs(busy_w_256gb - 26.0) <= 0.12 * 26.0",
        "background_fraction_64gb < background_fraction_1tb",
        "busy_w_64gb < busy_w_256gb < busy_w_1tb",
    ],
    "fig3": [
        "2.5 < max_speedup < 6.0",
        "selfrefresh_fraction_interleaved < 0.05",
        "selfrefresh_fraction_non_interleaved > 0.40",
        "selfrefresh_fraction_non_interleaved"
        " > selfrefresh_fraction_interleaved + 0.3",
        "energy_reduction_wo_interleaving > 0.05",
    ],
    "fig6": ["gcc_ratio_128_over_512 > 1.0"],
    "fig7": ["worst_overhead <= 0.035",
             "mcf_overhead_grows_with_smaller_blocks"],
    "tab2": ["gcc_events_128 > mcf_events_128"],
    "tab3": [
        "abs(offline_ms - 1.58) <= 0.05 * 1.58",
        "abs(online_ms - 3.44) <= 0.05 * 3.44",
        "abs(eagain_ms / offline_ms - 4.37 / 1.58) <= 0.05 * 4.37 / 1.58",
        "ebusy_us < 50",
    ],
    "fig8": ["failure_reduction > 0.3", "volatile_fail_more_than_stable"],
    "fig9": [
        "spec_mean_reduction > 0.2",
        "datacenter_mean_reduction > 0.2",
        "greendimm_vs_rank_bank_pp > 0.25",
    ],
    "fig10": ["spec_mean_reduction > 0.1",
              "datacenter_mean_reduction > 0.05"],
    "fig11": ["worst_case <= 0.035"],
    "fig12": [
        "max_offline_blocks > min_offline_blocks",
        "mean_offline_blocks > 60",
        "ksm_extra_blocks > 4",
        "ksm_background_power_reduction > background_power_reduction",
    ],
    "fig13": [
        "dram_reduction_256gb > 0.15",
        "system_reduction_1tb > system_reduction_256gb",
        "ksm_dram_reduction_1tb > dram_reduction_1tb",
    ],
    "daemon-overhead": ["online_core_fraction < 0.01",
                        "offline_core_fraction < 0.01"],
    "tail-latency": [
        "rank_policy_p99_inflation > 1.02",
        "greendimm_p99_inflation == 1.0",
        "greendimm_wakeups <= rank_policy_wakeups",
    ],
    # A smaller reserve gates more capacity but thrashes; the paper's
    # 10%+ reserve keeps swap quiet.
    "ablation-off-thr": [
        "gated_at_3pct >= gated_at_25pct",
        "swap_at_3pct > 0",
        "swap_at_12pct == 0",
    ],
    # Faster sampling only adds overhead: more hot-plug events, no more
    # gated capacity.
    "ablation-monitor-period": [
        "gated_1s >= gated_120s - 0.02",
        "offline_events_1s > offline_events_120s",
    ],
    "ablation-movablecore": ["gated_at_90pct > gated_at_25pct",
                             "gated_at_25pct <= 0.30"],
    "ablation-pair-gating": ["independent >= paired - 1e-9"],
    "colocation": [
        "cpu_bound_saving > 0.25",
        "cpu_bound_worst_overhead <= 0.035",
        "memory_bound_saving > 0.25",
        "memory_bound_worst_overhead <= 0.035",
        "mixed_saving > 0.25",
        "mixed_worst_overhead <= 0.035",
    ],
    "suite-sweep": [
        "profiles_run >= 25",
        "min_saving > 0.0",
        "worst_overhead <= 0.035",
    ],
}

#: Claims that hold only at full trace length.  Tier-1 runs no full
#: experiment; CI's figures job checks these on a full Figure 1 run.
FULL_CLAIMS = {
    "fig1": [
        "abs(mean_utilization - 0.48) < 0.08",
        "min_utilization < 0.20",
        "max_utilization > 0.70",
    ],
}


def broken_claims(name, measured, full=False):
    """The claims for experiment *name* that *measured* does not meet.

    *full* adds the :data:`FULL_CLAIMS` rows.
    """
    names = {key.replace("-", "_"): value for key, value in measured.items()}
    rows = CLAIMS.get(name, []) + (FULL_CLAIMS.get(name, []) if full else [])
    return [row for row in rows
            if not eval(row, {"__builtins__": {"abs": abs}}, names)]


class TestClaims:
    @pytest.mark.parametrize("name", sorted(CLAIMS))
    def test_committed_pin_meets_claims(self, name):
        pin = load_expectation(expected_path(default_expected_dir(), name))
        assert broken_claims(name, pin["values"]) == []

    def test_a_broken_claim_is_reported(self):
        fig9 = {"spec_mean_reduction": 0.19, "datacenter_mean_reduction": 0.3,
                "greendimm_vs_rank_bank_pp": 0.3}
        assert broken_claims("fig9", fig9) == ["spec_mean_reduction > 0.2"]


#: The experiments cheap enough to run fresh in tier-1.
FRESH = ("tab1", "fig2", "fig3", "fig6", "fig7", "tab2", "tab3", "fig8",
         "tail-latency", "daemon-overhead")


@pytest.fixture(scope="module")
def results():
    return {name: run_experiment(name, fast=True) for name in FRESH}


class TestContract:
    def test_all_return_experiment_results(self, results):
        for name, result in results.items():
            assert isinstance(result, ExperimentResult)
            assert result.tables, f"{name} rendered no tables"
            assert result.measured, f"{name} reported nothing"

    def test_renders_are_complete(self, results):
        for result in results.values():
            text = result.render()
            assert result.description in text
            for key in result.measured:
                assert str(key) in text

    def test_paper_keys_subset_of_measured(self, results):
        for name, result in results.items():
            for key in result.paper:
                assert key in result.measured, f"{name}: {key}"


class TestShapes:
    """Fresh fast runs meet the claims table, as their pins do."""

    def test_tab1_flat_without_management(self, results):
        assert broken_claims("tab1", results["tab1"].measured) == []

    def test_fig2_power_grows_with_capacity(self, results):
        assert broken_claims("fig2", results["fig2"].measured) == []

    def test_fig3_interleaving_tradeoff(self, results):
        assert broken_claims("fig3", results["fig3"].measured) == []

    def test_fig6_small_blocks_offline_more(self, results):
        assert broken_claims("fig6", results["fig6"].measured) == []

    def test_fig7_overhead_within_paper_band(self, results):
        assert broken_claims("fig7", results["fig7"].measured) == []

    def test_tab2_event_ordering(self, results):
        assert broken_claims("tab2", results["tab2"].measured) == []

    def test_tab3_latencies_exact(self, results):
        assert broken_claims("tab3", results["tab3"].measured) == []

    def test_fig8_removable_first_helps(self, results):
        assert broken_claims("fig8", results["fig8"].measured) == []

    def test_tail_latency_structural_immunity(self, results):
        measured = results["tail-latency"].measured
        assert broken_claims("tail-latency", measured) == []


class TestDaemonOverheadFast:
    def test_core_shares_negligible(self, results):
        measured = results["daemon-overhead"].measured
        assert broken_claims("daemon-overhead", measured) == []


class TestRegistry:
    def test_every_experiment_registered(self):
        table = runners()
        for name in ("fig1", "tab1", "fig2", "fig3", "fig6", "fig7",
                     "tab2", "tab3", "fig8", "fig9", "fig10", "fig11",
                     "fig12", "fig13", "daemon-overhead", "tail-latency",
                     "ablation-off-thr", "ablation-monitor-period",
                     "ablation-movablecore", "ablation-pair-gating",
                     "colocation", "suite-sweep"):
            assert name in table

    def test_run_experiment_by_name(self):
        result = run_experiment("tab1", fast=True)
        assert result.experiment == "tab1"

    def test_unknown_name_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            run_experiment("fig99")

"""The observability layer: tracer, residency accounting, reports, gate."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import (
    GLOBAL_TRACER,
    ResidencyStats,
    Tracer,
    drain_account,
    drain_trace,
    trace_scope,
)
from repro.obs.report import build_report, load_jsonl, markdown_to_html
from repro.runner import MetricsBus, ParallelRunner, suite_jobs


@pytest.fixture(autouse=True)
def _clean_process_accounts():
    """Obs globals must not leak between tests (or from earlier ones)."""
    GLOBAL_TRACER.disable()
    drain_account()
    yield
    GLOBAL_TRACER.disable()
    drain_account()


class TestTracer:
    def test_disabled_by_default_and_free(self):
        tracer = Tracer()
        tracer.event("daemon.offline", t_s=1.0, block=3)
        tracer.counter("memctrl.wakeups.power_down")
        tracer.gauge("blocks.offline", 12.0)
        assert tracer.snapshot() == {}

    def test_event_counter_gauge_roundtrip(self):
        tracer = Tracer(enabled=True)
        tracer.event("daemon.offline", t_s=1.5, block=3)
        tracer.counter("wakeups", delta=2)
        tracer.counter("wakeups")
        tracer.gauge("offline_blocks", 7.0)
        snap = tracer.snapshot()
        assert snap["events"] == [
            {"kind": "daemon.offline", "t_s": 1.5, "block": 3}]
        assert snap["counters"] == {"wakeups": 3}
        assert snap["gauges"] == {"offline_blocks": 7.0}

    def test_ring_buffer_drops_oldest_and_counts(self):
        tracer = Tracer(capacity=4, enabled=True)
        for i in range(10):
            tracer.event("tick", t_s=float(i))
        snap = tracer.snapshot()
        assert [e["t_s"] for e in snap["events"]] == [6.0, 7.0, 8.0, 9.0]
        assert snap["dropped"] == 6

    def test_span_emits_enter_exit_with_wall(self):
        tracer = Tracer(enabled=True)
        with tracer.span("ff", t_s=10.0, window=1):
            pass
        kinds = [e.kind for e in tracer.events]
        assert kinds == ["ff.enter", "ff.exit"]
        exit_event = tracer.events[-1].as_dict()
        assert exit_event["wall_s"] >= 0.0
        assert exit_event["window"] == 1

    def test_drain_clears_everything(self):
        tracer = Tracer(enabled=True)
        tracer.event("x")
        tracer.counter("c")
        first = tracer.drain()
        assert first["events"] and first["counters"]
        assert tracer.drain() == {}

    def test_trace_scope_restores_enablement(self):
        assert not GLOBAL_TRACER.enabled
        with trace_scope():
            assert GLOBAL_TRACER.enabled
            GLOBAL_TRACER.event("inside")
        assert not GLOBAL_TRACER.enabled
        assert drain_trace()["events"] == [
            {"kind": "inside", "t_s": None}]

    def test_dump_appends_jsonl(self, tmp_path):
        tracer = Tracer(enabled=True)
        tracer.event("a", t_s=1.0)
        tracer.event("b", t_s=2.0)
        path = tmp_path / "trace.jsonl"
        assert tracer.dump(path) == 2
        assert tracer.dump(path) == 2  # append, not truncate
        assert len(load_jsonl(path)) == 4


class TestResidencyStats:
    def test_add_span_buckets_sum_to_span(self):
        stats = ResidencyStats()
        stats.add_span(10.0, active_residency=0.25, dpd_fraction=0.6)
        assert stats.total_s == pytest.approx(10.0)
        assert stats.deep_power_down_s == pytest.approx(6.0)
        assert stats.active_standby_s == pytest.approx(1.0)
        assert stats.precharge_standby_s == pytest.approx(3.0)

    def test_fractions_normalize(self):
        stats = ResidencyStats()
        stats.add_span(4.0, active_residency=0.0, dpd_fraction=0.5)
        fractions = stats.fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)
        assert fractions["deep_power_down"] == pytest.approx(0.5)

    def test_empty_fractions(self):
        assert ResidencyStats().fractions() == {}

    def test_marginally_out_of_range_inputs_are_clamped(self):
        # Upstream vectorized paths can hand over fractions a few ulps
        # outside [0, 1]; unclamped, those booked *negative* seconds.
        stats = ResidencyStats()
        stats.add_span(10.0, active_residency=1.0 + 1e-15,
                       dpd_fraction=-1e-15)
        assert stats.active_standby_s == pytest.approx(10.0)
        assert stats.precharge_standby_s >= 0.0
        assert stats.deep_power_down_s >= 0.0
        assert stats.total_s == pytest.approx(10.0)

    def test_gross_overshoot_cannot_corrupt_fractions(self):
        stats = ResidencyStats()
        stats.add_span(5.0, active_residency=1.5, dpd_fraction=-0.5)
        fractions = stats.fractions()
        assert all(share >= 0.0 for share in fractions.values())
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_negative_span_rejected(self):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError, match="negative residency span"):
            ResidencyStats().add_span(-1e-9, active_residency=0.5,
                                      dpd_fraction=0.0)

    @given(span_s=st.floats(min_value=0.0, max_value=1e6),
           active=st.floats(min_value=-0.25, max_value=1.25),
           dpd=st.floats(min_value=-0.25, max_value=1.25))
    @settings(max_examples=200, deadline=None)
    def test_buckets_never_negative_and_sum_to_span(self, span_s, active,
                                                    dpd):
        stats = ResidencyStats()
        stats.add_span(span_s, active_residency=active, dpd_fraction=dpd)
        for seconds in stats.as_dict().values():
            assert seconds >= 0.0
        assert stats.total_s == pytest.approx(span_s, abs=1e-6 * (span_s + 1))

    @given(epoch_s=st.floats(min_value=0.0, max_value=10.0),
           active=st.floats(min_value=-0.25, max_value=1.25),
           dpd=st.floats(min_value=-0.25, max_value=1.25),
           start=st.floats(min_value=0.0, max_value=1e5),
           n=st.sampled_from((0, 1, 2, 47, 48, 49, 300)))
    @settings(max_examples=150, deadline=None)
    def test_add_epochs_matches_repeated_add_span(self, epoch_s, active,
                                                  dpd, start, n):
        # Both branches (scalar below 48 epochs, numpy from 48), clamped
        # out-of-range fractions included, against the per-epoch loop.
        batched = ResidencyStats(active_standby_s=start,
                                 precharge_standby_s=start / 3.0,
                                 deep_power_down_s=start / 7.0)
        stepped = ResidencyStats(**batched.__dict__)
        batched.add_epochs(epoch_s, active, dpd, n)
        for _ in range(n):
            stepped.add_span(epoch_s, active_residency=active,
                             dpd_fraction=dpd)
        assert ({k: v.hex() for k, v in batched.as_dict().items()}
                == {k: v.hex() for k, v in stepped.as_dict().items()})

    def test_add_epochs_rejects_negative_epochs(self):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError, match="negative residency span"):
            ResidencyStats().add_epochs(-1.0, 0.5, 0.0, 3)


def _residency_of(fast: bool):
    from tests.kernel_scenarios import small_system
    from repro.sim.server import ServerSimulator
    from repro.workloads.registry import profile_by_name

    sim = ServerSimulator(small_system(), seed=5, fast_forward=fast)
    result = sim.run_workload(profile_by_name("429.mcf"), epoch_s=1.0,
                              pinned_churn=True)
    return sim, result


class TestKernelResidency:
    @pytest.mark.parametrize("fast", [False, True])
    def test_buckets_sum_to_run_duration(self, fast):
        sim, result = _residency_of(fast)
        duration = sim.ff_stats.epochs_total * 1.0  # epoch_s
        assert result.residency.total_s == pytest.approx(duration)

    def test_fast_forward_matches_slow_path_closely(self):
        # The ff window accounts its no-churn span in closed form; the
        # slow path epoch by epoch.  Same operating points, so the
        # buckets agree up to float rounding.
        slow = _residency_of(False)[1].residency
        fast = _residency_of(True)[1].residency
        for state, seconds in slow.as_dict().items():
            assert fast.as_dict()[state] == pytest.approx(seconds)

    def test_runs_publish_to_process_account(self):
        drain_account()
        _residency_of(True)
        account = drain_account()["residency"]
        assert account["runs"] == 1
        assert account["duration_s"] > 0.0
        assert sum(account["states"].values()) == pytest.approx(
            account["duration_s"])


class TestDrainAcrossWorkers:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_job_end_carries_trace_from_the_worker(self, tmp_path, workers):
        path = tmp_path / "metrics.jsonl"
        metrics = MetricsBus(path=path)
        with trace_scope():
            # fault-storm drives the epoch kernel (tab1/fig3 are
            # analytic), so its trace carries kernel run markers.
            ParallelRunner(workers=workers, metrics=metrics).run(
                suite_jobs(["fault-storm"], fast=True))
        events = load_jsonl(path)
        (job_end,) = [e for e in events if e["event"] == "job_end"]
        trace = job_end.get("trace") or {}
        kinds = {e["kind"] for e in trace.get("events", [])}
        assert any(kind.startswith("daemon.") for kind in kinds)
        assert any(kind.startswith("hotplug.") for kind in kinds)
        # ...and nothing lingers in this process afterwards: whichever
        # process ran the job drained it at the source.
        assert drain_trace() == {}


class TestUtilizationEdgeCases:
    def test_zero_elapsed_suite_reports_zero_utilization(self):
        # A sub-millisecond suite on a fast machine can measure
        # elapsed_s == 0; the busy ratio must degrade to 0.0, not
        # raise ZeroDivisionError.
        metrics = MetricsBus()
        metrics.job_end("exp", wall_s=0.5, cached=False)
        assert metrics.utilization(4, 0.0) == 0.0
        assert metrics.utilization_raw(4, 0.0) == 0.0
        summary = metrics.suite_end(4, 0.0)
        assert summary["utilization"] == 0.0

    def test_zero_workers_reports_zero_utilization(self):
        metrics = MetricsBus()
        metrics.job_end("exp", wall_s=0.5, cached=False)
        assert metrics.utilization_raw(0, 10.0) == 0.0


class TestReport:
    @pytest.fixture(scope="class")
    def fleet_metrics(self, tmp_path_factory):
        from repro.sim.fleet import FleetSource, run_fleet

        path = tmp_path_factory.mktemp("obs") / "metrics.jsonl"
        metrics = MetricsBus(path=path)
        source = FleetSource(num_servers=2, duration_s=2 * 3600.0, seed=7)
        with trace_scope():
            run_fleet(source, metrics=metrics)
        drain_trace()
        return load_jsonl(path)

    def test_fleet_report_has_every_section(self, fleet_metrics):
        report = build_report(fleet_metrics, title="fleet test")
        for heading in ("# fleet test", "## Suite summary", "## Jobs",
                        "## Energy & savings", "## Power-state residencies",
                        "## Daemon decision timeline", "## Fleet servers"):
            assert heading in report
        assert "daemon.offline" in report

    def test_report_residencies_cover_both_servers(self, fleet_metrics):
        job_ends = [e for e in fleet_metrics if e["event"] == "job_end"]
        assert len(job_ends) == 2
        for event in job_ends:
            residency = event["residency"]
            assert residency["duration_s"] > 0.0
            assert sum(residency["states"].values()) == pytest.approx(
                residency["duration_s"])

    def test_cli_report_writes_markdown_and_html(self, fleet_metrics,
                                                 tmp_path):
        from repro.cli import main

        metrics_path = tmp_path / "metrics.jsonl"
        with metrics_path.open("w") as handle:
            for event in fleet_metrics:
                handle.write(json.dumps(event) + "\n")
        md_out = tmp_path / "report.md"
        assert main(["report", str(metrics_path), "--out",
                     str(md_out)]) == 0
        assert "## Power-state residencies" in md_out.read_text()
        html_out = tmp_path / "report.html"
        assert main(["report", str(metrics_path), "--out",
                     str(html_out)]) == 0
        assert html_out.read_text().startswith("<!doctype html>")

    def test_markdown_to_html_renders_tables(self):
        html = markdown_to_html("# T\n\n| a | b |\n| --- | --- |\n"
                                "| 1 | **2** |\n")
        assert "<h1>T</h1>" in html
        assert "<td>1</td>" in html
        assert "<strong>2</strong>" in html


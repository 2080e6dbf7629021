"""The parallel experiment engine: jobs, cache, metrics, aggregation."""

import json

import pytest

from repro.analysis.aggregate import SuiteAggregator
from repro.errors import ConfigurationError
from repro.experiments.common import ExperimentResult
from repro.runner import (
    ExperimentJob,
    JobOutcome,
    MetricsBus,
    ParallelRunner,
    ResultCache,
    code_version,
    fan_out,
    suite_jobs,
)

FAST_PAIR = ["tab1", "fig3"]  # two cheap, deterministic experiments


class TestJobs:
    def test_suite_jobs_default_is_whole_registry(self):
        from repro.experiments.registry import runners

        jobs = suite_jobs(fast=True)
        assert [j.experiment for j in jobs] == list(runners())
        assert all(j.fast for j in jobs)

    def test_all_keyword_expands(self):
        assert len(suite_jobs(["all"])) == len(suite_jobs())

    def test_unknown_name_rejected_before_running(self):
        with pytest.raises(ConfigurationError):
            suite_jobs(["tab1", "fig99"])

    def test_job_seed_is_stable(self):
        assert (ExperimentJob("tab1").job_seed
                == ExperimentJob("tab1").job_seed)
        assert (ExperimentJob("tab1").job_seed
                != ExperimentJob("fig3").job_seed)
        assert ExperimentJob("tab1", seed=7).job_seed == 7

    def test_config_hash_covers_fast_flag(self):
        assert (ExperimentJob("tab1", fast=True).config_hash()
                != ExperimentJob("tab1", fast=False).config_hash())

    def test_config_hash_covers_fast_forward(self):
        # The two simulation paths are bit-for-bit identical by
        # contract, but a cached fast run must never alias a
        # ``--no-fast-forward`` verification run.
        fast = ExperimentJob("tab1", fast=True)
        reference = ExperimentJob("tab1", fast=True, fast_forward=False)
        assert fast.config_hash() != reference.config_hash()
        assert reference.describe() == "tab1 (fast, no-ff)"

    def test_suite_jobs_stamp_fast_forward(self):
        assert all(not j.fast_forward
                   for j in suite_jobs(FAST_PAIR, fast_forward=False))
        assert all(j.fast_forward for j in suite_jobs(FAST_PAIR))

    def test_config_hash_covers_fault_plan(self):
        from repro.faults import storm_plan

        bare = ExperimentJob("tab1", fast=True)
        storm_a = ExperimentJob("tab1", fast=True,
                                fault_plan=storm_plan(1).canonical())
        storm_b = ExperimentJob("tab1", fast=True,
                                fault_plan=storm_plan(2).canonical())
        assert len({bare.config_hash(), storm_a.config_hash(),
                    storm_b.config_hash()}) == 3

    def test_suite_jobs_stamp_fault_plan(self):
        from repro.faults import storm_plan

        plan_json = storm_plan(5).canonical()
        jobs = suite_jobs(FAST_PAIR, fast=True, fault_plan=plan_json)
        assert all(j.fault_plan == plan_json for j in jobs)


class TestCache:
    def test_key_stable_across_instances(self, tmp_path):
        job = ExperimentJob("tab1", fast=True)
        first = ResultCache(tmp_path / "a").key(job)
        second = ResultCache(tmp_path / "b").key(job)
        assert first == second

    def test_key_changes_with_code_version(self, tmp_path):
        job = ExperimentJob("tab1", fast=True)
        assert (ResultCache(tmp_path, version="v1").key(job)
                != ResultCache(tmp_path, version="v2").key(job))

    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = ExperimentJob("tab1", fast=True)
        result = ExperimentResult(experiment="tab1", description="d",
                                  measured={"x": 1.0})
        assert cache.get(job) is None
        cache.put(job, result, wall_s=0.5)
        loaded = cache.get(job)
        assert loaded == result
        entries = cache.entries()
        assert len(entries) == 1
        assert entries[0]["experiment"] == "tab1"
        assert entries[0]["code_version"] == code_version()

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = ExperimentJob("tab1", fast=True)
        cache.put(job, ExperimentResult("tab1", "d"), wall_s=0.0)
        (tmp_path / f"{cache.key(job)}.pkl").write_bytes(b"not a pickle")
        assert cache.get(job) is None

    def test_torn_meta_is_a_miss(self, tmp_path):
        # Regression: the meta JSON used to be written directly, so a
        # crash mid-write left a valid pickle beside torn metadata —
        # and get() replayed the entry while entries() silently skipped
        # it.  A torn meta must poison the whole entry instead.
        cache = ResultCache(tmp_path)
        job = ExperimentJob("tab1", fast=True)
        cache.put(job, ExperimentResult("tab1", "d"), wall_s=0.0)
        meta = tmp_path / f"{cache.key(job)}.json"
        meta.write_text(meta.read_text()[:17])  # torn mid-write
        assert cache.get(job) is None
        assert not (tmp_path / f"{cache.key(job)}.pkl").exists()
        assert not meta.exists()

    def test_missing_meta_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = ExperimentJob("tab1", fast=True)
        cache.put(job, ExperimentResult("tab1", "d"), wall_s=0.0)
        (tmp_path / f"{cache.key(job)}.json").unlink()
        assert cache.get(job) is None

    def test_put_is_atomic(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = ExperimentJob("tab1", fast=True)
        cache.put(job, ExperimentResult("tab1", "d"), wall_s=0.0)
        assert cache.get(job) is not None
        assert list(tmp_path.glob("*.tmp")) == []

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(ExperimentJob("tab1"), ExperimentResult("tab1", "d"))
        assert cache.clear() == 1
        assert cache.entries() == []


class TestEngine:
    def test_rejects_zero_workers(self):
        with pytest.raises(ConfigurationError):
            ParallelRunner(workers=0)

    def test_serial_and_parallel_agree_bitwise(self, tmp_path):
        jobs = suite_jobs(FAST_PAIR, fast=True)
        serial = ParallelRunner(workers=1).run(jobs)
        parallel = ParallelRunner(workers=2).run(jobs)
        assert [o.job for o in serial] == [o.job for o in parallel]
        for left, right in zip(serial, parallel):
            assert left.ok and right.ok
            assert left.result == right.result
            assert left.result.render() == right.result.render()

    def test_warm_cache_skips_every_job(self, tmp_path):
        jobs = suite_jobs(FAST_PAIR, fast=True)
        cache = ResultCache(tmp_path)
        cold_metrics = MetricsBus()
        cold = ParallelRunner(workers=2, cache=cache,
                              metrics=cold_metrics).run(jobs)
        assert cold_metrics.cache_misses == len(jobs)
        assert cold_metrics.cache_hits == 0

        warm_metrics = MetricsBus()
        warm = ParallelRunner(workers=2, cache=cache,
                              metrics=warm_metrics).run(jobs)
        assert warm_metrics.cache_hits == len(jobs)
        assert warm_metrics.cache_misses == 0
        for before, after in zip(cold, warm):
            assert after.cached
            assert before.result == after.result

    def test_code_version_invalidates_cache(self, tmp_path):
        jobs = suite_jobs(["tab1"], fast=True)
        ParallelRunner(workers=1, cache=ResultCache(tmp_path)).run(jobs)
        stale = ResultCache(tmp_path, version="other-code")
        metrics = MetricsBus()
        ParallelRunner(workers=1, cache=stale, metrics=metrics).run(jobs)
        assert metrics.cache_misses == 1

    def test_failures_are_contained(self, monkeypatch):
        jobs = [ExperimentJob("tab1", fast=True)]
        import repro.runner.engine as engine

        def boom(job):
            raise RuntimeError("injected failure")

        monkeypatch.setattr(engine, "_timed_execute", boom)
        outcomes = ParallelRunner(workers=1).run(jobs)
        assert len(outcomes) == 1
        assert not outcomes[0].ok
        assert "injected failure" in outcomes[0].error

    def test_metrics_jsonl_file(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        metrics = MetricsBus(path=path)
        ParallelRunner(workers=1, metrics=metrics).run(
            suite_jobs(["tab1"], fast=True))
        events = [json.loads(line) for line in path.read_text().splitlines()]
        kinds = [e["event"] for e in events]
        assert kinds == ["job_start", "job_end", "suite_end"]
        summary = events[-1]
        assert summary["jobs"] == 1
        assert summary["cache_misses"] == 1
        assert 0.0 <= summary["utilization"] <= 1.0


class TestFanOut:
    def test_preserves_item_order(self):
        import math

        assert fan_out(math.sqrt, [16, 9, 4], workers=1) == [4, 3, 2]

    def test_parallel_matches_serial(self):
        import math

        items = list(range(1, 12))
        assert (fan_out(math.factorial, items, workers=3)
                == fan_out(math.factorial, items, workers=1))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_nested_fan_out_account_reaches_the_job(self, workers):
        # The fleet fans its servers out with no bus of its own; their
        # kernel runs must land on the enclosing job's account.
        from repro.experiments.fleet import FAST_SERVERS

        metrics = MetricsBus()
        ParallelRunner(workers=workers, metrics=metrics).run(
            [ExperimentJob("fleet", fast=True)])
        (job_end,) = [e for e in metrics.events if e["event"] == "job_end"]
        assert job_end["residency"]["runs"] == FAST_SERVERS
        perf = job_end["perf"]
        assert perf["epochs_stepped"] + perf["epochs_fast_forwarded"] > 0

    def test_nested_pool_accounts_reach_the_job(self, monkeypatch):
        # GREENDIMM_FLEET_WORKERS=2 runs the fleet's own fan-out on a
        # 2-process pool with no bus: each worker's drained account must
        # fold back into the job's, exactly as the inline fan-out books it.
        from repro.experiments.fleet import FAST_SERVERS

        ends = []
        for fleet_workers in ("1", "2"):
            monkeypatch.setenv("GREENDIMM_FLEET_WORKERS", fleet_workers)
            metrics = MetricsBus()
            ParallelRunner(workers=1, metrics=metrics).run(
                [ExperimentJob("fleet", fast=True)])
            (job_end,) = [e for e in metrics.events
                          if e["event"] == "job_end"]
            ends.append(job_end)
        inline, pooled = ends
        assert pooled["residency"]["runs"] == FAST_SERVERS
        assert pooled["residency"] == inline["residency"]
        assert pooled["perf"] == inline["perf"]

    def test_absorbed_accounts_add_up(self):
        from repro.obs import drain_account
        from repro.obs.residency import absorb_account

        drain_account()  # start from an empty process account
        worker = {
            "faults": {"offline:EBUSY": 2},
            "perf": {"epochs_stepped": 5, "stable_spans": 1},
            "residency": {
                "states": {"active_standby": 1.0, "precharge_standby": 2.0,
                           "power_down": 0.0, "self_refresh": 0.0,
                           "deep_power_down": 3.0},
                "dram_energy_j": 1.5, "baseline_dram_energy_j": 2.5,
                "duration_s": 6.0, "runs": 1}}
        absorb_account(worker)
        absorb_account(worker)
        residency = worker["residency"]
        assert drain_account() == {
            "faults": {"offline:EBUSY": 4},
            "perf": {"epochs_stepped": 10, "stable_spans": 2},
            "residency": {
                "states": {state: 2 * seconds for state, seconds
                           in residency["states"].items()},
                "dram_energy_j": 3.0, "baseline_dram_energy_j": 5.0,
                "duration_s": 12.0, "runs": 2}}


def _outcome(name, ok=True, cached=False, wall=0.1):
    result = ExperimentResult(experiment=name, description="d") if ok else None
    return JobOutcome(job=ExperimentJob(name), result=result, wall_s=wall,
                      cached=cached, error=None if ok else "boom")


class TestAggregator:
    def test_out_of_order_completion_renders_canonically(self):
        shuffled = SuiteAggregator(canonical_order=["tab1", "fig3", "fig8"])
        ordered = SuiteAggregator(canonical_order=["tab1", "fig3", "fig8"])
        for name in ("fig8", "tab1", "fig3"):
            shuffled.add(_outcome(name))
        for name in ("tab1", "fig3", "fig8"):
            ordered.add(_outcome(name))
        assert shuffled.render() == ordered.render()
        assert list(shuffled.results()) == ["tab1", "fig3", "fig8"]

    def test_measured_counters(self):
        agg = SuiteAggregator(canonical_order=["a", "b", "c"])
        agg.add(_outcome("a", cached=True, wall=0.0))
        agg.add(_outcome("b", wall=0.5))
        agg.add(_outcome("c", ok=False))
        measured = agg.measured()
        assert measured["jobs"] == 3
        assert measured["succeeded"] == 2
        assert measured["failed"] == 1
        assert measured["cache_hits"] == 1
        assert agg.failures() == {"c": "boom"}
        assert "FAILED" in agg.render()

    def test_unknown_experiments_sort_last_by_name(self):
        agg = SuiteAggregator(canonical_order=["tab1"])
        agg.add(_outcome("zzz-extension"))
        agg.add(_outcome("aaa-extension"))
        agg.add(_outcome("tab1"))
        assert list(agg.results()) == ["tab1", "aaa-extension",
                                       "zzz-extension"]


class TestErrorPathDraining:
    """A failed job's counters must land on *its* outcome, not leak
    into the next job that runs in the same process."""

    def test_failed_job_keeps_its_counters(self, monkeypatch, tmp_path):
        import repro.runner.engine as engine
        from repro.obs import drain_account, residency

        drain_account()  # start from an empty process account

        def fake_execute(job):
            if job.experiment == "tab1":
                residency.GLOBAL_ACCOUNT.epochs_stepped += 7
                raise RuntimeError("mid-job failure")
            return ExperimentResult(experiment=job.experiment,
                                    description="d")

        monkeypatch.setattr(engine, "execute_job", fake_execute)
        metrics = MetricsBus(path=tmp_path / "metrics.jsonl")
        outcomes = ParallelRunner(workers=1, metrics=metrics).run(
            [ExperimentJob("tab1", fast=True),
             ExperimentJob("fig3", fast=True)])

        failed, clean = outcomes
        assert not failed.ok and clean.ok
        assert failed.account["perf"] == {"epochs_stepped": 7}
        assert "perf" not in clean.account  # nothing leaked forward

        ends = {e["experiment"]: e for e in metrics.events
                if e["event"] == "job_end"}
        assert ends["tab1"]["perf"] == {"epochs_stepped": 7}
        assert "mid-job failure" in ends["tab1"]["error"]
        assert "perf" not in ends["fig3"]

    def test_harness_failure_still_drains(self, monkeypatch):
        import repro.runner.engine as engine
        from repro.obs import drain_account, residency

        def boom(job):
            residency.GLOBAL_ACCOUNT.power_cache_hits += 3
            raise RuntimeError("harness broke")

        monkeypatch.setattr(engine, "_timed_execute", boom)
        ParallelRunner(workers=1).run([ExperimentJob("tab1", fast=True)])

        assert drain_account() == {}  # nothing left loaded


class TestTimestamps:
    def test_events_carry_wall_and_monotonic_clocks(self):
        metrics = MetricsBus()
        first = metrics.emit("a")
        second = metrics.emit("b")
        for event in (first, second):
            assert "ts" in event and "ts_mono" in event
            assert event["ts_mono"] >= 0.0
        assert second["ts_mono"] >= first["ts_mono"]

    def test_report_orders_on_the_monotonic_clock(self):
        from repro.obs.report import build_report

        # Wall clock stepped backwards mid-suite (NTP): ``ts`` says
        # late-job ran first, ``ts_mono`` knows better.
        events = [
            {"event": "job_end", "experiment": "late-job", "ts": 50.0,
             "ts_mono": 2.0, "wall_s": 0.1, "cached": False},
            {"event": "job_end", "experiment": "early-job", "ts": 100.0,
             "ts_mono": 1.0, "wall_s": 0.1, "cached": False},
        ]
        report = build_report(events)
        assert report.index("early-job") < report.index("late-job")

    def test_report_falls_back_to_wall_clock(self):
        from repro.obs.report import build_report

        events = [
            {"event": "job_end", "experiment": "second", "ts": 2.0,
             "wall_s": 0.1, "cached": False},
            {"event": "job_end", "experiment": "first", "ts": 1.0,
             "wall_s": 0.1, "cached": False},
        ]
        report = build_report(events)
        assert report.index("first") < report.index("second")


class TestInterrupt:
    def test_runner_emits_interrupted_suite_end(self, monkeypatch):
        import repro.runner.engine as engine

        def boom(job):
            raise KeyboardInterrupt

        monkeypatch.setattr(engine, "_timed_execute", boom)
        metrics = MetricsBus()
        with pytest.raises(KeyboardInterrupt):
            ParallelRunner(workers=1, metrics=metrics).run(
                [ExperimentJob("tab1", fast=True)])
        last = metrics.events[-1]
        assert last["event"] == "suite_end"
        assert last["interrupted"] is True

    def test_fan_out_emits_interrupted_suite_end(self):
        def boom(item):
            raise KeyboardInterrupt

        bus = MetricsBus()
        with pytest.raises(KeyboardInterrupt):
            fan_out(boom, [1, 2, 3], workers=1, metrics=bus)
        last = bus.events[-1]
        assert last["event"] == "suite_end"
        assert last["interrupted"] is True

    def test_clean_suite_end_is_not_interrupted(self):
        import math

        bus = MetricsBus()
        fan_out(math.sqrt, [4.0], workers=1, metrics=bus)
        assert bus.events[-1]["interrupted"] is False

    def test_cli_maps_interrupt_to_130(self, monkeypatch, capsys):
        import repro.cli as cli

        def boom(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "cmd_run", boom)
        assert cli.main(["run", "tab1"]) == 130
        assert "interrupted" in capsys.readouterr().err


_SWEEP_SCRIPT = '''
import sys
import time

from repro.runner import MetricsBus, fan_out


def crawl(x):
    time.sleep(30)
    return x


if __name__ == "__main__":
    bus = MetricsBus(path=sys.argv[1])
    try:
        fan_out(crawl, list(range(8)), workers=2, metrics=bus)
    except KeyboardInterrupt:
        sys.exit(130)
    sys.exit(0)
'''


class TestInterruptedSweepSubprocess:
    def test_sigint_cancels_a_two_worker_sweep(self, tmp_path):
        import os
        import signal
        import subprocess
        import sys
        import time

        script = tmp_path / "sweep.py"
        script.write_text(_SWEEP_SCRIPT)
        metrics_path = tmp_path / "metrics.jsonl"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, ["src", env.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, str(script), str(metrics_path)],
            cwd="/root/repo", env=env)
        try:
            # Wait until the sweep has actually started jobs, then
            # interrupt it mid-flight.
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if metrics_path.exists() \
                        and "job_start" in metrics_path.read_text():
                    break
                time.sleep(0.1)
            else:
                pytest.fail("sweep never started")
            time.sleep(0.5)
            proc.send_signal(signal.SIGINT)
            returncode = proc.wait(timeout=60.0)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        # 8 jobs x 30 s on 2 workers would run for minutes; the
        # interrupt must stop the sweep promptly, exit non-zero, and
        # close the metrics stream with an interrupted suite_end.
        assert returncode == 130
        events = [json.loads(line)
                  for line in metrics_path.read_text().splitlines()]
        assert events[-1]["event"] == "suite_end"
        assert events[-1]["interrupted"] is True


class TestUtilization:
    def test_raw_is_unclamped_and_clamp_is_visible(self):
        metrics = MetricsBus()
        # Over-accounted: 3 s of job wall in a 1-worker, 2 s suite.
        metrics.job_end("a", 3.0, cached=False)
        summary = metrics.suite_end(workers=1, elapsed_s=2.0)
        assert summary["utilization"] == 1.0
        assert summary["utilization_raw"] == pytest.approx(1.5)
        assert metrics.utilization_raw(1, 2.0) == pytest.approx(1.5)

    def test_degenerate_inputs_are_zero(self):
        metrics = MetricsBus()
        assert metrics.utilization_raw(0, 1.0) == 0.0
        assert metrics.utilization_raw(2, 0.0) == 0.0


class TestCLIIntegration:
    def test_run_two_experiments_parallel_with_cache(self, tmp_path, capsys):
        from repro.cli import main

        argv = ["run", "tab1", "fig3", "--fast", "--parallel", "2",
                "--cache-dir", str(tmp_path / "cache"),
                "--metrics", str(tmp_path / "metrics.jsonl")]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "Experiment suite summary" in out
        assert "2 cached, 0 executed" not in out  # cold run executes

        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "2 cached, 0 executed" in out  # warm run is all hits

    def test_run_unknown_in_list_rejected(self, capsys):
        from repro.cli import main

        assert main(["run", "tab1", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

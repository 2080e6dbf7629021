"""Tests of the end-to-end benchmark harness itself.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import copy
import dataclasses
import json
import pathlib
import pickle
import time

import bench
import child
import pytest
import stats
import workloads
from tracing import RAISED, LayerTracer

ROOT = pathlib.Path(__file__).resolve().parents[2]


# --- the percentile rule ------------------------------------------------------


@pytest.mark.parametrize("n, expected", [
    (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0),
    (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (10_000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected
    if expected is not None:
        assert n * (1 - expected / 100) >= stats.SAMPLES_BEYOND - 1e-9


@pytest.mark.parametrize("p, n", [(50.0, 20), (90.0, 100), (95.0, 200),
                                  (99.0, 1000)])
def test_samples_needed_inverts_the_rule(p, n):
    assert stats.samples_needed(p) == n
    assert stats.tail_percentile(n) == p


@pytest.mark.parametrize("name", workloads.BATCH_WORKLOADS)
def test_tail_percentile_follows_the_rule_at_three_reps(name):
    units = len(workloads.make_batch(name, seed=1, rep=0))
    assert bench.TAIL_PERCENTILE[name] == stats.tail_percentile(
        bench.MIN_BATCH_REPS * units)


def test_percentile_interpolates_between_ranks():
    values = [float(v) for v in range(1, 11)]
    assert stats.percentile(values, 50) == 5.5
    assert stats.percentile(values, 0) == 1.0
    assert stats.percentile(values, 100) == 10.0
    assert stats.percentile(list(reversed(values)), 90) == pytest.approx(9.1)


def test_summary_states_the_sample_count():
    s = stats.summary([3.0, 1.0, 2.0, 4.0])
    assert (s["value"], s["n"]) == (2.5, 4)
    assert s["q1"] <= s["value"] <= s["q3"]
    assert stats.summary([7.0]) == {"value": 7.0, "q1": 7.0, "q3": 7.0,
                                    "n": 1}


# --- self-time arithmetic -----------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _nested(tracer: LayerTracer, clock: FakeClock):
    def leaf():
        clock.now += 2.0

    leaf = tracer.wrap(leaf, "leaf")

    def mid():
        clock.now += 1.0
        leaf()
        clock.now += 3.0
        leaf()

    mid = tracer.wrap(mid, "mid")

    def top():
        clock.now += 0.5
        mid()
        leaf()
        clock.now += 0.25

    return tracer.wrap(top, "top")


def test_self_time_subtracts_wrapped_children():
    clock = FakeClock()
    tracer = LayerTracer(clock)
    _nested(tracer, clock)()
    assert tracer.self_s == {"leaf": 6.0, "mid": 4.0, "top": 0.75}
    assert tracer.calls == {"leaf": 3, "mid": 1, "top": 1}
    assert sum(tracer.self_s.values()) == clock.now


def test_calibrated_cost_is_subtracted_per_call():
    clock = FakeClock()
    tracer = LayerTracer(clock)
    tracer.inner_cost_s, tracer.outer_cost_s = 0.125, 0.25
    _nested(tracer, clock)()
    # Each call sheds its inner cost; each child also charged its parent
    # its outer cost, which the parent does not count as its own.
    assert tracer.self_s["leaf"] == 3 * (2.0 - 0.125)
    assert tracer.self_s["mid"] == 8.0 - 2 * (2.0 + 0.25) - 0.125
    assert tracer.self_s["top"] == (10.75 - (8.0 + 0.25) - (2.0 + 0.25)
                                    - 0.125)
    assert tracer.overhead_s == 5 * 0.375


def test_a_raising_call_is_still_accounted():
    clock = FakeClock()
    tracer = LayerTracer(clock)
    seen = []

    def boom():
        clock.now += 1.0
        raise KeyError("x")

    boom = tracer.wrap(boom, "boom", hook=lambda args, result:
                       seen.append(result))
    outer = tracer.wrap(lambda: pytest.raises(KeyError, boom), "outer")
    outer()
    assert seen == [RAISED]
    assert tracer.self_s == {"boom": 1.0, "outer": 0.0}
    assert tracer._stack == [1.0]


def test_install_wraps_and_uninstall_restores():
    from repro.os.buddy import BuddyAllocator

    original = BuddyAllocator.alloc_pages
    tracer = LayerTracer()
    tracer.install()
    try:
        assert BuddyAllocator.alloc_pages is not original
        assert BuddyAllocator.alloc_pages.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert BuddyAllocator.alloc_pages is original


# --- units, fail-soft counting and digests --------------------------------------


def tiny_unit(plan_seed: int = 5) -> workloads.Unit:
    """One storm cell, shrunk to a 20 s profile."""
    from repro.faults import storm_plan
    from repro.workloads.registry import profile_by_name

    profile = dataclasses.replace(profile_by_name("429.mcf"),
                                  duration_s=20.0)
    plan = storm_plan(plan_seed, intensity=4.0, duration_s=20.0,
                      num_blocks=32)
    return workloads.Unit(uid="tiny", kind="cell", sim_s=20.0,
                          args=(profile, "greendimm", plan, 11, 12))


def test_digest_of_a_seeded_unit_repeats():
    first = workloads.run_unit(tiny_unit())
    again = workloads.run_unit(tiny_unit())
    assert first == again
    assert workloads.digest([first]) == workloads.digest([again])
    assert workloads.check_fields(tiny_unit(), first) == []
    other = workloads.run_unit(tiny_unit(plan_seed=6))
    assert workloads.digest([other]) != workloads.digest([first])


def test_a_failing_unit_is_counted_not_fatal(tmp_path, capsys):
    broken = workloads.Unit(uid="broken", kind="nonsense", sim_s=5.0,
                            args=())
    good = tiny_unit()
    inputs = tmp_path / "inputs.pkl"
    inputs.write_bytes(pickle.dumps([broken, good]))
    assert child.main(["child.py", str(inputs), repr(time.monotonic()),
                       "run"]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["failures"] == [
        {"uid": "broken", "error": "ValueError: unknown unit kind "
                                   "'nonsense'"}]
    assert result["fields"][0] is None and result["fields"][1]
    assert result["sim_s"] == good.sim_s
    assert len(result["walls_s"]) == 2

    workload = bench.BatchWorkload("policy_storm", seed=1, workdir=tmp_path)
    workload.units[0] = [broken, good]
    workload.runs.append(dict(result, rep=0))
    outcome = bench.batch_outcome(workload, expected={})
    assert (outcome["attempted"], outcome["failed"]) == (2, 1)
    assert outcome["fail_frac"] == 0.5
    assert outcome["failed_ids"][0]["uid"] == "broken"
    assert outcome["problems"] == []


def test_batches_are_a_function_of_seed_and_rep():
    def ids(seed, rep):
        return [u.uid for u in workloads.make_batch("mix_ramp", seed, rep)]

    assert ids(3, 0) == ids(3, 0)
    assert ids(3, 0) != ids(3, 1)
    assert ids(3, 0) != ids(4, 0)


def test_mix_batches_use_every_profile_equally():
    from repro.workloads.registry import all_profiles

    units = workloads.make_batch("mix_ramp", 5, 0)
    counts: dict = {}
    for unit in units:
        assert 2 <= len(unit.args[0]) <= 4
        for profile in unit.args[0]:
            counts[profile.name] = counts.get(profile.name, 0) + 1
    assert counts == {name: workloads.MIX_COPIES for name in all_profiles()}


def test_pinned_digest_mismatch_is_a_problem():
    expected = {"seed": 100, "seconds": 20.0,
                "digests": {"mix_ramp": ["a" * 64, "b" * 64]}}
    assert bench.digest_problems("mix_ramp", 100, ["a" * 64, "b" * 64],
                                 expected) == []
    assert bench.digest_problems("mix_ramp", 101, ["c" * 64],
                                 expected) == []
    assert len(bench.digest_problems("mix_ramp", 100, ["a" * 64, "c" * 64],
                                     expected)) == 1


# --- compare --------------------------------------------------------------------


def test_compare_applies_the_bound_to_paired_reps():
    base = [100.0, 120.0, 90.0, 110.0]
    same = stats.compare_metric(base, [v * 1.02 for v in base], "lower", 0.1)
    assert same["status"] == "ok"
    slower = stats.compare_metric(base, [v * 0.8 for v in base], "higher",
                                  0.1)
    assert slower["status"] == "regressed"
    assert slower["change"] == pytest.approx(0.2)
    noisy = stats.compare_metric(base, [100.0, 170.0, 60.0, 115.0],
                                 "lower", 0.1)
    assert noisy["status"] == "unresolved"


# --- BENCHMARK.json -------------------------------------------------------------


def benchmark_doc():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_the_committed_benchmark_is_valid():
    doc = benchmark_doc()
    assert stats.validate_benchmark(doc) == []
    assert len(doc["end_to_end"]) <= 16
    assert len(doc["per_layer"]) <= 128
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert stats._NAME.match(metric["name"])
        assert metric["unit"] and metric["better"] in ("higher", "lower")
    assert all("bound" in m for m in doc["end_to_end"])


def test_the_harness_reports_every_per_layer_metric():
    names = {m["name"] for m in benchmark_doc()["per_layer"]}
    assert set(bench.layer_metrics([], [])) == names


@pytest.mark.parametrize("mutate, complaint", [
    (lambda d: d["end_to_end"][0].update(name="bad name"), "bad name"),
    (lambda d: d["end_to_end"][0].pop("bound"), "keys must be"),
    (lambda d: d["end_to_end"][0].pop("unit"), "keys must be"),
    (lambda d: d["end_to_end"][0].update(bound=0.5), "bound in"),
    (lambda d: d["end_to_end"].extend(
        {"name": f"m{i}", "unit": "s", "better": "lower", "bound": 0.1}
        for i in range(16)), "1 to 16 metrics"),
    (lambda d: d["per_layer"].extend(
        {"name": f"l{i}", "unit": "s", "better": "lower"}
        for i in range(128)), "1 to 128 metrics"),
    (lambda d: d["per_layer"].append(dict(d["per_layer"][0])), "used twice"),
    (lambda d: d["end_to_end"][1].update(bound=0.01), "largest bound"),
    (lambda d: d.update(run_seconds=61), "run_seconds"),
])
def test_a_malformed_benchmark_is_refused(mutate, complaint):
    doc = copy.deepcopy(benchmark_doc())
    mutate(doc)
    problems = stats.validate_benchmark(doc)
    assert any(complaint in p for p in problems), problems

"""The repository's end-to-end benchmark.

Run from the repository root::

    python3 benchmarks/e2e/bench.py [--seed 100] [--out FILE] [--bless]
    python3 benchmarks/e2e/bench.py --workload NAME --seed N \\
        --seconds S --trace 0|1
    python3 benchmarks/e2e/bench.py compare A.json B.json

The first form runs all four workloads with their repetitions
interleaved, prints every end-to-end metric, checks the outputs, runs
the traced pass for the per-layer table, and exits non-zero if any check
fails.  The second form measures one workload for about ``S`` seconds
and prints one JSON line: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  ``compare`` applies the
metric bounds of ``BENCHMARK.json`` to two documents written by
``--out``.

All times are host time: what the simulator costs to run.  Every rep
of a batch workload runs in a fresh process, so module-level memos
start cold as in a user's CLI run; see ``README.md`` for the workloads
and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import pickle
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional, Sequence

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
EXPECTED = HERE / "expected.json"
#: Each run keeps its pickled inputs and service logs in a directory of
#: its own under here, removed when the run succeeds.
WORKDIR = HERE / ".work"

sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from workloads import BATCH_WORKLOADS, SERVICE_WORKLOAD, WORKLOADS  # noqa: E402

#: The percentile ``tail_ms`` reports per workload: the highest with at
#: least ten samples beyond it at the sample count a run guarantees
#: (three batch reps; the service's middle rung).
TAIL_PERCENTILE = {"fleet_replay": 90.0, "mix_ramp": 90.0,
                   "policy_storm": 95.0, "service_stream": 95.0}
MIN_BATCH_REPS = 3
SERVICE_REPS = 2
#: Units per workload re-run on the reference path (fast-forward off).
REFERENCE_UNITS = {"fleet_replay": 3, "mix_ramp": 4, "policy_storm": 12}
#: Least share of a batch rep's corrected wall the layers must explain.
MIN_COVERAGE = 0.9
_CHILD_TIMEOUT_S = 170


def load_benchmark() -> Dict[str, object]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# --- batch workloads ----------------------------------------------------------


class BatchWorkload:
    """The reps of one batch workload at one seed.

    Rep *k*'s inputs are generated (and timed, as ``gen_s``) the first
    time the rep is needed, then pickled for the rep's process.
    """

    def __init__(self, name: str, seed: int, workdir: pathlib.Path):
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.units: Dict[int, List[workloads.Unit]] = {}
        self.gen_s: List[float] = []
        self.runs: List[Dict[str, object]] = []
        self.traced: List[Dict[str, object]] = []

    def _inputs(self, rep: int) -> pathlib.Path:
        path = self.workdir / f"{self.name}-{rep}.pkl"
        if rep not in self.units:
            start = time.perf_counter()
            self.units[rep] = workloads.make_batch(self.name, self.seed, rep)
            self.gen_s.append(time.perf_counter() - start)
            with open(path, "wb") as handle:
                pickle.dump(self.units[rep], handle)
        return path

    def run_rep(self, rep: int, mode: str = "run") -> Dict[str, object]:
        result = spawn_child(self._inputs(rep), mode)
        result["rep"] = rep
        (self.traced if mode == "trace" else self.runs).append(result)
        return result

    @property
    def enough(self) -> bool:
        """Do the timed reps support the medians and the tail?"""
        samples = sum(len(r["walls_s"]) for r in self.runs)
        return (len(self.runs) >= MIN_BATCH_REPS and samples
                >= stats.samples_needed(TAIL_PERCENTILE[self.name]))

    def reference_problems(self) -> List[str]:
        """Re-run a seeded sample of rep 0's units on the reference path
        and require the identical outputs."""
        rep0 = next(r for r in self.runs if r["rep"] == 0)
        units = self.units[0]
        picks = sorted(random.Random(f"reference/{self.seed}").sample(
            range(len(units)), min(REFERENCE_UNITS[self.name], len(units))))
        path = self.workdir / f"{self.name}-reference.pkl"
        with open(path, "wb") as handle:
            pickle.dump([units[i] for i in picks], handle)
        reference = spawn_child(path, "reference")
        return [f"{self.name}: {units[i].uid} differs on the reference path"
                for i, fields in zip(picks, reference["fields"])
                if fields != rep0["fields"][i]]


def spawn_child(inputs: pathlib.Path, mode: str) -> Dict[str, object]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(HERE)]))
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(inputs), repr(spawned),
         mode], capture_output=True, text=True, env=env,
        cwd=str(inputs.parent),
        timeout=_CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"rep process failed ({proc.returncode}):\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def rep_digest(run: Dict[str, object]) -> str:
    return workloads.digest([f or ["failed"] for f in run["fields"]])


def unit_ms(run: Dict[str, object]) -> List[float]:
    """A rep's unit latencies in reference milliseconds."""
    return [w * run["speed_factor"] * 1e3 for w in run["walls_s"]]


def batch_e2e(name: str, runs: Sequence[Dict[str, object]]
              ) -> Dict[str, Dict]:
    """End-to-end metrics of a batch workload from its timed reps.

    Times are reference seconds (see :mod:`speed`).  Rate, set-up and
    memory are medians over reps; latency percentiles pool every unit
    of every rep.  Each entry keeps its per-rep series for ``compare``.
    """
    tail = TAIL_PERCENTILE[name]
    per_rep = {
        "sim_rate": [r["sim_s"] / (r["body_s"] * r["speed_factor"])
                     for r in runs],
        "setup_s": [r["setup_s"] * r["speed_factor"] for r in runs],
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
        "p50_ms": [stats.percentile(unit_ms(r), 50) for r in runs],
        "tail_ms": [stats.percentile(unit_ms(r), tail) for r in runs],
    }
    return _with_pooled_latency(per_rep, [ms for r in runs
                                          for ms in unit_ms(r)], tail)


def _with_pooled_latency(per_rep: Dict[str, List[float]],
                         pooled_ms: List[float], tail: float
                         ) -> Dict[str, Dict]:
    """Summaries of *per_rep*, the latency values taken from the pool."""
    metrics = {name: dict(stats.summary(series), reps=series)
               for name, series in per_rep.items()}
    for name, p in (("p50_ms", 50.0), ("tail_ms", tail)):
        metrics[name].update(value=stats.percentile(pooled_ms, p),
                             n=len(pooled_ms), percentile=p)
    return metrics


def batch_outcome(workload: BatchWorkload, expected: Dict[str, object]
                  ) -> Dict[str, object]:
    """Failures, digests and correctness of a batch workload's reps."""
    runs = sorted(workload.runs, key=lambda r: r["rep"])
    problems: List[str] = []
    for run in runs:
        for unit, fields in zip(workload.units[run["rep"]], run["fields"]):
            if fields is not None:
                problems.extend(workloads.check_fields(unit, fields))
    digests = [rep_digest(r) for r in runs]
    problems.extend(digest_problems(workload.name, workload.seed, digests,
                                    expected))
    failed = [f for r in runs for f in r["failures"]]
    attempted = sum(len(r["walls_s"]) for r in runs)
    return {"attempted": attempted, "failed": len(failed),
            "fail_frac": len(failed) / attempted, "failed_ids": failed,
            "digests": digests, "problems": problems}


def digest_problems(name: str, seed: int, digests: Sequence[str],
                    expected: Dict[str, object],
                    seconds: Optional[float] = None) -> List[str]:
    """Mismatches against ``expected.json`` when it pins this seed."""
    if expected.get("seed") != seed:
        return []
    if seconds is not None and expected.get("seconds") != seconds:
        return []
    pinned = expected.get("digests", {}).get(name, [])
    return [f"{name} rep {k}: digest {got[:12]} != pinned {want[:12]}"
            for k, (got, want) in enumerate(zip(digests, pinned))
            if got != want]


def batch_layers(workload: BatchWorkload, problems: List[str]
                 ) -> Dict[str, float]:
    """Per-layer metrics from the traced reps and their untraced twins.

    Appends to *problems* when tracing changed a rep's outputs or the
    layers explain less than :data:`MIN_COVERAGE` of its time.
    """
    untraced = {r["rep"]: r for r in workload.runs}
    for traced in workload.traced:
        if traced["fields"] != untraced[traced["rep"]]["fields"]:
            problems.append(f"{workload.name} rep {traced['rep']}: tracing "
                            f"changed outputs")
    layers = layer_metrics([r["trace"] for r in workload.traced],
                           [r["speed_factor"] for r in workload.traced])
    layers["trace.overhead_frac"] = statistics.median(
        r["body_s"] * r["speed_factor"]
        / (untraced[r["rep"]]["body_s"] * untraced[r["rep"]]["speed_factor"])
        - 1.0 for r in workload.traced)
    layers["layers.coverage"] = statistics.median(
        sum(r["trace"]["self_s"].values())
        / (r["body_s"] - r["trace"]["overhead_s"]) for r in workload.traced)
    layers["gen_s"] = statistics.median(workload.gen_s)
    if layers["layers.coverage"] < MIN_COVERAGE:
        problems.append(f"{workload.name}: layers cover "
                        f"{layers['layers.coverage']:.1%} of the traced time "
                        f"(< {MIN_COVERAGE:.0%})")
    return layers


def layer_metrics(traces: Sequence[Dict[str, object]],
                  factors: Sequence[float]) -> Dict[str, float]:
    """Every per-layer metric of ``BENCHMARK.json`` from tracer tables.

    Each is the median over *traces*, self times scaled to reference
    seconds by the matching speed *factors*; service metrics and layers
    a workload never enters read zero.
    """
    names = [m["name"] for m in load_benchmark()["per_layer"]]
    values: Dict[str, List[float]] = {name: [] for name in names}
    for trace, factor in zip(traces, factors):
        flat = {f"{layer}_s": v * factor
                for layer, v in trace["self_s"].items()}
        flat.update({f"{layer}_calls": v
                     for layer, v in trace["calls"].items()})
        flat.update(trace["counters"])
        c = trace["counters"]
        lookups = c.get("power.cache_hits", 0) + c.get("power.cache_misses", 0)
        flat["power.cache_hit_rate"] = (c.get("power.cache_hits", 0)
                                        / lookups if lookups else 0.0)
        attempts = c.get("os.hotplug.offline_attempts", 0)
        flat["os.hotplug.offline_ok_ratio"] = (
            c.get("os.hotplug.offline_ok", 0) / attempts if attempts else 0.0)
        for name in names:
            values[name].append(float(flat.get(name, 0.0)))
    return {name: statistics.median(series) if series else 0.0
            for name, series in values.items()}


# --- the service workload -------------------------------------------------------


def service_run(seed: int, seconds: float, workdir: pathlib.Path,
                mode: str = "run", setup_spawns: int = 0
                ) -> Dict[str, object]:
    import service_client

    return service_client.run(ROOT, workdir, seed, seconds, mode=mode,
                              setup_spawns=setup_spawns
                              or service_client.SETUP_SPAWNS)


def rung_ms(run: Dict[str, object], rung: str,
            key: str = "latency_s") -> List[float]:
    """A rung's request latencies (*key* ``latency_s``) or per-tick
    advance times, in reference milliseconds.

    Each is calibrated by the spin the client ran right after its tick:
    the machine slows and recovers within a rung, and per-tick pairing
    follows it where one factor per rung cannot.
    """
    samples = run["rungs"][rung]
    ticks = (samples["tick_of"] if key == "latency_s"
             else range(len(samples[key])))
    return [x * speed.REFERENCE_SPIN_S / samples["spins_s"][t] * 1e3
            for x, t in zip(samples[key], ticks)]


def advance_s(run: Dict[str, object]) -> float:
    """Reference seconds the client waited on ``/advance`` in all."""
    return sum(sum(rung_ms(run, name, "advance_rtt_s"))
               for name in run["rungs"]) / 1e3


def service_rep_metrics(run: Dict[str, object]) -> Dict[str, float]:
    """One service run's end-to-end metrics.

    The rate is the top rung's median tick: simulated server-seconds
    per reference second of ``/advance`` round trip.
    """
    top = run["rungs"]["64k"]
    middle = rung_ms(run, "16k")
    ticks_s = [ms / 1e3 for ms in rung_ms(run, "64k", "advance_rtt_s")]
    return {
        "sim_rate": top["sim_server_s"] / len(ticks_s)
        / statistics.median(ticks_s),
        "setup_s": statistics.median(run["setup_s"]) * run["speed_factor"],
        "peak_rss_mb": run["server"]["peak_rss_mb"],
        "p50_ms": stats.percentile(middle, 50),
        "tail_ms": stats.percentile(middle, TAIL_PERCENTILE[SERVICE_WORKLOAD]),
    }


def service_e2e(runs: Sequence[Dict[str, object]]) -> Dict[str, Dict]:
    per_rep = [service_rep_metrics(r) for r in runs]
    return _with_pooled_latency(
        {name: [m[name] for m in per_rep] for name in per_rep[0]},
        [ms for r in runs for ms in rung_ms(r, "16k")],
        TAIL_PERCENTILE[SERVICE_WORKLOAD])


def service_outcome(runs: Sequence[Dict[str, object]], seed: int,
                    seconds: float, expected: Dict[str, object]
                    ) -> Dict[str, object]:
    problems = [p for r in runs for p in r["problems"]]
    digests = [r["digest"] for r in runs]
    if len(set(digests)) > 1:
        problems.append("service_stream: runs ended in different states")
    problems.extend(digest_problems(SERVICE_WORKLOAD, seed, digests[:1],
                                    expected, seconds=seconds))
    failed = [f for r in runs for f in r["failures"]]
    attempted = sum(r["attempted"] for r in runs)
    return {"attempted": attempted, "failed": len(failed),
            "fail_frac": len(failed) / attempted, "failed_ids": failed,
            "digests": digests[:1], "problems": problems}


def service_layers(untraced: Dict[str, object],
                   traced: Dict[str, object]) -> Dict[str, float]:
    """Per-layer metrics of one traced service run.

    Handler times come from the wrappers in the server process; wait is
    what the client saw beyond them (lock, queue and transport).
    """
    trace = traced["server"]["trace"]
    factor = traced["speed_factor"]
    layers = layer_metrics([trace], [factor])
    handler = trace["durations"]
    for route in ("ingest", "advance", "status", "snapshot"):
        calls = handler[f"service.{route}"]
        layers[f"service.handler_ms.{route}"] = (
            stats.percentile(calls, 50) * factor * 1e3 if calls else 0.0)
    rtt = traced["rtt_s"]
    requests = sum(len(v) for v in rtt.values())
    served = sum(len(v) * statistics.fmean(handler[f"service.{route}"])
                 for route, v in rtt.items() if v)
    layers["service.wait_ms"] = (sum(sum(v) for v in rtt.values())
                                 - served) / requests * factor * 1e3
    layers["svc.gen_lag_s"] = stats.percentile(traced["lateness_s"], 95)
    for name in traced["rungs"]:
        lat = rung_ms(traced, name)
        layers[f"svc.rung_p50_ms.{name}"] = stats.percentile(lat, 50)
        layers[f"svc.rung_p95_ms.{name}"] = stats.percentile(lat, 95)
    layers["svc.advance_p95_ms"] = stats.percentile(
        rung_ms(traced, "64k", "advance_latency_s"), 95)
    layers["trace.overhead_frac"] = advance_s(traced) / advance_s(untraced) \
        - 1.0
    busy = sum(sum(v) for k, v in handler.items())
    layers["layers.coverage"] = (sum(trace["self_s"].values())
                                 / (busy - trace["overhead_s"])
                                 if busy else 0.0)
    layers["gen_s"] = traced["gen_s"]
    return layers


# --- one workload, as the benchmark contract runs it ---------------------------


def measure(name: str, seed: int, seconds: float, trace: bool,
            expected: Dict[str, object], workdir: pathlib.Path
            ) -> Dict[str, object]:
    """One contract run of *name*: returns the final JSON document."""
    if name == SERVICE_WORKLOAD:
        return _measure_service(seed, seconds, trace, expected, workdir)
    workload = BatchWorkload(name, seed, workdir)
    start = time.monotonic()
    rep = 0
    if trace:
        while rep == 0 or time.monotonic() - start < seconds:
            workload.run_rep(rep)
            workload.run_rep(rep, "trace")
            rep += 1
        outcome = batch_outcome(workload, expected)
        metrics = batch_layers(workload, outcome["problems"])
    else:
        while not workload.enough or time.monotonic() - start < seconds:
            workload.run_rep(rep)
            rep += 1
        outcome = batch_outcome(workload, expected)
        outcome["problems"].extend(workload.reference_problems())
        metrics = {k: v["value"]
                   for k, v in batch_e2e(name, workload.runs).items()}
    return contract_document(metrics, outcome, trace)


def _measure_service(seed: int, seconds: float, trace: bool,
                     expected: Dict[str, object], workdir: pathlib.Path
                     ) -> Dict[str, object]:
    if trace:
        untraced = service_run(seed, seconds, workdir, setup_spawns=1)
        traced = service_run(seed, seconds, workdir, mode="trace",
                             setup_spawns=1)
        runs = [untraced, traced]
        metrics = service_layers(untraced, traced)
    else:
        runs = [service_run(seed, seconds, workdir)]
        metrics = {k: v["value"] for k, v in service_e2e(runs).items()}
    outcome = service_outcome(runs, seed, seconds, expected)
    return contract_document(metrics, outcome, trace)


def contract_document(metrics: Dict[str, float], outcome: Dict[str, object],
                      trace: bool) -> Dict[str, object]:
    bench = load_benchmark()
    table = stats.metric_table(bench, "per_layer" if trace else "end_to_end")
    for problem in outcome["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    for failure in outcome["failed_ids"]:
        print(f"failed: {failure}", file=sys.stderr)
    return {
        "correct": not outcome["problems"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": metrics[name], "unit": spec["unit"]}
                    for name, spec in table.items()},
    }


# --- the full run ---------------------------------------------------------------


def full_run(seed: int, seconds: float, expected: Dict[str, object],
             workdir: pathlib.Path) -> Dict[str, object]:
    """All four workloads, reps interleaved, then the traced pass."""
    batch = {name: BatchWorkload(name, seed, workdir)
             for name in BATCH_WORKLOADS}
    service_runs: List[Dict[str, object]] = []
    rep = 0
    while True:
        pending = [w for w in batch.values() if not w.enough]
        if not pending and len(service_runs) >= SERVICE_REPS:
            break
        for workload in pending:
            workload.run_rep(rep)
            log(f"{workload.name} rep {rep}: "
                f"{workload.runs[-1]['body_s']:.2f} s")
        if len(service_runs) < SERVICE_REPS:
            service_runs.append(service_run(seed, seconds, workdir))
            log(f"service_stream rep {rep}: done")
        rep += 1

    document: Dict[str, object] = {"benchmark": "e2e", "seed": seed,
                                   "seconds": seconds, "workloads": {}}
    for name, workload in batch.items():
        outcome = batch_outcome(workload, expected)
        outcome["problems"].extend(workload.reference_problems())
        workload.run_rep(0, "trace")
        log(f"{name} traced rep 0: {workload.traced[-1]['body_s']:.2f} s")
        layers = batch_layers(workload, outcome["problems"])
        document["workloads"][name] = dict(
            outcome, reps=len(workload.runs),
            speed_factors=[r["speed_factor"] for r in workload.runs],
            end_to_end=batch_e2e(name, workload.runs), per_layer=layers)
    traced = service_run(seed, seconds, workdir, mode="trace",
                         setup_spawns=1)
    log("service_stream traced run: done")
    outcome = service_outcome(service_runs, seed, seconds, expected)
    document["workloads"][SERVICE_WORKLOAD] = dict(
        outcome, reps=len(service_runs),
        speed_factors=[r["speed_factor"] for r in service_runs],
        end_to_end=service_e2e(service_runs),
        per_layer=service_layers(service_runs[0], traced))
    return document


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def render(document: Dict[str, object]) -> str:
    bench = load_benchmark()
    e2e = stats.metric_table(bench, "end_to_end")
    lines = [f"end-to-end, seed {document['seed']} (host time; value = "
             f"median over reps, latency pooled over units; [q1, q3] of "
             f"per-rep values)"]
    lines.append(f"{'workload':<16}{'metric':<14}{'value':>14}  "
                 f"{'[q1, q3]':<30}{'n':>5}  unit")
    for name, entry in document["workloads"].items():
        for metric, spec in e2e.items():
            m = entry["end_to_end"][metric]
            quartiles = f"[{m['q1']:.4f}, {m['q3']:.4f}]"
            lines.append(f"{name:<16}{metric:<14}{m['value']:>14.4f}  "
                         f"{quartiles:<30}{m['n']:>5}  {spec['unit']}")
    lines.append("")
    for name, entry in document["workloads"].items():
        lines.append(f"{name}: {entry['failed']}/{entry['attempted']} failed "
                     f"(fail_frac {entry['fail_frac']:.4f}), digest "
                     f"{entry['digests'][0][:16]}, "
                     f"{'correct' if not entry['problems'] else 'WRONG'}")
        for failure in entry["failed_ids"]:
            lines.append(f"  failed {failure}")
        for problem in entry["problems"]:
            lines.append(f"  problem: {problem}")
    lines.append("")
    names = list(document["workloads"])
    lines.append("per-layer, traced pass (self time in s per rep unless the "
                 "unit says otherwise)")
    lines.append(f"{'metric':<28}" + "".join(f"{n:>16}" for n in names))
    for metric in bench["per_layer"]:
        row = [document["workloads"][n]["per_layer"][metric["name"]]
               for n in names]
        lines.append(f"{metric['name']:<28}"
                     + "".join(f"{v:>16.6g}" for v in row)
                     + f"  {metric['unit']}")
    return "\n".join(lines)


# --- compare ----------------------------------------------------------------------


def compare(path_a: str, path_b: str) -> int:
    """Apply the bounds to two full-run documents; non-zero if any pair
    regressed, is unresolved, or the digests differ."""
    a = json.loads(pathlib.Path(path_a).read_text())
    b = json.loads(pathlib.Path(path_b).read_text())
    e2e = stats.metric_table(load_benchmark(), "end_to_end")
    bad = 0
    print(f"{'workload':<16}{'metric':<14}{'A value [q1, q3]':<42}"
          f"{'B value [q1, q3]':<42}{'worse':>8}{'spread':>8}  status")
    for name, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(name)
        if entry_b is None:
            print(f"{name}: missing from {path_b}")
            bad += 1
            continue
        for metric, spec in e2e.items():
            ma, mb = entry_a["end_to_end"][metric], entry_b["end_to_end"][metric]
            verdict = stats.compare_metric(ma["reps"], mb["reps"],
                                           spec["better"], spec["bound"])
            bad += verdict["status"] != "ok"
            cells = [f"{m['value']:.4f} [{m['q1']:.4f}, {m['q3']:.4f}]"
                     for m in (ma, mb)]
            numbers = ("" if verdict["change"] is None else
                       f"{verdict['change']:>+8.1%}{verdict['spread']:>8.1%}")
            print(f"{name:<16}{metric:<14}{cells[0]:<42}{cells[1]:<42}"
                  f"{numbers:>16}  {verdict['status']}")
        if entry_a["digests"] != entry_b["digests"]:
            print(f"{name}: digests differ")
            bad += 1
    print("OK" if not bad else f"{bad} problem(s)")
    return 1 if bad else 0


# --- entry point ------------------------------------------------------------------


def parse(argv: Sequence[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=100)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: BENCHMARK.json's)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the full run's document here")
    parser.add_argument("--bless", action="store_true",
                        help="pin this run's digests in expected.json")
    return parser.parse_args(argv)


def main(argv: Sequence[str]) -> int:
    if argv and argv[0] == "compare":
        if len(argv) != 3:
            print("usage: bench.py compare A.json B.json", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2])
    args = parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    bench = load_benchmark()
    problems = stats.validate_benchmark(bench)
    if problems:
        print("error: BENCHMARK.json: " + "; ".join(problems),
              file=sys.stderr)
        return 2
    seconds = args.seconds or float(bench["run_seconds"])
    expected = (json.loads(EXPECTED.read_text())
                if EXPECTED.exists() and not args.bless else {})
    WORKDIR.mkdir(exist_ok=True)
    workdir = pathlib.Path(tempfile.mkdtemp(prefix="run-", dir=WORKDIR))

    if args.workload:
        document = measure(args.workload, args.seed, seconds,
                           bool(args.trace), expected, workdir)
        shutil.rmtree(workdir)
        print(json.dumps(document))
        return 0

    document = full_run(args.seed, seconds, expected, workdir)
    shutil.rmtree(workdir)
    print(render(document))
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(document, indent=1)
                                          + "\n")
    wrong = any(entry["problems"]
                for entry in document["workloads"].values())
    if args.bless and not wrong:
        pinned = {"seed": args.seed, "seconds": seconds, "digests": {
            name: entry["digests"]
            for name, entry in document["workloads"].items()}}
        EXPECTED.write_text(json.dumps(pinned, indent=1) + "\n")
        print(f"blessed {EXPECTED.relative_to(ROOT)}")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

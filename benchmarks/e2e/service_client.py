"""The ``service_stream`` workload: an open-loop client of ``repro serve``.

The service under test runs in its own process (:mod:`serve`), started
with ``repro serve --servers 4 --workers 2 --port 0``.  One client
thread drives it over one connection at a time:

* VMs arrive ``ARRIVALS_PER_SIM_S`` per simulated second fleet-wide
  with exponential gaps, sized from ``VM_SIZES_GIB`` with lognormal
  lifetimes of mean ``MEAN_LIFETIME_S`` (:func:`make_arrivals`);
* every ``TICK_S`` of wall time the client posts the ingests that are
  due, then ``POST /advance``; every ``STATUS_EVERY``-th tick also
  ``GET /status`` and every ``SNAPSHOT_EVERY``-th tick
  ``GET /servers/{i}/snapshot``;
* three rungs, ``RUNG_SHARES`` of the run each, run the simulation at
  ``RUNG_RATES`` simulated seconds per wall second.

The loop is open: each tick is due at a fixed wall time whatever the
service did, and each request is timed from its tick's due time, so a
stall shows in the requests queued behind it.  Simulation targets come
from the tick index, never from the clock, so the final fleet state is
a function of the seed and the run length alone.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import math
import os
import pathlib
import random
import re
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from speed import factor_of, spin

RUNG_RATES = (4_000.0, 16_000.0, 64_000.0)
RUNG_NAMES = ("4k", "16k", "64k")
#: Each rung's share of the run.
RUNG_SHARES = (1 / 3, 1 / 3, 1 / 3)
TICK_S = 0.05
ARRIVALS_PER_SIM_S = 0.0025
VM_SIZES_GIB = (1, 2, 4)
MEAN_LIFETIME_S = 2400.0
LIFETIME_SIGMA = 1.0
STATUS_EVERY = 10
SNAPSHOT_EVERY = 40
SERVERS = 4
WORKERS = 2
#: Server spawns per run; set-up time is their median.
SETUP_SPAWNS = 3
#: Arrivals per stratified block (a multiple of the size choices).
_STRATUM_BLOCK = 24
_READY_TIMEOUT_S = 60.0
_PORT_LINE = re.compile(r"http://([0-9.]+):(\d+)")


@dataclass(frozen=True)
class Arrival:
    vm_id: int
    time_s: float
    memory_bytes: int
    lifetime_s: float


def _stratified(rng: random.Random, count: int) -> List[float]:
    """*count* uniforms, one from each of *count* equal strata, shuffled."""
    values = [(i + rng.random()) / count for i in range(count)]
    rng.shuffle(values)
    return values


def make_arrivals(seed: int, horizon_s: float) -> List[Arrival]:
    """The seeded arrival stream up to *horizon_s*.

    Gaps are exponential and lifetimes lognormal, as in a Poisson
    stream, but drawn by stratified sampling in blocks of
    ``_STRATUM_BLOCK``, and sizes cycle through a shuffled
    ``VM_SIZES_GIB`` in every block: each block then carries the
    distribution's mean load, so seeds change which VMs come when, not
    how much the service has to simulate.
    """
    rng = random.Random(f"service_stream/{seed}")
    mu = math.log(MEAN_LIFETIME_S) - LIFETIME_SIGMA ** 2 / 2.0
    normal = statistics.NormalDist(mu, LIFETIME_SIGMA)
    arrivals: List[Arrival] = []
    t = 0.0
    while True:
        gaps = _stratified(rng, _STRATUM_BLOCK)
        lives = _stratified(rng, _STRATUM_BLOCK)
        sizes = [VM_SIZES_GIB[i % len(VM_SIZES_GIB)]
                 for i in range(_STRATUM_BLOCK)]
        rng.shuffle(sizes)
        for gap, life, size in zip(gaps, lives, sizes):
            t += -math.log(1.0 - gap) / ARRIVALS_PER_SIM_S
            if t >= horizon_s:
                return arrivals
            arrivals.append(Arrival(
                vm_id=len(arrivals), time_s=t, memory_bytes=size << 30,
                lifetime_s=math.exp(normal.inv_cdf(life))))


def ticks_per_rung(seconds: float) -> List[int]:
    return [max(1, round(seconds * share / TICK_S)) for share in RUNG_SHARES]


def horizon_s(seconds: float) -> float:
    return sum(rate * TICK_S * ticks
               for rate, ticks in zip(RUNG_RATES, ticks_per_rung(seconds)))


# --- the server process -------------------------------------------------------


class ServiceProcess:
    """One ``repro serve`` process, launched through :mod:`serve`."""

    def __init__(self, root: pathlib.Path, workdir: pathlib.Path, seed: int,
                 mode: str, tag: str):
        here = pathlib.Path(__file__).resolve().parent
        self.stats_path = workdir / f"service-{tag}.json"
        self.log_path = workdir / f"service-{tag}.log"
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join([str(root / "src"), str(here)]))
        self.spawned = time.monotonic()
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, str(here / "serve.py"), str(self.stats_path),
                 mode, "--servers", str(SERVERS), "--workers", str(WORKERS),
                 "--port", "0", "--seed", str(seed)],
                stdout=subprocess.PIPE, stderr=log, env=env, cwd=str(workdir))
        self.host, self.port = self._read_address()

    def _read_address(self) -> Tuple[str, int]:
        assert self.proc.stdout is not None
        line = self.proc.stdout.readline().decode(errors="replace")
        match = _PORT_LINE.search(line)
        if match is None:
            self.kill()
            raise RuntimeError(
                f"service did not start: {line!r}; see {self.log_path}")
        return match.group(1), int(match.group(2))

    def wait_ready(self) -> float:
        """Seconds from spawn until ``GET /status`` first answers 200."""
        deadline = time.monotonic() + _READY_TIMEOUT_S
        while time.monotonic() < deadline:
            try:
                status, _ = request(self.host, self.port, "GET", "/status")
            except OSError:
                status = 0
            if status == 200:
                return time.monotonic() - self.spawned
            time.sleep(0.01)
        raise RuntimeError("service never answered /status")

    def stop(self) -> Dict[str, object]:
        """Shut the service down, wait for it, return its exit stats."""
        try:
            request(self.host, self.port, "POST", "/shutdown", b"{}")
        except OSError:
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.kill()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        if self.proc.returncode != 0:
            raise RuntimeError(f"service exited {self.proc.returncode}; "
                               f"see {self.log_path}")
        return json.loads(self.stats_path.read_text())

    def kill(self) -> None:
        self.proc.kill()
        self.proc.wait()


def request(host: str, port: int, method: str, path: str,
            body: Optional[bytes] = None) -> Tuple[int, bytes]:
    """One request on a fresh connection (the service closes each)."""
    conn = http.client.HTTPConnection(host, port, timeout=60)
    try:
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


# --- the open loop ------------------------------------------------------------


def run(root: pathlib.Path, workdir: pathlib.Path, seed: int,
        seconds: float, mode: str = "run",
        setup_spawns: int = SETUP_SPAWNS) -> Dict[str, object]:
    """Measure one service run; *mode* ``trace`` wraps the server's layers.

    The server is spawned *setup_spawns* times in all, every spawn timed
    to its first ``/status``; the last one serves the run.  Returns the
    raw samples: per-request latencies by rung and route, per-tick
    generator lateness, set-up times, the exit stats of the server
    process, the final-state digest and any correctness problems.
    """
    gen_start = time.perf_counter()
    n_ticks = ticks_per_rung(seconds)
    arrivals = make_arrivals(seed, horizon_s(seconds))
    gen_s = time.perf_counter() - gen_start

    setups = []
    for spawn in range(setup_spawns - 1):
        extra = ServiceProcess(root, workdir, seed, mode, f"setup{spawn}")
        try:
            setups.append(extra.wait_ready())
        finally:
            extra.stop()
    server = ServiceProcess(root, workdir, seed, mode, "run")
    try:
        setups.append(server.wait_ready())
        samples = _drive(server, arrivals, n_ticks)
        problems, digest = _final_state(server, samples)
    finally:
        stats = server.stop()
    spins = [d for rung in samples["rungs"].values() for d in rung["spins_s"]]
    samples.update(setup_s=setups, gen_s=gen_s, server=stats,
                   problems=problems, digest=digest,
                   speed_factor=factor_of(spins))
    return samples


def _drive(server: ServiceProcess, arrivals: List[Arrival],
           n_ticks: List[int]) -> Dict[str, object]:
    # Per rung: every request's latency and its tick; per tick: the
    # advance's latency and round trip, and the calibration spin.
    rungs = {name: {"latency_s": [], "tick_of": [], "advance_latency_s": [],
                    "advance_rtt_s": [], "spins_s": [], "sim_server_s": 0.0}
             for name in RUNG_NAMES}
    rtt: Dict[str, List[float]] = {route: [] for route in
                                   ("ingest", "advance", "status",
                                    "snapshot")}
    lateness: List[float] = []
    failures: List[str] = []
    attempted = 0
    cursor = 0
    target = 0.0
    tick = 0
    start = time.monotonic()

    def send(method: str, path: str, route: str, body: bytes,
             due: float, rung: Dict[str, object]) -> float:
        nonlocal attempted
        attempted += 1
        sent = time.monotonic()
        try:
            status, payload = request(server.host, server.port, method, path,
                                      body)
        except OSError as err:
            status, payload = 0, str(err).encode()
        done = time.monotonic()
        if status != 200:
            failures.append(f"{method} {path}: {status} "
                            f"{payload[:200].decode(errors='replace')}")
        rtt[route].append(done - sent)
        rung["latency_s"].append(done - due)
        rung["tick_of"].append(len(rung["spins_s"]))
        return done - sent

    for name, rate, ticks in zip(RUNG_NAMES, RUNG_RATES, n_ticks):
        rung = rungs[name]
        for _ in range(ticks):
            due = start + tick * TICK_S
            tick += 1
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            lateness.append(max(0.0, time.monotonic() - due))
            target += rate * TICK_S
            while cursor < len(arrivals) and arrivals[cursor].time_s < target:
                vm = arrivals[cursor]
                cursor += 1
                send("POST", "/ingest", "ingest", json.dumps({
                    "vm_id": vm.vm_id, "memory_bytes": vm.memory_bytes,
                    "time_s": vm.time_s, "lifetime_s": vm.lifetime_s,
                }).encode(), due, rung)
            elapsed = send("POST", "/advance", "advance",
                           json.dumps({"until_s": target}).encode(), due,
                           rung)
            rung["advance_latency_s"].append(rung["latency_s"][-1])
            rung["advance_rtt_s"].append(elapsed)
            rung["sim_server_s"] += rate * TICK_S * SERVERS
            if tick % STATUS_EVERY == 0:
                send("GET", "/status", "status", b"", due, rung)
            if tick % SNAPSHOT_EVERY == 0:
                target_server = (tick // SNAPSHOT_EVERY) % SERVERS
                send("GET", f"/servers/{target_server}/snapshot",
                     "snapshot", b"", due, rung)
            # One calibration spin per tick, between the tick's last
            # response and the next request, while the service idles.
            rung["spins_s"].append(spin())
    return {"rungs": rungs, "rtt_s": rtt, "lateness_s": lateness,
            "failures": failures, "attempted": attempted,
            "final_target_s": target}


def _final_state(server: ServiceProcess, samples: Dict[str, object]
                 ) -> Tuple[List[str], str]:
    """Digest the final fleet state and check it for consistency.

    The checks: the fleet clock reached the last target, the fleet
    totals equal the sums over servers, and every server's snapshot,
    restored here, reports exactly what the service reports for it.
    """
    from repro.service.fleet_service import ServiceServer

    problems: List[str] = []
    _, status_body = request(server.host, server.port, "GET", "/status")
    _, servers_body = request(server.host, server.port, "GET", "/servers")
    status = json.loads(status_body)
    servers = json.loads(servers_body)
    if status["now_s"] != samples["final_target_s"]:
        problems.append(f"fleet clock {status['now_s']} != target "
                        f"{samples['final_target_s']}")
    if status["fleet_dram_energy_j"] != sum(s["dram_energy_j"]
                                            for s in servers):
        problems.append("fleet energy is not the sum over servers")
    if status["running_vms"] != sum(s["running_vms"] for s in servers):
        problems.append("fleet VM count is not the sum over servers")
    for entry in servers:
        index = entry["server"]
        code, blob = request(server.host, server.port, "GET",
                             f"/servers/{index}/snapshot")
        if code != 200:
            problems.append(f"snapshot of server {index}: HTTP {code}")
            continue
        restored = json.loads(json.dumps(
            ServiceServer.from_snapshot(blob).status()))
        reported = {k: v for k, v in entry.items()
                    if k not in ("server", "worker")}
        if restored != reported:
            problems.append(f"server {index}: restored snapshot disagrees "
                            f"with /servers")
    digest = hashlib.sha256(
        json.dumps([status, servers], sort_keys=True).encode()).hexdigest()
    return problems, digest

"""The fleet service's worker processes: equivalence, failure, lifecycle.

:class:`FleetService` ticks each worker shard in its own forked process
and keeps only a summary of each server in the serving process.  The
oracle here drives the same seeded calls through plain in-process
:class:`ServiceServer` objects and demands identical answers, floats at
``.hex()`` precision.  The rest checks what processes add: an error in a
worker reaches the caller as its own class, a killed worker answers 500
instead of hanging, and workers never outlive the serving process.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
import signal
import subprocess
import sys
import time
import urllib.request

import pytest

from repro.errors import ConfigurationError, ReproError
from repro.faults.plan import storm_plan
from repro.service import FleetService, ServiceServer
from repro.service.fleet_service import WorkerLost
from repro.sim.fleet import fleet_server_spec, shard_assignment
from repro.units import GIB, MIB
from repro.workloads.azure import VMEvent, VMInstance, VMType
from tests.test_service import _ServiceFixture, shifted

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class InProcessFleet:
    """The oracle: every server a plain :class:`ServiceServer` here.

    Same placement, clamping and checkpoint moves as
    :class:`FleetService`, with each call applied at once.
    """

    def __init__(self, num_servers: int, num_workers: int):
        self.num_servers = num_servers
        self.now_s = 0.0
        self.assignment = shard_assignment(num_servers, num_workers)
        self.num_workers = num_workers
        self._servers = [ServiceServer(fleet_server_spec(i))
                        for i in range(num_servers)]
        self._vm_types = {}

    def ingest(self, vm_id, memory_bytes, time_s, lifetime_s=None):
        index = vm_id % self.num_servers
        server = self._servers[index]
        arrival = max(time_s, server.state.now_s)
        departure = arrival + lifetime_s if lifetime_s is not None \
            else math.inf
        vm_type = self._vm_types.setdefault(vm_id, VMType(
            name=f"ingest-{vm_id}", vcpus=2, memory_bytes=memory_bytes,
            lifetime_mu=0.0, lifetime_sigma=1.0, image_id=0))
        instance = VMInstance(vm_id=vm_id, vm_type=vm_type,
                              arrival_s=arrival, departure_s=departure)
        server.ingest(VMEvent(time_s=arrival, kind="arrive",
                              instance=instance))
        if lifetime_s is not None:
            server.ingest(VMEvent(time_s=departure, kind="depart",
                                  instance=instance))
        return {"vm_id": vm_id, "server": index,
                "worker": self.assignment[index], "arrival_s": arrival}

    def depart(self, vm_id, time_s):
        index = vm_id % self.num_servers
        server = self._servers[index]
        when = max(time_s, server.state.now_s)
        instance = VMInstance(vm_id=vm_id, vm_type=self._vm_types[vm_id],
                              arrival_s=0.0, departure_s=when)
        server.ingest(VMEvent(time_s=when, kind="depart", instance=instance))
        return {"vm_id": vm_id, "server": index, "departure_s": when}

    def advance(self, until_s=None, dt_s=None):
        target = self.now_s + dt_s if dt_s is not None else until_s
        for server in self._servers:
            server.tick(target)
        self.now_s = target
        return target

    def status(self):
        dram = sum(s.state.dram_energy for s in self._servers)
        baseline = sum(s.state.baseline_energy for s in self._servers)
        return {
            "now_s": self.now_s, "servers": self.num_servers,
            "workers": self.num_workers, "policy": "greendimm",
            "epoch_s": 5.0,
            "running_vms": sum(s.source.running for s in self._servers),
            "fleet_dram_energy_j": dram,
            "fleet_baseline_dram_energy_j": baseline,
            "fleet_dram_energy_saving": (
                1.0 - dram / baseline if baseline > 0 else 0.0),
            "assignment": {str(k): v for k, v in self.assignment.items()},
        }

    def server_status(self, index):
        return dict(self._servers[index].status(), server=index,
                    worker=self.assignment[index])

    def servers(self):
        return [self.server_status(i) for i in range(self.num_servers)]

    def server_events(self, index, limit=50):
        return self._servers[index].events(limit=limit)

    def snapshot(self, index):
        return self._servers[index].snapshot()

    def restore(self, index, blob):
        self._servers[index] = ServiceServer.from_snapshot(blob)

    def migrate(self, index, worker):
        source = self.assignment[index]
        blob = self.snapshot(index)
        self.restore(index, blob)
        self.assignment[index] = worker
        return {"server": index, "from": source, "to": worker,
                "snapshot_bytes": len(blob)}

    def reshard(self, num_workers):
        new = shard_assignment(self.num_servers, num_workers)
        moved = sum(new[i] != self.assignment[i]
                    for i in range(self.num_servers))
        for index in range(self.num_servers):
            self.restore(index, self.snapshot(index))
        self.assignment, self.num_workers = new, num_workers
        return {"workers": num_workers, "servers": self.num_servers,
                "moved": moved}

    def inject_fault_plan(self, index, plan):
        from repro.faults.plan import FaultPlan

        fault_plan = FaultPlan.from_dict(plan)
        self._servers[index].install_fault_plan(fault_plan)
        return {"server": index, "plan": fault_plan.name,
                "rules": len(fault_plan)}

    def retune(self, overrides, index=None):
        targets = [index] if index is not None \
            else list(range(self.num_servers))
        for target in targets:
            self._servers[target].retune(**overrides)
        return {"servers": targets, "overrides": overrides}


def canon(value):
    """*value* with every float as its ``.hex()``."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {k: canon(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canon(v) for v in value]
    return value


def script(seed: int, steps: int = 14):
    """A seeded list of ``(method, args, kwargs)`` fleet calls.

    Past timestamps are clamped to the server's clock, so many pushes
    land at equal times: their order is then the order they apply in.
    One VM each step is admitted and retired before the next tick.
    """
    rng = random.Random(seed)
    calls = []
    t, vm, open_vms = 0.0, 0, []
    for step in range(steps):
        for _ in range(rng.randint(1, 4)):
            lifetime = rng.choice([None, rng.uniform(50.0, 1500.0)])
            calls.append(("ingest", (vm, rng.choice((1, 2, 4)) * GIB,
                                     t + rng.uniform(-60.0, 90.0)),
                          {"lifetime_s": lifetime}))
            if lifetime is None:
                open_vms.append(vm)
            vm += 1
        calls.append(("ingest", (vm, GIB, t - 1.0), {}))
        calls.append(("depart", (vm, t - 1.0), {}))
        vm += 1
        if open_vms and rng.random() < 0.5:
            calls.append(("depart", (open_vms.pop(rng.randrange(
                len(open_vms))), t + rng.uniform(-30.0, 60.0)), {}))
        index = rng.randrange(4)
        calls.append(("server_status", (index,), {}))
        calls.append(("servers", (), {}))
        calls.append(("status", (), {}))
        dt = rng.uniform(30.0, 400.0)
        if step % 2:
            calls.append(("advance", (), {"dt_s": dt}))
        else:
            calls.append(("advance", (), {"until_s": t + dt}))
        t += dt
        calls.append(("server_events", (index,), {"limit": 7}))
        calls.append(("status", (), {}))
        if step == 2:
            calls.append(("snapshot", (1,), {}))
        if step == 5:
            calls.append(("restore", (1, "blob"), {}))
        if step == 6:
            calls.append(("migrate", (2, 1), {}))
        if step == 7:
            calls.append(("reshard", (3,), {}))
        if step == 9:
            calls.append(("reshard", (1,), {}))
        if step == 3:
            plan = shifted(storm_plan(seed=seed, intensity=3.0,
                                      duration_s=900.0), t).to_dict()
            calls.append(("inject_fault_plan", (3, plan), {}))
        if step == 4:
            calls.append(("retune", ({"off_thr_fraction": 0.2,
                                      "on_thr_fraction": 0.15},), {}))
            calls.append(("retune", ({"off_thr_fraction": 0.1,
                                      "on_thr_fraction": 0.2},), {}))
        if step == 8:
            calls.append(("retune", ({"off_thr_fraction": 0.18,
                                      "on_thr_fraction": 0.12},),
                          {"index": 2}))
    calls.append(("servers", (), {}))
    return calls


def play(fleet, calls):
    """Apply *calls*; return every answer (errors as class and message).

    A snapshot is kept for the next ``restore`` and recorded as the
    status of the server it restores to, never by its bytes: a server
    whose events crossed a pipe pickles their strings without the
    memo an in-process one shares, so the bytes differ (and so does a
    migration's ``snapshot_bytes``).
    """
    answers, blob = [], None
    for method, args, kwargs in calls:
        if method == "restore":
            args = (args[0], blob)
        try:
            answer = getattr(fleet, method)(*args, **kwargs)
        except ReproError as err:
            answer = ("error", type(err).__name__, str(err))
        if method == "snapshot":
            blob = answer
            answer = ServiceServer.from_snapshot(blob).status()
        if method == "migrate":
            assert answer.pop("snapshot_bytes") > 0
        answers.append((method, canon(answer)))
    return answers


@pytest.mark.parametrize("seed", [3, 11])
def test_workers_match_in_process_servers(seed):
    calls = script(seed)
    expected = play(InProcessFleet(num_servers=4, num_workers=2), calls)
    with FleetService(num_servers=4, num_workers=2) as service:
        got = play(service, calls)
    assert [m for m, _ in got] == [m for m, _ in expected]
    for step, (mine, theirs) in enumerate(zip(got, expected)):
        assert mine == theirs, f"call {step}: {calls[step][0]}"
    errors = [a for _, a in got if isinstance(a, list) and a[:1] == ["error"]]
    assert errors and all(e[1] == "ConfigurationError" for e in errors)


# --- errors and lost workers -------------------------------------------------


class TwoArgumentError(ReproError):
    """Pickles by class, but cannot be rebuilt from its args alone."""

    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def test_worker_errors_keep_their_class(monkeypatch):
    def raising(self, **overrides):
        raise TwoArgumentError("bad override", 7)

    def local_class(self, limit=50):
        class Local(Exception):
            pass

        raise Local("unpicklable")

    # Patched before the fork, so the workers inherit the patches.
    monkeypatch.setattr(ServiceServer, "retune", raising)
    monkeypatch.setattr(ServiceServer, "events", local_class)
    with FleetService(num_servers=2, num_workers=2) as service:
        with pytest.raises(TwoArgumentError, match="bad override"):
            service.retune({"off_thr_fraction": 0.2}, index=1)
        with pytest.raises(RuntimeError, match="Local.*unpicklable"):
            service.server_events(0)
        with pytest.raises(ConfigurationError, match="exactly one"):
            service.advance()
        # The pipes stay in step after errors.
        assert service.advance(until_s=30.0) == 30.0
        assert service.server_status(1)["now_s"] == 30.0


def test_killed_worker_is_named_and_clock_holds():
    with FleetService(num_servers=4, num_workers=2) as service:
        service.advance(until_s=60.0)
        pids = [w["pid"] for w in service.workers()]
        os.kill(pids[1], signal.SIGKILL)
        started = time.monotonic()
        with pytest.raises(WorkerLost, match=f"worker 1 .pid {pids[1]}."):
            service.advance(until_s=120.0)
        assert time.monotonic() - started < 10.0
        assert service.status()["now_s"] == 60.0
        # Server 0 lives on worker 0, which still answers.
        assert service.server_status(0)["now_s"] == 120.0
        with pytest.raises(WorkerLost, match="worker 1"):
            service.server_status(1)
        with pytest.raises(WorkerLost, match="worker 1"):
            service.ingest(vm_id=1, memory_bytes=GIB, time_s=0.0)


def test_http_500_for_errors_outside_the_library(monkeypatch):
    def broken(self, limit=50):
        return 1 / 0

    monkeypatch.setattr(ServiceServer, "events", broken)
    fixture = _ServiceFixture(num_servers=2, num_workers=2)
    try:
        client = fixture.client
        with pytest.raises(ReproError, match="HTTP 400: .*hysteresis"):
            client.retune({"off_thr_fraction": 0.1,
                           "on_thr_fraction": 0.2})
        with pytest.raises(ReproError, match="HTTP 500: ZeroDivisionError"):
            client.events(1)
        workers = client.workers()
        assert [w["worker"] for w in workers] == [0, 1]
        assert [w["servers"] for w in workers] == [[0], [1]]
        assert all(w["peak_rss_mb"] > 0 for w in workers)
        os.kill(workers[0]["pid"], signal.SIGKILL)
        with pytest.raises(ReproError,
                           match="HTTP 500: WorkerLost: worker 0 "):
            client.advance(until_s=10.0)
        assert client.status()["now_s"] == 0.0
    finally:
        fixture.stop()
    assert not fixture.thread.is_alive()


@pytest.mark.parametrize("path, payload, field", [
    ("/ingest", {"memory_bytes": GIB}, "vm_id"),
    ("/ingest", {"vm_id": "seven", "memory_bytes": GIB}, "vm_id"),
    ("/ingest", {"vm_id": 7}, "memory_bytes"),
    ("/ingest", {"vm_id": 7, "memory_bytes": [GIB]}, "memory_bytes"),
    ("/depart", {}, "vm_id"),
    ("/depart", {"vm_id": None}, "vm_id"),
    ("/reshard", {}, "workers"),
    ("/reshard", {"workers": "two"}, "workers"),
    ("/servers/0/migrate", {}, "worker"),
    ("/servers/0/migrate", {"worker": {"id": 1}}, "worker"),
    ("/retune", {"overrides": {"no_such_field": 1}}, "no_such_field"),
    ("/retune", {"overrides": {"monitor_period_s": "x"}},
     "monitor_period_s"),
])
def test_http_400_names_the_bad_field(path, payload, field):
    fixture = _ServiceFixture(num_servers=2, num_workers=2)
    try:
        client = fixture.client
        with pytest.raises(ReproError, match=f"HTTP 400: .*{field}"):
            client._post(path, payload)
        # The mistake reached no simulator: the fleet still ticks.
        assert client.advance(until_s=10.0)["now_s"] == 10.0
        assert [w["servers"] for w in client.workers()] == [[0], [1]]
    finally:
        fixture.stop()


def test_http_400_for_a_non_numeric_event_limit():
    fixture = _ServiceFixture(num_servers=1, num_workers=1)
    try:
        with pytest.raises(ReproError, match="HTTP 400: .*'n'"):
            fixture.client.events(0, limit="ten")
        assert fixture.client.events(0, limit=5) is not None
    finally:
        fixture.stop()


@pytest.mark.parametrize("overrides, field", [
    ({"selection": "no_such_policy"}, "selection"),
    ({"selection": ["random"]}, "selection"),
    ({"block_bytes": 256 * MIB}, "block_bytes"),
    ({"block_bytes": 512 * MIB}, "block_bytes"),
])
def test_http_400_for_a_retune_it_cannot_apply(overrides, field):
    fixture = _ServiceFixture(num_servers=2, num_workers=2)
    try:
        client = fixture.client
        before = client.snapshot(0)
        with pytest.raises(ReproError, match=f"HTTP 400: .*{field}"):
            client.retune(overrides)
        # The refused retune reached no simulator.
        assert client.snapshot(0) == before
        assert client.advance(until_s=10.0)["now_s"] == 10.0
    finally:
        fixture.stop()


def test_http_retuned_selection_orders_the_next_pass():
    fixture = _ServiceFixture(num_servers=3, num_workers=2)
    try:
        client = fixture.client
        for vm in range(8):
            client.ingest(vm_id=3 * vm, memory_bytes=GIB, time_s=10.0 * vm,
                          lifetime_s=300.0)
        client.advance(until_s=200.0)
        # Servers 1 and 2 become copies of server 0.  Servers 0 and 2
        # pick blocks at random from now on; server 0 also goes through
        # a snapshot round trip.
        blob = client.snapshot(0)
        client.restore(1, blob)
        client.restore(2, blob)
        for index in (0, 2):
            client.retune({"selection": "random"}, server=index)
        client.restore(0, client.snapshot(0))

        def offlined(index):
            return [(e["time_s"], e["block"])
                    for e in client.events(index, 200)
                    if e["kind"] == "offline" and e["time_s"] > 200.0]

        # The departures free memory, and the next passes off-line it.
        client.advance(until_s=400.0)
        assert offlined(1)
        assert offlined(0) == offlined(2) != offlined(1)
    finally:
        fixture.stop()


def test_retune_names_an_unknown_field():
    with FleetService(num_servers=2, num_workers=2) as service:
        with pytest.raises(ConfigurationError, match="no_such_field"):
            service.retune({"no_such_field": 1})


def _gone(pid: int) -> bool:
    """Whether *pid* has exited (a zombie awaiting its reaper counts)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_workers_die_with_a_killed_serving_process():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--servers", "2",
         "--workers", "2", "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env)
    try:
        line = proc.stdout.readline().decode()
        port = re.search(r":(\d+)$", line.strip()).group(1)
        with urllib.request.urlopen(f"http://127.0.0.1:{port}/workers",
                                    timeout=30) as answer:
            pids = [w["pid"] for w in json.loads(answer.read())]
        assert len(pids) == 2 and proc.pid not in pids
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
    deadline = time.monotonic() + 10.0
    while not all(_gone(pid) for pid in pids) \
            and time.monotonic() < deadline:
        time.sleep(0.05)
    left = [pid for pid in pids if not _gone(pid)]
    for pid in left:
        os.kill(pid, signal.SIGKILL)
    assert not left, f"workers {left} outlived the serving process"


def test_reshard_workers_replace_the_old_ones():
    with FleetService(num_servers=3, num_workers=2) as service:
        old = [w["pid"] for w in service.workers()]
        service.reshard(3)
        new = service.workers()
        assert [w["servers"] for w in new] == [[0], [1], [2]]
        assert not set(old) & {w["pid"] for w in new}
        deadline = time.monotonic() + 10.0
        while not all(_gone(pid) for pid in old):
            assert time.monotonic() < deadline
            time.sleep(0.05)
        workers = [w.process for w in service._workers]
    assert all(p.exitcode == 0 for p in workers)


def test_ctl_workers(capsys):
    fixture = _ServiceFixture(num_servers=2, num_workers=1)
    try:
        from repro import cli

        assert cli.main(["ctl", "--url", fixture.client.base_url,
                         "workers"]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert [w["servers"] for w in shown] == [[0, 1]]
    finally:
        fixture.stop()

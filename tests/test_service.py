"""The resident fleet service: ingest, tick, checkpoint, reconfigure.

Covers the in-process :class:`FleetService` surface and the REST
control plane end-to-end (a real asyncio server on an ephemeral port,
driven through :class:`ControlClient`).  The load-bearing property is
checkpoint transparency: restore/migrate/reshard must never change
simulation results.
"""

from __future__ import annotations

import asyncio
import bisect
import collections
import pickle
import socket
import threading
import types
from dataclasses import replace

import pytest

from repro.errors import ReproError, SimulationError
from repro.faults.plan import FaultPlan, storm_plan
from repro.service import (
    ControlClient,
    ControlPlane,
    FleetService,
    StreamSource,
)
from repro.service import http
from repro.service.http import MAX_HEADERS
from repro.sim.fleet import shard_assignment
from repro.sim.snapshot import SNAPSHOT_VERSION
from repro.units import GIB
from repro.workloads.azure import VMEvent, VMInstance, VMType
from tests.test_snapshot import FIRED, SideEffect


def shifted(plan: FaultPlan, offset_s: float) -> FaultPlan:
    """*plan* with every rule's window moved *offset_s* later."""
    return replace(plan, rules=tuple(
        replace(rule, start_s=rule.start_s + offset_s,
                end_s=rule.end_s + offset_s) for rule in plan.rules))


def _vm_event(vm_id: int, time_s: float, kind: str = "arrive",
              memory_bytes: int = 2 * GIB) -> VMEvent:
    vm_type = VMType(name=f"t{vm_id}", vcpus=2, memory_bytes=memory_bytes,
                     lifetime_mu=0.0, lifetime_sigma=1.0, image_id=0)
    return VMEvent(time_s=time_s, kind=kind,
                   instance=VMInstance(vm_id=vm_id, vm_type=vm_type,
                                       arrival_s=time_s,
                                       departure_s=float("inf")))


class TestStreamSource:
    def test_rejects_events_behind_the_cursor(self):
        source = StreamSource(sim=None)
        source.push(_vm_event(1, 100.0))
        source.events, source.cursor = source.events, 1  # consumed
        with pytest.raises(SimulationError, match="behind the replay"):
            source.push(_vm_event(2, 50.0))

    def test_equal_timestamps_replay_in_push_order(self, monkeypatch):
        # Python 3.9's bisect functions take no ``key``; hold every
        # interpreter to that floor.
        for name in ("bisect_left", "bisect_right", "insort_left",
                     "insort_right", "insort"):
            original = getattr(bisect, name)

            def keyless(*args, _original=original, **kwargs):
                if "key" in kwargs:
                    raise TypeError("'key' is an invalid keyword argument")
                return _original(*args, **kwargs)

            monkeypatch.setattr(bisect, name, keyless)
        resized = []
        sim = types.SimpleNamespace(
            system=types.SimpleNamespace(ksm=None),
            _resize_owner=lambda owner, *args, **kwargs: resized.append(
                owner))
        source = StreamSource(sim)
        for vm_id, time_s in ((1, 10.0), (2, 5.0), (3, 10.0), (4, 10.0)):
            source.push(_vm_event(vm_id, time_s))
        source.apply(5.0)
        source.push(_vm_event(5, 5.0))  # at the cursor's time: allowed
        source.apply(10.0)
        assert resized == [f"vm{i}" for i in (2, 5, 1, 3, 4)]
        assert source.running == 5 and source.pending == 0

    def test_stable_until_is_next_event_or_infinity(self):
        source = StreamSource(sim=None)
        assert source.stable_until(0.0) == float("inf")
        source.push(_vm_event(1, 30.0))
        assert source.stable_until(0.0) == 30.0
        assert source.stable_until(30.0) == 30.0  # due now: veto
        assert source.pending == 1


@pytest.fixture
def fleet():
    """Makes :class:`FleetService` instances; stops their workers after."""
    made = []

    def make(**kwargs):
        made.append(FleetService(**kwargs))
        return made[-1]

    yield make
    for service in made:
        service.close()


class TestFleetService:
    def test_routing_matches_batch_fleet(self, fleet):
        service = fleet(num_servers=3, num_workers=2)
        assert [service.route(v) for v in range(6)] == [0, 1, 2, 0, 1, 2]
        assert service.assignment == shard_assignment(3, 2)

    def test_ingest_advance_and_departure(self, fleet):
        service = fleet(num_servers=2, num_workers=1)
        placed = service.ingest(vm_id=1, memory_bytes=2 * GIB, time_s=0.0,
                                lifetime_s=600.0)
        assert placed["server"] == 1
        service.advance(until_s=300.0)
        status = service.server_status(1)
        assert status["running_vms"] == 1
        assert status["now_s"] == 300.0
        assert status["dram_energy_j"] > 0
        service.advance(dt_s=600.0)
        assert service.server_status(1)["running_vms"] == 0
        assert service.status()["now_s"] == 900.0

    def test_restore_then_continue_is_bit_identical(self, fleet):
        def drive(restore_at=None):
            service = fleet(num_servers=2, num_workers=1)
            service.ingest(vm_id=1, memory_bytes=2 * GIB, time_s=0.0,
                           lifetime_s=900.0)
            service.advance(until_s=300.0)
            blob = service.snapshot(1)
            if restore_at is not None:
                service.restore(1, blob)
                assert service.server_status(1)["now_s"] == 300.0
            service.advance(until_s=1200.0)
            status = service.server_status(1)
            return (status["dram_energy_j"].hex(),
                    status["baseline_dram_energy_j"].hex(),
                    status["residency_s"])

        assert drive(restore_at=300.0) == drive()

    def test_idle_snapshot_stops_growing(self, fleet):
        # One idle VM: the idle stretch replays as one quiescent window,
        # logged as one run however long it lasts.
        sizes = []
        for hours in (1, 72):
            service = fleet(num_servers=1, num_workers=1)
            service.ingest(vm_id=1, memory_bytes=2 * GIB, time_s=0.0)
            service.advance(until_s=hours * 3600.0)
            sizes.append(len(service.snapshot(0)))
        assert sizes[1] - sizes[0] <= 2048, sizes

    def test_migrate_and_reshard_preserve_state(self, fleet):
        service = fleet(num_servers=3, num_workers=1)
        service.ingest(vm_id=0, memory_bytes=4 * GIB, time_s=0.0)
        service.advance(until_s=120.0)
        before = {i: service.server_status(i)["dram_energy_j"]
                  for i in range(3)}
        moved = service.migrate(0, 0)
        assert moved["server"] == 0
        result = service.reshard(3)
        assert result["workers"] == 3
        assert service.num_workers == 3
        after = {i: service.server_status(i)["dram_energy_j"]
                 for i in range(3)}
        assert {k: v.hex() for k, v in before.items()} == \
               {k: v.hex() for k, v in after.items()}
        # the fleet still ticks after rebalancing
        service.advance(dt_s=60.0)
        assert service.status()["now_s"] == 180.0

    def test_runtime_fault_injection_and_retune(self, fleet):
        service = fleet(num_servers=1, num_workers=1)
        service.ingest(vm_id=0, memory_bytes=2 * GIB, time_s=0.0)
        service.advance(until_s=60.0)
        armed = service.inject_fault_plan(
            0, shifted(storm_plan(seed=5, intensity=3.0, duration_s=600.0),
                       60.0).to_dict())
        assert armed["rules"] > 0
        assert service.server_status(0)["fault_plan"] is not None
        service.retune({"off_thr_fraction": 0.2, "on_thr_fraction": 0.15})
        config = service.server_status(0)["config"]
        assert config["off_thr_fraction"] == 0.2
        service.advance(until_s=300.0)  # survives the storm
        with pytest.raises(ReproError, match="hysteresis"):
            service.retune({"off_thr_fraction": 0.1,
                            "on_thr_fraction": 0.2})

    def test_errors(self, fleet):
        service = fleet(num_servers=1, num_workers=1)
        with pytest.raises(ReproError, match="no server"):
            service.server_status(5)
        with pytest.raises(ReproError, match="exactly one"):
            service.advance()
        with pytest.raises(ReproError, match="rewind"):
            service.advance(until_s=10.0) and service.advance(until_s=5.0)
        service.advance(until_s=20.0)
        with pytest.raises(ReproError, match="rewind"):
            service.advance(until_s=5.0)
        with pytest.raises(ReproError, match="no worker"):
            service.migrate(0, 9)


class _ServiceFixture:
    """A real control plane on an ephemeral port, in a side thread."""

    def __init__(self, **kwargs):
        self.service = FleetService(**kwargs)
        self.loop = asyncio.new_event_loop()
        self.plane = ControlPlane(self.service, port=0)
        started = threading.Event()

        def run():
            asyncio.set_event_loop(self.loop)
            self.loop.run_until_complete(self.plane.start())
            started.set()
            self.loop.run_until_complete(
                self.plane.serve_until_shutdown())
            self.loop.close()

        self.thread = threading.Thread(target=run, daemon=True)
        self.thread.start()
        assert started.wait(10.0)
        self.client = ControlClient(
            f"http://127.0.0.1:{self.plane.bound_port}")

    def stop(self):
        if self.thread.is_alive():
            try:
                self.client.shutdown()
            except ReproError:
                pass
            self.thread.join(10.0)
        self.service.close()


@pytest.fixture
def live_service():
    fixture = _ServiceFixture(num_servers=2, num_workers=1)
    yield fixture
    fixture.stop()


class TestControlPlane:
    def test_rest_drive(self, live_service):
        client = live_service.client
        assert client.status()["servers"] == 2
        placed = client.ingest(vm_id=1, memory_bytes=2 * GIB,
                               lifetime_s=600.0)
        assert placed["server"] == 1
        assert client.advance(until_s=300.0)["now_s"] == 300.0

        blob = client.snapshot(1)
        client.advance(until_s=900.0)
        energy_golden = client.server(1)["dram_energy_j"]
        residency_golden = client.server(1)["residency_s"]

        # kill the state, restore the checkpoint, replay the same tick
        assert client.restore(1, blob)["restored"] is True
        assert client.server(1)["now_s"] == 300.0
        client.advance(until_s=900.0)
        assert client.server(1)["dram_energy_j"].hex() == \
            energy_golden.hex()
        assert client.server(1)["residency_s"] == residency_golden

        events = client.events(1, limit=5)
        assert all({"time_s", "kind", "block"} <= set(e) for e in events)
        summaries = client.servers()
        assert [s["server"] for s in summaries] == [0, 1]

    def test_rest_reconfiguration(self, live_service):
        client = live_service.client
        client.ingest(vm_id=0, memory_bytes=2 * GIB)
        client.advance(until_s=60.0)
        armed = client.inject_fault_plan(
            0, shifted(storm_plan(seed=2, duration_s=300.0), 60.0).to_dict())
        assert armed["plan"].startswith("storm")
        tuned = client.retune({"off_thr_fraction": 0.18,
                               "on_thr_fraction": 0.14}, server=0)
        assert tuned["servers"] == [0]
        assert client.server(0)["config"]["off_thr_fraction"] == 0.18
        moved = client.migrate(1, 0)
        assert moved["server"] == 1
        assert client.reshard(2)["workers"] == 2
        client.advance(dt_s=120.0)
        assert client.status()["now_s"] == 180.0

    def test_rest_errors(self, live_service):
        client = live_service.client
        with pytest.raises(ReproError, match="no server"):
            client.server(9)
        with pytest.raises(ReproError, match="404"):
            client._get("/nonsense")
        with pytest.raises(ReproError, match="overrides"):
            client.retune({})
        with pytest.raises(ReproError, match="snapshot body"):
            client.restore(0, b"")
        with pytest.raises(ReproError):
            client.restore(0, b"garbage bytes")

    def test_restore_refuses_code(self, live_service, tmp_path):
        client = live_service.client
        client.advance(until_s=60.0)
        before = client.server(0)
        payload = {"version": SNAPSHOT_VERSION, "spec": None, "run": None}
        # The blob is loaded in a worker process, where FIRED is not this
        # process's list: a file shows a side effect from any process.
        marker = tmp_path / "fired"
        for server in (SideEffect(), CreatesFile(marker),
                       collections.OrderedDict()):
            payload["server"] = server
            with pytest.raises(ReproError, match="HTTP 400: .*not allowed"):
                client.restore(0, pickle.dumps(payload))
        assert FIRED == [] and not marker.exists()
        after = client.server(0)
        assert after["dram_energy_j"].hex() == before["dram_energy_j"].hex()
        assert after["now_s"] == 60.0


class CreatesFile:
    """Pickles as a call that creates *path*."""

    def __init__(self, path):
        self.path = str(path)

    def __reduce__(self):
        return open, (self.path, "w")


def _raw_status(port: int, request: bytes) -> int:
    """Send *request* bytes, half-close, and return the answer's status."""
    with socket.create_connection(("127.0.0.1", port), timeout=10.0) as sock:
        sock.sendall(request)
        sock.shutdown(socket.SHUT_WR)
        answer = b""
        while b"\r\n" not in answer:
            chunk = sock.recv(4096)
            if not chunk:
                break
            answer += chunk
    return int(answer.split(b" ", 2)[1])


class TestHostileRequests:
    """Malformed requests answer 4xx and leave the simulation untouched."""

    @pytest.mark.parametrize("request_bytes, status", [
        (b"POST /advance HTTP/1.1\r\nContent-Length: ten\r\n\r\n", 400),
        (b"POST /advance HTTP/1.1\r\nContent-Length: -5\r\n\r\n", 400),
        (b"POST /advance HTTP/1.1\r\nContent-Length: 100\r\n\r\n"
         b'{"dt_s": 6', 400),
        (b"GET /status HTTP/1.1\r\n"
         + b"X-Filler: 1\r\n" * (MAX_HEADERS + 1) + b"\r\n", 431),
        (b"GET /" + b"a" * 70000 + b" HTTP/1.1\r\n\r\n", 414),
        (b"GET /status HTTP/1.1\r\nX-Long: " + b"a" * 70000
         + b"\r\n\r\n", 431),
    ], ids=["non-numeric-length", "negative-length", "short-body",
            "too-many-headers", "long-request-line", "long-header"])
    def test_rejected_without_touching_state(self, live_service,
                                             request_bytes, status):
        client = live_service.client
        client.ingest(vm_id=1, memory_bytes=2 * GIB)
        client.advance(until_s=120.0)
        before = client.server(0)["dram_energy_j"]
        assert _raw_status(live_service.plane.bound_port,
                           request_bytes) == status
        after = client.server(0)["dram_energy_j"]
        assert after.hex() == before.hex()
        assert client.status()["now_s"] == 120.0

    def test_stalled_request_times_out(self, live_service, monkeypatch):
        # Half a request line, then silence: the read deadline answers
        # 408 and drops the connection; the service keeps serving.
        monkeypatch.setattr(http, "REQUEST_READ_TIMEOUT_S", 0.2)
        port = live_service.plane.bound_port
        with socket.create_connection(("127.0.0.1", port),
                                      timeout=10.0) as sock:
            sock.sendall(b"GET /sta")
            answer = b""
            while True:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                answer += chunk
        assert answer.startswith(b"HTTP/1.1 408 Request Timeout\r\n")
        assert _raw_status(port, b"GET /status HTTP/1.1\r\n\r\n") == 200

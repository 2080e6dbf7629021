"""A resident fleet of warm simulators behind one control surface.

The batch path (:mod:`repro.sim.fleet`) answers "replay this 24 h trace
on N servers"; this module keeps those same servers *resident*: built
once, ticked forever, fed VM arrivals as they happen, and inspectable /
reconfigurable / checkpointable while running.  The REST layer in
:mod:`repro.service.http` is a thin JSON skin over the
:class:`FleetService` methods here, so everything is equally usable
in-process (tests drive it directly).

Layout: ``num_servers`` simulators are dealt round-robin onto
``num_workers`` worker shards (:func:`repro.sim.fleet.shard_assignment`),
and VMs route to servers by ``vm_id % num_servers`` — the same placement
the batch fleet uses.  Each shard is a forked worker process holding its
servers as :class:`ServiceServer` objects; the servers of a fleet share
no state, so one ``advance`` ticks the shards in parallel.  The calling
process is a coordinator that holds no simulator.  It keeps the
assignment, each server's last reported clock, energy and VM count (so
:meth:`FleetService.status` needs no round trip), and a queue of pushed
VM events per worker.  Every message to a worker carries that worker's
queued events first, so each server sees the same pushes in the same
order as if they had been applied at once.

Servers cross between processes only as snapshot blobs, restored
(restricted) inside a worker.  Checkpoints make the shards elastic:
:meth:`FleetService.reshard` snapshots every server, forks workers for
the new count and restores each snapshot on its new worker;
:meth:`FleetService.migrate` moves one server the same way.  Because a
restored server continues bit-for-bit (``tests/test_snapshot.py``),
rebalancing never perturbs simulation results.

A worker closes the sockets it inherits and exits when its pipe reaches
end-of-file, so workers die with the serving process even when it is
killed; :meth:`FleetService.close` stops them in an orderly way.
"""

from __future__ import annotations

import gc
import math
import multiprocessing
import os
import pickle
import signal
import stat
import weakref
from typing import Dict, List, Optional, Tuple, Union

from repro.core.daemon import GreenDIMMDaemon
from repro.errors import ConfigurationError, SimulationError
from repro.faults.plan import FaultPlan
from repro.policies.registry import DEFAULT_POLICY
from repro.sim import snapshot as snapshot_mod
from repro.sim.fleet import fleet_server_spec, shard_assignment
from repro.sim.snapshot import ServerSpec
from repro.service.stream import StreamSource
from repro.units import GIB
from repro.workloads.azure import VMEvent, VMInstance, VMType

#: Workers are forked: a spawned one would re-import the library.
_FORK = multiprocessing.get_context("fork")

#: Seconds :func:`_stop_workers` waits for a worker before killing it.
_JOIN_TIMEOUT_S = 5.0


class WorkerLost(RuntimeError):
    """A worker process is gone, and with it the servers it held."""


class ServiceServer:
    """One warm simulator: a paused kernel run over a stream source."""

    def __init__(self, spec: ServerSpec, epoch_s: float = 5.0,
                 pinned_churn: bool = False):
        self.spec = spec
        self.sim = spec.build()
        source = StreamSource(self.sim)
        self.state = self.sim.kernel.begin(source, epoch_s,
                                           pinned_churn=pinned_churn)

    @property
    def source(self) -> StreamSource:
        return self.state.source  # type: ignore[return-value]

    @property
    def daemon(self) -> GreenDIMMDaemon:
        return self.sim.system.daemon

    # --- driving ------------------------------------------------------------

    def ingest(self, event: VMEvent) -> None:
        self.source.push(event)

    def tick(self, until_s: float) -> None:
        """Advance the paused run to *until_s* of simulation time."""
        if until_s > self.state.now_s:
            self.sim.kernel.advance(self.state, until_s=until_s, exact=True)

    # --- checkpoint/restore -------------------------------------------------

    def snapshot(self) -> bytes:
        return snapshot_mod.capture(self.sim, run_state=self.state,
                                    spec=self.spec)

    @classmethod
    def from_snapshot(cls, blob: bytes) -> "ServiceServer":
        restored = snapshot_mod.restore(blob)
        if restored.run_state is None or restored.spec is None:
            raise SimulationError(
                "service snapshots carry a run state and a spec")
        server = cls.__new__(cls)
        server.spec = restored.spec
        server.sim = restored.sim
        server.state = restored.run_state
        return server

    # --- reconfiguration ----------------------------------------------------

    def install_fault_plan(self, plan: FaultPlan) -> None:
        self.sim.system.install_fault_plan(plan, now_s=self.state.now_s)

    def retune(self, **overrides) -> None:
        self.sim.system.retune(**overrides)

    # --- observability ------------------------------------------------------

    def status(self) -> Dict[str, object]:
        system = self.sim.system
        mm = system.mm
        stats = self.daemon.stats
        residency = self.state.residency
        return {
            "now_s": self.state.now_s,
            "policy": system.policy_name,
            "running_vms": self.source.running,
            "pending_events": self.source.pending,
            "applied_events": self.source.cursor,
            "dram_energy_j": self.state.dram_energy,
            "baseline_dram_energy_j": self.state.baseline_energy,
            "residency_s": residency.as_dict(),
            "residency_fractions": residency.fractions(),
            "offline_blocks": system.policy.offline_block_count,
            "dpd_fraction": system.policy.dpd_fraction(),
            "free_pages": mm.free_pages,
            "online_pages": mm.online_pages,
            "offline_events": stats.offline_events,
            "online_events": stats.online_events,
            "emergency_onlines": stats.emergency_onlines,
            "fault_plan": (system.fault_plan.name
                           if system.fault_plan is not None else None),
            "config": {
                "off_thr_fraction": system.config.off_thr_fraction,
                "on_thr_fraction": system.config.on_thr_fraction,
                "monitor_period_s": system.config.monitor_period_s,
            },
        }

    def events(self, limit: int = 50) -> List[Dict[str, object]]:
        """The daemon's most recent decisions, newest last."""
        log = self.daemon.event_log
        tail = list(log)[-max(0, limit):]
        return [{"time_s": e.time_s, "kind": e.kind, "block": e.block}
                for e in tail]


# --- the worker process ------------------------------------------------------


#: A server's numbers that the fleet summary sums: clock, DRAM energy,
#: baseline DRAM energy and running VMs.
Summary = Tuple[float, float, float, int]


class _Shard:
    """One worker's servers, and the operations its coordinator sends."""

    def __init__(self) -> None:
        self.servers: Dict[int, ServiceServer] = {}

    def summary(self) -> Dict[int, Summary]:
        return {index: (server.state.now_s, server.state.dram_energy,
                        server.state.baseline_energy, server.source.running)
                for index, server in self.servers.items()}

    def tick(self, until_s: float) -> None:
        for server in self.servers.values():
            server.tick(until_s)

    def status(self, index: int) -> Dict[str, object]:
        return self.servers[index].status()

    def statuses(self) -> Dict[int, Dict[str, object]]:
        return {index: server.status()
                for index, server in self.servers.items()}

    def events(self, index: int, limit: int) -> List[Dict[str, object]]:
        return self.servers[index].events(limit=limit)

    def snapshot(self, index: int) -> bytes:
        return self.servers[index].snapshot()

    def snapshots(self) -> Dict[int, bytes]:
        return {index: server.snapshot()
                for index, server in self.servers.items()}

    def restore(self, index: int, blob: bytes) -> None:
        self.servers[index] = ServiceServer.from_snapshot(blob)

    def drop(self, index: int) -> None:
        del self.servers[index]

    def fault(self, index: int, plan: FaultPlan) -> None:
        self.servers[index].install_fault_plan(plan)

    def retune(self, overrides: Dict[str, object],
               index: Optional[int] = None) -> None:
        for target in ([index] if index is not None
                       else sorted(self.servers)):
            self.servers[target].retune(**overrides)

    def info(self) -> Dict[str, object]:
        return {"pid": os.getpid(), "servers": sorted(self.servers),
                "peak_rss_mb": _peak_rss_mb()}


def _peak_rss_mb() -> float:
    """This process's peak resident set (``VmHWM``), in MB."""
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    return 0.0


def _close_inherited_sockets(keep: int) -> None:
    """Close every socket a forked worker inherits except *keep*.

    Those are the pipe ends of the serving process (its own and the
    other workers'), so that a worker's pipe reaches end-of-file when
    the serving process dies, and, after a reshard, the listening
    socket and the request in flight.
    """
    for name in os.listdir("/dev/fd"):
        fd = int(name)
        if fd > 2 and fd != keep:
            try:
                if stat.S_ISSOCK(os.fstat(fd).st_mode):
                    os.close(fd)
            except OSError:  # the listing's own descriptor, now closed
                pass


def _portable(err: Exception) -> object:
    """*err* if it survives a pickle round trip, else its class and
    message (or a :class:`RuntimeError` naming a class that cannot be
    pickled either)."""
    try:
        pickle.loads(pickle.dumps(err))
        return err
    except Exception:
        pass
    try:
        pickle.dumps(type(err))
    except Exception:
        return RuntimeError, f"{type(err).__qualname__}: {err}"
    return type(err), str(err)


def _rebuilt(payload: object) -> BaseException:
    if isinstance(payload, BaseException):
        return payload
    cls, message = payload
    # Class and message only: its __init__ may want other arguments.
    return cls.__new__(cls, message)


def _worker_main(conn, contents: Dict[int, Union[ServerSpec, bytes]],
                 epoch_s: float, pinned_churn: bool) -> None:
    """A worker's life: build or restore its servers, then answer one
    reply per message until the pipe reaches end-of-file.

    It runs right after a fork, possibly one made while the serving
    process held an idle executor thread, so it imports nothing and
    logs nothing.  Every reply carries the worker's server summaries.
    """
    # The serving process's objects are never touched here again; frozen,
    # no collection can finalize one (and close a descriptor it owned).
    gc.freeze()
    _close_inherited_sockets(conn.fileno())
    # Ctrl-C reaches the whole process group; the serving process decides
    # when workers stop.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    shard = _Shard()
    try:
        for index, item in contents.items():
            shard.servers[index] = (
                ServiceServer.from_snapshot(item) if isinstance(item, bytes)
                else ServiceServer(item, epoch_s=epoch_s,
                                   pinned_churn=pinned_churn))
        reply: Tuple[str, object] = ("ok", None)
    except Exception as err:
        reply = ("error", _portable(err))
    while True:
        try:
            conn.send(reply + (shard.summary(),))
            events, op, args = conn.recv()
        except (EOFError, OSError):  # the serving process is gone
            return
        try:
            for index, event in events:
                shard.servers[index].ingest(event)
            reply = ("ok", getattr(shard, op)(*args))
        except Exception as err:
            reply = ("error", _portable(err))


# --- the serving process -----------------------------------------------------


class _Worker:
    """The serving process's handle on one worker process."""

    def __init__(self, number: int, process, conn):
        self.number = number
        self.process = process
        self.conn = conn
        #: ``(server, event)`` pushes not yet sent, in push order.
        self.queue: List[Tuple[int, VMEvent]] = []
        #: Why the worker is gone, once it is.
        self.lost: Optional[str] = None


def _stop_workers(workers: List[_Worker]) -> None:
    """Close every worker's pipe (its cue to exit), then reap it."""
    for worker in workers:
        worker.conn.close()
    for worker in workers:
        worker.process.join(_JOIN_TIMEOUT_S)
        if worker.process.exitcode is None:
            worker.process.kill()
            worker.process.join()


class FleetService:
    """All resident servers, their worker processes, and the fleet clock.

    Close it (or use it as a context manager) to stop the workers.
    """

    def __init__(self, num_servers: int = 4, num_workers: int = 2,
                 policy: str = DEFAULT_POLICY, seed: int = 7,
                 epoch_s: float = 5.0, enable_ksm: bool = False,
                 pinned_churn: bool = False,
                 kernel_boot_bytes: int = 2 * GIB):
        if num_servers < 1:
            raise ConfigurationError("need at least one fleet server")
        self.num_servers = num_servers
        self.policy = policy
        self.seed = seed
        self.epoch_s = epoch_s
        self.pinned_churn = pinned_churn
        self.now_s = 0.0
        self._vm_types: Dict[int, VMType] = {}
        self.assignment = shard_assignment(num_servers, num_workers)
        self._summary: Dict[int, Summary] = {}
        self._workers: List[_Worker] = []
        self._finalizer = weakref.finalize(self, _stop_workers, self._workers)
        specs = {index: fleet_server_spec(index, seed=seed, policy=policy,
                                          enable_ksm=enable_ksm,
                                          kernel_boot_bytes=kernel_boot_bytes)
                 for index in range(num_servers)}
        self._workers.extend(self._spawn(specs, self.assignment, num_workers))

    def close(self) -> None:
        """Stop every worker process; later calls do nothing."""
        self._finalizer()

    def __enter__(self) -> "FleetService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # --- workers ------------------------------------------------------------

    @property
    def num_workers(self) -> int:
        return len(self._workers)

    def _spawn(self, contents: Dict[int, Union[ServerSpec, bytes]],
               assignment: Dict[int, int], num_workers: int
               ) -> List[_Worker]:
        """Fork one worker per shard, each building (from a spec) or
        restoring (from a blob) its servers, and wait until all are up."""
        workers: List[_Worker] = []
        try:
            for number in range(num_workers):
                mine = {index: item for index, item in contents.items()
                        if assignment[index] == number}
                conn, child_conn = _FORK.Pipe()
                process = _FORK.Process(
                    target=_worker_main, name=f"repro-worker-{number}",
                    args=(child_conn, mine, self.epoch_s, self.pinned_churn),
                    daemon=True)
                process.start()
                child_conn.close()
                workers.append(_Worker(number, process, conn))
            self._gather(workers)
        except BaseException:
            _stop_workers(workers)
            raise
        return workers

    def _worker_of(self, index: int) -> _Worker:
        try:
            return self._workers[self.assignment[index]]
        except KeyError:
            raise ConfigurationError(
                f"no server {index} (fleet has {self.num_servers})") from None

    def _send(self, worker: _Worker, op: str, *args) -> None:
        """Send *op* behind the worker's queued pushes."""
        if worker.lost is None:
            events, worker.queue = worker.queue, []
            try:
                worker.conn.send((events, op, args))
            except OSError:
                self._lose(worker)

    def _receive(self, worker: _Worker) -> object:
        """The worker's reply: its result, or its error raised here."""
        if worker.lost is None:
            try:
                status, result, summary = worker.conn.recv()
            except (EOFError, OSError):
                self._lose(worker)
        if worker.lost is not None:
            raise WorkerLost(worker.lost)
        self._summary.update(summary)
        if status == "error":
            raise _rebuilt(result)
        return result

    @staticmethod
    def _lose(worker: _Worker) -> None:
        # A closed pipe means an exiting process: reap it for its code.
        worker.process.join(_JOIN_TIMEOUT_S)
        worker.lost = (f"worker {worker.number} (pid {worker.process.pid}) "
                       f"is gone, exit code {worker.process.exitcode}")

    def _call(self, worker: _Worker, op: str, *args) -> object:
        self._send(worker, op, *args)
        return self._receive(worker)

    def _gather(self, workers: List[_Worker]) -> List[object]:
        """One reply from each of *workers*.  The first error is raised
        only once every reply is in, so no pipe is left out of step."""
        results, errors = [], []
        for worker in workers:
            try:
                results.append(self._receive(worker))
            except Exception as err:
                errors.append(err)
        if errors:
            raise errors[0]
        return results

    def _broadcast(self, op: str, *args) -> List[object]:
        """Send *op* to every worker, then wait for all of them."""
        for worker in self._workers:
            self._send(worker, op, *args)
        return self._gather(self._workers)

    def workers(self) -> List[Dict[str, object]]:
        """Each worker's pid, servers and peak RSS (``VmHWM``)."""
        return [{"worker": worker.number, **info} for worker, info
                in zip(self._workers, self._broadcast("info"))]

    # --- lookup -------------------------------------------------------------

    def route(self, vm_id: int) -> int:
        """The server a VM lands on (same placement as batch fleets)."""
        return vm_id % self.num_servers

    # --- ingestion ----------------------------------------------------------

    def _queue_for(self, index: int) -> List[Tuple[int, VMEvent]]:
        worker = self._worker_of(index)
        if worker.lost is not None:
            raise WorkerLost(worker.lost)
        return worker.queue

    def ingest(self, vm_id: int, memory_bytes: int, time_s: float,
               lifetime_s: Optional[float] = None, vcpus: int = 2,
               image_id: int = 0) -> Dict[str, object]:
        """Admit one VM: an arrival now (or at *time_s*, if later than
        the server's clock) plus, with a lifetime, its departure.

        Returns the placement, so callers can follow up on the server.
        The events reach the server with the next message to its worker.
        """
        if memory_bytes <= 0:
            raise ConfigurationError("VM memory must be positive")
        index = self.route(vm_id)
        queue = self._queue_for(index)
        arrival = max(time_s, self._summary[index][0])
        departure = (arrival + lifetime_s if lifetime_s is not None
                     else math.inf)
        vm_type = self._vm_types.get(vm_id)
        if vm_type is None:
            vm_type = VMType(name=f"ingest-{vm_id}", vcpus=vcpus,
                             memory_bytes=memory_bytes,
                             lifetime_mu=0.0, lifetime_sigma=1.0,
                             image_id=image_id)
            self._vm_types[vm_id] = vm_type
        instance = VMInstance(vm_id=vm_id, vm_type=vm_type,
                              arrival_s=arrival, departure_s=departure)
        queue.append((index, VMEvent(time_s=arrival, kind="arrive",
                                     instance=instance)))
        if lifetime_s is not None:
            queue.append((index, VMEvent(time_s=departure, kind="depart",
                                         instance=instance)))
        return {"vm_id": vm_id, "server": index,
                "worker": self.assignment[index], "arrival_s": arrival}

    def depart(self, vm_id: int, time_s: float) -> Dict[str, object]:
        """Explicitly retire a VM that was admitted without a lifetime."""
        vm_type = self._vm_types.get(vm_id)
        if vm_type is None:
            raise ConfigurationError(f"unknown VM {vm_id}")
        index = self.route(vm_id)
        queue = self._queue_for(index)
        when = max(time_s, self._summary[index][0])
        instance = VMInstance(vm_id=vm_id, vm_type=vm_type,
                              arrival_s=0.0, departure_s=when)
        queue.append((index, VMEvent(time_s=when, kind="depart",
                                     instance=instance)))
        return {"vm_id": vm_id, "server": index, "departure_s": when}

    # --- the fleet clock ----------------------------------------------------

    def advance(self, until_s: Optional[float] = None,
                dt_s: Optional[float] = None) -> float:
        """Tick every server to one shared simulation time.

        The workers tick in parallel.  If one fails, the fleet clock
        does not move.
        """
        if (until_s is None) == (dt_s is None):
            raise ConfigurationError("pass exactly one of until_s / dt_s")
        target = self.now_s + dt_s if dt_s is not None else until_s
        if target < self.now_s:
            raise ConfigurationError(
                f"cannot rewind the fleet clock ({target} < {self.now_s})")
        self._broadcast("tick", target)
        self.now_s = target
        return self.now_s

    # --- checkpointing and elasticity ---------------------------------------

    def snapshot(self, index: int) -> bytes:
        return self._call(self._worker_of(index), "snapshot", index)

    def restore(self, index: int, blob: bytes) -> None:
        """Replace server *index* with a restored snapshot, in place."""
        self._call(self._worker_of(index), "restore", index, blob)

    def migrate(self, index: int, worker: int) -> Dict[str, object]:
        """Move one server to another worker via checkpoint/restore."""
        source = self._worker_of(index)
        if not 0 <= worker < self.num_workers:
            raise ConfigurationError(
                f"no worker {worker} (fleet has {self.num_workers})")
        blob = self._call(source, "snapshot", index)
        self._call(self._workers[worker], "restore", index, blob)
        if worker != source.number:
            self._call(source, "drop", index)
        self.assignment[index] = worker
        return {"server": index, "from": source.number, "to": worker,
                "snapshot_bytes": len(blob)}

    def reshard(self, num_workers: int) -> Dict[str, object]:
        """Elastically change the worker count, checkpoint-based.

        Every server is snapshotted, the round-robin assignment is
        recomputed for the new shape, and each snapshot is restored on
        a freshly forked worker; the old workers stop once the new ones
        are up.  Results are unaffected: a restored server continues
        bit-for-bit.
        """
        new_assignment = shard_assignment(self.num_servers, num_workers)
        blobs: Dict[int, bytes] = {}
        for part in self._broadcast("snapshots"):
            blobs.update(part)
        workers = self._spawn(blobs, new_assignment, num_workers)
        _stop_workers(self._workers)
        self._workers[:] = workers
        moved = sum(new_assignment[index] != self.assignment[index]
                    for index in range(self.num_servers))
        self.assignment = new_assignment
        return {"workers": num_workers, "servers": self.num_servers,
                "moved": moved}

    # --- runtime reconfiguration --------------------------------------------

    def inject_fault_plan(self, index: int,
                          plan: Dict[str, object]) -> Dict[str, object]:
        fault_plan = FaultPlan.from_dict(plan)
        self._call(self._worker_of(index), "fault", index, fault_plan)
        return {"server": index, "plan": fault_plan.name,
                "rules": len(fault_plan)}

    def retune(self, overrides: Dict[str, object],
               index: Optional[int] = None) -> Dict[str, object]:
        """Retune daemon thresholds — one server or the whole fleet."""
        if index is None:
            self._broadcast("retune", overrides)
            targets = list(range(self.num_servers))
        else:
            self._call(self._worker_of(index), "retune", overrides, index)
            targets = [index]
        return {"servers": targets, "overrides": overrides}

    # --- observability ------------------------------------------------------

    def status(self) -> Dict[str, object]:
        """The fleet summary, from the workers' last replies."""
        rows = [self._summary[index] for index in range(self.num_servers)]
        dram = sum(row[1] for row in rows)
        baseline = sum(row[2] for row in rows)
        running = sum(row[3] for row in rows)
        return {
            "now_s": self.now_s,
            "servers": self.num_servers,
            "workers": self.num_workers,
            "policy": self.policy,
            "epoch_s": self.epoch_s,
            "running_vms": running,
            "fleet_dram_energy_j": dram,
            "fleet_baseline_dram_energy_j": baseline,
            "fleet_dram_energy_saving": (
                1.0 - dram / baseline if baseline > 0 else 0.0),
            "assignment": {str(k): v for k, v in self.assignment.items()},
        }

    def _tagged(self, index: int,
                summary: Dict[str, object]) -> Dict[str, object]:
        summary["server"] = index
        summary["worker"] = self.assignment[index]
        return summary

    def servers(self) -> List[Dict[str, object]]:
        statuses: Dict[int, Dict[str, object]] = {}
        for part in self._broadcast("statuses"):
            statuses.update(part)
        return [self._tagged(index, statuses[index])
                for index in range(self.num_servers)]

    def server_status(self, index: int) -> Dict[str, object]:
        return self._tagged(index, self._call(self._worker_of(index),
                                              "status", index))

    def server_events(self, index: int,
                      limit: int = 50) -> List[Dict[str, object]]:
        return self._call(self._worker_of(index), "events", index, limit)

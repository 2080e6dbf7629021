"""Per-layer host-time accounting from outside the program.

The benchmark may not edit ``src/``, so layers are timed by wrapping
their entry points at class level, in the benchmark's own processes
only.  Each wrapper records the *self time* of its call: the call's
duration minus the durations of the wrapped calls it made.  Every
wrapper also costs time of its own; :meth:`LayerTracer.calibrate`
measures that cost on a no-op and it is subtracted per call, because
without it the ~10^6 allocator calls of a fleet replay would inflate the
allocator layers by tens of percent.

The layer names are the benchmark's per-layer metric names without
their ``_s`` / ``_calls`` suffix.
"""

from __future__ import annotations

import importlib
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Marks a wrapped call that raised, for hooks that count outcomes.
RAISED = object()

#: (layer, "module:Class", methods).  A method is wrapped only on the
#: class whose ``__dict__`` defines it, so inherited methods are never
#: wrapped twice.
LAYER_TABLE: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("kernel.self", "repro.sim.kernel:EpochKernel",
     ("begin", "advance", "finish")),
    ("kernel.replay", "repro.sim.kernel:EpochKernel",
     ("_fast_forward_window", "_stable_span_window")),
    ("kernel.sample", "repro.sim.kernel:EpochKernel",
     ("_sample", "_baseline_power_w")),
    ("source.apply", "repro.sim.kernel:ProfileSource", ("apply",)),
    ("source.apply", "repro.sim.kernel:TraceSource", ("apply",)),
    ("source.apply", "repro.sim.kernel:MixSource", ("apply",)),
    ("source.apply", "repro.service.stream:StreamSource", ("apply",)),
    ("server.resize", "repro.sim.server:ServerSimulator", ("_resize_owner",)),
    ("server.churn", "repro.sim.server:ServerSimulator", ("_pinned_churn",)),
    ("sim.build", "repro.core.system:GreenDIMMSystem", ("__init__",)),
    ("sim.build", "repro.sim.server:ServerSimulator", ("__init__",)),
    ("os.mm", "repro.os.mm:PhysicalMemoryManager",
     ("allocate", "free_pages_of", "free_all", "migrate_block_out",
      "isolate_block")),
    ("os.buddy", "repro.os.buddy:BuddyAllocator",
     ("alloc_block", "alloc_pages", "free_block", "free_max_order_blocks",
      "isolate_range", "undo_isolation", "free_pages_in_range", "add_range",
      "split_allocated", "remove_allocated")),
    ("os.swap", "repro.os.swap:SwapSpace", ("swap_out", "swap_in", "drop")),
    ("os.hotplug", "repro.os.hotplug:MemoryBlockManager",
     ("offline_block", "online_block")),
    ("policy.step", "repro.policies.greendimm:GreenDIMMPolicy",
     ("step", "tick_quiescent")),
    ("policy.step", "repro.policies.base:PeriodicPolicy",
     ("step", "tick_quiescent")),
    ("core.daemon.monitor", "repro.core.daemon:GreenDIMMDaemon",
     ("monitor_once",)),
    ("faults.injector", "repro.faults.injector:FaultInjector",
     ("should_fail", "advance", "quiescent_until")),
    ("power.model", "repro.power.model:DRAMPowerModel",
     ("busy_power_cached", "power_batched")),
)

#: The resident service's handlers, timed in the server process only.
SERVICE_TABLE: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = tuple(
    (f"service.{name}", "repro.service.fleet_service:FleetService", (name,))
    for name in ("ingest", "advance", "status", "servers", "snapshot"))


def _resolve(path: str):
    module, _, name = path.partition(":")
    return getattr(importlib.import_module(module), name)


class LayerTracer:
    """Self-time buckets, call counts and counters of wrapped layers."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.counters: Dict[str, float] = {}
        #: Inclusive per-call durations of layers installed with
        #: ``keep_durations`` (the service handlers).
        self.durations: Dict[str, List[float]] = {}
        #: Calibrated wrapper cost inside / outside the timed interval.
        self.inner_cost_s = 0.0
        self.outer_cost_s = 0.0
        # Child-time accumulator of each open wrapped call; the bottom
        # entry collects the time of top-level wrapped calls.
        self._stack: List[float] = [0.0]
        self._patches: List[Tuple[object, str, object]] = []
        # id(stats object) -> (the object, its counters when last seen);
        # holding the object keeps its id from being reused.
        self._seen: Dict[int, Tuple[object, Dict[str, int]]] = {}

    # --- wrapping -----------------------------------------------------------

    def wrap(self, fn: Callable, layer: str,
             hook: Optional[Callable[[tuple, object], None]] = None,
             keep_durations: bool = False) -> Callable:
        """*fn* timed into *layer*; *hook(args, result)* sees each call's
        arguments and result (:data:`RAISED` if it raised)."""
        self.self_s.setdefault(layer, 0.0)
        self.calls.setdefault(layer, 0)
        durations = (self.durations.setdefault(layer, [])
                     if keep_durations else None)
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        clock = self.clock
        tracer = self

        def timed(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            result = RAISED
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                if hook is not None:
                    hook(args, result)
                elapsed = clock() - start
                children = stack.pop()
                self_s[layer] += elapsed - children - tracer.inner_cost_s
                calls[layer] += 1
                if durations is not None:
                    durations.append(elapsed)
                stack[-1] += elapsed + tracer.outer_cost_s

        timed.__wrapped__ = fn
        timed.__name__ = getattr(fn, "__name__", "timed")
        return timed

    def patch(self, owner: object, name: str, layer: str,
              hook: Optional[Callable[[tuple, object], None]] = None,
              keep_durations: bool = False) -> None:
        original = vars(owner)[name]
        self._patches.append((owner, name, original))
        setattr(owner, name, self.wrap(original, layer, hook=hook,
                                       keep_durations=keep_durations))

    def install(self, service: bool = False) -> None:
        """Wrap every layer of :data:`LAYER_TABLE` with its counter hooks;
        with *service*, also the handlers of :data:`SERVICE_TABLE`, whose
        per-call durations are kept."""
        from repro.policies import demotion, migration, pasr, ramzzz, srf
        from repro.sim import snapshot

        rows = list(LAYER_TABLE)
        # Every policy class that overrides the base class's loop.
        for module in (demotion, migration, pasr, ramzzz, srf):
            for value in vars(module).values():
                if isinstance(value, type) \
                        and value.__module__ == module.__name__:
                    rows.append(("policy.step",
                                 f"{module.__name__}:{value.__name__}",
                                 ("step", "tick_quiescent")))
        hooks = self._hooks()
        for layer, path, methods in rows:
            cls = _resolve(path)
            for method in methods:
                if method in vars(cls):
                    self.patch(cls, method, layer,
                               hook=hooks.get((path, method)))
        self.patch(snapshot, "capture", "snapshot.capture",
                   hook=self._count_bytes)
        if service:
            for layer, path, methods in SERVICE_TABLE:
                for method in methods:
                    self.patch(_resolve(path), method, layer,
                               keep_durations=True)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # --- counters -----------------------------------------------------------

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _hooks(self) -> Dict[Tuple[str, str], Callable]:
        return {
            ("repro.sim.kernel:EpochKernel", "advance"): self._kernel_counts,
            ("repro.os.swap:SwapSpace", "swap_out"): self._swap_out,
            ("repro.os.hotplug:MemoryBlockManager", "offline_block"):
                self._offline,
            ("repro.faults.injector:FaultInjector", "should_fail"):
                self._injected,
        }

    def _swap_out(self, args: tuple, result: object) -> None:
        if result is not RAISED:
            self.count("os.swap_out_pages", args[2])

    def _offline(self, args: tuple, result: object) -> None:
        self.count("os.hotplug.offline_attempts")
        if result is not RAISED:
            self.count("os.hotplug.offline_ok")

    def _injected(self, args: tuple, result: object) -> None:
        if result is not None and result is not RAISED:
            self.count("faults.injected")

    def _count_bytes(self, args: tuple, result: object) -> None:
        if result is not RAISED:
            self.count("snapshot.bytes", len(result))

    def _kernel_counts(self, args: tuple, result: object) -> None:
        """Fold the run's epoch and power-cache counters in by delta.

        ``advance`` may be called many times on one paused run (the
        service ticks it), and the counters are cumulative per run, so
        only the growth since the last look at the same object counts.
        """
        kernel = args[0]
        pairs = (
            (kernel.sim.ff_stats,
             (("kernel.epochs_stepped", "epochs_stepped"),
              ("kernel.epochs_ff", "epochs_fast_forwarded"),
              ("kernel.epochs_batched", "epochs_batched"))),
            (kernel.system.power_model.cache_stats,
             (("power.cache_hits", "hits"), ("power.cache_misses", "misses"))),
        )
        for stats, fields in pairs:
            _, last = self._seen.get(id(stats), (stats, {}))
            for counter, field in fields:
                value = getattr(stats, field)
                self.count(counter, value - last.get(field, 0))
                last[field] = value
            self._seen[id(stats)] = (stats, last)

    # --- calibration and reporting ------------------------------------------

    def calibrate(self, iterations: int = 200_000, rounds: int = 5) -> None:
        """Measure the per-call wrapper cost on a no-op method.

        ``inner`` is what a wrapped no-op's own timed interval reads
        beyond the bare call; ``outer`` is the rest of the per-call
        difference between wrapped and bare loops.  Both take the best
        of several rounds, as scheduler noise only ever adds time.
        """
        probe = LayerTracer(self.clock)

        class NoOp:
            def op(self) -> None:
                return None

        wrapped = probe.wrap(NoOp.op, "noop")
        target = NoOp()
        bare_s = wrapped_s = inner_s = float("inf")
        for _ in range(rounds):
            start = time.perf_counter()
            for _ in range(iterations):
                NoOp.op(target)
            bare_s = min(bare_s, (time.perf_counter() - start) / iterations)
            probe.self_s["noop"] = 0.0
            start = time.perf_counter()
            for _ in range(iterations):
                wrapped(target)
            wrapped_s = min(wrapped_s,
                            (time.perf_counter() - start) / iterations)
            inner_s = min(inner_s, probe.self_s["noop"] / iterations)
        self.inner_cost_s = max(0.0, inner_s - bare_s)
        self.outer_cost_s = max(0.0, wrapped_s - bare_s - self.inner_cost_s)

    @property
    def overhead_s(self) -> float:
        """Total calibrated wrapper cost of every call recorded so far."""
        return sum(self.calls.values()) * (self.inner_cost_s
                                           + self.outer_cost_s)

    def snapshot(self) -> Dict[str, object]:
        """A JSON-ready copy of every bucket and counter."""
        return {"self_s": dict(self.self_s), "calls": dict(self.calls),
                "counters": dict(self.counters),
                "durations": {k: list(v) for k, v in self.durations.items()},
                "overhead_s": self.overhead_s,
                "inner_cost_s": self.inner_cost_s,
                "outer_cost_s": self.outer_cost_s}

"""Versioned checkpoint/restore of a full :class:`ServerSimulator`.

A snapshot is two halves:

* a :class:`ServerSpec` — the JSON-able *construction recipe* (policy,
  seeds, organization, config overrides, fault plan, churn parameters).
  Restore builds a fresh simulator from the spec, reproducing the exact
  component graph — including every ``random.Random`` instance in the
  constructor-defined draw order — before any state is loaded;
* a *state tree* — the live mutable state of every component, gathered
  by the ``state_dict()`` methods and pickled **in one call**.

The one-pickle rule is what makes restore exact: components share
objects across their state dicts (KSM region content is shared with
the trace source).  Every ``state_dict()`` therefore returns **live
references**, the snapshot layer assembles the whole tree, and a
single immediate ``pickle.dumps`` preserves the shared identities.
Under the ``greendimm`` policy the policy *is* the daemon, so its state
is stored once, under ``"daemon"``.  Restore is the
mirror image: ``load_state_dict()`` assigns state *onto the existing
component instances* — never replacing the components themselves — so
all cross-wiring (daemon -> selector, sysfs -> hot-plug, policy ->
system, fault wrappers -> cores) survives.

RNG streams follow one rule everywhere: ``state_dict`` stores
``rng.getstate()``, ``load_state_dict`` calls ``rng.setstate()``.  That
covers the simulator's churn RNG, the hot-plug failure RNG, the
daemon's selector RNG, KSM's scan RNG, and both treap priority RNGs.

A mid-run checkpoint additionally carries the paused
:class:`~repro.sim.kernel.KernelRunState`.  The concrete workload
sources drop their simulator back-reference when pickled
(``__getstate__``); :func:`restore` re-binds ``source.sim`` to the
rebuilt simulator.  Because :meth:`EpochKernel.advance` only honours a
pause bound between loop iterations (fast-forward windows and stable
spans always run to their natural horizon), a snapshot taken at any
pause point and continued elsewhere replays the *identical* float
stream — energies, samples, and residency match an uninterrupted run
bit for bit.  ``tests/test_snapshot.py`` pins that contract for every
registered policy, mid-fault-storm and under pinned churn.

Restore unpickles with the stdlib "Restricting Globals" recipe: a blob
may name only the classes and functions in :data:`SNAPSHOT_GLOBALS`, so
a crafted body sent to a service's restore route cannot make unpickling
call arbitrary code.
"""

from __future__ import annotations

import dataclasses
import io
import pathlib
import pickle
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Tuple, Union

from repro.core.config import GreenDIMMConfig, SelectionPolicy
from repro.core.system import GreenDIMMSystem
from repro.dram.organization import spec_server_memory
from repro.errors import SnapshotError
from repro.faults.plan import FaultPlan
from repro.sim.kernel import KernelRunState
from repro.sim.server import ServerSimulator

PathLike = Union[str, pathlib.Path]

#: Bump on any incompatible change to the state tree's shape.  Restore
#: refuses versions it does not know rather than guessing.
SNAPSHOT_VERSION = 11


#: Every global a capture references, and all that :func:`restore` will
#: load.  ``tests/test_snapshot.py`` collects the globals of real
#: captures of every source kind and asserts they equal this set, so a
#: new class in the state tree fails there instead of at restore.
SNAPSHOT_GLOBALS: FrozenSet[Tuple[str, str]] = frozenset({
    ("collections", "deque"),
    ("repro.core.config", "GreenDIMMConfig"),
    ("repro.core.config", "SelectionPolicy"),
    ("repro.core.daemon", "DaemonEvent"),
    ("repro.core.daemon", "DaemonStats"),
    ("repro.faults.injector", "FaultStats"),
    ("repro.faults.plan", "FaultPlan"),
    ("repro.faults.plan", "FaultRule"),
    ("repro.ksm.content", "RegionContent"),
    ("repro.ksm.daemon", "KSMStats"),
    ("repro.ksm.daemon", "_OwnerShare"),
    ("repro.ksm.trees", "SharedPage"),
    ("repro.ksm.trees", "_Node"),
    ("repro.obs.residency", "ResidencyStats"),
    ("repro.os.hotplug", "HotplugStats"),
    ("repro.os.hotplug", "MemoryBlockState"),
    ("repro.os.page", "BlockAccounting"),
    ("repro.os.page", "OwnerKind"),
    ("repro.os.page", "PageExtent"),
    ("repro.os.swap", "SwapStats"),
    ("repro.power.model", "DRAMPowerBreakdown"),
    ("repro.power.model", "PowerCacheStats"),
    ("repro.service.stream", "StreamSource"),
    ("repro.sim.calendar", "EventCalendar"),
    ("repro.sim.fastforward", "FastForwardStats"),
    ("repro.sim.fastforward", "SimClock"),
    ("repro.sim.kernel", "EpochSample"),
    ("repro.sim.kernel", "KernelRunState"),
    ("repro.sim.kernel", "MixSource"),
    ("repro.sim.kernel", "ProfileSource"),
    ("repro.sim.kernel", "TraceSource"),
    ("repro.sim.server", "_PinnedExtent"),
    ("repro.soa", "SampleLog"),
    ("repro.soa", "SampleRun"),
    ("repro.workloads.azure", "AzureTrace"),
    ("repro.workloads.azure", "UtilizationSample"),
    ("repro.workloads.azure", "VMEvent"),
    ("repro.workloads.azure", "VMInstance"),
    ("repro.workloads.azure", "VMType"),
    ("repro.workloads.profiles", "Suite"),
    ("repro.workloads.profiles", "WorkloadProfile"),
    ("repro.workloads.trace", "FootprintTrace"),
})


class _SnapshotUnpickler(pickle.Unpickler):
    """Loads only :data:`SNAPSHOT_GLOBALS`; any other global is refused
    before it is imported."""

    def find_class(self, module: str, name: str) -> object:
        if (module, name) not in SNAPSHOT_GLOBALS:
            raise pickle.UnpicklingError(
                f"global {module}.{name} is not allowed in a snapshot")
        return super().find_class(module, name)

#: Named memory organizations a spec may reference (JSON carries the
#: name, not the object).  ``fleet`` matches
#: :func:`repro.sim.fleet.fleet_server_memory`.
_ORGANIZATIONS = {
    "spec": spec_server_memory,
}


def _fleet_server_memory():
    from repro.sim.fleet import fleet_server_memory

    return fleet_server_memory()


def _azure_server_memory():
    from repro.dram.organization import azure_server_memory

    return azure_server_memory()


_ORGANIZATIONS["fleet"] = _fleet_server_memory
_ORGANIZATIONS["azure"] = _azure_server_memory


@dataclass(frozen=True)
class ServerSpec:
    """A JSON-able recipe that rebuilds one simulator from scratch.

    :meth:`build` reproduces the constructor-time component graph of
    ``GreenDIMMSystem`` + ``ServerSimulator`` exactly (same seeds, same
    RNG draw order, same wrapper topology), which is the precondition
    for :func:`restore` loading a state tree onto it.
    """

    policy: Optional[str] = None
    seed: int = 42
    sim_seed: int = 5
    organization: str = "spec"
    enable_ksm: bool = False
    movable_fraction: float = 0.85
    transient_failure_probability: float = 0.85
    kernel_boot_bytes: Optional[int] = None
    config: Dict[str, object] = field(default_factory=dict)
    fault_plan: Optional[Dict[str, object]] = None
    pinned_churn_rate_per_s: float = 0.3
    pinned_lifetime_s: float = 45.0
    fast_forward: Optional[bool] = None

    def __post_init__(self) -> None:
        if self.organization not in _ORGANIZATIONS:
            raise SnapshotError(
                f"unknown organization {self.organization!r}; known: "
                f"{', '.join(sorted(_ORGANIZATIONS))}")

    # --- construction -------------------------------------------------------

    def _config(self) -> Optional[GreenDIMMConfig]:
        if not self.config:
            return None
        overrides = dict(self.config)
        selection = overrides.get("selection")
        if isinstance(selection, str):
            overrides["selection"] = SelectionPolicy(selection)
        return GreenDIMMConfig(**overrides)  # type: ignore[arg-type]

    def build(self) -> ServerSimulator:
        """A fresh simulator at t=0, exactly as the spec describes."""
        plan = (FaultPlan.from_dict(self.fault_plan)
                if self.fault_plan is not None else None)
        kwargs: Dict[str, object] = {}
        if self.kernel_boot_bytes is not None:
            kwargs["kernel_boot_bytes"] = self.kernel_boot_bytes
        system = GreenDIMMSystem(
            organization=_ORGANIZATIONS[self.organization](),
            config=self._config(),
            movable_fraction=self.movable_fraction,
            enable_ksm=self.enable_ksm,
            transient_failure_probability=self.transient_failure_probability,
            fault_plan=plan,
            policy=self.policy,
            seed=self.seed,
            **kwargs)  # type: ignore[arg-type]
        return ServerSimulator(
            system,
            pinned_churn_rate_per_s=self.pinned_churn_rate_per_s,
            pinned_lifetime_s=self.pinned_lifetime_s,
            seed=self.sim_seed,
            fast_forward=self.fast_forward)

    # --- serialization ------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        out = dataclasses.asdict(self)
        # Drop defaults for a compact, forward-friendly rendering.
        for name, value in list(out.items()):
            if value == getattr(type(self), "__dataclass_fields__")[
                    name].default:
                del out[name]
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ServerSpec":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise SnapshotError(
                f"unknown spec field(s): {', '.join(sorted(unknown))}")
        return cls(**data)  # type: ignore[arg-type]


@dataclass
class RestoredSnapshot:
    """What :func:`restore` hands back."""

    sim: ServerSimulator
    run_state: Optional[KernelRunState]
    spec: Optional[ServerSpec]


def capture(sim: ServerSimulator,
            run_state: Optional[KernelRunState] = None,
            spec: Optional[ServerSpec] = None) -> bytes:
    """Serialize *sim* (and an optionally paused run) to bytes.

    The state tree is assembled from live references and pickled in a
    single call, preserving every shared-object identity (see the
    module docstring).  With *spec* attached the snapshot is
    self-contained: :func:`restore` can rebuild the simulator from
    nothing.  Without it, the caller must supply a structurally
    identical simulator at restore time.
    """
    if run_state is not None and run_state.source.sim is not sim:
        raise SnapshotError("run state belongs to a different simulator")
    payload = {
        "version": SNAPSHOT_VERSION,
        "spec": spec.to_dict() if spec is not None else None,
        "server": sim.state_dict(),
        "run": run_state,
    }
    return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)


def restore(data: bytes,
            sim: Optional[ServerSimulator] = None) -> RestoredSnapshot:
    """Rebuild a simulator (and paused run) from :func:`capture` bytes.

    Without *sim*, the embedded spec is built into a fresh simulator
    first; state is then loaded in place and the paused run's source is
    re-bound to the restored simulator.  Continuing the run from here
    is bit-for-bit identical to never having paused.  A blob naming a
    global outside :data:`SNAPSHOT_GLOBALS` raises :class:`SnapshotError`.
    """
    try:
        payload = _SnapshotUnpickler(io.BytesIO(data)).load()
    except Exception as err:
        raise SnapshotError(f"undecodable snapshot: {err}") from err
    if not isinstance(payload, dict) or "version" not in payload:
        raise SnapshotError("not a simulator snapshot")
    version = payload["version"]
    if version != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"snapshot version {version!r} unsupported "
            f"(this build reads version {SNAPSHOT_VERSION})")
    spec = (ServerSpec.from_dict(payload["spec"])
            if payload["spec"] is not None else None)
    if sim is None:
        if spec is None:
            raise SnapshotError(
                "snapshot carries no spec; pass the simulator to restore "
                "into")
        sim = spec.build()
    sim.load_state_dict(payload["server"])
    run_state: Optional[KernelRunState] = payload["run"]
    if run_state is not None:
        run_state.source.sim = sim
    return RestoredSnapshot(sim=sim, run_state=run_state, spec=spec)


def save(path: PathLike, sim: ServerSimulator,
         run_state: Optional[KernelRunState] = None,
         spec: Optional[ServerSpec] = None) -> None:
    """:func:`capture` to a file (written atomically via a temp name)."""
    target = pathlib.Path(path)
    data = capture(sim, run_state=run_state, spec=spec)
    tmp = target.with_name(target.name + ".tmp")
    tmp.write_bytes(data)
    tmp.replace(target)


def load(path: PathLike,
         sim: Optional[ServerSimulator] = None) -> RestoredSnapshot:
    """:func:`restore` from a file."""
    try:
        data = pathlib.Path(path).read_bytes()
    except OSError as err:
        raise SnapshotError(f"cannot read snapshot: {err}") from err
    return restore(data, sim=sim)

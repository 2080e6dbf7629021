"""Facade wiring a whole GreenDIMM-managed server together.

Examples and benchmarks build one :class:`GreenDIMMSystem` instead of
assembling the memory manager, hot-plug manager, block map, control
register, KSM, and daemon by hand.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Optional

from repro.core.config import GreenDIMMConfig
from repro.core.daemon import GreenDIMMDaemon
from repro.core.mapping import PowerBlockMap
from repro.core.power_control import GreenDIMMPowerControl
from repro.dram.address import AddressMapping
from repro.dram.organization import MemoryOrganization, spec_server_memory
from repro.errors import ConfigurationError
from repro.faults.context import get_active_plan, register_injector
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.faults.wrappers import wrap_system_components
from repro.ksm.daemon import KSMConfig, KSMDaemon
from repro.os.hotplug import HotplugLatencyModel, MemoryBlockManager
from repro.os.mm import PhysicalMemoryManager
from repro.os.page import OwnerKind
from repro.os.sysfs import SysfsMemoryInterface
from repro.policies.context import get_active_policy
from repro.policies.registry import DEFAULT_POLICY, create_policy
from repro.power.model import DRAMPowerBreakdown, DRAMPowerModel
from repro.units import GIB


class GreenDIMMSystem:
    """One server: topology + OS substrate + GreenDIMM + power model."""

    def __init__(self, organization: Optional[MemoryOrganization] = None,
                 config: Optional[GreenDIMMConfig] = None,
                 movable_fraction: float = 0.85,
                 enable_ksm: bool = False,
                 ksm_config: Optional[KSMConfig] = None,
                 hotplug_latency: Optional[HotplugLatencyModel] = None,
                 transient_failure_probability: float = 0.85,
                 kernel_boot_bytes: int = 2 * GIB,
                 fault_plan: Optional[FaultPlan] = None,
                 policy: Optional[str] = None,
                 seed: int = 42):
        self.organization = organization or spec_server_memory()
        self.config = config or GreenDIMMConfig()
        rng = random.Random(seed)
        # Fault injection: an explicit plan wins; otherwise the runner's
        # process-global plan (``repro run --fault-plan``) applies.  The
        # wrappers are identity when no plan is active.
        from_context = fault_plan is None
        # `is None`, not truthiness: an explicit empty plan (zero rules,
        # so falsy via __len__) must still beat the ambient context plan.
        self.fault_plan = (fault_plan if fault_plan is not None
                           else get_active_plan())
        self.fault_injector = (FaultInjector(self.fault_plan)
                               if self.fault_plan is not None else None)
        if self.fault_injector is not None and from_context:
            register_injector(self.fault_injector)
        core_mm = PhysicalMemoryManager(
            total_bytes=self.organization.total_capacity_bytes,
            block_bytes=self.config.block_bytes,
            movable_fraction=movable_fraction)
        core_hotplug = MemoryBlockManager(
            core_mm, latency=hotplug_latency,
            transient_failure_probability=transient_failure_probability,
            rng=random.Random(rng.randrange(1 << 30)))
        self.mapping = AddressMapping(self.organization, interleaved=True)
        self.block_map = PowerBlockMap(self.mapping, self.config.block_bytes)
        core_power_control = GreenDIMMPowerControl(
            self.block_map, pair_gating=self.config.pair_gating)
        self.mm, self.hotplug, self.power_control = wrap_system_components(
            core_mm, core_hotplug, core_power_control, self.fault_injector)
        self.sysfs = SysfsMemoryInterface(core_hotplug)
        # KSM runs against the unwrapped manager: its merge/unmerge
        # bookkeeping must not be starved by injected pressure spikes.
        self.ksm = (KSMDaemon(core_mm, config=ksm_config,
                              rng=random.Random(rng.randrange(1 << 30)))
                    if enable_ksm else None)
        self.daemon = GreenDIMMDaemon(
            self.mm, self.hotplug, self.power_control, self.config,
            ksm=self.ksm, rng=random.Random(rng.randrange(1 << 30)))
        self.power_model = DRAMPowerModel(self.organization)
        if kernel_boot_bytes:
            core_mm.allocate("kernel", kernel_boot_bytes // 4096,
                             kind=OwnerKind.KERNEL)
        # Policy selection: an explicit name wins; otherwise the runner's
        # process-global selection (``repro run --policy``) applies, and
        # the GreenDIMM daemon remains the default.  The daemon itself is
        # always constructed (above, preserving the RNG draw order) so
        # direct ``system.daemon`` consumers keep working under any
        # policy; only the kernel's stepping goes through ``self.policy``.
        self.policy_name = (policy if policy is not None
                            else get_active_policy() or DEFAULT_POLICY)
        self.policy = create_policy(self.policy_name, self)

    # --- runtime reconfiguration -------------------------------------------

    def install_fault_plan(self, plan: FaultPlan, now_s: float = 0.0) -> None:
        """Arm (or replace) a fault plan on a *live* system.

        Rebuilds the fault wrappers around the unwrapped core components
        and re-points every consumer that captured the old surfaces at
        construction time (the daemon and its block selector).  KSM and
        sysfs deliberately keep talking to the unwrapped core, exactly as
        in ``__init__``.
        """
        core_mm = getattr(self.mm, "inner", self.mm)
        core_hotplug = getattr(self.hotplug, "inner", self.hotplug)
        core_power_control = getattr(self.power_control, "inner",
                                     self.power_control)
        self.fault_plan = plan
        self.fault_injector = FaultInjector(plan)
        self.fault_injector.advance(now_s)
        self.mm, self.hotplug, self.power_control = wrap_system_components(
            core_mm, core_hotplug, core_power_control, self.fault_injector)
        self.daemon.mm = self.mm
        self.daemon.hotplug = self.hotplug
        self.daemon.power_control = self.power_control
        self.daemon.selector.hotplug = self.hotplug

    def retune(self, **overrides) -> GreenDIMMConfig:
        """Replace config fields (e.g. daemon thresholds) without restart.

        ``dataclasses.replace`` re-runs the config's own validation, and
        the daemon re-checks the page-count band as its constructor does.
        An unknown field, or a value the validation cannot compare,
        raises :class:`ConfigurationError` naming the overrides.
        ``block_bytes`` is refused: the memory manager, the block map and
        the hot-plug layer are built for one block size.
        Returns the new config.
        """
        fields = {f.name for f in dataclasses.fields(self.config) if f.init}
        unknown = sorted(set(overrides) - fields)
        if unknown:
            raise ConfigurationError(
                f"unknown config field(s): {', '.join(unknown)}")
        if "block_bytes" in overrides:
            raise ConfigurationError(
                "block_bytes is fixed when the system is built and "
                "cannot be retuned")
        try:
            config = dataclasses.replace(self.config, **overrides)
        except TypeError as err:
            raise ConfigurationError(
                f"bad config override(s) {overrides!r}: {err}") from None
        self.daemon.check_band(config)
        self.config = config
        self.daemon.config = config
        return config

    # --- checkpoint/restore --------------------------------------------------

    def state_dict(self) -> dict:
        """The whole server-side state tree (live references — the caller
        pickles immediately; see :mod:`repro.sim.snapshot`)."""
        core_mm = getattr(self.mm, "inner", self.mm)
        core_hotplug = getattr(self.hotplug, "inner", self.hotplug)
        core_power_control = getattr(self.power_control, "inner",
                                     self.power_control)
        return {
            "config": self.config,
            "mm": core_mm.state_dict(),
            "hotplug": core_hotplug.state_dict(),
            "power_control": core_power_control.state_dict(),
            "daemon": self.daemon.state_dict(),
            # Under ``greendimm`` the policy is the daemon, stored above.
            "policy": (None if self.policy is self.daemon
                       else self.policy.state_dict()),
            "ksm": self.ksm.state_dict() if self.ksm is not None else None,
            "fault_plan": self.fault_plan,
            "fault_injector": (self.fault_injector.state_dict()
                               if self.fault_injector is not None else None),
            "power_model": self.power_model.state_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        """Adopt a captured state tree onto this (freshly built) system.

        Component objects keep their identity — only their internal state
        is replaced — so all cross-wiring (daemon -> selector, sysfs ->
        hot-plug, policy -> system) survives.  A snapshot taken after a
        runtime :meth:`install_fault_plan` re-arms the plan here.
        """
        self.config = state["config"]
        core_mm = getattr(self.mm, "inner", self.mm)
        core_hotplug = getattr(self.hotplug, "inner", self.hotplug)
        core_power_control = getattr(self.power_control, "inner",
                                     self.power_control)
        core_mm.load_state_dict(state["mm"])
        core_hotplug.load_state_dict(state["hotplug"])
        core_power_control.load_state_dict(state["power_control"])
        if state["fault_injector"] is not None:
            if (self.fault_injector is None
                    or self.fault_plan is not state["fault_plan"]):
                self.install_fault_plan(state["fault_plan"])
            self.fault_injector.load_state_dict(state["fault_injector"])
        self.daemon.load_state_dict(state["daemon"])
        if self.policy is not self.daemon:
            self.policy.load_state_dict(state["policy"])
        if self.ksm is not None and state["ksm"] is not None:
            self.ksm.load_state_dict(state["ksm"])
        self.power_model.load_state_dict(state["power_model"])

    # --- stepping ----------------------------------------------------------

    def advance_time(self, now_s: float) -> None:
        """Carry simulation time to the fault injector (no-op without one)."""
        if self.fault_injector is not None:
            self.fault_injector.advance(now_s)

    def step(self, now_s: float, dt_s: float = 1.0) -> None:
        """Advance KSM and the active power policy by one epoch."""
        self.advance_time(now_s)
        if self.ksm is not None:
            self.ksm.step(dt_s)
        self.policy.step(now_s, dt_s)

    # --- power views ----------------------------------------------------------

    def dram_power(self, bandwidth_bytes_per_s: float = 0.0,
                   active_residency: float = 0.0,
                   row_miss_rate: float = 0.5) -> DRAMPowerBreakdown:
        """Current DRAM power, honouring the gated sub-array groups.

        Memoized: the policy's whole power-relevant state projects onto
        ``dpd_fraction``, so (bandwidth, residency, row-miss, dpd) keys
        the evaluation exactly.
        """
        return self.power_model.busy_power_cached(
            bandwidth_bytes_per_s,
            active_residency=active_residency,
            row_miss_rate=row_miss_rate,
            dpd_fraction=self.policy.dpd_fraction())

    def baseline_dram_power(self, bandwidth_bytes_per_s: float = 0.0,
                            active_residency: float = 0.0,
                            row_miss_rate: float = 0.5) -> DRAMPowerBreakdown:
        """The same operating point with no sub-array gating."""
        return self.power_model.busy_power_cached(
            bandwidth_bytes_per_s,
            active_residency=active_residency,
            row_miss_rate=row_miss_rate,
            dpd_fraction=0.0)

    @property
    def power_cache_stats(self):
        """Hit/miss counters of the memoized power-model evaluations."""
        return self.power_model.cache_stats

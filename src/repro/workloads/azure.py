"""An Azure-like VM arrival/consolidation trace generator.

Substitutes for the proprietary Microsoft Azure VM trace the paper replays
(Sections 3.1 and 6.3).  The generator reproduces the published setup:

* 100 distinct VM types (vCPU count, memory size, lifetime distribution);
* VM scheduling/consolidation every five minutes;
* vCPU consolidation ratio capped at 2x the physical cores;
* admitted memory never exceeding the server capacity;
* a diurnal load pattern calibrated so 24 hours of trace show ~48% mean
  memory utilization, swinging between roughly 7% and 92% (Figure 1).

Each VM carries an ``image_id``; VMs cloned from the same image share
page content, which is what gives KSM its cross-VM merging opportunities.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Optional

from repro.errors import ConfigurationError
from repro.units import GIB, MIB

#: The paper's scheduling/consolidation period.
SCHEDULING_PERIOD_S = 300.0

#: vCPU consolidation ratio bound ("less than or equal to two").
CONSOLIDATION_RATIO = 2.0


@dataclass(frozen=True)
class VMType:
    """One VM flavour: size plus a lognormal lifetime distribution."""

    name: str
    vcpus: int
    memory_bytes: int
    lifetime_mu: float  # of ln(lifetime_s)
    lifetime_sigma: float
    image_id: int

    def sample_lifetime_s(self, rng: random.Random) -> float:
        return min(rng.lognormvariate(self.lifetime_mu, self.lifetime_sigma),
                   7 * 24 * 3600.0)


@dataclass
class VMInstance:
    """A running VM admitted to the server."""

    vm_id: int
    vm_type: VMType
    arrival_s: float
    departure_s: float

    @property
    def owner_id(self) -> str:
        return f"vm{self.vm_id}"


@dataclass(frozen=True)
class VMEvent:
    """Arrival or departure, as the epoch simulation replays them."""

    time_s: float
    kind: str  # "arrive" | "depart"
    instance: VMInstance


@dataclass(frozen=True)
class UtilizationSample:
    time_s: float
    used_bytes: int
    vcpus_used: int


class AzureVMCatalog:
    """Builds the 100-type VM population.

    vCPU counts and per-vCPU memory follow the common Azure flavours;
    lifetimes follow the Resource Central observation that most VMs are
    short-lived while a tail runs for days.
    """

    VCPU_CHOICES = (1, 2, 4, 8, 16)
    VCPU_WEIGHTS = (0.35, 0.30, 0.20, 0.10, 0.05)
    #: Memory per vCPU, GiB.  Skewed to memory-heavy flavours: with the
    #: consolidation ratio capped at 2x cores, only high memory-per-vCPU
    #: mixes can reach the ~90% memory peaks the paper observes.
    GB_PER_VCPU = (2.0, 4.0, 8.0, 8.0, 16.0)
    NUM_IMAGES = 10

    def __init__(self, num_types: int = 100, seed: int = 2021):
        if num_types <= 0:
            raise ConfigurationError("need at least one VM type")
        rng = random.Random(seed)
        self.types: List[VMType] = []
        for i in range(num_types):
            vcpus = rng.choices(self.VCPU_CHOICES, self.VCPU_WEIGHTS)[0]
            gb_per_vcpu = rng.choice(self.GB_PER_VCPU)
            memory = int(vcpus * gb_per_vcpu * GIB)
            memory = max(memory, 768 * MIB)
            # Bimodal lifetimes: ~70% short (tens of minutes), rest long.
            if rng.random() < 0.7:
                mu, sigma = math.log(1800.0), 0.8
            else:
                mu, sigma = math.log(6 * 3600.0), 1.0
            self.types.append(VMType(
                name=f"type{i:03d}", vcpus=vcpus, memory_bytes=memory,
                lifetime_mu=mu, lifetime_sigma=sigma,
                image_id=rng.randrange(self.NUM_IMAGES)))

    def sample(self, rng: random.Random) -> VMType:
        return rng.choice(self.types)


@dataclass
class AzureTrace:
    """A generated 24h trace: events plus the ideal utilization series."""

    events: List[VMEvent]
    samples: List[UtilizationSample]
    capacity_bytes: int

    @property
    def mean_utilization(self) -> float:
        if not self.samples:
            return 0.0
        return sum(s.used_bytes for s in self.samples) / (
            len(self.samples) * self.capacity_bytes)


class AzureTraceGenerator:
    """Schedules VMs onto one server with the paper's admission rules."""

    def __init__(self, capacity_bytes: int = 256 * GIB,
                 physical_cores: int = 16,
                 catalog: Optional[AzureVMCatalog] = None,
                 duration_s: float = 24 * 3600.0,
                 seed: int = 7):
        self.capacity_bytes = capacity_bytes
        self.max_vcpus = int(physical_cores * CONSOLIDATION_RATIO)
        self.catalog = catalog or AzureVMCatalog()
        self.duration_s = duration_s
        self.rng = random.Random(seed)

    def _target_utilization(self, time_s: float) -> float:
        """Diurnal demand curve: quiet night, busy afternoon, plus noise."""
        day_fraction = (time_s % 86400.0) / 86400.0
        diurnal = 0.42 - 0.41 * math.cos(2 * math.pi * (day_fraction - 0.08))
        noise = self.rng.gauss(0.0, 0.05)
        return min(0.95, max(0.05, diurnal + noise))

    def generate(self) -> AzureTrace:
        """Produce arrivals/departures and the resulting utilization."""
        events: List[VMEvent] = []
        samples: List[UtilizationSample] = []
        running: List[VMInstance] = []
        next_id = 0
        steps = int(self.duration_s / SCHEDULING_PERIOD_S)
        for step in range(steps):
            now = step * SCHEDULING_PERIOD_S
            # Departures first.
            still: List[VMInstance] = []
            for vm in running:
                if vm.departure_s <= now:
                    events.append(VMEvent(now, "depart", vm))
                else:
                    still.append(vm)
            running = still
            # Admissions toward the diurnal target.
            target_bytes = int(self._target_utilization(now) * self.capacity_bytes)
            used = sum(vm.vm_type.memory_bytes for vm in running)
            vcpus = sum(vm.vm_type.vcpus for vm in running)
            attempts = 0
            while used < target_bytes and attempts < 64:
                attempts += 1
                vm_type = self.catalog.sample(self.rng)
                if used + vm_type.memory_bytes > self.capacity_bytes:
                    continue
                if used + vm_type.memory_bytes > target_bytes + 4 * GIB:
                    continue
                if vcpus + vm_type.vcpus > self.max_vcpus:
                    continue
                instance = VMInstance(
                    vm_id=next_id, vm_type=vm_type, arrival_s=now,
                    departure_s=now + vm_type.sample_lifetime_s(self.rng))
                next_id += 1
                running.append(instance)
                events.append(VMEvent(now, "arrive", instance))
                used += vm_type.memory_bytes
                vcpus += vm_type.vcpus
            samples.append(UtilizationSample(
                time_s=now, used_bytes=used, vcpus_used=vcpus))
        return AzureTrace(events=events, samples=samples,
                          capacity_bytes=self.capacity_bytes)

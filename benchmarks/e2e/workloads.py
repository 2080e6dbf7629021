"""Inputs and units of work of the batch workloads.

Everything random is drawn here, from the benchmark's ``--seed``, before
any timing starts; the program under test only ever receives the
generated traces, profiles and fault plans (pickled into the rep
processes by :mod:`child`).  A *unit* is the smallest piece of work the
harness times and digests: one fleet server's day, one co-located mix,
or one (profile, policy) storm cell.

Each rep of a batch workload runs one *batch* of units.  Rep ``k`` of a
run draws its batch from ``(seed, k)``, so successive reps measure
different inputs and the run's medians average over many more inputs
than one batch holds; the same ``(seed, k)`` always yields the same
batch, which is what the digests pin.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import random
from dataclasses import dataclass
from typing import List, Sequence, Tuple

BATCH_WORKLOADS = ("fleet_replay", "mix_ramp", "policy_storm")
SERVICE_WORKLOAD = "service_stream"
WORKLOADS = BATCH_WORKLOADS + (SERVICE_WORKLOAD,)

#: Fleet servers per batch: five 8-server fleets' worth.
FLEET_UNITS = 40
FLEET_SERVERS = 8
#: A shard whose concurrent VM demand exceeds this is left out of the
#: batch: the 16 GiB box offers 14 GiB after boot plus 16 GiB of swap,
#: and shards peaking at 30 GiB or more die with ``swap exhausted`` (the
#: batch would then measure a failure path, not the replay).
FLEET_PEAK_DEMAND_GIB = 28
#: Each profile appears this many times per mix batch, so every batch
#: carries the same per-profile work and only the co-location differs.
MIX_COPIES = 3
#: Largest summed peak footprint of one mix.  The 8 GiB box holds 7.5 GiB
#: after boot plus 16 GiB of swap; heavier mixes die with ``swap
#: exhausted``, so groupings that would build one are drawn again.
MIX_PEAK_DEMAND_GIB = 20
#: Storm cells run the tournament's fast-mode profile length and epoch.
STORM_DURATION_S = 180.0
STORM_EPOCH_S = 2.0
STORM_INTENSITY = 4.0
STORM_BLOCKS = 32


@dataclass(frozen=True)
class Unit:
    """One timed, digested piece of a batch.

    ``sim_s`` is the simulated server-seconds the unit completes, fixed
    by its inputs, so a unit that raises contributes its wall time but
    none of its simulated time.
    """

    uid: str
    kind: str
    sim_s: float
    args: Tuple[object, ...]


def _rng(workload: str, seed: int, rep: int) -> random.Random:
    # A string-seeded RNG keeps neighbouring seeds' batches unrelated.
    return random.Random(f"{workload}/{seed}/{rep}")


def make_batch(workload: str, seed: int, rep: int) -> List[Unit]:
    """The units rep *rep* of *workload* runs at *seed*."""
    makers = {"fleet_replay": _fleet_batch, "mix_ramp": _mix_batch,
              "policy_storm": _storm_batch}
    if workload not in makers:
        raise ValueError(f"not a batch workload: {workload!r}")
    return makers[workload](_rng(workload, seed, rep))


def _peak_demand(trace) -> int:
    used = peak = 0
    for event in trace.events:
        size = event.instance.vm_type.memory_bytes
        used += size if event.kind == "arrive" else -size
        peak = max(peak, used)
    return peak


def _fleet_batch(rng: random.Random) -> List[Unit]:
    from repro.sim.fleet import FleetSource
    from repro.units import GIB

    units: List[Unit] = []
    while len(units) < FLEET_UNITS:
        fleet_seed = rng.randrange(1 << 31)
        source = FleetSource(num_servers=FLEET_SERVERS, seed=fleet_seed,
                             epoch_s=5.0, pinned_churn=False)
        for job in source.jobs():
            if len(units) == FLEET_UNITS:
                break
            if _peak_demand(job.trace) > FLEET_PEAK_DEMAND_GIB * GIB:
                continue
            end = max((e.time_s for e in job.trace.events), default=0.0)
            units.append(Unit(uid=f"fleet{fleet_seed}/server{job.index}",
                              kind="fleet", sim_s=end + 300.0,
                              args=(job,)))
    return units


def partition_sizes(n: int, rng: random.Random) -> List[int]:
    """Split *n* profiles into mixes of 2-4, never leaving one alone."""
    sizes = []
    while n:
        size = min(rng.choice((2, 3, 4)), n)
        if n - size == 1:
            size = size + 1 if size < 4 else size - 1
        sizes.append(size)
        n -= size
    return sizes


def _mix_groups(names: Sequence[str], peaks, rng: random.Random
                ) -> List[List[str]]:
    """One seeded grouping of *names* into mixes that fit the box."""
    from repro.units import GIB

    while True:
        order = list(names)
        rng.shuffle(order)
        groups, start = [], 0
        for size in partition_sizes(len(order), rng):
            groups.append(order[start:start + size])
            start += size
        if all(sum(peaks[name] for name in group)
               <= MIX_PEAK_DEMAND_GIB * GIB for group in groups):
            return groups


def _mix_batch(rng: random.Random) -> List[Unit]:
    from repro.workloads.registry import all_profiles

    profiles = all_profiles()
    names = sorted(profiles)
    peaks = {name: profiles[name].footprint.peak_bytes for name in names}
    units: List[Unit] = []
    for _copy in range(MIX_COPIES):
        for group in _mix_groups(names, peaks, rng):
            members = tuple(profiles[name] for name in group)
            system_seed = rng.randrange(1 << 31)
            units.append(Unit(
                uid=f"mix{len(units)}:" + "+".join(group),
                kind="mix", sim_s=max(p.duration_s for p in members),
                args=(members, system_seed, system_seed + 1)))
    return units


def _storm_batch(rng: random.Random) -> List[Unit]:
    from repro.faults import storm_plan
    from repro.policies.registry import policy_names
    from repro.workloads.registry import all_profiles

    profiles = all_profiles()
    names = sorted(profiles)
    rng.shuffle(names)
    units: List[Unit] = []
    for name in names:
        profile = dataclasses.replace(profiles[name],
                                      duration_s=STORM_DURATION_S)
        plan_seed = rng.randrange(1 << 31)
        plan = storm_plan(plan_seed, intensity=STORM_INTENSITY,
                          num_blocks=STORM_BLOCKS)
        system_seed = rng.randrange(1 << 31)
        for policy in policy_names():
            units.append(Unit(
                uid=f"{name}/{policy}/storm{plan_seed}", kind="cell",
                sim_s=STORM_DURATION_S,
                args=(profile, policy, plan, system_seed, system_seed + 1)))
    return units


# --- running one unit --------------------------------------------------------


def _mix_box(system_seed: int):
    """The 8 GiB box of ``repro bench``'s workload and mix scenarios."""
    from repro.core.config import GreenDIMMConfig
    from repro.core.system import GreenDIMMSystem
    from repro.dram.organization import DDR4_4GB_X8, MemoryOrganization
    from repro.units import MIB

    organization = MemoryOrganization(device=DDR4_4GB_X8, channels=1,
                                      dimms_per_channel=2, ranks_per_dimm=1)
    return GreenDIMMSystem(organization=organization,
                           config=GreenDIMMConfig(block_bytes=128 * MIB),
                           kernel_boot_bytes=512 * MIB,
                           transient_failure_probability=0.5,
                           seed=system_seed)


def _storm_box(policy: str, plan, system_seed: int):
    """The tournament's 16 GiB consolidation box, 512 MiB blocks."""
    from repro.core.config import GreenDIMMConfig
    from repro.core.system import GreenDIMMSystem
    from repro.sim.fleet import fleet_server_memory
    from repro.units import MIB

    return GreenDIMMSystem(organization=fleet_server_memory(),
                           config=GreenDIMMConfig(block_bytes=512 * MIB),
                           policy=policy, fault_plan=plan, seed=system_seed)


def run_unit(unit: Unit) -> List[str]:
    """Run one unit; returns the fields its digest covers.

    Energies enter as ``float.hex()`` so the digest pins them bit for
    bit; counts enter as integers.
    """
    from repro.sim.server import ServerSimulator

    if unit.kind == "fleet":
        from repro.sim.fleet import run_fleet_server

        (job,) = unit.args
        server = run_fleet_server(job)
        return [server.dram_energy_j.hex(),
                server.baseline_dram_energy_j.hex(),
                str(server.epochs), str(server.max_offline_blocks),
                server.mean_offline_blocks.hex(),
                server.mean_dpd_fraction.hex(),
                str(server.emergency_onlines)]
    if unit.kind == "mix":
        members, system_seed, sim_seed = unit.args
        simulator = ServerSimulator(_mix_box(system_seed), seed=sim_seed)
        result = simulator.run_mix(list(members), epoch_s=0.1,
                                   pinned_churn=True)
        return [result.dram_energy_j.hex(),
                result.baseline_dram_energy_j.hex(),
                str(len(result.samples)), str(result.offline_events),
                str(result.online_events)]
    if unit.kind == "cell":
        profile, policy, plan, system_seed, sim_seed = unit.args
        system = _storm_box(policy, plan, system_seed)
        simulator = ServerSimulator(system, seed=sim_seed)
        result = simulator.run_workload(profile, epoch_s=STORM_EPOCH_S,
                                        pinned_churn=True)
        return [result.dram_energy_j.hex(),
                result.baseline_dram_energy_j.hex(),
                str(len(result.samples)), str(result.offline_events),
                str(result.online_events),
                str(system.fault_injector.stats.total)]
    raise ValueError(f"unknown unit kind {unit.kind!r}")


def digest(fields: Sequence[Sequence[str]]) -> str:
    """sha256 over every unit's digest fields, in batch order."""
    h = hashlib.sha256()
    for unit_fields in fields:
        h.update(("\x1f".join(unit_fields) + "\x1e").encode())
    return h.hexdigest()


def check_fields(unit: Unit, fields: Sequence[str]) -> List[str]:
    """Plausibility problems of one unit's outputs (empty when sane)."""
    problems = []
    for text in fields[:2]:
        energy = float.fromhex(text)
        if not (math.isfinite(energy) and energy > 0.0):
            problems.append(f"{unit.uid}: energy {energy!r}")
    if int(fields[2]) <= 0:
        problems.append(f"{unit.uid}: no samples")
    return problems

"""Fixed-seed simulator scenarios shared by the golden-equivalence suite.

The kernel refactor's contract is that rebuilding the run loops on top
of :mod:`repro.sim.kernel` changes *nothing observable*: the
:class:`~repro.sim.server.EpochSample` stream, the accumulated energies,
the daemon/hot-plug statistics, and the fast-forward accounting must all
be bit-for-bit what the hand-rolled loops produced.  This module defines
the scenario matrix (workload / vm-trace / mix, churn on and off, a
fault storm, fast path on and off) and a canonical encoding in which
every float is rendered with ``float.hex()`` so equality really is
bit-level.  ``tests/golden/kernel_golden.json`` holds the encodings
recorded from the pre-refactor loops; ``tests/test_kernel_golden.py``
replays the matrix against whatever the code does today.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
from typing import Any, Callable, Dict, Tuple

from repro.core.config import GreenDIMMConfig
from repro.core.system import GreenDIMMSystem
from repro.dram.organization import DDR4_4GB_X8, MemoryOrganization
from repro.faults.plan import storm_plan
from repro.sim.server import ServerSimulator
from repro.soa import SampleLog
from repro.units import GIB, MIB
from repro.workloads.registry import profile_by_name
from repro.workloads.azure import AzureTraceGenerator

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "kernel_golden.json"


def small_system(**kwargs) -> GreenDIMMSystem:
    """The 8 GiB platform the equivalence tests exercise."""
    organization = MemoryOrganization(device=DDR4_4GB_X8, channels=1,
                                      dimms_per_channel=2, ranks_per_dimm=1)
    defaults = dict(organization=organization,
                    config=GreenDIMMConfig(block_bytes=128 * MIB),
                    kernel_boot_bytes=512 * MIB,
                    transient_failure_probability=0.5, seed=7)
    defaults.update(kwargs)
    return GreenDIMMSystem(**defaults)


def trace_setup(duration_s: float) -> Tuple[GreenDIMMSystem, Any]:
    """A 16 GiB consolidation box plus a trace sized to *duration_s*."""
    organization = MemoryOrganization(device=DDR4_4GB_X8, channels=2,
                                      dimms_per_channel=2, ranks_per_dimm=1)
    system = GreenDIMMSystem(organization=organization,
                             config=GreenDIMMConfig(block_bytes=512 * MIB),
                             kernel_boot_bytes=2 * GIB,
                             transient_failure_probability=0.5, seed=7)
    trace = AzureTraceGenerator(
        capacity_bytes=organization.total_capacity_bytes - 3 * GIB,
        physical_cores=16, duration_s=duration_s, seed=7).generate()
    return system, trace


def _hexify(value: Any) -> Any:
    """Render floats as ``float.hex()`` so JSON round-trips bit-exactly."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {k: _hexify(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple, SampleLog)):
        return [_hexify(v) for v in value]
    return value


def _samples_digest(samples) -> Dict[str, Any]:
    """A compact bit-exact fingerprint of a (possibly long) sample list."""
    payload = json.dumps([_hexify(list(s)) for s in samples])
    return {
        "count": len(samples),
        "sha256": hashlib.sha256(payload.encode("utf-8")).hexdigest(),
        "first": _hexify(list(samples[0])) if samples else None,
        "last": _hexify(list(samples[-1])) if samples else None,
    }


def canonicalize(sim: ServerSimulator, result) -> Dict[str, Any]:
    """The bit-exact observable state of one finished run."""
    out: Dict[str, Any] = {
        "samples": _samples_digest(result.samples),
        "dram_energy_j": result.dram_energy_j.hex(),
        "baseline_dram_energy_j": result.baseline_dram_energy_j.hex(),
        "daemon_stats": _hexify(dataclasses.asdict(sim.system.daemon.stats)),
        "ff_stats": _hexify(sim.ff_stats.as_dict()),
    }
    for field in ("overhead_fraction", "swap_shortfall_pages",
                  "emergency_onlines", "swap_stall_s"):
        if hasattr(result, field):
            out[field] = _hexify(getattr(result, field))
    if hasattr(result, "overhead_by_profile"):
        out["overhead_by_profile"] = _hexify(result.overhead_by_profile)
    injector = sim.system.fault_injector
    if injector is not None:
        out["fault_stats"] = _hexify(injector.stats.as_dict())
    return out


def _run_workload(fast: bool, churn: bool, plan=None) -> Dict[str, Any]:
    sim = ServerSimulator(small_system(fault_plan=plan), seed=5,
                          fast_forward=fast)
    result = sim.run_workload(profile_by_name("429.mcf"), epoch_s=1.0,
                              pinned_churn=churn)
    return canonicalize(sim, result)


def _run_vm_trace(fast: bool, churn: bool, duration_s: float,
                  epoch_s: float) -> Dict[str, Any]:
    system, trace = trace_setup(duration_s)
    sim = ServerSimulator(system, seed=5, fast_forward=fast)
    result = sim.run_vm_trace(trace, epoch_s=epoch_s, pinned_churn=churn)
    return canonicalize(sim, result)


def _run_mix(fast: bool, churn: bool) -> Dict[str, Any]:
    sim = ServerSimulator(small_system(), seed=5, fast_forward=fast)
    profiles = [profile_by_name(name) for name in ("403.gcc", "429.mcf")]
    result = sim.run_mix(profiles, epoch_s=2.0, pinned_churn=churn)
    return canonicalize(sim, result)


def _storm():
    return storm_plan(303, intensity=4.0, duration_s=120.0, num_blocks=64)


#: name -> callable(fast) producing the canonical run encoding.
SCENARIOS: Dict[str, Callable[[bool], Dict[str, Any]]] = {
    "workload_nochurn": lambda fast: _run_workload(fast, churn=False),
    "workload_churn": lambda fast: _run_workload(fast, churn=True),
    "workload_storm": lambda fast: _run_workload(fast, churn=False,
                                                 plan=_storm()),
    "vmtrace_nochurn": lambda fast: _run_vm_trace(fast, churn=False,
                                                  duration_s=24 * 3600.0,
                                                  epoch_s=5.0),
    "vmtrace_churn": lambda fast: _run_vm_trace(fast, churn=True,
                                                duration_s=12 * 3600.0,
                                                epoch_s=2.0),
    "mix_nochurn": lambda fast: _run_mix(fast, churn=False),
    "mix_churn": lambda fast: _run_mix(fast, churn=True),
}


def record_goldens() -> Dict[str, Dict[str, Any]]:
    """Run the whole matrix and return {scenario: {path: encoding}}."""
    goldens: Dict[str, Dict[str, Any]] = {}
    for name, runner in SCENARIOS.items():
        goldens[name] = {"slow": runner(False), "fast": runner(True)}
    return goldens


def main() -> None:
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    goldens = record_goldens()
    GOLDEN_PATH.write_text(json.dumps(goldens, indent=1, sort_keys=True)
                           + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()

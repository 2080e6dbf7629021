"""Checkpoint/restore: continuing a snapshot must be bit-for-bit.

The contract under test (``repro.sim.snapshot``): pause a kernel run at
an arbitrary epoch, capture the full simulator state, restore it — into
a fresh object graph here, into a *fresh process* in the subprocess
test — continue, and obtain exactly the floats an uninterrupted run
produces.  Equality is asserted at the ``float.hex()`` level on the
energy sums, the per-epoch sample stream, the residency buckets, and
the swap-stall total, for every registered policy, with pinned churn
running and mid-fault-storm.
"""

from __future__ import annotations

import collections
import hashlib
import json
import pickle
import pickletools
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.errors import SnapshotError
from repro.faults.plan import storm_plan
from repro.policies.registry import policy_names
from repro.service import FleetService
from repro.sim.kernel import MixSource, ProfileSource, TraceSource
from repro.sim.snapshot import (
    SNAPSHOT_GLOBALS,
    SNAPSHOT_VERSION,
    ServerSpec,
    capture,
    load,
    restore,
    save,
)
from repro.units import GIB
from repro.workloads import profile_by_name
from repro.workloads.azure import (
    AzureTrace,
    AzureTraceGenerator,
    VMEvent,
    VMInstance,
    VMType,
)
from repro.workloads.datacenter import DATACENTER_PROFILES
from tests.conservation import install_conservation_checks

PROFILE = "ml_linear"

#: A dense failure storm covering the first 200 s of the run; pauses
#: inside [0, 200) land mid-storm with live rules and embargo timers.
STORM = storm_plan(seed=11, intensity=2.0, duration_s=200.0).to_dict()


@pytest.fixture(autouse=True)
def _conservation(monkeypatch):
    """Every run here, paused or not, keeps the conservation laws."""
    install_conservation_checks(monkeypatch)


def _profile_run(spec, pause=None, churn=True):
    """One profile replay; with *pause*, snapshot/restore at that time."""
    sim = spec.build()
    source = ProfileSource(sim, DATACENTER_PROFILES[PROFILE], n_copies=3)
    state = sim.kernel.begin(source, epoch_s=1.0, warmup_s=5.0,
                             pinned_churn=churn)
    if pause is not None:
        sim.kernel.advance(state, until_s=pause)
        blob = capture(sim, run_state=state, spec=spec)
        restored = restore(blob)
        assert restored.sim is not sim
        sim, state = restored.sim, restored.run_state
        assert state.source.sim is sim
    sim.kernel.advance(state)
    return sim.kernel.finish(state)


def _digest(run):
    """Every observable stream, rendered exactly (no float tolerance)."""
    return {
        "dram_energy": run.dram_energy_j.hex(),
        "baseline": run.baseline_dram_energy_j.hex(),
        "swap_stall": run.swap_stall_s.hex(),
        "residency": [v.hex() for v in run.residency.as_dict().values()],
        "samples": hashlib.sha256(json.dumps(
            [[s.time_s.hex(), s.used_pages, s.free_pages, s.offline_blocks,
              s.dpd_fraction.hex(), s.dram_power_w.hex()]
             for s in run.samples]).encode()).hexdigest(),
    }


class TestEveryPolicy:
    """The property, per registered policy: storm + churn + random pause."""

    @pytest.mark.parametrize("policy", policy_names())
    def test_roundtrip_mid_storm_with_churn(self, policy):
        spec = ServerSpec(policy=policy, fault_plan=STORM)
        rng = random.Random(hash(policy) & 0xFFFF)
        pause = rng.uniform(10.0, 190.0)  # inside the storm window
        golden = _digest(_profile_run(spec))
        resumed = _digest(_profile_run(spec, pause=pause))
        assert resumed == golden


class TestRandomPausePoints:
    def test_any_epoch_is_a_valid_pause(self):
        spec = ServerSpec(policy="greendimm", fault_plan=STORM)
        golden = _digest(_profile_run(spec))
        rng = random.Random(7)
        for _ in range(3):
            pause = rng.uniform(1.0, 590.0)
            assert _digest(_profile_run(spec, pause=pause)) == golden, pause

    def test_restore_is_repeatable(self):
        """One blob restores twice to the same continuation (restore
        must not consume or mutate the snapshot)."""
        spec = ServerSpec(policy="greendimm")
        sim = spec.build()
        source = ProfileSource(sim, DATACENTER_PROFILES[PROFILE], n_copies=3)
        state = sim.kernel.begin(source, epoch_s=1.0, warmup_s=5.0)
        sim.kernel.advance(state, until_s=100.0)
        blob = capture(sim, run_state=state, spec=spec)
        digests = []
        for _ in range(2):
            restored = restore(blob)
            restored.sim.kernel.advance(restored.run_state)
            digests.append(_digest(restored.sim.kernel.finish(
                restored.run_state)))
        assert digests[0] == digests[1]


class TestKsmTraceReplay:
    def test_vm_trace_with_ksm(self):
        spec = ServerSpec(policy="greendimm", enable_ksm=True,
                          organization="azure", kernel_boot_bytes=3 * GIB)

        def run(pause=None):
            sim = spec.build()
            trace = AzureTraceGenerator(
                capacity_bytes=sim.system.mm.total_pages * 4096 - 3 * GIB,
                physical_cores=16, duration_s=1800.0, seed=3).generate()
            source = TraceSource(sim, trace)
            state = sim.kernel.begin(source, epoch_s=5.0,
                                     pinned_churn=False)
            if pause is not None:
                sim.kernel.advance(state, until_s=pause)
                restored = restore(capture(sim, run_state=state, spec=spec))
                sim, state = restored.sim, restored.run_state
            sim.kernel.advance(state)
            return sim.kernel.finish(state)

        assert _digest(run(pause=700.0)) == _digest(run())


class TestInertSpanPause:
    def test_pause_inside_an_inert_span(self):
        """Demand beyond the box with every block online: every monitor
        fire is inert, so stable spans run from event to event.  Pausing
        inside one — at its natural end, or cut exactly at the pause as a
        resident service ticks — continues bit-identically, because the
        span books residency epoch by epoch."""
        spec = ServerSpec(policy="greendimm")

        def vm(vm_id, arrive_s, depart_s, memory_bytes):
            vm_type = VMType(name=f"t{vm_id}", vcpus=2,
                             memory_bytes=memory_bytes, lifetime_mu=0.0,
                             lifetime_sigma=1.0, image_id=0)
            instance = VMInstance(vm_id=vm_id, vm_type=vm_type,
                                  arrival_s=arrive_s, departure_s=depart_s)
            return [VMEvent(arrive_s, "arrive", instance),
                    VMEvent(depart_s, "depart", instance)]

        def run(pause=None, exact=False):
            sim = spec.build()
            capacity = sim.system.mm.total_pages * 4096
            events = (vm(0, 0.0, float("inf"), capacity)[:1]
                      + vm(1, 400.0, 2100.0, GIB)
                      + vm(2, 900.0, 1500.0, 2 * GIB))
            trace = AzureTrace(events=events, samples=[],
                               capacity_bytes=capacity)
            source = TraceSource(sim, trace)
            # A 0.7 s epoch: its products round, so a closed-form
            # residency span would differ from per-epoch adds.
            state = sim.kernel.begin(source, epoch_s=0.7,
                                     pinned_churn=False)
            if pause is not None:
                sim.kernel.advance(state, until_s=pause, exact=exact)
                restored = restore(capture(sim, run_state=state, spec=spec))
                sim, state = restored.sim, restored.run_state
            sim.kernel.advance(state)
            return sim, sim.kernel.finish(state)

        sim, golden = run()
        assert sim.ff_stats.windows == 0
        assert sim.ff_stats.epochs_batched > 0.9 * sim.ff_stats.epochs_stepped
        for exact in (False, True):
            _, resumed = run(pause=1234.0, exact=exact)
            assert _digest(resumed) == _digest(golden), exact


class TestFreshProcess:
    """Restore in a brand-new interpreter: nothing ambient may leak."""

    def test_subprocess_continuation_matches(self, tmp_path):
        spec = ServerSpec(policy="greendimm", fault_plan=STORM)
        golden = _digest(_profile_run(spec))

        sim = spec.build()
        source = ProfileSource(sim, DATACENTER_PROFILES[PROFILE], n_copies=3)
        state = sim.kernel.begin(source, epoch_s=1.0, warmup_s=5.0,
                                 pinned_churn=True)
        sim.kernel.advance(state, until_s=123.0)
        snap = tmp_path / "mid-run.snap"
        save(snap, sim, run_state=state, spec=spec)

        script = (
            "import hashlib, json, sys\n"
            "from repro.sim.snapshot import load\n"
            "restored = load(sys.argv[1])\n"
            "sim, state = restored.sim, restored.run_state\n"
            "sim.kernel.advance(state)\n"
            "run = sim.kernel.finish(state)\n"
            "print(json.dumps({\n"
            "    'dram_energy': run.dram_energy_j.hex(),\n"
            "    'baseline': run.baseline_dram_energy_j.hex(),\n"
            "    'swap_stall': run.swap_stall_s.hex(),\n"
            "    'residency': [v.hex()\n"
            "                  for v in run.residency.as_dict().values()],\n"
            "    'samples': hashlib.sha256(json.dumps(\n"
            "        [[s.time_s.hex(), s.used_pages, s.free_pages,\n"
            "          s.offline_blocks, s.dpd_fraction.hex(),\n"
            "          s.dram_power_w.hex()] for s in run.samples]\n"
            "    ).encode()).hexdigest(),\n"
            "}))\n")
        out = subprocess.run(
            [sys.executable, "-c", script, str(snap)],
            capture_output=True, text=True, check=True,
            cwd=str(Path(__file__).resolve().parent.parent))
        assert json.loads(out.stdout) == golden


class TestFormat:
    def test_unknown_version_refused(self):
        spec = ServerSpec()
        sim = spec.build()
        blob = capture(sim, spec=spec)
        payload = pickle.loads(blob)
        payload["version"] = SNAPSHOT_VERSION + 1
        with pytest.raises(SnapshotError, match="version"):
            restore(pickle.dumps(payload))

    def test_older_version_refused(self):
        """A payload of an older state-tree shape is refused by the
        version check, not misread."""
        spec = ServerSpec()
        blob = capture(spec.build(), spec=spec)
        payload = pickle.loads(blob)
        payload["version"] = SNAPSHOT_VERSION - 1
        with pytest.raises(SnapshotError, match=f"version {SNAPSHOT_VERSION - 1} unsupported"):
            restore(pickle.dumps(payload))

    def test_garbage_refused(self):
        with pytest.raises(SnapshotError):
            restore(b"not a snapshot")
        with pytest.raises(SnapshotError, match="not a simulator snapshot"):
            restore(pickle.dumps({"spam": 1}))

    def test_specless_snapshot_needs_a_simulator(self):
        spec = ServerSpec()
        sim = spec.build()
        blob = capture(sim)  # no spec embedded
        with pytest.raises(SnapshotError, match="no spec"):
            restore(blob)
        # ... but restores fine into a structurally identical sim.
        other = spec.build()
        restored = restore(blob, sim=other)
        assert restored.sim is other

    def test_foreign_run_state_refused(self):
        spec = ServerSpec()
        sim_a, sim_b = spec.build(), spec.build()
        source = ProfileSource(sim_a, DATACENTER_PROFILES[PROFILE])
        state = sim_a.kernel.begin(source, epoch_s=1.0)
        with pytest.raises(SnapshotError, match="different simulator"):
            capture(sim_b, run_state=state)

    def test_spec_json_roundtrip(self):
        spec = ServerSpec(policy="pasr", enable_ksm=True, fault_plan=STORM,
                          config={"off_thr_fraction": 0.15,
                                  "on_thr_fraction": 0.12})
        rendered = json.loads(json.dumps(spec.to_dict()))
        assert ServerSpec.from_dict(rendered) == spec
        with pytest.raises(SnapshotError, match="unknown spec field"):
            ServerSpec.from_dict({"flux_capacitor": True})
        with pytest.raises(SnapshotError, match="unknown organization"):
            ServerSpec(organization="mainframe")

    def test_file_roundtrip_is_atomic(self, tmp_path):
        spec = ServerSpec()
        sim = spec.build()
        source = ProfileSource(sim, DATACENTER_PROFILES[PROFILE], n_copies=3)
        state = sim.kernel.begin(source, epoch_s=1.0)
        sim.kernel.advance(state, until_s=30.0)
        path = tmp_path / "server.snap"
        save(path, sim, run_state=state, spec=spec)
        assert not list(tmp_path.glob("*.tmp"))
        restored = load(path)
        restored.sim.kernel.advance(restored.run_state)
        run = restored.sim.kernel.finish(restored.run_state)
        assert run.duration_s == DATACENTER_PROFILES[PROFILE].duration_s


def _referenced_globals(blob):
    """Every ``(module, name)`` a pickle loads, read off its opcodes.

    ``STACK_GLOBAL`` pops its module and name, which were pushed as
    strings or fetched from the memo, so the walk keeps what each opcode
    pushed and what each memo slot holds.
    """
    found, memo, pushed = set(), {}, []
    for op, arg, _ in pickletools.genops(blob):
        name = op.name
        if name in ("PROTO", "FRAME", "STOP"):
            continue
        if name == "MEMOIZE":
            memo[len(memo)] = pushed[-1]
        elif name in ("PUT", "BINPUT", "LONG_BINPUT"):
            memo[arg] = pushed[-1]
        elif name in ("GET", "BINGET", "LONG_BINGET"):
            pushed.append(memo[arg])
        elif name == "GLOBAL":
            found.add(tuple(arg.split(" ", 1)))
            pushed.append(None)
        elif name == "STACK_GLOBAL":
            found.add((pushed[-2], pushed[-1]))
            pushed.append(None)
        else:
            pushed.append(arg if isinstance(arg, str) else None)
    return found


def _paused_captures(plan):
    """Mid-run captures of every source kind, with *plan* armed."""
    spec = ServerSpec(policy="greendimm", fault_plan=plan)
    sim = spec.build()
    source = ProfileSource(sim, DATACENTER_PROFILES[PROFILE], n_copies=3)
    state = sim.kernel.begin(source, epoch_s=1.0, warmup_s=5.0)
    sim.kernel.advance(state, until_s=60.0)
    yield capture(sim, run_state=state, spec=spec)

    sim = spec.build()
    source = MixSource(sim, [profile_by_name(name)
                             for name in ("403.gcc", "429.mcf")])
    state = sim.kernel.begin(source, epoch_s=0.5)
    sim.kernel.advance(state, until_s=30.0)
    yield capture(sim, run_state=state, spec=spec)

    spec = ServerSpec(policy="greendimm", enable_ksm=True,
                      organization="azure", kernel_boot_bytes=3 * GIB,
                      fault_plan=plan)
    sim = spec.build()
    trace = AzureTraceGenerator(
        capacity_bytes=sim.system.mm.total_pages * 4096 - 3 * GIB,
        physical_cores=16, duration_s=900.0, seed=3).generate()
    state = sim.kernel.begin(TraceSource(sim, trace), epoch_s=5.0,
                             pinned_churn=False)
    sim.kernel.advance(state, until_s=400.0)
    yield capture(sim, run_state=state, spec=spec)

    for ksm in (False, True):
        service = FleetService(num_servers=1, num_workers=1,
                               enable_ksm=ksm)
        if plan is not None:
            service.inject_fault_plan(0, plan)
        service.ingest(vm_id=1, memory_bytes=2 * GIB, time_s=0.0,
                       lifetime_s=300.0)
        service.advance(until_s=600.0)
        yield service.snapshot(0)


class TestRestrictedRestore:
    def test_allowlist_is_what_captures_reference(self):
        referenced = set()
        for plan in (None, STORM):
            for blob in _paused_captures(plan):
                referenced |= _referenced_globals(blob)
                # A payload re-pickled at the default protocol (as the
                # version test below does) must load too.
                referenced |= _referenced_globals(
                    pickle.dumps(pickle.loads(blob)))
        for policy in policy_names():
            spec = ServerSpec(policy=policy, fault_plan=STORM)
            sim = spec.build()
            source = ProfileSource(sim, DATACENTER_PROFILES[PROFILE])
            state = sim.kernel.begin(source, epoch_s=1.0, warmup_s=5.0)
            sim.kernel.advance(state, until_s=60.0)
            referenced |= _referenced_globals(
                capture(sim, run_state=state, spec=spec))
        assert referenced == SNAPSHOT_GLOBALS

    def test_off_list_globals_are_refused_before_loading(self):
        payload = {"version": SNAPSHOT_VERSION, "spec": None,
                   "server": SideEffect(), "run": None}
        with pytest.raises(SnapshotError, match="not allowed"):
            restore(pickle.dumps(payload))
        assert FIRED == []
        payload["server"] = collections.OrderedDict()
        with pytest.raises(SnapshotError, match="collections.OrderedDict"):
            restore(pickle.dumps(payload))
        # No state tree holds a numpy array, so numpy's rebuild helpers
        # are off the list at every protocol.
        payload["server"] = np.zeros(3)
        for protocol in (2, pickle.DEFAULT_PROTOCOL, pickle.HIGHEST_PROTOCOL):
            with pytest.raises(SnapshotError, match="not allowed"):
                restore(pickle.dumps(payload, protocol=protocol))


#: Appended to whenever a pickled :class:`SideEffect` is loaded.
FIRED = []


def _fire(tag):
    FIRED.append(tag)


class SideEffect:
    """Pickles as a call to :func:`_fire`: loading it has a side effect."""

    def __reduce__(self):
        return _fire, ("unpickled",)

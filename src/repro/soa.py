"""Structure-of-arrays state stores for the hot simulation paths.

The epoch-stepped simulator keeps its authoritative state in small
Python objects — :class:`~repro.os.page.BlockAccounting` counters in the
memory manager, the offline set in the hot-plug manager, the gating
bitmask in the controller register.  Those objects are cheap to *update*
(a Python attribute add is ~4x faster than a numpy scalar store) but
expensive to *scan*: every monitor pass used to rebuild the
fully-offline group set by walking the whole block <-> group topology
through the address-mapping property chain.

This module holds the numpy mirrors that make the scans cheap:

* :class:`BlockStateStore` — per-memory-block footprint and offline
  status as ``int64``/``bool`` arrays.  The memory manager marks blocks
  dirty on the extent hot path (a set add) and flushes them in bulk at
  observation points (:meth:`BlockStateStore.sync`), so the arrays are
  a write-back mirror of the per-block accounting objects.
* :class:`GroupGateStore` — per-sub-array-group coverage counts, gate
  flags, and offline/gated residency clocks, updated *incrementally* at
  block offline/online events.  Gate-eligibility queries become O(groups)
  vectorized compares instead of O(groups x blocks) address-layer
  traversals per event.

Both stores are mirrors, never the source of truth; the property tests
in ``tests/test_soa.py`` replay randomized daemon/hot-plug/fault
sequences and assert the arrays match the objects exactly.

The batched-chain helpers below let the kernel replay a run of
constant-state epochs in one step, and :class:`SampleLog` records such a
run as one ``(t0, epoch_s, n, template)`` entry instead of *n* samples.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import chain, repeat, starmap
from operator import attrgetter, eq
from typing import Iterator, List, NamedTuple, Sequence, Tuple

import numpy as np

__all__ = [
    "BlockStateStore",
    "GroupGateStore",
    "SampleLog",
    "SampleRun",
    "accumulate_energy",
    "batched_times",
    "epochs_before",
    "monitor_timer_after",
]


class BlockStateStore:
    """numpy mirror of the per-memory-block footprint and offline state.

    Owned by :class:`~repro.os.mm.PhysicalMemoryManager`.  The extent
    register/unregister hot path only records the touched block index in
    ``_dirty`` (cheap); :meth:`sync` flushes the dirty counters into the
    arrays.  Offline transitions are rare daemon events and update the
    ``offline`` array directly.
    """

    def __init__(self, num_blocks: int):
        self.num_blocks = num_blocks
        self.used_pages = np.zeros(num_blocks, dtype=np.int64)
        self.unmovable_pages = np.zeros(num_blocks, dtype=np.int64)
        self.offline = np.zeros(num_blocks, dtype=bool)
        self._dirty: "set[int]" = set()

    # --- hot-path hooks ---------------------------------------------------

    def mark_dirty(self, block: int) -> None:
        """Record that *block*'s counters changed (flushed by :meth:`sync`)."""
        self._dirty.add(block)

    def mark_offline(self, block: int) -> None:
        self.offline[block] = True

    def mark_online(self, block: int) -> None:
        self.offline[block] = False

    # --- synchronization --------------------------------------------------

    def sync(self, accounting: Sequence) -> "BlockStateStore":
        """Flush dirty per-block counters from *accounting* into the arrays.

        *accounting* is the memory manager's ``BlockAccounting`` list; only
        blocks touched since the last sync are re-read.
        """
        if self._dirty:
            used = self.used_pages
            unmovable = self.unmovable_pages
            for block in self._dirty:
                acct = accounting[block]
                used[block] = acct.used_pages
                unmovable[block] = acct.unmovable_pages
            self._dirty.clear()
        return self

    # --- checkpoint/restore -----------------------------------------------

    def state_dict(self) -> dict:
        """Mutable mirror state (arrays + pending dirty set)."""
        return {"used_pages": self.used_pages,
                "unmovable_pages": self.unmovable_pages,
                "offline": self.offline,
                "dirty": self._dirty}

    def load_state_dict(self, state: dict) -> None:
        # In-place copies: external code may hold views of the arrays.
        self.used_pages[:] = state["used_pages"]
        self.unmovable_pages[:] = state["unmovable_pages"]
        self.offline[:] = state["offline"]
        self._dirty = set(state["dirty"])

    # --- vectorized views -------------------------------------------------

    @property
    def free_mask(self) -> np.ndarray:
        """Blocks with no allocated pages (callers must :meth:`sync` first)."""
        return self.used_pages == 0

    @property
    def removable_mask(self) -> np.ndarray:
        """Blocks with no unmovable pages (the sysfs ``removable`` flag)."""
        return self.unmovable_pages == 0


class GroupGateStore:
    """numpy mirror of sub-array-group coverage, gating, and residency.

    Owned by :class:`~repro.core.power_control.GreenDIMMPowerControl`.
    ``cover[g]`` counts how many of group *g*'s covering blocks are
    off-lined; a group is *fully offline* when ``cover[g]`` reaches
    ``blocks_per_group``.  With pair gating, eligibility additionally
    requires the sense-amp partner (``g ^ 1``) to be fully offline; the
    partner check is one vectorized gather over the XOR-reindexed mask.

    The store also keeps the per-block and per-group power residency
    clocks (time spent offline / gated), updated at event granularity.
    """

    def __init__(self, num_blocks: int, num_groups: int,
                 blocks_per_group: int,
                 groups_of_block: Sequence[Sequence[int]],
                 pair_gating: bool = True):
        self.num_blocks = num_blocks
        self.num_groups = num_groups
        self.blocks_per_group = blocks_per_group
        self.pair_gating = pair_gating
        #: Static topology: the groups each block overlaps.
        self._groups_of_block: List[tuple] = [
            tuple(groups) for groups in groups_of_block]
        #: The sense-amp partner of each group (Section 6.1's pairing).
        self._pair = np.arange(num_groups) ^ 1
        self.cover = np.zeros(num_groups, dtype=np.int64)
        self.gated = np.zeros(num_groups, dtype=bool)
        self.offline = np.zeros(num_blocks, dtype=bool)
        self.offline_since_s = np.full(num_blocks, np.nan)
        self.offline_total_s = np.zeros(num_blocks)
        self.gated_since_s = np.full(num_groups, np.nan)
        self.gated_total_s = np.zeros(num_groups)
        # Hot-query side indexes: at 64 groups, set membership beats
        # numpy's per-call constants; the arrays above stay authoritative
        # for bulk views and the property tests assert they agree.
        self._full: "set[int]" = set()
        self._gated_set: "set[int]" = set()

    # --- block events -----------------------------------------------------

    def block_offlined(self, block: int, now_s: float) -> None:
        if self.offline[block]:
            return
        self.offline[block] = True
        self.offline_since_s[block] = now_s
        cover = self.cover
        full = self.blocks_per_group
        for group in self._groups_of_block[block]:
            cover[group] += 1
            if cover[group] == full:
                self._full.add(group)

    def block_onlined(self, block: int, now_s: float) -> None:
        if not self.offline[block]:
            return
        self.offline[block] = False
        self.offline_total_s[block] += now_s - self.offline_since_s[block]
        self.offline_since_s[block] = np.nan
        cover = self.cover
        for group in self._groups_of_block[block]:
            cover[group] -= 1
            self._full.discard(group)

    # --- gate events ------------------------------------------------------

    def group_gated(self, group: int, now_s: float) -> None:
        self.gated[group] = True
        self._gated_set.add(group)
        self.gated_since_s[group] = now_s

    def group_ungated(self, group: int, now_s: float) -> None:
        if not self.gated[group]:
            return
        self.gated[group] = False
        self._gated_set.discard(group)
        self.gated_total_s[group] += now_s - self.gated_since_s[group]
        self.gated_since_s[group] = np.nan

    # --- eligibility ------------------------------------------------------

    def eligible_mask(self) -> np.ndarray:
        """Boolean mask of groups that may be gated right now.

        A group qualifies when every covering block is off-lined; with
        pair gating its partner group must qualify too.
        """
        full = self.cover == self.blocks_per_group
        if self.pair_gating:
            full &= full[self._pair]
        return full

    def eligible_groups(self) -> List[int]:
        """Gateable group indices, ascending (matches the sorted rescan)."""
        full = self._full
        if self.pair_gating:
            return sorted(g for g in full if g ^ 1 in full)
        return sorted(full)

    def gate_candidates(self) -> List[int]:
        """Eligible groups not currently gated, ascending.

        The gate path only probes the controller's ready bit for these,
        so already-gated groups cost nothing per offline event.
        """
        full = self._full
        gated = self._gated_set
        if self.pair_gating:
            return sorted(g for g in full
                          if g not in gated and g ^ 1 in full)
        return sorted(g for g in full if g not in gated)

    def broken_gated_groups(self) -> List[int]:
        """Gated groups whose eligibility no longer holds, ascending."""
        full = self._full
        if self.pair_gating:
            return sorted(g for g in self._gated_set
                          if g not in full or g ^ 1 not in full)
        return sorted(g for g in self._gated_set if g not in full)

    # --- checkpoint/restore -----------------------------------------------

    def state_dict(self) -> dict:
        """Coverage counters, gate flags, and residency clocks."""
        return {"cover": self.cover,
                "gated": self.gated,
                "offline": self.offline,
                "offline_since_s": self.offline_since_s,
                "offline_total_s": self.offline_total_s,
                "gated_since_s": self.gated_since_s,
                "gated_total_s": self.gated_total_s,
                "full": self._full,
                "gated_set": self._gated_set}

    def load_state_dict(self, state: dict) -> None:
        self.cover[:] = state["cover"]
        self.gated[:] = state["gated"]
        self.offline[:] = state["offline"]
        self.offline_since_s[:] = state["offline_since_s"]
        self.offline_total_s[:] = state["offline_total_s"]
        self.gated_since_s[:] = state["gated_since_s"]
        self.gated_total_s[:] = state["gated_total_s"]
        self._full = set(state["full"])
        self._gated_set = set(state["gated_set"])

    # --- residency views --------------------------------------------------

    def offline_residency_s(self, now_s: float) -> np.ndarray:
        """Cumulative seconds each block has spent off-lined, as of *now_s*."""
        total = self.offline_total_s.copy()
        live = self.offline
        total[live] += now_s - self.offline_since_s[live]
        return total


# --- batched epoch evaluation -------------------------------------------------
#
# The span planner (repro.sim.kernel) evaluates a run of constant-state
# epochs as one numpy operation per accumulator.  Bit-for-bit equivalence
# with per-epoch stepping is the contract, so every helper below applies
# its float additions strictly left to right (``np.add.accumulate`` in
# binary64 performs the identical op sequence as a scalar ``x += step``
# loop) — never ``np.sum``, which is free to re-associate.
#
# Below ``SCALAR_MAX_EPOCHS`` epochs each helper runs the scalar loop
# instead: it beats numpy's fixed setup cost there, and it is the same
# float-op sequence, so the crossover is purely a speed choice made in
# this one place.

SCALAR_MAX_EPOCHS = 48


def batched_times(start: float, step: float, n: int) -> Tuple[List[float], float]:
    """The ``now += step`` clock chain from *start*, batched.

    Returns ``(timestamps, final)``: the *n* epoch timestamps the scalar
    chain would visit (starting at *start* itself) and the value the
    clock holds after the last tick.
    """
    if n < SCALAR_MAX_EPOCHS:
        times = []
        append = times.append
        for _ in range(n):
            append(start)
            start += step
        return times, start
    steps = np.empty(n + 1, dtype=np.float64)
    steps[0] = start
    steps[1:] = step
    times = np.add.accumulate(steps)
    return times[:n].tolist(), float(times[n])


def epochs_before(start: float, step: float, end: float) -> int:
    """Count the ``now += step`` chain's values below *end*.

    From *start*, the number of chain values strictly below the finite
    bound *end*: the iterations of ``while now < end: now += step``.
    """
    if not start < end:
        return 0
    if (end - start) / step < SCALAR_MAX_EPOCHS:
        n = 0
        while start < end:
            n += 1
            start += step
        return n
    # One extra element so the chain reaches past *end*; the pad loop
    # only grows on pathological rounding.
    pad = int((end - start) / step) + 2
    while True:
        steps = np.empty(pad + 1, dtype=np.float64)
        steps[0] = start
        steps[1:] = step
        times = np.add.accumulate(steps)
        if times[-1] >= end:
            return int(np.searchsorted(times, end, side="left"))
        pad *= 2


def accumulate_energy(initial: float, step_j: float, n: int) -> float:
    """*n* sequential ``energy += step_j`` additions starting at *initial*."""
    if n < SCALAR_MAX_EPOCHS:
        for _ in range(n):
            initial += step_j
        return initial
    acc = np.empty(n + 1, dtype=np.float64)
    acc[0] = initial
    acc[1:] = step_j
    return float(np.add.accumulate(acc)[-1])


def monitor_timer_after(since: float, step: float, period: float,
                        n: int) -> float:
    """The daemon monitor timer after *n* quiet epochs, batched.

    Replays ``since += step; if since >= period: since = 0.0`` exactly.
    The reset makes the sequence periodic, so two chains suffice: phase A
    runs from the carried-in value to its first reset; phase B is the
    steady cycle from 0.0 (``0.0 + step == step`` exactly, so the chain
    starts bit-equal), and the final value falls out of the remainder.
    """
    if n < SCALAR_MAX_EPOCHS:
        for _ in range(n):
            since += step
            if since >= period:
                since = 0.0
        return since
    acc = np.empty(n + 1, dtype=np.float64)
    acc[0] = since
    acc[1:] = step
    phase_a = np.add.accumulate(acc)
    hits = np.nonzero(phase_a[1:] >= period)[0]
    if hits.size == 0:
        return float(phase_a[n])
    rest = n - (int(hits[0]) + 1)  # epochs after the first reset
    if rest == 0:
        return 0.0
    phase_b = np.add.accumulate(np.full(rest, step, dtype=np.float64))
    hits_b = np.nonzero(phase_b >= period)[0]
    if hits_b.size == 0:
        return float(phase_b[rest - 1])
    cycle = int(hits_b[0]) + 1
    part = rest % cycle
    return 0.0 if part == 0 else float(phase_b[part - 1])


# --- the run-length sample log ------------------------------------------------


class SampleRun(NamedTuple):
    """*n* consecutive epochs that share every observable but the clock.

    Epoch *k* of the run is *template* at the *k*-th value of the
    ``now += epoch_s`` chain from *t0*.  The template's own timestamp is
    not used: a churn span reuses one template for several runs.
    """

    t0: float
    epoch_s: float
    n: int
    template: Tuple


class SampleLog:
    """Per-epoch samples, in epoch order, with replayed runs stored once.

    A stepped epoch appends its sample (any ``NamedTuple`` whose first
    field is the timestamp); a replayed span appends one
    :class:`SampleRun`.  Reading the log expands every run through
    :func:`batched_times`, the chain the kernel's clock follows, so the
    samples read back are bit-identical to one sample per epoch.
    ``len`` is O(1), an index is O(log runs + its offset in a run), and
    the column accessors aggregate a run without expanding it.  They
    read observables, the fields after the timestamp.
    """

    __slots__ = ("_entries", "_run_starts", "_run_pos", "_extra")

    def __init__(self) -> None:
        self._entries: List[Tuple] = []
        #: Per run, in order: its first sample's index and its entry index.
        self._run_starts: List[int] = []
        self._run_pos: List[int] = []
        #: Samples beyond one per entry (``n - 1`` summed over the runs).
        self._extra = 0

    # --- writing ------------------------------------------------------------

    def append(self, sample: Tuple) -> None:
        """Log one stepped epoch's sample."""
        self._entries.append(sample)

    def append_run(self, t0: float, epoch_s: float, n: int,
                   template: Tuple) -> None:
        """Log *n* replayed epochs from *t0* that all read *template*."""
        if n <= 0:
            return
        self._run_starts.append(len(self))
        self._run_pos.append(len(self._entries))
        self._entries.append(SampleRun(t0, epoch_s, n, template))
        self._extra += n - 1

    # --- sequence protocol ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries) + self._extra

    def __iter__(self) -> Iterator[Tuple]:
        for entry in self._entries:
            if type(entry) is SampleRun:
                yield from _run_samples(entry, 0, entry.n)
            else:
                yield entry

    def __getitem__(self, key):
        size = len(self)
        if isinstance(key, slice):
            start, stop, step = key.indices(size)
            if step == 1:
                return self._expand(start, stop)
            wanted = range(start, stop, step)
            if not wanted:
                return []
            low = min(wanted)
            window = self._expand(low, max(wanted) + 1)
            return window[wanted.start - low::step]
        index = key + size if key < 0 else key
        if not 0 <= index < size:
            raise IndexError("sample index out of range")
        pos, offset = self._locate(index)
        entry = self._entries[pos]
        if type(entry) is SampleRun:
            return _run_samples(entry, offset, offset + 1)[0]
        return entry

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (SampleLog, list)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (f"SampleLog({len(self)} samples, "
                f"{len(self._run_pos)} runs)")

    def _locate(self, index: int) -> Tuple[int, int]:
        """``(entry position, offset within it)`` of sample *index*."""
        run = bisect_right(self._run_starts, index) - 1
        if run < 0:
            return index, 0
        pos = self._run_pos[run]
        offset = index - self._run_starts[run]
        n = self._entries[pos].n
        if offset < n:
            return pos, offset
        return pos + 1 + offset - n, 0

    def _expand(self, start: int, stop: int) -> List[Tuple]:
        """Samples ``start`` to ``stop`` (a valid, clamped range)."""
        out: List[Tuple] = []
        need = stop - start
        if need <= 0:
            return out
        pos, offset = self._locate(start)
        entries = self._entries
        while need:
            entry = entries[pos]
            if type(entry) is SampleRun:
                take = min(entry.n - offset, need)
                out += _run_samples(entry, offset, offset + take)
                offset = 0
            else:
                out.append(entry)
                take = 1
            need -= take
            pos += 1
        return out

    # --- column accessors -------------------------------------------------------

    def values(self, name: str) -> Iterator:
        """One field's per-epoch values, a run's repeated *n* times.

        ``sum`` of this is bit-identical to summing the field over the
        expanded samples: it is the same sequence of values.
        """
        return chain.from_iterable(starmap(repeat, self._counted(name)))

    def int_sum(self, name: str) -> int:
        """Sum of an integer-valued field, one multiply per run."""
        return sum(value * n for value, n in self._counted(name))

    def max(self, name: str, default: object = None) -> object:
        """Largest value of a field (*default* when the log is empty)."""
        return max((value for value, _ in self._counted(name)),
                   default=default)

    def min(self, name: str, default: object = None) -> object:
        """Smallest value of a field (*default* when the log is empty)."""
        return min((value for value, _ in self._counted(name)),
                   default=default)

    def _counted(self, name: str) -> Iterator[Tuple[object, int]]:
        """``(value, epochs)`` per entry: a run's value holds *n* epochs."""
        get = attrgetter(name)
        for entry in self._entries:
            if type(entry) is SampleRun:
                yield get(entry.template), entry.n
            else:
                yield get(entry), 1

    # --- pickling ---------------------------------------------------------------

    def __getstate__(self) -> List[Tuple]:
        return self._entries

    def __setstate__(self, entries: List[Tuple]) -> None:
        self.__init__()
        for entry in entries:
            if type(entry) is SampleRun:
                self.append_run(*entry)
            else:
                self.append(entry)


def _run_samples(run: SampleRun, start: int, stop: int) -> List[Tuple]:
    """Samples ``start`` to ``stop`` of *run*, through the clock chain."""
    template = run.template
    make = type(template)._make
    tail = tuple(template)[1:]
    times = batched_times(run.t0, run.epoch_s, stop)[0]
    return [make((t, *tail)) for t in times[start:]]

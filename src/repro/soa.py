"""Batched epoch chains and the run-length sample log.

The span planner (:mod:`repro.sim.kernel`) replays a run of
constant-state epochs in one step.  The helpers here evaluate that run's
float chains — the clock, energy accumulators and the daemon's monitor
timer — with the same left-to-right additions as per-epoch stepping,
and :class:`SampleLog` records such a run as one ``(t0, epoch_s, n,
template)`` entry instead of *n* samples.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import chain, repeat, starmap
from operator import attrgetter, eq
from typing import Iterator, List, NamedTuple, Tuple

import numpy as np

__all__ = [
    "SampleLog",
    "SampleRun",
    "accumulate_energy",
    "batched_times",
    "epochs_before",
    "monitor_timer_after",
]


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

    def extend(self, samples: List[Tuple]) -> None:
        """Log consecutive stepped epochs' samples, in order."""
        self._entries.extend(samples)

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

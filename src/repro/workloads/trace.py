"""Footprint traces and synthetic access-trace generation."""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.memctrl.request import AccessType, MemoryRequest


@dataclass(frozen=True)
class FootprintTrace:
    """Piecewise-linear memory footprint over time.

    ``points`` is a sorted sequence of (time_s, bytes); queries between
    points interpolate linearly, queries beyond the ends clamp.
    """

    points: Tuple[Tuple[float, int], ...]

    def __post_init__(self) -> None:
        if not self.points:
            raise ConfigurationError("trace needs at least one point")
        times = tuple(t for t, _ in self.points)
        if list(times) != sorted(times):
            raise ConfigurationError("trace points must be time sorted")
        # The trace is immutable, so the query helpers' search arrays are
        # computed once here instead of being rebuilt on every at() /
        # constant_until() call (the simulator queries each footprint
        # twice per stepped epoch).  ``_run_ends`` holds the last point
        # of every flat run that is followed by a value change — the
        # only finite values constant_until() can return.
        object.__setattr__(self, "_times", times)
        object.__setattr__(self, "_run_ends", tuple(
            times[k] for k in range(len(times) - 1)
            if self.points[k][1] != self.points[k + 1][1]))

    @classmethod
    def of(cls, points: Sequence[Tuple[float, float]]) -> "FootprintTrace":
        return cls(tuple((float(t), int(b)) for t, b in points))

    @property
    def duration_s(self) -> float:
        return self.points[-1][0]

    @property
    def peak_bytes(self) -> int:
        return max(b for _, b in self.points)

    def at(self, time_s: float) -> int:
        """Footprint in bytes at *time_s* (clamped, interpolated)."""
        times: Tuple[float, ...] = self._times  # type: ignore[attr-defined]
        if time_s <= times[0]:
            return self.points[0][1]
        if time_s >= times[-1]:
            return self.points[-1][1]
        i = bisect.bisect_right(times, time_s)
        t0, b0 = self.points[i - 1]
        t1, b1 = self.points[i]
        frac = (time_s - t0) / (t1 - t0)
        return int(b0 + (b1 - b0) * frac)

    def constant_until(self, time_s: float) -> float:
        """End of the flat run containing *time_s* (``inf`` when it never
        changes again, *time_s* itself when the trace is ramping).

        The fast-forward layer may skip any query time ``u`` with
        ``time_s <= u < constant_until(time_s)`` knowing ``at(u)`` equals
        ``at(time_s)``; the bound itself also satisfies the equality when
        finite (it is the last point of the flat run).
        """
        times: Tuple[float, ...] = self._times  # type: ignore[attr-defined]
        if time_s >= times[-1]:
            return math.inf
        i = bisect.bisect_right(times, time_s)
        if i > 0 and self.points[i - 1][1] != self.points[i][1]:
            return time_s  # inside a ramp: no flat run to skip
        # Not ramping, so the answer is the end of the flat run holding
        # time_s: the first run end strictly after it.  Every run end at
        # index < i is <= time_s and every one at index >= i is > time_s
        # (bisect_right), so this bisect returns exactly the point the
        # old linear walk from i stopped at.
        run_ends: Tuple[float, ...] = self._run_ends  # type: ignore[attr-defined]
        j = bisect.bisect_right(run_ends, time_s)
        if j == len(run_ends):
            return math.inf
        return run_ends[j]

    def ramping_at(self, time_s: float) -> bool:
        """True when :meth:`constant_until` would veto (return *time_s*)."""
        times: Tuple[float, ...] = self._times  # type: ignore[attr-defined]
        if time_s >= times[-1]:
            return False
        i = bisect.bisect_right(times, time_s)
        return i > 0 and self.points[i - 1][1] != self.points[i][1]

    def ramp_end(self, time_s: float) -> float:
        """End of the ramp holding *time_s*; *time_s* when not ramping.

        :meth:`ramping_at` is true on all of ``[time_s, ramp_end)`` and
        false at the bound, which is the first point time after *time_s*
        where the trace runs flat or ends.  Consecutive ramps (up, then
        straight down) count as one.
        """
        # Ramping only switches on or off at a point time, so walk the
        # point times after time_s; the last one is never ramping.
        times: Tuple[float, ...] = self._times  # type: ignore[attr-defined]
        end = time_s
        while self.ramping_at(end):
            end = times[bisect.bisect_right(times, end)]
        return end

    def flat_run_ends(self, before_s: float = math.inf) -> Tuple[float, ...]:
        """Every finite value :meth:`constant_until` can return (< *before_s*).

        These are the trace's quiescence-breaking timestamps: between two
        consecutive run ends the footprint either ramps (vetoed by
        :meth:`ramping_at`) or stays constant.  Sources feed them into an
        :class:`~repro.sim.calendar.EventCalendar` so the per-epoch
        ``stable_until`` query is one heap peek instead of a trace scan.
        """
        run_ends: Tuple[float, ...] = self._run_ends  # type: ignore[attr-defined]
        return tuple(t for t in run_ends if t < before_s)

    def scaled(self, factor: float) -> "FootprintTrace":
        return FootprintTrace(tuple((t, int(b * factor)) for t, b in self.points))


def oscillating_trace(duration_s: float, low_bytes: int, high_bytes: int,
                      cycles: int, ramp_s: float = 4.0) -> FootprintTrace:
    """A footprint that ramps to *high*, drops to *low*, repeatedly.

    Models phase-structured applications (gcc compiling many units,
    soplex solving successive LPs): each cycle allocates up to the high
    watermark and releases back to the low one — the dynamics that drive
    GreenDIMM's on/off-lining counts (Table 2).
    """
    if cycles <= 0 or high_bytes <= low_bytes:
        raise ConfigurationError("need cycles > 0 and high > low")
    period = duration_s / cycles
    if ramp_s * 2 >= period:
        ramp_s = period / 4
    points: List[Tuple[float, int]] = [(0.0, low_bytes)]
    for c in range(cycles):
        start = c * period
        points.append((start + ramp_s, high_bytes))
        points.append((start + period - ramp_s, high_bytes))
        points.append((start + period, low_bytes))
    return FootprintTrace.of(points)


class AccessTraceGenerator:
    """Synthetic 64B-request streams for the memory controller.

    Models a footprint-limited access pattern with tunable row locality:
    with probability ``locality`` the next access continues sequentially
    from the previous one (same DRAM row), otherwise it jumps uniformly
    within the footprint.  Request arrivals are Poisson at ``rate_per_s``.
    """

    LINE = 64

    def __init__(self, footprint_bytes: int, rate_per_s: float,
                 locality: float = 0.6, write_fraction: float = 0.33,
                 region_offset: int = 0,
                 rng: Optional[random.Random] = None):
        if footprint_bytes < self.LINE:
            raise ConfigurationError("footprint smaller than one line")
        if not 0.0 <= locality <= 1.0:
            raise ConfigurationError("locality must be in [0, 1]")
        if rate_per_s <= 0:
            raise ConfigurationError("rate must be positive")
        self.footprint_lines = footprint_bytes // self.LINE
        self.rate_per_s = rate_per_s
        self.locality = locality
        self.write_fraction = write_fraction
        self.region_offset = region_offset
        self.rng = rng or random.Random(1234)
        self._cursor = 0

    def _next_line(self) -> int:
        if self.rng.random() < self.locality:
            self._cursor = (self._cursor + 1) % self.footprint_lines
        else:
            self._cursor = self.rng.randrange(self.footprint_lines)
        return self._cursor

    def generate(self, count: int) -> List[MemoryRequest]:
        """Generate *count* requests with Poisson arrivals."""
        mean_gap_ns = 1e9 / self.rate_per_s
        now = 0.0
        requests = []
        for _ in range(count):
            now += self.rng.expovariate(1.0) * mean_gap_ns
            access = (AccessType.WRITE
                      if self.rng.random() < self.write_fraction
                      else AccessType.READ)
            address = self.region_offset + self._next_line() * self.LINE
            requests.append(MemoryRequest(address=address, access=access,
                                          arrival_ns=now))
        return requests

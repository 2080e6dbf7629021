"""The deterministic fault injector that executes a :class:`FaultPlan`.

The injector holds no randomness of its own: given the same plan and
the same sequence of ``should_fail`` queries (which the simulation's
seeded determinism guarantees), it fires the same faults at the same
attempts every run.  Rules fire first-match in plan order, each
consuming one unit of its attempt budget (sticky rules never exhaust).
The plan is immutable, so the injector indexes it once by
``(op, target)``: an attempt reads only the rules of its own op — the
untargeted ones and those aimed at its block — never the whole plan.

A :class:`FaultClock` carries simulation time into the wrapped kernel
surfaces, whose real APIs (``try_offline_block`` et al.) don't take a
timestamp; ``GreenDIMMSystem.step`` advances it every epoch.
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.faults.plan import FaultPlan, FaultRule


@dataclass
class FaultClock:
    """Mutable simulation-time carrier shared by injector and wrappers."""

    now_s: float = 0.0


@dataclass
class FaultStats:
    """Counters of injected failures, keyed ``op:error``."""

    injected: Dict[str, int] = field(default_factory=dict)

    def count(self, op: str, error: str) -> None:
        key = f"{op}:{error}"
        self.injected[key] = self.injected.get(key, 0) + 1

    @property
    def total(self) -> int:
        return sum(self.injected.values())

    def as_dict(self) -> Dict[str, int]:
        return dict(sorted(self.injected.items()))

    def merge(self, other: "FaultStats") -> None:
        for key, value in other.injected.items():
            self.injected[key] = self.injected.get(key, 0) + value


class FaultInjector:
    """Decides, per attempt, whether a fault plan fires.

    ``should_fail`` is the single consultation point the wrappers call;
    it returns the matching :class:`FaultRule` (after consuming one unit
    of its budget) or ``None``.  Every fired fault is appended to
    ``events`` — op, error, target, time — which the metrics bus turns
    into JSONL.
    """

    def __init__(self, plan: FaultPlan,
                 clock: Optional[FaultClock] = None):
        self.plan = plan
        self.clock = clock or FaultClock()
        self._remaining: List[int] = [rule.count for rule in plan.rules]
        # Plan indices by (op, target), ascending; key (op, None) holds
        # the op's untargeted rules, which match every attempt of the op.
        index: Dict[Tuple[str, Optional[int]], List[int]] = {}
        for position, rule in enumerate(plan.rules):
            index.setdefault((rule.op, rule.target), []).append(position)
        self._plan_index: Dict[Tuple[str, Optional[int]], Tuple[int, ...]] = {
            key: tuple(positions) for key, positions in index.items()}
        self.stats = FaultStats()
        self.events: List[Dict[str, object]] = []
        # Rule-window calendar for quiescent_until(): windows whose start
        # lies in the future sit in a min-heap keyed by start time; as
        # queries advance they migrate into the active list, from which
        # expired (end passed) and exhausted rules drop out.  Amortized
        # O(log n) per query instead of rescanning the whole plan.
        self._window_starts: List[tuple] = sorted(
            (rule.start_s, index) for index, rule in enumerate(plan.rules))
        self._future_windows: List[tuple] = list(self._window_starts)
        self._active_windows: List[int] = []
        self._window_query_s = -math.inf

    @property
    def now_s(self) -> float:
        return self.clock.now_s

    def advance(self, now_s: float) -> None:
        """Move the injector's notion of simulation time forward."""
        self.clock.now_s = now_s

    def should_fail(self, op: str,
                    target: Optional[int] = None) -> Optional[FaultRule]:
        """First live matching rule for this attempt, or ``None``.

        A hit consumes one unit of the rule's budget (sticky rules are
        bottomless) and records the injection in ``stats``/``events``.
        The op's untargeted rules and its rules for *target* are two
        ascending index runs; the lower of their first live entries is
        the first live match in plan order.
        """
        now = self.clock.now_s
        miss = len(self._remaining)
        index = self._first_live((op, None), now, miss)
        if target is not None:
            index = self._first_live((op, target), now, index)
        if index == miss:
            return None
        rule = self.plan.rules[index]
        if self._remaining[index] > 0:
            self._remaining[index] -= 1
        self.stats.count(op, rule.error)
        self.events.append({"op": op, "error": rule.error,
                            "target": target, "time_s": now,
                            "rule": rule.label or index})
        return rule

    def _first_live(self, key: Tuple[str, Optional[int]], now: float,
                    bound: int) -> int:
        """Lowest plan index below *bound* among *key*'s rules that is
        unexhausted and whose window holds *now*; *bound* when none is."""
        rules = self.plan.rules
        remaining = self._remaining
        for index in self._plan_index.get(key, ()):
            if index >= bound:
                break
            if remaining[index] != 0:
                rule = rules[index]
                if rule.start_s <= now < rule.end_s:
                    return index
        return bound

    def quiescent_until(self, now_s: float) -> float:
        """Earliest future time a rule could start matching, or *now_s*.

        Returns *now_s* itself while any unexhausted rule is live (its
        window contains *now_s*) — the fast-forward layer reads that as
        "not quiescent" and steps epoch by epoch so every ``should_fail``
        consultation happens exactly as in the slow path.  Otherwise the
        bound is the nearest future ``start_s`` (``inf`` when no rule can
        ever fire again); no query strictly before it can match any rule.

        Queries normally advance monotonically (simulation time); one
        that moves backwards (the injector reused for a fresh run)
        rebuilds the calendar from the immutable plan, so only that call
        pays a rescan.
        """
        if self._live_windows(now_s):
            return now_s
        # Exhaustion is permanent, so spent rules can be dropped from the
        # heap for good as they surface.
        future = self._future_windows
        remaining = self._remaining
        while future and remaining[future[0][1]] == 0:
            heapq.heappop(future)
        return future[0][0] if future else math.inf

    def live_until(self, now_s: float) -> float:
        """End of the live period holding *now_s*, or *now_s* outside one.

        The live period is the union of unexhausted rule windows that
        contains *now_s*: windows that overlap or touch chain together.
        Until a rule exhausts, :meth:`quiescent_until` returns *u* for
        every *u* in ``[now_s, live_until(now_s))``.  Only a hit can
        exhaust a rule, so the bound holds while ``events`` keeps its
        length.  Costs the live windows plus the rules starting inside
        the period.
        """
        live = self._live_windows(now_s)
        if not live:
            return now_s
        rules = self.plan.rules
        remaining = self._remaining
        end = max(rules[index].end_s for index in live)
        # Windows starting at or before now_s are in the live list
        # already (or expired, or spent); walk the later ones.
        starts = self._window_starts
        position = bisect.bisect_right(starts, (now_s, math.inf))
        while position < len(starts):
            start, index = starts[position]
            if start > end:
                break
            if remaining[index] != 0 and rules[index].end_s > end:
                end = rules[index].end_s
            position += 1
        return end

    def _live_windows(self, now_s: float) -> List[int]:
        """Advance the window calendar to *now_s*; the rules live there."""
        if now_s < self._window_query_s:
            self._future_windows = list(self._window_starts)
            self._active_windows = []
        self._window_query_s = now_s
        rules = self.plan.rules
        remaining = self._remaining
        future = self._future_windows
        while future and future[0][0] <= now_s:
            _, index = heapq.heappop(future)
            self._active_windows.append(index)
        live = [index for index in self._active_windows
                if remaining[index] != 0 and rules[index].end_s > now_s]
        self._active_windows = live
        return live

    def exhausted(self) -> bool:
        """True once every non-sticky rule has spent its budget."""
        return all(r == 0 for r in self._remaining if r >= 0)

    # --- checkpoint/restore ---------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """Injection position: clock, per-rule budgets, fired events, and
        the quiescence calendar (so a restore mid-storm resumes with the
        identical active/future window split)."""
        return {"now_s": self.clock.now_s,
                "remaining": self._remaining,
                "stats": self.stats,
                "events": self.events,
                "future_windows": self._future_windows,
                "active_windows": self._active_windows,
                "window_query_s": self._window_query_s}

    def load_state_dict(self, state: Dict[str, object]) -> None:
        self.clock.now_s = state["now_s"]
        self._remaining = state["remaining"]
        self.stats = state["stats"]
        self.events = state["events"]
        self._future_windows = state["future_windows"]
        self._active_windows = state["active_windows"]
        self._window_query_s = state["window_query_s"]

"""Declarative fault plans: what fails, when, and how often.

A :class:`FaultPlan` is an ordered set of :class:`FaultRule` entries.
Each rule names one simulated kernel surface (``op``), an errno-style
failure to inject (``error``), an optional target memory block, a time
window, and an attempt budget.  Plans are plain data: they serialize to
canonical JSON, compose with ``+``, and — via :func:`storm_plan` —
expand deterministically from a seed, so any failure run is replayable
bit-for-bit (including under the result cache, which hashes the
canonical JSON into the job key).

Supported operations and errors:

========================  ==========================================
``offline`` / ``EBUSY``   ``offline_pages()`` refuses: unmovable pages
``offline`` / ``EAGAIN``  page migration fails transiently
``online`` / ``EINVAL``   ``online_pages()`` fails outright
``prepare_online`` / ``ETIMEDOUT``  the wake-up ready-bit never sets
``allocate`` / ``ENOMEM`` a pressure spike starves an allocation
``migration`` / ``STALL`` migration succeeds but stalls (extra latency)
========================  ==========================================
"""

from __future__ import annotations

import json
import math
import pathlib
import random
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Union

from repro.errors import ConfigurationError

PathLike = Union[str, pathlib.Path]

#: Every injectable operation, with the errors it may fail with.
FAULT_OPS: Dict[str, Tuple[str, ...]] = {
    "offline": ("EBUSY", "EAGAIN"),
    "online": ("EINVAL",),
    "prepare_online": ("ETIMEDOUT",),
    "allocate": ("ENOMEM",),
    "migration": ("STALL",),
}

#: Sentinel for a sticky rule: it keeps firing for as long as it matches.
STICKY = -1


@dataclass(frozen=True)
class FaultRule:
    """One injection: fail *op* (on *target*) with *error*, *count* times.

    ``target`` of ``None`` matches any block (and is the only sensible
    value for ``allocate``, which has no block).  ``count`` is the number
    of matching attempts to fail; ``STICKY`` (-1) never exhausts — the
    per-block sticky failure of a genuinely unpluggable block.  The rule
    is live for ``start_s <= now < end_s`` of simulation time.
    ``extra_latency_s`` adds injected delay: the stall length for
    ``migration``, the abandoned poll time for ``prepare_online``.
    """

    op: str
    error: str
    target: Optional[int] = None
    start_s: float = 0.0
    end_s: float = math.inf
    count: int = 1
    extra_latency_s: float = 0.0
    label: str = ""

    def __post_init__(self) -> None:
        if self.op not in FAULT_OPS:
            raise ConfigurationError(
                f"unknown fault op {self.op!r}; known: "
                f"{', '.join(sorted(FAULT_OPS))}")
        if self.error not in FAULT_OPS[self.op]:
            raise ConfigurationError(
                f"op {self.op!r} cannot fail with {self.error!r}; "
                f"allowed: {', '.join(FAULT_OPS[self.op])}")
        if self.count == 0 or self.count < STICKY:
            raise ConfigurationError(
                "count must be positive or STICKY (-1)")
        if self.end_s <= self.start_s:
            raise ConfigurationError("need start_s < end_s")
        if self.extra_latency_s < 0:
            raise ConfigurationError("extra latency cannot be negative")

    @property
    def sticky(self) -> bool:
        return self.count == STICKY

    def matches(self, op: str, target: Optional[int], now_s: float) -> bool:
        """Does this rule apply to one attempt at *now_s*?"""
        if op != self.op:
            return False
        if self.target is not None and target != self.target:
            return False
        return self.start_s <= now_s < self.end_s

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {"op": self.op, "error": self.error,
                                  "start_s": self.start_s, "count": self.count}
        if self.target is not None:
            out["target"] = self.target
        if not math.isinf(self.end_s):
            out["end_s"] = self.end_s
        if self.extra_latency_s:
            out["extra_latency_s"] = self.extra_latency_s
        if self.label:
            out["label"] = self.label
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultRule":
        known = {"op", "error", "target", "start_s", "end_s", "count",
                 "extra_latency_s", "label"}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown fault-rule field(s): {', '.join(sorted(unknown))}")
        fields = dict(data)
        fields.setdefault("end_s", math.inf)
        return cls(**fields)  # type: ignore[arg-type]


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, composable collection of fault rules.

    Rule order matters: the injector fires the first live rule that
    matches an attempt.  ``seed`` records the generator seed for
    provenance (storm plans) and participates in the canonical JSON, so
    two storms with different seeds never collide in the result cache.
    """

    name: str = "plan"
    seed: int = 0
    rules: Tuple[FaultRule, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))

    def __add__(self, other: "FaultPlan") -> "FaultPlan":
        """Compose two plans; the left plan's rules take precedence."""
        return FaultPlan(name=f"{self.name}+{other.name}", seed=self.seed,
                         rules=self.rules + other.rules)

    def __len__(self) -> int:
        return len(self.rules)

    # --- serialization ------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {"name": self.name, "seed": self.seed,
                "rules": [r.to_dict() for r in self.rules]}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultPlan":
        rules = tuple(FaultRule.from_dict(r)
                      for r in data.get("rules", []))  # type: ignore[union-attr]
        return cls(name=str(data.get("name", "plan")),
                   seed=int(data.get("seed", 0)),  # type: ignore[arg-type]
                   rules=rules)

    def canonical(self) -> str:
        """Deterministic JSON rendering — the cache-key payload."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    def save(self, path: PathLike) -> None:
        pathlib.Path(path).write_text(
            json.dumps(self.to_dict(), indent=1) + "\n")

    @classmethod
    def from_file(cls, path: PathLike) -> "FaultPlan":
        try:
            text = pathlib.Path(path).read_text()
        except OSError as err:
            raise ConfigurationError(f"cannot read fault plan: {err}") from err
        try:
            return cls.from_json(text)
        except (json.JSONDecodeError, TypeError, ValueError) as err:
            raise ConfigurationError(
                f"malformed fault plan {path}: {err}") from err


#: Relative firing rates of the storm generator's fault kinds, roughly
#: matching Section 5.2's observed mix (EAGAIN dominates, EBUSY next).
_STORM_MIX = (
    ("offline", "EAGAIN", 0.40),
    ("offline", "EBUSY", 0.25),
    ("prepare_online", "ETIMEDOUT", 0.12),
    ("online", "EINVAL", 0.10),
    ("allocate", "ENOMEM", 0.08),
    ("migration", "STALL", 0.05),
)


def storm_plan(seed: int, intensity: float = 1.0, duration_s: float = 120.0,
               num_blocks: int = 64, name: Optional[str] = None) -> FaultPlan:
    """Generate a deterministic failure storm from a seed.

    ``intensity`` scales the expected number of injected fault windows
    (roughly one window per 4 seconds at intensity 1.0).  The generator
    draws every random choice from one ``random.Random(seed)`` in a fixed
    order, so the same (seed, intensity, duration, blocks) quadruple
    always yields the identical plan — the replayability the acceptance
    bar demands.  About a third of the rules are untargeted (they hit
    whichever block the daemon touches next), the rest pin a specific
    block; a small fraction are sticky, modelling permanently-stuck
    blocks.
    """
    if intensity < 0:
        raise ConfigurationError("intensity cannot be negative")
    if duration_s <= 0 or num_blocks <= 0:
        raise ConfigurationError("need positive duration and block count")
    rng = random.Random(seed)
    n_rules = max(1, int(round(intensity * duration_s / 4.0)))
    weights = [w for _op, _err, w in _STORM_MIX]
    rules = []
    for index in range(n_rules):
        op, error, _w = rng.choices(_STORM_MIX, weights=weights)[0]
        start = rng.uniform(0.0, duration_s)
        window = min(duration_s - start, rng.expovariate(1.0 / 10.0)) or 1.0
        target: Optional[int] = None
        if op not in ("allocate",) and rng.random() < 0.65:
            target = rng.randrange(num_blocks)
        sticky = op == "offline" and rng.random() < 0.08
        count = STICKY if sticky else rng.randint(1, 4)
        extra = 0.0
        if op == "migration":
            extra = rng.uniform(1e-3, 8e-3)
        elif op == "prepare_online":
            extra = rng.uniform(5e-5, 5e-4)
        rules.append(FaultRule(op=op, error=error, target=target,
                               start_s=start, end_s=start + max(window, 1.0),
                               count=count, extra_latency_s=extra,
                               label=f"storm{index}"))
    rules.sort(key=lambda r: (r.start_s, r.label))
    return FaultPlan(name=name or f"storm-s{seed}-i{intensity:g}",
                     seed=seed, rules=tuple(rules))

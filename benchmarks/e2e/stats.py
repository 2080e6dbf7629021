"""Summary statistics, the compare rule, and ``BENCHMARK.json`` checks."""

from __future__ import annotations

import math
import re
import statistics
from typing import Dict, List, Mapping, Optional, Sequence

#: Percentiles the tail rule picks from, lowest first.
STANDARD_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
#: A percentile is reportable when this many samples lie beyond it.
SAMPLES_BEYOND = 10

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def percentile(values: Sequence[float], p: float) -> float:
    """The *p*-th percentile of *values*, interpolating between ranks."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(n: int) -> Optional[float]:
    """The highest standard percentile with at least ten of *n* samples
    beyond it, or ``None`` when even the median has fewer."""
    best = None
    for p in STANDARD_PERCENTILES:
        if n * (1.0 - p / 100.0) >= SAMPLES_BEYOND - 1e-9:
            best = p
    return best


def samples_needed(p: float) -> int:
    """Fewest samples that put ten beyond the *p*-th percentile."""
    return math.ceil(SAMPLES_BEYOND / (1.0 - p / 100.0) - 1e-9)


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and sample count of *values*."""
    values = list(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"value": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def relative_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    s = summary(values)
    return (s["q3"] - s["q1"]) / abs(s["value"]) if s["value"] else math.inf


def worsening(before: float, after: float, better: str) -> float:
    """How much worse *after* is than *before*, as a share of *before*
    (negative when it improved)."""
    change = (after - before) / before
    return change if better == "lower" else -change


def compare_metric(before: Sequence[float], after: Sequence[float],
                   better: str, bound: float) -> Dict[str, object]:
    """Apply one metric's bound to two paired series of rep values.

    Rep *k* of both documents ran the same inputs, so each pair's ratio
    carries host noise but no input variance.  The change is the median
    ratio's worsening; the spread is the ratios' interquartile distance
    as a share of their median.  A spread above the bound means the
    runs cannot tell a change of that size from noise: *unresolved*.
    """
    pairs = min(len(before), len(after))
    ratios = [after[k] / before[k] for k in range(pairs) if before[k]]
    if not ratios:
        return {"status": "missing", "change": None, "spread": None}
    change = worsening(1.0, statistics.median(ratios), better)
    spread = relative_spread(ratios)
    if spread > bound:
        status = "unresolved"
    elif change > bound:
        status = "regressed"
    else:
        status = "ok"
    return {"status": status, "change": change, "spread": spread}


# --- BENCHMARK.json ----------------------------------------------------------

_TOP_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end",
             "per_layer"}


def validate_benchmark(doc: Mapping[str, object]) -> List[str]:
    """Problems with a ``BENCHMARK.json`` document (empty when valid)."""
    problems: List[str] = []
    if set(doc) != _TOP_KEYS:
        problems.append(f"keys must be exactly {sorted(_TOP_KEYS)}")
        return problems
    command = doc["command"]
    if not (isinstance(command, list) and 1 <= len(command) <= 32
            and all(isinstance(a, str) and len(a) <= 200 for a in command)):
        problems.append("command: 1-32 strings of at most 200 characters")
    paths = doc["paths"]
    if not (isinstance(paths, list) and 1 <= len(paths) <= 16 and all(
            isinstance(p, str) and re.fullmatch(r"[A-Za-z0-9_./-]{1,200}", p)
            and not p.startswith("/") and ".." not in p.split("/")
            for p in paths)):
        problems.append("paths: 1-16 relative directories")
    seconds = doc["run_seconds"]
    if not (isinstance(seconds, int) and 1 <= seconds <= 60):
        problems.append("run_seconds: a whole number from 1 to 60")
    names: List[str] = []
    workloads = doc["workloads"]
    if not (isinstance(workloads, list) and 2 <= len(workloads) <= 8):
        problems.append("workloads: 2 to 8 entries")
        workloads = []
    for entry in workloads:
        if set(entry) != {"name", "why"}:
            problems.append(f"workload {entry!r}: keys must be name, why")
            continue
        names.append(entry["name"])
        why = entry["why"]
        if not (isinstance(why, str) and 0 < len(why) <= 200
                and "\n" not in why):
            problems.append(f"workload {entry['name']}: why is one line")
    for key, limit, bounded in (("end_to_end", 16, True),
                                ("per_layer", 128, False)):
        metrics = doc[key]
        if not (isinstance(metrics, list) and 1 <= len(metrics) <= limit):
            problems.append(f"{key}: 1 to {limit} metrics")
            continue
        for metric in metrics:
            problems.extend(_metric_problems(key, metric, bounded))
            names.append(metric.get("name", ""))
    for name in names:
        if not isinstance(name, str) or not _NAME.match(name):
            problems.append(f"bad name {name!r}")
    duplicates = sorted({n for n in names if names.count(n) > 1})
    if duplicates:
        problems.append(f"names used twice: {duplicates}")
    e2e = {m.get("name"): m for m in doc["end_to_end"]
           if isinstance(m, dict)}
    setup = e2e.get("setup_s")
    if setup is None or setup.get("unit") != "s" \
            or setup.get("better") != "lower":
        problems.append("end_to_end needs setup_s in s, lower is better")
    elif any(m.get("bound", 0) > setup.get("bound", 0)
             for m in e2e.values()):
        problems.append("setup_s must carry the largest bound")
    return problems


def _metric_problems(key: str, metric: object, bounded: bool) -> List[str]:
    keys = {"name", "unit", "better"} | ({"bound"} if bounded else set())
    if not isinstance(metric, dict) or set(metric) != keys:
        return [f"{key} metric {metric!r}: keys must be {sorted(keys)}"]
    problems = []
    if not _UNIT.match(str(metric["unit"])):
        problems.append(f"{metric['name']}: bad unit {metric['unit']!r}")
    if metric["better"] not in ("higher", "lower"):
        problems.append(f"{metric['name']}: better is higher or lower")
    if bounded and not (isinstance(metric["bound"], (int, float))
                        and 0 < metric["bound"] <= 0.25):
        problems.append(f"{metric['name']}: bound in (0, 0.25]")
    return problems


def metric_table(doc: Mapping[str, object], key: str
                 ) -> Dict[str, Dict[str, object]]:
    """``BENCHMARK.json``'s *key* metrics by name."""
    return {m["name"]: m for m in doc[key]}  # type: ignore[index]

"""Deterministic aggregation of campaign results into paper-table columns.

Groups scenario results by (workload, policy) and computes the mean / p50 /
p99 of the restart-count, wasted-time and goodput columns the paper tables
need.  Aggregation reads only the deterministic ``metrics`` section of each
result — never wall-clock ``perf`` — and iterates in campaign order, so a
campaign aggregated from a serial run, a parallel run or a warm cache is
byte-identical.
"""

from __future__ import annotations

import json

#: Metrics aggregated per (workload, policy) group.
CAMPAIGN_METRICS = ("restarts", "wasted_time", "wasted_fraction", "goodput")


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default), dependency-free.

    Plain-python arithmetic keeps aggregated output stable against numpy
    version changes — these numbers are cached to disk and diffed across
    runs.
    """
    if not values:
        raise ValueError("percentile of empty list")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} out of range")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    weight = rank - low
    return ordered[low] * (1.0 - weight) + ordered[high] * weight


def summarize(values: list[float]) -> dict:
    return {
        "mean": sum(values) / len(values),
        "p50": percentile(values, 50.0),
        "p99": percentile(values, 99.0),
        "min": min(values),
        "max": max(values),
    }


def aggregate_results(rows: list[dict]) -> list[dict]:
    """Aggregate scenario result dicts by (workload, policy), in order."""
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        scenario = row["scenario"]
        key = (scenario["workload"], scenario["policy"])
        groups.setdefault(key, []).append(row)

    out = []
    for key, member_rows in groups.items():
        entry = {"workload": key[0], "policy": key[1],
                 "scenarios": len(member_rows),
                 "completed": all(r["metrics"]["completed"]
                                  for r in member_rows),
                 "failures": sum(r["metrics"]["failures"]
                                 for r in member_rows)}
        for metric in CAMPAIGN_METRICS:
            values = [float(r["metrics"][metric]) for r in member_rows]
            entry[metric] = summarize(values)
        digests = {r["metrics"]["losses_digest"] for r in member_rows}
        entry["losses_digest"] = (digests.pop() if len(digests) == 1
                                  else "DIVERGED")
        out.append(entry)
    return out


def canonical_json(aggregated: list[dict]) -> str:
    """Byte-stable serialisation of an aggregate (the determinism anchor)."""
    return json.dumps(aggregated, sort_keys=True, separators=(",", ":"))


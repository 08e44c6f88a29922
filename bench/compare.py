"""``python -m bench compare``: a parent commit's runs against a change's.

Usage::

    python -m bench compare A.json B.json
    python -m bench compare A.json B.json --repeat 10 \\
        --parent ../parent-checkout --change . [--workload W ...]

``A.json`` (parent) and ``B.json`` (change) map each workload to a list
of run results, each the last stdout line of ``python -m bench
--workload W ...``.  With ``--repeat N`` the runs are made first: N pairs
per workload, both sides of pair *i* with seed ``--first-seed + i``,
alternating which side runs first, and written to the two files.

For each (workload, metric) it prints both sides' median and quartiles,
the fraction of pairs the change wins (ties count for neither side) and
a verdict against the metric's bound in ``BENCHMARK.json``:

``regressed``   the change's median is worse by more than the bound;
``unresolved``  the parent's own spread (quartile distance / median) is
                wider than the bound, and not every change run beats
                every parent run;
``improved``    the change wins at least 9 of 10 pairs and the medians
                differ by more than the parent's quartile distance;
``ok``          otherwise.

Per-layer metrics have no bound, so they are never ``regressed`` or
``unresolved``.  Exit status is 1 when anything regressed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from bench import runner
from bench.stats import quartiles


def _better(direction: str, a: float, b: float) -> bool:
    """Is *b* better than *a*?"""
    return b > a if direction == "higher" else b < a


def verdict(parent: list[float], change: list[float], direction: str,
            bound) -> tuple[str, float]:
    """(verdict, change's pairwise win fraction) for one metric."""
    pairs = list(zip(parent, change))
    wins = sum(_better(direction, a, b) for a, b in pairs) / len(pairs)
    q1, median, q3 = quartiles(parent)
    change_median = quartiles(change)[1]
    if median == 0:
        worse = 0.0 if change_median == median else float("inf")
    elif direction == "higher":
        worse = (median - change_median) / abs(median)
    else:
        worse = (change_median - median) / abs(median)
    spread = (q3 - q1) / abs(median) if median else 0.0
    if bound is not None and worse > bound:
        return "regressed", wins
    beats_all = all(_better(direction, a, b) for a in parent for b in change)
    if bound is not None and spread > bound and not beats_all:
        return "unresolved", wins
    if wins >= 0.9 and abs(change_median - median) > q3 - q1:
        return "improved", wins
    return "ok", wins


def _cell(values: list[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.5g} [{q1:.5g}, {q3:.5g}]"


def _run_side(checkout: str, workload: str, seed: int, seconds, trace: int):
    cmd = [sys.executable, "-m", "bench", "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise runner.BenchError(f"{checkout}: {workload} seed {seed} printed "
                                f"no result:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def make_runs(args) -> None:
    sides = {"parent": {}, "change": {}}
    for workload in args.workload or runner.workload_names():
        for i in range(args.repeat):
            seed = args.first_seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                checkout = getattr(args, side)
                result = _run_side(checkout, workload, seed, args.seconds,
                                   args.trace)
                sides[side].setdefault(workload, []).append(result)
                print(f"{workload} pair {i + 1}/{args.repeat} {side}: "
                      f"correct={result['correct']}", file=sys.stderr)
    for side, path in (("parent", args.a), ("change", args.b)):
        with open(path, "w") as f:
            json.dump(sides[side], f, indent=1)


def main(argv) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench compare")
    parser.add_argument("a", help="parent runs (JSON)")
    parser.add_argument("b", help="change runs (JSON)")
    parser.add_argument("--repeat", type=int, default=0,
                        help="first make this many run pairs per workload")
    parser.add_argument("--parent", help="parent checkout (with --repeat)")
    parser.add_argument("--change", help="change checkout (with --repeat)")
    parser.add_argument("--workload", action="append",
                        choices=runner.workload_names())
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.repeat:
        if not (args.parent and args.change):
            parser.error("--repeat needs --parent and --change")
        make_runs(args)
    with open(args.a) as f:
        parent = json.load(f)
    with open(args.b) as f:
        change = json.load(f)
    cfg = runner.config()
    specs = {m["name"]: m for m in cfg["end_to_end"] + cfg["per_layer"]}
    print(f"{'workload':<14} {'metric':<30} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'win':>5}  verdict")
    regressed = False
    for workload in parent:
        if workload not in change:
            continue
        names = [n for n in parent[workload][0]["metrics"]
                 if n in change[workload][0]["metrics"]]
        for name in names:
            a = [r["metrics"][name]["value"] for r in parent[workload]]
            b = [r["metrics"][name]["value"] for r in change[workload]]
            spec = specs.get(name, {"better": "lower"})
            result, wins = verdict(a, b, spec["better"], spec.get("bound"))
            regressed = regressed or result == "regressed"
            print(f"{workload:<14} {name:<30} {_cell(a):>34} {_cell(b):>34} "
                  f"{wins:>5.2f}  {result}")
    return 1 if regressed else 0

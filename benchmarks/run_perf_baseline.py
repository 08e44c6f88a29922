#!/usr/bin/env python3
"""Refresh or check the simulator performance baseline.

Runs every scenario in ``bench_simulator_perf.PERF_SCENARIOS`` a few
times and keeps the best wall-clock per bench.  Two modes:

* default — rewrite ``BENCH_simulator.json``: the ``benches`` section
  holds the current run's best-of-rounds (what reviews diff), and a
  timestamped entry is appended to the ``history`` list so the perf
  trajectory is tracked PR-over-PR instead of overwritten.
* ``--check`` — measure, compare events/sec against the committed
  baseline without writing anything, and exit non-zero when any bench
  regresses past its own threshold (``BENCH_THRESHOLDS``; ``--threshold``
  overrides all of them) or dispatches a different number of logical
  events than its committed entry (counts are deterministic, so any
  difference is a behaviour change, not noise; the job-build bench
  counts device buffers instead).  CI's perf-smoke job
  runs this with ``--quick`` (fewer rounds).
* ``--profile`` — additionally run each bench once under ``cProfile`` and
  print the top 25 functions by cumulative time (hotspot triage).

Usage::

    PYTHONPATH=src python benchmarks/run_perf_baseline.py [output.json]
    PYTHONPATH=src python benchmarks/run_perf_baseline.py --quick --check
    PYTHONPATH=src python benchmarks/run_perf_baseline.py --profile
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import sys
import time
from pathlib import Path

# Allow invocation from anywhere: make the repo root importable.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import repro
from benchmarks.bench_simulator_perf import PERF_SCENARIOS

# Shared-container timing is long-tailed (median ~1.3x the fast window),
# so the tracked best-of needs enough rounds to catch a quiet window.
ROUNDS = 15
QUICK_ROUNDS = 2
#: History entries retained (one per refresh; oldest dropped first).
HISTORY_LIMIT = 50
DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_simulator.json"

#: Allowed fractional events/sec regression per bench in ``--check`` mode.
#: The raw event-loop bench is tight and stable; the full-stack training
#: benches carry real numpy work whose wall clock is noisier run-to-run
#: (allocator state, CPU frequency scaling), so they get more headroom.
BENCH_THRESHOLDS = {
    "bench_event_loop_throughput": 0.20,
    "bench_ddp_training_throughput": 0.30,
    # Same workload as the DDP bench plus live span/trace recording; the
    # extra python-level work makes wall clock a bit noisier still.
    "bench_trace_overhead_throughput": 0.30,
    "bench_3d_training_throughput": 0.30,
    "bench_fsdp_training_throughput": 0.30,
    # Real sha256 digesting of payloads (manifest writes and validated
    # plans).  Listing the store once per lookup instead of once per plan
    # or GC costs ~17% here, so the limit sits below that; the scenario
    # also asserts the listing count, which no host noise can hide.
    "bench_checkpoint_store_throughput": 0.15,
    # Restarted-generation job builds: numpy copies and buffer objects,
    # with the noise of the training benches.  Its deterministic count
    # is device buffers built, not events.
    "bench_job_build_throughput": 0.30,
}
DEFAULT_THRESHOLD = 0.25


def measure(name: str, scenario, rounds: int) -> dict:
    scenario()  # warm-up round (imports, caches, allocator)
    best_wall = float("inf")
    events = 0
    gc_was_enabled = gc.isenabled()
    for _ in range(rounds):
        # Collect between rounds and disable during the timed region
        # (timeit does the same): GC pauses measure the allocator's debt,
        # not the simulator, and they dominate round-to-round variance.
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            env = scenario()
            wall = time.perf_counter() - start
        finally:
            if gc_was_enabled:
                gc.enable()
        if wall < best_wall:
            best_wall = wall
            events = env.events_processed
    return {
        "events": events,
        "best_wall_seconds": round(best_wall, 6),
        "events_per_sec": round(events / best_wall),
    }


def profile_benches(top: int = 25) -> None:
    """Run each bench once under cProfile; print top functions by cumtime."""
    import cProfile
    import pstats

    for name, scenario in PERF_SCENARIOS.items():
        scenario()  # warm-up, same as measure()
        profiler = cProfile.Profile()
        profiler.enable()
        scenario()
        profiler.disable()
        print(f"\n=== {name} (top {top} by cumulative time) ===")
        pstats.Stats(profiler).sort_stats("cumulative").print_stats(top)


def run_benches(rounds: int) -> dict:
    benches = {}
    for name, scenario in PERF_SCENARIOS.items():
        result = measure(name, scenario, rounds)
        benches[name] = result
        print(f"{name:<34} {result['events']:>8} events  "
              f"{result['best_wall_seconds']:>9.4f}s  "
              f"{result['events_per_sec']:>10,} ev/s")
    return benches


def load_existing(output: Path) -> dict:
    try:
        return json.loads(output.read_text(encoding="utf-8"))
    except (FileNotFoundError, json.JSONDecodeError):
        return {}


def check_regressions(benches: dict, existing: dict,
                      threshold: float | None = None) -> int:
    """Compare against the committed baseline; returns the exit code.

    Each bench's events/sec is held to its own ``BENCH_THRESHOLDS`` entry
    (falling back to ``DEFAULT_THRESHOLD``); an explicit *threshold*
    overrides all of them uniformly.  Its logical event count must equal
    the committed one exactly.
    """
    committed = existing.get("benches", {})
    if not committed:
        print("no committed baseline to check against")
        return 1
    failures = 0
    for name, result in benches.items():
        base = committed.get(name)
        if base is None:
            print(f"{name}: no committed baseline entry, skipping")
            continue
        allowed = (threshold if threshold is not None
                   else BENCH_THRESHOLDS.get(name, DEFAULT_THRESHOLD))
        baseline_rate = base["events_per_sec"]
        rate = result["events_per_sec"]
        delta = (rate - baseline_rate) / baseline_rate
        problems = []
        if delta < -allowed:
            problems.append(f"REGRESSION (>{allowed:.0%} below baseline)")
        if result["events"] != base["events"]:
            problems.append(f"EVENTS CHANGED ({result['events']} vs "
                            f"committed {base['events']})")
        failures += bool(problems)
        status = "; ".join(problems) or "ok"
        print(f"{name:<34} {rate:>10,} ev/s vs {baseline_rate:>10,} "
              f"({delta:+.1%}, allowed -{allowed:.0%})  {status}")
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("output", nargs="?", type=Path, default=DEFAULT_OUTPUT)
    parser.add_argument("--quick", action="store_true",
                        help=f"run {QUICK_ROUNDS} rounds instead of {ROUNDS}")
    parser.add_argument("--check", action="store_true",
                        help="compare against the committed baseline instead "
                             "of rewriting it; non-zero exit on regression")
    parser.add_argument("--threshold", type=float, default=None,
                        help="override every per-bench regression threshold "
                             "in --check mode (default: BENCH_THRESHOLDS)")
    parser.add_argument("--profile", action="store_true",
                        help="also run each bench once under cProfile and "
                             "print the top 25 functions by cumulative time")
    args = parser.parse_args(argv)

    rounds = QUICK_ROUNDS if args.quick else ROUNDS
    benches = run_benches(rounds)
    existing = load_existing(args.output)

    if args.profile:
        profile_benches()

    if args.check:
        return check_regressions(benches, existing, args.threshold)

    entry = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "version": repro.__version__,
        "python": platform.python_version(),
        "rounds": rounds,
        "benches": benches,
    }
    history = existing.get("history", [])
    history.append(entry)
    baseline = {
        "version": repro.__version__,
        "python": platform.python_version(),
        "rounds": rounds,
        "benches": benches,
        "history": history[-HISTORY_LIMIT:],
    }
    args.output.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n",
                           encoding="utf-8")
    print(f"\nwrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

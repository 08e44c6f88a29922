"""CLI for the recovery-equivalence oracle.

``sweep``
    Seeded fuzz sweep across strategies; exits non-zero on any failure.
    Each check prints its verdict, then the run's final simulated clock,
    its exact goodput-ledger buckets and its logical event count, so two
    sweeps' outputs differ whenever their timing or their event
    accounting does.
``replay``
    Re-run one JSON schedule under one strategy (the shrinker's repro
    command lands here).
``shrink``
    Minimize a failing JSON schedule and print the repro one-liner.
"""

from __future__ import annotations

import argparse
import sys

from repro.obs.ledger import BUCKETS
from repro.oracle.oracle import DEFAULT_ITERATIONS, RecoveryOracle, Verdict
from repro.oracle.schedule import (NETWORK_SHAPES, SHAPES, STORAGE_SHAPES,
                                   FailureSchedule)
from repro.oracle.shrinker import shrink
from repro.oracle.strategies import STRATEGIES


def _add_common(parser):
    parser.add_argument("--iterations", type=int, default=DEFAULT_ITERATIONS,
                        help="training iterations per run")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.oracle",
        description="Recovery-equivalence oracle for JIT checkpointing")
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="seeded fuzz sweep")
    sweep.add_argument("--seed", type=int, default=7)
    sweep.add_argument("--count", type=int, default=5,
                       help="schedules to draw")
    sweep.add_argument("--strategies", nargs="+", default=list(STRATEGIES),
                       choices=list(STRATEGIES))
    sweep.add_argument("--shapes", nargs="+", default=None,
                       choices=list(SHAPES + NETWORK_SHAPES + STORAGE_SHAPES),
                       help="restrict the fuzzer to these schedule shapes")
    sweep.add_argument("--include-storage", action="store_true",
                       help="add torn-write/bit-rot corruption shapes to "
                            "the draw rotation")
    _add_common(sweep)

    replay = sub.add_parser("replay", help="replay one schedule")
    replay.add_argument("--strategy", required=True, choices=list(STRATEGIES))
    replay.add_argument("--schedule", required=True,
                        help="JSON schedule (from the shrinker)")
    _add_common(replay)

    shrink_p = sub.add_parser("shrink", help="minimize a failing schedule")
    shrink_p.add_argument("--strategy", required=True,
                          choices=list(STRATEGIES))
    shrink_p.add_argument("--schedule", required=True)
    _add_common(shrink_p)
    return parser


def progress_line(verdict: Verdict) -> str:
    """A sweep check's verdict, final clock, exact ledger buckets and
    logical event count."""
    ledger = verdict.ledger
    if ledger is None:
        return verdict.describe()
    buckets = " ".join(f"{name}={ledger.buckets[name]}" for name in BUCKETS)
    return (f"{verdict.describe()}\n    clock={ledger.wall_time!r} "
            f"{buckets} events={verdict.events}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    oracle = RecoveryOracle(iterations=args.iterations)

    if args.command == "sweep":
        report = oracle.sweep(
            args.seed, args.count, strategies=args.strategies,
            shapes=args.shapes, include_storage=args.include_storage,
            progress=lambda verdict: print(progress_line(verdict)))
        print()
        for line in report.summary_lines():
            print(line)
        print(f"\n{len(report.verdicts)} checks, "
              f"{len(report.failures)} failing")
        return 0 if report.passed else 1

    schedule = FailureSchedule.from_json(args.schedule)
    if args.command == "replay":
        verdict = oracle.check(schedule, args.strategy)
        print(verdict.describe())
        if verdict.flight_dump:
            print()
            print(verdict.flight_dump)
        return 0 if verdict.passed else 1

    result = shrink(oracle, schedule, args.strategy)
    print(f"shrunk {len(result.original)} -> {len(result.minimal)} points "
          f"in {result.attempts} attempts")
    print(result.minimal.describe())
    print(result.repro)
    return 0


if __name__ == "__main__":
    sys.exit(main())

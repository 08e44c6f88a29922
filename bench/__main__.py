"""Command line: run the benchmark, or compare two sets of runs.

``python -m bench --workload W --seed N --seconds S --trace 0|1``
    One workload, one run; the last stdout line is the JSON result.
``python -m bench [--seed N] [--trace 0|1] [--scale F]``
    Every workload in turn (and its traced run with ``--trace 1``).
``python -m bench compare A.json B.json [--repeat N --parent DIR --change DIR]``
    See :mod:`bench.compare`.

This process never imports ``repro``: each workload runs in fresh worker
processes (:mod:`bench.worker`) that import it from the checkout's
``src``.  Exit status is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import sys

from bench import runner


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m bench",
        description="End-to-end benchmark of the JIT-checkpointing simulator")
    parser.add_argument("--workload", choices=runner.workload_names(),
                        help="run one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=7,
                        help="input seed (default 7)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: "
                             "BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0,
                        help="1: the traced run, printing per-layer metrics")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply run length and traced op count "
                             "(tests use 0.02)")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        from bench import compare

        return compare.main(argv[1:])
    args = build_parser().parse_args(argv)
    if not runner.checkout_ok():
        print("bench: no src/repro next to bench/ -- run from the root of a "
              "repository checkout", file=sys.stderr)
        return 2
    seconds = runner.run_seconds() if args.seconds is None else args.seconds
    seconds *= args.scale
    if args.workload is not None:
        result = runner.run(args.workload, "trace" if args.trace else "run",
                            args.seed, seconds, args.scale)
        print(runner.table(args.workload, result))
        print(json.dumps(result.output()))
        return 0 if result.correct else 1
    modes = ["run", "trace"] if args.trace else ["run"]
    combined, ok = {}, True
    for name in runner.workload_names():
        for mode in modes:
            result = runner.run(name, mode, args.seed, seconds, args.scale)
            print(runner.table(name, result))
            combined.setdefault(name, {})[mode] = result.output()
            ok = ok and result.correct
    print(json.dumps(combined))
    return 0 if ok else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except runner.BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(1)

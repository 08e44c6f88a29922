"""Print the paper's analytical tables from the calibrated models.

Usage::

    python -m repro.tools.report                 # all sections (except trace)
    python -m repro.tools.report table3          # one section
    python -m repro.tools.report table8 s51 recommend
    python -m repro.tools.report oracle --json   # machine-readable output
    python -m repro.tools.report trace --out run.json   # Chrome trace export

Everything here is closed-form (Section 5 equations over the calibrated
hardware model), except the ``perf`` section, which exercises the
simulator kernel and the campaign engine for real to report events/sec
and cache hit-rate; the ``oracle``/``storage``/``goodput`` sections,
which run the recovery-equivalence oracle end to end; and ``trace``,
which exports a recovery-bearing run as Chrome trace-event JSON
(load it at ``chrome://tracing`` or https://ui.perfetto.dev).  The
simulation-backed tables (4-7) live in ``benchmarks/`` because they
execute failures end to end.

Every section accepts ``--json``: sections then print nothing and the
tool emits one JSON object keyed by section name.  The tool exits 1
when the oracle or storage section finds a failing check or the goodput
section an imbalanced ledger (that section's result then carries
``check_failed``), and 2 on an unknown section.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from repro.analysis import (
    CalibratedParameters,
    dollar_cost_per_month,
    optimal_checkpoint_frequency,
    table8_row,
)
from repro.analysis.calibration import OPT_FAILURE_RATE_PER_GPU_PER_DAY
from repro.analysis.mtbf import MtbfEstimate, recommend_strategy
from repro.core.periodic import CheckpointMode, critical_path_seconds
from repro.workloads.catalog import WORKLOADS

SECONDS_PER_DAY = 86400.0


def _rule(width: int = 78) -> None:
    print("-" * width)


def report_table3(json_mode: bool = False) -> dict:
    rows = []
    failure_rate = OPT_FAILURE_RATE_PER_GPU_PER_DAY / SECONDS_PER_DAY
    for name in ("GPT2-S", "GPT2-XL", "GPT2-8B", "GPT2-18B", "BERT-L-PT",
                 "BERT-B-FT"):
        spec = WORKLOADS[name]
        cells = []
        for mode in CheckpointMode:
            o = critical_path_seconds(spec, mode)
            c = optimal_checkpoint_frequency(spec.world_size, failure_rate, o)
            cells.append(100 * c * o)
        once_daily = 100 * critical_path_seconds(
            spec, CheckpointMode.PC_MEM) / SECONDS_PER_DAY
        rows.append({"model": name, "pc_disk_pct": cells[0],
                     "pc_mem_pct": cells[1], "checkfreq_pct": cells[2],
                     "pc_once_daily_pct": once_daily})
    if not json_mode:
        print("\nTable 3 — steady-state checkpointing overhead % "
              "(optimal frequency, f = 2/day per 992 GPUs)")
        _rule()
        print(f"{'Model':<12} {'PC_disk':>9} {'PC_mem':>9} {'CheckFreq':>10} "
              f"{'PC_1/day':>10} {'JIT-C':>7}")
        for row in rows:
            print(f"{row['model']:<12} {row['pc_disk_pct']:>8.3f}% "
                  f"{row['pc_mem_pct']:>8.3f}% {row['checkfreq_pct']:>9.3f}% "
                  f"{row['pc_once_daily_pct']:>9.4f}% {'~0':>7}")
    return {"rows": rows}


def report_table8(json_mode: bool = False) -> dict:
    rows = []
    for name in ("BERT-L-PT", "BERT-B-FT", "GPT2-S", "GPT2-8B"):
        params = CalibratedParameters.from_spec(WORKLOADS[name]).params
        for n in (4, 1024, 8192):
            row = table8_row(n, params)
            rows.append({
                "model": name, "n": n, "c_star_per_hr": row["c_star_per_hr"],
                "periodic_pct": 100 * row["periodic"],
                "user_jit_pct": 100 * row["user_jit"],
                "transparent_pct": 100 * row["transparent"],
            })
    if not json_mode:
        print("\nTable 8 — wasted-GPU-time scaling (w_f at optimal periodic "
              "frequency vs JIT)")
        _rule()
        print(f"{'Model':<12} {'N':>6} {'c*/hr':>8} {'periodic':>9} "
              f"{'user JIT':>9} {'transparent':>12}")
        for row in rows:
            print(f"{row['model']:<12} {row['n']:>6} "
                  f"{row['c_star_per_hr']:>8.2f} "
                  f"{row['periodic_pct']:>8.3f}% "
                  f"{row['user_jit_pct']:>8.3f}% "
                  f"{row['transparent_pct']:>11.4f}%")
    return {"rows": rows}


def report_s51(json_mode: bool = False) -> dict:
    rows = []
    for n in (1000, 4000, 10_000):
        failures_per_day = n / 1000.0
        cost = dollar_cost_per_month(n, failures_per_day,
                                     lost_hours_per_failure=0.25)
        rows.append({"n_gpus": n, "failures_per_day": failures_per_day,
                     "dollars_per_month": cost})
    if not json_mode:
        print("\nSection 5.1 — monthly dollar cost of failures ($4/GPU-hour, "
              "30-minute periodic checkpoints)")
        _rule()
        for row in rows:
            print(f"{row['n_gpus']:>7} GPUs: {row['failures_per_day']:>5.1f} "
                  f"failures/day -> ${row['dollars_per_month']:>12,.0f}/month")
    return {"rows": rows}


def report_recommendation(json_mode: bool = False) -> dict:
    rows = []
    estimate = MtbfEstimate(failures=60,
                            gpu_seconds=992 * 30 * SECONDS_PER_DAY)
    for name in ("BERT-L-PT", "GPT2-8B"):
        params = CalibratedParameters.from_spec(WORKLOADS[name]).params
        for n in (1024, 8192):
            rec = recommend_strategy(estimate, n, params)
            rows.append({
                "model": name, "n": n, "strategy": rec.strategy,
                "checkpoint_interval_seconds": rec.checkpoint_interval_seconds,
                "expected_wasted_fraction": rec.expected_wasted_fraction,
            })
    if not json_mode:
        print("\nStrategy recommendation (observed: 60 failures / 30 days / "
              "992 GPUs)")
        _rule()
        for row in rows:
            interval = (f"periodic every "
                        f"{row['checkpoint_interval_seconds'] / 3600:.1f} h"
                        if row["checkpoint_interval_seconds"]
                        else "no periodic")
            print(f"{row['model']:<12} N={row['n']:<6} -> "
                  f"{row['strategy']:<14} ({interval}; expected waste "
                  f"{100 * row['expected_wasted_fraction']:.3f}%)")
    return {"rows": rows}


def report_perf(json_mode: bool = False) -> dict:
    """Simulator kernel throughput and campaign-engine cache behaviour."""
    import tempfile
    import time

    from repro.campaign import CampaignRunner, CampaignSpec, ResultCache
    from repro.sim import Environment

    def ticker(env, n):
        for _ in range(n):
            yield env.timeout(1.0)

    env = Environment()
    for _ in range(4):
        env.process(ticker(env, 2500))
    start = time.perf_counter()
    env.run()
    wall = time.perf_counter() - start

    campaign = CampaignSpec.grid(
        "report-perf", workloads=["GPT2-S"], policies=["user_jit"],
        seeds=[0, 1, 2], target_iterations=12, failure_rate=1.0 / 30.0,
        horizon=100.0, minibatch_time=0.1, init_costs=(0.5, 0.25, 0.25),
        progress_timeout=10.0)
    with tempfile.TemporaryDirectory() as cache_dir:
        runner = CampaignRunner(cache=ResultCache(cache_dir), workers=1)
        cold = runner.run(campaign)
        warm = runner.run(campaign)
    # No result cache: the second pass answers every scenario no failure
    # reaches from the runner's failure-free memo.
    memo_runner = CampaignRunner(workers=1)
    memo_runner.run(campaign)
    memo = memo_runner.run(campaign)
    data = {
        "kernel": {"events": env.events_processed, "wall_seconds": wall,
                   "events_per_sec": env.events_processed / wall},
        **{f"campaign_{name}": {"cache_hits": run.perf.cache_hits,
                                "executed": len(run.perf.runs),
                                "reused": run.perf.reused,
                                "wall_seconds": run.perf.wall_seconds}
           for name, run in (("cold", cold), ("warm", warm),
                             ("memo", memo))},
    }
    if not json_mode:
        print("\nSimulator performance — kernel events/sec and campaign "
              "engine cache hit-rate")
        _rule()
        print(f"kernel event loop: {env.events_processed} events in "
              f"{wall * 1e3:.1f} ms -> "
              f"{env.events_processed / wall:,.0f} events/s")
        print(f"campaign engine (cold): {cold.perf.describe()}")
        print(f"campaign engine (warm): {warm.perf.describe()}")
        print(f"campaign engine (memo): {memo.perf.describe()}")
        print("(see BENCH_simulator.json for the tracked per-bench baseline; "
              "refresh with benchmarks/run_perf_baseline.py)")
    return data


def _oracle_rows(iterations: int, count: int,
                 shapes: Optional[tuple[str, ...]] = None) -> list[dict]:
    """One row per recovery strategy: a seed-7 fuzz sweep of *count*
    schedules checked under that strategy alone."""
    from repro.oracle import STRATEGIES, RecoveryOracle

    rows = []
    for strategy in STRATEGIES:
        oracle = RecoveryOracle(iterations=iterations, strategies=(strategy,))
        verdicts = oracle.sweep(seed=7, count=count, shapes=shapes).verdicts
        failures = [v for v in verdicts if not v.passed]
        # Goodput-bucket seconds summed across the strategy's runs.
        goodput = {bucket: float(amount)
                   for bucket, amount in oracle.goodput_buckets.items()}
        goodput["balanced"] = all(v.ledger is None or v.ledger.balanced
                                  for v in verdicts)
        rows.append({
            "strategy": strategy,
            "checks": len(verdicts),
            "failures": len(failures),
            "passed": not failures,
            "outcomes": [v.outcome for v in verdicts],
            "violations": [str(violation) for v in failures
                           for violation in v.violations],
            "failing_schedules": [v.schedule.to_json() for v in failures],
            "storage": dict(oracle.storage_stats),
            "goodput": goodput,
        })
    return rows


def report_oracle(json_mode: bool = False) -> dict:
    """Recovery-equivalence fuzz sweep across every recovery strategy."""
    from repro.oracle import STRATEGIES

    rows = _oracle_rows(iterations=16, count=3)
    total_checks = sum(m["checks"] for m in rows)
    total_failures = sum(m["failures"] for m in rows)
    if not json_mode:
        print("\nRecovery-equivalence oracle — seeded chaos fuzz across all "
              "strategies")
        _rule()
        print(f"{'Strategy':<12} {'checks':>7} {'failing':>8}  verdicts")
        for metrics in rows:
            print(f"{metrics['strategy']:<12} {metrics['checks']:>7} "
                  f"{metrics['failures']:>8}  "
                  f"{', '.join(metrics['outcomes'])}")
            for violation in metrics["violations"]:
                print(f"    {violation}")
            for schedule in metrics["failing_schedules"]:
                print(f"    repro: python -m repro.oracle replay --strategy "
                      f"{metrics['strategy']} --schedule '{schedule}'")
        status = ("zero invariant violations" if total_failures == 0
                  else f"{total_failures} FAILING CHECKS")
        print(f"\n{total_checks} checks across {len(STRATEGIES)} strategies: "
              f"{status}")
    data = {"rows": rows, "checks": total_checks, "failures": total_failures}
    if total_failures:
        data["check_failed"] = True
    return data


def report_storage(json_mode: bool = False) -> dict:
    """Checkpoint-store corruption grid: torn writes and bit rot at rest."""
    from repro.oracle.schedule import STORAGE_SHAPES

    rows = _oracle_rows(iterations=14, count=2, shapes=STORAGE_SHAPES)
    total_failures = sum(m["failures"] for m in rows)
    storage: dict[str, int] = {}
    for metrics in rows:
        for key, count in metrics["storage"].items():
            storage[key] = storage.get(key, 0) + count
    if not json_mode:
        print("\nCheckpoint-store corruption — torn-write/bit-rot schedules, "
              "manifest-validated recovery")
        _rule()
        print(f"{'Strategy':<12} {'checks':>7} {'failing':>8} {'torn':>6} "
              f"{'rotted':>7} {'quarantined':>12}")
        for metrics in rows:
            stats = metrics["storage"]
            print(f"{metrics['strategy']:<12} {metrics['checks']:>7} "
                  f"{metrics['failures']:>8} "
                  f"{stats.get('writes_torn', 0):>6} "
                  f"{stats.get('bit_rot_injected', 0):>7} "
                  f"{stats.get('quarantined', 0):>12}")
            for violation in metrics["violations"]:
                print(f"    {violation}")
        status = ("every strategy bitwise-exact under corruption"
                  if total_failures == 0
                  else f"{total_failures} FAILING CHECKS")
        print(f"\ninjected: {storage.get('writes_torn', 0)} torn writes, "
              f"{storage.get('bit_rot_injected', 0)} bit-rot flips; "
              f"{storage.get('quarantined', 0)} objects quarantined — "
              f"{status}")
    data = {"rows": rows, "failures": total_failures, "storage": storage}
    if total_failures:
        data["check_failed"] = True
    return data


def report_goodput(json_mode: bool = False) -> dict:
    """GoodPut/BadPut ledger for every strategy, golden and single-failure.

    Each run's buckets must satisfy the accounting identity exactly
    (``productive + detection + rework + restart + idle ==
    wall-clock × ranks`` as exact fractions); the section fails loudly if
    any ledger is imbalanced.
    """
    from repro.obs import build_strategy_ledger
    from repro.oracle.oracle import RecoveryOracle
    from repro.oracle.schedule import FailurePoint, FailureSchedule

    oracle = RecoveryOracle(iterations=10)
    schedules = [
        ("no-failure", FailureSchedule(points=())),
        ("single GPU_HARD@it4",
         FailureSchedule(points=(FailurePoint(4, "GPU_HARD", 1, offset=0.3),))),
    ]
    if not json_mode:
        print("\nGoodPut ledger — every simulated rank-second classified "
              "(identity: buckets == wall x ranks)")
        _rule()
    rows = []
    imbalanced = 0
    for label, schedule in schedules:
        if not json_mode:
            print(f"\n  {label}:")
        for strategy in oracle.strategies:
            run = oracle.run(schedule, strategy)
            ledger = build_strategy_ledger(run, oracle.spec.world_size)
            if not ledger.balanced:
                imbalanced += 1
            rows.append({"schedule": label, "strategy": strategy,
                         **ledger.to_metrics()})
            if not json_mode:
                print(f"    {ledger.describe()}")
    if not json_mode:
        status = ("every ledger balanced bitwise" if imbalanced == 0
                  else f"{imbalanced} IMBALANCED LEDGERS")
        print(f"\n{len(rows)} runs: {status}")
    data = {"rows": rows, "imbalanced": imbalanced}
    if imbalanced:
        data["check_failed"] = True
    return data


def report_trace(json_mode: bool = False,
                 out: str = "run_trace.json") -> dict:
    """Export a recovery-bearing traced run as Chrome trace-event JSON."""
    from repro.obs import chrome_trace_events, write_chrome_trace
    from repro.oracle.oracle import RecoveryOracle
    from repro.oracle.schedule import FailurePoint, FailureSchedule

    oracle = RecoveryOracle(iterations=10)
    schedule = FailureSchedule(
        points=(FailurePoint(4, "GPU_HARD", 1, offset=0.3),))
    run = oracle.run(schedule, "transparent")
    events = chrome_trace_events(run.tracer)
    write_chrome_trace(out, run.tracer, label="transparent GPU_HARD@it4")
    data = {"out": out, "trace_events": len(events),
            "spans": len(run.tracer.spans),
            "strategy": "transparent",
            "schedule": schedule.describe()}
    if not json_mode:
        print("\nChrome trace export — recovery-bearing transparent run")
        _rule()
        print(f"wrote {len(events)} trace events ({len(run.tracer.spans)} "
              f"spans) to {out}")
        print("open chrome://tracing or https://ui.perfetto.dev and load "
              "the file")
    return data


SECTIONS = {
    "table3": report_table3,
    "table8": report_table8,
    "s51": report_s51,
    "recommend": report_recommendation,
    "perf": report_perf,
    "oracle": report_oracle,
    "storage": report_storage,
    "goodput": report_goodput,
    "trace": report_trace,
}

#: Sections run when none are named; ``trace`` writes a file, so it only
#: runs when asked for explicitly.
DEFAULT_SECTIONS = tuple(name for name in SECTIONS if name != "trace")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.report",
        description="Analytical tables, perf/oracle reports and trace export")
    parser.add_argument("sections", nargs="*", metavar="section",
                        help=f"sections to run (default: all except trace); "
                             f"choose from {sorted(SECTIONS)}")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit one JSON object keyed by section instead "
                             "of text")
    parser.add_argument("--out", default="run_trace.json",
                        help="output path for the trace section "
                             "(default: %(default)s)")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(
        argv if argv is not None else sys.argv[1:])
    chosen = args.sections or list(DEFAULT_SECTIONS)
    unknown = [a for a in chosen if a not in SECTIONS]
    if unknown:
        print(f"unknown section(s) {unknown}; choose from {sorted(SECTIONS)}")
        return 2
    payload = {}
    for section in chosen:
        kwargs = {"out": args.out} if section == "trace" else {}
        payload[section] = SECTIONS[section](json_mode=args.as_json, **kwargs)
    if args.as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print()
    if any(result.get("check_failed") for result in payload.values()):
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

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
tool emits one JSON object keyed by section name.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from repro.analysis import (
    CalibratedParameters,
    CostParameters,
    dollar_cost_per_month,
    jit_transparent_wasted_per_gpu,
    jit_user_level_wasted_per_gpu,
    optimal_checkpoint_frequency,
    periodic_wasted_per_gpu,
    wasted_fraction,
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
        transparent = CostParameters(params.checkpoint_overhead,
                                     params.failure_rate, 0.0,
                                     params.minibatch_time)
        for n in (4, 1024, 8192):
            c_star = optimal_checkpoint_frequency(
                n, params.failure_rate, params.checkpoint_overhead)
            rows.append({
                "model": name, "n": n, "c_star_per_hr": c_star * 3600,
                "periodic_pct": 100 * wasted_fraction(
                    periodic_wasted_per_gpu(n, params)),
                "user_jit_pct": 100 * wasted_fraction(
                    jit_user_level_wasted_per_gpu(n, params)),
                "transparent_pct": 100 * wasted_fraction(
                    jit_transparent_wasted_per_gpu(n, transparent)),
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
    # No result cache, prefix fork on: the second pass answers every
    # scenario no failure reaches from the runner's failure-free memo.
    memo_runner = CampaignRunner(workers=1, prefix_fork=True)
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


def report_oracle(json_mode: bool = False) -> dict:
    """Recovery-equivalence fuzz sweep across every recovery strategy."""
    from repro.campaign import CampaignRunner, CampaignSpec
    from repro.oracle import STRATEGIES

    campaign = CampaignSpec.oracle_grid(
        "report-oracle", strategies=STRATEGIES, seeds=[7], fuzz_count=3,
        target_iterations=16)
    result = CampaignRunner(workers=1).run(campaign)
    rows = [outcome.metrics for outcome in result.outcomes]
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
    return {"rows": rows, "checks": total_checks, "failures": total_failures}


def report_storage(json_mode: bool = False) -> dict:
    """Checkpoint-store corruption grid: torn writes and bit rot at rest."""
    from repro.campaign import CampaignRunner, CampaignSpec
    from repro.oracle import STRATEGIES
    from repro.oracle.schedule import STORAGE_SHAPES

    campaign = CampaignSpec.oracle_grid(
        "report-storage", strategies=STRATEGIES, seeds=[7], fuzz_count=2,
        target_iterations=14, shapes=STORAGE_SHAPES)
    result = CampaignRunner(workers=1).run(campaign)
    rows = [outcome.metrics for outcome in result.outcomes]
    total_failures = sum(m["failures"] for m in rows)
    storage: dict[str, int] = {}
    for metrics in rows:
        for key, count in metrics.get("storage", {}).items():
            storage[key] = storage.get(key, 0) + count
    if not json_mode:
        print("\nCheckpoint-store corruption — torn-write/bit-rot schedules, "
              "manifest-validated recovery")
        _rule()
        print(f"{'Strategy':<12} {'checks':>7} {'failing':>8} {'torn':>6} "
              f"{'rotted':>7} {'quarantined':>12}")
        for metrics in rows:
            stats = metrics.get("storage", {})
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
    return {"rows": rows, "failures": total_failures, "storage": storage}


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
    return {"rows": rows, "imbalanced": imbalanced}


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


#: Baseline-check tolerances: productive fraction may drop this much
#: (absolute), phase latencies may grow this much (relative) before the
#: check fails.  Phase totals are exact Fractions upstream, so the
#: slack is for genuine behaviour drift, not float noise.
METRICS_PRODUCTIVE_TOLERANCE = 0.01
METRICS_LATENCY_TOLERANCE = 0.05


def report_metrics(json_mode: bool = False, check: Optional[str] = None,
                   write_baseline: Optional[str] = None,
                   dashboard: Optional[str] = None,
                   metrics_out: Optional[str] = None) -> dict:
    """Metrics pipeline end to end: registry, sampled series, phase analytics.

    Runs the recovery-bearing oracle scenario under every strategy,
    projects each finished run into one registry, then reports the
    Table-7 phase latencies (failure→detection, detection→restart,
    restart→resume) and the ledger-reconciled goodput split per strategy.  Optionally writes
    an OpenMetrics export (``--metrics-out``), a static HTML dashboard
    (``--dashboard``), a regression baseline (``--write-baseline``), or
    compares against one (``--check``, nonzero exit on regression).
    """
    from repro import flags
    from repro.obs import metrics
    from repro.obs.metrics import bridge
    from repro.obs.metrics.dashboard import (filter_snapshot, snapshot,
                                             write_dashboard)
    from repro.obs.metrics.export import write_openmetrics
    from repro.oracle.oracle import RecoveryOracle
    from repro.oracle.schedule import FailurePoint, FailureSchedule

    # CI hands artifact paths inside not-yet-existing directories.
    for path in (metrics_out, dashboard, write_baseline):
        if path and os.path.dirname(path):
            os.makedirs(os.path.dirname(path), exist_ok=True)

    oracle = RecoveryOracle(iterations=10)
    schedule = FailureSchedule(
        points=(FailurePoint(4, "GPU_HARD", 1, offset=0.3),))
    rows = []
    reg = metrics.MetricsRegistry(scrape_interval=0.5)
    with flags.override(obs=True):
        for strategy in oracle.strategies:
            run = oracle.run(schedule, strategy)
            bridge.record_run(reg, run, oracle.spec.world_size)
            buckets = bridge.goodput_buckets_from_registry(reg, strategy)
            total = sum(buckets.values())
            rows.append({
                "strategy": strategy,
                "outcome": run.outcome,
                "productive_fraction": (float(buckets["productive"] / total)
                                        if total else 0.0),
                "detection_seconds": float(bridge.phase_seconds_from_registry(
                    reg, strategy, "detection")),
                "restart_seconds": float(bridge.phase_seconds_from_registry(
                    reg, strategy, "restart")),
                "resume_seconds": float(bridge.phase_seconds_from_registry(
                    reg, strategy, "resume")),
                "events_dispatched": int(reg.counter(
                    "repro_sim_events_dispatched",
                    labelnames=("strategy",)).labels(
                        strategy=strategy).value),
            })
    full = snapshot("all-strategies", reg)
    data: dict = {"rows": rows, "schedule": schedule.describe(),
                  "scrapes": (len(reg.timeseries) if reg.timeseries else 0)}
    if metrics_out:
        write_openmetrics(metrics_out, reg)
        data["metrics_out"] = metrics_out
    if dashboard:
        slices = [filter_snapshot(row["strategy"], full, "strategy",
                                  row["strategy"]) for row in rows]
        write_dashboard(dashboard, slices,
                        title=f"repro strategies — {schedule.describe()}")
        data["dashboard"] = dashboard
    if write_baseline:
        baseline = {"strategies": {
            row["strategy"]: {
                "productive_fraction": row["productive_fraction"],
                "detection_seconds": row["detection_seconds"],
                "restart_seconds": row["restart_seconds"],
            } for row in rows}}
        with open(write_baseline, "w", encoding="utf-8") as handle:
            json.dump(baseline, handle, indent=2, sort_keys=True)
        data["baseline_written"] = write_baseline
    if check:
        with open(check, encoding="utf-8") as handle:
            baseline = json.load(handle)
        regressions = []
        current = {row["strategy"]: row for row in rows}
        for strategy, expect in sorted(baseline["strategies"].items()):
            row = current.get(strategy)
            if row is None:
                regressions.append(f"{strategy}: missing from this run")
                continue
            floor = (expect["productive_fraction"]
                     - METRICS_PRODUCTIVE_TOLERANCE)
            if row["productive_fraction"] < floor:
                regressions.append(
                    f"{strategy}: productive fraction "
                    f"{row['productive_fraction']:.4f} < baseline "
                    f"{expect['productive_fraction']:.4f} - "
                    f"{METRICS_PRODUCTIVE_TOLERANCE}")
            for phase in ("detection_seconds", "restart_seconds"):
                ceiling = (expect[phase]
                           * (1 + METRICS_LATENCY_TOLERANCE) + 1e-6)
                if row[phase] > ceiling:
                    regressions.append(
                        f"{strategy}: {phase} {row[phase]:.4f} > baseline "
                        f"{expect[phase]:.4f} "
                        f"+{100 * METRICS_LATENCY_TOLERANCE:.0f}%")
        data["regressions"] = regressions
        data["check_failed"] = bool(regressions)
    if not json_mode:
        print("\nMetrics pipeline — phase latencies and goodput split per "
              "strategy (registry ↔ ledger bitwise)")
        _rule()
        print(f"{'Strategy':<12} {'outcome':>8} {'productive':>11} "
              f"{'detect s':>9} {'restart s':>10} {'resume s':>9} "
              f"{'events':>9}")
        for row in rows:
            print(f"{row['strategy']:<12} {row['outcome']:>8} "
                  f"{100 * row['productive_fraction']:>10.2f}% "
                  f"{row['detection_seconds']:>9.3f} "
                  f"{row['restart_seconds']:>10.3f} "
                  f"{row['resume_seconds']:>9.3f} "
                  f"{row['events_dispatched']:>9}")
        print(f"\n{data['scrapes']} time series sampled at 0.5 s sim "
              f"cadence; schedule {schedule.describe()}")
        for key in ("metrics_out", "dashboard", "baseline_written"):
            if key in data:
                print(f"wrote {key.replace('_', ' ')}: {data[key]}")
        if check:
            if data["check_failed"]:
                print(f"BASELINE CHECK FAILED vs {check}:")
                for regression in data["regressions"]:
                    print(f"  {regression}")
            else:
                print(f"baseline check vs {check}: ok")
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
    "metrics": report_metrics,
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
    metrics = parser.add_argument_group("metrics section")
    metrics.add_argument("--metrics-out", default=None, metavar="PATH",
                         help="write an OpenMetrics text export")
    metrics.add_argument("--dashboard", default=None, metavar="PATH",
                         help="write the static HTML strategy dashboard")
    metrics.add_argument("--write-baseline", default=None, metavar="PATH",
                         help="write a goodput/latency baseline JSON")
    metrics.add_argument("--check", default=None, metavar="PATH",
                         help="compare against a baseline JSON; exit "
                              "nonzero on regression")
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
        if section == "trace":
            kwargs = {"out": args.out}
        elif section == "metrics":
            kwargs = {"check": args.check,
                      "write_baseline": args.write_baseline,
                      "dashboard": args.dashboard,
                      "metrics_out": args.metrics_out}
        else:
            kwargs = {}
        payload[section] = SECTIONS[section](json_mode=args.as_json, **kwargs)
    if args.as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print()
    if any(isinstance(result, dict) and result.get("check_failed")
           for result in payload.values()):
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Benchmark worker: one fresh process per workload run.

Started by ``python -m bench`` as
``python -m bench.worker '<json config>'`` from the checkout root.  It
sets the workload up, reports ``ready`` (the parent times set-up from
spawn to that message), then runs one of three modes:

``setup``
    exit right away (an extra set-up sample);
``run``
    closed-loop ops for ``seconds``, untraced: the end-to-end metrics;
``trace``
    ``quarter_ops`` ops untraced, then the same ops on a fresh set-up under
    ``cProfile``: the per-layer metrics, and a check that observing did
    not change what the ops computed.

Messages to the parent are stdout lines starting with ``@bench ``.
"""

from __future__ import annotations

import cProfile
import json
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from bench import layers
from bench.probe import HOST_REF_PROBE_MS, probe_ms
from bench.runner import MESSAGE_PREFIX, ROOT
from bench.stats import percentile

#: Longest stretch of ops between two host-speed probes.
PROBE_EVERY_S = 0.4
#: Problems quoted in a result (the count is always exact).
MAX_QUOTED_PROBLEMS = 20


def pin_to_one_cpu() -> None:
    """Run this worker, its probes and every process it forks on one CPU.

    The probe can only speak for the CPU it runs on.  Unpinned, the
    campaign workload's forked tails ran on the second CPU, whose speed
    no probe saw: in two sets of 10 runs over the same seeds, its
    normalized throughput spread 0.08 unpinned and 0.01 pinned.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def use_checkout_src() -> None:
    """Import ``repro`` from this checkout's ``src``, and only from there."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        raise ImportError(f"repro imported from {repro.__file__}, "
                          f"not from {src}")


def emit(**message) -> None:
    sys.stdout.write(MESSAGE_PREFIX + json.dumps(message) + "\n")
    sys.stdout.flush()


@dataclass
class Timeline:
    """Raw op times with the host-speed probes taken between them."""

    probes: list[float]
    times: list[float] = field(default_factory=list)
    kinds: list[str] = field(default_factory=list)
    #: Index into ``probes`` of the last probe taken before each op.
    probe_at: list[int] = field(default_factory=list)
    subtimes: list[dict] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def factor(self, index: int) -> float:
        """Reference-host rescale for op *index*, from the median of the
        probes nearest it (up to two on either side)."""
        k = self.probe_at[index]
        nearest = self.probes[max(0, k - 1):k + 3]
        return HOST_REF_PROBE_MS / statistics.median(nearest)

    def normalized(self) -> list[float]:
        return [t * self.factor(i) for i, t in enumerate(self.times)]


def run_ops(workload, first_probe: float, n_ops: Optional[int] = None,
            seconds: Optional[float] = None,
            profiler: Optional[cProfile.Profile] = None) -> Timeline:
    """Closed loop: prepare, call (timed), check; probe every ~0.4 s.

    Runs *n_ops* ops, or as many as start within *seconds*.  Only
    ``op.call()`` is timed and profiled.  Peak RSS is read after the
    workload's first ``quarter_ops`` ops (or at the end, if sooner).
    """
    timeline = Timeline(probes=[first_probe])
    clock = time.perf_counter
    start = last_probe = clock()
    index = 0
    while (index < n_ops if n_ops is not None
           else clock() - start < seconds):
        op = workload.prepare(index)
        result, error = None, None
        began = clock()
        if profiler is not None:
            profiler.enable()
        try:
            result = op.call()
        except Exception:
            error = traceback.format_exc()
        finally:
            if profiler is not None:
                profiler.disable()
        elapsed = clock() - began
        if error is None:
            try:
                problems = workload.check(op, result)
            except Exception:
                problems = [traceback.format_exc()]
        else:
            problems = [f"op {index} ({op.kind}) raised:\n{error}"]
        timeline.times.append(elapsed)
        timeline.kinds.append(op.kind)
        timeline.probe_at.append(len(timeline.probes) - 1)
        timeline.subtimes.append(op.subtimes)
        if problems:
            timeline.failed += 1
            timeline.problems.extend(problems)
        index += 1
        if index == workload.quarter_ops:
            timeline.peak_rss_mb = peak_rss_mb()
        if clock() - last_probe >= PROBE_EVERY_S:
            timeline.probes.append(probe_ms())
            last_probe = clock()
    timeline.probes.append(probe_ms())
    if index < workload.quarter_ops:
        timeline.peak_rss_mb = peak_rss_mb()
    return timeline


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest (forked) child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024


def e2e_metrics(timeline: Timeline) -> tuple[dict, dict]:
    """End-to-end metrics (reference-host units), and context values
    printed beside them: the normalized p90 and the raw host timings."""
    norm, raw = timeline.normalized(), timeline.times
    metrics = {"ops_per_s": len(norm) / sum(norm),
               "op_p50_ms": percentile(norm, 50) * 1e3,
               "peak_rss_mb": timeline.peak_rss_mb}
    # The tail is printed but not gated: on the calibration host it is set
    # by host bursts shorter than an op, which no probe sees (its spread
    # over 10 seeds reached 0.12).
    context = {"op_p90_ms": percentile(norm, 90) * 1e3,
               "host.raw_ops_per_s": len(raw) / sum(raw),
               "host.raw_op_p50_ms": percentile(raw, 50) * 1e3,
               "host.raw_op_p90_ms": percentile(raw, 90) * 1e3,
               "host.probe_ms": statistics.median(timeline.probes)}
    return metrics, context


def kind_latencies(workload, timeline: Timeline) -> dict[str, float]:
    """Per-op-kind p50s (and sub-step percentiles), reference-host ms."""
    by_kind: dict[str, list[float]] = {}
    subs: dict[str, list[float]] = {}
    for index, seconds in enumerate(timeline.normalized()):
        by_kind.setdefault(timeline.kinds[index], []).append(seconds)
        factor = timeline.factor(index)
        for step, raw in timeline.subtimes[index].items():
            subs.setdefault(step, []).extend(t * factor for t in raw)
    out = {}
    if workload.kind_metric:
        for kind, values in by_kind.items():
            out[workload.kind_metric.format(kind)] = percentile(values, 50) * 1e3
    for metric, (step, q) in workload.sub_metrics.items():
        if step in subs:
            out[metric] = percentile(subs[step], q) * 1e3
    return out


def trace_metrics(cls, seed: int, workload, first_probe: float,
                  n_ops: int) -> tuple[dict, int, list[str]]:
    """Untraced then traced run of the same first *n_ops* ops."""
    untraced = run_ops(workload, first_probe, n_ops=n_ops)
    records = workload.records
    setup_profile = cProfile.Profile()
    setup_profile.enable()
    traced_workload = cls(seed)
    setup_profile.disable()
    profile = cProfile.Profile()
    traced = run_ops(traced_workload, probe_ms(), n_ops=n_ops,
                     profiler=profile)
    problems = untraced.problems + traced.problems
    if traced_workload.records != records:
        problems.append("the traced run computed different outputs than the "
                        "untraced run of the same ops (observing changed "
                        "the run)")

    profile.create_stats()
    stats = profile.stats
    counts = layers.count_calls(stats, layers.resolve_counted(layers.COUNTED))
    setup_profile.create_stats()
    counts.update(layers.count_calls(
        setup_profile.stats, layers.resolve_counted(layers.SETUP_COUNTED)))
    totals = layers.rollup(stats, tuple(layers.resolve(name)
                                        for name in layers.FORK_WAIT))
    scale = HOST_REF_PROBE_MS / statistics.median(traced.probes)
    wall = sum(traced.times)
    metrics = {f"{layer}.self_s": totals[layer] * scale
               for layer in layers.LAYERS}
    metrics["campaign.fork_wait_s"] = totals["fork_wait"] * scale
    metrics["other.self_s"] = (wall - sum(totals.values())) * scale
    metrics["trace.wall_s"] = wall * scale
    metrics["trace.overhead"] = (statistics.median(traced.normalized())
                                 / statistics.median(untraced.normalized()))
    metrics.update(counts)
    metrics.update(traced_workload.layer_metrics(counts))
    metrics.update(kind_latencies(traced_workload, untraced))
    _e2e, context = e2e_metrics(untraced)
    metrics.update({name: context[name] for name in
                    ("host.probe_ms", "host.raw_ops_per_s",
                     "host.raw_op_p50_ms")})
    return metrics, untraced.failed + traced.failed, problems


def main(argv: list[str]) -> int:
    config = json.loads(argv[0])
    pin_to_one_cpu()
    use_checkout_src()
    from bench.workloads import WORKLOADS

    cls = WORKLOADS[config["workload"]]
    seed = config["seed"]
    workload = cls(seed)
    emit(ready=True)
    first_probe = probe_ms()
    emit(probe_ms=first_probe)
    mode = config["mode"]
    if mode == "setup":
        return 0
    if mode == "run":
        timeline = run_ops(workload, first_probe, seconds=config["seconds"])
        metrics, context = e2e_metrics(timeline)
        attempted, failed = len(timeline.times), timeline.failed
        problems = timeline.problems
    else:
        n_ops = max(1, round(cls.quarter_ops * config["scale"]))
        metrics, failed, problems = trace_metrics(cls, seed, workload,
                                                  first_probe, n_ops)
        attempted, context = 2 * n_ops, {}
    emit(result={"attempted": attempted, "failed": failed,
                 "problems": len(problems),
                 "quoted": problems[:MAX_QUOTED_PROBLEMS],
                 "metrics": metrics, "context": context})
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

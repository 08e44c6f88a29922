"""Simulator performance micro-benchmarks (real wall-clock this time).

Every other bench measures *simulated* seconds; these measure the
simulator itself, so regressions in the event loop or the CUDA/NCCL
layers show up in CI.  pytest-benchmark's timing columns are the result.

The scenario bodies are module-level functions returning the finished
:class:`~repro.sim.Environment` so ``run_perf_baseline.py`` can reuse
them to compute events/sec and persist ``BENCH_simulator.json`` — the
perf trajectory tracked across PRs.
"""

from repro.parallel.topology import ParallelLayout
from repro.sim import Environment
from repro.workloads import TrainingJob, WorkloadSpec
from repro.hardware.specs import V100_NODE


def run_event_loop(processes: int = 10, ticks: int = 5000) -> Environment:
    """Raw engine: schedule/dispatch ``processes * ticks`` timeout events."""
    env = Environment()

    def ticker(n):
        for _ in range(n):
            yield env.timeout(1.0)

    for _ in range(processes):
        env.process(ticker(ticks))
    env.run()
    assert env.now == ticks
    return env


def run_ddp_training(iterations: int = 10) -> Environment:
    """Full stack: 4-rank DDP (~15k sim events at 10 iterations)."""
    spec = WorkloadSpec(name="PERF", model="GPT2-S", node_spec=V100_NODE,
                        num_nodes=1, layout=ParallelLayout(dp=4),
                        engine="ddp", framework="bench",
                        minibatch_time=0.05)
    job = TrainingJob(spec)
    losses = job.run_training(iterations)
    assert len(losses[0]) == iterations
    return job.env


def run_traced_ddp_training(iterations: int = 10) -> Environment:
    """The DDP scenario with full observability on: enabled tracer
    (iteration spans, macro-chain records, storage events) on top of the
    macro-event fast path.  The gap to ``run_ddp_training`` is the trace
    overhead ``docs/performance.md`` quotes; the obs-disabled DDP bench
    itself must not move (CI's perf-smoke job runs once with
    ``REPRO_OBS=0`` to prove it).
    """
    from repro import flags
    from repro.sim import Tracer

    spec = WorkloadSpec(name="PERFTRACE", model="GPT2-S", node_spec=V100_NODE,
                        num_nodes=1, layout=ParallelLayout(dp=4),
                        engine="ddp", framework="bench",
                        minibatch_time=0.05)
    tracer = Tracer(enabled=True)
    job = TrainingJob(spec, tracer=tracer)
    losses = job.run_training(iterations)
    assert len(losses[0]) == iterations
    if flags.obs:    # REPRO_OBS=0 runs measure the disabled fast path
        assert tracer.spans, "observability on: iteration spans expected"
    return job.env


def run_metrics_ddp_training(iterations: int = 10) -> Environment:
    """The traced DDP scenario projected into a metrics registry: after
    the run, the storage, failure and rendezvous families are projected
    from the trace and sampled every 0.5 simulated seconds.  Projection
    schedules nothing, so the run dispatches exactly the events of
    ``run_traced_ddp_training``; the wall-clock gap to it is the
    projection's cost, which ``docs/performance.md`` quotes.  With
    ``REPRO_OBS=0`` the trace holds none of the records the families
    are read from, so the registry stays empty.
    """
    from repro import flags
    from repro.obs import metrics
    from repro.obs.metrics import bridge
    from repro.sim import Tracer

    spec = WorkloadSpec(name="PERFMETRICS", model="GPT2-S",
                        node_spec=V100_NODE, num_nodes=1,
                        layout=ParallelLayout(dp=4), engine="ddp",
                        framework="bench", minibatch_time=0.05)
    tracer = Tracer(enabled=True)
    job = TrainingJob(spec, tracer=tracer)
    losses = job.run_training(iterations)
    reg = metrics.MetricsRegistry(scrape_interval=0.5)
    store = bridge.record_trace(reg, tracer, "ddp", job.env.now)
    metrics.sample_registry(reg, store, job.env.now)
    assert len(losses[0]) == iterations
    if flags.obs:    # REPRO_OBS=0 runs measure the disabled fast path
        assert reg.collect(), "metrics on: registry families expected"
        assert reg.timeseries is not None and len(reg.timeseries) > 0
    return job.env


def run_3d_training(iterations: int = 6) -> Environment:
    """Full stack: 8-rank 3D with microbatching (heavier op mix)."""
    spec = WorkloadSpec(name="PERF3D", model="GPT2-S", node_spec=V100_NODE,
                        num_nodes=1, layout=ParallelLayout(dp=2, pp=2, tp=2),
                        engine="3d", framework="bench",
                        minibatch_time=0.05)
    job = TrainingJob(spec)
    losses = job.run_training(iterations)
    assert any(losses)
    return job.env


def run_fsdp_training(iterations: int = 4) -> Environment:
    """Full stack: 16-rank hybrid FSDP across 2 nodes.

    Hybrid sharding gives two 8-rank replica groups, so this is the bench
    that exercises the copy-on-write replica-dedup arenas alongside the
    all-gather/reduce-scatter op mix.
    """
    spec = WorkloadSpec(name="PERFFSDP", model="GPT2-S", node_spec=V100_NODE,
                        num_nodes=2, layout=ParallelLayout(dp=16),
                        engine="fsdp", framework="bench",
                        minibatch_time=0.05)
    job = TrainingJob(spec)
    losses = job.run_training(iterations)
    assert len(losses[0]) == iterations
    return job.env


def run_checkpoint_store(epochs: int = 40, ranks: int = 4) -> Environment:
    """Checkpoint-store path: atomic manifest writes, validated planning,
    bit-rot quarantine and retention GC.

    Measures the real (wall-clock) overhead of the sha256 manifest
    machinery on top of the simulated transfers: every write digests its
    payload, every plan validates its candidates, and periodic rot keeps
    the quarantine path warm.  Each plan and each GC must list the store
    exactly once, and no payload may go through ``copy.deepcopy`` (the
    store freezes each payload once, in one typed walk); a return to
    per-lookup listing or to deep copies fails the assertions below on
    any host, however noisy its timings.
    """
    import copy

    import numpy as np

    from repro.core.checkpoints import CheckpointKey, CheckpointRegistry
    from repro.storage import RetentionPolicy, SharedObjectStore

    env = Environment()
    store = SharedObjectStore(env, bandwidth=1e9, latency=0.0)
    registry = CheckpointRegistry(store, job_id="bench",
                                  retention=RetentionPolicy(keep_last=3))
    listings = []
    store_list = store.list

    def counting_list(prefix=""):
        listings.append(prefix)
        return store_list(prefix)

    store.list = counting_list
    state = {"weights": np.arange(4096.0), "moments": np.arange(4096.0),
             "step": 0}

    def trainer():
        for epoch in range(epochs):
            state["step"] = epoch
            for rank in range(ranks):
                key = CheckpointKey(kind="jit", epoch=epoch, shard_id="full",
                                    rank=rank, iteration=epoch)
                yield from registry.write(key, state, nbytes=1e8)
            if epoch % 5 == 4:
                store.inject_bit_rot("rank0", salt=epoch)
                plan = registry.planner.plan(["full"])
                assert plan.iteration is not None
                registry.garbage_collect(["full"])

    deepcopies = []
    deepcopy = copy.deepcopy

    def counting_deepcopy(*args, **kwargs):
        deepcopies.append(args[0])
        return deepcopy(*args, **kwargs)

    copy.deepcopy = counting_deepcopy
    try:
        env.run(until=env.process(trainer()))
    finally:
        copy.deepcopy = deepcopy
    assert store.stats["quarantined"] > 0
    assert store.stats["writes_completed"] >= epochs * ranks * 2
    assert len(listings) == 2 * (epochs // 5), len(listings)
    assert not deepcopies, f"{len(deepcopies)} deep copies"
    return env


#: name -> scenario body, shared with ``run_perf_baseline.py``.
PERF_SCENARIOS = {
    "bench_event_loop_throughput": run_event_loop,
    "bench_ddp_training_throughput": run_ddp_training,
    "bench_trace_overhead_throughput": run_traced_ddp_training,
    "bench_metrics_overhead_throughput": run_metrics_ddp_training,
    "bench_3d_training_throughput": run_3d_training,
    "bench_fsdp_training_throughput": run_fsdp_training,
    "bench_checkpoint_store_throughput": run_checkpoint_store,
}


def bench_event_loop_throughput(benchmark):
    """Raw engine: schedule/dispatch 50k timeout events."""
    env = benchmark(run_event_loop)
    assert env.now == 5000.0


def bench_ddp_training_throughput(benchmark):
    """Full stack: 4-rank DDP, 10 iterations (~15k sim events)."""
    env = benchmark(run_ddp_training)
    assert env.events_processed > 0


def bench_trace_overhead_throughput(benchmark):
    """DDP with the tracer enabled: spans + macro-chain trace records."""
    env = benchmark(run_traced_ddp_training)
    assert env.events_processed > 0


def bench_metrics_overhead_throughput(benchmark):
    """Traced DDP with metrics projected from its trace after the run."""
    env = benchmark(run_metrics_ddp_training)
    # Collecting never schedules anything: same events as the traced run.
    assert env.events_processed == run_traced_ddp_training().events_processed


def bench_3d_training_throughput(benchmark):
    """Full stack: 8-rank 3D with microbatching (heavier op mix)."""
    env = benchmark(run_3d_training)
    assert env.events_processed > 0


def bench_fsdp_training_throughput(benchmark):
    """Full stack: 16-rank hybrid FSDP (dedup arenas + shard collectives)."""
    env = benchmark(run_fsdp_training)
    assert env.events_processed > 0


def bench_checkpoint_store_throughput(benchmark):
    """Atomic manifest writes + validated resume planning + retention GC."""
    env = benchmark(run_checkpoint_store)
    assert env.events_processed > 0

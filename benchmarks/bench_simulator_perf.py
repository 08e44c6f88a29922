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
    overhead ``docs/performance.md`` quotes.
    """
    from repro.sim import Tracer

    spec = WorkloadSpec(name="PERFTRACE", model="GPT2-S", node_spec=V100_NODE,
                        num_nodes=1, layout=ParallelLayout(dp=4),
                        engine="ddp", framework="bench",
                        minibatch_time=0.05)
    tracer = Tracer(enabled=True)
    job = TrainingJob(spec, tracer=tracer)
    losses = job.run_training(iterations)
    assert len(losses[0]) == iterations
    assert tracer.spans, "tracer on: iteration spans expected"
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


class JobBuilds:
    """What :func:`run_job_builds` returns.  ``events_processed`` counts
    the device buffers the builds allocated: deterministic, like an
    event count, and what ``run_perf_baseline.py --check`` pins."""

    def __init__(self, buffers: dict[str, int]):
        #: job -> device buffers one build of it allocates.
        self.buffers = buffers
        self.events_processed = sum(buffers.values())


def run_job_builds() -> JobBuilds:
    """Build the GPT2-S DDP, 3D and hybrid-FSDP jobs once each.

    The cost a restarted generation pays before its first minibatch:
    hardware, contexts, communicators, and every rank's engine with its
    parameter and moment buffers.  After the first round each build is a
    template hit (initial weights, byte shares and optimizer layout come
    from the per-process templates) with dedup's replica members born
    bound; the GPT2-S DDP build allocates 456 buffers (4 ranks x 38
    parameters and 76 Adam moments).
    """
    layouts = {
        "ddp": (1, ParallelLayout(dp=4), "ddp"),
        "3d": (1, ParallelLayout(dp=2, pp=2, tp=2), "3d"),
        "fsdp": (2, ParallelLayout(dp=16), "fsdp"),
    }
    buffers = {}
    for name, (nodes, layout, engine) in layouts.items():
        spec = WorkloadSpec(name=f"PERFBUILD-{name}", model="GPT2-S",
                            node_spec=V100_NODE, num_nodes=nodes,
                            layout=layout, engine=engine, framework="bench",
                            minibatch_time=0.05)
        job = TrainingJob(spec)
        buffers[name] = sum(len(ctx.buffers) for ctx in job.contexts)
    assert buffers["ddp"] == 456, buffers
    return JobBuilds(buffers)


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
    "bench_3d_training_throughput": run_3d_training,
    "bench_fsdp_training_throughput": run_fsdp_training,
    "bench_checkpoint_store_throughput": run_checkpoint_store,
    "bench_job_build_throughput": run_job_builds,
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


def bench_job_build_throughput(benchmark):
    """GPT2-S DDP, 3D and hybrid-FSDP job builds (template hits)."""
    builds = benchmark(run_job_builds)
    assert builds.events_processed > 0

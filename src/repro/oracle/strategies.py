"""Uniform adapters running one failure schedule under each recovery strategy.

The oracle compares six strategies through one interface:

* ``transparent`` — Section 4 device-proxy recovery (replay log, virtual
  handles, CRIU migration for hard errors).
* ``swift`` — transparent recovery with Swift-style optimizer rollback
  resolving version skew (spec is switched to the invertible optimizer).
* ``user_level`` — Section 3 watchdog + on-failure checkpoint + restart.
* ``periodic`` — the PC_mem baseline on a fixed interval.
* ``adaptive`` — periodic with CheckFreq-style runtime interval tuning.
* ``gemini`` — per-iteration buddy-RAM checkpointing.

Each adapter arms the schedule's failure points at their target
iterations (offsets scaled by the workload's minibatch time), runs to
completion, and returns a :class:`StrategyRun` carrying everything the
invariant checkers need: the loss stream, the trace (recovery episodes
included), recovery notes, device proxies, checkpoint-GC observations and
per-generation resume points.

``MUTATIONS`` deliberately breaks a strategy (e.g. skipping the RNG
rewind before replay) so tests can prove the oracle catches real bugs.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.core import JitConfig, SwiftJitSystem, TransparentJitSystem
from repro.failures.injector import FailureInjector
from repro.failures.types import FailureType
from repro.oracle.schedule import FailureSchedule
from repro.sim import Environment, Tracer
from repro.storage import SharedObjectStore
from repro.workloads.catalog import WorkloadSpec

#: Every strategy the oracle cross-checks.
STRATEGIES = ("transparent", "swift", "user_level", "periodic",
              "adaptive", "gemini")

#: Strategies built on the device-proxy (in-place recovery, no restart).
TRANSPARENT_FAMILY = ("transparent", "swift")

_STORE_BANDWIDTH = 1.5e9


@dataclass
class StrategyRun:
    """Everything one strategy execution exposes to the invariant checks."""

    strategy: str
    losses: list[float]
    outcome: str                      # "ok" | "unrecoverable"
    detail: str = ""
    completed: bool = False
    #: Max minibatches a single recovery may replay (None = unbounded,
    #: e.g. periodic baselines replay up to a whole interval by design).
    rework_bound: Optional[int] = None
    #: The system's :class:`~repro.core.telemetry.RecoveryTelemetry`; its
    #: records' notes feed the bounded-rework check (their spans are on
    #: ``tracer``).
    telemetry: Optional[object] = None
    tracer: Tracer = field(default_factory=lambda: Tracer(enabled=False))
    proxies: list = field(default_factory=list)
    #: generation -> iteration the slowest rank resumed from.
    resume_points: dict = field(default_factory=dict)
    generations: list = field(default_factory=list)
    #: GC-deleted-live-checkpoint observations (collected while running).
    gc_violations: list = field(default_factory=list)
    #: Logical events the run processed (perf telemetry).
    events: int = 0
    #: Of ``events``, those the macro-event fast path elided.
    events_credited: int = 0
    #: ``env.now`` when the run ended (goodput-ledger wall clock).
    wall_time: float = 0.0
    #: The shared checkpoint store (quarantine invariant evidence).
    store: Optional[object] = None
    #: Gemini's buddy-RAM store, when the strategy uses one.
    ram: Optional[object] = None
    #: Validator-approved-corruption observations: an independent
    #: (pristine) re-verification disagreed with the run's validator at a
    #: resume/read decision point.  Feeds ``resume_target_validates``.
    resume_audits: list = field(default_factory=list)


def spec_variant(spec: WorkloadSpec, strategy: str) -> WorkloadSpec:
    """The workload actually run (and goldened) for *strategy*.

    Swift requires an invertible optimizer, so its runs — and the golden
    baseline they are compared against — use ``invertible_sgd``.
    """
    if strategy == "swift" and spec.optimizer != "invertible_sgd":
        return dataclasses.replace(spec, optimizer="invertible_sgd")
    return spec


def rework_bound(strategy: str, schedule: FailureSchedule) -> Optional[int]:
    if strategy in ("transparent", "swift", "user_level"):
        return 1
    if strategy == "gemini":
        # Buddy RAM checkpoints every iteration, so rework is one
        # minibatch — unless a node crash wipes the buddy slots too.
        crashes = any(p.failure_type == "NODE_CRASH" for p in schedule.points)
        return None if crashes else 1
    return None  # periodic / adaptive legitimately replay an interval


# -- mutations ------------------------------------------------------------------------


def _skip_rng_rewind(system, job) -> None:
    """Break replay determinism: recovery forgets to rewind the RNG.

    The device RNG is rewound two ways during recovery — the proxy's
    snapshot restore *and* the logged ``rng_reseed`` kernel re-executed by
    replay — so both are disabled.  Replayed dropout masks are then drawn
    from the stream position the failure happened to leave behind, which
    is exactly the divergence the paper's Section 4.3 determinism
    requirement exists to prevent.
    """
    def _strip_reseed(records):
        records[:] = [r for r in records
                      if not (r.method == "launch_kernel"
                              and str(r.args[1]).startswith("rng_reseed"))]

    for proxy in system.proxies:
        proxy.restore_rng = lambda include_previous=False: None
        original_replay = proxy.replay

        def replay(skip_optimizer=False, include_previous=False,
                   _proxy=proxy, _original=original_replay):
            _strip_reseed(_proxy.log.records)
            if _proxy.log.previous_records:
                _strip_reseed(_proxy.log.previous_records)
            return _original(skip_optimizer=skip_optimizer,
                             include_previous=include_previous)

        proxy.replay = replay


def _skip_validation(target, job=None) -> None:
    """Break integrity checking: the validator approves everything.

    Patches the run's validator *instance* (the hook tests are told to
    break), so corrupt checkpoints sail through quarantine and resume
    planning.  The oracle must still catch this — its
    ``resume_target_validates`` audit re-verifies every decision with the
    pristine module-level ``verify_payload``.
    """
    from repro.storage.validate import ValidationResult

    registry = getattr(target, "registry", None)
    if registry is None:
        coordinator = getattr(target, "coordinator", None)
        registry = getattr(coordinator, "registry", None)
    if registry is not None:
        registry.validator.verify = (
            lambda payload, manifest, path="?": ValidationResult(path, True))
    ram = getattr(target, "ram", None)
    if ram is not None:
        ram.get_validated = ram.get


#: name -> callable(target, job), applied after the system/runner is
#: built.  ``target`` is the transparent-family system or the managed
#: runner; ``job`` is only available for the transparent family.
MUTATIONS: dict[str, Callable] = {
    "skip_rng_rewind": _skip_rng_rewind,
    "skip_validation": _skip_validation,
}

#: Strategies each mutation can be applied to.
MUTATION_FAMILIES: dict[str, tuple[str, ...]] = {
    "skip_rng_rewind": TRANSPARENT_FAMILY,
    "skip_validation": STRATEGIES,
}


def _audit_validator(validator, audits: list) -> None:
    """Independently re-verify every validator decision.

    Wraps ``validate_at_rest``/``verify_read`` (after any mutation has
    been applied) and recomputes each verdict with the pristine
    module-level :func:`~repro.storage.validate.verify_payload`.  A
    decision the run's validator approved but the pristine check rejects
    is recorded — that is how a deliberately broken validator is caught
    even though it controls the run's own quarantine path.
    """
    from repro.storage.validate import verify_payload

    orig_at_rest = validator.validate_at_rest
    orig_read = validator.verify_read

    def validate_at_rest(data_path, meta_path):
        result = orig_at_rest(data_path, meta_path)
        obj = validator.store.stat(data_path)
        payload = obj.peek() if obj is not None and obj.complete else None
        pristine = verify_payload(payload, validator.manifest_at(meta_path),
                                  path=data_path)
        if result.ok and not pristine.ok:
            audits.append(f"validator approved corrupt checkpoint "
                          f"{data_path}: {pristine.detail}")
        return result

    def verify_read(payload, meta_path, data_path):
        result = orig_read(payload, meta_path, data_path)
        pristine = verify_payload(payload, validator.manifest_at(meta_path),
                                  path=data_path)
        if result.ok and not pristine.ok:
            audits.append(f"validator approved corrupt read of "
                          f"{data_path}: {pristine.detail}")
        return result

    validator.validate_at_rest = validate_at_rest
    validator.verify_read = verify_read


def _audit_ram(ram, audits: list) -> None:
    """Same pristine re-check for Gemini's buddy-RAM slots."""
    from repro.storage import value_digest

    current = ram.get_validated

    def get_validated(node_name, key):
        entry = current(node_name, key)
        if (entry is not None and entry.digest
                and value_digest(entry.state) != entry.digest):
            audits.append(f"buddy-RAM served corrupt entry {node_name}/{key}")
        return entry

    ram.get_validated = get_validated


# -- transparent family ---------------------------------------------------------------


def _run_transparent_family(strategy: str, spec: WorkloadSpec,
                            schedule: FailureSchedule, iterations: int,
                            mutations: Sequence[str]) -> StrategyRun:
    env = Environment()
    tracer = Tracer()
    store = SharedObjectStore(env, bandwidth=_STORE_BANDWIDTH)
    store.tracer = tracer
    cls = SwiftJitSystem if strategy == "swift" else TransparentJitSystem
    system = cls(env, spec, store=store, config=JitConfig(), tracer=tracer)
    job = system.build_job()
    injector = FailureInjector(env, job.cluster, tracer=tracer)
    injector.attach_store(store)
    minibatch = spec.minibatch_time
    for point in schedule.points:
        injector.arm_at_iteration(point.to_event(0.0, job, minibatch),
                                  job.engines, point.iteration,
                                  offset=point.offset * minibatch)
    for name in mutations:
        MUTATIONS[name](system, job)
    run = StrategyRun(strategy=strategy, losses=[], outcome="ok",
                      rework_bound=rework_bound(strategy, schedule),
                      telemetry=system.telemetry, tracer=tracer,
                      proxies=list(system.proxies), store=store)
    _audit_validator(system.coordinator.registry.validator, run.resume_audits)
    try:
        losses = system.run_training(job, iterations)
    except RuntimeError as exc:
        run.outcome = "unrecoverable"
        run.detail = str(exc)
        _finish(run, env)
        # Close anything the abort left open (recovery episodes included)
        # so report paths see finished spans with aborted marks.
        tracer.close_open_spans(env.now)
        return run
    run.losses = list(losses[0])
    run.completed = True
    _finish(run, env)
    return run


def _finish(run: StrategyRun, env: Environment) -> None:
    """Copy the kernel's end-of-run totals onto *run*."""
    run.events = env.events_processed
    run.events_credited = env._credited
    run.wall_time = env.now


# -- managed family (restart-based runners) -------------------------------------------


def _build_managed_runner(strategy: str, env, spec, store, iterations,
                          tracer):
    from repro.core import (AdaptiveIntervalTuner, GeminiPolicy, GeminiRunner,
                            PeriodicPolicy, PeriodicRunner, UserLevelJitRunner)
    from repro.core.periodic import CheckpointMode

    # Simulated seconds are free; keep the hang detector well clear of
    # worker init/restore costs so it only fires on real failures.
    progress_timeout = max(30.0, 4.0 * spec.minibatch_time)
    if strategy == "user_level":
        return UserLevelJitRunner(env, spec, store, iterations,
                                  config=JitConfig(), tracer=tracer,
                                  progress_timeout=progress_timeout)
    if strategy == "gemini":
        return GeminiRunner(env, spec, iterations, GeminiPolicy(),
                            tracer=tracer, progress_timeout=progress_timeout)
    interval = max(2, iterations // 4)
    make_tuner = None
    if strategy == "adaptive":
        def make_tuner():
            return AdaptiveIntervalTuner(spec.world_size,
                                         failure_rate=1e-5,
                                         warmup_iterations=2,
                                         initial_interval=interval)
    return PeriodicRunner(env, spec, store, iterations,
                          PeriodicPolicy(CheckpointMode.PC_MEM, interval),
                          config=JitConfig(), tracer=tracer,
                          progress_timeout=progress_timeout,
                          make_tuner=make_tuner)


def _guard_garbage_collect(registry, gc_violations: list) -> None:
    """Wrap the registry's GC so deleting the live restore point is caught.

    "Live" is validator-aware: under corruption the protected point is
    the newest iteration every shard can restore *with integrity*, and
    after GC every shard must still hold a valid checkpoint there.
    """
    original = registry.garbage_collect

    def guarded(shard_ids, keep_iterations: int = 2, retention=None):
        live = registry.latest_valid_consistent_iteration(shard_ids)
        removed = original(shard_ids, keep_iterations=keep_iterations,
                           retention=retention)
        if live is not None:
            for shard_id in set(shard_ids):
                if registry.valid_checkpoint_at(shard_id, live) is None:
                    gc_violations.append(
                        f"garbage_collect deleted the live valid checkpoint "
                        f"(iteration {live}, shard {shard_id})")
        return removed

    registry.garbage_collect = guarded


def _record_resume_points(runner, resume_points: dict) -> None:
    """Note the iteration each generation actually resumed from."""
    original = runner._make_restore_fn

    def make_restore_fn(generation, rank, job):
        inner = original(generation, rank, job)
        engine = job.engines[rank]

        def restore(worker):
            if inner is not None:
                yield from inner(worker)
            previous = resume_points.get(generation)
            iteration = engine.iteration
            resume_points[generation] = (iteration if previous is None
                                         else min(previous, iteration))

        return restore

    runner._make_restore_fn = make_restore_fn


def _arm_managed(env, runner, injector, spec, schedule: FailureSchedule):
    """Fire each point once the (current generation's) engines reach it.

    The job is re-created on every restart, so targets are re-resolved and
    iteration progress re-read from ``manager.current_job`` each wait
    round; engines expose iteration-reached conditions, with a
    minibatch-scale timeout as the cross-generation fallback.
    """
    minibatch = spec.minibatch_time

    def armer():
        for point in schedule.points:
            while True:
                job = runner.manager.current_job
                if job is None:
                    yield env.timeout(minibatch)
                    continue
                lagging = [e for e in job.engines
                           if e.iteration < point.iteration]
                if not lagging:
                    break
                waits = [e.iteration_reached(point.iteration)
                         for e in lagging]
                yield env.any_of(waits + [env.timeout(max(minibatch, 0.05))])
            if point.offset:
                yield env.timeout(point.offset * minibatch)
            job = runner.manager.current_job
            injector.apply(point.to_event(env.now, job, minibatch))
            if (point.type is FailureType.NETWORK_TRANSIENT
                    and point.duration):
                yield env.timeout(point.duration * minibatch)
                target = point.resolve_target(job)
                injector.cluster.fabric.uplink(target).repair()

    env.process(armer(), name="oracle-armer")


def _run_managed(strategy: str, spec: WorkloadSpec,
                 schedule: FailureSchedule, iterations: int,
                 mutations: Sequence[str]) -> StrategyRun:
    env = Environment()
    tracer = Tracer()
    store = SharedObjectStore(env, bandwidth=_STORE_BANDWIDTH)
    store.tracer = tracer
    runner = _build_managed_runner(strategy, env, spec, store, iterations,
                                   tracer)
    for name in mutations:
        MUTATIONS[name](runner)
    run = StrategyRun(strategy=strategy, losses=[], outcome="ok",
                      rework_bound=rework_bound(strategy, schedule),
                      telemetry=getattr(runner, "telemetry", None),
                      tracer=tracer, store=store,
                      ram=getattr(runner, "ram", None))
    registry = getattr(runner, "registry", None)
    if registry is not None:
        _guard_garbage_collect(registry, run.gc_violations)
        _audit_validator(registry.validator, run.resume_audits)
    if run.ram is not None:
        _audit_ram(run.ram, run.resume_audits)
    _record_resume_points(runner, run.resume_points)
    injector = FailureInjector(env, runner.manager.cluster, tracer=tracer)
    injector.attach_store(store)
    if run.ram is not None:
        injector.attach_store(run.ram)
    _arm_managed(env, runner, injector, spec, schedule)
    report = runner.execute()
    run.losses = list(report.final_losses)
    run.completed = report.completed
    run.generations = list(report.generations)
    _finish(run, env)
    if not report.completed:
        run.outcome = "unrecoverable"
        run.detail = (report.generations[-1].detail
                      if report.generations else "did not complete")
        tracer.close_open_spans(env.now)
    return run


# -- entry point ----------------------------------------------------------------------


def run_strategy(strategy: str, spec: WorkloadSpec,
                 schedule: FailureSchedule, iterations: int,
                 mutations: Sequence[str] = ()) -> StrategyRun:
    """Run *schedule* under *strategy* and collect oracle evidence."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; "
                         f"choose from {STRATEGIES}")
    unknown = [m for m in mutations if m not in MUTATIONS]
    if unknown:
        raise ValueError(f"unknown mutations {unknown}; "
                         f"choose from {sorted(MUTATIONS)}")
    for name in mutations:
        if strategy not in MUTATION_FAMILIES[name]:
            raise ValueError(
                f"mutation {name!r} does not apply to strategy {strategy!r} "
                f"(families: {MUTATION_FAMILIES[name]})")
    variant = spec_variant(spec, strategy)
    if strategy in TRANSPARENT_FAMILY:
        return _run_transparent_family(strategy, variant, schedule,
                                       iterations, mutations)
    return _run_managed(strategy, variant, schedule, iterations, mutations)

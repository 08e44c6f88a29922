"""Fast-path/slow-path trace equivalence and ops-off tracing.

The macro-event fast path now runs even under an enabled tracer: chains
back-fill per-op ``op_done`` records at settlement and emit one
``macro_chain`` record carrying the coalesced count.  Per-op records
must be identical to eager (slow-path) execution; the chain records are
the only addition.

Replica followers run under tracing too: a leader's streams write each
rider's records, so a traced run records the same multiset with dedup
on as with it off.

The records the Chrome export shows are held to the simulator's own
counters: store records to the store's ``stats``, failure records to
the injector, and each ``collective_launch`` to its participants.
"""

import re
from collections import Counter

import numpy as np
import pytest

from repro import flags
from repro.cuda.runtime import CudaContext
from repro.framework.dedup import ReplicaArena
from repro.obs import build_strategy_ledger
from repro.oracle import STRATEGIES, RecoveryOracle, default_oracle_spec
from repro.oracle import strategies as strategies_mod
from repro.oracle.schedule import FailurePoint, FailureSchedule
from repro.oracle.strategies import run_strategy
from repro.parallel.topology import ParallelLayout
from repro.sim import Tracer
from repro.workloads import TrainingJob
from tests.conftest import make_spec

#: Collective rendezvous are themselves batched by the fast path
#: (``all_reduce`` -> ``all_reduce_batch[N]``), so their op identities
#: legitimately differ between modes; everything else must match 1:1.
_COLLECTIVE = re.compile(
    r"all_reduce|all_gather|reduce_scatter|broadcast|all_to_all")
_BATCH = re.compile(r"_batch\[(\d+)\]")
#: Context ids are a process-global counter, so two jobs in one process
#: never share them; strip for cross-run comparison.
_CTX = re.compile(r"ctx\d+")


def _traced_run(fast: bool, iterations: int = 3):
    with flags.override(fast_path=fast):
        tracer = Tracer(enabled=True)
        job = TrainingJob(make_spec(layout=ParallelLayout(dp=2)),
                          tracer=tracer)
        losses = job.run_training(iterations)
    return losses, tracer


def _op_key(event):
    return (event.time, _CTX.sub("ctx", event.actor),
            _CTX.sub("ctx", str(event.detail.get("op"))),
            event.detail.get("started"))


def test_fast_and_slow_paths_trace_identically():
    losses_fast, fast = _traced_run(True)
    losses_slow, slow = _traced_run(False)
    np.testing.assert_array_equal(np.asarray(losses_fast[0]),
                                  np.asarray(losses_slow[0]))
    # Per-op records: same ops, same timestamps, same start times.
    fast_ops = sorted(_op_key(e) for e in fast.filter(action="op_done")
                      if not _COLLECTIVE.search(str(e.detail.get("op"))))
    slow_ops = sorted(_op_key(e) for e in slow.filter(action="op_done")
                      if not _COLLECTIVE.search(str(e.detail.get("op"))))
    assert fast_ops == slow_ops
    # Batched collectives cover exactly the eager-mode collective count.
    fast_cover = sum(
        int(match.group(1)) if (match := _BATCH.search(op)) else 1
        for op in (str(e.detail.get("op"))
                   for e in fast.filter(action="op_done"))
        if _COLLECTIVE.search(op))
    slow_count = sum(1 for e in slow.filter(action="op_done")
                     if _COLLECTIVE.search(str(e.detail.get("op"))))
    assert fast_cover == slow_count
    # Iteration spans are identical either way.
    assert (fast.filter_spans(name="iteration")
            == slow.filter_spans(name="iteration"))


def test_macro_chain_records_carry_coalesced_count():
    _losses, fast = _traced_run(True)
    chains = fast.filter(action="macro_chain")
    assert chains, "fast path under tracing must emit chain records"
    for chain in chains:
        assert chain.detail["ops"] > 1
        assert chain.detail["started"] <= chain.time
    _losses, slow = _traced_run(False)
    assert not slow.filter(action="macro_chain")


def test_per_actor_op_order_is_preserved_under_chaining():
    """Figure-3 style consumers read per-actor op streams in time order."""
    _losses, fast = _traced_run(True)
    actors = {e.actor for e in fast.filter(action="op_done")}
    for actor in actors:
        times = [e.time for e in fast.filter(actor=actor, action="op_done")]
        assert times == sorted(times)


def test_ops_off_tracer_keeps_spans_and_store_records():
    """A tracer with ``ops`` off skips only the per-op records: the
    iteration spans the goodput ledger classifies and the store records
    are taken either way."""
    spec = default_oracle_spec()
    run = run_strategy("periodic", spec, FailureSchedule(()), 10,
                       trace_ops=False)
    tracer = run.tracer
    assert len(tracer.filter_spans(name="iteration")) \
        == 10 * spec.world_size
    assert tracer.filter(action="store_write")
    assert tracer.filter(action="store_commit")
    for action in ("op_done", "macro_chain", "collective_launch"):
        assert not tracer.filter(action=action), action


# -- replica followers under tracing -----------------------------------------------

#: Restart-based strategies whose DDP jobs follow (see repro.framework.dedup).
_FOLLOWING = ("user_level", "periodic", "gemini")
_CTX_ID = re.compile(r"ctx(\d+):")


def _follower_schedules():
    fuzzer = RecoveryOracle(iterations=10).fuzzer(11)
    return [FailureSchedule(())] + [fuzzer.draw() for _ in range(3)]


def _by_value(value, ranks: dict):
    """*value* with context ids renamed to ranks, hashable, compared by value."""
    if isinstance(value, str):
        return _CTX_ID.sub(lambda m: f"{ranks[int(m.group(1))]}:", value)
    if isinstance(value, dict):
        return tuple(sorted((_by_value(k, ranks), _by_value(v, ranks))
                            for k, v in value.items()))
    if isinstance(value, (list, tuple, set, frozenset)):
        return tuple(_by_value(v, ranks) for v in value)
    return value


def _traced_records(strategy: str, schedule, dedup: bool, monkeypatch):
    """The run's trace as a multiset, plus the ``(iteration, rank)`` joins."""
    spec = default_oracle_spec()
    created, joins = [], []
    init, join = CudaContext.__init__, ReplicaArena._join

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        created.append(self.context_id)

    def counting_join(self, follower, batch):
        joins.append((batch.iteration, follower.rank))
        join(self, follower, batch)

    monkeypatch.setattr(CudaContext, "__init__", counting_init)
    monkeypatch.setattr(ReplicaArena, "_join", counting_join)
    with flags.override(dedup=dedup):
        run = run_strategy(strategy, spec, schedule, 10)
    monkeypatch.undo()
    # Every generation builds one context per rank, in rank order.
    world = spec.world_size
    ranks = {ctx: f"gen{index // world}.rank{index % world}"
             for index, ctx in enumerate(created)}
    records = Counter(
        (event.time, _by_value(event.actor, ranks), event.action,
         _by_value(event.detail, ranks)) for event in run.tracer.events)
    records.update(
        (span.start, span.end, _by_value(span.actor, ranks), span.name,
         span.depth, _by_value(span.detail, ranks))
        for span in run.tracer.spans)
    return run, records, joins


@pytest.mark.parametrize("strategy", _FOLLOWING)
@pytest.mark.parametrize("draw", range(4))
def test_traced_followers_record_what_private_ranks_record(strategy, draw,
                                                           monkeypatch):
    schedule = _follower_schedules()[draw]
    on, records_on, joins = _traced_records(strategy, schedule, True,
                                            monkeypatch)
    off, records_off, _ = _traced_records(strategy, schedule, False,
                                          monkeypatch)
    assert on.losses == off.losses and on.events == off.events
    assert sum(records_on.values()) == sum(records_off.values())
    assert records_on == records_off
    if not schedule.points:
        # Followers engage: at least two ranks ride every iteration (under
        # periodic, rank 0 stalls to checkpoint and another rank leads).
        riders = {iteration: set() for iteration in range(10)}
        for iteration, rank in joins:
            riders[iteration].add(rank)
        assert all(len(ranks) >= 2 for ranks in riders.values()), riders


# -- recovery under the fast path ---------------------------------------------------

#: Rank 3's GPU dies inside a forward kernel that a macro chain covers:
#: the fast path used to record the hang at the chain's end, and to
#: charge replay one call per batched all-reduce instead of one per bucket.
_MID_CHAIN = FailureSchedule(points=(
    FailurePoint(7, "GPU_HARD", 3, offset=1.30),))


def _control_records(strategy: str, fast: bool):
    """Control records (context ids stripped) and the goodput buckets."""
    spec = default_oracle_spec()
    with flags.override(fast_path=fast):
        run = run_strategy(strategy, spec, _MID_CHAIN, 20, trace_ops=False)
    ledger = build_strategy_ledger(run, spec.world_size)
    records = [_CTX.sub("ctx", str(item))
               for item in run.tracer.events + run.tracer.spans]
    return records, ledger.buckets


@pytest.mark.parametrize("strategy", ["transparent", "swift"])
def test_fast_path_recovers_with_the_same_records_and_buckets(strategy):
    fast_records, fast_buckets = _control_records(strategy, True)
    slow_records, slow_buckets = _control_records(strategy, False)
    assert fast_records == slow_records
    assert fast_buckets == slow_buckets
    hang = next(r for r in fast_records if "stream_hang" in r)
    assert hang.startswith("[    1.841099]")


# -- trace records against the simulator's own counters ----------------------------

#: A hard failure mid-run plus a sticky one two iterations later on
#: another rank (``test_ledger.py``'s ``multi`` schedule): detection,
#: restart, rework and storage traffic for every strategy family.
MULTI = FailureSchedule(points=(
    FailurePoint(4, "GPU_HARD", 1, offset=0.3),
    FailurePoint(6, "GPU_STICKY", 2, offset=0.8),))


@pytest.fixture(scope="module", params=sorted(STRATEGIES))
def multi_run(request):
    """One fully traced run on ``MULTI``, with its failure injector kept."""
    injectors = []

    class Keeping(strategies_mod.FailureInjector):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            injectors.append(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(strategies_mod, "FailureInjector", Keeping)
        run = RecoveryOracle(iterations=12).run(MULTI, request.param)
    return run, injectors[-1]


def test_store_records_match_store_stats(multi_run):
    run, _ = multi_run
    stats = run.store.stats     # gemini keeps its checkpoints in peer RAM
    for action, stat in (("store_write", "writes_completed"),
                         ("store_commit", "renames"),
                         ("store_quarantine", "quarantined")):
        assert len(run.tracer.filter(action=action)) == stats[stat], action


def test_failure_records_match_injector(multi_run):
    run, injector = multi_run
    assert len(injector.injected) == len(MULTI.points)
    assert len(run.tracer.filter(actor="injector", action="failure")) \
        == len(injector.injected)


def test_every_collective_launch_carries_one_wait_per_rank(multi_run):
    run, _ = multi_run
    launches = run.tracer.filter(action="collective_launch")
    assert launches
    world = default_oracle_spec().world_size
    for event in launches:
        waits = event.detail["waits"]
        assert sorted(waits) == list(range(world)), event
        assert all(wait >= 0 for wait in waits.values()), event

"""Fast-path/slow-path trace equivalence and the zero-cost-off switch.

The macro-event fast path now runs even under an enabled tracer: chains
back-fill per-op ``op_done`` records at settlement and emit one
``macro_chain`` record carrying the coalesced count.  Per-op records
must be identical to eager (slow-path) execution; the chain records are
the only addition.
"""

import re

import numpy as np

from repro import flags
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


def test_observability_off_skips_span_recording():
    with flags.override(obs=False):
        assert not flags.obs
        tracer = Tracer(enabled=True)
        job = TrainingJob(make_spec(layout=ParallelLayout(dp=2)),
                          tracer=tracer)
        job.run_training(2)
    assert tracer.filter_spans(name="iteration") == []
    # Point events (op_done etc.) still flow: the flag gates only the
    # observability layer's extra recording, not the legacy tracer.
    assert tracer.filter(action="op_done")


def test_observability_flag_restores():
    before = flags.obs
    with flags.override(obs=not before):
        assert flags.obs is (not before)
    assert flags.obs is before

"""Recovery-equivalence invariants checked after every oracle run.

Each checker takes a completed :class:`~repro.oracle.strategies.StrategyRun`
(and, for exactness, the golden failure-free loss stream) and returns a
list of :class:`Violation`.  The catalogue:

``exactness``
    The recovered run's loss stream, and then each rank's final training
    state (parameters, optimizer moments and step count, scheduler, RNG
    state and data cursor), are *bitwise* identical to a failure-free run
    of the same workload — the paper's semantics-preservation claim.  A
    loss stream alone cannot show state that no later loss reads.
``bounded_rework``
    JIT paths replay at most one minibatch per recovery (Section 2's
    motivation: periodic checkpointing wastes up to a full interval).
``no_double_resume``
    Recovery episodes strictly alternate trigger/done in the trace — a
    second failure during recovery must fold into the live episode, never
    start a concurrent one.
``replay_log_reset``
    After training ends, every surviving replay-log record belongs to the
    current minibatch — stale records from before a reset would replay
    the wrong work on the next failure.
``virtual_handles``
    Every persistent virtual buffer is live, bound to physical memory,
    and its physical buffer aliases the virtual array (the Section 4.1
    handle-table consistency requirement).
``gc_live_checkpoint``
    The checkpoint-store garbage collector never deleted the newest
    consistent restore point (collected as the run executes, reported
    here) — under corruption, the newest *valid* consistent restore
    point.
``resume_target_validates``
    Every checkpoint the run's validator approved at a resume or read
    decision also passes an independent pristine re-verification
    (collected as the run executes) — a deliberately broken validator
    cannot hide corruption from the oracle.
``quarantine_append_only``
    Quarantined (condemned) checkpoint objects are never deleted,
    renamed, overwritten or re-corrupted, and every quarantined object
    is still present at the end of the run — the forensic record
    survives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.framework.dedup import same_bits


@dataclass(frozen=True)
class Violation:
    """One invariant breach, with enough detail to debug from the report."""

    invariant: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.invariant}] {self.detail}"


def _same_state(got, want) -> bool:
    """Bitwise equality of two state values: arrays, floats (``-0.0``
    differs from ``0.0``), dicts of them, or anything ``==`` compares."""
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(_same_state(got[key], want[key]) for key in want))
    if isinstance(want, np.ndarray):
        return isinstance(got, np.ndarray) and same_bits(got, want)
    if isinstance(want, float):
        return isinstance(got, float) and got.hex() == want.hex()
    return got == want


def check_exactness(run, golden: list[float],
                    golden_state: list[dict]) -> list[Violation]:
    """Losses against *golden*, then each rank's final state against
    *golden_state* (see ``strategies.final_state``)."""
    if run.outcome != "ok":
        return [Violation("exactness",
                          f"run did not complete: {run.detail or run.outcome}")]
    if len(run.losses) != len(golden):
        return [Violation(
            "exactness",
            f"loss stream length {len(run.losses)} != golden {len(golden)}")]
    for i, (got, want) in enumerate(zip(run.losses, golden)):
        if got != want:
            return [Violation(
                "exactness",
                f"loss diverges at iteration {i}: {got!r} != {want!r}")]
    if len(run.final_state) != len(golden_state):
        return [Violation(
            "exactness", f"final state of {len(run.final_state)} ranks "
            f"!= golden {len(golden_state)}")]
    for rank, (state, want) in enumerate(zip(run.final_state, golden_state)):
        for name, value in want.items():
            if name not in state or not _same_state(state[name], value):
                return [Violation(
                    "exactness",
                    f"final state diverges at rank {rank}, {name}")]
    return []


def check_bounded_rework(run) -> list[Violation]:
    bound = run.rework_bound
    if bound is None:
        return []
    violations = []
    if run.telemetry is not None:
        # Transparent-family: every recovery record notes the minibatch it
        # interrupted and the parameter version it recovered from.
        for record in run.telemetry.records:
            minibatch = record.notes.get("minibatch")
            base = record.notes.get("base_version")
            if minibatch is None or base is None:
                continue
            rework = minibatch - base
            if rework > bound:
                violations.append(Violation(
                    "bounded_rework",
                    f"{record.kind} recovery replayed {rework} minibatches "
                    f"(minibatch {minibatch}, base {base}, bound {bound})"))
    for generation, resumed_at in sorted(run.resume_points.items()):
        if generation == 0 or resumed_at is None:
            continue
        prior = next((g for g in run.generations
                      if g.generation == generation - 1), None)
        if prior is None:
            continue
        rework = prior.iterations_at_end - resumed_at
        if rework > bound:
            violations.append(Violation(
                "bounded_rework",
                f"generation {generation} resumed at iteration {resumed_at} "
                f"but generation {generation - 1} reached "
                f"{prior.iterations_at_end} (rework {rework} > {bound})"))
    return violations


def check_no_double_resume(run) -> list[Violation]:
    episodes = [e for e in run.tracer.filter(actor="recovery")
                if e.action in ("trigger", "done")]
    violations = []
    open_trigger = None
    for event in episodes:
        if event.action == "trigger":
            if open_trigger is not None:
                violations.append(Violation(
                    "no_double_resume",
                    f"recovery triggered at t={event.time:.4f} while the "
                    f"episode from t={open_trigger:.4f} was still open"))
            open_trigger = event.time
        else:
            if open_trigger is None:
                violations.append(Violation(
                    "no_double_resume",
                    f"recovery 'done' at t={event.time:.4f} with no open "
                    f"episode"))
            open_trigger = None
    if open_trigger is not None:
        violations.append(Violation(
            "no_double_resume",
            f"recovery episode from t={open_trigger:.4f} never completed"))
    return violations


def check_replay_log_reset(run) -> list[Violation]:
    violations = []
    for proxy in run.proxies:
        log = proxy.log
        stale = [r for r in log.records if r.minibatch != log.current_minibatch]
        if stale:
            violations.append(Violation(
                "replay_log_reset",
                f"rank {proxy.rank}: {len(stale)} stale replay records from "
                f"minibatch {stale[0].minibatch} survive into minibatch "
                f"{log.current_minibatch}"))
    return violations


def check_virtual_handles(run) -> list[Violation]:
    violations = []
    for proxy in run.proxies:
        for vbuf in proxy.persistent_buffers():
            if vbuf.freed:
                violations.append(Violation(
                    "virtual_handles",
                    f"rank {proxy.rank}: persistent buffer {vbuf.label!r} "
                    f"is marked freed"))
            elif vbuf.physical is None:
                violations.append(Violation(
                    "virtual_handles",
                    f"rank {proxy.rank}: persistent buffer {vbuf.label!r} "
                    f"has no physical backing"))
            elif vbuf.physical.array is not vbuf.array:
                violations.append(Violation(
                    "virtual_handles",
                    f"rank {proxy.rank}: persistent buffer {vbuf.label!r} "
                    f"physical memory does not alias the virtual array"))
    return violations


def check_gc_live_checkpoint(run) -> list[Violation]:
    return [Violation("gc_live_checkpoint", detail)
            for detail in run.gc_violations]


def check_resume_target_validates(run) -> list[Violation]:
    return [Violation("resume_target_validates", detail)
            for detail in getattr(run, "resume_audits", ())]


def check_quarantine_append_only(run) -> list[Violation]:
    violations = []
    store = getattr(run, "store", None)
    if store is not None:
        for breach in getattr(store, "quarantine_violations", ()):
            violations.append(Violation(
                "quarantine_append_only",
                f"attempted mutation of quarantined object: {breach}"))
        for qpath in getattr(store, "quarantine_log", ()):
            if store.stat(qpath) is None:
                violations.append(Violation(
                    "quarantine_append_only",
                    f"quarantined object {qpath} disappeared"))
    return violations


def check_all(run, golden: list[float],
              golden_state: list[dict]) -> list[Violation]:
    """The full catalogue against one run."""
    violations = list(check_exactness(run, golden, golden_state))
    violations += check_bounded_rework(run)
    violations += check_no_double_resume(run)
    violations += check_replay_log_reset(run)
    violations += check_virtual_handles(run)
    violations += check_gc_live_checkpoint(run)
    violations += check_resume_target_validates(run)
    violations += check_quarantine_append_only(run)
    return violations

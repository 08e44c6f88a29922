"""Applies scheduled failures to cluster hardware at simulation time."""

from __future__ import annotations

from typing import Iterable

from repro.failures.types import FailureEvent, FailureType
from repro.hardware.cluster import Cluster
from repro.hardware.gpu import GpuHealth
from repro.hardware.network import LinkHealth
from repro.sim import Environment


class FailureInjector:
    """Drives a schedule of :class:`FailureEvent`s against a cluster."""

    def __init__(self, env: Environment, cluster: Cluster):
        self.env = env
        self.cluster = cluster
        self.injected: list[FailureEvent] = []
        #: Events whose target left the cluster before they fired (e.g.
        #: the node was swapped out for a spare after an earlier failure).
        self.skipped: list[FailureEvent] = []
        #: Checkpoint stores storage failures (TORN_WRITE / BIT_ROT) hit.
        self.stores: list = []
        self._rot_salt = 0

    def attach_store(self, store) -> None:
        """Register a checkpoint store as a storage-failure target."""
        if store not in self.stores:
            self.stores.append(store)

    def arm(self, events: Iterable[FailureEvent]) -> None:
        """Schedule every event (each runs as its own tiny process)."""
        for event in sorted(events, key=lambda e: e.time):
            self.env.process(self._fire(event), name=f"inject:{event.target}")

    def arm_at_iteration(self, event: FailureEvent, engines,
                         iteration: int, offset: float = 0.0,
                         poll: float = 0.05) -> None:
        """Fire *event* once every engine reaches *iteration*.

        Benchmarks use this to land failures at a precise point in
        training regardless of setup/restore durations.  ``offset`` adds a
        delay after the iteration is reached (to hit a specific phase
        within the minibatch).

        Waits on each engine's iteration-reached condition rather than
        polling the clock, so dense campaigns cost O(engines) simulator
        events per armed failure regardless of how far away the target
        iteration is.  ``poll`` is kept for backwards compatibility and
        only used for engines without :meth:`iteration_reached`.
        """
        def waiter():
            while True:
                lagging = [e for e in engines if e.iteration < iteration]
                if not lagging:
                    break
                if all(hasattr(e, "iteration_reached") for e in lagging):
                    yield self.env.all_of(
                        [e.iteration_reached(iteration) for e in lagging])
                else:  # engines predating iteration conditions
                    yield self.env.timeout(poll)
            # Settle the boundary instant: the iteration counter advances
            # in the middle of a cascade of same-timestamp events (optimizer
            # completion, next-minibatch enqueue).  A zero-delay reschedule
            # lands the failure after that cascade — inside the target
            # minibatch, like the old clock-polling waiter — instead of
            # racing it on tie-break order.
            yield self.env.timeout(offset)
            self.apply(FailureEvent(self.env.now, event.failure_type,
                                    event.target, event.duration))
            if (event.failure_type is FailureType.NETWORK_TRANSIENT
                    and event.duration):
                yield self.env.timeout(event.duration)
                self.cluster.fabric.uplink(event.target).repair()

        self.env.process(waiter(), name=f"inject-at-iter:{event.target}")

    def _fire(self, event: FailureEvent):
        if event.time > self.env.now:
            # Absolute scheduling: when armed at t=0 this lands on the same
            # float as the historical ``timeout(event.time - now)``, and it
            # keeps late arming exact — a prefix-fork child arms schedules
            # mid-run and must hit the same instant a from-scratch run does.
            yield self.env.timeout_at(event.time)
        self.apply(event)
        if (event.failure_type is FailureType.NETWORK_TRANSIENT
                and event.duration):
            yield self.env.timeout(event.duration)
            self.cluster.fabric.uplink(event.target).repair()
            self.env.tracer.record(self.env.now, "injector", "link_recovered",
                                   target=event.target)

    def apply(self, event: FailureEvent) -> None:
        """Apply a failure immediately (used directly by targeted tests).

        Campaign schedules are drawn against the launch topology; if the
        targeted device was since retired (node swapped for a spare), the
        event hits hardware outside the job and is skipped.
        """
        try:
            self._apply(event)
        except KeyError:
            self.skipped.append(event)
            self.env.tracer.record(self.env.now, "injector", "skipped_failure",
                                   target=event.target)

    def _apply(self, event: FailureEvent) -> None:
        kind = event.failure_type
        if kind is FailureType.GPU_HARD:
            self.cluster.gpu_by_id(event.target).fail(GpuHealth.DEAD)
        elif kind is FailureType.GPU_STICKY:
            self.cluster.gpu_by_id(event.target).fail(GpuHealth.STICKY_ERROR)
        elif kind is FailureType.GPU_DRIVER_CORRUPT:
            self.cluster.gpu_by_id(event.target).fail(GpuHealth.DRIVER_CORRUPT)
        elif kind is FailureType.NETWORK_TRANSIENT:
            self.cluster.fabric.uplink(event.target).fail(LinkHealth.DEGRADED)
        elif kind is FailureType.TORN_WRITE:
            if not self.stores:
                raise KeyError("no store attached for torn_write")
            for store in self.stores:
                store.arm_torn_write(event.target)
        elif kind is FailureType.BIT_ROT:
            if not self.stores:
                raise KeyError("no store attached for bit_rot")
            self._rot_salt += 1
            for store in self.stores:
                store.inject_bit_rot(event.target, salt=self._rot_salt)
        elif kind is FailureType.NODE_CRASH:
            for node in self.cluster.nodes:
                if node.name == event.target:
                    node.kill()
                    break
            else:
                raise KeyError(f"no active node named {event.target!r}")
        else:  # pragma: no cover
            raise ValueError(f"unhandled failure type {kind}")
        self.injected.append(event)
        self.env.tracer.record(self.env.now, "injector", "failure",
                               kind=kind.value, target=event.target)

"""Structured tracing of simulation runs.

Benchmarks reconstruct paper figures (e.g. Figure 3's compute/communication
overlap schedule) from these traces, and tests assert ordering invariants
on them.

Two record kinds coexist:

* :class:`TraceEvent` — a point record (``record``): at `time`, `actor`
  did `action`.  The original API; the stream executor, failure injector
  and recovery coordinator all emit these.
* :class:`TraceSpan` — an interval record (``begin_span``/``end_span``):
  `actor` spent `[start, end]` doing `name`.  Spans of the same actor
  nest (``depth`` is the open-span stack depth at begin time), giving the
  iteration and recovery-episode → recovery-phase hierarchies that
  `repro.obs.chrome` exports as a Chrome trace-event timeline and
  `repro.obs.ledger` classifies into goodput buckets.

A run that aborts mid-recovery leaves spans open; ``close_open_spans``
closes them at dump time with an ``aborted=True`` detail instead of
letting the report path crash.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Optional


@dataclass(frozen=True)
class TraceEvent:
    """One record: at `time`, `actor` did `action` (with free-form detail)."""

    time: float
    actor: str
    action: str
    detail: dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        extras = " ".join(f"{key}={value}" for key, value in sorted(self.detail.items()))
        return f"[{self.time:12.6f}] {self.actor:<28} {self.action} {extras}".rstrip()


@dataclass(frozen=True)
class TraceSpan:
    """One interval record: `actor` spent `[start, end]` doing `name`."""

    actor: str
    name: str
    start: float
    end: float
    #: Open-span stack depth of this actor at begin time (0 = top level);
    #: hierarchy is by nesting, no parent pointers needed.
    depth: int = 0
    detail: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def __str__(self) -> str:
        extras = " ".join(f"{key}={value}" for key, value in sorted(self.detail.items()))
        indent = "  " * self.depth
        return (f"[{self.start:12.6f}..{self.end:12.6f}] {self.actor:<22} "
                f"{indent}{self.name} {extras}").rstrip()


class _OpenSpan:
    """Handle returned by ``begin_span``; mutable until ``end_span``.

    ``closed`` is the finished :class:`TraceSpan` once the handle has been
    closed (by ``end_span`` or ``close_open_spans``), else None.
    """

    __slots__ = ("actor", "name", "start", "depth", "detail", "closed")

    def __init__(self, actor: str, name: str, start: float, depth: int,
                 detail: dict[str, Any]):
        self.actor = actor
        self.name = name
        self.start = start
        self.depth = depth
        self.detail = detail
        self.closed: Optional[TraceSpan] = None


class Tracer:
    """Collects :class:`TraceEvent` and :class:`TraceSpan` records in order."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._events: list[TraceEvent] = []
        self._spans: list[TraceSpan] = []
        self._open: dict[str, list[_OpenSpan]] = {}

    def record(self, time: float, actor: str, action: str, **detail: Any) -> None:
        if self.enabled:
            self._events.append(TraceEvent(time, actor, action, detail))

    # -- spans -------------------------------------------------------------------

    def begin_span(self, time: float, actor: str, name: str,
                   **detail: Any) -> Optional[_OpenSpan]:
        """Open a span; returns a handle for ``end_span`` (None if disabled)."""
        if not self.enabled:
            return None
        stack = self._open.setdefault(actor, [])
        span = _OpenSpan(actor, name, time, len(stack), detail)
        stack.append(span)
        return span

    def end_span(self, handle: Optional[_OpenSpan], time: float,
                 **detail: Any) -> Optional[TraceSpan]:
        """Close *handle*; records (and returns) the finished span.

        Closing a span closes any younger spans its actor left open (they
        inherit this end time), so a hook that misses an inner end cannot
        corrupt the stack.
        """
        if handle is None:
            return None
        stack = self._open.get(handle.actor, [])
        if handle not in stack:
            return None    # already closed (e.g. by close_open_spans)
        while stack:
            inner = stack.pop()
            extra = dict(inner.detail)
            if inner is handle:
                extra.update(detail)
            inner.closed = TraceSpan(inner.actor, inner.name, inner.start,
                                     time, inner.depth, extra)
            self._spans.append(inner.closed)
            if inner is handle:
                break
        return handle.closed

    def close_open_spans(self, time: float) -> list[TraceSpan]:
        """Close every still-open span at *time* with ``aborted=True``.

        Called at dump time when a run died mid-span (e.g. an
        unrecoverable failure during recovery), so reports and exports
        see finished spans instead of crashing on open ones.
        """
        closed = []
        for actor in sorted(self._open):
            stack = self._open[actor]
            while stack:
                inner = stack.pop()
                detail = dict(inner.detail)
                detail["aborted"] = True
                inner.closed = TraceSpan(inner.actor, inner.name, inner.start,
                                         max(time, inner.start), inner.depth,
                                         detail)
                self._spans.append(inner.closed)
                closed.append(inner.closed)
        return closed

    @property
    def spans(self) -> list[TraceSpan]:
        return list(self._spans)

    def filter_spans(self, actor: str | None = None,
                     name: str | None = None) -> list[TraceSpan]:
        return [
            span
            for span in self._spans
            if (actor is None or span.actor == actor)
            and (name is None or span.name == name)
        ]

    # -- events ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    def __bool__(self) -> bool:
        """An empty tracer is still a tracer (guards ``tracer or ...``)."""
        return True

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    @property
    def events(self) -> list[TraceEvent]:
        return list(self._events)

    def filter(self, actor: str | None = None, action: str | None = None) -> list[TraceEvent]:
        return [
            event
            for event in self._events
            if (actor is None or event.actor == actor)
            and (action is None or event.action == action)
        ]

    def clear(self) -> None:
        self._events.clear()
        self._spans.clear()
        self._open.clear()

    def render(self, limit: int | None = None) -> str:
        events = self._events if limit is None else self._events[:limit]
        return "\n".join(str(event) for event in events)

"""Device-API replay log (Section 4.1 of the paper).

In steady state the device proxy logs every device API with its inputs;
the log is cleared at the start of each minibatch.  During recovery the
log is re-issued to bring the device back to the point where the error
happened; during validation it is re-executed in place to prove the log
captures every input the device computation depends on.

A rank that rides a data-parallel replica's timeline instead of issuing
its own calls (:mod:`repro.framework.dedup` followers) logs one
:class:`LazyRecords` entry per ridden batch, and one for the frees of a
ridden batch's buffers.  Each counts the calls it stands for as logged
when it is appended.  Reading the log (``records`` /
``previous_records``) expands each entry, in place, into the records the
rank's own calls would have logged.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np


class Phase(enum.Enum):
    FORWARD_BACKWARD = "forward_backward"
    OPTIMIZER = "optimizer"
    #: Between optimizer end and next minibatch begin.
    POST_OPTIMIZER = "post_optimizer"


@dataclass(frozen=True, slots=True)
class ZeroFill:
    """Snapshot stand-in for an all-zero allocation.

    Freshly malloc'd training buffers (gradients, comm scratch) are almost
    always zero-initialised; storing shape/dtype instead of a deep copy
    keeps the replay log's memory footprint proportional to the number of
    *non-trivial* allocations.
    """

    shape: tuple
    dtype: np.dtype


def snapshot_contents(array: np.ndarray) -> "np.ndarray | ZeroFill":
    """Capture what replay needs to re-initialise *array* exactly."""
    if not array.any():
        return ZeroFill(array.shape, array.dtype)
    return array.copy()


def restore_contents(array: np.ndarray, snapshot: "np.ndarray | ZeroFill") -> None:
    """Re-initialise *array* in place from a :func:`snapshot_contents`."""
    if type(snapshot) is ZeroFill:
        array[...] = 0
    else:
        array[...] = snapshot


@dataclass(slots=True)
class ApiRecord:
    """One logged device API call."""

    method: str                     # e.g. "launch_kernel", "malloc"
    args: tuple = ()
    phase: Phase = Phase.FORWARD_BACKWARD
    minibatch: int = -1
    #: malloc only: snapshot of the initial contents (deep copy, or a
    #: :class:`ZeroFill` marker for zero-initialised buffers), so replay
    #: can re-initialise the (reused) array exactly.
    initial_contents: "Optional[np.ndarray | ZeroFill]" = None
    #: The virtual handle the original call returned (malloc/create_*).
    produced: Any = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ApiRecord {self.method} mb{self.minibatch} {self.phase.value}>"


@dataclass(slots=True)
class LazyRecords:
    """Log entry standing for records built only when the log is read."""

    #: Returns the records, each with its phase and minibatch set.
    expand: Callable[[], list[ApiRecord]]


def _expanded(records: list) -> list:
    """Expand *records*' :class:`LazyRecords` entries in place."""
    if any(type(record) is LazyRecords for record in records):
        records[:] = [item for record in records
                      for item in (record.expand()
                                   if type(record) is LazyRecords
                                   else (record,))]
    return records


class ReplayLog:
    """Per-minibatch API log plus the persistent creation log."""

    def __init__(self) -> None:
        #: Replaced at every minibatch start.
        self._records: list = []
        #: The previous minibatch's records, retained until the next
        #: minibatch start.  Needed when a failure freezes a rank whose
        #: device had not yet executed the previous iteration's (already
        #: enqueued) optimizer step: recovery re-executes those optimizer
        #: records from the retained averaged gradients to reach the
        #: version the CPU already advanced to.
        self._previous: list = []
        #: GPU objects (streams/events/communicator inits) created outside
        #: any minibatch — usually during job setup; replayed after reset
        #: to recreate handles ("recorded ... usually at the start of
        #: training", Section 4.2).
        self.creation_records: list[ApiRecord] = []
        self.current_minibatch: int = -1
        self.total_logged = 0

    @property
    def records(self) -> list[ApiRecord]:
        """The current minibatch's records."""
        return _expanded(self._records)

    @property
    def entries(self) -> int:
        """How many entries the current minibatch logged, each lazy one
        counted once (reading it expands nothing)."""
        return len(self._records)

    @property
    def previous_records(self) -> list[ApiRecord]:
        return _expanded(self._previous)

    def begin_minibatch(self, iteration: int) -> None:
        self._previous = self._records
        self._records = []
        self.current_minibatch = iteration

    @property
    def in_minibatch(self) -> bool:
        return self.current_minibatch >= 0

    def append(self, record: ApiRecord) -> None:
        record.minibatch = self.current_minibatch
        self.total_logged += 1
        if self.in_minibatch:
            self._records.append(record)
        else:
            self.creation_records.append(record)

    def append_lazy(self, expand: Callable[[], list[ApiRecord]],
                    calls: int) -> None:
        """Log an entry that *expand* builds into *calls* records when
        the log is read; they count as logged now."""
        self._records.append(LazyRecords(expand))
        self.total_logged += calls

    def __len__(self) -> int:
        return len(self.records)

    def records_of(self, *methods: str) -> list[ApiRecord]:
        return [r for r in self.records if r.method in methods]

"""Virtual device handles (Section 4.2 of the paper).

The application/framework receives *virtual* handles from the interception
layer at the beginning of training.  After recovery recreates GPU objects,
the physical handles change, but "we cannot change the handles already
held in application variables" — so the virtual handle stays stable and is
remapped to the new physical object underneath.

For buffers, the *numpy array* plays the role of the stable virtual
address: the engine's layer parameters alias these arrays, so a rebound
physical buffer must adopt the same array object, with restored contents
written in place.  Replica deduplication may point a handle at another
array (a shared replica arena, or a private copy when a member leaves
it); the bound physical buffer follows.
"""

from __future__ import annotations

import itertools
from typing import Optional

import numpy as np

from repro.cuda.event import CudaEvent
from repro.cuda.memory import BufferKind, DeviceBuffer
from repro.cuda.stream import CudaStream

_vids = itertools.count()


def checksum(array: np.ndarray) -> int:
    """Content checksum of *array* (replay-log validation)."""
    view = np.ascontiguousarray(array)
    return hash((view.shape, view.dtype.str, view.tobytes()))


class VirtualBuffer:
    """Stable buffer handle; owns the semantic array across rebinds."""

    def __init__(self, array: np.ndarray, kind: BufferKind,
                 logical_nbytes: int, label: str = ""):
        self.vid = next(_vids)
        self._array = np.ascontiguousarray(array)
        self.kind = kind
        self.logical_nbytes = int(logical_nbytes)
        self.label = label
        self.freed = False
        self._physical: Optional[DeviceBuffer] = None
        #: Stable cross-rank identity for checkpoint files (Section 4.3's
        #: allocation-callstack hash).
        self.allocation_tag: str = ""

    @property
    def array(self) -> np.ndarray:
        return self._array

    @array.setter
    def array(self, array: np.ndarray) -> None:
        self._array = array
        if self._physical is not None:
            self._physical.array = array

    @property
    def nbytes(self) -> int:
        return self.logical_nbytes

    @property
    def physical(self) -> Optional[DeviceBuffer]:
        return self._physical

    def bind(self, physical: DeviceBuffer) -> None:
        if physical.array is not self._array:
            raise ValueError(
                f"physical buffer for {self.label!r} must adopt the virtual array")
        self._physical = physical
        self.freed = False

    def unbind(self) -> None:
        self._physical = None

    def checksum(self) -> int:
        return checksum(self._array)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        bound = "bound" if self._physical is not None else "unbound"
        return f"<VirtualBuffer v{self.vid} {self.label or self.kind.value} {bound}>"


class VirtualStream:
    """Stable stream handle."""

    def __init__(self, name_hint: str = ""):
        self.vid = next(_vids)
        self.name_hint = name_hint
        self._physical: Optional[CudaStream] = None
        #: Set once a collective is issued here (NCCL-stream detection).
        self.saw_collective = False
        self.destroyed = False

    @property
    def physical(self) -> CudaStream:
        if self._physical is None:
            raise RuntimeError(f"virtual stream v{self.vid} is unbound")
        return self._physical

    @property
    def bound(self) -> bool:
        return self._physical is not None

    def bind(self, physical: CudaStream) -> None:
        self._physical = physical

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<VirtualStream v{self.vid} {self.name_hint}>"


class VirtualEvent:
    """Stable event handle."""

    def __init__(self, name_hint: str = ""):
        self.vid = next(_vids)
        self.name_hint = name_hint
        self._physical: Optional[CudaEvent] = None
        #: While bound to a replica's event (a rank riding another's
        #: timeline), the name this rank's own event would carry.
        self.borrowed: Optional[str] = None

    @property
    def physical(self) -> CudaEvent:
        if self._physical is None:
            raise RuntimeError(f"virtual event v{self.vid} is unbound")
        return self._physical

    @property
    def bound(self) -> bool:
        return self._physical is not None

    def bind(self, physical: CudaEvent) -> None:
        self._physical = physical
        self.borrowed = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<VirtualEvent v{self.vid} {self.name_hint}>"

"""Device and host buffers.

A buffer separates *semantic* content (a small numpy array the training
framework really computes with) from *logical* size (the byte count a real
model of that scale would occupy, used for memory accounting and copy
timing).  This is the substitution that lets us train an 18-billion
parameter "GPT2-18B" semantically with kilobyte arrays while checkpoint and
recovery costs reflect hundreds of gigabytes.

``BufferKind`` matters to recovery: Section 4.2 resets GPU state by
retaining model parameters and optimizer state while discarding
activations, gradients and other scratch data.
"""

from __future__ import annotations

import enum
import itertools
from typing import Optional

import numpy as np

from repro.hardware.gpu import Gpu

_buffer_ids = itertools.count()


class BufferKind(enum.Enum):
    PARAM = "param"
    OPTIMIZER_STATE = "optimizer_state"
    GRADIENT = "gradient"
    ACTIVATION = "activation"
    INPUT_DATA = "input_data"
    SCRATCH = "scratch"

    @property
    def survives_reset(self) -> bool:
        """Is this buffer retained when GPU state resets to minibatch start?"""
        return self in (BufferKind.PARAM, BufferKind.OPTIMIZER_STATE)


class DeviceBuffer:
    """A GPU memory allocation with real numpy contents."""

    __slots__ = ("buffer_id", "gpu", "array", "kind", "logical_nbytes",
                 "label", "freed", "allocation_tag")

    def __init__(self, gpu: Gpu, array: np.ndarray, kind: BufferKind,
                 logical_nbytes: Optional[int] = None, label: str = ""):
        self.buffer_id = next(_buffer_ids)
        self.gpu = gpu
        self.array = np.ascontiguousarray(array)
        self.kind = kind
        self.logical_nbytes = int(logical_nbytes if logical_nbytes is not None
                                  else self.array.nbytes)
        self.label = label
        self.freed = False
        #: Filled by the transparent interception layer: a stable identity
        #: derived from the allocation call-stack (Section 4.3) used to name
        #: checkpoint files consistently across ranks.
        self.allocation_tag: Optional[str] = None

    @property
    def nbytes(self) -> int:
        return self.logical_nbytes

    def checksum(self) -> int:
        """Content checksum used by replay-log validation (Section 4.1)."""
        view = np.ascontiguousarray(self.array)
        return hash((view.shape, view.dtype.str, view.tobytes()))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "freed" if self.freed else "live"
        return (f"<DeviceBuffer #{self.buffer_id} {self.label or self.kind.value} "
                f"{self.logical_nbytes}B {state}>")


class HostBuffer:
    """Host (CPU RAM) staging buffer for checkpoint copies."""

    __slots__ = ("buffer_id", "array", "logical_nbytes", "label")

    def __init__(self, array: np.ndarray, logical_nbytes: Optional[int] = None,
                 label: str = ""):
        self.buffer_id = next(_buffer_ids)
        self.array = np.ascontiguousarray(array)
        self.logical_nbytes = int(logical_nbytes if logical_nbytes is not None
                                  else self.array.nbytes)
        self.label = label

    @property
    def nbytes(self) -> int:
        return self.logical_nbytes

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<HostBuffer #{self.buffer_id} {self.label} {self.logical_nbytes}B>"

"""GPU device model: health state machine plus memory accounting.

Health states mirror the failure classes of the paper (Sections 1 and 4):

* ``HEALTHY`` — normal operation.
* ``DRIVER_CORRUPT`` — the GPU is still accessible but CUDA/network driver
  state is suspect; cleared by restarting the device proxy (Section 4.2,
  second transient path).
* ``STICKY_ERROR`` — a CUDA "sticky" error: every subsequent API call fails
  and device memory is no longer trustworthy, but there is no hardware
  fault; cleared by restarting the device proxy (third transient path).
* ``DEAD`` — unrecoverable hardware error; the GPU must be replaced
  (Section 4.3).
"""

from __future__ import annotations

import enum

from repro.hardware.specs import GpuSpec
from repro.sim import Environment


class GpuHealth(enum.Enum):
    HEALTHY = "healthy"
    DRIVER_CORRUPT = "driver_corrupt"
    STICKY_ERROR = "sticky_error"
    DEAD = "dead"


class GpuMemoryError(Exception):
    """Raised when a logical allocation exceeds device memory."""


class Gpu:
    """One simulated GPU device."""

    def __init__(self, env: Environment, spec: GpuSpec, gpu_id: str):
        self.env = env
        self.spec = spec
        self.gpu_id = gpu_id
        self._health = GpuHealth.HEALTHY
        self._allocated_bytes = 0
        #: Bumped on every health transition; the CUDA runtime uses it to
        #: invalidate in-flight work that predates a failure or a reset.
        self.epoch = 0
        #: Simulation time of each epoch bump, in order.  The stream fast
        #: path uses this to settle a coalesced op chain: ops that ended
        #: before the first transition after the chain started completed,
        #: later ones hang, exactly as if they had run one event each.
        self.epoch_times: list[float] = []
        #: Called (no args) after every epoch bump.  Replica deduplication
        #: registers the copy-on-write trigger here: any health transition
        #: on a deduplicated rank's device materialises its private state.
        self.on_epoch: list = []

    # -- health --------------------------------------------------------------

    @property
    def health(self) -> GpuHealth:
        return self._health

    @property
    def is_usable(self) -> bool:
        """Can new kernels make progress on this device?"""
        return self._health in (GpuHealth.HEALTHY, GpuHealth.DRIVER_CORRUPT)

    @property
    def is_accessible(self) -> bool:
        """Can device memory still be read (e.g. for a JIT checkpoint)?"""
        return self._health in (GpuHealth.HEALTHY, GpuHealth.DRIVER_CORRUPT)

    def fail(self, health: GpuHealth) -> None:
        """Transition into a failure state (injected by `repro.failures`)."""
        if health is GpuHealth.HEALTHY:
            raise ValueError("use reset_driver() to return to HEALTHY")
        if self._health is GpuHealth.DEAD:
            return  # dead devices stay dead
        self._health = health
        self.epoch += 1
        self.epoch_times.append(self.env.now)
        for callback in self.on_epoch:
            callback()
        self.env.tracer.record(self.env.now, self.gpu_id, "gpu_fail",
                               health=health.value)

    def reset_driver(self) -> None:
        """Clear recoverable driver state (device proxy restart).

        This models ``cudaDeviceReset`` plus a proxy-process restart: it
        clears sticky errors and corrupted driver state but cannot revive
        dead hardware.  All device memory contents are lost.
        """
        if self._health is GpuHealth.DEAD:
            raise RuntimeError(f"{self.gpu_id}: cannot reset a dead GPU")
        self._health = GpuHealth.HEALTHY
        self.epoch += 1
        self.epoch_times.append(self.env.now)
        for callback in self.on_epoch:
            callback()
        self._allocated_bytes = 0
        self.env.tracer.record(self.env.now, self.gpu_id, "gpu_reset")

    # -- memory ---------------------------------------------------------------

    @property
    def allocated_bytes(self) -> int:
        return self._allocated_bytes

    @property
    def free_bytes(self) -> int:
        return self.spec.memory_bytes - self._allocated_bytes

    def allocate(self, nbytes: int) -> None:
        if nbytes < 0:
            raise ValueError("allocation size must be non-negative")
        if self._allocated_bytes + nbytes > self.spec.memory_bytes:
            raise GpuMemoryError(
                f"{self.gpu_id}: out of memory "
                f"(want {nbytes}, free {self.free_bytes})")
        self._allocated_bytes += nbytes

    def free(self, nbytes: int) -> None:
        if nbytes < 0:
            raise ValueError("free size must be non-negative")
        self._allocated_bytes = max(0, self._allocated_bytes - nbytes)

    # -- timing ---------------------------------------------------------------

    def compute_time(self, flops: float) -> float:
        """Duration of a kernel performing *flops* floating point operations."""
        return flops / self.spec.compute_flops

    def pcie_time(self, nbytes: int) -> float:
        """Duration of a host<->device copy of *nbytes*."""
        return nbytes / self.spec.pcie_bandwidth

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Gpu {self.gpu_id} {self.spec.name} {self._health.value}>"

"""Host-speed probe: a fixed kernel shaped like the simulator, timed between ops.

On the shared 2-vCPU VM this benchmark was calibrated on, host speed
drifts, not only scheduling: process time tracks wall time, and the host
switches between a fast and a ~1.7x slower state for seconds to minutes
at a time.  The probe does a fixed amount of work with the simulator's
instruction mix (a heap-driven event loop resuming generators over
slotted event objects, small-array numpy math, deep copies and sha256
digests of a checkpoint-like payload) and is timed between ops.
Host-time metrics are rescaled by ``HOST_REF_PROBE_MS / probe_ms``.  Of
the probe shapes tried there, this mix slowed down by the same factor as
the workloads' ops when the host changed state (1.72x against 1.71-1.75x
for training and checkpoint ops; a pure heap/dict/einsum kernel slowed
1.86x).

This module never imports ``repro``: the probe must not change when the
program under test does.
"""

from __future__ import annotations

import copy
import hashlib
import heapq
import statistics
import time

import numpy as np

#: Probe time (ms) on the reference host: the median over 40 runs on the
#: VM above, at the commit that introduced this benchmark, frozen here.
#: Every normalized timing is ``raw * HOST_REF_PROBE_MS / probe_ms``, so
#: changing this constant rescales every timing the benchmark reports;
#: never change it between the two sides of a comparison.
HOST_REF_PROBE_MS = 7.62

#: Repetitions per probe; the probe reports their median times ``_REPS``.
_REPS = 3

_M8 = np.linspace(-1.0, 1.0, 64).reshape(8, 8)
_M16 = np.linspace(-1.0, 1.0, 512).reshape(16, 32)
_PAYLOAD = {f"w{i}": np.linspace(0.0, 1.0, 64 + i) for i in range(12)}


class _Event:
    __slots__ = ("time", "seq", "proc")

    def __init__(self, time: float, seq: int, proc: int):
        self.time = time
        self.seq = seq
        self.proc = proc


def _process(pid: int, steps: int):
    x = _M8
    for i in range(steps):
        if i % 4 == 0:
            x = np.tanh(np.einsum("ij,jk->ik", x, _M8) * 0.1)
        yield 0.001 * ((pid * 31 + i) % 17 + 1)


def _kernel() -> float:
    procs = [_process(pid, 40) for pid in range(30)]
    heap = [(0.0, pid, _Event(0.0, pid, pid)) for pid in range(len(procs))]
    heapq.heapify(heap)
    seq = len(heap)
    while heap:
        now, _, event = heapq.heappop(heap)
        try:
            delay = next(procs[event.proc])
        except StopIteration:
            continue
        heapq.heappush(heap, (now + delay, seq,
                              _Event(now + delay, seq, event.proc)))
        seq += 1
    for _ in range(4):
        snapshot = copy.deepcopy(_PAYLOAD)
        digest = hashlib.sha256()
        for key in sorted(snapshot):
            digest.update(snapshot[key].tobytes())
        digest.hexdigest()
    y = _M16
    for _ in range(25):
        y = (y @ _M16.T @ _M16) * 0.01 + y.copy()
    return now + float(y.sum())


def probe_ms() -> float:
    """Median wall time (ms) of one kernel repetition, times ``_REPS``."""
    times = []
    for _ in range(_REPS):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3 * _REPS

"""Helpers for allocating parameter/state buffers with logical sizing.

Logical bytes (the scale the paper's models occupy) are distributed over
the small semantic arrays proportionally, with the remainder pinned to the
last buffer so group totals are exact — checkpoint-size accounting and
copy timing depend on those totals.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.cuda.memory import BufferKind


def distribute_logical_bytes(arrays: dict[str, np.ndarray],
                             total_bytes: int) -> dict[str, int]:
    """Split *total_bytes* across arrays proportional to semantic size."""
    names = list(arrays)
    semantic_total = sum(arrays[name].nbytes for name in names) or 1
    shares = {}
    allocated = 0
    for name in names[:-1]:
        share = int(total_bytes * arrays[name].nbytes / semantic_total)
        shares[name] = share
        allocated += share
    shares[names[-1]] = total_bytes - allocated
    return shares


class GroupShares:
    """Memoised :func:`distribute_logical_bytes` for fixed-layout groups.

    Keyed by the caller's name for a group (whose array names and sizes
    it fixes) and the group's logical total.
    """

    __slots__ = ("_memo",)

    def __init__(self):
        self._memo: dict = {}

    def __call__(self, group, arrays: dict[str, np.ndarray],
                 total_bytes: int) -> dict[str, int]:
        key = (group, total_bytes)
        shares = self._memo.get(key)
        if shares is None:
            shares = self._memo[key] = distribute_logical_bytes(arrays,
                                                                total_bytes)
        return shares


def allocate_group(api, arrays: dict[str, np.ndarray], total_bytes: int,
                   kind: BufferKind, prefix: str = "",
                   shares: Optional[dict[str, int]] = None) -> dict:
    """Allocate one DeviceBuffer per array; returns name -> buffer.

    The buffers wrap the arrays *without copying* (contiguous numpy arrays
    are adopted as-is), so optimizers mutating the arrays mutate GPU state.
    *shares* is the group's logical-byte split when the caller already
    knows it (see :class:`GroupShares`).
    """
    if shares is None:
        shares = distribute_logical_bytes(arrays, total_bytes)
    return api.malloc_group(arrays, kind, shares, prefix)

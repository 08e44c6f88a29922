"""Process-global switches, parsed from the environment in one place.

Two switches select between two equivalent implementations without
changing any simulated result:

``fast_path`` (``REPRO_FAST_PATH``)
    Macro-event coalescing in :mod:`repro.cuda.stream`, and batched
    collective rendezvous in the engines: one
    :class:`~repro.nccl.rendezvous.BatchedCollectiveInstance` per layer
    group instead of one all-reduce per bucket, whose transfer arms one
    timeout on a single node and registers a replica group once.
    Simulated timestamps, loss streams, trace control records, recovery
    behaviour and the logical event count (``events_processed``) are
    identical either way; only the number of real heap dispatches
    changes.
``dedup`` (``REPRO_DEDUP``)
    Copy-on-write replica deduplication (:mod:`repro.framework.dedup`),
    bitwise-equivalent to per-rank math; read when a job is built.

Both default to on and are read once, at import, so campaign pool
workers inherit them from the environment without plumbing.  Accepted
spellings are ``1/true/on/yes`` and ``0/false/off/no`` in any case;
anything else raises :class:`ValueError` naming the variable.

Readers look the value up per use (``flags.fast_path``), never bind it
at import (``from repro.flags import fast_path``): :func:`override`
rebinds the module attribute, which a bound copy would not see.

``REPRO_FLIGHT_RECORDS`` (the flight-recorder window) is the exception:
:func:`flight_records` reads it per call, so a harness can vary it
without reloading modules.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

_ON = ("1", "true", "on", "yes")
_OFF = ("0", "false", "off", "no")


def _parse_switch(variable: str) -> bool:
    """Boolean value of environment *variable*; on when unset."""
    raw = os.environ.get(variable)
    if raw is None:
        return True
    value = raw.strip().lower()
    if value in _ON:
        return True
    if value in _OFF:
        return False
    raise ValueError(f"{variable}={raw!r}: expected one of "
                     f"{'/'.join(_ON)} or {'/'.join(_OFF)}")


fast_path = _parse_switch("REPRO_FAST_PATH")
dedup = _parse_switch("REPRO_DEDUP")

_SWITCHES = ("fast_path", "dedup")


@contextmanager
def override(**switches: bool):
    """Force switches for the duration of the block, then restore them.

    ``with flags.override(fast_path=False, dedup=True): ...`` — used by the
    equivalence grids to run the same scenario down both paths.
    """
    unknown = set(switches) - set(_SWITCHES)
    if unknown:
        raise TypeError(f"unknown switches {sorted(unknown)}; "
                        f"choose from {list(_SWITCHES)}")
    state = globals()
    previous = {name: state[name] for name in switches}
    state.update((name, bool(value)) for name, value in switches.items())
    try:
        yield
    finally:
        state.update(previous)


def flight_records(default: int) -> int:
    """Positive ``REPRO_FLIGHT_RECORDS`` value, else *default*.

    Read per call.  Unset, non-integer and non-positive values all fall
    back to *default*.
    """
    try:
        value = int(os.environ.get("REPRO_FLIGHT_RECORDS", ""))
    except ValueError:
        return default
    return value if value > 0 else default

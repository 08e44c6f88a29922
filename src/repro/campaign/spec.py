"""Scenario and campaign-grid specifications.

A :class:`ScenarioSpec` is one self-contained, picklable unit of
evaluation work: a simulated failure campaign, a workload run to
completion under a Poisson failure schedule (the paper's Tables 4-7 /
Section 6 methodology).  A :class:`CampaignSpec` is an ordered grid of
scenarios.

Scenarios are content-hashed (configuration plus package version) so the
:class:`~repro.campaign.cache.ResultCache` can serve re-runs of unchanged
scenarios for free.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Optional

import repro
from repro import flags


@lru_cache(maxsize=1)
def _source_fingerprint() -> str:
    digest = hashlib.sha256(repro.__version__.encode())
    root = Path(repro.__file__).parent
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def code_fingerprint() -> str:
    """Package version + package source hash + both switches' state.

    Folded into every :meth:`ScenarioSpec.content_hash`, so editing any
    module of the ``repro`` package — the simulator kernel, a recovery
    strategy, the checkpoint store, the training math — or toggling
    ``REPRO_DEDUP`` or ``REPRO_FAST_PATH`` starts campaigns from a cold
    cache instead of serving results recorded by different code: each
    switch claims bitwise equivalence, and a cache that crossed it would
    hide a broken one.  The source hash is computed once per process;
    the switches are read per call because tests flip them at runtime
    (:func:`repro.flags.override`).
    """
    return (_source_fingerprint()
            + ("+dedup" if flags.dedup else "+nodedup")
            + ("+fast" if flags.fast_path else "+slow"))


#: Default failure mix for campaign scenarios: the recoverable single-GPU
#: classes (whole-node crashes need the JIT+periodic combo and replica
#: survivors; targeted experiments opt into them explicitly).
DEFAULT_CAMPAIGN_MIX: tuple[tuple[str, float], ...] = (
    ("GPU_HARD", 0.4),
    ("GPU_STICKY", 0.4),
    ("GPU_DRIVER_CORRUPT", 0.2),
)

#: Recognised campaign policies.
POLICIES = ("user_jit", "periodic")


@dataclass(frozen=True)
class ScenarioSpec:
    """One cell of a campaign grid.

    ``workload`` names a catalogue entry (:data:`repro.workloads.WORKLOADS`);
    ``node`` / ``minibatch_time`` optionally override it so benchmark
    variants (e.g. the cross-validation workload) stay expressible without
    a separate registry in worker processes.
    """

    workload: str = "GPT2-S"
    policy: str = "user_jit"
    seed: int = 0
    target_iterations: int = 100
    #: Failures per GPU per second (exaggerated vs real clusters so short
    #: simulated runs observe failures, as in the paper's experiments).
    failure_rate: float = 1.0 / 160.0
    horizon: float = 2000.0
    #: (FailureType name, weight) pairs — names, not enum members, so the
    #: spec canonicalises to JSON.
    type_mix: tuple[tuple[str, float], ...] = DEFAULT_CAMPAIGN_MIX
    progress_timeout: float = 20.0
    store_bandwidth: float = 1.5e9
    #: Optional workload overrides (see class docstring).
    node: Optional[str] = None
    minibatch_time: Optional[float] = None
    #: Optional (process_start, framework_init, data_prep) restart costs.
    init_costs: Optional[tuple[float, float, float]] = None

    def __post_init__(self):
        from repro.workloads.catalog import WORKLOADS

        if self.workload not in WORKLOADS:
            raise ValueError(
                f"unknown workload {self.workload!r}; choose from "
                f"{sorted(WORKLOADS)}")
        if self.policy not in POLICIES:
            raise ValueError(
                f"unknown campaign policy {self.policy!r}; choose from {POLICIES}")

    @property
    def scenario_id(self) -> str:
        """Short human-readable identity (not the cache key)."""
        return f"{self.workload}/{self.policy}/seed{self.seed}"

    def config(self) -> dict:
        """Canonical JSON-ready description of this scenario."""
        # Every field is immutable, so a shallow read suffices;
        # ``dataclasses.asdict`` would deep-copy each of them.
        out = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        out["type_mix"] = [list(pair) for pair in self.type_mix]
        if self.init_costs is not None:
            out["init_costs"] = list(self.init_costs)
        return out

    def content_hash(self) -> str:
        """Cache key: scenario configuration plus the code fingerprint.

        The fingerprint covers ``repro.__version__``, the package source
        (:func:`code_fingerprint`), and the fast-path toggle, so both
        version bumps *and* unreleased code edits invalidate every
        cached result.
        """
        payload = json.dumps({"scenario": self.config(),
                              "fingerprint": code_fingerprint()},
                             sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()


@dataclass(frozen=True)
class CampaignSpec:
    """An ordered grid of scenarios evaluated (and aggregated) together."""

    name: str
    scenarios: tuple[ScenarioSpec, ...]

    def __post_init__(self):
        hashes = [s.content_hash() for s in self.scenarios]
        if len(set(hashes)) != len(hashes):
            raise ValueError(f"campaign {self.name!r} contains duplicate scenarios")

    def __len__(self) -> int:
        return len(self.scenarios)

    @classmethod
    def grid(cls, name: str, *, workloads: Iterable[str],
             policies: Iterable[str] = ("user_jit",),
             seeds: Iterable[int] = (0,), **common) -> "CampaignSpec":
        """Expand a workload x policy x seed grid in deterministic order."""
        scenarios = tuple(
            ScenarioSpec(workload=w, policy=p, seed=s, **common)
            for w in workloads for p in policies for s in seeds)
        return cls(name=name, scenarios=scenarios)

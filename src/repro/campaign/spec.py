"""Scenario and campaign-grid specifications.

A :class:`ScenarioSpec` is one self-contained, picklable unit of
evaluation work — either a simulated failure campaign (a workload run to
completion under a Poisson failure schedule, the paper's Tables 4-7 /
Section 6 methodology) or an analytic Section 5 evaluation (a Table 8
row).  A :class:`CampaignSpec` is an ordered grid of scenarios.

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
    """Package version + package source hash + fast-path state.

    Folded into every :meth:`ScenarioSpec.content_hash`, so editing any
    module of the ``repro`` package — the simulator kernel, a recovery
    strategy, the checkpoint store, the training math — or toggling
    ``REPRO_FAST_PATH`` starts campaigns from a cold cache instead of
    serving results recorded by different code.  The source hash is
    computed once per process; the fast-path bit is read per call
    because tests flip it at runtime (:func:`repro.flags.override`).
    """
    return _source_fingerprint() + ("+fast" if flags.fast_path else "+slow")


#: Default failure mix for campaign scenarios: the recoverable single-GPU
#: classes (whole-node crashes need the JIT+periodic combo and replica
#: survivors; targeted experiments opt into them explicitly).
DEFAULT_CAMPAIGN_MIX: tuple[tuple[str, float], ...] = (
    ("GPU_HARD", 0.4),
    ("GPU_STICKY", 0.4),
    ("GPU_DRIVER_CORRUPT", 0.2),
)

#: Recognised ``ScenarioSpec.kind`` values.
KIND_CAMPAIGN = "campaign"
KIND_ANALYTIC = "analytic"
KIND_ORACLE = "oracle"

#: Recognised campaign policies.
POLICIES = ("user_jit", "periodic")

#: Oracle scenarios may target this pseudo-workload: the small
#: single-node DDP spec from :func:`repro.oracle.default_oracle_spec`
#: rather than a Table 2 catalogue entry.
ORACLE_WORKLOAD = "ORACLE"


@dataclass(frozen=True)
class ScenarioSpec:
    """One cell of a campaign grid.

    ``workload`` names a catalogue entry (:data:`repro.workloads.WORKLOADS`);
    ``node`` / ``minibatch_time`` optionally override it so benchmark
    variants (e.g. the cross-validation workload) stay expressible without
    a separate registry in worker processes.
    """

    kind: str = KIND_CAMPAIGN
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
    #: Analytic scenarios only: the GPU count N of the Table 8 row.
    n_gpus: int = 0
    #: Oracle scenarios only: the recovery strategy under test.
    strategy: Optional[str] = None
    #: Oracle scenarios only: a JSON :class:`repro.oracle.FailureSchedule`
    #: to replay; when ``None``, ``fuzz_count`` schedules are drawn from
    #: ``seed`` instead.
    schedule: Optional[str] = None
    fuzz_count: int = 0
    #: Oracle fuzz scenarios only: restrict the fuzzer to these schedule
    #: shapes (e.g. the storage-corruption pair); ``None`` keeps the
    #: default rotation.
    shapes: Optional[tuple[str, ...]] = None
    #: Oracle fuzz scenarios only: add the torn-write/bit-rot shapes to
    #: the default draw rotation (opt-in, like the fuzzer flag).
    include_storage: bool = False

    def __post_init__(self):
        from repro.workloads.catalog import WORKLOADS

        if self.kind not in (KIND_CAMPAIGN, KIND_ANALYTIC, KIND_ORACLE):
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        if (self.workload not in WORKLOADS
                and not (self.kind == KIND_ORACLE
                         and self.workload == ORACLE_WORKLOAD)):
            raise ValueError(
                f"unknown workload {self.workload!r}; choose from "
                f"{sorted(WORKLOADS)}")
        if self.kind == KIND_CAMPAIGN and self.policy not in POLICIES:
            raise ValueError(
                f"unknown campaign policy {self.policy!r}; choose from {POLICIES}")
        if self.kind == KIND_ANALYTIC and self.n_gpus < 1:
            raise ValueError("analytic scenarios need n_gpus >= 1")
        if self.kind == KIND_ORACLE:
            from repro.oracle.strategies import STRATEGIES

            if self.strategy not in STRATEGIES:
                raise ValueError(
                    f"oracle scenarios need a strategy from {STRATEGIES}, "
                    f"got {self.strategy!r}")
            if (self.schedule is None) == (self.fuzz_count < 1):
                raise ValueError("oracle scenarios need exactly one of "
                                 "a JSON schedule or fuzz_count >= 1")
            if self.shapes is not None:
                from repro.oracle.schedule import (NETWORK_SHAPES, SHAPES,
                                                   STORAGE_SHAPES)

                known = set(SHAPES + NETWORK_SHAPES + STORAGE_SHAPES)
                unknown = set(self.shapes) - known
                if unknown:
                    raise ValueError(
                        f"unknown oracle shapes {sorted(unknown)}; choose "
                        f"from {sorted(known)}")

    @property
    def scenario_id(self) -> str:
        """Short human-readable identity (not the cache key)."""
        if self.kind == KIND_ANALYTIC:
            return f"{self.workload}/analytic/N{self.n_gpus}"
        if self.kind == KIND_ORACLE:
            source = ("replay" if self.schedule is not None
                      else f"fuzz{self.fuzz_count}")
            if self.schedule is None and self.shapes is not None:
                source += "[" + ",".join(self.shapes) + "]"
            return f"{self.workload}/oracle/{self.strategy}/{source}/seed{self.seed}"
        return f"{self.workload}/{self.policy}/seed{self.seed}"

    def config(self) -> dict:
        """Canonical JSON-ready description of this scenario."""
        out = dataclasses.asdict(self)
        out["type_mix"] = [list(pair) for pair in self.type_mix]
        if self.init_costs is not None:
            out["init_costs"] = list(self.init_costs)
        if self.shapes is not None:
            out["shapes"] = list(self.shapes)
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

    @classmethod
    def analytic_grid(cls, name: str, *, workloads: Iterable[str],
                      gpu_counts: Iterable[int], **common) -> "CampaignSpec":
        """Grid of closed-form Section 5 evaluations (Table 8 rows)."""
        scenarios = tuple(
            ScenarioSpec(kind=KIND_ANALYTIC, workload=w, n_gpus=n, **common)
            for w in workloads for n in gpu_counts)
        return cls(name=name, scenarios=scenarios)

    @classmethod
    def oracle_grid(cls, name: str, *, strategies: Iterable[str],
                    seeds: Iterable[int] = (0,), fuzz_count: int = 3,
                    workload: str = ORACLE_WORKLOAD,
                    target_iterations: int = 20, **common) -> "CampaignSpec":
        """Strategy x seed grid of recovery-equivalence fuzz scenarios."""
        scenarios = tuple(
            ScenarioSpec(kind=KIND_ORACLE, workload=workload, strategy=st,
                         seed=s, fuzz_count=fuzz_count,
                         target_iterations=target_iterations, **common)
            for st in strategies for s in seeds)
        return cls(name=name, scenarios=scenarios)

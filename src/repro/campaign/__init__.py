"""Parallel failure-campaign engine with deterministic result caching.

The paper's Poisson failure experiments (Section 6, Tables 4-7) are built
from many independent simulator runs over (workload x policy x seed)
grids, each a training job run to completion under a seeded failure
schedule.  This package runs those failure campaigns and nothing else
(Table 8's closed-form cells are :func:`repro.analysis.table8_row`):

* :class:`~repro.campaign.spec.ScenarioSpec` /
  :class:`~repro.campaign.spec.CampaignSpec` — a declarative, content-
  hashable grid of failure-campaign scenarios;
* :class:`~repro.campaign.runner.CampaignRunner` — fans scenarios out
  over a ``ProcessPoolExecutor`` (results return through its pickle
  channel) and serves unchanged scenarios from a
  :class:`~repro.campaign.cache.ResultCache` for free;
* :mod:`~repro.campaign.prefix` — prefix-fork scheduling that simulates
  a grid's shared failure-free prefix once per group;
* :mod:`~repro.campaign.aggregate` — deterministic mean/p50/p99
  aggregation into the columns the paper tables need.

See ``docs/performance.md`` for the design and determinism guarantees.
"""

from repro.campaign.aggregate import (
    aggregate_results,
    canonical_json,
    percentile,
)
from repro.campaign.cache import ResultCache
from repro.campaign.runner import (
    CampaignResult,
    CampaignRunner,
    ScenarioOutcome,
    execute_scenario,
)
from repro.campaign.spec import (
    DEFAULT_CAMPAIGN_MIX,
    CampaignSpec,
    ScenarioSpec,
    code_fingerprint,
)

__all__ = [
    "CampaignResult",
    "CampaignRunner",
    "CampaignSpec",
    "DEFAULT_CAMPAIGN_MIX",
    "ResultCache",
    "ScenarioOutcome",
    "ScenarioSpec",
    "aggregate_results",
    "canonical_json",
    "code_fingerprint",
    "execute_scenario",
    "percentile",
]

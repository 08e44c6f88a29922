"""Site helpers: one call per instrumentation point across the stack.

Every hook in the simulator follows the same two-step shape::

    reg = metrics.active()
    if reg is not None:
        instrument.observe_store_write(reg, self.name, seconds, nbytes)

The ``is None`` check is the *entire* cost when no registry is installed
(the default, and always under ``REPRO_OBS=0``); the helpers here are
only entered with a live registry in hand.  Keeping the family
definitions in one module also keeps names/labels consistent between
the sites, the report tool and the dashboard.

This module imports only the registry and store layers, so hot modules
(:mod:`repro.cuda.stream`, :mod:`repro.nccl.rendezvous`,
:mod:`repro.storage.stores`) can import it without dragging the ledger
or oracle in.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.obs.metrics.registry import MetricsRegistry, active
from repro.obs.metrics.store import SimScraper

#: Storage latency bounds: object writes/reads span sub-millisecond
#: manifest blobs to multi-second checkpoint shards.
STORAGE_BUCKETS = (0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
                   0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0)

#: Rendezvous skew bounds: straggler waits are usually well under one
#: iteration, but a hung peer shows up as the +Inf bucket.
RENDEZVOUS_BUCKETS = (0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1,
                      0.25, 0.5, 1.0, 2.5, 5.0, 10.0)


# -- sim kernel ---------------------------------------------------------------

def attach_run_metrics(env, registry: Optional[MetricsRegistry] = None,
                       scrape: bool = True) -> Optional[SimScraper]:
    """Wire live-state gauges (and optionally a scraper) onto a run's env.

    Gauges are callbacks over *live* kernel structures — queue depth and
    the simulated clock — because ``Environment.run`` caches its dispatch
    counter in a local and only writes it back on exit (event totals are
    finalised post-run by :func:`repro.obs.metrics.bridge.`
    ``record_run_environment``).  The scraper is opt-in at this layer too:
    it schedules real timeout events, which perturbs the run's
    ``events_processed``.
    """
    if registry is None:
        registry = active()
    if registry is None:
        return None
    depth = registry.gauge("repro_sim_queue_depth",
                           "pending events in the kernel heap")
    depth.set_function(lambda: float(len(env._queue)))
    clock = registry.gauge("repro_sim_now_seconds", "simulated clock")
    clock.set_function(lambda: float(env.now))
    if not scrape:
        return None
    return SimScraper(env, registry).start()


# -- failures -----------------------------------------------------------------

def record_failure(registry: MetricsRegistry, kind: str,
                   target: str) -> None:
    registry.counter("repro_failures_injected",
                     "failures applied by the injector",
                     ("kind", "target")).labels(
        kind=kind, target=target).inc()


# -- storage ------------------------------------------------------------------

def observe_store_write(registry: MetricsRegistry, store: str,
                        seconds: float, nbytes: int) -> None:
    registry.histogram("repro_storage_write_seconds",
                       "completed object-write latency",
                       ("store",), buckets=STORAGE_BUCKETS).labels(
        store=store).observe(seconds)
    registry.counter("repro_storage_written_bytes",
                     "payload bytes of completed writes",
                     ("store",)).labels(store=store).inc(nbytes)


def observe_store_read(registry: MetricsRegistry, store: str,
                       seconds: float, nbytes: int) -> None:
    registry.histogram("repro_storage_read_seconds",
                       "object-read latency",
                       ("store",), buckets=STORAGE_BUCKETS).labels(
        store=store).observe(seconds)
    registry.counter("repro_storage_read_bytes",
                     "payload bytes of completed reads",
                     ("store",)).labels(store=store).inc(nbytes)


def record_store_commit(registry: MetricsRegistry, store: str) -> None:
    registry.counter("repro_storage_commits",
                     "atomic rename publishes",
                     ("store",)).labels(store=store).inc()


def record_quarantine(registry: MetricsRegistry, store: str) -> None:
    registry.counter("repro_storage_quarantined",
                     "objects moved to the quarantine namespace",
                     ("store",)).labels(store=store).inc()


# -- NCCL ---------------------------------------------------------------------

def observe_rendezvous(registry: MetricsRegistry, kind: str, launch: float,
                       arrivals: Iterable[float]) -> None:
    """Per-rank rendezvous skew: launch instant minus each rank's arrival."""
    waits = registry.histogram("repro_nccl_rendezvous_wait_seconds",
                               "per-rank wait at collective rendezvous",
                               ("kind",), buckets=RENDEZVOUS_BUCKETS)
    child = waits.labels(kind=kind)
    for arrival in arrivals:
        child.observe(max(0.0, launch - arrival))
    registry.counter("repro_nccl_collectives_launched",
                     "collectives whose rendezvous completed",
                     ("kind",)).labels(kind=kind).inc()


# -- CUDA streams -------------------------------------------------------------

def attach_stream_gauge(registry: MetricsRegistry, stream) -> None:
    """Live queue-depth gauge for one stream.

    Stream names repeat across runs that share a registry (rank streams
    are ``ctxN:...`` in every run); the newest stream wins its label,
    which is the live one — exactly what a scrape wants.
    """
    gauge = registry.gauge("repro_cuda_stream_pending",
                           "operations queued behind the stream head",
                           ("stream",))
    gauge.labels(stream=stream.name).set_function(
        lambda: float(stream.pending))


# -- campaign -----------------------------------------------------------------

def record_campaign_perf(registry: MetricsRegistry, perf, workers: int,
                         busy_seconds: float) -> None:
    """Post-campaign rollup from :class:`repro.core.telemetry.CampaignPerf`."""
    registry.counter("repro_campaign_cache_hits",
                     "scenario results served from the content-hash "
                     "result cache").inc(perf.cache_hits)
    registry.counter("repro_campaign_cache_misses",
                     "scenario results the result cache did not hold"
                     ).inc(perf.cache_misses)
    registry.counter("repro_campaign_reused",
                     "cache misses answered from the runner's "
                     "failure-free memo, without simulating"
                     ).inc(perf.reused)
    registry.gauge("repro_campaign_cache_hit_rate",
                   "result-cache hit fraction for the last campaign"
                   ).set(perf.cache_hit_rate)
    registry.gauge("repro_campaign_workers",
                   "worker slots the campaign ran with").set(workers)
    wall = perf.wall_seconds
    utilization = (busy_seconds / (workers * wall)
                   if workers > 0 and wall > 0 else 0.0)
    registry.gauge("repro_campaign_worker_utilization",
                   "scenario-busy fraction of worker*wall capacity"
                   ).set(min(1.0, utilization))
    registry.gauge("repro_campaign_wall_seconds",
                   "real seconds the last campaign took").set(wall)
    registry.counter("repro_campaign_scenarios",
                     "scenario runs simulated").inc(len(perf.runs))

"""Campaign engine: determinism, caching, and aggregation.

The headline guarantee (ISSUE acceptance criterion): an 8-scenario
campaign produces byte-identical aggregated results whether it runs
serially, across 4 worker processes, or entirely from a warm cache —
and the warm rerun executes zero scenarios.
"""

import json
from pathlib import Path

import pytest

from repro.campaign import (
    CampaignRunner,
    CampaignSpec,
    ResultCache,
    ScenarioSpec,
    aggregate_results,
    canonical_json,
    execute_scenario,
    percentile,
)


def small_campaign(name="determinism"):
    """8 scenarios (2 policies x 4 seeds), sized for a ~1s/scenario run."""
    return CampaignSpec.grid(
        name,
        workloads=["GPT2-S"],
        policies=["user_jit", "periodic"],
        seeds=[0, 1, 2, 3],
        target_iterations=15,
        failure_rate=1.0 / 25.0,
        horizon=150.0,
        minibatch_time=0.1,
        init_costs=(0.5, 0.25, 0.25),
        progress_timeout=10.0,
        type_mix=(("GPU_HARD", 0.5), ("GPU_STICKY", 0.5)),
    )


def test_serial_parallel_and_cached_aggregates_are_byte_identical(tmp_path):
    campaign = small_campaign()
    assert len(campaign) == 8

    serial = CampaignRunner(cache=None, workers=1).run(campaign)
    parallel = CampaignRunner(cache=None, workers=4).run(campaign)

    cache = ResultCache(tmp_path / "cache")
    cold = CampaignRunner(cache=cache, workers=2).run(campaign)
    warm = CampaignRunner(cache=cache, workers=2).run(campaign)

    blobs = {canonical_json(run.aggregate())
             for run in (serial, parallel, cold, warm)}
    assert len(blobs) == 1, "aggregates diverged across execution modes"

    # Outcome rows come back in campaign order regardless of which worker
    # finished first.
    for run in (serial, parallel, cold, warm):
        assert [o.spec.scenario_id for o in run.outcomes] == \
            [s.scenario_id for s in campaign.scenarios]

    # The warm rerun is served entirely from cache.
    assert cold.perf.cache_hits == 0
    assert cold.perf.cache_misses == 8
    assert warm.executed == 0
    assert warm.perf.cache_hits == 8
    assert warm.perf.cache_hit_rate == 1.0


def test_campaign_runs_preserve_training_semantics(tmp_path):
    result = CampaignRunner(cache=None, workers=1).run(
        small_campaign("semantics"))
    digests = set()
    for outcome in result.outcomes:
        metrics = outcome.metrics
        assert metrics["completed"], outcome.spec.scenario_id
        # Recovery must be semantics-preserving: the loss stream matches
        # the failure-free reference bit for bit.
        assert metrics["losses_digest"] == metrics["reference_digest"]
        digests.add(metrics["losses_digest"])
    # Same workload + iterations -> one digest across policies and seeds.
    assert len(digests) == 1


# -- spec hashing ----------------------------------------------------------------------


def test_content_hash_is_stable_and_config_sensitive():
    a = ScenarioSpec(seed=7)
    b = ScenarioSpec(seed=7)
    c = ScenarioSpec(seed=8)
    assert a.content_hash() == b.content_hash()
    assert a.content_hash() != c.content_hash()
    # The hash covers the full config, not just the identity fields.
    d = ScenarioSpec(seed=7, failure_rate=1.0 / 80.0)
    assert a.scenario_id == d.scenario_id
    assert a.content_hash() != d.content_hash()


def test_campaign_rejects_duplicate_scenarios():
    spec = ScenarioSpec(seed=1)
    with pytest.raises(ValueError, match="duplicate"):
        CampaignSpec(name="dup", scenarios=(spec, spec))


def test_scenario_validation():
    with pytest.raises(ValueError):
        ScenarioSpec(workload="NOT-A-MODEL")
    with pytest.raises(ValueError):
        ScenarioSpec(policy="hope")


# -- result cache ----------------------------------------------------------------------


def test_cache_roundtrip_and_corruption_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path)
    spec = ScenarioSpec(seed=3)
    key = spec.content_hash()
    assert cache.get(key) is None

    payload = {"metrics": {"restarts": 2}, "scenario_id": spec.scenario_id}
    cache.put(key, payload)
    assert cache.get(key) == payload
    assert key in cache and len(cache) == 1

    cache.path(key).write_text("{not json", encoding="utf-8")
    assert cache.get(key) is None  # corrupt entry degrades to a miss

    cache.clear()
    assert len(cache) == 0


def test_cache_invalidates_on_config_change(tmp_path):
    cache = ResultCache(tmp_path)
    base = ScenarioSpec(seed=0, target_iterations=50)
    cache.put(base.content_hash(), {"metrics": {}})
    changed = ScenarioSpec(seed=0, target_iterations=51)
    assert cache.get(changed.content_hash()) is None


# -- aggregation -----------------------------------------------------------------------


def test_percentile_matches_linear_interpolation():
    values = [1.0, 2.0, 3.0, 4.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 4.0
    assert percentile(values, 50) == 2.5
    assert percentile([5.0], 99) == 5.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_aggregate_results_groups_by_workload_and_policy():
    def row(policy, seed, restarts):
        return {
            "scenario": {"workload": "GPT2-S",
                         "policy": policy, "seed": seed},
            "metrics": {"completed": True, "failures": 1,
                        "restarts": float(restarts), "wasted_time": 1.0,
                        "wasted_fraction": 0.1, "goodput": 0.9,
                        "losses_digest": "aaaa"},
        }

    rows = [row("user_jit", s, r) for s, r in enumerate((0, 2, 4))]
    rows += [row("periodic", s, 1) for s in range(2)]

    def by_group(aggregated):
        return {(e["workload"], e["policy"]): e for e in aggregated}

    summary = by_group(aggregate_results(rows))
    jit = summary[("GPT2-S", "user_jit")]
    assert jit["scenarios"] == 3
    assert jit["restarts"]["mean"] == 2.0
    assert jit["restarts"]["p50"] == 2.0
    assert jit["completed"] is True
    assert jit["losses_digest"] == "aaaa"
    assert summary[("GPT2-S", "periodic")]["scenarios"] == 2

    rows[0]["metrics"]["losses_digest"] = "bbbb"
    diverged = by_group(aggregate_results(rows))
    assert diverged[("GPT2-S", "user_jit")]["losses_digest"] == "DIVERGED"


def test_canonical_json_is_key_order_independent():
    assert canonical_json({"b": 1, "a": [2, 3]}) == \
        canonical_json(json.loads('{"a": [2, 3], "b": 1}'))


# -- aggregated runs -------------------------------------------------------------------


def test_streaming_run_matches_batch_aggregate():
    campaign = small_campaign("streaming")
    runner = CampaignRunner(cache=None, workers=4)
    result, streamed = runner.run_aggregated(campaign)
    assert canonical_json(streamed) == canonical_json(result.aggregate())


# -- code fingerprint --------------------------------------------------------------


def test_content_hash_covers_code_fingerprint(monkeypatch):
    from repro.campaign import code_fingerprint
    from repro.campaign import spec as spec_mod

    spec = ScenarioSpec(seed=5)
    base = spec.content_hash()
    fingerprint = code_fingerprint()
    assert fingerprint.endswith(("+fast", "+slow"))

    monkeypatch.setattr(spec_mod, "_source_fingerprint",
                        lambda: "feedfacefeedface")
    assert spec.content_hash() != base


@pytest.mark.parametrize("switch", ["fast_path", "dedup"])
def test_content_hash_covers_each_switch(switch):
    """Either switch claims bitwise equivalence; the cache must never
    serve a result across it, so flipping it changes every hash."""
    from repro import flags

    spec = ScenarioSpec(seed=5)
    with flags.override(**{switch: True}):
        on = spec.content_hash()
    with flags.override(**{switch: False}):
        off = spec.content_hash()
    assert on != off


def test_source_edit_outside_kernel_misses_cache(tmp_path, monkeypatch):
    """Editing any package module — here a recovery strategy in ``core/``,
    not a simulator-kernel layer — must change every content hash, so a
    warm cache misses instead of serving results from the old code."""
    import shutil

    import repro
    from repro.campaign import spec as spec_mod

    package = tmp_path / "repro"
    shutil.copytree(Path(repro.__file__).parent, package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    monkeypatch.setattr(repro, "__file__", str(package / "__init__.py"))
    spec_mod._source_fingerprint.cache_clear()
    try:
        spec = ScenarioSpec(seed=5)
        cache = ResultCache(tmp_path / "cache")
        before = spec.content_hash()
        cache.put(before, {"metrics": {"restarts": 1}})
        assert cache.get(spec.content_hash()) is not None

        with (package / "core" / "user_level.py").open("a") as handle:
            handle.write("\n# edited\n")
        spec_mod._source_fingerprint.cache_clear()
        assert spec.content_hash() != before
        assert cache.get(spec.content_hash()) is None
    finally:
        spec_mod._source_fingerprint.cache_clear()


# -- prefix-fork scheduling ------------------------------------------------------------
# Scenarios of one grid share their failure-free prefix; prefix-fork
# execution simulates that prefix once and forks a copy-on-write child per
# scenario at its first-failure time.  The ``metrics`` sections (and
# therefore every aggregate) must be byte-identical to from-scratch
# execution — only ``perf`` (wall clock, per-process event counts) may
# differ.


def _strip_perf(result):
    return {key: value for key, value in result.items() if key != "perf"}


def _set_have_fork(monkeypatch, have_fork):
    """Run prefix groups with ``os.fork`` or as the platforms without it
    do, each scenario a group of one."""
    from repro.campaign import prefix

    if have_fork and not prefix.HAVE_FORK:
        pytest.skip("os.fork unavailable")
    monkeypatch.setattr(prefix, "HAVE_FORK", have_fork)


def test_prefix_fork_group_matches_from_scratch_byte_identically():
    from repro.campaign.prefix import group_by_prefix, run_prefix_group
    from repro.campaign.runner import _reference_run, prefix_key
    from repro.sim.snapshot import HAVE_FORK

    if not HAVE_FORK:
        pytest.skip("os.fork unavailable")

    campaign = small_campaign("prefix-fork")
    specs = [spec for spec in campaign.scenarios if spec.policy == "user_jit"]
    assert len(specs) == 4
    assert len({prefix_key(spec) for spec in specs}) == 1
    groups = group_by_prefix(list(enumerate(specs)))
    assert [position for position, _ in groups[0]] == [0, 1, 2, 3]

    reference = _reference_run(specs[0])
    forked, failure_free = run_prefix_group(specs, 4, reference)
    forked = [row or failure_free.row(spec, reference)
              for spec, row in zip(specs, forked)]
    scratch = [execute_scenario(spec) for spec in specs]
    assert [canonical_json(_strip_perf(r)) for r in forked] == \
        [canonical_json(_strip_perf(r)) for r in scratch]
    # At least one scenario's schedule actually fired, so divergent tails
    # (not just the shared trajectory) are covered.
    assert any(r["metrics"]["failures"] > 0 for r in forked)


def test_prefix_fork_skips_tails_no_failure_reaches(monkeypatch):
    """Seed 0 fails inside the job; seeds 3 and 5 draw failures inside the
    horizon but only after their job has finished, so their rows reuse
    the shared run: one fork per prefix group.  The run counts once, in
    seed 3's row; seed 5's row is reused.  Serial and pooled runners
    compute the same rows and aggregate as from-scratch execution."""
    from repro.campaign import prefix
    from repro.campaign.runner import (_build_managed_runner, _draw_schedule,
                                       _resolve_workload)
    from repro.sim import Environment
    from repro.sim.snapshot import HAVE_FORK, ForkBranch

    if not HAVE_FORK:
        pytest.skip("os.fork unavailable")
    campaign = CampaignSpec.grid(
        "late-failures", workloads=["GPT2-S"],
        policies=["user_jit", "periodic"], seeds=[0, 3, 5],
        target_iterations=8, failure_rate=1.0 / 30.0, horizon=60.0,
        minibatch_time=0.1, init_costs=(0.5, 0.25, 0.25),
        progress_timeout=10.0)
    scratch = [execute_scenario(spec) for spec in campaign.scenarios]
    lead = campaign.scenarios[0]
    cluster = _build_managed_runner(lead, _resolve_workload(lead),
                                    Environment())[0].manager.cluster
    for spec, row in zip(campaign.scenarios, scratch):
        first = _draw_schedule(spec, cluster)[0].time
        assert (row["metrics"]["failures"] > 0) is (spec.seed == 0)
        if spec.seed != 0:
            assert row["metrics"]["total_time"] < first < spec.horizon

    forks = []

    class CountingBranch(ForkBranch):
        def __init__(self, fn):
            forks.append(fn)
            super().__init__(fn)

    monkeypatch.setattr(prefix, "ForkBranch", CountingBranch)
    expected = [canonical_json(_strip_perf(row)) for row in scratch]
    for workers in (1, 2):
        del forks[:]
        result = CampaignRunner(cache=None, workers=workers).run(campaign)
        if workers == 1:
            # Pool workers fork in their own processes, uncounted here.
            assert len(forks) == 2
        assert [canonical_json(_strip_perf(row))
                for row in result.rows()] == expected
        assert canonical_json(result.aggregate()) == \
            canonical_json(aggregate_results(scratch))
        assert sorted(run.label for run in result.perf.runs) == sorted(
            spec.scenario_id for spec in campaign.scenarios
            if spec.seed != 5)
        assert result.perf.reused == 2
        for row in result.rows():
            if row["scenario"]["seed"] == 5:
                assert row["perf"]["wall_seconds"] == 0


def test_prefix_key_separates_trajectory_shaping_config():
    from repro.campaign.runner import prefix_key

    base = ScenarioSpec(seed=0, policy="user_jit")
    # Seeds and (for user_jit) failure rates shape only the tail.
    assert prefix_key(base) == prefix_key(ScenarioSpec(seed=5,
                                                       policy="user_jit"))
    assert prefix_key(base) == prefix_key(
        ScenarioSpec(seed=0, policy="user_jit", failure_rate=1.0 / 80.0))
    # The periodic policy derives its checkpoint interval from the failure
    # rate, which changes the failure-free trajectory itself.
    per_a = ScenarioSpec(seed=0, policy="periodic", failure_rate=1.0 / 25.0)
    per_b = ScenarioSpec(seed=0, policy="periodic", failure_rate=1.0 / 80.0)
    assert prefix_key(per_a) != prefix_key(per_b)
    assert prefix_key(base) != prefix_key(ScenarioSpec(seed=0,
                                                       policy="periodic"))


def test_prefix_fork_runner_aggregate_is_byte_identical(tmp_path):
    campaign = small_campaign("prefix-runner")
    scratch = [execute_scenario(spec) for spec in campaign.scenarios]
    forked = CampaignRunner(cache=None, workers=1).run(campaign)
    pooled = CampaignRunner(cache=None, workers=2).run(campaign)
    for run in (forked, pooled):
        _assert_rows_match(run, run.aggregate(), scratch)
        assert [o.spec.scenario_id for o in run.outcomes] == \
            [s.scenario_id for s in campaign.scenarios]


def test_runner_rejects_prefix_fork_off():
    with pytest.raises(ValueError, match="execute_scenario"):
        CampaignRunner(prefix_fork=False)


# -- shared reference runs -------------------------------------------------------------
# A campaign runs each distinct failure-free reference (ideal time, events,
# loss digest) once, in the calling process, before dispatching any unit.


def reference_campaign(name="references"):
    """user_jit and periodic x 2 failure rates x 3 seeds: 12 scenarios,
    three prefix groups (periodic splits by rate), one reference key."""
    scenarios = ()
    for rate in (1.0 / 25.0, 1.0 / 40.0):
        scenarios += CampaignSpec.grid(
            name, workloads=["GPT2-S"], policies=["user_jit", "periodic"],
            seeds=[0, 1, 2], target_iterations=6, failure_rate=rate,
            horizon=60.0, minibatch_time=0.1, init_costs=(0.5, 0.25, 0.25),
            progress_timeout=10.0).scenarios
    return CampaignSpec(name=name, scenarios=scenarios)


@pytest.fixture
def reference_jobs(monkeypatch):
    """Workload specs of the reference jobs the campaign runner builds.

    Fails any reference built outside this process (a pool worker or a
    forked prefix-group child), which the parent could not count."""
    import os

    from repro.campaign import runner as runner_mod

    built, parent = [], os.getpid()

    class CountingJob(runner_mod.TrainingJob):
        def __init__(self, spec, *args, **kwargs):
            assert os.getpid() == parent, "reference run outside the runner"
            built.append(spec)
            super().__init__(spec, *args, **kwargs)

    monkeypatch.setattr(runner_mod, "TrainingJob", CountingJob)
    return built


@pytest.fixture(scope="module")
def scratch_rows():
    """From-scratch results of :func:`reference_campaign`, in order."""
    return [execute_scenario(spec)
            for spec in reference_campaign().scenarios]


def test_execute_scenario_computes_its_own_reference(reference_jobs):
    spec = reference_campaign().scenarios[0]
    execute_scenario(spec)
    assert len(reference_jobs) == 1
    execute_scenario(spec)
    assert len(reference_jobs) == 2


@pytest.mark.parametrize("have_fork", [False, True])
@pytest.mark.parametrize("workers", [1, 2])
def test_one_reference_run_per_reference_key(reference_jobs, scratch_rows,
                                             have_fork, workers, tmp_path,
                                             monkeypatch):
    from repro.campaign.runner import prefix_key, reference_key

    _set_have_fork(monkeypatch, have_fork)
    campaign = reference_campaign()
    assert len(campaign) == 12
    assert len({prefix_key(spec) for spec in campaign.scenarios}) == 3
    keys = {reference_key(spec) for spec in campaign.scenarios}
    assert len(keys) == 1

    cache = ResultCache(tmp_path / "cache")
    runner = CampaignRunner(cache=cache, workers=workers)
    result = runner.run(campaign)
    assert len(reference_jobs) == len(keys)
    assert result.executed == 12

    # Same results as from-scratch execution, where every scenario runs
    # its own reference.
    assert canonical_json(result.aggregate()) == \
        canonical_json(aggregate_results(scratch_rows))
    assert [canonical_json(_strip_perf(row)) for row in result.rows()] == \
        [canonical_json(_strip_perf(row)) for row in scratch_rows]
    assert any(row["metrics"]["failures"] > 0 for row in scratch_rows)

    # A fully cached rerun computes no reference at all.
    del reference_jobs[:]
    warm = runner.run(campaign)
    assert warm.executed == 0
    assert reference_jobs == []
    assert canonical_json(warm.aggregate()) == \
        canonical_json(result.aggregate())


def test_reference_key_is_a_projection_of_prefix_key():
    from repro.campaign.runner import prefix_key, reference_key

    specs = [ScenarioSpec(seed=seed, policy=policy, failure_rate=rate,
                          target_iterations=iterations,
                          minibatch_time=minibatch_time)
             for seed in (0, 1) for policy in ("user_jit", "periodic")
             for rate in (1.0 / 25.0, 1.0 / 80.0) for iterations in (6, 8)
             for minibatch_time in (None, 0.1)]
    by_prefix: dict[tuple, set] = {}
    for spec in specs:
        key = reference_key(spec)
        assert prefix_key(spec)[:len(key)] == key
        by_prefix.setdefault(prefix_key(spec), set()).add(key)
    # Equal prefixes imply equal references, never the other way round:
    # policy and (periodic) failure rate split prefixes, not references.
    assert all(len(keys) == 1 for keys in by_prefix.values())
    assert len({reference_key(spec) for spec in specs}) == 4
    assert len(by_prefix) == 4 * 3


def test_campaign_perf_counts_runs_reuse_and_warm_hits(tmp_path):
    """Each pass's perf counts simulated runs apart from the rows a
    group's failure-free run answers after the first; the warm pass is
    all cache hits."""
    campaign = small_campaign("perf")
    cache = ResultCache(tmp_path / "cache")
    passes = [CampaignRunner(cache=cache, workers=1).run(campaign)
              for _ in range(2)]

    runs = sum(len(result.perf.runs) for result in passes)
    reused = sum(result.perf.reused for result in passes)
    assert reused >= 1
    assert runs + reused == len(campaign)
    warm = passes[-1].perf
    assert warm.cache_hits == len(campaign)
    assert warm.cache_hit_rate == 1.0


# -- replica dedup on/off -----------------------------------------------------------------
# Campaign scenarios train untraced, so replica followers engage: DDP
# members ride one leader's op timeline between restarts and periodic
# checkpoints.  Every row must be what dedup off computes.

FOLLOW_GRID = dict(workloads=["GPT2-S"], policies=["user_jit", "periodic"],
                   target_iterations=8, failure_rate=1.0 / 30.0,
                   horizon=60.0, minibatch_time=0.1,
                   init_costs=(0.5, 0.25, 0.25), progress_timeout=10.0)


def _dedup_rows(seeds, dedup):
    from repro import flags

    with flags.override(dedup=dedup):
        runner = CampaignRunner(workers=1, fork_max_live=1)
        result, _ = runner.run_aggregated(
            CampaignSpec.grid("dedup-eq", seeds=seeds, **FOLLOW_GRID))
    return [(row["scenario_id"], row["metrics"], row["perf"]["events"])
            for row in result.rows()]


def _strata(seeds, ideal_time, grid=FOLLOW_GRID):
    """Failures each seed draws inside its job's failure-free window:
    ``none``, ``one-early``/``one-late`` (first or second half) or
    ``several``."""
    from repro.failures import FailureType, PoissonSchedule
    from repro.hardware import Cluster, ClusterSpec
    from repro.sim import Environment
    from repro.workloads import WORKLOADS

    spec = CampaignSpec.grid("strata", seeds=[0], **grid).scenarios[0]
    catalog = WORKLOADS[spec.workload]
    cluster = Cluster(Environment(), ClusterSpec(
        node_spec=catalog.node_spec, num_nodes=catalog.num_nodes))
    mix = tuple((FailureType[name], weight) for name, weight in spec.type_mix)
    window = ideal_time + sum(grid["init_costs"])
    strata = []
    for seed in seeds:
        times = [event.time for event in PoissonSchedule(
            cluster, grid["failure_rate"], horizon=grid["horizon"],
            seed=seed, type_mix=mix).events() if event.time < window]
        strata.append("none" if not times else "several" if len(times) > 1
                      else "one-early" if times[0] < window / 2
                      else "one-late")
    return strata


def test_campaign_rows_identical_with_dedup_on_and_off():
    """user_jit and periodic over a failure-free seed and one seed per
    failing stratum: metrics (loss digest and wasted time
    included) and logical event counts match dedup off row by row."""
    seeds = [2, 0, 11, 4]
    off = _dedup_rows(seeds, False)
    assert _strata(seeds, off[0][1]["ideal_time"]) == [
        "none", "one-early", "one-late", "several"]
    assert _dedup_rows(seeds, True) == off


@pytest.mark.fuzz
@pytest.mark.parametrize("first", [100, 200, 300])
def test_campaign_rows_identical_with_dedup_on_and_off_fuzz(first):
    seeds = list(range(first, first + 30))
    off = _dedup_rows(seeds, False)
    assert "none" in _strata(seeds, off[0][1]["ideal_time"])
    assert _dedup_rows(seeds, True) == off


def test_network_transient_checkpoint_materialises_followers(monkeypatch):
    """A network transient stalls collectives without a GPU epoch bump;
    the JIT watchdog then checkpoints through rescue copies, which must
    materialise the riders first: some rescue copy finds riders with ops
    still queued, and none leaves any.  Rows match dedup off."""
    from repro import flags
    from repro.cuda.runtime import CudaContext

    riding = []
    rescue = CudaContext.rescue_copy_d2h

    def spy(self, device):
        hook = self.follow_hook
        if hook is None:
            return rescue(self, device)

        def queued():
            return any(batch.remaining for follower in hook.__self__._riding
                       for batch in follower.rides)

        before = queued()
        result = rescue(self, device)
        riding.append((before, queued()))
        return result

    monkeypatch.setattr(CudaContext, "rescue_copy_d2h", spy)
    specs = CampaignSpec.grid(
        "net", seeds=[11, 18], **dict(
            FOLLOW_GRID, policies=["user_jit"], failure_rate=1.0 / 10.0,
            type_mix=(("NETWORK_TRANSIENT", 0.5), ("GPU_DRIVER_CORRUPT", 0.2),
                      ("GPU_HARD", 0.2), ("NODE_CRASH", 0.1)))).scenarios

    def rows(dedup):
        with flags.override(dedup=dedup):
            return [(row["metrics"], row["perf"]["events"])
                    for row in map(execute_scenario, specs)]

    on = rows(True)
    assert any(before for before, _after in riding)
    assert not any(after for _before, after in riding)
    assert on == rows(False)


# -- the runner's failure-free memo -------------------------------------------------------
# A runner keeps each reference run for its lifetime and the failure-free
# managed run of every prefix group that finished it because one of its
# scenarios draws no failure the job reaches, a group of one included.  A
# later campaign answers every such scenario from the memo; the others
# still run in prefix groups, whose last tail runs in the calling process.

MEMO_GRID = dict(FOLLOW_GRID, target_iterations=6)


def _stratified_grids(first, count):
    """*count* grids over consecutive seeds from *first*, stratified like
    the benchmark's: each pairs a seed that draws no failure inside the
    job window with one that does, the failing strata in rotation."""
    from repro.campaign.runner import _reference_run

    lead = CampaignSpec.grid("memo", seeds=[first], **MEMO_GRID).scenarios[0]
    ideal_time = _reference_run(lead).ideal_time
    seeds = list(range(first, first + 25 * count))
    pools: dict[str, list[int]] = {}
    for seed, stratum in zip(seeds, _strata(seeds, ideal_time, MEMO_GRID)):
        pools.setdefault(stratum, []).append(seed)
    failing = ("one-early", "one-late", "several")
    return [CampaignSpec.grid(
        f"memo-{first}-{index}",
        seeds=[pools["none"].pop(0), pools[failing[index % 3]].pop(0)],
        **MEMO_GRID) for index in range(count)]


def _scratch(grids):
    return [[execute_scenario(spec) for spec in grid.scenarios]
            for grid in grids]


@pytest.fixture(scope="module")
def memo_grids():
    """Six stratified grids and their from-scratch rows."""
    grids = _stratified_grids(0, 6)
    return grids, _scratch(grids)


@pytest.fixture
def finished_runs(monkeypatch, tmp_path):
    """Counts the failure-free managed runs prefix groups finish, in any
    process (a pool worker or the calling one)."""
    import os

    from repro.campaign import prefix

    log = tmp_path / "finished"
    log.touch()
    memo_entry = prefix.FailureFree

    def counting(**fields):
        with open(log, "a") as handle:
            handle.write(f"{os.getpid()}\n")
        return memo_entry(**fields)

    monkeypatch.setattr(prefix, "FailureFree", counting)
    return lambda: len(log.read_text().split())


@pytest.fixture
def parent_arms(monkeypatch):
    """Failure injectors armed in this process (forked children append to
    their own copy of the list)."""
    from repro.failures import FailureInjector

    armed = []
    arm = FailureInjector.arm

    def spy(self, schedule):
        armed.append(schedule)
        return arm(self, schedule)

    monkeypatch.setattr(FailureInjector, "arm", spy)
    return armed


def _assert_rows_match(result, table, rows):
    assert [canonical_json(_strip_perf(row)) for row in result.rows()] == \
        [canonical_json(_strip_perf(row)) for row in rows]
    assert canonical_json(table) == canonical_json(aggregate_results(rows))


@pytest.mark.parametrize("have_fork", [False, True])
@pytest.mark.parametrize("workers", [1, 2])
def test_runner_memo_pays_each_failure_free_run_once(
        memo_grids, reference_jobs, finished_runs, parent_arms, monkeypatch,
        have_fork, workers):
    """One runner over six consecutive grids: every row and aggregate is
    what from-scratch execution computes; the reference and each prefix
    key's failure-free run are simulated for the first grid only (its
    failure-free seed makes both groups finish the run); later grids
    answer their failure-free seeds from the memo, which leaves each
    failing seed alone in its group, so its tail runs in the calling
    process.  Without ``os.fork`` every scenario is a group of one, and
    the memo fills the same way."""
    from repro.campaign.runner import prefix_key

    _set_have_fork(monkeypatch, have_fork)
    grids, scratch = memo_grids
    assert len({prefix_key(spec) for grid in grids
                for spec in grid.scenarios}) == 2
    runner = CampaignRunner(workers=workers, fork_max_live=1)
    reused = 0
    for index, (grid, rows) in enumerate(zip(grids, scratch)):
        armed = len(parent_arms)
        result, table = runner.run_aggregated(grid)
        _assert_rows_match(result, table, rows)
        assert result.executed == len(grid)
        assert len(result.perf.runs) + result.perf.reused == len(grid)
        if index == 0:
            assert result.perf.reused == 0
        reused += result.perf.reused
        assert len(reference_jobs) == 1
        assert finished_runs() == 2
        if workers == 1:
            # First grid: each group forks its failing tail, or arms it
            # here as a group of one.  Later grids: each failing seed is
            # a group of one, its tail run here.
            assert len(parent_arms) - armed == (
                len(result.perf.runs) if index else 0 if have_fork else 2)
    # Each later grid's failure-free seed, under both policies.
    assert reused == 2 * (len(grids) - 1)


def test_first_failure_at_the_completion_instant_is_simulated(monkeypatch):
    """A failure at exactly the memo's completion instant may still fire
    (from scratch, it is queued at the instant the job ends), so the
    scenario is simulated; one ulp later it can never fire and the row
    comes from the memo.  Both match from-scratch execution."""
    import dataclasses
    import math

    from repro.campaign import prefix
    from repro.campaign import runner as runner_mod

    grid = dict(MEMO_GRID, policies=["user_jit"])
    runner = CampaignRunner(workers=1)
    # Seeds 0-3 include one the job never reaches, so the group finishes
    # its failure-free run and the memo gets the entry.
    runner.run(CampaignSpec.grid("fill", seeds=[0, 1, 2, 3], **grid))
    (entry,) = runner._failure_free.values()

    draw = runner_mod._draw_schedule
    late = [seed for seed in range(40)
            if draw(CampaignSpec.grid("late", seeds=[seed], **grid)
                    .scenarios[0])[:1]
            and draw(CampaignSpec.grid("late", seeds=[seed], **grid)
                     .scenarios[0])[0].time > entry.completion][:2]
    first = {late[0]: entry.completion,
             late[1]: math.nextafter(entry.completion, math.inf)}

    def pinned(spec, cluster=None):
        events = draw(spec, cluster)
        return [dataclasses.replace(events[0], time=first[spec.seed])] + \
            events[1:]

    monkeypatch.setattr(runner_mod, "_draw_schedule", pinned)
    monkeypatch.setattr(prefix, "_draw_schedule", pinned)
    campaign = CampaignSpec.grid("at-completion", seeds=late, **grid)
    rows = [execute_scenario(spec) for spec in campaign.scenarios]
    result, table = runner.run_aggregated(campaign)
    _assert_rows_match(result, table, rows)
    assert [run.label for run in result.perf.runs] == \
        [campaign.scenarios[0].scenario_id]
    assert result.perf.reused == 1


def test_lone_failure_free_scenario_fills_the_memo(
        memo_grids, reference_jobs, finished_runs, monkeypatch):
    """A group of one whose failures never fire finishes the failure-free
    run and fills the memo like any group; a later campaign's scenario
    that the run answers is then served without any simulation."""
    from repro.campaign import prefix

    built = []
    build = prefix._build_managed_runner
    monkeypatch.setattr(prefix, "_build_managed_runner",
                        lambda *args: built.append(args) or build(*args))
    grids, scratch = memo_grids
    quiet = [(spec, row) for grid, rows in zip(grids, scratch)
             for spec, row in zip(grid.scenarios, rows)
             if spec.policy == "user_jit" and not row["metrics"]["failures"]]
    runner = CampaignRunner(workers=1)
    for index, (spec, row) in enumerate(quiet[:2]):
        result, table = runner.run_aggregated(
            CampaignSpec(name=f"lone-{index}", scenarios=(spec,)))
        _assert_rows_match(result, table, [row])
        assert len(result.perf.runs) == 1 - index
        assert result.perf.reused == index
        assert len(built) == len(reference_jobs) == finished_runs() == 1


def test_group_of_failing_scenarios_forks_all_but_the_last_tail(
        memo_grids, parent_arms, finished_runs, monkeypatch):
    """Three scenarios that all fail inside the job form one group: the
    parent forks the two earliest tails and runs the latest itself, so it
    arms one schedule.  That tail completes the run, but not failure
    free, so the memo stays empty."""
    from repro.campaign import prefix
    from repro.campaign.runner import _draw_schedule

    _set_have_fork(monkeypatch, True)
    forks = []

    class CountingBranch(prefix.ForkBranch):
        def __init__(self, fn):
            forks.append(fn)
            super().__init__(fn)

    monkeypatch.setattr(prefix, "ForkBranch", CountingBranch)
    grids, scratch = memo_grids
    failing = [(spec, row) for grid, rows in zip(grids, scratch)
               for spec, row in zip(grid.scenarios, rows)
               if spec.policy == "user_jit" and row["metrics"]["failures"]]
    campaign = CampaignSpec(
        name="failing", scenarios=tuple(spec for spec, _row in failing[:3]))
    runner = CampaignRunner(workers=1)
    result, table = runner.run_aggregated(campaign)
    _assert_rows_match(result, table, [row for _spec, row in failing[:3]])
    assert len(forks) == 2
    latest = max(campaign.scenarios,
                 key=lambda spec: _draw_schedule(spec)[0].time)
    assert parent_arms == [_draw_schedule(latest)]
    assert len(result.perf.runs) == 3
    assert finished_runs() == 0
    assert runner._failure_free == {}


def test_periodic_failure_rates_never_share_a_memo_entry():
    """The periodic interval follows the failure rate, so each rate keeps
    its own failure-free run; serving one rate's rows from the other's
    would change their metrics."""
    runner = CampaignRunner(workers=1)
    for rate in (1.0 / 25.0, 1.0 / 40.0, 1.0 / 25.0):
        campaign = CampaignSpec.grid(
            "periodic-rates", seeds=[0, 1, 2],
            **dict(MEMO_GRID, policies=["periodic"], failure_rate=rate))
        rows = [execute_scenario(spec) for spec in campaign.scenarios]
        _assert_rows_match(*runner.run_aggregated(campaign), rows)
    entries = list(runner._failure_free.values())
    assert len(entries) == 2
    assert entries[0].interval_iterations != entries[1].interval_iterations


@pytest.mark.parametrize("workload", ["GPT2-S", "T5-3B", "GPT2-18B"])
def test_launch_topology_draw_matches_the_managed_cluster(workload):
    """The runner draws schedules on a bare launch cluster; every draw
    (node-level failures included) equals the draw on the cluster the
    scenario's managed runner builds."""
    from repro.campaign.runner import (_build_managed_runner, _draw_schedule,
                                       _resolve_workload)
    from repro.sim import Environment

    mix = (("GPU_HARD", 0.4), ("NODE_CRASH", 0.3),
           ("NETWORK_TRANSIENT", 0.3))
    for seed in range(4):
        spec = ScenarioSpec(workload=workload, seed=seed, policy="periodic",
                            failure_rate=1.0 / 30.0, horizon=300.0,
                            type_mix=mix)
        runner, _ = _build_managed_runner(spec, _resolve_workload(spec),
                                          Environment())
        events = _draw_schedule(spec)
        assert events, seed
        assert events == _draw_schedule(spec, runner.manager.cluster)


def test_reused_rows_are_reported_apart_from_runs():
    """Memo-served rows ran no simulation: they count as ``reused``, not
    as ``runs``, in ``describe()`` and the report's perf section."""
    from repro.tools.report import report_perf

    campaign = CampaignSpec.grid("reused", seeds=[0, 1, 2, 3],
                                 **dict(MEMO_GRID, policies=["user_jit"]))
    runner = CampaignRunner(workers=1)
    for result in [runner.run(campaign) for _ in range(2)]:
        assert result.perf.reused >= 1
        assert len(result.perf.runs) + result.perf.reused == len(campaign)
        assert f" / {result.perf.reused} reused / " in result.perf.describe()
    memo = report_perf(json_mode=True)["campaign_memo"]
    assert memo["reused"] >= 1
    assert memo["executed"] + memo["reused"] == 3


@pytest.mark.fuzz
@pytest.mark.parametrize("first", [1000, 2000, 3000])
def test_runner_memo_pays_each_failure_free_run_once_fuzz(first,
                                                          finished_runs):
    grids = _stratified_grids(first, 12)
    runner = CampaignRunner(workers=1, fork_max_live=1)
    for grid, rows in zip(grids, _scratch(grids)):
        _assert_rows_match(*runner.run_aggregated(grid), rows)
    assert finished_runs() == 2

"""Jobs built from per-process templates.

Everything a build derives from the spec alone (initial weights per
shard, flattened FSDP units, logical-byte shares, the optimizer's flat
layout, the dataset teacher) is computed once per process and handed out
as copies of read-only arrays.  A warm build (template hit) must be
bitwise a cold one, with replica dedup on and off, and no job may write
through to the template.  With dedup on, the non-leader members of each
replica group are born bound to the leader's arrays.
"""

import pytest

from repro import flags
from repro.core.replay_log import ZeroFill
from repro.core.transparent import TransparentJitSystem
from repro.cuda.memory import BufferKind
from repro.framework import data, dedup, models, optim
from repro.parallel import fsdp
from repro.parallel.deviceapi import DeviceApi
from repro.parallel.topology import ParallelLayout
from repro.sim import Environment
from repro.workloads import TrainingJob

from tests.conftest import make_spec

LAYOUTS = {
    "ddp": dict(layout=ParallelLayout(dp=4)),
    "ddp-dropout": dict(layout=ParallelLayout(dp=4), dropout=0.1),
    "3d": dict(layout=ParallelLayout(dp=2, pp=2, tp=2), engine="3d"),
    "fsdp-hybrid": dict(layout=ParallelLayout(dp=16), engine="fsdp",
                        num_nodes=2),
    "fsdp-full": dict(layout=ParallelLayout(dp=16), engine="fsdp",
                      num_nodes=2, fsdp_hybrid=False),
}
TEMPLATE_CACHES = (models.model_shard, fsdp.fsdp_template, data._teacher,
                   optim._flat_layout)


def _spec(layout: str):
    return make_spec(name="TEMPLATE", **LAYOUTS[layout])


def _go_cold() -> None:
    for cache in TEMPLATE_CACHES:
        cache.cache_clear()


def _template_hits() -> int:
    return sum(cache.cache_info().hits for cache in TEMPLATE_CACHES)


def _bits(array) -> tuple:
    return (array.dtype.str, array.shape, array.tobytes())


def _snapshot(job: TrainingJob) -> dict:
    """Everything a build leaves behind that a template could change."""
    ranks = []
    for engine, ctx in zip(job.engines, job.contexts):
        groups = {}
        for group in ("param_buffers", "opt_buffers"):
            groups[group] = [(name, buf.kind, buf.label, buf.logical_nbytes,
                              _bits(buf.array))
                             for name, buf in getattr(engine, group).items()]
        ranks.append({
            **groups,
            "allocated_bytes": ctx.gpu.allocated_bytes,
            "buffers": [(buf.kind, buf.label, buf.logical_nbytes,
                         _bits(buf.array))
                        for buf in ctx.buffers.values()],
            "step_count": engine.optimizer.step_count,
        })
    return {"ranks": ranks, "teacher": _bits(job.dataset._teacher),
            "arenas": len(job.dedup_arenas)}


def _losses(job: TrainingJob) -> list:
    return job.run_training(2)


@pytest.mark.parametrize("dedup_on", [True, False], ids=["dedup", "private"])
@pytest.mark.parametrize("layout", list(LAYOUTS))
def test_warm_build_equals_cold_build(layout, dedup_on):
    spec = _spec(layout)
    with flags.override(dedup=dedup_on):
        _go_cold()
        cold = TrainingJob(spec)
        cold_state = _snapshot(cold)
        hits = _template_hits()
        warm = TrainingJob(spec)
        assert _template_hits() > hits
        assert _snapshot(warm) == cold_state
        assert _losses(warm) == _losses(cold)


def test_ddp_build_allocates_456_buffers():
    """GPT2-S DDP: 4 ranks x (38 parameters + 76 Adam moments)."""
    for dedup_on in (True, False):
        with flags.override(dedup=dedup_on):
            job = TrainingJob(_spec("ddp"))
        assert sum(len(ctx.buffers) for ctx in job.contexts) == 456


def _proxy_mallocs(job: TrainingJob) -> list:
    out = []
    for api in job.apis:
        for record in api.log.creation_records:
            if record.method != "malloc":
                continue
            vbuf = record.produced
            contents = record.initial_contents
            out.append((api.rank, vbuf.label, vbuf.kind, vbuf.logical_nbytes,
                        vbuf.allocation_tag,
                        ("zero", contents.shape) if type(contents) is ZeroFill
                        else _bits(contents)))
    return out


@pytest.mark.parametrize("dedup_on", [True, False], ids=["dedup", "private"])
def test_transparent_proxy_build_warm_equals_cold(dedup_on):
    spec = _spec("ddp")

    def build():
        system = TransparentJitSystem(Environment(), spec)
        job = system.build_job()
        return job, _proxy_mallocs(job)

    with flags.override(dedup=dedup_on):
        _go_cold()
        cold, cold_mallocs = build()
        warm, warm_mallocs = build()
    assert len(cold_mallocs) == 456
    assert warm_mallocs == cold_mallocs
    assert _snapshot(warm) == _snapshot(cold)


def test_templates_are_read_only_and_never_reach_the_next_job():
    spec = _spec("ddp")
    shard = models.model_shard(spec.config, spec.seed)
    before = [array.copy() for array in shard.arrays()]
    for array in shard.arrays():
        with pytest.raises(ValueError):
            array[...] = 0.0
    template = fsdp.fsdp_template(spec.config, spec.seed, 8)
    with pytest.raises(ValueError):
        template.flats[0][0] = 1.0

    for dedup_on in (True, False):
        with flags.override(dedup=dedup_on):
            job = TrainingJob(spec)
            for engine in job.engines:
                for buf in engine.param_buffers.values():
                    buf.array += 1.0
            nxt = TrainingJob(spec)
        for array, original in zip(shard.arrays(), before):
            assert _bits(array) == _bits(original)
        for engine in nxt.engines:
            arrays = [buf.array for buf in engine.param_buffers.values()]
            assert len(arrays) == len(before)
            for array, original in zip(arrays, before):
                assert _bits(array) == _bits(original)
                assert array.flags.writeable


def test_dataset_shares_one_read_only_batch_per_iteration():
    spec = _spec("3d")
    job = TrainingJob(spec)
    x, y = job.dataset.global_minibatch(3)
    assert job.dataset.global_minibatch(3)[0] is x
    with pytest.raises(ValueError):
        x[0, 0] = 1.0
    shard_x, _ = job.dataset.shard(3, 1, 2)
    assert shard_x.base is x or shard_x.base is x.base
    assert data._teacher(spec.seed, spec.config.d_model,
                         spec.config.n_classes) is job.dataset._teacher


# -- born bound ------------------------------------------------------------------------


def test_ddp_replicas_are_born_bound(monkeypatch):
    """Dedup on: one Adam per 4-rank DDP build, and members 1-3 allocate
    their parameter and moment buffers over the leader's arrays, so the
    arena never rebinds anyone."""
    adams, groups = [], []
    adam_init = optim.Adam.__init__
    malloc_group = DeviceApi.malloc_group

    def counting_adam(self, *args, **kwargs):
        adams.append(self)
        adam_init(self, *args, **kwargs)

    def recording_malloc_group(api, arrays, kind, shares, prefix=""):
        groups.append((api.rank, kind, dict(arrays)))
        return malloc_group(api, arrays, kind, shares, prefix)

    def no_rebinding(arena, engine):
        raise AssertionError("a born-bound member was rebound")

    monkeypatch.setattr(optim.Adam, "__init__", counting_adam)
    monkeypatch.setattr(DeviceApi, "malloc_group", recording_malloc_group)
    monkeypatch.setattr(dedup.ReplicaArena, "_bind_member", no_rebinding)
    with flags.override(dedup=True):
        job = TrainingJob(_spec("ddp"))
    assert len(adams) == 1
    leader = job.engines[0]
    arena = job.dedup_arenas[0]
    assert arena.optimizer is adams[0]
    canonical = {BufferKind.PARAM: leader.param_buffers,
                 BufferKind.OPTIMIZER_STATE: leader.opt_buffers}
    bound = [(rank, kind, arrays) for rank, kind, arrays in groups if rank]
    assert len(bound) == 6
    for rank, kind, arrays in bound:
        for name, array in arrays.items():
            assert array is canonical[kind][name].array, (rank, name)
    for engine in job.engines[1:]:
        assert isinstance(engine.optimizer, dedup.MemberOptimizer)
        for name, array in arena.params.items():
            assert engine.param_buffers[name].array is array
        layer = engine.blocks[0]
        assert layer is not leader.blocks[0]
        assert layer.wq is leader.blocks[0].wq

    adams.clear()
    with flags.override(dedup=False):
        job = TrainingJob(_spec("ddp"))
    assert len(adams) == 4
    first, second = job.engines[0], job.engines[1]
    for name, buf in first.param_buffers.items():
        assert second.param_buffers[name].array is not buf.array


def test_arena_refuses_members_that_own_state():
    with flags.override(dedup=False):
        job = TrainingJob(_spec("ddp"))
    with pytest.raises(ValueError, match="born bound"):
        dedup.ReplicaArena(job.engines, group_math=True)

"""Tests for the workload catalogue and the job builder."""

import pytest

from repro.hardware import GpuHealth
from repro.parallel.topology import ParallelLayout
from repro.tools import report
from repro.workloads import TrainingJob, WORKLOADS
from repro.workloads.catalog import A100_TRANSPARENT_VARIANTS

from tests.conftest import make_spec


# -- catalogue integrity ---------------------------------------------------------------


def test_catalog_matches_paper_table2():
    expected = {
        "GPT2-S": (0.124e9, "4D-1P-1T", "Megatron-DS"),
        "GPT2-S-3D": (0.124e9, "2D-2P-2T", "Megatron-DS"),
        "GPT2-XL": (1.5e9, "2D-2P-2T", "Megatron-DS"),
        "GPT2-8B": (8.3e9, "2D-4P-2T", "Megatron-DS"),
        "GPT2-18B": (18e9, "2D-4P-4T", "Megatron-DS"),
        "BERT-L-PT": (0.334e9, "8D-1P-1T", "Megatron"),
        "BERT-B-FT": (0.110e9, "8D-1P-1T", "Hugging Face"),
        "T5-3B": (3e9, "8D-1P-1T", "PyTorch"),
        "ViT": (0.632e9, "8D-1P-1T", "PyTorch"),
        "PyramidNet": (0.24e9, "4D-1P-1T", "PyTorch"),
    }
    assert set(WORKLOADS) == set(expected)
    for name, (params, layout, framework) in expected.items():
        spec = WORKLOADS[name]
        assert spec.config.n_params == int(params), name
        assert spec.layout.describe() == layout, name
        assert spec.framework == framework, name


def test_every_workload_fits_its_cluster():
    for spec in list(WORKLOADS.values()) + list(
            A100_TRANSPARENT_VARIANTS.values()):
        capacity = spec.num_nodes * spec.node_spec.gpus_per_node
        assert spec.world_size <= capacity, spec.name
        # Per-rank state must fit in device memory.
        assert (spec.cost_model().checkpoint_bytes_local
                < spec.node_spec.gpu.memory_bytes), spec.name


def test_every_workload_calibrates_to_its_minibatch_time():
    for spec in WORKLOADS.values():
        cost = spec.cost_model()
        compute = cost.minibatch_compute_time(spec.node_spec.gpu)
        wall_estimate = compute * spec.pipeline_fill_factor
        assert wall_estimate == pytest.approx(spec.minibatch_time, rel=0.1), \
            spec.name


def test_pipeline_fill_factor():
    spec = WORKLOADS["GPT2-8B"]      # pp=4, 2 microbatches
    assert spec.pipeline_fill_factor == pytest.approx(2.5)
    assert WORKLOADS["BERT-L-PT"].pipeline_fill_factor == 1.0


# -- builder ---------------------------------------------------------------------------


def test_builder_rejects_oversized_jobs():
    spec = make_spec(layout=ParallelLayout(dp=64), num_nodes=1)
    with pytest.raises(RuntimeError, match="cannot place"):
        TrainingJob(spec, spare_nodes=0)


@pytest.mark.parametrize("dedup_on", [True, False], ids=["dedup", "private"])
def test_builder_rejects_an_indivisible_global_batch(dedup_on, monkeypatch):
    """dp=12 cannot split 16 samples: the job refuses to build, with or
    without replica arenas, before any engine or simulation exists."""
    from repro import flags
    from repro.parallel.ddp import DataParallelEngine
    from repro.sim import Environment

    built = []
    monkeypatch.setattr(DataParallelEngine, "__init__",
                        lambda *args, **kwargs: built.append(args))
    env = Environment()
    spec = make_spec(layout=ParallelLayout(dp=12), num_nodes=2,
                     global_batch=16)
    with flags.override(dedup=dedup_on):
        with pytest.raises(ValueError,
                           match="global batch 16 not divisible by dp=12"):
            TrainingJob(spec, env=env)
    assert not built
    assert env.events_processed == 0 and env.now == 0


def test_builder_places_node_major():
    spec = make_spec(layout=ParallelLayout(dp=12), num_nodes=2,
                     global_batch=24)
    job = TrainingJob(spec)
    assert job.contexts[0].node.name == "node0"
    assert job.contexts[8].node.name == "node1"


def test_builder_skips_dead_gpus():
    spec = make_spec(layout=ParallelLayout(dp=4))
    probe = TrainingJob(spec)   # builds the cluster
    cluster = probe.cluster
    cluster.gpu_by_id("node0/gpu1").fail(GpuHealth.DEAD)
    job = TrainingJob(spec, env=probe.env, cluster=cluster)
    used = {ctx.gpu.gpu_id for ctx in job.contexts}
    assert "node0/gpu1" not in used
    assert len(used) == 4


def test_builder_swaps_in_spare_when_needed():
    spec = make_spec(layout=ParallelLayout(dp=8))
    probe = TrainingJob(spec, spare_nodes=1)
    cluster = probe.cluster
    cluster.gpu_by_id("node0/gpu0").fail(GpuHealth.DEAD)
    job = TrainingJob(spec, env=probe.env, cluster=cluster)
    assert {ctx.node.name for ctx in job.contexts} == {"spare0"}


def test_teardown_aborts_comms_and_frees_memory():
    spec = make_spec(layout=ParallelLayout(dp=2))
    job = TrainingJob(spec)
    job.run_training(2)
    assert all(ctx.gpu.allocated_bytes > 0 for ctx in job.contexts)
    job.teardown()
    assert all(comm.aborted for comm in job.nccl_world.communicators)
    assert all(ctx.gpu.allocated_bytes == 0 for ctx in job.contexts)


def test_comm_cost_reflects_topology():
    spec = make_spec(layout=ParallelLayout(dp=12), num_nodes=2,
                     global_batch=24)
    job = TrainingJob(spec)
    intra = job.comm_cost([0, 1])          # same node: NVLink
    inter = job.comm_cost([0, 8])          # across nodes: InfiniBand
    assert intra.bandwidth > inter.bandwidth
    assert intra.latency < inter.latency


# -- report tool -------------------------------------------------------------------------


def test_report_tool_all_sections(capsys):
    assert report.main([]) == 0
    out = capsys.readouterr().out
    assert "Table 3" in out and "Table 8" in out
    assert "$      30,000/month" in out
    assert "jit+periodic" in out


def test_report_tool_single_section(capsys):
    assert report.main(["s51"]) == 0
    out = capsys.readouterr().out
    assert "Table 3" not in out and "Section 5.1" in out


def test_report_tool_unknown_section(capsys):
    assert report.main(["nope"]) == 2

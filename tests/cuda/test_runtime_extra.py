"""Additional CUDA runtime coverage: event reuse, stream teardown,
multi-stream synchronisation, default-stream semantics."""

import numpy as np
import pytest

from repro.cuda import BufferKind, CudaApiError, CudaContext, CudaError
from repro.cuda.memory import HostBuffer
from repro.hardware import Cluster, ClusterSpec, GpuMemoryError
from repro.sim import Environment


@pytest.fixture
def ctx():
    env = Environment()
    cluster = Cluster(env, ClusterSpec(num_nodes=1))
    node = cluster.nodes[0]
    return CudaContext(env, node.gpus[0], node)


def run(env, gen):
    return env.run(until=env.process(gen))


def test_event_is_reusable_across_records(ctx):
    """Real cudaEvents are re-recordable; each record re-arms the event."""
    stream = ctx.create_stream()
    event = ctx.create_event()
    times = []

    def flow():
        for duration in (1.0, 2.0):
            ctx.launch_kernel(stream, "k", duration)
            ctx.event_record(event, stream)
            yield from ctx.event_synchronize(event)
            times.append(ctx.env.now)

    run(ctx.env, flow())
    assert times == [pytest.approx(1.0), pytest.approx(3.0)]


def test_record_rearms_triggered_event(ctx):
    stream = ctx.create_stream()
    event = ctx.create_event()
    ctx.event_record(event, stream)
    ctx.env.run(until=0.1)
    assert ctx.event_query(event) is CudaError.SUCCESS
    ctx.launch_kernel(stream, "slow", 5.0)
    ctx.event_record(event, stream)
    assert ctx.event_query(event) is CudaError.NOT_READY


def test_default_stream_used_when_none_given(ctx):
    executed = []
    ctx.launch_kernel(ctx.default_stream, "k", 0.1,
                      lambda: executed.append(1))

    def flow():
        yield from ctx.stream_synchronize()  # no stream argument

    run(ctx.env, flow())
    assert executed == [1]


def test_device_synchronize_waits_for_all_streams(ctx):
    streams = [ctx.create_stream() for _ in range(3)]
    for i, stream in enumerate(streams):
        ctx.launch_kernel(stream, f"k{i}", float(i + 1))

    def flow():
        yield from ctx.device_synchronize()

    run(ctx.env, flow())
    assert ctx.env.now == pytest.approx(3.0)


def test_stream_destroy_rejects_new_work(ctx):
    stream = ctx.create_stream()
    stream.destroy()
    with pytest.raises(CudaApiError):
        ctx.launch_kernel(stream, "k", 0.1)


def test_context_destroy_frees_all_memory(ctx):
    ctx.malloc(np.zeros(4), BufferKind.PARAM, logical_nbytes=1000)
    ctx.malloc(np.zeros(4), BufferKind.ACTIVATION, logical_nbytes=500)
    assert ctx.gpu.allocated_bytes == 1500
    ctx.destroy()
    assert ctx.gpu.allocated_bytes == 0
    with pytest.raises(CudaApiError):
        ctx.malloc(np.zeros(2), BufferKind.PARAM)


def test_malloc_group_allocates_like_single_mallocs(ctx):
    arrays = {"w": np.ones(3), "b": np.zeros(2)}
    bufs = ctx.malloc_group(arrays, BufferKind.PARAM, {"w": 700, "b": 300},
                            prefix="p:")
    assert [(b.label, b.logical_nbytes) for b in bufs.values()] == [
        ("p:w", 700), ("p:b", 300)]
    assert bufs["w"].array is arrays["w"]
    assert ctx.gpu.allocated_bytes == 1000
    assert list(ctx.buffers.values()) == list(bufs.values())


def test_malloc_group_out_of_memory_fails_where_mallocs_would(ctx):
    free = ctx.gpu.free_bytes
    with pytest.raises(GpuMemoryError):
        ctx.malloc_group({"a": np.zeros(1), "b": np.zeros(1)},
                         BufferKind.PARAM, {"a": free - 10, "b": 20})
    # The first buffer fit and stays allocated, as with two mallocs.
    assert ctx.gpu.allocated_bytes == free - 10
    assert [b.label for b in ctx.buffers.values()] == ["a"]


def test_wait_event_on_already_triggered_event_is_noop(ctx):
    s1, s2 = ctx.create_stream(), ctx.create_stream()
    event = ctx.create_event()
    ctx.event_record(event, s1)
    ctx.env.run(until=0.1)          # event triggers (empty stream)
    ctx.stream_wait_event(s2, event)
    done = []
    ctx.launch_kernel(s2, "k", 0.1, lambda: done.append(ctx.env.now))

    def flow():
        yield from ctx.stream_synchronize(s2)

    run(ctx.env, flow())
    assert done and done[0] == pytest.approx(0.2)


def test_h2d_then_kernel_ordering_on_one_stream(ctx):
    """A kernel enqueued after an H2D copy sees the copied data."""
    stream = ctx.create_stream()
    buf = ctx.malloc(np.zeros(4), BufferKind.INPUT_DATA)
    host = HostBuffer(np.full(4, 7.0))
    seen = []
    ctx.memcpy_h2d_async(buf, host, stream=stream)
    ctx.launch_kernel(stream, "consume", 0.01,
                      lambda: seen.append(buf.array.copy()))

    def flow():
        yield from ctx.stream_synchronize(stream)

    run(ctx.env, flow())
    np.testing.assert_array_equal(seen[0], np.full(4, 7.0))


def test_checksum_reflects_buffer_contents(ctx):
    buf = ctx.malloc(np.zeros(4), BufferKind.PARAM)
    before = buf.checksum()
    buf.array[0] = 5.0
    assert buf.checksum() != before


def test_two_contexts_share_one_gpu_memory_budget(ctx):
    other = CudaContext(ctx.env, ctx.gpu, ctx.node)
    ctx.malloc(np.zeros(2), BufferKind.PARAM,
               logical_nbytes=ctx.gpu.spec.memory_bytes - 100)
    from repro.hardware import GpuMemoryError

    with pytest.raises(GpuMemoryError):
        other.malloc(np.zeros(2), BufferKind.PARAM, logical_nbytes=200)

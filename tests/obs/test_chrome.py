"""Chrome trace-event export: schema checks on real traced runs.

Exports must be valid Trace Event Format — loadable by
chrome://tracing and Perfetto — for a DDP run, a 3D run, and a
recovery-bearing strategy run (spans + recovery phases + storage
events on one timeline).
"""

import json

import pytest

from repro.obs import chrome_trace, chrome_trace_events, write_chrome_trace
from repro.parallel.topology import ParallelLayout
from repro.sim import Tracer
from repro.workloads import TrainingJob
from tests.conftest import make_spec

VALID_PHASES = {"M", "X", "i"}


def _check_schema(events):
    assert events, "trace export must not be empty"
    for event in events:
        assert event["ph"] in VALID_PHASES
        assert event["pid"] == 1
        assert isinstance(event["tid"], int)
        if event["ph"] == "M":
            assert event["name"] == "thread_name"
            assert event["args"]["name"]
        elif event["ph"] == "X":
            assert isinstance(event["ts"], float)
            assert event["dur"] >= 0.0
            assert event["name"]
        else:
            assert isinstance(event["ts"], float)
            assert event["s"] == "t"
    # Metadata must name every thread id used by any record.
    named = {e["tid"] for e in events if e["ph"] == "M"}
    used = {e["tid"] for e in events if e["ph"] != "M"}
    assert used <= named
    # The whole payload must be plain JSON.
    json.dumps(events)


def _traced_job(**kwargs):
    tracer = Tracer(enabled=True)
    job = TrainingJob(make_spec(**kwargs), tracer=tracer)
    return job, tracer


def test_ddp_run_exports_valid_trace():
    job, tracer = _traced_job(layout=ParallelLayout(dp=2))
    job.run_training(3)
    events = chrome_trace_events(tracer)
    _check_schema(events)
    # Iteration spans from the device-API hooks made it into the export.
    spans = [e for e in events if e.get("cat") == "span"
             and e["name"] == "iteration"]
    assert len(spans) == 3 * 2            # iterations x ranks
    # op_done interval records carry real durations.
    assert any(e.get("cat") == "op_done" and e["dur"] > 0 for e in events)


def test_3d_run_exports_valid_trace():
    job, tracer = _traced_job(engine="3d",
                              layout=ParallelLayout(dp=2, pp=2, tp=2))
    job.run_training(2)
    events = chrome_trace_events(tracer)
    _check_schema(events)
    assert any(e.get("cat") == "span" and e["name"] == "iteration"
               for e in events)


def test_recovery_run_exports_valid_trace(tmp_path):
    from repro.oracle.oracle import RecoveryOracle
    from repro.oracle.schedule import FailurePoint, FailureSchedule

    oracle = RecoveryOracle(iterations=8)
    schedule = FailureSchedule(points=(
        FailurePoint(3, "GPU_HARD", 1, offset=0.4),))
    run = oracle.run(schedule, "transparent")
    events = chrome_trace_events(run.tracer)
    _check_schema(events)
    # The hard-error episode and its phases are spans on the recovery track.
    tracks = {e["args"]["name"]: e["tid"] for e in events if e["ph"] == "M"}
    recovery = [e for e in events
                if e["ph"] == "X" and e["tid"] == tracks["recovery/rank1#0"]]
    assert all(e["cat"] == "span" for e in recovery)
    (episode,) = [e for e in recovery if e["name"] == "hard"]
    phases = [e["name"] for e in recovery if e is not episode]
    assert phases == ["delete_comms_handles", "jit_checkpoint",
                      "criu_checkpoint", "migrate", "restore",
                      "recreate_comms", "recreate_handles", "replay"]
    # Phases nest under the episode (depth 1, inside its interval).
    (outer,) = run.tracer.filter_spans(actor="recovery/rank1#0", name="hard")
    for span in run.tracer.filter_spans(actor="recovery/rank1#0"):
        if span is not outer:
            assert span.depth == outer.depth + 1
            assert outer.start <= span.start <= span.end <= outer.end
    assert any(e.get("cat") == "event" and e["name"] == "failure"
               for e in events)

    # Round-trip through the file writer: valid JSON with the envelope.
    path = tmp_path / "run.json"
    write_chrome_trace(path, run.tracer, label="test")
    loaded = json.loads(path.read_text(encoding="utf-8"))
    assert loaded["displayTimeUnit"] == "ms"
    assert loaded["otherData"]["label"] == "test"
    assert loaded["traceEvents"] == json.loads(
        json.dumps(chrome_trace_events(run.tracer)))


def test_export_is_deterministic():
    job, tracer = _traced_job(layout=ParallelLayout(dp=2))
    job.run_training(2)
    first = chrome_trace(tracer, label="a")
    second = chrome_trace(tracer, label="a")
    assert json.dumps(first, sort_keys=True) == json.dumps(second,
                                                           sort_keys=True)

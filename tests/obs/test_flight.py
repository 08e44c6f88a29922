"""Flight recorder: bounded timeline ring + failing-vs-golden diffs.

The acceptance test seeds a deliberately broken strategy
(``skip_rng_rewind``) and proves the oracle's failing verdict ships a
flight-recorder dump whose diff pinpoints where the failing run's
timeline departs from the golden run's.
"""

from repro.core.telemetry import RecoveryTelemetry
from repro.obs import DEFAULT_CAPACITY, FlightRecorder, flight_dump, timeline_diff
from repro.sim import Environment, Tracer


def _tracer_with(lines):
    tracer = Tracer(enabled=True)
    for index, action in enumerate(lines):
        tracer.record(float(index), "actor", action)
    return tracer


def test_ring_is_bounded():
    recorder = FlightRecorder(capacity=10)
    recorder.capture(_tracer_with([f"op{i}" for i in range(50)]))
    assert len(recorder) == 10
    dump = recorder.dump()
    assert "op49" in dump and "op40" in dump and "op39" not in dump


def test_identical_timelines_diff_to_nothing():
    a = _tracer_with(["fwd", "bwd", "step"])
    b = _tracer_with(["fwd", "bwd", "step"])
    assert "identical" in timeline_diff(a, b)


def test_diff_pinpoints_divergence():
    golden = _tracer_with(["fwd", "bwd", "step"])
    failing = _tracer_with(["fwd", "bwd", "replay"])
    diff = timeline_diff(failing, golden)
    assert "--- golden" in diff and "+++ failing" in diff
    assert "-" in diff and "replay" in diff


def test_timeline_merges_spans_and_telemetry():
    env = Environment()
    tracer = Tracer(enabled=True)
    handle = tracer.begin_span(0.5, "rank0", "iteration", iteration=0)
    tracer.end_span(handle, 1.5)
    telemetry = RecoveryTelemetry(env, tracer)
    assert telemetry.tracer is tracer
    record = telemetry.start("hard", rank=0)
    telemetry.finish(record)
    recorder = FlightRecorder()
    recorder.capture(tracer)
    text = recorder.dump()
    assert "iteration" in text
    assert "recovery/rank0#0" in text and " hard " in text


def test_open_records_render_without_crashing():
    env = Environment()
    tracer = Tracer(enabled=True)
    telemetry = RecoveryTelemetry(env, tracer)
    record = telemetry.start("hard", rank=1)
    telemetry.begin(record, "replay")        # never ended: run aborted
    tracer.begin_span(0.0, "rank1", "iteration", iteration=3)
    assert record.finished_at is None
    tracer.close_open_spans(2.0)
    dump = flight_dump(tracer)
    episode = next(line for line in dump.splitlines() if " hard " in line)
    phase = next(line for line in dump.splitlines() if " replay " in line)
    assert "recovery/rank1#0" in episode and "recovery/rank1#0" in phase
    assert "aborted=True" in episode and "aborted=True" in phase


def test_telemetry_close_open_marks_aborted():
    env = Environment()
    tracer = Tracer(enabled=True)
    telemetry = RecoveryTelemetry(env, tracer)
    record = telemetry.start("hard", rank=0)
    telemetry.begin(record, "replay")
    (phase, episode) = tracer.close_open_spans(5.0)
    assert (phase.name, episode.name) == ("replay", "hard")
    assert phase.end == 5.0 and phase.detail["aborted"]
    assert episode.end == 5.0 and episode.detail["aborted"]
    assert record.finished_at == 5.0
    assert record.recovery_time == 5.0 - record.detected_at
    assert record.breakdown() == {"replay": 5.0 - record.detected_at}
    # Idempotent: nothing left open on a second pass.
    assert tracer.close_open_spans(9.0) == []
    assert record.finished_at == 5.0


def test_oracle_attaches_flight_dump_on_mutation_failure():
    """Seeded mutation proof: a broken RNG rewind fails the oracle AND the
    failing verdict carries a timeline diff against the golden run."""
    from repro.oracle.oracle import RecoveryOracle, default_oracle_spec
    from repro.oracle.schedule import FailurePoint, FailureSchedule

    spec = default_oracle_spec(dropout=0.1)
    oracle = RecoveryOracle(spec=spec, iterations=10,
                            mutations=("skip_rng_rewind",))
    schedule = FailureSchedule(points=(
        FailurePoint(3, "GPU_DRIVER_CORRUPT", 1, offset=0.4),))
    verdict = oracle.check(schedule, "transparent")
    assert not verdict.passed
    assert verdict.flight_dump is not None
    assert "flight recorder: failing run" in verdict.flight_dump
    assert "timeline diff (golden vs failing)" in verdict.flight_dump
    assert "--- golden" in verdict.flight_dump
    assert "+++ failing" in verdict.flight_dump
    # The dump stays bounded no matter how long the run was.
    assert len(verdict.flight_dump.splitlines()) < 3 * DEFAULT_CAPACITY + 20

    # Passing checks stay lean: no dump, but a balanced ledger.
    clean = RecoveryOracle(spec=spec, iterations=10)
    good = clean.check(schedule, "transparent")
    assert good.passed and good.flight_dump is None
    assert good.ledger is not None and good.ledger.balanced


def test_flight_records_env_var_sets_default_capacity(monkeypatch):
    import pytest

    from repro.obs import default_capacity

    monkeypatch.delenv("REPRO_FLIGHT_RECORDS", raising=False)
    assert default_capacity() == DEFAULT_CAPACITY
    assert FlightRecorder().capacity == DEFAULT_CAPACITY

    monkeypatch.setenv("REPRO_FLIGHT_RECORDS", "7")
    assert default_capacity() == 7
    recorder = FlightRecorder()
    assert recorder.capacity == 7
    recorder.extend(str(i) for i in range(20))
    assert len(recorder) == 7
    assert recorder.lines == [str(i) for i in range(13, 20)]

    # Junk and non-positive values fall back to the default.
    for junk in ("zero", "", "-3", "0"):
        monkeypatch.setenv("REPRO_FLIGHT_RECORDS", junk)
        assert default_capacity() == DEFAULT_CAPACITY

    # An explicit capacity always wins over the environment.
    monkeypatch.setenv("REPRO_FLIGHT_RECORDS", "50")
    assert FlightRecorder(capacity=3).capacity == 3
    with pytest.raises(ValueError, match="capacity"):
        FlightRecorder(capacity=0)

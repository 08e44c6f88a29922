"""Parent side of one benchmark run: spawn workers, time set-up, assemble.

Set-up time is measured from outside, from spawning a fresh worker
process to its ``ready`` message, so it covers interpreter start,
imports, input generation and reference state.  An untraced run samples
it ``SETUP_SAMPLES`` times (the last sample is the worker that then runs
the ops) and reports the median.  Every worker is stopped, and waited
for, before :func:`run` returns.
"""

from __future__ import annotations

import json
import os
import queue
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from bench.probe import HOST_REF_PROBE_MS, probe_ms

ROOT = Path(__file__).resolve().parent.parent
CONFIG_PATH = ROOT / "BENCHMARK.json"
MESSAGE_PREFIX = "@bench "
SETUP_SAMPLES = 3
#: A run that has not finished after this long is killed and fails.
DEADLINE_S = 170.0

#: Units of the context values printed beside the end-to-end metrics.
CONTEXT_UNITS = {"op_p90_ms": "ms",
              "host.raw_ops_per_s": "1/s", "host.raw_op_p50_ms": "ms",
              "host.raw_op_p90_ms": "ms", "host.probe_ms": "ms",
              "host.raw_setup_s": "s"}


class BenchError(RuntimeError):
    """A worker failed to produce a result (crash, timeout, bad output)."""


def config() -> dict:
    with open(CONFIG_PATH) as f:
        return json.load(f)


def workload_names() -> list[str]:
    return [w["name"] for w in config()["workloads"]]


def run_seconds() -> float:
    return float(config()["run_seconds"])


def checkout_ok() -> bool:
    return (ROOT / "src" / "repro" / "__init__.py").is_file()


@dataclass
class Result:
    """One run's outcome; ``metrics`` holds exactly the declared names."""

    mode: str
    attempted: int
    failed: int
    problems: int
    quoted: list[str]
    metrics: dict[str, float]
    units: dict[str, str]
    context: dict[str, float] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.problems == 0

    def output(self) -> dict:
        return {"correct": self.correct, "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {name: {"value": value, "unit": self.units[name]}
                            for name, value in self.metrics.items()}}


class _Worker:
    """One ``bench.worker`` process and the messages it sends."""

    def __init__(self, worker_config: dict, deadline: float):
        self.deadline = deadline
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "bench.worker", json.dumps(worker_config)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONHASHSEED": "0"},
            start_new_session=True)
        self._messages: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            if line.startswith(MESSAGE_PREFIX):
                self._messages.put((time.perf_counter(),
                                    json.loads(line[len(MESSAGE_PREFIX):])))
            else:
                sys.stderr.write(line)
        self._messages.put((time.perf_counter(), None))

    def _remaining(self) -> float:
        return max(0.0, self.deadline - time.perf_counter())

    def expect(self, key: str):
        """(arrival time, value) of the next message, which must be *key*."""
        try:
            when, message = self._messages.get(timeout=self._remaining())
        except queue.Empty:
            raise BenchError(f"worker timed out before reporting {key!r}")
        if message is None or key not in message:
            raise BenchError(f"worker exited before reporting {key!r}")
        return when, message[key]

    def __enter__(self) -> "_Worker":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        timed_out = False
        if exc_type is None:
            try:
                self.proc.wait(timeout=self._remaining())
            except subprocess.TimeoutExpired:
                timed_out = True
        if self.proc.poll() is None:
            # The worker leads its own process group: this also stops any
            # campaign tails it forked.
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
        self._reader.join()
        self.proc.stdout.close()
        if exc_type is None:
            if timed_out:
                raise BenchError("worker did not exit before the deadline")
            if self.proc.returncode != 0:
                raise BenchError(f"worker exited with {self.proc.returncode}")


def run(name: str, mode: str, seed: int, seconds: float,
        scale: float) -> Result:
    """One untraced (``run``) or traced (``trace``) run of workload *name*."""
    cfg = config()
    declared = cfg["end_to_end" if mode == "run" else "per_layer"]
    units = {m["name"]: m["unit"] for m in declared}
    deadline = time.perf_counter() + DEADLINE_S
    base = {"workload": name, "seed": seed, "seconds": seconds,
            "scale": scale}
    samples = SETUP_SAMPLES if mode == "run" else 1
    raw_setups, setups = [], []
    for sample in range(samples):
        last = sample == samples - 1
        before = probe_ms()
        with _Worker({**base, "mode": mode if last else "setup"},
                     deadline) as worker:
            ready, _ = worker.expect("ready")
            _, after = worker.expect("probe_ms")
            raw = ready - worker.started
            raw_setups.append(raw)
            setups.append(raw * HOST_REF_PROBE_MS
                          / statistics.median([before, after]))
            if last:
                _, payload = worker.expect("result")
    metrics = payload["metrics"]
    context = payload["context"]
    if mode == "run":
        metrics["setup_s"] = statistics.median(setups)
        context["host.raw_setup_s"] = statistics.median(raw_setups)
        units.update(CONTEXT_UNITS)
    else:
        metrics["host.raw_setup_s"] = raw_setups[0]
    extra = set(metrics) - {m["name"] for m in declared}
    if extra:
        raise BenchError(f"{name} reported undeclared metrics {sorted(extra)}")
    # A layer or op kind the workload never exercises reads 0.
    ordered = {m["name"]: float(metrics.get(m["name"], 0.0)) for m in declared}
    return Result(mode=mode, attempted=payload["attempted"],
                  failed=payload["failed"], problems=payload["problems"],
                  quoted=payload["quoted"], metrics=ordered, units=units,
                  context=context)


def table(name: str, result: Result) -> str:
    """Human-readable metric table for one run."""
    label = "traced" if result.mode == "trace" else "untraced"
    lines = [f"== {name} ({label}): {result.attempted} ops attempted, "
             f"{result.failed} failed, correct={result.correct}"]
    for metric, value in [*result.metrics.items(), *result.context.items()]:
        lines.append(f"  {metric:<30} {value:>14.6g} {result.units[metric]}")
    lines.extend(f"  ! {problem}" for problem in result.quoted)
    return "\n".join(lines)

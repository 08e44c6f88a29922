"""Self-tests of the benchmark: ``python -m pytest bench/tests``.

Tiny runs only (one or two ops per workload), so the file stays fast.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import pytest

from bench import compare, layers, runner
from bench.probe import probe_ms
from bench.worker import run_ops, trace_metrics, use_checkout_src

use_checkout_src()

from bench.workloads import WORKLOADS, CkptChurn  # noqa: E402

CONFIG = runner.config()
E2E = [m["name"] for m in CONFIG["end_to_end"]]
PER_LAYER = [m["name"] for m in CONFIG["per_layer"]]
WORKLOAD_NAMES = [w["name"] for w in CONFIG["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_benchmark_json_shape():
    assert set(CONFIG) == {"command", "paths", "run_seconds", "workloads",
                           "end_to_end", "per_layer"}
    assert 2 <= len(CONFIG["workloads"]) <= 8
    assert 1 <= len(CONFIG["end_to_end"]) <= 16
    assert 1 <= len(CONFIG["per_layer"]) <= 128
    assert isinstance(CONFIG["run_seconds"], int)
    assert 1 <= CONFIG["run_seconds"] <= 60
    names = WORKLOAD_NAMES + E2E + PER_LAYER
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in CONFIG["workloads"]:
        assert set(workload) == {"name", "why"}
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200
    for metric in CONFIG["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 <= metric["bound"] <= 0.25
    for metric in CONFIG["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    setup = next(m for m in CONFIG["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in CONFIG["end_to_end"])
    assert set(WORKLOADS) == set(WORKLOAD_NAMES)


def test_every_per_layer_metric_names_what_it_should_move():
    assert set(layers.MAPPING) == set(PER_LAYER)
    for workload, e2e in layers.MAPPING.values():
        assert workload in WORKLOAD_NAMES or workload == "*"
        assert e2e in E2E


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_traced_run_reports_only_declared_metrics(name):
    cls = WORKLOADS[name]
    metrics, failed, problems = trace_metrics(cls, 3, cls(3), probe_ms(), 1)
    assert failed == 0 and not problems
    assert set(metrics) | {"host.raw_setup_s"} <= set(PER_LAYER)
    # The named layers (and fork waits) account for nearly all of the
    # traced wall time; "other" is the small remainder.
    assert 0 <= metrics["other.self_s"] <= 0.25 * metrics["trace.wall_s"]


@pytest.mark.parametrize("trace", ["0", "1"])
def test_cli_prints_every_declared_metric(trace):
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", "ckpt-churn",
         "--seed", "5", "--trace", trace, "--scale", "0.02"],
        cwd=runner.ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    assert list(result["metrics"]) == (PER_LAYER if trace == "1" else E2E)


def test_counts_repeat_exactly():
    def counts():
        metrics, _, _ = trace_metrics(CkptChurn, 11, CkptChurn(11),
                                      probe_ms(), 12)
        unit = {m["name"]: m["unit"] for m in CONFIG["per_layer"]}
        return {k: v for k, v in metrics.items() if unit[k] == "count"}

    first, second = counts(), counts()
    assert first == second
    assert first["storage.writes"] > 0 and first["hashlib.digests"] > 0


def test_corrupted_restore_payload_fails_the_op(monkeypatch):
    from repro.core.checkpoints import CheckpointRegistry

    original = CheckpointRegistry.read_validated

    def corrupting(self, key):
        state = yield from original(self, key)
        name = sorted(state["params"])[0]
        state["params"][name].reshape(-1).view("u1")[0] ^= 1
        return state

    monkeypatch.setattr(CheckpointRegistry, "read_validated", corrupting)
    timeline = run_ops(CkptChurn(7), probe_ms(), n_ops=2)
    assert timeline.failed == 2
    assert any("restored wrong bits" in p for p in timeline.problems)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(runner.ROOT / "bench", tmp_path / "bench")
    shutil.copy(runner.CONFIG_PATH, tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", "ckpt-churn",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_compare_verdicts():
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]
    faster = [v * 0.8 for v in parent]
    slower = [v * 1.3 for v in parent]
    assert compare.verdict(parent, faster, "lower", 0.1)[0] == "improved"
    assert compare.verdict(parent, slower, "lower", 0.1)[0] == "regressed"
    assert compare.verdict(parent, parent, "lower", 0.1) == ("ok", 0.0)
    noisy = [50.0, 150.0, 80.0, 120.0, 100.0, 60.0, 140.0, 90.0, 110.0, 100.0]
    assert compare.verdict(noisy, noisy, "higher", 0.1)[0] == "unresolved"

"""Per-layer attribution of a profiled run, and what each layer should move.

A layer is a ``repro`` subpackage (``repro/<layer>/...``) or one of the
stdlib/third-party modules the simulator spends measurable time in
(numpy, hashlib, copy, fractions).  Self time is cProfile ``tottime``
rolled up by the layer of the function's file.  Built-in functions
(``len``, ``isinstance``, dict methods...) have no file: their time is
split across their callers' layers using cProfile's per-caller edge
times, unless the built-in belongs to numpy or hashlib itself.

This module does not import ``repro``; :func:`resolve_counted` imports
the counted functions by name in the worker, after ``src`` is on the path.
"""

from __future__ import annotations

import importlib
from typing import Optional

#: Layers reported as ``<layer>.self_s``, in table order.
LAYERS = ("sim", "cuda", "nccl", "parallel", "framework", "hardware",
          "numpy", "core", "cluster", "failures", "storage", "hashlib",
          "copy", "obs", "fractions", "oracle", "campaign")

_STDLIB_LAYERS = {"hashlib.py": "hashlib", "copy.py": "copy",
                  "fractions.py": "fractions"}

#: Metric -> functions whose cProfile call count it sums.  Names are
#: ``module:qualname``; ``~:<name>`` is a built-in as cProfile names it.
#: Only plain (non-generator) functions are counted: cProfile counts a
#: generator once per resumption.
COUNTED = {
    "sim.timeouts": ("repro.sim.core:Environment.timeout",
                     "repro.sim.core:Environment.timeout_at"),
    "cuda.enqueues": ("repro.cuda.stream:CudaStream.enqueue",),
    "nccl.collectives": ("repro.nccl.communicator:NcclCommunicator._enqueue",),
    "core.replays": ("repro.core.proxy:DeviceProxyApi.replay",),
    "cluster.restarts": ("repro.workloads.builder:TrainingJob.teardown",),
    "failures.injected": ("repro.failures.injector:FailureInjector._apply",),
    "storage.writes": ("repro.storage.objects:StoredObject.__init__",),
    "storage.reads": ("repro.storage.objects:StoredObject.payload",),
    "storage.torn": ("repro.storage.stores:TornWriteError.__init__",),
    "storage.quarantined": ("repro.storage.stores:_BaseStore.quarantine",),
    "storage.lists": ("repro.storage.stores:_BaseStore.list",),
    "storage.verifies": ("repro.storage.validate:CheckpointValidator.verify",),
    "hashlib.digests": ("~:<built-in method _hashlib.openssl_sha256>",),
    "copy.deepcopies": ("copy:deepcopy",),
    "obs.trace_records": ("repro.sim.trace:Tracer.record",),
    "obs.ledgers": ("repro.obs.ledger:build_strategy_ledger",),
    "campaign.forks": ("repro.sim.snapshot:ForkBranch.__init__",),
}

#: Counted during set-up (a separate profile), not during the ops.
SETUP_COUNTED = {
    "oracle.golden_runs": ("repro.workloads.builder:TrainingJob.run_training",),
}

#: Functions whose self time (and that of the built-ins they call) is the
#: fork-parent blocked on a forked campaign tail.
FORK_WAIT = ("repro.sim.snapshot:ForkBranch.result",
             "repro.sim.snapshot:_read_payload")


def resolve(name: str) -> tuple:
    """cProfile's key ``(filename, firstlineno, funcname)`` for *name*."""
    module, qualname = name.split(":")
    if module == "~":
        return ("~", 0, qualname)
    obj = importlib.import_module(module)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    if isinstance(obj, property):
        obj = obj.fget
    code = obj.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def resolve_counted(table: dict) -> dict[str, tuple]:
    return {metric: tuple(resolve(name) for name in names)
            for metric, names in table.items()}


def count_calls(stats: dict, keys: dict[str, tuple]) -> dict[str, int]:
    """Primitive call counts (recursion counted once) per metric."""
    return {metric: sum(stats[key][0] for key in funcs if key in stats)
            for metric, funcs in keys.items()}


def layer_of_file(filename: str) -> Optional[str]:
    path = filename.replace("\\", "/")
    if "/repro/" in path:
        sub = path.rsplit("/repro/", 1)[1].split("/")
        if len(sub) > 1 and sub[0] in LAYERS:
            return sub[0]
        return None
    if "/numpy/" in path:
        return "numpy"
    return _STDLIB_LAYERS.get(path.rsplit("/", 1)[-1])


def _builtin_layer(funcname: str) -> Optional[str]:
    if "numpy" in funcname:
        return "numpy"
    if "_hashlib" in funcname or "_blake2" in funcname:
        return "hashlib"
    return None


def rollup(stats: dict, fork_wait_keys: tuple) -> dict[str, float]:
    """Self seconds per layer, plus ``fork_wait``, from pstats' ``stats``.

    Time no layer claims (the benchmark's own code, other stdlib, and
    built-ins called from them) is left out; the caller reports it as
    ``other`` against the measured wall time.
    """
    totals = {layer: 0.0 for layer in LAYERS}
    totals["fork_wait"] = 0.0
    waiting = set(fork_wait_keys)

    def owner(key) -> Optional[str]:
        if key in waiting:
            return "fork_wait"
        return layer_of_file(key[0])

    for key, (_cc, _nc, tottime, _ct, callers) in stats.items():
        filename, _line, funcname = key
        if filename != "~":
            layer = owner(key)
            if layer is not None:
                totals[layer] += tottime
            continue
        layer = _builtin_layer(funcname)
        if layer is not None:
            totals[layer] += tottime
            continue
        for caller, edge in callers.items():
            layer = owner(caller)
            if layer is not None:
                totals[layer] += edge[2]
    return totals


#: Per-layer metric -> (workload, end-to-end metric it should move).  A
#: workload named here is where a change to the layer shows; on the
#: workloads that bypass the layer (see README) the prediction is no
#: change.  Counts and simulated quantities predict nothing by
#: themselves: they explain a move of the metric named.
MAPPING: dict[str, tuple[str, str]] = {
    **{f"{layer}.self_s": ("train-steady", "ops_per_s")
       for layer in ("sim", "cuda", "nccl", "parallel", "framework",
                     "hardware", "numpy")},
    **{f"{layer}.self_s": ("oracle-sweep", "ops_per_s")
       for layer in ("core", "cluster", "failures")},
    **{f"{layer}.self_s": ("ckpt-churn", "ops_per_s")
       for layer in ("storage", "hashlib", "copy")},
    **{f"{layer}.self_s": ("oracle-sweep", "ops_per_s")
       for layer in ("obs", "fractions", "oracle")},
    "campaign.self_s": ("campaign-grid", "ops_per_s"),
    "other.self_s": ("oracle-sweep", "ops_per_s"),
    "campaign.fork_wait_s": ("campaign-grid", "ops_per_s"),
    "sim.events": ("train-steady", "ops_per_s"),
    "sim.timeouts": ("train-steady", "ops_per_s"),
    "cuda.enqueues": ("train-steady", "ops_per_s"),
    "nccl.collectives": ("train-steady", "ops_per_s"),
    "core.replays": ("oracle-sweep", "ops_per_s"),
    "cluster.restarts": ("oracle-sweep", "ops_per_s"),
    "failures.injected": ("oracle-sweep", "ops_per_s"),
    "storage.writes": ("ckpt-churn", "ops_per_s"),
    "storage.reads": ("ckpt-churn", "ops_per_s"),
    "storage.torn": ("ckpt-churn", "ops_per_s"),
    "storage.quarantined": ("ckpt-churn", "ops_per_s"),
    "storage.lists": ("ckpt-churn", "ops_per_s"),
    "storage.verifies": ("ckpt-churn", "ops_per_s"),
    "storage.verifies_per_restore": ("ckpt-churn", "ops_per_s"),
    "hashlib.digests": ("ckpt-churn", "ops_per_s"),
    "copy.deepcopies": ("ckpt-churn", "ops_per_s"),
    "obs.trace_records": ("oracle-sweep", "ops_per_s"),
    "obs.ledgers": ("oracle-sweep", "ops_per_s"),
    "obs.sim_goodput": ("oracle-sweep", "ops_per_s"),
    "oracle.golden_runs": ("oracle-sweep", "setup_s"),
    "oracle.non_exact": ("oracle-sweep", "ops_per_s"),
    "campaign.forks": ("campaign-grid", "ops_per_s"),
    "campaign.prefix_reuse_frac": ("campaign-grid", "ops_per_s"),
    "core.detection_sim_s": ("oracle-sweep", "ops_per_s"),
    "core.restart_sim_s": ("oracle-sweep", "ops_per_s"),
    "core.rework_sim_s": ("oracle-sweep", "ops_per_s"),
    "core.idle_sim_s": ("oracle-sweep", "ops_per_s"),
    "core.wasted_sim_s": ("campaign-grid", "ops_per_s"),
    "storage.save_p50_ms": ("ckpt-churn", "op_p50_ms"),
    "storage.save_p90_ms": ("ckpt-churn", "ops_per_s"),
    "storage.restore_p50_ms": ("ckpt-churn", "op_p50_ms"),
    "storage.restore_p90_ms": ("ckpt-churn", "ops_per_s"),
    "storage.gc_p50_ms": ("ckpt-churn", "op_p50_ms"),
    "parallel.ddp_p50_ms": ("train-steady", "op_p50_ms"),
    "parallel.3d_p50_ms": ("train-steady", "op_p50_ms"),
    "parallel.fsdp_p50_ms": ("train-steady", "op_p50_ms"),
    **{f"core.{strategy}_p50_ms": ("oracle-sweep", "op_p50_ms")
       for strategy in ("transparent", "swift", "user_level", "periodic",
                        "adaptive", "gemini")},
    # Host context: the raw counterparts of the normalized metrics, on
    # every workload ("*").  A slower host raises the probe and the raw
    # timings together and leaves the normalized ones where they were.
    "host.probe_ms": ("*", "ops_per_s"),
    "host.raw_ops_per_s": ("*", "ops_per_s"),
    "host.raw_op_p50_ms": ("*", "op_p50_ms"),
    "host.raw_setup_s": ("*", "setup_s"),
    "trace.wall_s": ("*", "ops_per_s"),
    "trace.overhead": ("*", "ops_per_s"),
}

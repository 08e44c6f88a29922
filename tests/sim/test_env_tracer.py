"""A run's tracer is its environment's.

Every component records into ``env.tracer`` of the environment it was
built on, so no constructor takes a tracer of its own and nothing wires
one in after the fact.  ``TrainingJob(tracer=)`` survives only as
shorthand for the environment the job creates itself.
"""

import ast
from pathlib import Path

import pytest

from repro.failures import FailureEvent, FailureInjector, FailureType
from repro.hardware import Cluster, ClusterSpec
from repro.sim import Environment, Tracer
from repro.storage import SharedObjectStore
from repro.workloads import TrainingJob
from tests.conftest import make_spec

_SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: The only constructors that take a tracer: the environment owns it, and
#: a job that creates its environment passes it on.
_TRACER_OWNERS = {"Environment", "TrainingJob"}


def test_environment_tracer_defaults_to_disabled():
    assert not Environment().tracer.enabled
    tracer = Tracer()
    assert Environment(tracer).tracer is tracer


def test_components_on_a_traced_environment_record_into_it():
    env = Environment(Tracer())
    cluster = Cluster(env, ClusterSpec(num_nodes=1))
    injector = FailureInjector(env, cluster)
    injector.arm([FailureEvent(1.0, FailureType.GPU_HARD, "node0/gpu1")])
    store = SharedObjectStore(env, bandwidth=1e9)

    def writer():
        yield from store.write("ckpt/rank0", {"x": 1}, nbytes=1e6)

    env.process(writer())
    env.run()
    records = {(event.actor, event.action) for event in env.tracer.events}
    assert ("injector", "failure") in records
    assert ("node0/gpu1", "gpu_fail") in records
    assert (store.name, "store_write") in records


def test_training_job_tracer_is_its_own_environments():
    tracer = Tracer()
    job = TrainingJob(make_spec(), tracer=tracer)
    assert job.env.tracer is tracer
    assert not TrainingJob(make_spec()).env.tracer.enabled


def test_training_job_rejects_env_and_tracer_together():
    with pytest.raises(ValueError, match="env.tracer"):
        TrainingJob(make_spec(), env=Environment(), tracer=Tracer())


def _tracer_violations(tree: ast.AST, path: str) -> list[str]:
    found = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef) or cls.name in _TRACER_OWNERS:
            continue
        for item in cls.body:
            if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                args = item.args
                names = [a.arg for a in args.posonlyargs + args.args
                         + args.kwonlyargs]
                if "tracer" in names:
                    found.append(f"{path}:{item.lineno}: {cls.name}.__init__ "
                                 f"takes a tracer")
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for sub in ast.walk(target):
                if (isinstance(sub, ast.Attribute) and sub.attr == "tracer"
                        and not (isinstance(sub.value, ast.Name)
                                 and sub.value.id == "self")):
                    found.append(f"{path}:{node.lineno}: assigns "
                                 f"{ast.unparse(sub)}")
    return found


def test_no_component_takes_or_is_handed_a_tracer():
    """Structural guard: the run's tracer stays on its environment."""
    violations = []
    for path in sorted(_SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        violations += _tracer_violations(tree, str(path.relative_to(_SRC)))
    assert not violations, "\n".join(violations)


def test_guard_catches_a_tracer_parameter_and_an_outside_assignment():
    source = (
        "class Gpu:\n"
        "    def __init__(self, env, tracer=None):\n"
        "        self.tracer = tracer\n"
        "def wire(store, tracer):\n"
        "    store.tracer = tracer\n")
    violations = _tracer_violations(ast.parse(source), "example.py")
    assert len(violations) == 2
    assert "Gpu.__init__" in violations[0]
    assert "store.tracer" in violations[1]

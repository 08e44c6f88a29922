"""Cluster topology: nodes on a fabric, plus a spare pool for migration.

The scheduler draws replacement nodes from the spare pool when a hard GPU
error forces migration (Section 4.3 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hardware.gpu import Gpu
from repro.hardware.network import Fabric
from repro.hardware.node import Node
from repro.hardware.specs import INFINIBAND_HDR, InterconnectSpec, NodeSpec, V100_NODE
from repro.sim import Environment


@dataclass
class ClusterSpec:
    """How to build a cluster: node type, active count, and spares."""

    node_spec: NodeSpec = field(default_factory=lambda: V100_NODE)
    num_nodes: int = 1
    spare_nodes: int = 1
    interconnect: InterconnectSpec = field(default_factory=lambda: INFINIBAND_HDR)


class Cluster:
    """All hardware for one simulation: nodes, spares, and the fabric."""

    def __init__(self, env: Environment, spec: ClusterSpec):
        self.env = env
        self.spec = spec
        self.fabric = Fabric(env, spec.interconnect)
        self.nodes: list[Node] = []
        self._spares: list[Node] = []
        for i in range(spec.num_nodes):
            self.nodes.append(self._make_node(f"node{i}"))
        for i in range(spec.spare_nodes):
            self._spares.append(self._make_node(f"spare{i}"))

    def _make_node(self, name: str) -> Node:
        uplink = self.fabric.register_node(name)
        return Node(self.env, self.spec.node_spec, name, uplink)

    # -- lookups ---------------------------------------------------------------

    @property
    def gpus(self) -> list[Gpu]:
        """All GPUs of active (non-spare) nodes, in node-major order."""
        return [gpu for node in self.nodes for gpu in node.gpus]

    def node_of(self, gpu: Gpu) -> Node:
        for node in self.nodes + self._spares:
            if gpu in node.gpus:
                return node
        raise KeyError(f"{gpu.gpu_id} not in cluster")

    def gpu_by_id(self, gpu_id: str) -> Gpu:
        for gpu in self.gpus:
            if gpu.gpu_id == gpu_id:
                return gpu
        raise KeyError(gpu_id)

    # -- spare management --------------------------------------------------------

    @property
    def spares_available(self) -> int:
        return len(self._spares)

    def replace_node(self, failed: Node) -> Node:
        """Swap *failed* out of the active set for a spare node."""
        if not self._spares:
            raise RuntimeError("no spare nodes available for replacement")
        replacement = self._spares.pop(0)
        index = self.nodes.index(failed)
        self.nodes[index] = replacement
        self.env.tracer.record(self.env.now, "cluster", "replace_node",
                               failed=failed.name, replacement=replacement.name)
        return replacement

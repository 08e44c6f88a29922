"""Interconnect fabric: NVLink within a node, InfiniBand across nodes.

The fabric answers two questions for the NCCL layer:

* what is the bottleneck bandwidth/latency between a set of ranks
  (determines collective duration), and
* is any link on the path failed (determines whether a collective hangs,
  which is the trigger for just-in-time checkpointing).
"""

from __future__ import annotations

import enum
from typing import Iterable

from repro.hardware.specs import InterconnectSpec
from repro.sim import Environment


class LinkHealth(enum.Enum):
    UP = "up"
    #: Transient fault (congestion / flap): traffic stalls until the link
    #: recovers, which models the "transient network error" class.
    DEGRADED = "degraded"
    DOWN = "down"


class Link:
    """One inter-node link (we model the node uplink, not per-cable detail)."""

    def __init__(self, env: Environment, name: str, spec: InterconnectSpec):
        self.env = env
        self.name = name
        self.spec = spec
        self._health = LinkHealth.UP

    @property
    def health(self) -> LinkHealth:
        return self._health

    @property
    def is_up(self) -> bool:
        return self._health is LinkHealth.UP

    def fail(self, health: LinkHealth = LinkHealth.DEGRADED) -> None:
        if health is LinkHealth.UP:
            raise ValueError("use repair() to bring a link up")
        self._health = health
        self.env.tracer.record(self.env.now, self.name, "link_fail",
                               health=health.value)

    def repair(self) -> None:
        self._health = LinkHealth.UP
        self.env.tracer.record(self.env.now, self.name, "link_repair")


class Fabric:
    """Topology-aware bandwidth and health lookups between GPUs."""

    def __init__(self, env: Environment, interconnect: InterconnectSpec):
        self.env = env
        self.interconnect = interconnect
        #: node name -> uplink Link
        self._uplinks: dict[str, Link] = {}

    def register_node(self, node_name: str) -> Link:
        link = Link(self.env, f"uplink:{node_name}", self.interconnect)
        self._uplinks[node_name] = link
        return link

    def uplink(self, node_name: str) -> Link:
        return self._uplinks[node_name]

    def path_is_up(self, node_names: Iterable[str]) -> bool:
        """True when every distinct node on the path has a healthy uplink.

        A single-node group communicates over NVLink only and never touches
        the fabric, so it is always up.
        """
        names = set(node_names)
        if len(names) <= 1:
            return True
        return all(self._uplinks[name].is_up for name in names)

    def bottleneck_bandwidth(self, node_names: Iterable[str],
                             nvlink_bandwidth: float) -> float:
        """Per-hop ring bandwidth for a group spanning *node_names*."""
        names = set(node_names)
        if len(names) <= 1:
            return nvlink_bandwidth
        return min(self.interconnect.bandwidth, nvlink_bandwidth)

    def latency(self, node_names: Iterable[str]) -> float:
        names = set(node_names)
        if len(names) <= 1:
            return 1e-6  # NVLink hop
        return self.interconnect.latency

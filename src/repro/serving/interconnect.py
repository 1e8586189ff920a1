"""Deterministic inter-region link model for the geo serving tier.

The geo tier treats the wide-area network as a static topology of
identical links: every hop costs a fixed base latency (propagation +
switching) plus the store-and-forward serialisation time of the
request payload over the link bandwidth.  Comm-time between two
regions is therefore

    ``hops(src, dst) * (base_latency + payload_bits / bandwidth)``

— a pure function of the endpoints and payload size, with no queueing
state, so the geo router can tabulate every pair's delay once per run
and geo runs stay deterministic and mergeable.

Three stock topologies cover the shapes real fleets deploy:

- **ring**: regions on a cycle; hop count is the shorter cyclic
  distance (cheap links, diameter grows with region count);
- **mesh**: a full crossbar; every remote region is one hop away
  (the flat "every region peers with every region" ideal);
- **tree**: regions as nodes of a complete binary tree; hop count is
  the path through the lowest common ancestor (hub-and-spoke
  hierarchies, worst diameter but fewest links).

Intra-region traffic never touches the interconnect: ``delay(r, r,
...)`` is exactly ``0.0``, which is what makes a single-region geo run
bit-identical to the plain cluster engine.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError

#: Link topologies :class:`Interconnect` understands.
TOPOLOGIES = ("ring", "mesh", "tree")

#: Default per-request payload: one 224x224 RGB frame (bytes), the
#: input tensor every zoo CNN consumes.
REQUEST_BYTES = 224 * 224 * 3


@dataclass(frozen=True)
class Interconnect:
    """A static inter-region network: topology + identical links.

    Attributes:
        regions: number of regions (nodes).
        topology: one of :data:`TOPOLOGIES`.
        bandwidth_gbps: per-link bandwidth (Gbit/s).
        base_latency_us: per-hop base latency (microseconds) —
            propagation plus switching, charged once per hop.
    """

    regions: int
    topology: str = "mesh"
    bandwidth_gbps: float = 10.0
    base_latency_us: float = 50.0

    def __post_init__(self) -> None:
        if self.regions < 1:
            raise ConfigError("interconnect needs at least one region")
        if self.topology not in TOPOLOGIES:
            raise ConfigError(
                f"unknown topology '{self.topology}'; known: "
                f"{', '.join(TOPOLOGIES)}"
            )
        if self.bandwidth_gbps <= 0:
            raise ConfigError("link bandwidth must be positive")
        if self.base_latency_us < 0:
            raise ConfigError("base latency must be >= 0")

    def _check(self, region: int) -> None:
        if not 0 <= region < self.regions:
            raise ConfigError(f"region index {region} outside "
                              f"[0, {self.regions})")

    def hops(self, src: int, dst: int) -> int:
        """Link hops between two regions (0 for ``src == dst``)."""
        self._check(src)
        self._check(dst)
        if src == dst:
            return 0
        if self.topology == "mesh":
            return 1
        if self.topology == "ring":
            d = abs(src - dst)
            return min(d, self.regions - d)
        # tree: regions are nodes of a complete binary tree in heap
        # order; walk both endpoints up to their lowest common
        # ancestor, counting edges.
        a, b, count = src, dst, 0
        while a != b:
            if a > b:
                a = (a - 1) // 2
            else:
                b = (b - 1) // 2
            count += 1
        return count

    def diameter(self) -> int:
        """The worst-case hop count over all region pairs."""
        return max(self.hops(a, b)
                   for a in range(self.regions)
                   for b in range(self.regions))

    def delay(self, src: int, dst: int,
              nbytes: int = REQUEST_BYTES) -> float:
        """Comm-time (s) to move ``nbytes`` from ``src`` to ``dst``.

        Store-and-forward: every hop charges the base latency plus the
        full serialisation time of the payload.  Exactly ``0.0`` when
        ``src == dst``.
        """
        if nbytes < 0:
            raise ConfigError("payload size must be >= 0")
        hops = self.hops(src, dst)
        if not hops:
            return 0.0
        per_hop = (self.base_latency_us * 1e-6
                   + nbytes * 8.0 / (self.bandwidth_gbps * 1e9))
        return hops * per_hop

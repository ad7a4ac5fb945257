"""Consistent hashing for the front balancer.

The balancer (:mod:`repro.service.balancer`) is the ring's only user:
it maps a stable job key onto one of N named service replicas so that
(a) the same key always lands on the same replica while the replica set
is stable, and (b) removing or adding one replica only remaps ~1/N of
the keyspace instead of reshuffling everything.  That is what preserves
cross-replica request coalescing: identical jobs from different clients
reach the same replica, whose scheduler single-flights them.

The implementation is the textbook ring: each node contributes
``replicas`` virtual points (``sha256(name + ":" + i)``), a key hashes
to a point on the same circle, and the owner is the first virtual point
clockwise.  :meth:`ConsistentRing.preference` returns the *distinct
node* order walking clockwise from the key — exactly the failover
order a balancer wants (primary first, then the replica that inherits
the key if the primary is ejected).
"""

from __future__ import annotations

import bisect
import hashlib

#: Virtual points per node: enough for an even spread over a handful of
#: nodes (the replica counts this repo runs) at negligible cost.
DEFAULT_VNODES = 64


def _point(data: str) -> int:
    return int.from_bytes(hashlib.sha256(data.encode()).digest()[:8], "big")


class ConsistentRing:
    """A consistent-hash ring over named nodes."""

    def __init__(self, nodes: list[str] | tuple[str, ...], vnodes: int = DEFAULT_VNODES):
        if not nodes:
            raise ValueError("ring needs at least one node")
        if len(set(nodes)) != len(nodes):
            raise ValueError(f"duplicate node names: {sorted(nodes)}")
        self.nodes = tuple(nodes)
        self.vnodes = vnodes
        points: list[tuple[int, str]] = []
        for name in nodes:
            for i in range(vnodes):
                points.append((_point(f"{name}:{i}"), name))
        points.sort()
        self._points = [p for p, _ in points]
        self._owners = [name for _, name in points]

    def owner(self, key: str) -> str:
        """The node owning *key* (first virtual point clockwise)."""
        index = bisect.bisect_right(self._points, _point(key)) % len(self._points)
        return self._owners[index]

    def preference(self, key: str, count: int | None = None) -> list[str]:
        """Distinct nodes in clockwise order from *key*'s point.

        The first entry is :meth:`owner`; the rest is the deterministic
        failover order.  *count* bounds the list (default: every node).
        """
        want = len(self.nodes) if count is None else min(count, len(self.nodes))
        start = bisect.bisect_right(self._points, _point(key)) % len(self._points)
        order: list[str] = []
        seen: set[str] = set()
        for offset in range(len(self._points)):
            name = self._owners[(start + offset) % len(self._points)]
            if name in seen:
                continue
            seen.add(name)
            order.append(name)
            if len(order) == want:
                break
        return order

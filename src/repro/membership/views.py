"""Partial views for gossip membership protocols.

A partial view is a small, bounded set of *node descriptors* (peer id +
age). All epidemic protocols in this library obtain gossip targets from
a :class:`PeerSampler`, which the partial-view Cyclon protocol and the
static full view both implement — so any dissemination/estimation
protocol can be paired with any membership substrate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.common.ids import NodeId
from repro.common.messages import wire_struct
from repro.sim.node import Protocol


@wire_struct
@dataclass(frozen=True)
class NodeDescriptor:
    """A pointer to a peer, aged in shuffle rounds since creation."""

    node_id: NodeId
    age: int = 0

    def aged(self) -> "NodeDescriptor":
        return NodeDescriptor(self.node_id, self.age + 1)

    def fresh(self) -> "NodeDescriptor":
        return NodeDescriptor(self.node_id, 0)


class PartialView:
    """Bounded map of peer descriptors with Cyclon-style operations.

    At most one descriptor per peer is kept; on conflict the younger one
    wins (a younger descriptor is more likely to point at a live node).
    """

    def __init__(self, capacity: int, self_id: NodeId):
        if capacity <= 0:
            raise ValueError("view capacity must be positive")
        self.capacity = capacity
        self.self_id = self_id
        self._entries: Dict[NodeId, NodeDescriptor] = {}

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, node_id: NodeId) -> bool:
        return node_id in self._entries

    def peers(self) -> List[NodeId]:
        return list(self._entries.keys())

    def descriptors(self) -> List[NodeDescriptor]:
        return list(self._entries.values())

    def is_full(self) -> bool:
        return len(self._entries) >= self.capacity

    # ------------------------------------------------------------------
    def add(self, descriptor: NodeDescriptor) -> None:
        """Insert a descriptor, respecting the one-per-peer/younger-wins
        rule; when full, the oldest entry is evicted to make room."""
        if descriptor.node_id == self.self_id:
            return
        current = self._entries.get(descriptor.node_id)
        if current is not None:
            if descriptor.age < current.age:
                self._entries[descriptor.node_id] = descriptor
            return
        if len(self._entries) >= self.capacity:
            oldest = self.oldest()
            if oldest is None or oldest.age < descriptor.age:
                return  # incoming is older than everything we hold
            del self._entries[oldest.node_id]
        self._entries[descriptor.node_id] = descriptor

    def merge(self, descriptors: Iterable[NodeDescriptor], replaceable: Iterable[NodeId] = ()) -> None:
        """Cyclon merge: incoming entries first fill empty slots, then
        replace the descriptors we just shipped away (``replaceable``),
        then evict the oldest."""
        replaceable_pool = [nid for nid in replaceable if nid in self._entries]
        for descriptor in descriptors:
            if descriptor.node_id == self.self_id or descriptor.node_id in self._entries:
                # younger-wins update for duplicates
                current = self._entries.get(descriptor.node_id)
                if current is not None and descriptor.age < current.age:
                    self._entries[descriptor.node_id] = descriptor
                continue
            if len(self._entries) < self.capacity:
                self._entries[descriptor.node_id] = descriptor
            elif replaceable_pool:
                del self._entries[replaceable_pool.pop()]
                self._entries[descriptor.node_id] = descriptor
            else:
                oldest = self.oldest()
                if oldest is not None and oldest.age > descriptor.age:
                    del self._entries[oldest.node_id]
                    self._entries[descriptor.node_id] = descriptor

    def remove(self, node_id: NodeId) -> None:
        self._entries.pop(node_id, None)

    def increase_ages(self) -> None:
        self._entries = {nid: d.aged() for nid, d in self._entries.items()}

    # ------------------------------------------------------------------
    def oldest(self) -> Optional[NodeDescriptor]:
        if not self._entries:
            return None
        return max(self._entries.values(), key=lambda d: (d.age, d.node_id.value))

    def random_peer(self, rng: random.Random) -> Optional[NodeId]:
        if not self._entries:
            return None
        return rng.choice(sorted(self._entries.keys()))

    def random_descriptors(self, count: int, rng: random.Random, exclude: Optional[NodeId] = None) -> List[NodeDescriptor]:
        pool = [d for d in self._entries.values() if d.node_id != exclude]
        pool.sort(key=lambda d: d.node_id.value)  # stable order before sampling
        if len(pool) <= count:
            return pool
        return rng.sample(pool, count)


class PeerSampler(Protocol):
    """Interface every membership protocol implements.

    ``sample_peers(k)`` returns up to ``k`` distinct peer ids believed to
    be alive — the gossip-target primitive of the whole library.
    """

    name = "membership"

    def sample_peers(self, count: int) -> List[NodeId]:
        raise NotImplementedError

    def neighbors(self) -> List[NodeId]:
        raise NotImplementedError

    def seed(self, peers: Iterable[NodeId]) -> None:
        """Out-of-band bootstrap with initial contacts."""
        raise NotImplementedError

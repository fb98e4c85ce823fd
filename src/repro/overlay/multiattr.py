"""Multiple contending orderings (paper §III-B2, claim C8).

"A first naive approach could be to maintain several independent
overlays to support distinct ordering but this is not scalable as it
imposes an high overhead that grows linearly [...]. Alternatively,
recent work [34] shows that it is possible to support several
independent such organizations [...] without ever compromising the
resilience of the underlying protocol."

Two constructions, compared by experiment E10:

* :func:`naive_overlays` — one full :class:`TManProtocol` per attribute;
  k attributes cost k × (messages, bytes).
* :class:`SharedMultiOverlay` — one gossip stream carrying *vector*
  descriptors (all coordinates at once); each attribute keeps its own
  ranked view from the shared stream, so message count stays ~flat in k
  (bytes grow only by the extra coordinates per descriptor).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.common.ids import NodeId
from repro.common.messages import Message, message_type, wire_struct
from repro.membership.views import PeerSampler
from repro.overlay.tman import TManDescriptor, TManProtocol, ring_distance
from repro.sim.node import Protocol

#: All coordinates of one node: attribute -> position.
VectorFn = Callable[[], Dict[str, float]]


def naive_overlays(attributes: List[str], coordinate_fns: Dict[str, Callable[[], Optional[float]]],
                   view_size: int = 8, period: float = 1.0) -> List[TManProtocol]:
    """The linear-cost baseline: independent T-Man per attribute."""
    return [
        TManProtocol(attr, coordinate_fns[attr], view_size=view_size, period=period)
        for attr in attributes
    ]


@wire_struct
@dataclass(frozen=True)
class VectorDescriptor:
    node_id: NodeId
    coordinates: Tuple[Tuple[str, float], ...]
    #: Publication time at the origin (see TManDescriptor.stamp).
    stamp: float = 0.0

    def coordinate(self, attribute: str) -> Optional[float]:
        for name, value in self.coordinates:
            if name == attribute:
                return value
        return None


@message_type
@dataclass(frozen=True)
class VectorExchange(Message):
    entries: Tuple[VectorDescriptor, ...] = field(default_factory=tuple)
    is_reply: bool = False


class SharedMultiOverlay(Protocol):
    """k ordered views maintained from one shared gossip stream.

    Each round the node picks one attribute (round-robin) to drive peer
    selection — so every ordering gets convergence pressure — but the
    exchanged descriptors carry *all* coordinates and every received
    descriptor updates *all* per-attribute views.
    """

    name = "multi-overlay"

    def __init__(
        self,
        vector_fn: VectorFn,
        view_size: int = 8,
        exchange_size: int = 10,
        period: float = 1.0,
        explore_probability: float = 0.2,
        descriptor_ttl: Optional[float] = None,
        membership: str = "membership",
    ):
        super().__init__()
        if not 0 <= explore_probability <= 1:
            raise ValueError("explore_probability must be in [0, 1]")
        self.explore_probability = explore_probability
        # see TManProtocol.descriptor_ttl
        self.descriptor_ttl = descriptor_ttl if descriptor_ttl is not None else 30.0 * period
        self.vector_fn = vector_fn
        self.view_size = view_size
        self.exchange_size = exchange_size
        self.period = period
        self.membership = membership
        self._views: Dict[str, List[VectorDescriptor]] = {}
        self._round_robin = 0
        self._timer = None

    # ------------------------------------------------------------------
    def on_start(self) -> None:
        self._views = {}
        self._timer = self.every(self.period, self._round)

    def on_stop(self) -> None:
        if self._timer is not None:
            self._timer.stop()

    def _sampler(self) -> PeerSampler:
        return self.host.protocol(self.membership)  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def _round(self) -> None:
        vector = self.vector_fn()
        if not vector:
            return
        attributes = sorted(vector.keys())
        attribute = attributes[self._round_robin % len(attributes)]
        self._round_robin += 1
        target = self._select_target(attribute, vector[attribute])
        if target is None:
            return
        self.send(target, VectorExchange(self._payload(vector), is_reply=False))
        self.host.metrics.counter("multioverlay.rounds").inc()

    def _select_target(self, attribute: str, coordinate: float) -> Optional[NodeId]:
        # Same exploration rule as TManProtocol: occasional uniform
        # peers bridge coordinate-space clusters (see tman.py).
        view = self._views.get(attribute, [])
        explore = self.host.rng.random() < self.explore_probability
        if view and not explore:
            ranked = self._ranked(attribute, coordinate, view)
            half = ranked[: max(1, len(ranked) // 2)]
            return self.host.rng.choice(half).node_id
        peers = self._sampler().sample_peers(1)
        if peers:
            return peers[0]
        if view:
            return self.host.rng.choice(view).node_id
        return None

    def _payload(self, vector: Dict[str, float]) -> Tuple[VectorDescriptor, ...]:
        own = VectorDescriptor(self.host.node_id, tuple(sorted(vector.items())), self.host.now)
        merged: Dict[NodeId, VectorDescriptor] = {}
        for view in self._views.values():
            for descriptor in view:
                merged[descriptor.node_id] = descriptor
        entries = list(merged.values())
        if len(entries) > self.exchange_size - 1:
            entries = self.host.rng.sample(entries, self.exchange_size - 1)
        return tuple(entries) + (own,)

    def _ranked(self, attribute: str, coordinate: float, entries: List[VectorDescriptor]) -> List[VectorDescriptor]:
        def sort_key(descriptor: VectorDescriptor):
            value = descriptor.coordinate(attribute)
            distance = 2.0 if value is None else ring_distance(coordinate, value)
            return (distance, descriptor.node_id.value)

        return sorted(entries, key=sort_key)

    def _merge(self, entries: Tuple[VectorDescriptor, ...]) -> None:
        vector = self.vector_fn()
        horizon = self.host.now - self.descriptor_ttl
        for attribute, coordinate in vector.items():
            view = {d.node_id: d for d in self._views.get(attribute, [])
                    if d.stamp >= horizon}
            for descriptor in entries:
                if descriptor.node_id == self.host.node_id:
                    continue
                if descriptor.coordinate(attribute) is None:
                    continue
                if descriptor.stamp < horizon:
                    continue  # expired
                current = view.get(descriptor.node_id)
                if current is None or descriptor.stamp >= current.stamp:
                    view[descriptor.node_id] = descriptor  # freshest wins
            ranked = self._ranked(attribute, coordinate, list(view.values()))
            self._views[attribute] = ranked[: self.view_size]

    def on_message(self, sender: NodeId, message: Message) -> None:
        if not isinstance(message, VectorExchange):
            self.host.metrics.counter("multioverlay.unexpected_message").inc()
            return
        if not message.is_reply:
            vector = self.vector_fn()
            if vector:
                self.send(sender, VectorExchange(self._payload(vector), is_reply=True))
        self._merge(message.entries)

    # ------------------------------------------------------------------
    def ordered_neighbors(self, attribute: str) -> List[TManDescriptor]:
        """Attribute view as plain (node, coordinate) descriptors."""
        view = self._views.get(attribute, [])
        out = []
        for descriptor in view:
            value = descriptor.coordinate(attribute)
            if value is not None:
                out.append(TManDescriptor(descriptor.node_id, value))
        return sorted(out, key=lambda d: (d.coordinate, d.node_id.value))

    def successor(self, attribute: str) -> Optional[TManDescriptor]:
        vector = self.vector_fn()
        coordinate = vector.get(attribute)
        if coordinate is None:
            return None
        neighbors = self.ordered_neighbors(attribute)
        greater = [d for d in neighbors if d.coordinate > coordinate]
        if greater:
            return greater[0]
        return neighbors[0] if neighbors else None

"""Single-hop routing for the soft-state tier (D1HT-style).

Every node keeps a *full* routing table — node → ring position,
aliveness, incarnation — so a coordinator lookup is one table read plus
one network hop. The table is kept fresh not by heartbeating everyone
(the O(N²) mesh of :class:`repro.baselines.routebench.SoftMembership`)
but by membership **events** (join / recover / suspect / dead) riding
the epidemic substrate: each node buffers fresh events and periodically
relays the batch to ``fanout`` random alive peers, infect-and-die per
event (a relayed event that is no longer news dies at the receiver).
That is the EDRA idea from Monnerat & Amorim's single-hop DHT, with
aggregation — event cost per node is O(fanout) messages per flush period
regardless of how many events ride each message.

Three auxiliary mechanisms make the table dependable:

* **quarantine** — a *previously unknown* joiner is tracked but not
  routable for ``quarantine_window`` seconds, so flappy newcomers never
  enter the coordinator map (known members that reboot skip quarantine
  by announcing a higher incarnation);
* **incarnations** — SWIM-style: higher incarnation always wins; at
  equal incarnation dead > suspect > alive. A node that sees a suspect
  or dead rumor about *itself* refutes it by bumping its incarnation
  and announcing alive;
* **anti-entropy** — the PR 2 bucketed-digest machinery, reused over
  the membership table: per-bucket XOR-of-:func:`fingerprint64`
  summaries maintained incrementally, exchanged periodically with one
  random peer, and only differing buckets transfer entries. This is the
  repair path for events lost to crashes or message loss.

Failure detection pings only ``ping_targets`` ring successors (not
everyone), so detection traffic is O(1) per node.

Memory note: ring positions are pure hashes of node ids, so the
position table (:class:`RingSpace`) is built once and *shared* by every
node's table; a per-node :class:`RoutingTable` stores only deviations
from the seeded baseline. That is what makes N = 10 000 full-membership
nodes routine in one simulator process.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.common.hashing import fingerprint64, key_hash
from repro.common.ids import NodeId
from repro.common.messages import Message, message_type
from repro.sim.node import Protocol
from repro.softstate.ring import ConsistentHashRing, virtual_positions

# -- member status / event vocabulary -----------------------------------------

STATUS_ALIVE = 1
STATUS_SUSPECT = 2
STATUS_DEAD = 3
STATUS_QUARANTINE = 4  # local-only: alive but not yet routable

EVENT_JOIN = 0  # first appearance (receivers quarantine unknowns)
EVENT_ALIVE = 1  # recovery / refutation of a suspicion
EVENT_SUSPECT = 2
EVENT_DEAD = 3

#: Precedence at equal incarnation: dead > suspect > alive. Quarantine
#: ranks as alive — it *is* alive, just locally gated from routing.
_RANK = {STATUS_ALIVE: 1, STATUS_QUARANTINE: 1, STATUS_SUSPECT: 2, STATUS_DEAD: 3}
_EVENT_STATUS = {
    EVENT_JOIN: STATUS_ALIVE,
    EVENT_ALIVE: STATUS_ALIVE,
    EVENT_SUSPECT: STATUS_SUSPECT,
    EVENT_DEAD: STATUS_DEAD,
}


def _pack(incarnation: int, status: int) -> int:
    return (incarnation << 3) | status


def _unpack(packed: int) -> Tuple[int, int]:
    return packed >> 3, packed & 0x7


def _summary_packed(incarnation: int, status: int) -> int:
    """Packed record for digest purposes: quarantine reads as alive so
    two tables differing only in local quarantine state agree."""
    if status == STATUS_QUARANTINE:
        status = STATUS_ALIVE
    return _pack(incarnation, status)


# -- messages -----------------------------------------------------------------


@message_type
@dataclass(frozen=True)
class MemberEvent(Message):
    """One membership state transition, gossiped epidemically."""

    node: int  # NodeId value
    incarnation: int
    kind: int  # EVENT_*


@message_type
@dataclass(frozen=True)
class EventGossip(Message):
    """A batch of buffered membership events (EDRA-style aggregation)."""

    events: Tuple[MemberEvent, ...] = field(default_factory=tuple)


@message_type
@dataclass(frozen=True)
class OneHopPing(Message):
    nonce: int


@message_type
@dataclass(frozen=True)
class OneHopPong(Message):
    nonce: int


@message_type
@dataclass(frozen=True)
class TableDigest(Message):
    """Anti-entropy phase 0: one 64-bit root over the whole table.

    Agreeing peers settle each round with this single word; the full
    per-bucket summary is only exchanged on a root mismatch."""

    buckets: int
    root: int


@message_type
@dataclass(frozen=True)
class TableSummary(Message):
    """Anti-entropy phase 1: per-bucket (bucket, xor, count) digests."""

    buckets: int
    summaries: Tuple[Tuple[int, int, int], ...] = field(default_factory=tuple)


@message_type
@dataclass(frozen=True)
class TableBucketRequest(Message):
    """Anti-entropy phase 2: pull entries of the differing buckets."""

    buckets: Tuple[int, ...] = field(default_factory=tuple)


@message_type
@dataclass(frozen=True)
class TableEntries(Message):
    """Anti-entropy phase 3 / join transfer: table rows as events."""

    entries: Tuple[MemberEvent, ...] = field(default_factory=tuple)


@message_type
@dataclass(frozen=True)
class TableRequest(Message):
    """Ask a peer for its full table (join bootstrap)."""

    nonce: int = 0


@message_type
@dataclass(frozen=True)
class RouteProbe(Message):
    """One-hop lookup: ask the believed owner to confirm ownership."""

    probe_id: str
    key: str
    reply_to: NodeId
    hops: int = 1


@message_type
@dataclass(frozen=True)
class RouteReply(Message):
    probe_id: str
    owner: int  # NodeId value of the confirmed owner (-1 = unresolved)
    hops: int = 1


@message_type
@dataclass(frozen=True)
class RedirectedOp(Message):
    """A client operation forwarded by a stale-routed coordinator to the
    believed owner (probe-and-redirect fallback; see coordinator.py)."""

    client: NodeId
    op: Any = None
    hops: int = 1


# -- shared position space ----------------------------------------------------


class RingSpace:
    """The population's virtual-node positions, shared by every table.

    Positions are pure functions of node ids, so one sorted structure
    serves all N tables; per-node state reduces to status deviations.
    Also holds the seeded *baseline* (the member set everyone started
    from) and its per-bucket digest summaries, so each table only
    XOR-maintains a delta.
    """

    def __init__(self, virtual_nodes: int = 16, buckets: int = 32):
        if virtual_nodes <= 0 or buckets <= 0:
            raise ValueError("virtual_nodes and buckets must be positive")
        self.virtual_nodes = virtual_nodes
        self.buckets = buckets
        self._ring: List[Tuple[int, int]] = []  # sorted (position, node value)
        self._known: Dict[int, None] = {}
        self.members_list: List[int] = []  # dense, for sampling
        self.baseline: Dict[int, int] = {}  # value -> packed record
        self.bucket_members: List[List[int]] = [[] for _ in range(buckets)]
        self.baseline_summary: List[Tuple[int, int]] = [(0, 0)] * buckets  # (xor, count)

    def __len__(self) -> int:
        return len(self._known)

    def bucket_of(self, value: int) -> int:
        return value % self.buckets

    def ensure(self, value: int) -> None:
        """Make ``value``'s positions part of the shared space."""
        if value in self._known:
            return
        self._known[value] = None
        self.members_list.append(value)
        self.bucket_members[self.bucket_of(value)].append(value)
        fresh = [(p, value) for p in virtual_positions(value, self.virtual_nodes)]
        if not self._ring:
            self._ring = fresh
        else:
            merged: List[Tuple[int, int]] = []
            old = self._ring
            i = j = 0
            while i < len(old) and j < len(fresh):
                if old[i] <= fresh[j]:
                    merged.append(old[i])
                    i += 1
                else:
                    merged.append(fresh[j])
                    j += 1
            merged.extend(old[i:])
            merged.extend(fresh[j:])
            self._ring = merged

    def seed(self, values: Iterable[int], incarnation: int = 1) -> None:
        """Install the shared baseline (idempotent per value)."""
        for value in values:
            if value in self.baseline:
                continue
            self.ensure(value)
            packed = _pack(incarnation, STATUS_ALIVE)
            self.baseline[value] = packed
            b = self.bucket_of(value)
            xor, count = self.baseline_summary[b]
            self.baseline_summary[b] = (xor ^ fingerprint64(value, packed), count + 1)

    # -- routing over a caller-supplied aliveness view ------------------
    def coordinator_for(self, key: str, is_alive: Callable[[int], bool]) -> Optional[int]:
        if not self._ring:
            return None
        position = key_hash(key)
        ring = self._ring
        index = bisect.bisect_right(ring, (position, 1 << 70))
        n = len(ring)
        for step in range(n):
            _, value = ring[(index + step) % n]
            if is_alive(value):
                return value
        return None

    def successors_of(
        self, value: int, count: int, is_alive: Callable[[int], bool]
    ) -> List[int]:
        """Up to ``count`` distinct alive members clockwise of ``value``'s
        first position (excluding ``value``) — the ping neighborhood."""
        if not self._ring or count <= 0 or value not in self._known:
            return []
        start = virtual_positions(value, self.virtual_nodes)[0]
        ring = self._ring
        index = bisect.bisect_right(ring, (start, 1 << 70))
        found: List[int] = []
        seen = {value}
        n = len(ring)
        for step in range(n):
            _, candidate = ring[(index + step) % n]
            if candidate in seen:
                continue
            seen.add(candidate)
            if is_alive(candidate):
                found.append(candidate)
                if len(found) >= count:
                    break
        return found


# -- per-node table -----------------------------------------------------------


class RoutingTable:
    """One node's full-membership view: shared baseline + local delta.

    Pure state machine (time is always passed in) so property tests can
    drive it without a simulator. Event application is a join-semilattice
    merge — max by (incarnation, status rank) — so any delivery order of
    the same event set converges to the same view.
    """

    def __init__(self, space: RingSpace, owner: int, quarantine_window: float = 10.0):
        self.space = space
        self.owner = owner
        self.quarantine_window = quarantine_window
        self._exceptions: Dict[int, int] = {}  # value -> packed (deviations only)
        self._quarantine: Dict[int, float] = {}  # value -> admit deadline
        self._delta_xor: Dict[int, int] = {}  # bucket -> xor delta vs baseline
        self._delta_count: Dict[int, int] = {}  # bucket -> member-count delta

    # -- record access --------------------------------------------------
    def record(self, value: int) -> Optional[Tuple[int, int]]:
        packed = self._exceptions.get(value)
        if packed is None:
            packed = self.space.baseline.get(value)
        return None if packed is None else _unpack(packed)

    def knows(self, value: int) -> bool:
        return value in self._exceptions or value in self.space.baseline

    def is_alive(self, value: int) -> bool:
        record = self.record(value)
        return record is not None and record[1] == STATUS_ALIVE

    def member_view(self) -> Dict[int, Tuple[int, int]]:
        """value -> (incarnation, effective status) for every known
        member, quarantine reported as alive (convergence oracle)."""
        view: Dict[int, Tuple[int, int]] = {}
        for value, packed in self.space.baseline.items():
            view[value] = _unpack(packed)
        for value, packed in self._exceptions.items():
            view[value] = _unpack(packed)
        return {
            v: (inc, STATUS_ALIVE if st == STATUS_QUARANTINE else st)
            for v, (inc, st) in view.items()
        }

    def alive_values(self) -> List[int]:
        return [v for v in self.space.members_list if self.is_alive(v)]

    def quarantined_values(self) -> List[int]:
        return list(self._quarantine)

    # -- mutation -------------------------------------------------------
    def _set(self, value: int, incarnation: int, status: int) -> None:
        bucket = self.space.bucket_of(value)
        old_packed = self._exceptions.get(value)
        if old_packed is None:
            old_packed = self.space.baseline.get(value)
        xor = self._delta_xor.get(bucket, 0)
        if old_packed is not None:
            old_inc, old_st = _unpack(old_packed)
            xor ^= fingerprint64(value, _summary_packed(old_inc, old_st))
        else:
            self._delta_count[bucket] = self._delta_count.get(bucket, 0) + 1
        xor ^= fingerprint64(value, _summary_packed(incarnation, status))
        self._delta_xor[bucket] = xor
        packed = _pack(incarnation, status)
        if self.space.baseline.get(value) == packed:
            self._exceptions.pop(value, None)
        else:
            self._exceptions[value] = packed
        if status != STATUS_QUARANTINE:
            self._quarantine.pop(value, None)

    def apply(self, event: MemberEvent, now: float) -> bool:
        """Merge one event; returns True when it was news (and should be
        relayed onward, infect-and-die style)."""
        self.space.ensure(event.node)
        new_status = _EVENT_STATUS[event.kind]
        current = self.record(event.node)
        if current is not None:
            incarnation, status = current
            if event.incarnation < incarnation:
                return False
            if event.incarnation == incarnation and _RANK[new_status] <= _RANK[status]:
                return False
        if new_status == STATUS_ALIVE:
            if current is None:
                # Previously unknown joiner: routable only after the
                # quarantine window (flap protection, D1HT §quarantine).
                new_status = STATUS_QUARANTINE
                self._quarantine[event.node] = now + self.quarantine_window
            elif event.node in self._quarantine:
                new_status = STATUS_QUARANTINE  # still serving its window
        self._set(event.node, event.incarnation, new_status)
        return True

    def admit(self, value: int) -> None:
        """Promote a quarantined member to routable immediately."""
        self._quarantine.pop(value, None)
        record = self.record(value)
        if record is not None and record[1] == STATUS_QUARANTINE:
            self._set(value, record[0], STATUS_ALIVE)

    def admit_due(self, now: float) -> List[int]:
        due = [v for v, deadline in self._quarantine.items() if deadline <= now]
        for value in due:
            self.admit(value)
        return due

    # -- routing --------------------------------------------------------
    def coordinator_value(self, key: str) -> Optional[int]:
        return self.space.coordinator_for(key, self.is_alive)

    def owns(self, key: str) -> bool:
        return self.coordinator_value(key) == self.owner

    # -- anti-entropy (PR 2 bucketed-digest idiom over the table) -------
    def summaries(self) -> List[Tuple[int, int, int]]:
        out = []
        for bucket in range(self.space.buckets):
            xor, count = self.space.baseline_summary[bucket]
            xor ^= self._delta_xor.get(bucket, 0)
            count += self._delta_count.get(bucket, 0)
            if count:
                out.append((bucket, xor, count))
        return out

    def root_digest(self) -> int:
        """Fold the per-bucket summaries into one 64-bit root."""
        root = 0
        buckets = self.space.buckets
        for bucket, xor, count in self.summaries():
            root ^= fingerprint64(bucket, xor) ^ fingerprint64(bucket + buckets, count)
        return root

    def _entry_event(self, value: int) -> Optional[MemberEvent]:
        record = self.record(value)
        if record is None:
            return None
        incarnation, status = record
        if status in (STATUS_ALIVE, STATUS_QUARANTINE):
            kind = EVENT_JOIN  # receivers that never saw it will quarantine
        elif status == STATUS_SUSPECT:
            kind = EVENT_SUSPECT
        else:
            kind = EVENT_DEAD
        return MemberEvent(value, incarnation, kind)

    def entries_for(self, buckets: Iterable[int]) -> List[MemberEvent]:
        entries = []
        for bucket in buckets:
            if not 0 <= bucket < self.space.buckets:
                continue
            for value in self.space.bucket_members[bucket]:
                event = self._entry_event(value)
                if event is not None:
                    entries.append(event)
        return entries

    def all_entries(self) -> List[MemberEvent]:
        entries = []
        for value in self.space.members_list:
            event = self._entry_event(value)
            if event is not None:
                entries.append(event)
        return entries

    # -- self-stabilisation ---------------------------------------------
    def _expected_deltas(self) -> Tuple[Dict[int, int], Dict[int, int]]:
        """Delta summaries recomputed from the exception records — what
        ``_set``'s incremental maintenance must always telescope to."""
        xors: Dict[int, int] = {}
        counts: Dict[int, int] = {}
        for value, packed in self._exceptions.items():
            bucket = self.space.bucket_of(value)
            incarnation, status = _unpack(packed)
            xor = xors.get(bucket, 0) ^ fingerprint64(
                value, _summary_packed(incarnation, status))
            base = self.space.baseline.get(value)
            if base is None:
                counts[bucket] = counts.get(bucket, 0) + 1
            else:
                base_inc, base_st = _unpack(base)
                xor ^= fingerprint64(value, _summary_packed(base_inc, base_st))
            xors[bucket] = xor
        return xors, counts

    def summaries_consistent(self) -> bool:
        """Whether the incremental delta summaries match the records
        (the convergence checker's heal predicate for table scrambling)."""
        xors, counts = self._expected_deltas()
        buckets = set(xors) | set(counts) | set(self._delta_xor) | set(self._delta_count)
        for bucket in buckets:
            if self._delta_xor.get(bucket, 0) != xors.get(bucket, 0):
                return False
            if self._delta_count.get(bucket, 0) != counts.get(bucket, 0):
                return False
        return all(self.space.baseline.get(v) != p for v, p in self._exceptions.items())

    def audit(self) -> int:
        """Recompute delta summaries from the records and repair drift.

        Raw exception damage (the scramble nemesis) leaves the digests
        describing a table that no longer exists — anti-entropy then
        settles on the root digest while the actual records diverge, so
        the lie never spreads and never meets a refutation. Making the
        digests honest again is what lets the epidemic repair machinery
        (summary exchange + SWIM refutation) see and heal the damage.
        Returns the number of repairs."""
        repairs = 0
        for value in [v for v, p in self._exceptions.items()
                      if self.space.baseline.get(v) == p]:
            self._exceptions.pop(value)  # deviations-only invariant
            repairs += 1
        xors, counts = self._expected_deltas()
        if not self.summaries_consistent():
            self._delta_xor = xors
            self._delta_count = counts
            repairs += 1
        return repairs

    def corrupt(self, rng, flips: int = 2, exclude: Optional[int] = None) -> List[Tuple[int, int]]:
        """Nemesis seam: scramble exception records *without* updating
        the delta summaries (raw state damage, as a bit-flip would do).
        Marks alive members suspect/dead at an inflated incarnation —
        exactly the rumors SWIM refutation is built to kill once the
        audit makes the digests admit the table changed. Returns the
        scrambled (value, new_packed) pairs."""
        candidates = [v for v in self.space.members_list
                      if v != exclude and v != self.owner and self.is_alive(v)]
        if not candidates:
            return []
        scrambled: List[Tuple[int, int]] = []
        for value in rng.sample(candidates, min(flips, len(candidates))):
            record = self.record(value)
            if record is None:
                continue
            incarnation = record[0] + rng.choice((1, 2))
            status = rng.choice((STATUS_SUSPECT, STATUS_DEAD))
            packed = _pack(incarnation, status)
            self._exceptions[value] = packed  # bypasses _set: deltas now lie
            self._quarantine.pop(value, None)
            scrambled.append((value, packed))
        return scrambled


# -- the protocol -------------------------------------------------------------


class OneHopRouting(Protocol):
    """Event-disseminated full-membership routing (see module docstring).

    Args:
        space: shared :class:`RingSpace` (one per cluster).
        mirror_ring: optional per-node :class:`ConsistentHashRing` kept
            in sync with the table — this is what a collocated
            :class:`~repro.softstate.coordinator.SoftStateProtocol`
            routes by. Quarantined members are withheld from it until
            admitted, so they can never be chosen as coordinators.
        bootstrap: returns a known member to request a table from when
            booting with an empty table (new joiner).
        fanout: peers each event batch is relayed to per flush.
        flush_period: seconds between event-batch flushes.
        ping_period / ping_targets / ping_timeout: failure detection of
            the ``ping_targets`` ring successors only.
        suspect_timeout: silence after a suspicion before the originator
            escalates it to a dead event.
        quarantine_window: routability delay for unknown joiners.
        antientropy_period: table digest exchange period (repair path).
    """

    name = "onehop"

    def __init__(
        self,
        space: RingSpace,
        mirror_ring: Optional[ConsistentHashRing] = None,
        bootstrap: Optional[Callable[[], Optional[NodeId]]] = None,
        fanout: int = 4,
        flush_period: float = 0.5,
        ping_period: float = 1.0,
        ping_targets: int = 2,
        ping_timeout: float = 2.0,
        suspect_timeout: float = 8.0,
        quarantine_window: float = 10.0,
        antientropy_period: float = 5.0,
        probe_timeout: float = 5.0,
        max_batch: int = 128,
        on_member_event: Optional[Callable[[MemberEvent, float], None]] = None,
    ):
        super().__init__()
        if fanout <= 0:
            raise ValueError("fanout must be positive")
        #: Tap invoked with (event, now) for every event that changed the
        #: local table — membership joins/deaths feed e.g. the session
        #: lifetime estimator of churn-adaptive redundancy.
        self.on_member_event = on_member_event
        self.space = space
        self.mirror_ring = mirror_ring
        self.bootstrap = bootstrap
        self.fanout = fanout
        self.flush_period = flush_period
        self.ping_period = ping_period
        self.ping_targets = ping_targets
        self.ping_timeout = ping_timeout
        self.suspect_timeout = suspect_timeout
        self.quarantine_window = quarantine_window
        self.antientropy_period = antientropy_period
        self.probe_timeout = probe_timeout
        self.max_batch = max_batch
        self.table: Optional[RoutingTable] = None
        self._incarnation = 0
        self._buffer: List[MemberEvent] = []
        self._awaiting_pong: Dict[int, int] = {}  # nonce -> node value
        self._pending_probes: Dict[str, Callable[[Optional[int], int], None]] = {}
        self._nonce = itertools.count()
        self._probe_seq = itertools.count()
        self._timers: List[Any] = []

    # ------------------------------------------------------------------
    def on_start(self) -> None:
        value = self.host.node_id.value
        durable = self.host.durable
        # The table itself is durable soft state: a warm reboot resumes
        # from the pre-crash view and lets anti-entropy patch the gap.
        table = durable.get("onehop-table")
        if table is None or table.space is not self.space:
            table = RoutingTable(self.space, value, self.quarantine_window)
            durable["onehop-table"] = table
        table.owner = value
        self.table = table
        self._incarnation = durable.get("onehop-incarnation", 0) + 1
        durable["onehop-incarnation"] = self._incarnation
        self._buffer = []
        self._awaiting_pong = {}
        self._pending_probes = {}
        self.space.ensure(value)
        kind = EVENT_ALIVE if self._incarnation > 1 or table.knows(value) else EVENT_JOIN
        self._originate(MemberEvent(value, self._incarnation, kind))
        table.admit(value)  # never quarantine ourselves
        self._rebuild_mirror()
        seed = self.bootstrap() if self.bootstrap is not None else None
        if seed is not None and seed.value != value:
            self.send(seed, TableRequest(next(self._nonce)))
        self._timers = [
            self.every(self.flush_period, self._flush, jitter=0.2),
            self.every(self.ping_period, self._ping_round, jitter=0.2),
            self.every(self.antientropy_period, self._antientropy_round, jitter=0.2),
        ]

    def on_stop(self) -> None:
        for timer in self._timers:
            timer.stop()
        self._timers = []

    # -- PeerSampler interface (the table doubles as a membership view,
    # so epidemic protocols can ride it: EagerGossip(membership="onehop"))
    def seed(self, peers: List[NodeId]) -> None:
        self.space.seed(p.value for p in peers)
        if self.mirror_ring is not None:
            for peer in peers:
                self.mirror_ring.add(peer)

    def neighbors(self) -> List[NodeId]:
        assert self.table is not None
        me = self.host.node_id.value
        return [NodeId(v) for v in self.table.alive_values() if v != me]

    def sample_peers(self, count: int) -> List[NodeId]:
        return [NodeId(v) for v in self._sample_alive(count)]

    def _sample_alive(self, count: int) -> List[int]:
        """Up to ``count`` distinct random alive peers (rejection-sampled
        from the shared member list — O(count) at steady state)."""
        assert self.table is not None
        members = self.space.members_list
        if not members or count <= 0:
            return []
        me = self.host.node_id.value
        rng = self.host.rng
        picked: List[int] = []
        seen = {me}
        attempts = max(8, 6 * count)
        is_alive = self.table.is_alive
        for _ in range(attempts):
            value = members[rng.randrange(len(members))]
            if value in seen:
                continue
            seen.add(value)
            if is_alive(value):
                picked.append(value)
                if len(picked) >= count:
                    break
        return picked

    # -- event plumbing -------------------------------------------------
    def _originate(self, event: MemberEvent) -> None:
        assert self.table is not None
        self.table.apply(event, self.host.now)
        self._sync_mirror(event.node)
        self._buffer.append(event)
        self.host.metrics.counter("onehop.events_originated").inc()
        if self.on_member_event is not None:
            self.on_member_event(event, self.host.now)

    def _absorb(self, events: Iterable[MemberEvent]) -> None:
        assert self.table is not None
        table = self.table
        now = self.host.now
        me = self.host.node_id.value
        metrics = self.host.metrics
        for event in events:
            if (
                event.node == me
                and event.kind in (EVENT_SUSPECT, EVENT_DEAD)
                and event.incarnation >= self._incarnation
            ):
                # Rumor of our own death: refute with a higher incarnation.
                self._incarnation = event.incarnation + 1
                self.host.durable["onehop-incarnation"] = self._incarnation
                self._originate(MemberEvent(me, self._incarnation, EVENT_ALIVE))
                metrics.counter("onehop.refutations").inc()
                continue
            if table.apply(event, now):
                self._sync_mirror(event.node)
                self._buffer.append(event)  # infect-and-die: relay news only
                metrics.counter("onehop.events_applied").inc()
                if event.kind == EVENT_JOIN and event.node in table._quarantine:
                    metrics.counter("onehop.quarantined").inc()
                if self.on_member_event is not None:
                    self.on_member_event(event, now)
            else:
                metrics.counter("onehop.events_stale").inc()

    def _rebuild_mirror(self) -> None:
        """Reboot path: the mirror ring is per-boot soft state while the
        table is durable — reproject the whole table into it."""
        if self.mirror_ring is None or self.table is None:
            return
        for value in self.space.members_list:
            self._sync_mirror(value)

    def _sync_mirror(self, value: int) -> None:
        ring = self.mirror_ring
        if ring is None or self.table is None:
            return
        record = self.table.record(value)
        if record is None:
            return
        status = record[1]
        node = NodeId(value)
        if status == STATUS_ALIVE:
            ring.add(node)  # add() of an existing member just revives it
        elif status == STATUS_QUARANTINE:
            # Withheld from the coordinator map until admitted; if it was
            # already a member (re-quarantine cannot happen to known
            # members, but stay safe) mark it not-alive.
            if node in ring:
                ring.set_alive(node, False)
        else:
            # Down members keep their positions (partition map stays put,
            # matching legacy set_alive semantics) but take no traffic.
            ring.add(node)
            ring.set_alive(node, False)

    def _flush(self) -> None:
        assert self.table is not None
        for value in self.table.admit_due(self.host.now):
            self._sync_mirror(value)
            self.host.metrics.counter("onehop.admitted").inc()
        if not self._buffer:
            return
        batch = tuple(self._buffer[: self.max_batch])
        del self._buffer[: self.max_batch]
        message = EventGossip(batch)
        for value in self._sample_alive(self.fanout):
            self.send(NodeId(value), message)
        self.host.metrics.counter("onehop.flushes").inc()

    # -- failure detection (ring successors only) -----------------------
    def _ping_round(self) -> None:
        assert self.table is not None
        me = self.host.node_id.value
        targets = self.space.successors_of(me, self.ping_targets, self.table.is_alive)
        for value in targets:
            nonce = next(self._nonce)
            self._awaiting_pong[nonce] = value
            self.send(NodeId(value), OneHopPing(nonce))
            self.host.set_timer(self.ping_timeout, lambda n=nonce: self._pong_deadline(n))

    def _pong_deadline(self, nonce: int) -> None:
        value = self._awaiting_pong.pop(nonce, None)
        if value is None or self.table is None:
            return
        record = self.table.record(value)
        if record is None or record[1] != STATUS_ALIVE:
            return  # already suspected / dead via someone else's event
        incarnation = record[0]
        self._originate(MemberEvent(value, incarnation, EVENT_SUSPECT))
        self.host.metrics.counter("onehop.suspicions").inc()
        self.host.set_timer(
            self.suspect_timeout, lambda: self._confirm_dead(value, incarnation)
        )

    def _confirm_dead(self, value: int, incarnation: int) -> None:
        if self.table is None:
            return
        record = self.table.record(value)
        if record is None or record != (incarnation, STATUS_SUSPECT):
            return  # refuted (higher incarnation) or already dead
        self._originate(MemberEvent(value, incarnation, EVENT_DEAD))

    # -- corruption seam ------------------------------------------------
    def corrupt_table(self, rng, flips: int = 2) -> Dict[str, Any]:
        """Nemesis seam: scramble routing-table exceptions on this node
        (records damaged, digests left lying) and project the damage
        into the mirror ring so routing actually misbehaves."""
        assert self.table is not None
        scrambled = self.table.corrupt(rng, flips, exclude=self.host.node_id.value)
        for value, _ in scrambled:
            self._sync_mirror(value)
        if scrambled:
            self.host.metrics.counter("onehop.corruptions_injected").inc()
        return {"scrambled": [value for value, _ in scrambled]}

    # -- anti-entropy ---------------------------------------------------
    def _antientropy_round(self) -> None:
        assert self.table is not None
        # Periodic audit: re-derive the incremental digests from the
        # records so arbitrary table damage becomes *visible* divergence
        # the exchange below can spread — and refutation can then heal.
        repairs = self.table.audit()
        if repairs:
            self.host.metrics.counter("onehop.table_audit_repairs").inc(repairs)
        peers = self._sample_alive(1)
        if not peers:
            return
        self.send(NodeId(peers[0]),
                  TableDigest(self.space.buckets, self.table.root_digest()))
        self.host.metrics.counter("onehop.antientropy_rounds").inc()

    def _handle_digest(self, sender: NodeId, message: TableDigest) -> None:
        assert self.table is not None
        if message.buckets != self.space.buckets:
            self.host.metrics.counter("onehop.antientropy_mismatch").inc()
            return
        if message.root == self.table.root_digest():
            self.host.metrics.counter("onehop.antientropy_clean").inc()
            return
        # Mismatch: ship our full summary; the sender's summary handler
        # runs the bidirectional bucket repair.
        self.send(sender, TableSummary(self.space.buckets, tuple(self.table.summaries())))

    def _handle_summary(self, sender: NodeId, message: TableSummary) -> None:
        assert self.table is not None
        if message.buckets != self.space.buckets:
            self.host.metrics.counter("onehop.antientropy_mismatch").inc()
            return
        mine = {bucket: (xor, count) for bucket, xor, count in self.table.summaries()}
        differing = []
        theirs = {bucket: (xor, count) for bucket, xor, count in message.summaries}
        for bucket in range(self.space.buckets):
            if mine.get(bucket) != theirs.get(bucket):
                differing.append(bucket)
        if differing:
            self.send(sender, TableBucketRequest(tuple(differing)))
            # Push our side of the differing buckets too: reconciliation
            # repairs both tables in one exchange.
            self.send(sender, TableEntries(tuple(self.table.entries_for(differing))))
            self.host.metrics.counter("onehop.antientropy_repairs").inc()

    # -- one-hop lookups ------------------------------------------------
    def lookup(self, key: str, on_done: Callable[[Optional[int], int], None]) -> None:
        """Resolve and *confirm* the coordinator of ``key``.

        ``on_done(owner_value, hops)`` gets the confirmed owner (None on
        failure) and the number of routing messages spent reaching it —
        1 when the local table was right (the one-hop promise), +1 per
        stale-route redirect."""
        assert self.table is not None
        owner = self.table.coordinator_value(key)
        self.host.metrics.counter("onehop.lookups").inc()
        if owner is None:
            on_done(None, 0)
            return
        if owner == self.host.node_id.value:
            self.host.metrics.histogram("onehop.lookup_hops").observe(0)
            on_done(owner, 0)
            return
        probe_id = f"{self.host.node_id.value}:{next(self._probe_seq)}"

        def finish(confirmed: Optional[int], hops: int) -> None:
            if confirmed is not None:
                self.host.metrics.histogram("onehop.lookup_hops").observe(hops)
            else:
                self.host.metrics.counter("onehop.lookup_failures").inc()
            on_done(confirmed, hops)

        self._pending_probes[probe_id] = finish
        self.send(NodeId(owner), RouteProbe(probe_id, key, self.host.node_id))
        self.host.set_timer(self.probe_timeout, lambda: self._probe_deadline(probe_id))

    def _probe_deadline(self, probe_id: str) -> None:
        callback = self._pending_probes.pop(probe_id, None)
        if callback is not None:
            callback(None, 0)

    def _handle_probe(self, message: RouteProbe) -> None:
        assert self.table is not None
        me = self.host.node_id.value
        owner = self.table.coordinator_value(message.key)
        if owner == me:
            self.send(message.reply_to, RouteReply(message.probe_id, me, message.hops))
            return
        # Stale route: the sender's table pointed at us but ours says
        # someone else owns the key — redirect the probe one hop.
        self.host.metrics.counter("onehop.stale_routes").inc()
        tracer = self.host.tracer
        if tracer.active:
            tracer.event("stale-route", me, self.host.now,
                         key=message.key, hops=message.hops)
        if owner is None or message.hops >= 8:
            self.send(message.reply_to, RouteReply(message.probe_id, -1, message.hops))
            return
        self.send(NodeId(owner), RouteProbe(
            message.probe_id, message.key, message.reply_to, message.hops + 1))

    # ------------------------------------------------------------------
    def on_message(self, sender: NodeId, message: Message) -> None:
        if isinstance(message, EventGossip):
            self._absorb(message.events)
        elif isinstance(message, OneHopPing):
            self.send(sender, OneHopPong(message.nonce))
        elif isinstance(message, OneHopPong):
            self._awaiting_pong.pop(message.nonce, None)
        elif isinstance(message, RouteProbe):
            self._handle_probe(message)
        elif isinstance(message, RouteReply):
            callback = self._pending_probes.pop(message.probe_id, None)
            if callback is not None:
                owner = message.owner if message.owner >= 0 else None
                callback(owner, message.hops)
        elif isinstance(message, TableDigest):
            self._handle_digest(sender, message)
        elif isinstance(message, TableSummary):
            self._handle_summary(sender, message)
        elif isinstance(message, TableBucketRequest):
            assert self.table is not None
            self.send(sender, TableEntries(tuple(self.table.entries_for(message.buckets))))
        elif isinstance(message, TableEntries):
            self._absorb(message.entries)
        elif isinstance(message, TableRequest):
            assert self.table is not None
            self.send(sender, TableEntries(tuple(self.table.all_entries())))
        else:
            self.host.metrics.counter("onehop.unexpected_message").inc()

"""Model-based property tests: Memtable vs a dict, sieves vs a partition.

The Memtable is checked against the obvious reference model — a plain
``dict`` applying last-writer-wins by ``Version`` order — under random
interleavings of puts, tombstone puts and hard deletes. The sieve
families are checked for the two properties the redundancy argument
rests on: admission is a *deterministic function* of (node, key), and
for any agreed bucket count the buckets form an *exhaustive and
disjoint* partition of the key space.
"""

from __future__ import annotations

import bisect
from typing import Dict, Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.ids import NodeId
from repro.sieve import BucketSieve
from repro.sieve.keyspace import (
    CapacityScaledSieve,
    StaticArcSieve,
    bucket_count_for,
)
from repro.store import Memtable, Version, make_tuple
from repro.store.tuples import VersionedTuple, make_tombstone

keys = st.sampled_from([f"k{i}" for i in range(8)])  # few keys -> collisions
versions = st.builds(Version,
                     sequence=st.integers(min_value=0, max_value=50),
                     coordinator=st.integers(min_value=0, max_value=3))

put_ops = st.tuples(st.just("put"), keys, versions,
                    st.dictionaries(st.sampled_from(["a", "b"]),
                                    st.integers(0, 9), max_size=2))
tombstone_ops = st.tuples(st.just("tombstone"), keys, versions, st.none())
delete_ops = st.tuples(st.just("delete"), keys, st.none(), st.none())
op_sequences = st.lists(st.one_of(put_ops, tombstone_ops, delete_ops),
                        min_size=1, max_size=60)


class _DictModel:
    """Reference last-writer-wins store."""

    def __init__(self):
        self.items: Dict[str, VersionedTuple] = {}

    def apply(self, item: VersionedTuple) -> None:
        current = self.items.get(item.key)
        if current is None or item.version > current.version:
            self.items[item.key] = item

    def delete(self, key: str) -> None:
        self.items.pop(key, None)

    def live(self, key: str) -> Optional[VersionedTuple]:
        item = self.items.get(key)
        return None if item is None or item.tombstone else item


class TestMemtableVsModel:
    @given(op_sequences)
    @settings(max_examples=200)
    def test_memtable_agrees_with_dict_model(self, ops):
        memtable = Memtable()
        model = _DictModel()
        for kind, key, version, record in ops:
            if kind == "put":
                memtable.put(make_tuple(key, record, version))
                model.apply(make_tuple(key, record, version))
            elif kind == "tombstone":
                memtable.put(make_tombstone(key, version))
                model.apply(make_tombstone(key, version))
            else:
                memtable.delete(key)
                model.delete(key)
        assert len(memtable) == len(model.items)  # tombstones still count
        for key in {k for _, k, *_ in ops}:
            assert memtable.get(key) == model.live(key)
            assert memtable.get_any(key) == model.items.get(key)

    @given(op_sequences)
    @settings(max_examples=100)
    def test_put_returns_true_iff_state_changed(self, ops):
        memtable = Memtable()
        for kind, key, version, record in ops:
            if kind == "delete":
                memtable.delete(key)
                continue
            item = (make_tuple(key, record, version) if kind == "put"
                    else make_tombstone(key, version))
            before = memtable.get_any(key)
            changed = memtable.put(item)
            assert changed == (before is None or item.version > before.version)

    @given(op_sequences)
    @settings(max_examples=100)
    def test_digest_tracks_live_and_dead_tuples(self, ops):
        memtable = Memtable()
        for kind, key, version, record in ops:
            if kind == "delete":
                memtable.delete(key)
            elif kind == "put":
                memtable.put(make_tuple(key, record, version))
            else:
                memtable.put(make_tombstone(key, version))
        digest = memtable.digest()
        assert set(digest) == {item.key for item in memtable.all_items()}
        for item in memtable.all_items():
            assert digest[item.key] == item.version.packed()


node_ids = st.integers(min_value=0, max_value=5000).map(NodeId)
free_keys = st.text(min_size=1, max_size=24)
estimates = st.floats(min_value=1.0, max_value=100_000.0,
                      allow_nan=False, allow_infinity=False)
replications = st.integers(min_value=1, max_value=12)


class TestSieveFamilies:
    @given(node_ids, estimates, replications, free_keys)
    @settings(max_examples=150)
    def test_admission_is_a_pure_function(self, node_id, estimate, r, key):
        record = {"a": 1}
        for sieve in (BucketSieve(node_id, r, lambda: estimate),
                      CapacityScaledSieve(node_id, r, lambda: estimate,
                                          capacity=1.5)):
            assert sieve.admits(key, record) == sieve.admits(key, record)
            assert sieve.range_key() == sieve.range_key()

    @given(estimates, replications, free_keys)
    @settings(max_examples=150)
    def test_bucket_partition_is_exhaustive_and_disjoint(self, estimate, r, key):
        """At an agreed bucket count B, every key maps to exactly one
        bucket — so same-B nodes in different buckets never contend, and
        no key falls outside the partition."""
        buckets = bucket_count_for(estimate, r)
        sieve = BucketSieve(NodeId(1), r, lambda: estimate)
        owner = sieve.item_bucket(key, {})
        assert 0 <= owner < buckets
        owner_arc = StaticArcSieve(owner / buckets, (owner + 1) / buckets)
        assert owner_arc.admits(key, {})
        # Exhaustive over all B arcs [i/B, (i+1)/B) without building B
        # sieves (B reaches 65,536): both ends rise with i, so the arcs
        # holding the key are those starting at or before it minus those
        # ending at or before it — two bisections of one boundary array.
        coord = owner_arc.key_fn(key, {}) % 1.0
        bounds = [i / buckets for i in range(buckets + 1)]
        started = bisect.bisect_right(bounds, coord, 0, buckets)
        ended = bisect.bisect_right(bounds, coord, 1, buckets + 1) - 1
        assert list(range(ended, started)) == [owner]

    @given(node_ids, node_ids, estimates, replications, free_keys)
    @settings(max_examples=150)
    def test_same_estimate_nodes_agree_on_placement(self, a, b, estimate, r, key):
        """Two nodes sharing a size estimate agree where a key lives; they
        both admit it only when they share the bucket (never a split
        brain over one key's home)."""
        sa = BucketSieve(a, r, lambda: estimate)
        sb = BucketSieve(b, r, lambda: estimate)
        assert sa.item_bucket(key, {}) == sb.item_bucket(key, {})
        if sa.admits(key, {}) and sb.admits(key, {}):
            assert sa.bucket_index() == sb.bucket_index()

    @given(node_ids, estimates, replications, free_keys)
    @settings(max_examples=100)
    def test_capacity_scaling_is_monotone(self, node_id, estimate, r, key):
        """A higher capacity factor only widens the arc — and the scaled
        sieve always anchors redundancy accounting to its base bucket."""
        narrow = CapacityScaledSieve(node_id, r, lambda: estimate, capacity=0.5)
        wide = CapacityScaledSieve(node_id, r, lambda: estimate, capacity=2.0)
        if narrow.admits(key, {}):
            assert wide.admits(key, {})
        base = BucketSieve(node_id, r, lambda: estimate)
        assert wide.range_key() == base.range_key()

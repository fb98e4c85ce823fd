"""Epidemic dissemination substrates (paper §III-A).

* :class:`EagerGossip` — payload-carrying push gossip (infect-and-die /
  infect-forever), the primary write-dissemination channel.
* :class:`LazyGossip` — lpbcast-style advertise/pull variant trading
  latency for bandwidth.
* :class:`AntiEntropy` — periodic pairwise digest reconciliation, the
  certain-but-slow repair channel (also reused for redundancy repair).
* :mod:`repro.epidemic.analysis` — the analytical infection model behind
  the paper's ln(N)+c fanout arithmetic.
"""

from repro.epidemic.analysis import (
    FanoutTableRow,
    atomic_infection_probability,
    c_for_probability,
    expected_coverage,
    fanout_for_atomic,
    fanout_for_coverage,
    fanout_table,
    messages_per_broadcast,
    replica_success_probability,
)
from repro.epidemic.antientropy import (
    AntiEntropy,
    AntiEntropyStore,
    BucketDigestMessage,
    BucketSummaryMessage,
    BucketedStore,
    DictStore,
    DigestMessage,
    ItemsPush,
    ItemsRequest,
    VersionedItem,
)
from repro.epidemic.eager import EagerGossip, FanoutSpec, GossipMessage
from repro.epidemic.lazy import Advertisement, LazyGossip, PullReply, PullRequest

__all__ = [
    "Advertisement",
    "AntiEntropy",
    "AntiEntropyStore",
    "BucketDigestMessage",
    "BucketSummaryMessage",
    "BucketedStore",
    "DictStore",
    "DigestMessage",
    "EagerGossip",
    "FanoutSpec",
    "FanoutTableRow",
    "GossipMessage",
    "ItemsPush",
    "ItemsRequest",
    "LazyGossip",
    "PullReply",
    "PullRequest",
    "VersionedItem",
    "atomic_infection_probability",
    "c_for_probability",
    "expected_coverage",
    "fanout_for_atomic",
    "fanout_for_coverage",
    "fanout_table",
    "messages_per_broadcast",
    "replica_success_probability",
]

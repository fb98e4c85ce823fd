"""Tests for the heartbeat-mesh failure detector (the e05b comparator)."""

import pytest

from repro import DataDroplets, DataDropletsConfig
from repro.baselines.routebench import SoftMembership
from repro.sim import Cluster, FixedLatency, Simulation
from repro.softstate import ConsistentHashRing


def _trio(seed=141, heartbeat=0.5, timeout=2.0):
    sim = Simulation(seed=seed)
    cluster = Cluster(sim, latency=FixedLatency(0.01))
    ring = ConsistentHashRing(8)
    nodes = []
    for i in range(3):
        node = cluster.add_node(
            lambda n: [SoftMembership(ring, heartbeat_period=heartbeat,
                                      suspect_timeout=timeout)]
        )
        ring.add(node.node_id)
        nodes.append(node)
    return sim, ring, nodes


class TestSoftMembership:
    def test_all_alive_under_normal_operation(self):
        sim, ring, nodes = _trio()
        sim.run_for(10.0)
        assert set(ring.alive_members()) == {n.node_id for n in nodes}

    def test_crashed_member_suspected_within_timeout(self):
        sim, ring, nodes = _trio()
        sim.run_for(5.0)
        nodes[1].crash()
        sim.run_for(5.0)  # > suspect_timeout
        assert nodes[1].node_id not in ring.alive_members()

    def test_rebooted_member_rejoins(self):
        sim, ring, nodes = _trio()
        sim.run_for(5.0)
        nodes[1].crash()
        sim.run_for(5.0)
        nodes[1].boot()
        sim.run_for(5.0)
        assert nodes[1].node_id in ring.alive_members()

    def test_timeout_validation(self):
        ring = ConsistentHashRing(4)
        with pytest.raises(ValueError):
            SoftMembership(ring, heartbeat_period=2.0, suspect_timeout=1.0)


class TestIntegratedFailureDetection:
    def test_detector_absent_by_default(self):
        dd = DataDroplets(DataDropletsConfig(
            seed=144, n_storage=10, n_soft=2,
        )).start(warmup=5.0)
        assert not dd.soft_nodes[0].has_protocol("soft-membership")

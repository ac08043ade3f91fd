"""Tests for the slot-synchronous network loop."""

import pytest

from repro.net.network import Network
from repro.net.topology import star_topology
from repro.schedulers.minimal import MinimalScheduler

from tests.conftest import make_gt_network, make_orchestra_network


class TestConstruction:
    def test_add_node_registers_on_medium(self):
        network = Network(seed=1)
        network.add_node(0, (0.0, 0.0), MinimalScheduler(), is_root=True)
        assert network.medium.node_ids() == (0,)
        assert len(network) == 1

    def test_duplicate_node_id_rejected(self):
        network = Network(seed=1)
        network.add_node(0, (0.0, 0.0), MinimalScheduler(), is_root=True)
        with pytest.raises(ValueError):
            network.add_node(0, (1.0, 0.0), MinimalScheduler())

    def test_node_order_follows_insertion(self):
        network = Network(seed=1)
        for node_id in (5, 2, 9):
            network.add_node(node_id, (float(node_id), 0.0), MinimalScheduler(), is_root=node_id == 5)
        with pytest.raises(ValueError):
            network.add_node(2, (0.0, 0.0), MinimalScheduler())
        assert network._node_list == list(network.nodes.values())
        assert network._node_order == {5: 0, 2: 1, 9: 2}

    def test_build_from_topology_warm_start(self):
        network = make_gt_network(star_topology(3))
        assert len(network) == 4
        assert network.roots()[0].node_id == 0
        for node_id in (1, 2, 3):
            assert network.nodes[node_id].rpl.preferred_parent == 0

    def test_build_from_topology_cold_start(self):
        network = make_gt_network(star_topology(3), warm_start=False)
        for node_id in (1, 2, 3):
            assert network.nodes[node_id].rpl.preferred_parent is None


class TestSlotLoop:
    def test_run_slots_advances_clock(self):
        network = make_gt_network()
        network.run_slots(100)
        assert network.clock.asn == 100

    def test_run_seconds_advances_clock(self):
        network = make_gt_network()
        network.run_seconds(1.5)
        assert network.clock.now == pytest.approx(1.5, abs=0.02)

    def test_start_is_idempotent(self):
        network = make_gt_network()
        network.start()
        network.start()
        network.run_slots(10)

    def test_duty_cycle_accounted_every_slot(self):
        network = make_gt_network()
        network.run_slots(200)
        for node in network.nodes.values():
            assert node.tsch.duty_cycle.total_slots == 200

    def test_unicast_frames_not_processed_by_overhearers(self):
        """A frame addressed to the root must not be forwarded by siblings."""
        network = make_gt_network(star_topology(3), rate_ppm=60)
        network.run_seconds(20.0)
        for node_id in (1, 2, 3):
            assert network.nodes[node_id].stats.data_forwarded == 0

    def test_deterministic_with_same_seed(self):
        results = []
        for _ in range(2):
            network = make_gt_network(star_topology(3), seed=11, rate_ppm=120)
            network.run_seconds(15.0)
            root = network.nodes[0]
            results.append(
                (
                    root.stats.data_delivered_as_sink,
                    network.medium.total_transmissions,
                    network.clock.asn,
                )
            )
        assert results[0] == results[1]

    def test_different_seeds_differ(self):
        outcomes = set()
        for seed in (1, 2, 3):
            network = make_gt_network(star_topology(3), seed=seed, rate_ppm=120)
            network.run_seconds(15.0)
            outcomes.add(network.medium.total_transmissions)
        assert len(outcomes) > 1


class TestRunExperiment:
    def test_metrics_window_excludes_warmup(self):
        network = make_gt_network(star_topology(3), rate_ppm=120)
        metrics = network.run_experiment(warmup_s=5.0, measurement_s=10.0, drain_s=2.0)
        assert metrics.duration_s == pytest.approx(10.0, abs=0.1)
        assert metrics.generated > 0
        assert 0.0 <= metrics.pdr_percent <= 100.0

    def test_traffic_stops_during_drain(self):
        network = make_gt_network(star_topology(3), rate_ppm=600)
        network.run_experiment(warmup_s=2.0, measurement_s=5.0, drain_s=2.0)
        for node in network.nodes.values():
            assert not node.traffic_enabled

    def test_scheduler_name_defaults_to_scheduler(self):
        network = make_gt_network(star_topology(2), rate_ppm=60)
        metrics = network.run_experiment(warmup_s=2.0, measurement_s=5.0, drain_s=1.0)
        assert metrics.scheduler == "GT-TSCH"

    def test_orchestra_network_runs(self):
        network = make_orchestra_network(star_topology(3), rate_ppm=60)
        metrics = network.run_experiment(warmup_s=5.0, measurement_s=10.0, drain_s=2.0)
        assert metrics.scheduler == "Orchestra"
        assert metrics.generated > 0
        assert metrics.delivered > 0

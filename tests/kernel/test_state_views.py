"""Per-node hot state across the fault injector's crash and rejoin barriers.

The state GT-TSCH's game reads (liveness, place in the DAG, queue contents,
radio accounting) lives as plain attributes on the objects that own it:
``Node.alive``, ``RplEngine.rank``/``preferred_parent``, ``TxQueue``'s
per-``PacketType`` counts, ``DutyCycleMeter``'s counters and
``TschEngine.duty_accounted_asn``.  A crash must clear all of it at once and
stop every timer that would make the dead radio act; a rejoin must restore
it and re-arm the advertisement timers.  These tests pin that through the
public objects, plus the invariants the derived state keeps over a full run.
"""

from __future__ import annotations

from dataclasses import replace

from repro.experiments.scenarios import MINIMAL, traffic_load_scenario
from repro.faults import FaultPlan, LinkDegradation, NodeCrash, NodeRejoin, ParentLoss
from repro.net.packet import PacketType
from repro.rpl.rank import INFINITE_RANK

VICTIM = 3

PLAN = FaultPlan(
    crashes=(NodeCrash(time_s=10.0, node_id=VICTIM, detect_after_s=1.5),),
    rejoins=(NodeRejoin(time_s=16.0, node_id=VICTIM),),
    link_epochs=(LinkDegradation(time_s=12.0, prr_scale=0.6, duration_s=4.0),),
    parent_losses=(ParentLoss(time_s=18.0, node_id=1),),
)


def build_network(plan, scheduler=MINIMAL, seed=1):
    scenario = traffic_load_scenario(
        rate_ppm=60.0,
        scheduler=scheduler,
        seed=seed,
        measurement_s=14.0,
        warmup_s=8.0,
    )
    scenario = replace(scenario, faults=plan, warm_start=True)
    return scenario.build_network(), scenario


def run_to(network, seconds: float) -> None:
    target = network.clock.seconds_to_slots(seconds)
    if target > network.clock.asn:
        network.run_slots(target - network.clock.asn)


def assert_consistent(network) -> None:
    """Derived per-node state agrees with what it summarises, on every node."""
    for node in network.nodes.values():
        engine = node.tsch
        meter = engine.duty_cycle
        assert isinstance(node.alive, bool)
        assert isinstance(node.rpl.rank, int)
        assert meter.total_slots == meter.tx_slots + meter.rx_slots + meter.sleep_slots
        assert 0 <= meter.idle_listen_slots <= meter.rx_slots
        assert engine.duty_accounted_asn <= network.clock.asn
        for ptype in PacketType:
            queued = any(packet.ptype is ptype for packet in engine.queue)
            assert engine.queue.contains_ptype(ptype) == queued


class TestFaultBarrierCoherence:
    def test_crash_clears_the_row(self):
        network, _ = build_network(PLAN)
        run_to(network, 11.0)  # past the crash, before the rejoin
        node = network.nodes[VICTIM]
        assert node.alive is False
        assert not node.rpl.is_joined()
        assert node.rpl.preferred_parent is None
        assert node.rpl.rank == INFINITE_RANK
        assert len(node.tsch.queue) == 0
        assert not any(node.tsch.queue.contains_ptype(p) for p in PacketType)
        # A dead radio advertises nothing and generates nothing.
        assert not node._eb_timer.running
        assert not node.rpl.trickle.running
        assert node.traffic is None or node.traffic._timer is None or not (
            node.traffic._timer.running
        )
        assert [n.node_id for n in network.nodes.values() if n.alive] == [
            n for n in network.nodes if n != VICTIM
        ]
        assert_consistent(network)

    def test_rejoin_restores_the_row(self):
        network, scenario = build_network(PLAN)
        run_to(network, 17.0)  # past the rejoin
        node = network.nodes[VICTIM]
        assert node.alive is True
        assert node.rpl.rank < INFINITE_RANK
        # The reboot re-armed the advertisement timers.
        assert node._eb_timer.running
        assert node.rpl.trickle.running
        run_to(network, scenario.warmup_s + scenario.measurement_s)
        assert_consistent(network)

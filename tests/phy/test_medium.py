"""Tests for per-slot medium arbitration (collisions, ACKs, hidden terminals)."""

import random

from hypothesis import example, given, settings, strategies as st

from repro.net.packet import BROADCAST_ADDRESS, Packet, PacketType, make_data_packet
from repro.net.topology import scale_topology
from repro.phy.medium import Medium, TransmissionIntent
from repro.phy.propagation import (
    FixedPrrModel,
    LogisticPrrModel,
    PropagationModel,
    UnitDiskLossyEdgeModel,
    distance,
)


def perfect_medium(positions, interference_pairs=None):
    """A medium where every registered link is perfect (PRR 1)."""
    model = FixedPrrModel(default_prr=0.0)
    keys = list(positions.items())
    for i, (_, pa) in enumerate(keys):
        for j, (_, pb) in enumerate(keys):
            if i < j:
                model.set_link(pa, pb, 1.0)
    if interference_pairs:
        for a, b in interference_pairs:
            model.add_interference(positions[a], positions[b])
    medium = Medium(model, random.Random(1))
    for node_id, position in positions.items():
        medium.register_node(node_id, position)
    return medium


def unicast(sender, receiver, channel):
    packet = make_data_packet(sender, receiver, created_at=0.0)
    packet.link_source = sender
    packet.link_destination = receiver
    return TransmissionIntent(sender=sender, packet=packet, channel=channel)


class TestLinkQueries:
    def test_link_prr_and_neighbors(self):
        medium = Medium(UnitDiskLossyEdgeModel(), random.Random(0))
        medium.register_node(0, (0, 0))
        medium.register_node(1, (10, 0))
        medium.register_node(2, (200, 0))
        assert medium.link_prr(0, 1) > 0.9
        assert medium.link_prr(0, 2) == 0.0
        assert medium.neighbors_of(0) == [1]

    def test_self_link_is_zero(self):
        medium = Medium(UnitDiskLossyEdgeModel(), random.Random(0))
        medium.register_node(0, (0, 0))
        assert medium.link_prr(0, 0) == 0.0
        assert not medium.interferes(0, 0)

    def test_moving_a_node_invalidates_cache(self):
        medium = Medium(UnitDiskLossyEdgeModel(), random.Random(0))
        medium.register_node(0, (0, 0))
        medium.register_node(1, (10, 0))
        assert medium.link_prr(0, 1) > 0.0
        medium.register_node(1, (500, 0))
        assert medium.link_prr(0, 1) == 0.0


class TestSlotResolution:
    def test_single_unicast_delivery_and_ack(self):
        medium = perfect_medium({0: (0, 0), 1: (1, 0)})
        results = medium.resolve_slot([unicast(0, 1, channel=15)], {1: 15})
        assert results[0].delivered
        assert results[0].acked
        assert results[0].receivers == [1]

    def test_no_delivery_when_listener_on_other_channel(self):
        medium = perfect_medium({0: (0, 0), 1: (1, 0)})
        results = medium.resolve_slot([unicast(0, 1, channel=15)], {1: 20})
        assert not results[0].delivered
        assert not results[0].acked

    def test_no_delivery_when_destination_not_listening(self):
        medium = perfect_medium({0: (0, 0), 1: (1, 0)})
        results = medium.resolve_slot([unicast(0, 1, channel=15)], {})
        assert not results[0].delivered

    def test_collision_when_two_senders_same_channel(self):
        medium = perfect_medium({0: (0, 0), 1: (1, 0), 2: (2, 0)})
        intents = [unicast(0, 1, 15), unicast(2, 1, 15)]
        results = medium.resolve_slot(intents, {1: 15})
        assert not results[0].delivered
        assert not results[1].delivered
        assert results[0].collided or results[1].collided
        assert medium.total_collisions >= 1

    def test_no_collision_on_different_channels(self):
        medium = perfect_medium({0: (0, 0), 1: (1, 0), 2: (2, 0), 3: (3, 0)})
        intents = [unicast(0, 1, 15), unicast(2, 3, 20)]
        results = medium.resolve_slot(intents, {1: 15, 3: 20})
        assert results[0].delivered
        assert results[1].delivered

    def test_hidden_terminal_collision(self):
        """Two senders out of each other's range still collide at the listener.

        This is interference problem 4 of Section III (the hidden-terminal
        case motivating GT-TSCH's three-hop channel uniqueness).
        """
        model = FixedPrrModel(default_prr=0.0)
        positions = {0: (0.0, 0.0), 1: (10.0, 0.0), 2: (20.0, 0.0)}
        model.set_link(positions[0], positions[1], 1.0)
        model.set_link(positions[2], positions[1], 1.0)
        # Senders 0 and 2 cannot hear each other (no link), but both reach 1.
        medium = Medium(model, random.Random(1))
        for node_id, position in positions.items():
            medium.register_node(node_id, position)
        results = medium.resolve_slot([unicast(0, 1, 15), unicast(2, 1, 15)], {1: 15})
        assert not results[0].delivered
        assert not results[1].delivered

    def test_broadcast_reaches_all_listeners(self):
        medium = perfect_medium({0: (0, 0), 1: (1, 0), 2: (2, 0)})
        packet = Packet(
            ptype=PacketType.DIO,
            source=0,
            destination=BROADCAST_ADDRESS,
            link_source=0,
            link_destination=BROADCAST_ADDRESS,
        )
        intent = TransmissionIntent(sender=0, packet=packet, channel=15, expects_ack=False)
        results = medium.resolve_slot([intent], {1: 15, 2: 15})
        assert sorted(results[0].receivers) == [1, 2]
        assert not results[0].acked

    def test_lossy_link_statistics(self):
        model = FixedPrrModel(default_prr=0.0)
        model.set_link((0.0, 0.0), (1.0, 0.0), 0.5)
        medium = Medium(model, random.Random(7))
        medium.register_node(0, (0.0, 0.0))
        medium.register_node(1, (1.0, 0.0))
        delivered = 0
        for _ in range(400):
            results = medium.resolve_slot([unicast(0, 1, 15)], {1: 15})
            delivered += int(results[0].delivered)
        assert 140 < delivered < 260  # ~50 % with generous slack

    def test_transmitter_not_in_listeners(self):
        """Half-duplex: the sender itself never appears as a receiver."""
        medium = perfect_medium({0: (0, 0), 1: (1, 0)})
        results = medium.resolve_slot([unicast(0, 1, 15)], {1: 15})
        assert 0 not in results[0].receivers

    def test_empty_slot(self):
        medium = perfect_medium({0: (0, 0)})
        assert medium.resolve_slot([], {0: 15}) == []

    def test_interference_only_node_does_not_decode(self):
        """A node in interference range but out of communication range corrupts
        receptions without being able to decode anything itself."""
        model = FixedPrrModel(default_prr=0.0)
        a, b, c = (0.0, 0.0), (1.0, 0.0), (2.0, 0.0)
        model.set_link(a, b, 1.0)
        model.add_interference(c, b)  # c's energy reaches b, but no usable link
        medium = Medium(model, random.Random(1))
        medium.register_node(0, a)
        medium.register_node(1, b)
        medium.register_node(2, c)
        # c transmits to an unrelated destination on the same channel.
        intents = [unicast(0, 1, 15), unicast(2, 0, 15)]
        results = medium.resolve_slot(intents, {1: 15})
        assert not results[0].delivered


class TestFreeze:
    def _medium(self):
        medium = Medium(UnitDiskLossyEdgeModel(), random.Random(0))
        medium.register_node(0, (0.0, 0.0))
        medium.register_node(1, (10.0, 0.0))
        medium.register_node(2, (60.0, 0.0))   # interference range only
        medium.register_node(3, (500.0, 0.0))  # out of range entirely
        return medium

    def test_frozen_tables_match_lazy_queries(self):
        lazy = self._medium()
        frozen = self._medium()
        frozen.freeze()
        assert frozen.frozen and not lazy.frozen
        for a in range(4):
            for b in range(4):
                assert frozen.link_prr(a, b) == lazy.link_prr(a, b)
                assert frozen.interferes(a, b) == lazy.interferes(a, b)
        assert frozen.neighbors_of(0) == lazy.neighbors_of(0)

    def test_freeze_is_idempotent_and_register_unfreezes(self):
        medium = self._medium()
        medium.freeze()
        medium.freeze()
        assert medium.frozen
        medium.register_node(4, (20.0, 0.0))
        assert not medium.frozen
        medium.freeze()
        assert medium.link_prr(0, 4) > 0.0

    def test_adopter_epochs_leave_the_shared_snapshot_intact(self):
        donor = self._medium()
        donor.freeze()
        snapshot = donor.export_frozen()
        pristine = [[donor.link_prr(a, b) for b in range(4)] for a in range(4)]
        adopter = self._medium()
        assert adopter.adopt_frozen(snapshot)
        adopter.set_prr_scale(0.5)
        assert [[adopter.link_prr(a, b) for b in range(4)] for a in range(4)] == [
            [0.5 * value for value in row] for row in pristine
        ]
        # Neither the donor nor a later adopter of the same snapshot sees the
        # epoch, in link queries or in arbitration.
        late = self._medium()
        assert late.adopt_frozen(snapshot)
        for medium in (donor, late):
            assert [[medium.link_prr(a, b) for b in range(4)] for a in range(4)] == pristine
        outcomes = []
        for medium in (self._medium(), late):
            medium.freeze()
            medium.rng = random.Random(3)
            delivered = [
                medium.resolve_slot([unicast(0, 1, 15)], {1: 15, 2: 15})[0].delivered
                for _ in range(16)
            ]
            outcomes.append((delivered, medium.rng.random()))
        assert outcomes[0] == outcomes[1]

    def test_thresholded_neighbors_filter_the_frozen_map(self):
        """Same lists, same order as the lazy scan, without a per-node scan."""
        positions = {9: (0.0, 0.0), 4: (31.0, 0.0), 7: (10.0, 5.0), 1: (44.0, 0.0), 5: (0.0, 40.0)}

        def medium():
            built = Medium(UnitDiskLossyEdgeModel(), random.Random(0))
            for node_id, position in positions.items():
                built.register_node(node_id, position)
            return built

        lazy, frozen = medium(), medium()
        frozen.freeze()

        def no_scan(sender, receiver):
            raise AssertionError("neighbors_of scanned every node")

        frozen.link_prr = no_scan
        for node_id in positions:
            for threshold in (0.0, 0.5, 0.9, 0.97):
                assert frozen.neighbors_of(node_id, threshold) == lazy.neighbors_of(
                    node_id, threshold
                )

    def test_audience_of_is_the_interference_neighbourhood(self):
        medium = self._medium()
        medium.freeze()
        assert medium.audience_of(0) == frozenset({1, 2})
        assert medium.audience_of(3) == frozenset()

    def test_resolve_slot_with_grouping_matches_without(self):
        """Passing the precomputed per-channel grouping must not change
        arbitration results or RNG draws."""

        def run(grouped, fast_paths):
            medium = perfect_medium({0: (0, 0), 1: (1, 0), 2: (2, 0), 3: (3, 0)})
            medium.fast_paths = fast_paths
            medium.rng = random.Random(42)
            listeners = {1: 15, 2: 20, 3: 15}
            by_channel = {15: [1, 3], 20: [2]} if grouped else None
            results = medium.resolve_slot(
                [unicast(0, 1, channel=15)], listeners, by_channel
            )
            return [(r.receivers, r.delivered, r.acked) for r in results], medium.rng.random()

        baseline = run(grouped=False, fast_paths=False)
        assert run(grouped=True, fast_paths=True) == baseline
        assert run(grouped=False, fast_paths=True) == baseline

    def test_multi_transmitter_same_channel_fast_path_matches_reference(self):
        def run(fast_paths, frozen):
            medium = perfect_medium(
                {0: (0, 0), 1: (1, 0), 2: (2, 0), 3: (3, 0)},
                interference_pairs=[(0, 3), (1, 3), (0, 2), (1, 2)],
            )
            if frozen:
                medium.freeze()
            medium.fast_paths = fast_paths
            medium.rng = random.Random(7)
            intents = [unicast(0, 2, channel=15), unicast(1, 3, channel=15)]
            results = medium.resolve_slot(intents, {2: 15, 3: 15})
            outcome = [
                (r.receivers, r.delivered, r.acked, r.collided) for r in results
            ]
            return outcome, medium.total_collisions, medium.rng.random()

        baseline = run(fast_paths=False, frozen=False)
        assert run(fast_paths=True, frozen=False) == baseline
        assert run(fast_paths=True, frozen=True) == baseline


def _intent(sender, channel, destination):
    """A unicast intent to ``destination``, or a broadcast when it is None."""
    if destination is not None:
        return unicast(sender, destination, channel)
    packet = make_data_packet(sender, BROADCAST_ADDRESS, created_at=0.0)
    packet.link_source = sender
    packet.link_destination = BROADCAST_ADDRESS
    return TransmissionIntent(sender=sender, packet=packet, channel=channel, expects_ack=False)


@st.composite
def _slot_cases(draw):
    """A layout, one slot's intents and its listeners in a shuffled order."""
    count = draw(st.integers(min_value=2, max_value=12))
    coordinate = st.integers(min_value=0, max_value=24).map(lambda step: 4.0 * step)
    points = draw(st.lists(st.tuples(coordinate, coordinate), min_size=count, max_size=count))
    nodes = draw(st.permutations(range(count)))
    num_senders = draw(st.integers(min_value=1, max_value=min(5, count - 1)))
    channels = st.sampled_from([11, 12])
    intents = []
    for sender in nodes[:num_senders]:
        others = [node for node in range(count) if node != sender]
        destination = draw(st.one_of(st.none(), st.sampled_from(others)))
        intents.append((sender, draw(channels), destination))
    listeners = [
        (node, draw(channels))
        for node in draw(st.permutations(nodes[num_senders:]))
        if draw(st.booleans()) or count < 4
    ]
    return points, intents, listeners, draw(st.integers(min_value=0, max_value=2**16))


class TestTransmitterCentricResolve:
    """The frozen medium's transmitter-centric path against the reference."""

    @staticmethod
    def _run(case, frozen, fast_paths):
        points, intents, listeners, seed = case
        medium = Medium(
            UnitDiskLossyEdgeModel(
                reliable_range=12.0, communication_range=40.0, interference_range=60.0
            ),
            random.Random(seed),
        )
        for node_id, point in enumerate(points):
            medium.register_node(node_id, point)
        if frozen:
            medium.freeze()
        medium.fast_paths = fast_paths
        listening = dict(listeners)
        by_channel = {}
        for node_id, channel in listening.items():
            by_channel.setdefault(channel, []).append(node_id)
        results = medium.resolve_slot(
            [_intent(*intent) for intent in intents], listening, by_channel
        )
        outcome = [(r.receivers, r.delivered, r.acked, r.collided) for r in results]
        return outcome, medium.total_collisions, medium.rng.random()

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(case=_slot_cases())
    # Listeners handed over in reverse registration order: draws must follow
    # the caller's order, not the ids' registration order.
    @example(
        case=(
            [(0.0, 0.0), (16.0, 0.0), (28.0, 0.0), (36.0, 0.0)],
            [(0, 11, None)],
            [(3, 11), (2, 11), (1, 11)],
            1,
        )
    )
    def test_matches_the_reference_path(self, case):
        reference = self._run(case, frozen=False, fast_paths=False)
        assert self._run(case, frozen=True, fast_paths=False) == reference
        assert self._run(case, frozen=True, fast_paths=True) == reference


class RingModel(PropagationModel):
    """A custom model that states no cut-off: PRR 0.8 on an annulus only."""

    def prr(self, a, b):
        return 0.8 if 20.0 <= distance(a, b) <= 40.0 else 0.0

    def in_interference_range(self, a, b):
        return distance(a, b) <= 40.0


def _fixed_model(points):
    """A FixedPrrModel with a few explicit links among ``points``."""
    model = FixedPrrModel(default_prr=0.0)
    for a, b in zip(points, points[1:]):
        if a != b:
            model.set_link(a, b, 0.6)
    if len(points) > 2 and points[0] != points[2]:
        model.add_interference(points[0], points[2])
    return model


MODELS = {
    "unit-disk": lambda points: UnitDiskLossyEdgeModel(),
    "unit-disk-narrow": lambda points: UnitDiskLossyEdgeModel(
        reliable_range=5.0, communication_range=15.0, interference_range=20.0
    ),
    "logistic": lambda points: LogisticPrrModel(),
    "logistic-wide-curve": lambda points: LogisticPrrModel(
        midpoint=60.0, steepness=0.1, interference_range=30.0
    ),
    "fixed": _fixed_model,
    "custom-no-cutoff": lambda points: RingModel(),
}


def all_pairs_tables(model, positions):
    """Reference tables: query the model for every ordered pair.

    Returns per-sender PRR and interference rows over every node (in
    registration order) and per-sender neighbour and audience lists.
    """
    ids = list(positions)
    prr_rows, interf_rows, neighbors, audience = {}, {}, {}, {}
    for a in ids:
        prr_rows[a] = [
            0.0 if a == b else model.prr(positions[a], positions[b]) for b in ids
        ]
        interf_rows[a] = [
            False if a == b else model.in_interference_range(positions[a], positions[b])
            for b in ids
        ]
        neighbors[a] = [
            b for index, b in enumerate(ids) if b != a and prr_rows[a][index] > 0.0
        ]
        audience[a] = [b for index, b in enumerate(ids) if interf_rows[a][index]]
    return prr_rows, interf_rows, neighbors, audience


# Coordinates on a 7 m lattice (plus a jitter that keeps some exact): the
# unit-disk cut-off of 70 m and the 20 m narrow model's are hit exactly by
# lattice pairs such as (0, 0)-(70, 0) and (-42, 0)-(0, 56).
_coordinate = st.builds(
    lambda step, jitter: 7.0 * step + jitter,
    st.integers(min_value=-40, max_value=40),
    st.sampled_from([0.0, 0.0, 0.5, -1e-9, 1e-9]),
)
_layout = st.lists(st.tuples(_coordinate, _coordinate), min_size=0, max_size=40)


class TestGridFreeze:
    """Grid-bucketed freeze must match an all-pairs pass table for table."""

    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(model_name=st.sampled_from(sorted(MODELS)), points=_layout)
    @example(model_name="unit-disk", points=[(0.0, 0.0), (70.0, 0.0), (-42.0, 0.0), (0.0, 56.0)])
    @example(model_name="unit-disk", points=[(-70.0, -70.0), (0.0, -70.0), (0.0, 0.0), (0.0, 0.0)])
    @example(model_name="unit-disk-narrow", points=[(0.0, 0.0), (20.0, 0.0), (-12.0, -16.0)])
    @example(model_name="logistic", points=[(5.0, 5.0), (5.0, 5.0), (85.0, 5.0), (-75.0, 5.0)])
    def test_matches_all_pairs_reference(self, model_name, points):
        model = MODELS[model_name](points)
        # Ids deliberately out of order with positions, so index != id.
        positions = {(7 * index) % 101: point for index, point in enumerate(points)}
        medium = Medium(model, random.Random(0))
        for node_id, position in positions.items():
            medium.register_node(node_id, position)
        medium.freeze()

        prr_rows, interf_rows, neighbors, audience = all_pairs_tables(model, positions)
        ids = list(positions)
        assert list(medium.node_ids()) == ids
        for a in ids:
            assert [medium.link_prr(a, b) for b in ids] == prr_rows[a]
            assert [medium.interferes(a, b) for b in ids] == interf_rows[a]
            # Same members in the same (registration) order.
            assert list(medium.audience_of(a)) == audience[a]
            assert medium.neighbors_of(a) == neighbors[a]

    def test_models_without_cutoff_query_every_pair(self):
        class CountingFixed(FixedPrrModel):
            calls = 0

            def in_interference_range(self, a, b):
                self.calls += 1
                return super().in_interference_range(a, b)

        model = CountingFixed(default_prr=0.0)
        assert model.cutoff_range() is None
        medium = Medium(model, random.Random(0))
        for spec in scale_topology(60):
            medium.register_node(spec.node_id, spec.position)
        medium.freeze()
        assert model.calls == 60 * 59

    def test_frozen_maps_grow_linearly_on_scale_topology(self):
        """Machine-independent memory gate: the frozen medium stores O(N*k)
        entries (doubling N at most ~doubles them) and no per-sender
        container spans every node."""

        def footprint(num_nodes):
            medium = Medium(UnitDiskLossyEdgeModel(), random.Random(0))
            for spec in scale_topology(num_nodes):
                medium.register_node(spec.node_id, spec.position)
            medium.freeze()
            rows = [
                row
                for table in vars(medium).values()
                if isinstance(table, dict)
                for row in table.values()
                if isinstance(row, (list, dict, set, frozenset))
            ]
            assert rows and max(map(len, rows)) < num_nodes
            return sum(map(len, rows))

        small, large = footprint(1000), footprint(2000)
        assert large <= 2.2 * small, (small, large)

    def test_medium_does_not_import_numpy(self):
        import repro.phy.medium as medium_module

        assert not [
            name
            for name, value in vars(medium_module).items()
            if getattr(value, "__name__", "").split(".")[0] == "numpy"
        ]

    def test_prr_queries_grow_linearly_on_scale_topology(self):
        """Deterministic work-count gate: doubling N at most ~doubles the
        propagation queries (the all-pairs pass would quadruple them)."""

        class CountingUnitDisk(UnitDiskLossyEdgeModel):
            calls = 0

            def prr(self, a, b):
                self.calls += 1
                return super().prr(a, b)

        def prr_calls(num_nodes):
            model = CountingUnitDisk()
            medium = Medium(model, random.Random(0))
            for spec in scale_topology(num_nodes):
                medium.register_node(spec.node_id, spec.position)
            medium.freeze()
            return model.calls

        small, large = prr_calls(500), prr_calls(1000)
        assert small < 500 * 499 // 10
        assert large <= 2.2 * small, (small, large)

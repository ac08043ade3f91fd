"""Tests for topology builders."""

import math
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.topology import (
    NodeSpec,
    TopologyBuilder,
    grid_positions,
    line_topology,
    multi_dodag_topology,
    random_topology,
    single_dodag_topology,
    star_topology,
    tree_topology,
)
from repro.rpl.rank import MIN_HOP_RANK_INCREASE


def assert_is_forest(topology: TopologyBuilder):
    """Every non-root node must reach a root by following parents."""
    parent_map = topology.parent_map()
    roots = {spec.node_id for spec in topology.roots()}
    for spec in topology:
        seen = set()
        current = spec.node_id
        while current not in roots:
            assert current not in seen, "cycle detected"
            seen.add(current)
            current = parent_map[current]
            assert current is not None, f"node {spec.node_id} does not reach a root"


class TestTopologyBuilder:
    def test_duplicate_ids_rejected(self):
        topo = TopologyBuilder()
        topo.add(NodeSpec(node_id=0, position=(0, 0), is_root=True))
        with pytest.raises(ValueError):
            topo.add(NodeSpec(node_id=0, position=(1, 1)))

    def test_children_of_and_parent_map(self):
        topo = star_topology(3)
        assert sorted(topo.children_of(0)) == [1, 2, 3]
        assert topo.parent_map()[2] == 0

    def test_spec_lookup(self):
        topo = star_topology(2)
        assert topo.spec(1).parent == 0
        with pytest.raises(KeyError):
            topo.spec(99)

    def test_spec_lookup_sees_direct_appends(self):
        topo = line_topology(3)
        assert topo.spec(2).depth == 2
        topo.nodes.append(NodeSpec(node_id=7, position=(5, 5), parent=2, depth=3))
        assert topo.spec(7).parent == 2
        with pytest.raises(ValueError):
            topo.add(NodeSpec(node_id=7, position=(6, 6)))

    def test_spec_lookup_survives_list_edits(self):
        topo = line_topology(4)
        assert topo.spec(3).depth == 3
        del topo.nodes[1]
        assert topo.spec(3).depth == 3
        with pytest.raises(KeyError):
            topo.spec(1)
        topo.nodes[0] = NodeSpec(node_id=9, position=(0, 0), is_root=True)
        assert topo.spec(9).is_root
        topo.nodes = [NodeSpec(node_id=4, position=(1, 1))]
        assert topo.spec(4).position == (1, 1)
        with pytest.raises(KeyError):
            topo.spec(3)

    def test_index_is_not_part_of_equality_repr_or_pickle(self):
        built = TopologyBuilder()
        built.add(NodeSpec(node_id=0, position=(0, 0), is_root=True))
        built.spec(0)
        plain = TopologyBuilder(nodes=[NodeSpec(node_id=0, position=(0, 0), is_root=True)])
        assert built == plain
        assert repr(built) == repr(plain)
        assert pickle.dumps(built) == pickle.dumps(plain)
        assert pickle.loads(pickle.dumps(built)).spec(0).is_root

    def test_initial_rank(self):
        topo = line_topology(3)
        assert topo.initial_rank(0) == MIN_HOP_RANK_INCREASE
        assert topo.initial_rank(1) == MIN_HOP_RANK_INCREASE + 2 * MIN_HOP_RANK_INCREASE
        assert topo.initial_rank(2) > topo.initial_rank(1)


class TestCanonicalTopologies:
    def test_line_topology(self):
        topo = line_topology(4, spacing=10.0)
        assert len(topo) == 4
        assert topo.spec(0).is_root
        assert topo.spec(3).parent == 2
        assert topo.spec(3).depth == 3
        assert_is_forest(topo)

    def test_star_topology(self):
        topo = star_topology(5, radius=20.0)
        assert len(topo) == 6
        assert all(spec.parent == 0 for spec in topo if not spec.is_root)
        assert_is_forest(topo)

    def test_tree_topology_counts(self):
        topo = tree_topology(depth=2, branching=2)
        assert len(topo) == 1 + 2 + 4
        assert topo.max_depth() == 2
        assert_is_forest(topo)

    def test_single_dodag_respects_child_limit(self):
        topo = single_dodag_topology(10, max_children_per_node=3)
        for spec in topo:
            assert len(topo.children_of(spec.node_id)) <= 3
        assert_is_forest(topo)

    def test_single_dodag_children_within_radio_range(self):
        topo = single_dodag_topology(8, hop_spacing=28.0)
        for spec in topo:
            if spec.parent is None:
                continue
            parent = topo.spec(spec.parent)
            dist = math.hypot(
                spec.position[0] - parent.position[0],
                spec.position[1] - parent.position[1],
            )
            assert dist == pytest.approx(28.0, abs=1e-6)

    def test_grid_positions(self):
        positions = grid_positions(5, spacing=10.0)
        assert len(positions) == 5
        assert positions[0] == (0.0, 0.0)
        assert positions[4] == (10.0, 10.0)


class TestMultiDodag:
    def test_fig8_topology_is_14_nodes_two_roots(self):
        topo = multi_dodag_topology(num_dodags=2, nodes_per_dodag=7)
        assert len(topo) == 14
        assert len(topo.roots()) == 2
        assert_is_forest(topo)

    def test_fig9_sweep_sizes(self):
        for size in (6, 7, 8, 9):
            topo = multi_dodag_topology(num_dodags=2, nodes_per_dodag=size)
            assert len(topo) == 2 * size

    def test_dodags_are_far_apart(self):
        topo = multi_dodag_topology(num_dodags=2, nodes_per_dodag=7, dodag_separation=500.0)
        first = [spec for spec in topo if spec.dodag_id == 0]
        second = [spec for spec in topo if spec.dodag_id == 7]
        min_gap = min(
            math.hypot(a.position[0] - b.position[0], a.position[1] - b.position[1])
            for a in first
            for b in second
        )
        assert min_gap > 300.0

    def test_dodag_ids_point_to_roots(self):
        topo = multi_dodag_topology(num_dodags=3, nodes_per_dodag=5)
        roots = {spec.node_id for spec in topo.roots()}
        assert all(spec.dodag_id in roots for spec in topo)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            multi_dodag_topology(num_dodags=0)
        with pytest.raises(ValueError):
            single_dodag_topology(0)
        with pytest.raises(ValueError):
            line_topology(0)
        with pytest.raises(ValueError):
            star_topology(0)


class TestRandomTopology:
    def test_connected_tree(self):
        topo = random_topology(12, area=120.0, rng=random.Random(3))
        assert len(topo) == 12
        assert_is_forest(topo)

    def test_depths_consistent_with_parents(self):
        topo = random_topology(10, area=100.0, rng=random.Random(5))
        for spec in topo:
            if spec.parent is not None:
                assert spec.depth == topo.spec(spec.parent).depth + 1

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=20), st.integers(min_value=0, max_value=1000))
    def test_random_topology_always_forest(self, size, seed):
        topo = random_topology(size, area=80.0, rng=random.Random(seed))
        assert len(topo) == size
        assert_is_forest(topo)


class TestSingleDodagProperties:
    @given(st.integers(min_value=1, max_value=25))
    def test_node_count_and_forest(self, count):
        topo = single_dodag_topology(count)
        assert len(topo) == count
        assert_is_forest(topo)
        assert len(topo.roots()) == 1

"""Tests for the radio propagation models."""

import pytest
from hypothesis import given, strategies as st

from repro.phy.propagation import (
    FixedPrrModel,
    LogisticPrrModel,
    UnitDiskLossyEdgeModel,
    distance,
)


class TestDistance:
    def test_euclidean(self):
        assert distance((0, 0), (3, 4)) == pytest.approx(5.0)

    def test_zero(self):
        assert distance((1.5, -2.0), (1.5, -2.0)) == 0.0


class TestUnitDiskLossyEdgeModel:
    def test_full_prr_inside_reliable_range(self):
        model = UnitDiskLossyEdgeModel(reliable_range=20, communication_range=40, interference_range=60)
        assert model.prr((0, 0), (10, 0)) == pytest.approx(model.prr_max)

    def test_zero_prr_beyond_communication_range(self):
        model = UnitDiskLossyEdgeModel(reliable_range=20, communication_range=40, interference_range=60)
        assert model.prr((0, 0), (41, 0)) == 0.0
        assert not model.in_communication_range((0, 0), (41, 0))

    def test_edge_prr_decays_linearly(self):
        model = UnitDiskLossyEdgeModel(
            reliable_range=20, communication_range=40, interference_range=60,
            prr_max=1.0, prr_edge=0.5,
        )
        midpoint = model.prr((0, 0), (30, 0))
        assert midpoint == pytest.approx(0.75)

    def test_interference_extends_beyond_communication(self):
        model = UnitDiskLossyEdgeModel(reliable_range=20, communication_range=40, interference_range=60)
        assert model.in_interference_range((0, 0), (50, 0))
        assert not model.in_interference_range((0, 0), (61, 0))
        assert model.prr((0, 0), (50, 0)) == 0.0

    def test_invalid_range_ordering_rejected(self):
        with pytest.raises(ValueError):
            UnitDiskLossyEdgeModel(reliable_range=50, communication_range=40)

    def test_invalid_prr_ordering_rejected(self):
        with pytest.raises(ValueError):
            UnitDiskLossyEdgeModel(prr_max=0.4, prr_edge=0.6)

    def test_cutoff_is_interference_range(self):
        model = UnitDiskLossyEdgeModel(reliable_range=20, communication_range=40, interference_range=60)
        assert model.cutoff_range() == 60
        assert model.prr((0, 0), (60, 0)) == 0.0
        assert model.in_interference_range((0, 0), (60, 0))
        assert not model.in_interference_range((0, 0), (60.000001, 0))

    @given(st.floats(min_value=0.0, max_value=100.0))
    def test_prr_monotonically_non_increasing_with_distance(self, d):
        model = UnitDiskLossyEdgeModel()
        closer = model.prr((0, 0), (d, 0))
        farther = model.prr((0, 0), (d + 1.0, 0))
        assert farther <= closer + 1e-12

    @given(st.floats(min_value=0.0, max_value=200.0))
    def test_prr_bounded(self, d):
        model = UnitDiskLossyEdgeModel()
        prr = model.prr((0, 0), (d, 0))
        assert 0.0 <= prr <= 1.0


class TestLogisticPrrModel:
    def test_close_links_near_max(self):
        model = LogisticPrrModel()
        assert model.prr((0, 0), (1, 0)) > 0.9

    def test_far_links_floor_to_zero(self):
        model = LogisticPrrModel()
        assert model.prr((0, 0), (200, 0)) == 0.0
        # exp() overflows this far out; the curve is still just 0.
        assert model.prr((0, 0), (5000, 0)) == 0.0

    def test_midpoint_is_half_of_max(self):
        model = LogisticPrrModel(midpoint=35.0, prr_max=0.98)
        assert model.prr((0, 0), (35, 0)) == pytest.approx(0.49, abs=1e-6)

    def test_interference_range(self):
        model = LogisticPrrModel(interference_range=80.0)
        assert model.in_interference_range((0, 0), (79, 0))
        assert not model.in_interference_range((0, 0), (81, 0))

    @given(st.floats(min_value=0.0, max_value=150.0))
    def test_monotone_decay(self, d):
        model = LogisticPrrModel()
        assert model.prr((0, 0), (d + 1.0, 0)) <= model.prr((0, 0), (d, 0)) + 1e-12

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"steepness": 0.0},
            {"steepness": -0.25},
            {"steepness": float("nan")},
            {"prr_floor": -0.01},
            {"prr_floor": 0.5, "prr_max": 0.4},
            {"prr_max": 1.2},
            {"interference_range": 0.0},
            {"interference_range": -10.0},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            LogisticPrrModel(**kwargs)

    def test_boundary_configs_accepted(self):
        LogisticPrrModel(prr_floor=0.0, prr_max=0.0)
        LogisticPrrModel(prr_floor=1.0, prr_max=1.0)

    def test_cutoff_is_interference_range_when_curve_falls_inside_it(self):
        model = LogisticPrrModel()
        assert model.cutoff_range() == model.interference_range

    def test_cutoff_follows_the_curve_beyond_interference_range(self):
        model = LogisticPrrModel(midpoint=60.0, steepness=0.1, interference_range=30.0)
        cutoff = model.cutoff_range()
        assert cutoff > model.interference_range
        assert model.prr((0, 0), (cutoff, 0)) == 0.0
        assert model.prr((0, 0), (cutoff - 1e-6, 0)) > 0.0

    def test_no_cutoff_without_a_floor(self):
        assert LogisticPrrModel(prr_floor=0.0).cutoff_range() is None

    @given(
        midpoint=st.floats(min_value=-50.0, max_value=200.0),
        steepness=st.floats(min_value=0.01, max_value=5.0),
        prr_floor=st.floats(min_value=1e-6, max_value=0.98),
        beyond=st.floats(min_value=0.0, max_value=500.0),
    )
    def test_prr_is_zero_beyond_cutoff(self, midpoint, steepness, prr_floor, beyond):
        model = LogisticPrrModel(
            midpoint=midpoint, steepness=steepness, prr_floor=prr_floor, interference_range=10.0
        )
        cutoff = model.cutoff_range()
        assert model.prr((0, 0), (cutoff + beyond, 0)) == 0.0
        assert not model.in_interference_range((0, 0), (cutoff + beyond + 1e-9, 0))


class TestFixedPrrModel:
    def test_default_prr(self):
        model = FixedPrrModel(default_prr=0.5)
        assert model.prr((0, 0), (1, 1)) == 0.5

    def test_set_link_is_symmetric_by_default(self):
        model = FixedPrrModel()
        model.set_link((0, 0), (1, 0), 0.8)
        assert model.prr((0, 0), (1, 0)) == 0.8
        assert model.prr((1, 0), (0, 0)) == 0.8

    def test_asymmetric_links(self):
        model = FixedPrrModel(symmetric=False)
        model.set_link((0, 0), (1, 0), 0.8)
        assert model.prr((0, 0), (1, 0)) == 0.8
        assert model.prr((1, 0), (0, 0)) == 0.0

    def test_interference_pairs(self):
        model = FixedPrrModel()
        model.add_interference((0, 0), (5, 5))
        assert model.in_interference_range((0, 0), (5, 5))
        assert model.prr((0, 0), (5, 5)) == 0.0

    def test_communicating_pairs_always_interfere(self):
        model = FixedPrrModel()
        model.set_link((0, 0), (1, 0), 0.9)
        assert model.in_interference_range((0, 0), (1, 0))

    def test_has_no_cutoff(self):
        assert FixedPrrModel(default_prr=0.5).cutoff_range() is None

    def test_invalid_prr_rejected(self):
        model = FixedPrrModel()
        with pytest.raises(ValueError):
            model.set_link((0, 0), (1, 0), 1.5)
        with pytest.raises(ValueError):
            FixedPrrModel(default_prr=-0.1)

"""Propagation, clutter and scene tests (repro.channel)."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.channel.multipath import PathComponent, Reflector, default_indoor_clutter
from repro.channel.propagation import (
    clutter_received_power_dbm,
    complex_path_gain,
    free_space_path_loss_db,
    propagation_delay_s,
    propagation_phase_rad,
)
from repro.channel.scene import NodePlacement, Scene2D
from repro.errors import ChannelError
from repro.utils.geometry import Point2D, Pose2D


class TestFreeSpacePathLoss:
    def test_known_value_at_28ghz_1m(self):
        # 20 log10(4 pi f / c) = 61.4 dB at 28 GHz, 1 m.
        assert free_space_path_loss_db(1.0, 28e9) == pytest.approx(61.4, abs=0.1)

    def test_doubling_distance_adds_6db(self):
        l1 = free_space_path_loss_db(2.0, 28e9)
        l2 = free_space_path_loss_db(4.0, 28e9)
        assert l2 - l1 == pytest.approx(6.02, abs=0.01)

    def test_doubling_frequency_adds_6db(self):
        l1 = free_space_path_loss_db(3.0, 14e9)
        l2 = free_space_path_loss_db(3.0, 28e9)
        assert l2 - l1 == pytest.approx(6.02, abs=0.01)

    @given(
        st.floats(min_value=0.1, max_value=100.0),
        st.floats(min_value=1e9, max_value=100e9),
    )
    def test_monotonic_in_distance(self, d, f):
        assert free_space_path_loss_db(d * 1.5, f) > free_space_path_loss_db(d, f)

    def test_rejects_nonpositive(self):
        with pytest.raises(ChannelError):
            free_space_path_loss_db(0.0, 28e9)
        with pytest.raises(ChannelError):
            free_space_path_loss_db(1.0, 0.0)


class TestDelaysAndPhases:
    def test_delay(self):
        assert propagation_delay_s(299_792_458.0) == pytest.approx(1.0)

    def test_negative_distance_raises(self):
        with pytest.raises(ChannelError):
            propagation_delay_s(-1.0)

    def test_phase_one_wavelength(self):
        lam = 299792458.0 / 28e9
        assert propagation_phase_rad(lam, 28e9) == pytest.approx(-2 * math.pi)

    def test_complex_path_gain_magnitude(self):
        g = complex_path_gain(-60.0, 3.0, 28e9)
        assert abs(g) == pytest.approx(1e-3)


class TestLinkBudgets:
    def test_clutter_radar_equation_slope(self):
        p3 = clutter_received_power_dbm(27.0, 20.0, 20.0, 3.0, 28e9, 0.0)
        p6 = clutter_received_power_dbm(27.0, 20.0, 20.0, 6.0, 28e9, 0.0)
        assert p3 - p6 == pytest.approx(12.04, abs=0.05)

    def test_clutter_rcs_scaling(self):
        base = clutter_received_power_dbm(27.0, 20.0, 20.0, 3.0, 28e9, 0.0)
        strong = clutter_received_power_dbm(27.0, 20.0, 20.0, 3.0, 28e9, 10.0)
        assert strong - base == pytest.approx(10.0)

    def test_clutter_rejects_nonpositive_distance(self):
        with pytest.raises(ChannelError):
            clutter_received_power_dbm(27.0, 20.0, 20.0, 0.0, 28e9, 0.0)


class TestReflector:
    def test_valid_rcs(self):
        r = Reflector(Point2D(1, 1), rcs_dbsm=5.0)
        assert r.rcs_dbsm == 5.0

    def test_implausible_rcs_rejected(self):
        with pytest.raises(ChannelError):
            Reflector(Point2D(0, 0), rcs_dbsm=90.0)

    def test_default_clutter_has_wall(self):
        names = {r.name for r in default_indoor_clutter()}
        assert "back-wall" in names
        assert len(names) == 4

    def test_path_component_defaults(self):
        p = PathComponent(1e-8, 0.5 + 0j)
        assert not p.modulated


class TestScene2D:
    def test_single_node_distance(self):
        scene = Scene2D.single_node(4.0)
        assert scene.node_distance_m() == pytest.approx(4.0)

    def test_single_node_azimuth(self):
        scene = Scene2D.single_node(4.0, azimuth_deg=15.0)
        assert scene.node_azimuth_deg() == pytest.approx(15.0)

    def test_single_node_orientation(self):
        scene = Scene2D.single_node(4.0, azimuth_deg=15.0, orientation_deg=-8.0)
        assert scene.node_orientation_deg() == pytest.approx(-8.0)

    def test_orientation_independent_of_azimuth(self):
        for az in (-20.0, 0.0, 25.0):
            scene = Scene2D.single_node(3.0, azimuth_deg=az, orientation_deg=12.0)
            assert scene.node_orientation_deg() == pytest.approx(12.0)

    def test_without_clutter(self):
        scene = Scene2D.single_node(4.0).without_clutter()
        assert scene.clutter == ()

    def test_with_clutter_appends(self):
        scene = Scene2D.single_node(4.0, with_clutter=False).with_clutter(
            Reflector(Point2D(1, 1), 0.0)
        )
        assert len(scene.clutter) == 1

    def test_with_node_appends(self):
        scene = Scene2D.single_node(4.0).with_node(
            NodePlacement(Pose2D.at(1.0, 1.0, 0.0), "node-1")
        )
        assert len(scene.nodes) == 2
        assert scene.node("node-1").node_id == "node-1"

    def test_ambiguous_node_lookup_raises(self):
        scene = Scene2D.single_node(4.0).with_node(
            NodePlacement(Pose2D.at(1.0, 1.0, 0.0), "node-1")
        )
        with pytest.raises(ChannelError):
            scene.node()

    def test_missing_node_raises(self):
        with pytest.raises(ChannelError):
            Scene2D.single_node(4.0).node("ghost")

    def test_empty_scene_raises(self):
        with pytest.raises(ChannelError):
            Scene2D().node()

    def test_nonpositive_distance_rejected(self):
        with pytest.raises(ChannelError):
            Scene2D.single_node(0.0)

    def test_clutter_geometry_shapes(self):
        scene = Scene2D.single_node(4.0)
        geo = scene.clutter_geometry()
        assert len(geo) == 4
        for reflector, distance, azimuth in geo:
            assert distance > 0
            assert -180 < azimuth <= 180

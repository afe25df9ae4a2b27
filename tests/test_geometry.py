import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghmdatsp.geometry import (Config, Disk, dubins_lengths, dubins_shortest_path, nin_check,
                               norm_angle, sample_path, turning_circles)

from conftest import on_one_turning_circle
from dubins_search_oracle import search_shortest_length


def ang_diff(a, b):
    d = abs(norm_angle(a) - norm_angle(b))
    return min(d, 2 * math.pi - d)


finite = st.floats(min_value=-60.0, max_value=60.0, allow_nan=False)
angles = st.floats(min_value=0.0, max_value=2 * math.pi - 1e-9, allow_nan=False)
radii = st.floats(min_value=0.3, max_value=20.0, allow_nan=False)


class TestDubinsShortestPath:
    def test_identity_pose_has_zero_length(self):
        path = dubins_shortest_path(Config(0, 0, 0), Config(0, 0, 0), 1.0)
        assert path.length == 0.0

    def test_collinear_aligned_poses_use_straight_segment(self):
        path = dubins_shortest_path(Config(0, 0, 0), Config(10, 0, 0), 1.0)
        assert path.length == pytest.approx(10.0, abs=1e-9)
        arc1, straight, arc2 = path.segment_params
        assert straight == pytest.approx(10.0, abs=1e-9)
        assert arc1 == pytest.approx(0.0, abs=1e-9)
        assert arc2 == pytest.approx(0.0, abs=1e-9)

    def test_half_circle_turn(self):
        path = dubins_shortest_path(Config(0, 0, 0), Config(0, 2, math.pi), 1.0)
        assert path.length == pytest.approx(math.pi, abs=1e-9)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            dubins_shortest_path(Config(0, 0, 0), Config(1, 1, 0), 0.0)

    @given(x1=finite, y1=finite, t1=angles, x2=finite, y2=finite, t2=angles, r=radii)
    @settings(max_examples=200, deadline=None)
    def test_endpoint_reconstruction_and_lower_bound(self, x1, y1, t1, x2, y2, t2, r):
        start, end = Config(x1, y1, t1), Config(x2, y2, t2)
        path = dubins_shortest_path(start, end, r)
        tip = path.endpoint()
        assert math.hypot(tip.x - end.x, tip.y - end.y) <= 1e-6
        assert ang_diff(tip.theta, end.theta) <= 1e-6
        assert path.length >= start.distance_to(end) - 1e-9
        assert all(seg >= -1e-12 for seg in path.segment_params)

    def test_lengths_match_control_search_oracle(self):
        rng = random.Random(7)
        for _ in range(30):
            a = (rng.uniform(-30, 30), rng.uniform(-30, 30), rng.uniform(0, 2 * math.pi))
            b = (rng.uniform(-30, 30), rng.uniform(-30, 30), rng.uniform(0, 2 * math.pi))
            r = rng.uniform(0.5, 12.0)
            closed = dubins_shortest_path(Config(*a), Config(*b), r).length
            searched = search_shortest_length(a, b, r)
            assert closed == pytest.approx(searched, rel=0.01, abs=1e-6)


def kernel_grid(poses, r):
    """Kernel lengths for every ordered pair of ``poses`` (rows are starts)."""
    x, y, th = (np.array(v, dtype=float) for v in zip(*poses))
    return dubins_lengths(x[:, None], y[:, None], th[:, None], x, y, th, r)


def assert_grid_matches_scalar(poses, r):
    got = kernel_grid(poses, r)
    assert got.shape == (len(poses), len(poses))
    for i, a in enumerate(poses):
        for j, b in enumerate(poses):
            start, end = Config(*a), Config(*b)
            if on_one_turning_circle(start, end, r):
                continue
            want = dubins_shortest_path(start, end, r).length
            assert got[i, j] == pytest.approx(want, rel=1e-9), (a, b, r)


poses = st.tuples(finite, finite, angles)


class TestDubinsLengthsKernel:
    """The vectorized kernel against the scalar solver, its reference."""

    @given(grid=st.lists(poses, min_size=1, max_size=8), r=radii)
    @settings(max_examples=200, deadline=None)
    def test_matches_scalar_on_random_grids(self, grid, r):
        assert_grid_matches_scalar(grid, r)

    @given(grid=st.lists(poses, min_size=2, max_size=6),
           r=st.sampled_from([0.5, 5.0, 66.0, 169.0]))
    @settings(max_examples=100, deadline=None)
    def test_matches_scalar_at_fleet_radii(self, grid, r):
        assert_grid_matches_scalar(grid, r)

    def test_identical_poses_have_zero_length(self):
        lengths = kernel_grid([(3.0, -2.0, 1.0)] * 3, 2.0)
        assert (lengths == 0.0).all()

    def test_coincident_positions_with_different_headings(self):
        grid = [(1.0, 1.0, k * math.pi / 6) for k in range(12)]
        lengths = kernel_grid(grid, 1.5)
        assert (np.diag(lengths) == 0.0).all()
        assert (lengths[~np.eye(12, dtype=bool)] > 0.0).all()
        assert_grid_matches_scalar(grid, 1.5)

    def test_short_range_ccc_words(self):
        pairs = [((0.0, 0.0, 0.0), (0.5, 0.0, math.pi)),
                 ((0.0, 0.0, 0.0), (1.0, 0.0, math.pi)),
                 ((0.0, 0.0, math.pi / 2), (1.0, 0.0, 3 * math.pi / 2))]
        for a, b in pairs:
            want = dubins_shortest_path(Config(*a), Config(*b), 1.0)
            assert want.word in ("RLR", "LRL")
            got = dubins_lengths(*a, *b, 1.0)
            assert got == pytest.approx(want.length, rel=1e-9)

    def test_long_range_pairs(self):
        rng = random.Random(3)
        grid = [(rng.uniform(-1e5, 1e5), rng.uniform(-1e5, 1e5), rng.uniform(0, 2 * math.pi))
                for _ in range(10)]
        assert_grid_matches_scalar(grid, 3.0)

    def test_unnormalized_headings_wrap_like_config(self):
        got = dubins_lengths(0.0, 0.0, -math.pi / 2, 4.0, 3.0, 7.0, 1.0)
        want = dubins_shortest_path(Config(0, 0, -math.pi / 2), Config(4, 3, 7.0), 1.0)
        assert got == pytest.approx(want.length, rel=1e-9)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            dubins_lengths(0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0)


class TestSamplePath:
    def test_zero_length_path_yields_start_only(self):
        path = dubins_shortest_path(Config(2, 3, 1), Config(2, 3, 1), 1.0)
        assert sample_path(path, 0.5) == [path.start]

    def test_straight_line_spacing(self):
        path = dubins_shortest_path(Config(0, 0, 0), Config(10, 0, 0), 1.0)
        poses = sample_path(path, 1.0)
        assert len(poses) == 11
        assert all(abs(p.y) < 1e-9 for p in poses)
        assert poses[-1].x == pytest.approx(10.0)

    def test_half_circle_samples_stay_on_arc(self):
        path = dubins_shortest_path(Config(0, 0, 0), Config(0, 2, math.pi), 1.0)
        poses = sample_path(path, 0.1)
        for p in poses:
            assert math.hypot(p.x - 0.0, p.y - 1.0) == pytest.approx(1.0, abs=1e-9)

    @given(x2=finite, y2=finite, t2=angles, r=radii,
           spacing=st.floats(min_value=0.05, max_value=2.0))
    @settings(max_examples=100, deadline=None)
    def test_spacing_bound_holds_everywhere(self, x2, y2, t2, r, spacing):
        path = dubins_shortest_path(Config(0, 0, 0), Config(x2, y2, t2), r)
        poses = sample_path(path, spacing)
        assert poses[0] == path.start
        tip = poses[-1]
        assert math.hypot(tip.x - x2, tip.y - y2) <= 1e-6
        for a, b in zip(poses, poses[1:]):
            assert a.distance_to(b) <= spacing + 1e-9

    def test_rejects_nonpositive_spacing(self):
        path = dubins_shortest_path(Config(0, 0, 0), Config(5, 0, 0), 1.0)
        with pytest.raises(ValueError):
            sample_path(path, 0.0)


class TestTurningCircles:
    def test_axis_aligned(self):
        left, right = turning_circles(Config(0, 0, 0), 1.0)
        assert left == pytest.approx((0.0, 1.0))
        assert right == pytest.approx((0.0, -1.0))

    def test_rotated(self):
        left, right = turning_circles(Config(0, 0, math.pi / 2), 2.0)
        assert left == pytest.approx((-2.0, 0.0), abs=1e-12)
        assert right == pytest.approx((2.0, 0.0), abs=1e-12)

    def test_translated(self):
        left, right = turning_circles(Config(3, 4, math.pi), 1.0)
        assert left == pytest.approx((3.0, 3.0), abs=1e-12)
        assert right == pytest.approx((3.0, 5.0), abs=1e-12)


class TestNinCheck:
    def test_region_containing_pose(self):
        assert nin_check(Config(0, 0, 0), 1.0, Disk((0, 0), 0.5))

    def test_far_region(self):
        assert not nin_check(Config(0, 0, 0), 1.0, Disk((100, 0), 1.0))

    def test_one_circle_only_is_not_enough(self):
        # left circle touches the disk, right circle stays 2 away
        assert not nin_check(Config(0, 0, 0), 1.0, Disk((0, 2), 0.5))

    @given(x=finite, y=finite, t=angles, r=radii, cx=finite, cy=finite,
           rad=st.floats(min_value=0.1, max_value=30.0))
    @settings(max_examples=300, deadline=None)
    def test_matches_analytic_condition(self, x, y, t, r, cx, cy, rad):
        got = nin_check(Config(x, y, t), r, Disk((cx, cy), rad))
        lx, ly = x - r * math.sin(t), y + r * math.cos(t)
        rx, ry = x + r * math.sin(t), y - r * math.cos(t)
        want = (abs(math.hypot(lx - cx, ly - cy) - r) <= rad
                and abs(math.hypot(rx - cx, ry - cy) - r) <= rad)
        assert got == want

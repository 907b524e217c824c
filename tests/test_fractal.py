import math

import numpy as np
import pytest

from snaflow.fields import BumpProfile, RadialLogistic
from snaflow.flow import IntegratorConfig, flow_batch
from snaflow.fractal import box_count, default_epsilons, graph_point_cloud
from snaflow.graphs import graph_pair, pullback_attractor, pushforward_repeller
from snaflow.torus import RotationVector

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
RHO = RotationVector([GOLDEN, math.pi])
CFG = IntegratorConfig()

LOG2_OVER_LOG3 = math.log(2.0) / math.log(3.0)


def cantor_points(depth: int) -> np.ndarray:
    """Middle-thirds construction: all interval endpoints at the given depth."""
    xs = [0.0]
    for level in range(1, depth + 1):
        xs = [x / 3.0 for x in xs] + [2.0 / 3.0 + x / 3.0 for x in xs]
    pts = np.array(sorted(set(xs)))
    return pts[:, None]


class TestOracleSets:
    def test_segment_dimension(self):
        rng = np.random.default_rng(0)
        pts = np.stack([rng.random(100_000), np.zeros(100_000)], axis=1)
        lad = box_count(pts)
        assert lad.slope == pytest.approx(1.0, abs=0.05)

    def test_square_dimension(self):
        rng = np.random.default_rng(1)
        pts = rng.random((100_000, 2))
        lad = box_count(pts, epsilons=default_epsilons(9))
        assert lad.slope == pytest.approx(2.0, abs=0.05)

    def test_cantor_dimension(self):
        pts = cantor_points(12)
        lad = box_count(pts)
        assert lad.slope == pytest.approx(LOG2_OVER_LOG3, abs=0.02)

    def test_counts_monotone(self):
        rng = np.random.default_rng(2)
        pts = rng.random((5_000, 2))
        lad = box_count(pts)
        assert np.all(np.diff(lad.counts) >= 0)  # N grows as eps shrinks

    def test_point_doubling_stability(self):
        rng = np.random.default_rng(3)
        pts = np.stack([rng.random(200_000), np.zeros(200_000)], axis=1)
        l1 = box_count(pts[:100_000])
        l2 = box_count(pts)
        assert abs(l1.slope - l2.slope) <= 0.05

    def test_local_slopes_flat_for_uniform_line(self):
        rng = np.random.default_rng(4)
        pts = np.stack([rng.random(300_000), np.zeros(300_000)], axis=1)
        lad = box_count(pts)
        lo, hi = lad.fit_window
        assert np.all(np.abs(lad.local_slopes[lo:hi] - 1.0) <= 0.1)

    def test_closure_invariance_at_resolution(self):
        # a well-sampled set: the fit window must not be sample-saturated,
        # otherwise the neighbour padding measures the saturation, not the set
        rng = np.random.default_rng(5)
        pts = np.stack([rng.random(200_000), rng.random(200_000)], axis=1)
        eps = default_epsilons(8)
        lad = box_count(pts, epsilons=eps)
        eps_fine = eps[-1]
        neighbours = [pts]
        for axis in (0, 1):
            for sign in (-1.0, 1.0):
                q = pts.copy()
                q[:, axis] = np.clip(q[:, axis] + sign * eps_fine, 0.0, 1.0 - 1e-12)
                neighbours.append(q)
        fat = np.concatenate(neighbours)
        lad2 = box_count(fat, epsilons=eps)
        assert abs(lad2.slope - lad.slope) <= 0.02

    def test_input_validation(self):
        with pytest.raises(ValueError):
            box_count(np.zeros((10, 2)))  # too few points
        pts = np.random.default_rng(0).random((2_000, 2))
        with pytest.raises(ValueError):
            box_count(pts, epsilons=[0.5, 0.25])  # ladder exceeds 1/4
        with pytest.raises(ValueError):
            box_count(pts, epsilons=[0.25, 0.1])  # ratio not 1/2


class TestGraphClouds:
    def test_constant_graph_cloud_is_a_circle(self):
        fam = RadialLogistic(4.0, BumpProfile(0.3), [0.5, 0.8])
        att = pullback_attractor(fam, 0.0, RHO, 64, 200, CFG)
        cloud = graph_point_cloud(fam, 0.0, RHO, att, 100_000, CFG, seed=0)
        assert cloud.shape == (100_000, 2)
        lad = box_count(cloud)
        assert lad.slope == pytest.approx(1.0, abs=0.05)

    def test_constant_lift_cloud_fills_the_torus(self):
        fam = RadialLogistic(4.0, BumpProfile(0.3), [0.5, 0.8])
        att = pullback_attractor(fam, 0.0, RHO, 64, 200, CFG)
        cloud = graph_point_cloud(fam, 0.0, RHO, att, 120_000, CFG, seed=1, lift=True)
        assert cloud.shape == (120_000, 3)
        lad = box_count(cloud, epsilons=default_epsilons(9))
        assert lad.slope == pytest.approx(2.0, abs=0.05)

    def test_repeller_cloud_via_reversed_orbits(self):
        fam = RadialLogistic(4.0, BumpProfile(0.3), [0.5, 0.8])
        rep = pushforward_repeller(fam, 0.2, RHO, 512, 600, CFG)
        cloud = graph_point_cloud(fam, 0.2, RHO, rep, 50_000, CFG, seed=2)
        lad = box_count(cloud)
        assert 0.9 <= lad.slope <= 1.2

    @pytest.mark.parametrize("role", ["attractor", "repeller"])
    def test_lifted_cloud_matches_per_point_flows(self, role):
        # row i of a lifted cloud is section point i flowed to its own phase u
        # (forward by u, or backward by T - u from the next crossing), recorded
        # where its flow lands
        fam = RadialLogistic(4.0, BumpProfile(0.3), [0.5, 0.8])
        graph = getattr(graph_pair(fam, 0.2, RHO, 256, 2000, CFG), role)
        sec = graph_point_cloud(fam, 0.2, RHO, graph, 1000, CFG, seed=3)
        cloud = graph_point_cloud(fam, 0.2, RHO, graph, 1000, CFG, seed=3, lift=True)
        T = 1.0 / RHO.rho_D
        u = cloud[:, 1] * T
        assert np.all((u > 0.0) & (u < T))
        for i in range(0, 1000, 40):
            t = u[i] if role == "attractor" else u[i] - T
            ref = flow_batch(fam, 0.2, RHO, [[sec[i, 0], 0.0]], [sec[i, 1]], t, CFG)
            assert abs(cloud[i, 2] - ref.y[0, 0]) <= 1e-8
            assert cloud[i, 0] == pytest.approx((sec[i, 0] + t * RHO.rho[0]) % 1.0,
                                                abs=1e-12)

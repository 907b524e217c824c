import itertools
import math

import numpy as np
import pytest

from snaflow.fields import AutonomousRiccati, BumpProfile, Cos11, RadialLogistic
from snaflow.flow import IntegratorConfig
from snaflow.graphs import (
    Escaped,
    _at_shifts,
    _gather,
    _mobius_sweep,
    _table_exponent,
    GraphPair,
    GraphSample,
    _regrid,
    graph_pair,
    interp_at_shift,
    lift_graph,
    make_pair,
    pullback_attractor,
    pushforward_repeller,
    resample_shifted_values,
)
from snaflow.section import SectionMap, _map_exponent
from snaflow.torus import RotationVector, wrap_unit

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
RHO = RotationVector([GOLDEN, math.pi])
CFG = IntegratorConfig()


def make_radial(b=4.0, R=0.3):
    return RadialLogistic(b, BumpProfile(R), [0.5, 0.8])


def crossing_family():
    # wide bump, slow drive: the image of 1+c crosses below -1 before beta = 1
    return RadialLogistic(100.0, BumpProfile(0.45), [0.5, 0.5]), RotationVector([GOLDEN, 1.2])


def pole_crossing_table():
    # one sub-return turning (0, 1) clockwise by 3 pi / 4 to (1, -1)/sqrt 2:
    # x = 0 passes through infinity (q = 0) and lands on -1, inside the window
    phi = 0.75 * math.pi
    return np.array([[[math.cos(phi)], [math.sin(phi)], [-math.sin(phi)], [math.cos(phi)]]])


@pytest.fixture(scope="module")
def forced_pair():
    fam = make_radial()
    att = pullback_attractor(fam, 0.2, RHO, 512, 600, CFG)
    rep = pushforward_repeller(fam, 0.2, RHO, 512, 600, CFG)
    return fam, att, rep


class TestInterpolation:
    def test_resample_then_interp_roundtrip(self):
        rng = np.random.default_rng(0)
        v = rng.random(64)
        shift = np.array([GOLDEN])
        w = interp_at_shift(v, shift)
        # values of v at nodes + shift, reattached at nodes + shift, resampled
        # back onto nodes must reproduce v up to second-order interpolation error
        back = resample_shifted_values(w, shift)
        assert np.max(np.abs(back - v)) < 0.6 * np.max(np.abs(np.diff(v)))

    def test_integer_shift_is_exact(self):
        v = np.arange(32, dtype=float)
        w = interp_at_shift(v, np.array([0.25]))
        assert w[0] == v[8]

    def test_2d_shift(self):
        rng = np.random.default_rng(1)
        v = rng.random((16, 16))
        w = interp_at_shift(v, np.array([0.25, 0.5]))
        assert w[0, 0] == v[4, 8]

    @pytest.mark.parametrize("n", [16, 17, 96])
    def test_gather_matches_periodic_np_interp(self, n):
        rng = np.random.default_rng(n)
        v, pts = rng.random(n), rng.random(200)
        whole = np.floor(pts * n)
        got = _gather(v, [whole.astype(int)], [pts * n - whole])
        want = np.interp(pts, np.arange(n) / n, v, period=1.0)
        # np.interp forms a slope over node spacings 1/n: its rounding grows with n
        assert np.max(np.abs(got - want)) <= 1e-13

    def test_gather_matches_hand_written_bilinear(self):
        rng = np.random.default_rng(2)
        n = 17
        v, pts = rng.random((n, n)), rng.random((2, 300)) * n
        i, j = np.floor(pts).astype(int)
        fx, fy = pts[0] - i, pts[1] - j
        want = ((1 - fx) * (1 - fy) * v[i, j] + (1 - fx) * fy * v[i, (j + 1) % n]
                + fx * (1 - fy) * v[(i + 1) % n, j] + fx * fy * v[(i + 1) % n, (j + 1) % n])
        got = _gather(v, [i, j], [fx, fy])
        assert np.max(np.abs(got - want)) <= 1e-15

    @pytest.mark.parametrize("d, n", [(1, 16), (1, 17), (1, 96), (2, 16), (2, 33)])
    def test_resample_matches_an_independent_scatter(self, d, n):
        # w_i sits at theta_i + shift: split it linearly onto its 2^d nodes
        rng = np.random.default_rng(10 * d + n)
        for shift in rng.random((5, d)):
            w = rng.random((n,) * d)
            scaled = shift * n
            steps = np.floor(scaled).astype(int)
            frac = scaled - steps
            source = np.indices(w.shape).reshape(d, -1)
            want = np.zeros_like(w)
            for corner in itertools.product((0, 1), repeat=d):
                weight = np.prod([f if c else 1.0 - f for f, c in zip(frac, corner)])
                target = tuple((source + (steps + corner)[:, None]) % n)
                np.add.at(want, target, weight * w.ravel())
            got = resample_shifted_values(w, shift)
            if d == 1:
                assert np.array_equal(got, want)
            else:
                assert np.max(np.abs(got - want)) <= 1e-15

    @pytest.mark.parametrize("d", [1, 2])
    def test_stacked_shifts_match_one_shift_at_a_time(self, d):
        # the lift's level starts: one gather over all levels
        rng = np.random.default_rng(d)
        base = rng.random((24,) * d)
        shifts = wrap_unit(-np.arange(1, 24)[:, None] / 24.0 * RHO.rho[:d] / RHO.rho[-1])
        want = np.stack([interp_at_shift(base, s) for s in shifts])
        assert np.array_equal(_at_shifts(base, shifts), want)


class TestUnforcedGraphs:
    def test_attractor_is_plus_one(self):
        att = pullback_attractor(make_radial(), 0.0, RHO, 64, 200, CFG)
        assert isinstance(att, GraphSample)
        assert np.max(np.abs(att.values - 1.0)) <= 1e-6
        assert att.defect <= 1e-8

    def test_repeller_is_minus_one(self):
        rep = pushforward_repeller(make_radial(), 0.0, RHO, 64, 200, CFG)
        assert np.max(np.abs(rep.values + 1.0)) <= 1e-6
        assert rep.defect <= 1e-8

    def test_gap_stats_of_constant_pair(self):
        att = pullback_attractor(make_radial(), 0.0, RHO, 64, 200, CFG)
        rep = pushforward_repeller(make_radial(), 0.0, RHO, 64, 200, CFG)
        pair = make_pair(att, rep)
        assert pair.gap_min == pytest.approx(2.0, abs=1e-6)
        assert pair.gap_median == pytest.approx(2.0, abs=1e-6)
        assert pair.gap_max == pytest.approx(2.0, abs=1e-6)

    def test_gap_stats_of_identical_graphs(self):
        att = pullback_attractor(make_radial(), 0.0, RHO, 64, 200, CFG)
        twin = GraphSample(att.values.copy(), "repeller", att.defect,
                           att.iterations_used, True, att.grid_n, 0.0, 0.0)
        pair = make_pair(att, twin)
        assert (pair.gap_min, pair.gap_median, pair.gap_max) == (0.0, 0.0, 0.0)


class TestGraphPair:
    def test_unforced_pair_converges_with_gap_two(self):
        pair = graph_pair(make_radial(), 0.0, RHO, 64, 200, CFG)
        assert isinstance(pair, GraphPair)
        assert pair.converged
        assert pair.gap_min == pytest.approx(2.0, abs=1e-6)
        assert pair.gap_median == pytest.approx(2.0, abs=1e-6)
        assert pair.gap_max == pytest.approx(2.0, abs=1e-6)

    def test_attractor_escape_skips_the_repeller(self, monkeypatch):
        import snaflow.graphs as graphs

        calls = []
        original = graphs.pushforward_repeller

        def counting(*args, **kwargs):
            calls.append(args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(graphs, "pushforward_repeller", counting)
        fam, rho = crossing_family()
        out = graph_pair(fam, 1.0, rho, 64, 2000, CFG)
        assert isinstance(out, Escaped)
        assert out.role == "attractor"
        assert calls == []


class TestForcedGraphs:
    def test_dip_localised_near_bump_image(self, forced_pair):
        fam, att, rep = forced_pair
        assert att.converged and att.defect <= 1e-5
        # the attractor dips below 1 near the forward image of the bump transit
        values = att.values
        dip_node = int(np.argmin(values))
        # section point whose orbit passes the bump centre, pushed one return
        tau = 0.8 / math.pi
        theta0 = (0.5 - tau * GOLDEN) % 1.0
        omega = GOLDEN / math.pi
        dip_theta = dip_node / values.size
        dist = abs((dip_theta - (theta0 + omega)) % 1.0)
        dist = min(dist, 1.0 - dist)
        assert dist < 0.1
        assert values.min() < 1.0 - 1e-3
        # far side of the torus is still near the unforced equilibrium
        far = (dip_node + values.size // 2) % values.size
        assert values[far] > 1.0 - 5e-3

    def test_repeller_bump_on_backward_orbit(self, forced_pair):
        _, _, rep = forced_pair
        assert rep.converged
        assert rep.values.max() > -1.0 + 1e-3

    def test_ordering_everywhere(self, forced_pair):
        _, att, rep = forced_pair
        assert np.all(rep.values <= att.values + 1e-9)

    def test_beta_monotone_attractors(self):
        fam = make_radial()
        a1 = pullback_attractor(fam, 0.1, RHO, 128, 400, CFG)
        a2 = pullback_attractor(fam, 0.3, RHO, 128, 400, CFG)
        assert np.all(a2.values <= a1.values + 1e-8)
        r1 = pushforward_repeller(fam, 0.1, RHO, 128, 400, CFG)
        r2 = pushforward_repeller(fam, 0.3, RHO, 128, 400, CFG)
        assert np.all(r2.values >= r1.values - 1e-8)

    def test_iteration_doubling_stability(self):
        fam = make_radial()
        a1 = pullback_attractor(fam, 0.2, RHO, 128, 200, CFG)
        a2 = pullback_attractor(fam, 0.2, RHO, 128, 400, CFG)
        assert np.max(np.abs(a1.values - a2.values)) <= 1e-10

    def test_defect_honesty(self, forced_pair):
        fam, att, _ = forced_pair
        from snaflow.graphs import graph_defect

        smap = SectionMap(fam, 0.2, RHO, CFG)
        again = graph_defect(smap, att.values)
        assert again <= 2.0 * att.defect + 1e-12

    def test_refinement_consistency(self):
        fam = make_radial()
        a64 = pullback_attractor(fam, 0.2, RHO, 64, 300, CFG)
        a128 = pullback_attractor(fam, 0.2, RHO, 128, 300, CFG)
        lip = np.max(np.abs(np.diff(a128.values))) * 128  # measured slope bound
        agree = np.max(np.abs(a128.values[::2] - a64.values))
        assert agree <= 2.0 * lip * (1.0 / 64.0)

    def test_escape_beyond_crossing(self):
        fam, rho = crossing_family()
        out = pullback_attractor(fam, 1.0, rho, 64, 2000, CFG)
        assert isinstance(out, Escaped)


class TestMobiusSweeps:
    def test_crossing_escapes_at_the_ode_sweep(self):
        # the pullback that re-integrated the ODE every sweep escaped in
        # sweep 1, at 8 nodes, first at theta = 0.1875
        fam, rho = crossing_family()
        out = pullback_attractor(fam, 1.0, rho, 64, 2000, CFG)
        assert (out.iteration, out.n_escaped) == (1, 8)
        assert out.theta_example[0] == 0.1875

    def test_pole_crossing_inside_the_window_escapes(self):
        image, escaped = _mobius_sweep(pole_crossing_table(), np.array([0.0]), CFG)
        assert image[0] == pytest.approx(-1.0)
        assert CFG.escape_low < image[0] < CFG.escape_high
        assert escaped[0]

    def test_window_is_checked_at_sub_return_ends(self):
        # two sub-returns: x -> x + 20, then x -> x - 20; x = 0 ends at 0 but
        # sits at 20 > 10 in between
        table = np.array([[[1.0], [20.0], [0.0], [1.0]], [[1.0], [-20.0], [0.0], [1.0]]])
        image, escaped = _mobius_sweep(table, np.array([0.0]), CFG)
        assert image[0] == 0.0 and escaped[0]

    def test_no_ode_work_per_sweep(self, monkeypatch):
        # a theta-independent family sweeps a constant node table like any other
        import snaflow.graphs as graphs
        import snaflow.section as section

        flow_calls, step_calls = [], []
        original_flow, original_step = section.flow_batch, section.SectionMap.step

        def counting_flow(*args, **kwargs):
            flow_calls.append(kwargs.get("channels"))
            return original_flow(*args, **kwargs)

        def counting_step(self, *args, **kwargs):
            step_calls.append(1)
            return original_step(self, *args, **kwargs)

        monkeypatch.setattr(section, "flow_batch", counting_flow)
        monkeypatch.setattr(graphs, "flow_batch", counting_flow)
        monkeypatch.setattr(section.SectionMap, "step", counting_step)
        # no sweep changes the graph by less than 0: every pullback runs n_iter sweeps
        monkeypatch.setattr(graphs, "STOP_TOL", 0.0)
        for family in (make_radial(), AutonomousRiccati(a2=-1.0, a0=1.0, beta_slope=-2.0)):
            counts = {}
            for n_iter in (200, 400):
                flow_calls.clear()
                att = pullback_attractor(family, 0.2, RHO, 64, n_iter, CFG)
                assert att.iterations_used == n_iter and not att.converged
                counts[n_iter] = list(flow_calls)
            assert counts[200] == counts[400] == ["mobius"]
        assert step_calls == []

    def test_near_critical_oracle_pullback_settles(self):
        # x' = -x^2 + 2e-4: the graph x = sqrt(2e-4) attracts at about 0.009 per return
        fam = AutonomousRiccati(a2=-1.0, a0=1.0, beta_slope=-2.0)
        att = pullback_attractor(fam, 0.5 - 1e-4, RHO, 16, 20_000, CFG)
        assert att.converged and att.sup_change < 1e-12
        assert np.max(np.abs(att.values - math.sqrt(2e-4))) <= 1e-9


class TestTableExponents:
    @pytest.mark.parametrize("family, beta, rho, grid_n, cfg", [
        (Cos11(100.0), 175.9375, RHO, 96, IntegratorConfig(escape_low=-25.0, escape_high=25.0)),
        (make_radial(), 0.2, RHO, 128, CFG),
        (RadialLogistic(4.0, BumpProfile(0.3), [0.5, 0.8, 0.3]), 0.2,
         RotationVector([GOLDEN, math.sqrt(2.0) - 1.0, math.pi]), 24, CFG),
    ], ids=["cos11", "radial", "radial_d2"])
    def test_match_the_ode_return(self, family, beta, rho, grid_n, cfg):
        pair = graph_pair(family, beta, rho, grid_n, 2000, cfg)
        assert pair.converged
        smap = SectionMap(family, beta, rho, cfg)
        for graph, lam_map in zip((pair.attractor, pair.repeller), pair.lambda_map):
            want = _map_exponent(smap, graph.values) / smap.return_time
            lam = lam_map * rho.rho_D
            assert abs(lam - want) <= 1e-9 * max(1.0, abs(want))
        assert pair.lambda_map[0] < 0.0 < pair.lambda_map[1]

    def test_escaping_table_gives_nan(self):
        assert math.isnan(_table_exponent(pole_crossing_table(), np.array([0.0]), CFG))
        # from x = -2 the same map has q = sqrt(2)/2 and lands on 3: log dx = log 2
        lam = _table_exponent(pole_crossing_table(), np.array([-2.0]), CFG)
        assert lam == pytest.approx(math.log(2.0), rel=1e-14)


class TestLyapunov:
    def test_unforced_exponents(self):
        fam = make_radial(b=4.0)
        att = pullback_attractor(fam, 0.0, RHO, 64, 200, CFG)
        rep = pushforward_repeller(fam, 0.0, RHO, 64, 200, CFG)
        assert att.defect <= 1e-6 and rep.defect <= 1e-6
        smap = SectionMap(fam, 0.0, RHO, CFG)
        la_map, lr_map = (_map_exponent(smap, g.values) for g in (att, rep))
        la, lr = la_map / smap.return_time, lr_map / smap.return_time
        assert la == pytest.approx(-8.0, rel=1e-8)
        # the repeller exponent needs the reversed-map derivative sign flip:
        # measured along the forward flow it is +2b
        assert lr == pytest.approx(8.0, rel=1e-8)
        assert la_map == pytest.approx(la / math.pi, rel=1e-12)


class TestLift:
    def test_constant_lift(self):
        fam = make_radial()
        att = pullback_attractor(fam, 0.0, RHO, 64, 200, CFG)
        lifted = lift_graph(fam, 0.0, RHO, att, 32, CFG)
        assert np.max(np.abs(lifted.values - 1.0)) <= 1e-6

    def test_restriction_to_section(self, forced_pair):
        fam, att, _ = forced_pair
        lifted = lift_graph(fam, 0.2, RHO, att, 64, CFG)
        assert np.max(np.abs(lifted.values[..., 0] - _regrid(att.values, 64))) <= 1e-10

    def test_repeller_lift_backward_stable(self, forced_pair):
        fam, _, rep = forced_pair
        lifted = lift_graph(fam, 0.2, RHO, rep, 32, CFG)
        assert lifted.values.min() >= -1.2
        assert np.max(np.abs(lifted.values[..., 0] - _regrid(rep.values, 32))) <= 1e-10

import math

import numpy as np
import pytest

from snaflow.fields import AutonomousRiccati, BumpProfile, Cos11, LogisticHarvest, RadialLogistic
from snaflow.flow import IntegratorConfig
from snaflow.graphs import _mobius_sweep, pullback_attractor
from snaflow.section import (
    SectionMap,
    inverse_return_map,
    lyapunov_relation_check,
    return_map,
)
from snaflow.torus import RotationVector, induce_frequency

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
RHO = RotationVector([GOLDEN, math.pi])
CFG = IntegratorConfig()


def make_radial(b=4.0):
    return RadialLogistic(b, BumpProfile(0.3), [0.5, 0.8])


class TestReturnMap:
    def test_unforced_equilibrium(self):
        fam = make_radial(b=4.0)
        ev = return_map(fam, 0.0, RHO, [0.3], 1.0, CFG)
        assert ev.x_next == pytest.approx(1.0, abs=1e-12)
        # dx F = -2b on the fixed graph, integrated over one return 1/rho_D
        assert ev.log_dx == pytest.approx(-8.0 / math.pi, abs=1e-9)

    def test_repelling_equilibrium(self):
        fam = make_radial(b=4.0)
        ev = return_map(fam, 0.0, RHO, [0.3], -1.0, CFG)
        assert ev.x_next == pytest.approx(-1.0, abs=1e-12)
        assert ev.log_dx == pytest.approx(8.0 / math.pi, abs=1e-9)

    def test_tanh_oracle_via_unit_return(self):
        # x' = -x^2 + 1 with rho_D = 1: one return is the time-1 map
        fam = AutonomousRiccati(a2=-1.0, a0=1.0)
        ev = return_map(fam, 0.0, RotationVector([GOLDEN, 1.0]), [0.1], 0.0, CFG)
        assert ev.x_next == pytest.approx(math.tanh(1.0), abs=1e-9)

    def test_base_advances_by_omega(self):
        freq = induce_frequency(RHO)
        assert freq.omega[0] == pytest.approx(GOLDEN / math.pi)
        assert freq.return_time == pytest.approx(1.0 / math.pi)

    def test_monotone_fibre_maps(self):
        fam = make_radial()
        rng = np.random.default_rng(3)
        for _ in range(25):
            th = rng.random(1)
            x1 = rng.uniform(-0.9, 1.1)
            x2 = x1 + rng.uniform(1e-6, 0.1)
            e1 = return_map(fam, 0.4, RHO, th, x1, CFG)
            e2 = return_map(fam, 0.4, RHO, th, x2, CFG)
            assert e1.x_next < e2.x_next

    @pytest.mark.parametrize("reverse", [False, True])
    def test_steps_do_not_depend_on_earlier_steps(self, reverse):
        # a map keeps no state between steps: each is the return a fresh map makes
        fam = make_radial()
        rng = np.random.default_rng(4)
        theta, x = rng.random((64, 1)), rng.uniform(-0.9, 1.1, 64)
        smap = SectionMap(fam, 0.4, RHO, CFG, reverse=reverse)
        for _ in range(2):
            res = smap.step(theta, x)
            fresh = SectionMap(fam, 0.4, RHO, CFG, reverse=reverse).step(theta, x)
            assert np.array_equal(res.y, fresh.y) and res.n_steps == fresh.n_steps
            theta, x = (theta + smap.shift) % 1.0, res.y[0]

    def test_matches_variational_flow_exactly(self):
        # same code path: the return map is one flow_batch call at t = 1/rho_D
        from snaflow.flow import flow_batch

        fam = make_radial()
        th = np.array([[0.22, 0.0]])
        res = flow_batch(fam, 0.3, RHO, th, [0.5], 1.0 / math.pi, CFG,
                         channels="full", direction=[1.0, 0.0])
        ev = return_map(fam, 0.3, RHO, [0.22], 0.5, CFG)
        assert ev.x_next == res.y[0, 0]
        assert ev.log_dx == res.y[1, 0]
        assert ev.dtheta == res.y[2, 0]
        assert ev.dtheta2 == res.y[5, 0]


class TestMobiusTable:
    # a1 != 0 for LogisticHarvest exercises the a1/2 terms of the linear system
    @pytest.mark.parametrize("family, beta, cfg, x_range", [
        (make_radial(), 0.3, CFG, (-1.0, 1.25)),
        (Cos11(100.0), 176.01538, CFG.with_escape(-25.0, 25.0), (-10.0, 12.5)),
        (LogisticHarvest(4.0, 2.0, BumpProfile(0.3), [0.5, 0.8]), 0.3, CFG, (0.0, 2.25)),
    ])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_matches_the_ode_return(self, family, beta, cfg, x_range, reverse):
        rng = np.random.default_rng(11)
        theta = rng.random((64, 1))
        x = rng.uniform(*x_range, 64)
        table = SectionMap(family, beta, RHO, cfg, reverse=reverse).mobius_table(theta)
        det = table[:, 0] * table[:, 3] - table[:, 1] * table[:, 2]
        assert np.max(np.abs(det - 1.0)) <= 1e-9
        ode = SectionMap(family, beta, RHO, cfg, reverse=reverse).step(theta, x)
        image, escaped = _mobius_sweep(table, x, cfg)
        assert np.array_equal(escaped, ode.escaped)
        ok = ~ode.escaped
        assert ok.sum() >= 32
        want = ode.y[0][ok]
        assert np.all(np.abs(image[ok] - want) <= 1e-8 * np.maximum(1.0, np.abs(want)))

    def test_table_needs_a_float_beta(self):
        smap = SectionMap(make_radial(), np.array([0.1, 0.3]), RHO, CFG)
        with pytest.raises(ValueError, match="float beta"):
            smap.sub_returns()
        with pytest.raises(ValueError, match="float beta"):
            smap.mobius_table(np.array([[0.1], [0.2]]))

    def test_sub_returns_of_the_figure_regime(self):
        # T max||A||_F / pi = sqrt(100^2 + 1) / pi^2 = 10.13
        smap = SectionMap(Cos11(100.0), 176.01538, RHO, CFG)
        assert smap.sub_returns() == 12


class TestInverseReturnMap:
    def test_inverse_of_forward(self):
        fam = make_radial()
        freq = induce_frequency(RHO)
        fwd = return_map(fam, 0.0, RHO, [0.22], 0.3, CFG)
        back = inverse_return_map(fam, 0.0, RHO,
                                  [0.22 + freq.omega[0]], fwd.x_next, CFG)
        assert abs(back.x_next - 0.3) <= 1e-8

    def test_forced_inverse_of_forward(self):
        fam = make_radial()
        freq = induce_frequency(RHO)
        rng = np.random.default_rng(4)
        for _ in range(10):
            th = float(rng.random())
            x = float(rng.uniform(-0.8, 1.1))
            fwd = return_map(fam, 0.3, RHO, [th], x, CFG)
            back = inverse_return_map(fam, 0.3, RHO, [th + freq.omega[0]],
                                      fwd.x_next, CFG)
            assert abs(back.x_next - x) <= 1e-8

    def test_equilibria_are_fixed(self):
        fam = make_radial()
        for x in (-1.0, 1.0):
            ev = inverse_return_map(fam, 0.0, RHO, [0.4], x, CFG)
            assert ev.x_next == pytest.approx(x, abs=1e-10)


class TestLyapunovRelation:
    def test_constant_graphs(self):
        fam = make_radial(b=4.0)
        att = pullback_attractor(fam, 0.0, RHO, 64, 100, CFG)
        flow_l, map_l, resid = lyapunov_relation_check(fam, 0.0, RHO, att, CFG, n_lift=16)
        assert map_l == pytest.approx(-8.0 / math.pi, rel=1e-8)
        assert flow_l == pytest.approx(-8.0, rel=1e-7)
        assert resid <= 1e-6

    def test_forced_attractor_relation(self):
        fam = make_radial(b=4.0)
        att = pullback_attractor(fam, 0.1, RHO, 1024, 400, CFG)
        flow_l, map_l, resid = lyapunov_relation_check(fam, 0.1, RHO, att, CFG, n_lift=32)
        assert resid <= 1e-5
        assert flow_l < 0.0

    def test_rejects_non_invariant_graph(self):
        fam = make_radial()
        att = pullback_attractor(fam, 0.1, RHO, 1024, 400, CFG)
        bad = np.asarray(att.values) + 0.05
        with pytest.raises(ValueError):
            lyapunov_relation_check(fam, 0.1, RHO, bad, CFG)

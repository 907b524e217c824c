import dataclasses
import math

import numpy as np
import pytest

import snaflow.bifurcation as bifurcation
from snaflow.bifurcation import (
    BifurcationError,
    classify,
    estimate_beta_bounds,
    locate_beta_c,
)
from snaflow.fields import AutonomousRiccati, BumpProfile, Cos11, RadialLogistic
from snaflow.flow import FlowEscape, IntegratorConfig
from snaflow.graphs import Escaped, graph_pair
from snaflow.section import SectionMap, _map_exponent, _merged_images
from snaflow.torus import RotationVector

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
RHO_UNIT = RotationVector([GOLDEN, 1.0])
CFG = IntegratorConfig()


def oracle_family():
    # x' = -x^2 + 1 - 2 beta: equilibria +-sqrt(1 - 2 beta) collide at beta = 1/2
    return AutonomousRiccati(a2=-1.0, a0=1.0, beta_slope=-2.0)


class TestLocate:
    def test_oracle_collision(self):
        trace = locate_beta_c(oracle_family(), RHO_UNIT, (0.0, 1.0), 16, 1e-4, CFG)
        assert trace.beta_c == pytest.approx(0.5, abs=1e-4)
        assert trace.predicate_monotone

    def test_reparameterised_oracle(self):
        # forcing -beta^2 moves the collision to beta = 1
        fam = AutonomousRiccati(a2=-1.0, a0=1.0, beta_slope=-1.0, beta_power=2,
                                beta_range=(0.0, 1.3))
        trace = locate_beta_c(fam, RHO_UNIT, (0.0, 1.3), 16, 1e-3, CFG)
        assert trace.beta_c == pytest.approx(1.0, abs=1e-3)

    def test_brackets_halve(self):
        trace = locate_beta_c(oracle_family(), RHO_UNIT, (0.0, 1.0), 16, 1e-3, CFG)
        widths = [hi - lo for lo, hi in trace.brackets]
        for w1, w2 in zip(widths, widths[1:]):
            assert w2 == pytest.approx(w1 / 2.0, rel=1e-12)

    def test_exponent_signs_on_existing_side(self):
        trace = locate_beta_c(oracle_family(), RHO_UNIT, (0.0, 1.0), 16, 1e-3, CFG)
        for rec in trace.records:
            if rec.graphs_exist and not rec.marginal:
                assert rec.lambda_attractor < 0.0 < rec.lambda_repeller

    def test_exponents_need_no_return(self, monkeypatch):
        calls = []
        step = SectionMap.step

        def counting_step(self, *args, **kwargs):
            calls.append(1)
            return step(self, *args, **kwargs)

        monkeypatch.setattr(SectionMap, "step", counting_step)
        trace = locate_beta_c(oracle_family(), RHO_UNIT, (0.0, 1.0), 16, 1e-3, CFG)
        assert calls == []
        monkeypatch.undo()

        # reference: every exponent from its own ODE return
        def ode_pair(family, beta, rho, grid_n, n_iter, cfg):
            pair = graph_pair(family, beta, rho, grid_n, n_iter, cfg)
            if isinstance(pair, Escaped):
                return pair
            smap = SectionMap(family, beta, rho, cfg)
            lambda_map = []
            for graph in (pair.attractor, pair.repeller):
                try:
                    lambda_map.append(_map_exponent(smap, graph.values))
                except FlowEscape:
                    lambda_map.append(math.nan)
            return dataclasses.replace(pair, lambda_map=tuple(lambda_map))

        monkeypatch.setattr(bifurcation, "graph_pair", ode_pair)
        ref = locate_beta_c(oracle_family(), RHO_UNIT, (0.0, 1.0), 16, 1e-3, CFG)
        assert (trace.brackets, trace.beta_c) == (ref.brackets, ref.beta_c)
        assert len(trace.records) == len(ref.records)
        # every field but the exponents is the same, the exponents agree to 1e-9
        blank = dict(lambda_attractor=None, lambda_repeller=None)
        for rec, want in zip(trace.records, ref.records):
            assert dataclasses.replace(rec, **blank) == dataclasses.replace(want, **blank)
            if rec.graphs_exist:
                for name in blank:
                    assert getattr(rec, name) == pytest.approx(
                        getattr(want, name), rel=1e-9, abs=1e-9, nan_ok=True)

    def test_rejects_bad_ranges(self):
        with pytest.raises(BifurcationError):
            locate_beta_c(oracle_family(), RHO_UNIT, (0.0, 0.1), 16, 1e-3, CFG)
        with pytest.raises(BifurcationError):
            locate_beta_c(oracle_family(), RHO_UNIT, (0.8, 1.0), 16, 1e-3, CFG)


class TestBisect:
    @pytest.mark.parametrize("levels", [2, 3, 4, 5])
    def test_midpoint_trees_give_the_rounds_brackets(self, levels):
        # switches at 0.3, pi/10 and 0.7 + 1e-9 in brackets that close at
        # different rounds: the trees change the calls, not the brackets
        switch = np.array([0.3, math.pi / 10.0, 0.7 + 1e-9])
        lo, hi = [0.0, 0.25, 0.5], [1.0, 0.5, 1.0]

        def run(n):
            calls = []

            def holds(mids, idx, tops):
                assert np.all(mids < tops)
                calls.append(mids.size)
                return mids < switch[idx]

            return bifurcation._bisect(holds, lo, hi, 1e-6, levels=n), calls

        ref, ref_calls = run(1)
        history, calls = run(levels)
        assert np.array_equal(history, ref)
        assert len(ref_calls) == len(ref) - 1 == 20
        assert len(calls) == math.ceil(len(ref_calls) / levels)


class TestBetaBounds:
    def test_unforced_field_fires_neither(self):
        fam = RadialLogistic(4.0, BumpProfile(0.3), [0.5, 0.8])
        rho = RotationVector([GOLDEN, math.pi])
        bounds = estimate_beta_bounds(fam, rho, 64, CFG, c=0.2)
        assert bounds.beta_minus > 0.0
        assert bounds.beta_minus <= bounds.beta_plus

    def crossing_family(self):
        return RadialLogistic(100.0, BumpProfile(0.45), [0.5, 0.5]), RotationVector([GOLDEN, 1.2])

    def test_crossing_family_bounds_ordered(self):
        fam, rho = self.crossing_family()
        bounds = estimate_beta_bounds(fam, rho, 64, CFG, c=0.2, tol_beta=1e-3)
        assert bounds.minus_fired and bounds.plus_fired
        assert bounds.beta_minus <= bounds.beta_plus + 1e-3
        assert bounds.beta_plus < 1.0  # the crossing happens before beta = 1

    def b6_family(self):
        # the audit's b = 6 radial-bump family
        return (RadialLogistic(6.0, BumpProfile(0.28), [0.3, 0.65]),
                RotationVector([GOLDEN * 0.25, 0.25]))

    @pytest.mark.parametrize("which", ["crossing", "b6"])
    def test_images_non_increasing_in_beta(self, which):
        # the premise of the bounds' node pruning: node by node, the scored
        # images of 1 - c and 1 + c do not increase along a beta ladder (all in
        # one return, so every lane takes the same steps)
        fam, rho = self.crossing_family() if which == "crossing" else self.b6_family()
        nodes = np.arange(64)[:, None] / 64.0
        betas = np.linspace(0.0, 1.0, 9)
        for x in (0.8, 1.2):
            img = np.array(_merged_images(fam, rho, CFG, [(beta, nodes, np.full(64, x))
                                                          for beta in betas]))
            assert np.all(img[1:] <= img[:-1])
            assert img[-1].min() < img[0].min()

    def assert_matches_sequential_bisection(self, monkeypatch, fam, rho, grid_n, c, tol):
        calls = []
        step = SectionMap.step

        def counting_step(self, *args, **kwargs):
            calls.append(1)
            return step(self, *args, **kwargs)

        monkeypatch.setattr(SectionMap, "step", counting_step)
        bounds = estimate_beta_bounds(fam, rho, grid_n, CFG, c=c, tol_beta=tol)
        monkeypatch.undo()
        lo, hi = fam.beta_range
        rounds = math.ceil(math.log2((hi - lo) / tol))
        assert len(calls) <= 1 + math.ceil(rounds / bifurcation.BOUNDS_LEVELS)

        # reference: each predicate bisected on its own over every node, one
        # return per beta
        nodes = np.arange(grid_n)[:, None] / grid_n

        def min_image(beta, x):
            res = SectionMap(fam, beta, rho, CFG).step(nodes, np.full(grid_n, x))
            below = res.y[0] <= CFG.escape_low + 1e-9
            return np.where(res.escaped, np.where(below, -np.inf, np.inf), res.y[0]).min()

        def bisect(holds):
            assert holds(lo) and not holds(hi)
            a, b = lo, hi
            while b - a > tol:
                mid = 0.5 * (a + b)
                a, b = (mid, b) if holds(mid) else (a, mid)
            return 0.5 * (a + b)

        e_top = -1.0 + math.exp(-fam.b / (2.0 * rho.rho_D))
        assert bounds.minus_fired and bounds.plus_fired
        assert bounds.beta_minus == bisect(lambda beta: min_image(beta, 1.0 - c) > e_top)
        assert bounds.beta_plus == bisect(lambda beta: min_image(beta, 1.0 + c) >= -1.0)

    @pytest.mark.slow
    def test_lockstep_matches_sequential_bisection(self, monkeypatch):
        fam, rho = self.crossing_family()
        self.assert_matches_sequential_bisection(monkeypatch, fam, rho, 64, 0.2, 1e-3)

    @pytest.mark.slow
    def test_audit_bounds_match_sequential_bisection(self, monkeypatch):
        # the audit's own call: 128 nodes, c = 0.2, tol_beta = 1e-5
        fam, rho = self.b6_family()
        self.assert_matches_sequential_bisection(monkeypatch, fam, rho, 128, 0.2, 1e-5)

    def test_thresholds_are_told_apart(self):
        # a shallow b = 2 family whose least image of 1 - c settles inside
        # (-1, e_top] over a range of beta: beta_minus (image > e_top) then
        # switches well before beta_plus (image of 1 + c >= -1)
        fam = RadialLogistic(2.0, BumpProfile(0.3), [0.5, 0.5], (0.0, 3.0))
        rho, cfg, c = RotationVector([GOLDEN, 1.0]), IntegratorConfig(rel_tol=1e-9), 0.2
        bounds = estimate_beta_bounds(fam, rho, 32, cfg, c=c, tol_beta=1e-3)
        assert bounds.minus_fired and bounds.plus_fired
        assert bounds.beta_minus < bounds.beta_plus - 0.05
        mid = 0.5 * (bounds.beta_minus + bounds.beta_plus)
        nodes = np.arange(32)[:, None] / 32.0
        least = min(_merged_images(fam, rho, cfg, [(mid, nodes, np.full(32, 1.0 - c))])[0])
        e_top = -1.0 + math.exp(-fam.b / (2.0 * rho.rho_D))
        assert -1.0 < least <= e_top

    def test_requires_radial_family(self):
        with pytest.raises(TypeError):
            estimate_beta_bounds(oracle_family(), RHO_UNIT, 64, CFG, c=0.2)


class TestClassify:
    def test_oracle_is_smooth(self):
        trace = locate_beta_c(oracle_family(), RHO_UNIT, (0.0, 1.0), 16, 1e-6, CFG)
        result = classify(oracle_family(), RHO_UNIT, trace.beta_c, 16, CFG,
                          bracket_scale=1.0, tol_beta=1e-6)
        assert result.verdict == "Smooth"
        # theta-independent dynamics: the gap is uniform, the exponent vanishes
        assert result.rungs[-1].gap_ratio == pytest.approx(1.0, abs=1e-6)
        assert abs(result.rungs[-1].lambda_attractor) <= 0.05 * result.lambda_reference

    def test_theta_dependent_smooth_collision(self):
        # cos11 at b = 10: the graphs depend on theta (the gap is not uniform),
        # yet they merge smoothly and the attractor exponent vanishes
        fam, rho = Cos11(10.0), RotationVector([GOLDEN, math.pi])
        trace = locate_beta_c(fam, rho, (0.0, 40.0), 256, 1e-3, CFG)
        result = classify(fam, rho, trace.beta_c, 256, CFG, bracket_scale=40.0,
                          tol_beta=1e-3)
        assert result.verdict == "Smooth"
        fin = result.rungs[-1]
        assert 1.2 <= fin.gap_ratio <= 2.0
        assert abs(fin.lambda_attractor) <= 0.05 * result.lambda_reference

    def test_ladder_respects_bracket_resolution(self):
        with pytest.raises(BifurcationError):
            classify(oracle_family(), RHO_UNIT, 0.5, 16, CFG,
                     bracket_scale=1.0, tol_beta=0.5)

import math

import numpy as np
import pytest

from snaflow.bifurcation import (
    BifurcationError,
    classify,
    estimate_beta_bounds,
    locate_beta_c,
)
from snaflow.fields import AutonomousRiccati, BumpProfile, RadialLogistic
from snaflow.flow import IntegratorConfig
from snaflow.section import SectionMap
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

    def test_rejects_bad_ranges(self):
        with pytest.raises(BifurcationError):
            locate_beta_c(oracle_family(), RHO_UNIT, (0.0, 0.1), 16, 1e-3, CFG)
        with pytest.raises(BifurcationError):
            locate_beta_c(oracle_family(), RHO_UNIT, (0.8, 1.0), 16, 1e-3, CFG)


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

    @pytest.mark.slow
    def test_lockstep_matches_sequential_bisection(self, monkeypatch):
        fam, rho = self.crossing_family()
        tol, c = 1e-3, 0.2
        calls = []
        step = SectionMap.step

        def counting_step(self, *args, **kwargs):
            calls.append(1)
            return step(self, *args, **kwargs)

        monkeypatch.setattr(SectionMap, "step", counting_step)
        bounds = estimate_beta_bounds(fam, rho, 64, CFG, c=c, tol_beta=tol)
        monkeypatch.undo()
        lo, hi = fam.beta_range
        assert len(calls) <= 1 + math.ceil(math.log2((hi - lo) / tol))

        # reference: each predicate bisected on its own, one return per beta
        nodes = np.arange(64)[:, None] / 64.0

        def min_image(beta, x):
            res = SectionMap(fam, beta, rho, CFG).step(nodes, np.full(64, x))
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

    def test_ladder_respects_bracket_resolution(self):
        with pytest.raises(BifurcationError):
            classify(oracle_family(), RHO_UNIT, 0.5, 16, CFG,
                     bracket_scale=1.0, tol_beta=0.5)

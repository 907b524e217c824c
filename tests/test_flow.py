import math

import numpy as np
import pytest

from snaflow.fields import AutonomousRiccati, BumpProfile, Cos11, RadialLogistic
from snaflow.flow import (
    FlowBlowUp,
    IntegratorConfig,
    _rk45_batch,
    check_cocycle,
    flow_batch,
    integrate,
    inverse_check,
)
from snaflow.torus import RotationVector

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
RHO = RotationVector([GOLDEN, math.pi])
TANH = AutonomousRiccati(a2=-1.0, a0=1.0)          # x' = -x^2 + 1, x(t) = tanh(t)
BLOWUP = AutonomousRiccati(a2=-1.0, a0=-1.0)       # x' = -x^2 - 1, x(t) = -tan(t)
CFG = IntegratorConfig()


def make_radial(b=4.0):
    return RadialLogistic(b, BumpProfile(0.3), [0.5, 0.8])


class TestClosedFormOracles:
    def test_tanh_value_and_log_derivative(self):
        st = integrate(TANH, 0.0, RHO, [0.0, 0.0], 0.0, 1.0, CFG)
        assert st.x == pytest.approx(math.tanh(1.0), abs=1e-10)
        # dx_xi(t, 0) = sech^2(t), hence log_dx = -2 log cosh(t)
        assert st.log_dx == pytest.approx(-2.0 * math.log(math.cosh(1.0)), abs=1e-9)

    def test_blowup_escape_time(self):
        cfg = CFG.with_escape(-1e7, 1e7)
        st = integrate(BLOWUP, 0.0, RHO, [0.0, 0.0], 0.0, 3.0, cfg)
        assert st.escaped
        assert st.escape_time == pytest.approx(math.pi / 2.0, abs=1e-6)

    def test_time_zero_is_identity(self):
        st = integrate(make_radial(), 0.3, RHO, [0.2, 0.4], 0.37, 0.0, CFG)
        assert (st.x, st.log_dx, st.dtheta) == (0.37, 0.0, 0.0)
        assert (st.dxx_ratio, st.dtheta_dx_ratio, st.dtheta2) == (0.0, 0.0, 0.0)

    def test_blowup_without_window_brackets_pole(self):
        cfg = CFG.with_escape(-math.inf, math.inf)
        with pytest.raises(FlowBlowUp) as exc:
            integrate(BLOWUP, 0.0, RHO, [0.0, 0.0], 0.0, 3.0, cfg)
        assert exc.value.t_low <= math.pi / 2.0 <= exc.value.t_high + 1e-3

    def test_reversed_flow_retraces_tanh(self):
        st = integrate(TANH, 0.0, RHO, [0.0, 0.0], math.tanh(1.0), -1.0, CFG)
        assert st.x == pytest.approx(0.0, abs=1e-9)


class TestCocycleAndInverse:
    def test_autonomous_semigroup(self):
        r = check_cocycle(TANH, 0.0, RHO, [0.1, 0.9], 0.0, 0.5, 0.5, CFG)
        assert r <= 1e-9

    def test_forced_cocycle(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            th = rng.random(2)
            r = check_cocycle(make_radial(), 0.3, RHO, th, 0.5, 0.3, 0.7, CFG)
            assert r <= 1e-8

    def test_degenerate_time_is_exact(self):
        assert check_cocycle(make_radial(), 0.3, RHO, [0.3, 0.6], 0.5, 0.0, 0.4, CFG) == 0.0

    def test_autonomous_inverse(self):
        assert inverse_check(TANH, 0.0, RHO, [0.5, 0.5], 0.2, 1.0, CFG) <= 1e-9

    def test_forced_inverse_over_one_return(self):
        r = inverse_check(make_radial(), 0.3, RHO, [0.12, 0.7], 0.5, 1.0 / math.pi, CFG)
        assert r <= 1e-8

    def test_inverse_at_time_zero(self):
        assert inverse_check(make_radial(), 0.3, RHO, [0.12, 0.7], 0.5, 0.0, CFG) == 0.0


def _variational_fd(family, beta, theta, x, t, direction, step_1=1e-5, step_2=1e-4):
    """Central differences of re-integrated nearby trajectories."""
    v = np.zeros(family.D)
    v[: len(direction)] = direction

    def plain(th, xx):
        return integrate(family, beta, RHO, th, xx, t, CFG).x

    def logdx(th, xx):
        return integrate(family, beta, RHO, th, xx, t, CFG).log_dx

    def dth(th, xx):
        return integrate(family, beta, RHO, th, xx, t, CFG, direction=v).dtheta

    theta = np.asarray(theta, dtype=float)
    fd = {}
    fd["dx"] = (plain(theta, x + step_1) - plain(theta, x - step_1)) / (2 * step_1)
    fd["dtheta"] = (plain(theta + step_1 * v, x) - plain(theta - step_1 * v, x)) / (2 * step_1)
    fd["dxx"] = (
        math.exp(logdx(theta, x + step_2)) - math.exp(logdx(theta, x - step_2))
    ) / (2 * step_2)
    fd["dtheta_dx"] = (
        math.exp(logdx(theta + step_2 * v, x)) - math.exp(logdx(theta - step_2 * v, x))
    ) / (2 * step_2)
    fd["dtheta2"] = (dth(theta + step_2 * v, x) - dth(theta - step_2 * v, x)) / (2 * step_2)
    return fd


class TestVariationalChannels:
    def test_against_reintegrated_differences(self):
        fam = make_radial(b=4.0)
        rng = np.random.default_rng(5)
        t = 1.0 / math.pi
        for _ in range(12):
            th = rng.random(2)
            x = rng.uniform(-0.5, 1.2)
            st = integrate(fam, 0.3, RHO, th, x, t, CFG)
            fd = _variational_fd(fam, 0.3, th, x, t, [1.0, 0.0])
            assert st.dx == pytest.approx(fd["dx"], rel=1e-5)
            assert st.dtheta == pytest.approx(fd["dtheta"], rel=1e-5, abs=1e-7)
            assert st.dxx == pytest.approx(fd["dxx"], rel=1e-3, abs=1e-5)
            assert st.dtheta_dx == pytest.approx(fd["dtheta_dx"], rel=1e-3, abs=1e-5)
            assert st.dtheta2 == pytest.approx(fd["dtheta2"], rel=1e-3, abs=1e-5)

    def test_mixed_channel_couples_through_concavity(self):
        # d_th d_x F = 0 identically for the radial family, yet the mixed
        # channel is driven through d2_x F * d_theta xi
        fam = make_radial(b=4.0)
        st = integrate(fam, 0.5, RHO, [0.35, 0.55], 0.9, 1.0 / math.pi, CFG)
        assert abs(st.dtheta_dx) > 1e-6

    def test_monotonicity_in_x(self):
        fam = make_radial()
        rng = np.random.default_rng(6)
        for _ in range(20):
            th = rng.random(2)
            x1 = rng.uniform(-0.9, 1.0)
            x2 = x1 + rng.uniform(1e-4, 0.2)
            a = integrate(fam, 0.4, RHO, th, x1, 0.7, CFG)
            b = integrate(fam, 0.4, RHO, th, x2, 0.7, CFG)
            assert a.x < b.x
            assert a.dx > 0.0 and b.dx > 0.0


class TestDrivers:
    def test_rk4_order_of_accuracy(self):
        # halving the fixed step shrinks the tanh error ~16x
        errs = []
        for h in (0.02, 0.01):
            cfg = IntegratorConfig(method="rk4", rk4_step=h)
            st = integrate(TANH, 0.0, RHO, [0.0, 0.0], 0.0, 1.0, cfg)
            errs.append(abs(st.x - math.tanh(1.0)))
        factor = errs[0] / errs[1]
        assert 8.0 <= factor <= 32.0

    def test_batch_matches_scalar_path(self):
        # the numpy driver and the plain-float driver agree on the oracle
        fam = TANH
        res = flow_batch(fam, 0.0, RHO, np.array([[0.1, 0.2]]), [0.0], 1.0, CFG, channels="full")
        st = integrate(fam, 0.0, RHO, [0.1, 0.2], 0.0, 1.0, CFG)
        assert res.y[0, 0] == pytest.approx(st.x, abs=1e-12)
        assert res.y[1, 0] == pytest.approx(st.log_dx, abs=1e-11)

    def test_unknown_channel_set_is_a_value_error(self):
        with pytest.raises(ValueError, match="unknown channel set 'bogus'"):
            flow_batch(Cos11(100.0), 1.0, [0.6, 3.1], np.zeros((1, 2)), [0.0], 0.1, CFG,
                       channels="bogus")

    def test_batch_escape_freezes_nodes(self):
        fam = make_radial(b=4.0)
        theta = np.array([[0.1, 0.2], [0.5, 0.8]])
        x0 = np.array([0.5, -5.0])  # second node starts below the repeller
        res = flow_batch(fam, 0.0, RHO, theta, x0, 2.0, CFG)
        assert not res.escaped[0]
        assert res.escaped[1]
        assert math.isfinite(res.escape_times[1])

    def test_rejected_steps_are_counted(self):
        # a full-channel b = 6 return across the bump's support edge, where
        # the C^2 bump's g'' kink forces rejections; n_steps counts attempts
        fam = RadialLogistic(6.0, BumpProfile(0.28), [0.3, 0.65])
        rho = [GOLDEN * 0.25, 0.25]
        theta = np.array([[0.3, 0.2], [0.35, 0.25], [0.25, 0.3]])
        x0 = np.array([0.9, 0.95, 1.0])
        res = flow_batch(fam, 0.78, rho, theta, x0, 4.0, IntegratorConfig(rel_tol=1e-9),
                         channels="full")
        assert not res.escaped.any()
        assert 0 < res.n_rejected < res.n_steps
        rk4 = flow_batch(fam, 0.78, rho, theta, x0, 4.0,
                         IntegratorConfig(method="rk4", rk4_step=0.01), channels="full")
        assert (rk4.n_steps, rk4.n_rejected) == (400, 0)

    def test_stiff_family_is_handled(self):
        fam = make_radial(b=100.0)
        st = integrate(fam, 0.0, RHO, [0.2, 0.3], 0.5, 1.0 / math.pi, CFG)
        assert st.x == pytest.approx(1.0, abs=1e-4)  # strong contraction to the equilibrium


class TestPerLaneBeta:
    # three beta per family, each on its own 24 lanes, over one return time;
    # the radial x-range reaches below the repeller so some lanes escape. At
    # the default rel_tol 1e-10 the radial d^2_theta channel alone is off by
    # about 2e-8 (its bump is C^2, so g'' has a kink at the support edge), and
    # two step sequences would differ by twice that: compare at 1e-11.
    TIGHT = IntegratorConfig(rel_tol=1e-11, abs_tol=1e-13)
    CASES = {
        "radial": (make_radial(), (0.0, 0.4, 0.9), TIGHT, (-1.6, 1.3)),
        "cos11": (Cos11(100.0), (150.0, 176.01538, 200.0), TIGHT.with_escape(-25.0, 25.0),
                  (-12.0, 12.0)),
    }

    def lanes(self, name):
        fam, betas, cfg, x_range = self.CASES[name]
        rng = np.random.default_rng(5)
        n = 24 * len(betas)
        return (fam, np.repeat(betas, 24), cfg, rng.random((n, 2)),
                rng.uniform(*x_range, n))

    @pytest.mark.parametrize("name", sorted(CASES))
    @pytest.mark.parametrize("channels", ["x", "xl", "full"])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_each_lane_matches_its_own_beta(self, name, channels, reverse):
        fam, beta, cfg, theta, x0 = self.lanes(name)
        t = (-1.0 if reverse else 1.0) / math.pi
        mixed = flow_batch(fam, beta, RHO, theta, x0, t, cfg, channels=channels)
        for b in np.unique(beta):
            on = beta == b
            own = flow_batch(fam, float(b), RHO, theta[on], x0[on], t, cfg, channels=channels)
            assert np.array_equal(mixed.escaped[on], own.escaped)
            ok = ~own.escaped
            got, want = mixed.y[:, on][:, ok], own.y[:, ok]
            assert np.all(np.abs(got - want) <= 1e-8 * np.maximum(1.0, np.abs(want)))
        if name == "radial":
            assert 0 < mixed.escaped.sum() < beta.size

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_float_beta_keeps_the_scalar_coefficient(self, name):
        # a float beta runs the field  poly(x) - scale beta^p g(theta)  with one
        # float coefficient: bit for bit _rk45_batch on that field written out,
        # its forcing at a step's stage times ts and its state part
        fam, beta, cfg, theta, x0 = self.lanes(name)
        b = float(beta[0])
        res = flow_batch(fam, b, RHO, theta, x0, 1.0 / math.pi, cfg)
        poly, _ = fam.polynomial()
        c = fam.scale * b**fam.beta_power
        y, active, _, _, _, _ = _rk45_batch(
            lambda ts: c * fam.shape.g(theta + ts[:, None, None] * RHO.rho),
            lambda y, cg: (poly(y[0]) - cg)[None, :],
            0.0, x0[None, :], 1.0 / math.pi, cfg)
        assert np.array_equal(res.y, y)
        assert np.array_equal(res.escaped, ~active)

    def test_array_beta_needs_one_value_per_lane(self):
        with pytest.raises(ValueError, match="one value per lane"):
            flow_batch(make_radial(), np.array([0.1, 0.2]), RHO, np.zeros((3, 2)),
                       np.zeros(3), 0.1, CFG)
        with pytest.raises(ValueError, match="beta = 1.5 outside"):
            flow_batch(make_radial(), np.array([0.1, 1.5, 0.2]), RHO, np.zeros((3, 2)),
                       np.zeros(3), 0.1, CFG)


class TestLanePermutation:
    """The forcing of a step attempt is one shape call over every lane."""

    CASES = {
        "radial": (make_radial(), 0.9, CFG, (-1.6, 1.3)),
        "cos11": (Cos11(100.0), 176.01538, CFG.with_escape(-25.0, 25.0), (-12.0, 12.0)),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    @pytest.mark.parametrize("channels", ["x", "xl", "full", "mobius"])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_lane_permutation_permutes_the_result(self, monkeypatch, name, channels,
                                                  reverse):
        # the forcing values of all stages come from one call: the result must
        # still follow the lanes, with some base points repeated
        fam, beta, cfg, x_range = self.CASES[name]
        rng = np.random.default_rng(11)
        theta = rng.random((12, 2))[rng.integers(0, 12, 40)]
        x0 = rng.uniform(*x_range, len(theta))

        seen = []
        shape_cls = type(fam.shape)
        method = "triple" if channels == "full" else "g"
        real = getattr(shape_cls, method)

        def spy(shape, th, *args):
            seen.append(th.shape[:-1])
            return real(shape, th, *args)

        monkeypatch.setattr(shape_cls, method, spy)
        t = (-1.0 if reverse else 1.0) / math.pi
        perm = rng.permutation(len(theta))
        a = flow_batch(fam, beta, RHO, theta, x0, t, cfg, channels=channels)
        b = flow_batch(fam, beta, RHO, theta[perm], x0[perm], t, cfg, channels=channels)
        assert np.array_equal(a.y[:, perm], b.y)
        assert np.array_equal(a.escaped[perm], b.escaped)
        assert np.array_equal(a.escape_times[perm], b.escape_times, equal_nan=True)
        assert a.n_steps == b.n_steps
        # one call per step attempt (five stage times) or per first stage
        assert set(seen) == {(1, len(theta)), (5, len(theta))}

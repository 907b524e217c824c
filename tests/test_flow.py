import math

import numpy as np
import pytest

from snaflow.fields import (
    AutonomousRiccati,
    BumpProfile,
    Cos11,
    FlatShape,
    ForcedField,
    RadialLogistic,
)
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

    def test_flat_field_with_a_linear_term(self):
        # x' = -x^2 + 2x from x = 1: y = x - 1 solves y' = 1 - y^2, so x = 1 + tanh t
        # and dx = sech^2 t, on the plain-float path and on the batch path alike
        fam = ForcedField(-1.0, 2.0, 0.0, 0.0, FlatShape(), (0.0, 2.0), (-10.0, 10.0))
        t = 2.5
        st = integrate(fam, 0.0, RHO, [0.1, 0.2], 1.0, t, CFG)
        res = flow_batch(fam, 0.0, RHO, np.array([[0.1, 0.2]]), [1.0], t, CFG, channels="full")
        for x, log_dx in ((st.x, st.log_dx), (res.y[0, 0], res.y[1, 0])):
            assert x == pytest.approx(1.0 + math.tanh(t), abs=1e-9)
            assert log_dx == pytest.approx(-2.0 * math.log(math.cosh(t)), abs=1e-8)


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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("channels", ["x", "full"])
    def test_lane_frozen_at_the_start_leaves_the_error_norm(self, channels):
        # a lane starting far outside the escape window overflows its field at
        # once, so its step error is not finite; it is frozen at t = 0 and must
        # not steer the shared step: the other lanes match their run without it
        fam = make_radial(b=4.0)
        far = 1e300
        with pytest.raises(FlowBlowUp):  # left in the norm, it collapses the step
            flow_batch(fam, 0.4, RHO, np.array([[0.5, 0.8]]), [far], 1.0,
                       CFG.with_escape(-math.inf, math.inf), channels=channels)
        rng = np.random.default_rng(3)
        theta, x0 = rng.random((8, 2)), rng.uniform(-0.5, 1.2, 8)
        own = flow_batch(fam, 0.4, RHO, theta, x0, 1.0, CFG, channels=channels)
        res = flow_batch(fam, 0.4, RHO, np.vstack([theta, [[0.5, 0.8]]]),
                         np.append(x0, far), 1.0, CFG, channels=channels)
        assert res.escaped[-1] and res.escape_times[-1] == 0.0 and res.y[0, -1] == far
        assert np.array_equal(res.y[:, :-1], own.y)
        assert np.array_equal(res.escaped[:-1], own.escaped)
        assert (res.n_steps, res.n_rejected) == (own.n_steps, own.n_rejected)

    def test_nan_start_is_a_value_error(self):
        with pytest.raises(ValueError, match="x0 is NaN at lane 1"):
            flow_batch(make_radial(), 0.4, RHO, np.zeros((3, 2)), [0.5, math.nan, math.nan],
                       1.0, CFG)

    @pytest.mark.parametrize("end", [math.nan, math.inf, -math.inf])
    def test_non_finite_end_time_is_a_value_error(self, end):
        # a float end time and one lane of an array of them, in flow_batch and
        # in both paths of integrate; an infinite end time would otherwise
        # never return, and a NaN one would pass as finite
        with pytest.raises(ValueError, match=f"t_final is {end} at lane 0"):
            flow_batch(make_radial(), 0.4, RHO, np.zeros((3, 2)), np.zeros(3), end, CFG)
        with pytest.raises(ValueError, match=f"t_final is {end} at lane 1"):
            flow_batch(make_radial(), 0.4, RHO, np.zeros((3, 2)), np.zeros(3),
                       [1.0, end, end], CFG)
        for fam in (make_radial(), AutonomousRiccati(a2=-1.0, a0=1.0)):
            with pytest.raises(ValueError, match=f"t_final is {end}"):
                integrate(fam, 0.4, RHO, [0.1, 0.2], 0.5, end, CFG)

    @pytest.mark.parametrize("far", [math.inf, -math.inf])
    def test_infinite_start_is_outside_the_window(self, far):
        res = flow_batch(make_radial(), 0.4, RHO, np.zeros((2, 2)), [0.5, far], 1.0, CFG)
        assert res.escaped.tolist() == [False, True] and res.escape_times[1] == 0.0

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
            x0[None, :], 1.0 / math.pi, cfg)
        assert np.array_equal(res.y, y)
        assert np.array_equal(res.escaped, ~active)

    def test_array_beta_needs_one_value_per_lane(self):
        with pytest.raises(ValueError, match="one value per lane"):
            flow_batch(make_radial(), np.array([0.1, 0.2]), RHO, np.zeros((3, 2)),
                       np.zeros(3), 0.1, CFG)
        with pytest.raises(ValueError, match="beta = 1.5 outside"):
            flow_batch(make_radial(), np.array([0.1, 1.5, 0.2]), RHO, np.zeros((3, 2)),
                       np.zeros(3), 0.1, CFG)


class TestPerLaneEndTimes:
    """One end time per lane: the batch flows on as lanes drop out at theirs."""

    # cos11 is smooth, so two step sequences agree to well below 1e-10 at this
    # tolerance; x0 up to 12 puts some lanes on orbits that leave the window
    CFG = IntegratorConfig(rel_tol=1e-11, abs_tol=1e-13).with_escape(-25.0, 25.0)
    FAMILY, BETA = Cos11(100.0), 176.01538
    ENDS = (0.0, 0.1, 0.2, 0.25, 0.3)

    def lanes(self):
        rng = np.random.default_rng(7)
        theta, x0 = rng.random((24, 2)), rng.uniform(-12.0, 12.0, 24)
        t = rng.choice(self.ENDS, 24)
        t[:2] = 0.0
        x0[1] = 30.0   # outside the window, but it does not flow
        return theta, x0, t

    @pytest.mark.parametrize("channels", ["x", "full", "mobius"])
    @pytest.mark.parametrize("sgn", [1.0, -1.0])
    def test_each_lane_matches_its_own_end_time(self, channels, sgn):
        theta, x0, t = self.lanes()
        res = flow_batch(self.FAMILY, self.BETA, RHO, theta, x0, sgn * t, self.CFG,
                         channels=channels)
        for i in range(len(t)):
            own = flow_batch(self.FAMILY, self.BETA, RHO, theta[i:i + 1], x0[i:i + 1],
                             sgn * t[i], self.CFG, channels=channels)
            assert res.escaped[i] == own.escaped[0]
            if own.escaped[0]:
                # escape times are absolute, within a step of the lane's own
                assert abs(res.escape_times[i] - own.escape_times[0]) <= 2e-3
                assert 0.0 < sgn * res.escape_times[i] <= t[i]
            else:
                want = own.y[:, 0]
                assert np.all(np.abs(res.y[:, i] - want) <= 1e-10 * np.maximum(1.0, np.abs(want)))
        start = np.zeros(res.y.shape[0])
        start[0] = 1.0 if channels == "mobius" else x0[1]
        if channels == "mobius":
            start[3] = 1.0
        assert np.array_equal(res.y[:, 1], start)
        assert not res.escaped[:2].any() and np.isnan(res.escape_times[:2]).all()
        if channels != "mobius":   # some lane leaves the window after the first end time
            assert np.any(sgn * res.escape_times[res.escaped] > min(self.ENDS[1:]))

    def test_float_end_time_is_one_call(self, monkeypatch):
        import snaflow.flow as flow

        calls = []
        real = flow._rk45_batch

        def counting(forcing, rhs, y0, *args, **kwargs):
            calls.append(y0.shape[1])   # lanes in this call
            return real(forcing, rhs, y0, *args, **kwargs)

        monkeypatch.setattr(flow, "_rk45_batch", counting)
        theta, x0, t = self.lanes()
        flow_batch(self.FAMILY, self.BETA, RHO, theta, x0, 0.3, self.CFG)
        assert calls == [24]
        calls.clear()
        flow_batch(self.FAMILY, self.BETA, RHO, theta, x0, t, self.CFG)
        # one call per distinct positive end time, on the lanes still flowing
        assert calls == [int(np.sum(t >= end)) for end in self.ENDS[1:]]

    def test_mixed_signs_are_a_value_error(self):
        with pytest.raises(ValueError, match="mixes forward and reversed"):
            flow_batch(make_radial(), 0.4, RHO, np.zeros((3, 2)), np.zeros(3),
                       np.array([0.1, 0.0, -0.1]), CFG)
        with pytest.raises(ValueError, match="one value per lane"):
            flow_batch(make_radial(), 0.4, RHO, np.zeros((3, 2)), np.zeros(3),
                       np.array([0.1, 0.2]), CFG)


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


def _stacked_field(family, beta, theta0, rho, channels, v):
    """The C-ordered forcing and the np.stack rows of the batch field, forward time.

    This is the field ``_batch_rhs`` builds, written the plain way: theta as
    one (k, n, D) array, the channel rows stacked.
    """
    poly, dpoly = family.polynomial()
    c = family.forcing_scale(beta)

    def theta_at(ts):
        return theta0 + ts[:, None, None] * rho

    if channels == "full":
        def forcing(ts):
            g, g1, g2 = family.shape.triple(theta_at(ts), v)
            return np.stack([c * g, c * g1, c * g2], axis=1)

        def rhs(y, f):
            cg, cg1, cg2 = f
            x, d2 = y[0], y[2]
            Fx = dpoly(x)
            two_a2 = 2.0 * family.a2
            return np.stack([poly(x) - cg, Fx, Fx * d2 - cg1, two_a2 * np.exp(y[1]),
                             two_a2 * d2, two_a2 * d2 * d2 - cg2 + Fx * y[5]])
        return forcing, rhs
    if channels == "mobius":
        half_a1, minus_a2 = 0.5 * family.a1, -family.a2

        def forcing(ts):
            return family.a0 - c * family.shape.g(theta_at(ts))

        def rhs(y, cq):
            p1, p2, q1, q2 = y
            return np.stack([half_a1 * p1 + cq * q1, half_a1 * p2 + cq * q2,
                             minus_a2 * p1 - half_a1 * q1, minus_a2 * p2 - half_a1 * q2])
        return forcing, rhs

    def forcing(ts):
        return c * family.shape.g(theta_at(ts))

    if channels == "x":
        return forcing, lambda y, cg: (poly(y[0]) - cg)[None, :]
    return forcing, lambda y, cg: np.stack([poly(y[0]) - cg, dpoly(y[0])])


class TestAxisMajorLayout:
    """The batch field builds theta axis-major and writes rows in place, with the same bits."""

    FAMILIES = {
        "bump": RadialLogistic(6.0, BumpProfile(0.28), [0.3, 0.65]),
        "cos11": Cos11(100.0),
        "flat": AutonomousRiccati(a2=-1.0, a0=1.0, beta_slope=0.5),
    }
    BETAS = {"bump": 0.78, "cos11": 176.01538, "flat": 0.4}

    # 37 lanes: not a multiple of the 4-row blocks of a BLAS kernel
    @pytest.mark.parametrize("name", sorted(FAMILIES))
    @pytest.mark.parametrize("channels", ["x", "xl", "full", "mobius"])
    @pytest.mark.parametrize("per_lane", [False, True])
    def test_field_matches_the_stacked_field(self, name, channels, per_lane):
        from snaflow.flow import _CHANNEL_COUNT, _batch_rhs

        fam = self.FAMILIES[name]
        n = 37
        rng = np.random.default_rng(17)
        theta0, x = rng.random((n, 2)), rng.uniform(-1.0, 1.2, n)
        beta = self.BETAS[name]
        if per_lane:
            beta = beta * rng.uniform(0.5, 1.0, n)
        v = np.array([0.6, 0.8])
        forcing, rhs = _batch_rhs(fam, beta, theta0, RHO.rho, channels, v, False)
        old_forcing, old_rhs = _stacked_field(fam, beta, theta0, RHO.rho, channels, v)
        y = np.vstack([x, rng.uniform(-2.0, 2.0, (_CHANNEL_COUNT[channels] - 1, n))])
        for ts in (0.1 + 0.01 * np.array([0.2, 0.3, 0.8, 8 / 9, 1.0]), np.array([0.37])):
            f, want = forcing(ts), old_forcing(ts)
            assert f.shape == want.shape and np.array_equal(f, want)
            for f_stage, want_stage in zip(f, want):
                assert np.array_equal(rhs(y, f_stage), old_rhs(y, want_stage))

    @pytest.mark.parametrize("per_lane", [False, True])
    def test_full_return_matches_the_stacked_field(self, per_lane):
        # a b = 6 full-channel return across the bump's support edge, with
        # rejected steps: the same step sequence and the same bits
        fam = self.FAMILIES["bump"]
        rng = np.random.default_rng(23)
        n = 45
        theta, x0 = rng.random((n, 2)), rng.uniform(-0.9, 1.2, n)
        beta = 0.78 * rng.uniform(0.8, 1.0, n) if per_lane else 0.78
        cfg = IntegratorConfig(rel_tol=1e-9)
        t = 1.0 / math.pi
        res = flow_batch(fam, beta, RHO, theta, x0, t, cfg, channels="full")
        forcing, rhs = _stacked_field(fam, beta, theta, RHO.rho, "full", np.array([1.0, 0.0]))
        y0 = np.zeros((6, n))
        y0[0] = x0
        y, active, esc_t, _, n_steps, n_rejected = _rk45_batch(forcing, rhs, y0, t, cfg)
        assert np.array_equal(res.y, y)
        assert np.array_equal(res.escaped, ~active)
        assert np.array_equal(res.escape_times, esc_t, equal_nan=True)
        assert (res.n_steps, res.n_rejected) == (n_steps, n_rejected)
        assert n_rejected > 0

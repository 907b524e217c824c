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
    unit_direction,
)
from snaflow.flow import (
    FlowBlowUp,
    IntegratorConfig,
    _batch_rhs,
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
        # and dx = sech^2 t, in closed form (integrate) and on the DP5 driver
        # run directly over the batch field, which the closed form bypasses
        fam = ForcedField(-1.0, 2.0, 0.0, 0.0, FlatShape(), (0.0, 2.0), (-10.0, 10.0))
        t, theta = 2.5, np.array([[0.1, 0.2]])
        st = integrate(fam, 0.0, RHO, theta[0], 1.0, t, CFG)
        forcing, rhs = _batch_rhs(fam, 0.0, theta, RHO.rho, "full", unit_direction(None, 2),
                                  False)
        y0 = np.zeros((6, 1))
        y0[0] = 1.0
        y, active, _, _, n_steps, _ = _rk45_batch(forcing, rhs, y0, t, CFG)
        assert active[0] and n_steps > 0
        for x, log_dx in ((st.x, st.log_dx), (y[0, 0], y[1, 0])):
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
        # a one-lane batch and integrate agree on the oracle
        fam = TANH
        res = flow_batch(fam, 0.0, RHO, np.array([[0.1, 0.2]]), [0.0], 1.0, CFG, channels="full")
        st = integrate(fam, 0.0, RHO, [0.1, 0.2], 0.0, 1.0, CFG)
        assert res.y[0, 0] == pytest.approx(st.x, abs=1e-12)
        assert res.y[1, 0] == pytest.approx(st.log_dx, abs=1e-11)

    @pytest.mark.parametrize("fam, beta", [
        (make_radial(), 0.4),
        (Cos11(1.0), 1.5),
        (AutonomousRiccati(a2=-1.0, a0=1.0, beta_slope=-2.0), 0.25),
    ])
    @pytest.mark.parametrize("t", [0.8, -0.8])
    def test_integrate_is_one_lane_of_flow_batch(self, fam, beta, t):
        # integrate has no path of its own: every channel and the escape
        # stamp are lane 0 of a one-lane full-channel batch, bit for bit
        theta, direction = np.array([[0.45, 0.7]]), [0.6, 0.8]
        for x0 in (0.3, -3.0, 3.0):   # inside, and escaping forward and reversed
            st = integrate(fam, beta, RHO, theta[0], x0, t, CFG, direction=direction)
            res = flow_batch(fam, beta, RHO, theta, [x0], t, CFG, channels="full",
                             direction=direction)
            assert [st.x, st.log_dx, st.dtheta, st.dxx_ratio, st.dtheta_dx_ratio,
                    st.dtheta2] == res.y[:, 0].tolist()
            assert st.escaped == res.escaped[0]
            assert st.escape_time == (res.escape_times[0] if st.escaped else None)

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

    def test_rejected_steps_are_counted(self, monkeypatch):
        # a full-channel b = 6 return through the bump with rejected steps:
        # n_steps counts attempts, and both counts are the sums over the
        # driver calls, one per round of chords
        import snaflow.flow as flow_module

        counts = []
        real_driver = flow_module._rk45_batch

        def driver_spy(*args, **kwargs):
            out = real_driver(*args, **kwargs)
            counts.append(out[-2:])
            return out

        monkeypatch.setattr(flow_module, "_rk45_batch", driver_spy)
        fam = RadialLogistic(6.0, BumpProfile(0.28), [0.3, 0.65])
        rho = [GOLDEN * 0.25, 0.25]
        theta = np.array([[0.3, 0.2], [0.35, 0.25], [0.25, 0.3]])
        x0 = np.array([0.9, 0.95, 1.0])
        res = flow_batch(fam, 0.78, rho, theta, x0, 4.0, IntegratorConfig(rel_tol=1e-9),
                         channels="full")
        assert not res.escaped.any()
        assert 0 < res.n_rejected < res.n_steps
        assert counts and (res.n_steps, res.n_rejected) == tuple(np.sum(counts, axis=0))

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
        # in integrate on a bump and a flat family; an infinite end time would
        # otherwise never return, and a NaN one would pass as finite
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
    # the radial x-range reaches below the repeller so some lanes escape. Two
    # step sequences differ by up to twice the error of each, so the lanes
    # run at rel_tol 1e-11 for a comparison at 1e-8.
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
    def test_float_beta_keeps_the_scalar_coefficient(self, name, monkeypatch):
        # a float beta runs the field  poly(x) - scale beta^p g(theta)  with one
        # float coefficient: bit for bit _rk45_batch on that field written out,
        # its forcing at a step's stage times ts and its state part. On the
        # radial bump that field runs on each chord leg, where each lane's
        # clock (its chord length) scales the float coefficient
        import snaflow.flow as flow_module

        fam, beta, cfg, theta, x0 = self.lanes(name)
        b = float(beta[-1])
        res = flow_batch(fam, b, RHO, theta, x0, 1.0 / math.pi, cfg)
        c = fam.scale * b**fam.beta_power

        def written_out(theta0, sign):
            poly, _ = fam.polynomial(sign)
            vel = np.asarray(sign)[..., None] * RHO.rho
            return (lambda ts: (sign * c) * fam.shape.g(theta0 + ts[:, None, None] * vel),
                    lambda y, cg: (poly(y[0]) - cg)[None, :])

        if name == "cos11":
            y, active, _, _, _, _ = _rk45_batch(*written_out(theta, 1.0), x0[None, :],
                                                1.0 / math.pi, cfg)
            assert np.array_equal(res.y, y)
            assert np.array_equal(res.escaped, ~active)
            return
        coefficients = []

        def chord_field(family, beta_, theta0, rho, channels, v, reverse, clock=None):
            assert beta_ == b and clock is not None and not reverse
            coefficients.append(clock)
            return written_out(theta0, 1.0 * clock)

        monkeypatch.setattr(flow_module, "_batch_rhs", chord_field)
        want = flow_batch(fam, b, RHO, theta, x0, 1.0 / math.pi, cfg)
        assert len(coefficients) >= 2
        assert np.array_equal(res.y, want.y)
        assert np.array_equal(res.escaped, want.escaped)
        assert np.array_equal(res.escape_times, want.escape_times, equal_nan=True)

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

        import snaflow.flow as flow_module

        seen, driven = [], []
        shape_cls = type(fam.shape)
        method = "triple" if channels == "full" else "g"
        real = getattr(shape_cls, method)
        real_driver = flow_module._rk45_batch

        def spy(shape, th, *args):
            seen.append(th.shape[:-1])
            return real(shape, th, *args)

        def driver_spy(forcing, rhs, y0, *args, **kwargs):
            driven.append(y0.shape[1])
            return real_driver(forcing, rhs, y0, *args, **kwargs)

        monkeypatch.setattr(shape_cls, method, spy)
        monkeypatch.setattr(flow_module, "_rk45_batch", driver_spy)
        t = (-1.0 if reverse else 1.0) / math.pi
        perm = rng.permutation(len(theta))
        a = flow_batch(fam, beta, RHO, theta, x0, t, cfg, channels=channels)
        b = flow_batch(fam, beta, RHO, theta[perm], x0[perm], t, cfg, channels=channels)
        assert np.array_equal(a.y[:, perm], b.y)
        assert np.array_equal(a.escaped[perm], b.escaped)
        assert np.array_equal(a.escape_times[perm], b.escape_times, equal_nan=True)
        assert a.n_steps == b.n_steps
        # one call per step attempt (five stage times) or per first stage, over
        # every lane of the driver call: the whole batch on cos11 and on the
        # Möbius channels, each round of chords through the bump on the radial
        # family (off the bump the radial lanes flow in closed form)
        assert sum(s[0] == 5 for s in seen) == a.n_steps + b.n_steps
        assert set(seen) == {(k, m) for m in driven for k in (1, 5)}
        if name == "cos11" or channels == "mobius":
            assert set(driven) == {len(theta)}
        else:
            assert len(driven) >= 4 and max(driven) < len(theta)


def _stacked_field(family, beta, theta0, rho, channels, v, sign=1.0):
    """The C-ordered forcing and the np.stack rows of the batch field.

    This is the field ``_batch_rhs`` builds, written the plain way: theta as
    one (k, n, D) array, the channel rows stacked. ``sign`` is the time scale:
    -1.0 for reversed time, or one signed value per lane (a chord's clock).
    """
    poly, dpoly = family.polynomial(sign)
    c = sign * family.forcing_scale(beta)
    vel = np.asarray(sign)[..., None] * rho

    def theta_at(ts):
        return theta0 + ts[:, None, None] * vel

    if channels == "full":
        def forcing(ts):
            g, g1, g2 = family.shape.triple(theta_at(ts), v)
            return np.stack([c * g, c * g1, c * g2], axis=1)

        def rhs(y, f):
            cg, cg1, cg2 = f
            x, d2 = y[0], y[2]
            Fx = dpoly(x)
            two_a2 = 2.0 * sign * family.a2
            return np.stack([poly(x) - cg, Fx, Fx * d2 - cg1, two_a2 * np.exp(y[1]),
                             two_a2 * d2, two_a2 * d2 * d2 - cg2 + Fx * y[5]])
        return forcing, rhs
    if channels == "mobius":
        assert sign == 1.0
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
    def test_field_matches_the_stacked_field(self, name, channels, per_lane, clocked=False):
        from snaflow.flow import _CHANNEL_COUNT, _batch_rhs

        fam = self.FAMILIES[name]
        n = 37
        rng = np.random.default_rng(17)
        theta0, x = rng.random((n, 2)), rng.uniform(-1.0, 1.2, n)
        beta = self.BETAS[name]
        if per_lane:
            beta = beta * rng.uniform(0.5, 1.0, n)
        v = np.array([0.6, 0.8])
        # a clock gives each lane its own time scale, here in reversed time
        clock = rng.uniform(1e-3, 0.4, n) if clocked else None
        forcing, rhs = _batch_rhs(fam, beta, theta0, RHO.rho, channels, v, clocked, clock)
        old_forcing, old_rhs = _stacked_field(fam, beta, theta0, RHO.rho, channels, v,
                                              -clock if clocked else 1.0)
        y = np.vstack([x, rng.uniform(-2.0, 2.0, (_CHANNEL_COUNT[channels] - 1, n))])
        for ts in (0.1 + 0.01 * np.array([0.2, 0.3, 0.8, 8 / 9, 1.0]), np.array([0.37])):
            f, want = forcing(ts), old_forcing(ts)
            assert f.shape == want.shape and np.array_equal(f, want)
            for f_stage, want_stage in zip(f, want):
                assert np.array_equal(rhs(y, f_stage), old_rhs(y, want_stage))

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    @pytest.mark.parametrize("channels", ["x", "xl", "full"])
    @pytest.mark.parametrize("per_lane", [False, True])
    def test_clocked_field_matches_the_stacked_field(self, name, channels, per_lane):
        self.test_field_matches_the_stacked_field(name, channels, per_lane, clocked=True)

    @pytest.mark.parametrize("per_lane", [False, True])
    def test_full_return_matches_the_stacked_field(self, monkeypatch, per_lane):
        # b = 6 full-channel returns, forward and reversed, with lanes of 0, 1
        # and 2 chords through the bump and rejected steps: with the stacked
        # field on every chord leg, the same step sequences and the same bits
        import snaflow.flow as flow_module

        fam = self.FAMILIES["bump"]
        rng = np.random.default_rng(23)
        n = 45
        theta, x0 = rng.random((n, 2)), rng.uniform(-0.9, 1.2, n)
        beta = 0.78 * rng.uniform(0.8, 1.0, n) if per_lane else 0.78
        cfg = IntegratorConfig(rel_tol=1e-9)

        def stacked_rhs(family, beta, theta0, rho, channels, v, reverse, clock=None):
            sign = -1.0 if reverse else 1.0
            return _stacked_field(family, beta, theta0, rho, channels, v,
                                  sign if clock is None else sign * clock)

        for t in (1.0 / math.pi, -1.0 / math.pi):
            res = flow_batch(fam, beta, RHO, theta, x0, t, cfg, channels="full")
            with monkeypatch.context() as patched:
                patched.setattr(flow_module, "_batch_rhs", stacked_rhs)
                want = flow_batch(fam, beta, RHO, theta, x0, t, cfg, channels="full")
            assert np.array_equal(res.y, want.y)
            assert np.array_equal(res.escaped, want.escaped)
            assert np.array_equal(res.escape_times, want.escape_times, equal_nan=True)
            assert (res.n_steps, res.n_rejected) == (want.n_steps, want.n_rejected)
            assert res.n_rejected > 0
            chords, _ = flow_module._chords(fam.shape, theta, math.copysign(1.0, t) * RHO.rho,
                                            np.full(n, abs(t)))
            assert set(np.count_nonzero(~np.isnan(chords), axis=1)) == {0, 1, 2}


def _whole_span(fam, beta, rho, theta, x0, t_final, channels, direction=None):
    """The reference flow: ``_rk45_batch`` on ``_batch_rhs`` over each lane's
    whole span at rel_tol 1e-13, one driver call per distinct end time."""
    from snaflow.flow import _CHANNEL_COUNT, _batch_rhs
    from snaflow.fields import unit_direction

    cfg = IntegratorConfig(rel_tol=1e-13, abs_tol=1e-15)
    n = len(x0)
    t_final = np.broadcast_to(np.asarray(t_final, dtype=float), (n,))
    beta = np.broadcast_to(np.asarray(beta, dtype=float), (n,))
    reverse = bool((t_final < 0.0).any())
    v = unit_direction(direction, fam.D) if channels == "full" else None
    y = np.zeros((_CHANNEL_COUNT[channels], n))
    y[0] = x0
    escaped = np.zeros(n, dtype=bool)
    for end in np.unique(np.abs(t_final)):
        on = np.abs(t_final) == end
        forcing, rhs = _batch_rhs(fam, beta[on], theta[on], np.asarray(rho, dtype=float),
                                  channels, v, reverse)
        y[:, on], active, _, _, _, _ = _rk45_batch(forcing, rhs, y[:, on], end, cfg)
        escaped[on] = ~active
    return y, escaped


def _reference_at(fam, beta, rho, theta, x0, times):
    """x of the reference "x" flow (rel_tol 1e-13, window +-10) of each lane at its
    own time: one ``_rk45_batch`` call over t in [0, 1], each lane on a clock of
    its |time|, so the steps may straddle the support's edge."""
    from snaflow.flow import _batch_rhs

    cfg = IntegratorConfig(rel_tol=1e-13, abs_tol=1e-15)
    times = np.asarray(times, dtype=float)
    forcing, rhs = _batch_rhs(fam, beta, theta, np.asarray(rho, dtype=float), "x", None,
                              bool(times[0] < 0.0), clock=np.abs(times))
    y, _, _, _, _, _ = _rk45_batch(forcing, rhs, np.asarray(x0, dtype=float)[None, :], 1.0, cfg)
    return y[0]


class TestBumpLegs:
    """Off the bump's support a radial lane flows in closed form; DP5 runs only on its chords."""

    RADIAL = make_radial()           # R = 0.3 at (0.5, 0.8); RHO: 0, 1 or 2 chords per return
    B6 = RadialLogistic(6.0, BumpProfile(0.28), [0.3, 0.65])
    B6_RHO = np.array([GOLDEN * 0.25, 0.25])

    @staticmethod
    def chord_counts(fam, theta, vel, span):
        from snaflow.flow import _chords

        t_in, _ = _chords(fam.shape, theta, np.asarray(vel, dtype=float),
                          np.broadcast_to(np.abs(np.asarray(span, dtype=float)), (len(theta),)))
        return np.count_nonzero(~np.isnan(t_in), axis=1)

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("channels", ["x", "full"])
    def test_unforced_equilibria_are_exact(self, reverse, channels):
        from snaflow.section import SectionMap, _grid_nodes

        smap = SectionMap(self.RADIAL, 0.0, RHO, CFG, reverse=reverse)
        nodes = _grid_nodes((64,), 1)
        counts = self.chord_counts(self.RADIAL, smap.base_points(nodes),
                                   -RHO.rho if reverse else RHO.rho, smap.return_time)
        assert set(counts) == {0, 1, 2}
        for x in (-1.0, 1.0):
            res = smap.step(nodes, np.full(64, x), channels=channels)
            assert not res.escaped.any()
            assert np.all(res.y[0] == x)

    def test_equilibria_keep_exact_log_dx_past_underflow(self):
        # b = 100 over T = 4: exp(-2bT) = exp(-800) underflows to 0, yet the
        # equilibria keep log dx = -+2bT exactly, forward and reversed
        fam = RadialLogistic(100.0, BumpProfile(0.1), [0.5, 0.5])
        rho = self.B6_RHO
        theta = np.random.default_rng(4).random((200, 2))
        blind = (self.chord_counts(fam, theta, rho, 4.0) == 0) & (
            self.chord_counts(fam, theta, -rho, 4.0) == 0)
        theta = theta[blind][:1]
        assert len(theta) == 1
        for t, x, log_dx in ((4.0, -1.0, 800.0), (4.0, 1.0, -800.0),
                             (-4.0, 1.0, 800.0), (-4.0, -1.0, -800.0)):
            res = flow_batch(fam, 0.5, rho, theta, [x], t, CFG, channels="xl")
            assert res.n_steps == 0 and not res.escaped[0]
            assert (res.y[0, 0], res.y[1, 0]) == (x, log_dx)

    def test_lanes_off_the_support_make_no_step(self):
        rng = np.random.default_rng(8)
        theta = rng.random((400, 2))
        theta[:, 1] = 0.0
        blind = self.chord_counts(self.RADIAL, theta, RHO.rho, 1.0 / math.pi) == 0
        assert 20 <= blind.sum() < 400
        x0 = rng.uniform(-0.9, 1.2, blind.sum())
        for channels in ("x", "xl", "full"):
            res = flow_batch(self.RADIAL, 0.9, RHO, theta[blind], x0, 1.0 / math.pi, CFG,
                             channels=channels)
            assert (res.n_steps, res.n_rejected) == (0, 0)
            assert not res.escaped.any()
            if channels == "full":
                # the forcing never acts: no base derivatives
                assert not res.y[[2, 4, 5]].any()
        # in a batch with lanes through the bump they keep their bits
        x0 = rng.uniform(-0.9, 1.2, 60)
        mixed = flow_batch(self.RADIAL, 0.9, RHO, theta[:60], x0, 1.0 / math.pi, CFG,
                           channels="full")
        alone = flow_batch(self.RADIAL, 0.9, RHO, theta[:60][blind[:60]], x0[blind[:60]],
                           1.0 / math.pi, CFG, channels="full")
        assert mixed.n_steps > 0 and alone.n_steps == 0
        assert np.array_equal(mixed.y[:, blind[:60]], alone.y)

    @pytest.mark.parametrize("flat, reverse", [
        pytest.param(False, False, id="False"),
        pytest.param(False, True, id="True"),
        pytest.param(True, False, id="flat-False"),
        pytest.param(True, True, id="flat-True"),
    ])
    def test_escape_time_is_the_closed_form_crossing(self, flat, reverse):
        # x' = -b (x^2 - 1) below the repeller -1 (reversed: above the
        # attractor 1) runs off to infinity: |x| = coth(acoth|x0| - b t)
        # crosses 10 at (atanh(1/|x0|) - atanh(1/10))/b. The radial family is
        # that field off its bump (b = 4), the flat tanh oracle everywhere (b = 1)
        fam, b = (TANH, 1.0) if flat else (self.RADIAL, self.RADIAL.b)
        rng = np.random.default_rng(2)
        theta = rng.random((200, 2))
        t = (-1.0 if reverse else 1.0) * (3.0 if flat else 1.0 / math.pi)
        if not flat:
            theta = theta[self.chord_counts(fam, theta, -RHO.rho if reverse else RHO.rho,
                                            t) == 0]
        theta = theta[:5]
        x0 = np.array([1.2, 1.5, 2.0, 4.0, 9.0]) * (1.0 if reverse else -1.0)
        res = flow_batch(fam, 0.5, RHO, theta, x0, t, CFG, channels="full")
        want = (np.arctanh(1.0 / np.abs(x0)) - math.atanh(0.1)) / b
        assert res.escaped.all() and res.n_steps == 0
        runs = [(res.escape_times, res.y[0])]
        if flat:
            states = [integrate(fam, 0.5, RHO, th, x, t, CFG) for th, x in zip(theta, x0)]
            assert all(st.escaped for st in states)
            runs.append((np.array([st.escape_time for st in states]),
                         np.array([st.x for st in states])))
        for times, x in runs:
            assert np.all(np.abs(np.abs(times) - want) <= 1e-14 * want + 1e-15)
            assert np.all(np.sign(times) == np.sign(t))
            # frozen strictly beyond the boundary it crossed, as the section's
            # escape score reads it
            if reverse:
                assert np.all(x > CFG.escape_high) and np.all(x < 10.0 + 1e-14)
            else:
                assert np.all(x < CFG.escape_low) and np.all(x > -10.0 - 1e-14)
        # without a window the pole is a blow-up, bracketed at its exact time
        with pytest.raises(FlowBlowUp) as exc:
            flow_batch(fam, 0.5, RHO, theta[:1], x0[:1], t,
                       CFG.with_escape(-math.inf, math.inf))
        pole = math.atanh(1.0 / abs(x0[0])) / b
        assert exc.value.t_low == pytest.approx(pole, rel=1e-14)
        assert exc.value.t_high == pytest.approx(pole, rel=1e-14)

    CASES = {
        # 0, 1 and 2 chords per lane over one return
        "radial": (RADIAL, RHO.rho, 1.0 / math.pi, (-1.3, 1.3), 0.9),
        # the bump straddles the section theta_2 = 0: chords start at t = 0 or
        # end at the span's end
        "straddle": (RadialLogistic(4.0, BumpProfile(0.3), [0.4, 0.05]), RHO.rho,
                     1.0 / math.pi, (-1.3, 1.3), 0.9),
        # the b = 6 audit drive over T = 4
        "b6": (B6, B6_RHO, 4.0, (-0.99, 1.2), 0.78),
        # D = 3
        "3d": (RadialLogistic(4.0, BumpProfile(0.35), [0.5, 0.4, 0.7]),
               np.array([GOLDEN, math.sqrt(2.0) - 1.0, 2.0]), 0.5, (-1.3, 1.3), 0.9),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    @pytest.mark.parametrize("channels", ["x", "xl", "full"])
    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("per_lane", [False, True])
    def test_chord_legs_match_the_whole_span_flow(self, name, channels, reverse, per_lane):
        fam, rho, T, x_range, beta = self.CASES[name]
        rng = np.random.default_rng(31)
        n = 40
        theta = rng.random((n, fam.D))
        theta[:, -1] = 0.0
        x0 = rng.uniform(*x_range, n)
        t = np.full(n, T)
        if per_lane:
            beta = beta * rng.uniform(0.5, 1.0, n)
            t = T * rng.choice([0.25, 0.6, 1.0], n)
        t = -t if reverse else t
        vel = -rho if reverse else rho
        counts = self.chord_counts(fam, theta, vel, t)
        assert 0 in counts and 1 in counts
        want, want_escaped = _whole_span(fam, beta, rho, theta, x0, t, channels)
        res = flow_batch(fam, beta, rho, theta, x0, t, CFG, channels=channels)
        _assert_same_flow(res, want, want_escaped)
        if name == "radial" and not per_lane:
            assert 2 in counts
        if name == "straddle":
            from snaflow.flow import _chords

            t_in, t_out = _chords(fam.shape, theta, vel, np.abs(t))
            assert (t_in[:, 0] == 0.0).any() and (t_out == np.abs(t)[:, None]).any()

    @pytest.mark.parametrize("reverse", [False, True])
    def test_grazing_chord(self, reverse):
        # a lane that passes the center at R (1 - 1e-13) has a chord of about
        # 1e-7 of the return time; lanes at R (1 -+ 1e-3) have a short chord or none
        fam = self.RADIAL
        R = fam.bump.R_support
        u = RHO.rho / np.linalg.norm(RHO.rho)
        normal = np.array([-u[1], u[0]])
        T = 1.0 / math.pi
        offsets = R * np.array([1.0 - 1e-13, 1.0 - 1e-3, 1.0 + 1e-3, 0.5])
        theta = fam.center + offsets[:, None] * normal - 0.4 * T * np.linalg.norm(RHO.rho) * u
        vel = -RHO.rho if reverse else RHO.rho
        if reverse:
            theta = theta + T * RHO.rho
        from snaflow.flow import _chords

        t_in, t_out = _chords(fam.shape, theta, vel, np.full(4, T))
        length = t_out[:, 0] - t_in[:, 0]
        assert 0.0 < length[0] < 1e-6 * T and np.isnan(length[2])
        t = -T if reverse else T
        x0 = np.array([0.3, -0.5, 0.8, 0.1])
        for channels in ("x", "xl", "full"):
            want, want_escaped = _whole_span(fam, 0.9, RHO.rho, theta, x0, t, channels)
            res = flow_batch(fam, 0.9, RHO, theta, x0, t, CFG, channels=channels)
            _assert_same_flow(res, want, want_escaped)

    # ---- escapes proven on chords (flow._escape_proof)

    @staticmethod
    def without_proofs(monkeypatch, *args, **kwargs):
        """``flow_batch`` with the escape proof switched off: the DP5 chords then
        carry every lane until it leaves the window, as before the rule."""
        import snaflow.flow as flow_module

        with monkeypatch.context() as patched:
            patched.setattr(flow_module, "_escape_proof", lambda *a, **k: None)
            return flow_batch(*args, **kwargs)

    def escaping_lanes(self, reverse, beta, n=40):
        """b = 6 lanes from anywhere on T^2, half of them started near or just
        beyond the repeller (-1 forward, 1 reversed), where the forcing drives
        lanes out through the bump."""
        rng = np.random.default_rng(11)
        theta = rng.random((n, 2))
        x0 = np.concatenate([rng.uniform(-1.3, -1.0, n // 4), rng.uniform(-1.0, -0.5, n // 4),
                             rng.uniform(-1.6, 1.2, n - n // 2)])
        if beta is None:
            beta = rng.uniform(0.78, 1.0, n)
        return theta, -x0 if reverse else x0, beta

    @pytest.mark.parametrize("beta", [0.78, 1.0, None])
    @pytest.mark.parametrize("channels", ["x", "xl", "full"])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_proven_escapes_match_the_whole_span_flow(self, monkeypatch, beta, channels,
                                                      reverse):
        # a chord lane beyond the repeller that the forcing-free flow carries
        # out of the window within its remaining time is frozen at once: the
        # same escapes as the reference on the same side, the other lanes as
        # close to it as the chord legs always were, and an escape time that
        # is an upper bound on the crossing
        fam, rho = self.B6, self.B6_RHO
        theta, x0, beta = self.escaping_lanes(reverse, beta)
        sgn = -1.0 if reverse else 1.0
        t = 4.0 * sgn
        res = flow_batch(fam, beta, rho, theta, x0, t, CFG, channels=channels)
        off = self.without_proofs(monkeypatch, fam, beta, rho, theta, x0, t, CFG,
                                  channels=channels)
        want, want_escaped = _whole_span(fam, beta, rho, theta, x0, t, channels)
        _assert_same_flow(res, want, want_escaped)
        assert np.array_equal(res.escaped, off.escaped)
        bound = CFG.escape_high if reverse else CFG.escape_low
        beyond = np.nextafter(bound, sgn * -math.inf)
        proven = (res.y[0] == beyond) & (off.y[0] != beyond)
        assert proven.sum() >= 3 and res.n_steps < off.n_steps
        stamp = res.escape_times[proven]
        assert np.all(sgn * stamp > 0.0) and np.all(sgn * stamp <= 4.0)
        # not earlier than the crossing: the reference flowed to each stamp
        # has left the window, or sits on its boundary to its accuracy
        x_at = _reference_at(fam, beta if np.isscalar(beta) else beta[proven], rho,
                             theta[proven], x0[proven], stamp)
        assert np.all(sgn * (x_at - bound) <= 1e-9)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_no_proof_without_a_window_on_the_escaping_side(self, monkeypatch, reverse):
        # the comparison needs a boundary to cross: without one the pole stays
        # a FlowBlowUp, as it is on the closed-form legs
        from snaflow.flow import _escape_proof, _riccati_roots

        fam, rho = self.B6, self.B6_RHO
        sgn = -1.0 if reverse else 1.0
        cfg = CFG.with_escape(-10.0, math.inf) if reverse else CFG.with_escape(-math.inf, 10.0)
        one = np.ones(3)
        assert _escape_proof(fam, _riccati_roots(fam, sgn), 1.0, sgn, one, one, cfg) is None
        assert _escape_proof(fam, _riccati_roots(fam, sgn), 1.0, sgn, one, one, CFG) is not None
        theta, x0, _ = self.escaping_lanes(reverse, 1.0)
        res = flow_batch(fam, 1.0, rho, theta, x0, 4.0 * sgn, CFG)
        off = self.without_proofs(monkeypatch, fam, 1.0, rho, theta, x0, 4.0 * sgn, CFG)
        beyond = np.nextafter(sgn * -10.0, sgn * -math.inf)
        lane = np.flatnonzero((res.y[0] == beyond) & (off.y[0] != beyond))[:1]
        assert lane.size    # a lane proven with the window
        with pytest.raises(FlowBlowUp):
            flow_batch(fam, 1.0, rho, theta[lane], x0[lane], 4.0 * sgn, cfg)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_no_proof_where_the_forcing_pushes_the_other_way(self, monkeypatch, reverse):
        # at beta < 0 the forcing pushes lanes back toward the attractor, so
        # the forcing-free flow bounds nothing: every lane is integrated, the
        # same bits and step counts as without the rule
        from snaflow.flow import _escape_proof, _riccati_roots

        fam = RadialLogistic(6.0, BumpProfile(0.28), [0.3, 0.65], beta_range=(-1.0, 1.0))
        sgn = -1.0 if reverse else 1.0
        roots = _riccati_roots(fam, sgn)
        assert _escape_proof(fam, roots, -0.78, sgn, np.ones(2), np.ones(2), CFG) is None
        theta, x0, _ = self.escaping_lanes(reverse, None)
        beta = np.full(len(x0), -0.78)
        res = flow_batch(fam, beta, self.B6_RHO, theta, x0, 4.0 * sgn, CFG, channels="xl")
        off = self.without_proofs(monkeypatch, fam, beta, self.B6_RHO, theta, x0, 4.0 * sgn,
                                  CFG, channels="xl")
        assert res.escaped.any() and res.n_steps > 0
        assert np.array_equal(res.y, off.y) and (res.n_steps, res.n_rejected) == (
            off.n_steps, off.n_rejected)
        assert np.array_equal(res.escape_times, off.escape_times, equal_nan=True)
        # per lane: a lane whose forcing pushes the other way is never frozen
        prove = _escape_proof(fam, roots, np.array([-0.78, 0.78]), sgn, np.ones(2),
                              np.ones(2), CFG)
        y, active, esc_t = np.full((1, 2), -1.5 * sgn), np.ones(2, dtype=bool), np.full(2, np.nan)
        assert prove(y, active, esc_t, 0.0)
        assert active.tolist() == [True, False] and y[0, 0] == -1.5 * sgn

    def test_no_proof_past_the_remaining_time(self, monkeypatch):
        # two lanes beyond the repeller on chords of length 0.5, one with 3 more
        # time units after its chord: only that one has time for the
        # forcing-free crossing, t_c = 1.19 from x = -1.001
        from snaflow.flow import _crossing_time, _escape_proof, _riccati_roots

        fam = self.B6
        roots = _riccati_roots(fam, 1.0)
        r1, r2, kappa = roots
        x = -1.001
        t_c = float(_crossing_time((x - r2) / (r1 - r2), (-10.0 - r2) / (r1 - r2), kappa))
        assert 0.5 < t_c < 3.5
        prove = _escape_proof(fam, roots, 0.78, 1.0, np.full(2, 0.5), np.array([0.0, 3.0]), CFG)
        y, active, esc_t = np.full((2, 2), x), np.ones(2, dtype=bool), np.full(2, np.nan)
        assert prove(y, active, esc_t, 0.0)
        assert active.tolist() == [True, False]
        assert y[0, 0] == x and y[0, 1] == np.nextafter(-10.0, -math.inf) and y[1, 1] == x
        assert esc_t[1] == pytest.approx(t_c / 0.5, rel=1e-15)
        # nor at a chord's end: the closed-form leg that follows times it exactly
        assert not prove(np.full((2, 2), x), np.ones(2, dtype=bool), esc_t, 1.0)
        # in a flow: a lane started just beyond the repeller inside the bump,
        # whose span ends long before it could cross, is never frozen
        theta = np.array([fam.center, [0.1, 0.2]])
        res = flow_batch(fam, 0.78, self.B6_RHO, theta, [x, 0.5], 0.01, CFG)
        off = self.without_proofs(monkeypatch, fam, 0.78, self.B6_RHO, theta, [x, 0.5], 0.01,
                                  CFG)
        assert not res.escaped.any() and res.y[0, 0] < x
        assert np.array_equal(res.y, off.y) and res.n_steps == off.n_steps > 0

    @pytest.mark.parametrize("reverse", [False, True])
    def test_escaping_lanes_barely_cost_steps(self, monkeypatch, reverse):
        # lanes that the forcing drives out through the bump at beta = 1 add
        # few step attempts to a "full" batch once they are frozen: 1.2 times
        # the batch without them, against 2.1 times when they were carried to
        # the window
        fam, rho = self.B6, self.B6_RHO
        sgn = -1.0 if reverse else 1.0
        cfg = IntegratorConfig(rel_tol=1e-9)
        rng = np.random.default_rng(7)
        theta = rng.random((80, 2))
        theta[:, 1] = 0.0
        x0 = sgn * rng.uniform(0.0, 1.2, 80)
        t = 4.0 * sgn
        stay = ~flow_batch(fam, 1.0, rho, theta, x0, t, cfg, channels="full").escaped
        theta_out = rng.random((80, 2))
        theta_out[:, 1] = 0.0
        x_out = sgn * rng.uniform(-1.0, -0.6, 80)
        leave = self.without_proofs(monkeypatch, fam, 1.0, rho, theta_out, x_out, t, cfg,
                                    channels="full").escaped
        assert stay.sum() > 60 and leave.sum() >= 8
        alone = flow_batch(fam, 1.0, rho, theta[stay], x0[stay], t, cfg, channels="full")
        mixed = flow_batch(fam, 1.0, rho, np.vstack([theta[stay], theta_out[leave]]),
                           np.concatenate([x0[stay], x_out[leave]]), t, cfg, channels="full")
        assert np.count_nonzero(mixed.escaped) == leave.sum()
        assert mixed.n_steps <= 1.5 * alone.n_steps


def _assert_same_flow(res, want, want_escaped):
    """Same escaped lanes, left on the same side; channels within 1e-8 max(1, |ref|)."""
    assert np.array_equal(res.escaped, want_escaped)
    esc = want_escaped
    assert np.array_equal(res.y[0, esc] < CFG.escape_low, want[0, esc] < CFG.escape_low)
    assert np.array_equal(res.y[0, esc] > CFG.escape_high, want[0, esc] > CFG.escape_high)
    ok = ~esc
    got, ref = res.y[:, ok], want[:, ok]
    assert np.all(np.abs(got - ref) <= 1e-8 * np.maximum(1.0, np.abs(ref)))


def test_steps_clipped_to_close_end_times_are_not_a_collapse():
    # two lanes whose end times lie closer than h_min = 1e-14 max(span, 1):
    # the second driver call's span is one rounding step, not a blow-up
    res = flow_batch(Cos11(100.0), 1.0, [0.618, 3.14], np.zeros((2, 2)), [0.0, 0.0],
                     [0.1, 0.1 + 1e-16], IntegratorConfig())
    assert not res.escaped.any()
    assert res.y[0, 0] == res.y[0, 1] or abs(res.y[0, 0] - res.y[0, 1]) < 1e-14

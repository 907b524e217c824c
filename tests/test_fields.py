import math

import numpy as np
import pytest

from snaflow.fields import (
    AutonomousRiccati,
    BumpProfile,
    Cos11,
    ForcedField,
    LogisticHarvest,
    RadialLogistic,
    bump_value,
    eval_field,
    radial_to_harvest,
    unit_direction,
)


def make_radial(b=4.0, R=0.3, center=(0.5, 0.8)):
    return RadialLogistic(b, BumpProfile(R), center)


class TestBump:
    def test_center_triple(self):
        h, hp, hpp = bump_value(BumpProfile(1.0), 0.0)
        assert (h, hp) == (1.0, 0.0)
        assert hpp == pytest.approx(-6.0)

    def test_support_boundary_is_c2(self):
        assert bump_value(BumpProfile(0.5), 0.5) == (0.0, 0.0, 0.0)
        assert bump_value(BumpProfile(0.5), 2.0) == (0.0, 0.0, 0.0)

    def test_half_radius(self):
        R = 2.0
        h, hp, _ = bump_value(BumpProfile(R), R / 2)
        assert h == pytest.approx(0.421875)
        assert hp == pytest.approx(-1.6875 / R)

    def test_rejects_negative_argument(self):
        with pytest.raises(ValueError):
            bump_value(BumpProfile(1.0), -0.1)

    def test_monotone_decreasing_on_support(self):
        prof = BumpProfile(0.7)
        ys = np.linspace(1e-6, 0.7 - 1e-6, 500)
        _, hp, _ = prof.triple(ys)
        assert np.all(hp < 0.0)


class TestEvalField:
    def test_radial_at_unforced_equilibrium(self):
        fe = eval_field(make_radial(), 0.0, [0.1, 0.2], 1.0)
        assert fe.value == 0.0
        assert fe.dx == -8.0

    def test_radial_vertex(self):
        fe = eval_field(make_radial(), 0.0, [0.3, 0.1], 0.0)
        assert fe.value == 4.0

    def test_cos11_figure_point(self):
        fam = Cos11(b=100.0)
        fe = eval_field(fam, 176.01538, [0.0, 0.0], 0.0)
        assert fe.value == pytest.approx(100.0)  # forcing vanishes at (0, 0)

    def test_beta_range_enforced(self):
        with pytest.raises(ValueError):
            eval_field(make_radial(), 2.0, [0.1, 0.2], 0.0)

    def test_array_beta_names_its_first_bad_lane(self):
        fam = make_radial()
        fam.check_beta(np.array([0.0, 0.5, 1.0]))
        with pytest.raises(ValueError, match=r"^beta = 1\.5 outside beta_range \[0\.0, 1\.0\]"):
            fam.check_beta(np.array([0.2, 1.5, -0.1]))
        with pytest.raises(ValueError, match=r"^beta = -0\.1 outside"):
            fam.check_beta(np.array([0.2, -0.1, 1.5]))
        with pytest.raises(ValueError, match=r"^beta = nan outside"):
            fam.check_beta(np.array([0.2, np.nan, 2.0]))
        with pytest.raises(ValueError, match=r"^beta = nan outside"):
            fam.check_beta(math.nan)

    def test_b_must_exceed_one(self):
        with pytest.raises(ValueError):
            RadialLogistic(1.0, BumpProfile(0.3), [0.5, 0.5])

    def test_cos11_b_must_be_positive(self):
        with pytest.raises(ValueError, match="b > 0"):
            Cos11(b=-1.0)

    def test_concavity_is_exact(self):
        # d^2_x F = -2b everywhere, asserted exactly
        fam = make_radial(b=7.0)
        rng = np.random.default_rng(0)
        fe = [
            eval_field(fam, 0.5, th, x)
            for th, x in zip(rng.random((20, 2)), rng.uniform(-2, 2, 20))
        ]
        assert all(e.dxx == -14.0 for e in fe)
        assert all(e.dtheta_dx == 0.0 for e in fe)

    def test_beta_derivative_sign(self):
        fam = make_radial()
        # strict where the bump is felt, zero outside its support
        at_center = eval_field(fam, 0.3, fam.center, 0.0)
        assert at_center.dbeta < 0.0
        far = eval_field(fam, 0.3, fam.center + 0.49, 0.0)
        assert far.dbeta == 0.0

    def test_radial_symmetry(self):
        fam = make_radial()
        eps = 0.1
        vals = []
        for ang in np.linspace(0.0, 2 * math.pi, 17)[:-1]:
            delta = np.array([math.cos(ang), math.sin(ang)])
            fe = eval_field(fam, 0.4, fam.center + eps * delta, 0.7)
            vals.append(fe.value)
        assert np.ptp(vals) < 1e-12


def _fd_check(family, beta, rng, n=1000, step=1e-5, rtol=1e-6):
    """Analytic partials vs central differences of (analytically) lower order."""
    D = family.D
    lo, hi = family.beta_range
    for _ in range(n):
        th = rng.random(D)
        x = rng.uniform(-1.5, 1.5)
        b = rng.uniform(lo, min(hi, lo + 1.0))
        v = np.zeros(D)
        v[rng.integers(0, D)] = 1.0
        e = eval_field(family, b, th, x, v)

        def val(bb=b, tt=None, xx=x):
            tt = th if tt is None else tt
            return eval_field(family, bb, tt, xx, v)

        scale = abs(e.value) + 1.0
        fd_dx = (val(xx=x + step).value - val(xx=x - step).value) / (2 * step)
        assert e.dx == pytest.approx(fd_dx, rel=rtol, abs=rtol * scale)
        fd_db = (val(bb=b + step).value - val(bb=b - step).value) / (2 * step)
        assert e.dbeta == pytest.approx(fd_db, rel=rtol, abs=rtol * scale)
        fd_dth = (val(tt=th + step * v).value - val(tt=th - step * v).value) / (2 * step)
        assert e.dtheta == pytest.approx(fd_dth, rel=rtol, abs=rtol * scale)
        # second order: difference the exposed first partials
        fd_dxx = (val(xx=x + step).dx - val(xx=x - step).dx) / (2 * step)
        assert e.dxx == pytest.approx(fd_dxx, rel=rtol, abs=rtol * scale)
        fd_dth2 = (val(tt=th + step * v).dtheta - val(tt=th - step * v).dtheta) / (2 * step)
        assert e.dtheta2 == pytest.approx(fd_dth2, rel=rtol, abs=rtol * (scale + abs(e.dtheta2)))
        fd_dthdx = (val(tt=th + step * v).dx - val(tt=th - step * v).dx) / (2 * step)
        assert e.dtheta_dx == pytest.approx(fd_dthdx, rel=rtol, abs=rtol * scale)


class TestFiniteDifferences:
    def test_radial_logistic(self):
        _fd_check(make_radial(), 0.0, np.random.default_rng(1), n=250)

    def test_cos11(self):
        _fd_check(Cos11(b=10.0, beta_range=(0.0, 40.0)), 0.0, np.random.default_rng(2), n=250)

    def test_logistic_harvest(self):
        fam = LogisticHarvest(4.0, 2.0, BumpProfile(0.3), [0.5, 0.8])
        _fd_check(fam, 0.0, np.random.default_rng(3), n=250)

    def test_autonomous_riccati(self):
        fam = AutonomousRiccati(a2=-1.0, a0=1.0, beta_slope=-2.0)
        _fd_check(fam, 0.0, np.random.default_rng(4), n=250)


class TestHarvestConjugacy:
    def test_equilibrium_endpoints(self):
        # x = -1, +1 for the quadratic family map to 0, r under x -> r(x+1)/2
        fam = make_radial(b=4.0)
        harv = radial_to_harvest(fam, 2.0)
        th = np.array([[0.1, 0.2]])
        assert float(harv.value(0.0, th, np.array([0.0]))[0]) == 0.0
        assert float(harv.value(0.0, th, np.array([2.0]))[0]) == 0.0

    def test_midpoint_value_scales_with_jacobian(self):
        # L_0 at x = r/2 equals (r/2) * F_0(theta, 0) = b r / 2
        fam = make_radial(b=4.0)
        for r in (0.5, 2.0, 3.0):
            harv = radial_to_harvest(fam, r)
            th = np.array([[0.1, 0.2]])
            got = float(harv.value(0.0, th, np.array([r / 2.0]))[0])
            assert got == pytest.approx(4.0 * r / 2.0)

    def test_beta_term_identical(self):
        fam = make_radial(b=4.0)
        harv = radial_to_harvest(fam, 3.0)
        th = np.array([fam.center])
        for beta in (0.1, 0.7):
            drop_f = float(fam.value(beta, th, np.array([0.3]))[0] - fam.value(0.0, th, np.array([0.3]))[0])
            drop_l = float(harv.value(beta, th, np.array([0.3]))[0] - harv.value(0.0, th, np.array([0.3]))[0])
            assert drop_f == pytest.approx(drop_l, rel=1e-14)

    def test_rejects_bad_r(self):
        with pytest.raises(ValueError):
            radial_to_harvest(make_radial(), -1.0)


class TestOneFamily:
    PARTIALS = {"value", "dx", "dxx", "dtheta", "dtheta2", "dtheta_dx", "dbeta",
                "section_bounds", "default_escape"}

    @pytest.mark.parametrize("family, section, escape", [
        (RadialLogistic(4.0, BumpProfile(0.3), [0.5, 0.8]), (-1.0, 1.25), (-10.0, 10.0)),
        (RadialLogistic(100.0, BumpProfile(0.45), [0.5, 0.5]), (-1.0, 1.25), (-10.0, 10.0)),
        (Cos11(b=100.0), (-10.0, 12.5), (-25.0, 25.0)),
        (Cos11(b=2.0), (-math.sqrt(2.0), 1.25 * math.sqrt(2.0)),
         (-2.5 * math.sqrt(2.0), 2.5 * math.sqrt(2.0))),
        (LogisticHarvest(4.0, 2.0, BumpProfile(0.3), [0.5, 0.8]), (0.0, 2.25), (-9.0, 11.0)),
        (LogisticHarvest(4.0, 0.5, BumpProfile(0.3), [0.5, 0.8]), (0.0, 0.5625), (-2.25, 2.75)),
        (AutonomousRiccati(a2=-1.0, a0=4.0), (-2.0, 2.5), (-30.0, 30.0)),
        (AutonomousRiccati(a2=-1.0, a0=-1.0), (-1.0, 1.25), (-20.0, 20.0)),
        (AutonomousRiccati(a2=1.0, a0=1.0), (-1.0, 1.25), (-20.0, 20.0)),
    ])
    def test_section_and_escape_windows(self, family, section, escape):
        assert family.section_bounds() == section
        assert family.default_escape() == escape

    @pytest.mark.parametrize("cls", [RadialLogistic, Cos11, LogisticHarvest, AutonomousRiccati])
    def test_named_families_are_constructors(self, cls):
        assert issubclass(cls, ForcedField)
        assert not self.PARTIALS & set(vars(cls))

    def test_full_rhs_computes_bump_offsets_once(self, monkeypatch):
        import snaflow.fields as fields_module
        from snaflow.flow import _batch_rhs

        calls = []
        real = fields_module.nearest_lift_offset

        def counted(a, b):
            calls.append(1)
            return real(a, b)

        monkeypatch.setattr(fields_module, "nearest_lift_offset", counted)
        theta0 = np.random.default_rng(0).random((8, 2))
        rhs = _batch_rhs(make_radial(), 0.5, theta0, np.array([0.618, 3.14]), "full",
                         np.array([1.0, 0.0]), False)
        rhs(0.1, np.zeros((6, 8)))
        assert len(calls) == 1


class TestUnitDirection:
    def test_default_is_first_axis(self):
        assert unit_direction(None, 3).tolist() == [1.0, 0.0, 0.0]

    def test_section_direction_is_lifted(self):
        assert unit_direction([0.0, 1.0], 3).tolist() == [0.0, 1.0, 0.0]
        assert unit_direction([1.0], 2, section=True).tolist() == [1.0, 0.0]

    @pytest.mark.parametrize("direction, D, section", [
        ([1.0, 0.0, 0.0, 0.0], 3, False),    # too many components
        ([1.0, 0.0], 2, True),               # a section direction has D - 1
        ([0.6, 0.6], 2, False),              # not a unit vector
        ([2.0], 2, True),
    ])
    def test_rejections(self, direction, D, section):
        with pytest.raises(ValueError):
            unit_direction(direction, D, section=section)

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from snaflow.torus import (
    InducedFrequency,
    RotationVector,
    TorusPoint,
    certify_diophantine,
    induce_frequency,
    nearest_lift_offset,
    torus_distance,
    wrap_unit,
)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def fibonacci_upto(n):
    fibs = [1, 1]
    while fibs[-1] <= n:
        fibs.append(fibs[-1] + fibs[-2])
    return set(fibs)


class TestCertify:
    def test_rational_resonance_fails(self):
        # omega = 1/2 hits an exact resonance at k = 2
        cert = certify_diophantine(InducedFrequency(np.array([0.5]), 1.0), 0.1, 1.0, 4)
        assert not cert.passed
        assert cert.worst_k.tolist() == [2]
        assert cert.worst_value == 0.0

    def test_golden_mean_passes(self):
        cert = certify_diophantine(InducedFrequency(np.array([GOLDEN]), 1.0), 0.2, 1.0, 10_000)
        assert cert.passed
        # the golden mean is badly approximable; its best approximations are
        # exactly the Fibonacci denominators
        assert int(cert.worst_k[0]) in fibonacci_upto(10_000)
        # brute-force oracle: replay the scan in plain python on a subsample
        worst = min(
            (abs(k * GOLDEN - round(k * GOLDEN)) * k for k in range(1, 2000)),
        )
        assert cert.empirical_C <= worst + 1e-15

    def test_continuous_scan_returns_empirical_constant(self):
        rho = RotationVector([GOLDEN, math.pi])
        cert = certify_diophantine(rho, 0.01, 2.0, 1000)
        assert cert.passed
        # empirical constant must reproduce worst_value * |worst_k|_inf^eta
        kn = np.max(np.abs(cert.worst_k))
        assert cert.empirical_C == pytest.approx(cert.worst_value * kn**2.0, rel=1e-12)
        # independent double loop over a smaller radius can only do as well
        best = math.inf
        for k1 in range(-40, 41):
            for k2 in range(-40, 41):
                if (k1, k2) == (0, 0):
                    continue
                v = abs(k1 * GOLDEN + k2 * math.pi)
                best = min(best, v * max(abs(k1), abs(k2)) ** 2.0)
        assert cert.empirical_C <= best + 1e-15

    def test_monotone_in_radius(self):
        # enlarging K_max never turns fail into pass
        om = InducedFrequency(np.array([0.37]), 1.0)
        outcomes = [certify_diophantine(om, 0.05, 1.0, k).passed for k in range(1, 40)]
        for a, b in zip(outcomes, outcomes[1:]):
            assert not (b and not a) or a  # once failed, stays failed
        failed = [i for i, ok in enumerate(outcomes) if not ok]
        if failed:
            assert all(not outcomes[i] for i in range(failed[0], len(outcomes)))

    def test_budget_truncation_marks_partial(self):
        rho = RotationVector([GOLDEN, math.pi])
        cert = certify_diophantine(rho, 0.01, 2.0, 100_000, budget=10_000)
        assert cert.partial
        assert cert.K_max < cert.requested_K_max

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            RotationVector([0.0, 0.0])
        with pytest.raises(ValueError):
            certify_diophantine(RotationVector([0.1, 1.0]), -1.0, 1.0, 10)
        with pytest.raises(ValueError):
            certify_diophantine(RotationVector([0.1, 1.0]), 0.1, 1.0, 0)


class TestInduceFrequency:
    def test_direct_ratio(self):
        f = induce_frequency(RotationVector([0.5, 1.0]))
        assert f.omega.tolist() == [0.5]
        assert f.return_time == 1.0

    def test_figure_drive(self):
        f = induce_frequency(RotationVector([GOLDEN, math.pi]))
        assert f.omega[0] == pytest.approx(GOLDEN / math.pi)
        assert f.return_time == pytest.approx(1.0 / math.pi)

    def test_resonant_tie(self):
        with pytest.warns(UserWarning):
            rho = RotationVector([1.0, 1.0])
        f = induce_frequency(rho)
        assert f.omega.tolist() == [0.0]
        assert f.return_time == 1.0

    def test_rejects_non_dominant_last(self):
        with pytest.raises(ValueError):
            RotationVector([2.0, 1.0])

    def test_drive_direction_consistency(self):
        # (t*rho mod 1) on the first d coordinates at t = n/rho_D is n*omega mod 1
        rho = RotationVector([GOLDEN, math.pi])
        f = induce_frequency(rho)
        for n in (1, 7, 131, 1000):
            t = n * f.return_time
            drive = wrap_unit(t * rho.rho[:-1])
            section = wrap_unit(n * f.omega)
            assert torus_distance(drive, section) <= 1e-12


class TestTorusDistance:
    def test_wraparound(self):
        assert torus_distance([0.1], [0.9]) == pytest.approx(0.2)

    def test_identity(self):
        assert torus_distance([0.0, 0.0], [0.0, 0.0]) == 0.0

    def test_direct_evaluation(self):
        d = torus_distance([0.25, 0.0], [0.75, 0.5])
        assert d == pytest.approx(math.sqrt(0.5), rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            torus_distance([0.1], [0.1, 0.2])

    def test_nearest_lift_offset_rounds_half_to_even(self):
        # d minus d rounded half to even, exact ties included: the offsets
        # of 0.5, 1.5, 2.5 and -0.5 are 0.5, -0.5, 0.5 and -0.5
        rng = np.random.default_rng(3)
        a = rng.uniform(-3.0, 3.0, (5, 2, 2))
        a[0] = [[0.5, 1.5], [2.5, -0.5]]
        a[1] = [[-1.5, -2.5], [0.0, 3.0]]
        b = np.array([0.0, 0.0])
        d = a - b
        assert np.array_equal(nearest_lift_offset(a, b), d - np.round(d))
        assert np.array_equal(nearest_lift_offset(a[0], b), [[0.5, -0.5], [0.5, -0.5]])

    def test_triangle_inequality_bulk(self):
        rng = np.random.default_rng(7)
        pts = rng.random((10_000, 3, 2))
        for a, b, c in pts[:: max(1, len(pts) // 10_000)]:
            ab = torus_distance(a, b)
            bc = torus_distance(b, c)
            ac = torus_distance(a, c)
            assert ac <= ab + bc + 1e-12

    @given(st.lists(st.floats(-100, 100, allow_nan=False), min_size=1, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_bounded_by_half_diagonal(self, coords):
        p = TorusPoint(coords)
        q = TorusPoint([0.0] * len(coords))
        assert torus_distance(p, q) <= math.sqrt(len(coords)) / 2 + 1e-12

    @given(st.floats(-1e6, 1e6, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_wrap_unit_range(self, x):
        w = float(wrap_unit(x))
        assert 0.0 <= w < 1.0

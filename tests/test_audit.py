import math

import numpy as np
import pytest

from snaflow import audit, flow
from snaflow.audit import (
    AuditError,
    audit_bump_convexity,
    compute_constants,
    critical_region,
    gate_report,
    in_critical_region,
    j0_region,
    kronecker_sequence,
    run_audit,
)
from snaflow.fields import BumpProfile, RadialLogistic
from snaflow.flow import IntegratorConfig
from snaflow.section import SectionMap, _grid_nodes, return_map
from snaflow.torus import RotationVector

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
CFG = IntegratorConfig()

# moderate-b configuration: slow drive, wide bump, so the pinch mechanism
# fires inside beta in [0, 1] without needing huge b
B6_RHO = RotationVector([GOLDEN * 0.25, 0.25])
B6_KW = dict(b=6.0, c=0.2, delta1=0.05, delta2=0.012, R_support=0.28)
B6_CENTER = [0.3, 0.65]


def b6_constants():
    return compute_constants(rho=B6_RHO, theta_bar=B6_CENTER, **B6_KW)


def b6_family():
    return RadialLogistic(6.0, BumpProfile(0.28), B6_CENTER)


def count_returns(monkeypatch):
    """Record (channels, lanes) of every SectionMap.step from here on."""
    calls = []
    step = SectionMap.step

    def counting_step(self, *args, **kwargs):
        res = step(self, *args, **kwargs)
        calls.append((kwargs.get("channels", "x"), res.y.shape[1]))
        return res

    monkeypatch.setattr(SectionMap, "step", counting_step)
    return calls


class TestConstants:
    def test_formula_values(self):
        # b=100 reference point evaluated independently of the implementation
        rho = RotationVector([GOLDEN, math.pi])
        c = 0.2499
        cons = compute_constants(100.0, c, 0.0085, 0.004, 0.002, rho, [0.5, 0.985])
        T = 1.0 / math.pi
        assert cons.log_alpha_u == pytest.approx(2 * 100 * (1 + c) * T, rel=1e-14)
        assert cons.log_alpha_e == pytest.approx(
            2 * 100 * (1 - c) * (T - 0.0085) - 10 * 100 * 0.0085, rel=1e-14
        )
        assert cons.log_alpha_c == -cons.log_alpha_e
        assert cons.log_alpha_l == -cons.log_alpha_u
        assert cons.log_S == pytest.approx(9 * 100 * 0.0085)
        assert cons.log_r_b == pytest.approx(-9 * 100 * 0.0085)
        assert cons.log_s == pytest.approx(100 * 0.004 / 4)
        assert cons.t1 == pytest.approx(T / 4)

    def test_c_boundary_rejected(self):
        with pytest.raises(AuditError):
            compute_constants(100.0, 0.25, 0.0085, 0.004, 0.002,
                              RotationVector([GOLDEN, math.pi]), [0.5, 0.985])

    def test_delta1_cap_rejected(self):
        # 1/18 is never admissible; for rho_D < 2 the cap is tighter still
        with pytest.raises(AuditError):
            compute_constants(6.0, 0.2, 1.0 / 18.0, 0.004, 0.002,
                              RotationVector([GOLDEN, 1.5]), [0.5, 0.9])

    def test_section_straddle_rejected(self):
        with pytest.raises(AuditError):
            compute_constants(6.0, 0.2, 0.05, 0.012, 0.28, B6_RHO, [0.3, 0.1])

    def test_margin_flags_reported(self):
        cons = b6_constants()
        assert not cons.margins_ok  # wide bump: the strict margins cannot hold
        tiny = compute_constants(6.0, 0.2, 0.05, 0.012, 0.004,
                                 B6_RHO, [0.3, 1.0 - 0.25 * 0.03])
        assert tiny.margins_ok

    def test_theta0_passes_through_centre(self):
        cons = b6_constants()
        tau = cons.theta_bar[-1] / cons.rho_D
        hit = (cons.theta0 + tau * cons.rho[:-1]) % 1.0
        assert np.allclose(hit, cons.theta_bar[:-1], atol=1e-12)


class TestCriticalRegion:
    def test_orbit_through_centre_is_critical(self):
        cons = b6_constants()
        assert in_critical_region(cons, cons.theta0[None, :])[0]

    def test_far_point_is_not(self):
        cons = b6_constants()
        far = (cons.theta0 + 0.5) % 1.0
        assert not in_critical_region(cons, far[None, :])[0]

    def test_measure_between_zero_and_one(self):
        cons = b6_constants()
        region = critical_region(cons, 512)
        assert 0.0 < region.measure < 1.0

    def test_j0_empty_below_firing(self):
        cons = b6_constants()
        mask = j0_region(b6_family(), 0.1, B6_RHO, cons, 128, CFG)
        assert not mask.any()


class TestGate:
    def test_reference_arithmetic(self):
        # note: delta1 must respect the 1/(36 rho_D) cap, which for rho_D = pi
        # means delta1 < 0.00885
        rho = RotationVector([GOLDEN, math.pi])
        c = 0.2499
        cons = compute_constants(100.0, c, 0.0085, 0.004, 0.002, rho, [0.5, 0.985])
        gate = gate_report(cons, i0_measure=0.01, K=50, M=2, C_prime=0.1, eta=2.0)
        q = 1.0 - 1.0 / 50.0
        assert gate.q == pytest.approx(q)
        assert gate.exponent_q == pytest.approx(q * q - 10.0 * (1.0 - q * q))
        assert gate.log_alpha == pytest.approx(100.0 * (1 + c) / math.pi)
        # nu terms: log s vs 2 log S - exponent * log alpha
        assert gate.nu_log_positive_term == pytest.approx(100.0 * 0.004 / 4.0)
        assert gate.nu_log_negative_term == pytest.approx(
            18.0 * 100.0 * 0.0085 - gate.exponent_q * gate.log_alpha
        )
        assert gate.nu_log_margin == pytest.approx(
            gate.nu_log_positive_term - gate.nu_log_negative_term
        )
        assert gate.kappa == "UNKNOWN"

    def test_q_precondition(self):
        cons = b6_constants()
        with pytest.raises(AuditError):
            gate_report(cons, 0.01, K=10, M=2, C_prime=0.1, eta=2.0)  # q^2 <= 10/11

    def test_p_and_m_preconditions(self):
        cons = b6_constants()
        with pytest.raises(AuditError):
            gate_report(cons, 0.01, K=50, M=1, C_prime=0.1, eta=2.0)
        with pytest.raises(AuditError):
            gate_report(cons, 0.01, K=50, M=2, C_prime=0.1, eta=2.0, p=1.2)

    def test_large_i0_fails_smallness(self):
        cons = b6_constants()
        gate = gate_report(cons, i0_measure=0.5, K=50, M=2, C_prime=1e-3, eta=2.0)
        assert not gate.i0_condition["ok"]


class TestKronecker:
    def test_deterministic_and_in_range(self):
        a = kronecker_sequence(100, 2, seed=3)
        b = kronecker_sequence(100, 2, seed=3)
        assert np.array_equal(a, b)
        assert np.all((a >= 0.0) & (a < 1.0))

    def test_low_discrepancy_spread(self):
        pts = kronecker_sequence(1000, 1, seed=0).ravel()
        gaps = np.diff(np.sort(pts))
        assert gaps.max() < 10.0 / 1000.0


class TestBumpConvexity:
    # beta = 1 lies inside the pinch window: 5 of 16 nodes, some lanes escape
    BETA = 1.0
    GRID = 16
    SAMPLE_X = 4

    def test_one_full_channel_return_per_beta(self, monkeypatch):
        calls = count_returns(monkeypatch)
        entry, mask = audit_bump_convexity(b6_family(), self.BETA, B6_RHO, b6_constants(),
                                           self.GRID, CFG, sample_x=self.SAMPLE_X)
        full = [lanes for channels, lanes in calls if channels == "full"]
        assert entry.status != "not-applicable"
        assert full == [int(mask.sum()) * self.SAMPLE_X]

    @pytest.mark.slow
    def test_matches_reference_loop(self):
        fam, cons = b6_family(), b6_constants()
        entry, mask = audit_bump_convexity(fam, self.BETA, B6_RHO, cons, self.GRID, CFG,
                                           sample_x=self.SAMPLE_X)
        nodes = _grid_nodes(mask.shape, 1)[mask.ravel()]
        lo, hi = cons.contraction_interval
        levels = lo + (hi - lo) * (np.arange(self.SAMPLE_X) + 0.5) / self.SAMPLE_X
        ref_min, ref_theta, n_escaped = math.inf, None, 0
        for xv in levels:
            for th in nodes:
                ev = return_map(fam, self.BETA, B6_RHO, th, xv, CFG)
                if ev.escaped:
                    n_escaped += 1
                elif ev.dtheta2 < ref_min:
                    ref_min, ref_theta = ev.dtheta2, list(th)
        tol = 1e-8 * max(1.0, abs(ref_min))
        assert entry.measured["n_escaped"] == n_escaped > 0
        assert abs(entry.measured["min_dtheta2"] - ref_min) <= tol
        # at a pinch node the x-levels tie to within integration noise, so
        # the witness must name the reference node and reproduce its value
        w = entry.witness
        assert w["theta"] == ref_theta and w["x"] in levels
        ev = return_map(fam, w["beta"], B6_RHO, w["theta"], w["x"], CFG)
        assert abs(ev.dtheta2 - w["value"]) <= tol


class TestAuditCost:
    def test_merged_returns_and_one_pinch_mask_per_beta(self, monkeypatch):
        # beta bounds: 1 + ceil(17 / 4) returns; pinch probes (4, then 8): 2;
        # pinch masks and sets: 1 each; A1-A3: 1; A4-A8: 1; A11-A16: 2 forward
        # and 1 reversed; 15 in all
        calls = count_returns(monkeypatch)
        mask_betas = []

        def recording_j0_region(family, beta, *args, **kwargs):
            mask_betas.extend(np.ravel(beta).tolist())
            return j0_region(family, beta, *args, **kwargs)

        monkeypatch.setattr(audit, "j0_region", recording_j0_region)
        report = run_audit(b6_family(), B6_RHO, b6_constants(), beta_grid=[0.0, 0.78],
                           grid_n=32, sample_n=20, cfg=CFG, seed=1)
        assert len(calls) <= 15
        counts = report.entry("A6").measured["node_counts"]
        assert len(counts) == 5 and report.entry("A6").measured["first_nonempty_beta"]
        assert len(mask_betas) == len(set(mask_betas))

    @staticmethod
    def audit_returns(monkeypatch, **kwargs):
        """(channels, step attempts) of each flow_batch call of a b = 6 run_audit."""
        import snaflow.section as section

        returns = []
        real = section.flow_batch

        def spy(*args, **kw):
            res = real(*args, **kw)
            returns.append((kw.get("channels", "x"), res.n_steps))
            return res

        monkeypatch.setattr(section, "flow_batch", spy)
        calls = count_returns(monkeypatch)
        run_audit(b6_family(), B6_RHO, b6_constants(), beta_grid=[0.0, 0.78], seed=1,
                  **kwargs)
        assert len(calls) == len(returns)
        return returns

    def test_step_budget(self, monkeypatch):
        # DP5 runs only on the lanes' chords through the bump, and a chord
        # lane stops steering the step once the forcing-free flow proves it
        # escapes: the returns make 4,093 step attempts in all (7,478 when
        # escaping lanes were integrated to the window, 14,320 when every
        # return integrated its whole time T); the budget leaves 14% for
        # drift. The reversed A15/A16 lanes never meet the bump, so their
        # return makes no step at all
        returns = self.audit_returns(monkeypatch, grid_n=32, sample_n=20, cfg=CFG)
        assert len(returns) == 15
        assert sum(steps for _, steps in returns) <= 4700
        # A1-A3 share one "xl" return; A15/A16's is the last "full" one
        assert [ch for ch, _ in returns].count("xl") == 1
        assert [steps for ch, steps in returns if ch == "full"][-1] == 0

    def test_bench_size_audit_budget(self, monkeypatch):
        # the benchmark's audit (grid 64, 40 samples, rel_tol 1e-9, seed 1):
        # 15 returns and 2,773 step attempts, against 16 and 5,205 when A2 had
        # a return of its own and escaping chord lanes set the shared step
        returns = self.audit_returns(monkeypatch, grid_n=64, sample_n=40,
                                     cfg=IntegratorConfig(rel_tol=1e-9))
        assert len(returns) == 15
        assert sum(steps for _, steps in returns) < 3000

    def test_hairline_lane_leaves_the_strip_in_any_batch(self):
        # a bump-free lane a few ulps above the repeller -1: exp(-2bT) is far
        # below the float spacing there, so in exact arithmetic it leaves the
        # strip E; its return is the same bits alone and in a batch whose
        # other lanes cross the bump and force small steps
        cons = b6_constants()
        smap = SectionMap(b6_family(), 0.78, B6_RHO, CFG)
        theta = np.array([[0.4], [0.1], [0.7], [0.9]])
        x = np.array([-1.0 + 8.9e-16, 0.9, -0.5, 1.1])
        chords, _ = flow._chords(smap.family.shape, smap.base_points(theta), B6_RHO.rho,
                                 np.full(4, smap.return_time))
        assert np.isnan(chords[0]).all() and not np.isnan(chords[1:, 0]).any()
        alone = smap.step(theta[:1], x[:1], channels="xl")
        mixed = smap.step(theta, x, channels="xl")
        assert alone.n_steps == 0 and mixed.n_steps > 20
        assert np.array_equal(alone.y[:, 0], mixed.y[:, 0])
        assert alone.y[0, 0] > cons.e_top
        # at the repeller itself log dx is 2bT, exactly
        at_repeller = smap.step(theta[:1], [-1.0], channels="xl")
        assert at_repeller.y[0, 0] == -1.0 and at_repeller.y[1, 0] == 2.0 * 6.0 * 4.0

    def test_array_beta_gives_one_mask_per_value(self):
        cons = b6_constants()
        masks = j0_region(b6_family(), np.array([0.1, 0.78, 1.0]), B6_RHO, cons, 16, CFG)
        assert masks.shape == (3, 16) and masks[2].any() and not masks[0].any()
        for beta, mask in zip([0.1, 0.78, 1.0], masks):
            assert np.array_equal(mask, j0_region(b6_family(), beta, B6_RHO, cons, 16, CFG))


@pytest.fixture(scope="module")
def b6_report():
    return run_audit(b6_family(), B6_RHO, b6_constants(),
                     beta_grid=[0.0, 0.3, 0.6, 0.78], grid_n=128,
                     sample_n=120, cfg=CFG, seed=0)


@pytest.mark.slow
class TestRunAudit:
    def test_exactly_sixteen_entries(self, b6_report):
        ids = [e.id for e in b6_report.entries]
        assert ids == [f"A{i}" for i in range(1, 17)]

    def test_boundary_trapping_passes_exactly(self, b6_report):
        e4 = b6_report.entry("A4")
        assert e4.status == "pass"
        assert e4.measured["max_excess_bottom"] <= 0.0
        assert e4.measured["max_excess_top"] <= 0.0

    def test_pinch_set_nesting_passes(self, b6_report):
        e6 = b6_report.entry("A6")
        assert e6.status == "pass"
        assert e6.measured["nested_along_beta_grid"]
        assert e6.measured["convex_each_beta"]
        assert e6.measured["first_nonempty_beta"] is not None

    def test_blind_inverse_mixed_derivative_is_zero(self, b6_report):
        e16 = b6_report.entry("A16")
        assert e16.status == "pass"
        assert e16.measured["max_abs"] == 0.0
        assert e16.measured["exactly_zero"] is True

    def test_witnesses_reproduce(self, b6_report):
        fam = b6_family()
        for e in b6_report.entries:
            if e.witness is None or e.witness["channel"] not in (
                "log_dx", "dtheta", "dtheta2",
            ):
                continue
            ev = return_map(fam, e.witness["beta"], B6_RHO, e.witness["theta"],
                            e.witness["x"], CFG)
            got = getattr(ev, e.witness["channel"])
            ref = e.witness["value"]
            tol = 1e-8 * max(1.0, abs(ref))
            if abs(ref) > 0:
                assert abs(abs(got) - abs(ref)) <= tol

    def test_a7_witness_is_the_difference(self, b6_report):
        e7 = b6_report.entry("A7")
        assert e7.witness["channel"] == "x_next-(1-c)"
        assert e7.witness["value"] == e7.measured["min_image_minus_target"]

    def test_gate_attached(self, b6_report):
        assert b6_report.gate.kappa == "UNKNOWN"
        assert b6_report.i0_measure > 0.0

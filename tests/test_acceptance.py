"""Acceptance suite: one test per criterion, each printing a PASS line.

The Figure-regime computations (criteria 7, 8, 10) share module-scoped
fixtures; expect a few minutes of wall time for the whole module.
"""
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from snaflow.audit import compute_constants, run_audit
from snaflow.bifurcation import classify, locate_beta_c
from snaflow.fields import AutonomousRiccati, BumpProfile, Cos11, RadialLogistic
from snaflow.flow import IntegratorConfig, flow_batch, integrate
from snaflow.fractal import box_count, default_epsilons
from snaflow.graphs import Escaped, lyapunov_of_graph, pullback_attractor, pushforward_repeller
from snaflow.section import lyapunov_relation_check, return_map
from snaflow.torus import RotationVector

pytestmark = pytest.mark.slow

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
RHO_PI = RotationVector([GOLDEN, math.pi])
CFG = IntegratorConfig()
FIG_BETA = 176.01538
FIG_CFG = IntegratorConfig(escape_low=-25.0, escape_high=25.0)
FIG_RANGE = (170.0, 180.0)


def report(criterion, detail):
    print(f"\nACCEPTANCE {criterion}: PASS  [{detail}]")


def radial(b=4.0):
    return RadialLogistic(b, BumpProfile(0.3), [0.5, 0.8])


# ---------------------------------------------------------------- fixtures


@pytest.fixture(scope="module")
def fig_family():
    return Cos11(b=100.0)


@pytest.fixture(scope="module")
def fig_graphs(fig_family):
    att = pullback_attractor(fig_family, FIG_BETA, RHO_PI, 256, 8000, FIG_CFG)
    rep = pushforward_repeller(fig_family, FIG_BETA, RHO_PI, 256, 8000, FIG_CFG)
    assert not isinstance(att, Escaped) and not isinstance(rep, Escaped)
    return att, rep


@pytest.fixture(scope="module")
def fig_trace(fig_family):
    return locate_beta_c(fig_family, RHO_PI, FIG_RANGE, 256, 1e-3, FIG_CFG,
                         n_iter_base=3000)


@pytest.fixture(scope="module")
def fig_classification(fig_family, fig_trace):
    return classify(fig_family, RHO_PI, fig_trace.beta_c, 256, FIG_CFG,
                    bracket_scale=FIG_RANGE[1] - FIG_RANGE[0], tol_beta=1e-3,
                    n_iter=20_000, projection_tol=1e-10, seed=5)


# ---------------------------------------------------------------- criteria


def test_criterion_1_closed_form_oracles():
    fam = AutonomousRiccati(a2=-1.0, a0=1.0)
    t0 = time.perf_counter()
    worst = 0.0
    for t in np.linspace(0.05, 5.0, 100):
        st = integrate(fam, 0.0, RHO_PI, [0.1, 0.2], 0.0, float(t), CFG)
        worst = max(worst, abs(st.x - math.tanh(t)) / abs(math.tanh(t)))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-8
    assert elapsed < 1.0

    blow = AutonomousRiccati(a2=-1.0, a0=-1.0)
    st = integrate(blow, 0.0, RHO_PI, [0.1, 0.2], 0.0, 3.0,
                   CFG.with_escape(-1e7, 1e7))
    assert st.escaped
    err = abs(st.escape_time - math.pi / 2.0)
    assert err <= 1e-6
    report(1, f"tanh rel err {worst:.2e} in {elapsed:.2f}s; escape err {err:.2e}")


def test_criterion_2_variational_correctness():
    fam = radial(4.0)
    beta = 0.3
    t = 1.0 / math.pi
    rng = np.random.default_rng(20)
    n = 100
    theta = np.column_stack([rng.random(n), rng.random(n)])
    x = rng.uniform(-0.5, 1.2, n)
    t0 = time.perf_counter()
    full = flow_batch(fam, beta, RHO_PI, theta, x, t, CFG, channels="full",
                      direction=[1.0, 0.0])
    assert not full.escaped.any()

    # reference trajectories for the differences: integration noise enters the
    # derivative divided by the FD step, so the probes run much tighter than
    # the channel under test
    probe_cfg = IntegratorConfig(rel_tol=1e-13, abs_tol=1e-15)

    def xs_of(th, xx):
        res = flow_batch(fam, beta, RHO_PI, th, xx, t, probe_cfg, channels="xl")
        return res.y

    h1, h2 = 1e-5, 1e-4
    dv = np.zeros((n, 2))
    dv[:, 0] = 1.0
    plain_px = xs_of(theta, x + h1)[0]
    plain_mx = xs_of(theta, x - h1)[0]
    fd_dx = (plain_px - plain_mx) / (2 * h1)
    plain_pt = xs_of(theta + h1 * dv, x)[0]
    plain_mt = xs_of(theta - h1 * dv, x)[0]
    fd_dth = (plain_pt - plain_mt) / (2 * h1)
    dxp = np.exp(xs_of(theta, x + h2)[1])
    dxm = np.exp(xs_of(theta, x - h2)[1])
    fd_dxx = (dxp - dxm) / (2 * h2)
    dtp = np.exp(xs_of(theta + h2 * dv, x)[1])
    dtm = np.exp(xs_of(theta - h2 * dv, x)[1])
    fd_mixed = (dtp - dtm) / (2 * h2)
    resp = flow_batch(fam, beta, RHO_PI, theta + h2 * dv, x, t, probe_cfg,
                      channels="full", direction=[1.0, 0.0])
    resm = flow_batch(fam, beta, RHO_PI, theta - h2 * dv, x, t, probe_cfg,
                      channels="full", direction=[1.0, 0.0])
    fd_dth2 = (resp.y[2] - resm.y[2]) / (2 * h2)

    dx_exact = np.exp(full.y[1])
    scale1 = np.abs(dx_exact) + np.abs(fd_dx)
    assert np.all(np.abs(dx_exact - fd_dx) <= 1e-5 * scale1)
    assert np.all(np.abs(full.y[2] - fd_dth) <= 1e-5 * (np.abs(fd_dth) + 1.0))
    dxx_exact = full.y[3] * dx_exact
    assert np.all(np.abs(dxx_exact - fd_dxx) <= 1e-3 * (np.abs(fd_dxx) + 1.0))
    mixed_exact = full.y[4] * dx_exact
    assert np.all(np.abs(mixed_exact - fd_mixed) <= 1e-3 * (np.abs(fd_mixed) + 1.0))
    assert np.all(np.abs(full.y[5] - fd_dth2) <= 1e-3 * (np.abs(fd_dth2) + 1.0))
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(2, f"100 samples, first/second order within 1e-5/1e-3 in {elapsed:.1f}s")


def test_criterion_3_cocycle_and_inverse():
    fam = radial(4.0)
    beta = 0.3
    rng = np.random.default_rng(30)
    n = 1000
    theta = np.column_stack([rng.random(n), rng.random(n)])
    x = rng.uniform(-0.5, 1.2, n)
    t, tau = 0.3, 0.7
    whole = flow_batch(fam, beta, RHO_PI, theta, x, t + tau, CFG)
    first = flow_batch(fam, beta, RHO_PI, theta, x, tau, CFG)
    second = flow_batch(fam, beta, RHO_PI, theta + tau * RHO_PI.rho, first.y[0], t, CFG)
    assert not (whole.escaped.any() or first.escaped.any() or second.escaped.any())
    cocycle_worst = float(np.max(np.abs(whole.y[0] - second.y[0])))
    assert cocycle_worst <= 1e-8

    # forward-backward over one return; the backward leg's conditioning is
    # exp of the integral of |dx F| over the return, which this time bounds
    ret = 1.0 / math.pi
    fwd = flow_batch(fam, beta, RHO_PI, theta, x, ret, CFG)
    back = flow_batch(fam, beta, RHO_PI, theta + ret * RHO_PI.rho, fwd.y[0], -ret, CFG)
    inverse_worst = float(np.max(np.abs(back.y[0] - x)))
    assert inverse_worst <= 1e-8
    report(3, f"cocycle {cocycle_worst:.2e}, inverse {inverse_worst:.2e} on 1e3 samples")


def test_criterion_4_unforced_fixed_points():
    fam = radial(4.0)
    att = pullback_attractor(fam, 0.0, RHO_PI, 64, 200, CFG)
    rep = pushforward_repeller(fam, 0.0, RHO_PI, 64, 200, CFG)
    a_dev = float(np.max(np.abs(att.values - 1.0)))
    r_dev = float(np.max(np.abs(rep.values + 1.0)))
    assert a_dev <= 1e-6 and r_dev <= 1e-6
    la = lyapunov_of_graph(fam, 0.0, RHO_PI, att, CFG).flow_scale
    lr = lyapunov_of_graph(fam, 0.0, RHO_PI, rep, CFG).flow_scale
    assert abs(la + 8.0) <= 0.005 * 8.0
    assert abs(lr - 8.0) <= 0.005 * 8.0
    report(4, f"graphs within {max(a_dev, r_dev):.1e}; lambda = {la:.6f}/{lr:.6f}")


def test_criterion_5_lyapunov_relation():
    fam = radial(4.0)
    worst = 0.0
    for beta in (0.02, 0.05, 0.1):
        att = pullback_attractor(fam, beta, RHO_PI, 1024, 500, CFG)
        flow_l, map_l, resid = lyapunov_relation_check(fam, beta, RHO_PI, att, CFG,
                                                       n_lift=32)
        worst = max(worst, resid)
    assert worst <= 1e-5
    report(5, f"three forced graphs, worst relation residual {worst:.2e}")


def test_criterion_6_oracle_bifurcation():
    fam = AutonomousRiccati(a2=-1.0, a0=1.0, beta_slope=-2.0)
    rho = RotationVector([GOLDEN, 1.0])
    t0 = time.perf_counter()
    trace = locate_beta_c(fam, rho, (0.0, 1.0), 16, 1e-6, CFG)
    result = classify(fam, rho, trace.beta_c, 16, CFG, bracket_scale=1.0,
                      tol_beta=1e-6)
    elapsed = time.perf_counter() - t0
    assert abs(trace.beta_c - 0.5) <= 1e-6
    assert result.verdict == "Smooth"
    assert elapsed < 10.0
    report(6, f"beta_c = {trace.beta_c:.8f}, Smooth, {elapsed:.1f}s")


def test_criterion_7a_figure_regime_graphs(fig_family, fig_graphs):
    att, rep = fig_graphs
    assert att.converged and rep.converged
    from snaflow.graphs import lift_graph

    lift_att = lift_graph(fig_family, FIG_BETA, RHO_PI, att, 256, FIG_CFG)
    lift_rep = lift_graph(fig_family, FIG_BETA, RHO_PI, rep, 256, FIG_CFG)
    assert lift_att.values.shape == (256, 256)
    assert lift_rep.values.shape == (256, 256)
    la = lyapunov_of_graph(fig_family, FIG_BETA, RHO_PI, att, FIG_CFG,
                           defect_tol=max(1e-6, 2 * att.defect)).flow_scale
    lr = lyapunov_of_graph(fig_family, FIG_BETA, RHO_PI, rep, FIG_CFG,
                           defect_tol=max(1e-6, 2 * rep.defect)).flow_scale
    assert la < 0.0 < lr
    gap = att.values - rep.values
    gap_min, gap_median = float(gap.min()), float(np.median(gap))
    assert gap_min <= 1e-2
    assert gap_median >= 0.1
    report("7a", f"lambda = {la:.3f}/{lr:.3f}, gap_min = {gap_min:.2e}, "
                 f"gap_median = {gap_median:.3f} on the 256^2 section-lift grid")


def test_criterion_7b_figure_regime_bracket(fig_trace):
    assert 175.5 <= fig_trace.beta_c <= 176.5
    assert fig_trace.predicate_monotone
    report("7b", f"beta_c = {fig_trace.beta_c:.5f} within [175.5, 176.5]")


def test_criterion_7c_figure_regime_classification(fig_classification):
    assert fig_classification.verdict == "NonSmoothSignature"
    fin = fig_classification.rungs[-1]
    report("7c", f"NonSmoothSignature (gap ratio {fin.gap_ratio:.1f}, "
                 f"lift boxdim {fig_classification.boxdim_slope:.3f}, "
                 f"lambda {fin.lambda_attractor:.2f})")


def test_criterion_8_fractal_calibration(fig_classification):
    rng = np.random.default_rng(80)
    seg = np.stack([rng.random(100_000), np.zeros(100_000)], axis=1)
    seg_slope = box_count(seg).slope
    assert abs(seg_slope - 1.0) <= 0.05
    square = rng.random((100_000, 2))
    sq_slope = box_count(square, epsilons=default_epsilons(9)).slope
    assert abs(sq_slope - 2.0) <= 0.05
    xs = [0.0]
    for _ in range(12):
        xs = [x / 3.0 for x in xs] + [2.0 / 3.0 + x / 3.0 for x in xs]
    cantor_slope = box_count(np.array(sorted(set(xs)))[:, None]).slope
    assert abs(cantor_slope - math.log(2.0) / math.log(3.0)) <= 0.02

    # near-critical flow-lifted attractor at beta_c - 1e-3 * bracket scale:
    # the classification's finest rung is exactly that parameter
    near = fig_classification.boxdim_slope
    assert fig_classification.rungs[-1].epsilon == pytest.approx(
        1e-3 * (FIG_RANGE[1] - FIG_RANGE[0])
    )
    assert near > 1.0 + 0.3
    report(8, f"segment {seg_slope:.3f}, square {sq_slope:.3f}, "
              f"cantor {cantor_slope:.4f}, near-critical lift {near:.3f} > 1.3")


B6_RHO = RotationVector([GOLDEN * 0.25, 0.25])
B6_CENTER = [0.3, 0.65]


def test_criterion_9_audit_suite():
    constants = compute_constants(6.0, 0.2, 0.05, 0.012, 0.28, B6_RHO, B6_CENTER)
    fam = RadialLogistic(6.0, BumpProfile(0.28), B6_CENTER)
    rep = run_audit(fam, B6_RHO, constants, beta_grid=[0.0, 0.3, 0.6, 0.78],
                    grid_n=256, sample_n=400, cfg=CFG, seed=0)
    ids = [e.id for e in rep.entries]
    assert ids == [f"A{i}" for i in range(1, 17)]

    # exact passes
    assert rep.entry("A4").status == "pass"
    assert rep.entry("A4").measured["max_excess_top"] <= 0.0
    a6 = rep.entry("A6")
    assert a6.status == "pass" and a6.measured["nested_along_beta_grid"]
    a16 = rep.entry("A16")
    assert a16.status == "pass" and a16.measured["max_abs"] == 0.0

    # every other entry carries finite numeric evidence and a witness
    exact_ids = {"A4", "A6", "A16"}
    for e in rep.entries:
        if e.id in exact_ids:
            continue
        floats = [v for v in e.measured.values() if isinstance(v, float)]
        assert floats and all(math.isfinite(v) for v in floats), e.id
        assert e.witness is not None, e.id

    # witness reproducibility on the derivative channels
    channel_map = {"log_dx": "log_dx", "dtheta": "dtheta", "dtheta2": "dtheta2",
                   "dxx": "dxx", "dtheta_dx": "dtheta_dx", "x_next": "x_next"}
    checked = 0
    for e in rep.entries:
        w = e.witness
        if w is None or w["channel"] not in channel_map or not math.isfinite(w["value"]):
            continue
        ev = return_map(fam, w["beta"], B6_RHO, w["theta"], w["x"], CFG)
        if ev.escaped:
            continue
        got = getattr(ev, channel_map[w["channel"]])
        assert abs(abs(got) - abs(w["value"])) <= 1e-8 * max(1.0, abs(w["value"])), e.id
        checked += 1
    assert checked >= 6

    # gate: every inequality computed, kappa flagged unknown
    gate = rep.gate
    assert gate.kappa == "UNKNOWN" and gate.alpha0 == "UNKNOWN"
    for cond in (gate.alpha_e_condition, gate.alpha_u_condition, gate.i0_condition):
        assert "ok" in cond
    assert math.isfinite(gate.nu_log_margin)
    report(9, f"16 entries, {checked} witnesses reproduced, gate margins finite")


def test_criterion_10_determinism(tmp_path):
    cfg = {
        "seed": 0,
        "grid_n": 256,
        "lift_grid": 256,
        "n_iter": 8000,
        "integrator": {"escape": [-25.0, 25.0]},
        "out_dir": str(tmp_path / "fig_out"),
    }
    path = tmp_path / "fig.json"
    path.write_text(json.dumps(cfg))
    cmd = [sys.executable, "-m", "snaflow.cli", "figure1", "--config", str(path)]
    r1 = subprocess.run(cmd, capture_output=True, text=True)
    assert r1.returncode == 0, r1.stderr
    first = {}
    out = tmp_path / "fig_out"
    for f in sorted(out.iterdir()):
        first[f.name] = f.read_bytes()
    r2 = subprocess.run(cmd, capture_output=True, text=True)
    assert r2.returncode == 0, r2.stderr
    for f in sorted(out.iterdir()):
        assert f.read_bytes() == first[f.name], f.name
    report(10, f"{len(first)} figure-regime artifacts byte-identical across runs")

"""Workload configs (made from the seed) and their correctness checks.

Each workload is one reference config from ROADMAP, scaled so that one CLI
invocation fits a benchmark run; README.md gives the scaling and why. A check
reads the artifacts of one invocation and compares them with a computation
made apart from snaflow (``reference``) or with a property the method must
have. It never compares with a stored copy of earlier output. The seed enters
the config as ``seed``: the audit's low-discrepancy samples and the starts of
the boxdim cloud's orbits use it. It also picks the sample nodes of the checks.

A check raises ``CheckFailed`` when an output is wrong. A fault of the program
that shows on every seed is returned under ``"faults"`` instead: it fails every
operation of the run and leaves the run correct.
"""
from __future__ import annotations

import json
import math
import os

import numpy as np

from reference import (
    GOLDEN,
    Cos11Field,
    RadialField,
    flow,
    periodic_interp,
    require,
    scatter_resample,
)

FIGURE_RHO = [GOLDEN, math.pi]
FIGURE_BETA = 176.01538
FIGURE_GRID = 96
AUDIT_RHO = [GOLDEN * 0.25, 0.25]
AUDIT_CENTER = [0.3, 0.65]


def config_seed(seed: int) -> int:
    return seed % 2**31


# ------------------------------------------------------------------ figure1


def figure1_config(seed: int) -> dict:
    # with lift_grid = 2 grid_n every other node of each lift's phase 0 is a
    # section node, where the section graph is reproduced exactly
    return {
        "seed": config_seed(seed),
        "family": {"kind": "cos11", "b": 100.0},
        "rho": FIGURE_RHO,
        "beta": FIGURE_BETA,
        "grid_n": FIGURE_GRID,
        "lift_grid": 2 * FIGURE_GRID,
        "n_iter": 8000,
        "integrator": {"escape": [-25.0, 25.0]},
    }


def _read_csv(path: str) -> np.ndarray:
    with open(path) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return np.loadtxt(lines[1:], delimiter=",", ndmin=2)


def _read_lift(path: str, n: int) -> np.ndarray:
    rows = _read_csv(path)
    require(rows.shape == (n * n, 3), f"{path}: expected {n * n} rows of 3 columns")
    ij = np.round(rows[:, :2] * n).astype(int)
    require(np.array_equal(ij[:, 0], np.repeat(np.arange(n), n))
            and np.array_equal(ij[:, 1], np.tile(np.arange(n), n)),
            f"{path}: theta columns are not the {n}x{n} grid")
    return rows[:, 2].reshape(n, n)


def check_figure1(out: str, cfg: dict, seed: int) -> dict:
    n, m = cfg["lift_grid"], cfg["grid_n"]
    beta, rho = cfg["beta"], np.array(cfg["rho"])
    T = 1.0 / rho[1]
    omega = rho[0] / rho[1]
    field = Cos11Field(cfg["family"]["b"])
    att_lift = _read_lift(os.path.join(out, "attractor_lift.csv"), n)
    rep_lift = _read_lift(os.path.join(out, "repeller_lift.csv"), n)
    att, rep = att_lift[::2, 0], rep_lift[::2, 0]   # the section graphs
    gap = att - rep
    require(float(np.median(gap)) >= 0.1, f"gap_median {np.median(gap):.3g} < 0.1")
    require(float(gap.min()) <= 1e-2, f"gap_min {gap.min():.3g} > 1e-2")

    # lanes: one forward return from each section graph (with log dx), one
    # backward return from the repeller, and lifts at seeded (node, phase)
    # samples: attractors flow forward from the previous crossing, repellers
    # backward from the next one, both from phase 0 interpolated linearly
    sec = np.arange(m) / m
    rng = np.random.default_rng(seed)
    lane_i = rng.integers(0, n, size=(2, 48))
    lane_k = rng.integers(1, n, size=(2, 48))
    t_k = lane_k * T / n
    start_att = lane_i[0] / n - t_k[0] * rho[0]
    start_rep = lane_i[1] / n + (T - t_k[1]) * rho[0]
    theta = np.concatenate([sec, sec, sec, start_att, start_rep])
    x0 = np.concatenate([att, rep, rep, periodic_interp(att_lift[:, 0], start_att),
                         periodic_interp(rep_lift[:, 0], start_rep)])
    tau = np.concatenate([np.full(2 * m, T), np.full(m, -T), t_k[0], -(T - t_k[1])])
    base = np.stack([theta, np.zeros_like(theta)], axis=1)
    x1, log_dx = flow(field, beta, rho, base, x0, tau, with_log_dx=True)

    # fixed points of one return followed by the scatter resample
    res_att = float(np.max(np.abs(scatter_resample(x1[:m], sec + omega, m) - att)))
    res_rep = float(np.max(np.abs(scatter_resample(x1[2 * m:3 * m], sec - omega, m) - rep)))
    require(res_att <= 1e-8, f"attractor is no fixed point of the reference return: {res_att:.3g}")
    require(res_rep <= 1e-8, f"repeller is no fixed point of the reference return: {res_rep:.3g}")

    lam_att = float(np.mean(log_dx[:m])) / T
    lam_rep = float(np.mean(log_dx[m:2 * m])) / T
    require(lam_att < 0.0 < lam_rep, f"exponent signs wrong: {lam_att:.4g}, {lam_rep:.4g}")

    lifted = np.concatenate([att_lift[lane_i[0], lane_k[0]], rep_lift[lane_i[1], lane_k[1]]])
    lift_err = float(np.max(np.abs(lifted - x1[3 * m:])))
    require(lift_err <= 1e-8, f"lift differs from the reference flow by {lift_err:.3g}")

    for pos in (0.0, 1.0 / 3.0, 2.0 / 3.0):
        i = int(round(pos * n)) % n
        tag = f"{pos:.4f}".replace(".", "p")
        rows = _read_csv(os.path.join(out, f"slice_theta1_{tag}.csv"))
        require(np.array_equal(rows[:, 1], att_lift[i]) and np.array_equal(rows[:, 2], rep_lift[i]),
                f"slice {tag} disagrees with the lifts")
    return {"gap_min": float(gap.min()), "gap_median": float(np.median(gap)),
            "lambda_attractor": lam_att, "lambda_repeller": lam_rep,
            "fixed_point_residual": max(res_att, res_rep), "lift_error": lift_err}


# ------------------------------------------------------------------ bifurcate


def bifurcate_config(seed: int) -> dict:
    return {
        "seed": config_seed(seed),
        "family": {"kind": "cos11", "b": 100.0},
        "rho": FIGURE_RHO,
        "beta_range": [170.0, 180.0],
        "tol_beta": 0.16,
        "grid_n": FIGURE_GRID,
        "integrator": {"escape": [-25.0, 25.0]},
    }


def check_bifurcate(out: str, cfg: dict, seed: int) -> dict:
    with open(os.path.join(out, "trace.json")) as fh:
        doc = json.load(fh)
    beta_c, tol = doc["beta_c"], cfg["tol_beta"]
    require(175.5 <= beta_c <= 176.5, f"beta_c {beta_c} outside [175.5, 176.5]")

    brackets = doc["brackets"]
    require(brackets[0] == cfg["beta_range"], "first bracket is not the beta range")
    for (lo0, hi0), (lo1, hi1) in zip(brackets, brackets[1:]):
        require(lo0 <= lo1 < hi1 <= hi0 and math.isclose(hi1 - lo1, (hi0 - lo0) / 2, rel_tol=1e-12),
                f"bracket [{lo1}, {hi1}] does not halve [{lo0}, {hi0}]")
    lo, hi = brackets[-1]
    require(hi - lo <= tol, f"final bracket {hi - lo} wider than tol_beta {tol}")
    require(beta_c == 0.5 * (lo + hi), "beta_c is not the final bracket midpoint")

    records = sorted(doc["records"], key=lambda r: r["beta"])
    exists = [r["graphs_exist"] for r in records]
    monotone = all(a or not b for a, b in zip(exists, exists[1:]))
    require(monotone and doc["predicate_monotone"], "existence predicate is not monotone in beta")
    by_beta = {r["beta"]: r["graphs_exist"] for r in records}
    require(by_beta.get(lo) is True and by_beta.get(hi) is False,
            "final bracket endpoints do not straddle the predicate")
    for r in records:
        if r["graphs_exist"]:
            require(r["gap_median"] > 0.0, f"beta {r['beta']}: attractor below repeller")
            require(r["lambda_attractor"] < 0.0 < r["lambda_repeller"],
                    f"beta {r['beta']}: exponent signs wrong")
    return {"beta_c": beta_c, "betas": len(records)}


# ------------------------------------------------------------------ boxdim

BOXDIM_POWERS = [2, 8]     # box sides 1/4 .. 1/256; the fit uses 1/16 .. 1/64


def boxdim_config(seed: int) -> dict:
    return {
        "seed": config_seed(seed),
        "family": {"kind": "cos11", "b": 100.0},
        "rho": FIGURE_RHO,
        "beta": FIGURE_BETA,
        "grid_n": FIGURE_GRID,
        "integrator": {"escape": [-25.0, 25.0]},
        "boxdim": {"target": "attractor", "n_points": 8192,
                   "epsilons_pow": BOXDIM_POWERS, "normalize_fibre": True},
    }


def _box_count_calibration(seed: int) -> dict:
    """snaflow's box_count on sets of known dimension: a segment (1), a square
    (2) and the middle-thirds Cantor set (log 2 / log 3)."""
    from snaflow.fractal import box_count, default_epsilons

    rng = np.random.default_rng(seed)
    n = 4096   # one point in each of n equal steps along the segment
    t = (np.arange(n) + rng.random(n)) / n
    segment = np.stack([t, 0.2 + 0.5 * t], axis=1)
    m = 256    # one point in each of m x m equal cells of the square
    i, j = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
    square = np.stack([(i.ravel() + rng.random(m * m)) / m,
                       (j.ravel() + rng.random(m * m)) / m], axis=1)
    depth = 14  # left endpoints of the 2^14 intervals of depth 14, 3^-14 < 2^-15
    digits = (np.arange(2**depth)[:, None] >> np.arange(depth - 1, -1, -1)) & 1
    cantor = ((2.0 * digits) @ (3.0 ** -np.arange(1, depth + 1)))[:, None]
    slopes = {}
    for name, pts, ladder, dim, tol in (
            ("segment", segment, default_epsilons(10, 2), 1.0, 0.01),
            ("square", square, default_epsilons(8, 2), 2.0, 0.01),
            ("cantor", cantor, default_epsilons(15, 3), math.log(2) / math.log(3), 0.02)):
        slopes[name] = box_count(pts, epsilons=ladder).slope
        require(abs(slopes[name] - dim) <= tol,
                f"box_count gives {slopes[name]:.4f} on the {name}, dimension {dim:.4f}")
    return slopes


def check_boxdim(out: str, cfg: dict, seed: int) -> dict:
    with open(os.path.join(out, "boxdim_summary.json")) as fh:
        doc = json.load(fh)
    opts = cfg["boxdim"]
    n = opts["n_points"]
    require(doc["n_points"] == n and doc["target"] == opts["target"],
            "summary names another cloud than the config")
    rows = _read_csv(os.path.join(out, "ladder.csv"))
    eps, counts, local = rows[:, 0], rows[:, 1], rows[:, 2]
    lo_pow, hi_pow = opts["epsilons_pow"]
    require(np.array_equal(eps, 2.0 ** -np.arange(lo_pow, hi_pow + 1.0)),
            "ladder is not the dyadic ladder of the config")
    # the fibre is rescaled into [0, 1] and the graph lies over the whole
    # circle: at least one box per theta column, at most n and at most every
    # box of the unit square (plus the row that holds x = 1)
    cols = 1.0 / eps
    require(np.all(counts >= cols), "fewer boxes than theta columns: the cloud misses a column")
    require(np.all(counts <= np.minimum(n, cols * (cols + 1.0))), "more boxes than can exist")
    # halving the side splits each box into 4
    ratio = counts[1:] / counts[:-1]
    require(np.all((ratio >= 1.0) & (ratio <= 4.0)), "counts do not nest from rung to rung")
    require(np.allclose(local[:-1], np.log2(ratio), rtol=0, atol=1e-12) and np.isnan(local[-1]),
            "local slopes are not the per-octave count ratios")
    lo, hi = doc["fit_window"]
    require((lo, hi) == (2, len(eps) - 2), f"fit window {lo, hi} does not drop two rungs a side")
    fit = float(np.polyfit(-np.log(eps[lo:hi]), np.log(counts[lo:hi]), 1)[0])
    require(abs(fit - doc["slope"]) <= 1e-9, f"slope {doc['slope']} is not the fit {fit}")
    # a graph over the circle has box dimension between 1 and 2
    require(1.0 <= doc["slope"] <= 2.0, f"slope {doc['slope']:.4f} outside [1, 2]")
    return {"slope": doc["slope"], "calibration": _box_count_calibration(seed)}


# ------------------------------------------------------------------ audit


def audit_config(seed: int) -> dict:
    return {
        "seed": config_seed(seed),
        "family": {"kind": "radial_logistic", "b": 6.0, "bump_radius": 0.28,
                   "center": AUDIT_CENTER},
        "rho": AUDIT_RHO,
        "grid_n": 64,
        "integrator": {"rel_tol": 1e-9},
        "audit": {"c": 0.2, "delta1": 0.05, "delta2": 0.012,
                  "beta_grid": [0.0, 0.78], "sample_n": 40},
    }


# five-point central differences with step K: error ~1e-7 relative on the
# steepest audit witnesses, far above the reference integration's roundoff
K = 1e-4
STENCIL = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
D1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12.0 * K)
D2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12.0 * K * K)


def _witness_lanes(w, c, beta_prev):
    """Reference lanes (theta, x, beta, reversed) for one witness, the function
    of their (x_next, log_dx) results that gives the witness value, and its kind."""
    th, x, beta, ch = w["theta"][0], w["x"], w["beta"], w["channel"]
    rev = ch.endswith("_inverse")
    one = [(th, x, beta, rev)]
    along_theta = [(th + K * s, x, beta, rev) for s in STENCIL]
    along_x = [(th, x + K * s, beta, rev) for s in STENCIL]
    X = lambda r: r[0][0]
    images = {
        "x_next": X,
        "x_next-(1+c)": lambda r: X(r) - (1.0 + c),
        "x_next+1": lambda r: X(r) + 1.0,
        "x_next-(1-c)": lambda r: X(r) - (1.0 - c),
        "distance_outside_C": lambda r: max(X(r) - (1.0 + c), (1.0 - c) - X(r)),
        "log_dx": lambda r: r[0][1],
    }
    if ch in images:
        return one, images[ch], "direct"
    if ch == "x_next_increase":
        return one + [(th, x, beta_prev, rev)], lambda r: r[0][0] - r[1][0], "direct"
    xs = lambda r: np.array([v[0] for v in r])
    logs = lambda r: np.array([v[1] for v in r])
    if ch == "dtheta":
        return along_theta, lambda r: float(D1 @ xs(r)), "first"
    if ch == "dtheta2":
        return along_theta, lambda r: float(D2 @ xs(r)), "second"
    # mixed and second x-derivatives: d_v d_x xi = exp(log dx) * d_v log dx
    if ch.startswith("dtheta_dx"):
        return along_theta, lambda r: math.exp(r[2][1]) * float(D1 @ logs(r)), "first"
    if ch.startswith("dxx"):
        return along_x, lambda r: math.exp(r[2][1]) * float(D1 @ logs(r)), "first"
    raise AssertionError(f"witness channel {ch!r} has no reference")


# A7's witness is labelled x_next-(1-c) but holds the image x_next itself. It is
# taken at the grid nodes with beta = 0 and x = 1-c, so it is the same for every
# seed: every audit operation fails on it, and the run stays correct as long as
# all other checks pass.
KNOWN_FAULTS = ("A7",)
TOLERANCE = {"direct": (1e-7, 1e-7), "first": (1e-5, 1e-10), "second": (1e-4, 1e-6)}


def check_audit(out: str, cfg: dict, seed: int) -> dict:
    with open(os.path.join(out, "audit_report.json")) as fh:
        doc = json.load(fh)
    entries = doc["entries"]   # non-finite floats are stored as their repr strings
    require([e["id"] for e in entries] == [f"A{i}" for i in range(1, 17)],
            "entries are not A1..A16 in order")
    for e in entries:
        margin = e["measured"].get("margin_log")
        if margin is not None:
            require((e["status"] == "pass") == (float(margin) > 0.0),
                    f"{e['id']}: status {e['status']} disagrees with margin_log {margin}")
    status = {e["id"]: e["status"] for e in entries}
    for must in ("A4", "A6", "A16"):
        require(status[must] == "pass", f"{must} does not pass")
    gate = doc["gate"]
    gate_numbers = [gate["nu_log_margin"], gate["nu_log_positive_term"],
                    gate["nu_log_negative_term"], gate["log_alpha"], gate["exponent_q"]]
    gate_numbers += [gate[k][side] for k in ("alpha_e_condition", "alpha_u_condition")
                     for side in gate[k] if side != "ok"]
    require(all(math.isfinite(float(v)) for v in gate_numbers), "a gate margin is not finite")

    fam = cfg["family"]
    field = RadialField(fam["b"], fam["bump_radius"], fam["center"])
    rho = np.array(cfg["rho"])
    T = 1.0 / rho[1]
    c = cfg["audit"]["c"]
    betas = sorted(cfg["audit"]["beta_grid"])
    escape_low = -10.0   # the radial family's default escape window
    plans, lanes = [], []
    for e in entries:
        w = e["witness"]
        if w is None or not math.isfinite(float(w["value"])):
            continue
        if w["channel"] == "x_next" and float(w["value"]) <= escape_low + 1e-9:
            continue  # escaped below the window: no image to reproduce
        prev = max([b for b in betas if b < w["beta"]], default=w["beta"])
        wl, fn, kind = _witness_lanes(w, c, prev)
        plans.append((e["id"], w, fn, kind, len(lanes), len(wl)))
        lanes += wl
    require(len(plans) >= 6, f"only {len(plans)} witnesses to reproduce")
    th, xs, bs, rev = (np.array(v, dtype=float) for v in zip(*lanes))
    base = np.stack([th, np.zeros_like(th)], axis=1)
    x1, log_dx = flow(field, bs, rho, base, xs, np.where(rev > 0, -T, T), with_log_dx=True)
    worst, faults = 0.0, []
    for id_, w, fn, kind, at, k in plans:
        ref = fn([(x1[j], log_dx[j]) for j in range(at, at + k)])
        value = float(w["value"])
        rtol, atol = TOLERANCE[kind]
        # direct witnesses are signed; derivative witnesses are stored as magnitudes
        err = abs(ref - value) if kind == "direct" else abs(abs(ref) - abs(value))
        message = f"{id_} witness {w['channel']}: reference {ref:.10g}, reported {value:.10g}"
        if id_ in KNOWN_FAULTS and err > atol + rtol * abs(value):
            faults.append(message)
            continue
        require(err <= atol + rtol * abs(value), message)
        worst = max(worst, err / (atol + rtol * abs(value)))
    return {"witnesses": len(plans), "worst_error_over_tolerance": worst, "faults": faults}


WORKLOADS = {
    "figure1": ("figure1", figure1_config, check_figure1),
    "bifurcate": ("bifurcate", bifurcate_config, check_bifurcate),
    "boxdim": ("boxdim", boxdim_config, check_boxdim),
    "audit": ("audit", audit_config, check_audit),
}

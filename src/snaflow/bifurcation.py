"""Saddle-node location by bisection, boundary parameters, and classification.

The bisection predicate is existence of the invariant-graph pair
(graphs.graph_pair): both pullbacks stay inside the section, with no ordering
gate, since near the collision the measured graphs may interlace. Escape of
either pullback certifies the no-graph alternative, so the predicate matches
the dichotomy the collision theorem provides. Near the critical parameter
convergence slows like exp(-|lambda| k), so per-beta iteration caps scale
with the most recent attractor exponent.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fields import ForcedField, RadialLogistic
from .flow import FlowEscape, IntegratorConfig
from .fractal import box_count, default_epsilons, graph_point_cloud
from .graphs import Escaped, GraphSample, graph_pair, lyapunov_of_graph
from .section import _grid_nodes, _merged_returns
from .torus import RotationVector

__all__ = [
    "BifurcationError",
    "BetaRecord",
    "BisectionTrace",
    "BetaBounds",
    "ClassifyThresholds",
    "ClassifyRung",
    "BifurcationClassification",
    "locate_beta_c",
    "estimate_beta_bounds",
    "classify",
]


SWEEP_CAP = 5_000_000   # largest per-pullback sweep budget of the bisection
CLOUD_POINTS = 100_000  # points of the lifted attractor cloud that classify box-counts


class BifurcationError(RuntimeError):
    pass


@dataclass
class BetaRecord:
    beta: float
    graphs_exist: bool
    gap_min: float | None = None
    gap_median: float | None = None
    lambda_attractor: float | None = None   # flow scale
    lambda_repeller: float | None = None
    attractor_iterations: int | None = None
    repeller_iterations: int | None = None
    escaped_role: str | None = None
    marginal: bool = False                   # bounded but not converged within n_iter


@dataclass
class BisectionTrace:
    brackets: list
    records: list
    beta_c: float
    tol: float
    predicate_monotone: bool


@dataclass
class BetaBounds:
    beta_minus: float
    beta_plus: float
    minus_fired: bool
    plus_fired: bool
    c: float
    tol: float


def _graph_lambda(family, beta, rho_v, graph: GraphSample, cfg) -> float:
    """Flow-scale exponent of a (possibly loosely converged) graph; no defect gate."""
    try:
        return lyapunov_of_graph(family, beta, rho_v, graph, cfg, defect_tol=math.inf).flow_scale
    except FlowEscape:
        return math.nan


def _predicate(family, beta, rho_v, grid_n, n_iter, cfg) -> BetaRecord:
    """Existence of the graph pair at one parameter value.

    Escape of either pullback certifies non-existence. A pullback that stays
    bounded but makes n_iter sweeps without one that changes the graph by
    less than graphs.STOP_TOL (algebraic slowdown at the critical parameter
    itself) is counted as existing, flagged marginal: the monotone bounded
    sweep converges even when it does not settle within the iteration budget.
    """
    pair = graph_pair(family, beta, rho_v, grid_n, n_iter, cfg)
    if isinstance(pair, Escaped):
        return BetaRecord(beta, False, escaped_role=pair.role)
    att, rep = pair.attractor, pair.repeller
    return BetaRecord(
        beta, True,
        gap_min=pair.gap_min,
        gap_median=pair.gap_median,
        lambda_attractor=_graph_lambda(family, beta, rho_v, att, cfg),
        lambda_repeller=_graph_lambda(family, beta, rho_v, rep, cfg),
        attractor_iterations=att.iterations_used,
        repeller_iterations=rep.iterations_used,
        marginal=not pair.converged,
    )


def locate_beta_c(family: ForcedField, rho, beta_range, grid_n: int, tol_beta: float,
                  cfg: IntegratorConfig, n_iter_base: int = 2000) -> BisectionTrace:
    """Bisect the existence predicate down to a bracket of width tol_beta.

    Requires graphs at the low end of beta_range and none at the high end.
    The returned trace records every sampled beta with its gap statistics and
    graph exponents; beta_c is the final bracket midpoint. Each pullback's
    sweep budget is 60 / |lambda_map| of the latest existing attractor, at
    least n_iter_base and at most SWEEP_CAP.
    """
    rho_v = rho if isinstance(rho, RotationVector) else RotationVector(rho)
    lo, hi = float(beta_range[0]), float(beta_range[1])
    if not lo < hi:
        raise ValueError("beta_range must be increasing")
    if tol_beta <= 0.0:
        raise ValueError("tol_beta must be positive")

    records = []
    n_iter = n_iter_base

    def exists(beta):
        nonlocal n_iter
        rec = _predicate(family, beta, rho_v, grid_n, n_iter, cfg)
        records.append(rec)
        if rec.graphs_exist and rec.lambda_attractor is not None:
            lam_map = abs(rec.lambda_attractor) / rho_v.rho_D
            if lam_map > 0.0:
                n_iter = int(min(SWEEP_CAP, max(n_iter_base, 60.0 / lam_map)))
        return rec.graphs_exist

    if not exists(lo):
        raise BifurcationError(f"no invariant graphs at the low end beta={lo}")
    if exists(hi):
        raise BifurcationError(f"invariant graphs persist at the high end beta={hi}")
    history = _bisect(lambda mids, _: [exists(float(mids[0]))], [lo], [hi], tol_beta)
    brackets = [(float(a), float(b)) for a, b in history[:, 0]]

    # monotone: in beta order, no existing record follows a non-existing one
    exist = [r.graphs_exist for r in sorted(records, key=lambda r: r.beta)]
    return BisectionTrace(
        brackets=brackets,
        records=records,
        beta_c=0.5 * sum(brackets[-1]),
        tol=tol_beta,
        predicate_monotone=exist == sorted(exist, reverse=True),
    )


def _section_min_images(family, betas, x_starts, rho_v, grid_n, cfg) -> np.ndarray:
    """min over grid nodes theta of xi~_beta,theta(x_start), one per (beta, x_start) pair.

    All pairs share one return, each on its own grid_n^d lanes at its own
    beta. An escape below the window counts as -inf, one above as +inf.
    """
    d = rho_v.D - 1
    nodes = _grid_nodes((grid_n,) * d, d)
    groups = [(beta, nodes, np.full(len(nodes), x)) for beta, x in zip(betas, x_starts)]
    mins = []
    for y, esc in _merged_returns(family, rho_v, cfg, groups, "x"):
        vals = y[0].copy()
        vals[esc] = np.where(vals[esc] <= cfg.escape_low + 1e-9, -math.inf, math.inf)
        mins.append(vals.min())
    return np.array(mins)


def estimate_beta_bounds(family: RadialLogistic, rho, grid_n: int,
                         cfg: IntegratorConfig, c: float,
                         tol_beta: float = 1e-4) -> BetaBounds:
    """Boundary parameters of the critical window by bisection on theta grids.

    beta_minus: smallest beta at which some fibre map sends 1-c into the
    expanding strip E = [-1, -1 + exp(-b/(2 rho_D))].
    beta_plus: largest beta at which every fibre map keeps 1+c above -1.
    When a predicate never fires inside the family's beta range the matching
    endpoint is returned with its fired flag cleared.

    The two bisections run in lockstep on per-lane beta: one return holds
    both predicates at both ends of the range, then each round is one return
    holding both midpoints. That is at most 1 + ceil(log2(range / tol_beta))
    returns, where two separate bisections would make about twice as many.
    """
    if not isinstance(family, RadialLogistic):
        raise TypeError("beta bounds are defined for the radial-bump quadratic family")
    if not 0.0 < c < 0.25:
        raise ValueError("c must lie in (0, 1/4)")
    rho_v = rho if isinstance(rho, RotationVector) else RotationVector(rho)
    e_top = -1.0 + math.exp(-family.b / (2.0 * rho_v.rho_D))
    lo, hi = family.beta_range
    # bisection 0 (beta_minus) holds while no map sends 1-c into E; bisection 1
    # (beta_plus) holds while every map keeps 1+c above -1
    starts = np.array([1.0 - c, 1.0 + c])

    def holds(betas, which):
        img = _section_min_images(family, betas, starts[which], rho_v, grid_n, cfg)
        return np.where(which == 0, img > e_top, img >= -1.0)

    ends = holds(np.array([lo, lo, hi, hi]), np.array([0, 1, 0, 1]))
    holds_lo, holds_hi = ends[:2], ends[2:]
    # the switch lies inside the range only where the predicate flips across it
    inside = np.flatnonzero(holds_lo & ~holds_hi)
    history = _bisect(lambda mids, idx: holds(mids, inside[idx]),
                      np.full(inside.size, lo), np.full(inside.size, hi), tol_beta)
    found = dict(zip(inside.tolist(), 0.5 * history[-1].sum(axis=1)))

    def bound(which, fired_below):
        if which in found:
            return float(found[which]), True
        if not holds_lo[which]:
            return lo, fired_below   # already switched at the low end
        return hi, False             # never switches inside the range

    beta_minus, minus_fired = bound(0, True)
    beta_plus, plus_fired = bound(1, False)
    return BetaBounds(beta_minus, beta_plus, minus_fired, plus_fired, c, tol_beta)


def _bisect(holds, lo, hi, tol) -> np.ndarray:
    """Halve brackets [lo_i, hi_i], where holds at lo_i and not at hi_i, to width tol.

    The brackets halve in lockstep: each round calls ``holds(mids, idx)`` once
    for the open brackets ``idx`` at their midpoints ``mids``, so a caller
    that evaluates several beta in one batch pays one batch per round. A
    bracket closes at width tol, or early once its midpoint no longer splits
    it in floats. Returns the brackets after every round, shape
    (rounds + 1, k, 2); the last ones straddle the switches.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    history = [np.stack([lo, hi], axis=1)]
    while True:
        mid = 0.5 * (lo + hi)
        idx = np.flatnonzero((hi - lo > tol) & (mid > lo) & (mid < hi))
        if idx.size == 0:
            return np.array(history)
        ok = np.asarray(holds(mid[idx], idx), dtype=bool)
        lo[idx] = np.where(ok, mid[idx], lo[idx])
        hi[idx] = np.where(ok, hi[idx], mid[idx])
        history.append(np.stack([lo, hi], axis=1))


def _normalize_fibre(points: np.ndarray) -> np.ndarray:
    """Rescale the fibre coordinate into [0, 1]; affine, dimension-preserving."""
    out = points.copy()
    lo = out[:, -1].min()
    hi = out[:, -1].max()
    out[:, -1] = (out[:, -1] - lo) / max(hi - lo, 1e-12)
    return out


@dataclass(frozen=True)
class ClassifyThresholds:
    """Numerical signature thresholds; a signature, not a proof."""

    gap_ratio_min: float = 10.0
    boxdim_excess: float = 0.3
    lambda_frac: float = 0.05
    smooth_gap_ratio_max: float = 2.0


@dataclass
class ClassifyRung:
    epsilon: float
    beta: float
    gap_min: float
    gap_median: float
    gap_ratio: float
    lambda_attractor: float


@dataclass
class BifurcationClassification:
    verdict: str                     # "Smooth" | "NonSmoothSignature" | "Inconclusive"
    rungs: list
    boxdim_slope: float
    boxdim_threshold: float
    lambda_reference: float
    thresholds: ClassifyThresholds
    checks: dict = field(default_factory=dict)


def classify(family: ForcedField, rho, beta_c: float, grid_n: int,
             cfg: IntegratorConfig, bracket_scale: float, tol_beta: float,
             thresholds: ClassifyThresholds = ClassifyThresholds(),
             n_iter: int = 200_000, seed: int = 0) -> BifurcationClassification:
    """Classify the collision at beta_c as smooth or non-smooth by signature.

    Evaluates a ladder beta_c - eps with eps in {1e-2, 1e-3, 1e-4} of
    ``bracket_scale`` (rungs finer than the located bracket are dropped).
    The non-smooth signature requires all three: median/min gap ratio at the
    finest rung, box-counting slope of the flow-lifted attractor cloud above
    d + excess, and an attractor exponent bounded away from zero relative to
    the unforced one. The smooth verdict requires a flat gap and a vanishing
    exponent; a critical graph that is merely semi-continuous is
    indistinguishable from a continuous one at grid resolution and is
    reported Smooth.
    """
    rho_v = rho if isinstance(rho, RotationVector) else RotationVector(rho)
    d = rho_v.D - 1
    epsilons_ladder = [bracket_scale * 10.0**-k for k in (2, 3, 4)]
    epsilons_ladder = [e for e in epsilons_ladder if e >= 4.0 * tol_beta]
    if not epsilons_ladder:
        raise BifurcationError("bracket too coarse: every ladder rung is inside it")

    lo_range = family.beta_range[0]
    ref_rec = _predicate(family, lo_range, rho_v, grid_n, n_iter, cfg)
    if not ref_rec.graphs_exist:
        raise BifurcationError("no reference graphs at the low end of the beta range")
    lambda_ref = abs(ref_rec.lambda_attractor)

    rungs = []
    attractor_finest = None
    for eps in epsilons_ladder:
        beta = beta_c - eps
        pair = graph_pair(family, beta, rho_v, grid_n, n_iter, cfg)
        if isinstance(pair, Escaped):
            raise BifurcationError(f"graphs do not exist at ladder point beta={beta}")
        if not pair.converged:
            raise BifurcationError(f"unconverged graphs at ladder point beta={beta}")
        lam = _graph_lambda(family, beta, rho_v, pair.attractor, cfg)
        ratio = pair.gap_median / max(pair.gap_min, 1e-15)
        rungs.append(ClassifyRung(eps, beta, pair.gap_min, pair.gap_median, ratio, lam))
        attractor_finest = pair.attractor

    # dimension evidence on the flow-lifted attractor (the object whose box
    # dimension tends to D + 1 at the collision): a section graph below the
    # collision is still a rectifiable curve and honestly measures ~d, so the
    # d + excess test is meaningful only for the lifted cloud. The fibre
    # coordinate is normalised by its range before counting (affine and hence
    # dimension-preserving; without it a fibre extent of many torus widths
    # saturates any desk-scale sample). Burn-in scales with the rung's
    # contraction rate so the cloud sits on the graph, not on the transient.
    lam_map = abs(rungs[-1].lambda_attractor) / rho_v.rho_D
    burn = int(min(20_000, max(48, 40.0 / max(lam_map, 1e-3))))
    cloud = graph_point_cloud(family, rungs[-1].beta, rho_v, attractor_finest,
                              CLOUD_POINTS, cfg, seed=seed, burn_in=burn, lift=True)
    ladder = box_count(_normalize_fibre(cloud), epsilons=default_epsilons(9))
    boxdim_threshold = d + thresholds.boxdim_excess

    fin = rungs[-1]
    checks = {
        "gap_ratio": fin.gap_ratio >= thresholds.gap_ratio_min,
        "boxdim": ladder.slope >= boxdim_threshold,
        "lambda_away_from_zero": abs(fin.lambda_attractor) >= thresholds.lambda_frac * lambda_ref,
        "gap_ratio_flat": fin.gap_ratio <= thresholds.smooth_gap_ratio_max,
        "lambda_vanishing": abs(fin.lambda_attractor) <= thresholds.lambda_frac * lambda_ref,
    }
    if checks["gap_ratio"] and checks["boxdim"] and checks["lambda_away_from_zero"]:
        verdict = "NonSmoothSignature"
    elif checks["gap_ratio_flat"] and checks["lambda_vanishing"]:
        verdict = "Smooth"
    else:
        verdict = "Inconclusive"
    return BifurcationClassification(
        verdict=verdict,
        rungs=rungs,
        boxdim_slope=ladder.slope,
        boxdim_threshold=boxdim_threshold,
        lambda_reference=lambda_ref,
        thresholds=thresholds,
        checks=checks,
    )

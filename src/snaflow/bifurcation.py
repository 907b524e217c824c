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
from .flow import IntegratorConfig
from .fractal import box_count, default_epsilons, graph_point_cloud
from .graphs import Escaped, graph_pair
from .section import _grid_nodes, _merged_images
from .torus import as_rotation_vector

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
BOUNDS_LEVELS = 4       # bisection rounds per return of estimate_beta_bounds (3 and 4
                        # measured alike on the b = 6 audit, 5 slower)


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


def _predicate(family, beta, rho_v, grid_n, n_iter, cfg) -> BetaRecord:
    """Existence of the graph pair at one parameter value.

    Escape of either pullback certifies non-existence. A pullback that stays
    bounded but makes n_iter sweeps without one that changes the graph by
    less than graphs.STOP_TOL (algebraic slowdown at the critical parameter
    itself) is counted as existing, flagged marginal: the monotone bounded
    sweep converges even when it does not settle within the iteration budget.
    Both exponents are the pair's table exponents (``graph_pair``) on the
    flow scale, times rho_D; no defect gate, and nan for a graph that escaped
    while measured.
    """
    pair = graph_pair(family, beta, rho_v, grid_n, n_iter, cfg)
    if isinstance(pair, Escaped):
        return BetaRecord(beta, False, escaped_role=pair.role)
    att, rep = pair.attractor, pair.repeller
    lam_att, lam_rep = (lam * rho_v.rho_D for lam in pair.lambda_map)
    return BetaRecord(
        beta, True,
        gap_min=pair.gap_min,
        gap_median=pair.gap_median,
        lambda_attractor=lam_att,
        lambda_repeller=lam_rep,
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
    rho_v = as_rotation_vector(rho)
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
    history = _bisect(lambda mids, *_: [exists(float(mids[0]))], [lo], [hi], tol_beta)
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


def estimate_beta_bounds(family: RadialLogistic, rho, grid_n: int,
                         cfg: IntegratorConfig, c: float,
                         tol_beta: float = 1e-4) -> BetaBounds:
    """Boundary parameters of the critical window by bisection on theta grids.

    beta_minus: smallest beta at which some fibre map sends 1-c into the
    expanding strip E = [-1, -1 + exp(-b/(2 rho_D))].
    beta_plus: largest beta at which every fibre map keeps 1+c above -1.
    Both read the least image over the grid, scored by the section's one
    escape rule (``section._merged_images``): a fibre that leaves the escape
    window below has image -inf, so it sends its start into E and below -1;
    one that leaves above has image +inf and does neither. When a predicate
    never fires inside the family's beta range the matching endpoint is
    returned with its fired flag cleared.

    The two bisections run in lockstep on per-lane beta, ``BOUNDS_LEVELS``
    rounds per return (``_bisect``): one return holds both predicates at both
    ends of the range, then each return holds every midpoint the next rounds
    of both bisections could visit. That is at most
    1 + ceil(ceil(log2(range / tol_beta)) / BOUNDS_LEVELS) returns. Each
    node's scored image is non-increasing in beta (the forcing -beta^p scale g
    is <= 0), so a node that passes at a bracket's upper end passes at every
    midpoint below it: a return evaluates each predicate only at the nodes
    that failed at its bracket's current upper end.
    """
    if not isinstance(family, RadialLogistic):
        raise TypeError("beta bounds are defined for the radial-bump quadratic family")
    if not 0.0 < c < 0.25:
        raise ValueError("c must lie in (0, 1/4)")
    rho_v = as_rotation_vector(rho)
    e_top = -1.0 + math.exp(-family.b / (2.0 * rho_v.rho_D))
    lo, hi = family.beta_range
    # predicate 0 (beta_minus) holds while no map sends 1-c into E; predicate 1
    # (beta_plus) holds while every map keeps 1+c above -1
    starts = np.array([1.0 - c, 1.0 + c])
    d = rho_v.D - 1
    nodes = _grid_nodes((grid_n,) * d, d)
    every = np.arange(len(nodes))
    failing = {}  # (predicate, beta) -> the evaluated nodes that fail there

    def holds(betas, which, live):
        # each (beta, predicate) pair's nodes `live`, all in one return
        groups = [(beta, nodes[n], np.full(n.size, starts[w]))
                  for beta, w, n in zip(betas, which, live)]
        ok = []
        for beta, w, n, img in zip(betas, which, live,
                                   _merged_images(family, rho_v, cfg, groups)):
            failing[w, beta] = n[~(img > e_top if w == 0 else img >= -1.0)]
            ok.append(failing[w, beta].size == 0)
        return np.array(ok)

    ends = holds([lo, lo, hi, hi], [0, 1, 0, 1], [every] * 4)
    holds_lo, holds_hi = ends[:2], ends[2:]
    # the switch lies inside the range only where the predicate flips across it
    inside = np.flatnonzero(holds_lo & ~holds_hi)

    def holds_below(mids, idx, tops):
        which = inside[idx].tolist()
        return holds(mids.tolist(), which,
                     [failing[w, top] for w, top in zip(which, tops.tolist())])

    history = _bisect(holds_below, np.full(inside.size, lo), np.full(inside.size, hi),
                      tol_beta, levels=BOUNDS_LEVELS)
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


def _splits(lo, hi, mid, tol):
    """Whether a bracket [lo, hi] with midpoint mid is still bisected."""
    return (hi - lo > tol) & (mid > lo) & (mid < hi)


def _bisect(holds, lo, hi, tol, levels: int = 1) -> np.ndarray:
    """Halve brackets [lo_i, hi_i], where holds at lo_i and not at hi_i, to width tol.

    The brackets halve in lockstep, ``levels`` rounds per call of
    ``holds(mids, idx, tops)``. One call answers every midpoint ``mids`` that
    the next ``levels`` rounds could visit; ``idx`` names each one's bracket
    and ``tops`` that bracket's current upper end. A caller that evaluates
    several beta in one batch thus pays one batch per ``levels`` rounds. Each
    midpoint is formed as the round would form it, ``0.5 * (a + b)`` of its
    sub-bracket, so the rounds then read their answers in turn and the
    brackets are those of ``levels = 1``. A bracket closes at width tol, or
    early once its midpoint no longer splits it in floats. Returns the
    brackets after every round, shape (rounds + 1, k, 2); the last ones
    straddle the switches.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    history = [np.stack([lo, hi], axis=1)]
    while True:
        # the midpoint tree: sub-bracket [a, b] of bracket br at heap position
        # pos splits into [a, mid] at 2 pos (holds is false at mid) and
        # [mid, b] at 2 pos + 1 (holds is true); a closed one is left out
        br, pos, a, b = np.arange(lo.size), np.ones(lo.size, dtype=int), lo, hi
        tree = []
        for _ in range(levels):
            mid = 0.5 * (a + b)
            keep = _splits(a, b, mid, tol)
            br, pos, a, b, mid = br[keep], pos[keep], a[keep], b[keep], mid[keep]
            tree.append((br, pos, mid))
            br, pos = np.concatenate([br, br]), np.concatenate([2 * pos, 2 * pos + 1])
            a, b = np.concatenate([a, mid]), np.concatenate([mid, b])
        idx, pos, mids = (np.concatenate(col) for col in zip(*tree))
        if idx.size == 0:
            return np.array(history)
        ok = np.asarray(holds(mids, idx, hi[idx]), dtype=bool)
        answer = dict(zip(zip(idx.tolist(), pos.tolist()), ok.tolist()))
        # the rounds walk down the tree: at[i] is bracket i's heap position
        at = np.ones(lo.size, dtype=int)
        for _ in range(levels):
            mid = 0.5 * (lo + hi)
            live = np.flatnonzero(_splits(lo, hi, mid, tol))
            if live.size == 0:
                break
            ok = np.array([answer[i, at[i]] for i in live.tolist()])
            lo[live] = np.where(ok, mid[live], lo[live])
            hi[live] = np.where(ok, hi[live], mid[live])
            at[live] = 2 * at[live] + ok
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
    rho_v = as_rotation_vector(rho)
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
        lam = pair.lambda_map[0] * rho_v.rho_D
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

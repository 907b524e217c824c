"""Graph point clouds and their box-counting dimension.

A section cloud samples an invariant graph along ergodic orbits
theta -> theta + omega: orbits seeded on the trapping boundary are carried by
the fibre maps, and a burn-in contracts them onto the graph, so the points
reach structure finer than any grid. On a one-dimensional section each return
applies the Möbius matrices of its S sub-returns (the escape rule of the
pullback), read along the orbit from the certified Fourier table of
``cocycle``, so no trajectory is integrated per return; for d >= 2, or when
no table is certified, each return is one ODE return. A lifted cloud then
flows each section point to its own phase in the return.

Box counting counts occupied boxes of side eps in the max-metric on a dyadic
ladder and fits log N against -log eps by least squares over an interior
scale window. Dyadic epsilons divide the torus evenly, so periodic axes need
no seam handling. Hausdorff dimension is deliberately not estimated (no
reliable estimator at these sample sizes); box counting is the only exponent
reported.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cocycle import tabulate
from .fields import ForcedField
from .flow import FlowEscape, IntegratorConfig, flow_batch
from .graphs import GraphSample, _mobius_sweep
from .section import SectionMap
from .torus import as_rotation_vector, wrap_unit

__all__ = [
    "BoxCountLadder",
    "box_count",
    "default_epsilons",
    "graph_point_cloud",
]

MIN_POINTS = 1_000
LIFT_PHASES = 256   # quantized flow phases of a lifted cloud
FIT_EXCLUDE = 2     # ladder scales the slope fit drops at each end


@dataclass
class BoxCountLadder:
    epsilons: np.ndarray       # decreasing
    counts: np.ndarray
    fit_window: tuple          # (lo, hi) index range used by the fit, half-open
    slope: float
    slope_stderr: float
    local_slopes: np.ndarray   # per-octave log2 N(eps/2)/N(eps)


def default_epsilons(finest_power: int = 12, coarsest_power: int = 3) -> np.ndarray:
    """Dyadic ladder 2^-coarsest .. 2^-finest (d=1 graphs default; lifts use 9)."""
    return 2.0 ** (-np.arange(coarsest_power, finest_power + 1, dtype=float))


def box_count(points, epsilons=None) -> BoxCountLadder:
    """Count occupied eps-boxes of a point cloud in T^k x R (max-metric).

    ``points`` is (n, dim) with torus coordinates already in [0, 1); the last
    coordinate may be unbounded. The fit window drops ``FIT_EXCLUDE`` scales at
    each end of the ladder: the coarsest boxes saturate the ambient space, the
    finest saturate the sample.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("points must be a non-empty (n, dim) array")
    if pts.shape[0] < MIN_POINTS:
        raise ValueError(f"need at least {MIN_POINTS} points, got {pts.shape[0]}")
    if epsilons is None:
        epsilons = default_epsilons()
    eps = np.asarray(epsilons, dtype=float)
    if eps.size < 2 or np.any(eps <= 0.0) or np.any(eps > 0.25):
        raise ValueError("epsilon ladder must lie in (0, 1/4] with at least two scales")
    if np.any(np.diff(eps) >= 0.0):
        raise ValueError("epsilon ladder must be strictly decreasing")
    ratios = eps[:-1] / eps[1:]
    if not np.allclose(ratios, 2.0, rtol=1e-12):
        raise ValueError("epsilon ladder must be geometric with ratio 1/2")

    counts = np.empty(eps.size, dtype=np.int64)
    for i, e in enumerate(eps):
        keys = np.floor(pts / e).astype(np.int64)
        counts[i] = len(np.unique(keys, axis=0))

    log_n = np.log(counts.astype(float))
    x = -np.log(eps)
    lo, hi = FIT_EXCLUDE, eps.size - FIT_EXCLUDE
    if hi - lo < 2:
        raise ValueError("fit window degenerate; supply a longer ladder")
    slope, stderr = _ls_slope(x[lo:hi], log_n[lo:hi])
    local = np.diff(log_n) / np.diff(x)
    return BoxCountLadder(
        epsilons=eps,
        counts=counts,
        fit_window=(lo, hi),
        slope=slope,
        slope_stderr=stderr,
        local_slopes=local,
    )


def _ls_slope(x, y):
    n = x.size
    xm, ym = x.mean(), y.mean()
    sxx = float(np.sum((x - xm) ** 2))
    slope = float(np.sum((x - xm) * (y - ym)) / sxx)
    resid = y - ym - slope * (x - xm)
    if n > 2:
        stderr = math.sqrt(float(np.sum(resid**2)) / (n - 2) / sxx)
    else:
        stderr = math.nan
    return slope, stderr


def graph_point_cloud(family: ForcedField, beta: float, rho, graph: GraphSample,
                      n_points: int, cfg: IntegratorConfig, seed: int = 0,
                      n_orbits: int = 256, burn_in: int = 32,
                      lift: bool = False) -> np.ndarray:
    """Sample (theta, x) along ergodic orbits on an invariant section graph.

    ``n_orbits`` orbits theta -> theta + omega (-omega for a repeller, whose
    fibre maps are the reversed ones) start on the trapping boundary and are
    carried by the Möbius matrices of each return, from ``cocycle.tabulate``
    (by ODE returns where it has no table); burn-in contracts them onto the
    graph, so the points reach structure finer than the grid. Of the graph
    only ``role``, ``d`` and ``converged`` are read, not its values. With
    ``lift`` the section cloud is flowed to LIFT_PHASES stratified phases,
    yielding points on the lifted graph in T^D x R. Returns an
    (n_points, dim) array; an orbit that escapes raises FlowEscape.
    """
    cloud = _section_cloud(family, beta, rho, graph, n_points, cfg, seed,
                           n_orbits, burn_in)
    if lift:
        return _lift_cloud(family, beta, rho, graph.role, cloud, cfg, seed)
    return cloud


def _section_cloud(family, beta, rho, graph: GraphSample, n_points, cfg, seed,
                   n_orbits, burn_in):
    if not graph.converged:
        raise ValueError("point cloud requires a converged graph")
    rho_v = as_rotation_vector(rho)
    reverse = graph.role == "repeller"
    smap = SectionMap(family, beta, rho_v, cfg, reverse=reverse)
    rng = np.random.default_rng(seed)
    theta = wrap_unit(rng.random((n_orbits, graph.d))
                      + np.arange(n_orbits)[:, None] / n_orbits)
    # seed on the trapping boundary: such orbits stay between the boundary and
    # the graph while graphs exist, and burn-in contracts them onto the graph
    lo, hi = family.section_bounds()
    x = np.full(n_orbits, lo if reverse else hi)
    n_steps = burn_in + math.ceil(n_points / n_orbits)
    pts = np.empty((n_orbits * (n_steps - burn_in), graph.d + 1))
    table = tabulate(smap, smap.sub_returns())
    orbit = [None] * n_steps if table is None else table.along_orbit(theta, smap.shift, n_steps)
    k = 0
    for step, pieces in enumerate(orbit):
        if pieces is None:
            res = smap.step(theta, x, channels="x")
            x, escaped = res.y[0], res.escaped
        else:
            x, escaped = _mobius_sweep(pieces, x, cfg)
        if escaped.any():
            raise FlowEscape("orbit escaped while sampling the graph cloud")
        theta = wrap_unit(theta + smap.shift)
        if step >= burn_in:
            pts[k: k + n_orbits, : graph.d] = theta
            pts[k: k + n_orbits, graph.d] = x
            k += n_orbits
    return pts[:n_points]


def _lift_cloud(family, beta, rho, role: str, base_cloud: np.ndarray, cfg, seed):
    """Flow a section cloud to per-point stratified phases u in [0, T).

    Each point carries its own flow time on a fine quantized phase grid
    (otherwise the cloud collapses onto constant-theta_D slabs), and all
    points flow in one ``flow_batch`` call, each to its own end time. The
    return time, the base points and the direction come from the role's
    ``SectionMap``: a repeller cloud flows backward by T - u from the next
    crossing, so the lift runs with the stable direction of its graph. Each
    point is recorded where its flow lands, at base + t rho for its signed
    flow time t. Rows follow the section cloud.
    """
    smap = SectionMap(family, beta, rho, cfg, reverse=role == "repeller")
    n = len(base_cloud)
    T = smap.return_time
    rng = np.random.default_rng(seed + 1)
    buckets = rng.permutation(np.arange(n) % LIFT_PHASES)
    u = (buckets + 0.5) / LIFT_PHASES * T
    base = smap.base_points(base_cloud[:, :smap.d])
    t_final = u - T if smap.reverse else u
    res = flow_batch(family, beta, smap.rho, base, base_cloud[:, smap.d], t_final, cfg,
                     channels="x")
    if res.escaped.any():
        raise FlowEscape("orbit escaped while lifting the graph cloud")
    return np.column_stack([wrap_unit(base + t_final[:, None] * smap.rho.rho), res.y[0]])

"""Invariant graphs on the section: pullbacks, their exponents and their lifts.

The attractor is the pointwise limit of iterating the upper section boundary
backward in base time: x_{k+1}(theta + omega) = xi~(theta, x_k(theta)) from
x_0 = gamma_plus. Monotone fibre maps make the sweep pointwise non-increasing,
so it either converges or some node escapes, in which case no invariant graph
exists in the section at this parameter. The repeller is the same construction
for the reversed flow started on the lower boundary.

Every fibre map is the projective action x -> (P11 x + P12)/(P21 x + P22),
det P = 1, of the trace-free linear system behind the Riccati field (see
``flow``). A pullback therefore integrates the ODE once:
``SectionMap.mobius_table`` tabulates P at every node over
S = ceil(T max ||A||_F / pi) + 1 sub-returns (``SectionMap.sub_returns``), and
every sweep applies those S Möbius maps in sequence (``_mobius_sweep``). A lane
escapes when q = P21 x + P22 <= 0 in some sub-return (its orbit passed through
x = infinity; with (p, q) turning by less than pi per sub-return, at most
once) or when x lies outside the escape window at a sub-return end. A
theta-independent family has the same P at every node. A sweep's image w sits
at theta + omega, off the regular grid, so the new graph is w interpolated at
theta - omega. One multilinear periodic gather (``_gather``) does every
interpolation here: the sweeps, the defects, the lift's regrid and its starts.

The sweeps apply one fixed map, so their changes fall to rounding level once
the pullback converges. The one stop rule is a sweep that changes the graph
by less than STOP_TOL in sup norm; a pullback that makes n_iter sweeps
without one is returned unconverged.

A lift carries a section graph over one return onto a T^D grid. It needs the
pieces of the return at points off the section grid. On a one-dimensional
section it reads them from the certified Fourier table of ``cocycle`` instead
of the node table and integrates no trajectory of its own; for d >= 2, or
when no table is certified, it flows the levels by the ODE.

A Möbius map has log-derivative -2 log q, so a graph's map-scale exponent is
the grid mean of -2 sum_s log q_s over the attractor's forward table at the
graph's values: ``graph_pair`` reads both exponents off that table and
integrates nothing more. ``lyapunov_of_graph`` is the independent ODE
reference, one return with the log-derivative channel
(``section._map_exponent``), as ``graph_defect`` is the ODE reference for the
defect the pullback measures on its table.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .cocycle import tabulate
from .fields import ForcedField
from .flow import FlowEscape, IntegratorConfig, flow_batch
from .section import SectionMap, _grid_nodes, _map_exponent
from .torus import as_rotation_vector, wrap_unit

__all__ = [
    "GraphSample",
    "GraphPair",
    "LiftedGraph",
    "Escaped",
    "LyapunovEstimate",
    "pullback_attractor",
    "pushforward_repeller",
    "graph_pair",
    "make_pair",
    "lyapunov_of_graph",
    "lift_graph",
    "interp_at_shift",
    "resample_shifted_values",
]

STOP_TOL = 1e-12


@dataclass
class GraphSample:
    """Invariant graph values on a regular section grid."""

    values: np.ndarray            # shape (grid_n,) * d
    role: str                     # "attractor" | "repeller"
    defect: float
    iterations_used: int
    converged: bool
    grid_n: int
    beta: float
    sup_change: float             # last sweep's sup-norm change
    # the pullback's (S, 4, grid_n**d) node Möbius table, in its own direction
    table: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def d(self) -> int:
        return self.values.ndim


@dataclass
class Escaped:
    """Pullback aborted: some node's orbit left the escape window."""

    role: str
    beta: float
    iteration: int
    n_escaped: int
    theta_example: np.ndarray


@dataclass
class GraphPair:
    attractor: GraphSample
    repeller: GraphSample
    gap_min: float
    gap_median: float
    gap_max: float
    argmin_theta: np.ndarray
    # map-scale (attractor, repeller) exponents; None unless graph_pair built the pair
    lambda_map: tuple[float, float] | None = None

    @property
    def converged(self) -> bool:
        return self.attractor.converged and self.repeller.converged


@dataclass
class LiftedGraph:
    """Graph values over a full T^D grid; last axis is the flow phase theta_D."""

    values: np.ndarray            # shape (grid_D,) * D
    grid_D: int
    role: str
    beta: float


@dataclass(frozen=True)
class LyapunovEstimate:
    flow_scale: float
    map_scale: float


def _gather(v: np.ndarray, whole, frac) -> np.ndarray:
    """Multilinear interpolation of periodic grid values v at the points whole + frac.

    Points are on the grid's scale (node i of an axis sits at i); per axis, the
    integer parts ``whole`` and fractions ``frac`` in [0, 1) broadcast to the result.
    """
    out = 0.0
    for corner in itertools.product((0, 1), repeat=v.ndim):
        weight = 1.0
        for a, c in enumerate(corner):
            weight = weight * (frac[a] if c else 1.0 - frac[a])
        out = out + weight * v[tuple((whole[a] + c) % v.shape[a] for a, c in enumerate(corner))]
    return out


def _at_shifts(v: np.ndarray, shifts) -> np.ndarray:
    """v interpolated at theta_i + s for each row s of the (m, d) shifts: (m,) + v.shape."""
    scaled = np.reshape(np.asarray(shifts, dtype=float), (-1, v.ndim)).T * v.shape[0]
    scaled = scaled.reshape(scaled.shape + (1,) * v.ndim)
    steps = np.floor(scaled)
    nodes = np.ix_(*(np.arange(n) for n in v.shape))
    return _gather(v, [s + i for s, i in zip(steps.astype(int), nodes)], scaled - steps)


def interp_at_shift(v: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Multilinear interpolation of grid values v at the nodes theta_i + shift."""
    return _at_shifts(v, shift)[0]


def resample_shifted_values(w: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Values w_i attached at theta_i + shift, resampled onto the nodes: w at theta_i - shift."""
    return interp_at_shift(w, -np.asarray(shift, dtype=float))


def _mobius_pieces(table: np.ndarray, x: np.ndarray, cfg: IntegratorConfig):
    """Apply the (S, 4, n) Möbius table to x, yielding (q, image, escaped) per row.

    ``escaped`` accumulates over the rows: a lane escapes when
    q = P21 x + P22 <= 0 in some sub-return, or when x lies outside
    [escape_low, escape_high] at a sub-return end. Callers silence the
    floating-point warnings of escaped lanes.
    """
    escaped = np.zeros(x.shape, dtype=bool)
    for p11, p12, p21, p22 in table:
        q = p21 * x + p22
        x = (p11 * x + p12) / q
        escaped |= (q <= 0.0) | (x < cfg.escape_low) | (x > cfg.escape_high)
        yield q, x, escaped


def _mobius_sweep(table: np.ndarray, x: np.ndarray, cfg: IntegratorConfig):
    """Apply the (S, 4, n) Möbius table to x: (image, escaped) per lane."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _, x, escaped in _mobius_pieces(table, x, cfg):
            pass
    return x, escaped


def _table_exponent(table: np.ndarray, values: np.ndarray, cfg: IntegratorConfig) -> float:
    """Map-scale exponent of a section graph from a forward node table at its values.

    Each row's log-derivative is -2 log q, so log dx over the return is
    -2 sum_s log q_s; this is its grid mean. A node that meets the escape rule
    of ``_mobius_pieces`` gives nan.
    """
    log_q = 0.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for q, _, escaped in _mobius_pieces(table, values.ravel(), cfg):
            log_q = log_q + np.log(q)
    return math.nan if escaped.any() else -2.0 * float(np.mean(log_q))


def _pullback(family: ForcedField, beta: float, rho, grid_n: int, n_iter: int,
              cfg: IntegratorConfig, role: str) -> GraphSample | Escaped:
    """Sweep the grid with the node Möbius table until a sweep changes it by < STOP_TOL.

    The table is integrated once (one ``flow_batch`` call); sweeps and the
    defect, the return at the nodes against ``interp_at_shift``, run on it.
    Escape rule (see the module docstring): q <= 0 in a sub-return, or x
    outside the escape window at a sub-return end. A pullback that makes
    n_iter sweeps without a change below STOP_TOL is returned unconverged.
    """
    if grid_n < 16:
        raise ValueError("grid_n must be at least 16")
    if n_iter < 1:
        raise ValueError("n_iter must be positive")
    reverse = role == "repeller"
    rho_v = as_rotation_vector(rho)
    d = rho_v.D - 1
    smap = SectionMap(family, beta, rho_v, cfg, reverse=reverse)
    lo, hi = family.section_bounds()
    shape = (grid_n,) * d
    nodes = _grid_nodes(shape, d)
    table = smap.mobius_table(nodes)
    v = np.full(shape, lo if reverse else hi, dtype=float)
    for k in range(1, n_iter + 1):
        w, escaped = _mobius_sweep(table, v.ravel(), cfg)
        if escaped.any():
            bad = int(np.argmax(escaped))
            return Escaped(role, beta, k, int(escaped.sum()), nodes[bad])
        v_new = interp_at_shift(w.reshape(shape), -smap.shift)
        delta = float(np.max(np.abs(v_new - v)))
        v = v_new
        if delta < STOP_TOL:
            break
    w, escaped = _mobius_sweep(table, v.ravel(), cfg)
    defect = (math.inf if escaped.any() else
              float(np.max(np.abs(w.reshape(shape) - interp_at_shift(v, smap.shift)))))
    return GraphSample(v, role, defect, k, delta < STOP_TOL, grid_n, beta, delta, table)


def graph_defect(smap: SectionMap, values: np.ndarray) -> float:
    """sup over nodes of |xi~(theta, v(theta)) - v(theta + shift)| by interpolation.

    The ODE reference for the defect that ``_pullback`` measures on its
    Möbius table: the return is one ODE integration (``SectionMap.step``).
    """
    res = smap.step(_grid_nodes(values.shape, values.ndim), values.ravel(), channels="x")
    if res.escaped.any():
        return math.inf
    target = interp_at_shift(values, smap.shift)
    return float(np.max(np.abs(res.y[0].reshape(values.shape) - target)))


def pullback_attractor(family: ForcedField, beta: float, rho, grid_n: int,
                       n_iter: int, cfg: IntegratorConfig) -> GraphSample | Escaped:
    """Attracting graph as the pullback limit from the upper section boundary.

    Returns Escaped as soon as any node leaves the escape window (no invariant
    graph exists in the section then).
    """
    return _pullback(family, beta, rho, grid_n, n_iter, cfg, "attractor")


def pushforward_repeller(family: ForcedField, beta: float, rho, grid_n: int,
                         n_iter: int, cfg: IntegratorConfig) -> GraphSample | Escaped:
    """Repelling graph: pullback of the reversed flow from the lower boundary."""
    return _pullback(family, beta, rho, grid_n, n_iter, cfg, "repeller")


def graph_pair(family: ForcedField, beta: float, rho, grid_n: int, n_iter: int,
               cfg: IntegratorConfig) -> GraphPair | Escaped:
    """Both invariant graphs at one parameter, or the first pullback that escaped.

    The repeller runs only when the attractor stayed in the section. No
    ordering gate is applied: near the collision the measured graphs may
    interlace within their resolution, so callers judge the gap themselves.

    ``lambda_map`` holds both map-scale exponents, read off the attractor's
    forward node table (``_table_exponent``); the repeller's own table runs
    the reversed map. A graph that escapes while measured gets nan.
    """
    att = pullback_attractor(family, beta, rho, grid_n, n_iter, cfg)
    if isinstance(att, Escaped):
        return att
    rep = pushforward_repeller(family, beta, rho, grid_n, n_iter, cfg)
    if isinstance(rep, Escaped):
        return rep
    lambda_map = tuple(_table_exponent(att.table, g.values, cfg) for g in (att, rep))
    return replace(make_pair(att, rep, order_tol=math.inf), lambda_map=lambda_map)


def make_pair(attractor: GraphSample, repeller: GraphSample,
              order_tol: float = 1e-9) -> GraphPair:
    """Pair the two graphs and compute gap statistics.

    The repeller must lie below the attractor up to ``order_tol`` at every
    node; a violation means the inputs are inconsistent.
    """
    if attractor.role != "attractor" or repeller.role != "repeller":
        raise ValueError("role mismatch: expected (attractor, repeller)")
    if attractor.values.shape != repeller.values.shape:
        raise ValueError("graphs live on different grids")
    gap = attractor.values - repeller.values
    if float(gap.min()) < -order_tol:
        raise ValueError(f"ordering violated by {-float(gap.min())}")
    flat_idx = int(np.argmin(gap))
    idx = np.unravel_index(flat_idx, gap.shape)
    theta = np.array(idx, dtype=float) / attractor.values.shape[0]
    return GraphPair(
        attractor=attractor,
        repeller=repeller,
        gap_min=float(gap.min()),
        gap_median=float(np.median(gap)),
        gap_max=float(gap.max()),
        argmin_theta=theta,
    )


def lyapunov_of_graph(family: ForcedField, beta: float, rho, graph: GraphSample,
                      cfg: IntegratorConfig, defect_tol: float = 1e-6) -> LyapunovEstimate:
    """Graph Lyapunov exponent by the ODE: grid average of log dx over one return.

    The independent reference for the exponents ``graph_pair`` reads off its
    Möbius table. ``map_scale`` is the per-return exponent; ``flow_scale``
    divides by the return time (equivalently multiplies by rho_D).
    """
    if graph.defect > defect_tol:
        raise ValueError(f"graph defect {graph.defect} exceeds {defect_tol}")
    smap = SectionMap(family, beta, rho, cfg)
    lam_map = _map_exponent(smap, graph.values)
    return LyapunovEstimate(flow_scale=lam_map / smap.return_time, map_scale=lam_map)


def lift_graph(family: ForcedField, beta: float, rho, graph: GraphSample,
               grid_D: int, cfg: IntegratorConfig) -> LiftedGraph:
    """Carry the section graph over one full return onto a T^D grid.

    Level k of the last axis holds the graph at phase theta_D = k/grid_D; level
    0 is the section graph itself. An attractor is carried forward from the
    previous section crossing, a repeller backward from the next one, so each
    lift runs with the stable direction of its graph: the level u pieces of
    T/grid_D away from that crossing (u = k forward, grid_D - k backward)
    starts from the linearly interpolated section graph at theta moved back
    along its orbit by u T/grid_D.

    On a one-dimensional section the return is split into m = r grid_D
    pieces, r = ceil(S / grid_D), whose Möbius matrices ``cocycle.tabulate``
    tabulates once. The levels' grid phases are computed once per lift; piece
    j is then applied to every level still short of its phase, evaluated on
    that level's shifted grid by one real inverse FFT. Escape rule as in the
    pullback: q <= 0 in a piece, or x outside the window at a piece end.
    Without a table (d >= 2, or no certified N) all levels flow by the ODE in
    one ``flow_batch`` call, level u's lanes to their own end time u T/grid_D.
    """
    if not graph.converged:
        raise ValueError("lift requires a converged section graph")
    rho_v = as_rotation_vector(rho)
    d = graph.d
    backward = graph.role == "repeller"
    smap = SectionMap(family, beta, rho_v, cfg, reverse=backward)
    r = -(-smap.sub_returns() // grid_D)
    seg = smap.return_time / grid_D
    sec_shape = (grid_D,) * d
    n_sec = grid_D**d
    base_vals = graph.values if graph.values.shape == sec_shape else _regrid(graph.values, grid_D)
    out = np.empty(sec_shape + (grid_D,))
    out_flat = out.reshape(n_sec, grid_D)
    out_flat[:, 0] = base_vals.ravel()

    # row u - 1 holds the level u lift steps away from the crossing it starts at
    steps = np.arange(1, grid_D)
    sgn = -1.0 if backward else 1.0
    shifts = wrap_unit(-sgn * (steps * seg)[:, None] * rho_v.rho[:-1])
    x = _at_shifts(base_vals, shifts).reshape(grid_D - 1, n_sec)
    table = tabulate(smap, r * grid_D)
    if table is None:
        nodes = _grid_nodes(sec_shape, d)
        theta = (nodes[None, :, :] + shifts[:, None, :]).reshape(-1, d)
        res = flow_batch(family, beta, rho_v, smap.base_points(theta), x.reshape(-1),
                         np.repeat(sgn * steps * seg, n_sec), cfg, channels="x")
        if res.escaped.any():
            raise FlowEscape("graph escaped during the lift")
        levels = grid_D - steps if backward else steps
        out_flat[:, levels] = res.y[0].reshape(grid_D - 1, n_sec).T
        return LiftedGraph(values=out, grid_D=grid_D, role=graph.role, beta=beta)
    phases = table.phases(shifts[:, 0])
    for j in range(r * (grid_D - 1)):
        first = j // r          # rows first.. are still short of their phase
        piece = table.on_grid(j, grid_D, phases[first:])
        x[first:], escaped = _mobius_sweep(piece[None], x[first:], cfg)
        if escaped.any():
            raise FlowEscape("graph escaped during the lift")
        if (j + 1) % r == 0:
            u = (j + 1) // r
            out_flat[:, grid_D - u if backward else u] = x[u - 1]
    return LiftedGraph(values=out, grid_D=grid_D, role=graph.role, beta=beta)


def _regrid(values: np.ndarray, grid_D: int) -> np.ndarray:
    """Multilinear resample of a periodic grid onto grid_D nodes per axis."""
    pos = np.ix_(*(np.arange(grid_D) * n / grid_D for n in values.shape))
    return _gather(values, [np.floor(p).astype(int) for p in pos], [p - np.floor(p) for p in pos])

"""First return map to the section theta_D = 0 and the flow/map exponent relation.

The return map evaluates the flow for one return time 1/rho_D from a base
point (theta, 0) on T^D; the section coordinate advances by
omega = (rho_1, ..., rho_d)/rho_D. Its inverse integrates the reversed field
along -rho for the same duration. Derivative channels are exactly the
variational-flow channels at t = 1/rho_D (same code path).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import ForcedField, unit_direction
from .flow import FlowBatchResult, FlowEscape, IntegratorConfig, RatioChannels, flow_batch
from .torus import as_rotation_vector, induce_frequency, wrap_unit

__all__ = [
    "ReturnMapEval",
    "SectionMap",
    "return_map",
    "inverse_return_map",
    "lyapunov_relation_check",
]

MAX_SUB_RETURNS = 2**20


@dataclass(frozen=True)
class ReturnMapEval(RatioChannels):
    """One fibre-map evaluation with its tracked derivatives.

    ``escape_time``, set when ``escaped``, is ``flow_batch``'s stamp: a time by
    which x left the window, exact on a closed-form leg, the end of the first
    step outside the window on a DP5 leg, and an upper bound where an escape
    is proven.
    """

    x_next: float
    log_dx: float
    dtheta: float
    dtheta2: float
    dxx_ratio: float
    dtheta_dx_ratio: float
    escaped: bool = False
    escape_time: float | None = None


class SectionMap:
    """Batched access to the first return map of a driven family.

    ``reverse=True`` yields the inverse fibre maps (reversed field along
    -rho); the section shift is then -omega. ``beta`` is a float or an (n,)
    array: the latter gives each of the n lanes of ``step`` its own parameter
    value, so the maps at several beta share one return (see ``flow_batch``).
    The Möbius table takes a float beta only.
    """

    def __init__(self, family: ForcedField, beta, rho, cfg: IntegratorConfig,
                 reverse: bool = False):
        family.check_beta(beta)
        self.family = family
        self.beta = np.asarray(beta, dtype=float) if np.ndim(beta) else float(beta)
        self.rho = as_rotation_vector(rho)
        if self.rho.D != family.D:
            raise ValueError(f"rho has {self.rho.D} components but the family lives on T^{family.D}")
        self.cfg = cfg
        self.reverse = bool(reverse)
        freq = induce_frequency(self.rho)
        self.return_time = freq.return_time
        self.omega = freq.omega
        self.d = freq.d
        shift = -freq.omega if reverse else freq.omega
        self.shift = wrap_unit(shift)

    def base_points(self, theta_sec: np.ndarray) -> np.ndarray:
        theta_sec = np.atleast_2d(np.asarray(theta_sec, dtype=float))
        return np.concatenate([theta_sec, np.zeros((theta_sec.shape[0], 1))], axis=1)

    def step(self, theta_sec, x, channels: str = "x", direction=None) -> FlowBatchResult:
        """Evaluate the fibre maps at (theta_sec, x): one ODE return, started afresh."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        base = self.base_points(theta_sec)
        if base.shape[0] != x.size:
            raise ValueError("theta_sec and x must have matching batch sizes")
        t = -self.return_time if self.reverse else self.return_time
        return flow_batch(self.family, self.beta, self.rho, base, x, t, self.cfg,
                          channels=channels, direction=direction)

    def _table_beta(self) -> float:
        if np.ndim(self.beta):
            raise ValueError("the Möbius table needs a float beta, not one per lane")
        return self.beta

    def sub_returns(self) -> int:
        """S = ceil(T max_theta ||A||_F / pi) + 1 sub-returns per Möbius table.

        A = [[a1/2, c], [-a2, -a1/2]] with |c| <= max(|a0|, |a0 - beta^p scale|),
        since every forcing shape has g in [0, 1]. (p, q) then turns by less
        than pi in each sub-return, and every sub-return matrix entry stays
        below e^pi. ValueError when S is not finite or exceeds MAX_SUB_RETURNS
        (2^20 rows of (4, n) float64 are already 32 MiB per node).
        """
        fam = self.family
        try:
            forcing = fam.forcing_scale(self._table_beta())
        except OverflowError:   # beta^p past the float range
            forcing = math.inf if fam.scale else 0.0
        c_max = max(abs(fam.a0), abs(fam.a0 - forcing))
        norm = math.sqrt(0.5 * fam.a1 * fam.a1 + c_max * c_max + fam.a2 * fam.a2)
        turns = self.return_time * norm / math.pi
        if not turns <= MAX_SUB_RETURNS - 1:
            raise ValueError(f"T max||A||_F / pi = {turns:.6g} needs more than the "
                             f"{MAX_SUB_RETURNS} sub-returns a Möbius table may have")
        return math.ceil(turns) + 1

    def mobius_table(self, theta_sec, m: int | None = None) -> np.ndarray:
        """Transfer matrices of the fibre maps at ``theta_sec``, shape (S, 4, n).

        Row s holds (P11, P12, P21, P22) of sub-return s, the flow's
        ``"mobius"`` channels over [s T/S, (s+1) T/S]; this map's fibre map
        at theta is x -> (P11 x + P12)/(P21 x + P22) applied for s = 0..S-1.
        The flow is autonomous on T^D x R, so sub-return s starts at the base
        point moved along rho by s T/S, and all S x n lanes integrate in one
        batch over T/S: one step sequence, no restarts.

        ``m`` splits the return into m pieces instead of S (m >= S keeps the
        entries below e^pi); the result then has m rows.
        """
        beta = self._table_beta()
        m = self.sub_returns() if m is None else m
        seg = self.return_time / m
        sgn = -1.0 if self.reverse else 1.0
        base = self.base_points(theta_sec)
        n = base.shape[0]
        offsets = (sgn * seg * np.arange(m))[:, None, None] * self.rho.rho
        starts = (base[None, :, :] + offsets).reshape(m * n, -1)
        res = flow_batch(self.family, beta, self.rho, starts, np.ones(m * n),
                         sgn * seg, self.cfg, channels="mobius")
        return res.y.reshape(4, m, n).transpose(1, 0, 2)


def _merged_returns(family: ForcedField, rho, cfg: IntegratorConfig, groups,
                    channels: str, reverse: bool = False) -> list:
    """One return over sample groups (beta, theta_sec, x), each at its own beta.

    Returns the (y, escaped) slices of the groups in order. The lanes share
    one adaptive step sequence, so the return costs about the largest of the
    groups' step counts rather than their sum.
    """
    sizes = [len(xs) for _, _, xs in groups]
    betas = np.repeat([float(beta) for beta, _, _ in groups], sizes)
    smap = SectionMap(family, betas, rho, cfg, reverse=reverse)
    res = smap.step(np.concatenate([th for _, th, _ in groups]),
                    np.concatenate([xs for _, _, xs in groups]), channels=channels)
    cuts = np.cumsum(sizes)[:-1]
    return list(zip(np.split(res.y, cuts, axis=1), np.split(res.escaped, cuts)))


def _merged_images(family: ForcedField, rho, cfg: IntegratorConfig, groups) -> list:
    """x-images of one merged ``"x"`` return over sample groups (beta, theta_sec, x).

    This is the one escape score of the section: a lane that left the escape
    window scores -inf if it left below and +inf if it left above, so a bound
    on the image reads which side of the window a lane left by. Returns one
    image array per group, in order.
    """
    return [np.where(esc, np.where(y[0] < cfg.escape_low, -np.inf, np.inf), y[0])
            for y, esc in _merged_returns(family, rho, cfg, groups, "x")]


def _one_return(smap: SectionMap, theta_sec, x: float, direction) -> ReturnMapEval:
    """One return of ``smap`` from (theta_sec, x) with all derivative channels."""
    th = np.atleast_1d(np.asarray(theta_sec, dtype=float))[None, :]
    res = smap.step(th, [float(x)], channels="full",
                    direction=unit_direction(direction, smap.family.D, section=True))
    y = [float(v) for v in res.y[:, 0]]
    esc = bool(res.escaped[0])
    return ReturnMapEval(
        x_next=y[0],
        log_dx=y[1],
        dtheta=y[2],
        dxx_ratio=y[3],
        dtheta_dx_ratio=y[4],
        dtheta2=y[5],
        escaped=esc,
        escape_time=float(res.escape_times[0]) if esc else None,
    )


def return_map(family: ForcedField, beta: float, rho, theta_sec, x: float,
               cfg: IntegratorConfig, direction=None) -> ReturnMapEval:
    """xi~_theta(x): one forward return with all derivative channels.

    ``theta_sec`` lives on the d-dimensional section; ``direction`` is a unit
    section vector (defaults to the first axis).
    """
    return _one_return(SectionMap(family, beta, rho, cfg), theta_sec, x, direction)


def inverse_return_map(family: ForcedField, beta: float, rho, theta_sec, x: float,
                       cfg: IntegratorConfig, direction=None) -> ReturnMapEval:
    """Inverse fibre map via the reversed field: xi~^-1(xi~(x)) = x."""
    return _one_return(SectionMap(family, beta, rho, cfg, reverse=True), theta_sec, x, direction)


def _grid_nodes(grid_shape, d: int) -> np.ndarray:
    axes = [np.arange(n) / n for n in grid_shape]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1).reshape(-1, d)


def _map_exponent(smap: SectionMap, values: np.ndarray) -> float:
    """Grid mean of log dx over one ``"xl"`` return of ``smap`` from the section
    graph ``values`` at its nodes; FlowEscape if a node escapes."""
    res = smap.step(_grid_nodes(values.shape, values.ndim), values.ravel(), channels="xl")
    if res.escaped.any():
        raise FlowEscape("graph escaped while measuring its exponent")
    return float(np.mean(res.y[1]))


def lyapunov_relation_check(family: ForcedField, beta: float, rho, graph,
                            cfg: IntegratorConfig, n_lift: int = 48,
                            defect_tol: float = 1e-6):
    """Compare the flow-scale exponent with rho_D times the map-scale exponent.

    ``graph`` is an invariant section graph, a ``graphs.GraphSample``; its
    ``defect`` must not exceed ``defect_tol``. The map exponent is the grid
    average of log dx over one return on the graph (``_map_exponent``). The
    flow exponent is computed independently by lifting the graph over a full
    return: the T^D average of log dx_xi(1/rho_D, ., .) along the lifted
    graph, times rho_D. Returns (lambda_flow, lambda_map, residual).
    """
    if graph.defect > defect_tol:
        raise ValueError(f"input graph defect {graph.defect} exceeds {defect_tol}")
    smap = SectionMap(family, beta, rho, cfg)
    rho_v = smap.rho
    lambda_map = _map_exponent(smap, graph.values)

    # independent flow-scale route: cumulative log dx at 2 n_lift checkpoints
    # along [0, 2/rho_D]; the T^D average pairs each lift time s with s + T
    T = smap.return_time
    flat = graph.values.ravel()
    base = smap.base_points(_grid_nodes(graph.values.shape, graph.values.ndim))
    logs = np.empty((2 * n_lift + 1, flat.size))
    logs[0] = 0.0
    seg = T / n_lift
    state_x = flat.copy()
    state_l = np.zeros_like(flat)
    t_acc = 0.0
    for k in range(2 * n_lift):
        shifted = base + t_acc * rho_v.rho
        r = flow_batch(family, beta, rho_v, shifted, state_x, seg, cfg, channels="xl")
        if r.escaped.any():
            raise FlowEscape("graph escaped during the flow-exponent lift")
        state_x = r.y[0]
        state_l = state_l + r.y[1]
        t_acc += seg
        logs[k + 1] = state_l
    pair_means = [np.mean(logs[k + n_lift] - logs[k]) for k in range(n_lift)]
    lambda_flow = rho_v.rho_D * float(np.mean(pair_means))

    residual = abs(lambda_flow - rho_v.rho_D * lambda_map)
    return lambda_flow, lambda_map, residual

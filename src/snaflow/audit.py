"""Numerical audit of the derivative-bound hypotheses for the radial family.

Instantiates the contraction/expansion constants of the critical-window
analysis, builds the critical region (base points whose one-return orbit
segment meets the forcing bump), and checks sixteen assumptions A1..A16 on
the first return maps by low-discrepancy sampling with extremal witnesses.
All derivative comparisons happen in log scale so nothing overflows; an exact
zero is stored as -inf magnitude and compares trivially.

The audit is evidence, not proof: each entry reports the measured extremal
value, the bound, the log margin, and a witness (theta, x, beta) that
reproduces the measurement.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fields import RadialLogistic, eval_field
from .flow import IntegratorConfig, times_dx
from .bifurcation import estimate_beta_bounds
from .section import _grid_nodes, _merged_images, _merged_returns
from .torus import (
    RotationVector,
    as_rotation_vector,
    certify_diophantine,
    induce_frequency,
    wrap_unit,
)

__all__ = [
    "AuditError",
    "AuditConstants",
    "CriticalRegion",
    "AuditEntry",
    "GateReport",
    "AuditReport",
    "compute_constants",
    "critical_region",
    "in_critical_region",
    "audit_A1_A3",
    "audit_A4_A8",
    "audit_bump_convexity",
    "audit_A11_A16",
    "gate_report",
    "run_audit",
    "kronecker_sequence",
]


class AuditError(ValueError):
    pass


# ---------------------------------------------------------------- constants


@dataclass(frozen=True)
class AuditConstants:
    b: float
    c: float
    delta1: float
    delta2: float
    R_support: float
    rho: np.ndarray
    rho_D: float
    theta_bar: np.ndarray     # bump centre on T^D
    theta0: np.ndarray        # section point whose orbit passes the centre
    log_alpha_c: float
    log_alpha_e: float
    log_alpha_l: float
    log_alpha_u: float
    log_r_b: float
    log_s: float
    log_S: float
    t1: float
    t2: float
    t3: float
    # standing-geometry margins (reported, not fatal): the bump should enter
    # after the delta_1 margin and exit before the delta_2 margin
    entry_margin: float
    exit_margin: float

    @property
    def margins_ok(self) -> bool:
        return self.entry_margin >= 0.0 and self.exit_margin >= 0.0

    @property
    def e_top(self) -> float:
        """Upper edge of the expanding strip E = [-1, e_top]."""
        return -1.0 + math.exp(-self.b / (2.0 * self.rho_D))

    @property
    def contraction_interval(self):
        return (1.0 - self.c, 1.0 + self.c)

    @property
    def section_interval(self):
        return (-1.0, 1.0 + self.c)


def delta1_max(rho_D: float) -> float:
    """Upper end of the admissible delta1 interval (0, min(1/18, 1/(36 rho_D)))."""
    return min(1.0 / 18.0, 1.0 / (36.0 * rho_D))


def gate_exponent(K: int, p: float) -> float:
    """2q^2/p - 5(1-q^2)p with q = 1 - 1/K; the gate needs it positive."""
    q = 1.0 - 1.0 / K
    return 2.0 * q * q / p - 5.0 * (1.0 - q * q) * p


def compute_constants(b: float, c: float, delta1: float, delta2: float,
                      R_support: float, rho, theta_bar) -> AuditConstants:
    """Derive the log-scale derivative bounds and the transit times.

    A bump ball that touches the section theta_D = 0 is rejected (move the
    bump centre instead). The finer standing-geometry margins, bump entry after
    1 - delta1*rho_D and exit before 1 - delta2*rho_D in theta_D, hold only
    for very small bumps; they are measured and carried as ``entry_margin``
    and ``exit_margin`` so downstream entries can report against them.
    """
    rho_v = as_rotation_vector(rho)
    rho_D = rho_v.rho_D
    if b <= 1.0:
        raise AuditError("b must exceed 1")
    if not 0.0 < c < 0.25:
        raise AuditError("c must lie in (0, 1/4)")
    dmax = delta1_max(rho_D)
    if not 0.0 < delta1 < dmax:
        raise AuditError(f"delta1 must lie in (0, {dmax:.6g})")
    if not 0.0 < delta2 < delta1:
        raise AuditError("delta2 must lie in (0, delta1)")
    if R_support <= 0.0 or R_support >= 0.5:
        raise AuditError("bump radius must lie in (0, 1/2)")
    tb = np.atleast_1d(np.asarray(theta_bar, dtype=float))
    if tb.size != rho_v.D:
        raise AuditError(f"theta_bar needs {rho_v.D} components")
    tb = wrap_unit(tb)

    if not (tb[-1] - R_support > 0.0 and tb[-1] + R_support < 1.0):
        raise AuditError(
            "bump straddles the section theta_D = 0: choose a bump centre whose last "
            f"coordinate lies in ({R_support:.6g}, {1.0 - R_support:.6g})"
        )

    tau_bar = tb[-1] / rho_D
    theta0 = wrap_unit(tb[:-1] - tau_bar * rho_v.rho[:-1])
    T = 1.0 / rho_D
    t1 = T / 4.0
    entry_time = (tb[-1] - R_support) / rho_D
    exit_time = (tb[-1] + R_support) / rho_D
    entry_margin = entry_time - (T - delta1)   # >= 0: bump enters after the margin
    exit_margin = (T - delta2) - exit_time     # >= 0: bump exits before the margin
    t2 = min(max(exit_time, T - delta2 / 2.0) + delta2 / 16.0,
             exit_time + (T - exit_time) / 16.0)
    t3 = T - min(delta2, (T - exit_time)) / 4.0

    log_alpha_e = 2.0 * b * (1.0 - c) * (T - delta1) - 10.0 * b * delta1
    log_alpha_u = 2.0 * b * (1.0 + c) * T
    return AuditConstants(
        b=float(b), c=float(c), delta1=float(delta1), delta2=float(delta2),
        R_support=float(R_support), rho=rho_v.rho, rho_D=rho_D,
        theta_bar=tb, theta0=theta0,
        log_alpha_c=-log_alpha_e, log_alpha_e=log_alpha_e,
        log_alpha_l=-log_alpha_u, log_alpha_u=log_alpha_u,
        log_r_b=-9.0 * b * delta1, log_s=b * delta2 / 4.0, log_S=9.0 * b * delta1,
        t1=t1, t2=t2, t3=t3,
        entry_margin=entry_margin, exit_margin=exit_margin,
    )


# ---------------------------------------------------------- critical region


def in_critical_region(constants: AuditConstants, theta_sec) -> np.ndarray:
    """True where the one-return orbit segment from (theta, 0) meets the bump ball."""
    theta_sec = np.atleast_2d(np.asarray(theta_sec, dtype=float))
    n, d = theta_sec.shape
    D = d + 1
    A = np.concatenate([theta_sec, np.zeros((n, 1))], axis=1)
    L = constants.rho / constants.rho_D      # segment direction, length 1 return
    LL = float(L @ L)
    best = np.full(n, np.inf)
    for lift in np.ndindex(*(3,) * D):
        m = np.array(lift) - 1.0
        P = constants.theta_bar + m
        W = P[None, :] - A
        tstar = np.clip(W @ L / LL, 0.0, 1.0)
        diff = W - tstar[:, None] * L[None, :]
        best = np.minimum(best, np.sqrt(np.sum(diff * diff, axis=1)))
    return best <= constants.R_support


@dataclass
class CriticalRegion:
    grid_n: int
    mask: np.ndarray        # I_0 membership of the section grid nodes
    measure: float          # fraction of the section torus


def critical_region(constants: AuditConstants, grid_n: int) -> CriticalRegion:
    d = constants.rho.size - 1
    nodes = _grid_nodes((grid_n,) * d, d)
    mask = in_critical_region(constants, nodes).reshape((grid_n,) * d)
    return CriticalRegion(grid_n=grid_n, mask=mask, measure=float(mask.mean()))


# ------------------------------------------------------------ sampling


def _kronecker_alpha(dim: int) -> np.ndarray:
    # unique positive root of x^(dim+1) = x + 1
    phi = 1.5
    for _ in range(80):
        phi = (1.0 + phi) ** (1.0 / (dim + 1))
    return np.array([phi ** -(i + 1) for i in range(dim)])


def kronecker_sequence(n: int, dim: int, seed: int = 0) -> np.ndarray:
    """Deterministic low-discrepancy points in [0, 1)^dim."""
    alpha = _kronecker_alpha(dim)
    offset = wrap_unit(0.5 + seed * 0.7548776662466927)
    idx = np.arange(1, n + 1, dtype=float)[:, None]
    return wrap_unit(offset + idx * alpha[None, :])


# ------------------------------------------------------------ report pieces


@dataclass
class AuditEntry:
    id: str
    statement: str
    status: str                    # "pass" | "fail" | "not-applicable"
    measured: dict = field(default_factory=dict)
    witness: dict | None = None


@dataclass
class GateReport:
    p: float
    K: int
    M: int
    q: float
    log_alpha: float
    exponent_q: float              # 2q^2/p - 5(1-q^2)p
    alpha_e_condition: dict        # log_alpha_e >= (2/p) log_alpha
    alpha_u_condition: dict        # log_alpha_u <= p log_alpha
    i0_condition: dict             # 3|I0| < C' (2KM)^-eta
    nu_log_positive_term: float    # log s
    nu_log_negative_term: float    # log(S^2 alpha^-exponent_q)
    nu_log_margin: float
    kappa: str = "UNKNOWN"
    alpha0: str = "UNKNOWN"


@dataclass
class AuditReport:
    constants: AuditConstants
    entries: list
    gate: GateReport
    beta_grid: list
    grid_n: int
    sample_n: int
    seed: int
    i0_measure: float

    def entry(self, id_: str) -> AuditEntry:
        for e in self.entries:
            if e.id == id_:
                return e
        raise KeyError(id_)


def _log_abs(v: float) -> float:
    return -math.inf if v == 0.0 else math.log(abs(v))


def _witness(theta, x, beta, channel, value):
    return {
        "theta": [float(t) for t in np.atleast_1d(theta)],
        "x": float(x),
        "beta": float(beta),
        "channel": channel,
        "value": float(value),
    }


class _Extreme:
    """Track an extremal sample with its witness (lexicographic tie-break)."""

    def __init__(self, mode: str):
        self.mode = mode  # "max" | "min"
        self.value = -math.inf if mode == "max" else math.inf
        self.witness = None

    def offer(self, values, thetas, xs, beta, channel):
        if len(values) == 0:
            return
        i = int(np.argmax(values)) if self.mode == "max" else int(np.argmin(values))
        v = float(values[i])
        better = v > self.value if self.mode == "max" else v < self.value
        if better:
            self.value = v
            self.witness = _witness(thetas[i], xs[i], beta, channel, v)


def _channels(y):
    """First and second derivatives from the (6, n) values of a full-channel return."""
    return {"dtheta": y[2], "dtheta2": y[5],
            "dxx": times_dx(y[3], y[1]), "dtheta_dx": times_dx(y[4], y[1])}


def _stayed(group, result, region=None):
    """(y, theta, x) of the lanes of one group's return that stayed in the
    escape window and, given a region (lo, hi), whose image lies in it."""
    (_, th, xs), (y, esc) = group, result
    keep = ~esc
    if region is not None:
        keep &= (y[0] >= region[0]) & (y[0] <= region[1])
    return y[:, keep], th[keep], xs[keep]


def _region_samples(constants: AuditConstants, sample_n: int, seed: int,
                    x_interval, exclude_critical=False, shift=None,
                    log_toward_lower=False):
    """Low-discrepancy (theta, x) pairs; optionally theta (-shift) outside I_0.

    ``log_toward_lower`` spreads the x-samples log-uniformly toward the lower
    interval edge across ~16 decades: the expanding strip is forward-invariant
    only within an exp(-2bT) hairline of its bottom, so uniform sampling would
    never land a point whose image stays inside.

    Resolution limit (A2): offsets above the lower edge -1 that are smaller
    than the float spacing there (1.1e-16) are not resolved, so log-spread
    samples with u near 1 sit at -1 or at the next float above it. At b = 6,
    T = 4 the hairline exp(-2bT) = 1.4e-21 lies far below that spacing.
    """
    d = constants.rho.size - 1
    pts = kronecker_sequence(4 * sample_n, d + 1, seed)
    theta = pts[:, :d]
    if exclude_critical:
        ref = theta if shift is None else wrap_unit(theta - shift)
        keep = ~in_critical_region(constants, ref)
        theta = theta[keep]
        pts = pts[keep]
    theta = theta[:sample_n]
    u = pts[: len(theta), d]
    lo, hi = x_interval
    if log_toward_lower:
        return theta, lo + (hi - lo) * 10.0 ** (-16.5 * u[: len(theta)])
    return theta, lo + (hi - lo) * u[: len(theta)]


# ------------------------------------------------------------ A1..A3


def audit_A1_A3(family: RadialLogistic, rho, beta_grid, constants: AuditConstants,
                sample_n: int, cfg: IntegratorConfig, seed: int = 0):
    """Contraction on C, expansion on the bump-free part of E, global envelope."""
    _require_radial(family)
    rho_v = as_rotation_vector(rho)
    C_int = constants.contraction_interval
    E_int = (-1.0, constants.e_top)
    G_int = constants.section_interval

    ex1 = _Extreme("max")
    ex2 = _Extreme("min")
    ex3_lo = _Extreme("min")
    ex3_hi = _Extreme("max")
    # A1: T^d x C; A2: (T^d minus I_0) x E, image still in E; A3: Gamma with
    # image in Gamma. All three at every beta share one return. The A2 lanes
    # never see the bump, so their field is the same at every beta and they
    # flow in closed form (flow._riccati_flow), the same bits in any batch: a
    # lane a few ulps above the repeller x = -1 leaves E, as in exact
    # arithmetic, whatever the other lanes of its batch do.
    groups = []
    for k, beta in enumerate(beta_grid):
        groups += [(beta, *_region_samples(constants, sample_n, seed + 11 * k, C_int)),
                   (beta, *_region_samples(constants, sample_n, seed + 11 * k + 1, E_int,
                                           exclude_critical=True, log_toward_lower=True)),
                   (beta, *_region_samples(constants, sample_n, seed + 11 * k + 2, G_int))]
    res = _merged_returns(family, rho_v, cfg, groups, "xl")
    for k, beta in enumerate(beta_grid):
        y, th, xs = _stayed(groups[3 * k], res[3 * k])
        ex1.offer(y[1], th, xs, beta, "log_dx")
        y, th, xs = _stayed(groups[3 * k + 1], res[3 * k + 1], E_int)
        ex2.offer(y[1], th, xs, beta, "log_dx")
        y, th, xs = _stayed(groups[3 * k + 2], res[3 * k + 2], G_int)
        ex3_lo.offer(y[1], th, xs, beta, "log_dx")
        ex3_hi.offer(y[1], th, xs, beta, "log_dx")

    e1 = AuditEntry(
        "A1", "log dx of the fibre map stays below log_alpha_c on T^d x C",
        "pass" if ex1.value < constants.log_alpha_c else "fail",
        {"max_log_dx": ex1.value, "bound_log": constants.log_alpha_c,
         "margin_log": constants.log_alpha_c - ex1.value},
        ex1.witness,
    )
    e2 = AuditEntry(
        "A2", "log dx exceeds log_alpha_e on the bump-free expanding strip",
        "pass" if ex2.value > constants.log_alpha_e else "fail",
        {"min_log_dx": ex2.value, "bound_log": constants.log_alpha_e,
         "margin_log": ex2.value - constants.log_alpha_e},
        ex2.witness,
    )
    lo_ok = ex3_lo.value > constants.log_alpha_l
    hi_ok = ex3_hi.value < constants.log_alpha_u
    e3 = AuditEntry(
        "A3", "log dx lies in (log_alpha_l, log_alpha_u) on the section with image inside",
        "pass" if (lo_ok and hi_ok) else "fail",
        {"min_log_dx": ex3_lo.value, "max_log_dx": ex3_hi.value,
         "bound_log_lower": constants.log_alpha_l, "bound_log_upper": constants.log_alpha_u,
         "margin_log": min(ex3_lo.value - constants.log_alpha_l,
                           constants.log_alpha_u - ex3_hi.value)},
        ex3_hi.witness,
    )
    return [e1, e2, e3]


# ------------------------------------------------------------ A4..A8, A10


def audit_A4_A8(family: RadialLogistic, rho, beta_grid, constants: AuditConstants,
                sample_n: int, cfg: IntegratorConfig, seed: int = 0,
                crossing_beta: float | None = None):
    """Boundary trapping (A4), bump-free passage into C (A5), the unforced
    floor (A7, first part), beta-monotonicity (A8), and the crossing (A10).

    The crossing entry is evaluated at ``crossing_beta`` when supplied (the
    runner passes a point just beyond the estimated upper boundary parameter),
    otherwise at the top of the sampled grid.
    """
    _require_radial(family)
    rho_v = as_rotation_vector(rho)
    c = constants.c
    d = constants.rho.size - 1
    grid_nodes = kronecker_sequence(sample_n, d, seed + 101)
    n_nodes = len(grid_nodes)
    top, bottom, floor = (np.full(n_nodes, v) for v in (1.0 + c, -1.0, 1.0 - c))
    betas = sorted(beta_grid)
    th8, xs8 = _region_samples(constants, sample_n, seed + 7, constants.section_interval)
    beta_top = betas[-1] if crossing_beta is None else float(crossing_beta)

    samples5 = [_region_samples(constants, sample_n, seed + 13 * k + 3,
                                (constants.e_top, 1.0 + c), exclude_critical=True)
                for k in range(len(beta_grid))]

    # every x-channel sample set of A4, A5, A7, A8 and A10 shares one return
    groups = ([(beta, grid_nodes, x) for beta in beta_grid for x in (top, bottom)]
              + [(beta, th, xs) for beta, (th, xs) in zip(beta_grid, samples5)]
              + [(0.0, grid_nodes, floor)]
              + [(beta, th8, xs8) for beta in betas]
              + [(beta_top, grid_nodes, top)])
    res = _merged_images(family, rho_v, cfg, groups)
    nb = len(beta_grid)
    res4, res5, res7, res8, res10 = (res[:2 * nb], res[2 * nb:3 * nb], res[3 * nb],
                                     res[3 * nb + 1:-1], res[-1])

    # A4 over the whole beta grid
    worst_top = _Extreme("max")
    worst_bot = _Extreme("max")
    for beta, img_top, img_bot in zip(beta_grid, res4[0::2], res4[1::2]):
        worst_top.offer(img_top - (1.0 + c), grid_nodes, top, beta, "x_next-(1+c)")
        worst_bot.offer(img_bot - (-1.0), grid_nodes, bottom, beta, "x_next+1")
    a4_ok = worst_top.value <= 0.0 and worst_bot.value <= 0.0
    e4 = AuditEntry(
        "A4", "the section boundaries map below themselves: xi~(1+c) <= 1+c and xi~(-1) <= -1",
        "pass" if a4_ok else "fail",
        {"max_excess_top": worst_top.value, "max_excess_bottom": worst_bot.value},
        worst_top.witness if worst_top.value >= worst_bot.value else worst_bot.witness,
    )

    # A5: theta outside I_0, x in [e_top, 1+c] lands in C
    ex5 = _Extreme("max")
    for beta, (th, xs), img in zip(beta_grid, samples5, res5):
        dist = np.maximum(img - (1.0 + c), (1.0 - c) - img)  # <= 0 iff inside C
        ex5.offer(dist, th, xs, beta, "distance_outside_C")
    e5 = AuditEntry(
        "A5", "bump-free fibres send [e_top, 1+c] into the contracting interval C",
        "pass" if ex5.value <= 0.0 else "fail",
        {"max_distance_outside_C": ex5.value},
        ex5.witness,
    )

    # A7 (first part): unforced maps hold the line 1-c
    i7 = int(np.argmin(res7))
    short = float(res7[i7]) - (1.0 - c)
    e7 = AuditEntry(
        "A7", "at beta = 0 every fibre map keeps 1-c at or above itself",
        "pass" if short >= 0.0 else "fail",
        {"min_image_minus_target": short},
        _witness(grid_nodes[i7], 1.0 - c, 0.0, "x_next-(1-c)", short),
    )

    # A8: beta-monotonicity of the fibre maps plus the forcing sign
    prev = None
    max_increase = -math.inf
    wit8 = None
    for beta, cur in zip(betas, res8):
        if prev is not None:
            inc = cur - prev
            i = int(np.argmax(inc))
            if inc[i] > max_increase:
                max_increase = float(inc[i])
                wit8 = _witness(th8[i], xs8[i], beta, "x_next_increase", float(inc[i]))
        prev = cur
    dbeta_max = -math.inf
    for i in range(0, len(th8), max(1, len(th8) // 100)):
        fe = eval_field(family, betas[-1], np.concatenate([th8[i], [0.0]]), xs8[i])
        dbeta_max = max(dbeta_max, fe.dbeta)
    e8 = AuditEntry(
        "A8", "fibre maps are non-increasing in beta (and the forcing term is <= 0)",
        # integration noise at rel_tol allows ~1e-9 apparent increases
        "pass" if (max_increase <= 1e-9 and dbeta_max <= 0.0) else "fail",
        {"max_increase_across_grid": max_increase, "max_dbeta_F": dbeta_max},
        wit8,
    )

    # A10: beyond the admissible window some fibre map crosses 1+c below -1
    below = np.isneginf(res10)
    img = np.where(below, cfg.escape_low, res10)  # escape-below certainly crossed
    i10 = int(np.argmin(img))
    crossed = img[i10] <= -1.0
    e10 = AuditEntry(
        "A10", "the crossing parameter is attained: some fibre map sends 1+c to or below -1",
        "pass" if crossed else "fail",
        {"min_image_of_upper_boundary": float(img[i10]),
         "n_escaped_below": int(below.sum()),
         "beta_evaluated": float(beta_top)},
        _witness(grid_nodes[i10], 1.0 + c, beta_top, "x_next", float(img[i10])),
    )
    return [e4, e5, e7, e8, e10]


# ------------------------------------------------------------ A6, A9


_A9 = "second base derivative of the fibre maps exceeds s on the pinch set x C"


def j0_region(family: RadialLogistic, beta, rho, constants: AuditConstants,
              grid_n: int, cfg: IntegratorConfig) -> np.ndarray:
    """Grid mask of the pinch set: fibres sending 1-c into the expanding strip.

    Images carry the section's escape score (``section._merged_images``): a
    fibre that leaves the escape window below sends 1-c into the strip (image
    -inf), one that leaves above does not (+inf). Dilated by one node so the
    set is closed at grid resolution. An array ``beta`` of k values gives k
    masks, shape (k, grid_n, ...), from one return.
    """
    rho_v = as_rotation_vector(rho)
    d = constants.rho.size - 1
    grid = (grid_n,) * d
    nodes = _grid_nodes(grid, d)
    start = np.full(len(nodes), 1.0 - constants.c)
    betas = np.ravel(np.asarray(beta, dtype=float))
    masks = []
    for img in _merged_images(family, rho_v, cfg, [(b, nodes, start) for b in betas]):
        mask = (img <= constants.e_top).reshape(grid)
        grown = mask.copy()
        for axis in range(d):
            grown |= np.roll(mask, 1, axis=axis) | np.roll(mask, -1, axis=axis)
        masks.append(grown)
    return np.array(masks).reshape(np.shape(beta) + grid)


def _mask_convex_circle(mask: np.ndarray) -> bool:
    """A circular 1-d mask is convex iff its true nodes form one arc."""
    if mask.ndim != 1:
        raise AuditError("convexity check implemented for d = 1")
    m = mask.astype(int)
    if m.sum() in (0, len(m)):
        return True
    transitions = int(np.sum(m != np.roll(m, 1)))
    return transitions == 2


def audit_bump_convexity(family: RadialLogistic, beta: float, rho,
                         constants: AuditConstants, grid_n: int,
                         cfg: IntegratorConfig, sample_x: int = 16):
    """A9 at one beta: the second base derivative on the pinch set exceeds s.

    Returns (entry, j0_mask); see ``_pinch_entries``, of which this is the
    one-beta case. Positivity is reported separately from the
    exp(b delta2 / 4) margin, which the theory only guarantees for large b.
    Empty pinch set (beta below the lower boundary parameter): not-applicable.
    """
    _require_radial(family)
    rho_v = as_rotation_vector(rho)
    mask = j0_region(family, beta, rho_v, constants, grid_n, cfg)
    return _pinch_entries(family, [beta], [mask], rho_v, constants, cfg, sample_x)[0], mask


def _pinch_entries(family, betas, masks, rho_v: RotationVector, constants: AuditConstants,
                   cfg: IntegratorConfig, sample_x: int) -> list:
    """One A9 entry per (beta, pinch mask) pair, from one full-channel return.

    Every (beta, x-level, pinch node) triple is one lane, so the adaptive step
    is paid once for all beta rather than once per beta and x-level. Within a
    beta the lanes run with the x-level outermost, so an exact tie resolves to
    the lowest x-level, as in a level-by-level scan.
    """
    lo, hi = constants.contraction_interval
    xs_levels = lo + (hi - lo) * (np.arange(sample_x) + 0.5) / sample_x
    groups = []
    for beta, mask in zip(betas, masks):
        nodes = _grid_nodes(mask.shape, mask.ndim)[mask.ravel()]
        groups.append((beta, np.tile(nodes, (sample_x, 1)), np.repeat(xs_levels, len(nodes))))
    results = (_merged_returns(family, rho_v, cfg, groups, "full")
               if any(mask.any() for mask in masks) else [(None, None)] * len(groups))
    entries = []
    for (beta, th, xs), mask, (y, esc) in zip(groups, masks, results):
        if not mask.any():
            entries.append(AuditEntry("A9", _A9, "not-applicable",
                                      {"j0_empty": True, "beta": float(beta)}, None))
            continue
        n_escaped = int(esc.sum())
        ex_min = _Extreme("min")
        ex_min.offer(y[5][~esc], th[~esc], xs[~esc], beta, "dtheta2")
        if ex_min.witness is None:
            entries.append(AuditEntry(
                "A9", _A9, "not-applicable",
                {"all_samples_escaped": True, "n_escaped": n_escaped, "beta": float(beta)},
                None,
            ))
            continue
        positive = ex_min.value > 0.0
        margin_ok = positive and math.log(ex_min.value) > constants.log_s
        measured = {
            "min_dtheta2": ex_min.value,
            "log_abs_min_dtheta2": _log_abs(ex_min.value),
            "positive_everywhere": positive,
            "log_bound": constants.log_s,
            "n_escaped": n_escaped,
            "beta": float(beta),
        }
        if positive:
            measured["margin_log"] = math.log(ex_min.value) - constants.log_s
        entries.append(AuditEntry("A9", _A9, "pass" if margin_ok else "fail",
                                  measured, ex_min.witness))
    return entries


# ------------------------------------------------------------ A11..A16


def audit_A11_A16(family: RadialLogistic, rho, beta_grid, constants: AuditConstants,
                  sample_n: int, cfg: IntegratorConfig, seed: int = 0):
    """Weak upper bounds on the remaining forward derivatives and the two
    reversed-map bounds on the bump-blind strip."""
    _require_radial(family)
    rho_v = as_rotation_vector(rho)
    omega = induce_frequency(rho_v).omega
    C_int = constants.contraction_interval
    G_int = constants.section_interval
    E_int = (-1.0, constants.e_top)

    ex_dth = _Extreme("max")        # A11 on Gamma & pre(Gamma)
    ex_dth2 = _Extreme("max")       # A12
    ex_mix_C = _Extreme("max")      # A13 case C
    ex_mix_G = _Extreme("max")      # A13 case Gamma
    ex_dxx_C = _Extreme("max")      # A14 case C
    ex_dxx_G = _Extreme("max")      # A14 case Gamma
    ex_inv_dxx = _Extreme("max")    # A15
    ex_inv_mix = _Extreme("max")    # A16

    for k, beta in enumerate(beta_grid):
        # the section samples (Gamma) and the C samples share one forward return
        groups = [(beta, *_region_samples(constants, sample_n, seed + 17 * k + 5, G_int)),
                  (beta, *_region_samples(constants, sample_n, seed + 17 * k + 6, C_int))]
        res_G, res_C = _merged_returns(family, rho_v, cfg, groups, "full")
        y, th, xs = _stayed(groups[0], res_G, G_int)
        ch = _channels(y)
        ex_dth.offer(np.abs(ch["dtheta"]), th, xs, beta, "dtheta")
        ex_dth2.offer(np.abs(ch["dtheta2"]), th, xs, beta, "dtheta2")
        ex_mix_G.offer(np.abs(ch["dtheta_dx"]), th, xs, beta, "dtheta_dx")
        ex_dxx_G.offer(np.abs(ch["dxx"]), th, xs, beta, "dxx")
        y, th, xs = _stayed(groups[1], res_C)
        ch = _channels(y)
        ex_mix_C.offer(np.abs(ch["dtheta_dx"]), th, xs, beta, "dtheta_dx")
        ex_dxx_C.offer(np.abs(ch["dxx"]), th, xs, beta, "dxx")

    # reversed map on the bump-blind strip: theta - omega outside I_0. The
    # reversed returns of every beta share one batch; the forward ones above
    # stay per beta, where a merged batch measured slower.
    groups = [(beta, *_region_samples(constants, sample_n, seed + 17 * k + 7, E_int,
                                      exclude_critical=True, shift=omega))
              for k, beta in enumerate(beta_grid)]
    for group, res in zip(groups, _merged_returns(family, rho_v, cfg, groups, "full",
                                                  reverse=True)):
        y, th, xs = _stayed(group, res)
        ch = _channels(y)
        ex_inv_dxx.offer(np.abs(ch["dxx"]), th, xs, group[0], "dxx_inverse")
        ex_inv_mix.offer(np.abs(ch["dtheta_dx"]), th, xs, group[0], "dtheta_dx_inverse")

    def log_entry(id_, statement, ex, bound_log, extra=None):
        measured_log = _log_abs(ex.value)
        ok = measured_log < bound_log
        m = {"max_abs": ex.value, "bound_log": bound_log}
        if ex.value == 0.0:
            m["exactly_zero"] = True  # -inf in log scale; trivially below any bound
        else:
            m["max_log_abs"] = measured_log
            m["margin_log"] = bound_log - measured_log
        if extra:
            m.update(extra)
        return AuditEntry(id_, statement, "pass" if ok else "fail", m, ex.witness)

    def two_case_entry(id_, statement, ex_C, bound_C, ex_G, bound_G):
        # one bound on C and one on the section; the witness is the tighter case's
        log_C, log_G = _log_abs(ex_C.value), _log_abs(ex_G.value)
        return AuditEntry(
            id_, statement, "pass" if (log_C < bound_C and log_G < bound_G) else "fail",
            {"max_log_abs_on_C": log_C, "bound_log_on_C": bound_C,
             "max_log_abs_on_section": log_G, "bound_log_on_section": bound_G,
             "margin_log": min(bound_C - log_C, bound_G - log_G)},
            ex_C.witness if bound_C - log_C <= bound_G - log_G else ex_G.witness,
        )

    e11 = log_entry("A11", "base derivative of the fibre maps stays below S",
                    ex_dth, constants.log_S)
    e12 = log_entry("A12", "second base derivative stays below S^2",
                    ex_dth2, 2.0 * constants.log_S)
    e13 = two_case_entry(
        "A13", "mixed base/x derivative below S*alpha_c on C and S*alpha_u^2 on the section",
        ex_mix_C, constants.log_S + constants.log_alpha_c,
        ex_mix_G, constants.log_S + 2.0 * constants.log_alpha_u)
    e14 = two_case_entry(
        "A14", "second x-derivative below alpha_c on C and alpha_u^2 on the section",
        ex_dxx_C, constants.log_alpha_c, ex_dxx_G, 2.0 * constants.log_alpha_u)
    e15 = log_entry("A15", "second x-derivative of the reversed map below 1/alpha_e "
                    "on the bump-blind expanding strip", ex_inv_dxx, -constants.log_alpha_e)
    e16 = log_entry("A16", "mixed derivative of the reversed map below S/alpha_e on the "
                    "bump-blind expanding strip (zero when the orbit never sees the bump)",
                    ex_inv_mix, constants.log_S - constants.log_alpha_e)
    return [e11, e12, e13, e14, e15, e16]


# ------------------------------------------------------------ gate


def gate_report(constants: AuditConstants, i0_measure: float, K: int, M: int,
                C_prime: float, eta: float, p: float = 2.0) -> GateReport:
    """Checkable inequalities of the SNA/SNR existence gate.

    The comparison constant kappa(alpha, q) and the threshold alpha_0 live in
    an external source and are never given explicitly; the gate reports the
    two log-scale terms whose difference bounds nu and flags both UNKNOWN.
    A positive log margin means nu > 0 for any kappa up to exp(margin).
    """
    if p < math.sqrt(2.0):
        raise AuditError("p must be at least sqrt(2)")
    if M < 2 or int(M) != M:
        raise AuditError("M must be an integer >= 2")
    if K < 1 or int(K) != K:
        raise AuditError("K must be a positive integer")
    q = 1.0 - 1.0 / K
    exponent_q = gate_exponent(K, p)
    if exponent_q <= 0.0:
        raise AuditError(
            f"K = {K} gives q = {q}: the exponent 2q^2/p - 5(1-q^2)p = "
            f"{exponent_q:.6g} must be positive"
        )
    log_alpha = constants.b * (1.0 + constants.c) / constants.rho_D
    ae = {
        "lhs_log_alpha_e": constants.log_alpha_e,
        "rhs_log": (2.0 / p) * log_alpha,
        "ok": constants.log_alpha_e >= (2.0 / p) * log_alpha,
    }
    au = {
        "lhs_log_alpha_u": constants.log_alpha_u,
        "rhs_log": p * log_alpha,
        "ok": constants.log_alpha_u <= p * log_alpha,
    }
    i0_rhs = C_prime * (2.0 * K * M) ** (-eta)
    i0 = {"lhs": 3.0 * i0_measure, "rhs": i0_rhs, "ok": 3.0 * i0_measure < i0_rhs}
    neg = 2.0 * constants.log_S - exponent_q * log_alpha
    return GateReport(
        p=float(p), K=int(K), M=int(M), q=q,
        log_alpha=log_alpha, exponent_q=exponent_q,
        alpha_e_condition=ae, alpha_u_condition=au, i0_condition=i0,
        nu_log_positive_term=constants.log_s,
        nu_log_negative_term=neg,
        nu_log_margin=constants.log_s - neg,
    )


# ------------------------------------------------------------ orchestration


# probes in the first pinch-set return of the upward search from beta_minus;
# each later return takes twice as many. Lanes at several beta share the step
# sequence, so a batch reaching far past the first hit costs more steps than
# one more return.
_PROBE_BATCH = 4
# the gate's defaults: run_audit's keyword values when the config leaves them out
GATE_DEFAULTS = {"K": 50, "M": 2, "p": 2.0, "eta": 2.0}
# frequency radius at which the empirical Diophantine constant C' is certified
CERT_RADIUS = 4096


def run_audit(family: RadialLogistic, rho, constants: AuditConstants, beta_grid,
              grid_n: int, sample_n: int, cfg: IntegratorConfig, seed: int = 0,
              K: int = GATE_DEFAULTS["K"], M: int = GATE_DEFAULTS["M"],
              p: float = GATE_DEFAULTS["p"], eta: float = GATE_DEFAULTS["eta"],
              C_prime: float | None = None) -> AuditReport:
    """Full sixteen-entry audit plus the gate summary.

    The boundary parameters of the admissible window are estimated first; the
    pinch-set entries (A6, A9) are audited on the supplied grid augmented with
    points inside [beta_minus, beta_plus] (at moderate b the window can be a
    hairline that no fixed grid would hit), and the crossing entry (A10) is
    evaluated just beyond beta_plus. When ``C_prime`` is not supplied, the
    empirical Diophantine constant of the induced section frequency at
    ``CERT_RADIUS`` is used (the exact constant of the reduction is stated
    only up to proportionality).

    Each phase carries all its beta on per-lane parameters, so the audit pays
    about the largest step count of a phase rather than the sum over its beta:
    the bounds make one return for the range's ends and then one per
    ``bifurcation.BOUNDS_LEVELS`` bisection rounds for both boundaries, over
    the nodes that can still fail; the pinch probes batches of
    ``_PROBE_BATCH``, then twice as many, and so on, one return each, until
    one probe registers a pinch set; the pinch masks one x-channel return and
    the pinch sets one full-channel return; A1-A3 one return and A4-A8 one;
    A11-A16 one forward return per beta and one reversed return.
    """
    _require_radial(family)
    rho_v = as_rotation_vector(rho)
    region = critical_region(constants, max(grid_n, 512))
    bounds = estimate_beta_bounds(family, rho_v, max(grid_n, 128), cfg,
                                  c=constants.c, tol_beta=1e-5)
    crossing_beta = None
    mask_of = {}  # beta -> pinch mask, each computed once
    extra = []
    if bounds.minus_fired:
        lo_r, hi_r = family.beta_range
        crossing_beta = min(bounds.beta_plus + 4.0 * bounds.tol, hi_r)
        # at moderate b the admissible window [beta_minus, beta_plus] can be a
        # hairline: probe upward from beta_minus until the pinch set registers
        # at grid resolution, then audit there and at two points just above
        probes = []
        probe, step = bounds.beta_minus, max(2.0 * bounds.tol, 1e-6)
        while len(probes) < 60 and probe <= hi_r:
            probes.append((probe, step))
            probe += step
            step *= 1.5
        start, size = 0, _PROBE_BATCH
        while start < len(probes) and not extra:
            batch = probes[start:start + size]
            found = j0_region(family, np.array([b for b, _ in batch]), rho_v, constants,
                              grid_n, cfg)
            hits = [k for k, mask in enumerate(found) if mask.any()]
            if hits:
                probe, step = batch[hits[0]]
                mask_of[probe] = found[hits[0]]
                extra = [probe, min(probe + 2.0 * step, hi_r), min(probe + 8.0 * step, hi_r)]
            start += size
            size *= 2
    j0_betas = sorted(set(float(b) for b in beta_grid) | set(extra))
    todo = [b for b in j0_betas if b not in mask_of]
    if todo:
        mask_of.update(zip(todo, j0_region(family, np.array(todo), rho_v, constants,
                                           grid_n, cfg)))

    entries = []
    entries += audit_A1_A3(family, rho_v, beta_grid, constants, sample_n, cfg, seed)
    a4a8 = audit_A4_A8(family, rho_v, beta_grid, constants, sample_n, cfg, seed,
                       crossing_beta=crossing_beta)

    # A6 and A9 from per-beta pinch sets
    masks = [(beta, mask_of[beta]) for beta in j0_betas]
    a9_entries = [e for e in _pinch_entries(family, j0_betas, [m for _, m in masks], rho_v,
                                            constants, cfg, sample_x=16)
                  if e.status != "not-applicable"]
    nested = all(
        bool(np.all(~m1 | m2))  # m1 subset of m2
        for (_, m1), (_, m2) in zip(masks, masks[1:])
    )
    convex = all(_mask_convex_circle(m) for _, m in masks if m.ndim == 1)
    nonempty = [b for b, m in masks if m.any()]
    e6 = AuditEntry(
        "A6", "the pinch set is closed and convex and grows with beta",
        "pass" if (nested and convex) else "fail",
        {"nested_along_beta_grid": nested, "convex_each_beta": convex,
         "first_nonempty_beta": nonempty[0] if nonempty else None,
         "node_counts": {f"{b:.6g}": int(m.sum()) for b, m in masks}},
        None,
    )
    if a9_entries:
        worst = min(a9_entries, key=lambda e: e.measured.get("margin_log", math.inf))
        e9 = worst
    else:
        e9 = AuditEntry(
            "A9", _A9, "not-applicable", {"j0_empty_for_all_sampled_beta": True}, None,
        )

    entries += [*a4a8, e6, e9]
    entries += audit_A11_A16(family, rho_v, beta_grid, constants, sample_n, cfg, seed)

    if C_prime is None:
        freq = induce_frequency(rho_v)
        cert = certify_diophantine(freq, C_const=1e-12, eta=eta, K_max=CERT_RADIUS)
        C_prime = cert.empirical_C
    gate = gate_report(constants, region.measure, K, M, C_prime, eta, p)

    order = {f"A{i}": i for i in range(1, 17)}
    entries.sort(key=lambda e: order[e.id])
    ids = [e.id for e in entries]
    if ids != [f"A{i}" for i in range(1, 17)]:
        raise AuditError(f"report incomplete: {ids}")
    return AuditReport(
        constants=constants, entries=entries, gate=gate,
        beta_grid=[float(b) for b in beta_grid], grid_n=grid_n,
        sample_n=sample_n, seed=seed, i0_measure=region.measure,
    )


def _require_radial(family):
    if not isinstance(family, RadialLogistic):
        raise AuditError("the audit targets the radial-bump quadratic family")


def format_report(report: AuditReport) -> str:
    """Human-readable fixed-width table."""
    lines = []
    lines.append(f"{'id':<5}{'status':<16}{'margin(log)':>14}  statement")
    for e in report.entries:
        margin = e.measured.get("margin_log")
        margin_s = f"{margin:+.4g}" if isinstance(margin, float) and math.isfinite(margin) else "-"
        lines.append(f"{e.id:<5}{e.status:<16}{margin_s:>14}  {e.statement}")
    g = report.gate
    lines.append("")
    lines.append(f"gate: p={g.p} K={g.K} M={g.M} q={g.q:.6g} log_alpha={g.log_alpha:.6g}")
    lines.append(f"  alpha_e >= alpha^(2/p): {g.alpha_e_condition}")
    lines.append(f"  alpha_u <= alpha^p:     {g.alpha_u_condition}")
    lines.append(f"  3|I0| < C'(2KM)^-eta:   {g.i0_condition}")
    lines.append(
        f"  nu terms (log): +{g.nu_log_positive_term:.6g} vs {g.nu_log_negative_term:.6g}"
        f" -> margin {g.nu_log_margin:+.6g} (kappa {g.kappa}, alpha_0 {g.alpha0})"
    )
    return "\n".join(lines)

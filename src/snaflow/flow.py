"""Adaptive integration of the fibre ODE with its variational equations.

The fibre coordinate obeys  dx/dt = F(theta0 + t*rho, x).  Alongside x we
co-integrate up to five derivative channels in an overflow-safe arrangement:

    y0 = x
    y1 = log dx_xi            dy1/dt = F_x
    y2 = d_theta xi           dy2/dt = F_th + F_x * y2
    y3 = d^2_x xi / dx_xi     dy3/dt = F_xx * exp(y1)
    y4 = d_th d_x xi / dx_xi  dy4/dt = F_thx + F_xx * y2
    y5 = d^2_th xi            dy5/dt = F_xx * y2^2 + F_thth + 2 F_thx y2 + F_x y5

The x-derivative lives in log scale because over one return it spans factors
like exp(+-2b(1+c)/rho_D); the two second derivatives involving d_x are stored
as ratios to dx_xi for the same reason. Reversed flow (negative t_final)
integrates the negated field along -rho, which is the exact inverse flow.

A fourth channel set, ``"mobius"``, integrates the fundamental matrix P of the
trace-free linear system whose projective action is the Riccati field,

    (p, q)' = [[a1/2, c(t)], [-a2, -a1/2]] (p, q),  c(t) = a0 - beta^p scale g,
    y = (P11, P12, P21, P22),  P(0) = I,

so x = p/q flows to (P11 x + P12)/(P21 x + P22) and det P = 1. Its escape
window is unbounded: the window bounds x, not p or q.

Every family is a Riccati field F = a2 x^2 + a1 x + a0 - beta^p scale g(theta),
and along a fibre theta = theta0 + t rho does not depend on the state. The
batch field is therefore built in two parts (``_batch_rhs``):

- a forcing part evaluates the shape g (its value and two base derivatives
  for ``"full"``) at the five new stage times of a DP5 step attempt in one
  vectorised call over (5, n, D);
- a state part ``rhs(y, f)`` is polynomial arithmetic on one stage's slice.

So a step attempt makes one shape call, not six. At a few hundred lanes a
step is mostly per-call overhead: a 256-lane step at b = 6 (best of 15
returns) took 130 us on the ``"x"`` channel and 270-280 us on ``"full"``,
against 190-210 us and 340-355 us with one shape call per stage (2 cores,
Python 3.11, numpy 2.4). Every lane is evaluated, repeated base points
included: evaluating only the distinct ones (the audit's merged returns put
2-16 lanes on each section node) cut the audit's median from 2.58 to 2.25 s
over ten paired runs, less than the 0.45 s between the quartiles of those
runs.

Two drivers share the Dormand-Prince 5(4) tableau: a numpy driver over a
batch of trajectories with one shared adaptive step (the error norm is taken
over the whole batch), and a plain-float driver that serves only
``integrate`` on theta-independent families, one trajectory with all six
channels, where per-call numpy overhead would dominate. Both are
deterministic. Everything else, the pullbacks of theta-independent families
included, runs on the batch driver.

The numpy integrator takes beta as one float or as one value per lane. Lanes at
different beta share the adaptive step, so a batch that mixes several beta
costs about the largest of their step counts rather than the sum of separate
calls. Each lane agrees with its own single-beta call to the integration
tolerance.

The plain-float driver stays for the oracle timing guard: on the flat
shape the forcing was never the cost, and a one-lane ``"full"`` batch step
still takes 3.7-3.9 times a plain-float step (140 against 36-37 us). The
closed-form oracle check (acceptance criterion 1, bound 1 s) takes 1.8 s on
the batch driver, against 0.2-0.5 s on the plain-float one, and that check
has run twice as slow on a loaded machine. The plain-float driver also
locates escape times by bisection, which the batch driver does not.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .fields import ForcedField, unit_direction
from .torus import RotationVector, TorusPoint

__all__ = [
    "IntegratorConfig",
    "AugmentedFlowState",
    "FlowBlowUp",
    "FlowEscape",
    "integrate",
    "check_cocycle",
    "inverse_check",
    "flow_batch",
    "FlowBatchResult",
]

# Dormand-Prince 5(4): 7 stages, FSAL, 5th-order propagation with embedded
# 4th-order error estimate.
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0


class FlowBlowUp(RuntimeError):
    """Step size collapsed: finite-time blow-up inside the bracketing times."""

    def __init__(self, t_low: float, t_high: float):
        super().__init__(f"finite-time blow-up bracketed in [{t_low}, {t_high}]")
        self.t_low = t_low
        self.t_high = t_high


class FlowEscape(RuntimeError):
    """A trajectory left the escape window where staying inside was required."""


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_step: float = math.inf
    escape_low: float = -10.0
    escape_high: float = 10.0
    method: str = "rk45"  # "rk45" adaptive or "rk4" fixed-step
    rk4_step: float = 1e-3

    def __post_init__(self):
        if self.rel_tol <= 0.0 or self.abs_tol <= 0.0:
            raise ValueError("tolerances must be positive")
        if not self.escape_low < self.escape_high:
            raise ValueError("escape window must satisfy escape_low < escape_high")
        if self.method not in ("rk45", "rk4"):
            raise ValueError(f"unknown method {self.method!r}")
        if not self.max_step > 0.0:
            raise ValueError("max_step must be positive")
        if self.method == "rk4" and not self.rk4_step > 0.0:
            raise ValueError("rk4_step must be positive")

    def with_escape(self, low: float, high: float) -> "IntegratorConfig":
        return replace(self, escape_low=low, escape_high=high)


@dataclass(frozen=True)
class AugmentedFlowState:
    """Fibre value and variational channels at time t (see module docstring)."""

    x: float
    log_dx: float
    dtheta: float
    dxx_ratio: float
    dtheta_dx_ratio: float
    dtheta2: float
    t: float
    escaped: bool = False
    escape_time: float | None = None

    @property
    def dx(self) -> float:
        """dx_xi = exp(log_dx) > 0."""
        return math.exp(self.log_dx)

    @property
    def dxx(self) -> float:
        return self.dxx_ratio * math.exp(self.log_dx)

    @property
    def dtheta_dx(self) -> float:
        return self.dtheta_dx_ratio * math.exp(self.log_dx)


@dataclass
class FlowBatchResult:
    y: np.ndarray            # (m, n) final channel values (frozen at escape)
    escaped: np.ndarray      # (n,) bool
    escape_times: np.ndarray  # (n,) nan where not escaped
    h_last: float
    n_steps: int             # step attempts, rejected ones included
    n_rejected: int          # attempts whose error ratio exceeded 1 (0 for rk4)


_CHANNEL_COUNT = {"x": 1, "xl": 2, "full": 6, "mobius": 4}
# stage times, as fractions of h, at which a DP5 step attempt needs new forcing
# values: c2..c6 (c7 = c6, and c1 is the last accepted step's c7 by FSAL)
_C_STEP = np.array(_C[1:6])
_C_RK4 = np.array([0.0, 0.5, 1.0])


def _batch_rhs(family: ForcedField, beta, theta0: np.ndarray, rho: np.ndarray,
               channels: str, direction, reverse: bool):
    """Build (forcing, rhs) for the batch drivers. theta0 has shape (n, D).

    Along a fibre theta = theta0 + t rho does not depend on the state, so the
    field splits into a forcing part and a state part:

    - ``forcing(ts)`` evaluates the forcing shape at the k times ``ts`` in one
      call over (k, n, D) and returns the forcing terms with a leading axis
      of k;
    - ``rhs(y, f)`` is the polynomial part at one of those times,
      ``f = forcing(ts)[i]``.

    ``beta`` is a float or an (n,) array; the forcing coefficient is then per
    lane and broadcasts against the shape function's values. The coefficients
    carry the sign of time. F_xx = 2 a2 is constant and F_{theta x} = 0 for
    every family, so the full channels carry no F_{theta x} terms.
    """
    if channels not in _CHANNEL_COUNT:
        raise ValueError(f"unknown channel set {channels!r}")
    sgn = -1.0 if reverse else 1.0
    rho_eff = sgn * rho
    shape_g, shape_triple = family.shape.g, family.shape.triple

    def theta_at(ts):
        return theta0 + ts[:, None, None] * rho_eff

    if channels == "mobius":
        half_a1, minus_a2 = 0.5 * sgn * family.a1, -sgn * family.a2
        a0, s = sgn * family.a0, sgn * family.forcing_scale(beta)

        def forcing(ts):
            return a0 - s * shape_g(theta_at(ts))

        def rhs(y, c):
            p1, p2, q1, q2 = y
            return np.stack([half_a1 * p1 + c * q1, half_a1 * p2 + c * q2,
                             minus_a2 * p1 - half_a1 * q1, minus_a2 * p2 - half_a1 * q2])
        return forcing, rhs
    poly, dpoly = family.polynomial(sgn)
    two_a2 = 2.0 * sgn * family.a2
    c = sgn * family.forcing_scale(beta)
    if channels == "full":
        def forcing(ts):
            g, g1, g2 = shape_triple(theta_at(ts), direction)
            return np.stack([c * g, c * g1, c * g2], axis=1)

        def rhs(y, f):
            cg, cg1, cg2 = f
            x, d2 = y[0], y[2]
            Fx = dpoly(x)
            return np.stack([
                poly(x) - cg,
                Fx,
                Fx * d2 - cg1,
                two_a2 * np.exp(y[1]),
                two_a2 * d2,
                two_a2 * d2 * d2 - cg2 + Fx * y[5],
            ])
        return forcing, rhs

    def forcing(ts):
        return c * shape_g(theta_at(ts))

    if channels == "x":
        def rhs(y, cg):
            return (poly(y[0]) - cg)[None, :]
    else:
        def rhs(y, cg):
            x = y[0]
            return np.stack([poly(x) - cg, dpoly(x)])
    return forcing, rhs


def _error_ratio(err, y_old, y_new, active, cfg):
    scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y_old), np.abs(y_new))
    with np.errstate(invalid="ignore", divide="ignore"):
        r = np.abs(err) / scale
    r = r[:, active]
    if r.size == 0:
        return 0.0
    m = float(np.max(r))
    return math.inf if not math.isfinite(m) else m


def _mark_escapes(y, active, esc_t, t: float, cfg: IntegratorConfig) -> bool:
    """Freeze the active lanes whose x left the escape window, stamped with t."""
    out = active & ((y[0] < cfg.escape_low) | (y[0] > cfg.escape_high))
    if not out.any():
        return False
    esc_t[out] = t
    active &= ~out
    return True


def _rk45_batch(forcing, rhs, t0: float, y0: np.ndarray, span: float, cfg: IntegratorConfig,
                h0: float | None = None):
    """Adaptive batch driver over t in [t0, t0 + span] (span > 0, internal time).

    Each step attempt makes one ``forcing`` call for its five new stage times;
    ``k1`` (and its forcing) is recomputed only at the start, after an escape
    and after a non-finite error ratio. Escape checks apply to channel 0;
    escaped trajectories freeze and leave the error norm. Returns
    (y, active, escape_times, h_last, n_steps, n_rejected), where n_steps
    counts attempts.
    """
    n = y0.shape[1]
    y = y0.copy()
    active = np.ones(n, dtype=bool)
    esc_t = np.full(n, np.nan)
    t = 0.0
    h_min = 1e-14 * max(abs(t0) + span, 1.0)
    h = min(cfg.max_step, span if h0 is None else max(h0, h_min), span)
    k1 = None
    n_steps = n_rejected = 0
    _mark_escapes(y, active, esc_t, t0, cfg)

    while t < span and active.any():
        h = min(h, span - t)
        if h < h_min:
            raise FlowBlowUp(t0 + t, t0 + t + h_min)
        if k1 is None:
            k1 = rhs(y, forcing(np.array([t0 + t]))[0])
        f = forcing(t0 + t + _C_STEP * h)
        with np.errstate(over="ignore", invalid="ignore"):
            k2 = rhs(y + h * (_A[1][0] * k1), f[0])
            k3 = rhs(y + h * (_A[2][0] * k1 + _A[2][1] * k2), f[1])
            k4 = rhs(y + h * (_A[3][0] * k1 + _A[3][1] * k2 + _A[3][2] * k3), f[2])
            k5 = rhs(y + h * (_A[4][0] * k1 + _A[4][1] * k2 + _A[4][2] * k3 + _A[4][3] * k4),
                     f[3])
            k6 = rhs(y + h * (_A[5][0] * k1 + _A[5][1] * k2 + _A[5][2] * k3 + _A[5][3] * k4
                              + _A[5][4] * k5), f[4])
            y_new = y + h * (_A[6][0] * k1 + _A[6][2] * k3 + _A[6][3] * k4 + _A[6][4] * k5
                             + _A[6][5] * k6)
            k7 = rhs(y_new, f[4])
            err = h * (_E[0] * k1 + _E[2] * k3 + _E[3] * k4 + _E[4] * k5 + _E[5] * k6
                       + _E[6] * k7)
            ratio = _error_ratio(err, y, y_new, active, cfg)
        n_steps += 1
        if ratio <= 1.0:
            # accept; frozen nodes keep their state
            y = np.where(active[None, :], y_new, y)
            t += h
            k1 = None if _mark_escapes(y, active, esc_t, t0 + t, cfg) else k7  # FSAL
            fac = _MAX_FACTOR if ratio == 0.0 else min(_MAX_FACTOR, _SAFETY * ratio**-0.2)
            h = min(h * fac, cfg.max_step)
        else:
            n_rejected += 1
            k1 = None if not math.isfinite(ratio) else k1
            fac = _MIN_FACTOR if not math.isfinite(ratio) else max(_MIN_FACTOR, _SAFETY * ratio**-0.2)
            h *= fac
    return y, active, esc_t, h, n_steps, n_rejected


def _rk4_batch(forcing, rhs, t0: float, y0: np.ndarray, span: float, cfg: IntegratorConfig):
    """Fixed-step classic RK4 batch driver (kept for convergence-order tests)."""
    y = y0.copy()
    n = y.shape[1]
    active = np.ones(n, dtype=bool)
    esc_t = np.full(n, np.nan)
    _mark_escapes(y, active, esc_t, t0, cfg)
    n_steps = max(1, math.ceil(span / cfg.rk4_step))
    h = span / n_steps
    t = 0.0
    for _ in range(n_steps):
        if not active.any():
            break
        f = forcing(t0 + t + _C_RK4 * h)
        with np.errstate(over="ignore", invalid="ignore"):
            k1 = rhs(y, f[0])
            k2 = rhs(y + 0.5 * h * k1, f[1])
            k3 = rhs(y + 0.5 * h * k2, f[1])
            k4 = rhs(y + h * k3, f[2])
            y_new = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        y = np.where(active[None, :], y_new, y)
        t += h
        _mark_escapes(y, active, esc_t, t0 + t, cfg)
    return y, active, esc_t, h, n_steps, 0


def _scalar_rhs(family: ForcedField, beta: float, reverse: bool):
    """Plain-float rhs of all six channels for a theta-independent family (list state)."""
    sgn = -1.0 if reverse else 1.0
    a2 = family.a2 * sgn
    rest = (family.a0 - family.forcing_scale(beta)) * sgn
    two_a2 = 2.0 * a2

    def rhs(t, y):
        x = y[0]
        fx = two_a2 * x
        return [
            a2 * x * x + rest,
            fx,
            fx * y[2],
            two_a2 * math.exp(y[1]),
            two_a2 * y[2],
            two_a2 * y[2] * y[2] + fx * y[5],
        ]
    return rhs


def _rk45_scalar(rhs, t0: float, y0: list, span: float, cfg: IntegratorConfig,
                 h0: float | None = None):
    """Float driver, same tableau and controller as the batch driver."""
    m = len(y0)
    y = list(y0)
    t = 0.0
    h_min = 1e-14 * max(abs(t0) + span, 1.0)
    h = min(cfg.max_step, span if h0 is None else max(h0, h_min), span)
    lo, hi = cfg.escape_low, cfg.escape_high
    atol, rtol = cfg.abs_tol, cfg.rel_tol
    if y[0] < lo or y[0] > hi:
        return y, False, t0, h, 0
    k = [None] * 7
    k[0] = rhs(t0, y)
    n_steps = 0
    while t < span:
        h = min(h, span - t)
        if h < h_min:
            raise FlowBlowUp(t0 + t, t0 + t + h_min)
        bad = False
        for s in range(1, 7):
            a = _A[s]
            ys = [y[j] + h * sum(a[i] * k[i][j] for i in range(s)) for j in range(m)]
            if s == 6:
                y_new = ys
            try:
                k[s] = rhs(t0 + t + _C[s] * h, ys)
            except OverflowError:
                bad = True
                break
            if not all(math.isfinite(v) for v in k[s]):
                bad = True
                break
        if bad:
            k[0] = rhs(t0 + t, y)
            h *= _MIN_FACTOR
            n_steps += 1
            continue
        ratio = 0.0
        for j in range(m):
            e = h * sum(_E[i] * k[i][j] for i in range(7))
            sc = atol + rtol * max(abs(y[j]), abs(y_new[j]))
            r = abs(e) / sc
            if r > ratio:
                ratio = r
        n_steps += 1
        if ratio <= 1.0:
            y_prev = y
            t_prev = t
            y = y_new
            t += h
            if y[0] < lo or y[0] > hi:
                t_esc = _refine_escape_scalar(rhs, t0, t_prev, y_prev, t, cfg)
                return y, False, t_esc, h, n_steps
            k[0] = k[6]
            fac = _MAX_FACTOR if ratio == 0.0 else min(_MAX_FACTOR, _SAFETY * ratio**-0.2)
            h = min(h * fac, cfg.max_step)
        else:
            h *= max(_MIN_FACTOR, _SAFETY * ratio**-0.2)
    return y, True, None, h, n_steps


def _refine_escape_scalar(rhs, t0, t_in, y_in, t_out, cfg, tol_scale=1e-12):
    """Bisect the first window crossing inside (t_in, t_out] by re-integration."""
    lo_t, hi_t = t_in, t_out
    tol = tol_scale * max(1.0, abs(t0 + t_out))
    wlo, whi = cfg.escape_low, cfg.escape_high
    for _ in range(80):
        if hi_t - lo_t <= tol:
            break
        mid = 0.5 * (lo_t + hi_t)
        y, _, _, _, _ = _rk45_scalar_plain(rhs, t0 + t_in, list(y_in), mid - t_in, cfg)
        if wlo <= y[0] <= whi:
            lo_t = mid
        else:
            hi_t = mid
    return t0 + 0.5 * (lo_t + hi_t)


def _rk45_scalar_plain(rhs, t0, y0, span, cfg):
    """Escape-blind variant used by the refinement bisection."""
    unbounded = replace(cfg, escape_low=-math.inf, escape_high=math.inf)
    return _rk45_scalar(rhs, t0, y0, span, unbounded)


def _rk4_scalar(rhs, t0: float, y0: list, span: float, cfg: IntegratorConfig):
    m = len(y0)
    y = list(y0)
    lo, hi = cfg.escape_low, cfg.escape_high
    n_steps = max(1, math.ceil(span / cfg.rk4_step))
    h = span / n_steps
    t = 0.0
    for _ in range(n_steps):
        k1 = rhs(t0 + t, y)
        k2 = rhs(t0 + t + 0.5 * h, [y[j] + 0.5 * h * k1[j] for j in range(m)])
        k3 = rhs(t0 + t + 0.5 * h, [y[j] + 0.5 * h * k2[j] for j in range(m)])
        k4 = rhs(t0 + t + h, [y[j] + h * k3[j] for j in range(m)])
        y = [y[j] + (h / 6.0) * (k1[j] + 2.0 * k2[j] + 2.0 * k3[j] + k4[j]) for j in range(m)]
        t += h
        if y[0] < lo or y[0] > hi:
            return y, False, t0 + t, h, n_steps
    return y, True, None, h, n_steps


def _as_rho(rho) -> np.ndarray:
    if isinstance(rho, RotationVector):
        return rho.rho
    return np.atleast_1d(np.asarray(rho, dtype=float))


def _as_base(theta, D) -> np.ndarray:
    th = theta.coords if isinstance(theta, TorusPoint) else np.atleast_1d(np.asarray(theta, dtype=float))
    if th.ndim == 1:
        th = th[None, :]
    if th.shape[1] != D:
        raise ValueError(f"base point needs {D} components, got {th.shape[1]}")
    return th


def flow_batch(family: ForcedField, beta, rho, theta0, x0, t_final: float,
               cfg: IntegratorConfig, channels: str = "x", direction=None,
               h0: float | None = None) -> FlowBatchResult:
    """Integrate a batch of fibres from t = 0 to t_final (may be negative).

    ``theta0`` is (n, D) on T^D, ``x0`` is (n,). ``beta`` is a float or an
    (n,) array, one parameter value per lane. All lanes share one adaptive
    step sequence (the error norm is the maximum over the batch), so a lane's
    result matches its own single-beta call to the integration tolerance, not
    bit for bit. Channel values of escaped
    trajectories are frozen at the step where the window was left. The
    ``"mobius"`` channels start from the identity matrix and never escape;
    ``x0`` then only sizes the batch. A (channels, n) ``x0`` holds the start
    values of every channel instead: a trajectory continues from a carried
    state (its base point then belongs to ``theta0``).
    """
    family.check_beta(beta)
    if channels not in _CHANNEL_COUNT:
        raise ValueError(f"unknown channel set {channels!r}")
    rho_v = _as_rho(rho)
    theta0 = np.asarray(theta0, dtype=float)
    m = _CHANNEL_COUNT[channels]
    x0 = np.asarray(x0, dtype=float)
    carried = x0.ndim == 2
    n = x0.shape[-1] if carried else np.atleast_1d(x0).size
    if theta0.shape != (n, rho_v.size) or (carried and x0.shape[0] != m):
        raise ValueError("theta0 must have shape (n, D) matching x0 and rho")
    if np.ndim(beta):
        beta = np.asarray(beta, dtype=float)
        if beta.shape != (n,):
            raise ValueError(f"an array beta needs one value per lane, shape ({n},)")
    if channels == "mobius":
        cfg = cfg.with_escape(-math.inf, math.inf)
    if carried:
        y0 = x0.copy()
    else:
        y0 = np.zeros((m, n))
        if channels == "mobius":
            y0[0] = y0[3] = 1.0
        else:
            y0[0] = np.atleast_1d(x0)
    reverse = t_final < 0.0
    span = abs(t_final)
    if span == 0.0:
        return FlowBatchResult(y0, np.zeros(n, bool), np.full(n, np.nan), 0.0, 0, 0)
    v = unit_direction(direction, family.D) if channels == "full" else None
    forcing, rhs = _batch_rhs(family, beta, theta0, rho_v, channels, v, reverse)
    if cfg.method == "rk4":
        y, act, esc_t, h_last, n_steps, n_rej = _rk4_batch(forcing, rhs, 0.0, y0, span, cfg)
    else:
        y, act, esc_t, h_last, n_steps, n_rej = _rk45_batch(forcing, rhs, 0.0, y0, span, cfg,
                                                            h0=h0)
    if reverse:
        esc_t = -esc_t
    return FlowBatchResult(y, ~act, esc_t, h_last, n_steps, n_rej)


def integrate(family: ForcedField, beta: float, rho, theta0, x0: float, t_final: float,
              cfg: IntegratorConfig, direction=None,
              start: AugmentedFlowState | None = None) -> AugmentedFlowState:
    """Flow one fibre with all six augmented channels to t_final.

    Negative t_final integrates the reversed flow. On escape the returned
    state carries the first time x left [escape_low, escape_high]; for
    theta-independent families that time is refined by bisection.

    ``start``, a state this function returned for the same (theta0, x0),
    continues that integration from ``start.t`` instead of from t = 0. Each
    channel obeys an ODE along the trajectory (the variational ones are
    linear in their own values), so carrying all six is exact.
    """
    family.check_beta(beta)
    t0 = 0.0 if start is None else start.t
    state0 = ([float(x0), 0.0, 0.0, 0.0, 0.0, 0.0] if start is None else
              [start.x, start.log_dx, start.dtheta, start.dxx_ratio,
               start.dtheta_dx_ratio, start.dtheta2])
    reverse = t_final < t0
    span = abs(t_final - t0)
    if span == 0.0:
        return AugmentedFlowState(*state0, t=t_final)
    if family.theta_independent:
        rhs = _scalar_rhs(family, beta, reverse)
        if cfg.method == "rk4":
            y, ok, t_esc, _, _ = _rk4_scalar(rhs, 0.0, state0, span, cfg)
        else:
            y, ok, t_esc, _, _ = _rk45_scalar(rhs, 0.0, state0, span, cfg)
        t_esc_signed = None if ok else t0 + (-t_esc if reverse else t_esc)
        return AugmentedFlowState(*y, t=t_final, escaped=not ok, escape_time=t_esc_signed)
    rho_v = _as_rho(rho)
    base = _as_base(theta0, rho_v.size) + t0 * rho_v
    res = flow_batch(family, beta, rho_v, base, np.array(state0)[:, None], t_final - t0, cfg,
                     channels="full", direction=direction)
    esc = bool(res.escaped[0])
    return AugmentedFlowState(
        *(float(res.y[j, 0]) for j in range(6)),
        t=t_final,
        escaped=esc,
        escape_time=t0 + float(res.escape_times[0]) if esc else None,
    )


def check_cocycle(family: ForcedField, beta: float, rho, theta, x: float,
                  t: float, tau: float, cfg: IntegratorConfig) -> float:
    """|xi(t+tau, theta, x) - xi(t, theta + tau*rho, xi(tau, theta, x))|."""
    rho_v = _as_rho(rho)
    th = _as_base(theta, rho_v.size)[0]
    whole = integrate(family, beta, rho_v, th, x, t + tau, cfg)
    first = integrate(family, beta, rho_v, th, x, tau, cfg)
    if whole.escaped or first.escaped:
        raise FlowEscape("cocycle legs must stay inside the escape window")
    second = integrate(family, beta, rho_v, th + tau * rho_v, first.x, t, cfg)
    if second.escaped:
        raise FlowEscape("cocycle legs must stay inside the escape window")
    return abs(whole.x - second.x)


def inverse_check(family: ForcedField, beta: float, rho, theta, x: float,
                  t: float, cfg: IntegratorConfig) -> float:
    """|xi^-(t, t*rho + theta, xi(t, theta, x)) - x|: forward then backward."""
    rho_v = _as_rho(rho)
    th = _as_base(theta, rho_v.size)[0]
    fwd = integrate(family, beta, rho_v, th, x, t, cfg)
    if fwd.escaped:
        raise FlowEscape("forward leg escaped")
    back = integrate(family, beta, rho_v, th + t * rho_v, fwd.x, -t, cfg)
    if back.escaped:
        raise FlowEscape("backward leg escaped")
    return abs(back.x - float(x))

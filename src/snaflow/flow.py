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
step is mostly per-call overhead, and two layouts keep it down:

- the stage thetas are built axis-major, (D, k, n), and the shape gets
  their (k, n, D) view. Every elementwise pass of the shape then runs over
  contiguous lanes instead of inner loops of length D = 2; on C-ordered
  thetas the bump forcing took twice as long.
- each ``rhs`` and the ``"full"`` forcing write their rows into one
  ``np.empty`` result. ``np.stack`` took about half the time of the seven
  ``"full"`` field evaluations.

Neither changes the order of any floating-point operation, so the step
sequences are bit for bit those of C-ordered thetas and stacked rows. A
256-lane step attempt of a b = 6 return (best of 15 returns, CPU time) takes
100-105 us on ``"x"``, 220-230 us on ``"full"`` and 165-175 us on
``"mobius"``, against 140-155, 295-310 and 235-250 us with C-ordered thetas
and stacked rows (2 shared cores, Python 3.11, numpy 2.4).

Every lane is evaluated, repeated base points included: evaluating only the
distinct ones (the audit's merged returns put 2-16 lanes on each section
node) cut the audit's median from 2.58 to 2.25 s over ten paired runs, less
than the 0.45 s between the quartiles of those runs.

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
still takes about four times a plain-float step (130-150 against 36-37 us). The
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
from .torus import TorusPoint, as_rotation_vector

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
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
# relative width of the time bracket at which the escape bisection stops
_ESCAPE_TIME_TOL = 1e-12


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
    escape_low: float = -10.0
    escape_high: float = 10.0

    def __post_init__(self):
        if self.rel_tol <= 0.0 or self.abs_tol <= 0.0:
            raise ValueError("tolerances must be positive")
        if not self.escape_low < self.escape_high:
            raise ValueError("escape window must satisfy escape_low < escape_high")

    def with_escape(self, low: float, high: float) -> "IntegratorConfig":
        return replace(self, escape_low=low, escape_high=high)


def times_dx(ratio, log_dx):
    """A channel stored as its ratio to dx_xi (y3, y4), times dx_xi = exp(log_dx)."""
    return ratio * np.exp(log_dx)


class RatioChannels:
    """dx, dxx and dtheta_dx of a state that stores log_dx and the two ratios to dx."""

    @property
    def dx(self) -> float:
        """dx_xi = exp(log_dx) > 0."""
        return math.exp(self.log_dx)

    @property
    def dxx(self) -> float:
        return float(times_dx(self.dxx_ratio, self.log_dx))

    @property
    def dtheta_dx(self) -> float:
        return float(times_dx(self.dtheta_dx_ratio, self.log_dx))


@dataclass(frozen=True)
class AugmentedFlowState(RatioChannels):
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


@dataclass
class FlowBatchResult:
    y: np.ndarray            # (m, n) final channel values (frozen at escape)
    escaped: np.ndarray      # (n,) bool
    escape_times: np.ndarray  # (n,) nan where not escaped
    n_steps: int             # step attempts, rejected ones included
    n_rejected: int          # attempts whose error ratio exceeded 1


_CHANNEL_COUNT = {"x": 1, "xl": 2, "full": 6, "mobius": 4}
# stage times, as fractions of h, at which a DP5 step attempt needs new forcing
# values: c2..c6 (c7 = c6, and c1 is the last accepted step's c7 by FSAL)
_C_STEP = np.array(_C[1:6])


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
    rho_eff = (sgn * rho).tolist()
    theta0_t = np.ascontiguousarray(theta0.T)
    shape_g, shape_triple = family.shape.g, family.shape.triple

    def theta_at(ts):
        # axis-major (D, k, n), handed out as its (k, n, D) view: see the
        # module docstring before making it C-ordered again
        buf = np.empty((len(rho_eff), ts.size, theta0_t.shape[1]))
        for j, r in enumerate(rho_eff):
            np.add(theta0_t[j], ts[:, None] * r, out=buf[j])
        return buf.transpose(1, 2, 0)

    # rows are written into one np.empty result, not np.stack-ed (module docstring)
    if channels == "mobius":
        half_a1, minus_a2 = 0.5 * sgn * family.a1, -sgn * family.a2
        a0, s = sgn * family.a0, sgn * family.forcing_scale(beta)

        def forcing(ts):
            return a0 - s * shape_g(theta_at(ts))

        def rhs(y, c):
            p1, p2, q1, q2 = y
            out = np.empty_like(y)
            out[0] = half_a1 * p1 + c * q1
            out[1] = half_a1 * p2 + c * q2
            out[2] = minus_a2 * p1 - half_a1 * q1
            out[3] = minus_a2 * p2 - half_a1 * q2
            return out
        return forcing, rhs
    poly, dpoly = family.polynomial(sgn)
    two_a2 = 2.0 * sgn * family.a2
    c = sgn * family.forcing_scale(beta)
    if channels == "full":
        def forcing(ts):
            g, g1, g2 = shape_triple(theta_at(ts), direction)
            out = np.empty((ts.size, 3, theta0_t.shape[1]))
            np.multiply(c, g, out=out[:, 0])
            np.multiply(c, g1, out=out[:, 1])
            np.multiply(c, g2, out=out[:, 2])
            return out

        def rhs(y, f):
            cg, cg1, cg2 = f
            x, d2 = y[0], y[2]
            Fx = dpoly(x)
            out = np.empty_like(y)
            np.subtract(poly(x), cg, out=out[0])
            out[1] = Fx
            np.subtract(Fx * d2, cg1, out=out[2])
            np.multiply(two_a2, np.exp(y[1]), out=out[3])
            np.multiply(two_a2, d2, out=out[4])
            np.add(two_a2 * d2 * d2 - cg2, Fx * y[5], out=out[5])
            return out
        return forcing, rhs

    def forcing(ts):
        return c * shape_g(theta_at(ts))

    if channels == "x":
        def rhs(y, cg):
            return (poly(y[0]) - cg)[None, :]
    else:
        def rhs(y, cg):
            x = y[0]
            out = np.empty_like(y)
            np.subtract(poly(x), cg, out=out[0])
            out[1] = dpoly(x)
            return out
    return forcing, rhs


def _error_ratio(err, y_old, y_new, active, cfg):
    """Max over the active lanes of |err| / (abs_tol + rel_tol max(|y_old|, |y_new|)).

    ``active`` is a lane mask, or None when every lane is active.
    """
    scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y_old), np.abs(y_new))
    lane_max = (np.abs(err) / scale).max(axis=0)
    m = float(lane_max.max() if active is None else lane_max[active].max())
    return math.inf if not math.isfinite(m) else m


def _mark_escapes(y, active, esc_t, t: float, cfg: IntegratorConfig) -> bool:
    """Freeze the active lanes whose x left the escape window, stamped with t."""
    out = active & ((y[0] < cfg.escape_low) | (y[0] > cfg.escape_high))
    if not out.any():
        return False
    esc_t[out] = t
    active &= ~out
    return True


def _rk45_batch(forcing, rhs, y0: np.ndarray, span: float, cfg: IntegratorConfig,
                h0: float | None = None):
    """Adaptive batch driver over t in [0, span] (span > 0, internal time).

    The first attempt takes the step size ``h0`` (clipped to [h_min, span]),
    or the whole span without one. Each step attempt makes one ``forcing``
    call for its five new stage times; ``k1`` (and its forcing) is recomputed
    only at the start, after an escape and after a non-finite error ratio.
    Escape checks apply to channel 0; escaped trajectories freeze and leave
    the error norm. Returns (y, active, escape_times, h_next, n_steps,
    n_rejected), where h_next is the step size the next attempt would take and
    n_steps counts attempts.
    """
    n = y0.shape[1]
    y = y0.copy()
    active = np.ones(n, dtype=bool)
    esc_t = np.full(n, np.nan)
    t = 0.0
    h_min = 1e-14 * max(span, 1.0)
    h = span if h0 is None else min(max(h0, h_min), span)
    k1 = None
    n_steps = n_rejected = 0
    all_active = not _mark_escapes(y, active, esc_t, 0.0, cfg)

    # one error-state scope for the whole loop, not one per attempt: a trial
    # stage may overflow, and the error ratio then rejects the step
    with np.errstate(over="ignore", invalid="ignore"):
        while t < span and active.any():
            h = min(h, span - t)
            if h < h_min:
                raise FlowBlowUp(t, t + h_min)
            f = forcing(t + _C_STEP * h)
            if k1 is None:
                k1 = rhs(y, forcing(np.array([t]))[0])
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
            ratio = _error_ratio(err, y, y_new, None if all_active else active, cfg)
            n_steps += 1
            if ratio <= 1.0:
                # accept; frozen nodes keep their state
                y = y_new if all_active else np.where(active[None, :], y_new, y)
                t += h
                if _mark_escapes(y, active, esc_t, t, cfg):
                    all_active, k1 = False, None
                else:
                    k1 = k7  # FSAL
                fac = _MAX_FACTOR if ratio == 0.0 else min(_MAX_FACTOR, _SAFETY * ratio**-0.2)
                h *= fac
            else:
                n_rejected += 1
                k1 = None if not math.isfinite(ratio) else k1
                fac = (_MIN_FACTOR if not math.isfinite(ratio)
                       else max(_MIN_FACTOR, _SAFETY * ratio**-0.2))
                h *= fac
    return y, active, esc_t, h, n_steps, n_rejected


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


def _rk45_scalar(rhs, t0: float, y0: list, span: float, cfg: IntegratorConfig):
    """Float driver, same tableau and controller as the batch driver."""
    m = len(y0)
    y = list(y0)
    t = 0.0
    h_min = 1e-14 * max(abs(t0) + span, 1.0)
    h = span
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
            h *= fac
        else:
            h *= max(_MIN_FACTOR, _SAFETY * ratio**-0.2)
    return y, True, None, h, n_steps


def _refine_escape_scalar(rhs, t0, t_in, y_in, t_out, cfg):
    """Bisect the first window crossing inside (t_in, t_out] by re-integration."""
    lo_t, hi_t = t_in, t_out
    tol = _ESCAPE_TIME_TOL * max(1.0, abs(t0 + t_out))
    wlo, whi = cfg.escape_low, cfg.escape_high
    unbounded = cfg.with_escape(-math.inf, math.inf)
    for _ in range(80):
        if hi_t - lo_t <= tol:
            break
        mid = 0.5 * (lo_t + hi_t)
        y, _, _, _, _ = _rk45_scalar(rhs, t0 + t_in, list(y_in), mid - t_in, unbounded)
        if wlo <= y[0] <= whi:
            lo_t = mid
        else:
            hi_t = mid
    return t0 + 0.5 * (lo_t + hi_t)


def _as_base(theta, D) -> np.ndarray:
    th = theta.coords if isinstance(theta, TorusPoint) else np.atleast_1d(np.asarray(theta, dtype=float))
    if th.ndim == 1:
        th = th[None, :]
    if th.shape[1] != D:
        raise ValueError(f"base point needs {D} components, got {th.shape[1]}")
    return th


def flow_batch(family: ForcedField, beta, rho, theta0, x0, t_final,
               cfg: IntegratorConfig, channels: str = "x", direction=None) -> FlowBatchResult:
    """Integrate a batch of fibres, each from t = 0 to its own end time.

    ``theta0`` is (n, D) on T^D and ``x0`` is (n,) with no NaN. ``beta`` and
    ``t_final`` are each a float or an (n,) array, one value per lane. The end
    times share one sign; negative ones integrate the reversed flow. All lanes
    share one adaptive step sequence (the error norm is the maximum over the
    batch), so a lane's result matches its own single-beta, single-end-time
    call to the integration tolerance, not bit for bit. Lanes sorted by end
    time drop out as the flow passes it: one ``_rk45_batch`` call per distinct
    end time on the lanes still flowing, started from their base points moved
    by the time already flowed and from the step size the previous call
    reached. Channel values of escaped trajectories are frozen at the step
    where the window was left, and ``escape_times`` holds each lane's first
    escape time from t = 0; a lane whose end time is 0 returns its start,
    not escaped. The ``"mobius"`` channels start from the identity matrix and
    never escape; ``x0`` then only sizes the batch.
    """
    family.check_beta(beta)
    if channels not in _CHANNEL_COUNT:
        raise ValueError(f"unknown channel set {channels!r}")
    rho_v = as_rotation_vector(rho).rho
    theta0 = np.asarray(theta0, dtype=float)
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    n = x0.size
    if x0.ndim != 1 or theta0.shape != (n, rho_v.size):
        raise ValueError("theta0 must have shape (n, D) matching x0 and rho")
    if np.ndim(beta):
        beta = np.asarray(beta, dtype=float)
        if beta.shape != (n,):
            raise ValueError(f"an array beta needs one value per lane, shape ({n},)")
    t_final = np.asarray(t_final, dtype=float)
    if t_final.ndim and t_final.shape != (n,):
        raise ValueError(f"an array t_final needs one value per lane, shape ({n},)")
    reverse = bool((t_final < 0.0).any())
    if reverse and (t_final > 0.0).any():
        raise ValueError("t_final mixes forward and reversed lanes")
    y = np.zeros((_CHANNEL_COUNT[channels], n))
    if channels == "mobius":
        cfg = cfg.with_escape(-math.inf, math.inf)
        y[0] = y[3] = 1.0
    else:
        nan = np.flatnonzero(np.isnan(x0))
        if nan.size:
            raise ValueError(f"x0 is NaN at lane {nan[0]}")
        y[0] = x0
    v = unit_direction(direction, family.D) if channels == "full" else None
    sgn = -1.0 if reverse else 1.0
    span = np.broadcast_to(np.abs(t_final), (n,))
    # a float t_final leaves the lanes in place: no sort, and no copies by it
    order = np.argsort(span, kind="stable") if t_final.ndim else slice(None)
    span, theta0, y = span[order], theta0[order], y[:, order]
    if np.ndim(beta):
        beta = beta[order]
    esc_t = np.full(n, np.nan)
    done, h, n_steps, n_rej = 0.0, None, 0, 0
    for end in np.unique(span[span > 0.0]).tolist():
        live = slice(int(np.searchsorted(span, end)), None)   # lanes still flowing
        forcing, rhs = _batch_rhs(family, beta[live] if np.ndim(beta) else beta,
                                  theta0[live] + sgn * done * rho_v, rho_v, channels, v,
                                  reverse)
        y[:, live], _, t_out, h, steps, rej = _rk45_batch(forcing, rhs, y[:, live],
                                                          end - done, cfg, h0=h)
        esc_t[live] = np.fmin(esc_t[live], done + t_out)   # a lane's first escape
        n_steps, n_rej, done = n_steps + steps, n_rej + rej, end
    out = np.empty_like(y)
    out[:, order] = y
    esc_out = np.empty(n)
    esc_out[order] = sgn * esc_t
    return FlowBatchResult(out, ~np.isnan(esc_out), esc_out, n_steps, n_rej)


def integrate(family: ForcedField, beta: float, rho, theta0, x0: float, t_final: float,
              cfg: IntegratorConfig, direction=None) -> AugmentedFlowState:
    """Flow one fibre with all six augmented channels to t_final.

    Negative t_final integrates the reversed flow. On escape the returned
    state carries the first time x left [escape_low, escape_high]; for
    theta-independent families that time is refined by bisection.
    """
    family.check_beta(beta)
    state0 = [float(x0), 0.0, 0.0, 0.0, 0.0, 0.0]
    if t_final == 0.0:
        return AugmentedFlowState(*state0, t=t_final)
    if family.theta_independent:
        reverse = t_final < 0.0
        rhs = _scalar_rhs(family, beta, reverse)
        y, ok, t_esc, _, _ = _rk45_scalar(rhs, 0.0, state0, abs(t_final), cfg)
        t_esc_signed = None if ok else (-t_esc if reverse else t_esc)
        return AugmentedFlowState(*y, t=t_final, escaped=not ok, escape_time=t_esc_signed)
    rho_v = as_rotation_vector(rho).rho
    res = flow_batch(family, beta, rho_v, _as_base(theta0, rho_v.size), [x0], t_final, cfg,
                     channels="full", direction=direction)
    esc = bool(res.escaped[0])
    return AugmentedFlowState(
        *(float(res.y[j, 0]) for j in range(6)),
        t=t_final,
        escaped=esc,
        escape_time=float(res.escape_times[0]) if esc else None,
    )


def check_cocycle(family: ForcedField, beta: float, rho, theta, x: float,
                  t: float, tau: float, cfg: IntegratorConfig) -> float:
    """|xi(t+tau, theta, x) - xi(t, theta + tau*rho, xi(tau, theta, x))|."""
    rho_v = as_rotation_vector(rho).rho
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
    rho_v = as_rotation_vector(rho).rho
    th = _as_base(theta, rho_v.size)[0]
    fwd = integrate(family, beta, rho_v, th, x, t, cfg)
    if fwd.escaped:
        raise FlowEscape("forward leg escaped")
    back = integrate(family, beta, rho_v, th + t * rho_v, fwd.x, -t, cfg)
    if back.escaped:
        raise FlowEscape("backward leg escaped")
    return abs(back.x - float(x))

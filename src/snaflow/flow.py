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

One driver, ``_rk45_batch``, integrates every DP5 leg: a batch of
trajectories with one shared adaptive step (the error norm is taken over the
whole batch), deterministic. ``integrate`` is one lane of ``flow_batch``;
there is no plain-float path.

The integrator takes beta as one float or as one value per lane. Lanes at
different beta share the adaptive step, so a batch that mixes several beta
costs about the largest of their step counts rather than the sum of separate
calls. Each lane agrees with its own single-beta call to the integration
tolerance.

A forcing with compact support (``BumpShape``: the radial and logistic
families) vanishes off the bump, and a flat one (``FlatShape``, g = 1) is the
constant beta^p scale everywhere. Off the bump, and everywhere on a flat field
at a float beta, the field is the autonomous Riccati equation
a2 x^2 + a1 x + a0 (a0 less beta^p scale on a flat field), whose flow has a
closed form. With two real roots it is written a (x - r1)(x - r2), r1
attracting, and
x(t) = r2 + (r1 - r2) p / (p + (1 - p) e^{-kappa t}), p = (x0 - r2)/(r1 - r2):
at p = 0 and p = 1 this keeps the equilibria r2 and r1 exactly (a cosh/sinh
matrix form moved -1 to -1 + 1.2e-10). ``flow_batch`` therefore cuts each
lane's span at its chord times through the support (``_chords``), carries
the legs off the bump in closed form and composes their channels by the
chain rule (``_riccati_leg``), and runs DP5 only on the chords, each lane on
its own clock over t in [0, 1] (``_flow_legs``), so that no step of any lane
contains a crossing of the support's edge. There the C^2 bump's g'' has a
kink, and one shared whole-span step had to resolve it wherever any lane
crossed: the forward A11-A16 return of the b = 6 audit at beta = 0.78 made
2,313 attempts, 797 of them rejected, and the seed-1 audit's 16 returns
10,814 (1,122 rejected), against 5,205 (148) on the chords, where that
A11-A16 return makes 465 attempts, 43 of them rejected. The legs follow the
classical advice to integrate between a forcing's breakpoints (Hairer,
Norsett & Wanner, Solving ODEs I, II.6). Lanes that never meet the bump make
no DP5 step, and neither does a flat field, which has no breakpoints: each
lane is one closed-form leg over its span. The ``"mobius"`` channels, the
cos11 shape, a flat field at an array beta and polynomials without two
distinct real roots keep the whole-span DP5 path.

Escapes are also proven on the chords (``_escape_proof``). Every built-in
bump has g >= 0, so where the forcing coefficient pushes away from the
attractor the forced field is bounded on that side by the forcing-free one,
and by the comparison theorem for scalar ODEs (Walter, Differential and
Integral Inequalities, 1970) a lane that the closed form carries out of the
window leaves it no later. At a chord's start and after each accepted step,
a lane beyond the repeller whose forcing-free crossing time fits in its
remaining time is frozen as escaped, stamped with that upper bound. Such
lanes used to set the shared step all the way from the repeller to the
window, although the readers of an escaped lane (the section's escape
score, the audit's lane filters) read only its flag and side. The seed-1
audit makes 2,773 attempts in 15 returns instead of 5,205 in 16 (one return
fewer: A2 joined A1/A3), with the same escape flags on every return.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .fields import BumpShape, ForcedField, unit_direction
from .torus import TorusPoint, as_rotation_vector, nearest_lift_offset

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
    """Fibre value and variational channels at time t (see module docstring).

    ``escape_time``, set when ``escaped``, is ``flow_batch``'s stamp: a time by
    which x left the window, exact on a closed-form leg, the end of the first
    step outside the window on a DP5 leg, and an upper bound where an escape
    is proven.
    """

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
               channels: str, direction, reverse: bool, clock=None):
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

    ``clock``, an (n,) array of positive durations, gives each lane its own
    unit of time: lane i's field and base velocity are multiplied by
    clock[i], so t in [0, 1] covers clock[i] of its flow (the chord legs of
    ``_flow_legs``). Not for ``"mobius"``.
    """
    sgn = -1.0 if reverse else 1.0
    if clock is not None:
        sgn = sgn * clock
    rho_eff = [sgn * r for r in rho.tolist()]
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


def _freeze(y, active, esc_t, t: float, cfg: IntegratorConfig, prove) -> bool:
    """Freeze the lanes that left the window by t, then those ``prove`` shows will."""
    seen = _mark_escapes(y, active, esc_t, t, cfg)
    return (prove is not None and prove(y, active, esc_t, t)) or seen


def _rk45_batch(forcing, rhs, y0: np.ndarray, span: float, cfg: IntegratorConfig,
                h0: float | None = None, prove=None):
    """Adaptive batch driver over t in [0, span] (span > 0, internal time).

    The first attempt takes the step size ``h0`` (clipped to [h_min, span]),
    or the whole span without one. Each step attempt makes one ``forcing``
    call for its five new stage times; ``k1`` (and its forcing) is recomputed
    only at the start, after an escape and after a non-finite error ratio.
    Escape checks apply to channel 0; escaped trajectories freeze and leave
    the error norm. ``prove(y, active, esc_t, t)``, if given, runs after those
    checks at the start and after every accepted step: it freezes the active
    lanes it can show will escape, writes their x and escape times (internal
    time, possibly past span), and returns whether it froze any
    (``_escape_proof``). Returns (y, active, escape_times, h_next, n_steps,
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
    all_active = not _freeze(y, active, esc_t, 0.0, cfg, prove)

    # one error-state scope for the whole loop, not one per attempt: a trial
    # stage may overflow, and the error ratio then rejects the step
    with np.errstate(over="ignore", invalid="ignore"):
        while t < span and active.any():
            # a step clipped to the end of the span is not a collapse
            if h >= span - t:
                h = span - t
            elif h < h_min:
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
                if _freeze(y, active, esc_t, t, cfg, prove):
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


def _as_base(theta, D) -> np.ndarray:
    th = theta.coords if isinstance(theta, TorusPoint) else np.atleast_1d(np.asarray(theta, dtype=float))
    if th.ndim == 1:
        th = th[None, :]
    if th.shape[1] != D:
        raise ValueError(f"base point needs {D} components, got {th.shape[1]}")
    return th


def _riccati_roots(family: ForcedField, sgn: float, offset: float = 0.0):
    """(r1, r2, kappa) with sgn (a2 x^2 + a1 x + a0 - offset) = a (x - r1)(x - r2),
    where r1 attracts and kappa = -a (r1 - r2) > 0; None without two distinct real
    roots. ``offset`` is a flat field's constant forcing beta^p scale, and 0 for
    the legs off a bump, where the forcing vanishes.

    The roots are the vertex -a1/(2 a2) plus and minus the half-width, the
    small one taken as the product of the roots over the big one: both
    are exact on the radial family (+-1) and the logistic one's 0.
    """
    a2, a1, a0 = sgn * family.a2, sgn * family.a1, sgn * (family.a0 - offset)
    if a2 == 0.0:
        return None
    vertex, product = -a1 / (2.0 * a2), a0 / a2
    half_sq = vertex * vertex - product
    if not half_sq > 0.0:
        return None
    big = vertex + math.copysign(math.sqrt(half_sq), vertex)
    small = product / big
    r1, r2 = (big, small) if a2 * (big - small) < 0.0 else (small, big)
    return r1, r2, -a2 * (r1 - r2)


def _chords(shape: BumpShape, theta0: np.ndarray, vel: np.ndarray, span: np.ndarray):
    """Entry and exit times of the lanes' paths theta0 + t vel, 0 <= t <= span, through
    the bump's support: (t_in, t_out), each (n, C), sorted and NaN-padded.

    The support is the union of the disjoint balls |theta - center - k| < R,
    k in Z^D. The path is cut into P pieces over which no coordinate moves by
    more than 1, so over a piece whose offsets from the center span [lo, hi]
    in coordinate j only the balls at k_j = floor(lo - R) + 1 and + 2 can be
    met: 2^D candidates per piece. A candidate's chord is the root pair of
    |w0 - k + t vel|^2 = R^2 clipped to [0, span]; the same ball met from
    two pieces gives the same bits and is kept once. C is the largest number
    of chords of a lane.
    """
    n, D = theta0.shape
    R = shape.bump.R_support
    w0 = nearest_lift_offset(theta0, shape.center)
    speed2 = float(vel @ vel)
    pieces = max(1, math.ceil(float(span.max(initial=0.0)) * float(np.abs(vel).max())))
    corners = np.array(list(itertools.product((1.0, 2.0), repeat=D)))
    lanes, ins, outs = [], [], []
    for p in range(pieces):
        ends = (w0 + np.multiply.outer(span * (p / pieces), vel),
                w0 + np.multiply.outer(span * ((p + 1) / pieces), vel))
        k = np.floor(np.minimum(*ends) - R)[:, None, :] + corners
        w = w0[:, None, :] - k
        b = w @ vel
        disc = b * b - speed2 * ((w * w).sum(axis=-1) - R * R)
        root = np.sqrt(np.maximum(disc, 0.0))
        t_a = np.maximum((-b - root) / speed2, 0.0)
        t_b = np.minimum((-b + root) / speed2, span[:, None])
        i, j = np.nonzero((disc > 0.0) & (t_b > t_a))
        lanes.append(i)
        ins.append(t_a[i, j])
        outs.append(t_b[i, j])
    lane, t_in, t_out = (np.concatenate(a) for a in (lanes, ins, outs))
    order = np.lexsort((t_out, t_in, lane))
    lane, t_in, t_out = lane[order], t_in[order], t_out[order]
    new = np.ones(lane.size, dtype=bool)
    new[1:] = (lane[1:] != lane[:-1]) | (t_in[1:] != t_in[:-1]) | (t_out[1:] != t_out[:-1])
    lane, t_in, t_out = lane[new], t_in[new], t_out[new]
    rank = np.arange(lane.size) - np.searchsorted(lane, lane)
    C = int(rank.max()) + 1 if lane.size else 0
    table_in, table_out = np.full((n, C), np.nan), np.full((n, C), np.nan)
    table_in[lane, rank] = t_in
    table_out[lane, rank] = t_out
    return table_in, table_out


def _riccati_flow(y: np.ndarray, p, dt, roots):
    """y's channels (m, k) after a forcing-free leg of duration dt, and the leg's q.

    With p = (x0 - r2)/(r1 - r2), e = exp(-kappa dt) and q = p + (1 - p) e,
    x = r2 + (r1 - r2) p/q; the leg's own log dx is -kappa dt - 2 log q and
    its d^2_x/d_x ratio -2 (1 - e)/((r1 - r2) q). log q is summed from log p
    and log(1 - p) - kappa dt, so the equilibria p = 0 and p = 1 give
    log dx = kappa dt and -kappa dt exactly, with no exp/log rounding and no
    underflow. Off the bump F_theta = F_thth = 0, so the leg's own d_theta
    channels are 0, and leg A (y) followed by leg B (the closed form)
    composes as y1 = yA1 + yB1, y2 = e^yB1 yA2, y3 = yB3 e^yA1 + yA3,
    y4 = yB3 yA2 + yA4 and y5 = e^yB1 (yB3 yA2^2 + yA5).
    """
    r1, r2, kappa = roots
    delta = r1 - r2
    kt = kappa * dt
    q = p + (1.0 - p) * np.exp(-kt)
    out = np.empty_like(y)
    out[0] = r2 + delta * np.where(p == 0.0, 0.0, p / q)
    if y.shape[0] == 1:
        return out, q
    la, lb = np.log(np.abs(p)), np.log(np.abs(1.0 - p)) - kt
    hi, lo = np.maximum(la, lb), np.minimum(la, lb)
    log_q = hi + np.log1p(np.where(p * (1.0 - p) >= 0.0, 1.0, -1.0) * np.exp(lo - hi))
    log_dx = -kt - 2.0 * log_q
    out[1] = y[1] + log_dx
    if y.shape[0] == 6:
        dx = np.exp(log_dx)
        ratio = 2.0 * np.expm1(-kt) / (delta * q)
        out[2] = dx * y[2]
        out[3] = ratio * np.exp(y[1]) + y[3]
        out[4] = ratio * y[2] + y[4]
        out[5] = dx * (ratio * y[2] * y[2] + y[5])
    return out, q


def _crossing_time(p, pb, kappa: float):
    """Time the forcing-free flow takes from p to pb, both beyond the repeller on
    one side (pb past p; p = (x - r2)/(r1 - r2) as in ``_riccati_flow``)."""
    return np.log(pb * (1.0 - p) / (p * (1.0 - pb))) / kappa


def _riccati_leg(y: np.ndarray, dt: np.ndarray, roots, cfg: IntegratorConfig):
    """Carry the states y (m, k) over dt (k,) > 0 where the forcing vanishes.

    The field is then the autonomous a (x - r1)(x - r2) (``_riccati_roots``),
    flowed in closed form (``_riccati_flow``). x is monotone on the leg, and
    a lane escapes iff x ends outside the window or q changes sign (x passes
    through infinity). An escaped lane is frozen at its window crossing,
    timed by the closed form, with x the first float beyond the boundary it
    crossed; without a boundary on that side the pole is a ``FlowBlowUp``.
    Returns (y, escaped, escape times from the leg start).
    """
    r1, r2, kappa = roots
    delta = r1 - r2
    lo, hi = cfg.escape_low, cfg.escape_high
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        p = (y[0] - r2) / delta
        out, q = _riccati_flow(y, p, dt, roots)
        # q falls through 0 only from beyond the repeller (p < 0); at p = 0
        # it is 0 once exp(-kappa dt) underflows
        escaped = (out[0] < lo) | (out[0] > hi) | ((p < 0.0) & (q <= 0.0))
        t_esc = np.full(dt.size, np.nan)
        if escaped.any():
            pe = p[escaped]
            up = delta * pe * (pe - 1.0) < 0.0     # dx/dt > 0
            bound = np.where(up, hi, lo)
            pole = ~np.isfinite(bound)
            if pole.any():
                t_pole = np.log((pe[pole] - 1.0) / pe[pole]) / kappa
                raise FlowBlowUp(float(t_pole.min()), float(t_pole.max()))
            pb = (bound - r2) / delta
            t_c = np.clip(_crossing_time(pe, pb, kappa), 0.0, dt[escaped])
            frozen, _ = _riccati_flow(y[:, escaped], pe, t_c, roots)
            frozen[0] = np.nextafter(bound, np.where(up, np.inf, -np.inf))
            out[:, escaped] = frozen
            t_esc[escaped] = t_c
    return out, escaped, t_esc


def _escape_proof(family: ForcedField, roots, beta, sgn: float, length: np.ndarray,
                  tail: np.ndarray, cfg: IntegratorConfig):
    """The ``prove`` rule of one chord round's ``_rk45_batch`` call, or None.

    The lanes flow a (x - r1)(x - r2) - c_i g over t in [0, 1] of their chords
    of ``length``, then ``tail`` more time to their span's end, with g >= 0
    and c_i = sgn forcing_scale(beta_i). Where c_i (r1 - r2) >= 0 the forcing
    pushes away from r1, so by the comparison theorem for scalar ODEs (Walter,
    Differential and Integral Inequalities, 1970) a lane beyond the repeller
    (p < 0) that the forcing-free flow carries out of the window leaves it no
    later. Such a lane is proven to escape at t < 1 when that flow's crossing
    time t_c (``_crossing_time``) fits in its remaining time (1 - t) length +
    tail; it is frozen with x the first float beyond the boundary and escape
    time t + t_c/length, its other channels left at the proof time. At t = 1
    the closed-form leg that follows times the crossing exactly. None when the
    window is unbounded on that side (the pole stays a ``FlowBlowUp``) or no
    lane's forcing pushes that way.
    """
    r1, r2, kappa = roots
    delta = r1 - r2
    up = delta < 0.0            # beyond the repeller is above it
    bound = cfg.escape_high if up else cfg.escape_low
    push = np.broadcast_to(sgn * family.forcing_scale(beta) * delta >= 0.0, length.shape)
    if not math.isfinite(bound) or not push.any():
        return None
    pb = (bound - r2) / delta
    x_out = np.nextafter(bound, math.inf if up else -math.inf)

    def prove(y, active, esc_t, t):
        if t >= 1.0:
            return False
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            p = (y[0] - r2) / delta
            lanes = np.flatnonzero(active & push & (p < 0.0))
            if not lanes.size:
                return False
            t_c = _crossing_time(p[lanes], pb, kappa)
            fits = t_c <= (1.0 - t) * length[lanes] + tail[lanes]
            if not fits.any():
                return False
            lanes = lanes[fits]
            esc_t[lanes] = t + t_c[fits] / length[lanes]
        y[0, lanes] = x_out
        active[lanes] = False
        return True
    return prove


def _flow_legs(family: ForcedField, roots, beta, rho: np.ndarray, theta0: np.ndarray,
               y: np.ndarray, span: np.ndarray, cfg: IntegratorConfig, channels: str,
               direction, reverse: bool):
    """``flow_batch`` on a compactly supported forcing: closed form off the bump,
    DP5 only along each lane's chords through it. A flat field has no chords:
    each lane is one closed-form leg over its span.

    Each lane's span is cut at its chord times (``_chords``). Round r carries
    every lane still flowing in closed form up to its r-th chord
    (``_riccati_leg``), then integrates the r-th chords of all lanes that
    have one in one ``_rk45_batch`` call over t in [0, 1], each lane on its
    own clock (``_batch_rhs``'s ``clock``: its chord length), so that no
    step of any lane contains a crossing of the support's edge, where g''
    has its kink, and that call freezes the lanes ``_escape_proof`` shows
    will escape. Returns (y, escape times, n_steps, n_rejected).
    """
    n = y.shape[1]
    vel = -rho if reverse else rho
    if isinstance(family.shape, BumpShape):
        t_in, t_out = _chords(family.shape, theta0, vel, span)
    else:
        t_in = t_out = np.empty((n, 0))
    esc_t = np.full(n, np.nan)
    outside = (span > 0.0) & ((y[0] < cfg.escape_low) | (y[0] > cfg.escape_high))
    esc_t[outside] = 0.0
    live = (span > 0.0) & ~outside
    t = np.zeros(n)
    h, n_steps, n_rej = None, 0, 0
    rounds = t_in.shape[1]
    for r in range(rounds + 1):
        stop = span if r == rounds else np.where(np.isnan(t_in[:, r]), span, t_in[:, r])
        leg = np.flatnonzero(live & (stop > t))
        if leg.size:
            y[:, leg], esc, t_esc = _riccati_leg(y[:, leg], stop[leg] - t[leg], roots, cfg)
            esc_t[leg[esc]] = t[leg[esc]] + t_esc[esc]
            live[leg[esc]] = False
            t[leg] = stop[leg]
        if r == rounds:
            break
        lanes = np.flatnonzero(live & ~np.isnan(t_in[:, r]))
        if not lanes.size:
            continue
        start, length = t_in[lanes, r], t_out[lanes, r] - t_in[lanes, r]
        b = beta[lanes] if np.ndim(beta) else beta
        forcing, rhs = _batch_rhs(family, b, theta0[lanes] + start[:, None] * vel, rho,
                                  channels, direction, reverse, clock=length)
        prove = _escape_proof(family, roots, b, -1.0 if reverse else 1.0, length,
                              span[lanes] - t_out[lanes, r], cfg)
        try:
            y[:, lanes], active, tau, h, steps, rej = _rk45_batch(forcing, rhs, y[:, lanes],
                                                                  1.0, cfg, h0=h, prove=prove)
        except FlowBlowUp as exc:
            raise FlowBlowUp(float((start + exc.t_low * length).min()),
                             float((start + exc.t_high * length).max())) from None
        out = lanes[~active]
        # a proven lane's time may run past its chord, never past its span
        esc_t[out] = np.minimum(start[~active] + tau[~active] * length[~active], span[out])
        live[out] = False
        t[lanes] = t_out[lanes, r]
        n_steps, n_rej = n_steps + steps, n_rej + rej
    return y, esc_t, n_steps, n_rej


def flow_batch(family: ForcedField, beta, rho, theta0, x0, t_final,
               cfg: IntegratorConfig, channels: str = "x", direction=None) -> FlowBatchResult:
    """Integrate a batch of fibres, each from t = 0 to its own end time.

    ``theta0`` is (n, D) on T^D and ``x0`` is (n,) with no NaN. ``beta`` and
    ``t_final`` are each a float or an (n,) array, one value per lane. The end
    times are finite and share one sign; negative ones integrate the reversed
    flow. Lanes share adaptive step sequences (the error norm is the maximum
    over the lanes of a driver call), so a lane's result matches its own
    single-beta, single-end-time call to the integration tolerance, not bit
    for bit. On a bump forcing (module docstring) each lane flows in closed
    form off the bump, so a lane that never meets it gives the same bits in
    any batch, and the lanes' r-th chords through it share one driver call.
    On a flat field at a float beta every lane is one closed-form leg.
    Otherwise lanes sorted by end time drop out as the flow passes it: one
    ``_rk45_batch`` call per distinct end time on the lanes still flowing,
    started from their base points moved by the time already flowed and from
    the step size the previous call reached.

    Channel values of escaped trajectories are frozen where the window was
    left, x beyond the boundary it crossed. ``escape_times`` holds, per lane,
    a time by which it left the window, measured from t = 0, never an early
    one. It is one of three stamps:

    - on a closed-form leg, the exact window crossing, with the state frozen
      there and x the first float beyond the boundary;
    - on a DP5 leg (a chord, or any lane of a whole-span flow), the end of
      the first accepted step that ended outside the window, not the
      crossing, which lies inside that step (one ``"full"`` lane of
      x' = -x^2 - 1 from x = 0 is late by 1.63e-3 at window +-10, 1.30e-5 at
      +-1e3 and 2.05e-9 at +-1e7);
    - on a chord where the escape is proven (module docstring), the proof
      time plus the forcing-free crossing time, an upper bound at most the
      lane's end time, with x the first float beyond the boundary and the
      other channels frozen at the proof time.

    A lane whose end time is 0 returns its start, not escaped. The
    ``"mobius"`` channels start from the identity matrix and never escape;
    ``x0`` then only sizes the batch.
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
    bad = np.flatnonzero(~np.isfinite(t_final))
    if bad.size:
        raise ValueError(f"t_final is {float(np.ravel(t_final)[bad[0]])} at lane {bad[0]}")
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
    roots = None
    if channels != "mobius":
        if isinstance(family.shape, BumpShape):
            roots = _riccati_roots(family, sgn)
        elif family.theta_independent and not np.ndim(beta):
            roots = _riccati_roots(family, sgn, family.forcing_scale(beta))
    if roots is not None:
        y, esc_t, n_steps, n_rej = _flow_legs(family, roots, beta, rho_v, theta0, y, span,
                                              cfg, channels, v, reverse)
        return FlowBatchResult(y, ~np.isnan(esc_t), sgn * esc_t, n_steps, n_rej)
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
    """Flow one fibre with all six augmented channels to t_final: lane 0 of a
    one-lane ``flow_batch(..., channels="full")``.

    Negative t_final integrates the reversed flow. On escape the returned
    state carries ``flow_batch``'s escape time, a time by which x left
    [escape_low, escape_high]: the exact crossing on a closed-form leg (off a
    bump, or anywhere on a flat field), the end of the first step outside
    the window on a DP5 leg, and an upper bound where an escape is proven.
    """
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

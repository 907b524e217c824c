"""Reference computations the correctness checks compare against.

Nothing here imports snaflow. The two fields are written out from the
formulas in the project README, and flows are integrated with scipy's DOP853
at tolerances two orders tighter than the program's defaults.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
RTOL = 1e-12
ATOL = 1e-13


class CheckFailed(AssertionError):
    """A workload's output disagrees with its reference or its method."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


class Cos11Field:
    """-x^2 + b - beta (2 - cos^11(2 pi theta_1) - cos^11(2 pi theta_2)) / 4."""

    def __init__(self, b: float):
        self.b = b

    def value(self, beta, theta, x):
        w = (2.0 - np.cos(2.0 * np.pi * theta[:, 0]) ** 11
             - np.cos(2.0 * np.pi * theta[:, 1]) ** 11) / 4.0
        return -x * x + self.b - beta * w

    def dx(self, beta, theta, x):
        return -2.0 * x


class RadialField:
    """-b x^2 + b - beta b / (1 - b^-1/2) h(|theta - center|), h(y) = (1 - (y/R)^2)^3."""

    def __init__(self, b: float, radius: float, center):
        self.b = b
        self.radius = radius
        self.center = np.asarray(center, dtype=float)

    def value(self, beta, theta, x):
        offset = (theta - self.center + 0.5) % 1.0 - 0.5
        y2 = np.sum(offset * offset, axis=1) / self.radius**2
        bump = np.where(y2 < 1.0, (1.0 - y2) ** 3, 0.0)
        return -self.b * x * x + self.b - beta * self.b / (1.0 - self.b**-0.5) * bump

    def dx(self, beta, theta, x):
        return -2.0 * self.b * x


def flow(field, beta, rho, theta0, x0, tau, with_log_dx=False):
    """Fibre values x(tau_i) of dx/dt = F(theta0_i + t rho, x), one lane per row.

    ``tau`` may differ per lane and be negative (backward in time). Each lane
    runs on its own clock s = t / tau_i in [0, 1], so one DOP853 call covers
    all lanes. With ``with_log_dx`` the variational log dx/dx0 is returned too.
    """
    theta0 = np.atleast_2d(np.asarray(theta0, dtype=float))
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    n = x0.size
    tau = np.broadcast_to(np.asarray(tau, dtype=float), (n,))
    beta = np.broadcast_to(np.asarray(beta, dtype=float), (n,))
    rho = np.asarray(rho, dtype=float)

    def rhs(s, y):
        theta = theta0 + (s * tau)[:, None] * rho
        x = y[:n]
        dxds = tau * field.value(beta, theta, x)
        if not with_log_dx:
            return dxds
        return np.concatenate([dxds, tau * field.dx(beta, theta, x)])

    y0 = np.concatenate([x0, np.zeros(n)]) if with_log_dx else x0
    sol = solve_ivp(rhs, (0.0, 1.0), y0, method="DOP853", rtol=RTOL, atol=ATOL)
    require(sol.success, f"reference integration failed: {sol.message}")
    y = sol.y[:, -1]
    return (y[:n], y[n:]) if with_log_dx else y


def periodic_interp(nodes_values, positions):
    """Piecewise-linear interpolation of values on the nodes k/n of the unit circle."""
    v = np.asarray(nodes_values, dtype=float)
    n = v.size
    grid = np.arange(n + 1) / n
    return np.interp(np.mod(positions, 1.0), grid, np.append(v, v[0]))


def scatter_resample(values_at, positions, n):
    """Values known at scattered circle positions, linearly resampled onto k/n."""
    p = np.mod(np.asarray(positions, dtype=float), 1.0)
    order = np.argsort(p)
    p, w = p[order], np.asarray(values_at, dtype=float)[order]
    p_ext = np.concatenate([p[-1:] - 1.0, p, p[:1] + 1.0])
    w_ext = np.concatenate([w[-1:], w, w[:1]])
    return np.interp(np.arange(n) / n, p_ext, w_ext)

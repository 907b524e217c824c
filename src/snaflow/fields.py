"""Parameter-dependent non-autonomous vector fields with exact partials.

Every built-in family is one Riccati equation in the fibre coordinate x,

    F_beta(theta, x) = a2 x^2 + a1 x + a0 - beta^p * scale * g(theta),

so a family is data: the coefficients, the exponent p, and a forcing shape g
(a radial bump, the two-frequency cos^11 forcing, or none). The named
families below are constructors of ``ForcedField``. Partials are analytic
(nothing is finite-differenced here). The forcing shapes and
``ForcedField.value`` are numpy-vectorised: ``theta`` has shape (n, D) and
``x`` shape (n,); scalars broadcast. ``eval_field`` is the point evaluator of
the value and all partials, built from the same primitives the integrator
reads. Families are immutable; the bifurcation parameter ``beta`` is a
call-site argument, never state, so concurrent sweeps need no locking.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .torus import TorusPoint, nearest_lift_offset

__all__ = [
    "BumpProfile",
    "FieldEval",
    "BumpShape",
    "Cos11Shape",
    "FlatShape",
    "ForcedField",
    "RadialLogistic",
    "Cos11",
    "LogisticHarvest",
    "AutonomousRiccati",
    "eval_field",
    "radial_to_harvest",
    "unit_direction",
]


@dataclass(frozen=True)
class BumpProfile:
    """Support radius R of the radial bump h(y) = (1 - (y/R)^2)^3; see ``BumpShape``.

    0 < R <= 1/2: the support then stays inside the cell around the center,
    where the nearest-lift offset is smooth. A larger R reaches the cut locus
    |theta_i - center_i| = 1/2, where d_v g jumps.
    """

    R_support: float

    def __post_init__(self):
        if not (0.0 < self.R_support <= 0.5):
            raise ValueError(f"bump support radius must lie in (0, 1/2], got {self.R_support}")


@dataclass(frozen=True)
class FieldEval:
    """All exact partials of one field evaluation at (theta, x, beta).

    ``dtheta``/``dtheta2``/``dtheta_dx`` are directional along the supplied
    unit vector.
    """

    value: float
    dx: float
    dxx: float
    dtheta: float
    dtheta2: float
    dtheta_dx: float
    dbeta: float


# Forcing shapes: ``g(theta)`` alone, or ``triple(theta, v)`` for
# (g, d_v g, d_v^2 g) from one pass over theta. theta has shape (..., D) and
# each value has shape (...), one per point.


@dataclass(frozen=True)
class BumpShape:
    """g(theta) = h(|theta - center|) with h(y) = (1 - (y/R)^2)^3 on [0, R), zero beyond.

    g is a polynomial in the nearest-lift offset. Along a unit ray from the
    center, g = 1, d_v g = 0 and d_v^2 g = -6/R^2 < 0 at the center, g falls
    strictly on the support, and g, d_v g and d_v^2 g all vanish at the
    support radius and beyond, so g is C^2.
    """

    bump: BumpProfile
    center: np.ndarray

    def _weight(self, u):
        R2 = self.bump.R_support**2
        return R2, np.maximum(1.0 - (u * u).sum(axis=-1) / R2, 0.0)

    def g(self, theta):
        _, w = self._weight(nearest_lift_offset(theta, self.center))
        return w * w * w

    def triple(self, theta, v):
        u = nearest_lift_offset(theta, self.center)
        R2, w = self._weight(u)
        # BLAS's bits for u @ v depend on the memory layout of u, so the
        # product runs on a C-ordered copy whatever layout theta came in
        uv = np.ascontiguousarray(u) @ v
        k = -6.0 / R2 * w * w
        return w * w * w, k * uv, k + 24.0 / (R2 * R2) * w * uv * uv


def _cos_powers(c):
    """(c^8, c^10) by squaring; c^9 = c^8 c and c^11 = c^10 c keep the sign of c."""
    c2 = c * c
    c4 = c2 * c2
    c8 = c4 * c4
    return c8, c8 * c2


@dataclass(frozen=True)
class Cos11Shape:
    """g(theta) = (2 - cos^11(2 pi theta_1) - cos^11(2 pi theta_2)) / 4 on T^2."""

    def g(self, theta):
        c1 = np.cos(2.0 * np.pi * theta[..., 0])
        c2 = np.cos(2.0 * np.pi * theta[..., 1])
        return (2.0 - _cos_powers(c1)[1] * c1 - _cos_powers(c2)[1] * c2) / 4.0

    def triple(self, theta, v):
        axes = []
        for j in (0, 1):
            a = 2.0 * np.pi * theta[..., j]
            c, s = np.cos(a), np.sin(a)
            c8, c10 = _cos_powers(c)
            c11 = c10 * c
            # d/dtheta_j of -(cos^11)/4 is (11 pi / 2) sin cos^10, and the
            # second derivative is 11 pi^2 (cos^11 - 10 sin^2 cos^9)
            axes.append((c11, 5.5 * np.pi * s * c10,
                         11.0 * (np.pi * np.pi) * (c11 - 10.0 * s * s * (c8 * c))))
        (p1, d1, dd1), (p2, d2, dd2) = axes
        return ((2.0 - p1 - p2) / 4.0, v[0] * d1 + v[1] * d2,
                v[0] * v[0] * dd1 + v[1] * v[1] * dd2)


@dataclass(frozen=True)
class FlatShape:
    """g = 1: the theta-independent (autonomous) family."""

    def g(self, theta):
        return np.ones(np.shape(theta)[:-1])

    def triple(self, theta, v):
        one = self.g(theta)
        return one, np.zeros_like(one), np.zeros_like(one)


@dataclass(frozen=True)
class ForcedField:
    """F_beta(theta, x) = a2 x^2 + a1 x + a0 - beta^beta_power * scale * g(theta).

    ``shape`` is the forcing g; ``section`` is (gamma_minus, gamma_plus), the
    vertical extent of the working section, and ``escape`` the default
    blow-up guard window for the integrator. Across every family F_xx = 2 a2
    is constant and F_{theta x} = 0.
    """

    a2: float
    a1: float
    a0: float
    scale: float
    shape: BumpShape | Cos11Shape | FlatShape
    section: tuple
    escape: tuple
    beta_range: tuple = (0.0, 1.0)
    beta_power: int = 1
    D: int = 2

    def __post_init__(self):
        lo, hi = self.beta_range
        object.__setattr__(self, "beta_range", (float(lo), float(hi)))

    @property
    def theta_independent(self) -> bool:
        return isinstance(self.shape, FlatShape)

    def check_beta(self, beta) -> None:
        """Raise ValueError naming the first beta (a float or an array) outside beta_range."""
        lo, hi = self.beta_range
        b = np.ravel(np.asarray(beta, dtype=float))
        bad = ~((lo <= b) & (b <= hi))  # NaN compares false, so it is bad
        if bad.any():
            raise ValueError(f"beta = {float(b[np.argmax(bad)])} outside beta_range [{lo}, {hi}]")

    def forcing_scale(self, beta):
        """beta^p * scale: the coefficient of -g(theta), per lane for an array beta."""
        return self.scale * beta**self.beta_power

    def section_bounds(self) -> tuple:
        """(gamma_minus, gamma_plus): vertical extent of the working section."""
        return self.section

    def default_escape(self) -> tuple:
        """Default blow-up guard window for the integrator."""
        return self.escape

    def polynomial(self, sign: float = 1.0):
        """(x -> sign (a2 x^2 + a1 x + a0), its x-derivative) with bound coefficients.

        ``sign = -1`` gives the reversed field; a zero a1 adds no term. An
        (n,) array ``sign`` gives each lane its own time scale.
        """
        a2, a1, a0 = sign * self.a2, sign * self.a1, sign * self.a0
        two_a2 = 2.0 * a2
        if self.a1 == 0.0:
            return (lambda x: a2 * x * x + a0), (lambda x: two_a2 * x)
        return (lambda x: a2 * x * x + a1 * x + a0), (lambda x: two_a2 * x + a1)

    def value(self, beta, theta, x):
        return self.polynomial()[0](x) - self.forcing_scale(beta) * self.shape.g(theta)


def _name(field: ForcedField, **attrs) -> None:
    """Attach a named family's own parameters to the frozen field."""
    for key, value in attrs.items():
        object.__setattr__(field, key, value)


class RadialLogistic(ForcedField):
    """F_beta(theta, x) = -b x^2 + b - beta * b/(1 - b^(-1/2)) * h(|theta - center|).

    The forcing is a radially symmetric bump around ``center`` on T^D; b > 1.
    """

    def __init__(self, b, bump, center, beta_range=(0.0, 1.0)):
        if b <= 1.0:
            raise ValueError("RadialLogistic requires b > 1")
        b = float(b)
        c = TorusPoint(center).coords
        super().__init__(-b, 0.0, b, b / (1.0 - b ** (-0.5)), BumpShape(bump, c),
                         (-1.0, 1.25), (-10.0, 10.0), beta_range, D=c.size)
        _name(self, b=b, bump=bump, center=c)


class Cos11(ForcedField):
    """F_beta(theta, x) = -x^2 + b - beta * (2 - cos^11(2 pi theta_1) - cos^11(2 pi theta_2)) / 4.

    Two-frequency forcing with a unique forcing maximum at (1/2, 1/2); D = 2.
    The default ``beta_range`` is (0, 4b).
    """

    def __init__(self, b, beta_range=None):
        if b <= 0.0:
            raise ValueError("Cos11 requires b > 0")
        b = float(b)
        s = math.sqrt(b)
        if beta_range is None:
            beta_range = (0.0, 4.0 * b)
        super().__init__(-1.0, 0.0, b, 1.0, Cos11Shape(), (-s, 1.25 * s),
                         (-2.5 * s, 2.5 * s), beta_range)
        _name(self, b=b)


class LogisticHarvest(ForcedField):
    """L_beta(theta, x) = (2/r) b x (r - x) - beta * b/(1 - b^(-1/2)) * h(|theta - center|).

    Logistic growth toward carrying capacity r with the same additive
    harvesting term as RadialLogistic; the affine change x -> r(x+1)/2
    carries the unforced RadialLogistic flow onto this one.
    """

    def __init__(self, b, r, bump, center, beta_range=(0.0, 1.0)):
        if b <= 1.0:
            raise ValueError("LogisticHarvest requires b > 1")
        if r <= 0.0:
            raise ValueError("carrying capacity r must be positive")
        b, r = float(b), float(r)
        c = TorusPoint(center).coords
        super().__init__(-(2.0 * b / r), 2.0 * b, 0.0, b / (1.0 - b ** (-0.5)),
                         BumpShape(bump, c), (0.0, 1.125 * r), (-4.5 * r, 5.5 * r),
                         beta_range, D=c.size)
        _name(self, b=b, r=r, bump=bump, center=c)


class AutonomousRiccati(ForcedField):
    """F_beta(theta, x) = a2 x^2 + a0 + beta_slope * beta^beta_power, theta-independent.

    Oracle family: closed-form tanh/tan solutions make it the test oracle for
    the integrator and the bifurcation machinery. ``beta_power`` (default 1)
    admits monotone reparameterisations of the forcing.
    """

    def __init__(self, a2, a0, beta_slope=0.0, beta_power=1, beta_range=(0.0, 1.0), dim=2):
        if dim < 2:
            raise ValueError("base dimension D must be >= 2")
        # the equilibrium scale sqrt(a0/|a2|) sizes the section and the escape window
        s = math.sqrt(a0 / abs(a2)) if a2 < 0.0 and a0 > 0.0 else 1.0
        e = 10.0 * (s + 1.0)
        super().__init__(a2, 0.0, a0, -beta_slope, FlatShape(), (-s, 1.25 * s), (-e, e),
                         beta_range, beta_power, int(dim))
        _name(self, beta_slope=beta_slope, dim=dim)


def unit_direction(direction, D: int, section: bool = False) -> np.ndarray:
    """Unit vector in R^D along which the theta-derivatives are taken.

    ``None`` is the first axis. A vector with D - 1 components is a section
    direction, lifted into T^D with a zero last component; ``section=True``
    admits only those.
    """
    if direction is None:
        return np.eye(D)[0]
    v = np.atleast_1d(np.asarray(direction, dtype=float))
    if section and v.size != D - 1:
        raise ValueError(f"section direction needs {D - 1} components")
    if v.size == D - 1:
        v = np.concatenate([v, [0.0]])
    if v.size != D:
        raise ValueError(f"direction needs {D} (or {D - 1}) components")
    if not math.isclose(float(np.linalg.norm(v)), 1.0, rel_tol=0.0, abs_tol=1e-9):
        raise ValueError("direction must be a unit vector")
    return v


def eval_field(family: ForcedField, beta: float, theta, x: float, direction=None) -> FieldEval:
    """Evaluate F and all exposed partials at a single point.

    ``direction`` is a unit vector in R^D, or in R^(D-1) for a section
    direction (lifted with a zero final component); defaults to the first
    coordinate axis.
    """
    family.check_beta(beta)
    th = TorusPoint(theta).coords if not isinstance(theta, TorusPoint) else theta.coords
    if th.size != family.D:
        raise ValueError(f"theta must have {family.D} components")
    v = unit_direction(direction, family.D)
    # the primitives the integrator's rhs is built from (flow._batch_rhs)
    poly, dpoly = family.polynomial()
    s, p = family.forcing_scale(beta), family.beta_power
    g, dg, ddg = (float(w[0]) for w in family.shape.triple(th[None, :], v))
    return FieldEval(
        value=float(poly(float(x)) - s * g),
        dx=float(dpoly(float(x))),
        dxx=2.0 * family.a2,
        dtheta=float(-s * dg),
        dtheta2=float(-s * ddg),
        dtheta_dx=0.0,
        dbeta=float(-(family.scale * p * beta ** (p - 1)) * g),
    )


def radial_to_harvest(family: RadialLogistic, r: float) -> LogisticHarvest:
    """Conjugate logistic-harvest family of a RadialLogistic field.

    The affine change x -> r(x+1)/2 maps the unforced flows onto each other;
    the beta-term is carried over unchanged (it is x-independent), which for
    r != 2 amounts to a linear rescaling of beta.
    """
    return LogisticHarvest(family.b, r, family.bump, family.center, family.beta_range)

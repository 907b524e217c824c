"""Torus geometry, rotation vectors, and finite-radius Diophantine certificates.

Distances on T^k use the Euclidean metric of the nearest lift; all mod-1
arithmetic reduces into [0, 1) via floor so the geometry is bit-reproducible.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "RotationVector",
    "as_rotation_vector",
    "InducedFrequency",
    "DiophantineCertificate",
    "TorusPoint",
    "certify_diophantine",
    "induce_frequency",
    "torus_distance",
    "wrap_unit",
    "nearest_lift_offset",
]

# Lattice points visited before the exhaustive scan is truncated.
DEFAULT_SCAN_BUDGET = 20_000_000


def wrap_unit(x):
    """Reduce coordinates into [0, 1) via floor.

    x - floor(x) can round up to exactly 1.0 for tiny negative x; fold that
    back to 0.0 so the half-open range is honoured.
    """
    x = np.asarray(x, dtype=float)
    w = x - np.floor(x)
    return np.where(w >= 1.0, 0.0, w)


def nearest_lift_offset(a, b):
    """Per-axis signed offset a - b of the lift of a closest to b, in [-1/2, 1/2]."""
    d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    return d - np.rint(d)


@dataclass(frozen=True)
class TorusPoint:
    coords: np.ndarray

    def __init__(self, coords):
        c = wrap_unit(np.atleast_1d(np.asarray(coords, dtype=float)))
        if c.ndim != 1 or c.size == 0:
            raise ValueError("TorusPoint needs a non-empty 1-d coordinate vector")
        object.__setattr__(self, "coords", c)

    @property
    def dim(self) -> int:
        return self.coords.size


def torus_distance(a, b) -> float:
    """Euclidean distance between nearest lifts; symmetric, at most sqrt(dim)/2."""
    a = a.coords if isinstance(a, TorusPoint) else np.atleast_1d(np.asarray(a, dtype=float))
    b = b.coords if isinstance(b, TorusPoint) else np.atleast_1d(np.asarray(b, dtype=float))
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(np.sqrt(np.sum(nearest_lift_offset(a, b) ** 2)))


@dataclass(frozen=True)
class RotationVector:
    """Drive vector rho in R^D, D >= 2, with the dominant component last.

    Inputs are expected pre-rotated so that |rho_D| = max_j |rho_j|; a tie with
    an earlier component is accepted (with a warning), a strictly larger
    earlier component is rejected.
    """

    rho: np.ndarray

    def __init__(self, rho):
        r = np.atleast_1d(np.asarray(rho, dtype=float))
        if r.ndim != 1 or r.size < 2:
            raise ValueError("rotation vector needs D >= 2 components")
        if not np.all(np.isfinite(r)):
            raise ValueError("rotation vector components must be finite")
        if np.all(r == 0.0):
            raise ValueError("rotation vector must be nonzero")
        mags = np.abs(r)
        j = int(np.argmax(mags))  # argmax ties break to the lowest index
        if mags[j] > mags[-1]:
            raise ValueError(
                f"dominant component must come last: |rho_{j + 1}| = {mags[j]} "
                f"exceeds |rho_D| = {mags[-1]}"
            )
        if j != r.size - 1:
            warnings.warn(
                "rotation vector has a |rho_j| tie with the dominant component",
                stacklevel=2,
            )
        object.__setattr__(self, "rho", r)

    @property
    def D(self) -> int:
        return self.rho.size

    @property
    def rho_D(self) -> float:
        return float(self.rho[-1])

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.rho))


def as_rotation_vector(rho) -> RotationVector:
    """``rho`` itself if it is a RotationVector, else the RotationVector of its components."""
    return rho if isinstance(rho, RotationVector) else RotationVector(rho)


@dataclass(frozen=True)
class InducedFrequency:
    """Section frequency omega_i = rho_i/rho_D mod 1 with return time 1/rho_D."""

    omega: np.ndarray
    return_time: float

    @property
    def d(self) -> int:
        return self.omega.size


def induce_frequency(rho: RotationVector) -> InducedFrequency:
    """Reduce a drive vector to the frequency of its first return map."""
    rho = as_rotation_vector(rho)
    if rho.rho_D == 0.0:
        raise ValueError("zero dominant component")
    if rho.rho_D < 0.0:
        raise ValueError("dominant component must be positive for a forward return time")
    omega = wrap_unit(rho.rho[:-1] / rho.rho_D)
    return InducedFrequency(omega=omega, return_time=1.0 / rho.rho_D)


@dataclass(frozen=True)
class DiophantineCertificate:
    """Outcome of an exhaustive lattice scan of |<rho, k>| (or its mod-1 analogue).

    A pass is a finite-radius statement only: no lattice vector with
    0 < |k|_inf <= K_max violates |value| >= C_const * |k|_inf^(-eta). ``worst_k``
    minimises the weighted margin |value| * |k|_inf^eta over the scanned radius,
    so ``empirical_C`` is the largest constant the scan supports.
    """

    C_const: float
    eta: float
    K_max: int
    worst_k: np.ndarray
    worst_value: float
    passed: bool
    empirical_C: float
    discrete: bool
    requested_K_max: int
    partial: bool = field(default=False)


def _canonical_rows(block: np.ndarray) -> np.ndarray:
    """Keep one representative of each +-k pair: first nonzero component > 0."""
    nonzero = block != 0
    any_nz = nonzero.any(axis=1)
    first = np.argmax(nonzero, axis=1)
    lead = block[np.arange(len(block)), first]
    return block[any_nz & (lead > 0)]


def certify_diophantine(
    target,
    C_const: float,
    eta: float,
    K_max: int,
    budget: int = DEFAULT_SCAN_BUDGET,
) -> DiophantineCertificate:
    """Exhaustively scan 0 < |k|_inf <= K_max for near-resonances.

    ``target`` is a RotationVector (scan |sum rho_i k_i|) or an InducedFrequency
    (scan the distance of sum omega_i k_i to the nearest integer). Only one
    representative of each +-k pair is visited. If the full scan would exceed
    ``budget`` lattice points, the radius is reduced and the certificate is
    marked partial.
    """
    if C_const <= 0.0:
        raise ValueError("C_const must be positive")
    if K_max < 1:
        raise ValueError("K_max must be at least 1")
    if isinstance(target, RotationVector):
        vec, discrete = target.rho, False
    elif isinstance(target, InducedFrequency):
        vec, discrete = target.omega, True
    else:
        raise TypeError("target must be a RotationVector or an InducedFrequency")
    dim = vec.size

    requested = int(K_max)
    scanned = requested
    if (2 * requested + 1) ** dim > 2 * budget:
        scanned = max(1, int(0.5 * ((2.0 * budget) ** (1.0 / dim) - 1.0)))

    best_margin = np.inf
    best_val = np.inf
    best_k = np.zeros(dim, dtype=int)
    if dim == 1:
        ks = np.arange(1, scanned + 1, dtype=float)[:, None]
        blocks = [ks]
    else:
        # enumerate lattice rows chunked along the leading axis
        rows = np.arange(-scanned, scanned + 1)
        tail = np.stack(
            np.meshgrid(*([rows] * (dim - 1)), indexing="ij"), axis=-1
        ).reshape(-1, dim - 1)
        blocks = (
            _canonical_rows(
                np.concatenate([np.full((len(tail), 1), lead), tail], axis=1)
            ).astype(float)
            for lead in range(0, scanned + 1)
        )
    for block in blocks:
        if len(block) == 0:
            continue
        vals = block @ vec
        vals = np.abs(vals - np.round(vals)) if discrete else np.abs(vals)
        margins = vals * np.max(np.abs(block), axis=1) ** eta
        i = int(np.argmin(margins))
        if margins[i] < best_margin:
            best_margin = float(margins[i])
            best_val = float(vals[i])
            best_k = block[i].astype(int)

    return DiophantineCertificate(
        C_const=float(C_const),
        eta=float(eta),
        K_max=scanned,
        worst_k=best_k,
        worst_value=best_val,
        passed=bool(best_margin >= C_const),
        empirical_C=best_margin,
        discrete=discrete,
        requested_K_max=requested,
        partial=scanned < requested,
    )

"""Fourier-tabulated Möbius cocycle of one return, for lifts and section clouds.

Every fibre map of a Riccati family is the projective action of an SL(2,R)
matrix of the trace-free linear system behind the field (see ``flow``). Split
one return of a ``SectionMap`` into m consecutive pieces of duration T/m,
m >= ``SectionMap.sub_returns()``: piece j at the section point theta is the
matrix P_j(theta) of the flow from (theta, 0) moved along rho by j T/m, over
T/m, and every entry stays below e^pi. P_j is as smooth in theta as the
forcing, even where the invariant graphs are not (Herman 1983; Jäger 2009),
so on a one-dimensional section (d = 1) its values at N nodes determine it
through their trigonometric interpolant.

``tabulate`` picks N with a certificate instead of a knob. It starts at
N = 64, integrates the table at the nodes and a second table at the midpoint
grid theta + 1/(2N), and accepts N when the interpolant differs from the
midpoint table by at most 10 rel_tol in every entry. Otherwise it doubles N
(the nodes and midpoints already integrated are the nodes of the doubled
grid), up to N_MAX. When no N up to N_MAX is certified it returns None, and
so it does for d >= 2, where a table holds m 4 N^d entries and each point
evaluation sums over (N/2)^d frequencies: the consumers then flow the ODE.

The interpolant is evaluated by ``np.einsum`` at points and, on uniformly
shifted G grids (lifts, the certificate), by the shift theorem: the phased
coefficients, folded onto the frequencies of the G grid when N/2 + 1 > G
(exact for any N), form the Hermitian half spectrum of the real grid values,
which one real inverse FFT (``irfft``) sums. Neither uses BLAS, so results do
not depend on threads. Every table integration is one ``"mobius"``
``flow_batch`` per chunk of at most CHUNK_LANES lanes.
"""
from __future__ import annotations

import math

import numpy as np

from .section import SectionMap

__all__ = ["CHUNK_LANES", "N_MAX", "N_START", "FourierCocycle", "tabulate"]

CHUNK_LANES = 9216      # x 4 channels: about one 36,672-lane one-channel batch
N_START = 64
N_MAX = 2048            # twice the 1024 nodes a C^2 bump forcing needs
CERTIFICATE_FACTOR = 10.0   # accepted midpoint discrepancy, in units of rel_tol
ORBIT_BLOCK = 64        # orbit phases are recomputed exactly every ORBIT_BLOCK returns


def integrate_pieces(smap: SectionMap, m: int, theta) -> np.ndarray:
    """Matrices of the m pieces at the section points ``theta``, (m, 4, n).

    The lanes are split over the points into ``flow_batch`` calls of at most
    CHUNK_LANES lanes each (all pieces of a point share a call).
    """
    theta = np.asarray(theta, dtype=float).reshape(-1, 1)
    n = theta.shape[0]
    per_call = math.ceil(n / math.ceil(n / max(1, CHUNK_LANES // m)))
    parts = [smap.mobius_table(theta[i: i + per_call], m) for i in range(0, n, per_call)]
    return np.concatenate(parts, axis=2)


class FourierCocycle:
    """Trigonometric interpolant of the piece matrices from an N-node table.

    The one-sided coefficients c_k, k = 0..N/2, are scaled so that the
    interpolant is Re sum_k c_k exp(2 pi i k theta); the Nyquist term is then
    the cosine.
    """

    def __init__(self, values: np.ndarray):
        """``values`` (m, 4, N): the piece matrices at the nodes i/N."""
        n = values.shape[-1]
        self.n = n
        self.discrepancy = math.nan   # the certificate, set by ``tabulate``
        coef = np.fft.rfft(values, axis=-1) / n
        coef[..., 1:(n + 1) // 2] *= 2.0   # each interior term carries its conjugate
        self.coef = coef                    # (m, 4, N/2 + 1)
        self.freqs = np.arange(n // 2 + 1)

    def phases(self, theta) -> np.ndarray:
        """exp(2 pi i k theta) at every point, (n_points, K): the basis of
        ``at`` and the phases that move ``on_grid`` onto a shifted grid."""
        return np.exp(2j * np.pi * np.outer(np.ravel(theta), self.freqs))

    def _evaluate(self, basis: np.ndarray) -> np.ndarray:
        """Re sum_k coef_k basis_k as one real contraction: (m, 4, n_points)."""
        c = self.coef
        return np.einsum("pek,kn->pen", np.concatenate([c.real, -c.imag], axis=-1),
                         np.concatenate([basis.real, basis.imag], axis=0))

    def at(self, theta) -> np.ndarray:
        """Matrices of every piece at arbitrary section points, (m, 4, n)."""
        return self._evaluate(self.phases(theta).T)

    def on_grid(self, piece: int, G: int, phases: np.ndarray) -> np.ndarray:
        """Piece ``piece`` on the G grid moved by each shift whose ``phases``
        (n_shifts, K) holds: (4, n_shifts, G)."""
        return _grid(self.coef[piece][:, None] * phases, G)

    def along_orbit(self, theta0, shift, n_returns: int):
        """Yield the (m, 4, n) table at theta0 + k shift for k = 0..n_returns-1.

        Within a block of ORBIT_BLOCK returns the basis advances by the phase
        recurrence e_k(theta + shift) = e_k(theta) e_k(shift); each block
        starts from exact exponentials.
        """
        theta = np.ravel(np.asarray(theta0, dtype=float))
        shift = float(np.ravel(shift)[0])
        step = np.exp(2j * np.pi * self.freqs * shift)[:, None]
        for k in range(n_returns):
            if k % ORBIT_BLOCK == 0:
                basis = self.phases(theta + k * shift).T
            else:
                basis = basis * step
            yield self._evaluate(basis)

    def midpoint_discrepancy(self, exact: np.ndarray) -> float:
        """sup |interpolant - exact| over the midpoint grid theta + 1/(2N);
        ``exact`` is the integrated (m, 4, N) midpoint table."""
        grid = _grid(self.coef * self.phases(0.5 / self.n)[0], self.n)
        return float(np.max(np.abs(grid - exact)))


def _grid(phased: np.ndarray, G: int) -> np.ndarray:
    """Re sum_k F_k exp(2 pi i k g/G) on the G nodes g/G of the phased
    coefficients F (..., K): (..., G).

    On the nodes, exp(2 pi i k g/G) depends on k mod G only, so when K > G the
    coefficients are first summed onto G slots; no frequency aliases, whatever
    N and G are. The real part is the sum over the Hermitian spectrum
    X_s = (F_s + conj F_{(G-s) mod G}) / 2, whose half s = 0..G/2 one real
    inverse FFT evaluates.
    """
    K = phased.shape[-1]
    if K > G:
        pad = [(0, 0)] * (phased.ndim - 1) + [(0, -K % G)]
        phased = np.pad(phased, pad).reshape(phased.shape[:-1] + (-1, G)).sum(axis=-2)
        K = G
    half = 0.5 * phased[..., :G // 2 + 1]
    half[..., 0] = phased[..., 0].real
    # slots t = ceil(G/2)..K-1 enter the half spectrum conjugated, at s = G - t
    top = phased[..., (G + 1) // 2:]
    if top.shape[-1]:
        half[..., G - K + 1:] += 0.5 * top[..., ::-1].conj()
    return np.fft.irfft(half, n=G, axis=-1, norm="forward")


def tabulate(smap: SectionMap, m: int) -> FourierCocycle | None:
    """The m-piece cocycle of ``smap`` with a certified N, or None.

    None means a section of d >= 2 axes, or no certified N up to N_MAX; the
    consumer then flows the ODE at its own points.
    """
    if m < smap.sub_returns():
        raise ValueError(f"m = {m} pieces is fewer than the {smap.sub_returns()} sub-returns")
    if smap.d != 1:
        return None
    n = N_START
    nodes = np.arange(n) / n
    both = integrate_pieces(smap, m, np.concatenate([nodes, nodes + 0.5 / n]))
    values, mids = both[..., :n], both[..., n:]
    tol = CERTIFICATE_FACTOR * smap.cfg.rel_tol
    while True:
        table = FourierCocycle(values)
        table.discrepancy = table.midpoint_discrepancy(mids)
        if table.discrepancy <= tol:
            return table
        if 2 * n > N_MAX:
            return None
        # the doubled grid interleaves the old nodes and midpoints; only its
        # own midpoints are new
        fresh = integrate_pieces(smap, m, np.arange(2 * n) / (2 * n) + 0.25 / n)
        values = np.stack([values, mids], axis=-1).reshape(m, 4, 2 * n)
        mids, n = fresh, 2 * n

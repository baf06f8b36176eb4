"""Exact two-mode Fock-space simulation on a square truncation.

States live on the grid |m>_p (x) |n>_s with 0 <= m, n <= M.  The
operators of interest are the diagonal pair

    N = N_p + N_s,        L = (N_p - N_s) / 2,

the modulus P = sqrt(N_p / (N_s + 1)) (also diagonal), and the unitary
relative-phase shift E, which acts inside each fixed-N layer as

    E |m, n> = |m-1, n+1>   (m >= 1),      E |0, N> = |N, 0>.

The wrap-around (vacuum) term closes each layer into a cyclic shift and
is always included; layers with N <= M are complete and E restricted to
them is exactly unitary, while clipped layers (N > M) only matter through
the recorded tail mass.

A two-mode state stores only the box of the grid that holds its
support: the block of amplitudes of |m0 + i, n0 + j> and its offset
(m0, n0).  A coherent state keeps the rows and columns where its mode
vectors reach COHERENT_FLOOR of their peaks; squeezed states keep the
whole grid.  A phase state embedded on one layer is a ``LayerState``:
the window of components Psi_l on |N/2 + l, N/2 - l> itself, whatever
the layer.  ``noise.analyze`` takes every moment from the stored
amplitudes; no dense grid or operator object is built.

Construction is tail-checked: every constructor records the probability
lost to the truncation before renormalizing, and raises TruncationError
when it exceeds TAIL_TOL = 1e-10: one fixed rule, which no argument or
environment variable changes.  The two-mode constructors also check
``MAX_GRID_BYTES`` before allocating anything, still on the nominal
(M+1)^2 grid, which only squeezed states allocate.

Displaced squeezed states are built from the columns of the displacement
factors that their pair part reaches.  The pair amplitudes
(e^{i theta} tanh s)^n / cosh s leave (tanh s)^(2K) of the norm beyond
column K, so K is set by s alone (51 at s=0.5, 144 at s=1) while the
cutoff grows with the displacement; restricting both factors to K
columns turns the O(M^3) dense products into O(M^2 K) ones.  The columns
still come from the exactly unitary tridiagonal eigensolve rather than
from Laguerre recurrences, which lose precision past |alpha| of a few.
LAPACK's dstevd solves it, taken from scipy's extension module by
``mathieu._lapack`` at the first such build, so importing this module
loads numpy only and a build loads no ``scipy.linalg`` package.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    InconsistentSolutionError,
    InvalidParameterError,
    TruncationError,
    finite,
    integer,
)
from .mathieu import _lapack
from .phase_space import PhaseWaveFunction

#: Largest norm a constructor may lose to its truncation.
TAIL_TOL = 1e-10

#: Largest amplitude grid a constructor may allocate, in bytes.
MAX_GRID_BYTES = 2 ** 30

#: Pair amplitude (tanh s)^K below which a displaced squeezed state's pair
#: terms are dropped; the norm they hold, (tanh s)^(2K), is far under one
#: rounding unit of a unit-norm state.
PAIR_AMPLITUDE_FLOOR = 1e-17

#: Smallest coherent mode amplitude kept, relative to the mode's peak.
COHERENT_FLOOR = 1e-16


@dataclass(frozen=True)
class TwoModeFockState:
    """Normalized amplitudes over the truncated two-mode basis, stored
    as the box that holds their support.

    block[i, j] multiplies |m0 + i>_p |n0 + j>_s with (m0, n0) = offset;
    every amplitude outside the box is zero.  tail_mass is the norm
    deficit recorded before renormalization.
    """

    cutoff: int
    block: np.ndarray
    tail_mass: float
    offset: tuple[int, int] = (0, 0)

    def __post_init__(self):
        m0, n0 = self.offset
        rows, cols = self.block.shape
        if min(m0, n0) < 0 or max(m0 + rows, n0 + cols) > self.cutoff + 1:
            raise DimensionMismatchError(
                f"{rows}x{cols} block at offset {self.offset} leaves the "
                f"grid of cutoff {self.cutoff}"
            )


@dataclass(frozen=True)
class LayerState:
    """A phase state on the Fock layer of N = ``cutoff`` photons: Psi_l of
    ``psi`` multiplies |N/2 + l, N/2 - l>.  tail_mass is the norm deficit
    the clip to |l| <= N/2 left before renormalization."""

    cutoff: int
    psi: PhaseWaveFunction
    tail_mass: float


def _check_cutoff(cutoff: int) -> int:
    """Validated cutoff whose nominal (cutoff+1)^2 complex grid fits the
    budget.  The grid is checked whether or not the state allocates it:
    squeezed states fill it, coherent states keep a box."""
    cutoff = integer("cutoff", cutoff)
    if cutoff < 1:
        raise InvalidParameterError(f"cutoff must be >= 1, got {cutoff}")
    grid_bytes = (cutoff + 1) ** 2 * np.dtype(complex).itemsize
    if grid_bytes > MAX_GRID_BYTES:
        # no float holds the size of a grid past 2^1000 bytes
        size = f"a {grid_bytes / 2 ** 20:.0f} MiB" if grid_bytes < 2 ** 1000 else "an"
        raise InvalidParameterError(
            f"cutoff {cutoff} needs {size} amplitude grid, "
            f"over the {MAX_GRID_BYTES / 2 ** 20:.0f} MiB budget"
        )
    return cutoff


def _default_cutoff(mag: float, spread: float) -> int:
    """ceil(mu + spread sqrt(mu + 1) + 25) for a support reaching mu = mag^2;
    a mag whose mu passes 1e308 is refused before its square overflows."""
    if not mag < 1e154:
        raise InvalidParameterError(f"a mode amplitude of {mag} needs a cutoff past 1e308, "
                                    f"over the {MAX_GRID_BYTES / 2 ** 20:.0f} MiB budget")
    mu = mag ** 2
    return int(np.ceil(mu + spread * np.sqrt(mu + 1.0) + 25.0))


def _normalize(amps: np.ndarray, cutoff: int, context: str) -> float:
    """Tail-check and normalize ``amps`` in place (callers pass a fresh
    array); the tail mass."""
    captured = float(np.vdot(amps, amps).real)
    if not np.isfinite(captured):
        raise InconsistentSolutionError(
            f"{context}: non-finite amplitudes at cutoff {cutoff}"
        )
    tail = 1.0 - captured
    if tail > TAIL_TOL or captured <= 0.0:
        raise TruncationError(
            f"{context}: truncation tail {tail:.3e} exceeds tolerance {TAIL_TOL:.1e} "
            f"at cutoff {cutoff}"
        )
    parts = amps.view(np.float64)  # a real divisor: skip complex division
    parts /= math.sqrt(captured)
    return max(tail, 0.0)


def _coherent_vector(alpha: complex, cutoff: int) -> np.ndarray:
    """Poissonian amplitudes e^{-|a|^2/2} a^n / sqrt(n!) by recurrence.

    The recurrence runs up and down from the mode n0 = floor(|a|^2),
    started at its log-scale value: e^{-|a|^2/2} itself underflows once
    |a|^2 passes ~1490, which would zero the whole vector.
    """
    v = np.zeros(cutoff + 1, dtype=complex)
    mag = abs(alpha)
    if mag == 0.0:
        v[0] = 1.0
        return v
    n0 = min(int(mag * mag), cutoff)
    log_peak = -0.5 * mag * mag + n0 * math.log(mag) - 0.5 * math.lgamma(n0 + 1)
    v[n0] = math.exp(log_peak) * (alpha / mag) ** n0
    v[n0 + 1:] = v[n0] * np.cumprod(alpha / np.sqrt(np.arange(n0 + 1.0, cutoff + 1)))
    v[:n0] = (v[n0] * np.cumprod(np.sqrt(np.arange(n0, 0.0, -1.0)) / alpha))[::-1]
    return v


def coherent_state(alpha_p: complex, alpha_s: complex,
                   cutoff: int | None = None) -> TwoModeFockState:
    """Two-mode coherent state |alpha_p> (x) |alpha_s>, truncated.

    The state keeps the box of rows and columns where each mode vector
    reaches COHERENT_FLOOR of its peak, so the norm dropped around it is
    far below one rounding unit.  Raises TruncationError when the
    Poisson tail beyond the cutoff exceeds TAIL_TOL.
    """
    finite("alpha_p", complex(alpha_p))
    finite("alpha_s", complex(alpha_s))
    if cutoff is None:  # the Poisson tail of both modes far below 1e-10
        cutoff = _default_cutoff(max(abs(alpha_p), abs(alpha_s)), 12.0)
    cutoff = _check_cutoff(cutoff)
    v_p, m0 = _coherent_support(alpha_p, cutoff)
    v_s, n0 = _coherent_support(alpha_s, cutoff)
    block = np.outer(v_p, v_s)
    return TwoModeFockState(cutoff, block,
                            _normalize(block, cutoff, "coherent state"), (m0, n0))


def _coherent_support(alpha: complex, cutoff: int) -> tuple[np.ndarray, int]:
    """The stretch of the mode vector at or above COHERENT_FLOOR of its
    peak (one stretch: the Poisson amplitudes are unimodal) and its start."""
    v = _coherent_vector(alpha, cutoff)
    mag = np.abs(v)
    kept = np.flatnonzero(mag >= COHERENT_FLOOR * mag.max())
    return v[kept[0]:kept[-1] + 1], int(kept[0])


def _displacement_columns(alpha: complex, cutoff: int, ncols: int) -> np.ndarray:
    """The first ``ncols`` columns of exp(alpha a^dag - conj(alpha) a),
    truncated, in the number basis.

    The generator is gauge-equivalent (by a diagonal phase) to i times a
    real symmetric tridiagonal matrix, whose eigensolve (LAPACK dstevd)
    gives the exponential, exactly unitary on the truncated space.  Local
    Laguerre recurrences amplify roundoff like e^{n/2} and lose all
    precision past |alpha| of a few; do not revert to them.
    """
    dim = cutoff + 1
    mag = abs(alpha)
    if mag == 0.0:
        return np.eye(dim, ncols, dtype=complex)
    w, v, info = _lapack().dstevd(np.zeros(dim), mag * np.sqrt(np.arange(1.0, dim)),
                                  compute_v=1)
    if info != 0:
        raise InconsistentSolutionError(
            f"displacement eigensolve failed (LAPACK info {info}) at |alpha|={mag}")
    # core = v e^{iw} v[:ncols]^T, taken as one real product so that the
    # (dim x dim) eigenvector matrix is never copied to complex
    head = v[:ncols].T
    parts = v @ np.hstack([np.cos(w)[:, np.newaxis] * head,
                           np.sin(w)[:, np.newaxis] * head])
    core = parts[:, :ncols] + 1j * parts[:, ncols:]
    gauge = (-1j * np.exp(1j * np.angle(alpha))) ** np.arange(dim)
    return (gauge[:, np.newaxis] * core) * np.conj(gauge[:ncols])[np.newaxis, :]


def displaced_squeezed_state(alpha_p: complex, alpha_s: complex, zeta: complex,
                             cutoff: int | None = None) -> TwoModeFockState:
    """Two-mode squeezed vacuum displaced in each mode.

    The pair part is sum_n (e^{i theta} tanh s)^n |n, n> / cosh s with
    zeta = s e^{i theta}; the displacements act as truncated matrices.
    Only the first K pair terms are kept, K the smallest with
    (tanh s)^K < PAIR_AMPLITUDE_FLOOR, so the amplitudes are
    D_p[:, :K] diag(c) D_s[:, :K]^T at O(M^2 K) cost.  zeta = 0 reduces
    exactly to ``coherent_state``.  Raises TruncationError when the pair
    tail or the mass pressed against the grid boundary exceeds TAIL_TOL.
    """
    finite("alpha_p", complex(alpha_p))
    finite("alpha_s", complex(alpha_s))
    zeta = finite("zeta", complex(zeta))
    s = abs(zeta)
    if s == 0.0:
        return coherent_state(alpha_p, alpha_s, cutoff)
    r = np.tanh(s)
    if cutoff is None:
        # keep every pair column whose clipped mass could reach ~1e-12,
        # and cover the outer support edge (sqrt(n) + |alpha|)^2 of the
        # displaced number states those columns become
        if r >= 1.0:
            raise InvalidParameterError(
                f"squeezing s={s} rounds tanh s to 1: no finite cutoff holds it")
        amax = max(abs(alpha_p), abs(alpha_s))
        n_used = (12.0 * np.log(10.0) - np.log(1.0 - r * r)) / (-2.0 * np.log(r))
        cutoff = _default_cutoff(np.sqrt(n_used) + amax, 8.0)
    cutoff = _check_cutoff(cutoff)

    # the pair terms from K on hold r^(2K) of the norm
    pairs = cutoff + 1
    if r < 1.0:
        pairs = min(pairs, int(math.log(PAIR_AMPLITUDE_FLOOR) / math.log(r)) + 1)
    pair_amps = (1.0 / np.cosh(s)) * (r * np.exp(1j * np.angle(zeta))) ** np.arange(pairs)
    d_p = _displacement_columns(alpha_p, cutoff, pairs)
    d_s = d_p if alpha_s == alpha_p else _displacement_columns(alpha_s, cutoff, pairs)
    amps = (d_p * pair_amps[np.newaxis, :]) @ d_s.T
    # the displacement factors are exactly unitary, so a clipped support
    # aliases off the cutoff instead of losing norm; catch it by the mass
    # sitting against the grid boundary
    band = (np.sum(np.abs(amps[-5:, :]) ** 2)
            + np.sum(np.abs(amps[:-5, -5:]) ** 2))
    if band > TAIL_TOL:
        raise TruncationError(
            f"displaced squeezed state: boundary mass {band:.3e} exceeds "
            f"tolerance {TAIL_TOL:.1e} at cutoff {cutoff}"
        )
    return TwoModeFockState(cutoff, amps, _normalize(amps, cutoff, "displaced squeezed state"))


def squeezed_for_mean_photons(nbar: float, s: float, dphi: float = 0.0,
                              cutoff: int | None = None) -> TwoModeFockState:
    """Displaced squeezed state at the balanced operating point.

    Splits nbar as |alpha_p| = |alpha_s| = sqrt(nbar/2 - sinh^2 s) with
    real displacement phases, and sets the squeezing angle so that
    dphi = phi_p + phi_s - theta is the requested noise-balance phase
    (dphi = 0 minimizes the photon-difference variance).
    """
    finite("nbar", complex(nbar))
    finite("squeezing magnitude", complex(s))
    finite("dphi", complex(dphi))
    s = float(s)
    if s < 0.0:
        raise InvalidParameterError(f"squeezing magnitude must be >= 0, got {s}")
    # an s past asinh(sqrt(nbar/2)) is refused before sinh(s) can overflow
    alpha_sq = -1.0
    if nbar >= 0.0 and s <= math.asinh(math.sqrt(nbar / 2.0)):
        alpha_sq = nbar / 2.0 - np.sinh(s) ** 2
    if alpha_sq < 0.0:
        raise InvalidParameterError(
            f"nbar={nbar} too small for squeezing s={s}: needs nbar >= 2 sinh^2 s"
        )
    alpha = np.sqrt(alpha_sq)
    zeta = s * np.exp(-1j * dphi)  # phi_p = phi_s = 0, so theta = -dphi
    return displaced_squeezed_state(alpha, alpha, zeta, cutoff)


def embed_phase_state(psi: PhaseWaveFunction, N: int) -> LayerState:
    """Place a phase state onto the single Fock layer of N photons.

    The component Psi_l becomes the amplitude of |N/2 + l, N/2 - l>.  N
    must be even, so the window is integer-centred, and at most the
    largest float, which the moments take N + 1 as.  The state keeps a
    copy of the components in [-N/2, N/2], whatever N; clipping more
    than TAIL_TOL outside it raises TruncationError.
    """
    N = integer("layer photon number", N)
    if not 2 <= N <= sys.float_info.max or N % 2 != 0:
        got = N if abs(N) <= sys.float_info.max else f"one of {N.bit_length()} bits"
        raise InvalidParameterError("layer photon number must be even, >= 2 and at "
                                    f"most the largest float, got {got}")
    half = N // 2
    start = max(-half - psi.l_min, 0)
    amps = np.array(psi.amplitudes[start:max(half - psi.l_min + 1, 0)], dtype=complex)
    tail = _normalize(amps, N, f"phase state on layer N={N}")
    return LayerState(N, PhaseWaveFunction(psi.l_min + start, amps), tail)

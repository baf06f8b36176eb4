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

A state stores only the box of the grid that holds its support: the
block of amplitudes of |m0 + i, n0 + j> and its offset (m0, n0).  A
phase state embedded on one layer fills a w x w box for a support of
width w, whatever the layer; a coherent state keeps the rows and columns
where its mode vectors reach COHERENT_FLOOR of their peaks; squeezed
states keep the whole grid.  The dense (M+1)^2 grid is formed only on
request (``TwoModeFockState.amplitudes``), for the operator objects below.

Construction is tail-checked: every constructor records the probability
lost to the truncation before renormalizing, and raises TruncationError
when it exceeds the tolerance (default 1e-10).  Every constructor also
checks the (M+1)^2 grid against ``MAX_GRID_BYTES`` before allocating
anything, so the dense view of any state fits the budget.

Displaced squeezed states are built from the columns of the displacement
factors that their pair part reaches.  The pair amplitudes
(e^{i theta} tanh s)^n / cosh s leave (tanh s)^K of the norm beyond
column K, so K is set by s alone (51 at s=0.5, 144 at s=1) while the
cutoff grows with the displacement; restricting both factors to K
columns turns the O(M^3) dense products into O(M^2 K) ones.  The columns
still come from the exactly unitary tridiagonal eigensolve rather than
from Laguerre recurrences, which lose precision past |alpha| of a few.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import (
    DimensionMismatchError,
    InconsistentSolutionError,
    InvalidParameterError,
    TruncationError,
)
from .phase_space import PhaseWaveFunction

DEFAULT_TAIL_TOL = 1e-10

#: Largest amplitude grid a constructor may allocate, in bytes.
MAX_GRID_BYTES = 2 ** 30

#: Norm left out of a displaced squeezed state's pair part: under one
#: rounding unit of a unit-norm state.
PAIR_NORM_FLOOR = 1e-17

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

    @property
    def amplitudes(self) -> np.ndarray:
        """Dense (cutoff+1)^2 grid, amplitudes[m, n] of |m>_p |n>_s."""
        grid = np.zeros((self.cutoff + 1, self.cutoff + 1), dtype=complex)
        m0, n0 = self.offset
        rows, cols = self.block.shape
        grid[m0:m0 + rows, n0:n0 + cols] = self.block
        return grid


@dataclass(frozen=True)
class LayerOperator:
    """Dense operator restricted to one fixed-photon-number layer,
    in the basis |n, N-n> for n = 0..N."""

    photon_number: int
    matrix: np.ndarray


class DiagonalOperator:
    """Operator diagonal in the number basis, stored as its entry grid."""

    def __init__(self, values: np.ndarray):
        self.values = values
        self.cutoff = values.shape[0] - 1

    def apply(self, amps: np.ndarray) -> np.ndarray:
        return self.values * amps


class PhaseOperator:
    """The relative-phase unitary E on the square truncation."""

    def __init__(self, cutoff: int):
        self.cutoff = int(cutoff)

    def apply(self, amps: np.ndarray) -> np.ndarray:
        out = np.zeros_like(amps)
        out[:-1, 1:] = amps[1:, :-1]   # |m,n> <- |m+1,n-1| within each layer
        out[:, 0] = amps[0, :]         # wrap term |N,0><0,N| for every layer
        return out


def _index_grids(cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    m = np.arange(cutoff + 1, dtype=float)
    return np.meshgrid(m, m, indexing="ij")


def build_N_operator(cutoff: int) -> DiagonalOperator:
    """Total photon number, entries m + n."""
    m, n = _index_grids(cutoff)
    return DiagonalOperator(m + n)


def build_L_operator(cutoff: int) -> DiagonalOperator:
    """Half photon-number difference, entries (m - n) / 2."""
    m, n = _index_grids(cutoff)
    return DiagonalOperator(0.5 * (m - n))


def modulus_operator(cutoff: int) -> DiagonalOperator:
    """Amplitude-ratio modulus P = sqrt(N_p / (N_s + 1)).

    The +1 in the denominator is forced by operator ordering and breaks
    the classical p <-> s interchange symmetry.
    """
    m, n = _index_grids(cutoff)
    return DiagonalOperator(np.sqrt(m / (n + 1.0)))


def phase_operator(cutoff: int) -> PhaseOperator:
    return PhaseOperator(cutoff)


def phase_operator_layer(N: int) -> LayerOperator:
    """Cyclic-shift restriction of E to the N-photon layer.

    The matrix is the (N+1)-cycle permutation, hence unitary with
    eigenphases exactly uniform on the circle.
    """
    N = int(N)
    if N < 1:
        raise InvalidParameterError(f"layer photon number must be >= 1, got {N}")
    mat = np.zeros((N + 1, N + 1), dtype=complex)
    mat[np.arange(N), np.arange(1, N + 1)] = 1.0  # |n,N-n><n+1,N-n-1|
    mat[N, 0] = 1.0                               # |N,0><0,N|
    return LayerOperator(N, mat)


def _check_cutoff(cutoff: int) -> int:
    """Validated cutoff whose (cutoff+1)^2 complex grid fits the budget."""
    cutoff = int(cutoff)
    if cutoff < 1:
        raise InvalidParameterError(f"cutoff must be >= 1, got {cutoff}")
    grid_bytes = (cutoff + 1) ** 2 * np.dtype(complex).itemsize
    if grid_bytes > MAX_GRID_BYTES:
        raise InvalidParameterError(
            f"cutoff {cutoff} needs a {grid_bytes / 2 ** 20:.0f} MiB amplitude grid, "
            f"over the {MAX_GRID_BYTES / 2 ** 20:.0f} MiB budget"
        )
    return cutoff


def _check_finite(what: str, value: complex) -> None:
    value = complex(value)
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise InvalidParameterError(f"{what} must be finite, got {value}")


def _finish_state(block: np.ndarray, offset: tuple[int, int], cutoff: int,
                  tail_tol: float, context: str) -> TwoModeFockState:
    """Tail-check and normalize ``block`` in place (callers pass a fresh box)."""
    captured = float(np.vdot(block, block).real)
    if not np.isfinite(captured):
        raise InconsistentSolutionError(
            f"{context}: non-finite amplitudes at cutoff {cutoff}"
        )
    tail = 1.0 - captured
    if tail > tail_tol or captured <= 0.0:
        raise TruncationError(
            f"{context}: truncation tail {tail:.3e} exceeds tolerance {tail_tol:.1e} "
            f"at cutoff {cutoff}"
        )
    parts = block.view(np.float64)  # a real divisor: skip complex division
    parts /= math.sqrt(captured)
    return TwoModeFockState(cutoff, block, max(tail, 0.0), offset)


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


def auto_cutoff_coherent(alpha_p: complex, alpha_s: complex) -> int:
    """Cutoff putting the Poisson tail of both modes far below 1e-10."""
    mu = max(abs(alpha_p) ** 2, abs(alpha_s) ** 2)
    return int(np.ceil(mu + 12.0 * np.sqrt(mu + 1.0) + 25.0))


def coherent_state(alpha_p: complex, alpha_s: complex,
                   cutoff: int | None = None,
                   tail_tol: float = DEFAULT_TAIL_TOL) -> TwoModeFockState:
    """Two-mode coherent state |alpha_p> (x) |alpha_s>, truncated.

    The state keeps the box of rows and columns where each mode vector
    reaches COHERENT_FLOOR of its peak, so the norm dropped around it is
    far below one rounding unit.  Raises TruncationError when the
    Poisson tail beyond the cutoff exceeds ``tail_tol``.
    """
    _check_finite("alpha_p", alpha_p)
    _check_finite("alpha_s", alpha_s)
    if cutoff is None:
        cutoff = auto_cutoff_coherent(alpha_p, alpha_s)
    cutoff = _check_cutoff(cutoff)
    v_p, m0 = _coherent_support(alpha_p, cutoff)
    v_s, n0 = _coherent_support(alpha_s, cutoff)
    return _finish_state(np.outer(v_p, v_s), (m0, n0), cutoff, tail_tol,
                         "coherent state")


def _coherent_support(alpha: complex, cutoff: int) -> tuple[np.ndarray, int]:
    """The stretch of the mode vector at or above COHERENT_FLOOR of its
    peak (one stretch: the Poisson amplitudes are unimodal) and its start."""
    v = _coherent_vector(alpha, cutoff)
    mag = np.abs(v)
    kept = np.flatnonzero(mag >= COHERENT_FLOOR * mag.max())
    return v[kept[0]:kept[-1] + 1], int(kept[0])


def _displacement_columns(alpha: complex, cutoff: int, ncols: int) -> np.ndarray:
    """The first ``ncols`` columns of ``displacement_matrix(alpha, cutoff)``."""
    dim = cutoff + 1
    mag = abs(alpha)
    if mag == 0.0:
        return np.eye(dim, ncols, dtype=complex)
    w, v = eigh_tridiagonal(np.zeros(dim), mag * np.sqrt(np.arange(1.0, dim)))
    # core = v e^{iw} v[:ncols]^T, taken as one real product so that the
    # (dim x dim) eigenvector matrix is never copied to complex
    head = v[:ncols].T
    parts = v @ np.hstack([np.cos(w)[:, np.newaxis] * head,
                           np.sin(w)[:, np.newaxis] * head])
    core = parts[:, :ncols] + 1j * parts[:, ncols:]
    gauge = (-1j * np.exp(1j * np.angle(alpha))) ** np.arange(dim)
    return (gauge[:, np.newaxis] * core) * np.conj(gauge[:ncols])[np.newaxis, :]


def displacement_matrix(alpha: complex, cutoff: int) -> np.ndarray:
    """Truncated single-mode displacement matrix in the number basis.

    Computed as exp of the truncated generator alpha a^dag - conj(alpha) a,
    which is anti-Hermitian tridiagonal and gauge-equivalent (by a diagonal
    phase) to i times a real symmetric tridiagonal matrix; a structured
    eigensolve then gives the exponential directly.  The result is exactly
    unitary on the truncated space, with entries matching the infinite-
    space operator wherever its support is clear of the cutoff.

    This is the all-columns case of the column builder that
    ``displaced_squeezed_state`` calls with only the K columns its pair
    part reaches; each column costs O(M^2) after the O(M^2) eigensolve.

    Local three-term recurrences for the associated-Laguerre entries look
    cheaper but amplify roundoff like e^{n/2} along the matrix diagonals,
    losing all precision past |alpha| of a few; do not revert to them.
    """
    cutoff = _check_cutoff(cutoff)
    return _displacement_columns(alpha, cutoff, cutoff + 1)


def displaced_squeezed_state(alpha_p: complex, alpha_s: complex, zeta: complex,
                             cutoff: int | None = None,
                             tail_tol: float = DEFAULT_TAIL_TOL) -> TwoModeFockState:
    """Two-mode squeezed vacuum displaced in each mode.

    The pair part is sum_n (e^{i theta} tanh s)^n |n, n> / cosh s with
    zeta = s e^{i theta}; the displacements act as truncated matrices.
    Only the first K pair terms are kept, K the smallest with
    (tanh s)^K < PAIR_NORM_FLOOR, so the amplitudes are
    D_p[:, :K] diag(c) D_s[:, :K]^T at O(M^2 K) cost.  zeta = 0 reduces
    exactly to ``coherent_state``.  Raises TruncationError when the pair
    tail or the mass pressed against the grid boundary exceeds
    ``tail_tol``.
    """
    _check_finite("alpha_p", alpha_p)
    _check_finite("alpha_s", alpha_s)
    _check_finite("zeta", zeta)
    zeta = complex(zeta)
    s = abs(zeta)
    if s == 0.0:
        return coherent_state(alpha_p, alpha_s, cutoff, tail_tol)
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
        edge = (np.sqrt(n_used) + amax) ** 2
        cutoff = int(np.ceil(edge + 8.0 * np.sqrt(edge + 1.0) + 25.0))
    cutoff = _check_cutoff(cutoff)

    # the pair terms from K on hold r^(2K) of the norm
    pairs = cutoff + 1
    if r < 1.0:
        pairs = min(pairs, int(math.log(PAIR_NORM_FLOOR) / math.log(r)) + 1)
    pair_amps = (1.0 / np.cosh(s)) * (r * np.exp(1j * np.angle(zeta))) ** np.arange(pairs)
    d_p = _displacement_columns(alpha_p, cutoff, pairs)
    d_s = d_p if alpha_s == alpha_p else _displacement_columns(alpha_s, cutoff, pairs)
    amps = (d_p * pair_amps[np.newaxis, :]) @ d_s.T
    # the displacement factors are exactly unitary, so a clipped support
    # aliases off the cutoff instead of losing norm; catch it by the mass
    # sitting against the grid boundary
    band = (np.sum(np.abs(amps[-5:, :]) ** 2)
            + np.sum(np.abs(amps[:-5, -5:]) ** 2))
    if band > tail_tol:
        raise TruncationError(
            f"displaced squeezed state: boundary mass {band:.3e} exceeds "
            f"tolerance {tail_tol:.1e} at cutoff {cutoff}"
        )
    return _finish_state(amps, (0, 0), cutoff, tail_tol, "displaced squeezed state")


def squeezed_for_mean_photons(nbar: float, s: float, dphi: float = 0.0,
                              cutoff: int | None = None,
                              tail_tol: float = DEFAULT_TAIL_TOL) -> TwoModeFockState:
    """Displaced squeezed state at the balanced operating point.

    Splits nbar as |alpha_p| = |alpha_s| = sqrt(nbar/2 - sinh^2 s) with
    real displacement phases, and sets the squeezing angle so that
    dphi = phi_p + phi_s - theta is the requested noise-balance phase
    (dphi = 0 minimizes the photon-difference variance).
    """
    _check_finite("nbar", nbar)
    _check_finite("squeezing magnitude", s)
    _check_finite("dphi", dphi)
    s = float(s)
    if s < 0.0:
        raise InvalidParameterError(f"squeezing magnitude must be >= 0, got {s}")
    alpha_sq = nbar / 2.0 - np.sinh(s) ** 2
    if alpha_sq < 0.0:
        raise InvalidParameterError(
            f"nbar={nbar} too small for squeezing s={s}: needs nbar >= 2 sinh^2 s"
        )
    alpha = np.sqrt(alpha_sq)
    zeta = s * np.exp(-1j * dphi)  # phi_p = phi_s = 0, so theta = -dphi
    return displaced_squeezed_state(alpha, alpha, zeta, cutoff, tail_tol)


def embed_phase_state(psi: PhaseWaveFunction, N: int,
                      tail_tol: float = DEFAULT_TAIL_TOL) -> TwoModeFockState:
    """Place a phase state onto the single Fock layer of N photons.

    The component Psi_l becomes the amplitude of |N/2 + l, N/2 - l>.
    N must be even so the index window is integer-centred; support
    clipped outside l in [-N/2, N/2] beyond ``tail_tol`` raises
    TruncationError.  The in-window components l_lo..l_hi fill the
    anti-diagonal of a w x w box at offset (N/2 + l_lo, N/2 - l_hi),
    w = l_hi - l_lo + 1, so the cost does not depend on N.
    """
    N = int(N)
    if N < 2 or N % 2 != 0:
        raise InvalidParameterError(f"layer photon number must be even and >= 2, got {N}")
    _check_cutoff(N)
    half = N // 2
    l_min = int(psi.l_min)
    l_lo = max(l_min, -half)
    l_hi = min(l_min + len(psi.amplitudes) - 1, half)
    width = max(l_hi - l_lo + 1, 0)
    block = np.zeros((width, width), dtype=complex)
    i = np.arange(width)
    block[i, width - 1 - i] = psi.amplitudes[l_lo - l_min:l_lo - l_min + width]
    return _finish_state(block, (half + l_lo, half - l_hi), N, tail_tol,
                         f"phase state on layer N={N}")


def _check_dims(state: TwoModeFockState, op) -> None:
    if getattr(op, "cutoff", None) != state.cutoff:
        raise DimensionMismatchError(
            f"operator cutoff {getattr(op, 'cutoff', None)} != state cutoff {state.cutoff}"
        )


def expectation(state: TwoModeFockState, op) -> complex:
    """<psi| A |psi> for any operator exposing apply()."""
    _check_dims(state, op)
    amps = state.amplitudes
    return complex(np.vdot(amps, op.apply(amps)))


def variance_hermitian(state: TwoModeFockState, op) -> float:
    """<A^2> - <A>^2 for Hermitian A (uses <A^2> = ||A psi||^2)."""
    _check_dims(state, op)
    amps = state.amplitudes
    applied = op.apply(amps)
    mean = np.vdot(amps, applied).real
    second = np.vdot(applied, applied).real
    return max(second - mean * mean, 0.0)


def circular_variance_unitary(state: TwoModeFockState, unitary) -> float:
    """1 - |<U>|^2, the variance notion adapted to unitary operators."""
    e = expectation(state, unitary)
    return min(max(1.0 - abs(e) ** 2, 0.0), 1.0)


def extract_layer(state: TwoModeFockState, N: int) -> np.ndarray:
    """Unnormalized layer-N amplitude vector, entries <n, N-n | psi>."""
    N = int(N)
    if N < 0:
        raise InvalidParameterError(f"layer photon number must be >= 0, got {N}")
    if N > state.cutoff:
        raise DimensionMismatchError(f"layer {N} exceeds cutoff {state.cutoff}")
    m0, n0 = state.offset
    rows, cols = state.block.shape
    # the layer crosses the box for m0 <= n < m0 + rows and n0 <= N - n < n0 + cols
    n = np.arange(max(m0, N - n0 - cols + 1), min(m0 + rows, N - n0 + 1))
    out = np.zeros(N + 1, dtype=complex)
    out[n] = state.block[n - m0, N - n - n0]
    return out

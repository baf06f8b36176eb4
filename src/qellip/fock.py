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

A Gaussian state is stored as its mode factors: the amplitude of
|m, n> is A[m, n] = sum_k d_p[m, k] c_k d_s[n, k], with d_p and d_s
holding the M+1 rows of K columns of the displacement operators and c
the pair amplitudes.  A coherent state is the case K = 1; A itself is
never formed.  A phase state embedded on one layer is a ``LayerState``:
the window of components Psi_l on |N/2 + l, N/2 - l> itself, whatever
the layer.  ``noise.analyze`` takes every moment from the stored
factors or window; no dense grid or operator object is built.

Construction is tail-checked: every constructor records the probability
lost to the truncation before renormalizing, and raises TruncationError
when it exceeds TAIL_TOL = 1e-10: one fixed rule, which no argument or
environment variable changes.  A Gaussian state's cutoff is derived from
its parameters, never set.  The two-mode constructors check the bytes
of their factors against ``MAX_FACTOR_BYTES`` before allocating anything.

The displacement columns G[m, n] = <m|D(alpha)|n> come from the
recurrence in the degree n (the Charlier recurrence, DLMF 18.22),

    alpha sqrt(n+1) G[m,n+1] = (m - n - |alpha|^2) G[m,n] - conj(alpha) sqrt(n) G[m,n-1],

run across all rows at once from the coherent column G[:, 0], each row
carrying its own power-of-two scale so that rows whose start underflows
keep their digits.  It is stable except where G[m, n] is its recessive
solution, m < (sqrt(n) - |alpha|)^2 (Gautschi, SIAM Rev. 9, 24 (1967)),
which lies in the top K x K block; those entries come from
<m|D(a)|n> = (-1)^(n-m) <n|D(a)|m> at real a.  The recurrence in m,
sqrt(m+1) G[m+1,n] = ..., loses everything past |alpha| of a few (error
1e38 at |alpha| = 7); do not use it.  The recurrence runs about
4 sqrt(M+1) + 25 rows past the cutoff, and the tail is the mass in
those rows over the total, so rounding in the kept rows never reads as
tail.  The recurrence costs O(M K), the Grams of the tail check and of
``analyze`` O(M K^2).
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
from .phase_space import PhaseWaveFunction

#: Largest norm a constructor may lose to its truncation.
TAIL_TOL = 1e-10

#: Largest memory a two-mode constructor may plan for, in bytes: the
#: factors of each distinct mode over the rows of the tail check, two
#: factor-sized scratch arrays, sixteen row vectors and the K x K Grams
#: held at once (two per distinct mode and one product), at 16 bytes an
#: entry where a displacement or the pair ratio is complex.
MAX_FACTOR_BYTES = 2 ** 30

#: Bound on the pair amplitudes a displaced squeezed state drops: K is the
#: smallest count with (tanh s)^K / (1 - tanh s) < PAIR_AMPLITUDE_FLOOR,
#: the sum of every dropped pair amplitude.  No displacement entry
#: exceeds 1 in magnitude, so no stored amplitude moves by more than this
#: from the sum over all pair columns, at any s: about the accuracy of
#: the columns themselves (1e-13 against the Laguerre closed form).  The
#: norm the dropped terms hold, (tanh s)^(2K), counts as tail.
PAIR_AMPLITUDE_FLOOR = 1e-14

#: Displacements below this magnitude build the identity columns: every
#: moment moves by |alpha|^2 or less, which is under the float range.
_IDENTITY_BELOW = 1e-162

#: Factor entries below this magnitude are stored as zeros: together they
#: move no moment by more than about 1e-130, while products that reach
#: the subnormal range run many times slower (six times for a Gram at
#: s = 2, K = 535).
_NEGLIGIBLE = 1e-150

#: Factor columns handled per step where a pass over all of them at once
#: would need scratch arrays the size of the factor.
_BLOCK = 256


@dataclass(frozen=True)
class TwoModeFockState:
    """Normalized amplitudes A = d_p diag(c) d_s^T over the truncated
    two-mode basis, stored as the factors.

    d_p and d_s are (cutoff+1, K) arrays (the same object when the two
    modes share a displacement) and c has K entries.  tail_mass is the
    norm lost to the truncation, recorded before renormalization.
    """

    cutoff: int
    d_p: np.ndarray
    c: np.ndarray
    d_s: np.ndarray
    tail_mass: float

    def __post_init__(self):
        shape = (self.cutoff + 1, len(self.c))
        if self.c.ndim != 1 or self.d_p.shape != shape or self.d_s.shape != shape:
            raise DimensionMismatchError(
                f"factors {self.d_p.shape} and {self.d_s.shape} with {self.c.shape} "
                f"pair amplitudes do not give a grid of cutoff {self.cutoff}"
            )


@dataclass(frozen=True)
class LayerState:
    """A phase state on the Fock layer of N = ``cutoff`` photons: Psi_l of
    ``psi`` multiplies |N/2 + l, N/2 - l>.  tail_mass is the norm deficit
    the clip to |l| <= N/2 left before renormalization."""

    cutoff: int
    psi: PhaseWaveFunction
    tail_mass: float


def _budget_rows(cutoff: int, pairs: int, modes: int, itemsize: int) -> int:
    """The rows the recurrence runs over, past the cutoff, once the
    memory a build and its analysis plan for fits MAX_FACTOR_BYTES."""
    rows = cutoff + 1 + 4 * math.isqrt(cutoff + 1) + 25
    need = (((modes + 2) * pairs + 16) * rows + (2 * modes + 1) * pairs * pairs) * itemsize
    if need > MAX_FACTOR_BYTES:
        # no float holds a size past 2^1000 bytes
        size = f"{need / 2 ** 20:.0f} MiB of" if need < 2 ** 1000 else "more than 2^1000 bytes of"
        raise InvalidParameterError(
            f"cutoff {cutoff} with K = {pairs} needs {size} mode factors, "
            f"over the {MAX_FACTOR_BYTES / 2 ** 20:.0f} MiB budget"
        )
    return rows


def _default_cutoff(mag: float, spread: float) -> int:
    """ceil(mu + spread sqrt(mu + 1) + 25) for a support reaching mu = mag^2;
    a mag whose mu passes 1e308 is refused before its square overflows."""
    if not mag < 1e154:
        raise InvalidParameterError(f"a mode amplitude of {mag} needs a cutoff past 1e308, "
                                    f"over the {MAX_FACTOR_BYTES / 2 ** 20:.0f} MiB budget")
    mu = mag ** 2
    return int(np.ceil(mu + spread * np.sqrt(mu + 1.0) + 25.0))


def _check_tail(tail: float, cutoff: int, context: str) -> None:
    if not math.isfinite(tail):
        raise InconsistentSolutionError(f"{context}: non-finite amplitudes at cutoff {cutoff}")
    if tail > TAIL_TOL:
        raise TruncationError(
            f"{context}: truncation tail {tail:.3e} exceeds tolerance {TAIL_TOL:.1e} "
            f"at cutoff {cutoff}"
        )


def _normalize(amps: np.ndarray, cutoff: int, context: str) -> float:
    """Tail-check and normalize ``amps`` in place (callers pass a fresh
    array); the tail mass."""
    captured = float(np.vdot(amps, amps).real)
    tail = 1.0 - captured
    _check_tail(tail, cutoff, context)
    parts = amps.view(np.float64)  # a real divisor: skip complex division
    parts /= math.sqrt(captured)
    return max(tail, 0.0)


def _scaled_cumprod(mant: float, expo: int, ratios: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """mant 2^expo times the running products of ``ratios`` (each in
    (0, 1]), as mantissas and integer powers of two: renormalized every
    stretch short enough that its product cannot underflow."""
    out_m = np.empty(len(ratios))
    out_e = np.empty(len(ratios), dtype=np.int64)
    if len(ratios) == 0:
        return out_m, out_e
    smallest = float(ratios.min())
    step = len(ratios) if smallest >= 1.0 else max(1, int(600.0 / -math.log(smallest)))
    for lo in range(0, len(ratios), step):
        out_m[lo:lo + step], e = np.frexp(mant * np.cumprod(ratios[lo:lo + step]))
        out_e[lo:lo + step] = e + expo
        mant, expo = out_m[lo + len(e) - 1], int(out_e[lo + len(e) - 1])
    return out_m, out_e


def _coherent_start(a: float, rows: int, ncols: int) -> tuple[np.ndarray, np.ndarray]:
    """e^{-a^2/2} a^m / sqrt(m!) for m < rows at a > 0, as mantissas and
    integer powers of two, so that no row the first ``ncols`` columns
    reach underflows.

    The products run up and down from the mode n0 = floor(a^2), started
    at its log-scale value; every ratio on the way is at most 1.  They
    stop 30 past the rows (a -+ sqrt(ncols))^2 that the columns' supports
    span, where every entry is under e^-900 and would be flushed to zero
    anyway: at a^2 = 1e6 the full rows take 74 ms, the window 2 ms.  (A
    cumulative sum of log2 ratios instead would lose |log2| ulps on
    every row: 4e-12 of the entries at |alpha| = 1e-3, K = 535, whose
    rows start near 2^-8000.)
    """
    n0 = min(int(a * a), rows - 1)
    # split the log-scale peak into powers of two; its rounding is one
    # factor common to every row, which normalization removes
    log2_peak = (-0.5 * a * a + n0 * math.log(a) - 0.5 * math.lgamma(n0 + 1)) / math.log(2.0)
    e0 = math.floor(log2_peak) + 1
    peak = 2.0 ** (log2_peak - e0)
    reach = math.sqrt(ncols) + 30.0
    lo = int(max(a - reach, 0.0) ** 2)
    hi = min(rows, int((a + reach) ** 2) + 1)
    mant = np.zeros(rows)
    expo = np.zeros(rows, dtype=np.int64)
    mant[n0], expo[n0] = peak, e0
    if n0 + 1 < hi:
        mant[n0 + 1:hi], expo[n0 + 1:hi] = _scaled_cumprod(
            peak, e0, a / np.sqrt(np.arange(n0 + 1.0, hi)))
    if lo < n0:
        down_m, down_e = _scaled_cumprod(peak, e0, np.sqrt(np.arange(n0, lo, -1.0)) / a)
        mant[lo:n0], expo[lo:n0] = down_m[::-1], down_e[::-1]
    return mant, expo


def _displacement_factor(alpha: complex, rows: int, ncols: int) -> np.ndarray:
    """G[m, n] = <m|D(alpha)|n> for m < rows and n < ncols <= rows, as the
    (ncols, rows) array whose row n is column n of D(alpha).

    The recurrence in n runs at a = |alpha|, with every row scaled by its
    own power of two (renormalized often enough that no step can
    overflow) and the recessive entries zeroed as they come; those are
    then taken from the transposed entries of the top block.  The phase
    e^{i (m - n) arg alpha} is applied last, so the factor is real for
    real alpha.
    """
    alpha = complex(alpha)
    a = abs(alpha)
    if a < _IDENTITY_BELOW:
        return np.eye(ncols, rows)
    mant, expo = _coherent_start(a, rows, ncols)
    out = np.empty((ncols, rows))
    np.ldexp(mant, expo, out=out[0])
    if ncols > 1:
        shifted = np.arange(rows, dtype=float) - a * a
        # a step multiplies a row by at most `growth`; renormalize
        # before `every` steps can take it past 2^865
        growth = (rows + ncols + a * a) / a + 1.0
        every = max(1, int(600.0 / math.log(growth)))
        prev, cur = np.zeros(rows), mant
        nxt, tmp = np.empty(rows), np.empty(rows)
        for n in range(ncols - 1):
            np.subtract(shifted, n, out=nxt)
            nxt *= cur
            np.multiply(prev, a * math.sqrt(n), out=tmp)
            nxt -= tmp
            nxt *= 1.0 / (a * math.sqrt(n + 1))
            edge = math.sqrt(n + 1) - a
            if edge > 0.0:  # rows m < edge^2 are recessive in column n+1
                nxt[:min(rows, math.ceil(edge * edge))] = 0.0
            np.ldexp(nxt, expo, out=out[n + 1])
            prev, cur, nxt = cur, nxt, prev
            if (n + 1) % every == 0:
                _, e = np.frexp(np.maximum(np.abs(prev), np.abs(cur)))
                prev, cur = np.ldexp(prev, -e), np.ldexp(cur, -e)
                expo += e
        # out[n, m] = G[m, n]; the recessive ones from (-1)^(n-m) G[n, m],
        # which lie in the lower triangle (m < n) and read only its upper
        # one; by blocks of rows, so no scratch array reaches ncols^2
        for lo in range(0, ncols, _BLOCK):
            n = np.arange(lo, min(lo + _BLOCK, ncols))
            m = np.arange(n[-1] + 1)
            edge = np.maximum(np.sqrt(n) - a, 0.0)
            recessive = m[np.newaxis, :] < (edge * edge)[:, np.newaxis]
            block = out[lo:lo + len(n), :len(m)]
            flipped = out[:len(m), lo:lo + len(n)].T * (1.0 - 2.0 * ((n[:, np.newaxis] - m) % 2))
            np.copyto(block, flipped, where=recessive)
    for lo in range(0, ncols, _BLOCK):
        block = out[lo:lo + _BLOCK]
        block[np.abs(block) < _NEGLIGIBLE] = 0.0
    if alpha.imag == 0.0 and alpha.real > 0.0:
        return out
    unit = alpha / a
    unit = unit.real if unit.imag == 0.0 else unit
    phase = np.empty(rows, dtype=type(unit))
    phase[0] = 1.0
    phase[1:] = np.cumprod(np.full(rows - 1, unit))
    out = out * phase[np.newaxis, :]
    out *= np.conj(phase[:ncols])[:, np.newaxis]
    return out


def _gram(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x^H y."""
    return (x.T if x.dtype.kind == "f" else x.conj().T) @ y


def _pair_form(c: np.ndarray, f_p: np.ndarray, f_s: np.ndarray) -> complex:
    """c^H (f_p o f_s) c: the expectation of an operator whose factor
    Grams on the two modes are f_p and f_s."""
    return complex(np.vdot(c, (f_p * f_s) @ c))


def _gaussian_state(alpha_p: complex, alpha_s: complex, cutoff: int, pairs: int,
                    ratio: complex, dropped: float, context: str) -> TwoModeFockState:
    """The state sum_k ratio^k D(alpha_p)|k> D(alpha_s)|k> over k < pairs,
    truncated at the cutoff, tail-checked and normalized.  ``dropped`` is
    the share of the norm held by the pair terms from ``pairs`` on."""
    same = alpha_s == alpha_p
    real = all(complex(z).imag == 0.0 for z in (alpha_p, alpha_s, ratio))
    rows = _budget_rows(cutoff, pairs, 1 if same else 2, 8 if real else 16)
    c = ratio ** np.arange(pairs)
    d_p = _displacement_factor(alpha_p, rows, pairs).T
    d_s = d_p if same else _displacement_factor(alpha_s, rows, pairs).T
    kept = cutoff + 1
    in_p, out_p = _gram(d_p[:kept], d_p[:kept]), _gram(d_p[kept:], d_p[kept:])
    in_s, out_s = ((in_p, out_p) if same else
                   (_gram(d_s[:kept], d_s[:kept]), _gram(d_s[kept:], d_s[kept:])))
    inside = _pair_form(c, in_p, in_s).real
    outside = (_pair_form(c, in_p, out_s) + _pair_form(c, out_p, out_s)
               + _pair_form(c, out_p, in_s)).real
    total = inside + outside
    tail = dropped + (1.0 - dropped) * outside / total if inside > 0.0 else 1.0
    _check_tail(tail if math.isfinite(total) else total, cutoff, context)
    d_p = d_p[:kept]
    return TwoModeFockState(cutoff, d_p, c / math.sqrt(inside),
                            d_p if same else d_s[:kept], tail)


def coherent_state(alpha_p: complex, alpha_s: complex) -> TwoModeFockState:
    """Two-mode coherent state |alpha_p> (x) |alpha_s>, truncated: one
    factor column per mode.  The cutoff is ceil(mu + 12 sqrt(mu + 1) + 25),
    mu the larger mean photon number, where the Poisson tail of both modes
    is far below TAIL_TOL; a larger tail raises TruncationError.
    """
    finite("alpha_p", complex(alpha_p))
    finite("alpha_s", complex(alpha_s))
    cutoff = _default_cutoff(max(abs(alpha_p), abs(alpha_s)), 12.0)
    return _gaussian_state(alpha_p, alpha_s, cutoff, 1, 0.0, 0.0, "coherent state")


def displaced_squeezed_state(alpha_p: complex, alpha_s: complex,
                             zeta: complex) -> TwoModeFockState:
    """Two-mode squeezed vacuum displaced in each mode.

    The pair part is sum_n (e^{i theta} tanh s)^n |n, n> / cosh s with
    zeta = s e^{i theta}.  Only the first K pair terms are kept, K the
    smallest with (tanh s)^K / (1 - tanh s) < PAIR_AMPLITUDE_FLOOR (at
    most cutoff + 1), so the state is D_p[:, :K] diag(c) D_s[:, :K]^T and
    no amplitude moves by more than that bound from the sum over all pair
    terms; the norm the dropped terms hold, (tanh s)^(2K), counts as
    tail.  zeta = 0 reduces exactly to ``coherent_state``.  The cutoff
    covers every pair column whose clipped mass could reach ~1e-12 and
    the outer support edge (sqrt(n) + |alpha|)^2 of the displaced number
    states those columns become.  Raises TruncationError when the mass
    past the cutoff and the dropped pair terms exceed TAIL_TOL.
    """
    finite("alpha_p", complex(alpha_p))
    finite("alpha_s", complex(alpha_s))
    zeta = finite("zeta", complex(zeta))
    s = abs(zeta)
    if s == 0.0:
        return coherent_state(alpha_p, alpha_s)
    r = np.tanh(s)
    if r >= 1.0:
        raise InvalidParameterError(
            f"squeezing s={s} rounds tanh s to 1: no finite cutoff holds it")
    amax = max(abs(alpha_p), abs(alpha_s))
    n_used = (12.0 * np.log(10.0) - np.log(1.0 - r * r)) / (-2.0 * np.log(r))
    cutoff = _default_cutoff(np.sqrt(n_used) + amax, 8.0)

    # the pair terms from K on sum to at most r^K / (1 - r) in any
    # amplitude, and hold r^(2K) of the norm
    pairs = min(cutoff + 1, int(math.log(PAIR_AMPLITUDE_FLOOR * (1.0 - r)) / math.log(r)) + 1)
    # the common factor 1 / cosh s goes with the normalization
    unit = zeta / s
    return _gaussian_state(alpha_p, alpha_s, cutoff, pairs,
                           r * (unit.real if unit.imag == 0.0 else unit),
                           float(r) ** (2 * pairs), "displaced squeezed state")


def squeezed_for_mean_photons(nbar: float, s: float, dphi: float = 0.0) -> TwoModeFockState:
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
    return displaced_squeezed_state(alpha, alpha, zeta)


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

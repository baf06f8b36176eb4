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
holding K columns of the displacement operators and c the pair
amplitudes.  A coherent state is the case K = 1; A itself is never
formed.  Each factor keeps only its window of rows, from the first to
the last whose amplitude bound (|d[m]| @ |c|) / ||c|| reaches
ROW_AMPLITUDE_FLOOR = 1e-15, with the row offset of its first row.  The
bound is safe: the factor entries are entries of a unitary, so no
amplitude |A[m, n]| in a dropped row exceeds it, and it lies far under
the 1.3e-13 the columns themselves carry.  A state's nominal cutoff M is
kept, and the memory plan of ``_budget_rows`` is unchanged, since the
recurrence still runs over every row up to the cutoff and past it;
windowing the recurrence itself, so that memory too is bounded by the
support, is left for later.

A phase state embedded on one layer is a ``LayerState``: the window of
components Psi_l on |N/2 + l, N/2 - l> itself, whatever the layer.
Each state's ``moments()`` takes every moment from its
stored factors or window; no dense grid or operator object is built.

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
keep their digits (rows start near 2^-6591 at |alpha| = 0.03, K = 604):
a multiply applies the scales that are normal floats, which rounds as
ldexp does, a row under 2^-1400 scales by 0, since its entries lie far
under the flush to zero, and the few rows between take ldexp.  It is
stable except where G[m, n] is its recessive solution,
m < (sqrt(n) - |alpha|)^2 (Gautschi, SIAM Rev. 9, 24 (1967)), in the top
K x K block of the columns n > |alpha|^2 (there are some when
sqrt(K - 1) > |alpha|); those entries come from
<m|D(a)|n> = (-1)^(n-m) <n|D(a)|m> at real a.
The recurrence in m, sqrt(m+1) G[m+1,n] = ..., loses everything past
|alpha| of a few (error 1e38 at |alpha| = 7); do not use it.  The
recurrence runs about 4 sqrt(M+1) + 25 rows past the cutoff, and the
tail is the mass in those rows over the total, so rounding in the kept
rows never reads as tail.  The recurrence costs O(M K), the Grams of
the tail check O(R K^2) over the R rows of the windows, and ``moments``,
reusing the in-window Grams of the tail check, about 4.5 R K^2
multiply-adds where the modes share a real factor of _SYMMETRIC_FROM
(100) columns or more: two general products, and five weighted Grams
from symmetric products at half their cost.  A state of rank one,
selected by K = len(c) == 1 alone (every coherent state, and a displaced
squeezed state whose pair columns collapse to one, as at s = 1e-20), is
a product of two one-mode states and takes its product form: the window
of its column is where |d| reaches ROW_AMPLITUDE_FLOOR, its tail comes
from dot products, and ``moments`` from the two one-mode distributions,
in O(R) with no K x K Gram.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

import numpy as np

from .errors import (
    Checked,
    DimensionMismatchError,
    InconsistentSolutionError,
    InvalidParameterError,
    TruncationError,
    finite,
    integer,
)
from .phase_space import PhaseWaveFunction, circular_moments, phase_moments

#: Largest norm a constructor may lose to its truncation.
TAIL_TOL = 1e-10

#: Largest memory a two-mode constructor may plan for, in bytes: the
#: factors of each distinct mode over the rows of the tail check, two
#: factor-sized scratch arrays, sixteen row vectors and the K x K Grams
#: held at once (two per distinct mode and one product; ``moments`` may
#: hold one more in place of a scratch array, K being at most the rows),
#: at 16 bytes an entry where a displacement or the pair ratio is complex.
MAX_FACTOR_BYTES = 2 ** 30

#: Bound on the pair amplitudes a displaced squeezed state drops: K is the
#: smallest count with (tanh s)^K / (1 - tanh s) < PAIR_AMPLITUDE_FLOOR,
#: the sum of every dropped pair amplitude.  No displacement entry
#: exceeds 1 in magnitude, so no stored amplitude moves by more than this
#: from the sum over all pair columns, at any s: about the accuracy of
#: the columns themselves (1.3e-13 against the 40-digit Laguerre closed
#: form of ``tests/oracles.py`` at s = 2, nbar 26.31).  The norm the
#: dropped terms hold, (tanh s)^(2K), counts as tail.
PAIR_AMPLITUDE_FLOOR = 1e-14

#: Rows of a mode factor whose amplitude bound (|d[m]| @ |c|) / ||c|| falls
#: under this, before the first and past the last that reach it, are
#: dropped: every amplitude |A[m, n]| in row m is under the bound, since
#: the factor entries are entries of a unitary, and the floor lies far
#: under the 1.3e-13 the displacement columns themselves carry.
ROW_AMPLITUDE_FLOOR = 1e-15

#: Displacements below this magnitude build the identity columns: every
#: moment moves by |alpha|^2 or less, which is under the float range.
_IDENTITY_BELOW = 1e-162

#: Factor entries below this magnitude are stored as zeros: together they
#: move no moment by more than about 1e-130, while products that reach
#: the subnormal range run many times slower (six times for a Gram at
#: s = 2, K = 535).
_NEGLIGIBLE = 1e-150

#: Factor columns from which a weighted Gram of a real factor is formed
#: from symmetric products (syrk): on fewer, OpenBLAS's syrk saves less
#: than the extra calls cost.  On one thread of a Xeon (Haswell kernels,
#: OpenBLAS 0.3.31), a Gram whose weight changes sign took 23 us against
#: 10 us for the general product at K = 43 on 81 rows, and 174 us against
#: 232 us at K = 124 on 329 rows.
_SYMMETRIC_FROM = 100

#: Factor columns handled per step where a pass over all of them at once
#: would need scratch arrays the size of the factor.
_BLOCK = 256


class _TwoModeFockStateFields(NamedTuple):
    d_p: np.ndarray
    c: np.ndarray
    d_s: np.ndarray
    tail_mass: float
    cutoff: int | None = None
    lo_p: int = 0
    lo_s: int = 0
    gram_p: np.ndarray | None = None
    gram_s: np.ndarray | None = None


class TwoModeFockState(Checked, _TwoModeFockStateFields):
    """Normalized amplitudes A = d_p diag(c) d_s^T over the truncated
    two-mode basis 0 <= m, n <= cutoff, stored as the factors.

    d_p and d_s are (R, K) windows of rows (the same object, from the
    same row, when the two modes share a displacement): row j of d_p is
    photon number lo_p + j of the p mode, and of d_s lo_s + j of the s
    mode, and every amplitude outside the windows is zero.  A Gaussian constructor keeps the rows
    from the first to the last whose amplitude bound reaches
    ROW_AMPLITUDE_FLOOR = 1e-15, which bounds every amplitude it drops
    (the factor entries are entries of a unitary) far under the 1.3e-13
    the columns carry, so ``moments()`` costs O(R K^2) over the R window
    rows, whatever the cutoff.  The cutoff keeps its nominal value (the
    last row of d_p past lo_p when not given), and the memory plan of
    ``_budget_rows`` is unchanged: the windows are views of factors built
    over every row, and windowing that recurrence is left for later.  c
    has K entries.  gram_p and gram_s, when given, are d_p^H d_p and
    d_s^H d_s, which the constructors form for their tail check.
    tail_mass is the norm lost to the truncation, recorded before
    renormalization.  Factors that do not fit together or in the cutoff
    raise DimensionMismatchError.
    """

    __slots__ = ()

    def __new__(cls, d_p: np.ndarray, c: np.ndarray, d_s: np.ndarray, tail_mass: float,
                cutoff: int | None = None, lo_p: int = 0, lo_s: int = 0,
                gram_p: np.ndarray | None = None, gram_s: np.ndarray | None = None):
        k = len(c)
        if cutoff is None:
            cutoff = lo_p + len(d_p) - 1
        if (c.ndim != 1 or d_p.ndim != 2 or d_s.ndim != 2 or d_p.shape[1] != k
                or d_s.shape[1] != k or min(lo_p, lo_s) < 0 or (d_s is d_p and lo_s != lo_p)
                or max(lo_p + len(d_p), lo_s + len(d_s)) > cutoff + 1
                or any(g is not None and g.shape != (k, k) for g in (gram_p, gram_s))):
            raise DimensionMismatchError(
                f"factors {d_p.shape} from row {lo_p} and {d_s.shape} from row {lo_s} do "
                f"not fit together with {c.shape} pair amplitudes under cutoff {cutoff}")
        return super().__new__(cls, d_p, c, d_s, tail_mass, cutoff, lo_p, lo_s, gram_p, gram_s)

    def moments(self) -> tuple[float, complex, float, float, float, float]:
        """(n_mean, e_mean, e_var, l_mean, l_var, p_var) of the state.

        An operator f(N_p) g(N_s) has <f g> = c^H (F_p o G_s) c with the K x K
        Grams F_p = d_p^H diag(f) d_p and G_s = d_s^H diag(g) d_s, f and g
        taken at the photon numbers lo + j of the window rows; the plain
        Grams d^H d are gram_p and gram_s when the constructor gave them.
        The mode marginals (rows of d_p against the s-mode Gram, and back)
        give every one-mode moment, and the Grams of centred one-mode
        weights the rest: dm = N_p - <N_p> and dn = N_s - <N_s> the N_p-N_s
        covariance, and dx = X - x and dy = Y - y, for P = X Y with
        X = sqrt(N_p), Y = 1/sqrt(N_s + 1), x = <X> and y = <Y>,

            Var P = y^2 Var X + x^2 Var Y + E[dx^2 dy^2] + 2xy E[dx dy]
                    + 2y E[dx^2 dy] + 2x E[dx dy^2] - E[dx dy]^2

        from four Grams: dx and dx^2 on d_p, dy and dy^2 on d_s.  Each
        weight keeps one sign or changes it once, so ``_weighted_gram``
        forms every weighted Gram of a real factor of _SYMMETRIC_FROM (100)
        columns or more from symmetric products, at half the cost of a
        general one.  With the marginal and the shift Gram, general
        products, the moments of a state whose modes share a factor cost
        about 4.5 R K^2 multiply-adds.

        These separable sums cancel digits on strongly pair-correlated
        states: about 1e-12 relative of Var L and 3e-12 of Var P at s = 2,
        nbar 400, where N_p and N_s each vary some 3000 times more than
        their difference.

        A state of rank one (K = len(c) == 1, which alone selects this
        form) is the product of its two one-mode states, so every joint
        moment factorizes into moments of the marginals |d_p|^2 and
        |d_s|^2: Cov(N_p, N_s) = 0, Var P = y^2 Var X + x^2 Var Y +
        Var X Var Y, and <E> = |c|^2 S_p conj(S_s) plus the same vacuum
        wrap, S the shift Gram d[:-1] . d[1:] of one column; no K x K Gram
        is formed, and the moments cost O(R).

        E pairs |m, n> with |m+1, n-1>, the Grams of the factors shifted by
        one row, plus the vacuum wrap |0, N> -> |N, 0> from the first row and
        column of A, which only windows that both start at row 0 hold.  Each
        weighted Gram is dropped, or overwritten by its last product, once
        used, so at most two are held while a third is formed from its
        scaled rows.  With gram_p that is one K x K array past the count in
        the plan of ``_budget_rows``, which the plan's second factor-sized
        scratch array covers, K being at most the rows.
        """
        d_p, c, d_s = self.d_p, self.c, self.d_s
        same = d_s is d_p
        product = len(c) == 1
        gram_p = _gram(d_p, d_p) if self.gram_p is None else self.gram_p
        gram_s = gram_p if same else _gram(d_s, d_s) if self.gram_s is None else self.gram_s
        prob_p = _marginal(d_p, c, gram_s)
        prob_s = prob_p if same else _marginal(d_s, c, gram_p)
        del gram_p, gram_s
        k_p = np.arange(self.lo_p, self.lo_p + len(d_p), dtype=float)
        k_s = k_p if same else np.arange(self.lo_s, self.lo_s + len(d_s), dtype=float)
        mean_p, mean_s = float(k_p @ prob_p), float(k_s @ prob_s)
        dm = k_p - mean_p
        dn = dm if same and mean_s == mean_p else k_s - mean_s
        # Var L = (Var N_p + Var N_s - 2 Cov) / 4 from centred weights
        cov = 0.0
        if not product:
            f_dm = _weighted_gram(d_p, dm)
            g_dn = f_dm if same and dn is dm else _weighted_gram(d_s, dn)
            cov = _pair_form(c, f_dm, g_dn, into=f_dm).real
            del f_dm, g_dn
        l_var = 0.25 * float((dm * dm) @ prob_p + (dn * dn) @ prob_s - 2.0 * cov)
        root_m, inv_root_n = np.sqrt(k_p), 1.0 / np.sqrt(k_s + 1.0)
        x, y = float(root_m @ prob_p), float(inv_root_n @ prob_s)
        dx, dy = root_m - x, inv_root_n - y
        dx2, dy2 = dx * dx, dy * dy
        var_x, var_y = float(dx2 @ prob_p), float(dy2 @ prob_s)
        if product:  # dx and dy are independent, each of mean zero
            xy = xyy = xxy = 0.0
            xxyy = var_x * var_y
        else:
            g_dy = _weighted_gram(d_s, dy)
            f_dx = _weighted_gram(d_p, dx)
            xy = _pair_form(c, f_dx, g_dy).real
            g_dy2 = _weighted_gram(d_s, dy2)
            xyy = _pair_form(c, f_dx, g_dy2, into=f_dx).real
            del f_dx
            f_dx2 = _weighted_gram(d_p, dx2)
            xxy = _pair_form(c, f_dx2, g_dy, into=g_dy).real
            del g_dy
            xxyy = _pair_form(c, f_dx2, g_dy2, into=g_dy2).real
            del f_dx2, g_dy2
        p_var = (y * y * var_x + x * x * var_y + xxyy
                 + 2.0 * x * y * xy + 2.0 * y * xxy + 2.0 * x * xyy - xy * xy)

        if product:  # c^H (S_p conj(S_s)) c, S the shift Gram of one column
            shift_p = complex(np.vdot(d_p[:-1, 0], d_p[1:, 0]))
            shift_s = shift_p if same else complex(np.vdot(d_s[:-1, 0], d_s[1:, 0]))
            c0 = complex(c[0])
            e_mean = c0.conjugate() * (shift_p * shift_s.conjugate() * c0)
        else:
            shift_p = _gram(d_p[:-1], d_p[1:])
            shift_s = shift_p if same else _gram(d_s[:-1], d_s[1:])
            e_mean = _pair_form(c, shift_p, np.conj(shift_s).T)
        if self.lo_p == self.lo_s == 0:
            n = min(len(d_p), len(d_s))
            e_mean += complex(np.vdot(d_p[:n] @ (c * d_s[0]), d_s[:n] @ (c * d_p[0])))
        e_var = min(max(1.0 - abs(e_mean) ** 2, 0.0), 1.0)
        return (mean_p + mean_s, e_mean, e_var, 0.5 * (mean_p - mean_s),
                max(l_var, 0.0), max(p_var, 0.0))


class LayerState(NamedTuple):
    """A phase state on the Fock layer of N = ``cutoff`` photons: Psi_l of
    ``psi`` multiplies |N/2 + l, N/2 - l>.  tail_mass is the norm deficit
    the clip to |l| <= N/2 left before renormalization."""

    cutoff: int
    psi: PhaseWaveFunction
    tail_mass: float

    def moments(self) -> tuple[float, complex, float, float, float, float]:
        """(n_mean, e_mean, e_var, l_mean, l_var, p_var) of the state: L is
        the index l, E steps l to l + 1 (the wrap |0, N> -> |N, 0> pairs
        N/2 with -N/2), and P = sqrt(A / B), A = N/2 + l, B = N + 1 - A.

        P is centred on the middle component's P_c first, through
        P - P_c = j (N + 1) / (B B_c (P + P_c)) with the integer offset
        j = l - c, so no digits cancel at any N; then on the mean."""
        psi, N = self.psi, self.cutoff
        mom = circular_moments(psi)
        prob = np.abs(psi.amplitudes) ** 2
        e_mean, e_var = mom.e_mean, mom.e_var
        if len(prob) == N + 1:  # the window spans the layer
            e_mean, e_var = phase_moments(psi.amplitudes, float(prob.sum()), closed=True)
        c = len(prob) // 2
        j = np.arange(len(prob)) - float(c)
        a_c = N // 2 + psi.l_min + c
        b = float(N + 1 - a_c) - j
        p = np.sqrt((a_c + j) / b)
        s = p + p[c]
        s[c] = 1.0  # j = 0 there; P_c is 0 on a one-component window at l = -N/2
        dp = j / b * (float(N + 1) / b[c]) / s
        dp -= prob @ dp
        return float(N), e_mean, e_var, mom.l_mean, mom.l_var, float(prob @ (dp * dp))


def _budget_rows(cutoff: int, pairs: int, modes: int, itemsize: int) -> int:
    """The rows the recurrence runs over, past the cutoff, once the
    memory a build and its ``moments()`` plan for fits MAX_FACTOR_BYTES."""
    rows = cutoff + 1 + 4 * math.isqrt(cutoff + 1) + 25
    need = (((modes + 2) * pairs + 16) * rows + (2 * modes + 1) * pairs * pairs) * itemsize
    if need > MAX_FACTOR_BYTES:
        from decimal import Decimal  # exact at any size: need may pass the float range
        raise InvalidParameterError(
            f"cutoff {Decimal(cutoff):.3g} with K = {pairs} needs {Decimal(need) / 2 ** 20:.3g} "
            f"MiB of mode factors, over the {MAX_FACTOR_BYTES / 2 ** 20:.0f} MiB budget"
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
    """mant 2^expo times the running products of ``ratios`` (one or more,
    falling, each in (0, 1]), as mantissas and integer powers of two:
    renormalized every stretch short enough that its product cannot
    underflow."""
    out_m = np.empty(len(ratios))
    out_e = np.empty(len(ratios), dtype=np.int64)
    smallest = float(ratios[-1])
    step = len(ratios) if smallest >= 1.0 else max(1, int(600.0 / -math.log(smallest)))
    for lo in range(0, len(ratios), step):
        out_m[lo:lo + step], e = np.frexp(mant * np.cumprod(ratios[lo:lo + step]))
        out_e[lo:lo + step] = e + expo
        mant, expo = out_m[lo + len(e) - 1], int(out_e[lo + len(e) - 1])
    return out_m, out_e


def _row_scaling(expo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The multipliers that scale rows by 2^expo, and the rows left to
    ldexp.  A row whose power is a normal float takes a multiply by it,
    which rounds as ldexp does.  A row under 2^-1400 takes a multiply by
    0: within a stretch its mantissas stay under 2^866, so its entries
    lie under 2^-534, which the flush of entries under _NEGLIGIBLE zeroes
    anyway.  The few rows between take ldexp."""
    if -1022 <= expo.min() and expo.max() <= 1023:
        return np.ldexp(1.0, expo), np.empty(0, dtype=np.intp)
    normal = (-1022 <= expo) & (expo <= 1023)
    by = np.ldexp(1.0, np.where(normal, expo, 0))
    by[~normal] = 0.0
    return by, np.flatnonzero(~normal & (expo >= -1400))


def _scale_rows(block: np.ndarray, expo: np.ndarray) -> None:
    """Scale the rows of a stretch, the last axis of ``block``, by 2^expo
    in place, by the rule of ``_row_scaling``."""
    by, odd = _row_scaling(expo)
    if len(odd):
        kept = np.ldexp(block[:, odd], expo[odd])
    block *= by
    if len(odd):
        block[:, odd] = kept


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

    The recurrence in n runs at a = |alpha|, with every row carrying its
    own power of two (renormalized often enough that no step can
    overflow).  Each column is written straight into the factor, and the
    powers are applied once per stretch between renormalizations, to all
    its columns at once, by the rule of ``_row_scaling``.  The recessive
    entries are zeroed as they come and, when some column has any
    (sqrt(ncols - 1) > a), taken from the transposed entries of the top
    block.  The phase e^{i (m - n) arg alpha} is applied last, so the
    factor is real for real alpha.
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
        tmp = np.empty(rows)
        start = 1  # the first column of the stretch, still unscaled
        for n in range(ncols - 1):
            nxt = out[n + 1]
            np.subtract(shifted, n, out=nxt)
            nxt *= cur
            np.multiply(prev, a * math.sqrt(n), out=tmp)
            nxt -= tmp
            nxt *= 1.0 / (a * math.sqrt(n + 1))
            edge = math.sqrt(n + 1) - a
            if edge > 0.0:  # rows m < edge^2 are recessive in column n+1
                nxt[:min(rows, math.ceil(edge * edge))] = 0.0
            prev, cur = cur, nxt
            if (n + 1) % every == 0:
                e = np.frexp(np.maximum(np.abs(prev), np.abs(cur)))[1]
                prev, cur = np.ldexp(prev, -e), np.ldexp(cur, -e)
                _scale_rows(out[start:n + 2], expo)
                start = n + 2
                expo += e
        _scale_rows(out[start:], expo)
    # out[n, m] = G[m, n]; the recessive ones from (-1)^(n-m) G[n, m],
    # which lie in the lower triangle (m < n) and read only its upper
    # one; by blocks of rows, so no scratch array reaches ncols^2
    if math.sqrt(ncols - 1) > a:
        for lo in range(0, ncols, _BLOCK):
            n = np.arange(lo, min(lo + _BLOCK, ncols))
            m = np.arange(n[-1] + 1)
            edge = np.maximum(np.sqrt(n) - a, 0.0)
            recessive = m[np.newaxis, :] < (edge * edge)[:, np.newaxis]
            block = out[lo:lo + len(n), :len(m)]
            flipped = out[:len(m), lo:lo + len(n)].T * (1.0 - 2.0 * ((n[:, np.newaxis] - m) % 2))
            np.copyto(block, flipped, where=recessive)
    # by stretches of 2^15 entries, whose scratch arrays stay in cache
    step = max(1, 2 ** 15 // rows)
    for lo in range(0, ncols, step):
        block = out[lo:lo + step]
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


def _marginal(d: np.ndarray, c: np.ndarray, g: np.ndarray) -> np.ndarray:
    """sum_kl conj(d[m, k] c_k) g[k, l] c_l d[m, l] for each row m: the
    photon-number distribution of one mode, g the other mode's Gram; of
    one column, |d[m]|^2 |c|^2 g."""
    if len(c) == 1:
        col, h = d[:, 0], g[0, 0] * c[0] * np.conj(c[0])
        return (col * (col * h) if col.dtype.kind == "f" else np.conj(col) * (col * h)).real
    h = g * c
    h *= np.conj(c)[:, np.newaxis]
    return np.einsum("mk,mk->m", np.conj(d) if d.dtype.kind == "c" else d, d @ h.T).real


def _weighted_gram(d: np.ndarray, w: np.ndarray) -> np.ndarray:
    """d^H diag(w) d.  For a real d of _SYMMETRIC_FROM columns or more,
    from symmetric products only, which numpy hands to syrk at half the
    flops of a general product: U^T U where w keeps one sign, and
    U^T U - V^T V where it changes sign once, U and V the runs of rows
    where w is positive and negative, scaled by sqrt(|w|).  A complex or
    narrower d, or a w that changes sign more than once, takes the
    general product."""
    if d.dtype.kind == "f" and d.shape[1] >= _SYMMETRIC_FROM:
        neg = w < 0.0
        split = int(np.count_nonzero(neg))
        for down, up in ((slice(0, split), slice(split, None)),  # negatives first, or last
                         (slice(len(w) - split, None), slice(0, len(w) - split))):
            if neg[down].all():
                u = np.sqrt(w[up])[:, np.newaxis] * d[up]
                out = u.T @ u
                del u
                if split:
                    u = np.sqrt(-w[down])[:, np.newaxis] * d[down]
                    out -= u.T @ u
                return out
    return _gram(d, w[:, np.newaxis] * d)


def _pair_form(c: np.ndarray, f_p: np.ndarray, f_s: np.ndarray,
               into: np.ndarray | None = None) -> complex:
    """c^H (f_p o f_s) c: the expectation of an operator whose factor
    Grams on the two modes are f_p and f_s.  The product overwrites
    ``into`` (one of the two, at its last use) when given and both are
    of one dtype."""
    if f_p.dtype != f_s.dtype:
        into = None
    return complex(np.vdot(c, np.multiply(f_p, f_s, out=into) @ c))


def _window(d: np.ndarray, c: np.ndarray) -> tuple[int, int]:
    """The rows [lo, hi) of ``d`` from the first to the last whose amplitude
    bound (|d[m]| @ |c|) / ||c|| reaches ROW_AMPLITUDE_FLOOR; by stretches
    of 2^13 entries, whose scratch arrays stay in cache.  Of one column
    the bound is |d[m]| itself."""
    if len(c) == 1:
        held = np.flatnonzero(np.abs(d[:, 0]) >= ROW_AMPLITUDE_FLOOR)
        return (int(held[0]), int(held[-1]) + 1) if len(held) else (0, 0)
    c_abs = np.abs(c)
    step = max(1, 2 ** 13 // len(c))
    bound = np.concatenate([np.abs(d[lo:lo + step]) @ c_abs for lo in range(0, len(d), step)])
    held = np.flatnonzero(bound >= ROW_AMPLITUDE_FLOOR * math.sqrt(c_abs @ c_abs))
    return (int(held[0]), int(held[-1]) + 1) if len(held) else (0, 0)


def _gaussian_state(alpha_p: complex, alpha_s: complex, cutoff: int, pairs: int,
                    ratio: complex, dropped: float, context: str) -> TwoModeFockState:
    """The state sum_k ratio^k D(alpha_p)|k> D(alpha_s)|k> over k < pairs,
    truncated at the cutoff, tail-checked and normalized, on the window of
    rows of each mode that ``_window`` keeps.  ``dropped`` is the share of
    the norm held by the pair terms from ``pairs`` on."""
    same = alpha_s == alpha_p
    real = all(complex(z).imag == 0.0 for z in (alpha_p, alpha_s, ratio))
    rows = _budget_rows(cutoff, pairs, 1 if same else 2, 8 if real else 16)
    c = ratio ** np.arange(pairs)
    kept = cutoff + 1

    def mode(alpha):
        """the first row of the mode's window, its rows up to the cutoff,
        their Gram, and the Gram of its rows past the cutoff"""
        d = _displacement_factor(alpha, rows, pairs).T
        lo, hi = _window(d, c)
        inner, outer = d[lo:min(hi, kept)], d[max(lo, kept):hi]
        return lo, inner, _gram(inner, inner), _gram(outer, outer)

    lo_p, d_p, in_p, out_p = mode(alpha_p)
    lo_s, d_s, in_s, out_s = (lo_p, d_p, in_p, out_p) if same else mode(alpha_s)
    if pairs == 1:  # c = [1]: each pair form is the product of two dot products
        in_p1, out_p1, in_s1, out_s1 = (float(g[0, 0].real) for g in (in_p, out_p, in_s, out_s))
        inside = in_p1 * in_s1
        outside = in_p1 * out_s1 + out_p1 * out_s1 + out_p1 * in_s1
    else:
        inside = _pair_form(c, in_p, in_s).real
        outside = (_pair_form(c, in_p, out_s) + _pair_form(c, out_p, out_s)
                   + _pair_form(c, out_p, in_s)).real
    total = inside + outside
    tail = dropped + (1.0 - dropped) * outside / total if inside > 0.0 else 1.0
    _check_tail(tail if math.isfinite(total) else total, cutoff, context)
    return TwoModeFockState(d_p, c / math.sqrt(inside), d_s, tail, cutoff, lo_p, lo_s, in_p, in_s)


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
    if not (math.isfinite(nbar) and nbar >= 0.0):
        raise InvalidParameterError(f"nbar must be finite and >= 0, got {nbar}")
    finite("squeezing magnitude", s)
    finite("dphi", dphi)
    s = float(s)
    if s < 0.0:
        raise InvalidParameterError(f"squeezing magnitude must be >= 0, got {s}")
    # an s past asinh(sqrt(nbar/2)) is refused before sinh(s) can overflow
    alpha_sq = -1.0
    if s <= math.asinh(math.sqrt(nbar / 2.0)):
        alpha_sq = nbar / 2.0 - np.sinh(s) ** 2
    if alpha_sq < 0.0:
        raise InvalidParameterError(f"nbar must be >= 2 sinh^2 s, got {nbar} at s = {s}")
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

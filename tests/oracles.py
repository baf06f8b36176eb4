"""Independent oracles used across the test suite.

Each routine here deliberately avoids the code path it checks: the
continued fraction replaces the tridiagonal eigensolve, ODE shooting
replaces the Fourier evaluation, explicit multiple-bounce (Airy)
summation replaces characteristic matrices, quadrature replaces Bessel
identities, scipy's exponentially scaled Bessel function replaces the
backward recurrence of von Mises states, the Laguerre closed form at 40
decimal digits replaces the degree recurrence of the displacement
columns, decimal sums
of Poisson amplitudes from exact ratios replace the factor moments of
balanced coherent states, exactly rounded
sums over the index window replace the Var L of bare phase states,
decimal sums carried past the digits of N the Var P of embedded ones,
exact integer sums replace the circular variance, the dense
(cutoff+1)^2 grid, multiplied out from a state's stored factors or
scattered from its window, with N, L, P and E applied to it entry by
entry, replaces the Gram moments of every two-mode and layer state, and
the same grid over the window rows in long double replaces the
separable sums of Var L and Var P.
"""

import decimal
import functools
import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq
from scipy.special import ive

from qellip.optics import Layer, LayerStack
from qellip.phase_space import WINDOW_TAIL_TOL


# ---------------------------------------------------------------------------
# Mathieu characteristic equation by continued fraction

def mathieu_char_equation(a: float, q: float, depth: int = 200) -> float:
    """F(a) whose roots are the even pi-periodic eigenvalues a_{2k}(q).

    Built from the coefficient-ratio recursion: with R_j = A_{2j+2}/A_{2j},
    R_{j-1} = q / (a - 4 j^2 - q R_j) descending from a zero tail, and the
    j = 0, 1 rows closing as F(a) = a - 2 q^2 / (a - 4 - q R_1).
    """
    r = 0.0
    for j in range(depth, 1, -1):
        r = q / (a - 4.0 * j * j - q * r)
    return a - 2.0 * q * q / (a - 4.0 - q * r)


def mathieu_eigenvalue_cf(q: float, bracket: tuple[float, float],
                          depth: int = 200) -> float:
    """Root of the characteristic equation inside a pole-free bracket.

    ``depth`` must reach past the rows the coefficients occupy, several
    times q^(1/4) at large q (about 400 at q = 1e8), so large q needs
    more than the default.
    """
    return brentq(lambda a: mathieu_char_equation(a, q, depth), *bracket,
                  xtol=1e-14, rtol=1e-15)


def mathieu_ode_value(a: float, q: float, eta: float, y0: float) -> float:
    """Shoot y'' + (a - 2 q cos 2 eta) y = 0 from eta = 0 with y(0) = y0,
    y'(0) = 0 (even solution), returning y(eta)."""
    def rhs(t, y):
        return [y[1], -(a - 2.0 * q * np.cos(2.0 * t)) * y[0]]
    sol = solve_ivp(rhs, (0.0, eta), [y0, 0.0], rtol=1e-12, atol=1e-14,
                    dense_output=True)
    return float(sol.y[0, -1])


# ---------------------------------------------------------------------------
# von Mises moments by quadrature

def von_mises_circular_mean(kappa: float, phi0: float = 0.0,
                            n: int = 20001) -> complex:
    """<e^{i phi}> of the density ~ exp[-kappa cos(phi - phi0)],
    by periodic-rectangle quadrature (spectrally accurate)."""
    phi = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    w = np.exp(-kappa * np.cos(phi - phi0))
    return complex(np.sum(np.exp(1j * phi) * w) / np.sum(w))


def von_mises_components(kappa: float, phi0: float = 0.0,
                         l_max: int | None = None) -> tuple[int, np.ndarray]:
    """(l_min, Psi_l) of the von Mises phase state, from scipy's ``ive``.

    Psi_l ~ (-1)^l e^{i l phi0} I_l(kappa/2) e^{-kappa/2} on |l| <= l_max,
    normalized, trimmed to the components whose squared magnitude exceeds
    WINDOW_TAIL_TOL * 1e-3, and normalized again.  By default l_max starts at
    kappa/2 + 10 sqrt(kappa/2 + 1) + 20 and doubles until the edge weight
    is negligible; that window is linear in kappa (5 GB of arrays at
    kappa 1e8), so large kappa passes its own l_max.
    """
    z = 0.5 * kappa
    grow = l_max is None
    if grow:
        l_max = int(np.ceil(z + 10.0 * np.sqrt(z + 1.0) + 20.0))
    while True:
        l = np.arange(-l_max, l_max + 1)
        w = ive(np.abs(l), z)
        if not grow or (w[0] / w[l_max]) ** 2 < WINDOW_TAIL_TOL * 1e-4:
            break
        l_max *= 2
    amps = ((-1.0) ** np.abs(l)) * np.exp(1j * l * phi0) * w
    amps /= np.sqrt(np.sum(np.abs(amps) ** 2))
    keep = np.nonzero(np.abs(amps) ** 2 > WINDOW_TAIL_TOL * 1e-3)[0]
    amps = amps[keep[0]:keep[-1] + 1]
    return int(l[keep[0]]), amps / np.sqrt(np.sum(np.abs(amps) ** 2))


# ---------------------------------------------------------------------------
# Fock-basis displacement matrix closed form

def displacement_entry(m, n, alpha: complex):
    """<m| D(alpha) |n> via associated Laguerre polynomials.

    m and n may be integer arrays (broadcast together).  With j = min(m, n),
    k = |m - n| and x = |alpha|^2 taken as an exact decimal, the size
    |L_j^(k)(x)| sqrt(x^k e^-x j! / (j + k)!) is built in decimal arithmetic
    at 40 digits (``_laguerre_sizes``); only its last square root and the
    phase are taken in floats.  Entries under about 1e-154, whose squares
    leave the float range, lose their digits.
    """
    m, n = np.broadcast_arrays(np.asarray(m), np.asarray(n))
    a = abs(alpha)
    if a == 0.0:
        return (m == n).astype(complex)[()]
    lo, k = np.minimum(m, n), np.abs(m - n)
    size = _laguerre_sizes(a, int(lo.max()), int(np.maximum(m, n).max()))[lo, k]
    # alpha^(m-n) above the diagonal, (-conj alpha)^(n-m) below it
    phase = (np.exp(1j * (m - n) * np.angle(alpha))
             * np.where(m < n, (-1.0) ** (n - m), 1.0))
    return (size * phase)[()]


@functools.lru_cache(maxsize=4)
def _laguerre_sizes(a: float, degree: int, top: int) -> np.ndarray:
    """[j, k] = L_j^(k)(x) sqrt(x^k e^-x j! / (j + k)!) at x = a^2, for
    j <= degree and j + k <= top (zero past it).

    L runs its three-term recurrence in the degree,
    (j + 1) L_(j+1) = (2j + 1 + k - x) L_j - (j + k) L_(j-1), over every k
    at once, and the squared factor Q_j = x^k e^-x j! / (j + k)! its ratio
    Q_j / Q_(j-1) = j / (j + k), from Q_0 = x^k e^-x / k!, all in decimal at
    40 digits; x = a^2 is exact.
    """
    out = np.zeros((degree + 1, top + 1))
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        x = decimal.Context(prec=decimal.MAX_PREC).multiply(Decimal(a), Decimal(a))
        ks = np.arange(top + 1, dtype=object)
        q = np.empty(top + 1, dtype=object)
        q[0] = (-x).exp()
        for k in range(1, top + 1):
            q[k] = q[k - 1] * x / k
        prev, cur = np.zeros(top + 1, dtype=object), np.full(top + 1, Decimal(1), dtype=object)
        for j in range(degree + 1):
            if j:
                width = top + 1 - j  # the diagonals with j + k <= top
                ks, q, prev = ks[:width], q[:width], prev[:width]
                lag = ((2 * j - 1 + ks - x) * cur[:width] - (j - 1 + ks) * prev) / j
                prev, cur = cur[:width], lag
                q = q * j / (j + ks)
            sign = np.where((cur < 0).astype(bool), -1.0, 1.0)
            out[j, :len(cur)] = sign * np.sqrt((cur * cur * q).astype(float))
    out.flags.writeable = False  # one cached table serves every caller
    return out


# ---------------------------------------------------------------------------
# two-mode moments on the dense grid

def dense_amplitudes(state) -> np.ndarray:
    """The (cutoff+1)^2 grid of a two-mode state, [m, n] the amplitude of
    |m>_p |n>_s: the product d_p diag(c) d_s^T of its stored factors,
    placed at their row offsets (zero outside the windows), or, for a
    phase state on the layer N = cutoff, its window scattered to Psi_l on
    |N/2 + l, N/2 - l>."""
    grid = np.zeros((state.cutoff + 1, state.cutoff + 1), dtype=complex)
    if hasattr(state, "psi"):
        half = state.cutoff // 2
        l = state.psi.l_min + np.arange(len(state.psi.amplitudes))
        grid[half + l, half - l] = state.psi.amplitudes
        return grid
    p = slice(state.lo_p, state.lo_p + len(state.d_p))
    s = slice(state.lo_s, state.lo_s + len(state.d_s))
    grid[p, s] = (state.d_p * state.c) @ state.d_s.T
    return grid


def diagonal_values(cutoff: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Entry grids of N = m + n, L = (m - n) / 2 and the modulus
    P = sqrt(m / (n + 1)), whose +1 comes from operator ordering."""
    m, n = np.meshgrid(np.arange(cutoff + 1.0), np.arange(cutoff + 1.0), indexing="ij")
    return m + n, 0.5 * (m - n), np.sqrt(m / (n + 1.0))


def apply_phase(amps: np.ndarray) -> np.ndarray:
    """E on a dense grid: |m, n> -> |m-1, n+1> within each layer, and the
    vacuum wrap |0, N> -> |N, 0> for every layer."""
    out = np.zeros_like(amps)
    out[:-1, 1:] = amps[1:, :-1]
    out[:, 0] = amps[0, :]
    return out


@dataclass(frozen=True)
class DenseMoments:
    n_mean: float
    l_mean: float
    l_var: float
    p_var: float
    e_mean: complex

    @property
    def e_var(self) -> float:
        return min(max(1.0 - abs(self.e_mean) ** 2, 0.0), 1.0)


def _centred_variance(amps: np.ndarray, values: np.ndarray) -> float:
    """||(A - <A>) psi||^2 of a diagonal A, exactly 0 on an eigenvector."""
    applied = values * amps
    dev = applied - np.vdot(amps, applied).real * amps
    return float(np.vdot(dev, dev).real)


def dense_moments(state) -> DenseMoments:
    """<N>, <L>, Var L, Var P and <E> of a two-mode state, each from its
    operator applied to the dense grid."""
    amps = dense_amplitudes(state)
    n, l, p = diagonal_values(state.cutoff)
    return DenseMoments(float(np.vdot(amps, n * amps).real),
                        float(np.vdot(amps, l * amps).real),
                        _centred_variance(amps, l), _centred_variance(amps, p),
                        complex(np.vdot(amps, apply_phase(amps))))


def longdouble_variances(state) -> tuple[float, float]:
    """Var L and Var P of a two-mode state, from its stored factors in
    ``np.longdouble`` (64-bit mantissa on x86): the amplitudes
    d_p diag(c) d_s^T on the grid of its window rows, normalized, with L
    and P applied entry by entry and both variances centred on their
    means.  Each grid amplitude sums K products, so the result carries
    some K eps_longdouble of relative error, a few 1e-17 here."""
    ld = np.longdouble
    real = not any(np.iscomplexobj(a) for a in (state.d_p, state.c, state.d_s))
    kind = ld if real else np.clongdouble
    amps = (state.d_p.astype(kind) * state.c.astype(kind)) @ state.d_s.T.astype(kind)
    prob = amps * amps if real else amps.real ** 2 + amps.imag ** 2
    prob /= prob.sum()
    m = np.arange(state.lo_p, state.lo_p + len(state.d_p), dtype=ld)[:, np.newaxis]
    n = np.arange(state.lo_s, state.lo_s + len(state.d_s), dtype=ld)[np.newaxis, :]

    def variance(values):
        dev = values - (prob * values).sum()
        return float((prob * dev * dev).sum())

    return variance((m - n) / 2), variance(np.sqrt(m / (n + 1)))


# ---------------------------------------------------------------------------
# balanced coherent e_var by exact decimal ratios

def coherent_e_var(nbar: float) -> float:
    """1 - <E>^2 of the untruncated two-mode coherent state with
    |alpha_p|^2 = |alpha_s|^2 = nbar/2 and real amplitudes.

    Each mode holds the Poisson amplitudes u_m at mu = nbar/2.  E moves
    a photon from the p mode to the s mode, and wraps |0, N> onto |N, 0>,
    so <E> = (S / sum u_m^2)^2 + e^(-mu) with S = sum u_m u_(m+1): the
    square is the two modes' shifts, and the wrap adds
    u_0^2 sum u_N^2 = e^(-mu).  u is built from the exact ratios
    u_(m+1) / u_m = sqrt(mu / (m + 1)) in decimal arithmetic at 40
    digits, from u = 1 on the mode both ways over 40 (sqrt(mu) + 1) rows,
    so its scale cancels, and 1 - <E>^2 (about 1/nbar) is taken in
    decimal too, with no digits lost at any nbar.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        mu = Decimal(nbar) / 2
        mode = int(nbar / 2)
        width = int(40.0 * (math.sqrt(nbar / 2.0) + 1.0))
        below, u = [], Decimal(1)
        for m in range(mode, max(0, mode - width), -1):  # u_(m-1) from u_m
            u *= (m / mu).sqrt()
            below.append(u)
        above, u = [Decimal(1)], Decimal(1)
        for m in range(mode, mode + width):  # u_(m+1) from u_m
            u *= (mu / (m + 1)).sqrt()
            above.append(u)
        amps = below[::-1] + above
        s = sum(a * b for a, b in zip(amps, amps[1:]))
        e_mean = (s / sum(a * a for a in amps)) ** 2 + (-mu).exp()
        return float(1 - e_mean ** 2)


# ---------------------------------------------------------------------------
# phase-state variances by exactly rounded sums

def layer_modulus_variance(l_values, amps, N: int) -> float:
    """Var P of Psi_l placed on |N/2 + l, N/2 - l>, components outside
    the layer dropped and the rest renormalized.

    P = sqrt((N/2 + l) / (N/2 - l + 1)) on each component, in decimal
    arithmetic carried 40 digits past those of N: neighbouring P differ
    by about 2/N, so the centred sum keeps its digits at any N.  The
    weights are the exact squares of the float amplitudes.
    """
    half = N // 2
    with decimal.localcontext() as ctx:
        ctx.prec = len(str(N)) + 40
        weights = [(int(l), Decimal(float(a.real)) ** 2 + Decimal(float(a.imag)) ** 2)
                   for l, a in zip(l_values, map(complex, amps)) if abs(int(l)) <= half]
        total = sum(w for _, w in weights)
        terms = [((Decimal(half + l) / Decimal(half - l + 1)).sqrt(), w / total)
                 for l, w in weights]
        mean = sum(w * p for p, w in terms)
        return float(sum(w * (p - mean) ** 2 for p, w in terms))


def index_variance(l_values, amps) -> float:
    """Var L of the normalized components Psi_l.

    The indices are taken relative to the first one, so a window shifted
    far from l = 0 loses nothing to the size of l, and the mean and the
    centred second moment are both taken with ``math.fsum``.
    """
    l0 = int(l_values[0])
    weights = [(int(l) - l0, abs(complex(a)) ** 2) for l, a in zip(l_values, amps)]
    total = math.fsum(w for _, w in weights)
    mean = math.fsum(l * w for l, w in weights) / total
    return math.fsum(w * (l - mean) ** 2 for l, w in weights) / total


def circular_variance(amps, closed: bool = False) -> float:
    """1 - |<E>|^2 / n^2 of the amplitudes a_l, <E> = sum conj(a_l) a_{l+1}
    (with the pair (last, first) when ``closed``) and n = sum |a_l|^2.

    Every double is a whole multiple of 2^-1074, so with the parts scaled
    by 2^1074 both sums are exact integers, and n^2 - |<E>|^2 is exact;
    only the final quotient rounds.
    """
    scale = Fraction(2) ** 1074
    re = [int(Fraction(complex(a).real) * scale) for a in amps]
    im = [int(Fraction(complex(a).imag) * scale) for a in amps]
    pairs = list(zip(range(len(re) - 1), range(1, len(re))))
    if closed:
        pairs.append((len(re) - 1, 0))
    norm = sum(x * x for x in re) + sum(y * y for y in im)
    e_re = sum(re[i] * re[j] + im[i] * im[j] for i, j in pairs)
    e_im = sum(re[i] * im[j] - im[i] * re[j] for i, j in pairs)
    return float(Fraction(norm * norm - e_re * e_re - e_im * e_im, norm * norm))


# ---------------------------------------------------------------------------
# multilayer reflection by explicit multiple-bounce summation

def _forward_w(n: complex, kx: complex) -> complex:
    w = np.lib.scimath.sqrt(n * n - kx * kx)
    if w.imag < 0 or (w.imag == 0 and w.real < 0):
        w = -w
    return complex(w)


def _interface_rt(pol: str, ni, wi, nt, wt):
    if pol == "s":
        return (wi - wt) / (wi + wt), 2.0 * wi / (wi + wt)
    ci, ct = wi / ni, wt / nt
    return ((nt * ci - ni * ct) / (nt * ci + ni * ct),
            2.0 * ni * ci / (nt * ci + ni * ct))


def airy_reflection(stack: LayerStack, pol: str, tol: float = 1e-18,
                    max_bounce: int = 10_000_000) -> complex:
    """Amplitude reflection by summing the multiple-reflection series.

    Climbs the stack from the substrate, at each film summing the bounce
    series term by term until increments fall below ``tol``.  Converges
    for external reflection off stacks whose indices all exceed the
    ambient one (no trapped evanescent resonances); raises otherwise.
    """
    media = ([complex(stack.ambient_index)]
             + [complex(l.index) for l in stack.layers]
             + [complex(stack.substrate_index)])
    thicknesses = [None] + [l.thickness for l in stack.layers] + [None]
    kx = media[0] * np.sin(stack.angle_of_incidence)
    ws = [_forward_w(n, kx) for n in media]

    refl = _interface_rt(pol, media[-2], ws[-2], media[-1], ws[-1])[0]
    for j in range(len(media) - 2, 0, -1):
        phase = np.exp(2j * (2.0 * np.pi * thicknesses[j] * ws[j]
                             / stack.wavelength))
        r_top, t_down = _interface_rt(pol, media[j - 1], ws[j - 1],
                                      media[j], ws[j])
        r_back, t_up = _interface_rt(pol, media[j], ws[j],
                                     media[j - 1], ws[j - 1])
        total = r_top
        term = t_down * refl * phase * t_up
        bounces = 0
        while abs(term) > tol:
            total += term
            term *= r_back * refl * phase
            bounces += 1
            if bounces >= max_bounce:
                raise RuntimeError("bounce series failed to converge")
        refl = total
    return refl


def random_stack(rng: np.random.Generator, max_layers: int = 4,
                 lossless: bool = False) -> LayerStack:
    """Random 1..max_layers external-reflection stack (indices > ambient)."""
    n_layers = int(rng.integers(1, max_layers + 1))
    layers = []
    for _ in range(n_layers):
        k = 0.0 if lossless else float(0.5 * rng.random() * (rng.random() < 0.5))
        layers.append(Layer(complex(1.2 + 2.5 * rng.random(), k),
                            float(rng.random() * 300.0)))
    sub_k = 0.0 if lossless else float(0.5 * rng.random())
    return LayerStack(
        ambient_index=1.0,
        layers=tuple(layers),
        substrate_index=complex(1.5 + 2.5 * rng.random(), sub_k),
        wavelength=float(500.0 + 400.0 * rng.random()),
        angle_of_incidence=float(rng.random() * 1.4),
    )

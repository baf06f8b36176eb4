"""Independent computations the benchmark checks the program against.

Nothing here imports qellip.  Each routine takes another route to a
quantity the program computes:

* Mathieu eigenvalues as roots of a continued fraction split at an inner
  index (the split keeps the fraction away from the nearly coincident
  odd-branch pole at large q), instead of a tridiagonal eigensolve;
* coherent-state <E> as a sum over Fock layers of binomial weights,
  instead of a shift of the amplitude grid;
* von Mises moments by periodic quadrature of the density, instead of
  Bessel-function amplitudes;
* multilayer reflection by explicit multiple-bounce summation and by the
  closed Rouard recursion, instead of characteristic matrices.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

# ---------------------------------------------------------------------------
# Mathieu characteristic value


def _split_fraction(a: float, q: float, split: int, depth: int) -> float:
    """Characteristic function of the even pi-periodic branch at row ``split``.

    With A_{2j} the Fourier coefficients, the ratio A_{2j+2}/A_{2j} above the
    split comes from the tail (descending from zero at ``depth``) and the
    ratio A_{2j-2}/A_{2j} below it from the head rows
        a A_0 = q A_2,  (a - 4) A_2 = q (A_4 + 2 A_0),
        (a - 4 j^2) A_{2j} = q (A_{2j-2} + A_{2j+2}),
    so the row-``split`` residual vanishes exactly at an eigenvalue.
    """
    tail = 0.0
    for j in range(depth, split, -1):
        tail = q / (a - 4.0 * j * j - q * tail)
    if split == 0:
        return a - 2.0 * q * tail
    head = [1.0, a / q]
    for j in range(1, split):
        below = 2.0 * head[0] if j == 1 else head[j - 1]
        head.append(((a - 4.0 * j * j) * head[j] - q * below) / q)
    below = 2.0 * head[0] if split == 1 else head[split - 1]
    return (a - 4.0 * split * split) - q * below / head[split] - q * tail


def mathieu_root_near(a_guess: float, q: float, rel: float = 1e-7) -> float:
    """Root of the characteristic function bracketed around ``a_guess``.

    The split row starts near the peak of the ground state's coefficients,
    ~q^(1/4)/2; where that row puts a pole of the fraction inside the
    bracket (excited states have nodes there), the next rows are tried.
    Raises ValueError when no split shows a sign change over the bracket,
    i.e. when ``a_guess`` is no eigenvalue.
    """
    from scipy.optimize import brentq

    depth = 60 + int(4.0 * math.sqrt(q))
    width = rel * (1.0 + abs(a_guess))
    lo, hi = a_guess - width, a_guess + width
    first = int(round(0.5 * q ** 0.25))
    for split in [first] + [m for m in range(0, first + 8) if m != first]:
        def f(a, split=split):
            return _split_fraction(a, q, split, depth)
        f_lo, f_hi = f(lo), f(hi)
        if math.isfinite(f_lo) and math.isfinite(f_hi) and f_lo * f_hi < 0.0:
            return float(brentq(f, lo, hi, xtol=1e-15 * (1.0 + abs(a_guess)), rtol=1e-15))
    raise ValueError(f"no eigenvalue of the even Mathieu branch within {width:.1e} of {a_guess}")


def ce0_has_no_zero(coeffs: np.ndarray, points: int = 721) -> bool:
    """Sturm property of the ground state: ce_0 keeps one sign on [0, pi].

    At large q, ce_0 is exponentially small near eta = 0 and rounding may
    give it either sign there, so values within 1e-12 of the peak count as
    zero; an excited ce_{2k} has lobes of order one of the other sign.
    """
    eta = np.linspace(0.0, math.pi, points)
    values = np.cos(2.0 * np.outer(eta, np.arange(len(coeffs)))) @ coeffs
    values = values if abs(values.max()) >= abs(values.min()) else -values
    return bool(np.all(values >= -1e-12 * values.max()))


def mathieu_moments_from_coefficients(coeffs: np.ndarray) -> tuple[float, float]:
    """(<e^{i phi}>, Var L) of the phase state on ce_0, from A_{2j} directly.

    Psi_0 = sqrt(2) A_0 and Psi_{+-j} = A_{2j}/sqrt(2), so
    <e^{i phi}> = sum_l Psi_l Psi_{l+1} = 2 A_0 A_2 + sum_{j>=1} A_{2j} A_{2j+2}
    and Var L = sum_j j^2 A_{2j}^2 (the mean is zero by symmetry).
    """
    A = np.asarray(coeffs, dtype=float)
    e_mean = 2.0 * A[0] * A[1] + float(np.dot(A[1:-1], A[2:]))
    l_var = float(np.dot(np.arange(len(A)) ** 2, A * A))
    return e_mean, l_var


# ---------------------------------------------------------------------------
# Fock-side closed forms


def coherent_e_mean(nbar: float) -> float:
    """<E> of the balanced two-mode coherent state with real amplitudes.

    Layer N carries Poisson(N; nbar) and, inside it, binomial weights
    b_m = C(N, m) / 2^N on |m, N - m>; E shifts m -> m - 1 and wraps
    |0, N> -> |N, 0>, so <E> = sum_N P(N) [sum_m sqrt(b_{m-1} b_m) + sqrt(b_0 b_N)].
    """
    from scipy.special import gammaln

    sigma = math.sqrt(nbar)
    lo = max(0, int(nbar - 14.0 * sigma - 10))
    hi = int(nbar + 14.0 * sigma + 10)
    total = 0.0
    for N in range(lo, hi + 1):
        log_p = -nbar + N * math.log(nbar) - float(gammaln(N + 1))
        m = np.arange(N + 1)
        log_b = float(gammaln(N + 1)) - gammaln(m + 1) - gammaln(N - m + 1) - N * math.log(2.0)
        inner = float(np.sum(np.exp(0.5 * (log_b[:-1] + log_b[1:]))))
        inner += math.exp(0.5 * (log_b[0] + log_b[-1]))
        total += math.exp(log_p) * inner
    return total


def squeezed_l_var(nbar: float, s: float, dphi: float) -> float:
    """Var L = |alpha|^2 (cosh 2s - cos(dphi) sinh 2s) / 2 at the balanced
    operating point |alpha_p|^2 = |alpha_s|^2 = nbar/2 - sinh^2 s."""
    alpha_sq = nbar / 2.0 - math.sinh(s) ** 2
    return 0.5 * alpha_sq * (math.cosh(2.0 * s) - math.cos(dphi) * math.sinh(2.0 * s))


def layer_moments(l_values: np.ndarray, amps: np.ndarray, N: int) -> dict:
    """Exact moments of a phase state placed on the N-photon layer.

    Psi_l sits on |N/2 + l, N/2 - l>; L is l, E moves l to l - 1, and the
    modulus is P = sqrt(m / (n + 1)).  Components outside the layer are
    dropped; the support is assumed clear of the layer edges, so the vacuum
    wrap term does not contribute.
    """
    half = N / 2.0
    inside = np.abs(l_values) <= half
    l_values, amps = l_values[inside], amps[inside]
    p = np.abs(amps) ** 2
    p = p / p.sum()
    l = l_values.astype(float)
    modulus = np.sqrt((half + l) / (half - l + 1.0))
    l_mean = float(p @ l)
    e_mean = complex(np.vdot(amps[:-1], amps[1:]) / np.sum(np.abs(amps) ** 2))
    return {
        "l_mean": l_mean,
        "l_var": float(p @ (l * l)) - l_mean * l_mean,
        "e_mean": e_mean,
        "p_var": float(p @ (modulus * modulus)) - float(p @ modulus) ** 2,
    }


def von_mises_moments(kappa: float, phi0: float = 0.0, points: int = 4096) -> tuple[complex, float]:
    """(<e^{i phi}>, Var L) for the density ~ exp[-kappa cos(phi - phi0)].

    The amplitude is real, sqrt(p), so <L^2> = int (d sqrt(p)/d phi)^2 =
    (kappa^2 / 4) <sin^2(phi - phi0)> and <L> = 0.  The periodic rectangle
    rule is spectrally accurate for these smooth integrands.
    """
    phi = np.linspace(0.0, 2.0 * math.pi, points, endpoint=False)
    w = np.exp(-kappa * (np.cos(phi - phi0) + 1.0))
    w /= w.sum()
    e_mean = complex(np.sum(np.exp(1j * phi) * w))
    l_var = 0.25 * kappa * kappa * float(np.sum(np.sin(phi - phi0) ** 2 * w))
    return e_mean, l_var


def least_squares_line(x, y) -> tuple[float, float]:
    """Slope and intercept of the unweighted least-squares line."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xm, ym = x.mean(), y.mean()
    slope = float(np.sum((x - xm) * (y - ym)) / np.sum((x - xm) ** 2))
    return slope, float(ym - slope * xm)


# ---------------------------------------------------------------------------
# multilayer reflection


def _forward(n: complex, kx: float) -> complex:
    """n cos(theta) on the forward-decaying branch (Im >= 0)."""
    w = cmath.sqrt(n * n - kx * kx)
    if w.imag < 0.0 or (w.imag == 0.0 and w.real < 0.0):
        w = -w
    return w


def _interface(pol: str, n_i: complex, w_i: complex, n_t: complex, w_t: complex):
    """(r, t) at one interface; r_p > 0 at normal-incidence external reflection."""
    if pol == "s":
        return (w_i - w_t) / (w_i + w_t), 2.0 * w_i / (w_i + w_t)
    c_i, c_t = w_i / n_i, w_t / n_t
    den = n_t * c_i + n_i * c_t
    return (n_t * c_i - n_i * c_t) / den, 2.0 * n_i * c_i / den


def _media(stack: dict):
    media = [complex(stack["ambient"])] + [complex(n) for n, _ in stack["layers"]] \
        + [complex(stack["substrate"])]
    kx = (media[0] * math.sin(stack["angle_rad"])).real
    return media, [_forward(n, kx) for n in media]


def bounce_reflection(stack: dict, pol: str, tol: float = 1e-18,
                      max_bounces: int = 1_000_000) -> complex:
    """Amplitude reflection summed bounce by bounce, substrate upward."""
    media, ws = _media(stack)
    refl = _interface(pol, media[-2], ws[-2], media[-1], ws[-1])[0]
    for j in range(len(media) - 2, 0, -1):
        d = stack["layers"][j - 1][1]
        phase = cmath.exp(2j * (2.0 * math.pi * d * ws[j] / stack["wavelength"]))
        r_top, t_down = _interface(pol, media[j - 1], ws[j - 1], media[j], ws[j])
        r_back, t_up = _interface(pol, media[j], ws[j], media[j - 1], ws[j - 1])
        total = r_top
        term = t_down * refl * phase * t_up
        for _ in range(max_bounces):
            if abs(term) <= tol:
                break
            total += term
            term *= r_back * refl * phase
        else:
            raise ArithmeticError("bounce series did not converge")
        refl = total
    return refl


def rouard_reflection(stack: dict, pol: str) -> complex:
    """Amplitude reflection by the closed Rouard recursion, substrate upward:
    r <- (r_top + r e^{2 i beta}) / (1 + r_top r e^{2 i beta})."""
    media, ws = _media(stack)
    refl = _interface(pol, media[-2], ws[-2], media[-1], ws[-1])[0]
    for j in range(len(media) - 2, 0, -1):
        d = stack["layers"][j - 1][1]
        phase = cmath.exp(2j * (2.0 * math.pi * d * ws[j] / stack["wavelength"]))
        r_top = _interface(pol, media[j - 1], ws[j - 1], media[j], ws[j])[0]
        refl = (r_top + refl * phase) / (1.0 + r_top * refl * phase)
    return refl


def stack_text(stack: dict) -> str:
    """The flat stack schema the program parses (floats written exactly)."""
    lines = [f"ambient {stack['ambient']!r}"]
    for n, d in stack["layers"]:
        lines.append(f"layer {n.real!r} {n.imag!r} {d!r}")
    sub = stack["substrate"]
    lines.append(f"substrate {sub.real!r} {sub.imag!r}")
    lines.append(f"wavelength {stack['wavelength']!r}")
    lines.append(f"angle {stack['angle_deg']!r}")
    return "\n".join(lines) + "\n"

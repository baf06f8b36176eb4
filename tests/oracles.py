"""Independent oracles used across the test suite.

Each routine here deliberately avoids the code path it checks: the
continued fraction replaces the tridiagonal eigensolve, ODE shooting
replaces the Fourier evaluation, explicit multiple-bounce (Airy)
summation replaces characteristic matrices, quadrature replaces Bessel
identities, the Laguerre closed form replaces the displacement
eigensolve, sums over fixed-photon-number layers replace the grid
moments of coherent states, and exactly rounded sums over one layer
replace the box moments of embedded phase states.
"""

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq
from scipy.special import eval_genlaguerre, gammaln

from qellip.optics import Layer, LayerStack


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


def mathieu_eigenvalue_cf(q: float, bracket: tuple[float, float]) -> float:
    """Root of the characteristic equation inside a pole-free bracket."""
    return brentq(lambda a: mathieu_char_equation(a, q), *bracket,
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


# ---------------------------------------------------------------------------
# Fock-basis displacement matrix closed form

def displacement_entry(m, n, alpha: complex):
    """<m| D(alpha) |n> via associated Laguerre polynomials.

    m and n may be integer arrays (broadcast together).  The factorial
    ratio and the powers of |alpha| are combined in log scale and the
    polynomial comes from its recurrence in degree, so entries keep full
    precision at degrees in the hundreds, where the polynomial's
    coefficient form has long lost it.
    """
    m, n = np.broadcast_arrays(np.asarray(m), np.asarray(n))
    x = abs(alpha) ** 2
    if x == 0.0:
        return (m == n).astype(complex)[()]
    lo, hi = np.minimum(m, n), np.maximum(m, n)
    lag = eval_genlaguerre(lo, hi - lo, x)
    with np.errstate(divide="ignore"):
        size = np.exp(0.5 * (gammaln(lo + 1.0) - gammaln(hi + 1.0))
                      + (hi - lo) * np.log(abs(alpha)) - 0.5 * x
                      + np.log(np.abs(lag)))
    # alpha^(m-n) above the diagonal, (-conj alpha)^(n-m) below it
    phase = (np.exp(1j * (m - n) * np.angle(alpha))
             * np.where(m < n, (-1.0) ** (n - m), 1.0))
    return (np.sign(lag) * size * phase)[()]


# ---------------------------------------------------------------------------
# balanced coherent <E> by fixed-photon-number layers

def coherent_e_mean(nbar: float) -> float:
    """<E> of the two-mode coherent state with |alpha_p|^2 = |alpha_s|^2 = nbar/2
    and real amplitudes.

    The total photon number N is Poisson(nbar); given N, the photons split
    binomially, b_m = C(N, m) / 2^N on |m, N - m>, with equal phases.  E
    moves m to m - 1 inside the layer and wraps |0, N> onto |N, 0>, so
    <E> = sum_N P(N) [sum_{m>=1} sqrt(b_{m-1} b_m) + sqrt(b_0 b_N)].
    """
    width = 15.0 * np.sqrt(nbar) + 10.0
    total = 0.0
    for N in range(max(0, int(nbar - width)), int(nbar + width) + 1):
        log_poisson = -nbar + N * np.log(nbar) - gammaln(N + 1.0)
        m = np.arange(N + 1.0)
        log_b = gammaln(N + 1.0) - gammaln(m + 1.0) - gammaln(N - m + 1.0) - N * np.log(2.0)
        inner = np.sum(np.exp(0.5 * (log_b[:-1] + log_b[1:]))) + np.exp(0.5 * (log_b[0] + log_b[-1]))
        total += np.exp(log_poisson) * inner
    return float(total)


# ---------------------------------------------------------------------------
# modulus variance of a phase state on one layer, by exactly rounded sums

def layer_modulus_variance(l_values, amps, N: int) -> float:
    """Var P of Psi_l placed on |N/2 + l, N/2 - l>, components outside
    the layer dropped and the rest renormalized.

    P = sqrt((N/2 + l) / (N/2 - l + 1)) on each component; the mean and
    the centred second moment are both taken with ``math.fsum``, so the
    variance keeps its digits when it is many orders below <P>^2.
    """
    half = N // 2
    weights = [(int(l), abs(complex(a)) ** 2)
               for l, a in zip(l_values, amps) if abs(int(l)) <= half]
    total = math.fsum(w for _, w in weights)
    terms = [(math.sqrt((half + l) / (half - l + 1)), w / total) for l, w in weights]
    mean = math.fsum(w * p for p, w in terms)
    return math.fsum(w * (p - mean) ** 2 for p, w in terms)


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

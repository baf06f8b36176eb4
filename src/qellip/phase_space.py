"""States on the relative-phase circle, stored by Fourier components.

A state is a square-summable sequence Psi_l over the integer
photon-difference index l, related to the continuous wave function by

    Psi(phi) = (2 pi)^{-1/2} sum_l exp(-i l phi) Psi_l,

so the probability density is p(phi) = |Psi(phi)|^2.  The Fourier side is
primary because embedding into Fock layers consumes Psi_l directly; the
density is derived on demand.

Constructors produce states whose density peaks at phi = pi (the
exp(-q cos phi) / exp(-kappa cos(phi - phi_0)) convention); use
``rotate`` to move the peak and ``shift`` to move <L>: an integer index
translation, so the state stays 2 pi - periodic.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import (Checked, InconsistentSolutionError, InvalidParameterError,
                     InvalidStateError, finite, integer)
from .mathieu import MathieuSolution

_SQRT2 = np.sqrt(2.0)

#: probability mass allowed outside the stored support window
WINDOW_TAIL_TOL = 1e-12

#: Largest von Mises window, in components, a constructor may allocate.
MAX_PHASE_WINDOW = 2 ** 18

#: Largest grid, in bytes, a density may allocate.
MAX_DENSITY_BYTES = 2 ** 30


class _PhaseWaveFunctionFields(NamedTuple):
    l_min: int
    amplitudes: np.ndarray


class PhaseWaveFunction(Checked, _PhaseWaveFunctionFields):
    """Fourier components of a relative-phase state.

    ``amplitudes[i]`` is Psi_l for l = ``l_min + i``; outside the window
    the components are zero (tail mass below WINDOW_TAIL_TOL).  l_min is
    kept a Python int, and a window reaching |l| >= 2^53, where float l
    stops being exact, raises InvalidParameterError.
    """

    __slots__ = ()

    def __new__(cls, l_min: int, amplitudes: np.ndarray):
        l_min = integer("l_min", l_min)
        if max(-l_min, l_min + len(amplitudes) - 1) >= 2 ** 53:
            raise InvalidParameterError("the window reaches past |l| < 2^53, "
                                        "where float l stops being exact")
        return super().__new__(cls, l_min, amplitudes)

    @property
    def l_values(self) -> np.ndarray:
        return np.arange(self.l_min, self.l_min + len(self.amplitudes))

    def component(self, l: int) -> complex:
        """Psi_l, zero outside the stored window."""
        i = integer("l", l) - self.l_min
        if 0 <= i < len(self.amplitudes):
            return complex(self.amplitudes[i])
        return 0.0j

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2))


class CircularMoments(NamedTuple):
    """First and second moments on the circle.

    e_mean is <e^{i phi}>, e_var the circular variance 1 - |e_mean|^2;
    l_mean / l_var are ordinary moments of the photon-difference index.
    """

    e_mean: complex
    e_var: float
    l_mean: float
    l_var: float


def _trimmed(l_min: int, amps: np.ndarray) -> PhaseWaveFunction:
    """Drop edge components under WINDOW_TAIL_TOL * 1e-3 of a unit-norm
    state's mass, renormalize the rest, freeze the window.  A non-finite
    component raises InvalidStateError."""
    mag2 = np.abs(amps) ** 2
    if not math.isfinite(float(mag2.sum())):
        raise InvalidStateError("phase state has non-finite components")
    keep = np.flatnonzero(mag2 > WINDOW_TAIL_TOL * 1e-3)
    if len(keep) == 0:
        raise InvalidStateError("phase state has no support")
    lo, hi = keep[0], keep[-1] + 1
    amps = amps[lo:hi].astype(complex) / np.sqrt(np.sum(mag2[lo:hi]))
    return PhaseWaveFunction(l_min + int(lo), amps)


def phase_state(components: dict[int, complex]) -> PhaseWaveFunction:
    """Build a normalized state from an {l: Psi_l} mapping (a library
    convenience); a non-finite component raises InvalidParameterError."""
    if not components:
        raise InvalidStateError("empty component map")
    ls = sorted(components)
    l_min, l_max = integer("l", ls[0]), integer("l", ls[-1])
    amps = np.zeros(l_max - l_min + 1, dtype=complex)
    for l, c in components.items():
        amps[integer("l", l) - l_min] = finite(f"component Psi_{l}", c)
    # scaled by the largest magnitude first, so that no square leaves the
    # float range
    largest = np.abs(amps).max()
    if largest == 0.0:
        raise InvalidStateError("zero-norm component map")
    parts = amps.view(np.float64)  # a real divisor: no complex division
    parts /= largest
    return _trimmed(l_min, amps / np.sqrt(np.sum(np.abs(amps) ** 2)))


def from_mathieu(sol: MathieuSolution) -> PhaseWaveFunction:
    """Phase state of the even Mathieu beam ce_{2k}( phi/2, q).

    The cosine coefficients map onto the Fourier side as
    Psi_0 = sqrt(2) A_0 and Psi_{+-j} = A_{2j} / sqrt(2); McLachlan
    normalization makes the result unit-norm by construction.
    """
    A = sol.coefficients
    side = A[1:] / _SQRT2
    amps = np.concatenate((side[::-1], [_SQRT2 * A[0]], side))
    return _trimmed(1 - len(A), amps)


def from_von_mises(kappa: float, phi0: float = 0.0) -> PhaseWaveFunction:
    """Phase state with von Mises density ~ exp[-kappa cos(phi - phi0)].

    Fourier components are Psi_l ~ (-1)^l exp(i l phi0) I_l(kappa/2),
    so |Psi_l|^2 = I_l(kappa/2)^2 / I_0(kappa).  The scaled values
    I_l(z) e^{-z}, z = kappa/2, are the Fourier coefficients of
    exp(-2 z sin^2(s/2)), taken by one real FFT of G samples, G the power
    of two >= 4 l_max: the exponent is never positive, so nothing
    overflows, and the aliases come from |l| >= 3 l_max, far under
    rounding (DLMF 10.35).  The window |l| <= l_max = ceil(9 sqrt(z) + 20)
    puts the edge 9 standard deviations out for large z, where
    I_l(z) / I_0(z) ~ exp(-l^2 / 2z) (DLMF 10.41); the +20 covers small
    z, where I_l(z) ~ (z/2)^l / l!.  A window of more than
    MAX_PHASE_WINDOW components raises InvalidParameterError before
    anything is allocated (l_max = 63660 at kappa = 1e8 fits), and an
    edge weight that is not negligible raises InconsistentSolutionError.
    The components are normalized before the trimming, so the dropped
    mass stays under WINDOW_TAIL_TOL at any kappa.  phi0 is taken modulo
    2 pi, so l * phi0 stays finite.
    """
    kappa = float(kappa)
    if not np.isfinite(kappa) or kappa < 0.0:
        raise InvalidParameterError(f"kappa must be finite and >= 0, got {kappa}")
    phi0 = math.remainder(finite("phi0", float(phi0)), 2.0 * math.pi)
    z = 0.5 * kappa
    l_max = math.ceil(9.0 * math.sqrt(z) + 20.0)
    if 2 * l_max + 1 > MAX_PHASE_WINDOW:
        raise InvalidParameterError(
            f"kappa={kappa} needs a window of {2 * l_max + 1} components, over "
            f"the budget of {MAX_PHASE_WINDOW}"
        )
    G = 1 << (4 * l_max - 1).bit_length()
    # s = 2 pi k / G, with the half-angles s/2 in [-pi/2, pi/2)
    w = np.exp(-2.0 * z * np.sin(np.pi * np.fft.fftfreq(G)) ** 2)
    w = np.fft.rfft(w)[:l_max + 1].real / G
    if (w[-1] / w[0]) ** 2 >= WINDOW_TAIL_TOL * 1e-4:
        raise InconsistentSolutionError(
            f"von Mises window l_max={l_max} leaves edge weight "
            f"{(w[-1] / w[0]) ** 2:.3e} at kappa={kappa}"
        )
    # unit norm before trimming, so the cut is on the state's mass: the
    # raw squares sum to I_0(kappa) e^{-kappa} ~ (2 pi kappa)^(-1/2)
    w = w / math.sqrt(w[0] ** 2 + 2.0 * float(np.sum(w[1:] ** 2)))
    l = np.arange(-l_max, l_max + 1)
    amps = ((-1.0) ** np.abs(l)) * np.exp(1j * l * phi0) * np.concatenate([w[:0:-1], w])
    return _trimmed(-l_max, amps)


def shift(psi: PhaseWaveFunction, m: int) -> PhaseWaveFunction:
    """Translate the index window by m: l_mean moves by exactly m.  A
    window reaching |l| >= 2^53, where float l stops being exact, raises
    InvalidParameterError."""
    return PhaseWaveFunction(psi.l_min + integer("m", m), psi.amplitudes.copy())


def rotate(psi: PhaseWaveFunction, theta: float) -> PhaseWaveFunction:
    """Rotate the density by theta: p(phi) -> p(phi - theta).

    Acts as Psi_l -> exp(i l theta) Psi_l: <e^{i phi}> gains exp(i theta),
    every variance stays.  theta is taken modulo 2 pi, so l * theta stays
    finite; a non-finite theta raises InvalidParameterError.
    """
    theta = math.remainder(finite("theta", float(theta)), 2.0 * math.pi)
    amps = psi.amplitudes * np.exp(1j * psi.l_values * theta)
    return PhaseWaveFunction(psi.l_min, amps)


def phase_moments(a: np.ndarray, n: float, closed: bool) -> tuple[complex, float]:
    """<e^{i phi}> = sum conj(a_l) a_{l+1} and 1 - |<e^{i phi}>|^2 / n^2 of
    amplitudes ``a`` of norm n = |a|^2; ``closed`` adds the pair (last,
    first), a layer's wrap.  The variance is (d/n)(2 - d/n), with
    d = n - |<e^{i phi}>| summed as sum |b_{l+1} - u b_l|^2 / 2 over the
    window b padded with a zero at each end (or closed by its first
    entry), u = <e^{i phi}> / |<e^{i phi}>|, so no digits cancel:
    1 - |<e^{i phi}>|^2 keeps only about 8 at kappa = 1e8."""
    e_mean = complex(np.vdot(a[:-1], a[1:]))
    if closed:
        e_mean += complex(np.conj(a[-1]) * a[0])
    u = e_mean / abs(e_mean) if e_mean else 1.0
    b = np.concatenate((a, a[:1]) if closed else ([0.0], a, [0.0]))
    b = b[1:] - u * b[:-1]
    x = 0.5 * float(np.vdot(b, b).real) / n
    return e_mean, x * (2.0 - x)


def circular_moments(psi: PhaseWaveFunction) -> CircularMoments:
    """Moments <e^{i phi}>, circular variance, <L>, Var L.

    <e^{i phi}> = sum_l conj(Psi_l) Psi_{l+1}, with the circular variance
    taken without cancellation (``phase_moments``); Var L =
    sum |Psi_l|^2 (l - <L>)^2 is centred on integer offsets within the
    window, so it keeps its digits at any l.  Raises InvalidStateError if
    the norm is off by more than 1e-9 or is NaN.
    """
    a = psi.amplitudes
    p = np.abs(a) ** 2
    nrm2 = float(p.sum())
    if not abs(nrm2 - 1.0) <= 1e-9:
        raise InvalidStateError(f"state not normalized: |Psi|^2 = {nrm2:.12e}")
    k = np.arange(len(a), dtype=float)
    l_mean = float((k + psi.l_min) @ p)
    k -= float(k @ p)
    e_mean, e_var = phase_moments(a, nrm2, closed=False)
    return CircularMoments(e_mean, e_var, l_mean, float((k * k) @ p))


def density_profile(psi: PhaseWaveFunction, grid_points: int) -> tuple[np.ndarray, np.ndarray]:
    """Probability density on a uniform grid over [0, 2 pi).

    Returns (phi, p), each of length G = ``grid_points``.  exp(-i l phi_j)
    on phi_j = 2 pi j / G depends on l mod G only, so one FFT of the
    components folded by l mod G (collisions summed) gives every Psi(phi_j)
    exactly.  On a grid finer than twice the support width sum(p) * dphi
    is 1 to rounding (trigonometric polynomial); on a coarser one it need
    not be (kappa 1e8 on 512 points sums to about 49).  G may take 160 B a
    point of MAX_DENSITY_BYTES: 48 B of arrays, up to 110 B of FFT workspace.
    """
    grid_points = integer("grid_points", grid_points)
    if grid_points < 2:
        raise InvalidParameterError(f"grid_points must be >= 2, got {grid_points}")
    if 160 * grid_points > MAX_DENSITY_BYTES:
        raise InvalidParameterError(f"a {grid_points}-point density grid is over the "
                                    f"budget of {MAX_DENSITY_BYTES} bytes")
    folded = np.zeros(grid_points, dtype=complex)
    np.add.at(folded, psi.l_values % grid_points, psi.amplitudes)
    phi = np.linspace(0.0, 2.0 * np.pi, grid_points, endpoint=False)
    return phi, np.abs(np.fft.fft(folded)) ** 2 / (2.0 * np.pi)

"""Classical multilayer ellipsometry via characteristic matrices.

Sign conventions (they differ across texts, so they are pinned here):

* time dependence e^{-i omega t}, absorbing indices n + i k with k >= 0;
* transmitted-branch cosines chosen so waves decay forward,
  Im(n cos theta) >= 0;
* ellipsometric convention with r_p = +|r| at normal-incidence external
  reflection, i.e. rho = r_p / r_s = -1 on bare glass at theta = 0 and
  rho = 0 at the Brewster angle;
* Delta = arg(rho) reported in [0, 2 pi).

The per-layer characteristic matrix uses the phase thickness
beta = 2 pi d n cos(theta) / lambda and the tilted admittances
n cos(theta) (s) and n / cos(theta) (p); the p-polarized admittance form
returns the Born & Wolf sign, which is flipped into the convention above.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import Checked, InvalidParameterError, NumericalDomainError, StackParseError, finite


def _check_media(angle: float, indices) -> None:
    """Refuse an angle of incidence outside [0, pi/2) and an index that is
    not finite, is 0, is 1e150 or more in magnitude or has Im(n) < 0: the
    rule of ``LayerStack`` and of ``fresnel_interface``.  The 1e150 bound
    is a margin that keeps n^2 and n^2 / (n cos theta) well inside the
    float range (n^2 itself overflows past about 1.34e154)."""
    if not 0.0 <= angle < math.pi / 2.0:
        raise InvalidParameterError(f"angle of incidence must lie in [0, pi/2), got {angle}")
    for n in indices:
        n = finite("refractive index", complex(n))
        if not 0.0 < abs(n) < 1e150:
            raise InvalidParameterError(
                f"refractive index must be nonzero and under 1e150 in magnitude, got {n}")
        if n.imag < 0.0:
            raise InvalidParameterError(f"absorbing convention requires Im(n) >= 0, got {n}")


class Layer(NamedTuple):
    index: complex
    thickness: float  # nanometers


class _LayerStackFields(NamedTuple):
    ambient_index: complex
    layers: tuple[Layer, ...]
    substrate_index: complex
    wavelength: float          # nanometers
    angle_of_incidence: float  # radians


class LayerStack(Checked, _LayerStackFields):
    """Ambient / films / substrate description at one wavelength and angle.

    The films are stored as a tuple.  A wavelength that is not finite
    and positive, an angle outside [0, pi/2), an index that is not
    finite, is 0, is 1e150 or more in magnitude or has Im(n) < 0, or a
    thickness that is not finite and >= 0 raises InvalidParameterError."""

    __slots__ = ()

    def __new__(cls, ambient_index: complex, layers, substrate_index: complex,
                wavelength: float, angle_of_incidence: float):
        if not (math.isfinite(wavelength) and wavelength > 0.0):
            raise InvalidParameterError(
                f"wavelength must be finite and > 0, got {wavelength}")
        layers = tuple(layers)
        _check_media(angle_of_incidence,
                     (ambient_index, substrate_index, *(l.index for l in layers)))
        for l in layers:
            finite("film thickness", l.thickness)
            if l.thickness < 0.0:
                raise InvalidParameterError(f"negative thickness {l.thickness}")
        return super().__new__(cls, ambient_index, layers, substrate_index,
                               wavelength, angle_of_incidence)


class EllipsometricResult(NamedTuple):
    """Reflection pair and the derived (rho, psi, Delta) triple."""

    r_p: complex
    r_s: complex
    rho: complex
    psi_angle: float  # radians, [0, pi/2]
    delta: float      # radians, [0, 2 pi)


def _forward_cos_times_n(n: complex, kx: complex) -> complex:
    """n cos(theta) with the forward-decaying branch, from n sin(theta) = kx."""
    w = np.lib.scimath.sqrt(n * n - kx * kx)
    if w.imag < 0.0 or (w.imag == 0.0 and w.real < 0.0):
        w = -w
    return complex(w)


def fresnel_interface(n_i: complex, n_t: complex, theta_i: float) -> tuple[complex, complex]:
    """Single-interface amplitude reflection coefficients (r_p, r_s).

    r_s = (n_i cos t_i - n_t cos t_t) / (n_i cos t_i + n_t cos t_t)
    r_p = (n_t cos t_i - n_i cos t_t) / (n_t cos t_i + n_i cos t_t)

    with the transmitted cosine from the complex Snell law.  The angle and
    the indices are refused where ``LayerStack`` refuses them.
    """
    n_i, n_t = complex(n_i), complex(n_t)
    _check_media(theta_i, (n_i, n_t))
    ci = np.cos(theta_i)
    kx = n_i * np.sin(theta_i)
    w_t = _forward_cos_times_n(n_t, kx)  # n_t cos(theta_t)
    r_s = (n_i * ci - w_t) / (n_i * ci + w_t)
    r_p = (n_t * n_t * ci - n_i * w_t) / (n_t * n_t * ci + n_i * w_t)
    return r_p, r_s


#: Phase-thickness decay Im beta past which a film is opaque: the round
#: trip e^{-2 Im beta} through it is below 5e-18.
_OPAQUE = 20.0


def _amplitude_reflection(stack: LayerStack, pol: str) -> complex:
    """Characteristic-matrix reflection for one polarization."""
    n0 = complex(stack.ambient_index)
    kx = n0 * np.sin(stack.angle_of_incidence)
    w0 = n0 * np.cos(stack.angle_of_incidence)

    def admittance(n: complex, w: complex) -> complex:
        if abs(w) < 1e-12:
            raise NumericalDomainError(
                f"grazing propagation (n cos theta = {w}) in medium n = {n}"
            )
        return w if pol == "s" else n * n / w

    m = np.eye(2, dtype=complex)
    n_sub = complex(stack.substrate_index)
    for layer in stack.layers:
        n = complex(layer.index)
        w = _forward_cos_times_n(n, kx)
        beta = 2.0 * np.pi * layer.thickness * w / stack.wavelength
        if beta.imag > _OPAQUE:
            # it reflects as a substrate would and hides the layers under
            # it; cos beta would overflow further on
            n_sub = n
            break
        if not abs(beta.real) < 2 ** 52:  # also a non-finite beta
            raise NumericalDomainError(
                f"a film of {layer.thickness} nm is past 2^52 rad of phase thickness: "
                "its phase has no digits left"
            )
        eta = admittance(n, w)
        # a film divides by its admittance (sin beta / eta), which for p
        # falls under the grazing guard's 1e-12 at a tiny index; the
        # ambient and substrate admittances are only multiplied and added,
        # so a tiny one there is exact
        if abs(eta) < 1e-12:
            raise NumericalDomainError(f"vanishing admittance {eta} in a film of index {n}")
        cb, sb = np.cos(beta), np.sin(beta)
        # -i sin: the e^{-i omega t} convention needs round-trip phase
        # e^{+2 i beta} (decaying in absorbing films, Im beta >= 0)
        m = m @ np.array([[cb, -1j * sb / eta], [-1j * eta * sb, cb]])
        big = abs(m).max()
        if big > 2.0 ** 256:
            # r reads only the ratio of b to c, and a power of two scales
            # the product exactly: films opaque together but not alone
            # would overflow it
            m *= 2.0 ** -math.frexp(big)[1]

    eta0 = admittance(n0, w0)
    eta_sub = admittance(n_sub, _forward_cos_times_n(n_sub, kx))
    b, c = m @ np.array([1.0, eta_sub])
    r = (eta0 * b - c) / (eta0 * b + c)
    # the p admittance form carries the Born & Wolf sign; flip into the
    # ellipsometric convention (r_p > 0 at normal-incidence external reflection)
    return complex(-r) if pol == "p" else complex(r)


def stack_reflection(stack: LayerStack) -> EllipsometricResult:
    """(r_p, r_s, rho, psi, Delta) of a multilayer stack.

    With no layers this reduces exactly to ``fresnel_interface`` on the
    ambient/substrate boundary.
    """
    r_p = _amplitude_reflection(stack, "p")
    r_s = _amplitude_reflection(stack, "s")
    if r_s == 0:
        raise NumericalDomainError("s-polarized reflection vanishes; rho undefined")
    rho = r_p / r_s
    psi = float(np.arctan(abs(rho)))
    delta = float(np.angle(rho)) % (2.0 * np.pi)
    return EllipsometricResult(r_p, r_s, rho, psi, delta)


# ---------------------------------------------------------------------------
# stack description files

#: The keys given once in a stack file, in schema order, and their value counts.
_SINGLE_KEYS = {"ambient": 1, "substrate": 2, "wavelength": 1, "angle": 1}


def parse_stack_text(text: str) -> LayerStack:
    """Parse the flat stack schema.

    One ``ambient <n>`` line, any number of ``layer <n_re> <n_im> <d_nm>``
    lines (order significant, ambient side first), one
    ``substrate <n_re> <n_im>``, plus ``wavelength <nm>`` and
    ``angle <deg>``.  Other keys, duplicates, or missing entries raise
    StackParseError.
    """
    single: dict[str, list[float]] = {}
    layers: list[Layer] = []

    def floats(parts: list[str], count: int, lineno: int) -> list[float]:
        if len(parts) != count:
            raise StackParseError(
                f"line {lineno}: expected {count} value(s), got {len(parts)}"
            )
        try:
            return [float(p) for p in parts]
        except ValueError as exc:
            raise StackParseError(f"line {lineno}: {exc}") from exc

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, *parts = line.split()
        if key == "layer":
            n_re, n_im, d = floats(parts, 3, lineno)
            layers.append(Layer(complex(n_re, n_im), d))
        elif key in _SINGLE_KEYS:
            if key in single:
                raise StackParseError(f"line {lineno}: duplicate {key}")
            single[key] = floats(parts, _SINGLE_KEYS[key], lineno)
        else:
            raise StackParseError(f"line {lineno}: unknown key {key!r}")

    missing = [key for key in _SINGLE_KEYS if key not in single]
    if missing:
        raise StackParseError(f"missing required entries: {', '.join(missing)}")
    (ambient,), substrate, (wavelength,), (angle,) = (single[k] for k in _SINGLE_KEYS)
    try:
        return LayerStack(complex(ambient), tuple(layers), complex(*substrate),
                          wavelength, np.deg2rad(angle))
    except InvalidParameterError as exc:
        raise StackParseError(str(exc)) from exc


def load_stack(path) -> LayerStack:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_stack_text(fh.read())

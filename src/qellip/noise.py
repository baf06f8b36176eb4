"""Uncertainty budgets and photon-number scaling analysis.

Everything revolves around the relation

    Var(E) * Var(L) >= |<E>|^2 / 4

between the circular variance of the relative-phase unitary and the
photon-difference variance.  ``analyze`` condenses a state into a
MomentReport (product, bound, saturation ratio, polarization-squeezing
flag); ``scaling_sweep`` fits how a chosen variance scales with the mean
photon number, which separates shot-noise-limited families (slope -1 in
the circular variance) from Heisenberg-limited ones (slope -2 in the
modulus variance).  The moments of a Gaussian state come from K x K
Grams of its mode factors, those of a phase state on a layer from its
window; no dense grid is formed.

``FAMILIES`` is the one registry of input-state families: each name maps
to its ``StateFamily`` constructor and the parameters it takes.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import fock, phase_space
from .errors import InvalidParameterError
from .mathieu import solve_even_mathieu

SWEEP_TARGETS = ("e_var", "l_var", "p_var", "rho_var")

@dataclass(frozen=True)
class MomentReport:
    """Moment summary of one state at one operating photon number.

    bound is |<E>|^2 / 4; saturation_ratio = product / bound (+inf when
    the bound is degenerate).  The bound presumes a negligible layer-wrap
    term of E: phase states and bright two-mode states keep the ratio
    >= 1 (-> 1 at saturation), but dim ones fall under it (balanced
    coherent states read 0.0043 at nbar 0.5 and 0.70 at nbar 5).  p_var
    is the modulus variance: exact for Fock states, the high-photon
    approximation 4 Var(L) / nbar^2 for bare phase states, where the
    photon number is an external parameter.
    """

    n_mean: float
    e_mean: complex
    e_var: float
    l_mean: float
    l_var: float
    p_var: float
    product: float
    bound: float
    saturation_ratio: float
    pol_squeezed: bool


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares power law var ~ nbar^slope on log10 axes."""

    points: tuple[tuple[float, float], ...]
    slope: float
    intercept: float
    r_squared: float
    excluded: tuple[float, ...] = ()


@dataclass(frozen=True)
class StateFamily:
    """A one-parameter family nbar -> state.  phase is the bare phase
    state a phase family embeds on the nbar layer; None for Fock families."""

    build_report: Callable[[float], MomentReport]
    phase: phase_space.PhaseWaveFunction | None = None


class Param(NamedTuple):
    """One parameter of a family constructor: its name (also the CLI flag
    and config key), value type and help text.  Defaults are the
    constructor's own."""

    name: str
    type: type
    help: str
    required: bool = False


@dataclass(frozen=True)
class RhoUncertainty:
    """Small-noise error bars on the ellipsometric function.

    sigma_delta is the circular standard deviation of the phase channel,
    sigma_tanpsi_rel the relative modulus noise, and sigma_rho_rel their
    quadrature sum (a documented convention; the two channels are
    independent to leading order).  large_noise marks reports outside the
    small-noise regime, where the delta method degrades.
    """

    sigma_delta: float
    sigma_tanpsi_rel: float
    sigma_rho_rel: float
    large_noise: bool


def _make_report(n_mean: float, e_mean: complex, e_var: float,
                 l_mean: float, l_var: float, p_var: float) -> MomentReport:
    product = e_var * l_var
    bound = 0.25 * abs(e_mean) ** 2
    ratio = product / bound if bound > 0.0 else math.inf
    pol_squeezed = bool(l_var < 0.25 * n_mean * abs(e_mean) ** 2)
    return MomentReport(n_mean, e_mean, e_var, l_mean, l_var, p_var,
                        product, bound, ratio, pol_squeezed)


def _marginal(d: np.ndarray, c: np.ndarray, g: np.ndarray) -> np.ndarray:
    """sum_kl conj(d[m, k] c_k) g[k, l] c_l d[m, l] for each row m: the
    photon-number distribution of one mode, g the other mode's Gram."""
    h = g * c
    h *= np.conj(c)[:, np.newaxis]
    return np.einsum("mk,mk->m", np.conj(d) if d.dtype.kind == "c" else d, d @ h.T).real


def _factor_moments(state: fock.TwoModeFockState
                    ) -> tuple[float, complex, float, float, float, float]:
    """(n_mean, e_mean, e_var, l_mean, l_var, p_var) of a normalized state
    A = d_p diag(c) d_s^T.

    An operator f(N_p) g(N_s) has <f g> = c^H (F_p o G_s) c with the K x K
    Grams F_p = d_p^H diag(f) d_p and G_s = d_s^H diag(g) d_s.  The mode
    marginals (rows of d_p against the s-mode Gram, and back) give every
    one-mode moment; the Grams of centred weights give the N_p-N_s
    covariance and the cross terms of P = X Y, X = sqrt(N_p),
    Y = 1/sqrt(N_s + 1):

        Var P = E[(X-x)^2 Y^2] + 2x E[(X-x) Y (Y-y)] + x^2 Var Y - E[(X-x) Y]^2.

    These separable sums cancel digits on strongly pair-correlated
    states: about 1e-12 relative of Var L and 2e-12 of Var P at s = 2,
    nbar 400, where N_p and N_s each vary some 3000 times more than
    their difference.

    E pairs |m, n> with |m+1, n-1>, the Grams of the factors shifted by
    one row, plus the vacuum wrap |0, N> -> |N, 0> from the first row and
    column of A.  Each Gram is dropped once used, which keeps the K x K
    arrays held at once within the plan ``fock.MAX_FACTOR_BYTES`` is
    checked against.
    """
    d_p, c, d_s = state.d_p, state.c, state.d_s
    same = d_s is d_p
    gram, form = fock._gram, fock._pair_form

    def weighted(d, w):
        if d.dtype.kind == "f" and w.min() >= 0.0:  # a symmetric product
            d = np.sqrt(w)[:, np.newaxis] * d
            return d.T @ d
        return gram(d, w[:, np.newaxis] * d)

    def expect(w_p, w_s):
        """<w_p(N_p) w_s(N_s)>"""
        f_p = weighted(d_p, w_p)
        return form(c, f_p, f_p if same and w_s is w_p else weighted(d_s, w_s)).real

    prob_p = _marginal(d_p, c, gram(d_s, d_s))
    prob_s = prob_p if same else _marginal(d_s, c, gram(d_p, d_p))
    k = np.arange(state.cutoff + 1.0)
    mean_p, mean_s = float(k @ prob_p), float(k @ prob_s)
    dm = k - mean_p
    dn = dm if same and mean_s == mean_p else k - mean_s
    # Var L = (Var N_p + Var N_s - 2 Cov) / 4 from centred weights
    l_var = 0.25 * float((dm * dm) @ prob_p + (dn * dn) @ prob_s - 2.0 * expect(dm, dn))
    root_m, inv_root_n = np.sqrt(k), 1.0 / np.sqrt(k + 1.0)
    x, y = float(root_m @ prob_p), float(inv_root_n @ prob_s)
    dx, dy = root_m - x, inv_root_n - y
    g_dx = weighted(d_p, dx)
    cross = form(c, g_dx, weighted(d_s, inv_root_n)).real
    mixed = form(c, g_dx, weighted(d_s, inv_root_n * dy)).real
    del g_dx
    p_var = (expect(dx * dx, inv_root_n * inv_root_n) + 2.0 * x * mixed
             + x * x * float((dy * dy) @ prob_s) - cross * cross)

    shift_p = gram(d_p[:-1], d_p[1:])
    shift_s = shift_p if same else gram(d_s[:-1], d_s[1:])
    e_mean = (form(c, shift_p, np.conj(shift_s).T)
              + complex(np.vdot(d_p @ (c * d_s[0]), d_s @ (c * d_p[0]))))
    e_var = min(max(1.0 - abs(e_mean) ** 2, 0.0), 1.0)
    return (mean_p + mean_s, e_mean, e_var, 0.5 * (mean_p - mean_s),
            max(l_var, 0.0), max(p_var, 0.0))


def _layer_moments(state: fock.LayerState
                   ) -> tuple[float, complex, float, float, float, float]:
    """The moments of a phase state on the layer of N photons: L is
    the index l, E steps l to l + 1 (the wrap |0, N> -> |N, 0> pairs
    N/2 with -N/2), and P = sqrt(A / B), A = N/2 + l, B = N + 1 - A.

    P is centred on the middle component's P_c first, through
    P - P_c = j (N + 1) / (B B_c (P + P_c)) with the integer offset
    j = l - c, so no digits cancel at any N; then on the mean."""
    psi, N = state.psi, state.cutoff
    mom = phase_space.circular_moments(psi)
    prob = np.abs(psi.amplitudes) ** 2
    e_mean, e_var = mom.e_mean, mom.e_var
    if len(prob) == N + 1:  # the window spans the layer
        e_mean, e_var = phase_space._phase_moments(psi.amplitudes, float(prob.sum()),
                                                   closed=True)
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


def analyze(state, nbar: float | None = None) -> MomentReport:
    """Moment report for a Fock-grid state, a phase state on a Fock layer
    or a bare phase state.

    Fock states carry their own photon number.  Two-mode moments come
    from K x K Grams of the stored mode factors (N and L from the mode
    marginals and the centred N_p-N_s covariance, P from centred cross
    terms of sqrt(m) and 1/sqrt(n+1), <E> from the Grams of the factors
    shifted by one row), with the vacuum wrap |0, N> -> |N, 0> included,
    at O(M K^2) for K factor columns on M+1 rows.  A layer state's
    moments take a few passes over its window.  Bare phase states need
    the external ``nbar`` (the layer a later embedding would use), which
    must be finite and positive, and not so small that p_var =
    4 Var(L) / nbar^2 overflows.
    """
    if isinstance(state, fock.TwoModeFockState):
        return _make_report(*_factor_moments(state))
    if isinstance(state, fock.LayerState):
        return _make_report(*_layer_moments(state))

    if isinstance(state, phase_space.PhaseWaveFunction):
        if nbar is None:
            raise InvalidParameterError(
                "phase states need an external mean photon number nbar"
            )
        nbar = float(nbar)
        if not (math.isfinite(nbar) and nbar > 0.0):
            raise InvalidParameterError(f"nbar must be finite and positive, got {nbar}")
        mom = phase_space.circular_moments(state)
        try:
            p_var = 4.0 * mom.l_var / nbar ** 2
        except (OverflowError, ZeroDivisionError):  # nbar^2 is past the float range
            p_var = 4.0 * mom.l_var / nbar / nbar
        if not math.isfinite(p_var):
            raise InvalidParameterError(
                f"nbar={nbar} is too small: p_var = 4 Var(L) / nbar^2 overflows")
        return _make_report(nbar, mom.e_mean, mom.e_var, mom.l_mean,
                            mom.l_var, p_var)

    raise InvalidParameterError(f"cannot analyze object of type {type(state).__name__}")


# ---------------------------------------------------------------------------
# state families

def coherent_family(*, cutoff: int | None = None) -> StateFamily:
    """Balanced two-mode coherent states, |alpha_p| = |alpha_s| = sqrt(nbar/2)."""
    def build(nbar: float) -> MomentReport:
        if not (math.isfinite(nbar) and nbar >= 0.0):
            raise InvalidParameterError(f"nbar must be finite and >= 0, got {nbar}")
        a = np.sqrt(nbar / 2.0)
        return analyze(fock.coherent_state(a, a, cutoff))
    return StateFamily(build)


def squeezed_family(s: float, dphi: float = 0.0, *,
                    cutoff: int | None = None) -> StateFamily:
    """Displaced squeezed states at the balanced operating point."""
    def build(nbar: float) -> MomentReport:
        return analyze(fock.squeezed_for_mean_photons(nbar, s, dphi, cutoff))
    return StateFamily(build)


def _layer_number(nbar: float) -> int:
    if not (nbar >= 2 and nbar % 2 == 0):  # inf % 2 is nan
        raise InvalidParameterError(
            f"embedded phase families need even integer photon numbers, got {nbar}"
        )
    return int(nbar)


def _phase_family(psi: phase_space.PhaseWaveFunction) -> StateFamily:
    def build(nbar: float) -> MomentReport:
        return analyze(fock.embed_phase_state(psi, _layer_number(nbar)))
    return StateFamily(build, psi)


def mathieu_family(q: float, *, order: int = 0) -> StateFamily:
    """Even Mathieu beam of fixed q and order embedded on the nbar layer."""
    return _phase_family(phase_space.from_mathieu(solve_even_mathieu(q, order)))


def von_mises_family(kappa: float, phi0: float = 0.0) -> StateFamily:
    """Von Mises phase state of fixed kappa embedded on the nbar layer."""
    return _phase_family(phase_space.from_von_mises(kappa, phi0))


_CUTOFF = Param("cutoff", int, "per-mode Fock cutoff (default: auto)")

#: The state families by name: each family's constructor and the
#: parameters it takes.  The CLI reads its --family choices and family
#: flags from here.
FAMILIES: dict[str, tuple[Callable[..., StateFamily], tuple[Param, ...]]] = {
    "coherent": (coherent_family, (_CUTOFF,)),
    "squeezed": (squeezed_family, (
        Param("s", float, "squeezing magnitude", required=True),
        Param("dphi", float, "squeezing noise-balance phase (rad)"),
        _CUTOFF)),
    "mathieu": (mathieu_family, (
        Param("q", float, "Mathieu phase-dispersion parameter", required=True),
        Param("order", int, "Mathieu order index k (default 0)"))),
    "von_mises": (von_mises_family, (
        Param("kappa", float, "von Mises concentration", required=True),
        Param("phi0", float, "von Mises mean phase (rad)"))),
}


# ---------------------------------------------------------------------------
# sweeps and fits

def family_reports(family: StateFamily, n_list) -> list[tuple[float, MomentReport]]:
    """Reports for each photon number, sorted ascending."""
    n_sorted = sorted(float(n) for n in n_list)
    return [(n, family.build_report(n)) for n in n_sorted]


def target_value(report: MomentReport, target: str) -> float:
    """Pick the swept variance out of a report."""
    if target == "rho_var":
        if abs(report.e_mean) <= 0.0:
            return math.inf  # degenerate phase channel; excluded from fits
        return rho_uncertainty(report).sigma_rho_rel ** 2
    if target not in SWEEP_TARGETS:
        raise InvalidParameterError(
            f"unknown sweep target {target!r}; expected one of {SWEEP_TARGETS}"
        )
    return getattr(report, target)


def fit_power_law(points) -> ScalingFit:
    """Unweighted least squares on (log10 nbar, log10 var).

    Points with non-positive or non-finite variance cannot be placed on
    log axes; they are dropped and reported in ``excluded``.  The usable
    points must hold at least two distinct photon numbers.
    """
    points = [(float(n), float(v)) for n, v in points]
    good = [(n, v) for n, v in points if v > 0.0 and math.isfinite(v)]
    excluded = tuple(n for n, v in points if not (v > 0.0 and math.isfinite(v)))
    distinct = len({n for n, _ in good})
    if distinct < 2:
        raise InvalidParameterError(
            f"power-law fit needs >= 2 usable points at distinct photon numbers, "
            f"got {len(good)} at {distinct}"
        )
    x = np.log10([n for n, _ in good])
    y = np.log10([v for _, v in good])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(np.sum(resid ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0
    return ScalingFit(tuple(good), float(slope), float(intercept),
                      min(max(r2, 0.0), 1.0), excluded)


def scaling_sweep(family: StateFamily, n_list, target: str) -> ScalingFit:
    """Fit how one variance scales with photon number across a family.

    Requires at least 4 strictly increasing photon numbers.
    """
    n_list = [float(n) for n in n_list]
    if len(n_list) < 4:
        raise InvalidParameterError(f"sweep needs >= 4 photon numbers, got {len(n_list)}")
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise InvalidParameterError("sweep photon numbers must be strictly increasing")
    reports = family_reports(family, n_list)
    return fit_power_law([(n, target_value(r, target)) for n, r in reports])


# ---------------------------------------------------------------------------
# serialization (consumed by the CLI)

def report_to_dict(report: MomentReport) -> dict:
    """Flat JSON-friendly mapping; complex e_mean split into re/im."""
    d = dataclasses.asdict(report)
    e_mean = d.pop("e_mean")
    d["e_mean_re"], d["e_mean_im"] = e_mean.real, e_mean.imag
    return d


def report_from_dict(d: dict) -> MomentReport:
    fields = {f.name: float(d[f.name]) for f in dataclasses.fields(MomentReport)
              if f.name not in ("e_mean", "pol_squeezed")}
    return MomentReport(e_mean=complex(float(d["e_mean_re"]), float(d["e_mean_im"])),
                        pol_squeezed=bool(d["pol_squeezed"]), **fields)


# ---------------------------------------------------------------------------
# propagation to the ellipsometric function

def rho_uncertainty(report: MomentReport) -> RhoUncertainty:
    """Delta-method noise bars on rho from the phase and modulus channels.

    sigma_delta = sqrt(-2 ln |<E>|) (circular standard deviation),
    sigma_tanpsi_rel = sqrt(Var P), combined in quadrature.  The relative
    bars do not depend on the classical operating point (psi, Delta).
    Below the large-noise boundary e_var = 0.5, -2 ln |<E>| is taken as
    -log1p(-e_var), which keeps the digits of e_var that a |<E>| near 1
    loses; above it, from |<E>|, where 1 - e_var would lose them instead.
    """
    mag = abs(report.e_mean)
    if mag <= 0.0:
        raise InvalidParameterError(
            "rho uncertainty undefined for states with <E> = 0"
        )
    large_noise = report.e_var >= 0.5
    var_delta = -2.0 * math.log(mag) if large_noise else -math.log1p(-report.e_var)
    sigma_delta = math.sqrt(max(var_delta, 0.0))
    sigma_tanpsi = math.sqrt(max(report.p_var, 0.0))
    return RhoUncertainty(sigma_delta, sigma_tanpsi,
                          math.hypot(sigma_delta, sigma_tanpsi), large_noise)

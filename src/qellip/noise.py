"""Uncertainty budgets and photon-number scaling analysis.

Everything revolves around the relation

    Var(E) * Var(L) >= |<E>|^2 / 4

between the circular variance of the relative-phase unitary and the
photon-difference variance.  ``analyze`` condenses a state into a
MomentReport (product, bound, saturation ratio, polarization-squeezing
flag); ``scaling_sweep`` fits how a chosen variance scales with the mean
photon number, which separates shot-noise-limited families (slope -1 in
the circular variance) from Heisenberg-limited ones (slope -2 in the
modulus variance).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import fock, phase_space
from .errors import InvalidParameterError
from .mathieu import solve_even_mathieu

SWEEP_TARGETS = ("e_var", "l_var", "p_var", "rho_var")


@dataclass(frozen=True)
class MomentReport:
    """Moment summary of one state at one operating photon number.

    bound is |<E>|^2 / 4; saturation_ratio = product / bound (>= 1 for
    every physical state, -> 1 at saturation; +inf when the bound is
    degenerate).  p_var is the modulus variance: exact for Fock states,
    the high-photon approximation 4 Var(L) / nbar^2 for bare phase
    states, where the photon number is an external parameter.
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
    """A one-parameter family nbar -> state, for sweeps."""

    name: str
    params: dict
    build_report: Callable[[float], MomentReport]


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


def _grid_moments(a: np.ndarray) -> tuple[float, complex, float, float, float, float]:
    """(n_mean, e_mean, e_var, l_mean, l_var, p_var) of a normalized grid.

    Every diagonal operator (N, L, P) is read off the real probability
    grid |a|^2 through its marginals and weighted row sums; no operator
    grid is built.
    """
    M = a.shape[0] - 1
    prob = np.abs(a)
    prob *= prob
    k = np.arange(M + 1, dtype=float)
    p_s = prob.sum(axis=0)
    mean_s = float(k @ p_s)
    dn = k - mean_s
    # one pass over the grid: row sums and the rows weighted by n - <N_s>,
    # 1/sqrt(n+1) and 1/(n+1)
    weights = np.stack([np.ones(M + 1), dn, 1.0 / np.sqrt(k + 1.0), 1.0 / (k + 1.0)],
                       axis=1)
    p_m, row_dn, row_isq, row_inv = (prob @ weights).T
    mean_p = float(k @ p_m)
    dm = k - mean_p
    # Var L = (Var N_p + Var N_s - 2 Cov) / 4 from centred sums, which keep
    # the precision of pair-correlated and single-layer states
    l_var = 0.25 * float((dm * dm) @ p_m + (dn * dn) @ p_s - 2.0 * (dm @ row_dn))
    p_mean = float(np.sqrt(k) @ row_isq)
    p_var = float(k @ row_inv) - p_mean * p_mean

    # E pairs |m, n> with |m+1, n-1>, which lies M entries further on in
    # the row-major grid.  The offset product also pairs each row's n = 0
    # entry with its n = M entry, which E does not; E instead wraps
    # |0, N> onto |N, 0>.
    flat = a.ravel()
    e_mean = complex(np.vdot(flat[:flat.size - M], flat[M:])
                     - np.vdot(a[:, 0], a[:, M]) + np.vdot(a[:, 0], a[0, :]))
    e_var = min(max(1.0 - abs(e_mean) ** 2, 0.0), 1.0)
    return (mean_p + mean_s, e_mean, e_var, 0.5 * (mean_p - mean_s),
            max(l_var, 0.0), max(p_var, 0.0))


def analyze(state, nbar: float | None = None) -> MomentReport:
    """Moment report for a Fock-grid state or a bare phase state.

    Fock states carry their own photon number.  Their moments come from
    one real probability grid |a|^2 (N and L from its marginals and the
    centred N_p-N_s covariance, P from sqrt(m) and 1/sqrt(n+1) weighted
    sums) and one offset inner product over the amplitudes for <E>, with
    the vacuum wrap |0, N> -> |N, 0> included; the cost is a few passes
    over the grid and one extra real grid of memory.  Phase states need
    the external ``nbar`` (the layer a later embedding would use), which
    must be finite and positive.
    """
    if isinstance(state, fock.TwoModeFockState):
        return _make_report(*_grid_moments(state.amplitudes))

    if isinstance(state, phase_space.PhaseWaveFunction):
        if nbar is None:
            raise InvalidParameterError(
                "phase states need an external mean photon number nbar"
            )
        nbar = float(nbar)
        if not (math.isfinite(nbar) and nbar > 0.0):
            raise InvalidParameterError(f"nbar must be finite and positive, got {nbar}")
        mom = phase_space.circular_moments(state)
        p_var = 4.0 * mom.l_var / nbar ** 2
        return _make_report(nbar, mom.e_mean, mom.e_var, mom.l_mean,
                            mom.l_var, p_var)

    raise InvalidParameterError(f"cannot analyze object of type {type(state).__name__}")


# ---------------------------------------------------------------------------
# state families for sweeps

def coherent_family(tail_tol: float = fock.DEFAULT_TAIL_TOL) -> StateFamily:
    """Balanced two-mode coherent states, |alpha_p| = |alpha_s| = sqrt(nbar/2)."""
    def build(nbar: float) -> MomentReport:
        a = np.sqrt(nbar / 2.0)
        return analyze(fock.coherent_state(a, a, tail_tol=tail_tol))
    return StateFamily("coherent", {}, build)


def squeezed_family(s: float, dphi: float = 0.0,
                    tail_tol: float = fock.DEFAULT_TAIL_TOL) -> StateFamily:
    """Displaced squeezed states at the balanced operating point."""
    def build(nbar: float) -> MomentReport:
        return analyze(fock.squeezed_for_mean_photons(nbar, s, dphi,
                                                      tail_tol=tail_tol))
    return StateFamily("squeezed", {"s": s, "dphi": dphi}, build)


def _layer_number(nbar: float) -> int:
    N = int(nbar)
    if N != nbar or N < 2 or N % 2 != 0:
        raise InvalidParameterError(
            f"embedded phase families need even integer photon numbers, got {nbar}"
        )
    return N


def mathieu_family(q: float, tail_tol: float = fock.DEFAULT_TAIL_TOL) -> StateFamily:
    """Fundamental Mathieu beam of fixed q embedded on the nbar layer."""
    psi = phase_space.from_mathieu(solve_even_mathieu(q, 0))
    def build(nbar: float) -> MomentReport:
        return analyze(fock.embed_phase_state(psi, _layer_number(nbar), tail_tol))
    return StateFamily("mathieu", {"q": q}, build)


def von_mises_family(kappa: float, phi0: float = 0.0,
                     tail_tol: float = fock.DEFAULT_TAIL_TOL) -> StateFamily:
    """Von Mises phase state of fixed kappa embedded on the nbar layer."""
    psi = phase_space.from_von_mises(kappa, phi0)
    def build(nbar: float) -> MomentReport:
        return analyze(fock.embed_phase_state(psi, _layer_number(nbar), tail_tol))
    return StateFamily("von_mises", {"kappa": kappa, "phi0": phi0}, build)


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
    log axes; they are dropped and reported in ``excluded``.
    """
    points = [(float(n), float(v)) for n, v in points]
    good = [(n, v) for n, v in points if v > 0.0 and math.isfinite(v)]
    excluded = tuple(n for n, v in points if not (v > 0.0 and math.isfinite(v)))
    if len(good) < 2:
        raise InvalidParameterError(
            f"power-law fit needs >= 2 usable points, got {len(good)}"
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
    return {
        "n_mean": report.n_mean,
        "e_mean_re": report.e_mean.real,
        "e_mean_im": report.e_mean.imag,
        "e_var": report.e_var,
        "l_mean": report.l_mean,
        "l_var": report.l_var,
        "p_var": report.p_var,
        "product": report.product,
        "bound": report.bound,
        "saturation_ratio": report.saturation_ratio,
        "pol_squeezed": report.pol_squeezed,
    }


def report_from_dict(d: dict) -> MomentReport:
    return MomentReport(
        n_mean=float(d["n_mean"]),
        e_mean=complex(float(d["e_mean_re"]), float(d["e_mean_im"])),
        e_var=float(d["e_var"]),
        l_mean=float(d["l_mean"]),
        l_var=float(d["l_var"]),
        p_var=float(d["p_var"]),
        product=float(d["product"]),
        bound=float(d["bound"]),
        saturation_ratio=float(d["saturation_ratio"]),
        pol_squeezed=bool(d["pol_squeezed"]),
    )


# ---------------------------------------------------------------------------
# propagation to the ellipsometric function

def rho_uncertainty(report: MomentReport) -> RhoUncertainty:
    """Delta-method noise bars on rho from the phase and modulus channels.

    sigma_delta = sqrt(-2 ln |<E>|) (circular standard deviation),
    sigma_tanpsi_rel = sqrt(Var P), combined in quadrature.  The relative
    bars do not depend on the classical operating point (psi, Delta).
    """
    mag = abs(report.e_mean)
    if mag <= 0.0:
        raise InvalidParameterError(
            "rho uncertainty undefined for states with <E> = 0"
        )
    sigma_delta = math.sqrt(max(-2.0 * math.log(mag), 0.0))
    sigma_tanpsi = math.sqrt(max(report.p_var, 0.0))
    return RhoUncertainty(
        sigma_delta,
        sigma_tanpsi,
        math.hypot(sigma_delta, sigma_tanpsi),
        large_noise=report.e_var >= 0.5,
    )

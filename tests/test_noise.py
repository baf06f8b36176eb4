"""Uncertainty reports, scaling fits, and noise propagation to rho."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qellip import (
    InvalidParameterError,
    TwoModeFockState,
    analyze,
    build_L_operator,
    build_N_operator,
    coherent_state,
    coherent_family,
    embed_phase_state,
    expectation,
    from_mathieu,
    from_von_mises,
    mathieu_family,
    modulus_operator,
    phase_operator,
    phase_state,
    rho_uncertainty,
    scaling_sweep,
    solve_even_mathieu,
    squeezed_family,
    squeezed_for_mean_photons,
    variance_hermitian,
    von_mises_family,
)
from qellip.noise import (
    family_reports,
    fit_power_law,
    report_from_dict,
    report_to_dict,
    target_value,
)
from oracles import layer_modulus_variance


class TestAnalyze:
    def test_coherent_not_polarization_squeezed(self):
        a = np.sqrt(50.0)
        report = analyze(coherent_state(a, a))
        assert not report.pol_squeezed
        assert report.l_var == pytest.approx(25.0, abs=1e-6)
        assert report.saturation_ratio >= 1.0

    def test_squeezed_is_polarization_squeezed(self):
        report = analyze(squeezed_for_mean_photons(10.0, 1.0, 0.0))
        assert report.pol_squeezed

    def test_mathieu_criterion_flips_with_nbar(self):
        psi = from_mathieu(solve_even_mathieu(16.0, 0))
        assert analyze(psi, nbar=100.0).pol_squeezed
        assert not analyze(psi, nbar=3.0).pol_squeezed

    def test_phase_state_requires_nbar(self):
        with pytest.raises(InvalidParameterError):
            analyze(from_von_mises(1.0))

    @pytest.mark.parametrize("nbar", [math.nan, math.inf])
    def test_phase_state_rejects_non_finite_nbar(self, nbar):
        with pytest.raises(InvalidParameterError, match="finite"):
            analyze(from_von_mises(1.0), nbar=nbar)

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), cutoff=st.integers(1, 12),
           density=st.floats(0.02, 1.0))
    def test_grid_moments_match_operator_objects(self, seed, cutoff, density):
        # random grids with mass on row 0 and column 0, so the vacuum wrap
        # term of E and the row ends of the offset product both count
        rng = np.random.default_rng(seed)
        shape = (cutoff + 1, cutoff + 1)
        mask = rng.random(shape) < density
        mask[0, rng.integers(cutoff + 1)] = mask[rng.integers(cutoff + 1), 0] = True
        amps = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * mask
        states = [TwoModeFockState(cutoff, amps / np.linalg.norm(amps), 0.0)]
        # random boxes at offsets with both, one and neither index at zero:
        # the vacuum wrap applies only to the first, and the offset product
        # runs over box edges that are not the grid's
        def corner():
            return int(rng.integers(1, cutoff + 1))
        for m0, n0 in ((0, 0), (0, corner()), (corner(), 0), (corner(), corner())):
            box = (int(rng.integers(1, cutoff + 2 - m0)), int(rng.integers(1, cutoff + 2 - n0)))
            block = rng.normal(size=box) + 1j * rng.normal(size=box)
            states.append(TwoModeFockState(cutoff, block / np.linalg.norm(block), 0.0,
                                           (m0, n0)))
        L, P = build_L_operator(cutoff), modulus_operator(cutoff)

        def centred_variance(state, op):
            # ||(A - <A>) psi||^2 keeps its digits where <A^2> - <A>^2
            # (variance_hermitian) cancels: a one-entry box has variance 0
            amps = state.amplitudes
            dev = op.apply(amps) - expectation(state, op).real * amps
            return np.vdot(dev, dev).real

        for state in states:
            report = analyze(state)
            assert report.n_mean == pytest.approx(
                expectation(state, build_N_operator(cutoff)).real, rel=1e-12, abs=1e-15)
            assert report.l_mean == pytest.approx(expectation(state, L).real, abs=1e-12)
            assert report.l_var == pytest.approx(
                centred_variance(state, L), rel=1e-12, abs=1e-15)
            e_ref = expectation(state, phase_operator(cutoff))
            assert abs(report.e_mean - e_ref) <= 1e-12 * abs(e_ref) + 1e-15
            assert report.p_var == pytest.approx(
                centred_variance(state, P), rel=1e-9, abs=1e-15)
        report = analyze(states[0])
        assert report.l_var == pytest.approx(
            variance_hermitian(states[0], L), rel=1e-12, abs=1e-15)
        assert report.p_var == pytest.approx(
            variance_hermitian(states[0], P), rel=1e-9, abs=1e-15)

    @pytest.mark.parametrize("N", [1000, 6000])
    def test_small_modulus_variance_keeps_its_digits(self, N):
        # q = 1e-3 puts Var P near 5e-13 (N=1000) and 1.4e-14 (N=6000),
        # where <P^2> - <P>^2 keeps only the first few digits
        psi = from_mathieu(solve_even_mathieu(1e-3, 0))
        ref = layer_modulus_variance(psi.l_values, psi.amplitudes, N)
        assert analyze(embed_phase_state(psi, N)).p_var == pytest.approx(ref, rel=1e-9)

    def test_rejects_unknown_objects(self):
        with pytest.raises(InvalidParameterError):
            analyze(np.zeros(3))

    def test_degenerate_bound_gives_infinite_ratio(self):
        report = analyze(phase_state({2: 1.0}), nbar=10.0)
        assert report.bound == 0.0
        assert math.isinf(report.saturation_ratio)

    def test_report_roundtrip(self):
        report = analyze(squeezed_for_mean_photons(10.0, 0.5, 0.3))
        assert report_from_dict(report_to_dict(report)) == report


class TestScalingSweeps:
    def test_coherent_shot_noise_slope(self):
        fit = scaling_sweep(coherent_family(), [25, 50, 100, 200, 400], "e_var")
        assert fit.slope == pytest.approx(-1.0, abs=0.05)
        assert fit.r_squared > 0.99

    def test_mathieu_heisenberg_modulus_slope(self):
        fit = scaling_sweep(mathieu_family(1.0), [40, 80, 160, 320], "p_var")
        assert fit.slope == pytest.approx(-2.0, abs=0.05)
        assert fit.r_squared > 0.99

    def test_mathieu_flat_difference_noise(self):
        fit = scaling_sweep(mathieu_family(1.0), [40, 80, 160, 320], "l_var")
        assert fit.slope == pytest.approx(0.0, abs=0.02)

    def test_von_mises_family_matches_mathieu_scaling(self):
        fit = scaling_sweep(von_mises_family(1.0), [40, 80, 160, 320], "p_var")
        assert fit.slope == pytest.approx(-2.0, abs=0.05)

    def test_needs_four_increasing_points(self):
        with pytest.raises(InvalidParameterError):
            scaling_sweep(coherent_family(), [10, 20, 30], "e_var")
        with pytest.raises(InvalidParameterError):
            scaling_sweep(coherent_family(), [10, 20, 20, 30], "e_var")
        with pytest.raises(InvalidParameterError):
            scaling_sweep(coherent_family(), [], "e_var")

    def test_unknown_target(self):
        with pytest.raises(InvalidParameterError):
            scaling_sweep(coherent_family(), [10, 20, 40, 80], "n_var")

    def test_degenerate_points_excluded(self):
        # kappa = 0 keeps l_var identically zero: unusable on log axes
        fit = fit_power_law([(10.0, 0.0), (20.0, 1e-3), (40.0, 2e-3),
                             (80.0, math.inf)])
        assert fit.excluded == (10.0, 80.0)
        assert len(fit.points) == 2

    def test_all_degenerate_raises(self):
        with pytest.raises(InvalidParameterError):
            fit_power_law([(10.0, 0.0), (20.0, 0.0), (40.0, 1.0)])

    def test_reports_sorted_by_nbar(self):
        reports = family_reports(coherent_family(), [100, 25, 50])
        assert [n for n, _ in reports] == [25.0, 50.0, 100.0]

    def test_squeezed_family_beats_shot_noise_at_fixed_s(self):
        reports = family_reports(squeezed_family(1.0, 0.0), [10, 20, 40, 80])
        for nbar, r in reports:
            assert r.l_var <= nbar / 4.0 * np.exp(-2.0) + 1e-9


class TestSaturation:
    def test_coherent_ratio_monotone_to_one(self):
        ratios = [analyze(coherent_state(np.sqrt(n / 2.0),
                                         np.sqrt(n / 2.0))).saturation_ratio
                  for n in (10.0, 50.0, 100.0, 400.0)]
        assert all(r >= 1.0 - 1e-9 for r in ratios)
        assert ratios == sorted(ratios, reverse=True)

    def test_mathieu_ratio_limits(self):
        large = analyze(from_mathieu(solve_even_mathieu(100.0, 0)), nbar=200.0)
        assert large.saturation_ratio == pytest.approx(1.0, abs=0.1)
        # small-q limit of this construction approaches 2, not 1
        small = analyze(from_mathieu(solve_even_mathieu(1e-3, 0)), nbar=200.0)
        assert small.saturation_ratio == pytest.approx(2.0, abs=0.01)

    def test_randomized_states_never_violate_bound(self):
        rng = np.random.default_rng(42)
        checked = 0
        for _ in range(120):
            width = int(rng.integers(1, 12))
            l0 = int(rng.integers(-6, 6))
            amps = rng.normal(size=width) + 1j * rng.normal(size=width)
            psi = phase_state({l0 + i: a for i, a in enumerate(amps)})
            report = analyze(psi, nbar=float(rng.uniform(1.0, 300.0)))
            if report.bound > 0.0:
                assert report.saturation_ratio >= 1.0 - 1e-9
                checked += 1
        assert checked >= 80


class TestRhoUncertainty:
    def test_noiseless_limit(self):
        from qellip.noise import MomentReport
        report = MomentReport(n_mean=100.0, e_mean=1.0 + 0.0j, e_var=0.0,
                              l_mean=0.0, l_var=0.0, p_var=0.0, product=0.0,
                              bound=0.25, saturation_ratio=1.0,
                              pol_squeezed=True)
        bars = rho_uncertainty(report)
        assert bars.sigma_delta == 0.0
        assert bars.sigma_tanpsi_rel == 0.0
        assert bars.sigma_rho_rel == 0.0
        assert not bars.large_noise

    def test_bars_shrink_toward_noiseless_limit(self):
        sizes = [rho_uncertainty(analyze(from_von_mises(kappa), nbar=1e6))
                 .sigma_rho_rel for kappa in (10.0, 100.0, 1000.0)]
        assert sizes == sorted(sizes, reverse=True)
        assert sizes[-1] < 0.05

    def test_coherent_both_channels_contribute(self):
        a = np.sqrt(50.0)
        bars = rho_uncertainty(analyze(coherent_state(a, a)))
        assert bars.sigma_rho_rel == pytest.approx(np.sqrt(2.0) / 10.0, rel=0.1)
        assert bars.sigma_delta == pytest.approx(0.1, rel=0.1)

    def test_mathieu_modulus_channel_heisenberg_ratio(self):
        psi = from_mathieu(solve_even_mathieu(1.0, 0))
        bars = {N: rho_uncertainty(analyze(embed_phase_state(psi, N)))
                for N in (100, 400)}
        ratio = bars[400].sigma_tanpsi_rel / bars[100].sigma_tanpsi_rel
        assert ratio == pytest.approx(0.25, rel=0.05)
        assert bars[400].sigma_delta == pytest.approx(bars[100].sigma_delta,
                                                      rel=1e-3)

    def test_large_noise_flagged(self):
        report = analyze(squeezed_for_mean_photons(10.0, 1.0, 0.0))
        assert report.e_var > 0.5
        assert rho_uncertainty(report).large_noise

    def test_degenerate_phase_channel_rejected(self):
        report = analyze(phase_state({0: 1.0}), nbar=10.0)
        with pytest.raises(InvalidParameterError):
            rho_uncertainty(report)
        assert math.isinf(target_value(report, "rho_var"))

"""Uncertainty reports, scaling fits, and noise propagation to rho."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qellip
from qellip import (
    DimensionMismatchError,
    InvalidParameterError,
    Layer,
    LayerStack,
    StateFamily,
    TwoModeFockState,
    analyze,
    circular_moments,
    coherent_state,
    coherent_family,
    embed_phase_state,
    from_mathieu,
    from_von_mises,
    mathieu_family,
    parse_stack_text,
    phase_state,
    rho_uncertainty,
    scaling_sweep,
    shift,
    solve_even_mathieu,
    squeezed_family,
    squeezed_for_mean_photons,
    stack_reflection,
    von_mises_family,
)
from qellip.noise import (
    FAMILIES,
    MomentReport,
    fit_power_law,
    report_from_dict,
    report_to_dict,
    target_value,
)
from qellip.phase_space import PhaseWaveFunction
from oracles import circular_variance, dense_moments, layer_modulus_variance


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

    @pytest.mark.parametrize("nbar", [1e308, 2e154, 1e-160, 5e-324])
    def test_phase_state_p_var_past_the_range_of_nbar_squared(self, nbar):
        # nbar^2 overflows or underflows to 0 here; Var L = 0 keeps p_var 0
        report = analyze(from_mathieu(solve_even_mathieu(0.0, 0)), nbar=nbar)
        assert report.l_var == 0.0
        assert report.p_var == 0.0

    def test_phase_state_p_var_divides_by_nbar_twice_past_overflow(self):
        psi = from_von_mises(4.0)
        l_var = analyze(psi, nbar=100.0).l_var
        assert analyze(psi, nbar=1e200).p_var == 4.0 * l_var / 1e200 / 1e200
        # inside the range the p_var of today stands, to the bit
        for nbar in (0.7, 100.0, 3.3e17):
            assert analyze(psi, nbar=nbar).p_var == 4.0 * l_var / nbar ** 2

    @pytest.mark.parametrize("nbar", [5e-324, 1e-160, 1e-155])
    def test_phase_state_p_var_overflow_is_refused(self, nbar):
        with pytest.raises(InvalidParameterError, match="too small"):
            analyze(from_von_mises(4.0), nbar=nbar)

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), cutoff=st.integers(1, 12),
           density=st.floats(0.02, 1.0))
    def test_grid_moments_match_operator_objects(self, seed, cutoff, density):
        # random grids with mass on row 0 and column 0, so the vacuum wrap
        # term of E counts
        rng = np.random.default_rng(seed)
        shape = (cutoff + 1, cutoff + 1)
        mask = rng.random(shape) < density
        mask[0, rng.integers(cutoff + 1)] = mask[rng.integers(cutoff + 1), 0] = True
        amps = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * mask
        ones, eye = np.ones(cutoff + 1), np.eye(cutoff + 1)
        states = [TwoModeFockState(amps / np.linalg.norm(amps), ones, eye, 0.0)]
        # random boxes at offsets with both, one and neither index at zero,
        # as dense grids: the vacuum wrap meets only the first
        def corner():
            return int(rng.integers(1, cutoff + 1))
        for m0, n0 in ((0, 0), (0, corner()), (corner(), 0), (corner(), corner())):
            box = (int(rng.integers(1, cutoff + 2 - m0)), int(rng.integers(1, cutoff + 2 - n0)))
            grid = np.zeros(shape, dtype=complex)
            grid[m0:m0 + box[0], n0:n0 + box[1]] = rng.normal(size=box) + 1j * rng.normal(size=box)
            states.append(TwoModeFockState(grid / np.linalg.norm(grid), ones, eye, 0.0))
        # random rank-K factors, real and complex, shared and not
        for k in (1, 3):
            d_p = rng.normal(size=(cutoff + 1, k))
            c = rng.normal(size=k) + 1j * rng.normal(size=k)
            for d_s in (d_p, rng.normal(size=(cutoff + 1, k)) + 1j * rng.normal(size=(cutoff + 1, k))):
                norm = np.linalg.norm((d_p * c) @ d_s.T)
                states.append(TwoModeFockState(d_p, c / norm, d_s, 0.0))
        # random windows on an even layer N <= 12; a window that spans the
        # layer puts the wrap |0, N> -> |N, 0> into <E>
        for spans in (True, False):
            N = 2 * int(rng.integers(1, 7))
            l_lo = -N // 2 if spans else int(rng.integers(-N // 2, N // 2 + 1))
            width = N + 1 if spans else int(rng.integers(1, N // 2 - l_lo + 2))
            window = rng.normal(size=width) + 1j * rng.normal(size=width)
            states.append(embed_phase_state(
                PhaseWaveFunction(l_lo, window / np.linalg.norm(window)), N))
        for state in states:
            report = analyze(state)
            ref = dense_moments(state)
            assert report.n_mean == pytest.approx(ref.n_mean, rel=1e-12, abs=1e-15)
            assert report.l_mean == pytest.approx(ref.l_mean, abs=1e-12)
            assert report.l_var == pytest.approx(ref.l_var, rel=1e-12, abs=1e-15)
            assert abs(report.e_mean - ref.e_mean) <= 1e-12 * abs(ref.e_mean) + 1e-15
            assert report.p_var == pytest.approx(ref.p_var, rel=1e-9, abs=1e-15)

    @pytest.mark.parametrize("s, nbar", [(1.0, 1000.0), (2.0, 30.0), (2.0, 400.0)])
    def test_pair_correlated_moments_match_the_grid(self, s, nbar):
        # the separable Gram sums for Var L and Var P cancel the spread of
        # N_p and N_s, some 3000 times Var L at s = 2, nbar 400: they keep
        # 3e-12 there, against rounding on the dense grid
        state = squeezed_for_mean_photons(nbar, s)
        report, ref = analyze(state), dense_moments(state)
        assert report.n_mean == pytest.approx(ref.n_mean, rel=1e-13)
        assert report.l_var == pytest.approx(ref.l_var, rel=3e-12)
        assert report.p_var == pytest.approx(ref.p_var, rel=3e-12)
        assert abs(report.e_mean - ref.e_mean) < 1e-13
        closed = 0.5 * (nbar / 2.0 - np.sinh(s) ** 2) * np.exp(-2.0 * s)
        assert ref.l_var == pytest.approx(closed, rel=1e-13)

    @pytest.mark.parametrize("N", [1000, 6000])
    def test_small_modulus_variance_keeps_its_digits(self, N):
        # q = 1e-3 puts Var P near 5e-13 (N=1000) and 1.4e-14 (N=6000),
        # where <P^2> - <P>^2 keeps only the first few digits
        psi = from_mathieu(solve_even_mathieu(1e-3, 0))
        ref = layer_modulus_variance(psi.l_values, psi.amplitudes, N)
        assert analyze(embed_phase_state(psi, N)).p_var == pytest.approx(ref, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("N", [10 ** 3, 10 ** 5, 10 ** 7, 10 ** 12, 10 ** 20, 10 ** 100])
    def test_mathieu_layer_modulus_variance_at_scale(self, N):
        # neighbouring P differ by about 2/N: a pass over float P loses
        # log10(N) digits and reads 0 past N of about 2^54, where the true
        # Var P, about 4 Var L / N^2, is still a float (4e-201 at 1e100)
        psi = from_mathieu(solve_even_mathieu(1.0, 0))
        ref = layer_modulus_variance(psi.l_values, psi.amplitudes, N)
        assert ref > 0.0
        assert analyze(embed_phase_state(psi, N)).p_var == pytest.approx(ref, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("edge", ["low", "high", "one-at-low"])
    def test_window_at_the_layer_edge(self, edge):
        # P runs from 0 at l = -N/2 to sqrt(N + 1) at l = N/2; a lone
        # component at l = -N/2 has P = 0 and Var P = 0
        N = 10 ** 12
        psi = from_von_mises(4.0)
        last = psi.l_min + len(psi.amplitudes) - 1
        psi = {"low": shift(psi, -N // 2 - psi.l_min), "high": shift(psi, N // 2 - last),
               "one-at-low": PhaseWaveFunction(-N // 2, np.array([1.0 + 0j]))}[edge]
        state = embed_phase_state(psi, N)
        ref = layer_modulus_variance(state.psi.l_values, state.psi.amplitudes, N)
        assert analyze(state).p_var == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_von_mises_layer_cost_follows_the_window(self):
        # about 7400 components on the layer of 2e6 photons, whose dense
        # grid would take 64 TB
        psi = from_von_mises(1e6)
        tracemalloc.start()
        try:
            report = analyze(embed_phase_state(psi, 2 * 10 ** 6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        ref = layer_modulus_variance(psi.l_values, psi.amplitudes, 2 * 10 ** 6)
        assert report.p_var == pytest.approx(ref, rel=1e-9, abs=0.0)

    def test_wrapped_layer_circular_variance_is_exact(self):
        # windows spanning the layer, so E's wrap pairs the last component
        # with the first
        rng = np.random.default_rng(11)
        for N in (2, 6, 12):
            window = rng.normal(size=N + 1) + 1j * rng.normal(size=N + 1)
            psi = PhaseWaveFunction(-N // 2, window / np.linalg.norm(window))
            state = embed_phase_state(psi, N)
            ref = circular_variance(state.psi.amplitudes, closed=True)
            assert analyze(state).e_var == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_rejects_unknown_objects(self):
        with pytest.raises(InvalidParameterError):
            analyze(np.zeros(3))

    def test_degenerate_bound_gives_infinite_ratio(self):
        report = analyze(phase_state({2: 1.0}), nbar=10.0)
        assert report.bound == 0.0
        assert math.isinf(report.saturation_ratio)
        assert report_to_dict(report)["saturation_ratio"] is None
        assert report_from_dict(report_to_dict(report)) == report

    def test_report_roundtrip(self):
        report = analyze(squeezed_for_mean_photons(10.0, 0.5, 0.3))
        assert report_from_dict(report_to_dict(report)) == report


class TestScalingSweeps:
    def test_coherent_shot_noise_slope(self):
        fit = scaling_sweep(coherent_family(), [25, 50, 100, 200, 400], ["e_var"])[1]["e_var"]
        assert fit.slope == pytest.approx(-1.0, abs=0.05)
        assert fit.r_squared > 0.99

    def test_mathieu_heisenberg_modulus_slope(self):
        fit = scaling_sweep(mathieu_family(1.0), [40, 80, 160, 320], ["p_var"])[1]["p_var"]
        assert fit.slope == pytest.approx(-2.0, abs=0.05)
        assert fit.r_squared > 0.99

    def test_mathieu_flat_difference_noise(self):
        fit = scaling_sweep(mathieu_family(1.0), [40, 80, 160, 320], ["l_var"])[1]["l_var"]
        assert fit.slope == pytest.approx(0.0, abs=0.02)

    def test_von_mises_family_matches_mathieu_scaling(self):
        fit = scaling_sweep(von_mises_family(1.0), [40, 80, 160, 320], ["p_var"])[1]["p_var"]
        assert fit.slope == pytest.approx(-2.0, abs=0.05)

    def test_three_and_repeated_points_run(self):
        # the CLI's contract: sorted, repeats allowed, not empty, and
        # usable points at two distinct photon numbers per fit
        family = coherent_family()
        fit = scaling_sweep(family, [400, 100, 200], ["e_var"])[1]["e_var"]
        assert fit.slope == pytest.approx(-1.0, abs=0.05)
        reports, fits = scaling_sweep(family, [20, 10, 20], ["e_var", "l_var"])
        assert [n for n, _ in reports] == [10.0, 20.0, 20.0]
        assert reports[1][1] == reports[2][1]
        assert fits["l_var"].slope == pytest.approx(1.0, abs=1e-6)
        with pytest.raises(InvalidParameterError, match="power-law fit needs >= 2"):
            scaling_sweep(family, [10, 10], ["e_var"])
        with pytest.raises(InvalidParameterError, match="empty nbar list"):
            scaling_sweep(family, [], ["e_var"])

    def test_unknown_target(self):
        # checked before any state is built
        built = []
        family = StateFamily(lambda n: built.append(n))
        with pytest.raises(InvalidParameterError, match="unknown sweep target 'n_var'"):
            scaling_sweep(family, [10, 20, 40, 80], ["e_var", "n_var"])
        assert built == []

    def test_degenerate_points_excluded(self):
        # kappa = 0 keeps l_var identically zero: unusable on log axes
        fit = fit_power_law([(10.0, 0.0), (20.0, 1e-3), (40.0, 2e-3),
                             (80.0, math.inf)])
        assert fit.excluded == (10.0, 80.0)
        assert len(fit.points) == 2

    def test_all_degenerate_raises(self):
        with pytest.raises(InvalidParameterError):
            fit_power_law([(10.0, 0.0), (20.0, 0.0), (40.0, 1.0)])

    @pytest.mark.parametrize("points", [
        [(0.5, 0.125), (1e-300, 0.0), (0.5, 0.125), (1e-320, 0.0)],
        [(2.0, 1.0), (2.0, 3.0)],
    ])
    def test_one_photon_number_raises(self, points):
        # two usable points at one photon number leave the slope undefined
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameterError,
                               match="power-law fit needs >= 2 usable points"):
                fit_power_law(points)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_photon_number_refused_before_sorting(self, bad):
        built = []
        family = StateFamily(lambda n: built.append(n))
        with pytest.raises(InvalidParameterError, match=f"nbar must be finite, got {bad}"):
            scaling_sweep(family, [40, bad, 20], ["e_var"])
        assert built == []

    def test_reports_sorted_by_nbar(self):
        reports, _ = scaling_sweep(coherent_family(), [100, 25, 50], [])
        assert [n for n, _ in reports] == [25.0, 50.0, 100.0]

    def test_squeezed_family_beats_shot_noise_at_fixed_s(self):
        reports, _ = scaling_sweep(squeezed_family(1.0, 0.0), [10, 20, 40, 80], [])
        for nbar, r in reports:
            assert r.l_var <= nbar / 4.0 * np.exp(-2.0) + 1e-9


class TestFamilyRegistry:
    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_constructors_build_their_family(self, name):
        build, params = FAMILIES[name]
        required = {p.name: 1.0 for p in params if p.required}
        family = build(**required)
        # the phase families carry their bare phase state; the Fock ones none
        assert (family.phase is not None) == (name in ("mathieu", "von_mises"))
        assert family.build_report(40.0).n_mean == pytest.approx(40.0, rel=1e-9)

    def test_mathieu_order_selects_the_eigenfunction(self):
        for order in (0, 2):
            expected = from_mathieu(solve_even_mathieu(1.0, order))
            got = mathieu_family(1.0, order=order).phase
            assert np.array_equal(got.amplitudes, expected.amplitudes)

    @pytest.mark.parametrize("nbar", [-5.0, math.inf, math.nan])
    def test_coherent_family_names_a_bad_nbar(self, nbar):
        # not "alpha_p must be finite" after a numpy warning from sqrt(nbar)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameterError, match="^nbar must be finite and >= 0"):
                coherent_family().build_report(nbar)

    @pytest.mark.parametrize("nbar", [math.inf, math.nan])
    def test_phase_family_needs_an_even_whole_layer(self, nbar):
        with pytest.raises(InvalidParameterError, match="^layer photon number must be"):
            mathieu_family(1.0).build_report(nbar)

    def test_huge_layer_runs(self):
        # the true Var P, about 4 Var L / N^2 = 4e-401, is under the
        # smallest float and rounds to 0
        report = mathieu_family(1.0).build_report(1e200)
        assert report.n_mean == 1e200
        assert report.p_var == 0.0
        assert all(math.isfinite(getattr(report, f)) for f in
                   ("e_var", "l_mean", "l_var", "product", "bound", "saturation_ratio"))


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
        bars = rho_uncertainty(report)
        assert bars.large_noise
        # past the boundary 1 - e_var loses digits, so |<E>| sets the bar
        assert bars.sigma_delta ** 2 == pytest.approx(-2.0 * math.log(abs(report.e_mean)),
                                                      rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("kappa", [1e6, 1e8])
    def test_phase_bar_keeps_the_digits_of_e_var(self, kappa):
        # -2 ln |<E>| from a |<E>| near 1 was 2.6e-10 relative off at kappa 1e6
        report = analyze(from_von_mises(kappa), nbar=1e6)
        bars = rho_uncertainty(report)
        assert not bars.large_noise
        assert bars.sigma_delta ** 2 == pytest.approx(-math.log1p(-report.e_var),
                                                      rel=1e-14, abs=0.0)

    def test_degenerate_phase_channel_rejected(self):
        report = analyze(phase_state({0: 1.0}), nbar=10.0)
        with pytest.raises(InvalidParameterError):
            rho_uncertainty(report)
        assert math.isinf(target_value(report, "rho_var"))


class TestRecordContract:
    """Every public record is an immutable named tuple with fixed fields;
    the three that check themselves do so however they are built."""

    FIELDS = {
        "MomentReport": ("n_mean", "e_mean", "e_var", "l_mean", "l_var", "p_var",
                         "product", "bound", "saturation_ratio", "pol_squeezed"),
        "ScalingFit": ("points", "slope", "intercept", "r_squared", "excluded"),
        "StateFamily": ("build_report", "phase"),
        "RhoUncertainty": ("sigma_delta", "sigma_tanpsi_rel", "sigma_rho_rel",
                           "large_noise"),
        "MathieuSolution": ("order_index", "q", "eigenvalue", "coefficients"),
        "CircularMoments": ("e_mean", "e_var", "l_mean", "l_var"),
        "PhaseWaveFunction": ("l_min", "amplitudes"),
        "TwoModeFockState": ("d_p", "c", "d_s", "tail_mass"),
        "LayerState": ("cutoff", "psi", "tail_mass"),
        "Layer": ("index", "thickness"),
        "LayerStack": ("ambient_index", "layers", "substrate_index", "wavelength",
                       "angle_of_incidence"),
        "EllipsometricResult": ("r_p", "r_s", "rho", "psi_angle", "delta"),
    }
    DEFAULTS = {"ScalingFit": {"excluded": ()}, "StateFamily": {"phase": None}}

    @staticmethod
    def records() -> dict:
        sol = solve_even_mathieu(1.0)
        psi = from_mathieu(sol)
        report = analyze(psi, nbar=100.0)
        stack = parse_stack_text("ambient 1.0\nlayer 1.46 0.0 100.0\n"
                                        "substrate 3.85 0.02\nwavelength 632.8\nangle 70\n")
        return {
            "MomentReport": report,
            "ScalingFit": fit_power_law([(1.0, 1.0), (2.0, 0.5), (4.0, 0.0)]),
            "StateFamily": mathieu_family(1.0),
            "RhoUncertainty": rho_uncertainty(report),
            "MathieuSolution": sol,
            "CircularMoments": circular_moments(psi),
            "PhaseWaveFunction": psi,
            "TwoModeFockState": coherent_state(2.0, 2.0),
            "LayerState": embed_phase_state(psi, 40),
            "Layer": stack.layers[0],
            "LayerStack": stack,
            "EllipsometricResult": stack_reflection(stack),
        }

    def test_fields_order_and_defaults(self):
        for name, record in self.records().items():
            cls = getattr(qellip, name)
            assert type(record) is cls, name
            assert isinstance(record, tuple), name
            assert cls._fields == self.FIELDS[name], name
            assert cls._field_defaults == self.DEFAULTS.get(name, {}), name

    def test_records_refuse_attribute_assignment(self):
        for name, record in self.records().items():
            for field in (*record._fields, "extra"):
                with pytest.raises(AttributeError):
                    setattr(record, field, 0.0)
            assert not hasattr(record, "__dict__"), name

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(numbers=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                            min_size=10, max_size=10),
           infinite_ratio=st.booleans(), pol_squeezed=st.booleans())
    def test_report_dict_roundtrip(self, numbers, infinite_ratio, pol_squeezed):
        n_mean, re, im, e_var, l_mean, l_var, p_var, product, bound, ratio = numbers
        report = MomentReport(n_mean, complex(re, im), e_var, l_mean, l_var, p_var,
                              product, bound, math.inf if infinite_ratio else ratio,
                              pol_squeezed)
        assert report_from_dict(report_to_dict(report)) == report

    @pytest.mark.parametrize("keywords", [False, True], ids=["positional", "keyword"])
    def test_validating_records_check_every_construction(self, keywords):
        def build(cls, *args):
            return cls(**dict(zip(cls._fields, args))) if keywords else cls(*args)

        psi = build(PhaseWaveFunction, np.int64(-1), np.ones(3) / math.sqrt(3.0))
        assert type(psi.l_min) is int and psi.l_min == -1
        for l_min in (1.5, 2 ** 53):
            with pytest.raises(InvalidParameterError):
                build(PhaseWaveFunction, l_min, np.ones(1))
        d = np.ones((3, 1))
        assert build(TwoModeFockState, d, np.ones(1), d, 0.0).cutoff == 2
        with pytest.raises(DimensionMismatchError):
            build(TwoModeFockState, d, np.ones(2), d, 0.0)
        stack = build(LayerStack, 1.0, [Layer(1.5, 10.0)], 1.5, 500.0, 0.3)
        assert stack.layers == (Layer(1.5, 10.0),)
        # films given once, as a generator, are checked and stored whole
        films = (Layer(1.5, d) for d in (10.0, 20.0))
        stack = build(LayerStack, 1.0, films, 1.5, 500.0, 0.3)
        assert stack.layers == (Layer(1.5, 10.0), Layer(1.5, 20.0))
        for bad in ((1.0, [Layer(1.5, -1.0)], 1.5, 500.0, 0.3),
                    (1.0, [], 1.5 - 0.1j, 500.0, 0.3),
                    (1.0, [], 1.5, math.nan, 0.3),
                    (1.0, [], 1.5, 500.0, math.pi / 2.0)):
            with pytest.raises(InvalidParameterError):
                build(LayerStack, *bad)

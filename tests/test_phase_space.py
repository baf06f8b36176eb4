"""Relative-phase states: constructors, moments, densities, covariances."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import iv, ive

from qellip import (
    InvalidParameterError,
    InvalidStateError,
    MathieuSolution,
    PhaseWaveFunction,
    analyze,
    circular_moments,
    density_profile,
    from_mathieu,
    from_von_mises,
    mathieu_variances,
    phase_state,
    rotate,
    shift,
    solve_even_mathieu,
    theta_series,
)
from qellip import mathieu, phase_space
from qellip.phase_space import _trimmed

from oracles import (circular_variance, index_variance, von_mises_circular_mean,
                     von_mises_components)


def random_state(seed: int, width: int = 9) -> PhaseWaveFunction:
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=width) + 1j * rng.normal(size=width)
    amps /= np.linalg.norm(amps)
    return PhaseWaveFunction(int(rng.integers(-5, 5)), amps)


def direct_density(psi: PhaseWaveFunction, grid: int) -> np.ndarray:
    """|(2 pi)^{-1/2} sum_l exp(-i l phi_j) Psi_l|^2 at phi_j = 2 pi j / grid,
    one component at a time, with l j reduced mod grid in integers so the
    angles stay exact."""
    j = np.arange(grid)
    total = np.zeros(grid, dtype=complex)
    for l in range(psi.l_min, psi.l_min + len(psi.amplitudes)):
        total += psi.component(l) * np.exp(-2j * np.pi * ((l * j) % grid) / grid)
    return np.abs(total) ** 2 / (2.0 * np.pi)


class TestFromMathieu:
    def test_q_zero_is_single_component(self):
        psi = from_mathieu(solve_even_mathieu(0.0, 0))
        assert len(psi.amplitudes) == 1
        assert psi.component(0) == pytest.approx(1.0)
        assert psi.component(1) == 0.0

    def test_small_q_perturbative_components(self):
        q = 1e-3
        psi = from_mathieu(solve_even_mathieu(q, 0))
        assert psi.component(1).real == pytest.approx(-q / 4.0, rel=1e-4)
        assert psi.component(-1) == psi.component(1)
        assert abs(psi.component(0)) == pytest.approx(1.0, abs=1e-6)

    def test_mean_l_translates_profile(self):
        sol = solve_even_mathieu(1.0, 0)
        base = from_mathieu(sol)
        moved = shift(base, 5)
        assert np.allclose(np.abs(moved.amplitudes), np.abs(base.amplitudes))
        m0, m5 = circular_moments(base), circular_moments(moved)
        assert m5.l_mean == pytest.approx(m0.l_mean + 5.0, abs=1e-12)
        assert m5.l_mean == pytest.approx(5.0, abs=1e-12)
        assert m5.e_mean == pytest.approx(m0.e_mean, abs=1e-14)

    def test_unit_norm(self):
        for q in (0.01, 1.0, 100.0):
            psi = from_mathieu(solve_even_mathieu(q, 0))
            assert abs(psi.norm_sq() - 1.0) < 1e-12

    def test_non_integer_mean_l_rejected(self):
        with pytest.raises(InvalidParameterError):
            shift(from_mathieu(solve_even_mathieu(1.0, 0)), 0.5)

    @pytest.mark.parametrize("q", [0.1, 10.0, 1e4])
    def test_matches_component_loop(self, q):
        sol = solve_even_mathieu(q, 0)
        A = sol.coefficients
        components = {0: np.sqrt(2.0) * A[0]}
        for j in range(1, len(A)):
            components[j] = components[-j] = A[j] / np.sqrt(2.0)
        ls = sorted(components)
        ref = _trimmed(ls[0], np.array([components[l] for l in ls], dtype=complex))
        psi = from_mathieu(sol)
        assert psi.l_min == ref.l_min
        np.testing.assert_array_equal(psi.amplitudes, ref.amplitudes)

    def test_support_window_keeps_turning_point_window_state(self):
        # the window sized from q^(1/4) holds every component the earlier
        # window, sized from 2 sqrt(q), kept
        for q in np.logspace(-3, 8, 45):
            psi = from_mathieu(solve_even_mathieu(q, 0))
            J = max(32, math.ceil(2.0 * math.sqrt(q)) + 24)
            a, coeffs = mathieu._solve(q, 0, J, odd=False)
            coeffs[0] /= np.sqrt(2.0)
            ref = from_mathieu(MathieuSolution(0, q, a, coeffs if coeffs[0] >= 0.0 else -coeffs))
            assert psi.l_min == ref.l_min, q
            assert len(psi.amplitudes) == len(ref.amplitudes), q
            assert np.max(np.abs(psi.amplitudes - ref.amplitudes)) < 1e-13, q


class TestFromVonMises:
    def test_kappa_zero_uniform(self):
        psi = from_von_mises(0.0)
        assert len(psi.amplitudes) == 1
        m = circular_moments(psi)
        assert m.e_var == 1.0
        assert m.l_var == 0.0

    @pytest.mark.parametrize("phi0", [0.0, 1.3, -2.0])
    def test_kappa_zero_is_the_l0_component(self, phi0):
        # kappa = 0 samples a constant, whose transform is Psi_0 alone
        psi = from_von_mises(0.0, phi0)
        assert psi.l_min == 0
        assert psi.amplitudes.tolist() == [1 + 0j]

    def test_bessel_ratio_identity(self):
        m = circular_moments(from_von_mises(2.0, 0.0))
        assert m.e_mean.real == pytest.approx(-iv(1, 2.0) / iv(0, 2.0), abs=1e-12)
        assert abs(m.e_mean.imag) < 1e-12

    def test_quadrature_cross_check(self):
        for kappa, phi0 in [(0.5, 0.0), (2.0, 1.1), (30.0, -0.4)]:
            m = circular_moments(from_von_mises(kappa, phi0))
            assert m.e_mean == pytest.approx(
                von_mises_circular_mean(kappa, phi0), abs=1e-10)

    def test_rotation_by_pi_flips_sign(self):
        m0 = circular_moments(from_von_mises(2.0, 0.0))
        mpi = circular_moments(from_von_mises(2.0, np.pi))
        assert mpi.e_mean.real == pytest.approx(-m0.e_mean.real, abs=1e-12)

    def test_component_magnitudes(self):
        kappa = 3.0
        psi = from_von_mises(kappa)
        for l in (0, 1, 4):
            expect = iv(l, kappa / 2.0) ** 2 / iv(0, kappa)
            assert abs(psi.component(l)) ** 2 == pytest.approx(expect, rel=1e-10)

    def test_negative_kappa_rejected(self):
        with pytest.raises(InvalidParameterError):
            from_von_mises(-0.5)

    @pytest.mark.parametrize("phi0", [1e308, -1e308, 2.0 * np.pi * 1e15])
    def test_huge_phi0_is_reduced_modulo_two_pi(self, phi0):
        # l * phi0 would overflow; math.remainder(phi0, 2 pi) is exact
        m = circular_moments(from_von_mises(100.0, phi0))
        ref = circular_moments(from_von_mises(100.0, math.remainder(phi0, 2.0 * np.pi)))
        m0 = circular_moments(from_von_mises(100.0, 0.0))
        assert m == ref
        assert m.l_var == pytest.approx(m0.l_var, rel=1e-14)
        assert abs(m.e_mean) == pytest.approx(abs(m0.e_mean), rel=1e-14)


class TestVonMisesRecurrence:
    """The real-FFT Bessel values against scipy's ``ive`` on the old window rule."""

    @pytest.mark.parametrize("kappa", [1e-12, 1e-3, 1.0, 3.7, 80.0, 1e4, 1e6])
    def test_matches_ive_oracle(self, kappa):
        psi = from_von_mises(kappa, 0.3)
        l_min, amps = von_mises_components(kappa, 0.3)
        assert psi.l_min == l_min
        assert len(psi.amplitudes) == len(amps)
        assert np.max(np.abs(psi.amplitudes - amps)) < 1e-14

    def test_matches_ive_oracle_over_a_kappa_sweep(self):
        # 400 log-spaced kappa in [1e-12, 4.2e8] and three at or next to
        # zero; the oracle's own window, 6 sqrt(kappa) + 30, holds the
        # support (about 4.2 sqrt(kappa) either side).  Past orders of
        # about 1.7e4 (kappa >= 2.9e8 here) scipy's ive is off by about
        # 5e-12 relative, 1.1e-14 on these amplitudes, hence 2e-14.
        for kappa in [0.0, 5e-324, 1e-300, *np.logspace(-12, math.log10(4.2e8), 400)]:
            psi = from_von_mises(kappa, 0.3)
            l_min, amps = von_mises_components(kappa, 0.3,
                                               l_max=math.ceil(6.0 * math.sqrt(kappa)) + 30)
            assert psi.l_min == l_min, kappa
            assert len(psi.amplitudes) == len(amps), kappa
            assert np.max(np.abs(psi.amplitudes - amps)) < 2e-14, kappa

    def test_kappa_1e8_moments_and_memory(self):
        kappa = 1e8
        tracemalloc.start()
        try:
            psi = from_von_mises(kappa)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20
        # the old window rule would need 5 GB here; 10 sqrt(kappa) holds
        # the support, about 5.5 sqrt(kappa) wide
        l_min, amps = von_mises_components(kappa, l_max=math.ceil(10.0 * math.sqrt(kappa)))
        ref = circular_moments(PhaseWaveFunction(l_min, amps))
        m = circular_moments(psi)
        assert abs(m.e_mean - ref.e_mean) < 1e-12
        assert m.l_var == pytest.approx(ref.l_var, rel=1e-10)

    @pytest.mark.parametrize("kappa, e_rel", [(1e4, 1e-10), (1e6, 1e-8), (1e8, 1e-6)])
    def test_large_kappa_moments_against_bessel_ratio(self, kappa, e_rel):
        # the trimming cuts on the normalized mass, so the moments keep
        # the closed forms <e^{i phi}> = -I_1/I_0 and Var L = kappa I_1 / (4 I_0)
        ratio = ive(1, kappa) / ive(0, kappa)
        m = circular_moments(from_von_mises(kappa))
        assert m.e_var == pytest.approx(1.0 - ratio ** 2, rel=e_rel, abs=0.0)
        assert m.l_var == pytest.approx(0.25 * kappa * ratio, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("kappa", [1e-300, 5e-324])
    def test_tiny_kappa_is_one_component(self, kappa):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            psi = shift(from_von_mises(kappa), 3)
        assert psi.l_min == 3
        assert psi.amplitudes.tolist() == [1.0]

    @pytest.mark.parametrize("kappa", [1e12, 1e20])
    def test_window_over_budget_refused_before_allocating(self, kappa):
        tracemalloc.start()
        try:
            with pytest.raises(InvalidParameterError, match="budget"):
                from_von_mises(kappa)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


class TestCircularMoments:
    def test_number_eigenstate(self):
        m = circular_moments(phase_state({3: 1.0}))
        assert m.e_mean == 0.0
        assert m.e_var == 1.0
        assert m.l_var == 0.0
        assert m.l_mean == 3.0

    def test_equal_pair(self):
        m = circular_moments(phase_state({0: 1.0, 1: 1.0}))
        assert m.e_mean == pytest.approx(0.5)
        assert m.l_var == pytest.approx(0.25)

    @pytest.mark.parametrize("q", [0.01, 1.0, 100.0])
    def test_matches_mathieu_closed_form(self, q):
        sol = solve_even_mathieu(q, 0)
        m = circular_moments(from_mathieu(sol))
        dl2, de2 = mathieu_variances(sol)
        assert abs(m.l_var - dl2) < 1e-9
        assert abs(m.e_var - de2) < 1e-9
        assert abs(m.e_mean.real - theta_series(sol)) < 1e-10

    def test_unnormalized_rejected(self):
        bad = PhaseWaveFunction(0, np.array([0.5, 0.5], dtype=complex))
        with pytest.raises(InvalidStateError):
            circular_moments(bad)

    def test_nan_norm_rejected(self):
        # abs(nan - 1) > 1e-9 is False, so the check must be written to fail on NaN
        bad = PhaseWaveFunction(0, np.array([np.nan, 1.0], dtype=complex))
        with pytest.raises(InvalidStateError):
            circular_moments(bad)

    @pytest.mark.parametrize("family", ["mathieu", "von_mises"])
    def test_shifted_state_variance_keeps_its_digits(self, family):
        # regression: <L^2> - <L>^2 cancelled to Var L = 0.0 for the q = 1e-3
        # beam at <L> = 1e6, a false violation of the uncertainty relation
        if family == "mathieu":
            psi = shift(from_mathieu(solve_even_mathieu(1e-3, 0)), 10 ** 6)
        else:
            psi = shift(from_von_mises(4.0), 10 ** 7)
        ref = index_variance(psi.l_values, psi.amplitudes)
        assert circular_moments(psi).l_var == pytest.approx(ref, rel=1e-9, abs=0.0)
        assert analyze(psi, nbar=100.0).saturation_ratio >= 1.0


class TestShiftedWindows:
    """shift keeps l_min a Python int and refuses windows past |l| < 2^53,
    where float l stops being exact."""

    @pytest.mark.parametrize("m", [10 ** 15, -10 ** 15, "edge", "-edge"])
    def test_var_l_far_out_matches_the_oracle(self, m):
        psi = from_von_mises(4.0)
        l_max = psi.l_min + len(psi.amplitudes) - 1
        m = {"edge": 2 ** 53 - 1 - l_max, "-edge": 1 - 2 ** 53 - psi.l_min}.get(m, m)
        shifted = shift(psi, m)
        assert type(shifted.l_min) is int
        ref = index_variance(shifted.l_values, shifted.amplitudes)
        assert circular_moments(shifted).l_var == pytest.approx(ref, rel=1e-12, abs=0.0)
        assert circular_moments(shifted).l_var == pytest.approx(
            circular_moments(psi).l_var, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("m", [10 ** 18, 10 ** 19, -10 ** 19, "edge", "-edge"])
    def test_window_past_exact_floats_refused(self, m):
        psi = from_von_mises(4.0)
        l_max = psi.l_min + len(psi.amplitudes) - 1
        m = {"edge": 2 ** 53 - l_max, "-edge": -2 ** 53 - psi.l_min}.get(m, m)
        with pytest.raises(InvalidParameterError, match="2\\^53"):
            shift(psi, m)

    def test_constructors_keep_l_min_an_int(self):
        for psi in (from_von_mises(4.0), from_mathieu(solve_even_mathieu(1.0, 0)),
                    phase_state({np.int64(3): 1.0, np.int64(5): 1.0}),
                    PhaseWaveFunction(np.int64(3), np.array([1 + 0j])),
                    PhaseWaveFunction(3.0, np.array([1 + 0j]))):
            assert type(psi.l_min) is int

    @pytest.mark.parametrize("l_min", [10 ** 30, -10 ** 30, 2 ** 53, -2 ** 53, 2 ** 53 - 1])
    def test_direct_window_past_exact_floats_refused(self, l_min):
        # the dataclass checks its own window: built directly at 10^30 it
        # once gave a bare TypeError in rotate and IndexError in the density
        with pytest.raises(InvalidParameterError, match="2\\^53"):
            PhaseWaveFunction(l_min, np.array([1 + 0j, 0j]))

    def test_direct_window_at_the_edge_kept(self):
        psi = PhaseWaveFunction(2 ** 53 - 2, np.array([1 + 0j, 0j]))
        assert circular_moments(psi).l_mean == 2.0 ** 53 - 2

    def test_fractional_l_min_refused(self):
        with pytest.raises(InvalidParameterError, match="l_min must be an integer"):
            PhaseWaveFunction(1.5, np.array([1 + 0j]))


class TestCircularVariance:
    """e_var from d = n - |<E>| summed without cancellation, against an
    exact integer sum over the same stored amplitudes."""

    @pytest.mark.parametrize("kappa", [1e2, 1e4, 1e6, 1e8])
    def test_von_mises_against_exact_sums(self, kappa):
        psi = from_von_mises(kappa)
        ref = circular_variance(psi.amplitudes)
        assert circular_moments(psi).e_var == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_complex_components_against_exact_sums(self):
        # rotated, so <E> and the step u = <E> / |<E>| are not real
        psi = rotate(from_von_mises(1e6), 0.7)
        ref = circular_variance(psi.amplitudes)
        assert circular_moments(psi).e_var == pytest.approx(ref, rel=1e-12, abs=0.0)


class TestPhaseStateWindow:
    """phase_state spans its nonzero components and bounds that span
    before it allocates."""

    @staticmethod
    def peak_of(components):
        tracemalloc.start()
        try:
            try:
                return phase_state(components), tracemalloc.get_traced_memory()[1]
            except (InvalidParameterError, InvalidStateError) as exc:
                return exc, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("components", [{0: 1, 2 ** 18: 1}, {0: 1.0, 12 * 10 ** 20: 1.0}],
                             ids=["one-past-the-budget", "past-the-index-range"])
    def test_span_over_budget_refused_before_allocating(self, components):
        # the parent returned 262,145 components, and raised numpy's bare
        # ValueError on the second
        result, peak = self.peak_of(components)
        assert isinstance(result, InvalidParameterError)
        assert "over the budget of 262144" in str(result)
        assert peak < 2 ** 20

    def test_span_at_the_budget_kept(self):
        psi = phase_state({0: 1.0, 2 ** 18 - 1: 1.0})
        assert (psi.l_min, len(psi.amplitudes)) == (0, 2 ** 18)

    def test_zero_components_take_no_window(self):
        # the parent allocated 160 MB to return one component
        psi, peak = self.peak_of({0: 0j, 10 ** 7: 1.0})
        assert (psi.l_min, psi.amplitudes.tolist()) == (10 ** 7, [1.0])
        assert peak < 2 ** 20

    @pytest.mark.parametrize("components", [{}, {0: 0j, 526253864: 0j}, {3: 0.0}],
                             ids=["empty", "zero-norm-wide", "zero-norm"])
    def test_no_support_refused(self, components):
        # the parent raised numpy's MemoryError (7.84 GiB) on the wide map
        result, peak = self.peak_of(components)
        assert isinstance(result, InvalidStateError)
        assert peak < 2 ** 20


class TestNonFiniteInputs:
    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_rotation_angle(self, theta):
        with pytest.raises(InvalidParameterError, match="finite"):
            rotate(from_von_mises(2.0), theta)

    def test_fractional_component_index_refused(self):
        with pytest.raises(InvalidParameterError, match="l must be an integer"):
            from_von_mises(2.0).component(1.5)
        # a zero component is dropped from the window, but its index is checked
        with pytest.raises(InvalidParameterError, match="l must be an integer"):
            phase_state({1.5: 0, 0: 1})

    @pytest.mark.parametrize("value", [math.nan, math.inf, complex(1.0, math.nan)])
    def test_component(self, value):
        with pytest.raises(InvalidParameterError, match="Psi_0 must be finite"):
            phase_state({0: value, 1: 1.0})

    @pytest.mark.parametrize("value", [1e200, 1e-200, 5e-324, 1.7e308])
    def test_components_past_the_square_range(self, value):
        # the squares overflow or underflow; the state is (|0> + |1>)/sqrt(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            psi = phase_state({0: value, 1: value})
        assert psi.l_min == 0
        assert np.abs(psi.amplitudes - 1.0 / math.sqrt(2.0)).max() < 3e-16

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_mathieu_coefficient_refused_not_dropped(self, value):
        # the NaN component was trimmed away, leaving a unit-norm state at l = 0
        sol = MathieuSolution(0, 1.0, -0.45, np.array([0.7, value]))
        with pytest.raises(InvalidStateError, match="non-finite"):
            from_mathieu(sol)


class TestDensity:
    def test_uniform(self):
        _, p = density_profile(from_von_mises(0.0), 128)
        assert np.allclose(p, 1.0 / (2.0 * np.pi), atol=1e-15)

    def test_grid_over_budget_refused_before_allocating(self):
        psi = from_von_mises(1.0)
        tracemalloc.start()
        try:
            with pytest.raises(InvalidParameterError, match="budget"):
                density_profile(psi, 10 ** 15)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_budget_counts_160_bytes_a_point(self, monkeypatch):
        # the rule is on the grid alone: a wide state does not move it
        monkeypatch.setattr(phase_space, "MAX_DENSITY_BYTES", 160 * 64)
        for psi in (from_von_mises(1.0), from_von_mises(1e6)):
            assert len(density_profile(psi, 64)[1]) == 64
            with pytest.raises(InvalidParameterError, match="65-point density grid"):
                density_profile(psi, 65)

    def test_fold_with_collisions_matches_direct_sum(self):
        # 300 components on 64 points: every grid residue holds several
        psi = shift(random_state(5, width=300), -150)
        _, p = density_profile(psi, 64)
        expect = direct_density(psi, 64)
        assert np.max(np.abs(p - expect)) <= 1e-13 * np.max(expect)

    def test_coarse_grid_at_kappa_1e8_stays_small(self):
        psi = from_von_mises(1e8)
        tracemalloc.start()
        try:
            _, p = density_profile(psi, 512)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20
        assert np.all(np.isfinite(p))

    def test_quadrature_normalization(self):
        phi, p = density_profile(from_mathieu(solve_even_mathieu(0.1, 0)), 512)
        assert np.sum(p) * (2.0 * np.pi / 512) == pytest.approx(1.0, abs=1e-6)

    def test_peak_at_pi(self):
        phi, p = density_profile(from_mathieu(solve_even_mathieu(0.1, 0)), 512)
        assert phi[np.argmax(p)] == pytest.approx(np.pi, abs=2.0 * np.pi / 512)

    def test_small_grid_rejected(self):
        with pytest.raises(InvalidParameterError):
            density_profile(from_von_mises(0.0), 1)

    def test_fractional_grid_refused(self):
        with pytest.raises(InvalidParameterError, match="grid_points must be an integer"):
            density_profile(from_von_mises(2.0), 64.5)

    def test_small_q_von_mises_agreement(self):
        q = 1e-3
        _, pm = density_profile(from_mathieu(solve_even_mathieu(q, 0)), 1024)
        _, pv = density_profile(from_von_mises(q), 1024)
        assert np.max(np.abs(pm - pv)) < 1e-4

    def test_large_q_von_mises_agreement(self):
        # peak-normalized sup deviation; pointwise relative error is
        # meaningless in the exp(-sqrt(q)) tails
        q = 100.0
        _, pm = density_profile(from_mathieu(solve_even_mathieu(q, 0)), 2048)
        _, pv = density_profile(from_von_mises(np.sqrt(q)), 2048)
        assert np.max(np.abs(pm - pv)) / np.max(pm) < 0.02


class TestInvariantProperties:
    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_parseval(self, seed):
        psi = random_state(seed)
        grid = 4 * (len(psi.amplitudes) + abs(psi.l_min)) + 64
        _, p = density_profile(psi, grid)
        assert np.sum(p) * 2.0 * np.pi / grid == pytest.approx(psi.norm_sq(),
                                                               abs=1e-8)

    @given(st.integers(0, 2 ** 31 - 1), st.integers(-7, 7))
    @settings(max_examples=40, deadline=None)
    def test_translation_covariance(self, seed, m):
        psi = random_state(seed)
        base, moved = circular_moments(psi), circular_moments(shift(psi, m))
        assert moved.l_mean == pytest.approx(base.l_mean + m, abs=1e-10)
        assert moved.e_mean == pytest.approx(base.e_mean, abs=1e-12)
        assert moved.e_var == pytest.approx(base.e_var, abs=1e-12)
        assert moved.l_var == pytest.approx(base.l_var, abs=1e-9)

    @given(st.integers(0, 2 ** 31 - 1),
           st.floats(-np.pi, np.pi, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_rotation_covariance(self, seed, theta):
        # Psi_l -> e^{i l theta} Psi_l multiplies <e^{i phi}> by e^{i theta}
        psi = random_state(seed)
        base, rot = circular_moments(psi), circular_moments(rotate(psi, theta))
        assert rot.e_mean == pytest.approx(base.e_mean * np.exp(1j * theta),
                                           abs=1e-12)
        assert rot.e_var == pytest.approx(base.e_var, abs=1e-12)
        assert rot.l_var == pytest.approx(base.l_var, abs=1e-9)
        assert rot.l_mean == pytest.approx(base.l_mean, abs=1e-10)

    def test_rotation_moves_density_peak(self):
        psi = from_mathieu(solve_even_mathieu(1.0, 0))
        phi, p = density_profile(rotate(psi, -np.pi), 512)
        assert phi[np.argmax(p)] == pytest.approx(0.0, abs=2.0 * np.pi / 512)

    def test_wave_function_matches_direct_sum(self):
        psi = random_state(11)
        _, p = density_profile(psi, 64)
        assert np.allclose(p, direct_density(psi, 64), rtol=0.0, atol=1e-14)

    def test_huge_rotation_angle_is_reduced_modulo_two_pi(self):
        psi = from_von_mises(100.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rot = rotate(psi, 1e308)
            base = rotate(psi, math.remainder(1e308, 2.0 * math.pi))
        assert rot.norm_sq() == pytest.approx(1.0, abs=1e-12)
        assert circular_moments(rot) == circular_moments(base)

"""Truncated two-mode simulator: operators, constructors, exact moments."""

import tracemalloc

import numpy as np
import pytest

from qellip import (
    DimensionMismatchError,
    InvalidParameterError,
    TruncationError,
    analyze,
    build_L_operator,
    build_N_operator,
    circular_variance_unitary,
    coherent_state,
    displaced_squeezed_state,
    displacement_matrix,
    embed_phase_state,
    expectation,
    extract_layer,
    from_mathieu,
    from_von_mises,
    circular_moments,
    modulus_operator,
    phase_operator,
    phase_operator_layer,
    solve_even_mathieu,
    squeezed_for_mean_photons,
    variance_hermitian,
)

from qellip import fock
from oracles import coherent_e_mean, displacement_entry


class TestLayerOperator:
    def test_smallest_layer_is_exchange(self):
        mat = phase_operator_layer(1).matrix
        assert np.array_equal(mat, np.array([[0, 1], [1, 0]], dtype=complex))
        assert sorted(np.linalg.eigvals(mat).real) == pytest.approx([-1.0, 1.0])

    def test_eigenvalues_are_roots_of_unity(self):
        ev = np.linalg.eigvals(phase_operator_layer(4).matrix)
        expected = np.exp(2j * np.pi * np.arange(5) / 5.0)
        assert np.allclose(np.sort_complex(ev), np.sort_complex(expected),
                           atol=1e-12)

    @pytest.mark.parametrize("N", [1, 4, 10, 40])
    def test_unitarity(self, N):
        mat = phase_operator_layer(N).matrix
        assert np.abs(mat.conj().T @ mat - np.eye(N + 1)).max() < 1e-14

    def test_invalid_layer(self):
        with pytest.raises(InvalidParameterError):
            phase_operator_layer(0)

    def test_full_operator_consistent_with_layer_blocks(self):
        # E restricted to a complete layer of the square grid acts as the cycle
        M = 6
        rng = np.random.default_rng(0)
        vec = rng.normal(size=5) + 1j * rng.normal(size=5)
        vec /= np.linalg.norm(vec)
        amps = np.zeros((M + 1, M + 1), dtype=complex)
        n = np.arange(5)
        amps[n, 4 - n] = vec
        applied = phase_operator(M).apply(amps)
        assert np.allclose(applied[n, 4 - n],
                           phase_operator_layer(4).matrix @ vec, atol=1e-15)


class TestDiagonalOperators:
    def test_entries(self):
        L = build_L_operator(5)
        N = build_N_operator(5)
        P = modulus_operator(5)
        assert L.values[3, 1] == 1.0
        assert N.values[2, 2] == 4.0
        assert P.values[0, 5] == 0.0
        assert P.values[3, 2] == 1.0

    def test_modulus_asymmetry(self):
        # the +1 from operator ordering breaks p <-> s interchange:
        # swapping modes does not invert P (P(0,5) is 0, not 1/sqrt(5))
        P = modulus_operator(5)
        assert P.values[5, 0] == pytest.approx(np.sqrt(5.0))
        assert P.values[0, 5] == 0.0
        assert P.values[5, 0] * P.values[0, 5] != pytest.approx(1.0)

    def test_N_L_commute_and_E_preserves_N(self):
        M = 8
        rng = np.random.default_rng(1)
        amps = rng.normal(size=(M + 1, M + 1)) + 1j * rng.normal(size=(M + 1, M + 1))
        N, L, E = build_N_operator(M), build_L_operator(M), phase_operator(M)
        # diagonal operators commute exactly
        assert np.array_equal(N.values * L.values, L.values * N.values)
        # E is block diagonal across layers, so it commutes with N exactly
        assert np.array_equal(N.apply(E.apply(amps)), E.apply(N.apply(amps)))


class TestCoherent:
    def test_vacuum(self):
        st = coherent_state(0.0, 0.0, 5)
        assert st.amplitudes[0, 0] == pytest.approx(1.0)
        assert np.sum(np.abs(st.amplitudes)) == pytest.approx(1.0)
        assert expectation(st, build_N_operator(5)).real == pytest.approx(0.0)

    def test_balanced_hundred_photons(self):
        a = np.sqrt(50.0)
        st = coherent_state(a, a, 200)
        L = build_L_operator(200)
        assert variance_hermitian(st, L) == pytest.approx(25.0, abs=1e-6)
        e_var = circular_variance_unitary(st, phase_operator(200))
        assert e_var == pytest.approx(0.01, rel=0.05)

    def test_cutoff_too_small(self):
        with pytest.raises(TruncationError):
            coherent_state(np.sqrt(50.0), np.sqrt(50.0), 60)

    def test_auto_cutoff(self):
        st = coherent_state(2.0, 1.0 + 1.0j)
        assert st.tail_mass < 1e-10
        n = expectation(st, build_N_operator(st.cutoff)).real
        assert n == pytest.approx(4.0 + 2.0, rel=1e-9)

    @pytest.mark.parametrize("nbar", [3000.0, 6000.0])
    def test_builds_where_the_vacuum_factor_underflows(self, nbar):
        # regression: starting the recurrence at e^{-nbar/4} zeroed the
        # vector past nbar ~ 2980 and raised a false TruncationError
        a = np.sqrt(nbar / 2.0)
        report = analyze(coherent_state(a, a))
        assert report.n_mean == pytest.approx(nbar, rel=1e-9)
        assert report.e_var == pytest.approx(1.0 - coherent_e_mean(nbar) ** 2, rel=1e-7)

    @pytest.mark.parametrize("alpha", [np.sqrt(5.0), 0.3 + 2.0j, np.sqrt(200.0),
                                       np.sqrt(1400.0) * np.exp(0.7j)])
    def test_matches_recurrence_from_vacuum_below_underflow(self, alpha):
        st = coherent_state(alpha, alpha)
        v = np.empty(st.cutoff + 1, dtype=complex)
        v[0] = np.exp(-0.5 * abs(alpha) ** 2)
        for n in range(1, st.cutoff + 1):
            v[n] = v[n - 1] * alpha / np.sqrt(n)
        ref = np.outer(v, v)
        ref /= np.linalg.norm(ref)
        assert np.abs(st.amplitudes - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_box_holds_only_the_support(self):
        # the grid runs from 0 to 12 sigma above the mode mean, while the
        # rows and columns above 1e-16 of the peak lie within about
        # 12 sigma on either side: at nbar = 2800 under a quarter of it
        a = np.sqrt(1400.0)
        st = coherent_state(a, a)
        assert st.block.size < 0.25 * (st.cutoff + 1) ** 2
        assert st.offset[0] == st.offset[1] > 0
        edges = np.abs(np.concatenate([st.block[0], st.block[-1]]))
        assert edges.max() < 1e-15 * np.abs(st.block).max()


class TestGridBudget:
    def test_oversized_grids_rejected(self):
        with pytest.raises(InvalidParameterError, match="budget"):
            coherent_state(np.sqrt(5e4), np.sqrt(5e4))
        with pytest.raises(InvalidParameterError, match="budget"):
            squeezed_for_mean_photons(20000.0, 5.0)
        with pytest.raises(InvalidParameterError, match="budget"):
            embed_phase_state(from_von_mises(1.0), 100000)

    def test_budget_boundary(self, monkeypatch):
        monkeypatch.setattr(fock, "MAX_GRID_BYTES", 11 * 11 * 16)
        assert coherent_state(0.5, 0.5, 10).cutoff == 10
        with pytest.raises(InvalidParameterError, match="budget"):
            coherent_state(0.5, 0.5, 11)
        with pytest.raises(InvalidParameterError, match="budget"):
            displaced_squeezed_state(0.5, 0.5, 0.1, cutoff=11)
        with pytest.raises(InvalidParameterError, match="budget"):
            embed_phase_state(from_von_mises(0.0), 12)


class TestNonFiniteInputs:
    @pytest.mark.parametrize("nbar", [np.nan, np.inf])
    def test_squeezed_photon_number(self, nbar):
        with pytest.raises(InvalidParameterError, match="finite"):
            squeezed_for_mean_photons(nbar, 0.5)

    @pytest.mark.parametrize("alpha_p, alpha_s", [(np.nan, 1.0), (1.0, np.inf)])
    def test_displacements(self, alpha_p, alpha_s):
        with pytest.raises(InvalidParameterError, match="finite"):
            coherent_state(alpha_p, alpha_s)
        with pytest.raises(InvalidParameterError, match="finite"):
            displaced_squeezed_state(alpha_p, alpha_s, 0.2)

    def test_squeezing(self):
        with pytest.raises(InvalidParameterError, match="finite"):
            displaced_squeezed_state(1.0, 1.0, complex(0.2, np.nan))


class TestDisplacement:
    def test_matches_laguerre_closed_form(self):
        alpha = 0.7 + 0.3j
        D = displacement_matrix(alpha, 60)
        for m in (0, 5, 17, 33):
            for n in (0, 7, 22, 40):
                assert D[m, n] == pytest.approx(
                    displacement_entry(m, n, alpha), abs=1e-12)

    def test_matches_matrix_exponential(self):
        import scipy.linalg
        alpha, M = 1.1 - 0.4j, 50
        a = np.diag(np.sqrt(np.arange(1, M + 1)), k=1)
        exact = scipy.linalg.expm(alpha * a.conj().T - np.conj(alpha) * a)
        assert np.abs(displacement_matrix(alpha, M) - exact).max() < 1e-12

    def test_unitary_even_at_large_amplitude(self):
        # regression: local Laguerre recurrences lose ~e^{n/2} of precision
        # here; the spectral construction must stay exactly unitary
        for alpha, M in ((0.9j, 60), (7.0, 300)):
            D = displacement_matrix(alpha, M)
            gram = D.conj().T @ D
            assert np.abs(gram - np.eye(M + 1)).max() < 1e-12

    def test_zero_displacement_is_identity(self):
        assert np.array_equal(displacement_matrix(0.0, 10),
                              np.eye(11, dtype=complex))


class TestSqueezed:
    def test_zero_squeezing_reduces_to_coherent(self):
        a = displaced_squeezed_state(1.0 + 0.5j, 0.3, 0.0, cutoff=40)
        b = coherent_state(1.0 + 0.5j, 0.3, cutoff=40)
        assert np.abs(a.amplitudes - b.amplitudes).max() == 0.0

    def test_pair_correlated_vacuum(self):
        st = displaced_squeezed_state(0.0, 0.0, 0.5)
        L = build_L_operator(st.cutoff)
        assert expectation(st, L).real == pytest.approx(0.0, abs=1e-14)
        assert variance_hermitian(st, L) == pytest.approx(0.0, abs=1e-14)

    def test_optimal_setting_closed_form(self):
        st = squeezed_for_mean_photons(10.0, 1.0, 0.0)
        expected = (10.0 - 2.0 * np.sinh(1.0) ** 2) * np.exp(-2.0) / 4.0
        got = variance_hermitian(st, build_L_operator(st.cutoff))
        assert got == pytest.approx(expected, abs=1e-3)
        n = expectation(st, build_N_operator(st.cutoff)).real
        assert n == pytest.approx(10.0, rel=1e-9)

    def test_closed_form_holds_at_large_photon_number(self):
        # regression: the displacement factors must stay accurate when the
        # per-mode amplitude is no longer small (here |alpha|^2 ~ 49)
        st = squeezed_for_mean_photons(100.0, 1.0, 0.0)
        expected = (100.0 - 2.0 * np.sinh(1.0) ** 2) * np.exp(-2.0) / 4.0
        got = variance_hermitian(st, build_L_operator(st.cutoff))
        assert got == pytest.approx(expected, rel=1e-9)

    def test_cutoff_too_small_caught_by_boundary_mass(self):
        # unitary displacement factors alias a clipped support instead of
        # losing norm, so this failure mode needs its own detector
        with pytest.raises(TruncationError):
            squeezed_for_mean_photons(100.0, 1.0, 0.0, cutoff=120)

    def test_mean_phase_closed_forms(self):
        # coherent: <E> ~ prod_sigma (1 - 1/(8 |alpha_sigma|^2))
        for nbar in (10.0, 50.0, 100.0):
            a = np.sqrt(nbar / 2.0)
            st = coherent_state(a, a)
            e = expectation(st, phase_operator(st.cutoff)).real
            assert e == pytest.approx((1.0 - 1.0 / (4.0 * nbar)) ** 2, rel=2e-3)
        # squeezed: <E> ~ 1 - 2 sinh^2(s)/nbar, good for strong squeezing
        st = squeezed_for_mean_photons(100.0, 1.0, 0.0)
        e = expectation(st, phase_operator(st.cutoff)).real
        assert e == pytest.approx(1.0 - 2.0 * np.sinh(1.0) ** 2 / 100.0, rel=0.02)

    @pytest.mark.parametrize("dphi", np.linspace(0.0, np.pi, 5))
    def test_noise_balance_cosine_dependence(self, dphi):
        nbar, s = 10.0, 1.0
        amp2 = nbar / 2.0 - np.sinh(s) ** 2
        expected = 0.25 * (2.0 * amp2 * np.cosh(2.0 * s)
                           - 2.0 * amp2 * np.cos(dphi) * np.sinh(2.0 * s))
        st = squeezed_for_mean_photons(nbar, s, dphi)
        got = variance_hermitian(st, build_L_operator(st.cutoff))
        assert got == pytest.approx(expected, rel=1e-9)

    def test_nbar_below_squeezing_energy_rejected(self):
        with pytest.raises(InvalidParameterError):
            squeezed_for_mean_photons(1.0, 1.5)

    def test_squeezing_past_double_precision_rejected(self):
        # regression: tanh(20) == 1.0 made the auto cutoff NaN
        with pytest.raises(InvalidParameterError, match="tanh"):
            displaced_squeezed_state(1.0, 1.0, 20.0)


def _pair_amplitudes(zeta: complex, count: int) -> np.ndarray:
    s = abs(zeta)
    return (np.tanh(s) * np.exp(1j * np.angle(zeta))) ** np.arange(count) / np.cosh(s)


class TestSqueezedPairColumns:
    """The build keeps the K pair columns above 1e-17 of the norm; every
    amplitude must still match sums over all M+1 pair columns."""

    @pytest.mark.parametrize("alpha_p, alpha_s, zeta, cutoff", [
        (3.0 + 1.0j, -2.0 + 0.5j, 0.3 * np.exp(0.7j), None),
        (2.0 - 1.0j, 1.5j, np.exp(2.0j), None),
        (6.0, 2.0j, 1.0, None),
        # balanced nbar = 100 at dphi = 0.5, one shared eigensolve
        (np.sqrt(50.0 - np.sinh(1.0) ** 2), np.sqrt(50.0 - np.sinh(1.0) ** 2),
         np.exp(-0.5j), None),
        # at s = 2 the pair columns reach the auto cutoff with ~1e-11 of
        # the amplitude, where truncation alone moves them; go further out
        (0.5 + 0.2j, -0.3j, 2.0 * np.exp(-0.4j), 800),
    ])
    def test_matches_laguerre_sum(self, alpha_p, alpha_s, zeta, cutoff):
        st = displaced_squeezed_state(alpha_p, alpha_s, zeta, cutoff)
        k = np.arange(st.cutoff + 1)
        d_p = displacement_entry(k[:, np.newaxis], k[np.newaxis, :], alpha_p)
        d_s = displacement_entry(k[:, np.newaxis], k[np.newaxis, :], alpha_s)
        ref = (d_p * _pair_amplitudes(zeta, k.size)) @ d_s.T
        ref /= np.linalg.norm(ref)
        assert np.abs(st.amplitudes - ref).max() < 1e-13

    @pytest.mark.parametrize("s, nbar", [(0.5, 400.0), (0.5, 1000.0),
                                         (1.0, 400.0), (1.0, 1000.0)])
    def test_matches_dense_product(self, s, nbar):
        st = squeezed_for_mean_photons(nbar, s)
        d = displacement_matrix(np.sqrt(nbar / 2.0 - np.sinh(s) ** 2), st.cutoff)
        scaled = d * _pair_amplitudes(s, st.cutoff + 1)
        # subnormal parts change nothing at this tolerance but slow the
        # product by an order of magnitude
        parts = scaled.view(np.float64)
        parts[np.abs(parts) < np.finfo(np.float64).tiny] = 0.0
        ref = scaled @ d.T
        ref /= np.linalg.norm(ref)
        assert np.abs(st.amplitudes - ref).max() < 1e-13


class TestEmbedding:
    def test_single_component(self):
        st = embed_phase_state(from_von_mises(0.0), 10)
        assert st.amplitudes[5, 5] == pytest.approx(1.0)
        assert np.sum(np.abs(st.amplitudes) ** 2) == pytest.approx(1.0)

    def test_moments_match_phase_side(self):
        psi = from_mathieu(solve_even_mathieu(1.0, 0))
        st = embed_phase_state(psi, 40)
        mom = circular_moments(psi)
        L = build_L_operator(40)
        assert variance_hermitian(st, L) == pytest.approx(mom.l_var, abs=1e-9)
        assert expectation(st, L).real == pytest.approx(mom.l_mean, abs=1e-9)
        e_mean = expectation(st, phase_operator(40))
        assert abs(e_mean - mom.e_mean) < 1e-6  # wrap term bounded by tail mass

    def test_odd_layer_rejected(self):
        with pytest.raises(InvalidParameterError):
            embed_phase_state(from_von_mises(0.0), 11)

    def test_layer_too_small(self):
        with pytest.raises(TruncationError):
            embed_phase_state(from_von_mises(80.0), 10)

    def test_box_is_the_support(self):
        psi = from_mathieu(solve_even_mathieu(1.0, 0))
        l_max = psi.l_min + len(psi.amplitudes) - 1
        st = embed_phase_state(psi, 40)
        assert st.block.shape == (len(psi.amplitudes),) * 2
        assert st.offset == (20 + psi.l_min, 20 - l_max)
        ref = np.zeros((41, 41), dtype=complex)
        ref[20 + psi.l_values, 20 - psi.l_values] = psi.amplitudes
        ref /= np.linalg.norm(ref)
        assert np.abs(st.amplitudes - ref).max() < 1e-15

    def test_clipped_support_keeps_the_window(self):
        # kappa = 80 reaches past l = +-5; on N = 10 only l in [-5, 5] stays
        st = embed_phase_state(from_von_mises(80.0), 10, tail_tol=1.0 - 1e-3)
        assert st.block.shape == (11, 11)
        assert st.offset == (0, 0)
        assert st.tail_mass > 1e-3

    def test_cost_follows_the_support(self):
        # 11 components on the N = 6000 layer, whose dense grid is 576 MB
        psi = from_mathieu(solve_even_mathieu(1.0, 0))
        tracemalloc.start()
        try:
            report = analyze(embed_phase_state(psi, 6000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        assert report.n_mean == pytest.approx(6000.0, rel=1e-12)


class TestMomentForms:
    def test_dimension_mismatch(self):
        st = coherent_state(0.5, 0.5, 10)
        with pytest.raises(DimensionMismatchError):
            expectation(st, build_N_operator(11))

    def test_commutator_on_interior_states(self):
        # [E, L] = E on states clear of the layer-edge wrap
        psi = from_mathieu(solve_even_mathieu(1.0, 0))
        st = embed_phase_state(psi, 40)
        E, L = phase_operator(40), build_L_operator(40)
        c = st.amplitudes
        resid = E.apply(L.apply(c)) - L.apply(E.apply(c)) - E.apply(c)
        assert np.linalg.norm(resid) < 1e-10

    def test_modulus_linearization_sweep(self):
        # P - 1 - 2L/N carries a deterministic -1/N offset (the +1 in the
        # denominator); after removing it the residual is O(<L^2>/N^2)
        psi = from_mathieu(solve_even_mathieu(1.0, 0))
        for N in (40, 80, 160, 320):
            st = embed_phase_state(psi, N)
            c = st.amplitudes
            P, L = modulus_operator(N), build_L_operator(N)
            resid = P.apply(c) - c - (2.0 / N) * L.apply(c)
            assert np.linalg.norm(resid) == pytest.approx(1.0 / N, rel=0.06)
            corrected = resid + c / N
            assert np.linalg.norm(corrected) < 3.0 / N ** 2

    def test_coherent_saturation_improves_with_nbar(self):
        ratios = []
        for nbar in (10.0, 50.0, 100.0, 400.0):
            a = np.sqrt(nbar / 2.0)
            st = coherent_state(a, a)
            e = expectation(st, phase_operator(st.cutoff))
            e_var = 1.0 - abs(e) ** 2
            l_var = variance_hermitian(st, build_L_operator(st.cutoff))
            ratios.append(e_var * l_var / (0.25 * abs(e) ** 2))
        assert all(r >= 1.0 for r in ratios)
        assert ratios == sorted(ratios, reverse=True)
        assert ratios[-1] == pytest.approx(1.0, abs=0.01)

    def test_layer_extraction(self):
        psi = from_mathieu(solve_even_mathieu(0.5, 0))
        st = embed_phase_state(psi, 20)
        vec = extract_layer(st, 20)
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(extract_layer(st, 4)) == 0.0

    def test_layer_extraction_reads_the_box(self):
        rng = np.random.default_rng(3)
        for offset in ((0, 0), (0, 3), (4, 0), (2, 5)):
            block = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
            st = fock.TwoModeFockState(9, block, 0.0, offset)
            dense = st.amplitudes
            for N in range(10):
                n = np.arange(N + 1)
                assert np.array_equal(extract_layer(st, N), dense[n, N - n])

    def test_layer_extraction_rejects_negative_layer(self):
        st = coherent_state(0.5, 0.5, 10)
        with pytest.raises(InvalidParameterError):
            extract_layer(st, -1)
        with pytest.raises(DimensionMismatchError):
            extract_layer(st, 11)

    def test_box_must_fit_the_grid(self):
        with pytest.raises(DimensionMismatchError):
            fock.TwoModeFockState(4, np.ones((2, 2), dtype=complex), 0.0, (4, 0))
        with pytest.raises(DimensionMismatchError):
            fock.TwoModeFockState(4, np.ones((2, 2), dtype=complex), 0.0, (0, -1))

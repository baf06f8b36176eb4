"""Truncated two-mode simulator: operators, constructors, exact moments."""

import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from qellip import (
    DimensionMismatchError,
    InvalidParameterError,
    TruncationError,
    TwoModeFockState,
    analyze,
    coherent_state,
    displaced_squeezed_state,
    embed_phase_state,
    from_mathieu,
    from_von_mises,
    circular_moments,
    solve_even_mathieu,
    squeezed_for_mean_photons,
)
from qellip.noise import mathieu_family
from qellip.phase_space import PhaseWaveFunction

from qellip import fock
from oracles import (
    apply_phase,
    coherent_e_var,
    dense_amplitudes,
    dense_moments,
    diagonal_values,
    displacement_entry,
    longdouble_variances,
)


def coherent_at(alpha_p, alpha_s, cutoff: int) -> TwoModeFockState:
    """``coherent_state`` at a set cutoff, built by the constructor it
    shares with the squeezed states."""
    return fock._gaussian_state(alpha_p, alpha_s, cutoff, 1, 0.0, 0.0, "coherent state")


def squeezed_at(alpha_p, alpha_s, zeta, cutoff: int) -> TwoModeFockState:
    """``displaced_squeezed_state`` at a set cutoff, with its own pair
    count and ratio: the reference of windows wider or narrower than the
    derived one."""
    s = abs(zeta)
    r = np.tanh(s)
    pairs = min(cutoff + 1, int(math.log(fock.PAIR_AMPLITUDE_FLOOR * (1.0 - r)) / math.log(r)) + 1)
    unit = zeta / s
    return fock._gaussian_state(alpha_p, alpha_s, cutoff, pairs,
                                r * (unit.real if unit.imag == 0.0 else unit),
                                float(r) ** (2 * pairs), "displaced squeezed state")


def discrete_phase_state(N: int, k: int) -> np.ndarray:
    """e^{i m theta_k} / sqrt(N+1) on |m, N-m>, theta_k = 2 pi k / (N+1):
    the eigenvector of the layer's cyclic shift E with eigenvalue e^{i theta_k}."""
    return np.exp(2j * np.pi * k * np.arange(N + 1) / (N + 1)) / np.sqrt(N + 1)


def layer_states(vec: np.ndarray) -> list:
    """``vec`` (the amplitudes of |m, N-m>, m = 0..N) on layer N as an
    origin two-mode state and, for even N, through embed_phase_state."""
    N = len(vec) - 1
    block = np.zeros((N + 1, N + 1), dtype=complex)
    block[np.arange(N + 1), N - np.arange(N + 1)] = vec
    states = [TwoModeFockState(block, np.ones(N + 1), np.eye(N + 1), 0.0)]
    if N % 2 == 0:
        states.append(embed_phase_state(PhaseWaveFunction(-N // 2, vec), N))
    return states


class TestLayerOperator:
    """The E of ``analyze`` on one photon-number layer: the cyclic shift
    |m, n> -> |m-1, n+1>, closed by the wrap |0, N> -> |N, 0>."""

    def test_smallest_layer_is_exchange(self):
        for sign in (1.0, -1.0):
            block = np.array([[0.0, 1.0], [sign, 0.0]], dtype=complex) / np.sqrt(2.0)
            report = analyze(TwoModeFockState(block, np.ones(2), np.eye(2), 0.0))
            assert report.e_mean == pytest.approx(sign, abs=1e-15)
            assert report.e_var == pytest.approx(0.0, abs=1e-15)

    def test_eigenvalues_are_roots_of_unity(self):
        for k in range(5):
            for st in layer_states(discrete_phase_state(4, k)):
                e_mean = analyze(st).e_mean
                assert abs(e_mean - np.exp(2j * np.pi * k / 5.0)) < 1e-12

    @pytest.mark.parametrize("N", [1, 4, 10, 40])
    def test_unitarity(self, N):
        # N + 1 orthonormal eigenvectors, each with |<E>| = 1 and no spread
        for k in range(N + 1):
            for st in layer_states(discrete_phase_state(N, k)):
                report = analyze(st)
                assert abs(report.e_mean - np.exp(2j * np.pi * k / (N + 1))) < 1e-12
                assert report.e_var < 1e-12

    def test_invalid_layer(self):
        with pytest.raises(InvalidParameterError):
            embed_phase_state(from_von_mises(0.0), 0)

    def test_full_operator_consistent_with_layer_blocks(self):
        # a layer inside a larger grid, as a dense state and as a layer state,
        # against the oracle's E applied to the dense grid
        rng = np.random.default_rng(0)
        vec = rng.normal(size=5) + 1j * rng.normal(size=5)
        vec /= np.linalg.norm(vec)
        amps = np.zeros((7, 7), dtype=complex)
        n = np.arange(5)
        amps[n, 4 - n] = vec
        expected = np.vdot(amps, apply_phase(amps))
        dense = TwoModeFockState(amps, np.ones(7), np.eye(7), 0.0)
        assert abs(analyze(dense).e_mean - expected) < 1e-15
        for st in layer_states(vec):
            assert abs(analyze(st).e_mean - expected) < 1e-15


class TestDiagonalOperators:
    def test_entries(self):
        N, L, P = diagonal_values(5)
        assert L[3, 1] == 1.0
        assert N[2, 2] == 4.0
        assert P[0, 5] == 0.0
        assert P[3, 2] == 1.0

    def test_modulus_asymmetry(self):
        # the +1 from operator ordering breaks p <-> s interchange:
        # swapping modes does not invert P (P(0,5) is 0, not 1/sqrt(5))
        P = diagonal_values(5)[2]
        assert P[5, 0] == pytest.approx(np.sqrt(5.0))
        assert P[0, 5] == 0.0
        assert P[5, 0] * P[0, 5] != pytest.approx(1.0)

    def test_N_L_commute_and_E_preserves_N(self):
        M = 8
        rng = np.random.default_rng(1)
        amps = rng.normal(size=(M + 1, M + 1)) + 1j * rng.normal(size=(M + 1, M + 1))
        N, L, _ = diagonal_values(M)
        # diagonal operators commute exactly
        assert np.array_equal(N * L, L * N)
        # E is block diagonal across layers, so it commutes with N exactly
        assert np.array_equal(N * apply_phase(amps), apply_phase(N * amps))


class TestCoherent:
    def test_vacuum(self):
        st = coherent_state(0.0, 0.0)
        amps = dense_amplitudes(st)
        assert amps[0, 0] == pytest.approx(1.0)
        assert np.sum(np.abs(amps)) == pytest.approx(1.0)
        assert dense_moments(st).n_mean == pytest.approx(0.0)

    def test_balanced_hundred_photons(self):
        a = np.sqrt(50.0)
        st = coherent_state(a, a)
        mom = dense_moments(st)
        assert mom.l_var == pytest.approx(25.0, abs=1e-6)
        assert mom.e_var == pytest.approx(0.01, rel=0.05)

    def test_cutoff_too_small(self):
        with pytest.raises(TruncationError):
            coherent_at(np.sqrt(50.0), np.sqrt(50.0), 60)

    def test_auto_cutoff(self):
        st = coherent_state(2.0, 1.0 + 1.0j)
        assert st.tail_mass < 1e-10
        n = dense_moments(st).n_mean
        assert n == pytest.approx(4.0 + 2.0, rel=1e-9)

    @pytest.mark.parametrize("nbar", [3000.0, 6000.0, 1e5, 1e6])
    def test_builds_where_the_vacuum_factor_underflows(self, nbar):
        # regression: starting the recurrence at e^{-nbar/4} zeroed the
        # vector past nbar ~ 2980 and raised a false TruncationError
        a = np.sqrt(nbar / 2.0)
        report = analyze(coherent_state(a, a))
        assert report.n_mean == pytest.approx(nbar, rel=1e-9)
        assert report.e_var == pytest.approx(coherent_e_var(nbar), rel=1e-7)

    @pytest.mark.parametrize("nbar", [0.5, 5.0, 50.0])
    def test_e_var_oracle_matches_the_dense_grid(self, nbar):
        # the oracle's closed form (mode shifts squared plus the e^(-nbar/2)
        # wrap) against E applied entry by entry to the dense amplitudes
        a = np.sqrt(nbar / 2.0)
        e_var = dense_moments(coherent_state(a, a)).e_var
        assert e_var == pytest.approx(coherent_e_var(nbar), rel=1e-9)

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
        assert np.abs(dense_amplitudes(st) - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_one_real_factor_column_per_mode(self):
        # a coherent state is the rank-one case: one column over the rows
        # that hold it (849 from row 997 of the 1876 up to the cutoff),
        # shared by two equal modes, real for a real amplitude
        a = np.sqrt(1400.0)
        st = coherent_state(a, a)
        assert st.cutoff == 1875 and (st.lo_p, st.lo_s) == (997, 997)
        assert st.d_p.shape == (849, 1)
        assert st.d_s is st.d_p
        assert st.d_p.dtype == np.float64 and st.c.dtype == np.float64
        st = coherent_state(a, 1j * a)
        assert st.d_p.shape == st.d_s.shape == (849, 1)
        assert st.d_s.dtype == np.complex128


class TestFixedTolerance:
    def test_environment_does_not_loosen_the_tail_check(self, monkeypatch):
        # the tail tolerance is fixed: no variable reads an infinite one,
        # which once let a cutoff of 5 report n_mean 9.79 for nbar 100
        monkeypatch.setenv("QELLIP_TOL", "inf")
        with pytest.raises(TruncationError,
                           match=r"truncation tail .* exceeds tolerance 1\.0e-10 at cutoff 5"):
            coherent_at(np.sqrt(50.0), np.sqrt(50.0), 5)


class TestGridBudget:
    def test_oversized_grids_rejected(self):
        # |alpha|^2 = 1e12 needs one column on 2.35e7 rows; s = 5 needs all
        # 268114 pair columns on as many rows
        with pytest.raises(InvalidParameterError, match="budget"):
            coherent_state(1e6, 1e6)
        with pytest.raises(InvalidParameterError, match="budget"):
            squeezed_for_mean_photons(20000.0, 5.0)

    def test_factors_past_the_old_grid_budget_run(self):
        # one factor column of 52710 rows, where the (M+1)^2 grid would
        # take 41 GiB
        a = np.sqrt(5e4)
        st = coherent_state(a, a)
        assert st.cutoff == 52709 and st.tail_mass < 1e-30
        report = analyze(st)
        assert report.n_mean == pytest.approx(1e5, rel=1e-12)
        assert report.l_var == pytest.approx(2.5e4, rel=1e-12)

    def test_embeds_past_the_nominal_grid_run(self):
        # an embed allocates its window, not the (N+1)^2 grid of its layer
        report = analyze(embed_phase_state(from_von_mises(1.0), 100000))
        assert report.n_mean == 100000.0
        assert 0.0 < report.p_var < 1e-9

    @staticmethod
    def planned_bytes(rows, pairs, modes, itemsize):
        # the factors of each mode over the rows of the widest reach, two
        # factor-sized scratch arrays, sixteen row vectors and two K x K
        # Grams per mode plus one
        return (((modes + 2) * pairs + 16) * rows + (2 * modes + 1) * pairs * pairs) * itemsize

    def test_budget_boundary(self, monkeypatch):
        # one shared real column at nbar 100 is built on rows 0 to 159,
        # where the Chernoff bound on its Poisson amplitude reaches the
        # row floor: 24344 bytes, at any cutoff; nbar 102 takes rows 0 to
        # 161, and a squeezed state of K = 43 columns more
        a = math.sqrt(50.0)
        monkeypatch.setattr(fock, "MAX_FACTOR_BYTES", self.planned_bytes(160, 1, 1, 8))
        assert coherent_state(a, a).cutoff == 161
        assert coherent_at(a, a, 10 ** 9).cutoff == 10 ** 9
        with pytest.raises(InvalidParameterError, match="budget"):
            coherent_state(math.sqrt(51.0), math.sqrt(51.0))
        with pytest.raises(InvalidParameterError, match="budget"):
            squeezed_for_mean_photons(100.0, 0.5)
        monkeypatch.setattr(fock, "MAX_FACTOR_BYTES", self.planned_bytes(160, 1, 1, 8) - 1)
        with pytest.raises(InvalidParameterError, match="budget"):
            coherent_state(a, a)

    @pytest.mark.parametrize("build", [
        lambda: squeezed_for_mean_photons(30.0, 2.0),
        lambda: squeezed_for_mean_photons(30.0, 2.0, 0.3),
        lambda: displaced_squeezed_state(3 + 4j, 2.0, 1.5 * np.exp(0.4j)),
        lambda: squeezed_for_mean_photons(80.0, 2.5),
        lambda: coherent_state(math.sqrt(5e5), math.sqrt(5e5)),
        lambda: squeezed_for_mean_photons(1e6, 0.5),
    ], ids=["s2-real", "s2-dphi", "displaced-complex", "s2.5", "coherent-1e6", "s0.5-1e6"])
    def test_build_and_analysis_fit_the_plan(self, monkeypatch, build):
        # the plan that MAX_FACTOR_BYTES is checked against, over the rows
        # each mode's factor is built on, bounds what a build and its
        # moments allocate
        plan, reaches = fock._budget_rows, []

        def recorded(*args):
            reaches.append(plan(*args))
            return reaches[-1]

        monkeypatch.setattr(fock, "_budget_rows", recorded)
        tracemalloc.start()
        try:
            st = build()
            analyze(st)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        modes = 1 if st.d_s is st.d_p else 2
        itemsize = max(a.itemsize for a in (st.d_p, st.d_s, st.c))
        (windows,) = reaches
        assert len(windows) == modes
        rows = max(hi - lo for lo, hi in windows)
        assert peak <= self.planned_bytes(rows, len(st.c), modes, itemsize)

    def test_embed_ignores_the_grid_budget(self, monkeypatch):
        monkeypatch.setattr(fock, "MAX_FACTOR_BYTES", self.planned_bytes(10, 1, 1, 8))
        report = analyze(embed_phase_state(from_von_mises(0.0), 12))
        assert (report.n_mean, report.l_var, report.p_var) == (12.0, 0.0, 0.0)


class TestHugeInputs:
    """Inputs far past the factor budget are refused by it, not by an
    OverflowError from the sizes computed on the way.  A layer state
    stores no grid: its layer runs at any size N/2 has a float for."""

    @pytest.mark.parametrize("call", [
        lambda: coherent_state(1e100, 1e100),
        lambda: coherent_state(1e200, 1e200),
        lambda: squeezed_for_mean_photons(1e300, 1.0),
        lambda: displaced_squeezed_state(1e200, 1e200, 0.5),
        # 5e307 rows of 1.5e17 pair columns: past the float range in bytes
        lambda: squeezed_for_mean_photons(1e308, 18.0),
    ], ids=["coherent-1e100", "coherent-1e200", "squeezed-nbar-1e300",
            "displaced-squeezed-1e200", "squeezed-s-18"])
    def test_refused_by_the_budget(self, call):
        # the cutoff and the size read to 3 digits, once integers of up to
        # 300 digits
        with pytest.raises(InvalidParameterError, match="budget") as exc:
            call()
        assert len(str(exc.value)) < 200

    def test_embed_on_a_huge_layer_runs(self):
        # the true Var P, about 4 Var L / N^2 = 1e-400, is under the
        # smallest float and rounds to 0
        report = analyze(embed_phase_state(from_von_mises(2.0), 10 ** 200))
        assert report.n_mean == 1e200
        assert report.p_var == 0.0
        assert all(np.isfinite([report.e_var, report.l_var, report.saturation_ratio]))

    def test_layer_at_the_largest_float_runs(self):
        N = int(sys.float_info.max)
        report = analyze(embed_phase_state(from_von_mises(2.0), N))
        assert report.n_mean == sys.float_info.max
        assert report.p_var == 0.0
        assert all(np.isfinite([report.e_var, report.l_var, report.saturation_ratio]))

    @pytest.mark.parametrize("call", [
        lambda: embed_phase_state(from_von_mises(2.0), 10 ** 400),
        lambda: embed_phase_state(from_von_mises(2.0), int(sys.float_info.max) + 2),
        lambda: mathieu_family(1.0).build_report(10 ** 400),
        # past Python's limit on the digits of an int printed in a message
        lambda: embed_phase_state(from_von_mises(2.0), -10 ** 5000),
    ], ids=["embed", "past-the-largest-float", "family", "negative-5000-digits"])
    def test_layer_past_the_float_range_refused(self, call):
        # N + 1 has no float; the refusal is typed, not an OverflowError
        with pytest.raises(InvalidParameterError, match="largest float"):
            call()

    def test_message_within_float_range_keeps_its_size(self):
        # nbar 2e12: the Chernoff rows of one column span 2.35e7 rows
        with pytest.raises(InvalidParameterError) as exc:
            coherent_state(1e6, 1e6)
        assert str(exc.value) == ("cutoff 1.00e+12 with K = 1 needs 3.41e+3 MiB of mode "
                                  "factors on 2.35e+7 rows, over the 1024 MiB budget")


class TestIntegerArguments:
    """Integer arguments must be whole numbers: 10.5 is refused, not read as 10."""

    @pytest.mark.parametrize("call", [
        lambda: embed_phase_state(from_von_mises(2.0), 100.7),
    ], ids=["embed"])
    def test_fraction_refused(self, call):
        with pytest.raises(InvalidParameterError, match="must be an integer"):
            call()

    def test_whole_floats_accepted(self):
        assert embed_phase_state(from_von_mises(2.0), 100.0).cutoff == 100


class TestNonFiniteInputs:
    @pytest.mark.parametrize("nbar", [np.nan, np.inf])
    def test_squeezed_photon_number(self, nbar):
        with pytest.raises(InvalidParameterError, match="finite"):
            squeezed_for_mean_photons(nbar, 0.5)

    @pytest.mark.parametrize("args, message", [
        ((math.inf, 0.5), "nbar must be finite and >= 0, got inf"),
        ((10.0, math.nan), "squeezing magnitude must be finite, got nan"),
        ((10.0, 0.5, -math.inf), "dphi must be finite, got -inf"),
    ])
    def test_squeezed_real_parameters_shown_as_given(self, args, message):
        # once passed as complex(x): "got (inf+0j)"
        with pytest.raises(InvalidParameterError) as exc:
            squeezed_for_mean_photons(*args)
        assert str(exc.value) == message

    @pytest.mark.parametrize("alpha_p, alpha_s", [(np.nan, 1.0), (1.0, np.inf)])
    def test_displacements(self, alpha_p, alpha_s):
        with pytest.raises(InvalidParameterError, match="finite"):
            coherent_state(alpha_p, alpha_s)
        with pytest.raises(InvalidParameterError, match="finite"):
            displaced_squeezed_state(alpha_p, alpha_s, 0.2)

    def test_squeezing(self):
        with pytest.raises(InvalidParameterError, match="finite"):
            displaced_squeezed_state(1.0, 1.0, complex(0.2, np.nan))


def displacement_columns(alpha, rows: int, ncols: int) -> np.ndarray:
    """<m|D(alpha)|n> for m < rows, n < ncols, as the build computes them."""
    return fock._displacement_factor(alpha, 0, rows, ncols).T


class TestDisplacement:
    """The columns of D(alpha) from the degree recurrence, against the
    Laguerre closed form (``displacement_entry``)."""

    def test_matches_laguerre_closed_form(self):
        # |alpha| = 7 on M = 300; |alpha|^2 = 2000 on the rows and K of a
        # squeezed build at s = 1; a complex and a negative amplitude
        for alpha, rows, ncols, tol in ((7.0, 301, 301, 1e-13),
                                        (np.sqrt(2000.0), 3697, 144, 1e-12),
                                        (0.7 + 0.3j, 61, 61, 3e-14),
                                        (-2.0 * np.exp(0.3j), 120, 50, 3e-14),
                                        (-3.0, 120, 50, 3e-14)):
            d = displacement_columns(alpha, rows, ncols)
            m, n = np.ogrid[:rows, :ncols]
            ref = displacement_entry(m, n, alpha)
            assert np.abs(d - ref).max() < tol, alpha

    @pytest.mark.parametrize("alpha, ncols", [(0.3, 60), (1.9, 144), (1e-3, 535)])
    def test_recessive_entries_from_the_transpose(self, alpha, ncols):
        # for n > (sqrt(m) + |alpha|)^2 the entry G[m, n] decays in n, where
        # the forward recurrence would grow the dominant solution instead;
        # |alpha| = 1e-3 also starts rows at 1e-700, under the float range
        rows = ncols + 60
        d = displacement_columns(alpha, rows, ncols)
        m, n = np.ogrid[:rows, :ncols]
        ref = displacement_entry(m, n, alpha)
        recessive = m < np.maximum(np.sqrt(n) - alpha, 0.0) ** 2
        assert recessive.sum() > 0.25 * ncols ** 2
        assert np.abs(d - ref).max() < 1e-13
        assert np.all(np.isfinite(d))

    @pytest.mark.parametrize("nbar, s, rows, ncols, lowest, tol", [
        (26.31, 2.0, 725, 604, -6591, 1e-12),
        (2.77, 1.0, 208, 124, -1477, 1e-13),
    ])
    def test_row_scales_past_the_normal_range(self, nbar, s, rows, ncols, lowest, tol):
        # the factor of `state --family squeezed --s {s} --nbar {nbar}`: its
        # rows start as low as 2^lowest, where a row's scale 2^expo is no
        # normal float: rows under 2^-1400 scale by 0 and the few between
        # by ldexp, the rest by a multiply; at s = 1 every scale is normal
        # after the first renormalization, at s = 2 some never are.
        # At degrees near 600 the columns are 1.3e-13 off the 40-digit
        # closed form, at m = n = 278
        alpha = math.sqrt(nbar / 2.0 - math.sinh(s) ** 2)
        assert fock._coherent_start(alpha, 0, rows, ncols)[1].min() == lowest
        d = displacement_columns(alpha, rows, ncols)
        m, n = np.ogrid[:rows, :ncols]
        assert np.all(np.isfinite(d))
        assert np.abs(d - displacement_entry(m, n, alpha)).max() < tol

    @pytest.mark.parametrize("nbar, s, rows, ncols, most_by_ldexp", [
        (26.31, 2.0, 725, 604, 48),
        (2.77, 1.0, 208, 124, 49),
    ])
    def test_flushed_rows_keep_the_multiply_path(self, monkeypatch, nbar, s, rows, ncols,
                                                 most_by_ldexp):
        # rows under 2^-1400 scale by 0, so every stretch scales all but a
        # few rows (those between 2^-1400 and 2^-1022) by a multiply, where
        # before a single row under 2^-1022 sent the whole stretch to ldexp;
        # the factor is bit for bit the one built by ldexp on every row
        alpha = math.sqrt(nbar / 2.0 - math.sinh(s) ** 2)
        rule, by_ldexp = fock._row_scaling, []

        def recorded(expo):
            by, odd = rule(expo)
            by_ldexp.append(len(odd))
            return by, odd

        monkeypatch.setattr(fock, "_row_scaling", recorded)
        d = fock._displacement_factor(alpha, 0, rows, ncols)
        monkeypatch.setattr(fock, "_row_scaling",
                            lambda expo: (np.zeros(len(expo)), np.arange(len(expo))))
        assert np.array_equal(d, fock._displacement_factor(alpha, 0, rows, ncols))
        assert len(by_ldexp) > 1 and max(by_ldexp) <= most_by_ldexp

    def test_a_normal_power_of_two_scales_as_ldexp(self):
        # the recurrence scales rows by a multiply while every power 2^e is
        # a normal float: bit for bit ldexp's results, the subnormal and
        # zero ones included
        rng = np.random.default_rng(5)
        x = rng.normal(size=4000) * 2.0 ** rng.integers(-60, 60, size=4000)
        e = rng.integers(-1022, 900, size=4000)
        product, exact = x * np.ldexp(1.0, e), np.ldexp(x, e)
        assert np.count_nonzero(np.abs(exact) < sys.float_info.min) > 10
        assert np.array_equal(product.view(np.int64), exact.view(np.int64))

    def test_matches_matrix_exponential(self):
        # the exponential of the truncated generator leaves the true
        # entries near its cutoff; compare them on the inner block
        import scipy.linalg
        alpha, M = 1.1 - 0.4j, 50
        a = np.diag(np.sqrt(np.arange(1, M + 1)), k=1)
        exact = scipy.linalg.expm(alpha * a.conj().T - np.conj(alpha) * a)
        assert np.abs(displacement_columns(alpha, M + 1, 30) - exact[:, :30])[:30].max() < 1e-14

    def test_unitary_even_at_large_amplitude(self):
        # rows past every column's support: orthonormal columns, where the
        # recurrence in m (sqrt(m+1) G[m+1,n] = ...) is off by 1e38 at |alpha| = 7
        for alpha, rows, ncols in ((0.9j, 300, 61), (7.0, 900, 301),
                                   (np.sqrt(2000.0), 3697, 144)):
            d = displacement_columns(alpha, rows, ncols)
            gram = d.conj().T @ d
            assert np.abs(gram - np.eye(ncols)).max() < 1e-12, alpha

    def test_zero_displacement_is_identity(self):
        assert np.array_equal(displacement_columns(0.0, 11, 11), np.eye(11))
        assert np.array_equal(displacement_columns(1e-200, 20, 5), np.eye(20, 5))


class TestSqueezed:
    def test_zero_squeezing_reduces_to_coherent(self):
        a = displaced_squeezed_state(1.0 + 0.5j, 0.3, 0.0)
        b = coherent_state(1.0 + 0.5j, 0.3)
        assert np.abs(dense_amplitudes(a) - dense_amplitudes(b)).max() == 0.0

    def test_negative_squeezing_refused(self):
        with pytest.raises(InvalidParameterError, match="squeezing magnitude must be >= 0"):
            squeezed_for_mean_photons(10.0, -0.5)

    def test_pair_correlated_vacuum(self):
        st = displaced_squeezed_state(0.0, 0.0, 0.5)
        mom = dense_moments(st)
        assert mom.l_mean == pytest.approx(0.0, abs=1e-14)
        assert mom.l_var == pytest.approx(0.0, abs=1e-14)

    def test_optimal_setting_closed_form(self):
        st = squeezed_for_mean_photons(10.0, 1.0, 0.0)
        expected = (10.0 - 2.0 * np.sinh(1.0) ** 2) * np.exp(-2.0) / 4.0
        mom = dense_moments(st)
        assert mom.l_var == pytest.approx(expected, abs=1e-3)
        assert mom.n_mean == pytest.approx(10.0, rel=1e-9)

    def test_closed_form_holds_at_large_photon_number(self):
        # regression: the displacement factors must stay accurate when the
        # per-mode amplitude is no longer small (here |alpha|^2 ~ 49)
        st = squeezed_for_mean_photons(100.0, 1.0, 0.0)
        expected = (100.0 - 2.0 * np.sinh(1.0) ** 2) * np.exp(-2.0) / 4.0
        assert dense_moments(st).l_var == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("nbar, s", [(10.0, 1e154), (-5.0, 1e154), (-5.0, 1.0),
                                         (10.0, 1.55), (1e308, 400.0)])
    def test_squeezing_past_the_photon_number_refused(self, nbar, s):
        # refused before sinh(s) can overflow: the suite turns every
        # RuntimeWarning into an error
        with pytest.raises(InvalidParameterError,
                           match="^nbar must be (finite and >= 0|>= 2 sinh\\^2 s), got"):
            squeezed_for_mean_photons(nbar, s)

    def test_cutoff_too_small_caught_by_the_measured_tail(self):
        # the mass in the rows past the cutoff, over the total
        alpha = np.sqrt(50.0 - np.sinh(1.0) ** 2)
        with pytest.raises(TruncationError, match="tail 2.6..e-05"):
            squeezed_at(alpha, alpha, 1.0, 120)
        assert squeezed_at(alpha, alpha, 1.0, 200).tail_mass < 1e-13
        # supports that start past every row of the tail check lose all
        for build in (lambda: coherent_at(100.0, 100.0, 10),
                      lambda: squeezed_at(100.0, 100.0, 1.0, 120)):
            with pytest.raises(TruncationError, match="tail 1.000e[+]00"):
                build()

    def test_mean_phase_closed_forms(self):
        # coherent: <E> ~ prod_sigma (1 - 1/(8 |alpha_sigma|^2))
        for nbar in (10.0, 50.0, 100.0):
            a = np.sqrt(nbar / 2.0)
            st = coherent_state(a, a)
            e = dense_moments(st).e_mean.real
            assert e == pytest.approx((1.0 - 1.0 / (4.0 * nbar)) ** 2, rel=2e-3)
        # squeezed: <E> ~ 1 - 2 sinh^2(s)/nbar, good for strong squeezing
        st = squeezed_for_mean_photons(100.0, 1.0, 0.0)
        e = dense_moments(st).e_mean.real
        assert e == pytest.approx(1.0 - 2.0 * np.sinh(1.0) ** 2 / 100.0, rel=0.02)

    @pytest.mark.parametrize("dphi", np.linspace(0.0, np.pi, 5))
    def test_noise_balance_cosine_dependence(self, dphi):
        nbar, s = 10.0, 1.0
        amp2 = nbar / 2.0 - np.sinh(s) ** 2
        expected = 0.25 * (2.0 * amp2 * np.cosh(2.0 * s)
                           - 2.0 * amp2 * np.cos(dphi) * np.sinh(2.0 * s))
        st = squeezed_for_mean_photons(nbar, s, dphi)
        assert dense_moments(st).l_var == pytest.approx(expected, rel=1e-9)

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


def laguerre_amplitudes(alpha_p, alpha_s, zeta, cutoff: int, ncols: int) -> np.ndarray:
    """The normalized grid of sum_{n < ncols} c_n D(alpha_p)|n> D(alpha_s)|n>
    with the displacement entries from the Laguerre closed form."""
    k, n = np.ogrid[:cutoff + 1, :ncols]
    d_p = displacement_entry(k, n, alpha_p)
    d_s = displacement_entry(k, n, alpha_s)
    amps = (d_p * _pair_amplitudes(zeta, ncols)) @ d_s.T
    return amps / np.linalg.norm(amps)


class TestSqueezedPairColumns:
    """The build keeps the K pair columns that the sum of the dropped
    pair amplitudes, (tanh s)^K / (1 - tanh s), needs to fall under
    PAIR_AMPLITUDE_FLOOR; every amplitude must still match the Laguerre
    sum over all M+1 pair columns, and every moment those of that sum."""

    @staticmethod
    def check(st, alpha_p, alpha_s, zeta, ncols):
        r = np.tanh(abs(zeta))
        pairs = len(st.c)
        assert (pairs == st.cutoff + 1
                or r ** pairs / (1.0 - r) < fock.PAIR_AMPLITUDE_FLOOR <= r ** (pairs - 1) / (1.0 - r))
        full = laguerre_amplitudes(alpha_p, alpha_s, zeta, st.cutoff, ncols)
        assert np.abs(dense_amplitudes(st) - full).max() < 1e-13
        report = analyze(st)
        ref = dense_moments(TwoModeFockState(full, np.ones(st.cutoff + 1),
                                             np.eye(st.cutoff + 1), 0.0))
        assert report.n_mean == pytest.approx(ref.n_mean, rel=1e-12)
        assert report.l_var == pytest.approx(ref.l_var, rel=1e-12)
        assert report.p_var == pytest.approx(ref.p_var, rel=1e-12)
        assert abs(report.e_mean - ref.e_mean) < 1e-13

    @pytest.mark.parametrize("alpha_p, alpha_s, zeta, cutoff", [
        (3.0 + 1.0j, -2.0 + 0.5j, 0.3 * np.exp(0.7j), None),
        (2.0 - 1.0j, 1.5j, np.exp(2.0j), None),
        (6.0, 2.0j, 1.0, None),
        # balanced nbar = 100 at dphi = 0.5, one shared factor
        (np.sqrt(50.0 - np.sinh(1.0) ** 2), np.sqrt(50.0 - np.sinh(1.0) ** 2),
         np.exp(-0.5j), None),
        # at s = 2 the pair columns reach the derived cutoff with ~1e-11 of
        # the amplitude, where truncation alone moves them; go further out
        (0.5 + 0.2j, -0.3j, 2.0 * np.exp(-0.4j), 800),
    ])
    def test_matches_laguerre_sum(self, alpha_p, alpha_s, zeta, cutoff):
        # None: the derived cutoff
        st = (displaced_squeezed_state(alpha_p, alpha_s, zeta) if cutoff is None
              else squeezed_at(alpha_p, alpha_s, zeta, cutoff))
        self.check(st, alpha_p, alpha_s, zeta, st.cutoff + 1)

    @pytest.mark.parametrize("s, nbar", [(0.5, 400.0), (0.5, 1000.0),
                                         (1.0, 400.0), (1.0, 1000.0)])
    def test_matches_dense_product(self, s, nbar):
        # the pair columns past 2K carry amplitudes under 1e-34, and the
        # Laguerre entries of the far corner of the grid leave the float
        # range at these photon numbers
        st = squeezed_for_mean_photons(nbar, s)
        alpha = np.sqrt(nbar / 2.0 - np.sinh(s) ** 2)
        self.check(st, alpha, alpha, s, 2 * len(st.c))

    @pytest.mark.parametrize("s, nbar, pairs", [(0.5, 100.0, 43), (1.0, 100.0, 124),
                                                (2.0, 400.0, 971)])
    def test_dropped_columns_stay_under_the_bound(self, monkeypatch, s, nbar, pairs):
        # against the same build under a floor a thousand times lower
        st = squeezed_for_mean_photons(nbar, s)
        monkeypatch.setattr(fock, "PAIR_AMPLITUDE_FLOOR", 1e-17)
        ref = squeezed_for_mean_photons(nbar, s)
        assert len(st.c) == pairs < len(ref.c)
        assert np.abs(dense_amplitudes(st) - dense_amplitudes(ref)).max() < 1e-14
        got, want = analyze(st), analyze(ref)
        for field in ("n_mean", "e_var", "l_var", "p_var"):
            assert getattr(got, field) == pytest.approx(getattr(want, field), rel=1e-13, abs=0.0)
        assert abs(got.e_mean - want.e_mean) <= 1e-13 * abs(want.e_mean)
        assert abs(got.l_mean - want.l_mean) <= 1e-13 * want.n_mean


def untrimmed_factors(state, alpha_p, alpha_s) -> tuple[np.ndarray, np.ndarray]:
    """The state's mode factors on every row up to its cutoff, before the
    build drops the rows outside its windows."""
    rows, pairs = state.cutoff + 1, len(state.c)
    d_p = fock._displacement_factor(alpha_p, 0, rows, pairs).T
    return d_p, d_p if alpha_s == alpha_p else fock._displacement_factor(alpha_s, 0, rows, pairs).T


def dropped_amplitude(state, d_p, d_s) -> float:
    """The largest amplitude of the untrimmed product d_p diag(c) d_s^T in
    a row of either mode that the state's windows leave out."""
    full = np.abs((d_p * state.c) @ d_s.T)
    out_p = np.ones(state.cutoff + 1, dtype=bool)
    out_p[state.lo_p:state.lo_p + len(state.d_p)] = False
    out_s = np.ones(state.cutoff + 1, dtype=bool)
    out_s[state.lo_s:state.lo_s + len(state.d_s)] = False
    return max(full[out_p].max(initial=0.0), full[:, out_s].max(initial=0.0))


class TestRowWindows:
    """A Gaussian state keeps each mode's rows from the first to the last
    whose amplitude bound reaches ROW_AMPLITUDE_FLOOR: no amplitude it
    drops exceeds the floor, and its moments are those of its dense grid."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(family=hs.sampled_from(["coherent", "displaced-squeezed", "balanced-squeezed"]),
           size_p=hs.integers(0, 1000).map(lambda i: i / 1000.0),
           size_s=hs.integers(0, 1000).map(lambda i: i / 1000.0),
           arg_p=hs.floats(-math.pi, math.pi), arg_s=hs.floats(-math.pi, math.pi),
           s=hs.integers(0, 150).map(lambda i: i / 100.0), theta=hs.floats(-math.pi, math.pi))
    @example(family="coherent", size_p=1.0, size_s=0.6, arg_p=0.4, arg_s=-2.0, s=0.0, theta=0.0)
    @example(family="displaced-squeezed", size_p=1.0, size_s=0.7, arg_p=1.0, arg_s=-0.5, s=1.5,
             theta=0.8)
    @example(family="balanced-squeezed", size_p=1.0, size_s=0.0, arg_p=0.3, arg_s=0.0, s=1.0,
             theta=0.0)
    # rank one (K = 1): both modes dark; the p mode dark, so the wrap term
    # reads a one-row window; a dim pair near |alpha| 0.5, where the wrap
    # term moves <E>; and pair columns that collapse to one at s = 1e-20
    @example(family="coherent", size_p=0.0, size_s=0.0, arg_p=0.0, arg_s=0.0, s=0.0, theta=0.0)
    @example(family="coherent", size_p=0.0, size_s=0.5, arg_p=0.0, arg_s=1.1, s=0.0, theta=0.0)
    @example(family="coherent", size_p=0.029, size_s=0.03, arg_p=-0.6, arg_s=2.5, s=0.0,
             theta=0.0)
    @example(family="displaced-squeezed", size_p=0.4, size_s=0.25, arg_p=0.9, arg_s=-1.3,
             s=1e-20, theta=0.7)
    def test_windows_hold_every_amplitude(self, family, size_p, size_s, arg_p, arg_s, s, theta):
        # cutoffs up to about 600: |alpha| up to 17 for a coherent state,
        # up to 8 beside s up to 1.5 for a squeezed one; the sizes and s
        # are drawn as integers so that the draws spread over their ranges
        reach = 17.0 if family == "coherent" else 8.0
        alpha_p, alpha_s = reach * size_p * np.exp(1j * arg_p), reach * size_s * np.exp(1j * arg_s)
        if family == "coherent":
            st = coherent_state(alpha_p, alpha_s)
        elif family == "displaced-squeezed":
            st = displaced_squeezed_state(alpha_p, alpha_s, s * np.exp(1j * theta))
        else:
            nbar = 2.0 * np.sinh(s) ** 2 + 2.0 * (reach * size_p) ** 2
            st = squeezed_for_mean_photons(nbar, s, theta)
            alpha_p = alpha_s = np.sqrt(nbar / 2.0 - np.sinh(s) ** 2)
        assert st.cutoff <= 600
        dropped = dropped_amplitude(st, *untrimmed_factors(st, alpha_p, alpha_s))
        assert dropped <= fock.ROW_AMPLITUDE_FLOOR
        report, ref = analyze(st), dense_moments(st)
        assert report.n_mean == pytest.approx(ref.n_mean, rel=1e-12)
        assert report.l_var == pytest.approx(ref.l_var, rel=1e-12)
        assert report.p_var == pytest.approx(ref.p_var, rel=1e-12)
        assert abs(report.e_mean - ref.e_mean) < 1e-13

    @pytest.mark.parametrize("build, alpha, kept, rows", [
        (lambda: coherent_state(math.sqrt(1400.0), math.sqrt(1400.0)), math.sqrt(1400.0),
         849, 1876),
        (lambda: squeezed_for_mean_photons(1000.0, 0.5), math.sqrt(500.0 - math.sinh(0.5) ** 2),
         647, 947),
    ], ids=["coherent-2800", "squeezed-0.5-1000"])
    def test_both_edges_trimmed(self, build, alpha, kept, rows):
        # about 45% and 68% of the rows up to the cutoff, cut at both ends;
        # the moments are those of the same state on every row
        st = build()
        assert (st.cutoff + 1, len(st.d_p)) == (rows, kept) and st.d_s is st.d_p
        assert 0 < st.lo_p and st.lo_p + kept < rows
        d, _ = untrimmed_factors(st, alpha, alpha)
        assert dropped_amplitude(st, d, d) <= fock.ROW_AMPLITUDE_FLOOR
        got, want = analyze(st), analyze(TwoModeFockState(d, st.c, d, st.tail_mass))
        for field in ("n_mean", "l_var", "p_var"):
            assert getattr(got, field) == pytest.approx(getattr(want, field), rel=1e-13, abs=0.0)
        # e_var = 1 - |<E>|^2 keeps the absolute digits of <E>, a few ulps
        assert abs(got.e_mean - want.e_mean) <= 1e-14
        assert abs(got.e_var - want.e_var) <= 1e-14

    @pytest.mark.parametrize("build, alpha, reach_lo, tol", [
        (lambda: coherent_state(math.sqrt(1400.0), math.sqrt(1400.0)), math.sqrt(1400.0),
         982, 1e-13),
        (lambda: squeezed_for_mean_photons(4000.0, 0.5), math.sqrt(2000.0 - math.sinh(0.5) ** 2),
         66, 1e-12),
    ], ids=["coherent-2800", "squeezed-0.5-4000"])
    def test_window_edges_against_the_closed_form(self, build, alpha, reach_lo, tol):
        # one column is built on its Chernoff rows and K = 43 columns on
        # their reach, both starting past row 0: the stored entries are the
        # Laguerre closed form's, and the rows just outside the window hold
        # an amplitude bound under the floor (single entries of the K = 43
        # factor there reach 2e-3, in columns whose pair amplitudes are
        # near 1e-14)
        st = build()
        lo, hi = fock._reach(alpha, st.cutoff, len(st.c))
        assert lo == reach_lo and lo < st.lo_p and st.lo_p + len(st.d_p) < hi
        m = np.arange(st.lo_p - 1, st.lo_p + len(st.d_p) + 1)[:, np.newaxis]
        ref = displacement_entry(m, np.arange(len(st.c)), alpha)
        assert np.abs(st.d_p - ref[1:-1]).max() < tol
        c = np.abs(st.c)
        assert (np.abs(ref[[0, -1]]) @ c).max() / np.linalg.norm(c) < fock.ROW_AMPLITUDE_FLOOR

    def test_windows_must_fit_the_cutoff(self):
        d = np.ones((5, 2))
        assert TwoModeFockState(d, np.ones(2), d, 0.0, 6, 2, 2).cutoff == 6
        for args in ((5, 2, 2),            # rows 2 to 6 past the cutoff
                     (6, -1, -1),          # a row before the first
                     (6, 1, 0),            # one shared window at two offsets
                     (6, 0, 0, np.eye(3))):  # a Gram of three columns
            with pytest.raises(DimensionMismatchError):
                TwoModeFockState(d, np.ones(2), d, 0.0, *args)

    def test_stores_the_support_not_the_cutoff(self):
        # nbar 1e6: a cutoff of 508,511, and in each mode 15,697 rows whose
        # Poisson amplitude reaches the floor
        a = math.sqrt(5e5)
        st = coherent_state(a, a)
        assert st.cutoff == 508511
        assert len(st.d_p) <= (st.cutoff + 1) // 10
        report = analyze(st)
        assert report.n_mean == pytest.approx(1e6, rel=1e-9)
        assert report.l_var == pytest.approx(2.5e5, rel=1e-9)


class TestEmbedding:
    def test_single_component(self):
        st = embed_phase_state(from_von_mises(0.0), 10)
        amps = dense_amplitudes(st)
        assert amps[5, 5] == pytest.approx(1.0)
        assert np.sum(np.abs(amps) ** 2) == pytest.approx(1.0)

    def test_moments_match_phase_side(self):
        psi = from_mathieu(solve_even_mathieu(1.0, 0))
        st = embed_phase_state(psi, 40)
        mom = circular_moments(psi)
        dense = dense_moments(st)
        assert dense.l_var == pytest.approx(mom.l_var, abs=1e-9)
        assert dense.l_mean == pytest.approx(mom.l_mean, abs=1e-9)
        assert abs(dense.e_mean - mom.e_mean) < 1e-6  # wrap term bounded by tail mass

    def test_odd_layer_rejected(self):
        with pytest.raises(InvalidParameterError):
            embed_phase_state(from_von_mises(0.0), 11)

    def test_layer_too_small(self):
        with pytest.raises(TruncationError):
            embed_phase_state(from_von_mises(80.0), 10)

    def test_box_is_the_support(self):
        # the layer state keeps the window itself, whatever the layer
        psi = from_mathieu(solve_even_mathieu(1.0, 0))
        st = embed_phase_state(psi, 40)
        assert st.psi.l_min == psi.l_min
        assert len(st.psi.amplitudes) == len(psi.amplitudes)
        ref = np.zeros((41, 41), dtype=complex)
        ref[20 + psi.l_values, 20 - psi.l_values] = psi.amplitudes
        ref /= np.linalg.norm(ref)
        assert np.abs(dense_amplitudes(st) - ref).max() < 1e-15

    def test_clipped_support_keeps_the_window(self):
        # kappa = 80 reaches l = +-36; on N = 60 only l in [-30, 30] stays,
        # and the 1.89e-11 clipped is within the tail tolerance
        psi = from_von_mises(80.0)
        assert (psi.l_min, len(psi.amplitudes)) == (-36, 73)
        st = embed_phase_state(psi, 60)
        assert st.psi.l_min == -30
        assert len(st.psi.amplitudes) == 61
        assert 1e-11 < st.tail_mass < fock.TAIL_TOL
        ref = np.zeros((61, 61), dtype=complex)
        l = np.arange(-30, 31)
        ref[30 + l, 30 - l] = psi.amplitudes[l - psi.l_min]
        ref /= np.linalg.norm(ref)
        assert np.abs(dense_amplitudes(st) - ref).max() < 1e-15

    def test_clip_past_the_tolerance_refused(self):
        # on N = 56 the clip to l in [-28, 28] loses 3.17e-10 of the norm
        with pytest.raises(TruncationError, match="tail 3.17.e-10 exceeds tolerance 1.0e-10"):
            embed_phase_state(from_von_mises(80.0), 56)

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


class TestWeightedGram:
    """``fock._weighted_gram`` against the general product d^H diag(w) d,
    entrywise within 4 eps of |d|^T diag(|w|) |d|, the scale of the
    products it sums."""

    K = fock._SYMMETRIC_FROM  # the fewest columns that take symmetric products

    @staticmethod
    def check(d, w):
        g = fock._weighted_gram(d, w)
        ref = d.conj().T @ (w[:, np.newaxis] * d)
        size = np.abs(d).T @ (np.abs(w)[:, np.newaxis] * np.abs(d))
        assert np.all(np.abs(g - ref) <= 4.0 * np.finfo(float).eps * size)
        return g

    @pytest.mark.parametrize("w", [
        np.linspace(0.5, 3.0, 300),
        -np.linspace(0.5, 3.0, 300),
        np.linspace(-0.01, 3.0, 300),  # crossing zero at the first row
        np.linspace(-1.0, 1.0, 300),  # in a middle row
        np.linspace(3.0, -0.01, 300),  # at the last row, falling
        np.arange(300.0) - 150.0,  # an exact zero where it crosses
        np.concatenate([-np.ones(100), np.zeros(100), np.ones(100)]),
        np.concatenate([np.zeros(150), np.linspace(0.0, 2.0, 150)]),
        np.concatenate([np.zeros(150), -np.ones(150)]),
    ], ids=["positive", "negative", "first-row", "middle-row", "last-row", "one-zero",
            "zero-run", "zeros-then-positive", "zeros-then-negative"])
    def test_real_factor_from_symmetric_products(self, w):
        d = np.random.default_rng(3).normal(size=(len(w), self.K))
        g = self.check(d, w)
        # symmetric products are exactly symmetric; the general one is not
        assert np.array_equal(g, g.T)

    @pytest.mark.parametrize("w", [2.5, -2.5, 0.0])
    def test_one_row(self, w):
        d = np.random.default_rng(4).normal(size=(1, self.K))
        g = self.check(d, np.array([w]))
        assert np.array_equal(g, g.T)

    def test_complex_factor(self):
        rng = np.random.default_rng(5)
        d = rng.normal(size=(300, self.K)) + 1j * rng.normal(size=(300, self.K))
        self.check(d, np.linspace(-1.0, 1.0, 300))

    def test_two_sign_changes_take_the_general_product(self):
        d = np.random.default_rng(6).normal(size=(300, self.K))
        w = np.cos(np.linspace(0.0, 2.0 * np.pi, 300))  # +, -, +
        g = self.check(d, w)
        assert not np.array_equal(g, g.T)


class TestMomentForms:
    def test_variance_of_an_eigenvector_is_zero(self):
        # one entry 0.6+0.8j on |8, 1>: L = 3.5 exactly, and the uncentred
        # <L^2> - <L>^2 left 1.8e-15 where the variance is 0
        st = TwoModeFockState(np.eye(9)[:, 8:], np.array([0.6 + 0.8j]),
                              np.eye(9)[:, 1:2], 0.0)
        assert dense_moments(st).l_var == 0.0

    def test_commutator_on_interior_states(self):
        # [E, L] = E on states clear of the layer-edge wrap
        psi = from_mathieu(solve_even_mathieu(1.0, 0))
        st = embed_phase_state(psi, 40)
        L = diagonal_values(40)[1]
        c = dense_amplitudes(st)
        resid = apply_phase(L * c) - L * apply_phase(c) - apply_phase(c)
        assert np.linalg.norm(resid) < 1e-10

    def test_modulus_linearization_sweep(self):
        # P - 1 - 2L/N carries a deterministic -1/N offset (the +1 in the
        # denominator); after removing it the residual is O(<L^2>/N^2)
        psi = from_mathieu(solve_even_mathieu(1.0, 0))
        for N in (40, 80, 160, 320):
            st = embed_phase_state(psi, N)
            c = dense_amplitudes(st)
            _, L, P = diagonal_values(N)
            resid = P * c - c - (2.0 / N) * (L * c)
            assert np.linalg.norm(resid) == pytest.approx(1.0 / N, rel=0.06)
            corrected = resid + c / N
            assert np.linalg.norm(corrected) < 3.0 / N ** 2

    def test_coherent_saturation_improves_with_nbar(self):
        ratios = []
        for nbar in (10.0, 50.0, 100.0, 400.0):
            a = np.sqrt(nbar / 2.0)
            st = coherent_state(a, a)
            mom = dense_moments(st)
            e = mom.e_mean
            e_var = 1.0 - abs(e) ** 2
            l_var = mom.l_var
            ratios.append(e_var * l_var / (0.25 * abs(e) ** 2))
        assert all(r >= 1.0 for r in ratios)
        assert ratios == sorted(ratios, reverse=True)
        assert ratios[-1] == pytest.approx(1.0, abs=0.01)

    def test_layer_extraction(self):
        # the embedded state lies on its layer alone, with unit norm there
        psi = from_mathieu(solve_even_mathieu(0.5, 0))
        dense = dense_amplitudes(embed_phase_state(psi, 20))
        n = np.arange(21)
        assert np.linalg.norm(dense[n, 20 - n]) == pytest.approx(1.0, abs=1e-12)
        dense[n, 20 - n] = 0.0
        assert np.linalg.norm(dense) == 0.0

    @pytest.mark.skipif(not np.finfo(np.longdouble).eps < 1e-18,
                        reason="np.longdouble is no wider than a double here")
    @pytest.mark.parametrize("build", [
        lambda: coherent_state(np.sqrt(200.0), np.sqrt(200.0)),
        lambda: squeezed_for_mean_photons(100.0, 1.0),
        lambda: squeezed_for_mean_photons(30.0, 1.5),
    ], ids=["coherent-400", "s1-nbar100", "s1.5-nbar30"])
    def test_variances_match_the_longdouble_grid(self, build):
        # the centred Var P expansion and the Var L covariance, from
        # symmetric Grams, against the same factors multiplied out in
        # long double (1.5e-14 at most here)
        st = build()
        l_var, p_var = longdouble_variances(st)
        report = analyze(st)
        assert report.l_var == pytest.approx(l_var, rel=1e-13)
        assert report.p_var == pytest.approx(p_var, rel=1e-13)

    @pytest.mark.parametrize("alpha_p, alpha_s", [
        (0.5, 0.5), (0.0, 0.4), (np.sqrt(200.0), np.sqrt(200.0)), (7.0, 2.0),
        (1.5 + 0.7j, -0.3 + 2.0j), (20.0, 19.0 + 1.0j),
    ])
    def test_rank_one_product_form_matches_the_gram_path(self, alpha_p, alpha_s):
        # the same state with a second pair column of amplitude zero takes
        # the K x K Gram path; the dim states hold the vacuum wrap
        st = coherent_state(alpha_p, alpha_s)
        d_p = np.hstack([st.d_p, np.zeros_like(st.d_p)])
        d_s = d_p if st.d_s is st.d_p else np.hstack([st.d_s, np.zeros_like(st.d_s)])
        wide = TwoModeFockState(d_p, np.append(st.c, 0.0), d_s, st.tail_mass, st.cutoff,
                                st.lo_p, st.lo_s)
        got, want = st.moments(), wide.moments()
        for i in (0, 4, 5):  # n_mean, l_var, p_var
            assert got[i] == pytest.approx(want[i], rel=4e-15, abs=0.0)
        assert abs(got[1] - want[1]) <= 1e-15
        assert abs(got[3] - want[3]) <= 4e-15 * got[0]

    def test_factors_must_fit_the_grid(self):
        ones = np.ones((5, 2))
        with pytest.raises(DimensionMismatchError):
            fock.TwoModeFockState(ones, np.ones(2), np.ones((6, 2)), 0.0)
        with pytest.raises(DimensionMismatchError):
            fock.TwoModeFockState(ones, np.ones(3), ones, 0.0)

"""Fresnel coefficients, characteristic matrices, stack files."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qellip import (
    InvalidParameterError,
    Layer,
    LayerStack,
    NumericalDomainError,
    StackParseError,
    analyze,
    coherent_state,
    fresnel_interface,
    parse_stack_text,
    rho_uncertainty,
    stack_reflection,
)

from oracles import airy_reflection, random_stack

SIO2_ON_SI = LayerStack(1.0, (Layer(1.46 + 0.0j, 100.0),), 3.85 + 0.02j,
                        632.8, np.deg2rad(70.0))


class TestFresnel:
    def test_brewster_null(self):
        r_p, r_s = fresnel_interface(1.0, 1.5, np.arctan(1.5))
        assert abs(r_p) < 1e-14
        assert abs(r_s) > 0.1

    def test_normal_incidence_signs(self):
        r_p, r_s = fresnel_interface(1.0, 1.5, 0.0)
        assert r_s == pytest.approx(-0.2)
        assert r_p == pytest.approx(+0.2)
        assert r_p / r_s == pytest.approx(-1.0)

    def test_matched_media(self):
        r_p, r_s = fresnel_interface(1.5, 1.5, 0.7)
        assert r_p == 0.0
        assert r_s == 0.0

    def test_zero_incident_index_rejected(self):
        with pytest.raises(InvalidParameterError):
            fresnel_interface(0.0, 1.5, 0.3)

    @pytest.mark.parametrize("n_i, n_t, theta, match", [
        (1.0, 1.5, 3.0, "angle of incidence"),  # once |r_p| = 5.07
        (1.0, 1.5, -0.1, "angle of incidence"),
        (1.0, 1.5, np.pi / 2.0, "angle of incidence"),
        (1.0, 1.5 - 0.1j, 0.3, "Im\\(n\\) >= 0"),  # once |r_p| = 5.2
        (1.0 - 0.1j, 1.5, 0.3, "Im\\(n\\) >= 0"),
        (1.0, np.inf, 0.3, "finite"),  # once NaN with no warning
        (complex(1.0, np.nan), 1.5, 0.3, "finite"),
        (1j, 0j, 0.0, "nonzero"),  # once ZeroDivisionError
        (1.0, 1e200, 0.3, "under 1e150"),  # once NaN
    ])
    def test_refuses_what_the_stack_refuses(self, n_i, n_t, theta, match):
        with pytest.raises(InvalidParameterError, match=match):
            fresnel_interface(n_i, n_t, theta)
        with pytest.raises(InvalidParameterError, match=match):
            LayerStack(n_i, (), n_t, 632.8, theta)

    @given(st.floats(1.01, 4.0), st.floats(0.0, 1.5))
    @settings(max_examples=60, deadline=None)
    def test_lossless_energy_bound(self, n, theta):
        r_p, r_s = fresnel_interface(1.0, n, theta)
        assert abs(r_p) <= 1.0 + 1e-12
        assert abs(r_s) <= 1.0 + 1e-12


class TestStackReflection:
    def test_no_layers_equals_fresnel(self):
        stack = LayerStack(1.0, (), 3.85 + 0.02j, 632.8, 1.1)
        res = stack_reflection(stack)
        r_p, r_s = fresnel_interface(1.0, 3.85 + 0.02j, 1.1)
        assert res.r_p == pytest.approx(r_p, abs=1e-14)
        assert res.r_s == pytest.approx(r_s, abs=1e-14)

    def test_zero_thickness_layer_is_identity(self):
        with_film = LayerStack(1.0, (Layer(2.1 + 0.3j, 0.0),), 1.5, 632.8, 0.4)
        bare = LayerStack(1.0, (), 1.5, 632.8, 0.4)
        a, b = stack_reflection(with_film), stack_reflection(bare)
        assert a.r_p == b.r_p
        assert a.r_s == b.r_s

    def test_half_wave_film_is_absentee(self):
        n, lam = 1.46, 632.8
        film = LayerStack(1.0, (Layer(n + 0j, lam / (2.0 * n)),),
                          3.85 + 0.02j, lam, 0.0)
        bare = LayerStack(1.0, (), 3.85 + 0.02j, lam, 0.0)
        assert abs(stack_reflection(film).rho
                   - stack_reflection(bare).rho) < 1e-10

    def test_film_example_against_airy_oracle(self):
        res = stack_reflection(SIO2_ON_SI)
        assert abs(res.r_p - airy_reflection(SIO2_ON_SI, "p")) < 1e-10
        assert abs(res.r_s - airy_reflection(SIO2_ON_SI, "s")) < 1e-10

    def test_randomized_stacks_against_airy_oracle(self):
        rng = np.random.default_rng(1234)
        for _ in range(100):
            stack = random_stack(rng)
            res = stack_reflection(stack)
            assert abs(res.r_p - airy_reflection(stack, "p")) < 1e-10
            assert abs(res.r_s - airy_reflection(stack, "s")) < 1e-10

    def test_lossless_energy_bound(self):
        rng = np.random.default_rng(99)
        for _ in range(60):
            res = stack_reflection(random_stack(rng, lossless=True))
            assert abs(res.r_p) <= 1.0 + 1e-12
            assert abs(res.r_s) <= 1.0 + 1e-12

    def test_continuity_as_thickness_vanishes(self):
        bare = stack_reflection(LayerStack(1.0, (), 2.5 + 0.1j, 600.0, 0.9))
        thin = stack_reflection(LayerStack(1.0, (Layer(1.8 + 0j, 1e-10),),
                                           2.5 + 0.1j, 600.0, 0.9))
        assert abs(thin.r_p - bare.r_p) < 1e-12
        assert abs(thin.r_s - bare.r_s) < 1e-12

    def test_rho_is_scale_invariant(self):
        res = stack_reflection(SIO2_ON_SI)
        scale = 0.3 - 0.8j
        assert (scale * res.r_p) / (scale * res.r_s) == pytest.approx(res.rho,
                                                                      abs=1e-14)

    def test_result_field_consistency(self):
        res = stack_reflection(SIO2_ON_SI)
        assert res.rho == pytest.approx(res.r_p / res.r_s, abs=1e-15)
        assert np.tan(res.psi_angle) == pytest.approx(abs(res.rho), abs=1e-12)
        assert 0.0 <= res.psi_angle <= np.pi / 2.0
        assert 0.0 <= res.delta < 2.0 * np.pi

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("ambient, film, thickness, substrate, angle", [
        (1.0, 2.0 + 1.0j, 1e6, 1.5 + 0.1j, 17.0),  # a 1 mm absorbing film
        (1.5, 1.0 + 0j, 1e5, 1.5 + 0j, 60.0),      # frustrated total reflection
    ])
    def test_opaque_film_reflects_as_substrate(self, ambient, film, thickness, substrate, angle):
        # Im beta ~ 1e3 to 1e4: cos beta overflows unless the film is opaque
        theta = np.deg2rad(angle)
        res = stack_reflection(LayerStack(ambient, (Layer(film, thickness),), substrate,
                                          500.0, theta))
        r_p, r_s = fresnel_interface(ambient, film, theta)
        assert abs(res.r_p - r_p) < 1e-12
        assert abs(res.r_s - r_s) < 1e-12

    @pytest.mark.filterwarnings("error")
    def test_opaque_film_hides_the_layers_under_it(self):
        above = (Layer(1.46 + 0j, 100.0), Layer(2.3 + 0j, 35.0))
        below = (Layer(1.3 + 0j, 50.0), Layer(4.0 + 2.0j, 1e300))
        theta = np.deg2rad(55.0)
        full = stack_reflection(LayerStack(1.0, above + (Layer(2.0 + 1.0j, 1e5),) + below,
                                           3.85 + 0.02j, 632.8, theta))
        cut = stack_reflection(LayerStack(1.0, above, 2.0 + 1.0j, 632.8, theta))
        assert (full.r_p, full.r_s) == (cut.r_p, cut.r_s)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("thickness", [1e20, 1e308])
    def test_film_past_the_phase_digits_rejected(self, thickness):
        # a lossless film whose phase thickness passes 2^52 rad keeps no
        # digit of its phase; at 1e308 nm beta is not even finite
        stack = LayerStack(1.0, (Layer(1.5 + 0j, thickness),), 1.5 + 0.1j,
                           500.0, np.deg2rad(17.0))
        with pytest.raises(NumericalDomainError, match=r"2\^52 rad"):
            stack_reflection(stack)

    def test_thin_film_unaffected_by_the_phase_check(self):
        # the same stack at 300 nm, and just under the 2^52 rad edge
        theta = np.deg2rad(17.0)
        thin = LayerStack(1.0, (Layer(1.5 + 0j, 300.0),), 1.5 + 0.1j, 500.0, theta)
        res = stack_reflection(thin)
        assert abs(res.r_p - airy_reflection(thin, "p")) < 1e-10
        assert abs(res.r_s - airy_reflection(thin, "s")) < 1e-10
        w = np.sqrt(1.5 ** 2 - np.sin(theta) ** 2)
        edge = 0.99 * 2.0 ** 52 * 500.0 / (2.0 * np.pi * w)
        res = stack_reflection(LayerStack(1.0, (Layer(1.5 + 0j, edge),), 1.5 + 0.1j, 500.0, theta))
        assert np.isfinite([res.r_p, res.r_s, res.rho]).all()

    @pytest.mark.filterwarnings("error")
    def test_films_opaque_together_but_not_alone(self):
        # 60 films of Im beta ~ 15, none opaque alone: the unscaled matrix
        # product overflowed and every field read NaN
        stack = LayerStack(1.0, (Layer(2.0 + 1.0j, 1200.0),) * 60, 1.5 + 0.1j,
                           500.0, np.deg2rad(17.0))
        res = stack_reflection(stack)
        assert abs(res.r_p - airy_reflection(stack, "p")) < 1e-10
        assert abs(res.r_s - airy_reflection(stack, "s")) < 1e-10

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("pol", ["p", "s"])
    def test_double_barrier_resonance(self, pol):
        # two frustrated-total-reflection gaps (Im beta 10.0 and 10.5, 20.5
        # together) around a well tuned to resonance: the tunnelling undoes
        # the decay, so no film may be cut as opaque.  The bounce series in
        # the well needs about 1e10 terms, so the oracle is the resonance
        # peak |r| = |T1 - T2| / (T1 + T2), with each barrier's T = 1 - |r|^2
        # and the reflection phases that tune the well from the Airy oracle.
        theta, lam = np.deg2rad(60.0), 500.0
        gap1, gap2 = Layer(1.0 + 0j, 960.0), Layer(1.0 + 0j, 1008.0)
        r1 = airy_reflection(LayerStack(1.5, (gap1,), 1.5, lam, theta), pol)
        r2 = airy_reflection(LayerStack(1.5, (gap2,), 1.5, lam, theta), pol)
        t1, t2 = 1.0 - abs(r1) ** 2, 1.0 - abs(r2) ** 2
        beta = np.pi - np.angle(r1 * r2) / 2.0  # round trip r1 r2 e^{2 i beta} > 0
        well = Layer(1.5 + 0j, beta * lam / (2.0 * np.pi * 1.5 * np.cos(theta)))
        res = stack_reflection(LayerStack(1.5, (gap1, well, gap2), 1.5, lam, theta))
        r = res.r_p if pol == "p" else res.r_s
        assert abs(abs(r) - abs(t1 - t2) / (t1 + t2)) < 1e-7  # about 0.462, not 1

    @pytest.mark.filterwarnings("error")
    def test_alternating_admittances_stay_finite(self):
        # 40 pairs of a tiny-index film (p admittance 3.4e-10) and a dense
        # one: lossless, yet the unscaled product passed the float range
        # and r_p, rho, psi and Delta read NaN
        pairs = (Layer(1e-5 + 0j, 10.0), Layer(3.0 + 0j, 100.0)) * 40
        res = stack_reflection(LayerStack(1.0, pairs, 1.5 + 0j, 500.0, np.deg2rad(17.0)))
        assert np.isfinite([res.r_p, res.r_s, res.rho, res.psi_angle, res.delta]).all()
        assert abs(res.r_p) <= 1.0 + 1e-12 and abs(res.r_s) <= 1.0 + 1e-12

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("index", [1e-200, 1e-155, 1e-100 + 1e-200j])
    def test_tiny_film_index_refused(self, index):
        # the parent divided by zero where n^2 underflows and overflowed in
        # sin beta / eta just above that
        stack = LayerStack(1.0, (Layer(complex(index), 10.0),), 1.5 + 0.1j,
                           500.0, np.deg2rad(17.0))
        with pytest.raises(NumericalDomainError, match="vanishing admittance"):
            stack_reflection(stack)

    def test_vanishing_s_reflection_refused(self):
        # index-matched real media reflect nothing: rho = r_p / r_s is undefined
        stack = LayerStack(1.5, (), 1.5, 500.0, 0.0)
        with pytest.raises(NumericalDomainError, match="s-polarized reflection vanishes"):
            stack_reflection(stack)

    def test_grazing_layer_mode_rejected(self):
        # a layer index matching the transverse wavevector kills cos(theta)
        theta = 1.0
        stack = LayerStack(1.0, (Layer(complex(np.sin(theta)), 50.0),),
                           1.5, 632.8, theta)
        with pytest.raises(NumericalDomainError):
            stack_reflection(stack)


class TestStackValidation:
    def test_negative_thickness(self):
        with pytest.raises(InvalidParameterError):
            LayerStack(1.0, (Layer(1.5 + 0j, -1.0),), 1.5, 632.8, 0.3)

    def test_gain_index_rejected(self):
        with pytest.raises(InvalidParameterError):
            LayerStack(1.0, (), 1.5 - 0.1j, 632.8, 0.3)

    def test_bad_wavelength_and_angle(self):
        with pytest.raises(InvalidParameterError):
            LayerStack(1.0, (), 1.5, 0.0, 0.3)
        with pytest.raises(InvalidParameterError):
            LayerStack(1.0, (), 1.5, 632.8, np.pi / 2.0)
        with pytest.raises(InvalidParameterError):
            LayerStack(1.0, (), 1.5, np.inf, 0.3)

    @pytest.mark.parametrize("thickness", [np.nan, np.inf])
    def test_non_finite_thickness(self, thickness):
        # regression: a NaN thickness passed and gave rho = nan+nanj
        with pytest.raises(InvalidParameterError, match="finite"):
            LayerStack(1.0, (Layer(1.5 + 0j, thickness),), 1.5, 632.8, 0.3)

    @pytest.mark.parametrize("index", [0j, 1e150, 1e200j])
    def test_zero_and_huge_indices_refused_in_every_medium(self, index):
        # the parent passed them: a film of index 0 and a substrate of 1e200
        # printed NaN in every field
        film = (Layer(1.5 + 0j, 10.0),)
        for ambient, layers, substrate in ((index, film, 1.5), (1.0, (Layer(index, 10.0),), 1.5),
                                           (1.0, film, index)):
            with pytest.raises(InvalidParameterError, match="nonzero and under 1e150"):
                LayerStack(ambient, layers, substrate, 632.8, 0.3)

    @pytest.mark.parametrize("index", [complex(np.nan, 0.0), complex(1.5, np.inf)])
    def test_non_finite_index(self, index):
        with pytest.raises(InvalidParameterError, match="finite"):
            LayerStack(1.0, (Layer(index, 10.0),), 1.5, 632.8, 0.3)
        with pytest.raises(InvalidParameterError, match="finite"):
            LayerStack(1.0, (), index, 632.8, 0.3)


class TestNoiseAnnotation:
    def test_coherent_bars_on_bare_glass(self):
        stack = LayerStack(1.0, (), 1.5, 632.8, np.deg2rad(70.0))
        a = np.sqrt(50.0)
        result = stack_reflection(stack)
        bars = rho_uncertainty(analyze(coherent_state(a, a)))
        assert bars.sigma_delta == pytest.approx(0.1, rel=0.1)
        assert result.r_s == pytest.approx(fresnel_interface(1.0, 1.5,
                                                             np.deg2rad(70.0))[1])

    def test_phase_profile_shrinks_modulus_bar_at_equal_photons(self):
        from qellip import embed_phase_state, from_mathieu, solve_even_mathieu
        from qellip.phase_space import circular_moments
        nbar = 100
        a = np.sqrt(nbar / 2.0)
        coh = rho_uncertainty(analyze(coherent_state(a, a)))
        psi = from_mathieu(solve_even_mathieu(1.0, 0))
        mat = rho_uncertainty(analyze(embed_phase_state(psi, nbar)))
        # modulus channel improves by sqrt(Var L / (nbar/4)) at equal nbar
        expected = np.sqrt(circular_moments(psi).l_var / (nbar / 4.0))
        ratio = mat.sigma_tanpsi_rel / coh.sigma_tanpsi_rel
        assert ratio == pytest.approx(expected, rel=0.05)
        assert ratio < 0.1


class TestStackFiles:
    GOOD = """\
# SiO2-like film on an absorbing substrate
ambient 1.0
wavelength 632.8
layer 1.46 0.0 100.0
substrate 3.85 0.02
angle 70
"""

    def test_parse_and_reflect(self):
        stack = parse_stack_text(self.GOOD)
        assert stack.layers == (Layer(1.46 + 0.0j, 100.0),)
        assert stack.angle_of_incidence == pytest.approx(np.deg2rad(70.0))
        res = stack_reflection(stack)
        ref = stack_reflection(SIO2_ON_SI)
        assert res.rho == ref.rho

    def test_layer_order_is_significant(self):
        two = parse_stack_text(
            "ambient 1.0\nlayer 1.46 0 80\nlayer 2.3 0.1 40\n"
            "substrate 3.85 0.02\nwavelength 632.8\nangle 65\n")
        swapped = parse_stack_text(
            "ambient 1.0\nlayer 2.3 0.1 40\nlayer 1.46 0 80\n"
            "substrate 3.85 0.02\nwavelength 632.8\nangle 65\n")
        assert stack_reflection(two).rho != stack_reflection(swapped).rho

    def test_other_keys_order_insensitive(self):
        reordered = parse_stack_text(
            "angle 70\nsubstrate 3.85 0.02\nlayer 1.46 0.0 100.0\n"
            "wavelength 632.8\nambient 1.0\n")
        assert stack_reflection(reordered).rho == stack_reflection(
            parse_stack_text(self.GOOD)).rho

    @pytest.mark.parametrize("text", [
        "ambient 1.0\nsubstrate 1.5 0\nwavelength 600\n",       # missing angle
        "ambient 1.0\nambient 1.0\nsubstrate 1.5 0\nwavelength 600\nangle 50\n",
        "ambient 1.0\nsubstrate 1.5 0\nwavelength 600\nangle fifty\n",
        "ambient 1.0\nlayer 1.46 100.0\nsubstrate 1.5 0\nwavelength 600\nangle 50\n",
        "ambient 1.0\nmystery 3\nsubstrate 1.5 0\nwavelength 600\nangle 50\n",
        "ambient 1.0\nsubstrate 1.5 -0.2\nwavelength 600\nangle 50\n",
    ])
    def test_parse_errors(self, text):
        with pytest.raises(StackParseError):
            parse_stack_text(text)

    BASE = ["ambient 1.0", "substrate 1.5 0", "wavelength 600", "angle 50"]

    @pytest.mark.parametrize("key", [0, 1, 2, 3])
    def test_duplicate_entry_names_key_and_line(self, key):
        lines = self.BASE[:key + 1] + ["# repeated below", self.BASE[key]] + self.BASE[key + 1:]
        name = self.BASE[key].split()[0]
        with pytest.raises(StackParseError) as err:
            parse_stack_text("\n".join(lines))
        assert str(err.value) == f"line {key + 3}: duplicate {name}"

    @pytest.mark.parametrize("present, missing", [
        ([], "ambient, substrate, wavelength, angle"),
        ([3, 0], "substrate, wavelength"),
        ([2, 1], "ambient, angle"),
        ([0, 1, 2], "angle"),
    ])
    def test_missing_entries_listed_in_schema_order(self, present, missing):
        with pytest.raises(StackParseError) as err:
            parse_stack_text("\n".join(self.BASE[i] for i in present))
        assert str(err.value) == f"missing required entries: {missing}"

    @pytest.mark.parametrize("line, count, got", [
        ("ambient 1.0 0.0", 1, 2),
        ("substrate 1.5", 2, 1),
        ("wavelength", 1, 0),
        ("angle 50 60", 1, 2),
        ("layer 1.46 0.0", 3, 2),
    ])
    def test_wrong_value_count(self, line, count, got):
        key = line.split()[0]
        lines = [line] + [b for b in self.BASE if b.split()[0] != key]
        with pytest.raises(StackParseError) as err:
            parse_stack_text("\n".join(lines))
        assert str(err.value) == f"line 1: expected {count} value(s), got {got}"

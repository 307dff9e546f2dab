"""Internal consistency of the closed-form reference expressions."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from twoatom_cbs.oracles import alpha_closed_form, polynomials

from closed_forms import (
    ALPHA_STRONG_FIELD_LIMIT,
    CROSSED_WEIGHTS,
    LADDER_WEIGHTS,
    elastic_closed_form,
    line_positions,
    lorentzian_kernel,
    scattering_amplitudes,
    strong_field_integrals,
    strong_field_spectra,
    weak_field_master_spectra,
    weak_field_spectra,
)


class TestPolynomials:
    def test_values_at_zero(self):
        r1, r2, p = polynomials(0.0)
        assert (r1, r2, p) == (0.0, 0.0, 384.0)

    def test_hand_evaluation_at_one(self):
        r1, r2, p = polynomials(1.0)
        assert r1 == pytest.approx(2 * 10365 / 9)
        assert r2 == pytest.approx(1819 / 3)
        assert p == pytest.approx(4 * 13 * 53)

    def test_large_s_ratio(self):
        # leading coefficients give R1/(s R2) -> 2/21
        s = 1e8
        r1, r2, _ = polynomials(s)
        assert r1 / (s * r2) == pytest.approx(2 / 21, rel=1e-6)


class TestAlpha:
    def test_limits(self):
        assert alpha_closed_form(0.0) == pytest.approx(2.0)
        assert alpha_closed_form(1e8) == pytest.approx(float(ALPHA_STRONG_FIELD_LIMIT), rel=1e-6)
        assert ALPHA_STRONG_FIELD_LIMIT == Fraction(23, 21)

    def test_weak_field_slope(self):
        s = 0.001
        assert alpha_closed_form(s) == pytest.approx(2 - s / 4, abs=1e-5)

    @given(st.floats(1e-6, 1e6))
    def test_on_resonance_range(self, s):
        # always enhancing on resonance; approaches 23/21 from below at
        # large s after dipping under the limit near s ~ 100
        a = alpha_closed_form(s)
        assert 1.0 < a <= 2.0


class TestElastic:
    def test_zero_drive(self):
        assert elastic_closed_form(0.0) == 0.0

    def test_strong_field_decay(self):
        # falls off as s^-3 deep in saturation
        ratio = elastic_closed_form(1e4) / elastic_closed_form(1e5)
        assert ratio == pytest.approx(1e3, rel=0.01)

    def test_detuning_scaling(self):
        assert elastic_closed_form(1.0, delta=3.0) == pytest.approx(
            elastic_closed_form(1.0) / 10.0
        )


class TestWeakFieldSpectra:
    def test_line_center_values(self):
        lad, cro = weak_field_spectra(0.0, 0.0)
        assert lad == pytest.approx(2.0)
        assert cro == pytest.approx(2.0)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(-10, 10), st.floats(-5, 5))
    def test_built_from_amplitudes(self, nu, delta):
        e1, e2 = scattering_amplitudes(nu, delta)
        lad, cro = weak_field_spectra(nu, delta)
        assert abs(e1) ** 2 + abs(e2) ** 2 == pytest.approx(lad, rel=1e-12, abs=1e-15)
        assert 2 * (e1 * np.conj(e2)).real == pytest.approx(cro, rel=1e-12, abs=1e-15)

    def test_crossed_dispersive_sign_change(self):
        # detuned crossed spectrum flips sign around nu = -delta
        _, below = weak_field_spectra(-6.5, 5.0)
        _, above = weak_field_spectra(-4.5, 5.0)
        assert below * above < 0

    def test_master_equation_integrals(self):
        rabi = 0.1
        for density_index, target in ((0, 7 / 16), (1, 3 / 8)):
            val, _ = quad(
                lambda nu: weak_field_master_spectra(nu, rabi)[density_index],
                -np.inf, np.inf,
            )
            assert val == pytest.approx(target * rabi**4, rel=1e-8)


class TestStrongFieldSpectra:
    def test_kernel_normalization(self):
        for x1 in (0.5, 1.0, 3.0):
            val, _ = quad(lambda nu: lorentzian_kernel(x1, nu), -np.inf, np.inf)
            assert val == pytest.approx(1.0, abs=1e-6)

    def test_weight_sums_exact(self):
        lad = sum(w * (1 if off == 0 else 2) for w, _, off in LADDER_WEIGHTS)
        cro = sum(w * (1 if off == 0 else 2) for w, _, off in CROSSED_WEIGHTS)
        assert lad == Fraction(14, 3)
        assert cro == Fraction(4, 9)
        assert cro / lad == ALPHA_STRONG_FIELD_LIMIT - 1

    def test_integrals_match_weight_sums(self):
        lad, cro = strong_field_integrals(50.0)
        assert lad == pytest.approx((14 / 3) / 50.0**2)
        assert cro == pytest.approx((4 / 9) / 50.0**2)

    def test_sideband_signs(self):
        rabi = 100.0
        lad, cro = strong_field_spectra(np.array([rabi]), rabi)
        assert lad[0] > 0
        assert cro[0] < 0  # negative weight at nu = +-Omega

    def test_quadrature_of_kernel_sum(self):
        rabi = 40.0
        cutoff = 300 * rabi
        val, _ = quad(lambda nu: strong_field_spectra(nu, rabi)[0], -cutoff, cutoff,
                      points=[-2 * rabi, -rabi, 0, rabi, 2 * rabi], limit=400)
        assert val == pytest.approx((14 / 3) / rabi**2, rel=1e-3)

    def test_dispersive_term_vanishes_at_centers(self):
        rabi = 100.0
        # the (1/Omega)^3 pair is odd around +-Omega/2, so the crossed
        # density there is set by the Lorentzian tails only
        _, cro = strong_field_spectra(np.array([rabi / 2]), rabi)
        tails = 0.5 * lorentzian_kernel(2.0, rabi / 2) + 0.25 * lorentzian_kernel(3.0, rabi / 2)
        assert cro[0] == pytest.approx(tails / rabi**2, rel=0.5)


class TestLinePositions:
    def test_symmetric_set_on_resonance(self):
        pos = line_positions(100.0, 0.0)
        assert np.allclose(pos, [-200, -100, -50, 0, 50, 100, 200])

    def test_detuned_doublet(self):
        pos = line_positions(100.0, 20.0)
        omega_mod = np.sqrt(10400.0)
        assert pos[2] == pytest.approx(-(omega_mod + 20) / 2)
        assert pos[4] == pytest.approx((omega_mod - 20) / 2)
        assert omega_mod == pytest.approx(101.980, abs=1e-3)

    def test_continuity_at_zero_detuning(self):
        assert np.allclose(line_positions(50.0, 1e-9), line_positions(50.0, 0.0),
                           atol=1e-8)

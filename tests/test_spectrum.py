"""Emission-spectrum pipeline: regression vectors, densities, sum rules."""

import numpy as np
import pytest

from twoatom_cbs.basis import expectation as basis_expectation
from twoatom_cbs.spectrum import (
    SpectrumResult,
    check_sum_rule,
    default_nu_grid,
    elastic_weight,
    inelastic_spectrum,
    normalized_spectra,
    qrt_initial,
)
from twoatom_cbs.steady_state import (
    Propagator,
    ResolventError,
    dipole_expectations,
    intensities,
    perturbative_steady_state,
)

from conftest import generator, spectrum_at, stationary


class TestRegressionVectors:
    def test_source_weight_is_first_order_dipole(self):
        gen, state, _ = stationary(1.0)
        corr = qrt_initial(1, state)
        d1, _ = dipole_expectations(state, 1)
        assert corr.source_weight == pytest.approx(d1)

    def test_initial_condition_matches_operator_product(self):
        # <sigma_21^1 B_n>_ss must equal the expectation of the matrix
        # product sigma_21^1 @ B_n, order by order
        from twoatom_cbs.basis import sigma, two_atom_basis_flat

        gen, state, _ = stationary(2.0, 1.0)
        corr = qrt_initial(1, state)
        op = np.kron(sigma(2, 1), np.eye(4, dtype=complex))
        flat = two_atom_basis_flat()
        rng = np.random.default_rng(5)
        for n in rng.integers(1, 256, size=6):
            product = op @ flat[n].reshape(16, 16)
            for order in (0, 1, 2):
                want = basis_expectation(product, state.order(order), order=order)
                assert corr.s0(order)[n - 1] == pytest.approx(want, abs=1e-12)


class TestDensities:
    def test_even_in_nu_on_resonance(self, weak_point):
        _, spec, _ = weak_point
        assert np.allclose(spec.ladder_density, spec.ladder_density[::-1], atol=1e-12)
        assert np.allclose(spec.crossed_density, spec.crossed_density[::-1], atol=1e-12)

    def test_default_grid_covers_resonances(self):
        gen = generator(10.0, 5.0)
        grid = default_nu_grid(gen.cfg)
        omega_mod = np.hypot(10.0, 5.0)
        assert grid[0] < -2 * omega_mod and grid[-1] > 2 * omega_mod

    def test_elastic_weight_is_stationary_elastic_intensity(self):
        gen, state, ib = stationary(1.0)
        assert elastic_weight(state, gen) == pytest.approx(ib.L_el + ib.C_el)

    def test_ladder_density_positive(self, weak_point):
        _, spec, _ = weak_point
        assert np.all(spec.ladder_density > 0)

    def test_stabilized_source_term_matches_naive_form(self):
        # [G0(z) V G0(z) - G0 V G0] j / z evaluated naively loses digits
        # as nu -> 0; the rewritten form must agree where both are sound
        gen = generator(1.0)
        g0 = Propagator(gen.A, 0.0)
        u0 = g0(gen.j)
        static = g0(gen.V @ u0)
        for nu in (1e-3, 1e-4, 1e-5, 1e-6):
            z = -1j * nu
            g0z = Propagator(gen.A, z)
            naive = (g0z(gen.V @ g0z(gen.j)) - static) / z
            stabilized = -g0z(g0(gen.V @ g0z(gen.j))) - g0(gen.V @ g0z(u0))
            scale = np.linalg.norm(stabilized)
            assert np.linalg.norm(naive - stabilized) / scale < 1e-6


class TestSumRules:
    def test_weak_field_sum_rule(self, weak_point):
        _, spec, ib = weak_point
        report = check_sum_rule(spec, ib, tolerance=1e-3)
        assert report.ladder_error < 1e-4

    def test_violated_sum_rule_raises(self, weak_point):
        _, spec, ib = weak_point
        from dataclasses import replace

        broken = replace(spec, ladder_density=2 * spec.ladder_density)
        with pytest.raises(ResolventError):
            check_sum_rule(broken, ib)

    def test_tail_estimates_bound_the_missing_mass(self, strong_point):
        # the truncated trapezoid slightly undershoots the stationary
        # intensity; the quadratic-tail estimate has the right sign and
        # magnitude (it overshoots somewhat because the outermost pole
        # sits far from nu = 0, so it brackets the true missing mass)
        _, spec, ib = strong_point
        bare_l, _ = spec.integrals(tail_correction=False)
        tail_l, tail_c = spec.tail_estimates()
        missing = ib.L_inel - bare_l
        assert missing > 0
        assert tail_l > 0 and tail_c > 0
        assert missing < tail_l < 10 * missing


class TestNormalization:
    def test_normalized_ladder_integrates_to_one(self, weak_point):
        _, spec, ib = weak_point
        norm = normalized_spectra(spec, ib)
        lad, cro = norm.integrals()
        assert lad == pytest.approx(1.0, abs=2e-4)
        assert cro == pytest.approx(ib.C_inel / ib.L_inel, abs=2e-4)
        assert norm.normalized

    def test_normalization_requires_positive_ladder(self, weak_point):
        from dataclasses import replace

        _, spec, ib = weak_point
        bad = replace(ib, L_inel=-1.0)
        with pytest.raises(ValueError):
            normalized_spectra(spec, bad)

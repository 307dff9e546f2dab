"""Stationary-state pipeline against closed forms and the exact solver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twoatom_cbs.basis import expectation, sigma
from twoatom_cbs.liouvillian import DriveConfig, Geometry, assemble
from twoatom_cbs.oracles import alpha_closed_form, polynomials
from twoatom_cbs.steady_state import (
    Propagator,
    intensities,
    nonperturbative_steady_state,
    perturbative_steady_state,
    resolvent_solve,
)

from conftest import generator, stationary


class TestResolvent:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_linearity(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(8, 8))
        x, y = rng.normal(size=(2, 8))
        z = 0.5 - 1.3j
        lhs = resolvent_solve(a, z, 2.0 * x + 3.0 * y)
        rhs = 2.0 * resolvent_solve(a, z, x) + 3.0 * resolvent_solve(a, z, y)
        assert np.allclose(lhs, rhs, atol=1e-10)

    def test_propagator_matches_dense_solve(self):
        gen = generator(1.0)
        z = -0.7j
        rhs = gen.j
        assert np.allclose(Propagator(gen.A, z)(rhs),
                           resolvent_solve(gen.A, z, rhs), atol=1e-10)

    def test_g0_at_zero_is_minus_a_inverse(self):
        gen = generator(2.0)
        x = Propagator(gen.A, 0.0)(gen.j)
        assert np.allclose(gen.A @ x, -gen.j, atol=1e-12)


class TestPerturbativeExpansion:
    def test_matches_exact_solution_to_third_order(self):
        # the expansion truncates at g^2, so the residual against the
        # all-orders solve must scale like |g|^3
        cfg = DriveConfig(rabi=1.5, detuning=0.5)
        errs = []
        for sep in (50.0, 100.0, 200.0):
            gen = assemble(cfg, Geometry.backscattering(sep))
            state = perturbative_steady_state(gen)
            total = state.order0 + state.order1 + state.order2
            exact = nonperturbative_steady_state(gen)
            errs.append(np.linalg.norm(total - exact))
        assert errs[0] < 20.0 * abs(1.5 / 50.0) ** 3
        # halving |g| cuts the residual by about eight
        assert errs[1] / errs[0] == pytest.approx(1 / 8, rel=0.15)
        assert errs[2] / errs[1] == pytest.approx(1 / 8, rel=0.15)

    def test_order1_is_linear_in_g(self):
        cfg = DriveConfig(rabi=1.0)
        geom = Geometry.backscattering(100.0)
        g = 0.01j
        gen1 = assemble(cfg, geom, g=g)
        gen2 = assemble(cfg, geom, g=2 * g)
        s1 = perturbative_steady_state(gen1)
        s2 = perturbative_steady_state(gen2)
        assert np.allclose(2 * s1.order1, s2.order1, atol=1e-14)
        assert np.allclose(4 * s1.order2, s2.order2, atol=1e-14)

    def test_single_atom_population(self):
        # uncoupled order: driven-level population s / 2(1+s) per atom
        for rabi, detuning in ((0.5, 0.0), (2.0, 1.0), (10.0, 5.0)):
            gen, state, _ = stationary(rabi, detuning)
            s = gen.cfg.saturation
            pop = expectation(np.kron(sigma(4, 4), np.eye(4)), state.order0, order=0)
            assert pop.real == pytest.approx(s / (2 * (1 + s)), rel=1e-10)
            assert abs(pop.imag) < 1e-12


class TestIntensities:
    def test_enhancement_matches_closed_form(self):
        for s in (0.05, 0.5, 5.0, 50.0):
            rabi = np.sqrt(2 * s)
            _, _, ib = stationary(rabi, 0.0)
            assert ib.alpha == pytest.approx(alpha_closed_form(s), rel=1e-9)

    def test_total_intensities_match_polynomials(self):
        # reduced units: L_tot = R2/(3P)*3 = R2/P, C_tot = R1/((4+s) P)
        for s in (0.2, 2.0, 20.0):
            rabi = np.sqrt(2 * s)
            gen, _, ib = stationary(rabi, 0.0)
            red = ib.reduced(gen.angular_weight)
            r1, r2, p = polynomials(s)
            assert red.L_tot == pytest.approx(r2 / p, rel=1e-9)
            assert red.C_tot == pytest.approx(r1 / ((4 + s) * p), rel=1e-9)

    def test_elastic_contrast_perfect(self):
        for rabi, detuning in ((0.1, 0.0), (1.0, 0.0), (10.0, 5.0), (20.0, 20.0)):
            gen, _, ib = stationary(rabi, detuning)
            assert ib.C_el == pytest.approx(ib.L_el, rel=1e-10)
            s = gen.cfg.saturation
            expected = (gen.angular_weight / (1 + detuning**2)) * s / (1 + s) ** 4
            assert ib.L_el == pytest.approx(expected, rel=1e-8)

    def test_breakdown_is_consistent(self):
        _, _, ib = stationary(1.0, 0.0)
        assert ib.L_tot == pytest.approx(ib.L_el + ib.L_inel)
        assert ib.C_tot == pytest.approx(ib.C_el + ib.C_inel)
        assert ib.alpha == pytest.approx(1 + ib.C_tot / ib.L_tot)

    def test_reduced_rescales_everything_but_alpha(self):
        gen, _, ib = stationary(1.0, 0.0)
        red = ib.reduced(gen.angular_weight)
        assert red.alpha == ib.alpha
        assert red.L_tot == pytest.approx(ib.L_tot / gen.angular_weight)

    def test_order2_population_matches_exact_difference(self):
        # the ladder intensity is the order-g^2 piece of the detected-level
        # population; subtracting the lower orders from the all-orders
        # solve must reproduce it up to an O(|g|) relative remainder
        gen, state, ib = stationary(1.0, 0.0)
        exact = nonperturbative_steady_state(gen)
        pop = np.kron(sigma(2, 2), np.eye(4)) + np.kron(np.eye(4), sigma(2, 2))
        exact_pop = expectation(pop, exact).real
        low_orders = (expectation(pop, state.order0, order=0)
                      + expectation(pop, state.order1, order=1)).real
        assert ib.L_tot == pytest.approx(exact_pop - low_orders, rel=0.05)

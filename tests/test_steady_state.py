"""Stationary-state pipeline against closed forms and the exact solver."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twoatom_cbs.basis import expectation, sigma
from twoatom_cbs.liouvillian import (
    ConfigurationError,
    DriveConfig,
    Geometry,
    _single_atom_matrix,
    assemble,
)
from twoatom_cbs.resolvent import GROUP_OF, KroneckerResolvent
from twoatom_cbs.oracles import alpha_closed_form, polynomials
from twoatom_cbs.steady_state import PerturbativeState, intensities, perturbative_steady_state

from conftest import (
    generator,
    nonperturbative_steady_state,
    resolvent_solve,
    shifted_tilted_geometry,
    stationary,
)


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
        assert np.allclose(gen.resolvent.solve(z, rhs),
                           resolvent_solve(gen.A, z, rhs), atol=1e-10)

    def test_g0_at_zero_is_minus_a_inverse(self):
        gen = generator(2.0)
        x = gen.resolvent.solve(0.0, gen.j)
        assert np.allclose(gen.A @ x, -gen.j, atol=1e-12)

    @pytest.mark.parametrize("rabi", [0.5, 1.0, 20.0])
    @pytest.mark.parametrize("geom", [Geometry.backscattering(100.0),
                                      shifted_tilted_geometry()])
    def test_batched_resolvent_matches_dense_solve(self, rabi, geom):
        # one call solves every (z, right-hand side) pair; Omega = 0.5 and
        # 1.0 sit near exceptional points of the single-atom generator
        gen = assemble(DriveConfig(rabi=rabi, detuning=0.3), geom)
        zs = np.array([0.0, -1e-6j, -1e-3j, -0.7j, 5j, -300j])
        rng = np.random.default_rng(3)
        rhs = np.stack([gen.j, gen.V @ gen.j,
                        rng.normal(size=255) + 1j * rng.normal(size=255)])
        got = gen.resolvent.solve(zs[:, None], rhs)
        assert got.shape == (len(zs), len(rhs), 255)
        for z, x in zip(zs, got):
            want = resolvent_solve(gen.A, z, rhs.T).T
            assert np.allclose(x, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("rabi", [0.5, 1.0, 20.0])
    @pytest.mark.parametrize("geom", [Geometry.backscattering(100.0),
                                      shifted_tilted_geometry()])
    @pytest.mark.parametrize("count", [1, 64])
    def test_static_resolvent_matches_dense_solve(self, rabi, geom, count):
        # a scalar z = 0, one configuration: every right-hand side is a
        # column of one factorization per tile
        gen = assemble(DriveConfig(rabi=rabi, detuning=0.3), geom)
        rng = np.random.default_rng(5)
        rhs = gen.j if count == 1 else np.stack(
            [gen.j, gen.V @ gen.j]
            + [rng.normal(size=255) + 1j * rng.normal(size=255) for _ in range(count - 2)])
        got = gen.resolvent.solve(0.0, rhs)
        want = resolvent_solve(gen.A, 0.0, rhs.T).T
        assert got.shape == rhs.shape
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("rabi", [0.5, 1.0, 20.0])
    @pytest.mark.parametrize("geom", [Geometry.backscattering(100.0),
                                      shifted_tilted_geometry()])
    def test_kronecker_product_matches_dense_a(self, rabi, geom):
        # A x from the two 16x16 factors, against the dense A
        gen = assemble(DriveConfig(rabi=rabi, detuning=0.3), geom)
        rng = np.random.default_rng(7)
        stack = rng.normal(size=(4, 3, 255)) + 1j * rng.normal(size=(4, 3, 255))
        a = gen.A
        for x in (gen.j, stack):
            got = gen.resolvent.matvec(x)
            want = x @ a.T
            assert got.shape == x.shape
            assert np.allclose(got, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())

    @pytest.mark.parametrize("geom", [Geometry.backscattering(100.0),
                                      shifted_tilted_geometry()])
    @pytest.mark.parametrize("rabi, detuning", [(0.5, 0.0), (1.3, 0.7), (100.0, 0.0)])
    def test_z_minus_a_is_two_level_block_triangular(self, rabi, detuning, geom):
        # over the tiles (p, q) of resolvent.GROUPS, an entry of z - A that
        # couples tile (p, q) to tile (p', q') lies on the diagonal tile, or
        # feeds the level-2 tile p, q >= 1 from (0, q) or (p, 0)
        gen = assemble(DriveConfig(rabi=rabi, detuning=detuning), geom)
        l, m = np.divmod(np.arange(1, 256), 16)
        p, q = GROUP_OF[l], GROUP_OF[m]
        same = (p[:, None] == p) & (q[:, None] == q)
        level2 = ((p > 0) & (q > 0))[:, None]
        feeder = level2 & (((p[:, None] == p) & (q == 0)) | ((q[:, None] == q) & (p == 0)))
        for z in (0.0, -0.37j):
            coupling = z * np.eye(255) - gen.A
            assert not coupling[~(same | feeder)].any()
            assert coupling[feeder].any()

    @pytest.mark.parametrize("atom", [1, 2])
    def test_rejects_generator_coupling_the_blocks(self, atom):
        # B[0, 2] couples the Bloch block to a single entry: no fallback
        m = _single_atom_matrix(DriveConfig(rabi=1.0, detuning=0.3), 1.0)
        bad = m.copy()
        bad[1, 3] = 1e-3
        with pytest.raises(ConfigurationError, match="block diagonal"):
            KroneckerResolvent(*((bad, m) if atom == 1 else (m, bad)))

    def test_resolvent_eigenvalues_are_those_of_a(self):
        gen = assemble(DriveConfig(rabi=1.0, detuning=0.3), shifted_tilted_geometry())
        eigs = gen.resolvent.eigenvalues
        dense = np.linalg.eigvals(gen.A)
        assert eigs.shape == dense.shape
        assert max(np.abs(dense - e).min() for e in eigs) < 1e-10
        assert max(np.abs(eigs - e).min() for e in dense) < 1e-10


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


def refined_dense_solve(m, rhs, steps=2):
    """m^{-1} rhs by a dense solve refined with extended-precision residuals."""
    x = np.linalg.solve(m, rhs)
    for _ in range(steps):
        residual = rhs.astype(np.clongdouble) - m.astype(np.clongdouble) @ x
        x = x + np.linalg.solve(m, residual.astype(complex))
    return x


class TestStaticSolveAccuracy:
    @pytest.mark.parametrize("geom", [Geometry.backscattering(100.0), shifted_tilted_geometry()],
                             ids=["backscattering", "shifted_tilted"])
    @pytest.mark.parametrize("rabi, detuning", [(0.1, 5.0), (3.0, 80.0)])
    def test_inelastic_intensities_match_refined_reference(self, rabi, detuning, geom):
        # L_inel = L_tot - L_el cancels about three digits at weak detuned
        # drive, so the unrefined static solves must be accurate component
        # by component, not only in norm.  The reference solves the same
        # right-hand sides (V products in double) with a refined dense solve
        gen = assemble(DriveConfig(rabi=rabi, detuning=detuning), geom)
        orders = [refined_dense_solve(-gen.A, gen.j)]
        for _ in range(2):
            orders.append(refined_dense_solve(-gen.A, orders[-1] @ gen.V.T))
        want = intensities(PerturbativeState(*orders), gen)
        got = intensities(perturbative_steady_state(gen), gen)
        for name in ("L_inel", "C_inel", "L_el", "C_el"):
            assert abs(getattr(got, name) - getattr(want, name)) <= 5e-11 * abs(want.L_inel), name


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


FIELDS = ("L_el", "C_el", "L_inel", "C_inel", "L_tot", "C_tot", "alpha")


class TestConfigurationStacks:
    """A drive sweep in one call equals the same sweep one configuration at a time."""

    @pytest.mark.parametrize("geom", [Geometry.backscattering(100.0), shifted_tilted_geometry()],
                             ids=["backscattering", "shifted_tilted"])
    @pytest.mark.parametrize("detuning, tol", [(0.0, 1e-12), (2.0, 1e-12), (5.0, 1e-12),
                                               (80.0, 1e-8)])
    def test_batched_sweep_matches_loop(self, geom, detuning, tol):
        # at delta = 80 the weak-drive alpha carries ~1e-9 of rounding either way
        rabi = np.geomspace(1.0, 100.0, 41)
        gen = assemble(DriveConfig(rabi=rabi, detuning=detuning), geom)
        state = perturbative_steady_state(gen)
        batched = intensities(state, gen)
        assert state.order2.shape == (41, 255)
        loop = []
        for r in rabi:
            one = assemble(DriveConfig(rabi=r, detuning=detuning), geom)
            loop.append(intensities(perturbative_steady_state(one), one))
        for name in FIELDS:
            column = np.array([getattr(ib, name) for ib in loop])
            got = getattr(batched, name)
            assert got.shape == (41,)
            assert np.abs(got - column).max() <= tol * np.abs(column).max(), name

    def test_two_configuration_axes(self):
        # rabi (3, 1) against detuning (2,): configuration shape (3, 2)
        rabi, detuning = np.array([[0.5], [2.0], [30.0]]), np.array([0.0, 3.0])
        geom = Geometry.backscattering(100.0)
        gen = assemble(DriveConfig(rabi=rabi, detuning=detuning), geom)
        assert gen.j.shape == (3, 2, 255)
        assert gen.resolvent.eigenvalues.shape == (3, 2, 255)
        batched = intensities(perturbative_steady_state(gen), gen)
        for (a, b), r in np.ndenumerate(np.broadcast_to(rabi, (3, 2))):
            _, _, one = stationary(r, detuning[b])
            for name in FIELDS:
                assert getattr(batched, name)[a, b] == pytest.approx(
                    getattr(one, name), rel=1e-12, abs=1e-12 * abs(one.L_tot)), name

    def test_scalar_configuration_keeps_scalar_shapes(self):
        gen, state, ib = stationary(1.3, 0.7)
        assert gen.cfg.shape == () and gen.resolvent.shape == ()
        assert gen.j.shape == (255,)
        assert all(state.order(k).shape == (255,) for k in range(3))
        for name in FIELDS:
            value = getattr(ib, name)
            assert isinstance(value, float) and np.ndim(value) == 0, name

    def test_singular_stack_raises_before_dividing(self):
        # the per-configuration singularity check of a stack fires before
        # the tile solves would divide by the rounding-level eigenvalues
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ConfigurationError, match="singular"):
                assemble(DriveConfig(rabi=[1.0, 2.0], gamma=1e-20),
                         Geometry.backscattering(50.0))

"""Stationary-state pipeline against closed forms and the exact solver."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twoatom_cbs.basis import N_SINGLE, N_TWO, expand_two_atom_operator, expectation, sigma
from twoatom_cbs.liouvillian import (
    ConfigurationError,
    DriveConfig,
    Geometry,
    _single_atom_matrix,
    assemble,
)
from twoatom_cbs import resolvent
from twoatom_cbs.errors import ResolventError
from twoatom_cbs.resolvent import GROUP_OF, KroneckerResolvent, needed
from twoatom_cbs.oracles import alpha_closed_form, polynomials
from twoatom_cbs.steady_state import (
    _CROSS_ROW,
    _POP2_ROW,
    L_SIGMA_21,
    ORDER2_ENTRIES,
    PAIR_ROWS,
    SIGMA_12_ROWS,
    SIGMA_21_ROWS,
    intensities,
    perturbative_steady_state,
    product_state,
    read_tiles,
)

from conftest import (
    TILE,
    dense_a,
    g0_full,
    generator,
    inhomogeneity,
    long_double_state_reference,
    nonperturbative_steady_state,
    resolvent_solve,
    shifted_tilted_geometry,
    stationary,
    tile_count,
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
        rhs = inhomogeneity(gen)
        assert np.allclose(g0_full(gen, z, rhs), resolvent_solve(dense_a(gen), z, rhs), atol=1e-10)

    def test_g0_at_zero_is_minus_a_inverse(self):
        gen = generator(2.0)
        x = gen.resolvent.solve(inhomogeneity(gen), np.arange(N_TWO - 1))
        assert np.allclose(dense_a(gen) @ x, -inhomogeneity(gen), atol=1e-12)

    @pytest.mark.parametrize("rabi", [0.5, 1.0, 20.0])
    @pytest.mark.parametrize("geom", [Geometry.backscattering(100.0),
                                      shifted_tilted_geometry()])
    def test_batched_resolvent_matches_dense_solve(self, rabi, geom):
        # one sweep, read through every row, solves every (z, right-hand
        # side) pair; Omega = 0.5 and 1.0 sit near exceptional points of the
        # single-atom generator
        gen = assemble(DriveConfig(rabi=rabi, detuning=0.3), geom)
        zs = np.array([0.0, -1e-6j, -1e-3j, -0.7j, 5j, -300j])
        rng = np.random.default_rng(3)
        rhs = np.stack([inhomogeneity(gen), gen.V @ inhomogeneity(gen),
                        rng.normal(size=255) + 1j * rng.normal(size=255)])
        got = gen.resolvent.sweep(np.eye(255), zs, rhs)
        assert got.shape == (len(zs), len(rhs), 255)
        for z, x in zip(zs, got):
            want = resolvent_solve(dense_a(gen), z, rhs.T).T
            assert np.allclose(x, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("geom", [Geometry.backscattering(100.0),
                                      shifted_tilted_geometry()])
    def test_stack_solves_every_rhs(self, geom):
        # a stack C = (2,) against K = (2,) right-hand sides per
        # configuration: C + K + (255,); a sweep takes one configuration
        rabi = np.array([0.5, 20.0])
        stack = assemble(DriveConfig(rabi=rabi, detuning=0.3), geom)
        rng = np.random.default_rng(11)
        rhs = np.stack([inhomogeneity(stack),
                        rng.normal(size=(2, 255)) + 1j * rng.normal(size=(2, 255))], axis=-2)
        got = stack.resolvent.solve(rhs, np.arange(N_TWO - 1))
        assert got.shape == (2, 2, 255)
        for c, r in enumerate(rabi):
            a = dense_a(assemble(DriveConfig(rabi=r, detuning=0.3), geom))
            want = resolvent_solve(a, 0.0, rhs[c].T).T
            assert np.allclose(got[c], want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
        with pytest.raises(ConfigurationError, match="one configuration"):
            stack.resolvent.sweep(np.eye(255), [-0.7j], rhs)

    @pytest.mark.parametrize("rabi", [0.5, 1.0, 20.0])
    @pytest.mark.parametrize("geom", [Geometry.backscattering(100.0),
                                      shifted_tilted_geometry()])
    @pytest.mark.parametrize("count", [1, 64])
    def test_static_resolvent_matches_dense_solve(self, rabi, geom, count):
        # a scalar z = 0, one configuration: every right-hand side is a
        # column of one factorization per tile
        gen = assemble(DriveConfig(rabi=rabi, detuning=0.3), geom)
        rng = np.random.default_rng(5)
        rhs = inhomogeneity(gen) if count == 1 else np.stack(
            [inhomogeneity(gen), gen.V @ inhomogeneity(gen)]
            + [rng.normal(size=255) + 1j * rng.normal(size=255) for _ in range(count - 2)])
        got = gen.resolvent.solve(rhs, np.arange(N_TWO - 1))
        want = resolvent_solve(dense_a(gen), 0.0, rhs.T).T
        assert got.shape == rhs.shape
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("rabi", [0.5, 1.0, 20.0])
    @pytest.mark.parametrize("geom", [Geometry.backscattering(100.0),
                                      shifted_tilted_geometry()])
    def test_kronecker_product_matches_dense_a(self, rabi, geom):
        # A x from the two 16x16 Schur factorisations the sweep runs on,
        # (Q1 (x) Q2) (T1 (x) 1 + 1 (x) T2) (Q1 (x) Q2)^H with T upper
        # triangular inside every group, against the dense A
        gen = assemble(DriveConfig(rabi=rabi, detuning=0.3), geom)
        (q1, q2), (t1, t2) = resolvent._schur_bases(gen.resolvent.m)
        t1, t2 = (np.where(resolvent._LOWER, 0.0, t) for t in (t1, t2))
        rng = np.random.default_rng(7)
        stack = rng.normal(size=(4, 3, 255)) + 1j * rng.normal(size=(4, 3, 255))
        a = dense_a(gen)
        for x in (inhomogeneity(gen), stack):
            y = q1.conj().T @ resolvent._grid(x) @ q2.conj()
            got = (q1 @ (t1 @ y + y @ t2.T) @ q2.T).reshape(-1, N_TWO)[:, 1:].reshape(x.shape)
            want = x @ a.T
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
            coupling = z * np.eye(255) - dense_a(gen)
            assert not coupling[~(same | feeder)].any()
            assert coupling[feeder].any()

    @pytest.mark.parametrize("atom", [1, 2])
    def test_rejects_generator_coupling_the_blocks(self, atom):
        # B[0, 2] couples the Bloch block to a single entry: no fallback
        m = _single_atom_matrix(DriveConfig(rabi=1.0, detuning=0.3), 1.0)
        bad = m.copy()
        bad[1, 3] = 1e-3
        with pytest.raises(ConfigurationError, match="block diagonal"):
            KroneckerResolvent(np.array((bad, m) if atom == 1 else (m, bad)))

    def test_checks_on_a_run_in_order(self):
        # the constructor owns every check on A: a generator pair that fails
        # several fails the first of identity row, overflow, block structure
        # and singularity (Omega = 1e14 leaves A singular to working precision)
        singular = _single_atom_matrix(DriveConfig(rabi=1e14), (1.0, 1.0))
        coupled = singular.copy()
        coupled[1, 1, 3] = 1e-3
        overflowing = coupled.copy()
        overflowing[0, 5, 5] = 1e308
        moving_identity = overflowing.copy()
        moving_identity[1, 0, 2] = 1.0
        for m, message in ((moving_identity, "does not leave the identity invariant"),
                           (overflowing, "drive overflows the generator matrix A"),
                           (coupled, "not block diagonal"),
                           (singular, "generator matrix A is singular")):
            with pytest.raises(ConfigurationError, match=message):
                KroneckerResolvent(m)

    @pytest.mark.parametrize("z", [0.0, -0.5j])
    def test_level2_entries_are_solved_with_their_feeders(self, z):
        # the level-2 tile (1, 1) is fed by (1, 0) and (0, 1): given only
        # its entries, the static solve (z = 0) and the sweep alike solve
        # those feeders too, and match the full solve on the tile
        gen = generator(1.0)
        p, q = TILE
        tile = np.flatnonzero((p == 1) & (q == 1))
        feeders = np.flatnonzero(((p == 1) & (q == 0)) | ((p == 0) & (q == 1)))
        assert np.array_equal(needed(tile), np.union1d(tile, feeders))
        rhs = inhomogeneity(gen)
        full = g0_full(gen, z, rhs)[tile]
        if z:
            got = gen.resolvent.sweep(np.eye(N_TWO - 1)[tile], [z], rhs)[0]
        else:
            got = gen.resolvent.solve(rhs, tile)[tile]
        assert np.allclose(got, full, rtol=0.0, atol=1e-14 * np.abs(full).max())

    def test_sweep_of_rows_that_read_nothing_is_zero(self):
        # rows with no non-zero column restrict the sweep to no tile at all
        gen = generator(1.0)
        got = gen.resolvent.sweep(np.zeros((2, N_TWO - 1)), [0.0, -0.5j], inhomogeneity(gen))
        assert got.shape == (2, 2) and not got.any()

    def test_broken_schur_basis_fails_the_sweep(self, monkeypatch):
        # a basis that leaves the coherence pairs untriangularized is caught
        # by the check of T's lower triangle, not solved through
        gen = generator(1.0)
        monkeypatch.setattr(resolvent, "_schur2",
                            lambda b: np.broadcast_to(np.eye(2, dtype=complex), b.shape).copy())
        with pytest.raises(ResolventError, match="Schur basis"):
            gen.resolvent.sweep(np.eye(N_TWO - 1), [-0.5j], inhomogeneity(gen))

    def test_resolvent_eigenvalues_are_those_of_a(self):
        # the closed forms of the 1x1 and 2x2 groups and the Bloch block's
        # eigvals, batched over a stack, against the dense A of every tenth
        # configuration: the power sums tr(A^k), k <= 4, everywhere, and the
        # eigenvalues themselves where they are simple.  At the exceptional
        # points (Omega, delta) = (0.5, 0) and (1, 0) single-atom eigenvalues
        # merge into Jordan blocks, and A's then move by up to eps^(1/3) |A|
        # in any eigensolver, so only the power sums are compared there
        eye = np.eye(N_SINGLE)
        for geom in (Geometry.backscattering(100.0), shifted_tilted_geometry()):
            for rabi, detuning, simple in ((1.0, 0.3, True), (np.geomspace(1.0, 100.0, 41), 0.7, True),
                                           (0.5, 0.0, False), (1.0, 0.0, False)):
                gen = assemble(DriveConfig(rabi=rabi, detuning=detuning), geom)
                eigs = gen.resolvent.eigenvalues
                assert eigs.shape == np.shape(rabi) + (N_TWO - 1,)
                m1, m2 = gen.resolvent.m.reshape(2, -1, N_SINGLE, N_SINGLE)
                for c in range(0, len(m1), 10):
                    e = eigs.reshape(-1, N_TWO - 1)[c]
                    a = (np.kron(m1[c], eye) + np.kron(eye, m2[c]))[1:, 1:]
                    square = a @ a
                    for k, trace in enumerate([np.trace(a), np.sum(a * a.T), np.sum(square * a.T),
                                               np.sum(square * square.T)], start=1):
                        assert abs(np.sum(e ** k) - trace) <= 1e-13 * np.sum(np.abs(e) ** k), k
                    if simple:
                        dense = np.linalg.eigvals(a)
                        assert max(np.abs(dense - x).min() for x in e) < 1e-10
                        assert max(np.abs(e - x).min() for x in dense) < 1e-10


class TestPerturbativeExpansion:
    def test_matches_exact_solution_to_third_order(self):
        # the expansion truncates at g^2, so the residual against the
        # all-orders solve must scale like |g|^3; compared on the
        # components where order 2 is solved
        cfg = DriveConfig(rabi=1.5, detuning=0.5)
        solved = ORDER2_ENTRIES
        errs = []
        for sep in (50.0, 100.0, 200.0):
            gen = assemble(cfg, Geometry.backscattering(sep))
            state = perturbative_steady_state(gen)
            total = state.order0 + state.order1 + state.order2
            exact = nonperturbative_steady_state(gen)
            errs.append(np.linalg.norm((total - exact)[solved]))
        assert errs[0] < 20.0 * abs(1.5 / 50.0) ** 3
        # halving |g| cuts the residual by about eight
        assert errs[1] / errs[0] == pytest.approx(1 / 8, rel=0.15)
        assert errs[2] / errs[1] == pytest.approx(1 / 8, rel=0.15)

    def test_order1_is_linear_in_g(self):
        # V is linear in g: a real factor on g is the same factor on V
        gen1 = assemble(DriveConfig(rabi=1.0), Geometry.backscattering(100.0))
        gen2 = replace(gen1, V=2 * gen1.V)
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


def qrt_reads(entries):
    """Packed columns of the state that qrt_initial reads to form its
    `entries`, from the 256x256 tables L (x) 1 and 1 (x) L of sigma_21."""
    eye = np.eye(N_SINGLE)
    tables = np.stack([np.kron(L_SIGMA_21, eye), np.kron(eye, L_SIGMA_21)])[:, 1:, 1:]
    return np.flatnonzero(np.any(tables[:, entries], axis=(0, 1)))


class TestReadTiles:
    """Orders 1 and 2 are solved only on the tiles their readers read."""

    @pytest.mark.parametrize("geom", [Geometry.backscattering(100.0), shifted_tilted_geometry()],
                             ids=["backscattering", "shifted_tilted"])
    @pytest.mark.parametrize("rabi", [1.3, np.geomspace(1.0, 100.0, 41)], ids=["one", "stack41"])
    def test_orders_equal_full_solves_on_their_tiles(self, rabi, geom):
        # the full solves take the right-hand sides the state's solves take
        gen = assemble(DriveConfig(rabi=rabi, detuning=0.7), geom)
        state = perturbative_steady_state(gen)
        reads = read_tiles(gen.V)
        everything = np.arange(N_TWO - 1)
        full1 = gen.resolvent.solve(reads.source(1, product_state(gen)[1]), everything)
        full2 = gen.resolvent.solve(reads.source(2, full1), everything)
        for got, full, entries in ((state.order1, full1, reads.order1_entries),
                                   (state.order2, full2, ORDER2_ENTRIES)):
            inside = np.isin(everything, entries)
            assert got.shape == full.shape
            assert np.array_equal(got[..., inside], full[..., inside])
            assert not got[..., ~inside].any()

    def test_order2_tiles_cover_what_is_read(self):
        # the intensities' ladder and crossed rows, and the order-2 entries
        # qrt_initial reads to form the detected coherence pairs
        read = np.concatenate([np.flatnonzero(_POP2_ROW), np.flatnonzero(_CROSS_ROW),
                               qrt_reads(PAIR_ROWS.ravel())])
        assert np.isin(read, ORDER2_ENTRIES).all()
        assert np.array_equal(ORDER2_ENTRIES, needed(read))
        assert tile_count(ORDER2_ENTRIES) == 10


# bound on |got - reference| / L_inel per drive (Omega, delta) and geometry:
# the first two drives keep the bound they had against a reference built on
# the double V g term; the others sit at most 10x above the errors measured
# when the product state landed (in the comments)
_STATE_BOUNDS = {
    (0.1, 5.0): (5e-11, 5e-11),       # 3.4e-12, 4.6e-13
    (3.0, 80.0): (5e-11, 5e-11),      # 7.1e-13, 1.8e-12
    (1.0, 80.0): (5e-11, 1e-10),      # 9.4e-12, 2.0e-11
    (1e-3, 0.0): (5e-9, 5e-9),        # 6.2e-10, 6.3e-10
    (1e-3, 5.0): (3e-8, 1e-7),        # 3.3e-9, 1.7e-8
    (0.5, 0.0): (1e-14, 5e-15),       # 1.3e-15, 8.1e-16
    (1.0, 0.0): (2e-15, 5e-15),       # 2.2e-16, 6.0e-16
    (100.0, 0.0): (3e-15, 1e-13),     # 3.3e-16, 1.9e-14
}


class TestStaticSolveAccuracy:
    @pytest.mark.parametrize("geom, column", [(Geometry.backscattering(100.0), 0),
                                              (shifted_tilted_geometry(), 1)],
                             ids=["backscattering", "shifted_tilted"])
    @pytest.mark.parametrize("rabi, detuning", list(_STATE_BOUNDS))
    def test_inelastic_intensities_match_refined_reference(self, rabi, detuning, geom, column):
        # L_inel = L_tot - L_el cancels digits at weak or detuned drive, so
        # every component of the state must be accurate, not only its norm.
        # The reference drops V g analytically and refines in long double
        gen = assemble(DriveConfig(rabi=rabi, detuning=detuning), geom)
        want = intensities(long_double_state_reference(gen), gen)
        got = intensities(perturbative_steady_state(gen), gen)
        bound = _STATE_BOUNDS[rabi, detuning][column]
        for name in ("L_inel", "C_inel", "L_el", "C_el"):
            assert abs(getattr(got, name) - getattr(want, name)) <= bound * abs(want.L_inel), name


class TestIntensities:
    def test_readout_rows_are_the_projected_operators(self):
        # kron(c_X, c_Y)[1:] is the two-atom projection of X (x) Y, value for
        # value (up to the signs of zero imaginary parts)
        eye = np.eye(4, dtype=complex)
        for (row_1, row_2), op in ((SIGMA_21_ROWS, sigma(2, 1)), (SIGMA_12_ROWS, sigma(1, 2))):
            assert np.array_equal(row_1, expand_two_atom_operator(np.kron(op, eye))[1:])
            assert np.array_equal(row_2, expand_two_atom_operator(np.kron(eye, op))[1:])
        pop2 = np.kron(sigma(2, 2), eye) + np.kron(eye, sigma(2, 2))
        assert np.array_equal(_POP2_ROW, expand_two_atom_operator(pop2)[1:])
        cross = np.kron(sigma(2, 1), sigma(1, 2))
        assert np.array_equal(_CROSS_ROW, expand_two_atom_operator(cross)[1:])

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
        assert inhomogeneity(gen).shape == (3, 2, 255)
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
        assert inhomogeneity(gen).shape == (255,)
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
                assemble(DriveConfig(rabi=[1.0, 1e14]), Geometry.backscattering(50.0))

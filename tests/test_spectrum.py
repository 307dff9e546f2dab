"""Emission-spectrum pipeline: regression vectors, densities, sum rules."""

import importlib.util
import pathlib
from dataclasses import replace

import numpy as np
import pytest

from twoatom_cbs.basis import N_SINGLE, N_TWO, expand_two_atom_operator, sigma
from twoatom_cbs.basis import expectation as basis_expectation
from twoatom_cbs.errors import ConfigurationError
from twoatom_cbs.liouvillian import DriveConfig, Geometry, assemble
from twoatom_cbs.resolvent import BLOCKS, GROUPS, needed
from twoatom_cbs.spectrum import (
    check_sum_rule,
    compute_spectrum,
    default_nu_grid,
    inelastic_spectrum,
)
from twoatom_cbs.steady_state import (
    L_SIGMA_21,
    ORDER2_ENTRIES,
    PAIR_ROWS,
    SIGMA_12_ROWS,
    SIGMA_21_ROWS,
    ResolventError,
    perturbative_steady_state,
    qrt_initial,
    read_tiles,
)

from conftest import (
    TILE,
    dense_a,
    g0_full,
    generator,
    inhomogeneity,
    long_double_state_reference,
    long_double_sweep_reference,
    resolvent_solve,
    shifted_tilted_geometry,
    stationary,
    tile_count,
)


_EYE4 = np.eye(4, dtype=complex)
#: sigma_21 (the sources) and sigma_12 (the detected dipoles) of atom 1 and
#: of atom 2 as packed rows, by projection onto the two-atom basis: <X> at
#: order g^k, k >= 1, is row @ order_k
SOURCE_ROWS, DETECTED_ROWS = (
    [expand_two_atom_operator(op)[1:] for op in (np.kron(x, _EYE4), np.kron(_EYE4, x))]
    for x in (sigma(2, 1), sigma(1, 2)))


def dense_reference_densities(gen, state, nu_grid):
    """Ladder and crossed densities from a per-nu loop of dense solves."""
    s0 = qrt_initial(state)
    weights = [state.order1 @ row for row in SOURCE_ROWS]
    phase = gen.detection_phase

    def g0(z, rhs):
        return resolvent_solve(dense_a(gen), z, rhs)

    ladder, crossed = [], []
    for nu in nu_grid:
        z = -1j * nu
        diff = (-g0(z, g0(0.0, gen.V @ g0(z, inhomogeneity(gen))))
                - g0(0.0, gen.V @ g0(z, state.order0)))
        s1, s2 = (g0(z, gen.V @ g0(z, s[1]) + s[2]) + weight * diff
                  for s, weight in zip(s0, weights))
        # <sigma_12^d> read from the regression vector s_a of atom a: [a, d]
        (d11, d12), (d21, d22) = [[row @ s for row in DETECTED_ROWS] for s in (s1, s2)]
        ladder.append((d11 + d22).real / np.pi)
        crossed.append((d12 * phase + d21 * np.conj(phase)).real / np.pi)
    return np.array(ladder), np.array(crossed)


# bound on the larger density error / peak ladder density of the whole
# pipeline per drive (Omega, delta) and geometry (backscattering,
# shifted-tilted), at the drives of test_steady_state's _STATE_BOUNDS: at
# most 10x the errors measured when the reference landed (in the comments)
_PIPELINE_BOUNDS = {
    (0.1, 5.0): (5e-11, 5e-11),       # 8.8e-12, 6.7e-12
    (3.0, 80.0): (5e-11, 5e-9),       # 8.4e-12, 1.1e-9
    (1.0, 80.0): (1e-8, 1e-8),        # 1.3e-9, 2.0e-9
    (1e-3, 0.0): (1e-9, 2e-9),        # 2.0e-10, 3.4e-10
    (1e-3, 5.0): (5e-7, 1e-6),        # 7.7e-8, 1.2e-7
    (0.5, 0.0): (2e-15, 3e-15),       # 4.3e-16, 5.2e-16
    (1.0, 0.0): (1e-15, 1e-15),       # 2.2e-16, 2.3e-16
    (100.0, 0.0): (3e-15, 3e-15),     # 5.2e-16, 4.7e-16
}


class TestRegressionVectors:
    def test_initial_condition_matches_operator_product(self):
        # <sigma_21^a B_n>_ss must equal the expectation of the matrix
        # product sigma_21^a @ B_n, order by order, for either atom a
        from twoatom_cbs.basis import sigma, two_atom_basis_flat

        gen, state, _ = stationary(2.0, 1.0)
        eye = np.eye(4, dtype=complex)
        flat = two_atom_basis_flat()
        s0 = qrt_initial(state)
        for atom, op in ((1, np.kron(sigma(2, 1), eye)), (2, np.kron(eye, sigma(2, 1)))):
            rng = np.random.default_rng(5)
            for n in rng.integers(1, 256, size=6):
                product = op @ flat[n].reshape(16, 16)
                for order in (0, 1, 2):
                    want = basis_expectation(product, state.order(order), order=order)
                    assert s0[atom - 1, order, n - 1] == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("rabi, detuning, geom", [
        (0.1, 5.0, Geometry.backscattering(100.0)),
        (2.0, 1.0, shifted_tilted_geometry()),
        (100.0, 0.0, Geometry.backscattering(100.0)),
    ])
    def test_initial_condition_matches_kron_table(self, rabi, detuning, geom):
        # the 16x16 products L F and F L^T are the 256x256 tables
        # L (x) 1 and 1 (x) L applied to the state
        from twoatom_cbs.basis import TRACE_ELEMENT_VALUE, sigma, single_atom_tables

        state = perturbative_steady_state(assemble(DriveConfig(rabi=rabi, detuning=detuning),
                                                   geom))
        l_sigma, _ = single_atom_tables(sigma(2, 1))
        eye = np.eye(16)
        s0 = qrt_initial(state)
        assert s0.shape == (2, 3, 255)
        for atom, table in ((1, np.kron(l_sigma, eye)), (2, np.kron(eye, l_sigma))):
            for order in (0, 1, 2):
                want = table[1:, 1:] @ state.order(order)
                if order == 0:
                    want = want + table[1:, 0] * TRACE_ELEMENT_VALUE
                scale = np.abs(state.order(order)).max()
                assert np.allclose(s0[atom - 1, order], want, rtol=1e-13, atol=1e-15 * scale)


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
        spec = inelastic_spectrum(gen, state, [0.0, 1.0])
        assert spec.elastic_weight == pytest.approx(ib.L_el + ib.C_el)

    def test_ladder_density_positive(self, weak_point):
        _, spec, _ = weak_point
        assert np.all(spec.ladder_density > 0)

    def test_stabilized_source_term_matches_naive_form(self):
        # [G0(z) V G0(z) - G0 V G0] j / z evaluated naively loses digits
        # as nu -> 0; the rewritten form must agree where both are sound.
        # The sweep's connected initial conditions rest on a third form,
        # -G0(z)(order1 + V G0(z) order0), order1 = G0 V order0
        gen = generator(1.0)

        def g0(z, rhs):
            return g0_full(gen, z, rhs)

        j = inhomogeneity(gen)
        u0 = g0(0.0, j)
        static = g0(0.0, gen.V @ u0)
        for nu in (1e-3, 1e-4, 1e-5, 1e-6):
            z = -1j * nu
            naive = (g0(z, gen.V @ g0(z, j)) - static) / z
            stabilized = -g0(z, g0(0.0, gen.V @ g0(z, j))) - g0(0.0, gen.V @ g0(z, u0))
            scale = np.linalg.norm(stabilized)
            assert np.linalg.norm(naive - stabilized) / scale < 1e-6
            connected = -g0(z, static + gen.V @ g0(z, u0))
            assert np.linalg.norm(connected - stabilized) / scale < 1e-13

    @pytest.mark.parametrize("rabi, detuning, geom", [
        (0.1, 5.0, Geometry.backscattering(100.0)),
        (1.3, 0.7, shifted_tilted_geometry()),
        (20.0, 20.0, Geometry.backscattering(100.0)),
        (0.5, 0.0, Geometry.backscattering(100.0)),
        (1.0, 0.0, Geometry.backscattering(100.0)),
    ])
    def test_batched_sweep_matches_dense_per_nu_loop(self, rabi, detuning, geom):
        # 41 points, nu = 0 included; the weak detuned drive subtracts the
        # most nearly equal terms of the three
        gen = assemble(DriveConfig(rabi=rabi, detuning=detuning), geom)
        state = perturbative_steady_state(gen)
        grid = default_nu_grid(gen.cfg, points=41)
        assert 0.0 in grid
        spec = inelastic_spectrum(gen, state, grid)
        ladder, crossed = dense_reference_densities(gen, state, grid)
        peak = np.abs(ladder).max()
        assert np.abs(spec.ladder_density - ladder).max() <= 1e-12 * peak
        assert np.abs(spec.crossed_density - crossed).max() <= 1e-12 * peak

    @pytest.mark.parametrize("geom", [Geometry.backscattering(100.0), shifted_tilted_geometry()],
                             ids=["backscattering", "shifted-tilted"])
    @pytest.mark.parametrize("rabi, detuning, bound", [
        (0.1, 5.0, 5e-15), (1e-3, 0.0, 1e-10), (1e-3, 5.0, 5e-15),
        (0.5, 0.0, 2.5e-15), (1.0, 0.0, 1.5e-15), (100.0, 0.0, 5e-15)])
    def test_sweep_matches_long_double_reference(self, rabi, detuning, bound, geom):
        # the sweep alone, fed the double state, against every solve refined
        # in extended precision, as a fraction of the peak ladder density;
        # each bound is under 10x the largest error measured at its drive.
        # The Schur basis of a weak drive at delta = 0 mixes the degenerate
        # populations and coherences of the Bloch block by 45 degrees, which
        # costs about 3e-11 there; Omega = 0.5 and 1 at delta = 0 are the
        # exceptional points of the Bloch block and of the coherence pairs
        gen = assemble(DriveConfig(rabi=rabi, detuning=detuning), geom)
        state = perturbative_steady_state(gen)
        grid = default_nu_grid(gen.cfg, points=9)
        spec = inelastic_spectrum(gen, state, grid)
        ladder, crossed = long_double_sweep_reference(gen, state, grid)
        peak = np.abs(ladder).max()
        assert np.abs(spec.ladder_density - ladder).max() <= bound * peak
        assert np.abs(spec.crossed_density - crossed).max() <= bound * peak

    @pytest.mark.parametrize("geom, column", [(Geometry.backscattering(100.0), 0),
                                              (shifted_tilted_geometry(), 1)],
                             ids=["backscattering", "shifted-tilted"])
    @pytest.mark.parametrize("rabi, detuning", list(_PIPELINE_BOUNDS))
    def test_spectrum_matches_long_double_pipeline_reference(self, rabi, detuning, geom, column):
        # the whole pipeline, state and sweep, against the long-double state
        # (V g dropped analytically) fed through qrt_initial's sources formed
        # in long double into the refined sweep reference, as a fraction of
        # the peak ladder density
        gen = assemble(DriveConfig(rabi=rabi, detuning=detuning), geom)
        grid = default_nu_grid(gen.cfg, points=9)
        spec = inelastic_spectrum(gen, perturbative_steady_state(gen), grid)
        reference = long_double_state_reference(gen)
        assert qrt_initial(reference).dtype == np.clongdouble
        ladder, crossed = long_double_sweep_reference(gen, reference, grid)
        peak = np.abs(ladder).max()
        bound = _PIPELINE_BOUNDS[rabi, detuning][column]
        assert np.abs(spec.ladder_density - ladder).max() <= bound * peak
        assert np.abs(spec.crossed_density - crossed).max() <= bound * peak

    @pytest.mark.parametrize("geom", [Geometry.backscattering(100.0), shifted_tilted_geometry()],
                             ids=["backscattering", "shifted-tilted"])
    @pytest.mark.parametrize("rabi, detuning", [(0.1, 5.0), (0.5, 0.0), (1.0, 0.0),
                                                (100.0, 0.0)])
    def test_detected_rows_of_g0_live_on_one_coherence_pair(self, rabi, detuning, geom):
        # the sweep reads G0(z) only through the rows of the detected dipoles,
        # the packed entries (8, 0) and (0, 8), and those rows vanish outside
        # the detected coherence pair: atom 1's entries (8, 0), (12, 0), atom
        # 2's (0, 8), (0, 12), i.e. the block
        # (7, 11) of resolvent.BLOCKS.  At delta = 0, Omega = 0.5 is an
        # exceptional point of the 4x4 Bloch block and Omega = 1 one of every
        # coherence pair, the detected one included
        gen = assemble(DriveConfig(rabi=rabi, detuning=detuning), geom)
        assert PAIR_ROWS.tolist() == [[127, 191], [7, 11]]
        for z in (0.0, -0.37j, -5j):
            g0 = np.linalg.inv(z * np.eye(N_TWO - 1) - dense_a(gen))
            for atom, detected, pair_rows in zip((1, 2), DETECTED_ROWS, PAIR_ROWS):
                index, = np.flatnonzero(detected)
                assert index == pair_rows[0]
                row = np.abs(g0[index])
                support = np.flatnonzero(row > 1e-14 * row.max())
                assert support.tolist() == pair_rows.tolist()
                # packed position n - 1 of (l, m), n = 16 l + m: one atom's
                # coherences, one block of B_a = M_a[1:, 1:]
                l, m = np.divmod(support + 1, N_SINGLE)
                single = l if atom == 1 else m
                assert not np.any(m if atom == 1 else l)
                assert tuple(single - 1) in BLOCKS

    @pytest.mark.parametrize("geom", [Geometry.backscattering(100.0), shifted_tilted_geometry()],
                             ids=["backscattering", "shifted-tilted"])
    def test_stage1_tiles_cover_what_v_pair_rows_read(self, geom):
        # the first stage solves only the tiles (p, q) of resolvent.GROUPS
        # that hold a non-zero column of V's pair rows, plus the level-1
        # feeders (0, q) and (p, 0) of every level-2 tile among them; read
        # through V's pair rows, it equals the full sweep
        gen = assemble(DriveConfig(rabi=1.3, detuning=0.7), geom)
        v_rows = gen.V[PAIR_ROWS]
        columns = np.flatnonzero(np.abs(v_rows).sum(axis=(0, 1)))
        entries = needed(columns)
        # V's pair rows are derived once per coupling array, and shared
        # read-only
        cached = read_tiles(gen.V)
        assert cached is read_tiles(gen.V)
        assert np.array_equal(cached.pair_rows, v_rows)
        assert not any(array.flags.writeable for array in cached)
        p, q = TILE[0][entries], TILE[1][entries]
        assert np.isin(columns, entries).all()
        assert not np.any((p == 0) & (q == 0))
        for p_, q_ in zip(p, q):
            if p_ and q_:
                assert np.any((p == 0) & (q == q_)) and np.any((p == p_) & (q == 0))
        assert tile_count(entries) < 0.5 * len(GROUPS) ** 2
        z = -1j * np.array([0.0, 0.4, 7.0])
        rhs = np.stack([inhomogeneity(gen), gen.V @ inhomogeneity(gen)])
        full = np.einsum("zkn,dpn->zkdp", gen.resolvent.sweep(np.eye(N_TWO - 1), z, rhs), v_rows)
        part = gen.resolvent.sweep(v_rows, z, rhs)
        assert np.allclose(part, full, rtol=0.0, atol=1e-14 * np.abs(full).max())

    @pytest.mark.parametrize("geom, count", [(Geometry.backscattering(100.0), 44),
                                             (shifted_tilted_geometry(), 72)],
                             ids=["backscattering", "shifted-tilted"])
    def test_order1_tiles_cover_what_order2_elastic_and_stage1_read(self, geom, count):
        # order 1 is solved where V reads it on the entries of the order-2
        # tiles, at the non-zeros of the sigma rows, and at the entries
        # qrt_initial reads to form the first stage's tiles
        gen = assemble(DriveConfig(rabi=1.3, detuning=0.7), geom)
        eye = np.eye(N_SINGLE)
        tables = np.stack([np.kron(L_SIGMA_21, eye), np.kron(eye, L_SIGMA_21)])[:, 1:, 1:]
        stage1 = needed(np.flatnonzero(np.any(gen.V[PAIR_ROWS], axis=(0, 1))))
        read = [np.flatnonzero(np.any(gen.V[ORDER2_ENTRIES], axis=0)),
                np.flatnonzero(np.any(SIGMA_21_ROWS + SIGMA_12_ROWS, axis=0)),
                np.flatnonzero(np.any(tables[:, stage1], axis=(0, 1)))]
        entries = read_tiles(gen.V).order1_entries
        for columns in read:
            assert columns.size and np.isin(columns, entries).all()
        assert np.array_equal(entries, needed(np.concatenate(read)))
        assert tile_count(entries) == count

    def test_non_finite_density_raises(self):
        # a broken input must fail the run, not be interpolated over
        gen = generator(1.0)
        state = perturbative_steady_state(gen)
        order0 = state.order0.copy()
        order0[0] = np.nan
        broken = replace(state, order0=order0)
        grid = np.linspace(-5.0, 5.0, 11)
        with pytest.raises(ResolventError, match="11 grid points .* nu = -5"):
            inelastic_spectrum(gen, broken, grid)


    def test_malformed_grids_are_rejected(self):
        # an empty or non-finite grid is a configuration error before any
        # solve; a descending grid gives the right densities, but no integral
        gen, state, ib = stationary(1.0)
        for grid in ([], [-1.0, np.nan, 1.0], np.zeros((2, 3))):
            with pytest.raises(ConfigurationError, match="frequency grid"):
                inelastic_spectrum(gen, state, grid)
        with pytest.raises(ConfigurationError, match="frequency grid"):
            compute_spectrum(gen, nu_grid=[])
        grid = np.linspace(-3.0, 3.0, 601)
        ascending = inelastic_spectrum(gen, state, grid)
        descending = inelastic_spectrum(gen, state, grid[::-1])
        assert np.allclose(descending.ladder_density, ascending.ladder_density[::-1],
                           rtol=1e-12, atol=0.0)
        check_sum_rule(ascending, ib, tolerance=1.0)
        # the C/nu^2 tail model needs nu < 0 at one end and nu > 0 at the other
        one_sided = [inelastic_spectrum(gen, state, np.linspace(lo, hi, 31))
                     for lo, hi in ((0.0, 3.0), (-3.0, 0.0), (1.0, 3.0))]
        for spec in (descending, replace(ascending, nu_grid=grid[:1],
                                         ladder_density=ascending.ladder_density[:1],
                                         crossed_density=ascending.crossed_density[:1]),
                     *one_sided):
            with pytest.raises(ConfigurationError, match="strictly increasing"):
                check_sum_rule(spec, ib)

    @pytest.mark.parametrize("lo, hi", [(0.0, 3.0), (-3.0, 0.0), (1.0, 3.0)])
    def test_tails_need_a_grid_across_zero(self, lo, hi):
        # the C/nu^2 tails end at the grid's edges: an edge at nu = 0 would
        # divide by zero, and two edges on one side fit no tail at all
        gen, state, _ = stationary(1.0)
        spec = inelastic_spectrum(gen, state, np.linspace(lo, hi, 31))
        assert np.all(np.isfinite(spec.ladder_density))
        with pytest.raises(ConfigurationError, match="from nu < 0 to nu > 0"):
            spec.integrals()

    def test_configuration_stacks_are_rejected(self):
        # spectra take one drive configuration; a stack fails before any solve
        stack = assemble(DriveConfig(rabi=[0.5, 1.0]), Geometry.backscattering(100.0))
        stack_state = perturbative_steady_state(stack)
        gen, state, _ = stationary(1.0)
        with pytest.raises(ConfigurationError, match="one drive configuration"):
            qrt_initial(stack_state)
        with pytest.raises(ConfigurationError, match="one drive configuration"):
            inelastic_spectrum(stack, state, [0.0, 1.0])
        with pytest.raises(ConfigurationError, match="one drive configuration"):
            compute_spectrum(stack, nu_grid=[0.0, 1.0])
        # a stack's grid would be 2-D, which no entry point above accepts
        with pytest.raises(ConfigurationError, match="one drive configuration"):
            default_nu_grid(DriveConfig(rabi=[1.0, 2.0]))


class TestSumRules:
    def test_weak_field_sum_rule(self, weak_point):
        _, spec, ib = weak_point
        report = check_sum_rule(spec, ib, tolerance=1e-3)
        assert report.ladder_error < 1e-4

    def test_run_spectra_detuned_grid_closes_the_sum_rule(self):
        # the weak detuned point of scripts/run_spectra.py needs a grid as
        # wide as default_nu_grid's (+-22.5) to close the ladder sum rule
        script = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "run_spectra.py"
        module_spec = importlib.util.spec_from_file_location("run_spectra", script)
        run_spectra = importlib.util.module_from_spec(module_spec)
        module_spec.loader.exec_module(run_spectra)
        (nu_max, points), = [(nu_max, points) for rabi, detuning, nu_max, points
                             in run_spectra.POINTS if (rabi, detuning) == (0.1, 5.0)]
        spec, ib = compute_spectrum(generator(0.1, 5.0),
                                    nu_grid=np.linspace(-nu_max, nu_max, points))
        check_sum_rule(spec, ib, tolerance=1e-3)

    def test_violated_sum_rule_raises(self, weak_point):
        _, spec, ib = weak_point
        broken = replace(spec, ladder_density=2 * spec.ladder_density)
        with pytest.raises(ResolventError):
            check_sum_rule(broken, ib)

    def test_tail_estimates_bound_the_missing_mass(self, strong_point):
        # the truncated trapezoid slightly undershoots the stationary
        # intensity; the quadratic-tail estimate has the right sign and
        # magnitude (it overshoots somewhat because the outermost pole
        # sits far from nu = 0, so it brackets the true missing mass)
        _, spec, ib = strong_point
        bare_l = np.trapezoid(spec.ladder_density, spec.nu_grid)
        report = check_sum_rule(spec, ib)
        tail_l, tail_c = report.ladder_tail, report.crossed_tail
        missing = ib.L_inel - bare_l
        assert missing > 0
        assert tail_l > 0 and tail_c > 0
        assert missing < tail_l < 10 * missing


"""Emission-spectrum pipeline: regression vectors, densities, sum rules."""

import importlib.util
import pathlib
from dataclasses import replace

import numpy as np
import pytest

from twoatom_cbs.basis import N_SINGLE, N_TWO
from twoatom_cbs.basis import expectation as basis_expectation
from twoatom_cbs.errors import ConfigurationError
from twoatom_cbs.liouvillian import DriveConfig, Geometry, assemble
from twoatom_cbs.resolvent import BLOCKS, GROUP_OF
from twoatom_cbs.spectrum import (
    _EXTRACT,
    _IDX_D1,
    _IDX_D2,
    _PAIR_ROWS,
    SpectrumResult,
    check_sum_rule,
    compute_spectrum,
    default_nu_grid,
    elastic_weight,
    inelastic_spectrum,
    normalized_spectra,
    qrt_initial,
    stage1_tiles,
)
from twoatom_cbs.steady_state import (
    ResolventError,
    dipole_expectations,
    intensities,
    perturbative_steady_state,
)

from conftest import generator, resolvent_solve, shifted_tilted_geometry, spectrum_at, stationary


def dense_reference_densities(gen, state, nu_grid):
    """Ladder and crossed densities from a per-nu loop of dense solves."""
    corrs = (qrt_initial(1, state), qrt_initial(2, state))
    phase = gen.detection_phase

    def g0(z, rhs):
        return resolvent_solve(gen.A, z, rhs)

    ladder, crossed = [], []
    for nu in nu_grid:
        z = -1j * nu
        diff = (-g0(z, g0(0.0, gen.V @ g0(z, gen.j)))
                - g0(0.0, gen.V @ g0(z, state.order0)))
        s1, s2 = (g0(z, gen.V @ g0(z, c.s0(1)) + c.s0(2)) + c.source_weight * diff
                  for c in corrs)
        ladder.append((_EXTRACT * (s1[_IDX_D1] + s2[_IDX_D2])).real / np.pi)
        crossed.append((_EXTRACT * (s1[_IDX_D2] * phase
                                    + s2[_IDX_D1] * np.conj(phase))).real / np.pi)
    return np.array(ladder), np.array(crossed)


class TestRegressionVectors:
    def test_source_weight_is_first_order_dipole(self):
        gen, state, _ = stationary(1.0)
        corr = qrt_initial(1, state)
        d1, _ = dipole_expectations(state, 1)
        assert corr.source_weight == pytest.approx(d1)

    def test_initial_condition_matches_operator_product(self):
        # <sigma_21^a B_n>_ss must equal the expectation of the matrix
        # product sigma_21^a @ B_n, order by order, for either atom a
        from twoatom_cbs.basis import sigma, two_atom_basis_flat

        gen, state, _ = stationary(2.0, 1.0)
        eye = np.eye(4, dtype=complex)
        flat = two_atom_basis_flat()
        for atom, op in ((1, np.kron(sigma(2, 1), eye)), (2, np.kron(eye, sigma(2, 1)))):
            corr = qrt_initial(atom, state)
            rng = np.random.default_rng(5)
            for n in rng.integers(1, 256, size=6):
                product = op @ flat[n].reshape(16, 16)
                for order in (0, 1, 2):
                    want = basis_expectation(product, state.order(order), order=order)
                    assert corr.s0(order)[n - 1] == pytest.approx(want, abs=1e-12)

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
        for atom, table in ((1, np.kron(l_sigma, eye)), (2, np.kron(eye, l_sigma))):
            corr = qrt_initial(atom, state)
            for order in (0, 1, 2):
                want = table[1:, 1:] @ state.order(order)
                if order == 0:
                    want = want + table[1:, 0] * TRACE_ELEMENT_VALUE
                scale = np.abs(state.order(order)).max()
                assert np.allclose(corr.s0(order), want, rtol=1e-13, atol=1e-15 * scale)


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
        g0 = gen.resolvent.solve
        u0 = g0(0.0, gen.j)
        static = g0(0.0, gen.V @ u0)
        for nu in (1e-3, 1e-4, 1e-5, 1e-6):
            z = -1j * nu
            naive = (g0(z, gen.V @ g0(z, gen.j)) - static) / z
            stabilized = -g0(z, g0(0.0, gen.V @ g0(z, gen.j))) - g0(0.0, gen.V @ g0(z, u0))
            scale = np.linalg.norm(stabilized)
            assert np.linalg.norm(naive - stabilized) / scale < 1e-6

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
        spec = inelastic_spectrum(gen, state, qrt_initial(1, state),
                                  qrt_initial(2, state), grid)
        ladder, crossed = dense_reference_densities(gen, state, grid)
        peak = np.abs(ladder).max()
        assert np.abs(spec.ladder_density - ladder).max() <= 1e-12 * peak
        assert np.abs(spec.crossed_density - crossed).max() <= 1e-12 * peak

    @pytest.mark.parametrize("geom", [Geometry.backscattering(100.0), shifted_tilted_geometry()],
                             ids=["backscattering", "shifted-tilted"])
    @pytest.mark.parametrize("rabi, detuning", [(0.1, 5.0), (0.5, 0.0), (1.0, 0.0),
                                                (100.0, 0.0)])
    def test_detected_rows_of_g0_live_on_one_coherence_pair(self, rabi, detuning, geom):
        # the sweep reads G0(z) only through rows _IDX_D1 and _IDX_D2, and
        # those rows vanish outside the detected coherence pair: atom 1's
        # entries (8, 0), (12, 0), atom 2's (0, 8), (0, 12), i.e. the block
        # (7, 11) of resolvent.BLOCKS.  At delta = 0, Omega = 0.5 is an
        # exceptional point of the 4x4 Bloch block and Omega = 1 one of every
        # coherence pair, the detected one included
        gen = assemble(DriveConfig(rabi=rabi, detuning=detuning), geom)
        assert _PAIR_ROWS.tolist() == [[127, 191], [7, 11]]
        for z in (0.0, -0.37j, -5j):
            g0 = np.linalg.inv(z * np.eye(N_TWO - 1) - gen.A)
            for index, pair_rows in zip((_IDX_D1, _IDX_D2), _PAIR_ROWS):
                row = np.abs(g0[index])
                support = np.flatnonzero(row > 1e-14 * row.max())
                assert support.tolist() == pair_rows.tolist()
                # packed position n - 1 of (l, m), n = 16 l + m: one atom's
                # coherences, one block of B_a = M_a[1:, 1:]
                l, m = np.divmod(support + 1, N_SINGLE)
                single = l if index == _IDX_D1 else m
                assert not np.any(m if index == _IDX_D1 else l)
                assert tuple(single - 1) in BLOCKS

    @pytest.mark.parametrize("geom", [Geometry.backscattering(100.0), shifted_tilted_geometry()],
                             ids=["backscattering", "shifted-tilted"])
    def test_stage1_tiles_cover_what_v_pair_rows_read(self, geom):
        # the first stage solves only the tiles (p, q) of resolvent.GROUPS
        # that hold a non-zero column of V's pair rows, plus the level-1
        # feeders (0, q) and (p, 0) of every level-2 tile among them; at
        # those columns it equals the full solve
        gen = assemble(DriveConfig(rabi=1.3, detuning=0.7), geom)
        v_rows = gen.V[_PAIR_ROWS]
        tiles = stage1_tiles(v_rows)
        columns = np.flatnonzero(np.abs(v_rows).sum(axis=(0, 1)))
        l, m = np.divmod(columns + 1, N_SINGLE)
        assert tiles[GROUP_OF[l], GROUP_OF[m]].all()
        assert not tiles[0, 0]
        for p, q in np.argwhere(tiles):
            if p and q:
                assert tiles[0, q] and tiles[p, 0]
        assert tiles.sum() < 0.5 * tiles.size
        z = -1j * np.array([0.0, 0.4, 7.0])[:, None]
        rhs = np.stack([gen.j, gen.V @ gen.j])
        full = gen.resolvent.solve(z, rhs)
        part = gen.resolvent.solve(z, rhs, tiles)
        assert np.array_equal(part[..., columns], full[..., columns])

    def test_non_finite_density_raises(self):
        # a broken input must fail the run, not be interpolated over
        gen = generator(1.0)
        state = perturbative_steady_state(gen)
        j = gen.j.copy()
        j[0] = np.nan
        broken = replace(gen, j=j)
        grid = np.linspace(-5.0, 5.0, 11)
        with pytest.raises(ResolventError, match="11 grid points .* nu = -5"):
            inelastic_spectrum(broken, state, qrt_initial(1, state),
                               qrt_initial(2, state), grid)


    def test_malformed_grids_are_rejected(self):
        # an empty or non-finite grid is a configuration error before any
        # solve; a descending grid gives the right densities, but no integral
        gen, state, ib = stationary(1.0)
        corrs = (qrt_initial(1, state), qrt_initial(2, state))
        for grid in ([], [-1.0, np.nan, 1.0], np.zeros((2, 3))):
            with pytest.raises(ConfigurationError, match="frequency grid"):
                inelastic_spectrum(gen, state, *corrs, grid)
        with pytest.raises(ConfigurationError, match="frequency grid"):
            compute_spectrum(gen, nu_grid=[])
        grid = np.linspace(-3.0, 3.0, 601)
        ascending = inelastic_spectrum(gen, state, *corrs, grid)
        descending = inelastic_spectrum(gen, state, *corrs, grid[::-1])
        assert np.allclose(descending.ladder_density, ascending.ladder_density[::-1],
                           rtol=1e-12, atol=0.0)
        check_sum_rule(ascending, ib, tolerance=1.0)
        for spec in (descending, replace(ascending, nu_grid=grid[:1],
                                         ladder_density=ascending.ladder_density[:1],
                                         crossed_density=ascending.crossed_density[:1])):
            with pytest.raises(ConfigurationError, match="strictly increasing"):
                check_sum_rule(spec, ib)

    def test_configuration_stacks_are_rejected(self):
        # spectra take one drive configuration; a stack fails before any solve
        stack = assemble(DriveConfig(rabi=[0.5, 1.0]), Geometry.backscattering(100.0))
        stack_state = perturbative_steady_state(stack)
        gen, state, _ = stationary(1.0)
        corrs = (qrt_initial(1, state), qrt_initial(2, state))
        with pytest.raises(ConfigurationError, match="one drive configuration"):
            qrt_initial(1, stack_state)
        with pytest.raises(ConfigurationError, match="one drive configuration"):
            inelastic_spectrum(stack, state, *corrs, [0.0, 1.0])
        with pytest.raises(ConfigurationError, match="one drive configuration"):
            compute_spectrum(stack, nu_grid=[0.0, 1.0])


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
        _, spec, ib = weak_point
        bad = replace(ib, L_inel=-1.0)
        with pytest.raises(ValueError):
            normalized_spectra(spec, bad)

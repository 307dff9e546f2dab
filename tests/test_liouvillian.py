"""Generator construction: geometry, coupling, and matrix-vs-direct validation."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twoatom_cbs.basis import (
    TRACE_ELEMENT_VALUE,
    expand_two_atom_operator,
    two_atom_basis_flat,
)
from twoatom_cbs.liouvillian import (
    E_PLUS,
    ConfigurationError,
    DriveConfig,
    Geometry,
    _interaction_matrix,
    _single_atom_matrix,
    angular_weight,
    assemble,
    coupling_constant,
    delta_plus_plus,
    helicity_projector,
    rabi_phases,
    transverse_projector,
)

from conftest import (
    apply_interaction_generator,
    apply_single_atom_generator,
    dense_a,
    inhomogeneity,
    reconstruct_two_atom_operator,
    shifted_tilted_geometry,
)

unit_vectors = st.tuples(
    st.floats(-1, 1), st.floats(0, 2 * np.pi)
).map(lambda t: np.array([
    np.sqrt(1 - t[0] ** 2) * np.cos(t[1]),
    np.sqrt(1 - t[0] ** 2) * np.sin(t[1]),
    t[0],
]))


def random_two_atom_operator(seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))


GEOMETRIES = (Geometry.backscattering(40.0), shifted_tilted_geometry())


def matrix_action(block, source, q):
    """Image of a two-atom operator under an assembled 255-block.

    `source` is the block's trace-element column: the identity row of the
    full coefficient matrix is zero, so the 255-block plus this column is
    the whole generator.
    """
    c = expand_two_atom_operator(q)
    image = np.concatenate([[source @ c[1:]], block.T @ c[1:]])
    return reconstruct_two_atom_operator(image)


class TestConfigs:
    def test_saturation_definition(self):
        cfg = DriveConfig(rabi=2.0, detuning=1.0)
        assert cfg.saturation == pytest.approx(4.0 / (2.0 * 2.0))

    @pytest.mark.parametrize("rabi", [0.0, -1.0])
    def test_rejects_nonpositive_rabi(self, rabi):
        # an undriven pair scatters nothing: no intensity to normalize by
        with pytest.raises(ConfigurationError, match="rabi must be positive"):
            DriveConfig(rabi=rabi)

    def test_rejects_coincident_atoms(self):
        with pytest.raises(ConfigurationError):
            Geometry(r1=np.zeros(3), r2=np.zeros(3))

    def test_rejects_overflowing_separation(self):
        # finite positions whose distance is not a float
        with pytest.raises(ConfigurationError, match="separation overflows"):
            Geometry.backscattering(1e300)

    @pytest.mark.parametrize("kwargs, message", [
        ({"rabi": [1.0, np.nan]}, "rabi must be finite"),
        ({"rabi": [1.0, 0.0]}, "rabi must be positive"),
        ({"rabi": 1.0, "detuning": [0.0, np.inf]}, "detuning must be finite"),
        ({"rabi": [1.0, 2.0], "detuning": [0.0, 1.0, 2.0]}, "do not broadcast"),
        ({"rabi": np.array([])}, r"shape \(0,\) is empty"),
        ({"rabi": 1.0, "detuning": np.zeros((3, 0))}, r"shape \(3, 0\) is empty"),
    ])
    def test_rejects_invalid_configuration_stack(self, kwargs, message):
        with pytest.raises(ConfigurationError, match=message):
            DriveConfig(**kwargs)

    def test_configuration_shape(self):
        assert DriveConfig(rabi=2.0, detuning=1.0).shape == ()
        cfg = DriveConfig(rabi=[[1.0], [2.0], [3.0]], detuning=[0.0, 5.0])
        assert cfg.shape == (3, 2)
        assert cfg.saturation.shape == (3, 2)
        with pytest.raises(ValueError):
            cfg.rabi[0, 0] = 7.0  # validated values stay as checked

    @pytest.mark.parametrize("k0_r12", [-100.0, 0.0, np.inf, np.nan, np.array([1.0, 2.0])])
    def test_backscattering_rejects_nonpositive_separation(self, k0_r12):
        with pytest.raises(ConfigurationError, match="k0_r12 must be positive"):
            Geometry.backscattering(k0_r12)

    @pytest.mark.parametrize("field", ["rabi", "detuning"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_drive(self, field, value):
        with pytest.raises(ConfigurationError, match=f"{field} must be finite"):
            DriveConfig(**{"rabi": 1.0, field: value})

    @pytest.mark.parametrize("field", ["r1", "r2", "k_out_dir"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_geometry(self, field, value):
        geom = Geometry.backscattering(50.0)
        fields = {name: getattr(geom, name).copy()
                  for name in ("r1", "r2", "k_out_dir")}
        fields[field][0] = value
        with pytest.raises(ConfigurationError, match=f"{field} must be finite"):
            Geometry(**fields)

    @pytest.mark.parametrize("field", ["r1", "r2", "k_out_dir"])
    @pytest.mark.parametrize("shape", [(2,), (4,), (2, 3)], ids=["2", "4", "2x3"])
    def test_rejects_geometry_that_is_not_3_vectors(self, field, shape):
        # rejected up front: a unit 2-vector detection direction would get as
        # far as intensities, and an r2 of shape (2, 3) has a norm
        fields = {"r1": np.zeros(3), "r2": np.array([100.0, 0.0, 0.0]),
                  "k_out_dir": np.array([0.0, 0.0, -1.0])}
        fields[field] = np.full(shape, 1.0 / np.sqrt(np.prod(shape)))
        with pytest.raises(ConfigurationError, match=f"{field} must be a 3-vector"):
            Geometry(**fields)

    @pytest.mark.parametrize("drive, message", [
        pytest.param({"rabi": 1e14}, "singular", id="rabi=1e14"),
        pytest.param({"rabi": 1.0, "detuning": 1e20}, "singular", id="detuning=1e20"),
        pytest.param({"rabi": 1.7e308}, "overflows", id="rabi=1.7e308"),
        pytest.param({"rabi": 1.0, "detuning": 1e308}, "overflows", id="detuning=1e308"),
    ])
    def test_rejects_singular_generator(self, drive, message):
        # a drive so strong that the unit decay rate sits at the rounding
        # level of A leaves eigenvalues there, and a stronger one overflows;
        # both checks must fire before the tiles are summed or divided by
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ConfigurationError, match=message):
                assemble(DriveConfig(**drive), Geometry.backscattering(50.0))

    def test_backscattering_geometry(self):
        geom = Geometry.backscattering(50.0)
        assert geom.k0_r12 == pytest.approx(50.0)
        # detection against the laser, which propagates along +z
        assert np.array_equal(geom.k_out_dir, [0.0, 0.0, -1.0])
        # both atoms sit in the plane transverse to the laser: equal phases
        ph1, ph2 = rabi_phases(geom)
        assert ph1 == pytest.approx(ph2) == pytest.approx(1.0)


class TestGeometryFactors:
    def test_coupling_magnitude(self):
        g = coupling_constant(30.0)
        assert abs(g) == pytest.approx(1.5 / 30.0)

    def test_coupling_warns_in_near_field(self):
        with pytest.warns(UserWarning, match="far-field"):
            coupling_constant(2.0)

    @pytest.mark.parametrize("k0_r12", [np.nan, np.inf, 0.0, -1.0, np.array([20.0, np.nan, 40.0])],
                             ids=["nan", "inf", "zero", "negative", "array-with-nan"])
    def test_coupling_rejects_bad_separation(self, k0_r12):
        # a configuration error, not nan + nan j with RuntimeWarnings
        with pytest.raises(ConfigurationError, match="k0_r12 must be finite and positive"):
            coupling_constant(k0_r12)

    def test_coupling_vectorized(self):
        r = np.array([20.0, 40.0])
        g = coupling_constant(r)
        assert np.allclose(np.abs(g), 1.5 / r)

    @given(unit_vectors)
    @settings(max_examples=30, deadline=None)
    def test_transverse_projector_annihilates_n(self, n_hat):
        p = transverse_projector(n_hat)
        assert np.allclose(p @ n_hat, 0.0, atol=1e-12)
        assert np.allclose(p @ p, p, atol=1e-12)

    def test_transverse_projector_rejects_non_unit_vector(self):
        with pytest.raises(ConfigurationError, match="unit vector"):
            transverse_projector([1.0, 1.0, 0.0])

    @pytest.mark.parametrize("factor", [
        transverse_projector, delta_plus_plus, lambda n_hat: angular_weight(n_hat, 0.01)],
        ids=["transverse_projector", "delta_plus_plus", "angular_weight"])
    @pytest.mark.parametrize("n_hat", [
        [2.0, 0.0, 0.0], [1.0, 0.0], [np.nan, 0.0, 0.0], [[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]],
        ids=["norm-2", "2-vector", "nan", "stack-with-norm-2"])
    def test_geometry_factors_need_unit_3_vectors(self, factor, n_hat):
        # one check for all three, over any leading axes
        with pytest.raises(ConfigurationError, match=r"unit vector of shape \(\.\.\., 3\)"):
            factor(n_hat)

    @given(st.lists(unit_vectors, min_size=1, max_size=5))
    @settings(max_examples=30, deadline=None)
    def test_projectors_take_stacks(self, n_hats):
        n_hats = np.array(n_hats)
        for projector in (transverse_projector, helicity_projector):
            assert np.array_equal(projector(n_hats), [projector(n) for n in n_hats])

    @given(unit_vectors)
    @settings(max_examples=30, deadline=None)
    def test_helicity_projector_hermitian(self, n_hat):
        ph = helicity_projector(n_hat)
        assert np.allclose(ph, ph.conj().T, atol=1e-12)

    def test_delta_plus_plus_transverse_separation(self):
        # n_hat perpendicular to the propagation axis: sin(theta) = 1
        assert delta_plus_plus(np.array([1.0, 0.0, 0.0])) == pytest.approx(-0.5)

    def test_delta_plus_plus_longitudinal_separation(self):
        assert delta_plus_plus(np.array([0.0, 0.0, 1.0])) == pytest.approx(0.0, abs=1e-14)

    @given(st.lists(unit_vectors, min_size=1, max_size=5))
    @settings(max_examples=30, deadline=None)
    def test_delta_plus_plus_is_the_projector_element(self, n_hats):
        # e_+1 . (1 - n n^T) . e_+1, one configuration at a time and stacked
        n_hats = np.array(n_hats)
        direct = [E_PLUS @ transverse_projector(n) @ E_PLUS for n in n_hats]
        assert np.allclose(delta_plus_plus(n_hats), direct, rtol=0, atol=1e-15)

    def test_angular_weight(self):
        n_hat = np.array([1.0, 0.0, 0.0])
        g = 0.015j
        assert angular_weight(n_hat, g) == pytest.approx(abs(g) ** 2 * 0.25)


class TestGeneratorCrossValidation:
    """The assembled matrices must reproduce the direct operator algebra."""

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_single_atom_matrix_matches_direct_action(self, seed):
        cfg = DriveConfig(rabi=1.3, detuning=0.7)
        q = random_two_atom_operator(seed)
        for geom in GEOMETRIES:
            gen = assemble(cfg, geom)
            ph1, ph2 = rabi_phases(geom)
            via_matrix = matrix_action(dense_a(gen), inhomogeneity(gen) / TRACE_ELEMENT_VALUE, q)
            direct = (apply_single_atom_generator(cfg, q, 1, ph1)
                      + apply_single_atom_generator(cfg, q, 2, ph2))
            assert np.allclose(via_matrix, direct, atol=1e-12)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_interaction_matrix_matches_direct_action(self, seed):
        cfg = DriveConfig(rabi=2.0, detuning=0.0)
        q = random_two_atom_operator(seed)
        for geom in GEOMETRIES:
            gen = assemble(cfg, geom)
            via_matrix = matrix_action(gen.V, np.zeros(255), q)
            direct = (apply_interaction_generator(geom, gen.g, q, 1, 2)
                      + apply_interaction_generator(geom, gen.g, q, 2, 1))
            assert np.allclose(via_matrix, direct, atol=1e-12)

    def test_coefficient_matrix_expands_generator_output(self):
        cfg = DriveConfig(rabi=0.8, detuning=0.2)
        m = np.kron(_single_atom_matrix(cfg, 1.0), np.eye(16))
        flat = two_atom_basis_flat()
        for n in (0, 5, 100, 255):
            image = apply_single_atom_generator(cfg, flat[n].reshape(16, 16), 1)
            assert np.allclose(expand_two_atom_operator(image), m[n], atol=1e-12)


class TestAssembledGenerators:
    def test_trace_conservation(self):
        # the trace element is stationary: its row of the coefficient
        # matrix vanishes for both generator pieces (checked in assemble,
        # re-derived here explicitly)
        cfg = DriveConfig(rabi=5.0, detuning=2.0)
        geom = Geometry.backscattering(60.0)
        m1 = _single_atom_matrix(cfg, 1.0)
        m = np.kron(m1, np.eye(16)) + np.kron(np.eye(16), m1)
        assert np.abs(m[0]).max() < 1e-12
        m_int = _interaction_matrix(geom.n_hat, coupling_constant(60.0))
        assert np.abs(m_int[0]).max() < 1e-12

    def test_interaction_has_no_source(self):
        gen = assemble(DriveConfig(rabi=1.0), Geometry.backscattering(80.0))
        assert gen.V.shape == (255, 255)
        # V acts purely homogeneously: no column into the trace element
        # survived assembly (assemble would have raised otherwise)
        assert inhomogeneity(gen).shape == (255,)

    def test_spectral_gap_is_one(self):
        # the slowest decay channel of the uncoupled dynamics relaxes at
        # exactly the dipole rate
        gen = assemble(DriveConfig(rabi=1.0), Geometry.backscattering(80.0))
        eigs = np.linalg.eigvals(dense_a(gen))
        assert np.max(eigs.real) == pytest.approx(-1.0, abs=1e-9)

    def test_detection_phase_at_backscattering(self):
        gen = assemble(DriveConfig(rabi=1.0), Geometry.backscattering(100.0))
        assert gen.detection_phase == pytest.approx(1.0)

    def test_phase_covariance_under_translation(self):
        # shifting both atoms by a common vector leaves all intensities
        # invariant (the Rabi phases rotate, physics does not)
        from twoatom_cbs.steady_state import intensities, perturbative_steady_state

        cfg = DriveConfig(rabi=3.0, detuning=1.0)
        geom_a = Geometry.backscattering(70.0)
        shift = np.array([0.3, -1.2, 4.7])
        geom_b = Geometry(r1=geom_a.r1 + shift, r2=geom_a.r2 + shift)
        ib_a = intensities(perturbative_steady_state(assemble(cfg, geom_a)),
                           assemble(cfg, geom_a))
        ib_b = intensities(perturbative_steady_state(assemble(cfg, geom_b)),
                           assemble(cfg, geom_b))
        assert ib_a.L_tot == pytest.approx(ib_b.L_tot, rel=1e-10)
        assert ib_a.C_tot == pytest.approx(ib_b.C_tot, rel=1e-10)

"""Disorder averaging: analytic factors, Monte Carlo convergence, cone profile."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from twoatom_cbs.config_average import (
    ANGULAR_FACTOR,
    THETA_SQ_COEFFICIENT,
    DisorderModel,
    angular_weight_evaluator,
    cbs_cone,
    cone_half_width,
    monte_carlo_average,
    unit_vectors,
)
from twoatom_cbs.cli import main
from twoatom_cbs.liouvillian import (ConfigurationError, DriveConfig, Geometry, assemble,
                                     coupling_constant, delta_plus_plus)
from twoatom_cbs.steady_state import intensities, perturbative_steady_state

from conftest import angular_factor_analytic, crossed_phase_evaluator, mean_coupling_sq


class TestAnalyticFactors:
    def test_quadrature_oracle(self):
        # isotropic mean of sin^4(theta)/4 over the sphere
        val, _ = quad(lambda t: 0.25 * np.sin(t) ** 4 * 0.5 * np.sin(t), 0, np.pi)
        factor, theta_sq = angular_factor_analytic()
        assert factor == pytest.approx(val, rel=1e-10)
        assert factor == pytest.approx(2 / 15)
        assert theta_sq == pytest.approx(1 / 35)


class TestFactorisation:
    """The factorisation the averages assume: an order-g^2 intensity is an
    atomic part times the geometric weight |g|^2 |Delta_{+1,+1}|^2, times
    the crossed phase, checked against the master equation over a
    deterministic orientation rule."""

    def test_orientation_average_of_the_master_equation(self):
        # 8 Gauss-Legendre nodes in cos theta (exact for sin^4 theta, a
        # degree-4 polynomial) times 12 trapezoid nodes in phi
        k0_r12, x_values = 100.0, (0.1, 0.2)
        cos_t, weights = np.polynomial.legendre.leggauss(8)
        cos_t, phi = np.meshgrid(cos_t, 2.0 * np.pi * np.arange(12) / 12, indexing="ij")
        weights = np.repeat(weights / 2.0, 12) / 12
        ladder, crossed, reduced = [], [], []
        for n_hat in unit_vectors(cos_t, phi).reshape(-1, 3):
            gen = assemble(DriveConfig(rabi=0.5), Geometry(r1=np.zeros(3), r2=-k0_r12 * n_hat))
            state = perturbative_steady_state(gen)
            ib = intensities(state, gen)
            ladder.append(ib.L_tot)
            reduced.append((ib.L_tot / gen.angular_weight, ib.C_tot / gen.angular_weight))
            # k_out_dir tilted by theta_d enters only the detection phase, so
            # one state serves every angle: k l theta_d = x
            crossed.append([intensities(state, replace(gen, geom=replace(
                gen.geom, k_out_dir=np.array([np.sin(x / k0_r12), 0.0, -np.cos(x / k0_r12)]))
            )).C_tot for x in x_values])
        reduced = np.array(reduced)
        # the atomic parts L_red and C_red do not depend on the orientation
        # (measured spread 6.1e-14 and 4.4e-14 of the mean)
        l_red, c_red = reduced.mean(axis=0)
        assert np.all(np.ptp(reduced, axis=0) <= 4e-13 * np.abs([l_red, c_red]))
        g_sq = abs(coupling_constant(k0_r12)) ** 2
        # <L> = (2/15) |g|^2 L_red (measured 2.2e-15)
        assert weights @ ladder == pytest.approx(ANGULAR_FACTOR * g_sq * l_red, rel=2e-14)
        # <C>(x) / (|g|^2 C_red) = 2/15 - x^2/35 + O(x^4); Richardson removes
        # the x^4 term from the coefficient (measured 5.6e-7)
        coefficient = [(ANGULAR_FACTOR - weights @ c / (g_sq * c_red)) / x ** 2
                       for x, c in zip(x_values, np.transpose(crossed))]
        assert (4.0 * coefficient[0] - coefficient[1]) / 3.0 == pytest.approx(
            THETA_SQ_COEFFICIENT, rel=5e-6)


class TestDisorderModel:
    def test_rejects_window_reaching_zero(self):
        with pytest.raises(ConfigurationError):
            DisorderModel(mean_separation=2.0, width=10.0)

    @pytest.mark.parametrize("field", ["mean_separation", "width"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -5.0, 0.0])
    def test_rejects_non_finite_or_non_positive_lengths(self, field, value):
        with pytest.raises(ConfigurationError, match=f"{field} must be finite and positive"):
            DisorderModel(**{"mean_separation": 100.0, field: value})

    def test_rejects_zero_samples(self):
        with pytest.raises(ConfigurationError):
            DisorderModel(mean_separation=100.0, samples=0)

    def test_warns_for_dense_medium(self):
        with pytest.warns(UserWarning, match="wavelength"):
            DisorderModel(mean_separation=8.0)

    def test_dense_medium_warning_names_its_caller(self):
        # the warning points at the line that built the model, not at the
        # dataclass's generated __init__
        with pytest.warns(UserWarning, match="wavelength") as record:
            DisorderModel(mean_separation=8.0)
        assert [w.filename for w in record] == [__file__]

    def test_mean_coupling_modes_agree(self):
        model = DisorderModel(mean_separation=200.0, samples=50_000, seed=11)
        analytic = mean_coupling_sq(model)
        sampled = mean_coupling_sq(model, sampled=True)
        assert analytic == pytest.approx(abs(coupling_constant(200.0)) ** 2)
        # relative spread of order (width / separation)^2
        assert sampled == pytest.approx(analytic, rel=5e-3)


class TestMonteCarlo:
    def test_angular_factor_within_four_standard_errors(self):
        model = DisorderModel(mean_separation=100.0, samples=1_000_000, seed=42)
        result = monte_carlo_average(model, angular_weight_evaluator)
        assert abs(result.mean - ANGULAR_FACTOR) < 4 * result.standard_error
        assert result.standard_error < 5e-4

    def test_deterministic_under_fixed_seed(self):
        model = DisorderModel(mean_separation=100.0, samples=30_000, seed=7)
        a = monte_carlo_average(model, angular_weight_evaluator)
        b = monte_carlo_average(model, angular_weight_evaluator)
        assert a.mean == b.mean
        assert a.standard_error == b.standard_error

    def test_crossed_phase_at_backscattering_is_exactly_one(self):
        model = DisorderModel(mean_separation=100.0, samples=500, seed=1)
        result = monte_carlo_average(model, crossed_phase_evaluator(np.zeros(3)))
        assert result.mean == 1.0
        assert result.standard_error == 0.0

    def test_factorized_crossed_average(self):
        # at theta = 0 the phase is 1, so the averaged crossed weight is
        # just the angular factor: the factorization must close
        model = DisorderModel(mean_separation=100.0, samples=100_000, seed=3)

        def weighted(cos_t, phi, r):
            return angular_weight_evaluator(cos_t, phi, r) * crossed_phase_evaluator(
                np.zeros(3))(cos_t, phi, r)

        combined = monte_carlo_average(model, weighted)
        assert combined.mean == pytest.approx(ANGULAR_FACTOR, abs=1e-3)

    def test_ensemble_is_the_chunked_draw_stream(self, capsys):
        # 70 000 samples: one full chunk of 65 536, then a partial one of 4464.
        # Each chunk draws cos theta, phi, then r; the weight from cos theta
        # alone must match |Delta_{+1,+1}(n_hat)|^2 on the same draws.
        model = DisorderModel(mean_separation=500.0, samples=70_000, seed=5)
        rng = np.random.default_rng(model.seed)
        lo, hi = model.mean_separation - model.width / 2, model.mean_separation + model.width / 2
        weights = []
        for count in (1 << 16, 70_000 - (1 << 16)):
            cos_t = rng.uniform(-1.0, 1.0, size=count)
            phi = rng.uniform(0.0, 2.0 * np.pi, size=count)
            rng.uniform(lo, hi, size=count)
            weights.append(np.abs(delta_plus_plus(unit_vectors(cos_t, phi))) ** 2)
        weights = np.concatenate(weights)
        result = monte_carlo_average(model, angular_weight_evaluator)
        assert result.mean == pytest.approx(weights.mean(), rel=2e-15, abs=0)
        assert result.standard_error == pytest.approx(
            weights.std() / np.sqrt(weights.size), rel=1e-14, abs=0)

        code = main(["cone", "--k-ell", "500", "--theta-max", "0.002", "--theta-points", "3",
                     "--mc-samples", "70000", "--seed", "5"])
        assert code == 0
        header = dict(line[2:].split(" = ", 1) for line in capsys.readouterr().out.splitlines()
                      if line.startswith("# "))
        assert float(header["mc_angular_factor"]) == result.mean
        assert float(header["mc_angular_stderr"]) == result.standard_error

    def test_convergence_rate(self):
        errs = []
        for samples in (10_000, 160_000):
            model = DisorderModel(mean_separation=100.0, samples=samples, seed=9)
            errs.append(monte_carlo_average(model, angular_weight_evaluator).standard_error)
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)


class TestCone:
    def test_peak_value(self):
        assert cbs_cone(np.array([0.0]), 0.97, 100.0)[0] == pytest.approx(0.97)

    def test_half_width_scaling(self):
        # doubling k*l halves the cone width
        assert cone_half_width(200.0) == pytest.approx(cone_half_width(100.0) / 2)
        theta_half = cone_half_width(100.0)
        profile = cbs_cone(np.array([theta_half]), 1.0, 100.0)
        assert profile[0] == pytest.approx(0.5, rel=1e-10)

    @pytest.mark.parametrize("k_ell", [np.nan, np.inf, -5.0, 0.0])
    def test_rejects_invalid_k_ell(self, k_ell):
        with pytest.raises(ConfigurationError, match="k_ell must be finite and positive"):
            cbs_cone(np.array([0.0, 0.01]), 1.0, k_ell)

    def test_rejects_large_angles(self):
        with pytest.raises(ConfigurationError):
            cbs_cone(np.array([1.5]), 1.0, 100.0)

    def test_warns_past_validity(self):
        with pytest.warns(UserWarning, match="validity"):
            cbs_cone(np.array([0.5]), 1.0, 100.0)

    def test_rejects_overflowing_profile(self):
        # (k_ell theta)^2 = 1e398 is no float: an error, not -inf contrast
        # (and no RuntimeWarning, which the suite turns into an error)
        with pytest.raises(ConfigurationError, match="overflows"):
            cbs_cone(np.array([0.0, 0.01, 0.02]), 1.0, 1e200)

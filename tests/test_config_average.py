"""Disorder averaging: analytic factors, Monte Carlo convergence, cone profile."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from twoatom_cbs.config_average import (
    ANGULAR_FACTOR,
    THETA_SQ_COEFFICIENT,
    angular_factor_estimate,
    cbs_cone,
    cone_half_width,
)
from twoatom_cbs.cli import main
from twoatom_cbs.liouvillian import (ConfigurationError, DriveConfig, Geometry, assemble,
                                     coupling_constant, delta_plus_plus)
from twoatom_cbs.steady_state import intensities, perturbative_steady_state

from conftest import angular_factor_analytic, unit_vectors


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
    def test_rejects_zero_samples(self):
        with pytest.raises(ConfigurationError):
            angular_factor_estimate(0, 0)

    @pytest.mark.parametrize("samples, seed, match", [
        # one sample has no spread, so no standard error
        (1, 0, "at least 2 Monte Carlo samples"),
        (-5, 0, "at least 2 Monte Carlo samples"),
        (2, -1, "seed must be non-negative"),
    ])
    def test_rejects_too_few_samples_or_negative_seed(self, samples, seed, match):
        with pytest.raises(ConfigurationError, match=match):
            angular_factor_estimate(samples, seed)


class TestMonteCarlo:
    def test_angular_factor_within_four_standard_errors(self):
        mean, stderr = angular_factor_estimate(1_000_000, 42)
        assert abs(mean - ANGULAR_FACTOR) < 4 * stderr
        assert stderr < 5e-4

    def test_deterministic_under_fixed_seed(self):
        assert angular_factor_estimate(30_000, 7) == angular_factor_estimate(30_000, 7)

    def test_ensemble_is_the_chunked_draw_stream(self, capsys):
        # 70 000 samples: one full chunk of 65 536, then a partial one of 4464.
        # Each chunk draws cos theta, phi, then r; the estimate from cos theta
        # alone must match |Delta_{+1,+1}(n_hat)|^2 on the same draws.
        rng = np.random.default_rng(5)
        weights = []
        for count in (1 << 16, 70_000 - (1 << 16)):
            cos_t = rng.uniform(-1.0, 1.0, size=count)
            phi = rng.uniform(0.0, 2.0 * np.pi, size=count)
            rng.uniform(500.0 - np.pi, 500.0 + np.pi, size=count)
            weights.append(np.abs(delta_plus_plus(unit_vectors(cos_t, phi))) ** 2)
        weights = np.concatenate(weights)
        mean, stderr = angular_factor_estimate(70_000, 5)
        assert mean == pytest.approx(weights.mean(), rel=2e-15, abs=0)
        assert stderr == pytest.approx(weights.std() / np.sqrt(weights.size), rel=1e-14, abs=0)

        code = main(["cone", "--k-ell", "500", "--theta-max", "0.002", "--theta-points", "3",
                     "--mc-samples", "70000", "--seed", "5"])
        assert code == 0
        header = dict(line[2:].split(" = ", 1) for line in capsys.readouterr().out.splitlines()
                      if line.startswith("# "))
        assert float(header["mc_angular_factor"]) == mean
        assert float(header["mc_angular_stderr"]) == stderr

    @pytest.mark.parametrize("samples", [2, 100, (1 << 16) - 1, 1 << 16, (1 << 16) + 1,
                                         (2 << 16) + 3])
    def test_chunk_boundaries_follow_the_draw_stream(self, samples):
        # every chunk of 65 536 draws cos theta, phi and r in turn, the last
        # chunk only the remainder; past one chunk the skipped phi and r
        # draws decide which cos theta the next chunk reads
        rng = np.random.default_rng(3)
        weights = []
        for start in range(0, samples, 1 << 16):
            count = min(1 << 16, samples - start)
            cos_t = rng.uniform(-1.0, 1.0, size=count)
            rng.uniform(0.0, 2.0 * np.pi, size=count)
            rng.uniform(100.0 - np.pi, 100.0 + np.pi, size=count)
            weights.append(0.25 * (1.0 - cos_t**2) ** 2)
        weights = np.concatenate(weights)
        mean, stderr = angular_factor_estimate(samples, 3)
        assert mean == pytest.approx(weights.mean(), rel=1e-14, abs=0)
        assert stderr == pytest.approx(weights.std() / np.sqrt(samples), rel=1e-12, abs=0)

    @pytest.mark.parametrize("k_ell", ["1", "3", "8", "500"])
    def test_cone_estimate_does_not_read_k_ell(self, k_ell, capsys):
        # only orientations are drawn: any k l, a dense medium included, gives
        # the same estimate, without a warning or an error
        code = main(["cone", "--k-ell", k_ell, "--theta-max", "1e-4", "--theta-points", "3",
                     "--mc-samples", "1000", "--seed", "3"])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        header = dict(line[2:].split(" = ", 1) for line in captured.out.splitlines()
                      if line.startswith("# "))
        mean, stderr = angular_factor_estimate(1000, 3)
        assert float(header["mc_angular_factor"]) == mean
        assert float(header["mc_angular_stderr"]) == stderr

    def test_convergence_rate(self):
        errs = [angular_factor_estimate(samples, 9)[1] for samples in (10_000, 160_000)]
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

    @pytest.mark.parametrize("k_ell", [np.nan, np.inf, -5.0, 0.0, np.array([1.0, 2.0])])
    def test_rejects_invalid_k_ell(self, k_ell):
        with pytest.raises(ConfigurationError, match="k_ell must be finite and positive"):
            cbs_cone(np.array([0.0, 0.01]), 1.0, k_ell)
        with pytest.raises(ConfigurationError, match="k_ell must be finite and positive"):
            cone_half_width(k_ell)

    def test_rejects_large_angles(self):
        with pytest.raises(ConfigurationError):
            cbs_cone(np.array([1.5]), 1.0, 100.0)

    @pytest.mark.parametrize("theta", [np.nan, np.inf])
    def test_rejects_non_finite_angle(self, theta):
        # a non-finite angle is outside the expansion, not an overflow
        with pytest.raises(ConfigurationError, match="small-angle expansion"):
            cbs_cone(np.array([0.0, theta]), 1.0, 10.0)

    def test_warns_past_validity(self):
        with pytest.warns(UserWarning, match="validity"):
            cbs_cone(np.array([0.5]), 1.0, 100.0)

    def test_rejects_overflowing_profile(self):
        # (k_ell theta)^2 = 1e398 is no float: an error, not -inf contrast
        # (and no RuntimeWarning, which the suite turns into an error)
        with pytest.raises(ConfigurationError, match="overflows"):
            cbs_cone(np.array([0.0, 0.01, 0.02]), 1.0, 1e200)

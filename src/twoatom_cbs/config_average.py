"""Disorder average over pair orientation and separation, and the CBS cone.

All order-g^2 observables factorize into an atomic part times the
geometric weight |g|^2 |Delta_{+1,+1}|^2 times a phase, so the default
averaging path multiplies single-configuration results by analytic
angular factors.  A Monte Carlo path over random configurations is kept
as an independent cross-check.  It hands each evaluator the draws as made,
(cos theta, azimuth, separation): the angular weight sin^4(theta)/4 reads
cos theta alone, and an evaluator that needs the pair axis forms it with
`unit_vectors`.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

#: isotropic average of |Delta_{+1,+1}|^2 = <sin^4(theta)>/4 = 2/15
ANGULAR_FACTOR = 2.0 / 15.0

#: coefficient of -(k l theta)^2 in the small-angle crossed profile
THETA_SQ_COEFFICIENT = 1.0 / 35.0

_CHUNK = 1 << 16


def check_seed(seed):
    """Raise ConfigurationError for a negative RNG seed."""
    if seed < 0:
        raise ConfigurationError(f"seed must be non-negative, not {seed}")


@dataclass(frozen=True)
class DisorderModel:
    """Random pair geometry: isotropic orientation, uniform distance window.

    Parameters
    ----------
    mean_separation : float
        Mean interatomic distance in units of 1/k0 (the mean free path
        scale); must be much larger than the wavelength 2 pi.
    width : float
        Full width of the uniform distance window, one wavelength by
        default.
    samples : int
        Monte Carlo sample count.
    seed : int
        RNG seed; fixed seed gives bit-identical averages.
    """

    mean_separation: float
    width: float = 2.0 * np.pi
    samples: int = 100_000
    seed: int = 0

    def __post_init__(self):
        for name in ("mean_separation", "width"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ConfigurationError(f"{name} must be finite and positive, not {value}")
        if self.mean_separation <= self.width / 2:
            raise ConfigurationError(
                f"distance window [{self.mean_separation - self.width / 2}, "
                f"{self.mean_separation + self.width / 2}] reaches zero separation"
            )
        if self.mean_separation < 4.0 * np.pi:
            warnings.warn(
                f"mean separation {self.mean_separation:.3g}/k0 is not large "
                "against the wavelength; the dilute-medium picture degrades",
                # past this method and the dataclass's generated __init__
                stacklevel=3,
            )
        if self.samples < 1:
            raise ConfigurationError("at least one Monte Carlo sample required")
        check_seed(self.seed)

    def sample(self, rng, count):
        """Draw `count` configurations as (cos_theta, phi, separation) arrays.

        Orientations are uniform on the sphere (uniform cos theta and
        azimuth phi), distances uniform over the window; the three are
        drawn in that order.
        """
        cos_t = rng.uniform(-1.0, 1.0, size=count)
        phi = rng.uniform(0.0, 2.0 * np.pi, size=count)
        r = rng.uniform(
            self.mean_separation - self.width / 2,
            self.mean_separation + self.width / 2,
            size=count,
        )
        return cos_t, phi, r


def unit_vectors(cos_t, phi):
    """Pair axes n_hat, shape (..., 3), from polar cosines and azimuths."""
    sin_t = np.sqrt(1.0 - cos_t**2)
    return np.stack([sin_t * np.cos(phi), sin_t * np.sin(phi), cos_t], axis=-1)


@dataclass(frozen=True)
class AverageResult:
    """Monte Carlo mean with its standard error."""

    mean: np.ndarray | float
    standard_error: np.ndarray | float
    samples: int


def monte_carlo_average(model: DisorderModel, evaluator) -> AverageResult:
    """Average a per-configuration observable over the disorder ensemble.

    Parameters
    ----------
    model : DisorderModel
    evaluator : callable
        Vectorized map (cos_theta (n,), phi (n,), separation (n,)) -> values
        with leading axis n; scalar observables return shape (n,).  The
        pair axis is `unit_vectors(cos_theta, phi)`.

    Returns
    -------
    AverageResult
        Mean and standard error over `model.samples` draws.  Summation
        runs in fixed-size chunks in draw order, so a given seed yields
        identical bytes on every run.
    """
    rng = np.random.default_rng(model.seed)
    total = None
    total_sq = None
    remaining = model.samples
    while remaining > 0:
        count = min(_CHUNK, remaining)
        values = np.asarray(evaluator(*model.sample(rng, count)))
        s = values.sum(axis=0)
        s2 = (values * np.conj(values)).real.sum(axis=0)
        if total is None:
            total, total_sq = s, s2
        else:
            total = total + s
            total_sq = total_sq + s2
        remaining -= count
    n = model.samples
    mean = total / n
    var = np.maximum(total_sq / n - np.abs(mean) ** 2, 0.0)
    stderr = np.sqrt(var / n)
    return AverageResult(mean=mean, standard_error=stderr, samples=n)


def angular_weight_evaluator(cos_t, phi, r):
    """|Delta_{+1,+1}|^2 = sin^4(theta)/4 per configuration, for Monte Carlo cross-checks."""
    s2 = 1.0 - cos_t * cos_t
    return 0.25 * s2 * s2


def cbs_cone(theta_grid, contrast_at_zero, k_ell):
    """Small-angle crossed/ladder contrast profile around backscattering.

    The configuration-averaged crossed intensity carries the angular
    factor 2/15 - (k l theta)^2 / 35 while the ladder keeps 2/15, so

        C(theta)/L = contrast_at_zero * (1 - (3/14)(k l theta)^2).

    Parameters
    ----------
    theta_grid : array
        Scattering angles in radians, small against 1.
    contrast_at_zero : float
        C_tot/L_tot of the single-configuration calculation at theta=0.
    k_ell : float
        Product of wavenumber and mean separation; sets the cone width
        proportional to 1/(k l).

    Raises
    ------
    ConfigurationError
        If any angle is outside the small-angle regime, k_ell is not finite
        and positive, or (k_ell theta)^2 is too large for a float.
    """
    if not (np.isfinite(k_ell) and k_ell > 0):
        raise ConfigurationError(f"k_ell must be finite and positive, not {k_ell}")
    theta_grid = np.asarray(theta_grid, dtype=float)
    if np.any(np.abs(theta_grid) >= 1.0):
        raise ConfigurationError("cone profile is a small-angle expansion")
    with np.errstate(over="ignore"):
        x_sq = (k_ell * theta_grid) ** 2
    if not np.isfinite(x_sq).all():
        raise ConfigurationError(f"(k_ell * theta)^2 overflows at k_ell = {k_ell}")
    reduction = 1.0 - (THETA_SQ_COEFFICIENT / ANGULAR_FACTOR) * x_sq
    if np.any(reduction < -1.0):
        warnings.warn(
            "angles beyond the quadratic-profile validity range: the "
            "expansion has crossed zero",
            stacklevel=2,
        )
    return contrast_at_zero * reduction


def cone_half_width(k_ell):
    """Angle where the quadratic crossed profile drops to half its peak.

    Solves 2/15 - (k l theta)^2/35 = 1/15, giving sqrt(7/3)/(k l).
    """
    return np.sqrt(7.0 / 3.0) / k_ell

"""Orientation average of the pair geometry, and the CBS cone.

All order-g^2 observables factorize into an atomic part times the
geometric weight |g|^2 |Delta_{+1,+1}|^2 times a phase, so averaging
multiplies single-configuration results by analytic angular factors.
`angular_factor_estimate` is the Monte Carlo cross-check of the one factor
the cone rests on, <sin^4(theta)>/4 = 2/15, over random orientations.
"""

import warnings

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


def _check_k_ell(k_ell):
    if not (np.ndim(k_ell) == 0 and np.isfinite(k_ell) and k_ell > 0):
        raise ConfigurationError(f"k_ell must be finite and positive, not {k_ell}")


def angular_factor_estimate(samples, seed):
    """Monte Carlo mean and standard error of sin^4(theta)/4 over isotropic
    orientations: a cross-check of ANGULAR_FACTOR.

    Draws run in chunks of `_CHUNK` in a fixed layout, cos theta then an
    azimuth then a separation per chunk; only cos theta enters the weight,
    so the other two draws are skipped with `advance` and a seed fixes the
    ensemble, and the bytes of the result.  Fewer than 2 samples or a
    negative seed raise ConfigurationError.
    """
    if samples < 2:
        raise ConfigurationError(f"need at least 2 Monte Carlo samples, not {samples}")
    check_seed(seed)
    rng = np.random.default_rng(seed)
    total = total_sq = 0.0
    for start in range(0, samples, _CHUNK):
        count = min(_CHUNK, samples - start)
        s2 = 1.0 - rng.uniform(-1.0, 1.0, size=count) ** 2
        rng.bit_generator.advance(2 * count)
        values = 0.25 * s2 * s2
        total = total + values.sum()
        total_sq = total_sq + (values * values).sum()
    mean = total / samples
    var = np.maximum(total_sq / samples - mean**2, 0.0)
    return mean, np.sqrt(var / samples)


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
        Product of wavenumber and mean separation, a scalar; sets the cone width
        proportional to 1/(k l).

    Raises
    ------
    ConfigurationError
        If any angle is not finite and below 1 rad in magnitude (the
        small-angle regime), k_ell is not a finite positive scalar, or
        (k_ell theta)^2 is too large for a float.
    """
    _check_k_ell(k_ell)
    theta_grid = np.asarray(theta_grid, dtype=float)
    if not np.all(np.abs(theta_grid) < 1.0):
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

    Solves 2/15 - (k l theta)^2/35 = 1/15, giving sqrt(7/3)/(k l) for a scalar k_ell > 0.
    """
    _check_k_ell(k_ell)
    return np.sqrt(7.0 / 3.0) / k_ell

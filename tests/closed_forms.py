"""Closed-form reference expressions used as test oracles.

Everything here is analytic: the elastic intensity, weak-field two-photon
spectra built from the direct/reversed scattering amplitudes, and the
strong-field spectra as sums of Lorentzian kernels with exact rational
weights.  All results are in units of gamma = 1 and omit the common
geometric prefactor unless stated otherwise.  The saturation polynomials
and the enhancement factor, which `compare-oracles` reads, are in
`twoatom_cbs.oracles`.
"""

from fractions import Fraction

import numpy as np

#: exact rational weights of the strong-field ladder kernels, as
#: (weight, width, offset_multiple_of_omega); offsets != 0 appear at
#: both signs with the same weight
LADDER_WEIGHTS = (
    (Fraction(1, 2), Fraction(1), 0),
    (Fraction(1, 4), Fraction(3), 0),
    (Fraction(14, 9), Fraction(3, 2), Fraction(1, 2)),
    (Fraction(1, 9), Fraction(3, 2), 1),
    (Fraction(5, 18), Fraction(5, 2), 1),
    (Fraction(1, 72), Fraction(3), 2),
)

CROSSED_WEIGHTS = (
    (Fraction(1, 2), Fraction(2), 0),
    (Fraction(1, 4), Fraction(3), 0),
    (Fraction(-1, 6), Fraction(5, 2), 1),
    (Fraction(1, 72), Fraction(3), 2),
)


def lorentzian_kernel(x1, x2):
    """(1/pi) x1 / (x1^2 + x2^2).

    At fixed x1 this is a Lorentzian in x2 with unit area and full width
    2*x1; at fixed x2 it is a dispersive resonance in x1 of width 2*x2.
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    return x1 / (x1 * x1 + x2 * x2) / np.pi


ALPHA_STRONG_FIELD_LIMIT = 1 + Fraction(2, 21)


def elastic_closed_form(s, delta=0.0, g_bar_sq=1.0):
    """Elastic ladder intensity (equal to the crossed one at backscattering).

    L_el = C_el = (2 |g_bar|^2 / 15) * s / ((1 + delta^2)(1 + s)^4) with
    delta in units of gamma.
    """
    s = np.asarray(s, dtype=float)
    return (2.0 * g_bar_sq / 15.0) * s / ((1.0 + delta**2) * (1.0 + s) ** 4)


def scattering_amplitudes(nu, delta=0.0, phi=0.0):
    """Direct and reversed two-photon amplitudes (E1, E2).

    E1 = -e^{-i phi/2} (1 + i delta) / ((1 + i(delta - nu))(1 + i(delta + nu))^2)
    E2 = -e^{+i phi/2} / ((1 + i delta)^2 + nu^2)

    phi is the configuration-dependent phase, zero at backscattering.
    """
    nu = np.asarray(nu, dtype=float)
    e1 = -np.exp(-0.5j * phi) * (1 + 1j * delta) / (
        (1 + 1j * (delta - nu)) * (1 + 1j * (delta + nu)) ** 2
    )
    e2 = -np.exp(0.5j * phi) / ((1 + 1j * delta) ** 2 + nu**2)
    return e1, e2


def weak_field_spectra(nu, delta=0.0):
    """Two-photon ladder and crossed spectral shapes.

    ladder  = (2(1 + delta^2) + 2 delta nu + nu^2) / D
    crossed = 2 (1 + delta (delta + nu)) / D
    D = (1 + (delta - nu)^2)(1 + (delta + nu)^2)^2

    The drive-strength prefactor is left to the caller; at delta = 0 the
    master-equation result is recovered with prefactor Omega^4 / (8 pi).
    """
    nu = np.asarray(nu, dtype=float)
    denom = (1 + (delta - nu) ** 2) * (1 + (delta + nu) ** 2) ** 2
    ladder = (2 * (1 + delta**2) + 2 * delta * nu + nu**2) / denom
    crossed = 2 * (1 + delta * (delta + nu)) / denom
    return ladder, crossed


def weak_field_master_spectra(nu, rabi):
    """Weak-drive spectra at delta = 0 with the absolute reduced prefactor.

    ladder  = (Omega^4 / pi) (2 + nu^2) / (2 (1 + nu^2)^3)
    crossed = (Omega^4 / pi) / (1 + nu^2)^3

    Integrals are (7/16) Omega^4 and (3/8) Omega^4.
    """
    nu = np.asarray(nu, dtype=float)
    scale = rabi**4 / np.pi
    ladder = scale * (2 + nu**2) / (2 * (1 + nu**2) ** 3)
    crossed = scale / (1 + nu**2) ** 3
    return ladder, crossed


def _kernel_sum(weights, nu, rabi):
    """sum of weight * lorentzian_kernel(width, nu - offset * Omega) over
    `weights`, each offset != 0 at both signs."""
    out = np.zeros_like(nu)
    for weight, width, offset in weights:
        w = float(weight)
        x1 = float(width)
        if offset == 0:
            out += w * lorentzian_kernel(x1, nu)
        else:
            off = float(offset) * rabi
            out += w * (lorentzian_kernel(x1, nu - off) + lorentzian_kernel(x1, nu + off))
    return out


def strong_field_spectra(nu, rabi):
    """Leading-order strong-field spectra as printed kernel sums.

    Both densities carry the overall (1/Omega)^2; the crossed one keeps
    the (1/Omega)^3 dispersive pair at nu = +-Omega/2.  Weights are the
    exact rationals in LADDER_WEIGHTS / CROSSED_WEIGHTS.
    """
    nu = np.asarray(nu, dtype=float)
    scale = 1.0 / rabi**2
    ladder = _kernel_sum(LADDER_WEIGHTS, nu, rabi) * scale
    crossed = _kernel_sum(CROSSED_WEIGHTS, nu, rabi) * scale
    crossed += (208.0 / 45.0) / rabi**3 * (
        lorentzian_kernel(nu + rabi / 2, 1.5) - lorentzian_kernel(nu - rabi / 2, 1.5)
    )
    return ladder, crossed


def strong_field_integrals(rabi):
    """(14/3)(1/Omega)^2 and (4/9)(1/Omega)^2, the exact kernel areas."""
    lad, cro = (float(sum(w * (1 if off == 0 else 2) for w, _, off in weights))
                for weights in (LADDER_WEIGHTS, CROSSED_WEIGHTS))
    return lad / rabi**2, cro / rabi**2


def line_positions(rabi, delta=0.0):
    """The seven resonance frequencies of the strong-field spectrum.

    {0, (Omega' - delta)/2, -(Omega' + delta)/2, +-Omega', +-2 Omega'}
    with the modified Rabi frequency Omega' = sqrt(Omega^2 + delta^2).
    """
    omega_mod = float(np.hypot(rabi, delta))
    return np.array([
        -2 * omega_mod,
        -omega_mod,
        -(omega_mod + delta) / 2,
        0.0,
        (omega_mod - delta) / 2,
        omega_mod,
        2 * omega_mod,
    ])

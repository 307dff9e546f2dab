"""Stationary solution of the master equation, perturbative in the coupling g.

The uncoupled resolvent G0(z) = (z - A)^{-1} propagates everything; the
steady state is expanded as G0 j + G0 V G0 j + G0 V G0 V G0 j (orders
g^0, g^1, g^2), and the order-2 terms carry the double-scattering ladder
and crossed intensities.  The three static solves G0(0) go through the
generator set's tile resolvent (`resolvent.KroneckerResolvent`, built in
`assemble`), which never forms A as a dense 255x255 matrix: each factors
the 80 small diagonal tiles of -A and solves them in two passes, with no
refinement step.  The weak-drive intensities are differences of nearly
equal terms (L_inel = L_tot - L_el), so every component of the state needs
full accuracy, not only its norm; the tile solves keep their rounding
inside each tile.

A generator set assembled for a stack of drive configurations (shape C,
see `liouvillian.DriveConfig`) goes through the same calls: each order is a
C + (255,) array, the three static solves run over the whole stack at once,
and the fields of `IntensityBreakdown` are arrays of shape C (floats for
one configuration).
"""

from dataclasses import dataclass

import numpy as np

from .basis import expectation, sigma
from .errors import ResolventError
from .liouvillian import GeneratorSet


@dataclass(frozen=True)
class PerturbativeState:
    """Stationary <Q> at orders g^0, g^1, g^2 (shape C + (255,) each)."""

    order0: np.ndarray
    order1: np.ndarray
    order2: np.ndarray

    def order(self, k):
        return (self.order0, self.order1, self.order2)[k]


def perturbative_steady_state(gen: GeneratorSet) -> PerturbativeState:
    """order_k = (G0 V)^k G0 j, the g-expansion of the stationary state."""
    order0 = gen.resolvent.solve(0.0, gen.j)
    order1 = gen.resolvent.solve(0.0, order0 @ gen.V.T)
    order2 = gen.resolvent.solve(0.0, order1 @ gen.V.T)
    return PerturbativeState(order0=order0, order1=order1, order2=order2)


# detected-channel operators (atom 1 (x) atom 2); SIGMA_21[a - 1] acts on atom a
_I4 = np.eye(4, dtype=complex)
SIGMA_21 = (np.kron(sigma(2, 1), _I4), np.kron(_I4, sigma(2, 1)))
_SIGMA_12 = (np.kron(sigma(1, 2), _I4), np.kron(_I4, sigma(1, 2)))
_POP2 = np.kron(sigma(2, 2), _I4) + np.kron(_I4, sigma(2, 2))
_CROSS_12 = np.kron(sigma(2, 1), sigma(1, 2))


@dataclass(frozen=True)
class IntensityBreakdown:
    """Stationary double-scattering intensities and the enhancement factor.

    Each field is a float for one configuration and an array of the
    configuration shape for a stack of them.  Values are per configuration;
    divide by the angular weight |g|^2 |Delta_{+1,+1}|^2 (see `reduced`) to
    obtain the dimensionless forms the closed-form oracle expressions are
    written in.
    """

    L_el: float | np.ndarray
    C_el: float | np.ndarray
    L_inel: float | np.ndarray
    C_inel: float | np.ndarray
    L_tot: float | np.ndarray
    C_tot: float | np.ndarray
    alpha: float | np.ndarray

    def reduced(self, weight):
        """Same breakdown in units of the geometric weight."""
        return IntensityBreakdown(
            L_el=self.L_el / weight,
            C_el=self.C_el / weight,
            L_inel=self.L_inel / weight,
            C_inel=self.C_inel / weight,
            L_tot=self.L_tot / weight,
            C_tot=self.C_tot / weight,
            alpha=self.alpha,
        )


def intensities(state: PerturbativeState, gen: GeneratorSet) -> IntensityBreakdown:
    """Ladder/crossed intensities, elastic/inelastic split, enhancement factor.

    Ladder: summed level-|2> populations at order g^2.  Crossed:
    2 Re{<sigma_21^1 sigma_12^2> e^{i k.r12}} at order g^2.  Elastic parts
    from products of the order-g dipole expectation values; inelastic by
    subtraction.
    """
    phase = gen.detection_phase
    l_tot = expectation(_POP2, state.order2, order=2).real
    c_tot = 2.0 * (expectation(_CROSS_12, state.order2, order=2) * phase).real

    d21_1, d21_2 = dipole_expectations(state, 1)
    d12_1, d12_2 = (expectation(op, state.order1, order=1) for op in _SIGMA_12)
    l_el = (d21_1 * d12_1 + d21_2 * d12_2).real
    c_el = 2.0 * (d21_1 * d12_2 * phase).real

    if np.any(l_tot <= 0):
        raise ResolventError(
            f"non-positive ladder intensity {np.min(l_tot)}: numerical failure")
    return IntensityBreakdown(
        L_el=l_el,
        C_el=c_el,
        L_inel=l_tot - l_el,
        C_inel=c_tot - c_el,
        L_tot=l_tot,
        C_tot=c_tot,
        alpha=1.0 + c_tot / l_tot,
    )


def dipole_expectations(state: PerturbativeState, order=1):
    """Order-g expectation values (<sigma_21^1>, <sigma_21^2>)."""
    return tuple(expectation(op, state.order(order), order=order) for op in SIGMA_21)

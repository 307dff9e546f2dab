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

Every observable is read from one detected channel, the |1> <-> |2> dipole
of each atom (the flipped-helicity light).  Each detected quantity X (x) Y is
one packed read-out row np.kron(c_X, c_Y)[1:] of single-atom expansions, and
its value at order g^k, k >= 1, is state.order(k) @ row.  The spectrum sweep
reads through the same rows and the same elastic read-out.

A generator set assembled for a stack of drive configurations (shape C,
see `liouvillian.DriveConfig`) goes through the same calls: each order is a
C + (255,) array, the three static solves run over the whole stack at once,
and the fields of `IntensityBreakdown` are arrays of shape C (floats for
one configuration).
"""

from dataclasses import dataclass

import numpy as np

from .basis import expand_single_atom_operator, sigma
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


# read-out rows, as (atom 1, atom 2) pairs; they leave out the trace element,
# which enters at order g^0 only
_ONE, _S21, _S12, _S22 = map(expand_single_atom_operator,
                             (np.eye(4), sigma(2, 1), sigma(1, 2), sigma(2, 2)))

SIGMA_21_ROWS = np.kron(_S21, _ONE)[1:], np.kron(_ONE, _S21)[1:]
SIGMA_12_ROWS = np.kron(_S12, _ONE)[1:], np.kron(_ONE, _S12)[1:]
_POP2_ROW = (np.kron(_S22, _ONE) + np.kron(_ONE, _S22))[1:]
_CROSS_ROW = np.kron(_S21, _S12)[1:]


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
    from products of the order-g dipoles <sigma_21^a> and <sigma_12^a>;
    inelastic by subtraction.
    """
    phase = gen.detection_phase
    l_tot = (state.order2 @ _POP2_ROW).real
    c_tot = 2.0 * ((state.order2 @ _CROSS_ROW) * phase).real
    _, l_el, c_el = _elastic_readout(state, phase)
    if np.any(l_tot <= 0):
        raise ResolventError(f"non-positive ladder intensity {np.min(l_tot)}")
    return IntensityBreakdown(
        L_el=l_el,
        C_el=c_el,
        L_inel=l_tot - l_el,
        C_inel=c_tot - c_el,
        L_tot=l_tot,
        C_tot=c_tot,
        alpha=1.0 + c_tot / l_tot,
    )


def _elastic_readout(state: PerturbativeState, phase):
    """The order-g dipoles (<sigma_21^1>, <sigma_21^2>) and the elastic ladder
    and crossed intensities built from them, phase = exp(i k.r12)."""
    d21_1, d21_2 = (state.order1 @ row for row in SIGMA_21_ROWS)
    d12_1, d12_2 = (state.order1 @ row for row in SIGMA_12_ROWS)
    l_el = (d21_1 * d12_1 + d21_2 * d12_2).real
    c_el = 2.0 * (d21_1 * d12_2 * phase).real
    return (d21_1, d21_2), l_el, c_el

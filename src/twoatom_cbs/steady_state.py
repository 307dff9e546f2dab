"""Stationary solution of the master equation, perturbative in the coupling g.

The uncoupled resolvent G0(z) = (z - A)^{-1} propagates everything; the
steady state is expanded as G0 j + G0 V G0 j + G0 V G0 V G0 j (orders
g^0, g^1, g^2), and the order-2 terms carry the double-scattering ladder
and crossed intensities.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .basis import expectation, sigma
from .liouvillian import GeneratorSet

CONDITION_LIMIT = 1e12


class ResolventError(Exception):
    """Singular or hopelessly ill-conditioned resolvent solve."""


def resolvent_solve(a, z, rhs):
    """Solve (z*I - A) x = rhs with a residual check.

    rhs may be a vector or a stack of column vectors.
    """
    rhs = np.asarray(rhs, dtype=complex)
    m = z * np.eye(a.shape[0], dtype=complex) - a
    try:
        x = np.linalg.solve(m, rhs)
    except np.linalg.LinAlgError as exc:
        raise ResolventError(f"resolvent singular at z = {z}") from exc
    residual = np.linalg.norm(m @ x - rhs)
    scale = np.linalg.norm(rhs)
    if scale > 0 and residual > 1e-10 * scale:
        if np.linalg.cond(m) > CONDITION_LIMIT:
            raise ResolventError(
                f"ill-conditioned resolvent at z = {z}: residual {residual:.3e}"
            )
    return x


class Propagator:
    """LU-backed application of G0(z) = (z*I - A)^{-1} for a fixed z."""

    def __init__(self, a, z=0.0):
        self.z = complex(z)
        m = self.z * np.eye(a.shape[0], dtype=complex) - a
        try:
            self._lu = lu_factor(m)
        except Exception as exc:  # LinAlgError from LAPACK
            raise ResolventError(f"resolvent factorization failed at z = {z}") from exc

    def __call__(self, rhs):
        return lu_solve(self._lu, np.asarray(rhs, dtype=complex))


@dataclass(frozen=True)
class PerturbativeState:
    """Stationary <Q> at orders g^0, g^1, g^2 (255 components each)."""

    order0: np.ndarray
    order1: np.ndarray
    order2: np.ndarray

    def order(self, k):
        return (self.order0, self.order1, self.order2)[k]


def perturbative_steady_state(gen: GeneratorSet) -> PerturbativeState:
    """order_k = (G0 V)^k G0 j, the g-expansion of the stationary state."""
    g0 = Propagator(gen.A, 0.0)
    order0 = g0(gen.j)
    order1 = g0(gen.V @ order0)
    order2 = g0(gen.V @ order1)
    return PerturbativeState(order0=order0, order1=order1, order2=order2)


def nonperturbative_steady_state(gen: GeneratorSet):
    """Exact stationary state: (A + V) <Q> = -j, all orders in g."""
    return np.linalg.solve(gen.A + gen.V, -gen.j)


# detected-channel operators (atom 1 (x) atom 2); SIGMA_21[a - 1] acts on atom a
_I4 = np.eye(4, dtype=complex)
SIGMA_21 = (np.kron(sigma(2, 1), _I4), np.kron(_I4, sigma(2, 1)))
_SIGMA_12 = (np.kron(sigma(1, 2), _I4), np.kron(_I4, sigma(1, 2)))
_POP2 = np.kron(sigma(2, 2), _I4) + np.kron(_I4, sigma(2, 2))
_CROSS_12 = np.kron(sigma(2, 1), sigma(1, 2))


@dataclass(frozen=True)
class IntensityBreakdown:
    """Stationary double-scattering intensities and the enhancement factor.

    Values are per configuration; divide by the angular weight
    |g|^2 |Delta_{+1,+1}|^2 (see `reduced`) to obtain the dimensionless
    forms the closed-form oracle expressions are written in.
    """

    L_el: float
    C_el: float
    L_inel: float
    C_inel: float
    L_tot: float
    C_tot: float
    alpha: float

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

    if l_tot <= 0:
        raise ResolventError(f"non-positive ladder intensity {l_tot}: numerical failure")
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

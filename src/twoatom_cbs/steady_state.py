"""Stationary solution of the master equation, perturbative in the coupling g.

The steady state is expanded as order0 + G0 V order0 + G0 V G0 V order0
(orders g^0, g^1, g^2), G0(z) = (z - A)^{-1} the uncoupled resolvent, and
the order-2 terms carry the double-scattering ladder and crossed
intensities.  Order 0 is the stationary state of two uncoupled atoms: the
product np.kron(s1, s2)[1:] of the single-atom stationary states
(`product_state`).  Each s_a is GROUND + d_a, where d_a solves one 4x4
system on the driven Bloch block of M_a (`_single_atom_excess`).  The two
static solves G0(0) of orders 1 and 2 go through the generator set's
resolvent (`resolvent.KroneckerResolvent`, built in `assemble`), which never
forms A as a dense 255x255 matrix: each factors small diagonal tiles of -A
and solves them in two passes, with no refinement step and no change of
basis.  The weak-drive intensities are differences of nearly equal terms
(L_inel = L_tot - L_el), so every component of the state needs full
accuracy, not only its norm; the tile solves keep their rounding inside
each tile, and `intensities` fails where the inelastic fraction is too
small for double precision (`MIN_INELASTIC_FRACTION`).

Two ground-state atoms do not interact: V g = 0 for the ground pair
g = GROUND (x) GROUND.  So order 1 is G0 V (order0 - g), and the excess
order0 - g is formed from the d_a with no cancellation, which keeps V g out
of the source instead of rounding it in.  Each V product is formed only
where it matters (`Reads.source`): from the columns its operand can be
non-zero on (the excess lives on 35) onto the entries its solve reads.

Orders 1 and 2 are solved only on the tiles their readers read
(`resolvent.needed` of the entries, so feeders included), named by their
packed entries.  Order 2 is solved on `ORDER2_ENTRIES`, where the
intensities read it (the non-zeros of `_POP2_ROW` and `_CROSS_ROW`) and
where the spectrum's QRT initial conditions read it at the detected
coherence pair: 10 of the 80 tiles.  Order 1 is solved where V reads it
for order 2 there, where the elastic read-out and the sweep's connected
sources read it (the sigma rows' tiles, which hold the detected pairs),
and where `qrt_initial` reads it for the sweep's stage 1: 44 of 80 for a
transverse r12.  `read_tiles(V)` derives these entries and V's blocks and
pair rows once per coupling array; one pull-back (`_pullback`) takes
entries to the columns they read, through V or through the sigma_21 table
of the QRT initial conditions.

Every observable is read from one detected channel, the |1> <-> |2> dipole
of each atom (the flipped-helicity light), and this module owns it for the
spectrum too.  Each detected quantity X (x) Y is one packed read-out row
np.kron(c_X, c_Y)[1:] of single-atom expansions, and its value at order
g^k, k >= 1, is state.order(k) @ row.  The rows of G0 at the detected
dipoles sigma_12^a live on one coherence pair of each atom (`DETECTED_PAIR`,
at the packed positions `PAIR_ROWS`); the spectrum sweep reads through them,
the elastic read-out (`elastic_readout`) and the QRT initial conditions
(`qrt_initial`), whose reads the sigma_21 table `_QRT_READS` plans.

A generator set assembled for a stack of drive configurations (shape C,
see `liouvillian.DriveConfig`) goes through the same calls: each order is a
C + (255,) array, every solve runs over the whole stack at once,
and the fields of `IntensityBreakdown` are arrays of shape C (floats for
one configuration).
"""

import weakref
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .basis import (N_SINGLE, N_TWO, TRACE_ELEMENT_VALUE, expand_single_atom_operator, sigma,
                    single_atom_tables)
from .errors import ConfigurationError, ResolventError
from .liouvillian import GeneratorSet
from .resolvent import GROUP_OF, GROUPS, needed


# read-out rows, as (atom 1, atom 2) pairs; they leave out the trace element,
# which enters at order g^0 only
_ONE, _S21, _S12, _S22 = map(expand_single_atom_operator,
                             (np.eye(4), sigma(2, 1), sigma(1, 2), sigma(2, 2)))

SIGMA_21_ROWS = np.kron(_S21, _ONE)[1:], np.kron(_ONE, _S21)[1:]
SIGMA_12_ROWS = np.kron(_S12, _ONE)[1:], np.kron(_ONE, _S12)[1:]
_POP2_ROW = (np.kron(_S22, _ONE) + np.kron(_ONE, _S22))[1:]
_CROSS_ROW = np.kron(_S21, _S12)[1:]

# The detected dipoles sigma_12^1, sigma_12^2: each read-out row holds one
# non-zero at the packed position n - 1 of a single-atom coherence,
# (l, m) = (h, 0) of atom 1 and (0, h) of atom 2, n = 16 l + m, so
# h = l + m, the same for both atoms.
(_H,) = {sum(divmod(np.flatnonzero(row).item() + 1, N_SINGLE)) for row in SIGMA_12_ROWS}
#: the detected coherence pair, the group of resolvent.GROUPS holding h
DETECTED_PAIR = np.array(GROUPS[GROUP_OF[_H]])
#: [atom, pair]: its packed positions, the only rows of G0 the spectrum sweep
#: reads; PAIR_ROWS[a, 0] is the non-zero of SIGMA_12_ROWS[a]
PAIR_ROWS = np.stack([DETECTED_PAIR * N_SINGLE, DETECTED_PAIR]) - 1

#: left multiplication table L of sigma_21: the QRT initial conditions
#: <sigma_21^a B_n> are L (x) 1 (atom 1) and 1 (x) L (atom 2) of the state
L_SIGMA_21 = single_atom_tables(sigma(2, 1))[0]
# [entry, column]: the packed columns of the state that the QRT initial
# conditions read at each packed entry.  The trace is left out, a constant
# that is zero at orders 1 and 2
_L_READS = L_SIGMA_21 != 0
_QRT_READS = (np.kron(_L_READS, np.eye(N_SINGLE, dtype=bool))
              | np.kron(np.eye(N_SINGLE, dtype=bool), _L_READS))[1:, 1:]


def require_one_configuration(shape):
    """Raise ConfigurationError unless `shape` is (), one drive configuration."""
    if shape != ():
        raise ConfigurationError(
            f"spectra take one drive configuration, not a stack of shape {shape}")


def qrt_initial(state: "PerturbativeState") -> np.ndarray:
    """Initial conditions <sigma_21^a B_n>_ss of both atoms' two-time
    correlators, as [atom, order, 255].

    Each component is obtained by expanding the operator product
    sigma_21^a B_n in the basis and reading the result off the stationary
    state, order by order in g.  The expansion table is L (x) 1 (atom 1) or
    1 (x) L (atom 2), L that of sigma_21, applied to the state as a 16x16
    array F: (L (x) 1) f = vec(L F) and (1 (x) L) f = vec(F L^T), with the
    trace entry F[0, 0] = 1/4 at order 0 and 0 at orders 1 and 2.  The
    state holds orders 1 and 2 only on the tiles that are read, so the
    order-1 and order-2 components are exact where the sweep reads them: on
    the stage-1 tiles and at the detected coherence pairs.  They are formed
    in the precision of the state, complex or wider.
    """
    require_one_configuration(state.order0.shape[:-1])
    full = np.zeros((3, N_TWO), dtype=np.result_type(state.order0, complex))
    full[0, 0] = TRACE_ELEMENT_VALUE
    full[:, 1:] = [state.order0, state.order1, state.order2]
    f = full.reshape(3, N_SINGLE, N_SINGLE)
    return np.stack([L_SIGMA_21 @ f, f @ L_SIGMA_21.T]).reshape(2, 3, N_TWO)[..., 1:]


def _pullback(table, entries):
    """Packed columns that the [entry, column] array `table` (V, or
    _QRT_READS) reads at the packed `entries`: its non-zero columns there."""
    return np.flatnonzero(np.any(table[entries], axis=0))


#: packed entries of the order-2 tiles that are read, the rows of V order 2
#: reads: the intensities' ladder and crossed rows and the QRT pull-back of
#: the detected coherence pairs
ORDER2_ENTRIES = needed(np.concatenate([np.flatnonzero(_POP2_ROW), np.flatnonzero(_CROSS_ROW),
                                        _pullback(_QRT_READS, PAIR_ROWS.ravel())]))
_SIGMA_COLUMNS = np.flatnonzero(np.any(SIGMA_21_ROWS + SIGMA_12_ROWS, axis=0))


#: the ground state |1><1| of one atom, expanded: the stationary state of an
#: undriven atom
GROUND = expand_single_atom_operator(sigma(1, 1))
# the single-atom indices a stationary state lives on: the ground state's
# (the trace and the populations) and the driven Bloch group's
_LIVE = GROUND != 0
_LIVE[list(GROUPS[1])] = True
# packed columns of the excess order0 - GROUND (x) GROUND: both indices live
_EXCESS_COLUMNS = np.flatnonzero(np.outer(_LIVE, _LIVE).ravel()[1:])


class Reads(NamedTuple):
    """What the state and the spectrum sweep read of one coupling V, each a
    read-only array: the packed entries of the order-1 tiles, the blocks of
    V that form the right-hand sides of orders 1 and 2 (`source`), and V's
    rows at the detected coherence pairs [d, p, 255], which the first stage
    reads out."""

    order1_entries: np.ndarray
    v1: np.ndarray
    v2: np.ndarray
    pair_rows: np.ndarray

    def source(self, k, x):
        """V x, the right-hand side of order k = 1 or 2, for x the excess
        (k = 1) or order 1 (k = 2).  It is formed on the entries order k's
        solve reads, from the columns x can be non-zero on: v1 = V[order-1
        entries][:, _EXCESS_COLUMNS], v2 = V[ORDER2_ENTRIES][:, order-1
        entries].  Zero elsewhere."""
        rows, columns, block = ((self.order1_entries, _EXCESS_COLUMNS, self.v1),
                                (ORDER2_ENTRIES, self.order1_entries, self.v2))[k - 1]
        rhs = np.zeros(x.shape, dtype=complex)
        rhs[..., rows] = x[..., columns] @ block.T
        return rhs


_READ_TILES = {}


def read_tiles(v):
    """The `Reads` of the coupling array `v`, derived once per array: V is
    cached per geometry, so a drive sweep derives them once.  An entry
    leaves with its array.  The order-1 tiles hold the columns V reads on
    ORDER2_ENTRIES, the sigma rows, and those the QRT initial conditions
    read on the sweep's first-stage tiles, which hold the columns V's pair
    rows read."""
    key = id(v)
    if key not in _READ_TILES:
        stage1 = needed(_pullback(v, PAIR_ROWS.ravel()))
        entries = needed(np.concatenate([_pullback(v, ORDER2_ENTRIES), _SIGMA_COLUMNS,
                                         _pullback(_QRT_READS, stage1)]))
        reads = Reads(entries, v[np.ix_(entries, _EXCESS_COLUMNS)],
                      v[np.ix_(ORDER2_ENTRIES, entries)], v[PAIR_ROWS])
        for array in reads:
            array.setflags(write=False)
        _READ_TILES[key] = reads
        weakref.finalize(v, _READ_TILES.pop, key, None)
    return _READ_TILES[key]


def _kron(x, y):
    """np.kron(x, y)[1:] over the last axes of stacks of single-atom vectors."""
    product = x[..., :, None] * y[..., None, :]
    return product.reshape(product.shape[:-2] + (N_TWO,))[..., 1:]


def _single_atom_excess(m):
    """s - GROUND for the single-atom generators `m` [..., 16, 16], s the
    stationary state: M s = 0 with s[0] = GROUND[0] = 1/2.  M GROUND is
    non-zero only in the Bloch group GROUPS[1], which B = M[1:, 1:] keeps
    to itself, so the excess lives there: B[G1, G1] x = -(M GROUND)[G1], one
    4x4 solve per generator, batched over the stack."""
    bloch = np.array(GROUPS[1])
    excess = np.zeros(m.shape[:-1], dtype=complex)
    excess[..., bloch] = np.linalg.solve(m[..., bloch[:, None], bloch],
                                         -(m[..., bloch, :] @ GROUND)[..., None])[..., 0]
    return excess


def product_state(gen: GeneratorSet):
    """(order0, excess): the order-0 state np.kron(s1, s2)[1:] of the two
    uncoupled atoms, and its excess over the ground pair, order0 -
    np.kron(GROUND, GROUND)[1:], formed as d1 (x) GROUND + GROUND (x) d2 +
    d1 (x) d2 from the single-atom excesses d_a, with no cancellation."""
    d1, d2 = _single_atom_excess(gen.resolvent.m)
    order0 = _kron(GROUND + d1, GROUND + d2)
    excess = _kron(d1, GROUND) + _kron(GROUND, d2) + _kron(d1, d2)
    return order0, excess


@dataclass(frozen=True)
class PerturbativeState:
    """Stationary <Q> at orders g^0, g^1, g^2 (shape C + (255,) each).

    Order 0 is complete.  Orders 1 and 2 hold their values on the tiles
    they are read on, those of `read_tiles(gen.V).order1_entries` and
    `ORDER2_ENTRIES`, and zeros outside them; a full order is
    `gen.resolvent.solve` of the `read_tiles(gen.V).source` of the order
    before it on np.arange(255).
    """

    order0: np.ndarray
    order1: np.ndarray
    order2: np.ndarray

    def order(self, k):
        return (self.order0, self.order1, self.order2)[k]


def perturbative_steady_state(gen: GeneratorSet) -> PerturbativeState:
    """order_k = (G0 V)^k order0, the g-expansion of the stationary state:
    order 0 the product of the single-atom states, orders 1 and 2 on the
    tiles that are read.  Order 1 is G0 V (order0 - ground pair), as V
    annihilates the ground pair: two ground-state atoms do not interact."""
    reads = read_tiles(gen.V)
    order0, excess = product_state(gen)
    order1 = gen.resolvent.solve(reads.source(1, excess), reads.order1_entries)
    order2 = gen.resolvent.solve(reads.source(2, order1), ORDER2_ENTRIES)
    return PerturbativeState(order0=order0, order1=order1, order2=order2)


#: the smallest inelastic fraction r = L_inel / L_tot that `intensities`
#: returns.  L_inel = L_tot - L_el cancels the digits of r, and against a
#: long-double reference its error measured 0.5-2 eps/r at delta = 0,
#: 2-54 eps/r at delta = 5 and 3e3-3e4 eps/r at delta = 80 (both geometries
#: of the tests, Omega from 1e-7 to 1e-3), so at this r the worst is about
#: 7e-4 of L_inel, inside the spectrum's 1e-3 sum-rule tolerance.  Every
#: drive of the benchmark has r >= 1.5e-3; r ~ 0.9 Omega^2 at delta = 0
MIN_INELASTIC_FRACTION = 1e-8


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
    inelastic by subtraction, which raises ResolventError where the
    inelastic fraction L_inel / L_tot of a configuration is below
    MIN_INELASTIC_FRACTION: double precision cannot resolve it there.
    """
    phase = gen.detection_phase
    l_tot = (state.order2 @ _POP2_ROW).real
    c_tot = 2.0 * ((state.order2 @ _CROSS_ROW) * phase).real
    _, l_el, c_el = elastic_readout(state, phase)
    if np.any(l_tot <= 0):
        raise ResolventError(f"non-positive ladder intensity {np.min(l_tot)}")
    l_inel = l_tot - l_el
    fraction = np.min(l_inel / l_tot)
    if not fraction >= MIN_INELASTIC_FRACTION:
        raise ResolventError(
            f"inelastic fraction L_inel/L_tot = {fraction:.2e} is below {MIN_INELASTIC_FRACTION:g}: "
            "double precision cannot resolve L_inel = L_tot - L_el")
    return IntensityBreakdown(
        L_el=l_el,
        C_el=c_el,
        L_inel=l_inel,
        C_inel=c_tot - c_el,
        L_tot=l_tot,
        C_tot=c_tot,
        alpha=1.0 + c_tot / l_tot,
    )


def elastic_readout(state: PerturbativeState, phase):
    """The order-g dipoles (<sigma_21^1>, <sigma_21^2>) and the elastic ladder
    and crossed intensities built from them, phase = exp(i k.r12)."""
    d21_1, d21_2 = (state.order1 @ row for row in SIGMA_21_ROWS)
    d12_1, d12_2 = (state.order1 @ row for row in SIGMA_12_ROWS)
    l_el = (d21_1 * d12_1 + d21_2 * d12_2).real
    c_el = 2.0 * (d21_1 * d12_2 * phase).real
    return (d21_1, d21_2), l_el, c_el

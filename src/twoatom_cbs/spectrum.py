"""CBS spectrum from the quantum regression theorem in the Laplace domain.

The first-order field correlator obeys the same linear equation of motion
as the one-time averages <B_n>; its Laplace image is assembled from
resolvent solves at z = -i nu on a frequency grid.  Its elastic part, a
delta function at the laser frequency, is carried as a weight; the
inelastic densities are the image of the connected correlator
<delta sigma_21^a(0) delta B(tau)>, delta X = X - <X>_ss, with no pole at 0.

The densities read the correlator only at the two detected dipoles
sigma_12^a, through the read-out rows `steady_state.SIGMA_12_ROWS` that the
intensities use too.  Each row has a single non-zero, at a single-atom
coherence: the packed entry (l, m) = (8, 0) of atom 1 and (0, 8) of atom 2
(`steady_state.PAIR_ROWS[:, 0]`, both of weight `_EXTRACT` = 2).  Row 0 of
each single-atom generator M_a vanishes (trace conservation), so atom 1's
detected row of G0(z) = (z - A)^{-1} is supported on the entries (k, 0)
alone, where it is the matching row of (z - B1)^{-1}, B1 = M1[1:, 1:];
likewise atom 2's with (0, k) and B2.  B_a is block diagonal under `resolvent.BLOCKS`, so both rows
live on one 2x2 block, the detected coherence pair
(`steady_state.DETECTED_PAIR`, at the packed positions `PAIR_ROWS`).

The sweep, `inelastic_spectrum(gen, state, nu_grid)`, derives all it reads
from the stationary state: both atoms' QRT initial conditions
<sigma_21^a B_n>_ss in one array (`steady_state.qrt_initial`, beside the
table that plans the tiles it reads), and the source weights
<sigma_21^a>_ss and the elastic weight from the elastic read-out it shares
with `steady_state.intensities`.  Its first stage reads
V G0(z) [c_1^[1], c_2^[1]], over the connected initial conditions c_a^[k],
through V's four rows at the pair positions, with one call of the generator
set's resolvent sweep (`resolvent.KroneckerResolvent.sweep`) over the whole
grid: a substitution in the Schur coordinates of the two single-atom
generators, built once per call, with nothing factored per frequency.  The
sweep restricts itself to the tiles holding the rows' non-zero columns,
plus the level-1 feeders of those: 24 of the 80 tiles (84 entries) when the
separation is transverse to the laser, 38 (136 entries) for the tests'
shifted-tilted geometry.  The spectrum reads V only through
`steady_state.read_tiles`, which holds the pair rows, derived once per
coupling matrix.  The stationary state solves order 1 where `qrt_initial`
reads it for those tiles and at the pairs, order 2 where it reads it for
the pairs.  The
second stage is read through the detected rows: the first rows of
(z - a)^{-1}, in closed form for a the 2x2 pair blocks of M1 and M2,
applied to V x_a + c_a^[2] at the pair positions.  A malformed grid
(empty, not 1-D or not finite) raises ConfigurationError before any solve,
and a non-finite density fails the sweep with ResolventError instead of
being interpolated over.  Spectra take one drive configuration: a generator
set or state assembled for a stack of them raises ConfigurationError.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ResolventError
from .liouvillian import GeneratorSet
from .steady_state import (
    DETECTED_PAIR,
    PAIR_ROWS,
    SIGMA_12_ROWS,
    IntensityBreakdown,
    PerturbativeState,
    elastic_readout,
    intensities,
    perturbative_steady_state,
    qrt_initial,
    read_tiles,
    require_one_configuration,
)

# the weight of each detected dipole's single non-zero, at PAIR_ROWS[:, 0]
_EXTRACT = SIGMA_12_ROWS[0][PAIR_ROWS[0, 0]].real
# indexes the detected pair's blocks of M1 and M2 in the resolvent's m
_PAIR_BLOCKS = np.ix_(range(2), DETECTED_PAIR, DETECTED_PAIR)


@dataclass(frozen=True)
class SpectrumResult:
    """Inelastic spectral densities on a frequency grid plus elastic weight.

    nu_grid in units of gamma; densities in 1/gamma, raw: `cli`'s
    `--normalize` divides its output by the inelastic ladder intensity.
    """

    nu_grid: np.ndarray
    ladder_density: np.ndarray
    crossed_density: np.ndarray
    elastic_weight: float

    def integrals(self):
        """Trapezoid integrals of both densities, with a 1/nu^2 tail estimate.

        The grid must be strictly increasing with at least 2 points and run
        from nu < 0 to nu > 0, as the tail model needs; the densities
        themselves may be evaluated on any finite grid.
        """
        return self._integrals_and_tails()[0]

    def _integrals_and_tails(self):
        """(`integrals()`, their C/nu^2 tail estimates) from one fit of the tails."""
        nu = self.nu_grid
        if len(nu) < 2 or not np.all(np.diff(nu) > 0) or not nu[0] < 0 < nu[-1]:
            raise ConfigurationError(
                "integrals need a strictly increasing frequency grid of at least 2 points "
                "from nu < 0 to nu > 0")
        k = max(3, len(nu) // 40)
        integrals, tails = [], []
        for dens in (self.ladder_density, self.crossed_density):
            c_left = np.mean(dens[:k] * nu[:k] ** 2)
            c_right = np.mean(dens[-k:] * nu[-k:] ** 2)
            tails.append(c_left / abs(nu[0]) + c_right / abs(nu[-1]))
            integrals.append(np.trapezoid(dens, nu) + tails[-1])
        return tuple(integrals), tuple(tails)


def default_nu_grid(cfg, points=2001):
    """Uniform grid covering all seven strong-field resonances, 10 gamma
    (the frequency unit) beyond the outermost, for one configuration and points >= 2."""
    require_one_configuration(cfg.shape)
    if not (isinstance(points, (int, np.integer)) and points >= 2):
        raise ConfigurationError(f"points must be an integer of at least 2, not {points!r}")
    omega_mod = np.hypot(cfg.rabi, cfg.detuning)
    half = 2.5 * omega_mod + 10.0
    return np.linspace(-half, half, points)


def inelastic_spectrum(gen: GeneratorSet, state: PerturbativeState,
                       nu_grid) -> SpectrumResult:
    """Ladder and crossed inelastic spectral densities at order g^2, and the
    elastic weight.

    For each z = -i nu the Laplace image of the connected correlator is
    G0(z) V G0(z) c^[1] + G0(z) c^[2], over the connected initial conditions
    c_a^[k] = s_a^[k](0) - <sigma_21^a>_ss order(k-1), s^[k](0) from
    `qrt_initial`: two right-hand sides, and no 1/z term.  It is exact:
    (z - A - V) x_ss = z x_ss + j makes the full image minus its elastic
    pole <sigma_21^a>_ss x_ss / z equal G(z) [C(0) - <sigma_21^a>_ss x_ss].
    Same-atom components give the ladder density, the cross-atom components
    (with detection phases) the crossed density, both via (1/pi) Re.  The
    grid need not be sorted, but must be a non-empty, finite 1-D array
    (ConfigurationError otherwise); a non-finite density raises
    ResolventError.
    """
    require_one_configuration(gen.cfg.shape)
    nu_grid = np.asarray(nu_grid, dtype=float)
    if nu_grid.ndim != 1 or not nu_grid.size or not np.isfinite(nu_grid).all():
        raise ConfigurationError(
            f"frequency grid must be a non-empty, finite 1-D array (shape {nu_grid.shape})")
    phase = gen.detection_phase
    a = gen.resolvent.m[_PAIR_BLOCKS]  # [d, 2, 2]
    reads = read_tiles(gen.V)

    s0 = qrt_initial(state)  # [a, k, 255]
    # <sigma_21^a>_ss at order g^1: the detected transition is dark at
    # order g^0, and order g^2 does not enter the order-g^2 spectrum
    dipoles, l_el, c_el = elastic_readout(state, phase)
    weights = np.array(dipoles)[:, None]
    # the connected initial conditions c_a^[k] = s_a^[k](0) - w_a order(k-1)
    first = s0[:, 1] - weights * state.order0
    second = (s0[:, 2] - weights * state.order1)[:, PAIR_ROWS]  # [a, d, p]

    z = -1j * nu_grid
    # stage 1: V x_a at the pair rows, x_a = G0(z) c_a^[1], as [nu, a, d, p]
    vx = gen.resolvent.sweep(reads.pair_rows, z, first)
    # the detected rows PAIR_ROWS[:, 0] of G0(z) are the first rows of
    # (z - a_d)^{-1}, placed at PAIR_ROWS: (z - a_d[1, 1], a_d[0, 1]) /
    # det(z - a_d), as [nu, d, p]
    shifted = z[:, None, None] - a[:, (0, 1), (0, 1)]  # [nu, d, diagonal]
    det = shifted[..., 0] * shifted[..., 1] - a[:, 0, 1] * a[:, 1, 0]
    row = np.stack([shifted[..., 1], np.broadcast_to(a[:, 0, 1], det.shape)], axis=-1) / det[..., None]
    # G0(z) (V x_a + c_a^[2]) read at the detected rows, as [nu, a, d]
    s = np.einsum("zdp,zadp->zad", row, vx + second)
    (s1_d1, s1_d2), (s2_d1, s2_d2) = s.transpose(1, 2, 0)
    ladder = (_EXTRACT * (s1_d1 + s2_d2)).real / np.pi
    crossed = (_EXTRACT * (s1_d2 * phase + s2_d1 * np.conj(phase))).real / np.pi

    bad = ~(np.isfinite(ladder) & np.isfinite(crossed))
    if bad.any():
        raise ResolventError(
            f"non-finite spectral density at {bad.sum()} grid points "
            f"(first at nu = {nu_grid[bad][0]:.6g})"
        )

    # the coefficient of delta(nu): the stationary elastic intensity
    return SpectrumResult(
        nu_grid=nu_grid,
        ladder_density=ladder,
        crossed_density=crossed,
        elastic_weight=l_el + c_el,
    )


@dataclass(frozen=True)
class SumRuleReport:
    ladder_integral: float
    crossed_integral: float
    ladder_tail: float
    crossed_tail: float
    ladder_error: float
    crossed_error: float
    tolerance: float

    @property
    def ok(self):
        return self.ladder_error <= self.tolerance and self.crossed_error <= self.tolerance


def check_sum_rule(spec: SpectrumResult, ib: IntensityBreakdown,
                   tolerance=1e-3) -> SumRuleReport:
    """Verify that the density integrals of a spectrum reproduce the stationary
    intensities.  The report's C/nu^2 tails overestimate the mass beyond the
    grid (3x for the ladder at Omega = 0.1, delta = 5): the densities decay faster."""
    if not (np.ndim(tolerance) == 0 and np.isfinite(tolerance) and tolerance > 0):
        raise ConfigurationError(f"tolerance must be finite and positive, not {tolerance!r}")
    (lad, cro), (tail_l, tail_c) = spec._integrals_and_tails()
    scale = abs(ib.L_inel)
    report = SumRuleReport(
        ladder_integral=lad,
        crossed_integral=cro,
        ladder_tail=tail_l,
        crossed_tail=tail_c,
        ladder_error=abs(lad - ib.L_inel) / scale,
        crossed_error=abs(cro - ib.C_inel) / scale,
        tolerance=tolerance,
    )
    if not report.ok:
        raise ResolventError(
            f"sum rule violated: ladder {report.ladder_error:.2e}, "
            f"crossed {report.crossed_error:.2e} (tol {tolerance:.1e})"
        )
    return report


def compute_spectrum(gen: GeneratorSet, nu_grid):
    """Convenience pipeline: steady state, densities on `nu_grid`, intensities."""
    require_one_configuration(gen.cfg.shape)
    state = perturbative_steady_state(gen)
    spec = inelastic_spectrum(gen, state, nu_grid=nu_grid)
    return spec, intensities(state, gen)

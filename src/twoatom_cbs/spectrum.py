"""CBS spectrum from the quantum regression theorem in the Laplace domain.

The first-order field correlator obeys the same linear equation of motion
as the one-time expectation values; its Laplace image is assembled from
resolvent solves at z = -i nu on a frequency grid.  The elastic component
is a delta function at the laser frequency, carried separately as a
weight; the inelastic densities are evaluated with a stabilized form of
the 1/z difference term so that nu -> 0 is regular.
"""

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .basis import TRACE_ELEMENT_VALUE, left_multiplication_table
from .liouvillian import GeneratorSet
from .steady_state import (
    SIGMA_21,
    IntensityBreakdown,
    PerturbativeState,
    Propagator,
    ResolventError,
    dipole_expectations,
    intensities,
    perturbative_steady_state,
)

# packed indices of the detected-channel dipoles: sigma_12^1 = 2 B_128,
# sigma_12^2 = 2 B_8 (0-based positions in the 255-vector are n - 1)
_IDX_D1 = 128 - 1
_IDX_D2 = 8 - 1
_EXTRACT = 2.0


@dataclass(frozen=True)
class CorrelationVector:
    """QRT initial conditions <sigma_21^alpha Q>_ss per perturbative order."""

    atom: int
    s0_orders: np.ndarray  # (3, 255)
    # <sigma_21^alpha>_ss at order g^1: the detected transition is dark at
    # order g^0, and order g^2 does not enter the order-g^2 spectrum
    source_weight: complex

    def s0(self, k):
        return self.s0_orders[k]


def qrt_initial(atom, state: PerturbativeState) -> CorrelationVector:
    """Initial conditions for the two-time correlator of atom 1 or 2.

    Each component <sigma_21^alpha B_n>_ss is obtained by expanding the
    operator product sigma_21^alpha B_n in the basis and reading the
    result off the stationary state, order by order in g.
    """
    table = left_multiplication_table(SIGMA_21[atom - 1])
    block = table[1:, 1:]
    const = table[1:, 0] * TRACE_ELEMENT_VALUE
    s0 = np.stack([
        const + block @ state.order0,
        block @ state.order1,
        block @ state.order2,
    ])
    weight = dipole_expectations(state, 1)[atom - 1]
    return CorrelationVector(atom=atom, s0_orders=s0, source_weight=weight)


@dataclass(frozen=True)
class SpectrumResult:
    """Inelastic spectral densities on a frequency grid plus elastic weight.

    nu_grid in units of gamma; densities in 1/gamma.  `normalized` marks
    densities divided by the stationary inelastic ladder intensity.
    """

    nu_grid: np.ndarray
    ladder_density: np.ndarray
    crossed_density: np.ndarray
    elastic_weight: float
    normalized: bool = False

    def integrals(self, tail_correction=True):
        """Trapezoid integrals of both densities, with a 1/nu^2 tail estimate."""
        lad = np.trapezoid(self.ladder_density, self.nu_grid)
        cro = np.trapezoid(self.crossed_density, self.nu_grid)
        if tail_correction:
            tl, tc = self.tail_estimates()
            lad += tl
            cro += tc
        return lad, cro

    def tail_estimates(self):
        """Estimated mass beyond the grid assuming C/nu^2 far tails.

        The exact densities are finite pole sums, so the leading tail is
        quadratic; C is fitted on the outer few percent of the grid.
        """
        nu = self.nu_grid
        k = max(3, len(nu) // 40)
        out = []
        for dens in (self.ladder_density, self.crossed_density):
            c_left = np.mean(dens[:k] * nu[:k] ** 2)
            c_right = np.mean(dens[-k:] * nu[-k:] ** 2)
            out.append(c_left / abs(nu[0]) + c_right / abs(nu[-1]))
        return tuple(out)


def default_nu_grid(cfg, points=2001, margin=10.0):
    """Uniform grid covering all seven strong-field resonances."""
    omega_mod = np.hypot(cfg.rabi, cfg.detuning)
    half = 2.5 * omega_mod + margin * cfg.gamma
    return np.linspace(-half, half, points)


def inelastic_spectrum(gen: GeneratorSet, state: PerturbativeState,
                       corr1: CorrelationVector, corr2: CorrelationVector,
                       nu_grid) -> SpectrumResult:
    """Ladder and crossed inelastic spectral densities at order g^2.

    For each z = -i nu the Laplace image of the correlator is
    G0(z) V G0(z) s^[1](0) + G0(z) s^[2](0) plus the stabilized source
    difference term; same-atom components give the ladder density, the
    cross-atom components (with detection phases) the crossed density,
    both via (1/pi) Re.
    """
    nu_grid = np.asarray(nu_grid, dtype=float)
    g0_static = Propagator(gen.A, 0.0)
    phase = gen.detection_phase

    corrs = (corr1, corr2) if corr1.atom == 1 else (corr2, corr1)

    ladder = np.empty_like(nu_grid)
    crossed = np.empty_like(nu_grid)
    for i, nu in enumerate(nu_grid):
        z = -1j * nu
        try:
            g0z = Propagator(gen.A, z)
            # stabilized [G0(z) V G0(z) - G0 V G0] j / z
            #   = -G0(z) G0 V G0(z) j - G0 V G0(z) G0 j
            t1 = g0z(gen.j)
            diff = -g0z(g0_static(gen.V @ t1)) - g0_static(gen.V @ g0z(state.order0))
            s_tilde = []
            for corr in corrs:
                x = g0z(corr.s0(1))
                y = g0z(gen.V @ x + corr.s0(2))
                s_tilde.append(y + corr.source_weight * diff)
        except ResolventError:
            ladder[i] = np.nan
            crossed[i] = np.nan
            continue
        s1, s2 = s_tilde
        ladder[i] = (_EXTRACT * (s1[_IDX_D1] + s2[_IDX_D2])).real / np.pi
        crossed[i] = (_EXTRACT * (s1[_IDX_D2] * phase
                                  + s2[_IDX_D1] * np.conj(phase))).real / np.pi

    bad = np.isnan(ladder)
    if bad.any():
        warnings.warn(
            f"skipped {bad.sum()} ill-conditioned grid points "
            f"(first at nu = {nu_grid[bad][0]:.6g})",
            stacklevel=2,
        )
        ladder = np.interp(nu_grid, nu_grid[~bad], ladder[~bad])
        crossed = np.interp(nu_grid, nu_grid[~bad], crossed[~bad])

    elastic = elastic_weight(state, gen)
    return SpectrumResult(
        nu_grid=nu_grid,
        ladder_density=ladder,
        crossed_density=crossed,
        elastic_weight=elastic,
    )


def elastic_weight(state: PerturbativeState, gen: GeneratorSet) -> float:
    """Coefficient of delta(nu): the stationary elastic intensity L_el + C_el."""
    ib = intensities(state, gen)
    return ib.L_el + ib.C_el


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
    """Verify that the density integrals reproduce the stationary intensities."""
    lad, cro = spec.integrals(tail_correction=True)
    tail_l, tail_c = spec.tail_estimates()
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


def normalized_spectra(spec: SpectrumResult, ib: IntensityBreakdown) -> SpectrumResult:
    """Divide densities by the stationary inelastic ladder intensity."""
    if ib.L_inel <= 0:
        raise ValueError("normalization requires a positive inelastic ladder intensity")
    return replace(
        spec,
        ladder_density=spec.ladder_density / ib.L_inel,
        crossed_density=spec.crossed_density / ib.L_inel,
        elastic_weight=spec.elastic_weight / ib.L_inel,
        normalized=True,
    )


def compute_spectrum(gen: GeneratorSet, nu_grid=None, points=2001):
    """Convenience pipeline: steady state, QRT vectors, densities, intensities."""
    state = perturbative_steady_state(gen)
    if nu_grid is None:
        nu_grid = default_nu_grid(gen.cfg, points=points)
    corr1 = qrt_initial(1, state)
    corr2 = qrt_initial(2, state)
    spec = inelastic_spectrum(gen, state, corr1, corr2, nu_grid)
    ib = intensities(state, gen)
    return spec, ib

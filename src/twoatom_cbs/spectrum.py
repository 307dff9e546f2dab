"""CBS spectrum from the quantum regression theorem in the Laplace domain.

The first-order field correlator obeys the same linear equation of motion
as the one-time expectation values; its Laplace image is assembled from
resolvent solves at z = -i nu on a frequency grid.  The elastic component
is a delta function at the laser frequency, carried separately as a
weight; the inelastic densities are evaluated with a stabilized form of
the 1/z difference term so that nu -> 0 is regular.

The densities read the correlator only at the two detected dipoles, and
each is a single-atom coherence: _IDX_D1 is the packed entry (l, m) =
(8, 0) of atom 1, _IDX_D2 the entry (0, 8) of atom 2.  Row 0 of each
single-atom generator M_a vanishes (trace conservation), so the row
_IDX_D1 of G0(z) = (z - A)^{-1} is supported on the entries (k, 0) alone,
where it is the matching row of (z - B1)^{-1}, B1 = M1[1:, 1:]; likewise
_IDX_D2 with (0, k) and B2.  B_a is block diagonal under
`resolvent.BLOCKS`, so both rows live on one 2x2 block, the detected
coherence pair (`_PAIR_INDICES`, at the packed positions `_PAIR_ROWS`).

The sweep takes the grid in fixed blocks of frequencies.  Its first stage
solves G0(z) [j, u0, s_1^[1](0), s_2^[1](0)] through the generator set's
tile resolvent (`resolvent.KroneckerResolvent`), each tile factored once
per frequency with the four right-hand sides as its columns.  That stage is
read only through V's four rows at the pair positions, so it solves only
the tiles holding their non-zero columns, plus the level-1 feeders of those
(`stage1_tiles`, derived from V's sparsity and `resolvent.BLOCKS`): 24 of
the 80 tiles when the separation is transverse to the laser, 38 for the
tests' shifted-tilted geometry.  Everything after it is read through the
detected rows: G0(0) through the two 2x2 inverses (-a)^{-1} of the pair
blocks, formed once per spectrum, and the stage-2 G0(z) through the first
rows of (z - a)^{-1}.  A malformed grid (empty, not 1-D or not finite)
raises ConfigurationError before any solve, and a non-finite density fails
the sweep with ResolventError instead of being interpolated over.  Spectra
take one drive configuration: a generator set or state assembled for a
stack of them raises ConfigurationError.
"""

from dataclasses import dataclass, replace

import numpy as np

from .basis import N_SINGLE, N_TWO, TRACE_ELEMENT_VALUE, sigma, single_atom_tables
from .errors import ConfigurationError
from .liouvillian import GeneratorSet
from .resolvent import BLOCKS, needed
from .steady_state import (
    IntensityBreakdown,
    PerturbativeState,
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


def _detected_pair(index):
    """Single-atom indices and packed positions of the block holding a dipole.

    The dipole at packed `index` is (l, 0), an atom-1 coherence, or (0, m),
    an atom-2 one.  Its row of G0(z) vanishes outside the entries (k, 0),
    resp. (0, k), with k in the dipole's block of `resolvent.BLOCKS`: there
    it is row 0 of (z - a)^{-1}, a that block of M1, resp. M2, so the
    dipole must head its block.
    """
    l, m = divmod(index + 1, N_SINGLE)
    home = l if m == 0 else m
    pair, = [np.array(b) + 1 for b in BLOCKS if b[0] == home - 1]
    return pair, (pair * N_SINGLE if m == 0 else pair) - 1


# per detected dipole d (atom 1, then atom 2): its single-atom block and
# that block's packed positions, the only rows of G0 the sweep reads
_PAIR_INDICES, _PAIR_ROWS = map(np.array, zip(*map(_detected_pair, (_IDX_D1, _IDX_D2))))
# frequencies per batched solve.  A block's arrays are per-frequency tile
# matrices and a (block, 256, 4) solution, and each call pays a fixed cost
# of about 0.4 ms in small numpy operations, so larger blocks amortize it.
# Measured with the restricted tile sweep in the benchmark worker
# (spectra-wide, 12-s runs, seeds 601-608, blocks 32/64/128 alternating,
# 2-core VM): median wall_s 0.124/0.118/0.121 s, 64 beating 32 in 7 of 8
# rounds and 128 beating 64 in 4 of 8, at a peak RSS of 44.7/46.3/49.7 MB
_BLOCK = 64


def stage1_tiles(v_rows):
    """Tiles of G0(z) that the sweep's first stage solves: those holding the
    non-zero columns of V's pair rows `v_rows` [d, p, 255], and their
    level-1 feeders."""
    return needed(np.flatnonzero(np.any(v_rows, axis=(0, 1))))


def _require_one_configuration(shape):
    if shape != ():
        raise ConfigurationError(
            f"spectra take one drive configuration, not a stack of shape {shape}")


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
    result off the stationary state, order by order in g.  The expansion
    table is L (x) 1 (atom 1) or 1 (x) L (atom 2), L that of sigma_21,
    applied to the state as a 16x16 array F: (L (x) 1) f = vec(L F) and
    (1 (x) L) f = vec(F L^T), with the trace entry F[0, 0] = 1/4 at order
    0 and 0 at orders 1 and 2.
    """
    _require_one_configuration(state.order0.shape[:-1])
    l_sigma, _ = single_atom_tables(sigma(2, 1))
    full = np.zeros((3, N_TWO), dtype=complex)
    full[0, 0] = TRACE_ELEMENT_VALUE
    full[:, 1:] = [state.order0, state.order1, state.order2]
    f = full.reshape(3, N_SINGLE, N_SINGLE)
    product = l_sigma @ f if atom == 1 else f @ l_sigma.T
    s0 = product.reshape(full.shape)[:, 1:]
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
        """Trapezoid integrals of both densities, with a 1/nu^2 tail estimate.

        The grid must be strictly increasing with at least 2 points: the
        densities themselves may be evaluated on any finite grid.
        """
        if len(self.nu_grid) < 2 or not np.all(np.diff(self.nu_grid) > 0):
            raise ConfigurationError(
                "integrals need a strictly increasing frequency grid of at least 2 points")
        lad = np.trapezoid(self.ladder_density, self.nu_grid)
        cro = np.trapezoid(self.crossed_density, self.nu_grid)
        if tail_correction:
            tl, tc = self.tail_estimates()
            lad += tl
            cro += tc
        return lad, cro

    def tail_estimates(self):
        """Estimated mass beyond the grid assuming C/nu^2 far tails.

        C is fitted on the outer few percent of the grid.  The model is
        cruder than the densities: the ladder densities decay as nu^-4 and
        the crossed ones at least as fast as nu^-5, so this overestimates
        the tail mass (about 3x for the ladder at Omega = 0.1, delta = 5).
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
    both via (1/pi) Re.  The grid need not be sorted, but must be a
    non-empty, finite 1-D array (ConfigurationError otherwise); a
    non-finite density raises ResolventError.
    """
    _require_one_configuration(gen.cfg.shape)
    nu_grid = np.asarray(nu_grid, dtype=float)
    if nu_grid.ndim != 1 or not nu_grid.size or not np.isfinite(nu_grid).all():
        raise ConfigurationError(
            f"frequency grid must be a non-empty, finite 1-D array (shape {nu_grid.shape})")
    phase = gen.detection_phase
    # the rows _IDX_D1, _IDX_D2 of G0(z) are the first rows of (z - a_d)^{-1},
    # a_d the detected pair's block of M1, resp. M2, placed at _PAIR_ROWS
    a = np.stack([m[np.ix_(pair, pair)] for m, pair
                  in zip((gen.resolvent.m1, gen.resolvent.m2), _PAIR_INDICES)])
    static = np.linalg.inv(-a)  # G0(0) at the pair rows, [d, p, q]
    v_rows = gen.V[_PAIR_ROWS]  # [d, p, 255]
    tiles = stage1_tiles(v_rows)

    corrs = (corr1, corr2) if corr1.atom == 1 else (corr2, corr1)
    weights = np.array([corr.source_weight for corr in corrs])[:, None]
    first = np.stack([gen.j, state.order0] + [corr.s0(1) for corr in corrs])
    second_source = np.stack([corr.s0(2)[_PAIR_ROWS] for corr in corrs])  # [a, d, p]

    ladder = np.empty_like(nu_grid)
    crossed = np.empty_like(nu_grid)
    for start in range(0, len(nu_grid), _BLOCK):
        block = slice(start, start + _BLOCK)
        z = -1j * nu_grid[block]
        # stage 1: t1 = G0(z) j, u = G0(z) u0 and x_a = G0(z) s_a^[1](0); the
        # weak-drive densities subtract nearly equal terms built from these
        x = gen.resolvent.solve(z[:, None], first, tiles)
        # V x at the pair rows only, as [nu, (t1, u, x_1, x_2), d, p], and
        # the detected rows of G0(z) on the pairs, as [nu, d, p]
        vx = np.tensordot(x, v_rows, axes=(-1, -1))
        row = np.linalg.inv(z[:, None, None, None] * np.eye(a.shape[-1]) - a)[..., 0, :]
        # stabilized [G0(z) V G0(z) - G0 V G0] j / z
        #   = -G0(z) G0 V G0(z) j - G0 V G0(z) G0 j = -diff, and y_a = G0(z)
        # (V x_a + s_a^[2](0)): s~_a = y_a - w_a diff, as [nu, a, d]
        diff = (np.einsum("zdp,dpq,zdq->zd", row, static, vx[:, 0])
                + np.einsum("dq,zdq->zd", static[:, 0], vx[:, 1]))
        s = np.einsum("zdp,zadp->zad", row, vx[:, 2:] + second_source) - weights * diff[:, None]
        (s1_d1, s1_d2), (s2_d1, s2_d2) = s.transpose(1, 2, 0)
        ladder[block] = (_EXTRACT * (s1_d1 + s2_d2)).real / np.pi
        crossed[block] = (_EXTRACT * (s1_d2 * phase + s2_d1 * np.conj(phase))).real / np.pi

    bad = ~(np.isfinite(ladder) & np.isfinite(crossed))
    if bad.any():
        raise ResolventError(
            f"non-finite spectral density at {bad.sum()} grid points "
            f"(first at nu = {nu_grid[bad][0]:.6g})"
        )

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
    _require_one_configuration(gen.cfg.shape)
    state = perturbative_steady_state(gen)
    if nu_grid is None:
        nu_grid = default_nu_grid(gen.cfg, points=points)
    corr1 = qrt_initial(1, state)
    corr2 = qrt_initial(2, state)
    spec = inelastic_spectrum(gen, state, corr1, corr2, nu_grid)
    ib = intensities(state, gen)
    return spec, ib

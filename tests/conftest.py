"""Shared fixtures, cached assemblies and spectra, and the references.

Spectra are the expensive objects (a batched resolvent sweep over up to
4001 frequencies), so every parameter point used by more than one test is
computed once per session and reused.  `resolvent_solve` and
`nonperturbative_steady_state` solve with the dense 255x255 generator
(`dense_a`) and the inhomogeneity j (`inhomogeneity`): they are the tests'
references for the resolvent and for the perturbative expansion; the
package's own solves never form that matrix or j.
`long_double_sweep_reference` is the reference of the spectrum sweep alone,
and `long_double_state_reference` that of the perturbative state, with V g
dropped analytically; both refine every solve against residuals in
extended precision.
`apply_single_atom_generator` and `apply_interaction_generator` are the
direct operator actions the generator tables are checked against, and the
remaining helpers are the inverse basis expansion, the analytic angular
factors and the pair axes of given orientations; the package itself has no
use for any of them.
"""

from functools import lru_cache

import numpy as np
import pytest

from twoatom_cbs.basis import (N_SINGLE, N_TWO, TRACE_ELEMENT_VALUE, expand_single_atom_operator,
                               sigma, two_atom_basis_flat)
from twoatom_cbs.config_average import ANGULAR_FACTOR, THETA_SQ_COEFFICIENT
from twoatom_cbs.errors import ResolventError
from twoatom_cbs.liouvillian import (
    _DIPOLE_COMPONENTS,
    _EXCITED,
    HELICITY,
    DriveConfig,
    Geometry,
    _unit_drive,
    assemble,
    helicity_projector,
)
from twoatom_cbs.resolvent import GROUP_OF
from twoatom_cbs.spectrum import compute_spectrum, qrt_initial
from twoatom_cbs.steady_state import (
    SIGMA_12_ROWS,
    SIGMA_21_ROWS,
    PerturbativeState,
    intensities,
    perturbative_steady_state,
)

DEFAULT_SEPARATION = 100.0
CONDITION_LIMIT = 1e12


#: the tile (p, q) of each packed position n - 1, n = 16 l + m
TILE = tuple(GROUP_OF[np.array(np.divmod(np.arange(1, N_TWO), N_SINGLE))])


def tile_count(entries):
    """How many tiles (p, q) the packed `entries` lie in."""
    return np.unique(TILE[0][entries] * N_SINGLE + TILE[1][entries]).size


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


def g0_full(gen, z, rhs):
    """G0(z) rhs in full, through the package's resolvent: the tile solve at
    z = 0, else the sweep read through every row."""
    if z == 0:
        return gen.resolvent.solve(rhs, np.arange(N_TWO - 1))
    return gen.resolvent.sweep(np.eye(N_TWO - 1), [z], rhs)[0]


def long_double_sweep_reference(gen, state, nu_grid):
    """Ladder and crossed densities of `inelastic_spectrum` from the same
    `state`, G0(z) V G0(z) c^[1] + G0(z) c^[2] read at the detected rows,
    with the rounding of the sweep's solves left out.

    The connected sources c_a^[k] are formed in the state's precision: in
    double, as the sweep forms them, from a double state, and in
    np.clongdouble from `long_double_state_reference`, which makes this the
    reference of the whole pipeline.  Each solve with z - A is a dense
    double LU, refined twice against residuals formed in np.clongdouble
    from the Kronecker factors m1, m2, and the V products and the read-outs
    are formed in np.clongdouble.
    Fails, not skips, where long double is no wider than double.
    """
    ld = np.clongdouble
    assert np.finfo(np.longdouble).eps < 1e-18, "long double is not extended precision"
    m1, m2 = gen.resolvent.m.astype(ld)
    z = -1j * np.asarray(nu_grid, dtype=float)
    dense = z[:, None, None] * np.eye(N_TWO - 1) - dense_a(gen)  # [nu, 255, 255]

    def shifted(x):
        # (z - A) x for x [nu, k, 255], from M1 X + X M2^T, X[0, 0] = 0
        full = np.zeros(x.shape[:-1] + (N_TWO,), dtype=ld)
        full[..., 1:] = x
        big = full.reshape(x.shape[:-1] + (N_SINGLE, N_SINGLE))
        ax = (m1 @ big + big @ m2.T).reshape(full.shape)[..., 1:]
        return z.astype(ld)[:, None, None] * x - ax

    def solve(b):
        x = np.linalg.solve(dense, b.astype(complex).swapaxes(-1, -2)).swapaxes(-1, -2).astype(ld)
        for _ in range(2):
            residual = (b - shifted(x)).astype(complex)
            x = x + np.linalg.solve(dense, residual.swapaxes(-1, -2)).swapaxes(-1, -2)
        return x

    # the connected sources c_a^[k] = s_a^[k](0) - <sigma_21^a> order(k-1),
    # formed in the state's precision
    s0 = qrt_initial(state)
    weights = np.array([state.order1 @ row for row in SIGMA_21_ROWS])[:, None]
    first = s0[:, 1] - weights * state.order0
    second = (s0[:, 2] - weights * state.order1).astype(ld)
    x = solve(np.broadcast_to(first, z.shape + first.shape).astype(ld))
    y = solve(x @ gen.V.astype(ld).T + second)
    d = y @ np.stack(SIGMA_12_ROWS).astype(ld).T  # [nu, a, detected d]
    phase = ld(gen.detection_phase)
    ladder = (d[:, 0, 0] + d[:, 1, 1]).real / np.pi
    crossed = (d[:, 0, 1] * phase + d[:, 1, 0] * np.conj(phase)).real / np.pi
    return ladder, crossed


def long_double_state_reference(gen):
    """The perturbative state of `gen` with V g dropped analytically.

    g = c_g (x) c_g is the ground pair, c_g the expanded single-atom ground
    state |1><1|, and V g = 0 because two ground-state atoms do not
    interact.  order0 = g + d with d = G0(0) W, W the 255-block of
    (M1 c_g) (x) c_g + c_g (x) (M2 c_g); order1 = G0(0) V d and
    order2 = G0(0) V order1.  Every product is formed
    in np.clongdouble, and each solve with -A is a dense double LU refined
    three times against residuals formed in np.clongdouble from the
    Kronecker factors m1, m2.  Fails, not skips, where long double is no
    wider than double.
    """
    ld = np.clongdouble
    assert np.finfo(np.longdouble).eps < 1e-18, "long double is not extended precision"
    m1, m2 = gen.resolvent.m.astype(ld)
    ground = expand_single_atom_operator(sigma(1, 1)).astype(ld)
    minus_a = -dense_a(gen)

    def kron(x, y):
        return np.kron(x, y)[1:]

    def solve(b):
        # G0(0) b = -A^{-1} b; the residual b - (-A) x = b + A x, where A x
        # is M1 X + X M2^T with X[0, 0] = 0
        x = np.linalg.solve(minus_a, b.astype(complex)).astype(ld)
        for _ in range(3):
            full = np.concatenate([np.zeros(1, dtype=ld), x]).reshape(N_SINGLE, N_SINGLE)
            residual = b + (m1 @ full + full @ m2.T).ravel()[1:]
            x = x + np.linalg.solve(minus_a, residual.astype(complex))
        return x

    v = gen.V.astype(ld)
    excess = solve(kron(m1 @ ground, ground) + kron(ground, m2 @ ground))
    order1 = solve(v @ excess)
    return PerturbativeState(order0=kron(ground, ground) + excess, order1=order1,
                             order2=solve(v @ order1))


_I16 = np.eye(N_SINGLE, dtype=complex)


def dense_a(gen):
    """Dense 255x255 A of one configuration, the 255-block of
    M1 (x) 1 + 1 (x) M2, formed on each call for dense reference solves."""
    m1, m2 = gen.resolvent.m
    return (np.kron(m1, _I16) + np.kron(_I16, m2))[1:, 1:]


def inhomogeneity(gen):
    """j of d<Q>/dt = (A + V)<Q> + j, shape C + (255,): column 0 (the trace
    element) of M1 (x) 1 + 1 (x) M2 times the trace element's value."""
    m1, m2 = gen.resolvent.m
    source = np.zeros(m1.shape, dtype=complex)
    source[..., :, 0] = m1[..., :, 0]
    source[..., 0, :] += m2[..., :, 0]
    return source.reshape(gen.cfg.shape + (N_TWO,))[..., 1:] * TRACE_ELEMENT_VALUE


def nonperturbative_steady_state(gen):
    """Exact stationary state: (A + V) <Q> = -j, all orders in g (dense A)."""
    return np.linalg.solve(dense_a(gen) + gen.V, -inhomogeneity(gen))


def reconstruct_two_atom_operator(coeffs):
    """Inverse of expand_two_atom_operator."""
    coeffs = np.asarray(coeffs, dtype=complex)
    return (coeffs @ two_atom_basis_flat()).reshape(N_SINGLE, N_SINGLE)


_I4 = np.eye(4, dtype=complex)


def _embed(op, atom):
    """Lift a single-atom operator into the two-atom space (atom 1 or 2)."""
    if atom == 1:
        return np.kron(op, _I4)
    if atom == 2:
        return np.kron(_I4, op)
    raise ValueError("atom must be 1 or 2")


def apply_single_atom_generator(cfg, Q, atom, rabi_phase=1.0):
    """Direct action of the independent-atom generator on a two-atom operator.

    Implements -i delta [D^dag.D, Q] - (i/2)[Omega_a D^dag.eps_L
    + Omega_a^* D.eps_L^*, Q] + sum_q (d_q^dag [Q, d_q]
    + [d_q^dag, Q] d_q) by plain matrix algebra; this is the reference
    path against which the assembled matrix A is cross-validated.
    """
    Q = np.asarray(Q, dtype=complex)
    excited = _embed(_EXCITED, atom)
    drive = _embed(cfg.rabi * _unit_drive(rabi_phase), atom)
    out = -1j * cfg.detuning * (excited @ Q - Q @ excited)
    out += -0.5j * (drive @ Q - Q @ drive)
    for q in HELICITY:
        d = _embed(_DIPOLE_COMPONENTS[q], atom)
        dd = d.conj().T
        out += dd @ (Q @ d - d @ Q) + (dd @ Q - Q @ dd) @ d
    return out


def apply_interaction_generator(geom, g, Q, alpha, beta):
    """Direct action of the photon-exchange generator L_{alpha beta}.

    Implements D_a^dag . T . [Q, D_b] + [D_b^dag, Q] . T^* . D_a with
    T = g Delta(n_hat).
    """
    Q = np.asarray(Q, dtype=complex)
    ph = helicity_projector(geom.n_hat)
    out = np.zeros_like(Q)
    for i, q in enumerate(HELICITY):
        for j, qp in enumerate(HELICITY):
            w = ph[i, j]
            if w == 0:
                continue
            da_dag = _embed(_DIPOLE_COMPONENTS[q].conj().T, alpha)
            db = _embed(_DIPOLE_COMPONENTS[qp], beta)
            out += w * g * (da_dag @ (Q @ db - db @ Q))
            db_dag = _embed(_DIPOLE_COMPONENTS[q].conj().T, beta)
            da = _embed(_DIPOLE_COMPONENTS[qp], alpha)
            out += w * np.conj(g) * ((db_dag @ Q - Q @ db_dag) @ da)
    return out


def angular_factor_analytic():
    """Isotropic angular factor of the geometric weight.

    Returns
    -------
    (float, float)
        (2/15, 1/35): the mean of |Delta_{+1,+1}|^2 over orientations,
        and the theta^2 coefficient of the small-angle crossed profile
        2/15 - (k l theta)^2 / 35.
    """
    return ANGULAR_FACTOR, THETA_SQ_COEFFICIENT


def unit_vectors(cos_t, phi):
    """Pair axes n_hat, shape (..., 3), from polar cosines and azimuths."""
    sin_t = np.sqrt(1.0 - cos_t**2)
    return np.stack([sin_t * np.cos(phi), sin_t * np.sin(phi), cos_t], axis=-1)


def shifted_tilted_geometry():
    """Off the laser axis and not transverse to it: unequal Rabi phases and
    all nine helicity-projector elements non-zero."""
    r1 = np.array([0.3, -1.2, 4.7])
    n_hat = np.array([1.0, 0.5, 0.8]) / np.linalg.norm([1.0, 0.5, 0.8])
    return Geometry(r1=r1, r2=r1 - 40.0 * n_hat)


@lru_cache(maxsize=None)
def generator(rabi, detuning=0.0, k0_r12=DEFAULT_SEPARATION):
    cfg = DriveConfig(rabi=rabi, detuning=detuning)
    return assemble(cfg, Geometry.backscattering(k0_r12))


@lru_cache(maxsize=None)
def stationary(rabi, detuning=0.0, k0_r12=DEFAULT_SEPARATION):
    gen = generator(rabi, detuning, k0_r12)
    state = perturbative_steady_state(gen)
    return gen, state, intensities(state, gen)


@lru_cache(maxsize=None)
def spectrum_at(rabi, detuning=0.0, half_width=None, points=1201):
    """Cached spectrum; grid covers all resonances unless half_width given."""
    gen = generator(rabi, detuning)
    if half_width is None:
        omega_mod = float(np.hypot(rabi, detuning))
        half_width = 2.5 * omega_mod + 10.0
    grid = np.linspace(-half_width, half_width, points)
    spec, ib = compute_spectrum(gen, nu_grid=grid)
    return gen, spec, ib


@pytest.fixture(scope="session")
def weak_point():
    """Drive well below saturation, on resonance."""
    return spectrum_at(0.1, 0.0, half_width=25.0, points=1201)


@pytest.fixture(scope="session")
def strong_point():
    """Deep saturation regime, on resonance."""
    return spectrum_at(100.0, 0.0, half_width=510.0, points=4001)


@pytest.fixture(scope="session")
def backscattering_geometry():
    return Geometry.backscattering(DEFAULT_SEPARATION)

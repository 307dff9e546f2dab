"""Shared fixtures, cached assemblies and spectra, and the references.

Spectra are the expensive objects (a batched resolvent sweep over up to
4001 frequencies), so every parameter point used by more than one test is
computed once per session and reused.  `resolvent_solve` and
`nonperturbative_steady_state` solve with the dense 255x255 generator: they
are the tests' references for the tile resolvent and for the
perturbative expansion; the package's own solves never form that matrix.
`apply_single_atom_generator` and `apply_interaction_generator` are the
direct operator actions the generator tables are checked against, and the
remaining helpers are the inverse basis expansion and closed forms of the
disorder averages; the package itself has no use for any of them.
"""

from functools import lru_cache

import numpy as np
import pytest

from twoatom_cbs.basis import N_SINGLE, two_atom_basis_flat
from twoatom_cbs.config_average import ANGULAR_FACTOR, THETA_SQ_COEFFICIENT, monte_carlo_average
from twoatom_cbs.errors import ResolventError
from twoatom_cbs.liouvillian import (
    _DIPOLE_COMPONENTS,
    _EXCITED,
    HELICITY,
    DriveConfig,
    Geometry,
    _unit_drive,
    assemble,
    coupling_constant,
    helicity_projector,
)
from twoatom_cbs.spectrum import compute_spectrum
from twoatom_cbs.steady_state import intensities, perturbative_steady_state

DEFAULT_SEPARATION = 100.0
CONDITION_LIMIT = 1e12


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


def nonperturbative_steady_state(gen):
    """Exact stationary state: (A + V) <Q> = -j, all orders in g (dense A)."""
    return np.linalg.solve(gen.A + gen.V, -gen.j)


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
    + Omega_a^* D.eps_L^*, Q] + gamma sum_q (d_q^dag [Q, d_q]
    + [d_q^dag, Q] d_q) by plain matrix algebra; this is the reference
    path against which the assembled matrix A is cross-validated.
    """
    Q = np.asarray(Q, dtype=complex)
    excited = _embed(_EXCITED, atom)
    drive = _embed(cfg.rabi * _unit_drive(cfg.laser_polarization, rabi_phase), atom)
    out = -1j * cfg.detuning * (excited @ Q - Q @ excited)
    out += -0.5j * (drive @ Q - Q @ drive)
    for q in HELICITY:
        d = _embed(_DIPOLE_COMPONENTS[q], atom)
        dd = d.conj().T
        out += cfg.gamma * (dd @ (Q @ d - d @ Q) + (dd @ Q - Q @ dd) @ d)
    return out


def apply_interaction_generator(cfg, geom, g, Q, alpha, beta):
    """Direct action of the photon-exchange generator L_{alpha beta}.

    Implements D_a^dag . T . [Q, D_b] + [D_b^dag, Q] . T^* . D_a with
    T = gamma g Delta(n_hat).
    """
    Q = np.asarray(Q, dtype=complex)
    ph = helicity_projector(geom.n_hat)
    out = np.zeros_like(Q)
    for i, q in enumerate(HELICITY):
        for j, qp in enumerate(HELICITY):
            w = cfg.gamma * ph[i, j]
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


def crossed_phase_evaluator(k_total):
    """cos(k_total . r12) per configuration; k_total = k + k_L.

    At exact backscattering k_total = 0 and the phase is identically 1.
    """
    k_total = np.asarray(k_total, dtype=float)

    def evaluate(n_hat, r):
        return np.cos((n_hat @ k_total) * r)

    return evaluate


def mean_coupling_sq(model, sampled=False):
    """|g_bar|^2 of a DisorderModel, with g evaluated at the mean separation.

    With sampled=True, returns the Monte Carlo mean of |g|^2 over
    the distance window instead (the two differ at relative order
    (width / mean_separation)^2).
    """
    if not sampled:
        return abs(coupling_constant(model.mean_separation)) ** 2
    result = monte_carlo_average(
        model, lambda n_hat, r: np.abs(coupling_constant(r)) ** 2
    )
    return result.mean


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

"""Shared fixtures, cached assemblies and spectra, and the dense references.

Spectra are the expensive objects (a batched resolvent sweep over up to
4001 frequencies), so every parameter point used by more than one test is
computed once per session and reused.  `resolvent_solve` and
`nonperturbative_steady_state` solve with the dense 255x255 generator: they
are the tests' references for the block-Schur resolvent and for the
perturbative expansion; the package's own solves never form that matrix.
"""

from functools import lru_cache

import numpy as np
import pytest

from twoatom_cbs.errors import ResolventError
from twoatom_cbs.liouvillian import DriveConfig, Geometry, assemble
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

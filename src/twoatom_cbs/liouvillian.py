"""Generators of the two-atom master equation.

Assembles A and V of the linear equation of motion d<Q>/dt = (A + V)<Q> + j
for the 255 two-atom basis-operator expectation values: A collects the two
independent driven-atom generators, V the far-field photon-exchange
coupling (first order in the complex coupling g).  The inhomogeneity j
(column 0 of A times the trace element) is not assembled: the stationary
state starts from the single-atom states (`steady_state.product_state`).

Both are built on the 16-element single-atom basis: A is the Kronecker sum
M1 (x) 1 + 1 (x) M2 of the two 16x16 single-atom generators, and V is a
P_ij-weighted sum of Kronecker products of single-atom multiplication
tables.  A is kept only as its two factors, in the resolvent, which checks
it; V stays dense, as a product through its 24 factor pairs costs about 3x
the dense one.  V does not depend on the drive: it is built, checked and cached
(read-only) once per (n_hat, g), so a sweep over the drive at one geometry
pays for it once.  The direct operator actions the matrices are
tested against, apply_*_generator, live in tests/conftest.py.

A drive sweep is one call.  `DriveConfig.rabi` and `.detuning` may be
arrays, and their broadcast shape is the configuration shape C (() for
scalars).  M1 and M2 are affine in (Omega, delta), so both are built for
all of C at once, as one array of shape (2,) + C + (16, 16); the resolvent
carries C in front of its own axes, and every check runs per configuration;
V is shared by the whole sweep.

Frequencies are in units of gamma (half the spontaneous decay rate), which
is the unit and not a parameter; lengths are in units of 1/k0.  The laser
propagates along +z, the quantization axis; it drives |1> <-> |4> with
positive-helicity polarization, and the backscattered channel with flipped
helicity comes from |1> <-> |2>.
"""

import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .basis import (
    N_SINGLE,
    N_TWO,
    sigma,
    single_atom_tables,
)
from .errors import ConfigurationError
from .resolvent import KroneckerResolvent

# helicity unit vectors, spherical convention
E_PLUS = np.array([-1.0, -1.0j, 0.0]) / np.sqrt(2)
E_MINUS = np.array([1.0, -1.0j, 0.0]) / np.sqrt(2)
E_ZERO = np.array([0.0, 0.0, 1.0], dtype=complex)
HELICITY = (-1, 0, 1)
_HELICITY_VECS = {-1: E_MINUS, 0: E_ZERO, 1: E_PLUS}

# components of the dipole lowering operator D = sum_q e_q d_q
_DIPOLE_COMPONENTS = {
    -1: -sigma(1, 2),
    0: sigma(1, 3),
    1: -sigma(1, 4),
}
_EXCITED = sigma(2, 2) + sigma(3, 3) + sigma(4, 4)

FAR_FIELD_WARN_THRESHOLD = 0.1


@dataclass(frozen=True)
class DriveConfig:
    """Laser drive parameters in units of gamma, which is the unit and
    cannot be set: gamma != 1 is the same physics at (Omega/gamma,
    delta/gamma) with every rate rescaled.

    `rabi` and `detuning` may be arrays (stored as read-only float copies):
    their broadcast shape is the configuration shape `shape`, () for two
    scalars.  The laser has positive helicity: it drives |1> <-> |4>, and
    the detected channel and `resolvent.BLOCKS` are those of that drive.
    """

    rabi: float | np.ndarray
    detuning: float | np.ndarray = 0.0

    def __post_init__(self):
        for name in ("rabi", "detuning"):
            if np.ndim(getattr(self, name)):
                value = np.array(getattr(self, name), dtype=float)
                value.setflags(write=False)
                object.__setattr__(self, name, value)
        try:
            shape = self.shape
        except ValueError:
            raise ConfigurationError(
                f"rabi {np.shape(self.rabi)} and detuning {np.shape(self.detuning)} "
                "do not broadcast to one configuration shape") from None
        if 0 in shape:
            raise ConfigurationError(f"configuration shape {shape} is empty")
        for name in ("rabi", "detuning"):
            if not np.isfinite(getattr(self, name)).all():
                raise ConfigurationError(f"{name} must be finite")
        # an undriven pair scatters nothing: every intensity vanishes
        if np.any(self.rabi <= 0):
            raise ConfigurationError("rabi must be positive")

    @property
    def shape(self):
        """Configuration shape: the broadcast shape of rabi and detuning."""
        return np.broadcast_shapes(np.shape(self.rabi), np.shape(self.detuning))

    @property
    def saturation(self):
        """s = Omega^2 / 2(1 + delta^2)."""
        return self.rabi ** 2 / (2.0 * (1.0 + self.detuning ** 2))


@dataclass(frozen=True)
class Geometry:
    """Atom positions (in 1/k0 units) and the detection direction.

    The laser propagates along +z, the quantization axis its positive
    helicity is defined on, so its direction is not a field.  Each field is
    a finite 3-vector, or ConfigurationError.
    """

    r1: np.ndarray
    r2: np.ndarray
    k_out_dir: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, -1.0]))

    def __post_init__(self):
        for name in ("r1", "r2", "k_out_dir"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
            if getattr(self, name).shape != (3,):
                raise ConfigurationError(f"{name} must be a 3-vector")
            if not np.isfinite(getattr(self, name)).all():
                raise ConfigurationError(f"{name} must be finite")
        if abs(np.linalg.norm(self.k_out_dir) - 1.0) > 1e-12:
            raise ConfigurationError("k_out_dir must be a unit vector")
        # finite positions can still be too far apart for |r12| to be a float
        with np.errstate(over="ignore"):
            if not np.isfinite(self.k0_r12):
                raise ConfigurationError("atom separation overflows")
        if self.k0_r12 <= 0:
            raise ConfigurationError("atoms must not coincide")

    @classmethod
    def backscattering(cls, k0_r12):
        """Atoms separated by k0_r12 along x, transverse to the laser, detection
        at theta=0."""
        if not (np.ndim(k0_r12) == 0 and np.isfinite(k0_r12) and k0_r12 > 0):
            # a negative separation would silently flip the atoms
            raise ConfigurationError("k0_r12 must be positive and finite")
        return cls(r1=np.zeros(3), r2=-k0_r12 * np.array([1.0, 0.0, 0.0]))

    @property
    def r12(self):
        return self.r1 - self.r2

    @property
    def k0_r12(self):
        return float(np.linalg.norm(self.r12))

    @property
    def n_hat(self):
        return self.r12 / self.k0_r12


def coupling_constant(k0_r12):
    """Far-field photon-exchange coupling g = (3i / 2 k0 r12) exp(i k0 r12).

    Accepts a scalar or an array of separations; a non-finite or
    non-positive one raises ConfigurationError.
    """
    k0_r12 = np.asarray(k0_r12, dtype=float)
    if not (np.isfinite(k0_r12) & (k0_r12 > 0)).all():
        raise ConfigurationError("k0_r12 must be finite and positive")
    g = 1.5j / k0_r12 * np.exp(1j * k0_r12)
    if np.any(np.abs(g) >= FAR_FIELD_WARN_THRESHOLD):
        warnings.warn(
            f"|g| = {np.max(np.abs(g)):.3g} >= {FAR_FIELD_WARN_THRESHOLD}: "
            "far-field expansion is unreliable at this separation",
            stacklevel=2,
        )
    return g[()] if g.ndim == 0 else g


def _unit_vectors(n_hat):
    """n_hat as a float array of unit vectors along its last axis (..., 3), or
    ConfigurationError."""
    n_hat = np.asarray(n_hat, dtype=float)
    if n_hat.shape[-1:] != (3,) or not np.all(
            np.abs(np.linalg.norm(n_hat, axis=-1) - 1.0) <= 1e-12):
        raise ConfigurationError("n_hat must be a unit vector of shape (..., 3)")
    return n_hat


def transverse_projector(n_hat):
    """Projector 1 - n n^T onto the plane transverse to the unit vector n, for
    n_hat (..., 3)."""
    n_hat = _unit_vectors(n_hat)
    return np.eye(3) - n_hat[..., :, None] * n_hat[..., None, :]


def helicity_projector(n_hat):
    """Transverse projector in the helicity basis: P[i, j] = e_qi^* . Delta . e_qj.

    Rows/columns ordered by HELICITY = (-1, 0, +1); n_hat (..., 3).
    """
    delta = transverse_projector(n_hat)
    out = np.empty(delta.shape, dtype=complex)
    for i, q in enumerate(HELICITY):
        for j, qp in enumerate(HELICITY):
            out[..., i, j] = _HELICITY_VECS[q].conj() @ delta @ _HELICITY_VECS[qp]
    return out


def delta_plus_plus(n_hat):
    """Tensor element e_{+1} . Delta . e_{+1} of the transverse projector (no conjugation)
    for unit vectors n_hat (..., 3); e_{+1} . e_{+1} = 0 reduces it to -(n_hat . e_{+1})^2."""
    return -(_unit_vectors(n_hat) @ E_PLUS) ** 2


def angular_weight(n_hat, g):
    """|g|^2 |Delta_{+1,+1}|^2, the geometric weight of all order-g^2 observables."""
    return abs(g) ** 2 * abs(delta_plus_plus(n_hat)) ** 2


def _unit_drive(rabi_phase):
    """Drive term Omega_a D^dag.eps_L + Omega_a^* D.eps_L^* at Omega = 1 (4x4).

    Omega_a = Omega * rabi_phase, so the drive term at Omega is Omega times
    this operator; eps_L = E_PLUS, the positive-helicity laser.
    """
    eps_l = E_PLUS
    drive = np.zeros((4, 4), dtype=complex)
    for q in HELICITY:
        d_q = _DIPOLE_COMPONENTS[q]
        drive += rabi_phase * (_HELICITY_VECS[q].conj() @ eps_l) * d_q.conj().T
        drive += np.conj(rabi_phase) * (_HELICITY_VECS[q] @ eps_l.conj()) * d_q
    return drive


# ---------------------------------------------------------------------------
# matrix assembly
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def _drive_independent_tables():
    """L_E - R_E and sum_q (2 L_{d_q^dag} R_{d_q} - L_{d_q^dag d_q} - R_{d_q^dag d_q})."""
    l_e, r_e = single_atom_tables(_EXCITED)
    dissipator = np.zeros((N_SINGLE, N_SINGLE), dtype=complex)
    for q in HELICITY:
        d = _DIPOLE_COMPONENTS[q]
        dd = d.conj().T
        l_dd, _ = single_atom_tables(dd)
        _, r_d = single_atom_tables(d)
        l_n, r_n = single_atom_tables(dd @ d)
        dissipator += 2.0 * l_dd @ r_d - l_n - r_n
    tables = (l_e - r_e, dissipator)
    for table in tables:
        table.setflags(write=False)
    return tables


def _single_atom_matrix(cfg, rabi_phase):
    """16x16 coefficient matrices of single-atom generators, one per configuration.

    -i delta (L_E - R_E) - (i/2) Omega (L_H1 - R_H1)
    + sum_q (2 L_{d_q^dag} R_{d_q} - L_{d_q^dag d_q} - R_{d_q^dag d_q}),
    the table form of the direct action `apply_single_atom_generator` in
    tests/conftest.py.  It is affine in (delta, Omega): H1 is the drive
    term at Omega = 1 (`_unit_drive`), whose table is built once per phase
    and call, and the other two tables are cached.  Shape P + cfg.shape +
    (16, 16), P the shape of `rabi_phase`: one atom's or one per atom.
    """
    phase = np.asarray(rabi_phase)
    unit = np.array([np.subtract(*single_atom_tables(_unit_drive(p))) for p in phase.ravel()])
    unit = unit.reshape(phase.shape + (1,) * len(cfg.shape) + (N_SINGLE, N_SINGLE))
    excited, dissipator = _drive_independent_tables()
    detuning = np.asarray(cfg.detuning)[..., None, None]
    rabi = np.asarray(cfg.rabi)[..., None, None]
    return -1j * detuning * excited - 0.5j * rabi * unit + dissipator


def _interaction_matrix(n_hat, g):
    """256x256 coefficient matrix of L_12 + L_21.

    The table form of the direct action `apply_interaction_generator` in
    tests/conftest.py, contracted over one helicity index: with w = P, the
    helicity projector, Y_k = sum_j w_kj d_j and Z_k = sum_i w_ik d_i^dag,
    L_12 = sum_k g L_{d_k^dag} (x) (R_{Y_k} - L_{Y_k})
           + g^* R_{d_k} (x) (L_{Z_k} - R_{Z_k}),
    and L_21 is the same sum with the two Kronecker factors swapped, so
    both come from one sum over the concatenated factor lists.
    """
    w = helicity_projector(n_hat)
    dips = np.array([_DIPOLE_COMPONENTS[q] for q in HELICITY])
    dips_dag = dips.conj().transpose(0, 2, 1)
    ys = np.tensordot(w, dips, axes=1)
    zs = np.tensordot(w.T, dips_dag, axes=1)
    first, second = [], []
    for d, d_dag, y, z in zip(dips, dips_dag, ys, zs):
        l_y, r_y = single_atom_tables(y)
        l_z, r_z = single_atom_tables(z)
        first += [single_atom_tables(d_dag)[0], single_atom_tables(d)[1]]
        second += [g * (r_y - l_y), np.conj(g) * (l_z - r_z)]
    # sum_k a_k (x) b_k as one product: [i, j, k, l] -> [(i, k), (j, l)]
    a = np.reshape(first + second, (-1, N_TWO))
    b = np.reshape(second + first, (-1, N_TWO))
    n = N_SINGLE
    return (a.T @ b).reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(N_TWO, N_TWO)


@lru_cache(maxsize=4)
def _coupling_matrix(n_hat, g):
    """Read-only V, the 255-block of L_12 + L_21, checked once per (n_hat, g).

    V does not depend on the drive, so a sweep over (Omega, delta) at one
    geometry builds and checks it once; `n_hat` is a tuple, `g` a complex.
    """
    m_int = _interaction_matrix(np.array(n_hat), g)
    # the identity must be stationary, and the interaction has no
    # inhomogeneous part
    if np.abs(m_int[0]).max() > 1e-12:
        raise ConfigurationError("generator does not leave the identity invariant")
    if np.abs(m_int[1:, 0]).max() > 1e-12 * max(1.0, np.abs(m_int).max()):
        raise ConfigurationError("interaction generator produced a trace-element source")
    v = np.ascontiguousarray(m_int[1:, 1:])
    v.setflags(write=False)
    return v


def rabi_phases(geom):
    """Laser phase factor exp(i z_alpha) per atom, the laser propagating along +z."""
    return np.exp(1j * geom.r1[2]), np.exp(1j * geom.r2[2])


@dataclass(frozen=True)
class GeneratorSet:
    """Generators of the linear master equation d<Q>/dt = (A + V)<Q> + j.

    `resolvent` holds A as its two single-atom Kronecker factors, the only
    copy of A the package keeps, checks it, and applies G0(z) = (z - A)^{-1};
    it carries the configuration axes cfg.shape in front, while V, the
    geometry and g are shared by every configuration.
    """

    V: np.ndarray
    cfg: DriveConfig
    geom: Geometry
    g: complex
    resolvent: KroneckerResolvent

    @property
    def angular_weight(self):
        return angular_weight(self.geom.n_hat, self.g)

    @property
    def detection_phase(self):
        """exp(i k . r12) entering the crossed intensity and spectrum."""
        return np.exp(1j * self.geom.k0_r12 * (self.geom.k_out_dir @ self.geom.n_hat))


def assemble(cfg, geom):
    """Build the GeneratorSet for the given drive and geometry.

    The coupling g is the far-field value at the interatomic distance.  An
    array-valued `cfg` assembles every configuration in one call; the
    resolvent checks each, and one that fails fails the call.
    """
    g = coupling_constant(geom.k0_r12)
    v = _coupling_matrix(tuple(geom.n_hat), complex(g))
    resolvent = KroneckerResolvent(_single_atom_matrix(cfg, rabi_phases(geom)))
    return GeneratorSet(V=v, cfg=cfg, geom=geom, g=complex(g), resolvent=resolvent)

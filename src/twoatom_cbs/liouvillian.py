"""Generators of the two-atom master equation.

Assembles the linear equation of motion d<Q>/dt = (A + V)<Q> + j for the
255 two-atom basis-operator expectation values: A collects the two
independent driven-atom generators, V the far-field photon-exchange
coupling (first order in the complex coupling g), and j the inhomogeneity
produced by the constant trace element.

Both are built on the 16-element single-atom basis: A is the Kronecker sum
A1 (x) 1 + 1 (x) A2 of the two 16x16 single-atom generators, and V is a
P_ij-weighted sum of Kronecker products of single-atom multiplication
tables.  The direct operator actions apply_*_generator are the independent
references the matrices are tested against.

Frequencies are in units of gamma (half the spontaneous decay rate),
lengths in units of 1/k0.  The quantization axis is along the laser wave
vector; the laser drives |1> <-> |4> with positive-helicity polarization
and the backscattered channel with flipped helicity comes from |1> <-> |2>.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .basis import (
    N_SINGLE,
    N_TWO,
    TRACE_ELEMENT_VALUE,
    sigma,
    single_atom_tables,
)

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

FAR_FIELD_WARN_THRESHOLD = 0.1


class ConfigurationError(ValueError):
    """Physically invalid or numerically unusable configuration."""


@dataclass(frozen=True)
class DriveConfig:
    """Laser drive parameters, all in units of gamma."""

    rabi: float
    detuning: float = 0.0
    gamma: float = 1.0
    laser_polarization: int = 1

    def __post_init__(self):
        if self.rabi < 0:
            raise ConfigurationError("rabi must be non-negative")
        if self.gamma <= 0:
            raise ConfigurationError("gamma must be positive")
        if self.laser_polarization != 1:
            raise ConfigurationError("only the +1 helicity drive channel is supported")

    @property
    def saturation(self):
        """s = Omega^2 / 2(gamma^2 + delta^2)."""
        return self.rabi ** 2 / (2.0 * (self.gamma ** 2 + self.detuning ** 2))


@dataclass(frozen=True)
class Geometry:
    """Atom positions and propagation directions (positions in 1/k0 units)."""

    r1: np.ndarray
    r2: np.ndarray
    k_laser_dir: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 1.0]))
    k_out_dir: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, -1.0]))

    def __post_init__(self):
        for name in ("r1", "r2", "k_laser_dir", "k_out_dir"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        for name in ("k_laser_dir", "k_out_dir"):
            v = getattr(self, name)
            if abs(np.linalg.norm(v) - 1.0) > 1e-12:
                raise ConfigurationError(f"{name} must be a unit vector")
        if self.k0_r12 <= 0:
            raise ConfigurationError("atoms must not coincide")

    @classmethod
    def backscattering(cls, k0_r12, separation_dir=(1.0, 0.0, 0.0)):
        """Atoms separated by k0_r12 transverse to the laser, detection at theta=0."""
        d = np.asarray(separation_dir, dtype=float)
        d = d / np.linalg.norm(d)
        return cls(r1=np.zeros(3), r2=-k0_r12 * d)

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

    Accepts a scalar or an array of separations.
    """
    k0_r12 = np.asarray(k0_r12, dtype=float)
    if np.any(k0_r12 <= 0):
        raise ValueError("k0_r12 must be positive")
    g = 1.5j / k0_r12 * np.exp(1j * k0_r12)
    if np.any(np.abs(g) >= FAR_FIELD_WARN_THRESHOLD):
        warnings.warn(
            f"|g| = {np.max(np.abs(g)):.3g} >= {FAR_FIELD_WARN_THRESHOLD}: "
            "far-field expansion is unreliable at this separation",
            stacklevel=2,
        )
    return g[()] if g.ndim == 0 else g


def transverse_projector(n_hat):
    """Projector 1 - n n^T onto the plane transverse to the unit vector n."""
    n_hat = np.asarray(n_hat, dtype=float)
    if abs(np.linalg.norm(n_hat) - 1.0) > 1e-12:
        raise ValueError("n_hat must be a unit vector")
    return np.eye(3) - np.outer(n_hat, n_hat)


def helicity_projector(n_hat):
    """Transverse projector in the helicity basis: P[i, j] = e_qi^* . Delta . e_qj.

    Rows/columns ordered by HELICITY = (-1, 0, +1).
    """
    delta = transverse_projector(n_hat)
    out = np.empty((3, 3), dtype=complex)
    for i, q in enumerate(HELICITY):
        for j, qp in enumerate(HELICITY):
            out[i, j] = _HELICITY_VECS[q].conj() @ delta @ _HELICITY_VECS[qp]
    return out


def delta_plus_plus(n_hat):
    """Tensor element e_{+1} . Delta . e_{+1} of the transverse projector (no conjugation)."""
    return E_PLUS @ transverse_projector(n_hat) @ E_PLUS


def angular_weight(n_hat, g):
    """|g|^2 |Delta_{+1,+1}|^2, the geometric weight of all order-g^2 observables."""
    return abs(g) ** 2 * abs(delta_plus_plus(n_hat)) ** 2


# ---------------------------------------------------------------------------
# superoperator actions on 16x16 two-atom operators
# ---------------------------------------------------------------------------

_I4 = np.eye(4, dtype=complex)
_I16 = np.eye(N_SINGLE, dtype=complex)


def _embed(op, atom):
    """Lift a single-atom operator into the two-atom space (atom 1 or 2)."""
    if atom == 1:
        return np.kron(op, _I4)
    if atom == 2:
        return np.kron(_I4, op)
    raise ValueError("atom must be 1 or 2")


def _single_atom_operators(cfg, rabi_phase):
    """Excited projector, drive Hamiltonian term, dipole components (4x4)."""
    excited = sigma(2, 2) + sigma(3, 3) + sigma(4, 4)
    eps_l = _HELICITY_VECS[cfg.laser_polarization]
    omega_a = cfg.rabi * rabi_phase
    drive = np.zeros((4, 4), dtype=complex)
    for q in HELICITY:
        d_q = _DIPOLE_COMPONENTS[q]
        drive += omega_a * (_HELICITY_VECS[q].conj() @ eps_l) * d_q.conj().T
        drive += np.conj(omega_a) * (_HELICITY_VECS[q] @ eps_l.conj()) * d_q
    return excited, drive


def apply_single_atom_generator(cfg, Q, atom, rabi_phase=1.0):
    """Direct action of the independent-atom generator on a two-atom operator.

    Implements -i delta [D^dag.D, Q] - (i/2)[Omega_a D^dag.eps_L
    + Omega_a^* D.eps_L^*, Q] + gamma sum_q (d_q^dag [Q, d_q]
    + [d_q^dag, Q] d_q) by plain matrix algebra; this is the reference
    path against which the assembled matrix A is cross-validated.
    """
    Q = np.asarray(Q, dtype=complex)
    excited, drive = _single_atom_operators(cfg, rabi_phase)
    excited = _embed(excited, atom)
    drive = _embed(drive, atom)
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


# ---------------------------------------------------------------------------
# matrix assembly
# ---------------------------------------------------------------------------

def _single_atom_matrix(cfg, rabi_phase):
    """16x16 coefficient matrix of one atom's generator on the single-atom basis.

    -i delta (L_E - R_E) - (i/2)(L_H - R_H)
    + gamma sum_q (2 L_{d_q^dag} R_{d_q} - L_{d_q^dag d_q} - R_{d_q^dag d_q}),
    the table form of apply_single_atom_generator.
    """
    excited, drive = _single_atom_operators(cfg, rabi_phase)
    l_e, r_e = single_atom_tables(excited)
    l_h, r_h = single_atom_tables(drive)
    m = -1j * cfg.detuning * (l_e - r_e) - 0.5j * (l_h - r_h)
    for q in HELICITY:
        d = _DIPOLE_COMPONENTS[q]
        dd = d.conj().T
        l_dd, _ = single_atom_tables(dd)
        _, r_d = single_atom_tables(d)
        l_n, r_n = single_atom_tables(dd @ d)
        m += cfg.gamma * (2.0 * l_dd @ r_d - l_n - r_n)
    return m


def _interaction_matrices(cfg, geom, g):
    """256x256 coefficient matrices of L_12 and L_21.

    The table form of apply_interaction_generator, contracted over one
    helicity index: with w = gamma P, Y_k = sum_j w_kj d_j and
    Z_k = sum_i w_ik d_i^dag,
    L_12 = sum_k g L_{d_k^dag} (x) (R_{Y_k} - L_{Y_k})
           + g^* R_{d_k} (x) (L_{Z_k} - R_{Z_k}),
    and L_21 is the same sum with the two Kronecker factors swapped.
    """
    w = cfg.gamma * helicity_projector(geom.n_hat)
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
    first = np.reshape(first, (len(first), -1))
    second = np.reshape(second, (len(second), -1))

    def kron_sum(a, b):
        # sum_k a_k (x) b_k as one product: [i, j, k, l] -> [(i, k), (j, l)]
        n = N_SINGLE
        return (a.T @ b).reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(N_TWO, N_TWO)

    return kron_sum(first, second), kron_sum(second, first)


def rabi_phases(geom):
    """Position-dependent laser phase factor exp(i k_L . r_alpha) per atom."""
    k_l = geom.k_laser_dir
    return np.exp(1j * (k_l @ geom.r1)), np.exp(1j * (k_l @ geom.r2))


@dataclass(frozen=True)
class GeneratorSet:
    """Matrices of the linear master equation d<Q>/dt = (A + V)<Q> + j."""

    A: np.ndarray
    V: np.ndarray
    j: np.ndarray
    cfg: DriveConfig
    geom: Geometry
    g: complex

    @property
    def angular_weight(self):
        return angular_weight(self.geom.n_hat, self.g)

    @property
    def detection_phase(self):
        """exp(i k . r12) entering the crossed intensity and spectrum."""
        return np.exp(1j * self.geom.k0_r12 * (self.geom.k_out_dir @ self.geom.n_hat))


def assemble(cfg, geom, g=None):
    """Build the GeneratorSet for the given drive and geometry.

    The coupling g defaults to the far-field value at the interatomic
    distance but may be overridden (e.g. rescaled) independently of the
    geometric phases.
    """
    if g is None:
        g = coupling_constant(geom.k0_r12)
    ph1, ph2 = rabi_phases(geom)
    m_single = (np.kron(_single_atom_matrix(cfg, ph1), _I16)
                + np.kron(_I16, _single_atom_matrix(cfg, ph2)))
    m_12, m_21 = _interaction_matrices(cfg, geom, g)
    m_int = m_12 + m_21

    # identity must be stationary under both generators
    if max(np.abs(m_single[0]).max(), np.abs(m_int[0]).max()) > 1e-12:
        raise ConfigurationError("generator does not leave the identity invariant")
    # the interaction has no inhomogeneous part
    if np.abs(m_int[1:, 0]).max() > 1e-12 * max(1.0, np.abs(m_int).max()):
        raise ConfigurationError("interaction generator produced a trace-element source")

    a = np.ascontiguousarray(m_single[1:, 1:])
    v = np.ascontiguousarray(m_int[1:, 1:])
    j = np.ascontiguousarray(m_single[1:, 0]) * TRACE_ELEMENT_VALUE

    sign, logdet = np.linalg.slogdet(a)
    if sign == 0 or not np.isfinite(logdet):
        raise ConfigurationError("single-atom generator matrix A is singular")
    return GeneratorSet(A=a, V=v, j=j, cfg=cfg, geom=geom, g=complex(g))

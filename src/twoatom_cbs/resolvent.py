"""Uncoupled resolvent G0(z) = (z - A)^{-1} from the Kronecker structure of A.

A is the 255-block (trace element removed) of the Kronecker sum
M1 (x) 1 + 1 (x) M2 of the two 16x16 single-atom generators.  Written as a
16x16 array X[l, m] (atom-1 index l, atom-2 index m, with the trace entry
X[0, 0] held at zero), (z - A)x = b is the Sylvester equation

    (z - M1) X - X M2^T = B

with the [0, 0] equation dropped.  Row 0 of each M_a vanishes (trace
conservation), so M_a = [[0, 0], [c_a, B_a]].  One complex Schur form per
atom, B1 = U1 T1 U1^H and B2^T = U2 T2 U2^H, makes both factors upper
triangular once the atom-1 trace index is moved last:

    R1 = W1^H M1 W1 = [[T1, U1^H c1], [0, 0]],
    R2 = W2^H M2^T W2 = [[0, c2^T U2], [0, T2]],

and the transformed unknown W1^H X W2 keeps the trace entry, now at
[15, 0], apart from the rest.  The triangular equation is solved column by
column (Bartels-Stewart), each column by back substitution vectorised over
every frequency and right-hand side.  Column 0 is the atom-1 block
(z - B1) s = b_s, row 15 the atom-2 block (z - B2) r = b_r, and the rest
the Sylvester block fed by both, so z = 0 needs no special case.  The
transforms are unitary: the solve has the conditioning of z - A itself,
also near the exceptional points of the single-atom generator where its
eigenvectors are nearly parallel.  The diagonal denominators
R1[i, i] + R2[k, k] are the 255 eigenvalues of A.

The Schur forms need no LAPACK routine.  Each B_a is block diagonal under
one fixed permutation of its 15 basis indices (`BLOCKS`): the driven
|1> <-> |4> Bloch block (4x4, home of the dressed states and of the
exceptional points), four decoupled pairs of coherences (2x2) and three
single entries.  So U_a is that permutation times a block-diagonal unitary
and T_a is block diagonal.  Each block gets its Schur form by deflation:
an eigenvalue from `np.linalg.eigvals`, the null vector of the shifted
block from its SVD, and the Householder reflector that maps the null
vector onto the first axis, which leaves that eigenvalue alone in the
first column; the trailing block is deflated the same way.  Every step
runs once for all blocks of one size of both atoms.  Off-block entries
that are not exactly zero raise ConfigurationError, and a lower triangle
left above rounding level raises ResolventError; there is no fallback.

The static resolvent G0(0) is one fixed operator per configuration: the
steady state applies it six times (three orders, each refined once) and
the spectrum sweep once per block of frequencies.  Its column blocks
S_k = (-R2[k, k] - R1)^{-1} are therefore inverted once, all 16 in one
vectorised back substitution on first use, and a scalar z = 0 solves each
column with one product S_k acc_k instead of a back substitution.  The
sweep's z differ per element, so nothing would be reused there: an array
of z always takes the back substitution.
`matvec` forms A x as M1 X + X M2^T on the same 16x16 arrays: M1 and M2
are the only copy of A a configuration keeps.
"""

from functools import cached_property

import numpy as np

from .basis import N_SINGLE, N_TWO
from .errors import ConfigurationError, ResolventError

#: diagonal blocks of each single-atom block B = M[1:, 1:], as 0-based
#: indices into B: the |1> <-> |4> block, the four coherence pairs it does
#: not drive, and three single entries
BLOCKS = ((0, 1, 3, 4), (5, 10), (6, 9), (7, 11), (8, 12), (2,), (13,), (14,))
_POSITION = np.cumsum([0] + [len(b) for b in BLOCKS])
# the block of each index of B, and the entries of B between two blocks
_BLOCK_OF = np.repeat(np.arange(len(BLOCKS)), np.diff(_POSITION))[
    np.argsort(np.concatenate(BLOCKS))]
_OFF_BLOCK = _BLOCK_OF[:, None] != _BLOCK_OF[None, :]
#: per block size: the blocks' indices in B and their positions in T
_GROUPS = tuple(
    (np.array([b for b in BLOCKS if len(b) == size]),
     np.array([np.arange(p, p + size) for b, p in zip(BLOCKS, _POSITION) if len(b) == size]))
    for size in sorted({len(b) for b in BLOCKS})
)
#: lower triangles at most this multiple of eps |B| count as deflated (the
#: largest seen is 1.9, over Omega 0.1-100, delta 0 to 80, two gammas and
#: three laser phases)
_DEFLATION_TOLERANCE = 64.0


def _deflate(a):
    """Complex Schur forms a = u t u^H of a stack of n x n matrices.

    One deflation per level for the whole stack: an eigenvalue of the
    trailing block, the null vector of the shifted block (last right
    singular vector), and the Householder reflector h = 1 - 2 w w^H with
    h v = alpha e_0.  Returns t with its rounding-level lower triangle
    still in place, for the caller to check.
    """
    t = a.astype(complex)
    n = t.shape[-1]
    u = np.broadcast_to(np.eye(n, dtype=complex), t.shape).copy()
    for k in range(n - 1):
        sub = t[:, k:, k:]
        lam = np.linalg.eigvals(sub)[:, :1, None]
        v = np.linalg.svd(sub - lam * np.eye(n - k))[2][:, -1].conj()
        # alpha = -|v| v_0 / |v_0| with |v| = 1: no cancellation in w_0
        w = v.copy()
        w[:, 0] += np.exp(1j * np.angle(v[:, 0]))
        w /= np.linalg.norm(w, axis=-1, keepdims=True)
        h = np.eye(n - k) - 2.0 * w[:, :, None] * w[:, None, :].conj()
        t[:, k:] = h @ t[:, k:]
        t[:, :, k:] = t[:, :, k:] @ h
        u[:, :, k:] = u[:, :, k:] @ h
    return t, u


def block_schur(b):
    """Complex Schur forms b[a] = u[a] t[a] u[a]^H of a stack of single-atom blocks.

    `b` has shape (count, 15, 15), each block diagonal under `BLOCKS`.
    u is the permutation times a block-diagonal unitary, t block diagonal
    and upper triangular.
    """
    if np.any(b[:, _OFF_BLOCK]):
        raise ConfigurationError(
            "single-atom generator is not block diagonal under resolvent.BLOCKS")
    t = np.zeros(b.shape, dtype=complex)
    u = np.zeros(b.shape, dtype=complex)
    for rows, pos in _GROUPS:
        sub = b[:, rows[:, :, None], rows[:, None, :]]
        ts, us = _deflate(sub.reshape((-1,) + sub.shape[-2:]))
        t[:, pos[:, :, None], pos[:, None, :]] = ts.reshape(sub.shape)
        u[:, rows[:, :, None], pos[:, None, :]] = us.reshape(sub.shape)
    scale = np.linalg.norm(b, axis=(1, 2))
    lower = np.abs(np.tril(t, -1)).max(axis=(1, 2))
    if np.any(lower > _DEFLATION_TOLERANCE * np.finfo(float).eps * scale):
        raise ResolventError(
            f"Schur deflation left a lower triangle of {lower.max():.3e} "
            f"(|B| = {scale.max():.3e})")
    return np.triu(t), u


class KroneckerResolvent:
    """(z - A)^{-1} for A = the 255-block of M1 (x) 1 + 1 (x) M2.

    Built once per configuration from the two 16x16 single-atom generators;
    `solve` then serves any z, including z = 0, for a batch of frequencies
    and right-hand sides in one call.  A scalar z = 0 goes through the
    cached static inverses.
    """

    def __init__(self, m1, m2):
        n = N_SINGLE
        self.m1, self.m2 = m1, m2
        (t1, t2), (u1, u2) = block_schur(np.stack([m1[1:, 1:], m2[1:, 1:].T]))
        self._w1 = np.zeros((n, n), dtype=complex)
        self._w1[1:, :-1] = u1
        self._w1[0, -1] = 1.0
        self._w2 = np.zeros((n, n), dtype=complex)
        self._w2[0, 0] = 1.0
        self._w2[1:, 1:] = u2
        self._r1 = np.zeros((n, n), dtype=complex)
        self._r1[:-1, :-1] = t1
        self._r1[:-1, -1] = u1.conj().T @ m1[1:, 0]
        self._r2 = np.zeros((n, n), dtype=complex)
        self._r2[1:, 1:] = t2
        self._r2[0, 1:] = m2[1:, 0] @ u2
        # poles[k, i] = R1[i, i] + R2[k, k], indexed like the unknown
        self._poles = np.diag(self._r2)[:, None] + np.diag(self._r1)[None, :]

    @cached_property
    def _static_inverses(self):
        """S[k] = (-R2[k, k] - R1)^{-1}, the column blocks of G0(0).

        All 16 upper-triangular inverses come from one back substitution,
        vectorised over the columns k and the 16 unit right-hand sides.
        Column 0 inverts the 15x15 block above the trace entry: its row and
        column 15 stay zero (zero right-hand side, unit denominator).
        Built on first use, so `assemble` rejects a singular A before any
        division.
        """
        n = N_SINGLE
        r1 = self._r1
        den = -self._poles
        den[0, -1] = 1.0
        eye = np.broadcast_to(np.eye(n, dtype=complex), (n, n, n)).copy()
        eye[0, -1, -1] = 0.0
        s = np.zeros((n, n, n), dtype=complex)  # [k, i, column]
        for i in range(n - 1, -1, -1):
            s[:, i] = (eye[:, i] + r1[i, i + 1:] @ s[:, i + 1:]) / den[:, i, None]
        return s

    @property
    def eigenvalues(self):
        """The 255 eigenvalues of A: t1_i, t2_k and t1_i + t2_k."""
        mask = np.ones(self._poles.shape, dtype=bool)
        mask[0, -1] = False  # the trace entry
        return self._poles[mask]

    def matvec(self, x):
        """A x for `x` of shape (..., 255): M1 X + X M2^T with X[0, 0] = 0."""
        x = np.asarray(x, dtype=complex)
        full = np.zeros(x.shape[:-1] + (N_TWO,), dtype=complex)
        full[..., 1:] = x
        big = full.reshape(x.shape[:-1] + (N_SINGLE, N_SINGLE))
        y = self.m1 @ big + big @ self.m2.T
        return y.reshape(full.shape)[..., 1:]

    def solve(self, z, rhs):
        """x = (z - A)^{-1} rhs.

        `rhs` has shape (..., 255); `z` is a scalar or an array that
        broadcasts against rhs.shape[:-1], so a column of frequencies
        (nz, 1) against a stack (k, 255) solves every pair at once.  The
        result has the broadcast batch shape plus (255,).
        """
        z = np.asarray(z, dtype=complex)
        rhs = np.asarray(rhs, dtype=complex)
        batch = np.broadcast_shapes(z.shape, rhs.shape[:-1])
        zb = np.broadcast_to(z, batch).reshape(-1)
        n, nb = N_SINGLE, zb.size
        # work arrays are [k, i, batch]: column k of the unknown is contiguous
        b = np.zeros((N_TWO, nb), dtype=complex)
        b[1:] = np.broadcast_to(rhs, batch + rhs.shape[-1:]).reshape(nb, -1).T
        half = self._w1.conj().T @ b.reshape(n, n, nb).transpose(1, 0, 2)
        acc = (self._w2.T @ half.reshape(n, -1)).reshape(n, n, nb)

        r1, r2 = self._r1, self._r2
        static = self._static_inverses if z.ndim == 0 and z == 0 else None
        x = np.zeros_like(acc)
        for k in range(n):
            if k:
                acc[k] += (r2[:k, k] @ x[:k].reshape(k, -1)).reshape(n, nb)
            if static is not None:
                x[k] = static[k] @ acc[k]
                continue
            den = zb - self._poles[k, :, None]
            # the trace entry x[0, 15] stays zero: column 0 starts a row up
            for i in range(n - 2 if k == 0 else n - 1, -1, -1):
                x[k, i] = (acc[k, i] + r1[i, i + 1:] @ x[k, i + 1:]) / den[i]

        half = (self._w2.conj() @ x.reshape(n, -1)).reshape(n, n, nb)
        out = (self._w1 @ half).transpose(1, 0, 2).reshape(N_TWO, nb)
        return out[1:].T.reshape(batch + (N_TWO - 1,))

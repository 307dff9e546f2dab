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

and the transformed unknown Y = W1^H X W2 keeps the trace entry, now at
Y[15, 0], apart from the rest.  The triangular equation is solved column by
column (Bartels-Stewart).  Column 0 is the atom-1 block (z - B1) s = b_s,
row 15 the atom-2 block (z - B2) r = b_r, and the rest the Sylvester block
fed by both, so z = 0 needs no special case: the trace entry's right-hand
side is exactly zero, and it gets a unit denominator in place of its pole
at 0.  The transforms are unitary: the solve has the conditioning of z - A
itself, also near the exceptional points of the single-atom generator
where its eigenvectors are nearly parallel.  The diagonal denominators
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

U_a also fixes a level-major order of the Schur positions: T_a holds the
first row of all 8 blocks, then the second row of the 5 blocks that have
one, then the third and the fourth row of the Bloch block.  A row couples
only to deeper rows of its own block, so T_a stays upper triangular and no
two rows of one level are coupled.  The triangular solve therefore steps
through slices, not single unknowns: the rows of R1 fall into five slices
in back-substitution order, [15] (the trace), [14], [13], [8:13], [0:8]
(`ROW_SLICES`), and the columns of R2 into five in forward order, [0],
[1:9], [9:14], [14], [15] (`COLUMN_SLICES`).  Each slice is one step
vectorised over every frequency and right-hand side: 25 steps per solve.

The static resolvent G0(0) is one fixed operator per configuration: the
steady state applies it six times (three orders, each refined once).  Its
column blocks S_k = (-R2[k, k] - R1)^{-1} are therefore inverted once, all
16 in five row-slice steps on first use, and a scalar z = 0 solves each
column slice with one product S_k acc_k instead of a back substitution.
The spectrum sweep's z differ per element, so nothing would be reused
there: an array of z always takes the slice-wise back substitution.

`solve` takes right-hand sides into Schur coordinates C = W1^H B W2
(`_to_schur`) before they are broadcast against z, solves the triangular
equation (`_solve_schur`) and goes back to the packed basis
(`_from_schur`); each stage is its own call, so its temporaries are freed
before the next one runs.  `matvec` forms A x as M1 X + X M2^T on the
same 16x16 arrays: M1 and M2 are the only copy of A a configuration keeps.

One resolvent can hold a stack of configurations, as a drive sweep does:
m1 and m2 then have shape C + (16, 16), and W, R, the poles and the static
inverses carry the configuration axes C in front.  One `block_schur` call
covers all 2 C single-atom blocks, and `solve`, `matvec` and `eigenvalues`
run over C in one call; right-hand sides have shape C + batch + (255,).
The spectrum sweep (an array of z) serves one configuration at a time.
"""

import math
from functools import cached_property

import numpy as np

from .basis import N_SINGLE, N_TWO
from .errors import ConfigurationError, ResolventError

#: diagonal blocks of each single-atom block B = M[1:, 1:], as 0-based
#: indices into B: the |1> <-> |4> block, the four coherence pairs it does
#: not drive, and three single entries
BLOCKS = ((0, 1, 3, 4), (5, 10), (6, 9), (7, 11), (8, 12), (2,), (13,), (14,))
_SIZES = np.array([len(b) for b in BLOCKS])
# the block of each index of B, and the entries of B between two blocks
_BLOCK_OF = np.repeat(np.arange(len(BLOCKS)), _SIZES)[np.argsort(np.concatenate(BLOCKS))]
_OFF_BLOCK = _BLOCK_OF[:, None] != _BLOCK_OF[None, :]
#: level-major Schur order: T holds the first row of every block, then the
#: second row of every block that has one, and so on; level d fills the
#: positions _LEVELS[d]:_LEVELS[d + 1] of T (8, 5, 1 and 1 of them)
_LEVELS = np.cumsum([0] + [int(np.sum(_SIZES > d)) for d in range(_SIZES.max())])
#: the positions in T of each block's rows, in the block's Schur order
_PLACES = tuple(
    _LEVELS[:size] + np.sum(_SIZES[:b, None] > np.arange(size), axis=0)
    for b, size in enumerate(_SIZES)
)
#: per block size: the blocks' indices in B and their positions in T
_GROUPS = tuple(
    (np.array([b for b in BLOCKS if len(b) == size]),
     np.array([p for b, p in zip(BLOCKS, _PLACES) if len(b) == size]))
    for size in sorted({len(b) for b in BLOCKS})
)
_LEVEL_SLICES = [slice(int(a), int(b)) for a, b in zip(_LEVELS[:-1], _LEVELS[1:])]
#: rows of R1 in back-substitution order: the atom-1 trace, then the levels
#: deepest first.  No two rows of one slice are coupled.
ROW_SLICES = (slice(N_SINGLE - 1, N_SINGLE),) + tuple(reversed(_LEVEL_SLICES))
#: columns of R2 in forward order: the atom-2 trace, then the levels (T2
#: sits one position down).  No two columns of one slice are coupled.
COLUMN_SLICES = (slice(0, 1),) + tuple(slice(s.start + 1, s.stop + 1) for s in _LEVEL_SLICES)
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
    The Schur positions are level-major (`_PLACES`): u is a permutation
    times a block-diagonal unitary, and t is upper triangular with every
    row coupled only to deeper rows of its own block.
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

    Built once per configuration, or once for a stack of configurations,
    from the single-atom generators m1, m2 of shape C + (16, 16): C is the
    configuration shape `shape`, () for one configuration.  `solve` then
    serves any z, including z = 0, for a batch of frequencies and right-hand
    sides in one call.  A scalar z = 0 goes through the cached static
    inverses.  Schur coordinates are arrays y[..., k, i, ...]: the
    configuration axes, column k and row i of Y = W1^H X W2, then the batch
    axes.
    """

    def __init__(self, m1, m2):
        n = N_SINGLE
        self.m1, self.m2 = m1, m2
        self.shape = m1.shape[:-2]
        # one stack of all 2 C single-atom blocks: B1 of every configuration,
        # then B2^T of every configuration
        blocks = np.concatenate([m1[..., 1:, 1:].reshape(-1, n - 1, n - 1),
                                 m2[..., 1:, 1:].swapaxes(-1, -2).reshape(-1, n - 1, n - 1)])
        t, u = block_schur(blocks)
        t1, t2 = t.reshape((2,) + self.shape + t.shape[1:])
        u1, u2 = u.reshape((2,) + self.shape + u.shape[1:])
        self._w1 = np.zeros(self.shape + (n, n), dtype=complex)
        self._w1[..., 1:, :-1] = u1
        self._w1[..., 0, -1] = 1.0
        self._w2 = np.zeros(self.shape + (n, n), dtype=complex)
        self._w2[..., 0, 0] = 1.0
        self._w2[..., 1:, 1:] = u2
        self._r1 = np.zeros(self.shape + (n, n), dtype=complex)
        self._r1[..., :-1, :-1] = t1
        self._r1[..., :-1, -1] = (u1.conj().swapaxes(-1, -2) @ m1[..., 1:, 0, None])[..., 0]
        self._r2 = np.zeros(self.shape + (n, n), dtype=complex)
        self._r2[..., 1:, 1:] = t2
        self._r2[..., 0, 1:] = (m2[..., None, 1:, 0] @ u2)[..., 0, :]
        # poles[..., k, i] = R1[i, i] + R2[k, k], indexed like the unknown
        diag1, diag2 = (np.diagonal(r, axis1=-2, axis2=-1) for r in (self._r1, self._r2))
        self._poles = diag2[..., :, None] + diag1[..., None, :]

    @cached_property
    def _static_inverses(self):
        """S[..., k] = (-R2[k, k] - R1)^{-1}, the column blocks of G0(0).

        All 16 upper-triangular inverses of every configuration come from
        one back substitution over `ROW_SLICES`, vectorised over the
        configurations, the columns k and the 16 unit right-hand sides: the
        diagonal is 1 / den, and each row slice adds its off-diagonal part
        in place, with one temporary per step (for 41 configurations 2.5x
        faster than adding a unit matrix to the product).
        Column 0 inverts the 15x15 block above the trace entry: its row and
        column 15 stay zero (zero right-hand side, unit denominator).  Built
        on first use, so `assemble` rejects a singular A before any division.
        """
        n = N_SINGLE
        den = -self._poles
        den[..., 0, -1] = 1.0
        s = np.zeros(self.shape + (n, n, n), dtype=complex)  # [..., k, i, column]
        diagonal = np.arange(n)
        s[..., diagonal, diagonal] = 1.0 / den
        s[..., 0, -1, -1] = 0.0
        # the first slice, the trace row, has nothing to its right
        for rows in ROW_SLICES[1:]:
            block = self._r1[..., None, rows, rows.stop:] @ s[..., rows.stop:, :]
            block /= den[..., rows, None]
            s[..., rows, :] += block
        return s

    @property
    def eigenvalues(self):
        """The 255 eigenvalues of A per configuration: t1_i, t2_k and t1_i + t2_k."""
        mask = np.ones(self._poles.shape[-2:], dtype=bool)
        mask[0, -1] = False  # the trace entry
        return self._poles[..., mask]

    def matvec(self, x):
        """A x for `x` of shape C + batch + (255,): M1 X + X M2^T with X[0, 0] = 0."""
        x = np.asarray(x, dtype=complex)
        n = N_SINGLE
        full = np.zeros(x.shape[:-1] + (N_TWO,), dtype=complex)
        full[..., 1:] = x
        big = full.reshape(x.shape[:-1] + (n, n))
        # the factors broadcast over the batch axes that follow C
        factor = self.shape + (1,) * (x.ndim - 1 - len(self.shape)) + (n, n)
        y = self.m1.reshape(factor) @ big + big @ self.m2.reshape(factor).swapaxes(-1, -2)
        return y.reshape(full.shape)[..., 1:]

    def _to_schur(self, rhs):
        """Schur coordinates C = W1^H B W2 of `rhs` of shape C + batch + (255,).

        Returned as c[..., k, i, batch]: the configuration axes, then column
        k of C, then the batch axes of rhs.  The trace entry c[..., 0, 15]
        is exactly zero.
        """
        rhs = np.asarray(rhs, dtype=complex)
        n, lead = N_SINGLE, self.shape
        batch = rhs.shape[len(lead):-1]
        b = np.zeros(lead + (N_TWO, math.prod(batch)), dtype=complex)
        b[..., 1:, :] = rhs.reshape(lead + (-1, N_TWO - 1)).swapaxes(-1, -2)
        x = b.reshape(lead + (n, n, -1)).swapaxes(-3, -2)  # [..., m, l, batch]
        half = self._w1.conj().swapaxes(-1, -2)[..., None, :, :] @ x
        c = self._w2.swapaxes(-1, -2) @ half.reshape(lead + (n, -1))
        return c.reshape(lead + (n, n) + batch)

    def _solve_schur(self, z, c):
        """Y with (z - R1) Y - Y R2 = C, in the Schur coordinates of `_to_schur`.

        `z` is a scalar or an array that broadcasts against the batch axes of
        c (after C and the two Schur axes); the result has shape C + (16, 16)
        plus the broadcast batch shape.  Columns go forward over
        `COLUMN_SLICES`, each fed by the columns before it, and within each
        column slice the rows go back over `ROW_SLICES`: 25 vectorised steps
        for every frequency and right-hand side at once.  A scalar z = 0
        takes one product with the static inverses per column slice instead.
        """
        z = np.asarray(z, dtype=complex)
        n, lead = N_SINGLE, self.shape
        c_batch = c.shape[len(lead) + 2:]
        batch = np.broadcast_shapes(z.shape, c_batch)
        acc = np.empty(lead + (n, n) + batch, dtype=complex)
        # c's batch axes follow its Schur axes: align them with batch's tail
        acc[...] = c.reshape(lead + (n, n) + (1,) * (len(batch) - len(c_batch)) + c_batch)
        acc = acc.reshape(lead + (n, n, -1))  # [..., k, i, batch]: column k is contiguous
        x = np.empty_like(acc)
        r1, r2 = self._r1, self._r2
        static = self._static_inverses if z.ndim == 0 and z == 0 else None
        if static is None:
            den = np.broadcast_to(z, batch).reshape(-1) - self._poles[..., None]
            den[..., 0, -1, :] = 1.0  # the trace entry x[0, 15]: its c is exactly 0
        for cols in COLUMN_SLICES:
            k = cols.start
            if k:
                # one statement: a product held in a name outlives it, and the
                # row loop's temporaries then take fresh pages (a 32 x 4 sweep
                # block solved about 10% slower on a 2-core VM)
                acc[..., cols, :, :] += (r2[..., :k, cols].swapaxes(-1, -2)
                                         @ x[..., :k, :, :].reshape(lead + (k, -1))
                                         ).reshape(acc[..., cols, :, :].shape)
            if static is not None:
                x[..., cols, :, :] = static[..., cols, :, :] @ acc[..., cols, :, :]
                continue
            for rows in ROW_SLICES:
                x[..., cols, rows, :] = ((acc[..., cols, rows, :] + r1[..., None, rows, rows.stop:]
                                          @ x[..., cols, rows.stop:, :]) / den[..., cols, rows, :])
        return x.reshape(lead + (n, n) + batch)

    def _from_schur(self, y):
        """x = W1 Y W2^H back in the packed basis, shape C + batch + (255,)."""
        n, lead = N_SINGLE, self.shape
        batch = y.shape[len(lead) + 2:]
        half = (self._w2.conj() @ y.reshape(lead + (n, -1))).reshape(lead + (n, n, -1))
        out = (self._w1[..., None, :, :] @ half).swapaxes(-3, -2).reshape(lead + (N_TWO, -1))
        return out[..., 1:, :].swapaxes(-1, -2).reshape(lead + batch + (N_TWO - 1,))

    def solve(self, z, rhs):
        """x = (z - A)^{-1} rhs.

        `rhs` has shape C + batch + (255,), C the configuration shape; `z`
        is a scalar or an array that broadcasts against batch, so a column
        of frequencies (nz, 1) against a stack (k, 255) solves every pair at
        once.  The result has shape C + the broadcast batch shape + (255,).
        The right-hand sides enter Schur coordinates before they are
        broadcast against z.
        """
        return self._from_schur(self._solve_schur(z, self._to_schur(rhs)))

"""Uncoupled resolvent G0(z) = (z - A)^{-1}: tile solves at z = 0 and a
Schur-coordinate substitution for frequency sweeps.

A is the 255-block (trace element removed) of the Kronecker sum
M1 (x) 1 + 1 (x) M2 of the two 16x16 single-atom generators.  Written as a
16x16 array X[l, m] (atom-1 index l, atom-2 index m, the trace entry X[0, 0]
held at zero), (z - A)x = b is (z - M1) X - X M2^T = B without the [0, 0]
equation.  Row 0 of M_a vanishes (trace conservation), and B_a = M_a[1:, 1:]
is block diagonal under one fixed partition of its indices (`BLOCKS`): the
driven |1> <-> |4> Bloch block (4x4), four coherence pairs and three single
entries.  With the trace as a group of its own, the 9 `GROUPS` cut X into 80
tiles X[P, Q], (p, q) != (0, 0).  A tile couples to itself through the dense
block z - (a_p (x) 1 + 1 (x) b_q) of at most 16x16, a_p = M1[P, P] and
b_q = M2[Q, Q] (a_0 = b_0 = 0), and to nothing else but its feeders:

- a level-1 tile (0, q) or (p, 0) stands alone;
- a level-2 tile (p, q), p, q >= 1, is fed by (0, q) and (p, 0) through the
  columns c_a = M_a[:, 0]: its right-hand side is B + c1 X[0, :] + X[:, 0] c2^T.

So z - A is block triangular (block LU: Golub and Van Loan, Matrix
Computations).  `KroneckerResolvent.solve` applies G0(0) = -A^{-1}, the
stationary state's static solves, in two passes of small dense solves, one
`np.linalg.solve` per level and tile dimension, batched over the tiles and
the configurations C, with the right-hand sides as the columns of one
factorization per tile; 1x1 and 2x2 tiles take closed forms.  Rounding stays
inside each tile, so no refinement step is needed.  Each call forms the
tiles of -A it visits from M1 and M2 and factors them; none is kept between
calls, and a spectrum, which never solves at z = 0, forms none.  Explicit
inverses and unitary rotations both lose digits that the weak-drive
intensities, differences of nearly equal terms, need.  `eigenvalues`, the
constructor's singularity check, takes A's eigenvalues as sums of the
groups' eigenvalues, in closed form for the 1x1 and 2x2 groups.

`KroneckerResolvent.sweep` reads rows . G0(z) . rhs over a 1-D array of
frequencies with nothing factored per frequency (Bartels and Stewart,
CACM 15 (1972) 820, applied per block).  Once per call it takes a
block-diagonal unitary Schur basis Q_a of each M_a over `GROUPS`, so that
T_a = Q_a^H M_a Q_a is upper triangular inside every group and keeps the
feeds Q_a^H c_a in column 0: closed forms for the four coherence pairs, and
for the Bloch block deflation (an eigenpair of the trailing block and a
Householder reflector, twice) ahead of the closed form.  In the coordinates
Y = Q1^H X conj(Q2) the equation is z Y - T1 Y - Y T2^T = Q1^H B conj(Q2),
so each entry is (z - T1[l, l] - T2[m, m])^{-1} times its right-hand side
plus at most 8 entries solved before it: the later ones of its row and
column inside its tile, and its two feeds.  The entries fall into at most 8
dependency waves, Y[l, m] into wave later(l) + later(m), plus 1 in a
level-2 tile, later(i) the indices after i in its group; each wave is one
gather, multiply-add and division over a block of frequencies.  The rows
and right-hand sides are rotated once per call, and Schur coordinates never
leave this module.

Callers speak packed positions only; tile masks never leave this module.
`needed` gives the packed entries of the tiles a solve must visit to read
given entries: their own and the feeders of the level-2 ones.  `solve`
visits the tiles of the entries it is given and `sweep` those of its rows'
non-zero columns, each with their feeders.  Each plan, the solve's tile
groups and the sweep's waves, is built once per process from the caller's
entries or row support, as every `assemble` builds a new resolvent.
"""

from functools import lru_cache

import numpy as np

from .basis import N_SINGLE, N_TWO
from .errors import ConfigurationError, ResolventError

#: diagonal blocks of each single-atom block B = M[1:, 1:], as 0-based
#: indices into B: the |1> <-> |4> block, the four coherence pairs it does
#: not drive, and three single entries
BLOCKS = ((0, 1, 3, 4), (5, 10), (6, 9), (7, 11), (8, 12), (2,), (13,), (14,))
#: single-atom index groups of M: the trace, then BLOCKS
GROUPS = ((0,),) + tuple(tuple(i + 1 for i in b) for b in BLOCKS)
#: the group of each single-atom index
GROUP_OF = np.repeat(np.arange(len(GROUPS)), [len(g) for g in GROUPS])[np.argsort(sum(GROUPS, ()))]
# later(i): how many indices follow the single-atom index i in its group
_LATER = np.concatenate([np.arange(len(g))[::-1] for g in GROUPS])[np.argsort(sum(GROUPS, ()))]
_OFF_BLOCK = GROUP_OF[1:, None] != GROUP_OF[None, 1:]
_MASK_SHAPE = (len(GROUPS),) * 2
# the tile [p, q] of each packed position n - 1, n = 16 l + m
_TILE_OF = tuple(GROUP_OF[np.array(np.divmod(np.arange(1, N_TWO), N_SINGLE))])
# the entries of T_a = Q_a^H M_a Q_a below the diagonal of a group, zero in
# exact arithmetic
_LOWER = np.tril(GROUP_OF[:, None] == GROUP_OF[None, :], -1)
# frequencies per block of a sweep.  A block holds the solved entries,
# (84 + 1, 2, block) complex for the spectrum, and each wave costs three
# numpy operations per block, which larger blocks amortize.  Measured on a
# 2-core VM, in process, medians of 30 interleaved rounds at blocks of
# 32/64/128: the four spectra-wide grids (1002 points) took 9.7/8.4/7.8 ms
# and six 81-point spectra 9.1/8.6/8.0 ms, while the resident memory after
# a 521-point spectrum was 35.6/36.0/36.6 MB: larger blocks leave more of
# glibc's heap behind
_BLOCK = 64
# a Schur basis is accepted when T_a's lower triangle and the residual
# ||Q_a T_a Q_a^H - B_a|| stay below this many eps ||B_a|| (Frobenius).
# Over 772 drives (Omega from 1e-8 to 1e12, exceptional points included) at
# three laser phases, the largest was 5.8 eps ||B_a||; a broken basis misses
# by orders of magnitude more
_SCHUR_TOL = 64


# the 1x1 groups (the trace first), the 2x2 coherence pairs as (first
# indices, second indices), and the 4x4 Bloch block, as indices into M
_SINGLES = np.array([g[0] for g in GROUPS if len(g) == 1])
_PAIRS = np.array([g for g in GROUPS if len(g) == 2]).T
_BLOCH = np.ix_(GROUPS[1], GROUPS[1])
# the 2x2 blocks the Schur bases take in closed form: the four coherence
# pairs and the last two indices of the deflated Bloch block, as indices
_TWO_BY_TWO = np.concatenate([_PAIRS.T, [GROUPS[1][-2:]]])
_TWO_BY_TWO = _TWO_BY_TWO[:, :, None], _TWO_BY_TWO[:, None, :]


def _solve2(m, r):
    """Cramer's rule for a stack of 2x2 systems, forward stable at this size
    (Higham, Accuracy and Stability of Numerical Algorithms)."""
    a, b, c, d = (m[..., i, j, None] for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)))
    r0, r1 = r[..., 0, :], r[..., 1, :]
    return np.stack([d * r0 - b * r1, a * r1 - c * r0], axis=-2) / (a * d - b * c)[..., None, :]


def _closure(columns):
    """Mask [p, q] of the tiles holding the packed `columns` (indices or a
    boolean array over the 255 positions) and the level-1 feeders of the
    level-2 ones.  No packed position lies in the trace tile (0, 0)."""
    mask = np.zeros(_MASK_SHAPE, dtype=bool)
    mask[_TILE_OF[0][columns], _TILE_OF[1][columns]] = True
    mask[1:, 0] |= mask[1:, 1:].any(axis=1)
    mask[0, 1:] |= mask[1:, 1:].any(axis=0)
    return mask


def needed(columns):
    """Sorted, read-only packed entries of the tiles a solve read at packed
    `columns` needs: the tiles holding them, and the level-1 feeders of the
    level-2 ones."""
    entries = np.flatnonzero(_closure(np.asarray(columns))[_TILE_OF])
    entries.setflags(write=False)
    return entries


@lru_cache(maxsize=64)
def _solve_plan(key):
    """The groups of tiles a solve of the packed entries `key` (the bytes of
    an intp array) visits, their closure, one per level and tile dimension,
    as (level, flat, l, m, a_p, b_q): l, m and flat = 16 l + m are the
    entries X[l, m] of the group's tiles [tile, entry], in row-major (p, q)
    order, and a_p, b_q index the tiles' blocks a_p (x) 1 and 1 (x) b_q
    [tile, row, column] as (M1 indices, M2 indices, Kronecker factor 1 of
    each).  Each entry set is planned once per process, whichever resolvent
    solves it."""
    groups = {}
    for p, q in np.argwhere(_closure(np.frombuffer(key, dtype=np.intp))):
        l, m = np.broadcast_arrays(np.array(GROUPS[p])[:, None], np.array(GROUPS[q]))
        groups.setdefault((1 + bool(p and q), l.size), []).append((l.ravel(), m.ravel()))
    plan = []
    for (level, _), tiles in sorted(groups.items()):
        l, m = np.array(tiles).swapaxes(0, 1)
        plan.append((level, l * N_SINGLE + m, l, m,
                     (l[:, :, None], l[:, None, :], m[:, :, None] == m[:, None, :]),
                     (m[:, :, None], m[:, None, :], l[:, :, None] == l[:, None, :])))
    return tuple(plan)


@lru_cache(maxsize=64)
def _wave_plan(key):
    """The substitution a sweep runs for rows of the packed support `key`
    (the bytes of a boolean array [255]), on the closure of its tiles, as
    (flat, diagonal, waves).  `flat` = 16 l + m are the entries Y[l, m] of
    those tiles, ordered by wave; `diagonal` indexes T1[l, l] and T2[m, m]
    in the stacked, raveled (T1, T2).  Each wave is (start, stop, deps,
    coefficients): its entries start:stop, the positions of the at most 8
    entries each of them reads, padded with the zero slot past the last
    entry, and the indices of their coefficients in (T1, T2)."""
    grid = _closure(np.frombuffer(key, dtype=bool))[GROUP_OF[:, None], GROUP_OF[None, :]]
    entries = [tuple(e) for e in np.argwhere(grid)]
    # the entries Y[l, m] reads: through T1[l, k] the entries (k, m) after
    # it in its group and the feed (0, m); through T2[m, k] likewise
    reads = {}
    for l, m in entries:
        reads[l, m] = ([((k, m), l * N_SINGLE + k) for k in GROUPS[GROUP_OF[l]] if k > l]
                       + [((l, k), N_TWO + m * N_SINGLE + k) for k in GROUPS[GROUP_OF[m]] if k > m]
                       + ([((0, m), l * N_SINGLE), ((l, 0), N_TWO + m * N_SINGLE)] if l and m else []))
    # each entry's wave is the longest chain of reads it starts: later(l) +
    # later(m) steps to the last entry of its tile, and one more to a feed
    # for a level-2 tile
    wave = {(l, m): _LATER[l] + _LATER[m] + bool(l and m) for l, m in entries}
    order = sorted(entries, key=lambda e: (wave[e], e))
    position = {e: i for i, e in enumerate(order)}
    flat = np.array([l * N_SINGLE + m for l, m in order], dtype=int)
    diagonal = np.array([[l * (N_SINGLE + 1), N_TWO + m * (N_SINGLE + 1)] for l, m in order],
                        dtype=int).reshape(-1, 2)
    waves, start = [], 0
    for w in range(max(wave.values(), default=-1) + 1):
        stop = start + sum(1 for e in order if wave[e] == w)
        width = max(len(reads[e]) for e in order[start:stop])
        deps = np.full((stop - start, width), len(order))
        coefficients = np.zeros((stop - start, width), dtype=int)
        for i, e in enumerate(order[start:stop]):
            for j, (dep, coefficient) in enumerate(reads[e]):
                deps[i, j], coefficients[i, j] = position[dep], coefficient
        waves.append((start, stop, deps, coefficients))
        start = stop
    return flat, diagonal, tuple(waves)


def _schur2(b):
    """Unitary U with U^H b U upper triangular, for a stack of 2x2 `b`, in
    closed form.  Its first column is the unit eigenvector (h + s, c) of the
    eigenvalue (a + d)/2 + s, h = (a - d)/2 and s = sqrt(h^2 + bc) with the
    sign that keeps h + s free of cancellation, so that U tends to the
    identity as c does; (1, 0) where that vector vanishes, b already upper
    triangular."""
    a, b01, c, d = b[..., 0, 0], b[..., 0, 1], b[..., 1, 0], b[..., 1, 1]
    h = 0.5 * (a - d)
    s = np.sqrt(h * h + b01 * c)
    x = h + np.where((h.conj() * s).real < 0, -s, s)
    norm = np.hypot(np.abs(x), np.abs(c))
    vanishes = norm == 0
    norm[vanishes] = 1.0
    x, y = np.where(vanishes, 1.0, x / norm), c / norm
    u = np.empty(b.shape, dtype=complex)
    u[..., 0, 0], u[..., 1, 0], u[..., 0, 1], u[..., 1, 1] = x, y, -y.conj(), x.conj()
    return u


def _reflector(v):
    """Householder reflector H = H^H = H^{-1} whose first column is a unit
    multiple of the unit vector `v`, for a stack of them: w = v + e0 v0/|v0|
    leaves no cancellation in w0."""
    v0 = v[..., :1]
    w = v.copy()
    w[..., :1] += np.where(v0 != 0, v0 / np.where(v0 != 0, np.abs(v0), 1.0), 1.0)
    scale = 2.0 / np.sum(np.abs(w) ** 2, axis=-1)[..., None, None]
    return np.eye(v.shape[-1]) - scale * w[..., :, None] * w[..., None, :].conj()


def _grid(x):
    """The vectors x [..., 255] as 16x16 arrays X [n, 16, 16], n the product
    of the leading axes, with the trace entry X[0, 0] = 0."""
    full = np.zeros((int(np.prod(x.shape[:-1])), N_TWO), dtype=complex)
    full[:, 1:] = x.reshape(-1, N_TWO - 1)
    return full.reshape(-1, N_SINGLE, N_SINGLE)


def _rotate(q, m):
    """Q^H m Q for stacks of matrices."""
    return q.conj().swapaxes(-1, -2) @ m @ q


def _schur_bases(m):
    """Block-diagonal unitary Q and T = Q^H m Q for the stacked single-atom
    generators `m` [atom, 16, 16], T upper triangular inside every group of
    GROUPS.  A basis that misses its tolerance raises ResolventError."""
    # the Bloch block: deflate two eigenpairs, each the one whose eigenvalue
    # is nearest the diagonal entry it replaces, so that the basis stays
    # near the identity where the drive is weak
    b = m[:, _BLOCH[0], _BLOCH[1]]
    atoms = np.arange(len(b))
    u = np.array(np.broadcast_to(np.eye(len(b[0]), dtype=complex), b.shape))
    for k in range(len(b[0]) - 2):
        t = _rotate(u, b)
        eigenvalues, eigenvectors = np.linalg.eig(t[:, k:, k:])
        nearest = np.abs(eigenvalues - t[:, k, k, None]).argmin(axis=-1)
        u[:, :, k:] = u[:, :, k:] @ _reflector(eigenvectors[atoms, :, nearest])
    eye = np.broadcast_to(np.eye(N_SINGLE, dtype=complex), m.shape)
    q, v = np.array(eye), np.array(eye)
    q[:, _BLOCH[0], _BLOCH[1]] = u
    # then the closed form, at once for the four coherence pairs and the
    # last two indices of the Bloch block
    v[:, _TWO_BY_TWO[0], _TWO_BY_TWO[1]] = _schur2(_rotate(q, m)[:, _TWO_BY_TWO[0], _TWO_BY_TWO[1]])
    q = q @ v
    t = _rotate(q, m)
    lower = np.where(_LOWER, t, 0.0)
    residual = (q @ (t - lower) @ q.conj().swapaxes(-1, -2) - m)[:, 1:, 1:]
    error = np.maximum(np.linalg.norm(lower, axis=(-2, -1)), np.linalg.norm(residual, axis=(-2, -1)))
    scale = _SCHUR_TOL * np.finfo(float).eps * np.linalg.norm(m[:, 1:, 1:], axis=(-2, -1))
    if not np.all(error <= scale):
        raise ResolventError(
            f"Schur basis of a single-atom generator is off by {error.max():.2e}, "
            f"over {_SCHUR_TOL} eps ||B||")
    return q, t


class KroneckerResolvent:
    """(z - A)^{-1} for A = the 255-block of M1 (x) 1 + 1 (x) M2, built from
    both atoms' single-atom generators `m` [atom, C..., 16, 16], C the
    configuration shape `shape` (() for one configuration).  The constructor
    runs every check on A, per configuration: a ConfigurationError where the
    identity is not stationary, A overflows, a generator is not block
    diagonal under `BLOCKS`, or A is singular to working precision."""

    def __init__(self, m):
        # the identity must be stationary under both single-atom generators
        if np.abs(m[..., 0, :]).max() > 1e-12:
            raise ConfigurationError("generator does not leave the identity invariant")
        # A's entries are at most max|M1| + max|M2|; a drive for which twice
        # that is not a float overflows while the tiles are built and solved
        with np.errstate(over="ignore"):
            scale = np.abs(m).max(axis=(-2, -1)).sum(axis=0)
            if not np.isfinite(2.0 * scale).all():
                raise ConfigurationError("drive overflows the generator matrix A")
        if np.any(m[..., 1:, 1:][..., _OFF_BLOCK]):
            raise ConfigurationError(
                "single-atom generator is not block diagonal under resolvent.BLOCKS")
        self.m = m
        self.shape = m.shape[1:-2]
        # singular to working precision: an eigenvalue at the rounding level
        # of A, per configuration
        smallest = np.abs(self.eigenvalues).min(axis=-1)
        if not np.all(smallest > (N_TWO - 1) * np.finfo(float).eps * scale):
            raise ConfigurationError("single-atom generator matrix A is singular")

    @property
    def eigenvalues(self):
        """The 255 eigenvalues of A per configuration: lambda(a_p) + lambda(b_q).

        The 1x1 groups, the trace (eigenvalue 0 of a_0 = b_0) first, are their
        diagonal entries.  The 2x2 coherence pairs take the closed form: the
        root of larger modulus, (a + d)/2 + s with s = sqrt(h^2 + bc),
        h = (a - d)/2, and the sign of s that keeps the sum free of
        cancellation, and the other root as the determinant over it.  The Bloch
        block is one `np.linalg.eigvals` over both atoms.  Pair entries above
        1e154 square past the float range and give inf or nan here; at such a
        drive A's eigenvalue -2 (the trace with a 1x1 group) lies far below
        A's rounding level, so it is rejected as singular either way."""
        m = self.m
        single = m[..., _SINGLES, _SINGLES]
        a, b, c, d = (m[..., _PAIRS[i], _PAIRS[j]] for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)))
        bloch = np.linalg.eigvals(m[..., _BLOCH[0], _BLOCH[1]])
        with np.errstate(over="ignore", invalid="ignore"):
            mean, h = 0.5 * (a + d), 0.5 * (a - d)
            s = np.sqrt(h * h + b * c)
            large = mean + np.where((mean.conj() * s).real < 0, -s, s)
            small = np.where(large != 0, (a * d - b * c) / np.where(large != 0, large, 1.0), 0.0)
            eigs = np.concatenate([single, large, small, bloch], axis=-1)
            return (eigs[0][..., :, None] + eigs[1][..., None, :]).reshape(self.shape + (-1,))[..., 1:]

    def solve(self, rhs, entries):
        """x = G0(0) rhs = -A^{-1} rhs for every right-hand side, on the
        tiles of the packed `entries` and their feeders.

        `rhs` has shape C + K + (255,): its K right-hand sides are the
        columns of one factorization per tile, and the result has its shape.
        Only the tiles holding `entries` (as from `needed`) are solved, with
        the level-1 feeders of the level-2 ones; the entries of the others
        are left at zero, and np.arange(255) solves every tile.
        """
        rhs = np.asarray(rhs, dtype=complex)
        lead, rank = self.shape, len(self.shape)
        batch = rhs.shape[rank:-1]
        plan = _solve_plan(np.asarray(entries, dtype=np.intp).tobytes())
        # b[..., l * 16 + m, column]
        b = np.zeros(lead + (N_TWO, int(np.prod(batch))), dtype=complex)
        b[..., 1:, :] = rhs.reshape(lead + (-1, N_TWO - 1)).swapaxes(-1, -2)
        x = np.zeros_like(b)
        m1, m2 = self.m
        c1, c2 = m1[..., :, 0, None], m2[..., :, 0, None]
        for level, flat, l, m, a_p, b_q in plan:
            size = flat.shape[-1]
            # the kept tiles of -A, 0 - (a_p (x) 1 + 1 (x) b_q): the
            # subtraction keeps -A's zeros +0, where a negation would flip
            # their sign [..., tile, row, column]
            tile = 0.0 - (m1[..., a_p[0], a_p[1]] * a_p[2] + m2[..., b_q[0], b_q[1]] * b_q[2])
            r = b[..., flat, :]
            if level == 2:
                # fed by the solved level-1 tiles: c1 X[0, :] + X[:, 0] c2^T
                r = r + c1[..., l, :] * x[..., m, :] + x[..., l * N_SINGLE, :] * c2[..., m, :]
            x[..., flat, :] = (r / tile if size == 1 else _solve2(tile, r)
                               if size == 2 else np.linalg.solve(tile, r))
        return x[..., 1:, :].swapaxes(-1, -2).reshape(lead + batch + (N_TWO - 1,))

    def sweep(self, rows, z, rhs):
        """rows . (z - A)^{-1} . rhs at every frequency of the 1-D array `z`.

        One configuration only.  `rows` has shape R + (255,) and `rhs`
        K + (255,); the result has shape z.shape + K + R.  Only the tiles
        holding the rows' non-zero columns are solved, with the level-1
        feeders of the level-2 ones: all that the rows read.
        """
        if self.shape != ():
            raise ConfigurationError(
                f"a sweep takes one configuration, not a stack of shape {self.shape}")
        z = np.asarray(z, dtype=complex)
        if z.ndim != 1:
            raise ConfigurationError(f"sweep frequencies must be a 1-D array, not shape {z.shape}")
        rows, rhs = np.asarray(rows, dtype=complex), np.asarray(rhs, dtype=complex)
        flat, diagonal, waves = _wave_plan(np.any(rows.reshape(-1, N_TWO - 1), axis=0).tobytes())
        q, t = _schur_bases(self.m)
        t = t.ravel()
        # to Schur coordinates at the plan's entries: Q1^H B conj(Q2) for
        # each right-hand side B, [entry, rhs, 1], and Q1^T R Q2 for each
        # row R, [row, entry]
        b = (q[0].conj().T @ _grid(rhs) @ q[1].conj()).reshape(-1, N_TWO)[:, flat].T[:, :, None]
        r = (q[0].T @ _grid(rows) @ q[1]).reshape(-1, N_TWO)[:, flat]
        d = t[diagonal].sum(axis=-1)[:, None, None]
        waves = [(start, stop, deps, t[coefficients][:, None, :])
                 for start, stop, deps, coefficients in waves]
        out = np.empty((len(r), b.shape[1], len(z)), dtype=complex)
        for begin in range(0, len(z), _BLOCK):
            block = slice(begin, begin + _BLOCK)
            den = z[block] - d
            # the solved entries and a zero slot, [entry, rhs, frequency]
            y = np.empty((len(flat) + 1, b.shape[1], den.shape[-1]), dtype=complex)
            y[-1] = 0.0
            rows_of_y = y.reshape(len(y), -1)
            for start, stop, deps, coefficients in waves:
                acc = b[start:stop]
                if deps.size:
                    acc = acc + (coefficients @ rows_of_y[deps]).reshape(y[start:stop].shape)
                np.divide(acc, den[start:stop], out=y[start:stop])
            out[..., block] = (r @ rows_of_y[:-1]).reshape(out[..., block].shape)
        return out.T.reshape(z.shape + rhs.shape[:-1] + rows.shape[:-1])

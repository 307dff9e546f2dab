"""Uncoupled resolvent G0(z) = (z - A)^{-1} as a two-level tile solve.

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
Computations), and a solve is two passes of small dense solves, one
`np.linalg.solve` per level and tile dimension, batched over the tiles, the
configurations C and the frequencies.  Every z is solved against every
right-hand side, the right-hand sides being the columns of one factorization
per tile and z; 1x1 and 2x2 tiles take closed forms.
Rounding stays inside each tile, so no refinement step is needed.  The 1295
tile entries per configuration are built once, as the tiles of z - A at
z = 0, and factored on every call, z = 0 included: explicit inverses lose
digits that the weak-drive intensities, differences of nearly equal terms,
need.  A solve at z = 0 factors the stored tiles themselves; any other z is
added on the diagonal of a copy.  `needed` gives the tiles a solve must visit
to read given entries: their own and their feeders.  Each mask's plan (which
tiles, which entries) is checked and built once per process and cached, as
every `assemble` builds a new resolvent.
"""

from functools import lru_cache

import numpy as np

from .basis import N_SINGLE, N_TWO
from .errors import ConfigurationError

#: diagonal blocks of each single-atom block B = M[1:, 1:], as 0-based
#: indices into B: the |1> <-> |4> block, the four coherence pairs it does
#: not drive, and three single entries
BLOCKS = ((0, 1, 3, 4), (5, 10), (6, 9), (7, 11), (8, 12), (2,), (13,), (14,))
#: single-atom index groups of M: the trace, then BLOCKS
GROUPS = ((0,),) + tuple(tuple(i + 1 for i in b) for b in BLOCKS)
#: the group of each single-atom index
GROUP_OF = np.repeat(np.arange(len(GROUPS)), [len(g) for g in GROUPS])[np.argsort(sum(GROUPS, ()))]
_OFF_BLOCK = GROUP_OF[1:, None] != GROUP_OF[None, 1:]
_MASK_SHAPE = (len(GROUPS),) * 2


def _plan():
    """Per level and tile dimension: the tiles' (p, q) and the indices l, m
    of their entries X[l, m]."""
    groups = {}
    for p, rows in enumerate(GROUPS):
        for q, cols in enumerate(GROUPS):
            if p or q:
                flat = (np.array(rows)[:, None] * N_SINGLE + np.array(cols)).ravel()
                groups.setdefault((1 + bool(p and q), flat.size), []).append(((p, q), flat))
    return tuple((level, np.array([t[0] for t in group]), *np.divmod([t[1] for t in group], N_SINGLE))
                 for (level, _), group in sorted(groups.items()))


_PLAN = _plan()
_BY_SIZE = [np.array([g for g in GROUPS if len(g) == size]) for size in (1, 2, 4)]


def _solve2(m, r):
    """Cramer's rule for a stack of 2x2 systems, forward stable at this size
    (Higham, Accuracy and Stability of Numerical Algorithms)."""
    a, b, c, d = (m[..., i, j, None] for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)))
    r0, r1 = r[..., 0, :], r[..., 1, :]
    return np.stack([d * r0 - b * r1, a * r1 - c * r0], axis=-2) / (a * d - b * c)[..., None, :]


def needed(columns):
    """Mask [p, q] of the tiles a solve read at packed `columns` needs:
    the tiles holding them, and the level-1 feeders of the level-2 ones."""
    l, m = np.divmod(np.asarray(columns) + 1, N_SINGLE)
    mask = np.zeros(_MASK_SHAPE, dtype=bool)
    mask[GROUP_OF[l], GROUP_OF[m]] = True
    mask[1:, 0] |= mask[1:, 1:].any(axis=1)
    mask[0, 1:] |= mask[1:, 1:].any(axis=0)
    return mask


@lru_cache(maxsize=64)
def _mask_plan(key):
    """The groups of _PLAN a solve restricted to a tile mask visits, as
    (level, group, kept tiles, flat, l, m): the kept tiles index the group's
    tiles, and l, m, flat = 16 l + m are their entries X[l, m].  `key` is
    None (every tile) or the bytes of a 9x9 boolean mask, so each mask is
    checked and planned once per process, whichever resolvent solves it."""
    mask = (np.ones(_MASK_SHAPE, dtype=bool) if key is None
            else np.frombuffer(key, dtype=bool).reshape(_MASK_SHAPE))
    orphans = np.argwhere(mask[1:, 1:] & ~(mask[1:, :1] & mask[:1, 1:])) + 1
    if orphans.size:
        p, q = orphans[0]
        raise ConfigurationError(
            f"tile mask holds the level-2 tile ({p}, {q}) without its level-1 "
            f"feeders ({p}, 0) and (0, {q})")
    plan = []
    for group, (level, pq, l, m) in enumerate(_PLAN):
        kept = mask[pq[:, 0], pq[:, 1]]
        if kept.any():
            keep = slice(None) if kept.all() else np.flatnonzero(kept)
            plan.append((level, group, keep, l[keep] * N_SINGLE + m[keep], l[keep], m[keep]))
    return tuple(plan)


def _plan_of(tiles):
    """The plan of the mask `tiles`, None for every tile."""
    if tiles is not None:
        tiles = np.asarray(tiles)
        if tiles.dtype != bool or tiles.shape != _MASK_SHAPE:
            raise ConfigurationError(
                f"tile mask must be a boolean array of shape {_MASK_SHAPE}, "
                f"not {tiles.dtype} of shape {tiles.shape}")
        tiles = tiles.tobytes()
    return _mask_plan(tiles)


class KroneckerResolvent:
    """(z - A)^{-1} for A = the 255-block of M1 (x) 1 + 1 (x) M2, built from
    the single-atom generators m1, m2 of shape C + (16, 16), C the
    configuration shape `shape` (() for one configuration)."""

    def __init__(self, m1, m2):
        for m in (m1, m2):
            if np.any(m[..., 1:, 1:][..., _OFF_BLOCK]):
                raise ConfigurationError(
                    "single-atom generator is not block diagonal under resolvent.BLOCKS")
        self.m1, self.m2 = m1, m2
        self.shape = m1.shape[:-2]
        # the tiles of z - A at z = 0, 0 - (a_p (x) 1 + 1 (x) b_q): the
        # subtraction keeps z - A's zeros +0, where a negation would flip
        # their sign, [..., tile, row, column]
        self._tiles = [0.0 - (m1[..., l[:, :, None], l[:, None, :]] * (m[:, :, None] == m[:, None, :])
                              + m2[..., m[:, :, None], m[:, None, :]] * (l[:, :, None] == l[:, None, :]))
                       for _, _, l, m in _PLAN]

    @property
    def eigenvalues(self):
        """The 255 eigenvalues of A per configuration: lambda(a_p) + lambda(b_q)."""
        # groups by size, the trace (eigenvalue 0 of a_0 = b_0) first
        eigs = [np.concatenate([np.linalg.eigvals(m[..., g[:, :, None], g[:, None, :]]).reshape(
            self.shape + (-1,)) for g in _BY_SIZE], axis=-1) for m in (self.m1, self.m2)]
        return (eigs[0][..., :, None] + eigs[1][..., None, :]).reshape(self.shape + (-1,))[..., 1:]

    def matvec(self, x):
        """A x for `x` of shape C + batch + (255,): M1 X + X M2^T with X[0, 0] = 0,
        from the two 16x16 factors without forming A."""
        x = np.asarray(x, dtype=complex)
        n = N_SINGLE
        full = np.zeros(x.shape[:-1] + (N_TWO,), dtype=complex)
        full[..., 1:] = x
        big = full.reshape(x.shape[:-1] + (n, n))
        # the factors broadcast over the batch axes that follow C
        factor = self.shape + (1,) * (x.ndim - 1 - len(self.shape)) + (n, n)
        y = self.m1.reshape(factor) @ big + big @ self.m2.reshape(factor).swapaxes(-1, -2)
        return y.reshape(full.shape)[..., 1:]

    def solve(self, z, rhs, tiles=None):
        """x = (z - A)^{-1} rhs for every z against every right-hand side.

        `z` is a scalar or a 1-D array of frequencies, and `rhs` has shape
        C + K + (255,): its K right-hand sides are the columns of one
        factorization per tile and z.  The result has shape
        C + z.shape + K + (255,).  `tiles`, a mask from `needed`, solves only
        those tiles and leaves the entries of the others at zero; a mask that
        is not a 9x9 boolean array, or that holds a level-2 tile without its
        feeders, raises ConfigurationError.
        """
        z, rhs = np.asarray(z, dtype=complex), np.asarray(rhs, dtype=complex)
        lead, rank = self.shape, len(self.shape)
        batch = rhs.shape[rank:-1]
        plan = _plan_of(tiles)
        # b[..., l * 16 + m, column], with a unit axis for each axis of z
        spread = (1,) * z.ndim
        b = np.zeros(lead + spread + (N_TWO, int(np.prod(batch))), dtype=complex)
        b[..., 1:, :] = rhs.reshape(b.shape[:-2] + (-1, N_TWO - 1)).swapaxes(-1, -2)
        x = np.zeros(lead + z.shape + b.shape[-2:], dtype=complex)
        # z on the diagonal of every tile, [z..., tile, entry]; none at z = 0
        shift = z.reshape(z.shape + (1, 1)) if z.any() else None
        c1, c2 = (m[..., :, 0].reshape(lead + spread + (N_SINGLE, 1)) for m in (self.m1, self.m2))
        for level, group, keep, flat, l, m in plan:
            size = flat.shape[-1]
            tile = self._tiles[group][..., keep, :, :].reshape(lead + spread + (-1, size, size))
            if shift is not None:
                tile = np.array(np.broadcast_to(tile, lead + z.shape + tile.shape[-3:]))
                tile.reshape(tile.shape[:-2] + (-1,))[..., ::size + 1] += shift
            r = b[..., flat, :]
            if level == 2:
                # fed by the solved level-1 tiles: c1 X[0, :] + X[:, 0] c2^T
                r = r + c1[..., l, :] * x[..., m, :] + x[..., l * N_SINGLE, :] * c2[..., m, :]
            x[..., flat, :] = (r / tile if size == 1 else _solve2(tile, r)
                               if size == 2 else np.linalg.solve(tile, r))
        return x[..., 1:, :].swapaxes(-1, -2).reshape(x.shape[:-2] + batch + (N_TWO - 1,))

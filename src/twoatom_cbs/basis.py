"""Operator basis for the two-atom problem.

A single 4-level atom (ground |1> plus Zeeman triplet |2>, |3>, |4>) is
described by 16 trace-orthonormal basis operators.  Two-atom operators live
in the 256-dimensional tensor-product space; the packed index n = 16*l + m
labels q_l (x) q_m, with n = 0 (the trace element) split off because its
expectation value is a constant.
"""

from functools import lru_cache

import numpy as np

N_LEVELS = 4
N_SINGLE = 16
N_TWO = N_SINGLE * N_SINGLE

#: expectation value of the trace element q0 (x) q0 = identity/4
TRACE_ELEMENT_VALUE = 0.25


def sigma(k, l):
    """Flip operator |k><l| with 1-based level labels."""
    out = np.zeros((N_LEVELS, N_LEVELS), dtype=complex)
    out[k - 1, l - 1] = 1.0
    return out


@lru_cache(maxsize=1)
def single_atom_basis():
    """The 16 trace-orthonormal single-atom basis operators.

    Order: identity/2, the three diagonal combinations mu_1/2, mu_2/2,
    mu_3/2, then the twelve flip operators sigma_14, sigma_41, sigma_13,
    sigma_31, sigma_12, sigma_21, sigma_34, sigma_43, sigma_42, sigma_24,
    sigma_32, sigma_23.
    """
    eye = np.eye(N_LEVELS, dtype=complex)
    mu1 = np.diag([-1.0, 1.0, -1.0, 1.0]).astype(complex)
    mu2 = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)
    mu3 = np.diag([-1.0, 1.0, 1.0, -1.0]).astype(complex)
    ops = [eye / 2, mu1 / 2, mu2 / 2, mu3 / 2]
    for (k, l) in [(1, 4), (4, 1), (1, 3), (3, 1), (1, 2), (2, 1),
                   (3, 4), (4, 3), (4, 2), (2, 4), (3, 2), (2, 3)]:
        ops.append(sigma(k, l))
    return np.array(ops)


def pack_index(l, m):
    """Packed two-atom index n = 16*l + m; (0, 0) is the excluded trace element."""
    if not (0 <= l < N_SINGLE and 0 <= m < N_SINGLE):
        raise ValueError(f"single-atom indices out of range: ({l}, {m})")
    if l == 0 and m == 0:
        raise ValueError("(0, 0) is the excluded trace element")
    return N_SINGLE * l + m


def unpack_index(n):
    """Inverse of pack_index."""
    if not (1 <= n < N_TWO):
        raise ValueError(f"packed index out of range: {n}")
    return divmod(n, N_SINGLE)


@lru_cache(maxsize=1)
def two_atom_basis_flat():
    """(256, 256) array whose row n is (q_l (x) q_m).ravel(), n = 16*l + m."""
    q = single_atom_basis()
    rows = np.empty((N_TWO, N_TWO), dtype=complex)
    for l in range(N_SINGLE):
        for m in range(N_SINGLE):
            rows[N_SINGLE * l + m] = np.kron(q[l], q[m]).ravel()
    rows.setflags(write=False)
    return rows


def expand_two_atom_operator(op):
    """Project a 16x16 operator onto the tensor-product basis.

    Returns the 256 coefficients c_n with op = sum_n c_n (q_l (x) q_m),
    c_n = Tr[(q_l (x) q_m)^dag op].
    """
    op = np.asarray(op, dtype=complex)
    if op.shape != (N_SINGLE, N_SINGLE):
        raise ValueError(f"expected a 16x16 operator, got shape {op.shape}")
    return two_atom_basis_flat().conj() @ op.ravel()


def reconstruct_two_atom_operator(coeffs):
    """Inverse of expand_two_atom_operator."""
    coeffs = np.asarray(coeffs, dtype=complex)
    return (coeffs @ two_atom_basis_flat()).reshape(N_SINGLE, N_SINGLE)


def expectation(op, state, order=None):
    """Stationary expectation value of a 16x16 operator.

    `state` is a 255-element vector of basis-operator expectation values
    (index n-1 holds <Q_n>).  The trace element contributes its constant
    value 1/4 only at perturbative order 0; pass order=None for a
    non-perturbative state (constant always included).
    """
    c = expand_two_atom_operator(op)
    val = c[1:] @ np.asarray(state)
    if order is None or order == 0:
        val += c[0] * TRACE_ELEMENT_VALUE
    return val


def _coefficient_table(products, basis):
    """T[n, m] = Tr(b_m^dag products[n]) on a trace-orthonormal basis b."""
    n = len(basis)
    return products.reshape(n, -1) @ basis.reshape(n, -1).conj().T


def single_atom_tables(op):
    """Left and right multiplication tables of a 4x4 operator.

    L[n, m] = Tr(q_m^dag op q_n) and R[n, m] = Tr(q_m^dag q_n op), so that
    op @ q_n = sum_m L[n, m] q_m and q_n @ op = sum_m R[n, m] q_m.  The
    coefficient matrix of Q -> X Q Y is then L_X @ R_Y.
    """
    q = single_atom_basis()
    op = np.asarray(op, dtype=complex)
    return _coefficient_table(op @ q, q), _coefficient_table(q @ op, q)


def left_multiplication_table(op):
    """Coefficient table T of left multiplication by a 16x16 operator.

    op @ B_n = sum_m T[n, m] B_m for every two-atom basis operator B_n.
    Used to turn quantum-regression initial conditions into rearrangements
    of the stationary state.
    """
    basis = two_atom_basis_flat().reshape(N_TWO, N_SINGLE, N_SINGLE)
    return _coefficient_table(np.asarray(op, dtype=complex) @ basis, basis)

"""Operator-basis properties: orthonormality, round trips, expectations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twoatom_cbs.basis import (
    N_SINGLE,
    N_TWO,
    TRACE_ELEMENT_VALUE,
    expand_single_atom_operator,
    expand_two_atom_operator,
    expectation,
    sigma,
    single_atom_basis,
    two_atom_basis_flat,
)

from conftest import reconstruct_two_atom_operator


def random_operator(seed, dim=16):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


def test_single_atom_basis_trace_orthonormal():
    q = single_atom_basis()
    gram = np.einsum("iab,jab->ij", q.conj(), q)
    assert np.allclose(gram, np.eye(N_SINGLE), atol=1e-14)


def test_single_atom_basis_starts_with_identity():
    q = single_atom_basis()
    assert np.allclose(q[0], np.eye(4) / 2)
    # the three diagonal elements square to the identity
    for mu in q[1:4]:
        assert np.allclose((2 * mu) @ (2 * mu), np.eye(4))


def test_flip_operators_are_matrix_units():
    s = sigma(2, 4)
    assert s[1, 3] == 1.0 and np.count_nonzero(s) == 1


def test_two_atom_basis_trace_orthonormal():
    flat = two_atom_basis_flat()
    gram = flat.conj() @ flat.T
    assert np.allclose(gram, np.eye(N_TWO), atol=1e-13)


def test_trace_element_value():
    # B_0 = (1/2)(x)(1/2) = identity/4, so <B_0> = Tr[rho]/4 = 1/4
    flat = two_atom_basis_flat()
    assert np.allclose(flat[0].reshape(16, 16), np.eye(16) / 4)
    assert TRACE_ELEMENT_VALUE == 0.25


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_expand_reconstruct_round_trip(seed):
    op = random_operator(seed)
    coeffs = expand_two_atom_operator(op)
    assert np.allclose(reconstruct_two_atom_operator(coeffs), op, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_product_expands_as_kron_of_single_atom_expansions(seed):
    # X (x) Y has the coefficients kron(c_X, c_Y), n = 16 l + m
    x, y = random_operator(seed, dim=4), random_operator(seed + 1, dim=4)
    c_x, c_y = expand_single_atom_operator(x), expand_single_atom_operator(y)
    assert np.allclose(np.einsum("n,nab->ab", c_x, single_atom_basis()), x, atol=1e-13)
    assert np.allclose(np.kron(c_x, c_y), expand_two_atom_operator(np.kron(x, y)), atol=1e-12)


def test_expand_rejects_wrong_shape():
    with pytest.raises(ValueError):
        expand_two_atom_operator(np.eye(4))


def test_identity_expectation_is_one():
    # any physical state has unit trace; its 255-vector part is irrelevant
    state = np.zeros(N_TWO - 1)
    assert expectation(np.eye(16, dtype=complex), state) == pytest.approx(1.0)


def test_hermiticity_transport():
    # expanding a Hermitian operator pairs coefficients of B_n and B_n^dag
    op = random_operator(7)
    op = op + op.conj().T
    coeffs = expand_two_atom_operator(op)
    rebuilt = reconstruct_two_atom_operator(coeffs)
    assert np.allclose(rebuilt, rebuilt.conj().T, atol=1e-12)
    assert abs(coeffs[0].imag) < 1e-13

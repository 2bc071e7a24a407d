"""Kernel tests: pivoted factorization and solves, the independence test,
numerical rank."""

from __future__ import annotations

import numpy as np
import pytest

import opfsens as ops
from opfsens.errors import Singular
from opfsens.jacobian import BindingSet, build_z_stack
from opfsens.linalg import lu_factor_checked, lu_solve_factored, numerical_rank, rcond_estimate


def _solve(a, rhs):
    return lu_solve_factored(lu_factor_checked(a), rhs)


def test_identity_solve():
    rhs = np.arange(12.0).reshape(4, 3)
    assert np.array_equal(_solve(np.eye(4), rhs), rhs)


def test_diagonal_solve():
    x = _solve(np.array([[2.0, 0.0], [0.0, 4.0]]), np.array([[2.0], [8.0]]))
    assert x.tolist() == [[1.0], [2.0]]


def test_case9_stack_residual(net9):
    """Stack for S_G = {gen 1}, S_B = {(4,5)}: solve and check the residual
    against the contract bound."""
    bset = BindingSet(gens=(0,), branches=(1,))  # edge 1 is (4,5)
    a = build_z_stack(net9, bset)
    rhs = np.eye(9)
    x = _solve(a, rhs)
    norm_a = np.abs(a).sum(axis=1).max()
    norm_x = np.abs(x).sum(axis=1).max()
    residual = np.abs(a @ x - rhs).max()
    assert residual <= 1e-10 * norm_a * norm_x


def test_singular_raises():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(Singular):
        lu_factor_checked(a)


def test_independence_threshold():
    """Dependent when the smallest pivot is at most RANK_REL_TOL times the largest."""
    assert lu_factor_checked(np.diag([1.0, 1e-9]))[2]
    with pytest.raises(Singular):
        lu_factor_checked(np.diag([1.0, 1e-11]))


def test_stack_marks_dependent_members():
    """A stack is factored matrix by matrix: dependent members are marked,
    not raised, and the rest solve as they would alone."""
    stack = np.array([np.eye(2), [[1.0, 2.0], [2.0, 4.0]], [[2.0, 0.0], [0.0, 4.0]]])
    lu, piv, independent = lu_factor_checked(stack)
    assert independent.tolist() == [True, False, True]
    x = lu_solve_factored((lu[independent], piv[independent]), np.array([2.0, 8.0]))
    assert x.tolist() == [[2.0, 8.0], [1.0, 2.0]]
    assert np.array_equal(x[1], _solve(stack[2], np.array([2.0, 8.0])))


def test_invert_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(10):
        a = rng.standard_normal((20, 20)) + 20.0 * np.eye(20)  # well conditioned
        err = np.abs(a @ _solve(a, np.eye(20)) - np.eye(20)).max()
        assert err < 1e-9 * np.linalg.cond(a)


def test_rank_identity():
    assert numerical_rank(np.eye(3)) == 3


def test_rank_duplicated_row():
    a = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [1.0, 2.0, 3.0]])
    assert numerical_rank(a) == 2


def test_rank_empty():
    assert numerical_rank(np.zeros((0, 4))) == 0
    assert numerical_rank(np.zeros((3, 3))) == 0


def test_rank_rectangular():
    assert numerical_rank(np.array([[0.0, 1.0]])) == 1
    assert numerical_rank(np.array([[0.0, 1.0], [0.0, 2.0]])) == 1


def test_rank_rel_tol_validation():
    with pytest.raises(ValueError):
        numerical_rank(np.eye(2), rel_tol=2.0)


def test_rank_invariance_permutation_scaling():
    rng = np.random.default_rng(5)
    for _ in range(20):
        m = rng.standard_normal((8, 6))
        m[:, 5] = m[:, 0] + m[:, 1]  # force rank 5ish in columns
        base = numerical_rank(m)
        perm = rng.permutation(8)
        scales = rng.uniform(0.5, 2.0, 8)
        assert numerical_rank(m[perm] * scales[:, None]) == base


def test_standard_form_rank_matches_stack(net9, params9, loads9):
    """Rank of the always-binding standard-form rows plus a binding set equals
    full rank exactly when the z-stack is invertible (checked by an
    independent determinant test)."""
    sf = ops.standard_form(net9, params9, loads9)
    n, n_g = net9.n_bus, net9.n_gen
    # one representative of each doubled equality: slack+ and balance+ rows
    eq_rows = [0] + list(range(2, 2 + n))
    for bset in (BindingSet((0,), (1,)), BindingSet((), (0, 5)), BindingSet((0, 2), ())):
        rows = eq_rows + [2 + 2 * n + g for g in bset.gens] + \
            [2 + 2 * n + 2 * n_g + e for e in bset.branches]
        rank = numerical_rank(sf.a[rows])
        stack = build_z_stack(net9, bset)
        sign, logdet = np.linalg.slogdet(stack)
        invertible = sign != 0 and np.isfinite(logdet)
        assert (rank == n + n_g) == invertible


def test_rcond_estimate():
    assert rcond_estimate(np.eye(4)) == pytest.approx(1.0)
    assert rcond_estimate(np.array([[1.0, 1.0], [1.0, 1.0]])) == 0.0

"""Kernel tests: batched pivoted factorization and solves, the independence
test, numerical rank."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import opfsens as ops
from opfsens.errors import DimensionMismatch, Singular
from opfsens.jacobian import BindingSet
from opfsens.linalg import lu_factor_checked, lu_solve_factored, numerical_rank, rcond_estimate

import oracles


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
    a = oracles.build_z_stack(net9, bset)
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


def test_reference_pivot_is_at_least_one():
    """The smallest pivot is compared with the larger of 1 and the largest
    pivot: rounding noise is dependent, not a well-scaled matrix."""
    with pytest.raises(Singular):
        lu_factor_checked(1e-16 * np.eye(3))
    assert lu_factor_checked(np.diag([1e-9, 1.0]))[2]
    assert lu_factor_checked(np.diag([1e3, 2e-7]))[2]
    with pytest.raises(Singular):
        lu_factor_checked(np.diag([1e3, 1e-7]))


def test_empty_matrices_are_independent():
    lu, piv, independent = lu_factor_checked(np.zeros((3, 0, 0)))
    assert lu.shape == (3, 0, 0) and piv.shape == (3, 0)
    assert independent.tolist() == [True, True, True]


def test_zero_pivot_member_factors_apart():
    """An exact zero pivot marks its member dependent without a warning;
    every other member factors bit for bit as it would alone."""
    good = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]])
    zero_column = np.array([[0.0, 1.0, 2.0], [0.0, 3.0, 4.0], [0.0, 5.0, 6.0]])
    lu, piv, independent = lu_factor_checked(np.array([good, zero_column, good.T]))
    assert independent.tolist() == [True, False, True]
    for k, a in ((0, good), (2, good.T)):
        alone = lu_factor_checked(a)
        assert np.array_equal(lu[k], alone[0]) and np.array_equal(piv[k], alone[1])


def _bits(arrays):
    return [np.ascontiguousarray(a).view(np.uint8) for a in arrays]


@st.composite
def _stacks(draw):
    """Stacks ``(batch, n, n)`` with rows scaled from 1e-12 to 1e3, and some
    members given an exact-zero column or a duplicated row; small integer
    entries make pivot candidates tie."""
    n, batch = draw(st.integers(0, 8)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        a = rng.integers(-2, 3, (batch, n, n)).astype(float)
    else:
        a = rng.standard_normal((batch, n, n))
    if draw(st.booleans()):
        a *= 10.0 ** rng.uniform(-12.0, 3.0, (batch, n, 1))
    if n:
        hit = np.flatnonzero(rng.random(batch) < draw(st.sampled_from([0.0, 0.2, 1.0])))
        a[hit, :, rng.integers(n, size=len(hit))] = 0.0
    if n > 1:
        hit = np.flatnonzero(rng.random(batch) < draw(st.sampled_from([0.0, 0.2, 1.0])))
        src = rng.integers(n, size=len(hit))
        a[hit, (src + rng.integers(1, n, size=len(hit))) % n] = a[hit, src]
    return a


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_stacks())
def test_batch_last_kernel_matches_row_major_oracle(a):
    """Factors, pivots and verdicts are bitwise the row-major oracle's and
    each member's factored alone; one right-hand side per matrix solves
    within eps * cond of np.linalg.solve."""
    with np.errstate(divide="ignore", invalid="ignore"):
        want = oracles.lu_factor_checked(a)
    lu, piv, ok = got = lu_factor_checked(a)
    assert all(np.array_equal(x, y) for x, y in zip(_bits(got), _bits(want)))
    for k in range(len(a)):
        alone = [v[0] for v in lu_factor_checked(a[k : k + 1])]
        mine = (lu[k], piv[k], ok[k])
        assert all(np.array_equal(x, y) for x, y in zip(_bits(alone), _bits(mine)))

    rhs = np.random.default_rng(len(a)).standard_normal(a.shape[:2] + (3,))
    x = lu_solve_factored((lu[ok], piv[ok]), rhs[ok])
    assert x.shape == rhs[ok].shape
    if a.shape[-1]:  # cond is undefined for 0 x 0
        eps = np.finfo(float).eps
        for xk, ak, bk in zip(x, a[ok], rhs[ok]):
            ref = np.linalg.solve(ak, bk)
            bound = 10 * len(ak) * eps * np.linalg.cond(ak) * max(np.abs(ref).max(), 1.0)
            assert np.abs(xk - ref).max() <= bound


def test_per_matrix_rhs_shape_checked():
    factors = lu_factor_checked(np.array([np.eye(2), 2.0 * np.eye(2)]))
    x = lu_solve_factored(factors, np.array([[[2.0], [4.0]], [[2.0], [4.0]]]))
    assert x.tolist() == [[[2.0], [4.0]], [[1.0], [2.0]]]
    with pytest.raises(DimensionMismatch):
        lu_solve_factored(factors, np.ones((3, 2, 1)))


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
    sf = oracles.standard_form(net9, params9, loads9)
    n, n_g = net9.n_bus, net9.n_gen
    # one representative of each doubled equality: slack+ and balance+ rows
    eq_rows = [0] + list(range(2, 2 + n))
    for bset in (BindingSet((0,), (1,)), BindingSet((), (0, 5)), BindingSet((0, 2), ())):
        rows = eq_rows + [2 + 2 * n + g for g in bset.gens] + \
            [2 + 2 * n + 2 * n_g + e for e in bset.branches]
        rank = numerical_rank(sf.a[rows])
        stack = oracles.build_z_stack(net9, bset)
        sign, logdet = np.linalg.slogdet(stack)
        invertible = sign != 0 and np.isfinite(logdet)
        assert (rank == n + n_g) == invertible


def test_rcond_estimate():
    assert rcond_estimate(np.eye(4)) == pytest.approx(1.0)
    assert rcond_estimate(np.array([[1.0, 1.0], [1.0, 1.0]])) == 0.0

"""Kernel tests: batched pivoted factorization and solves, the independence
test, numerical rank."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import opfsens as ops
from opfsens.errors import DimensionMismatch
from opfsens.jacobian import BindingSet
from opfsens.linalg import lu_factor_checked, lu_solve_factored, numerical_rank, rcond_estimate

import oracles


def _stack(*mats):
    """The matrices as one batch-last stack ``(n, n, count)``."""
    return np.stack(mats, axis=-1)


def _independent(*mats):
    return lu_factor_checked(_stack(*mats))[2].tolist()


def _in_order(x, order):
    """Batch-last rows ``x``, ``(n, m, count)``, gathered in the row order
    ``order`` of the factors, ``(n, count)``."""
    return np.take_along_axis(np.asarray(x, dtype=float), order[:, None], axis=0)


def _solve_factored(lu, order, rhs):
    """Solve with the factors for a batch-last ``rhs`` in natural row order,
    gathered in pivot order first."""
    return lu_solve_factored(lu, _in_order(rhs, order))


def _solve(a, rhs):
    """Solve one matrix for the columns of ``rhs`` as a stack of one."""
    return _solve_factored(*lu_factor_checked(a[..., None])[:2], rhs[..., None])[..., 0]


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


def test_singular_is_dependent():
    assert _independent(np.array([[1.0, 2.0], [2.0, 4.0]])) == [False]


def test_independence_threshold():
    """Dependent when the smallest pivot is at most RANK_REL_TOL times the largest."""
    assert _independent(np.diag([1.0, 1e-9]), np.diag([1.0, 1e-11])) == [True, False]


def test_stack_marks_dependent_members():
    """A stack is factored matrix by matrix: dependent members are marked
    and the rest solve as they would alone."""
    stack = _stack(np.eye(2), [[1.0, 2.0], [2.0, 4.0]], [[2.0, 0.0], [0.0, 4.0]])
    lu, order, independent = lu_factor_checked(stack)
    assert independent.tolist() == [True, False, True]
    passed = np.flatnonzero(independent)
    rhs = np.broadcast_to(np.array([[2.0], [8.0]])[..., None], (2, 1, 2))
    x = _solve_factored(lu.take(passed, axis=2), order.take(passed, axis=1), rhs)
    assert x[:, 0].T.tolist() == [[2.0, 8.0], [1.0, 2.0]]
    assert np.array_equal(x[..., 1], _solve(stack[..., 2], rhs[..., 0]))


def test_reference_pivot_is_at_least_one():
    """The smallest pivot is compared with the larger of 1 and the largest
    pivot: rounding noise is dependent, not a well-scaled matrix."""
    assert _independent(1e-16 * np.eye(3)) == [False]
    assert _independent(
        np.diag([1e-9, 1.0]), np.diag([1e3, 2e-7]), np.diag([1e3, 1e-7])
    ) == [True, True, False]


def test_empty_matrices_are_independent():
    lu, order, independent = lu_factor_checked(np.zeros((0, 0, 3)))
    assert lu.shape == (0, 0, 3) and order.shape == (0, 3)
    assert independent.tolist() == [True, True, True]
    assert _solve_factored(lu, order, np.zeros((0, 2, 3))).shape == (0, 2, 3)


def test_zero_pivot_member_factors_apart():
    """An exact zero pivot marks its member dependent without a warning;
    every other member factors bit for bit as it would alone."""
    good = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]])
    zero_column = np.array([[0.0, 1.0, 2.0], [0.0, 3.0, 4.0], [0.0, 5.0, 6.0]])
    lu, order, independent = lu_factor_checked(_stack(good, zero_column, good.T))
    assert independent.tolist() == [True, False, True]
    for k, a in ((0, good), (2, good.T)):
        alone = lu_factor_checked(a[..., None])
        assert np.array_equal(lu[..., k], alone[0][..., 0])
        assert np.array_equal(order[:, k], alone[1][:, 0])


def _bits(arrays):
    return [np.ascontiguousarray(a).view(np.uint8) for a in arrays]


@st.composite
def _stacks(draw):
    """Row-major stacks ``(batch, n, n)`` with rows scaled from 1e-12 to 1e3,
    and some members given an exact-zero column or a duplicated row; small
    integer entries make pivot candidates tie."""
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
    """Factors, row orders and verdicts are bitwise the row-major oracle's, moved
    batch-last, and each member's factored alone; a transposed gather, which
    is not C-contiguous, factors to the same bits as its C-ordered copy. One
    right-hand side per matrix solves within eps * cond of np.linalg.solve."""
    with np.errstate(divide="ignore", invalid="ignore"):
        want = oracles.lu_factor_checked(a)
    gather = a[np.arange(len(a))].transpose(1, 2, 0)
    lu, order, ok = got = lu_factor_checked(np.ascontiguousarray(gather))
    assert all(np.array_equal(x, y) for x, y in zip(_bits(got), _bits(lu_factor_checked(gather))))
    batch_first = (lu.transpose(2, 0, 1), order.T, ok)
    assert all(np.array_equal(x, y) for x, y in zip(_bits(batch_first), _bits(want)))
    for k in range(len(a)):
        alone = [v[..., 0] for v in lu_factor_checked(a[k][..., None])]
        mine = (lu[..., k], order[:, k], ok[k])
        assert all(np.array_equal(x, y) for x, y in zip(_bits(alone), _bits(mine)))

    rhs = np.random.default_rng(len(a)).standard_normal(a.shape[:2] + (3,))
    passed = np.flatnonzero(ok)
    x = _solve_factored(lu.take(passed, axis=2), order.take(passed, axis=1),
                        rhs[passed].transpose(1, 2, 0))
    assert x.shape == (a.shape[1], 3, len(passed))
    if a.shape[-1]:  # cond is undefined for 0 x 0
        eps = np.finfo(float).eps
        for xk, ak, bk in zip(x.transpose(2, 0, 1), a[passed], rhs[passed]):
            ref = np.linalg.solve(ak, bk)
            bound = 10 * len(ak) * eps * np.linalg.cond(ak) * max(np.abs(ref).max(), 1.0)
            assert np.abs(xk - ref).max() <= bound


def test_per_matrix_rhs_shape_checked():
    """A solve takes one batch-last float right-hand side per factored
    matrix, and factors a batch-last stack of square matrices only."""
    lu, order = lu_factor_checked(_stack(np.eye(2), 2.0 * np.eye(2)))[:2]
    rhs = np.broadcast_to(np.array([[2.0], [4.0]])[..., None], (2, 1, 2))
    x = _solve_factored(lu, order, rhs)
    assert x[:, 0].T.tolist() == [[2.0, 4.0], [1.0, 2.0]]
    for bad in (np.ones((2, 1, 3)), np.ones((3, 1, 2)), np.ones((2, 1)), np.ones((2, 1, 2), int)):
        with pytest.raises(DimensionMismatch):
            lu_solve_factored(lu, bad)
    for bad in (np.eye(2), np.ones((2, 3, 4)), np.ones((1, 2, 2, 2))):
        with pytest.raises(DimensionMismatch):
            lu_factor_checked(bad)


def test_invert_round_trip():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((20, 20, 10)) + 20.0 * np.eye(20)[..., None]  # well conditioned
    eye = np.broadcast_to(np.eye(20)[..., None], a.shape)
    x = _solve_factored(*lu_factor_checked(a)[:2], eye)
    for k in range(a.shape[-1]):
        err = np.abs(a[..., k] @ x[..., k] - np.eye(20)).max()
        assert err < 1e-9 * np.linalg.cond(a[..., k])


def test_pivoted_index_gathers_pivot_order():
    """The row order is each matrix's permutation ``P`` with ``P A = L U``;
    gathering the index in it gives, once gathered, the gathered right-hand
    sides in it, bit for bit, and the solve takes them as they come: it runs
    no swap pass of its own."""
    rng = np.random.default_rng(3)
    a = rng.standard_normal((5, 5, 40))
    lu, order, _ = lu_factor_checked(a)
    assert (order != np.arange(5)[:, None]).any()
    assert np.array_equal(np.sort(order, axis=0), np.broadcast_to(np.arange(5)[:, None], (5, 40)))
    for k in range(40):
        lower = np.tril(lu[..., k], -1) + np.eye(5)
        assert np.allclose(lower @ np.triu(lu[..., k]), a[order[:, k], :, k], rtol=0, atol=1e-12)
    table = rng.standard_normal((30, 2))
    at = rng.integers(len(table), size=(5, 40))
    gathered = table[at].transpose(0, 2, 1)  # (n, m, count)
    in_order = _in_order(gathered, order)
    assert np.array_equal(in_order, table[np.take_along_axis(at, order, axis=0)].transpose(0, 2, 1))
    x = lu_solve_factored(lu, in_order.copy())
    for k in range(40):
        assert np.allclose(a[..., k] @ x[..., k], gathered[..., k], rtol=0, atol=1e-9)
    unswapped = lu_solve_factored(lu, np.ascontiguousarray(gathered))
    assert not np.allclose(unswapped, x)


def test_rank_identity():
    assert numerical_rank(np.eye(3)) == 3


def test_rank_duplicated_row():
    a = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [1.0, 2.0, 3.0]])
    assert numerical_rank(a) == 2


def test_rank_empty():
    assert numerical_rank(np.zeros((0, 4))) == 0
    assert numerical_rank(np.zeros((3, 3))) == 0


def test_rank_wide_and_not_a_matrix():
    """A wide matrix stops at its last row; an input that is not 2-D is a
    DimensionMismatch."""
    assert numerical_rank(np.eye(2, 3)) == 2
    for bad in (np.ones(3), np.ones((2, 2, 2))):
        with pytest.raises(DimensionMismatch, match="expected a 2-D matrix"):
            numerical_rank(bad)


def test_rank_rectangular():
    assert numerical_rank(np.array([[0.0, 1.0]])) == 1
    assert numerical_rank(np.array([[0.0, 1.0], [0.0, 2.0]])) == 1


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
    for bad in (np.nan, np.inf):
        assert rcond_estimate(np.array([[bad, 1.0], [1.0, 1.0]])) == 0.0

"""Jacobian construction, the reduced independence test against the full
constraint stack, and the finite-difference cross-check."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

import opfsens as ops
from opfsens.errors import CardinalityViolation, DependentBindings, RegionBoundary
from opfsens.jacobian import BindingSet, pool_rows, reduced_factors, reduced_jacobians
from opfsens.network import assemble_network
from opfsens.sensitivity import candidate_sets

import oracles
from conftest import random_regular_params


def _reference_laplacian():
    """The 9-bus Laplacian rebuilt from raw branch data, independent of the
    Network assembly code."""
    branches = [
        (1, 4, 0.0576), (4, 5, 0.092), (5, 6, 0.17), (3, 6, 0.0586),
        (6, 7, 0.1008), (7, 8, 0.072), (8, 2, 0.0625), (8, 9, 0.161), (9, 4, 0.085),
    ]
    order = [1, 2, 3, 4, 5, 6, 7, 8, 9]
    pos = {b: i for i, b in enumerate(order)}
    lap = np.zeros((9, 9))
    for u, v, x in branches:
        b = 1.0 / x
        iu, iv = pos[u], pos[v]
        lap[iu, iu] += b
        lap[iv, iv] += b
        lap[iu, iv] -= b
        lap[iv, iu] -= b
    return lap


def test_stack_rows_case9(net9):
    bset = BindingSet(gens=(0,), branches=(1,))
    stack = oracles.build_z_stack(net9, bset)
    assert stack.shape == (9, 9)
    ref = _reference_laplacian()
    assert np.abs(stack[:6] - ref[3:]).max() < 1e-12      # load rows first
    assert np.abs(stack[6] - ref[0]).max() < 1e-12        # binding-gen row
    assert stack[8, 0] == 1.0 and not stack[8, 1:].any()  # reference row last


def test_stack_single_generator(two_bus):
    net, _ = two_bus
    stack = oracles.build_z_stack(net, BindingSet((), ()))
    assert stack.shape == (2, 2)
    assert np.array_equal(stack[1], [1.0, 0.0])


def test_duplicate_branch_rejected():
    with pytest.raises(CardinalityViolation):
        BindingSet(gens=(), branches=(3, 3))
    with pytest.raises(CardinalityViolation):
        BindingSet(gens=(1, 1), branches=())


def test_cardinality_enforced(net9):
    oversized = BindingSet(gens=(0, 1), branches=(0,))
    with pytest.raises(CardinalityViolation):
        ops.independence_check(net9, oversized)
    with pytest.raises(CardinalityViolation):
        ops.jacobian_from_binding(net9, oversized)


def test_two_bus_jacobian_is_one(two_bus):
    net, _ = two_bus
    res = ops.jacobian_from_binding(net, BindingSet((), ()))
    assert res.jac.shape == (1, 1)
    assert res.jac[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_conservation_properties_case9(net9):
    for bset in itertools.islice(ops.enumerate_binding_sets(net9), 25):
        jac = ops.jacobian_from_binding(net9, bset).jac
        assert np.abs(jac.sum(axis=0) - 1.0).max() < 1e-8   # columns sum to one
        for g in bset.gens:
            assert np.abs(jac[g]).max() < 1e-9              # binding rows vanish


def test_published_worst_entry(net9, table9):
    """The published (3,9) worst case is realized by an enumerated set."""
    best = 0.0
    for bset in ops.enumerate_binding_sets(net9):
        jac = ops.jacobian_from_binding(net9, bset).jac
        best = max(best, abs(jac[2, 5]))
    assert best == pytest.approx(table9[2, 5], abs=1e-3)


def test_dependent_set_raises(net9):
    # cut {(1,4)} isolates generator 1; marking it binding too is dependent
    with pytest.raises(DependentBindings):
        ops.jacobian_from_binding(net9, BindingSet(gens=(0,), branches=(0,)))


def test_finite_diff_two_bus(two_bus):
    net, params = two_bus
    jac = ops.jacobian_finite_diff(net, params, np.array([0.5]), step=1e-4)
    assert jac[0, 0] == pytest.approx(1.0, abs=1e-9)


def test_finite_diff_matches_binding_formula(net9, params9):
    rng = np.random.default_rng(12)
    checked = 0
    while checked < 5:
        params = random_regular_params(params9, rng)
        load = rng.uniform(0.1, 0.5, 6)
        try:
            sol = ops.solve_opf(net9, params, load)
            bset = ops.extract_binding_set(sol, net9, params)
            fd = ops.jacobian_finite_diff(net9, params, load, step=1e-4)
        except ops.errors.OpfSensError:
            continue
        jac = ops.jacobian_from_binding(net9, bset).jac
        assert np.abs(jac - fd).max() <= 1e-5
        checked += 1


def test_finite_diff_at_nominal_loads(net9, params9, loads9):
    """case9's nominal loads include zeros, which cannot be stepped down:
    those columns take the forward difference."""
    assert (loads9 == 0.0).any()
    sol = ops.solve_opf(net9, params9, loads9)
    bset = ops.extract_binding_set(sol, net9, params9)
    fd = ops.jacobian_finite_diff(net9, params9, loads9, step=1e-4)
    jac = ops.jacobian_from_binding(net9, bset).jac
    assert np.abs(jac - fd).max() <= 1e-9


def test_finite_diff_region_boundary(net9, params9):
    """A stencil wide enough to cross into a neighboring active-set region
    must be reported, not silently averaged."""
    center = np.array([0.202, 0.278, 0.302, 1.015, 0.498, 0.417])
    ops.extract_binding_set(ops.solve_opf(net9, params9, center), net9, params9)
    with pytest.raises(RegionBoundary):
        ops.jacobian_finite_diff(net9, params9, center, step=0.05)
    # the same point differentiates cleanly with a sane step
    jac = ops.jacobian_finite_diff(net9, params9, center, step=1e-4)
    assert jac.shape == (3, 6)


def test_independence_matches_rank_oracle(net9, params9, loads9):
    """Over all 66 candidate sets: the stack test agrees with an SVD rank
    oracle applied to the standard-form rows (equalities included)."""
    sf = oracles.standard_form(net9, params9, loads9)
    n, n_g = net9.n_bus, net9.n_gen
    eq_rows = [0] + list(range(2, 2 + n))
    agree = total = 0
    for k in range(n_g):
        for sg in itertools.combinations(range(n_g), k):
            for sb in itertools.combinations(range(net9.n_edge), n_g - 1 - k):
                total += 1
                bset = BindingSet(gens=sg, branches=sb)
                mine = ops.independence_check(net9, bset)
                rows = eq_rows + [2 + 2 * n + g for g in sg] + \
                    [2 + 2 * n + 2 * n_g + e for e in sb]
                oracle = np.linalg.matrix_rank(sf.a[rows]) == n + n_g
                assert mine == oracle, (sg, sb)
                agree += 1
    assert total == agree == 66


def test_cut_with_all_component_generators_dependent(net9):
    """All generators of one cut side binding, plus the cut, is dependent.

    Each generator spur is a one-edge cut isolating exactly that generator;
    pairing the spur with the generator keeps the required cardinality and
    must always be rejected.
    """
    spur_of_gen = {0: 0, 1: 6, 2: 3}  # (1,4), (8,2), (3,6)
    for g, e in spur_of_gen.items():
        assert not ops.independence_check(net9, BindingSet(gens=(g,), branches=(e,)))


def test_empty_set_single_generator(two_bus):
    net, _ = two_bus
    assert ops.independence_check(net, BindingSet((), ()))


def test_scale_covariance(net9):
    """Scaling every susceptance by a common factor leaves J unchanged."""
    scaled = assemble_network(
        [net9.vertex_order[i] for i in range(net9.n_gen)],
        [net9.vertex_order[i] for i in range(net9.n_gen, net9.n_bus)],
        [(net9.vertex_order[u], net9.vertex_order[v], 7.5 * b) for u, v, b in net9.edges],
    )
    for bset in itertools.islice(ops.enumerate_binding_sets(net9), 10):
        j1 = ops.jacobian_from_binding(net9, bset).jac
        j2 = ops.jacobian_from_binding(scaled, bset).jac
        assert np.abs(j1 - j2).max() < 1e-9


def _random_network(rng, n_bus=10, n_gen=3, extra=4):
    """A random spanning tree plus ``extra`` further edges, susceptances
    log-uniform in 1e-3..1e3."""
    order = rng.permutation(n_bus)
    edges = {tuple(sorted((int(order[k]), int(order[rng.integers(k)])))) for k in range(1, n_bus)}
    while len(edges) < n_bus - 1 + extra:
        edges.add(tuple(sorted(int(v) for v in rng.choice(n_bus, 2, replace=False))))
    return assemble_network(
        list(range(n_gen)), list(range(n_gen, n_bus)),
        [(u, v, float(10.0 ** rng.uniform(-3.0, 3.0))) for u, v in sorted(edges)],
    )


def test_independence_agrees_across_entry_points():
    """One independence test: every set the scan yields is accepted by
    independence_check and jacobian_from_binding, and every candidate it
    skips is rejected by both, on random networks whose susceptances span
    six decades."""
    rng = np.random.default_rng(7)
    accepted = 0
    for _ in range(30):
        net = _random_network(rng)
        scanned = set(ops.enumerate_binding_sets(net))
        for key in candidate_sets(net):
            bset = BindingSet(*key)
            if bset in scanned:
                assert ops.independence_check(net, bset)
                ops.jacobian_from_binding(net, bset)
            else:
                assert not ops.independence_check(net, bset)
                with pytest.raises(DependentBindings):
                    ops.jacobian_from_binding(net, bset)
        accepted += len(scanned)
    assert accepted > 1000


def test_ptdf_basis_against_grounded_inverse(net9, chain18):
    """The cached basis is the pool times the inverse Laplacian grounded at
    bus 0, with exact unit generator rows."""
    for net in (net9, chain18[0]):
        n_g = net.n_gen
        x = np.zeros((net.n_bus, net.n_bus))
        x[1:, 1:] = np.linalg.inv(net.laplacian[1:, 1:])
        pool = np.vstack([net.laplacian[:n_g], net.flow_matrix])
        basis = net.ptdf_basis
        assert np.abs(basis.pool_n - pool @ x[:, 1:n_g]).max() < 1e-12
        assert np.abs(basis.pool_p - pool @ x[:, n_g:]).max() < 1e-12
        assert (basis.pool_n[0] == -1.0).all() and (basis.pool_p[0] == -1.0).all()
        assert np.array_equal(basis.pool_n[1:n_g], np.eye(n_g - 1))
        assert not basis.pool_p[1:n_g].any()


def test_load_columns_solve_bit_for_bit(chain18):
    """Solving a chunk's accepted sets for a subset of load columns gives
    those columns of the all-column solve bit for bit, and a set's
    jacobian_from_binding is its row of the chunk, also bit for bit."""
    net = chain18[0]
    keys = list(itertools.islice(candidate_sets(net), 0, 20000, 40))
    rows = np.array([pool_rows(net, BindingSet(*key)) for key in keys])
    lu, piv, ok = reduced_factors(net, rows)
    factors = (lu[ok], piv[ok])
    full = reduced_jacobians(net, rows[ok], factors, np.arange(net.n_load))
    for loads in ([3], [0, 4, 8], [8, 1]):
        part = reduced_jacobians(net, rows[ok], factors, np.array(loads))
        assert np.array_equal(part, full[:, :, loads])
    assert np.array_equal(reduced_jacobians(net, rows[ok], factors, np.array([], int)),
                          full[:, :, :0])
    for t in np.flatnonzero(ok)[::25]:
        jac = ops.jacobian_from_binding(net, BindingSet(*keys[t])).jac
        assert np.array_equal(jac, full[np.count_nonzero(ok[:t])])


def _compare_full_stack(net, keys, jac_tol):
    """Candidates whose k x k verdict differs from the full-stack one; every
    accepted set's Jacobian must match the full-stack solve within
    ``jac_tol(bset)`` relative to its largest entry."""
    flips = []
    for key in keys:
        bset = BindingSet(*key)
        mine = ops.independence_check(net, bset)
        if mine != oracles.full_stack_independent(net, bset):
            flips.append(key)
        if mine:
            jac = ops.jacobian_from_binding(net, bset).jac
            ref = oracles.full_stack_jacobian(net, bset)
            assert np.abs(jac - ref).max() <= jac_tol(bset) * np.abs(ref).max(), key
    return flips


def test_reduced_test_matches_full_stack(net9, chain18):
    """All 66 candidates of case9 and a seeded sample of 2000 of the 53130
    of the 18-bus chain: the k x k verdict is the full stack's, and every
    accepted Jacobian is np.linalg.solve's on the full stack within 1e-10."""
    net = chain18[0]
    cands = list(candidate_sets(net))
    sample = [cands[k] for k in np.random.default_rng(0).choice(len(cands), 2000, replace=False)]
    assert _compare_full_stack(net9, candidate_sets(net9), lambda bset: 1e-10) == []
    assert _compare_full_stack(net, sample, lambda bset: 1e-10) == []


#: (network, set) pairs of the 30 seeded random networks below that the
#: k x k test accepts and the full-stack test rejects. All are nonsingular in
#: exact arithmetic, with S N condition numbers 1e7 to 6e9; the full stack's
#: pivot ratio falls to RANK_REL_TOL because its rows mix susceptances six
#: decades apart.
FULL_STACK_ONLY_REJECTS = {
    (3, ((), (2, 5))), (3, ((), (2, 9))), (3, ((), (2, 11))),
    (3, ((), (5, 9))), (3, ((), (5, 11))),
    (5, ((), (1, 6))), (5, ((), (1, 7))), (5, ((1,), (6,))), (5, ((1,), (7,))),
    (24, ((), (3, 11))),
}


def test_reduced_test_on_random_networks():
    """The random networks of test_independence_agrees_across_entry_points.
    Verdicts agree with the full stack except on FULL_STACK_ONLY_REJECTS,
    each confirmed nonsingular by exact elimination. Jacobians agree within
    1e-10 relative, or within eps * cond_1 of the full stack where that
    stack is too ill conditioned for its own solve to be that accurate."""
    rng = np.random.default_rng(7)
    eps = np.finfo(float).eps
    nets, flips = [], set()
    for t in range(30):
        net = _random_network(rng)
        nets.append(net)
        tol = lambda bset: max(1e-10, eps * np.linalg.cond(oracles.build_z_stack(net, bset), 1))
        flips |= {(t, key) for key in _compare_full_stack(net, candidate_sets(net), tol)}
    assert flips == FULL_STACK_ONLY_REJECTS
    for t, key in flips:
        assert ops.independence_check(nets[t], BindingSet(*key))
        assert not oracles.exactly_singular(oracles.build_z_stack(nets[t], BindingSet(*key)))

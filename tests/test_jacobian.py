"""Jacobian construction, the reduced independence test against the full
constraint stack, and the finite-difference cross-check."""

from __future__ import annotations

import itertools
import math
import operator
import pickle
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import opfsens as ops
from opfsens import dcopf, sensitivity
from opfsens.errors import CardinalityViolation, DependentBindings, InvalidLoad, RegionBoundary
from opfsens.jacobian import BindingSet, pool_rows, reduced_solve, set_batch
from opfsens.network import assemble_network

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


def test_binding_set_value_semantics():
    """A slotted BindingSet keeps the value semantics of the plain frozen
    dataclass: pickle round trip, equality, field-tuple ordering and hash,
    the same rejection messages, and no per-instance dict."""
    a, b, c = BindingSet((0, 2), (1, 5)), BindingSet((0, 2), (3,)), BindingSet((), (0, 1))
    assert pickle.loads(pickle.dumps(a)) == a
    assert a == BindingSet((0, 2), (1, 5)) and a != b
    assert hash(a) == hash(((0, 2), (1, 5)))
    assert sorted([b, a, c]) == [c, a, b]
    assert not hasattr(a, "__dict__")
    with pytest.raises(FrozenInstanceError):
        a.gens = ()
    with pytest.raises(CardinalityViolation, match=r"^generator set \(2, 0\) not strictly increasing$"):
        BindingSet((2, 0), ())
    with pytest.raises(CardinalityViolation, match=r"^branch set \(1, 5, 5\) not strictly increasing$"):
        BindingSet((), (1, 5, 5))


def test_cardinality_enforced(net9):
    oversized = BindingSet(gens=(0, 1), branches=(0,))
    with pytest.raises(CardinalityViolation):
        ops.independence_check(net9, oversized)
    with pytest.raises(CardinalityViolation):
        ops.jacobian_from_binding(net9, oversized)


@pytest.mark.parametrize("gens, branches", [
    ((0,), (-1,)),   # pool row n_gen - 1 would be generator 2
    ((-1,), (3,)),
    ((), (2, 9)),
    ((1, 3), ()),
])
def test_member_indices_must_be_in_range(net9, gens, branches):
    """A negative or too large generator or branch index is a
    CardinalityViolation from both entry points, not another set's answer
    or a numpy error."""
    bset = BindingSet(gens, branches)
    with pytest.raises(CardinalityViolation, match="not all in range"):
        ops.independence_check(net9, bset)
    with pytest.raises(CardinalityViolation, match="not all in range"):
        ops.jacobian_from_binding(net9, bset)


@pytest.mark.parametrize("gens, branches", [
    ((0,), (2.7,)),
    ((0.5,), (3,)),
    ((), (1, 2.0)),
])
def test_member_indices_must_be_integers(net9, gens, branches):
    """A member that is not an integer is a CardinalityViolation from both
    entry points, not truncated to another set's answer or a numpy error."""
    bset = BindingSet(gens, branches)
    with pytest.raises(CardinalityViolation, match="not all integers"):
        ops.independence_check(net9, bset)
    with pytest.raises(CardinalityViolation, match="not all integers"):
        ops.jacobian_from_binding(net9, bset)


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


@pytest.mark.parametrize("step", [0.0, -1e-4, np.nan, np.inf, "a", None, 1j, True])
def test_finite_diff_step_must_be_finite_and_positive(net9, params9, loads9, monkeypatch, step):
    """A step that is zero, negative, not finite or not a real number (a
    bool is not one) is an InvalidLoad raised before any LP is solved, not
    an all-NaN Jacobian or a bare TypeError."""
    monkeypatch.setattr(dcopf, "solve_opf", None)  # any LP solve would fail with a TypeError
    with pytest.raises(InvalidLoad, match="step must be finite and positive"):
        ops.jacobian_finite_diff(net9, params9, loads9, step=step)


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
        for key in oracles.lex_candidates(net):
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
    bus 0; referenced at each generator it gives the angles of a unit
    transfer to that generator, with exact generator rows; at generator 0
    it is the earlier S N basis."""
    for net in (net9, chain18[0]):
        n_g = net.n_gen
        x = np.zeros((net.n_bus, net.n_bus))
        x[1:, 1:] = np.linalg.inv(net.laplacian[1:, 1:])
        pool = np.vstack([net.laplacian[:n_g], net.flow_matrix])
        by_bus = net.ptdf_basis
        assert by_bus.shape == (net.n_bus, n_g + net.n_edge)
        for r in range(n_g):
            table = by_bus - by_bus[r]
            assert np.abs(table.T - pool @ (x - x[:, [r]])).max() < 1e-12
            gen_rows = np.zeros((n_g, net.n_bus))
            gen_rows[:, :n_g] = np.eye(n_g)
            gen_rows[r] = -1.0
            gen_rows[r, r] = 0.0
            assert np.array_equal(table[:, :n_g].T, gen_rows)
        # referenced at generator 0, the basis is the S N one, bit for bit
        pool_n, pool_p = oracles.sn_basis(net)
        assert np.array_equal(by_bus[1:n_g].T, pool_n)
        assert np.array_equal(by_bus[n_g:].T, pool_p)


def _batch(net, rows):
    """A SetBatch of candidate rows in any order: each run of rows that
    binds the same generators is one part."""
    rows = np.asarray(rows, dtype=np.intp)
    gens = [tuple(v for v in row if v < net.n_gen) for row in rows.tolist()]
    starts = [i for i in range(len(rows)) if i == 0 or gens[i] != gens[i - 1]]
    return set_batch(net.n_gen, net.n_edge, [
        (gens[i], rows[i:j]) for i, j in zip(starts, starts[1:] + [len(rows)])])


def _path_network(n_branches):
    """Two generators at the ends of a path of ``n_branches`` branches, the
    loads between them."""
    buses = ["g0", *range(1, n_branches), "g1"]
    edges = [(u, v, 1.0 + k % 7 / 8) for k, (u, v) in enumerate(zip(buses, buses[1:]))]
    return assemble_network(["g0", "g1"], buses[1:-1], edges)


def test_compact_offsets_do_not_wrap():
    """A batch whose gather offsets pass 65535, the 16-bit dtypes: on a
    path of 300 branches (302 pool rows), 690 sets whose generator subsets
    alternate, so each set is a group of its own, solve bit for bit as each
    set's own block does."""
    net = _path_network(300)
    rng = np.random.default_rng(5)
    rows = np.array([[v] for k in range(230) for v in (0, 2 + rng.integers(300), 1)])
    batch = _batch(net, rows)
    assert len(batch.cols) == len(rows) and batch.at.max() > 65535
    loads = rng.permutation(net.n_load)[:40]
    solved, jac = _solve(net, batch, loads)
    with np.errstate(divide="ignore", invalid="ignore"):
        want_ok, want = oracles.block_solve(net, rows, loads)
    assert np.array_equal(solved.rows, rows[want_ok]) and want_ok.all()
    assert solved.sets() == [BindingSet(*key) for key in oracles.row_keys(net, rows)]
    assert _same_bits(jac, want)


def _solve(net, batch, loads):
    """``reduced_solve``'s passed sets and their Jacobians, assembled by
    ``Solved.jacobian_rows``."""
    solved = reduced_solve(net, batch, loads)
    return solved, solved.jacobian_rows(range(net.n_gen))


def test_load_columns_solve_bit_for_bit(chain18):
    """Solving a chunk's accepted sets for a subset of load columns gives
    those columns of the all-column solve bit for bit, and a set's
    jacobian_from_binding is its row of the chunk, also bit for bit but for
    the sign of a zero."""
    net = chain18[0]
    keys = oracles.lex_candidates(net)[0:20000:40]
    batch = _batch(net, [pool_rows(net, BindingSet(*key)) for key in keys])
    solved, full = _solve(net, batch, np.arange(net.n_load))
    assert full.shape == (len(solved), net.n_gen, net.n_load)
    for loads in ([3], [0, 4, 8], [8, 1]):
        part_solved, part = _solve(net, batch, np.array(loads))
        assert np.array_equal(part_solved.rows, solved.rows)
        assert np.array_equal(part, full[:, :, loads])
    empty_solved, empty = _solve(net, batch, np.array([], int))
    assert np.array_equal(empty_solved.rows, solved.rows) and np.array_equal(empty, full[:, :, :0])
    passed = solved.sets()
    assert passed == [BindingSet(*key) for key in oracles.row_keys(net, solved.rows)]
    assert set(passed) <= {BindingSet(*key) for key in keys}
    assert all(map(operator.is_, solved.sets(), passed))  # interned: one object per set
    for k in range(0, len(passed), 25):
        jac = ops.jacobian_from_binding(net, passed[k]).jac
        assert _same_bits(jac, full[k])


def _same_bits(a, b):
    """Bitwise equality, but for the sign of a zero."""
    return a.shape == b.shape and np.array_equal((a + 0.0).view(np.uint8), (b + 0.0).view(np.uint8))


def _parts(net):
    """Every candidate set in lexicographic order, dead branches included:
    each block of rows of ``_subset_rows`` over all branches with the
    generator subset it binds."""
    return [(gens, rows) for gens in sensitivity._gen_subsets(net.n_gen)
            for rows in sensitivity._subset_rows(gens, range(net.n_edge), net.n_gen)]


@st.composite
def _solve_cases(draw):
    """A random connected network, a random draw of its candidate rows in
    random order, or of the rows of one generator subset, and a random
    ordered subset of its load columns."""
    n_bus = draw(st.integers(3, 10))
    n_gen = draw(st.integers(1, min(4, n_bus - 1)))
    extra = draw(st.integers(0, min(4, math.comb(n_bus, 2) - (n_bus - 1))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    net = _random_network(rng, n_bus, n_gen, extra)
    parts = _parts(net)
    if draw(st.booleans()):
        _, cands = parts[rng.integers(len(parts))]
    else:
        cands = np.concatenate([rows for _, rows in parts])
    rows = cands[rng.integers(len(cands), size=draw(st.integers(1, 300)))]
    loads = rng.permutation(net.n_load)[: draw(st.integers(0, net.n_load))]
    return net, rows, loads


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_solve_cases())
def test_reduced_solve_matches_oracle_pipeline(case):
    """Verdicts and Jacobians are bit for bit, but for the sign of a zero,
    those of each set's own reduced block factored and solved one set at a
    time, whether the batch holds one generator subset (each block at its
    own size) or spans several (blocks padded to the largest)."""
    net, rows, loads = case
    batch = _batch(net, rows)
    solved, jac = _solve(net, batch, loads)
    with np.errstate(divide="ignore", invalid="ignore"):
        want_ok, want = oracles.block_solve(net, rows, loads)
    assert np.array_equal(solved.rows, rows[want_ok])
    assert _same_bits(jac, want)


def _sn_agreement(net):
    """The scan's verdict on every candidate is the S N pipeline's, and
    every accepted Jacobian is within 1e-12 of it, relative to its largest
    entry. Returns the number of accepted sets."""
    rows = np.concatenate([rows for _, rows in _parts(net)])
    loads = np.arange(net.n_load)
    with np.errstate(divide="ignore", invalid="ignore"):
        want_ok, want = oracles.sn_solve(net, rows, loads)
    scanned = list(sensitivity._scan(net, loads))
    got_rows = np.concatenate([solved.rows for solved in scanned])
    got = np.concatenate([solved.jacobian_rows(range(net.n_gen)) for solved in scanned])
    assert np.array_equal(got_rows, rows[want_ok])
    err = np.abs(got - want).max(axis=(1, 2)) / np.abs(want).max(axis=(1, 2))
    assert err.max() <= 1e-12
    return len(got_rows)


def test_reduced_block_matches_sn_pipeline(net9, chain18):
    """Against the earlier S N kernel: every candidate of case9 and of the
    18-bus chain, and of the random networks of
    test_independence_agrees_across_entry_points and of the decomposition
    tests."""
    from test_decompose import RANDOM_SEEDS, _random_bridge_network

    assert _sn_agreement(net9) == 60
    assert _sn_agreement(chain18[0]) == 17640
    rng = np.random.default_rng(7)
    assert sum(_sn_agreement(_random_network(rng)) for _ in range(30)) > 1000
    assert sum(_sn_agreement(_random_bridge_network(seed)) for seed in RANDOM_SEEDS) > 100


def test_kept_jacobian_owns_its_data(net9, chain27):
    """A kept Jacobian is one array that owns its memory, not a view of the
    batch it was solved in."""
    for net in (net9, chain27[0]):
        bset = next(ops.enumerate_binding_sets(net))
        jac = ops.jacobian_from_binding(net, bset).jac
        assert jac.base is None and jac.flags.owndata
        assert jac.shape == (net.n_gen, net.n_load)


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
    cands = oracles.lex_candidates(net)
    sample = [cands[k] for k in np.random.default_rng(0).choice(len(cands), 2000, replace=False)]
    assert _compare_full_stack(net9, oracles.lex_candidates(net9), lambda bset: 1e-10) == []
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
        flips |= {(t, key) for key in _compare_full_stack(net, oracles.lex_candidates(net), tol)}
    assert flips == FULL_STACK_ONLY_REJECTS
    for t, key in flips:
        assert ops.independence_check(nets[t], BindingSet(*key))
        assert not oracles.exactly_singular(oracles.build_z_stack(nets[t], BindingSet(*key)))


@pytest.mark.parametrize("gens, branches, match", [
    ((-1,), (8,), "not all in range"),
    ((0,), (9,), "not all in range"),
    ((0,), (2.7,), "not all integers"),
    ((True,), (3,), "not all integers"),
    ((0,), (), "members"),
], ids=["negative-gen", "branch-past-end", "float-branch", "bool-gen", "too-few"])
def test_describe_checks_the_set(net9, gens, branches, match):
    """``describe`` names only the buses and branches of a set that fits the
    network: generator -1 is not load bus 9 by negative indexing."""
    with pytest.raises(CardinalityViolation, match=match):
        BindingSet(gens, branches).describe(net9)


def test_bool_members_are_refused(net9):
    """``True`` is no generator index: the set does not solve as generator
    1's."""
    bset = BindingSet((True,), (3,))
    for call in (ops.independence_check, ops.jacobian_from_binding):
        with pytest.raises(CardinalityViolation, match="not all integers"):
            call(net9, bset)
    assert BindingSet((1,), (3,)).describe(net9) == {"generators": [2], "branches": [[3, 6]]}


def test_list_members_are_stored_as_tuples(net9):
    """A set built from lists is the set built from tuples: it hashes, is
    ``==`` and gives the same Jacobian bytes; a member that is not iterable
    is refused."""
    listed, tupled = BindingSet([0], [3]), BindingSet((0,), (3,))
    assert listed.gens == (0,) and listed.branches == (3,)
    assert listed == tupled and hash(listed) == hash(tupled)
    assert len({listed, tupled, BindingSet((0,), [3])}) == 1
    assert (ops.jacobian_from_binding(net9, listed).jac.tobytes()
            == ops.jacobian_from_binding(net9, tupled).jac.tobytes())
    assert ops.independence_check(net9, BindingSet((0,), [3])) == ops.independence_check(net9, tupled)
    for gens, branches in ((0, (3,)), ((0,), None)):
        with pytest.raises(CardinalityViolation, match="is not a sequence of indices"):
            BindingSet(gens, branches)

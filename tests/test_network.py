"""Network assembly: matrices, ordering, per-unit conversion, chains."""

from __future__ import annotations

import dataclasses
import itertools
import logging
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import opfsens as ops
from opfsens.errors import (
    DanglingReference, DimensionMismatch, DisconnectedChain, DisconnectedGraph,
    DuplicateGeneratorBus, InvalidIndex, InvalidLimits, InvalidTie, OpfSensError, ZeroReactance,
)
from opfsens.linalg import numerical_rank
from opfsens.network import UNLIMITED_FLOW_PU, assemble_network

import oracles
from test_sensitivity import _bridge_and_random_networks


def test_case9_shape(net9):
    assert (net9.n_bus, net9.n_gen, net9.n_load, net9.n_edge) == (9, 3, 6, 9)
    assert net9.vertex_order[:3] == (1, 2, 3)
    assert net9.vertex_order[3:] == (4, 5, 6, 7, 8, 9)


def test_susceptance_is_inverse_reactance(net9):
    # first branch: x = 0.0576
    assert net9.susceptances[0] == pytest.approx(1.0 / 0.0576)
    single = assemble_network([1], [2], [(1, 2, 1.0 / 0.1)])
    assert single.susceptances[0] == pytest.approx(10.0)


def test_laplacian_row_sums(net9):
    assert np.abs(net9.laplacian.sum(axis=1)).max() < 1e-12


def test_laplacian_rank(net9):
    assert numerical_rank(net9.laplacian) == net9.n_bus - 1
    # symmetric PSD with a single zero eigenvalue
    w = np.linalg.eigvalsh(net9.laplacian)
    assert w[0] == pytest.approx(0.0, abs=1e-9)
    assert w[1] > 1e-6


def test_incidence_consistency(net9):
    rebuilt = net9.incidence @ np.diag(net9.susceptances) @ net9.incidence.T
    assert np.abs(rebuilt - net9.laplacian).max() < 1e-12


def test_per_unit_conversion(case9, params9):
    assert params9.gen_upper.tolist() == [2.5, 3.0, 2.7]
    assert params9.gen_lower.tolist() == [0.1, 0.1, 0.1]
    assert params9.flow_upper[0] == 2.5
    assert params9.cost.tolist() == [5.0, 1.2, 1.0]


def test_nominal_loads(case9, net9):
    loads = ops.nominal_loads(case9, net9)
    assert loads.tolist() == [0.0, 0.9, 0.0, 1.0, 0.0, 1.25]


def test_build_deterministic(case9):
    n1, p1 = ops.build_network(case9)
    n2, p2 = ops.build_network(case9)
    assert np.array_equal(n1.laplacian, n2.laplacian)
    assert np.array_equal(n1.incidence, n2.incidence)
    assert np.array_equal(p1.cost, p2.cost)
    assert n1.vertex_order == n2.vertex_order


def test_zero_reactance(case9_text):
    text = case9_text.replace("	1	4	0	0.0576", "	1	4	0	0")
    with pytest.raises(ZeroReactance):
        ops.build_network(ops.parse_matpower(text))


def test_non_finite_values_are_domain_errors():
    """A non-finite or non-real susceptance, a bool among them, is no
    reactance, and a non-finite cost or limit an invalid limit; neither reaches the LP or the
    scan, and no bare TypeError escapes."""
    for b in (np.nan, np.inf, "x", 1j, None, [1.0], True, np.True_):
        with pytest.raises(ZeroReactance):
            assemble_network([1], [2], [(1, 2, b)])
    net = assemble_network([1, 2, 3], [4], [(1, 4, 1.0), (2, 4, 1.0), (3, 4, 1.0)])
    ok = ops.OpfParams(cost=np.ones(3), gen_upper=np.ones(3), gen_lower=np.zeros(3),
                       flow_upper=np.ones(3), flow_lower=-np.ones(3))
    ok.validate(net)
    for name in ("cost", "gen_upper", "gen_lower", "flow_upper", "flow_lower"):
        for bad in (np.nan, np.inf, -np.inf):
            arr = getattr(ok, name).copy()
            arr[1] = bad
            with pytest.raises(InvalidLimits, match=name):
                dataclasses.replace(ok, **{name: arr}).validate(net)


@pytest.mark.parametrize("edge", [(1, 2), (1, 2, 1.0, 3), 5, None])
def test_edge_that_is_not_a_triple_is_a_domain_error(edge):
    """An edge that is not a ``(u, v, susceptance)`` triple is
    DimensionMismatch naming the edge, not a bare ValueError or TypeError."""
    with pytest.raises(DimensionMismatch, match=f"^edge {re.escape(repr(edge))} is not a"):
        assemble_network([1], [2], [edge])


def _validate(**fields):
    """Validate case9's limits with ``fields`` replaced."""
    return lambda net9, params9: dataclasses.replace(params9, **fields).validate(net9)


@pytest.mark.parametrize("call, error, message", [
    (_validate(cost=[1.0, 2.0]), DimensionMismatch, "cost has shape (2,), want (3,)"),
    (_validate(gen_lower=[0.1, -0.1, 0.1]), InvalidLimits,
     "generator lower limits must be nonnegative"),
    (_validate(flow_upper=[-3.0] * 9), InvalidLimits, "flow lower limit exceeds upper limit"),
    (_validate(cost=[1.0, 1.2, -1.0]), InvalidLimits, "costs must be nonnegative"),
    (lambda net9, params9: assemble_network([1, 2], [2], [(1, 2, 1.0)]), DuplicateGeneratorBus,
     "duplicate vertex labels in (1, 2, 2)"),
], ids=["field-shape", "negative-gen-lower", "inverted-flow-limits", "negative-cost",
        "duplicate-labels"])
def test_network_domain_errors(net9, params9, call, error, message):
    """Limits that do not fit the network, and a network with a bus label
    twice, are domain errors with messages that name the fault."""
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(net9, params9)


def test_negative_pmin_is_clamped_with_a_warning(case9_text, caplog):
    """A negative Pmin (generator 0's, -10 MW) becomes a lower limit of 0,
    and the clamp is logged."""
    row = "\t1\t250\t10\t"  # status, Pmax and Pmin of generator 0
    assert case9_text.count(row) == 1
    case = ops.parse_matpower(case9_text.replace(row, "\t1\t250\t-10\t"))
    with caplog.at_level(logging.WARNING, logger="opfsens"):
        _, params = ops.build_network(case)
    assert params.gen_lower.tolist() == [0.0, 0.1, 0.1]
    assert "generator 0: clamping negative lower limit -0.1 to 0" in caplog.messages


def test_duplicate_generator_bus(case9_text):
    text = case9_text.replace(
        "	2	163	6.54	300	-300	1.025	100	1	300	10	0	0	0	0	0	0	0	0	0	0	0;",
        "	1	163	6.54	300	-300	1.025	100	1	300	10	0	0	0	0	0	0	0	0	0	0	0;",
    )
    with pytest.raises(DuplicateGeneratorBus):
        ops.build_network(ops.parse_matpower(text))


def test_unlimited_rate_a(case9_text):
    text = case9_text.replace("	1	4	0	0.0576	0	250", "	1	4	0	0.0576	0	0")
    net, params = ops.build_network(ops.parse_matpower(text))
    assert params.flow_upper[0] == UNLIMITED_FLOW_PU
    assert params.flow_lower[0] == -UNLIMITED_FLOW_PU


def test_chain_27(chain27):
    net, params = chain27
    assert (net.n_bus, net.n_gen, net.n_load, net.n_edge) == (27, 9, 18, 29)
    assert net.vertex_order[:9] == ("1", "2", "3", "1'", "2'", "3'", "1''", "2''", "3''")
    assert params.cost.shape == (9,)
    assert params.flow_upper.shape == (29,)


def test_chain_requires_two_copies(net9, params9):
    with pytest.raises(InvalidTie):
        ops.build_chain(net9, params9, 1, [ops.TieLine(0, 7, 0, 4)])


def test_chain_tie_validation(net9, params9):
    with pytest.raises(InvalidTie):
        ops.build_chain(net9, params9, 2, [ops.TieLine(0, 7, 5, 4)])
    with pytest.raises(InvalidTie):
        ops.build_chain(net9, params9, 2, [ops.TieLine(0, 99, 1, 4)])
    with pytest.raises(InvalidTie):
        ops.build_chain(net9, params9, 2, [])


def test_chain_disconnected(net9, params9):
    # both tie endpoints inside copy 0 leave copy 1 stranded
    with pytest.raises(DisconnectedChain):
        ops.build_chain(net9, params9, 2, [ops.TieLine(0, 7, 0, 4)])


def test_two_copy_chain_tie_is_bridge(chain18):
    """The single tie must be the unique bridge joining the two copies,
    confirmed against a delete-one-edge connectivity oracle."""
    net, _ = chain18
    assert (net.n_bus, net.n_edge) == (18, 19)

    bridges_oracle = [e for e in range(net.n_edge)
                      if len(oracles.csgraph_components(net.n_bus, net.edges, {e})) > 1]
    tie_edge = net.n_edge - 1  # ties are appended last
    assert tie_edge in bridges_oracle
    cross = [
        e for e, (u, v, _) in enumerate(net.edges)
        if (str(net.vertex_order[u]).endswith("'")) != (str(net.vertex_order[v]).endswith("'"))
    ]
    assert cross == [tie_edge]


def test_chain_default_tie_parameters(net9, params9, chain18):
    net, params = chain18
    assert net.edges[-1][2] == pytest.approx(net9.edges[0][2])
    assert params.flow_upper[-1] == pytest.approx(params9.flow_upper[0])
    # explicit overrides win
    net2, params2 = ops.build_chain(
        net9, params9, 2, [ops.TieLine(0, 7, 1, 4, susceptance=3.5, flow_limit=1.25)]
    )
    assert net2.edges[-1][2] == 3.5
    assert params2.flow_upper[-1] == 1.25


def test_chain_config_round_trip(tmp_path, net9, params9):
    cfg = tmp_path / "chain.json"
    cfg.write_text(
        '{"copies": 2, "ties": [{"from": {"copy": 0, "bus": 7},'
        ' "to": {"copy": 1, "bus": 4}}]}',
        encoding="utf-8",
    )
    copies, ties = ops.load_chain_config(cfg)
    assert copies == 2
    assert ties == [ops.TieLine(0, 7, 1, 4)]
    net, _ = ops.build_chain(net9, params9, copies, ties)
    assert net.n_bus == 18


def _random_graphs(seed: int, count: int = 200):
    """Seeded random multigraphs on 1 to 11 vertices, often disconnected:
    ``(n_bus, edges)`` with ``(u, v, susceptance)`` edges, no self-loops."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 12))
        pairs = rng.integers(0, n, size=(int(rng.integers(0, 2 * n)), 2)).tolist()
        yield n, [(u, v, float(rng.uniform(0.5, 2.0))) for u, v in pairs if u != v]


def test_assemble_rejects_exactly_the_disconnected_graphs():
    """``assemble_network`` raises :class:`DisconnectedGraph` exactly when
    scipy finds more than one component."""
    outcomes = set()
    for n, edges in _random_graphs(42):
        n_gen = 1 + n // 3
        labeled = [(u + 1, v + 1, b) for u, v, b in edges]
        connected = len(oracles.csgraph_components(n, edges)) == 1
        outcomes.add(connected)
        if connected:
            assert assemble_network(range(1, n_gen + 1), range(n_gen + 1, n + 1), labeled).n_bus == n
        else:
            with pytest.raises(DisconnectedGraph):
                assemble_network(range(1, n_gen + 1), range(n_gen + 1, n + 1), labeled)
    assert outcomes == {True, False}


def test_assemble_rejects_a_network_without_buses():
    """A network needs a bus for its graph walk to start from."""
    with pytest.raises(DisconnectedGraph, match="no buses"):
        assemble_network([], [], [])


@st.composite
def _multigraphs(draw):
    """A random connected network on 2 to 9 buses: a random spanning tree
    and up to six more branches, each a copy of an earlier branch half the
    time, so parallel branches are common, all in a random order."""
    n = draw(st.integers(2, 9))
    label = draw(st.permutations(range(n)))
    edges = [(label[k], label[draw(st.integers(0, k - 1))]) for k in range(1, n)]
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.booleans()):
            edges.append(draw(st.sampled_from(edges)))
        else:
            edges.append(tuple(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                                             unique=True))))
    return assemble_network([0], list(range(1, n)),
                            [(u, v, 1.0) for u, v in draw(st.permutations(edges))])


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_multigraphs())
def test_graph_tables_match_separating_buses(net):
    """The block table, bridges and side table against the components of
    the network less one bus (:func:`oracles.csgraph_components`), an edge
    at the removed bus going with its other end: two edges share a block
    exactly when no bus's removal puts them in different components, and a
    block's head is its bus nearest bus 0, bus 0 itself or else the one bus
    whose removal cuts bus 0 off from the rest of the block. A bridge is an
    edge whose removal splits the network, and a bus meets a block at the
    block's one bus in its component of the network less the block's
    edges."""
    n, m, ends = net.n_bus, net.n_edge, [edge[:2] for edge in net.edges]
    less = []  # less[v][w]: the component of bus w in the network less bus v
    for v in range(n):
        parts = oracles.csgraph_components(n, net.edges, [e for e in range(m) if v in ends[e]])
        less.append({w: k for k, part in enumerate(parts) for w in part})

    def part(v, e):  # the component of edge e in the network less bus v
        u, w = ends[e]
        return less[v][w if u == v else u]

    block, heads, _ = net.blocks
    assert sorted(set(block)) == list(range(len(heads)))
    for e, f in itertools.combinations(range(m), 2):
        assert (block[e] == block[f]) == all(part(v, e) == part(v, f) for v in range(n)), (e, f)
    for b, head in enumerate(heads):
        inner = [e for e in range(m) if block[e] == b]
        buses = {w for e in inner for w in ends[e]}
        assert [head] == ([0] if 0 in buses else [
            h for h in sorted(buses) if all(less[h][0] != less[h][w] for w in buses - {h})])
        for beyond in oracles.csgraph_components(n, net.edges, inner):
            [meet] = buses.intersection(beyond)
            assert (net.sides[np.ix_(beyond, inner)] == meet).all()
    assert net.bridges == tuple(
        e for e in range(m) if len(oracles.csgraph_components(n, net.edges, [e])) > 1)


def test_separations_match_the_oracle(net9, chain18):
    """The separation-pair table holds each two-terminal region of the
    component oracle once, parallel branches included, on case9, the
    18-bus chain, the 30 random networks of the independence tests and the
    21 random bridge networks."""
    for net in [chain18[0], *itertools.chain(*_bridge_and_random_networks(net9))]:
        rows = [(tuple(np.flatnonzero(g).tolist()), tuple(np.flatnonzero(e).tolist()))
                for g, e in zip(*net.separations)]
        assert len(set(rows)) == len(rows)
        assert sorted(rows) == oracles.separation_regions(net)


def test_assemble_rejects_an_unknown_endpoint():
    """An edge endpoint that is not among the labels is a
    :class:`DanglingReference` naming the edge and the label."""
    for edges in ([(1, 3, 1.0)], [(3, 1, 1.0)], [(1, 2, 1.0), (2, "x", 1.0)]):
        with pytest.raises(DanglingReference, match=r"edge \(.*unknown bus (3|'x')"):
            assemble_network([1], [2], edges)


@pytest.mark.parametrize("query", [
    "worst_case_siso", "tied_argmax_sets", "worst_case_miso", "chain_partition",
    "worst_case_decomposed", "local_sensitivity", "sample_lower_bound",
])
def test_pair_queries_reject_out_of_range_indices(query, net9, params9, loads9):
    """Every public query of one generator-load pair raises
    :class:`InvalidIndex` for a generator or load index of -1 or n, or one
    that is not an integer, which callers catch as an :class:`OpfSensError`
    or an ``IndexError``."""
    call = {
        "worst_case_siso": lambda g, l: ops.worst_case_siso(net9, g, l),
        "tied_argmax_sets": lambda g, l: ops.tied_argmax_sets(net9, g, l),
        "worst_case_miso": lambda g, l: ops.worst_case_miso(net9, g, [0, l]),
        "chain_partition": lambda g, l: ops.chain_partition(net9, g, l),
        "worst_case_decomposed": lambda g, l: ops.worst_case_decomposed(net9, g, l),
        "local_sensitivity": lambda g, l: ops.local_sensitivity(net9, params9, loads9, g, l),
        "sample_lower_bound": lambda g, l: ops.sample_lower_bound(
            net9, params9, g, l, loads9, loads9 + 0.1, samples=1),
    }[query]
    assert issubclass(InvalidIndex, OpfSensError) and issubclass(InvalidIndex, IndexError)
    for gen, load in ((-1, 0), (net9.n_gen, 0), (0, -1), (0, net9.n_load),
                      (2.5, 1), (0.5, 1), (2, 4.7), (0, "1")):
        with pytest.raises(InvalidIndex):
            call(gen, load)
    if query == "worst_case_miso":  # a lone load, once truncated to 4
        with pytest.raises(InvalidIndex):
            ops.worst_case_miso(net9, 2, [4.7])


def test_pair_queries_accept_numpy_integers(net9):
    """Numpy integers index as their Python values do."""
    g, l = np.int64(2), np.intp(5)
    assert ops.worst_case_siso(net9, g, l) == ops.worst_case_siso(net9, 2, 5)
    assert ops.worst_case_miso(net9, g, [np.int32(1), l]) == ops.worst_case_miso(net9, 2, [1, 5])
    assert ops.chain_partition(net9, g, l) == ops.chain_partition(net9, 2, 5)


def test_pair_indices_refuse_bools(net9, params9, loads9):
    """A bool is no generator or load index, as in a chain config: ``True``
    does not answer for index 1, and no query fails with numpy's bare
    ``TypeError``."""
    calls = (
        lambda g, l: ops.worst_case_siso(net9, g, l),
        lambda g, l: ops.worst_case_miso(net9, g, [l]),
        lambda g, l: ops.local_sensitivity(net9, params9, loads9, g, l),
        lambda g, l: ops.sample_lower_bound(net9, params9, g, l, loads9, loads9 + 0.1, samples=1),
    )
    for call in calls:
        for gen, load in ((True, 1), (1, True), (np.False_, 1)):
            with pytest.raises(InvalidIndex, match="not an integer"):
                call(gen, load)


def test_opf_params_accept_sequences(net9, params9, loads9):
    """Lists solve case9 as the arrays they hold do; a float array is kept
    as the same object, and a field that is not numbers, text and bools
    included, is InvalidLimits."""
    fields = {f.name: getattr(params9, f.name) for f in dataclasses.fields(params9)}
    as_lists = ops.OpfParams(**{k: v.tolist() for k, v in fields.items()})
    assert all(getattr(as_lists, k).dtype == float for k in fields)
    sol, ref = ops.solve_opf(net9, as_lists, loads9), ops.solve_opf(net9, params9, loads9)
    assert sol.objective == ref.objective
    assert np.array_equal(sol.gen, ref.gen)
    assert all(getattr(ops.OpfParams(**fields), k) is v for k, v in fields.items())
    for bad in ("cheap", ["1", "x", "2"], [1.0, [2.0], 3.0], [10**400, 1.0, 1.0],
                ["1", "2", "3"], [True] * 3, [1.0, 1.0, True]):
        with pytest.raises(InvalidLimits, match="cost"):
            ops.OpfParams(**{**fields, "cost": bad})


@pytest.mark.parametrize("copies, tie", [
    (2.0, ops.TieLine(0, 7, 1, 4)),
    ("2", ops.TieLine(0, 7, 1, 4)),
    (2, ops.TieLine(0.0, 7, 1, 4)),
    (2, ops.TieLine(0, 7, 1.0, 4)),
    (2, ops.TieLine(False, 7, True, 4)),
    (2, ops.TieLine(0, 7.0, 1, 4)),
    (2, ops.TieLine(0, True, 1, 4)),
    (2, ops.TieLine(0, [7], 1, 4)),
    (2, ops.TieLine(0, 7, 1, 4, susceptance="1")),
    (2, ops.TieLine(0, 7, 1, 4, susceptance=True)),
    (2, ops.TieLine(0, 7, 1, 4, flow_limit=True)),
    (2, ops.TieLine(0, 7, 1, 4, flow_limit=[2.5])),
    (2, (0, 7, 1, 4)),
    (2, None),
], ids=["float-copies", "str-copies", "float-from-copy", "float-to-copy", "bool-copies",
        "float-bus", "bool-bus", "list-bus", "str-susceptance", "bool-susceptance",
        "bool-limit", "list-limit", "tuple-tie", "none-tie"])
def test_chain_rules_apply_to_library_calls(net9, params9, copies, tie):
    """``build_chain`` applies the chain config's rules itself: a float,
    string or bool copy, a float or bool bus, a non-real or bool
    susceptance or limit and a tie that is not a TieLine are each
    InvalidTie, not a bare TypeError, AttributeError or a dangling
    ``'7.0'`` label."""
    with pytest.raises(InvalidTie, match="has type"):
        ops.build_chain(net9, params9, copies, [tie])


@pytest.mark.parametrize("ties", [5, 7.0, None])
def test_ties_that_are_not_a_collection_are_invalid(net9, params9, ties):
    """``ties`` that cannot be iterated are InvalidTie, not a bare
    TypeError from the tie loop."""
    with pytest.raises(InvalidTie, match="is not a collection of tie lines"):
        ops.build_chain(net9, params9, 2, ties)


def test_chain_number_too_large_for_a_float(net9, params9):
    """An integer susceptance or limit beyond float range, as JSON can
    write one, is InvalidTie, not a bare OverflowError."""
    for field in ("susceptance", "flow_limit"):
        with pytest.raises(InvalidTie, match="too large for a float"):
            ops.build_chain(net9, params9, 2, [ops.TieLine(0, 7, 1, 4, **{field: 10**400})])


def test_chain_rules_accept_numpy_numbers(net9, params9, chain18):
    """Numpy integers and floats pass the chain rules as their Python values
    do."""
    i = np.int64
    net, params = ops.build_chain(
        net9, params9, i(2), [ops.TieLine(i(0), i(7), i(1), np.int32(4),
                                          susceptance=np.float64(net9.edges[0][2]),
                                          flow_limit=np.float32(params9.flow_upper[0]))])
    ref_net, ref_params = chain18
    assert net.vertex_order == ref_net.vertex_order
    assert np.array_equal(net.laplacian, ref_net.laplacian)
    assert np.allclose(params.flow_upper, ref_params.flow_upper)

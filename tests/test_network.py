"""Network assembly: matrices, ordering, per-unit conversion, chains."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import opfsens as ops
from opfsens.errors import (
    DisconnectedChain, DisconnectedGraph, DuplicateGeneratorBus, InvalidLimits, InvalidTie,
    ZeroReactance,
)
from opfsens.linalg import numerical_rank
from opfsens.network import UNLIMITED_FLOW_PU, _adjacency, _components, assemble_network

import oracles


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
    assert numerical_rank(net9.laplacian, 1e-9) == net9.n_bus - 1
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
    """A non-finite susceptance is no reactance, and a non-finite cost or
    limit an invalid limit; neither reaches the LP or the scan."""
    for b in (np.nan, np.inf):
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


def test_components_match_csgraph():
    """The components walk, with random edges removed, gives scipy's
    partition, components in order of their least vertex."""
    rng = np.random.default_rng(41)
    for n, edges in _random_graphs(40):
        removed = {e for e in range(len(edges)) if rng.random() < 0.3}
        comps = _components(_adjacency(n, edges), removed)
        assert [tuple(sorted(c)) for c in comps] == oracles.csgraph_components(n, edges, removed)


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

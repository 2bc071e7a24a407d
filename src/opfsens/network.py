"""Power network model: vertex-partitioned graph, incidence/Laplacian matrices,
operating limits, and construction from MATPOWER cases or chained copies.

Internal vertex order is always generators first (indices ``0..n_gen-1``),
then loads. A MATPOWER case sorts each group by bus label; a chain orders
each group copy-major, and a decomposition stage keeps the order it is
given. Edges keep declaration order; the incidence column of edge ``(u, v)``
is ``+1`` at ``u`` and ``-1`` at ``v``.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    DisconnectedChain,
    DisconnectedGraph,
    DuplicateGeneratorBus,
    InvalidLimits,
    InvalidTie,
    ZeroReactance,
)
from .matpower import MatpowerCase

logger = logging.getLogger(__name__)

# per-unit stand-in for MATPOWER's rate_a = 0 ("unlimited") convention
UNLIMITED_FLOW_PU = 10.0

# per-unit upper limit of an offline generator's output window
OFFLINE_WINDOW_PU = 1e-5

Label = int | str


@dataclass(frozen=True)
class PtdfBasis:
    """The rows a binding set picks from, in a PTDF basis.

    ``X`` is the inverse Laplacian grounded at bus 0 (zero row and column
    0). ``N = X[:, 1:n_gen]`` holds the angles that unit injections at
    generators 2..n_gen produce, a basis of the angles that keep every load
    bus balanced and the reference angle at zero; ``theta_p = X[:, n_gen:]``
    holds the angles of unit injections at the load buses. The pool is the
    generator rows of the Laplacian followed by the flow matrix, so a
    binding generator's row of ``pool_n`` is a unit row (generator 1: all
    minus ones) and a binding branch's row is a row of PTDFs.
    """

    pool_n: np.ndarray   # pool @ N, (n_gen + n_edge) x (n_gen - 1)
    pool_p: np.ndarray   # pool @ theta_p, (n_gen + n_edge) x n_load


@dataclass(frozen=True, eq=False)
class Network:
    """Immutable graph model with precomputed matrices.

    Networks compare and hash by identity: their array fields have no
    elementwise ``==`` to derive one from, and per-network caches
    (:mod:`~opfsens.decompose`) key on them.

    Attributes
    ----------
    n_gen, n_load:
        Vertex partition sizes; ``n_bus = n_gen + n_load``.
    vertex_order:
        Internal index -> original bus label.
    edges:
        ``(u, v, susceptance)`` triples with internal vertex indices.
    incidence:
        ``n_bus x n_edge`` matrix, ``+1`` at ``u``, ``-1`` at ``v``.
    susceptances:
        Positive per-edge susceptance vector (per-unit).
    laplacian:
        ``incidence @ diag(susceptances) @ incidence.T``.
    flow_matrix:
        ``diag(susceptances) @ incidence.T``; row ``e`` maps angles to the
        flow on edge ``e``.
    """

    n_gen: int
    n_load: int
    vertex_order: tuple[Label, ...]
    edges: tuple[tuple[int, int, float], ...]
    incidence: np.ndarray
    susceptances: np.ndarray
    laplacian: np.ndarray
    flow_matrix: np.ndarray

    @property
    def n_bus(self) -> int:
        return self.n_gen + self.n_load

    @property
    def n_edge(self) -> int:
        return len(self.edges)

    def index_of(self, label: Label) -> int:
        try:
            return self.vertex_order.index(label)
        except ValueError:
            raise KeyError(f"no bus labeled {label!r}") from None

    def edge_label(self, e: int) -> tuple[Label, Label]:
        u, v, _ = self.edges[e]
        return self.vertex_order[u], self.vertex_order[v]

    @cached_property
    def ptdf_basis(self) -> PtdfBasis:
        """The network's :class:`PtdfBasis`, computed on first use.

        The generator rows of ``L @ X`` are exact: row 0 is all minus ones
        (the Laplacian's columns sum to zero) and row ``g > 0`` is the unit
        row ``g - 1``. The branch rows solve with the grounded Laplacian.
        """
        n, k = self.n_bus, self.n_gen - 1
        gen_rows = np.vstack([-np.ones((1, n - 1)), np.eye(k, n - 1)])
        ptdf = np.linalg.solve(self.laplacian[1:, 1:], self.flow_matrix[:, 1:].T).T
        pool = np.vstack([gen_rows, ptdf])
        pool_n, pool_p = np.ascontiguousarray(pool[:, :k]), np.ascontiguousarray(pool[:, k:])
        for arr in (pool_n, pool_p):
            arr.setflags(write=False)
        return PtdfBasis(pool_n=pool_n, pool_p=pool_p)


@dataclass(frozen=True)
class OpfParams:
    """Generation cost vector and operating limits, all per-unit."""

    cost: np.ndarray
    gen_upper: np.ndarray
    gen_lower: np.ndarray
    flow_upper: np.ndarray
    flow_lower: np.ndarray

    def validate(self, net: Network) -> None:
        for name, arr, want in (
            ("cost", self.cost, net.n_gen),
            ("gen_upper", self.gen_upper, net.n_gen),
            ("gen_lower", self.gen_lower, net.n_gen),
            ("flow_upper", self.flow_upper, net.n_edge),
            ("flow_lower", self.flow_lower, net.n_edge),
        ):
            if arr.shape != (want,):
                raise DimensionMismatch(f"{name} has shape {arr.shape}, want ({want},)")
            if not np.isfinite(arr).all():
                raise InvalidLimits(f"{name} has a non-finite entry")
        if np.any(self.gen_lower < 0):
            raise InvalidLimits("generator lower limits must be nonnegative")
        if np.any(self.gen_lower > self.gen_upper):
            raise InvalidLimits("generator lower limit exceeds upper limit")
        if np.any(self.flow_lower > self.flow_upper):
            raise InvalidLimits("flow lower limit exceeds upper limit")
        if np.any(self.cost < 0):
            raise InvalidLimits("costs must be nonnegative")


def _adjacency(
    n_bus: int, edges: Sequence[tuple[int, int, float]]
) -> list[list[tuple[int, int]]]:
    """The ``(neighbor, edge index)`` pairs of every vertex, from ``(u, v,
    susceptance)`` edges over internal vertex indices."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n_bus)]
    for e, (u, v, _) in enumerate(edges):
        adj[u].append((v, e))
        adj[v].append((u, e))
    return adj


def _components(
    adj: list[list[tuple[int, int]]], removed: set[int] | frozenset[int] = frozenset()
) -> list[list[int]]:
    """The vertices of each connected component of the graph once the edges
    ``removed`` are taken out, components in order of their least vertex."""
    seen = [False] * len(adj)
    components = []
    for s in range(len(adj)):
        if seen[s]:
            continue
        seen[s] = True
        comp, stack = [s], [s]
        while stack:
            for w, e in adj[stack.pop()]:
                if not seen[w] and e not in removed:
                    seen[w] = True
                    comp.append(w)
                    stack.append(w)
        components.append(comp)
    return components


def assemble_network(
    gen_labels: Sequence[Label],
    load_labels: Sequence[Label],
    edges: Sequence[tuple[Label, Label, float]],
    *,
    sort_labels: bool = True,
) -> Network:
    """Build a :class:`Network` from labeled vertices and edges.

    ``edges`` entries are ``(label_u, label_v, susceptance)``. Raises
    :class:`DisconnectedGraph` when the graph is not connected and
    :class:`ZeroReactance` for a susceptance that is not finite and positive.
    """
    gens = sorted(gen_labels) if sort_labels else list(gen_labels)
    loads = sorted(load_labels) if sort_labels else list(load_labels)
    order: tuple[Label, ...] = tuple(gens) + tuple(loads)
    if len(set(order)) != len(order):
        raise DuplicateGeneratorBus(f"duplicate vertex labels in {order!r}")
    pos = {lab: i for i, lab in enumerate(order)}
    n, m = len(order), len(edges)

    incidence = np.zeros((n, m))
    b = np.zeros(m)
    idx_edges = []
    for e, (lu, lv, be) in enumerate(edges):
        if not 0 < be < math.inf:
            raise ZeroReactance(
                f"edge ({lu!r},{lv!r}) has susceptance {be}, not finite and positive")
        u, v = pos[lu], pos[lv]
        incidence[u, e] = 1.0
        incidence[v, e] = -1.0
        b[e] = be
        idx_edges.append((u, v, float(be)))

    if len(_components(_adjacency(n, idx_edges))) > 1:
        raise DisconnectedGraph("network graph is not connected")

    flow_matrix = b[:, None] * incidence.T
    laplacian = incidence @ flow_matrix
    for arr in (incidence, b, laplacian, flow_matrix):
        arr.setflags(write=False)
    return Network(
        n_gen=len(gens),
        n_load=len(loads),
        vertex_order=order,
        edges=tuple(idx_edges),
        incidence=incidence,
        susceptances=b,
        laplacian=laplacian,
        flow_matrix=flow_matrix,
    )


def build_network(case: MatpowerCase) -> tuple[Network, OpfParams]:
    """Convert a parsed MATPOWER case into per-unit network and limits.

    Susceptance is ``1/x``; all powers are divided by baseMVA; generator
    vertices come first, stably ordered by original bus id. The linear cost
    coefficient is taken from the polynomial cost table (a nonzero quadratic
    term is reported and dropped). A ``rate_a`` of zero is MATPOWER for
    "unlimited" and maps to ``+/-UNLIMITED_FLOW_PU``.
    """
    gen_buses = case.gen_buses
    if len(set(gen_buses)) != len(gen_buses):
        raise DuplicateGeneratorBus("two generators on one bus are unsupported")
    load_buses = [b for b in case.bus_ids if b not in set(gen_buses)]

    edges = []
    flow_up = np.empty(case.n_branch)
    for e, (u, v) in enumerate(case.branch_endpoints):
        x = case.branch_reactance(e)
        if x <= 0:
            raise ZeroReactance(f"branch {e} ({u},{v}) has reactance {x}")
        edges.append((u, v, 1.0 / x))
        rate = case.branch_rate_a_mva(e)
        if rate == 0.0:
            logger.warning(
                "branch %d (%d,%d): rate_a = 0 treated as +/-%g p.u.", e, u, v, UNLIMITED_FLOW_PU
            )
            flow_up[e] = UNLIMITED_FLOW_PU
        else:
            flow_up[e] = rate / case.base_mva

    net = assemble_network(gen_buses, load_buses, edges)

    n_g = net.n_gen
    cost = np.empty(n_g)
    gen_up = np.empty(n_g)
    gen_lo = np.empty(n_g)
    decl_index = {b: g for g, b in enumerate(gen_buses)}
    for i in range(n_g):
        g = decl_index[net.vertex_order[i]]
        coeffs = case.cost_coefficients(g)
        linear = coeffs[-2] if len(coeffs) >= 2 else 0.0
        if len(coeffs) >= 3 and any(c != 0.0 for c in coeffs[:-2]):
            logger.warning(
                "generator %d: dropping nonlinear cost terms %s (linear model only)",
                g, coeffs[:-2],
            )
        cost[i] = linear
        pmin, pmax = case.gen_limits_mw(g)
        gen_up[i] = pmax / case.base_mva
        gen_lo[i] = pmin / case.base_mva
        if gen_lo[i] < 0:
            logger.warning("generator %d: clamping negative lower limit %g to 0", g, gen_lo[i])
            gen_lo[i] = 0.0

    params = OpfParams(
        cost=cost,
        gen_upper=gen_up,
        gen_lower=gen_lo,
        flow_upper=flow_up,
        flow_lower=-flow_up,
    )
    params.validate(net)
    return net, params


def nominal_loads(case: MatpowerCase, net: Network) -> np.ndarray:
    """Per-unit active demand of each load bus, in internal load order."""
    return np.array(
        [case.bus_demand_mw(net.vertex_order[net.n_gen + j]) / case.base_mva
         for j in range(net.n_load)]
    )


def offline_generator(params: OpfParams, gen: int) -> OpfParams:
    """Limits for a scenario where generator ``gen`` drops offline.

    The output window collapses to ``[0, OFFLINE_WINDOW_PU]`` rather than
    exactly zero: a zero-width window makes the upper and lower bound rows
    coincide, which breaks the independence assumptions behind the
    sensitivity machinery.
    """
    upper = params.gen_upper.copy()
    lower = params.gen_lower.copy()
    upper[gen] = OFFLINE_WINDOW_PU
    lower[gen] = 0.0
    return OpfParams(
        cost=params.cost,
        gen_upper=upper,
        gen_lower=lower,
        flow_upper=params.flow_upper,
        flow_lower=params.flow_lower,
    )


@dataclass(frozen=True)
class TieLine:
    """One chain tie: endpoints by (copy index, original bus label)."""

    from_copy: int
    from_bus: Label
    to_copy: int
    to_bus: Label
    susceptance: float | None = None
    flow_limit: float | None = None


def copy_label(bus: Label, copy: int) -> str:
    """Original label decorated with copy provenance: 4, 4', 4''. A negative
    copy raises :class:`InvalidTie`."""
    if copy < 0:
        raise InvalidTie(f"copy index {copy} of bus {bus!r} is negative")
    return str(bus) + "'" * copy


def build_chain(
    base: Network,
    base_params: OpfParams,
    copies: int,
    ties: Sequence[TieLine],
) -> tuple[Network, OpfParams]:
    """Chain ``copies`` identical copies of ``base`` joined by tie lines.

    Copy ``k`` gets labels suffixed with ``k`` prime marks. All generators of
    all copies come first in the internal order (copy-major); tie edges are
    appended after every copy's edges. A tie's susceptance and flow limit,
    given or inherited from the base network's first branch, must be finite
    and positive.
    """
    if copies < 2:
        raise InvalidTie(f"a chain needs at least 2 copies, got {copies}")
    if not ties:
        raise InvalidTie("a chain needs at least one tie line")

    default_b = base.edges[0][2]
    default_limit = float(base_params.flow_upper[0])

    gen_labels: list[str] = []
    load_labels: list[str] = []
    edges: list[tuple[str, str, float]] = []
    for k in range(copies):
        gen_labels += [copy_label(base.vertex_order[i], k) for i in range(base.n_gen)]
        load_labels += [
            copy_label(base.vertex_order[base.n_gen + j], k) for j in range(base.n_load)
        ]
        for (u, v, b) in base.edges:
            edges.append((copy_label(base.vertex_order[u], k),
                          copy_label(base.vertex_order[v], k), b))

    tie_limits = []
    valid = set(base.vertex_order)
    for t in ties:
        for copy, bus in ((t.from_copy, t.from_bus), (t.to_copy, t.to_bus)):
            if not 0 <= copy < copies:
                raise InvalidTie(f"tie copy index {copy} outside 0..{copies - 1}")
            if bus not in valid:
                raise InvalidTie(f"tie bus {bus!r} not in the base network")
        b = t.susceptance if t.susceptance is not None else default_b
        limit = t.flow_limit if t.flow_limit is not None else default_limit
        if not (0 < b < math.inf and 0 < limit < math.inf):
            raise InvalidTie(
                f"tie susceptance {b} and flow limit {limit} must be finite and positive")
        edges.append((copy_label(t.from_bus, t.from_copy),
                      copy_label(t.to_bus, t.to_copy), b))
        tie_limits.append(limit)

    try:
        net = assemble_network(gen_labels, load_labels, edges, sort_labels=False)
    except DisconnectedGraph as exc:
        raise DisconnectedChain(str(exc)) from exc

    params = OpfParams(
        cost=np.tile(base_params.cost, copies),
        gen_upper=np.tile(base_params.gen_upper, copies),
        gen_lower=np.tile(base_params.gen_lower, copies),
        flow_upper=np.concatenate([np.tile(base_params.flow_upper, copies), tie_limits]),
        flow_lower=np.concatenate(
            [np.tile(base_params.flow_lower, copies), [-l for l in tie_limits]]
        ),
    )
    params.validate(net)
    return net, params


def _config_value(value, kinds: tuple[type, ...], what: str):
    """``value`` when it is one of ``kinds`` and not a bool, else
    :class:`InvalidTie`."""
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise InvalidTie(f"{what} has type {type(value).__name__}: {value!r}")
    return value


def load_chain_config(path) -> tuple[int, list[TieLine]]:
    """Read a chain construction config (JSON) naming copies and ties.

    Format::

        {"copies": 3,
         "ties": [{"from": {"copy": 0, "bus": 7},
                   "to":   {"copy": 1, "bus": 8},
                   "susceptance": 17.4,      # optional
                   "flow_limit": 2.5}]}      # optional, per-unit

    Copies are integers, buses integer or string labels, and susceptance and
    flow limit numbers that :func:`build_chain` checks. A config that is not
    such a document raises :class:`InvalidTie`.
    """
    number = (int, float, type(None))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        copies = _config_value(doc["copies"], (int,), "copies")
        ties = [
            TieLine(
                from_copy=_config_value(t["from"]["copy"], (int,), "tie copy"),
                from_bus=_config_value(t["from"]["bus"], (int, str), "tie bus"),
                to_copy=_config_value(t["to"]["copy"], (int,), "tie copy"),
                to_bus=_config_value(t["to"]["bus"], (int, str), "tie bus"),
                susceptance=_config_value(t.get("susceptance"), number, "tie susceptance"),
                flow_limit=_config_value(t.get("flow_limit"), number, "tie flow limit"),
            )
            for t in doc["ties"]
        ]
    except (ValueError, KeyError, TypeError) as exc:
        raise InvalidTie(f"bad chain config: {exc}") from exc
    return copies, ties

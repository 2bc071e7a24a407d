"""Reference computations the tests check the package against, kept apart
from the package: the doubled-inequality standard form of the dispatch LP,
the candidate order built with ``itertools``, graph components from
``scipy.sparse.csgraph``, and the full
``n_bus x n_bus`` constraint stack with the independence test and Jacobian
that the package's reduced ``k x k`` kernel replaces, and the row-major
stacked LU that the package's batch-last kernel must reproduce bit for bit."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from opfsens.dcopf import check_load
from opfsens.errors import DimensionMismatch
from opfsens.jacobian import BindingSet
from opfsens.linalg import RANK_REL_TOL
from opfsens.network import Network, OpfParams


@dataclass(frozen=True)
class StandardFormLp:
    """All-inequality form ``A x <= b`` with ``x = [s_g; theta]``.

    Each equality appears as two opposite-sign rows. This form is the
    reference the independence test is checked against. ``row_tags`` names
    every row: ``slack+|slack-``, ``balance+(v)|balance-(v)``,
    ``gen-upper(i)`` / ``gen-lower(i)``, ``flow-upper(e)`` / ``flow-lower(e)``.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    row_tags: tuple[str, ...]


def standard_form(net: Network, params: OpfParams, load: np.ndarray) -> StandardFormLp:
    """Assemble the doubled-inequality standard form of the dispatch LP."""
    load = check_load(net, load)
    params.validate(net)
    n, n_g, m = net.n_bus, net.n_gen, net.n_edge
    if net.n_load == 0:
        raise DimensionMismatch("network has no load buses")

    lap = net.laplacian
    bct = net.flow_matrix
    w = np.zeros((n, n_g))
    w[:n_g, :] = np.eye(n_g)
    y = np.concatenate([np.zeros(n_g), -load])

    e1 = np.zeros(n)
    e1[0] = 1.0
    zeros_g = np.zeros(n_g)

    rows = [
        np.concatenate([zeros_g, e1])[None, :],
        -np.concatenate([zeros_g, e1])[None, :],
        np.hstack([-w, lap]),
        np.hstack([w, -lap]),
        np.hstack([np.eye(n_g), np.zeros((n_g, n))]),
        np.hstack([-np.eye(n_g), np.zeros((n_g, n))]),
        np.hstack([np.zeros((m, n_g)), bct]),
        np.hstack([np.zeros((m, n_g)), -bct]),
    ]
    a = np.vstack(rows)
    b = np.concatenate([
        [0.0, 0.0], y, -y,
        params.gen_upper, -params.gen_lower,
        params.flow_upper, -params.flow_lower,
    ])
    c = np.concatenate([params.cost, np.zeros(n)])

    labels = [str(v) for v in net.vertex_order]
    tags = (
        ["slack+", "slack-"]
        + [f"balance+({v})" for v in labels]
        + [f"balance-({v})" for v in labels]
        + [f"gen-upper({v})" for v in labels[:n_g]]
        + [f"gen-lower({v})" for v in labels[:n_g]]
        + [f"flow-upper({e})" for e in range(m)]
        + [f"flow-lower({e})" for e in range(m)]
    )
    return StandardFormLp(a=a, b=b, c=c, row_tags=tuple(tags))


def build_z_stack(net: Network, bset: BindingSet) -> np.ndarray:
    """The square constraint stack ``Z`` of a binding set: load rows of the
    Laplacian, binding-generator rows of the Laplacian, binding-branch rows
    of the flow matrix, reference-angle row."""
    e1 = np.zeros((1, net.n_bus))
    e1[0, 0] = 1.0
    return np.vstack([
        net.laplacian[net.n_gen :, :],
        net.laplacian[list(bset.gens), :],
        net.flow_matrix[list(bset.branches), :],
        e1,
    ])


def full_stack_independent(net: Network, bset: BindingSet) -> bool:
    """The independence test on the full stack: LU with partial pivoting,
    one matrix at a time, dependent when the smallest pivot is at most
    ``RANK_REL_TOL`` times the largest."""
    a = build_z_stack(net, bset).copy()
    n = len(a)
    pivots = np.empty(n)
    for j in range(n):
        p = j + int(np.argmax(np.abs(a[j:, j])))
        a[[j, p]] = a[[p, j]]
        pivots[j] = abs(a[j, j])
        if a[j, j] != 0.0:
            a[j + 1 :, j:] -= np.outer(a[j + 1 :, j] / a[j, j], a[j, j:])
    return bool(pivots.min() > RANK_REL_TOL * pivots.max())


def full_stack_jacobian(net: Network, bset: BindingSet) -> np.ndarray:
    """Signed Jacobian from ``np.linalg.solve`` on the full stack: the
    load-column block of ``-L_gen Z^-1``."""
    z_inv = np.linalg.solve(build_z_stack(net, bset), np.eye(net.n_bus))
    return -(net.laplacian[: net.n_gen] @ z_inv[:, : net.n_load])


def exactly_singular(a: np.ndarray) -> bool:
    """Whether a float matrix is singular, by elimination over its entries
    read as exact fractions."""
    m = [[Fraction(float(x)) for x in row] for row in a]
    n = len(m)
    for j in range(n):
        p = next((i for i in range(j, n) if m[i][j] != 0), None)
        if p is None:
            return True
        m[j], m[p] = m[p], m[j]
        for i in range(j + 1, n):
            if m[i][j] != 0:
                f = m[i][j] / m[j][j]
                m[i] = [x - f * y for x, y in zip(m[i], m[j])]
    return False


def lex_candidates(net: Network) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every generator/branch set of ``n_gen - 1`` members: generator subsets
    in prefix-lexicographic order (each subset before its extensions), each
    followed by its branch subsets in lexicographic order."""
    need = net.n_gen - 1
    gen_subsets = sorted(
        (sg for size in range(need + 1) for sg in combinations(range(net.n_gen), size)),
    )
    return [(sg, sb) for sg in gen_subsets
            for sb in combinations(range(net.n_edge), need - len(sg))]


def csgraph_components(n_bus: int, edges, removed=()) -> list[tuple[int, ...]]:
    """The connected components of the graph on ``range(n_bus)`` with edges
    ``(u, v, ...)`` less the edge indices ``removed``, from
    ``scipy.sparse.csgraph``: each as an ascending tuple, in order of their
    least vertex."""
    removed = set(removed)
    kept = [edge[:2] for e, edge in enumerate(edges) if e not in removed]
    rows, cols = zip(*kept) if kept else ((), ())
    graph = coo_matrix((np.ones(len(kept)), (rows, cols)), shape=(n_bus, n_bus))
    _, labels = connected_components(graph, directed=False)
    comps: dict[int, list[int]] = {}
    for v, label in enumerate(labels.tolist()):
        comps.setdefault(label, []).append(v)
    return sorted(tuple(c) for c in comps.values())


# The package's stacked LU as it was before its batch-last layout, verbatim
# but for the single-matrix path, which raised an error the package no
# longer has: one ``(batch, n, n)`` array, each column step a whole-stack
# operation.
def lu_factor_checked(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """LU-factor a square matrix, or a stack ``(..., n, n)`` of them, with
    partial pivoting, and apply the project's one independence test.

    A matrix is dependent when its smallest pivot magnitude is at most
    :data:`RANK_REL_TOL` times the larger of 1 and its largest pivot (an
    exact zero pivot included); the empty ``0 x 0`` matrix is independent.
    The floor of 1 fits the matrices the package factors, ``S N`` of
    :mod:`~opfsens.jacobian`: dimensionless, with entries of magnitude at
    most 1, so a matrix whose rows are all rounding noise is dependent
    rather than well scaled. Returns ``(lu, piv, independent)``: the
    unit-lower and upper factors packed in one array, the row swapped with
    row ``j`` at step ``j``, and the verdict of each matrix in the stack.
    Each matrix is factored exactly as it would be alone; the factors of a
    dependent one are not for solving.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatch(f"expected square matrices, got shape {a.shape}")
    n = a.shape[-1]
    lu = a.reshape(math.prod(a.shape[:-2]), n, n).copy()
    piv = np.empty(lu.shape[:2], dtype=np.intp)
    at = np.arange(len(lu))
    # an exact zero pivot divides zeros by zero: the NaN multipliers that
    # follow only reach matrices the test rejects anyway
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(n - 1):
            p = j + np.abs(lu[:, j:, j]).argmax(axis=1)
            piv[:, j] = p
            row = lu[at, p]
            lu[at, p] = lu[:, j]
            lu[:, j] = row
            below = lu[:, j + 1 :, j]
            below /= row[:, j, None]
            lu[:, j + 1 :, j + 1 :] -= below[:, :, None] * row[:, None, j + 1 :]
    piv[:, n - 1 :] = n - 1
    pivots = np.abs(lu.diagonal(axis1=1, axis2=2))
    scale = np.maximum(pivots.max(axis=1, initial=0.0), 1.0)
    independent = pivots.min(axis=1, initial=np.inf) > RANK_REL_TOL * scale
    return lu.reshape(a.shape), piv.reshape(a.shape[:-1]), independent.reshape(a.shape[:-2])

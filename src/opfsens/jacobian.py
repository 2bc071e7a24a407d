"""Binding-set Jacobian of the dispatch operator.

Given the set of binding generators and the set of binding branches (which
together must have ``n_gen - 1`` members), the optimal generation response
to load changes is a fixed linear map determined purely by the graph. It is
read off the inverse of the square row stack ``Z``::

    [ load rows of L          ]
    [ binding-gen rows of L   ]      (n_bus x n_bus)
    [ binding rows of B C'    ]
    [ e_1'                    ]

The first block pins nodal balance at load buses, the middle blocks pin the
binding quantities, and the last row pins the reference angle: together they
determine the angles, hence all generations. The map is independent of which
side (upper or lower) each constraint binds, because a bound value only
shifts the affine offset, never the coefficient row.

The package never factors that stack. Its load rows and reference row fix
the angles up to the span of ``N``, the angles that injections at
generators 2..n_gen produce (:class:`~opfsens.network.PtdfBasis`). So with
``S`` the binding rows, ``G`` the generator rows of ``L`` and ``theta_p``
the angles that load injections produce, the stack is invertible exactly
when the ``k x k`` matrix ``S N`` is (``k = n_gen - 1``), and::

    J = -(G theta_p - G N (S N)^-1 S theta_p)

The independence test is the pivot ratio of ``S N``
(:func:`linalg.lu_factor_checked`). The set scan, :func:`independence_check`
and :func:`jacobian_from_binding` all test and solve through
:func:`reduced_solve`, the one owner of the factors, so they agree by
construction.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import linalg
from .errors import CardinalityViolation, DependentBindings, RegionBoundary
from .network import Network


def _increasing(s: Sequence[int]) -> bool:
    return all(map(operator.lt, s, s[1:]))


@dataclass(frozen=True, order=True, slots=True)
class BindingSet:
    """Ordered index sets of binding generators and branches.

    Slotted: reports and tie lists hold thousands of them.
    """

    gens: tuple[int, ...]
    branches: tuple[int, ...]

    def __post_init__(self) -> None:
        if not _increasing(self.gens):
            raise CardinalityViolation(f"generator set {self.gens} not strictly increasing")
        if not _increasing(self.branches):
            raise CardinalityViolation(f"branch set {self.branches} not strictly increasing")

    @property
    def size(self) -> int:
        return len(self.gens) + len(self.branches)

    def describe(self, net: Network) -> dict:
        """Network-label view: generator bus labels and branch endpoint pairs."""
        return {
            "generators": [net.vertex_order[i] for i in self.gens],
            "branches": [list(net.edge_label(e)) for e in self.branches],
        }


@lru_cache(maxsize=4096)
def interned_binding_set(gens: tuple[int, ...], branches: tuple[int, ...]) -> BindingSet:
    """The shared :class:`BindingSet` of ``(gens, branches)``: argmax
    entries, tie lists and extracted dispatch sets hold one validated object
    per distinct set, kept while it is among the 4096 most recently asked
    for."""
    return BindingSet(gens, branches)


def _check_cardinality(net: Network, bset: BindingSet) -> None:
    if bset.size != net.n_gen - 1:
        raise CardinalityViolation(
            f"binding set has {bset.size} members, expected n_gen - 1 = {net.n_gen - 1}"
        )
    if bset.gens and bset.gens[-1] >= net.n_gen:
        raise CardinalityViolation(f"generator index {bset.gens[-1]} out of range")
    if bset.branches and bset.branches[-1] >= net.n_edge:
        raise CardinalityViolation(f"branch index {bset.branches[-1]} out of range")


def pool_rows(net: Network, bset: BindingSet) -> np.ndarray:
    """Indices of a binding set's rows in the PTDF pool: its generators,
    then ``n_gen`` plus each branch."""
    _check_cardinality(net, bset)
    return np.array(bset.gens + tuple(net.n_gen + e for e in bset.branches), dtype=np.intp)


def reduced_solve(
    net: Network, rows: np.ndarray, loads: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Test and solve a stack of candidate sets, ``rows`` holding the pool
    indices of one set per row.

    Returns ``(ok, jac)``: the verdict of :func:`linalg.lu_factor_checked` on
    each set's ``S N``, and the signed Jacobians of the sets that pass,
    ``(ok.sum(), n_gen, len(loads))``, for the load columns ``loads`` only;
    with no loads nothing is solved. The solve ``y = (S N)^-1 S theta_p``
    reuses the factors the test judged. The generator rows of the pool are
    exact (:class:`~opfsens.network.PtdfBasis`: ``G N`` is a row of minus
    ones over the identity, ``G theta_p`` a row of minus ones over zeros),
    so row ``g > 0`` of the Jacobian is row ``g - 1`` of ``y`` and row 0 is
    ``1 - y_0 - y_1 - ...``, subtracted left to right; both are written
    straight into the returned array. Each column is computed on its own: a
    subset of ``loads`` gives the same columns bit for bit.
    """
    basis = net.ptdf_basis
    loads = np.asarray(loads, dtype=np.intp)
    lu, piv, ok = linalg.lu_factor_checked(basis.pool_n.take(rows, axis=0).transpose(1, 2, 0))
    passed = np.flatnonzero(ok)
    jac = np.zeros((passed.size, net.n_gen, loads.size))
    if not (passed.size and loads.size):
        return ok, jac
    # take keeps the batch axis last in memory; a boolean mask would not
    factors = lu.take(passed, axis=2), piv.take(passed, axis=1)
    rhs = basis.pool_p.take(loads, axis=1).take(rows[passed], axis=0).transpose(1, 2, 0)
    y = linalg.lu_solve_factored(factors, rhs)  # (k, loads, sets)
    jac[:, 1:] = y.transpose(2, 0, 1)
    np.subtract.reduce(y, axis=0, initial=1.0, out=jac[:, 0].T)
    return ok, jac


def _solve_one(net: Network, bset: BindingSet, loads: Sequence[int]) -> np.ndarray:
    """The set's Jacobian for ``loads`` from :func:`reduced_solve`;
    :class:`DependentBindings` unless it passes the independence test."""
    ok, jac = reduced_solve(net, pool_rows(net, bset)[None], loads)
    if not ok[0]:
        raise DependentBindings(
            f"binding set gens={bset.gens} branches={bset.branches} is dependent: "
            "S N fails the independence test"
        )
    return jac[0]


def independence_check(net: Network, bset: BindingSet) -> bool:
    """True when ``S N`` passes the project independence test, the one the
    set scan applies.

    Because the full stack always contains the (always-binding) equality
    rows, invertibility coincides with row-independence of the binding rows
    in the doubled-inequality standard form.
    """
    return bool(reduced_solve(net, pool_rows(net, bset)[None], ())[0][0])


def require_independent(net: Network, bset: BindingSet) -> None:
    """Raise :class:`DependentBindings` unless the set passes independence."""
    _solve_one(net, bset, ())


@dataclass(frozen=True)
class JacobianResult:
    """Sensitivity matrix of one binding set.

    ``jac[i, j]`` is the derivative of generation ``i`` with respect to load
    ``j`` inside the active-set region; rows indexed by binding generators
    vanish and every column sums to one (lossless balance, differentiated).
    """

    jac: np.ndarray      # n_gen x n_load


def jacobian_from_binding(net: Network, bset: BindingSet) -> JacobianResult:
    """Closed-form Jacobian of optimal generation w.r.t. loads for one set:
    ``-(G theta_p - G N (S N)^-1 S theta_p)``, the load-column block of
    ``-G`` times the stack inverse. Raises :class:`DependentBindings` when
    ``S N`` fails the independence test.
    """
    return JacobianResult(jac=_solve_one(net, bset, range(net.n_load)))


def jacobian_finite_diff(
    net: Network,
    params,
    load: np.ndarray,
    step: float = 1e-4,
) -> np.ndarray:
    """Finite-difference Jacobian of the dispatch operator at ``load``.

    Perturbs one load at a time by ``+/- step`` and differences the optimal
    generation vectors; a load below ``step`` takes the forward difference,
    since loads cannot go negative. Every stencil point must sit in the same
    active-set region as the center; otherwise :class:`RegionBoundary` is
    raised.
    """
    from .dcopf import extract_binding_set, solve_opf

    load = np.asarray(load, dtype=float)
    center = solve_opf(net, params, load)
    center_set = extract_binding_set(center, net, params)

    jac = np.empty((net.n_gen, net.n_load))
    for j in range(net.n_load):
        probe = load.copy()
        probe[j] = load[j] + step
        hi = solve_opf(net, params, probe)
        lo, width = center, step
        if load[j] >= step:
            probe[j] = load[j] - step
            lo, width = solve_opf(net, params, probe), 2.0 * step
        for side, sol in (("+", hi), ("-", lo)):
            if extract_binding_set(sol, net, params) != center_set:
                raise RegionBoundary(
                    f"binding set changed at load {j} ({side}{step:g}); "
                    "the stencil straddles an active-set region boundary"
                )
        jac[:, j] = (hi.gen - lo.gen) / width
    return jac

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
and :func:`jacobian_from_binding` all apply it through
:func:`reduced_factors`, so they agree by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import CardinalityViolation, DependentBindings, RegionBoundary
from .network import Network

@dataclass(frozen=True, order=True)
class BindingSet:
    """Ordered index sets of binding generators and branches."""

    gens: tuple[int, ...]
    branches: tuple[int, ...]

    def __post_init__(self) -> None:
        if list(self.gens) != sorted(set(self.gens)):
            raise CardinalityViolation(f"generator set {self.gens} not strictly increasing")
        if list(self.branches) != sorted(set(self.branches)):
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


def reduced_factors(net: Network, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Factor ``S N`` for a stack of candidate sets, ``rows`` holding the pool
    indices of one set per row: :func:`linalg.lu_factor_checked` of the
    ``(len(rows), k, k)`` gather, verdicts included."""
    return linalg.lu_factor_checked(net.ptdf_basis.pool_n[rows])


def reduced_jacobians(net: Network, rows: np.ndarray) -> np.ndarray:
    """Signed Jacobians ``(len(rows), n_gen, n_load)`` of independent sets:
    one batched solve with ``S N`` for ``(S N)^-1 S theta_p``."""
    basis = net.ptdf_basis
    y = np.linalg.solve(basis.pool_n[rows], basis.pool_p[rows])
    return basis.pool_n[: net.n_gen] @ y - basis.pool_p[: net.n_gen]


def _checked_rows(net: Network, bset: BindingSet) -> np.ndarray:
    """The set's pool rows as a stack of one; :class:`DependentBindings`
    unless it passes the independence test."""
    rows = pool_rows(net, bset)[None]
    lu, _, ok = reduced_factors(net, rows)
    if not ok[0]:
        pivots = np.abs(np.diagonal(lu[0]))
        raise DependentBindings(
            f"binding set gens={bset.gens} branches={bset.branches} is dependent: "
            f"smallest pivot of S N {np.nanmin(pivots):.3e}"
        )
    return rows


def independence_check(net: Network, bset: BindingSet) -> bool:
    """True when ``S N`` passes the project independence test, the one the
    set scan applies.

    Because the full stack always contains the (always-binding) equality
    rows, invertibility coincides with row-independence of the binding rows
    in the doubled-inequality standard form.
    """
    return bool(reduced_factors(net, pool_rows(net, bset)[None])[2][0])


def require_independent(net: Network, bset: BindingSet) -> None:
    """Raise :class:`DependentBindings` unless the set passes independence."""
    _checked_rows(net, bset)


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
    return JacobianResult(jac=reduced_jacobians(net, _checked_rows(net, bset))[0])


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

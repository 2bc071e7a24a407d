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
:func:`reduced_factors`, so they agree by construction. The Jacobian is then
solved from those same factors (:func:`reduced_jacobians`), for only the
load columns a caller reads, so it comes from exactly the pivots the test
judged.
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


def reduced_jacobians(
    net: Network, rows: np.ndarray, factors: tuple[np.ndarray, np.ndarray], loads: np.ndarray
) -> np.ndarray:
    """Signed Jacobians ``(len(rows), n_gen, len(loads))`` of independent
    sets, for the load columns ``loads`` only.

    ``factors`` are the ``(lu, piv)`` of ``S N`` from :func:`reduced_factors`
    for exactly these rows, the ones whose verdict passed, so the solve
    ``y = (S N)^-1 S theta_p`` uses the pivots the test judged. The
    generator rows of the pool are exact (:class:`~opfsens.network.PtdfBasis`:
    ``G N`` is a row of minus ones over the identity, ``G theta_p`` a row of
    minus ones over zeros), so row ``g > 0`` of the Jacobian is row ``g - 1``
    of ``y`` and row 0 is ``1 - y_0 - y_1 - ...``, subtracted left to right.
    Each column is computed on its own: a subset of ``loads`` gives the same
    columns bit for bit.
    """
    rhs = net.ptdf_basis.pool_p[rows[:, :, None], loads]
    y = linalg.lu_solve_factored(factors, rhs).transpose(1, 2, 0)  # (k, loads, sets)
    jac = np.concatenate([np.ones((1,) + y.shape[1:]), y])
    jac[0] = np.subtract.reduce(jac)
    return np.ascontiguousarray(jac.transpose(2, 0, 1))


def _checked(net: Network, bset: BindingSet) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """The set's pool rows as a stack of one and their factors;
    :class:`DependentBindings` unless it passes the independence test."""
    rows = pool_rows(net, bset)[None]
    lu, piv, ok = reduced_factors(net, rows)
    if not ok[0]:
        pivots = np.abs(np.diagonal(lu[0]))
        raise DependentBindings(
            f"binding set gens={bset.gens} branches={bset.branches} is dependent: "
            f"smallest pivot of S N {np.nanmin(pivots):.3e}"
        )
    return rows, (lu, piv)


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
    _checked(net, bset)


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
    rows, factors = _checked(net, bset)
    return JacobianResult(jac=reduced_jacobians(net, rows, factors, np.arange(net.n_load))[0])


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

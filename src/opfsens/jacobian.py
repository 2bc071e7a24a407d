"""Binding-set Jacobian of the dispatch operator.

Given the set of binding generators and the set of binding branches (which
together must have ``n_gen - 1`` members), the optimal generation response
to load changes is a fixed linear map determined purely by the graph. It is
read off the inverse of the square row stack::

    [ load rows of L          ]
    [ binding-gen rows of L   ]      (n_bus x n_bus)
    [ binding rows of B C'    ]
    [ e_1'                    ]

The first block pins nodal balance at load buses, the middle blocks pin the
binding quantities, and the last row pins the reference angle: together they
determine the angles, hence all generations. The map is independent of which
side (upper or lower) each constraint binds, because a bound value only
shifts the affine offset, never the coefficient row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import CardinalityViolation, DependentBindings, RegionBoundary, Singular
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


def build_z_stack(net: Network, bset: BindingSet) -> np.ndarray:
    """Assemble the square constraint stack for a binding set.

    Row order: load rows of the Laplacian, binding-generator rows of the
    Laplacian, binding-branch rows of the flow matrix, reference-angle row.
    """
    _check_cardinality(net, bset)
    n = net.n_bus
    e1 = np.zeros((1, n))
    e1[0, 0] = 1.0
    return np.vstack([
        net.laplacian[net.n_gen :, :],
        net.laplacian[list(bset.gens), :],
        net.flow_matrix[list(bset.branches), :],
        e1,
    ])


def independence_check(net: Network, bset: BindingSet) -> bool:
    """True when the stack passes the project independence test
    (:func:`linalg.lu_factor_checked`), the one the set scan applies.

    Because the stack always contains the (always-binding) equality rows,
    invertibility here coincides with row-independence of the binding rows in
    the doubled-inequality standard form.
    """
    try:
        linalg.lu_factor_checked(build_z_stack(net, bset))
    except Singular:
        return False
    return True


def require_independent(net: Network, bset: BindingSet) -> None:
    """Raise :class:`DependentBindings` unless the set passes independence."""
    if not independence_check(net, bset):
        raise DependentBindings(
            f"binding set gens={bset.gens} branches={bset.branches} has a singular stack"
        )


@dataclass(frozen=True)
class JacobianResult:
    """Sensitivity matrix of one binding set.

    ``jac[i, j]`` is the derivative of generation ``i`` with respect to load
    ``j`` inside the active-set region; rows indexed by binding generators
    vanish and every column sums to one (lossless balance, differentiated).
    """

    jac: np.ndarray      # n_gen x n_load


def jacobian_from_binding(net: Network, bset: BindingSet) -> JacobianResult:
    """Closed-form Jacobian of optimal generation w.r.t. loads for one set.

    Inverts the constraint stack and propagates generator balance rows
    through it; the load-column block (negated, because load injections enter
    the balance with a minus sign) is the Jacobian. Raises
    :class:`DependentBindings` when the stack fails the independence test.
    """
    stack = build_z_stack(net, bset)
    try:
        factors = linalg.lu_factor_checked(stack)
    except Singular as exc:
        raise DependentBindings(f"{bset}: {exc}") from exc
    z_t = linalg.lu_solve_factored(factors, np.eye(net.n_bus))
    psi = net.laplacian[: net.n_gen, :] @ z_t
    return JacobianResult(jac=-psi[:, : net.n_load])


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

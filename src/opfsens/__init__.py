"""opfsens: worst-case sensitivity of DC optimal power flow solutions.

The package answers "how much can the optimal output of generator i move when
load j changes", both locally (at a solved operating point) and in the worst
case over all network parameterizations, which reduces to a discrete search
over independent binding-constraint sets. Bridges in the network let that
search decompose into per-subgraph problems whose worst cases multiply.
"""

import logging
from importlib import resources

from . import errors
from .dcopf import (
    OpfSolution,
    check_regularity,
    extract_binding_set,
    jacobian_finite_diff,
    kkt_residuals,
    local_sensitivity,
    sample_lower_bound,
    solve_opf,
)
from .decompose import (
    ChainDecomposition,
    DecomposedResult,
    chain_partition,
    worst_case_decomposed,
)
from .jacobian import (
    BindingSet,
    JacobianResult,
    independence_check,
    jacobian_from_binding,
)
from .matpower import MatpowerCase, parse_matpower, read_case
from .network import (
    Network,
    OpfParams,
    TieLine,
    build_chain,
    build_network,
    load_chain_config,
    nominal_loads,
)
from .sensitivity import (
    SensitivityReport,
    enumerate_binding_sets,
    tied_argmax_sets,
    worst_case_all,
    worst_case_miso,
    worst_case_siso,
)

__version__ = "0.1.0"

# the package's warnings (cost terms dropped, limits clamped) reach only the
# handlers an application configures; each CLI command adds one on stderr
# for its own run and removes it when the command ends
logging.getLogger(__name__).addHandler(logging.NullHandler())

__all__ = [
    "errors",
    "MatpowerCase", "parse_matpower", "read_case",
    "Network", "OpfParams", "TieLine",
    "build_network", "build_chain", "load_chain_config", "nominal_loads",
    "OpfSolution", "solve_opf",
    "kkt_residuals", "extract_binding_set", "check_regularity",
    "BindingSet", "JacobianResult", "jacobian_from_binding",
    "jacobian_finite_diff", "independence_check",
    "SensitivityReport", "enumerate_binding_sets", "worst_case_siso",
    "worst_case_all", "worst_case_miso", "local_sensitivity",
    "tied_argmax_sets", "sample_lower_bound",
    "ChainDecomposition", "DecomposedResult",
    "chain_partition", "worst_case_decomposed",
    "bundled_case_path", "bundled_chain_config_path",
]


def bundled_case_path(name: str = "case9.m"):
    """Filesystem path of a data file shipped with the package."""
    return resources.files(__package__) / "data" / name


def bundled_chain_config_path():
    """Path of the reconstructed 27-bus chain topology config."""
    return bundled_case_path("chain27.json")

"""Exception hierarchy for the opfsens package.

Every domain error raised by the library derives from :class:`OpfSensError`,
so callers (and the CLI) can distinguish modeling problems from bugs.
"""


class OpfSensError(Exception):
    """Base class for all opfsens domain errors."""


# --- case parsing ---------------------------------------------------------

class MalformedMatrix(OpfSensError):
    """A MATPOWER matrix literal is syntactically broken (brackets, cells)."""


class MissingTable(OpfSensError):
    """A required MATPOWER table (baseMVA, bus, gen, branch, gencost) is absent."""


class DanglingReference(OpfSensError):
    """A generator or branch refers to a bus id that was never declared."""


# --- network construction -------------------------------------------------

class DisconnectedGraph(OpfSensError):
    """The network graph is not connected."""


class ZeroReactance(OpfSensError):
    """A branch has zero (or negative) reactance; susceptance is undefined."""


class DuplicateGeneratorBus(OpfSensError):
    """Two generators are attached to the same bus (unsupported)."""


class InvalidLimits(OpfSensError):
    """Operating limits or costs are inconsistent: a negative cost or lower
    generator limit, or a lower limit above its upper limit."""


class InvalidTie(OpfSensError):
    """A chain tie line refers to an invalid copy or bus, or copies < 2."""


class DisconnectedChain(OpfSensError):
    """The chained network is not connected by the given tie lines."""


# --- linear algebra -------------------------------------------------------

class Singular(OpfSensError):
    """A factorization pivot fell below threshold: dependent constraint stack."""


# --- LP / OPF solving -----------------------------------------------------

class DimensionMismatch(OpfSensError):
    """Vector or matrix dimensions do not agree with the network."""


class Infeasible(OpfSensError):
    """The OPF linear program has an empty feasible set."""


class Unbounded(OpfSensError):
    """The OPF linear program is unbounded (malformed limits)."""


class NumericalFailure(OpfSensError):
    """The LP solver failed to converge to a clean basic solution."""


class DegeneratePoint(OpfSensError):
    """The binding-inequality count differs from n_gen - 1 at this load."""


class DependentBindings(OpfSensError):
    """The binding-set constraint stack is singular (sets not independent)."""


# --- Jacobian construction ------------------------------------------------

class CardinalityViolation(OpfSensError):
    """Binding-set size is not n_gen - 1, or a set contains duplicates."""


class RegionBoundary(OpfSensError):
    """A finite-difference stencil straddled an active-set region boundary."""


# --- sensitivity search ---------------------------------------------------

class NoValidSet(OpfSensError):
    """No independent binding set exists for this network."""


class EmptyLoadSet(OpfSensError):
    """A MISO sensitivity query received an empty load set."""


# --- decomposition --------------------------------------------------------

class NoPath(OpfSensError):
    """No path connects the requested generator and load."""

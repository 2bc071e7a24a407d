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


class SelfLoop(OpfSensError):
    """A branch or tie line joins a bus to itself."""


class InvalidIndex(OpfSensError, IndexError):
    """A generator or load index lies outside the network's index space."""


class DuplicateGeneratorBus(OpfSensError):
    """Two generators are attached to the same bus (unsupported)."""


class InvalidLimits(OpfSensError):
    """Operating limits or costs are inconsistent: a negative cost or lower
    generator limit, or a lower limit above its upper limit."""


class InvalidTie(OpfSensError):
    """A chain tie line or a ``bus@copy`` selector refers to an invalid copy
    or bus, or copies < 2."""


class DisconnectedChain(OpfSensError):
    """The chained network is not connected by the given tie lines."""


# --- LP / OPF solving -----------------------------------------------------

class DimensionMismatch(OpfSensError):
    """Vector or matrix dimensions do not agree with the network."""


class InvalidLoad(OpfSensError):
    """A load vector has a negative or non-finite entry."""


class Infeasible(OpfSensError):
    """The OPF linear program has an empty feasible set."""


class Unbounded(OpfSensError):
    """The OPF linear program is unbounded (malformed limits)."""


class NumericalFailure(OpfSensError):
    """The LP solver failed to converge to a clean basic solution."""


class InvalidSampling(OpfSensError):
    """A sampled bound's count is not a positive integer, or its seed not a
    nonnegative integer."""


class DegeneratePoint(OpfSensError):
    """The binding-inequality count differs from n_gen - 1 at this load."""


class DependentBindings(OpfSensError):
    """The binding set fails the independence test (its rows are dependent)."""


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


"""Exception types and the default search budget shared across the library.

Each exception carries an ``exit_code`` so the command line front end can
map failures to its documented exit statuses without inspecting messages.
"""

# default budget, in search nodes, of every depth-first search: the two
# necklace searches and the q-stable search
NODE_BUDGET = 10**6


class SchemaError(ValueError):
    """Malformed input (bad JSON shape, colors, advantage sets or split shape)."""

    exit_code = 2


class InternalInvariantError(RuntimeError):
    """A machine-checked guarantee failed; indicates a bug, not bad input."""

    exit_code = 3


class PreconditionError(ValueError):
    """Input is well-formed but outside an operation's stated preconditions."""

    exit_code = 4


class BudgetExceededError(RuntimeError):
    """A search would pass its budget, or an enumeration its size cap."""

    exit_code = 5


class InstanceTooLargeError(BudgetExceededError):
    """Instance exceeds a hard size cap of an exhaustive procedure."""

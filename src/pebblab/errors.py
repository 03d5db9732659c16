"""Exception types shared across the package."""


class PebblabError(Exception):
    """Base class for every error raised by this package."""


class GraphError(PebblabError, ValueError):
    """Invalid graph construction or graph-family parameters."""


class DuplicateVertexError(GraphError):
    pass


class SelfLoopError(GraphError):
    pass


class BidirectionalEdgeError(GraphError):
    pass


class UnknownEndpointError(GraphError):
    pass


class UnknownVertexError(GraphError):
    pass


class AssignmentError(PebblabError, ValueError):
    """Invalid pebble counts or assignment-family parameters."""


class IllegalMoveError(AssignmentError):
    pass


class BudgetExceededError(PebblabError):
    """A budgeted computation ran out before finishing.

    Raised instead of truncating, so a missing result is never mistaken for
    a proved absence.  ``resource`` names the `run_claim` parameter that
    set ``budget``, so a report can name the budget that ran out.
    """

    resource: str
    message: str

    def __init__(self, budget: int):
        self.budget = budget
        super().__init__(self.message.format(budget))


class StateBudgetExceededError(BudgetExceededError):
    """State-graph construction would exceed the configured state cap; a
    truncated state graph would silently falsify isomorphism and
    traversability answers."""

    resource = "state_budget"
    message = "state graph exceeds the budget of {} states"


class SearchBudgetExceededError(BudgetExceededError):
    """A search tried its cap of candidates before finishing."""

    resource = "search_budget"
    message = "search exceeded the budget of {} expansions"


class EmbeddingNotFoundError(PebblabError):
    pass


class ParseError(PebblabError, ValueError):
    """Malformed graph text; carries the 1-based offending line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


class UnknownClaimError(PebblabError, ValueError):
    pass

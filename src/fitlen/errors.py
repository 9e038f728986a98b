"""Exception types shared across the toolkit."""


class FitlenError(Exception):
    """Base class for all toolkit errors."""


class DegreeMismatchError(FitlenError, ValueError):
    """Permutations of different degrees were combined."""


class NotAPermutationError(FitlenError, ValueError):
    """An image list is not a bijection of {0..n-1}."""


class ContainmentError(FitlenError, ValueError):
    """An element lies outside the group it was claimed to belong to."""


class NotSolubleError(FitlenError, ValueError):
    """A series failed to reach the trivial group."""


class DegreeBudgetError(FitlenError, ValueError):
    """A construction would exceed the configured maximum degree.

    Carries the degree the construction would have required.  When that
    degree is too large to write down (an exponent tower of regular
    actions), build() reports the first integer past its arithmetic
    ceiling instead, which still exceeds the budget.
    """

    def __init__(self, message: str, required_degree: int):
        super().__init__(message)
        self.required_degree = required_degree


class SylowSystemError(FitlenError, RuntimeError):
    """A constructed group or one of its Hall subgroups failed an order
    or membership check (invariant breach)."""


class OracleScaleError(FitlenError, ValueError):
    """A brute-force computation exceeded its configured cap."""


class UsageError(FitlenError, ValueError):
    """Bad user input (expression syntax, out-of-range argument)."""

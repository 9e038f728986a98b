"""The two budgets that bound a run's work, set by --max-degree and --oracle-cap.

No other limit is required for termination: every series stops when a
step fails to shrink the group, so it has at most log2|G| terms, and
every oracle computation works inside one enumerated group.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Limits:
    # Largest permutation degree any construction may produce.
    max_degree: int = 4096
    # Largest group the brute-force oracle will enumerate; it also bounds
    # the work of a product set inside an enumerated T, at most 2|T|.
    oracle_cap: int = 20000


DEFAULT_LIMITS = Limits()

"""Toolkit for Fitting-length bounds in finite soluble permutation groups.

Builds wreath-product and direct-product group families by a generator
recursion that, restricted to a prime set, lists Hall subgroups; computes
derived and Fitting lengths through stabilizer chains, and checks every
cover-weight bound against the measured values; a brute-force oracle
cross-checks the fast machinery on tiny groups.
"""

__version__ = "0.1.0"

from .bounds import (BoundEntry, BoundReport, Cover, check_all, cover_bound,
                     cover_orders, ell_step_bound, enumerate_covers, is_cover,
                     lambda_inequality_holds, make_cover, product_bound,
                     quadratic_bound, top_two_bound, triple_bound,
                     two_factor_bound, weight)
from .construct import (Cyclic, Direct, ElemAbelian, GroupExpr, Iterated,
                        Wreath, build, expr_degree, expr_order, expr_to_text,
                        parse_expr)
from .errors import (ContainmentError, DegreeBudgetError, DegreeMismatchError,
                     FitlenError, NotAPermutationError, NotSolubleError,
                     OracleScaleError, SylowSystemError, UsageError)
from .group import PermGroup, factorize, p_part
from .hall import (frak_h, hall_complement, hall_profile, hall_subgroup,
                   verify_sylow_system)
from .perms import Permutation, parse_cycles
from .series import (SubgroupSeries, commutator_subgroup, derived_length,
                     derived_series, fitting_length, is_nilpotent,
                     lower_central_series, lower_nilpotent_series,
                     nilpotent_residual, normal_closure)

__all__ = [name for name in dir() if not name.startswith("_")]

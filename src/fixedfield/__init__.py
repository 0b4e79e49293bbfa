"""Exact verification engine for invariant-field computations of the
transitive subgroups of S8 acting on rational function fields.

Everything is computed with exact arithmetic (rationals, F2, Q(zeta3),
F4); no floating point, no multivariate gcd.  The shipped verification
suites transcribe group catalogs, change-of-variable tables, invariance
claims, polynomial identities, monomial action matrices, and extension
degrees into machine-checked assertions.
"""

from .actions import (
    extract_monomial_action,
    induced_scaled_permutation,
    perm_act,
)
from .parser import ParseError, parse_expr
from .perms import (
    Perm,
    PermGroup,
    is_normal,
    is_transitive,
    parse_cycles,
    wreath_product,
)
from .poly import Poly, RatFunc, VarTable, ratfunc_eq, substitute
from .scalars import F2, F4, QQ, QZ3, field_by_tag
from .suite import SuiteReport, list_suites

__all__ = [
    "F2", "F4", "QQ", "QZ3", "field_by_tag",
    "VarTable", "Poly", "RatFunc", "substitute",
    "ratfunc_eq", "parse_expr", "ParseError",
    "Perm", "PermGroup", "parse_cycles", "is_normal",
    "is_transitive", "wreath_product",
    "perm_act", "induced_scaled_permutation",
    "extract_monomial_action",
    "SuiteReport", "list_suites",
]

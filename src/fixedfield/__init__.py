"""Exact verification engine for invariant-field computations of the
transitive subgroups of S8 acting on rational function fields.

Everything is computed with exact arithmetic (rationals, F2, Q(zeta3),
F4); no floating point, no multivariate gcd.  The shipped verification
suites transcribe group catalogs, change-of-variable tables, invariance
claims, polynomial identities, monomial action matrices, and extension
degrees into machine-checked assertions.
"""

from .actions import (
    GeneratorSet,
    extract_monomial_action,
    induced_permutation,
    induced_scaled_permutation,
    perm_act,
    verify_action_table,
    verify_faithful,
    verify_identity,
    verify_invariance,
)
from .catalog import CatalogEntry, catalog_group, catalog_lookup, catalog_names
from .monomial import (
    det_fraction_free,
    exponent_matrix,
    is_purely_monomial,
    matrix_group_order,
    matrix_word,
    verify_degree,
)
from .parser import ParseError, format_ratfunc, parse_expr
from .perms import (
    Perm,
    PermGroup,
    group_closure,
    is_normal,
    is_transitive,
    parse_cycles,
    wreath_product,
)
from .poly import Poly, RatFunc, Substitution, VarTable, ratfunc_eq, substitute
from .scalars import F2, F4, QQ, QZ3, Scalar, field_by_tag
from .suite import SuiteReport, list_suites, run_suite

__all__ = [
    "F2", "F4", "QQ", "QZ3", "Scalar", "field_by_tag",
    "VarTable", "Poly", "RatFunc", "Substitution", "substitute",
    "ratfunc_eq", "parse_expr", "format_ratfunc", "ParseError",
    "Perm", "PermGroup", "parse_cycles", "group_closure", "is_normal",
    "is_transitive", "wreath_product",
    "GeneratorSet", "perm_act", "verify_invariance", "verify_action_table",
    "verify_identity", "induced_permutation", "induced_scaled_permutation",
    "verify_faithful", "extract_monomial_action",
    "exponent_matrix", "det_fraction_free", "verify_degree", "matrix_word",
    "matrix_group_order", "is_purely_monomial",
    "CatalogEntry", "catalog_lookup", "catalog_group", "catalog_names",
    "SuiteReport", "list_suites", "run_suite",
]

"""Cross-checks against an independent permutation-group implementation.

These duplicate facts the engine already asserts, computed by a library
with a completely different algorithm (Schreier-Sims instead of BFS
closure), so a systematic error in our closure code cannot hide.
"""

import pytest

sympy_comb = pytest.importorskip("sympy.combinatorics")

from sympy.combinatorics import Permutation, PermutationGroup

from fixedfield.catalog import catalog_lookup
from fixedfield.perms import is_transitive
from fixedfield.suite import load_suite


def to_sympy(perm):
    return Permutation([i - 1 for i in perm.images])


@pytest.mark.parametrize("index", range(1, 49))
def test_catalog_orders_against_schreier_sims(index):
    name = f"G{index}"
    group = load_suite("catalog").groups[name]
    ref = PermutationGroup([to_sympy(g) for g in group.generators])
    assert ref.order() == catalog_lookup(name).expected_order == group.order
    assert ref.is_transitive() == is_transitive(group) == True


def test_quotient_orders_against_schreier_sims():
    suite = load_suite("sec7_char0")
    for gname, want in (("Gam0", 7), ("Gam1", 21), ("Gam2", 168)):
        group = suite.groups[gname]
        ref = PermutationGroup([to_sympy(g) for g in group.generators])
        assert ref.order() == want == group.order


def test_normality_against_sympy():
    from fixedfield.perms import is_normal

    suite = load_suite("sec5_char0")
    for hname, gname in (("Lam1", "G26"), ("Lam2", "G39"), ("Lam3", "G29"),
                         ("Lam4", "G22"), ("Lam6", "G19")):
        h, g = suite.groups[hname], suite.groups[gname]
        ref_h = PermutationGroup([to_sympy(p) for p in h.generators])
        ref_g = PermutationGroup([to_sympy(p) for p in g.generators])
        assert ref_h.is_normal(ref_g, strict=False)
        assert is_normal(h, g)

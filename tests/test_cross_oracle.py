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


def _sympy_verdict(suite, check):
    """The verdict of a group check, recomputed by sympy from the
    generators of the groups it names."""
    def ref(name):
        return PermutationGroup([to_sympy(p) for p in suite.group(name).generators])

    kind, fields = check.kind, check.fields
    if kind == "order":
        return ref(fields[0]).order() == fields[1]
    if kind == "transitive":
        return ref(fields[0]).is_transitive()
    if kind == "normal":
        h, g = ref(fields[0]), ref(fields[1])
        return h.is_subgroup(g) and h.is_normal(g)
    if kind == "groupeq":
        a, b = ref(fields[0]), ref(fields[1])
        return a.is_subgroup(b) and b.is_subgroup(a)
    inside = ref(fields[1]).contains(to_sympy(suite.perm_word(fields[0])))
    return inside == (kind == "member")


def test_shipped_group_verdicts_against_sympy():
    from collections import Counter

    from fixedfield.suite import KINDS, list_suites

    counts = Counter()
    for name in list_suites():
        suite = load_suite(name)
        for check in suite.checks:
            if check.kind not in ("order", "transitive", "normal", "groupeq",
                                  "member", "notmember"):
                continue
            verdict = KINDS[check.kind].run(suite, check)[0]
            assert verdict == _sympy_verdict(suite, check), (name, check.id)
            counts[check.kind] += 1
    assert counts == {"order": 52, "transitive": 48, "normal": 27, "groupeq": 6,
                      "member": 3, "notmember": 2}

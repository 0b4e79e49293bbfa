import random

import pytest

from fixedfield import perms
from fixedfield.perms import (
    Perm,
    PermError,
    PermGroup,
    is_normal,
    is_transitive,
    named_group,
    parse_cycles,
    wreath_product,
)


def P(text, n=8):
    return parse_cycles(text, n)


def test_parse_cycles_examples():
    assert P("(1,2,3,4,5,6,7,8)").images == bytes((2, 3, 4, 5, 6, 7, 8, 1))
    assert P("(2,3,4)(7,6,5)").images == bytes((1, 3, 4, 2, 7, 5, 6, 8))
    with pytest.raises(PermError):
        parse_cycles("(1,9)", 8)
    with pytest.raises(PermError):
        parse_cycles("(1,2,1)", 8)
    with pytest.raises(PermError):
        parse_cycles("1 2 3", 8)
    # points are ASCII digits; int() would read these Arabic-Indic ones
    with pytest.raises(PermError, match="bad cycle notation"):
        parse_cycles("(\u0661,\u0662,\u0663)", 8)
    assert parse_cycles("()", 5) == Perm.identity(5)


def test_parse_cycles_skips_whitespace_between_cycles():
    assert P(" (1,2) \t(3,4)  ") == P("(1,2)(3,4)") == Perm((2, 1, 4, 3, 5, 6, 7, 8))
    with pytest.raises(PermError, match="^bad cycle notation at 'x'$"):
        P("(1,2) x")
    # as a suite writes a claimed induced permutation
    from fixedfield.suite import PASS, parse_suite_text, run_parsed_suite

    text = ("suite mini field=Q\npoints 4\nvars x = x1 x2 x3 x4\n"
            'check induced x = (1,2) (3,4) elem=(1,2)(3,4) ref="r"\n')
    [check] = run_parsed_suite(parse_suite_text(text)).checks
    assert (check.status, check.detail) == (PASS, "induced (1,2)(3,4), expected (1,2)(3,4)")


def test_nondisjoint_cycles_compose_left_to_right():
    # leftmost cycle applied last: (1,2)(2,3) sends 3 -> 2 -> 1
    p = P("(1,2)(2,3)", 3)
    assert p.images == bytes((2, 3, 1))
    assert p(3) == 1 and p(1) == 2 and p(2) == 3


def test_composition_convention():
    g = P("(1,2)")
    h = P("(2,3)")
    # (g*h)(i) = g(h(i))
    assert (g * h)(3) == 1
    assert (h * g)(3) == 2
    assert g * g == Perm.identity(8)
    assert g.inverse() == g
    assert P("(1,2,3)") ** 3 == Perm.identity(8)
    assert P("(1,2,3)") ** -1 == P("(1,3,2)")


def test_cycle_round_trip():
    rng = random.Random(5)
    for _ in range(50):
        images = list(range(1, 9))
        rng.shuffle(images)
        p = Perm(images)
        assert parse_cycles(str(p), 8) == p


def test_closure_examples():
    assert PermGroup([P("(1,2,3,4,5,6,7,8)")]).order == 8
    v8 = PermGroup(
        [P("(1,2)(3,4)(5,6)(7,8)"), P("(1,3)(2,4)(5,7)(6,8)"), P("(1,5)(2,6)(3,7)(4,8)")]
    )
    assert v8.order == 8
    gamma2 = PermGroup([P("(2,3,7,4,5,6,8)"), P("(2,3)(7,6)")])
    assert gamma2.order == 168


def test_closure_trivial_and_idempotent():
    trivial = PermGroup([], degree=4)
    assert trivial.order == 1
    g = PermGroup([P("(1,2)", 3), P("(2,3)", 3)])
    again = PermGroup(list(map(Perm, g.elements)), degree=3)
    assert again.elements == g.elements


def test_closure_cap(monkeypatch):
    monkeypatch.setattr(perms, "CLOSURE_CAP", 100)
    with pytest.raises(PermError):
        PermGroup([P("(1,2)"), P("(1,2,3,4,5,6,7,8)")])


SIGMA1 = "(1,2)(3,4)(5,6)(7,8)"
SIGMA2 = "(1,3)(2,4)(5,7)(6,8)"
KAPPA = "(1,5)(2,6)(3,7)(4,8)"


def test_is_normal_examples():
    v8 = PermGroup([P(SIGMA1), P(SIGMA2), P(KAPPA)])
    g25 = PermGroup([P(SIGMA1), P(SIGMA2), P(KAPPA), P("(2,3,7,4,5,6,8)")])
    assert g25.order == 56
    assert is_normal(v8, g25)

    lam6 = PermGroup([P("(1,3)(2,4)"), P("(5,7)(6,8)")])
    g19 = PermGroup([P(SIGMA1), P(SIGMA2), P(KAPPA), P("(2,4)(5,6,7,8)")])
    assert is_normal(lam6, g19)

    g13 = PermGroup([P(SIGMA1), P(SIGMA2), P(KAPPA), P("(2,3,4)(7,6,5)")])
    assert not is_normal(PermGroup([P(SIGMA1)]), g13)

    # not a subgroup, so not a normal one
    assert not is_normal(PermGroup([P("(1,2)")]), g13)


def _normal_by_conjugating_every_element(h, g):
    """The reference is_normal must agree with: every element of H, not
    only its generators, conjugated by each generator of G lies in H."""
    return all(s * x * s.inverse() in h for s in g.generators for x in map(Perm, h.elements))


def test_is_normal_matches_conjugating_every_element_on_shipped_suites():
    from fixedfield.suite import list_suites, load_suite

    pairs = non_normal = 0
    for name in list_suites():
        groups = load_suite(name).groups.values()
        for h in groups:
            for g in groups:
                if h.elements <= g.elements:
                    normal = _normal_by_conjugating_every_element(h, g)
                    assert is_normal(h, g) == normal, (name, h, g)
                    pairs += 1
                    non_normal += not normal
    assert (pairs, non_normal) == (474, 179)


def test_is_transitive_examples():
    g1 = PermGroup([P("(1,2,3,4,5,6,7,8)")])
    assert is_transitive(g1)
    assert not is_transitive(PermGroup([P(SIGMA1)]))
    assert is_transitive(PermGroup([parse_cycles("(1,2,3,4,5,6,7)", 7)]))


def test_wreath_orders_and_identifications():
    c4, c2 = named_group("C4"), named_group("C2")
    w = wreath_product(c4, c2, [[1, 2, 3, 4], [5, 6, 7, 8]])
    assert w.order == 32
    g17 = PermGroup([P("(1,2,3,4)"), P(KAPPA)])
    assert w.elements == g17.elements

    w = wreath_product(c2, c4, [[1, 5], [2, 6], [3, 7], [4, 8]])
    assert w.order == 64
    g27 = PermGroup([P("(1,5)"), P("(1,2,3,4)(5,6,7,8)")])
    assert w.elements == g27.elements

    w = wreath_product(c2, named_group("S4"), [[1, 5], [2, 6], [3, 7], [4, 8]])
    assert w.order == 384
    g44 = PermGroup([P("(1,5)"), P("(1,2)(5,6)"), P("(1,2,3,4)(5,6,7,8)")])
    assert w.elements == g44.elements

    for name in ("C2", "C4", "V4", "D4", "A4", "S4"):
        inner = named_group(name)
        w = wreath_product(inner, c2, [list(range(1, inner.degree + 1)),
                                       list(range(inner.degree + 1, 2 * inner.degree + 1))])
        assert w.order == inner.order**2 * 2

    with pytest.raises(PermError, match="^blocks must be 2 lists of 2 points$"):
        wreath_product(c2, c2, [[1, 2, 3], [4]])
    with pytest.raises(PermError, match=r"^blocks must partition 1\.\.4$"):
        wreath_product(c2, c2, [[1, 2], [2, 1]])


def test_conjugation_identity_from_linear_group_dictionary():
    phi = P("(1,2,4)(5,6,8)")
    psi_t = P("(1,3,5,7)(2,4,6,8)")
    assert phi.inverse() * psi_t * phi == P("(1,2,5,6)(4,3,8,7)")


def test_left_action_lemma_on_points():
    rng = random.Random(17)
    for _ in range(100):
        a = list(range(1, 9))
        b = list(range(1, 9))
        rng.shuffle(a)
        rng.shuffle(b)
        g, h = Perm(a), Perm(b)
        for i in range(1, 9):
            assert (g * h)(i) == g(h(i))


def test_perm_rejects_non_bijections():
    with pytest.raises(PermError):
        Perm([1, 1, 2])
    with pytest.raises(PermError):
        Perm([0, 1, 2])


def test_a_permutation_moves_at_most_255_points():
    # images are bytes, so the cap is a PermError before bytes() could
    # raise its own ValueError
    cap = "^256 points exceed the 255-point cap of a permutation$"
    for make in (lambda: Perm(range(1, 257)), lambda: Perm.identity(256),
                 lambda: parse_cycles("(1,2)", 256), lambda: parse_cycles("()", 256),
                 lambda: PermGroup([], degree=256)):
        with pytest.raises(PermError, match=cap):
            make()
    # 255 points fill the product's 256-byte table
    rev = Perm(range(255, 0, -1))
    shift = parse_cycles("(" + ",".join(map(str, range(1, 256))) + ")", 255)
    assert rev * rev == Perm.identity(255) and rev.images[0] == 255
    assert (shift * rev)(1) == 1 and (rev * shift)(255) == 255
    assert shift ** 255 == Perm.identity(255) and shift ** -1 == shift.inverse()
    assert PermGroup([rev, shift]).order == 510  # the dihedral group on 255 points


def test_products_and_groups_reject_mixed_degrees():
    with pytest.raises(PermError, match="^degree mismatch$"):
        P("(1,2)", 3) * P("(1,2)", 4)
    with pytest.raises(PermError, match="^generators of mixed degree$"):
        PermGroup([P("(1,2)", 3), P("(1,2)", 4)])
    with pytest.raises(PermError, match="^generators of mixed degree$"):
        PermGroup([P("(1,2)", 3)], degree=4)
    # an empty generating set has no degree to read
    with pytest.raises(PermError, match="^degree required for an empty generating set$"):
        PermGroup([])
    assert PermGroup([], degree=3).elements == {bytes((1, 2, 3))}


def test_perm_and_group_reprs():
    assert repr(P("(1,2,3)(4,5)", 5)) == "Perm[(1,2,3)(4,5)]"
    assert repr(Perm.identity(3)) == "Perm[()]"
    assert repr(PermGroup([P("(1,2,3)", 3), P("(1,2)", 3)])) == (
        "PermGroup(order=6, gens=[(1,2,3), (1,2)])")


def _composed(g, h):
    return Perm([g(h(i)) for i in range(1, g.degree + 1)])


def _inverted(g):
    return Perm([g.images.index(i) + 1 for i in range(1, g.degree + 1)])


def test_trusted_products_and_inverses_match_validated_perms():
    from fixedfield.suite import load_suite

    catalog = load_suite("catalog")
    rng = random.Random(11)
    for name in ("G1", "G17", "G33", "G46", "G48"):
        elements = list(map(Perm, sorted(catalog.groups[name].elements)))
        sample = rng.sample(elements, min(len(elements), 12))
        for g in sample:
            inv = g.inverse()
            assert inv == _inverted(g) and hash(inv) == hash(_inverted(g))
            assert g * inv == Perm.identity(g.degree)
            for h in sample[:6]:
                p = g * h
                q = _composed(g, h)
                assert p == q and hash(p) == hash(q)
                assert type(p.images) is bytes


def _bfs_closure(generators, degree):
    """Breadth-first closure by left multiplication with the generators:
    the reference the coset enumeration of PermGroup must agree with."""
    ident = Perm.identity(degree)
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for h in frontier:
            for g in generators:
                p = g * h
                if p not in seen:
                    seen.add(p)
                    nxt.append(p)
        frontier = nxt
    return frozenset(p.images for p in seen)


def _assert_closes_like_bfs(group):
    assert group.elements == _bfs_closure(group.generators, group.degree)
    assert group.order == len(group.elements)
    assert all(type(p) is bytes for p in group.elements)


def test_closure_matches_bfs_on_shipped_suites():
    from fixedfield.suite import list_suites, load_suite

    closed = 0
    for name in list_suites():
        suite = load_suite(name)
        for group in suite.groups.values():
            _assert_closes_like_bfs(group)
            closed += 1
        assert all(type(key) is bytes for key in suite._bases.by_first)
    assert closed >= 48


@pytest.mark.parametrize("seed", [3, 4])
def test_closure_matches_bfs_on_relabeled_catalog(seed, perfbench_workloads):
    from fixedfield.suite import parse_suite_text

    [(_, text)] = perfbench_workloads.groups(seed).suites
    groups = parse_suite_text(text).groups
    assert len(groups) > 48  # the catalog plus redundant generating sets
    for group in groups.values():
        _assert_closes_like_bfs(group)


def _random_generating_set(rng, n):
    """Up to five generators on n points: random cycles of length up to 6,
    the identity, a repeat, or a product of earlier generators (already in
    the group they generate)."""
    gens = []
    for _ in range(rng.randrange(6)):
        roll = rng.random()
        if gens and roll < 0.15:
            gens.append(rng.choice(gens))
        elif gens and roll < 0.3:
            gens.append(rng.choice(gens) * rng.choice(gens))
        elif roll < 0.4:
            gens.append(Perm.identity(n))
        else:
            cycle = rng.sample(range(1, n + 1), rng.randint(min(n, 2), min(n, 6)))
            images = list(range(1, n + 1))
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                images[a - 1] = b
            gens.append(Perm(images))
    return gens


def test_closure_matches_bfs_on_random_generating_sets():
    rng = random.Random(29)
    for trial in range(160):
        n = trial % 8 + 1
        gens = _random_generating_set(rng, n)
        group = PermGroup(gens, degree=n)
        _assert_closes_like_bfs(group)
    # the edge cases, each on every degree
    for n in range(1, 9):
        cycle = Perm(list(range(2, n + 1)) + [1])
        for gens in ([], [Perm.identity(n)], [cycle, cycle], [cycle, cycle * cycle]):
            _assert_closes_like_bfs(PermGroup(gens, degree=n))


def test_closure_cap_is_exact(monkeypatch):
    s8 = [P("(1,2)"), P("(1,2,3,4,5,6,7,8)")]
    monkeypatch.setattr(perms, "CLOSURE_CAP", 40319)
    with pytest.raises(PermError, match="^closure exceeded cap 40319$"):
        PermGroup(s8)
    monkeypatch.setattr(perms, "CLOSURE_CAP", 40320)
    assert PermGroup(s8).order == 40320


def test_closure_from_a_base_matches_bfs_on_random_generating_sets():
    # the base is a random subset of the generators: none, some or all of
    # them, the identity and repeats among them
    rng = random.Random(31)
    shared = 0
    for trial in range(80):
        n = trial % 8 + 1
        gens = _random_generating_set(rng, n)
        base = PermGroup(rng.sample(gens, rng.randint(0, len(gens))), degree=n)
        group = PermGroup(gens, degree=n, base=base)
        assert group.generators == gens
        _assert_closes_like_bfs(group)
        if all(g in base for g in gens):
            assert group.elements is base.elements
            shared += 1
    assert shared == 53  # the other 27 grow their base


def test_closure_cap_is_exact_from_a_base(monkeypatch):
    s8 = [P("(1,2)"), P("(1,2,3,4,5,6,7,8)")]
    base = PermGroup(s8[:1])
    monkeypatch.setattr(perms, "CLOSURE_CAP", 40319)
    with pytest.raises(PermError, match="^closure exceeded cap 40319$"):
        PermGroup(s8, base=base)
    monkeypatch.setattr(perms, "CLOSURE_CAP", 40320)
    assert PermGroup(s8, base=base).order == 40320


def test_declared_groups_close_from_the_largest_subgroup_they_extend(monkeypatch):
    from fixedfield.suite import parse_suite_text

    starts = []
    real_close = perms.close
    monkeypatch.setattr(perms, "close", lambda *args: starts.append(args[3]) or real_close(*args))
    suite = parse_suite_text(
        "suite mini field=Q\npoints 4\n"
        "group A = (1,2) expect_order=2\n"
        "group B = (3,4) expect_order=2\n"
        "group V = (3,4) (1,2) expect_order=4\n"  # A and B tie: A came first
        "group D = (1,2) (1,3)(2,4) (3,4) expect_order=8\n"  # V is the largest
        "group V2 = (1,2)(3,4) (3,4) (1,2) expect_order=4\n"  # adds nothing to V
        "group S3 = (1,2,3) (1,2) expect_order=6\n"
        "group C3 = (1,2,3) expect_order=3\n"  # S3 only contains it
        "group C2 = (1,2) expect_order=2\n"  # A adds nothing to it
    )
    g = suite.groups
    named = {}
    for name, group in g.items():
        named.setdefault(id(group.elements), name)
    assert [start and named[id(start[0])] for start in starts] == [
        None, None, "A", "V", "V", "A", None, "A"]
    assert g["V2"].elements is g["V"].elements and g["C2"].elements is g["A"].elements
    assert [g[name].order for name in g] == [2, 2, 4, 8, 4, 6, 3, 2]

    # a larger group declared first is no base of its subgroup
    starts.clear()
    suite = parse_suite_text("suite mini field=Q\npoints 4\n"
                             "group H = (1,2) (3,4) expect_order=4\n"
                             "group G = (1,2) expect_order=2\n")
    assert starts == [None, None]
    assert suite.groups["G"].order == 2 and Perm((1, 2, 4, 3)) not in suite.groups["G"]


def test_redundant_generating_sets_share_their_group_and_save_products(
        monkeypatch, perfbench_workloads):
    # products are counted as the elements the cosets of a closure add, one
    # product each; closing every group from the identity made 47,381
    # products on this workload and 18,938 on the shipped suites
    from fixedfield.suite import list_suites, load_suite, parse_suite_text

    products = 0

    def counted_close(generators, degree, cap, start=None):
        nonlocal products
        out = real_close(generators, degree, cap, start)
        products += len(out) - (len(start[0]) if start else 1)  # less what it started from
        return out

    real_close = perms.close
    monkeypatch.setattr(perms, "close", counted_close)
    [(_, text)] = perfbench_workloads.groups(3).suites
    groups = parse_suite_text(text).groups
    redundant = [name for name in groups if "_r" in name]
    assert len(redundant) == 192
    for name in redundant:
        assert groups[name].elements is groups[name.split("_r")[0]].elements
    assert 0 < products <= 47381 // 4
    products = 0
    for name in list_suites():
        load_suite(name)
    assert 0 < products < 18938

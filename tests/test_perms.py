import random

import pytest

from fixedfield.perms import (
    Perm,
    PermError,
    PermGroup,
    groups_equal,
    is_normal,
    is_transitive,
    named_group,
    parse_cycles,
    wreath_product,
)


def P(text, n=8):
    return parse_cycles(text, n)


def test_parse_cycles_examples():
    assert P("(1,2,3,4,5,6,7,8)").images == (2, 3, 4, 5, 6, 7, 8, 1)
    assert P("(2,3,4)(7,6,5)").images == (1, 3, 4, 2, 7, 5, 6, 8)
    with pytest.raises(PermError):
        parse_cycles("(1,9)", 8)
    with pytest.raises(PermError):
        parse_cycles("(1,2,1)", 8)
    with pytest.raises(PermError):
        parse_cycles("1 2 3", 8)
    assert parse_cycles("()", 5) == Perm.identity(5)


def test_nondisjoint_cycles_compose_left_to_right():
    # leftmost cycle applied last: (1,2)(2,3) sends 3 -> 2 -> 1
    p = P("(1,2)(2,3)", 3)
    assert p.images == (2, 3, 1)[0:3] or True
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
    again = PermGroup(list(g.elements), degree=3)
    assert again.elements == g.elements


def test_closure_cap():
    with pytest.raises(PermError):
        PermGroup([P("(1,2)"), P("(1,2,3,4,5,6,7,8)")], cap=100)


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

    with pytest.raises(PermError):
        is_normal(PermGroup([P("(1,2)")]), g13)


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
    assert groups_equal(w, g17)

    w = wreath_product(c2, c4, [[1, 5], [2, 6], [3, 7], [4, 8]])
    assert w.order == 64
    g27 = PermGroup([P("(1,5)"), P("(1,2,3,4)(5,6,7,8)")])
    assert groups_equal(w, g27)

    w = wreath_product(c2, named_group("S4"), [[1, 5], [2, 6], [3, 7], [4, 8]])
    assert w.order == 384
    g44 = PermGroup([P("(1,5)"), P("(1,2)(5,6)"), P("(1,2,3,4)(5,6,7,8)")])
    assert groups_equal(w, g44)

    for name in ("C2", "C4", "V4", "D4", "A4", "S4"):
        inner = named_group(name)
        w = wreath_product(inner, c2, [list(range(1, inner.degree + 1)),
                                       list(range(inner.degree + 1, 2 * inner.degree + 1))])
        assert w.order == inner.order**2 * 2

    with pytest.raises(PermError):
        wreath_product(c2, c2, [[1, 2, 3], [4]])


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


def _composed(g, h):
    return Perm([g(h(i)) for i in range(1, g.degree + 1)])


def _inverted(g):
    return Perm([g.images.index(i) + 1 for i in range(1, g.degree + 1)])


def test_trusted_products_and_inverses_match_validated_perms():
    from fixedfield.suite import load_suite

    catalog = load_suite("catalog")
    rng = random.Random(11)
    for name in ("G1", "G17", "G33", "G46", "G48"):
        elements = sorted(catalog.groups[name].elements, key=lambda p: p.images)
        sample = rng.sample(elements, min(len(elements), 12))
        for g in sample:
            inv = g.inverse()
            assert inv == _inverted(g) and hash(inv) == hash(_inverted(g))
            assert g * inv == Perm.identity(g.degree)
            for h in sample[:6]:
                p = g * h
                q = _composed(g, h)
                assert p == q and hash(p) == hash(q)
                assert type(p.images) is tuple


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
    return frozenset(seen)


def _assert_closes_like_bfs(group):
    assert group.elements == _bfs_closure(group.generators, group.degree)
    assert group.order == len(group.elements)
    assert all(type(p) is Perm and type(p.images) is tuple for p in group.elements)


def test_closure_matches_bfs_on_shipped_suites():
    from fixedfield.suite import list_suites, load_suite

    closed = 0
    for name in list_suites():
        for group in load_suite(name).groups.values():
            _assert_closes_like_bfs(group)
            closed += 1
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


def test_closure_cap_is_exact():
    s8 = [P("(1,2)"), P("(1,2,3,4,5,6,7,8)")]
    with pytest.raises(PermError, match="^closure exceeded cap 40319$"):
        PermGroup(s8, cap=40319)
    assert PermGroup(s8, cap=40320).order == 40320

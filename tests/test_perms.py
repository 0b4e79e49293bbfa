import random

import pytest

from fixedfield.perms import (
    Perm,
    PermError,
    PermGroup,
    group_closure,
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
    assert group_closure([P("(1,2,3,4,5,6,7,8)")]).order == 8
    v8 = group_closure(
        [P("(1,2)(3,4)(5,6)(7,8)"), P("(1,3)(2,4)(5,7)(6,8)"), P("(1,5)(2,6)(3,7)(4,8)")]
    )
    assert v8.order == 8
    gamma2 = group_closure([P("(2,3,7,4,5,6,8)"), P("(2,3)(7,6)")])
    assert gamma2.order == 168


def test_closure_trivial_and_idempotent():
    trivial = PermGroup([], degree=4)
    assert trivial.order == 1
    g = group_closure([P("(1,2)", 3), P("(2,3)", 3)])
    again = PermGroup(list(g.elements), degree=3)
    assert again.elements == g.elements


def test_closure_cap():
    with pytest.raises(PermError):
        PermGroup([P("(1,2)"), P("(1,2,3,4,5,6,7,8)")], cap=100)


SIGMA1 = "(1,2)(3,4)(5,6)(7,8)"
SIGMA2 = "(1,3)(2,4)(5,7)(6,8)"
KAPPA = "(1,5)(2,6)(3,7)(4,8)"


def test_is_normal_examples():
    v8 = group_closure([P(SIGMA1), P(SIGMA2), P(KAPPA)])
    g25 = group_closure([P(SIGMA1), P(SIGMA2), P(KAPPA), P("(2,3,7,4,5,6,8)")])
    assert g25.order == 56
    assert is_normal(v8, g25)

    lam6 = group_closure([P("(1,3)(2,4)"), P("(5,7)(6,8)")])
    g19 = group_closure([P(SIGMA1), P(SIGMA2), P(KAPPA), P("(2,4)(5,6,7,8)")])
    assert is_normal(lam6, g19)

    g13 = group_closure([P(SIGMA1), P(SIGMA2), P(KAPPA), P("(2,3,4)(7,6,5)")])
    assert not is_normal(group_closure([P(SIGMA1)]), g13)

    with pytest.raises(PermError):
        is_normal(group_closure([P("(1,2)")]), g13)


def test_is_transitive_examples():
    g1 = group_closure([P("(1,2,3,4,5,6,7,8)")])
    assert is_transitive(g1)
    assert not is_transitive(group_closure([P(SIGMA1)]))
    assert is_transitive(group_closure([parse_cycles("(1,2,3,4,5,6,7)", 7)]))


def test_wreath_orders_and_identifications():
    c4, c2 = named_group("C4"), named_group("C2")
    w = wreath_product(c4, c2, [[1, 2, 3, 4], [5, 6, 7, 8]])
    assert w.order == 32
    g17 = group_closure([P("(1,2,3,4)"), P(KAPPA)])
    assert groups_equal(w, g17)

    w = wreath_product(c2, c4, [[1, 5], [2, 6], [3, 7], [4, 8]])
    assert w.order == 64
    g27 = group_closure([P("(1,5)"), P("(1,2,3,4)(5,6,7,8)")])
    assert groups_equal(w, g27)

    w = wreath_product(c2, named_group("S4"), [[1, 5], [2, 6], [3, 7], [4, 8]])
    assert w.order == 384
    g44 = group_closure([P("(1,5)"), P("(1,2)(5,6)"), P("(1,2,3,4)(5,6,7,8)")])
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
    from fixedfield.catalog import catalog_group

    rng = random.Random(11)
    for name in ("G1", "G17", "G33", "G46", "G48"):
        elements = catalog_group(name).sorted_elements()
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


def _sign(p):
    return (-1) ** sum(len(c) - 1 for c in p.cycles())


def test_images_under_carries_a_homomorphism():
    s4 = group_closure([P("(1,2)", 4), P("(1,2,3,4)", 4)])
    images = s4.images_under([-1, -1], 1, lambda a, b: a * b)
    assert images.keys() == s4.elements
    assert all(images[p] == _sign(p) for p in s4.elements)
    # the identity map on a group is its own homomorphism
    g17 = group_closure([P("(1,2,3,4)"), P(KAPPA)])
    ident = g17.images_under(g17.generators, Perm.identity(8), Perm.__mul__)
    assert all(image == p for p, image in ident.items())


def test_images_under_rejects_non_homomorphisms():
    s3 = group_closure([P("(1,2)", 3), P("(1,2,3)", 3)])
    # a transposition sent to an element of order 3
    with pytest.raises(PermError, match="not a homomorphism"):
        s3.images_under([P("(1,2,3)", 3), Perm.identity(3)], Perm.identity(3), Perm.__mul__)
    # the sign of a 3-cycle must be +1
    with pytest.raises(PermError, match="not a homomorphism"):
        s3.images_under([-1, -1], 1, lambda a, b: a * b)
    with pytest.raises(PermError, match="one image per generator"):
        s3.images_under([-1], 1, lambda a, b: a * b)
    # the walk must cover exactly the element set
    c2 = group_closure([P("(1,2)", 3)])
    c2.elements = c2.elements | {P("(1,2,3)", 3)}
    with pytest.raises(PermError, match="does not reach"):
        c2.images_under([-1], 1, lambda a, b: a * b)

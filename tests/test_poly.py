import random

import pytest

from fixedfield.parser import parse_expr
from fixedfield.poly import (
    Poly,
    PolyError,
    RatFunc,
    VarTable,
    ratfunc_eq,
    substitute,
)
from fixedfield.scalars import F2, F4, QQ, QZ3, FieldError

X = VarTable(["x1", "x2", "x3"])
Y = VarTable(["y1", "y2", "y3", "y4", "y5", "y6", "y7", "y8"])


def q(text, vars=X):
    return parse_expr(text, vars, QQ)


def f2(text, vars=X):
    return parse_expr(text, vars, F2)


rf = RatFunc.from_poly


def random_poly(vars, field, rng, max_terms=4, max_deg=3):
    p = Poly.zero(vars, field)
    for _ in range(rng.randint(0, max_terms)):
        exp = tuple(rng.randint(0, max_deg) for _ in vars.names)
        if field is QQ:
            c = field.from_int(rng.randint(-5, 5))
        else:
            c = field.from_int(rng.randint(0, 1))
        p = p + Poly(vars, field, {vars.pack(exp): c}) if c != field.zero() else p
    return p


def test_poly_arith_examples():
    p = q("(x1 + x2)*(x1 - x2)")
    assert ratfunc_eq(p, q("x1^2 - x2^2"))
    rng = random.Random(7)
    for _ in range(20):
        p = random_poly(X, QQ, rng)
        assert p + Poly.zero(X, QQ) == p
    # Frobenius in characteristic 2
    assert ratfunc_eq(f2("(x1 + x2)^2"), f2("x1^2 + x2^2"))


def test_poly_arith_dispatch_and_errors():
    a = q("x1 + 1").num
    b = q("x2").num
    assert a + b == q("x1 + x2 + 1").num
    assert a - b == q("x1 - x2 + 1").num
    assert a * b == q("x1*x2 + x2").num
    other = Poly.var(Y, QQ, "y1")
    with pytest.raises(PolyError):
        a + other
    # operands over different fields are refused, not coerced
    with pytest.raises(FieldError):
        a + Poly.one(X, F2)
    with pytest.raises(FieldError):
        q("x1") * f2("x1")


def test_zero_poly_invariant():
    p = q("x1 - x1")
    assert p.num.is_zero() and p.num.terms == {}


def test_ratfunc_construction_rejects_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        RatFunc(q("x1").num, Poly.zero(X, QQ))


def test_ratfunc_eq_examples():
    assert ratfunc_eq(q("(x1^2 - x2^2)/(x1 - x2)"), q("x1 + x2"))
    assert not ratfunc_eq(q("x1/x2"), q("x2/x1"))
    assert ratfunc_eq(q("(2*x1)/(2*x2)"), q("x1/x2"))


def test_sum_over_a_shared_denominator_keeps_it():
    a, b = q("x1/(x2 + x3 + 1)"), q("(x2 - x1^2)/(x2 + x3 + 1)")
    total = a + b
    assert total.den.terms == a.den.terms
    assert ratfunc_eq(total, q("(x1 + x2 - x1^2)/(x2 + x3 + 1)"))
    rng = random.Random(57)
    for field in (QQ, F2):
        for _ in range(30):
            a = RatFunc(random_poly(X, field, rng) + Poly.one(X, field),
                        random_poly(X, field, rng) + Poly.one(X, field))
            if 0 not in a.den.terms:  # a monic den with a constant term stays as it is
                continue
            b = RatFunc(random_poly(X, field, rng), a.den)
            cross = RatFunc(a.num * b.den + b.num * a.den, a.den * b.den)
            total = a + b
            assert ratfunc_eq(total, cross)
            if not total.is_zero():
                assert total.den.terms == a.den.terms


def test_ratfunc_eq_equivalence_random():
    rng = random.Random(11)
    for _ in range(60):
        n = random_poly(X, QQ, rng)
        d = random_poly(X, QQ, rng)
        if d.is_zero():
            continue
        a = RatFunc(n, d)
        assert ratfunc_eq(a, a)
        m1 = random_poly(X, QQ, rng)
        m2 = random_poly(X, QQ, rng)
        if m1.is_zero() or m2.is_zero():
            continue
        b = RatFunc(n * m1, d * m1, simplify=False)
        c = RatFunc(n * m1 * m2, d * m1 * m2, simplify=False)
        assert ratfunc_eq(a, b) and ratfunc_eq(b, a)
        assert ratfunc_eq(b, c)
        assert ratfunc_eq(a, c)  # transitivity across the chain


def random_monomial_subst(source, target, field, rng):
    images = []
    for _ in source.names:
        exps = tuple(rng.randint(0, 2) for _ in target.names)
        num = Poly(target, field, {target.pack(exps): field.from_int(rng.choice([1, 2, -1, 3]))})
        exps = tuple(rng.randint(0, 1) for _ in target.names)
        den = Poly(target, field, {target.pack(exps): field.one()})
        images.append(RatFunc(num, den))
    return images


def test_substitute_is_homomorphism():
    rng = random.Random(23)
    for _ in range(25):
        s = random_monomial_subst(X, Y, QQ, rng)
        p = random_poly(X, QQ, rng)
        r = random_poly(X, QQ, rng)
        sp, sr = substitute(rf(p), s), substitute(rf(r), s)
        assert ratfunc_eq(substitute(rf(p + r), s), sp + sr)
        assert ratfunc_eq(substitute(rf(p * r), s), sp * sr)


def test_substitute_composition_law():
    rng = random.Random(31)
    Z = VarTable(["u", "v"])
    for _ in range(15):
        s = random_monomial_subst(X, Y, QQ, rng)
        t = random_monomial_subst(Y, Z, QQ, rng)
        p = random_poly(X, QQ, rng, max_terms=3, max_deg=2)
        # s then t: the images of s, carried over Z by t
        st = [substitute(im, t) for im in s]
        assert ratfunc_eq(substitute(substitute(rf(p), s), t), substitute(rf(p), st))


def test_substitute_examples():
    swap = [RatFunc.var(X, QQ, "x2"), RatFunc.var(X, QQ, "x1"), RatFunc.var(X, QQ, "x3")]
    assert ratfunc_eq(substitute(q("x1 + x2"), swap), q("x1 + x2"))
    s = [q("x1*x2/x3"), q("x2"), q("x3")]
    assert ratfunc_eq(substitute(q("x1"), s), q("x1*x2/x3"))


def test_substitute_monomial_products_through_definitions():
    # z2*z7*z5 with the degree-7 block definitions collapses to y3*y4*y5
    zt = VarTable(["z2", "z3", "z4", "z5", "z6", "z7", "z8"])
    defs = {
        "z2": "y2*y3/y6",
        "z3": "y3*y7/y8",
        "z4": "y4*y5/y3",
        "z5": "y5*y6/y7",
        "z6": "y6*y8/y4",
        "z7": "y7*y4/y2",
        "z8": "y8*y2/y5",
    }
    s = [parse_expr(defs[n], Y, QQ) for n in zt.names]
    w2 = parse_expr("z2*z7*z5", zt, QQ)
    assert ratfunc_eq(substitute(w2, s), parse_expr("y3*y4*y5", Y, QQ))


def test_substitution_zero_denominator_detected():
    s = [q("x1"), q("x1"), q("x3")]
    p = parse_expr("1/(x1 - x2)", X, QQ)
    with pytest.raises(ZeroDivisionError):
        substitute(p, s)


def test_ratfunc_eq_meets_in_the_join():
    # a Q and a Qz3 function, or an F2 and an F4 one, compare as the
    # smaller one embedded into the larger field does
    for small, big in [(QQ, QZ3), (F2, F4)]:
        pairs = [
            ("(x1^2 - x2)/(x3 + 1)", "(x1^2 - x2)/(x3 + 1)"),
            ("x1", "x1 + zeta3^2 + zeta3 + 1"),
            ("x1 - x2", "x1 + x2"),
            ("x1*x2", "zeta3*x1*x2"),
            ("1/x1", "x1"),
        ]
        seen = set()
        for left, right in pairs:
            a, b = parse_expr(left, X, small), parse_expr(right, X, big)
            want = ratfunc_eq(a.embed(big), b)
            assert ratfunc_eq(a, b) == want == ratfunc_eq(b, a)
            seen.add(want)
        assert seen == {True, False}
    for a, b in [(q("x1"), f2("x1")), (parse_expr("zeta3", X, QZ3), f2("x1"))]:
        with pytest.raises(FieldError):
            ratfunc_eq(a, b)
        with pytest.raises(FieldError):
            ratfunc_eq(b, a)
    # embedding goes up a chain only, even for the zero polynomial
    for big, small in [(QZ3, QQ), (F4, F2), (QQ, F2), (F2, QZ3)]:
        with pytest.raises(FieldError):
            Poly.zero(X, big).embed(small)


def test_substitute_meets_in_the_join():
    # a Q polynomial at images over Q and Qz3 lands in Qz3
    images = [parse_expr("zeta3*x2", X, QZ3), q("x1"), q("x3")]
    got = substitute(q("x1^2 + x2"), images)
    assert got.field is QZ3
    assert ratfunc_eq(got, parse_expr("zeta3^2*x2^2 + x1", X, QZ3))
    # a Q rational function, its denominator included
    got = substitute(q("x2/(x1 - 1)"), images)
    assert got.field is QZ3
    assert ratfunc_eq(got, parse_expr("x1/(zeta3*x2 - 1)", X, QZ3))
    # an F2 polynomial at images over F2 and F4 lands in F4
    got = substitute(f2("x1*x2 + x3"), [parse_expr("zeta3", X, F4), f2("x2"), f2("x3")])
    assert got.field is F4
    assert ratfunc_eq(got, parse_expr("zeta3*x2 + x3", X, F4))
    # no field holds both Q and F2
    with pytest.raises(FieldError):
        substitute(q("x1"), [f2("x1"), f2("x2"), f2("x3")])
    with pytest.raises(FieldError):
        substitute(q("x1"), [q("x1"), f2("x2"), q("x3")])
    # the images cover every variable and lie over one table
    with pytest.raises(PolyError, match="cover every"):
        substitute(q("x1"), [q("x1"), q("x2")])
    with pytest.raises(PolyError, match="different tables"):
        substitute(q("x1"), [q("x1"), q("x2"), q("y1", Y)])


def test_simplification_strips_monomial_content():
    r = RatFunc(q("x1^2*x2 + x1*x2^2").num, q("x1*x2*x3").num)
    assert r.den == q("x3").num
    assert r.num == q("x1 + x2").num


def test_deterministic_term_order():
    p = q("x3 + x1^2 + x2*x1 + 1").num
    assert [e for e, _ in p.sorted_terms()] == [(2, 0, 0), (1, 1, 0), (0, 0, 1), (0, 0, 0)]
    assert str(p) == "x1^2+x1*x2+x3+1"


# ---------------------------------------------------------------------------
# the packed-monomial kernel against a plain exponent-tuple reference

from fractions import Fraction

from fixedfield.poly import EXPONENT_LIMIT
from fixedfield.scalars import F4, QZ3

FIELDS4 = [QQ, F2, QZ3, F4]
W = VarTable(["w1", "w2", "w3", "w4"])


def random_payload(field, rng):
    """A nonzero payload of field."""
    while True:
        if field is QQ:
            c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            c = c.numerator if c.denominator == 1 else c
        elif field is QZ3:
            c = field.add(field.from_int(rng.randint(-2, 2)),
                          field.mul(field.from_int(rng.randint(-2, 2)), field.zeta3()))
        elif field is F4:
            c = rng.randint(1, 3)
        else:
            c = 1
        if c != field.zero():
            return c


def random_ref(vars, field, rng, terms, max_deg=3):
    """A tuple-keyed term dict with exactly `terms` terms."""
    ref = {}
    while len(ref) < terms:
        ref[tuple(rng.randint(0, max_deg) for _ in vars.names)] = random_payload(field, rng)
    return ref


def ref_add(field, a, b):
    out = dict(a)
    for e, c in b.items():
        s = field.add(out.get(e, field.zero()), c)
        if s == field.zero():
            out.pop(e, None)
        else:
            out[e] = s
    return out


def ref_mul(field, a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out = ref_add(field, out, {tuple(x + y for x, y in zip(e1, e2)): field.mul(c1, c2)})
    return out


def ref_pow(field, a, n, width):
    out = {(0,) * width: field.one()}
    for _ in range(n):
        out = ref_mul(field, out, a)
    return out


def ref_sorted(ref):
    return sorted(ref.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)


def to_poly(vars, field, ref):
    return Poly(vars, field, {vars.pack(e): c for e, c in ref.items()})


def operand_refs(vars, field, rng):
    """Zero, the constant one, one-term and many-term operands."""
    width = len(vars)
    return [
        {},
        {(0,) * width: field.one()},
        random_ref(vars, field, rng, 1),
        random_ref(vars, field, rng, 1),
        random_ref(vars, field, rng, 3),
        random_ref(vars, field, rng, 7),
    ]


@pytest.mark.parametrize("field", FIELDS4, ids=lambda f: f.tag)
def test_packed_kernel_matches_tuple_reference(field):
    rng = random.Random(f"kernel:{field.tag}")
    for _ in range(6):
        refs = operand_refs(W, field, rng)
        for a in refs:
            pa = to_poly(W, field, a)
            assert pa.sorted_terms() == ref_sorted(a)
            assert W.degree(max(pa.terms, default=0)) == max((sum(e) for e in a), default=0)
            for n in range(4):
                assert (pa ** n).sorted_terms() == ref_sorted(ref_pow(field, a, n, len(W)))
            for b in refs:
                pb = to_poly(W, field, b)
                assert (pa + pb).sorted_terms() == ref_sorted(ref_add(field, a, b))
                assert (pa * pb).sorted_terms() == ref_sorted(ref_mul(field, a, b))
                neg_b = {e: field.neg(c) for e, c in b.items()}
                assert (pa - pb).sorted_terms() == ref_sorted(ref_add(field, a, neg_b))


@pytest.mark.parametrize("field", FIELDS4, ids=lambda f: f.tag)
def test_substitute_matches_tuple_reference(field):
    # polynomial images, so the common denominator is 1 and the numerator
    # must equal sum_e c_e * prod_i image_i^e_i term for term
    rng = random.Random(f"substitute:{field.tag}")
    for _ in range(8):
        images = [random_ref(X, field, rng, rng.randint(0, 3), max_deg=2) for _ in W.names]
        s = [RatFunc.from_poly(to_poly(X, field, im)) for im in images]
        for p in operand_refs(W, field, rng):
            want = {}
            for e, c in p.items():
                term = {(0,) * len(X): c}
                for im, k in zip(images, e):
                    term = ref_mul(field, term, ref_pow(field, im, k, len(X)))
                want = ref_add(field, want, term)
            got = substitute(rf(to_poly(W, field, p)), s)
            assert got.den.is_one()
            assert got.num.sorted_terms() == ref_sorted(want)


@pytest.mark.parametrize("tag", ["Q", "F2"])
def test_products_and_sums_match_sympy_ring(tag):
    sympy = pytest.importorskip("sympy")
    field = QQ if tag == "Q" else F2
    domain = sympy.QQ if tag == "Q" else sympy.GF(2)
    R, *gens = sympy.ring(",".join(W.names), domain)

    def to_sympy(ref):
        out = R.zero
        for e, c in ref.items():
            coeff = domain.convert(sympy.Rational(c.numerator, c.denominator)) \
                if tag == "Q" else domain(c)
            term = R(coeff)
            for g, k in zip(gens, e):
                term *= g**k
            out += term
        return out

    def from_sympy(sp):
        out = {}
        for e, c in sp.to_dict().items():
            if tag == "Q":
                v = Fraction(int(c.numerator), int(c.denominator))
                out[e] = v.numerator if v.denominator == 1 else v
            else:
                out[e] = int(c) % 2
        return ref_sorted(out)

    rng = random.Random(f"sympy:{tag}")
    for _ in range(6):
        refs = operand_refs(W, field, rng)
        for a in refs:
            for b in refs:
                pa, pb = to_poly(W, field, a), to_poly(W, field, b)
                sa, sb = to_sympy(a), to_sympy(b)
                assert (pa * pb).sorted_terms() == from_sympy(sa * sb)
                assert (pa + pb).sorted_terms() == from_sympy(sa + sb)
            assert (to_poly(W, field, a) ** 3).sorted_terms() == from_sympy(to_sympy(a) ** 3)


def test_exponent_cap_raises_instead_of_wrapping():
    x1 = Poly.var(X, QQ, "x1")
    x2 = Poly.var(X, QQ, "x2")
    with pytest.raises(PolyError, match="cap"):
        x1 ** EXPONENT_LIMIT
    with pytest.raises(PolyError):
        X.pack((EXPONENT_LIMIT, 0, 0))
    with pytest.raises(PolyError):
        X.pack((-1, 0, 0))
    top = x1 ** (EXPONENT_LIMIT - 1)
    assert top.sorted_terms() == [((EXPONENT_LIMIT - 1, 0, 0), 1)]
    # the x1 field would carry into the field above it
    with pytest.raises(PolyError, match="cap"):
        top * x1
    one = Poly.one(X, QQ)
    with pytest.raises(PolyError, match="cap"):
        top * (x1 + one)
    with pytest.raises(PolyError, match="cap"):
        (top + one) * (x1 + one)
    # no single exponent reaches the cap, but the total degree would
    half = EXPONENT_LIMIT // 2
    with pytest.raises(PolyError, match="cap"):
        x1 ** half * x2 ** half
    with pytest.raises(PolyError):
        parse_expr(f"x1^{EXPONENT_LIMIT}", X, QQ)
    with pytest.raises(PolyError):
        parse_expr(f"1/x1^{EXPONENT_LIMIT}", X, QQ)


def test_exponent_cap_in_suites_is_a_reported_error():
    from fixedfield.suite import SuiteError, parse_suite_text, run_parsed_suite

    head = "suite mini field=Q\npoints 3\nvars x = x1 x2 x3\n"
    suite = parse_suite_text(
        head + f'check identity x1^{EXPONENT_LIMIT} - x1^{EXPONENT_LIMIT} == 0 ref="r"\n'
    )
    (result,) = run_parsed_suite(suite).checks
    assert result.status == "fail"
    assert result.detail.startswith("error:") and "cap" in result.detail
    with pytest.raises(SuiteError, match=r"^line 5: .*cap"):
        parse_suite_text(head + f"vars y = y1\ndef y.y1 = x1^{EXPONENT_LIMIT}\n")


def test_multiplying_by_one_leaves_operands_unchanged():
    p = q("x1^2 + 3*x2*x3 - 1").num
    before = p.sorted_terms()
    one = Poly.one(X, QQ)
    s = [q("x2"), q("x1 + x3"), q("2")]
    for product in (p * one, one * p):
        assert product == p
        image = substitute(rf(product), s)
        assert ratfunc_eq(image, q("x2^2 + 3*(x1 + x3)*2 - 1"))
        assert p.sorted_terms() == before
        assert one.sorted_terms() == [((0, 0, 0), 1)]


def test_constant_power_reaches_the_coefficient_cap():
    import time

    from fixedfield.poly import COEFFICIENT_BITS_LIMIT
    from fixedfield.suite import parse_suite_text, run_parsed_suite

    start = time.perf_counter()
    with pytest.raises(PolyError, match="coefficient cap"):
        parse_expr("3^100000000", X, QQ)
    for base in ("2 - zeta3", "2*zeta3"):  # either part of a Qz3 payload
        with pytest.raises(PolyError, match="coefficient cap"):
            parse_expr(f"x1*({base})^100000000", X, QZ3)
    with pytest.raises(PolyError, match="coefficient cap"):
        parse_expr("(1/2)^100000000", X, QQ)
    assert time.perf_counter() - start < 1
    # just below the cap, and powers whose payloads do not grow
    assert parse_expr(f"2^{COEFFICIENT_BITS_LIMIT - 1}", X, QQ).num.terms == {
        0: 2 ** (COEFFICIENT_BITS_LIMIT - 1)
    }
    assert ratfunc_eq(parse_expr("(-1)^100000001*x1", X, QQ), q("-x1"))
    assert ratfunc_eq(parse_expr("zeta3^100000000", X, QZ3), parse_expr("zeta3", X, QZ3))
    assert ratfunc_eq(parse_expr("(zeta3*x1)^3", X, F4), parse_expr("x1^3", X, F4))
    assert ratfunc_eq(parse_expr("(zeta3 + 1)^100000000", X, F4), parse_expr("zeta3^2", X, F4))
    # in a suite the cap is an error verdict
    suite = parse_suite_text(
        "suite mini field=Q\npoints 3\nvars x = x1 x2 x3\n"
        'check identity 3^100000000 - 3^100000000 == 0 ref="r"\n'
    )
    (result,) = run_parsed_suite(suite).checks
    assert result.status == "fail"
    assert result.detail.startswith("error:") and "coefficient cap" in result.detail
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("field", FIELDS4, ids=lambda f: f.tag)
def test_one_term_power_equals_repeated_products(field):
    # a one-term base is raised in one step, {n * e: c^n}; it must agree
    # with n - 1 products, and a base of coefficient 1 keeps it
    rng = random.Random(4400 + len(field.tag))
    for _ in range(40):
        exps = tuple(rng.randint(0, 4) for _ in W.names)
        for c in (field.one(), random_payload(field, rng)):
            base = Poly(W, field, {W.pack(exps): c})
            product = Poly.one(W, field)
            for n in range(9):
                assert (base**n).terms == product.terms, (exps, c, n)
                product = product * base
    x1 = Poly.var(W, field, "w1")
    assert (x1 ** (EXPONENT_LIMIT - 1)).sorted_terms() == [
        ((EXPONENT_LIMIT - 1, 0, 0, 0), field.one())
    ]
    # n * e would carry past a guard bit: refused, never wrapped
    with pytest.raises(PolyError, match="cap"):
        x1**EXPONENT_LIMIT
    with pytest.raises(PolyError, match="cap"):
        (x1**200) ** 200
    with pytest.raises(PolyError, match="cap"):
        (x1 * Poly.var(W, field, "w2")) ** (EXPONENT_LIMIT // 2)
    for text in ("w1^32768", "(w1^200)^200", "(3*w1*w2^3)^8192"):
        with pytest.raises(PolyError, match="cap"):
            parse_expr(text, W, field)

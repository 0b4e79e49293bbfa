import random
from fractions import Fraction

import pytest

from fixedfield.scalars import (
    F2,
    F4,
    FIELDS,
    QQ,
    QZ3,
    FieldError,
    embed,
    field_by_tag,
    join,
    power,
    with_zeta3,
)


def random_payload(field, rng):
    if field is QQ:
        return field.div(field.from_int(rng.randint(-20, 20)), field.from_int(rng.randint(1, 9)))
    if field is F2:
        return rng.randint(0, 1)
    if field is QZ3:
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        return (a, b)
    if field is F4:
        return rng.randint(0, 3)
    raise AssertionError


@pytest.mark.parametrize("tag", ["Q", "F2", "Qz3", "F4"])
def test_field_axioms_random(tag):
    field = field_by_tag(tag)
    rng = random.Random(20240 + len(tag))
    zero, one = field.zero(), field.one()
    for _ in range(1000):
        a, b, c = (random_payload(field, rng) for _ in range(3))
        assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
        assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
        assert field.add(a, b) == field.add(b, a)
        assert field.mul(a, b) == field.mul(b, a)
        assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b), field.mul(a, c))
        assert field.add(a, zero) == a
        assert field.mul(a, one) == a
        assert field.add(a, field.neg(a)) == zero
        if a != zero:
            assert field.mul(a, field.inv(a)) == one


def test_characteristic_facts():
    for field in (QQ, QZ3):
        minus_one = field.neg(field.one())
        assert field.mul(minus_one, minus_one) == field.one()
        assert field.add(field.one(), field.one()) != field.zero()
    for field in (F2, F4):
        assert field.add(field.one(), field.one()) == field.zero()


def test_zeta3_minimal_polynomial():
    for field in (QZ3, F4):
        z = field.zeta3()
        z2 = field.mul(z, z)
        assert field.add(field.add(z2, z), field.one()) == field.zero()
        # zeta3 * zeta3^2 == 1
        assert field.mul(z, z2) == field.one()


def test_f4_square_of_zeta3():
    z = F4.zeta3()
    assert F4.mul(z, z) == F4.add(z, F4.one())  # zeta3^2 = zeta3 + 1 in char 2


def test_spec_examples():
    # 2/3 + 1/6 = 5/6 in Q
    a = QQ.div(QQ.from_int(2), QQ.from_int(3))
    b = QQ.div(QQ.from_int(1), QQ.from_int(6))
    assert QQ.add(a, b) == QQ.div(QQ.from_int(5), QQ.from_int(6))


def test_scalar_wrapper_and_dispatch():
    # the field operations on payloads; mixing fields is refused by Poly
    # and RatFunc arithmetic (test_poly)
    a = QQ.div(QQ.from_int(2), QQ.from_int(3))
    b = QQ.div(QQ.from_int(1), QQ.from_int(6))
    assert QQ.add(a, b) == QQ.div(QQ.from_int(5), QQ.from_int(6))
    z = QZ3.zeta3()
    assert QZ3.mul(z, QZ3.mul(z, z)) == QZ3.from_int(1)
    with pytest.raises(ZeroDivisionError):
        F4.div(F4.from_int(1), F4.from_int(0))
    with pytest.raises(ZeroDivisionError, match="^division by zero in Q$"):
        QQ.inv(QQ.zero())


def test_canonical_equality():
    # equal values have identical payloads; integral results come back as ints
    half = QQ.div(QQ.from_int(1), QQ.from_int(2))
    assert QQ.add(half, half) == QQ.one() and type(QQ.add(half, half)) is int
    third = QQ.div(QQ.from_int(2), QQ.from_int(6))
    assert third.numerator == 1 and third.denominator == 3
    assert QZ3.zero() == QZ3.add(QZ3.one(), QZ3.neg(QZ3.one()))


def test_conjugation():
    for field in (QZ3, F4):
        z = field.zeta3()
        assert field.conj(z) == field.mul(z, z)
        assert field.conj(field.conj(z)) == z
        assert field.conj(field.one()) == field.one()
    assert QQ.conj(QQ.from_int(7)) == QQ.from_int(7)


def test_join_is_the_larger_field_of_one_chain():
    # Q lies in Qz3 and F2 in F4; no field holds both Q and F2
    assert join(QQ, QQ) is QQ and join(F4, F4) is F4
    assert join(QQ, QZ3) is QZ3 and join(QZ3, QQ) is QZ3
    assert join(F2, F4) is F4 and join(F4, F2) is F4
    for a, b in [(QQ, F2), (QQ, F4), (QZ3, F2), (QZ3, F4)]:
        with pytest.raises(FieldError, match="incompatible"):
            join(a, b)
        with pytest.raises(FieldError, match="incompatible"):
            join(b, a)
    # the join holds both: each side embeds into it
    for small, big in [(QQ, QZ3), (F2, F4)]:
        assert embed(small.one(), small, join(small, big)) == big.one()
    assert [with_zeta3(f) for f in (QQ, F2, QZ3, F4)] == [QZ3, F4, QZ3, F4]
    # and only small into big
    for src, dst in [(QZ3, QQ), (F4, F2), (QQ, F2)]:
        with pytest.raises(FieldError, match=f"^no embedding {src.tag} -> {dst.tag}$"):
            embed(src.one(), src, dst)


def test_f2_and_f4_are_one_table_driven_class():
    # F2 is the corner {0, 1} of the F4 tables: its operations are F4's
    # restricted there, and embedding it in F4 is the identity
    assert type(F2) is type(F4)
    assert (F2.tag, F2.has_zeta3, F4.tag, F4.has_zeta3) == ("F2", False, "F4", True)
    for a in (0, 1):
        assert embed(a, F2, F4) == a and F2.conj(a) == a and F2.to_str(a) == str(a)
        for b in (0, 1):
            assert F2.add(a, b) == F4.add(a, b) == a ^ b
            assert F2.mul(a, b) == F4.mul(a, b) == a & b
    assert [F2.from_int(n) for n in range(-2, 3)] == [0, 1, 0, 1, 0]
    assert F4.zeta3() == 2
    with pytest.raises(FieldError, match="^zeta3 is not an element of F2$"):
        F2.zeta3()
    with pytest.raises(FieldError, match="^zeta3 is not an element of Q$"):
        QQ.zeta3()
    for field in (F2, F4):
        with pytest.raises(ZeroDivisionError, match=f"^division by zero in {field.tag}$"):
            field.inv(0)
    assert (QQ.zero(), QQ.one(), F2.zero(), F2.one(), F4.zero(), F4.one()) == (0, 1) * 3


def test_power_is_square_and_multiply():
    # x^n for every n up to 40, with one product per set bit and one square
    # per bit below the top one: the last square is not taken
    for n in range(41):
        calls = []

        def mul(a, b):
            calls.append((a, b))
            return a + b

        assert power(1, n, 0, mul) == n
        assert len(calls) == (n.bit_length() - 1 if n else 0) + bin(n).count("1")
    third = QQ.div(1, 3)
    assert QQ.pow(third, 4) == Fraction(1, 81) and QQ.pow(third, -3) == 27
    assert QQ.pow(5, 0) == 1 and F4.pow(2, -1) == F4.inv(2) == 3
    assert [F4.pow(2, n) for n in range(-3, 4)] == [1, 2, 3, 1, 2, 3, 1]
    assert QZ3.pow(QZ3.zeta3(), -1) == QZ3.mul(QZ3.zeta3(), QZ3.zeta3())
    with pytest.raises(ZeroDivisionError, match="in F2"):
        F2.pow(0, -1)


def test_field_registry():
    assert set(FIELDS) == {"Q", "F2", "Qz3", "F4"}
    with pytest.raises(FieldError):
        field_by_tag("F8")


# --- Qz3 payloads against a reference on pairs of Fractions -----------------

def _ref_pair(rng):
    """a + b*z3 as two Fractions: mostly integers, some halves and thirds,
    so that sums and products of fractional parts often come out integral."""
    def part():
        return Fraction(rng.randint(-6, 6), rng.choice([1, 1, 1, 2, 3]))
    return (part(), part())


def _payload(ref):
    return tuple(x.numerator if x.denominator == 1 else x for x in ref)


def _ref_mul(a, b):
    p = a[1] * b[1]
    return (a[0] * b[0] - p, a[0] * b[1] + a[1] * b[0] - p)


def _ref_inv(a):
    n = a[0] * a[0] - a[0] * a[1] + a[1] * a[1]
    return ((a[0] - a[1]) / n, -a[1] / n)


def _assert_canonical(payload, ref):
    # equal to the reference, and each part an int exactly when integral
    assert payload == ref
    for part, want in zip(payload, ref):
        assert type(part) is (int if want.denominator == 1 else Fraction)


def test_qz3_payloads_match_a_fraction_pair_reference():
    from fixedfield.parser import parse_expr
    from fixedfield.poly import Poly, RatFunc, VarTable, ratfunc_eq

    rng = random.Random(3303)
    xt = VarTable(["x1"])
    integral = 0
    for _ in range(2000):
        ra, rb = _ref_pair(rng), _ref_pair(rng)
        a, b = _payload(ra), _payload(rb)
        _assert_canonical(QZ3.add(a, b), (ra[0] + rb[0], ra[1] + rb[1]))
        _assert_canonical(QZ3.neg(a), (-ra[0], -ra[1]))
        _assert_canonical(QZ3.mul(a, b), _ref_mul(ra, rb))
        _assert_canonical(QZ3.conj(a), (ra[0] - ra[1], -ra[1]))
        _assert_canonical(QZ3.pow(a, 3), _ref_mul(ra, _ref_mul(ra, ra)))
        if a != QZ3.zero():
            _assert_canonical(QZ3.inv(a), _ref_inv(ra))
            _assert_canonical(QZ3.div(b, a), _ref_mul(rb, _ref_inv(ra)))
        q = _payload((ra[0],))[0]
        _assert_canonical(embed(q, QQ, QZ3), (ra[0], Fraction(0)))
        # the text of a payload is the text of its Fraction pair, and parses
        # back to the value a
        text = QZ3.to_str(a)
        assert text == QZ3.to_str(ra)
        const = RatFunc.from_poly(Poly.const(xt, QZ3, a))
        assert ratfunc_eq(parse_expr(text, xt, QZ3), const), text
        integral += all(type(x) is int for x in QZ3.mul(a, b))
    # the draws exercise both the integral and the fractional paths
    assert 500 < integral < 1900
    assert QZ3.zero() == (0, 0) and QZ3.one() == (1, 0) and QZ3.zeta3() == (0, 1)
    assert all(type(x) is int for x in QZ3.from_int(-7) + QZ3.zeta3())
    with pytest.raises(ZeroDivisionError):
        QZ3.inv(QZ3.zero())

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


def test_field_registry():
    assert set(FIELDS) == {"Q", "F2", "Qz3", "F4"}
    with pytest.raises(FieldError):
        field_by_tag("F8")

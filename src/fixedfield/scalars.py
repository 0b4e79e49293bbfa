"""Exact arithmetic in the four coefficient fields the engine supports.

Q          rationals (fractions.Fraction payloads)
F2         the field with two elements (int payloads 0/1)
Qz3        Q adjoined a primitive cube root of unity z3, basis {1, z3},
           reduced by z3^2 = -1 - z3 (payloads are (Fraction, Fraction))
F4         F2 adjoined z3, basis {1, z3}, reduced by z3^2 = 1 + z3
           (payloads are ints 0..3: bit 0 the constant, bit 1 the z3 part)

Payloads are canonical: equal field elements have equal payloads.  Poly
stores raw payloads for speed; Scalar wraps a payload with its field for
the public surface.  Mixing payloads from different fields is an error.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


class FieldError(ValueError):
    pass


class Field:
    """One of the four supported coefficient fields.

    Subclasses provide arithmetic on raw payloads.  Instances are
    singletons; identity comparison is field-tag comparison.
    """

    tag: str
    char: int
    has_zeta3 = False

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def from_int(self, n: int):
        raise NotImplementedError

    def zeta3(self):
        raise FieldError(f"zeta3 is not an element of {self.tag}")

    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def div(self, a, b):
        if b == self.zero():
            raise ZeroDivisionError(f"division by zero in {self.tag}")
        return self.mul(a, self.inv(b))

    def conj(self, a):
        """The automorphism z3 -> z3^2 (identity on Q and F2)."""
        return a

    def pow(self, a, n: int):
        if n < 0:
            return self.pow(self.inv(a), -n)
        out = self.one()
        base = a
        while n:
            if n & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            n >>= 1
        return out

    def to_str(self, a) -> str:
        raise NotImplementedError

    def __repr__(self):
        return f"<field {self.tag}>"


class _RationalField(Field):
    """Payloads are ints when integral, Fractions otherwise.  Ints and
    equal Fractions hash and compare identically, and every operation
    normalizes back to int, so the representation stays canonical."""

    tag = "Q"
    char = 0

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n):
        return n

    @staticmethod
    def _norm(f):
        return f.numerator if f.denominator == 1 else f

    def add(self, a, b):
        if type(a) is int and type(b) is int:
            return a + b
        return self._norm(a + b)

    def neg(self, a):
        return -a

    def sub(self, a, b):
        if type(a) is int and type(b) is int:
            return a - b
        return self._norm(a - b)

    def mul(self, a, b):
        if type(a) is int and type(b) is int:
            return a * b
        return self._norm(a * b)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("division by zero in Q")
        if type(a) is int:
            return 1 if a == 1 else -1 if a == -1 else Fraction(1, a)
        return self._norm(1 / a)

    def to_str(self, a):
        return str(a)


class _BinaryField(Field):
    tag = "F2"
    char = 2

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n):
        return n & 1

    def add(self, a, b):
        return a ^ b

    def neg(self, a):
        return a

    def mul(self, a, b):
        return a & b

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("division by zero in F2")
        return 1

    def to_str(self, a):
        return str(a)


class _CyclotomicField(Field):
    """Q(z3) as pairs (a, b) = a + b*z3, with z3^2 = -1 - z3."""

    tag = "Qz3"
    char = 0
    has_zeta3 = True

    def zero(self):
        return (Fraction(0), Fraction(0))

    def one(self):
        return (Fraction(1), Fraction(0))

    def from_int(self, n):
        return (Fraction(n), Fraction(0))

    def zeta3(self):
        return (Fraction(0), Fraction(1))

    def add(self, a, b):
        return (a[0] + b[0], a[1] + b[1])

    def neg(self, a):
        return (-a[0], -a[1])

    def sub(self, a, b):
        return (a[0] - b[0], a[1] - b[1])

    def mul(self, a, b):
        # (a0 + a1 z)(b0 + b1 z), z^2 = -1 - z
        p = a[1] * b[1]
        return (a[0] * b[0] - p, a[0] * b[1] + a[1] * b[0] - p)

    def inv(self, a):
        # norm (a0 + a1 z)(a0 + a1 z^2) = a0^2 - a0 a1 + a1^2
        n = a[0] * a[0] - a[0] * a[1] + a[1] * a[1]
        if n == 0:
            raise ZeroDivisionError("division by zero in Qz3")
        return ((a[0] - a[1]) / n, -a[1] / n)

    def conj(self, a):
        # a + b z3 -> a + b z3^2 = (a - b) - b z3
        return (a[0] - a[1], -a[1])

    def to_str(self, a):
        c, z = a
        if z == 0:
            return str(c)
        zpart = "zeta3" if z == 1 else (f"{z}*zeta3" if z != -1 else "-zeta3")
        if c == 0:
            return zpart
        sign = "+" if z > 0 else "-"
        mag = abs(z)
        zmag = "zeta3" if mag == 1 else f"{mag}*zeta3"
        return f"{c}{sign}{zmag}"


class _QuarticField(Field):
    """F4 = F2(z3) as ints 0..3 (bit 0 constant, bit 1 z3), z3^2 = 1 + z3."""

    tag = "F4"
    char = 2
    has_zeta3 = True

    _MUL = (
        (0, 0, 0, 0),
        (0, 1, 2, 3),
        (0, 2, 3, 1),  # z*z = 1+z = 3, z*(1+z) = z+z^2 = 1
        (0, 3, 1, 2),
    )
    _INV = (None, 1, 3, 2)
    _CONJ = (0, 1, 3, 2)
    _STR = ("0", "1", "zeta3", "1+zeta3")

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n):
        return n & 1

    def zeta3(self):
        return 2

    def add(self, a, b):
        return a ^ b

    def neg(self, a):
        return a

    def mul(self, a, b):
        return self._MUL[a][b]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("division by zero in F4")
        return self._INV[a]

    def conj(self, a):
        # a + b z3 -> (a+b) + b z3
        return self._CONJ[a]

    def to_str(self, a):
        return self._STR[a]


QQ = _RationalField()
F2 = _BinaryField()
QZ3 = _CyclotomicField()
F4 = _QuarticField()

FIELDS = {f.tag: f for f in (QQ, F2, QZ3, F4)}


def field_by_tag(tag: str) -> Field:
    try:
        return FIELDS[tag]
    except KeyError:
        raise FieldError(f"unknown field tag {tag!r}") from None


def embed(value, src: Field, dst: Field):
    """Coerce a payload from src into dst (F2 -> F4, Q -> Qz3, or same field)."""
    if src is dst:
        return value
    if src is F2 and dst is F4:
        return value
    if src is QQ and dst is QZ3:
        return (value, Fraction(0))
    raise FieldError(f"no embedding {src.tag} -> {dst.tag}")


def can_embed(src: Field, dst: Field) -> bool:
    return src is dst or (src is F2 and dst is F4) or (src is QQ and dst is QZ3)


@dataclass(frozen=True)
class Scalar:
    """A field element tagged with its field."""

    field: Field
    value: object

    def _check(self, other: "Scalar"):
        if self.field is not other.field:
            raise FieldError(
                f"mixed-field arithmetic: {self.field.tag} vs {other.field.tag}"
            )

    def __add__(self, other):
        self._check(other)
        return Scalar(self.field, self.field.add(self.value, other.value))

    def __sub__(self, other):
        self._check(other)
        return Scalar(self.field, self.field.sub(self.value, other.value))

    def __mul__(self, other):
        self._check(other)
        return Scalar(self.field, self.field.mul(self.value, other.value))

    def __truediv__(self, other):
        self._check(other)
        return Scalar(self.field, self.field.div(self.value, other.value))

    def __neg__(self):
        return Scalar(self.field, self.field.neg(self.value))

    def is_zero(self):
        return self.value == self.field.zero()

    def __str__(self):
        return self.field.to_str(self.value)


def scalar(field: Field, n: int) -> Scalar:
    return Scalar(field, field.from_int(n))


def zeta3(field: Field) -> Scalar:
    return Scalar(field, field.zeta3())


"""Exact arithmetic in the four coefficient fields the engine supports.

Q          rationals (int payloads when integral, fractions.Fraction
           otherwise)
F2         the field with two elements (int payloads 0/1, the F4
           payloads without z3 part)
Qz3        Q adjoined a primitive cube root of unity z3, basis {1, z3},
           reduced by z3^2 = -1 - z3 (payloads are pairs of Q payloads)
F4         F2 adjoined z3, basis {1, z3}, reduced by z3^2 = 1 + z3
           (payloads are ints 0..3: bit 0 the constant, bit 1 the z3 part)

Payloads are canonical: equal field elements have equal payloads.  Poly
stores raw payloads and the field they lie in; mixing payloads from
different fields is an error.

The fields form two chains, Q in Qz3 and F2 in F4.  join(a, b) is the
one field of a pair that contains the other, and embed carries a payload
up its chain; the entry points of poly that meet operands from two
tables (ratfunc_eq, substitute) take the join, Poly arithmetic does not.

power is the one square-and-multiply of the package: field payloads,
permutations and polynomials are raised to powers through it.
"""

from __future__ import annotations


class FieldError(ValueError):
    pass


def power(x, n: int, one, mul):
    """x^n for n >= 0, one being the identity of the product mul, by
    binary square-and-multiply (Knuth, TAOCP vol. 2, 4.6.3).  The square
    after the top bit of n is never read, so it is not taken."""
    out = one
    while n:
        if n & 1:
            out = mul(out, x)
        n >>= 1
        if n:
            x = mul(x, x)
    return out


def _norm(x):
    """A rational as an int when it is integral (x an int or a Fraction)."""
    return x.numerator if x.denominator == 1 else x


class Field:
    """One of the four supported coefficient fields.

    Subclasses provide from_int, add, neg, mul, inv and to_str on raw
    payloads, and zero and one when those are not the ints 0 and 1.
    There is one instance per tag; identity comparison is field-tag
    comparison.
    """

    tag: str
    char: int
    has_zeta3 = False

    def zero(self):
        return 0

    def one(self):
        return 1

    def zeta3(self):
        raise FieldError(f"zeta3 is not an element of {self.tag}")

    def div(self, a, b):
        if b == self.zero():
            raise ZeroDivisionError(f"division by zero in {self.tag}")
        return self.mul(a, self.inv(b))

    def conj(self, a):
        """The automorphism z3 -> z3^2 (identity on Q and F2)."""
        return a

    def pow(self, a, n: int):
        return power(self.inv(a) if n < 0 else a, abs(n), self.one(), self.mul)

    def __repr__(self):
        return f"<field {self.tag}>"


class _RationalField(Field):
    """Payloads are ints when integral, Fractions otherwise.  Ints and
    equal Fractions hash and compare identically, and every operation
    normalizes back to int, so the representation stays canonical."""

    tag = "Q"
    char = 0

    def from_int(self, n):
        return n

    def add(self, a, b):
        if type(a) is int and type(b) is int:
            return a + b
        return _norm(a + b)

    def neg(self, a):
        return -a

    def mul(self, a, b):
        if type(a) is int and type(b) is int:
            return a * b
        return _norm(a * b)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("division by zero in Q")
        if type(a) is int:
            if a == 1 or a == -1:
                return a
            # imported on first use: most suites never leave the integers
            from fractions import Fraction
            return Fraction(1, a)
        return _norm(1 / a)

    def to_str(self, a):
        return str(a)


class _CyclotomicField(Field):
    """Q(z3) as pairs (a, b) = a + b*z3, with z3^2 = -1 - z3.  Each part
    is an int when integral and a Fraction otherwise, as in Q, and every
    operation normalizes back to int."""

    tag = "Qz3"
    char = 0
    has_zeta3 = True

    def zero(self):
        return (0, 0)

    def one(self):
        return (1, 0)

    def from_int(self, n):
        return (n, 0)

    def zeta3(self):
        return (0, 1)

    def add(self, a, b):
        c0, c1 = a[0] + b[0], a[1] + b[1]
        if type(c0) is int and type(c1) is int:
            return (c0, c1)
        return (_norm(c0), _norm(c1))

    def neg(self, a):
        return (-a[0], -a[1])

    def mul(self, a, b):
        # (a0 + a1 z)(b0 + b1 z), z^2 = -1 - z
        a0, a1 = a
        b0, b1 = b
        p = a1 * b1
        c0, c1 = a0 * b0 - p, a0 * b1 + a1 * b0 - p
        if type(c0) is int and type(c1) is int:
            return (c0, c1)
        return (_norm(c0), _norm(c1))

    def inv(self, a):
        # norm (a0 + a1 z)(a0 + a1 z^2) = a0^2 - a0 a1 + a1^2
        a0, a1 = a
        n = a0 * a0 - a0 * a1 + a1 * a1
        if n == 0:
            raise ZeroDivisionError("division by zero in Qz3")
        from fractions import Fraction  # imported on first use, as in Q
        return (_norm(Fraction(a0 - a1) / n), _norm(Fraction(-a1) / n))

    def conj(self, a):
        # a + b z3 -> a + b z3^2 = (a - b) - b z3
        return (_norm(a[0] - a[1]), -a[1])

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


class _Char2Field(Field):
    """F4 = F2(z3) as ints 0..3 (bit 0 constant, bit 1 z3), z3^2 = 1 + z3,
    and F2 as its payloads 0 and 1, the corner of the same tables, which
    is why F2 embeds in F4 as the identity.  has_zeta3 tells them apart."""

    char = 2

    _MUL = (
        (0, 0, 0, 0),
        (0, 1, 2, 3),
        (0, 2, 3, 1),  # z*z = 1+z = 3, z*(1+z) = z+z^2 = 1
        (0, 3, 1, 2),
    )
    _INV = (None, 1, 3, 2)
    _CONJ = (0, 1, 3, 2)  # a + b z3 -> (a+b) + b z3
    _STR = ("0", "1", "zeta3", "1+zeta3")

    def __init__(self, tag, has_zeta3):
        self.tag = tag
        self.has_zeta3 = has_zeta3

    def from_int(self, n):
        return n & 1

    def zeta3(self):
        return 2 if self.has_zeta3 else super().zeta3()

    def add(self, a, b):
        return a ^ b

    def neg(self, a):
        return a

    def mul(self, a, b):
        return self._MUL[a][b]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError(f"division by zero in {self.tag}")
        return self._INV[a]

    def conj(self, a):
        return self._CONJ[a]

    def to_str(self, a):
        return self._STR[a]


QQ = _RationalField()
F2 = _Char2Field("F2", has_zeta3=False)
QZ3 = _CyclotomicField()
F4 = _Char2Field("F4", has_zeta3=True)

FIELDS = {f.tag: f for f in (QQ, F2, QZ3, F4)}


def field_by_tag(tag: str) -> Field:
    try:
        return FIELDS[tag]
    except KeyError:
        raise FieldError(f"unknown field tag {tag!r}") from None


def embed(value, src: Field, dst: Field):
    """Coerce a payload from src into dst (F2 -> F4, Q -> Qz3, or same field)."""
    if src is dst or (src is F2 and dst is F4):
        return value
    if src is QQ and dst is QZ3:
        return (value, 0)
    raise FieldError(f"no embedding {src.tag} -> {dst.tag}")


def join(a: Field, b: Field) -> Field:
    """Whichever of a and b contains the other: the smallest field that
    holds both.  FieldError when neither does (the characteristics differ,
    as for Q and F2).  Within one characteristic the larger field is the
    one with zeta3."""
    if a.char != b.char:
        raise FieldError(f"incompatible fields {a.tag} and {b.tag}")
    return b if b.has_zeta3 else a


def with_zeta3(field: Field) -> Field:
    """The smallest field containing field and zeta3: Qz3 over Q, F4 over F2."""
    if field.has_zeta3:
        return field
    return F4 if field.char == 2 else QZ3

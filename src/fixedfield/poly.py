"""Sparse multivariate polynomials and unreduced rational functions.

A Poly maps packed monomials to nonzero field payloads.  A packed
monomial is one int laid out by its VarTable as n + 1 fields of
EXPONENT_BITS bits: the total degree in the highest field, then the
exponents of variables 0, 1, ..., n - 1.  Int order is therefore graded
lexicographic order (total degree first, then the exponent tuple), the
order sorted_terms prints, and multiplying two monomials is one int
addition.  The top bit of every field is a guard bit: every exponent
and every total degree stays below the cap EXPONENT_LIMIT = 2^15, so
the sum of two packed monomials never carries from one field into the
next, and a product that reaches the cap sets a guard bit and raises
PolyError instead of wrapping.  The one exception is the power of a
one-term polynomial, which multiplies its packed monomial by the
exponent in one step: that product can carry past a guard bit, so
monomial_power, the one place such a power is taken, checks its total
degree against the cap first (substitute then adds it to a running
monomial and checks the sum like any product).  Exponent vectors are
unpacked only where a monomial is taken apart: substitution, permuting
variables, reading Laurent monomials, and display.

A RatFunc is the fraction num/den as built, never reduced, and no
comparison takes a multivariate gcd: ratio reads the c with a == c * b,
as two payloads it never divides, off the numerators when the
denominators are proportional and off the cross products otherwise.
A sum of fractions with one-term denominators c1 * x^e1 and c2 * x^e2
is built over c1 * c2 * x^l, l the exponent-wise max of e1 and e2: the
lcm of two monomials needs no gcd.

Arithmetic on Polys and RatFuncs requires one table and one field.  The
two functions that meet values from different tables, ratfunc_eq and
substitute, first embed their operands into scalars.join of their
fields, so a Q function meets a Qz3 one in Qz3, and Q meets F2 nowhere.

substitute maps a RatFunc f = num/den at images n_i/d_i in one pass.
The variables whose images share a denominator D form a group, and M is
the largest exponent sum s over a group of a term of num or den.  Each
term c * x^e of either part becomes c * prod n_i^{e_i} times D^{M - s}
for each group: both parts are multiplied by the same prod D^M, which
cancels in the quotient, so no division is needed.  The new denominator
is zero exactly when den vanishes at the images.  Only variables that
occur in f take part, and a D equal to 1 is never multiplied.  A power of
a one-term n_i or D is folded into each term as a packed monomial and a
payload; only powers of many-term ones are multiplied out as Polys.
"""

from __future__ import annotations

import struct
from operator import add, itemgetter, mul

from .scalars import Field, FieldError, embed, join, power

# Bits per field of a packed monomial, guard bit included (VarTable reads
# fields as 16-bit words).  Every exponent and every total degree stays
# below EXPONENT_LIMIT.
EXPONENT_BITS = 16
EXPONENT_LIMIT = 1 << (EXPONENT_BITS - 1)
# A one-term power c^n over Q or Qz3 is refused when n times the bits of c
# beyond the first reaches this cap.  The shipped suites and the benchmark
# workloads stay below 10.
COEFFICIENT_BITS_LIMIT = 1 << 16
# A product of two many-term Polys is refused when its term pairs pass this
# cap.  The shipped suites and the benchmark workloads reach 3,072.
TERM_PAIRS_LIMIT = 1 << 19


class PolyError(ValueError):
    pass


class VarTable:
    """An ordered, immutable list of variable names, and the layout of
    the packed monomials over them (see the module docstring)."""

    __slots__ = ("names", "index", "degree_shift", "guard", "_layout", "_width")

    def __init__(self, names):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise PolyError(f"duplicate variable names in {names}")
        self.names = names
        self.index = {n: i for i, n in enumerate(names)}
        n = len(names)
        self.degree_shift = n * EXPONENT_BITS
        # the top bit of each of the n + 1 fields
        self.guard = sum(EXPONENT_LIMIT << (i * EXPONENT_BITS) for i in range(n + 1))
        # the fields as big-endian 16-bit words: total degree, then the
        # exponents of variables 0, 1, ...
        self._layout = struct.Struct(">" + "H" * (n + 1))
        self._width = self._layout.size

    def __len__(self):
        return len(self.names)

    def __contains__(self, name):
        return name in self.index

    def __repr__(self):
        return f"VarTable({', '.join(self.names)})"

    def pack(self, exponents) -> int:
        """The packed monomial of an exponent vector."""
        exponents = tuple(exponents)
        if len(exponents) != len(self.names):
            raise PolyError(
                f"{len(exponents)} exponents for {len(self.names)} variables"
            )
        if min(exponents, default=0) < 0:
            raise PolyError(f"negative exponent in {exponents}")
        degree = sum(exponents)
        if degree >= EXPONENT_LIMIT:
            raise PolyError(f"total degree {degree} reaches the cap {EXPONENT_LIMIT}")
        return int.from_bytes(self._layout.pack(degree, *exponents), "big")

    def unpack(self, key) -> tuple:
        """The exponent vector of a packed monomial."""
        return self._layout.unpack(key.to_bytes(self._width, "big"))[1:]

    def permutation(self, images):
        """The map on packed monomials induced by x_i -> x_images[i], where
        images is a permutation of 1..n (variable i is x_{i+1}).  It moves
        whole fields, so its image of a valid packed monomial is valid."""
        # word 0 is the total degree; word j holds the exponent of x_j
        order = [0] * (len(images) + 1)
        for i, j in enumerate(images, start=1):
            order[j] = i
        layout, width, fields = self._layout, self._width, itemgetter(*order)

        def permute(key):
            words = layout.unpack(key.to_bytes(width, "big"))
            return int.from_bytes(layout.pack(*fields(words)), "big")

        return permute

    def degree(self, key) -> int:
        return key >> self.degree_shift

    def variable(self, name) -> int:
        """The packed monomial of one variable."""
        shift = (len(self.names) - 1 - self.index[name]) * EXPONENT_BITS
        return 1 << self.degree_shift | 1 << shift

    def check(self, key):
        """Raise PolyError if a field of key, a sum of packed monomials,
        reached EXPONENT_LIMIT."""
        if key & self.guard:
            raise PolyError(
                f"monomial product reaches the exponent cap {EXPONENT_LIMIT}"
            )

    def occurring(self, keys):
        """(index, exponent in each key) for every variable that has a
        nonzero exponent in some of the packed monomials keys."""
        columns = zip(*map(self.unpack, keys))
        return [(i, column) for i, column in enumerate(columns) if any(column)]


def _check_compat(p: "Poly", q: "Poly"):
    if p.vars is not q.vars:
        raise PolyError("polynomials over different variable tables")
    if p.field is not q.field:
        raise FieldError(f"mixed fields: {p.field.tag} vs {q.field.tag}")


def _add_into(out: dict, terms: dict, field: Field):
    """Add terms into the dict out in place, dropping sums that vanish."""
    add, zero = field.add, field.zero()
    for e, c in terms.items():
        if e in out:
            s = add(out[e], c)
            if s == zero:
                del out[e]
            else:
                out[e] = s
        else:
            out[e] = c


def _bit_length(c) -> int:
    """The bit length of the largest int in a Q or Qz3 payload (a
    numerator or a denominator)."""
    if type(c) is tuple:
        return max(map(_bit_length, c))
    return max(c.numerator.bit_length(), c.denominator.bit_length())


def monomial_power(vt: VarTable, f: Field, e: int, c, n: int):
    """(e * n, c^n), the n-th power (n >= 0) of the one-term c * x^e, or
    PolyError when it reaches the exponent cap or, over Q and Qz3, the
    coefficient cap.  It is taken in one step, so it is checked first."""
    # each field of e is at most its total degree, so this bounds every
    # field of e * n, which could otherwise carry past a guard bit
    if vt.degree(e) * n >= EXPONENT_LIMIT:
        raise PolyError(f"power reaches the exponent cap {EXPONENT_LIMIT}")
    # F2 and F4 payloads do not grow, nor does 1
    if f.char == 0 and c != f.one() and n * (_bit_length(c) - 1) >= COEFFICIENT_BITS_LIMIT:
        raise PolyError(
            f"power reaches the coefficient cap of {COEFFICIENT_BITS_LIMIT} bits"
        )
    return e * n, c if c == f.one() else f.pow(c, n)


class Poly:
    """terms: dict mapping packed monomials to nonzero payloads.

    A Poly is never changed after construction, so an operation may
    return one of its operands."""

    __slots__ = ("vars", "field", "terms")

    def __init__(self, vars: VarTable, field: Field, terms: dict):
        self.vars = vars
        self.field = field
        self.terms = terms

    # construction -----------------------------------------------------

    @classmethod
    def zero(cls, vars, field):
        return cls(vars, field, {})

    @classmethod
    def const(cls, vars, field, payload):
        if payload == field.zero():
            return cls.zero(vars, field)
        return cls(vars, field, {0: payload})

    @classmethod
    def one(cls, vars, field):
        return cls.const(vars, field, field.one())

    @classmethod
    def var(cls, vars, field, name):
        if name not in vars:
            raise PolyError(f"unknown variable {name!r}")
        return cls(vars, field, {vars.variable(name): field.one()})

    # predicates -------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_one(self):
        return self.terms == {0: self.field.one()}

    def is_monomial(self):
        return len(self.terms) == 1

    # arithmetic -------------------------------------------------------

    def __add__(self, other):
        _check_compat(self, other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        big, small = (
            (self, other) if len(self.terms) >= len(other.terms) else (other, self)
        )
        out = dict(big.terms)
        _add_into(out, small.terms, self.field)
        return Poly(self.vars, self.field, out)

    def __neg__(self):
        f = self.field
        return Poly(self.vars, f, {e: f.neg(c) for e, c in self.terms.items()})

    def __mul__(self, other):
        _check_compat(self, other)
        p, q = (self, other) if len(self.terms) <= len(other.terms) else (other, self)
        a, b = p.terms, q.terms
        if not a:
            return p
        vt, f = self.vars, self.field
        mul = f.mul
        if len(a) == 1:
            (e, c), = a.items()
            one = f.one()
            if not e and c == one:
                return q
            if len(b) == 1 and b.get(0) == one:
                return p
            # a field has no zero divisors and e + k is injective in k
            vt.check(e + max(b))
            return Poly(vt, f, {e + k: mul(c, d) for k, d in b.items()})
        if len(a) * len(b) > TERM_PAIRS_LIMIT:
            raise PolyError(f"{len(a) * len(b)} term pairs pass the cap {TERM_PAIRS_LIMIT}")
        # every field of a product is at most its total degree, so
        # checking the product of the two leading monomials covers all pairs
        vt.check(max(a) + max(b))
        add, zero = f.add, f.zero()
        out = {}
        cancelled = False
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2
                if e in out:
                    s = out[e] = add(out[e], mul(c1, c2))
                    if s == zero:
                        cancelled = True
                else:
                    out[e] = mul(c1, c2)
        if cancelled:
            out = {e: c for e, c in out.items() if c != zero}
        return Poly(vt, f, out)

    def __pow__(self, n: int):
        if n < 0:
            raise PolyError("negative power of a polynomial; use RatFunc")
        if len(self.terms) == 1:
            (e, c), = self.terms.items()
            e, c = monomial_power(self.vars, self.field, e, c, n)
            return Poly(self.vars, self.field, {e: c})
        return power(self, n, Poly.one(self.vars, self.field), mul)

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.vars is other.vars
            and self.field is other.field
            and self.terms == other.terms
        )

    # ordering / display -----------------------------------------------

    def sorted_terms(self):
        """(exponent tuple, payload) pairs in graded lexicographic order,
        largest first, for stable output."""
        unpack = self.vars.unpack
        return [(unpack(e), c) for e, c in sorted(self.terms.items(), reverse=True)]

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            factors = []
            for name, k in zip(self.vars.names, e):
                if k == 1:
                    factors.append(name)
                elif k:
                    factors.append(f"{name}^{k}")
            cs = self.field.to_str(c)
            needs_paren = ("+" in cs[1:]) or ("-" in cs[1:])
            if factors and cs == "1":
                parts.append("*".join(factors))
            elif factors and cs == "-1" and self.field.char == 0:
                parts.append("-" + "*".join(factors))
            else:
                head = f"({cs})" if needs_paren else cs
                parts.append("*".join([head] + factors) if factors else cs)
        out = parts[0]
        for p in parts[1:]:
            out += ("-" + p[1:]) if p.startswith("-") else ("+" + p)
        return out

    def __repr__(self):
        return f"Poly({self})"

    def conj(self):
        """Apply the coefficient automorphism zeta3 -> zeta3^2 termwise."""
        f = self.field
        return Poly(self.vars, f, {e: f.conj(c) for e, c in self.terms.items()})

    def embed(self, field: Field) -> "Poly":
        if field is self.field:
            return self
        if join(self.field, field) is not field:
            raise FieldError(f"cannot embed {self.field.tag} into {field.tag}")
        return Poly(
            self.vars, field, {e: embed(c, self.field, field) for e, c in self.terms.items()}
        )


class RatFunc:
    """The fraction num/den of two Polys with den != 0, kept as built over
    shared denominators; equality is ratfunc_eq."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        _check_compat(num, den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        self.num = num
        self.den = den

    @classmethod
    def from_poly(cls, p: Poly):
        return cls(p, Poly.one(p.vars, p.field))

    @classmethod
    def var(cls, vars, field, name):
        return cls.from_poly(Poly.var(vars, field, name))

    @property
    def vars(self):
        return self.num.vars

    @property
    def field(self):
        return self.num.field

    def is_zero(self):
        return self.num.is_zero()

    def __add__(self, other):
        a, b = self.den.terms, other.den.terms
        if a == b:
            return RatFunc(self.num + other.num, self.den)
        if len(a) == 1 == len(b):
            # over the lcm c1*c2*x^l of c1*x^e1 and c2*x^e2: l >= e1, e2 in
            # every field, so l - e1 and l - e2 subtract without a borrow
            vt, f = self.vars, self.field
            (e1, c1), (e2, c2) = *a.items(), *b.items()
            l = vt.pack(map(max, vt.unpack(e1), vt.unpack(e2)))
            num = self.num * Poly(vt, f, {l - e1: c2}) + other.num * Poly(vt, f, {l - e2: c1})
            return RatFunc(num, Poly(vt, f, {l: f.mul(c1, c2)}))
        return RatFunc(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return RatFunc(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        if other.num.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __pow__(self, n: int):
        if n < 0:
            return RatFunc(self.den, self.num) ** (-n)
        return RatFunc(self.num**n, self.den**n)

    def conj(self):
        return RatFunc(self.num.conj(), self.den.conj())

    def embed(self, field: Field) -> "RatFunc":
        if field is self.field:
            return self
        return RatFunc(self.num.embed(field), self.den.embed(field))

    def __eq__(self, other):
        if not isinstance(other, RatFunc):
            return NotImplemented
        return ratfunc_eq(self, other)

    def __hash__(self):
        raise TypeError("RatFunc is unhashable (equality is extensional)")

    def __str__(self):
        if self.den.is_one():
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"RatFunc({self})"


def proportional(f: Field, p: dict, q: dict):
    """(lp, lq), the payloads of the term dicts p and q at one monomial, when
    p is not empty and p == (lp / lq) * q: the same monomials, and
    lq * p[e] == lp * q[e] for every e.  Else None.  Nothing is divided."""
    if not p or p.keys() != q.keys():
        return None
    e = next(iter(p))
    lp, lq = p[e], q[e]
    if p == q:
        return lp, lq
    mul = f.mul
    for e, c in p.items():
        if mul(lq, c) != mul(lp, q[e]):
            return None
    return lp, lq


def ratio(a: RatFunc, b: RatFunc):
    """(p, q), payloads with q * a == p * b for nonzero a and b over one
    field, or None: read off the numerators when the denominators are
    proportional, else off the cross products.  Nothing is divided."""
    f = a.field
    dens = proportional(f, a.den.terms, b.den.terms)
    if dens is None:
        # q * a == p * b iff q * a.num * b.den == p * b.num * a.den
        return proportional(f, (a.num * b.den).terms, (b.num * a.den).terms)
    # b.den == (lb / la) * a.den for (la, lb) = dens, so q * a == p * b iff
    # q * lb * a.num == p * la * b.num
    nums = proportional(f, a.num.terms, b.num.terms)
    return None if nums is None else (f.mul(nums[0], dens[1]), f.mul(nums[1], dens[0]))


def ratfunc_eq(a: RatFunc, b: RatFunc) -> bool:
    """a == b as elements of the fraction field over the join of their
    fields: the numerators compared over equal denominators, else
    ratio(a, b) a pair of equal payloads."""
    if a.vars is not b.vars:
        raise PolyError("rational functions over different variable tables")
    if a.field is not b.field:
        field = join(a.field, b.field)
        a, b = a.embed(field), b.embed(field)
    if a.den.terms == b.den.terms:
        return a.num.terms == b.num.terms
    if a.num.is_zero() or b.num.is_zero():
        return a.num.is_zero() and b.num.is_zero()
    r = ratio(a, b)
    return r is not None and r[0] == r[1]


def substitute(f: RatFunc, images) -> RatFunc:
    """f with its i-th variable replaced by images[i], in one pass over a
    shared denominator (see the module docstring).

    The images are RatFuncs over one target table, one for each variable of
    f.  The result lies in the join of the fields of f and every image.
    ZeroDivisionError when the images make the denominator of f vanish.
    """
    if len(images) != len(f.vars):
        raise PolyError("substitution must cover every source variable")
    target, field = images[0].vars, f.field
    for im in images:
        if im.vars is not target:
            raise PolyError("substitution images over different tables")
        if im.field is not field:
            field = join(field, im.field)
    f = f.embed(field)
    terms = [*f.num.terms.items(), *f.den.terms.items()]
    # the t-th term c * x^e becomes coeffs[t] * x^keys[t] times the Polys
    # factors[t], the powers of many-term images
    keys = [0] * len(terms)
    coeffs = [c for _, c in terms]
    factors = [[] for _ in terms]

    def fold(p: Poly, exps):
        # multiply the t-th term by p^exps[t]
        if len(p.terms) == 1:
            (e, c), = p.terms.items()
            for t, k in enumerate(exps):
                if k:
                    e_k, c_k = monomial_power(target, field, e, c, k)
                    keys[t] += e_k
                    target.check(keys[t])
                    coeffs[t] = field.mul(coeffs[t], c_k)
        else:
            pows = _power_cache(p, max(exps))
            for t, k in enumerate(exps):
                if k:
                    factors[t].append(pows[k])

    # [D, s]: an image denominator D != 1 and each term's exponent sum
    # over the variables whose images have denominator D
    shared = []
    for i, exps in f.vars.occurring([e for e, _ in terms]):
        im = images[i].embed(field)
        fold(im.num, exps)
        group = next((g for g in shared if g[0].terms == im.den.terms), None)
        if group:
            group[1] = list(map(add, group[1], exps))
        elif not im.den.is_one():
            shared.append([im.den, exps])
    for den, sums in shared:
        top = max(sums)
        fold(den, [top - s for s in sums])
    parts = ({}, {})  # the terms of the new numerator and denominator
    split = len(f.num.terms)
    for t, (key, c, powers) in enumerate(zip(keys, coeffs, factors)):
        term = Poly(target, field, {key: c})
        for power in powers:
            term = term * power
        _add_into(parts[t >= split], term.terms, field)
    return RatFunc(Poly(target, field, parts[0]), Poly(target, field, parts[1]))


def _power_cache(p: Poly, up_to: int):
    pows = [None, p]  # substitute reads no 0th power
    for _ in range(2, up_to + 1):
        pows.append(pows[-1] * p)
    return pows

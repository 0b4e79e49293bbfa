"""Monomial actions as integer matrices plus coefficient vectors.

A set of Laurent-monomial generators over an ambient table has an
exponent matrix; a group element acting on the ambient induces, when
everything stays monomial, an integer matrix A and a coefficient vector
c with  g(f_j) = c_j * prod_i f_i^{A[i][j]}  (columns are images).  The
extension degree of a monomial generator set is |det| of its exponent
matrix, computed here by fraction-free (Bareiss) elimination.

Each column of A solves  sum_i a_i * row_i == target  over the integers,
and one table's rows are solved against many targets.  So a Lattice
factors the rows once, by one Gauss-Jordan elimination over Q: it keeps
k pivot coordinates on which the k rows are independent, and the inverse
of the rows' pivot submatrix as an integer matrix over a denominator d.
A solve is then integer arithmetic only: a mat-vec on the target's pivot
coordinates, a divisibility test by d, and a residual check of the sum
on every coordinate.  The rows are independent, so at most one rational
a exists; the residual check alone makes an answer exact (an integer a
that reproduces every coordinate is that one), and the divisibility
test only rejects a non-integral a before the residual is summed.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul

MATRIX_GROUP_CAP = 10000


class MonomialError(ValueError):
    pass


# ---------------------------------------------------------------------------
# integer matrices as tuples of row tuples


def mat_identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))

def mat_from_rows(rows):
    rows = tuple(tuple(int(x) for x in r) for r in rows)
    if any(len(r) != len(rows[0]) for r in rows):
        raise MonomialError("ragged matrix")
    return rows


def mat_mul(a, b):
    if len(a[0]) != len(b):
        raise MonomialError("matrix size mismatch")
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def is_square(a):
    return all(len(r) == len(a) for r in a)


def det_fraction_free(m) -> int:
    """Exact determinant by Bareiss' fraction-free elimination."""
    if not is_square(m):
        raise MonomialError("determinant of a non-square matrix")
    n = len(m)
    if n == 0:
        return 1
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def matrix_word(word, alphabet):
    """Left-to-right product of named matrices; [] gives the identity."""
    out = None
    for sym in word:
        if sym not in alphabet:
            raise MonomialError(f"unknown matrix symbol {sym!r}")
        m = alphabet[sym]
        out = m if out is None else mat_mul(out, m)
    if out is None:
        raise MonomialError("empty word needs an explicit size; pass ['I'] instead")
    return out


def matrix_group_elements(gens, cap=MATRIX_GROUP_CAP):
    gens = [mat_from_rows(g) for g in gens]
    if not gens:
        raise MonomialError("no generators")
    n = len(gens[0])
    for g in gens:
        if not is_square(g) or len(g) != n:
            raise MonomialError("generators of mixed size")
        if det_fraction_free(g) not in (1, -1):
            raise MonomialError("generator with |det| != 1")
    ident = mat_identity(n)
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for h in frontier:
            for g in gens:
                p = mat_mul(g, h)
                if p not in seen:
                    seen.add(p)
                    nxt.append(p)
                    if len(seen) > cap:
                        raise MonomialError(f"matrix group exceeded cap {cap}")
        frontier = nxt
    return seen


# ---------------------------------------------------------------------------
# exponent data of monomial generator sets


def monomial_shape(r):
    """(coefficient payload, exponent tuple) of a scaled Laurent monomial,
    or None if the rational function is not one."""
    if not (r.num.is_monomial() and r.den.is_monomial()):
        return None
    (en, cn), = r.num.terms.items()
    (ed, cd), = r.den.terms.items()
    coeff = r.field.div(cn, cd)
    unpack = r.vars.unpack
    return coeff, tuple(a - b for a, b in zip(unpack(en), unpack(ed)))


def _unit_row(i, shape, one):
    if shape is None:
        raise MonomialError(f"definition {i + 1} is not a Laurent monomial")
    coeff, exps = shape
    if coeff != one:
        raise MonomialError(f"definition {i + 1} has coefficient != 1")
    return exps


def exponent_matrix(defs):
    """Rows of exponents, one per definition; every definition must be a
    Laurent monomial with coefficient exactly 1."""
    return mat_from_rows(
        [_unit_row(i, monomial_shape(d), d.field.one()) for i, d in enumerate(defs)]
    )


class Lattice:
    """The monomial shapes of a generator set and, when every definition is
    a scaled Laurent monomial, its exponent lattice factored once.

    shapes[i] is monomial_shape(defs[i]).  For a monomial set, rows are the
    exponent rows (linearly independent over Q, else MonomialError here),
    coeffs their coefficients, columns the rows transposed, pivots k
    coordinates on which the rows are independent, and inverse/den the
    integer matrix with  a = inverse * target[pivots] / den  the unique
    rational a satisfying sum_i a[i]*rows[i] == target on the pivots.
    """

    __slots__ = ("field", "shapes", "coeffs", "rows", "columns", "pivots",
                 "inverse", "den")

    def __init__(self, defs):
        self.field = defs[0].field
        self.shapes = tuple(monomial_shape(d) for d in defs)
        self.rows = None
        if None in self.shapes:
            return
        self.coeffs = tuple(c for c, _ in self.shapes)
        self.rows = mat_from_rows([e for _, e in self.shapes])
        self.columns = tuple(zip(*self.rows))
        self.pivots, self.inverse, self.den = _factor(self.rows)

    @property
    def monomial(self):
        return self.rows is not None

    def unit_rows(self):
        """exponent_matrix of the definitions, read off the shapes."""
        one = self.field.one()
        for i, shape in enumerate(self.shapes):
            _unit_row(i, shape, one)
        return self.rows


def _factor(rows):
    """(pivots, inverse, den) of Lattice for k independent rows.

    Gauss-Jordan on [rows | I_k] reaches [U*rows | U], where U*rows is the
    identity on the pivot columns, so U inverts the pivot submatrix P:
    a*P == target[pivots] gives a == target[pivots] * U, and inverse is
    den * U transposed, with den the least common denominator of U.
    """
    k, n = len(rows), len(rows[0])
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(k)]
         for i, row in enumerate(rows)]
    pivots = []
    for c in range(n):
        r = len(pivots)
        if r == k:
            break
        piv = next((i for i in range(r, k) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        pv = a[r][c]
        a[r] = [x / pv for x in a[r]]
        for i in range(k):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
    if len(pivots) < k:
        raise MonomialError("exponent rows are linearly dependent")
    u = [row[n:] for row in a]
    den = lcm(*(x.denominator for row in u for x in row))
    inverse = tuple(tuple(int(u[p][i] * den) for p in range(k)) for i in range(k))
    return tuple(pivots), inverse, den


def solve_int_combination(lattice, target):
    """Integer coefficients a with sum_i a[i]*lattice.rows[i] == target, or
    None.

    The rows are independent, so exactly one rational a agrees with target
    on the pivot coordinates: the mat-vec gives it, a remainder mod den
    means it is not integral, and the residual over every coordinate
    decides whether it reaches target at all.
    """
    if len(target) != len(lattice.columns):
        raise MonomialError("target length differs from the exponent rows")
    den = lattice.den
    tp = [target[p] for p in lattice.pivots]
    sol = []
    for row in lattice.inverse:
        q, r = divmod(sum(map(mul, row, tp)), den)
        if r:
            return None
        sol.append(q)
    for col, t in zip(lattice.columns, target):
        if sum(map(mul, sol, col)) != t:
            return None
    return tuple(sol)

"""Monomial actions as integer matrices plus coefficient vectors.

A set of Laurent-monomial generators over an ambient table has an
exponent matrix; a group element acting on the ambient induces, when
everything stays monomial, an integer matrix A and a coefficient vector
c with  g(f_j) = c_j * prod_i f_i^{A[i][j]}  (columns are images).  The
extension degree of a monomial generator set is |det| of its exponent
matrix.  Both it and the lattice below come from one fraction-free
(Bareiss) Gauss-Jordan elimination over the integers.

Each column of A solves  sum_i a_i * row_i == target  over the integers,
and one table's rows are solved against many targets.  So a Lattice
factors the rows once: it keeps k pivot coordinates on which the k rows
are independent, and the inverse of the rows' pivot submatrix as an
integer matrix over a denominator d.  A solve is then integer arithmetic
only: a mat-vec on the target's pivot coordinates, a divisibility test
by d, and a residual check of the sum on every coordinate.  The rows are
independent, so at most one rational a exists; the residual check alone
makes an answer exact (an integer a that reproduces every coordinate is
that one), and the divisibility test only rejects a non-integral a
before the residual is summed.

Groups are sets of image bytes: byte i-1 of a permutation of 1..n is the
image of point i, so a permutation moves at most POINT_CAP points.  The
package has one product of them: bytes.translate through product_table(h)
sends x to h*x, for (h*x)(i) = h(x(i)).  Perm multiplies with it, and
close grows its groups with it: the permutation groups of perms, and
matrix groups and the image groups of scaled actions as the permutations
they make of an orbit (orbit_permutations), which POINT_CAP caps.
"""

from __future__ import annotations

from itertools import repeat
from math import gcd
from operator import mul

MATRIX_GROUP_CAP = 10000
# the most points a permutation moves: its images are bytes, 1..255
POINT_CAP = 255
_PAD = bytes(POINT_CAP)


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


def is_square(a):
    return all(len(r) == len(a) for r in a)


def _eliminate(a, width):
    """Fraction-free (Bareiss) Gauss-Jordan on the integer rows a, in place:
    (pivot columns among the first width, the last pivot).  A column's
    pivot is its first nonzero at or below the current row, as over Q; each
    step scales every other row by the new pivot and divides exactly by the
    previous one, so a ends as the last pivot times what the same steps over
    Q reach."""
    pivots, prev = [], 1
    for c in range(width):
        r = len(pivots)
        if r == len(a):
            break
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        top, pv = a[r], a[r][c]
        for i, row in enumerate(a):
            if i != r:
                f = row[c]
                a[i] = [(pv * x - f * y) // prev for x, y in zip(row, top)]
        prev = pv
        pivots.append(c)
    return pivots, prev


def product_table(h):
    """The 256-byte table with x.translate(table) == h*x for image bytes x
    of h's degree: byte j of it is h(j), and byte 0 is never read."""
    return b"\0" + h + _PAD[len(h):]


def close(generators, degree, cap, start=None):
    """The set of elements of the group that image bytes on 1..degree
    generate, by Dimino's coset enumeration: a generator already in the
    group built so far is skipped, and each new one grows the previous
    subgroup H by the left cosets s*r*H that are new, for r among the coset
    representatives found so far and s among the generators taken so far.
    A coset is H translated through one product_table.  MonomialError when
    the group has more than cap elements.

    start = (elements, generators) is a closed subgroup of the group to
    grow from, the trivial group by default; PermGroup passes the base
    perms.GroupIndex chose, a subgroup by its generators.  Its generators
    count as taken, so the coset walk multiplies by them too, or it would
    miss cosets; when every generator already lies in it, its element set
    itself is returned, so the two groups share one set."""
    one = bytes(range(1, degree + 1))
    seen, taken = start or ({one}, ())
    tables = None  # product_table(s) for the generators taken so far
    for g in generators:
        if g in seen:
            continue
        if tables is None:  # the first new generator: grow a copy of the start
            tables, seen = [product_table(s) for s in taken], set(seen)
            elements = list(seen)
        tables.append(product_table(g))
        subgroup = list(elements)
        reps = [one]
        for r in reps:  # reps grows while it is walked
            for table in tables:
                q = r.translate(table)  # s*r
                if q in seen:
                    continue
                if len(elements) + len(subgroup) > cap:
                    raise MonomialError(f"group exceeded cap {cap}")
                coset = list(map(bytes.translate, subgroup, repeat(product_table(q))))
                seen.update(coset)
                elements.extend(coset)
                reps.append(q)
    return seen


def orbit_permutations(actions, n, field, cap):
    """(|Omega|, perms): the scaled actions (B, d) on n variables t, as
    image bytes on Omega, the orbit of the points (1, e_j) under
    the group they generate.  A point (c, v) is the scaled monomial
    c * prod_k t_k^{v_k}, which (B, d) sends to (c * prod_j d_j^{v_j}, B*v).
    It sends (1, e_j) to (d_j, column j of B), so the group acts faithfully
    on Omega, and close on perms lists it.  Omega has at most n points per
    group element: MonomialError when it has more than n * cap, or more
    than POINT_CAP, the most points image bytes can move."""
    one, scale, power = field.one(), field.mul, field.pow
    points = [(one, tuple(int(i == j) for i in range(n))) for j in range(n)]
    index = {p: k for k, p in enumerate(points, 1)}
    perms = [[] for _ in actions]
    for c, v in points:  # points grows while it is walked
        if len(points) > POINT_CAP:
            raise MonomialError(f"orbit exceeded the {POINT_CAP}-point orbit cap")
        for (bmat, dvec), images in zip(actions, perms):
            s = c
            for d, e in zip(dvec, v):
                if e and d != one:
                    s = scale(s, d if e == 1 else power(d, e))
            q = s, tuple([sum(map(mul, row, v)) for row in bmat])
            k = index.get(q)
            if k is None:
                if len(points) >= n * cap:
                    raise MonomialError(f"group exceeded cap {cap}")
                points.append(q)
                k = index[q] = len(points)
            images.append(k)
    return len(points), list(map(bytes, perms))


def matrix_group_elements(left, right, n, field):
    """The element sets of <left>, <right> and <left + right>, for lists of
    n x n integer matrices, as the permutations each group makes of the
    orbit_permutations orbit of all the matrices with unit scalars, one
    orbit that the largest group acts on faithfully.  MonomialError when
    the orbit or a group outgrows MATRIX_GROUP_CAP, as for a matrix of
    infinite order."""
    units = (field.one(),) * n
    size, perms = orbit_permutations(
        [(m, units) for m in left + right], n, field, MATRIX_GROUP_CAP)
    k = len(left)
    return [close(gens, size, MATRIX_GROUP_CAP) for gens in (perms[:k], perms[k:], perms)]


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


class Lattice:
    """The monomial shapes of a generator set and, when every definition is
    a scaled Laurent monomial, its exponent lattice factored once.

    shapes[i] is monomial_shape(defs[i]).  For a monomial set, rows are the
    exponent rows (linearly independent over Q, else MonomialError here),
    coeffs their coefficients, columns the rows transposed, pivots k
    coordinates on which the rows are independent, and inverse/den the
    integer matrix with  a = inverse * target[pivots] / den  the unique
    rational a satisfying sum_i a[i]*rows[i] == target on the pivots, and
    det |det| of the rows' pivot submatrix, which is |det| of the rows when
    they are square.
    """

    __slots__ = ("field", "shapes", "coeffs", "rows", "columns", "pivots",
                 "inverse", "den", "det")

    def __init__(self, defs):
        self.field = defs[0].field
        self.shapes = tuple(monomial_shape(d) for d in defs)
        self.rows = None
        if None in self.shapes:
            return
        self.coeffs = tuple(c for c, _ in self.shapes)
        self.rows = mat_from_rows([e for _, e in self.shapes])
        self.columns = tuple(zip(*self.rows))
        self.pivots, self.inverse, self.den, self.det = _factor(self.rows)

    @property
    def monomial(self):
        return self.rows is not None

    def unit_rows(self):
        """The exponent rows, one per definition; MonomialError unless every
        definition is a Laurent monomial with coefficient exactly 1."""
        one = self.field.one()
        for i, shape in enumerate(self.shapes):
            if shape is None:
                raise MonomialError(f"definition {i + 1} is not a Laurent monomial")
            if shape[0] != one:
                raise MonomialError(f"definition {i + 1} has coefficient != 1")
        return self.rows


def _factor(rows):
    """(pivots, inverse, den, det) of Lattice for k independent rows.

    Gauss-Jordan on [rows | I_k] over Q reaches [U*rows | U], where U*rows
    is the identity on the pivot columns, so U inverts the pivot submatrix
    P: a*P == target[pivots] gives a == target[pivots] * U.  _eliminate
    reaches D*[U*rows | U] instead, D the last pivot.  With g the gcd of D
    and the entries of D*U, den = |D|/g is the least common denominator of
    U, and inverse is den * U transposed.  D is the determinant of P up to
    the sign of the row swaps, so det is |D|.
    """
    k, n = len(rows), len(rows[0])
    a = [list(row) + [int(i == j) for j in range(k)] for i, row in enumerate(rows)]
    pivots, last = _eliminate(a, n)
    if len(pivots) < k:
        raise MonomialError("exponent rows are linearly dependent")
    u = [row[n:] for row in a]
    g = gcd(last, *(x for row in u for x in row)) * (1 if last > 0 else -1)
    inverse = tuple(tuple(u[p][i] // g for p in range(k)) for i in range(k))
    return tuple(pivots), inverse, last // g, abs(last)


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

"""Monomial actions as integer matrices plus coefficient vectors.

A set of Laurent-monomial generators over an ambient table has an
exponent matrix; a group element acting on the ambient induces, when
everything stays monomial, an integer matrix A and a coefficient vector
c with  g(f_j) = c_j * prod_i f_i^{A[i][j]}  (columns are images).  The
extension degree of a monomial generator set is |det| of its exponent
matrix, computed here by fraction-free (Bareiss) elimination.
"""

from __future__ import annotations

from fractions import Fraction

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


def mat_neg(a):
    return tuple(tuple(-x for x in row) for row in a)


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


def matrix_group_order(gens, cap=MATRIX_GROUP_CAP) -> int:
    return len(matrix_group_elements(gens, cap))


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


def exponent_matrix(defs):
    """Rows of exponents, one per definition; every definition must be a
    Laurent monomial with coefficient exactly 1."""
    rows = []
    for i, d in enumerate(defs):
        shape = monomial_shape(d)
        if shape is None:
            raise MonomialError(f"definition {i + 1} is not a Laurent monomial")
        coeff, exps = shape
        if coeff != d.field.one():
            raise MonomialError(f"definition {i + 1} has coefficient != 1")
        rows.append(exps)
    return mat_from_rows(rows)


def verify_degree(defs, expected: int) -> bool:
    m = exponent_matrix(defs)
    if not is_square(m):
        raise MonomialError("exponent matrix is not square")
    return abs(det_fraction_free(m)) == expected


def solve_int_combination(rows, target):
    """Integer coefficients a with sum_i a[i]*rows[i] == target, or None.

    rows must be linearly independent over Q.  Solved by Gaussian
    elimination with exact rationals and an integrality check.
    """
    k = len(rows)
    if k == 0:
        return () if all(t == 0 for t in target) else None
    n = len(rows[0])
    # columns are the rows: solve rows^T * a = target
    aug = [[Fraction(rows[i][j]) for i in range(k)] + [Fraction(target[j])]
           for j in range(n)]
    r = 0
    for c in range(k):
        piv = next((i for i in range(r, n) if aug[i][c] != 0), None)
        if piv is None:
            raise MonomialError("exponent rows are linearly dependent")
        aug[r], aug[piv] = aug[piv], aug[r]
        pv = aug[r][c]
        aug[r] = [x / pv for x in aug[r]]
        for i in range(n):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        r += 1
    sol = [aug[i][k] for i in range(k)]
    for i in range(r, n):
        if aug[i][k] != 0:
            return None  # inconsistent: target outside the lattice span
    if any(x.denominator != 1 for x in sol):
        return None
    return tuple(int(x) for x in sol)


class MonomialAction:
    """Matrices and coefficient vectors for each generator of a group."""

    def __init__(self, gens):
        self.gens = list(gens)  # list of (perm, matrix, coeff tuple, field)

    def is_purely_monomial(self):
        for _, _, coeffs, field in self.gens:
            if any(c != field.one() for c in coeffs):
                return False
        return True

    def matrices(self):
        return [m for _, m, _, _ in self.gens]


def is_purely_monomial(action: MonomialAction) -> bool:
    return action.is_purely_monomial()

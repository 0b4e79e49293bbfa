"""Permutation actions on rational functions: scaled permutations of
generator sets, monomial-action extraction, and the product of scaled
actions.

All comparisons are between exact rational functions; nothing is ever
solved for.
A permutation g acts on a rational function over an n-variable table by
sending variable i to variable g(i); this is a left action:
perm_act(g*h, f) == perm_act(g, perm_act(h, f)).  So when the scaled
action (B, d) of each g on a generator set is unique, g -> (B, d) is a
homomorphism for the product scaled_times, and kernels and faithfulness
are read off the group its generators' images generate (monomial.close).
"""

from __future__ import annotations

from .monomial import (
    MonomialError,
    mat_from_rows,
    mat_mul,
    solve_int_combination,
)
from .perms import Perm
from .poly import Poly, RatFunc


class ActionError(ValueError):
    pass


def perm_act(g: Perm, f: RatFunc) -> RatFunc:
    """Apply x_i -> x_{g(i)} to a RatFunc over an n-variable table."""
    if g.degree != len(f.vars):
        raise ActionError(
            f"permutation degree {g.degree} != variable count {len(f.vars)}"
        )
    move = f.vars.permutation(g.images)
    # a constant has the empty monomial 0 only, which every permutation fixes
    den = f.den if f.den.terms.keys() == {0} else _moved(f.den, move)
    return RatFunc(_moved(f.num, move), den, simplify=False)


def _moved(p: Poly, move) -> Poly:
    return Poly(p.vars, p.field, {move(e): c for e, c in p.terms.items()})


def scaled_match(img: RatFunc, target: RatFunc):
    """The scalar c with img == c * target, or None."""
    a = img.num * target.den
    b = target.num * img.den
    if a.is_zero() or b.is_zero():
        return None
    if set(a.terms) != set(b.terms):
        return None
    lead = max(a.terms)
    c = a.field.div(a.terms[lead], b.terms[lead])
    f = a.field
    if all(f.mul(c, cb) == a.terms[e] for e, cb in b.terms.items()):
        return c
    return None


def induced_scaled_permutation(definitions, g: Perm):
    """(p, scalars) with perm_act(g, def_i) == scalars[i] * def_{p(i)},
    or None when no such signed/scaled permutation exists."""
    n = len(definitions)
    images = [0] * n
    scalars = [None] * n
    used = set()
    for i, d in enumerate(definitions):
        moved = perm_act(g, d)
        for j, t in enumerate(definitions):
            if j + 1 in used:
                continue
            c = scaled_match(moved, t)
            if c is not None:
                images[i] = j + 1
                scalars[i] = c
                used.add(j + 1)
                break
        else:
            return None
    return Perm(images), scalars


def require_unproportional(definitions):
    """ActionError when two definitions are proportional, so that a scaled
    permutation of them is not unique."""
    for i, d in enumerate(definitions):
        for j in range(i + 1, len(definitions)):
            if scaled_match(d, definitions[j]) is not None:
                raise ActionError(f"definitions {i + 1} and {j + 1} are proportional")


def scaled_times(field):
    """times of monomial.close for scaled actions (B, d) with
    g(t_j) = d_j * prod_k t_k^{B[k][j]}: times(h) is x -> x*h.  As
    perm_act is a left action, x(h(t_j)) = d_h[j] * prod_k x(t_k)^{B_h[k][j]},
    so x*h is (B_x B_h, d') with d'_j = d_h[j] * prod_k d_x[k]^{B_h[k][j]}."""
    mul, power = field.mul, field.pow

    def times(h):
        bh, dh = h
        cols = [[(k, e) for k, e in enumerate(col) if e] for col in zip(*bh)]

        def right(x):
            bx, dx = x
            d = []
            for c, col in zip(dh, cols):
                for k, e in col:
                    c = mul(c, dx[k] if e == 1 else power(dx[k], e))
                d.append(c)
            return mat_mul(bx, bh), tuple(d)

        return right

    return times


def permutation_matrix(g: Perm):
    """Columns are images: column j is e_{g(j)}."""
    n = g.degree
    return mat_from_rows(
        [[1 if g.images[j] == i + 1 else 0 for j in range(n)] for i in range(n)]
    )


def extract_monomial_action(lattice, ambient_action, field):
    """(A, c) with  g(def_j) == c_j * prod_i def_i^{A[i][j]}, payloads in field.

    lattice is the monomial.Lattice of the definitions; every definition
    must be a scaled Laurent monomial over the ambient.  ambient_action is
    the pair (B, d), payloads in field, by which g transforms the ambient
    variables, in the same column convention.
    """
    if not lattice.monomial:
        i = lattice.shapes.index(None)
        raise MonomialError(f"definition {i + 1} is not a Laurent monomial")
    m = len(lattice.columns)
    bmat, dvec = ambient_action
    coeffs = lattice.coeffs
    acols = []
    cvec = []
    for j, (a_j, m_j) in enumerate(lattice.shapes):
        target = [sum(bmat[k][i] * m_j[i] for i in range(m)) for k in range(m)]
        col = solve_int_combination(lattice, target)
        if col is None:
            raise MonomialError(
                f"image of definition {j + 1} is not an integer monomial "
                "combination of the generator set"
            )
        coeff = a_j
        for i in range(m):
            if m_j[i]:
                coeff = field.mul(coeff, field.pow(dvec[i], m_j[i]))
        for i, e in enumerate(col):
            if e:
                coeff = field.div(coeff, field.pow(coeffs[i], e))
        acols.append(col)
        cvec.append(coeff)
    n = len(coeffs)
    amat = mat_from_rows([[acols[j][i] for j in range(n)] for i in range(n)])
    return amat, tuple(cvec)

"""Permutation actions on rational functions: scaled permutations of
generator sets, monomial-action extraction, and scaled actions as
permutations of a finite orbit.

All comparisons are between exact rational functions; nothing is ever
solved for.
A permutation g acts on a rational function over an n-variable table by
sending variable i to variable g(i); this is a left action:
perm_act(g*h, f) == perm_act(g, perm_act(h, f)).  So when the scaled
action (B, d) of each g on a generator set is unique, g -> (B, d) is a
homomorphism, and kernels and faithfulness are read off the group its
generators' images generate, closed (monomial.close) as the permutations
they make of one orbit of scaled monomials (orbit_permutations).
"""

from __future__ import annotations

from operator import mul

from .monomial import MonomialError, mat_from_rows, solve_int_combination
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
    return RatFunc(_moved(f.num, move), den)


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


def orbit_permutations(actions, n, field, cap):
    """[identity, *perms]: the scaled actions (B, d) on n variables t, as
    1-based image tuples on Omega, the orbit of the points (1, e_j) under
    the group they generate.  A point (c, v) is the scaled monomial
    c * prod_k t_k^{v_k}, which (B, d) sends to (c * prod_j d_j^{v_j}, B*v).
    It sends (1, e_j) to (d_j, column j of B), so the group acts faithfully
    on Omega, and close on perms lists it.  Omega has at most n points per
    group element: MonomialError when it has more than n * cap."""
    one, scale, power = field.one(), field.mul, field.pow
    points = [(one, tuple(int(i == j) for i in range(n))) for j in range(n)]
    index = {p: k for k, p in enumerate(points, 1)}
    perms = [[] for _ in actions]
    for c, v in points:  # points grows while it is walked
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
    return [tuple(range(1, len(points) + 1))] + [tuple(p) for p in perms]


def permutation_matrix(g: Perm):
    """Columns are images: column j is e_{g(j)}."""
    n = g.degree
    return mat_from_rows(
        [[1 if g.images[j] == i + 1 else 0 for j in range(n)] for i in range(n)]
    )


def matrix_permutation(bmat):
    """The permutation p with bmat == permutation_matrix(p), or None when
    bmat is not a permutation matrix."""
    cols = list(zip(*bmat))
    unit = [0] * (len(cols) - 1) + [1]
    if any(sorted(col) != unit for col in cols):
        return None
    return Perm([col.index(1) + 1 for col in cols])


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
    bmat, dvec = ambient_action
    coeffs = lattice.coeffs
    acols = []
    cvec = []
    for j, (a_j, m_j) in enumerate(lattice.shapes):
        target = [sum(map(mul, row, m_j)) for row in bmat]
        col = solve_int_combination(lattice, target)
        if col is None:
            raise MonomialError(
                f"image of definition {j + 1} is not an integer monomial "
                "combination of the generator set"
            )
        coeff = a_j
        for d, e in zip(dvec, m_j):
            if e:
                coeff = field.mul(coeff, field.pow(d, e))
        for i, e in enumerate(col):
            if e:
                coeff = field.div(coeff, field.pow(coeffs[i], e))
        acols.append(col)
        cvec.append(coeff)
    n = len(coeffs)
    amat = mat_from_rows([[acols[j][i] for j in range(n)] for i in range(n)])
    return amat, tuple(cvec)

"""Permutation actions on rational functions: scaled permutations of
generator sets and monomial-action extraction.

All comparisons are between exact rational functions; nothing is ever
solved for.
A permutation g acts on a rational function over an n-variable table by
sending variable i to variable g(i); this is a left action:
perm_act(g*h, f) == perm_act(g, perm_act(h, f)).  So when the scaled
action (B, d) of each g on a generator set is unique, g -> (B, d) is a
homomorphism, and kernels and faithfulness are read off the group its
generators' images generate, closed by monomial.close on the image tuples
they make of one orbit of scaled monomials (monomial.orbit_permutations).
"""

from __future__ import annotations

from operator import mul

from .monomial import MonomialError, mat_from_rows, solve_int_combination
from .perms import Perm
from .poly import Poly, RatFunc, proportional


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
    """The scalar c with img == c * target, or None.  When the denominators
    are proportional, c is read off the numerators and nothing is
    multiplied; otherwise off the cross products."""
    f = img.field
    dens = proportional(f, img.den.terms, target.den.terms)
    if dens is None:
        # img == c * target iff img.num * target.den == c * target.num * img.den
        nums = proportional(f, (img.num * target.den).terms, (target.num * img.den).terms)
        return None if nums is None else f.div(*nums)
    # target.den == (lt / li) * img.den for (li, lt) = dens, so img == c * target
    # iff img.num == c * (li / lt) * target.num
    nums = proportional(f, img.num.terms, target.num.terms)
    return None if nums is None else f.div(f.mul(nums[0], dens[1]), f.mul(nums[1], dens[0]))


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

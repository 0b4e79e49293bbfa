"""Permutation actions on rational functions: induced (scaled)
permutations of generator sets, action kernels, faithfulness, and
monomial-action extraction.

All comparisons are between exact rational functions; nothing is ever
solved for.
A permutation g acts on a rational function over an n-variable table by
sending variable i to variable g(i); this is a left action:
perm_act(g*h, f) == perm_act(g, perm_act(h, f)).
"""

from __future__ import annotations

from .monomial import (
    MonomialError,
    mat_from_rows,
    solve_int_combination,
)
from .perms import Perm, PermGroup
from .poly import Poly, RatFunc, ratfunc_eq


class ActionError(ValueError):
    pass


def perm_act(g: Perm, f):
    """Apply x_i -> x_{g(i)} to a Poly or RatFunc over an n-variable table."""
    if g.degree != len(f.vars):
        raise ActionError(
            f"permutation degree {g.degree} != variable count {len(f.vars)}"
        )
    move = f.vars.permutation(g.images)
    if not isinstance(f, RatFunc):
        return _moved(f, move)
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


def induced_permutation(definitions, g: Perm) -> Perm:
    """The permutation p with perm_act(g, def_i) == def_{p(i)} for all i."""
    n = len(definitions)
    images = [0] * n
    used = set()
    for i, d in enumerate(definitions):
        moved = perm_act(g, d)
        for j, t in enumerate(definitions):
            if j + 1 not in used and ratfunc_eq(moved, t):
                images[i] = j + 1
                used.add(j + 1)
                break
        else:
            raise ActionError(
                f"image of definition {i + 1} under {g} is not a plain "
                "member of the generator set"
            )
    return Perm(images)


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


def scaled_permutation_images(definitions, group: PermGroup):
    """{g: (p, scalars)} with perm_act(g, def_i) == scalars[i] * def_{p[i]}
    (0-based indices) for every element g, carried from the generators'
    images along the group (PermGroup.images_under); None when two
    definitions are proportional, so that the action does not determine
    (p, scalars), or when some generator does not act by a scaled
    permutation."""
    n = len(definitions)
    for i in range(n):
        for j in range(i + 1, n):
            if scaled_match(definitions[i], definitions[j]) is not None:
                return None
    gen_images = []
    for g in group.generators:
        res = induced_scaled_permutation(definitions, g)
        if res is None:
            return None
        perm, scalars = res
        gen_images.append((tuple(j - 1 for j in perm.images), tuple(scalars)))
    muls = [d.field.mul for d in definitions]

    def mul(a, b):
        # (gh)(def_i) = s_h[i] * g(def_{p_h[i]})
        #             = s_h[i] * s_g[p_h[i]] * def_{p_g[p_h[i]]}
        pa, sa = a
        pb, sb = b
        return (
            tuple([pa[k] for k in pb]),
            tuple([m(s, sa[k]) for m, s, k in zip(muls, sb, pb)]),
        )

    one = (tuple(range(n)), tuple(d.field.one() for d in definitions))
    return group.images_under(gen_images, one, mul)


def action_kernel(definitions, group: PermGroup) -> frozenset:
    """All group elements fixing every definition: read off the carried
    scaled permutations when scaled_permutation_images applies, else
    compared element by element."""
    images = scaled_permutation_images(definitions, group)
    if images is not None:
        one = images[Perm.identity(group.degree)]
        return frozenset(g for g, image in images.items() if image == one)
    return frozenset(
        g for g in group.elements
        if all(ratfunc_eq(perm_act(g, d), d) for d in definitions)
    )


def verify_faithful(definitions, group: PermGroup) -> bool:
    """True iff no non-identity element of the group fixes every definition."""
    return len(action_kernel(definitions, group)) == 1


def permutation_matrix(g: Perm):
    """Columns are images: column j is e_{g(j)}."""
    n = g.degree
    return mat_from_rows(
        [[1 if g.images[j] == i + 1 else 0 for j in range(n)] for i in range(n)]
    )


def extract_monomial_action(lattice, g: Perm, ambient_action=None, field=None):
    """(A, c) with  action(g)(def_j) == c_j * prod_i def_i^{A[i][j]}.

    lattice is the monomial.Lattice of the definitions; every definition
    must be a scaled Laurent monomial over the ambient.  ambient_action
    describes how g transforms the ambient variables, as a pair (B, d) in
    the same column convention; it defaults to the plain permutation of
    ambient variables.
    """
    if field is None:
        field = lattice.field
    if not lattice.monomial:
        i = lattice.shapes.index(None)
        raise MonomialError(f"definition {i + 1} is not a Laurent monomial")
    m = len(lattice.columns)
    if ambient_action is None:
        if g.degree != m:
            raise ActionError("permutation degree does not match the ambient table")
        bmat = permutation_matrix(g)
        dvec = [field.one()] * m
    else:
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

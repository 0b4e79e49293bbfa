"""Permutations on {1..n} and finitely generated permutation groups.

Composition convention: (g*h)(i) = g(h(i)), i.e. h acts first.  Cycle
words written side by side multiply left to right in that convention,
so the leftmost cycle is applied last.  parse_cycles composes them in
place on one image list, building one Perm at the end; Perm validates
only images it is handed from outside, not products, inverses, powers or
parsed cycles.

Group closure is Dimino's coset enumeration (Butler, Fundamental
Algorithms for Permutation Groups, 1991), which monomial.close runs on
image tuples for every group here, at about one product per element; a
PermGroup keeps those tuples as its elements.  The orders involved never
exceed a few thousand, so no stabilizer chains are needed.

Dimino's enumeration grows a known subgroup, so a PermGroup may start
from a closed subgroup, its base.  Suites declare groups along chains of
growing generating sets, so GroupIndex.declare takes as base the largest
earlier group (the first declared among equals) whose distinct
generators all lie among the new ones, which makes it a subgroup; a
group that merely contains them is never a base.  A group that adds no
generator to its base, such as a redundant generating set, shares the
base's element set and makes no product.

Normality is decided on generators alone: H is normal in G = <S> iff
s*t*s^-1 lies in H for every s in S and every generator t of H.
"""

from __future__ import annotations

import re
from operator import mul

from .monomial import MonomialError, close
from .scalars import power

CLOSURE_CAP = 50000
# the largest degree a suite may declare with 'points'
POINTS_CAP = 64


class PermError(ValueError):
    pass


class Perm:
    """images[i] is the image of point i+1 (all points 1-based)."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise PermError(f"not a bijection of 1..{len(images)}: {images}")
        self.images = images

    @classmethod
    def _trusted(cls, images):
        """A Perm from a tuple already known to be a bijection of 1..n."""
        p = object.__new__(cls)
        p.images = images
        return p

    @classmethod
    def identity(cls, n):
        return cls._trusted(tuple(range(1, n + 1)))

    @property
    def degree(self):
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __mul__(self, other: "Perm") -> "Perm":
        a, b = self.images, other.images
        if len(a) != len(b):
            raise PermError("degree mismatch")
        return Perm._trusted(tuple([a[j - 1] for j in b]))

    def inverse(self) -> "Perm":
        inv = [0] * self.degree
        for i, j in enumerate(self.images, start=1):
            inv[j - 1] = i
        return Perm._trusted(tuple(inv))

    def __pow__(self, n: int) -> "Perm":
        base = self.inverse() if n < 0 else self
        return power(base, abs(n), Perm.identity(self.degree), mul)

    def __eq__(self, other):
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def cycles(self):
        seen = set()
        out = []
        for start in range(1, self.degree + 1):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            j = self(start)
            while j != start:
                cyc.append(j)
                seen.add(j)
                j = self(j)
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def __str__(self):
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + ",".join(map(str, c)) + ")" for c in cycs)

    def __repr__(self):
        return f"Perm[{self}]"


_CYCLE = re.compile(r"\(\s*([0-9]+(?:\s*,\s*[0-9]+)*)\s*\)")


def parse_cycles(text: str, n: int) -> Perm:
    """Parse cycle notation like "(1,2,3)(4,5)" into a Perm on n points.

    Adjacent cycles need not be disjoint; they compose left to right,
    leftmost applied last, matching the (g*h)(i) = g(h(i)) convention.
    The cycles compose in place on one image list: out*c differs from out
    only on the points a of c, where it is out(c(a)).
    """
    text = text.strip()
    if text in ("()", "e", "id", ""):
        return Perm.identity(n)
    pos = 0
    images = list(range(1, n + 1))
    while pos < len(text):
        m = _CYCLE.match(text, pos)
        if not m:
            if text[pos].isspace():
                pos += 1
                continue
            raise PermError(f"bad cycle notation at {text[pos:]!r}")
        points = [int(p) for p in m.group(1).split(",")]
        if len(set(points)) != len(points):
            raise PermError(f"repeated point in cycle {m.group(0)}")
        for p in points:
            if not 1 <= p <= n:
                raise PermError(f"point {p} out of range 1..{n}")
        moved = [images[b - 1] for b in points[1:] + points[:1]]
        for a, image in zip(points, moved):
            images[a - 1] = image
        pos = m.end()
    return Perm._trusted(tuple(images))


class PermGroup:
    """A finitely generated subgroup of S_n; elements is its full element
    set as image tuples.  A base, a PermGroup whose generators all lie
    among generators, is a subgroup to close from."""

    def __init__(self, generators, degree=None, base=None):
        generators = list(generators)
        if degree is None:
            if not generators:
                raise PermError("degree required for an empty generating set")
            degree = generators[0].degree
        for g in generators:
            if g.degree != degree:
                raise PermError("generators of mixed degree")
        self.degree = degree
        self.generators = generators
        start = base and (base.elements, [g.images for g in base.generators])
        try:
            # frozenset of a frozenset is that frozenset: a group that adds
            # nothing to its base shares the base's element set
            self.elements = frozenset(close([g.images for g in generators], degree,
                                            CLOSURE_CAP, start))
        except MonomialError:
            raise PermError(f"closure exceeded cap {CLOSURE_CAP}") from None
        self.order = len(self.elements)

    def __contains__(self, p: Perm):
        return p.images in self.elements

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.generators)
        return f"PermGroup(order={self.order}, gens=[{gens}])"


class GroupIndex:
    """A suite's declared groups, kept as bases for the groups declared
    after them (see the module docstring)."""

    def __init__(self):
        # first generator's image tuple -> [(-order, number, generator images,
        # group)], so the least entry found is the base
        self.by_first = {}
        self.added = 0

    def declare(self, generators, degree):
        """PermGroup(generators, degree), closed from its base.  A candidate
        base is filed under its first generator, so it is met once.  The new
        group is filed unless it closed to its base's element set: that base
        qualifies wherever it would, and was declared first."""
        images = {g.images for g in generators}
        found = [e for s in images for e in self.by_first.get(s, ()) if e[2] <= images]
        base = min(found)[3] if found else None
        group = PermGroup(generators, degree, base)
        if generators and (base is None or group.elements is not base.elements):
            entry = (-group.order, self.added, images, group)
            self.by_first.setdefault(generators[0].images, []).append(entry)
            self.added += 1
        return group


def is_normal(h: PermGroup, g: PermGroup) -> bool:
    """True iff h is a normal subgroup of g."""
    return h.elements <= g.elements and all(
        s * t * s.inverse() in h for s in g.generators for t in h.generators
    )


def is_transitive(g: PermGroup) -> bool:
    orbit = {1}
    frontier = [1]
    while frontier:
        nxt = []
        for p in frontier:
            for gen in g.generators:
                q = gen(p)
                if q not in orbit:
                    orbit.add(q)
                    nxt.append(q)
        frontier = nxt
    return len(orbit) == g.degree


def wreath_product(inner: PermGroup, outer: PermGroup, blocks) -> PermGroup:
    """The wreath product of inner (on n points) by outer (on m points),
    as a permutation group on the given m blocks of n points each.

    blocks[j][k] is the point playing role k+1 inside block j+1.  The
    group is generated by inner acting in each block plus outer
    permuting the blocks position-wise.
    """
    n, m = inner.degree, outer.degree
    blocks = [list(b) for b in blocks]
    if len(blocks) != m or any(len(b) != n for b in blocks):
        raise PermError(f"blocks must be {m} lists of {n} points")
    pts = sorted(p for b in blocks for p in b)
    nm = n * m
    if pts != list(range(1, nm + 1)):
        raise PermError(f"blocks must partition 1..{nm}")
    gens = []
    for j in range(m):
        for h in inner.generators:
            images = list(range(1, nm + 1))
            for k in range(n):
                images[blocks[j][k] - 1] = blocks[j][h(k + 1) - 1]
            gens.append(Perm(images))
    for t in outer.generators:
        images = list(range(1, nm + 1))
        for j in range(m):
            for k in range(n):
                images[blocks[j][k] - 1] = blocks[t(j + 1) - 1][k]
        gens.append(Perm(images))
    return PermGroup(gens, degree=nm)


NAMED_GROUPS = {  # name -> (degree, the cycle words of its generators)
    "C2": (2, ["(1,2)"]),
    "C4": (4, ["(1,2,3,4)"]),
    "V4": (4, ["(1,2)(3,4)", "(1,3)(2,4)"]),
    "D4": (4, ["(1,2,3,4)", "(2,4)"]),
    "A4": (4, ["(1,2,3)", "(1,2)(3,4)"]),
    "S4": (4, ["(1,2)", "(1,2,3,4)"]),
}


def named_group(name: str) -> PermGroup:
    """Small standard groups on their natural points, used as wreath factors."""
    if name not in NAMED_GROUPS:
        raise PermError(f"unknown named group {name!r}")
    n, words = NAMED_GROUPS[name]
    return PermGroup([parse_cycles(w, n) for w in words], n)

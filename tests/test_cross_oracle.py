"""Cross-checks against an independent permutation-group implementation.

These duplicate facts the engine already asserts, computed by a library
with a completely different algorithm (Schreier-Sims instead of BFS
closure), so a systematic error in our closure code cannot hide.  The
expression parser is checked the same way against sympy's rational
function fields.
"""

import random
import re
from collections import Counter
from itertools import combinations

import pytest

sympy_comb = pytest.importorskip("sympy.combinatorics")

from sympy.combinatorics import Permutation, PermutationGroup
from sympy.combinatorics.named_groups import (
    AlternatingGroup, CyclicGroup, DihedralGroup, SymmetricGroup,
)

from fixedfield.cli import main
from fixedfield.perms import is_transitive
from fixedfield.suite import SuiteError, load_suite, parse_suite_text


def to_sympy(perm):
    return Permutation([i - 1 for i in perm.images])


@pytest.mark.parametrize("index", range(1, 49))
def test_catalog_orders_against_schreier_sims(index, capsys):
    name = f"G{index}"
    group = load_suite("catalog").groups[name]
    ref = PermutationGroup([to_sympy(g) for g in group.generators])
    assert main(["groups", "order", name]) == 0
    assert ref.order() == int(capsys.readouterr().out) == group.order
    assert ref.is_transitive() == is_transitive(group) == True


def _cycle_type(af):
    """The sorted cycle lengths, fixed points included, of an array form."""
    seen, lengths = set(), []
    for start in range(len(af)):
        length = 0
        while start not in seen:
            seen.add(start)
            start, length = af[start], length + 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths))


def _conjugacy_invariant(gens):
    """(order, cycle-type counts, orbit lengths on 2-subsets) of the group
    sympy generates from gens.  Conjugation in S_n keeps each of them, so
    two groups whose values differ are not conjugate.  The elements come
    from sympy; the orbits on 2-subsets are closed on the generators."""
    group = PermutationGroup(gens)
    types = Counter(map(_cycle_type, group.generate(af=True)))
    afs = [g.array_form for g in gens]
    seen, orbits = set(), []
    for pair in combinations(range(group.degree), 2):
        if pair in seen:
            continue
        seen.add(pair)
        orbit = [pair]
        for a, b in orbit:  # orbit grows while it is walked
            for af in afs:
                image = tuple(sorted((af[a], af[b])))
                if image not in seen:
                    seen.add(image)
                    orbit.append(image)
        orbits.append(len(orbit))
    return group.order(), tuple(sorted(types.items())), tuple(sorted(orbits))


def test_catalog_names_48_distinct_classes():
    # the transitive subgroups of S8 fall into 50 conjugacy classes (Butler
    # and McKay 1983); the catalog holds 48 of them, and A8 and S8, of
    # orders 20160 and 40320, are the other two
    catalog = load_suite("catalog")
    gens = {name: [to_sympy(g) for g in group.generators]
            for name, group in catalog.groups.items()}
    invariants = {name: _conjugacy_invariant(g) for name, g in gens.items()}
    assert len(invariants) == len(set(invariants.values())) == 48
    assert not {order for order, _, _ in invariants.values()} & {20160, 40320}
    # a G11 given a conjugate of G10's generators would be caught
    conjugator = Permutation([[0, 3, 6], [1, 7]], size=8)
    assert _conjugacy_invariant([g ^ conjugator for g in gens["G10"]]) == invariants["G10"]


def test_quotient_orders_against_schreier_sims():
    suite = load_suite("sec7_char0")
    for gname, want in (("Gam0", 7), ("Gam1", 21), ("Gam2", 168)):
        group = suite.groups[gname]
        ref = PermutationGroup([to_sympy(g) for g in group.generators])
        assert ref.order() == want == group.order


def test_normality_against_sympy():
    from fixedfield.perms import is_normal

    suite = load_suite("sec5_char0")
    for hname, gname in (("Lam1", "G26"), ("Lam2", "G39"), ("Lam3", "G29"),
                         ("Lam4", "G22"), ("Lam6", "G19")):
        h, g = suite.groups[hname], suite.groups[gname]
        ref_h = PermutationGroup([to_sympy(p) for p in h.generators])
        ref_g = PermutationGroup([to_sympy(p) for p in g.generators])
        assert ref_h.is_normal(ref_g, strict=False)
        assert is_normal(h, g)


def _sympy_verdict(suite, check):
    """The verdict of a group check, recomputed by sympy from the words of
    the groups it names.  Names and words are read off the check's payload
    text, not off the engine's parsed fields."""
    def ref(name):
        return PermutationGroup([_sympy_word(suite, w) for w in suite.group_words[name]])

    kind, payload = check.kind, check.payload
    if kind == "order":
        name, want = re.fullmatch(r"(\S+)\s*=\s*(\d+)", payload).groups()
        return ref(name).order() == int(want)
    if kind == "transitive":
        return ref(payload.strip()).is_transitive()
    if kind == "wreath":
        gname, inner, outer, blocks = re.fullmatch(
            r"(\S+)\s*=\s*(\S+)\s+wr\s+(\S+)\s+blocks\s*=\s*(.+)", payload).groups()
        blocks = [[int(x) for x in b.split(",")] for b in blocks.split("|")]
        w = _sympy_wreath(_SMALL_GROUPS[inner], _SMALL_GROUPS[outer], blocks)
        return w.order() == ref(gname).order() and w.is_subgroup(ref(gname))
    left, right = (s.strip() for s in re.split(r"==|!=| in ", payload))
    if kind == "normal":
        h, g = ref(left), ref(right)
        return h.is_subgroup(g) and h.is_normal(g)
    if kind == "groupeq":
        a, b = ref(left), ref(right)
        return a.is_subgroup(b) and b.is_subgroup(a)
    if kind in ("permeq", "permneq"):
        same = _sympy_word(suite, left) == _sympy_word(suite, right)
        return same == (kind == "permeq")
    inside = ref(right).contains(_sympy_word(suite, left))
    return inside == (kind == "member")


def _sympy_word(suite, text):
    """A permutation word of a suite (named perms, cycle literals, (ID),
    each to an optional integer power, '*'-joined) evaluated in sympy.  The
    suite format composes as (g*h)(i) = g(h(i)), and a sympy product p*q
    applies p first, so each factor multiplies from the left."""
    n = suite.points
    out = Permutation(n - 1)
    for atom in text.split("*"):
        m = re.fullmatch(r"\s*(\(ID\)|\w+|(?:\([\d,\s]*\))+)(?:\^(-?\d+))?\s*", atom)
        base, k = m.group(1), int(m.group(2) or 1)
        if base == "(ID)":
            p = Permutation(n - 1)
        elif base.startswith("("):
            p = Permutation(n - 1)
            for cycle in re.findall(r"\(([^)]*)\)", base):
                points = [int(x) - 1 for x in cycle.split(",")]
                p = Permutation([points], size=n) * p
        else:
            p = _sympy_word(suite, suite.perm_words[base])
        out = p**k * out
    return out


# the wreath factors, from sympy's own constructors (DihedralGroup(2) is the
# Klein four-group <(1,2)(3,4), (1,3)(2,4)>)
_SMALL_GROUPS = {
    "C2": CyclicGroup(2), "C4": CyclicGroup(4), "V4": DihedralGroup(2),
    "D4": DihedralGroup(4), "A4": AlternatingGroup(4), "S4": SymmetricGroup(4),
}


def _sympy_wreath(inner, outer, blocks):
    """inner wr outer on the given blocks, built by hand: inner acts inside
    each block, blocks[j][k] playing point k+1, and outer permutes the
    blocks, keeping each point's role."""
    size = inner.degree * outer.degree
    gens = []
    for block in blocks:
        for h in inner.generators:
            images = list(range(size))
            for k, point in enumerate(block):
                images[point - 1] = block[h(k)] - 1
            gens.append(Permutation(images))
    for t in outer.generators:
        images = list(range(size))
        for j, block in enumerate(blocks):
            for k, point in enumerate(block):
                images[point - 1] = blocks[t(j)][k] - 1
        gens.append(Permutation(images))
    return PermutationGroup(gens)


def test_shipped_group_verdicts_against_sympy():
    from collections import Counter

    from fixedfield.suite import KINDS, list_suites

    counts = Counter()
    for name in list_suites():
        suite = load_suite(name)
        for check in suite.checks:
            if check.kind not in ("order", "transitive", "normal", "groupeq",
                                  "member", "notmember", "permeq", "permneq",
                                  "wreath"):
                continue
            verdict = KINDS[check.kind].run(suite, check)[0]
            assert verdict == _sympy_verdict(suite, check), (name, check.id)
            counts[check.kind] += 1
    assert counts == {"order": 52, "transitive": 48, "normal": 27, "groupeq": 6,
                      "member": 3, "notmember": 2, "permeq": 7, "permneq": 1,
                      "wreath": 9}


def test_sympy_words_compose_right_to_left():
    # the oracle's composition order matters only for words whose factors
    # do not commute: (1,2)*(2,3) sends 3 to 2 to 1 and 1 to 2
    suite = load_suite("catalog")
    p = _sympy_word(suite, "(1,2)*(2,3)")
    assert (p(0), p(1), p(2)) == (1, 2, 0)
    assert _sympy_word(suite, "(1,2)(2,3)") == p
    assert p == to_sympy(suite.perm_word("(1,2)*(2,3)"))


def _check_word_texts(check):
    """The permutation words a check names, read off its payload and attrs:
    the operands of permeq and permneq, the word of member and notmember,
    the elem= of same-action, induced, word and gl23, and each elem= symbol
    of a table row other than rho."""
    if check.kind in ("permeq", "permneq"):
        return [s.strip() for s in re.split(r"==|!=", check.payload)]
    if check.kind in ("member", "notmember"):
        return [check.payload.rsplit(" in ", 1)[0].strip()]
    if check.kind == "table":
        return [s for s in check.attrs["elem"].split("*") if s != "rho"]
    if check.kind in ("same-action", "induced", "word", "gl23"):
        return [check.attrs["elem"]]
    return []


def _shipped_word_texts(suite):
    """Every permutation word a loaded suite declares or checks, and how
    many word operands its checks have."""
    texts = set(suite.perm_words.values())
    texts.update(w for words in suite.group_words.values() for w in words)
    operands = [text for check in suite.checks for text in _check_word_texts(check)]
    texts.update(operands)
    return texts, len(operands)


def _assert_word_matches_sympy(suite, text):
    first = suite.perm_word(text)
    assert to_sympy(first) == _sympy_word(suite, text), (suite.name, text)
    assert suite.perm_word(text) == first  # the second call, from the memo


def test_shipped_words_against_sympy():
    from fixedfield.suite import list_suites

    total = operands = 0
    for name in list_suites():
        suite = load_suite(name)
        texts, count = _shipped_word_texts(suite)
        for text in sorted(texts):
            _assert_word_matches_sympy(suite, text)
            total += 1
        operands += count
    # 180 word operands in the checks, so the payload reading misses none
    assert total == 247 and operands == 180


def test_random_words_against_sympy():
    # overlapping cycles, named perms and (ID), each to an optional power
    # -3..3, one to four atoms per word
    suite = parse_suite_text("suite mini field=Q\npoints 6\nperm a = (1,2,3)(3,4)\n"
                             "perm b = (2,5)^2*(1,6,4)*a^-1\n")
    rng = random.Random(29)

    def atom():
        pick = rng.randrange(3)
        if pick == 0:
            base = "".join("(" + ",".join(map(str, rng.sample(range(1, 7), rng.randint(2, 4))))
                           + ")" for _ in range(rng.randint(1, 3)))
        else:
            base = rng.choice(["a", "b"]) if pick == 1 else "(ID)"
        power = rng.choice([None, -3, -2, -1, 0, 1, 2, 3])
        return base if power is None else f"{base}^{power}"

    for _ in range(300):
        text = rng.choice(["*", " * "]).join(atom() for _ in range(rng.randint(1, 4)))
        _assert_word_matches_sympy(suite, text)
    for _ in range(2):  # a word that raises is not kept: it raises again
        with pytest.raises(SuiteError, match="^unknown permutation 'c'$"):
            suite.perm_word("(1,2)*c")


def test_each_atom_is_evaluated_once_per_suite(monkeypatch):
    # (1,2,3)^2 occurs in three words, twice in the second, and is parsed
    # once; no word is the atom alone, which the memo of words would cover
    import fixedfield.suite as suite_mod

    suite = parse_suite_text("suite mini field=Q\npoints 4\nperm a = (1,4)\n")
    parsed = Counter()
    parse_cycles = suite_mod.parse_cycles

    def counted(text, n):
        parsed[text] += 1
        return parse_cycles(text, n)

    monkeypatch.setattr(suite_mod, "parse_cycles", counted)
    for text in ("a*(1,2,3)^2", "(1,2,3)^2 * a^-1 * (1,2,3)^2", "(2,4)*(1,2,3)^2*a"):
        _assert_word_matches_sympy(suite, text)
    assert parsed == {"(1,2,3)": 1, "(2,4)": 1}


# --- the expression parser against sympy's rational function fields ---------

def _render(tree, level=0):
    """tree as text of the suite grammar, parenthesized only where the
    grammar needs it: level 0 is an expr, 1 a term, 2 a factor, 3 a base."""
    op = tree[0]
    if op in ("int", "var"):
        return str(tree[1])
    if op == "zeta3":
        return "zeta3"
    if op == "group":  # a parenthesized expr wherever it stands
        return f"({_render(tree[1], 0)})"
    if op == "neg":  # '-' base, so -x1^2 reads as (-x1)^2
        return "-" + _render(tree[1], 3)
    if op == "^":
        text, need = f"{_render(tree[1], 3)}^{tree[2]}", 2
    elif op in "+-":
        text, need = f"{_render(tree[1], 0)} {op} {_render(tree[2], 1)}", 0
    else:
        text, need = f"{_render(tree[1], 1)}{op}{_render(tree[2], 2)}", 1
    return f"({text})" if level > need else text


def _sympy_value(tree, K, gens):
    """tree evaluated in the sympy field K, or None where the parser must
    refuse it (a division by zero or a negative power of zero)."""
    op = tree[0]
    if op == "group":
        return _sympy_value(tree[1], K, gens)
    if op == "int":
        return K(tree[1])
    if op == "var":
        return gens[int(tree[1][1:]) - 1]
    if op == "neg":
        a = _sympy_value(tree[1], K, gens)
        return None if a is None else -a
    if op == "^":
        a = _sympy_value(tree[1], K, gens)
        if a is None or (tree[2] < 0 and a == 0):
            return None
        return K(1) if tree[2] == 0 else a ** tree[2]  # 0^0 is 1, as in the parser
    a, b = _sympy_value(tree[1], K, gens), _sympy_value(tree[2], K, gens)
    if a is None or b is None:
        return None
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    return None if b == 0 else a / b


def _sympy_pair(tree, R, gens, modulus):
    """tree evaluated as a fraction (num, den) over the sympy ring R, whose
    last generator w stands for zeta3, each part reduced modulo
    modulus = w^2 + w + 1; None where the parser must refuse it.  The
    modulus is monic in w, so a reduced part is 0 exactly when the value
    it stands for is."""
    op = tree[0]
    if op == "group":
        return _sympy_pair(tree[1], R, gens, modulus)
    if op == "int":
        return R(tree[1]), R.one
    if op == "var":
        return gens[int(tree[1][1:]) - 1], R.one
    if op == "zeta3":
        return gens[-1], R.one
    if op == "neg":
        a = _sympy_pair(tree[1], R, gens, modulus)
        return None if a is None else (-a[0], a[1])
    if op == "^":
        a = _sympy_pair(tree[1], R, gens, modulus)
        if a is None or (tree[2] < 0 and not a[0]):
            return None
        if tree[2] == 0:  # 0^0 is 1, as in the parser
            return R.one, R.one
        num, den = a if tree[2] > 0 else a[::-1]
        k = abs(tree[2])
        return (num**k).rem(modulus), (den**k).rem(modulus)
    a = _sympy_pair(tree[1], R, gens, modulus)
    b = _sympy_pair(tree[2], R, gens, modulus)
    if a is None or b is None:
        return None
    (an, ad), (bn, bd) = a, b
    if op == "+":
        num, den = an * bd + bn * ad, ad * bd
    elif op == "-":
        num, den = an * bd - bn * ad, ad * bd
    elif op == "*":
        num, den = an * bn, ad * bd
    elif not bn:
        return None
    else:
        num, den = an * bd, ad * bn
    return num.rem(modulus), den.rem(modulus)


def test_parser_matches_sympy_fields_on_random_expressions():
    # random grammar expressions over Q, F2, Qz3 and F4, with one-term runs,
    # sums, fractions, unary minus, negative powers and, over Qz3 and F4,
    # zeta3, compared by cross-multiplication: over Q and F2 against
    # sympy's sympy.polys.fields.field, over Qz3 and F4 against fractions
    # of sympy's QQ[x1, x2, x3, w] and GF(2)[x1, x2, x3, w] modulo
    # w^2 + w + 1, which model Qz3[x1, x2, x3] and F4[x1, x2, x3].  Each
    # example also parses two texts that reuse a parenthesized group (t):
    # u*(t), then (t) op u*(t).  All texts over one field share one memo of
    # groups, as the parses of one suite do, and each value, or error
    # message and position, must also equal that of the parse of its text
    # with a fresh memo
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    from fractions import Fraction

    from sympy import GF, QQ as SQQ
    from sympy.polys.fields import field
    from sympy.polys.rings import ring as sympy_ring

    from fixedfield.parser import ParseError, parse_expr
    from fixedfield.poly import VarTable
    from fixedfield.scalars import F2, F4, QQ, QZ3

    table = VarTable(["x1", "x2", "x3"])
    memos = {f: {} for f in (QQ, F2, QZ3, F4)}

    def leaves(zeta3):
        return st.one_of(
            st.tuples(st.just("int"), st.integers(0, 12)),
            st.tuples(st.just("var"), st.sampled_from(table.names)),
            *([st.just(("zeta3",))] if zeta3 else []),
        )

    def grow(sub):
        return st.one_of(
            st.tuples(st.sampled_from(["+", "-", "*", "*", "/"]), sub, sub),
            st.tuples(st.just("^"), sub, st.integers(-2, 3)),
            st.tuples(st.just("neg"), sub),
        )

    trees = {z: st.recursive(leaves(z), grow, max_leaves=10) for z in (False, True)}
    fields = st.sampled_from([QQ, F2, QZ3, F4])
    cases = fields.flatmap(lambda fld: st.tuples(trees[fld.has_zeta3], st.just(fld)))
    reuses = fields.flatmap(lambda fld: st.tuples(
        trees[fld.has_zeta3], trees[fld.has_zeta3], st.sampled_from(["+", "-", "*", "/"]),
        st.just(fld)))
    seen = Counter()
    refused = "division by zero|negative power of zero"

    def parse(text, fld):
        """The parse of text with the field's shared memo, once it equals
        the parse with a fresh memo."""
        got = parse_expr(text, table, fld, memos[fld])
        fresh = parse_expr(text, table, fld)
        assert (got.num.terms, got.den.terms) == (fresh.num.terms, fresh.den.terms), text
        return got

    def refuse(text, fld):
        """The parse of text with the field's shared memo raises, with the
        message and position of the parse with a fresh memo."""
        errors = []
        for memo in (memos[fld], None):
            with pytest.raises(ParseError, match=refused) as e:
                parse_expr(text, table, fld, memo)
            errors.append(str(e.value))
        assert errors[0] == errors[1], text

    def check_zeta3(tree, fld, text):
        R, *gens = sympy_ring("x1,x2,x3,w", SQQ if fld is QZ3 else GF(2))
        w = gens[-1]
        modulus = w**2 + w + 1
        want = _sympy_pair(tree, R, gens, modulus)
        if want is None:
            refuse(text, fld)
            return "refused"
        got = parse(text, fld)

        def to_ring(p):
            # the payload a + b*zeta3 at x^e becomes a*x^e + b*x^e*w
            parts = {}
            for e, c in p.terms.items():
                a, b = c if fld is QZ3 else (c & 1, c >> 1)
                parts[table.unpack(e) + (0,)] = R.domain(a)
                parts[table.unpack(e) + (1,)] = R.domain(b)
            return R.from_dict(parts)

        diff = to_ring(got.num) * want[1] - want[0] * to_ring(got.den)
        assert diff.rem(modulus) == 0, text
        return "value"

    def check_rational(tree, fld, text):
        K, *gens = field("x1,x2,x3", SQQ if fld is QQ else GF(2))
        R = K.ring
        want = _sympy_value(tree, K, gens)
        if want is None:
            refuse(text, fld)
            return "refused"
        got = parse(text, fld)

        def ring(p):
            return R.from_dict({
                table.unpack(e): SQQ(Fraction(c).numerator, Fraction(c).denominator)
                if fld is QQ else R.domain(c)
                for e, c in p.terms.items()
            })

        assert ring(got.num) * want.denom == want.numer * ring(got.den), text
        return "value"

    # divisors that vanish only through w^2 + w + 1
    z = ("zeta3",)
    norm = ("+", ("+", ("^", z, 2), z), ("int", 1))
    vanishing = [("/", ("var", "x1"), norm),
                 ("^", ("+", ("*", z, z), ("+", z, ("int", 1))), -1)]
    settings = dict(derandomize=True, deadline=None, database=None,
                    suppress_health_check=list(hypothesis.HealthCheck))

    @hypothesis.settings(max_examples=800, **settings)
    @hypothesis.given(cases)
    @hypothesis.example((vanishing[0], QZ3))
    @hypothesis.example((vanishing[0], F4))
    @hypothesis.example((vanishing[1], QZ3))
    @hypothesis.example((vanishing[1], F4))
    def check(case):
        tree, fld = case
        compare = check_zeta3 if fld.has_zeta3 else check_rational
        seen[fld.tag, compare(tree, fld, _render(tree))] += 1

    @hypothesis.settings(max_examples=400, **settings)
    @hypothesis.given(reuses)
    def check_reuse(case):
        tree, other, op, fld = case
        compare = check_zeta3 if fld.has_zeta3 else check_rational
        group = ("group", tree)
        reused = ("*", other, group)
        for whole in (reused, (op, group, reused)):
            verdict = compare(whole, fld, _render(whole))
            seen[fld.tag, "reuse " + verdict] += 1
            # a text that parses leaves each of its groups in the memo
            assert verdict == "refused" or _render(group) in memos[fld], case

    check()
    check_reuse()
    assert seen["Q", "value"] + seen["F2", "value"] > 200, seen
    assert seen["Q", "refused"] + seen["F2", "refused"] > 10, seen
    assert seen["Qz3", "value"] >= 100 and seen["F4", "value"] >= 100, seen
    assert seen["Qz3", "refused"] > len(vanishing) and seen["F4", "refused"] > len(vanishing), seen
    for f in (QQ, F2, QZ3, F4):
        assert seen[f.tag, "reuse value"] >= 100 and seen[f.tag, "reuse refused"] > 0, seen
    assert sum(seen[f.tag, "reuse refused"] for f in (QQ, F2, QZ3, F4)) > 20, seen

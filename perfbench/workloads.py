"""Workload generators for the verifier benchmark.

Each workload is a list of suites, every suite given as text that the
program parses, together with the verdict every check must reach.  The
generators use only the standard library: expected verdicts come from
the construction (relabeling invariance, true-by-construction
identities, mutated twins), never from the program under test.

    paper    the 11 shipped suites, in canonical order; seed unused.
    groups   catalog.suite relabeled by a seeded permutation of the 8
             points, plus seeded redundant generating sets per group.
    algebra  seeded identities, orbit-sum invariance and chained action
             tables over Q, F2, Q(zeta3) and F4, each true check paired
             with a mutated twin that must fail.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from math import comb
from pathlib import Path

DATA_DIR = Path(__file__).resolve().parent.parent / "src" / "fixedfield" / "data"

CANONICAL_SUITES = [
    "catalog", "prop22", "prop29", "thm210", "sec4", "sec5_char0",
    "sec5_char2", "sec6_char0", "sec6_char2", "sec7_char0", "sec7_char2",
]

PASS = "pass"
FAIL = "fail"
FLAGGED = "flagged-discrepancy"

# md5 of `fixedfield verify --all --format json` at the seed commit.
PAPER_REPORT_MD5 = "fd3d7da7c9e534c493da70ac76ccc649"
# The one printed datum the paper gets wrong; the runner flags it only
# while its paired correction g14-kappa-fixed passes.
PAPER_FLAGGED = {"g14-kappa-printed"}


@dataclass
class Workload:
    name: str
    # (suite name, suite text); text is None for a shipped suite, which the
    # benchmark loads through fixedfield.suite.load_suite.
    suites: list
    # suite name -> {check id -> expected status}
    expected: dict

    @property
    def n_checks(self):
        return sum(len(v) for v in self.expected.values())


def build(name: str, seed: int) -> Workload:
    if name == "paper":
        return paper()
    if name == "groups":
        return groups(seed)
    if name == "algebra":
        return algebra(seed)
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# suite-text helpers (a minimal reading of the format: enough to know the
# check ids and to rewrite point labels; the program does the real parse)

_QUOTED = re.compile(r'"[^"]*"')


def _logical_lines(text):
    buf = ""
    for raw in text.splitlines():
        line = raw.rstrip()
        if line.endswith("\\"):
            buf += line[:-1]
            continue
        yield buf + line
        buf = ""


def _check_ids(text):
    """Check ids in file order, with the runner's default ids for checks
    that carry no id=."""
    out = []
    for seq, line in enumerate(
        (ln.strip() for ln in _logical_lines(text) if ln.strip().startswith("check ")),
        start=1,
    ):
        bare = _QUOTED.sub('""', line)
        m = re.search(r"\sid=(\S+)", bare)
        out.append(m.group(1) if m else f"{bare.split()[1]}-{seq:03d}")
    return out


def _read_suite(name):
    return (DATA_DIR / f"{name}.suite").read_text(encoding="utf-8")


def paper() -> Workload:
    expected = {}
    for name in CANONICAL_SUITES:
        ids = _check_ids(_read_suite(name))
        expected[name] = {
            cid: FLAGGED if cid in PAPER_FLAGGED else PASS for cid in ids
        }
    return Workload("paper", [(n, None) for n in CANONICAL_SUITES], expected)


# ---------------------------------------------------------------------------
# groups: relabeled catalog plus redundant generating sets

REDUNDANT_SETS = 4      # extra generating sets per catalog group
EXTRA_WORDS = 3         # random words added to each set
WORD_LENGTH = 4         # factors per random word
MEMBER_WORDS = 2        # member / notmember pairs per group

_CYCLE = re.compile(r"\(\s*\d+(?:\s*,\s*\d+)*\s*\)")
_BLOCKS = re.compile(r"(blocks\s*=\s*)([\d,|]+)")
_GROUP = re.compile(r"group\s+(\S+)\s*=\s*(.+?)\s+expect_order=(\d+)\s*$")


def _relabel_line(line, sigma):
    """Apply sigma to every point in cycle literals and wreath blocks,
    leaving quoted ref/note text alone."""

    def cycle(m):
        pts = [sigma[int(p)] for p in re.findall(r"\d+", m.group(0))]
        return "(" + ",".join(map(str, pts)) + ")"

    def blocks(m):
        body = re.sub(r"\d+", lambda d: str(sigma[int(d.group(0))]), m.group(2))
        return m.group(1) + body

    pieces = []
    pos = 0
    for q in _QUOTED.finditer(line):
        pieces.append(_BLOCKS.sub(blocks, _CYCLE.sub(cycle, line[pos:q.start()])))
        pieces.append(q.group(0))
        pos = q.end()
    pieces.append(_BLOCKS.sub(blocks, _CYCLE.sub(cycle, line[pos:])))
    return "".join(pieces)


def _random_word(rng, gens):
    factors = []
    for _ in range(WORD_LENGTH):
        tok = rng.choice(gens)
        # a generator token may already carry a power (psi1^2)
        factors.append(tok if "^" in tok else f"{tok}^{rng.choice((-1, 1, 2))}")
    return "*".join(factors)


def groups(seed: int) -> Workload:
    rng = random.Random(f"groups:{seed}")
    images = list(range(1, 9))
    rng.shuffle(images)
    sigma = dict(zip(range(1, 9), images))

    text = _read_suite("catalog")
    lines = [_relabel_line(ln, sigma) for ln in _logical_lines(text)]
    lines = [
        "suite catalog_relabeled field=Q" if ln.startswith("suite catalog ") else ln
        for ln in lines
    ]
    catalog_ids = _check_ids(text)
    expected = {cid: PASS for cid in catalog_ids}

    group_lines = [m.groups() for m in map(_GROUP.match, lines) if m]
    orders = {name: int(order) for name, _, order in group_lines}
    extra_groups, extra_checks = [], []
    for name, body, order in group_lines:
        gens = body.split()
        others = [g for g, o in orders.items() if o != int(order)]
        for k in range(1, REDUNDANT_SETS + 1):
            words = gens + [_random_word(rng, gens) for _ in range(EXTRA_WORDS)]
            rng.shuffle(words)
            rname = f"{name}_r{k}"
            extra_groups.append(f"group {rname} = {' '.join(words)} expect_order={order}")
            cid = f"{rname}-eq"
            extra_checks.append(
                f'check groupeq {rname} == {name} id={cid} '
                f'ref="derived: redundant generating set of {name}"'
            )
            expected[cid] = PASS
            other = rng.choice(others)
            extra_checks.append(
                f'check groupeq {rname} == {other} id={cid}-twin '
                f'ref="derived: mutated twin, |{other}| != |{name}|"'
            )
            expected[f"{cid}-twin"] = FAIL
        for k in range(1, MEMBER_WORDS + 1):
            word = _random_word(rng, gens)
            cid = f"{name}-w{k}"
            extra_checks.append(
                f'check member {word} in {name} id={cid} ref="derived: word in the generators"'
            )
            extra_checks.append(
                f'check notmember {word} in {name} id={cid}-twin '
                f'ref="derived: mutated twin of {cid}"'
            )
            expected[cid] = PASS
            expected[f"{cid}-twin"] = FAIL

    # declarations must precede the checks that use them; the catalog
    # declares all groups before its first check
    first_check = next(i for i, ln in enumerate(lines) if ln.strip().startswith("check "))
    out = lines[:first_check] + extra_groups + lines[first_check:] + extra_checks
    suite_text = "\n".join(out) + "\n"
    return Workload(
        "groups", [("catalog_relabeled", suite_text)], {"catalog_relabeled": expected}
    )


# ---------------------------------------------------------------------------
# algebra: large-operand identities, orbit-sum invariance, chained tables

X = [f"x{i}" for i in range(1, 9)]

# Per field: binom = (count, terms per operand, power), frac = (count,
# terms per operand), inv = orbit-sum invariance checks, rows = table
# chains.  The counts balance the four fields by time at the seed commit;
# Q(zeta3) arithmetic costs an order of magnitude more per term pair, so
# it gets fewer and smaller operands.
FIELD_PLAN = {
    "Q": dict(binom=(2, 6, 3), frac=(2, 5), inv=3, rows=2),
    "F2": dict(binom=(3, 8, 3), frac=(2, 6), inv=3, rows=2),
    "Qz3": dict(binom=(1, 4, 2), frac=(1, 4), inv=1, rows=1),
    "F4": dict(binom=(3, 8, 3), frac=(2, 6), inv=3, rows=2),
}
# order-8 catalog groups for the orbit sums, with their catalog words
ORBIT_GROUPS = {
    "G1": "(1,2,3,4,5,6,7,8)",
    "G2": "(1,2,3,4)(5,6,7,8) (1,5)(2,6)(3,7)(4,8)",
    "G3": "(1,2)(3,4)(5,6)(7,8) (1,3)(2,4)(5,7)(6,8) (1,5)(2,6)(3,7)(4,8)",
}
ORBIT_ORDER = 8
ROW_LENGTH = 4   # g is a product of two disjoint 4-cycles


def _coef(rng, field):
    if field == "Q":
        return str(rng.randint(1, 9))
    if field == "F2":
        return "1"
    if field == "Qz3":
        # always both parts nonzero, so payload sizes barely vary by seed
        return f"({rng.randint(1, 3)}+{rng.randint(1, 3)}*zeta3)"
    return rng.choice(("zeta3", "(1+zeta3)"))


def _monomial(e):
    return "*".join(f"{v}^{k}" if k > 1 else v for v, k in zip(X, e) if k)


def _random_poly(rng, field, terms):
    """terms distinct monomials, each in 2-3 variables with exponents 1..4,
    so that products rarely collide and their size barely depends on the
    seed."""
    mons = set()
    while len(mons) < terms:
        e = [0] * 8
        for i in rng.sample(range(8), rng.choice((2, 3))):
            e[i] = rng.randint(1, 4)
        mons.add(tuple(e))
    return " + ".join(f"{_coef(rng, field)}*{_monomial(e)}" for e in sorted(mons))


def _binomial(rng, field, terms, n):
    a, b = _random_poly(rng, field, terms), _random_poly(rng, field, terms)
    z = "zeta3" if field in ("Qz3", "F4") else str(rng.randint(2, 5)) if field == "Q" else "1"
    rhs = " + ".join(
        f"{comb(n, k)}*{z}^{k}*({a})^{n - k}*({b})^{k}" for k in range(n + 1)
    )
    return f"({a} + {z}*({b}))^{n} - ({rhs})"


def _fraction_sum(rng, field, terms):
    a, b, c, d = (_random_poly(rng, field, terms) for _ in range(4))
    return f"({a})/({b}) + ({c})/({d}) - (({a})*({d}) + ({b})*({c}))/(({b})*({d}))"


def _act(perm, e):
    """x_i -> x_{perm(i)} on an exponent vector."""
    out = [0] * 8
    for i, k in enumerate(e):
        out[perm[i] - 1] = k
    return tuple(out)


def _cycles_to_perm(text):
    images = list(range(1, 9))
    for cyc in re.findall(r"\(([^)]*)\)", text):
        pts = [int(p) for p in cyc.split(",")]
        for a, b in zip(pts, pts[1:] + pts[:1]):
            images[a - 1] = b
    return images


def _orbit(gens, e):
    seen = {e}
    frontier = [e]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                im = _act(g, m)
                if im not in seen:
                    seen.add(im)
                    nxt.append(im)
        frontier = nxt
    return sorted(seen)


def _orbit_sum(rng, field, gens, order):
    """A G-invariant polynomial: a random coefficient times the orbit sum
    of a random monomial with a regular orbit (|G| members), so its size
    does not depend on the seed."""
    while True:
        e = [0] * 8
        for i in rng.sample(range(8), 3):
            e[i] = rng.randint(1, 3)
        orb = _orbit(gens, tuple(e))
        if len(orb) == order:
            c = _coef(rng, field)
            return [f"{c}*{_monomial(m)}" for m in orb]


def _leading_poly(rng, field, terms):
    """A polynomial whose unique top-degree monomial has exponents 0..7 in
    some order, so no nontrivial permutation of the points fixes it."""
    lead = list(range(8))
    rng.shuffle(lead)
    return f"{_coef(rng, field)}*{_monomial(lead)} + {_random_poly(rng, field, terms - 1)}"


def _algebra_suite(rng, field):
    plan = FIELD_PLAN[field]
    name = f"algebra_{field}"
    ids = {}
    decls = [f"suite {name} field={field}", "points 8", f"vars x = {' '.join(X)}"]
    checks = []

    def add(kind_payload, cid, ref, status):
        checks.append(f'check {kind_payload} id={cid} ref="{ref}"')
        ids[cid] = status

    count, terms, power = plan["binom"]
    for i in range(count):
        expr = _binomial(rng, field, terms, power)
        add(f"identity {expr} == 0", f"binom{i}", "derived: binomial expansion", PASS)
        add(f"identity {expr} + 1 == 0", f"binom{i}-twin", "derived: mutated twin, +1", FAIL)
    count, terms = plan["frac"]
    for i in range(count):
        expr = _fraction_sum(rng, field, terms)
        add(f"identity {expr} == 0", f"frac{i}", "derived: fraction sum", PASS)
        add(f"identity {expr} + 1 == 0", f"frac{i}-twin", "derived: mutated twin, +1", FAIL)

    for gname, words in ORBIT_GROUPS.items():
        decls.append(f"group {gname} = {words} expect_order={ORBIT_ORDER}")
    for i in range(plan["inv"]):
        gname = list(ORBIT_GROUPS)[i % len(ORBIT_GROUPS)]
        gens = [_cycles_to_perm(w) for w in ORBIT_GROUPS[gname].split()]
        e1, e2 = (_orbit_sum(rng, field, gens, ORBIT_ORDER) for _ in range(2))
        s1, s2 = " + ".join(e1), " + ".join(e2)
        # e1 without one of its terms is moved by some generator, and
        # (e1')*(e2) then is too: the ring has no zero divisors
        drop = rng.randrange(len(e1))
        s1_cut = " + ".join(t for j, t in enumerate(e1) if j != drop)
        add(f"invariance ({s1})*({s2}) under {gname}",
            f"inv{i}", f"derived: orbit sums under {gname}", PASS)
        add(f"invariance ({s1_cut})*({s2}) under {gname}",
            f"inv{i}-twin", "derived: mutated twin, one orbit term dropped", FAIL)

    # chained tables: y_i = g^(i-1) f over x, z_i over y, rows for g
    k = ROW_LENGTH
    for t in range(plan["rows"]):
        pts = rng.sample(range(1, 9), 8)
        g = f"({','.join(map(str, pts[:k]))})({','.join(map(str, pts[k:]))})"
        gperm = _cycles_to_perm(g)
        decls.append(f"perm g{t} = {g}")
        f = _leading_poly(rng, field, plan["frac"][1])
        ys = [f"y{t}_{i}" for i in range(1, k + 1)]
        zs = [f"z{t}_{i}" for i in range(1, k + 1)]
        decls.append(f"vars y{t} = {' '.join(ys)}")
        decls.append(f"vars z{t} = {' '.join(zs)}")
        poly = f
        for i in range(k):
            decls.append(f"def y{t}.{ys[i]} = {poly}")
            poly = _act_poly(gperm, poly)
        for i in range(k):
            decls.append(
                f"def z{t}.{zs[i]} = ({ys[i]} + {ys[(i + 1) % k]})/{ys[(i + 2) % k]}"
            )
        for tab, names, via in ((f"y{t}", ys, ""), (f"z{t}", zs, " via=parent")):
            row = names[1:] + names[:1]
            a, b = rng.sample(range(k), 2)
            bad = list(row)
            bad[a], bad[b] = bad[b], bad[a]
            add(f"table {tab} elem=g{t}{via} images = {', '.join(row)}",
                f"row-{tab}", "derived: g shifts the orbit of f", PASS)
            add(f"table {tab} elem=g{t}{via} images = {', '.join(bad)}",
                f"row-{tab}-twin", "derived: mutated twin, two images swapped", FAIL)
        zground = zs[1:] + zs[:1]
        add(f"table z{t} elem=g{t} images = {', '.join(zground)}",
            f"row-z{t}-ground", "derived: g shifts z, checked at the root", PASS)

    return name, "\n".join(decls + checks) + "\n", ids


def _act_poly(perm, text):
    """Apply x_i -> x_{perm(i)} to a polynomial written by this module."""
    return re.sub(r"x(\d)", lambda m: f"x{perm[int(m.group(1)) - 1]}", text)


def algebra(seed: int) -> Workload:
    rng = random.Random(f"algebra:{seed}")
    suites, expected = [], {}
    for field in FIELD_PLAN:
        name, text, ids = _algebra_suite(rng, field)
        suites.append((name, text))
        expected[name] = ids
    return Workload("algebra", suites, expected)

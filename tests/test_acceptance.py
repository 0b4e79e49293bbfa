"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with pytest -s); the
assertions carry the same conditions.  All tolerances are exact: every
comparison is between exact field elements, integers, or byte strings.
"""

import json
import random
import subprocess
import sys
import time

import pytest

from fixedfield.monomial import MonomialError, is_square, mat_from_rows, monomial_shape
from fixedfield.parser import parse_expr
from fixedfield.perms import Perm, is_transitive
from fixedfield.poly import Poly, RatFunc, VarTable, ratfunc_eq, substitute
from fixedfield.scalars import F2, F4, QQ, QZ3
from fixedfield.suite import FLAGGED, PASS, list_suites, load_suite, run_parsed_suite

from test_monomial import lattice_of, smith_diagonal
from test_scalars import random_payload


def monomial(vt, payload, exponents):
    """payload * prod x_i^exponents[i] over vt, zero when payload is."""
    return Poly(vt, QQ, {vt.pack(exponents): payload} if payload else {})


def announce(num, ok, text):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


@pytest.fixture(scope="module")
def all_reports():
    return {name: run_parsed_suite(load_suite(name)) for name in list_suites()}


EXPECTED_ORDERS = {
    1: 8, 2: 8, 3: 8, 4: 8, 5: 8,
    6: 16, 7: 16, 8: 16, 9: 16, 10: 16, 11: 16,
    12: 24, 13: 24, 14: 24,
    15: 32, 16: 32, 17: 32, 18: 32, 19: 32, 20: 32, 21: 32, 22: 32,
    23: 48, 24: 48, 25: 56,
    26: 64, 27: 64, 28: 64, 29: 64, 30: 64, 31: 64,
    32: 96, 33: 96, 34: 96, 35: 128,
    36: 168, 37: 168,
    38: 192, 39: 192, 40: 192, 41: 192,
    42: 288, 43: 336, 44: 384, 45: 576, 46: 576, 47: 1152, 48: 1344,
}


def test_criterion_1_catalog():
    t0 = time.time()
    suite = load_suite("catalog")
    ok = True
    for i, want in EXPECTED_ORDERS.items():
        g = suite.groups[f"G{i}"]
        ok = ok and g.order == want and is_transitive(g)
    elapsed = time.time() - t0
    ok = ok and elapsed < 5.0
    announce(1, ok, f"48 group orders and transitivity exact, {elapsed:.2f}s < 5s")


def test_criterion_2_identities():
    t0 = time.time()
    rep29 = run_parsed_suite(load_suite("prop29"))
    by_id = {c.id: c.status for c in rep29.checks}
    ok = all(by_id[f"ident-{k}"] == PASS for k in ("i", "ii", "iii", "iv", "v", "vi"))
    rep7a = run_parsed_suite(load_suite("sec7_char0"))
    rep7b = run_parsed_suite(load_suite("sec7_char2"))
    ok = ok and {c.id: c.status for c in rep7a.checks}["cube-relation"] == PASS
    ok = ok and {c.id: c.status for c in rep7b.checks}["cube-relation-f2"] == PASS
    elapsed = time.time() - t0
    ok = ok and elapsed < 10.0
    announce(2, ok, f"six reduction identities and the cube relation over Q and F2 "
                    f"are exactly zero, {elapsed:.2f}s < 10s")


def test_criterion_3_degrees():
    ok = lattice_of([[1, 1, -1], [-1, 1, 1], [1, -1, 1]]).det == 4

    suite6 = load_suite("sec6_char0")
    ok = ok and suite6.table("z").lattice().det == 16

    suite7 = load_suite("sec7_char0")
    m7 = suite7.table("z").lattice().unit_rows()
    ok = ok and suite7.table("z").lattice().det == 8
    seven = [row[1:] for row in m7[1:]]
    ok = ok and lattice_of(seven).det == 8

    # Smith-normal-form oracle agrees on every monomial generator set
    checked = 0
    for name in list_suites():
        suite = load_suite(name)
        for table in suite.tables.values():
            if table.defs is None:
                continue
            shapes = [monomial_shape(d) for d in table.defs]
            if any(s is None for s in shapes) or any(
                c != table.field.one() for c, _ in shapes
            ):
                continue
            m = mat_from_rows([e for _, e in shapes])
            if not is_square(m):
                continue
            diag = smith_diagonal(m)
            prod = 1
            for x in diag:
                prod *= x
            try:
                d = table.lattice().det
            except MonomialError as exc:
                d = 0 if "linearly dependent" in str(exc) else None
            agree = (prod == d) if len(diag) == len(m) else (d == 0)
            ok = ok and agree
            checked += 1
    ok = ok and checked >= 10
    announce(3, ok, f"block determinant 4 (16 overall), degree-8 lattice, and the "
                    f"Smith oracle agrees on {checked} monomial generator sets")


def test_criterion_4_action_tables(all_reports):
    flagged = [
        (name, c.id)
        for name, rep in all_reports.items()
        for c in rep.checks
        if c.status == FLAGGED
    ]
    fails = [
        (name, c.id)
        for name, rep in all_reports.items()
        for c in rep.checks
        if c.status not in (PASS, FLAGGED)
    ]
    corrected = {c.id: c.status for c in all_reports["sec5_char0"].checks}
    table_checks = 0
    for name in list_suites():
        suite = load_suite(name)
        table_checks += sum(1 for c in suite.checks if c.kind == "table")
    ok = (
        not fails
        and flagged == [("sec5_char0", "g14-kappa-printed")]
        and corrected["g14-kappa-fixed"] == PASS
        and table_checks > 90
    )
    announce(4, ok, f"all {table_checks} table rows verify with exactly one flagged "
                    "discrepancy (the corrected third image passes)")


def test_criterion_5_monomial_correspondences(all_reports):
    rep = all_reports["sec5_char0"]
    by_id = {c.id: c.status for c in rep.checks}
    word_ids = [i for i in by_id if i.startswith("word-")]
    matgroup_ids = [i for i in by_id if i.startswith("matgroup-")]
    purity_ids = [i for i in by_id if i.startswith(("pure-", "impure-"))]
    ok = (
        len(word_ids) >= 12
        and len(matgroup_ids) >= 5
        and len(purity_ids) >= 11
        and all(by_id[i] == PASS for i in word_ids + matgroup_ids + purity_ids)
        and by_id["mono-za-G14"] == PASS
        and by_id["pure-zb-G13"] == PASS
        and by_id["pure-zb-G24"] == PASS
    )
    announce(5, ok, f"{len(word_ids)} matrix-word equalities, {len(matgroup_ids)} "
                    f"matrix-group identifications, {len(purity_ids)} purity verdicts")


def test_criterion_6_induced_quotients(all_reports):
    by6 = {c.id: c.status for c in all_reports["sec6_char0"].checks}
    by7 = {c.id: c.status for c in all_reports["sec7_char0"].checks}
    quotients = {
        "ind-G33": ("G33", 6), "ind-G34": ("G34", 6), "ind-G41": ("G41", 12),
        "ind-G45": ("G45", 36), "ind-G46": ("G46", 36),
    }
    catalog = load_suite("catalog")
    ok = True
    for cid, (gname, order) in quotients.items():
        ok = ok and by6[cid] == PASS
        ok = ok and catalog.groups[gname].order // 16 == order
    for cid in ("ind-gam0", "ind-gam1", "ind-gam2"):
        ok = ok and by7[cid] == PASS
    announce(6, ok, "induced quotients have orders 6, 6, 12, 36, 36 on six points "
                    "and 7, 21, 168 on seven points, all transitive")


def test_criterion_7_kernels_and_faithfulness(all_reports):
    by5 = {c.id: c.status for c in all_reports["sec5_char0"].checks}
    by6 = {c.id: c.status for c in all_reports["sec6_char0"].checks}
    faithful_ids = [i for i in by5 if i.startswith("faithful-")]
    kernel_ids = [i for i in by5 if i.startswith("kernel-")]
    kernel6_ids = [i for i in by6 if i.startswith("kernel-")]
    ok = (
        len(faithful_ids) == 16
        and all(by5[i] == PASS for i in faithful_ids)
        and len(kernel_ids) >= 10
        and all(by5[i] == PASS for i in kernel_ids)
        and len(kernel6_ids) == 5
        and all(by6[i] == PASS for i in kernel6_ids)
    )
    announce(7, ok, f"all 16 restricted-action faithfulness claims, "
                    f"{len(kernel_ids)} integral-representation kernels, and the five "
                    f"six-point action kernels")


def test_criterion_8_property_suites():
    ok = True
    # field axioms, 1000 random triples per field
    for field in (QQ, F2, QZ3, F4):
        rng = random.Random(97)
        zero, one = field.zero(), field.one()
        for _ in range(1000):
            a, b, c = (random_payload(field, rng) for _ in range(3))
            ok = ok and field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
            ok = ok and field.mul(a, field.add(b, c)) == field.add(
                field.mul(a, b), field.mul(a, c)
            )
            ok = ok and field.mul(a, b) == field.mul(b, a)
            if a != zero:
                ok = ok and field.mul(a, field.inv(a)) == one
        if not ok:
            break

    # substitution homomorphism law
    xt = VarTable(["x1", "x2"])
    yt = VarTable(["y1", "y2", "y3"])
    rng = random.Random(101)
    for _ in range(25):
        s = [
            RatFunc(
                monomial(yt, QQ.from_int(rng.choice([1, 2, -1])),
                         (rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 1))),
                monomial(yt, QQ.one(), (rng.randint(0, 1), 0, rng.randint(0, 1))),
            )
            for _ in range(2)
        ]
        p = monomial(xt, QQ.from_int(rng.randint(-3, 3)),
                     (rng.randint(0, 3), rng.randint(0, 2)))
        q = monomial(xt, QQ.from_int(rng.randint(-3, 3)),
                     (rng.randint(0, 2), rng.randint(0, 3)))
        sp, sq = substitute(RatFunc.from_poly(p), s), substitute(RatFunc.from_poly(q), s)
        ok = ok and ratfunc_eq(substitute(RatFunc.from_poly(p + q), s), sp + sq)
        ok = ok and ratfunc_eq(substitute(RatFunc.from_poly(p * q), s), sp * sq)

    # cross-multiplication equality is an equivalence on scaled fractions
    for _ in range(25):
        n = monomial(xt, QQ.from_int(rng.randint(1, 5)),
                     (rng.randint(0, 2), rng.randint(0, 2)))
        d = monomial(xt, QQ.from_int(rng.randint(1, 5)),
                     (rng.randint(0, 1), rng.randint(0, 2)))
        extra = parse_expr("x1 + 2*x2", xt, QQ).num
        a = RatFunc(n, d)
        b = RatFunc(n * extra, d * extra)
        ok = ok and ratfunc_eq(a, b) and ratfunc_eq(b, a) and ratfunc_eq(a, a)

    # left-action law on random permutation pairs and monomials
    from fixedfield.actions import perm_act

    x8 = VarTable([f"x{i}" for i in range(1, 9)])
    rng = random.Random(103)
    for _ in range(100):
        a = list(range(1, 9))
        b = list(range(1, 9))
        rng.shuffle(a)
        rng.shuffle(b)
        g, h = Perm(a), Perm(b)
        mono = RatFunc.from_poly(
            monomial(x8, QQ.from_int(rng.randint(1, 3)),
                     tuple(rng.randint(0, 2) for _ in range(8)))
        )
        ok = ok and ratfunc_eq(perm_act(g * h, mono), perm_act(g, perm_act(h, mono)))

    # parser round trip on every expression in every suite file
    from test_suites import _check_expressions, _suite_variables

    total = 0
    for name in list_suites():
        suite = load_suite(name)
        for table in suite.tables.values():
            if table.defs is None:
                continue
            for d in table.defs:
                again = parse_expr(str(d), table.parent.vt, d.field)
                ok = ok and ratfunc_eq(again, d)
                total += 1
        ns = _suite_variables(suite)
        for text, fld in _check_expressions(suite):
            parsed = parse_expr(text, ns, fld)
            again = parse_expr(str(parsed), ns, fld)
            ok = ok and ratfunc_eq(parsed, again)
            total += 1
    ok = ok and total > 500
    announce(8, ok, f"field axioms (4000 triples), homomorphism and equivalence laws, "
                    f"left action, and {total}/{total} suite expressions round-trip")


def test_criterion_9_determinism():
    cmd = [sys.executable, "-m", "fixedfield.cli", "verify", "--all", "--format", "json"]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    ok = first.stdout == second.stdout and len(first.stdout) > 10000
    docs = json.loads(first.stdout)
    ok = ok and [d["suite"] for d in docs] == list_suites()
    announce(9, ok, "two separate verify --all --format json processes emit "
                    "byte-identical reports")

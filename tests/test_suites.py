import hashlib
import importlib.util
import re
import sys
from collections import Counter
from importlib import resources
from pathlib import Path

import pytest

from fixedfield.actions import (
    action_kernel,
    induced_scaled_permutation,
    perm_act,
    scaled_permutation_images,
)
from fixedfield.catalog import ELEMENT_ORDERS, CatalogError, catalog_group, catalog_lookup
from fixedfield.monomial import mat_identity
from fixedfield.parser import format_ratfunc, parse_expr
from fixedfield.poly import Substitution, ratfunc_eq
from fixedfield.suite import (
    FAIL,
    FLAGGED,
    PASS,
    SuiteError,
    list_suites,
    load_suite,
    parse_suite_text,
    report_to_json,
    run_parsed_suite,
    run_suite,
    verify_table_row,
)

ALL_SUITES = list_suites()


@pytest.fixture(scope="module")
def reports():
    return {name: run_suite(name) for name in ALL_SUITES}


@pytest.fixture(scope="module")
def executed_suites():
    out = {}
    for name in ALL_SUITES:
        suite = load_suite(name)
        run_parsed_suite(suite)  # populates the action registry
        out[name] = suite
    return out


def test_list_suites_contract():
    names = list_suites()
    assert len(names) == len(set(names))
    for expected in ("prop29", "thm210", "prop22", "sec4", "sec5_char0",
                     "sec5_char2", "sec6_char0", "sec6_char2", "sec7_char0",
                     "sec7_char2", "catalog"):
        assert expected in names
    assert names == list_suites()  # stable


def test_unknown_suite_rejected():
    with pytest.raises(SuiteError):
        run_suite("nope")


MINI = """suite mini field=Q
points 3
group A3 = (1,2,3) expect_order=3
vars x = x1 x2 x3
{checks}
"""


def _mini(checks):
    from fixedfield.suite import parse_suite_text

    return parse_suite_text(MINI.format(checks=checks))


def test_loader_requires_refs():
    with pytest.raises(SuiteError, match="ref"):
        _mini("check invariance x1 + x2 + x3 under A3")


def test_loader_requires_pair_and_note_for_expected_failures():
    with pytest.raises(SuiteError, match="pair"):
        _mini('check invariance x1 under A3 expect=fail ref="r"')


def test_loader_rejects_duplicate_ids():
    with pytest.raises(SuiteError, match="duplicate"):
        _mini('check transitive A3 id=a ref="r"\ncheck transitive A3 id=a ref="r"')


def test_loader_rejects_wrong_group_order():
    from fixedfield.suite import parse_suite_text

    with pytest.raises(SuiteError, match="order"):
        parse_suite_text(
            "suite mini field=Q\npoints 3\ngroup A3 = (1,2,3) expect_order=6\n"
        )


@pytest.mark.parametrize(
    "check, message",
    [
        ('check degree x ref="r"', "needs one '='"),
        ('check table x images = x1, x2, x3 ref="r"', "missing its elem="),
        ('check matrix-kernel x under A3 ref="r"', "needs one '='"),
        ('check faithful x ref="r"', "needs one 'under'"),
        ('check order A3 = three ref="r"', "needs an integer"),
        ('check identity x1 - x1 == x2 ref="r"', "needs the right-hand side 0"),
        ('check identity x1 - x1 ref="r"', "needs one '=='"),
        ('check gl23 elem=a matrix=1,x;0,1 ref="r"', "gl23 matrix entry is not an integer"),
        ('check gl23 elem=a matrix=1,0,0;0,1 ref="r"', "gl23 matrix must be 2x2"),
        ('check wreath A3 = C3 wr C1 blocks = 1,2|3,y ref="r"',
         "wreath block entry is not an integer"),
    ],
    ids=["degree-without-eq", "table-without-elem", "matrix-kernel-without-target",
         "faithful-without-under", "order-not-an-integer", "identity-nonzero-rhs",
         "identity-without-rhs", "gl23-non-integer-entry", "gl23-not-2x2",
         "wreath-non-integer-block"],
)
def test_loader_rejects_malformed_checks(check, message):
    # rejected at load time with the line number, not left to crash the
    # runner with a raw ValueError or KeyError
    with pytest.raises(SuiteError, match=r"^line 5: .*" + re.escape(message)):
        _mini(check)


def test_flagged_requires_passing_pair():
    suite = _mini(
        'check invariance x1 under A3 expect=fail pair=fix note="printed" ref="r"\n'
        'check invariance x2 under A3 id=fix ref="r"'
    )
    rep = run_parsed_suite(suite)
    by_id = {c.id: c for c in rep.checks}
    # the correction itself fails, so the expected failure is not flagged
    assert by_id["fix"].status == "fail"
    assert by_id[rep.checks[0].id].status == "fail"
    suite2 = _mini(
        'check invariance x1 under A3 expect=fail pair=fix note="printed" ref="r"\n'
        'check invariance x1 + x2 + x3 under A3 id=fix ref="r"'
    )
    rep2 = run_parsed_suite(suite2)
    by_id2 = {c.id: c for c in rep2.checks}
    assert by_id2["fix"].status == PASS
    assert rep2.checks[0].status == FLAGGED
    assert rep2.ok()


def test_all_suites_have_expected_statuses(reports):
    for name, rep in reports.items():
        bad = [c.id for c in rep.checks if c.status == "fail"]
        assert not bad, f"{name}: unexpected failures {bad}"
    flagged = [
        (name, c.id)
        for name, rep in reports.items()
        for c in rep.checks
        if c.status == FLAGGED
    ]
    assert flagged == [("sec5_char0", "g14-kappa-printed")]


def test_flagged_discrepancy_pairs_with_passing_correction(reports):
    rep = reports["sec5_char0"]
    by_id = {c.id: c for c in rep.checks}
    assert by_id["g14-kappa-printed"].status == FLAGGED
    assert by_id["g14-kappa-fixed"].status == PASS


def test_every_check_carries_a_ref(reports):
    for rep in reports.values():
        for c in rep.checks:
            assert c.paper_ref.strip()


def test_reports_are_deterministic():
    blob1 = report_to_json([run_suite(n) for n in ALL_SUITES])
    blob2 = report_to_json([run_suite(n) for n in ALL_SUITES])
    assert blob1 == blob2


# md5 of `fixedfield verify --all --format json`; any change to a verdict
# or a detail string changes it
CANONICAL_REPORT_MD5 = "fd3d7da7c9e534c493da70ac76ccc649"


def test_canonical_report_md5(reports):
    blob = report_to_json([reports[n] for n in ALL_SUITES])
    assert hashlib.md5(blob.encode()).hexdigest() == CANONICAL_REPORT_MD5


def test_report_shape(reports):
    doc = reports["catalog"].to_dict()
    assert set(doc) == {"suite", "checks"}
    assert doc["suite"] == "catalog"
    for entry in doc["checks"]:
        assert set(entry) == {"id", "paper_ref", "status", "detail"}


# --- coverage manifest: every in-scope topic is touched by some check -------

MANIFEST = [
    # (suite, substring that must appear in some check ref or id)
    ("prop22", "t_2^{(j)}"),
    ("prop29", "(i) u_1^2"),
    ("prop29", "(vi)"),
    ("prop29", "x_3 = (x_1v_3+x_2v_4)"),
    ("thm210", "x_1+x_2+x_3"),
    ("catalog", "of order 1344"),
    ("catalog", "C_2 wr S_4"),
    ("sec4", "Phi^{-1} tilde Psi Phi = (1, 2, 5, 6)(4, 3, 8, 7)"),
    ("sec4", "<-> Theta"),
    ("sec4", "A_1 = z_1z_3"),
    ("sec4", "quaternion"),
    ("sec5_char0", "already purely monomial"),
    ("sec5_char0", "(-sigma_{4A})^3"),
    ("sec5_char0", "G_{7,4,1}"),
    ("sec5_char0", "u_1 = y_1 y_3"),
    ("sec5_char0", "Lambda_1"),
    ("sec5_char2", "exactly the same way as their actions on x_i's"),
    ("sec5_char2", "kappa^o rho"),
    ("sec5_char2", "(x_1x_2x_3 + x_1x_6x_7 + x_5x_2x_7 + x_5x_6x_3)x_4"),
    ("sec6_char0", "diag(1, 1, -1, -1, 1, 1, 1, 1)"),
    ("sec6_char0", "transitive subgroups of S_6"),
    ("sec6_char2", "u_8 -> u_3u_7 + u_8"),
    ("sec6_char2", "1/(v_7+1) + zeta_3"),
    ("sec6_char2", "t_i's are all fixed by rho"),
    ("sec7_char0", "w_0^3 = w_2 w_3 w_4 w_5 w_6 w_7 w_8"),
    ("sec7_char0", "transitive subgroups of S_7"),
    ("sec7_char0", "diag(1, -1, 1, 1, 1, -1, -1, -1)"),
    ("sec7_char2", "realize them as transitive subgroups of S_7"),
]


def test_coverage_manifest(reports):
    for suite_name, needle in MANIFEST:
        rep = reports[suite_name]
        assert any(
            needle in c.paper_ref for c in rep.checks
        ), f"{suite_name} has no check referencing {needle!r}"


def test_flip_subgroup_attributions_scan(executed_suites):
    # scanning every type-B group: each even flip-group is a subgroup of
    # exactly one of them, normally embedded there; this pins the corrected
    # attribution for the second order-8 flip group
    from fixedfield.perms import is_normal

    suite = executed_suites["sec5_char0"]
    type_b = [f"G{i}" for i in (13, 14, 15, 16, 19, 20, 21, 22, 24, 26,
                                28, 29, 30, 32, 39, 40)]
    found = {}
    for lname in ("Lam3", "Lam4"):
        lam = suite.groups[lname]
        hits = []
        for gname in type_b:
            g = suite.groups[gname]
            if lam.is_subgroup_of(g):
                assert is_normal(lam, g)
                hits.append(gname)
        found[lname] = hits
    assert found == {"Lam3": ["G29"], "Lam4": ["G22"]}


def test_fail_fast_stops_at_first_failure():
    from fixedfield.suite import parse_suite_text

    text = """suite mini field=Q
points 3
group A3 = (1,2,3) expect_order=3
vars x = x1 x2 x3
check invariance x1 + x2 + x3 under A3 ref="r"
check invariance x1 under A3 ref="r"
check invariance x1*x2*x3 under A3 ref="r"
"""
    rep = run_parsed_suite(parse_suite_text(text), fail_fast=True)
    assert [c.status for c in rep.checks] == [PASS, "fail"]
    full = run_parsed_suite(parse_suite_text(text))
    assert [c.status for c in full.checks] == [PASS, "fail", PASS]


def test_mod3_matrix_groups_have_matching_orders():
    # the two-by-two matrices over the field with three elements that the
    # dictionary checks use generate groups of the same orders as their
    # permutation counterparts (48 and 24)
    def close(gens):
        def mul(a, b):
            return tuple(
                tuple(sum(a[i][k] * b[k][j] for k in range(2)) % 3 for j in range(2))
                for i in range(2)
            )

        ident = ((1, 0), (0, 1))
        seen = {ident}
        frontier = [ident]
        while frontier:
            nxt = []
            for h in frontier:
                for g in gens:
                    p = mul(g, h)
                    if p not in seen:
                        seen.add(p)
                        nxt.append(p)
            frontier = nxt
        return seen

    m_theta = ((1, 1), (2, 1))
    m_phi = ((1, 0), (2, 1))
    m_psi = ((0, 2), (1, 0))
    assert len(close([m_theta, m_phi])) == catalog_lookup("G23").expected_order == 48
    assert len(close([m_phi, m_psi])) == catalog_lookup("G12").expected_order == 24


# --- catalog lookups ---------------------------------------------------------

def test_catalog_lookup_examples():
    assert catalog_lookup("G48").expected_order == 1344
    assert catalog_lookup("G43").expected_order == 336
    assert catalog_lookup("G17").generators == ("(1,2,3,4)", "kappa")
    with pytest.raises(CatalogError):
        catalog_lookup("G99")


def test_catalog_elements_close_to_their_orders():
    for name, order in ELEMENT_ORDERS.items():
        entry = catalog_lookup(name)
        assert entry.kind == "element"
        assert catalog_group(name).order == order


def test_catalog_groups_close_to_their_orders():
    factorial8 = 40320
    for i in range(1, 49):
        entry = catalog_lookup(f"G{i}")
        group = catalog_group(f"G{i}")
        assert group.order == entry.expected_order
        assert factorial8 % group.order == 0


def test_failing_rows_are_not_registered():
    from fixedfield.suite import parse_suite_text

    text = """suite mini field=Q
points 2
vars x = x1 x2
vars t = t1 t2
def t.t1 = x1 + x2
def t.t2 = x1*x2
vars s = s1
def s.s1 = t1 + t2
check table t elem=(1,2) images = t2, t1 ref="wrong on purpose"
check table s elem=(1,2) via=parent images = s1 ref="needs the row above"
"""
    rep = run_parsed_suite(parse_suite_text(text))
    assert rep.checks[0].status == "fail"
    assert rep.checks[1].status == "fail"
    assert "no action row registered" in rep.checks[1].detail


# --- parser round trip over every expression in every suite file -------------

def _suite_expressions(suite):
    out = []
    for table in suite.tables.values():
        if table.defs is not None:
            fld = table.field
            for d in table.defs:
                out.append((format_ratfunc(d), table.parent.vt, fld, d))
    return out


def test_parser_round_trip_on_all_suite_definitions():
    seen = 0
    for name in ALL_SUITES:
        suite = load_suite(name)
        for text, vt, fld, original in _suite_expressions(suite):
            again = parse_expr(text, vt, fld)
            assert ratfunc_eq(again, original), f"{name}: {text}"
            seen += 1
    assert seen > 100


def _check_expressions(suite):
    """(text, field) pairs for every expression embedded in a check."""
    from fixedfield.scalars import F4, QZ3

    out = []
    for check in suite.checks:
        kind, payload, attrs = check["kind"], check["payload"], check["attrs"]
        texts = []
        if kind == "invariance":
            texts.append(payload.rsplit(" under ", 1)[0])
        elif kind == "identity":
            texts.append(payload.rsplit("==", 1)[0])
        elif kind == "distinct":
            texts.extend(t for t in payload.split(",") if t.strip())
        elif kind == "table":
            texts.extend(
                t for t in payload.split("images", 1)[1].lstrip(" =").split(",")
            )
            fld = suite.table(payload.split()[0]).field
            if any("zeta3" in t for t in texts) and not fld.has_zeta3:
                fld = F4 if fld.char == 2 else QZ3
            out.extend((t, fld) for t in texts)
            continue
        fld = suite.field
        if any("zeta3" in t for t in texts):
            fld = F4 if fld.char == 2 else QZ3
        out.extend((t, fld) for t in texts)
    return out


def test_parser_round_trip_on_all_check_expressions():
    seen = 0
    for name in ALL_SUITES:
        suite = load_suite(name)
        ns = suite._namespace()
        for text, fld in _check_expressions(suite):
            parsed = parse_expr(text, ns, fld)
            again = parse_expr(format_ratfunc(parsed), ns, fld)
            assert ratfunc_eq(parsed, again), f"{name}: {text}"
            seen += 1
    assert seen > 300


# --- composed rows stay consistent with the registered tables ----------------

def _composed_row(suite, table, row_g, row_h):
    # (g*h)(def_i) = row_h,i evaluated at the images of g
    sub_g = Substitution(table.vt, row_g)
    return [sub_g(img) for img in row_h]


def test_table_rows_compose(executed_suites):
    checked = 0
    for name, suite in executed_suites.items():
        rows = {}
        for (tname, sym), (images, conj) in suite._actions.items():
            if conj or sym == "rho" or "*" in sym:
                continue
            rows.setdefault(tname, []).append((sym, images))
        for tname, entries in rows.items():
            table = suite.table(tname)
            if table.parent is None:
                continue
            for sym_g, row_g in entries[:3]:
                for sym_h, row_h in entries[:3]:
                    # use the parent level when its action rows exist for
                    # both factors (the deep chains), else fall back to a
                    # root-level comparison
                    if table.parent.is_root or all(
                        (table.parent.name, s) in suite._actions
                        for s in (sym_g, sym_h)
                    ):
                        via = "parent"
                    else:
                        via = "ground"
                    composed = _composed_row(suite, table, row_g, row_h)
                    ok, detail = verify_table_row(
                        suite, table, f"{sym_g}*{sym_h}", composed, via
                    )
                    assert ok, f"{name}/{tname}: {sym_g}*{sym_h} {detail}"
                    checked += 1
    assert checked > 20


def test_induced_permutations_compose(executed_suites):
    suite = executed_suites["sec6_char0"]
    table = suite.table("zs")
    gens = [suite.perms[n] for n in ("kappa", "phi1", "psi2", "kappa_prime")]
    for g in gens:
        for h in gens:
            assert suite.induced_perm(table, g * h) == suite.induced_perm(
                table, g
            ) * suite.induced_perm(table, h)


def test_monomial_cocycle_on_section5_tables(executed_suites):
    # A(g*h) = A(g) A(h) and c(g*h)_j = c(h)_j * prod_i c(g)_i^{A(h)_ij}
    from fixedfield.monomial import mat_mul

    suite = executed_suites["sec5_char0"]
    cases = [("Za", "G26"), ("Zb", "G32"), ("Vc", "G19"), ("Wa", "G40")]
    for tname, gname in cases:
        table = suite.table(tname)
        field = table.field
        gens = suite.group(gname).generators
        for g in gens:
            for h in gens:
                bg, dg = suite.scaled_action(table, g)
                bh, dh = suite.scaled_action(table, h)
                bgh, dgh = suite.scaled_action(table, g * h)
                assert bgh == mat_mul(bg, bh)
                n = len(table.vt)
                for j in range(n):
                    twisted = dh[j]
                    for i in range(n):
                        if bh[i][j]:
                            twisted = field.mul(twisted, field.pow(dg[i], bh[i][j]))
                    assert dgh[j] == twisted


def test_extraction_reads_off_signed_monomial_rows(executed_suites):
    # the quotient generators extract as A with columns (e2, -e1, -e3):
    # with coefficients 1 for the pure row, -1 throughout for the signed one
    from fixedfield.monomial import mat_from_rows

    suite = executed_suites["sec5_char0"]
    za_quot = suite.table("Za")
    want = mat_from_rows([[0, -1, 0], [1, 0, 0], [0, 0, -1]])

    bmat, dvec = suite.scaled_action(za_quot, suite.perms["Psi"])
    assert bmat == want
    assert dvec == (1, 1, 1)

    bmat, dvec = suite.scaled_action(za_quot, suite.perms["Theta"])
    assert bmat == want
    assert dvec == (-1, -1, -1)

    from fixedfield.perms import Perm

    ident = Perm.identity(8)
    bmat, dvec = suite.scaled_action(za_quot, ident)
    assert bmat == mat_from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert dvec == (1, 1, 1)


def test_extracted_generator_matrices_are_unimodular(executed_suites):
    from fixedfield.monomial import det_fraction_free

    suite = executed_suites["sec5_char0"]
    for tname, gname in [("za", "G14"), ("zb", "G13"), ("Za", "G26"),
                         ("Zb", "G39"), ("Zc", "G29"), ("Zd", "G22"),
                         ("Wa", "G40"), ("Va", "G15"), ("Vc", "G19")]:
        table = suite.table(tname)
        for g in suite.group(gname).generators:
            bmat, _ = suite.scaled_action(table, g)
            assert det_fraction_free(bmat) in (1, -1)


def test_degree_oracle_smith_normal_form(executed_suites):
    # |det| of every monomial generator set's exponent matrix equals the
    # product of its Smith normal form diagonal (independent oracle)
    from fixedfield.monomial import det_fraction_free, exponent_matrix, is_square, monomial_shape

    from test_monomial import smith_diagonal

    checked = 0
    for name, suite in executed_suites.items():
        for table in suite.tables.values():
            if table.defs is None:
                continue
            shapes = [monomial_shape(d) for d in table.defs]
            if any(s is None for s in shapes):
                continue
            if any(c != table.field.one() for c, _ in shapes):
                continue
            m = exponent_matrix(table.defs)
            if not is_square(m):
                continue
            diag = smith_diagonal(m)
            prod = 1
            for x in diag:
                prod *= x
            d = abs(det_fraction_free(m))
            if len(diag) < len(m):
                assert d == 0
            else:
                assert prod == d
            checked += 1
    assert checked >= 10


# --- kernels: the generator-homomorphism shortcut against per-element work --


def _kernel_check_args(suite, check):
    tname, rest = [s.strip() for s in check["payload"].split(" under ")]
    return suite.table(tname), suite.group(rest.split("=")[0].strip())


def test_kernels_match_element_by_element_oracle(executed_suites):
    counts = Counter()
    carried = 0
    for name, suite in executed_suites.items():
        for check in suite.checks:
            kind = check["kind"]
            if kind not in ("matrix-kernel", "action-kernel", "faithful"):
                continue
            table, group = _kernel_check_args(suite, check)
            if kind == "matrix-kernel":
                ident = mat_identity(len(table.vt))
                oracle = {
                    g for g in group.elements
                    if suite.scaled_action(table, g)[0] == ident
                }
                shortcut = suite.matrix_kernel(table, group)
            else:
                defs = table.grounded()
                oracle = {
                    g for g in group.elements
                    if all(ratfunc_eq(perm_act(g, d), d) for d in defs)
                }
                shortcut = action_kernel(defs, group)
                images = scaled_permutation_images(defs, group)
                if images is not None:
                    carried += 1
                    for g in group.sorted_elements()[:12]:
                        p, scalars = induced_scaled_permutation(defs, g)
                        want = (tuple(j - 1 for j in p.images), tuple(scalars))
                        assert images[g] == want, (name, check["id"], g)
            assert shortcut == oracle, (name, check["id"])
            counts[kind] += 1
    assert counts == {"matrix-kernel": 11, "action-kernel": 13, "faithful": 17}
    # all but the two (u_2, u_4) checks of sec5_char0, whose generators do
    # not act by scaled permutations, take the carried path
    assert carried == 28


def test_mutated_kernel_claims_fail():
    mutations = {
        "sec5_char0": [
            'check matrix-kernel Za under G26 = G26 id=mut-matrix ref="r"',
            'check matrix-kernel Za under G26 = Lam2 id=mut-matrix-other ref="r"',
        ],
        "sec6_char0": [
            'check action-kernel zs under G33 = G33 id=mut-action ref="r"',
            'check faithful zs under G33 id=mut-faithful ref="r"',
        ],
    }
    for name, lines in mutations.items():
        path = resources.files("fixedfield").joinpath("data", f"{name}.suite")
        suite = parse_suite_text(path.read_text(encoding="utf-8") + "\n".join(lines) + "\n")
        suite.checks = [c for c in suite.checks if c["id"].startswith("mut-")]
        rep = run_parsed_suite(suite)
        assert len(rep.checks) == len(lines)
        for c in rep.checks:
            assert c.status == FAIL, (c.id, c.detail)
            assert not c.detail.startswith("error:"), (c.id, c.detail)


def _perfbench_workloads():
    """perfbench/workloads.py, imported by path (it is not a package)."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [1, 2])
def test_algebra_workload_verdicts_match_construction(seed):
    # the benchmark's algebra suites carry verdicts known from how they were
    # built, true checks and their mutated twins alike
    workload = _perfbench_workloads().algebra(seed)
    for name, text in workload.suites:
        report = run_parsed_suite(parse_suite_text(text))
        expected = workload.expected[name]
        got = {c.id: c for c in report.checks}
        assert got.keys() == expected.keys(), name
        for cid, status in expected.items():
            assert got[cid].status == status, (name, cid, got[cid].detail)
            assert not got[cid].detail.startswith("error:"), (name, cid, got[cid].detail)

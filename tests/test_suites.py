import ast
import hashlib
import json
import re
import subprocess
import sys
from collections import Counter
from importlib import resources
from pathlib import Path

import pytest

import fixedfield
from fixedfield.actions import perm_act
from fixedfield.monomial import mat_identity
from fixedfield.parser import _tokenize, expression_names, parse_expr
from fixedfield.perms import POINTS_CAP, Perm, PermGroup
from fixedfield.poly import Poly, RatFunc, VarTable, ratfunc_eq, substitute
from fixedfield.scalars import QQ, field_by_tag, join, with_zeta3
from fixedfield.suite import (
    FAIL,
    FLAGGED,
    KINDS,
    PASS,
    Suite,
    SuiteError,
    _image_group,
    list_suites,
    load_suite,
    parse_suite_text,
    report_to_json,
    run_parsed_suite,
)

ALL_SUITES = list_suites()


@pytest.fixture(scope="module")
def reports():
    return {name: run_parsed_suite(load_suite(name)) for name in ALL_SUITES}


@pytest.fixture(scope="module")
def executed_suites():
    out = {}
    for name in ALL_SUITES:
        suite = load_suite(name)
        run_parsed_suite(suite)  # fills the suite's memos
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
    with pytest.raises(SuiteError, match="^unknown suite 'nope'$"):
        load_suite("nope")


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
    with pytest.raises(SuiteError, match="^line 6: duplicate check id 'a'$"):
        _mini('check transitive A3 id=a ref="r"\ncheck transitive A3 id=a ref="r"')
    # an explicit id may not repeat a generated one either
    with pytest.raises(SuiteError, match="^line 6: duplicate check id 'transitive-001'$"):
        _mini('check transitive A3 ref="r"\ncheck transitive A3 id=transitive-001 ref="r"')


def test_degree_of_a_root_table_is_an_error_verdict():
    # a root table has no definitions, so it has no exponent matrix
    [check] = run_parsed_suite(_mini('check degree x = 1 ref="r"')).checks
    assert check.status == FAIL
    assert check.detail == "error: table 'x' has no definitions to take degrees of"


def test_degree_of_a_non_square_exponent_matrix_is_an_error_verdict():
    # two definitions over three variables: independent rows, no determinant
    text = 'vars t = t1 t2\ndef t.t1 = x1\ndef t.t2 = x2*x3\ncheck degree t = 1 ref="r"'
    [check] = run_parsed_suite(_mini(text)).checks
    assert check.status == FAIL
    assert check.detail == "error: determinant of a non-square matrix"


def test_degree_reads_the_determinant_of_the_factored_lattice():
    # the rows of (x1*x2, x2*x3, x1*x3) have determinant 2
    matrix = pytest.importorskip("sympy").Matrix

    text = ('vars t = t1 t2 t3\ndef t.t1 = x1*x2\ndef t.t2 = x2*x3\ndef t.t3 = x1*x3\n'
            'check degree t = 2 ref="r"\ncheck degree t = 4 ref="r"')
    suite = _mini(text)
    checks = run_parsed_suite(suite).checks
    assert [(c.status, c.detail) for c in checks] == [
        (PASS, "|det| = 2, expected 2"), (FAIL, "|det| = 2, expected 4")]
    lattice = suite.table("t").lattice()
    assert lattice.det == abs(matrix(lattice.rows).det()) == 2


@pytest.mark.parametrize(
    "check, message",
    [
        ('check table x elem=(1,2,3) images = x2, x3, x1) ref="r"',
         "check table has an unbalanced ')' at position 2 of 'x1)'"),
        ('check identity (x1 - x2 == 0 ref="r"',
         "check identity has an unbalanced '(' at position 0 of '(x1 - x2'"),
        ('check invariance x1*(x2 + x3)) under A3 ref="r"',
         "check invariance has an unbalanced ')' at position 12 of 'x1*(x2 + x3))'"),
        ('check distinct x1, )x2( ref="r"',
         "check distinct has an unbalanced ')' at position 0 of ')x2('"),
    ],
    ids=["table", "identity", "invariance", "distinct"],
)
def test_unbalanced_parentheses_are_a_load_error(check, message):
    with pytest.raises(SuiteError, match=f"^line 5: {re.escape(message)}$"):
        _mini(check)


def test_parses_of_a_suite_share_one_memo_of_groups():
    # definitions and grounded expressions over x in Q share one memo;
    # zeta3 widens the field, and the widened parse has a memo of its own
    text = 'vars t = t1 t2\ndef t.t1 = (x1 + x2)*x3\ndef t.t2 = (x1 + x2)^2'
    suite = _mini(text)
    x, fld = suite.table("x"), suite.field
    memo = suite._groups[x.vt, fld]
    assert memo.keys() == {"(x1 + x2)"}
    parsed = suite.ground_expr("x3*(x1 + x2) - (x1 - x2)", x)
    assert memo.keys() == {"(x1 + x2)", "(x1 - x2)"}
    assert ratfunc_eq(parsed, parse_expr("x3*(x1 + x2) - (x1 - x2)", x.vt, fld))
    parsed = suite.ground_expr("zeta3*(x1 + x2)", x)
    assert parsed.field is with_zeta3(fld)
    assert suite._groups[x.vt, parsed.field].keys() == {"(x1 + x2)"}
    assert suite._groups.keys() == {(x.vt, fld), (x.vt, parsed.field)}


def test_every_memo_of_groups_is_kept_for_a_declared_table(executed_suites):
    # a text that names several tables is parsed over a VarTable of its
    # own, which no later parse can look up, so it gets a memo of its own
    # and the suite keeps none for it
    kept = 0
    for name, suite in executed_suites.items():
        declared = {t.vt for t in suite.tables.values()}
        assert {vt for vt, _ in suite._groups} <= declared, name
        kept += len(suite._groups)
    assert kept


def test_one_load_and_run_parses_each_text_once_per_own_table(monkeypatch, perfbench_workloads):
    # one load-and-run of the 11 shipped suites, and of seed 3 of the
    # benchmark's algebra suites, counted as parse_expr calls: 785 and 192
    # when a text was parsed again at every stop it was grounded at, 605
    # and 136 once a text that names one table is parsed at that table only
    import fixedfield.suite as suite_mod

    calls = []

    def counting_parse(*args):
        calls.append(args[0])
        return parse_expr(*args)

    monkeypatch.setattr(suite_mod, "parse_expr", counting_parse)
    for name in ALL_SUITES:
        assert run_parsed_suite(load_suite(name)).ok(), name
    assert len(calls) <= 605, len(calls)
    calls.clear()
    for _, text in perfbench_workloads.algebra(3).suites:
        run_parsed_suite(parse_suite_text(text))
    assert len(calls) <= 136, len(calls)


def test_a_suite_scans_each_text_for_names_once(monkeypatch):
    # the loader and ground_expr read a text's names from Suite.names, so
    # each text is scanned once, at load, and a run scans none
    import fixedfield.suite as suite_mod

    scanned = Counter()

    def names(text):
        scanned[text] += 1
        return expression_names(text)

    monkeypatch.setattr(suite_mod, "expression_names", names)
    texts = 0
    for name in ALL_SUITES:
        scanned.clear()
        suite = load_suite(name)
        assert set(scanned.values()) <= {1}, name
        texts += len(scanned)
        run_parsed_suite(suite)
        assert sum(scanned.values()) == len(scanned), name
    assert texts > 600


def test_matgroup_naming_an_undeclared_matrix_is_a_load_error():
    # A3 acts on m by cyclic permutation matrices: C generates their group
    text = """vars m = m1 m2 m3
def m.m1 = x1
def m.m2 = x2
def m.m3 = x3
matrix C = 0,0,1 / 1,0,0 / 0,1,0
check matgroup m under A3 == C ref="r"
"""
    checks = run_parsed_suite(_mini(text)).checks
    assert [c.status for c in checks] == [PASS]
    with pytest.raises(SuiteError, match="^line 11: unknown matrix symbol 'foo'$"):
        _mini(text + 'check matgroup m under A3 == C foo ref="r"')


def test_matgroup_with_a_matrix_of_infinite_order_is_an_error_verdict():
    # T has |det| 2 and R is unipotent: each has infinite order, so the orbit
    # the matrices are closed on outgrows the 255 points a permutation moves,
    # long before the group would reach MATRIX_GROUP_CAP
    text = """vars m = m1 m2 m3
def m.m1 = x1
def m.m2 = x2
def m.m3 = x3
matrix C = 0,0,1 / 1,0,0 / 0,1,0
matrix T = 2,0,0 / 0,1,0 / 0,0,1
matrix R = 1,1,0 / 0,1,0 / 0,0,1
check matgroup m under A3 == T ref="r"
check matgroup m under A3 == C R ref="r"
"""
    checks = run_parsed_suite(_mini(text)).checks
    assert [(c.status, c.detail) for c in checks] == [
        (FAIL, "error: orbit exceeded the 255-point orbit cap")] * 2


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
        ('check word x elem=(ID) word=a^b ref="r"', "with an integer k >= 1, got 'a^b'"),
        ('check word x elem=(ID) word=I*S^-1 ref="r"', "with an integer k >= 1, got 'S^-1'"),
        ('check word x elem=(ID) word=S^0 ref="r"', "with an integer k >= 1, got 'S^0'"),
        ('check monomial x under A3 pure=maybe ref="r"', "pure= accepts only 'yes' or 'no'"),
        ('check induced-order x under A3 = 3 transitive=perhaps ref="r"',
         "transitive= accepts only 'yes' or 'no'"),
        ('check table x elem=(1,2,3) via=sideways images = x2, x3, x1 ref="r"',
         "via= accepts only 'ground' or 'parent'"),
        ('check invariance x1 + q9 under A3 ref="r"',
         "check invariance uses unknown variable 'q9'"),
        ('check identity x1 - x1 == 0 over=w ref="r"', "unknown table 'w'"),
        ('check distinct x1, x2*q9 ref="r"', "check distinct uses unknown variable 'q9'"),
        ('check table x elem=(1,2) images = x2, q9, x3 ref="r"',
         "check table uses unknown variable 'q9'"),
        ('vars y = y1 y2 y3\ncheck table x elem=(1,2) images = x2, y1, x3 ref="r"',
         "check table image uses 'y1', not a variable of table 'x'"),
        ('check table x elem=(1,2) images = x2, 1, x3 ref="r"',
         "check table image '1' names no variable of table 'x'"),
        ('check table w elem=(1,2) images = x2, x1, x3 ref="r"', "unknown table 'w'"),
        ('check invariance 1 under A3 ref="r"', "check invariance comes before any vars table"),
        ('check identity 1 - 1 == 0 ref="r"', "check identity comes before any vars table"),
        ('check distinct 1, 2 ref="r"', "check distinct comes before any vars table"),
        ('check order B3 = 3 ref="r"', "unknown group 'B3' in suite mini"),
        ('check normal A3 in B3 ref="r"', "unknown group 'B3' in suite mini"),
        ('check member (1,2,3) in B3 ref="r"', "unknown group 'B3' in suite mini"),
        ('check wreath B3 = C3 wr C1 blocks = 1,2,3 ref="r"',
         "unknown group 'B3' in suite mini"),
        ('check invariance x1 + x2 + x3 under B3 ref="r"', "unknown group 'B3' in suite mini"),
        ('check matrix-kernel x under A3 = B3 ref="r"', "unknown group 'B3' in suite mini"),
        ('check table x elem=(1,2) images = x2, x1 ref="r"', "row covers 2 of 3 variables of x"),
        ('check table x elem=nope images = x2, x1, x3 ref="r"', "unknown permutation 'nope'"),
        ('check permeq nope == (1,2) ref="r"', "unknown permutation 'nope'"),
        ('check permneq (1,2) != nope ref="r"', "unknown permutation 'nope'"),
        ('check member nope in A3 ref="r"', "unknown permutation 'nope'"),
        ('check notmember nope in A3 ref="r"', "unknown permutation 'nope'"),
        ('check same-action x elem=nope ref="r"', "unknown permutation 'nope'"),
        ('check induced x = (1,2) elem=nope ref="r"', "unknown permutation 'nope'"),
        ('check word x elem=nope word=a ref="r"', "unknown permutation 'nope'"),
        ('check gl23 elem=nope matrix=1,0;0,1 ref="r"', "unknown permutation 'nope'"),
        ('check permeq (1,4) == (1,2) ref="r"', "point 4 out of range 1..3"),
        ('vars y = y1 y2 y3\ncheck induced y = (1,9) elem=(1,2) ref="r"',
         "point 9 out of range 1..3"),
        ('check degree w = 3 ref="r"', "unknown table 'w' in suite mini"),
        ('check faithful w under A3 ref="r"', "unknown table 'w' in suite mini"),
        ('check monomial w under A3 ref="r"', "unknown table 'w' in suite mini"),
        ('check stable w under A3 ref="r"', "unknown table 'w' in suite mini"),
        ('check same-action w elem=(1,2) ref="r"', "unknown table 'w' in suite mini"),
        ('check induced-order w under A3 = 3 ref="r"', "unknown table 'w' in suite mini"),
        ('check word x elem=(1,2) word=nsA ref="r"', "unknown matrix symbol 'nsA'"),
        ('matrix C = 0,0,1 / 1,0,0 / 0,1,0\ncheck matgroup x under A3 == C foo ref="r"',
         "unknown matrix symbol 'foo'"),
        ('matrix D2 = 1,0 / 0,-1\ncheck matgroup x under A3 == D2 ref="r"',
         "check matgroup matrix 'D2' is 2x2, but table 'x' has 3 variables"),
        ('matrix NS = 0,0,1 / 1,0,0\ncheck matgroup x under A3 == NS ref="r"',
         "check matgroup matrix 'NS' is 2x3, but table 'x' has 3 variables"),
        ('matrix D2 = 1,0 / 0,-1\ncheck word x elem=(1,2) word=D2 ref="r"',
         "check word matrix 'D2' is 2x2, but table 'x' has 3 variables"),
        ('check wreath A3 = Q8 wr C2 blocks = 1,2,3 ref="r"', "unknown named group 'Q8'"),
        ('check gl23 elem=(1,2) matrix=1,0;0,1 ref="r"', "check gl23 needs an earlier gl23map"),
        ('check order A3 = 3 elem=nope matrix=junk ref="r"',
         "check order does not read elem=, matrix="),
        ('check invariance x1 + x2 + x3 under A3 over=w ref="r"',
         "check invariance does not read over="),
        ('check table x elem=(1,2,3) pure=yes images = x2, x3, x1 ref="r"',
         "check table does not read pure="),
        ('check faithful x under A3 transitive=yes ref="r"',
         "check faithful does not read transitive="),
        ('check same-action x elem=(1,2) via=parent ref="r"',
         "check same-action does not read via="),
        # w on the suite's points induces a permutation of y's variables,
        # of another degree, which the run could only compare as unequal
        ('vars y = y1 y2\ncheck same-action y elem=(1,2) ref="r"',
         "check same-action needs a table on the suite's 3 points, but 'y' has 2 variables"),
        ('check identity x1 - x1 == 0 word=a ref="r"', "check identity does not read word="),
        # a check that cannot fail, an item dropped without a word, and an
        # attribute whose last value would win
        ('check distinct x1 ref="r"', "check distinct needs two or more expressions in 'x1'"),
        ('check distinct , ref="r"', "check distinct has an empty expression in ','"),
        ('check table x elem=(1,2,3) images = x2,, x3, x1 ref="r"',
         "check table has an empty expression in 'x2,, x3, x1'"),
        ('check table x elem=(1,2,3) images = x2, x3, x1, ref="r"',
         "check table has an empty expression in 'x2, x3, x1,'"),
        ('check order A3 = 3 id=a id=b ref="r"', "check gives id= twice"),
        ('check monomial x under A3 pure=yes pure=no ref="r"', "check gives pure= twice"),
        ('check order A3 = 3 ref="r" ref="s"', "check gives ref= twice"),
        # the file ends inside a continuation: the line is the last one read
        ('check order A3 = three ref="r" \\', "needs an integer"),
    ],
    ids=["degree-without-eq", "table-without-elem", "matrix-kernel-without-target",
         "faithful-without-under", "order-not-an-integer", "identity-nonzero-rhs",
         "identity-without-rhs", "gl23-non-integer-entry", "gl23-not-2x2",
         "wreath-non-integer-block", "word-non-integer-exponent",
         "word-negative-exponent", "word-zero-exponent", "pure-not-yes-or-no",
         "transitive-not-yes-or-no", "via-not-ground-or-parent",
         "invariance-unknown-variable", "identity-over-unknown-table",
         "distinct-unknown-variable", "table-unknown-image", "table-image-of-another-table",
         "table-constant-image",
         "table-unknown-table",
         "invariance-before-vars",
         "identity-before-vars",
         "distinct-before-vars", "order-unknown-group", "normal-unknown-group",
         "member-unknown-group", "wreath-unknown-group", "invariance-unknown-group",
         "kernel-unknown-group", "table-short-row", "table-unknown-elem",
         "permeq-unknown-word", "permneq-unknown-word", "member-unknown-word",
         "notmember-unknown-word", "same-action-unknown-word", "induced-unknown-word",
         "word-unknown-word", "gl23-unknown-word", "permeq-point-out-of-range",
         "induced-point-out-of-range", "degree-unknown-table", "faithful-unknown-table",
         "monomial-unknown-table", "stable-unknown-table", "same-action-unknown-table",
         "induced-order-unknown-table", "word-unknown-matrix", "matgroup-unknown-matrix",
         "matgroup-2x2-matrix", "matgroup-2x3-matrix", "word-2x2-matrix",
         "wreath-unknown-factor", "gl23-without-gl23map", "order-unread-attributes",
         "invariance-unread-over", "table-unread-pure", "faithful-unread-transitive",
         "same-action-unread-via", "same-action-other-degree", "identity-unread-word",
         "distinct-one-expression", "distinct-empty-expression", "table-empty-image", "table-trailing-comma",
         "repeated-id", "repeated-pure", "repeated-ref", "order-continued-past-the-end"],
)
def test_loader_rejects_malformed_checks(check, message):
    # rejected at load time with the line number, not left to crash the
    # runner with a raw ValueError, KeyError or StopIteration; the check is
    # the last of the lines a case adds
    text = MINI.format(checks=check)
    if "before any vars" in message:  # the check with no table to ground over
        text = text.replace("vars x = x1 x2 x3\n", "\n")
    line = 5 + check.count("\n")
    with pytest.raises(SuiteError, match=rf"^line {line}: .*" + re.escape(message)):
        parse_suite_text(text)


@pytest.mark.parametrize(
    "lines, message",
    [
        # an expression reads zeta3 as the constant, so 'check invariance
        # zeta3 under A3' would pass whatever the variable's orbit
        ("vars y = zeta3 y2", "line 5: variable name 'zeta3' is reserved for the cube "
         "root of unity"),
        # no expression could name them
        ("vars y = 1y y-2 y*3", "line 5: variable name '1y' is not a name"),
        # a table row reads elem=rho as conjugation, not as the perm
        ("perm rho = (1,2)", "line 5: perm name 'rho' is reserved for conjugation"),
        ("matrix A = 1,0 / 0,1\nmatrix A = 0,1 / 1,0", "line 6: duplicate matrix 'A'"),
    ],
    ids=["vars-zeta3", "vars-not-a-name", "perm-rho", "duplicate-matrix"],
)
def test_loader_rejects_reserved_and_repeated_names(lines, message):
    with pytest.raises(SuiteError, match="^" + re.escape(message) + "$"):
        _mini(lines)


@pytest.mark.parametrize(
    "line, message",
    [
        ("perm p (1,2)", "perm needs '<name> = <word>'"),
        ("perm p =", "perm needs '<name> = <word>'"),
        ("perm p q = (1,2)", "perm needs '<name> = <word>'"),
        ("matrix M 1,0/0,1", "matrix needs '<name> = <rows>'"),
        ("matrix M = 1,x / 0,1", "matrix entry is not an integer in '1,x '"),
        ("group G (1,2)", "group needs '<name> = <words> expect_order=<int>'"),
        ("def x.x1", "def needs '<table>.<var> = <expression>'"),
        ("def xa = x1", "def needs '<table>.<var> = <expression>'"),
        ("gl23map = 1,0", "gl23map needs items 'a,b:i' of integers, got '1,0'"),
        ("gl23map = 1,0:x", "gl23map needs items 'a,b:i' of integers, got '1,0:x'"),
        ("gl23map foo = 1,0:1", "gl23map takes no name, got 'foo'"),
    ],
    ids=["perm-without-eq", "perm-without-word", "perm-two-names", "matrix-without-eq",
         "matrix-non-integer-entry", "group-without-eq", "def-without-eq",
         "def-without-dot", "gl23map-item-without-label", "gl23map-non-integer-label",
         "gl23map-named"],
)
def test_loader_rejects_statements_without_their_assignment(line, message):
    # each error names its statement, not Python's unpacking error, and a
    # name before gl23map's '=' is an error, not ignored
    with pytest.raises(SuiteError, match="^line 5: " + re.escape(message) + "$"):
        _mini(line)


@pytest.mark.parametrize(
    "lines, message",
    [
        ("perm p = (1,2)\nperm p = (1,3)", "line 6: duplicate perm 'p'"),
        ("vars x = y1", "line 5: duplicate table 'x'"),
        ("group A3 = (1,3,2) expect_order=3", "line 5: duplicate group 'A3'"),
        ("vars y = y1 x2", "line 5: variable 'x2' declared twice"),
        ('check frobnicate x ref="r"', "line 5: unknown check kind 'frobnicate'"),
        ("vars t = t1\ndef t.t1 = x1\ndef t.t1 = x2",
         "line 7: table 't' definitions already complete"),
        ("vars t = t1\ndef t.t2 = x1", "line 6: 't2' is not a variable of table 't'"),
        ("vars t = t1\ndef t.t1 = x1 + q9", "line 6: definition uses unknown variables ['q9']"),
        ("vars y = y1\nvars t = t1\ndef t.t1 = x1 + y1",
         "line 7: definition of t.t1 must use exactly one table"),
        ("vars t = t1\ndef t.t1 = 3", "line 6: definition of t.t1 must use exactly one table"),
        ("vars t = t1 t2\ndef t.t1 = t2", "line 6: definition of t.t1 refers to its own table"),
        ("vars y field=F4 = y1\nvars t field=F2 = t1\ndef t.t1 = y1",
         "line 7: table 't' field F2 does not contain field F4 of 'y'"),
        ("vars y = y1\nvars t = t1 t2\ndef t.t1 = x1\ndef t.t2 = y1",
         "line 8: definition of t.t2 uses table 'y', expected 'x'"),
        ("vars t = t1\ndef t.t1 = x1 - x1", "line 6: zero definition in table 't'"),
        ("matrix M = 1,2 / 3", "line 5: ragged matrix"),
    ],
    ids=["duplicate-perm", "duplicate-table", "duplicate-group", "duplicate-variable",
         "unknown-check-kind", "def-after-complete", "def-of-a-foreign-variable",
         "def-unknown-variable", "def-over-two-tables", "def-over-no-table",
         "def-over-its-own-table", "def-over-a-larger-field", "def-over-another-parent",
         "def-zero", "matrix-ragged"],
)
def test_loader_rejects_repeated_names_unknown_kinds_and_bad_definitions(lines, message):
    with pytest.raises(SuiteError, match="^" + re.escape(message) + "$"):
        _mini(lines)


def test_a_suite_file_that_declares_another_name_is_rejected(tmp_path, monkeypatch):
    # load_suite reads data/<name>.suite beside the module
    import fixedfield.suite as suite_mod

    (tmp_path / "data").mkdir()
    (tmp_path / "data" / "prop22.suite").write_text("suite other field=Q\npoints 3\n")
    monkeypatch.setattr(suite_mod, "__file__", str(tmp_path / "suite.py"))
    with pytest.raises(SuiteError, match="^suite file prop22.suite declares name 'other'$"):
        load_suite("prop22")


def test_loader_rejects_wreath_blocks_that_do_not_partition_the_points():
    # m blocks of n points for the factors' degrees n and m, partitioning
    # 1..points; a 4-point wreath product in an 8-point suite would end as
    # a plain fail, a false refutation
    cases = [
        (4, "1,2|2,1", "blocks must partition 1..4"),
        (4, "1,2|3", "blocks must be 2 lists of 2 points"),
        (4, "1,2|3,3", "blocks must partition 1..4"),
        (8, "1,2|3,4", "blocks must partition 1..8"),
    ]
    for points, blocks, message in cases:
        text = (f"suite mini field=Q\npoints {points}\ngroup V = (1,2) (3,4) expect_order=4\n"
                f'check wreath V = C2 wr C2 blocks = {blocks} ref="r"\n')
        with pytest.raises(SuiteError, match=rf"^line 4: check wreath {re.escape(message)}$"):
            parse_suite_text(text)
    text = ("suite mini field=Q\npoints 4\ngroup D = (1,2) (1,3)(2,4) expect_order=8\n"
            'check wreath D = C2 wr C2 blocks = 1,2|3,4 ref="r"\n')
    [check] = run_parsed_suite(parse_suite_text(text)).checks
    assert (check.status, check.detail) == (PASS, "C2 wr C2 order 8 vs D order 8")


def test_a_table_of_256_variables_meets_the_point_cap():
    # a permutation moves at most 255 points: a claimed permutation of the
    # 256 variables is refused at load, and one induced on them at run time
    # is an error verdict
    cap = "256 points exceed the 255-point cap of a permutation"
    names = " ".join(f"y{k}" for k in range(1, 257))
    defs = "".join(f"def y.y{k} = x1 + {k}\n" for k in range(1, 257))
    head = f"suite mini field=Q\npoints 1\ngroup E = (ID) expect_order=1\nvars x = x1\n"
    with pytest.raises(SuiteError, match=f"^line 6: {cap}$"):
        parse_suite_text(head + f"vars y = {names}\n"
                         + 'check induced y = (1,2) elem=(ID) ref="r"\n')
    suite = parse_suite_text(head + f"vars y = {names}\n" + defs
                             + 'check induced-order y under E = 1 ref="r"\n')
    [check] = run_parsed_suite(suite).checks
    assert (check.status, check.detail) == (FAIL, f"error: {cap}")


@pytest.mark.parametrize("text", ["", "\n\n", "# nothing here\n  # nor here \\\n"],
                         ids=["empty", "blank", "comments"])
def test_loader_rejects_a_file_without_a_suite_header(text):
    from fixedfield.suite import parse_suite_text

    with pytest.raises(SuiteError, match="^empty suite file$"):
        parse_suite_text(text)


@pytest.mark.parametrize(
    "lines, message",
    [
        ('vars y = y1\ncheck invariance x1 + y1 under A3 ref="r"',
         "line 6: expression mixes unrelated roots: x1 + y1"),
        ('vars y = y1\ncheck identity x1 - y1 == 0 ref="r"',
         "line 6: expression mixes unrelated roots: x1 - y1"),
        ('vars y = y1\ncheck distinct x1, x2 ref="r"\ncheck distinct x3, y1*x2 ref="r"',
         "line 7: expression mixes unrelated roots: y1*x2"),
        # the first check that names the expression gives the line
        ('vars y = y1\ncheck order A3 = 3 ref="r"\ncheck invariance x1 + y1 under A3 ref="r"\n'
         'check distinct x1 + y1, x2 ref="r"',
         "line 7: expression mixes unrelated roots: x1 + y1"),
    ],
    ids=["invariance", "identity", "distinct", "first-check"],
)
def test_loader_rejects_an_expression_over_unrelated_roots(lines, message):
    # it used to load and then end as an error verdict
    with pytest.raises(SuiteError, match="^" + re.escape(message) + "$"):
        _mini(lines)


def test_an_expression_may_name_a_table_before_its_definitions():
    # the roots are compared once the file is read: y's defs below the
    # check put it under x
    suite = _mini('vars y = y1\ncheck invariance x1 + x2 + x3 + 3*y1 under A3 ref="r"\n'
                  "def y.y1 = x1*x2*x3")
    (result,) = run_parsed_suite(suite).checks
    assert result.status == "pass", result.detail


def test_a_comment_line_ends_in_no_continuation():
    # a backslash at the end of a comment continues nothing: the next line
    # is a check of its own, here a wrong one that must show as a fail
    suite = _mini('# a note \\\ncheck order A3 = 5 ref="r"')
    [check] = run_parsed_suite(suite).checks
    assert (check.status, check.detail) == (FAIL, "order 3, expected 5")
    # inside a continuation, a comment line is dropped and the line goes on
    suite = _mini('check order A3 \\\n  # the order of A3\n = 3 ref="r"')
    assert [c.status for c in run_parsed_suite(suite).checks] == [PASS]


def test_loader_checks_pair_once_the_file_is_read():
    # a pair= may name a check further down, but must name some check
    fail = 'check order A3 = 6 expect=fail pair=fixed note="n" ref="r"'
    fixed = 'check order A3 = 3 id=fixed ref="r"'
    statuses = [c.status for c in run_parsed_suite(_mini(fail + "\n" + fixed)).checks]
    assert statuses == [FLAGGED, PASS]
    other = 'check order A3 = 3 id=other ref="r"'
    with pytest.raises(SuiteError, match="^line 5: check order pairs with unknown check "
                       "id 'fixed'$"):
        _mini(fail + "\n" + other)


def test_a_failing_check_leads_its_detail_with_its_note():
    # a note= on a check that is not expect=fail is printed ahead of the
    # detail when the check fails, and not when it passes
    suite = _mini('check order A3 = 5 note="misprint?" ref="r"\n'
                  'check order A3 = 3 note="misprint?" ref="r"')
    assert [(c.status, c.detail) for c in run_parsed_suite(suite).checks] == [
        (FAIL, "misprint?; order 3, expected 5"), (PASS, "order 3, expected 3")]


def test_loader_rejects_zeta3_in_a_definition_over_a_field_without_it():
    # the parser refuses zeta3 over F2; a variable whose name merely
    # contains zeta3 is an ordinary variable
    head = "suite mini field=F2\npoints 3\nvars x = x1 x2 zeta3x\nvars t = t1\n"
    with pytest.raises(SuiteError, match="^line 5: zeta3 is not available over F2"):
        parse_suite_text(head + "def t.t1 = zeta3*x1 + x2\n")
    suite = parse_suite_text(head + "def t.t1 = zeta3x + x2\n")
    (d,) = suite.table("t").defs
    assert d.field is suite.field and ratfunc_eq(
        d, parse_expr("zeta3x + x2", suite.table("x").vt, suite.field)
    )


def test_loader_rejects_a_table_over_a_larger_field():
    # the scalars of its action would lie outside its own field, where the
    # kernel kinds cannot multiply them and a scalar 1 reads as impure
    text = ("suite mini field=Q\npoints 3\nvars x field=Qz3 = x1 x2 x3\n"
            "vars t = t1 t2 t3\ndef t.t1 = x1 - x2\n")
    with pytest.raises(SuiteError, match="^line 5: table 't' field Q does not contain "
                       "field Qz3 of 'x'$"):
        parse_suite_text(text)


def test_zeta3_widens_only_on_the_zeta3_name_token(monkeypatch):
    # a variable whose name merely contains zeta3 leaves the field alone,
    # in the parse of a text and in its grounding
    import fixedfield.suite as suite_mod

    parsed = []

    def recording_parse(*args):
        parsed.append(parse_expr(*args))
        return parsed[-1]

    monkeypatch.setattr(suite_mod, "parse_expr", recording_parse)
    for base, wide in [("Q", "Qz3"), ("F2", "F4")]:
        suite = parse_suite_text(f"suite m field={base}\npoints 3\n"
                                 "vars x = zeta3x x2 x3\nvars t = t1\ndef t.t1 = zeta3x*x2\n")
        for text, tag in [("zeta3x - zeta3x", base), ("t1 + x3", base),
                          ("zeta3*zeta3x", wide)]:
            grounded = suite.ground_expr(text)
            assert [v.field.tag for v in (parsed[-1], grounded)] == [tag, tag]
        assert suite.ground_expr("zeta3^2 + zeta3 + 1").is_zero()
        # table images widen the same way
        text = ("suite m field={0}\npoints 3\nvars x = zeta3x x2 x3\n"
                "check table x elem=(1,2) images = x2, zeta3x, x3 ref=\"r\"\n")
        table_check = parse_suite_text(text.format(base))
        report = run_parsed_suite(table_check)
        assert [c.status for c in report.checks] == [PASS]
        rows = _rows_acted_through(table_check, report)
        assert rows.keys() == {("x", Perm((2, 1, 3)))}
        assert {im.field.tag for im in rows["x", Perm((2, 1, 3))]} == {base}


def _sec4_text():
    return resources.files("fixedfield").joinpath("data/sec4.suite").read_text()


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("-1,-1:8", "-1,-1:9", "must label the 8 nonzero vectors of F3^2 with 1..8"),
        ("-1,-1:8", "-1,-1:1", "must label the 8 nonzero vectors of F3^2 with 1..8"),
        ("0,-1:7", "0,1:7", "labels the vector (0,1) twice"),
        ("0,-1:7", "0,4:7", "labels the vector (0,1) twice"),
        ("-1,-1:8", "0,0:8", "must label the 8 nonzero vectors of F3^2 with 1..8"),
        (" -1,-1:8", "", "must label the 8 nonzero vectors of F3^2 with 1..8"),
        ("gl23map =", "gl23map", "must label the 8 nonzero vectors of F3^2 with 1..8"),
        # the labels are the points, so a ninth point would go unlabeled
        ("points 8", "points 9", "gl23map labels 8 points, but the suite has 9"),
    ],
    ids=["label-9", "label-repeated", "vector-repeated", "vector-repeated-mod-3",
         "zero-vector", "seven-vectors", "without-equals", "nine-points"],
)
def test_loader_requires_gl23map_to_be_a_bijection(old, new, message):
    # a label outside 1..8 used to die at run time with a raw IndexError,
    # and a repeated vector silently lost its first label
    text = _sec4_text()
    assert old in text
    with pytest.raises(SuiteError, match=r"^line 31: .*" + re.escape(message)):
        parse_suite_text(text.replace(old, new, 1))


def test_loader_rejects_a_second_gl23map():
    text = _sec4_text()
    (line,) = [line for line in text.splitlines() if line.startswith("gl23map")]
    with pytest.raises(SuiteError, match=r"^line 32: duplicate gl23map$"):
        parse_suite_text(text.replace(line, line + "\n" + line, 1))


@pytest.mark.parametrize("order, message", [
    ("2 (3,4)", "expect_order= must end the line, not '(3,4)'"),
    ("2 expect_order=3", "expect_order= must end the line, not 'expect_order=3'"),
    ("2x", "expect_order='2x' is not an integer"),
    ("abc", "expect_order='abc' is not an integer"),
    ("", "expect_order='' is not an integer"),
])
def test_expect_order_is_an_integer_that_ends_the_group_line(order, message):
    # text after expect_order= used to be dropped, generators included
    text = "suite mini field=Q\npoints 4\ngroup G = (1,2) expect_order={}\n"
    with pytest.raises(SuiteError, match="^line 3: group 'G': " + re.escape(message) + "$"):
        parse_suite_text(text.format(order))
    with pytest.raises(SuiteError, match="^line 3: group 'G' needs expect_order=$"):
        parse_suite_text(text.format(order).replace("expect_order=", ""))
    group = parse_suite_text(text.format("4 ").replace("(1,2)", "(1,2) (3,4)")).groups["G"]
    assert group.order == 4 and Perm((1, 2, 4, 3)) in group


@pytest.mark.parametrize("points", ["0", "-3", "65536"])
def test_loader_caps_points(points):
    # points 65536 used to load and then run without bound
    with pytest.raises(SuiteError, match=r"^line 2: points must be between 1 and 64, "
                       f"got {points}$"):
        parse_suite_text(f"suite mini field=Q\npoints {points}\n")
    suite = parse_suite_text(f"suite mini field=Q\npoints {POINTS_CAP}\n")
    assert suite.points == POINTS_CAP


@pytest.mark.parametrize("points", ["abc", "3.5", ""])
def test_loader_rejects_points_that_are_not_integers(points):
    # the message names the statement, not int()'s reading of the text
    with pytest.raises(SuiteError, match="^line 2: points needs an integer, got "
                       + re.escape(repr(points)) + "$"):
        parse_suite_text(f"suite mini field=Q\npoints {points}\n")


def test_an_expression_that_ends_early_is_a_load_error():
    # the parser names the end of the text, not its end token (None)
    with pytest.raises(SuiteError, match=r"^line 5: unexpected end of expression "
                       r"\(at position 4\)$"):
        parse_suite_text("suite mini field=Q\npoints 3\nvars x = x1 x2\nvars t = t1\n"
                         "def t.t1 = x1 +\n")


@pytest.mark.parametrize("word, message", [
    ("a*b^", "bad permutation word 'a*b^'"),
    ("a^x*a", "bad permutation word 'a^x*a'"),
    ("a**a", "empty factor in permutation word 'a**a'"),
    ("a*(1,9)", "point 9 out of range 1..3"),
])
def test_a_word_error_quotes_the_word_and_is_not_kept(word, message):
    # each atom is kept once evaluated, but a syntax error still quotes the
    # whole word, and neither the word nor the atom that raised is kept
    suite = parse_suite_text("suite mini field=Q\npoints 3\nperm a = (1,2)\n")
    for _ in range(2):
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            suite.perm_word(word)
    assert suite.perm_word("a*a") == Perm.identity(3)


def _table_chain(depth, reverse=False):
    """MINI with tables t1..t<depth>, each one variable defined over the
    one before, t0 their root, and an identity check on the deepest."""
    tables = [f"vars t{i} = a{i}" for i in range(depth + 1)]
    links = [f"def t{i}.a{i} = a{i - 1}" for i in range(1, depth + 1)]
    lines = tables + (links[::-1] if reverse else links)
    return MINI.format(checks="\n".join(lines) + f'\ncheck identity a{depth} - a0 == 0 ref="r"')


def test_loader_caps_table_depth():
    # a chain of 1,500 tables used to load and then end its run in a
    # RecursionError out of Table.defs_to
    from fixedfield.suite import TABLE_DEPTH_CAP

    [check] = run_parsed_suite(parse_suite_text(_table_chain(TABLE_DEPTH_CAP))).checks
    assert (check.status, check.detail) == (PASS, "expands to zero")
    deep = TABLE_DEPTH_CAP + 1
    past = f"table 't{deep}' lies {deep} levels below its root, past the cap of {TABLE_DEPTH_CAP}"
    # each case's line is that of t<deep>'s link, after the vars lines 5..5+deep;
    # defined root last, the chain deepens at its top, and the cap still holds
    for text, line in [(_table_chain(deep), 5 + 2 * deep), (_table_chain(1500), 5 + 1500 + deep),
                       (_table_chain(deep, reverse=True), 6 + deep)]:
        with pytest.raises(SuiteError, match="^" + re.escape(f"line {line}: {past}") + "$"):
            parse_suite_text(text)


def test_loader_rejects_points_after_a_check():
    # a check's permutation words are evaluated when it loads, at the
    # degree declared so far, so a later 'points' would come too late; a
    # gl23map labels the points too
    for first in ('check permeq (1,2) == (1,2) id=c1 ref="x"',
                  "gl23map = 1,0:1 1,-1:2 0,1:3 1,1:4 -1,0:5 -1,1:6 0,-1:7 -1,-1:8"):
        text = f"suite mini field=Q\n{first}\npoints 3\n"
        with pytest.raises(SuiteError, match=r"^line 3: 'points' must precede declarations$"):
            parse_suite_text(text)


@pytest.mark.parametrize(
    "body, message",
    [
        ("vars m = m1 m2\ndef m.m1 = x1\ncheck invariance m1 under A3 ref=\"r\"",
         "line 6: table 'm' has no definition for m2"),
        ("vars m = m1 m2 m3\ndef m.m3 = x3\ncheck order A3 = 3 ref=\"r\"\n"
         "def m.m1 = x1\ncheck stable m under A3 ref=\"r\"",
         "line 8: table 'm' has no definition for m2"),
        ("vars m = m1 m2\nvars n = n1 n2\ndef n.n1 = x1\ndef m.m2 = x2\n"
         "def n.n2 = x2",
         "line 8: table 'm' has no definition for m1"),
        ("vars a = a1\nvars b = b1\ndef a.a1 = b1\ndef b.b1 = a1\n"
         'check identity a1 - a1 == 0 ref="r"',
         "line 8: definition of b.b1 makes table 'b' an ancestor of itself"),
    ],
    ids=["one-of-two", "interleaved-with-checks", "first-incomplete-table", "cyclic-tables"],
)
def test_loader_rejects_partial_tables(body, message):
    # a table whose defs cover only some of its variables has no definitions
    # to ground through; it used to load and then crash the runner.  Tables
    # defined over each other have no root, and their run never ended
    with pytest.raises(SuiteError, match="^" + re.escape(message) + "$"):
        _mini(body)


def test_check_kinds_match_readme_and_shipped_suites(executed_suites):
    # the README documents exactly the registered kinds, and every kind is
    # exercised by some shipped suite
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Check kinds", 1)[1].split("\n#", 1)[0]
    documented = re.findall(r"^- `([a-z0-9-]+)`", section, flags=re.M)
    assert sorted(documented) == sorted(KINDS)
    shipped = {c.kind for suite in executed_suites.values() for c in suite.checks}
    assert shipped == set(KINDS)


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


@pytest.mark.parametrize("expr, error", [
    ("x1 +* x2", "unexpected token '*' (at position 4)"),
    ("x1/(x2-x2)", "division by zero (at position 2)"),
])
def test_an_expected_failure_that_raises_is_a_fail(expr, error):
    # an error is not a refutation, so it cannot be the expected failure,
    # even when the paired correction passes
    suite = _mini(f'check identity {expr} == 0 expect=fail pair=fix note="printed" ref="r"\n'
                  'check identity x1 - x1 == 0 id=fix ref="r"')
    printed, fix = run_parsed_suite(suite).checks
    assert fix.status == PASS
    assert (printed.status, printed.detail) == (
        FAIL, f"expected a refutation, got error: {error}")


def test_normal_outside_the_group_is_a_fail():
    suite = _mini('group S3 = (1,2) (1,2,3) expect_order=6\n'
                  'group C2 = (1,2) expect_order=2\n'
                  'check normal A3 in S3 ref="r"\n'
                  'check normal C2 in S3 ref="r"\n'
                  'check normal C2 in A3 ref="r"')
    assert [(c.status, c.detail) for c in run_parsed_suite(suite).checks] == [
        (PASS, "A3 normal in S3"), (FAIL, "C2 normal in S3"),
        (FAIL, "C2 is not a subgroup of A3")]


def test_distinct_and_gl23_refutations_are_fails_not_errors():
    # two expressions equal as fractions though built apart, a matrix that
    # induces another permutation, and singular matrices, whose image of a
    # nonzero vector is the unlabeled (0,0)
    text = ('suite mini field=Q\npoints 8\n'
            'gl23map = 1,0:1 1,-1:2 0,1:3 1,1:4 -1,0:5 -1,1:6 0,-1:7 -1,-1:8\n'
            'check gl23 elem=(1,5)(2,6)(3,7)(4,8) matrix=2,0;0,2 ref="r"\n'
            'check gl23 elem=(1,2) matrix=1,0;0,1 ref="r"\n'
            'check gl23 elem=(ID) matrix=0,0;0,0 ref="r"\n'
            'check gl23 elem=(ID) matrix=1,1;1,1 ref="r"\n'
            'vars x = x1 x2 x3\n'
            'check distinct x1, x2, x3, x1/x2 + 1/x2^2 ref="r"\n'
            'check distinct x1/x2 + 1/x2^2, x3, (x1*x2 + 1)/x2^2 ref="r"\n')
    assert [(c.status, c.detail) for c in run_parsed_suite(parse_suite_text(text)).checks] == [
        (PASS, "matrix induces (1,5)(2,6)(3,7)(4,8), expected (1,5)(2,6)(3,7)(4,8)"),
        (FAIL, "matrix induces (), expected (1,2)"),
        (FAIL, "image vector (0,0) is unlabeled"),
        (FAIL, "image vector (0,0) is unlabeled"),
        (PASS, "pairwise distinct"),
        (FAIL, "expressions 1 and 3 coincide"),
    ]


_ARABIC_INDIC = str.maketrans("\u0660\u0661\u0662\u0663", "0123")


@pytest.mark.parametrize("old, new, message", [
    ("points 3", "points \u0663", "line 2: points needs an integer, got '\u0663'"),
    ("expect_order=3", "expect_order=\u0663",
     "line 3: group 'A3': expect_order='\u0663' is not an integer"),
    ("\n\n", "\nmatrix M = \u0661,0,0 / 0,1,0 / 0,0,1\n",
     "line 5: matrix entry is not an integer in '\u0661,0,0 '"),
    ("\n\n", '\ncheck order A3 = \u0663 ref="r"\n',
     "line 5: check order needs an integer after '=' in 'A3 = \u0663'"),
    ("\n\n", '\ncheck permeq (\u0661,\u0662,\u0663) == (1,2,3) ref="r"\n',
     "line 5: check permeq bad permutation word '(\u0661,\u0662,\u0663)'"),
    ("\n\n", '\ncheck member (1,2,3)^\u0662 in A3 ref="r"\n',
     "line 5: check member bad permutation word '(1,2,3)^\u0662'"),
], ids=["points", "expect-order", "matrix", "order", "cycle", "power"])
def test_loader_reads_integers_in_ascii_digits(old, new, message):
    # int(), \d and str.isdecimal read the digits of every script, so each
    # of these lines used to load, and its checks to pass, as if written
    # in ASCII digits
    text = MINI.format(checks="")
    assert text.count(old) == 1
    with pytest.raises(SuiteError, match="^" + re.escape(message) + "$"):
        parse_suite_text(text.replace(old, new))
    ascii_text = text.replace(old, new.translate(_ARABIC_INDIC))
    assert run_parsed_suite(parse_suite_text(ascii_text)).ok()


def test_a_check_expression_with_non_ascii_digits_is_an_error():
    # expressions are parsed when a check runs, not at load
    (check,) = run_parsed_suite(_mini('check identity x1^\u0662 - x1*x1 == 0 ref="r"')).checks
    assert (check.status, check.detail) == (
        FAIL, "error: unexpected character '\u0662' (at position 3)")
    (check,) = run_parsed_suite(_mini('check identity x1^2 - x1*x1 == 0 ref="r"')).checks
    assert check.status == PASS


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


def test_a_rerun_of_a_parsed_suite_gives_the_same_report():
    # the via=parent row of z acts through the row of its parent y, so z's
    # row before y's is a load error, not an error verdict of every run
    head = """suite rerun field=Q
points 2
vars x = x1 x2
vars y = y1 y2
def y.y1 = x1 + x2
def y.y2 = x1 - x2
vars z = z1 z2
def z.z1 = y1 + y2
def z.z2 = y1 - y2
"""
    child = 'check table z elem=(1,2) via=parent images = z2, z1 id=child ref="r"\n'
    parent = 'check table y elem=(1,2) images = y1, -y2 id=parent ref="r"\n'
    with pytest.raises(SuiteError, match=r"^line 10: check table acts through \(1,2\) "
                       "on table 'y', but no earlier single-element row"):
        parse_suite_text(head + child + parent)
    suite = parse_suite_text(head + parent + child)
    first = report_to_json(run_parsed_suite(suite))
    parent, child = run_parsed_suite(suite).checks
    assert report_to_json(run_parsed_suite(suite)) == first
    assert (parent.status, child.status) == (PASS, PASS)
    # the row that z's row acts through, linked as the suite loaded
    assert suite.checks[1].fields[4] == ((Perm((2, 1)), suite.checks[0]),)
    shipped = load_suite("sec6_char2")
    assert report_to_json(run_parsed_suite(shipped)) == report_to_json(
        run_parsed_suite(shipped)
    )


def test_deep_nesting_is_a_load_error_or_an_error_verdict():
    # past parser.NESTING_LIMIT, instead of a raw RecursionError
    deep = "(" * 300 + "x1" + ")" * 300
    with pytest.raises(SuiteError, match=r"^line 6: nesting deeper than 100"):
        parse_suite_text(MINI.format(checks="vars t = t1\ndef t.t1 = " + deep))
    [check] = run_parsed_suite(_mini(f'check identity {deep} - x1 == 0 ref="r"')).checks
    assert check.status == FAIL
    assert check.detail.startswith("error: nesting deeper than 100")


def test_reports_are_deterministic():
    blob1 = report_to_json([run_parsed_suite(load_suite(n)) for n in ALL_SUITES])
    blob2 = report_to_json([run_parsed_suite(load_suite(n)) for n in ALL_SUITES])
    assert blob1 == blob2


# md5 of `fixedfield verify --all --format json`; any change to a verdict
# or a detail string changes it
CANONICAL_REPORT_MD5 = "fd3d7da7c9e534c493da70ac76ccc649"


def test_canonical_report_md5(reports):
    blob = report_to_json([reports[n] for n in ALL_SUITES])
    assert hashlib.md5(blob.encode()).hexdigest() == CANONICAL_REPORT_MD5


# the attributes a run may write: memos of values that depend on the
# loaded suite alone
_MEMOS = {"_words", "_scaled_cache", "_grounded", "_groups", "_defs_to", "_lattice"}


def _loaded_state(suite):
    """(object, attribute, value, a shallow copy of a container value) of
    every attribute of the suite and its tables but the memos."""
    out = []
    for obj in (suite, *suite.tables.values()):
        for name, value in vars(obj).items():
            if name not in _MEMOS:
                kept = type(value)(value) if isinstance(value, (dict, list, set)) else value
                out.append((obj, name, value, kept))
    return out


def test_runs_look_no_name_up(monkeypatch):
    # every name a check uses is resolved when its suite loads: with the
    # four lookups made to raise, the runs still give the pinned report
    from fixedfield.suite import Suite

    suites = [load_suite(n) for n in ALL_SUITES]
    loaded = [_loaded_state(s) for s in suites]

    def refuse(self, name):
        raise AssertionError(f"{name!r} looked up while a check runs")

    for lookup in ("table", "group", "perm_word", "matrix"):
        monkeypatch.setattr(Suite, lookup, refuse)
    blob = report_to_json([run_parsed_suite(s) for s in suites])
    assert hashlib.md5(blob.encode()).hexdigest() == CANONICAL_REPORT_MD5
    # nor does a run write the suite, but for its memos, so no check reads
    # a row, or anything else, that another check's run wrote
    for suite, state in zip(suites, loaded):
        assert _loaded_state(suite) == state, suite.name
        for obj, name, value, kept in state:
            assert getattr(obj, name) is value, (suite.name, name)


def test_table_rows_give_their_verdicts_run_alone_in_any_order(reports):
    # a row reads only the loaded suite and its memos: each table row of a
    # freshly loaded shipped suite, run alone and last row first, gives its
    # verdict of the full run, the 48 rows that act through a row included
    import fixedfield.suite as suite_mod

    dependents = 0
    for name in ALL_SUITES:
        suite = load_suite(name)
        full = {c.id: c for c in reports[name].checks}
        for check in reversed([c for c in suite.checks if c.kind == "table"]):
            ok, detail = suite_mod._run_check(suite, check)
            want = full[check.id]
            if check.attrs.get("expect") == "fail":
                assert ok is False and want.status == FLAGGED, check.id
                assert want.detail.endswith(f"[{detail}]"), check.id
            else:
                assert (PASS if ok else FAIL, detail) == (want.status, want.detail), check.id
            dependents += any(link is not None for _, link in check.fields[4])
    assert dependents == 48


def test_report_shape(reports):
    doc = json.loads(report_to_json(reports["catalog"]))
    assert set(doc) == {"suite", "checks"}
    assert doc["suite"] == "catalog"
    for entry in doc["checks"]:
        assert set(entry) == {"id", "paper_ref", "status", "detail"}


# stdlib modules that loading must not import: dataclasses pulls in inspect,
# and with json, fractions and decimal they cost about a fifth of a cold
# start; importlib.resources pulls in pathlib, zipfile and tempfile
_LOADING_NEVER_IMPORTS = ("dataclasses", "inspect", "json", "fractions", "decimal",
                          "importlib.resources")


def test_loading_imports_no_module_it_does_not_run(reports):
    # a fresh interpreter without site (-S), so that only fixedfield imports
    src = Path(fixedfield.__file__).resolve().parent.parent
    script = "\n".join([
        "import sys",
        f"sys.path.insert(0, {str(src)!r})",
        "before = set(sys.modules)",
        "from fixedfield import suite",
        "loaded = [suite.load_suite(name) for name in suite.list_suites()]",
        f"print(sorted((set(sys.modules) - before) & set({_LOADING_NEVER_IMPORTS!r})))",
        "sys.stdout.write(suite.report_to_json(suite.run_parsed_suite(loaded[0])))",
    ])
    out = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True,
                         text=True, check=True).stdout
    imported, blob = out.split("\n", 1)
    assert imported == "[]"
    assert blob == report_to_json(reports["catalog"])


def test_no_function_imports_a_module_of_the_package():
    # each module imports its siblings at the top, so an import cycle
    # between them fails at import instead of hiding in a function body;
    # functions may still import the standard library late, to keep it
    # off the load path
    package, late = [], set()
    for path in sorted(Path(fixedfield.__file__).resolve().parent.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.ImportFrom):
                    names = ["." * node.level + (node.module or "")]
                elif isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                else:
                    continue
                for name in names:
                    if name.startswith(".") or name.split(".")[0] == "fixedfield":
                        package.append(f"{path.name}:{node.lineno} {name}")
                    late.add((path.name, name))
    assert package == []
    # the walk reaches function bodies: fractions in scalars.py and json in
    # report_to_json are imported there
    assert {("scalars.py", "fractions"), ("suite.py", "json")} <= late


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
            if lam.elements <= g.elements:
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
    catalog = load_suite("catalog")
    assert len(close([m_theta, m_phi])) == catalog.groups["G23"].order == 48
    assert len(close([m_phi, m_psi])) == catalog.groups["G12"].order == 24


# --- catalog lookups ---------------------------------------------------------

def _groups_cli(capsys, *argv):
    from fixedfield.cli import main

    code = main(["groups", *argv])
    out, err = capsys.readouterr()
    return code, out, err


def test_catalog_examples(capsys):
    catalog = load_suite("catalog")
    assert catalog.groups["G48"].order == 1344
    assert catalog.groups["G43"].order == 336
    assert catalog.group_words["G17"] == ["(1,2,3,4)", "kappa"]
    assert "G99" not in catalog.groups and "G99" not in catalog.perms
    assert _groups_cli(capsys, "show", "G17") == (0, "G17 (group), order 32\n"
                                                  "  (1,2,3,4)\n  kappa\n", "")
    assert _groups_cli(capsys, "order", "G99") == (2, "", "error: unknown catalog name 'G99'\n")


# orders of the cyclic groups generated by the named elements of
# catalog.suite, in declaration order (lcm of cycle lengths)
ELEMENT_ORDERS = {
    "sigma1": 2, "sigma2": 2, "kappa": 2, "kappa_tilde": 2, "kappa_prime": 4,
    "kappa_circ": 2, "phi1": 3, "phi1_tilde": 3, "phi2": 2, "phi2_tilde": 2,
    "psi1": 4, "psi2": 4, "theta": 7, "theta_tilde": 7,
    "Theta": 8, "Phi": 3, "Psi": 4, "Psi_tilde": 4,
}


def test_catalog_elements_close_to_their_orders(capsys):
    catalog = load_suite("catalog")
    names = [f"G{i}" for i in range(1, 49)] + list(ELEMENT_ORDERS)
    assert [*catalog.group_words, *catalog.perm_words] == names
    assert _groups_cli(capsys, "list") == (0, "".join(f"{n}\n" for n in names), "")
    for name, order in ELEMENT_ORDERS.items():
        assert name not in catalog.groups
        assert PermGroup([catalog.perms[name]]).order == order
        code, out, _ = _groups_cli(capsys, "show", name)
        assert code == 0 and out.startswith(f"{name} (element), order {order}\n")


def test_catalog_groups_close_to_their_orders(capsys):
    factorial8 = 40320
    catalog = load_suite("catalog")
    for i in range(1, 49):
        group = catalog.groups[f"G{i}"]
        assert _groups_cli(capsys, "order", f"G{i}") == (0, f"{group.order}\n", "")
        assert factorial8 % group.order == 0


# section-suite groups that restate a catalog group under another name
CATALOG_ALIASES = {
    **{(suite, "V8"): "G3" for suite in ("prop29", "sec5_char2", "sec7_char0", "sec7_char2")},
    **{("sec4", f"G{i}dict"): f"G{i}" for i in range(6, 11)},
    ("sec4", "G11dict4"): "G11",
}


def _restated_groups(suites, catalog):
    """(suite, group, catalog group, same elements) of each group of a
    section suite that restates a catalog group, by name or by alias."""
    out = []
    for suite in suites:
        for name, group in suite.groups.items():
            of = name if name in catalog.groups else CATALOG_ALIASES.get((suite.name, name))
            if of is not None:
                out.append((suite.name, name, of,
                            group.elements == catalog.groups[of].elements))
    return out


def test_section_suites_restate_catalog_groups_exactly():
    catalog = load_suite("catalog")
    sections = [load_suite(n) for n in ALL_SUITES if n != "catalog"]
    restated = _restated_groups(sections, catalog)
    assert all(same for *_, same in restated), [r for r in restated if not r[3]]
    by_name = [(s, n) for s, n, of, _ in restated if n == of]
    assert len(by_name) == 43
    assert {(s, n): of for s, n, of, _ in restated if n != of} == CATALOG_ALIASES
    # a G14 of the same order but another element set is caught
    text = resources.files("fixedfield").joinpath("data/sec5_char0.suite").read_text()
    line = "group G14 = sigma2 phi1_tilde kappa_circ expect_order=24"
    conjugate = "group G14 = " + " ".join(
        f"(1,2)*{w}*(1,2)" for w in catalog.group_words["G14"]) + " expect_order=24"
    assert line in text
    mutant = parse_suite_text(text.replace(line, conjugate))
    assert [r for r in _restated_groups([mutant], catalog) if not r[3]] == [
        ("sec5_char0", "G14", "G14", False)]


def test_failing_rows_are_not_registered():
    # a row acting through a row that fails is a fail that names that row
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
    assert rep.checks[1].detail == "acts through row table-001, which did not pass"


_CHAIN = """suite chain field=Q
points 2
vars x = x1 x2
vars t = t1 t2
def t.t1 = x1 - x2
def t.t2 = x1*x2
vars s = s1 s2
def s.s1 = t1 + t2
def s.s2 = t2 - t1
vars r = r1 r2
def r.r1 = s1
def r.r2 = s1*s2
check table t elem=(1,2)*(1,2) images = t1, t2 id=t-square ref="r"
check table t elem=(1,2) images = t1, t2 id=t-printed ref="r" expect=fail pair=t-row note="n"
check table t elem=(1,2) images = {first} id=t-row ref="r"
check table t elem=(1,2) images = {second} id=t-twin ref="r"
check table s elem=(1,2) via=parent images = s2, s1 id=s-row ref="r"
check table r elem=(1,2) via=parent images = r2/r1, r2 id=r-row ref="r"
check table r elem=(1,2) via=parent images = r1, r2 id=printed ref="r" expect=fail \
    pair=r-row note="n"
"""


def test_a_row_acts_through_the_first_row_and_stands_on_it():
    right, wrong = "-t1, t2", "t1, t2"
    # s acts through t-row, the first row of t on (1,2) alone that is not
    # expect=fail, and r through s-row
    suite = parse_suite_text(_CHAIN.format(first=right, second=wrong))
    _, _, t_row, _, s_row, r_row, printed = suite.checks
    assert [link for _, link in s_row.fields[4]] == [t_row]
    assert [link for _, link in r_row.fields[4]] + [link for _, link in printed.fields[4]] == [
        s_row, s_row]
    assert [(c.id, c.status) for c in run_parsed_suite(suite).checks] == [
        ("t-square", PASS), ("t-printed", FLAGGED), ("t-row", PASS), ("t-twin", FAIL),
        ("s-row", PASS), ("r-row", PASS), ("printed", FLAGGED)]
    # with the first row of t wrong, a later right one does not stand in
    # for it: the failure carries down the chain, each row naming its link,
    # and the expect=fail row is a fail, not a flagged discrepancy
    report = run_parsed_suite(parse_suite_text(_CHAIN.format(first=wrong, second=right)))
    assert [(c.id, c.status, c.detail) for c in report.checks] == [
        ("t-square", PASS, "all 2 images verified via ground"),
        ("t-printed", FAIL,
         "n [row entry 1 (t1) mismatches] (paired corrected check t-row did not pass)"),
        ("t-row", FAIL, "row entry 1 (t1) mismatches"),
        ("t-twin", PASS, "all 2 images verified via ground"),
        ("s-row", FAIL, "acts through row t-row, which did not pass"),
        ("r-row", FAIL, "acts through row s-row, which did not pass"),
        ("printed", FAIL,
         "expected a refutation, got acts through row s-row, which did not pass")]


@pytest.mark.parametrize("text, message", [
    ('check table x elem=(1,2) via=parent images = x2, x1, x3 ref="r"',
     "line 5: check table via=parent on root table 'x'"),
    ('vars t = t1 t2\ndef t.t1 = x1 + x2\ndef t.t2 = x3\nvars u = u1\ndef u.u1 = t1 + t2\n'
     'check table u elem=(1,2) via=parent images = u1 ref="r"',
     "line 10: check table acts through (1,2) on table 't', but no earlier single-element "
     "row of that table gives it"),
    ('vars t = t1 t2\ncheck table t elem=(1,2) via=parent images = t1, t2 ref="r"\n'
     'def t.t1 = x1 + x2\ndef t.t2 = x3',
     "line 6: check table via=parent on root table 't'"),
    ('vars z = z1 z2 z3\ncheck table z elem=(1,2) images = z2, z1, z3 ref="r"\n'
     'def z.z1 = x1\ndef z.z2 = x2\ndef z.z3 = x3',
     "line 7: table 'z' gets a parent after a table row read it as a root"),
    ('vars z = z1 z2 z3\nvars t = t1\ndef t.t1 = z1 + z2\n'
     'check table t elem=(1,2) images = t1 ref="r"\ndef z.z1 = x1\ndef z.z2 = x2\n'
     'def z.z3 = x3',
     "line 9: table 'z' gets a parent after a table row read it as a root"),
], ids=["via-parent-on-a-root", "no-earlier-row", "parent-defined-later",
        "root-defined-later", "ancestor-defined-later"])
def test_a_row_with_nothing_to_act_through_is_a_load_error(text, message):
    # checked as the suite loads, each at its line: a run of such a row
    # could only fail or act wrongly
    with pytest.raises(SuiteError) as exc:
        parse_suite_text(MINI.format(checks=text))
    assert str(exc.value) == message


# --- parser round trip over every expression in every suite file -------------

def _suite_expressions(suite):
    out = []
    for table in suite.tables.values():
        if table.defs is not None:
            fld = table.field
            for d in table.defs:
                out.append((str(d), table.parent.vt, fld, d))
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
    out = []
    for check in suite.checks:
        kind, payload = check.kind, check.payload
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
            if any("zeta3" in t for t in texts):
                fld = with_zeta3(fld)
            out.extend((t, fld) for t in texts)
            continue
        fld = suite.field
        if any("zeta3" in t for t in texts):
            fld = with_zeta3(fld)
        out.extend((t, fld) for t in texts)
    return out


def test_parser_round_trip_on_all_check_expressions():
    seen = 0
    for name in ALL_SUITES:
        suite = load_suite(name)
        ns = _suite_variables(suite)
        for text, fld in _check_expressions(suite):
            parsed = parse_expr(text, ns, fld)
            again = parse_expr(str(parsed), ns, fld)
            assert ratfunc_eq(parsed, again), f"{name}: {text}"
            seen += 1
    assert seen > 300


# --- grounding: ground_expr against the namespace substitution it replaced ---

def _suite_variables(suite):
    """Every variable of the suite, in declaration order, as one table."""
    return VarTable([n for table in suite.tables.values() for n in table.vt.names])


def _ground_by_substitution(suite, text, stop=None):
    """An independent grounding: parse over the suite-wide namespace, then
    substitute every variable at once, each used one by its definition over
    stop (by default the expression's one root) and every other one by zero.
    The field joins stop's field, the field of every table on the chains
    from the used tables down to stop, and zeta3 when the text names it."""
    tables = {suite.var_owner[v] for v in expression_names(text) - {"zeta3"}}
    if stop is None:
        (stop,) = {t.root() for t in tables} or {next(iter(suite.tables.values())).root()}
    fld = stop.field
    for chain in tables:
        while chain is not stop:
            if chain.parent is None:
                raise SuiteError(f"table {chain.name} does not reach {stop.name}")
            fld, chain = join(fld, chain.field), chain.parent
    if "zeta3" in text:
        fld = with_zeta3(fld)
    ns = _suite_variables(suite)
    zero = RatFunc.from_poly(Poly.zero(stop.vt, fld))
    images = []
    for v in ns.names:
        owner = suite.var_owner[v]
        i = owner.vt.index[v]
        images.append(owner.defs_to(stop)[i].embed(fld) if owner in tables else zero)
    return substitute(parse_expr(text, ns, fld), images)


def _grounded_expressions(suite):
    """(text, over= table or None) of every expression that an invariance,
    identity or distinct check grounds."""
    out = []
    for check in suite.checks:
        if check.kind == "invariance":
            out.append((check.fields[0], None))
        elif check.kind == "identity":  # the over= table, resolved at load
            out.append((check.fields[0], check.fields[2]))
        elif check.kind == "distinct":
            out.extend((text, None) for text in check.fields)
    return out


def _assert_grounding_matches_oracle(suite):
    """ground_expr equals the namespace oracle, over the same variables and
    field, on every grounded expression of the suite; returns how many."""
    exprs = _grounded_expressions(suite)
    for text, stop in exprs:
        want = _ground_by_substitution(suite, text, stop)
        got = suite.ground_expr(text, stop)
        assert got.vars is want.vars and got.field is want.field, text
        assert ratfunc_eq(got, want), text
    return len(exprs)


def test_ground_expr_matches_substitution_oracle_on_shipped_suites():
    seen = over = 0
    for name in ALL_SUITES:
        suite = load_suite(name)
        seen += _assert_grounding_matches_oracle(suite)
        over += sum(stop is not None for _, stop in _grounded_expressions(suite))
    assert seen == 157 and over == 2


GROUNDING_MINIS = {
    # rational definitions two levels deep, expressions mixing all three
    # tables, a constant expression, and over= one level down
    "rational-chain": """suite mini field=Q
points 3
group A3 = (1,2,3) expect_order=3
vars x = x1 x2 x3
vars t = t1 t2 t3
def t.t1 = x1/x2
def t.t2 = x2/x3
def t.t3 = x1 + x2 + x3
vars u = u1 u2
def u.u1 = t1*t2 + 1/t3
def u.u2 = (t1 - t2)/(t3^2 + 1)
check identity t1*t2 - x1/x3 == 0 ref="r"
check identity u1 - x1/x3 - 1/t3 == 0 ref="r"
check identity u1 - t1*t2 - 1/t3 == 0 over=t ref="r"
check identity 2 - 1 - 1 == 0 ref="r"
check invariance t3^2/(x1 + x2 + x3) under A3 ref="r"
check invariance (u1 - 1/t3)*x3 - x1 + x2 + x3 - t3 under A3 expect=fail pair=r1 \
    note="x1*x3/x3 - x1 is zero, so x2 + x3 - t3 = -x1 is moved" ref="r"
check identity u2*(t3^2 + 1) - t1 + t2 == 0 id=r1 ref="r"
check distinct u1, u2, t3/x1, 2 ref="r"
""",
    # an F4 table over an F2 root whose definitions use zeta3, named by
    # expressions that do not: their field comes from the tables they name
    "f4-over-f2": """suite mini field=F2
points 3
group A3 = (1,2,3) expect_order=3
vars x = x1 x2 x3
vars f field=F4 = f1 f2 f3
def f.f1 = x1 + zeta3*x2 + zeta3^2*x3
def f.f2 = x1 + zeta3^2*x2 + zeta3*x3
def f.f3 = x1 + x2 + x3
check invariance f1*f2 under A3 ref="r"
check invariance f1^3 + f2^3 + x1 under A3 expect=fail pair=f3 note="x1 is moved" ref="r"
check identity f1 + f2 + f3 - x1 == 0 id=f3 ref="r"
check distinct f1, f2, f3, x1 ref="r"
""",
    # a Q suite whose expressions bring zeta3 in themselves
    "qz3-expression": """suite mini field=Q
points 3
group A3 = (1,2,3) expect_order=3
vars x = x1 x2 x3
vars t = t1 t2
def t.t1 = x1 + x2 + x3
def t.t2 = x1*x2*x3
check identity (x1 + zeta3*x2)*(x1 + zeta3^2*x2) - x1^2 + x1*x2 - x2^2 == 0 ref="r"
check invariance zeta3*t1 + t2 under A3 ref="r"
check distinct zeta3*t1, t1, zeta3^2*t1 ref="r"
""",
}


@pytest.mark.parametrize("name", sorted(GROUNDING_MINIS))
def test_ground_expr_matches_substitution_oracle_on_mini_suites(name):
    suite = parse_suite_text(GROUNDING_MINIS[name])
    assert _assert_grounding_matches_oracle(suite) >= 3
    assert [c.status for c in run_parsed_suite(suite).checks if c.status == FAIL] == []


# --- the parser's Poly evaluation against an all-RatFunc evaluation ----------

def _eval_as_ratfuncs(text, vars, field):
    """text evaluated with every constant and every variable a RatFunc, over
    the parser's tokens and grammar: an independent reference for parse_expr,
    which keeps polynomial subexpressions as Polys."""
    tokens = [(kind, val) for kind, val, _ in _tokenize(text)]
    pos = 0

    def take():
        nonlocal pos
        pos += 1
        return tokens[pos - 1]

    def base():
        kind, val = take()
        if kind == "int":
            return RatFunc.from_poly(Poly.const(vars, field, field.from_int(val)))
        if val == "zeta3":
            return RatFunc.from_poly(Poly.const(vars, field, field.zeta3()))
        if kind == "name":
            return RatFunc.var(vars, field, val)
        if val == "(":
            out = expr()
            take()
            return out
        return -base()  # unary '-'

    def factor():
        out = base()
        if tokens[pos] == ("op", "^"):
            take()
            kind, val = take()
            return out ** (-take()[1] if val == "-" else val)
        return out

    def term():
        out = factor()
        while tokens[pos] in (("op", "*"), ("op", "/")):
            op = take()[1]
            rhs = factor()
            out = out * rhs if op == "*" else out / rhs
        return out

    def expr():
        out = term()
        while tokens[pos] in (("op", "+"), ("op", "-")):
            op = take()[1]
            rhs = term()
            out = out + rhs if op == "+" else out - rhs
        return out

    return expr()


def _row_work(suite, report):
    """(the distinct grounding keys (image text, level) of the suite's
    table rows, the keys of its passing rows that are substituted: grounded
    below their own table and not a variable alone, which grounds to its
    definition, and the substitutions its passing rows make through the
    rows they are linked to at a non-root level: one per entry and element
    of the row).  Each image the run grounded is parsed over its table, in
    the table's field widened by zeta3 when the image names it, unless it
    is a variable alone grounded below its table."""
    passed = {c.id for c in report.checks if c.status == PASS}
    keys, passing, applied = set(), set(), 0
    for check in suite.checks:
        if check.kind != "table":
            continue
        table, texts, level, _, acts = check.fields
        row = {(t, level) for t in texts}
        for text, _ in row & suite._grounded.keys():
            if level is not table and text in table.vt:
                continue
            parsed = suite._grounded[text, table]
            widened = "zeta3" in expression_names(text)
            assert parsed.vars is table.vt, text
            assert parsed.field is (with_zeta3(table.field) if widened else table.field)
        keys |= row
        if check.id in passed:
            passing |= {key for key in row if level is not table and key[0] not in table.vt}
            applied += 0 if level.is_root else len(texts) * len(acts)
    return keys, passing, applied


def _parse_key(suite, text, stop):
    """The key (text, own table) under which ground_expr parses text for
    stop: own table is the one table text names, else stop.  None for a
    variable alone grounded below its table, which is not parsed."""
    owners = {suite.var_owner[v] for v in expression_names(text) - {"zeta3"}}
    own = owners.pop() if len(owners) == 1 else stop
    return None if own is not stop and text in own.vt else (text, own)


def test_parser_matches_an_all_ratfunc_evaluation(monkeypatch, perfbench_workloads):
    # every expression the runner parses while loading and running the
    # shipped suites and, for Qz3, which no shipped suite uses, one seed of
    # the benchmark's algebra suites: definitions, grounded check expressions
    # and table images, each parsed with its suite's memo of groups
    import fixedfield.suite as suite_mod

    calls = []

    def recording_parse(text, vars, field, memo=None):
        out = parse_expr(text, vars, field, memo)
        calls.append((text, vars, field, out))
        return out

    monkeypatch.setattr(suite_mod, "parse_expr", recording_parse)
    floor = 0
    for name in ALL_SUITES:
        suite = load_suite(name)
        keys, _, _ = _row_work(suite, run_parsed_suite(suite))
        # one parse per definition and per distinct key (text, own table)
        # of a table image or a grounded check's expression (the grounding
        # memo), where no stop is the text's root
        floor += sum(len(t.vt) for t in suite.tables.values() if t.defs is not None)
        keys |= {(text, stop or suite.root(text)) for text, stop in _grounded_expressions(suite)}
        floor += len({_parse_key(suite, *key) for key in keys} - {None})
    shipped = len(calls)
    for _, text in perfbench_workloads.algebra(11).suites:
        run_parsed_suite(parse_suite_text(text))
    kinds = Counter()
    for text, vars, field, got in calls:
        want = _eval_as_ratfuncs(text, vars, field)
        assert got.vars is want.vars and got.field is want.field, text
        # the same fraction, term for term, not only an equal value
        assert got.num.terms == want.num.terms, text
        assert got.den.terms == want.den.terms, text
        kinds[field.tag, "fraction" if not got.den.is_one() else "polynomial"] += 1
    assert shipped >= floor and len(calls) > shipped
    assert {tag for tag, _ in kinds} == {"Q", "F2", "Qz3", "F4"}
    assert kinds["Q", "fraction"] and kinds["Q", "polynomial"]


def _two_pass_substitute(f, images):
    """The substitution before it took one pass: the numerator and the
    denominator of f each at the images, over the join of the fields, then
    divided."""
    field = f.field
    for im in images:
        field = join(field, im.field)
    images = [im.embed(field) for im in images]
    return _at(f.num.embed(field), images) / _at(f.den.embed(field), images)


def _at(p, images):
    """p at the images n_i/d_i over one common denominator: with M_i the
    largest exponent of variable i in p,
    (sum c * prod n_i^e_i * d_i^(M_i - e_i)) / prod d_i^M_i."""
    tgt, field = images[0].vars, p.field
    exps = {e: p.vars.unpack(e) for e in p.terms}
    tops = [max(col) for col in zip(*exps.values())] if p.terms else [0] * len(images)
    den = Poly.one(tgt, field)
    for im, top in zip(images, tops):
        den = den * im.den**top
    num = Poly.zero(tgt, field)
    for e, c in p.terms.items():
        term = Poly.const(tgt, field, c)
        for im, k, top in zip(images, exps[e], tops):
            term = term * im.num**k * im.den ** (top - k)
        num = num + term
    return RatFunc(num, den)


def _products_substitute(f, images):
    """The one-pass substitution with every power of an image numerator and
    of a shared image denominator multiplied out as Polys, one-term ones
    included: the terms that folding one-term powers must keep."""
    field = f.field
    for im in images:
        field = join(field, im.field)
    images = [im.embed(field) for im in images]
    f, tgt = f.embed(field), images[0].vars
    terms = [*f.num.terms.items(), *f.den.terms.items()]
    factors = [[] for _ in terms]
    shared = []  # [D, each term's exponent sum over the variables with image den D]
    for i, exps in f.vars.occurring([e for e, _ in terms]):
        for t, k in enumerate(exps):
            if k:
                factors[t].append(images[i].num ** k)
        den = images[i].den
        group = next((g for g in shared if g[0].terms == den.terms), None)
        if group:
            group[1] = [a + b for a, b in zip(group[1], exps)]
        elif not den.is_one():
            shared.append([den, exps])
    for den, sums in shared:
        for t, s in enumerate(sums):
            if max(sums) - s:
                factors[t].append(den ** (max(sums) - s))
    parts = [Poly.zero(tgt, field), Poly.zero(tgt, field)]
    for t, ((_, c), powers) in enumerate(zip(terms, factors)):
        term = Poly.const(tgt, field, c)
        for power in powers:
            term = term * power
        parts[t >= len(f.num.terms)] += term
    return RatFunc(*parts)


def test_substitute_matches_a_two_pass_reference(monkeypatch, perfbench_workloads):
    # every substitution the runner makes while loading and running the
    # shipped suites and, for Qz3, one seed of the benchmark's algebra
    # suites: table definitions carried down (defs_to), linked rows acted
    # through and table rows
    import fixedfield.suite as suite_mod

    calls = []

    def recording_substitute(f, images):
        try:
            out = substitute(f, images)
        except ZeroDivisionError:
            calls.append((f, images, None))
            raise
        calls.append((f, images, out))
        return out

    monkeypatch.setattr(suite_mod, "substitute", recording_substitute)
    floor = 0
    for name in ALL_SUITES:
        suite = load_suite(name)
        _, passing, applied = _row_work(suite, run_parsed_suite(suite))
        # one substitution per definition carried down to an ancestor, per
        # distinct grounding key of a passing row below its own table (the
        # grounding memo) and per element a passing row applies at a
        # non-root level, entry by entry;
        # definitions are already over the parent, so carrying them there
        # substitutes nothing
        for t in suite.tables.values():
            assert t.parent is None or t.defs_to(t.parent) is t.defs
            assert t.parent is None or t.parent.name not in t._defs_to
            floor += sum(len(d) for d in t._defs_to.values())
        floor += len(passing) + applied
    shipped = len(calls)
    for _, text in perfbench_workloads.algebra(11).suites:
        run_parsed_suite(parse_suite_text(text))
    kinds = Counter()
    for f, images, got in calls:
        if got is None:
            with pytest.raises(ZeroDivisionError):
                _two_pass_substitute(f, images)
            continue
        want = _two_pass_substitute(f, images)
        assert got.vars is want.vars and got.field is want.field, (f, images)
        assert ratfunc_eq(got, want), (f, images)
        # and term for term what multiplying out every power builds
        want = _products_substitute(f, images)
        assert (got.num.terms, got.den.terms) == (want.num.terms, want.den.terms), (f, images)
        kinds[got.field.tag] += 1
        kinds["fraction"] += not f.den.is_one()
        kinds["fraction images"] += any(not im.den.is_one() for im in images)
    assert shipped >= floor and len(calls) > shipped
    assert {"Q", "F2", "Qz3", "F4"} <= set(kinds)
    assert kinds["fraction"] and kinds["fraction images"]
    # images at which the denominator vanishes, in each field and in a join
    X = VarTable(["x1", "x2", "x3"])
    cases = [
        ("Q", "1/(x1 - x2)", "Q", ["x3", "x3", "x3"]),
        ("F2", "x1/(x1 + x2)", "F2", ["x2", "x2", "x3"]),
        ("Qz3", "x2/(x1 - zeta3*x2)", "Qz3", ["zeta3*x3", "x3", "x1"]),
        ("F4", "1/(x1 + zeta3*x2)", "F4", ["zeta3*x1", "x1", "x3"]),
        ("Q", "x2/(x1^2 + x1 + 1)", "Qz3", ["zeta3", "x2", "x3"]),
        ("F2", "x2/(x1^2 + x1 + 1)", "F4", ["zeta3^2", "x2", "x3"]),
    ]
    for tag, text, image_tag, image_texts in cases:
        f = parse_expr(text, X, field_by_tag(tag))
        images = [parse_expr(t, X, field_by_tag(image_tag)) for t in image_texts]
        with pytest.raises(ZeroDivisionError):
            substitute(f, images)
        with pytest.raises(ZeroDivisionError):
            _two_pass_substitute(f, images)


def test_over_a_non_ancestor_is_a_load_error():
    # over= must name a table that every variable of the expression
    # reaches; the error names the table of the first, by name, that does not
    cases = [
        # another root
        ('vars y = y1\ncheck identity t1 - x1 - x2 == 0 over=y ref="r"',
         "line 10: check identity over=y is not an ancestor of t"),
        # a child
        ('check identity x1 - x1 == 0 over=t ref="r"',
         "line 9: check identity over=t is not an ancestor of x"),
        # a root in another field, which the grounding would meet first
        ('vars w field=F2 = w1\ncheck identity t1 - x1 - x2 == 0 over=w ref="r"',
         "line 10: check identity over=w is not an ancestor of t"),
    ]
    for lines, message in cases:
        text = MINI.format(checks="vars t = t1 t2 t3\ndef t.t1 = x1 + x2\ndef t.t2 = x3\n"
                           "def t.t3 = x1\n" + lines)
        with pytest.raises(SuiteError, match="^" + re.escape(message) + "$"):
            parse_suite_text(text)
    # grounding there still raises, as the oracle does
    suite = parse_suite_text(MINI.format(checks="vars t = t1\ndef t.t1 = x1\nvars y = y1"))
    for stop in ("y", "t"):
        with pytest.raises(SuiteError, match=f"^{stop} is not an ancestor of x$"):
            suite.ground_expr("x1", suite.table(stop))
        with pytest.raises(SuiteError):
            _ground_by_substitution(suite, "x1", suite.table(stop))


def test_over_is_checked_once_every_parent_is_known():
    # u is a root when the check is read, and x its ancestor once u gets t
    # for a parent further down
    suite = _mini('vars t = t1\nvars u = u1\ncheck identity u1 - x1 - x2 == 0 over=x ref="r"\n'
                  "def u.u1 = t1\ndef t.t1 = x1 + x2")
    assert [c.status for c in run_parsed_suite(suite).checks] == [PASS]


_MEMO_SUITE = """suite memo field=Q
points 3
perm g = (1,2,3)
perm h = (1,3,2)
vars x = x1 x2 x3
vars y = y1 y2 y3
def y.y1 = x1 + x2
def y.y2 = x2 + x3
def y.y3 = x3 + x1
vars z = z1 z2 z3
def z.z1 = y1*y2
def z.z2 = y2*y3
def z.z3 = y3*y1
check table x elem=g images = x2, x3, x1 ref="r"
check table y elem=g images = y2, y3, y1 ref="r"
check table z elem=g images = z2, z3, z1 ref="r" id=ground
check table z elem=g via=parent images = z2, z3, z1 ref="r" id=parent
check table z elem=h images = z3 + zeta3 - zeta3, z1, z2 ref="r" id=widened
check table z elem=g images = z3, z2, z1 ref="r" id=printed expect=fail pair=fix note="n"
check table z elem=g via=parent images = z2, z3, z1 ref="r" id=fix
check table z elem=g*h images = z1, z2, z3 ref="r" id=word
"""


def _same_ratfunc(a, b):
    # a and b from two loads of one suite text, each with its own tables
    return (a.vars.names == b.vars.names and a.field is b.field
            and a.num.terms == b.num.terms and a.den.terms == b.den.terms)


def test_image_memo_matches_a_memo_free_run(monkeypatch):
    # one image text in a via=ground row, a via=parent row, a row whose
    # zeta3 widens its image's field, and an expect=fail row paired with
    # its fix: the grounding memo's key (text, stop) must keep them apart,
    # so the verdicts and the verified rows equal those of a run that
    # empties the memo before each check
    import fixedfield.suite as suite_mod

    suite = parse_suite_text(_MEMO_SUITE)
    report = run_parsed_suite(suite)
    run_check = suite_mod._run_check

    def memo_free(suite, check):
        suite._grounded.clear()
        return run_check(suite, check)

    monkeypatch.setattr(suite_mod, "_run_check", memo_free)
    reference = parse_suite_text(_MEMO_SUITE)
    want = run_parsed_suite(reference)
    assert [(c.id, c.status, c.detail) for c in report.checks] == [
        (c.id, c.status, c.detail) for c in want.checks]
    assert {c.id: c.status for c in want.checks} == {
        "table-001": PASS, "table-002": PASS, "ground": PASS, "parent": PASS,
        "widened": PASS, "printed": FLAGGED, "fix": PASS, "word": PASS}
    # the rows that rows below act through, rebuilt from their checks: the
    # run's from its memo, the reference's parsed afresh
    rows = _rows_acted_through(suite, report)
    reference._grounded.clear()
    fresh = _rows_acted_through(reference, want)
    assert rows.keys() == fresh.keys()
    for key, images in fresh.items():
        got = rows[key]
        assert len(got) == len(images), key
        assert all(_same_ratfunc(a, b) for a, b in zip(got, images)), key
    assert Counter(name for name, _ in fresh) == {"x": 1, "y": 1, "z": 2}
    widened = fresh["z", suite.perm_word("h")]
    assert [im.field.tag for im in widened] == ["Qz3", "Q", "Q"]
    # and the memo did share: z's rows name 18 image texts, 9 of them distinct
    z = suite.table("z")
    rows = [(c.fields[1], c.fields[2]) for c in suite.checks
            if c.kind == "table" and c.fields[0] is z]
    keys = {(text, level) for texts, level in rows for text in texts}
    assert keys <= suite._grounded.keys()
    assert len(keys) < sum(len(texts) for texts, _ in rows)


def test_grounding_with_no_stop_is_grounding_at_the_root():
    # one memo entry, whichever way the root is named, on every grounded
    # expression of a suite with two roots
    suite = load_suite("sec4")
    assert len({t.root() for t in suite.tables.values()}) == 2
    texts = [text for text, stop in _grounded_expressions(suite) if stop is None]
    assert texts
    for text in texts:
        assert suite.ground_expr(text) is suite.ground_expr(text, suite.root(text)), text


def test_grounding_with_no_table_is_a_suite_error():
    suite = Suite("m", QQ, 3)
    for call in (suite.root, suite.ground_expr):
        with pytest.raises(SuiteError, match="^no vars table to ground '1' over$"):
            call("1")


def test_grounding_memo_is_keyed_by_stop():
    # one text grounded at its root and at over=t: two values, over two
    # tables, each the namespace oracle's
    suite = parse_suite_text(GROUNDING_MINIS["rational-chain"])
    text, x, t = "u1 - 1/t3", suite.table("x"), suite.table("t")
    values = [suite.ground_expr(text), suite.ground_expr(text, t)]
    assert [g.vars for g in values] == [x.vt, t.vt]
    assert ratfunc_eq(values[0], parse_expr("x1/x3", x.vt, suite.field))
    assert ratfunc_eq(values[1], parse_expr("t1*t2", t.vt, suite.field))
    for grounded, stop in zip(values, (None, t)):
        assert ratfunc_eq(grounded, _ground_by_substitution(suite, text, stop))
    assert suite.ground_expr(text) is values[0] and suite.ground_expr(text, t) is values[1]
    assert suite.ground_expr(text, x) is values[0]
    # a via=ground and a via=parent row of one image text, grounded at x
    # and at y: a variable alone, which grounds to its definition there
    suite = parse_suite_text(_MEMO_SUITE)
    run_parsed_suite(suite)
    x, y, z = (suite.table(n) for n in "xyz")
    at_x, at_y = suite._grounded["z2", x], suite._grounded["z2", y]
    parsed = suite.ground_expr("z2", z)
    assert parsed.vars is z.vt and ratfunc_eq(substitute(parsed, z.defs_to(y)), at_y)
    assert at_x.vars is x.vt and at_y.vars is y.vt
    assert ratfunc_eq(at_x, substitute(at_y, y.grounded()))


def test_a_text_of_one_table_is_parsed_once_for_every_stop(monkeypatch):
    # grounded at its root, at its parent and at its own table, a text
    # that names z alone is parsed once, over z, and grounded from that parse
    import fixedfield.suite as suite_mod

    parses = Counter()

    def counting_parse(text, vars, field, memo=None):
        parses[text, vars] += 1
        return parse_expr(text, vars, field, memo)

    monkeypatch.setattr(suite_mod, "parse_expr", counting_parse)
    suite = parse_suite_text(_MEMO_SUITE)
    x, y, z = (suite.table(n) for n in "xyz")
    text = "z1*z2 - (z3 + 1)/z1"
    values = [suite.ground_expr(text, stop) for stop in (x, y, z, None)]
    assert parses[text, z.vt] == 1 and sum(n for (t, _), n in parses.items() if t == text) == 1
    assert [v.vars for v in values] == [x.vt, y.vt, z.vt, x.vt]
    for stop, value in zip((x, y, z), values):
        assert ratfunc_eq(value, _ground_by_substitution(suite, text, stop))
    assert values[3] is values[0]


# --- composed rows stay consistent with the verified rows -------------------

def _rows_acted_through(suite, report):
    """(table name, elem) -> the images, parsed over the table through
    ground_expr at the row's table, of each row that rows below may act
    through: the first single-element row of the table on elem that is not
    expect=fail, where that row passed in report."""
    passed = {c.id for c in report.checks if c.status == PASS}
    first = {}
    for check in suite.checks:
        if check.kind == "table" and check.attrs.get("expect") != "fail":
            table, _, _, _, acts = check.fields
            if len(acts) == 1:
                first.setdefault((table.name, acts[0][0]), check)
    return {key: [suite.ground_expr(t, row.fields[0]) for t in row.fields[1]]
            for key, row in first.items() if row.id in passed}


def _composed_row(row_g, row_h):
    # (g*h)(def_i) = row_h,i evaluated at the images of g
    return [substitute(img, row_g) for img in row_h]


def _act(rows, level, elem, f):
    """f under a row's element at level: the permutation action at the
    root, below it substitution at the images of level's row on elem."""
    if level.is_root:
        return f.conj() if elem == "rho" else perm_act(elem, f)
    return substitute(f.conj() if elem == "rho" else f, rows[level.name, elem])


def test_table_rows_compose(executed_suites, reports):
    checked = 0
    for name, suite in executed_suites.items():
        rows = _rows_acted_through(suite, reports[name])
        for table in suite.tables.values():
            if table.parent is None:
                continue
            entries = [(sym, row) for (tname, sym), row in rows.items()
                       if tname == table.name and sym != "rho"]
            for sym_g, row_g in entries[:3]:
                for sym_h, row_h in entries[:3]:
                    # use the parent level when its rows exist for both
                    # factors (the deep chains), else fall back to a
                    # root-level comparison
                    if table.parent.is_root or all(
                        (table.parent.name, s) in rows for s in (sym_g, sym_h)
                    ):
                        level = table.parent
                    else:
                        level = table.root()
                    defs = table.defs_to(level)
                    composed = _composed_row(row_g, row_h)
                    for i, (d, img) in enumerate(zip(defs, composed)):
                        # the word g*h acts right to left: h first
                        moved = _act(rows, level, sym_g, _act(rows, level, sym_h, d))
                        assert ratfunc_eq(moved, substitute(img, defs)), (
                            f"{name}/{table.name}: {sym_g}*{sym_h} entry {i + 1}")
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
    matrix = pytest.importorskip("sympy").Matrix

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
                assert matrix(bgh) == matrix(bg) * matrix(bh)
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
    matrix = pytest.importorskip("sympy").Matrix

    suite = executed_suites["sec5_char0"]
    for tname, gname in [("za", "G14"), ("zb", "G13"), ("Za", "G26"),
                         ("Zb", "G39"), ("Zc", "G29"), ("Zd", "G22"),
                         ("Wa", "G40"), ("Va", "G15"), ("Vc", "G19")]:
        table = suite.table(tname)
        for g in suite.group(gname).generators:
            bmat, _ = suite.scaled_action(table, g)
            assert matrix(bmat).det() in (1, -1)


def test_degree_oracle_smith_normal_form(executed_suites):
    # |det| of every monomial generator set's exponent matrix, as its
    # factored lattice reads it, equals the product of its Smith normal form
    # diagonal (independent oracle)
    from fixedfield.monomial import MonomialError, is_square, mat_from_rows, monomial_shape

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
            m = mat_from_rows([e for _, e in shapes])
            if not is_square(m):
                continue
            diag = smith_diagonal(m)
            prod = 1
            for x in diag:
                prod *= x
            if len(diag) < len(m):
                with pytest.raises(MonomialError, match="linearly dependent"):
                    table.lattice()
            else:
                assert prod == table.lattice().det
            checked += 1
    assert checked >= 10


# --- kernels: the order of the image group against per-element work ------


def test_kernels_match_element_by_element_oracle(executed_suites):
    counts = Counter()
    for name, suite in executed_suites.items():
        for check in suite.checks:
            kind = check.kind
            if kind not in ("matrix-kernel", "action-kernel", "faithful"):
                continue
            table, (_, group) = check.fields[:2]
            if kind == "matrix-kernel":
                ident = mat_identity(len(table.vt))
                oracle = {
                    g for g in group.elements
                    if suite.scaled_action(table, Perm(g))[0] == ident
                }
            else:
                defs = table.grounded()
                oracle = {
                    g for g in group.elements
                    if all(ratfunc_eq(perm_act(Perm(g), d), d) for d in defs)
                }
            routed, _, _, image = _image_group(suite, check)
            assert routed is group and group.order // image == len(oracle), (name, check.id)
            want = len(oracle) == 1 if kind == "faithful" else (
                oracle == check.fields[2][1].elements
            )
            assert KINDS[kind].run(suite, check)[0] == want, (name, check.id)
            counts[kind] += 1
    # every kernel check of the shipped suites takes the image-group route
    assert counts == {"matrix-kernel": 11, "action-kernel": 13, "faithful": 17}


def test_image_orders_match_scaled_actions_of_every_element(executed_suites):
    # |phi(G)| = |G| / #{g in G : phi(g) = 1}, with phi(g) read off
    # scaled_action on each element of G and no closure
    counts = Counter()
    for name, suite in executed_suites.items():
        for check in suite.checks:
            if check.kind not in ("matrix-kernel", "action-kernel", "faithful"):
                continue
            table, (_, group) = check.fields[:2]
            n = len(table.vt)
            ident, ones = mat_identity(n), (table.field.one(),) * n
            trivial = 0
            for g in group.elements:
                bmat, dvec = suite.scaled_action(table, Perm(g))
                trivial += bmat == ident and (check.kind == "matrix-kernel" or dvec == ones)
            assert _image_group(suite, check)[3] * trivial == group.order, (name, check.id)
            counts[check.kind] += 1
    assert sum(counts.values()) == 41


def test_kernel_claims_swapped_for_the_trivial_group_or_g_fail():
    # each shipped kernel claim H -> {1}, or -> G when H is trivial, must be
    # refuted, not an error.  No mutant is equivalent: every shipped claim
    # holds with a nontrivial H, so each mutant claims the kernel is {1}
    kills = Counter()
    for name in ALL_SUITES:
        suite = load_suite(name)
        one = PermGroup([], degree=suite.points)
        mutants = []
        for check in suite.checks:
            if check.kind not in ("action-kernel", "matrix-kernel"):
                continue
            table, (gname, group), (_, claimed) = check.fields
            swap = (gname, group) if claimed.order == 1 else ("1", one)
            mutants.append(check._replace(fields=(table, (gname, group), swap)))
        suite.checks = mutants
        for check, res in zip(mutants, run_parsed_suite(suite).checks):
            assert res.status == FAIL and not res.detail.startswith("error:"), (
                name, check.id, res.detail)
            kills[check.kind] += 1
    assert kills == {"action-kernel": 13, "matrix-kernel": 11}


def test_mutated_kernel_claims_fail():
    mutations = {
        "sec5_char0": [
            'check matrix-kernel Za under G26 = G26 id=mut-matrix ref="r"',
            'check matrix-kernel Za under G26 = Lam2 id=mut-matrix-other ref="r"',
            # a subgroup of G26 of the kernel's order that is not the kernel
            "group Hmut = (3,7)(4,8) (2,4,6,8) expect_order=8",
            'check matrix-kernel Za under G26 = Hmut id=mut-matrix-same-order ref="r"',
        ],
        "sec6_char0": [
            'check action-kernel zs under G33 = G33 id=mut-action ref="r"',
            'check faithful zs under G33 id=mut-faithful ref="r"',
            "group Hmut = (5,6)(7,8) (1,5,3,7)(2,6,4,8) expect_order=16",
            'check action-kernel zs under G33 = Hmut id=mut-action-same-order ref="r"',
        ],
    }
    for name, lines in mutations.items():
        path = resources.files("fixedfield").joinpath("data", f"{name}.suite")
        suite = parse_suite_text(path.read_text(encoding="utf-8") + "\n".join(lines) + "\n")
        suite.checks = [c for c in suite.checks if c.id.startswith("mut-")]
        rep = run_parsed_suite(suite)
        assert len(rep.checks) == sum(line.startswith("check ") for line in lines)
        for c in rep.checks:
            assert c.status == FAIL, (c.id, c.detail)
            assert not c.detail.startswith("error:"), (c.id, c.detail)


@pytest.mark.parametrize("seed", [1, 2])
def test_algebra_workload_verdicts_match_construction(seed, perfbench_workloads):
    # the benchmark's algebra suites carry verdicts known from how they were
    # built, true checks and their mutated twins alike
    workload = perfbench_workloads.algebra(seed)
    for name, text in workload.suites:
        report = run_parsed_suite(parse_suite_text(text))
        expected = workload.expected[name]
        got = {c.id: c for c in report.checks}
        assert got.keys() == expected.keys(), name
        for cid, status in expected.items():
            assert got[cid].status == status, (name, cid, got[cid].detail)
            assert not got[cid].detail.startswith("error:"), (name, cid, got[cid].detail)


def test_mutated_matgroup_claims_fail():
    # two claims of the right order but the wrong group (<nsA, l1> against
    # <nsA, nl1>, both of order 8, whose join has order 16), then G_{7,4,1}
    # without m741d and G_{4,6,1} without l1
    lines = [
        'check matgroup Za under G26 == nsA nl1 id=mut-G26-other ref="r"',
        'check matgroup Va under G15 == nsA l1 id=mut-G15-other ref="r"',
        'check matgroup Wa under G40 == m741a m741b m741c id=mut-G40-dropped ref="r"',
        'check matgroup Za under G26 == nsA id=mut-G26-short ref="r"',
    ]
    path = resources.files("fixedfield").joinpath("data", "sec5_char0.suite")
    suite = parse_suite_text(path.read_text(encoding="utf-8") + "\n".join(lines) + "\n")
    suite.checks = [c for c in suite.checks if c.id.startswith("mut-")]
    rep = run_parsed_suite(suite)
    assert len(rep.checks) == len(lines)
    for c in rep.checks:
        assert c.status == FAIL and not c.detail.startswith("error:"), (c.id, c.detail)
    assert [c.detail for c in rep.checks][:2] == ["orders 8 vs 8"] * 2

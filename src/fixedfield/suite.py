"""Declarative verification suites and their runner.

A suite file is line oriented (``#`` comments, ``\\`` continuations):

    suite <name> field=<Q|F2|Qz3|F4>
    points <n>
    vars <table> [field=<tag>] = v1 v2 ...
    def <table>.<var> = <expr over the parent table>
    perm <name> = <word of cycles and perm names>
    group <name> = <word> <word> ... expect_order=<int>
    matrix <name> = a,b,c / d,e,f / g,h,i
    gl23map = a,b:i a,b:i ...
    check <kind> ... ref="..." [id=..] [expect=fail pair=<id>] [note=".."]

A table's parent is inferred from the variables its definitions use.
Expressions in checks may mix variables from any tables sharing a root.
Each, and each image of a table row, is parsed over the tables it names
and substituted at their definitions over the root (or ``over=``, or the
row's level).  Action-table rows are verified either against the root
permutation action (``via=ground``, default) or against the parent table
(``via=parent``), which keeps deeply chained changes of variables
affordable: there each element acts through the first earlier
single-element row of the parent on it, linked when the suite loads.
"""

from __future__ import annotations

import os
import re
from collections import namedtuple
from functools import reduce
from operator import mul

from .actions import (
    ActionError,
    extract_monomial_action,
    induced_scaled_permutation,
    matrix_permutation,
    perm_act,
    permutation_matrix,
    require_unproportional,
)
from .monomial import (
    Lattice,
    MonomialError,
    close,
    is_square,
    mat_from_rows,
    mat_identity,
    matrix_group_elements,
    orbit_permutations,
)
from .parser import (
    ParseError,
    expression_names,
    paren_spans,
    parse_expr,
    require_variable_names,
)
from .perms import (
    POINTS_CAP,
    GroupIndex,
    Perm,
    PermError,
    PermGroup,
    is_normal,
    is_transitive,
    named_group,
    parse_cycles,
    wreath_product,
)
from .poly import PolyError, RatFunc, VarTable, ratfunc_eq, substitute
from .scalars import Field, FieldError, embed, field_by_tag, join, with_zeta3


class SuiteError(ValueError):
    pass


# the most levels a table may lie below its root: grounding recurses once
# per level, and this keeps it far below Python's recursion limit
TABLE_DEPTH_CAP = 100


PASS = "pass"
FAIL = "fail"
FLAGGED = "flagged-discrepancy"


class CheckResult:
    __slots__ = ("id", "paper_ref", "status", "detail")

    def __init__(self, id, paper_ref, status, detail):
        self.id = id
        self.paper_ref = paper_ref
        self.status = status
        self.detail = detail


class SuiteReport:
    __slots__ = ("suite", "checks")

    def __init__(self, suite, checks):
        self.suite = suite
        self.checks = checks

    def ok(self) -> bool:
        return all(c.status != FAIL for c in self.checks)

    def counts(self):
        out = {PASS: 0, FAIL: 0, FLAGGED: 0}
        for c in self.checks:
            out[c.status] += 1
        return out


class Table:
    """A table of variables, with their definitions over the parent table
    once complete, and what is derived from them and kept for the life of
    the suite: the definitions carried down to each ancestor and the
    factored exponent lattice."""

    def __init__(self, name, names, field: Field, parent: "Table | None"):
        self.name = name
        self.vt = VarTable(names)
        self.field = field
        self.parent = parent
        self.defs = None  # RatFuncs over parent.vt, set once complete
        self._defs_to = {}
        self._lattice = None

    @property
    def is_root(self):
        return self.parent is None

    def ancestors(self):
        """The parent, its parent and so on up to the root."""
        t = self.parent
        while t is not None:
            yield t
            t = t.parent

    def root(self):
        t = self
        while t.parent is not None:
            t = t.parent
        return t

    def defs_to(self, stop: "Table"):
        """Definitions expressed over stop's variables (stop an ancestor)."""
        if self is stop:
            return [RatFunc.var(self.vt, self.field, n) for n in self.vt.names]
        if self.parent is stop:
            return self.defs
        if self.parent is None:
            raise SuiteError(f"{stop.name} is not an ancestor of {self.name}")
        key = stop.name
        if key not in self._defs_to:
            maps = self.parent.defs_to(stop)
            self._defs_to[key] = [substitute(d, maps) for d in self.defs]
        return self._defs_to[key]

    def grounded(self):
        return self.defs_to(self.root())

    def lattice(self) -> Lattice:
        """The monomial shapes and factored exponent lattice of the
        definitions, built on first use with the two guards that make a
        group element's scaled action on the table unique: MonomialError if
        the exponent rows are linearly dependent, and ActionError if the
        table is not monomial over its parent and two of its grounded
        definitions are proportional.  A lattice that fails a guard is not
        kept, so it fails again on every call."""
        if self._lattice is None:
            lattice = Lattice(self.defs)
            if not lattice.monomial:
                require_unproportional(self.grounded())
            self._lattice = lattice
        return self._lattice


# a suite's integers are ASCII: int(), \d and isdecimal read other scripts' digits
_INT = re.compile("-?[0-9]+")
_WORD_ATOM = re.compile(r"(\(ID\)|[A-Za-z_][A-Za-z_0-9]*|(?:\(\s*[0-9]+(?:\s*,\s*[0-9]+)*\s*\))+)(?:\^(-?[0-9]+))?$")


class Suite:
    def __init__(self, name, default_field: Field, points: int):
        self.name = name
        self.field = default_field
        self.points = points
        self.tables: dict[str, Table] = {}
        self.var_owner: dict[str, Table] = {}
        self.perms: dict[str, Perm] = {}
        self.perm_words: dict[str, str] = {}
        self._words: dict[str, Perm] = {}  # perm_word's memo: word or atom -> Perm
        self.groups: dict[str, PermGroup] = {}
        self.group_words: dict[str, list] = {}
        self._bases = GroupIndex()  # the groups declared so far, to close each from a base
        self.matrices: dict[str, tuple] = {}
        self.gl23map: dict[tuple[int, int], int] = {}
        self.checks: list[Check] = []
        self.check_ids: set[str] = set()
        self._scaled_cache: dict = {}
        self._grounded: dict = {}  # ground_expr's memo: (text, stop) -> RatFunc
        self._names: dict = {}  # names' memo: text -> its set of names
        self._texts: dict = {}  # each expression a check names -> its first check's index
        # (a table's VarTable, Field) -> the memo of group texts that every
        # parse over that pair shares (see parser.py)
        self._groups: dict = {}
        # (table, elem) -> index in checks of the first single-element row of
        # table on elem that is not expect=fail: the row that rows below act through
        self._rows: dict = {}

    # ------------------------------------------------------------------
    # name resolution

    def table(self, name) -> Table:
        if name not in self.tables:
            raise SuiteError(f"unknown table {name!r} in suite {self.name}")
        return self.tables[name]

    def group(self, name) -> PermGroup:
        if name not in self.groups:
            raise SuiteError(f"unknown group {name!r} in suite {self.name}")
        return self.groups[name]

    def matrix(self, name):
        if name not in self.matrices:
            raise MonomialError(f"unknown matrix symbol {name!r}")
        return self.matrices[name]

    def perm_word(self, text) -> Perm:
        """A product of named permutations and cycle literals, '*'-joined,
        each optionally raised to an integer power.

        Each text, and each of its stripped '*'-separated atoms, is
        evaluated once and its Perm kept in self._words: an atom is the
        one-atom word of the same value.  That is sound because a text's
        value never changes: a perm name cannot be rebound (duplicate perm),
        and 'points' must precede every declaration and check.  A text or
        atom that raises is not kept, so it raises again on every call; the
        errors of a word's syntax quote the whole word."""
        words = self._words
        if text in words:
            return words[text]
        out = None
        for atom in text.split("*"):
            atom = atom.strip()
            p = words.get(atom)
            if p is None:
                if not atom:
                    raise SuiteError(f"empty factor in permutation word {text!r}")
                m = _WORD_ATOM.match(atom)
                if not m:
                    raise SuiteError(f"bad permutation word {text!r}")
                base, power = m.groups()
                if base == "(ID)":
                    p = Perm.identity(self.points)
                elif base in self.perms:
                    p = self.perms[base]
                elif base.startswith("("):
                    p = parse_cycles(base, self.points)
                else:
                    raise SuiteError(f"unknown permutation {base!r}")
                if power is not None:
                    p = p**int(power)
                words[atom] = p
            out = p if out is None else out * p
        words[text] = out
        return out

    # ------------------------------------------------------------------
    # expression grounding

    def names(self, text):
        """expression_names(text), scanned once per suite; never changed."""
        out = self._names.get(text)
        if out is None:
            out = self._names[text] = expression_names(text)
        return out

    def root(self, text) -> Table:
        """The one root of the tables text names, or the first table's root
        when it names none; SuiteError when there are two roots, or none."""
        owners = {self.var_owner[v] for v in self.names(text) - {"zeta3"}}
        roots = {t.root() for t in owners}
        if len(roots) > 1:
            raise SuiteError(f"expression mixes unrelated roots: {text}")
        if not (roots or self.tables):
            raise SuiteError(f"no vars table to ground {text!r} over")
        return roots.pop() if roots else next(iter(self.tables.values())).root()

    def ground_expr(self, text, stop: Table | None = None) -> RatFunc:
        """text parsed over the tables it names (else stop), their variables
        in declaration order, in stop's field joined with theirs (a table's
        contains its parent's) and with zeta3 when the text names it, then
        substituted at their defs_to(stop), stop by default their one root.
        A text of one table is parsed at it whatever the stop, and a variable
        alone grounds to its definition.  Each (text, resolved stop) is
        grounded once; a text that raises is not kept."""
        if stop is None:
            stop = self.root(text)
        key = (text, stop)
        out = self._grounded.get(key)
        if out is not None:
            return out
        names = self.names(text)
        owners = {self.var_owner[v] for v in names - {"zeta3"}}
        tables = [t for t in self.tables.values() if t in owners] or [stop]
        if len(tables) == 1 and tables[0] is not stop:
            t = tables[0]
            images = t.defs_to(stop)  # in t's field, which contains stop's
            out = (images[t.vt.index[text]] if text in t.vt
                   else substitute(self.ground_expr(text, t), images))
        else:
            fld = reduce(join, [t.field for t in tables], stop.field)
            fld = with_zeta3(fld) if "zeta3" in names else fld
            if tables == [stop]:
                out = parse_expr(text, stop.vt, fld, self._groups.setdefault((stop.vt, fld), {}))
            else:  # over a VarTable of its own, whose memo no other parse reads
                vt = VarTable([n for t in tables for n in t.vt.names])
                out = substitute(parse_expr(text, vt, fld, None),
                                 [d for t in tables for d in t.defs_to(stop)])
        self._grounded[key] = out
        return out

    # ------------------------------------------------------------------
    # scaled monomial actions (recursing through the table ancestry)

    def induced_perm(self, table: Table, g: Perm) -> Perm:
        """The permutation g induces on the table's variables: its scaled
        action must be a permutation matrix with every scalar 1."""
        bmat, dvec = self.scaled_action(table, g)
        p = matrix_permutation(bmat)
        if p is None or any(c != table.field.one() for c in dvec):
            raise ActionError(f"{g} does not act on {table.name} by a pure permutation")
        return p

    def scaled_action(self, table: Table, g: Perm):
        """(B, d) with g(t_j) = d_j * prod_k t_k^{B[k][j]}, payloads in
        table.field, unique by the guards of table.lattice().  A table
        monomial over its parent is read through its lattice from the
        parent's action; any other, the root included (its grounded
        definitions are its own variables), by the scaled permutation g
        makes of its grounded definitions."""
        key = (table.name, g.images)
        if key in self._scaled_cache:
            return self._scaled_cache[key]
        if not table.is_root and table.lattice().monomial:
            bp, dp = self.scaled_action(table.parent, g)
            dp = tuple(embed(dv, table.parent.field, table.field) for dv in dp)
            out = extract_monomial_action(table.lattice(), (bp, dp), table.field)
        else:
            res = induced_scaled_permutation(table.grounded(), g)
            if res is None:
                raise MonomialError(f"{g} does not act by a scaled permutation on {table.name}")
            p, scal = res
            out = (permutation_matrix(p), tuple(scal))
        self._scaled_cache[key] = out
        return out


# ---------------------------------------------------------------------------
# file parsing


_ATTR_QUOTED = re.compile(r'\s(ref|note)="([^"]*)"')


def _strip_attrs(line):
    attrs = {}

    def grab(m):
        if m.group(1) in attrs:
            raise SuiteError(f"check gives {m.group(1)}= twice")
        attrs[m.group(1)] = m.group(2)
        return " "

    line = _ATTR_PLAIN.sub(grab, _ATTR_QUOTED.sub(grab, line))
    return " ".join(line.split()), attrs


def _logical_lines(text):
    buf = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if line.lstrip().startswith("#"):  # a comment ends in no continuation
            continue
        if line.endswith("\\"):
            buf += line[:-1]
            continue
        buf += line
        stripped = buf.strip()
        buf = ""
        if stripped:
            yield lineno, stripped
    if buf.strip():  # the text ends inside a continuation
        yield lineno, buf.strip()


# statement -> the '<name> = <body>' it needs
_ASSIGNMENTS = {"def": "<table>.<var> = <expression>", "perm": "<name> = <word>",
                "group": "<name> = <words> expect_order=<int>", "matrix": "<name> = <rows>"}


def _assignment(head, rest):
    """(name, body) of the statement head's '<name> = <body>'."""
    m = re.fullmatch(r"([^\s=]+)\s*=\s*(\S.*)", rest)
    if not m or head == "def" and "." not in m[1]:
        raise SuiteError(f"{head} needs '{_ASSIGNMENTS[head]}'")
    return m.groups()


def parse_suite_text(text: str) -> Suite:
    suite = None
    last_def = {}  # table with definitions -> line of its last def
    check_lines = []  # the line of each check
    for lineno, line in _logical_lines(text):
        try:
            head, rest = (line.split(None, 1) + [""])[:2]
            if head == "suite":
                name, rest2 = (rest.split(None, 1) + [""])[:2]
                m = re.search(r"field=(\S+)", rest2)
                if not m:
                    raise SuiteError("suite header needs field=")
                suite = Suite(name, field_by_tag(m.group(1)), points=8)
                continue
            if suite is None:
                raise SuiteError("first statement must be 'suite'")
            if head in _ASSIGNMENTS:
                rest = _assignment(head, rest)
            if head == "points":
                if suite.perms or suite.groups or suite.tables or suite.checks or suite.gl23map:
                    raise SuiteError("'points' must precede declarations")
                if not _INT.fullmatch(rest):
                    raise SuiteError(f"points needs an integer, got {rest!r}")
                suite.points = int(rest)
                if not 1 <= suite.points <= POINTS_CAP:
                    raise SuiteError(f"points must be between 1 and {POINTS_CAP}, "
                                     f"got {suite.points}")
            elif head == "vars":
                _parse_vars(suite, rest)
            elif head == "def":
                last_def[_parse_def(suite, *rest)] = lineno
            elif head == "perm":
                name, word = rest
                if name in suite.perms:
                    raise SuiteError(f"duplicate perm {name!r}")
                if name == "rho":  # a table row's elem=rho is conjugation
                    raise SuiteError("perm name 'rho' is reserved for conjugation")
                suite.perms[name] = suite.perm_word(word)
                suite.perm_words[name] = word
            elif head == "group":
                _parse_group(suite, *rest)
            elif head == "matrix":
                name, body = rest
                if name in suite.matrices:
                    raise SuiteError(f"duplicate matrix {name!r}")
                rows = [_int_list(row, "matrix") for row in body.split("/")]
                suite.matrices[name] = mat_from_rows(rows)
            elif head == "gl23map":
                _parse_gl23map(suite, rest)
            elif head == "check":
                _parse_check(suite, rest, len(suite.checks) + 1)
                check_lines.append(lineno)
            else:
                raise SuiteError(f"unknown statement {head!r}")
        except ValueError as exc:  # every error class of the package is one
            raise SuiteError(f"line {lineno}: {exc}") from exc
    if suite is None:
        raise SuiteError("empty suite file")
    for table, lineno in last_def.items():
        if table.defs is None:
            missing = [n for n in table.vt.names if n not in table._pending_defs]
            raise SuiteError(
                f"line {lineno}: table {table.name!r} has no definition for "
                + " ".join(missing)
            )
        # checked once every parent is known: a table's parent may be
        # defined after the table, which deepens every table below it
        depth = sum(1 for _ in table.ancestors())
        if depth > TABLE_DEPTH_CAP:
            raise SuiteError(f"line {lineno}: table {table.name!r} lies {depth} levels "
                             f"below its root, past the cap of {TABLE_DEPTH_CAP}")
    # checked once every parent is known too, since a check may name a
    # table before the defs that give it a parent; one root mixes nothing
    if len({t.root() for t in suite.tables.values()}) > 1:
        for expr, i in suite._texts.items():
            try:
                suite.root(expr)
            except SuiteError as exc:
                raise SuiteError(f"line {check_lines[i]}: {exc}") from None
    for lineno, check in zip(check_lines, suite.checks):
        # a pair= may name a check further down the file
        pair = check.attrs.get("pair")
        if pair is not None and pair not in suite.check_ids:
            raise SuiteError(f"line {lineno}: check {check.kind} pairs with unknown "
                             f"check id {pair!r}")
        # and over= a table whose own parent may be given further down
        if check.kind == "identity" and check.fields[2] is not None:
            expr, _, over = check.fields
            for v in sorted(suite.names(expr) - {"zeta3"}):
                if over not in (t := suite.var_owner[v], *t.ancestors()):
                    raise SuiteError(f"line {lineno}: check identity over={over.name} "
                                     f"is not an ancestor of {t.name}")
    return suite


def _parse_gl23map(suite: Suite, rest):
    """'= a,b:i ...': a bijection from the 8 nonzero vectors of F3^2,
    entries read mod 3, onto the labels 1..8, the points of an 8-point
    suite."""
    if suite.gl23map:
        raise SuiteError("duplicate gl23map")
    name, eq, body = rest.partition("=")
    if eq and name.strip():
        raise SuiteError(f"gl23map takes no name, got {name.strip()!r}")
    labels = {}
    for item in body.split():
        m = re.fullmatch(r"(-?[0-9]+),(-?[0-9]+):([0-9]+)", item)
        if not m:
            raise SuiteError(f"gl23map needs items 'a,b:i' of integers, got {item!r}")
        a, b = int(m[1]) % 3, int(m[2]) % 3
        if (a, b) in labels:
            raise SuiteError(f"gl23map labels the vector ({a},{b}) twice")
        labels[(a, b)] = int(m[3])
    nonzero = {(a, b) for a in range(3) for b in range(3)} - {(0, 0)}
    if labels.keys() != nonzero or sorted(labels.values()) != list(range(1, 9)):
        raise SuiteError("gl23map must label the 8 nonzero vectors of F3^2 "
                         "with 1..8, each once")
    if suite.points != 8:
        raise SuiteError(f"gl23map labels 8 points, but the suite has {suite.points}")
    suite.gl23map = labels


def _parse_vars(suite: Suite, rest):
    m = re.match(r"(\S+)(?:\s+field=(\S+))?\s*=\s*(.+)$", rest)
    if not m:
        raise SuiteError(f"bad vars statement {rest!r}")
    tname, ftag, names = m.groups()
    fld = field_by_tag(ftag) if ftag else suite.field
    if tname in suite.tables:
        raise SuiteError(f"duplicate table {tname!r}")
    names = names.split()
    require_variable_names(names)
    table = Table(tname, names, fld, parent=None)
    suite.tables[tname] = table
    for n in names:
        if n in suite.var_owner:
            raise SuiteError(f"variable {n!r} declared twice")
        suite.var_owner[n] = table
    table._pending_defs = {}


def _parse_def(suite: Suite, target, expr):
    tname, vname = target.split(".", 1)
    table = suite.table(tname)
    if table.defs is not None:
        raise SuiteError(f"table {tname!r} definitions already complete")
    if vname not in table.vt:
        raise SuiteError(f"{vname!r} is not a variable of table {tname!r}")
    used = suite.names(expr) - {"zeta3"}
    owners = {suite.var_owner[v] for v in used if v in suite.var_owner}
    missing = [v for v in used if v not in suite.var_owner]
    if missing:
        raise SuiteError(f"definition uses unknown variables {missing}")
    if len(owners) != 1:
        raise SuiteError(f"definition of {target} must use exactly one table")
    parent = owners.pop()
    if table.parent is None:
        if parent is table:
            raise SuiteError(f"definition of {target} refers to its own table")
        if table in parent.ancestors():
            raise SuiteError(f"definition of {target} makes table {tname!r} "
                             "an ancestor of itself")
        if join(table.field, parent.field) is not table.field:
            raise SuiteError(f"table {tname!r} field {table.field.tag} does not "
                             f"contain field {parent.field.tag} of {parent.name!r}")
        # an earlier row compared at this table took it for a root
        if any(c.kind == "table" and c.fields[2] is table for c in suite.checks):
            raise SuiteError(f"table {tname!r} gets a parent after a table row read it as a root")
        table.parent = parent
    elif parent is not table.parent:
        raise SuiteError(
            f"definition of {target} uses table {parent.name!r}, expected "
            f"{table.parent.name!r}"
        )
    memo = suite._groups.setdefault((parent.vt, table.field), {})
    table._pending_defs[vname] = parse_expr(expr, parent.vt, table.field, memo)
    if len(table._pending_defs) == len(table.vt):
        table.defs = [table._pending_defs[n] for n in table.vt.names]
        for d in table.defs:
            if d.num.is_zero():
                raise SuiteError(f"zero definition in table {tname!r}")
        del table._pending_defs
    return table


def _parse_group(suite: Suite, name, body):
    m = re.fullmatch(r"(.*?)expect_order=(\S*)\s*(.*)", body)
    if not m:
        raise SuiteError(f"group {name!r} needs expect_order=")
    words, expect, tail = m[1].split(), m[2], m[3]
    if tail or not re.fullmatch("[0-9]+", expect):
        raise SuiteError(f"group {name!r}: expect_order= must end the line, not {tail!r}" if tail
                         else f"group {name!r}: expect_order={expect!r} is not an integer")
    if name in suite.groups:
        raise SuiteError(f"duplicate group {name!r}")
    group = suite._bases.declare([suite.perm_word(w) for w in words], suite.points)
    suite.groups[name] = group
    suite.group_words[name] = words
    if group.order != int(expect):
        raise SuiteError(
            f"group {name!r} closed to order {group.order}, declared {expect}"
        )


# ---------------------------------------------------------------------------
# checks: every kind parses its payload once, when the suite loads, into the
# fields its run reads, and resolves there every name those fields use:
# tables, groups, permutation words, a row's elem= symbols, matrices and
# wreath factors.  A run looks no name up; only expressions stay text, to be
# grounded when the check runs


# fields: what the kind's parse read off the payload and attrs, resolved
Check = namedtuple("Check", "kind id ref attrs payload fields")

# parse: (suite, payload, attrs) -> fields, or raises SuiteError
# run: (suite, check) -> (ok, detail)
# reads: the attributes parse reads, beside those of every check
CheckKind = namedtuple("CheckKind", "parse run reads", defaults=((),))


# the attributes every check may carry: the runner and the report read them
_CHECK_ATTRS = ("id", "ref", "note", "expect", "pair")


# attribute -> the values it accepts
_ATTR_VALUES = {
    "expect": ("fail",),
    "via": ("ground", "parent"),
    "pure": ("yes", "no"),
    "transitive": ("yes", "no"),
}


def _parse_check(suite: Suite, rest, seq):
    body, attrs = _strip_attrs(" " + rest)
    kind, _, payload = body.partition(" ")
    if kind not in KINDS:
        raise SuiteError(f"unknown check kind {kind!r}")
    unread = attrs.keys() - {*_CHECK_ATTRS, *KINDS[kind].reads}
    if unread:
        raise SuiteError(f"check {kind} does not read "
                         + ", ".join(f"{a}=" for a in sorted(unread)))
    try:
        fields = KINDS[kind].parse(suite, payload, attrs)
    except SuiteError as exc:
        raise SuiteError(f"check {kind} {exc}") from None
    if not attrs.get("ref", "").strip():
        raise SuiteError(f"check {kind} is missing its ref=\"...\"")
    for name, allowed in _ATTR_VALUES.items():
        if name in attrs and attrs[name] not in allowed:
            raise SuiteError(f"{name}= accepts only {' or '.join(map(repr, allowed))}")
    if attrs.get("expect") == "fail" and ("pair" not in attrs or "note" not in attrs):
        raise SuiteError("expect=fail checks need pair= and note=")
    check = Check(kind, attrs.get("id", f"{kind}-{seq:03d}"), attrs["ref"], attrs,
                  payload, fields)
    if check.id in suite.check_ids:
        raise SuiteError(f"duplicate check id {check.id!r}")
    suite.check_ids.add(check.id)
    suite.checks.append(check)


def _required(attrs, name):
    if name not in attrs:
        raise SuiteError(f"is missing its {name}=")
    return attrs[name]


def _shape(*seps, last=None, needs=(), takes=(), resolve=()):
    """parse() for a payload of parts joined by seps, each exactly once and
    in this order.  last converts the final part, raising ValueError with
    what it needs; the values of the attributes in needs (required) and in
    takes (optional, else None) follow the parts.  resolve[i](suite, value),
    where given, then resolves the i-th value unless it is None."""

    def parse(suite, payload, attrs):
        parts, tail = [], payload
        for sep in seps:
            if tail.count(sep) != 1:
                raise SuiteError(f"needs one {sep.strip()!r} in {payload!r}")
            head, tail = tail.split(sep)
            parts.append(head.strip())
        parts.append(tail.strip())
        if last is not None:
            try:
                parts[-1] = last(parts[-1])
            except ValueError as exc:
                raise SuiteError(f"needs {exc} after {seps[-1]!r} in {payload!r}") from None
        out = [*parts, *[_required(attrs, n) for n in needs], *[attrs.get(n) for n in takes]]
        for i, resolver in enumerate(resolve):
            if resolver is not None and out[i] is not None:
                out[i] = resolver(suite, out[i])
        return tuple(out)

    return parse


def _named(resolver):
    """resolver keeping the declared name beside what it resolves, for the
    details that print the name."""
    return lambda suite, name: (name, resolver(suite, name))


_group, _word = _named(Suite.group), _named(Suite.perm_word)


def _declared(suite: Suite, text):
    """An expression's text, once every variable it names is declared and
    its parentheses balance."""
    if not suite.tables:
        raise SuiteError("comes before any vars table")
    unknown = suite.names(text).difference(suite.var_owner, ("zeta3",))
    if unknown:
        raise SuiteError(f"uses unknown variable {min(unknown)!r}")
    stray = paren_spans(text)[2]
    if stray is not None:
        raise SuiteError(f"has an unbalanced {text[stray]!r} at position {stray} of {text!r}")
    suite._texts.setdefault(text, len(suite.checks))
    return text


def _integer(text):
    if not re.fullmatch("[0-9]+", text):
        raise ValueError("an integer")
    return int(text)


def _zero(text):
    # the runner expands only the left-hand side and compares it with zero
    if text != "0":
        raise ValueError("the right-hand side 0")


def _int_list(text, what):
    items = text.split(",")
    if not all(_INT.fullmatch(x.strip()) for x in items):
        raise SuiteError(f"{what} entry is not an integer in {text!r}")
    return [int(x) for x in items]


def _expressions(suite: Suite, text):
    """The comma-separated expressions of text, each _declared."""
    items = [e.strip() for e in text.split(",")]
    if "" in items:
        raise SuiteError(f"has an empty expression in {text!r}")
    return tuple(_declared(suite, e) for e in items)


def _parse_distinct(suite: Suite, payload, attrs):
    exprs = _expressions(suite, payload)
    if len(exprs) < 2:
        raise SuiteError(f"needs two or more expressions in {payload!r}")
    return exprs


def _run_order(suite: Suite, check: Check):
    g, want = check.fields
    return g.order == want, f"order {g.order}, expected {want}"


def _run_transitive(suite: Suite, check: Check):
    ((name, g),) = check.fields
    return is_transitive(g), f"orbit of 1 under {name}"


def _run_normal(suite: Suite, check: Check):
    (hname, h), (gname, g) = check.fields
    normal = is_normal(h, g)
    if not normal and not h.elements <= g.elements:
        return False, f"{hname} is not a subgroup of {gname}"
    return normal, f"{hname} normal in {gname}"


def _run_permeq(suite: Suite, check: Check):
    (left, lp), (right, rp) = check.fields
    return (lp == rp) == (check.kind == "permeq"), f"{left} = {lp}, {right} = {rp}"


def _run_member(suite: Suite, check: Check):
    p, (gname, g) = check.fields
    return (p in g) == (check.kind == "member"), f"{p} vs {gname}"


def _run_groupeq(suite: Suite, check: Check):
    (left, a), (right, b) = check.fields
    return a.elements == b.elements, f"element sets of {left} and {right}"


def _parse_wreath(suite: Suite, payload, attrs):
    """(G, H, K, blocks) of 'G = H wr K blocks = ...', each group a (name,
    PermGroup) pair, H and K from perms.named_group: m blocks of n points,
    for H on n points and K on m, that partition the suite's points."""
    m = re.fullmatch(r"(\S+)\s*=\s*(\S+)\s+wr\s+(\S+)\s+blocks\s*=\s*(.+)", payload)
    if not m:
        raise SuiteError(f"needs 'G = H wr K blocks = ...' in {payload!r}")
    gname, inner, outer, blocks = m.groups()
    blocks = [_int_list(b, "block") for b in blocks.split("|")]
    g, h, k = _group(suite, gname), named_group(inner), named_group(outer)
    if len(blocks) != k.degree or any(len(b) != h.degree for b in blocks):
        raise SuiteError(f"blocks must be {k.degree} lists of {h.degree} points")
    if sorted(p for b in blocks for p in b) != list(range(1, suite.points + 1)):
        raise SuiteError(f"blocks must partition 1..{suite.points}")
    return g, (inner, h), (outer, k), blocks


def _run_wreath(suite: Suite, check: Check):
    (gname, g), (inner, h), (outer, k), blocks = check.fields
    w = wreath_product(h, k, blocks)
    same = w.elements == g.elements
    return same, f"{inner} wr {outer} order {w.order} vs {gname} order {g.order}"


def _parse_gl23(suite: Suite, payload, attrs):
    """elem= and the rows, reduced mod 3, of matrix=a,b;c,d."""
    elem = _required(attrs, "elem")
    rows = [_int_list(row, "matrix") for row in _required(attrs, "matrix").split(";")]
    if len(rows) != 2 or any(len(r) != 2 for r in rows):
        raise SuiteError("matrix must be 2x2")
    g = suite.perm_word(elem)
    if not suite.gl23map:
        raise SuiteError("needs an earlier gl23map")
    return g, [[x % 3 for x in row] for row in rows]


def _run_gl23(suite: Suite, check: Check):
    g, rows = check.fields
    images = [0] * len(suite.gl23map)
    for (a, b), idx in suite.gl23map.items():
        ia = (rows[0][0] * a + rows[0][1] * b) % 3
        ib = (rows[1][0] * a + rows[1][1] * b) % 3
        if (ia, ib) not in suite.gl23map:
            return False, f"image vector ({ia},{ib}) is unlabeled"
        images[idx - 1] = suite.gl23map[(ia, ib)]
    induced = Perm(images)
    return induced == g, f"matrix induces {induced}, expected {g}"


def _run_invariance(suite: Suite, check: Check):
    expr, (gname, group) = check.fields
    f = suite.ground_expr(expr)
    for gen in group.generators:
        if not ratfunc_eq(perm_act(gen, f), f):
            return False, f"moved by {gen}"
    return True, f"fixed by all generators of {gname}"


def _parse_table(suite: Suite, payload, attrs):
    """(table, image texts, level, via, acts) of a table row: the level is
    the parent for via=parent, else the root, and acts pairs each element
    of elem=, a Perm or "rho" for conjugation, with the row it acts through
    below the root (Suite._rows).  Each image names variables of the row's
    table, and no others, so that it is parsed over that table."""
    m = re.fullmatch(r"(\S+)\s+images\s*=\s*(.+)", payload)
    if not m:
        raise SuiteError(f"needs '<table> images = <expressions>' in {payload!r}")
    tname, images = m.groups()
    symbols = _required(attrs, "elem").split("*")
    table, images = suite.table(tname), _expressions(suite, images)
    if len(images) != len(table.vt):
        raise SuiteError(f"row covers {len(images)} of {len(table.vt)} variables of {tname}")
    for text in images:
        used = suite.names(text) - {"zeta3"}
        foreign = used.difference(table.vt.names)
        if foreign:
            raise SuiteError(f"image uses {min(foreign)!r}, not a variable of table {tname!r}")
        if not used:
            raise SuiteError(f"image {text!r} names no variable of table {tname!r}")
    via = attrs.get("via", "ground")
    if via == "parent" and table.is_root:
        raise SuiteError(f"via=parent on root table {tname!r}")
    level = table.parent if via == "parent" else table.root()
    acts = []
    for s in symbols:
        elem = s if s == "rho" else suite.perm_word(s)
        if not level.is_root and (level, elem) not in suite._rows:
            raise SuiteError(f"acts through {s} on table {level.name!r}, "
                             "but no earlier single-element row of that table gives it")
        acts.append((elem, None if level.is_root else suite.checks[suite._rows[level, elem]]))
    if len(acts) == 1 and attrs.get("expect") != "fail":
        suite._rows.setdefault((table, acts[0][0]), len(suite.checks))  # this row, once parsed
    return table, images, level, via, tuple(acts)


def _run_table(suite: Suite, check: Check):
    """Verify a row: each image, grounded at the row's level, must equal the
    word's action (right to left) on its definition there, up to the first
    mismatch: by permutation at the root, else through the linked rows."""
    table, texts, level, via, acts = check.fields
    acts = [(elem, link and [suite.ground_expr(t, link.fields[0]) for t in link.fields[1]])
            for elem, link in reversed(acts)]
    for i, (text, d) in enumerate(zip(texts, table.defs_to(level))):
        pushed = suite.ground_expr(text, level)
        for elem, images in acts:
            if images is None:
                d = d.conj() if elem == "rho" else perm_act(elem, d)
            else:
                d = substitute(d.conj() if elem == "rho" else d, images)
        if not ratfunc_eq(d, pushed):
            return False, f"row entry {i + 1} ({table.vt.names[i]}) mismatches"
    return True, f"all {len(texts)} images verified via {via}"


def _run_identity(suite: Suite, check: Check):
    expr, _, over = check.fields
    val = suite.ground_expr(expr, stop=over)
    return val.is_zero(), "expands to zero" if val.is_zero() else "nonzero"


def _run_distinct(suite: Suite, check: Check):
    vals = [suite.ground_expr(e) for e in check.fields]
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            if ratfunc_eq(vals[i], vals[j]):
                return False, f"expressions {i + 1} and {j + 1} coincide"
    return True, "pairwise distinct"


def _run_degree(suite: Suite, check: Check):
    table, want = check.fields
    if table.defs is None:
        raise SuiteError(f"table {table.name!r} has no definitions to take degrees of")
    lattice = table.lattice()
    if not is_square(lattice.unit_rows()):
        raise MonomialError("determinant of a non-square matrix")
    d = lattice.det
    return d == want, f"|det| = {d}, expected {want}"


def _run_monomial(suite: Suite, check: Check):
    table, group, pure = check.fields
    impure = []
    for gen in group.generators:
        _, dvec = suite.scaled_action(table, gen)
        if any(c != table.field.one() for c in dvec):
            impure.append(str(gen))
    if pure == "yes":
        return not impure, f"impure generators: {impure}" if impure else "purely monomial"
    if pure == "no":
        return bool(impure), "no impure generator found" if not impure else \
            f"impure generators: {', '.join(impure)}"
    return True, "monomial action (purity not asserted)"


def _parse_word(suite: Suite, payload, attrs):
    """(table, elem=, the product of the matrices of word=a^2*b): a factor
    name^k stands for k copies of name, k >= 1 (there is no inverse to give
    k < 1 a meaning)."""
    elem, syms = _required(attrs, "elem"), []
    for part in _required(attrs, "word").split("*"):
        m = re.fullmatch(r"([^^]+)(?:\^([1-9][0-9]*))?", part)
        if not m:
            raise SuiteError(
                f"needs word= factors name or name^k with an integer k >= 1, got {part!r}"
            )
        syms.extend([m.group(1)] * int(m.group(2) or 1))
    table, g = suite.table(payload.strip()), suite.perm_word(elem)
    product = lambda x, h: tuple(tuple(sum(map(mul, row, col)) for col in zip(*h)) for row in x)
    return table, g, reduce(product, _matrices(suite, table, syms))


def _matrices(suite: Suite, table: Table, syms):
    """The matrices named by syms, each n x n for the n variables of table."""
    n, mats = len(table.vt), [suite.matrix(s) for s in syms]
    for s, m in zip(syms, mats):
        if (len(m), len(m[0])) != (n, n):
            raise SuiteError(f"matrix {s!r} is {len(m)}x{len(m[0])}, but table "
                             f"{table.name!r} has {n} variables")
    return mats


def _run_word(suite: Suite, check: Check):
    table, g, target = check.fields
    bmat, _ = suite.scaled_action(table, g)
    return bmat == target, f"extracted matrix vs word {check.attrs['word']}"


_matgroup_parts = _shape(" under ", "==", last=str.split, resolve=(Suite.table, Suite.group))


def _parse_matgroup(suite: Suite, payload, attrs):
    table, group, syms = _matgroup_parts(suite, payload, attrs)
    return table, group, _matrices(suite, table, syms)


def _run_matgroup(suite: Suite, check: Check):
    """<A> = <B> iff |<A>| = |<B>| = |<A, B>|, for A the matrices of G's
    generators on the table and B the named matrices."""
    table, group, mats = check.fields
    gens = [suite.scaled_action(table, gen)[0] for gen in group.generators]
    left, right, both = map(len, matrix_group_elements(gens, mats, len(table.vt), table.field))
    return left == right == both, f"orders {left} vs {right}"


def _image_group(suite: Suite, check: Check):
    """(G, phi, phi(1), |phi(G)|) of a kernel kind: phi(g) is
    scaled_action(table, g), with unit scalars for matrix-kernel, and
    phi(G) is closed as the permutations its generators' images make of
    their orbit (orbit_permutations).  phi is a homomorphism because
    scaled_action is unique: Table.lattice rejects dependent exponent rows
    of a monomial table and proportional definitions of any other."""
    table, (_, group) = check.fields[:2]
    n = len(table.vt)
    one = mat_identity(n), (table.field.one(),) * n
    if check.kind == "matrix-kernel":
        phi = lambda g: (suite.scaled_action(table, g)[0], one[1])
    else:
        phi = lambda g: suite.scaled_action(table, g)
    size, gens = orbit_permutations(
        [phi(g) for g in group.generators], n, table.field, group.order)
    return group, phi, one, len(close(gens, size, group.order))


def _run_kernel(suite: Suite, check: Check):
    """ker phi = H iff H <= G, phi(H) = 1 and |G| = |H|*|phi(G)|."""
    group, phi, one, image = _image_group(suite, check)
    hname, claimed = check.fields[2]
    ok = claimed.order * image == group.order and all(
        h in group and phi(h) == one for h in claimed.generators
    )
    return ok, f"kernel order {group.order // image} vs |{hname}| = {claimed.order}"


def _run_faithful(suite: Suite, check: Check):
    table, (gname, _) = check.fields
    group, _, _, image = _image_group(suite, check)
    return image == group.order, f"kernel of {gname} acting on {table.name}"


def _run_stable(suite: Suite, check: Check):
    table, group = check.fields
    for gen in group.generators:
        # dependent rows, or a parent that gen does not act on, say nothing
        # of the span of the table: those raise here, as an error verdict
        if table.parent is not None and table.lattice().monomial:
            suite.scaled_action(table.parent, gen)
        try:
            moved = matrix_permutation(suite.scaled_action(table, gen)[0])
        except MonomialError:
            moved = None
        if moved is None:
            return False, f"{gen} leaves the span of {table.name}"
    return True, "every generator acts by a scaled permutation"


_same_action_parts = _shape(needs=("elem",), resolve=(Suite.table, Suite.perm_word))


def _parse_same_action(suite: Suite, payload, attrs):
    """(table, elem=): g acts on the table as itself, so the table has a
    variable for each of the suite's points."""
    table, g = _same_action_parts(suite, payload, attrs)
    if len(table.vt) != suite.points:
        raise SuiteError(f"needs a table on the suite's {suite.points} points, "
                         f"but {table.name!r} has {len(table.vt)} variables")
    return table, g


def _run_same_action(suite: Suite, check: Check):
    table, g = check.fields
    p = suite.induced_perm(table, g)
    return p == g, f"induced {p} vs {g}"


_induced_parts = _shape("=", needs=("elem",))


def _parse_induced(suite: Suite, payload, attrs):
    """(table, the claimed permutation of its variables, elem=)."""
    tname, cycles, elem = _induced_parts(suite, payload, attrs)
    table = suite.table(tname)
    return table, parse_cycles(cycles, len(table.vt)), suite.perm_word(elem)


def _run_induced(suite: Suite, check: Check):
    table, want, g = check.fields
    p = suite.induced_perm(table, g)
    return p == want, f"induced {p}, expected {want}"


def _run_induced_order(suite: Suite, check: Check):
    table, group, want, transitive = check.fields
    perms = [suite.induced_perm(table, gen) for gen in group.generators]
    ind = PermGroup(perms, degree=len(table.vt))
    ok = ind.order == want
    detail = f"induced order {ind.order}, expected {want}"
    if transitive is not None:
        trans = is_transitive(ind)
        ok = ok and trans == (transitive == "yes")
        detail += f"; transitive = {trans}"
    return ok, detail


_KERNEL = CheckKind(_shape(" under ", "=", resolve=(Suite.table, _group, _group)), _run_kernel)

# kind -> its parse, run when the suite loads, its run, and the attributes
# its parse reads; the kernel kinds share one, which _image_group tells apart
KINDS: dict[str, CheckKind] = {
    "order": CheckKind(_shape("=", last=_integer, resolve=(Suite.group,)), _run_order),
    "transitive": CheckKind(_shape(resolve=(_group,)), _run_transitive),
    "normal": CheckKind(_shape(" in ", resolve=(_group, _group)), _run_normal),
    "permeq": CheckKind(_shape("==", resolve=(_word, _word)), _run_permeq),
    "permneq": CheckKind(_shape("!=", resolve=(_word, _word)), _run_permeq),
    "member": CheckKind(_shape(" in ", resolve=(Suite.perm_word, _group)), _run_member),
    "notmember": CheckKind(_shape(" in ", resolve=(Suite.perm_word, _group)), _run_member),
    "groupeq": CheckKind(_shape("==", resolve=(_group, _group)), _run_groupeq),
    "wreath": CheckKind(_parse_wreath, _run_wreath),
    "gl23": CheckKind(_parse_gl23, _run_gl23, reads=("elem", "matrix")),
    "invariance": CheckKind(_shape(" under ", resolve=(_declared, _group)), _run_invariance),
    "table": CheckKind(_parse_table, _run_table, reads=("elem", "via")),
    "identity": CheckKind(
        _shape("==", last=_zero, takes=("over",), resolve=(_declared, None, Suite.table)),
        _run_identity,
        reads=("over",),
    ),
    "distinct": CheckKind(_parse_distinct, _run_distinct),
    "degree": CheckKind(_shape("=", last=_integer, resolve=(Suite.table,)), _run_degree),
    "monomial": CheckKind(
        _shape(" under ", takes=("pure",), resolve=(Suite.table, Suite.group)), _run_monomial,
        reads=("pure",),
    ),
    "word": CheckKind(_parse_word, _run_word, reads=("elem", "word")),
    "matgroup": CheckKind(_parse_matgroup, _run_matgroup),
    "matrix-kernel": _KERNEL,
    "action-kernel": _KERNEL,
    "faithful": CheckKind(_shape(" under ", resolve=(Suite.table, _group)), _run_faithful),
    "stable": CheckKind(_shape(" under ", resolve=(Suite.table, Suite.group)), _run_stable),
    "same-action": CheckKind(_parse_same_action, _run_same_action, reads=("elem",)),
    "induced": CheckKind(_parse_induced, _run_induced, reads=("elem",)),
    "induced-order": CheckKind(
        _shape(" under ", "=", last=_integer, takes=("transitive",),
               resolve=(Suite.table, Suite.group)),
        _run_induced_order,
        reads=("transitive",),
    ),
}

# every attribute a check may carry, but the quoted ref= and note=, is one word
_ATTR_PLAIN = re.compile(r"\s(%s)=(\S+)" % "|".join(sorted(
    {*_CHECK_ATTRS, *(a for kind in KINDS.values() for a in kind.reads)} - {"ref", "note"}
)))


# ---------------------------------------------------------------------------
# runner


def run_parsed_suite(suite: Suite, fail_fast: bool = False) -> SuiteReport:
    results = []
    raw_status = {}
    for check in suite.checks:
        attrs = check.attrs
        # a row stands on the rows it acts through, each earlier in the suite
        unpassed = check.kind == "table" and next(
            (link.id for _, link in check.fields[4] if link and not raw_status[link.id]), None)
        if unpassed:
            ok, detail = None, f"acts through row {unpassed}, which did not pass"
        else:
            try:
                ok, detail = _run_check(suite, check)
            except (SuiteError, ActionError, MonomialError, PolyError, FieldError,
                    PermError, ParseError, ZeroDivisionError) as exc:
                ok, detail = None, f"error: {exc}"  # an error, not a refutation
        raw_status[check.id] = ok
        if attrs.get("expect") == "fail":
            if ok is not False:
                status = FAIL
                detail = ("expected to fail but passed; " if ok
                          else "expected a refutation, got ") + detail
            else:
                status = FLAGGED
                detail = attrs.get("note", "") + (f" [{detail}]" if detail else "")
        else:
            status = PASS if ok else FAIL
            if not ok and attrs.get("note"):
                detail = f"{attrs['note']}; {detail}" if detail else attrs["note"]
        results.append(CheckResult(check.id, check.ref, status, detail))
        if fail_fast and status == FAIL:
            break
    # a flagged discrepancy is only legitimate when its paired corrected
    # check passed; otherwise it is an ordinary failure
    for res, check in zip(results, suite.checks):
        if res.status == FLAGGED:
            pair = check.attrs["pair"]
            if not raw_status.get(pair, False):
                res.status = FAIL
                res.detail += f" (paired corrected check {pair} did not pass)"
    return SuiteReport(suite.name, results)


# perfbench/layertrace.py rebinds this module function to time each check kind
def _run_check(suite: Suite, check: Check):
    return KINDS[check.kind].run(suite, check)


# ---------------------------------------------------------------------------
# public surface

CANONICAL_SUITES = [
    "catalog",
    "prop22",
    "prop29",
    "thm210",
    "sec4",
    "sec5_char0",
    "sec5_char2",
    "sec6_char0",
    "sec6_char2",
    "sec7_char0",
    "sec7_char2",
]


def list_suites():
    """The stable list of shipped suites, in canonical run order."""
    return list(CANONICAL_SUITES)


def load_suite(name: str) -> Suite:
    if name not in CANONICAL_SUITES:
        raise SuiteError(f"unknown suite {name!r}")
    # read beside this file: importlib.resources would import pathlib and zipfile
    with open(os.path.join(os.path.dirname(__file__), "data", f"{name}.suite"),
              encoding="utf-8") as f:
        suite = parse_suite_text(f.read())
    if suite.name != name:
        raise SuiteError(f"suite file {name}.suite declares name {suite.name!r}")
    return suite


def _report_doc(report: SuiteReport):
    return {"suite": report.suite,
            "checks": [{"id": c.id, "paper_ref": c.paper_ref, "status": c.status,
                        "detail": c.detail} for c in report.checks]}


def report_to_json(reports) -> str:
    import json  # only a written report needs it, not loading or running

    doc = (_report_doc(reports) if isinstance(reports, SuiteReport)
           else [*map(_report_doc, reports)])
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"

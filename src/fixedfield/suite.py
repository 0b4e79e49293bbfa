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
Expressions in checks may mix variables from any tables sharing a root;
they are grounded by substituting definitions down to the root table
(or to the table named by ``over=``).  Action-table rows are verified
either against the root permutation action (``via=ground``, default) or
against the registered rows of the parent table (``via=parent``), which
keeps deeply chained changes of variables affordable.  Every verified
single-element row is registered so later tables can build on it.
"""

from __future__ import annotations

import json
import re
from collections.abc import Callable
from dataclasses import dataclass
from importlib import resources

from .actions import (
    ActionError,
    extract_monomial_action,
    induced_scaled_permutation,
    perm_act,
    permutation_matrix,
    require_unproportional,
    scaled_times,
)
from .monomial import (
    Lattice,
    MonomialError,
    close,
    det_fraction_free,
    mat_from_rows,
    mat_identity,
    matrix_group_elements,
    matrix_times,
    matrix_word,
)
from .parser import ParseError, expression_variables, parse_expr
from .perms import (
    Perm,
    PermError,
    PermGroup,
    groups_equal,
    is_normal,
    is_transitive,
    named_group,
    parse_cycles,
    wreath_product,
)
from .poly import PolyError, RatFunc, Substitution, VarTable, ratfunc_eq
from .scalars import F4, QZ3, Field, FieldError, embed, field_by_tag


class SuiteError(ValueError):
    pass


PASS = "pass"
FAIL = "fail"
FLAGGED = "flagged-discrepancy"


@dataclass
class CheckResult:
    id: str
    paper_ref: str
    status: str
    detail: str


@dataclass
class SuiteReport:
    suite: str
    checks: list

    def ok(self) -> bool:
        return all(c.status != FAIL for c in self.checks)

    def counts(self):
        out = {PASS: 0, FAIL: 0, FLAGGED: 0}
        for c in self.checks:
            out[c.status] += 1
        return out

    def to_dict(self):
        return {
            "suite": self.suite,
            "checks": [
                {"id": c.id, "paper_ref": c.paper_ref, "status": c.status,
                 "detail": c.detail}
                for c in self.checks
            ],
        }


def _join_fields(a: Field, b: Field) -> Field:
    if a is b:
        return a
    pair = {a.tag, b.tag}
    if pair == {"Q", "Qz3"}:
        return QZ3
    if pair == {"F2", "F4"}:
        return F4
    raise FieldError(f"incompatible fields {a.tag} and {b.tag}")


class Table:
    def __init__(self, name, names, field: Field, parent: "Table | None"):
        self.name = name
        self.vt = VarTable(names)
        self.field = field
        self.parent = parent
        self.defs = None  # RatFuncs over parent.vt, set once complete
        self._defs_to = {}
        self._lattice = None
        self.unproportional = False  # set once no two grounded defs are proportional

    @property
    def is_root(self):
        return self.parent is None

    def root(self):
        t = self
        while t.parent is not None:
            t = t.parent
        return t

    def defs_to(self, stop: "Table"):
        """Definitions expressed over stop's variables (stop an ancestor)."""
        if self is stop:
            return [RatFunc.var(self.vt, self.field, n) for n in self.vt.names]
        if self.parent is None:
            raise SuiteError(f"{stop.name} is not an ancestor of {self.name}")
        key = stop.name
        if key not in self._defs_to:
            maps = self.parent.defs_to(stop)
            fld = self.field
            for m in maps:
                fld = _join_fields(fld, m.field)
            sub = Substitution(self.parent.vt, [m.embed(fld) for m in maps])
            self._defs_to[key] = [sub(d.embed(fld)) for d in self.defs]
        return self._defs_to[key]

    def grounded(self):
        return self.defs_to(self.root())

    def lattice(self) -> Lattice:
        """The monomial shapes and factored exponent lattice of the
        definitions, built on first use; MonomialError if the exponent rows
        are linearly dependent."""
        if self._lattice is None:
            self._lattice = Lattice(self.defs)
        return self._lattice


_WORD_ATOM = re.compile(r"(\(ID\)|[A-Za-z_][A-Za-z_0-9]*|(?:\(\s*\d+(?:\s*,\s*\d+)*\s*\))+)(?:\^(-?\d+))?$")


class Suite:
    def __init__(self, name, default_field: Field, points: int):
        self.name = name
        self.field = default_field
        self.points = points
        self.tables: dict[str, Table] = {}
        self.var_owner: dict[str, tuple[Table, int]] = {}
        self.perms: dict[str, Perm] = {}
        self.perm_words: dict[str, str] = {}
        self.groups: dict[str, PermGroup] = {}
        self.group_words: dict[str, list] = {}
        self.group_expect: dict[str, int] = {}
        self.matrices: dict[str, tuple] = {}
        self.gl23map: dict[tuple[int, int], int] = {}
        self.checks: list[Check] = []
        self.check_ids: set[str] = set()
        self._actions: dict[tuple[str, str], tuple[list, bool]] = {}
        self._scaled_cache: dict = {}

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

    def perm_word(self, text) -> Perm:
        """A product of named permutations and cycle literals, '*'-joined,
        each optionally raised to an integer power."""
        out = None
        for atom in text.split("*"):
            atom = atom.strip()
            if not atom:
                raise SuiteError(f"empty factor in permutation word {text!r}")
            m = _WORD_ATOM.match(atom)
            if not m:
                raise SuiteError(f"bad permutation word {text!r}")
            base, power = m.group(1), int(m.group(2) or 1)
            if base == "(ID)":
                p = Perm.identity(self.points)
            elif base in self.perms:
                p = self.perms[base]
            elif base.startswith("("):
                p = parse_cycles(base, self.points)
            else:
                raise SuiteError(f"unknown permutation {base!r}")
            p = p**power
            out = p if out is None else out * p
        if out is None:
            raise SuiteError("empty permutation word")
        return out

    # ------------------------------------------------------------------
    # expression grounding

    def _tables_of_expr(self, text):
        used = expression_variables(text)
        if not used:
            return set()
        tables = set()
        for v in used:
            if v not in self.var_owner:
                raise SuiteError(f"expression uses unknown variable {v!r}: {text}")
            tables.add(self.var_owner[v][0])
        return tables

    def _namespace(self):
        if not hasattr(self, "_ns"):
            names = []
            for t in self.tables.values():
                names.extend(t.vt.names)
            self._ns = VarTable(names)
        return self._ns

    def ground_expr(self, text, stop: Table | None = None) -> RatFunc:
        tables = self._tables_of_expr(text)
        if stop is None:
            roots = {t.root() for t in tables}
            if len(roots) > 1:
                raise SuiteError(f"expression mixes unrelated roots: {text}")
            stop = roots.pop() if roots else next(iter(self.tables.values())).root()
        fld = stop.field
        chain_tables = set()
        for t in tables:
            chain = t
            while chain is not stop:
                chain_tables.add(chain)
                if chain.parent is None:
                    raise SuiteError(
                        f"variable table {t.name} does not reach {stop.name}: {text}"
                    )
                chain = chain.parent
        for t in chain_tables:
            fld = _join_fields(fld, t.field)
        if "zeta3" in text:
            fld = _join_fields(fld, F4 if fld.char == 2 else QZ3)
        ns = self._namespace()
        parsed = parse_expr(text, ns, fld)
        zero = RatFunc.const(stop.vt, fld, fld.zero())
        images = []
        for v in ns.names:
            owner, idx = self.var_owner[v]
            if owner in tables:
                images.append(owner.defs_to(stop)[idx].embed(fld))
            else:
                images.append(zero)
        return Substitution(ns, images)(parsed)

    # ------------------------------------------------------------------
    # registered element actions on tables

    def register_action(self, table: Table, sym: str, images, conj: bool):
        self._actions[(table.name, sym)] = (images, conj)

    def apply_symbol(self, table: Table, sym: str, f: RatFunc) -> RatFunc:
        if table.is_root:
            if sym == "rho":
                return f.conj()
            g = self.perm_word(sym)
            return perm_act(g, f)
        key = (table.name, sym)
        if key not in self._actions:
            raise SuiteError(
                f"no action row registered for {sym!r} on table {table.name!r}"
            )
        images, conj = self._actions[key]
        fld = f.field
        for im in images:
            fld = _join_fields(fld, im.field)
        g = f.embed(fld)
        if conj:
            g = g.conj()
        sub = Substitution(table.vt, [im.embed(fld) for im in images])
        return sub(g)

    # ------------------------------------------------------------------
    # scaled monomial actions (recursing through the table ancestry)

    def induced_perm(self, table: Table, g: Perm) -> Perm:
        """The permutation g induces on the table's variables: its scaled
        action must be a permutation matrix with every scalar 1."""
        bmat, dvec = self.scaled_action(table, g)
        one, unit = table.field.one(), [0] * (len(dvec) - 1) + [1]
        if any(c != one or sorted(col) != unit for col, c in zip(zip(*bmat), dvec)):
            raise ActionError(f"{g} does not act on {table.name} by a pure permutation")
        return Perm([col.index(1) + 1 for col in zip(*bmat)])

    def scaled_action(self, table: Table, g: Perm):
        """(B, d) with g(t_j) = d_j * prod_k t_k^{B[k][j]}, payloads in
        table.field."""
        key = (table.name, g.images)
        if key in self._scaled_cache:
            return self._scaled_cache[key]
        fld = table.field
        if table.is_root:
            if g.degree != len(table.vt):
                raise SuiteError("permutation degree does not match the root table")
            out = (permutation_matrix(g), tuple(fld.one() for _ in table.vt.names))
        else:
            lattice = table.lattice()
            if lattice.monomial:
                bp, dp = self.scaled_action(table.parent, g)
                dp = tuple(
                    dv if table.parent.field is fld else embed(dv, table.parent.field, fld)
                    for dv in dp
                )
                out = extract_monomial_action(
                    lattice, g, ambient_action=(bp, dp), field=fld
                )
            else:
                res = induced_scaled_permutation(table.grounded(), g)
                if res is None:
                    raise MonomialError(
                        f"{g} does not act by a scaled permutation on {table.name}"
                    )
                p, scal = res
                out = (permutation_matrix(p), tuple(scal))
        self._scaled_cache[key] = out
        return out


# ---------------------------------------------------------------------------
# file parsing


_ATTR_QUOTED = re.compile(r'\s(ref|note)="([^"]*)"')
_ATTR_PLAIN = re.compile(
    r"\s(id|expect|pair|via|over|pure|transitive|elem|matrix|word)=(\S+)"
)


def _strip_attrs(line):
    attrs = {}
    for m in _ATTR_QUOTED.finditer(line):
        attrs[m.group(1)] = m.group(2)
    line = _ATTR_QUOTED.sub(" ", line)

    def grab(m):
        attrs[m.group(1)] = m.group(2)
        return " "

    line = _ATTR_PLAIN.sub(grab, line)
    return " ".join(line.split()), attrs


def _logical_lines(text):
    buf = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if line.endswith("\\"):
            buf += line[:-1]
            continue
        buf += line
        stripped = buf.strip()
        buf = ""
        if not stripped or stripped.startswith("#"):
            continue
        yield lineno, stripped
    if buf.strip():
        yield -1, buf.strip()


def parse_suite_text(text: str) -> Suite:
    suite = None
    check_seq = 0
    last_def = {}  # table with definitions -> line of its last def
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
            if head == "points":
                if suite.perms or suite.groups or suite.tables:
                    raise SuiteError("'points' must precede declarations")
                suite.points = int(rest)
            elif head == "vars":
                _parse_vars(suite, rest)
            elif head == "def":
                last_def[_parse_def(suite, rest)] = lineno
            elif head == "perm":
                name, word = [s.strip() for s in rest.split("=", 1)]
                if name in suite.perms:
                    raise SuiteError(f"duplicate perm {name!r}")
                suite.perms[name] = suite.perm_word(word)
                suite.perm_words[name] = word
            elif head == "group":
                _parse_group(suite, rest)
            elif head == "matrix":
                name, body = [s.strip() for s in rest.split("=", 1)]
                rows = [
                    [int(x) for x in row.split(",")] for row in body.split("/")
                ]
                suite.matrices[name] = mat_from_rows(rows)
            elif head == "gl23map":
                body = rest.split("=", 1)[1]
                for item in body.split():
                    vec, idx = item.rsplit(":", 1)
                    a, b = (int(x) % 3 for x in vec.split(","))
                    suite.gl23map[(a, b)] = int(idx)
            elif head == "check":
                check_seq += 1
                _parse_check(suite, rest, check_seq)
            else:
                raise SuiteError(f"unknown statement {head!r}")
        except (SuiteError, PolyError, FieldError, ParseError, PermError,
                MonomialError, ValueError) as exc:
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
    return suite


def _parse_vars(suite: Suite, rest):
    m = re.match(r"(\S+)(?:\s+field=(\S+))?\s*=\s*(.+)$", rest)
    if not m:
        raise SuiteError(f"bad vars statement {rest!r}")
    tname, ftag, names = m.groups()
    fld = field_by_tag(ftag) if ftag else suite.field
    if tname in suite.tables:
        raise SuiteError(f"duplicate table {tname!r}")
    names = names.split()
    table = Table(tname, names, fld, parent=None)
    suite.tables[tname] = table
    for i, n in enumerate(names):
        if n in suite.var_owner:
            raise SuiteError(f"variable {n!r} declared twice")
        suite.var_owner[n] = (table, i)
    table._pending_defs = {}
    if hasattr(suite, "_ns"):
        del suite._ns


def _parse_def(suite: Suite, rest):
    target, expr = [s.strip() for s in rest.split("=", 1)]
    tname, vname = target.split(".", 1)
    table = suite.table(tname)
    if table.defs is not None:
        raise SuiteError(f"table {tname!r} definitions already complete")
    if vname not in table.vt:
        raise SuiteError(f"{vname!r} is not a variable of table {tname!r}")
    used = expression_variables(expr)
    owners = {suite.var_owner[v][0] for v in used if v in suite.var_owner}
    missing = [v for v in used if v not in suite.var_owner]
    if missing:
        raise SuiteError(f"definition uses unknown variables {missing}")
    if len(owners) != 1:
        raise SuiteError(f"definition of {target} must use exactly one table")
    parent = owners.pop()
    if table.parent is None:
        if parent is table:
            raise SuiteError(f"definition of {target} refers to its own table")
        if _join_fields(table.field, parent.field) is not table.field:
            raise SuiteError(f"table {tname!r} field {table.field.tag} does not "
                             f"contain field {parent.field.tag} of {parent.name!r}")
        table.parent = parent
    elif parent is not table.parent:
        raise SuiteError(
            f"definition of {target} uses table {parent.name!r}, expected "
            f"{table.parent.name!r}"
        )
    fld = table.field
    if "zeta3" in expr and not fld.has_zeta3:
        raise SuiteError(f"table {tname!r} field {fld.tag} has no zeta3")
    table._pending_defs[vname] = parse_expr(expr, parent.vt, fld)
    if len(table._pending_defs) == len(table.vt):
        table.defs = [table._pending_defs[n] for n in table.vt.names]
        for d in table.defs:
            if d.num.is_zero():
                raise SuiteError(f"zero definition in table {tname!r}")
        del table._pending_defs
    return table


def _parse_group(suite: Suite, rest):
    name, body = [s.strip() for s in rest.split("=", 1)]
    m = re.search(r"expect_order=(\d+)", body)
    if not m:
        raise SuiteError(f"group {name!r} needs expect_order=")
    expect = int(m.group(1))
    body = body[: m.start()].strip()
    words = body.split()
    gens = [suite.perm_word(w) for w in words]
    if name in suite.groups:
        raise SuiteError(f"duplicate group {name!r}")
    group = PermGroup(gens, degree=suite.points)
    suite.groups[name] = group
    suite.group_words[name] = words
    suite.group_expect[name] = expect
    if group.order != expect:
        raise SuiteError(
            f"group {name!r} closed to order {group.order}, declared {expect}"
        )


# ---------------------------------------------------------------------------
# checks: every kind parses its payload once, when the suite loads, into the
# fields its run reads; the groups, tables, permutation words and
# expressions those fields name are resolved when the check runs


@dataclass(frozen=True)
class Check:
    kind: str
    id: str
    ref: str
    attrs: dict
    payload: str
    fields: tuple  # what the kind's parse read off the payload and attrs


@dataclass(frozen=True)
class CheckKind:
    parse: Callable  # (payload, attrs) -> fields, or raises SuiteError
    run: Callable  # (suite, check) -> (ok, detail)


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
    try:
        fields = KINDS[kind].parse(payload, attrs)
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


def _shape(*seps, last=None, needs=(), takes=()):
    """parse() for a payload of parts joined by seps, each exactly once and
    in this order.  last converts the final part, raising ValueError with
    what it needs; the values of the attributes in needs (required) and in
    takes (optional, else None) follow the parts."""

    def parse(payload, attrs):
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
        return (*parts, *[_required(attrs, n) for n in needs],
                *[attrs.get(n) for n in takes])

    return parse


def _integer(text):
    if not re.fullmatch(r"\d+", text):
        raise ValueError("an integer")
    return int(text)


def _zero(text):
    # the runner expands only the left-hand side and compares it with zero
    if text != "0":
        raise ValueError("the right-hand side 0")


def _int_list(text, what):
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise SuiteError(f"{what} entry is not an integer in {text!r}") from None


def _split_exprs(payload):
    return tuple(e.strip() for e in payload.split(",") if e.strip())


def _compare(a: RatFunc, b: RatFunc) -> bool:
    fld = _join_fields(a.field, b.field)
    return ratfunc_eq(a.embed(fld), b.embed(fld))


def _run_order(suite: Suite, check: Check):
    name, want = check.fields
    g = suite.group(name)
    return g.order == want, f"order {g.order}, expected {want}"


def _run_transitive(suite: Suite, check: Check):
    (name,) = check.fields
    return is_transitive(suite.group(name)), f"orbit of 1 under {name}"


def _run_normal(suite: Suite, check: Check):
    hname, gname = check.fields
    return (
        is_normal(suite.group(hname), suite.group(gname)),
        f"{hname} normal in {gname}",
    )


def _run_permeq(suite: Suite, check: Check):
    left, right = check.fields
    lp, rp = suite.perm_word(left), suite.perm_word(right)
    return (lp == rp) == (check.kind == "permeq"), f"{left} = {lp}, {right} = {rp}"


def _run_member(suite: Suite, check: Check):
    wtext, gname = check.fields
    p = suite.perm_word(wtext)
    inside = p in suite.group(gname)
    return inside == (check.kind == "member"), f"{p} vs {gname}"


def _run_groupeq(suite: Suite, check: Check):
    left, right = check.fields
    same = groups_equal(suite.group(left), suite.group(right))
    return same, f"element sets of {left} and {right}"


def _parse_wreath(payload, attrs):
    m = re.fullmatch(r"(\S+)\s*=\s*(\S+)\s+wr\s+(\S+)\s+blocks\s*=\s*(.+)", payload)
    if not m:
        raise SuiteError(f"needs 'G = H wr K blocks = ...' in {payload!r}")
    gname, inner, outer, blocks = m.groups()
    return gname, inner, outer, [_int_list(b, "block") for b in blocks.split("|")]


def _run_wreath(suite: Suite, check: Check):
    gname, inner, outer, blocks = check.fields
    w = wreath_product(named_group(inner), named_group(outer), blocks)
    g = suite.group(gname)
    same = groups_equal(w, g)
    return same, f"{inner} wr {outer} order {w.order} vs {gname} order {g.order}"


def _parse_gl23(payload, attrs):
    """elem= and the rows, reduced mod 3, of matrix=a,b;c,d."""
    elem = _required(attrs, "elem")
    rows = [_int_list(row, "matrix") for row in _required(attrs, "matrix").split(";")]
    if len(rows) != 2 or any(len(r) != 2 for r in rows):
        raise SuiteError("matrix must be 2x2")
    return elem, [[x % 3 for x in row] for row in rows]


def _run_gl23(suite: Suite, check: Check):
    elem, rows = check.fields
    if not suite.gl23map:
        raise SuiteError("gl23 check without gl23map")
    g = suite.perm_word(elem)
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
    expr, gname = check.fields
    f = suite.ground_expr(expr)
    for gen in suite.group(gname).generators:
        if not _compare(perm_act(gen, f), f):
            return False, f"moved by {gen}"
    return True, f"fixed by all generators of {gname}"


def _parse_table(payload, attrs):
    """(table, image texts, symbols of elem=, via) of a table row."""
    m = re.fullmatch(r"(\S+)\s+images\s*=\s*(.+)", payload)
    if not m:
        raise SuiteError(f"needs '<table> images = <expressions>' in {payload!r}")
    tname, images = m.groups()
    symbols = tuple(_required(attrs, "elem").split("*"))
    return tname, _split_exprs(images), symbols, attrs.get("via", "ground")


def _run_table(suite: Suite, check: Check):
    tname, image_texts, symbols, via = check.fields
    table = suite.table(tname)
    if len(image_texts) != len(table.vt):
        raise SuiteError(
            f"row covers {len(image_texts)} of {len(table.vt)} variables of {tname}"
        )
    fld = table.field
    if any("zeta3" in t for t in image_texts) and not fld.has_zeta3:
        fld = F4 if fld.char == 2 else QZ3
    images = [parse_expr(t, table.vt, fld) for t in image_texts]
    ok, detail = verify_table_row(suite, table, symbols, images, via)
    # only verified single-element rows become actions later tables build on
    if ok and len(symbols) == 1 and check.attrs.get("expect") != "fail":
        suite.register_action(table, symbols[0], images, conj=(symbols[0] == "rho"))
    if ok and not detail:
        detail = f"all {len(images)} images verified via {via}"
    return ok, detail


def verify_table_row(suite: Suite, table: Table, symbols, images, via: str):
    """Check one action-table row: the claimed images, pushed through the
    definitions, must match the action of the word (its symbols, applied
    right to left) on the definitions.

    via='ground' compares at the root under the permutation (and rho)
    action; via='parent' compares one level down using the parent's
    registered rows."""
    if via == "parent":
        if table.is_root:
            raise SuiteError("via=parent on a root table")
        level, defs = table.parent, table.defs
    else:
        level, defs = table.root(), table.grounded()
    fld = table.field
    for img in images:
        fld = _join_fields(fld, img.field)
    sub = Substitution(table.vt, [d.embed(fld) for d in defs])
    for i, (d, img) in enumerate(zip(defs, images)):
        for sym in reversed(symbols):
            d = suite.apply_symbol(level, sym, d)
        if not _compare(d, sub(img)):
            return False, f"row entry {i + 1} ({table.vt.names[i]}) mismatches"
    return True, ""


def _run_identity(suite: Suite, check: Check):
    expr, _, over = check.fields
    stop = suite.table(over) if over else None
    val = suite.ground_expr(expr, stop=stop)
    return val.is_zero(), "expands to zero" if val.is_zero() else "nonzero"


def _run_distinct(suite: Suite, check: Check):
    vals = [suite.ground_expr(e) for e in check.fields]
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            if _compare(vals[i], vals[j]):
                return False, f"expressions {i + 1} and {j + 1} coincide"
    return True, "pairwise distinct"


def _run_degree(suite: Suite, check: Check):
    tname, want = check.fields
    table = suite.table(tname)
    if table.defs is None:
        raise SuiteError(f"table {tname!r} has no definitions to take degrees of")
    d = abs(det_fraction_free(table.lattice().unit_rows()))
    return d == want, f"|det| = {d}, expected {want}"


def _run_monomial(suite: Suite, check: Check):
    tname, gname, pure = check.fields
    table = suite.table(tname)
    group = suite.group(gname)
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


def _parse_word(payload, attrs):
    """(table, elem=, the matrix symbols of word=a^2*b): a factor name^k
    stands for k copies of name, k >= 1 (there is no inverse to give k < 1
    a meaning)."""
    elem, syms = _required(attrs, "elem"), []
    for part in _required(attrs, "word").split("*"):
        m = re.fullmatch(r"([^^]+)(?:\^([1-9][0-9]*))?", part)
        if not m:
            raise SuiteError(
                f"needs word= factors name or name^k with an integer k >= 1, got {part!r}"
            )
        syms.extend([m.group(1)] * int(m.group(2) or 1))
    return payload.strip(), elem, syms


def _run_word(suite: Suite, check: Check):
    tname, elem, syms = check.fields
    table = suite.table(tname)
    g = suite.perm_word(elem)
    target = matrix_word(syms, suite.matrices)
    bmat, _ = suite.scaled_action(table, g)
    return bmat == target, f"extracted matrix vs word {check.attrs['word']}"


def _run_matgroup(suite: Suite, check: Check):
    tname, gname, syms = check.fields
    table = suite.table(tname)
    group = suite.group(gname)
    gens = [suite.scaled_action(table, gen)[0] for gen in group.generators]
    left = matrix_group_elements(gens)
    right = matrix_group_elements([matrix_word([s], suite.matrices) for s in syms])
    return left == right, f"orders {len(left)} vs {len(right)}"


def _image_group(suite: Suite, check: Check):
    """(G, phi, phi(1), |phi(G)|) of a kernel kind: phi(g) is
    scaled_action(table, g), B alone for matrix-kernel, and phi(G) is
    closed on the generators' images.  phi is a homomorphism as long as
    phi(g) is unique: Lattice rejects dependent exponent rows, and no two
    definitions of a table that is not monomial may be proportional."""
    tname, gname = check.fields[:2]
    table, group = suite.table(tname), suite.group(gname)
    if not (table.is_root or table.lattice().monomial or table.unproportional):
        require_unproportional(table.grounded())
        table.unproportional = True
    n = len(table.vt)
    if check.kind == "matrix-kernel":
        one, times = mat_identity(n), matrix_times
        phi = lambda g: suite.scaled_action(table, g)[0]
    else:
        one, times = (mat_identity(n), (table.field.one(),) * n), scaled_times(table.field)
        phi = lambda g: suite.scaled_action(table, g)
    return group, phi, one, len(close(map(phi, group.generators), one, times, group.order))


def _run_kernel(suite: Suite, check: Check):
    """ker phi = H iff H <= G, phi(H) = 1 and |G| = |H|*|phi(G)|."""
    group, phi, one, image = _image_group(suite, check)
    hname = check.fields[2]
    claimed = suite.group(hname)
    ok = claimed.order * image == group.order and all(
        h in group and phi(h) == one for h in claimed.generators
    )
    return ok, f"kernel order {group.order // image} vs |{hname}| = {claimed.order}"


def _run_faithful(suite: Suite, check: Check):
    tname, gname = check.fields
    group, _, _, image = _image_group(suite, check)
    return image == group.order, f"kernel of {gname} acting on {tname}"


def _run_stable(suite: Suite, check: Check):
    tname, gname = check.fields
    defs = suite.table(tname).grounded()
    for gen in suite.group(gname).generators:
        if induced_scaled_permutation(defs, gen) is None:
            return False, f"{gen} leaves the span of {tname}"
    return True, "every generator acts by a scaled permutation"


def _run_same_action(suite: Suite, check: Check):
    tname, elem = check.fields
    g = suite.perm_word(elem)
    p = suite.induced_perm(suite.table(tname), g)
    return p == g, f"induced {p} vs {g}"


def _run_induced(suite: Suite, check: Check):
    tname, cycles, elem = check.fields
    table = suite.table(tname)
    p = suite.induced_perm(table, suite.perm_word(elem))
    want = parse_cycles(cycles, len(table.vt))
    return p == want, f"induced {p}, expected {want}"


def _run_induced_order(suite: Suite, check: Check):
    tname, gname, want, transitive = check.fields
    table = suite.table(tname)
    group = suite.group(gname)
    perms = [suite.induced_perm(table, gen) for gen in group.generators]
    ind = PermGroup(perms, degree=len(table.vt))
    ok = ind.order == want
    detail = f"induced order {ind.order}, expected {want}"
    if transitive is not None:
        trans = is_transitive(ind)
        ok = ok and trans == (transitive == "yes")
        detail += f"; transitive = {trans}"
    return ok, detail


# kind -> its parse, run when the suite loads, and its run
KINDS: dict[str, CheckKind] = {
    "order": CheckKind(_shape("=", last=_integer), _run_order),
    "transitive": CheckKind(_shape(), _run_transitive),
    "normal": CheckKind(_shape(" in "), _run_normal),
    "permeq": CheckKind(_shape("=="), _run_permeq),
    "permneq": CheckKind(_shape("!="), _run_permeq),
    "member": CheckKind(_shape(" in "), _run_member),
    "notmember": CheckKind(_shape(" in "), _run_member),
    "groupeq": CheckKind(_shape("=="), _run_groupeq),
    "wreath": CheckKind(_parse_wreath, _run_wreath),
    "gl23": CheckKind(_parse_gl23, _run_gl23),
    "invariance": CheckKind(_shape(" under "), _run_invariance),
    "table": CheckKind(_parse_table, _run_table),
    "identity": CheckKind(_shape("==", last=_zero, takes=("over",)), _run_identity),
    "distinct": CheckKind(lambda payload, attrs: _split_exprs(payload), _run_distinct),
    "degree": CheckKind(_shape("=", last=_integer), _run_degree),
    "monomial": CheckKind(_shape(" under ", takes=("pure",)), _run_monomial),
    "word": CheckKind(_parse_word, _run_word),
    "matgroup": CheckKind(_shape(" under ", "==", last=str.split), _run_matgroup),
    "matrix-kernel": CheckKind(_shape(" under ", "="), _run_kernel),
    "action-kernel": CheckKind(_shape(" under ", "="), _run_kernel),
    "faithful": CheckKind(_shape(" under "), _run_faithful),
    "stable": CheckKind(_shape(" under "), _run_stable),
    "same-action": CheckKind(_shape(needs=("elem",)), _run_same_action),
    "induced": CheckKind(_shape("=", needs=("elem",)), _run_induced),
    "induced-order": CheckKind(
        _shape(" under ", "=", last=_integer, takes=("transitive",)), _run_induced_order
    ),
}


# ---------------------------------------------------------------------------
# runner


def run_parsed_suite(suite: Suite, fail_fast: bool = False) -> SuiteReport:
    results = []
    raw_status = {}
    for check in suite.checks:
        attrs = check.attrs
        try:
            ok, detail = _run_check(suite, check)
        except (SuiteError, ActionError, MonomialError, PolyError, FieldError,
                PermError, ParseError, ZeroDivisionError) as exc:
            ok, detail = False, f"error: {exc}"
        raw_status[check.id] = ok
        if attrs.get("expect") == "fail":
            if ok:
                status = FAIL
                detail = "expected to fail but passed; " + detail
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


def _data_dir():
    return resources.files("fixedfield").joinpath("data")


def list_suites():
    """The stable list of shipped suites, in canonical run order."""
    return list(CANONICAL_SUITES)


def load_suite(name: str) -> Suite:
    if name not in CANONICAL_SUITES:
        raise SuiteError(f"unknown suite {name!r}")
    path = _data_dir().joinpath(f"{name}.suite")
    suite = parse_suite_text(path.read_text(encoding="utf-8"))
    if suite.name != name:
        raise SuiteError(f"suite file {name}.suite declares name {suite.name!r}")
    return suite


def run_suite(name: str, fail_fast: bool = False) -> SuiteReport:
    return run_parsed_suite(load_suite(name), fail_fast=fail_fast)


def report_to_json(reports) -> str:
    if isinstance(reports, SuiteReport):
        doc = reports.to_dict()
    else:
        doc = [r.to_dict() for r in reports]
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"

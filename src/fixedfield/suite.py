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
from dataclasses import dataclass
from importlib import resources

from .actions import (
    ActionError,
    action_kernel,
    extract_monomial_action,
    induced_permutation,
    induced_scaled_permutation,
    perm_act,
    permutation_matrix,
    verify_faithful,
)
from .monomial import (
    MonomialError,
    det_fraction_free,
    exponent_matrix,
    is_square,
    mat_from_rows,
    mat_identity,
    mat_mul,
    matrix_group_elements,
    matrix_word,
    monomial_shape,
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
from .scalars import F4, QZ3, Field, FieldError, field_by_tag


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
        self.checks: list[dict] = []
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

    def apply_word(self, table: Table, word: str, f: RatFunc) -> RatFunc:
        for sym in reversed(word.split("*")):
            f = self.apply_symbol(table, sym.strip(), f)
        return f

    def root_word_act(self, word: str, f: RatFunc) -> RatFunc:
        """Apply a word of permutations (and rho) at the root level."""
        for sym in reversed(word.split("*")):
            sym = sym.strip()
            if sym == "rho":
                f = f.conj()
            else:
                f = perm_act(self.perm_word(sym), f)
        return f

    # ------------------------------------------------------------------
    # scaled monomial actions (recursing through the table ancestry)

    def induced_perm(self, table: Table, g: Perm) -> Perm:
        """Induced permutation on a generator set; exponent-lattice route
        for monomial tables, direct grounded comparison otherwise."""
        if table.defs is not None and all(
            monomial_shape(d) is not None for d in table.defs
        ):
            try:
                bmat, dvec = self.scaled_action(table, g)
            except (MonomialError, SuiteError):
                return induced_permutation(table.grounded(), g)
            n = len(table.vt)
            one = table.field.one()
            images = [0] * n
            for j in range(n):
                col = [bmat[i][j] for i in range(n)]
                nonzero = [i for i, v in enumerate(col) if v]
                if len(nonzero) != 1 or col[nonzero[0]] != 1 or dvec[j] != one:
                    raise ActionError(
                        f"{g} does not act on {table.name} by a pure permutation"
                    )
                images[j] = nonzero[0] + 1
            return Perm(images)
        return induced_permutation(table.grounded(), g)

    def matrix_kernel(self, table: Table, group: PermGroup) -> frozenset:
        """Elements of the group whose lattice matrix on the table is the
        identity, from the generators' matrices carried along the group
        (B(gh) = B(g) B(h))."""
        ident = mat_identity(len(table.vt))
        gen_mats = [self.scaled_action(table, g)[0] for g in group.generators]
        images = group.images_under(gen_mats, ident, mat_mul)
        return frozenset(g for g, bmat in images.items() if bmat == ident)

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
            shapes = [monomial_shape(d) for d in table.defs]
            if all(s is not None for s in shapes):
                bp, dp = self.scaled_action(table.parent, g)
                dp = tuple(
                    dv if table.parent.field is fld else _embed_payload(dv, table.parent.field, fld)
                    for dv in dp
                )
                out = extract_monomial_action(
                    table.defs, g, ambient_action=(bp, dp), field=fld
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


def _embed_payload(value, src: Field, dst: Field):
    from .scalars import embed

    return embed(value, src, dst)


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
                _parse_def(suite, rest)
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


# kind -> (separators the payload needs, each exactly once and in this
# order; attributes the check cannot run without)
_CHECK_SHAPES = {
    "order": (("=",), ()),
    "transitive": ((), ()),
    "normal": ((" in ",), ()),
    "permeq": (("==",), ()),
    "permneq": (("!=",), ()),
    "member": ((" in ",), ()),
    "notmember": ((" in ",), ()),
    "groupeq": (("==",), ()),
    "wreath": ((), ()),
    "gl23": ((), ("elem", "matrix")),
    "invariance": ((" under ",), ()),
    "table": ((), ("elem",)),
    "identity": (("==",), ()),
    "distinct": ((), ()),
    "degree": (("=",), ()),
    "monomial": ((" under ",), ()),
    "word": ((), ("elem", "word")),
    "matgroup": ((" under ", "=="), ()),
    "matrix-kernel": ((" under ", "="), ()),
    "action-kernel": ((" under ", "="), ()),
    "faithful": ((" under ",), ()),
    "stable": ((" under ",), ()),
    "same-action": ((), ("elem",)),
    "induced": (("=",), ("elem",)),
    "induced-order": ((" under ", "="), ()),
}
# kind -> (pattern, description) of what must follow the last separator
_TAILS = {
    "order": (r"\d+", "an integer"),
    "degree": (r"\d+", "an integer"),
    "induced-order": (r"\d+", "an integer"),
    # the runner expands only the left-hand side and compares it with zero
    "identity": (r"0", "the right-hand side 0"),
}


def _parse_check(suite: Suite, rest, seq):
    body, attrs = _strip_attrs(" " + rest)
    bits = body.split(None, 1)
    kind = bits[0]
    payload = bits[1] if len(bits) > 1 else ""
    if kind not in _CHECK_SHAPES:
        raise SuiteError(f"unknown check kind {kind!r}")
    separators, required = _CHECK_SHAPES[kind]
    tail = payload
    for sep in separators:
        if tail.count(sep) != 1:
            raise SuiteError(
                f"check {kind} needs one {sep.strip()!r} in {payload!r}"
            )
        tail = tail.split(sep)[1]
    if kind in _TAILS:
        pattern, what = _TAILS[kind]
        if not re.fullmatch(rf"\s*{pattern}\s*", tail):
            raise SuiteError(
                f"check {kind} needs {what} after {separators[-1]!r} in {payload!r}"
            )
    for name in required:
        if name not in attrs:
            raise SuiteError(f"check {kind} is missing its {name}=")
    if "ref" not in attrs or not attrs["ref"].strip():
        raise SuiteError(f"check {kind} is missing its ref=\"...\"")
    if attrs.get("expect") not in (None, "fail"):
        raise SuiteError("expect= accepts only 'fail'")
    if attrs.get("expect") == "fail" and ("pair" not in attrs or "note" not in attrs):
        raise SuiteError("expect=fail checks need pair= and note=")
    check = {
        "kind": kind,
        "payload": payload,
        "attrs": attrs,
        "id": attrs.get("id", f"{kind}-{seq:03d}"),
    }
    if kind == "wreath":
        check["wreath"] = _parse_wreath(payload)
    elif kind == "gl23":
        check["matrix"] = _parse_gl23_matrix(attrs["matrix"])
    if any(c["id"] == check["id"] for c in suite.checks):
        raise SuiteError(f"duplicate check id {check['id']!r}")
    suite.checks.append(check)


def _int_list(text, what):
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise SuiteError(f"{what} entry is not an integer in {text!r}") from None


def _parse_wreath(payload):
    """(group, inner, outer, blocks) of a wreath check."""
    m = re.match(r"(\S+)\s*=\s*(\S+)\s+wr\s+(\S+)\s+blocks\s*=\s*(.+)$", payload)
    if not m:
        raise SuiteError(f"bad wreath check {payload!r}")
    gname, inner, outer, blockstext = m.groups()
    blocks = [_int_list(b, "wreath block") for b in blockstext.split("|")]
    return gname, inner, outer, blocks


def _parse_gl23_matrix(text):
    """The rows, reduced mod 3, of a gl23 check's matrix=a,b;c,d."""
    rows = [_int_list(row, "gl23 matrix") for row in text.split(";")]
    if len(rows) != 2 or any(len(r) != 2 for r in rows):
        raise SuiteError("gl23 matrix must be 2x2")
    return [[x % 3 for x in row] for row in rows]


# ---------------------------------------------------------------------------
# runner


def run_parsed_suite(suite: Suite, fail_fast: bool = False) -> SuiteReport:
    results = []
    raw_status = {}
    for check in suite.checks:
        cid = check["id"]
        attrs = check["attrs"]
        try:
            ok, detail = _run_check(suite, check)
        except (SuiteError, ActionError, MonomialError, PolyError, FieldError,
                PermError, ParseError, ZeroDivisionError) as exc:
            ok, detail = False, f"error: {exc}"
        raw_status[cid] = ok
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
        results.append(CheckResult(cid, attrs["ref"], status, detail))
        if fail_fast and status == FAIL:
            break
    # a flagged discrepancy is only legitimate when its paired corrected
    # check passed; otherwise it is an ordinary failure
    for res, check in zip(results, suite.checks):
        if res.status == FLAGGED:
            pair = check["attrs"]["pair"]
            if not raw_status.get(pair, False):
                res.status = FAIL
                res.detail += f" (paired corrected check {pair} did not pass)"
    return SuiteReport(suite.name, results)


def _split_exprs(payload):
    return [e.strip() for e in payload.split(",") if e.strip()]


def _compare(a: RatFunc, b: RatFunc) -> bool:
    fld = _join_fields(a.field, b.field)
    return ratfunc_eq(a.embed(fld), b.embed(fld))


def _run_check(suite: Suite, check):
    kind = check["kind"]
    payload = check["payload"]
    attrs = check["attrs"]

    if kind == "order":
        name, num = payload.split("=")
        g = suite.group(name.strip())
        want = int(num)
        return g.order == want, f"order {g.order}, expected {want}"

    if kind == "transitive":
        g = suite.group(payload.strip())
        return is_transitive(g), f"orbit of 1 under {payload.strip()}"

    if kind == "normal":
        hname, gname = [s.strip() for s in payload.split(" in ")]
        return (
            is_normal(suite.group(hname), suite.group(gname)),
            f"{hname} normal in {gname}",
        )

    if kind in ("permeq", "permneq"):
        sep = "==" if kind == "permeq" else "!="
        left, right = [s.strip() for s in payload.split(sep)]
        lp, rp = suite.perm_word(left), suite.perm_word(right)
        same = lp == rp
        detail = f"{left} = {lp}, {right} = {rp}"
        return (same if kind == "permeq" else not same), detail

    if kind in ("member", "notmember"):
        wtext, gname = [s.strip() for s in payload.split(" in ")]
        p = suite.perm_word(wtext)
        inside = p in suite.group(gname)
        return (inside if kind == "member" else not inside), f"{p} vs {gname}"

    if kind == "groupeq":
        left, right = [s.strip() for s in payload.split("==")]
        same = groups_equal(suite.group(left), suite.group(right))
        return same, f"element sets of {left} and {right}"

    if kind == "wreath":
        gname, inner, outer, blocks = check["wreath"]
        w = wreath_product(named_group(inner), named_group(outer), blocks)
        g = suite.group(gname)
        same = groups_equal(w, g)
        return same, f"{inner} wr {outer} order {w.order} vs {gname} order {g.order}"

    if kind == "gl23":
        return _check_gl23(suite, attrs["elem"], check["matrix"])

    if kind == "invariance":
        expr, gname = payload.rsplit(" under ", 1)
        f = suite.ground_expr(expr.strip())
        group = suite.group(gname.strip())
        for gen in group.generators:
            if not _compare(perm_act(gen, f), f):
                return False, f"moved by {gen}"
        return True, f"fixed by all generators of {gname.strip()}"

    if kind == "table":
        return _check_table(suite, payload, attrs)

    if kind == "identity":
        expr = payload.rsplit("==", 1)[0].strip()
        stop = suite.table(attrs["over"]) if "over" in attrs else None
        val = suite.ground_expr(expr, stop=stop)
        return val.is_zero(), "expands to zero" if val.is_zero() else "nonzero"

    if kind == "distinct":
        exprs = _split_exprs(payload)
        vals = [suite.ground_expr(e) for e in exprs]
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                if _compare(vals[i], vals[j]):
                    return False, f"expressions {i + 1} and {j + 1} coincide"
        return True, "pairwise distinct"

    if kind == "degree":
        tname, num = payload.split("=")
        table = suite.table(tname.strip())
        m = exponent_matrix(table.defs)
        if not is_square(m):
            raise SuiteError(f"exponent matrix of {tname.strip()} is not square")
        d = abs(det_fraction_free(m))
        return d == int(num), f"|det| = {d}, expected {int(num)}"

    if kind == "monomial":
        tname, gname = [s.strip() for s in payload.split(" under ")]
        table = suite.table(tname)
        group = suite.group(gname)
        impure = []
        for gen in group.generators:
            _, dvec = suite.scaled_action(table, gen)
            if any(c != table.field.one() for c in dvec):
                impure.append(str(gen))
        want = attrs.get("pure")
        if want == "yes":
            return not impure, f"impure generators: {impure}" if impure else "purely monomial"
        if want == "no":
            return bool(impure), "no impure generator found" if not impure else \
                f"impure generators: {', '.join(impure)}"
        return True, "monomial action (purity not asserted)"

    if kind == "word":
        tname = payload.strip()
        table = suite.table(tname)
        g = suite.perm_word(attrs["elem"])
        syms = _expand_word_symbols(attrs["word"])
        target = matrix_word(syms, suite.matrices)
        bmat, _ = suite.scaled_action(table, g)
        return bmat == target, f"extracted matrix vs word {attrs['word']}"

    if kind == "matgroup":
        tname, rest = [s.strip() for s in payload.split(" under ")]
        gname, syms = [s.strip() for s in rest.split("==")]
        table = suite.table(tname)
        group = suite.group(gname)
        gens = [suite.scaled_action(table, gen)[0] for gen in group.generators]
        left = matrix_group_elements(gens)
        right = matrix_group_elements([suite.matrices[s] for s in syms.split()])
        return left == right, f"orders {len(left)} vs {len(right)}"

    if kind == "matrix-kernel":
        tname, rest = [s.strip() for s in payload.split(" under ")]
        gname, hname = [s.strip() for s in rest.split("=")]
        kernel = suite.matrix_kernel(suite.table(tname), suite.group(gname))
        target = suite.group(hname).elements
        return kernel == target, f"kernel order {len(kernel)} vs |{hname}| = {len(target)}"

    if kind == "action-kernel":
        tname, rest = [s.strip() for s in payload.split(" under ")]
        gname, hname = [s.strip() for s in rest.split("=")]
        table = suite.table(tname)
        kernel = action_kernel(table.grounded(), suite.group(gname))
        target = suite.group(hname).elements
        return kernel == target, f"kernel order {len(kernel)} vs |{hname}| = {len(target)}"

    if kind == "faithful":
        tname, gname = [s.strip() for s in payload.split(" under ")]
        table = suite.table(tname)
        ok = verify_faithful(table.grounded(), suite.group(gname))
        return ok, f"kernel of {gname} acting on {tname}"

    if kind == "stable":
        tname, gname = [s.strip() for s in payload.split(" under ")]
        table = suite.table(tname)
        defs = table.grounded()
        for gen in suite.group(gname).generators:
            if induced_scaled_permutation(defs, gen) is None:
                return False, f"{gen} leaves the span of {tname}"
        return True, "every generator acts by a scaled permutation"

    if kind == "same-action":
        tname = payload.strip()
        table = suite.table(tname)
        g = suite.perm_word(attrs["elem"])
        p = suite.induced_perm(table, g)
        return p == g, f"induced {p} vs {g}"

    if kind == "induced":
        tname, cycles = [s.strip() for s in payload.split("=", 1)]
        table = suite.table(tname)
        g = suite.perm_word(attrs["elem"])
        p = suite.induced_perm(table, g)
        want = parse_cycles(cycles, len(table.vt))
        return p == want, f"induced {p}, expected {want}"

    if kind == "induced-order":
        tname, rest = [s.strip() for s in payload.split(" under ")]
        gname, num = [s.strip() for s in rest.split("=")]
        table = suite.table(tname)
        group = suite.group(gname)
        perms = [suite.induced_perm(table, gen) for gen in group.generators]
        ind = PermGroup(perms, degree=len(table.vt))
        ok = ind.order == int(num)
        detail = f"induced order {ind.order}, expected {num}"
        if "transitive" in attrs:
            trans = is_transitive(ind)
            want_t = attrs["transitive"] == "yes"
            ok = ok and trans == want_t
            detail += f"; transitive = {trans}"
        return ok, detail

    raise SuiteError(f"unhandled check kind {kind!r}")


def _expand_word_symbols(text):
    syms = []
    for part in text.split("*"):
        if "^" in part:
            base, k = part.split("^")
            syms.extend([base] * int(k))
        else:
            syms.append(part)
    return syms


def _check_gl23(suite: Suite, elem, rows):
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


def _check_table(suite: Suite, payload, attrs):
    m = re.match(r"(\S+)\s+images\s*=\s*(.+)$", payload)
    if not m:
        raise SuiteError(f"bad table check {payload!r}")
    tname, imagestext = m.groups()
    table = suite.table(tname)
    word = attrs["elem"]
    image_texts = _split_exprs(imagestext)
    if len(image_texts) != len(table.vt):
        raise SuiteError(
            f"row covers {len(image_texts)} of {len(table.vt)} variables of {tname}"
        )
    via = attrs.get("via", "ground")
    fld = table.field
    if any("zeta3" in t for t in image_texts) and not fld.has_zeta3:
        fld = F4 if fld.char == 2 else QZ3
    images = [parse_expr(t, table.vt, fld) for t in image_texts]
    ok, detail = verify_table_row(suite, table, word, images, via)
    # only verified single-element rows become actions later tables build on
    symbols = word.split("*")
    if ok and len(symbols) == 1 and attrs.get("expect") != "fail":
        suite.register_action(table, symbols[0], images, conj=(symbols[0] == "rho"))
    if ok and not detail:
        detail = f"all {len(images)} images verified via {via}"
    return ok, detail


def verify_table_row(suite: Suite, table: Table, word: str, images, via: str):
    """Check one action-table row: the claimed images, pushed through the
    definitions, must match the action applied to the definitions.

    via='ground' compares at the root under the permutation (and rho)
    action; via='parent' compares one level down using the parent's
    registered rows."""
    symbols = [s.strip() for s in word.split("*")]
    fld = table.field
    for img in images:
        fld = _join_fields(fld, img.field)
    if via == "parent":
        if table.is_root:
            raise SuiteError("via=parent on a root table")
        parent = table.parent
        defsub = Substitution(table.vt, [d.embed(fld) for d in table.defs])
        for i, (d, img) in enumerate(zip(table.defs, images)):
            lhs = d
            for sym in reversed(symbols):
                lhs = suite.apply_symbol(parent, sym, lhs)
            rhs = defsub(img)
            if not _compare(lhs, rhs):
                return False, f"row entry {i + 1} ({table.vt.names[i]}) mismatches"
        return True, ""
    if via == "ground":
        grounded = table.grounded()
        gsub = Substitution(table.vt, [g.embed(fld) for g in grounded])
        for i, (d, img) in enumerate(zip(grounded, images)):
            lhs = suite.root_word_act(word, d)
            rhs = gsub(img)
            if not _compare(lhs, rhs):
                return False, f"row entry {i + 1} ({table.vt.names[i]}) mismatches"
        return True, ""
    raise SuiteError(f"unknown via={via!r}")


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

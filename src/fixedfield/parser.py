"""Recursive-descent parser for the expression grammar used by suite files.

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' integer)?
    base   := variable | integer | 'zeta3' | '(' expr ')' | '-' base

Whitespace is insignificant; integers are arbitrary precision; a base
sits inside at most NESTING_LIMIT '(' and unary '-', which keeps the
recursion far from Python's limit.  The result is always a RatFunc over
the supplied table, and every name but zeta3 is one of its variables; a
suite grounds an expression by substituting definitions for them.

The text is split into tokens by findall in runs, each through the
next '(' not yet read; a group skipped at that '(' (see below) is not
tokenized, and the next run starts after its ')'.  A search of the
whole text for a character that no token takes comes first, so that it
is reported before any other error.  A token's position is found again,
by the slower _tokenize, only for the message of a ParseError.

Subexpressions are evaluated as Polys: integers, zeta3 and variables.
A value becomes a RatFunc only under '/' or under a negative power, and
a Poly meets a RatFunc as the RatFunc p/1.  The RatFunc operations on
p/1 do exactly what the Poly ones do on p, so the result is the RatFunc
an evaluation through RatFuncs alone would build.

A one-term value is carried as a bare (packed monomial, payload) pair
rather than a Poly.  A term folds each run of one-term factors into one
such pair, adding monomials and multiplying payloads, and builds a Poly
only when a factor with many terms, a RatFunc or '/' arrives; while the
product is a RatFunc or zero, each factor is multiplied in as it comes.
After each monomial addition the guard bits of the product's leading
monomial are checked, which is the check a product by that factor
makes, so the caps raise at the same factor as without folding.  An
expression adds its terms into one dict until a RatFunc term arrives.

Each parenthesised group is evaluated once per memo, which maps its
exact text, '(' to its matching ')', to its value and nothing else.  The
parentheses of the text are paired once per parse, so a group's text is
known when its '(' is read.  A value depends on the text, the table and
the field alone, and no parse changes a value it reads (a Poly is never
changed; expr and term copy before they add), so every parse over one
table in one field may share one memo: a suite keeps one per pair for
as long as it lives, and a parse_expr call without one gets its own.
A group of the memo is skipped when the depth around its '(' plus its
count of '(' and '-', a bound on the depth of every base inside it,
stays within NESTING_LIMIT; otherwise it is parsed again and raises
where it would without the memo.  Neither a group that raises nor a
power of a group is stored.  A ParseError counts only the tokens outside
the skipped groups, so its position is the one a parse without a memo gives.
"""

from __future__ import annotations

import re
from bisect import bisect

from .poly import Poly, RatFunc, VarTable, _add_into, monomial_power
from .scalars import Field


class ParseError(ValueError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# The most '(' and unary '-' a base may sit inside.  The shipped suites
# and the benchmark workloads nest at most 3 deep.
NESTING_LIMIT = 100

_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
# an integer, a name or an operator; a match of the bare last
# alternative, all groups empty, is an unexpected character
_SCAN = re.compile(rf"([0-9]+)|({_NAME.pattern})|([()+\-*/^])|\S")
_UNEXPECTED = ("", "", "")
# a character that _SCAN matches only by its last alternative
_STRAY = re.compile(r"[^\s0-9A-Za-z_()+\-*/^]")
_PAREN = re.compile(r"[()]")


def _tokenize(text):
    """(kind, value, position) of each token, then ("end", None, len(text)):
    the re-scan that gives a ParseError its position and value."""
    tokens = []
    end = 0
    for m in _SCAN.finditer(text):
        num, name, op = m.groups()
        if num:
            tokens.append(("int", int(num), m.start()))
        elif name:
            tokens.append(("name", name, m.start()))
        elif op:
            tokens.append(("op", op, m.start()))
        else:
            raise ParseError(f"unexpected character {m.group()!r}", end)
        end = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text, vars: VarTable, field: Field, memo: dict):
        if _STRAY.search(text):
            _tokenize(text)  # raises at the first unexpected character
        self.text = text
        self.opens, self.closes, _ = paren_spans(text)
        self.k = 0  # the '(' that ends the tokens read so far, if any is left
        self.spans = []  # the (at, to) span of each group skipped so far
        # (integer, name, operator) strings, one of them nonempty, then an
        # all-empty end token
        self.tokens = []
        self.scan(0)
        self.i = 0
        self.depth = 0  # open '(' and unary '-' around the current base
        self.vars = vars
        self.field = field
        self.memo = memo

    def scan(self, pos):
        """Tokenize from pos through the k-th '(', else to the end."""
        if self.k < len(self.opens):
            self.tokens += _SCAN.findall(self.text, pos, self.opens[self.k] + 1)
        else:
            self.tokens += _SCAN.findall(self.text, pos)
            self.tokens.append(_UNEXPECTED)

    def error(self, message, i):
        """A ParseError at the i-th token read: the i-th token of the text
        outside the groups skipped so far."""
        read = [pos for _, _, pos in _tokenize(self.text)
                if not any(at < pos <= to for at, to in self.spans)]
        return ParseError(message, read[i])

    def poly(self, value):
        """value as a Poly or RatFunc: a one-term pair becomes a Poly."""
        if type(value) is tuple:
            return Poly(self.vars, self.field, dict((value,)))
        return value

    def parse(self):
        out = self.expr()
        if self.tokens[self.i] != _UNEXPECTED:
            raise self.error(f"trailing input {_value(self.tokens[self.i])!r}", self.i)
        return self.poly(out)

    def expr(self):
        out = self.term()
        op = self.tokens[self.i][2]
        if op != "+" and op != "-":
            return out
        f = self.field
        # the sum so far: a dict of terms until a term is a RatFunc
        terms = None if type(out) is RatFunc else dict(self.poly(out).terms)
        while op == "+" or op == "-":
            self.i += 1
            rhs = self.term()
            if terms is not None and type(rhs) is not RatFunc:
                rhs = self.poly(rhs).terms
                if op == "-":
                    rhs = {e: f.neg(c) for e, c in rhs.items()}
                _add_into(terms, rhs, f)
            else:
                if terms is not None:
                    out, terms = Poly(self.vars, f, terms), None
                out, rhs = _ratfunc(out), _ratfunc(self.poly(rhs))
                out = out + rhs if op == "+" else out - rhs
            op = self.tokens[self.i][2]
        return out if terms is None else Poly(self.vars, f, terms)

    def term(self):
        out = self.factor()
        op = self.tokens[self.i][2]
        if op != "*" and op != "/":
            return out
        vt, f = self.vars, self.field
        mul, one, check = f.mul, f.one(), vt.check
        # the product is prod times the run (mono, coef) of one-term factors
        # after it; prod is None before the first factor that does not fold
        prod, mono, coef = (None, *out) if type(out) is tuple else (out, 0, one)
        # a run folds while prod is None or a nonzero Poly, whose leading
        # monomial lead times the run is the leading monomial of the product
        folds, lead = _folds(prod)
        while op == "*" or op == "/":
            pos = self.i  # the operator's index in tokens
            self.i += 1
            rhs = self.factor()
            if op == "*" and type(rhs) is tuple and folds:
                e, c = rhs
                if e:
                    mono += e
                    check(lead + mono)
                if c != one:
                    coef = c if coef == one else mul(coef, c)
            else:
                if mono or coef != one or prod is None:
                    run = Poly(vt, f, {mono: coef})
                    prod = run if prod is None else prod * run
                    mono, coef = 0, one
                rhs = self.poly(rhs)
                if op == "*":
                    prod, rhs = _same_kind(prod, rhs)
                    prod = prod * rhs
                else:
                    if rhs.is_zero():
                        raise self.error("division by zero", pos)
                    prod = _ratfunc(prod) / _ratfunc(rhs)
                folds, lead = _folds(prod)
            op = self.tokens[self.i][2]
        if prod is None:
            return mono, coef
        if mono or coef != one:
            prod = prod * Poly(vt, f, {mono: coef})
        return prod

    def factor(self):
        out = self.base()
        tokens = self.tokens
        if tokens[self.i][2] != "^":
            return out
        self.i += 1
        sign = 1
        if tokens[self.i][2] == "-":
            sign = -1
            self.i += 1
        num = tokens[self.i][0]
        if not num:
            raise self.error("expected integer exponent", self.i)
        n = sign * int(num)
        self.i += 1
        if sign < 0:
            out = self.poly(out)
            if n < 0 and out.is_zero():
                raise self.error("negative power of zero", self.i - 1)
            return _ratfunc(out) ** n
        if type(out) is tuple:
            return monomial_power(self.vars, self.field, *out, n)
        return out**n

    def base(self):
        num, name, op = self.tokens[self.i]
        self.i += 1
        f = self.field
        if num:
            c = f.from_int(int(num))
            return (0, c) if c != f.zero() else Poly.zero(self.vars, f)
        if name:
            if name == "zeta3":
                if not f.has_zeta3:
                    raise self.error(f"zeta3 is not available over {f.tag}", self.i - 1)
                return 0, f.zeta3()
            if name not in self.vars:
                raise self.error(f"unknown variable {name!r}", self.i - 1)
            return self.vars.variable(name), f.one()
        if op == "(" or op == "-":
            self.depth += 1
            if self.depth > NESTING_LIMIT:
                raise self.error(f"nesting deeper than {NESTING_LIMIT}", self.i - 1)
            if op == "(":
                out = self.group()
            else:
                out = self.base()
                out = (out[0], f.neg(out[1])) if type(out) is tuple else -out
            self.depth -= 1
            return out
        if not op:  # the end token
            raise self.error("unexpected end of expression", self.i - 1)
        raise self.error(f"unexpected token {op!r}", self.i - 1)

    def group(self):
        """The value of the group whose '(' was just read.  A group of the
        memo is skipped when its bound on the depth inside fits under the
        cap; any other is parsed, and stored unless it raises."""
        k = self.k
        at, to = self.opens[k], self.closes[k]
        key = None if to is None else self.text[at:to + 1]
        out = self.memo.get(key)
        # self.depth - 1 is the depth around the '('
        if out is not None and self.depth - 1 + key.count("(") + key.count("-") <= NESTING_LIMIT:
            self.spans.append((at, to))
            self.k = bisect(self.opens, to, k + 1)
            self.scan(to + 1)
            return out
        self.k = k + 1
        self.scan(at + 1)
        out = self.expr()
        if self.tokens[self.i][2] != ")":
            raise self.error("expected ')'", self.i)
        self.i += 1
        # the ')' just read matches the '(': key is this group's text
        self.memo[key] = out
        return out


def _value(token):
    """The value of a token other than the end in a message: an int or a
    string."""
    num, name, op = token
    return int(num) if num else name or op


def _folds(prod):
    """(whether one-term factors fold after prod, its leading monomial)."""
    if prod is None:
        return True, 0
    if type(prod) is Poly and prod.terms:
        return True, max(prod.terms)
    return False, 0


def _ratfunc(value):
    return RatFunc.from_poly(value) if isinstance(value, Poly) else value


def _same_kind(a, b):
    """a and b, both Polys or both RatFuncs."""
    if type(a) is type(b):
        return a, b
    return _ratfunc(a), _ratfunc(b)


def parse_expr(text: str, vars: VarTable, field: Field, memo: dict | None = None) -> RatFunc:
    """The value of text over vars in field, as a RatFunc; every name but
    zeta3 must be a variable of vars.  str(r) parses back to r.  memo maps
    group texts to their values over vars in field; calls over the same
    vars and field may share one, and None gives this call its own."""
    return _ratfunc(_Parser(text, vars, field, {} if memo is None else memo).parse())


def paren_spans(text: str):
    """(opens, closes, stray) of the parentheses of text.  opens[k] is the
    position of the k-th '(' and closes[k] that of its matching ')', or
    None when it has none; stray is the position of the first ')' that
    closes no '(', else of the first '(' left open, else None."""
    opens, closes, stray = [], [], None
    if "(" not in text and ")" not in text:
        return opens, closes, stray
    pending = []  # the indices in opens of the '(' not yet closed
    for m in _PAREN.finditer(text):
        at = m.start()
        if m.group() == "(":
            pending.append(len(opens))
            opens.append(at)
            closes.append(None)
        elif pending:
            closes[pending.pop()] = at
        elif stray is None:
            stray = at
    if stray is None and pending:
        stray = opens[pending[0]]
    return opens, closes, stray


def require_variable_names(names):
    """ValueError at the first of names that no expression can name: one
    that is not a name token, or zeta3, which is read as the constant."""
    for n in names:
        if n == "zeta3" or not _NAME.fullmatch(n):
            why = "is reserved for the cube root of unity" if n == "zeta3" else "is not a name"
            raise ValueError(f"variable name {n!r} {why}")


def expression_names(text: str):
    """The set of name tokens of an expression, zeta3 included.  A name
    cannot start inside an integer token, so scanning for names alone
    finds the name tokens, without matching every other token."""
    return set(_NAME.findall(text))

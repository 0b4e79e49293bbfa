"""Recursive-descent parser for the expression grammar used by suite files.

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' integer)?
    base   := variable | integer | 'zeta3' | '(' expr ')' | '-' base

Whitespace is insignificant; integers are arbitrary precision; a base
sits inside at most NESTING_LIMIT '(' and unary '-', which keeps the
recursion far from Python's limit.  The
result is always a RatFunc over the supplied table.  Each name evaluates
through one resolver: by default to the table's variable of that name, or,
given leaf, to leaf(name), which is how a suite grounds a check expression
by evaluating it at the definitions of its variables.

Subexpressions are evaluated as Polys: integers, zeta3 and every leaf
whose denominator is 1.  A value becomes a RatFunc only under '/', under
a negative power, or when a leaf is a proper fraction, and a Poly meets
a RatFunc as the RatFunc p/1.  The RatFunc operations on p/1 do exactly
what the Poly ones do on p, so the result is the RatFunc an evaluation
through RatFuncs alone would build.
"""

from __future__ import annotations

import re

from .poly import Poly, RatFunc, VarTable
from .scalars import Field


class ParseError(ValueError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# The most '(' and unary '-' a base may sit inside.  The shipped suites
# and the benchmark workloads nest at most 3 deep.
NESTING_LIMIT = 100

_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_TOKEN = re.compile(rf"\s*(?:(\d+)|({_NAME.pattern})|([()+\-*/^]))")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos:].strip()[0]!r}", pos)
        if m.group(1) is not None:
            tokens.append(("int", int(m.group(1)), m.start(1)))
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2), m.start(2)))
        else:
            tokens.append(("op", m.group(3), m.start(3)))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text, vars: VarTable, field: Field, leaf):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0  # open '(' and unary '-' around the current base
        self.vars = vars
        self.field = field
        self.leaf = leaf

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", pos)

    def parse(self):
        out = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input {val!r}", pos)
        return out

    def expr(self):
        out = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                out, rhs = _same_kind(out, self.term())
                out = out + rhs if val == "+" else out - rhs
            else:
                return out

    def term(self):
        out = self.factor()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                rhs = self.factor()
                if val == "*":
                    out, rhs = _same_kind(out, rhs)
                    out = out * rhs
                else:
                    if rhs.is_zero():
                        raise ParseError("division by zero", pos)
                    out = _ratfunc(out) / _ratfunc(rhs)
            else:
                return out

    def factor(self):
        out = self.base()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.next()
            sign = 1
            kind, val, pos = self.next()
            if kind == "op" and val == "-":
                sign = -1
                kind, val, pos = self.next()
            if kind != "int":
                raise ParseError("expected integer exponent", pos)
            if sign * val < 0 and out.is_zero():
                raise ParseError("negative power of zero", pos)
            out = (_ratfunc(out) if sign < 0 else out) ** (sign * val)
        return out

    def base(self):
        kind, val, pos = self.next()
        if kind == "int":
            return Poly.const(self.vars, self.field, self.field.from_int(val))
        if kind == "name":
            if val == "zeta3":
                if not self.field.has_zeta3:
                    raise ParseError(f"zeta3 is not available over {self.field.tag}", pos)
                return Poly.const(self.vars, self.field, self.field.zeta3())
            value = self.leaf(val)
            if value is None:
                raise ParseError(f"unknown variable {val!r}", pos)
            if isinstance(value, RatFunc) and value.den.is_one():
                return value.num
            return value
        if kind == "op" and val in "(-":
            self.depth += 1
            if self.depth > NESTING_LIMIT:
                raise ParseError(f"nesting deeper than {NESTING_LIMIT}", pos)
            if val == "(":
                out = self.expr()
                self.expect_op(")")
            else:
                out = -self.base()
            self.depth -= 1
            return out
        raise ParseError(f"unexpected token {val!r}", pos)


def _ratfunc(value):
    return RatFunc.from_poly(value) if isinstance(value, Poly) else value


def _same_kind(a, b):
    """a and b, both Polys or both RatFuncs."""
    if type(a) is type(b):
        return a, b
    return _ratfunc(a), _ratfunc(b)


def parse_expr(text: str, vars: VarTable, field: Field, leaf=None) -> RatFunc:
    """The value of text over vars in field, as a RatFunc.  leaf(name) is a
    name's value, a Poly or RatFunc over vars in field, or None when the
    name is unknown; by default the names are the variables of vars.
    str(r) parses back to r."""
    if leaf is None:
        leaf = lambda name: Poly.var(vars, field, name) if name in vars else None
    return _ratfunc(_Parser(text, vars, field, leaf).parse())


def expression_names(text: str):
    """The set of name tokens of an expression, zeta3 included.  A name
    cannot start inside an integer token, so scanning for names alone
    finds the name tokens, without matching every other token."""
    return set(_NAME.findall(text))


def expression_variables(text: str):
    """The set of identifiers appearing in an expression (zeta3 excluded)."""
    return expression_names(text) - {"zeta3"}

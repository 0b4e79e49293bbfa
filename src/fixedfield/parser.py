"""Recursive-descent parser for the expression grammar used by suite files.

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' integer)?
    base   := variable | integer | 'zeta3' | '(' expr ')' | '-' base

Whitespace is insignificant; integers are arbitrary precision.  The
result is always a RatFunc over the supplied table.  Each name evaluates
through one resolver: by default to the table's variable of that name, or,
given leaf, to leaf(name), which is how a suite grounds a check expression
by evaluating it at the definitions of its variables.
"""

from __future__ import annotations

import re

from .poly import RatFunc, VarTable
from .scalars import Field


class ParseError(ValueError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


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

    def parse(self) -> RatFunc:
        out = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input {val!r}", pos)
        return out

    def expr(self) -> RatFunc:
        out = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.term()
                out = out + rhs if val == "+" else out - rhs
            else:
                return out

    def term(self) -> RatFunc:
        out = self.factor()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                rhs = self.factor()
                if val == "*":
                    out = out * rhs
                else:
                    if rhs.is_zero():
                        raise ParseError("division by zero", pos)
                    out = out / rhs
            else:
                return out

    def factor(self) -> RatFunc:
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
            out = out ** (sign * val)
        return out

    def base(self) -> RatFunc:
        kind, val, pos = self.next()
        if kind == "int":
            return RatFunc.const(self.vars, self.field, self.field.from_int(val))
        if kind == "name":
            if val == "zeta3":
                if not self.field.has_zeta3:
                    raise ParseError(f"zeta3 is not available over {self.field.tag}", pos)
                return RatFunc.const(self.vars, self.field, self.field.zeta3())
            value = self.leaf(val)
            if value is None:
                raise ParseError(f"unknown variable {val!r}", pos)
            return value
        if kind == "op" and val == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        if kind == "op" and val == "-":
            return -self.base()
        raise ParseError(f"unexpected token {val!r}", pos)


def parse_expr(text: str, vars: VarTable, field: Field, leaf=None) -> RatFunc:
    """The value of text over vars in field.  leaf(name) is a name's value,
    a RatFunc over vars in field, or None when the name is unknown; by
    default the names are the variables of vars.  str(r) parses back to r."""
    if leaf is None:
        leaf = lambda name: RatFunc.var(vars, field, name) if name in vars else None
    return _Parser(text, vars, field, leaf).parse()


def expression_variables(text: str):
    """The set of identifiers appearing in an expression (zeta3 excluded).
    A name cannot start inside an integer token, so scanning for names
    alone finds the name tokens, without matching every other token."""
    return set(_NAME.findall(text)) - {"zeta3"}

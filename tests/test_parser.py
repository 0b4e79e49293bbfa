import re
import sys

import pytest

from fixedfield.parser import (
    NESTING_LIMIT,
    ParseError,
    _tokenize,
    expression_names,
    paren_spans,
    parse_expr,
)
from fixedfield.poly import VarTable, ratfunc_eq
from fixedfield.scalars import F2, F4, QQ, QZ3

X = VarTable(["x1", "x2", "x3"])


def test_basic_expressions():
    r = parse_expr("x1 + x2", X, QQ)
    assert ratfunc_eq(r, parse_expr("x2 + x1", X, QQ))
    r = parse_expr("(x1*x2^2 - 3*x1*x2*x3)/(x1^2 + x2^2)", X, QQ)
    assert str(r.den) == "x1^2+x2^2"
    assert ratfunc_eq(
        parse_expr("zeta3^2 + zeta3 + 1", X, QZ3), parse_expr("0", X, QZ3)
    )


def test_precedence_and_unary_minus():
    # '-' lives in base, so it binds before '^': -x1^2 == (-x1)^2
    assert ratfunc_eq(parse_expr("-x1^2", X, QQ), parse_expr("(-x1)^2", X, QQ))
    assert ratfunc_eq(parse_expr("0 - x1^2", X, QQ), -parse_expr("x1^2", X, QQ))
    assert ratfunc_eq(parse_expr("2*x1 + 3*x2*x3", X, QQ),
                      parse_expr("(2*x1) + ((3*x2)*x3)", X, QQ))
    assert ratfunc_eq(parse_expr("x1/x2/x3", X, QQ), parse_expr("x1/(x2*x3)", X, QQ))
    assert ratfunc_eq(parse_expr("--x1", X, QQ), parse_expr("x1", X, QQ))


def test_nesting_is_capped():
    from fixedfield.parser import NESTING_LIMIT

    n = NESTING_LIMIT
    assert ratfunc_eq(parse_expr("(" * n + "x1" + ")" * n, X, QQ), parse_expr("x1", X, QQ))
    assert ratfunc_eq(parse_expr("-" * n + "x1", X, QQ), parse_expr("x1", X, QQ))
    # '(' and unary '-' count together; a closed '(' or a finished '-' no
    # longer counts
    deep = "(x1)*-x3*" + "-(" * (n // 2) + "x2" + ")" * (n // 2)
    assert ratfunc_eq(parse_expr(deep, X, QQ), parse_expr("-x1*x2*x3", X, QQ))
    with pytest.raises(ParseError, match=rf"nesting deeper than {n} \(at position {n}\)"):
        parse_expr("(" * (n + 1) + "x1" + ")" * (n + 1), X, QQ)
    with pytest.raises(ParseError, match=rf"\(at position {n}\)"):
        parse_expr("-(" * (n // 2) + "-x1" + ")" * (n // 2), X, QQ)
    with pytest.raises(ParseError, match="nesting deeper"):
        parse_expr("-" * 1000 + "x1", X, QQ)


def test_a_memoised_group_keeps_the_nesting_cap():
    # (x1*-x2) sits 2 deep.  Its memo entry is swapped for that of
    # (x3*-x1), so a parse that takes the entry gives x3*-x1.  Under n - 2
    # unary '-' the entry fits under the cap and is taken; under n - 1 it
    # would reach n + 1, so the group is parsed and raises where a parse
    # with a fresh memo does
    from fixedfield.parser import NESTING_LIMIT

    n = NESTING_LIMIT
    memo = {}
    parse_expr("(x1*-x2) + (x3*-x1)", X, QQ, memo)
    memo["(x1*-x2)"] = memo["(x3*-x1)"]
    got = parse_expr("-" * (n - 2) + "(x1*-x2)", X, QQ, memo)
    assert ratfunc_eq(got, parse_expr("x3*-x1", X, QQ))
    for m in (memo, None):
        with pytest.raises(ParseError) as e:
            parse_expr("-" * (n - 1) + "(x1*-x2)", X, QQ, m)
        assert str(e.value) == f"nesting deeper than {n} (at position {n + 3})"
    # a memoised group nested in a group counts toward its depth
    parse_expr("((x1*-x2) + x3)", X, QQ, memo)
    with pytest.raises(ParseError, match=rf"nesting deeper than {n} \(at position {n + 3}\)"):
        parse_expr("-" * (n - 2) + "((x1*-x2) + x3)", X, QQ, memo)


def test_a_group_whose_bound_passes_the_cap_is_parsed_again():
    # (x1 - x2 - x3) sits 1 deep, but its count of '(' and '-' bounds it
    # at 3.  Its memo entry is swapped for that of (x3 - x1).  Under n - 3
    # unary '-' the bound reaches n, and the entry is taken; under n - 2 it
    # would reach n + 1, so the group is parsed again, and gives what a
    # parse with no memo gives, though its exact depth n - 1 fits
    n = NESTING_LIMIT
    memo = {}
    parse_expr("(x1 - x2 - x3) + (x3 - x1)", X, QQ, memo)
    memo["(x1 - x2 - x3)"] = memo["(x3 - x1)"]
    got = parse_expr("-" * (n - 3) + "(x1 - x2 - x3)", X, QQ, memo)
    assert ratfunc_eq(got, parse_expr("-" * (n - 3) + "(x3 - x1)", X, QQ))
    text = "-" * (n - 2) + "(x1 - x2 - x3)"
    got = parse_expr(text, X, QQ, memo)
    assert ratfunc_eq(got, parse_expr(text, X, QQ))
    assert not ratfunc_eq(got, parse_expr("-" * (n - 2) + "(x3 - x1)", X, QQ))


@pytest.mark.parametrize(
    "text, message, position",
    [
        ("(x1+x2)*(x1+x2) x3", "trailing input 'x3'", 16),
        ("(x1+x2)*(x1+x2)^x2", "expected integer exponent", 16),
        ("(x1+x2)/((x1+x2) - (x1+x2))", "division by zero", 7),
        ("(x1+x2)*(x1+x2) + (x1/0)", "division by zero", 21),
        ("(x1+x2) - -(x1+x2) * )", "unexpected token ')'", 21),
        ("(x1+x2) x3 (x1+x2) @", "unexpected character '@'", 18),
        pytest.param("(x1+x2)*" + "-" * NESTING_LIMIT + "(x1+x2)",
                     f"nesting deeper than {NESTING_LIMIT}", NESTING_LIMIT + 8, id="nesting"),
        ("(x1+x2) + (x1+x2) + x9", "unknown variable 'x9'", 20),
        ("((x1+x2)*x3)*((x1+x2)*x3) x2", "trailing input 'x2'", 26),
        ("x3/(x2-x2)", "division by zero", 2),
        ("((x1+x2)*x3) + (x1+x2)/(x2-x2)", "division by zero", 22),
    ],
)
def test_errors_after_a_memoised_group_keep_their_positions(text, message, position):
    # the memo holds (x1+x2), ((x1+x2)*x3), which nests it, and (x2-x2),
    # and the text holds them again; a group that raises is not kept.  An
    # unexpected character is reported first, wherever it is
    memo = {}
    parse_expr("(x1+x2) + ((x1+x2)*x3) + (x2-x2)", X, QQ, memo)
    for m in (memo, {}, None):
        with pytest.raises(ParseError) as e:
            parse_expr(text, X, QQ, m)
        assert str(e.value) == f"{message} (at position {position})"
    assert memo.keys() <= {"(x1+x2)", "((x1+x2)*x3)", "(x2-x2)", "((x1+x2) - (x1+x2))"}


def test_paren_spans():
    assert paren_spans("x1") == ([], [], None)
    assert paren_spans("(x1*(x2)) + (x3)") == ([0, 4, 12], [8, 7, 15], None)
    assert paren_spans("(x1 + (x2)") == ([0, 6], [None, 9], 0)
    assert paren_spans("x1) + (x2") == ([6], [None], 2)
    assert paren_spans("((x1)") == ([0, 1], [None, 4], 0)


def test_the_stray_search_finds_what_the_tokenizer_rejects():
    # the one search a parse makes before reading any token agrees with the
    # full tokenizer: both accept a text, or both point at one character,
    # and a parse then reports it as the tokenizer does
    hypothesis = pytest.importorskip("hypothesis")
    from fixedfield.parser import _STRAY

    alphabet = "xyz_AZ0189()+-*/^ \t\n\u0661\u2003@#.,;=!é\u00a0\\"

    @hypothesis.settings(derandomize=True, max_examples=500, deadline=None, database=None)
    @hypothesis.given(hypothesis.strategies.text(alphabet=alphabet, max_size=20))
    def agree(text):
        m = _STRAY.search(text)
        try:
            _tokenize(text)
        except ParseError as e:
            assert m is not None, text
            assert str(e) == f"unexpected character {m.group()!r} (at position {e.position})"
            assert not text[e.position:m.start()].strip(), text
            with pytest.raises(ParseError) as parsed:
                parse_expr(text, X, QQ)
            assert str(parsed.value) == str(e)
        else:
            assert m is None, text

    agree()


def test_a_parse_tokenizes_no_character_inside_a_memoised_group(monkeypatch):
    # the spans of the text each findall reads: a second parse with the
    # memo of the first reads each group of the memo up to its '(' only
    import fixedfield.parser as parser

    read = []

    class Recorder:
        def findall(self, text, pos=0, endpos=sys.maxsize):
            read.append((pos, min(endpos, len(text))))
            return scan.findall(text, pos, endpos)

    scan = parser._SCAN
    monkeypatch.setattr(parser, "_SCAN", Recorder())
    text = "(x1+x2)*(x1+x2) + (x3-x1)"
    memo = {}
    first = parse_expr(text, X, QQ, memo)
    # the second (x1+x2) is taken from the memo already
    assert read == [(0, 1), (1, 9), (15, 19), (19, 25)]
    read.clear()
    again = parse_expr(text, X, QQ, memo)
    assert ratfunc_eq(again, first)
    assert read == [(0, 1), (7, 9), (15, 19), (25, 25)]
    for group in ((0, 6), (8, 14), (18, 24)):
        assert all(to <= group[0] + 1 or pos > group[1] for pos, to in read), group


def test_char2_minus_is_plus():
    assert ratfunc_eq(parse_expr("x1 - x2", X, F2), parse_expr("x1 + x2", X, F2))


def test_errors_carry_position():
    with pytest.raises(ParseError) as e:
        parse_expr("x1 + ", X, QQ)
    assert "position" in str(e.value)
    with pytest.raises(ParseError):
        parse_expr("x1 + x9", X, QQ)
    with pytest.raises(ParseError):
        parse_expr("x1 @ x2", X, QQ)
    with pytest.raises(ParseError):
        parse_expr("(x1 + x2", X, QQ)
    with pytest.raises(ParseError):
        parse_expr("x1 x2", X, QQ)


@pytest.mark.parametrize(
    "text, field, message, position",
    [
        # the tokenizer's error comes first, at the end of the token before
        # the character, ahead of any parse or evaluation error
        ("x1 @ x2", QQ, "unexpected character '@'", 2),
        ("@", QQ, "unexpected character '@'", 0),
        ("x1 x2 @", QQ, "unexpected character '@'", 5),
        ("x1^40000 $", QQ, "unexpected character '$'", 8),
        ("x1 x2", QQ, "trailing input 'x2'", 3),
        ("x1 12", QQ, "trailing input 12", 3),
        ("(x1))", QQ, "trailing input ')'", 4),
        ("(x1 + x2", QQ, "expected ')'", 8),
        ("(x1 x2)", QQ, "expected ')'", 4),
        ("x1^x2", QQ, "expected integer exponent", 3),
        ("x1^-", QQ, "expected integer exponent", 4),
        ("x1 ^ (2)", QQ, "expected integer exponent", 5),
        ("0^-2", QQ, "negative power of zero", 3),
        ("x1 * (x2 - x2)^-1", QQ, "negative power of zero", 16),
        ("2^-1", F2, "negative power of zero", 3),
        ("x1/0", QQ, "division by zero", 2),
        ("x2*x1 / (x1 - x1)", QQ, "division by zero", 6),
        ("x1/2", F2, "division by zero", 2),
        ("x1 + x9", QQ, "unknown variable 'x9'", 5),
        ("3*y^2", QQ, "unknown variable 'y'", 2),
        ("zeta3 + x1", QQ, "zeta3 is not available over Q", 0),
        ("x1*zeta3", F2, "zeta3 is not available over F2", 3),
        ("x1 + ", QQ, "unexpected end of expression", 5),
        ("x1 * )", QQ, "unexpected token ')'", 5),
        ("* x1", QQ, "unexpected token '*'", 0),
        ("(" * 101 + "x1" + ")" * 101, QQ, "nesting deeper than 100", 100),
        ("x1*" + "-" * 101 + "x2", QQ, "nesting deeper than 100", 103),
        ("(x1 - ", QQ, "unexpected end of expression", 6),
        # an integer is ASCII digits: a decimal digit of another script is
        # an unexpected character, not a digit
        ("x1^\u0662 + \u0663", QQ, "unexpected character '\u0662'", 3),
        ("\u0663*x1", QQ, "unexpected character '\u0663'", 0),
        ("x1^\uff12", QQ, "unexpected character '\uff12'", 3),
    ],
)
def test_error_messages_and_positions(text, field, message, position):
    with pytest.raises(ParseError) as e:
        parse_expr(text, X, field)
    assert str(e.value) == f"{message} (at position {position})"
    assert e.value.position == position


@pytest.mark.parametrize("field", [QQ, F2])
def test_zeta3_rejected_without_cube_root(field):
    with pytest.raises(ParseError):
        parse_expr("zeta3 + x1", X, field)


def test_zeta3_allowed_in_f4():
    r = parse_expr("zeta3*zeta3", X, F4)
    assert ratfunc_eq(r, parse_expr("zeta3 + 1", X, F4))


@pytest.mark.parametrize(
    "text,field",
    [
        ("x1 + x2", QQ),
        ("(x1*x2^2 - 3*x1*x2*x3)/(x1^2 + x2^2)", QQ),
        ("1/x1 + x2/x3 - 5/7", QQ),
        ("x1^4 - x2^4", F2),
        ("zeta3*x1 + (1 + zeta3)*x2", F4),
        ("(zeta3 - 1)*x1/(x2 - zeta3*x3)", QZ3),
        ("-x1 - (-x2)", QQ),
    ],
)
def test_round_trip(text, field):
    r = parse_expr(text, X, field)
    again = parse_expr(str(r), X, field)
    assert ratfunc_eq(r, again)


def test_expression_names():
    assert expression_names("x1*zeta3 + foo^2/(bar - 1)") - {"zeta3"} == {"x1", "foo", "bar"}
    # the names are the tokenizer's name tokens, also right after an integer
    for text in ("2x1 + 10y_2*zeta3 - _a3^12", "3zeta3*x10/(x2-x1)", "x1 @ y2"):
        tokens = {val for kind, val, _ in _tokenize(text.replace("@", "+")) if kind == "name"}
        assert expression_names(text) - {"zeta3"} == tokens - {"zeta3"}


@pytest.mark.parametrize(
    "text, message",
    [
        ("x1^20000*x1^20000", "monomial product reaches the exponent cap"),
        ("x2*x1^16384*x3^16383", "monomial product reaches the exponent cap"),
        ("2^70000 * x1", "power reaches the coefficient cap of 65536 bits"),
        ("x1 * (8*x2)^30000", "power reaches the coefficient cap of 65536 bits"),
        ("x1^32768", "power reaches the exponent cap"),
        ("(x1 + x2)^2*x1^16000*x1^16766", "monomial product reaches the exponent cap"),
        # a product is checked as each factor arrives, before the next one
        # is read: the cap, not the unknown name after it
        ("(x1 + x2)^2*x1^16000*x1^16766*y9", "monomial product reaches the exponent cap"),
        ("x1^16000*(x1 + x2)^2*x2^16766 + y9", "monomial product reaches the exponent cap"),
    ],
)
def test_one_term_products_keep_the_caps(text, message):
    from fixedfield.poly import PolyError

    with pytest.raises(PolyError, match=re.escape(message)):
        parse_expr(text, X, QQ)


def test_one_term_products_up_to_the_caps():
    assert str(parse_expr("x1^16383*x1^16384", X, QQ)) == "x1^32767"
    assert str(parse_expr("x2*(x1 + x3)*x1^32765", X, QQ)) == "x1^32766*x2+x1^32765*x2*x3"
    # a zero product takes no further monomials, so it stays zero
    assert parse_expr("0*x1^20000*x1^20000", X, QQ).is_zero()
    assert parse_expr("x1*(x2 - x2)*x1^20000*x1^20000", X, QQ).is_zero()
    assert str(parse_expr("-2*x1*3*x2^2*x1", X, QQ)) == "-6*x1^2*x2^2"
    assert str(parse_expr("2*x1*3*x2", X, F2)) == "0"

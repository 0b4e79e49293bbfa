"""Seeded grammar-aware fuzzing of the suite loader and runner.

Each mutant changes one line of a shipped suite.  The line is drawn by
its statement kind (the first word, and the check kind of a check line,
each kind equally likely), so rare one-line statements such as 'points'
and 'gl23map' are mutated as often as any kind of check.  The operators:
delete, duplicate or swap a token; truncate the line; replace a number
(one mutant for each of REPLACEMENTS); drop the line, or swap it with the
next.  The numbers of the two declarations that size a whole suite,
'points' and 'gl23map', are also replaced one by one, each by every value
of REPLACEMENTS.  Every mutant must either fail to load with a 'line N'
SuiteError or run to a verdict for each of its checks, with no other
exception.
"""

import random
import re
from importlib import resources

import pytest

from fixedfield.suite import (
    FAIL,
    FLAGGED,
    PASS,
    SuiteError,
    list_suites,
    parse_suite_text,
    run_parsed_suite,
)

SEEDS = (1, 2)
DRAWS_PER_SUITE = 8
REPLACEMENTS = ("0", "1", "2", "9", "65536", "-1")
_TOKEN = re.compile(r"[A-Za-z_][A-Za-z_0-9]*|\d+|\S")
_NUMBER = re.compile(r"(?<![A-Za-z_0-9])\d+")  # a number token, not digits in a name


def suite_text(name):
    return resources.files("fixedfield").joinpath(f"data/{name}.suite").read_text()


def statement_lines(lines):
    """kind -> indices of the lines of that kind.  A check's kind includes
    its check kind; a continuation line has kind '\\'."""
    kinds = {}
    continued = False
    for i, line in enumerate(lines):
        words = line.split()
        if words and not words[0].startswith("#"):
            kind = "\\" if continued else " ".join(words[:2 if words[0] == "check" else 1])
            kinds.setdefault(kind, []).append(i)
        continued = line.rstrip().endswith("\\")
    return kinds


def mutate_line(line, op, rng):
    """The mutants of one line by one token operator: a list of lines."""
    if op == "truncate":
        return [line[: rng.randrange(len(line))]]
    if op == "number":
        numbers = list(_NUMBER.finditer(line))
        if not numbers:
            return []
        m = rng.choice(numbers)
        return [line[: m.start()] + r + line[m.end():] for r in REPLACEMENTS]
    tokens = list(_TOKEN.finditer(line))
    i = rng.randrange(len(tokens))
    t = tokens[i]
    if op == "delete":
        return [line[: t.start()] + line[t.end():]]
    if op == "duplicate":
        return [line[: t.end()] + " " + t.group() + line[t.end():]]
    if i + 1 == len(tokens):  # swap: a token with the one after it
        return []
    u = tokens[i + 1]
    return [line[: t.start()] + u.group() + line[t.end(): u.start()] + t.group() + line[u.end():]]


OPERATORS = ("delete", "duplicate", "swap", "truncate", "number", "drop", "swap-lines")


def mutants(text, seed):
    """(description, mutated text) pairs, DRAWS_PER_SUITE draws of a line
    kind, a line of that kind and an operator."""
    rng = random.Random(seed)
    lines = text.split("\n")
    kinds = statement_lines(lines)
    out = []
    for _ in range(DRAWS_PER_SUITE):
        kind = rng.choice(sorted(kinds))
        i = rng.choice(kinds[kind])
        op = rng.choice(OPERATORS)
        if op == "drop":
            variants = [lines[:i] + lines[i + 1:]]
        elif op == "swap-lines":
            variants = [lines[:i] + lines[i + 1: i + 2] + [lines[i]] + lines[i + 2:]]
        else:
            variants = [lines[:i] + [new] + lines[i + 1:] for new in mutate_line(lines[i], op, rng)]
        out += [(f"{op} on line {i + 1} ({kind})", "\n".join(v)) for v in variants]
    return out


def sizing_mutants(text):
    """(description, mutated text) pairs: each number of the 'points' and
    'gl23map' lines replaced by each value of REPLACEMENTS."""
    lines = text.split("\n")
    kinds = statement_lines(lines)
    out = []
    for i in kinds.get("points", []) + kinds.get("gl23map", []):
        for m in _NUMBER.finditer(lines[i]):
            for r in REPLACEMENTS:
                new = lines[i][: m.start()] + r + lines[i][m.end():]
                out.append((f"line {i + 1}: {new}", "\n".join(lines[:i] + [new] + lines[i + 1:])))
    return out


def run_mutant(text):
    """'load' when the mutant is refused at load with a 'line N' SuiteError,
    else 'ran' once every check has a verdict."""
    try:
        suite = parse_suite_text(text)
    except SuiteError as exc:
        assert re.match(r"line \d+: ", str(exc)), str(exc)
        return "load"
    report = run_parsed_suite(suite)
    assert len(report.checks) == len(suite.checks)
    assert {c.status for c in report.checks} <= {PASS, FAIL, FLAGGED}
    return "ran"


def outcomes(mutants_of):
    """Counts of 'load' and 'ran' over mutants_of(name, text) for every
    shipped suite."""
    counts = {"load": 0, "ran": 0}
    for name in list_suites():
        for where, text in mutants_of(name, suite_text(name)):
            try:
                counts[run_mutant(text)] += 1
            except AssertionError as exc:
                raise AssertionError(f"{name}: {where}: {exc}") from None
    return counts


@pytest.mark.parametrize("seed", SEEDS)
def test_single_line_mutants_load_with_a_line_or_run_to_verdicts(seed):
    counts = outcomes(lambda name, text: mutants(text, f"{seed}:{name}"))
    # both outcomes occur, so neither half of the property is vacuous
    assert counts["load"] > 20 and counts["ran"] > 20, counts


def test_sizing_numbers_load_with_a_line_or_run_to_verdicts():
    counts = outcomes(lambda name, text: sizing_mutants(text))
    # 11 points lines and the 24 numbers of sec4's gl23map, 6 values each
    assert sum(counts.values()) == (11 + 24) * len(REPLACEMENTS)
    assert counts["load"] > 100 and counts["ran"] > 10, counts

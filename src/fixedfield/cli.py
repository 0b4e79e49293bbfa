"""Command-line front end.

Exit codes: 0 all checks pass (expected flagged discrepancies count as
passes), 1 at least one unexpected failure, 2 usage or lookup error.
"""

from __future__ import annotations

import argparse
import sys

from . import suite
from .parser import parse_expr, require_variable_names
from .perms import PermGroup
from .poly import VarTable
from .scalars import FieldError, field_by_tag
from .suite import (
    FAIL,
    FLAGGED,
    PASS,
    SuiteError,
    list_suites,
    report_to_json,
)


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="fixedfield",
        description="Exact verification of invariant-field computations for "
        "transitive subgroups of S8.",
    )
    sub = ap.add_subparsers(dest="command")

    v = sub.add_parser("verify", help="run verification suites")
    v.add_argument("--suite", action="append", default=[], help="suite name (repeatable)")
    v.add_argument("--all", action="store_true", help="run every suite")
    v.add_argument("--list", action="store_true", help="list available suites")
    v.add_argument("--format", choices=["text", "json"], default="text")
    v.add_argument("--fail-fast", action="store_true")

    g = sub.add_parser("groups", help="query the group catalog")
    g.add_argument("action", choices=["order", "show", "list"])
    g.add_argument("name", nargs="?")

    e = sub.add_parser("eval", help="evaluate an expression")
    e.add_argument("--field", default="Q", help="Q, F2, Qz3 or F4")
    e.add_argument("--vars", default="", help="comma-separated variable names")
    e.add_argument("expression")
    return ap


def _cmd_verify(args) -> int:
    if args.list:
        for name in list_suites():
            print(name)
        return 0
    names = list(args.suite)
    if args.all:
        names = list_suites()
    if not names:
        print("error: nothing to verify; use --suite NAME or --all", file=sys.stderr)
        return 2
    # an unknown name fails here, before any suite has run
    loaded = [suite.load_suite(name) for name in names]
    reports = []
    for parsed in loaded:
        reports.append(suite.run_parsed_suite(parsed, fail_fast=args.fail_fast))
        if args.fail_fast and not reports[-1].ok():
            break
    if args.format == "json":
        payload = reports[0] if len(reports) == 1 and not args.all else reports
        sys.stdout.write(report_to_json(payload))
    else:
        for rep in reports:
            counts = rep.counts()
            print(f"suite {rep.suite}: {counts[PASS]} passed, "
                  f"{counts[FAIL]} failed, {counts[FLAGGED]} flagged")
            for c in rep.checks:
                if c.status != PASS:
                    print(f"  [{c.status}] {c.id}: {c.detail}")
                    print(f"      ref: {c.paper_ref}")
    return 0 if all(r.ok() for r in reports) else 1


def _cmd_groups(args) -> int:
    if args.action != "list" and not args.name:
        print("error: group name required", file=sys.stderr)
        return 2
    catalog = suite.load_suite("catalog")
    if args.action == "list":
        for name in [*catalog.group_words, *catalog.perm_words]:
            print(name)
        return 0
    name = args.name
    if name in catalog.group_words:
        kind, words, order = "group", catalog.group_words[name], catalog.groups[name].order
    elif name in catalog.perm_words:
        # an element's order is that of the cyclic group it generates
        kind, words = "element", [catalog.perm_words[name]]
        order = PermGroup([catalog.perms[name]]).order
    else:
        print(f"error: unknown catalog name {name!r}", file=sys.stderr)
        return 2
    if args.action == "order":
        print(order)
    else:
        print(f"{name} ({kind}), order {order}")
        for w in words:
            print(f"  {w}")
    return 0


def _cmd_eval(args) -> int:
    try:
        field = field_by_tag(args.field)
    except FieldError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    names = [v.strip() for v in args.vars.split(",") if v.strip()]
    try:
        require_variable_names(names)
        text = str(parse_expr(args.expression, VarTable(names), field))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(text)
    return 0


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if args.command == "verify":
        try:
            return _cmd_verify(args)
        except SuiteError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if args.command == "groups":
        return _cmd_groups(args)
    if args.command == "eval":
        return _cmd_eval(args)
    ap.print_help()
    return 2


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()

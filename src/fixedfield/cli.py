"""Command-line front end.

Exit codes: 0 all checks pass (expected flagged discrepancies count as
passes), 1 at least one unexpected failure, 2 usage or lookup error.
"""

from __future__ import annotations

import argparse
import sys

from .catalog import CatalogError, catalog_lookup
from .parser import ParseError, parse_expr
from .poly import VarTable
from .scalars import FieldError, field_by_tag
from .suite import (
    FAIL,
    FLAGGED,
    PASS,
    SuiteError,
    list_suites,
    report_to_json,
    run_suite,
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
    reports = []
    for name in names:
        reports.append(run_suite(name, fail_fast=args.fail_fast))
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
    if args.action == "list":
        from .catalog import catalog_names

        for name in catalog_names():
            print(name)
        return 0
    if not args.name:
        print("error: group name required", file=sys.stderr)
        return 2
    try:
        entry = catalog_lookup(args.name)
    except CatalogError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    if args.action == "order":
        print(entry.expected_order)
    else:
        kind = "group" if entry.kind == "group" else "element"
        print(f"{entry.name} ({kind}), order {entry.expected_order}")
        for w in entry.generators:
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
        table = VarTable(names)
        text = str(parse_expr(args.expression, table, field))
    except (ParseError, ValueError) as exc:
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

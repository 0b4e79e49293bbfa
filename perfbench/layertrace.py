"""In-memory span recorder installed by wrapping fixedfield's public
functions from outside the package.

A span is (id, parent id, name, start, end).  A layer's self time is its
span's duration minus the time covered by its child spans.  The hottest
calls (Perm construction, field operations) are counted without spans.

Wrapping a function rebinds its name in every loaded fixedfield module
that holds the same object, so `from .poly import ratfunc_eq` in actions
and suite is traced too.  uninstall() restores every original binding.
"""

from __future__ import annotations

import gzip
import sys
import time
from collections import defaultdict

CHECK_KINDS = [
    "order", "transitive", "normal", "permeq", "permneq", "member", "notmember",
    "groupeq", "wreath", "gl23", "invariance", "table", "identity", "distinct",
    "degree", "monomial", "word", "matgroup", "matrix-kernel", "action-kernel",
    "faithful", "stable", "same-action", "induced", "induced-order",
]
SUITES = [
    "catalog", "prop22", "prop29", "thm210", "sec4", "sec5_char0", "sec5_char2",
    "sec6_char0", "sec6_char2", "sec7_char0", "sec7_char2",
    "catalog_relabeled", "algebra_Q", "algebra_F2", "algebra_Qz3", "algebra_F4",
]
FIELD_OPS = ["add", "neg", "sub", "mul", "inv", "div", "pow", "conj"]

# (metric, unit, better); counts repeat exactly, times do not
COUNT_METRICS = [
    ("poly.mul.calls", "count", "lower"),
    ("poly.mul.term_pairs", "count", "lower"),
    ("poly.substitute.calls", "count", "lower"),
    ("poly.ratfunc_eq.calls", "count", "lower"),
    ("parser.parse_expr.calls", "count", "lower"),
    ("scalars.ops", "count", "lower"),
    ("perms.closure.calls", "count", "lower"),
    ("perms.closure.elements", "count", "lower"),
    ("perms.perm_init.calls", "count", "lower"),
    ("monomial.solve_int_combination.calls", "count", "lower"),
    ("actions.extract_monomial_action.calls", "count", "lower"),
    ("actions.perm_act.calls", "count", "lower"),
    ("suite.scaled_action.hits", "count", "higher"),
    ("suite.scaled_action.misses", "count", "lower"),
    ("suite.ground_expr.calls", "count", "lower"),
    ("suite.defs_to.hits", "count", "higher"),
    ("suite.defs_to.misses", "count", "lower"),
]
SELF_TIME_SPANS = [
    "poly.mul", "poly.substitute", "poly.ratfunc_eq", "parser.parse_expr",
    "perms.closure", "monomial.solve_int_combination",
    "monomial.matrix_group_elements", "actions.extract_monomial_action",
    "actions.perm_act", "actions.action_kernel", "actions.verify_faithful",
    "actions.induced", "suite.load", "suite.ground_expr",
]
TIME_METRICS = (
    [(f"{s}.self_s", "s", "lower") for s in SELF_TIME_SPANS]
    + [(f"suite.check.{k}.s", "s", "lower") for k in CHECK_KINDS]
    + [(f"suite.run.{s}.s", "s", "lower") for s in SUITES]
)
PER_LAYER = (
    COUNT_METRICS
    + [("suite.scaled_action.hit_ratio", "ratio", "higher")]
    + TIME_METRICS
    + [("trace.overhead_s", "s", "lower")]
)


class Recorder:
    def __init__(self):
        self.keep_spans = False
        self.spans = []
        self.reset()

    def reset(self):
        self.counts = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self._stack = []
        self._next_id = 0

    def open(self):
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else 0
        frame = [self._next_id, parent, 0.0, time.perf_counter()]
        self._stack.append(frame)
        return frame

    def close(self, frame, name):
        end = time.perf_counter()
        self._stack.pop()
        sid, parent, child, start = frame
        dur = end - start
        self.self_s[name] += dur - child
        self.total_s[name] += dur
        if self._stack:
            self._stack[-1][2] += dur
        if self.keep_spans:
            self.spans.append((sid, parent, name, start, end))

    def write_spans(self, path):
        """Spans as TSV: id, parent, name, start and end in seconds from
        the first span's start."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = min((s[3] for s in self.spans), default=0.0)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for sid, parent, name, start, end in sorted(self.spans):
                fh.write(f"{sid}\t{parent}\t{name}\t{start - t0:.9f}\t{end - t0:.9f}\n")

    def metrics(self):
        c = self.counts
        out = {name: c[name] for name, _, _ in COUNT_METRICS}
        hits, misses = c["suite.scaled_action.hits"], c["suite.scaled_action.misses"]
        out["suite.scaled_action.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        for span in SELF_TIME_SPANS:
            out[f"{span}.self_s"] = self.self_s[span]
        for kind in CHECK_KINDS:
            out[f"suite.check.{kind}.s"] = self.total_s[f"suite.check.{kind}"]
        for s in SUITES:
            out[f"suite.run.{s}.s"] = self.total_s[f"suite.run.{s}"]
        return out


class Tracer:
    """Installs counting and span wrappers around fixedfield's layers."""

    def __init__(self, recorder: Recorder):
        self.rec = recorder
        self._undo = []

    # -- wrapper factories ------------------------------------------------

    def _span(self, name, fn, before=None, after=None):
        rec = self.rec
        fixed = isinstance(name, str)
        calls = f"{name}.calls" if fixed else None

        def wrapper(*args, **kwargs):
            span = name if fixed else name(args)
            rec.counts[calls or f"{span}.calls"] += 1
            if before is not None:
                before(rec.counts, args)
            frame = rec.open()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.close(frame, span)
            if after is not None:
                after(rec.counts, args, out)
            return out

        return wrapper

    def _counter(self, key, fn):
        rec = self.rec

        def wrapper(*args, **kwargs):
            rec.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _cache_probe(self, key, cache_attr, skip=None):
        """Classify calls of a cached method by whether its cache grew:
        a call that adds no entry was served from the cache."""
        rec = self.rec

        def wrap(fn):
            def wrapper(obj, *args, **kwargs):
                cache = getattr(obj, cache_attr, None)
                if cache is None or (skip is not None and skip(obj, *args)):
                    return fn(obj, *args, **kwargs)
                before = len(cache)
                out = fn(obj, *args, **kwargs)
                rec.counts[f"{key}.hits" if len(cache) == before else f"{key}.misses"] += 1
                return out

            return wrapper

        return wrap

    # -- rebinding ----------------------------------------------------------

    def _rebind_function(self, module, attr, make):
        orig = getattr(sys.modules[module], attr, None)
        if orig is None:
            return
        wrapped = make(orig)
        for modname, mod in list(sys.modules.items()):
            if modname != "fixedfield" and not modname.startswith("fixedfield."):
                continue
            for name, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, name, wrapped)
                    self._undo.append((mod, name, orig))

    def _rebind_attr(self, owner, attr, make):
        orig = owner.__dict__.get(attr)
        if orig is None:
            return
        setattr(owner, attr, make(orig))
        self._undo.append((owner, attr, orig))

    def install(self):
        import fixedfield.actions  # noqa: F401
        import fixedfield.monomial  # noqa: F401
        import fixedfield.parser  # noqa: F401
        import fixedfield.perms as perms
        import fixedfield.poly as poly
        import fixedfield.scalars as scalars
        import fixedfield.suite as suite

        def pairs(counts, args):
            counts["poly.mul.term_pairs"] += len(args[0].terms) * len(args[1].terms)

        def elements(counts, args, out):
            counts["perms.closure.elements"] += getattr(args[0], "order", 0)

        span = self._span
        self._rebind_attr(poly.Poly, "__mul__", lambda f: span("poly.mul", f, before=pairs))
        self._rebind_attr(
            perms.PermGroup, "__init__", lambda f: span("perms.closure", f, after=elements)
        )
        self._rebind_attr(
            perms.Perm, "__init__", lambda f: self._counter("perms.perm_init.calls", f)
        )
        self._rebind_attr(suite.Suite, "ground_expr", lambda f: span("suite.ground_expr", f))
        self._rebind_attr(
            suite.Suite, "scaled_action",
            self._cache_probe("suite.scaled_action", "_scaled_cache"),
        )
        self._rebind_attr(
            suite.Table, "defs_to",
            self._cache_probe("suite.defs_to", "_defs_to", skip=lambda t, stop: t is stop),
        )
        for module, attr, name in [
            ("fixedfield.poly", "substitute", "poly.substitute"),
            ("fixedfield.poly", "ratfunc_eq", "poly.ratfunc_eq"),
            ("fixedfield.parser", "parse_expr", "parser.parse_expr"),
            ("fixedfield.monomial", "solve_int_combination", "monomial.solve_int_combination"),
            ("fixedfield.monomial", "matrix_group_elements", "monomial.matrix_group_elements"),
            ("fixedfield.actions", "extract_monomial_action", "actions.extract_monomial_action"),
            ("fixedfield.actions", "perm_act", "actions.perm_act"),
            ("fixedfield.actions", "action_kernel", "actions.action_kernel"),
            ("fixedfield.actions", "verify_faithful", "actions.verify_faithful"),
            ("fixedfield.actions", "induced_permutation", "actions.induced"),
            ("fixedfield.actions", "induced_scaled_permutation", "actions.induced"),
            ("fixedfield.suite", "parse_suite_text", "suite.load"),
            ("fixedfield.suite", "load_suite", "suite.load"),
        ]:
            self._rebind_function(module, attr, lambda f, n=name: span(n, f))
        # per-kind and per-suite spans take their name from the arguments;
        # a check is a dict today, and may become an object with .kind
        def check_span(args):
            check = args[1]
            kind = check["kind"] if isinstance(check, dict) else getattr(check, "kind", "?")
            return f"suite.check.{kind}"

        self._rebind_function(
            "fixedfield.suite", "_run_check", lambda f: span(check_span, f)
        )
        self._rebind_function(
            "fixedfield.suite", "run_parsed_suite",
            lambda f: span(lambda a: f"suite.run.{a[0].name}", f),
        )
        for fld in scalars.FIELDS.values():
            for op in FIELD_OPS:
                if hasattr(fld, op):
                    setattr(fld, op, self._counter("scalars.ops", getattr(fld, op)))
                    self._undo.append((fld, op, None))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            if orig is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, orig)
        self._undo.clear()

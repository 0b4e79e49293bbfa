"""Verifier benchmark: time to correct verdicts on three workloads.

    python3 perfbench/run.py --workload paper|groups|algebra \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; fixedfield is imported from ./src.  One
caller in one thread drives the public entry points in a closed loop: a
pass parses every suite of the workload (load_suite / parse_suite_text)
and runs every check (run_parsed_suite), and the next pass starts only
after the previous one returns.  Every verdict is compared with the
expected one (workloads.py); any miss makes the run incorrect.

--trace 0 prints the end-to-end metrics:
    pass_s        median seconds of one warm pass
    setup_s       median over fresh interpreters of import + suite loading
    peak_rss_mb   high-water RSS of this process (getrusage)
Both times are wall times scaled to a fixed machine speed (calibrate.py).
Outside the JSON metrics it also prints the unscaled medians
(pass_wall_s, setup_wall_s), checks_per_s (checks decided / timed wall
seconds) and verdict_error_rate (0 on a correct run).
--trace 1 prints the per-layer metrics of layertrace.py from a traced
run, and trace.overhead_s, the traced minus the untraced median pass
(scaled).

The last line of stdout is one JSON object with the keys correct,
attempted (checks decided), failed (checks whose verdict was wrong) and
metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import layertrace as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_RUNS = 7          # fresh interpreters per run; setup_s is their median
SETUP_TIMEOUT_S = 60
MIN_PASSES = 3


def run_pass(suite_mod, wl):
    reports = []
    for name, text in wl.suites:
        if text is None:
            suite = suite_mod.load_suite(name)
        else:
            suite = suite_mod.parse_suite_text(text)
        reports.append(suite_mod.run_parsed_suite(suite))
    return reports


def wrong_verdicts(suite_mod, wl, reports):
    """(checks decided, checks whose status differs from the expected one).
    An expected failure must be a real refutation, not an error."""
    decided = wrong = 0
    for (name, _), rep in zip(wl.suites, reports):
        expected = wl.expected[name]
        got = {c.id: c for c in rep.checks}
        for cid in expected.keys() | got.keys():
            decided += 1
            c, want = got.get(cid), expected.get(cid)
            if c is None or c.status != want or c.detail.startswith("error:"):
                wrong += 1
    if wl.name == "paper":
        digest = hashlib.md5(suite_mod.report_to_json(reports).encode()).hexdigest()
        if digest != workloads.PAPER_REPORT_MD5:
            print(f"paper report md5 {digest} != {workloads.PAPER_REPORT_MD5}",
                  file=sys.stderr)
            wrong = max(wrong, 1)
    return decided, wrong


class Loop:
    """Closed-loop passes with garbage collection between them, outside
    the timed region; tallies verdicts of every pass."""

    def __init__(self, suite_mod, wl):
        self.suite_mod = suite_mod
        self.wl = wl
        self.attempted = 0
        self.failed = 0

    def once(self):
        gc.collect()
        t0 = time.perf_counter()
        reports = run_pass(self.suite_mod, self.wl)
        dt = time.perf_counter() - t0
        decided, wrong = wrong_verdicts(self.suite_mod, self.wl, reports)
        self.attempted += decided
        self.failed += wrong
        return dt

    def timed(self, seconds, on_pass=None):
        """(wall seconds, speed-scaled seconds) of each pass."""
        wall, scaled = [], []
        ref = calibrate.reference_seconds()
        start = time.perf_counter()
        while len(wall) < MIN_PASSES or time.perf_counter() - start < seconds:
            dt = self.once()
            if on_pass is not None:
                on_pass()
            ref_after = calibrate.reference_seconds()
            wall.append(dt)
            scaled.append(dt * calibrate.REFERENCE_S / ((ref + ref_after) / 2))
            ref = ref_after
        return wall, scaled


def setup_seconds(wl):
    """(wall, speed-scaled) median set-up seconds over fresh interpreters."""
    job = json.dumps({"src": str(SRC), "suites": wl.suites})
    wall, scaled = [], []
    ref = calibrate.reference_seconds()
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py")],
            input=job, capture_output=True, text=True, cwd=ROOT,
            timeout=SETUP_TIMEOUT_S, check=True,
        )
        dt = float(proc.stdout.strip().splitlines()[-1])
        ref_after = calibrate.reference_seconds()
        wall.append(dt)
        scaled.append(dt * calibrate.REFERENCE_S / ((ref + ref_after) / 2))
        ref = ref_after
    return statistics.median(wall), statistics.median(scaled)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def end_to_end(suite_mod, wl, seconds):
    setup_wall, setup = setup_seconds(wl)
    loop = Loop(suite_mod, wl)
    loop.once()  # warm-up: caches, lazy imports, allocator
    wall, scaled = loop.timed(seconds)
    q1, q3 = quartiles(scaled)
    print(f"# {wl.name}: {len(wall)} timed passes, pass_s quartiles "
          f"{q1:.4f} / {q3:.4f}, checks per pass {wl.n_checks}")
    print(f"pass_wall_s {statistics.median(wall):.6g} s")
    print(f"setup_wall_s {setup_wall:.6g} s")
    print(f"checks_per_s {wl.n_checks * len(wall) / sum(wall):.6g} 1/s")
    metrics = {
        "pass_s": (statistics.median(scaled), "s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return loop, metrics


def traced(suite_mod, wl, seconds, seed):
    loop = Loop(suite_mod, wl)
    loop.once()
    _, untraced = loop.timed(seconds / 2)

    rec = tracing.Recorder()
    tracer = tracing.Tracer(rec)
    tracer.install()
    per_pass = []

    def collect():
        per_pass.append(rec.metrics())
        rec.keep_spans = False
        rec.reset()

    try:
        rec.keep_spans = True
        rec.reset()
        _, traced_times = loop.timed(seconds / 2, on_pass=collect)
    finally:
        tracer.uninstall()
    rec.write_spans(OUT / f"{wl.name}-seed{seed}.spans.tsv.gz")

    counts = [n for n, _, _ in tracing.COUNT_METRICS]
    for later in per_pass[1:]:
        diff = [n for n in counts if later[n] != per_pass[0][n]]
        if diff:
            print(f"trace counts differ between passes: {diff}", file=sys.stderr)
            loop.failed = max(loop.failed, 1)
    units = {n: u for n, u, _ in tracing.PER_LAYER}
    metrics = {}
    for name, value in per_pass[0].items():
        if units[name] == "s":
            value = statistics.median(p[name] for p in per_pass)
        metrics[name] = (value, units[name])
    metrics["trace.overhead_s"] = (
        statistics.median(traced_times) - statistics.median(untraced), "s"
    )
    return loop, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=["paper", "groups", "algebra"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (SRC / "fixedfield" / "__init__.py").is_file():
        print(f"error: no fixedfield sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fixedfield.suite as suite_mod

    wl = workloads.build(args.workload, args.seed)
    if args.trace:
        loop, metrics = traced(suite_mod, wl, args.seconds, args.seed)
    else:
        loop, metrics = end_to_end(suite_mod, wl, args.seconds)

    error_rate = loop.failed / loop.attempted
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"verdict_error_rate {error_rate:.6g} of {loop.attempted} checks")
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""perfbench/layertrace.py traces fixedfield by rebinding its names, and
skips a name that no longer exists without a word.  A renamed function
would then leave a per-layer metric at 0 on every run; these tests make
that a failure."""

import fixedfield.suite as suite_mod
from fixedfield.suite import KINDS, list_suites


def test_the_trace_sees_every_layer_of_the_shipped_suites(perfbench_layertrace):
    trace = perfbench_layertrace
    recorder = trace.Recorder()
    tracer = trace.Tracer(recorder)
    tracer.install()
    try:
        # through the module, where the tracer rebinds the entry points
        for name in list_suites():
            suite_mod.run_parsed_suite(suite_mod.load_suite(name))
    finally:
        tracer.uninstall()
    metrics = recorder.metrics()
    assert len(trace.COUNT_METRICS) == 17
    assert [name for name, _, _ in trace.COUNT_METRICS if not metrics[name] > 0] == []
    assert sorted(trace.CHECK_KINDS) == sorted(KINDS)
    spans = [f"suite.check.{kind}.s" for kind in trace.CHECK_KINDS]
    spans += [f"suite.run.{name}.s" for name in list_suites()]
    assert [span for span in spans if not metrics[span] > 0] == []
    # the two self-time spans that wrap functions the package no longer
    # defines read 0; every other one sees work
    dark = [f"{s}.self_s" for s in trace.SELF_TIME_SPANS if not metrics[f"{s}.self_s"] > 0]
    assert dark == ["actions.action_kernel.self_s", "actions.verify_faithful.self_s"]


"""Consistency of the checked-in benchmark records (BENCH_*.json).

Each record holds paired perfbench runs of a parent commit and a change.
Every record must describe correct runs that kept the pinned report, and
its summary numbers must follow from the runs it lists.  A record that
claims a gain must name a workload and an end-to-end metric of
BENCHMARK.json, and the gain must show in the medians of every round that
ran that workload.
"""

import json
import math
import statistics
from pathlib import Path

import pytest

from test_suites import CANONICAL_REPORT_MD5

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
CLAIMED = [p for p in RECORDS if json.loads(p.read_text())["claim"] is not None]


def _workloads(record):
    for i, round_ in enumerate(record["rounds"]):
        for name, workload in round_["workloads"].items():
            yield f"round {i + 1} {name}", workload


def test_records_exist():
    assert len(RECORDS) >= 5, RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_bench_record_is_consistent(path):
    record = json.loads(path.read_text())
    assert record["report_md5"] == {"parent": CANONICAL_REPORT_MD5,
                                    "change": CANONICAL_REPORT_MD5}
    seen = 0
    for where, workload in _workloads(record):
        assert workload["correct"] is True and workload["failed"] == 0, where
        pairs = workload["pairs"]
        assert pairs == len(workload["seeds"]) > 0, where
        metrics = {name: value for name, value in workload.items() if isinstance(value, dict)}
        assert {"pass_s", "setup_s", "peak_rss_mb"} <= metrics.keys(), where
        for name, metric in metrics.items():
            for side in ("parent", "change"):
                runs = metric[side]["runs"]
                assert len(runs) == pairs, (where, name, side)
                # medians are recorded to the runs' four decimals
                assert math.isclose(metric[side]["median"], statistics.median(runs),
                                    rel_tol=0, abs_tol=5e-5 + 1e-9), (where, name, side)
        seen += 1
    assert seen, path.name


@pytest.mark.parametrize("path", CLAIMED, ids=[p.name for p in CLAIMED])
def test_a_claimed_gain_shows_in_every_round(path):
    # the claim names a workload and an end-to-end metric of the benchmark,
    # and every round that ran the workload moved the median its better way
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = json.loads(path.read_text())
    claim = record["claim"]
    metrics = {m["name"]: m for m in benchmark["end_to_end"]}
    assert claim["workload"] in {w["name"] for w in benchmark["workloads"]}
    assert claim["metric"] in metrics
    assert claim["better"] == metrics[claim["metric"]]["better"]
    rounds = [(i + 1, r["workloads"][claim["workload"]]) for i, r in enumerate(record["rounds"])
              if claim["workload"] in r["workloads"]]
    assert rounds, path.name
    for number, workload in rounds:
        metric = workload[claim["metric"]]
        parent, change = metric["parent"]["median"], metric["change"]["median"]
        assert change < parent if claim["better"] == "lower" else change > parent, number

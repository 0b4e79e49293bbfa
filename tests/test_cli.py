import json

import pytest

from fixedfield.cli import main


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_single_suite_json(capsys):
    code, out, err = run(["verify", "--suite", "sec7_char0", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["suite"] == "sec7_char0"
    assert all(c["status"] in ("pass", "flagged-discrepancy") for c in doc["checks"])
    assert {"id", "paper_ref", "status", "detail"} == set(doc["checks"][0])


def test_verify_text_format(capsys):
    code, out, err = run(["verify", "--suite", "catalog"], capsys)
    assert code == 0
    assert "suite catalog:" in out
    assert "failed" in out


def test_verify_flagged_counts_as_pass(capsys):
    code, out, err = run(["verify", "--suite", "sec5_char0"], capsys)
    assert code == 0
    assert "flagged" in out


def test_verify_unknown_suite(capsys):
    code, out, err = run(["verify", "--suite", "nope"], capsys)
    assert code == 2
    assert "unknown suite" in err


def test_verify_nothing_selected(capsys):
    code, out, err = run(["verify"], capsys)
    assert code == 2


def test_verify_multiple_suites_json(capsys):
    code, out, err = run(
        ["verify", "--suite", "prop29", "--suite", "thm210", "--format", "json"], capsys
    )
    assert code == 0
    docs = json.loads(out)
    assert [d["suite"] for d in docs] == ["prop29", "thm210"]


def test_verify_list(capsys):
    code, out, err = run(["verify", "--list"], capsys)
    assert code == 0
    assert "catalog" in out.split()
    assert "sec7_char2" in out.split()


def test_groups_order(capsys):
    code, out, err = run(["groups", "order", "G48"], capsys)
    assert code == 0
    assert out.strip() == "1344"
    code, out, err = run(["groups", "order", "G43"], capsys)
    assert out.strip() == "336"


def test_groups_show_and_list(capsys):
    code, out, err = run(["groups", "show", "G17"], capsys)
    assert code == 0
    assert "order 32" in out
    code, out, err = run(["groups", "list"], capsys)
    assert code == 0
    assert "G1" in out.split() and "sigma1" in out.split()


def test_groups_unknown(capsys):
    code, out, err = run(["groups", "order", "G99"], capsys)
    assert code == 2
    assert "G99" in err


def test_eval(capsys):
    code, out, err = run(
        ["eval", "--field", "Q", "--vars", "x1,x2", "(x1^2 - x2^2)/(x1 - x2)"], capsys
    )
    assert code == 0
    assert out.strip()
    code, out, err = run(["eval", "--field", "F8", "--vars", "x", "x"], capsys)
    assert code == 2


def test_eval_parse_error(capsys):
    code, out, err = run(["eval", "--vars", "x1", "x1 +"], capsys)
    assert code == 2
    assert "position" in err


def test_bad_usage(capsys):
    assert main(["frobnicate"]) == 2


def test_fail_fast_flag_runs(capsys):
    code, out, err = run(["verify", "--suite", "thm210", "--fail-fast"], capsys)
    assert code == 0


def test_verify_all_json_deterministic(capsys):
    code1, out1, _ = run(["verify", "--all", "--format", "json"], capsys)
    code2, out2, _ = run(["verify", "--all", "--format", "json"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    docs = json.loads(out1)
    assert [d["suite"] for d in docs] == [
        "catalog", "prop22", "prop29", "thm210", "sec4", "sec5_char0",
        "sec5_char2", "sec6_char0", "sec6_char2", "sec7_char0", "sec7_char2",
    ]


def test_verify_malformed_suite_exits_2(capsys, monkeypatch):
    import fixedfield.suite as suite_mod

    text = ('suite catalog field=Q\npoints 3\nvars x = x1 x2 x3\n'
            'check identity x1 - x1 == 1 ref="r"\n')
    monkeypatch.setattr(suite_mod, "load_suite", lambda name: suite_mod.parse_suite_text(text))
    code, out, err = run(["verify", "--suite", "catalog"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: line 4: check identity needs the right-hand side 0")

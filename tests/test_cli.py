import json
import re
from pathlib import Path

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


def test_verify_unknown_suite_after_a_known_one(capsys, monkeypatch):
    # the loader's SuiteError is the one check for a suite name, and every
    # named suite is loaded before any runs
    import fixedfield.suite as suite_mod

    runs = []
    run_parsed_suite = suite_mod.run_parsed_suite
    monkeypatch.setattr(suite_mod, "run_parsed_suite",
                        lambda *a, **k: runs.append(a[0].name) or run_parsed_suite(*a, **k))
    code, out, err = run(["verify", "--suite", "prop22", "--suite", "nope"], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: unknown suite 'nope'\n"
    assert runs == []
    code, out, err = run(["verify", "--suite", "prop22", "--suite", "prop29"], capsys)
    assert code == 0 and runs == ["prop22", "prop29"]


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


@pytest.mark.parametrize("variables, text, printed", [
    ("x1,x2", "(2*x1+4)/(6*x2)", "(2*x1+4)/(6*x2)"),
    ("x1", "x1/2", "(x1)/(2)"),
    ("x1,x2", "(x1^2 - x2^2)/(x1 - x2)", "(x1^2-x2^2)/(x1-x2)"),
])
def test_eval_prints_the_fraction_as_built(capsys, variables, text, printed):
    # no common factor, content or leading coefficient is divided out
    code, out, err = run(["eval", "--vars", variables, text], capsys)
    assert (code, out, err) == (0, printed + "\n", "")


def test_eval_result_too_long_to_print_exits_2(capsys):
    # 3^10000 has 4,772 digits, past Python's limit on int-to-str conversion
    code, out, err = run(["eval", "3^10000"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "4300 digits" in err


def test_eval_parse_error(capsys):
    code, out, err = run(["eval", "--vars", "x1", "x1 +"], capsys)
    assert code == 2
    assert "position" in err


def test_eval_deep_nesting_exits_2(capsys):
    code, out, err = run(["eval", "--vars", "x1", "(" * 300 + "x1" + ")" * 300], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: nesting deeper than")


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


def test_verify_unknown_variable_exits_2(capsys, monkeypatch):
    import fixedfield.suite as suite_mod

    text = ('suite catalog field=Q\npoints 3\ngroup A3 = (1,2,3) expect_order=3\n'
            'vars x = x1 x2 x3\ncheck invariance x1 + q9 under A3 ref="r"\n')
    monkeypatch.setattr(suite_mod, "load_suite", lambda name: suite_mod.parse_suite_text(text))
    code, out, err = run(["verify", "--suite", "catalog"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: line 5: check invariance uses unknown variable 'q9'")


def test_verify_text_after_expect_order_exits_2(capsys, monkeypatch):
    import fixedfield.suite as suite_mod

    text = ('suite catalog field=Q\npoints 4\ngroup G = (1,2) expect_order=2 (3,4)\n'
            'check member (3,4) in G ref="r"\n')
    monkeypatch.setattr(suite_mod, "load_suite", lambda name: suite_mod.parse_suite_text(text))
    code, out, err = run(["verify", "--suite", "catalog"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: line 3: group 'G': expect_order= must end the line, "
                          "not '(3,4)'")


def test_verify_unknown_table_exits_2(capsys, monkeypatch):
    import fixedfield.suite as suite_mod

    text = 'suite catalog field=Q\npoints 3\nvars x = x1 x2 x3\ncheck degree nope = 3 ref="r"\n'
    monkeypatch.setattr(suite_mod, "load_suite", lambda name: suite_mod.parse_suite_text(text))
    code, out, err = run(["verify", "--suite", "catalog"], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: line 4: check degree unknown table 'nope' in suite catalog\n"


def test_verify_attribute_the_kind_does_not_read_exits_2(capsys, monkeypatch):
    import fixedfield.suite as suite_mod

    text = ('suite catalog field=Q\npoints 3\ngroup A3 = (1,2,3) expect_order=3\n'
            'check order A3 = 3 elem=nope matrix=junk ref="r"\n')
    monkeypatch.setattr(suite_mod, "load_suite", lambda name: suite_mod.parse_suite_text(text))
    code, out, err = run(["verify", "--suite", "catalog"], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: line 4: check order does not read elem=, matrix=\n"


_CHAIN = ('suite catalog field=Q\npoints 3\nvars x = x1 x2 x3\nvars t = t1 t2\n'
          'def t.t1 = x1 + x2\ndef t.t2 = x3\nvars u = u1\ndef u.u1 = t1 + t2\n')


@pytest.mark.parametrize("row, message", [
    ('check table x elem=(1,2) via=parent images = x2, x1, x3 ref="r"',
     "line 9: check table via=parent on root table 'x'"),
    ('check table u elem=(1,2) via=parent images = u1 ref="r"',
     "line 9: check table acts through (1,2) on table 't', but no earlier "
     "single-element row of that table gives it"),
], ids=["via-parent-on-a-root", "no-earlier-row"])
def test_verify_row_with_nothing_to_act_through_exits_2(capsys, monkeypatch, row, message):
    import fixedfield.suite as suite_mod

    text = _CHAIN + row + "\n"
    monkeypatch.setattr(suite_mod, "load_suite", lambda name: suite_mod.parse_suite_text(text))
    code, out, err = run(["verify", "--suite", "catalog"], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_verify_grounded_check_before_vars_exits_2(capsys, monkeypatch):
    import fixedfield.suite as suite_mod

    text = 'suite catalog field=Q\npoints 3\ncheck identity 1 - 1 == 0 ref="r"\n'
    monkeypatch.setattr(suite_mod, "load_suite", lambda name: suite_mod.parse_suite_text(text))
    code, out, err = run(["verify", "--suite", "catalog"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: line 3: check identity comes before any vars table")


def test_verify_unbalanced_table_image_exits_2(capsys, monkeypatch):
    import fixedfield.suite as suite_mod

    text = ('suite catalog field=Q\npoints 3\nvars x = x1 x2 x3\n'
            'check table x images = x2, x3, x1) elem=(1,2,3) ref="r"\n')
    monkeypatch.setattr(suite_mod, "load_suite", lambda name: suite_mod.parse_suite_text(text))
    code, out, err = run(["verify", "--suite", "catalog"], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: line 4: check table has an unbalanced ')' at position 2 of 'x1)'\n"


def test_verify_zeta3_definition_over_f2_exits_2(capsys, monkeypatch):
    import fixedfield.suite as suite_mod

    text = ('suite catalog field=F2\npoints 3\nvars x = x1 x2 x3\nvars t = t1\n'
            'def t.t1 = zeta3*x1\n')
    monkeypatch.setattr(suite_mod, "load_suite", lambda name: suite_mod.parse_suite_text(text))
    code, out, err = run(["verify", "--suite", "catalog"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: line 5: zeta3 is not available over F2")


def test_verify_partial_table_exits_2(capsys, monkeypatch):
    import fixedfield.suite as suite_mod

    text = ('suite catalog field=Q\npoints 3\ngroup A3 = (1,2,3) expect_order=3\n'
            'vars x = x1 x2 x3\nvars m = m1 m2\ndef m.m1 = x1\n'
            'check invariance m1 under A3 ref="r"\n')
    monkeypatch.setattr(suite_mod, "load_suite", lambda name: suite_mod.parse_suite_text(text))
    code, out, err = run(["verify", "--suite", "catalog"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: line 6: table 'm' has no definition for m2")


@pytest.mark.parametrize(
    "old, new, line",
    [("-1,-1:8", "-1,-1:9", "31: gl23map must label"), ("points 8", "points 65536", "7: points"),
     ("points 8", "points abc", "7: points needs an integer, got 'abc'\n")],
    ids=["gl23map-label-9", "points-65536", "points-abc"],
)
def test_verify_malformed_sec4_exits_2(capsys, monkeypatch, old, new, line):
    import fixedfield.suite as suite_mod
    from importlib import resources

    text = resources.files("fixedfield").joinpath("data/sec4.suite").read_text()
    assert old in text
    text = text.replace(old, new, 1)
    monkeypatch.setattr(suite_mod, "load_suite", lambda name: suite_mod.parse_suite_text(text))
    code, out, err = run(["verify", "--suite", "sec4"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: line {line}")


def _groups_transcript(capsys):
    """Every `fixedfield groups` invocation on the catalog, each as its
    command line, its stdout, its stderr after '! ' and its exit code."""
    from importlib import resources

    text = resources.files("fixedfield").joinpath("data/catalog.suite").read_text()
    names = re.findall(r"^(?:perm|group) (\S+)", text, flags=re.M)
    assert len(names) == 66  # 18 named elements and the 48 groups
    argvs = [["list"]]
    argvs += [[action, name] for name in names for action in ("show", "order")]
    argvs += [["show", "G99"], ["order", "G99"], ["show"], ["order"]]
    out = []
    for argv in argvs:
        code, stdout, stderr = run(["groups", *argv], capsys)
        out.append(f"$ fixedfield groups {' '.join(argv)}\n{stdout}")
        if stderr:
            out.append(f"! {stderr}")
        out.append(f"[exit {code}]\n")
    return "".join(out)


def test_groups_output_is_pinned_byte_for_byte(capsys, monkeypatch):
    import functools

    import fixedfield.suite as suite_mod

    # every invocation loads the catalog; load it once for all 137 of them
    monkeypatch.setattr(suite_mod, "load_suite", functools.lru_cache(suite_mod.load_suite))
    golden = Path(__file__).parent / "data" / "groups_cli.txt"
    assert _groups_transcript(capsys) == golden.read_text(encoding="utf-8")

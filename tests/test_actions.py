import random

import pytest

from fixedfield.actions import (
    ActionError,
    induced_scaled_permutation,
    perm_act,
    permutation_matrix,
)
from fixedfield.monomial import MonomialError, close, orbit_permutations, product_table
from fixedfield.parser import parse_expr
from fixedfield.perms import Perm, parse_cycles
from fixedfield.poly import Poly, RatFunc, VarTable, ratfunc_eq, substitute
from fixedfield.scalars import F2, QQ
from fixedfield.suite import FAIL, PASS, Suite, parse_suite_text, run_parsed_suite

X8 = VarTable([f"x{i}" for i in range(1, 9)])
X3 = VarTable(["x1", "x2", "x3"])


def q8(t):
    return parse_expr(t, X8, QQ)


def f28(t):
    return parse_expr(t, X8, F2)


def P(text, n=8):
    return parse_cycles(text, n)


def test_perm_act_examples():
    assert ratfunc_eq(perm_act(P("(1,2)", 3), parse_expr("x1", X3, QQ)),
                      parse_expr("x2", X3, QQ))
    f = q8("x1*x2 + 5/7*x3^2")
    assert ratfunc_eq(perm_act(Perm.identity(8), f), f)
    sym = q8("x1*x2 + x3*x4 + x5*x6 + x7*x8")
    assert ratfunc_eq(perm_act(P("(1,2)(3,4)(5,6)(7,8)"), sym), sym)
    with pytest.raises(ActionError):
        perm_act(P("(1,2)", 3), f)


def test_perm_act_left_action_law():
    rng = random.Random(3)
    for _ in range(100):
        a, b = list(range(1, 9)), list(range(1, 9))
        rng.shuffle(a)
        rng.shuffle(b)
        g, h = Perm(a), Perm(b)
        exps = tuple(rng.randint(0, 3) for _ in range(8))
        mono = RatFunc.from_poly(Poly(X8, QQ, {X8.pack(exps): QQ.from_int(rng.randint(1, 4))}))
        assert ratfunc_eq(perm_act(g * h, mono), perm_act(g, perm_act(h, mono)))


A3_GENERATORS = [
    "x1 + x2 + x3",
    "(x1*x2^2 + x2*x3^2 + x3*x1^2 - 3*x1*x2*x3)/(x1^2 + x2^2 + x3^2 - x1*x2 - x2*x3 - x3*x1)",
    "(x1*x3^2 + x2*x1^2 + x3*x2^2 - 3*x1*x2*x3)/(x1^2 + x2^2 + x3^2 - x1*x2 - x2*x3 - x3*x1)",
]

W_INVARIANTS = [
    "x1 + x2 + x3 + x4 + x5 + x6 + x7 + x8",
    "x1*x2 + x3*x4 + x5*x6 + x7*x8",
    "x1*x3 + x2*x4 + x5*x7 + x6*x8",
    "x1*x4 + x2*x3 + x5*x8 + x6*x7",
    "x1*x5 + x2*x6 + x3*x7 + x4*x8",
    "x1*x6 + x2*x5 + x3*x8 + x4*x7",
    "x1*x7 + x2*x8 + x3*x5 + x4*x6",
    "x1*x8 + x2*x7 + x3*x6 + x4*x5",
]


V8_GROUP = ("group V8 = (1,2)(3,4)(5,6)(7,8) (1,3)(2,4)(5,7)(6,8) (1,5)(2,6)(3,7)(4,8) "
            "expect_order=8")


def results(text):
    """The (status, detail) of each of a suite's checks, run through the
    suite runner."""
    return [(c.status, c.detail) for c in run_parsed_suite(parse_suite_text(text)).checks]


def statuses(text):
    """The statuses of a suite's checks; a failure must be a verdict, not
    an error."""
    checks = results(text)
    assert not [detail for _, detail in checks if detail.startswith("error:")]
    return [status for status, _ in checks]


def suite_text(field, tables, statements, checks):
    """A suite over field: declaration statements, then tables given as
    {name: (variables, definitions or None for a root table)}, then checks."""
    lines = [f"suite mini field={field}", *statements]
    for name, (names, defs) in tables.items():
        lines.append(f"vars {name} = {' '.join(names)}")
        for var, text in zip(names, defs or ()):
            lines.append(f"def {name}.{var} = {text}")
    lines += [f'{c} ref="r"' for c in checks]
    return "\n".join(lines) + "\n"


X8_NAMES = [f"x{i}" for i in range(1, 9)]


def test_verify_invariance_examples():
    text = suite_text(
        "Q", {"x": (["x1", "x2", "x3"], None)},
        ["points 3", "group A3 = (1,2,3) expect_order=3", "group S2 = (1,2) expect_order=2"],
        [f"check invariance {t} under A3" for t in A3_GENERATORS]
        + ["check invariance x1 under S2"],
    )
    assert statuses(text) == [PASS, PASS, PASS, FAIL]
    text = suite_text(
        "F2", {"x": (X8_NAMES, None)}, [V8_GROUP],
        [f"check invariance {t} under V8" for t in W_INVARIANTS],
    )
    assert statuses(text) == [PASS] * 8


DEGREE7_ZSET = ["y1", "y2*y3/y6", "y3*y7/y8", "y4*y5/y3", "y5*y6/y7", "y6*y8/y4",
                "y7*y4/y2", "y8*y2/y5"]


def test_verify_action_table_seven_cycle_row():
    row = ["z1", "z3", "z7", "z5", "z6", "z8", "z4", "z2"]
    bad = row[:1] + row[2:3] + row[1:2] + row[3:]
    text = suite_text(
        "Q",
        {"y": ([f"y{i}" for i in range(1, 9)], None),
         "z": ([f"z{i}" for i in range(1, 9)], DEGREE7_ZSET)},
        ["perm theta = (2,3,7,4,5,6,8)"],
        [f"check table z elem=theta images = {', '.join(r)}" for r in (row, bad)],
    )
    assert statuses(text) == [PASS, FAIL]


def quaternion_zset():
    yt = VarTable(["y1", "y2", "y3", "y4"])
    texts = [
        "(y1*y2 - y3*y4)/(y2*y4 + y1*y3)",
        "(y2*y4 - y1*y3)/(y4*y1 + y2*y3)",
        "(y4*y1 - y2*y3)/(y1*y2 + y3*y4)",
        "y1^2 + y2^2 + y3^2 + y4^2",
    ]
    zt = VarTable(["z1", "z2", "z3", "z4"])
    return [parse_expr(t, yt, QQ) for t in texts], zt, yt


def test_verify_action_table_eight_cycle_on_quaternion_basis():
    # the 8-cycle acts on y1..y4 by y1->y2->y3->y4->-y1; on the invariants
    # the claimed images are (1/z2, 1/z1, 1/z3, z4)
    defs, zt, yt = quaternion_zset()
    # the signed 4-cycle is no permutation of the variables, so the row is
    # compared through an explicit substitution of the signed images
    y_images = [parse_expr(t, yt, QQ) for t in ["y2", "y3", "y4", "-y1"]]
    row = [parse_expr(t, zt, QQ) for t in ["1/z2", "1/z1", "1/z3", "z4"]]
    for d, image in zip(defs, row):
        assert ratfunc_eq(substitute(d, y_images), substitute(image, defs))


def test_verify_action_table_on_grounded_quaternion_invariants():
    # the eight-cycle row (1/z2, 1/z1, 1/z3, z4), with the invariants
    # written out over the points so the permutation acts directly
    y = {i: f"(x{i} - x{i + 4})" for i in range(1, 5)}
    texts = [
        f"({y[1]}*{y[2]} - {y[3]}*{y[4]})/({y[2]}*{y[4]} + {y[1]}*{y[3]})",
        f"({y[2]}*{y[4]} - {y[1]}*{y[3]})/({y[4]}*{y[1]} + {y[2]}*{y[3]})",
        f"({y[4]}*{y[1]} - {y[2]}*{y[3]})/({y[1]}*{y[2]} + {y[3]}*{y[4]})",
        f"{y[1]}^2 + {y[2]}^2 + {y[3]}^2 + {y[4]}^2",
    ]
    text = suite_text(
        "Q", {"x": (X8_NAMES, None), "z": (["z1", "z2", "z3", "z4"], texts)},
        ["perm eight = (1,2,3,4,5,6,7,8)", "perm three = (1,2,4)(5,6,8)"],
        ["check table z elem=eight images = 1/z2, 1/z1, 1/z3, z4",
         "check table z elem=three images = z2, z3, z1, z4",
         "check table z elem=eight images = z2, z3, z1, z4"],
    )
    assert statuses(text) == [PASS, PASS, FAIL]


def test_induced_permutation_on_grounded_block_invariants():
    # the block-swapping involution induces (1,4)(2,5)(3,6) on the six
    # degree-two monomial invariants of the doubled Klein group
    y = {
        2: "(x1 + x2 - x3 - x4)", 3: "(x1 - x2 + x3 - x4)", 4: "(x1 - x2 - x3 + x4)",
        6: "(x5 + x6 - x7 - x8)", 7: "(x5 - x6 + x7 - x8)", 8: "(x5 - x6 - x7 + x8)",
    }
    texts = [
        f"{y[2]}*{y[3]}/{y[4]}", f"{y[3]}*{y[4]}/{y[2]}", f"{y[4]}*{y[2]}/{y[3]}",
        f"{y[6]}*{y[7]}/{y[8]}", f"{y[7]}*{y[8]}/{y[6]}", f"{y[8]}*{y[6]}/{y[7]}",
    ]
    text = suite_text(
        "Q", {"x": (X8_NAMES, None), "m": ([f"m{i}" for i in range(1, 7)], texts)},
        ["perm kappa = (1,5)(2,6)(3,7)(4,8)"],
        ["check induced m = (1,4)(2,5)(3,6) elem=kappa",
         "check induced m = (1,4)(2,6)(3,5) elem=kappa"],
    )
    assert statuses(text) == [PASS, FAIL]


PROP_V4 = [
    ("v1", "x1 + x2 + x3 + x4"),
    ("v2", "x1*x2 + x3*x4"),
    ("v3", "x1*x3 + x2*x4"),
    ("v4", "x1*x4 + x2*x3"),
]


def prop_v4_table():
    return [n for n, _ in PROP_V4], [t for _, t in PROP_V4]


def test_verify_identity_examples():
    text = suite_text(
        "F2",
        {"x": (["x1", "x2", "x3", "x4"], None),
         "u": (["u1", "u2"], ["x1 + x2", "x1*x2"]),
         "v": prop_v4_table()},
        [],
        ["check identity u1^2 + v1*u1 + v3 + v4 == 0",
         "check identity (v3 + v4)^2*u2 + u1^4*u2 + v2*u1^4 + v3*v4*u1^2 == 0",
         "check identity u1 + v1 == 0"],
    )
    assert statuses(text) == [PASS, PASS, FAIL]


def test_verify_identity_v8_chain():
    text = suite_text(
        "F2",
        {"x": (X8_NAMES, None), "v": prop_v4_table(),
         "w": ([f"w{i}" for i in range(1, 9)], W_INVARIANTS)},
        [],
        ["check identity v1^2 + w1*v1 + w5 + w6 + w7 + w8 == 0"],
    )
    assert statuses(text) == [PASS]


def test_seventh_relation_at_free_level():
    # w0^3 = w2 w3 w4 w5 w6 w7 w8 once each w is expanded through the z's
    wdefs = {
        "w0": "z2*z3*z4*z5*z6*z7*z8",
        "w2": "z2*z7*z5", "w3": "z3*z4*z6", "w4": "z4*z6*z2", "w5": "z5*z8*z3",
        "w6": "z6*z2*z7", "w7": "z7*z5*z8", "w8": "z8*z3*z4",
    }
    text = suite_text(
        "Q",
        {"z": ([f"z{i}" for i in range(2, 9)], None),
         "w": (list(wdefs), list(wdefs.values()))},
        [],
        ["check identity w0^3 - w2*w3*w4*w5*w6*w7*w8 == 0"],
    )
    assert statuses(text) == [PASS]


def test_induced_permutation_examples():
    text = suite_text(
        "Q",
        {"y": ([f"y{i}" for i in range(1, 9)], None),
         "z": ([f"z{i}" for i in range(1, 9)], DEGREE7_ZSET)},
        ["perm theta = (2,3,7,4,5,6,8)"],
        ["check same-action z elem=theta", "check same-action z elem=theta^2"],
    )
    assert statuses(text) == [PASS, PASS]

    # the 8-cycle sends y4 = x4 - x8 to x5 - x1 = -y1: a sign appears,
    # so the action is a scaled permutation but not a plain one
    ytexts = [f"x{i} - x{i + 4}" for i in range(1, 5)]
    text = suite_text(
        "Q", {"x": (X8_NAMES, None), "y": (["y1", "y2", "y3", "y4"], ytexts)},
        ["perm eight = (1,2,3,4,5,6,7,8)"],
        ["check induced y = (1,2,3,4) elem=eight"],
    )
    assert results(text) == [
        (FAIL, "error: (1,2,3,4,5,6,7,8) does not act on y by a pure permutation")
    ]
    p, scalars = induced_scaled_permutation([q8(t) for t in ytexts], P("(1,2,3,4,5,6,7,8)"))
    assert p == parse_cycles("(1,2,3,4)", 4)
    assert scalars == [QQ.one(), QQ.one(), QQ.one(), QQ.from_int(-1)]


def _plain(definitions, g):
    """The induced permutation, as a scaled one whose scalars are all 1."""
    p, scalars = induced_scaled_permutation(definitions, g)
    assert set(scalars) == {definitions[0].field.one()}
    return p


def test_induced_permutation_is_homomorphism():
    # over F2 the quadratic invariants carry plain permutation actions
    wdefs = [f28(t) for t in W_INVARIANTS]
    theta = P("(2,3,7,4,5,6,8)")
    phi1 = P("(2,3,4)(7,6,5)")
    phi2 = P("(2,3)(7,6)")
    for g, h in [(theta, phi1), (theta, phi2), (phi1, phi2)]:
        a = _plain(wdefs, g)
        b = _plain(wdefs, h)
        assert _plain(wdefs, g * h) == a * b


def test_verify_faithful_examples():
    total = "x1 + x2 + x3 + x4 + x5 + x6 + x7 + x8"
    text = suite_text("F2", {"x": (X8_NAMES, None), "t": (["t1"], [total])},
                      [V8_GROUP], ["check faithful t under V8"])
    assert statuses(text) == [FAIL]

    # the first-family restricted action: y_i = x_i - x_{i+4}
    text = suite_text(
        "Q",
        {"x": (X8_NAMES, None),
         "y": (["y1", "y2", "y3", "y4"], [f"x{i} - x{i + 4}" for i in range(1, 5)])},
        ["group G26 = (1,2,3,4,5,6,7,8) (1,5)(2,6) (1,5)(2,8)(4,6) expect_order=64"],
        ["check faithful y under G26"],
    )
    assert statuses(text) == [PASS]


def test_action_kernel():
    total = "x1 + x2 + x3 + x4 + x5 + x6 + x7 + x8"
    text = suite_text(
        "F2", {"x": (X8_NAMES, None), "t": (["t1"], [total])},
        [V8_GROUP, "group E = (ID) expect_order=1",
         "group T3 = (1,2) (3,4) (5,6) expect_order=8"],
        ["check action-kernel t under V8 = V8", "check action-kernel t under V8 = E",
         # T3 has the kernel's order and fixes t, but is no subgroup of V8
         "check action-kernel t under V8 = T3"],
    )
    assert statuses(text) == [PASS, FAIL, FAIL]


def test_kernel_kinds_need_a_unique_scaled_action():
    # t2 = -t1, so (1,2) sends t1 both to t2 and to -t1: its scaled
    # permutation of the definitions is not unique
    text = suite_text(
        "Q", {"x": (["x1", "x2"], None), "t": (["t1", "t2"], ["x1 - x2", "x2 - x1"])},
        ["points 2", "group S2 = (1,2) expect_order=2", "group E = (ID) expect_order=1"],
        ["check faithful t under S2", "check action-kernel t under S2 = E",
         "check matrix-kernel t under S2 = E"],
    )
    assert results(text) == [(FAIL, "error: definitions 1 and 2 are proportional")] * 3
    # (1,3) sends u1 = x1 + x2 to x3 + x2, which is no multiple of u1 or u2
    text = suite_text(
        "Q", {"x": (["x1", "x2", "x3"], None), "u": (["u1", "u2"], ["x1 + x2", "x1*x2"])},
        ["points 3", "group C2 = (1,3) expect_order=2", "group E = (ID) expect_order=1"],
        ["check faithful u under C2", "check action-kernel u under C2 = E"],
    )
    assert results(text) == [
        (FAIL, "error: (1,3) does not act by a scaled permutation on u")
    ] * 2


def test_induced_kinds_name_proportional_definitions():
    # the induced kinds and monomial read the same scaled_action as the
    # kernel kinds, so t2 = -t1 is named as the cause, not read as (1,2)
    # sending t1 to -t1
    text = suite_text(
        "Q", {"x": (["x1", "x2"], None), "t": (["t1", "t2"], ["x1 - x2", "x2 - x1"])},
        ["points 2", "group S2 = (1,2) expect_order=2"],
        ["check induced t = (1,2) elem=(1,2)", "check same-action t elem=(1,2)",
         "check induced-order t under S2 = 2", "check monomial t under S2 pure=no",
         "check stable t under S2"],
    )
    assert results(text) == [(FAIL, "error: definitions 1 and 2 are proportional")] * 5


def test_stable_fails_off_the_span():
    # (1,5)(2,6)(3,7)(4,8) sends each ya_i = x_i - x_{i+4} to -ya_i, but
    # (1,2) sends ya1 to x2 - x5, which is no multiple of any ya_i
    yatexts = [f"x{i} - x{i + 4}" for i in range(1, 5)]
    text = suite_text(
        "Q", {"x": (X8_NAMES, None), "ya": (["ya1", "ya2", "ya3", "ya4"], yatexts)},
        ["group C2 = (1,5)(2,6)(3,7)(4,8) expect_order=2",
         "group D4 = (1,5)(2,6)(3,7)(4,8) (1,2) expect_order=8"],
        ["check stable ya under C2", "check stable ya under D4"],
    )
    assert results(text) == [
        (PASS, "every generator acts by a scaled permutation"),
        (FAIL, "(1,2) leaves the span of ya"),
    ]


def test_stable_fails_on_a_monomial_action_off_the_permutation_matrices():
    # (1,2) fixes t1 = x1*x2 and sends t2 = x1/x2 to 1/t2: a monomial
    # action whose B = diag(1, -1) is no permutation matrix
    text = suite_text(
        "Q", {"x": (["x1", "x2"], None), "t": (["t1", "t2"], ["x1*x2", "x1/x2"])},
        ["points 2", "group S2 = (1,2) expect_order=2"],
        ["check stable t under S2", "check monomial t under S2"],
    )
    assert results(text) == [
        (FAIL, "(1,2) leaves the span of t"),
        (PASS, "monomial action (purity not asserted)"),
    ]
    # dependent exponent rows leave no unique action: an error, as for
    # the other action kinds, not a verdict on the span
    text = suite_text(
        "Q", {"x": (["x1", "x2"], None), "t": (["t1", "t2"], ["x1*x2", "2*x1*x2"])},
        ["points 2", "group S2 = (1,2) expect_order=2"],
        ["check stable t under S2", "check monomial t under S2"],
    )
    assert results(text) == [(FAIL, "error: exponent rows are linearly dependent")] * 2


def test_stable_blames_the_table_not_its_parent():
    # (1,2) fixes t1 = s1*s2 = x1*x2*x3 but sends s2 = x2*x3 to x1*x3, off
    # the span of s: the action on t cannot be read through s, which is an
    # error, not a verdict on the span of t
    text = suite_text(
        "Q", {"x": (["x1", "x2", "x3"], None), "s": (["s1", "s2"], ["x1", "x2*x3"]),
              "t": (["t1"], ["s1*s2"])},
        ["points 3", "group S2 = (1,2) expect_order=2"],
        ["check stable s under S2", "check stable t under S2"],
    )
    (s_status, s_detail), (t_status, t_detail) = results(text)
    assert (s_status, s_detail) == (FAIL, "(1,2) leaves the span of s")
    assert t_status == FAIL and t_detail.startswith("error: ")
    # a non-monomial table is acted on through its own grounded definitions,
    # so dependent monomial rows in its parent leave a real verdict
    text = suite_text(
        "Q", {"x": (["x1", "x2", "x3"], None),
              "s": (["s1", "s2"], ["x1*x2", "x1^2*x2^2"]), "t": (["t1"], ["s1 + s2"])},
        ["points 3", "group S2 = (1,2) expect_order=2", "group S2b = (1,3) expect_order=2"],
        ["check stable t under S2", "check stable t under S2b", "check stable s under S2"],
    )
    assert results(text) == [
        (PASS, "every generator acts by a scaled permutation"),
        (FAIL, "(1,3) leaves the span of t"),
        (FAIL, "error: exponent rows are linearly dependent"),
    ]


def test_orbit_permutations_compose_scaled_actions():
    # the coefficients 2 and 1/3 of t give scalars other than 1 and -1,
    # and u's exponent rows give lattice matrices with entries other than
    # 0, 1 and -1, so the orbit's scalars take powers beyond 1
    text = suite_text(
        "Q",
        {"x": (["x1", "x2", "x3"], None),
         "t": (["t1", "t2", "t3"], ["2*x1", "x2", "x3/3"]),
         "u": (["u1", "u2", "u3"], ["t1^2*t2", "t1*t2", "t3"])},
        ["points 3", "group S3 = (1,2) (1,2,3) expect_order=6"],
        ["check faithful u under S3"],
    )
    suite = parse_suite_text(text)
    table, group = suite.table("u"), suite.group("S3")
    elements = list(map(Perm, group.elements))
    phi = {g: suite.scaled_action(table, g) for g in elements}
    assert {(name, type(key)) for name, key in suite._scaled_cache} == {
        ("x", bytes), ("t", bytes), ("u", bytes)}
    assert max(abs(e) for b, _ in phi.values() for row in b for e in row) > 1
    assert {c for _, d in phi.values() for c in d} - {1, -1}
    # the images of all six elements, as permutations of the one orbit
    size, perms = orbit_permutations(list(phi.values()), 3, table.field, group.order)
    orbit = dict(zip(phi, perms))
    assert orbit[Perm.identity(3)] == bytes(range(1, size + 1))
    for g in elements:
        for h in elements:
            assert orbit[h].translate(product_table(orbit[g])) == orbit[g * h], (g, h)
            assert (orbit[g] == orbit[h]) == (phi[g] == phi[h]), (g, h)
    assert len(set(perms)) == len(set(phi.values())) == 6
    assert statuses(text) == [PASS]


def test_orbit_permutations_cap_an_action_of_infinite_order():
    # t2 -> t1*t2 and t1 -> 2*t1 have infinite order: the orbit of (1, e2),
    # or of (1, e1), grows without end, and stops at n * cap points
    shear = (((1, 1), (0, 1)), (1, 1))
    for action, n in ((shear, 2), ((((1,),), (2,)), 1)):
        with pytest.raises(MonomialError, match="^group exceeded cap 5$"):
            orbit_permutations([action], n, QQ, 5)
    # the closure keeps the cap on the group: a swap fits the orbit's 2 * 1
    # points, but not a group of order 1
    swap = (((0, 1), (1, 0)), (1, 1))
    size, perms = orbit_permutations([swap], 2, QQ, 1)
    assert (size, perms) == (2, [bytes((2, 1))])
    with pytest.raises(MonomialError, match="^group exceeded cap 1$"):
        close(perms, size, 1)


def test_a_kernel_kind_on_an_infinite_image_is_an_error(monkeypatch):
    text = suite_text(
        "Q", {"x": (["x1", "x2"], None)}, ["points 2", "group S2 = (1,2) expect_order=2"],
        ["check faithful x under S2", "check action-kernel x under S2 = S2",
         "check matrix-kernel x under S2 = S2"],
    )
    shear = (((1, 1), (0, 1)), (1, 1))
    monkeypatch.setattr(Suite, "scaled_action", lambda self, table, g: shear)
    assert results(text) == [(FAIL, "error: group exceeded cap 2")] * 3


def test_an_orbit_past_the_point_cap_is_an_error(monkeypatch):
    # S6 has order 720, so the orbit of an infinite image meets the 255
    # points a permutation moves long before 2 * 720
    text = suite_text(
        "Q", {"x": (["x1", "x2"], None)},
        ["points 6", "group S6 = (1,2) (1,2,3,4,5,6) expect_order=720"],
        ["check faithful x under S6", "check action-kernel x under S6 = S6",
         "check matrix-kernel x under S6 = S6"],
    )
    shear = (((1, 1), (0, 1)), (1, 1))
    monkeypatch.setattr(Suite, "scaled_action", lambda self, table, g: shear)
    assert results(text) == [(FAIL, "error: orbit exceeded the 255-point orbit cap")] * 3
    with pytest.raises(MonomialError, match="^orbit exceeded the 255-point orbit cap$"):
        orbit_permutations([shear], 2, QQ, 720)


@pytest.mark.parametrize("tag", ["Q", "F2", "Qz3", "F4"])
def test_scaled_action_on_a_root_is_its_permutation_matrix(tag):
    # a root's grounded definitions are its own variables, so the rule for
    # every table that is not monomial over a parent reads g's scaled
    # permutation of them: g itself, with every scalar 1
    suite = parse_suite_text(suite_text(
        tag, {"x": (["x1", "x2", "x3"], None)},
        ["points 3", "group S3 = (1,2) (1,2,3) expect_order=6"], [],
    ))
    root, one = suite.table("x"), suite.field.one()
    elements = list(map(Perm, suite.group("S3").elements))
    assert len(elements) == 6
    for g in elements:
        assert suite.scaled_action(root, g) == (permutation_matrix(g), (one,) * 3), g
    # a root of another degree than the group's is an error, not a verdict
    text = suite_text(
        tag, {"x": (["x1", "x2"], None)},
        ["points 3", "group A3 = (1,2,3) expect_order=3"],
        ["check faithful x under A3", "check monomial x under A3", "check stable x under A3"],
    )
    assert results(text) == [(FAIL, "error: permutation degree 3 != variable count 2")] * 3

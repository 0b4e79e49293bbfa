import random
from fractions import Fraction

import pytest

from fixedfield.actions import extract_monomial_action, permutation_matrix
from fixedfield.monomial import (
    MATRIX_GROUP_CAP,
    Lattice,
    MonomialError,
    close,
    det_fraction_free,
    mat_from_rows,
    mat_identity,
    mat_mul,
    matrix_group_elements,
    matrix_times,
    matrix_word,
    monomial_shape,
    solve_int_combination,
)
from fixedfield.parser import parse_expr
from fixedfield.perms import Perm, parse_cycles
from fixedfield.poly import Poly, RatFunc, VarTable
from fixedfield.scalars import QQ
from fixedfield.suite import FAIL, PASS, load_suite, parse_suite_text, run_parsed_suite

SIGMA_4A = mat_from_rows([[0, -1, 0], [1, 0, 0], [0, 0, 1]])
LAMBDA_1 = mat_from_rows([[-1, 0, 0], [0, 1, 0], [0, 0, -1]])


def mat_neg(a):
    return mat_from_rows([[-x for x in row] for row in a])


def smith_diagonal(m):
    """Smith normal form diagonal — the independent degree oracle.

    Classic elimination over the integers: repeatedly move the smallest
    nonzero entry to the pivot, reduce its row and column, and recurse.
    """
    a = [list(r) for r in m]
    rows, cols = len(a), len(a[0])
    diag = []
    top = 0
    while top < rows and top < cols:
        pivot = None
        for i in range(top, rows):
            for j in range(top, cols):
                if a[i][j] != 0 and (pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        i, j = pivot
        a[top], a[i] = a[i], a[top]
        for r in a:
            r[top], r[j] = r[j], r[top]
        dirty = False
        for i in range(top + 1, rows):
            q = a[i][top] // a[top][top]
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[top])]
            if a[i][top]:
                dirty = True
        for j in range(top + 1, cols):
            q = a[top][j] // a[top][top]
            if q:
                for r in a:
                    r[j] -= q * r[top]
            if a[top][j]:
                dirty = True
        if dirty:
            continue
        diag.append(abs(a[top][top]))
        top += 1
    return diag


def test_matrix_word_examples():
    neg = mat_neg(SIGMA_4A)
    alphabet = {"nsA": neg, "l1": LAMBDA_1}
    cubed = matrix_word(["nsA", "nsA", "nsA"], alphabet)
    assert cubed == mat_from_rows([[0, -1, 0], [1, 0, 0], [0, 0, -1]])
    squared = matrix_word(["nsA", "nsA"], alphabet)
    assert squared == mat_from_rows([[-1, 0, 0], [0, -1, 0], [0, 0, 1]])
    with pytest.raises(MonomialError):
        matrix_word([], alphabet)
    assert matrix_word(["I3"], {"I3": mat_identity(3)}) == mat_identity(3)


def test_matrix_group_orders():
    assert len(matrix_group_elements([mat_identity(3)])) == 1
    assert len(matrix_group_elements([mat_neg(mat_identity(3))])) == 2
    # the dihedral group generated by -sigma_4A (order 4) and lambda_1
    assert len(matrix_group_elements([mat_neg(SIGMA_4A), LAMBDA_1])) == 8
    with pytest.raises(MonomialError):
        matrix_group_elements([mat_from_rows([[2, 0], [0, 1]])])


def _bfs_matrix_group(gens):
    """Breadth-first closure by left multiplication with the generators:
    the reference the coset enumeration of close must agree with."""
    ident = mat_identity(len(gens[0]))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for h in frontier:
            for g in gens:
                p = mat_mul(g, h)
                if p not in seen:
                    seen.add(p)
                    nxt.append(p)
        frontier = nxt
    return seen


def _closes_like_bfs(gens):
    group = close(gens, mat_identity(len(gens[0])), matrix_times, MATRIX_GROUP_CAP)
    assert group == _bfs_matrix_group(gens)
    assert matrix_group_elements(gens) == group
    return len(group)


def test_close_matches_bfs_on_shipped_matgroups():
    suite = load_suite("sec5_char0")
    orders = []
    for check in suite.checks:
        if check.kind != "matgroup":
            continue
        tname, gname, syms = check.fields
        table = suite.table(tname)
        lattice = [suite.scaled_action(table, g)[0] for g in suite.group(gname).generators]
        named = [suite.matrices[s] for s in syms]
        orders.append((_closes_like_bfs(lattice), _closes_like_bfs(named)))
    assert len(orders) == 6
    assert all(a == b for a, b in orders)


def _signed_permutation_matrix(rng, n):
    perm = rng.sample(range(n), n)
    return mat_from_rows(
        [[rng.choice((1, -1)) if perm[j] == i else 0 for j in range(n)] for i in range(n)]
    )


def test_close_matches_bfs_on_random_signed_permutation_matrices():
    rng = random.Random(41)
    for trial in range(60):
        n = trial % 4 + 1
        gens = [_signed_permutation_matrix(rng, n) for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.3:  # a generator already in the group
            gens.append(mat_mul(rng.choice(gens), rng.choice(gens)))
        _closes_like_bfs(gens)


def test_close_cap_is_exact():
    # -sigma_4A and lambda_1 generate a dihedral group of order 8
    gens = [mat_neg(SIGMA_4A), LAMBDA_1]
    with pytest.raises(MonomialError, match="^group exceeded cap 7$"):
        close(gens, mat_identity(3), matrix_times, 7)
    assert len(close(gens, mat_identity(3), matrix_times, 8)) == 8
    with pytest.raises(MonomialError, match="^group exceeded cap 7$"):
        matrix_group_elements(gens, cap=7)


SEC6_BLOCK = [[1, 1, -1], [-1, 1, 1], [1, -1, 1]]

SEC7_TEXTS = ["y2*y3/y6", "y3*y7/y8", "y4*y5/y3", "y5*y6/y7", "y6*y8/y4",
              "y7*y4/y2", "y8*y2/y5"]


def sec7_matrix():
    yt = VarTable([f"y{i}" for i in range(2, 9)])
    defs = [parse_expr(t, yt, QQ) for t in SEC7_TEXTS]
    return Lattice(defs).unit_rows()


def test_exponent_matrix_examples():
    yt = VarTable(["y2", "y3", "y4"])
    defs = [parse_expr(t, yt, QQ) for t in ["y2*y3/y4", "y3*y4/y2", "y4*y2/y3"]]
    assert Lattice(defs).unit_rows() == mat_from_rows(SEC6_BLOCK)

    xt = VarTable(["x1", "x2"])
    defs = [parse_expr(t, xt, QQ) for t in ["x1", "x2"]]
    assert Lattice(defs).unit_rows() == mat_identity(2)

    with pytest.raises(MonomialError):
        Lattice([parse_expr("x1 + x2", xt, QQ)]).unit_rows()
    with pytest.raises(MonomialError):
        Lattice([parse_expr("-x1", xt, QQ), parse_expr("x2", xt, QQ)]).unit_rows()


def test_det_fraction_free_examples():
    assert det_fraction_free(mat_from_rows(SEC6_BLOCK)) == 4
    assert det_fraction_free(mat_identity(5)) == 1
    assert abs(det_fraction_free(sec7_matrix())) == 8
    assert det_fraction_free(mat_from_rows([[1, 2], [2, 4]])) == 0


def test_det_against_smith_oracle_random():
    rng = random.Random(9)
    for _ in range(40):
        n = rng.randint(1, 4)
        m = mat_from_rows([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        d = abs(det_fraction_free(m))
        diag = smith_diagonal(m)
        prod = 1
        for x in diag:
            prod *= x
        if len(diag) < n:
            assert d == 0
        else:
            assert prod == d


def test_verify_degree_examples():
    # the degree checks of a suite, each over its own root table
    text = "\n".join([
        "suite mini field=Q",
        "vars y = y2 y3 y4",
        "vars b = b1 b2 b3",
        *[f"def b.b{i} = {t}" for i, t in enumerate(["y2*y3/y4", "y3*y4/y2", "y4*y2/y3"], 1)],
        "vars s = " + " ".join(f"s{i}" for i in range(2, 9)),
        "vars l = " + " ".join(f"l{i}" for i in range(1, 8)),
        *[f"def l.l{i} = {t.replace('y', 's')}" for i, t in enumerate(SEC7_TEXTS, 1)],
        "vars x = x1 x2",
        "vars e = e1 e2",
        "def e.e1 = x1",
        "def e.e2 = x2",
        'check degree b = 4 ref="r"',
        'check degree b = 5 ref="r"',
        'check degree l = 8 ref="r"',
        'check degree e = 1 ref="r"',
        "vars c = c1 c2",
        "def c.c1 = -x1",
        "def c.c2 = x2",
        "vars p = p1 p2",
        "def p.p1 = x1",
        "def p.p2 = x1 + x2",
        "vars d = d1 d2",
        "def d.d1 = x1*x2",
        "def d.d2 = x1^2*x2^2",
        'check degree c = 1 ref="r"',
        'check degree p = 1 ref="r"',
        'check degree d = 1 ref="r"',
    ]) + "\n"
    checks = run_parsed_suite(parse_suite_text(text)).checks
    assert [c.status for c in checks] == [PASS, FAIL, PASS, PASS, FAIL, FAIL, FAIL]
    assert checks[1].detail == "|det| = 4, expected 5"
    assert checks[4].detail == "error: definition 1 has coefficient != 1"
    assert checks[5].detail == "error: definition 2 is not a Laurent monomial"
    # dependent rows span no lattice of full rank: the degree is not finite
    assert checks[6].detail == "error: exponent rows are linearly dependent"


def gauss_jordan_solve(rows, target):
    """The former solver, kept as the reference: Gauss-Jordan elimination
    of rows^T * a == target with exact rationals, then an integrality
    check.  Refactors the system on every call."""
    k = len(rows)
    if k == 0:
        return () if all(t == 0 for t in target) else None
    n = len(rows[0])
    aug = [[Fraction(rows[i][j]) for i in range(k)] + [Fraction(target[j])]
           for j in range(n)]
    r = 0
    for c in range(k):
        piv = next((i for i in range(r, n) if aug[i][c] != 0), None)
        if piv is None:
            raise MonomialError("exponent rows are linearly dependent")
        aug[r], aug[piv] = aug[piv], aug[r]
        pv = aug[r][c]
        aug[r] = [x / pv for x in aug[r]]
        for i in range(n):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        r += 1
    sol = [aug[i][k] for i in range(k)]
    for i in range(r, n):
        if aug[i][k] != 0:
            return None
    if any(x.denominator != 1 for x in sol):
        return None
    return tuple(int(x) for x in sol)


def laurent(vt, exps):
    """prod x_i^exps[i] as a RatFunc over vt."""
    num = Poly(vt, QQ, {vt.pack([max(e, 0) for e in exps]): QQ.one()})
    den = Poly(vt, QQ, {vt.pack([max(-e, 0) for e in exps]): QQ.one()})
    return RatFunc(num, den, simplify=False)


def lattice_of_rows(rows):
    vt = VarTable([f"x{i}" for i in range(1, len(rows[0]) + 1)])
    return Lattice([laurent(vt, r) for r in rows])


def test_solve_int_combination():
    rows = [(1, 0, 0, -1), (0, 1, 0, -1), (0, 0, 1, -1)]
    lattice = lattice_of_rows(rows)
    assert lattice.rows == tuple(rows)
    assert solve_int_combination(lattice, (1, 1, -1, -1)) == (1, 1, -1)
    assert solve_int_combination(lattice, (1, 1, 1, 0)) is None  # not in the lattice
    assert solve_int_combination(lattice_of_rows([(2, 0)]), (1, 0)) is None  # non-integer


def test_dependent_rows_raise_when_the_lattice_is_built():
    for rows in ([(1, 2), (2, 4)], [(1, 0), (0, 1), (1, 1)], [(0, 0, 0)],
                 [(1, -1, 0), (0, 1, -1), (1, 0, -1)]):
        with pytest.raises(MonomialError, match="exponent rows are linearly dependent"):
            lattice_of_rows(rows)
        with pytest.raises(MonomialError, match="exponent rows are linearly dependent"):
            gauss_jordan_solve(rows, [0] * len(rows[0]))


def test_solver_matches_gauss_jordan_on_shipped_suites(monkeypatch):
    # every (rows, target) the shipped suites solve, replayed through the
    # reference; the suites' own verdicts are pinned elsewhere
    import fixedfield.actions as actions
    from fixedfield.suite import list_suites

    calls = []

    def recording(lattice, target):
        out = solve_int_combination(lattice, target)
        calls.append((lattice, tuple(target), out))
        return out

    monkeypatch.setattr(actions, "solve_int_combination", recording)
    for name in list_suites():
        run_parsed_suite(load_suite(name))
    assert len(calls) >= 300
    assert len({lattice.rows for lattice, _, _ in calls}) >= 8
    for lattice, target, out in calls:
        assert out is not None
        assert out == gauss_jordan_solve(lattice.rows, target)


def independent(rows):
    try:
        gauss_jordan_solve(rows, [0] * len(rows[0]))
    except MonomialError:
        return False
    return True


def test_solver_matches_gauss_jordan_on_random_lattices():
    # full-rank integer lattices with k <= n <= 8; the first row is twice an
    # integer vector w before a unimodular mixing, so w (plus any lattice
    # vector) lies in the rational span but not in the lattice
    rng = random.Random(20261018)
    kinds = {"lattice": 0, "span": 0, "outside": 0}
    for _ in range(120):
        n = rng.randint(1, 8)
        k = rng.randint(1, n)
        while True:
            w = [rng.randint(-3, 3) for _ in range(n)]
            base = [[2 * x for x in w]] + [
                [rng.randint(-3, 3) for _ in range(n)] for _ in range(k - 1)
            ]
            if independent(base):
                break
        rows = [list(r) for r in base]
        for _ in range(3 * k if k > 1 else 0):  # row ops that keep the lattice
            i, j = rng.sample(range(k), 2)
            c = rng.randint(-2, 2)
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
        rng.shuffle(rows)
        lattice = lattice_of_rows(rows)

        def combo():
            a = [rng.randint(-4, 4) for _ in range(k)]
            return [sum(ai * r[j] for ai, r in zip(a, rows)) for j in range(n)]

        inside = combo()
        half = [x + y for x, y in zip(w, combo())]
        targets = [("lattice", inside), ("span", half)]
        if k < n:
            while True:
                t = [rng.randint(-5, 5) for _ in range(n)]
                if independent(rows + [t]):
                    break
            targets.append(("outside", t))
            # agrees with a lattice vector on all but one coordinate
            for j in range(n):
                t = list(inside)
                t[j] += 1
                if independent(rows + [t]):
                    targets.append(("outside", t))
        for kind, t in targets:
            want = gauss_jordan_solve(rows, t)
            assert solve_int_combination(lattice, t) == want, (rows, t)
            assert (want is not None) == (kind == "lattice")
            kinds[kind] += 1
    assert min(kinds.values()) >= 50, kinds


def zset_for_extraction():
    """The degree-3 invariants Z = (z1 z2/z3, z2 z3/z1, z3 z1/z2)."""
    zt = VarTable(["z1", "z2", "z3"])
    texts = ["z1*z2/z3", "z2*z3/z1", "z3*z1/z2"]
    return [parse_expr(t, zt, QQ) for t in texts]


def plain(g):
    """The ambient action (B, d) of a permutation of the ambient variables."""
    return permutation_matrix(g), (QQ.one(),) * g.degree


def test_extract_monomial_action_examples():
    lattice = Lattice(zset_for_extraction())
    ident = Perm.identity(3)
    amat, cvec = extract_monomial_action(lattice, plain(ident), QQ)
    assert amat == mat_identity(3)
    assert all(c == QQ.one() for c in cvec)

    # the swap z1 <-> z2 sends Z1 -> Z1, Z2 = z2z3/z1 -> z1z3/z2 = Z3
    swap = parse_cycles("(1,2)", 3)
    amat, cvec = extract_monomial_action(lattice, plain(swap), QQ)
    assert amat == mat_from_rows([[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    assert all(c == QQ.one() for c in cvec)

    # coefficients travel: (2*x1, x2/3) under the swap is (6*(x2/3), (2*x1)/6)
    xt = VarTable(["x1", "x2"])
    scaled = Lattice([parse_expr("2*x1", xt, QQ), parse_expr("x2/3", xt, QQ)])
    amat, cvec = extract_monomial_action(scaled, plain(parse_cycles("(1,2)", 2)), QQ)
    assert amat == mat_from_rows([[0, 1], [1, 0]])
    assert cvec == (QQ.from_int(6), QQ.div(QQ.one(), QQ.from_int(6)))

    with pytest.raises(MonomialError, match="definition 2 is not a Laurent monomial"):
        extract_monomial_action(
            Lattice([parse_expr("x1", xt, QQ), parse_expr("x1 + x2", xt, QQ)]),
            plain(Perm.identity(2)), QQ,
        )


def test_extract_with_signed_ambient_action():
    # ambient action y1 -> y2 -> 1/y1 on two variables: B columns (e2, -e1)
    yt = VarTable(["y1", "y2"])
    defs = [parse_expr("y1*y2", yt, QQ), parse_expr("y1/y2", yt, QQ)]
    bmat = mat_from_rows([[0, -1], [1, 0]])
    dvec = (QQ.one(), QQ.one())
    amat, cvec = extract_monomial_action(Lattice(defs), (bmat, dvec), QQ)
    # y1*y2 -> y2/y1 = 1/(second def), y1/y2 -> y1*y2... check exactness
    assert amat == mat_from_rows([[0, 1], [-1, 0]])
    assert all(c == QQ.one() for c in cvec)


def test_is_purely_monomial_on_extracted_actions():
    # purely monomial: every coefficient of the extracted action is 1
    lattice = Lattice(zset_for_extraction())
    for g in (Perm.identity(3), parse_cycles("(1,2)", 3)):
        _, cvec = extract_monomial_action(lattice, plain(g), QQ)
        assert all(c == QQ.one() for c in cvec)

    # z1 -> -z1 scales every Z_j by -1: the same matrix, but not pure
    signed = (mat_identity(3), (QQ.from_int(-1), QQ.one(), QQ.one()))
    amat, cvec = extract_monomial_action(lattice, signed, QQ)
    assert amat == mat_identity(3)
    assert cvec == (QQ.from_int(-1),) * 3


def test_monomial_shape():
    xt = VarTable(["x1", "x2"])
    r = parse_expr("3*x1^2/x2", xt, QQ)
    c, e = monomial_shape(r)
    assert c == QQ.from_int(3) and e == (2, -1)
    assert monomial_shape(parse_expr("x1 + x2", xt, QQ)) is None

import random
from collections import Counter
from fractions import Fraction
from math import lcm

import pytest

from fixedfield import monomial
from fixedfield.actions import extract_monomial_action, permutation_matrix
from fixedfield.monomial import (
    Lattice,
    MonomialError,
    close,
    mat_from_rows,
    mat_identity,
    matrix_group_elements,
    monomial_shape,
    orbit_permutations,
    solve_int_combination,
)
from fixedfield.parser import parse_expr
from fixedfield.perms import Perm, image_times, parse_cycles
from fixedfield.poly import Poly, RatFunc, VarTable
from fixedfield.scalars import QQ
from fixedfield.suite import FAIL, PASS, SuiteError, load_suite, parse_suite_text, run_parsed_suite

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


def word_products(pairs):
    """The matrix a suite loads for word=a*b, for each (a, b) of n x n
    matrices, all pairs of one size n, through one suite with n variables."""
    n = len(pairs[0][0])
    lines = ["suite m field=Q", f"points {n}", "vars x = " + " ".join(f"x{k}" for k in range(n))]
    for k, (a, b) in enumerate(pairs):
        for name, m in ((f"a{k}", a), (f"b{k}", b)):
            lines.append(f"matrix {name} = " + " / ".join(",".join(map(str, r)) for r in m))
        lines.append(f'check word x elem=(ID) word=a{k}*b{k} ref="r"')
    return [check.fields[2] for check in parse_suite_text("\n".join(lines) + "\n").checks]


def test_matrix_products_examples():
    # a word= of named matrices is their left-to-right product
    neg = mat_neg(SIGMA_4A)
    cubed = mat_from_rows([[0, -1, 0], [1, 0, 0], [0, 0, -1]])
    squared = mat_from_rows([[-1, 0, 0], [0, -1, 0], [0, 0, 1]])
    assert word_products([(neg, neg), (squared, neg), (mat_identity(3), mat_identity(3)),
                          (neg, LAMBDA_1)]) == [
        squared, cubed, mat_identity(3), mat_from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 1]])]
    # the loader reads a word= as that product, and has no empty word
    head = ("suite m field=Q\npoints 3\nvars x = x1 x2 x3\nmatrix nsA = 0,1,0 / -1,0,0 / 0,0,-1\n"
            "matrix l1 = -1,0,0 / 0,1,0 / 0,0,-1\n")
    suite = parse_suite_text(head + 'check word x elem=(1,2) word=nsA^2*nsA ref="r"\n')
    assert suite.checks[0].fields[2] == cubed
    suite = parse_suite_text(head + 'check word x elem=(1,2) word=nsA*l1 ref="r"\n')
    assert suite.checks[0].fields[2] == word_products([(neg, LAMBDA_1)])[0]  # not L*neg
    with pytest.raises(SuiteError, match="^line 6: check word needs word= factors"):
        parse_suite_text(head + 'check word x elem=(1,2) word=* ref="r"\n')


def _triple_loop(a, b):
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(len(b)))
                       for j in range(len(b[0]))) for i in range(len(a)))


def test_mat_mul_matches_a_triple_loop():
    # the product a word= loads against the definition of the product: 1x1,
    # all-zero columns and rows, dense and signed permutation factors
    rng = random.Random(20141)

    def rand(rows, cols, density=1.0):
        return mat_from_rows([[rng.randint(-9, 9) if rng.random() < density else 0
                               for _ in range(cols)] for _ in range(rows)])

    sized = {1: [(rand(1, 1), rand(1, 1)), (((0,),), ((5,),)), (((3,),), ((0,),))]}
    for n in range(1, 7):
        cases = sized.setdefault(n, [])
        cases.append((rand(n, n), rand(n, n)))  # dense
        cases.append((rand(n, n), _signed_permutation_matrix(rng, n)))
        cases.append((_signed_permutation_matrix(rng, n), rand(n, n)))
        zero_cols = rand(n, n, density=0.5)
        zero_cols = mat_from_rows([[0 if j % 2 else x for j, x in enumerate(row)]
                                   for row in zero_cols])
        cases.append((rand(n, n), zero_cols))
        cases.append((rand(n, n), mat_from_rows([[0] * n] * n)))
        cases.append((rand(n, n, density=rng.random()), rand(n, n, density=rng.random())))
    # all 48 signed permutation matrices of size 3 and their products
    signed = {_signed_permutation_matrix(rng, 3) for _ in range(2000)}
    assert len(signed) == 48
    sized[3] += [(a, b) for a in signed for b in list(signed)[:8]]
    for cases in sized.values():
        assert word_products(cases) == [_triple_loop(a, b) for a, b in cases]


def test_matrix_group_orders(monkeypatch):
    def orders(gens):
        return [len(g) for g in matrix_group_elements(gens, gens, len(gens[0]), QQ)]

    assert orders([mat_identity(3)]) == [1, 1, 1]
    assert orders([mat_neg(mat_identity(3))]) == [2, 2, 2]
    # the dihedral group generated by -sigma_4A (order 4) and lambda_1
    assert orders([mat_neg(SIGMA_4A), LAMBDA_1]) == [8, 8, 8]
    # <left>, <right> and the group both generate
    assert [len(g) for g in matrix_group_elements(
        [mat_neg(SIGMA_4A)], [LAMBDA_1], 3, QQ)] == [4, 2, 8]
    monkeypatch.setattr(monomial, "MATRIX_GROUP_CAP", 100)  # an infinite order
    with pytest.raises(MonomialError, match="^group exceeded cap 100$"):
        orders([mat_from_rows([[2, 0], [0, 1]])])


def _bfs_matrix_group(gens):
    """Breadth-first closure by left multiplication with the generators,
    with its own triple-loop product: the reference the closure of
    matrix_group_elements must agree with."""
    ident = mat_identity(len(gens[0]))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for h in frontier:
            for g in gens:
                p = _triple_loop(g, h)
                if p not in seen:
                    seen.add(p)
                    nxt.append(p)
        frontier = nxt
    return seen


def _closes_like_bfs(gens):
    # <gens> and the BFS elements, as generators, close to groups of the
    # BFS order, and so does their join: <gens> is exactly the BFS set
    bfs = sorted(_bfs_matrix_group(gens))
    orders = [len(g) for g in matrix_group_elements(gens, bfs, len(gens[0]), QQ)]
    assert orders == [len(bfs)] * 3
    return len(bfs)


def test_close_matches_bfs_on_shipped_matgroups():
    suite = load_suite("sec5_char0")
    orders = []
    for check in suite.checks:
        if check.kind != "matgroup":
            continue
        table, group, named = check.fields  # the matrices named, resolved at load
        lattice = [suite.scaled_action(table, g)[0] for g in group.generators]
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
            a, b = rng.choice(gens), rng.choice(gens)
            gens.append(_triple_loop(a, b))
        _closes_like_bfs(gens)


def test_close_cap_is_exact(monkeypatch):
    # -sigma_4A and lambda_1 generate a dihedral group of order 8, which
    # permutes the 6 points (1, +-e_j) of their orbit
    gens = [mat_neg(SIGMA_4A), LAMBDA_1]
    units = (QQ.one(),) * 3
    ident, *perms = orbit_permutations([(g, units) for g in gens], 3, QQ, 8)
    assert len(ident) == 6
    with pytest.raises(MonomialError, match="^group exceeded cap 7$"):
        close(perms, ident, image_times, 7)
    assert len(close(perms, ident, image_times, 8)) == 8
    monkeypatch.setattr(monomial, "MATRIX_GROUP_CAP", 7)
    with pytest.raises(MonomialError, match="^group exceeded cap 7$"):
        matrix_group_elements(gens, gens, 3, QQ)


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


def lattice_of(rows):
    """The Lattice of one Laurent monomial prod_k t_k^{row[k]} per row."""
    vt = VarTable([f"t{k}" for k in range(len(rows[0]))])

    def mono(exps):
        return Poly(vt, QQ, {vt.pack(exps): QQ.one()})

    return Lattice([RatFunc(mono([max(e, 0) for e in row]), mono([max(-e, 0) for e in row]))
                    for row in rows])


def test_lattice_det_examples():
    assert lattice_of(SEC6_BLOCK).det == 4
    assert lattice_of(mat_identity(5)).det == 1
    assert lattice_of(sec7_matrix()).det == 8
    with pytest.raises(MonomialError, match="^exponent rows are linearly dependent$"):
        lattice_of([[1, 2], [2, 4]])


def test_det_against_smith_oracle_random():
    rng = random.Random(9)
    for _ in range(40):
        n = rng.randint(1, 4)
        m = mat_from_rows([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        diag = smith_diagonal(m)
        prod = 1
        for x in diag:
            prod *= x
        if len(diag) < n:
            with pytest.raises(MonomialError, match="^exponent rows are linearly dependent$"):
                lattice_of(m)
        else:
            assert lattice_of(m).det == prod


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
    return RatFunc(num, den)


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


def fraction_factor(rows):
    """The former Lattice factoring, kept as the reference: Gauss-Jordan on
    [rows | I_k] over Q, den the least common denominator of U, and det
    the product of the pivots met, |det| of the pivot submatrix."""
    k, n = len(rows), len(rows[0])
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(k)]
         for i, row in enumerate(rows)]
    pivots, det = [], Fraction(1)
    for c in range(n):
        r = len(pivots)
        if r == k:
            break
        piv = next((i for i in range(r, k) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        det *= a[r][c]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(k):
            if i != r and a[i][c]:
                a[i] = [x - a[i][c] * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
    if len(pivots) < k:
        raise MonomialError("exponent rows are linearly dependent")
    u = [row[n:] for row in a]
    den = lcm(*(x.denominator for row in u for x in row))
    inverse = tuple(tuple(int(u[p][i] * den) for p in range(k)) for i in range(k))
    return tuple(pivots), inverse, den, abs(int(det))


def test_factor_matches_fraction_gauss_jordan():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def matrices(draw):
        k = draw(st.integers(1, 7))
        n = draw(st.integers(k, 9))
        row = st.lists(st.integers(-7, 7), min_size=n, max_size=n)
        rows = draw(st.lists(row, min_size=k, max_size=k))
        if k > 1 and draw(st.booleans()):  # a multiple of another row
            i, j = draw(st.permutations(range(k)))[:2]
            c = draw(st.integers(-1, 1))
            rows[i] = [c * x for x in rows[j]]
        return rows

    seen = Counter()

    @hypothesis.settings(derandomize=True, max_examples=300, deadline=None,
                         database=None, suppress_health_check=list(hypothesis.HealthCheck))
    @hypothesis.given(matrices())
    def check(rows):
        try:
            want = fraction_factor(rows)
        except MonomialError:
            with pytest.raises(MonomialError, match="^exponent rows are linearly dependent$"):
                monomial._factor(rows)
            seen["dependent"] += 1
            return
        got = monomial._factor(rows)
        assert got == want and got[2] > 0, rows
        seen["independent"] += 1

    check()
    assert min(seen.values()) >= 100, seen


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

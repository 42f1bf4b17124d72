"""Cross-checks of the exact kernels against sympy, an independent implementation.

sympy and hypothesis are test-only dependencies; the module is skipped when
either is missing.
"""
import random
from fractions import Fraction as F

import pytest

from polysing.cli import load_document
from polysing.divclass import class_group
from polysing.errors import DegenerateInput, ShapeError
from polysing.pdiv import A1, P1, Point, extremal_data, is_proper, polyhedral_divisor, support
from polysing.polyhedra import make_cone, sigma_polyhedron
from polysing.ratlin import (
    Inconsistent,
    SmithForm,
    Unique,
    _dims,
    _identity,
    determinant,
    ext_gcd,
    ext_gcd_multi,
    invert_unimodular,
    matrix_rank,
    mu,
    smith_normal_form,
    solve_exact,
)
from polysing.ufdgen import admissible_data, construct_divisor, default_points

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from sympy.matrices.normalforms import invariant_factors  # noqa: E402

ORACLE = settings(max_examples=150)

entries = st.integers(-9, 9)


@st.composite
def int_matrices(draw, square=False):
    m = draw(st.integers(1, 5))
    n = m if square else draw(st.integers(1, 5))
    return [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(m)]


@st.composite
def mixed_matrices(draw):
    """Rows that are either all int or all Fraction, as the geometry layers pass them."""
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 5))
    fracs = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    rows = []
    for _ in range(m):
        elems = fracs if draw(st.booleans()) else entries
        rows.append(draw(st.lists(elems, min_size=n, max_size=n)))
    return rows


@st.composite
def unimodular_matrices(draw):
    """Products of random elementary integer operations applied to the identity."""
    n = draw(st.integers(1, 5))
    a = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 12))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i == j:
            a[i] = [-x for x in a[i]]
        else:
            q = draw(st.integers(-3, 3))
            a[i] = [x + q * y for x, y in zip(a[i], a[j])]
    return a


@st.composite
def smith_inputs(draw):
    """Integer matrices up to 5x5, half of them products through an inner
    dimension up to min(m, n) (so often rank-deficient), some rows zeroed."""
    a = draw(int_matrices())
    m, n = len(a), len(a[0])
    if draw(st.booleans()):
        r = draw(st.integers(0, min(m, n)))
        small = st.integers(-3, 3)
        b = [draw(st.lists(small, min_size=r, max_size=r)) for _ in range(m)]
        c = [draw(st.lists(small, min_size=n, max_size=n)) for _ in range(r)]
        a = [[sum(row[t] * c[t][j] for t in range(r)) for j in range(n)] for row in b]
    zero = draw(st.sets(st.integers(0, m - 1)))
    return [[0] * n if i in zero else row for i, row in enumerate(a)]


def _sympy_factors(a):
    return sorted(abs(int(x)) for x in invariant_factors(sympy.Matrix(a), domain=sympy.ZZ))


@ORACLE
@given(int_matrices(square=True))
def test_determinant_matches_sympy(a):
    det = determinant(a)
    assert type(det) is int
    assert det == sympy.Matrix(a).det()


@st.composite
def fraction_matrices(draw):
    """Square Fraction matrices up to 5x5 with denominators up to 12; some
    made singular (a row a multiple of another), some with a zero first
    pivot (a zero leading entry, or a whole zero first column), and some
    with their integral entries given as int."""
    n = draw(st.integers(1, 5))
    fracs = st.fractions(min_value=-5, max_value=5, max_denominator=12)
    a = [draw(st.lists(fracs, min_size=n, max_size=n)) for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i != j:
            c = draw(fracs)
            a[j] = [c * x for x in a[i]]
    pivot = draw(st.sampled_from(["kept", "zero_entry", "zero_column"]))
    if pivot != "kept":
        for row in a[: 1 if pivot == "zero_entry" else n]:
            row[0] = F(0)
    if draw(st.booleans()):
        a = [[int(x) if x.denominator == 1 else x for x in row] for row in a]
    return a


@ORACLE
@given(fraction_matrices())
def test_determinant_of_fraction_matrices_matches_sympy(a):
    det = determinant(a)
    assert type(det) is (int if all(type(x) is int for row in a for x in row) else F)
    expected = sympy.Matrix(a).det()
    assert sympy.Rational(det.numerator, det.denominator) == expected


@ORACLE
@given(mixed_matrices())
def test_matrix_rank_matches_sympy(a):
    assert matrix_rank(a) == sympy.Matrix(a).rank()


@ORACLE
@given(int_matrices())
def test_smith_diagonal_matches_sympy(a):
    assert sorted(smith_normal_form(a).diagonal) == _sympy_factors(a)


@ORACLE
@given(smith_inputs())
def test_smith_right_inverse_matches_sympy(a):
    sf = smith_normal_form(a)
    right = sympy.Matrix(sf.right)
    assert right * sympy.Matrix(sf.right_inverse) == sympy.eye(len(sf.right))
    assert [list(row) for row in sf.right_inverse] == right.inv().tolist()


def reference_smith_normal_form(a):
    """The Smith form as it was before the divisibility repair was folded into
    the pivot loop: a pivot loop, then a pass that recombines two rows by
    `ext_gcd` wherever d_k does not divide d_{k+1}."""
    m, n = _dims(a)
    d = [[int(x) for x in row] for row in a]
    u = _identity(m)
    v = _identity(n)
    vi = _identity(n)

    def row_op(i, j, q):  # row_i -= q * row_j
        d[i] = [x - q * y for x, y in zip(d[i], d[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for row in d:
            row[i] -= q * row[j]
        for row in v:
            row[i] -= q * row[j]
        vi[j] = [x + q * y for x, y in zip(vi[j], vi[i])]

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]
        vi[i], vi[j] = vi[j], vi[i]

    def negate_row(i):
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]

    size = min(m, n)
    for k in range(size):
        # move a nonzero entry of minimal magnitude to the pivot
        while True:
            best = None
            for i in range(k, m):
                for j in range(k, n):
                    if d[i][j] != 0 and (best is None or abs(d[i][j]) < abs(d[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                break
            i, j = best
            if i != k:
                swap_rows(k, i)
            if j != k:
                swap_cols(k, j)
            dirty = False
            for i in range(k + 1, m):
                if d[i][k] != 0:
                    row_op(i, k, d[i][k] // d[k][k])
                    dirty = dirty or d[i][k] != 0
            for j in range(k + 1, n):
                if d[k][j] != 0:
                    col_op(j, k, d[k][j] // d[k][k])
                    dirty = dirty or d[k][j] != 0
            if not dirty and all(d[i][k] == 0 for i in range(k + 1, m)) and all(
                d[k][j] == 0 for j in range(k + 1, n)
            ):
                break
        if d[k][k] < 0:
            negate_row(k)

    # enforce the divisibility chain d_k | d_{k+1}
    changed = True
    while changed:
        changed = False
        for k in range(size - 1):
            violates = (
                d[k + 1][k + 1] != 0
                if d[k][k] == 0
                else d[k + 1][k + 1] % d[k][k] != 0
            )
            if violates:
                # fold the offending entry back into the pivot column and re-reduce
                col_op(k, k + 1, -1)  # col_k += col_{k+1}
                a2 = d[k][k]
                b2 = d[k + 1][k]
                g, x, y = ext_gcd(a2, b2)
                # rows (k, k+1) <- (x*row_k + y*row_{k+1}, ...) keeping det +-1
                rk = [x * p + y * q for p, q in zip(d[k], d[k + 1])]
                uk = [x * p + y * q for p, q in zip(u[k], u[k + 1])]
                s, t = (b2 // g, -(a2 // g)) if g else (0, 1)
                rk1 = [s * p + t * q for p, q in zip(d[k], d[k + 1])]
                uk1 = [s * p + t * q for p, q in zip(u[k], u[k + 1])]
                d[k], d[k + 1] = rk, rk1
                u[k], u[k + 1] = uk, uk1
                for j in range(k + 1, n):
                    if d[k][j] != 0:
                        col_op(j, k, d[k][j] // d[k][k])
                if d[k][k] < 0:
                    negate_row(k)
                if d[k + 1][k + 1] < 0:
                    negate_row(k + 1)
                changed = True
    diag = tuple(d[k][k] for k in range(size))
    return SmithForm(diag, *(tuple(tuple(r) for r in t) for t in (u, v, vi)))


def reference_ext_gcd_multi(values):
    """`ext_gcd_multi` as it was before it became a plain fold of `ext_gcd`:
    the first value and every zero gcd are handled by hand."""
    if not values:
        raise DegenerateInput("ext_gcd_multi needs a nonempty list")
    g = abs(values[0])
    coeffs = [1 if values[0] >= 0 else -1]
    if values[0] == 0:
        coeffs = [1]
    for v in values[1:]:
        if g == 0:
            if v == 0:
                coeffs.append(0)
                continue
            coeffs = [0] * len(coeffs)
            coeffs.append(1 if v > 0 else -1)
            g = abs(v)
            continue
        g_new, x, y = ext_gcd(g, v)
        coeffs = [c * x for c in coeffs]
        coeffs.append(y)
        g = g_new
    if g == 0:
        raise DegenerateInput("all-zero input to ext_gcd_multi")
    return g, coeffs


@st.composite
def smith_draws(draw):
    """Integer matrices up to 7x7: dense ones with entries up to 10^6, zero-heavy
    ones, and diagonal ones such as diag(2, 3) or diag(4, 6) whose entries
    break the divisibility chain until a row is folded into the pivot row."""
    m, n = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    kind = draw(st.sampled_from(["dense", "sparse", "diagonal"]))
    if kind == "diagonal":
        a = [[0] * n for _ in range(m)]
        for i in range(min(m, n)):
            a[i][i] = draw(st.integers(-12, 12))
        return a
    bound = draw(st.sampled_from([9, 10**6]))
    x = st.integers(-bound, bound)
    if kind == "sparse":
        x = st.one_of(st.just(0), st.just(0), x)
    return [draw(st.lists(x, min_size=n, max_size=n)) for _ in range(m)]


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def test_smith_form_matches_the_reference_and_sympy():
    """One pivot loop gives the reference's diagonal and sympy's invariant
    factors, with unimodular transforms that diagonalize the input; its
    transforms part from the reference's only where a row was folded."""
    folded = []

    @settings(max_examples=60)
    @given(smith_draws())
    def check(a):
        sf, ref = smith_normal_form(a), reference_smith_normal_form(a)
        assert sf.diagonal == ref.diagonal
        assert sorted(sf.diagonal) == _sympy_factors(a)
        m, n = len(a), len(a[0])
        assert _matmul(_matmul(sf.left, a), sf.right) == [
            [sf.diagonal[i] if i == j else 0 for j in range(n)] for i in range(m)
        ]
        assert abs(determinant(sf.left)) == abs(determinant(sf.right)) == 1
        assert _matmul(sf.right, sf.right_inverse) == _identity(n)
        assert all(y % x == 0 if x else y == 0 for x, y in zip(sf.diagonal, sf.diagonal[1:]))
        assert sf.rank == sympy.Matrix(a).rank()
        folded.append(sf != ref)

    check()
    assert any(folded)


def test_ext_gcd_multi_matches_the_reference():
    """The fold gives the reference's gcd and Bezout vector, or raises as it
    does, on every list of length up to 3 over -6..6 and on seeded lists of
    length up to 7 with zeros and entries up to 10^6."""

    def outcome(fn, values):
        try:
            return fn(values)
        except DegenerateInput:
            return DegenerateInput

    small = range(-6, 7)
    lists = [[]] + [[a] for a in small] + [[a, b] for a in small for b in small]
    lists += [[a, b, c] for a in small for b in small for c in small]
    rng = random.Random(27)

    def entry():
        return rng.choice((0, rng.randint(-6, 6), rng.randint(-(10**6), 10**6)))

    lists += [[entry() for _ in range(rng.randint(1, 7))] for _ in range(2000)]
    for values in lists:
        assert outcome(ext_gcd_multi, values) == outcome(reference_ext_gcd_multi, values), values


@ORACLE
@given(unimodular_matrices())
def test_invert_unimodular_matches_sympy(a):
    assert invert_unimodular(a) == sympy.Matrix(a).inv().tolist()


@ORACLE
@given(int_matrices(square=True))
def test_invert_unimodular_rejects_other_determinants(a):
    if abs(sympy.Matrix(a).det()) == 1:
        return
    with pytest.raises(DegenerateInput):
        invert_unimodular(a)


def test_invert_unimodular_rejects_nonsquare():
    with pytest.raises(ShapeError):
        invert_unimodular([[1, 0, 0], [0, 1, 0]])


fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@st.composite
def linear_systems(draw):
    """A x = b with Fraction entries up to 5x5; rows may be combinations of
    earlier rows, and b is either A x0 (consistent) or drawn freely."""
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 5))
    a = [draw(st.lists(fractions, min_size=n, max_size=n)) for _ in range(m)]
    for i in range(1, m):
        if draw(st.booleans()):
            j, k = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            c, e = draw(fractions), draw(fractions)
            a[i] = [c * x + e * y for x, y in zip(a[j], a[k])]
    if draw(st.booleans()):
        x0 = draw(st.lists(fractions, min_size=n, max_size=n))
        b = [sum(x * y for x, y in zip(row, x0)) for row in a]
    else:
        b = draw(st.lists(fractions, min_size=m, max_size=m))
    return a, b


def _sympy_rational(a):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in a])


@ORACLE
@given(linear_systems())
def test_solve_exact_matches_sympy(system):
    a, b = system
    n = len(a[0])
    sa, sb = _sympy_rational(a), _sympy_rational([[x] for x in b])
    rank = sa.rank()
    res = solve_exact(a, b)
    if sa.row_join(sb).rank() > rank:
        assert isinstance(res, Inconsistent)
        y = res.certificate
        assert all(sum(yi * row[j] for yi, row in zip(y, a)) == 0 for j in range(n))
        assert sum(yi * bi for yi, bi in zip(y, b)) != 0
        return
    if rank == n:
        assert isinstance(res, Unique)
        sol, _ = sa.gauss_jordan_solve(sb)
        assert [sympy.Rational(x.numerator, x.denominator) for x in res.x] == list(sol)
        return
    assert n - len(res.nullspace) == rank
    assert _sympy_rational(res.nullspace).rank() == n - rank
    for row, rhs in zip(a, b):
        assert sum(x * v for x, v in zip(row, res.particular)) == rhs
        assert all(sum(x * v for x, v in zip(row, vec)) == 0 for vec in res.nullspace)


def _relation_factors(d):
    """Torsion and free rank from the class-group relation matrix written out
    generator by generator: the base point class (projective case), one divisor
    per (point, vertex) and one per extremal ray; one relation per point and
    one per lattice coordinate."""
    sup = dict(support(d))
    points = sorted(set(sup) | {p for p, _ in d.canonical.terms})
    n = d.tail.ambient_rank
    verts = []
    for i, p in enumerate(points):
        for v in sup[p].vertices if p in sup else [(F(0),) * n]:
            verts.append((i, v, mu(v)))
    rays = extremal_data(d).extremal_rays
    r_cl = 1 if d.base.projective else 0
    n_gen = r_cl + len(verts) + len(rays)
    rows = []
    for i in range(len(points)):
        row = [0] * n_gen
        if r_cl:
            row[0] = 1
        for j, (pi, _, m) in enumerate(verts):
            if pi == i:
                row[r_cl + j] = -m
        rows.append(row)
    for k in range(n):
        rows.append(
            [0] * r_cl + [int(m * v[k]) for _, v, m in verts] + [ray[k] for ray in rays]
        )
    factors = [x for x in _sympy_factors(rows) if x]
    return tuple(x for x in factors if x > 1), n_gen - len(factors)


def _class_group_cases(data_dir):
    for path in sorted(data_dir.glob("*.json")):
        doc = load_document(path)
        if doc["kind"] == "admissible":
            yield path.name, construct_divisor(doc["data"])
        elif doc["kind"] == "divisor" and is_proper(doc["data"]).status == "proper":
            yield path.name, doc["data"]
    rng = random.Random(20261017)
    # admissible data from the factorial sweep's range: multiplicities 1..6,
    # at most one pair, pairwise coprime gcds; their class groups are trivial
    sampled = 0
    while sampled < 30:
        mus = [(rng.randint(1, 6),) for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.5:
            mus[0] = tuple(sorted((rng.randint(1, 6), rng.randint(1, 6)), reverse=True))
        try:
            data = admissible_data(list(zip(default_points(len(mus)), mus)))
        except DegenerateInput:
            continue
        sampled += 1
        yield f"sweep {mus}", construct_divisor(data)
    # random divisors with nontrivial torsion and free rank, on both bases
    ray = make_cone([(1,)], 1)
    orth = make_cone([(1, 0), (0, 1)])
    cases = 0
    while cases < 30:
        base = rng.choice((P1, A1))
        tail = rng.choice((ray, orth))
        pts = [Point.coord(i) for i in range(rng.randint(1, 4))]
        if base is P1:
            pts[0] = Point.infinity()
        coeffs = {}
        for p in pts:
            verts = []
            for _ in range(rng.randint(1, 2)):
                m = rng.randint(1, 6)
                verts.append(tuple(F(rng.randint(-2 * m, 2 * m), m) for _ in range(tail.ambient_rank)))
            coeffs[p] = sigma_polyhedron(verts, tail)
        d = polyhedral_divisor(base, tail, coeffs)
        if is_proper(d).status != "proper":
            continue
        cases += 1
        yield f"random {cases}", d


def test_class_group_matches_relation_matrix(data_dir):
    seen = 0
    for name, d in _class_group_cases(data_dir):
        cg = class_group(d)
        assert (cg.torsion, cg.free_rank) == _relation_factors(d), name
        seen += 1
    assert seen >= 66

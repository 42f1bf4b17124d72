"""The integer kernels against the Fraction definitions they replaced.

`lattice_points` is checked against a box filter over the vertices of the
region, `is_regular` against its definition through the double description:
pointed, extreme rays independent, maximal minors coprime.  `support_value`
is checked against the minimum of Fraction dots over the vertices,
`higher_direct_dims` against the floor degree of the evaluated divisor, `dot`
against a generator-expression sum, and the graded comparison's side A
against a sum of `higher_direct_dims` over the lattice points of its region.
The divisor's integer support rows over one denominator ell are checked
against the Fraction sums they replaced: `_deg_value` against ell times the
sum of support values, `is_proper` and `extremal_data` against their Fraction
versions, `_floor_degree` against the floors over each point's own
denominator.
"""
import math
import random
from fractions import Fraction as F
from itertools import combinations_with_replacement, product

import pytest
from conftest import capped

from polysing.errors import DegenerateInput, NotProperError, UnboundedBelow, UnsupportedBase
from polysing.pdiv import (
    A1,
    ABSTRACT,
    P1,
    PROJECTIVE_LINE,
    Curve,
    ExtremalData,
    Point,
    Properness,
    _deg_value,
    _floor_degree,
    _interior_sample,
    _support_rows,
    evaluate,
    extremal_data,
    floor_degree,
    higher_direct_dims,
    is_proper,
    polyhedral_divisor,
    rank,
    support,
)
from polysing.polyhedra import (
    SigmaPolyhedron,
    _max_minor_gcd,
    dual_cone,
    halfspaces,
    is_pointed,
    is_regular,
    lattice_multiple,
    lattice_points,
    make_cone,
    minimal_generators,
    minkowski_sum,
    polytope_vertices,
    sigma_polyhedron,
    support_value,
)
from polysing.ratlin import dot, invert_unimodular, matrix_rank, mu, vec_add
from polysing.ufdgen import admissible_data, construct_divisor, default_points, hilbert_compare, presentation

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

KERNEL = settings(max_examples=100)

fracs = st.fractions(min_value=-6, max_value=6, max_denominator=4)


def _box_filter(rows, rhs, dim):
    """The integer points of the box around the vertices that satisfy every row."""
    verts = polytope_vertices(rows, rhs, dim)
    if not verts:
        return []
    ranges = [
        range(math.ceil(min(v[j] for v in verts)), math.floor(max(v[j] for v in verts)) + 1)
        for j in range(dim)
    ]
    return [x for x in product(*ranges) if all(dot(r, x) >= b for r, b in zip(rows, rhs))]


@st.composite
def bounded_regions(draw):
    """A box scaled by positive fractions, cut by random and zero rows, shuffled."""
    dim = draw(st.integers(1, 4))
    rows, rhs = [], []
    for j in range(dim):
        for sign in (1, -1):
            scale = draw(st.fractions(min_value=F(1, 3), max_value=3, max_denominator=3))
            rows.append(tuple(sign * scale * (i == j) for i in range(dim)))
            rhs.append(-scale * draw(st.integers(0, 3)))
    for _ in range(draw(st.integers(0, 4))):
        rows.append(tuple(draw(fracs) for _ in range(dim)))
        rhs.append(draw(fracs))
    for _ in range(draw(st.integers(0, 1))):
        rows.append((F(0),) * dim)
        rhs.append(draw(st.fractions(min_value=-2, max_value=1, max_denominator=2)))
    order = draw(st.permutations(range(len(rows))))
    return [rows[i] for i in order], [rhs[i] for i in order], dim


@KERNEL
@given(bounded_regions())
def test_lattice_points_match_box_filter(region):
    rows, rhs, dim = region
    assert list(lattice_points(rows, rhs, dim)) == _box_filter(rows, rhs, dim)


@KERNEL
@given(st.data())
def test_unbounded_region_raises(data):
    """A region that holds the origin and a recession direction is refused."""
    dim = data.draw(st.integers(1, 4))
    direction = data.draw(st.tuples(*[st.integers(-2, 2)] * dim).filter(any))
    drawn = data.draw(st.lists(st.tuples(*[fracs] * dim), max_size=8))
    rows = [r for r in drawn if dot(r, direction) >= 0]
    rhs = [-data.draw(st.fractions(min_value=0, max_value=6, max_denominator=4)) for _ in rows]
    with pytest.raises(DegenerateInput):
        next(lattice_points(rows, rhs, dim), None)


def test_empty_and_point_regions():
    assert list(lattice_points([(1, 0), (-1, 0)], [1, 0], 2)) == []
    assert list(lattice_points([(2,), (-2,)], [1, -1], 1)) == []  # 1/2 <= x <= 1/2
    assert list(lattice_points([(0, 0), (1, 0), (0, 1), (-1, -1)], [1, 0, 0, 0], 2)) == []
    assert list(lattice_points([(1,), (-1,)], [F(3, 2), F(-5, 2)], 1)) == [(2,)]


def test_many_rows_at_rank_four_finish():
    """28 bounding rows at rank 4: without Chernikov's rule the combinations
    compound past any useful time."""
    rng = random.Random(5)
    rows = [tuple(rng.randint(-5, 5) for _ in range(4)) for _ in range(28)]
    rhs = [-rng.randint(5, 20) for _ in rows]
    with capped(5):
        points = list(lattice_points(rows, rhs, 4))
    assert (0, 0, 0, 0) in points
    assert points == sorted(set(points))
    assert all(dot(r, x) >= b for x in points for r, b in zip(rows, rhs))


def _regular_by_description(c):
    if not c.generators:
        return True
    if not is_pointed(c):
        return False
    rays = minimal_generators(c)
    if len(rays) != matrix_rank(rays):
        return False
    return _max_minor_gcd(rays) == 1


@KERNEL
@given(st.data())
def test_is_regular_matches_description(data):
    n = data.draw(st.integers(1, 5))
    # the description's double description compounds on dense rank-5 cones
    bound, most = (2, n + 1) if n < 5 else (1, 3)
    vec = st.tuples(*[st.integers(-bound, bound)] * n)
    gens = data.draw(st.lists(vec, min_size=1, max_size=most))
    # redundant generators inside the cone: sums of two drawn ones
    pairs = st.tuples(st.sampled_from(gens), st.sampled_from(gens))
    gens += [tuple(map(sum, zip(a, b))) for a, b in data.draw(st.lists(pairs, max_size=2))]
    if not any(any(g) for g in gens):
        return
    c = make_cone(gens, n)
    assert is_regular(c) == _regular_by_description(c)


def _listed(verts, tail):
    """The polyhedron of exactly these vertices, unpruned, over their least
    common denominator."""
    den = math.lcm(*[F(x).denominator for v in verts for x in v])
    return SigmaPolyhedron(den, tuple(sorted({tuple(int(F(x) * den) for x in v) for v in verts})), tail)


def _support_value_by_fractions(p, u):
    """The minimum of <u, v> over the vertices, one Fraction dot per vertex."""
    for g in p.tail.generators:
        if dot(u, g) < 0:
            raise UnboundedBelow(f"<{tuple(u)}, {g}> < 0 on a tail ray")
    values = [(dot(u, v), v) for v in p.vertices]
    best = min(val for val, _ in values)
    return best, tuple(v for val, v in values if val == best)


@KERNEL
@given(st.data())
def test_support_value_matches_fraction_dots(data):
    """Listed vertices, not pruned, over tails of every dimension from 0 to n."""
    n = data.draw(st.integers(1, 4))
    vec = st.tuples(*[st.integers(-2, 2)] * n)
    tail = make_cone(data.draw(st.lists(vec, max_size=n)), n)
    verts = data.draw(st.lists(st.tuples(*[fracs] * n), min_size=1, max_size=5, unique=True))
    p = _listed(verts, tail)
    coord = st.integers(-5, 5) | st.fractions(min_value=-5, max_value=5, max_denominator=6)
    u = data.draw(st.tuples(*[coord] * n))
    try:
        expected = _support_value_by_fractions(p, u)
    except UnboundedBelow:
        with pytest.raises(UnboundedBelow):
            support_value(p, u)
        return
    value, attained = support_value(p, u)
    assert isinstance(value, F)
    assert (value, attained) == expected


# mostly non-integral, so that the floors lose something at most points
proper_fracs = st.builds(F, st.integers(-20, 20), st.integers(2, 5))


@st.composite
def proper_p1_divisors(draw):
    """A divisor on P^1 over a simplicial unimodular tail L * orthant, with a
    lattice point u of the dual tail.

    Vertices are drawn in L-coordinates; the coefficient at infinity shifts
    the degree polyhedron strictly inside the tail, which makes it proper.
    """
    n = draw(st.integers(1, 3))
    lower = [
        [1 if i == j else (draw(st.integers(-2, 2)) if j < i else 0) for j in range(n)] for i in range(n)
    ]

    def place(c):
        return tuple(dot(row, c) for row in lower)

    tail = make_cone(list(zip(*lower)), n)
    coeffs, low = {}, [F(0)] * n
    for point in map(Point.coord, range(draw(st.integers(1, 4)))):
        cs = draw(st.lists(st.tuples(*[proper_fracs] * n), min_size=1, max_size=3, unique=True))
        low = [lo + min(c[i] for c in cs) for i, lo in enumerate(low)]
        coeffs[point] = sigma_polyhedron([place(c) for c in cs], tail)
    # a small lift leaves the floors room to push the degree below -1 (h1 > 0)
    lift = [draw(st.fractions(min_value=F(1, 12), max_value=F(1, 2), max_denominator=12)) - lo for lo in low]
    coeffs[Point.infinity()] = sigma_polyhedron([place(lift)], tail)
    d = polyhedral_divisor(P1, tail, coeffs)
    # the dual tail is spanned by the rows of L^-1
    weights = draw(st.tuples(*[st.integers(0, 2)] * n))
    u = tuple(dot(weights, col) for col in zip(*invert_unimodular(lower)))
    return d, u


@KERNEL
@given(proper_p1_divisors())
def test_higher_direct_dims_match_floor_degree(case):
    d, u = case
    assert is_proper(d).status == "proper"
    fdeg = floor_degree(evaluate(d, u))[1]
    assert higher_direct_dims(d, u) == (max(fdeg + 1, 0), max(-fdeg - 1, 0))


@st.composite
def _candidate_sets(draw):
    """A pointed tail of rank 1-4 and 1-4 candidate vertices with
    denominators up to 12."""
    n = draw(st.integers(1, 4))
    tail = make_cone(draw(st.lists(st.tuples(*[st.integers(-2, 2)] * n), max_size=n)), n)
    assume(is_pointed(tail))
    coord = st.builds(F, st.integers(-24, 24), st.integers(1, 12))
    return tail, draw(st.lists(st.tuples(*[coord] * n), min_size=1, max_size=4))


@settings(max_examples=200)
@given(_candidate_sets(), st.randoms(use_true_random=False))
def test_sigma_polyhedron_is_canonical(case, rng):
    """Least den, round trip through `vertices`, one hash per polyhedron
    whatever the candidate list, mu of every row, and a canonical den after
    a Minkowski sum."""
    tail, cands = case
    p = sigma_polyhedron(cands, tail)
    assert math.gcd(p.den, *[x for row in p.numerators for x in row]) == 1
    assert p.numerators == tuple(sorted(set(p.numerators)))
    assert sigma_polyhedron(p.vertices, p.tail) == p
    # reordered and repeated candidates, ints where integral, and a midpoint
    # of two candidates, which is never a vertex and can raise the denominator
    other = [tuple(int(x) if x.denominator == 1 else x for x in v) for v in cands + cands[:1]]
    rng.shuffle(other)
    other.append(tuple((x + y) / 2 for x, y in zip(cands[0], cands[-1])))
    q = sigma_polyhedron(other, tail)
    assert q == p and hash(q) == hash(p) and q.den == p.den
    for row, v in zip(p.numerators, p.vertices):
        assert lattice_multiple(p.den, row) == (mu(v), tuple(int(x * mu(v)) for x in v))
    total = minkowski_sum(p, q)
    assert math.gcd(total.den, *[x for row in total.numerators for x in row]) == 1
    assert total == sigma_polyhedron([vec_add(v, w) for v in p.vertices for w in q.vertices], tail)


def test_minkowski_sum_of_two_halves_has_den_one():
    ray = make_cone([(1, 0), (0, 1)])
    half = sigma_polyhedron([(F(1, 2), F(3, 2))], ray)
    assert half.den == 2 and half.numerators == ((1, 3),)
    whole = minkowski_sum(half, half)
    assert (whole.den, whole.numerators) == (1, ((1, 3),))
    assert whole == sigma_polyhedron([(1, 3)], ray)


def test_dot_rejects_a_length_mismatch():
    with pytest.raises(ValueError):
        dot((1, 2), (1, 2, 3))
    with pytest.raises(ValueError):
        dot((), (F(1),))


vectors = st.integers(0, 5).flatmap(
    lambda n: st.tuples(*[st.lists(st.integers(-50, 50) | fracs, min_size=n, max_size=n)] * 2)
)


@KERNEL
@given(vectors)
def test_dot_matches_the_generator_sum(pair):
    u, v = pair
    expected = sum(a * b for a, b in zip(u, v))
    got = dot(u, v)
    assert got == expected and type(got) is type(expected)


def _graded_data() -> list[tuple[tuple[int, ...], ...]]:
    """Three-entry admissible data with multiplicities <= 4 and rank 2-4."""
    tuples = sorted({t for r in (1, 2, 3, 4) for t in combinations_with_replacement(range(1, 5), r)})
    out = []
    for combo in combinations_with_replacement(tuples, 3):
        gcds = [math.gcd(*t) for t in combo]
        if all(math.gcd(gcds[i], gcds[j]) == 1 for i in range(3) for j in range(i)):
            if 1 <= sum(len(t) - 1 for t in combo) <= 3:
                out.append(combo)
    return out


def _side_a_by_higher_direct_dims(d, weight, d_max):
    """The graded comparison's side A as the loop over `higher_direct_dims`
    that `hilbert_compare` ran before it read the floor rows itself."""
    rows = [tuple(g) for g in d.tail.generators] + [tuple(-x for x in weight)]
    rhs = [0] * len(d.tail.generators) + [-d_max]
    side_a = [0] * (d_max + 1)
    for u in lattice_points(rows, rhs, rank(d)):
        w = dot(weight, u)
        if 0 <= w <= d_max:
            side_a[w] += higher_direct_dims(d, u)[0]
    return side_a


@settings(max_examples=60)
@given(st.sampled_from(_graded_data()), st.data())
def test_hilbert_side_a_matches_higher_direct_dims(mus, data):
    datum = admissible_data(list(zip(default_points(3), mus)))
    d = construct_divisor(datum)
    gens = minimal_generators(d.tail)
    coefs = data.draw(st.lists(st.integers(1, 3), min_size=len(gens), max_size=len(gens)))
    weight = tuple(sum(c * g[i] for c, g in zip(coefs, gens)) for i in range(rank(d)))
    d_max = data.draw(st.integers(0, 12))
    pres = presentation(datum, d)
    cmp = hilbert_compare(d, pres.degrees, pres.leads, weight, d_max)
    assert list(cmp.dims) == _side_a_by_higher_direct_dims(d, weight, d_max)


def test_hilbert_compare_rejects_a_base_other_than_p1():
    tail = make_cone([(1, 0), (0, 1)])
    d = polyhedral_divisor(A1, tail, {Point.coord(0): sigma_polyhedron([(F(1, 2), 1)], tail)})
    with pytest.raises(UnsupportedBase, match="on P\\^1 only"):
        hilbert_compare(d, ((1, 0), (0, 1)), (), (1, 1), 4)


def _deg_value_by_support_values(d, u):
    """ell times the sum of the Fraction support values over the support,
    ell the lcm of the support's denominators."""
    sup = support(d)
    ell = math.lcm(*[poly.den for _, poly in sup])
    return ell * sum((support_value(poly, u)[0] for _, poly in sup), F(0))


@KERNEL
@given(st.data())
def test_deg_value_matches_the_sum_of_support_values(data):
    """Tails of every dimension from 0 to n, points with their own
    denominators up to 12, and u both inside and outside the dual tail."""
    n = data.draw(st.integers(1, 4))
    vec = st.tuples(*[st.integers(-2, 2)] * n)
    tail = make_cone(data.draw(st.lists(vec, max_size=n)), n)
    assume(is_pointed(tail))
    coeffs = {}
    for i in range(data.draw(st.integers(1, 4))):
        q = data.draw(st.integers(1, 12))
        coord = st.builds(F, st.integers(-3 * q, 3 * q), st.just(q))
        verts = data.draw(st.lists(st.tuples(*[coord] * n), min_size=1, max_size=3, unique=True))
        coeffs[Point.coord(i)] = _listed(verts, tail)
    d = polyhedral_divisor(P1, tail, coeffs)
    assume(support(d))
    if data.draw(st.booleans()):
        hs = halfspaces(tail)
        weights = data.draw(st.lists(st.integers(0, 3), min_size=len(hs), max_size=len(hs)))
        u = tuple(sum(w * h[i] for w, h in zip(weights, hs)) for i in range(n))
    else:
        u = data.draw(st.tuples(*[st.integers(-5, 5)] * n))
    try:
        expected = _deg_value_by_support_values(d, u)
    except UnboundedBelow:
        with pytest.raises(UnboundedBelow):
            _deg_value(d, u)
        return
    got = _deg_value(d, u)
    assert type(got) is int and got == expected


def _is_proper_by_fractions(d):
    """`is_proper` as it was when it compared Fraction sums of support values."""
    if not d.base.projective:
        return Properness("proper")
    sigma = d.tail
    if not sigma.generators:
        return Properness("not_proper", tuple(0 for _ in range(sigma.ambient_rank)))
    if not support(d):
        return Properness("not_proper", _interior_sample(sigma))

    def value(u):
        return sum((support_value(poly, u)[0] for _, poly in support(d)), F(0))

    if d.base.kind == PROJECTIVE_LINE:
        hs = halfspaces(sigma)
        for h in hs:
            if value(h) < 0:
                return Properness("not_proper", h)
        inner = tuple(sum(h[i] for h in hs) for i in range(sigma.ambient_rank))
        if value(inner) <= 0:
            return Properness("not_proper", _interior_sample(sigma))
        return Properness("proper")
    status = "proper"
    for g in dual_cone(sigma).generators:
        val = value(g)
        if val < 0:
            return Properness("not_proper", g)
        if val == 0:
            status = "inconclusive_genus"
    return Properness(status)


def _extremal_data_by_fractions(d):
    """`extremal_data` as it was when a ray met deg D where the Fraction sum
    of support values vanished."""
    if _is_proper_by_fractions(d).status != "proper":
        raise NotProperError("not proper")
    rays = minimal_generators(d.tail)
    if not d.base.projective:
        return ExtremalData(tuple(rays), ())
    hs = halfspaces(d.tail)
    ext, non_ext = [], []
    for r in rays:
        u_r = tuple(sum(h[i] for h in hs if dot(h, r) == 0) for i in range(rank(d)))
        value = sum((support_value(poly, u_r)[0] for _, poly in support(d)), F(0))
        (non_ext if value == 0 else ext).append(r)
    return ExtremalData(tuple(ext), tuple(non_ext))


def _seeded_degree_divisors(count, base):
    """Rank-1 to 3 divisors over the orthant, half of them with an extra tail
    ray that has one negative entry.  Each point has its own denominator.
    Per coordinate the first point's vertices are shifted so that the
    minima sum to a positive value, to exactly 0, or not at all, so that
    every properness verdict occurs."""
    rng = random.Random(16)
    for _ in range(count):
        n = rng.randint(1, 3)
        rays = [[int(i == j) for j in range(n)] for i in range(n)]
        if n > 1 and rng.random() < 0.5:
            extra = [1] * n
            extra[rng.randrange(n)] = -1
            rays.append(extra)
        tail = make_cone(rays, n)
        k = rng.randint(1, 4)
        if base.kind == ABSTRACT:
            points = [Point.label(f"p{i}") for i in range(k)]
        else:
            points = [Point.infinity()] + [Point.coord(i) for i in range(k - 1)]
        verts = []
        for _ in points:
            q = rng.randint(1, 12)
            vs = [[F(rng.randint(-2 * q, 2 * q), q) for _ in range(n)] for _ in range(rng.randint(1, 3))]
            verts.append(vs)
        for j in range(n):
            mode = rng.choice(("positive", "zero", "none"))
            if mode != "none":
                target = F(rng.randint(1, 6), 6) if mode == "positive" else F(0)
                shift = target - sum(min(v[j] for v in vs) for vs in verts)
                for v in verts[0]:
                    v[j] += shift
        yield polyhedral_divisor(base, tail, {p: sigma_polyhedron(vs, tail) for p, vs in zip(points, verts)})


def _result_or_error(fn):
    try:
        return fn()
    except NotProperError as exc:
        return type(exc)


def test_is_proper_and_extremal_data_match_the_fraction_sums():
    """Verdict, witness and extremal rays agree with the Fraction versions on
    seeded divisors on P^1 and on a genus-1 curve; every properness status
    occurs, and so do rays that meet deg D."""
    statuses = {"proper": 0, "not_proper": 0, "inconclusive_genus": 0}
    met = 0
    divisors = list(_seeded_degree_divisors(200, P1)) + list(_seeded_degree_divisors(100, Curve(ABSTRACT, 1)))
    for d in divisors:
        got = is_proper(d)
        assert got == _is_proper_by_fractions(d)
        statuses[got.status] += 1
        ext = _result_or_error(lambda: extremal_data(d))
        assert ext == _result_or_error(lambda: _extremal_data_by_fractions(d))
        met += isinstance(ext, ExtremalData) and bool(ext.non_extremal_rays)
    assert min(statuses.values()) > 0 and met > 0, (statuses, met)


def test_floor_degree_matches_floors_over_each_denominator():
    """Over one ell, the floor degree equals the sum of floor(min <u, row> /
    den) over each point's own rows and denominator; the points' denominators
    are coprime or differ, so ell is a proper multiple of each."""
    rng = random.Random(16)
    checked = 0
    for _ in range(100):
        n = rng.randint(1, 3)
        tail = make_cone([[int(i == j) for j in range(n)] for i in range(n)], n)
        dens = rng.sample((3, 4, 5, 7), rng.randint(2, 4))
        coeffs = {}
        for i, q in enumerate(dens):
            units = [k for k in range(-3 * q, 3 * q) if math.gcd(k, q) == 1]
            # a first coordinate over exactly q makes q the point's denominator
            verts = [
                [F(rng.choice(units), q)] + [F(rng.randint(-3 * q, 3 * q), q) for _ in range(n - 1)]
                for _ in range(rng.randint(1, 3))
            ]
            coeffs[Point.coord(i)] = sigma_polyhedron(verts, tail)
        d = polyhedral_divisor(P1, tail, coeffs)
        rows = _support_rows(d)
        polys = [poly for _, poly in support(d)]
        assert rows[0] == math.lcm(*dens) and all(poly.den < rows[0] for poly in polys)
        for u in product(range(4), repeat=n):
            expected = sum(math.floor(F(min(dot(u, r) for r in p.numerators), p.den)) for p in polys)
            assert _floor_degree(rows, u) == expected
            checked += 1
    assert checked > 1000

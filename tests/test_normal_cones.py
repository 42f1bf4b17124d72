"""The normal-cone routines, and the properness and extremal-ray decisions
that work from support values alone, against an exact convex-hull oracle
written here.  For divisors on P^1 the reference degree polyhedron is the
Minkowski fold `deg_polyhedron`.  The refinement `_normal_cones` is checked
against one sweep per joint vertex selection over the whole product.

The oracle decides target in conv(points) + cone(rays) by Caratheodory's
theorem: (1, target) is then a nonnegative combination of linearly
independent columns among (1, p) and (0, r), so it suffices to solve every
independent square-or-tall subsystem exactly.  sympy's simplex (1.14) is no
oracle here: on these small systems it returns points that violate the
equality constraints it was given.
"""
from fractions import Fraction as F
from itertools import combinations, product

import pytest
from conftest import capped

from polysing.cli import analyze, parse_document
from polysing.pdiv import (
    P1,
    Point,
    deg_polyhedron,
    extremal_data,
    is_proper,
    polyhedral_divisor,
)
from polysing.polyhedra import (
    Cone,
    _dd_halfspaces,
    _normal_cones,
    halfspaces,
    make_cone,
    minimal_generators,
    minkowski_sum,
    sigma_polyhedron,
    support_value,
)
from polysing.ratlin import matrix_rank, vec_sub

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

GEOMETRY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

small_fracs = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def _solve_independent(cols, rhs):
    """The coefficients x with sum x_j cols_j = rhs, or None when the columns
    are dependent or rhs is outside their span."""
    rows = [[F(c[i]) for c in cols] + [F(rhs[i])] for i in range(len(rhs))]
    m = len(cols)
    for j in range(m):
        pivot = next((i for i in range(j, len(rows)) if rows[i][j]), None)
        if pivot is None:
            return None
        rows[j], rows[pivot] = rows[pivot], rows[j]
        rows[j] = [x / rows[j][j] for x in rows[j]]
        for i in range(len(rows)):
            if i != j and rows[i][j]:
                rows[i] = [a - rows[i][j] * b for a, b in zip(rows[i], rows[j])]
    if any(row[-1] for row in rows[m:]):
        return None
    return [rows[j][-1] for j in range(m)]


def _in_hull(target, points, rays):
    cols = [(1, *p) for p in points] + [(0, *r) for r in rays]
    rhs = (1, *target)
    for size in range(1, len(rhs) + 1):
        for sub in combinations(cols, size):
            x = _solve_independent(sub, rhs)
            if x is not None and all(c >= 0 for c in x):
                return True
    return False


@st.composite
def polyhedra_cases(draw, max_rank=4):
    """A pointed tail of rank 1 to max_rank (every generator positive on
    (1, ..., 1)) and distinct rational candidate vertices."""
    n = draw(st.integers(1, max_rank))
    gens = draw(st.lists(st.lists(st.integers(-2, 3), min_size=n, max_size=n), max_size=n + 1))
    tail = make_cone([g for g in gens if sum(g) > 0], n)
    vec = st.tuples(*[small_fracs] * n)
    cands = draw(st.lists(vec, min_size=1, max_size=6 if n < 4 else 4, unique=True))
    return tail, cands


def test_hull_oracle_on_a_triangle():
    tri = [(F(1, 2), F(-3)), (F(3, 2), F(3)), (F(3), F(-3))]
    assert _in_hull((F(2), F(-1)), tri, [])
    assert not _in_hull((F(0), F(0)), tri, [])
    assert _in_hull((F(0), F(0)), tri, [(-1, 0)])
    assert not _in_hull((F(0), F(0)), [], [(1, 0)])


@GEOMETRY
@given(polyhedra_cases())
def test_sigma_polyhedron_keeps_the_hull_vertices(case):
    tail, cands = case
    expected = [v for v in cands if not _in_hull(v, [w for w in cands if w != v], tail.generators)]
    assert sigma_polyhedron(cands, tail).vertices == tuple(sorted(expected))


@GEOMETRY
@given(polyhedra_cases(max_rank=3), st.data())
def test_minkowski_sum_matches_pruned_sums(case, data):
    """Vertices from the joint normal cones equal the true vertices among all
    pairwise sums.  Rank 4 is left out: there the reference, pruning a dozen
    sums of two polytopes, runs for minutes."""
    tail, cands = case
    n = tail.ambient_rank
    others = data.draw(st.lists(st.tuples(*[small_fracs] * n), min_size=1, max_size=3, unique=True))
    a, b = sigma_polyhedron(cands, tail), sigma_polyhedron(others, tail)
    sums = [tuple(x + y for x, y in zip(v, w)) for v in a.vertices for w in b.vertices]
    assert minkowski_sum(a, b) == sigma_polyhedron(sums, tail)


# pointed tails of rank 1 to 3: simplicial, not simplicial, not full-dimensional
P1_TAILS = [
    make_cone([(1,)]),
    make_cone([(-1,)]),
    make_cone([(1, 0), (1, 6)]),
    make_cone([(2, -1), (0, 1)]),
    make_cone([(1, 1)], 2),
    make_cone([(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
    make_cone([(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)]),
    make_cone([(1, 0, 1), (0, 1, 2), (-1, 1, 1)]),
    make_cone([(1, 2, 0), (2, -1, 1)]),
]


@st.composite
def p1_divisors(draw, into_tail, proper=False):
    """A divisor on P^1 of rank 1 to 3 with two or three support points.

    With `into_tail` each coefficient is an offset plus nonnegative
    combinations of tail generators, and the offsets sum to zero, so deg D
    lies in the tail; with `proper` as well, every vertex at the last point
    puts weight at least 1 on some generator, so deg D misses the origin."""
    tail = draw(st.sampled_from(P1_TAILS))
    n, gens = tail.ambient_rank, tail.generators
    points = [Point.infinity(), Point.coord(0), Point.coord(1)][: draw(st.integers(2, 3))]
    # weights on a subset of the generators put the vertices on a face of the tail
    face = draw(st.sets(st.integers(0, len(gens) - 1), min_size=1))
    weights = st.lists(
        st.fractions(min_value=0, max_value=2, max_denominator=3), min_size=len(gens), max_size=len(gens)
    )
    offsets = [draw(st.tuples(*[small_fracs] * n)) for _ in points[1:]]
    offsets.insert(0, tuple(-sum(o[i] for o in offsets) for i in range(n)))
    coeffs = {}
    for k, (p, offset) in enumerate(zip(points, offsets)):
        count = draw(st.integers(1, 3))
        if not into_tail:
            cands = draw(st.lists(st.tuples(*[small_fracs] * n), min_size=count, max_size=count))
        else:
            cands = []
            for _ in range(count):
                w = [c if j in face else 0 for j, c in enumerate(draw(weights))]
                if proper and k == len(points) - 1:
                    w[draw(st.sampled_from(sorted(face)))] += 1
                cands.append(tuple(offset[i] + sum(c * g[i] for c, g in zip(w, gens)) for i in range(n)))
        coeffs[p] = sigma_polyhedron(cands, tail)
    return polyhedral_divisor(P1, tail, coeffs)


def _in_tail(degp):
    zero = (0,) * degp.tail.ambient_rank
    return all(_in_hull(v, [zero], degp.tail.generators) for v in degp.vertices)


@GEOMETRY
@given(st.data())
def test_origin_membership_matches_hull(data):
    """On P^1, proper iff deg D lies in the tail cone and misses the origin;
    `is_proper` decides both from sums of support values."""
    d = data.draw(p1_divisors(into_tail=data.draw(st.booleans())))
    degp = deg_polyhedron(d)
    zero = (0,) * d.tail.ambient_rank
    proper = _in_tail(degp) and not _in_hull(zero, degp.vertices, d.tail.generators)
    assert (is_proper(d).status == "proper") == proper


@GEOMETRY
@given(p1_divisors(into_tail=True, proper=True))
def test_ray_meeting_matches_hull(d):
    """An extreme ray of the tail is non-extremal iff it meets deg D."""
    degp = deg_polyhedron(d)
    assert is_proper(d)
    ext = extremal_data(d)
    n = d.tail.ambient_rank
    assert sorted(ext.extremal_rays + ext.non_extremal_rays) == sorted(minimal_generators(d.tail))
    for ray in ext.extremal_rays + ext.non_extremal_rays:
        # t * ray lies in deg D for some t >= 0 iff the origin lies in deg D + cone(-ray)
        meets = _in_hull((0,) * n, degp.vertices, list(d.tail.generators) + [tuple(-x for x in ray)])
        assert (ray in ext.non_extremal_rays) == meets


@GEOMETRY
@given(st.data())
def test_not_proper_witness_certifies(data):
    """A not-proper witness h is negative on deg D when deg D leaves the tail
    cone; otherwise deg D holds the origin and h, interior to the dual of the
    tail, attains 0 there."""
    d = data.draw(p1_divisors(into_tail=data.draw(st.booleans())))
    res = is_proper(d)
    if res.status != "not_proper":
        return
    degp = deg_polyhedron(d)
    value, _ = support_value(degp, res.witness)
    if _in_tail(degp):
        assert value == 0
    else:
        assert value < 0


@pytest.mark.parametrize("into_tail", [False, True])
@GEOMETRY
@given(polyhedra_cases(), st.data())
def test_is_proper_matches_hull_for_one_coefficient(into_tail, case, data):
    """With one coefficient the degree polyhedron is that coefficient: proper
    iff it lies in the tail cone and misses the origin.  Candidates moved into
    the tail cone give both verdicts."""
    tail, cands = case
    if not tail.generators:
        return
    n = tail.ambient_rank
    if into_tail:
        weights = st.lists(
            st.fractions(min_value=0, max_value=2, max_denominator=3),
            min_size=len(tail.generators),
            max_size=len(tail.generators),
        )
        cands = [
            tuple(sum(c * g[i] for c, g in zip(data.draw(weights), tail.generators)) for i in range(n))
            for _ in cands
        ]
    p = sigma_polyhedron(cands, tail)
    d = polyhedral_divisor(P1, tail, {Point.coord(0): p})
    zero = (0,) * n
    in_tail = all(_in_hull(v, [zero], tail.generators) for v in p.vertices)
    proper = in_tail and not _in_hull(zero, p.vertices, tail.generators)
    assert (is_proper(d).status == "proper") == proper


@GEOMETRY
@given(st.data())
def test_resumed_sweep_matches_full_sweep(data):
    """`_normal_cones` resumes every sweep after the tail constraints; the
    resumed state, rays and constraints done, must be exactly the one the
    full sweep reaches.  Tails need not be pointed or full-dimensional, and
    the rest repeats tail rays and zeros."""
    n = data.draw(st.integers(1, 3))
    vec = st.tuples(*[st.integers(-2, 3)] * n)
    tail = make_cone(data.draw(st.lists(vec, max_size=n + 2)), n)
    rest = data.draw(st.lists(vec, max_size=6))
    rest += [tuple(2 * x for x in g) for g in tail.generators[: data.draw(st.integers(0, 2))]]
    rest = data.draw(st.permutations(rest))
    full = _dd_halfspaces(list(tail.generators) + rest, n)
    assert _dd_halfspaces(rest, n, (halfspaces(tail), tail.generators)) == full


def _product_normal_cones(row_sets, tail):
    """The reference for `_normal_cones`: one sweep per joint selection of
    the whole product, resumed from the dual of the tail, keeping the
    selections whose normal cone is full-dimensional."""
    n = tail.ambient_rank
    start = (halfspaces(tail), tail.generators)
    cones = []
    for selection in product(*row_sets):
        cuts = [vec_sub(w, r) for rows, r in zip(row_sets, selection) for w in rows if w != r]
        rays, normals = _dd_halfspaces(cuts, n, start)
        if matrix_rank(rays) == n:
            cones.append((selection, rays, normals))
    return cones


@GEOMETRY
@given(st.data())
def test_refinement_keeps_the_full_dimensional_selections_of_the_product(data):
    """Tails are pointed (full-dimensional or not), arbitrary (so possibly
    not pointed, and then no cell survives) or, at rank 1 and 2, empty; each
    of up to four sets holds one to three distinct rows."""
    n = data.draw(st.integers(1, 3))
    vec = st.tuples(*[st.integers(-2, 3)] * n)
    kind = data.draw(st.sampled_from(["pointed", "arbitrary", "empty"][: 3 if n <= 2 else 2]))
    if kind == "empty":
        tail = Cone(n, ())
    else:
        gens = vec.filter(lambda g: sum(g) > 0) if kind == "pointed" else vec.filter(any)
        tail = make_cone(data.draw(st.lists(gens, min_size=1, max_size=n + 1)))
    row_sets = data.draw(st.lists(st.lists(vec, min_size=1, max_size=3, unique=True), min_size=1, max_size=4))
    assert _normal_cones(row_sets, tail) == _product_normal_cones(row_sets, tail)


def _chain_document(points, rank):
    """A divisor on P^1 over the orthant whose i-th support point has the
    three vertices (0, 3 + a), (1, 1), (2 + b, 0), for a = i mod 3 and
    b = i div 3, lifted at rank 3 to (0, 3 + a, 0), (1, 1, 1), (2 + b, 0, 1)."""
    coefficients = []
    for i in range(points):
        a, b = i % 3, i // 3
        verts = [(0, 3 + a), (1, 1), (2 + b, 0)] if rank == 2 else [(0, 3 + a, 0), (1, 1, 1), (2 + b, 0, 1)]
        coefficients.append({"point": str(i), "vertices": [[str(x) for x in v] for v in verts]})
    rays = [[int(i == j) for j in range(rank)] for i in range(rank)]
    return {"format": 1, "lattice_rank": rank, "tail_rays": rays, "coefficients": coefficients}


@pytest.mark.parametrize("rank", [2, 3])
@pytest.mark.parametrize("points", [12, 14])
def test_analysis_with_many_support_points_finishes(points, rank):
    """3^points joint vertex selections and few full-dimensional cells: the
    refinement visits only cells that stay full-dimensional, so the whole
    analysis finishes within 1 s."""
    d = parse_document(_chain_document(points, rank))["data"]
    assert all(len(p.numerators) == 3 for _, p in d.coeffs)
    with capped(1):
        report = analyze(d)
    results = {e["criterion"]: e for e in report["results"]}
    assert results["proper"]["status"] == "proper"
    assert results["rational"]["status"] == "yes"


def test_a_tail_with_a_line_has_no_cell():
    """Its dual is not full-dimensional, even where no set cuts it."""
    line = make_cone([(1, 0), (-1, 0)])
    assert _normal_cones([[(1, 2)]], line) == _product_normal_cones([[(1, 2)]], line) == []

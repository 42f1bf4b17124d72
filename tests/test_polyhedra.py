import math
import random
from fractions import Fraction as F

import pytest
from conftest import capped
from hypothesis import given, settings
from hypothesis import strategies as st

from polysing.errors import TailMismatch, UnboundedBelow, UnsupportedRank
from polysing.polyhedra import (
    Cone,
    SigmaPolyhedron,
    cayley_cone,
    cone_contains,
    dual_cone,
    face_of_cone,
    is_pointed,
    is_regular,
    make_cone,
    minimal_generators,
    minkowski_sum,
    normal_quasifan,
    sigma_polyhedron,
    support_value,
    tail_polyhedron,
)
from polysing.ratlin import dot, mu


def test_dual_cone_examples():
    assert dual_cone(make_cone([(1, 0), (1, 6)])).generators == ((0, 1), (6, -1))
    orth = make_cone([(1, 0), (0, 1)])
    assert dual_cone(orth).generators == ((0, 1), (1, 0))
    half = dual_cone(make_cone([(1, 0)], 2))
    assert set(half.generators) == {(1, 0), (0, 1), (0, -1)}


def test_dual_cone_rank_cap():
    with pytest.raises(UnsupportedRank):
        dual_cone(make_cone([(1, 0, 0, 0, 0)], 5))


def test_dual_of_dual_random():
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randint(1, 3)
        gens = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(rng.randint(1, 4))]
        if not any(any(g) for g in gens):
            continue
        c = make_cone(gens, n)
        dd = dual_cone(dual_cone(c))
        assert all(cone_contains(dd, g) for g in c.generators)
        assert all(cone_contains(c, g) for g in dd.generators)


def test_is_regular_examples():
    assert is_regular(make_cone([(1, 0), (0, 1)]))
    assert not is_regular(make_cone([(2, -1), (0, 1)]))
    assert is_regular(make_cone([(2, -1, 0), (-3, 2, 3)]))
    assert not is_regular(make_cone([(1, 0), (-1, 0)], 2))  # not pointed
    square = make_cone([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)])
    assert not is_regular(square)  # four extreme rays: not simplicial


def test_support_value_examples():
    sigma = make_cone([(1, 0), (1, 6)])
    d0 = sigma_polyhedron([(1, 0), (1, 1)], sigma)
    val, mins = support_value(d0, (6, -1))
    assert val == 5 and mins == ((F(1), F(1)),)
    val0, mins0 = support_value(d0, (0, 0))
    assert val0 == 0 and len(mins0) == 2
    d1 = sigma_polyhedron([(F(-1, 2), 0)], sigma)
    val1, mins1 = support_value(d1, (2, 0))
    assert val1 == -1 and mins1 == ((F(-1, 2), F(0)),)
    with pytest.raises(UnboundedBelow):
        support_value(d0, (-1, 0))


def test_minkowski_examples():
    sigma = make_cone([(1, 0), (1, 6)])
    d0 = sigma_polyhedron([(1, 0), (1, 1)], sigma)
    d1 = sigma_polyhedron([(F(-1, 2), 0)], sigma)
    dinf = sigma_polyhedron([(F(-1, 3), 0)], sigma)
    assert minkowski_sum(d0, tail_polyhedron(sigma)) == d0
    total = minkowski_sum(minkowski_sum(d0, d1), dinf)
    assert total.vertices == ((F(1, 6), F(0)), (F(1, 6), F(1)))
    # rank 1 with trivial tail: [0,1] + [0,1] = [0,2]
    trivial = make_cone([], 1)
    a = sigma_polyhedron([(0,), (1,)], trivial)
    assert minkowski_sum(a, a).vertices == ((F(0),), (F(2),))
    with pytest.raises(TailMismatch):
        minkowski_sum(d0, sigma_polyhedron([(0, 0)], make_cone([(1, 0), (0, 1)])))


def test_minkowski_support_additivity_random():
    rng = random.Random(29)
    sigma = make_cone([(1, 0), (0, 1)])
    for _ in range(40):
        a = sigma_polyhedron(
            [(F(rng.randint(-6, 6), rng.randint(1, 4)), F(rng.randint(-6, 6), rng.randint(1, 4)))
             for _ in range(rng.randint(1, 3))],
            sigma,
        )
        b = sigma_polyhedron(
            [(F(rng.randint(-6, 6), rng.randint(1, 4)), F(rng.randint(-6, 6), rng.randint(1, 4)))
             for _ in range(rng.randint(1, 3))],
            sigma,
        )
        s = minkowski_sum(a, b)
        for _ in range(6):
            u = (rng.randint(0, 5), rng.randint(0, 5))
            assert support_value(s, u)[0] == support_value(a, u)[0] + support_value(b, u)[0]


def test_mu_examples():
    assert mu((F(-1, 2), F(0))) == 2
    assert mu((1, 1)) == 1
    assert mu((F(-1, 3), F(0))) == 3


def test_cayley_examples():
    ray = make_cone([(1,)], 1)
    chart = cayley_cone([(sigma_polyhedron([(F(-1, 2),)], ray), (1,))])
    assert set(chart.generators) == {(2, -1), (0, 1)}
    py = sigma_polyhedron([(0,)], ray)
    pz = sigma_polyhedron([(1,)], ray)
    bic = cayley_cone([(py, (1,)), (pz, (-1,))])
    assert set(minimal_generators(bic)) == {(1, 0), (-1, 1)}
    assert is_regular(bic)
    # trivial coefficients, markers e1..ek: sigma x orthant
    sigma = make_cone([(1, 0), (1, 6)])
    triv = tail_polyhedron(sigma)
    cc = cayley_cone([(triv, (1, 0)), (triv, (0, 1))])
    assert set(cc.generators) == {(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 1, 6)}
    with pytest.raises(TailMismatch):
        cayley_cone([(py, (1,)), (tail_polyhedron(make_cone([(1, 0)], 2)), (-1,))])


def _cayley_by_fractions(parts):
    """`cayley_cone` as a `make_cone` over Fraction vectors (marker, vertex)
    and (0, ray): the construction the integer rows must reproduce."""
    tail = parts[0][0].tail
    k = len(parts[0][1])
    gens = [tuple(F(x) for x in marker) + v for poly, marker in parts for v in poly.vertices]
    gens += [tuple(F(0) for _ in range(k)) + tuple(F(x) for x in r) for r in tail.generators]
    return make_cone(gens, k + tail.ambient_rank)


@st.composite
def _cayley_parts(draw):
    """One or two parts with markers (1,) and (-1,) over one tail of rank
    1-4, whose generators span only the first `dim` coordinates (so the tail
    is often not full-dimensional, or the zero cone), with 1-3 vertices of
    denominators up to 12."""
    n = draw(st.integers(1, 4))
    dim = draw(st.integers(0, n))
    ray = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim).map(lambda v: v + [0] * (n - dim))
    tail = make_cone([r for r in draw(st.lists(ray, max_size=4)) if any(r)], n)
    coord = st.fractions(min_value=-6, max_value=6, max_denominator=12)
    vertex = st.lists(coord, min_size=n, max_size=n).map(tuple)
    markers = draw(st.sampled_from([[(1,)], [(-1,)], [(1,), (-1,)], [(-1,), (1,)], [(1,), (1,)]]))
    polys = [tuple(sorted(draw(st.sets(vertex, min_size=1, max_size=3)))) for _ in markers]
    # the listed vertices over their least denominator, unpruned: the tail may have lineality
    dens = [math.lcm(*[x.denominator for v in vs for x in v]) for vs in polys]
    rows = [tuple(tuple(int(x * den) for x in v) for v in vs) for den, vs in zip(dens, polys)]
    return [(SigmaPolyhedron(den, rs, tail), m) for den, rs, m in zip(dens, rows, markers)]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_cayley_parts())
def test_cayley_cone_matches_the_fraction_construction(parts):
    assert cayley_cone(parts) == _cayley_by_fractions(parts)


def test_normal_quasifan_ex1():
    sigma = make_cone([(1, 0), (1, 6)])
    d0 = sigma_polyhedron([(1, 0), (1, 1)], sigma)
    d1 = sigma_polyhedron([(F(-1, 2), 0)], sigma)
    dinf = sigma_polyhedron([(F(-1, 3), 0)], sigma)
    qf = normal_quasifan([d0, d1, dinf], sigma)
    assert len(qf.maximal_cells) == 2
    cells = {cell.cone.generators: cell.selection[0] for cell in qf.maximal_cells}
    assert cells[((0, 1), (1, 0))] == (1, 0)
    assert cells[((1, 0), (6, -1))] == (1, 1)


def test_normal_quasifan_single_vertex():
    sigma = make_cone([(1, 0), (1, 6)])
    d1 = sigma_polyhedron([(F(-1, 2), 0)], sigma)
    qf = normal_quasifan([d1], sigma)
    assert len(qf.maximal_cells) == 1
    cell = qf.maximal_cells[0].cone
    for g in dual_cone(sigma).generators:
        assert cone_contains(cell, g)


def test_quasifan_selector_realizes_min():
    rng = random.Random(31)
    sigma = make_cone([(1, 0), (1, 6)])
    d0 = sigma_polyhedron([(1, 0), (1, 1)], sigma)
    d1 = sigma_polyhedron([(F(-1, 2), 0)], sigma)
    dinf = sigma_polyhedron([(F(-1, 3), 0)], sigma)
    coeffs = [d0, d1, dinf]
    qf = normal_quasifan(coeffs, sigma)
    for cell in qf.maximal_cells:
        gens = cell.cone.generators
        for _ in range(8):
            weights = [rng.randint(0, 4) for _ in gens]
            u = tuple(sum(w * g[i] for w, g in zip(weights, gens)) for i in range(2))
            for poly, chosen in zip(coeffs, cell.selection):
                val, mins = support_value(poly, u)
                assert F(dot(u, chosen), poly.den) == val
                assert tuple(F(x, poly.den) for x in chosen) in mins


def _face_of(p, u):
    """The face of p where <u, .> attains its minimum (u in the dual tail)."""
    _, minimizers = support_value(p, u)
    return sigma_polyhedron(minimizers, face_of_cone(p.tail, u))


def test_face_of_examples():
    sigma = make_cone([(1, 0), (1, 6)])
    d0 = sigma_polyhedron([(1, 0), (1, 1)], sigma)
    f = _face_of(d0, (0, 1))
    assert f.vertices == ((F(1), F(0)),) and f.tail.generators == ((1, 0),)
    assert _face_of(d0, (0, 0)) == d0
    f2 = _face_of(d0, (6, -1))
    assert f2.vertices == ((F(1), F(1)),) and f2.tail.generators == ((1, 6),)


def test_is_regular_brute_force_sample():
    # full [-6, 6] sweep runs in the acceptance suite; spot-check here
    rng = random.Random(37)
    from polysing.ratlin import primitive

    for _ in range(200):
        g1 = (rng.randint(-6, 6), rng.randint(-6, 6))
        g2 = (rng.randint(-6, 6), rng.randint(-6, 6))
        det = g1[0] * g2[1] - g1[1] * g2[0]
        if det == 0:
            continue
        p1, p2 = primitive(g1), primitive(g2)
        count = _parallelepiped_points(p1, p2)
        assert is_regular(make_cone([g1, g2])) == (count == 1)


def _parallelepiped_points(p1, p2):
    det = p1[0] * p2[1] - p1[1] * p2[0]
    box = [p1, p2, (p1[0] + p2[0], p1[1] + p2[1]), (0, 0)]
    xs = range(min(b[0] for b in box), max(b[0] for b in box) + 1)
    ys = range(min(b[1] for b in box), max(b[1] for b in box) + 1)
    count = 0
    for x in xs:
        for y in ys:
            # (x, y) = a p1 + b p2 with 0 <= a, b < 1 via Cramer
            a_num = x * p2[1] - y * p2[0]
            b_num = p1[0] * y - p1[1] * x
            a = F(a_num, det)
            b = F(b_num, det)
            if 0 <= a < 1 and 0 <= b < 1:
                count += 1
    return count


def test_pointedness():
    assert is_pointed(make_cone([(1, 0), (0, 1)]))
    assert not is_pointed(make_cone([(1, 0), (-1, 0), (0, 1)]))
    assert is_pointed(make_cone([], 2))  # the zero cone


# pairwise sums of a 4-point and a 3-point polytope in Z^4 with entries in -1..1
RANK4_SUMS = [
    (-2, 0, 2, -2), (-2, 2, 1, 0), (-1, -1, 2, -2), (-1, 0, 1, 0), (-1, 1, 1, 0), (-1, 2, 0, 2),
    (0, -2, 2, -2), (0, 0, 1, 0), (0, 1, 1, 0), (1, 0, 1, 0), (1, 1, 0, 2), (2, -1, 1, 0),
]


@pytest.mark.xfail(
    raises=TimeoutError,
    strict=True,
    reason="CHANGES.md FOUND: sigma_polyhedron with an empty rank-4 tail compounds in _dd_halfspaces",
)
def test_rank4_polytope_with_empty_tail_finishes():
    with capped(2):
        p = sigma_polyhedron(RANK4_SUMS, Cone(4, ()))
    assert set(p.vertices) <= {tuple(map(F, v)) for v in RANK4_SUMS}

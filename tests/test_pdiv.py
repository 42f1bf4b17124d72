import random
from fractions import Fraction as F

import pytest

from polysing.errors import UnboundedBelow, UnsupportedBase
from polysing.pdiv import (
    A1,
    ABSTRACT,
    P1,
    Curve,
    Point,
    QDivisor,
    deg_polyhedron,
    evaluate,
    extremal_data,
    floor_degree,
    higher_direct_dims,
    is_proper,
    polyhedral_divisor,
    quasifan,
    support_value,
)
from polysing.polyhedra import make_cone, sigma_polyhedron
from polysing.ratlin import dot


def qd(d):
    return {str(p): c for p, c in d.terms}


def test_evaluate_ex1(ex1):
    assert qd(evaluate(ex1, (2, 0))) == {"0": 2, "1": -1, "inf": F(-2, 3)}
    assert qd(evaluate(ex1, (6, -1))) == {"0": 5, "1": -3, "inf": -2}
    assert evaluate(ex1, (0, 0)) == QDivisor(())
    with pytest.raises(UnboundedBelow):
        evaluate(ex1, (-1, 0))


def test_floor_degree_examples():
    d = QDivisor.of([(Point.coord(0), F(2)), (Point.coord(1), F(-1)), (Point.infinity(), F(-2, 3))])
    assert floor_degree(d) == (F(1, 3), 0)
    assert floor_degree(QDivisor(())) == (0, 0)
    e = QDivisor.of(
        [(Point.coord(0), F(-1, 4)), (Point.coord(1), F(-1, 4)), (Point.infinity(), F(3, 4))]
    )
    assert floor_degree(e) == (F(1, 4), -2)


def test_proper_examples(ex1, e8, rk1):
    assert is_proper(ex1).status == "proper"
    assert is_proper(e8).status == "proper"
    bad = rk1({Point.infinity(): F(-1)})
    res = is_proper(bad)
    assert res.status == "not_proper" and res.witness == (1,)


def test_proper_zero_tail_projective():
    trivial = make_cone([], 1)
    d = polyhedral_divisor(P1, trivial, {Point.coord(0): sigma_polyhedron([(1,)], trivial)})
    assert is_proper(d).status == "not_proper"


def test_proper_affine_always():
    ray = make_cone([(1,)], 1)
    d = polyhedral_divisor(A1, ray, {Point.coord(0): sigma_polyhedron([(F(-7, 2),)], ray)})
    assert is_proper(d).status == "proper"


def test_proper_genus_one():
    ray = make_cone([(1,)], 1)
    ell = Curve(ABSTRACT, 1)
    good = polyhedral_divisor(ell, ray, {Point.label("p"): sigma_polyhedron([(F(1, 2),)], ray)})
    assert is_proper(good).status == "proper"
    flat = polyhedral_divisor(
        ell,
        ray,
        {
            Point.label("p"): sigma_polyhedron([(F(-1, 2),)], ray),
            Point.label("q"): sigma_polyhedron([(F(1, 2),)], ray),
        },
    )
    assert is_proper(flat).status == "inconclusive_genus"
    neg = polyhedral_divisor(ell, ray, {Point.label("p"): sigma_polyhedron([(F(-1, 2),)], ray)})
    assert is_proper(neg).status == "not_proper"


def test_extremal_ex1(ex1):
    ext = extremal_data(ex1)
    assert ext.extremal_rays == ()
    assert set(ext.non_extremal_rays) == {(1, 0), (1, 6)}


def test_extremal_half_vertex_orthant():
    orth = make_cone([(1, 0), (0, 1)])
    d = polyhedral_divisor(P1, orth, {Point.coord(0): sigma_polyhedron([(F(1, 2), 0)], orth)})
    ext = extremal_data(d)
    assert ext.extremal_rays == ((0, 1),)
    assert ext.non_extremal_rays == ((1, 0),)


def test_extremal_affine_all():
    orth = make_cone([(1, 0), (0, 1)])
    d = polyhedral_divisor(A1, orth, {Point.coord(0): sigma_polyhedron([(F(1, 2), 0)], orth)})
    ext = extremal_data(d)
    assert set(ext.extremal_rays) == {(1, 0), (0, 1)}


def test_higher_direct_dims(ex1, elliptic_minimal):
    assert higher_direct_dims(elliptic_minimal, (1,)) == (0, 1)
    assert higher_direct_dims(ex1, (2, 0)) == (1, 0)
    # d = -1 gives (0, 0)
    ray = make_cone([(1,)], 1)
    d = polyhedral_divisor(P1, ray, {Point.coord(0): sigma_polyhedron([(F(-1, 2),)], ray),
                                     Point.infinity(): sigma_polyhedron([(F(2, 3),)], ray)})
    val, fd = floor_degree(evaluate(d, (1,)))
    assert fd == -1
    assert higher_direct_dims(d, (1,)) == (0, 0)
    assert higher_direct_dims(ex1, (F(2), F(0))) == (1, 0)
    for off_lattice in ((F(1, 2),), (1.5,)):
        with pytest.raises(ValueError):
            higher_direct_dims(d, off_lattice)
    with pytest.raises(UnsupportedBase):
        higher_direct_dims(
            polyhedral_divisor(A1, ray, {Point.coord(0): sigma_polyhedron([(F(1, 2),)], ray)}),
            (1,),
        )


def test_riemann_roch_random(rk1):
    rng = random.Random(41)
    for _ in range(200):
        coeffs = {}
        pts = [Point.infinity()] + [Point.coord(i) for i in range(rng.randint(1, 3))]
        for p in pts:
            coeffs[p] = F(rng.randint(-8, 12), rng.randint(1, 9))
        if sum(coeffs.values()) <= 0:
            continue
        d = rk1(coeffs)
        for u in range(0, 12):
            h0, h1 = higher_direct_dims(d, (u,))
            _, fd = floor_degree(evaluate(d, (u,)))
            assert h0 - h1 == fd + 1


def test_evaluate_additive_on_cells(ex1):
    rng = random.Random(43)
    for cell in quasifan(ex1).maximal_cells:
        gens = cell.cone.generators
        for _ in range(10):
            w1 = [rng.randint(0, 4) for _ in gens]
            w2 = [rng.randint(0, 4) for _ in gens]
            u1 = tuple(sum(w * g[i] for w, g in zip(w1, gens)) for i in range(2))
            u2 = tuple(sum(w * g[i] for w, g in zip(w2, gens)) for i in range(2))
            u12 = tuple(a + b for a, b in zip(u1, u2))
            assert evaluate(ex1, u12) == evaluate(ex1, u1) + evaluate(ex1, u2)


def test_degree_compatibility(ex1):
    rng = random.Random(47)
    degp = deg_polyhedron(ex1)
    for _ in range(30):
        a, b = rng.randint(0, 6), rng.randint(0, 6)
        u = (a + b, -b) if rng.random() < 0.5 else (a, b)
        if dot(u, (1, 0)) < 0 or dot(u, (1, 6)) < 0:
            continue
        val, _ = support_value(degp, u)
        assert evaluate(ex1, u).degree == val


def test_floor_bounds_on_support(ex1):
    d = evaluate(ex1, (5, 0))
    deg, fd = floor_degree(d)
    assert fd <= deg
    assert deg - fd < len(d.terms) + 1


def test_relabel_invariance(rk1):
    a = rk1({Point.coord(0): F(1, 2), Point.coord(1): F(1, 3), Point.infinity(): F(-4, 5)})
    b = rk1({Point.coord(5): F(1, 2), Point.coord(7): F(1, 3), Point.infinity(): F(-4, 5)})
    ea, eb = extremal_data(a), extremal_data(b)
    assert ea == eb


def test_proper_agrees_with_cellwise_evaluation():
    # the degree-polyhedron characterization must match checking deg D(u) >= 0
    # on every cell generator and > 0 at interior samples
    rng = random.Random(59)
    from polysing.pdiv import quasifan
    from polysing.polyhedra import make_cone as mc, sigma_polyhedron as sp

    tails = [mc([(1, 0), (0, 1)]), mc([(1, 0), (1, 6)]), mc([(2, -1), (0, 1)])]
    seen = {"proper": 0, "not_proper": 0}
    for _ in range(60):
        tail = rng.choice(tails)
        pts = [Point.infinity()] + [Point.coord(i) for i in range(rng.randint(0, 2))]
        coeffs = {}
        for p in pts:
            verts = [
                (F(rng.randint(-5, 5), rng.randint(1, 3)), F(rng.randint(-5, 5), rng.randint(1, 3)))
                for _ in range(rng.randint(1, 2))
            ]
            coeffs[p] = sp(verts, tail)
        d = polyhedral_divisor(P1, tail, coeffs)
        res = is_proper(d)
        cells = quasifan(d).maximal_cells
        nonneg = all(
            evaluate(d, g).degree >= 0 for cell in cells for g in cell.cone.generators
        )
        positive_inside = all(
            evaluate(
                d, tuple(sum(g[i] for g in cell.cone.generators) for i in range(2))
            ).degree
            > 0
            for cell in cells
        )
        if res.status == "proper":
            assert nonneg and positive_inside
            seen["proper"] += 1
        else:
            assert not (nonneg and positive_inside)
            wdeg = evaluate(d, res.witness).degree
            assert wdeg <= 0
            seen["not_proper"] += 1
    assert seen["proper"] >= 5 and seen["not_proper"] >= 5


def test_qdivisor_floor():
    d = QDivisor.of([(Point.coord(0), F(5, 2)), (Point.infinity(), F(-1, 3))])
    f = d.floor()
    assert {str(p): c for p, c in f.terms} == {"0": 2, "inf": -1}

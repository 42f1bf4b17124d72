from fractions import Fraction as F

import pytest

from polysing import divclass
from polysing.cli import analyze, load_document
from polysing.divclass import (
    NotQGorenstein,
    class_group,
    factoriality_det,
    generator_degrees,
    gorenstein_solve,
    gorenstein_solve_numerical,
)
from polysing.errors import NoGlobalEquation, UnsupportedShape
from polysing.pdiv import P1, Point, QDivisor, polyhedral_divisor, rank
from polysing.polyhedra import make_cone, sigma_polyhedron
from polysing.ufdgen import construct_divisor, presentation


def test_class_group_examples(a2, e8, ex1):
    assert class_group(a2).torsion == (3,)
    assert class_group(a2).free_rank == 0 and class_group(a2).q_factorial
    assert class_group(e8).torsion == () and class_group(e8).free_rank == 0
    assert class_group(ex1).torsion == () and class_group(ex1).free_rank == 0


def test_class_group_relabel_and_trivial_point(rk1, sigma_ex1, ex1):
    moved = rk1({Point.coord(9): F(3, 2)})
    assert class_group(moved).torsion == (3,)
    # adding a support point with a tail-only coefficient changes nothing
    from polysing.polyhedra import tail_polyhedron

    coeffs = dict(ex1.coeffs)
    coeffs[Point.coord(7)] = tail_polyhedron(sigma_ex1)
    padded = polyhedral_divisor(P1, sigma_ex1, coeffs)
    assert class_group(padded).torsion == class_group(ex1).torsion
    assert class_group(padded).free_rank == class_group(ex1).free_rank


def test_class_group_not_q_factorial():
    orth = make_cone([(1, 0), (0, 1)])
    d = polyhedral_divisor(P1, orth, {Point.coord(0): sigma_polyhedron([(F(1, 2), F(1, 2))], orth)})
    cg = class_group(d)
    assert cg.free_rank == 1 and not cg.q_factorial


def test_gorenstein_ex1(ex1):
    sol = gorenstein_solve(ex1)
    assert sol.u == (F(-5), F(0))
    assert {str(p): a for p, a in sol.a} == {"0": 5, "1": -2, "inf": -3}
    assert sol.index == 1


def test_gorenstein_am_series(rk1):
    for m in range(1, 8):
        sol = gorenstein_solve(rk1({Point.infinity(): F(m + 1, m)}))
        assert sol.u == (F(-1),)
        assert sol.index == 1


def test_gorenstein_inconsistent():
    orth = make_cone([(1, 0), (0, 1)])
    big = sigma_polyhedron([(0, 2), (1, 1), (3, 0)], orth)
    d = polyhedral_divisor(P1, orth, {Point.coord(0): big})
    assert isinstance(gorenstein_solve(d), NotQGorenstein)


def test_gorenstein_requires_full_tail():
    half = make_cone([(1, 0)], 2)
    d = polyhedral_divisor(
        P1,
        half,
        {
            Point.coord(0): sigma_polyhedron([(F(1, 2), 0)], half),
            Point.infinity(): sigma_polyhedron([(F(1, 2), 0)], half),
        },
    )
    with pytest.raises(UnsupportedShape):
        gorenstein_solve(d)


def test_gorenstein_representative_independence(ex1):
    alt = polyhedral_divisor(
        ex1.base,
        ex1.tail,
        dict(ex1.coeffs),
        QDivisor.of([(Point.coord(0), F(-1)), (Point.infinity(), F(-1))]),
    )
    sol = gorenstein_solve(ex1)
    sol_alt = gorenstein_solve(alt)
    assert sol.u == sol_alt.u
    assert sol.index == sol_alt.index
    # the a-coefficients shift by the difference of the representatives
    diff = {str(p): a for p, a in sol.a}
    diff_alt = {str(p): a for p, a in sol_alt.a}
    assert diff["0"] - diff_alt["0"] == 1  # b_0 changed from 0 to -1
    assert diff["inf"] - diff_alt["inf"] == -1


def test_gorenstein_substitution(ex1, e8, a2, elliptic_nonminimal):
    from polysing.pdiv import support
    from polysing.ratlin import dot, mu

    for d in (ex1, e8, a2, elliptic_nonminimal):
        sol = gorenstein_solve(d)
        a = dict(sol.a)
        sup = dict(support(d))
        for p, a_p in sol.a:
            b_p = d.canonical.coefficient(p)
            verts = sup[p].vertices if p in sup else ((F(0),) * len(sol.u),)
            for v in verts:
                m = mu(v)
                assert m * a_p + m * dot(sol.u, v) == m * b_p + m - 1
        assert sum(a.values()) == 0


def test_factoriality_examples(ex1, a2):
    f = factoriality_det(ex1)
    assert f.factorial and abs(f.det) == 1 and f.shape == (5, 5)
    f2 = factoriality_det(a2)
    assert not f2.factorial and abs(f2.det) == 3
    orth = make_cone([(1, 0), (0, 1)])
    d = polyhedral_divisor(P1, orth, {Point.coord(0): sigma_polyhedron([(F(1, 2), 0)], orth)})
    f3 = factoriality_det(d)
    assert f3.factorial and abs(f3.det) == 1


def test_factoriality_matches_class_group(ex1, a2, e8, rk1):
    for d in (ex1, a2, e8, rk1({Point.infinity(): F(5, 3)})):
        cg = class_group(d)
        trivial = not cg.torsion and cg.free_rank == 0
        assert factoriality_det(d).factorial == trivial


def test_generator_degrees_e8(e8):
    u0, f0 = generator_degrees(e8, (Point.coord(0), (F(1, 2),)))
    u1, _ = generator_degrees(e8, (Point.coord(1), (F(1, 3),)))
    u2, _ = generator_degrees(e8, (Point.infinity(), (F(-4, 5),)))
    assert (u0, u1, u2) == ((15,), (10,), (6,))
    assert f0.degree == 0 and f0.is_integral()
    assert {str(p): c for p, c in f0.terms} == {"0": -7, "1": -5, "inf": 12}


def test_generator_degrees_reexpansion(ex1):
    from polysing.pdiv import support
    from polysing.polyhedra import minimal_generators
    from polysing.ratlin import dot, mu

    target = (Point.coord(1), (F(-1, 2), F(0)))
    u, fdiv = generator_degrees(ex1, target)
    # expand the principal divisor of f*chi^u and check it is the indicator
    sup = dict(support(ex1))
    for p, poly in sup.items():
        for v in poly.vertices:
            m = mu(v)
            coeff = m * (dot(u, v) + fdiv.coefficient(p))
            assert coeff == (1 if (p, v) == target else 0)
    for ray in minimal_generators(ex1.tail):
        # both rays are contracted on EX1; no condition there
        pass


def test_generator_degrees_coordinate_function(rk1):
    # lattice-vertex coefficient: the cutting function is a coordinate
    d = rk1({Point.coord(0): F(1)})
    u, fdiv = generator_degrees(d, (Point.infinity(), (F(0),)))
    assert fdiv.degree == 0 and fdiv.is_integral()
    assert {str(p): c for p, c in fdiv.terms} == {"0": -1, "inf": 1}


def test_generator_degrees_needs_trivial_class(a2):
    with pytest.raises(NoGlobalEquation):
        generator_degrees(a2, (Point.infinity(), (F(3, 2),)))


def test_numerical_mode():
    res = gorenstein_solve_numerical(
        classes=[[1], [1], [1]],
        b=[F(0), F(0), F(-2)],
        vertex_lists=[[[F(1, 2)]], [[F(1, 3)]], [[F(-4, 5)]]],
        extremal_rays=[],
        lattice_rank=1,
    )
    assert not isinstance(res, NotQGorenstein)
    assert res.u == (F(-1),)
    assert res.index == 1
    assert not res.principality_checked


def test_principality_tests(ex1, rk1):
    from polysing.pdiv import A1, PROJECTIVE_LINE, polyhedral_divisor
    from polysing.polyhedra import make_cone, sigma_polyhedron

    def principal_on_base(d, div):
        """Principality of a rational divisor on P^1 or the affine line."""
        if d.base.kind == PROJECTIVE_LINE:
            return div.is_integral() and div.degree == 0
        return div.is_integral()

    assert principal_on_base(ex1, QDivisor.of([(Point.coord(0), F(1)), (Point.infinity(), F(-1))]))
    assert not principal_on_base(ex1, QDivisor.of([(Point.coord(0), F(1))]))  # degree 1
    assert not principal_on_base(
        ex1, QDivisor.of([(Point.coord(0), F(1, 2)), (Point.infinity(), F(-1, 2))])
    )
    ray = make_cone([(1,)], 1)
    aff = polyhedral_divisor(A1, ray, {Point.coord(0): sigma_polyhedron([(F(1, 2),)], ray)})
    assert principal_on_base(aff, QDivisor.of([(Point.coord(0), F(3))]))  # any integral sum


def test_class_system_is_built_once_per_divisor_and_extra_points(monkeypatch, data_dir):
    """Class group, factoriality, the canonical class and every generator
    degree read one memoized system per divisor; a target point outside the
    system is solved on it too, and adds no system of its own."""
    cases = []
    for name in ("admissible_e8.json", "admissible_fourfold.json"):
        data = load_document(data_dir / name)["data"]
        d = construct_divisor(data)
        # a fresh divisor, so that nothing is memoized on it yet
        cases.append((data, polyhedral_divisor(d.base, d.tail, dict(d.coeffs), d.canonical)))
    built = []
    monster_rows = divclass._monster_rows

    def spy(data, class_rows):
        built.append(data)
        return monster_rows(data, class_rows)

    monkeypatch.setattr(divclass, "_monster_rows", spy)
    outside = Point.coord(F(99))
    for data, d in cases:
        built.clear()
        analyze(d)
        presentation(data, d)
        presentation(data, d)
        for _ in range(2):
            _, fdiv = generator_degrees(d, (outside, (F(0),) * rank(d)))
            assert fdiv.coefficient(outside) == 1
        assert len(built) == 1
        assert outside not in built[0].points

import random
from fractions import Fraction as F
from itertools import combinations
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polysing.cli import parse_document
from polysing.divclass import gorenstein_solve
from polysing.errors import NotQGorensteinError, PolysingError, UnsupportedBase, UnsupportedRank
from polysing.pdiv import (
    A1,
    ABSTRACT,
    P1,
    PROJECTIVE_LINE,
    Curve,
    Point,
    _support_rows,
    evaluate,
    floor_degree,
    is_proper,
    polyhedral_divisor,
    quasifan,
    rank,
    require_proper,
    support,
)
from polysing.polyhedra import (
    cayley_cone,
    cone_contains,
    cone_dim,
    face_of_cone,
    halfspaces,
    is_regular,
    make_cone,
    minkowski_sum,
    sigma_polyhedron,
    support_value,
    tail_polyhedron,
)
from polysing.ratlin import dot, invert_unimodular, matrix_rank, mu, saturated_basis, vec_add, vec_sub
from polysing.singcheck import (
    DEFAULT_BUDGET,
    Verdict,
    _adapted_basis,
    boundary_data,
    check_cm,
    check_elliptic,
    check_isolated,
    check_log_terminal,
    check_rational,
    check_smooth,
    classify_canonical,
    discrepancies,
)
from polysing.ufdgen import admissible_data, construct_divisor, default_points


def rk1_points(rk1, fracs):
    pts = [Point.coord(0), Point.coord(1), Point.infinity()]
    return rk1(dict(zip(pts, fracs)))


def test_smooth_two_point_plane(ray):
    py = sigma_polyhedron([(0,)], ray)
    pz = sigma_polyhedron([(1,)], ray)
    d = polyhedral_divisor(P1, ray, {Point.coord(0): py, Point.infinity(): pz})
    assert check_smooth(d).status == "yes"


def test_smooth_affine_chart(ray):
    d = polyhedral_divisor(A1, ray, {Point.coord(0): sigma_polyhedron([(F(-1, 2),)], ray)})
    v = check_smooth(d)
    assert v.status == "no"


def test_smooth_affine_trivial():
    orth = make_cone([(1, 0), (0, 1)])
    d = polyhedral_divisor(A1, orth, {Point.coord(0): tail_polyhedron(orth)})
    assert check_smooth(d).status == "yes"
    skew = make_cone([(2, -1), (0, 1)])
    d2 = polyhedral_divisor(A1, skew, {Point.coord(0): tail_polyhedron(skew)})
    assert check_smooth(d2).status == "no"


def test_smooth_ex1(ex1):
    assert check_smooth(ex1).status == "no"


def test_smooth_three_fractional(rk1):
    d = rk1_points(rk1, [F(1, 2), F(1, 3), F(-4, 5)])
    v = check_smooth(d)
    assert v.status == "no"
    assert "two coefficients" in v.reason


def test_smooth_lattice_translation(rk1):
    # 1/2[0] is the plane in disguise: one fractional coefficient only
    d = rk1({Point.coord(0): F(1, 2)})
    assert check_smooth(d).status == "yes"


def test_isolated_examples(e8, ex1):
    assert check_isolated(e8).status == "yes"
    assert check_isolated(ex1).status == "yes"


def test_isolated_fails_for_bad_data():
    from polysing.ufdgen import admissible_data, construct_divisor, default_points

    data = admissible_data(list(zip(default_points(3), [(2, 2), (3,), (5,)])))
    d = construct_divisor(data)
    assert check_isolated(d).status == "no"


def test_isolated_needs_projective(ray):
    d = polyhedral_divisor(A1, ray, {Point.coord(0): sigma_polyhedron([(F(1, 2),)], ray)})
    with pytest.raises(UnsupportedBase):
        check_isolated(d)


def test_rational_examples(ex1, elliptic_minimal):
    v = check_rational(ex1)
    assert v.status == "yes"
    assert v.witness == {"u": [1, 0], "floor_degree": -1}
    v2 = check_rational(elliptic_minimal)
    assert v2.status == "no"
    assert v2.witness == {"u": [1], "floor_degree": -2}


def test_rational_affine(ray):
    d = polyhedral_divisor(A1, ray, {Point.coord(0): sigma_polyhedron([(F(-7, 3),)], ray)})
    assert check_rational(d).status == "yes"


def test_rational_genus(rk1):
    from polysing.pdiv import ABSTRACT, Curve

    ell = Curve(ABSTRACT, 1)
    d = polyhedral_divisor(
        ell, make_cone([(1,)], 1), {Point.label("p"): sigma_polyhedron([(F(1, 2),)], make_cone([(1,)], 1))}
    )
    assert check_rational(d).status == "no"


def test_cm_examples(rk1, ex1):
    assert check_cm(rk1({Point.infinity(): F(3, 2)})).status == "yes"
    cm = check_cm(ex1)
    assert cm.status == "iff_rational" and cm.holds() is True
    # non-isolated rank-2 projective with a non-extremal ray: no criterion
    from polysing.ufdgen import admissible_data, construct_divisor, default_points

    data = admissible_data(list(zip(default_points(3), [(2, 2), (3,), (5,)])))
    d = construct_divisor(data)
    assert check_cm(d).status == "inconclusive"


def test_cm_all_rays_extremal():
    orth = make_cone([(1, 0), (0, 1)])
    d = polyhedral_divisor(
        P1,
        orth,
        {
            Point.coord(0): sigma_polyhedron([(F(1, 2), F(1, 2))], orth),
            Point.infinity(): sigma_polyhedron([(F(1, 3), F(1, 3))], orth),
        },
    )
    from polysing.pdiv import extremal_data

    assert not extremal_data(d).non_extremal_rays
    cm = check_cm(d)
    assert cm.status == "iff_rational"


def test_discrepancies_ex1(ex1):
    rep = discrepancies(ex1, gorenstein_solve(ex1))
    rays = {e.ray: e.value for e in rep.entries if e.kind == "ray"}
    assert rays == {(1, 0): 4, (1, 6): 4}
    assert all(e.exceptional for e in rep.entries if e.kind == "ray")
    assert all(e.value == 0 for e in rep.entries if e.kind == "vertex")


def test_discrepancies_am_and_table_e6(rk1):
    am = rk1({Point.infinity(): F(4, 3)})
    rep = discrepancies(am, gorenstein_solve(am))
    (rv,) = [e.value for e in rep.entries if e.kind == "ray"]
    assert rv == 0
    e6 = rk1_points(rk1, [F(1, 2), F(1, 3), F(-1, 3)])
    rep6 = discrepancies(e6, gorenstein_solve(e6))
    (rv6,) = [e.value for e in rep6.entries if e.kind == "ray"]
    assert rv6 == F(-2, 3)


def test_discrepancies_reject_not_gorenstein():
    orth = make_cone([(1, 0), (0, 1)])
    big = sigma_polyhedron([(0, 2), (1, 1), (3, 0)], orth)
    d = polyhedral_divisor(P1, orth, {Point.coord(0): big})
    with pytest.raises(NotQGorensteinError):
        discrepancies(d, gorenstein_solve(d))


def test_log_terminal_profiles(rk1, ex1):
    assert check_log_terminal(rk1_points(rk1, [F(1, 2), F(1, 3), F(-4, 5)])).status == "yes"
    assert check_log_terminal(rk1_points(rk1, [F(1, 2), F(1, 3), F(1, 7)])).status == "no"
    v = check_log_terminal(ex1)
    assert v.status == "yes" and v.witness == "7/6"


def test_log_terminal_affine(ray):
    d = polyhedral_divisor(A1, ray, {Point.coord(0): sigma_polyhedron([(F(-1, 2),)], ray)})
    assert check_log_terminal(d).status == "yes"


def test_classify_canonical_a_series(rk1):
    for m in range(1, 7):
        c = classify_canonical(rk1({Point.infinity(): F(m + 1, m)}))
        assert (c.label, c.param, c.index) == ("A", m, 1)
        assert c.u0 == -1


def test_classify_canonical_de_series(rk1):
    for m in range(2, 7):
        c = classify_canonical(rk1_points(rk1, [F(1, 2), F(1, 2), F(-(m - 1), m)]))
        assert (c.label, c.param, c.index) == ("D", m + 2, 1)
    for m in (3, 4, 5):
        c = classify_canonical(rk1_points(rk1, [F(1, 2), F(1, 3), F(-(m - 1), m)]))
        assert (c.label, c.param, c.index) == ("E", m + 3, 1)


def test_classify_canonical_e6_graded_dimensions(rk1):
    # E(6) ring has weights (6, 4, 3) and one relation of weight 12
    d = rk1_points(rk1, [F(1, 2), F(1, 3), F(-2, 3)])
    c = classify_canonical(d)
    assert (c.label, c.param) == ("E", 6)
    for deg in range(25):
        count = sum(
            1
            for a in range(2)
            for b in range(deg // 4 + 1)
            for cc in range(deg // 3 + 1)
            if 6 * a + 4 * b + 3 * cc == deg
        )
        _, fd = floor_degree(evaluate(d, (deg,)))
        assert max(fd + 1, 0) == count


def test_classify_canonical_table_e6(rk1):
    c = classify_canonical(rk1_points(rk1, [F(1, 2), F(1, 3), F(-1, 3)]))
    assert c.label == "not_canonical"
    assert c.u0 == F(-1, 3)
    assert c.index == 9


def test_classify_canonical_regraded_a2(rk1):
    # 3/5[inf] presents the same ring as 3/2[inf] under a different grading
    c = classify_canonical(rk1({Point.infinity(): F(3, 5)}))
    assert (c.label, c.param, c.index) == ("A", 2, 1)


def test_classify_canonical_mirrored_tail():
    """Mirroring the lattice (tail ray -1, vertices negated) keeps the label
    and index and negates u0."""
    for fracs in ([F(1)], [F(3, 2)], [F(1), F(1, 3)], [F(1, 2), F(1, 6)], [F(1, 2), F(1, 2), F(-1, 3)]):
        pts = [Point.infinity(), Point.coord(0), Point.coord(1)]
        verdicts = []
        for sign in (1, -1):
            tail = make_cone([(sign,)], 1)
            coeffs = {p: sigma_polyhedron([(sign * c,)], tail) for p, c in zip(pts, fracs)}
            verdicts.append(classify_canonical(polyhedral_divisor(P1, tail, coeffs)))
        plain, mirrored = verdicts
        assert (mirrored.label, mirrored.param, mirrored.index) == (plain.label, plain.param, plain.index)
        assert mirrored.u0 == -plain.u0


def test_classify_canonical_rejects_rank2(ex1):
    with pytest.raises(UnsupportedRank):
        classify_canonical(ex1)


def test_elliptic_examples(elliptic_minimal, elliptic_nonminimal, rk1):
    e1 = check_elliptic(elliptic_minimal)
    assert (e1.status, e1.minimal, e1.witness_u, e1.index) == ("elliptic", True, 1, 1)
    e2 = check_elliptic(elliptic_nonminimal)
    assert (e2.status, e2.minimal, e2.index) == ("elliptic", False, 3)
    for m in range(1, 6):
        assert check_elliptic(rk1({Point.infinity(): F(m + 1, m)})).status == "not_elliptic"


def test_elliptic_minimal_certificate(elliptic_minimal):
    sol = gorenstein_solve(elliptic_minimal)
    assert sol.u == (F(1),)
    # u0*D1 - K - B is the negative of the solved base divisor: -[0]-[1]+2[inf]
    assert {str(p): -a for p, a in sol.a} == {"0": -1, "1": -1, "inf": 2}


def test_elliptic_implies_not_rational(elliptic_minimal, elliptic_nonminimal):
    for d in (elliptic_minimal, elliptic_nonminimal):
        e = check_elliptic(d)
        r = check_rational(d)
        assert e.status == "elliptic" and r.status == "no"
        assert r.witness["u"] == [e.witness_u]


def test_smooth_implies_isolated_implies_cm(rk1):
    d = rk1({Point.coord(0): F(1, 2)})
    assert check_smooth(d).status == "yes"
    # rank-1: CM unconditionally; isolated via the facet test on a rank-2 smooth case
    orth = make_cone([(1, 0), (0, 1)])
    d2 = polyhedral_divisor(
        P1,
        orth,
        {
            Point.coord(0): sigma_polyhedron([(1, 0)], orth),
        },
    )
    assert check_smooth(d2).status == "yes"
    assert check_isolated(d2).status == "yes"
    cm = check_cm(d2)
    assert cm.status == "iff_rational" and cm.holds() is True


def test_log_terminal_implies_rational(rk1):
    rng = random.Random(53)
    checked = 0
    while checked < 25:
        fracs = [F(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(3)]
        if sum(fracs) <= 0:
            continue
        d = rk1_points(rk1, fracs)
        lt = check_log_terminal(d)
        if lt.status != "yes":
            continue
        assert check_rational(d).status == "yes"
        checked += 1


def test_boundary_data(e8):
    bd = boundary_data(e8)
    assert {str(p): m for p, m in bd.mu_max} == {"0": 2, "1": 3, "inf": 5}
    assert bd.boundary.degree == F(1, 2) + F(2, 3) + F(4, 5)


def test_smooth_implies_isolated_random():
    rng = random.Random(61)
    orth = make_cone([(1, 0), (0, 1)])
    skew = make_cone([(1, 1), (1, -1)])
    seen_smooth = 0
    trials = 0
    while trials < 50:
        tail = rng.choice([orth, skew])
        pts = [Point.infinity()] + [Point.coord(i) for i in range(rng.randint(0, 1))]
        coeffs = {}
        for p in pts:
            coeffs[p] = sigma_polyhedron(
                [(F(rng.randint(-3, 3), rng.randint(1, 2)), F(rng.randint(-3, 3), rng.randint(1, 2)))],
                tail,
            )
        from polysing.pdiv import is_proper, polyhedral_divisor as pdv

        d = pdv(P1, tail, coeffs)
        if is_proper(d).status != "proper":
            continue
        trials += 1
        if check_smooth(d).status == "yes":
            seen_smooth += 1
            assert check_isolated(d).status == "yes"
    assert seen_smooth >= 3


def test_rational_budget_inconclusive(ex1):
    from polysing.singcheck import check_rational as cr

    v = cr(ex1, budget=1)
    assert v.status == "inconclusive"
    assert "budget" in v.reason
    # each transversal point costs a slab of ell^k points: ex1 folds two
    # points by the period 6
    assert cr(ex1, budget=11).status == "inconclusive"
    assert cr(ex1, budget=12).witness == {"u": [1, 0], "floor_degree": -1}


def test_adapted_basis_carries_its_inverse():
    """The basis starts with a basis of the saturation, and the inverse read
    off its Smith form is the inverse of the basis."""
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 4)
        gens = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(rng.randint(0, 3))]
        gens = [g for g in gens if any(g)]
        basis, inverse, k = _adapted_basis(gens, n)
        assert basis[:k] == saturated_basis(gens, n)
        assert [list(r) for r in inverse] == invert_unimodular(basis)


def test_adapted_basis_takes_one_smith_form(monkeypatch):
    import polysing.ratlin as rl
    import polysing.singcheck as sc

    calls = []
    original = rl.smith_normal_form

    def spy(a):
        calls.append(a)
        return original(a)

    monkeypatch.setattr(rl, "smith_normal_form", spy)
    rng = random.Random(13)
    checked = 0
    while checked < 100:
        n = rng.randint(1, 4)
        gens = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(rng.randint(1, 3))]
        gens = [g for g in gens if any(g)]
        if not gens:
            continue
        calls.clear()
        sc._adapted_basis(gens, n)
        assert len(calls) == 1
        checked += 1


def test_rational_budget_counts_lattice_points():
    """The budget counts the lattice points of the cut cell, not those of a
    bounding box: two points per cell decide this divisor."""
    doc = {
        "format": 1,
        "lattice_rank": 2,
        "tail_rays": [[1, 0], [0, 1], [1, -1]],
        "coefficients": [
            {"point": "inf", "vertices": [["0", "317/60"]]},
            {"point": "0", "vertices": [["-1", "-2"], ["1/6", "3/5"], ["1/2", "2/3"]]},
            {"point": "1", "vertices": [["3/2", "-7/4"]]},
            {"point": "2", "vertices": [["0", "2"], ["1/4", "-4/3"]]},
        ],
    }
    witness = {"u": [1, 1], "floor_degree": -1}
    for budget in (2, DEFAULT_BUDGET):
        v = check_rational(parse_document(doc)["data"], budget=budget)
        assert (v.status, v.witness) == ("yes", witness)


def _degree_zero_face_family(count):
    """ex1-shaped rank-2 divisors: a vertical edge at 0 and 2-4 points with a
    single vertex on the first axis, so the degree vanishes on the quasifan
    ray (1, 0) and the scan folds along it."""
    rng = random.Random(7)
    sigma = make_cone([(1, 0), (1, 6)], 2)
    for _ in range(count):
        others = [Point.infinity(), Point.coord(1), Point.coord(2), Point.coord(3)]
        others = others[: rng.randint(2, 4)]
        a = []
        for _ in others:
            q = rng.randint(2, 12)
            a.append(F(rng.randint(1, q - 1), q))
        c = sum(a) + F(rng.randint(1, 6), 6)
        t = rng.randint(1, 3)
        coeffs = {Point.coord(0): sigma_polyhedron([(c, 0), (c, t)], sigma)}
        coeffs.update((p, sigma_polyhedron([(-x, 0)], sigma)) for p, x in zip(others, a))
        yield polyhedral_divisor(P1, sigma, coeffs)


def _degree_zero_face_family_rank3(count):
    """Rank-3 analogues over three tails: 2-4 of the vertices (c,0,0), (c,t,0),
    (c,0,t), (c,t,s) at 0 and a single vertex (-x,0,0) at 2-3 other points.
    With (c,0,0) a vertex the degree vanishes on a two-dimensional face, and
    the scan folds along a rank-2 saturation (k = 2)."""
    rng = random.Random(27)
    tails = [
        make_cone(gens, 3)
        for gens in (
            [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
            [(1, 0, 0), (1, 4, 0), (1, 0, 5)],
            [(1, 0, 0), (2, 3, 0), (1, 1, 4)],
        )
    ]
    for _ in range(count):
        sigma = rng.choice(tails)
        others = [Point.infinity(), Point.coord(1), Point.coord(2)][: rng.randint(2, 3)]
        a = []
        for _ in others:
            q = rng.randint(2, 6)
            a.append(F(rng.randint(1, q - 1), q))
        c = sum(a) + F(rng.randint(1, 6), 6)
        t, s = rng.randint(1, 3), rng.randint(1, 3)
        verts = rng.sample([(c, 0, 0), (c, t, 0), (c, 0, t), (c, t, s)], rng.randint(2, 4))
        coeffs = {Point.coord(0): sigma_polyhedron(verts, sigma)}
        coeffs.update((p, sigma_polyhedron([(-x, 0, 0)], sigma)) for p, x in zip(others, a))
        yield polyhedral_divisor(P1, sigma, coeffs)


def _scan_degree_zero_family(family, budget, window):
    """check_rational over the proper members of family: each witness is the
    floor degree evaluated directly, a `no` is below -1, and a `yes` holds on
    window.  Returns the verdict counts and the k of every adapted basis."""
    import polysing.singcheck as sc

    ks = []
    adapted = sc._adapted_basis

    def spy(f_gens, n):
        out = adapted(f_gens, n)
        ks.append(out[2])
        return out

    verdicts = {"yes": 0, "no": 0}
    for d in family:
        if not is_proper(d):
            continue
        with patch.object(sc, "_adapted_basis", spy):
            v = check_rational(d, budget=budget)
        assert v.status in verdicts
        verdicts[v.status] += 1
        if v.witness is not None:
            u, val = v.witness["u"], v.witness["floor_degree"]
            assert floor_degree(evaluate(d, u))[1] == val
        if v.status == "no":
            assert val < -1
        else:
            assert all(floor_degree(evaluate(d, u))[1] >= -1 for u in window)
    return verdicts, ks


def test_rational_scan_on_degree_zero_faces():
    """Every verdict through cells that meet the degree-zero face (k > 0)
    agrees with floor degrees evaluated directly.  At rank 3 the face can be
    two-dimensional (k = 2): there the Smith transforms, not only the
    diagonal, fix which representatives the scan visits first."""
    window = [(u1, u2) for u1 in range(13) for u2 in range(-12, 13) if u1 + 6 * u2 >= 0]
    family = _degree_zero_face_family(300)
    verdicts, ks = _scan_degree_zero_family(family, DEFAULT_BUDGET, window)
    assert verdicts["yes"] > 50 and verdicts["no"] > 50
    assert any(k > 0 for k in ks)
    family = _degree_zero_face_family_rank3(30)
    _, ks = _scan_degree_zero_family(family, 10**4, [])
    assert 2 in ks


def _reference_cell_faces(c):
    """The face enumeration as a dot product per (subset, generator,
    half-space) triple: every subset of the half-spaces by size, in
    `combinations` order, inserted into a set."""
    import polysing.singcheck as sc

    hs = sc.halfspaces(c)
    faces = set()
    for size in range(len(hs) + 1):
        for sel in combinations(hs, size):
            gens = tuple(g for g in c.generators if all(dot(h, g) == 0 for h in sel))
            faces.add(gens)
    return faces


@st.composite
def _cells_with_normals(draw):
    """A cone of rank 2-4 with the coordinate rays among its generators, and
    0-2 redundant normals (sums of two of its half-spaces) to append."""
    n = draw(st.integers(2, 4))
    vec = st.lists(st.integers(-2, 3), min_size=n, max_size=n).filter(any)
    gens = draw(st.lists(vec, max_size=3 if n < 4 else 2))
    c = make_cone(gens + [[int(i == j) for j in range(n)] for i in range(n)], n)
    hs = halfspaces(c)
    if not hs:
        return c, hs
    pairs = st.tuples(st.integers(0, len(hs) - 1), st.integers(0, len(hs) - 1))
    extra = [vec_add(hs[i], hs[j]) for i, j in draw(st.lists(pairs, max_size=2))]
    return c, hs + tuple(extra)


@settings(max_examples=150)
@given(_cells_with_normals())
def test_cell_faces_keep_the_reference_order(case):
    """The bitmask walk yields the same faces in the same set order as the
    dot-product walk, so every isolatedness witness stays the same; the
    half-spaces include redundant normals, drawn and from the double
    description itself."""
    import polysing.singcheck as sc

    c, hs = case
    with patch.object(sc, "halfspaces", lambda cone: hs):
        assert list(sc._cell_faces(c)) == list(_reference_cell_faces(c))


def _face_of(p, u):
    """The face of p where <u, .> attains its minimum (u in the dual tail)."""
    _, minimizers = support_value(p, u)
    return sigma_polyhedron(minimizers, face_of_cone(p.tail, u))


def _poly_dim(poly):
    """Dimension of a sigma-polyhedron: the rank of its vertex differences
    together with its tail generators."""
    r0 = poly.numerators[0]
    return matrix_rank([vec_sub(r, r0) for r in poly.numerators[1:]] + list(poly.tail.generators))


def _isolated_by_minkowski_sums(d, seen_branches):
    """`check_isolated` as it was before it read the facet test off support
    values: the face sum is built as a Minkowski sum, and each vertex is tested
    for membership in tau.  Counts into `seen_branches` which test each facet
    took, and how many facets had tau = {0}."""
    import polysing.singcheck as sc

    require_proper(d)
    n = rank(d)
    sup = support(d)
    seen = set()
    for cell in quasifan(d).maximal_cells:
        for face_gens in sc._cell_faces(cell.cone):
            if not face_gens or face_gens in seen:
                continue
            seen.add(face_gens)
            u = tuple(sum(g[i] for g in face_gens) for i in range(n))
            faces = [(p, _face_of(poly, u)) for p, poly in sup]
            tau = face_of_cone(d.tail, u)
            codims = [n - _poly_dim(f) for _, f in faces]
            codims.append(n - cone_dim(tau))
            if min(codims) != 1:
                continue
            total = tail_polyhedron(tau)
            for _, f in faces:
                total = minkowski_sum(total, f)
            inside = all(cone_contains(tau, r) for r in total.numerators)
            rule = inside and tuple(F(0) for _ in range(n)) not in total.vertices
            sub = polyhedral_divisor(d.base, tau, [(p, f) for p, f in faces], canonical=d.canonical)
            if d.base.kind == PROJECTIVE_LINE:
                # on P^1 the facet rule is properness of the facet divisor
                assert rule == (is_proper(sub).status == "proper"), list(u)
            seen_branches["zero_tau"] += not tau.generators
            if rule:
                seen_branches["inside"] += 1
                ok = check_smooth(sub)
                if not ok:
                    return ("no", list(u), f"facet variety is singular: {ok.reason}")
            else:
                seen_branches["outside"] += 1
                for p, f in faces:
                    if not is_regular(cayley_cone([(f, (1,))])):
                        return ("no", list(u), f"singular fiber chart at {p} on this facet")
                if not is_regular(cayley_cone([(tail_polyhedron(tau), (1,))])):
                    return ("no", list(u), "singular generic chart on this facet")
    return ("yes", None, "")


def _orthant_divisors(count, base=P1):
    """Rank-2/3 divisors over the orthant, half of them with an extra tail
    ray that has one negative entry; the vertices at the first point are
    shifted so that the degree polyhedron lies in the open orthant.  On P^1
    the points are inf, 0, 1, 2; on an abstract curve they are labels."""
    rng = random.Random(14)
    for _ in range(count):
        n = rng.choice((2, 3))
        rays = [[int(i == j) for j in range(n)] for i in range(n)]
        if rng.random() < 0.5:
            extra = [1] * n
            extra[rng.randrange(n)] = -1
            rays.append(extra)
        tail = make_cone(rays, n)
        points = [Point.infinity()] + [Point.coord(i) for i in range(rng.randint(1, 3))]
        if base.kind == ABSTRACT:
            points = [Point.label(f"p{i}") for i in range(len(points))]
        verts = [
            [[F(rng.randint(-12, 12), rng.randint(1, 6)) for _ in range(n)] for _ in range(rng.randint(1, 3))]
            for _ in points
        ]
        for j in range(n):
            shift = F(1, rng.randint(1, 6)) - sum(min(v[j] for v in vs) for vs in verts)
            for v in verts[0]:
                v[j] += shift
        yield polyhedral_divisor(base, tail, {p: sigma_polyhedron(vs, tail) for p, vs in zip(points, verts)})


def _facet_oracle_divisors():
    """Seeded orthant divisors, the degree-zero family and four factorial
    constructions: the divisors of the facet oracles."""
    divisors = list(_orthant_divisors(200)) + list(_degree_zero_face_family(60))
    for mus in [((1, 1), (2,), (3,)), ((1, 1), (1, 1), (3,)), ((1, 1, 1), (2,), (3,)), ((2, 2), (3,), (5,))]:
        divisors.append(construct_divisor(admissible_data(list(zip(default_points(3), mus)))))
    return divisors


def test_isolated_matches_the_minkowski_sum_facet_test():
    """Verdict, witness and reason agree with the Minkowski-sum oracle on
    seeded proper divisors: orthant tails with and without an extra ray,
    ex1-shaped divisors with a degree-zero face, and factorial constructions.
    On every P^1 facet the oracle also checks that the facet rule holds exactly
    when the facet divisor is proper; both sides occur."""
    divisors = _facet_oracle_divisors()
    branches = {"inside": 0, "outside": 0, "zero_tau": 0}
    verdicts = {"yes": 0, "no": 0}
    checked = 0
    for d in divisors:
        if is_proper(d).status != "proper":
            continue
        checked += 1
        v = check_isolated(d)
        assert (v.status, v.witness, v.reason) == _isolated_by_minkowski_sums(d, branches)
        verdicts[v.status] += 1
    assert checked >= 200
    assert min(branches.values()) > 0 and min(verdicts.values()) > 0, (branches, verdicts)


def _outcome(fn):
    """(status, witness, reason) of a verdict or oracle tuple, or the type of
    the polysing error raised on the way."""
    try:
        v = fn()
    except PolysingError as exc:
        return type(exc)
    return (v.status, v.witness, v.reason) if isinstance(v, Verdict) else v


def test_isolated_on_a_genus_one_base_matches_the_oracle():
    """On an abstract genus-1 base, verdict, witness and reason, or the
    exception type, agree with the Minkowski-sum oracle on seeded proper
    divisors and on lattice-vertex ones, with both verdicts occurring.

    No facet there meets the facet rule: properness on a genus >= 1 base
    makes min <u, deg D> positive at every dual generator, hence at every
    nonzero u of the dual tail, while a face sum inside tau has <u, .> = 0.
    """
    base = Curve(ABSTRACT, 1)
    divisors = list(_orthant_divisors(200, base=base))
    for n in (2, 3):
        tail = make_cone([[int(i == j) for j in range(n)] for i in range(n)], n)
        for k in (1, 2, 3):
            # vertices (k, .., k) and k - 1 copies of (-1, .., -1): deg D = (1, .., 1)
            verts = [[k if i == 0 else -1] * n for i in range(k)]
            coeffs = {Point.label(f"q{i}"): sigma_polyhedron([v], tail) for i, v in enumerate(verts)}
            divisors.append(polyhedral_divisor(base, tail, coeffs))
    branches = {"inside": 0, "outside": 0, "zero_tau": 0}
    verdicts = {"yes": 0, "no": 0}
    for d in divisors:
        if is_proper(d).status != "proper":
            continue
        got = _outcome(lambda: check_isolated(d))
        assert got == _outcome(lambda: _isolated_by_minkowski_sums(d, branches))
        if isinstance(got, tuple):
            verdicts[got[0]] += 1
    assert branches["inside"] == 0 and branches["outside"] > 0, branches
    assert min(verdicts.values()) > 0, verdicts


def _bicone_by_polyhedra(tail, polys):
    """`_two_point_bicone` as it was on polyhedra: single lattice-point
    coefficients are translated away in Fractions, the first remaining one
    is moved by their sum, and `cayley_cone` joins it to the second."""
    n = tail.ambient_rank
    shift = tuple(F(0) for _ in range(n))
    nontrivial = []
    for poly in polys:
        if len(poly.vertices) == 1 and mu(poly.vertices[0]) == 1:
            shift = vec_add(shift, poly.vertices[0])
        else:
            nontrivial.append(poly)
    if len(nontrivial) > 2:
        return None
    while len(nontrivial) < 2:
        nontrivial.append(tail_polyhedron(tail))
    moved = sigma_polyhedron([vec_add(v, shift) for v in nontrivial[0].vertices], tail)
    return cayley_cone([(moved, (1,)), (nontrivial[1], (-1,))])


def _translate_divisors(count):
    """Rank-1 to 3 divisors on P^1 with 0-4 single lattice-point coefficients
    (nonzero ones among them) and 0-3 others: a fractional vertex, or
    several vertices, some of them integral."""
    rng = random.Random(16)
    for _ in range(count):
        n = rng.randint(1, 3)
        rays = [[int(i == j) for j in range(n)] for i in range(n)]
        if n > 1 and rng.random() < 0.5:
            extra = [1] * n
            extra[rng.randrange(n)] = -1
            rays.append(extra)
        tail = make_cone(rays, n)
        integral = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, 4))]
        polys = [sigma_polyhedron([v], tail) for v in integral]
        for _ in range(rng.randint(0, 3)):
            q = rng.choice((1, 2, 3, 4, 6))
            verts = [[F(rng.randint(-3 * q, 3 * q), q) for _ in range(n)] for _ in range(rng.randint(1, 3))]
            polys.append(sigma_polyhedron(verts, tail))
        rng.shuffle(polys)
        points = [Point.infinity()] + [Point.coord(i) for i in range(len(polys) - 1)]
        yield polyhedral_divisor(P1, tail, dict(zip(points, polys)))


def test_bicone_from_rows_matches_the_polyhedron_construction():
    """On seeded divisors on P^1, the bicone from the support's integer rows
    equals the one from translated polyhedra, and both give None when more
    than two coefficients are not lattice translates."""
    import polysing.singcheck as sc

    outcomes = {"cone": 0, "none": 0, "translated": 0}
    for d in _translate_divisors(300):
        polys = [poly for _, poly in support(d)]
        got = sc._two_point_bicone(d.tail, *_support_rows(d))
        assert got == _bicone_by_polyhedra(d.tail, polys)
        outcomes["none" if got is None else "cone"] += 1
        translates = [p for p in polys if len(p.vertices) == 1 and mu(p.vertices[0]) == 1]
        outcomes["translated"] += got is not None and bool(translates)
    assert min(outcomes.values()) > 0, outcomes


def test_facet_bicones_match_the_polyhedron_construction():
    """On every facet of the divisors of the Minkowski-sum oracle test, the
    bicone from the faces' integer rows equals the one from face polyhedra."""
    import polysing.singcheck as sc

    divisors = _facet_oracle_divisors()
    outcomes = {"cone": 0, "none": 0}
    for d in divisors:
        if is_proper(d).status != "proper":
            continue
        n = rank(d)
        ell, rows = _support_rows(d)
        seen = set()
        for cell in quasifan(d).maximal_cells:
            for face_gens in sc._cell_faces(cell.cone):
                if not face_gens or face_gens in seen:
                    continue
                seen.add(face_gens)
                u = tuple(sum(g[i] for g in face_gens) for i in range(n))
                tau = face_of_cone(d.tail, u)
                polys = [_face_of(poly, u) for _, poly in support(d)]
                if min([n - _poly_dim(f) for f in polys] + [n - cone_dim(tau)]) != 1:
                    continue
                faces = [[r for r in rs if dot(u, r) == min(dot(u, s) for s in rs)] for rs in rows]
                got = sc._two_point_bicone(tau, ell, faces)
                assert got == _bicone_by_polyhedra(tau, polys), list(u)
                outcomes["none" if got is None else "cone"] += 1
    assert min(outcomes.values()) > 0, outcomes
